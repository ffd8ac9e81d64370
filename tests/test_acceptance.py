"""Acceptance gate: the nine end-to-end criteria the toolkit must meet.

Every test times itself against the stated wall-clock cap and checks exact
values only -- no tolerances anywhere.
"""
from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path

from hfg.budget import DEFAULT_BUDGET
from hfg.fatgrid import abstract_grid, grid_ideal_intersection
from hfg.invariants import (
    alpha_degree,
    alpha_tuple,
    corner_sets,
    generator_patterns,
    hilbert_from_resolution,
    invariants_report,
    resolution,
    resurgence_certificate,
    waldschmidt,
)
from hfg.polycore import (
    PLANE,
    IdealPresentation,
    Polynomial,
    hadamard_ideals,
    ideal_equal,
    ideal_intersection,
    ideal_power,
    irrelevant_power,
    join_ideals,
)
from hfg.projective import Point, hadamard_point, point_ideal
from hfg.verify import check_grid_end_to_end, hilbert_series_oracle, pattern_ideal

from conftest import rebuilt_symbolic_grid, small_grid_profiles

TESTS_DIR = Path(__file__).resolve().parent


def elapsed_under(start: float, cap_seconds: float) -> None:
    elapsed = time.monotonic() - start
    assert elapsed < cap_seconds, f"took {elapsed:.1f}s, cap is {cap_seconds}s"


def test_criterion_1_example_reproduction():
    start = time.monotonic()
    g = abstract_grid((2, 3, 3), (2, 3, 4, 4))

    assert alpha_tuple(g).entries == (
        21, 21, 17, 17, 17, 13, 13, 13, 9, 9, 9, 5, 5, 5, 2, 2, 2,
    )
    cs = corner_sets(alpha_tuple(g))
    assert cs.V == {(2, 21), (5, 17), (8, 13), (11, 9), (14, 5), (17, 2)}
    assert cs.C == {(0, 21), (2, 17), (5, 13), (8, 9), (11, 5), (14, 2), (17, 0)}

    shifts = resolution(g)
    assert sorted(shifts.generator_twists) == [16, 16, 17, 17, 18, 19, 21]
    assert sorted(shifts.syzygy_twists) == [19, 19, 20, 21, 22, 23]

    patterns = generator_patterns(g)
    assert [(p.h_exponents, p.v_exponents) for p in patterns] == [
        ((6, 6, 5), (0, 0, 0, 0)),
        ((5, 5, 4), (1, 1, 0, 0)),
        ((4, 4, 3), (2, 2, 1, 0)),
        ((3, 3, 2), (3, 3, 2, 1)),
        ((2, 2, 1), (4, 4, 3, 2)),
        ((1, 1, 0), (5, 5, 4, 3)),
        ((0, 0, 0), (6, 6, 5, 4)),
    ]
    assert alpha_degree(g) == 16

    elapsed_under(start, 1.0)


def test_criterion_2_product_theorem_off_coordinate_lines():
    start = time.monotonic()
    p, q = Point((1, 2, 3)), Point((2, 1, 1))
    pq = hadamard_point(p, q)
    ip, iq, ipq = point_ideal(p), point_ideal(q), point_ideal(pq)
    for m in range(1, 5):
        for n in range(1, 5):
            if m + n > 5:
                continue
            product = hadamard_ideals(ideal_power(ip, m), ideal_power(iq, n))
            assert ideal_equal(product, ideal_power(ipq, m + n - 1)), (m, n)
    elapsed_under(start, 300.0)


def test_criterion_3_products_on_the_coordinate_lines():
    start = time.monotonic()
    x1 = Polynomial.variable(PLANE, 1)
    x2 = Polynomial.variable(PLANE, 2)

    # Both factors on coordinate lines with complementary zero coordinates:
    # the product collapses to a pure-power ideal.
    p, q = Point((1, 0, 1)), Point((1, 1, 0))
    ipq = point_ideal(hadamard_point(p, q))
    for m, n in [(1, 1), (2, 2), (2, 3)]:
        product = hadamard_ideals(
            ideal_power(point_ideal(p), m), ideal_power(point_ideal(q), n)
        )
        expected = IdealPresentation.from_polys(x1 ** m, x2 ** n)
        assert ideal_equal(product, expected), (m, n)

        low = ideal_power(ipq, m + n - 1)
        high = ideal_power(ipq, min(m, n))
        assert product.contains_ideal(low)
        assert high.contains_ideal(product)
        if (m, n) == (1, 1):
            assert ideal_equal(product, low)
        else:
            assert not low.contains_ideal(product)
            assert not product.contains_ideal(high)

    # One factor at a coordinate point: the product reproduces its power.
    p_off = Point((1, 2, 3))
    vertex = Point((1, 0, 0))
    for n in (1, 2, 3):
        product = hadamard_ideals(
            point_ideal(p_off), ideal_power(point_ideal(vertex), n)
        )
        assert ideal_equal(product, ideal_power(point_ideal(vertex), n)), n

    elapsed_under(start, 60.0)


def test_criterion_4_join_lemma_and_distributivity():
    start = time.monotonic()

    for m in range(1, 6):
        for n in range(1, 6):
            if m + n > 6:
                continue
            joined = join_ideals(irrelevant_power(m), irrelevant_power(n))
            assert ideal_equal(joined, irrelevant_power(m + n - 1)), (m, n)

    rng = random.Random(20260814)

    def random_point() -> Point:
        while True:
            coords = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 2)) for _ in range(3))
            if coords != (1, 1, 1):
                return Point(coords)

    for _ in range(10):
        points = []
        while len(points) < 3:
            candidate = random_point()
            if candidate not in points:
                points.append(candidate)
        i, j, k = (
            ideal_power(point_ideal(pt), rng.randint(1, 2)) for pt in points
        )
        left = hadamard_ideals(ideal_intersection(i, j), k)
        right = ideal_intersection(hadamard_ideals(i, k), hadamard_ideals(j, k))
        assert ideal_equal(left, right)

    # Product of two pairs of simple points whose four pairwise products
    # collapse onto three points.
    def ideal(*texts: str) -> IdealPresentation:
        return IdealPresentation.from_polys(
            *(Polynomial.from_string(PLANE, t) for t in texts)
        )

    i = ideal("5*x0 - x1 - x2", "6*x1^2 - 13*x1*x2 + 6*x2^2")
    j = ideal("5*x0 - 4*x1 - 3*x2", "16*x1^2 - 26*x1*x2 + 9*x2^2")
    components = [
        ideal("16*x1 - 27*x2", "4*x0 - 3*x2"),
        ideal("4*x1 - 3*x2", "2*x0 - x2"),
        ideal("3*x1 - x2", "3*x0 - x2"),
    ]
    assert ideal_equal(hadamard_ideals(i, j), reduce(ideal_intersection, components))

    elapsed_under(start, 300.0)


def test_criterion_5_generator_theorem_matches_oracle(small_family):
    start = time.monotonic()
    assert len(small_family) == len(small_grid_profiles())
    for g in small_family:
        assert ideal_equal(pattern_ideal(g), grid_ideal_intersection(g)), (
            g.row_multiplicities,
            g.col_multiplicities,
        )
    elapsed_under(start, 600.0)


def test_criterion_6_resolution_matches_rank_oracle(small_family, example_grid, example_budget):
    start = time.monotonic()
    for g in small_family:
        shifts = resolution(g)
        top = max(shifts.syzygy_twists)
        series = hilbert_series_oracle(g, top)
        for d in range(top + 1):
            assert hilbert_from_resolution(shifts, d) == series[d], (
                g.row_multiplicities,
                g.col_multiplicities,
                d,
            )

    shifts = resolution(example_grid)
    series = hilbert_series_oracle(
        example_grid, max(shifts.syzygy_twists), example_budget
    )
    assert series[15] == 0
    assert series[16] == 2
    for d in range(max(shifts.syzygy_twists) + 1):
        predicted = hilbert_from_resolution(shifts, d)
        assert predicted == series[d], d

    elapsed_under(start, 600.0)


def test_criterion_7_waldschmidt_and_symbolic_scaling():
    start = time.monotonic()
    rng = random.Random(1459)
    for _ in range(50):
        m = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        n = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        g = abstract_grid(m, n)
        base = alpha_degree(g)
        assert waldschmidt(g) == Fraction(base)
        for t in range(1, 6):
            assert alpha_degree(rebuilt_symbolic_grid(g, t)) == t * base, (m, n, t)

    # Double point: the oracle initial degree of each symbolic power grid
    # equals t * alpha.
    g = abstract_grid((2,), (1,))
    base = alpha_degree(g)
    assert base == 2
    for t in (1, 2, 3):
        series = hilbert_series_oracle(rebuilt_symbolic_grid(g, t), 19)
        first_positive = next(d for d in range(20) if series[d] > 0)
        assert first_positive == t * base, t

    elapsed_under(start, 120.0)


def test_criterion_8_resurgence_certificate(example_grid):
    start = time.monotonic()

    report = resurgence_certificate(example_grid)
    assert report.passed
    # one check for every t: no instance belongs to a single t
    assert [inst.label[:9] for inst in report.instances] == ["every t: "] * 2
    balanced = [inst for inst in report.instances if "balanced" in inst.label]
    assert balanced and all(inst.passed for inst in balanced)

    g = abstract_grid((1, 2), (1, 2))
    small_report = resurgence_certificate(g)
    assert small_report.passed
    oracle_instances = [
        inst
        for inst in check_grid_end_to_end(g, DEFAULT_BUDGET, t_max=2).instances
        if "elimination oracle" in inst.label
    ]
    assert len(oracle_instances) == 1
    assert all(inst.flag is None for inst in oracle_instances)
    assert all(inst.computed == "equal" for inst in oracle_instances)

    assert invariants_report(g, t_max=2)["resurgence"] == 1
    assert invariants_report(example_grid, t_max=3)["resurgence"] == 1

    elapsed_under(start, 600.0)


def test_criterion_9_property_suites():
    start = time.monotonic()

    import test_properties

    suites = [
        getattr(test_properties, name)
        for name in dir(test_properties)
        if name.startswith("test_")
    ]
    assert len(suites) == 6
    for fn in suites:
        assert fn._hypothesis_internal_use_settings.max_examples >= 200, fn.__name__

    run = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(TESTS_DIR / "test_properties.py"),
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr

    elapsed_under(start, 300.0)
