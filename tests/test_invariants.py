from __future__ import annotations

import dataclasses
import math
import sys
from contextlib import ExitStack
from fractions import Fraction
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import hfg.cli as cli
import hfg.invariants
import hfg.verify
from hfg.budget import DEFAULT_BUDGET
from hfg.errors import DomainError, GridError
from hfg.fatgrid import (
    abstract_grid,
    grid_ideal_intersection,
    symbolic_grid,
)
from hfg.invariants import (
    AlphaTuple,
    alpha_degree,
    alpha_tuple,
    beta_degree,
    corner_sets,
    generator_patterns,
    hilbert_from_resolution,
    invariants_report,
    resolution,
    resurgence_certificate,
    s_tuples,
    tuples_from_multiplicities,
    waldschmidt,
)
from hfg.polycore import ideal_equal
from hfg.verify import grid_elimination_unit, pattern_ideal

from conftest import is_totally_ordered

EXAMPLE_ALPHA = (21, 21, 17, 17, 17, 13, 13, 13, 9, 9, 9, 5, 5, 5, 2, 2, 2)
EXAMPLE_V = {(2, 21), (5, 17), (8, 13), (11, 9), (14, 5), (17, 2)}
EXAMPLE_C = {(0, 21), (2, 17), (5, 13), (8, 9), (11, 5), (14, 2), (17, 0)}
EXAMPLE_PATTERNS = [
    ((6, 6, 5), (0, 0, 0, 0)),
    ((5, 5, 4), (1, 1, 0, 0)),
    ((4, 4, 3), (2, 2, 1, 0)),
    ((3, 3, 2), (3, 3, 2, 1)),
    ((2, 2, 1), (4, 4, 3, 2)),
    ((1, 1, 0), (5, 5, 4, 3)),
    ((0, 0, 0), (6, 6, 5, 4)),
]


def test_s_tuples_are_totally_ordered(example_grid):
    tuples = s_tuples(example_grid)
    assert is_totally_ordered(tuples)
    simple = s_tuples(abstract_grid((1,), (1,)))
    assert simple == [(1,)]
    assert is_totally_ordered(simple)


def test_non_grid_multiplicities_are_not_totally_ordered():
    # A 2x2 multiplicity matrix that cannot come from m_i + n_j - 1.
    bad = tuples_from_multiplicities([[1, 1], [3, 1]])
    assert not is_totally_ordered(bad)


def test_alpha_tuple_example(example_grid):
    assert alpha_tuple(example_grid).entries == EXAMPLE_ALPHA


def test_alpha_tuple_single_point():
    assert alpha_tuple(abstract_grid((1,), (1,))).entries == (1,)


def test_alpha_tuple_bookkeeping(example_grid):
    entries = alpha_tuple(example_grid).entries
    assert sum(entries) == example_grid.scheme_degree() == 180
    m = example_grid.row_multiplicities
    ns = example_grid.col_multiplicities[-1]
    assert len(entries) == sum(mi + ns - 1 for mi in m)


def test_alpha_tuple_validation():
    with pytest.raises(GridError):
        AlphaTuple(())
    with pytest.raises(GridError):
        AlphaTuple((1, 2))
    with pytest.raises(GridError):
        AlphaTuple((2, 0))


def test_corner_sets_example(example_grid):
    cs = corner_sets(alpha_tuple(example_grid))
    assert cs.V == EXAMPLE_V
    assert cs.C == EXAMPLE_C


def test_corner_sets_small_tuples():
    single = corner_sets(AlphaTuple((1,)))
    assert single.C == {(1, 0), (0, 1)}
    assert single.V == {(1, 1)}
    constant = corner_sets(AlphaTuple((3, 3)))
    assert constant.C == {(2, 0), (0, 3)}
    assert constant.V == {(2, 3)}


def test_corner_set_shapes():
    constant = corner_sets(AlphaTuple((4, 4, 4)))
    assert len(constant.V) == 1
    strict = corner_sets(AlphaTuple((5, 4, 3, 1)))
    assert len(strict.C) == 5
    assert len(strict.V) == len(strict.C) - 1


def test_resolution_example(example_grid):
    shifts = resolution(example_grid)
    assert sorted(shifts.generator_twists) == [16, 16, 17, 17, 18, 19, 21]
    assert sorted(shifts.syzygy_twists) == [19, 19, 20, 21, 22, 23]


def test_resolution_single_point():
    shifts = resolution(abstract_grid((1,), (1,)))
    assert sorted(shifts.generator_twists) == [1, 1]
    assert sorted(shifts.syzygy_twists) == [2]


def test_generator_patterns_example(example_grid):
    patterns = generator_patterns(example_grid)
    assert len(patterns) == 7
    assert [p.k for p in patterns] == list(range(7))
    assert [(p.h_exponents, p.v_exponents) for p in patterns] == EXAMPLE_PATTERNS
    assert [p.degree for p in patterns] == [17, 16, 16, 17, 18, 19, 21]


def test_generator_patterns_single_point():
    patterns = generator_patterns(abstract_grid((1,), (1,)))
    assert [(p.h_exponents, p.v_exponents) for p in patterns] == [
        ((1,), (0,)),
        ((0,), (1,)),
    ]


def test_pattern_degrees_bracket_alpha_and_beta(example_grid):
    degrees = [p.degree for p in generator_patterns(example_grid)]
    assert min(degrees) == alpha_degree(example_grid) == 16
    assert max(degrees) == beta_degree(example_grid) == 21


def test_alpha_degree_values(example_grid):
    assert alpha_degree(example_grid) == 16
    assert alpha_degree(abstract_grid((1,), (1,))) == 1


def test_beta_degree_values(example_grid):
    assert beta_degree(abstract_grid((1,), (1,))) == 1
    assert beta_degree(example_grid) >= alpha_degree(example_grid)


def test_waldschmidt_values(example_grid):
    assert waldschmidt(example_grid) == Fraction(16)
    assert waldschmidt(abstract_grid((1,), (1,))) == Fraction(1)


def test_alpha_scales_under_symbolic_powers(example_grid):
    base = alpha_degree(example_grid)
    for t in range(1, 6):
        assert alpha_degree(symbolic_grid(example_grid, t)) == t * base


def test_hilbert_from_resolution_single_point():
    shifts = resolution(abstract_grid((1,), (1,)))
    assert hilbert_from_resolution(shifts, 0) == 0
    assert hilbert_from_resolution(shifts, 1) == 2
    with pytest.raises(DomainError):
        hilbert_from_resolution(shifts, -1)


def test_hilbert_from_resolution_example_tail(example_grid):
    shifts = resolution(example_grid)
    for d in (21, 25, 40):
        assert hilbert_from_resolution(shifts, d) == math.comb(d + 2, 2) - 180


def test_pattern_ideal_matches_oracle_on_small_grid():
    g = abstract_grid((1, 2), (1, 2))
    assert ideal_equal(pattern_ideal(g), grid_ideal_intersection(g))


def test_resurgence_certificate_trivial_t1(example_grid):
    # the first symbolic power is the grid ideal itself: nothing to certify
    report = resurgence_certificate(example_grid, 1)
    assert report.passed
    assert report.instances == []
    labels = [inst.label for inst in resurgence_certificate(example_grid, 3).instances]
    assert [label[:4] for label in labels] == ["t=2:"] * 3 + ["t=3:"] * 3


def test_resurgence_certificate_example_t3(example_grid, example_budget):
    report = resurgence_certificate(example_grid, 3)
    assert report.passed
    instances = grid_elimination_unit(example_grid, 3, example_budget)
    skipped = [inst for inst in instances if inst.flag]
    # The full elimination cross-check is out of budget for the 3x4 grid and
    # must be reported as skipped, never silently dropped.
    assert skipped
    assert all("skipped" in inst.flag for inst in skipped)


def test_resurgence_certificate_with_groebner_cross_check():
    g = abstract_grid((1, 2), (1, 2))
    report = resurgence_certificate(g, 2)
    assert report.passed
    oracle_instances = [
        inst
        for inst in grid_elimination_unit(g, 2, DEFAULT_BUDGET)
        if "elimination oracle" in inst.label
    ]
    assert len(oracle_instances) == 1
    assert all(inst.flag is None for inst in oracle_instances)
    assert all(inst.computed == "equal" for inst in oracle_instances)


def test_invariants_report_serialization(example_grid):
    report = invariants_report(example_grid, t_max=2)
    assert list(report) == [
        "alpha_tuple",
        "C",
        "V",
        "generator_twists",
        "syzygy_twists",
        "alpha",
        "beta",
        "waldschmidt",
        "resurgence",
    ]
    assert report["alpha_tuple"] == list(EXAMPLE_ALPHA)
    assert report["C"] == [list(pair) for pair in sorted(EXAMPLE_C)]
    assert report["V"] == [list(pair) for pair in sorted(EXAMPLE_V)]
    assert report["generator_twists"] == [16, 16, 17, 17, 18, 19, 21]
    assert report["syzygy_twists"] == [19, 19, 20, 21, 22, 23]
    assert report["alpha"] == 16
    assert report["beta"] == 21
    assert report["waldschmidt"] == "16/1"
    assert report["resurgence"] == 1


def test_resurgence_certificate_above_the_grid_cap_builds_no_symbolic_grid(
    monkeypatch,
):
    built = []
    build = hfg.verify.symbolic_grid

    def counted(g, t):
        built.append(t)
        return build(g, t)

    monkeypatch.setattr(hfg.verify, "symbolic_grid", counted)
    g = abstract_grid((1, 2), (1, 2))  # total multiplicity 8
    budget = dataclasses.replace(DEFAULT_BUDGET, max_grid_multiplicity=12)
    assert resurgence_certificate(g, 3).passed
    instances = grid_elimination_unit(g, 3, budget)
    oracle = [inst for inst in instances if "elimination oracle" in inst.label]
    assert [inst.status for inst in oracle] == ["skipped", "skipped"]
    # t=2 and t=3 exceed the grid cap
    assert [inst.flag for inst in oracle] == [
        "skipped: grid total multiplicity %d exceeds budget 12;"
        " raise it with --budget-degree" % (t * 8)
        for t in (2, 3)
    ]
    assert built == []


def test_invariants_report_runs_no_oracle(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle work in the closed-form report")

    for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "hfg"]:
        for name in ("grid_ideal_intersection", "ideal_power", "symbolic_grid"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    report = invariants_report(abstract_grid((1, 2), (1, 2)), t_max=2)
    assert report["resurgence"] == 1


def _unbalance_the_split(monkeypatch):
    monkeypatch.setattr(
        hfg.invariants, "_balanced_split", lambda k, t: [k] + [0] * (t - 1)
    )


def test_resurgence_certificate_reports_a_pattern_mismatch(monkeypatch):
    _unbalance_the_split(monkeypatch)
    report = resurgence_certificate(abstract_grid((1, 2), (1, 1)), 2)
    assert not report.passed
    assert [(inst.computed, inst.passed) for inst in report.failures()] == [
        ("mismatch at k=[2, 3, 4]", False)
    ]


def test_resurgence_certificate_reports_undominated_products(monkeypatch):
    multiplicities = hfg.invariants.symbolic_multiplicities

    def padded(g, t):
        # one more on every column multiplicity of the symbolic grids
        m, n = multiplicities(g, t)
        return m, [x + (t > 1) for x in n]

    monkeypatch.setattr(hfg.invariants, "symbolic_multiplicities", padded)
    report = resurgence_certificate(abstract_grid((1, 2), (1, 1)), 2)
    assert [inst.computed for inst in report.failures()] == [
        "a'=[5, 3], b'=[0, 0], 6 patterns",
        "mismatch at k=[0, 1, 2, 3, 4]",
        "failures at [(0, 0), (0, 1), (0, 2)]",
    ]


def test_resurgence_certificate_reports_a_missing_symbolic_pattern(monkeypatch):
    """N' = tN - (t-1) leaves the symbolic family too few patterns for the
    largest t-fold index sums: those products fail, and nothing raises."""
    multiplicities = hfg.invariants.symbolic_multiplicities

    def short(g, t):
        m, n = multiplicities(g, t)
        return m, [x - (t - 1) for x in n]

    monkeypatch.setattr(hfg.invariants, "symbolic_multiplicities", short)
    report = resurgence_certificate(abstract_grid((1, 2), (1, 2, 3)), 2)
    assert not report.passed
    assert [inst.computed for inst in report.failures()] == [
        "a'=[7, 5], b'=[0, -2, -4], 8 patterns",
        "mismatch at k=[0, 1, 2, 3, 4, 5, 6, 7]",
        # 4 + 4 is past the last symbolic pattern, k = 7
        "failures at [(4, 4)]",
    ]


def test_failed_certificate_is_an_invalid_grid(monkeypatch):
    _unbalance_the_split(monkeypatch)
    with pytest.raises(GridError, match="resurgence certificate failed: t=2: "):
        invariants_report(abstract_grid((1, 2), (1, 1)))
    result = CliRunner().invoke(cli.main, ["invariants", "--m", "1,2", "--n", "1,1"])
    assert result.exit_code == 2
    assert result.stderr == (
        "invalid grid: resurgence certificate failed: t=2: every symbolic"
        " pattern is the balanced t-fold product of base patterns\n"
    )


def _literal_certificate(g, t_max):
    """The certificate's instances by the literal enumeration: every t-fold
    product of base patterns summed index by index from the pattern
    attributes, each symbolic pattern rebuilt from ``_balanced_split``."""
    inv = hfg.invariants
    base_patterns = inv.generator_patterns(g)
    a, b = inv._bounds(g.row_multiplicities, g.col_multiplicities)
    instances = []
    for t in range(2, t_max + 1):
        mt, nt = inv.symbolic_multiplicities(g, t)
        sym_patterns = inv._patterns(mt, nt)
        at, bt = inv._bounds(mt, nt)
        count = t * (len(base_patterns) - 1) + 1
        structural = (
            at == [t * x for x in a]
            and bt == [t * y for y in b]
            and len(sym_patterns) == count
        )
        mismatches = []
        for pat in sym_patterns:
            ks = inv._balanced_split(pat.k, t)
            h = tuple(sum(max(x - k, 0) for k in ks) for x in a)
            v = tuple(sum(max(y + k, 0) for k in ks) for y in b)
            if h != pat.h_exponents or v != pat.v_exponents:
                mismatches.append(pat.k)
        sym_by_k = {pat.k: pat for pat in sym_patterns}
        undominated = []
        for combo in combinations_with_replacement(range(len(base_patterns)), t):
            target = sym_by_k.get(sum(combo))
            if target is None:
                undominated.append(combo)
                continue
            h = tuple(
                sum(base_patterns[k].h_exponents[i] for k in combo)
                for i in range(len(a))
            )
            v = tuple(
                sum(base_patterns[k].v_exponents[j] for k in combo)
                for j in range(len(b))
            )
            if not (
                all(x >= y for x, y in zip(h, target.h_exponents))
                and all(x >= y for x, y in zip(v, target.v_exponents))
            ):
                undominated.append(combo)
        instances += [
            (
                "t=%d: symbolic pattern family scales the base exponent bounds by t" % t,
                "a'=t*a, b'=t*b, %d patterns" % count,
                "a'=%s, b'=%s, %d patterns" % (at, bt, len(sym_patterns)),
                structural,
            ),
            (
                "t=%d: every symbolic pattern is the balanced t-fold product of"
                " base patterns" % t,
                "all %d patterns match" % len(sym_patterns),
                "all match" if not mismatches else "mismatch at k=%s" % mismatches,
                not mismatches,
            ),
            (
                "t=%d: every t-fold product of base patterns is divisible by a"
                " symbolic generator" % t,
                "all products dominate",
                "all dominate" if not undominated else "failures at %s" % undominated[:3],
                not undominated,
            ),
        ]
    return instances


profiles = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    M=profiles,
    N=profiles,
    t_max=st.integers(min_value=1, max_value=4),
    unbalanced=st.booleans(),
    padded=st.booleans(),
)
def test_resurgence_certificate_matches_the_literal_enumeration(
    M, N, t_max, unbalanced, padded
):
    # the two patches of the mutation tests above, so that failing instances
    # and their texts are compared too
    multiplicities = hfg.invariants.symbolic_multiplicities
    with ExitStack() as patches:
        if unbalanced:
            patches.enter_context(
                mock.patch.object(
                    hfg.invariants, "_balanced_split", lambda k, t: [k] + [0] * (t - 1)
                )
            )
        if padded:
            patches.enter_context(
                mock.patch.object(
                    hfg.invariants,
                    "symbolic_multiplicities",
                    lambda g, t: (
                        multiplicities(g, t)[0],
                        [x + (t > 1) for x in multiplicities(g, t)[1]],
                    ),
                )
            )
        g = abstract_grid(M, N)
        report = resurgence_certificate(g, t_max)
        assert [
            (inst.label, inst.expected, inst.computed, inst.passed)
            for inst in report.instances
        ] == _literal_certificate(g, t_max)
