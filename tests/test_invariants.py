from __future__ import annotations

import dataclasses
import math
import sys
import tracemalloc
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
from hfg.fatgrid import abstract_grid, grid_ideal_intersection
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
from hfg.verify import check_grid_end_to_end, grid_elimination_unit, pattern_ideal

from conftest import is_totally_ordered, rebuilt_symbolic_grid

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
        assert alpha_degree(rebuilt_symbolic_grid(example_grid, t)) == t * base


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
    """t = 1 is the grid itself: the check's first evaluation gives back the
    base bounds and the m_r + n_s patterns, and no instance names one t."""
    report = resurgence_certificate(example_grid)
    assert report.passed
    assert [inst.label[:9] for inst in report.instances] == ["every t: "] * 2
    assert report.instances[0].computed == (
        "t=1: a'=[6, 6, 5], b'=[0, 0, -1, -2], 7 patterns;"
        " t=2: a'=[12, 12, 10], b'=[0, 0, -2, -4], 13 patterns"
    )
    assert report.instances[1].computed == (
        "t=2: all 13 symbolic patterns are balanced products;"
        " t=3: all 19 symbolic patterns are balanced products"
    )


def test_resurgence_certificate_example_t3(example_grid, example_budget):
    report = resurgence_certificate(example_grid)
    assert report.passed
    instances = grid_elimination_unit(example_grid, 3, example_budget)
    skipped = [inst for inst in instances if inst.flag]
    # The full elimination cross-check is out of budget for the 3x4 grid and
    # must be reported as skipped, never silently dropped.
    assert skipped
    assert all("skipped" in inst.flag for inst in skipped)


def test_resurgence_certificate_with_groebner_cross_check():
    g = abstract_grid((1, 2), (1, 2))
    report = resurgence_certificate(g)
    assert report.passed
    oracle_instances = [
        inst
        for inst in grid_elimination_unit(g, 2, DEFAULT_BUDGET)
        if "elimination oracle" in inst.label
    ]
    assert len(oracle_instances) == 1
    assert all(inst.flag is None for inst in oracle_instances)
    assert all(inst.computed == "equal" for inst in oracle_instances)


def test_certificate_is_the_same_at_every_depth_and_small(
    example_grid, example_budget, monkeypatch
):
    """``--t-max`` sets only the elimination unit's depth: the certificate
    instances of the plan are the same at t_max = 1, 2 and 18, and at 18
    the certificate allocates under 1 MB (the t-fold product enumeration it
    replaces peaked at 78.5 MB there)."""
    certify = hfg.verify.resurgence_certificate
    peaks = []

    def traced(g):
        tracemalloc.start()
        try:
            return certify(g)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(hfg.verify, "resurgence_certificate", traced)
    tails = [
        check_grid_end_to_end(example_grid, example_budget, t_max).instances[-2:]
        for t_max in (1, 2, 18)
    ]
    assert tails[0] == tails[1] == tails[2] == certify(example_grid).instances
    assert all(inst.passed for inst in tails[0])
    assert len(peaks) == 3 and peaks[-1] < 2**20


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


def test_power_above_the_degree_cap_builds_no_power(monkeypatch):
    """The grid cap no longer bounds a power: under a grid cap of 12 the
    (1,2|1,2) oracle (total multiplicity 8, top degree 5) computes t = 2,
    and the degree cap skips t = 3 before ``ideal_power`` runs."""
    powers = []
    build = hfg.verify.ideal_power

    def counted(ideal, t):
        powers.append(t)
        return build(ideal, t)

    monkeypatch.setattr(hfg.verify, "ideal_power", counted)
    g = abstract_grid((1, 2), (1, 2))
    budget = dataclasses.replace(DEFAULT_BUDGET, max_grid_multiplicity=12)
    instances = grid_elimination_unit(g, 3, budget)
    oracle = [inst for inst in instances if "elimination oracle" in inst.label]
    assert [inst.status for inst in oracle] == ["pass", "skipped"]
    assert oracle[1].flag == (
        "skipped: Groebner input of total degree 15 exceeds budget 12"
    )
    assert powers == [2]


def test_invariants_report_runs_no_oracle(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle work in the closed-form report")

    for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "hfg"]:
        for name in ("grid_ideal_intersection", "ideal_power"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    report = invariants_report(abstract_grid((1, 2), (1, 2)), t_max=2)
    assert report["resurgence"] == 1


def _shift_the_vertical_exponents(monkeypatch):
    """An off-by-one pattern map: (b_j + k + 1)_+ in place of (b_j + k)_+."""
    monkeypatch.setattr(
        hfg.invariants,
        "_exponent_row",
        lambda a, b, k: tuple(max(x - k, 0) for x in a)
        + tuple(max(y + k + 1, 0) for y in b),
    )


def test_resurgence_certificate_reports_a_pattern_mismatch(monkeypatch):
    """Bounds and count still scale by t, but the shifted patterns are no
    longer balanced products: only the witness can see it."""
    _shift_the_vertical_exponents(monkeypatch)
    report = resurgence_certificate(abstract_grid((1, 2), (1, 1)))
    assert not report.passed
    assert [(inst.computed, inst.passed) for inst in report.failures()] == [
        (
            "t=2: mismatch at K=[0, 1, 2, 3, 4];"
            " t=3: mismatch at K=[0, 1, 2, 3, 4, 5, 6]",
            False,
        )
    ]


def test_the_witness_at_t3_catches_a_symbolic_map_that_is_not_affine(
    monkeypatch,
):
    """Column multiplicities padded from t = 3 on are right at t = 1 and
    t = 2, where the bounds are checked; the third depth of the witness
    fails."""
    multiplicities = hfg.invariants.symbolic_multiplicities

    def padded_from_t3(g, t):
        m, n = multiplicities(g, t)
        return m, [x + (t > 2) for x in n]

    monkeypatch.setattr(hfg.invariants, "symbolic_multiplicities", padded_from_t3)
    report = resurgence_certificate(abstract_grid((1, 2), (1, 1)))
    assert [inst.computed for inst in report.failures()] == [
        "t=2: all 5 symbolic patterns are balanced products;"
        " t=3: mismatch at K=[0, 1, 2, 3, 4, 5, 6, 7]",
    ]


def _padded(multiplicities):
    """One more on every column multiplicity of the symbolic grids."""

    def padded(g, t):
        m, n = multiplicities(g, t)
        return m, [x + (t > 1) for x in n]

    return padded


def _short(multiplicities):
    """N' = tN - (t-1) in place of N' = tN."""

    def short(g, t):
        m, n = multiplicities(g, t)
        return m, [x - (t - 1) for x in n]

    return short


def _bounds_without_the_minus_one(M, N):
    """a_i = m_{r-i+1} + n_s, one more than the true bound."""
    r, s = len(M), len(N)
    return (
        [M[r - 1 - i] + N[-1] for i in range(r)],
        [N[s - 1 - j] - N[-1] for j in range(s)],
    )


def test_resurgence_certificate_reports_undominated_products(monkeypatch):
    """Padded symbolic grids have bounds past t*a: the symbolic pattern of K
    is then no longer what every t-fold product dominates."""
    monkeypatch.setattr(
        hfg.invariants,
        "symbolic_multiplicities",
        _padded(hfg.invariants.symbolic_multiplicities),
    )
    report = resurgence_certificate(abstract_grid((1, 2), (1, 1)))
    assert [inst.computed for inst in report.failures()] == [
        "t=1: a'=[2, 1], b'=[0, 0], 3 patterns;"
        " t=2: a'=[5, 3], b'=[0, 0], 6 patterns",
        # K = 5 at t = 2 and K = 7 at t = 3 are no index sum of base patterns
        "t=2: mismatch at K=[0, 1, 2, 3, 4, 5];"
        " t=3: mismatch at K=[0, 1, 2, 3, 4, 5, 6, 7]",
    ]


def test_resurgence_certificate_reports_a_missing_symbolic_pattern(monkeypatch):
    """N' = tN - (t-1) leaves the symbolic family one pattern short of the
    t*(mu-1) + 1 index sums: both instances fail, and nothing raises."""
    monkeypatch.setattr(
        hfg.invariants,
        "symbolic_multiplicities",
        _short(hfg.invariants.symbolic_multiplicities),
    )
    report = resurgence_certificate(abstract_grid((1, 2), (1, 2, 3)))
    assert not report.passed
    assert [(inst.expected, inst.computed) for inst in report.failures()] == [
        (
            "t=1: a'=[4, 3], b'=[0, -1, -2], 5 patterns;"
            " t=2: a'=[8, 6], b'=[0, -2, -4], 9 patterns",
            "t=1: a'=[4, 3], b'=[0, -1, -2], 5 patterns;"
            " t=2: a'=[7, 5], b'=[0, -2, -4], 8 patterns",
        ),
        (
            "t=2: all 9 symbolic patterns are balanced products;"
            " t=3: all 13 symbolic patterns are balanced products",
            "t=2: mismatch at K=[0, 1, 2, 3, 4, 5, 6, 7];"
            " t=3: mismatch at K=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]",
        ),
    ]


def test_resurgence_certificate_fails_under_a_bounds_mutation(monkeypatch):
    """Bounds one too large scale as t*a - (t - 1): right at t = 1, wrong
    at t = 2, and the patterns built on them are no balanced products."""
    monkeypatch.setattr(hfg.invariants, "_bounds", _bounds_without_the_minus_one)
    report = resurgence_certificate(abstract_grid((1, 2), (1, 1)))
    assert [inst.computed for inst in report.failures()] == [
        "t=1: a'=[3, 2], b'=[0, 0], 3 patterns;"
        " t=2: a'=[5, 3], b'=[0, 0], 5 patterns",
        "t=2: mismatch at K=[0, 1, 2, 3, 4];"
        " t=3: mismatch at K=[0, 1, 2, 3, 4, 5, 6]",
    ]


def test_failed_certificate_is_an_invalid_grid(monkeypatch):
    _shift_the_vertical_exponents(monkeypatch)
    with pytest.raises(GridError, match="resurgence certificate failed: every t: "):
        invariants_report(abstract_grid((1, 2), (1, 1)))
    result = CliRunner().invoke(cli.main, ["invariants", "--m", "1,2", "--n", "1,1"])
    assert result.exit_code == 2
    assert result.stderr == (
        "invalid grid: resurgence certificate failed: every t: symbolic pattern"
        " K is the product of base patterns on the balanced split of K (each"
        " k_l is floor(K/t) or ceil(K/t)), where both inequalities are"
        " equalities\n"
    )


def _balanced_split(kbar, t):
    """t integers summing to kbar, each floor(kbar/t) or ceil(kbar/t)."""
    q, rem = divmod(kbar, t)
    return [q + 1] * rem + [q] * (t - rem)


def _literal_certificate(g, t_max):
    """The certificate's verdicts by the literal enumeration, as
    (t, label, passed) for t = 2..t_max: the scaled bounds, every symbolic
    pattern rebuilt from a balanced split of its index, and every t-fold
    product of base patterns summed index by index from the pattern
    attributes."""
    inv = hfg.invariants
    base_patterns = inv.generator_patterns(g)
    a, b = inv._bounds(g.row_multiplicities, g.col_multiplicities)
    instances = []
    for t in range(2, t_max + 1):
        mt, nt = inv.symbolic_multiplicities(g, t)
        sym_patterns = inv._patterns(mt, nt)
        at, bt = inv._bounds(mt, nt)
        structural = (
            at == [t * x for x in a]
            and bt == [t * y for y in b]
            and len(sym_patterns) == t * (len(base_patterns) - 1) + 1
        )
        mismatches = []
        for pat in sym_patterns:
            ks = _balanced_split(pat.k, t)
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
            (t, "scales the base exponent bounds by t", structural),
            (t, "balanced t-fold product", not mismatches),
            (t, "every t-fold product dominates", not undominated),
        ]
    return instances


MUTATIONS = {
    "none": [],
    "short": [("symbolic_multiplicities", _short)],
    "padded": [("symbolic_multiplicities", _padded)],
    "bounds": [("_bounds", lambda bounds: _bounds_without_the_minus_one)],
    "shifted": [
        (
            "_exponent_row",
            lambda row: lambda a, b, k: tuple(max(x - k, 0) for x in a)
            + tuple(max(y + k + 1, 0) for y in b),
        )
    ],
}


profiles = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(M=profiles, N=profiles, mutation=st.sampled_from(sorted(MUTATIONS)))
def test_resurgence_certificate_matches_the_literal_enumeration(M, N, mutation):
    """The check's verdict for every t equals the literal enumeration's
    verdict at t_max = 2, 3 and 4, as the code stands and under each
    mutation of the tests above."""
    g = abstract_grid(M, N)
    with ExitStack() as patches:
        for name, mutate in MUTATIONS[mutation]:
            patches.enter_context(
                mock.patch.object(
                    hfg.invariants, name, mutate(getattr(hfg.invariants, name))
                )
            )
        verdict = resurgence_certificate(g).passed
        literal = _literal_certificate(g, 4)
    for t_max in (2, 3, 4):
        assert verdict == all(ok for t, _, ok in literal if t <= t_max), (
            mutation,
            t_max,
        )
    # the code as it stands passes; each mutation fails
    assert verdict == (mutation == "none")
