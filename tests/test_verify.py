from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfg.conditions
import hfg.verify
from hfg.budget import DEFAULT_BUDGET
from hfg.errors import BudgetExceededError, DomainError, GridError
from hfg.fatgrid import (
    WeightedPointSet,
    abstract_grid,
    build_grid,
    expand_pattern,
    grid_from_json,
    grid_ideal_intersection,
    rotate_coordinates,
)
from hfg.invariants import generator_patterns, resolution
from hfg.polycore import (
    PLANE,
    Polynomial,
    VariableBlock,
    ideal_equal,
    ideal_intersection,
    ideal_power,
    monomials_of_degree,
    variables,
)
from hfg.projective import Point, line_through, point_ideal
from hfg.report import skipped, verdict
from hfg.verify import (
    check_grid_end_to_end,
    check_join_symbolic,
    check_lemma_irrelevant,
    check_point_power_product,
    exact_rank,
    grid_elimination_unit,
    grid_structure_unit,
    hilbert_function_oracle,
    hilbert_series_oracle,
    pattern_ideal,
    pivot_columns,
    vanishing_order,
)

from conftest import rebuilt_symbolic_grid, small_grid_profiles

X0, X1, X2 = variables(PLANE)

POWER_LABEL = (
    "t=%d: ordinary power equals symbolic power (elimination oracle: I^t is"
    " saturated, no leading monomial of its reduced basis has x0)"
)


def test_vanishing_order_basics():
    assert vanishing_order(X1 * X2, Point((1, 0, 0))) == 2
    assert vanishing_order(X0 + X1 + X2, Point((1, 1, 1))) == 0
    assert vanishing_order(X0 - X1, Point((1, 1, 1))) == 1
    assert vanishing_order(Polynomial.zero(PLANE), Point((1, 1, 1))) == math.inf


@pytest.mark.parametrize("point", [(0, 0, 0), (1, 2), (1, 1, 1, 1)])
def test_vanishing_order_checks_the_point_of_the_zero_form(point):
    with pytest.raises(DomainError):
        vanishing_order(Polynomial.zero(PLANE), point)
    with pytest.raises(DomainError):
        vanishing_order(X0, point)


def test_vanishing_order_rejects_inhomogeneous_input():
    with pytest.raises(DomainError):
        vanishing_order(X0 + X1 * X2, Point((1, 1, 1)))


def test_vanishing_order_wants_a_plane_form():
    space = VariableBlock(PLANE.names + ("x3",))
    f = Polynomial.monomial(space, (1, 0, 0, 0))
    with pytest.raises(DomainError):
        vanishing_order(f, (0, 1, 1, 1))
    with pytest.raises(DomainError):
        vanishing_order(X0, (1, 1))


def test_vanishing_order_is_additive():
    p = Point((1, 2, 3))
    f = (2 * X0 - X1) ** 2 * (3 * X0 - X2)
    g = X1 - 2 * X0
    assert vanishing_order(f, p) == 3
    assert vanishing_order(g, p) == 1
    assert vanishing_order(f * g, p) == 4


def test_vanishing_order_at_points_with_zero_coordinates():
    # Dehomogenization must pick a chart where the point is visible.
    assert vanishing_order(X0 ** 3, Point((0, 1, 2))) == 3
    assert vanishing_order((X1 - 2 * X0) ** 2, Point((0, 0, 1))) == 2


def test_exact_rank():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2, 3], [4, 5, 6]]) == 2
    assert exact_rank([]) == 0
    with pytest.raises(BudgetExceededError):
        exact_rank([[0] * 3000])


def test_pivot_columns_of_a_small_matrix():
    # column 0 is zero, the smallest pivot of column 1 sits in the second
    # row, column 2 is twice column 1, and the third row is the sum of the
    # first two
    matrix = [[0, 2, 4, 1, 3], [0, 1, 2, 0, 1], [0, 3, 6, 1, 4]]
    assert pivot_columns(matrix) == [1, 3]
    for k in range(1, 6):
        block = [row[:k] for row in matrix]
        assert exact_rank(block) == sum(1 for c in [1, 3] if c < k)
    assert pivot_columns([]) == []


def _reference_pivot_columns(matrix):
    """Pivot columns by row echelon form over Q with Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        lead = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if lead is None:
            continue
        rows[r], rows[lead] = rows[lead], rows[r]
        for i in range(r + 1, len(rows)):
            factor = rows[i][col] / rows[r][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def _primes_used(monkeypatch):
    """Record the prime of every modular elimination pivot_columns runs."""
    primes = []
    echelon = hfg.conditions._echelon_mod

    def recorded(matrix, p):
        primes.append(p)
        return echelon(matrix, p)

    monkeypatch.setattr(hfg.conditions, "_echelon_mod", recorded)
    return primes


def _first_primes(count):
    return list(itertools.islice(hfg.conditions._primes(), count))


_P = _first_primes(1)[0]


def test_prime_stream_starts_with_the_primes_just_below_2_62():
    assert _first_primes(8) == [
        2**62 - k for k in (57, 87, 117, 143, 153, 167, 171, 195)
    ]


def test_is_prime_matches_trial_division():
    for n in range(20000):
        trial = n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert hfg.conditions._is_prime(n) == trial, n
    # a strong pseudoprime to every prime base up to 23
    assert not hfg.conditions._is_prime(3825123056546413051)


@pytest.mark.parametrize(
    "matrix, pivots",
    [
        ([[_P, 0], [0, 1]], [0, 1]),
        ([[1, 1], [1, 1 + _P]], [0, 1]),
        # the leading 3x3 minor is p, so column 2 is a pivot only over Q
        ([[2, 1, 3, 1], [1, 1, 1, 0], [1, 0, 2 + _P, 5]], [0, 1, 2]),
    ],
)
def test_rank_that_drops_mod_the_first_prime_is_exact(monkeypatch, matrix, pivots):
    assert hfg.conditions._echelon_mod(matrix, _P)[0] != pivots
    primes = _primes_used(monkeypatch)
    assert pivot_columns(matrix) == pivots == _reference_pivot_columns(matrix)
    assert exact_rank(matrix) == len(pivots)
    assert primes[0] == _P and len(set(primes)) > 1


@pytest.mark.parametrize("bits, primes", [(40, 2), (70, 3), (100, 4)])
def test_kernel_lifted_over_several_primes(monkeypatch, bits, primes):
    # k primes reconstruct numerators and denominators up to about 2**(31k),
    # and the kernel vector here is (-b/a, 1)
    a, b = 2**bits + 1, 2**bits - 1
    matrix = [[a, b], [2 * a, 2 * b], [5 * a, 5 * b]]
    used = _primes_used(monkeypatch)
    assert pivot_columns(matrix) == [0]
    assert used == _first_primes(primes)


def test_pivot_found_by_the_first_prime_that_does_not_divide_it(monkeypatch):
    # each of the first eight primes divides the only entry, so each sees a
    # zero column whose kernel vector fails the integer check; the ninth
    # shows the pivot and the elimination restarts from its own echelon form
    primes = _first_primes(9)
    used = _primes_used(monkeypatch)
    matrix = [[math.prod(primes[:8])], [0]]
    assert pivot_columns(matrix) == [0] == _reference_pivot_columns(matrix)
    assert used == primes


def _kernel_primes(monkeypatch):
    """Record the prime of every kernel that joins the Chinese remaindering."""
    primes = []
    kernel = hfg.conditions._kernel_mod

    def recorded(pivots, tails, size, width, needed, p):
        primes.append(p)
        return kernel(pivots, tails, size, width, needed, p)

    monkeypatch.setattr(hfg.conditions, "_kernel_mod", recorded)
    return primes


_SMALL_PRIMES = [7, 5, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@pytest.mark.parametrize(
    "matrix, used_first, kernels_first",
    [
        # (a) the kernel vector (-3/5, 1) does not lift mod 7 alone; 5 kills
        # column 0, less rank on a leading block, so 5 is skipped and 11
        # joins 7 in the Chinese remaindering
        ([[5, 3], [10, 6]], [7, 5, 11], [7, 11]),
        # (b) mod 7 the pivots are [0, 2, 3] with column 1 pending; mod 5
        # they are [0, 1, 4], more rank on the first two columns, so 7 was
        # unlucky and everything restarts from 5's kernel vectors
        (
            [[2, 1, 0, -2, 0], [-2, -1, 0, -3, -3], [-1, -4, -2, 1, -1]],
            [7, 5, 11],
            [7, 5],
        ),
    ],
)
def test_a_prime_whose_pivots_disagree_is_skipped(
    monkeypatch, matrix, used_first, kernels_first
):
    monkeypatch.setattr(hfg.conditions, "_primes", lambda: iter(_SMALL_PRIMES))
    used = _primes_used(monkeypatch)
    kernels = _kernel_primes(monkeypatch)
    assert pivot_columns(matrix) == _reference_pivot_columns(matrix)
    assert used[:3] == used_first
    assert kernels[:2] == kernels_first


# small entries and multiples of the first prime, so the rank mod that
# prime can drop
_NEAR_P = st.one_of(st.integers(-3, 3), st.sampled_from([_P, -_P, 2 * _P, _P + 1]))


def _low_rank_matrices(entries=_NEAR_P):
    """Products of random integer factors with the given entries."""

    def factors(shape):
        rows, inner, cols = shape
        return st.tuples(
            st.lists(
                st.lists(entries, min_size=inner, max_size=inner),
                min_size=rows,
                max_size=rows,
            ),
            st.lists(
                st.lists(entries, min_size=cols, max_size=cols),
                min_size=inner,
                max_size=inner,
            ),
        )

    shapes = st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 7))
    return shapes.flatmap(factors).map(
        lambda bc: [
            [sum(x * y for x, y in zip(row, col)) for col in zip(*bc[1])]
            for row in bc[0]
        ]
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_low_rank_matrices())
def test_pivot_columns_match_the_fraction_reference(matrix):
    assert pivot_columns(matrix) == _reference_pivot_columns(matrix)


def _moduli_certified(monkeypatch):
    """Record the modulus of every kernel certificate pivot_columns checks."""
    moduli = []
    drop = hfg.conditions._drop_certified

    def recorded(matrix, pivots, pending, modulus):
        moduli.append(modulus)
        return drop(matrix, pivots, pending, modulus)

    monkeypatch.setattr(hfg.conditions, "_drop_certified", recorded)
    return moduli


def _branches(used, moduli):
    """What pivot_columns did with each prime after the first: a restart
    certifies mod that prime alone, or returns at once with every block
    exact; a join certifies mod a product of primes; a skip neither."""
    branches = collections.Counter()
    for p in used[1:]:
        if p in moduli or (p == used[-1] and not any(m % p == 0 for m in moduli)):
            branches["restart"] += 1
        elif any(m % p == 0 for m in moduli):
            branches["join"] += 1
        else:
            branches["skip"] += 1
    return branches


def test_pivot_columns_with_small_primes_skip_join_and_restart(monkeypatch):
    """Small primes first make every branch of the prime loop run: a prime
    with less rank on a leading block, one that agrees, and one with more."""
    stream = hfg.conditions._primes
    small = [7, 5, 3, 11, 13, 17, 19, 23]
    monkeypatch.setattr(
        hfg.conditions, "_primes", lambda: itertools.chain(small, stream())
    )
    used = _primes_used(monkeypatch)
    moduli = _moduli_certified(monkeypatch)
    branches = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_low_rank_matrices(st.integers(-4, 4)))
    def check(matrix):
        used.clear()
        moduli.clear()
        assert pivot_columns(matrix) == _reference_pivot_columns(matrix)
        branches.update(_branches(used, moduli))

    check()
    assert branches["skip"] and branches["join"] and branches["restart"], branches


def _reference_hilbert(g, d):
    """dim of the degree-d piece by the rank over Q of that degree's own
    condition matrix, built with Fractions in the chart of the largest-index
    nonzero coordinate."""
    mons = list(monomials_of_degree(PLANE, d))
    rows = []
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            coords = list(g.grid_points[i][j])
            pivot = max(k for k, c in enumerate(coords) if c)
            keep = [k for k in range(3) if k != pivot]
            a = [coords[k] / coords[pivot] for k in keep]
            m = g.mult[i][j]
            for o1 in range(m):
                for o2 in range(m - o1):
                    row = []
                    for e in mons:
                        e1, e2 = e[keep[0]], e[keep[1]]
                        if e1 < o1 or e2 < o2:
                            row.append(Fraction(0))
                            continue
                        row.append(
                            math.perm(e1, o1)
                            * math.perm(e2, o2)
                            * a[0] ** (e1 - o1)
                            * a[1] ** (e2 - o2)
                        )
                    den = math.lcm(*(x.denominator for x in row))
                    rows.append([int(x * den) for x in row])
    # row echelon form over Q, each row kept primitive
    rank = 0
    for col in range(len(mons)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col]
            if c:
                new = [lead[col] * x - c * y for x, y in zip(rows[r], lead)]
                content = math.gcd(*new) or 1
                rows[r] = [x // content for x in new]
        rank += 1
    return math.comb(d + 2, 2) - rank


# the perfbench seed-1 explicit grid: its chart axes have steps 2 and 4
_SEED1_GRID = {
    "P": [["3", "2", "4"], ["1", "-2", "4"]],
    "M": [2, 2],
    "Q": [["3", "-6", "-4"], ["3", "-1", "1"], ["3", "-3", "-1"]],
    "N": [2, 2, 3],
}

_EXPLICIT_GRIDS = [
    {
        "P": [["3", "2", "4"], ["1", "-2", "4"]],
        "M": [1, 2],
        "Q": [["3", "-6", "-4"], ["3", "-1", "1"]],
        "N": [1, 2],
    },
    {
        "P": [["3", "3", "-2"], ["6", "-3", "-1"]],
        "M": [1, 2],
        "Q": [["4", "-2", "1"], ["2", "4", "-7"], ["4", "6", "-11"]],
        "N": [1, 1, 2],
    },
]


@pytest.mark.parametrize(
    "grid",
    [
        abstract_grid((1, 2), (1, 2)),
        abstract_grid((2, 2), (2, 3)),
        abstract_grid((1, 2, 3), (1, 2, 3, 4)),
    ]
    + [grid_from_json(data) for data in _EXPLICIT_GRIDS + [_SEED1_GRID]]
    # every point shares one chart coordinate, so that axis has step 1
    + [abstract_grid((1, 2), (1,))],
)
def test_hilbert_series_oracle_matches_per_degree_reference(grid):
    top = max(resolution(grid).syzygy_twists)
    expected = [_reference_hilbert(grid, d) for d in range(top + 1)]
    assert hilbert_series_oracle(grid, top) == expected
    assert hilbert_function_oracle(grid, top) == expected[top]


@pytest.mark.parametrize(
    "profile",
    [((2, 3, 3), (2, 3, 4, 4)), ((1, 2, 3), (1, 2, 3, 4))],
    ids=["example", "1,2,3|1,2,3,4"],
)
def test_rank_oracle_lifts_its_kernel_with_one_prime(
    monkeypatch, profile, example_budget
):
    """In the centred, reduced chart the kernel certificates of the abstract
    grids lift from the first prime; the chart x0 = 1 needed two."""
    g = abstract_grid(*profile)
    used = _primes_used(monkeypatch)
    hilbert_series_oracle(g, max(resolution(g).syzygy_twists), example_budget)
    assert used == [_P]


@pytest.mark.parametrize(
    "grid",
    [
        abstract_grid((2, 3, 3), (2, 3, 4, 4)),
        abstract_grid((1, 2), (1,)),
        grid_from_json(_SEED1_GRID),
    ],
    ids=["example", "1,2|1", "explicit-seed-1"],
)
def test_rank_oracle_is_the_same_in_every_chart(grid, example_budget):
    """Turning the coordinates moves every point to another chart; the
    series stays the same."""
    top = max(resolution(grid).syzygy_twists)
    series = hilbert_series_oracle(grid, top, example_budget)
    once = rotate_coordinates(grid)
    assert hilbert_series_oracle(once, top, example_budget) == series
    twice = rotate_coordinates(once)
    assert hilbert_series_oracle(twice, top, example_budget) == series


def test_explicit_grids_need_a_common_denominator():
    # normalized coordinates that are not all integers make L > 1
    for data in _EXPLICIT_GRIDS:
        g = grid_from_json(data)
        assert any(
            c.denominator > 1 for row in g.grid_points for p in row for c in p
        )


def test_matrix_budget_is_checked_before_any_row_is_built(monkeypatch):
    def no_rows(u, v, m, top):
        raise AssertionError("condition rows built before the budget check")

    monkeypatch.setattr(hfg.verify, "point_conditions", no_rows)
    g = abstract_grid((1, 2), (1, 2))  # 13 condition rows
    wide = dataclasses.replace(DEFAULT_BUDGET, max_matrix_dim=20)
    # the patch is live: within the budget the rows are built
    with pytest.raises(AssertionError, match="condition rows built"):
        hilbert_series_oracle(g, 4, wide)
    # the matrix built for degree 6 has C(8, 2) = 28 columns
    with pytest.raises(BudgetExceededError, match=r"^matrix of shape 13x28 "):
        hilbert_series_oracle(g, 6, wide)
    tall = dataclasses.replace(DEFAULT_BUDGET, max_matrix_dim=10)
    with pytest.raises(BudgetExceededError, match=r"^matrix of shape 13x28 "):
        hilbert_series_oracle(g, 6, tall)


def test_grid_plan_checks_the_matrix_cap_before_any_unit_runs(monkeypatch):
    def forbidden(*args):
        raise AssertionError("elimination unit ran before the matrix check")

    monkeypatch.setattr(hfg.verify, "grid_elimination_unit", forbidden)
    # 1891 condition rows; the largest syzygy twist 62 needs C(64, 2) columns
    g = abstract_grid((1,), (61,))
    budget = dataclasses.replace(DEFAULT_BUDGET, max_grid_multiplicity=100)
    with pytest.raises(
        BudgetExceededError, match=r"^matrix of shape 1891x2016 exceeds budget 2000x2000$"
    ):
        check_grid_end_to_end(g, budget)


def test_resurgence_skip_builds_no_ideal_power(monkeypatch):
    powers = []
    build = hfg.verify.ideal_power

    def counted(ideal, t):
        powers.append(t)
        return build(ideal, t)

    monkeypatch.setattr(hfg.verify, "ideal_power", counted)
    # the base oracle of (1,2|1,2) has top degree 5, so t=2 needs degree 10
    budget = dataclasses.replace(DEFAULT_BUDGET, max_groebner_degree=8)
    instances = grid_elimination_unit(abstract_grid((1, 2), (1, 2)), 2, budget)
    # the pattern-ideal instance first, then one per t >= 2
    oracle = instances[1:]
    assert [(inst.computed, inst.flag) for inst in oracle] == [
        (
            "not computed",
            "skipped: Groebner input of total degree 10 exceeds budget 8",
        ),
    ]
    assert powers == []


def _elimination_unit_in_original_coordinates(g, t_max, budget):
    """The elimination unit with every ideal built on g as it is, so that
    x2 is the engine's last variable and the saturation is read on x2;
    grid points have x2 != 0 as well."""
    oracle = grid_ideal_intersection(g, budget)
    instances = [
        verdict(
            "pattern ideal equals the intersection oracle",
            ideal_equal(pattern_ideal(g), oracle),
        )
    ]
    for t in range(2, t_max + 1):
        try:
            budget.check_groebner(t * oracle.max_generator_degree())
            leads = ideal_power(oracle, t).leading_exponents()
            instances.append(verdict(POWER_LABEL % t, not any(e[2] for e in leads)))
        except BudgetExceededError as exc:
            instances.append(skipped(POWER_LABEL % t, "equal", exc))
    return instances


def _seeded_explicit_grid(seed):
    """A grid M=(1,2), N=(1,2) on points of small height, each set on a
    line through two points drawn from the seed, redrawn until it builds."""
    rng = random.Random(seed)
    pool = list(
        dict.fromkeys(
            Point(c) for c in itertools.product((-3, -2, -1, 1, 2, 3), repeat=3)
        )
    )

    def collinear_pair():
        while True:
            first, second = rng.sample(pool, 2)
            line = line_through(first, second)
            others = [p for p in pool if line.contains(p) and p != first]
            if others:
                return [first, rng.choice(others)]

    while True:
        try:
            return build_grid(
                WeightedPointSet.make(collinear_pair(), (1, 2)),
                WeightedPointSet.make(collinear_pair(), (1, 2)),
            )
        except GridError:
            continue


SMALL_AND_SEEDED_GRIDS = [abstract_grid(m, n) for m, n in small_grid_profiles()] + [
    _seeded_explicit_grid(seed) for seed in (1, 2, 3)
]
SMALL_AND_SEEDED_IDS = [
    "%s|%s" % (",".join(map(str, m)), ",".join(map(str, n)))
    for m, n in small_grid_profiles()
] + ["explicit-seed-%d" % seed for seed in (1, 2, 3)]


@pytest.mark.parametrize("grid", SMALL_AND_SEEDED_GRIDS, ids=SMALL_AND_SEEDED_IDS)
def test_rotated_elimination_unit_matches_the_original_coordinates(grid):
    """Turning the coordinates changes no verdict; it can only let an
    equality run that the degree cap skipped before."""
    got = grid_elimination_unit(grid, 2, DEFAULT_BUDGET)
    reference = _elimination_unit_in_original_coordinates(grid, 2, DEFAULT_BUDGET)
    assert [inst.label for inst in got] == [inst.label for inst in reference]
    for new, old in zip(got, reference):
        assert (new.passed, new.computed) == (old.passed, old.computed) or (
            old.computed == "not computed" and new.computed == "equal" and new.passed
        )
    assert all(inst.passed is not False for inst in got)


def test_grid_report_concatenates_the_units_by_route():
    """Structure, then elimination from t = 2, then the rank oracle by
    degree and the initial degree, then the closed-form certificate for
    every t; at t_max = 1 only the elimination's power block is gone."""
    g = abstract_grid((1, 2), (1, 1))
    report = check_grid_end_to_end(g, DEFAULT_BUDGET, t_max=2)
    assert [inst.label for inst in report.instances] == [
        "every expanded pattern vanishes to full multiplicity at every grid point",
        "pattern ideal equals the intersection oracle",
        POWER_LABEL % 2,
    ] + [
        "resolution Hilbert function matches the rank oracle at degree %d" % d
        for d in range(6)
    ] + [
        "initial degree matches the first nonzero oracle dimension",
        "every t: a t-fold product of base patterns dominates symbolic"
        " pattern K = k_1+...+k_t, sum_l (a_i - k_l)_+ >= (t*a_i - K)_+"
        " and sum_l (b_j + k_l)_+ >= (t*b_j + K)_+ (subadditivity)",
        "every t: symbolic pattern K is the product of base patterns on"
        " the balanced split of K (each k_l is floor(K/t) or ceil(K/t)),"
        " where both inequalities are equalities",
    ]
    assert report.passed
    assert check_grid_end_to_end(g, DEFAULT_BUDGET, t_max=1).instances == [
        inst for inst in report.instances if not inst.label.startswith("t=2:")
    ]


def test_no_report_compares_the_t1_oracle_with_itself(small_family):
    """No instance whose two sides come from one computation: nothing at
    t = 1, where the symbolic power is the grid ideal, and no count of the
    patterns against the range they are built over."""
    for g in small_family:
        labels = [
            inst.label
            for inst in check_grid_end_to_end(g, DEFAULT_BUDGET, t_max=2).instances
        ]
        assert not any(
            label.startswith("t=1:") or label == "pattern count equals m_r + n_s"
            for label in labels
        ), (g.row_multiplicities, g.col_multiplicities)
        assert POWER_LABEL % 2 in labels


@pytest.mark.parametrize("grid", SMALL_AND_SEEDED_GRIDS, ids=SMALL_AND_SEEDED_IDS)
def test_symbolic_grid_equals_the_rebuilt_grid(grid):
    """The t-th symbolic grid is g with every multiplicity m_ij scaled to
    t*m_ij; rebuilt from the multiplicity vectors of
    ``symbolic_multiplicities``, it keeps g's grid points and lines."""
    for t in (1, 2, 3):
        rebuilt = rebuilt_symbolic_grid(grid, t)
        assert rebuilt.mult == tuple(tuple(t * m for m in row) for row in grid.mult)
        assert rebuilt.grid_points == grid.grid_points
        assert (rebuilt.h_lines, rebuilt.v_lines) == (grid.h_lines, grid.v_lines)


def _fat_points(points):
    """The intersection of the powers I(P)^m over (P, m) in order."""
    return functools.reduce(
        ideal_intersection,
        [ideal_power(point_ideal(Point(p)), m) for p, m in points],
    )


# point schemes with x2 != 0 at every point, and whether I^t = I^(t)
SATURATION_CASES = {
    "three-non-collinear": ([((1, 2, 1), 1), ((3, 1, 1), 1), ((2, 5, 1), 1)], False),
    "2x2-one-point-doubled": (
        [((1, 1, 1), 1), ((1, 2, 1), 1), ((2, 1, 1), 1), ((2, 2, 1), 2)],
        False,
    ),
    "three-collinear": ([((1, 1, 1), 1), ((2, 2, 1), 1), ((3, 3, 1), 1)], True),
    "2x2": ([((1, 1, 1), 1), ((1, 2, 1), 1), ((2, 1, 1), 1), ((2, 2, 1), 1)], True),
}


@pytest.mark.parametrize("case", list(SATURATION_CASES))
def test_leading_terms_see_whether_a_power_is_saturated(case):
    """I^t is saturated (no leading monomial has x2) exactly when it equals
    the intersection of the I(P)^(t*m), at t = 2 and t = 3."""
    points, expected = SATURATION_CASES[case]
    ideal = _fat_points(points)
    for t in (2, 3):
        symbolic = _fat_points([(p, t * m) for p, m in points])
        leads = ideal_power(ideal, t).leading_exponents()
        assert (not any(e[2] for e in leads)) is expected, t
        assert ideal_equal(ideal_power(ideal, t), symbolic) is expected, t


def test_power_instance_fails_on_an_unsaturated_oracle(monkeypatch):
    """Patched to three non-collinear points (x0, the rotated grid's last
    coordinate, nonzero), the unit's oracle has I^2 and I^3 unsaturated."""
    points = [((1, 2, 1), 1), ((3, 1, 1), 1), ((2, 5, 1), 1)]
    monkeypatch.setattr(
        hfg.verify, "grid_ideal_intersection", lambda g, budget: _fat_points(points)
    )
    instances = grid_elimination_unit(abstract_grid((1, 2), (1, 2)), 3, DEFAULT_BUDGET)
    assert [(inst.label, inst.status, inst.computed) for inst in instances[1:]] == [
        (POWER_LABEL % t, "fail", "different") for t in (2, 3)
    ]


@pytest.mark.parametrize("t_max", [1, 2, 3])
def test_elimination_unit_builds_one_oracle_at_every_depth(t_max, monkeypatch):
    calls = []
    build = hfg.verify.grid_ideal_intersection

    def counted(g, budget):
        calls.append(g.total_multiplicity)
        return build(g, budget)

    monkeypatch.setattr(hfg.verify, "grid_ideal_intersection", counted)
    budget = dataclasses.replace(
        DEFAULT_BUDGET, max_grid_multiplicity=64, max_groebner_degree=64
    )
    instances = grid_elimination_unit(abstract_grid((1, 2), (1, 2)), t_max, budget)
    assert calls == [8]
    assert [inst.status for inst in instances] == ["pass"] * t_max


def test_the_scan_agrees_with_the_symbolic_grid_oracle_at_t2():
    """On every abstract profile with r, s <= 2 and multiplicities <= 2, the
    power instance's verdict is the equality of I^2 with the oracle of the
    symbolic grid, built anew."""
    budget = dataclasses.replace(DEFAULT_BUDGET, max_grid_multiplicity=64)
    for m, n in small_grid_profiles():
        if max(m + n) > 2:
            continue
        g = abstract_grid(m, n)
        rotated = rotate_coordinates(g)
        oracle = grid_ideal_intersection(rotated, budget)
        symbolic = grid_ideal_intersection(
            rotate_coordinates(rebuilt_symbolic_grid(g, 2)), budget
        )
        power = grid_elimination_unit(g, 2, budget)[1]
        assert power.label == POWER_LABEL % 2
        assert power.passed is ideal_equal(ideal_power(oracle, 2), symbolic), (m, n)


def test_pattern_ideal_instance_fails_without_one_pattern(monkeypatch):
    patterns = hfg.verify.generator_patterns
    monkeypatch.setattr(hfg.verify, "generator_patterns", lambda g: patterns(g)[1:])
    g = abstract_grid((1, 2), (1, 2))
    first = grid_elimination_unit(g, 1, DEFAULT_BUDGET)[0]
    assert first.label == "pattern ideal equals the intersection oracle"
    assert (first.passed, first.computed) == (False, "different")


@pytest.mark.parametrize(
    "profile",
    [((2, 3, 3), (2, 3, 4, 4)), ((1, 2, 3), (1, 2, 3, 4))],
    ids=["example", "1,2,3|1,2,3,4"],
)
def test_rotated_oracle_basis_is_the_generator_patterns(profile, example_budget):
    """With x0 last, the oracle's reduced basis has one element per minimal
    generator; with x2 last it has 17 on the example and 13 here."""
    g = abstract_grid(*profile)
    oracle = grid_ideal_intersection(rotate_coordinates(g), example_budget)
    assert len(oracle.generators) == len(generator_patterns(g)) == 7


def test_hilbert_oracle_single_point():
    simple = abstract_grid((1,), (1,))
    assert hilbert_function_oracle(simple, 0) == 0
    assert hilbert_function_oracle(simple, 1) == 2
    double = abstract_grid((2,), (1,))
    assert hilbert_function_oracle(double, 1) == 0
    assert hilbert_function_oracle(double, 2) == 3


def test_hilbert_oracle_example_initial_degrees(example_grid, example_budget):
    assert hilbert_function_oracle(example_grid, 15, example_budget) == 0
    assert hilbert_function_oracle(example_grid, 16, example_budget) == 2


def test_hilbert_series_of_the_example(example_grid, example_budget):
    # recorded with fraction-free (Bareiss) elimination; degrees 16-20 are
    # the ones whose ranks need the kernel certificate
    assert hilbert_series_oracle(example_grid, 23, example_budget) == [0] * 16 + [
        2, 8, 19, 34, 52, 73, 96, 120
    ]


def test_point_power_product_off_the_coordinate_lines():
    report = check_point_power_product(Point((1, 2, 3)), Point((2, 1, 1)), 2, 2)
    assert report.passed
    assert any("m+n-1" in inst.label for inst in report.instances)


def test_point_power_product_case_b_pure_powers():
    report = check_point_power_product(Point((1, 0, 1)), Point((1, 1, 0)), 2, 3)
    assert report.passed
    labels = " | ".join(inst.label for inst in report.instances)
    assert "x_1^2" in labels and "x_2^3" in labels
    assert "universal containment" in labels


def test_point_power_product_case_a_coordinate_vertex():
    report = check_point_power_product(Point((1, 2, 3)), Point((1, 0, 0)), 1, 3)
    assert report.passed
    # m > 1 falls outside the stated scope and must carry a visible flag.
    flagged = check_point_power_product(Point((1, 2, 3)), Point((1, 0, 0)), 2, 2)
    assert flagged.passed
    assert any(inst.flag for inst in flagged.instances)


def test_point_power_product_rejects_undefined_product():
    with pytest.raises(DomainError):
        check_point_power_product(Point((1, 0, 0)), Point((0, 1, 0)), 1, 1)
    with pytest.raises(DomainError):
        check_point_power_product(Point((1, 2, 3)), Point((2, 1, 1)), 0, 1)


def test_power_product_caps_the_degree_of_the_target_power(monkeypatch):
    def forbidden(*args):
        raise AssertionError("elimination before the degree check")

    monkeypatch.setattr(hfg.verify, "hadamard_ideals", forbidden)
    # each power is under the cap of 12; I(P*Q)^13 is not
    with pytest.raises(
        BudgetExceededError, match=r"^Groebner input of total degree 13 "
    ):
        check_point_power_product(Point((1, 2, 3)), Point((2, 1, 1)), 7, 7)


def test_lemma_irrelevant_off_coordinate_lines():
    report = check_lemma_irrelevant(Point((1, 2, 3)), 3)
    assert report.passed


def test_lemma_irrelevant_one_zero_coordinate():
    report = check_lemma_irrelevant(Point((0, 1, 2)), 2)
    assert report.passed
    labels = " | ".join(inst.label for inst in report.instances)
    assert "(x_0)" in labels
    # Containment of the irrelevant power is strict for t > 1.
    assert any("strict" in inst.label for inst in report.instances)


def test_lemma_irrelevant_two_zero_coordinates():
    report = check_lemma_irrelevant(Point((0, 0, 1)), 2)
    assert report.passed


def test_join_symbolic_power_examples():
    for point, t in [
        (Point((1, 1, 1)), 1),
        (Point((1, 1, 1)), 2),
        (Point((1, 2, 3)), 3),
    ]:
        report = check_join_symbolic(point, t)
        assert report.passed


def test_grid_end_to_end_small_cases():
    for m, n in [((1,), (1,)), ((1, 1), (1, 1)), ((1, 2), (1, 2))]:
        report = check_grid_end_to_end(abstract_grid(m, n))
        assert report.passed, report.failures()


def test_grid_end_to_end_confirms_alpha():
    report = check_grid_end_to_end(abstract_grid((1, 2), (1, 2)))
    inst = [i for i in report.instances if "initial degree" in i.label]
    assert len(inst) == 1
    assert inst[0].passed


def test_pattern_vanishing_orders_meet_multiplicities(example_grid):
    g = example_grid
    patterns = generator_patterns(g)
    for pat in (patterns[0], patterns[3], patterns[-1]):
        f = expand_pattern(g, pat)
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                assert vanishing_order(f, g.grid_points[i][j]) >= g.mult[i][j]


def test_structure_unit_counts_failures_and_names_the_first(monkeypatch):
    g = abstract_grid((1, 2), (1, 2))
    patterns = generator_patterns(g)
    last = expand_pattern(g, patterns[-1])
    orders = hfg.verify._vanishing_orders

    def one_short(f, points):
        # only the last pattern at point (1,1) falls short
        return [
            0 if f == last and p == g.grid_points[1][1] else order
            for p, order in zip(points, orders(f, points))
        ]

    monkeypatch.setattr(hfg.verify, "_vanishing_orders", one_short)
    [inst] = grid_structure_unit(g)
    assert inst.passed is False
    assert inst.computed == (
        "1 of %d (pattern, point) pairs fail; first pattern k=%d at point"
        " (1,1): order 0 < %d" % (4 * len(patterns), patterns[-1].k, g.mult[1][1])
    )
    monkeypatch.setattr(hfg.verify, "_vanishing_orders", orders)
    [inst] = grid_structure_unit(g)
    assert (inst.passed, inst.computed) == (True, "all orders sufficient")


def test_point_power_product_matches_direct_elimination():
    p, q = Point((1, 2, 3)), Point((2, 1, 1))
    report = check_point_power_product(p, q, 1, 2)
    assert report.passed
    from hfg.polycore import hadamard_ideals
    from hfg.projective import hadamard_point

    product = hadamard_ideals(
        ideal_power(point_ideal(p), 1), ideal_power(point_ideal(q), 2)
    )
    target = ideal_power(point_ideal(hadamard_point(p, q)), 2)
    assert ideal_equal(product, target)


def _reference_vanishing_order(f, p):
    """The Fraction Taylor shift at the largest-index nonzero coordinate."""
    coords = [Fraction(c) for c in p]
    pivot = max(i for i, c in enumerate(coords) if c)
    keep = [i for i in range(3) if i != pivot]
    shift = [coords[i] / coords[pivot] for i in keep]
    current = {}
    for exps, coeff in f.terms.items():
        key = tuple(exps[i] for i in keep)
        current[key] = current.get(key, Fraction(0)) + coeff
    for k, a_k in enumerate(shift):
        shifted = {}
        for exps, coeff in current.items():
            e_k = exps[k]
            for j in range(e_k + 1):
                new = exps[:k] + (j,) + exps[k + 1 :]
                term = coeff * math.comb(e_k, j) * a_k ** (e_k - j)
                shifted[new] = shifted.get(new, Fraction(0)) + term
        current = {e: c for e, c in shifted.items() if c}
    return min(sum(e) for e in current)


def _random_form_through(rng, p, lines, degree):
    """A random rational form of the given degree times `lines` random
    linear forms through p, so its order at p is usually `lines`."""
    monomials = list(monomials_of_degree(PLANE, degree))
    f = Polynomial(PLANE, {})
    while f.is_zero:
        f = Polynomial(
            PLANE,
            {
                e: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                for e in rng.sample(monomials, rng.randint(1, len(monomials)))
            },
        )
    while lines:
        v = [rng.randint(-3, 3) for _ in range(3)]
        line = (
            p[1] * v[2] - p[2] * v[1],
            p[2] * v[0] - p[0] * v[2],
            p[0] * v[1] - p[1] * v[0],
        )
        if any(line):
            f = f * (line[0] * X0 + line[1] * X1 + line[2] * X2)
            lines -= 1
    return f


@pytest.mark.parametrize("zeros", [0, 1, 2])
def test_integer_vanishing_order_matches_the_fraction_taylor_shift(zeros):
    rng = random.Random(zeros)
    for _ in range(60):
        p = [
            Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))
            for _ in range(3)
        ]
        for i in rng.sample(range(3), zeros):
            p[i] = Fraction(0)
        f = _random_form_through(rng, p, rng.randint(0, 4), rng.randint(0, 3))
        assert vanishing_order(f, Point(tuple(p))) == _reference_vanishing_order(
            f, p
        )


def test_integer_vanishing_order_on_every_pattern_and_grid_point():
    g = abstract_grid((1, 2, 3), (1, 2, 3, 4))
    r, s = g.shape
    for pat in generator_patterns(g):
        f = expand_pattern(g, pat)
        for i in range(r):
            for j in range(s):
                point = g.grid_points[i][j]
                assert vanishing_order(f, point) == _reference_vanishing_order(
                    f, point
                )


_COORD = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@st.composite
def _forms_and_points(draw):
    """A sparse or dense plane form of degree <= 6 times lines through the
    first of one to three points, each with 0, 1 or 2 zero coordinates."""
    points = []
    for _ in range(draw(st.integers(1, 3))):
        p = [draw(_COORD) for _ in range(3)]
        for i in draw(st.sets(st.integers(0, 2), max_size=2)):
            p[i] = Fraction(0)
        points.append(p)
    lines = draw(st.integers(0, 6))
    degree = draw(st.integers(0, 6 - lines))
    monomials = list(monomials_of_degree(PLANE, degree))
    if draw(st.booleans()):
        support = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3))
    else:
        support = monomials
    f = Polynomial(PLANE, {e: draw(_COORD) for e in support})
    p = points[0]
    for _ in range(lines):
        v = [draw(st.integers(-3, 3)) for _ in range(3)]
        line = (
            p[1] * v[2] - p[2] * v[1],
            p[2] * v[0] - p[0] * v[2],
            p[0] * v[1] - p[1] * v[0],
        )
        f = f * (line[0] * X0 + line[1] * X1 + line[2] * X2)
    return f, [Point(tuple(q)) for q in points]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_forms_and_points())
def test_vanishing_orders_match_the_fraction_taylor_shift(form_and_points):
    f, points = form_and_points
    expected = [
        math.inf if f.is_zero else _reference_vanishing_order(f, q) for q in points
    ]
    assert hfg.verify._vanishing_orders(f, points) == expected
    assert vanishing_order(f, points[0]) == expected[0]
