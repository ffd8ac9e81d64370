from __future__ import annotations

import itertools
import json
import pickle
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfg.budget import Budget
from hfg.errors import BudgetExceededError, DomainError, GridError, ParseError
from hfg.fatgrid import (
    FatGrid,
    WeightedPointSet,
    abstract_grid,
    build_grid,
    expand_pattern,
    grid_from_json,
    grid_ideal_intersection,
    grid_to_json,
    symbolic_grid,
)
from hfg.invariants import generator_patterns
from hfg.polycore import ideal_equal, ideal_intersection, ideal_power
from hfg.projective import Point, hadamard_point, line_through, point_ideal

COLLINEAR = [Point((1, 1, 2)), Point((1, 1, 3)), Point((1, 1, 4))]


def test_weighted_set_sorts_multiplicities_with_points_in_tandem():
    ws = WeightedPointSet.make(COLLINEAR, [3, 1, 2])
    assert ws.multiplicities == (1, 2, 3)
    assert ws.points == (COLLINEAR[1], COLLINEAR[2], COLLINEAR[0])


def test_weighted_set_rejects_bad_input():
    with pytest.raises(GridError):
        WeightedPointSet.make([], [])
    with pytest.raises(GridError):
        WeightedPointSet.make(COLLINEAR[:2], [1])
    with pytest.raises(GridError):
        WeightedPointSet.make(COLLINEAR[:2], [1, 0])
    with pytest.raises(GridError):
        WeightedPointSet.make([COLLINEAR[0], COLLINEAR[0]], [1, 1])
    with pytest.raises(GridError):
        WeightedPointSet.make([Point((1, 0, 2)), Point((1, 0, 3))], [1, 1])
    with pytest.raises(GridError):
        WeightedPointSet.make(
            [Point((1, 1, 2)), Point((1, 2, 1)), Point((1, 1, 4))], [1, 1, 1]
        )


def test_example_grid_multiplicity_matrix(example_grid):
    assert example_grid.shape == (3, 4)
    assert example_grid.mult == ((3, 4, 5, 5), (4, 5, 6, 6), (4, 5, 6, 6))
    assert example_grid.scheme_degree() == 180
    assert example_grid.total_multiplicity == 59


def test_single_point_grid():
    g = abstract_grid((1,), (1,))
    assert g.shape == (1, 1)
    assert g.mult == ((1,),)
    p = g.grid_points[0][0]
    assert p == hadamard_point(g.row_set.points[0], g.col_set.points[0])


def test_grid_lines_incidence_structure(example_grid):
    g = example_grid
    r, s = g.shape
    for i in range(r):
        for j in range(s):
            point = g.grid_points[i][j]
            on_h = [k for k, l in enumerate(g.h_lines) if l.contains(point)]
            on_v = [k for k, l in enumerate(g.v_lines) if l.contains(point)]
            assert on_h == [r - 1 - i]
            assert on_v == [s - 1 - j]
    for l in g.h_lines:
        assert sum(l.contains(p) for row in g.grid_points for p in row) == s
    for l in g.v_lines:
        assert sum(l.contains(p) for row in g.grid_points for p in row) == r


# points with small integer coordinates, none of them zero
_POINT_POOL = list(
    dict.fromkeys(Point(c) for c in itertools.product((-3, -2, -1, 1, 2, 3), repeat=3))
)


@st.composite
def weighted_collinear_sets(draw):
    """One to three pool points on the line through two pool points."""
    first, second = draw(st.lists(st.sampled_from(_POINT_POOL), min_size=2, max_size=2, unique=True))
    line = line_through(first, second)
    on_line = [p for p in _POINT_POOL if line.contains(p)]
    size = min(draw(st.integers(1, 3)), len(on_line))
    points = draw(st.lists(st.sampled_from(on_line), min_size=size, max_size=size, unique=True))
    mults = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    return WeightedPointSet.make(points, mults)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weighted_collinear_sets(), weighted_collinear_sets())
def test_explicit_grid_incidences_hold_by_construction(rows, cols):
    """What ``build_grid`` does not check: support lines carry their sets,
    and each grid point lies on its own h-line and v-line and on no other."""
    try:
        g = build_grid(rows, cols)
    except GridError:
        return
    assert all(g.row_line.contains(p) for p in g.row_set.points)
    assert all(g.col_line.contains(q) for q in g.col_set.points)
    r, s = g.shape
    for i in range(r):
        for j in range(s):
            point = g.grid_points[i][j]
            assert [k for k, l in enumerate(g.h_lines) if l.contains(point)] == [r - 1 - i]
            assert [k for k, l in enumerate(g.v_lines) if l.contains(point)] == [s - 1 - j]


def test_neighbouring_multiplicity_differences(example_grid):
    g = example_grid
    m, n = g.row_multiplicities, g.col_multiplicities
    for i in range(g.shape[0]):
        for j in range(g.shape[1] - 1):
            assert g.mult[i][j + 1] - g.mult[i][j] == n[j + 1] - n[j]
    for j in range(g.shape[1]):
        for i in range(g.shape[0] - 1):
            assert g.mult[i + 1][j] - g.mult[i][j] == m[i + 1] - m[i]


def test_role_swap_keeps_rows_smaller():
    g = abstract_grid((1, 2), (1,))
    assert g.shape == (1, 2)
    assert g.swapped
    assert g.row_multiplicities == (1,)
    assert g.col_multiplicities == (1, 2)
    # The swapped grid still has a valid incidence structure (v_lines[0]
    # carries the last grid column).
    assert g.h_lines[0].contains(g.grid_points[0][0])
    assert g.v_lines[0].contains(g.grid_points[0][1])
    assert not g.v_lines[0].contains(g.grid_points[0][0])


def test_swapped_explicit_grid_survives_pickling():
    rows = WeightedPointSet.make(COLLINEAR, [1, 2, 1])
    cols = WeightedPointSet.make([Point((1, 2, 1)), Point((1, 3, 1))], [1, 2])
    g = build_grid(rows, cols)
    assert g.swapped
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g
    assert copy.swapped


def test_duplicate_grid_point_rejected():
    p1, p2 = Point((1, 1, 2)), Point((1, 1, 3))
    q1 = Point((1, 2, 1))
    # Choose Q2 so that P2 * Q2 = P1 * Q1.
    q2 = hadamard_point(hadamard_point(q1, p1), Point([1 / c for c in p2]))
    rows = WeightedPointSet.make([p1, p2], [1, 1])
    cols = WeightedPointSet.make([q1, q2], [1, 1])
    assert q2 is not None
    with pytest.raises(GridError, match="duplicate grid point"):
        build_grid(rows, cols)


def test_degenerate_alignment_rejected():
    # Both sets on the same line through the identity point make every
    # grid point collide with the lines of the other rows.
    rows = WeightedPointSet.make([Point((1, 1, 2)), Point((1, 1, 3))], [1, 1])
    cols = WeightedPointSet.make([Point((1, 1, 4)), Point((1, 1, 5))], [1, 1])
    with pytest.raises(GridError):
        build_grid(rows, cols)


def test_symbolic_grid_scales_multiplicities(example_grid):
    assert symbolic_grid(example_grid, 1).mult == example_grid.mult
    g2 = symbolic_grid(example_grid, 2)
    assert g2.row_multiplicities == (3, 5, 5)
    assert g2.col_multiplicities == (4, 6, 8, 8)
    for row, row2 in zip(example_grid.mult, g2.mult):
        assert tuple(2 * m for m in row) == row2
    tiny = symbolic_grid(abstract_grid((1,), (1,)), 3)
    assert tiny.row_multiplicities == (1,)
    assert tiny.col_multiplicities == (3,)
    assert tiny.mult == ((3,),)
    with pytest.raises(DomainError):
        symbolic_grid(example_grid, 0)


def test_grid_json_round_trip(example_grid):
    data = grid_to_json(example_grid)
    assert set(data) == {"P", "M", "Q", "N"}
    rebuilt = grid_from_json(json.dumps(data))
    assert rebuilt.mult == example_grid.mult
    assert rebuilt.grid_points == example_grid.grid_points
    abstract = grid_from_json({"M": [2, 1], "N": [1, 1, 1]})
    assert abstract.shape == (2, 3)
    with pytest.raises(ParseError):
        grid_from_json({"M": [1, 2]})
    with pytest.raises(ParseError):
        grid_from_json("not json at all {")


def test_expand_pattern_multiplies_line_forms(example_grid):
    patterns = generator_patterns(example_grid)
    first, last = patterns[0], patterns[-1]
    assert first.h_exponents == (6, 6, 5)
    assert first.v_exponents == (0, 0, 0, 0)
    expanded = expand_pattern(example_grid, first)
    h = [l.form() for l in example_grid.h_lines]
    assert expanded == h[0] ** 6 * h[1] ** 6 * h[2] ** 5
    assert expanded.total_degree() == 17
    v = [l.form() for l in example_grid.v_lines]
    assert last.h_exponents == (0, 0, 0)
    assert last.v_exponents == (6, 6, 5, 4)
    assert expand_pattern(example_grid, last) == v[0] ** 6 * v[1] ** 6 * v[2] ** 5 * v[3] ** 4


def test_expand_pattern_rejects_foreign_pattern(example_grid):
    small = abstract_grid((1,), (1,))
    foreign = generator_patterns(example_grid)[0]
    with pytest.raises(GridError):
        expand_pattern(small, foreign)


def test_grid_ideal_oracle_small_cases():
    g = abstract_grid((1,), (1,))
    oracle = grid_ideal_intersection(g)
    assert ideal_equal(oracle, point_ideal(g.grid_points[0][0]))

    four = abstract_grid((1, 1), (1, 1))
    oracle4 = grid_ideal_intersection(four)
    h = four.h_lines[0].form() * four.h_lines[1].form()
    v = four.v_lines[0].form() * four.v_lines[1].form()
    assert oracle4.contains(h)
    assert oracle4.contains(v)


def test_grid_ideal_respects_budget(example_grid):
    with pytest.raises(BudgetExceededError):
        grid_ideal_intersection(example_grid)


@pytest.mark.parametrize(
    "grid",
    [
        abstract_grid((1, 2), (1, 2)),
        abstract_grid((1, 2), (1, 2, 3)),
        abstract_grid((1, 2, 3), (1, 2, 3, 4)),
        abstract_grid((3,), (1, 2, 4, 5)),
        # rows of odd length: the last point power is carried up a level
        abstract_grid((2, 2), (1, 1, 5)),
        grid_from_json(
            {
                "P": [["1", "1", "1/2"], ["1", "1", "3/4"]],
                "M": [1, 2],
                "Q": [["1", "2/3", "1"], ["1", "5", "1"], ["1", "-7/2", "1"]],
                "N": [1, 2, 2],
            }
        ),
        symbolic_grid(abstract_grid((1, 2), (1, 2, 3)), 2),
    ],
    ids=["1,2|1,2", "1,2|1,2,3", "1,2,3|1,2,3,4", "3|1,2,4,5", "2,2|1,1,5", "explicit", "t2"],
)
def test_grid_ideal_tree_matches_sequential_intersection(grid):
    budget = Budget(max_grid_multiplicity=64)
    r, s = grid.shape
    factors = [
        ideal_power(point_ideal(grid.grid_points[i][j]), grid.mult[i][j])
        for i in range(r)
        for j in range(s)
    ]
    reference = reduce(ideal_intersection, factors)
    assert grid_ideal_intersection(grid, budget).generators == reference.generators
