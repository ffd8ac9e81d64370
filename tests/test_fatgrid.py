from __future__ import annotations

import dataclasses
import itertools
import json
import math
import pickle
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hfg.fatgrid
from hfg.errors import DomainError, GridError, ParseError
from hfg.fatgrid import (
    FatGrid,
    WeightedPointSet,
    _support_candidates,
    abstract_grid,
    build_grid,
    expand_pattern,
    grid_from_json,
    grid_ideal_intersection,
    rotate_coordinates,
)
from hfg.invariants import generator_patterns
from hfg.polycore import ideal_equal, ideal_intersection, ideal_power
from hfg.projective import (
    Line,
    Point,
    hadamard_line_point,
    hadamard_point,
    line_through,
    point_ideal,
    primitive_coords,
)

from conftest import rebuilt_symbolic_grid

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
    # the two support candidates of a singleton are distinct lines
    first, second = _support_candidates(g.row_set)
    assert first != second


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


def _integer_incidence(line: Line, point: Point) -> bool:
    """Incidence in integers: the dot product of the two primitive integer
    triples vanishes."""
    a, x = primitive_coords(line.coeffs), primitive_coords(point.coords)
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2] == 0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from(_POINT_POOL), min_size=2, max_size=2, unique=True),
    st.sampled_from(_POINT_POOL),
    st.integers(0, 2),
)
def test_integer_incidence_agrees_with_the_rational_test(through, other, pick):
    """A line through two pool points, tested at one of them (incident),
    at a third pool point or at a Hadamard product; and the line's Hadamard
    image, whose quotient coefficients bring in denominators."""
    line = line_through(*through)
    point = (through[0], other, hadamard_point(through[1], other))[pick]
    triple = primitive_coords(point.coords)
    assert math.gcd(*triple) == 1 and Point(triple) == point
    assert _integer_incidence(line, point) == line.contains(point)
    image = hadamard_line_point(line, other)
    assert _integer_incidence(image, hadamard_point(through[0], other))
    assert _integer_incidence(image, point) == image.contains(point)


def _rational_degeneracy_error(rows, cols, row_line, col_line):
    """The degeneracy checks of ``build_grid`` written with ``Line.contains``
    (a Fraction dot product): the text of the first ``GridError``, or None."""
    r, s = rows.size, cols.size
    seen = {}
    grid_points = []
    for i, p in enumerate(rows.points):
        row = []
        for j, q in enumerate(cols.points):
            g = hadamard_point(p, q)
            if g in seen:
                return "duplicate grid point %s at (%d,%d) and (%d,%d)" % (
                    g.to_string(), *seen[g], i, j
                )
            seen[g] = (i, j)
            row.append(g)
        grid_points.append(row)
    h_lines = [hadamard_line_point(col_line, rows.points[r - 1 - i]) for i in range(r)]
    v_lines = [hadamard_line_point(row_line, cols.points[s - 1 - j]) for j in range(s)]
    for hline in h_lines:
        if hline in v_lines:
            return "grid is degenerate: %s is both a horizontal and a vertical line" % hline
    for i in range(r):
        for j in range(s):
            g = grid_points[i][j]
            for i0, hline in enumerate(h_lines):
                if i0 != r - 1 - i and hline.contains(g):
                    return "grid is degenerate: point %s and horizontal line %d" % (
                        g.to_string(), i0
                    )
            for j0, vline in enumerate(v_lines):
                if j0 != s - 1 - j and vline.contains(g):
                    return "grid is degenerate: point %s and vertical line %d" % (
                        g.to_string(), j0
                    )
    return None


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


@st.composite
def near_degenerate_sets(draw):
    """Row points P1, P2 and column points on the line c through two pool
    points, led by Q1 = c x (c * P1/P2): then c . Q1 = 0 puts Q1 on c, and
    (c/P2) . (P1 * Q1) = (c * P1/P2) . Q1 = 0 puts P1 * Q1 on the h-line of
    P2."""
    p1, p2 = draw(st.lists(st.sampled_from(_POINT_POOL), min_size=2, max_size=2, unique=True))
    qa, qb = draw(st.lists(st.sampled_from(_POINT_POOL), min_size=2, max_size=2, unique=True))
    line = line_through(qa, qb)
    c = line.coeffs
    q1 = _cross(c, [ci * a / b for ci, a, b in zip(c, p1, p2)])
    assume(all(q1))
    q1 = Point(q1)
    on_line = [q for q in dict.fromkeys([qa, qb, *_POINT_POOL]) if q != q1 and line.contains(q)]
    cols = [q1, *on_line[: draw(st.integers(1, 2))]]
    mults = st.lists(st.integers(1, 3), min_size=len(cols), max_size=len(cols))
    rows = WeightedPointSet.make([p1, p2], draw(mults)[:2])
    return rows, WeightedPointSet.make(cols, draw(mults)), (p1, p2, q1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(near_degenerate_sets())
def test_near_degenerate_grid_fails_as_the_rational_checks_do(case):
    rows, cols, (p1, p2, q1) = case
    col_line = line_through(*cols.points[:2])
    assert hadamard_line_point(col_line, p2).contains(hadamard_point(p1, q1))
    expected = _rational_degeneracy_error(rows, cols, line_through(*rows.points[:2]), col_line)
    assume(not expected.startswith("duplicate"))
    assert expected.endswith("is both a horizontal and a vertical line")
    with pytest.raises(GridError) as info:
        build_grid(rows, cols)
    assert str(info.value) == expected


@st.composite
def near_degenerate_columns(draw):
    """The mirror of ``near_degenerate_sets``: column points Q1, Q2 and row
    points on the line r through two pool points, led by
    P1 = r x (r * Q1/Q2): then r . P1 = 0 puts P1 on r, and
    (r/Q2) . (P1 * Q1) = (r * Q1/Q2) . P1 = 0 puts P1 * Q1 on the v-line of
    Q2."""
    q1, q2 = draw(st.lists(st.sampled_from(_POINT_POOL), min_size=2, max_size=2, unique=True))
    pa, pb = draw(st.lists(st.sampled_from(_POINT_POOL), min_size=2, max_size=2, unique=True))
    c = line_through(pa, pb).coeffs
    p1 = _cross(c, [ci * a / b for ci, a, b in zip(c, q1, q2)])
    assume(all(p1))
    p1 = Point(p1)
    p2 = next(p for p in dict.fromkeys([pa, pb]) if p != p1)
    through = line_through(q1, q2)
    on_line = [q for q in _POINT_POOL if q not in (q1, q2) and through.contains(q)]
    cols = [q1, q2, *on_line[: draw(st.integers(0, 1))]]
    mults = st.lists(st.integers(1, 3), min_size=len(cols), max_size=len(cols))
    rows = WeightedPointSet.make([p1, p2], draw(mults)[:2])
    return rows, WeightedPointSet.make(cols, draw(mults)), (p1, q1, q2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(near_degenerate_columns())
def test_point_on_another_column_line_fails_as_a_shared_line(case):
    rows, cols, (p1, q1, q2) = case
    row_line = line_through(*rows.points[:2])
    assert hadamard_line_point(row_line, q2).contains(hadamard_point(p1, q1))
    expected = _rational_degeneracy_error(rows, cols, row_line, line_through(*cols.points[:2]))
    assume(not expected.startswith("duplicate"))
    assert expected.endswith("is both a horizontal and a vertical line")
    with pytest.raises(GridError) as info:
        build_grid(rows, cols)
    assert str(info.value) == expected


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


def _swapped_explicit_grid():
    rows = WeightedPointSet.make(COLLINEAR, [1, 2, 1])
    cols = WeightedPointSet.make([Point((1, 2, 1)), Point((1, 3, 1))], [1, 2])
    return build_grid(rows, cols)


def test_swapped_explicit_grid_survives_pickling():
    g = _swapped_explicit_grid()
    assert g.swapped
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g
    assert copy.swapped


def _assert_rotated(g, rotated):
    """``rotated`` is g in the coordinates (x1, x2, x0): same shape,
    multiplicities and flag, every point and line cycled, and each grid
    point on its own h-line and v-line and on no other."""
    assert rotated.shape == g.shape
    assert rotated.mult == g.mult
    assert rotated.swapped == g.swapped
    assert rotated.row_multiplicities == g.row_multiplicities
    assert rotated.col_multiplicities == g.col_multiplicities
    r, s = g.shape
    for i in range(r):
        for j in range(s):
            p, q = g.grid_points[i][j], rotated.grid_points[i][j]
            assert q == Point((p[1], p[2], p[0]))
            assert [k for k, l in enumerate(rotated.h_lines) if l.contains(q)] == [r - 1 - i]
            assert [k for k, l in enumerate(rotated.v_lines) if l.contains(q)] == [s - 1 - j]
    assert all(rotated.row_line.contains(p) for p in rotated.row_set.points)
    assert all(rotated.col_line.contains(q) for q in rotated.col_set.points)


@pytest.mark.parametrize(
    "grid",
    [
        abstract_grid((2, 3, 3), (2, 3, 4, 4)),
        abstract_grid((2,), (3,)),
        abstract_grid((1, 2), (1,)),
        _swapped_explicit_grid(),
        rebuilt_symbolic_grid(abstract_grid((1, 2), (1, 2, 3)), 2),
    ],
    ids=["example", "singleton", "swapped", "swapped-explicit", "t2"],
)
def test_rotated_grid_keeps_its_structure_and_three_turns_give_it_back(grid):
    once = rotate_coordinates(grid)
    _assert_rotated(grid, once)
    thrice = rotate_coordinates(rotate_coordinates(once))
    assert thrice == grid
    assert thrice.swapped == grid.swapped


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(weighted_collinear_sets(), weighted_collinear_sets())
def test_rotation_keeps_explicit_grid_incidences(rows, cols):
    try:
        g = build_grid(rows, cols)
    except GridError:
        return
    _assert_rotated(g, rotate_coordinates(g))


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


@pytest.mark.parametrize("M, N", [((1,), (1,)), ((1, 2), (3,))])
def test_build_grid_makes_each_grid_point_once(monkeypatch, M, N):
    """One Hadamard product per grid point, however many support-line
    candidates a singleton set brings."""
    calls = []
    product = hfg.fatgrid.hadamard_point

    def counted(p, q):
        calls.append((p, q))
        return product(p, q)

    monkeypatch.setattr(hfg.fatgrid, "hadamard_point", counted)
    g = abstract_grid(M, N)
    r, s = g.shape
    assert len(calls) == r * s


def test_degenerate_alignment_rejected():
    # Both sets on the same line through the identity point make every
    # grid point collide with the lines of the other rows.
    rows = WeightedPointSet.make([Point((1, 1, 2)), Point((1, 1, 3))], [1, 1])
    cols = WeightedPointSet.make([Point((1, 1, 4)), Point((1, 1, 5))], [1, 1])
    with pytest.raises(GridError):
        build_grid(rows, cols)


def test_symbolic_grid_scales_multiplicities(example_grid):
    assert rebuilt_symbolic_grid(example_grid, 1).mult == example_grid.mult
    g2 = rebuilt_symbolic_grid(example_grid, 2)
    assert g2.row_multiplicities == (3, 5, 5)
    assert g2.col_multiplicities == (4, 6, 8, 8)
    for row, row2 in zip(example_grid.mult, g2.mult):
        assert tuple(2 * m for m in row) == row2
    tiny = rebuilt_symbolic_grid(abstract_grid((1,), (1,)), 3)
    assert tiny.row_multiplicities == (1,)
    assert tiny.col_multiplicities == (3,)
    assert tiny.mult == ((3,),)
    with pytest.raises(DomainError):
        rebuilt_symbolic_grid(example_grid, 0)


def test_mult_follows_the_weighted_sets(example_grid):
    """``mult`` is no field: it is read from the two sets, and a grid made
    by ``replace`` never carries the cache of the grid it came from."""
    assert "mult" not in {f.name for f in dataclasses.fields(FatGrid)}
    assert example_grid.mult == ((3, 4, 5, 5), (4, 5, 6, 6), (4, 5, 6, 6))
    col_set = dataclasses.replace(example_grid.col_set, multiplicities=(1, 1, 1, 1))
    g = dataclasses.replace(example_grid, col_set=col_set)
    assert g.mult == ((2, 2, 2, 2), (3, 3, 3, 3), (3, 3, 3, 3))
    assert pickle.loads(pickle.dumps(g)).mult == g.mult


def test_grid_json_round_trip(example_grid):
    data = {
        "P": [p.to_json() for p in example_grid.row_set.points],
        "M": list(example_grid.row_multiplicities),
        "Q": [q.to_json() for q in example_grid.col_set.points],
        "N": list(example_grid.col_multiplicities),
    }
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
        rebuilt_symbolic_grid(abstract_grid((1, 2), (1, 2, 3)), 2),
    ],
    ids=["1,2|1,2", "1,2|1,2,3", "1,2,3|1,2,3,4", "3|1,2,4,5", "2,2|1,1,5", "explicit", "t2"],
)
def test_grid_ideal_tree_matches_sequential_intersection(grid):
    r, s = grid.shape
    factors = [
        ideal_power(point_ideal(grid.grid_points[i][j]), grid.mult[i][j])
        for i in range(r)
        for j in range(s)
    ]
    reference = reduce(ideal_intersection, factors)
    assert grid_ideal_intersection(grid).generators == reference.generators
