"""Hadamard fat grids built from two weighted collinear point sets.

A grid is the fat-point scheme supported on the pairwise Hadamard products
``P_i * Q_j`` of two collinear point sets with multiplicity vectors M and N,
where the point ``P_i * Q_j`` carries multiplicity ``m_i + n_j - 1``.  The
support is a complete intersection of ``r`` horizontal and ``s`` vertical
lines; construction validates that structure exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

from .budget import Budget, DEFAULT_BUDGET
from .errors import DomainError, GridError, ParseError
from .polycore import (
    PLANE,
    IdealPresentation,
    Polynomial,
    ideal_intersection,
    ideal_power,
)
from .projective import (
    Line,
    Point,
    delta_index,
    hadamard_line_point,
    hadamard_point,
    is_collinear,
    line_through,
    point_ideal,
)


@dataclass(frozen=True)
class WeightedPointSet:
    """Pairwise-distinct collinear points, each with a positive multiplicity.

    Multiplicities are kept sorted non-decreasingly; ``make`` permutes the
    points in tandem so the pairing is preserved.
    """

    points: tuple[Point, ...]
    multiplicities: tuple[int, ...]

    @classmethod
    def make(cls, points, multiplicities) -> WeightedPointSet:
        pts = tuple(points)
        mults = tuple(int(m) for m in multiplicities)
        if not pts:
            raise GridError("a weighted point set needs at least one point")
        if len(pts) != len(mults):
            raise GridError(
                "got %d points but %d multiplicities" % (len(pts), len(mults))
            )
        if any(m < 1 for m in mults):
            raise GridError("multiplicities must be positive integers")
        if len(set(pts)) != len(pts):
            raise GridError("points must be pairwise distinct")
        for p in pts:
            if delta_index(p) < 2:
                raise GridError(
                    "point %s has a zero coordinate" % p.to_string()
                )
        if not is_collinear(list(pts)):
            raise GridError("points must be collinear")
        order = sorted(range(len(pts)), key=lambda i: (mults[i], i))
        return cls(
            tuple(pts[i] for i in order), tuple(mults[i] for i in order)
        )

    @property
    def size(self) -> int:
        return len(self.points)


# Support line of a singleton set {P}: the image under P of a fixed axis line.
# Both templates contain [1:1:1], so the image line always passes through P.
_ROW_TEMPLATE = Line((1, -1, 0))  # x0 - x1
_COL_TEMPLATE = Line((1, 0, -1))  # x0 - x2


def _support_candidates(ws: WeightedPointSet) -> list[Line]:
    if ws.size >= 2:
        return [line_through(ws.points[0], ws.points[1])]
    point = ws.points[0]
    # the first image has a zero x2 coefficient and a nonzero x1 one, the
    # second the reverse, so the two are never the same line
    return [
        hadamard_line_point(_ROW_TEMPLATE, point),
        hadamard_line_point(_COL_TEMPLATE, point),
    ]


@dataclass(frozen=True)
class FatGrid:
    """An r-by-s grid of fat points with its horizontal and vertical lines.

    ``grid_points[i][j]`` is ``P_{i+1} * Q_{j+1}`` and carries multiplicity
    ``mult[i][j] = m_{i+1} + n_{j+1} - 1``.  Lines are indexed so that
    ``h_lines[i]`` is the image of the column support line under the row
    point of largest remaining multiplicity: ``h_lines[i]`` contains grid row
    ``r - 1 - i`` and ``v_lines[j]`` contains grid column ``s - 1 - j``.
    """

    row_set: WeightedPointSet
    col_set: WeightedPointSet
    row_line: Line
    col_line: Line
    grid_points: tuple[tuple[Point, ...], ...]
    h_lines: tuple[Line, ...]
    v_lines: tuple[Line, ...]
    swapped: bool = field(default=False, compare=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_set.size, self.col_set.size)

    @property
    def row_multiplicities(self) -> tuple[int, ...]:
        return self.row_set.multiplicities

    @property
    def col_multiplicities(self) -> tuple[int, ...]:
        return self.col_set.multiplicities

    @cached_property
    def mult(self) -> tuple[tuple[int, ...], ...]:
        """``m_i + n_j - 1``, from the two weighted sets alone.  A frozen
        dataclass keeps a ``__dict__``, which holds the cache; ``replace``
        builds a new instance, so a scaled grid never reads a stale one."""
        return tuple(
            tuple(mi + nj - 1 for nj in self.col_multiplicities)
            for mi in self.row_multiplicities
        )

    @property
    def total_multiplicity(self) -> int:
        return sum(sum(row) for row in self.mult)

    def scheme_degree(self) -> int:
        """Sum of C(m_ij + 1, 2) over all grid points."""
        return sum(m * (m + 1) // 2 for row in self.mult for m in row)


def build_grid(row_set: WeightedPointSet, col_set: WeightedPointSet) -> FatGrid:
    """Assemble and validate the grid of a pair of weighted point sets.

    The larger set always plays the column role; when the inputs arrive the
    other way around they are exchanged and the ``swapped`` flag records it.
    The points depend on the two sets alone and are built once; ``mult`` is
    read from the sets when first asked for.  A singleton set does not
    determine its support line, so both template transports are tried, and
    the first pair whose horizontal and vertical lines share no line wins.
    """
    swapped = False
    if row_set.size > col_set.size:
        row_set, col_set = col_set, row_set
        swapped = True

    # Not checked, as they hold by construction: ``make`` rejects zero
    # coordinates (so P * Q is defined) and non-collinear sets, and a
    # singleton's candidate lines pass through it.  A grid point lies on its
    # own lines: for the column line c . x = 0 the h-line of P is
    # (c/P) . x = 0, and (c/P) . (P * Q) = c . Q = 0; likewise for v-lines.
    # Nor on any other line, once the duplicate-point and shared-line checks
    # pass: were point (i,j) on the h-line of row k != i, that line would
    # hold the distinct points (i,j) and (k,j), as column j's v-line does,
    # so the two lines would be one shared line; the column case is the
    # mirror image.
    seen: dict[Point, tuple[int, int]] = {}
    rows: list[tuple[Point, ...]] = []
    for i, p in enumerate(row_set.points):
        row: list[Point] = []
        for j, q in enumerate(col_set.points):
            g = hadamard_point(p, q)
            if g in seen:
                raise GridError(
                    "duplicate grid point %s at (%d,%d) and (%d,%d)"
                    % (g.to_string(), *seen[g], i, j)
                )
            seen[g] = (i, j)
            row.append(g)
        rows.append(tuple(row))

    for row_line in _support_candidates(row_set):
        for col_line in _support_candidates(col_set):
            h_lines = tuple(
                hadamard_line_point(col_line, p)
                for p in reversed(row_set.points)
            )
            v_lines = tuple(
                hadamard_line_point(row_line, q)
                for q in reversed(col_set.points)
            )
            shared = next((line for line in h_lines if line in v_lines), None)
            if shared is None:
                return FatGrid(
                    row_set=row_set,
                    col_set=col_set,
                    row_line=row_line,
                    col_line=col_line,
                    grid_points=tuple(rows),
                    h_lines=h_lines,
                    v_lines=v_lines,
                    swapped=swapped,
                )
    # every candidate pair shares a line; report the last one's
    raise GridError(
        "grid is degenerate: %s is both a horizontal and a vertical line"
        % shared
    )


def abstract_grid(row_multiplicities, col_multiplicities) -> FatGrid:
    """Grid on default collinear point sets, determined by (M, N) alone.

    Rows use ``P_i = [1:1:i+1]`` on ``x0 - x1 = 0`` and columns use
    ``Q_j = [1:j+1:1]`` on ``x0 - x2 = 0``; all products are pairwise
    distinct, so the construction never degenerates.
    """
    M = tuple(int(m) for m in row_multiplicities)
    N = tuple(int(n) for n in col_multiplicities)
    row_points = [Point((1, 1, i + 2)) for i in range(len(M))]
    col_points = [Point((1, j + 2, 1)) for j in range(len(N))]
    return build_grid(
        WeightedPointSet.make(row_points, M),
        WeightedPointSet.make(col_points, N),
    )


def symbolic_multiplicities(
    g: FatGrid, t: int
) -> tuple[list[int], list[int]]:
    """Multiplicity vectors of the t-th symbolic power: M' = t*m - (t-1),
    N' = t*n.

    Every multiplicity-matrix entry scales by exactly t, and both maps are
    increasing, so the vectors stay sorted in the order of the points.
    """
    t = int(t)
    if t < 1:
        raise DomainError("symbolic power index must be a positive integer")
    return (
        [t * m - (t - 1) for m in g.row_set.multiplicities],
        [t * n for n in g.col_set.multiplicities],
    )


def rotate_coordinates(g: FatGrid) -> FatGrid:
    """The same grid in the coordinates (x1, x2, x0).

    Every point and line of g has its coordinates cycled, so x0 becomes the
    last variable; a line's coefficients cycle with the point coordinates,
    which keeps every incidence and every distinctness.  Multiplicities,
    indexing and the ``swapped`` flag stay as they are, and nothing is
    rebuilt, so a singleton set keeps the support line it was built with.
    Three rotations give back g.
    """

    def point(p: Point) -> Point:
        return Point(p.coords[1:] + p.coords[:1])

    def line(l: Line) -> Line:
        return Line(l.coeffs[1:] + l.coeffs[:1])

    def weighted(ws: WeightedPointSet) -> WeightedPointSet:
        return replace(ws, points=tuple(point(p) for p in ws.points))

    return replace(
        g,
        row_set=weighted(g.row_set),
        col_set=weighted(g.col_set),
        row_line=line(g.row_line),
        col_line=line(g.col_line),
        grid_points=tuple(tuple(point(p) for p in row) for row in g.grid_points),
        h_lines=tuple(line(l) for l in g.h_lines),
        v_lines=tuple(line(l) for l in g.v_lines),
    )


def _intersect_pairwise(ideals: list[IdealPresentation]) -> IdealPresentation:
    """Intersect neighbours (0,1), (2,3), ... level by level; an odd one out
    is carried up to the next level unchanged."""
    while len(ideals) > 1:
        paired = [
            ideal_intersection(a, b) for a, b in zip(ideals[::2], ideals[1::2])
        ]
        if len(ideals) % 2:
            paired.append(ideals[-1])
        ideals = paired
    return ideals[0]


def grid_ideal_intersection(
    g: FatGrid, budget: Budget = DEFAULT_BUDGET
) -> IdealPresentation:
    """Oracle ideal of the grid: intersect the point-ideal powers directly.

    Each grid row's point powers are intersected in a balanced pairwise
    tree, then the row ideals are combined the same way.  The rows, and the
    points within each row, enter the trees heaviest first: in decreasing
    multiplicity.  The result is a reduced Groebner basis, so neither the
    grouping nor the order changes its generators.
    """
    budget.check_grid(g.total_multiplicity)
    r, s = g.shape
    # ``make`` keeps both multiplicity vectors non-decreasing
    rows = range(r - 1, -1, -1)
    cols = range(s - 1, -1, -1)
    return _intersect_pairwise(
        [
            _intersect_pairwise(
                [
                    ideal_power(point_ideal(g.grid_points[i][j]), g.mult[i][j])
                    for j in cols
                ]
            )
            for i in rows
        ]
    )


@dataclass(frozen=True)
class GeneratorPattern:
    """Exponent pattern of one minimal generator: a product of grid lines.

    The generator is ``prod H_i^{h_exponents[i-1]} * prod V_j^{v_exponents[j-1]}``
    with exponents ``(a_i - k)_+`` and ``(b_j + k)_+`` already clipped at zero.
    """

    k: int
    h_exponents: tuple[int, ...]
    v_exponents: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.h_exponents) + sum(self.v_exponents)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "h_exponents": list(self.h_exponents),
            "v_exponents": list(self.v_exponents),
            "degree": self.degree,
        }


def expand_pattern(g: FatGrid, pattern: GeneratorPattern) -> Polynomial:
    """Multiply out a pattern's powers of the grid's line forms."""
    r, s = g.shape
    if len(pattern.h_exponents) != r or len(pattern.v_exponents) != s:
        raise GridError("pattern shape does not match the grid")
    if any(e < 0 for e in pattern.h_exponents + pattern.v_exponents):
        raise GridError("pattern exponents must be non-negative")
    f = Polynomial.constant(PLANE, 1)
    for e, hline in zip(pattern.h_exponents, g.h_lines):
        if e:
            f = f * hline.form() ** e
    for e, vline in zip(pattern.v_exponents, g.v_lines):
        if e:
            f = f * vline.form() ** e
    return f


def grid_from_json(data) -> FatGrid:
    """Build a grid from a JSON object (or its text).

    Two shapes are accepted: ``{"P", "M", "Q", "N"}`` with explicit point
    coordinates, and the abstract form ``{"M", "N"}`` which uses the default
    point sets.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError("invalid grid JSON: %s" % exc) from exc
    if not isinstance(data, dict):
        raise ParseError("grid JSON must be an object")
    if "M" not in data or "N" not in data:
        raise ParseError("grid JSON needs multiplicity lists 'M' and 'N'")
    M, N = data["M"], data["N"]
    for values in (M, N):
        if not isinstance(values, list) or any(type(x) is not int for x in values):
            raise ParseError("multiplicity lists must hold integers")
    has_p, has_q = "P" in data, "Q" in data
    if has_p != has_q:
        raise ParseError("grid JSON needs both 'P' and 'Q' or neither")
    if not has_p:
        return abstract_grid(M, N)
    try:
        row_points = [Point.from_json(p) for p in data["P"]]
        col_points = [Point.from_json(q) for q in data["Q"]]
    except (TypeError, KeyError) as exc:
        raise ParseError("invalid point coordinates in grid JSON") from exc
    return build_grid(
        WeightedPointSet.make(row_points, M),
        WeightedPointSet.make(col_points, N),
    )
