"""Points and lines of the rational projective plane.

Coordinates are stored normalized: the first nonzero coordinate is 1, so
structural equality is projective equality.  Points behave as coordinate
sequences.

The Hadamard product of two points is the coordinatewise product; it is
undefined (returns None) exactly when every coordinate product vanishes.
delta_index(P) counts the nonzero coordinates minus one: 0 on coordinate
points, 1 on the coordinate lines less the coordinate points, 2 elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DomainError, ParseError
from .polycore import PLANE, IdealPresentation, Polynomial, format_rational, linear_ideal

Scalar = Fraction | int


def _normalize(coords: Sequence[Scalar], what: str) -> tuple[Fraction, ...]:
    values = tuple(Fraction(c) for c in coords)
    if len(values) != 3:
        raise DomainError(f"{what} needs exactly 3 coordinates")
    pivot = next((v for v in values if v != 0), None)
    if pivot is None:
        raise DomainError(f"the coordinates of {what} must not all vanish")
    return tuple(v / pivot for v in values)


@dataclass(frozen=True)
class Point:
    coords: tuple[Fraction, Fraction, Fraction]

    def __init__(self, coords: Sequence[Scalar]):
        object.__setattr__(self, "coords", _normalize(coords, "a point"))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __len__(self) -> int:
        return 3

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    @classmethod
    def from_string(cls, text: str) -> "Point":
        parts = text.strip().split(":")
        if len(parts) != 3:
            raise ParseError(f"point text must be p0:p1:p2, got {text!r}")
        try:
            return cls([Fraction(p.strip()) for p in parts])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse point {text!r}") from exc

    def to_string(self) -> str:
        return ":".join(str(c) for c in self.coords)

    def to_json(self) -> list[str]:
        return [format_rational(c) for c in self.coords]

    @classmethod
    def from_json(cls, data) -> "Point":
        if not isinstance(data, (list, tuple)) or len(data) != 3:
            raise ParseError(f"point JSON must be a 3-list, got {data!r}")
        try:
            return cls([Fraction(str(c)) for c in data])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse point {data!r}") from exc

    def zero_support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c == 0)

    def __repr__(self) -> str:
        return f"Point({self.to_string()})"


@dataclass(frozen=True)
class Line:
    """A line, stored by its normalized coefficient triple c0:c1:c2."""

    coeffs: tuple[Fraction, Fraction, Fraction]

    def __init__(self, coeffs: Sequence[Scalar]):
        object.__setattr__(self, "coeffs", _normalize(coeffs, "a line"))

    def form(self) -> Polynomial:
        return Polynomial.linear_form(PLANE, self.coeffs)

    def contains(self, p: Point) -> bool:
        return sum(c * v for c, v in zip(self.coeffs, p.coords)) == 0

    def __repr__(self) -> str:
        return f"Line({':'.join(str(c) for c in self.coeffs)})"


def primitive_coords(coords: Sequence[Scalar]) -> list[int]:
    """Integer coordinates with gcd 1 of a nonzero rational vector, such as
    a point's coordinates or a line's coefficients: the same projective
    point or line, so a point lies on a line exactly when the integer dot
    product of the two triples vanishes."""
    den = math.lcm(*(c.denominator for c in coords))
    ints = [c.numerator * (den // c.denominator) for c in coords]
    content = math.gcd(*ints)
    return [x // content for x in ints]


def hadamard_point(p: Point, q: Point) -> Point | None:
    """Coordinatewise product; None when it is undefined."""
    prods = [a * b for a, b in zip(p.coords, q.coords)]
    if all(v == 0 for v in prods):
        return None
    return Point(prods)


def delta_index(p: Point) -> int:
    return sum(1 for c in p.coords if c != 0) - 1


def point_ideal(p: Point) -> IdealPresentation:
    """The ideal of forms vanishing at p, presented by the two independent
    linear forms q_k*x_i - q_i*x_k, i != k, of its integer coordinates q,
    with k the first nonzero one."""
    q = primitive_coords(p.coords)
    k = next(i for i, c in enumerate(q) if c)
    forms = []
    for i in range(3):
        if i != k:
            coeffs = [0, 0, 0]
            coeffs[i] = q[k]
            coeffs[k] = -q[i]
            forms.append(coeffs)
    return linear_ideal(PLANE, forms)


def line_through(p: Point, q: Point) -> Line:
    if p == q:
        raise DomainError("two coincident points do not determine a line")
    a, b = p.coords, q.coords
    cross = (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )
    return Line(cross)


def is_collinear(points: Sequence[Point]) -> bool:
    """True when all points lie on one line; vacuous below three points."""
    if len(points) <= 2:
        return True
    first, second = points[0], points[1]
    if first == second:
        return False
    line = line_through(first, second)
    return all(line.contains(p) for p in points[2:])


def hadamard_line_point(line: Line, p: Point) -> Line:
    """Image of a line under the Hadamard action of a point with no zero
    coordinate: coefficients divide coordinatewise."""
    if delta_index(p) != 2:
        raise DomainError("Hadamard image of a line needs a point off the coordinate lines")
    return Line([c / v for c, v in zip(line.coeffs, p.coords)])
