from __future__ import annotations

from fractions import Fraction

import pytest

from hfg.errors import DomainError, ParseError
from hfg.projective import (
    Line,
    Point,
    delta_index,
    hadamard_line_point,
    hadamard_point,
    is_collinear,
    line_through,
    point_ideal,
    primitive_coords,
)


def test_point_normalization_is_canonical():
    assert Point((2, 4, 6)) == Point((1, 2, 3))
    assert Point((0, 3, 6)) == Point((0, 1, 2))
    assert Point((Fraction(1, 2), 1, 0)).coords == (1, 2, 0)
    with pytest.raises(DomainError):
        Point((0, 0, 0))


def test_primitive_coords_clear_denominators_and_content():
    assert primitive_coords([Fraction(2), Fraction(4), Fraction(6)]) == [1, 2, 3]
    assert primitive_coords([Fraction(1, 2), Fraction(-2, 3), 0]) == [3, -4, 0]
    assert primitive_coords(Point((1, Fraction(2, 3), Fraction(1, 3))).coords) == [3, 2, 1]
    assert primitive_coords(Line((Fraction(-6, 5), 0, Fraction(9, 5))).coeffs) == [2, 0, -3]


def test_point_string_round_trip():
    p = Point.from_string("2:1:1")
    assert p.to_string() == "1:1/2:1/2"
    assert Point.from_string(p.to_string()) == p
    assert p.to_json() == ["1", "1/2", "1/2"]
    assert Point.from_json(p.to_json()) == p
    with pytest.raises(ParseError):
        Point.from_string("1:2")
    with pytest.raises(ParseError):
        Point.from_string("1:a:3")


def test_hadamard_point_examples():
    assert hadamard_point(Point((1, 2, 3)), Point((2, 1, 1))) == Point(
        (1, 1, Fraction(3, 2))
    )
    p = Point((1, 5, 7))
    assert hadamard_point(p, Point((1, 1, 1))) == p
    assert hadamard_point(Point((1, 0, 0)), Point((0, 1, 0))) is None


def test_hadamard_point_commutes_and_associates():
    a, b, c = Point((1, 2, 3)), Point((2, 1, 1)), Point((1, 1, 5))
    assert hadamard_point(a, b) == hadamard_point(b, a)
    assert hadamard_point(hadamard_point(a, b), c) == hadamard_point(
        a, hadamard_point(b, c)
    )


def test_delta_index():
    assert delta_index(Point((1, 0, 0))) == 0
    assert delta_index(Point((1, 1, 0))) == 1
    assert delta_index(Point((1, 2, 3))) == 2


def _value(f, coords):
    """f evaluated at the coordinates."""
    total = Fraction(0)
    for exps, c in f.terms.items():
        for x, e in zip(coords, exps):
            c *= Fraction(x) ** e
        total += c
    return total


def test_product_of_reciprocals():
    def reciprocal(p):
        return Point([1 / c for c in p])

    p, q = Point((1, 2, 3)), Point((2, 1, 1))
    pq = hadamard_point(p, q)
    assert delta_index(pq) == 2
    assert pq == reciprocal(hadamard_point(reciprocal(p), reciprocal(q)))


def test_point_ideal_vanishes_exactly_at_the_point():
    for coords in [(1, 0, 0), (1, 1, 1), (0, 2, 3), (1, Fraction(1, 2), 5)]:
        p = Point(coords)
        gens = point_ideal(p).generators
        assert len(gens) == 2
        for g in gens:
            assert g.total_degree() == 1
            assert _value(g, p.coords) == 0
        # The two forms are independent: their coefficient matrix has rank 2.
        rows = [[g.terms.get(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] for g in gens]
        assert any(
            rows[0][i] * rows[1][j] != rows[0][j] * rows[1][i]
            for i in range(3)
            for j in range(i + 1, 3)
        )


def test_point_ideal_examples():
    gens = {g.to_string() for g in point_ideal(Point((1, 0, 0))).generators}
    assert gens == {"x1", "x2"}
    ones = point_ideal(Point((1, 1, 1)))
    for g in ones.generators:
        assert _value(g, (1, 1, 1)) == 0


def test_line_through_and_collinearity():
    l = line_through(Point((1, 0, 0)), Point((0, 1, 0)))
    assert l == Line((0, 0, 1))
    assert l.contains(Point((1, 5, 0)))
    assert is_collinear([Point((1, 0, 0)), Point((0, 1, 0)), Point((1, 5, 0))])
    assert not is_collinear([Point((1, 0, 0)), Point((0, 1, 0)), Point((1, 1, 1))])
    with pytest.raises(DomainError):
        line_through(Point((1, 2, 3)), Point((2, 4, 6)))


def test_hadamard_line_point_examples():
    l = Line((1, 1, 1))
    assert hadamard_line_point(l, Point((1, 1, 1))) == l
    moved = hadamard_line_point(Line((1, -1, 0)), Point((1, 2, 3)))
    assert moved == Line((1, Fraction(-1, 2), 0))
    with pytest.raises(DomainError):
        hadamard_line_point(l, Point((1, 0, 1)))


def test_hadamard_line_point_membership():
    l = line_through(Point((1, 1, 2)), Point((1, 3, 1)))
    p = Point((1, 2, 5))
    image = hadamard_line_point(l, p)
    for q in [Point((1, 1, 2)), Point((1, 3, 1)), Point((1, -1, 3))]:
        assert l.contains(q)
        assert image.contains(hadamard_point(q, p))


def test_line_form_is_the_defining_linear_polynomial():
    l = Line((1, -2, 3))
    f = l.form()
    assert f.total_degree() == 1
    assert _value(f, (2, 1, 0)) == 0
