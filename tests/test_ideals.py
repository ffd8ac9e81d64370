from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfg.errors import BlockMismatchError, DomainError
from hfg.polycore import (
    PLANE,
    IdealPresentation,
    Polynomial,
    VariableBlock,
    eliminate,
    groebner_basis,
    hadamard_ideals,
    ideal_equal,
    ideal_from_json,
    ideal_intersection,
    ideal_power,
    ideal_to_json,
    irrelevant_power,
    join_ideals,
    monomials_of_degree,
    normal_form,
    variables,
)
from hfg.polycore import groebner
from hfg.polycore.groebner import _reduced_basis
from hfg.polycore.poly import _grevlex_key
from hfg.projective import Point, hadamard_point, point_ideal

X0, X1, X2 = variables(PLANE)


def poly(text: str) -> Polynomial:
    return Polynomial.from_string(PLANE, text)


def ideal(*texts: str) -> IdealPresentation:
    return IdealPresentation.from_polys(*(poly(t) for t in texts))


def test_ideal_equal_ignores_presentation():
    assert ideal_equal(ideal("x0", "x1"), ideal("x1", "x0"))
    assert ideal_equal(ideal("x0", "x1"), ideal("3*x0", "x0 + x1"))
    assert not ideal_equal(ideal("x0"), ideal("x0^2"))


def test_ideal_power():
    m = ideal("x1", "x2")
    sq = ideal_power(m, 2)
    assert ideal_equal(sq, ideal("x1^2", "x1*x2", "x2^2"))
    assert ideal_equal(ideal_power(m, 1), m)
    cube = ideal_power(m, 3)
    assert cube.contains(poly("x1*x2^2"))
    with pytest.raises(DomainError):
        ideal_power(m, 0)


def test_first_power_is_the_ideal_itself_with_its_cached_basis():
    m = ideal("x1 + x2", "x0*x1")
    basis = m.groebner_basis()
    assert ideal_power(m, 1) is m
    assert ideal_power(m, 1).groebner_basis() is basis


def test_leading_exponents_are_the_basis_leading_monomials():
    """Read packed, on an ideal given by polynomials, a power, and engine
    results whose packing has variables past the block."""
    a = ideal("x0^2 - x1*x2", "x1^2 + x0*x2")
    b = point_ideal(Point((1, 2, 3)))
    for i in (
        a,
        ideal_power(a, 2),
        ideal_intersection(a, b),
        hadamard_ideals(b, point_ideal(Point((2, 1, 1)))),
    ):
        assert i.leading_exponents() == [
            max(g.terms, key=_grevlex_key) for g in i.groebner_basis()
        ]


def test_ideal_intersection():
    assert ideal_equal(ideal_intersection(ideal("x1"), ideal("x2")), ideal("x1*x2"))
    i = ideal("x0 - x1", "x1^2 - x2^2")
    assert ideal_equal(ideal_intersection(i, i), i)


def test_intersection_fold_order_is_irrelevant():
    parts = [
        ideal_power(point_ideal(Point((1, 2, 3))), 2),
        point_ideal(Point((1, 1, 2))),
        point_ideal(Point((1, 5, 1))),
    ]
    left = reduce(ideal_intersection, parts)
    right = reduce(ideal_intersection, reversed(parts))
    assert ideal_equal(left, right)


def test_join_of_irrelevant_powers():
    for m, n in [(1, 1), (2, 2), (2, 3)]:
        joined = join_ideals(irrelevant_power(m), irrelevant_power(n))
        assert ideal_equal(joined, irrelevant_power(m + n - 1))


def test_join_point_with_irrelevant_square():
    p = point_ideal(Point((1, 1, 1)))
    assert ideal_equal(join_ideals(p, irrelevant_power(2)), ideal_power(p, 2))


def test_join_rejects_zeroth_power():
    with pytest.raises(DomainError):
        irrelevant_power(0)


def test_hadamard_product_of_simple_points():
    p, q = Point((1, 2, 3)), Point((2, 1, 1))
    product = hadamard_ideals(point_ideal(p), point_ideal(q))
    assert ideal_equal(product, point_ideal(hadamard_point(p, q)))


def test_hadamard_product_of_coordinate_vertex_powers():
    # P = [1:0:1] and Q = [1:1:0] have complementary zero coordinates.
    p = ideal_power(point_ideal(Point((1, 0, 1))), 2)
    q = ideal_power(point_ideal(Point((1, 1, 0))), 3)
    assert ideal_equal(hadamard_ideals(p, q), ideal("x1^2", "x2^3"))


def test_three_component_hadamard_product():
    # Product of two pairs of collinear points whose four pairwise products
    # collapse onto three distinct points.
    i = ideal("5*x0 - x1 - x2", "6*x1^2 - 13*x1*x2 + 6*x2^2")
    j = ideal("5*x0 - 4*x1 - 3*x2", "16*x1^2 - 26*x1*x2 + 9*x2^2")
    components = [
        ideal("16*x1 - 27*x2", "4*x0 - 3*x2"),
        ideal("4*x1 - 3*x2", "2*x0 - x2"),
        ideal("3*x1 - x2", "3*x0 - x2"),
    ]
    expected = reduce(ideal_intersection, components)
    assert ideal_equal(hadamard_ideals(i, j), expected)


def test_hadamard_distributes_over_intersection():
    i = point_ideal(Point((1, 2, 3)))
    j = ideal_power(point_ideal(Point((1, 1, 2))), 2)
    k = point_ideal(Point((2, 1, 1)))
    left = hadamard_ideals(ideal_intersection(i, j), k)
    right = ideal_intersection(hadamard_ideals(i, k), hadamard_ideals(j, k))
    assert ideal_equal(left, right)


def test_membership_via_normal_form():
    members = ideal("x1^2", "x2^2")
    basis = members.groebner_basis()
    assert normal_form(poly("x1^2 + x2^2"), basis).is_zero
    assert not normal_form(poly("x1*x2"), basis).is_zero


def test_eliminate_caches_the_basis_it_computed(monkeypatch):
    # (x0, x1) meet (x1, x2) = (x1, x0*x2), by hand and by ideal_intersection
    ext = VariableBlock(PLANE.names + ("t",))
    x0, x1, x2, t = variables(ext)
    one = Polynomial.constant(ext, 1)
    by_hand = eliminate([t * x0, t * x1, (one - t) * x1, (one - t) * x2], PLANE)
    meet = ideal_intersection(ideal("x0", "x1"), ideal("x1", "x2"))

    def no_buchberger(*args):
        raise AssertionError("a second Buchberger run")

    monkeypatch.setattr(groebner, "_buchberger", no_buchberger)
    assert by_hand.groebner_basis() == (X1, X0 * X2)
    assert by_hand.contains(poly("x0*x1*x2 + x1^3"))
    assert not by_hand.contains(poly("x0"))
    assert ideal_equal(by_hand, meet)
    with pytest.raises(AssertionError, match="second Buchberger"):
        ideal("x0", "x1").groebner_basis()


def test_ideal_json_round_trip():
    i = ideal("x0^2 - 1/2*x1*x2", "x1 - x2")
    data = ideal_to_json(i)
    assert data["vars"] == ["x0", "x1", "x2"]
    assert ideal_equal(ideal_from_json(data), i)


@st.composite
def small_eliminations(draw):
    """Two or three sparse inhomogeneous generators of degree at most 2 in
    four or five variables, and how many leading variables to keep."""
    nvars = draw(st.integers(min_value=4, max_value=5))
    block = VariableBlock(tuple("x%d" % i for i in range(nvars)))
    monomials = [e for d in range(3) for e in monomials_of_degree(block, d)]
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    term = st.tuples(coeffs, st.sampled_from(monomials))
    gens = []
    for terms in draw(st.lists(st.lists(term, min_size=1, max_size=3), min_size=2, max_size=3)):
        f = Polynomial.zero(block)
        for c, exps in terms:
            f = f + c * Polynomial.monomial(block, exps)
        gens.append(f)
    return gens, draw(st.integers(min_value=1, max_value=nvars - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_eliminations())
def test_eliminate_is_the_kept_part_of_the_full_elimination_basis(case):
    gens, k = case
    keep = VariableBlock(gens[0].block.names[:k])
    full = _reduced_basis(gens, k)
    kept = tuple(
        Polynomial(keep, {e[:k]: c for e, c in g.terms.items()})
        for g in full
        if not any(any(e[k:]) for e in g.terms)
    )
    assert eliminate(gens, keep).groebner_basis() == kept


def test_intersection_with_the_zero_ideal_is_zero():
    zero = IdealPresentation(PLANE, [])
    for meet in (
        ideal_intersection(zero, ideal("x0")),
        ideal_intersection(ideal("x0"), zero),
        ideal_intersection(zero, zero),
    ):
        assert meet.is_zero
        assert meet.groebner_basis() == ()


# -- the packed constructions against Polynomial ones -------------------------


def _embed(f, ext, offset):
    """f on `ext`, variable i becoming variable offset + i."""
    pad = ext.arity - offset - f.block.arity
    front = (0,) * offset
    return Polynomial(ext, {front + e + (0,) * pad: c for e, c in f.terms.items()})


def _reference_intersection(a, b):
    ext = VariableBlock(PLANE.names + ("t",))
    t = Polynomial.variable(ext, 3)
    one = Polynomial.constant(ext, 1)
    gens = [t * _embed(f, ext, 0) for f in a.generators]
    gens += [(one - t) * _embed(g, ext, 0) for g in b.generators]
    return eliminate(gens, PLANE)


def _reference_product(a, b, hadamard):
    ext = VariableBlock(PLANE.names + ("y0", "y1", "y2", "z0", "z1", "z2"))
    v = variables(ext)
    gens = [_embed(f, ext, 3) for f in a.generators]
    gens += [_embed(g, ext, 6) for g in b.generators]
    for i in range(3):
        x, y, z = v[i], v[3 + i], v[6 + i]
        gens.append(x - y * z if hadamard else x - y - z)
    return eliminate(gens, PLANE)


def _reference_power(a, m):
    products = [
        reduce(operator.mul, combo)
        for combo in itertools.combinations_with_replacement(a.generators, m)
    ]
    return eliminate(products, PLANE)


_coords = st.sampled_from([-2, -1, 1, 2, 3])


@st.composite
def _points(draw):
    """A point of a stratum drawn first: coordinate point, coordinate line or
    off the coordinate triangle."""
    zeros = draw(st.sampled_from([(1, 2), (0,), (1,), (2,), ()]))
    return Point(tuple(0 if i in zeros else draw(_coords) for i in range(3)))


_point_powers = st.builds(
    lambda p, m: ideal_power(point_ideal(p), m), _points(), st.integers(1, 2)
)
_monomial_ideals = st.lists(
    st.tuples(*[st.integers(0, 2)] * 3).filter(any), min_size=1, max_size=3
).map(lambda es: IdealPresentation.from_polys(*(Polynomial.monomial(PLANE, e) for e in es)))
_linear_forms = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=3, max_size=3
).filter(any)
_linear_ideals = st.lists(_linear_forms, min_size=1, max_size=2).map(
    lambda rows: IdealPresentation.from_polys(*(Polynomial.linear_form(PLANE, r) for r in rows))
)
_ideals = st.one_of(_point_powers, _monomial_ideals, _linear_ideals)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_ideals, _ideals, st.integers(2, 3))
def test_packed_constructions_match_the_polynomial_ones(a, b, m):
    pairs = [
        (ideal_intersection(a, b), _reference_intersection(a, b)),
        (hadamard_ideals(a, b), _reference_product(a, b, True)),
        (join_ideals(a, b), _reference_product(a, b, False)),
        (ideal_power(a, m), _reference_power(a, m)),
    ]
    for packed, reference in pairs:
        assert packed.groebner_basis() == reference.groebner_basis()


def test_a_kept_basis_is_read_by_every_consumer_unchanged(monkeypatch):
    def build():
        return ideal_intersection(
            ideal_power(point_ideal(Point((1, 2, 3))), 2), point_ideal(Point((1, 1, 2)))
        )

    shared = build()
    j = point_ideal(Point((2, 1, 1)))
    k = ideal_power(point_ideal(Point((1, 5, 1))), 2)
    member = reduce(operator.mul, build().generators[:2])
    # 3 variables, at the basis's own width and at a wider one
    for f, expected in ((member, True), (X0**300 * member, True), (X1**2, False)):
        assert shared.contains(f) is build().contains(f) is expected
    # 9 and 4 variables
    for op, other in ((hadamard_ideals, j), (ideal_intersection, k)):
        assert op(shared, other).groebner_basis() == op(build(), other).groebner_basis()
    # engine runs that start narrower than the rows: repacked, and the
    # Hadamard run overflows and widens
    widths = []

    def spy(front, nvars, width):
        widths.append(width)
        return groebner._Packing(front, nvars, width)

    monkeypatch.setattr(groebner, "_packing", spy)
    monkeypatch.setattr(groebner, "_width", lambda top: top.bit_length() + 1)
    narrow = [hadamard_ideals(shared, j).groebner_basis()]
    assert widths[:2] == [widths[0], 2 * widths[0]]
    narrow.append(ideal_intersection(shared, k).groebner_basis())
    monkeypatch.undo()
    assert narrow == [
        hadamard_ideals(build(), j).groebner_basis(),
        ideal_intersection(build(), k).groebner_basis(),
    ]
    assert shared.groebner_basis() == build().groebner_basis()


def test_an_ideal_built_from_polynomials_keeps_them():
    gens = [X0**3 - X1, Polynomial.zero(PLANE), Fraction(1, 2) * X1 * X2 + X0, X2**2]
    ideal = IdealPresentation(PLANE, gens)
    nonzero = (gens[0], gens[2], gens[3])
    assert ideal.generators == nonzero
    assert all(map(operator.is_, ideal.generators, nonzero))
    # inhomogeneous: the degree of the largest generator, not of the first
    assert ideal.max_generator_degree() == max(g.total_degree() for g in gens) == 3
    other = VariableBlock(("y0", "y1", "y2"))
    assert ideal.contains(Polynomial.zero(other))
    with pytest.raises(BlockMismatchError):
        ideal.contains(Polynomial.variable(other, 0))


_plane_monomials = [e for d in range(3) for e in monomials_of_degree(PLANE, d)]
_plane_polys = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
        st.sampled_from(_plane_monomials),
    ),
    max_size=3,
).map(
    lambda terms: reduce(
        operator.add,
        (c * Polynomial.monomial(PLANE, e) for c, e in terms),
        Polynomial.zero(PLANE),
    )
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(_plane_polys, min_size=1, max_size=3), _plane_polys)
def test_the_polynomial_routes_agree_with_the_ideal(gens, f):
    ideal = IdealPresentation(PLANE, gens)
    basis = groebner_basis(gens)
    assert basis == ideal.groebner_basis()
    # f itself, and a multiple of a generator, which is always a member
    for h in (f, f * gens[0]):
        assert normal_form(h, basis).is_zero == ideal.contains(h)
    assert ideal.contains(f * gens[0])
