from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfg.errors import BlockMismatchError, DomainError, ParseError
from hfg.polycore import (
    PLANE,
    Polynomial,
    VariableBlock,
    format_rational,
    irrelevant_power,
    monomials_of_degree,
    parse_rational,
    variables,
)

X0, X1, X2 = variables(PLANE)


def test_rational_round_trip():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(5)) == "5"
    with pytest.raises(ParseError):
        parse_rational("not a number")


def test_zero_polynomial_has_no_terms():
    z = Polynomial.zero(PLANE)
    assert z.is_zero
    assert not z.terms
    assert (X0 - X0).is_zero


def test_no_zero_coefficients_survive_arithmetic():
    p = X0 + X1
    q = X0 - X1
    s = p + q  # 2*x0
    assert list(s.terms.values()) == [Fraction(2)]
    assert (p * q).terms == (X0 * X0 - X1 * X1).terms


def _fraction_product(f: Polynomial, g: Polynomial) -> dict:
    """Reference product: one Fraction multiply and add per pair of terms,
    zero sums dropped."""
    terms: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in terms.items() if c}


# small exponents, so that products collide and often cancel
_rational_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    max_size=6,
).map(lambda terms: Polynomial(PLANE, terms))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_rational_polys, _rational_polys)
def test_product_matches_the_fraction_product(f, g):
    product = f * g
    assert product.terms == _fraction_product(f, g)
    assert all(type(c) is Fraction and c for c in product.terms.values())
    assert (g * f).terms == product.terms


_integer_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-50, 50),
    max_size=6,
).map(lambda terms: Polynomial(PLANE, terms))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_rational_polys, _rational_polys.map(lambda f: -f), _integer_polys))
@example(Polynomial.zero(PLANE))
@example(-3 * X0 * X1 + X2)
def test_integer_terms_are_numerators_over_the_lcm_of_the_denominators(f):
    den, terms = f.integer_terms()
    denominators = [c.denominator for c in f.terms.values()]
    assert den == reduce(lambda a, b: a * b // math.gcd(a, b), denominators, 1)
    assert [e for e, _ in terms] == list(f.terms)
    assert all(type(n) is int and Fraction(n, den) == f.terms[e] for e, n in terms)


def test_product_cancels_to_zero_terms_and_keeps_denominators():
    p = Fraction(1, 2) * X0 + Fraction(2, 3) * X1
    q = Fraction(1, 2) * X0 - Fraction(2, 3) * X1
    assert (p * q).terms == {(2, 0, 0): Fraction(1, 4), (0, 2, 0): Fraction(-4, 9)}
    assert (p * Polynomial.zero(PLANE)).is_zero


def test_string_round_trip():
    p = Polynomial.from_string(PLANE, "x0^2 - 1/2*x1*x2")
    assert p.to_string() == "x0^2 - 1/2*x1*x2"
    assert Polynomial.from_string(PLANE, p.to_string()) == p
    with pytest.raises(ParseError):
        Polynomial.from_string(PLANE, "x9 + 1")


def test_json_terms_round_trip():
    p = X0 * X0 - Fraction(1, 2) * X1 * X2
    data = p.to_json_terms()
    assert data == [["1", [2, 0, 0]], ["-1/2", [0, 1, 1]]]
    assert Polynomial.from_json_terms(PLANE, data) == p


def test_json_terms_take_int_coefficients_but_no_json_floats():
    assert Polynomial.from_json_terms(PLANE, [[-2, [1, 0, 0]]]) == -2 * X0
    for coeff in (0.1, 1.0, True):
        with pytest.raises(ParseError):
            Polynomial.from_json_terms(PLANE, [[coeff, [1, 0, 0]]])


def test_homogeneity_and_degree():
    assert (X0 * X1 - X2 * X2).is_homogeneous()
    assert not (X0 + X1 * X2).is_homogeneous()
    assert (X0 * X1 * X2).total_degree() == 3
    assert Polynomial.zero(PLANE).total_degree() == -1


def test_block_mismatch_rejected():
    other = VariableBlock(("y0", "y1"))
    q = Polynomial.from_string(other, "y0 + y1")
    with pytest.raises(BlockMismatchError):
        (X0 + X1) + q


def test_power_operator():
    p = X0 - X1
    assert p ** 1 == p
    assert p ** 2 == p * p
    assert (p ** 3).terms[(2, 1, 0)] == Fraction(-3)


def test_irrelevant_power_monomial_counts():
    assert {g.to_string() for g in irrelevant_power(1).generators} == {"x0", "x1", "x2"}
    assert len(irrelevant_power(2).generators) == 6
    assert len(irrelevant_power(3).generators) == 10
    with pytest.raises(DomainError):
        irrelevant_power(0)


def test_monomials_of_degree():
    quadrics = list(monomials_of_degree(PLANE, 2))
    assert len(quadrics) == 6
    assert all(sum(e) == 2 for e in quadrics)
    assert list(monomials_of_degree(PLANE, -1)) == []
