from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from hfg.errors import BlockMismatchError
from hfg.polycore import (
    GREVLEX,
    LEX,
    PLANE,
    Polynomial,
    VariableBlock,
    elimination_order,
    groebner_basis,
    irrelevant_power,
    normal_form,
    variables,
)
from hfg.polycore.groebner import _Packing, normal_forms

X0, X1, X2 = variables(PLANE)


def test_already_reduced_basis_is_returned_as_is():
    assert set(groebner_basis([X0, X1], GREVLEX)) == {X0, X1}


def test_single_s_polynomial_reduction():
    basis = set(groebner_basis([X0 - X1, X1 - X2], GREVLEX))
    assert basis == {X0 - X2, X1 - X2}


def test_monomial_ideal_is_its_own_basis():
    gens = [X1 * X1, X1 * X2, X2 * X2]
    assert set(groebner_basis(gens, GREVLEX)) == set(gens)


def test_generators_reduce_to_zero_against_basis():
    gens = [X0 * X0 - X1 * X2, X0 * X1 - X2 * X2, X0 * X2 - X1 * X1]
    basis = groebner_basis(gens, GREVLEX)
    for g in gens:
        assert normal_form(g, basis, GREVLEX).is_zero


def test_basis_is_reduced_and_monic():
    basis = groebner_basis([2 * X0 - 2 * X1, 3 * X1 - 3 * X2], GREVLEX)
    for f in basis:
        assert f.leading_coefficient(GREVLEX) == 1
        lead_monomials = [g.leading_monomial(GREVLEX) for g in basis if g is not f]
        for exps in f.terms:
            assert not any(
                all(e >= l for e, l in zip(exps, lead))
                for lead in lead_monomials
            )


def test_basis_is_canonical_under_recomputation_and_permutation():
    gens = [X0 * X0 - X1 * X2, X0 * X1 - X2 * X2]
    first = groebner_basis(gens, GREVLEX)
    second = groebner_basis(list(reversed(gens)), GREVLEX)
    assert set(first) == set(second)


def test_normal_form_examples():
    assert normal_form(X0 * X0, [X0], GREVLEX).is_zero
    assert normal_form(X1 + X2, [X0], GREVLEX) == X1 + X2


def test_mixed_blocks_rejected():
    other = VariableBlock(("y0", "y1"))
    q = Polynomial.from_string(other, "y0")
    with pytest.raises(BlockMismatchError):
        groebner_basis([X0, q], GREVLEX)


def test_elimination_order_dominates_on_tail_variables():
    block = VariableBlock(("x0", "x1", "x2", "t_"))
    order = elimination_order(front=3)
    t = Polynomial.variable(block, 3)
    cubic = Polynomial.variable(block, 0) ** 3
    assert (t + cubic).leading_monomial(order) == t.leading_monomial(order)


def test_irrelevant_power_basis_is_itself():
    m2 = irrelevant_power(2)
    assert set(m2.groebner_basis(GREVLEX)) == set(m2.generators)


# -- the packed-monomial engine ---------------------------------------------

ORDERS = [GREVLEX, LEX, elimination_order(2)]


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "elim2"])
@pytest.mark.parametrize("width", [4, 8])
def test_packed_key_sorts_like_the_order_key(order, width):
    monomials = [
        e for e in itertools.product(range(5), repeat=4) if sum(e) <= 4
    ]
    pk = _Packing(order, 4, width)
    packed = {e: pk.pack(e) for e in monomials}
    assert sorted(monomials, key=packed.get) == sorted(monomials, key=order.key())
    for e, k in packed.items():
        assert pk.unpack(k) == e


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "elim2"])
def test_packed_divisibility_lcm_and_product(order):
    monomials = [e for e in itertools.product(range(3), repeat=4) if sum(e) <= 3]
    pk = _Packing(order, 4, 4)
    exps = {e: pk.exps(pk.pack(e)) for e in monomials}
    for a, b in itertools.product(monomials, repeat=2):
        ea, eb = exps[a], exps[b]
        divides = all(x >= y for x, y in zip(a, b))
        assert (not (ea - eb) & pk.guard) == divides
        lcm = tuple(max(x, y) for x, y in zip(a, b))
        assert pk.unpack(pk.key(pk.lcm(ea, eb))) == lcm
        assert pk.degree(pk.lcm(ea, eb)) == sum(lcm)
        assert pk.unpack(pk.pack(a) + pk.pack(b)) == tuple(
            x + y for x, y in zip(a, b)
        )


def test_exponents_beyond_any_fixed_width():
    big = X0**40000 * X1
    assert groebner_basis([big, X1**2], GREVLEX) == (X1**2, big)
    assert normal_form(X0**40001 * X1, [big], GREVLEX).is_zero
    assert normal_form(X0**40001 + X1, [big], GREVLEX) == X0**40001 + X1


def test_widening_when_a_remainder_outgrows_the_input_degree():
    # under lex, x0 -> x1^100 drives the degree far past the input's
    assert normal_form(X0**10, [X0 - X1**100], LEX) == X1**1000
    basis = groebner_basis([X0 - X1**100, X0**10 - X2], LEX)
    assert basis == (X1**1000 - X2, X0 - X1**100)


def test_normal_form_divides_by_the_first_divisor_in_list_order():
    half = Fraction(1, 2)
    assert normal_form(3 * X0**2, [X0 - half * X1, X0 - X2]) == Fraction(3, 4) * X1**2
    assert normal_form(3 * X0**2, [X0 - X2, X0 - half * X1]) == 3 * X2**2


def test_normal_forms_of_many_polynomials_match_one_at_a_time():
    # X0**10 forces the lex run to widen, which restarts every reduction
    basis = [X0 - X1**100, 2 * X1 * X2 - X0]
    fs = [X1 * X2**2, Polynomial.zero(PLANE), X0**10, Fraction(1, 3) * X0 * X2 + X1]
    for order in (GREVLEX, LEX):
        assert normal_forms(fs, basis, order) == [normal_form(f, basis, order) for f in fs]
    assert normal_forms([], basis) == []


def test_normal_form_against_a_non_groebner_list_is_exact():
    f = Fraction(5, 7) * X0**3 * X1 - Fraction(1, 3) * X1**2 * X2**2 + X0 * X2**3
    divisors = [
        3 * X0 * X1 - Fraction(1, 2) * X2**2,
        2 * X0**2 - X1 * X2,
        Fraction(2, 5) * X1**2 - X0 * X2,
    ]
    expected = {
        "grevlex": [["1/6", [1, 0, 3]], ["5/84", [0, 1, 3]]],
        "lex": [["1/15", [0, 2, 2]], ["5/84", [0, 1, 3]]],
    }
    assert normal_form(f, divisors, GREVLEX).to_json_terms() == expected["grevlex"]
    assert normal_form(f, divisors, LEX).to_json_terms() == expected["lex"]


# Reduced bases of fixed ideals, the first three recorded before the engine
# moved to packed monomials, the last before pairs were taken by sugar (on
# that inhomogeneous grevlex input sugar and lcm degree order the pairs
# differently); reduced bases are canonical, so they must not change.
GREVLEX_BASIS = [
    [["1", [1, 1, 0]], ["1/3", [1, 0, 1]], ["-1/3", [0, 0, 2]]],
    [["1", [0, 3, 0]], ["-1/4", [1, 0, 2]]],
    [["1", [3, 0, 0]], ["-2", [0, 1, 2]]],
    [["1", [0, 2, 2]], ["2/63", [1, 0, 3]], ["11/21", [0, 1, 3]], ["-2/63", [0, 0, 4]]],
    [["1", [2, 0, 2]], ["4/21", [1, 0, 3]], ["8/7", [0, 1, 3]], ["-4/21", [0, 0, 4]]],
    [["1", [0, 1, 4]], ["676/1303", [0, 0, 5]]],
    [["1", [1, 0, 4]], ["1088/1303", [0, 0, 5]]],
    [["1", [0, 0, 6]]],
]
ELIM_BASIS = [
    [
        ["1", [0, 2, 0, 0]], ["-1/3", [1, 0, 1, 0]], ["5/9", [0, 1, 1, 0]],
        ["2/27", [0, 0, 2, 0]],
    ],
    [
        ["1", [1, 1, 3, 0]], ["-1/3", [1, 1, 0, 0]], ["-4/27", [1, 0, 1, 0]],
        ["-1/81", [0, 1, 1, 0]], ["-1/243", [0, 0, 2, 0]],
    ],
    [
        ["1", [2, 0, 3, 0]], ["-2/9", [1, 0, 4, 0]], ["-1/3", [2, 0, 0, 0]],
        ["-4/9", [1, 1, 0, 0]], ["-5/27", [1, 0, 1, 0]], ["-1/81", [0, 1, 1, 0]],
        ["-1/243", [0, 0, 2, 0]],
    ],
    [["1", [0, 0, 1, 1]], ["-1", [0, 1, 0, 0]], ["-1/3", [0, 0, 1, 0]]],
    [
        ["1", [0, 1, 0, 1]], ["-1/3", [1, 0, 0, 0]], ["2/9", [0, 1, 0, 0]],
        ["2/27", [0, 0, 1, 0]],
    ],
    [
        ["-3", [1, 1, 2, 0]], ["1", [1, 0, 0, 1]], ["1/9", [1, 0, 0, 0]],
        ["1/27", [0, 1, 0, 0]], ["1/81", [0, 0, 1, 0]],
    ],
    [["-1", [1, 1, 1, 0]], ["1", [0, 0, 0, 3]]],
]
LEX_BASIS = [
    [
        ["1", [0, 0, 8]], ["10", [0, 0, 6]], ["-6", [0, 0, 5]], ["-1", [0, 0, 4]],
        ["-30", [0, 0, 3]], ["7", [0, 0, 2]], ["30", [0, 0, 1]], ["9", [0, 0, 0]],
    ],
    [
        ["-5/24", [0, 0, 7]], ["1/8", [0, 0, 6]], ["-25/12", [0, 0, 5]],
        ["5/2", [0, 0, 4]], ["-13/24", [0, 0, 3]], ["25/4", [0, 0, 2]],
        ["1", [0, 1, 0]], ["-125/24", [0, 0, 1]], ["-17/4", [0, 0, 0]],
    ],
    [
        ["5/72", [0, 0, 7]], ["-1/24", [0, 0, 6]], ["25/36", [0, 0, 5]],
        ["-5/6", [0, 0, 4]], ["13/72", [0, 0, 3]], ["-29/12", [0, 0, 2]],
        ["1", [1, 0, 0]], ["125/72", [0, 0, 1]], ["17/12", [0, 0, 0]],
    ],
]

INHOMOGENEOUS_GREVLEX_BASIS = [
    [["1", [0, 0, 2, 0]], ["-1", [0, 1, 0, 1]], ["-2", [0, 0, 0, 0]]],
    [["1", [0, 1, 1, 0]], ["-1", [1, 0, 0, 0]]],
    [["1", [0, 2, 0, 1]], ["-1", [1, 0, 1, 0]], ["2", [0, 1, 0, 0]]],
    [["1", [2, 0, 0, 1]], ["-1/3", [0, 1, 0, 0]]],
    [["1", [3, 0, 1, 0]], ["-2", [2, 1, 0, 0]], ["-1/3", [0, 3, 0, 0]]],
    [["1", [4, 0, 0, 0]], ["-2", [2, 2, 0, 0]], ["-1/3", [0, 4, 0, 0]]],
]


def test_pinned_reduced_bases():
    half = Fraction(1, 2)
    a = [X0**3 - 2 * X1 * X2**2, 3 * X0 * X1 - X2**2 + X0 * X2, 2 * X1**3 - half * X0 * X2**2]
    block = VariableBlock(("x0", "x1", "x2", "t"))
    x0, x1, x2, t = variables(block)
    b = [x0 - t * x1 - 2 * t**2 * x2, x1 - t * x2 + Fraction(1, 3) * x2, t**3 - x0 * x1 * x2]
    c = [
        X0**2 + X1**2 + X2**2 - Polynomial.constant(PLANE, 1),
        X0 * X1 - half * X2,
        X1 - X2**2 + 3 * X0,
    ]
    quad = VariableBlock(("y0", "y1", "y2", "y3"))
    y0, y1, y2, y3 = variables(quad)
    two = Polynomial.constant(quad, 2)
    d = [y0 - y1 * y2, y1 * y3 - y2**2 + two, y0**2 * y3 - Fraction(1, 3) * y1]
    for gens, order, pinned in (
        (a, GREVLEX, GREVLEX_BASIS),
        (b, elimination_order(3), ELIM_BASIS),
        (c, LEX, LEX_BASIS),
        (d, GREVLEX, INHOMOGENEOUS_GREVLEX_BASIS),
    ):
        assert [g.to_json_terms() for g in groebner_basis(gens, order)] == pinned
