from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfg.errors import BlockMismatchError
from hfg.polycore import (
    PLANE,
    Polynomial,
    VariableBlock,
    eliminate,
    groebner_basis,
    irrelevant_power,
    normal_form,
    variables,
)
from hfg.polycore import groebner, hadamard_ideals, ideal_power
from hfg.polycore.groebner import (
    _Packing,
    _reduce,
    _reduced_basis,
    _Row,
    _primitive,
    _to_int_poly,
)
from hfg.projective import Point, point_ideal

X0, X1, X2 = variables(PLANE)


def test_already_reduced_basis_is_returned_as_is():
    assert set(groebner_basis([X0, X1])) == {X0, X1}


def test_single_s_polynomial_reduction():
    basis = set(groebner_basis([X0 - X1, X1 - X2]))
    assert basis == {X0 - X2, X1 - X2}


def test_monomial_ideal_is_its_own_basis():
    gens = [X1 * X1, X1 * X2, X2 * X2]
    assert set(groebner_basis(gens)) == set(gens)


def test_generators_reduce_to_zero_against_basis():
    gens = [X0 * X0 - X1 * X2, X0 * X1 - X2 * X2, X0 * X2 - X1 * X1]
    basis = groebner_basis(gens)
    for g in gens:
        assert normal_form(g, basis).is_zero


def test_basis_is_reduced_and_monic():
    basis = groebner_basis([2 * X0 - 2 * X1, 3 * X1 - 3 * X2])
    for f in basis:
        assert f.terms[max(f.terms, key=_grevlex_key)] == 1
        lead_monomials = [max(g.terms, key=_grevlex_key) for g in basis if g is not f]
        for exps in f.terms:
            assert not any(
                all(e >= l for e, l in zip(exps, lead))
                for lead in lead_monomials
            )


def test_basis_is_canonical_under_recomputation_and_permutation():
    gens = [X0 * X0 - X1 * X2, X0 * X1 - X2 * X2]
    first = groebner_basis(gens)
    second = groebner_basis(list(reversed(gens)))
    assert set(first) == set(second)


def test_normal_form_examples():
    assert normal_form(X0 * X0, [X0]).is_zero
    assert normal_form(X1 + X2, [X0]) == X1 + X2


def test_mixed_blocks_rejected():
    other = VariableBlock(("y0", "y1"))
    q = Polynomial.from_string(other, "y0")
    with pytest.raises(BlockMismatchError):
        groebner_basis([X0, q])


def test_elimination_order_dominates_on_tail_variables():
    # x0, x1, x2 in front and t on top: t is above every monomial in x alone
    pk = _Packing(3, 4, 8)
    t = pk.pack((0, 0, 0, 1))
    front = [e + (0,) for e in itertools.product(range(6), repeat=3) if sum(e) <= 5]
    assert all(pk.pack(e) < t for e in front)


def test_irrelevant_power_basis_is_itself():
    m2 = irrelevant_power(2)
    assert set(m2.groebner_basis()) == set(m2.generators)


# -- the packed-monomial engine ---------------------------------------------


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _order_key(front):
    """Tuple-key reference for the order _Packing(front, ...) packs: grevlex,
    or for front > 0 the tail block by grevlex first, then the front block."""
    if not front:
        return _grevlex_key
    return lambda exps: (_grevlex_key(exps[front:]), _grevlex_key(exps[:front]))


FRONTS = pytest.mark.parametrize("front", [0, 2], ids=["grevlex", "elim2"])


@FRONTS
@pytest.mark.parametrize("width", [4, 8])
def test_packed_key_sorts_like_the_order_key(front, width):
    monomials = [
        e for e in itertools.product(range(5), repeat=4) if sum(e) <= 4
    ]
    pk = _Packing(front, 4, width)
    packed = {e: pk.pack(e) for e in monomials}
    assert sorted(monomials, key=packed.get) == sorted(monomials, key=_order_key(front))
    for e, k in packed.items():
        assert pk.unpack(k) == e


@FRONTS
def test_packed_divisibility_lcm_and_product(front):
    monomials = [e for e in itertools.product(range(3), repeat=4) if sum(e) <= 3]
    pk = _Packing(front, 4, 4)
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
    assert groebner_basis([big, X1**2]) == (X1**2, big)
    assert normal_form(X0**40001 * X1, [big]).is_zero
    assert normal_form(X0**40001 + X1, [big]) == X0**40001 + X1


XT = VariableBlock(("x0", "x1", "t"))


def _spy_widths(monkeypatch):
    """Record the field width of every packing the engine asks for."""
    widths = []

    def spy(front, nvars, width):
        widths.append(width)
        return _Packing(front, nvars, width)

    monkeypatch.setattr(groebner, "_packing", spy)
    return widths


def test_widening_when_a_remainder_outgrows_the_input_degree(monkeypatch):
    # with t on top, t -> x0^100 drives the degree far past the input's
    x0, x1, t = variables(XT)
    widths = _spy_widths(monkeypatch)
    basis = _reduced_basis([t - x0**100, t**10 - x1], 2)
    assert basis == (x0**1000 - x1, t - x0**100)
    assert widths == [10, 20]
    widths.clear()
    keep = VariableBlock(XT.names[:2])
    y0, y1 = variables(keep)
    assert eliminate([t - x0**100, t**10 - x1], keep).generators == (y0**1000 - y1,)
    assert widths == [10, 20]


def test_normal_form_divides_by_the_first_divisor_in_list_order():
    half = Fraction(1, 2)
    assert normal_form(3 * X0**2, [X0 - half * X1, X0 - X2]) == Fraction(3, 4) * X1**2
    assert normal_form(3 * X0**2, [X0 - X2, X0 - half * X1]) == 3 * X2**2


@pytest.mark.parametrize(
    "f, remainder",
    [
        (X1 * X2**2, Fraction(1, 2) * X0 * X2),
        (Polynomial.zero(PLANE), Polynomial.zero(PLANE)),
        # grevlex leads with x1**100, so x0**10 meets no divisor
        (X0**10, X0**10),
        (Fraction(1, 3) * X0 * X2 + X1, Fraction(1, 3) * X0 * X2 + X1),
    ],
)
def test_normal_form_remainders_against_a_fixed_list(f, remainder):
    assert normal_form(f, [X0 - X1**100, 2 * X1 * X2 - X0]) == remainder


def test_a_widened_run_ends_where_a_wide_one_does(monkeypatch):
    # t**10 forces the block-order run to widen mid-way, which restarts every
    # reduction from the input; it ends where a run wide from the start does
    x0, x1, t = variables(XT)
    gens = [t - x0**100, 2 * x1 * t - x0, t**10 - x1]
    widths = _spy_widths(monkeypatch)
    widened = _reduced_basis(gens, 2)
    assert widths == [10, 20]
    monkeypatch.setattr(groebner, "_packing", lambda front, n, width: _Packing(front, n, 64))
    assert _reduced_basis(gens, 2) == widened


def test_normal_form_against_a_non_groebner_list_is_exact():
    f = Fraction(5, 7) * X0**3 * X1 - Fraction(1, 3) * X1**2 * X2**2 + X0 * X2**3
    divisors = [
        3 * X0 * X1 - Fraction(1, 2) * X2**2,
        2 * X0**2 - X1 * X2,
        Fraction(2, 5) * X1**2 - X0 * X2,
    ]
    expected = [["1/6", [1, 0, 3]], ["5/84", [0, 1, 3]]]
    assert normal_form(f, divisors).to_json_terms() == expected


# Reduced bases of fixed ideals, the first two recorded before the engine
# moved to packed monomials, the last before pairs were taken by sugar (on
# that inhomogeneous grevlex input sugar and lcm degree order the pairs
# differently); reduced bases are canonical, so they must not change.  The
# elimination basis is the full one under the block order, no row dropped.
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
    quad = VariableBlock(("y0", "y1", "y2", "y3"))
    y0, y1, y2, y3 = variables(quad)
    two = Polynomial.constant(quad, 2)
    d = [y0 - y1 * y2, y1 * y3 - y2**2 + two, y0**2 * y3 - Fraction(1, 3) * y1]
    for gens, pinned in ((a, GREVLEX_BASIS), (d, INHOMOGENEOUS_GREVLEX_BASIS)):
        assert [g.to_json_terms() for g in groebner_basis(gens)] == pinned
    assert [g.to_json_terms() for g in _reduced_basis(b, 3)] == ELIM_BASIS


# -- the first-divisor memo of _reduce ----------------------------------------

_INT_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4),
    st.integers(-6, 6).filter(bool),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    front=st.sampled_from([0, 2]),
    batches=st.lists(st.lists(_INT_POLYS, max_size=3), min_size=1, max_size=4),
    fs=st.lists(_INT_POLYS, min_size=1, max_size=4),
)
def test_a_shared_memo_reduces_like_a_fresh_one(front, batches, fs):
    # rows are appended between calls, as Buchberger appends to its basis
    pk = _Packing(front, 4, 16)
    fs = [{pk.pack(e): c for e, c in f.items()} for f in fs]
    rows: list[_Row] = []
    memo: dict[int, int] = {}
    for batch in batches:
        rows += [_Row(_primitive({pk.pack(e): c for e, c in g.items()}), pk) for g in batch]
        for f in fs:
            assert _reduce(f, rows, pk, memo) == _reduce(f, rows, pk, {})


def test_a_memo_hit_on_a_row_with_positive_reach():
    # under the block order t - x0**100 has leading monomial t and reach 99;
    # the first term popped from t + 3*x1 is then a memo hit, so no exponent
    # of it is ever unpacked and no overflow check runs on it
    x0, x1, t = variables(XT)
    pk = _Packing(2, 3, 10)
    row = _Row(_to_int_poly(t - x0**100, pk)[0], pk)
    assert row.reach == 99
    memo: dict[int, int] = {}
    rem, scale = _reduce({pk.pack((0, 0, 1)): 1}, [row], pk, memo)
    assert (rem, scale) == ({pk.pack((100, 0, 0)): 1}, 1)
    assert memo[pk.pack((0, 0, 1))] == 0
    f = _to_int_poly(t + 3 * x1, pk)[0]
    assert _reduce(f, [row], pk, memo) == _reduce(f, [row], pk, {})
    assert _reduce(f, [row], pk, memo) == ({pk.pack((100, 0, 0)): 1, pk.pack((0, 1, 0)): 3}, 1)


def test_s_polynomial_count_of_a_hadamard_elimination(monkeypatch):
    # the pairs reduced and their order are pinned by how many there are
    count = 0
    spoly = groebner._spoly

    def counted(*args):
        nonlocal count
        count += 1
        return spoly(*args)

    monkeypatch.setattr(groebner, "_spoly", counted)
    P, Q = Point.from_string("-1:2:-1"), Point.from_string("-4:2:1")
    hadamard_ideals(ideal_power(point_ideal(P), 2), ideal_power(point_ideal(Q), 3))
    assert count == 633
