from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from hfg.fatgrid import abstract_grid
from hfg.invariants import (
    alpha_degree,
    alpha_tuple,
    beta_degree,
    corner_sets,
    generator_patterns,
    resolution,
    s_tuples,
)
from hfg.polycore import PLANE, Polynomial, monomials_of_degree
from hfg.projective import Point
from hfg.verify import vanishing_order

from conftest import is_totally_ordered

SUITE = settings(max_examples=200, deadline=None, derandomize=True, database=None)

any_points = st.tuples(
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
).filter(lambda c: any(x != 0 for x in c)).map(Point)

multiplicity_lists = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)

grids = st.builds(abstract_grid, multiplicity_lists, multiplicity_lists)


@st.composite
def homogeneous_polynomials(draw, max_degree=3):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    monomials = list(monomials_of_degree(PLANE, degree))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            min_size=len(monomials),
            max_size=len(monomials),
        ).filter(lambda cs: any(c != 0 for c in cs))
    )
    f = Polynomial.zero(PLANE)
    for c, exps in zip(coeffs, monomials):
        if c:
            f = f + c * Polynomial.monomial(PLANE, exps)
    return f


@SUITE
@given(grids)
def test_resolution_twists_give_the_scheme_degree(g):
    """The Hilbert-series numerator 1 - sum t^c + sum t^v of a
    zero-dimensional scheme, c the generator and v the syzygy twists, is
    (1 - t)^2 times a polynomial whose value at 1 is the degree: its first
    derivative at 1 vanishes and its second is twice the degree."""
    shifts = resolution(g)
    c, v = shifts.generator_twists, shifts.syzygy_twists
    assert sum(v) == sum(c)
    assert sum(x * x for x in v) - sum(x * x for x in c) == 2 * g.scheme_degree()


@SUITE
@given(homogeneous_polynomials(max_degree=2), homogeneous_polynomials(max_degree=2), any_points)
def test_vanishing_order_is_additive(f, g, p):
    assert vanishing_order(f * g, p) == vanishing_order(f, p) + vanishing_order(g, p)


@SUITE
@given(grids)
def test_alpha_tuple_bookkeeping(g):
    entries = alpha_tuple(g).entries
    assert sum(entries) == sum(
        m * (m + 1) // 2 for row in g.mult for m in row
    )
    n_top = g.col_multiplicities[-1]
    assert len(entries) == sum(m + n_top - 1 for m in g.row_multiplicities)
    assert all(a >= b for a, b in zip(entries, entries[1:]))


@SUITE
@given(grids)
def test_generator_count_and_extreme_degrees(g):
    patterns = generator_patterns(g)
    assert len(patterns) == g.row_multiplicities[-1] + g.col_multiplicities[-1]
    degrees = [p.degree for p in patterns]
    assert min(degrees) == alpha_degree(g)
    assert max(degrees) == beta_degree(g)


@SUITE
@given(grids)
def test_corner_sets_shape(g):
    a = alpha_tuple(g)
    cs = corner_sets(a)
    assert len(cs.V) == len(cs.C) - 1
    assert (len(a.entries), 0) in cs.C
    assert (0, a.entries[0]) in cs.C
    assert (len(a.entries), a.entries[-1]) in cs.V


@SUITE
@given(grids)
def test_s_tuples_always_totally_ordered(g):
    assert is_totally_ordered(s_tuples(g))
