"""Ideal presentations and the operations built on elimination.

An IdealPresentation is a generator list plus its cached reduced grevlex
Groebner basis, both kept in the engine's packed integer form: generators
given as Polynomials are packed at construction, and Polynomials are built
only when `generators` or `groebner_basis()` is read.
Since the reduced basis is canonical, ideal equality is basis equality.
Elimination orders the eliminated block above grevlex on the retained one,
so the restriction of its reduced basis to the retained block is the
reduced grevlex basis of the elimination ideal.

The Hadamard product of ideals is computed from its definition: introduce
fresh blocks y, z, impose x_i = y_i * z_i together with I(y) and J(z), and
eliminate y and z.  The join uses x_i = y_i + z_i instead.  Both routes stay
independent of the closed formulas they are later checked against.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from ..errors import BlockMismatchError, DomainError, ParseError
from .groebner import (
    IntPoly,
    Packed,
    _all_reduce_to_zero,
    _common_block,
    _common_packing,
    _eliminated,
    _monic,
    _moved,
    _packing,
    _Packing,
    _polys_on,
    _polys_packed,
    _primitive,
    _top,
    _width,
)
from .poly import PLANE, Exponents, Polynomial, VariableBlock, monomials_of_degree


class IdealPresentation:
    """An ideal of the polynomial ring on `block`, by generators.

    The generators are held as packed engine rows from construction.  The
    Polynomials an ideal is given are kept to answer `generators`; an ideal
    built by the engine or by `ideal_power` builds them when first read.
    The reduced basis is kept in packed form once known; the engine's
    results know it from the start.
    """

    __slots__ = ("block", "_gens", "_basis", "_gen_rows", "_basis_rows")

    def __init__(self, block: VariableBlock, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if g.block != block:
                raise BlockMismatchError("generator lives on a different block")
            if not g.is_zero:
                gens.append(g)
        self.block = block
        self._gens: tuple[Polynomial, ...] | None = tuple(gens)
        self._basis: tuple[Polynomial, ...] | None = None
        self._gen_rows: Packed = _polys_packed(gens, block.arity)
        self._basis_rows: Packed | None = None

    @classmethod
    def from_polys(cls, *gens: Polynomial) -> "IdealPresentation":
        if not gens:
            raise ValueError("need at least one generator to infer the block")
        return cls(gens[0].block, gens)

    @classmethod
    def _from_rows(
        cls, block: VariableBlock, rows: Packed, basis: bool
    ) -> "IdealPresentation":
        """The ideal of nonzero primitive rows in the block's variables; with
        `basis`, the rows are its reduced basis."""
        ideal = cls.__new__(cls)
        ideal.block = block
        ideal._gens = ideal._basis = None
        ideal._gen_rows = rows
        ideal._basis_rows = rows if basis else None
        return ideal

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        if self._gens is None:
            if self._gen_rows is self._basis_rows:
                self._gens = self.groebner_basis()
            else:
                self._gens = _monic(self._gen_rows, self.block)
        return self._gens

    def _reduced_rows(self) -> Packed:
        if self._basis_rows is None:
            gens = self._gen_rows
            self._basis_rows = _eliminated(
                lambda pk: _moved(gens, pk),
                self.max_generator_degree(),
                0,
                self.block.arity,
                False,
            )
        return self._basis_rows

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        if self._basis is None:
            self._basis = _monic(self._reduced_rows(), self.block)
        return self._basis

    def leading_exponents(self) -> list[Exponents]:
        """The exponents of the reduced grevlex basis's leading monomials,
        read off the packed rows; the engine's fields past the block are 0."""
        pk, rows = self._reduced_rows()
        return [pk.unpack(max(row))[: self.block.arity] for row in rows]

    @property
    def is_zero(self) -> bool:
        return not self._gen_rows[1]

    def max_generator_degree(self) -> int:
        # on the block's variables every packing orders by degree first, so
        # a leading monomial has its row's top degree
        pk, rows = self._gen_rows
        return max((pk.degree(pk.exps(max(row))) for row in rows), default=-1)

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero:
            return True
        if f.block != self.block:
            raise BlockMismatchError("polynomial lives on a different block")
        return self.contains_ideal(IdealPresentation(self.block, (f,)))

    def contains_ideal(self, other: "IdealPresentation") -> bool:
        if self.block != other.block:
            raise BlockMismatchError("ideals live on different blocks")
        pk, (basis, gens) = _common_packing(
            self.block.arity, self._reduced_rows(), other._gen_rows
        )
        return _all_reduce_to_zero(gens, basis, pk)

    def __repr__(self) -> str:
        gens = "; ".join(g.to_string() for g in self.generators)
        return f"IdealPresentation(<{gens}>)"


def ideal_equal(a: IdealPresentation, b: IdealPresentation) -> bool:
    if a.block != b.block:
        raise BlockMismatchError("ideals live on different blocks")
    # reduced bases of primitive rows are canonical, like the monic ones
    _, (ra, rb) = _common_packing(a.block.arity, a._reduced_rows(), b._reduced_rows())
    return ra == rb


def ideal_power(a: IdealPresentation, m: int) -> IdealPresentation:
    if m < 1:
        raise DomainError("ideal power wants a positive exponent")
    if m == 1:
        # I^1 = I: the same presentation, with its cached basis
        return a
    src = a._gen_rows
    # products of primitive rows are primitive, with positive leading
    # coefficient; the width is the one the engine picks for their degree
    width = _width(m * max(a.max_generator_degree(), 0))
    pk = src[0] if src[0].width == width else _packing(0, a.block.arity, width)
    rows = _moved(src, pk)
    gens = []
    seen = set()
    for combo in itertools.combinations_with_replacement(rows, m):
        p = combo[0]
        for q in combo[1:]:
            p = _row_product(p, q)
        key = frozenset(p.items())
        if key not in seen:
            seen.add(key)
            gens.append(p)
    return IdealPresentation._from_rows(a.block, (pk, gens), False)


def _row_product(f: IntPoly, g: IntPoly) -> IntPoly:
    """Product of two packed rows: keys add as their monomials multiply."""
    out: IntPoly = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def eliminate(
    gens: Sequence[Polynomial], keep: VariableBlock
) -> IdealPresentation:
    """Intersect the ideal generated by `gens` with the subring on `keep`.

    `keep` must be the leading segment of the generators' block.  The result
    carries its reduced grevlex basis precomputed.
    """
    if not gens:
        return IdealPresentation(keep, ())
    ext = gens[0].block
    k = keep.arity
    if ext.names[:k] != keep.names:
        raise BlockMismatchError("kept block is not the leading segment")
    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        return IdealPresentation(keep, ())
    _common_block(nonzero)
    packed = _eliminated(
        lambda pk: _polys_on(nonzero, pk), _top(nonzero), k, ext.arity, True
    )
    return IdealPresentation._from_rows(keep, packed, True)


def ideal_intersection(
    a: IdealPresentation, b: IdealPresentation
) -> IdealPresentation:
    """I meet J, eliminating t from t*I + (1 - t)*J.

    The inputs are built packed: t sits alone in the upper segment of the
    elimination order, so multiplying by t adds its key to every key.
    """
    if a.block != b.block:
        raise BlockMismatchError("ideals live on different blocks")
    block = a.block
    if a.is_zero or b.is_zero:
        # (0) meet J is (0)
        return IdealPresentation(block, ())
    n = block.arity
    ga, gb = a._gen_rows, b._gen_rows
    top = 1 + max(a.max_generator_degree(), b.max_generator_degree())

    def inputs(pk: _Packing) -> list[IntPoly]:
        t = pk.units[n]
        rows = [{k + t: c for k, c in f.items()} for f in _moved(ga, pk)]
        # (t - 1)*g: the generator (1 - t)*g with positive leading coefficient
        for g in _moved(gb, pk):
            tg = {k + t: c for k, c in g.items()}
            tg.update((k, -c) for k, c in g.items())
            rows.append(tg)
        return rows

    packed = _eliminated(inputs, top, n, n + 1, True)
    return IdealPresentation._from_rows(block, packed, True)


def _product_construction(
    a: IdealPresentation, b: IdealPresentation, hadamard: bool
) -> IdealPresentation:
    """Eliminate y and z from I(y) + J(z) + (x_i - y_i*z_i) (Hadamard) or
    + (x_i - y_i - z_i) (join), built packed: I's rows move to the y fields
    and J's to the z fields."""
    if a.block != b.block:
        raise BlockMismatchError("ideals live on different blocks")
    block = a.block
    n = block.arity
    ga, gb = a._gen_rows, b._gen_rows
    top = max(a.max_generator_degree(), b.max_generator_degree(), 2 if hadamard else 1)

    def inputs(pk: _Packing) -> list[IntPoly]:
        rows = _moved(ga, pk, n) + _moved(gb, pk, 2 * n)
        for x, y, z in zip(pk.units, pk.units[n:], pk.units[2 * n :]):
            # leading term first: the y, z block is above x
            rows.append({y + z: 1, x: -1} if hadamard else {y: 1, z: 1, x: -1})
        return rows

    packed = _eliminated(inputs, top, n, 3 * n, True)
    return IdealPresentation._from_rows(block, packed, True)


def hadamard_ideals(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    """Hadamard product: vanishing of coordinatewise products of the two loci."""
    return _product_construction(a, b, hadamard=True)


def join_ideals(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    """Join: vanishing of coordinatewise sums of the two loci."""
    return _product_construction(a, b, hadamard=False)


def irrelevant_power(t: int) -> IdealPresentation:
    """The t-th power of the irrelevant maximal ideal of the plane,
    presented by the degree-t monomials."""
    if t < 1:
        raise DomainError("irrelevant power wants a positive exponent")
    pk = _packing(0, PLANE.arity, _width(t))
    rows = [{pk.pack(e): 1} for e in monomials_of_degree(PLANE, t)]
    return IdealPresentation._from_rows(PLANE, (pk, rows), False)


def linear_ideal(
    block: VariableBlock, forms: Iterable[Sequence[int]]
) -> IdealPresentation:
    """The ideal of the linear forms with these integer coefficient vectors."""
    n = block.arity
    pk = _packing(0, n, _width(1))
    rows = []
    for form in forms:
        if len(form) != n or not all(type(c) is int for c in form):
            raise ValueError("a form needs one integer coefficient per variable")
        row = {k: c for k, c in zip(pk.units, form) if c}
        if row:
            rows.append(_primitive(row))
    return IdealPresentation._from_rows(block, (pk, rows), False)


def ideal_to_json(a: IdealPresentation) -> dict:
    return {
        "vars": list(a.block.names),
        "gens": [g.to_json_terms() for g in a.generators],
    }


def ideal_from_json(data: dict) -> IdealPresentation:
    if not isinstance(data, dict) or "vars" not in data or "gens" not in data:
        raise ParseError("ideal JSON needs 'vars' and 'gens'")
    names = data["vars"]
    if (
        not isinstance(names, list)
        or not names
        or not all(isinstance(n, str) for n in names)
        or len(set(names)) != len(names)
    ):
        raise ParseError("'vars' must be a nonempty list of distinct names")
    if not isinstance(data["gens"], list):
        raise ParseError("'gens' must be a list of polynomials")
    block = VariableBlock(tuple(names))
    gens = [Polynomial.from_json_terms(block, g) for g in data["gens"]]
    return IdealPresentation(block, gens)
