"""Ideal presentations and the operations built on elimination.

An IdealPresentation is a generator list plus its cached reduced grevlex
Groebner basis.  Since the reduced monic basis is canonical, ideal equality
is basis equality.  Elimination orders the eliminated block above grevlex on
the retained one, so the restriction of its reduced basis to the retained
block is the reduced grevlex basis of the elimination ideal.

The Hadamard product of ideals is computed from its definition: introduce
fresh blocks y, z, impose x_i = y_i * z_i together with I(y) and J(z), and
eliminate y and z.  The join uses x_i = y_i + z_i instead.  Both routes stay
independent of the closed formulas they are later checked against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import BlockMismatchError, DomainError, ParseError
from .groebner import _reduced_basis, groebner_basis, normal_form, normal_forms
from .poly import PLANE, Polynomial, VariableBlock, monomials_of_degree


class IdealPresentation:
    __slots__ = ("block", "generators", "_basis")

    def __init__(self, block: VariableBlock, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if g.block != block:
                raise BlockMismatchError("generator lives on a different block")
            if not g.is_zero:
                gens.append(g)
        self.block = block
        self.generators = tuple(gens)
        self._basis: tuple[Polynomial, ...] | None = None

    @classmethod
    def from_polys(cls, *gens: Polynomial) -> "IdealPresentation":
        if not gens:
            raise ValueError("need at least one generator to infer the block")
        return cls(gens[0].block, gens)

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        if self._basis is None:
            self._basis = groebner_basis(self.generators)
        return self._basis

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def max_generator_degree(self) -> int:
        return max((g.total_degree() for g in self.generators), default=-1)

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero:
            return True
        return normal_form(f, self.groebner_basis()).is_zero

    def contains_ideal(self, other: "IdealPresentation") -> bool:
        if self.block != other.block:
            raise BlockMismatchError("ideals live on different blocks")
        remainders = normal_forms(other.generators, self.groebner_basis())
        return all(rem.is_zero for rem in remainders)

    def __repr__(self) -> str:
        gens = "; ".join(g.to_string() for g in self.generators)
        return f"IdealPresentation(<{gens}>)"


def ideal_equal(a: IdealPresentation, b: IdealPresentation) -> bool:
    if a.block != b.block:
        raise BlockMismatchError("ideals live on different blocks")
    return a.groebner_basis() == b.groebner_basis()


def ideal_power(a: IdealPresentation, m: int) -> IdealPresentation:
    if m < 1:
        raise DomainError("ideal power wants a positive exponent")
    if m == 1:
        # I^1 = I: the same presentation, with its cached basis
        return a
    gens = []
    seen = set()
    for combo in itertools.combinations_with_replacement(a.generators, m):
        p = combo[0]
        for q in combo[1:]:
            p = p * q
        key = frozenset(p.terms.items())
        if key not in seen:
            seen.add(key)
            gens.append(p)
    return IdealPresentation(a.block, gens)


def _fresh_names(prefix: str, count: int, taken: Sequence[str]) -> tuple[str, ...]:
    stem = prefix
    while any(f"{stem}{i}" in taken for i in range(count)):
        stem = "_" + stem
    return tuple(f"{stem}{i}" for i in range(count))


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
    basis = _reduced_basis(gens, k, True)
    result = IdealPresentation(keep, basis)
    result._basis = basis
    return result


def ideal_intersection(
    a: IdealPresentation, b: IdealPresentation
) -> IdealPresentation:
    if a.block != b.block:
        raise BlockMismatchError("ideals live on different blocks")
    block = a.block
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    (t_name,) = _fresh_names("t_", 1, block.names)
    ext = block.extended([t_name])
    t = Polynomial.variable(ext, ext.arity - 1)
    one = Polynomial.constant(ext, 1)
    gens = [t * f.embed(ext, 0) for f in a.generators]
    gens += [(one - t) * g.embed(ext, 0) for g in b.generators]
    return eliminate(gens, block)


def _product_construction(
    a: IdealPresentation, b: IdealPresentation, hadamard: bool
) -> IdealPresentation:
    if a.block != b.block:
        raise BlockMismatchError("ideals live on different blocks")
    block = a.block
    n = block.arity
    y_names = _fresh_names("y", n, block.names)
    z_names = _fresh_names("z", n, block.names + y_names)
    ext = block.extended(y_names + z_names)
    gens = [f.embed(ext, n) for f in a.generators]
    gens += [g.embed(ext, 2 * n) for g in b.generators]
    for i in range(n):
        x = Polynomial.variable(ext, i)
        y = Polynomial.variable(ext, n + i)
        z = Polynomial.variable(ext, 2 * n + i)
        gens.append(x - y * z if hadamard else x - y - z)
    return eliminate(gens, block)


def hadamard_ideals(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    """Hadamard product: vanishing of coordinatewise products of the two loci."""
    return _product_construction(a, b, hadamard=True)


def join_ideals(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    """Join: vanishing of coordinatewise sums of the two loci."""
    return _product_construction(a, b, hadamard=False)


def hadamard_transform(f: Polynomial, point: Sequence) -> Polynomial:
    """Coefficientwise transform a_I -> a_I / P^I for a point off the
    coordinate lines (all coordinates nonzero); f must be homogeneous."""
    coords = [Fraction(c) for c in point]
    if len(coords) != f.block.arity:
        raise DomainError("point arity does not match the block")
    if any(c == 0 for c in coords):
        raise DomainError("Hadamard transform needs all point coordinates nonzero")
    if not f.is_homogeneous():
        raise DomainError("Hadamard transform is defined for homogeneous forms")
    return f.scale_variables([1 / c for c in coords])


def irrelevant_power(t: int, block: VariableBlock = PLANE) -> IdealPresentation:
    """The t-th power of the irrelevant maximal ideal, presented by the
    degree-t monomials."""
    if t < 1:
        raise DomainError("irrelevant power wants a positive exponent")
    gens = [Polynomial.monomial(block, e) for e in monomials_of_degree(block, t)]
    return IdealPresentation(block, gens)


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
