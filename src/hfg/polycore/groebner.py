"""Buchberger's algorithm with Gebauer-Moeller pair handling.

The engine runs on content-free integer polynomials with positive leading
coefficient, which keeps the inner loop in machine-int / bigint arithmetic.
`hfg.polycore.ideals` hands it such rows directly and keeps its results in
that form (`Packed`), so Polynomials are built only where they are read.
Three adapters take lists of Polynomial (Fraction coefficients) instead:
`groebner_basis`, `normal_form` and `_reduced_basis`, the basis under an
elimination order.
Monomials are packed into ints (see _Packing), so multiplying
monomials is an integer add, comparing them is an integer compare and
testing divisibility is a mask test.  The monomial order is grevlex;
`_eliminated` can put a tail block of variables above it.  Pairs are
selected by lowest sugar (Giovini, Mora, Niesi, Robbiano and Traverso, "One
sugar cube, please", ISSAC 1991), ties broken by the monomial order of the
lcm and then by pair index, so runs are deterministic.  The sugar of an
input is its total degree and that of an S-polynomial is the degree its lcm
would have if both rows were homogenised, so on homogeneous grevlex input it
is the lcm degree.  The returned basis is the reduced monic basis, sorted by
leading monomial, and is therefore a canonical form of the ideal.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import lshift
from typing import Callable, Sequence

from ..errors import BlockMismatchError
from .poly import Exponents, Polynomial, VariableBlock

# An integer polynomial maps the packed order key K of each monomial to its
# coefficient.
IntPoly = dict[int, int]


class _Overflow(Exception):
    """A monomial about to be formed does not fit the current field width."""


class _Packing:
    """Monomials of one arity packed into ints, `width` bits a field.

    Field p, counted from the low end, belongs to variable p in both ints.
    The top bit of every field is a guard bit, so every monomial the engine
    forms must have total degree below cap = 2**(width - 1); that bounds
    every field of both ints.

    E holds the exponents.  b divides a exactly when (Ea - Eb) & guard == 0,
    since a field with a_i < b_i borrows into its own guard bit.

    K, the order key, holds in field p the sum of the exponents from the
    start of p's segment up to p.  With front = 0 there is one segment, so
    the top field is the degree and K orders by grevlex.  With 0 < front <
    nvars the variables from `front` on form an upper segment: K compares
    the tail block by grevlex first, then the front block, so any monomial
    in a tail variable dominates every monomial in the front block alone
    (the elimination property).  Each field is linear in the exponents, so
    K(a*b) = K(a) + K(b), and comparing two K as ints compares the
    monomials in the order.  K determines E.
    """

    def __init__(self, front: int, nvars: int, width: int):
        starts = [0, front] if 0 < front < nvars else [0]
        field = (1 << width) - 1
        self.graded = len(starts) == 1
        # where the first segment ends
        self.lead = nvars if self.graded else front
        self.width = width
        self.cap = 1 << (width - 1)
        self.guard = sum(1 << (p * width + width - 1) for p in range(nvars))
        self._field = field
        self._shifts = tuple(p * width for p in range(nvars))
        self._top = (nvars - 1) * width
        self._ones = sum(1 << (p * width) for p in range(nvars))
        self._inner = sum(field << (p * width) for p in range(nvars) if p not in starts)
        bounds = starts + [nvars]
        self._segments = [
            (
                sum(field << (p * width) for p in range(a, b)),
                sum(1 << (k * width) for k in range(b - a)),
            )
            for a, b in zip(bounds, bounds[1:])
        ]
        # K of each variable
        self.units = tuple(self.key(1 << s) for s in self._shifts)

    def exps(self, k: int) -> int:
        """E of the monomial with key K."""
        return k - ((k << self.width) & self._inner)

    def key(self, e: int) -> int:
        """K of the monomial with exponents E (prefix sums per segment)."""
        k = 0
        for mask, ones in self._segments:
            k |= ((e & mask) * ones) & mask
        return k

    def degree(self, e: int) -> int:
        """Total degree; exact while it is below 2**width."""
        return ((e * self._ones) >> self._top) & self._field

    def lcm(self, a: int, b: int) -> int:
        """Per-field max of two E values."""
        w1 = self.width - 1
        ge = ((a | self.guard) - b) & self.guard
        low = ge - (ge >> w1)
        return b ^ ((a ^ b) & low)

    def pack(self, exps: Exponents) -> int:
        return self.key(sum(map(lshift, exps, self._shifts)))

    def unpack(self, k: int) -> Exponents:
        e = self.exps(k)
        field = self._field
        return tuple((e >> s) & field for s in self._shifts)


@lru_cache(maxsize=32)
def _packing(front: int, nvars: int, width: int) -> _Packing:
    """Packings are immutable, and calls on the same block repeat them."""
    return _Packing(front, nvars, width)


class _Row:
    """A reducer: integer polynomial with its leading data unpacked once.

    `reach` bounds how far a term's degree exceeds the leading monomial's.
    Under grevlex (one segment) it is never positive, and products of a
    reducer need no overflow check.  `sugar` orders the pairs the row takes
    part in; it defaults to the total degree.
    """

    __slots__ = ("terms", "lm", "lc", "e", "tail", "reach", "sugar")

    def __init__(self, terms: IntPoly, pk: _Packing, sugar: int | None = None):
        self.terms = terms
        self.lm = max(terms)
        self.lc = terms[self.lm]
        self.e = pk.exps(self.lm)
        self.tail = [(k, c) for k, c in terms.items() if k != self.lm]
        self.reach = 0
        if not pk.graded:
            top = max((pk.degree(pk.exps(k)) for k, _ in self.tail), default=0)
            self.reach = top - pk.degree(self.e)
        if sugar is None:
            sugar = pk.degree(self.e) + max(self.reach, 0)
        self.sugar = sugar


def _content(p: IntPoly) -> int:
    g = 0
    for c in p.values():
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _primitive(p: IntPoly) -> IntPoly:
    """Divide out the content and make the leading coefficient positive."""
    if not p:
        return p
    g = _content(p)
    if p[max(p)] < 0:
        g = -g
    if g != 1:
        p = {k: c // g for k, c in p.items()}
    return p


def _to_int_poly(p: Polynomial, pk: _Packing) -> tuple[IntPoly, int]:
    """Integer numerators, packed, and common denominator of p."""
    den, terms = p.integer_terms()
    return {pk.pack(e): c for e, c in terms}, den


def _from_int_poly(
    terms: IntPoly, den: int, block: VariableBlock, pk: _Packing
) -> Polynomial:
    """The polynomial terms / den on `block`, whose variables are the first
    of the packing's; the fields past them must be zero."""
    n = block.arity
    return Polynomial._trusted(
        block, {pk.unpack(k)[:n]: Fraction(c, den) for k, c in terms.items()}
    )


def _reduce(
    f: IntPoly, rows: Sequence[_Row], pk: _Packing, memo: dict[int, int]
) -> tuple[IntPoly, int]:
    """Full normal form of f, fraction-free, dividing by the first reducer.

    Returns (rem, scale) with rem = scale * (the rational remainder of f).
    `memo` maps a key K to the index of its first dividing row, or, when
    no row divides it, to ~len(rows) at the time.  Calls may share a memo
    as long as `rows` only grows between them.
    """
    guard, cap = pk.guard, pk.cap
    n = len(rows)
    rem: IntPoly = {}
    work = dict(f)
    scale = 1
    while work:
        m = max(work)
        c = work.pop(m)
        idx = memo.get(m, -1)
        if idx < 0:
            # not seen, or seen with no divisor: scan the rows appended since
            em = pk.exps(m)
            for idx in range(~idx, n):
                if not (em - rows[idx].e) & guard:
                    break
            else:
                memo[m] = ~n
                rem[m] = c
                continue
            row = rows[idx]
            if row.reach > 0 and pk.degree(em) + row.reach >= cap:
                raise _Overflow
            memo[m] = idx
        else:
            # the overflow check passed for this monomial and row when stored
            row = rows[idx]
        d = gcd(c, row.lc)
        a = row.lc // d
        b = c // d
        if a != 1:
            scale *= a
            for k in work:
                work[k] *= a
            for k in rem:
                rem[k] *= a
        q = m - row.lm
        for k, gc in row.tail:
            k += q
            nv = work.get(k, 0) - b * gc
            if nv:
                work[k] = nv
            else:
                del work[k]
    return rem, scale


# a pair is (sugar, K of lcm, i, j, E of lcm); as i, j differ between pairs,
# tuple order is the selection order
_Pair = tuple[int, int, int, int, int]


def _spoly(r1: _Row, r2: _Row, pair: _Pair, pk: _Packing) -> IntPoly:
    kl = pair[1]
    if pk.degree(pair[4]) + max(r1.reach, r2.reach) >= pk.cap:
        raise _Overflow
    u = kl - r1.lm
    v = kl - r2.lm
    d = gcd(r1.lc, r2.lc)
    a = r2.lc // d
    b = r1.lc // d
    res: IntPoly = {k + u: c * a for k, c in r1.tail}
    for k, c in r2.tail:
        k += v
        nv = res.get(k, 0) - c * b
        if nv:
            res[k] = nv
        else:
            del res[k]
    return res


def _update(G: list[_Row], P: list[_Pair], row: _Row, pk: _Packing) -> list[_Pair]:
    """Gebauer-Moeller update of the pair set when appending `row` to G."""
    guard, w1 = pk.guard, pk.width - 1
    ones, top, field = pk._ones, pk._top, pk._field
    t = len(G)
    ef = row.e
    # the new row's lcm with each row, the per-field max of _Packing.lcm
    lcms = []
    for r in G:
        ge = ((ef | guard) - r.e) & guard
        lcms.append(r.e ^ ((ef ^ r.e) & (ge - (ge >> w1))))
    # chain criterion: the new element makes a pair redundant unless one of
    # its own pairs has the same lcm
    kept = [
        pair
        for pair in P
        if (pair[4] - ef) & guard or lcms[pair[2]] == pair[4] or lcms[pair[3]] == pair[4]
    ]
    # each lcm's lowest index, or None once a row in its group has a
    # leading monomial coprime to the new one (product criterion: such
    # pairs reduce to zero)
    first: dict[int, int | None] = {}
    for i, el in enumerate(lcms):
        if G[i].e + ef == el:
            first[el] = None
        else:
            first.setdefault(el, i)
    # keep the lcms no other lcm properly divides.  E as an int is a lex
    # order, so a proper divisor comes first, and by transitivity testing
    # against the minimal ones found so far suffices.
    minimal: list[int] = []
    for el in sorted(first):
        for m in minimal:
            if not (el - m) & guard:
                break
        else:
            minimal.append(el)
    excess = row.sugar - (((ef * ones) >> top) & field)
    for el in minimal:
        i = first[el]
        if i is None:
            continue
        deg = ((el * ones) >> top) & field
        if deg >= pk.cap:
            raise _Overflow
        r = G[i]
        sugar = max(r.sugar - (((r.e * ones) >> top) & field), excess) + deg
        kept.append((sugar, pk.key(el), i, t, el))
    G.append(row)
    heapq.heapify(kept)
    return kept


def _interreduce(G: list[_Row], pk: _Packing) -> list[_Row]:
    guard = pk.guard
    rows = sorted(G, key=lambda r: r.lm)
    minimal: list[_Row] = []
    for r in rows:
        if all((r.e - m.e) & guard for m in minimal):
            minimal.append(r)
    final: list[_Row] = []
    for idx, r in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        red, _ = _reduce(r.terms, others, pk, {})
        final.append(_Row(_primitive(red), pk))
    final.sort(key=lambda r: r.lm)
    return final


def _buchberger(polys: list[IntPoly], pk: _Packing) -> list[_Row]:
    G: list[_Row] = []
    P: list[_Pair] = []
    # G only grows, so one first-divisor memo serves every reduction
    memo: dict[int, int] = {}
    for f in polys:
        r = _primitive(_reduce(f, G, pk, memo)[0])
        if r:
            P = _update(G, P, _Row(r, pk), pk)
    while P:
        pair = heapq.heappop(P)
        s = _spoly(G[pair[2]], G[pair[3]], pair, pk)
        r = _primitive(_reduce(s, G, pk, memo)[0])
        if r:
            P = _update(G, P, _Row(r, pk, pair[0]), pk)
    return G


def _width(top: int) -> int:
    """First field width for input of total degree `top`: it leaves room for
    lcm degrees well past the input degree."""
    return max(8, (4 * top).bit_length() + 1)


# Rows on the packing they belong to: an ideal's generators or its reduced
# basis in the engine's form, all in the packing's first variables.
Packed = tuple[_Packing, list[IntPoly]]


def _moved(packed: Packed, dst: _Packing, offset: int = 0) -> list[IntPoly]:
    """The rows of `packed` on packing `dst`, variable i becoming variable
    offset + i.

    A monomial in the variables before `lead` has the same key in every
    packing of one width whose first segment ends at `lead`, since its key
    is zero past them; such rows are returned as they are, and callers must
    not change them.  A shift within one width moves exponent fields; only
    a change of width unpacks every monomial.
    """
    src, rows = packed
    if src.width != dst.width:
        pad = (0,) * offset
        return [{dst.pack(pad + src.unpack(k)): c for k, c in r.items()} for r in rows]
    if not offset and src.lead == dst.lead:
        return rows
    shift = offset * dst.width
    exps, key = src.exps, dst.key
    return [{key(exps(k) << shift): c for k, c in r.items()} for r in rows]


def _common_packing(
    n: int, *packs: Packed
) -> tuple[_Packing, list[list[IntPoly]]]:
    """A grevlex packing of n variables that holds every pack, and the rows
    of each pack on it."""
    dst = _packing(0, n, max(pk.width for pk, _ in packs))
    return dst, [_moved(packed, dst) for packed in packs]


def _polys_on(polys: Sequence[Polynomial], pk: _Packing) -> list[IntPoly]:
    """Primitive rows of nonzero polynomials on `pk`."""
    return [_primitive(_to_int_poly(g, pk)[0]) for g in polys]


def _polys_packed(polys: Sequence[Polynomial], n: int) -> Packed:
    """Primitive rows of `polys`, nonzero polynomials of n variables, on the
    grevlex packing the engine would choose for them."""
    pk = _packing(0, n, _width(_top(polys)))
    return pk, _polys_on(polys, pk)


def _top(polys: Sequence[Polynomial]) -> int:
    return max((sum(e) for p in polys for e in p.terms), default=0)


def _eliminated(
    inputs: Callable[[_Packing], list[IntPoly]],
    top: int,
    front: int,
    nvars: int,
    kept_only: bool,
) -> Packed:
    """Reduced basis of the ideal of `inputs(pk)`, rows of degree at most
    `top`, under the order of _Packing(front, nvars, ...): primitive rows
    with positive leading coefficient, sorted by leading monomial.  With
    `kept_only`, just its rows in the first `front` variables.

    By the elimination property, a row whose leading monomial avoids the
    other variables has no term in them, and only such rows have leading
    monomials that divide its terms, so with `kept_only` the other rows are
    dropped before interreduction.

    The first packing is wide enough for input of degree `top`.  A monomial
    that does not fit aborts the run, which restarts from the input at twice
    the width, so no field ever wraps.
    """
    width = _width(top)
    while True:
        pk = _packing(front, nvars, width)
        try:
            G = _buchberger(inputs(pk), pk)
            if kept_only:
                # the eliminated variables hold the fields from `front` up,
                # so a key avoids them exactly when it is below the first
                # such field; every key of a kept row is at most its leading key
                bound = 1 << (front * pk.width)
                G = [row for row in G if row.lm < bound]
            return pk, [row.terms for row in _interreduce(G, pk)]
        except _Overflow:
            width *= 2


def _monic(packed: Packed, block: VariableBlock) -> tuple[Polynomial, ...]:
    """The rows as monic polynomials on `block`."""
    pk, rows = packed
    return tuple(_from_int_poly(row, row[max(row)], block, pk) for row in rows)


def _all_reduce_to_zero(fs: list[IntPoly], basis: list[IntPoly], pk: _Packing) -> bool:
    """Whether every f reduces to zero by `basis`, all rows on `pk`."""
    rows = [_Row(g, pk) for g in basis]
    memo: dict[int, int] = {}
    return all(not _reduce(f, rows, pk, memo)[0] for f in fs)


def _common_block(polys: Sequence[Polynomial]) -> VariableBlock:
    block = polys[0].block
    for p in polys[1:]:
        if p.block != block:
            raise BlockMismatchError("generators live on different blocks")
    return block


def groebner_basis(gens: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """Reduced monic grevlex Groebner basis, sorted by leading monomial."""
    return _reduced_basis(gens, 0)


def _reduced_basis(gens: Sequence[Polynomial], front: int) -> tuple[Polynomial, ...]:
    """Reduced monic basis under the order of _Packing(front, ...)."""
    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        return ()
    block = _common_block(nonzero)
    packed = _eliminated(
        lambda pk: _polys_on(nonzero, pk), _top(nonzero), front, block.arity, False
    )
    return _monic(packed, block)


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f under division by `basis`.

    Each step divides by the first element of `basis`, in list order, whose
    grevlex leading monomial divides the leading monomial of what is left.
    The remainder is unique if `basis` is a Groebner basis.
    """
    if f.is_zero:
        return f
    nonzero = [g for g in basis if not g.is_zero]
    polys = [f] + nonzero
    block = _common_block(polys)
    # under grevlex no term of a reduction outgrows the degree of f, so the
    # packing the engine picks for the input never overflows
    pk = _packing(0, block.arity, _width(_top(polys)))
    num, den = _to_int_poly(f, pk)
    rows = [_Row(g, pk) for g in _polys_on(nonzero, pk)]
    rem, scale = _reduce(num, rows, pk, {})
    return _from_int_poly(rem, den * scale, block, pk)
