"""Fat-point conditions and the exact rank of their matrices.

``point_conditions`` is the one encoding of a fat point's derivative
conditions as integer rows at an integer chart point, and
``pivot_columns`` the certified rank of every leading block of columns of
an integer matrix.
"""
from __future__ import annotations

import math


def point_conditions(u: int, v: int, m: int, columns):
    """The rows of a fat point of multiplicity m at the integer chart point
    (u, v), one per derivative of order o1 + o2 < m (Macaulay's inverse
    system; Emsalem and Iarrobino 1995), lazily and by increasing order.
    ``columns`` lists the monomials x^a y^b as exponent pairs (a, b); row
    (o1, o2) holds at each of them (a)_o1 (b)_o2 u^(a-o1) v^(b-o2), the
    derivative of x^a y^b at (u, v).  Each axis's derivative table is built
    once per order, when the rows first reach that order.
    """
    top_a = max(a for a, _ in columns)
    top_b = max(b for _, b in columns)

    def falling(base: int, order: int, top: int) -> list[int]:
        # the order-th derivative of x^a at x = base, for a = 0..top
        return [
            math.perm(a, order) * base ** (a - order) if a >= order else 0
            for a in range(top + 1)
        ]

    xs: list[list[int]] = []
    ys: list[list[int]] = []
    for order in range(m):
        xs.append(falling(u, order, top_a))
        ys.append(falling(v, order, top_b))
        for o1 in range(order, -1, -1):
            x, y = xs[o1], ys[order - o1]
            yield [x[a] * y[b] for a, b in columns]


# Miller-Rabin with these bases is exact for every n < 3.3 * 10**24
# (Sorenson and Webster 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2**62, largest first: the moduli the modular
    elimination tries, in order."""
    yield from filter(_is_prime, range(2**62 - 1, 2, -2))


def _pack(entries, size: int) -> int:
    """Non-negative entries as one int, the first in the most significant
    slot of ``size`` bytes."""
    return int.from_bytes(b"".join(x.to_bytes(size, "big") for x in entries), "big")


def _unpack(value: int, count: int, size: int) -> list[int]:
    data = value.to_bytes(count * size, "big")
    return [
        int.from_bytes(data[i : i + size], "big")
        for i in range(0, count * size, size)
    ]


def _slot_reducer(p: int, count: int, size: int):
    """A map that reduces every slot of an int of ``count`` slots of
    ``size`` bytes below 2**k, k = p.bit_length(), keeping it congruent
    mod p, in a few big-int operations.

    With c = 2**k - p, 2**k = c mod p, so a slot hi*2**k + lo may become
    c*hi + lo, which is no larger and never carries into the next slot.
    The masks of the low k bits and the rest of every slot are built
    once; a round applies the step to all slots at once, until no slot
    has bits at or above k.  For p just below 2**62 this takes three or
    four rounds.
    """
    k = p.bit_length()
    c = (1 << k) - p
    ones = (1 << k) - 1
    low = _pack([ones] * count, size)
    high = _pack([(1 << 8 * size) - 1 - ones] * count, size)

    def reduce(value: int) -> int:
        while value & high:
            value = (value & low) + c * ((value & high) >> k)
        return value

    return reduce


def _echelon_mod(matrix, p: int):
    """Forward elimination mod p over every column.

    Each row is one int with one slot per column, column 0 in the most
    significant slot, so a row update is one multiply-add and a row cleared
    through column c fits in the slots after c.  An entry is reduced mod p
    only when it is read.  A pivot row, when found, is reduced by
    ``_slot_reducer``, multiplied by the inverse of its leading entry and
    reduced again, so its slots after the pivot column are below
    2**k <= 2p, k = p.bit_length(), and an update adds less than p * 2**k
    to a slot.  A row starts with entries below p and takes at most one
    update per pivot, so every slot stays below
    p + min(rows, width) * p * 2**k, the width the slots are given (17
    bytes at p near 2**62 while min(rows, width) < 2048); the back
    substitution in ``_kernel_mod`` stays within the same bound.

    Returns the pivot columns, each pivot row's slots after its pivot
    column, and the slot size in bytes.
    """
    width = len(matrix[0])
    bound = p + (min(len(matrix), width) * p << p.bit_length())
    size = (bound.bit_length() + 7) // 8
    bits = 8 * size
    slot = (1 << bits) - 1
    reduce = _slot_reducer(p, width, size)
    active = [_pack([x % p for x in row], size) for row in matrix]
    pivots: list[int] = []
    tails: list[int] = []
    for col in range(width):
        if not active:
            break
        shift = (width - 1 - col) * bits
        low = (1 << shift) - 1
        entries = [((row >> shift) & slot) % p for row in active]
        lead = next((k for k, e in enumerate(entries) if e), None)
        if lead is None:
            continue
        inverse = pow(entries[lead], -1, p)
        tail = reduce(reduce(active[lead] & low) * inverse)
        del active[lead], entries[lead]
        active = [
            (row & low) + (p - e) * tail if e else row
            for row, e in zip(active, entries)
        ]
        pivots.append(col)
        tails.append(tail)
    return pivots, tails, size


def _kernel_mod(pivots, tails, size: int, width: int, needed, p: int):
    """For each column j in ``needed`` (non-pivot columns, increasing), the
    kernel vector mod p with a 1 at j and its other entries on the pivot
    columns before j, listed in pivot order, each entry in [0, p).

    Back substitution for all needed columns at once: the entries of every
    vector on one pivot column are packed into one int, one slot per
    vector.  Pivot row r gives them as minus its entry in column j, minus
    its multiples of the entries on the later pivot columns; each solved
    int is reduced by ``_slot_reducer``, so its slots are below 2**k and a
    sum of at most min(rows, width) products with entries below p stays
    within the slot bound of ``_echelon_mod``.
    """
    limit = needed[-1] + 1
    cols = [c for c in pivots if c < limit]
    shift = (width - limit) * 8 * size
    reduce = _slot_reducer(p, len(needed), size)
    solved = [0] * len(cols)
    for r in range(len(cols) - 1, -1, -1):
        c = cols[r]
        # minus the pivot row's entries on columns c+1 .. limit-1
        minus = [-x % p for x in _unpack(tails[r] >> shift, limit - 1 - c, size)]
        solved[r] = reduce(
            sum(
                (minus[cols[k] - c - 1] * solved[k] for k in range(r + 1, len(cols))),
                _pack([minus[j - c - 1] if j > c else 0 for j in needed], size),
            )
        )
    entries = [_unpack(x, len(needed), size) for x in solved]
    return [
        [column[t] % p for c, column in zip(cols, entries) if c < j]
        for t, j in enumerate(needed)
    ]


def _rational_vector(residues, modulus: int, bound: int):
    """Integers (den, nums) with den*residue = num mod ``modulus`` for each
    residue, found entry by entry by rational reconstruction with a running
    common denominator; None once the denominator passes ``bound``."""
    den = 1
    nums: list[int] = []
    for x in residues:
        y = x * den % modulus
        if y <= bound:
            nums.append(y)
            continue
        if modulus - y <= bound:
            nums.append(y - modulus)
            continue
        r0, r1, t0, t1 = modulus, y, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        den *= abs(t1)
        if den > bound:
            return None
        nums = [n * abs(t1) for n in nums]
        nums.append(r1 if t1 > 0 else -r1)
    return den, nums


def _drop_certified(matrix, pivots, pending: dict, modulus: int) -> None:
    """Remove from ``pending`` each column j whose residue vector (a kernel
    vector mod ``modulus`` with a 1 at j and entries on the pivot columns
    before j) lifts to an integer vector w with w[j] > 0 and matrix*w = 0.

    The check packs each column of the matrix into one int, one signed slot
    per row, wide enough that a combination of columns is zero as an int
    only if it is zero in every row.
    """
    bound = math.isqrt(modulus // 2)
    lifted = {}
    for j, residues in pending.items():
        vector = _rational_vector(residues, modulus, bound)
        if vector is not None:
            lifted[j] = vector
    if not lifted:
        return
    limit = max(lifted) + 1
    entry_bits = max(abs(x) for row in matrix for x in row[:limit]).bit_length()
    vector_bits = max(
        max([den, *map(abs, nums)]) for den, nums in lifted.values()
    ).bit_length()
    size = (entry_bits + vector_bits + limit.bit_length() + 8) // 8
    half = 1 << (8 * size - 1)
    offset = _pack([half] * len(matrix), size)
    columns = [
        _pack([row[k] + half for row in matrix], size) - offset
        for k in range(limit)
    ]
    for j, (den, nums) in lifted.items():
        combination = sum(n * columns[c] for n, c in zip(nums, pivots))
        if den * columns[j] + combination == 0:
            del pending[j]


def pivot_columns(matrix) -> list[int]:
    """Pivot columns, in increasing order, of an integer matrix: the columns
    where the rank over Q of the leading block of columns goes up.

    The number of pivots among the first k columns is the rank of those k
    columns, so one elimination gives the rank of every leading block.

    The elimination runs mod a prime p, and no leading block has a larger
    rank mod p than over Q.  So a block whose pivots mod p give it full
    column rank, or full row rank, is exact as it stands.  Every other
    block is made exact by a certificate.  For each non-pivot column j
    that such a block contains, the kernel vector mod p with a 1 at j and
    its other entries on the pivot columns before j is lifted to Q, by
    Chinese remaindering over further primes and rational reconstruction
    (Wang, Guy and Davenport 1982), and A*v = 0 is checked in integers.
    These vectors are independent, so each block's nullity over Q is at
    least its nullity mod p, and the two ranks agree.

    The primes come from ``_primes``, largest first, and each is
    eliminated once, over every column.  Of two pivot lists, the
    lexicographically smaller, a shorter list read as ending in the column
    count, has more rank on the first leading block where their ranks
    differ; so the pivot list over Q is the least over all primes.  A
    further prime whose whole pivot list is larger than p's is skipped; one
    whose list is equal joins its kernel vectors to the Chinese
    remaindering; one whose list is smaller shows that p was unlucky, and
    everything restarts from its elimination.  Only finitely many primes
    divide a nonzero minor or a kernel denominator, so the loop ends with
    no other route.
    """
    rows = len(matrix)
    width = len(matrix[0]) if rows else 0
    if not width:
        return []
    pending: dict[int, list[int]] = {}
    for p in _primes():
        p_pivots, tails, size = _echelon_mod(matrix, p)
        if pending and p_pivots + [width] > pivots + [width]:
            # p shows less rank on a leading block: skip it
            continue
        if pending and p_pivots == pivots:
            kernel = _kernel_mod(pivots, tails, size, width, list(pending), p)
            inverse = pow(modulus, -1, p)
            for (j, old), new in zip(list(pending.items()), kernel):
                pending[j] = [
                    x + modulus * ((y - x) * inverse % p) for x, y in zip(old, new)
                ]
            modulus *= p
        else:
            # the first prime, or one that shows more rank on a leading
            # block than the pivots so far: (re)start at it
            pivots = p_pivots
            is_pivot = set(pivots)
            # past the last pivot, full row rank mod p is already exact
            end = pivots[-1] if len(pivots) == rows else width
            needed = [j for j in range(end) if j not in is_pivot]
            if not needed:
                return pivots
            kernel = _kernel_mod(pivots, tails, size, width, needed, p)
            pending = dict(zip(needed, kernel))
            modulus = p
        _drop_certified(matrix, pivots, pending, modulus)
        if not pending:
            return pivots
