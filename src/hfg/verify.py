"""Independent oracles and end-to-end checks.

Two oracles that share no code with the closed-form layer: vanishing orders
via exact Taylor expansion at a point, and fat-point Hilbert functions via
ranks of derivative-condition matrices.  Those ranks have one route:
elimination mod primes drawn, largest first, from the primes below 2**62,
made exact over Q by kernel vectors lifted to integers and checked against
the matrix.  On top of them, checkers replay the power-product statements
for points in the several coordinate strata, and one plan of independent
units runs the grid-level cross-checks for both the library and the CLI.
"""
from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .budget import Budget, DEFAULT_BUDGET
from .errors import BudgetExceededError, DomainError
from .fatgrid import (
    FatGrid,
    expand_pattern,
    grid_from_json,
    grid_ideal_intersection,
    grid_to_json,
    symbolic_grid,
)
from .invariants import (
    alpha_degree,
    certificate_depth,
    generator_patterns,
    hilbert_from_resolution,
    pattern_ideal,
    resolution,
    resurgence_certificate,
)
from .polycore import (
    PLANE,
    IdealPresentation,
    Polynomial,
    hadamard_ideals,
    ideal_equal,
    ideal_power,
    irrelevant_power,
    join_ideals,
    monomials_of_degree,
)
from .projective import Point, delta_index, hadamard_point, point_ideal
from .report import CheckInstance, VerificationReport, skipped, verdict


def vanishing_order(f: Polynomial, p) -> int | float:
    """Order of vanishing of a homogeneous form at a projective point.

    Dehomogenizes at the largest-index coordinate of ``p`` that is nonzero,
    Taylor-shifts the affine point to the origin, and reads off the least
    total degree present.  The zero polynomial gets the +infinity sentinel.

    The shift runs on integers: with primitive integer coordinates c, pivot
    coordinate c_p and f's denominators cleared, each term is scaled by
    c_p^(e_p) and x_k = c_k + c_p*y_k is substituted for the other
    variables.  By homogeneity that is c_p^deg(f) times the affine Taylor
    shift with y_k scaled by c_p, which has the same least degree.
    """
    if f.is_zero:
        return math.inf
    if not f.is_homogeneous():
        raise DomainError("vanishing order wants a homogeneous polynomial")
    coords = [Fraction(c) for c in p]
    if len(coords) != f.block.arity:
        raise DomainError("point and polynomial live in different spaces")
    if all(c == 0 for c in coords):
        raise DomainError("not a projective point: all coordinates are zero")
    pivot = max(i for i, c in enumerate(coords) if c)
    ints = _primitive_coords(coords)
    scale = ints[pivot]
    keep = [i for i in range(f.block.arity) if i != pivot]
    den = math.lcm(*(coeff.denominator for coeff in f.terms.values()))

    current: dict[tuple[int, ...], int] = {}
    for exps, coeff in f.terms.items():
        key = tuple(exps[i] for i in keep)
        numerator = coeff.numerator * (den // coeff.denominator)
        current[key] = numerator * scale ** exps[pivot]
    top = f.total_degree()
    scale_pow = [scale**e for e in range(top + 1)]
    for k, i in enumerate(keep):
        c_k = ints[i]
        if c_k == 0:
            # x_k = c_p*y_k multiplies each term by a power of c_p that
            # depends only on its own exponents, so no term can cancel
            continue
        c_pow = [c_k**e for e in range(top + 1)]
        shifted: dict[tuple[int, ...], int] = {}
        for exps, coeff in current.items():
            e_k = exps[k]
            for j in range(e_k + 1):
                term = coeff * math.comb(e_k, j) * c_pow[e_k - j] * scale_pow[j]
                new = exps[:k] + (j,) + exps[k + 1 :]
                shifted[new] = shifted.get(new, 0) + term
        current = {e: c for e, c in shifted.items() if c}
    return min(sum(e) for e in current)


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


def _echelon_mod(matrix, width: int, p: int):
    """Forward elimination mod p of the first ``width`` columns.

    Each row is one int with one slot per column, column 0 in the most
    significant slot, so a row update is one multiply-add and a row cleared
    through column c fits in the slots after c.  An entry is reduced mod p
    only when it is read.  A pivot row is reduced and scaled to a leading 1
    when it is found, so an update adds less than p**2 to a slot.  A row
    takes at most one update per pivot, and the slot width leaves room for
    all of them; the back substitution in ``_kernel_mod`` stays within the
    same bound.

    Returns the pivot columns, each pivot row's slots after its pivot
    column, and the slot size in bytes.
    """
    bound = p + min(len(matrix), width) * (p - 1) ** 2
    size = (bound.bit_length() + 7) // 8
    bits = 8 * size
    slot = (1 << bits) - 1
    active = [_pack([x % p for x in row[:width]], size) for row in matrix]
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
        count = width - 1 - col
        tail = _pack(
            [x * inverse % p for x in _unpack(active[lead] & low, count, size)], size
        )
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
    columns before j, listed in pivot order.

    Back substitution for all needed columns at once: the entries of every
    vector on one pivot column are packed into one int, one slot per
    vector.  Pivot row r gives them as minus its entry in column j, minus
    its multiples of the entries on the later pivot columns.
    """
    limit = needed[-1] + 1
    cols = [c for c in pivots if c < limit]
    shift = (width - limit) * 8 * size
    solved = [0] * len(cols)
    for r in range(len(cols) - 1, -1, -1):
        c = cols[r]
        # minus the pivot row's entries on columns c+1 .. limit-1
        minus = [-x % p for x in _unpack(tails[r] >> shift, limit - 1 - c, size)]
        packed = sum(
            (minus[cols[k] - c - 1] * solved[k] for k in range(r + 1, len(cols))),
            _pack([minus[j - c - 1] if j > c else 0 for j in needed], size),
        )
        solved[r] = _pack([x % p for x in _unpack(packed, len(needed), size)], size)
    entries = [_unpack(x, len(needed), size) for x in solved]
    return [
        [column[t] for c, column in zip(cols, entries) if c < j]
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
    offset = int.from_bytes(half.to_bytes(size, "big") * len(matrix), "big")
    columns = [
        int.from_bytes(
            b"".join((row[k] + half).to_bytes(size, "big") for row in matrix),
            "big",
        )
        - offset
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

    The primes come from ``_primes``, largest first.  Each further prime
    eliminates only the columns through the last one whose certificate is
    still pending.  If its pivots there agree with p's, its kernel vectors
    join the Chinese remaindering; if they show less rank on a leading
    block, it is skipped; if they show more, p was unlucky and everything
    restarts at the new prime.  Only finitely many primes divide a nonzero
    minor or a kernel denominator, so the loop ends with no other route.
    """
    rows = len(matrix)
    width = len(matrix[0]) if rows else 0
    if not width:
        return []
    pending: dict[int, list[int]] = {}
    for p in _primes():
        if pending:
            limit = max(pending) + 1
            p_pivots, tails, size = _echelon_mod(matrix, limit, p)
            base = pivots[: bisect.bisect_left(pivots, limit)]
            if p_pivots + [width] > base + [width]:
                # p shows less rank on a leading block: skip it
                continue
        if pending and p_pivots == base:
            kernel = _kernel_mod(base, tails, size, limit, list(pending), p)
            inverse = pow(modulus, -1, p)
            for (j, old), new in zip(list(pending.items()), kernel):
                pending[j] = [
                    x + modulus * ((y - x) * inverse % p) for x, y in zip(old, new)
                ]
            modulus *= p
        else:
            # the first prime, or one that shows more rank on a leading
            # block than the pivots so far: (re)start at it
            pivots, tails, size = _echelon_mod(matrix, width, p)
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


def exact_rank(matrix, budget: Budget = DEFAULT_BUDGET) -> int:
    """Rank over Q of an integer matrix: the number of its pivot columns,
    found mod a prime and certified exact (see ``pivot_columns``)."""
    rows = len(matrix)
    budget.check_matrix(rows, len(matrix[0]) if rows else 0)
    return len(pivot_columns(matrix))


def _primitive_coords(point) -> list[int]:
    """Integer coordinates with gcd 1 of a point (or a nonzero rational vector)."""
    den = math.lcm(*(c.denominator for c in point))
    ints = [int(c * den) for c in point]
    content = math.gcd(*ints)
    return [x // content for x in ints]


def hilbert_series_oracle(
    g: FatGrid, top: int, budget: Budget = DEFAULT_BUDGET
) -> list[int]:
    """dim of the degree-d piece of the grid ideal for d = 0..top, by one
    exact elimination.

    Grid points have every coordinate nonzero, so a form of degree d is a
    polynomial of degree <= d in the chart x0 = 1, with columns u^a v^b
    ordered by a + b; the degree-d condition matrix is then the first
    C(d+2, 2) columns of the degree-top one.  A point with primitive integer
    coordinates (p0, p1, p2) contributes, for each derivative order
    (o1, o2) below its multiplicity, the row of
    (a)_o1 (b)_o2 p1^(a-o1) p2^(b-o2) (L/p0)^(a+b), where L is the lcm of
    the |p0|.  That is the affine condition scaled by L^(a+b) per column
    and by p0^(o1+o2) per row, which keeps entries integral and leaves the
    rank of every leading block of columns unchanged.
    """
    if top < 0:
        raise DomainError("degree must be non-negative")
    r, s = g.shape
    cells = [(i, j) for i in range(r) for j in range(s)]
    rows = sum(g.mult[i][j] * (g.mult[i][j] + 1) // 2 for i, j in cells)
    for d in range(top + 1):
        budget.check_matrix(rows, math.comb(d + 2, 2))

    points = [_primitive_coords(g.grid_points[i][j]) for i, j in cells]
    lcm = math.lcm(*(abs(p[0]) for p in points))
    columns = [(a, e - a) for e in range(top + 1) for a in range(e, -1, -1)]

    def falling(base: int, order: int) -> list[int]:
        # the order-th derivative of x^a at x = base, for a = 0..top
        return [
            math.perm(a, order) * base ** (a - order) if a >= order else 0
            for a in range(top + 1)
        ]

    matrix = []
    for (i, j), (p0, p1, p2) in zip(cells, points):
        scale = [(lcm // p0) ** e for e in range(top + 1)]
        m = g.mult[i][j]
        for order1 in range(m):
            u = falling(p1, order1)
            for order2 in range(m - order1):
                v = falling(p2, order2)
                matrix.append([u[a] * v[b] * scale[a + b] for a, b in columns])
    pivots = pivot_columns(matrix)
    return [
        math.comb(d + 2, 2) - bisect.bisect_left(pivots, math.comb(d + 2, 2))
        for d in range(top + 1)
    ]


def hilbert_function_oracle(
    g: FatGrid, d: int, budget: Budget = DEFAULT_BUDGET
) -> int:
    """dim of the degree-d piece of the grid ideal, by rank of conditions."""
    return hilbert_series_oracle(g, d, budget)[d]


def _variable_power(index: int, exponent: int) -> Polynomial:
    exps = [0, 0, 0]
    exps[index] = exponent
    return Polynomial.monomial(PLANE, tuple(exps))


def check_point_power_product(
    P: Point, Q: Point, m: int, n: int, budget: Budget = DEFAULT_BUDGET
) -> VerificationReport:
    """Compare I(P)^m * I(Q)^n (Hadamard) with its stratum-wise prediction.

    Both points off the coordinate triangle: equality with I(PQ)^{m+n-1}.
    One point off, the other on it: the several computed forms, with the
    instances outside the statements' scope flagged and probed through the
    universal containment and explicit witness monomials.
    """
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise DomainError("powers must be positive integers")
    pq = hadamard_point(P, Q)
    if pq is None:
        raise DomainError(
            "Hadamard product of %s and %s is undefined"
            % (P.to_string(), Q.to_string())
        )
    # I(P*Q)^(m+n-1) is the largest Groebner input built below
    budget.check_groebner(m + n - 1)

    result = hadamard_ideals(
        ideal_power(point_ideal(P), m), ideal_power(point_ideal(Q), n)
    )
    # Keep the point of the larger stratum on the P side; the Hadamard
    # product is symmetric, so this only normalizes the case analysis.
    if delta_index(P) < delta_index(Q):
        P, Q, m, n = Q, P, n, m
    dP, dQ = delta_index(P), delta_index(Q)
    target = ideal_power(point_ideal(pq), m + n - 1)
    checks = []

    def contains_target(flag=None):
        return verdict(
            "universal containment: product contains I(P*Q)^(m+n-1)",
            result.contains_ideal(target),
            "contains",
            "misses",
            flag,
        )

    if m == 1 and n == 1:
        checks.append(
            verdict(
                "unit powers: product ideal equals I(P*Q)",
                ideal_equal(result, point_ideal(pq)),
            )
        )

    if dP == 2 and dQ == 2:
        checks.append(
            verdict(
                "points off the coordinate triangle: equality with"
                " I(P*Q)^(m+n-1)",
                ideal_equal(result, target),
            )
        )
    elif dP == 2 and dQ == 0:
        checks.append(
            verdict(
                "one point off the triangle, the other a coordinate point:"
                " product equals I(Q)^n",
                ideal_equal(result, ideal_power(point_ideal(Q), n)),
                flag=(
                    None
                    if m == 1
                    else "m > 1 sits outside the stated scope; the computed"
                    " general form still predicts I(Q)^n"
                ),
            )
        )
        if m > 1:
            checks.append(
                verdict(
                    "m > 1: product differs from I(P*Q)^(m+n-1)",
                    not ideal_equal(result, target),
                    "different",
                    "equal",
                )
            )
    elif dP == 2 and dQ == 1:
        if m == 1:
            checks.append(
                verdict(
                    "one point off the triangle, one on a coordinate line,"
                    " m=1: product equals I(P*Q)^n",
                    ideal_equal(result, ideal_power(point_ideal(pq), n)),
                )
            )
        else:
            witness = _variable_power(Q.zero_support()[0], n)
            checks += [
                verdict(
                    "witness power of the vanishing coordinate lies in the"
                    " product",
                    result.contains(witness),
                    "member",
                    "missing",
                    flag="m > 1 on this stratum has no closed form; witness,"
                    " inequality and containment checks only",
                ),
                verdict(
                    "witness power avoids I(P*Q)^(m+n-1), so equality fails",
                    not target.contains(witness),
                    "non-member",
                    "member",
                ),
                contains_target(),
            ]
    elif dP == 1 and dQ == 1:
        zp, zq = P.zero_support()[0], Q.zero_support()[0]
        if zp != zq:
            expected = IdealPresentation(
                PLANE, [_variable_power(zp, m), _variable_power(zq, n)]
            )
            checks.append(
                verdict(
                    "both points on distinct coordinate lines: product is the"
                    " pure-power ideal (x_%d^%d, x_%d^%d)" % (zp, m, zq, n),
                    ideal_equal(result, expected),
                )
            )
        else:
            checks.append(
                verdict(
                    "witness power of the shared vanishing coordinate lies in"
                    " the product",
                    result.contains(_variable_power(zp, min(m, n))),
                    "member",
                    "missing",
                    flag="shared coordinate line: witness and containment"
                    " checks only",
                )
            )
        low = ideal_power(point_ideal(pq), min(m, n))
        checks += [
            verdict(
                "product is contained in I(P*Q)^min(m,n)",
                low.contains_ideal(result),
                "contained",
                "escapes",
            ),
            contains_target(),
        ]
        if (m, n) != (1, 1):
            checks.append(
                verdict(
                    "equality with I(P*Q)^(m+n-1) fails away from unit powers",
                    not ideal_equal(result, target),
                    "different",
                    "equal",
                )
            )
    else:
        checks.append(
            contains_target(
                "stratum outside the case statements; general containment only"
            )
        )
    return VerificationReport(
        "power product: strata (%d,%d), powers (%d,%d)" % (dP, dQ, m, n), checks
    )


def check_lemma_irrelevant(
    P: Point, t: int, budget: Budget = DEFAULT_BUDGET
) -> VerificationReport:
    """Hadamard product of a point ideal with a power of the irrelevant ideal.

    Off the coordinate triangle the power is unchanged; on it, the product
    is the computed larger ideal containing the power.
    """
    t = int(t)
    if t < 1:
        raise DomainError("power must be a positive integer")
    budget.check_groebner(t)
    d = delta_index(P)
    power = irrelevant_power(t)
    result = hadamard_ideals(point_ideal(P), power)
    if d == 2:
        expected = power
        label = "point off the coordinate triangle: product equals the power"
    elif d == 1:
        z = P.zero_support()[0]
        pair_power = [
            Polynomial.monomial(PLANE, e)
            for e in monomials_of_degree(PLANE, t)
            if e[z] == 0
        ]
        expected = IdealPresentation(
            PLANE, [_variable_power(z, 1)] + pair_power
        )
        label = (
            "point on one coordinate line: product is (x_%d) plus the"
            " power of the other two variables" % z
        )
    else:
        z1, z2 = P.zero_support()
        w = [i for i in range(3) if i not in (z1, z2)][0]
        expected = IdealPresentation(
            PLANE,
            [
                _variable_power(z1, 1),
                _variable_power(z2, 1),
                _variable_power(w, t),
            ],
        )
        label = (
            "coordinate point: product is (x_%d, x_%d) plus x_%d^t"
            % (z1, z2, w)
        )
    checks = [verdict(label, ideal_equal(result, expected))]
    if d < 2:
        checks.append(
            verdict(
                "product contains the irrelevant power",
                result.contains_ideal(power),
                "contains",
                "misses",
            )
        )
        if t > 1:
            checks.append(
                verdict(
                    "containment is strict for t > 1",
                    not ideal_equal(result, power),
                    "strict",
                    "equal",
                )
            )
    return VerificationReport(
        "point ideal * irrelevant power, stratum %d, t=%d" % (d, t), checks
    )


def check_join_symbolic(
    P: Point, t: int, budget: Budget = DEFAULT_BUDGET
) -> VerificationReport:
    """Join with the t-th irrelevant power computes the t-th symbolic power.

    For a single point the symbolic power is the ordinary one, so the check
    is an exact ideal equality.
    """
    t = int(t)
    if t < 1:
        raise DomainError("power must be a positive integer")
    budget.check_groebner(t)
    ideal = point_ideal(P)
    joined = join_ideals(ideal, irrelevant_power(t))
    return VerificationReport(
        "join with irrelevant power computes symbolic power, t=%d" % t,
        [
            verdict(
                "join of the point ideal with the irrelevant power equals the"
                " ordinary power",
                ideal_equal(joined, ideal_power(ideal, t)),
            )
        ],
    )


def grid_structure_unit(grid_json: dict) -> list[CheckInstance]:
    """Pattern count, and the vanishing order of every expanded pattern at
    every grid point."""
    g = grid_from_json(grid_json)
    patterns = generator_patterns(g)
    expected = g.row_multiplicities[-1] + g.col_multiplicities[-1]
    r, s = g.shape
    worst = ""
    for pat in patterns:
        poly = expand_pattern(g, pat)
        for i in range(r):
            for j in range(s):
                order = vanishing_order(poly, g.grid_points[i][j])
                if order < g.mult[i][j]:
                    worst = "pattern k=%d at point (%d,%d): order %s < %d" % (
                        pat.k,
                        i,
                        j,
                        order,
                        g.mult[i][j],
                    )
    return [
        CheckInstance(
            "pattern count equals m_r + n_s",
            str(expected),
            str(len(patterns)),
            len(patterns) == expected,
        ),
        CheckInstance(
            "every expanded pattern vanishes to full multiplicity at every"
            " grid point",
            "orders at least the multiplicities",
            worst or "all orders sufficient",
            not worst,
        ),
    ]


def grid_elimination_unit(
    grid_json: dict, t_max: int, budget: Budget
) -> list[CheckInstance]:
    """The pattern ideal against the intersection oracle, then for each
    t = 1..t_max the t-th power of that oracle against the oracle of the
    t-th symbolic grid.  The base oracle is built once; an equality over a
    cap is recorded as skipped."""
    g = grid_from_json(grid_json)
    oracle = grid_ideal_intersection(g, budget)
    instances = [
        verdict(
            "pattern ideal equals the intersection oracle",
            ideal_equal(pattern_ideal(g), oracle),
        )
    ]
    for t in range(1, t_max + 1):
        label = "t=%d: ordinary power equals symbolic power (elimination oracle)" % t
        try:
            # the t-th symbolic grid's total multiplicity
            budget.check_grid(t * g.total_multiplicity)
            # the top degree of the t-th power, known before building it
            budget.check_groebner(t * oracle.max_generator_degree())
            power = ideal_power(oracle, t)
            # the first symbolic grid is g itself
            sym_oracle = (
                oracle
                if t == 1
                else grid_ideal_intersection(symbolic_grid(g, t), budget)
            )
            instances.append(verdict(label, ideal_equal(power, sym_oracle)))
        except BudgetExceededError as exc:
            instances.append(skipped(label, "equal", exc))
    return instances


def grid_hilbert_unit(grid_json: dict, budget: Budget) -> list[CheckInstance]:
    """The resolution's Hilbert function against the rank oracle at every
    degree through the largest syzygy twist, then (last) the initial degree
    against the first degree where the oracle dimension is positive."""
    g = grid_from_json(grid_json)
    shifts = resolution(g)
    computed = hilbert_series_oracle(g, max(shifts.syzygy_twists), budget)
    instances = []
    for degree, value in enumerate(computed):
        predicted = hilbert_from_resolution(shifts, degree)
        instances.append(
            CheckInstance(
                "resolution Hilbert function matches the rank oracle"
                " at degree %d" % degree,
                str(predicted),
                str(value),
                predicted == value,
            )
        )
    first_positive = next((d for d, value in enumerate(computed) if value), None)
    alpha = alpha_degree(g)
    instances.append(
        CheckInstance(
            "initial degree matches the first nonzero oracle dimension",
            str(alpha),
            str(first_positive),
            first_positive == alpha,
        )
    )
    return instances


def grid_check_plan(g: FatGrid, t_max: int, budget: Budget) -> list:
    """The grid checks as independent (unit, args) jobs, longest first so
    that a process pool starts them in that order: the elimination oracle,
    the rank oracle, the structure checks.

    The grid cap and the certificate depth are checked here, before any
    unit runs.  Units take the grid as JSON, so the jobs pickle.
    """
    budget.check_grid(g.total_multiplicity)
    t_max = certificate_depth(t_max)
    grid_json = grid_to_json(g)
    return [
        (grid_elimination_unit, (grid_json, t_max, budget)),
        (grid_hilbert_unit, (grid_json, budget)),
        (grid_structure_unit, (grid_json,)),
    ]


def grid_report(g: FatGrid, t_max: int, results) -> VerificationReport:
    """Assemble the plan's unit results in one fixed order: structure,
    pattern ideal, Hilbert function by degree, for each t the three
    combinatorial resurgence instances followed by the elimination oracle's,
    and the initial degree."""
    elimination, hilbert, structure = results
    certificate = resurgence_certificate(g, t_max).instances
    resurgence = []
    for t, oracle in enumerate(elimination[1:]):
        resurgence += certificate[3 * t : 3 * t + 3] + [oracle]
    return VerificationReport(
        "grid verification, M=%s, N=%s"
        % (list(g.row_multiplicities), list(g.col_multiplicities)),
        structure + elimination[:1] + hilbert[:-1] + resurgence + hilbert[-1:],
    )


def check_grid_end_to_end(
    g: FatGrid, budget: Budget = DEFAULT_BUDGET, t_max: int = 2
) -> VerificationReport:
    """Run the grid check plan serially; ``hfg verify`` runs the same plan."""
    plan = grid_check_plan(g, t_max, budget)
    return grid_report(g, t_max, [unit(*args) for unit, args in plan])
