"""Independent oracles and end-to-end checks.

Two oracles that share no code with the closed-form layer: vanishing orders
via exact Taylor expansion at a point, and fat-point Hilbert functions via
ranks of derivative-condition matrices (fraction-free elimination).  On top
of them, checkers replay the power-product statements for points in the
several coordinate strata and bundle the grid-level cross-checks.
"""
from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .budget import Budget, DEFAULT_BUDGET
from .errors import BudgetExceededError, DomainError
from .fatgrid import FatGrid, expand_pattern, grid_ideal_intersection
from .invariants import (
    alpha_degree,
    generator_patterns,
    hilbert_from_resolution,
    pattern_ideal,
    resolution,
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
from .report import VerificationReport


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


def pivot_columns(matrix) -> list[int]:
    """Pivot columns, in increasing order, of an integer matrix under
    fraction-free (Bareiss) elimination.

    The number of pivots among the first k columns is the rank of those k
    columns, so one elimination gives the rank of every leading block.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    a = [list(row) for row in matrix]
    prev = 1
    pivots: list[int] = []
    row_at = 0
    for col in range(cols):
        if row_at == rows:
            break
        pivot = None
        for r in range(row_at, rows):
            if a[r][col] and (
                pivot is None or abs(a[r][col]) < abs(a[pivot][col])
            ):
                pivot = r
        if pivot is None:
            continue
        if pivot != row_at:
            a[pivot], a[row_at] = a[row_at], a[pivot]
        lead = a[row_at]
        p = lead[col]
        tail = lead[col + 1 :]
        for r in range(row_at + 1, rows):
            cur = a[r]
            factor = cur[col]
            if factor:
                cur[col + 1 :] = [
                    (p * x - factor * y) // prev
                    for x, y in zip(cur[col + 1 :], tail)
                ]
            else:
                cur[col + 1 :] = [p * x // prev for x in cur[col + 1 :]]
        prev = p
        pivots.append(col)
        row_at += 1
    return pivots


def exact_rank(matrix, budget: Budget = DEFAULT_BUDGET) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
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


def _monomial_power_ideal(pairs) -> IdealPresentation:
    """Ideal generated by pure powers x_z^e for the given (index, exponent) pairs."""
    gens = []
    for index, exponent in pairs:
        exps = [0, 0, 0]
        exps[index] = exponent
        gens.append(Polynomial.monomial(PLANE, tuple(exps)))
    return IdealPresentation(PLANE, gens)


def _zero_indices(p: Point) -> list[int]:
    return [i for i, c in enumerate(p) if c == 0]


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
    budget.check_groebner(9, max(m, n))

    result = hadamard_ideals(
        ideal_power(point_ideal(P), m), ideal_power(point_ideal(Q), n)
    )
    # Keep the point of the larger stratum on the P side; the Hadamard
    # product is symmetric, so this only normalizes the case analysis.
    if delta_index(P) < delta_index(Q):
        P, Q, m, n = Q, P, n, m
    dP, dQ = delta_index(P), delta_index(Q)
    target = ideal_power(point_ideal(pq), m + n - 1)
    report = VerificationReport(
        subject="power product: strata (%d,%d), powers (%d,%d)"
        % (dP, dQ, m, n)
    )

    if m == 1 and n == 1:
        equal = ideal_equal(result, point_ideal(pq))
        report.add(
            "unit powers: product ideal equals I(P*Q)",
            "equal",
            "equal" if equal else "different",
            equal,
        )

    if dP == 2 and dQ == 2:
        equal = ideal_equal(result, target)
        report.add(
            "points off the coordinate triangle: equality with I(P*Q)^(m+n-1)",
            "equal",
            "equal" if equal else "different",
            equal,
        )
    elif dP == 2 and dQ == 0:
        expected = ideal_power(point_ideal(Q), n)
        equal = ideal_equal(result, expected)
        report.add(
            "one point off the triangle, the other a coordinate point:"
            " product equals I(Q)^n",
            "equal",
            "equal" if equal else "different",
            equal,
            flag=(
                None
                if m == 1
                else "m > 1 sits outside the stated scope; the computed"
                " general form still predicts I(Q)^n"
            ),
        )
        if m > 1:
            different = not ideal_equal(result, target)
            report.add(
                "m > 1: product differs from I(P*Q)^(m+n-1)",
                "different",
                "different" if different else "equal",
                different,
            )
    elif dP == 2 and dQ == 1:
        if m == 1:
            expected = ideal_power(point_ideal(pq), n)
            equal = ideal_equal(result, expected)
            report.add(
                "one point off the triangle, one on a coordinate line, m=1:"
                " product equals I(P*Q)^n",
                "equal",
                "equal" if equal else "different",
                equal,
            )
        else:
            z = _zero_indices(Q)[0]
            witness = _variable_power(z, n)
            in_result = result.contains(witness)
            report.add(
                "witness power of the vanishing coordinate lies in the product",
                "member",
                "member" if in_result else "missing",
                in_result,
                flag="m > 1 on this stratum has no closed form; witness,"
                " inequality and containment checks only",
            )
            outside = not target.contains(witness)
            report.add(
                "witness power avoids I(P*Q)^(m+n-1), so equality fails",
                "non-member",
                "non-member" if outside else "member",
                outside,
            )
            contains = result.contains_ideal(target)
            report.add(
                "universal containment: product contains I(P*Q)^(m+n-1)",
                "contains",
                "contains" if contains else "misses",
                contains,
            )
    elif dP == 1 and dQ == 1:
        zp, zq = _zero_indices(P)[0], _zero_indices(Q)[0]
        low = ideal_power(point_ideal(pq), min(m, n))
        if zp != zq:
            expected = _monomial_power_ideal([(zp, m), (zq, n)])
            equal = ideal_equal(result, expected)
            report.add(
                "both points on distinct coordinate lines: product is the"
                " pure-power ideal (x_%d^%d, x_%d^%d)" % (zp, m, zq, n),
                "equal",
                "equal" if equal else "different",
                equal,
            )
        else:
            witness = _variable_power(zp, min(m, n))
            in_result = result.contains(witness)
            report.add(
                "witness power of the shared vanishing coordinate lies in"
                " the product",
                "member",
                "member" if in_result else "missing",
                in_result,
                flag="shared coordinate line: witness and containment"
                " checks only",
            )
        contains_low = low.contains_ideal(result)
        report.add(
            "product is contained in I(P*Q)^min(m,n)",
            "contained",
            "contained" if contains_low else "escapes",
            contains_low,
        )
        contains_high = result.contains_ideal(target)
        report.add(
            "universal containment: product contains I(P*Q)^(m+n-1)",
            "contains",
            "contains" if contains_high else "misses",
            contains_high,
        )
        if (m, n) != (1, 1):
            different = not ideal_equal(result, target)
            report.add(
                "equality with I(P*Q)^(m+n-1) fails away from unit powers",
                "different",
                "different" if different else "equal",
                different,
            )
    else:
        contains = result.contains_ideal(target)
        report.add(
            "universal containment: product contains I(P*Q)^(m+n-1)",
            "contains",
            "contains" if contains else "misses",
            contains,
            flag="stratum outside the case statements; general containment"
            " only",
        )
    return report


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
    budget.check_groebner(9, t)
    d = delta_index(P)
    power = irrelevant_power(t)
    result = hadamard_ideals(point_ideal(P), power)
    report = VerificationReport(
        subject="point ideal * irrelevant power, stratum %d, t=%d" % (d, t)
    )
    if d == 2:
        expected = power
        label = "point off the coordinate triangle: product equals the power"
    elif d == 1:
        z = _zero_indices(P)[0]
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
        z1, z2 = _zero_indices(P)
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
    equal = ideal_equal(result, expected)
    report.add(label, "equal", "equal" if equal else "different", equal)
    if d < 2:
        contains = result.contains_ideal(power)
        report.add(
            "product contains the irrelevant power",
            "contains",
            "contains" if contains else "misses",
            contains,
        )
        if t > 1:
            strict = not ideal_equal(result, power)
            report.add(
                "containment is strict for t > 1",
                "strict",
                "strict" if strict else "equal",
                strict,
            )
    return report


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
    budget.check_groebner(9, t)
    ideal = point_ideal(P)
    joined = join_ideals(ideal, irrelevant_power(t))
    expected = ideal_power(ideal, t)
    equal = ideal_equal(joined, expected)
    report = VerificationReport(
        subject="join with irrelevant power computes symbolic power, t=%d" % t
    )
    report.add(
        "join of the point ideal with the irrelevant power equals the"
        " ordinary power",
        "equal",
        "equal" if equal else "different",
        equal,
    )
    return report


def check_grid_end_to_end(
    g: FatGrid, budget: Budget = DEFAULT_BUDGET
) -> VerificationReport:
    """All grid-level cross-checks that an oracle can decide.

    Pattern count, vanishing orders of every expanded pattern at every grid
    point, equality of the pattern ideal with the intersection oracle, the
    resolution-derived Hilbert function against the rank oracle through the
    largest syzygy twist, and the initial degree against the oracle.
    """
    report = VerificationReport(
        subject="grid end-to-end, M=%s, N=%s"
        % (list(g.row_multiplicities), list(g.col_multiplicities))
    )
    patterns = generator_patterns(g)
    expected_count = g.row_multiplicities[-1] + g.col_multiplicities[-1]
    report.add(
        "pattern count equals m_r + n_s",
        str(expected_count),
        str(len(patterns)),
        len(patterns) == expected_count,
    )

    r, s = g.shape
    orders_ok = True
    worst = ""
    for pat in patterns:
        poly = expand_pattern(g, pat)
        for i in range(r):
            for j in range(s):
                order = vanishing_order(poly, g.grid_points[i][j])
                if order < g.mult[i][j]:
                    orders_ok = False
                    worst = "pattern k=%d at point (%d,%d): order %s < %d" % (
                        pat.k,
                        i,
                        j,
                        order,
                        g.mult[i][j],
                    )
    report.add(
        "every expanded pattern vanishes to full multiplicity at every"
        " grid point",
        "orders at least the multiplicities",
        worst or "all orders sufficient",
        orders_ok,
    )

    oracle = grid_ideal_intersection(g, budget)
    equal = ideal_equal(pattern_ideal(g), oracle)
    report.add(
        "pattern ideal equals the intersection oracle",
        "equal",
        "equal" if equal else "different",
        equal,
    )

    shifts = resolution(g)
    top = max(shifts.syzygy_twists)
    predicted = [hilbert_from_resolution(shifts, d) for d in range(top + 1)]
    computed = hilbert_series_oracle(g, top, budget)
    mismatches = [
        (d, p, c) for d, (p, c) in enumerate(zip(predicted, computed)) if p != c
    ]
    first_positive = next((d for d, value in enumerate(computed) if value), None)
    report.add(
        "resolution Hilbert function matches the rank oracle through the"
        " largest syzygy twist",
        "agreement for d = 0..%d" % top,
        "agreement" if not mismatches else "mismatches at %s" % mismatches[:3],
        not mismatches,
    )

    alpha = alpha_degree(g)
    report.add(
        "initial degree matches the first nonzero oracle dimension",
        str(alpha),
        str(first_positive),
        first_positive == alpha,
    )
    return report
