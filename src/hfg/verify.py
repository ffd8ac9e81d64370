"""Independent oracles and end-to-end checks.

The oracles share no code with the closed-form layer and read the fat-point
rows of ``hfg.conditions``: a vanishing order is the first derivative order
whose row a form fails, and a fat grid's Hilbert function comes from the
pivot columns of its stacked rows; whether a power of the intersection
oracle is saturated is read off its reduced basis's leading terms.
Checkers replay the power-product statements in each coordinate stratum,
and one plan of independent units runs the grid cross-checks for both the
library and the CLI.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator

from .conditions import pivot_columns, point_conditions
from .errors import BudgetExceededError, DomainError
from .fatgrid import (
    FatGrid,
    expand_pattern,
    grid_ideal_intersection,
    rotate_coordinates,
)
from .invariants import (
    alpha_degree,
    generator_patterns,
    hilbert_from_resolution,
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
from .projective import (
    Point,
    delta_index,
    hadamard_point,
    point_ideal,
    primitive_coords,
)
from .report import CheckInstance, VerificationReport, skipped, verdict

# The grid cap: the default bound on the total multiplicity T of a grid that
# ``grid_check_plan`` accepts, which ``hfg verify --budget-degree`` sets.
MAX_TOTAL_MULTIPLICITY = 24
# The Groebner-degree cap on the total degree of direct Groebner inputs:
# ``check_point_power_product``, ``check_lemma_irrelevant`` and
# ``check_join_symbolic`` refuse an input over it, and the power loop of
# ``grid_elimination_unit`` skips the powers over it.
MAX_GROEBNER_DEGREE = 12


def _cap_groebner_degree(degree: int) -> None:
    if degree > MAX_GROEBNER_DEGREE:
        raise BudgetExceededError(
            "Groebner input of total degree %d exceeds budget %d"
            % (degree, MAX_GROEBNER_DEGREE)
        )


def _vanishing_orders(f: Polynomial, points: list[Point]) -> list:
    """Order of vanishing of a homogeneous plane form at each projective
    point: the first derivative order whose ``point_conditions`` row it
    fails, in the chart of the point's last nonzero coordinate c.  The rows
    are built at the form's own monomials only, and differentiate at the
    other two primitive integer coordinates, so each term (denominators
    cleared, read once for all points) is weighted by c to its exponent on
    c's variable, which by homogeneity scales the chart by c.  Zero gets
    +infinity.
    """
    if f.is_zero:
        return [math.inf for _ in points]
    if not f.is_homogeneous():
        raise DomainError("vanishing order wants a homogeneous polynomial")
    if f.block.arity != 3:
        raise DomainError("vanishing order wants a form and a point of the plane")
    terms = f.integer_terms()[1]
    top = f.total_degree()

    def order_at(p: Point) -> int:
        ints = primitive_coords(p)
        pivot = max(i for i, c in enumerate(ints) if c)
        i, j = (k for k in range(3) if k != pivot)
        scale = ints[pivot]
        columns = [(exps[i], exps[j]) for exps, _ in terms]
        weights = [num * scale ** exps[pivot] for exps, num in terms]
        rows = point_conditions(ints[i], ints[j], top + 1, columns)
        # a nonzero form of degree top fails some row of order <= top
        for order in range(top + 1):
            block = itertools.islice(rows, order + 1)
            if any(sum(map(operator.mul, row, weights)) for row in block):
                return order

    return [order_at(p) for p in points]


def vanishing_order(f: Polynomial, p) -> int | float:
    """Order of vanishing of a homogeneous plane form at a projective point,
    +infinity for zero: ``_vanishing_orders`` at ``Point(p)``, which rejects
    a malformed point first."""
    return _vanishing_orders(f, [Point(p)])[0]


def exact_rank(matrix) -> int:
    """Rank over Q of an integer matrix: the number of its pivot columns,
    found mod a prime and certified exact (see ``pivot_columns``)."""
    return len(pivot_columns(matrix))


def hilbert_series_oracle(g: FatGrid, top: int) -> list[int]:
    """dim of the degree-d piece of the grid ideal for d = 0..top, by one
    exact elimination.

    Grid points have every coordinate nonzero, so they lie in the chart
    x0 = 1, where the lcm L of the |p0| makes their coordinates integers
    L*p1/p0 and L*p2/p0.  Each axis is then centred and reduced: with lo
    its least value and step the gcd of the differences from lo (1 when
    every point shares the coordinate), it is shifted by the midpoint
    lo + step*((max - lo)//step//2) and divided by step.  The matrix
    stacks the ``point_conditions`` at these small integer points, so its
    kernel vectors are short and lift with fewer primes.  The chart map is
    affine and invertible over Q: it keeps the space of polynomials of
    degree <= d and each fat point's multiplicity, so the rank of the first
    C(d+2, 2) columns, the degree-d conditions, is the same in every chart.

    The matrix has a row per condition of the scheme and C(top+2, 2)
    columns.  No cap is checked here: ``grid_check_plan`` checks the grid
    cap, which bounds the matrix at the top degree ``hfg verify`` uses.
    """
    if top < 0:
        raise DomainError("degree must be non-negative")
    r, s = g.shape
    cells = [(i, j) for i in range(r) for j in range(s)]
    points = [primitive_coords(g.grid_points[i][j]) for i, j in cells]
    lcm = math.lcm(*(abs(p[0]) for p in points))
    axes = [[p[k] * (lcm // p[0]) for p in points] for k in (1, 2)]
    for axis in axes:
        lo = min(axis)
        step = math.gcd(*(c - lo for c in axis)) or 1
        mid = lo + step * ((max(axis) - lo) // step // 2)
        axis[:] = [(c - mid) // step for c in axis]
    # the graded chart columns: x^a y^b at index C(a+b+1, 2) + b
    columns = [(a, e - a) for e in range(top + 1) for a in range(e, -1, -1)]
    matrix = [
        row
        for (i, j), u, v in zip(cells, *axes)
        for row in point_conditions(u, v, g.mult[i][j], columns)
    ]
    pivots = pivot_columns(matrix)
    return [
        math.comb(d + 2, 2) - bisect.bisect_left(pivots, math.comb(d + 2, 2))
        for d in range(top + 1)
    ]


def hilbert_function_oracle(g: FatGrid, d: int) -> int:
    """dim of the degree-d piece of the grid ideal, by rank of conditions."""
    return hilbert_series_oracle(g, d)[d]


def _variable_power(index: int, exponent: int) -> Polynomial:
    exps = [0, 0, 0]
    exps[index] = exponent
    return Polynomial.monomial(PLANE, tuple(exps))


def check_point_power_product(
    P: Point, Q: Point, m: int, n: int
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
    _cap_groebner_degree(m + n - 1)

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
                    ideal_equal(result, target),
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


def check_lemma_irrelevant(P: Point, t: int) -> VerificationReport:
    """Hadamard product of a point ideal with a power of the irrelevant ideal.

    Off the coordinate triangle the power is unchanged; on it, the product
    is the computed larger ideal containing the power.
    """
    t = int(t)
    if t < 1:
        raise DomainError("power must be a positive integer")
    _cap_groebner_degree(t)
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


def check_join_symbolic(P: Point, t: int) -> VerificationReport:
    """Join with the t-th irrelevant power computes the t-th symbolic power.

    For a single point the symbolic power is the ordinary one, so the check
    is an exact ideal equality.
    """
    t = int(t)
    if t < 1:
        raise DomainError("power must be a positive integer")
    _cap_groebner_degree(t)
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


def grid_structure_unit(g: FatGrid) -> list[CheckInstance]:
    """The vanishing order of every expanded pattern at every grid point,
    each pattern's integer terms read once for all points and its rows
    built at its own monomials; a failure names how many (pattern, point)
    pairs fail and the first one in pattern, row, column order."""
    r, s = g.shape
    cells = [(i, j) for i in range(r) for j in range(s)]
    points = [g.grid_points[i][j] for i, j in cells]
    patterns = generator_patterns(g)
    failures = []
    for pat in patterns:
        orders = _vanishing_orders(expand_pattern(g, pat), points)
        for (i, j), order in zip(cells, orders):
            if order < g.mult[i][j]:
                failures.append(
                    "pattern k=%d at point (%d,%d): order %s < %d"
                    % (pat.k, i, j, order, g.mult[i][j])
                )
    computed = "all orders sufficient"
    if failures:
        computed = "%d of %d (pattern, point) pairs fail; first %s" % (
            len(failures),
            len(patterns) * r * s,
            failures[0],
        )
    return [
        CheckInstance(
            "every expanded pattern vanishes to full multiplicity at every"
            " grid point",
            "orders at least the multiplicities",
            computed,
            not failures,
        ),
    ]


def pattern_ideal(g: FatGrid) -> IdealPresentation:
    """Ideal generated by the expanded minimal-generator patterns."""
    return IdealPresentation.from_polys(
        *(expand_pattern(g, pat) for pat in generator_patterns(g))
    )


def grid_elimination_unit(g: FatGrid, t_max: int) -> list[CheckInstance]:
    """The pattern ideal against the intersection oracle I, then for each
    t = 2..t_max whether I^t equals the symbolic power I^(t).  The oracle is
    built once.  The first power k over the degree cap ends the loop with
    one skipped instance, labelled t=k..t_max when k < t_max: the top
    degree t*top only grows with t, so every later power is over it too.

    Every ideal is built on the grid turned by ``rotate_coordinates``, so
    x0 is the engine's last variable.  A permutation of coordinates keeps
    ideal equality, and a grid's lines, led by x1 and x2, are then in
    general position for grevlex: on the abstract grids the oracle's reduced
    basis has one element per generator pattern.

    The power instance rests on two facts.  First, I^(t) is the saturation
    of I^t, and since no grid point has x0 = 0, that saturation is
    I^t : x0^oo; so I^t = I^(t) exactly when I^t : x0 = I^t.  Second, in
    grevlex with x0 last, in(J : x0) = in(J) : x0 (Bayer and Stillman, A
    criterion for detecting m-regularity, 1987; Eisenbud, Commutative
    Algebra, Prop. 15.12).  So I^t is saturated exactly when no leading
    monomial of its reduced basis has a positive x0 exponent."""
    rotated = rotate_coordinates(g)
    assert all(p[2] for row in rotated.grid_points for p in row)
    oracle = grid_ideal_intersection(rotated)
    instances = [
        verdict(
            "pattern ideal equals the intersection oracle",
            ideal_equal(pattern_ideal(rotated), oracle),
        )
    ]
    label = (
        "t=%s: ordinary power equals symbolic power (elimination oracle: I^t"
        " is saturated, no leading monomial of its reduced basis has x0)"
    )
    top = oracle.max_generator_degree()
    for t in range(2, t_max + 1):
        try:
            # the top degree of the t-th power, known before building it
            _cap_groebner_degree(t * top)
        except BudgetExceededError as exc:
            depths = t if t == t_max else "%d..%d" % (t, t_max)
            instances.append(skipped(label % depths, "equal", exc))
            break
        leads = ideal_power(oracle, t).leading_exponents()
        instances.append(verdict(label % t, not any(e[2] for e in leads)))
    return instances


def grid_hilbert_unit(g: FatGrid) -> list[CheckInstance]:
    """The resolution's Hilbert function against the rank oracle at every
    degree through the largest syzygy twist, then (last) the initial degree
    against the first degree where the oracle dimension is positive."""
    shifts = resolution(g)
    computed = hilbert_series_oracle(g, max(shifts.syzygy_twists))
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


def grid_check_plan(g: FatGrid, t_max: int, max_total: int) -> list:
    """The grid checks as independent (unit, args) jobs in report order:
    the structure checks, the elimination oracle, the rank oracle.  A
    calling process that forks keeps the last, the rank unit, which is the
    longest on the running example but not on every grid.

    The grid cap max_total on the total multiplicity T and the elimination
    depth t_max are checked here, before any unit runs, and the grid cap
    nowhere else.  The rank unit's top degree, the largest syzygy twist, is
    at most T + 1 and the scheme length at most C(T+1, 2), so the grid cap
    also bounds the rank matrix.  Every unit takes the built grid itself,
    so a forked child inherits it and never rebuilds it.
    """
    if g.total_multiplicity > max_total:
        raise BudgetExceededError(
            "grid total multiplicity %d exceeds budget %d; raise it with"
            " --budget-degree" % (g.total_multiplicity, max_total)
        )
    t_max = int(t_max)
    if t_max < 1:
        raise DomainError(
            "the elimination oracle's last power t_max (--t-max) must be a"
            " positive integer"
        )
    return [
        (grid_structure_unit, (g,)),
        (grid_elimination_unit, (g, t_max)),
        (grid_hilbert_unit, (g,)),
    ]


def grid_report(g: FatGrid, results) -> VerificationReport:
    """Every unit's instances in plan order, then the closed-form
    resurgence certificate, checked for every t: structure (vanishing
    orders), elimination (pattern ideal, then the saturation of each power
    t = 2..t_max), rank (Hilbert function by degree, then initial degree)."""
    return VerificationReport(
        "grid verification, M=%s, N=%s"
        % (list(g.row_multiplicities), list(g.col_multiplicities)),
        [inst for unit in results for inst in unit]
        + resurgence_certificate(g).instances,
    )


def check_grid_end_to_end(
    g: FatGrid, max_total: int = MAX_TOTAL_MULTIPLICITY, t_max: int = 2
) -> VerificationReport:
    """Run the grid check plan serially, in plan order; ``hfg verify`` runs
    the same plan and reports it in the same order at every ``--jobs``."""
    plan = grid_check_plan(g, t_max, max_total)
    return grid_report(g, [unit(*args) for unit, args in plan])
