"""Closed-form invariants of a Hadamard fat grid.

Everything here is exact combinatorics on the multiplicity vectors M and N:
the degree tuple obtained by slicing the grid's multiplicity matrix, its
corner sets, the graded minimal free resolution read off from those corners,
the minimal-generator patterns (products of grid lines), the extremal
generator degrees, the Waldschmidt constant, and a certificate, checked
once for every t, that ordinary and symbolic powers of the grid ideal agree
(resurgence one).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .errors import DomainError, GridError
from .fatgrid import FatGrid, GeneratorPattern, symbolic_multiplicities
from .report import CheckInstance, VerificationReport


def _binom2(x: int) -> int:
    """C(x, 2), zero for x < 2; dim of the degree-(x-2) piece of the plane ring."""
    return x * (x - 1) // 2 if x > 1 else 0


@dataclass(frozen=True)
class AlphaTuple:
    """Non-increasing positive degree tuple sliced out of a grid."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise GridError("degree tuple must be non-empty")
        if any(e < 1 for e in self.entries):
            raise GridError("degree tuple entries must be positive")
        if any(
            self.entries[i] < self.entries[i + 1]
            for i in range(len(self.entries) - 1)
        ):
            raise GridError("degree tuple must be non-increasing")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class CornerSets:
    """Outer (C) and inner (V) corners of the staircase of a degree tuple."""

    C: frozenset[tuple[int, int]]
    V: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if len(self.V) != len(self.C) - 1:
            raise GridError("corner sets must satisfy |V| = |C| - 1")


@dataclass(frozen=True)
class ResolutionShifts:
    """Twists of the two free modules in the minimal resolution of the ideal."""

    generator_twists: tuple[int, ...]
    syzygy_twists: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.syzygy_twists) != len(self.generator_twists) - 1:
            raise GridError("resolution needs one fewer syzygy than generators")
        if min(self.syzygy_twists) <= min(self.generator_twists):
            raise GridError(
                "each syzygy twist must exceed the least generator twist"
            )


def tuples_from_multiplicities(matrix) -> list[tuple[int, ...]]:
    """Slice a multiplicity matrix into its truncation tuples.

    Row i with entries w contributes, for every h from 0 to max(w) - 1, the
    tuple of clipped values (w_j - h)_+.  For a grid matrix these are the
    tuples whose entry sums make up the degree tuple.
    """
    tuples: list[tuple[int, ...]] = []
    for row in matrix:
        if any(int(w) < 1 for w in row):
            raise GridError("multiplicity matrix entries must be positive")
        for h in range(max(row)):
            tuples.append(tuple(max(int(w) - h, 0) for w in row))
    return tuples


def s_tuples(g: FatGrid) -> list[tuple[int, ...]]:
    """All truncation tuples of the grid's multiplicity matrix."""
    return tuples_from_multiplicities(g.mult)


def alpha_tuple(g: FatGrid) -> AlphaTuple:
    """Degree tuple of the grid: row sums of the truncation tuples, descending."""
    sums = sorted((sum(t) for t in s_tuples(g)), reverse=True)
    tup = AlphaTuple(tuple(sums))
    r, s = g.shape
    expected_len = sum(m + g.col_multiplicities[-1] - 1 for m in g.row_multiplicities)
    if len(tup) != expected_len:
        raise GridError("degree tuple length bookkeeping failed")
    if sum(tup.entries) != g.scheme_degree():
        raise GridError("degree tuple sum bookkeeping failed")
    return tup


def corner_sets(a: AlphaTuple) -> CornerSets:
    """Corners of the staircase diagram of a non-increasing degree tuple.

    With entries α_1 ≥ … ≥ α_m, the outer corners are {(m,0), (0,α_1)}
    together with (i-1, α_i) at every interior descent α_i < α_{i-1}; the
    inner corners are {(m, α_m)} together with (i-1, α_{i-1}) at the same
    descents (positions 1-based).
    """
    entries = tuple(a)
    m = len(entries)
    c: set[tuple[int, int]] = {(m, 0), (0, entries[0])}
    v: set[tuple[int, int]] = {(m, entries[-1])}
    for i in range(2, m + 1):
        if entries[i - 1] < entries[i - 2]:
            c.add((i - 1, entries[i - 1]))
            v.add((i - 1, entries[i - 2]))
    return CornerSets(frozenset(c), frozenset(v))


def _resolution_from_corners(corners: CornerSets) -> ResolutionShifts:
    return ResolutionShifts(
        tuple(sorted(c1 + c2 for c1, c2 in corners.C)),
        tuple(sorted(v1 + v2 for v1, v2 in corners.V)),
    )


def resolution(g: FatGrid) -> ResolutionShifts:
    """Twists of the grid ideal's minimal free resolution, from the corners."""
    return _resolution_from_corners(corner_sets(alpha_tuple(g)))


def _bounds(M, N) -> tuple[list[int], list[int]]:
    """Unclipped exponent bounds: a_i = m_{r-i+1} + n_s - 1, b_j = n_{s-j+1} - n_s."""
    r, s = len(M), len(N)
    a = [M[r - 1 - i] + N[-1] - 1 for i in range(r)]
    b = [N[s - 1 - j] - N[-1] for j in range(s)]
    return a, b


def _exponent_row(a, b, k) -> tuple[int, ...]:
    """Pattern k's exponents as one row: (a_i - k)_+ for every i, then
    (b_j + k)_+ for every j."""
    return tuple(max(x - k, 0) for x in a) + tuple(max(y + k, 0) for y in b)


def _patterns(M, N) -> list[GeneratorPattern]:
    """The m_r + n_s patterns of sorted multiplicity vectors M and N."""
    a, b = _bounds(M, N)
    r = len(a)
    return [
        GeneratorPattern(k, row[:r], row[r:])
        for k in range(M[-1] + N[-1])
        for row in [_exponent_row(a, b, k)]
    ]


def generator_patterns(g: FatGrid) -> list[GeneratorPattern]:
    """The m_r + n_s minimal-generator patterns of the grid ideal."""
    return _patterns(g.row_multiplicities, g.col_multiplicities)


def alpha_degree(g: FatGrid) -> int:
    """Least degree of a generator: sum(M) + (top r entries of N) - r."""
    r = g.shape[0]
    return (
        sum(g.row_multiplicities)
        + sum(g.col_multiplicities[-r:])
        - r
    )


def beta_degree(g: FatGrid) -> int:
    """Largest degree of a minimal generator."""
    M, N = g.row_multiplicities, g.col_multiplicities
    return max(
        sum(M[-1] + n - 1 for n in N),
        sum(N[-1] + m - 1 for m in M),
    )


def waldschmidt(g: FatGrid) -> Fraction:
    """Waldschmidt constant of the grid ideal; equals the initial degree."""
    return Fraction(alpha_degree(g))


def hilbert_from_resolution(shifts: ResolutionShifts, d: int) -> int:
    """dim of the degree-d piece of the ideal, read off the resolution twists."""
    if d < 0:
        raise DomainError("degree must be non-negative")
    return sum(_binom2(d - c + 2) for c in shifts.generator_twists) - sum(
        _binom2(d - v + 2) for v in shifts.syzygy_twists
    )


def _scaling_text(t: int, a, b, count: int) -> str:
    return "t=%d: a'=%s, b'=%s, %d patterns" % (t, a, b, count)


def _balanced_text(t: int, count: int) -> str:
    return "t=%d: all %d symbolic patterns are balanced products" % (t, count)


def _balanced_witness(g: FatGrid, rows, t: int) -> str:
    """The t-th symbolic patterns against the balanced products of base
    patterns, walked in order of K: the split of K + 1 is that of K with one
    factor of index floor(K/t) raised by one."""
    sym_patterns = _patterns(*symbolic_multiplicities(g, t))
    product = tuple(t * x for x in rows[0])
    mismatches = []
    for pat in sym_patterns:
        if pat.h_exponents + pat.v_exponents != product:
            mismatches.append(pat.k)
        q = pat.k // t
        if q + 1 < len(rows):
            product = tuple(map(add, product, map(sub, rows[q + 1], rows[q])))
    if mismatches:
        return "t=%d: mismatch at K=%s" % (t, mismatches)
    return _balanced_text(t, len(sym_patterns))


def resurgence_certificate(g: FatGrid) -> VerificationReport:
    """Certify that ordinary and symbolic powers of the grid ideal agree for
    every t, so the resurgence is one (Bocci and Harbourne, 2010).

    Base pattern k < mu = m_r + n_s has exponents (a_i - k)_+, (b_j + k)_+.
    Once the t-th symbolic grid has bounds t*a, t*b and t*(mu - 1) + 1
    patterns, subadditivity of x -> max(x, 0) makes a product of base
    patterns k_1..k_t dominate symbolic pattern K = k_1 + ... + k_t, with
    equality on the balanced split of K (each k_l is floor or ceil of K/t).
    Bounds and count are affine in t, so t = 1 and t = 2 decide them.  The
    balanced products are computed at t = 2 and t = 3 as a witness; t = 3
    has splits with two ceilings, and tests that affinity.  No oracle runs
    here: the ideal-level equality is the elimination unit of ``hfg.verify``.
    """
    a, b = _bounds(g.row_multiplicities, g.col_multiplicities)
    rows = [pat.h_exponents + pat.v_exponents for pat in generator_patterns(g)]
    mu = len(rows)
    expected, computed = [], []
    for t in (1, 2):
        mt, nt = symbolic_multiplicities(g, t)
        at, bt = _bounds(mt, nt)
        expected.append(
            _scaling_text(t, [t * x for x in a], [t * y for y in b], t * (mu - 1) + 1)
        )
        computed.append(_scaling_text(t, at, bt, mt[-1] + nt[-1]))
    witness = [_balanced_witness(g, rows, t) for t in (2, 3)]
    balanced = [_balanced_text(t, t * (mu - 1) + 1) for t in (2, 3)]
    return VerificationReport(
        "resurgence certificate (rho = 1) for every t",
        [
            CheckInstance(
                "every t: a t-fold product of base patterns dominates symbolic"
                " pattern K = k_1+...+k_t, sum_l (a_i - k_l)_+ >= (t*a_i - K)_+"
                " and sum_l (b_j + k_l)_+ >= (t*b_j + K)_+ (subadditivity)",
                "; ".join(expected),
                "; ".join(computed),
                expected == computed,
            ),
            CheckInstance(
                "every t: symbolic pattern K is the product of base patterns on"
                " the balanced split of K (each k_l is floor(K/t) or ceil(K/t)),"
                " where both inequalities are equalities",
                "; ".join(balanced),
                "; ".join(witness),
                balanced == witness,
            ),
        ],
    )


def invariants_report(g: FatGrid, t_max: int = 2) -> dict:
    """All closed-form invariants of the grid as one JSON-ready mapping.

    The resurgence certificate holds for every t, so ``t_max`` is ignored;
    the keyword stays until the benchmark change of ROADMAP item 8, since
    perfbench passes ``t_max=2``.  A failed certificate is an invalid
    grid: it backs the printed resurgence 1."""
    tup = alpha_tuple(g)
    corners = corner_sets(tup)
    shifts = _resolution_from_corners(corners)
    w = waldschmidt(g)
    certificate = resurgence_certificate(g)
    if not certificate.passed:
        raise GridError(
            "resurgence certificate failed: %s"
            % "; ".join(inst.label for inst in certificate.failures())
        )
    return {
        "alpha_tuple": list(tup.entries),
        "C": [list(pair) for pair in sorted(corners.C)],
        "V": [list(pair) for pair in sorted(corners.V)],
        "generator_twists": list(shifts.generator_twists),
        "syzygy_twists": list(shifts.syzygy_twists),
        "alpha": alpha_degree(g),
        "beta": beta_degree(g),
        "waldschmidt": "%d/%d" % (w.numerator, w.denominator),
        "resurgence": 1,
    }
