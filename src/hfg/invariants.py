"""Closed-form invariants of a Hadamard fat grid.

Everything here is exact combinatorics on the multiplicity vectors M and N:
the degree tuple obtained by slicing the grid's multiplicity matrix, its
corner sets, the graded minimal free resolution read off from those corners,
the minimal-generator patterns (products of grid lines), the extremal
generator degrees, the Waldschmidt constant, and a certificate that ordinary
and symbolic powers of the grid ideal agree (resurgence one).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, ge

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


def _balanced_split(kbar: int, t: int) -> list[int]:
    """t integers summing to kbar, each floor(kbar/t) or ceil(kbar/t)."""
    q, rem = divmod(kbar, t)
    return [q + 1] * rem + [q] * (t - rem)


def certificate_depth(t_max) -> int:
    """The resurgence certificate's depth as an int, rejected below 1."""
    t_max = int(t_max)
    if t_max < 1:
        raise DomainError("certificate depth must be a positive integer")
    return t_max


def resurgence_certificate(g: FatGrid, t_max: int) -> VerificationReport:
    """Certify combinatorially that ordinary and symbolic powers agree for
    t = 2..t_max; the first symbolic power is the grid ideal itself, so
    t_max = 1 has no instance.

    For each t the certificate checks that the generator patterns of the
    t-th symbolic grid scale the base exponent bounds by t, that each
    symbolic pattern equals the balanced t-fold product of base patterns,
    and that every t-fold product of base patterns is divisible by a
    symbolic generator.  Together these exhibit the two containments whose
    conjunction forces resurgence one.  No oracle runs here; the
    ideal-level equality is the elimination unit of ``hfg.verify``.
    """
    t_max = certificate_depth(t_max)
    checks = []
    base_patterns = generator_patterns(g)
    a, b = _bounds(g.row_multiplicities, g.col_multiplicities)
    rows = [pat.h_exponents + pat.v_exponents for pat in base_patterns]
    zero = (0,) * (len(a) + len(b))
    # (combo, sum(combo), exponent row) of every (t-1)-fold product, in the
    # order of combinations_with_replacement; t = 2 extends the base rows
    products = [((k,), k, row) for k, row in enumerate(rows)]
    for t in range(2, t_max + 1):
        # the symbolic grid's patterns depend on its multiplicities alone
        mt, nt = symbolic_multiplicities(g, t)
        sym_patterns = _patterns(mt, nt)
        at, bt = _bounds(mt, nt)
        structural = (
            at == [t * x for x in a]
            and bt == [t * y for y in b]
            and len(sym_patterns) == t * (len(base_patterns) - 1) + 1
        )
        targets = [pat.h_exponents + pat.v_exponents for pat in sym_patterns]

        mismatches: list[int] = []
        for pat, target in zip(sym_patterns, targets):
            total = zero
            for k in _balanced_split(pat.k, t):
                row = rows[k] if 0 <= k < len(rows) else _exponent_row(a, b, k)
                total = tuple(map(add, total, row))
            if total != target:
                mismatches.append(pat.k)

        products = [
            (combo + (k,), kbar + k, tuple(map(add, total, rows[k])))
            for combo, kbar, total in products
            for k in range(combo[-1], len(rows))
        ]
        # a product whose index sum has no symbolic pattern is undominated
        undominated = [
            combo
            for combo, kbar, total in products
            if kbar >= len(targets) or not all(map(ge, total, targets[kbar]))
        ]
        checks += [
            CheckInstance(
                "t=%d: symbolic pattern family scales the base exponent bounds by t"
                % t,
                "a'=t*a, b'=t*b, %d patterns" % (t * (len(base_patterns) - 1) + 1),
                "a'=%s, b'=%s, %d patterns" % (at, bt, len(sym_patterns)),
                structural,
            ),
            CheckInstance(
                "t=%d: every symbolic pattern is the balanced t-fold product of"
                " base patterns" % t,
                "all %d patterns match" % len(sym_patterns),
                "all match" if not mismatches else "mismatch at k=%s" % mismatches,
                not mismatches,
            ),
            CheckInstance(
                "t=%d: every t-fold product of base patterns is divisible by a"
                " symbolic generator" % t,
                "all products dominate",
                "all dominate"
                if not undominated
                else "failures at %s" % undominated[:3],
                not undominated,
            ),
        ]
    return VerificationReport(
        "resurgence certificate (rho = 1) up to t = %d" % t_max, checks
    )


def invariants_report(g: FatGrid, t_max: int = 2) -> dict:
    """All closed-form invariants of the grid as one JSON-ready mapping."""
    tup = alpha_tuple(g)
    corners = corner_sets(tup)
    shifts = _resolution_from_corners(corners)
    w = waldschmidt(g)
    certificate = resurgence_certificate(g, t_max)
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
