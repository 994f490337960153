"""Closed-form invariants of Delsarte K3 surfaces from their exponent matrix.

A Delsarte surface is cut out by a sum of four monomials; its 4x4 exponent
matrix A determines an integer e_A = |det A| / gcd((1,1,1,1) adj(A), |det A|),
and for smooth members the Artin invariant is the least n with
p^n = -1 (mod e_A), the height the least n with p^n = 1 (mod e_A) when no
such sign flip occurs.  Twenty built-in families (ten per K3 weight system)
carry their catalogued |det| and e_A values plus the list of special primes
at which smoothness was verified outside the generic hypotheses; formulas
are only evaluated at primes where smoothness is known.

All integer arithmetic is exact (Python ints; |det| <= 432 here).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Sequence

from . import cartier
from .cartier import K3_QUARTIC_WEIGHTS, K3_SEXTIC_WEIGHTS
from .errors import DomainError, UsageError
from .ffield import _is_prime, field
from .polyring import RingConfig, parse_poly
from .values import is_infinite


def _require_prime(p: int) -> None:
    if not _is_prime(p):
        raise UsageError(f"the characteristic must be prime, got {p}")


def _minor3(a, rows, cols) -> int:
    (r0, r1, r2), (c0, c1, c2) = rows, cols
    return (
        a[r0][c0] * (a[r1][c1] * a[r2][c2] - a[r1][c2] * a[r2][c1])
        - a[r0][c1] * (a[r1][c0] * a[r2][c2] - a[r1][c2] * a[r2][c0])
        + a[r0][c2] * (a[r1][c0] * a[r2][c1] - a[r1][c1] * a[r2][c0])
    )


def _adjugate4(a: Sequence[Sequence[int]]) -> list:
    adj = [[0] * 4 for _ in range(4)]
    idx = range(4)
    for i in idx:
        rows = [r for r in idx if r != i]
        for j in idx:
            cols = [c for c in idx if c != j]
            cof = _minor3(a, rows, cols) * (-1 if (i + j) % 2 else 1)
            adj[j][i] = cof  # adjugate is the transposed cofactor matrix
    return adj


@dataclass(frozen=True)
class DelsarteMatrix:
    """4x4 nonnegative exponent matrix with the weighted degree condition."""

    rows: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.rows) != 4 or any(len(r) != 4 for r in self.rows):
            raise UsageError("exponent matrix must be 4x4")
        if any(e < 0 for r in self.rows for e in r):
            raise UsageError("exponent matrix entries must be nonnegative")
        if self.weights not in (K3_QUARTIC_WEIGHTS, K3_SEXTIC_WEIGHTS):
            raise UsageError("supported weight systems are (1,1,1,1) and (1,1,1,3)")
        d = sum(self.weights)
        for i, row in enumerate(self.rows):
            if sum(e * q for e, q in zip(row, self.weights)) != d:
                raise UsageError(f"row {i} violates the weighted degree condition (= {d})")

    def equation(self) -> str:
        terms = []
        for row in self.rows:
            factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(row) if e]
            terms.append("*".join(factors))
        return " + ".join(terms)


@dataclass(frozen=True)
class EInvariant:
    det: int
    adjugate: tuple
    alpha: tuple
    g: int
    e_A: int


def e_invariant(A: DelsarteMatrix) -> EInvariant:
    """Exact (det, adjugate, alpha, g, e_A); |det| is used so e_A > 0."""
    rows = A.rows
    adj = _adjugate4(rows)
    det = sum(rows[0][j] * adj[j][0] for j in range(4))  # expansion along the first row
    if det == 0:
        raise DomainError("singular exponent matrix: the invariant is undefined")
    alpha = tuple(sum(adj[i][j] for i in range(4)) for j in range(4))
    d_abs = abs(det)
    g = gcd(d_abs, gcd(*(abs(a) for a in alpha)))
    return EInvariant(det=det, adjugate=tuple(tuple(r) for r in adj), alpha=alpha, g=g, e_A=d_abs // g)


@dataclass(frozen=True)
class DelsarteResult:
    kind: str  # "sigma" (supersingular) or "height" (finite height)
    value: int
    e_A: int


def order_scan(p: int, e_A: int) -> DelsarteResult:
    """Scan p^n mod e_A: first -1 gives sigma = n, else first 1 gives height = n."""
    if e_A < 1:
        raise DomainError("e_A must be positive")
    if e_A > 1 and e_A % p == 0:
        raise DomainError(f"p = {p} divides e_A = {e_A}; the order scan is undefined")
    power = 1
    for n in range(1, e_A + 1):
        power = (power * p) % e_A
        if power == (e_A - 1) % e_A:
            return DelsarteResult(kind="sigma", value=n, e_A=e_A)
        if power == 1 % e_A:
            return DelsarteResult(kind="height", value=n, e_A=e_A)
    raise AssertionError("multiplicative order not reached within e_A steps")


def delsarte_invariants(A: DelsarteMatrix, p: int) -> DelsarteResult:
    """Artin invariant or height of the smooth Delsarte surface for A at p.

    Preconditions: p prime, p does not divide e_A.  Smoothness at p is the
    caller's responsibility; for the built-in families use
    :func:`admissible_primes` / :func:`check_admissible`.
    """
    _require_prime(p)
    inv = e_invariant(A)
    if inv.e_A > 1 and inv.e_A % p == 0:
        raise DomainError(f"p = {p} divides e_A = {inv.e_A} for {A.equation()}")
    return order_scan(p, inv.e_A)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyRecord:
    index: int
    weights: tuple
    equation: str
    det_abs: int          # catalogued |det A|
    e_A: int              # catalogued invariant
    star: frozenset       # special primes with separately verified smoothness

    def matrix(self) -> DelsarteMatrix:
        return DelsarteMatrix(rows=_exponent_rows(self.equation, self.weights), weights=self.weights)


@lru_cache(maxsize=None)
def _exponent_rows(equation: str, weights: tuple) -> tuple:
    """Exponent vectors of the four monomials, in written order; parsed once per process."""
    ring = RingConfig(field(2), weights)  # coefficients are all 1; field irrelevant
    rows = []
    for chunk in equation.split("+"):
        poly = parse_poly(chunk, ring)
        terms = list(poly.term_dict())
        if len(terms) != 1:
            raise UsageError(f"{chunk!r} is not a single monomial")
        rows.append(terms[0])
    if len(rows) != 4:
        raise UsageError("a Delsarte equation must have exactly four monomials")
    return tuple(rows)


_QUARTIC_FAMILIES = [
    ("x0^4+x1^4+x2^4+x3^4", 256, 4, ()),
    ("x0^4+x1^4+x2^4+x2x3^3", 192, 12, ()),
    # det recomputed exactly: 4*4*(3*3-1*1) = 128 with alpha = (32,32,32,32),
    # so e_A = 4; confirmed by the matrix engine (ordinary iff p = 1 mod 4).
    ("x0^4+x1^4+x2^3x3+x3^3x2", 128, 4, ()),
    ("x0^4+x1^4+x1x2^3+x2x3^3", 144, 36, ()),
    ("x0^4+x0x1^3+x2^4+x2x3^3", 144, 6, ()),
    ("x0^4+x1^3x2+x2^3x3+x3^3x1", 112, 4, (3,)),
    ("x0^4+x0x1^3+x2^3x3+x3^3x2", 96, 12, ()),
    ("x0^3x1+x1^3x0+x2^3x3+x3^3x2", 64, 4, (3,)),
    ("x0^4+x0x1^3+x1x2^3+x2x3^3", 108, 27, (2,)),
    ("x0^3x1+x1^3x2+x2^3x3+x3^3x0", 80, 4, (3, 5)),
]

_SEXTIC_FAMILIES = [
    ("x0^6+x1^6+x2^6+x3^2", 432, 6, ()),
    ("x0^6+x1^6+x2^5x1+x3^2", 360, 30, ()),
    ("x0^6+x1^5x2+x2^5x1+x3^2", 288, 6, (5,)),
    ("x0^6+x1^6+x2^3x3+x3^2", 216, 6, ()),
    ("x0^6+x1^5x0+x2^5x1+x3^2", 300, 50, (3,)),
    ("x0^6+x1^5x0+x2^3x3+x3^2", 180, 15, ()),
    ("x0^6+x1^5x2+x2^3x3+x3^2", 180, 30, ()),
    ("x0^5x1+x1^5x2+x2^5x0+x3^2", 252, 6, (5,)),
    ("x0^5x1+x1^5x0+x2^3x3+x3^2", 144, 6, (5,)),
    ("x0^5x1+x1^5x2+x2^3x3+x3^2", 150, 25, (2, 3)),
]


def builtin_families() -> list:
    """The twenty catalogued smooth Delsarte K3 families."""
    records = []
    for idx, (eq, det_abs, e_a, star) in enumerate(_QUARTIC_FAMILIES):
        records.append(FamilyRecord(idx, K3_QUARTIC_WEIGHTS, eq, det_abs, e_a, frozenset(star)))
    for k, (eq, det_abs, e_a, star) in enumerate(_SEXTIC_FAMILIES):
        records.append(FamilyRecord(10 + k, K3_SEXTIC_WEIGHTS, eq, det_abs, e_a, frozenset(star)))
    return records


def generic_hypotheses_hold(record: FamilyRecord, p: int) -> bool:
    """The closed formula's generic smoothness hypotheses at p.

    p must not divide any nonzero matrix entry, the Calabi-Yau degree, or
    det(A); under these the family is smooth and the formula applies without
    any case analysis.
    """
    rows = _exponent_rows(record.equation, record.weights)
    if any(e and e % p == 0 for row in rows for e in row):
        return False
    if sum(record.weights) % p == 0:
        return False
    if record.det_abs % p == 0:
        return False
    return True


def check_admissible(record: FamilyRecord, p: int) -> None:
    """Raise DomainError unless the formula provably applies to (record, p).

    Admissible means p does not divide e_A and smoothness at p is known:
    either the generic hypotheses hold, or p is in the record's list of
    separately verified special primes.  Outside both, the family may be
    singular at p and the closed form makes no claim.
    """
    _require_prime(p)
    if record.e_A % p == 0:
        raise DomainError(
            f"family #{record.index} ({record.equation}): p = {p} divides e_A = {record.e_A}"
        )
    if not (generic_hypotheses_hold(record, p) or p in record.star):
        raise DomainError(
            f"family #{record.index} ({record.equation}): smoothness at p = {p} is not "
            "established (outside the generic hypotheses and the verified special primes)"
        )


def admissible_primes(record: FamilyRecord, primes: Sequence[int]) -> list:
    out = []
    for p in primes:
        try:
            check_admissible(record, p)
        except DomainError:
            continue
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# cross-validation against the matrix engine
# ---------------------------------------------------------------------------

@dataclass
class CrossCheckRow:
    family: FamilyRecord
    p: int
    formula: DelsarteResult
    matrix_height: "object"
    matrix_ns: "object"
    matrix_tau: "object"
    match: bool


def cross_check(p: int, families: Sequence[FamilyRecord] | None = None) -> list:
    """Run the closed form and the matrix engine side by side at p.

    For every admissible family: a sigma verdict must coincide with a
    supersingular matrix report whose tau is :func:`cartier.tau_from_ns` of
    sigma, and a height verdict must match the matrix height exactly.
    Returns one row per admissible family.
    """
    if families is None:
        families = builtin_families()
    rows = []
    for record in families:
        try:
            check_admissible(record, p)
        except DomainError:
            continue
        formula = delsarte_invariants(record.matrix(), p)
        ring = RingConfig(field(p), record.weights)
        f = parse_poly(record.equation, ring)
        report = cartier.artin_report(f, line=cartier.find_axis_line(f))
        if formula.kind == "sigma":
            match = is_infinite(report.height) and report.tau == cartier.tau_from_ns(formula.value)
        else:
            match = (not is_infinite(report.height)) and report.height == formula.value
        rows.append(
            CrossCheckRow(
                family=record,
                p=p,
                formula=formula,
                matrix_height=report.height,
                matrix_ns=report.ns,
                matrix_tau=report.tau,
                match=match,
            )
        )
    return rows
