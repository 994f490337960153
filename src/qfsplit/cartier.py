"""Frobenius descent data of a hypersurface and the invariants built from it.

For a homogeneous f of Calabi-Yau degree d = sum(weights) this module
constructs the triple (v_f, lambda, T) over the ordered degree-d monomial
basis:

* ``v_f`` -- the coefficient column of f as an int64 coordinate array,
  kept on f: the vector a form built by :meth:`MonomialBasis.polynomial`
  was given, else read off f once (:meth:`MonomialBasis.coefficients`);
* ``lambda`` -- the row of u-images u(f^(p-2) * M_i), scalars by degree count;
* ``T`` -- the matrix of the semilinear map h -> u(delta(f) * f^(p-2) * h)
  in the monomial basis (column j expands the image of M_j).

The twisted Krylov rows R_1 = F(lambda), R_{n+1} = F(R_n T) then decide
everything: the quasi-F-split height is the first n with R_n v_f != 0, and
when no such n exists the non-splitting index is the first n at which the
stacked rows R_1..R_n become linearly dependent.  (Over F_p the twist is
invisible and R_n = lambda T^(n-1); over extensions the Frobenius must wrap
the whole product -- R_n . v_f equals the level-n corner coefficient of the
descent products, which the suite checks over F_4.)  A Fedder-style corner
test on honest polynomial products is kept alongside as an independent
oracle for small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from . import _fpbundle, _linalg
from .errors import ResourceError, UsageError
from .ffield import Field, RawElement
from .polyring import (
    Polynomial,
    RingConfig,
    corner_coefficient,
    delta,
    format_poly,
    mul_residues,
    poly_pow,
    prune,
)
from .values import Infinite, is_infinite, value_to_json

K3_QUARTIC_WEIGHTS = (1, 1, 1, 1)
K3_SEXTIC_WEIGHTS = (1, 1, 1, 3)

FAMILY_QUARTIC = "quartic_K3"
FAMILY_SEXTIC = "weighted_sextic_K3"
FAMILY_GENERAL = "general_CY"

SIGMA_EQUALS_TAU = "equals_tau"
SIGMA_AMBIGUOUS = "tau_or_tau_plus_1_char2_quartic"
SIGMA_NOT_APPLICABLE = "not_applicable"


def family_of(ring: RingConfig) -> str:
    if ring.weights == K3_QUARTIC_WEIGHTS:
        return FAMILY_QUARTIC
    if ring.weights == K3_SEXTIC_WEIGHTS:
        return FAMILY_SEXTIC
    return FAMILY_GENERAL


# ---------------------------------------------------------------------------
# monomial basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialBasis:
    """All weighted-degree-d monomials in the frozen canonical order.

    The basis keeps its ring's derived tables, each built on first use:
    ``index``, ``residue_columns`` and the numpy route's ``tables``.
    """

    ring: RingConfig
    monomials: tuple

    @property
    def m(self) -> int:
        return len(self.monomials)

    @cached_property
    def index(self) -> dict:
        """Monomial -> its position in the basis."""
        return {mono: i for i, mono in enumerate(self.monomials)}

    @cached_property
    def residue_columns(self) -> dict:
        """Residue class mod p -> [(j, M_j)]: the columns a kernel term of that class feeds.

        Column j reads the kernel terms x^e with e + M_j = (p-1, ..., p-1) mod p,
        i.e. the class (p-1-M_j) mod p; distinct monomials may share a class.
        """
        p = self.ring.field.p
        out: dict = {}
        for j, mono in enumerate(self.monomials):
            out.setdefault(tuple((p - 1 - e) % p for e in mono), []).append((j, mono))
        return out

    @cached_property
    def tables(self) -> "_fpbundle.RingTables":
        """The numpy route's per-ring arrays."""
        return _fpbundle.RingTables(self)

    def index_of(self, exps) -> int:
        return self.index[tuple(exps)]

    def polynomial(self, coeffs: Sequence[RawElement]) -> Polynomial:
        """The degree-d polynomial with the given raw coefficient vector, which it keeps."""
        if len(coeffs) != self.m:
            raise UsageError(f"expected {self.m} coefficients, got {len(coeffs)}")
        f = Polynomial(self.ring, dict(zip(self.monomials, coeffs)))
        f._coeffs = _linalg.make_ops(self.ring.field).lift(coeffs)
        return f

    def coefficients(self, f: Polynomial) -> np.ndarray:
        """f's coefficient vector on the basis, read on the first call and kept on f.

        A read-only int64 coordinate array (see :mod:`qfsplit._linalg`): (m,), or (m, e).
        """
        if f._coeffs is None:
            coeffs = [f.coefficient(mono) for mono in self.monomials]
            f._coeffs = _linalg.make_ops(self.ring.field).lift(coeffs)
        return f._coeffs


@lru_cache(maxsize=None)
def basis(ring: RingConfig) -> MonomialBasis:
    """Exhaustive, duplicate-free basis: descending-lex exponent order."""
    weights = ring.weights
    nv = ring.num_vars
    found = []

    def rec(i: int, remaining: int, acc: list):
        if i == nv - 1:
            if remaining % weights[i] == 0:
                found.append(tuple(acc + [remaining // weights[i]]))
            return
        for e in range(remaining // weights[i] + 1):
            rec(i + 1, remaining - e * weights[i], acc + [e])

    rec(0, ring.d, [])
    found.sort(key=lambda t: tuple(-e for e in t))
    return MonomialBasis(ring, tuple(found))


# ---------------------------------------------------------------------------
# bundle construction
# ---------------------------------------------------------------------------

class FrobeniusBundle:
    """The data (basis, f, v_f, lambda, T); built by :func:`bundle`.

    v_f, lambda and T are coordinate arrays (see :mod:`qfsplit._linalg`):
    (m,), (m,) and (m, m), with a last axis of length e over F_{p^e}.
    ``v_f`` is the read-only array f keeps, ``bas.coefficients(f)`` itself.
    ``lam`` and ``T`` may be lists of raw values, which read as the same
    arrays; the bundle keeps them only as ``lam_coords`` and ``T_coords``.
    The backend forms of lambda and v_f are built once, by ``ops`` (default
    the field's :func:`_linalg.make_ops` backend); the step matrix ``T_mat``
    is built on first use, since a walk that stops at R_1 never reads it.
    Semantically immutable; the Krylov walk is memoized, so share an
    instance across threads only behind a lock (or keep instances
    thread-local, as the scan workers do).
    """

    def __init__(self, bas: MonomialBasis, f: Polynomial, lam, T, ops=None):
        self.basis = bas
        self.f = f
        self.v_f = bas.coefficients(f)
        self.lam_coords = np.asarray(lam, dtype=np.int64)
        self.T_coords = np.asarray(T, dtype=np.int64)
        self.ops = ops if ops is not None else _linalg.make_ops(bas.ring.field)
        self.lam_row = self.ops.row(self.lam_coords)
        self.v_col = self.ops.column(self.v_f)
        self._walked: tuple | None = None

    @cached_property
    def T_mat(self):
        """T as the backend's Krylov step matrix."""
        return self.ops.matrix(self.T_coords)

    @property
    def ring(self) -> RingConfig:
        return self.basis.ring

    @property
    def field(self) -> Field:
        return self.ring.field

    @property
    def m(self) -> int:
        return self.basis.m

def columns_from_kernel(bas: MonomialBasis, kernel: Polynomial) -> list:
    """Matrix of h -> u_op(kernel * h) on the basis, built term by term.

    u_op reads x^(e + M_j) only when every coordinate is p-1 (mod p), so a
    kernel term x^e feeds exactly the columns j listed under its residue
    class in ``bas.residue_columns``; it lands in row index((e + M_j -
    (p-1)) / p).  Each term is looked up once: O(|kernel| + nnz(T)) work.
    """
    ring = bas.ring
    f = ring.field
    p = f.p
    index = bas.index
    columns = bas.residue_columns
    m = bas.m
    T = [[f.zero] * m for _ in range(m)]
    ifrob, fadd = f.inverse_frobenius, f.add
    for exps, coeff in kernel.term_dict().items():
        hits = columns.get(tuple(e % p for e in exps))
        if hits is None:
            continue
        value = ifrob(coeff)
        for j, mono in hits:
            row = T[index[tuple((a + b - (p - 1)) // p for a, b in zip(exps, mono))]]
            row[j] = fadd(row[j], value)
    return T


def bundle(f: Polynomial) -> FrobeniusBundle:
    """Build the Frobenius descent bundle of a degree-d homogeneous f != 0.

    f is homogeneous of degree d iff it has as many terms as nonzero entries
    in its coefficient vector v_f, ``basis(f.ring).coefficients(f)``, the
    coordinate array f keeps: the witness search, this check, both routes
    and the walk read f's coefficients at most once between them.

    Two routes give the same lambda and T, and each is the other's test
    oracle.  The numpy route returns coordinate arrays; the dict route
    returns lists of raw values, which :class:`FrobeniusBundle` reads as
    the same arrays, once.  The numpy route (:mod:`qfsplit._fpbundle`) is
    taken iff :func:`_fpbundle.admits` holds, whose docstring states the
    rule.  On it, p = 2 (every F_(2^e)) builds T as a fixed quadratic form
    in v_f: delta(f) is the sum of c_a c_b x^(M_a + M_b) over a < b, and
    f^(p-2) = 1.  The rings the rule refuses take the dict route:
    ``poly_pow``, the Witt-sum ``delta``, ``mul_residues`` and
    :func:`columns_from_kernel` on term dicts.
    """
    ring = f.ring
    if f.is_zero():
        raise UsageError("the zero polynomial has no Frobenius bundle")
    bas = basis(ring)
    if np.count_nonzero(_linalg.make_ops(ring.field).nonzero(bas.coefficients(f))) != len(f):
        raise UsageError(
            f"bundle requires a homogeneous polynomial of weighted degree {ring.d}"
        )
    if _fpbundle.admits(ring, bas.m):
        lam, T = _fpbundle.lam_and_T(f, bas)
    else:
        lam, T = dict_lam_and_T(f, bas)
    return FrobeniusBundle(bas, f, lam, T)


def dict_lam_and_T(f: Polynomial, bas: MonomialBasis) -> tuple:
    """The raw lambda row and T matrix of f on the dict route; see :func:`bundle`."""
    ring = bas.ring
    fld = ring.field
    p = fld.p
    fp2 = poly_pow(f, p - 2)
    corner = (p - 1,) * ring.num_vars
    lam = []
    for mono in bas.monomials:
        rest = tuple(c - e for c, e in zip(corner, mono))
        if any(e < 0 for e in rest):
            lam.append(fld.zero)
        else:
            lam.append(fld.inverse_frobenius(fp2.coefficient(rest)))

    # T reads a kernel term only through u_op, i.e. only when its residue
    # class mod p is (p-1-M_j) mod p for some basis monomial M_j.  A product
    # term's class is the sum of its factors' classes, so multiplying just the
    # class-compatible term pairs yields exactly the terms T reads.
    kernel = mul_residues(delta(f), fp2, bas.residue_columns)
    return lam, columns_from_kernel(bas, kernel)


# ---------------------------------------------------------------------------
# height and non-splitting index
# ---------------------------------------------------------------------------

def krylov_rows(b: FrobeniusBundle, T=None) -> Iterator:
    """The backend rows R_1 = F(lambda), R_{n+1} = F(R_n T), without end.

    ``T`` is a step matrix from ``b.ops`` (default the bundle's own, read
    only once a second row is asked for), so each step is one
    ``row_times_matrix`` call.  Each row is computed only when the consumer
    asks for it, so taking n rows costs n-1 steps.
    """
    ops = b.ops
    R = ops.frobenius_row(b.lam_row)
    yield R
    if T is None:
        T = b.T_mat
    while True:
        R = ops.row_times_matrix(R, T)
        yield R


def default_height_cap(b: FrobeniusBundle) -> int:
    """m, which is exhaustive over every coefficient field F_q, q = p^e.

    Let V_k be the F_q-span of R_1..R_k.  The map L(R) = F(R T) is
    Frobenius-semilinear, L(aR + bR') = F(a) L(R) + F(b) L(R'), so if
    R_{k+1} = sum a_i R_i lies in V_k then R_{k+2} = sum F(a_i) R_{i+1} lies
    in V_{k+1} = V_k: once the chain V_1 <= V_2 <= ... stalls it is constant.
    The dimensions grow strictly until the first stall and stay <= m, so
    V_n = V_m for every n >= m.  R . v_f = 0 is F_q-linear in R, hence if
    R_n . v_f vanishes for n <= m it vanishes on V_m and for every n.  (Over
    F_p the twist is trivial and this is the Krylov span of lambda under T.)
    The same argument lets the walk in :func:`height` stop at the first
    stall: every later row lies in the span of rows whose dots vanish.
    """
    return b.m


def default_ns_cap(b: FrobeniusBundle) -> int:
    """m + 1: the stacked rows R_1..R_n lie in F_q^m, so they drop rank by n = m + 1."""
    return b.m + 1


def _walk(b: FrobeniusBundle) -> tuple:
    """(height, ns) from one pass over R_1, R_2, ..., memoized on the bundle.

    The pass stops at the first n with R_n . v_f != 0 (height n, ns
    infinite) or at the first stall, R_n in span(R_1..R_{n-1}) (ns = n).
    Past a stall no dot is nonzero (see :func:`default_height_cap`), so the
    height is then infinite.  The rows lie in F_q^m, so one of the two stops
    comes by n = m + 1 (see :func:`default_ns_cap`).
    """
    if b._walked is not None:
        return b._walked
    ops = b.ops
    v = b.v_col
    tracker = ops.rank_tracker()
    for n, R in enumerate(islice(krylov_rows(b), default_ns_cap(b)), 1):
        if not ops.dot_is_zero(R, v):
            b._walked = (n, Infinite(cap=None))
            return b._walked
        if not tracker.add_row(R):
            b._walked = (Infinite(cap=default_height_cap(b)), n)
            return b._walked
    raise AssertionError("m + 1 Krylov rows in F_q^m without a stall")


def height(b: FrobeniusBundle):
    """Least n with R_n v_f != 0 (at most m), else an infinity at cap m."""
    return _walk(b)[0]


def ns_index(b: FrobeniusBundle):
    """Non-splitting index: first rank drop of the stacked rows R_1..R_n.

    Defined (and finite, at most m+1) when the height is infinite; when the
    height is finite the hypersurface is quasi-F-split and the index is
    unconditionally infinite.  Shares its walk with :func:`height`.
    """
    return _walk(b)[1]


# ---------------------------------------------------------------------------
# Fedder-style corner oracle
# ---------------------------------------------------------------------------

def descent_product(
    f: Polynomial,
    n: int,
    fp2: Polynomial | None = None,
    df: Polynomial | None = None,
) -> Polynomial:
    """Oracle helper for the corner tests: the n-th descent product of f, mod m^[p^n].

    This is f^(p-2) * prod_{i=0}^{n-2} F^i( F(f^(p-2)) * delta(f) ), the
    polynomial whose product with a degree-d form is corner-tested at level
    n.  Exponents are capped at p^n throughout (sound for corner tests), and
    factors are multiplied most-twisted first so the cap prunes early.
    Degree growth limits this to n <= 4.
    """
    if not 1 <= n <= 4:
        raise ResourceError("descent products are capped at n = 4 (degree growth (p^n - 1)d)")
    p = f.ring.field.p
    bound = p**n
    if fp2 is None:
        fp2 = poly_pow(f, p - 2)
    if n == 1:
        return prune(fp2, bound)
    if df is None:
        df = delta(f)
    base = fp2.frobenius_twist(1) * df
    acc = prune(base.frobenius_twist(n - 2), bound)
    for i in range(n - 3, -1, -1):
        acc = prune(acc * prune(base.frobenius_twist(i), bound), bound)
    return prune(acc * prune(fp2, bound), bound)


def fedder_height_oracle(f: Polynomial, n_max: int = 3) -> int | None:
    """Oracle for :func:`height`: direct corner tests on polynomial products.

    Prime fields with p in {2, 3} only.  Returns the least n <= n_max whose
    level-n corner coefficient is nonzero, or None meaning
    "height >= n_max + 1".  Independent of the matrix recursion; agreement
    with :func:`height` on the overlap is a standing cross-check.
    """
    fld = f.ring.field
    if fld.e != 1:
        raise UsageError("the corner oracle is defined over prime fields only")
    if fld.p not in (2, 3):
        raise UsageError("the corner oracle supports p in {2, 3}")
    if n_max < 1:
        raise UsageError("n_max must be positive")
    if n_max > 4:
        raise ResourceError("the corner oracle is capped at n_max = 4")
    p = fld.p
    fp2 = poly_pow(f, p - 2)
    df = delta(f)
    for n in range(1, n_max + 1):
        bound = p**n
        element = prune(descent_product(f, n, fp2=fp2, df=df) * prune(f, bound), bound)
        if element.is_zero():
            continue
        if not fld.is_zero(corner_coefficient(element, n)):
            return n
    return None


# ---------------------------------------------------------------------------
# invariant dictionary for the K3 families
# ---------------------------------------------------------------------------

def _in_axis_ideal(terms, i: int, j: int) -> bool:
    """Whether every exponent vector in ``terms`` involves x_i or x_j: f in (x_i, x_j)."""
    return all(e[i] + e[j] >= 1 for e in terms)


def find_axis_line(f: Polynomial) -> tuple | None:
    """A pair (i, j) with f in (x_i, x_j), i.e. the line x_i = x_j = 0 lies on V(f)."""
    nv = f.ring.num_vars
    terms = list(f.term_dict())
    for i in range(nv):
        for j in range(i + 1, nv):
            if _in_axis_ideal(terms, i, j):
                return (i, j)
    return None


def _check_axis_line(f: Polynomial, line: tuple) -> None:
    """Reject ``line`` unless it is (i, j), i != j, naming an axis line on V(f)."""
    nv = f.ring.num_vars
    if len(line) != 2 or line[0] == line[1] or not all(0 <= i < nv for i in line):
        raise UsageError(f"a line needs two distinct variable indices in 0..{nv - 1}, got {line}")
    i, j = line
    if not _in_axis_ideal(f.term_dict(), i, j):
        raise UsageError(f"the line x{i} = x{j} = 0 does not lie on the hypersurface")


@dataclass
class InvariantReport:
    """Computed invariants of one hypersurface with per-value provenance.

    ``equation``, the canonical text of ``f``, is rendered on demand: the
    scans and cross-checks read only the invariants.
    """

    f: Polynomial
    p: int
    ext_degree: int
    weights: tuple
    family: str
    height: "int | Infinite"
    ns: "int | Infinite"
    tau: "int | Infinite | None"
    sigma_note: str
    caps_used: dict
    provenance: dict
    line: tuple | None = None

    @property
    def equation(self) -> str:
        return format_poly(self.f)

    def to_json_dict(self) -> dict:
        return {
            "equation": self.equation,
            "p": self.p,
            "ext_degree": self.ext_degree,
            "weights": list(self.weights),
            "family": self.family,
            "height": value_to_json(self.height),
            "ns": value_to_json(self.ns),
            "tau": None if self.tau is None else value_to_json(self.tau),
            "sigma_note": self.sigma_note,
            "caps_used": self.caps_used,
            "provenance": self.provenance,
            "line": list(self.line) if self.line else None,
        }


def tau_from_ns(ns) -> "int | Infinite":
    """tau = ns if ns <= 9, 10 for any finite ns >= 10, infinite otherwise."""
    if is_infinite(ns):
        return Infinite(cap=None)
    return ns if ns <= 9 else 10


def artin_report(f: Polynomial, line: tuple | None = None) -> InvariantReport:
    """Full invariant report: height, ns, and for the two K3 families tau.

    tau is the Artin invariant only when V(f) is smooth, which is the
    caller's responsibility (see the scan module for the heuristic witness
    search).  ``line`` names a coordinate-axis line (i, j) on the surface,
    which upgrades the sigma note for p = 2 quartics; before any other work
    it is rejected unless i != j are variable indices and f lies in
    (x_i, x_j).
    """
    ring = f.ring
    fam = family_of(ring)
    if line is not None:
        _check_axis_line(f, line)
    b = bundle(f)
    height_cap = default_height_cap(b)
    ns_cap = default_ns_cap(b)
    h = height(b)
    ns = ns_index(b)

    if fam == FAMILY_GENERAL:
        tau = None
        note = SIGMA_NOT_APPLICABLE
    else:
        tau = tau_from_ns(ns)
        if fam == FAMILY_SEXTIC or ring.field.p != 2:
            note = SIGMA_EQUALS_TAU
        else:
            note = SIGMA_EQUALS_TAU if line is not None else SIGMA_AMBIGUOUS

    provenance = {
        "height": {"method": "krylov-matrix", "cap": height_cap, "exact": True},
        "ns": (
            {"method": "rank-profile", "cap": ns_cap}
            if is_infinite(h)
            else {"method": "finite-height", "cap": None}
        ),
        "tau": {"method": "ns-dictionary"} if tau is not None else {"method": "not-applicable"},
    }
    return InvariantReport(
        f=f,
        p=ring.field.p,
        ext_degree=ring.field.e,
        weights=ring.weights,
        family=fam,
        height=h,
        ns=ns,
        tau=tau,
        sigma_note=note,
        caps_used={"height": height_cap, "ns": ns_cap},
        provenance=provenance,
        line=line,
    )

