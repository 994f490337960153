"""The fiber route of :func:`cartier.bundle`: lambda and T of a sparse form from lattice points.

Write f = sum_(k < t) c_k x^(a_k), with distinct exponent vectors a_k of
weighted degree d and c_k != 0 in F_q, q = p^e, and let A be the n x t
exponent matrix whose columns are the a_k.  The basis monomials are M_0,
..., M_(m-1), and 1 = (1, ..., 1).  The route serves odd p when A has
full column rank t (so t <= n <= 8): every Delsarte form, binomials and
monomials; and, below full rank, when f's fibers have few points to list
(the sparse forms at small p).  It forms no polynomial
product: neither f^(p-2), nor delta, nor the kernel delta * f^(p-2).  It
returns what :mod:`qfsplit._fpbundle` returns, the same int64 coordinate
arrays, lambda eager and a builder of T.

**Fibers.** For N >= 0 the multinomial expansion reads

    f^N = sum_(|alpha| = N) multinom(N; alpha) c^alpha x^(A alpha),

multinom(N; alpha) = N! / prod_k alpha_k!: the coefficient of x^E in f^N
is the sum of multinom(N; alpha) c^alpha over the fiber of E, the alpha >=
0 with A alpha = E, and 0 if it is empty.  |alpha| needs no check, since
x^(A alpha) has weighted degree d |alpha| and so |alpha| is fixed by E.
Where A has full column rank, alpha -> A alpha is injective and a fiber
has at most one point.

**lambda.** lambda_i is the inverse Frobenius F^-1 of the coefficient of
f^(p-2) at (p-1) 1 - M_i (``_fpbundle``, step 2), which has degree (p-2) d.
So lambda_i = F^-1 of the sum of multinom(p-2; alpha) c^alpha over the
fiber of (p-1) 1 - M_i.  Every factorial here is below p, so each weight
is a unit mod p.

**delta.** For any lift chat_k of the c_k to GR(p^2, e) and fhat = sum_k
chat_k x^(a_k), fhat^p = sum_(|beta| = p) multinom(p; beta) chat^beta
x^(A beta).  The vertex terms beta = p e_k have weight 1 and are the terms
chat_k^p x^(p a_k) that the Witt sum subtracts.  Every other beta has all
beta_k < p, so p divides p! but no beta_k!, and multinom(p; beta) is a
multiple of p.  Hence

    delta(f) = (fhat^p - sum_k chat_k^p x^(p a_k)) / p
             = sum_(|beta| = p, beta no vertex) (multinom(p; beta) / p) c^beta x^(A beta)  mod p,

the definition of ``_fpbundle`` step 4, independent of the lift.

**T.** The kernel term x^E feeds cell (i, j) exactly when E = p M_i + (p-1)
1 - M_j (``_fpbundle``, step 5), and T_ij is F^-1 of its coefficient in
delta * f^(p-2).  That coefficient sums (multinom(p; beta) / p)
multinom(p-2; alpha) c^(beta + alpha) over the pairs with A (beta + alpha)
= E, beta no vertex.  Grouped by gamma = beta + alpha, a point of the fiber
of E with |gamma| = 2p - 2,

    T_ij = F^-1(sum_(A gamma = E) c^gamma S(gamma) / p),
    S(gamma) = sum_(beta + alpha = gamma, |beta| = p, beta no vertex) multinom(p; beta) multinom(p-2; alpha),

a sum of multiples of p, so S(gamma) = 0 mod p for every gamma and S(gamma)
/ p is an integer.  T_ij = 0 when the fiber is empty.

**Vandermonde.** The coefficient of y^gamma in (sum_k y_k)^p (sum_k
y_k)^(p-2) = (sum_k y_k)^(2p-2) gives sum_(beta + alpha = gamma)
multinom(p; beta) multinom(p-2; alpha) = multinom(2p-2; gamma).  The vertex
beta = p e_k occurs in that sum iff gamma_k >= p, with weight
multinom(p-2; gamma - p e_k).  So, with the vertex terms removed,

    S(gamma) = multinom(2p-2; gamma) - sum_(k: gamma_k >= p) multinom(p-2; gamma - p e_k),

and S(gamma) / p mod p is (S(gamma) mod p^2) / p.

**Valuations.** |gamma| = 2p - 2 < 2p, so at most one gamma_k reaches p,
and every factorial above has an argument below 2p: k! = p^[k >= p] u(k),
with u(k) the product of 1..k without p, a unit mod p^2.  With P = 1 /
prod_l u(gamma_l) mod p^2 and U = u(2p-2):

* no gamma_k reaches p: S(gamma) = multinom(2p-2; gamma) = p U P, so
  S(gamma) / p = U P mod p;
* gamma_k >= p for one k: multinom(2p-2; gamma) = U P is a unit and the
  vertex term is u(p-2) P u(gamma_k) / u(gamma_k - p), so S(gamma) = P (U -
  u(p-2) u(gamma_k) / u(gamma_k - p)) mod p^2.  Neither term is a multiple
  of p, but their difference is: mod p, u(2p-2) = (p-1)! (p-2)! and
  u(gamma_k) = (p-1)! (gamma_k - p)!, so U = u(p-2) u(gamma_k) / u(gamma_k
  - p) mod p.

So the tables of u(k) mod p^2 and of its inverse, for k <= 2p - 2, give
every weight (:func:`factorials`).

**Which cells, by solving.** Where A has full column rank, at every odd
p, choose t rows r of A whose t x t minor B = A_r is invertible, with
adj(B) B = det(B) I; gamma = adj(B) E_r / det(B) must be integral and
nonnegative, and satisfy the other n - t rows of A gamma = E, which are
checked exactly.  For E = p M_i + E^lambda_j, E^lambda_j = (p-1) 1 - M_j
the target of lambda_j, adj(B) E_r = p adj(B) (M_i)_r + adj(B)
(E^lambda_j)_r.  So cell (i, j) is integral iff the row residue -p adj(B)
(M_i)_r equals the column residue adj(B) (E^lambda_j)_r mod |det B|: one
join of m row keys against m column keys (a sort and ``searchsorted``),
and only the matching cells are solved, in blocks of at most ``BLOCK``.

**Which cells, by enumeration.** Below full rank, when the C(2p - 3 + t,
t - 1) gammas with |gamma| = 2p - 2 are at most ``COMPOSITIONS_MAX``,
:func:`_compositions` lists them, and the alphas with |alpha| = p - 2,
with their weights, once per p and t.  Their cells are read off the
ring's ``_fpbundle.RingTables``.  x^(A alpha) feeds lambda_i for M_i =
(p-1) 1 - A alpha where that is >= 0, the ``rank`` of its box index; x^E,
E = A gamma, feeds the cells (Q + s_j, j) of every column j of the class
E mod p, Q = E // p: its columns are a run of the columns sorted by
class, found by ``searchsorted``.  Q + s_j is a basis monomial: s_j >= 0,
and p (Q + s_j) = E + M_j - (p-1) 1 has weighted degree p d, d being the
sum of the weights.  A gamma may feed several cells, and a cell may have
several points, which lambda and T add up.  Enumeration needs rings that
``_fpbundle.admits``, whose byte budget bounds those tables.

**Plans.** The rank of A alone picks the kind (:meth:`Fibers.plan`): a
:class:`SolvedPlan` at full column rank, else a :class:`ListedPlan`.  Its
cells, points and weights (and rows r and adj(B)) depend on the ring and
f's support alone, and the basis keeps the last ``PLANS`` supports' plans
as ``MonomialBasis.fibers`` (:class:`Fibers`): a form then costs the
powers c^gamma in F_q and one scatter.  lambda's plan is built with the
bundle (and the ring's ``RingTables``, if listed), T's by T's builder.

**Exactness.**

* The solve is on int64: :meth:`Fibers.plan` admits a support only when
  t max|adj(B)| p (d_max + 2) < 2^62, which bounds adj(B) E_r.
* The weights are products mod p^2 < 2^40 of table entries below p^2, on
  int64 by :func:`_mul_mod`, whose products stay below 2^60.
* A listed plan packs only E mod p, whose entries are below p, into the
  ``RingTables`` code fields, which hold exponents up to p d >= 2p; it
  reads the rank table only at box indices of degree-d monomials, M_i and
  Q + s_j.
* c^gamma is computed in F_q on coordinates mod p.  Below q =
  ``LOG_Q_MAX`` it is antilog[(gamma . log c) mod (q - 1)], the tables
  built per field on first use (:func:`_logs`); gamma . log c < t 2p q.
  Above, it is square and multiply with the field's :class:`_linalg.PrimeOps`
  arithmetic, where a product sums at most e^2 products below p^2, which
  the table budget keeps below 2^63.  Each value is then scaled by its
  weight, summed per cell (at most ``COMPOSITIONS_MAX`` values below p) and
  mapped by F^-1.
* The tables of u and 1/u are two int64 arrays of 2p - 1 entries,
  :func:`table_bytes` = 16 (2p - 1) bytes, built on first use and kept for
  the last two primes.  The rule refuses p when they exceed
  ``FACTORIAL_BYTES_MAX`` (32 MiB, p < 2^20); ``cartier.route`` then
  sends a form of 2 to n terms that the route could solve to exit 3.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import _fpbundle
from ._linalg import PrimeOps, make_ops

FACTORIAL_BYTES_MAX = 1 << 25  # the tables of u and 1/u, see table_bytes
COMPOSITIONS_MAX = 1 << 11  # the gammas a rank-deficient support may list, see Fibers.plan; by measurement
LOG_Q_MAX = 1 << 16  # fields this small raise c to a point by log tables, see _values
PLANS = 256  # per-support plans kept by each basis
BLOCK = 1 << 16  # candidate cells solved at once


def table_bytes(p: int) -> int:
    """Bytes of :func:`factorials` at p: two int64 arrays of 2p - 1 entries."""
    return 16 * (2 * p - 1)


def support(f, bas) -> tuple:
    """The basis indices of f's terms, ascending: the nonzero entries of ``bas.coefficients(f)``
    (for a form ``cartier.bundle`` accepts, its term dict's indices; the dict is not read)."""
    return tuple(np.flatnonzero(make_ops(bas.ring.field).nonzero(bas.coefficients(f))).tolist())


def admits(f, bas) -> bool:
    """The route rule: whether ``cartier.bundle`` takes this route for f.

    It holds iff the factorial tables fit ``FACTORIAL_BYTES_MAX``
    (:func:`table_bytes`) and :func:`solvable` holds.  It reads the ring and
    f's support alone and builds neither lambda nor a table.
    """
    return table_bytes(bas.ring.field.p) <= FACTORIAL_BYTES_MAX and solvable(f, bas)


def solvable(f, bas) -> bool:
    """Whether p is odd, f has a term, and f has a plan (:meth:`Fibers.plan`).  The rule but for the tables."""
    return bas.ring.field.p != 2 and len(f) > 0 and bas.fibers.plan(support(f, bas)) is not None


def lam_and_T(f, bas) -> tuple:
    """lambda's coordinate array on this route and a zero-argument builder of T's."""
    s, plan = make_ops(bas.ring.field), bas.fibers.plan(support(f, bas))
    c = bas.coefficients(f)[list(plan.support)]
    return s.unfrobenius(_sums(s, bas.m, c, plan.lam)), lambda: _build_T(s, bas.m, plan, c)


def _build_T(s: PrimeOps, m: int, plan, c: np.ndarray) -> np.ndarray:
    """T's (m, m) coordinate array from the plan's kernel cells and f's coefficients c on its support."""
    return s.unfrobenius(_sums(s, m * m, c, plan.kernel)).reshape((m, m) + s.shape)


def _sums(s: PrimeOps, n: int, c: np.ndarray, points: tuple) -> np.ndarray:
    """Each of n cells' sum of weight * c^point over its ``points`` (a plan's ``lam`` or ``kernel``), mod p."""
    cells, gamma, weight = points
    out = s.zeros(n)
    s.add_at(out, cells, _values(s, c, gamma, weight))
    return out % s.p


@lru_cache(maxsize=2)
def factorials(p: int) -> tuple:
    """(u, 1/u) mod p^2 for k = 0 .. 2p-2, u(k) being the product of 1..k without p; int64.

    Both are prefix products (:func:`_prefix_products`) of the factors k, with 0 and p read
    as 1: u from the bottom, and 1/u from the top, starting at 1/u(2p-2).
    """
    mod, n = p * p, 2 * p - 1
    k = np.arange(n, dtype=np.int64)
    factor = np.where((k == 0) | (k == p), 1, k)
    u = _prefix_products(factor, mod)
    top = np.array([pow(int(u[-1]), -1, mod)], dtype=np.int64)
    inv = _prefix_products(np.concatenate((top, factor[:0:-1])), mod)[::-1].copy()
    return u, inv


def _prefix_products(x: np.ndarray, mod: int) -> np.ndarray:
    """The prefix products mod ``mod`` < 2^40 of x, whose entries are below ``mod``.

    x is laid out in rows of about sqrt(len x): one pass over the columns
    multiplies every row at once, and then each row is scaled by the product
    of the rows above it, so there are O(sqrt(len x)) numpy steps.
    """
    n = len(x)
    w = math.isqrt(n - 1) + 1
    rows = np.ones(-(-n // w) * w, dtype=np.int64)
    rows[:n] = x
    cols = rows.reshape(-1, w).T.copy()  # column k holds entry k of every row
    for k in range(1, w):
        cols[k] = _mul_mod(cols[k - 1], cols[k], mod)
    above = [1]
    for last in cols[-1, :-1].tolist():
        above.append(above[-1] * last % mod)
    return _mul_mod(cols, np.array(above, dtype=np.int64), mod).T.reshape(-1)[:n]


def _mul_mod(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    """a * b mod ``mod`` < 2^40 on int64, for entries below ``mod``: b is split into 20-bit
    halves, so that no product reaches 2^60 (a whole product would from p = 2^15 on)."""
    return ((a * (b >> 20) % mod << 20) + a * (b & 0xFFFFF)) % mod


@lru_cache(maxsize=64)
def _compositions(p: int, N: int, t: int) -> tuple:
    """(gamma, weight) for every gamma in N^t with |gamma| = N and a weight mod p that is not 0:
    multinom(p-2; gamma) at N = p - 2, S(gamma) / p at N = 2p - 2.  Read-only int64 arrays;
    the gammas are the gaps between t - 1 bars placed among N + t - 1 slots."""
    bars = np.array(list(combinations(range(N + t - 1), t - 1)), dtype=np.int64)
    gamma = np.diff(bars, axis=1, prepend=-1, append=N + t - 1) - 1
    if N == p - 2:
        u, inv = factorials(p)
        weight = (_unit_product(u[p - 2], inv, gamma, p) % p).astype(np.int64)
    else:
        weight = _kernel_weights(p, gamma)
    keep = weight != 0
    gamma, weight = gamma[keep], weight[keep]
    gamma.flags.writeable = weight.flags.writeable = False
    return gamma, weight


def _solver(A: list) -> tuple | None:
    """(r, adj(B), |det B|) for the first t rows r of the n x t integer matrix A that are
    independent, B = A_r, adj(B) negated if det B < 0; None when A has rank below t."""
    t = len(A[0])
    rows, echelon = [], []
    for r, row in enumerate(A):  # fraction-free elimination: each pivot clears its column
        v = list(row)
        for col, b in echelon:
            if v[col]:
                v = [b[col] * x - v[col] * y for x, y in zip(v, b)]
        col = next((k for k, x in enumerate(v) if x), None)
        if col is not None:
            echelon.append((col, v))
            rows.append(r)
            if len(rows) == t:
                break
    if len(rows) < t:
        return None
    # Montante's fraction-free Gauss-Jordan on [B | I]: every division is exact, and it
    # ends at [d I | d B^-1] with d = +-det B, so its right half is +-adj(B)
    a = [list(A[r]) + [int(i == k) for k in range(t)] for i, r in enumerate(rows)]
    prev = 1
    for k in range(t):
        pivot = next(i for i in range(k, t) if a[i][k])
        a[k], a[pivot] = a[pivot], a[k]
        top = a[k]
        for i in range(t):
            if i != k:
                lead = a[i][k]
                a[i] = [(top[k] * x - lead * y) // prev for x, y in zip(a[i], top)]
        prev = top[k]
    sign = 1 if prev > 0 else -1
    return rows, sign * np.array([row[t:] for row in a], dtype=np.int64), abs(prev)


class Fibers:
    """The route's per-basis state, kept as ``MonomialBasis.fibers``: the basis exponents and the
    plans of the last ``PLANS`` supports (:meth:`plan`)."""

    def __init__(self, bas):
        self.bas, self.p, self.M = bas, bas.ring.field.p, bas.exponents
        self.E = (self.p - 1) - self.M  # E^lambda_j, the exponent lambda_j reads
        self._plans = lru_cache(maxsize=PLANS)(self._plan)

    def plan(self, support: tuple) -> "SolvedPlan | ListedPlan | None":
        """A support's plan, of the kind the rank of A picks (:meth:`_plan`); a listed one only while its
        C(2p - 3 + t, t - 1) gammas fit ``COMPOSITIONS_MAX`` on a ring ``_fpbundle.admits``, both read per call."""
        t, bas = len(support), self.bas
        listed = math.comb(2 * self.p - 3 + t, t - 1) <= COMPOSITIONS_MAX and _fpbundle.admits(bas.ring, bas.m)
        plan = self._plans(support) if listed or t <= bas.ring.num_vars else None  # past n terms, A is rank-deficient
        return None if isinstance(plan, ListedPlan) and not listed else plan

    def _plan(self, support: tuple) -> "SolvedPlan | ListedPlan | None":
        """Solved if A has full column rank t, but None if that solve could leave int64; else listed."""
        A = self.M[list(support)].T
        solved = _solver(A.tolist())
        if solved is None:
            return ListedPlan(self, support, A)
        on_int64 = len(support) * int(np.abs(solved[1]).max()) * self.p * (int(self.M.max()) + 2) < 1 << 62
        return SolvedPlan(self, support, A, solved) if on_int64 else None


class SolvedPlan:
    """What lambda and T read of a support whose A has full column rank: each cell's one point, if any.

    ``lam`` and ``kernel`` are ``(cells, points, weights)``, one entry per
    point: the flat index of its cell of lambda (m,) or T (m, m), the point
    (alpha or gamma) and its weight mod p, multinom(p-2; alpha) or S(gamma)
    / p.  Each is built on first use.
    """

    def __init__(self, fib: Fibers, support: tuple, A: np.ndarray, solved: tuple):
        self.support, self.A, self.p, self.M, self.E = support, A, fib.p, fib.M, fib.E
        self.rows, self.adj, self.det = solved
        self.other = [k for k in range(len(A)) if k not in self.rows]
        self.A_other = A[self.other]
        self.Y = self.E[:, self.rows] @ self.adj.T  # adj(B) (E^lambda_j)_r

    def _points(self, num: np.ndarray, target: np.ndarray) -> tuple:
        """x = ``num`` / |det B| for each target E (a row of ``target``), ``num`` being
        adj(B) E_r: which x are integral and >= 0 and solve the other rows of A x = E, and x."""
        x = num // self.det
        ok = (num % self.det == 0).all(axis=1) & (x >= 0).all(axis=1)
        ok &= (x @ self.A_other.T == target[:, self.other]).all(axis=1)
        return ok, x

    @cached_property
    def lam(self) -> tuple:
        p, (ok, alpha) = self.p, self._points(self.Y, self.E)
        cells = np.flatnonzero(ok)
        u, inv = factorials(p)
        return cells, alpha[cells], (_unit_product(u[p - 2], inv, alpha[cells], p) % p).astype(np.int64)

    @cached_property
    def kernel(self) -> tuple:
        p, det, M = self.p, self.det, self.M
        m = len(M)
        X = p * (M[:, self.rows] @ self.adj.T)  # p adj(B) (M_i)_r
        keys = np.concatenate(((-X) % det, self.Y % det))
        # each key's class among the distinct keys, by one lexicographic sort
        srt = np.lexsort(keys.T)
        ids = np.empty(2 * m, dtype=np.int64)
        ids[srt] = np.cumsum(np.concatenate(([0], (keys[srt[1:]] != keys[srt[:-1]]).any(axis=1))))
        order = np.argsort(ids[m:], kind="stable")
        col_ids = ids[m:][order]
        lo = np.searchsorted(col_ids, ids[:m])
        n = np.searchsorted(col_ids, ids[:m], side="right") - lo  # matching columns of row i
        ends = np.cumsum(n)
        found, i0 = [], 0
        while i0 < m:  # whole rows, at most BLOCK candidates unless one row has more
            base = ends[i0] - n[i0]
            i1 = max(i0 + 1, int(np.searchsorted(ends, base + BLOCK, side="right")))
            i = np.repeat(np.arange(i0, i1), n[i0:i1])
            j = order[np.arange(base, ends[i1 - 1]) + np.repeat(lo[i0:i1] - ends[i0:i1] + n[i0:i1], n[i0:i1])]
            ok, gamma = self._points(X[i] + self.Y[j], p * M[i] + self.E[j])
            found.append((i[ok] * m + j[ok], gamma[ok]))
            i0 = i1
        cells = np.concatenate([c for c, _ in found])
        gamma = np.concatenate([g for _, g in found]).reshape(-1, len(self.support))
        weight = _kernel_weights(p, gamma)
        keep = weight != 0
        return cells[keep], gamma[keep], weight[keep]


class ListedPlan:
    """What lambda and T read of a support whose A is rank-deficient, listed (:func:`_compositions`): as
    in :class:`SolvedPlan`, but a cell may have several points, and a point several cells."""

    def __init__(self, fib: Fibers, support: tuple, A: np.ndarray):
        self.support, self.A, self.p, self.bas = support, A, fib.p, fib.bas

    def _listed(self, N: int) -> tuple:
        """The points of :func:`_compositions` with |point| = N, their weights, and A point for each."""
        points, weight = _compositions(self.p, N, len(self.support))
        return points, weight, points @ self.A.T

    @cached_property
    def lam(self) -> tuple:
        t, p = self.bas.tables, self.p
        alpha, weight, E = self._listed(p - 2)
        M = (p - 1) - E  # x^(A alpha) feeds lambda_i for M_i = (p-1) 1 - A alpha, if >= 0
        ok = np.flatnonzero((M >= 0).all(axis=1))
        return t.rank[M[ok] @ t.box].astype(np.int64), alpha[ok], weight[ok]  # int64 scatters faster

    @cached_property
    def kernel(self) -> tuple:
        """x^E, E = A gamma, of a column class c = E mod p feeds the cell (Q + s_j, j) of every
        column j of that class (``RingTables``), Q = E // p."""
        t, p, m = self.bas.tables, self.p, self.bas.m
        gamma, weight, E = self._listed(2 * p - 2)
        Q = E // p
        cls = (E - p * Q) @ t.place  # E % p takes twice as long
        lo = np.searchsorted(t.col_codes, cls)
        n = np.searchsorted(t.col_codes, cls, side="right") - lo  # the columns of gamma's class
        j = t.col_order[np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)]
        hit = np.repeat(np.arange(len(gamma)), n)
        cells = t.rank[Q[hit] @ t.box + t.s_box[j]] * m + j
        return cells, gamma[hit], weight[hit]


def _unit_product(first, inv: np.ndarray, parts: np.ndarray, p: int) -> np.ndarray:
    """first * prod_k inv[parts[:, k]] mod p^2 on int64 (:func:`_mul_mod`), first below p^2."""
    mod = p * p
    out = np.full(len(parts), first, dtype=np.int64)
    for col in parts.T:
        out = _mul_mod(out, inv[col], mod)
    return out


def _kernel_weights(p: int, gamma: np.ndarray) -> np.ndarray:
    """S(gamma) / p mod p for each row of ``gamma``, |gamma| = 2p - 2 (module docstring)."""
    u, inv = factorials(p)
    mod = p * p
    P = _unit_product(1, inv, gamma, p)
    U = u[2 * p - 2]
    g = gamma.max(axis=1)  # gamma_k, the one part that may reach p
    big = g >= p
    # the vertex term over P: u(p-2) u(gamma_k) / u(gamma_k - p)
    vertex = _mul_mod(_mul_mod(u[g], u[p - 2], mod), inv[np.where(big, g - p, 0)], mod)
    S = np.where(big, _mul_mod(P, (U - vertex) % mod, mod), p * (_mul_mod(P, U, mod) % p))  # S(gamma) mod p^2
    return S // p


@lru_cache(maxsize=None)
def _logs(s: PrimeOps) -> tuple:
    """(log, antilog) of F_q^*, q < ``LOG_Q_MAX``, for the generator g of least code: log[code(a)]
    is the k with a = g^k, code(a) = sum_l a_l p^l over a's coordinates, and antilog[k] is
    g^k's coordinates.  Built per field on its first use."""
    p, q, digits = s.p, s.p ** s.e, s.p ** np.arange(s.e)
    primes = [r for r in range(2, q) if (q - 1) % r == 0 and all(r % k for k in range(2, math.isqrt(r) + 1))]
    # g generates iff g^((q-1)/r) != 1 for every prime r | q - 1
    gen = next(g for g in ((g // digits % p).reshape(s.shape) for g in range(2, q))
               if all(s.power(g, (q - 1) // r, p).tolist() != s.one[0].tolist() for r in primes))
    power = s.one
    while len(power) < q - 1:  # g^0 .. g^(2k-1) from g^0 .. g^(k-1)
        power = np.concatenate((power, s.mul(power, s.mul(power[-1], gen, p) % p, p) % p))
    power = power[: q - 1]
    log = np.zeros(q, dtype=np.int64)
    log[power.reshape(q - 1, -1) @ digits] = np.arange(q - 1)
    log.flags.writeable = power.flags.writeable = False  # shared by every user of the field
    return log, power


def _values(s: PrimeOps, c: np.ndarray, points: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """weight * c^point in F_q for each row of ``points``, as coordinates mod p.

    c^point = prod_k c_k^point_k.  Over q < ``LOG_Q_MAX`` it is
    antilog[(point . log c) mod (q - 1)], each c_k being nonzero
    (:func:`_logs`); above, square and multiply over the bits of the points,
    all cells and terms at once.
    """
    p, q = s.p, s.p ** s.e
    if q < LOG_Q_MAX:
        log, antilog = _logs(s)
        out = antilog[points @ log[c.reshape(len(c), -1) @ p ** np.arange(s.e)] % (q - 1)]
    else:
        lanes = points.shape + (1,) * len(s.shape)  # a point's bits, against coordinates
        acc = np.where((points & 1).reshape(lanes) == 1, c, s.one[0])
        bits, base = points >> 1, c
        while bits.any():
            base = s.mul(base, base, p) % p
            acc = np.where((bits & 1).reshape(lanes) == 1, s.mul(acc, base, p) % p, acc)
            bits = bits >> 1
        out = acc[:, 0]
        for k in range(1, points.shape[1]):
            out = s.mul(out, acc[:, k], p) % p
    return out * weight.reshape((-1,) + (1,) * len(s.shape)) % p
