"""The fiber route of :func:`cartier.bundle`: lambda and T of a sparse form from lattice points.

Write f = sum_(k < t) c_k x^(a_k), with distinct exponent vectors a_k of
weighted degree d and c_k != 0 in F_q, q = p^e, and let A be the n x t
exponent matrix whose columns are the a_k.  The basis monomials are M_0,
..., M_(m-1), and 1 = (1, ..., 1).  The route serves odd p when A has full
column rank t (so t <= n <= 8): every Delsarte form, binomials and
monomials.  It forms no polynomial product: neither f^(p-2), nor delta,
nor the kernel delta * f^(p-2).  It returns what :mod:`qfsplit._fpbundle`
returns, the same int64 coordinate arrays, lambda eager and a builder of T.

**Fibers.** For N >= 0 the multinomial expansion reads

    f^N = sum_(|alpha| = N) multinom(N; alpha) c^alpha x^(A alpha),

multinom(N; alpha) = N! / prod_k alpha_k!.  A has full column rank, so
alpha -> A alpha is injective: the coefficient of x^E in f^N is
multinom(N; alpha) c^alpha at the one alpha >= 0 with A alpha = E, if
there is one, and 0 otherwise.  |alpha| needs no check, since x^(A alpha)
has weighted degree d |alpha| and so |alpha| is fixed by E.

**lambda.** lambda_i is the inverse Frobenius F^-1 of the coefficient of
f^(p-2) at (p-1) 1 - M_i (``_fpbundle``, step 2), which has degree (p-2) d.
So lambda_i = F^-1(multinom(p-2; alpha) c^alpha) for the alpha with A alpha
= (p-1) 1 - M_i, and 0 when there is none.  Every factorial here is below
p, so the weight is a unit mod p.

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
= E, beta no vertex.  Again by full column rank, gamma = beta + alpha is the
one gamma >= 0 with A gamma = E, and |gamma| = 2p - 2.  So

    T_ij = F^-1(c^gamma S(gamma) / p),
    S(gamma) = sum_(beta + alpha = gamma, |beta| = p, beta no vertex) multinom(p; beta) multinom(p-2; alpha),

a sum of multiples of p, so S(gamma) = 0 mod p for every gamma and S(gamma)
/ p is an integer.  T_ij = 0 when no such gamma exists.

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

**Which cells.** Choose t rows r of A whose t x t minor B = A_r is
invertible, with adj(B) B = det(B) I; gamma = adj(B) E_r / det(B) must be
integral and nonnegative, and satisfy the other n - t rows of A gamma = E,
which are checked exactly.  For E = p M_i + E^lambda_j, E^lambda_j = (p-1)
1 - M_j the target of lambda_j, adj(B) E_r = p adj(B) (M_i)_r + adj(B)
(E^lambda_j)_r.  So cell (i, j) is integral iff the row residue -p adj(B)
(M_i)_r equals the column residue adj(B) (E^lambda_j)_r mod |det B|: one
join of m row keys against m column keys (a sort and ``searchsorted``),
and only the matching cells are solved, in blocks of at most ``BLOCK``.

**Plans.** The rows r, adj(B), the cells and their gamma, and every weight
depend on the ring and f's support alone.  The basis keeps them as
``MonomialBasis.fibers`` (:class:`Fibers`), the last ``PLANS`` supports'
plans; a form then costs the powers c^gamma in F_q and one scatter.  The
plan of lambda is built with the bundle, the plan of T by T's builder.

**Exactness.**

* The solve is on int64: :meth:`Fibers.plan` admits a support only when
  t max|adj(B)| p (d_max + 2) < 2^62, which bounds adj(B) E_r.
* The weights are products mod p^2 of table entries below p^2: on int64
  for p < 2^15 (products below 2^60), on Python ints above, where only the
  matching cells are formed.
* c^gamma is computed in F_q on coordinates mod p with the field's
  :class:`_linalg.PrimeOps` arithmetic, then scaled by the weight and
  mapped by F^-1.  A product sums at most e^2 products below p^2, which the
  table budget keeps below 2^63.
* The tables of u and 1/u are two int64 arrays of 2p - 1 entries,
  :func:`table_bytes` = 16 (2p - 1) bytes, built on first use and kept for
  the last two primes.  The rule refuses p when they exceed
  ``FACTORIAL_BYTES_MAX`` (32 MiB, p < 2^20); ``cartier.route`` then
  sends a form of 2 to n terms that the route could solve to exit 3.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from ._linalg import _INT64_SAFE_P, PrimeOps, make_ops

FACTORIAL_BYTES_MAX = 1 << 25  # the tables of u and 1/u, see table_bytes
PLANS = 256  # per-support plans kept by each basis
BLOCK = 1 << 16  # candidate cells solved at once


def table_bytes(p: int) -> int:
    """Bytes of :func:`factorials` at p: two int64 arrays of 2p - 1 entries."""
    return 16 * (2 * p - 1)


def support(f, bas) -> tuple:
    """The basis indices of f's terms, ascending."""
    index = bas.index
    return tuple(sorted(index[mono] for mono in f.term_dict()))


def admits(f, bas) -> bool:
    """The route rule: whether ``cartier.bundle`` takes this route for f.

    It holds iff the factorial tables fit ``FACTORIAL_BYTES_MAX``
    (:func:`table_bytes`) and :func:`solvable` holds.  It reads the ring and
    f's support alone and builds neither lambda nor a table.
    """
    return table_bytes(bas.ring.field.p) <= FACTORIAL_BYTES_MAX and solvable(f, bas)


def solvable(f, bas) -> bool:
    """Whether p is odd, f has 1 to n terms, and f's exponent matrix has full column
    rank with an int64-exact solve (:meth:`Fibers.plan`): the rule but for the tables."""
    ring = bas.ring
    return ring.field.p != 2 and 0 < len(f) <= ring.num_vars and bas.fibers.plan(support(f, bas)) is not None


def lam_and_T(f, bas) -> tuple:
    """lambda's coordinate array on this route and a zero-argument builder of T's."""
    s = make_ops(bas.ring.field)
    plan = bas.fibers.plan(support(f, bas))
    c = bas.coefficients(f)[list(plan.support)]
    cells, alpha, weight = plan.lam
    lam = s.zeros(bas.m)
    lam[cells] = _values(s, c, alpha, weight)
    return s.unfrobenius(lam), lambda: _build_T(s, plan, c)


def _build_T(s: PrimeOps, plan: "Plan", c: np.ndarray) -> np.ndarray:
    """T's coordinate array from the plan's kernel cells and f's coefficients c on its support."""
    cells, gamma, weight = plan.kernel
    m = len(plan.M)
    T = s.zeros(m * m)
    T[cells] = _values(s, c, gamma, weight)
    return s.unfrobenius(T).reshape((m, m) + s.shape)


@lru_cache(maxsize=2)
def factorials(p: int) -> tuple:
    """(u, 1/u) mod p^2 for k = 0 .. 2p-2, u(k) being the product of 1..k without p; int64."""
    mod, n = p * p, 2 * p - 1
    u = np.empty(n, dtype=np.int64)
    inv = np.empty(n, dtype=np.int64)
    acc = u[0] = 1
    for k in range(1, n):
        if k != p:
            acc = acc * k % mod
        u[k] = acc
    acc = inv[n - 1] = pow(acc, -1, mod)
    for k in range(n - 1, 0, -1):
        if k != p:
            acc = acc * k % mod
        inv[k - 1] = acc
    return u, inv


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
    """The route's per-basis state, kept as ``MonomialBasis.fibers``: the basis exponents
    and the plans of the last ``PLANS`` supports (:meth:`plan`)."""

    def __init__(self, bas):
        self.p = bas.ring.field.p
        self.M = np.array(bas.monomials, dtype=np.int64).reshape(bas.m, bas.ring.num_vars)
        self.E = (self.p - 1) - self.M  # E^lambda_j, the exponent lambda_j reads
        self.plan = lru_cache(maxsize=PLANS)(self._plan)

    def _plan(self, support: tuple) -> "Plan | None":
        """The plan of a support, or None if its exponent matrix A is rank-deficient or its
        solve could leave int64."""
        A = self.M[list(support)].T
        solved = _solver(A.tolist())
        if solved is None:
            return None
        rows, adj, det = solved
        if len(support) * int(np.abs(adj).max()) * self.p * (int(self.M.max()) + 2) >= 1 << 62:
            return None
        return Plan(self, support, A, rows, adj, det)


class Plan:
    """What lambda and T read of one support: the cells with a fiber point, and its weight.

    ``lam`` and ``kernel`` are ``(cells, points, weights)``: the flat
    indices of lambda's (m,) or T's (m, m) cells with a point, the point
    (alpha or gamma) of each, and its weight mod p, multinom(p-2; alpha) or
    S(gamma) / p; each is built on first use.
    """

    def __init__(self, fib: Fibers, support: tuple, A: np.ndarray, rows: list, adj: np.ndarray, det: int):
        self.support = support
        self.p, self.M, self.E = fib.p, fib.M, fib.E
        self.det = det
        self.adj = adj
        self.rows = rows
        self.other = [k for k in range(len(A)) if k not in rows]
        self.A_other = A[self.other]
        self.Y = self.E[:, rows] @ adj.T  # adj(B) (E^lambda_j)_r

    def _points(self, num: np.ndarray, target: np.ndarray) -> tuple:
        """x = ``num`` / |det B| for each target E (a row of ``target``), ``num`` being
        adj(B) E_r: which x are integral and >= 0 and solve the other rows of A x = E, and x."""
        x = num // self.det
        ok = (num % self.det == 0).all(axis=1) & (x >= 0).all(axis=1)
        ok &= (x @ self.A_other.T == target[:, self.other]).all(axis=1)
        return ok, x

    @cached_property
    def lam(self) -> tuple:
        ok, alpha = self._points(self.Y, self.E)
        cells = np.flatnonzero(ok)
        alpha = alpha[cells]
        p = self.p
        u, inv = factorials(p)
        return cells, alpha, (_unit_product(u[p - 2], inv, alpha, p) % p).astype(np.int64)

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
        found = []
        i0 = 0
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


def _unit_product(first, inv: np.ndarray, parts: np.ndarray, p: int) -> np.ndarray:
    """first * prod_k inv[parts[:, k]] mod p^2, exact: int64 below 2^15, Python ints above."""
    mod = p * p
    dtype = np.int64 if p < _INT64_SAFE_P else object
    out = np.full(len(parts), int(first), dtype=dtype)
    for col in parts.T:
        out = out * inv[col].astype(dtype) % mod
    return out


def _kernel_weights(p: int, gamma: np.ndarray) -> np.ndarray:
    """S(gamma) / p mod p for each row of ``gamma``, |gamma| = 2p - 2 (module docstring)."""
    u, inv = factorials(p)
    mod = p * p
    dtype = np.int64 if p < _INT64_SAFE_P else object
    P = _unit_product(1, inv, gamma, p)
    U = int(u[2 * p - 2])
    g = gamma.max(axis=1)  # gamma_k, the one part that may reach p
    big = g >= p
    # the vertex term over P: u(p-2) u(gamma_k) / u(gamma_k - p)
    vertex = int(u[p - 2]) * u[g].astype(dtype) % mod * inv[np.where(big, g - p, 0)].astype(dtype) % mod
    S = np.where(big, P * (U - vertex) % mod, p * (U * P % p))  # S(gamma) mod p^2
    return (S // p).astype(np.int64)


def _values(s: PrimeOps, c: np.ndarray, points: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """weight * c^point in F_q for each row of ``points``, as coordinates mod p.

    c^point = prod_k c_k^point_k, by square and multiply over the bits of
    the points, all cells and terms at once.
    """
    p = s.p
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
