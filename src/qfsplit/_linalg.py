"""Exact linear algebra over the coefficient fields.

One numpy backend, :class:`PrimeOps`, serves every field F_q, q = p^e,
through Weil restriction to F_p; F_p itself is the case e = 1:

* an element is its e-vector over F_p in the basis 1, t, ..., t^(e-1) (its
  coordinates); a row of length m is a flat array of length m*e;
* multiplication by t^k is a fixed e x e F_p-matrix, and so is Frobenius,
  which is F_p-linear in these coordinates (both are 1 x 1 identities at
  e = 1).  :func:`make_ops` builds these structure constants once per
  field, together with the inverse Frobenius and the multiplication tensor
  of the Galois ring GR(p^2, e) that ``_fpbundle`` lifts to, and the
  coefficient-array arithmetic ``_fpbundle`` does on them;
* :meth:`PrimeOps.matrix` turns T, given as its coordinate array, into the
  step matrix of the Krylov map R -> F(R T): block (i, j) is the
  multiplication matrix of T_ij times the Frobenius matrix, so one Krylov
  step is one ``row @ mat % p``;
* a lift's T - c * lambda is never built entrywise: :meth:`PrimeOps.shift_row`
  is the (e, m*e) row that its step matrix subtracts column(c) times, so
  :meth:`PrimeOps.shift_matrix` is a rank-e update, and a step of a batch
  of lifts is the plain step minus (R . c) times that row;
* the F_q-span of rows R_1..R_n is the F_p-span of their multiples
  t^k R_i, so the F_q-rank is the F_p-rank divided by e.

A coordinate array of an element holds e canonical residues on its last
axis, which is dropped at e = 1.  Raw field values (``int`` for e = 1,
e-tuples otherwise) are those coordinates, so a list of them reads as the
same array; :func:`raw_values` turns an array back into raw values for the
oracles, JSON and tests.  Every product is reduced mod p: a dot product of
length m*e sums products below (p-1)^2 before its reduction, so int64 is
exact while m*e*(p-1)^2 < 2^63.  For p < 2^15 that holds for every
m*e < 2^33, and arrays are int64; for larger p the arrays hold exact Python
ints (numpy ``dtype=object``), which are slower but cannot overflow.

Rank is tracked incrementally by Gaussian elimination: pivot rows are kept
normalized, each candidate row is reduced against them, and a row either
contributes a new pivot or is a detected linear dependence.

:class:`GenericOps` and :class:`GenericRankTracker` are not a production
route.  They are the reference the tests compare :class:`PrimeOps` against:
plain Python lists of raw field values driving the field kernels entry by
entry, with Frobenius applied after each product (over F_q it is only
semilinear, so it cannot be folded into a list-based matrix).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ffield import Field

_INT64_SAFE_P = 2**15  # below it, m*e*(p-1)^2 < 2^63 for every m*e < 2^33


def _power_tensor(modulus: tuple, mod: int) -> np.ndarray:
    """(e^2, e) array: row i e + j holds t^(i+j) mod the monic ``modulus``, mod ``mod``."""
    e = len(modulus) - 1
    powers = [[int(k == n) for k in range(e)] for n in range(e)]
    for _ in range(e - 1):
        top = powers[-1][-1]  # t * t^n: shift up, then t^e = -sum_k modulus[k] t^k
        powers.append([(low - top * c) % mod for low, c in zip([0] + powers[-1][:-1], modulus)])
    return np.array([powers[i + j] for i in range(e) for j in range(e)], dtype=np.int64)


def raw_values(a, e: int) -> list:
    """The raw field values of a coordinate array (see the module docstring), as nested lists."""
    a = np.asarray(a)
    if e == 1:
        return a.tolist()
    flat = [tuple(v) for v in a.reshape(-1, e).tolist()]
    if a.ndim == 2:
        return flat
    n = a.shape[-2]
    return [flat[i : i + n] for i in range(0, len(flat), n)]


@lru_cache(maxsize=None)
def make_ops(field: Field) -> "PrimeOps":
    """The backend for ``field``; one shared, stateless instance per field."""
    return PrimeOps(field)


class PrimeOps:
    """numpy-backed exact arithmetic mod p, over F_{p^e} by Weil restriction; one per field.

    It holds the structure constants of F_q in coordinates:

    * ``tensor[mod]``, for ``mod`` p (the field) or p^2 (the Galois ring
      GR(p^2, e)): the (e^2, e) array whose row i e + j holds t^(i+j)
      reduced by the monic integer lift of the field's modulus, mod ``mod``;
    * ``units``: (e, e, e), the matrix of multiplication by t^k in F_q, row
      l = vec(t^k t^l), i.e. ``tensor[p]``;
    * ``frob`` and ``ifrob``: (e, e), row l = vec(F(t^l)) and
      vec(F^-1(t^l)), so vec(F(a)) = vec(a) @ frob;
    * ``steps``: (e, e, e), multiplication by t^k followed by Frobenius.

    All are canonical residues; at e = 1 each holds the single entry 1.
    ``units``, ``frob``, ``steps`` and the rows and matrices of the Krylov
    walk have ``dtype``: int64 for p < 2^15 and exact Python ints
    (``dtype=object``) above, where int64 dot products could overflow.
    The coefficient arithmetic (:meth:`lift` to :meth:`unfrobenius`) is
    int64 at every p: it acts on coefficient arrays, one element of
    ``shape`` per row, and is the only code of ``_fpbundle`` that reads e.
    Every array held is read-only, since every user of the field shares it.
    """

    def __init__(self, field: Field):
        self.field = field
        self.p, self.e = p, e = field.p, field.e
        self.dtype = np.int64 if p < _INT64_SAFE_P else object
        self.shape = (e,) if e > 1 else ()  # of one coefficient
        # F_p is F_p[t] / (t), with the one basis element 1
        self.tensor = {mod: _power_tensor(field.modulus or (0, 1), mod) for mod in (p, p * p)}
        basis = [field.one] if e == 1 else [tuple(int(k == i) for i in range(e)) for k in range(e)]
        frob = np.array([field.frobenius(u) for u in basis], dtype=np.int64).reshape(e, e)
        self.ifrob = np.array([field.inverse_frobenius(u) for u in basis], dtype=np.int64).reshape(e, e)
        self.one = self.lift([field.one])
        self.units = self.tensor[p].reshape(e, e, e).astype(self.dtype)
        self.frob = frob.astype(self.dtype)
        self.steps = (self.units @ self.frob) % p
        for table in (*self.tensor.values(), self.ifrob, self.units, self.frob, self.steps):
            table.flags.writeable = False

    def lift(self, coeffs) -> np.ndarray:
        """The read-only canonical coordinates of raw field elements, each lifting itself."""
        a = np.array(coeffs, dtype=np.int64).reshape((len(coeffs),) + self.shape) % self.p
        a.flags.writeable = False  # a form keeps its own as v_f, which all its readers share
        return a

    def zeros(self, n: int) -> np.ndarray:
        return np.zeros((n,) + self.shape, dtype=np.int64)

    def mul(self, a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
        """Values congruent to a * b mod ``mod`` (p or p^2), each below mod^2."""
        if self.e == 1:
            return a * b
        outer = a[:, :, None] * b[:, None, :] % mod
        return outer.reshape(len(a), self.e * self.e) @ self.tensor[mod] % mod

    def power(self, a: np.ndarray, n: int, mod: int) -> np.ndarray:
        """a^n mod ``mod``, n >= 1, by square and multiply."""
        out = None
        while n:
            if n & 1:
                out = a if out is None else self.mul(out, a, mod) % mod
            n >>= 1
            if n:
                a = self.mul(a, a, mod) % mod
        return out

    def add_at(self, out: np.ndarray, index: np.ndarray, a: np.ndarray) -> None:
        """``np.add.at(out, index, a)``; over e > 1 one coordinate at a time, numpy's fast path."""
        if self.e == 1:
            np.add.at(out, index, a)
            return
        for k in range(self.e):
            np.add.at(out[:, k], index, a[:, k])

    def nonzero(self, a: np.ndarray) -> np.ndarray:
        return a != 0 if self.e == 1 else a.any(axis=1)

    def unfrobenius(self, a: np.ndarray) -> np.ndarray:
        """The inverse Frobenius of coefficients reduced mod p, as coordinates mod p."""
        return a if self.e == 1 else a @ self.ifrob % self.p

    def _blocks(self, vecs: np.ndarray, table: np.ndarray) -> np.ndarray:
        """(..., e) element vectors a -> (..., e, e) matrices sum_k a_k table[k]."""
        e = self.e
        return (vecs @ table.reshape(e, e * e)).reshape(vecs.shape[:-1] + (e, e)) % self.p

    def row(self, vals) -> np.ndarray:
        """A flat row from coordinates: an (m,) or (m, e) array, or raw values."""
        return np.asarray(vals, dtype=self.dtype).reshape(-1) % self.p

    def column(self, vals) -> np.ndarray:
        """The (m*e, e) right-hand factor of :meth:`dot_is_zero`, from ``vals`` read as by ``row``."""
        return self._blocks(self.row(vals).reshape(-1, self.e), self.units).reshape(-1, self.e)

    def matrix(self, cells) -> np.ndarray:
        """The step matrix of R -> F(R T) for T's coordinate array, (m, m) or (m, m, e)."""
        cells = np.asarray(cells, dtype=self.dtype)
        if self.e == 1:
            # Frobenius and every steps block are 1 x 1 identities, so T is its
            # own step matrix
            return cells
        m, e = len(cells), self.e
        # block (i, j) is the multiplication matrix of T_ij times the Frobenius matrix
        return self._blocks(cells, self.steps).transpose(0, 2, 1, 3).reshape(m * e, m * e)

    def shift_row(self, lam_row) -> np.ndarray:
        """The (e, m*e) row of blocks M(lambda_j) Frob that a shift by c subtracts.

        Block (i, j) of T's step matrix is M(T_ij) Frob and M is
        multiplicative, so the step matrix of T - c * lambda is T's minus
        column(c) times this row, and one step F(R (T - c * lambda)) is
        F(R T) minus (R . c) times it.
        """
        e = self.e
        return self._blocks(lam_row.reshape(-1, e), self.steps).transpose(1, 0, 2).reshape(e, -1)

    def shift_matrix(self, mat, lam_row, c):
        """The step matrix of T - c * lambda, from the step matrix ``mat`` of T: a rank-e update."""
        return (mat - self.column(c) @ self.shift_row(lam_row)) % self.p

    def frobenius_row(self, row):
        return ((row.reshape(-1, self.e) @ self.frob) % self.p).reshape(-1)

    def row_times_matrix(self, row, mat):
        """One Krylov step F(R T), ``mat`` being the step matrix from :meth:`matrix`."""
        return (row @ mat) % self.p

    def dot_is_zero(self, row, col) -> bool:
        """Whether R . v = 0 in F_q, ``col`` coming from :meth:`column`."""
        return not ((row @ col) % self.p).any()

    def rank_tracker(self) -> "PrimeRankTracker":
        return PrimeRankTracker(self.p, self.units)


class PrimeRankTracker:
    """F_q-rank of the rows inserted so far, from an F_p elimination.

    ``units`` are the matrices of multiplication by 1, t, ..., t^(e-1).  A
    row independent over F_q enters together with its t^k multiples, so the
    F_p-span of the pivots is the F_q-span of the rows.
    """

    def __init__(self, p: int, units: np.ndarray):
        self.p = p
        self.units = units
        self.e = len(units)
        self.pivots: list[tuple[int, np.ndarray]] = []  # (pivot column, normalized row)

    @property
    def rank(self) -> int:
        return len(self.pivots) // self.e

    def reduce(self, row: np.ndarray) -> np.ndarray:
        row = row % self.p
        for col, prow in self.pivots:
            c = row[col]
            if c:
                row = (row - c * prow) % self.p
        return row

    def _insert(self, row: np.ndarray) -> bool:
        row = self.reduce(row)
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            return False
        col = int(nz[0])
        inv = pow(int(row[col]), self.p - 2, self.p)
        self.pivots.append((col, (row * inv) % self.p))
        return True

    def add_row(self, row: np.ndarray) -> bool:
        """Insert a row; True if it enlarged the row space."""
        if not self._insert(row):
            return False
        blocks = row.reshape(-1, self.e)
        for unit in self.units[1:]:
            self._insert((blocks @ unit).reshape(-1))
        return True


class GenericOps:
    """Oracle for :class:`PrimeOps`: list-backed arithmetic through the field kernels."""

    def __init__(self, field: Field):
        self.field = field

    def row(self, vals) -> list:
        """Raw values from coordinates, or raw values: a row, v_f's column or T's rows."""
        return raw_values(np.asarray(vals, dtype=np.int64), self.field.e)

    column = matrix = row

    def shift_matrix(self, mat, lam_row, c) -> list:
        """T - c * lambda (column c times row lambda) as raw rows."""
        f = self.field
        return [
            list(row) if f.is_zero(ci) else [f.sub(t, f.mul(ci, l)) for t, l in zip(row, lam_row)]
            for row, ci in zip(mat, c)
        ]

    def frobenius_row(self, row) -> list:
        frob = self.field.frobenius
        return [frob(v) for v in row]

    def row_times_matrix(self, row, mat) -> list:
        """One Krylov step F(R T); F is applied after the product."""
        f = self.field
        width = len(mat[0]) if mat else 0
        out = [f.zero] * width
        for i, ri in enumerate(row):
            if f.is_zero(ri):
                continue
            mi = mat[i]
            for j in range(width):
                out[j] = f.add(out[j], f.mul(ri, mi[j]))
        return self.frobenius_row(out)

    def dot_is_zero(self, row, col) -> bool:
        f = self.field
        total = f.zero
        for x, y in zip(row, col):
            total = f.add(total, f.mul(x, y))
        return f.is_zero(total)

    def rank_tracker(self) -> "GenericRankTracker":
        return GenericRankTracker(self.field)


class GenericRankTracker:
    """Oracle for :class:`PrimeRankTracker`: rank by elimination on raw field values."""

    def __init__(self, field: Field):
        self.field = field
        self.pivots: list[tuple[int, list]] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row) -> list:
        f = self.field
        row = list(row)
        for col, prow in self.pivots:
            c = row[col]
            if not f.is_zero(c):
                row = [f.sub(x, f.mul(c, y)) for x, y in zip(row, prow)]
        return row

    def add_row(self, row) -> bool:
        f = self.field
        row = self.reduce(row)
        col = next((i for i, v in enumerate(row) if not f.is_zero(v)), None)
        if col is None:
            return False
        inv = f.inv(row[col])
        self.pivots.append((col, [f.mul(inv, v) for v in row]))
        return True

