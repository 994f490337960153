"""Exact linear algebra over the coefficient fields.

One numpy backend, :class:`PrimeOps`, serves every field F_{p^e} with
p < 2^15, whatever e is, through Weil restriction to F_p:

* an element is its e-vector over F_p in the basis 1, t, ..., t^(e-1); a row
  of length m is a flat int64 array of length m*e;
* matrix entry T_ij becomes the e x e F_p-matrix of multiplication by T_ij,
  whose row l is vec(t^l * T_ij), so a row-times-matrix product is one
  ``row @ mat % p``; Frobenius is one fixed e x e matrix;
* the F_q-span of rows R_1..R_n is the F_p-span of their multiples
  t^k R_i, so the F_q-rank is the F_p-rank divided by e.

For e = 1 every object is the plain residue array and scalars stay ``int``.
Entries are canonical residues and every product is reduced mod p: a dot
product of length m*e sums products below (p-1)^2 before its reduction, so it
is exact while m*e*(p-1)^2 < 2^63; with p < 2^15 that holds for every
m*e < 2^33.

:class:`GenericOps` -- plain Python lists of raw field values driving the
field kernels directly -- is the route for p >= 2^15, where int64 products
overflow, and the reference the tests compare :class:`PrimeOps` against.

Rank is tracked incrementally by Gaussian elimination: pivot rows are kept
normalized, each candidate row is reduced against them, and a row either
contributes a new pivot or is a detected linear dependence.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ffield import Field

_NUMPY_SAFE_P = 2**15


@lru_cache(maxsize=None)
def make_ops(field: Field):
    """The backend for ``field``; one shared, stateless instance per field."""
    if field.p < _NUMPY_SAFE_P:
        return PrimeOps(field)
    return GenericOps(field)


class PrimeOps:
    """numpy-backed exact arithmetic mod p, over F_{p^e} by Weil restriction."""

    def __init__(self, field: Field):
        self.field = field
        self.p = p = field.p
        self.e = e = field.e
        if e > 1:
            t = tuple(int(i == 1) for i in range(e))
            powers = [field.one]
            for _ in range(2 * e - 2):
                powers.append(field.mul(powers[-1], t))
            # units[k] is the matrix of multiplication by t^k: row l = vec(t^(k+l))
            self.units = np.array(
                [[powers[k + l] for l in range(e)] for k in range(e)], dtype=np.int64
            )
            # row l = vec(F(t^l)); vec(F(a)) = vec(a) @ frob
            self.frob = np.array([field.frobenius(powers[l]) for l in range(e)], dtype=np.int64)

    def _mult_blocks(self, vecs: np.ndarray) -> np.ndarray:
        """(n, e) element vectors -> (n, e, e) matrices of multiplication by them."""
        return np.einsum("nk,klr->nlr", vecs, self.units) % self.p

    def row(self, raws) -> np.ndarray:
        return np.asarray(raws, dtype=np.int64).reshape(-1) % self.p

    def column(self, raws) -> np.ndarray:
        """The right-hand factor of :meth:`dot`: a row for e = 1, else (m*e, e)."""
        if self.e == 1:
            return self.row(raws)
        return self._mult_blocks(np.asarray(raws, dtype=np.int64) % self.p).reshape(-1, self.e)

    def matrix(self, rows) -> np.ndarray:
        if self.e == 1:
            return np.asarray(rows, dtype=np.int64) % self.p
        e = self.e
        zero = self.field.zero
        ii, jj, vals = [], [], []
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                if v != zero:
                    ii.append(i)
                    jj.append(j)
                    vals.append(v)
        out = np.zeros((len(rows), e, len(rows[0]) if rows else 0, e), dtype=np.int64)
        if vals:
            out[ii, :, jj, :] = self._mult_blocks(np.asarray(vals, dtype=np.int64))
        return out.reshape(out.shape[0] * e, -1)

    def row_to_raw(self, row) -> list:
        if self.e == 1:
            return [int(v) for v in row]
        return [tuple(v) for v in row.reshape(-1, self.e).tolist()]

    def frobenius_row(self, row):
        if self.e == 1:
            return row  # F_p is Frobenius-fixed
        return ((row.reshape(-1, self.e) @ self.frob) % self.p).reshape(-1)

    def row_times_matrix(self, row, mat):
        return (row @ mat) % self.p

    def dot(self, a, b):
        """a . b as a raw field value (``int`` for e = 1, else an e-tuple)."""
        if self.e == 1:
            return int(a @ b) % self.p
        return tuple(((a @ b) % self.p).tolist())

    def is_zero_row(self, row) -> bool:
        return not row.any()

    def is_zero_scalar(self, s) -> bool:
        return self.field.is_zero(s)

    def rank_tracker(self) -> "PrimeRankTracker":
        return PrimeRankTracker(self.p, self.units[1:] if self.e > 1 else ())


class PrimeRankTracker:
    """F_q-rank of the rows inserted so far, from an F_p elimination.

    ``units`` are the matrices of multiplication by t, ..., t^(e-1) (none
    for e = 1).  A row independent over F_q enters together with its t^k
    multiples, so the F_p-span of the pivots is the F_q-span of the rows.
    """

    def __init__(self, p: int, units=()):
        self.p = p
        self.units = units
        self.e = len(units) + 1
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
        if self.e > 1:
            blocks = row.reshape(-1, self.e)
            for unit in self.units:
                self._insert((blocks @ unit).reshape(-1))
        return True


class GenericOps:
    """List-backed arithmetic through the field kernels (any field)."""

    def __init__(self, field: Field):
        self.field = field

    def row(self, raws) -> list:
        return list(raws)

    def column(self, raws) -> list:
        return list(raws)

    def matrix(self, rows) -> list:
        return [list(r) for r in rows]

    def row_to_raw(self, row) -> list:
        return list(row)

    def frobenius_row(self, row) -> list:
        frob = self.field.frobenius
        return [frob(v) for v in row]

    def row_times_matrix(self, row, mat) -> list:
        f = self.field
        width = len(mat[0]) if mat else 0
        out = [f.zero] * width
        for i, ri in enumerate(row):
            if f.is_zero(ri):
                continue
            mi = mat[i]
            for j in range(width):
                out[j] = f.add(out[j], f.mul(ri, mi[j]))
        return out

    def dot(self, a, b):
        f = self.field
        total = f.zero
        for x, y in zip(a, b):
            total = f.add(total, f.mul(x, y))
        return total

    def is_zero_row(self, row) -> bool:
        f = self.field
        return all(f.is_zero(v) for v in row)

    def is_zero_scalar(self, s) -> bool:
        return self.field.is_zero(s)

    def rank_tracker(self) -> "GenericRankTracker":
        return GenericRankTracker(self.field)


class GenericRankTracker:
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


def matrix_rank(rows, field: Field) -> int:
    """Exact rank of a list of raw-value rows over the field."""
    ops = make_ops(field)
    tracker = ops.rank_tracker()
    for r in rows:
        tracker.add_row(ops.row(r))
    return tracker.rank
