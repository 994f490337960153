"""Exact linear algebra over the coefficient fields.

Two interchangeable backends behind one interface:

* :class:`PrimeOps` -- rows and matrices as numpy int64 arrays of canonical
  residues, reduced mod p after every product.  A dot product of length m
  sums m products below (p-1)^2 before its reduction, so it is exact while
  m * (p-1)^2 < 2^63; with p < 2^15 that holds for every m < 2^33.
* :class:`GenericOps` -- plain Python lists of raw field values, driving the
  field kernels directly.  Used for extension fields.

Rank is tracked incrementally by Gaussian elimination: pivot rows are kept
normalized, each candidate row is reduced against them, and a row either
contributes a new pivot or is a detected linear dependence.
"""

from __future__ import annotations

import numpy as np

from .ffield import Field

_NUMPY_SAFE_P = 2**15


def make_ops(field: Field):
    if field.e == 1 and field.p < _NUMPY_SAFE_P:
        return PrimeOps(field)
    return GenericOps(field)


class PrimeOps:
    """numpy-backed exact arithmetic mod p (prime fields)."""

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p

    def row(self, raws) -> np.ndarray:
        return np.asarray(raws, dtype=np.int64) % self.p

    def matrix(self, rows) -> np.ndarray:
        return np.asarray(rows, dtype=np.int64) % self.p

    def row_to_raw(self, row) -> list:
        return [int(v) for v in row]

    def frobenius_row(self, row):
        return row  # F_p is Frobenius-fixed

    def row_times_matrix(self, row, mat):
        return (row @ mat) % self.p

    def dot(self, a, b) -> int:
        return int(a @ b) % self.p

    def scale_row(self, scalar, row):
        return (scalar * row) % self.p

    def sub_rows(self, a, b):
        return (a - b) % self.p

    def is_zero_row(self, row) -> bool:
        return not row.any()

    def is_zero_scalar(self, s) -> bool:
        return s % self.p == 0

    def rank_tracker(self) -> "PrimeRankTracker":
        return PrimeRankTracker(self.p)


class PrimeRankTracker:
    def __init__(self, p: int):
        self.p = p
        self.pivots: list[tuple[int, np.ndarray]] = []  # (pivot column, normalized row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: np.ndarray) -> np.ndarray:
        row = row % self.p
        for col, prow in self.pivots:
            c = row[col]
            if c:
                row = (row - c * prow) % self.p
        return row

    def add_row(self, row: np.ndarray) -> bool:
        """Insert a row; True if it enlarged the row space."""
        row = self.reduce(row)
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            return False
        col = int(nz[0])
        inv = pow(int(row[col]), self.p - 2, self.p)
        self.pivots.append((col, (row * inv) % self.p))
        return True


class GenericOps:
    """List-backed arithmetic through the field kernels (any field)."""

    def __init__(self, field: Field):
        self.field = field

    def row(self, raws) -> list:
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

    def scale_row(self, scalar, row) -> list:
        f = self.field
        return [f.mul(scalar, v) for v in row]

    def sub_rows(self, a, b) -> list:
        f = self.field
        return [f.sub(x, y) for x, y in zip(a, b)]

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
