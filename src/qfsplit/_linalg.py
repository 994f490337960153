"""Exact linear algebra over the coefficient fields.

Two backends run the Krylov walk; :func:`make_ops` picks one per field, by
its characteristic alone.  Both work through Weil restriction to F_p, F_p
itself being the case e = 1:

* an element is its e-vector over F_p in the basis 1, t, ..., t^(e-1) (its
  coordinates); a row of length m has m*e coordinates, coordinate k of
  entry i at flat position i*e + k;
* multiplication by t^k is a fixed e x e F_p-matrix, and so is Frobenius,
  which is F_p-linear in these coordinates (both are 1 x 1 identities at
  e = 1);
* the step matrix of the Krylov map R -> F(R T) has as block (i, j) the
  multiplication matrix of T_ij times the Frobenius matrix, so one Krylov
  step is one product of a row with it;
* the F_q-span of rows R_1..R_n is the F_p-span of their multiples
  t^k R_i, so the F_q-rank is the F_p-rank divided by e: a rank tracker
  inserts each row independent over F_q together with its t-multiples.

:class:`PrimeOps`, the numpy backend, serves every odd p.  A row is a flat
array of its coordinates, one step is ``row @ mat % p``, and its rank
tracker is Gaussian elimination with normalized pivot rows.  Every product
is reduced mod p: a dot product of length m*e sums products below (p-1)^2
before its reduction, so int64 is exact while m*e*(p-1)^2 < 2^63.  For
p < 2^15 that holds for every m*e < 2^33, and arrays are int64; for larger p
they hold exact Python ints (numpy ``dtype=object``), slower but exact.
:func:`make_ops` builds these structure constants once per field, together
with the inverse Frobenius and the multiplication tensor of the Galois ring
GR(p^2, e) that ``_fpbundle`` lifts to, and the coefficient-array
arithmetic ``_fpbundle`` does on them.  PrimeOps builds the step matrix of
both backends, forming only the blocks of T's nonzero cells.

:class:`PackedOps`, at p = 2 (every F_(2^e)), keeps that arithmetic but
holds each row as one Python int: bit i*e + k is coordinate k of entry i,
the flat position above.  Every map of the walk is F_2-linear on the bits.
A step XORs the rows of the step matrix (PrimeOps' build, packed) that the
row's set bits select, four bits at a time through a 16-entry table per
four rows.  A dot R . v is e parities (``int.bit_count``).  Frobenius and
the t-multiples move each entry's bits by fixed masks and shifts.  The
rank tracker (:class:`PackedRankTracker`) is an XOR basis keyed by each
pivot's top bit.  A batch of lift rows is a list of such ints.

A coordinate array of an element holds e canonical residues on its last
axis, which is dropped at e = 1.  Raw field values (``int`` for e = 1,
e-tuples otherwise) are those coordinates, so a list of them reads as the
same array; :func:`raw_values` turns an array back into raw values for the
oracles, JSON and tests, and each backend's ``coordinates`` reads a row
back as an array.

:class:`GenericOps` and :class:`GenericRankTracker` are not a production
route.  They are the reference backend of the tests' registry
(``tests/test_registry.py``), which lists every backend with the fields it
accepts and checks each against them: plain Python lists of raw field
values driving the field kernels entry by entry, with Frobenius applied
after each product (over F_q it is only semilinear, so it cannot be folded
into a list-based matrix).  At p = 2 the registry also lists the numpy
backend itself, ``PrimeOps(F)``, beside :class:`PackedOps`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import getitem, xor

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
    """The backend for ``field``; one shared, stateless instance per field.

    :class:`PackedOps` at p = 2, :class:`PrimeOps` at every other p.
    """
    return PackedOps(field) if field.p == 2 else PrimeOps(field)


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
        """Values congruent to a * b mod ``mod`` (p or p^2), each below mod^2; broadcasts over leading axes."""
        if self.e == 1:
            return a * b
        outer = a[..., :, None] * b[..., None, :] % mod
        return outer.reshape(outer.shape[:-2] + (self.e * self.e,)) @ self.tensor[mod] % mod

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
        """Which elements are nonzero: an OR of the e coordinates, 15x faster than ``any(axis=-1)``."""
        if self.e == 1:
            return a != 0
        return reduce(np.bitwise_or, (a[..., k] for k in range(self.e))) != 0

    def unfrobenius(self, a: np.ndarray) -> np.ndarray:
        """The inverse Frobenius of coefficients reduced mod p, as coordinates mod p."""
        return a if self.e == 1 else a @ self.ifrob % self.p

    def _blocks(self, vecs: np.ndarray, table: np.ndarray) -> np.ndarray:
        """(..., e) element vectors a -> (..., e, e) matrices sum_k a_k table[k]."""
        e = self.e
        return (vecs @ table.reshape(e, e * e)).reshape(vecs.shape[:-1] + (e, e)) % self.p

    def _flat(self, vals) -> np.ndarray:
        return np.asarray(vals, dtype=self.dtype).reshape(-1) % self.p

    def row(self, vals) -> np.ndarray:
        """A flat row from coordinates: an (m,) or (m, e) array, or raw values."""
        return self._flat(vals)

    def column(self, vals) -> np.ndarray:
        """The (m*e, e) right-hand factor of :meth:`dot_is_zero`, from ``vals`` read as by ``row``."""
        return self._blocks(self._flat(vals).reshape(-1, self.e), self.units).reshape(-1, self.e)

    def _step_matrix(self, cells, dtype) -> np.ndarray:
        """The (m*e, m*e) step matrix of R -> F(R T) for T's coordinate array, of ``dtype``.

        Block (i, j) is the multiplication matrix of T_ij times the Frobenius
        matrix.  Only the blocks of nonzero cells are formed, since T is
        sparse (683 of the 15,876 cells of the ns = 58 quintic over F_4).
        """
        cells = np.asarray(cells, dtype=dtype)
        if self.e == 1:
            # Frobenius and every steps block are 1 x 1 identities, so T is its
            # own step matrix
            return cells
        m, e = len(cells), self.e
        i, j = np.nonzero(self.nonzero(cells))
        out = np.zeros((m, e, m, e), dtype=dtype)
        out[i, :, j, :] = self._blocks(cells[i, j], self.steps)
        return out.reshape(m * e, m * e)

    def matrix(self, cells) -> np.ndarray:
        """The step matrix of R -> F(R T) for T's coordinate array, (m, m) or (m, m, e)."""
        return self._step_matrix(cells, self.dtype)

    def shift_row(self, lam_row) -> np.ndarray:
        """The (e, m*e) row of blocks M(lambda_j) Frob that a shift by c subtracts.

        Block (i, j) of T's step matrix is M(T_ij) Frob and M is
        multiplicative, so the step matrix of T - c * lambda is T's minus
        column(c) times this row, and one step F(R (T - c * lambda)) is
        F(R T) minus (R . c) times it.
        """
        e = self.e
        return self._blocks(lam_row.reshape(-1, e), self.steps).transpose(1, 0, 2).reshape(e, -1)

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

    def coordinates(self, row, m: int) -> np.ndarray:
        """The int64 coordinate array, (m,) or (m, e), of a row of m entries; :meth:`row` inverted."""
        return np.asarray(row, dtype=np.int64).reshape((m,) + self.shape)

    # A batch of lift rows R_{c,n}, one per shift c, for lifts.ns_lift: here
    # an (N, m*e) array, stepped all at once.

    def lift_batch(self, first, shifts) -> tuple:
        """The batch R_{c,1} = ``first`` for each shift c, and the shifts as :meth:`column`s."""
        n = len(shifts)
        return np.broadcast_to(first, (n, first.size)), self.column(shifts).reshape(n, first.size, self.e)

    def zero_rows(self, R) -> np.ndarray:
        """Which rows of the batch are zero."""
        # R == 0 is boolean on every dtype (object included), whatever numpy's version
        return (R == 0).all(axis=1)

    def lift_step(self, R, mat, cols, lam):
        """The batch's next rows F(R T_c) = F(R T) - F(R . c) R_1, T's step matrix being ``mat``.

        ``lam`` is :meth:`shift_row` of lambda: F(R . c) R_1 is (R . c) times it.
        """
        dots = (R[:, None] @ cols)[:, 0] % self.p  # the coordinates of each row's R . c
        return (self.row_times_matrix(R, mat) - dots @ lam) % self.p


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


_NIBBLES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))  # hex digit -> its value


def _pack(bits: np.ndarray) -> list:
    """The rows of a 2-D array of 0s and 1s as ints, column j giving bit j.

    Each row is read as 64-bit words, which ``tolist`` turns into ints in
    one call; rows up to 128 bits, every K3 row over F_4, then take at most
    one shift each, against one ``int.from_bytes`` per row.
    """
    n, width = bits.shape
    words = max(1, -(-width // 64))
    padded = np.zeros((n, 8 * words), dtype=np.uint8)
    padded[:, : -(-width // 8)] = np.packbits(bits, axis=1, bitorder="little")
    word = padded.view("<u8")
    out = word[:, -1].tolist()
    for k in range(words - 2, -1, -1):
        out = [high << 64 | low for high, low in zip(out, word[:, k].tolist())]
    return out


def _nibble_tables(rows: list) -> tuple:
    """The step matrix with rows ``rows`` as one table per 4 rows, highest first.

    Table k, counted from the last, maps each 4-bit value x to the XOR of
    rows 4k + b over the set bits b of x, so a row r times the matrix is the
    XOR of one entry per hex digit of r.
    """
    rows = list(rows) + [0] * (-len(rows) % 4)
    tables = []
    for i in range(len(rows) - 4, -1, -4):
        a, b, c, d = rows[i : i + 4]
        ab, cd = a ^ b, c ^ d
        tables.append((0, a, b, ab, c, a ^ c, b ^ c, ab ^ c,
                       d, a ^ d, b ^ d, ab ^ d, cd, a ^ cd, b ^ cd, ab ^ cd))
    return tuple(tables)


@lru_cache(maxsize=None)
def _repunit(e: int, n: int) -> int:
    """The int with bits 0, e, 2e, ..., (n-1)e set: coordinate 0 of each of n entries."""
    return ((1 << (n * e)) - 1) // ((1 << e) - 1)


class PackedOps(PrimeOps):
    """The backend over F_(2^e): a row of m entries is one Python int of m*e bits.

    Bit i*e + k of the int is coordinate k of entry i, the flat position
    :class:`PrimeOps` gives that coordinate; :meth:`row`, :meth:`column` and
    :meth:`matrix` (PrimeOps' sparse build at uint8) build on PrimeOps'
    arrays and pack them.  Every map the walk applies is F_2-linear on these bits:

    * a step R -> F(R T) is the XOR of the step matrix's rows at R's set
      bits, read four bits at a time from :func:`_nibble_tables`;
    * Frobenius and multiplication by t^k act on each entry's e bits by a
      fixed e x e matrix, so each is a few masks of coordinates, each moved
      by one shift (:meth:`_entrywise`);
    * a dot R . v is e parities, one per coordinate of the value: column
      k of :meth:`column` masks the bits whose sum is coordinate k;
    * the rank tracker (:class:`PackedRankTracker`) is an XOR basis.

    The inherited coefficient arithmetic of ``_fpbundle`` is unchanged.
    """

    def __init__(self, field: Field):
        super().__init__(field)

        def moves(table) -> tuple:
            """((shift, lanes), ...): coordinate l moves to l' for each 1 at [l, l']."""
            lanes = {}
            for l, lp in np.argwhere(table).tolist():
                lanes[lp - l] = lanes.get(lp - l, 0) | 1 << l
            return tuple(sorted(lanes.items()))

        self._frob_moves = moves(self.frob)
        self._unit_moves = tuple(moves(u) for u in self.units)

    def _entrywise(self, row: int, moves: tuple) -> int:
        """The image of ``row`` under one e x e matrix acting on every entry, as ``moves``."""
        e = self.e
        rep = _repunit(e, -(-row.bit_length() // e))
        out = 0
        for shift, lanes in moves:
            part = row & rep * lanes  # lanes < 2^e, so rep * lanes sets bits i*e + l, l in lanes
            out ^= part << shift if shift >= 0 else part >> -shift
        return out

    def row(self, vals) -> int:
        return int.from_bytes(np.packbits(self._flat(vals), bitorder="little").tobytes(), "little")

    def column(self, vals) -> tuple:
        """The e masks of :meth:`dot_is_zero`: mask k selects the bits coordinate k of R . v sums."""
        if self.e == 1:  # R . v is the parity of R & v
            return (self.row(vals),)
        return tuple(_pack(super().column(vals).T))

    def matrix(self, cells) -> tuple:
        """The step matrix of R -> F(R T), as :func:`_nibble_tables` of its rows."""
        return _nibble_tables(_pack(self._step_matrix(cells, np.uint8)))

    def shift_row(self, lam_row: int) -> tuple:
        """The e rows F(t^k lambda) that a shift by c subtracts; see :meth:`PrimeOps.shift_row`."""
        return tuple(self.frobenius_row(self._entrywise(lam_row, moves)) for moves in self._unit_moves)

    def frobenius_row(self, row: int) -> int:
        return self._entrywise(row, self._frob_moves)

    def row_times_matrix(self, row: int, mat: tuple) -> int:
        digits = format(row, f"0{len(mat)}x").encode().translate(_NIBBLES)
        return reduce(xor, map(getitem, mat, digits), 0)

    def dot_is_zero(self, row: int, col: tuple) -> bool:
        return not any((row & mask).bit_count() & 1 for mask in col)

    def rank_tracker(self) -> "PackedRankTracker":
        return PackedRankTracker(self)

    def coordinates(self, row: int, m: int) -> np.ndarray:
        n = m * self.e
        raw = np.frombuffer(row.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=n, bitorder="little").astype(np.int64).reshape((m,) + self.shape)

    # A batch of lift rows is a list of ints, each stepped on its own.

    def lift_batch(self, first: int, shifts) -> tuple:
        n, e = len(shifts), self.e
        cols = _pack(super().column(shifts).reshape(n, -1, e).transpose(0, 2, 1).reshape(n * e, -1))
        return [first] * n, [tuple(cols[i : i + e]) for i in range(0, n * e, e)]

    def zero_rows(self, R: list) -> np.ndarray:
        return np.array([not r for r in R], dtype=bool)

    def lift_step(self, R: list, mat: tuple, cols: list, lam: tuple) -> list:
        out = []
        for r, col in zip(R, cols):
            nxt = self.row_times_matrix(r, mat)
            for mask, row in zip(col, lam):
                if (r & mask).bit_count() & 1:
                    nxt ^= row
            out.append(nxt)
        return out


class PackedRankTracker:
    """F_(2^e)-rank of the rows inserted so far, as an XOR basis of :class:`PackedOps` rows.

    Each pivot is keyed by its top bit, and no two share one, so a row
    reduces by XOR with the pivot at its current top bit until that bit has
    none: it is then independent of the pivots, or zero.  As in
    :class:`PrimeRankTracker`, a row independent over F_q enters with its
    t^k multiples, so the F_2-span of the pivots is the F_q-span of the rows.
    """

    def __init__(self, ops: PackedOps):
        self.ops = ops
        self.pivots: dict[int, int] = {}  # top bit -> pivot row

    @property
    def rank(self) -> int:
        return len(self.pivots) // self.ops.e

    def reduce(self, row: int) -> int:
        pivots = self.pivots
        while row:
            pivot = pivots.get(row.bit_length() - 1)
            if pivot is None:
                break
            row ^= pivot
        return row

    def _insert(self, row: int) -> bool:
        row = self.reduce(row)
        if row:
            self.pivots[row.bit_length() - 1] = row
        return bool(row)

    def add_row(self, row: int) -> bool:
        """Insert a row; True if it enlarged the row space."""
        if not self._insert(row):
            return False
        ops = self.ops
        for moves in ops._unit_moves[1:]:
            self._insert(ops._entrywise(row, moves))
        return True


class GenericOps:
    """Oracle for :class:`PrimeOps`: list-backed arithmetic through the field kernels."""

    def __init__(self, field: Field):
        self.field = field

    def row(self, vals) -> list:
        """Raw values from coordinates, or raw values: a row or v_f's column."""
        return raw_values(np.asarray(vals, dtype=np.int64), self.field.e)

    column = row

    def matrix(self, vals) -> list:
        """T's nonzero cells by row, from its coordinates or raw rows: row i lists (j, T_ij)."""
        f = self.field
        return [[(j, v) for j, v in enumerate(r) if not f.is_zero(v)] for r in self.row(vals)]

    def coordinates(self, row, m: int) -> np.ndarray:
        """The int64 coordinate array of a row of m raw values, which are its coordinates."""
        return np.asarray(row, dtype=np.int64).reshape((m,) + ((self.field.e,) if self.field.e > 1 else ()))

    def frobenius_row(self, row) -> list:
        frob = self.field.frobenius
        return [frob(v) for v in row]

    def row_times_matrix(self, row, mat) -> list:
        """One Krylov step F(R T) over T's nonzero cells (T is square); F is applied after the product."""
        f = self.field
        out = [f.zero] * len(mat)
        for ri, cells in zip(row, mat):
            if f.is_zero(ri):
                continue
            for j, v in cells:
                out[j] = f.add(out[j], f.mul(ri, v))
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

