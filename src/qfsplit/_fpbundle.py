"""The numpy route of :func:`cartier.bundle`: lambda and T from term arrays, over F_q.

q = p^e, F_p being the case e = 1.  A polynomial is a pair of int64 arrays:
packed exponent codes (one ``width``-bit field per variable, x_0 highest,
as in ``polyring._pack``), sorted ascending, and coefficients, so exponent
vectors add as codes.  A coefficient is one residue at e = 1 and an e-vector
of residues in the basis 1, t, ..., t^(e-1) otherwise; the arithmetic on
them is the field's :class:`_linalg.PrimeOps` (:func:`_linalg.make_ops`).
f's arrays are the nonzero entries of the coordinate array f keeps,
``MonomialBasis.coefficients(f)``, and their basis codes.

``cartier.route`` sends this route forms of two or more terms at odd p
(:func:`general_lam_and_T`) and every form at p = 2
(:func:`char2_lam_and_T`); at odd p the fiber route takes every one-term
form.  lambda is eager and T is built on demand: :func:`general_lam_and_T`
runs steps 1 and 2 and returns lambda with a zero-argument builder of T,
which runs steps 3 to 5 when called.  ``cartier.bundle`` hands the builder
to :class:`cartier.FrobeniusBundle`, which calls it on the first read of
T; a walk that stops at R_1 (height 1, or lambda = 0) never reads it.  Per
equation:

1. ``fhat``, f with each coefficient lifted to the Galois ring GR(p^2, e) =
   (Z/p^2)[t] / (the field's modulus with its coefficients read as
   integers), is multiplied by itself p - 3 times, fhat being the short
   factor (at most m terms); any lift gives ``f^(p-2) = fhat^(p-2) mod p``.
   The route takes the Teichmuller lift chat = (any lift)^q, whose powers
   cancel more often mod p^2.  A product (:func:`_mul`) takes whole
   terms of the short factor per block; each gives one ascending run of
   codes, its code plus the long factor's.  One stable argsort of the
   accumulator and the block's runs merges the runs (numpy's timsort finds
   them), so the accumulator is re-merged in linear time, and
   ``np.add.reduceat`` sums each run of equal codes;
2. lambda_i is the inverse Frobenius of the coefficient of f^(p-2) at
   (p-1, ..., p-1) - M_i: an (m,) coordinate array, (m, e) at e > 1.
   The builder keeps fhat, fhat^(p-2) mod p^2 and f^(p-2);
3. the chain resumes at fhat^(p-2): two more products give fhat^(p-1) and
   fhat^p, the same products in the same order as one chain of p - 1;
4. ``delta = (fhat^p - sum_a chat_a^p x^(pa)) / p mod p``: the first Witt
   sum polynomial at the lifted terms, the identity
   ``polyring.delta_lift_oracle`` checks the Witt-sum route against over F_p.
   Any lift gives it, but chat^p = chat only over F_p;
5. T[i][j] sums delta_a * f^(p-2)_b over the pairs with a + b = p M_i +
   (p-1, ..., p-1) - M_j.  Only pairs whose residue classes mod p add up
   to a column class (p-1-M_j) mod p are formed: for each term b and each
   column class c, the partners are the delta terms of class c - b, one run
   of delta sorted by class (see class matching below).  Every such pair
   reaches a cell, found from the quotients a // p and b // p through the
   per-ring tables.  Then the inverse Frobenius (F_p-linear, the e x e
   matrix ``ifrob`` of :func:`_linalg.make_ops`) leaves T as an (m, m)
   coordinate array, (m, m, e) at e > 1.

:class:`cartier.FrobeniusBundle` stores these arrays and
``_linalg.PrimeOps.matrix`` reads T's, both in the coordinates of the
field's ``PrimeOps``; neither is turned into raw field values.

At p = 2 none of this runs (:func:`char2_lam_and_T`).  There f^(p-2) = 1,
and for f = sum_a c_a x^(M_a) over the basis and any lift fhat = sum_a
chat_a x^(M_a), fhat^2 = sum_a chat_a^2 x^(2 M_a) + 2 sum_(a<b) chat_a
chat_b x^(M_a + M_b), so

    delta(f) = sum_(a<b) c_a c_b x^(M_a + M_b):

T is a fixed quadratic form in the coefficient vector c.  A per-ring (m, m)
table holds the cell that x^(M_a + M_b) feeds, and the builder adds c_a c_b
(mod 2) at the k(k-1)/2 pairs a < b of the k nonzero coefficients
(:func:`_pair_sum`), then copies the cells out and applies the inverse
Frobenius as in step 5.  lambda, eager, is the indicator of M_i = (1, ...,
1), the one term of f^0 = 1.

Class matching (step 5) is arithmetic on packed codes, with no axis over
the variables.  A term b whose class (exponents mod p, packed) is u, and a
column class c, give in every field k X_k = c_k + p - u_k, in [1, 2p - 1],
and X_k >= p iff c_k >= u_k.  Adding 2^(w-1) - p to every field, w being
``code_width``, sets a field's top bit exactly where X_k >= p: that bit is
``ge``, the partner class (c - u) mod p is X - p ge and the carry into the
quotient is 1 - ge.  No field borrows from or carries into its neighbour:
a ring has at least two variables and d is the sum of the weights, so d >=
2 w_min, p d // w_min >= 2p, w >= bit_length(2p) and 2^(w-1) >= p + 1;
hence X_k <= 2p - 1 < 2^w, the offset 2^(w-1) - p is positive and X_k +
2^(w-1) - p <= 2^(w-1) + p - 1 < 2^w.  The tightest case is d = 2 w_min at
p = 2^(w-1) - 1, e.g. a binary quadric over F_7 (w = 4).  One
``searchsorted`` per block of terms of f^(p-2) finds each partner class
among the distinct classes of delta, whose run starts and lengths give
the row's run of delta terms; keys are formed only for the hits.  The
pairs are then formed a block of whole rows at a time (a row longer than
``BLOCK`` is split), each row's values repeated over its pairs.

The per-ring arrays (:class:`RingTables`) are an int32 rank table over the
box of degree-d exponent vectors, an int32 map of the m^2 cells, the column
classes, the basis codes and the lambda codes, and at p = 2 the int32 (m, m)
pair table and its boolean mask of the pairs a < b.  Their closed-form size
(:func:`ring_bytes`) is part of the route rule (:func:`admits`).  The basis
keeps them as ``MonomialBasis.tables``, built on the ring's first bundle.
Term pairs are formed in blocks of at most ``BLOCK`` (a product block of
one term of the short factor holds as many pairs as the long factor has
terms), so temporaries stay O(e^2 BLOCK) beyond the polynomials themselves.
``BLOCK`` is read at call time.

Integers only, on int64.  Coefficients are residues, below p^2 in the
Galois ring and below p in the field.  A product multiplies coordinates,
each product below p^4 < 2^60 for p < 2^15; over e > 1 these are reduced
and summed through the multiplication tensor, whose entries are residues
too, so the sum stays below e^2 (p^2 - 1)^2, which :func:`admits` keeps
below 2^63.  Products are reduced before like terms are summed, and a run
of equal codes holds at most one value per term of the short factor in the
block (at most BLOCK of them) and one of the accumulator, so a sum adds at
most BLOCK + 1 values below p^2 < 2^30.  In the kernel each product is
below p^2, and T's cells are reduced mod p after every 2^62 // (BLOCK
p^2) blocks (at least 2^19 at the default BLOCK) and after each batch of
rows, so a cell stays below p + 2^62.  A cell index, rank * m + column, is
below m^2 <= 2^20 by the byte budget, so the int32 rank table is
multiplied by m per pair and never copied.  At p = 2 each product c_a c_b
is reduced below 2, and a cell sums at most m(m-1)/2 of them, below m^2 <=
2^20 by the byte budget.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._linalg import _INT64_SAFE_P, PrimeOps, make_ops
from .polyring import RingConfig

CODE_BITS = 62  # packed codes stay below 2^62
RING_BYTES_MAX = 4 << 20  # per-ring arrays of this route, see ring_bytes
BLOCK = 1 << 13  # term pairs formed at once


def code_width(ring: RingConfig) -> int:
    """Bits per exponent: wide enough for every term of fhat^p, of degree pd."""
    p = ring.field.p
    return max((p * ring.d // w).bit_length() for w in ring.weights)


def box_radices(ring: RingConfig) -> list:
    """Mixed radices d // w_k + 1 of x_0 .. x_(N-1), which index degree-d monomials.

    x_N is left out: the degree fixes it.
    """
    return [ring.d // w + 1 for w in ring.weights[:-1]]


def ring_bytes(ring: RingConfig, m: int) -> int:
    """Upper bound on the bytes of :class:`RingTables` for a basis of size m.

    The int32 rank table over the degree-d box and int32 cell map (and at
    p = 2 the int32 pair table and its boolean mask of a < b), plus at most
    m column classes, m basis codes and m lambda codes.  Closed form: it is
    checked before anything is built.
    """
    pairs = 5 * m * m if ring.field.p == 2 else 0
    return 4 * (math.prod(box_radices(ring)) + m * m) + pairs + 8 * m * (ring.num_vars + 4)


def admits(ring: RingConfig, m: int) -> bool:
    """The route rule: whether ``cartier.bundle`` takes this route for a basis of size m.

    It holds iff all of these hold:

    * p < ``_linalg._INT64_SAFE_P`` (2^15); no field is left out by its
      size, F_2 included;
    * a product in the Galois ring GR(p^2, e) stays exact on int64:
      e^2 (p^2 - 1)^2 < 2^63 (at e = 1 the previous clause implies it);
    * exponents up to p*d, packed one bit field per variable, fit in 62 bits;
    * the route's per-ring arrays, by the closed form :func:`ring_bytes`,
      fit in ``RING_BYTES_MAX``.

    It is computed from the ring alone, before anything is built.
    ``cartier.route`` reads it only for the forms the fiber route does not
    take, and states what serves the rest.
    """
    need = _ring_bytes_if_packable(ring, m)
    return need is not None and need <= RING_BYTES_MAX


@lru_cache(maxsize=None)
def _ring_bytes_if_packable(ring: RingConfig, m: int) -> int | None:
    """:func:`ring_bytes` if the ring passes every clause of the rule but the budget, else None."""
    p, e = ring.field.p, ring.field.e
    if (
        p < _INT64_SAFE_P
        and e * e * (p * p - 1) ** 2 < 2**63
        and ring.num_vars * code_width(ring) <= CODE_BITS
    ):
        return ring_bytes(ring, m)
    return None


class RingTables:
    """The per-ring arrays of the route, kept as ``MonomialBasis.tables``.

    Column j reads the kernel terms of class c_j = (p-1-M_j) mod p: the term
    c_j + p Q lands in cell (Q + s_j, j) with s_j = (c_j + M_j - (p-1)) / p.
    Columns sharing a class read the same terms, so the kernel is summed
    only in each class's first column j0 (cell (Q + s_j0, j0)), and
    ``cell`` maps each of the m^2 cells to the cell of its kernel term, or
    to the zero sentinel m^2 when it reads none (some coordinate of Q < 0).
    At p = 2, ``pair[a, b]`` is the cell that x^(M_a + M_b) feeds, or m^2.
    """

    def __init__(self, bas):
        ring = bas.ring
        p = ring.field.p
        nv = ring.num_vars
        m = bas.m
        self.p = p
        self.m = m
        width = code_width(ring)
        self.width = width
        self.mask = (1 << width) - 1
        self.shifts = np.arange(nv - 1, -1, -1, dtype=np.int64) * width
        self.place = np.left_shift(1, self.shifts)  # exponent vector @ place = code
        self.ones = int(self.place.sum())  # the code of (1, ..., 1)
        radices = box_radices(ring)
        box = [math.prod(radices[k + 1 :]) for k in range(nv - 1)] + [0]
        self.box = np.array(box, dtype=np.int64)  # exponent vector @ box = box index
        M = np.array(bas.monomials, dtype=np.int64).reshape(m, nv)
        self.codes = M @ self.place  # of the basis monomials, descending
        # basis index by box index; entries off the basis are never read
        self.rank = np.zeros(math.prod(radices), dtype=np.int32)
        self.rank[M @ self.box] = np.arange(m, dtype=np.int32)

        C = (p - 1 - M) % p
        S = (C + M - (p - 1)) // p
        ccode = C @ self.place
        order = np.argsort(ccode, kind="stable")
        first = _run_starts(ccode[order])
        j0 = order[first]
        self.col_code = ccode[j0]  # one per class, ascending
        self.col_j0 = j0
        self.col_s0 = S[j0] @ self.box
        cls = np.empty(m, dtype=np.int64)
        cls[order] = np.cumsum(first) - 1  # class of column j

        # by blocks of rows, so that no temporary outgrows BLOCK cells
        shift = self.col_s0[cls] - S @ self.box  # Q + s_j0 = M_i - s_j + s_j0
        rows = max(1, BLOCK // m)
        self.cell = np.empty(m * m, dtype=np.int32)
        for lo in range(0, m, rows):
            Mi = M[lo : lo + rows]
            valid = (Mi[:, None, :] >= S).all(axis=2)
            moved = np.where(valid, (Mi @ self.box)[:, None] + shift, 0)
            rep = self.rank[moved] * m + j0[cls]
            self.cell[lo * m : (lo + rows) * m] = np.where(valid, rep, m * m).reshape(-1)

        corner = int(np.full(nv, p - 1, dtype=np.int64) @ self.place)
        # codes of (p-1, ..., p-1) - M_i, -1 where a coordinate is negative
        self.lam = np.where((M <= p - 1).all(axis=1), corner - M @ self.place, -1)
        if p == 2:
            self.pair = self._pair_cells(M, rows)
            # the pairs a < b: np.nonzero(upper[:k, :k]) takes 3-10 us against 26-32 us
            # for np.triu_indices(k, 1) (k = 10..30, numpy 2.4), a tenth of a scan-f2 equation
            self.upper = np.triu(np.ones((m, m), dtype=bool), 1)

    def _pair_cells(self, M: np.ndarray, rows: int) -> np.ndarray:
        """The (m, m) table of the cell x^(M_a + M_b) feeds, by blocks of rows a.

        x^E of class c = E mod 2 and quotient Q = E // 2 feeds the cell
        (Q + s_j0, j0) of the first column j0 of class c, if c is a column
        class; Q + s_j0 is then a basis monomial, since E + M_j0 - 1 >= 0.
        """
        m = self.m
        ccode = self.col_code
        pair = np.empty((m, m), dtype=np.int32)
        for lo in range(0, m, rows):
            E = M[lo : lo + rows, None, :] + M
            cls = (E & 1) @ self.place
            col = np.minimum(np.searchsorted(ccode, cls), ccode.size - 1)
            hit = ccode[col] == cls
            moved = np.where(hit, (E >> 1) @ self.box + self.col_s0[col], 0)
            pair[lo : lo + rows] = np.where(hit, self.rank[moved] * m + self.col_j0[col], m * m)
        return pair

    def exponents(self, codes: np.ndarray) -> np.ndarray:
        return (codes[:, None] >> self.shifts) & self.mask

    def box_index(self, codes: np.ndarray) -> np.ndarray:
        """``exponents(codes) @ box``, one field at a time: no (n, nv) temporary, no integer matmul."""
        out = np.zeros_like(codes)
        for shift, size in zip(self.shifts[:-1].tolist(), self.box[:-1].tolist()):
            out += ((codes >> shift) & self.mask) * size
        return out


def _run_starts(srt: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted array."""
    first = np.empty(srt.size, dtype=bool)
    first[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    return first


def _combine(s: PrimeOps, codes: np.ndarray, vals: np.ndarray, mod: int) -> tuple:
    """Like terms summed mod ``mod``, zeros dropped, codes ascending.

    ``codes`` is a few ascending runs laid end to end; the stable sort,
    numpy's timsort, finds and merges them in about linear time.
    """
    order = np.argsort(codes, kind="stable")
    srt = codes[order]
    starts = np.flatnonzero(_run_starts(srt))
    out = np.add.reduceat(vals[order], starts) % mod
    keep = s.nonzero(out)
    return srt[starts[keep]], out[keep]


def _mul(s: PrimeOps, a: tuple, b: tuple, mod: int) -> tuple:
    """a * b mod ``mod``; b is the short factor, taken whole terms at a time.

    A block pairs ``rows`` terms of b with every term of a: one ascending
    run of codes per term of b, merged with the ascending accumulator.
    """
    (ac, av), (bc, bv) = a, b
    rows = max(1, BLOCK // ac.size)
    acc = (ac[:0], av[:0])
    for lo in range(0, bc.size, rows):
        codes = (bc[lo : lo + rows, None] + ac).reshape(-1)
        vals = (s.mul(bv[lo : lo + rows, None], av, mod) % mod).reshape((-1,) + s.shape)
        acc = _combine(s, np.concatenate((acc[0], codes)), np.concatenate((acc[1], vals)), mod)
    return acc


def _terms(f, bas, s: PrimeOps) -> tuple:
    """Basis indices and coordinates of the nonzero entries of f's ``bas.coefficients(f)``."""
    v = bas.coefficients(f)
    support = np.flatnonzero(s.nonzero(v))
    return support, v[support]


def char2_lam_and_T(f, bas) -> tuple:
    """lambda over F_(2^e) and a builder of T, a quadratic form in f's coefficient vector.

    The vector is ``bas.coefficients(f)``, kept on f; see the module docstring.
    lambda does not depend on f.
    """
    t = bas.tables
    s = make_ops(bas.ring.field)
    m = t.m
    lv = s.zeros(m)
    lv[t.lam == 0] = s.one  # (1, ..., 1) - M_i is the code 0 of f^0 = 1

    def build_T() -> np.ndarray:
        kv = _pair_sum(t, s, *_terms(f, bas, s))
        return s.unfrobenius(kv[t.cell]).reshape((m, m) + s.shape)

    return s.unfrobenius(lv), build_T


def _pair_sum(t: RingTables, s: PrimeOps, support: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The kernel cells at p = 2: c_a c_b (mod 2) summed at the cell of x^(M_a + M_b), a < b.

    An (m^2 + 1,) coordinate array, whose last entry, read by the empty
    cells, is 0.
    """
    m = t.m
    i, j = np.nonzero(t.upper[: support.size, : support.size])
    kv = s.zeros(m * m + 1)
    s.add_at(kv, t.pair[support[i], support[j]], s.mul(c[i], c[j], 2))
    kv[m * m] = 0  # drop the pairs that feed no cell: the empty cells read this entry
    kv %= 2
    return kv


def general_lam_and_T(f, bas) -> tuple:
    """lambda of f by the steps above, at odd p for two or more terms, and a builder of T.

    f's terms are read from its coefficient vector ``bas.coefficients(f)``,
    kept on f, and their codes from the per-ring ``RingTables.codes``.
    lambda needs the powers of fhat up to fhat^(p-2); the builder resumes
    the chain there, with the same products in the same order.
    """
    t = bas.tables
    s = make_ops(bas.ring.field)
    p, m = t.p, t.m
    mod = p * p
    support, c = _terms(f, bas, s)
    codes = t.codes[support]
    order = np.argsort(codes)
    # the Teichmuller lift (coordinates)^q: fhat^2 of a dense F_3 quintic has
    # 779 terms against the coordinate lift's 882, so fewer pairs are formed
    fhat = (codes[order], s.power(c[order], bas.ring.field.order, mod))

    # 1. fhat^(p-2), where the builder resumes the chain; f^(p-2) is fhat^(p-2) mod p
    power = _power_chain(s, fhat, fhat, p - 3, mod)
    vals = power[1] % p
    keep = s.nonzero(vals)
    fp2 = (power[0][keep], vals[keep])

    def build_T() -> np.ndarray:
        # 3.-5. fhat^p, delta and T: the kernel summed in each class's first column,
        # then copied to every cell
        kv = s.zeros(m * m + 1)
        delta = _delta(s, fhat, _power_chain(s, power, fhat, 2, mod), p)
        if delta[0].size:
            _accumulate_kernel(t, s, delta, fp2, kv)
        return s.unfrobenius(kv[t.cell]).reshape((m, m) + s.shape)

    # 2. lambda_i = f^(p-2) at (p-1, ..., p-1) - M_i; a miss reads the zero appended
    pc, pv = fp2
    pos = np.minimum(np.searchsorted(pc, t.lam), pc.size - 1)
    pv = np.concatenate((pv, s.zeros(1)))
    return s.unfrobenius(pv[np.where(pc[pos] == t.lam, pos, pc.size)]), build_T


def _power_chain(s: PrimeOps, power: tuple, fhat: tuple, k: int, mod: int) -> tuple:
    """Steps 1 and 3: power * fhat^k mod ``mod``, by k products with the short factor fhat."""
    for _ in range(k):
        power = _mul(s, power, fhat, mod)
    return power


def _delta(s: PrimeOps, fhat: tuple, power: tuple, p: int) -> tuple:
    """Step 4: delta mod p from ``power`` = fhat^p mod p^2."""
    mod = p * p
    # delta = (fhat^p - sum chat^p x^(pa)) / p mod p; every x^(pa) is a term
    # of fhat^p, whose coefficient there is c^p != 0 mod p
    fc, fv = fhat
    hc, hv = power
    hv = hv.copy()
    hv[np.searchsorted(hc, p * fc)] -= s.power(fv, p, mod)
    dv = hv % mod // p
    keep = s.nonzero(dv)
    return hc[keep], dv[keep]


def _classes(t: RingTables, codes: np.ndarray) -> tuple:
    """Class codes (exponents mod p, packed) and quotient box indices (exponents // p) of terms.

    A box index is exact whenever the term takes part in a pair, whose
    quotients add up to a degree-d monomial.
    """
    exps = t.exponents(codes)
    return (exps % t.p) @ t.place, (exps // t.p) @ t.box


def _accumulate_kernel(t: RingTables, s: PrimeOps, delta: tuple, fp2: tuple, kv: np.ndarray) -> None:
    """Add every class-compatible delta_a * fp2_b, mod p, into kv at its cell.

    A row is a term b of f^(p-2), of class u, and a column class c; its
    partners are the delta terms of class c - u mod p, one run of the
    class-sorted delta, and a + b = c + p (Q_a + Q_b + carry), the carry
    being 1 where u exceeds c.  Both are read off the packed codes, see
    the module docstring.
    """
    p = t.p
    dcls, dq = _classes(t, delta[0])
    order = np.argsort(dcls)
    dcls, dq, dv = dcls[order], dq[order], delta[1][order]
    starts = np.flatnonzero(_run_starts(dcls))
    dcode, dlen = dcls[starts], np.diff(starts, append=dcls.size)  # the distinct classes
    fcls, fq = _classes(t, fp2[0])
    fv = fp2[1]
    ncol = t.col_code.size
    top = t.width - 1
    guard = ((1 << top) - p) * t.ones
    high = t.ones << top
    step = max(1, BLOCK // ncol)
    for lo in range(0, fcls.size, step):
        x = t.col_code + (p * t.ones - fcls[lo : lo + step, None])  # c + p - u per field
        ge = ((x + guard) & high) >> top  # 1 where c >= u
        partner = (x - p * ge).reshape(-1)
        d = np.minimum(np.searchsorted(dcode, partner), dcode.size - 1)
        hit = np.flatnonzero(dcode[d] == partner)
        d = d[hit]
        b, col = np.divmod(hit, ncol)
        carry = t.ones - ge.reshape(-1)[hit]
        key = fq[lo + b] + t.box_index(carry) + t.col_s0[col]
        _accumulate_rows(t, s, starts[d], dlen[d], key, fv[lo + b], t.col_j0[col], dq, dv, kv)


def _accumulate_rows(t: RingTables, s: PrimeOps, d_lo, d_n, key, val, j0, dq, dv, kv) -> None:
    """Row r pairs delta terms d_lo[r] .. d_lo[r] + d_n[r] - 1 with one term of f^(p-2).

    ``key`` is that term's quotient box index plus the carry's and s_j0's,
    ``val`` its coefficient, ``j0`` the first column of the row's class.
    A block takes whole rows, at most BLOCK pairs; a longer row is split.
    """
    if not d_n.size:
        return
    if d_n.max() > BLOCK:
        parts = -(-d_n // BLOCK)
        r = np.repeat(np.arange(d_n.size), parts)
        k = (np.arange(r.size) - np.repeat(np.cumsum(parts) - parts, parts)) * BLOCK
        d_lo, d_n = d_lo[r] + k, np.minimum(d_n[r] - k, BLOCK)
        key, val, j0 = key[r], val[r], j0[r]
    ends = np.cumsum(d_n)
    first = d_lo - (ends - d_n)  # pair i of the rows takes delta term i + first[r]
    every = max(1, 2**62 // (BLOCK * t.p * t.p))  # blocks between reductions of kv
    r0 = blocks = 0
    while r0 < ends.size:
        base = ends[r0] - d_n[r0]
        r1 = max(r0 + 1, int(np.searchsorted(ends, base + BLOCK, side="right")))
        n = d_n[r0:r1]
        i = np.arange(base, ends[r1 - 1]) + np.repeat(first[r0:r1], n)
        cell = t.rank[np.repeat(key[r0:r1], n) + dq[i]] * t.m + np.repeat(j0[r0:r1], n)
        s.add_at(kv, cell, s.mul(np.repeat(val[r0:r1], n, axis=0), dv[i], t.p))
        blocks += 1
        if blocks % every == 0:
            kv %= t.p
        r0 = r1
    kv %= t.p
