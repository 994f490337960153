"""The numpy route of :func:`cartier.bundle`: lambda and T from term arrays, over F_q.

q = p^e, F_p being the case e = 1.  A polynomial is a pair of int64 arrays:
packed exponent codes (one ``width``-bit field per variable, x_0 highest,
as in ``polyring._pack``), sorted ascending, and coefficients, so exponent
vectors add as codes.  A coefficient is one residue at e = 1 and an e-vector
of residues in the basis 1, t, ..., t^(e-1) otherwise; the arithmetic on
them is the field's :class:`_linalg.PrimeOps` (:func:`_linalg.make_ops`).
f's arrays are the nonzero entries of the coordinate array f keeps,
``MonomialBasis.coefficients(f)``, and their basis codes.  Per equation:

1. ``fhat``, f with each coefficient lifted to the Galois ring GR(p^2, e) =
   (Z/p^2)[t] / (the field's modulus with its coefficients read as
   integers), is multiplied by itself p - 1 times, fhat being the short
   factor (at most m terms); any lift gives ``f^(p-2) = fhat^(p-2) mod p``,
   and ``fhat^p`` is the last power.  The route takes the Teichmuller lift
   chat = (any lift)^q, whose powers cancel more often mod p^2;
2. ``delta = (fhat^p - sum_a chat_a^p x^(pa)) / p mod p``: the first Witt
   sum polynomial at the lifted terms, the identity
   ``polyring.delta_lift_oracle`` checks the Witt-sum route against over F_p.
   Any lift gives it, but chat^p = chat only over F_p;
3. T[i][j] sums delta_a * f^(p-2)_b over the pairs with a + b = p M_i +
   (p-1, ..., p-1) - M_j.  Only pairs whose residue classes mod p add up
   to a column class (p-1-M_j) mod p are formed: for each term b and each
   column class c, the partners are the delta terms of class c - b, one run
   of delta sorted by class.  Every such pair reaches a cell, found from
   the quotients a // p and b // p through the per-ring tables.  Then the
   inverse Frobenius (F_p-linear, the e x e matrix ``ifrob`` of
   :func:`_linalg.make_ops`) leaves T as an (m, m) coordinate array,
   (m, m, e) at e > 1;
4. lambda_i is the inverse Frobenius of the coefficient of f^(p-2) at
   (p-1, ..., p-1) - M_i: an (m,) coordinate array, (m, e) at e > 1.

:class:`cartier.FrobeniusBundle` stores these arrays and
``_linalg.PrimeOps.matrix`` reads T's, both in the coordinates of the
field's ``PrimeOps``; neither is turned into raw field values.

At p = 2 none of this runs (:func:`char2_lam_and_T`).  There f^(p-2) = 1,
and for f = sum_a c_a x^(M_a) over the basis and any lift fhat = sum_a
chat_a x^(M_a), fhat^2 = sum_a chat_a^2 x^(2 M_a) + 2 sum_(a<b) chat_a
chat_b x^(M_a + M_b), so

    delta(f) = sum_(a<b) c_a c_b x^(M_a + M_b):

T is a fixed quadratic form in the coefficient vector c.  A per-ring (m, m)
table holds the cell that x^(M_a + M_b) feeds, and an equation adds c_a c_b
(mod 2) at the k(k-1)/2 pairs a < b of its k nonzero coefficients, then
copies the cells out and applies the inverse Frobenius as in step 3.
lambda is the indicator of M_i = (1, ..., 1), the one term of f^0 = 1.

The per-ring arrays (:class:`RingTables`) are an int32 rank table over the
box of degree-d exponent vectors, an int32 map of the m^2 cells, the column
classes, the basis codes and the lambda codes, and at p = 2 the int32 (m, m)
pair table and its boolean mask of the pairs a < b.  Their closed-form size
(:func:`ring_bytes`) is part of the route rule (:func:`admits`).  The basis
keeps them as ``MonomialBasis.tables``, built on the ring's first bundle.
Term pairs are formed in blocks of at most ``BLOCK``, so temporaries stay
O(e^2 BLOCK) beyond the polynomials themselves.

Integers only, on int64.  Coefficients are residues, below p^2 in the
Galois ring and below p in the field.  A product multiplies coordinates,
each product below p^4 < 2^60 for p < 2^15; over e > 1 these are reduced
and summed through the multiplication tensor, whose entries are residues
too, so the sum stays below e^2 (p^2 - 1)^2, which :func:`admits` keeps
below 2^63.  Products are reduced before like terms are summed, and a sum
adds at most BLOCK + 1 values below p^2 < 2^30.  In the kernel each product
is below p^2, and each T cell is reduced mod p once per block, so it stays
below p + BLOCK p^2 < 2^44.  At p = 2 each product c_a c_b is reduced below
2, and a cell sums at most m(m-1)/2 of them, below m^2 <= 2^20 by the byte
budget.
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

    It is computed from the ring alone, before anything is built.  The dict
    route serves the rest: p >= 2^15 and the rings past the other bounds.
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
        self.mask = (1 << width) - 1
        self.shifts = np.arange(nv - 1, -1, -1, dtype=np.int64) * width
        self.place = np.left_shift(1, self.shifts)  # exponent vector @ place = code
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
        self.columns = C[j0]  # one row per class, by class code
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
        ccode = self.columns @ self.place  # ascending
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


def _run_starts(srt: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted array."""
    first = np.empty(srt.size, dtype=bool)
    first[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    return first


def _combine(s: PrimeOps, codes: np.ndarray, vals: np.ndarray, mod: int) -> tuple:
    """Like terms summed mod ``mod``, zeros dropped, codes ascending."""
    srt = np.sort(codes)
    support = srt[_run_starts(srt)]
    out = s.zeros(support.size)
    s.add_at(out, np.searchsorted(support, codes), vals)
    out %= mod
    keep = s.nonzero(out)
    return support[keep], out[keep]


def _mul(s: PrimeOps, a: tuple, b: tuple, mod: int) -> tuple:
    """a * b mod ``mod`` in blocks of at most BLOCK term pairs; b is the short factor."""
    (ac, av), (bc, bv) = a, b
    na = ac.size
    total = na * bc.size
    acc = (ac[:0], av[:0])
    for lo in range(0, total, BLOCK):
        k = np.arange(lo, min(lo + BLOCK, total), dtype=np.int64)
        j, i = np.divmod(k, na)  # runs of a per term of b
        codes = np.concatenate((acc[0], ac[i] + bc[j]))
        vals = np.concatenate((acc[1], s.mul(av[i], bv[j], mod) % mod))
        acc = _combine(s, codes, vals, mod)
    return acc


def _terms(f, bas, s: PrimeOps) -> tuple:
    """Basis indices and coordinates of the nonzero entries of f's ``bas.coefficients(f)``."""
    v = bas.coefficients(f)
    support = np.flatnonzero(s.nonzero(v))
    return support, v[support]


def lam_and_T(f, bas) -> tuple:
    """The coordinate arrays of lambda and T of f on this route (steps 3 and 4 above)."""
    if bas.ring.field.p == 2:
        return char2_lam_and_T(f, bas)
    return general_lam_and_T(f, bas)


def char2_lam_and_T(f, bas) -> tuple:
    """lambda and T over F_(2^e) as a quadratic form in f's coefficient vector.

    The vector is ``bas.coefficients(f)``, kept on f; see the module docstring.
    """
    t = bas.tables
    s = make_ops(bas.ring.field)
    m = t.m
    support, c = _terms(f, bas, s)
    i, j = np.nonzero(t.upper[: support.size, : support.size])
    kv = s.zeros(m * m + 1)
    s.add_at(kv, t.pair[support[i], support[j]], s.mul(c[i], c[j], 2))
    kv[m * m] = 0  # drop the pairs that feed no cell: the empty cells read this entry
    kv %= 2
    lv = s.zeros(m)
    lv[t.lam == 0] = s.one  # (1, ..., 1) - M_i is the code 0 of f^0 = 1
    return s.unfrobenius(lv), s.unfrobenius(kv[t.cell]).reshape((m, m) + s.shape)


def general_lam_and_T(f, bas) -> tuple:
    """The coordinate arrays of lambda and T of f by the steps above, at any p of the route.

    f's terms are read from its coefficient vector ``bas.coefficients(f)``,
    kept on f, and their codes from the per-ring ``RingTables.codes``.
    """
    t = bas.tables
    s = make_ops(bas.ring.field)
    p, m = t.p, t.m
    mod = p * p
    support, c = _terms(f, bas, s)
    codes = t.codes[support]
    order = np.argsort(codes)
    fc = codes[order]
    # the Teichmuller lift (coordinates)^q: fhat^2 of a dense F_3 quintic has
    # 779 terms against the coordinate lift's 882, so fewer pairs are formed
    fhat = (fc, s.power(c[order], bas.ring.field.order, mod))

    # 1. fhat^k for k = 1 .. p, keeping k = p - 2
    fp2 = (np.zeros(1, dtype=np.int64), s.one)  # fhat^0
    power = fhat
    for k in range(1, p):
        if k == p - 2:
            fp2 = power
        power = _mul(s, power, fhat, mod)
    vals = fp2[1] % p
    keep = s.nonzero(vals)
    fp2 = (fp2[0][keep], vals[keep])

    # 2. delta = (fhat^p - sum chat^p x^(pa)) / p mod p; every x^(pa) is a term
    # of fhat^p, whose coefficient there is c^p != 0 mod p
    hc, hv = power
    hv = hv.copy()
    hv[np.searchsorted(hc, p * fc)] -= s.power(fhat[1], p, mod)
    dv = hv % mod // p
    keep = s.nonzero(dv)
    delta = (hc[keep], dv[keep])

    # 3. T: the kernel summed in each class's first column, then copied to every cell
    kv = s.zeros(m * m + 1)
    if delta[0].size:
        _accumulate_kernel(t, s, delta, fp2, kv)
    T = s.unfrobenius(kv[t.cell]).reshape((m, m) + s.shape)

    # 4. lambda_i = f^(p-2) at (p-1, ..., p-1) - M_i; a miss reads the zero appended
    pc, pv = fp2
    pos = np.minimum(np.searchsorted(pc, t.lam), pc.size - 1)
    pv = np.concatenate((pv, s.zeros(1)))
    return s.unfrobenius(pv[np.where(pc[pos] == t.lam, pos, pc.size)]), T


def _by_class(t: RingTables, poly: tuple) -> tuple:
    """Terms ordered by residue class: exponents mod p, their codes, quotient box indices, values.

    A term x^e has class e mod p and quotient e // p.  Its box index is
    exact whenever the term takes part in a pair, whose quotients add up to
    a degree-d monomial.
    """
    exps = t.exponents(poly[0])
    res = exps % t.p
    cls = res @ t.place
    order = np.argsort(cls, kind="stable")
    return res[order], cls[order], (exps[order] // t.p) @ t.box, poly[1][order]


def _accumulate_kernel(t: RingTables, s: PrimeOps, delta: tuple, fp2: tuple, kv: np.ndarray) -> None:
    """Add every class-compatible delta_a * fp2_b, mod p, into kv at its cell.

    A row is a term b of f^(p-2) and a column class c; its partners are the
    delta terms of class c - b mod p, one run of the class-sorted delta.
    Then a + b = c + p (Q_a + Q_b + carry), the carry being 1 where the
    class of b exceeds c.
    """
    p = t.p
    _, dcls, dq, dv = _by_class(t, delta)
    fres, _, fq, fv = _by_class(t, fp2)
    ncol, nv = t.columns.shape
    step = max(1, BLOCK // (ncol * nv))
    for lo in range(0, fres.size, step):
        res = fres[lo : lo + step, None, :]
        partner = ((t.columns - res) % p) @ t.place
        d_lo = np.searchsorted(dcls, partner, side="left")
        d_n = np.searchsorted(dcls, partner, side="right") - d_lo
        key = (res > t.columns).astype(np.int64) @ t.box + t.col_s0 + fq[lo : lo + step, None]
        hit = np.flatnonzero(d_n)
        b, col = np.divmod(hit, ncol)
        _accumulate_rows(t, s, d_lo.reshape(-1)[hit], d_n.reshape(-1)[hit], key.reshape(-1)[hit],
                         fv[lo + b], t.col_j0[col], dq, dv, kv)


def _accumulate_rows(t: RingTables, s: PrimeOps, d_lo, d_n, key, val, j0, dq, dv, kv) -> None:
    """Row r pairs delta terms d_lo[r] .. d_lo[r] + d_n[r] - 1 with one term of f^(p-2).

    ``key`` is that term's quotient box index plus the carry's and s_j0's,
    ``val`` its coefficient, ``j0`` the first column of the row's class.
    """
    ends = np.cumsum(d_n)
    shift = d_lo - (ends - d_n)  # pair k of row r takes delta term k + shift[r]
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, BLOCK):
        hi = min(lo + BLOCK, total)
        r0 = int(np.searchsorted(ends, lo, side="right"))
        r1 = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        counts = np.minimum(ends[r0:r1], hi) - np.maximum(ends[r0:r1] - d_n[r0:r1], lo)
        r = np.repeat(np.arange(r0, r1), counts)
        i = np.arange(lo, hi, dtype=np.int64) + shift[r]
        cell = t.rank[key[r] + dq[i]] * t.m + j0[r]
        s.add_at(kv, cell, s.mul(val[r], dv[i], t.p))
        kv %= t.p
