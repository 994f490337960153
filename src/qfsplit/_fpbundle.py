"""The prime-field route of :func:`cartier.bundle`: lambda and T from numpy term arrays.

A polynomial is a pair of int64 arrays: packed exponent codes (one
``width``-bit field per variable, x_0 highest, as in ``polyring._pack``),
sorted ascending, and canonical coefficients, so exponent vectors add as
codes.  Per equation:

1. ``fhat``, the Teichmuller lift of f to Z/p^2 (c -> c^p mod p^2), is
   multiplied by f's lift p - 1 times, f being the short factor (at most m
   terms); ``f^(p-2) = fhat^(p-2) mod p`` and ``fhat^p`` is the last power;
2. ``delta = (fhat^p - phi(fhat)) / p mod p`` with phi(c x^a) = c x^(pa),
   the identity ``polyring.delta_lift_oracle`` checks the Witt-sum route
   against;
3. T[i][j] sums delta_a * f^(p-2)_b over the pairs with a + b = p M_i +
   (p-1, ..., p-1) - M_j.  Only pairs whose residue classes mod p add up to
   a column class (p-1-M_j) mod p are formed: for each term b and each
   column class c, the partners are the delta terms of class c - b, one run
   of delta sorted by class.  Every such pair reaches a cell, found from
   the quotients a // p and b // p through the per-ring tables;
4. lambda_i is the coefficient of f^(p-2) at (p-1, ..., p-1) - M_i.

The per-ring arrays (:class:`RingTables`) are an int32 rank table over the
box of degree-d exponent vectors, an int32 map of the m^2 cells, the column
classes and the lambda codes.  Their closed-form size (:func:`ring_bytes`)
is part of the route rule, and they are built on a ring's first bundle.
Term pairs are formed in blocks of at most ``BLOCK``, so temporaries stay
O(BLOCK) beyond the polynomials themselves.

Integers only, on int64.  A product of two residues mod p^2 is below p^4 <
2^60 for p < 2^15 and is reduced, once per block, before any sum; a sum
then adds at most BLOCK + 1 values below p^2 < 2^30, far below 2^63.  The
kernel pairs multiply residues mod p, below p^2, and each T cell is reduced
mod p once per block, so it stays below p + BLOCK p^2 < 2^44.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._linalg import _INT64_SAFE_P
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

    The int32 rank table over the degree-d box and int32 cell map, plus at
    most m column classes and m lambda codes.  Closed form: it is checked
    before anything is built.
    """
    return 4 * (math.prod(box_radices(ring)) + m * m) + 8 * m * (ring.num_vars + 3)


def admits(ring: RingConfig, m: int) -> bool:
    """The route rule: F_p with 2 < p < 2^15, 62-bit codes, per-ring arrays in budget."""
    return (
        ring.field.e == 1
        and 2 < ring.field.p < _INT64_SAFE_P
        and ring.num_vars * code_width(ring) <= CODE_BITS
        and ring_bytes(ring, m) <= RING_BYTES_MAX
    )


class RingTables:
    """The per-ring arrays of the route, built on the ring's first bundle.

    Column j reads the kernel terms of class c_j = (p-1-M_j) mod p: the term
    c_j + p Q lands in cell (Q + s_j, j) with s_j = (c_j + M_j - (p-1)) / p.
    Columns sharing a class read the same terms, so the kernel is summed
    only in each class's first column j0 (cell (Q + s_j0, j0)), and
    ``cell`` maps each of the m^2 cells to the cell of its kernel term, or
    to the zero sentinel m^2 when it reads none (some coordinate of Q < 0).
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

    def exponents(self, codes: np.ndarray) -> np.ndarray:
        return (codes[:, None] >> self.shifts) & self.mask


@lru_cache(maxsize=None)
def ring_tables(bas) -> RingTables:
    """The route's arrays for the basis ``bas`` of one ring."""
    return RingTables(bas)


def _run_starts(srt: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted array."""
    first = np.empty(srt.size, dtype=bool)
    first[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    return first


def _combine(codes: np.ndarray, vals: np.ndarray, mod: int) -> tuple:
    """Like terms summed mod ``mod``, zeros dropped, codes ascending."""
    srt = np.sort(codes)
    support = srt[_run_starts(srt)]
    out = np.zeros(support.size, dtype=np.int64)
    np.add.at(out, np.searchsorted(support, codes), vals)
    out %= mod
    keep = out != 0
    return support[keep], out[keep]


def _mul(a: tuple, b: tuple, mod: int) -> tuple:
    """a * b over Z/mod in blocks of at most BLOCK term pairs; b is the short factor."""
    (ac, av), (bc, bv) = a, b
    na = ac.size
    total = na * bc.size
    acc = (ac[:0], av[:0])
    for lo in range(0, total, BLOCK):
        k = np.arange(lo, min(lo + BLOCK, total), dtype=np.int64)
        j, i = np.divmod(k, na)  # runs of a per term of b
        codes = np.concatenate((acc[0], ac[i] + bc[j]))
        vals = np.concatenate((acc[1], av[i] * bv[j] % mod))
        acc = _combine(codes, vals, mod)
    return acc


def lam_and_T(f, bas) -> tuple:
    """The raw lambda row and T matrix of f on this route, by the steps above."""
    t = ring_tables(bas)
    p, m = t.p, t.m
    mod = p * p
    terms = f.term_dict()
    codes = np.array(list(terms), dtype=np.int64).reshape(len(terms), -1) @ t.place
    order = np.argsort(codes)
    fc = codes[order]
    fv = np.array(list(terms.values()), dtype=np.int64)[order]
    fhat = (fc, np.array([pow(c, p, mod) for c in fv.tolist()], dtype=np.int64))

    # 1. fhat^k for k = 1 .. p, keeping k = p - 2
    fp2 = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))  # fhat^0
    power = fhat
    for k in range(1, p):
        if k == p - 2:
            fp2 = power
        power = _mul(power, fhat, mod)
    vals = fp2[1] % p
    keep = vals != 0
    fp2 = (fp2[0][keep], vals[keep])

    # 2. delta = (fhat^p - phi(fhat)) / p mod p; every phi term is a term of
    # fhat^p, whose coefficient there is c^p = c != 0 mod p
    hc, hv = power
    hv = hv.copy()
    hv[np.searchsorted(hc, p * fc)] -= fhat[1]
    dv = hv % mod // p
    keep = dv != 0
    delta = (hc[keep], dv[keep])

    # 3. T: the kernel summed in each class's first column, then copied to every cell
    kv = np.zeros(m * m + 1, dtype=np.int64)
    if delta[0].size:
        _accumulate_kernel(t, delta, fp2, kv)

    # 4. lambda_i = f^(p-2) at (p-1, ..., p-1) - M_i
    pc, pv = fp2
    pos = np.minimum(np.searchsorted(pc, t.lam), pc.size - 1)
    lam = np.where(pc[pos] == t.lam, pv[pos], 0)
    return lam.tolist(), kv[t.cell].reshape(m, m).tolist()


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


def _accumulate_kernel(t: RingTables, delta: tuple, fp2: tuple, kv: np.ndarray) -> None:
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
        _accumulate_rows(t, d_lo.reshape(-1)[hit], d_n.reshape(-1)[hit], key.reshape(-1)[hit],
                         fv[lo + b], t.col_j0[col], dq, dv, kv)


def _accumulate_rows(t: RingTables, d_lo, d_n, key, val, j0, dq, dv, kv) -> None:
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
        np.add.at(kv, cell, val[r] * dv[i])
        kv %= t.p
