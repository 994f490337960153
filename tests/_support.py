"""Helpers that only the tests use: the seeded form generators, raw values of lambda, T
and Krylov rows, the per-shift lift walk, step matrices from raw rows, exact rank,
evaluation, witness tables, the reference sampler."""

from __future__ import annotations

import hashlib
import random
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from qfsplit import lifts
from qfsplit._linalg import make_ops, raw_values
from qfsplit.cartier import FrobeniusBundle, basis
from qfsplit.errors import UsageError
from qfsplit.ffield import Field, RawElement, field
from qfsplit.polyring import Polynomial, RingConfig
from qfsplit.values import Infinite

QUARTIC, SEXTIC, QUINTIC = (1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 1, 1, 1)
NAMES = {QUARTIC: "quartic", SEXTIC: "sextic", QUINTIC: "quintic"}
# forms whose lambda vanishes at some of p = 3, 5, 7 (ns = 1 there)
DIAGONAL = {
    QUARTIC: ("x^4+y^4+z^4+w^4", "x^3y+y^3z+z^3w+w^3x"),
    SEXTIC: ("x^6+y^6+z^6+w^2", "x^5y+y^5z+z^5x+w^2"),
    QUINTIC: ("x^5+y^5+z^5+w^5+u^5", "x^4y+y^4z+z^4w+w^4u+u^4x"),
}


def seeded_form(ring: RingConfig, rng: random.Random, terms: int | None) -> Polynomial:
    """``terms`` random monomials with nonzero coefficients; for None, every monomial with a
    coefficient from the whole field, the first one 1."""
    monos, elems = basis(ring).monomials, list(ring.field.elements())  # zero first
    if terms is None:
        return Polynomial(ring, {m: elems[rng.randrange(len(elems))] for m in monos} | {monos[0]: ring.field.one})
    return Polynomial(ring, {m: elems[rng.randrange(1, len(elems))] for m in rng.sample(monos, terms)})


def seeded_forms(ring: RingConfig, seed: int, dense: bool) -> list:
    """One dense form (if asked), one 4-term form and one one-term form."""
    rng = random.Random(seed)
    out = [seeded_form(ring, rng, None)] if dense else []
    out.append(seeded_form(ring, rng, 4))
    elems = list(ring.field.elements())
    return out + [Polynomial(ring, {rng.choice(basis(ring).monomials): elems[rng.randrange(1, len(elems))]})]


def random_forms(fld: Field, weights: tuple, count: int, seed: int) -> list:
    """Seeded sparse degree-d forms: 4 to 9 random terms, nonzero coefficients."""
    rng = random.Random(seed)
    ring = RingConfig(fld, weights)
    monos = basis(ring).monomials
    elems = [x for x in fld.elements() if not fld.is_zero(x)]
    return [
        Polynomial(ring, {mono: rng.choice(elems) for mono in rng.sample(monos, rng.randint(4, 9))})
        for _ in range(count)
    ]


def random_element(fld: Field, rng: random.Random) -> RawElement:
    """A uniform raw element, without enumerating the field."""
    if fld.e == 1:
        return rng.randrange(fld.p)
    return tuple(rng.randrange(fld.p) for _ in range(fld.e))


def random_unit(fld: Field, rng: random.Random) -> RawElement:
    while True:
        a = random_element(fld, rng)
        if not fld.is_zero(a):
            return a


def bundle_raw(b: FrobeniusBundle) -> tuple:
    """The bundle's (lambda, T) as raw values, for the oracles the tests compare against."""
    return tuple(raw_values(a, b.field.e) for a in (b.lam_coords, b.T_coords))


def rows_on(b: FrobeniusBundle, T) -> Iterator:
    """R_1 = F(lambda), R_{n+1} = F(R_n T) on a step matrix ``T`` of ``b.ops``, without end.

    On ``b.T_mat`` these are the rows ``cartier._walk`` steps; on a lift's
    ``lifts.t_shifted(b, c)`` they are the shifted rows R_{c,n}.  Each row is
    stepped only when asked for.
    """
    R = b.ops.frobenius_row(b.lam_row)
    while True:
        yield R
        R = b.ops.row_times_matrix(R, T)


def krylov_matrix(b: FrobeniusBundle, n: int, T=None) -> list:
    """The n rows R_1, ..., R_n of :func:`rows_on` as raw values, against the step matrix ``T``.

    By default the bundle's own rows, on ``b.T_mat``, whose rank profile
    encodes the non-splitting index.
    """
    if n < 1:
        raise UsageError("need at least one row")
    rows = rows_on(b, b.T_mat if T is None else T)
    return [raw_values(b.ops.coordinates(R, b.m), b.field.e) for R in islice(rows, n)]


def lift_index_reference(b: FrobeniusBundle, c, rows: int | None = None):
    """Oracle for ``lifts.ns_lift``: one shift walked alone on ``lifts.t_shifted(b, c)``.

    The first n <= ``rows`` (default m + 1, the bound the rows' dimension
    gives) with R_{c,n} = 0, else an infinity at the cap m + 1 that
    ``ns_lift`` reports.  Runs on every backend, ``GenericOps`` included.
    """
    walk = islice(rows_on(b, lifts.t_shifted(b, c)), b.m + 1 if rows is None else rows)
    first_zero = next((n for n, R in enumerate(walk, 1) if not b.ops.coordinates(R, b.m).any()), None)
    return Infinite(cap=b.m + 1) if first_zero is None else first_zero


def solve(rows, rhs, fld: Field) -> list:
    """One x with sum_l rows[i][l] x_l = rhs[i] over ``fld`` (free unknowns 0), by elimination."""
    width = len(rows[0])
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = []
    for col in range(width):
        hit = next((i for i in range(len(pivots), len(aug)) if not fld.is_zero(aug[i][col])), None)
        if hit is None:
            continue
        r = len(pivots)
        aug[r], aug[hit] = aug[hit], aug[r]
        inv = fld.inv(aug[r][col])
        aug[r] = [fld.mul(inv, v) for v in aug[r]]
        for i in range(len(aug)):
            if i != r and not fld.is_zero(aug[i][col]):
                k = aug[i][col]
                aug[i] = [fld.sub(v, fld.mul(k, w)) for v, w in zip(aug[i], aug[r])]
        pivots.append(col)
    if any(not fld.is_zero(row[-1]) for row in aug[len(pivots):]):
        raise AssertionError("inconsistent linear system")
    x = [fld.zero] * width
    for r, col in enumerate(pivots):
        x[col] = aug[r][-1]
    return x


def finite_lift(b: FrobeniusBundle, ns: int) -> list:
    """A shift whose lift index is ``ns`` = ns(f) >= 2, built from the base rows.

    With k = ns - 1, R_1..R_k is a basis of V and R_ns = sum a_i R_i.  In
    that basis the orbit of R_{c,1} = R_1 under L_c(R) = F(R T) - F(R . c) R_1
    is v_n = e_n - sum_{j<n} F^(n-j)(s_j) e_(n-j), s_n = R_{c,n} . c, so
    v_(k+1) = a - sum_j F^(k+1-j)(s_j) e_(k+1-j) vanishes for
    s_j = F^-(k+1-j)(a_(k+1-j)).  The values y_n = R_n . c this needs follow
    from s_n = sum_i (v_n)_i y_i, and c solves R_n . c = y_n, n <= k.
    """
    fld = b.field
    k = ns - 1
    rows = krylov_matrix(b, ns)
    a = solve([list(col) for col in zip(*rows[:k])], rows[k], fld)

    def frob(x, n):  # F^n, n of either sign
        for _ in range(abs(n)):
            x = fld.frobenius(x) if n > 0 else fld.inverse_frobenius(x)
        return x

    s = [frob(a[k - j], -(k + 1 - j)) for j in range(1, k + 1)]  # s[j - 1] = s_j
    y = []
    for n in range(1, k + 1):
        yn = s[n - 1]
        for j in range(1, n):
            yn = fld.add(yn, fld.mul(frob(s[j - 1], n - j), y[n - j - 1]))
        y.append(yn)
    return solve(rows[:k], y, fld)


def step_matrix_reference(ops, rows) -> np.ndarray:
    """``ops.matrix`` rebuilt densely from T's raw rows, on ``ops``' tables.

    Every block (i, j), the multiplication matrix of T_ij times the
    Frobenius matrix, is formed from the raw value T_ij, zero cells
    included, in one ``_blocks`` call and moved into place by one
    transpose; the production build forms only the blocks of the cells it
    finds nonzero, so this shares no cell selection with it.
    """
    m, e = len(rows), ops.e
    cells = np.array(rows, dtype=ops.dtype).reshape((m, m) + ops.shape) % ops.p
    if e == 1:
        return cells
    return ops._blocks(cells, ops.steps).transpose(0, 2, 1, 3).reshape(m * e, m * e)


def step_matrix_array(b: FrobeniusBundle, mat) -> np.ndarray:
    """The step matrix ``mat`` of ``b.ops``, in any backend's form, read back as an
    (m*e, m*e) coordinate array: row j is the step of the j-th unit row."""
    ops = b.ops
    unit = np.eye(b.m * b.field.e, dtype=np.int64)
    return np.array([ops.coordinates(ops.row_times_matrix(ops.row(u), mat), b.m).reshape(-1)
                     for u in unit])


def matrix_rank(rows, field: Field) -> int:
    """Exact rank of a list of raw-value rows over the field."""
    ops = make_ops(field)
    tracker = ops.rank_tracker()
    for r in rows:
        tracker.add_row(ops.row(r))
    return tracker.rank


def partial(f: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative of f with respect to x_i."""
    fld = f.ring.field
    out: dict = {}
    for exps, coeff in f.term_dict().items():
        e = exps[i]
        if e == 0:
            continue
        scalar = fld.from_int(e)
        if fld.is_zero(scalar):
            continue
        lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
        val = fld.mul(scalar, coeff)
        cur = out.get(lowered)
        out[lowered] = val if cur is None else fld.add(cur, val)
    return Polynomial(f.ring, out)


def evaluate(f: Polynomial, point: Sequence[RawElement]) -> RawElement:
    """Value of f at a point with coordinates in the coefficient field."""
    fld = f.ring.field
    if len(point) != f.ring.num_vars:
        raise UsageError("point has the wrong number of coordinates")
    total = fld.zero
    for exps, coeff in f.term_dict().items():
        val = coeff
        for x, e in zip(point, exps):
            if e:
                val = fld.mul(val, fld.pow(x, e))
        total = fld.add(total, val)
    return total


def witness_table_reference(ring: RingConfig, k: int) -> np.ndarray:
    """``scan._WitnessTables(ring, k).table``, each of the nv + 1 tables multiplied out alone.

    Every table gathers and multiplies all nv variable factors again, as
    the production build did before it shared prefix and suffix products.
    """
    p = ring.field.p
    q = p**k
    nv = ring.num_vars
    bas = basis(ring)
    npts = (q**nv - 1) // (q - 1)
    dtype = np.min_scalar_type(bas.m * (p - 1) ** 2)
    fld = ring.field if k == 1 else field(p, k)
    elems = list(fld.elements())
    code_of = {e: i for i, e in enumerate(elems)}
    one = code_of[fld.one]
    mul = np.array([code_of[fld.mul(a, b)] for a in elems for b in elems], dtype=np.int32)
    exps = np.array(bas.monomials)
    powtab = np.empty((q, int(exps.max()) + 1), dtype=np.int32)
    powtab[:, 0] = one
    for e in range(1, powtab.shape[1]):
        powtab[:, e] = mul[powtab[:, e - 1] * q + np.arange(q)]
    blocks = []
    for pivot in range(nv):
        tail = nv - pivot - 1
        idx = np.arange(q**tail)
        block = np.zeros((q**tail, nv), dtype=np.int32)
        block[:, pivot] = one
        for j in range(tail):
            block[:, pivot + 1 + j] = idx // q**j % q
        blocks.append(block)
    points = np.concatenate(blocks)

    def values(ex: np.ndarray) -> np.ndarray:
        acc = powtab[:, ex[:, 0]][points[:, 0]]
        for i in range(1, nv):
            acc = mul[acc * q + powtab[:, ex[:, i]][points[:, i]]]
        return acc

    weil = np.array(elems, dtype=dtype).reshape(q, k).T
    table = np.empty((nv + 1, k, npts, bas.m), dtype=dtype)
    table[0] = weil.take(values(exps), axis=1)
    for i in range(nv):
        lowered = exps.copy()
        lowered[:, i] = np.maximum(lowered[:, i] - 1, 0)
        scale = (exps[:, i] % p).astype(dtype)
        table[i + 1] = weil.take(values(lowered), axis=1) * scale % p
    return table


def _u64_stream(seed: int, index: int):
    """The 64-bit words ``scan.sample`` reads, one at a time: its reference."""
    key = (seed % 2**64).to_bytes(8, "little")
    block = 0
    while True:
        msg = index.to_bytes(8, "little") + block.to_bytes(4, "little")
        digest = hashlib.blake2b(msg, key=key, digest_size=64).digest()
        for off in range(0, 64, 8):
            yield int.from_bytes(digest[off : off + 8], "little")
        block += 1


def sample_reference(seed: int, index: int, ring: RingConfig) -> list:
    """``scan.sample`` drawn word by word from a generator over the hash blocks."""
    m = basis(ring).m
    fld = ring.field
    stream = _u64_stream(seed, index)
    if fld.e == 1:
        return [next(stream) % fld.p for _ in range(m)]
    return [tuple(next(stream) % fld.p for _ in range(fld.e)) for _ in range(m)]
