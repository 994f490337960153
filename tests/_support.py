"""Helpers that only the tests use: raw Krylov rows, exact rank, evaluation, witness tables."""

from __future__ import annotations

from itertools import islice
from typing import Sequence

import numpy as np

from qfsplit._linalg import make_ops
from qfsplit.cartier import FrobeniusBundle, basis, krylov_rows
from qfsplit.errors import UsageError
from qfsplit.ffield import Field, RawElement, field
from qfsplit.polyring import Polynomial, RingConfig


def krylov_matrix(b: FrobeniusBundle, n: int, T=None) -> list:
    """The n rows R_1, ..., R_n as raw values, against the step matrix ``T``.

    ``T`` is as in :func:`qfsplit.cartier.krylov_rows`: default the bundle's
    own, giving the plain rows whose rank profile encodes the non-splitting
    index; a lift's ``lifts.t_shifted(b, c)`` gives the shifted rows R_{c,n}.
    """
    if n < 1:
        raise UsageError("need at least one row")
    return [b.ops.row_to_raw(R) for R in islice(krylov_rows(b, T), n)]


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
