"""Helpers that only the tests use: raw Krylov rows, exact rank, evaluation."""

from __future__ import annotations

from itertools import islice
from typing import Sequence

from qfsplit._linalg import make_ops
from qfsplit.cartier import FrobeniusBundle, krylov_rows
from qfsplit.errors import UsageError
from qfsplit.ffield import Field, RawElement
from qfsplit.polyring import Polynomial


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
