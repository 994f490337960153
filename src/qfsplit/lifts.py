"""Non-splitting behaviour of first-order lifts to mixed characteristic.

A lift of f = sum b_i M_i perturbs each coefficient to first order by a
vector c; all of its non-splitting data is governed by the shifted matrix

    T_c = T - c * lambda        (outer product, column c times row lambda)

through the twisted recursion R_{c,1} = F(lambda), R_{c,n+1} = F(R_{c,n} T_c)
(the Frobenius wraps the product; over a prime field it is invisible).
When f itself is not quasi-F-split (infinite height), the lift's
non-splitting index is the first n with R_{c,n} = 0; its only possible
values are ns(f) and infinity, and when lambda != 0 an explicit c with
infinite index exists and is constructed here.

:func:`ns_lift` reads R_{c,1}..R_{c,ns(f)}, which is exhaustive (the proof
is in its docstring), for any number of shifts in one batched walk that
never builds T_c: a step is F(R T) minus (R . c) times a fixed row.
:func:`infinite_lift` proves the index of the lift it constructs with that
same walk.

Two oracles build T_c, for the tests that check the batched step:
:func:`t_shifted` forms T - c * lambda entry by entry and returns its step
matrix, and :func:`shifted_matrix_direct` rebuilds T_c from the shifted
polynomial kernel (delta(f) - G(c)^p) * f^(p-2); agreement of the two
routes is a mandatory self-test exercised by the suite.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from ._linalg import make_ops, raw_values
from .cartier import (
    FrobeniusBundle,
    columns_from_kernel,
    default_ns_cap,
    descent_product,
    height,
    ns_index,
)
from .errors import ResourceError, UsageError
from .ffield import RawElement
from .polyring import corner_coefficient, delta, poly_pow, prune
from .values import Infinite, is_infinite

_CHUNK_CELLS = 1 << 16  # row coordinates (shifts x m*e) per chunk of the lift walk


def t_shifted(b: FrobeniusBundle, c: Sequence[RawElement]):
    """Oracle for :func:`ns_lift`'s batched step: the step matrix of T_c = T - c * lambda.

    T_c is formed entry by entry, T_ij - c_i lambda_j on coordinate arrays,
    and handed to ``b.ops.matrix``, so a walk on it shares no code with the
    batched step (:meth:`_linalg.PrimeOps.lift_step`), which never builds T_c.
    """
    m = b.m
    if len(c) != m:
        raise UsageError(f"shift vector must have length {m}, got {len(c)}")
    ops = make_ops(b.field)  # b.ops may be the list-based oracle, which has no mul
    outer = ops.mul(np.repeat(ops.lift(list(c)), m, axis=0), np.concatenate([b.lam_coords] * m), ops.p)
    return b.ops.matrix((b.T_coords - outer.reshape(b.T_coords.shape)) % ops.p)


def shifted_matrix_direct(b: FrobeniusBundle, c: Sequence[RawElement]) -> list:
    """Oracle for :func:`t_shifted`: T_c rebuilt from shifted polynomial data.

    Independent of the rank-one route.  The first-order shift changes the
    defect kernel by delta -> delta - G(c)^p, where G(c) is the degree-d
    form with coefficient vector c; the matrix of
    h -> u((delta(f) - G(c)^p) f^(p-2) h) must equal T - c * lambda.
    """
    if len(c) != b.m:
        raise UsageError(f"shift vector must have length {b.m}, got {len(c)}")
    p = b.field.p
    g_c = b.basis.polynomial(list(c))
    shifted_kernel = (delta(b.f) - poly_pow(g_c, p)) * poly_pow(b.f, p - 2)
    return columns_from_kernel(b.basis, shifted_kernel)


def _require_infinite_height(b: FrobeniusBundle) -> None:
    if not is_infinite(height(b)):
        raise UsageError("lift indices are defined only over a non-quasi-F-split base")


def ns_lift(b: FrobeniusBundle, shifts: Iterable[Sequence[RawElement]]) -> list:
    """Non-splitting indices of the lifts by ``shifts``, in order: first n with R_{c,n} = 0.

    ``shifts`` is any iterable of shift vectors c of m raw field values.
    Requires the base height to be infinite (otherwise the recursion does not
    encode the lift's index).  Reading R_{c,1}..R_{c,ns} with ns = ns(f) is
    exhaustive, so an index is the first n <= ns with R_{c,n} = 0, and
    infinity otherwise:

    * V = span(R_1..R_{ns-1}), the base walk's span, is stable under
      L(R) = F(R T) (see :func:`cartier.default_height_cap`: R_ns lies in V);
    * L_c(R) = F(R T_c) = L(R) - F(R . c) R_1 with R_1 = F(lambda) in V, so
      V is L_c-stable too, and the orbit R_{c,1} = R_1, R_{c,n+1} = L_c(R_{c,n})
      lies in V, of dimension ns - 1;
    * L_c is Frobenius-semilinear and W, the F_q-span of the orbit, is
      L_c-stable; if R_{c,N} = 0 then L_c^N kills every orbit row, hence all
      of W;
    * ker(L_c^j) on W is an F_q-subspace, and the chain ker L_c <= ker L_c^2
      <= ... is constant from its first stall on (x in ker L_c^(j+2) puts
      L_c(x) in ker L_c^(j+1) = ker L_c^j), so it grows strictly until it
      fills W;
    * hence L_c^(dim W) kills W, R_{c,dim W + 1} = 0, and dim W + 1 <= ns.

    When lambda = 0, ns = 1 and R_1 = 0, so every index is 1.  An infinity
    is reported at the cap m + 1 (:func:`cartier.default_ns_cap`), which
    bounds ns.

    All shifts are walked at once, as one batch of rows on the bundle's
    backend (:meth:`_linalg.PrimeOps.lift_batch`), and T_c is never built:
    one :meth:`_linalg.PrimeOps.lift_step` is F(R T) on T's step matrix,
    minus (R . c) times the row of blocks of
    :meth:`_linalg.PrimeOps.shift_row`.  The shifts are read and walked in
    chunks of at most _CHUNK_CELLS row coordinates, so memory does not grow
    with their number.
    """
    _require_infinite_height(b)
    ops = b.ops
    m, e = b.m, b.field.e
    ns = ns_index(b)
    infinite = Infinite(cap=default_ns_cap(b))
    first = ops.frobenius_row(b.lam_row)  # R_{c,1} for every c
    lam = ops.shift_row(b.lam_row)
    out = []
    todo = iter(shifts)
    while chunk := list(islice(todo, max(1, _CHUNK_CELLS // (m * e)))):
        if any(len(c) != m for c in chunk):
            raise UsageError(f"shift vector must have length {m}")
        R, cols = ops.lift_batch(first, chunk)
        index = np.zeros(len(chunk), dtype=np.int64)  # 0 until R_{c,n} = 0
        for n in range(1, ns + 1):
            index[(index == 0) & ops.zero_rows(R)] = n
            if n == ns or index.all():
                break
            R = ops.lift_step(R, b.T_mat, cols, lam)
        out.extend(int(k) if k else infinite for k in index)
    return out


def infinite_lift(b: FrobeniusBundle) -> list | None:
    """A shift c with ns_lift = infinity, or None when lambda = 0.

    Picks the first j with lambda_j != 0 and sets c = lambda_j^{-1} (T e_j - e_j),
    which forces T_c e_j = e_j, so the recursion preserves a nonzero value at
    coordinate j forever.  Both facts are verified before returning: the
    first exactly, from column j of T alone, and the second as
    ns_lift(b, [c]) = infinity at cap m + 1, which reads R_{c,1}..R_{c,ns(f)}
    and is exhaustive by its proof.  When lambda = 0 every lift has index 1
    and None is returned.  Like :func:`ns_lift`, it requires an infinite
    base height.
    """
    _require_infinite_height(b)
    fld = b.field
    hit = np.flatnonzero(make_ops(fld).nonzero(b.lam_coords))
    if hit.size == 0:
        return None
    j = int(hit[0])
    lam_j = raw_values(b.lam_coords[j : j + 1], fld.e)[0]
    column = raw_values(b.T_coords[:, j], fld.e)  # T e_j
    inv = fld.inv(lam_j)
    c = [fld.mul(inv, fld.sub(t, fld.one) if i == j else t) for i, t in enumerate(column)]

    # exact fixed-column check: (T - c lambda) e_j = e_j, from column j alone
    for i, (t, ci) in enumerate(zip(column, c)):
        if fld.sub(t, fld.mul(ci, lam_j)) != (fld.one if i == j else fld.zero):
            raise AssertionError("fixed-column identity T_c e_j = e_j failed")

    (v,) = ns_lift(b, [c])
    if not is_infinite(v):
        raise AssertionError(f"constructed lift has ns_lift = {v}; construction invariant broken")
    return c


def coupling_values(b: FrobeniusBundle, c: Sequence[RawElement], n: int) -> list:
    """Oracle for the shifted Krylov rows: corner coefficients coupling c to each stage.

    Entry j (1-based stage) is the corner coefficient at level j of
    G(c) * (stage-j descent product of f); these scalars are exactly the
    coefficients appearing in the stage decomposition of the shifted rows,
    which the suite checks at points.  Degree growth caps n at 4 and the
    computation at prime fields.
    """
    fld = b.field
    if fld.e != 1:
        raise UsageError("coupling values are computed over prime fields only")
    if n < 1:
        raise UsageError("need at least one coupling value")
    if n > 4:
        raise ResourceError("coupling values are capped at n = 4 (degree growth (p^n - 1)d)")
    if len(c) != b.m:
        raise UsageError(f"shift vector must have length {b.m}")
    p = fld.p
    f = b.f
    fp2 = poly_pow(f, p - 2)
    df = delta(f)
    g_c = b.basis.polynomial(list(c))
    out = []
    for j in range(1, n + 1):
        bound = p**j
        stage = descent_product(f, j, fp2=fp2, df=df)
        product = prune(stage * prune(g_c, bound), bound)
        if product.is_zero():
            out.append(fld.zero)
        else:
            out.append(corner_coefficient(product, j))
    return out
