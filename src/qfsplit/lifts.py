"""Non-splitting behaviour of first-order lifts to mixed characteristic.

A lift of f = sum b_i M_i perturbs each coefficient to first order by a
vector c; all of its non-splitting data is governed by the shifted matrix

    T_c = T - c * lambda        (outer product, column c times row lambda)

through the twisted recursion R_{c,1} = F(lambda), R_{c,n+1} = F(R_{c,n} T_c)
(the Frobenius wraps the product; over a prime field it is invisible).
T_c is never built entry by entry: its step matrix is a rank-one update of
the bundle's (:meth:`_linalg.PrimeOps.shift_matrix`).
When f itself is not quasi-F-split (infinite height), the lift's
non-splitting index is the first n with R_{c,n} = 0; its only possible
values are ns(f) and infinity, and when lambda != 0 an explicit c with
infinite index exists and is constructed here.

``shifted_matrix_direct`` rebuilds T_c from the shifted polynomial kernel
(delta(f) - G(c)^p) * f^(p-2) instead of the rank-one update; agreement of
the two routes is a mandatory self-test exercised by the suite.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

import numpy as np

from ._linalg import make_ops, raw_values
from .cartier import (
    FrobeniusBundle,
    columns_from_kernel,
    default_ns_cap,
    descent_product,
    height,
    krylov_rows,
)
from .errors import ResourceError, UsageError
from .ffield import RawElement
from .polyring import corner_coefficient, delta, poly_pow, prune
from .values import Infinite, is_infinite


def t_shifted(b: FrobeniusBundle, c: Sequence[RawElement]):
    """The step matrix of T_c = T - c * lambda, updated from the bundle's own."""
    if len(c) != b.m:
        raise UsageError(f"shift vector must have length {b.m}, got {len(c)}")
    return b.ops.shift_matrix(b.T_mat, b.lam_row, c)


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


def ns_lift(b: FrobeniusBundle, c: Sequence[RawElement]):
    """Non-splitting index of the lift by c: first n with R_{c,n} = 0.

    Requires the base height to be infinite (otherwise the recursion does not
    encode the lift's index).  Reading R_{c,1}..R_{c,m+1} is exhaustive, so
    the infinity at cap m + 1 is exact:

    * L(R) = F(R T_c) is Frobenius-semilinear, R_{c,n+1} = L(R_{c,n}), and
      W, the F_q-span of the orbit R_{c,1}, R_{c,2}, ..., is L-stable;
    * if R_{c,N} = 0 then L^N kills every orbit row, hence all of W;
    * ker(L^j) on W is an F_q-subspace, and the chain ker L <= ker L^2 <= ...
      is constant from its first stall on (x in ker L^(j+2) puts L(x) in
      ker L^(j+1) = ker L^j), so it grows strictly until it fills W;
    * hence L^(dim W) kills W, R_{c,dim W + 1} = 0, and dim W <= m.
    """
    _require_infinite_height(b)
    ops = b.ops
    cap = default_ns_cap(b)
    for n, R in enumerate(islice(krylov_rows(b, t_shifted(b, c)), cap), 1):
        if ops.is_zero_row(R):
            return n
    return Infinite(cap=cap)


def infinite_lift(b: FrobeniusBundle) -> list | None:
    """A shift c with ns_lift = infinity, or None when lambda = 0.

    Picks the first j with lambda_j != 0 and sets c = lambda_j^{-1} (T e_j - e_j),
    which forces T_c e_j = e_j, so the recursion preserves a nonzero value at
    coordinate j forever.  Both facts are verified before returning, the
    second on R_{c,1}..R_{c,m+1}, the rows :func:`ns_lift` reads: none of
    them is zero, so this one walk proves ns_lift(b, c) = infinity at cap
    m + 1.  When lambda = 0 every lift has index 1 and None is returned.
    Like :func:`ns_lift`, it requires an infinite base height.
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

    ops = b.ops
    e_j = ops.column([fld.one if i == j else fld.zero for i in range(b.m)])
    for R in islice(krylov_rows(b, t_shifted(b, c)), default_ns_cap(b)):
        if ops.dot_is_zero(R, e_j):  # R_{c,n} e_j, coordinate j of the row
            raise AssertionError("R_{c,n} e_j vanished; construction invariant broken")
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
