"""The Krylov backends one at a time: which one ``make_ops`` picks, what it shares
across bundles, the exact integers above p = 2^15, the sparse step-matrix build
and the stall that bounds every walk.

Whether the backends agree with each other and with ``GenericOps``, the
list-based reference, is checked by ``test_registry.py``, where every backend
is registered with the fields it accepts; the corpus groups that replaced this
file's backend twins are bound here under the twins' test ids.
"""

import random
from itertools import islice

import numpy as np
import pytest

from qfsplit import _linalg
from qfsplit.cartier import FrobeniusBundle, basis, bundle, height, ns_index
from qfsplit.ffield import field
from qfsplit.polyring import RingConfig, parse_poly
from qfsplit.values import is_infinite

from _support import random_forms, random_unit, rows_on, step_matrix_array, step_matrix_reference
from test_registry import LARGE_FIELDS, WALK_FIELDS as FIELDS, corpus_test

K3_WEIGHTS = [(1, 1, 1, 1), (1, 1, 1, 3)]

# the backends agree: the registry's corpus groups that replaced this file's twins, under their ids
test_weil_backend_matches_generic = corpus_test("test_weil_backend_matches_generic")
test_weil_backend_matches_generic_on_lifts = corpus_test("test_weil_backend_matches_generic_on_lifts")
test_matrix_rank_matches_generic = corpus_test("test_matrix_rank_matches_generic")
test_large_prime_backend_matches_generic = corpus_test("test_large_prime_backend_matches_generic")


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_make_ops_picks_the_backend_by_the_characteristic(fld):
    # bit rows at p = 2, numpy arrays at every other p, whatever e is
    ops = _linalg.make_ops(fld)
    assert type(ops) is (_linalg.PackedOps if fld.p == 2 else _linalg.PrimeOps)
    assert ops is _linalg.make_ops(field(fld.p, fld.e))  # one instance per field


@pytest.mark.parametrize("fld", [field(2), field(2, 2), field(3, 2), field(32771), field(32771, 2)],
                         ids=repr)
def test_field_backend_is_shared_and_read_only(fld):
    # every bundle over the field reads the one make_ops(fld), so none may write its arrays
    ops = _linalg.make_ops(fld)
    arrays = {name: a for name, a in vars(ops).items() if isinstance(a, np.ndarray)}
    arrays.update((f"tensor[{mod}]", a) for mod, a in ops.tensor.items())
    assert {"units", "frob", "ifrob", "steps", "one"} <= set(arrays)
    assert [name for name, a in arrays.items() if a.flags.writeable] == []
    b = bundle(parse_poly("x*y*z*w", RingConfig(fld, (1, 1, 1, 1))))
    assert b.ops is ops


@pytest.mark.parametrize("fld", FIELDS[:-1], ids=repr)
def test_krylov_span_never_grows_after_a_stall(fld):
    # the argument in default_height_cap: once span(R_1..R_k) = span(R_1..R_k+1)
    # over F_q it never grows again, so no finite height exceeds m and an
    # infinite height leaves every dot zero, past the bound m as well
    for weights in K3_WEIGHTS:
        for f in random_forms(fld, weights, 8, seed=fld.order * 10 + weights[-1]):
            b = bundle(f)
            tracker = b.ops.rank_tracker()
            ranks = []
            rows = list(islice(rows_on(b, b.T_mat), b.m + 2))
            for R in rows:
                tracker.add_row(R)
                ranks.append(tracker.rank)
            stall = next((k for k in range(1, len(ranks)) if ranks[k] == ranks[k - 1]), None)
            assert stall is not None and stall <= b.m, str(f)
            assert ranks[stall:] == [ranks[stall]] * (len(ranks) - stall), str(f)
            dots = [n for n, R in enumerate(rows, 1) if not b.ops.dot_is_zero(R, b.v_col)]
            h = height(b)
            if is_infinite(h):
                assert dots == [], str(f)
            else:
                assert h == dots[0] <= b.m, str(f)


def test_large_prime_uses_exact_integer_arithmetic():
    # int64 up to 2^15; above it the arrays hold Python ints, so a dot product
    # of length m*e never wraps however large (p-1)^2 is
    assert _linalg.make_ops(field(32749)).dtype == np.int64
    for fld in LARGE_FIELDS:
        ops = _linalg.make_ops(fld)
        assert isinstance(ops, _linalg.PrimeOps) and ops.dtype == object
    ops = _linalg.make_ops(field(2**31 - 1))
    top = ops.p - 1
    row = ops.row([top] * 40)
    mat = ops.matrix([[top] * 40 for _ in range(40)])
    assert ops.row_times_matrix(row, mat).tolist() == [40 * top * top % ops.p] * 40

    fld = field(32771)
    b = bundle(parse_poly("x*y*z*w", RingConfig(fld, (1, 1, 1, 1))))
    assert b.ops is _linalg.make_ops(fld)
    # f^(p-2) is one term, so lambda is supported on xyzw alone and R_1 . v_f = 1
    assert height(b) == 1
    assert is_infinite(ns_index(b))


# e = 2 and 3 over p = 2 (packed and numpy backends), 3 and 32771 (exact Python ints)
SPARSE_FIELDS = [field(p, e) for p in (2, 3, 32771) for e in (2, 3)]


@pytest.mark.parametrize("fld", SPARSE_FIELDS, ids=repr)
def test_step_matrix_of_empty_and_one_cell_t(fld):
    # the build forms only the blocks of nonzero cells: T = 0 gives the zero
    # matrix, and one cell, at each corner and inside, exactly its own block
    rng = random.Random(fld.order)
    bas = basis(RingConfig(fld, (1, 1, 1)))
    m, e = bas.m, fld.e
    lam = [fld.one] + [fld.zero] * (m - 1)
    cells = [(0, 0), (0, m - 1), (m - 1, 0), (m - 1, m - 1), (rng.randrange(m), rng.randrange(m))]
    # at p = 2 the packed backend and the numpy one
    for ops in [_linalg.make_ops(fld)] + ([_linalg.PrimeOps(fld)] if fld.p == 2 else []):
        zero = [[fld.zero] * m for _ in range(m)]
        b = FrobeniusBundle(bas, bas.polynomial(lam), lam, lambda: zero, ops=ops)
        assert not step_matrix_array(b, b.T_mat).any()
        for i, j in cells:
            T = [list(row) for row in zero]
            T[i][j] = random_unit(fld, rng)
            b = FrobeniusBundle(bas, bas.polynomial(lam), lam, lambda: T, ops=ops)
            got = step_matrix_array(b, b.T_mat)
            assert np.array_equal(got, step_matrix_reference(ops, T)), (type(ops), i, j)
            block = got.reshape(m, e, m, e)[i, :, j, :]
            assert block.any() and np.count_nonzero(got) == np.count_nonzero(block)


@pytest.mark.parametrize("fld", SPARSE_FIELDS, ids=repr)
def test_nonzero_is_any_over_the_coordinates(fld):
    ops = _linalg.make_ops(fld)
    gen = np.random.default_rng(fld.order)
    for shape in [(257, fld.e), (11, 11, fld.e)]:
        a = gen.integers(0, fld.p, shape)
        a[gen.random(shape[:-1]) < 0.4] = 0  # zero elements among the nonzero ones
        for arr in (a, a.astype(object)):
            got = ops.nonzero(arr)
            assert got.dtype == bool and np.array_equal(got, a.any(axis=-1))
