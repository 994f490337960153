"""The production backends against the list-based reference backend.

Every bundle here is computed twice: once through ``make_ops`` (PrimeOps over
F_{p^e}, with F_p as the case e = 1, on int64 below p = 2^15 and on exact
Python ints above; PackedOps, Python-int bit rows, at p = 2) and once through
a twin whose backend is ``GenericOps``, which drives the field kernels entry
by entry.  At p = 2 a third twin runs on the numpy backend, ``PrimeOps(F)``.
Results must agree exactly.
"""

import random
from itertools import islice

import numpy as np
import pytest

from qfsplit import _linalg
from qfsplit.cartier import (
    FrobeniusBundle,
    basis,
    bundle,
    height,
    ns_index,
)
from qfsplit.errors import UsageError
from qfsplit.ffield import field
from qfsplit.lifts import infinite_lift, ns_lift, t_shifted
from qfsplit.polyring import Polynomial, RingConfig, parse_poly
from qfsplit.values import Infinite, is_infinite

from _support import (
    bundle_raw,
    finite_lift,
    krylov_matrix,
    lift_index_reference,
    matrix_rank,
    rows_on,
    step_matrix_array,
    step_matrix_reference,
)

FIELDS = [field(2), field(3), field(5), field(2, 2), field(2, 3), field(3, 2), field(5, 2)]
# p >= 2^15: PrimeOps holds Python ints.  At 32771 a length-m*e dot product
# still fits int64 for small m; at 2^31 - 1 two products already overflow it.
LARGE_FIELDS = [field(32771), field(2**31 - 1), field(32771, 2)]
K3_WEIGHTS = [(1, 1, 1, 1), (1, 1, 1, 3)]
QUINTIC = (1, 1, 1, 1, 1)
# (field, weights, id): the K3 rings over every field, and at p = 2 the quintic
# threefold ring too, whose walks are the longest
WALK_CASES = [(fld, w, f"{fld!r}-weights{k}") for k, w in enumerate(K3_WEIGHTS) for fld in FIELDS]
WALK_CASES += [(fld, QUINTIC, f"{fld!r}-weights2") for fld in FIELDS if fld.p == 2]


def random_forms(fld, weights, count, seed):
    """Seeded sparse degree-d forms: 4 to 9 random terms, nonzero coefficients."""
    rng = random.Random(seed)
    ring = RingConfig(fld, weights)
    monos = basis(ring).monomials
    elems = [x for x in fld.elements() if not fld.is_zero(x)]
    return [
        Polynomial(ring, {mono: rng.choice(elems) for mono in rng.sample(monos, rng.randint(4, 9))})
        for _ in range(count)
    ]


def generic_twin(b):
    """The same bundle on the reference GenericOps backend."""
    lam, T = bundle_raw(b)
    return FrobeniusBundle(b.basis, b.f, lam, lambda: T, ops=_linalg.GenericOps(b.field))


def numpy_twin(b):
    """The same bundle on the numpy backend, ``PrimeOps(F)``: at p = 2 the packed backend's twin."""
    return FrobeniusBundle(b.basis, b.f, b.lam_coords, lambda: b.T_coords, ops=_linalg.PrimeOps(b.field))


def generic_rank(rows, fld):
    ops = _linalg.GenericOps(fld)
    tracker = ops.rank_tracker()
    for r in rows:
        tracker.add_row(ops.row(r))
    return tracker.rank


def random_shift(b, rng):
    elems = list(b.field.elements())
    return [rng.choice(elems) if rng.random() < 0.3 else b.field.zero for _ in range(b.m)]


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_make_ops_picks_numpy_for_extension_fields(fld):
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


@pytest.mark.parametrize("fld,weights", [case[:2] for case in WALK_CASES],
                         ids=[case[2] for case in WALK_CASES])
def test_weil_backend_matches_generic(fld, weights):
    seed = fld.order * 10 + weights[-1]
    rng = random.Random(seed)
    for f in random_forms(fld, weights, 6, seed=seed):
        b = bundle(f)
        assert b.ops is _linalg.make_ops(fld)
        n = 12
        rows = krylov_matrix(b, n)
        c = random_shift(b, rng)
        for twin in (generic_twin(b), numpy_twin(b)):
            assert repr(height(b)) == repr(height(twin)), str(f)
            assert repr(ns_index(b)) == repr(ns_index(twin)), str(f)
            assert rows == krylov_matrix(twin, n)
            assert krylov_matrix(b, n, t_shifted(b, c)) == krylov_matrix(twin, n, t_shifted(twin, c))
        for k in (1, 2, 5, n):
            assert matrix_rank(rows[:k], fld) == generic_rank(rows[:k], fld)


# the rings and form counts of the lift twins: every ring at p = 2, the quartic elsewhere
LIFT_RINGS = {2: [((1, 1, 1, 1), 20), ((1, 1, 1, 3), 5), (QUINTIC, 3)], "odd": [((1, 1, 1, 1), 20)]}


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_weil_backend_matches_generic_on_lifts(fld):
    rng = random.Random(fld.order)
    for k, (weights, count) in enumerate(LIFT_RINGS.get(fld.p, LIFT_RINGS["odd"])):
        checked = 0
        for f in random_forms(fld, weights, count, seed=fld.order + 1000 * k):
            b = bundle(f)
            if not is_infinite(height(b)):
                continue
            g, nb = generic_twin(b), numpy_twin(b)
            c = infinite_lift(b)
            assert c == infinite_lift(nb)
            # GenericOps has no batched lift step: c is checked there by the per-shift walk
            assert c is None or is_infinite(lift_index_reference(g, c))
            shifts = [random_shift(b, rng) for _ in range(2)]
            # the batched walk against each shift walked alone on the reference backend
            expected = [lift_index_reference(g, shift) for shift in shifts]
            ns = ns_index(b)
            if ns >= 2:  # lambda != 0
                shifts.append(finite_lift(g, ns))
                expected.append(ns)
            if c is not None:
                shifts.append(c)
                expected.append(Infinite(cap=b.m + 1))
            assert [repr(v) for v in ns_lift(b, shifts)] == [repr(v) for v in expected]
            assert [repr(v) for v in ns_lift(nb, shifts)] == [repr(v) for v in expected]
            # lambda = 0, which no form gives at p = 2: ns = 1, every index 1, no infinite lift
            z = FrobeniusBundle(b.basis, b.f, np.zeros_like(b.lam_coords), lambda: b.T_coords)
            for bz in (z, generic_twin(z), numpy_twin(z)):
                assert ns_index(bz) == 1 and infinite_lift(bz) is None
            assert ns_lift(z, shifts) == ns_lift(numpy_twin(z), shifts) == [1] * len(shifts)
            assert [lift_index_reference(generic_twin(z), shift) for shift in shifts] == [1] * len(shifts)
            checked += 1
        assert checked >= 2, weights


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_matrix_rank_matches_generic(fld):
    rng = random.Random(fld.order + 1)
    elems = list(fld.elements())
    for _ in range(20):
        rows_n, cols = rng.randint(1, 7), rng.randint(1, 7)
        base = [[rng.choice(elems) for _ in range(cols)] for _ in range(rng.randint(1, rows_n))]
        # F_q-combinations of a few base rows, so dependencies over F_q occur
        rows = []
        for _ in range(rows_n):
            coeffs = [rng.choice(elems) for _ in base]
            row = [fld.zero] * cols
            for a, r in zip(coeffs, base):
                row = [fld.add(x, fld.mul(a, y)) for x, y in zip(row, r)]
            rows.append(row)
        assert matrix_rank(rows, fld) == generic_rank(rows, fld)


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


def random_element(fld, rng):
    """A uniform raw element, without enumerating the field."""
    if fld.e == 1:
        return rng.randrange(fld.p)
    return tuple(rng.randrange(fld.p) for _ in range(fld.e))


def random_unit(fld, rng):
    while True:
        a = random_element(fld, rng)
        if not fld.is_zero(a):
            return a


def random_bundles(fld, seed):
    """Seeded bundles from random (v_f, lambda, T) on the ternary cubic basis (m = 10).

    Forms whose f^(p-2) is computable at these p are near-monomials with
    T = 0, so the data is drawn directly.  Sparse T gives rank drops at
    several n; v_f = 0 gives infinite height, v_f off the support of lambda a
    height of at least 2, and a weighted shift matrix a height chosen in
    advance.
    """
    rng = random.Random(seed)
    bas = basis(RingConfig(fld, (1, 1, 1)))
    m = bas.m

    def vec(density):
        return [random_element(fld, rng) if rng.random() < density else fld.zero for _ in range(m)]

    out = []
    for k in range(8):
        density = (0.1, 0.25, 0.6)[k % 3]
        T = [vec(density) for _ in range(m)]
        lam = vec(0.4)
        lam[rng.randrange(m)] = fld.one  # lambda != 0, so infinite_lift constructs a shift
        # v_f off the support of lambda makes R_1 . v_f = 0, so heights exceed 1
        v_f = [fld.zero if k % 2 or not fld.is_zero(a) else random_element(fld, rng) for a in lam]
        out.append(FrobeniusBundle(bas, bas.polynomial(v_f), lam, lambda T=T: T))
    for h in rng.sample(range(3, m + 1), 2):
        # a weighted shift: R_n is supported on coordinate n - 1, so the height is h
        T = [[fld.zero] * m for _ in range(m)]
        for i in range(m - 1):
            T[i][i + 1] = random_unit(fld, rng)
        lam = [random_unit(fld, rng)] + [fld.zero] * (m - 1)
        v_f = [random_unit(fld, rng) if i == h - 1 else fld.zero for i in range(m)]
        out.append(FrobeniusBundle(bas, bas.polynomial(v_f), lam, lambda T=T: T))
    return out


@pytest.mark.parametrize("fld", LARGE_FIELDS, ids=repr)
def test_large_prime_backend_matches_generic(fld):
    rng = random.Random(fld.order)
    heights, infinite = set(), 0
    for b in random_bundles(fld, seed=fld.order):
        g = generic_twin(b)
        assert isinstance(b.ops, _linalg.PrimeOps)
        assert repr(height(b)) == repr(height(g))
        assert repr(ns_index(b)) == repr(ns_index(g))
        n = b.m + 2
        rows = krylov_matrix(b, n)
        assert rows == krylov_matrix(g, n)
        c = [random_element(fld, rng) if rng.random() < 0.3 else fld.zero for _ in range(b.m)]
        assert krylov_matrix(b, n, t_shifted(b, c)) == krylov_matrix(g, n, t_shifted(g, c))
        for k in (1, 2, 5, n):
            assert matrix_rank(rows[:k], fld) == generic_rank(rows[:k], fld)
        h = height(b)
        heights.add(repr(h))
        if is_infinite(h):
            infinite += 1
            lift = infinite_lift(b)
            assert lift is not None and is_infinite(lift_index_reference(g, lift))
            finite = finite_lift(g, ns_index(g))  # lambda != 0, so ns >= 2
            values = ns_lift(b, [lift, c, finite])
            assert values[0] == Infinite(cap=b.m + 1)
            assert repr(values[1]) == repr(lift_index_reference(g, c))
            assert values[2] == ns_index(b) == lift_index_reference(g, finite)
        else:
            with pytest.raises(UsageError):
                infinite_lift(b)
    # the draws must exercise more than one finite height and the infinite case
    assert infinite >= 2 and len(heights) >= 3, heights


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
    assert krylov_matrix(b, 3) == krylov_matrix(generic_twin(b), 3)


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
    # at p = 2 the packed backend and its numpy twin
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
