import random

import numpy as np
import pytest

from qfsplit import catalog, lifts
from qfsplit.catalog import QUINTIC_THREEFOLD_F2, SUPERSINGULAR_QUARTICS_F2, SUPERSINGULAR_QUARTICS_F3
from qfsplit.cartier import basis, bundle, height, ns_index
from qfsplit.errors import UsageError
from qfsplit.ffield import field
from qfsplit.lifts import (
    coupling_values,
    infinite_lift,
    ns_lift,
    shifted_matrix_direct,
    t_shifted,
)
from qfsplit.polyring import Polynomial, RingConfig, parse_poly
from qfsplit.values import is_infinite

from _support import bundle_raw, finite_lift, krylov_matrix, lift_index_reference

F2 = field(2)
F3 = field(3)
R3 = RingConfig(F3, (1, 1, 1, 1))

SIGMA3_F2 = SUPERSINGULAR_QUARTICS_F2[0]
SIGMA4_F3 = SUPERSINGULAR_QUARTICS_F3[3]
SEXTIC_NS3_F2 = "x^3*z^3 + x^2*z^4 + y*z^5 + w^2"  # weights (1, 1, 1, 3), infinite height


def test_shift_of_zero_is_identity():
    b = bundle(SIGMA3_F2.polynomial())
    assert np.array_equal(t_shifted(b, [0] * b.m), b.T_mat)


def test_shift_is_identity_when_lambda_zero():
    b = bundle(parse_poly("x^4+y^4+z^4+w^4", R3))
    rng = random.Random(0)
    c = [rng.randrange(3) for _ in range(b.m)]
    assert np.array_equal(t_shifted(b, c), b.T_mat)


def test_shift_length_validation():
    b = bundle(SIGMA3_F2.polynomial())
    with pytest.raises(UsageError):
        t_shifted(b, [0, 1])


def _oracle_shifts(b, rng):
    """The zero shift, seeded sparse and dense shifts, and the constructed infinite lift."""
    fld = b.field
    elems = list(fld.elements())
    shifts = [[fld.zero] * b.m]
    for density in (0.1, 0.5, 1.0):
        shifts.append([rng.choice(elems) if rng.random() < density else fld.zero
                       for _ in range(b.m)])
    if is_infinite(height(b)):
        lift = infinite_lift(b)
        if lift is not None:
            shifts.append(lift)
    return shifts


ORACLE_ROWS = [
    # (p, e, weights, equation); None draws a seeded sparse form
    (2, 1, (1, 1, 1, 1), SIGMA3_F2.equation),
    (3, 1, (1, 1, 1, 1), SIGMA4_F3.equation),
    (3, 1, (1, 1, 1, 1), "x^4+y^4+z^4+w^4"),  # lambda = 0
    (5, 1, (1, 1, 1, 1), None),
    (2, 2, (1, 1, 1, 1), SUPERSINGULAR_QUARTICS_F2[6].equation),
    (2, 1, (1, 1, 1, 3), SEXTIC_NS3_F2),
    (3, 1, (1, 1, 1, 3), None),
    (5, 1, (1, 1, 1, 3), None),
    (2, 2, (1, 1, 1, 3), None),
    (2, 1, QUINTIC_THREEFOLD_F2.weights, QUINTIC_THREEFOLD_F2.equation),
    (3, 1, QUINTIC_THREEFOLD_F2.weights, None),
    (5, 1, QUINTIC_THREEFOLD_F2.weights, None),
    (2, 2, QUINTIC_THREEFOLD_F2.weights, None),
]


def test_direct_rebuild_matches_rank_one_update():
    # the step matrix of T - c * lambda, formed entrywise by t_shifted, equals
    # the one built from T_c as rebuilt from the shifted polynomial kernel
    for p, e, weights, equation in ORACLE_ROWS:
        ring = RingConfig(field(p, e), weights)
        rng = random.Random(p * 100 + e * 10 + sum(weights))
        if equation is None:
            elems = [x for x in ring.field.elements() if not ring.field.is_zero(x)]
            monos = rng.sample(basis(ring).monomials, 6)
            f = Polynomial(ring, {mono: rng.choice(elems) for mono in monos})
        else:
            f = parse_poly(equation, ring)
        b = bundle(f)
        for c in _oracle_shifts(b, rng):
            direct = b.ops.matrix(shifted_matrix_direct(b, c))
            assert np.array_equal(t_shifted(b, c), direct), (p, e, weights, c)


def test_ns_lift_value_set_small():
    rng = random.Random(2)
    for entry in (SIGMA3_F2, SIGMA4_F3):
        b = bundle(entry.polynomial())
        expected = ns_index(b)
        p = b.field.p
        shifts = [[rng.randrange(p) for _ in range(b.m)] for _ in range(30)]
        for v in ns_lift(b, shifts):
            assert is_infinite(v) or v == expected


F2_ROWS = {e.name: e for e in SUPERSINGULAR_QUARTICS_F2}
F3_ROWS = {e.name: e for e in SUPERSINGULAR_QUARTICS_F3}
# (p, e, weights, equation) over F_2, F_3, F_4, F_8 and F_9 and in all three
# rings; the last row has lambda = 0, where every index is 1
BATCH_ROWS = {
    "f2-sigma3": (2, 1, (1, 1, 1, 1), F2_ROWS["f2-sigma3"].equation),
    "f2-sigma9": (2, 1, (1, 1, 1, 1), F2_ROWS["f2-sigma9"].equation),
    "f3-sigma3": (3, 1, (1, 1, 1, 1), F3_ROWS["f3-sigma3"].equation),
    "f4-sigma9": (2, 2, (1, 1, 1, 1), F2_ROWS["f2-sigma9"].equation),
    "f8-sigma5": (2, 3, (1, 1, 1, 1), F2_ROWS["f2-sigma5"].equation),
    "f9-sigma4": (3, 2, (1, 1, 1, 1), F3_ROWS["f3-sigma4"].equation),
    "sextic": (2, 1, (1, 1, 1, 3), SEXTIC_NS3_F2),
    "quintic-ns58": (2, 1, QUINTIC_THREEFOLD_F2.weights, QUINTIC_THREEFOLD_F2.equation),
    "f3-sigma1": (3, 1, (1, 1, 1, 1), F3_ROWS["f3-sigma1"].equation),
}


def _batch(b, rng, densities):
    """The plain lift, the constructed infinite and finite ones (if lambda != 0), seeded shifts."""
    fld = b.field
    elems = list(fld.elements())
    shifts = [[fld.zero] * b.m]
    lift = infinite_lift(b)
    if lift is not None:
        shifts += [lift, finite_lift(b, ns_index(b))]
    for density in densities:
        shifts.append([rng.choice(elems) if rng.random() < density else fld.zero
                       for _ in range(b.m)])
    return shifts


@pytest.mark.parametrize("row", list(BATCH_ROWS))
def test_ns_lift_bound_is_exhaustive(monkeypatch, row):
    # the proof in ns_lift: a lift row that is nonzero through R_{c,ns} never
    # vanishes, so the first zero row among R_{c,1}..R_{c,2m+2}, each shift
    # walked alone on its step matrix, is the index the batched walk reports,
    # and an infinite index leaves all of them nonzero
    p, e, weights, equation = BATCH_ROWS[row]
    b = bundle(parse_poly(equation, RingConfig(field(p, e), weights)))
    rng = random.Random(p * 10 + e + len(weights))
    shifts = _batch(b, rng, (0.05, 0.2, 1.0) * 4)
    expected = [lift_index_reference(b, c, 2 * b.m + 2) for c in shifts]
    assert [repr(v) for v in ns_lift(b, shifts)] == [repr(v) for v in expected]
    # chunks of 4 shifts: the batch of 15 (13 when lambda = 0) ends in a short one
    monkeypatch.setattr(lifts, "_CHUNK_CELLS", 4 * b.m * e)
    assert [repr(v) for v in ns_lift(b, shifts)] == [repr(v) for v in expected]
    if row == "f3-sigma1":  # lambda = 0
        assert expected == [1] * len(shifts)
    else:  # the constructed infinite lift, then the constructed finite one
        assert is_infinite(expected[1]) and expected[2] == ns_index(b)
        assert {v for v in expected if not is_infinite(v)} == {ns_index(b)}


@pytest.mark.parametrize("row", ["f2-sigma9", "f9-sigma4", "sextic", "quintic-ns58"])
def test_ns_lift_batch_takes_ns_minus_one_steps(step_counting, row):
    # after the base walk R_1..R_ns, a batch walks R_{c,1}..R_{c,ns}: ns - 1
    # steps for every shift at once, on T's step matrix, never T_c's
    p, e, weights, equation = BATCH_ROWS[row]
    b = step_counting(bundle(parse_poly(equation, RingConfig(field(p, e), weights))))
    ns = ns_index(b)
    base = b.ops.calls
    assert base == ns - 1
    rng = random.Random(ns)
    elems = list(b.field.elements())
    shifts = [[rng.choice(elems) for _ in range(b.m)] for _ in range(40)]
    values = ns_lift(b, shifts)
    assert any(is_infinite(v) for v in values)  # so the walk cannot stop early
    assert b.ops.calls - base == ns - 1
    assert b.ops.matrix_calls == 1


def test_ns_lift_length_validation():
    b = bundle(SIGMA3_F2.polynomial())
    with pytest.raises(UsageError):
        ns_lift(b, [[0] * b.m, [0, 1]])


def test_trivial_shift_value_on_sigma4_row():
    # c = 0 gives the plain lift; its index is ns(f) or infinity, nothing else
    b = bundle(SIGMA4_F3.polynomial())
    (v,) = ns_lift(b, [[0] * b.m])
    assert is_infinite(v) or v == 4


def test_ns_lift_is_one_for_every_c_when_lambda_zero():
    b = bundle(parse_poly("x^4+y^4+z^4+w^4", R3))
    rng = random.Random(3)
    shifts = [[rng.randrange(3) for _ in range(b.m)] for _ in range(10)]
    assert ns_lift(b, shifts) == [1] * 10


def test_ns_lift_requires_infinite_base_height():
    f = parse_poly("x^4+y^4+z^4+w^4", RingConfig(field(5), (1, 1, 1, 1)))
    b = bundle(f)
    with pytest.raises(UsageError, match="non-quasi-F-split"):
        ns_lift(b, [[0] * b.m])
    with pytest.raises(UsageError, match="non-quasi-F-split"):
        infinite_lift(b)


def test_infinite_lift_construction():
    b = bundle(SIGMA3_F2.polynomial())
    c = infinite_lift(b)
    assert c is not None
    (v,) = ns_lift(b, [c])
    assert is_infinite(v)
    # the construction fixes the standard basis column exactly, on the
    # T_c rebuilt from polynomial data
    j = next(i for i, lam in enumerate(bundle_raw(b)[0]) if lam)
    T_c = shifted_matrix_direct(b, c)
    col = [T_c[i][j] for i in range(b.m)]
    expected = [1 if i == j else 0 for i in range(b.m)]
    assert col == expected


@pytest.mark.parametrize("weights,equation", [
    # infinite_lift needs an infinite base height: this sextic has ns 3
    ((1, 1, 1, 3), SEXTIC_NS3_F2),
    (QUINTIC_THREEFOLD_F2.weights, QUINTIC_THREEFOLD_F2.equation),
], ids=["sextic", "quintic-ns58"])
def test_infinite_lift_checks_every_row_ns_lift_reads(step_counting, weights, equation):
    # the self-check is ns_lift(b, [c]), which walks R_{c,1}..R_{c,ns}, every
    # row its proof needs: ns - 1 steps on T's step matrix, after the base
    # walk R_1..R_ns that decides the height is infinite
    b = step_counting(bundle(parse_poly(equation, RingConfig(F2, weights))))
    assert infinite_lift(b) is not None
    assert b.ops.calls == 2 * (ns_index(b) - 1)
    assert b.ops.matrix_calls == 1  # T itself; T_c is never built


@pytest.mark.parametrize("ext_degree", [1, 2], ids=["Fp", "Fp2"])
@pytest.mark.parametrize("entry", catalog.all_entries(), ids=lambda e: e.name)
def test_infinite_lift_keeps_coordinate_j_on_every_row(entry, ext_degree):
    # T_c e_j = e_j, so R_{c,n+1} e_j = F(R_{c,n} e_j) is never zero: every
    # row R_{c,1}..R_{c,m+1} an index could be read at, each shift stepped
    # alone on the entrywise T_c, keeps a nonzero coordinate j
    b = bundle(parse_poly(entry.equation, RingConfig(field(entry.p, ext_degree), entry.weights)))
    fld = b.field
    c = infinite_lift(b)
    hit = [i for i, v in enumerate(bundle_raw(b)[0]) if not fld.is_zero(v)]
    if not hit:  # lambda = 0: every index is 1
        assert c is None and ns_index(b) == 1
        return
    j = hit[0]
    assert all(not fld.is_zero(R[j]) for R in krylov_matrix(b, b.m + 1, t_shifted(b, c)))
    T_c = shifted_matrix_direct(b, c)
    assert [T_c[i][j] for i in range(b.m)] == [fld.one if i == j else fld.zero for i in range(b.m)]


def test_infinite_lift_none_when_lambda_zero():
    b = bundle(parse_poly("x^4+y^4+z^4+w^4", R3))
    assert infinite_lift(b) is None


def test_coupling_values_zero_shift():
    b = bundle(SIGMA4_F3.polynomial())
    assert coupling_values(b, [0] * b.m, 3) == [0, 0, 0]


def test_first_coupling_value_is_lambda_dot_c():
    rng = random.Random(4)
    b = bundle(SIGMA4_F3.polynomial())
    lam = bundle_raw(b)[0]
    for _ in range(10):
        c = [rng.randrange(3) for _ in range(b.m)]
        m1 = coupling_values(b, c, 1)[0]
        assert m1 == sum(l * x for l, x in zip(lam, c)) % 3


def test_coupling_values_guards():
    from qfsplit.errors import ResourceError

    b = bundle(SIGMA4_F3.polynomial())
    with pytest.raises(ResourceError):
        coupling_values(b, [0] * b.m, 5)
    F4 = field(2, 2)
    ring4 = RingConfig(F4, (1, 1, 1, 1))
    b4 = bundle(parse_poly("x^4 + x*y^3 + y*w^3 + z^3*w", ring4))
    with pytest.raises(UsageError):
        coupling_values(b4, [F4.zero] * b4.m, 1)


def check_stage_decomposition(b, c, n):
    """row_n(c-shifted) = row_n(unshifted) - sum_j M_j^(p^(n-j)) row_(n-j)(c-shifted)."""
    fld = b.field
    p = fld.p
    rows_c = krylov_matrix(b, n, t_shifted(b, c))
    rows_0 = krylov_matrix(b, n)
    ms = coupling_values(b, c, n - 1) if n > 1 else []
    rhs = list(rows_0[n - 1])
    for j in range(1, n):
        s = fld.pow(ms[j - 1], p ** (n - j))
        rhs = [fld.sub(x, fld.mul(s, y)) for x, y in zip(rhs, rows_c[n - j - 1])]
    return rows_c[n - 1] == rhs


def test_stage_decomposition_identity():
    rng = random.Random(5)
    b2 = bundle(SIGMA3_F2.polynomial())
    for _ in range(4):
        c = [rng.randrange(2) for _ in range(b2.m)]
        for n in (1, 2, 3, 4):
            assert check_stage_decomposition(b2, c, n)
    b3 = bundle(SIGMA4_F3.polynomial())
    for _ in range(2):
        c = [rng.randrange(3) for _ in range(b3.m)]
        for n in (1, 2, 3):
            assert check_stage_decomposition(b3, c, n)
