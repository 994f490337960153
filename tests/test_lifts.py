import random
from itertools import islice

import numpy as np
import pytest

from qfsplit.catalog import QUINTIC_THREEFOLD_F2, SUPERSINGULAR_QUARTICS_F2, SUPERSINGULAR_QUARTICS_F3
from qfsplit.cartier import basis, bundle, height, krylov_rows, ns_index
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
from qfsplit.values import Infinite, is_infinite

from _support import bundle_raw, krylov_matrix

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
    # the step matrix t_shifted updates from T's equals the one built from
    # T_c as rebuilt from the shifted polynomial kernel
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
        for _ in range(30):
            c = [rng.randrange(p) for _ in range(b.m)]
            v = ns_lift(b, c)
            assert is_infinite(v) or v == expected


# rows whose seeded shifts give both finite and infinite lift indices
@pytest.mark.parametrize("entry,ext_degree", [
    (SIGMA3_F2, 1), (SUPERSINGULAR_QUARTICS_F2[6], 1), (SUPERSINGULAR_QUARTICS_F3[2], 1),
    (SUPERSINGULAR_QUARTICS_F2[6], 2),
], ids=["f2-sigma3", "f2-sigma9", "f3-sigma3", "f4-sigma9"])
def test_ns_lift_bound_is_exhaustive(entry, ext_degree):
    # the proof in ns_lift: a lift row that is nonzero through R_{c,m+1}
    # never vanishes, so the first zero row among R_{c,1}..R_{c,2m+2} is the
    # index ns_lift reports, and an infinite index leaves all of them nonzero
    b = bundle(parse_poly(entry.equation, RingConfig(field(entry.p, ext_degree), entry.weights)))
    ops = b.ops
    fld = b.field
    elems = list(fld.elements())
    rng = random.Random(entry.p * 10 + ext_degree)
    # the plain lift, sparse and dense seeded shifts, and the constructed infinite one
    shifts = [[fld.zero] * b.m, infinite_lift(b)]
    for density in (0.05, 0.2, 1.0) * 4:
        shifts.append([rng.choice(elems) if rng.random() < density else fld.zero
                       for _ in range(b.m)])
    seen = set()
    for c in shifts:
        rows = islice(krylov_rows(b, t_shifted(b, c)), 2 * b.m + 2)
        first_zero = next((n for n, R in enumerate(rows, 1) if ops.is_zero_row(R)), None)
        expected = Infinite(cap=b.m + 1) if first_zero is None else first_zero
        assert repr(ns_lift(b, c)) == repr(expected), c
        seen.add(first_zero is None)
    assert seen == {True, False}


def test_trivial_shift_value_on_sigma4_row():
    # c = 0 gives the plain lift; its index is ns(f) or infinity, nothing else
    b = bundle(SIGMA4_F3.polynomial())
    v = ns_lift(b, [0] * b.m)
    assert is_infinite(v) or v == 4


def test_ns_lift_is_one_for_every_c_when_lambda_zero():
    b = bundle(parse_poly("x^4+y^4+z^4+w^4", R3))
    rng = random.Random(3)
    for _ in range(10):
        c = [rng.randrange(3) for _ in range(b.m)]
        assert ns_lift(b, c) == 1


def test_ns_lift_requires_infinite_base_height():
    f = parse_poly("x^4+y^4+z^4+w^4", RingConfig(field(5), (1, 1, 1, 1)))
    b = bundle(f)
    with pytest.raises(UsageError, match="non-quasi-F-split"):
        ns_lift(b, [0] * b.m)
    with pytest.raises(UsageError, match="non-quasi-F-split"):
        infinite_lift(b)


def test_infinite_lift_construction():
    b = bundle(SIGMA3_F2.polynomial())
    c = infinite_lift(b)
    assert c is not None
    v = ns_lift(b, c)
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
    # the self-check walks R_{c,1}..R_{c,m+1}, the rows ns_lift reads at
    # its proven bound: m steps (39 on sextics, 126 on the quintic), after
    # the base walk R_1..R_ns that decides the height is infinite
    b = step_counting(bundle(parse_poly(equation, RingConfig(F2, weights))))
    assert infinite_lift(b) is not None
    assert b.ops.calls == (ns_index(b) - 1) + b.m
    assert b.ops.matrix_calls == 1  # T itself; T_c is updated from it


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
