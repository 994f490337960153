import random
from itertools import islice

import numpy as np
import pytest

from qfsplit import _linalg, scan
from qfsplit._linalg import raw_values
from qfsplit.catalog import (
    QUINTIC_THREEFOLD_F2,
    RDP_QUARTIC_F2,
    SUPERSINGULAR_QUARTICS_F2,
    SUPERSINGULAR_QUARTICS_F3,
    all_entries,
)
from qfsplit.cartier import (
    FAMILY_GENERAL,
    FAMILY_QUARTIC,
    SIGMA_AMBIGUOUS,
    SIGMA_EQUALS_TAU,
    MonomialBasis,
    artin_report,
    basis,
    bundle,
    columns_from_kernel,
    default_height_cap,
    descent_product,
    dict_lam_and_T,
    fedder_height_oracle,
    find_axis_line,
    height,
    ns_index,
)
from qfsplit.errors import ResourceError, UsageError
from qfsplit.ffield import field
from qfsplit.lifts import shifted_matrix_direct, t_shifted
from qfsplit.polyring import Polynomial, RingConfig, delta, parse_poly, poly_pow, u_op
from qfsplit.values import Infinite, is_infinite, value_to_json

from _support import bundle_raw, krylov_matrix, matrix_rank, random_element, rows_on

F2 = field(2)
F3 = field(3)
R2 = RingConfig(F2, (1, 1, 1, 1))
R3 = RingConfig(F3, (1, 1, 1, 1))
R3S = RingConfig(F3, (1, 1, 1, 3))


def random_form(rng, ring):
    monos = basis(ring).monomials
    p = ring.field.p
    return Polynomial(ring, {m: rng.randrange(p) for m in monos})


# -- basis -------------------------------------------------------------------

def test_basis_sizes():
    assert basis(R3).m == 35
    assert basis(R3S).m == 39
    assert basis(RingConfig(F2, (1, 1, 1, 1, 1))).m == 126


def test_basis_complete_and_ordered():
    bas = basis(R3S)
    assert len(set(bas.monomials)) == bas.m
    assert all(R3S.weighted_degree(m) == 6 for m in bas.monomials)
    # frozen order: descending lexicographic
    assert list(bas.monomials) == sorted(bas.monomials, key=lambda t: tuple(-e for e in t))


def test_basis_order_golden():
    # serialized bundles depend on this exact layout; lock it down
    quartic = basis(R3).monomials
    assert quartic[:4] == ((4, 0, 0, 0), (3, 1, 0, 0), (3, 0, 1, 0), (3, 0, 0, 1))
    assert quartic[-1] == (0, 0, 0, 4)
    sextic = basis(R3S).monomials
    assert sextic[:3] == ((6, 0, 0, 0), (5, 1, 0, 0), (5, 0, 1, 0))
    assert sextic[-3:] == ((0, 0, 6, 0), (0, 0, 3, 1), (0, 0, 0, 2))
    assert sextic.index((1, 1, 1, 1)) == 24


def test_equal_rings_and_fields_hash_equal_and_share_their_caches():
    for p, e in ((3, 1), (2, 2), (3, 2)):
        f1, f2 = field(p, e), field(p, e)
        assert f1 is not f2 and f1 == f2 and hash(f1) == hash(f2)
        assert vars(f1)["_hash"] == hash(f1)  # computed by the constructor, not on first use
        r1, r2 = RingConfig(f1, (1, 1, 1, 3)), RingConfig(f2, [1, 1, 1, 3])
        assert r1 is not r2 and r1 == r2 and hash(r1) == hash(r2)
        assert vars(r1)["_hash"] == hash(r1)
        bas = basis(r1)
        hits = basis.cache_info().hits
        assert basis(r2) is bas and basis.cache_info().hits == hits + 1
        ops = _linalg.make_ops(f1)
        hits = _linalg.make_ops.cache_info().hits
        assert _linalg.make_ops(f2) is ops and _linalg.make_ops.cache_info().hits == hits + 1


# -- vector-backed forms -----------------------------------------------------

def dict_built(f) -> bool:
    """Whether f's term dict is filled, found without filling it."""
    try:
        Polynomial._terms.__get__(f)
    except AttributeError:
        return False
    return True


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (1, 1, 1, 3)])
def test_a_vector_form_equals_the_dict_form_of_its_vector(p, e, weights):
    ring = RingConfig(field(p, e), weights)
    fld, bas = ring.field, basis(ring)
    rng = random.Random(p * 100 + e * 10 + weights[-1])
    other = parse_poly("x^2 + x*y", ring)  # a dict-built factor and summand
    vectors = [[fld.zero] * bas.m]
    vectors += [[random_element(fld, rng) if rng.random() < density else fld.zero for _ in range(bas.m)]
                for density in (0.05, 0.3, 1.0, 1.0)]
    for v in vectors:
        f, g = bas.polynomial(v), Polynomial(ring, dict(zip(bas.monomials, v)))
        assert len(f) == len(g) and f.is_zero() == g.is_zero()
        assert not dict_built(f)  # len and is_zero read the array
        assert list(f.items()) == list(g.items()) and f.term_dict() == g.term_dict()
        assert all(f.coefficient(mono) == g.coefficient(mono) for mono in bas.monomials + ((1,) * 4,))
        assert str(f) == str(g) and f.weighted_degree() == g.weighted_degree()
        assert f == g and g == f and hash(f) == hash(g) and f != other
        assert f + other == g + other and other + f == other + g and f + f == g + g
        assert f * other == g * other and other * f == other * g and f * f == g * g


def test_a_vector_form_copies_the_callers_list():
    bas = basis(R3)
    v = [1, 2] + [0] * (bas.m - 2)
    f = bas.polynomial(v)
    v[:] = [2] * bas.m
    assert f == parse_poly("x^4 + 2*x^3*y", R3) and len(f) == 2
    assert raw_values(bas.coefficients(f), 1) == [1, 2] + [0] * (bas.m - 2)


def test_scan_samples_build_no_term_dict(monkeypatch):
    made = []
    polynomial = MonomialBasis.polynomial
    monkeypatch.setattr(MonomialBasis, "polynomial", lambda bas, v: made.append(polynomial(bas, v)) or made[-1])
    jobs = [
        scan.ScanJob(ring=R2, mode=scan.MODE_ASSERT_BOUND, count=50, seed=11, min_sigma=3),
        scan.ScanJob(ring=R3, mode=scan.MODE_HUNT, target_sigma=1, mask=(0, 20, 30, 34), smoothness_filter=True),
    ]
    rows = [scan._evaluate_index(job, index) for job in jobs for index in range(50)]
    # walks past R_1, which read T, and verdicts of the smoothness filter and walk
    assert any(row["height"] not in ("1", "zero_polynomial") for row, _ in rows)
    assert any(verdict for _, verdict in rows)
    assert len(made) == 100 and not any(map(dict_built, made))


def test_the_char2_lambda_is_one_read_only_array_per_ring():
    ops4 = _linalg.make_ops(field(2, 2))
    forms = []
    for entry in SUPERSINGULAR_QUARTICS_F2[:3]:
        forms.append(entry.polynomial())
        forms.append(parse_poly("x^6 + y^6 + z^6 + w^2 + x*y*z*w", RingConfig(F2, (1, 1, 1, 3))))
        forms.append(parse_poly(entry.equation, RingConfig(field(2, 2), (1, 1, 1, 1))))
    for f in forms:
        b = bundle(f)
        lam = b.lam_coords
        assert lam is b.basis.tables.char2_lam and not lam.flags.writeable
        fresh = np.asarray(dict_lam_and_T(f, b.basis)[0], dtype=np.int64)
        assert lam.shape == fresh.shape and np.array_equal(lam, fresh)
        assert b.lam_row == b.ops.row(fresh)
    assert _linalg.make_ops(field(2, 2)) is ops4


# -- bundle ------------------------------------------------------------------

def test_bundle_rejects_bad_input():
    with pytest.raises(UsageError):
        bundle(Polynomial.zero(R3))
    with pytest.raises(UsageError):
        bundle(parse_poly("x^3", R3))
    with pytest.raises(UsageError):
        bundle(parse_poly("x^4 + x^3", R3))
    # weighted degree 7 in (1,1,1,3), alone and beside a degree-6 term
    for text in ("x^4*w", "x^4*w + y^6 + w^2"):
        with pytest.raises(UsageError, match="homogeneous polynomial of weighted degree 6"):
            bundle(parse_poly(text, R3S))


def test_bundle_reconstructs_f():
    rng = random.Random(0)
    for _ in range(5):
        f = random_form(rng, R3)
        if f.is_zero():
            continue
        b = bundle(f)
        assert b.basis.polynomial(raw_values(b.v_f, 1)) == f


def test_a_form_keeps_the_vector_it_was_built_from_with_canonical_zeros():
    ring = RingConfig(field(5), (1, 1, 1, 1))
    bas = basis(ring)
    v = [0] * bas.m
    v[0] = 5  # x^4, zero in F_5
    for mono in ((0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4), (1, 1, 1, 1)):
        v[bas.index_of(mono)] = 1
    f = bas.polynomial(v)
    kept = bas.coefficients(f)
    read = bas.coefficients(Polynomial(ring, f.term_dict()))
    assert kept[0] == 0 and np.array_equal(kept, read)
    # a read-only int64 coordinate array, whichever way the form was built
    for vec in (kept, read):
        assert type(vec) is np.ndarray and vec.dtype == np.int64 and vec.shape == (bas.m,)
        assert not vec.flags.writeable
    b = bundle(f)
    assert b.v_f is kept
    assert ns_index(b) == ns_index(bundle(parse_poly("y^4+z^4+w^4+x*y*z*w", ring)))


def test_lambda_entries_are_u_values():
    rng = random.Random(1)
    f = random_form(rng, R3)
    b = bundle(f)
    lam = bundle_raw(b)[0]
    fp2 = poly_pow(f, 1)
    for i, mono in enumerate(b.basis.monomials):
        expected = u_op(fp2 * Polynomial(R3, {mono: 1}))
        if expected.is_zero():
            assert lam[i] == 0
        else:
            assert expected.coefficient((0, 0, 0, 0)) == lam[i]


def test_lambda_p2_single_nonzero_entry():
    # f^(p-2) = 1, so lambda_i = [M_i == corner monomial]
    rng = random.Random(2)
    f = random_form(rng, R2)
    b = bundle(f)
    nonzero = [i for i, v in enumerate(bundle_raw(b)[0]) if v]
    assert nonzero == [b.basis.index_of((1, 1, 1, 1))]


def test_lambda_zero_iff_fermat_like_p3():
    f = parse_poly("x^4+y^4+z^4+w^4", R3)
    assert all(F3.is_zero(v) for v in bundle_raw(bundle(f))[0])


def test_T_columns_expand_u_images():
    rng = random.Random(3)
    f = random_form(rng, R3)
    b = bundle(f)
    T = bundle_raw(b)[1]
    kernel = delta(f) * poly_pow(f, 1)
    for j in (0, 7, 34):
        image = u_op(kernel * Polynomial(R3, {b.basis.monomials[j]: 1}))
        expected = raw_values(b.basis.coefficients(image), 1)
        assert [T[i][j] for i in range(b.m)] == expected


def _columns_reference(bas, kernel):
    """Test-only reference: the m x |kernel| loop columns_from_kernel replaced."""
    ring = bas.ring
    f = ring.field
    p = f.p
    T = [[f.zero] * bas.m for _ in range(bas.m)]
    kernel_terms = list(kernel.term_dict().items())
    for j, mono in enumerate(bas.monomials):
        for exps, coeff in kernel_terms:
            shifted = tuple(a + b for a, b in zip(exps, mono))
            if any(e % p != p - 1 for e in shifted):
                continue
            i = bas.index_of(tuple((e - (p - 1)) // p for e in shifted))
            T[i][j] = f.add(T[i][j], f.inverse_frobenius(coeff))
    return T


@pytest.mark.parametrize("p,e,weights", [
    (2, 1, (1, 1, 1, 1)), (3, 1, (1, 1, 1, 1)), (5, 1, (1, 1, 1, 1)), (3, 1, (1, 1, 1, 3)),
    (2, 2, (1, 1, 1, 1)), (3, 2, (1, 1, 1, 1)), (2, 1, (1, 1, 1, 1, 1)),
])
def test_columns_from_kernel_matches_pairwise_reference(p, e, weights):
    ring = RingConfig(field(p, e), weights)
    bas = basis(ring)
    monos = bas.monomials
    elems = list(ring.field.elements())
    rng = random.Random(p * 10 + e)
    for _ in range(3):
        terms = {}
        # random monomials of the kernel degree (2p-2)d; most lie outside
        # every residue class that T reads
        for _ in range(60):
            terms[tuple(map(sum, zip(*rng.choices(monos, k=2 * p - 2))))] = rng.choice(elems)
        # and terms p*M_i + (p-1) - M_j, which land in T[i][j]
        for _ in range(40):
            a, b = rng.choice(monos), rng.choice(monos)
            exps = tuple(p * x + p - 1 - y for x, y in zip(a, b))
            if min(exps) >= 0:
                terms[exps] = rng.choice(elems)
        kernel = Polynomial(ring, terms)
        read = [
            all((x + y) % p == p - 1 for x, y in zip(exps, mono))
            for exps in kernel.term_dict() for mono in monos
        ]
        assert any(read) and not all(read)
        assert columns_from_kernel(bas, kernel) == _columns_reference(bas, kernel)


@pytest.mark.parametrize("p,e,weights", [
    (3, 1, (1, 1, 1, 1)), (5, 1, (1, 1, 1, 1)), (2, 2, (1, 1, 1, 1)), (3, 2, (1, 1, 1, 1)),
    (5, 1, (1, 1, 1, 3)), (3, 1, (1, 1, 1, 1, 1)),
])
def test_filtered_kernel_matches_full_product(p, e, weights):
    # bundle() multiplies only the residue classes T reads; the direct
    # rebuild with a zero shift multiplies delta(f) * f^(p-2) in full
    ring = RingConfig(field(p, e), weights)
    elems = list(ring.field.elements())
    rng = random.Random(p * 10 + e + sum(weights))
    f = Polynomial(ring, {m: rng.choice(elems) for m in basis(ring).monomials})
    b = bundle(f)
    assert bundle_raw(b)[1] == shifted_matrix_direct(b, [ring.field.zero] * b.m)


# -- height and ns ------------------------------------------------------------

def test_fermat_heights():
    assert is_infinite(height(bundle(parse_poly("x^4+y^4+z^4+w^4", R3))))
    b5 = bundle(parse_poly("x^4+y^4+z^4+w^4", RingConfig(field(5), (1, 1, 1, 1))))
    assert height(b5) == 1


def test_catalog_quartics_supersingular_with_expected_ns():
    for entry in SUPERSINGULAR_QUARTICS_F2 + SUPERSINGULAR_QUARTICS_F3:
        b = bundle(entry.polynomial())
        assert is_infinite(height(b)), entry.name
        assert ns_index(b) == entry.expected_sigma, entry.name


def test_ns_infinite_when_height_finite():
    b = bundle(parse_poly("x^4+y^4+z^4+w^4", RingConfig(field(5), (1, 1, 1, 1))))
    ns = ns_index(b)
    assert is_infinite(ns) and ns.cap is None


def test_dictionary_consistency_random():
    rng = random.Random(4)
    for ring in (R2, R3):
        for _ in range(25):
            f = random_form(rng, ring)
            if f.is_zero():
                continue
            b = bundle(f)
            h, ns = height(b), ns_index(b)
            assert is_infinite(h) != is_infinite(ns)


def test_ns_one_iff_lambda_zero_iff_fp2_in_frobenius_power():
    from qfsplit.polyring import in_frobenius_power

    rng = random.Random(5)
    for ring in (R2, R3):
        p = ring.field.p
        for _ in range(50):
            f = random_form(rng, ring)
            if f.is_zero():
                continue
            b = bundle(f)
            lam0 = all(ring.field.is_zero(v) for v in bundle_raw(b)[0])
            member = in_frobenius_power(poly_pow(f, p - 2), 1)
            ns1 = ns_index(b) == 1
            assert lam0 == member == ns1


def _two_walk_reference(b):
    """Test-only reference: the two walks the shared walk replaced.

    A dot-only walk to the height bound m; then, when it found no nonzero
    dot, a rank walk from R_1 to the ns bound m + 1.
    """
    ops = b.ops
    for n, R in enumerate(islice(rows_on(b, b.T_mat), b.m), 1):
        if not ops.dot_is_zero(R, b.v_col):
            return n, Infinite(cap=None)
    h = Infinite(cap=b.m)
    tracker = ops.rank_tracker()
    for n, R in enumerate(islice(rows_on(b, b.T_mat), b.m + 1), 1):
        if not tracker.add_row(R):
            return h, n
    return h, Infinite(cap=b.m + 1)


# fixed forms: lambda = 0 (ns 1), finite heights 6 and 8, and infinite
# heights with ns 2, 9, 10 and 58
WALK_FIXED = [
    (3, 1, (1, 1, 1, 1), "x^4+y^4+z^4+w^4"),
    (3, 2, (1, 1, 1, 1), "x^4+y^4+z^4+w^4"),
    (2, 1, (1, 1, 1, 1), "x^4 + x*z^2*w + y^3*w + y*z^3 + z^4 + w^4"),
    (3, 1, (1, 1, 1, 1), "x^3*z + 2*x^3*w + x*y^3 + x*y*w^2 + y*z*w^2 + z^4"),
    (2, 1, (1, 1, 1, 3), "x^5*y + x*y^4*z + x*y*z^4 + x*z^5 + y^6 + y^3*w + w^2"),
    (2, 1, (1, 1, 1, 1), RDP_QUARTIC_F2.equation),
    (2, 1, (1, 1, 1, 1), SUPERSINGULAR_QUARTICS_F2[-1].equation),
    (3, 1, (1, 1, 1, 1), SUPERSINGULAR_QUARTICS_F3[-1].equation),
    (2, 1, (1, 1, 1, 1, 1), QUINTIC_THREEFOLD_F2.equation),
]


def _walk_forms(p, e, weights, count, seed):
    """``count`` seeded forms, alternately sparse (2-8 terms) and dense."""
    ring = RingConfig(field(p, e), weights)
    monos = basis(ring).monomials
    units = [a for a in ring.field.elements() if not ring.field.is_zero(a)]
    rng = random.Random(seed)
    for i in range(count):
        k = rng.randint(2, 8) if i % 2 == 0 else len(monos)
        yield Polynomial(ring, {mono: rng.choice(units) for mono in rng.sample(monos, k)})


def _compare_walks(f):
    """Assert the shared walk equals the two-walk reference."""
    b = bundle(f)
    ref = _two_walk_reference(b)
    assert repr((height(b), ns_index(b))) == repr(ref), str(f)
    return ref


@pytest.mark.parametrize("p,e,weights,count", [
    (2, 1, (1, 1, 1, 1), 40), (3, 1, (1, 1, 1, 1), 30), (5, 1, (1, 1, 1, 1), 8),
    (2, 2, (1, 1, 1, 1), 30), (3, 2, (1, 1, 1, 1), 8),
    (2, 1, (1, 1, 1, 3), 40), (3, 1, (1, 1, 1, 3), 30), (5, 1, (1, 1, 1, 3), 6),
    (2, 1, (1, 1, 1, 1, 1), 6), (3, 1, (1, 1, 1, 1, 1), 8),
])
def test_shared_walk_matches_two_walk_reference(p, e, weights, count):
    seen = set()
    for f in _walk_forms(p, e, weights, count, seed=p * 100 + e * 10 + len(weights)):
        h, _ = _compare_walks(f)
        seen.add(is_infinite(h))
    # each field and ring meets both ends of the walk: a nonzero dot and a stall
    assert seen == {True, False}


def test_shared_walk_matches_two_walk_reference_on_fixed_forms():
    heights, nss = [], []
    for p, e, weights, text in WALK_FIXED:
        h, ns = _compare_walks(parse_poly(text, RingConfig(field(p, e), weights)))
        heights.append(h)
        nss.append(ns)
    assert heights[2:4] == [6, 8]
    assert nss[:2] == [1, 1] and nss[5:] == [2, 9, 10, 58]


def test_walk_stops_at_the_first_stall(step_counting):
    # the ns = 58 quintic: 58 rows (57 steps), where the two walks took
    # 126 rows for the height and 58 more for ns
    b = step_counting(bundle(QUINTIC_THREEFOLD_F2.polynomial()))
    assert is_infinite(height(b)) and b.ops.calls == 57
    assert ns_index(b) == 58 and b.ops.calls == 57  # the same walk, from the memo
    assert repr(height(b)) == repr(Infinite(cap=126)) and b.ops.calls == 57


@pytest.mark.parametrize("text,expected_height,matrices", [
    ("x*y*z*w", 1, 0),
    ("x^2*y*w + x*y^2*w + x*y*z^2 + x*z*w^2 + y^3*z + y^3*w", 2, 1),
])
def test_step_matrix_is_built_on_first_use(step_counting, text, expected_height, matrices):
    # a walk that stops at R_1 takes no step, so it never needs T as a step matrix
    b = step_counting(bundle(parse_poly(text, R2)))
    assert b.ops.matrix_calls == 0
    assert height(b) == expected_height
    assert b.ops.matrix_calls == matrices


def test_height_cap_recorded():
    # an infinite height records the proven bound m it was walked to
    b = bundle(parse_poly("x^4+y^4+z^4+w^4", R3))
    h = height(b)
    assert h == Infinite(cap=default_height_cap(b)) == Infinite(cap=35)
    assert str(h) == "infinity (cap 35)"
    assert value_to_json(h) == {"value": "infinity", "cap": 35, "exact": True}


def test_coordinate_permutation_invariance():
    rng = random.Random(6)
    perms = [[1, 0, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]]
    for entry in SUPERSINGULAR_QUARTICS_F3[:3]:
        f = entry.polynomial()
        for perm in perms:
            # x_i -> x_perm[i]
            g = Polynomial(f.ring, {tuple(e[perm.index(k)] for k in range(4)): c for e, c in f.term_dict().items()})
            bg = bundle(g)
            assert is_infinite(height(bg))
            assert ns_index(bg) == entry.expected_sigma


def test_scaling_invariance():
    for entry in (SUPERSINGULAR_QUARTICS_F3[3], SUPERSINGULAR_QUARTICS_F3[6]):
        f = entry.polynomial()
        g = f.scaled(2)
        bg = bundle(g)
        assert is_infinite(height(bg))
        assert ns_index(bg) == entry.expected_sigma


# -- krylov matrix / rank ------------------------------------------------------

def test_krylov_rank_profile_of_sigma3_row():
    f = SUPERSINGULAR_QUARTICS_F2[0].polynomial()
    b = bundle(f)
    assert matrix_rank(krylov_matrix(b, 1), F2) == 1
    assert matrix_rank(krylov_matrix(b, 2), F2) == 2
    assert matrix_rank(krylov_matrix(b, 3), F2) == 2


def test_krylov_first_row_independent_of_c():
    rng = random.Random(7)
    f = SUPERSINGULAR_QUARTICS_F3[3].polynomial()
    b = bundle(f)
    base = krylov_matrix(b, 1)
    for _ in range(5):
        c = [rng.randrange(3) for _ in range(b.m)]
        assert krylov_matrix(b, 1, t_shifted(b, c)) == base


def test_krylov_rank_invariance_under_shift():
    rng = random.Random(8)
    for entry in (SUPERSINGULAR_QUARTICS_F2[1], SUPERSINGULAR_QUARTICS_F3[4]):
        f = entry.polynomial()
        b = bundle(f)
        p = b.field.p
        for _ in range(10):
            c = [rng.randrange(p) for _ in range(b.m)]
            for n in (2, 4, 6):
                assert matrix_rank(krylov_matrix(b, n, t_shifted(b, c)), b.field) == matrix_rank(
                    krylov_matrix(b, n), b.field
                )


# -- corner oracle -------------------------------------------------------------

def test_fedder_oracle_level_one_is_classical():
    # height 1 iff f^(p-1) has a nonzero corner coefficient
    f = parse_poly("x^4+y^4+z^4+w^4", RingConfig(field(5), (1, 1, 1, 1)))
    with pytest.raises(UsageError):
        fedder_height_oracle(f)  # p = 5 unsupported
    g = parse_poly("x^2y^2 + z^2w^2", R3)  # f^2 has corner coefficient 2
    assert fedder_height_oracle(g, 1) == 1
    assert height(bundle(g)) == 1
    # Fermat at p=3: the square's corner vanishes, so level 1 does not split
    fermat = parse_poly("x^4+y^4+z^4+w^4", R3)
    assert fedder_height_oracle(fermat, 1) is None


def test_fedder_oracle_agrees_with_matrix_height():
    rng = random.Random(9)
    for ring in (R2, R3):
        for _ in range(25):
            f = random_form(rng, ring)
            if f.is_zero():
                continue
            oracle = fedder_height_oracle(f, 3)
            h = height(bundle(f))
            if oracle is None:
                assert is_infinite(h) or h > 3
            else:
                assert oracle == h


def test_fedder_oracle_agrees_on_weighted_sextics():
    rng = random.Random(10)
    for p in (2, 3):
        ring = RingConfig(field(p), (1, 1, 1, 3))
        for _ in range(12):
            f = random_form(rng, ring)
            if f.is_zero():
                continue
            oracle = fedder_height_oracle(f, 2)
            h = height(bundle(f))
            if oracle is None:
                assert is_infinite(h) or h > 2
            else:
                assert oracle == h


def test_fedder_oracle_fermat_p3_not_one_split():
    f = parse_poly("x^4+y^4+z^4+w^4", R3)
    assert fedder_height_oracle(f, 3) is None  # supersingular: no finite level


def test_fedder_oracle_resource_cap():
    f = parse_poly("x^4+y^4+z^4+w^4", R3)
    with pytest.raises(ResourceError):
        fedder_height_oracle(f, 5)
    with pytest.raises(ResourceError):
        descent_product(f, 5)


# -- reports -------------------------------------------------------------------

def test_artin_report_table_rows():
    entry = SUPERSINGULAR_QUARTICS_F3[3]
    rep = artin_report(entry.polynomial())
    assert rep.family == FAMILY_QUARTIC
    assert is_infinite(rep.height) and rep.ns == 4 and rep.tau == 4
    assert rep.sigma_note == SIGMA_EQUALS_TAU


def test_artin_report_char2_line_certificate():
    entry = SUPERSINGULAR_QUARTICS_F2[4]  # sigma 7 row, line x = w = 0
    rep = artin_report(entry.polynomial(), line=entry.line)
    assert rep.tau == 7 and rep.sigma_note == SIGMA_EQUALS_TAU
    rep_no_line = artin_report(entry.polynomial())
    assert rep_no_line.sigma_note == SIGMA_AMBIGUOUS


def test_artin_report_rejects_false_line():
    f = parse_poly("x^4+y^4+z^4+w^4", R2)  # not in (x, w)
    with pytest.raises(UsageError):
        artin_report(f, line=(0, 3))


@pytest.mark.parametrize("line", [(0, 0), (0, 9), (-1, 2), (0,), (0, 3, 1)])
def test_artin_report_rejects_a_non_line_before_any_bundle_work(monkeypatch, line):
    import qfsplit.cartier as cartier

    def unreachable(f):
        raise AssertionError("bundle built before the line was checked")

    monkeypatch.setattr(cartier, "bundle", unreachable)
    f = parse_poly("x^4 + x*y^3 + x*z^3 + x*w^3", R2)  # in (x), so in every (x, x_j)
    with pytest.raises(UsageError, match="two distinct variable indices"):
        artin_report(f, line=line)


def test_artin_report_ordinary_quartic():
    f = parse_poly("x^4+y^4+z^4+w^4", RingConfig(field(5), (1, 1, 1, 1)))
    rep = artin_report(f)
    assert rep.height == 1 and is_infinite(rep.ns) and is_infinite(rep.tau)


def test_artin_report_general_family():
    ring = RingConfig(F2, (1, 1, 1, 1, 1))
    f = parse_poly("x^5+y^5+z^5+w^5+u^5", ring)
    rep = artin_report(f)
    assert rep.family == FAMILY_GENERAL and rep.tau is None
    assert rep.sigma_note == "not_applicable"


def test_find_axis_line():
    f = SUPERSINGULAR_QUARTICS_F2[0].polynomial()
    assert find_axis_line(f) == (0, 3)
    assert find_axis_line(parse_poly("x^4+y^4+z^4+w^4", R2)) is None


def test_rdp_quartic_ns_two():
    b = bundle(RDP_QUARTIC_F2.polynomial())
    assert is_infinite(height(b))
    assert ns_index(b) == 2


# -- extension fields -----------------------------------------------------------

def test_bundle_over_extension_field():
    F4 = field(2, 2)
    ring = RingConfig(F4, (1, 1, 1, 1))
    f = parse_poly("x^4 + (t)*x*y^3 + y*w^3 + z^3*w", ring)
    b = bundle(f)
    assert default_height_cap(b) == 35  # m, exhaustive over every field
    h = height(b)
    if is_infinite(h):
        assert h.cap == 35


def test_semilinear_rows_match_corner_coefficients_over_f4():
    # over any coefficient field, R_n . v_f equals the level-n corner
    # coefficient of f^(p-1) * (F(f^(p-2)) delta(f) twists); this pins the
    # direction of the Frobenius twist in the extension-field recursion
    from qfsplit.polyring import corner_coefficient, prune

    F4 = field(2, 2)
    ring = RingConfig(F4, (1, 1, 1, 1))
    elems = list(F4.elements())
    rng = random.Random(12)
    monos = basis(ring).monomials
    for _ in range(8):
        f = Polynomial(ring, {m: rng.choice(elems) for m in rng.sample(monos, 8)})
        if f.is_zero() or f.weighted_degree() != 4:
            continue
        b = bundle(f)
        assert b.v_f.shape == (b.m, 2)
        rows = krylov_matrix(b, 3)
        first_nonzero = None
        for n in (1, 2, 3):
            bound = 2**n
            element = prune(descent_product(f, n) * prune(f, bound), bound)
            corner = (
                F4.zero if element.is_zero() else corner_coefficient(element, n)
            )
            row_dot = F4.zero
            for rv, vv in zip(rows[n - 1], raw_values(b.v_f, 2)):
                row_dot = F4.add(row_dot, F4.mul(rv, vv))
            assert row_dot == corner, (str(f), n)
            if first_nonzero is None and not F4.is_zero(corner):
                first_nonzero = n
        h = height(b)
        if first_nonzero is not None:
            assert h == first_nonzero
        else:
            assert is_infinite(h) or h > 3


def test_invariants_stable_under_base_extension():
    # an equation with F_2 coefficients keeps its height/ns over F_4
    entry = SUPERSINGULAR_QUARTICS_F2[0]
    ring4 = RingConfig(field(2, 2), (1, 1, 1, 1))
    f4 = parse_poly(entry.equation, ring4)
    b4 = bundle(f4)
    assert is_infinite(height(b4))
    assert ns_index(b4) == entry.expected_sigma


@pytest.mark.parametrize("entry", all_entries(), ids=lambda e: e.name)
def test_catalog_ns_unchanged_by_base_change(entry):
    # every catalog row keeps an infinite height and its ns over F_{p^2}
    ring = RingConfig(field(entry.p, 2), entry.weights)
    b = bundle(parse_poly(entry.equation, ring))
    assert is_infinite(height(b))
    assert ns_index(b) == entry.expected_ns_value

