"""Acceptance suite: one test per exit criterion, at stated tolerances.

Each criterion prints a single PASS line on success (run with ``pytest -s``
to stream them); all assertions are exact, and the timed criteria assert
their stated wall-clock budgets.
"""

import random
import time

from qfsplit import catalog, delsarte, lifts, scan
from qfsplit.cartier import (
    basis,
    bundle,
    fedder_height_oracle,
    height,
    ns_index,
)
from qfsplit.ffield import field
from qfsplit.polyring import (
    Polynomial,
    RingConfig,
    delta,
    delta_lift_oracle,
    in_frobenius_power,
    poly_pow,
)
from qfsplit.values import is_infinite

from _support import bundle_raw, krylov_matrix, matrix_rank

F2 = field(2)
F3 = field(3)
R2 = RingConfig(F2, (1, 1, 1, 1))
R3 = RingConfig(F3, (1, 1, 1, 1))
R2S = RingConfig(F2, (1, 1, 1, 3))


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


def _random_form(rng, ring):
    monos = basis(ring).monomials
    p = ring.field.p
    f = Polynomial(ring, {m: rng.randrange(p) for m in monos})
    return f


def test_criterion_01_supersingular_quartics_over_f2():
    start = time.perf_counter()
    for entry in catalog.SUPERSINGULAR_QUARTICS_F2:
        b = bundle(entry.polynomial())
        assert is_infinite(height(b)), entry.name
        assert ns_index(b) == entry.expected_sigma, entry.name
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 exceeded its 5 s budget: {elapsed:.2f} s"
    _report(1, f"seven F_2 quartics give height infinity and ns = 3..9 ({elapsed:.2f} s)")


def test_criterion_02_supersingular_quartics_over_f3():
    start = time.perf_counter()
    for entry in catalog.SUPERSINGULAR_QUARTICS_F3:
        b = bundle(entry.polynomial())
        assert is_infinite(height(b)), entry.name
        assert ns_index(b) == entry.expected_sigma, entry.name
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 exceeded its 30 s budget: {elapsed:.2f} s"
    _report(2, f"ten F_3 quartics give height infinity and ns = 1..10 ({elapsed:.2f} s)")


def test_criterion_03_quintic_threefold_ns_58():
    start = time.perf_counter()
    entry = catalog.QUINTIC_THREEFOLD_F2
    b = bundle(entry.polynomial())
    h = height(b)
    assert is_infinite(h) and h.cap == 126
    assert ns_index(b) == 58
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 exceeded its 60 s budget: {elapsed:.2f} s"
    _report(3, f"quintic threefold over F_2: height infinite at cap 126, ns = 58 ({elapsed:.2f} s)")


def test_criterion_04_rdp_quartic_ns_2():
    start = time.perf_counter()
    b = bundle(catalog.RDP_QUARTIC_F2.polynomial())
    assert ns_index(b) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 4 exceeded its 1 s budget: {elapsed:.2f} s"
    _report(4, f"double-point quartic over F_2 has ns = 2 ({elapsed:.2f} s)")


def test_criterion_05_ns_one_criterion_both_directions():
    # high-support monomials (some exponent >= p) force lambda = 0 over F_3,
    # exercising the 'true' branch; dense random samples exercise the 'false' one
    checked = 0
    for p, ring in ((2, R2), (3, R3)):
        rng = random.Random(100 + p)
        fld = ring.field
        high = [m for m in basis(ring).monomials if max(m) >= p]
        for i in range(200):
            if p == 3 and i % 10 == 0:
                terms = {m: rng.randrange(p) for m in rng.sample(high, 5)}
                f = Polynomial(ring, terms)
            else:
                f = _random_form(rng, ring)
            if f.is_zero():
                continue
            b = bundle(f)
            lam_zero = all(ring.field.is_zero(v) for v in bundle_raw(b)[0])
            member = in_frobenius_power(poly_pow(f, p - 2), 1)
            ns_one = ns_index(b) == 1
            assert lam_zero == member == ns_one, (p, str(f))
            checked += 1
    _report(5, f"ns = 1 <=> f^(p-2) in m^[p] <=> lambda = 0 on {checked} random quartics")


def test_criterion_06_delsarte_tables_and_cross_check():
    start = time.perf_counter()
    families = delsarte.builtin_families()
    assert len(families) == 20
    for rec in families:
        inv = delsarte.e_invariant(rec.matrix())
        assert abs(inv.det) == rec.det_abs, rec.equation
        assert inv.e_A == rec.e_A, rec.equation
    pairs = 0
    for p in (2, 3, 5, 7):
        rows = delsarte.cross_check(p)
        assert all(r.match for r in rows), [
            (r.family.equation, r.p) for r in rows if not r.match
        ]
        pairs += len(rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 6 exceeded its 60 s budget: {elapsed:.2f} s"
    _report(6, f"20 family invariants recomputed; formula = matrix on {pairs} "
               f"admissible (row, p) pairs ({elapsed:.2f} s)")


def test_criterion_07_lift_value_set_property():
    entries = catalog.SUPERSINGULAR_QUARTICS_F2 + catalog.SUPERSINGULAR_QUARTICS_F3
    rng = random.Random(7)
    total = 0
    for entry in entries:
        b = bundle(entry.polynomial())
        expected = ns_index(b)
        cap = b.m + 1
        p = b.field.p
        shifts = [[rng.randrange(p) for _ in range(b.m)] for _ in range(100)]
        for c, v in zip(shifts, lifts.ns_lift(b, shifts)):
            if is_infinite(v):
                assert v.cap == cap
            else:
                assert v == expected, (entry.name, c)
            total += 1
    _report(7, f"lift indices lie in {{ns(f), infinity-at-cap-36}} on {total} random lifts")


def test_criterion_08_infinite_lift_construction():
    entries = catalog.SUPERSINGULAR_QUARTICS_F2 + catalog.SUPERSINGULAR_QUARTICS_F3
    built = 0
    for entry in entries:
        b = bundle(entry.polynomial())
        fld = b.field
        lam = bundle_raw(b)[0]
        if all(fld.is_zero(v) for v in lam):
            assert lifts.infinite_lift(b) is None
            continue
        c = lifts.infinite_lift(b)  # verifies ns_lift(b, [c]) = infinity, at cap 36
        j = next(i for i, v in enumerate(lam) if not fld.is_zero(v))
        T_c = lifts.shifted_matrix_direct(b, c)  # raw T - c * lambda, from polynomial data
        for i in range(b.m):
            expected = fld.one if i == j else fld.zero
            assert T_c[i][j] == expected  # T_c e_j = e_j exactly
        built += 1
    assert built == 16  # all rows except the lambda = 0 Fermat quartic over F_3
    _report(8, f"infinite lifts built, with T_c e_j = e_j and ns_lift = infinity, on {built} equations")


def test_criterion_09_oracle_equivalences():
    # (a) multinomial defect = Teichmuller-lift defect
    for p in (2, 3, 5):
        rng = random.Random(900 + p)
        ring = RingConfig(field(p), (1, 1, 1))
        for _ in range(200):
            terms = {
                (rng.randrange(4), rng.randrange(4), rng.randrange(4)): rng.randrange(p)
                for _ in range(rng.randrange(1, 7))
            }
            f = Polynomial(ring, terms)
            assert delta(f) == delta_lift_oracle(f)

    # (b) corner oracle = matrix height on the overlap
    for p, ring in ((2, R2), (3, R3)):
        rng = random.Random(910 + p)
        for _ in range(100):
            f = _random_form(rng, ring)
            if f.is_zero():
                continue
            oracle = fedder_height_oracle(f, 3)
            h = height(bundle(f))
            if oracle is None:
                assert is_infinite(h) or h > 3
            else:
                assert oracle == h

    # (c) shifted and unshifted stacked rows have equal rank
    for p, ring in ((2, R2), (3, R3)):
        rng = random.Random(920 + p)
        for _ in range(25):
            f = _random_form(rng, ring)
            if f.is_zero():
                continue
            b = bundle(f)
            c = [rng.randrange(p) for _ in range(b.m)]
            for n in (2, 4, 6):
                assert matrix_rank(krylov_matrix(b, n, lifts.t_shifted(b, c)), b.field) == matrix_rank(
                    krylov_matrix(b, n), b.field
                )

    # (d) stage decomposition identity at points
    from test_lifts import check_stage_decomposition

    rng = random.Random(930)
    b2 = bundle(catalog.SUPERSINGULAR_QUARTICS_F2[2].polynomial())
    for _ in range(6):
        c = [rng.randrange(2) for _ in range(b2.m)]
        for n in (1, 2, 3, 4):
            assert check_stage_decomposition(b2, c, n)
    b3 = bundle(catalog.SUPERSINGULAR_QUARTICS_F3[4].polynomial())
    for _ in range(3):
        c = [rng.randrange(3) for _ in range(b3.m)]
        for n in (1, 2, 3):
            assert check_stage_decomposition(b3, c, n)

    _report(9, "defect oracle, corner oracle, rank invariance and stage "
               "decomposition all agree with the matrix engine")


def test_criterion_10_sigma_bound_scans_char_2():
    start = time.perf_counter()
    results = {}
    for label, ring in (("weighted sextics", R2S), ("quartics", R2)):
        job = scan.ScanJob(
            ring=ring,
            mode=scan.MODE_ASSERT_BOUND,
            count=1000,
            seed=2026,
            min_sigma=3,
            witness_extension_bound=2,
        )
        res = scan.run_scan(job)
        assert len(res.rows) == 1000
        assert res.violations == [], (label, res.violations)
        assert res.ambiguous == [], (label, res.ambiguous)
        supersingular = sum(1 for r in res.rows if r["height"] == "infinity")
        results[label] = supersingular
    elapsed = time.perf_counter() - start
    _report(10, "no smooth-filtered supersingular sample below sigma 3 in 1000 "
                f"sextics + 1000 quartics over F_2 "
                f"(supersingular hits: {results}; {elapsed:.1f} s)")
