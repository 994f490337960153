import pytest

from qfsplit.delsarte import (
    DelsarteMatrix,
    builtin_families,
    check_admissible,
    cross_check,
    delsarte_invariants,
    e_invariant,
    generic_hypotheses_hold,
    order_scan,
)
from qfsplit.errors import DomainError, UsageError


def fermat_matrix():
    return DelsarteMatrix(
        rows=((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)),
        weights=(1, 1, 1, 1),
    )


def test_fermat_invariant():
    inv = e_invariant(fermat_matrix())
    assert inv.det == 256 and inv.e_A == 4
    assert inv.alpha == (64, 64, 64, 64) and inv.g == 64


def test_chain_quartic_invariant():
    A = DelsarteMatrix(
        rows=((4, 0, 0, 0), (1, 3, 0, 0), (0, 1, 3, 0), (0, 0, 1, 3)),
        weights=(1, 1, 1, 1),
    )
    inv = e_invariant(A)
    assert abs(inv.det) == 108 and inv.e_A == 27


def test_weighted_chain_invariant():
    A = DelsarteMatrix(
        rows=((5, 1, 0, 0), (0, 5, 1, 0), (0, 0, 3, 1), (0, 0, 0, 2)),
        weights=(1, 1, 1, 3),
    )
    inv = e_invariant(A)
    assert abs(inv.det) == 150 and inv.e_A == 25


def test_adjugate_identity_for_all_families():
    for rec in builtin_families():
        A = rec.matrix()
        inv = e_invariant(A)
        n = 4
        for i in range(n):
            for j in range(n):
                entry = sum(inv.adjugate[i][k] * A.rows[k][j] for k in range(n))
                assert entry == (inv.det if i == j else 0)


def test_degree_condition_enforced():
    with pytest.raises(UsageError):
        DelsarteMatrix(rows=((3, 0, 0, 0),) * 4, weights=(1, 1, 1, 1))
    with pytest.raises(UsageError):
        DelsarteMatrix(rows=((6, 0, 0, 0), (0, 6, 0, 0), (0, 0, 6, 0), (0, 0, 0, 1)),
                       weights=(1, 1, 1, 1))


def test_singular_matrix_rejected():
    A = DelsarteMatrix(
        rows=((4, 0, 0, 0), (4, 0, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)),
        weights=(1, 1, 1, 1),
    )
    with pytest.raises(DomainError):
        e_invariant(A)


def test_order_scan_examples():
    assert order_scan(3, 4) == order_scan(3, 4).__class__(kind="sigma", value=1, e_A=4)
    assert order_scan(5, 36).kind == "height" and order_scan(5, 36).value == 6
    assert order_scan(5, 4).kind == "height" and order_scan(5, 4).value == 1
    assert order_scan(2, 27).kind == "sigma" and order_scan(2, 27).value == 9
    assert order_scan(3, 50).kind == "sigma" and order_scan(3, 50).value == 10


def test_delsarte_invariants_rejects_p_dividing_eA():
    with pytest.raises(DomainError):
        delsarte_invariants(fermat_matrix(), 2)


def test_delsarte_invariants_rejects_composite_characteristic():
    with pytest.raises(UsageError):
        delsarte_invariants(fermat_matrix(), 9)
    with pytest.raises(UsageError):
        check_admissible(builtin_families()[0], 15)


def test_builtin_families_shape_and_recomputation():
    fams = builtin_families()
    assert len(fams) == 20
    assert sum(rec.weights == (1, 1, 1, 1) for rec in fams) == 10
    assert sum(rec.weights == (1, 1, 1, 3) for rec in fams) == 10
    for rec in fams:
        inv = e_invariant(rec.matrix())
        assert abs(inv.det) == rec.det_abs, rec.equation
        assert inv.e_A == rec.e_A, rec.equation


def test_star_data_spot_checks():
    fams = builtin_families()
    by_eq = {rec.equation: rec for rec in fams}
    assert by_eq["x0^3x1+x1^3x2+x2^3x3+x3^3x0"].star == frozenset({3, 5})
    assert by_eq["x0^6+x1^5x2+x2^5x1+x3^2"].star == frozenset({5})
    assert by_eq["x0^4+x0x1^3+x1x2^3+x2x3^3"].star == frozenset({2})


def test_admissibility_logic():
    fams = builtin_families()
    fermat = fams[0]
    check_admissible(fermat, 3)
    check_admissible(fermat, 7)
    with pytest.raises(DomainError):
        check_admissible(fermat, 2)  # 2 | e_A (and the quartic degenerates)
    cycle3 = fams[5]  # x0^4+x1^3x2+x2^3x3+x3^3x1, |det| = 112, star = {3}
    assert not generic_hypotheses_hold(cycle3, 7)  # 7 | det: outside the formula
    with pytest.raises(DomainError):
        check_admissible(cycle3, 7)
    check_admissible(cycle3, 3)  # separately verified special prime
    chain4 = fams[8]  # star = {2}
    check_admissible(chain4, 2)
    result = delsarte_invariants(chain4.matrix(), 2)
    assert result.kind == "sigma"
    assert result.value == 9


def test_cross_check_small():
    rows = cross_check(3)
    assert rows, "some families must be admissible at p = 3"
    assert all(r.match for r in rows)


def test_witness_search_versus_excluded_primes_report():
    # informational: where a (family, p) pair is excluded for smoothness
    # reasons, a small-field singular witness usually exists -- but may need a
    # larger field, so discrepancies are reported rather than asserted
    from qfsplit.ffield import field
    from qfsplit.polyring import RingConfig, parse_poly
    from qfsplit.scan import singular_witness

    confirmed, open_cases = [], []
    for rec in builtin_families():
        for p in (2, 3, 5, 7):
            if rec.e_A % p == 0:
                continue  # excluded by the order condition, not by smoothness
            if generic_hypotheses_hold(rec, p) or p in rec.star:
                continue  # admissible; nothing to witness
            f = parse_poly(rec.equation, RingConfig(field(p), rec.weights))
            hit = singular_witness(f, 2)
            (confirmed if hit else open_cases).append((rec.index, p))
    print(f"smoothness exclusions confirmed by small-field witnesses: {confirmed}")
    print(f"exclusions needing larger fields (reported, not asserted): {open_cases}")
    assert confirmed, "at least some exclusions stem from small-field singularities"
