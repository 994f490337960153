import concurrent.futures
import dataclasses
import random
import tracemalloc
from itertools import product

import pytest

from qfsplit import _fpbundle, catalog, scan
from qfsplit.cartier import basis
from qfsplit.errors import ResourceError, UsageError
from qfsplit.ffield import ExtensionField, PrimeField, field
from qfsplit.polyring import Polynomial, RingConfig, parse_poly
from qfsplit.scan import (
    SMOOTHNESS_CAVEAT,
    ScanJob,
    run_scan,
    sample,
    singular_witness,
)

from _support import evaluate, partial, sample_reference, witness_table_reference

F2 = field(2)
F3 = field(3)
R2 = RingConfig(F2, (1, 1, 1, 1))
R3 = RingConfig(F3, (1, 1, 1, 1))
R3S = RingConfig(F3, (1, 1, 1, 3))


# -- sampling ---------------------------------------------------------------

def test_sample_is_deterministic():
    assert sample(9, 123, R2) == sample(9, 123, R2)
    assert sample(9, 123, R2) != sample(9, 124, R2)
    assert sample(8, 123, R2) != sample(9, 123, R2)


def test_sample_length_and_range():
    v = sample(0, 0, R3S)
    assert len(v) == 39 and all(0 <= x < 3 for x in v)
    F9 = field(3, 2)
    v9 = sample(0, 0, RingConfig(F9, (1, 1, 1, 1)))
    assert len(v9) == 35 and all(len(x) == 2 for x in v9)


def test_sample_coordinate_means():
    n = 2000
    sums = [0] * 35
    for i in range(n):
        for j, x in enumerate(sample(5, i, R2)):
            sums[j] += x
    means = [s / n for s in sums]
    assert min(means) > 0.45 and max(means) < 0.55


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2**31 - 1, 1), (32771, 2)],
                         ids=["F2", "F3", "F4", "F9", "F(2^31-1)", "F(32771^2)"])
def test_sample_matches_the_word_by_word_reference(p, e):
    ring = RingConfig(field(p, e), (1, 1, 1, 1))
    for seed in (0, 2026, -5, 2**70 + 3):
        for index in (0, 1, 977):
            v = sample(seed, index, ring)
            assert v == sample_reference(seed, index, ring)
            assert all(type(x) is int for x in (v if e == 1 else sum(v, ())))


# -- witness search -----------------------------------------------------------

def test_witness_on_nonreduced_quartic():
    hit = singular_witness(parse_poly("x^4", R3), 2)
    assert hit is not None
    k, point = hit
    assert k == 1 and point[0] == 0  # singular along x = 0


def test_fermat_quartic_p3_has_no_small_witness():
    assert singular_witness(parse_poly("x^4+y^4+z^4+w^4", R3), 2) is None


def test_sextic_with_vanishing_derivatives_is_caught():
    f = parse_poly("x0^6+x1^6+x2^6+x3^2", R3S)
    hit = singular_witness(f, 2)
    assert hit is not None and hit[0] == 1


def test_witness_tables_cache_holds_one_ring_search():
    scan._tables.cache_clear()
    f2 = parse_poly("x^4 + x^2*y^2 + x*y^3 + y*w^3 + z^3*w", R2)  # smooth catalog row
    f3 = parse_poly("x^4+y^4+z^4+w^4", R3)
    assert singular_witness(f2, 3) is None  # tables for k = 1, 2, 3
    assert singular_witness(f3, 2) is None  # two more: the oldest two go
    info = scan._tables.cache_info()
    assert info.maxsize == 3 and info.currsize == 3 and info.misses == 5
    # the last ring's whole search is still cached
    assert singular_witness(f3, 2) is None
    assert scan._tables.cache_info().hits == info.hits + 2
    assert singular_witness(f2, 1) is None
    assert scan._tables.cache_info().misses == 6


def test_catalog_rows_marked_smooth_are_those_without_a_witness():
    # the rational-double-point quartic has a witness over F_2 itself
    entries = catalog.all_entries()
    found = {e.name: singular_witness(e.polynomial(), 2) for e in entries}
    assert {name for name, hit in found.items() if hit is not None} == {
        e.name for e in entries if not e.smooth} == {"rdp-quartic-ns2"}
    assert found["rdp-quartic-ns2"][0] == 1


def test_witness_validates_input():
    F4 = field(2, 2)
    f = parse_poly("x^4+y^4+z^4+w^4", RingConfig(F4, (1, 1, 1, 1)))
    with pytest.raises(UsageError):
        singular_witness(f, 2)
    with pytest.raises(UsageError):
        singular_witness(parse_poly("x^4", R3), 4)


def test_witness_points_are_actual_singular_points():
    f = parse_poly("x^4 + x^2y^2 + z^4", R3)
    hit = singular_witness(f, 2)
    assert hit is not None
    k, point = hit
    fld = field(3, k) if k > 1 else F3
    ring_k = RingConfig(fld, (1, 1, 1, 1))
    fk = parse_poly("x^4 + x^2y^2 + z^4", ring_k)
    assert fld.is_zero(evaluate(fk, point))
    for i in range(4):
        assert fld.is_zero(evaluate(partial(fk, i), point))


def reference_witness(f, extension_bound):
    """The witness search by brute force: the first point, in the same
    canonical order (first nonzero coordinate 1, the later coordinates as
    base-q digits of a counter, least significant first), where f and every
    partial vanish over F_{p^k}, k = 1 .. extension_bound."""
    p = f.ring.field.p
    nv = f.ring.num_vars
    for k in range(1, extension_bound + 1):
        fld = field(p, k)
        fk = Polynomial(RingConfig(fld, f.ring.weights),
                        {e: fld.from_int(c) for e, c in f.term_dict().items()})
        polys = [fk] + [partial(fk, i) for i in range(nv)]
        elems = list(fld.elements())
        for pivot in range(nv):
            for rest in product(elems, repeat=nv - pivot - 1):
                point = (fld.zero,) * pivot + (fld.one,) + rest[::-1]
                if all(fld.is_zero(evaluate(g, point)) for g in polys):
                    return (k, point)
    return None


@pytest.mark.parametrize("p,weights,bound", [
    (2, (1, 1, 1, 1), 3),
    (3, (1, 1, 1, 1), 2),
    (5, (1, 1, 1, 1), 1),
    (2, (1, 1, 1, 3), 2),
    (3, (1, 1, 1, 3), 2),
    (2, (1, 1, 1, 1, 1), 2),
])
def test_witness_matches_brute_force_reference(p, weights, bound):
    ring = RingConfig(field(p), weights)
    bas = basis(ring)
    rng = random.Random(2026)
    # draw until two forms with a witness and two without have been compared;
    # sparse forms are mostly singular, dense ones less often
    seen = {True: 0, False: 0}
    for i in range(300):
        density = (0.15, 0.3, 1.0)[i % 3]
        f = bas.polynomial([rng.randrange(p) if rng.random() < density else 0
                            for _ in range(bas.m)])
        want = reference_witness(f, bound)
        assert singular_witness(f, bound) == want, str(f)
        seen[want is None] += 1
        if min(seen.values()) >= 2:
            break
    assert min(seen.values()) >= 2, seen


def test_witness_cap_is_checked_before_any_table_is_built(monkeypatch):
    def unreachable(self):
        raise AssertionError("field elements enumerated before the cap check")

    monkeypatch.setattr(PrimeField, "elements", unreachable)
    monkeypatch.setattr(ExtensionField, "elements", unreachable)
    with pytest.raises(ResourceError):
        singular_witness(parse_poly("x^4+y^4+z^4+w^4", RingConfig(field(211), (1, 1, 1, 1))), 1)
    # two variables: q + 1 points, so only the q x q table exceeds the budget
    line = RingConfig(field(1_000_003), (1, 1))
    with pytest.raises(ResourceError):
        singular_witness(basis(line).polynomial([1, 0, 1]), 1)


@pytest.mark.parametrize("p,weights,k", [
    (3, (1, 1, 1, 1), 3),
    (3, (1, 1, 1, 3), 3),
    (3, (1, 1, 1, 1, 1), 2),
    (101, (1, 1, 1), 1),
    (257, (1, 1), 1),
])
def test_witness_budget_counts_the_bytes_a_build_allocates(p, weights, k):
    ring = RingConfig(field(p), weights)
    m = basis(ring).m  # cached before the measurement
    tracemalloc.start()
    try:
        tables = scan._WitnessTables(ring, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q, nv = p**k, len(weights)
    counted = scan._table_bytes(nv, k, (q**nv - 1) // (q - 1), m, q, tables.table.itemsize)
    assert tables.table.nbytes < peak <= counted


@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (1, 1, 1, 3)], ids=["quartic", "sextic"])
@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)],
                         ids=["F2", "F4", "F8", "F9", "F27"])
def test_witness_tables_equal_the_table_by_table_build(p, k, weights):
    # F_27 has 20440 points, more than one block of the build
    ring = RingConfig(field(p), weights)
    built = scan._WitnessTables(ring, k).table
    reference = witness_table_reference(ring, k)
    assert (built.dtype, built.shape) == (reference.dtype, reference.shape)
    assert built.tobytes() == reference.tobytes()


# -- jobs ---------------------------------------------------------------------

def test_a_filtered_f2_sample_reads_its_coefficients_once(monkeypatch):
    # the sample's form keeps the vector it was built from, so the witness
    # search, the homogeneity check, the p = 2 kernel and the bundle never
    # read a coefficient back from f
    job = ScanJob(ring=R2, mode="assert_bound", count=3, seed=2026, min_sigma=3)
    scan._evaluate_index(job, 0)  # builds the per-ring tables
    calls = []
    original = Polynomial.coefficient
    monkeypatch.setattr(Polynomial, "coefficient",
                        lambda f, exps: calls.append(exps) or original(f, exps))
    row, _ = scan._evaluate_index(job, 1)
    assert row["height"] and row["smooth_witness_flag"]
    assert calls == []


def test_job_validation():
    with pytest.raises(UsageError):
        run_scan(ScanJob(ring=R2, mode="nope", count=1))
    with pytest.raises(UsageError):
        run_scan(ScanJob(ring=R2, mode="hunt", count=1))
    with pytest.raises(UsageError):
        run_scan(ScanJob(ring=R2, mode="histogram", count=0))
    quintic = RingConfig(F2, (1, 1, 1, 1, 1))
    with pytest.raises(UsageError):
        run_scan(ScanJob(ring=quintic, mode="assert_bound", count=1, min_sigma=3))


def test_histogram_totals_match_sample_count():
    res = run_scan(ScanJob(ring=R2, mode="histogram", count=40, seed=17))
    assert sum(c for (_, _, c) in res.histogram) == 40
    assert len(res.rows) == 40
    assert res.caveat is None  # filter defaults off outside assert_bound


def test_worker_count_independence():
    base = run_scan(ScanJob(ring=R2, mode="histogram", count=24, seed=3))
    multi = run_scan(ScanJob(ring=R2, mode="histogram", count=24, seed=3, workers=3))
    assert base.csv_text() == multi.csv_text()
    assert base.json_text() == multi.json_text()


@pytest.mark.parametrize("job, lists", [
    # the README hunt: 16 hits, each reverified
    (ScanJob(ring=R3, mode="hunt", mask=(0, 20, 30, 34), target_sigma=1, smoothness_filter=True),
     ("hits",)),
    # violation at index 267 (tau 6), ambiguous at 377 (tau 9)
    (ScanJob(ring=R2, mode="assert_bound", count=400, seed=11, min_sigma=10),
     ("violations", "ambiguous")),
], ids=["hunt", "assert_bound"])
def test_worker_count_independence_of_hits_violations_and_ambiguous(job, lists):
    base = run_scan(job)
    multi = run_scan(dataclasses.replace(job, workers=3))
    for name in lists:
        assert getattr(base, name)
    assert base.csv_text() == multi.csv_text()
    assert base.json_text() == multi.json_text()


@pytest.mark.parametrize("cpus", [None, 1, 2, 3, 64])
def test_scan_pool_never_exceeds_cpus_or_chunks(monkeypatch, cpus):
    sizes = []

    class RecordingPool:
        """In-process stand-in for ProcessPoolExecutor that records its size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(scan.os, "cpu_count", lambda: cpus)
    serial = run_scan(ScanJob(ring=R2, mode="histogram", count=6, seed=5))
    for workers in (2, 1_000_000):
        job = ScanJob(ring=R2, mode="histogram", count=6, seed=5, workers=workers)
        assert run_scan(job).csv_text() == serial.csv_text()
    # one usable worker (no CPU count means one) runs in-process; otherwise the
    # pool holds min(workers, CPUs, samples) processes
    usable = min(cpus or 1, 6)
    assert sizes == ([] if usable == 1 else [min(2, usable), usable])


def test_assert_bound_scan_small():
    res = run_scan(ScanJob(ring=R2, mode="assert_bound", count=60, seed=11, min_sigma=3))
    assert res.violations == []
    assert res.caveat == SMOOTHNESS_CAVEAT
    assert all(row["smooth_witness_flag"] for row in res.rows)


@pytest.mark.parametrize("ring, equation, bound, violations, ambiguous", [
    # tau 9 below a bound of 10: over F_2 a quartic's sigma may be tau + 1 = 10
    (R2, "x^4 + xy^3 + yw^3 + z^3w", 10, [], ["9"]),
    # tau 1 below a bound of 2: over F_3 sigma = tau, so the 16 diagonal forms violate it
    (R3, "x^4 + y^4 + z^4 + w^4", 2, ["1"] * 16, []),
])
def test_assert_bound_doubts_sigma_only_for_char2_quartics(ring, equation, bound, violations,
                                                           ambiguous):
    bas = basis(ring)
    mask = tuple(bas.index_of(e) for e in parse_poly(equation, ring).term_dict())
    res = run_scan(ScanJob(ring=ring, mode="assert_bound", mask=mask, min_sigma=bound))
    assert [row["tau"] for row in res.violations] == violations
    assert [row["tau"] for row in res.ambiguous] == ambiguous


F2_MASK_SIX = "x^4 + xy^3 + yw^3 + z^3w + xyzw + x^2z^2"  # its 64 forms hold one tau-9 hit


@pytest.mark.parametrize("kind", ["assert_bound", "mask"])
def test_f2_scan_artifacts_are_route_independent(monkeypatch, kind):
    if kind == "assert_bound":
        job = ScanJob(ring=R2, mode="assert_bound", count=60, seed=2026, min_sigma=3)
    else:
        mask = tuple(basis(R2).index_of(e) for e in parse_poly(F2_MASK_SIX, R2).term_dict())
        job = ScanJob(ring=R2, mode="hunt", mask=mask, target_sigma=9, smoothness_filter=True)
    numpy_route = run_scan(job)
    monkeypatch.setattr(_fpbundle, "admits", lambda ring, m: False)
    dict_route = run_scan(job)
    assert numpy_route.csv_text() == dict_route.csv_text()
    assert numpy_route.json_text() == dict_route.json_text()
    if kind == "mask":
        assert [hit["reverified"] for hit in numpy_route.hits] == [True]


def test_hunt_with_mask_finds_diagonal_quartics():
    bas = basis(R3)
    mask = tuple(bas.index_of(e) for e in [(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)])
    res = run_scan(ScanJob(ring=R3, mode="hunt", mask=mask, target_sigma=1,
                           smoothness_filter=True))
    assert len(res.rows) == 81
    assert len(res.hits) == 16  # all-nonzero diagonal quartics
    assert all(hit["reverified"] for hit in res.hits)


@pytest.mark.parametrize("fld_class,ring,mask", [
    (PrimeField, R3, (0, 20, 30, 34)),
    (ExtensionField, RingConfig(field(2, 2), (1, 1, 1, 1)), (3, 7, 11)),
], ids=["F3", "F4"])
def test_a_mask_job_lists_the_field_elements_once(monkeypatch, fld_class, ring, mask):
    calls = []
    listed = fld_class.elements
    monkeypatch.setattr(fld_class, "elements", lambda fld: calls.append(fld) or listed(fld))
    job = ScanJob(ring=ring, mask=mask)
    got = [job.coefficients_for(index) for index in range(job.total())]
    assert len(calls) == 1
    # index = sum_k digit_k q^k, digit k the position of mask[k]'s value in elements()
    fld = ring.field
    elems = list(listed(fld))
    expected = []
    for digits in product(range(fld.order), repeat=len(mask)):
        coeffs = [fld.zero] * basis(ring).m
        for pos, digit in zip(mask, reversed(digits)):
            coeffs[pos] = elems[digit]
        expected.append(coeffs)
    assert got == expected


def test_csv_columns():
    res = run_scan(ScanJob(ring=R2, mode="histogram", count=3, seed=0))
    header = res.csv_text().splitlines()[0]
    assert header == "index,coefficients,height,ns,tau,smooth_witness_flag"


def test_artifacts_round_trip(tmp_path):
    res = run_scan(ScanJob(ring=R2, mode="histogram", count=5, seed=1))
    res.write_artifacts(tmp_path)
    assert (tmp_path / "scan.csv").read_text() == res.csv_text()
    import json

    doc = json.loads((tmp_path / "scan.json").read_text())
    assert doc["total"] == 5
