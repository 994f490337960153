"""The numpy route of bundle() against the dict route over F_p and F_{p^e}, the p = 2 kernel against both, and the route rule.

The routes meet in raw values: the numpy route's coordinate arrays, read as
raw values, must equal the dict route's lists entry for entry.  Every twin
case also checks the bundle's step matrix against the entry-by-entry build
from raw rows in ``_support``.  Each route returns lambda and a builder of
T; the tests run the builder (``_support.forced``), and the last section
checks that a bundle whose walk stops at R_1 never runs it.
"""

import math
import random

import numpy as np
import pytest

from qfsplit import _fpbundle, cartier, catalog, cli, delsarte, scan
from qfsplit.cartier import basis, bundle, dict_lam_and_T
from qfsplit.ffield import field
from qfsplit.polyring import Polynomial, RingConfig, parse_poly

from _support import as_raw, assert_bundle_matches, assert_twins, forced

QUARTIC, SEXTIC, QUINTIC = (1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 1, 1, 1)
# forms whose lambda vanishes at some of p = 3, 5, 7 (ns = 1 there)
DIAGONAL = {
    QUARTIC: ("x^4+y^4+z^4+w^4", "x^3y+y^3z+z^3w+w^3x"),
    SEXTIC: ("x^6+y^6+z^6+w^2", "x^5y+y^5z+z^5x+w^2"),
    QUINTIC: ("x^5+y^5+z^5+w^5+u^5", "x^4y+y^4z+z^4w+w^4u+u^4x"),
}


def seeded_forms(ring, seed, dense):
    """One dense form (if asked), one 4-term form and one one-term form."""
    rng = random.Random(seed)
    monos = basis(ring).monomials
    fld = ring.field
    elems = list(fld.elements())  # zero first; over F_p, elems[k] = k
    q = len(elems)
    if dense:
        yield Polynomial(ring, {m: elems[rng.randrange(q)] for m in monos} | {monos[0]: fld.one})
    yield Polynomial(ring, {m: elems[rng.randrange(1, q)] for m in rng.sample(monos, 4)})
    yield Polynomial(ring, {rng.choice(monos): elems[rng.randrange(1, q)]})


NAMES = {QUARTIC: "quartic", SEXTIC: "sextic", QUINTIC: "quintic"}
# a dense quintic at p >= 5 takes the dict route seconds, so those are sparse only
SEEDED = [
    (2, QUARTIC, True), (2, SEXTIC, True), (2, QUINTIC, True),
    (3, QUARTIC, True), (3, SEXTIC, True), (3, QUINTIC, True),
    (5, QUARTIC, True), (5, SEXTIC, True), (5, QUINTIC, False),
    (7, QUARTIC, True), (7, SEXTIC, True), (7, QUINTIC, False),
]


@pytest.mark.parametrize("p,weights,dense", SEEDED,
                         ids=[f"F{p}-{NAMES[w]}{'-dense' * d}" for p, w, d in SEEDED])
def test_routes_agree_on_seeded_forms(p, weights, dense):
    ring = RingConfig(field(p), weights)
    for seed in range(3):
        for f in seeded_forms(ring, 100 * p + seed, dense and seed == 0):
            assert_twins(f)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_routes_agree_on_diagonal_and_cyclic_forms(p):
    zero_rows = 0
    for weights, texts in DIAGONAL.items():
        ring = RingConfig(field(p), weights)
        for text in texts:
            zero_rows += not any(assert_twins(parse_poly(text, ring)))
    assert zero_rows >= 2  # lambda = 0 occurs at every one of these p


def test_routes_agree_on_every_catalog_row():
    for entry in catalog.all_entries():
        assert_twins(entry.polynomial())


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_routes_agree_on_delsarte_families(p):
    records = [r for r in delsarte.builtin_families() if delsarte.admissible_primes(r, [p])]
    assert records
    for record in records:
        assert_twins(parse_poly(record.equation, RingConfig(field(p), record.weights)))


# one-term forms: f^(p-2) = c^(p-2) x^((p-2)a) and delta = 0, the powers taken
# in closed form; the coefficient 3 (t+1 over F_{p^2}) keeps c^(p-2) from being 1
ONE_TERM = ["x*y*z*w", "x^4", "x^2*y*w", "C*x*y^2*z"]
ONE_TERM_FIELDS = [(11, 1), (97, 1), (997, 1), (4093, 1), (8191, 1), (3, 2), (5, 2), (7, 2), (11, 2)]


@pytest.mark.parametrize("p,e", ONE_TERM_FIELDS, ids=[f"F{p}^{e}" for p, e in ONE_TERM_FIELDS])
def test_routes_agree_on_one_term_forms(p, e):
    fld = field(p, e)
    ring = RingConfig(fld, QUARTIC)
    c = "(t+1)" if e > 1 else "3"
    lams = [assert_twins(parse_poly(text.replace("C", c), ring)) for text in ONE_TERM]
    # x*y*z*w reads lambda at (p-2)(1, 1, 1, 1) + (1, 1, 1, 1); x^4 leaves it 0
    assert [any(v != fld.zero for v in lam) for lam in lams[:2]] == [True, False]


@pytest.fixture(scope="module")
def block_twin_cases():
    """Forms with their dict-route lambda and T, computed once for every block size."""
    forms = []
    for p, e in ((3, 1), (5, 1), (3, 2)):
        # a dense, a 4-term and a one-term quartic, a 4-term and a one-term sextic
        forms += seeded_forms(RingConfig(field(p, e), QUARTIC), 10 * p + e, True)
        forms += seeded_forms(RingConfig(field(p, e), SEXTIC), 10 * p + e, False)
    # d = 2 w_min gives the narrowest exponent fields, and at p = 2^(w-1) - 1
    # the guard bit of the class matching has no room to spare
    for p in (3, 7, 31):
        ring = RingConfig(field(p), (1, 1))
        forms += [parse_poly(text, ring) for text in ("x^2+x*y+y^2", "x^2+y^2", "x^2+3*x*y")]
    forms += [parse_poly(r.equation, RingConfig(field(11), r.weights)) for r in delsarte.builtin_families()]
    return [(f, forced(dict_lam_and_T(f, basis(f.ring)))) for f in forms]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_routes_agree_at_small_block_sizes(monkeypatch, block_twin_cases, block):
    # at BLOCK 1 every product block is one term of fhat, every kernel row is
    # split and every pair is its own block; at 7 and 64 rows straddle blocks
    monkeypatch.setattr(_fpbundle, "BLOCK", block)
    for f, expected in block_twin_cases:
        assert as_raw(forced(_fpbundle.lam_and_T(f, basis(f.ring))), f.ring.field) == expected


# -- F_{p^e}: the Galois-ring lift --------------------------------------------

# F_4, F_8, F_9, F_25, F_27 and F_49
EXTENSIONS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)]


@pytest.mark.parametrize("p,e", EXTENSIONS, ids=[f"F{p ** e}" for p, e in EXTENSIONS])
def test_routes_agree_on_seeded_forms_over_extensions(p, e):
    for weights in (QUARTIC, SEXTIC):
        ring = RingConfig(field(p, e), weights)
        for seed in range(3):
            for f in seeded_forms(ring, 1000 * p + 10 * e + seed, False):
                assert_twins(f)


@pytest.mark.parametrize("p", [2, 3], ids=["F4", "F9"])
def test_routes_agree_on_a_dense_quartic_over_an_extension(p):
    f = next(seeded_forms(RingConfig(field(p, 2), QUARTIC), 7, True))
    assert len(f.term_dict()) >= 20
    assert_twins(f)


def test_routes_agree_on_every_catalog_row_over_the_quadratic_extension():
    for entry in catalog.all_entries():
        assert_twins(parse_poly(entry.equation, RingConfig(field(entry.p, 2), entry.weights)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_routes_agree_on_delsarte_families_over_the_quadratic_extension(p):
    records = [r for r in delsarte.builtin_families() if delsarte.admissible_primes(r, [p])]
    for record in records:
        assert_twins(parse_poly(record.equation, RingConfig(field(p, 2), record.weights)))


# -- p = 2: T as a quadratic form in the coefficient vector ---------------------

CHAR2 = [(e, w) for e in (1, 2, 3) for w in (QUARTIC, SEXTIC, QUINTIC)]


def assert_char2_twins(f):
    """The p = 2 kernel equals the general numpy route and the dict route."""
    bas = basis(f.ring)
    fld = f.ring.field
    kernel = as_raw(forced(_fpbundle.char2_lam_and_T(f, bas)), fld)
    assert kernel == as_raw(forced(_fpbundle.general_lam_and_T(f, bas)), fld)
    assert kernel == forced(dict_lam_and_T(f, bas))
    assert kernel == as_raw(forced(_fpbundle.lam_and_T(f, bas)), fld)


@pytest.mark.parametrize("e,weights", CHAR2, ids=[f"F{2 ** e}-{NAMES[w]}" for e, w in CHAR2])
def test_char2_kernel_matches_both_routes_on_seeded_forms(e, weights):
    ring = RingConfig(field(2, e), weights)
    rng = random.Random(e)
    monos = basis(ring).monomials
    elems = list(ring.field.elements())[1:]
    for seed in range(3):
        # dense (the first seed), 4-term and one-term forms: one term has no pairs
        for f in seeded_forms(ring, 200 * e + seed, seed == 0):
            assert_char2_twins(f)
        # two terms: a single pair
        assert_char2_twins(Polynomial(ring, {m: rng.choice(elems) for m in rng.sample(monos, 2)}))


@pytest.mark.parametrize("weights", [(2, 3, 3), (2, 2, 3, 3), (2, 3, 3, 4)])
def test_char2_kernel_drops_pairs_that_feed_no_cell(weights):
    # in these rings some x^(M_a + M_b) has a residue class that no column reads
    ring = RingConfig(field(2), weights)
    bas = basis(ring)
    assert (bas.tables.pair == bas.m ** 2).any()
    rng = random.Random(len(weights))
    for _ in range(10):
        f = Polynomial(ring, {m: 1 for m in bas.monomials if rng.random() < 0.7} | {bas.monomials[0]: 1})
        assert_char2_twins(f)


@pytest.mark.parametrize("e", [1, 2], ids=["F2", "F4"])
def test_char2_kernel_matches_both_routes_on_the_f2_catalog_rows(e):
    rows = [entry for entry in catalog.all_entries() if entry.p == 2]
    assert rows
    for entry in rows:
        assert_char2_twins(parse_poly(entry.equation, RingConfig(field(2, e), entry.weights)))


def test_char2_bundles_never_reach_the_class_pairing_loop(monkeypatch):
    calls = []
    original = _fpbundle._accumulate_kernel
    monkeypatch.setattr(_fpbundle, "_accumulate_kernel",
                        lambda *args: calls.append(1) or original(*args))
    for e in (1, 2, 3):
        for weights in (QUARTIC, SEXTIC, QUINTIC):
            for f in seeded_forms(RingConfig(field(2, e), weights), e, True):
                bundle(f).T_coords
    assert calls == []
    bundle(parse_poly("x^4+y^4+z^4+w^4", RingConfig(field(3), QUARTIC))).T_coords
    assert calls == [1]  # odd p pairs terms there


# -- the route rule --------------------------------------------------------------


@pytest.fixture
def dict_route_calls(monkeypatch):
    """The number of columns_from_kernel calls, i.e. of dict-route bundles."""
    calls = []
    original = cartier.columns_from_kernel
    monkeypatch.setattr(cartier, "columns_from_kernel",
                        lambda bas, kernel: calls.append(1) or original(bas, kernel))
    return calls


def test_large_primes_take_the_dict_route(dict_route_calls):
    f = parse_poly("x*y*z*w", RingConfig(field(32771), QUARTIC))
    b = bundle(f)
    b.T_coords
    assert dict_route_calls == [1]
    assert b.ops.dtype == object  # exact Python ints in the step matrix
    assert_bundle_matches(b, forced(dict_lam_and_T(f, b.basis)))


@pytest.mark.parametrize("p,e,text", [
    (2, 1, "x^4 + x*y^3 + y*w^3 + z^3*w"),
    (2, 2, "x^4 + x*y^3 + y*w^3 + z^3*w"),
    (3, 2, "x^4+y^4+z^4+w^4"),
], ids=["F2", "F4", "F9"])
def test_f2_and_extensions_take_the_numpy_route(dict_route_calls, p, e, text):
    f = parse_poly(text, RingConfig(field(p, e), QUARTIC))
    bundle(f).T_coords
    assert dict_route_calls == []


def test_a_ring_over_the_byte_budget_takes_the_dict_route(dict_route_calls, monkeypatch):
    ring = RingConfig(field(3), QUARTIC)
    f = parse_poly("x^4+y^4+z^4+w^4", ring)
    bundle(f).T_coords
    assert dict_route_calls == []
    monkeypatch.setattr(_fpbundle, "RING_BYTES_MAX", _fpbundle.ring_bytes(ring, basis(ring).m) - 1)
    b = bundle(f)
    b.T_coords
    assert dict_route_calls == [1]
    assert_bundle_matches(b, as_raw(forced(_fpbundle.lam_and_T(f, basis(ring))), ring.field))


def test_route_rule_reads_the_ring_once_per_basis_size(monkeypatch):
    ring = RingConfig(field(5), QUARTIC)
    assert _fpbundle.admits(ring, 35)
    # a second read of the ring would call these
    monkeypatch.setattr(_fpbundle, "code_width", None)
    monkeypatch.setattr(_fpbundle, "ring_bytes", None)
    assert _fpbundle.admits(ring, 35)
    monkeypatch.setattr(_fpbundle, "RING_BYTES_MAX", 0)
    assert not _fpbundle.admits(ring, 35)  # the budget is read on every call


def test_a_basis_builds_its_ring_tables_once(monkeypatch):
    # a ring no other test uses; the basis keeps its tables for every later bundle and scan
    ring = RingConfig(field(11), (1, 2, 2))
    bas = basis(ring)
    bas.__dict__.pop("tables", None)
    built = []
    init = _fpbundle.RingTables.__init__
    monkeypatch.setattr(_fpbundle.RingTables, "__init__", lambda t, b: built.append(b) or init(t, b))
    for index in (0, 1):
        bundle(bas.polynomial(scan.sample(5, index, ring)))
    scan.run_scan(scan.ScanJob(ring=ring, count=3, seed=7))
    assert built == [bas]
    assert basis(ring).tables is basis(ring).tables
    assert basis(RingConfig(field(11), QUARTIC)).tables is not bas.tables


@pytest.mark.parametrize("p", [2, 3])
def test_ring_tables_fit_their_closed_form(p):
    for weights in (QUARTIC, SEXTIC, QUINTIC):
        ring = RingConfig(field(p), weights)
        bas = basis(ring)
        built = sum(v.nbytes for v in vars(bas.tables).values()
                    if isinstance(v, np.ndarray))
        assert built <= _fpbundle.ring_bytes(ring, bas.m)


def test_route_rule_builds_no_array(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"the route rule touched numpy.{name}")

    monkeypatch.setattr(_fpbundle, "np", NoNumpy())
    # octics in eight variables: m = C(15, 7), and the m^2 int32 cells alone are 165 MB
    octic, m = RingConfig(field(3), (1,) * 8), math.comb(15, 7)
    assert _fpbundle.ring_bytes(octic, m) > 4 * m * m > _fpbundle.RING_BYTES_MAX
    assert not _fpbundle.admits(octic, m)
    assert _fpbundle.admits(RingConfig(field(7), QUARTIC), 35)
    assert _fpbundle.admits(RingConfig(field(2, 2), QUARTIC), 35)
    assert _fpbundle.admits(RingConfig(field(3, 2), QUARTIC), 35)
    assert _fpbundle.admits(RingConfig(field(2), QUARTIC), 35)
    # p < 2^15, but four 17-bit exponent fields of degree 4p exceed 62 bits
    assert not _fpbundle.admits(RingConfig(field(32749), QUARTIC), 35)
    # binary forms fit the codes; a GR(p^2, e) product sums e^2 values below
    # (p^2 - 1)^2, which overflows int64 at e = 3 but not at e = 2
    p = 32749
    square = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    cube = next(a for a in range(2, p) if pow(a, (p - 1) // 3, p) != 1)
    assert 4 * (p * p - 1) ** 2 < 2**63 <= 9 * (p * p - 1) ** 2
    assert _fpbundle.admits(RingConfig(field(p, 2, (p - square, 0, 1)), (1, 1)), 3)
    assert not _fpbundle.admits(RingConfig(field(p, 3, (p - cube, 0, 0, 1)), (1, 1)), 3)


# -- T on demand: a walk that stops at R_1 builds no T ----------------------------


@pytest.fixture
def T_builds(monkeypatch):
    """The T builds made, by name: the odd-p kernel loop, the p = 2 pair sum, the dict route's columns."""
    calls = []
    for owner, name in ((_fpbundle, "_accumulate_kernel"), (_fpbundle, "_pair_sum"),
                        (cartier, "columns_from_kernel")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, name=name, original=original: calls.append(name) or original(*args))
    return calls


def lazy_forms(ring):
    """The diagonal and cyclic forms and six samples; one-term quartics only where p >= 2^15."""
    if ring.field.p >= 1 << 15:  # f^(p-2) has one term there
        return [parse_poly(text, ring) for text in ("x*y*z*w", "x^4", "x^2*y*w") if ring.weights == QUARTIC]
    samples = (basis(ring).polynomial(scan.sample(30, index, ring)) for index in range(6))
    return [parse_poly(text, ring) for text in DIAGONAL[ring.weights]] + [f for f in samples if len(f) > 1]


LAZY = [(3, 1, "numpy"), (5, 1, "numpy"), (7, 1, "numpy"), (2, 2, "numpy"), (3, 2, "numpy"),
        (3, 1, "dict"), (32771, 1, "dict")]


@pytest.mark.parametrize("p,e,route", LAZY, ids=[f"F{p ** e}-{route}" for p, e, route in LAZY])
def test_a_walk_that_stops_at_the_first_row_builds_no_T(T_builds, monkeypatch, p, e, route):
    if route == "dict" and p < 1 << 15:
        monkeypatch.setattr(_fpbundle, "RING_BYTES_MAX", 0)
    kinds = []
    for weights in (QUARTIC, SEXTIC):
        ring = RingConfig(field(p, e), weights)
        assert _fpbundle.admits(ring, basis(ring).m) == (route == "numpy")
        for f in lazy_forms(ring):
            T_builds.clear()
            b = bundle(f)
            h, ns = cartier.height(b), cartier.ns_index(b)
            report = cartier.artin_report(f)
            assert (repr(report.height), repr(report.ns)) == (repr(h), repr(ns))
            kind = "height 1" if h == 1 else "lambda 0" if ns == 1 else "walked"
            kinds.append(kind)
            # a walk past R_1 builds T once for b and once for the report's own bundle
            assert len(T_builds) == (0 if kind != "walked" else 2), kind
            b.T_coords
            b.T_mat
            assert len(T_builds) == (1 if kind != "walked" else 2), kind  # the build is seen
    assert "height 1" in kinds and ("lambda 0" in kinds or p == 2)
    assert "walked" in kinds or p >= 1 << 15


@pytest.mark.parametrize("name", ["f2-sigma9", "f3-sigma5"])
def test_a_supersingular_row_builds_T_once_per_command(T_builds, capsys, name):
    entry = next(entry for entry in catalog.all_entries() if entry.name == name)
    ring = ["-p", str(entry.p), "--weights", ",".join(map(str, entry.weights))]
    built = []
    for command in (["artin"], ["lift", "--random", "20", "--seed", "7"], ["lift", "--find-infinite"]):
        before = len(T_builds)
        assert cli.main(command[:1] + ring + [entry.equation] + command[1:]) == 0
        built.append(len(T_builds) - before)
    capsys.readouterr()
    assert built == [1, 1, 1]
