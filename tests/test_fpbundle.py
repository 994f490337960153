"""Which bundle route a form takes and what each route builds: the route rule, the
per-ring tables, and T on demand.

Whether the routes agree is checked by ``test_registry.py``, where every
producer of lambda and T is registered with the inputs it accepts; the corpus
groups that replaced this file's route twins are bound here under the twins'
test ids.  The rest of this file checks which route ``cartier.bundle`` runs,
that the rule reads the ring once and builds nothing, and that a bundle whose
walk stops at R_1 never builds T.
"""

import math

import numpy as np
import pytest

from qfsplit import _fibers, _fpbundle, cartier, catalog, cli, delsarte, scan
from qfsplit.cartier import basis, bundle
from qfsplit.errors import ResourceError
from qfsplit.ffield import field
from qfsplit.polyring import RingConfig, parse_poly

from _support import DIAGONAL, QUARTIC, QUINTIC, SEXTIC, seeded_forms
from test_registry import corpus_test

# the routes agree: the registry's corpus groups that replaced this file's twins, under their ids
test_routes_agree_on_seeded_forms = corpus_test("test_routes_agree_on_seeded_forms")
test_routes_agree_on_diagonal_and_cyclic_forms = corpus_test("test_routes_agree_on_diagonal_and_cyclic_forms")
test_routes_agree_on_every_catalog_row = corpus_test("test_routes_agree_on_every_catalog_row")
test_routes_agree_on_delsarte_families = corpus_test("test_routes_agree_on_delsarte_families")
test_routes_agree_on_one_term_forms = corpus_test("test_routes_agree_on_one_term_forms")
test_routes_agree_at_small_block_sizes = corpus_test("test_routes_agree_at_small_block_sizes")
test_routes_agree_on_seeded_forms_over_extensions = corpus_test("test_routes_agree_on_seeded_forms_over_extensions")
test_routes_agree_on_a_dense_quartic_over_an_extension = corpus_test(
    "test_routes_agree_on_a_dense_quartic_over_an_extension")
test_routes_agree_on_every_catalog_row_over_the_quadratic_extension = corpus_test(
    "test_routes_agree_on_every_catalog_row_over_the_quadratic_extension")
test_routes_agree_on_delsarte_families_over_the_quadratic_extension = corpus_test(
    "test_routes_agree_on_delsarte_families_over_the_quadratic_extension")
test_char2_kernel_matches_both_routes_on_seeded_forms = corpus_test(
    "test_char2_kernel_matches_both_routes_on_seeded_forms")
test_char2_kernel_drops_pairs_that_feed_no_cell = corpus_test("test_char2_kernel_drops_pairs_that_feed_no_cell")
test_char2_kernel_matches_both_routes_on_the_f2_catalog_rows = corpus_test(
    "test_char2_kernel_matches_both_routes_on_the_f2_catalog_rows")


# -- p = 2: T as a quadratic form in the coefficient vector ---------------------


def test_char2_bundles_never_reach_the_class_pairing_loop(monkeypatch):
    monkeypatch.setattr(_fibers, "COMPOSITIONS_MAX", 0)  # the positive control: past the budget, products
    calls = []
    original = _fpbundle._accumulate_kernel
    monkeypatch.setattr(_fpbundle, "_accumulate_kernel",
                        lambda *args: calls.append(1) or original(*args))
    for e in (1, 2, 3):
        for weights in (QUARTIC, SEXTIC, QUINTIC):
            for f in seeded_forms(RingConfig(field(2, e), weights), e, True):
                bundle(f).T_coords
    assert calls == []
    bundle(parse_poly(FIVE_TERMS, RingConfig(field(3), QUARTIC))).T_coords
    assert calls == [1]  # odd p pairs terms there


# -- the route rule --------------------------------------------------------------

# five terms in four variables: a rank-deficient exponent matrix, whose fibers the route
# enumerates (70 compositions at p = 3, 495 at p = 5)
FIVE_TERMS = "x^4+y^4+z^4+w^4+x*y*z*w"


@pytest.fixture
def dict_route_calls(monkeypatch):
    """The number of columns_from_kernel calls, i.e. of dict-route bundles."""
    calls = []
    original = cartier.columns_from_kernel
    monkeypatch.setattr(cartier, "columns_from_kernel",
                        lambda bas, kernel: calls.append(1) or original(bas, kernel))
    return calls


def test_large_primes_take_the_dict_route(dict_route_calls):
    # 2^31 - 1 is past the fiber route's table budget as well as the numpy route's 2^15
    f = parse_poly("x*y*z*w", RingConfig(field(2**31 - 1), QUARTIC))
    b = bundle(f)
    b.T_coords
    assert dict_route_calls == [1]
    assert b.ops.dtype == object  # exact Python ints in the step matrix


@pytest.mark.parametrize("p,e,text", [
    (3, 1, "x^4+y^4+z^4+w^4"),
    (7, 2, "x^3*y+y^3*z+z^3*w+w^3*x"),
    (11, 1, "x^4+y^3*z"),
    (32771, 1, "x*y*z*w"),
    (8191, 2, "x^4+(t)*y^4+z^4+w^4"),
])
def test_full_rank_supports_take_the_fiber_route(dict_route_calls, T_builds, p, e, text):
    f = parse_poly(text, RingConfig(field(p, e), QUARTIC))
    assert cartier.route(f, basis(f.ring)) is _fibers.lam_and_T
    bundle(f).T_coords
    assert (dict_route_calls, T_builds) == ([], ["_build_T"])


@pytest.mark.parametrize("p,text", [
    (2, "x^4+y^4+z^4+w^4"),  # p = 2 keeps its quadratic form
    (3, FIVE_TERMS),  # more terms than variables
    (5, "x^4+y^4+x^2*y^2+z^4"),  # four terms of rank 3
])
def test_other_supports_take_the_product_routes(monkeypatch, p, text):
    monkeypatch.setattr(_fibers, "COMPOSITIONS_MAX", 0)  # past the budget, products
    f = parse_poly(text, RingConfig(field(p), QUARTIC))
    assert not _fibers.admits(f, basis(f.ring))
    produce = _fpbundle.char2_lam_and_T if p == 2 else _fpbundle.general_lam_and_T
    assert cartier.route(f, basis(f.ring)) is produce


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)], ids=["F3", "F5", "F9"])
def test_sparse_supports_of_any_rank_take_the_fiber_route(p, e):
    # the F_3 catalog rows over F_3 and F_9 (35 to 715 compositions), and FIVE_TERMS at 5 too;
    # at p = 5 the rows of 8 to 10 terms have 6435 to 24310 and stay on the products
    ring = RingConfig(field(p, e), QUARTIC)
    texts = [FIVE_TERMS] + [entry.equation for entry in catalog.all_entries() if entry.p == 3 and p == 3]
    assert len(texts) == (1 if p == 5 else 11)
    for text in texts:
        assert cartier.route(parse_poly(text, ring), basis(ring)) is _fibers.lam_and_T, text


@pytest.mark.parametrize("p,weights,terms", [(5, QUARTIC, 28), (5, SEXTIC, 31), (3, QUINTIC, 84)],
                         ids=["quartic-F5", "sextic-F5", "quintic-F3"])
def test_the_dense_workload_shapes_take_the_product_route(p, weights, terms):
    bas = basis(RingConfig(field(p), weights))
    assert terms == bas.m * (p - 1) // p  # the support size the dense benchmark draws
    f = bas.polynomial([1] * terms + [0] * (bas.m - terms))
    assert cartier.route(f, bas) is _fpbundle.general_lam_and_T


@pytest.mark.parametrize("p", [3, 5, 32749, 32771, 1000003])
def test_factorial_tables_match_a_scalar_loop(p):
    u, inv = _fibers.factorials(p)
    mod, acc, want = p * p, 1, []
    for k in range(2 * p - 1):
        if k not in (0, p):
            acc = acc * k % mod
        want.append(acc)
    assert u.dtype == inv.dtype == np.int64 and u.tolist() == want
    assert all(a * b % mod == 1 for a, b in zip(want, inv.tolist()))


def test_a_prime_over_the_table_budget_leaves_the_fiber_route(monkeypatch):
    f = parse_poly("x^4+y^4+z^4+w^4", RingConfig(field(5), QUARTIC))
    assert _fibers.admits(f, basis(f.ring))
    monkeypatch.setattr(_fibers, "FACTORIAL_BYTES_MAX", _fibers.table_bytes(5) - 1)
    assert cartier.route(f, basis(f.ring)) is _fpbundle.general_lam_and_T
    # 2^20 - 3 is the largest prime whose tables fit the default budget
    monkeypatch.undo()
    assert _fibers.table_bytes(2**20 - 3) <= _fibers.FACTORIAL_BYTES_MAX < _fibers.table_bytes(2**20 + 7)


@pytest.fixture
def no_dict_route(monkeypatch):
    """The dict route raises at once: the inputs past the fiber tables' budget would not finish on it."""
    def refuse(f, bas):
        raise AssertionError("the dict route was taken")
    monkeypatch.setattr(cartier, "dict_lam_and_T", refuse)


# 2^20 + 7, the least prime whose fiber tables exceed their budget
PAST_THE_TABLES = 1048583


@pytest.mark.parametrize("text", ["x^4+y^4+z^4+w^4", "x^4+y^3*z", "x^3*y+y^3*z+z^3*w+w^3*x"])
def test_full_rank_forms_past_the_fiber_tables_are_refused(no_dict_route, text):
    f = parse_poly(text, RingConfig(field(PAST_THE_TABLES), QUARTIC))
    assert _fibers.solvable(f, basis(f.ring)) and not _fibers.admits(f, basis(f.ring))
    # the message names p, the tables' bytes and the budget
    with pytest.raises(ResourceError, match=f"p = {PAST_THE_TABLES} take {_fibers.table_bytes(PAST_THE_TABLES)} "
                                            f"bytes, past its budget of {_fibers.FACTORIAL_BYTES_MAX}"):
        cartier.route(f, basis(f.ring))


def test_the_cli_exits_3_past_the_fiber_tables(no_dict_route, capsys):
    code = cli.main(["height", "-p", str(PAST_THE_TABLES), "x^4+y^4+z^4+w^4"])
    err = capsys.readouterr().err
    assert code == 3 and "resource error" in err and str(_fibers.FACTORIAL_BYTES_MAX) in err


@pytest.mark.parametrize("p,e,text", [
    (2, 1, "x^4 + x*y^3 + y*w^3 + z^3*w"),
    (2, 2, "x^4 + x*y^3 + y*w^3 + z^3*w"),
    (3, 2, FIVE_TERMS),
], ids=["F2", "F4", "F9"])
def test_f2_and_extensions_take_the_numpy_route(dict_route_calls, monkeypatch, p, e, text):
    monkeypatch.setattr(_fibers, "COMPOSITIONS_MAX", 0)  # past the budget, products
    f = parse_poly(text, RingConfig(field(p, e), QUARTIC))
    assert cartier.route(f, basis(f.ring)) is (_fpbundle.char2_lam_and_T if p == 2 else _fpbundle.general_lam_and_T)
    bundle(f).T_coords
    assert dict_route_calls == []


def test_a_ring_over_the_byte_budget_takes_the_dict_route(dict_route_calls, monkeypatch):
    ring = RingConfig(field(3), QUARTIC)
    f = parse_poly(FIVE_TERMS, ring)
    bundle(f).T_coords
    assert dict_route_calls == []
    monkeypatch.setattr(_fpbundle, "RING_BYTES_MAX", _fpbundle.ring_bytes(ring, basis(ring).m) - 1)
    bundle(f).T_coords
    assert dict_route_calls == [1]


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
    """The T builds made, by name: the odd-p kernel loop, the p = 2 pair sum, the dict route's
    columns, the fiber route's cells."""
    calls = []
    for owner, name in ((_fpbundle, "_accumulate_kernel"), (_fpbundle, "_pair_sum"),
                        (cartier, "columns_from_kernel"), (_fibers, "_build_T")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, name=name, original=original: calls.append(name) or original(*args))
    return calls


def lazy_forms(ring, route):
    """The diagonal and cyclic forms and six samples; one-term quartics only where p >= 2^15.
    On the fiber route: the one-term quartics and the Delsarte families of the ring."""
    one_term = [parse_poly(text, ring) for text in ("x*y*z*w", "x^4", "x^2*y*w") if ring.weights == QUARTIC]
    if route == "fibers":
        return one_term + [parse_poly(r.equation, ring) for r in delsarte.builtin_families() if r.weights == ring.weights]
    if ring.field.p >= 1 << 15:  # f^(p-2) has one term there
        return one_term
    samples = (basis(ring).polynomial(scan.sample(30, index, ring)) for index in range(6))
    return [parse_poly(text, ring) for text in DIAGONAL[ring.weights]] + [f for f in samples if len(f) > 1]


LAZY = [(3, 1, "numpy"), (5, 1, "numpy"), (7, 1, "numpy"), (2, 2, "numpy"), (3, 2, "numpy"),
        (3, 1, "dict"), (32771, 1, "dict"), (5, 1, "fibers"), (7, 2, "fibers"), (32771, 1, "fibers")]


@pytest.mark.parametrize("p,e,route", LAZY, ids=[f"F{p ** e}-{route}" for p, e, route in LAZY])
def test_a_walk_that_stops_at_the_first_row_builds_no_T(T_builds, monkeypatch, p, e, route):
    if route == "numpy":
        monkeypatch.setattr(_fibers, "FACTORIAL_BYTES_MAX", 0)
    if route == "dict":  # the rule sends it no full-rank form of 2 to n terms: take it by hand
        monkeypatch.setattr(cartier, "route", lambda f, bas: cartier.dict_lam_and_T)
    produce = {"fibers": _fibers.lam_and_T, "dict": cartier.dict_lam_and_T,
               "numpy": _fpbundle.char2_lam_and_T if p == 2 else _fpbundle.general_lam_and_T}[route]
    kinds = []
    for weights in (QUARTIC, SEXTIC):
        ring = RingConfig(field(p, e), weights)
        for f in lazy_forms(ring, route):
            assert cartier.route(f, basis(ring)) is produce
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
