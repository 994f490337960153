"""The numpy route of bundle() against the dict route over F_p and F_{p^e}, and the route rule."""

import math
import random

import pytest

from qfsplit import _fpbundle, cartier, catalog, delsarte
from qfsplit.cartier import basis, bundle, dict_lam_and_T
from qfsplit.ffield import field
from qfsplit.polyring import Polynomial, RingConfig, parse_poly

QUARTIC, SEXTIC, QUINTIC = (1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 1, 1, 1)
# forms whose lambda vanishes at some of p = 3, 5, 7 (ns = 1 there)
DIAGONAL = {
    QUARTIC: ("x^4+y^4+z^4+w^4", "x^3y+y^3z+z^3w+w^3x"),
    SEXTIC: ("x^6+y^6+z^6+w^2", "x^5y+y^5z+z^5x+w^2"),
    QUINTIC: ("x^5+y^5+z^5+w^5+u^5", "x^4y+y^4z+z^4w+w^4u+u^4x"),
}


def assert_twins(f):
    """Both routes give the same raw lambda and T, and bundle() returns them.

    bundle() takes the numpy route for every input here except over F_2.
    """
    bas = basis(f.ring)
    assert _fpbundle.admits(f.ring, bas.m) == (f.ring.field.order > 2)
    lam, T = _fpbundle.lam_and_T(f, bas)
    assert (lam, T) == dict_lam_and_T(f, bas)
    b = bundle(f)
    assert (b.lam, b.T, b.v_f) == (lam, T, bas.coefficients(f))
    return lam


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


# -- the route rule --------------------------------------------------------------


@pytest.fixture
def dict_route_calls(monkeypatch):
    """The number of columns_from_kernel calls, i.e. of dict-route bundles."""
    calls = []
    original = cartier.columns_from_kernel
    monkeypatch.setattr(cartier, "columns_from_kernel",
                        lambda bas, kernel: calls.append(1) or original(bas, kernel))
    return calls


@pytest.mark.parametrize("p,e,text", [
    (2, 1, "x^4 + x*y^3 + y*w^3 + z^3*w"),  # F_2, for now (see bundle())
    (32771, 1, "x*y*z*w"),
])
def test_extensions_and_large_primes_take_the_dict_route(dict_route_calls, p, e, text):
    f = parse_poly(text, RingConfig(field(p, e), QUARTIC))
    bundle(f)
    assert dict_route_calls == [1]


@pytest.mark.parametrize("p,e,text", [
    (2, 2, "x^4 + x*y^3 + y*w^3 + z^3*w"),
    (3, 2, "x^4+y^4+z^4+w^4"),
])
def test_extensions_take_the_numpy_route(dict_route_calls, p, e, text):
    f = parse_poly(text, RingConfig(field(p, e), QUARTIC))
    bundle(f)
    assert dict_route_calls == []


def test_a_ring_over_the_byte_budget_takes_the_dict_route(dict_route_calls, monkeypatch):
    ring = RingConfig(field(3), QUARTIC)
    f = parse_poly("x^4+y^4+z^4+w^4", ring)
    bundle(f)
    assert dict_route_calls == []
    monkeypatch.setattr(_fpbundle, "RING_BYTES_MAX", _fpbundle.ring_bytes(ring, basis(ring).m) - 1)
    b = bundle(f)
    assert dict_route_calls == [1]
    assert (b.lam, b.T) == _fpbundle.lam_and_T(f, basis(ring))


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
    assert not _fpbundle.admits(RingConfig(field(2), QUARTIC), 35)
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
