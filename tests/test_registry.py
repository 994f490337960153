"""The registry of every producer of (lambda, T) and every Krylov backend, and the one
check that they agree.

:data:`PRODUCERS` and :data:`BACKENDS` list each with the inputs it accepts, and
:func:`check` runs every entry that accepts a case against the reference of its
kind: lambda and T against the dict route, or against the numpy route where a case
names it (``Case.reference``, at p where the dict route takes seconds), as is
``cartier.bundle``'s bundle (``Case.routes``), whose step matrix is checked against
one built entry by entry from T; height, ns, Krylov rows and rank profiles against ``GenericOps``
(``Case.rows``); lift indices against each shift walked alone on
``GenericOps`` (``Case.lifts``).
:data:`CORPUS` files groups of seeded cases, each with what its draws must
exercise, under the test that checks them: the groups that replaced
hand-written twins keep the twins' test ids in ``test_fpbundle.py`` and
``test_linalg.py``.  A derandomized ``hypothesis`` property draws more cases,
and ``sweeps/`` runs a larger corpus and more examples.  A new producer or
backend lands as one more entry, with a group that feeds it.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import lru_cache
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfsplit import _fibers, _fpbundle, _linalg, cartier, catalog, delsarte
from qfsplit.cartier import FrobeniusBundle, basis, height, ns_index
from qfsplit.errors import UsageError
from qfsplit.ffield import Field, field
from qfsplit.lifts import infinite_lift, ns_lift, t_shifted
from qfsplit.polyring import Polynomial, RingConfig, parse_poly
from qfsplit.values import Infinite, is_infinite

from _support import (DIAGONAL, NAMES, QUARTIC, QUINTIC, SEXTIC, finite_lift, krylov_matrix, lift_index_reference,
                      random_element, random_forms, random_unit, seeded_forms, step_matrix_array,
                      step_matrix_reference)

# -- the registry -------------------------------------------------------------------


def _route(owner, name: str) -> Callable:
    """f -> f's bundle on the route ``owner.name``, looked up when called."""
    return lambda f: FrobeniusBundle(basis(f.ring), f, *getattr(owner, name)(f, basis(f.ring)))


def _ring_admits(f: Polynomial) -> bool:
    return _fpbundle.admits(f.ring, basis(f.ring).m)


def label_of(produce: Callable) -> str:
    """The registry label of a producer, such as ``cartier.route`` returns."""
    return f"{produce.__module__.rpartition('.')[2]}.{produce.__name__}"


# label -> (f -> f's bundle, f -> whether it accepts f), each domain as cartier.route
# sends it (the general route also takes the full-rank forms it is a reference for);
# the first is the reference unless a case names another.  cartier.bundle, which
# dispatches to one of them, is checked on every form
PRODUCERS = {
    "cartier.dict_lam_and_T": (_route(cartier, "dict_lam_and_T"), lambda f: True),
    "_fpbundle.general_lam_and_T": (_route(_fpbundle, "general_lam_and_T"),
                                    lambda f: f.ring.field.p != 2 and len(f) >= 2 and _ring_admits(f)),
    "_fpbundle.char2_lam_and_T": (_route(_fpbundle, "char2_lam_and_T"),
                                  lambda f: f.ring.field.p == 2 and _ring_admits(f)),
    "_fibers.lam_and_T": (_route(_fibers, "lam_and_T"), lambda f: _fibers.admits(f, basis(f.ring))),
}
DICT_ROUTE = "cartier.dict_lam_and_T"
NUMPY_ROUTE = "_fpbundle.general_lam_and_T"
# label -> (F -> the backend over F, F -> whether it accepts F); every backend but
# the reference has the batched lift step that lifts.ns_lift drives
BACKENDS = {
    "make_ops": (lambda fld: _linalg.make_ops(fld), lambda fld: True),
    "PrimeOps": (lambda fld: _linalg.PrimeOps(fld), lambda fld: fld.p == 2),  # make_ops(F) at odd p
    "GenericOps": (lambda fld: _linalg.GenericOps(fld), lambda fld: True),
}
REFERENCE_BACKEND = "GenericOps"

# -- the check ----------------------------------------------------------------------

# A form f for every producer (for cartier.bundle alone if not routes); with lam_T, a
# synthetic bundle of f's v_f and that raw lambda and T, which no producer makes.  block
# is the BLOCK of _fpbundle and _fibers while the producers run; rows and lifts run the
# backends.  reference names the producer the others are compared with, where the dict
# route would take seconds a form (large p); the dict route is then left out.
Case = namedtuple("Case", "f lam_T block routes rows lifts reference",
                  defaults=(None, None, True, False, False, DICT_ROUTE))
RankCase = namedtuple("RankCase", "field rows")  # raw rows over field, for the rank trackers alone


def selection(case: Case | RankCase) -> tuple:
    """The labels of the producers and of the backends :func:`check` runs on ``case``."""
    if isinstance(case, RankCase):
        return (), tuple(k for k, (_, accepts) in BACKENDS.items() if accepts(case.field))
    ring = case.f.ring
    producers = (case.reference,) + tuple(k for k, (_, accepts) in PRODUCERS.items()
                                          if accepts(case.f) and k not in (case.reference, DICT_ROUTE))
    walks = case.rows or case.lifts
    backends = tuple(k for k, (_, ok) in BACKENDS.items() if walks and ok(ring.field))
    return producers if case.routes and not case.lam_T else (), backends


@lru_cache(maxsize=256)
def _reference(f: Polynomial, label: str) -> tuple:
    """f's lambda and T on the reference producer, once per form: groups share forms."""
    assert PRODUCERS[label][1](f), label
    b = PRODUCERS[label][0](f)
    return b.lam_coords, b.T_coords


def check(case: Case | RankCase) -> FrobeniusBundle | None:
    """Every producer and backend that accepts ``case`` agrees with the reference; returns
    the bundle.  Raw values are coordinates, so lambda and T are compared as arrays."""
    producers, backends = selection(case)
    if isinstance(case, RankCase):
        return _check_ranks({k: BACKENDS[k][0](case.field) for k in backends}, case.rows)
    f, bas = case.f, basis(case.f.ring)
    if case.lam_T:
        b = FrobeniusBundle(bas, f, *case.lam_T)
    else:
        b = cartier.bundle(f)
        assert b.v_f is bas.coefficients(f) and b.ops is _linalg.make_ops(f.ring.field)
    if producers:
        lam, T = _reference(f, producers[0])
        with pytest.MonkeyPatch.context() as mp:
            if case.block:
                mp.setattr(_fpbundle, "BLOCK", case.block)
                mp.setattr(_fibers, "BLOCK", case.block)
                bas.fibers.plan.cache_clear()  # so that the fiber route joins its cells at this block
            for label in producers[1:]:
                made = PRODUCERS[label][0](f)
                assert np.array_equal(made.lam_coords, lam) and np.array_equal(made.T_coords, T), label
        assert np.array_equal(b.lam_coords, lam) and np.array_equal(b.T_coords, T), "cartier.bundle"
        # the producer production takes is one of those compared
        assert label_of(cartier.route(f, bas)) in producers, "cartier.route"
    assert np.array_equal(step_matrix_array(b, b.T_mat), step_matrix_reference(b.ops, b.T_coords))
    if backends:
        rng = random.Random(b.v_f.tobytes() + b.lam_coords.tobytes())
        twins = {k: FrobeniusBundle(bas, f, b.lam_coords, lambda: b.T_coords, ops=BACKENDS[k][0](f.ring.field))
                 for k in backends}
        ref = twins.pop(REFERENCE_BACKEND)
        if case.rows:
            _check_rows(ref, twins, rng)
        if case.lifts:
            _check_lifts(ref, twins, ns_index(b), rng)
    return b


ROWS = 12  # the first Krylov rows compared, plain and shifted


def random_shift(fld: Field, m: int, rng: random.Random) -> list:
    return [random_element(fld, rng) if rng.random() < 0.3 else fld.zero for _ in range(m)]


def combination(fld: Field, coeffs: list, rows: list) -> list:
    """sum_i coeffs[i] rows[i] over F_q, on raw values."""
    out = [fld.zero] * len(rows[0])
    for a, row in zip(coeffs, rows):
        out = [fld.add(x, fld.mul(a, y)) for x, y in zip(out, row)]
    return out


def _check_ranks(ops: dict, rows) -> None:
    """Each backend's rank tracker gives the reference's rank on every prefix of the raw rows."""
    profiles = {}
    for label, x in ops.items():
        tracker, profiles[label] = x.rank_tracker(), []
        for row in rows:
            tracker.add_row(x.row(row))
            profiles[label].append(tracker.rank)
    reference = profiles.pop(REFERENCE_BACKEND)
    assert all(profile == reference for profile in profiles.values()), profiles


def _check_rows(ref: FrobeniusBundle, twins: dict, rng: random.Random) -> None:
    """Height, ns, the first Krylov rows, plain and shifted, and rank profiles against ``ref``;
    the profiles also read F_q-combinations of the rows, so F_q-dependencies occur."""
    fld = ref.field
    c = random_shift(fld, ref.m, rng)
    rows = krylov_matrix(ref, ROWS)
    shifted = krylov_matrix(ref, ROWS, t_shifted(ref, c))
    walked = (repr(height(ref)), repr(ns_index(ref)))
    for label, tb in twins.items():
        assert (repr(height(tb)), repr(ns_index(tb))) == walked, label
        assert krylov_matrix(tb, ROWS) == rows and krylov_matrix(tb, ROWS, t_shifted(tb, c)) == shifted, label
    combinations = [combination(fld, [random_element(fld, rng) for _ in range(3)], rng.sample(rows, 3))
                    for _ in range(4)]
    _check_ranks({REFERENCE_BACKEND: ref.ops} | {k: tb.ops for k, tb in twins.items()}, rows + combinations)


def _check_lifts(ref: FrobeniusBundle, twins: dict, ns, rng: random.Random) -> None:
    """Over an infinite height (finite ``ns``), ``lifts.ns_lift`` on every backend against
    :func:`lift_index_reference`, each shift walked alone to m + 1 rows on ``ref``; else no
    lift is constructed.  ``GenericOps`` has no batched step: it walks lambda = 0 too."""
    if is_infinite(ns):
        for tb in twins.values():
            with pytest.raises(UsageError):
                infinite_lift(tb)
        return
    lifts = [infinite_lift(tb) for tb in twins.values()]
    inf = lifts[0]
    assert all(v == inf for v in lifts), lifts
    assert inf is None or is_infinite(lift_index_reference(ref, inf))
    shifts = [random_shift(ref.field, ref.m, rng) for _ in range(2)]
    expected = [lift_index_reference(ref, s) for s in shifts]
    if ns >= 2:  # lambda != 0
        shifts.append(finite_lift(ref, ns))
        expected.append(ns)
    if inf is not None:
        shifts.append(inf)
        expected.append(Infinite(cap=ref.m + 1))
    for label, tb in twins.items():
        assert [repr(v) for v in ns_lift(tb, shifts)] == [repr(v) for v in expected], label
    # lambda = 0: ns = 1, every index 1, no infinite lift
    zero = [FrobeniusBundle(tb.basis, tb.f, np.zeros_like(tb.lam_coords), lambda: ref.T_coords, ops=tb.ops)
            for tb in (ref, *twins.values())]
    assert all(ns_index(z) == 1 and infinite_lift(z) is None for z in zero)
    assert [lift_index_reference(zero[0], s) for s in shifts] == [1] * len(shifts)
    assert all(ns_lift(z, shifts) == [1] * len(shifts) for z in zero[1:])


# -- the corpus ---------------------------------------------------------------------

# seeded cases (built by cases()) under the test parameter ``id`` (None for a test of
# one group), and what their bundles must exercise
Group = namedtuple("Group", "id cases requires", defaults=[lambda bundles: True])


def forms(id: str | None, make: Callable, *args, requires=lambda bundles: True, **case) -> Group:
    """The group of the :class:`Case` (f, **case) of each f that ``make(*args)`` returns."""
    return Group(id, lambda: [Case(f, **case) for f in make(*args)], requires)


def parsed(texts, ring: RingConfig) -> list:
    return [parse_poly(text, ring) for text in texts]


def delsarte_forms(p: int, e: int, admissible: bool = True) -> list:
    records = [r for r in delsarte.builtin_families() if not admissible or delsarte.admissible_primes(r, [p])]
    return [parse_poly(r.equation, RingConfig(field(p, e), r.weights)) for r in records]


def diagonal_forms(fld: Field) -> list:
    return [f for w, texts in DIAGONAL.items() for f in parsed(texts, RingConfig(fld, w))]


def catalog_forms(e: int, p: int | None = None) -> list:
    return [parse_poly(entry.equation, RingConfig(field(entry.p, e), entry.weights))
            for entry in catalog.all_entries() if p in (None, entry.p)]


def seeded_forms_over(fld: Field, weights: tuple, seed: int, dense: bool) -> list:
    # seeded_forms at three consecutive seeds, with a dense form at the first if asked
    return [f for k in range(3) for f in seeded_forms(RingConfig(fld, weights), seed + k, dense and k == 0)]


def lam_zero_twice(bundles: list) -> bool:
    return sum(not b.lam_coords.any() for b in bundles) >= 2


def every_route(route: Callable) -> Callable:
    """The requirement that ``cartier.bundle`` took ``route`` for every bundle of a group."""
    return lambda bundles: all(cartier.route(b.f, b.basis) is route for b in bundles)


# binomials of both K3 rings, of full rank with t = 2 < n = 4: A x = E is solved on two
# rows of A and the other two are checked
BINOMIALS = {QUARTIC: ["x^4+y^3*z", "x^3*y+C*z^2*w^2", "x^2*y*z+C*w^4", "C*x*y*z*w+x^4", "x*y^2*z+y*w^3"],
             SEXTIC: ["x^6+C*y^5*z", "x^3*y^2*z+w^2", "x^2*y^4+C*z^3*w", "C*x^5*y+x*y*z^4"]}


# seven rank-deficient forms: the Dwork quartic pencil at c = 1 and 3, the Fermat quartic
# plus x^2 y z and plus x^2 y^2, a Klein-type quartic plus 2 x y z w, a sextic and the
# quintic Dwork form; each has more terms than variables
RANK_DEFICIENT = {QUARTIC: ["x^4+y^4+z^4+w^4+x*y*z*w", "x^4+y^4+z^4+w^4+3*x*y*z*w", "x^4+y^4+z^4+w^4+x^2*y*z",
                            "x^4+y^4+z^4+w^4+x^2*y^2", "x^3*y+y^3*z+z^3*w+w^3*x+2*x*y*z*w"],
                  SEXTIC: ["x^6+y^6+z^6+w^2+x^2*y^2*z^2"], QUINTIC: ["x^5+y^5+z^5+w^5+u^5+x*y*z*w*u"]}


def rank_deficient_forms(p: int, e: int) -> list:
    """The forms of :data:`RANK_DEFICIENT` whose fibers fit ``_fibers.COMPOSITIONS_MAX`` over F_(p^e)."""
    forms = [f for w, texts in RANK_DEFICIENT.items() for f in parsed(texts, RingConfig(field(p, e), w))]
    return [f for f in forms if math.comb(2 * p - 3 + len(f), len(f) - 1) <= _fibers.COMPOSITIONS_MAX]


def some_rank_deficient(bundles: list) -> bool:
    return any(np.linalg.matrix_rank(np.array(list(b.f.term_dict()))) < len(b.f) for b in bundles)


def binomials(p: int, e: int = 1) -> list:
    coefficient = "(t+1)" if e > 1 else "3"
    return [f for w, texts in BINOMIALS.items()
            for f in parsed([t.replace("C", coefficient) for t in texts], RingConfig(field(p, e), w))]


def block_forms() -> list:
    out = []
    for p, e in ((3, 1), (5, 1), (3, 2)):
        out += seeded_forms(RingConfig(field(p, e), QUARTIC), 10 * p + e, True)
        out += seeded_forms(RingConfig(field(p, e), SEXTIC), 10 * p + e, False)
    # d = 2 w_min gives the narrowest exponent fields, and at p = 2^(w-1) - 1
    # the guard bit of the class matching has no room to spare
    for p in (3, 7, 31):
        out += parsed(("x^2+x*y+y^2", "x^2+y^2", "x^2+3*x*y"), RingConfig(field(p), (1, 1)))
    return out + delsarte_forms(11, 1)


def char2_forms(e: int, weights: tuple) -> list:
    # seeded forms, dense at the first seed, and a two-term form (a single pair) per seed
    ring = RingConfig(field(2, e), weights)
    rng = random.Random(e)
    out = []
    for seed in range(3):
        out += seeded_forms(ring, 200 * e + seed, seed == 0)
        pair = rng.sample(basis(ring).monomials, 2)
        out.append(Polynomial(ring, {m: rng.choice(list(ring.field.elements())[1:]) for m in pair}))
    return out


def no_cell_forms(weights: tuple) -> list:
    bas = basis(RingConfig(field(2), weights))
    assert (bas.tables.pair == bas.m ** 2).any()  # some x^(M_a + M_b) feeds no cell
    rng = random.Random(len(weights))
    return [Polynomial(bas.ring, {m: 1 for m in bas.monomials if rng.random() < 0.7} | {bas.monomials[0]: 1})
            for _ in range(10)]


def lift_forms(fld: Field) -> list:
    # the infinite-height forms, at least 2 a ring, of every ring at p = 2 and of quartics elsewhere
    out = []
    rings = [(QUARTIC, 20), (SEXTIC, 5), (QUINTIC, 3)] if fld.p == 2 else [(QUARTIC, 20)]
    for k, (weights, count) in enumerate(rings):
        infinite = [f for f in random_forms(fld, weights, count, seed=fld.order + 1000 * k)
                    if is_infinite(height(cartier.bundle(f)))]
        assert len(infinite) >= 2, weights
        out += infinite
    return out


def rank_cases(fld: Field) -> list:
    # twenty row sets, F_q-combinations of a few base rows, so that dependencies over F_q occur
    rng = random.Random(fld.order + 1)
    elems = list(fld.elements())
    cases = []
    for _ in range(20):
        rows_n, cols = rng.randint(1, 7), rng.randint(1, 7)
        base = [[rng.choice(elems) for _ in range(cols)] for _ in range(rng.randint(1, rows_n))]
        rows = [combination(fld, [rng.choice(elems) for _ in base], base) for _ in range(rows_n)]
        cases.append(RankCase(fld, rows))
    return cases


def random_bundles(fld: Field, seed: int) -> list:
    """Synthetic cases, seeded (v_f, lambda, T) on the ternary cubic basis (m = 10): sparse T
    gives rank drops at several n, v_f = 0 an infinite height, v_f off lambda's support a
    height of at least 2, and a weighted shift matrix a height chosen in advance."""
    rng = random.Random(seed)
    bas = basis(RingConfig(fld, (1, 1, 1)))
    m = bas.m

    def vec(density):
        return [random_element(fld, rng) if rng.random() < density else fld.zero for _ in range(m)]

    out = []
    for k in range(8):
        T = [vec((0.1, 0.25, 0.6)[k % 3]) for _ in range(m)]
        lam = vec(0.4)
        lam[rng.randrange(m)] = fld.one  # lambda != 0, so infinite_lift constructs a shift
        v_f = [fld.zero if k % 2 or not fld.is_zero(a) else random_element(fld, rng) for a in lam]
        out.append((v_f, lam, T))
    for h in rng.sample(range(3, m + 1), 2):
        # a weighted shift: R_n is supported on coordinate n - 1, so the height is h
        T = [[fld.zero] * m for _ in range(m)]
        for i in range(m - 1):
            T[i][i + 1] = random_unit(fld, rng)
        lam = [random_unit(fld, rng)] + [fld.zero] * (m - 1)
        out.append(([random_unit(fld, rng) if i == h - 1 else fld.zero for i in range(m)], lam, T))
    return [Case(bas.polynomial(v_f), (lam, lambda T=T: T), rows=True, lifts=True) for v_f, lam, T in out]


# one-term forms: f^(p-2) = c^(p-2) x^((p-2)a) and delta = 0, on the fiber and dict
# routes; the coefficient 3 (t+1 over F_{p^2}) keeps c^(p-2) from being 1
ONE_TERM = ["x*y*z*w", "x^4", "x^2*y*w", "C*x*y^2*z"]
WALK_FIELDS = [field(2), field(3), field(5), field(2, 2), field(2, 3), field(3, 2), field(5, 2)]
# p >= 2^15: PrimeOps holds Python ints.  At 32771 a length-m*e dot product
# still fits int64 for small m; at 2^31 - 1 two products already overflow it.
LARGE_FIELDS = [field(32771), field(2**31 - 1), field(32771, 2)]
# the Delsarte families against the numpy route: larger p run in sweeps/
FIBER_PRIMES = [(11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (11, 2), (13, 2)]

# test name -> its groups
CORPUS = {
    # a dense quintic at p >= 5 takes the dict route seconds, so those are sparse only
    "test_routes_agree_on_seeded_forms": [
        forms(f"F{p}-{NAMES[w]}{'-dense' * dense}", seeded_forms_over, field(p), w, 100 * p, dense)
        for p in (2, 3, 5, 7) for w in (QUARTIC, SEXTIC, QUINTIC) for dense in [p < 5 or w != QUINTIC]],
    # lambda = 0 occurs at every one of these p
    "test_routes_agree_on_diagonal_and_cyclic_forms": [
        forms(str(p), diagonal_forms, field(p), requires=lam_zero_twice) for p in (3, 5, 7)],
    "test_routes_agree_on_every_catalog_row": [forms(None, catalog_forms, 1)],
    "test_routes_agree_on_delsarte_families": [forms(str(p), delsarte_forms, p, 1) for p in (2, 3, 5, 7)],
    # x*y*z*w reads lambda at (p-2)(1, 1, 1, 1) + (1, 1, 1, 1); x^4 leaves it 0
    "test_routes_agree_on_one_term_forms": [
        forms(f"F{p}^{e}", parsed, [t.replace("C", "(t+1)" if e > 1 else "3") for t in ONE_TERM],
              RingConfig(field(p, e), QUARTIC),
              requires=lambda bundles: [bool(b.lam_coords.any()) for b in bundles[:2]] == [True, False])
        for p, e in [(11, 1), (97, 1), (997, 1), (4093, 1), (8191, 1), (3, 2), (5, 2), (7, 2), (11, 2)]],
    # at BLOCK 1 every product block is one term of fhat, every kernel row is
    # split and every pair is its own block; at 7 and 64 rows straddle blocks
    "test_routes_agree_at_small_block_sizes": [
        forms(str(n), block_forms, block=n) for n in (1, 7, 64)],
    "test_routes_agree_on_seeded_forms_over_extensions": [
        forms(f"F{p ** e}", lambda p, e: [f for w in (QUARTIC, SEXTIC)
                                          for f in seeded_forms_over(field(p, e), w, 1000 * p + 10 * e, False)], p, e)
        for p, e in [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)]],
    "test_routes_agree_on_a_dense_quartic_over_an_extension": [
        forms(f"F{p * p}", lambda p: seeded_forms(RingConfig(field(p, 2), QUARTIC), 7, True)[:1], p,
              requires=lambda bundles: len(bundles[0].f) >= 20) for p in (2, 3)],
    "test_routes_agree_on_every_catalog_row_over_the_quadratic_extension": [forms(None, catalog_forms, 2)],
    "test_routes_agree_on_delsarte_families_over_the_quadratic_extension": [
        forms(str(p), delsarte_forms, p, 2) for p in (2, 3, 5, 7)],
    # the char2 kernel against the dict route, the only other producer at p = 2 (the
    # ids, which the test-id floor lists, still say "both routes")
    "test_char2_kernel_matches_both_routes_on_seeded_forms": [
        forms(f"F{2 ** e}-{NAMES[w]}", char2_forms, e, w) for e in (1, 2, 3) for w in (QUARTIC, SEXTIC, QUINTIC)],
    "test_char2_kernel_drops_pairs_that_feed_no_cell": [
        forms(f"weights{k}", no_cell_forms, w) for k, w in enumerate([(2, 3, 3), (2, 2, 3, 3), (2, 3, 3, 4)])],
    "test_char2_kernel_matches_both_routes_on_the_f2_catalog_rows": [
        forms(f"F{2 ** e}", catalog_forms, e, 2) for e in (1, 2)],
    # the K3 rings over every field, and at p = 2 the quintic threefold ring, whose walks are the longest
    "test_weil_backend_matches_generic": [
        forms(f"{fld!r}-weights{k}", random_forms, fld, w, 6, fld.order * 10 + w[-1], routes=False, rows=True)
        for k, w in enumerate((QUARTIC, SEXTIC, QUINTIC)) for fld in WALK_FIELDS if w != QUINTIC or fld.p == 2],
    "test_weil_backend_matches_generic_on_lifts": [
        forms(repr(fld), lift_forms, fld, routes=False, lifts=True) for fld in WALK_FIELDS],
    "test_matrix_rank_matches_generic": [Group(repr(fld), lambda fld=fld: rank_cases(fld)) for fld in WALK_FIELDS],
    # the draws must exercise more than one finite height and the infinite case
    "test_large_prime_backend_matches_generic": [
        Group(repr(fld), lambda fld=fld: random_bundles(fld, fld.order),
              lambda bundles: sum(is_infinite(height(b)) for b in bundles) >= 2
              and len({repr(height(b)) for b in bundles}) >= 3) for fld in LARGE_FIELDS],
    # the fiber route against the products: every Delsarte family (admissible or not),
    # binomials, whose other rows of A x = E are checked, and rank-deficient forms, whose
    # points are enumerated; at p = 11 and 13 none of RANK_DEFICIENT fits the budget
    "test_fiber_route_matches_the_products": [
        *[forms(f"delsarte-F{p}", delsarte_forms, p, 1, False, requires=every_route(_fibers.lam_and_T))
          for p in (3, 5, 7)],
        *[forms(f"delsarte-F{p ** e}", delsarte_forms, p, e, reference=NUMPY_ROUTE,
                requires=every_route(_fibers.lam_and_T)) for p, e in FIBER_PRIMES],
        *[forms(f"binomials-F{p ** e}", binomials, p, e, requires=every_route(_fibers.lam_and_T))
          for p, e in [(11, 1), (97, 1), (11, 2)]],
        forms("rank-deficient", parsed, ["x^4+y^4+x^2*y^2+z^4", "x^3*y+x*y^3+x^2*y^2+w^4"],
              RingConfig(field(5), QUARTIC), requires=every_route(_fibers.lam_and_T)),
        *[forms(f"rank-deficient-F{p ** e}", rank_deficient_forms, p, e, reference=NUMPY_ROUTE,
                requires=lambda bundles: every_route(_fibers.lam_and_T)(bundles) and some_rank_deficient(bundles))
          for p, e in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)]]],
    "test_corpus": [
        # the dict and fiber routes at p >= 2^15, where f^(p-2) has one term
        forms("large-prime-monomial", parsed, ["x*y*z*w"], RingConfig(field(32771), QUARTIC), rows=True, lifts=True),
        # lambda off xyzw, the one monomial every form's lambda is supported on at p = 2
        *[Group(f"synthetic-{fld!r}", lambda fld=fld: random_bundles(fld, fld.order))
          for fld in (field(2), field(2, 2), field(2, 3))]],
}


def check_group(group: Group) -> None:
    bundles = [check(case) for case in group.cases()]
    assert bundles and group.requires(bundles), group.id


def corpus_test(name: str, corpus: dict = CORPUS) -> Callable:
    """The test of the groups ``corpus`` files under ``name``, one id per group (none for one
    group of id None); a test file binds it to ``name``."""
    groups = corpus[name]
    if groups[0].id is None:
        return lambda: check_group(groups[0])

    @pytest.mark.parametrize("group", groups, ids=[g.id for g in groups])
    def test(group):
        check_group(group)

    return test


test_corpus = corpus_test("test_corpus")
test_fiber_route_matches_the_products = corpus_test("test_fiber_route_matches_the_products")


def test_every_entry_is_fed_and_every_case_compares():
    # a change to an acceptance rule (admits, say) must not turn a comparison
    # into a no-op: each form reaches two producers, each walked case two
    # backends, and some case reaches every entry
    fed = set()
    for name, groups in CORPUS.items():
        for group in groups:
            for case in group.cases():
                producers, backends = selection(case)
                if isinstance(case, Case) and case.routes and not case.lam_T:
                    assert len(producers) >= 2, (name, group.id)
                if isinstance(case, RankCase) or case.rows or case.lifts:
                    assert len(backends) >= 2, (name, group.id)
                fed.update(producers + backends)
    assert fed == set(PRODUCERS) | set(BACKENDS)


# -- the property -------------------------------------------------------------------

DRAWN_FIELDS = [field(2), field(2, 2), field(2, 3), field(3), field(3, 2), field(5), field(7)]
DRAWN_RINGS = [(1, 1), (1, 1, 1), (1, 1, 2), QUARTIC, SEXTIC]


@st.composite
def drawn_cases(draw) -> Case:
    """A form over a small field: 1 to n + 1 terms, every monomial of one residue class mod
    p, a Delsarte family's, or every monomial of a small ring; or a synthetic bundle at large p."""
    kind = draw(st.sampled_from(["sparse", "class", "delsarte", "dense", "synthetic"]))
    if kind == "synthetic":
        return draw(st.sampled_from(random_bundles(draw(st.sampled_from(LARGE_FIELDS)), draw(st.integers(0, 2**32)))))
    fld = draw(st.sampled_from(DRAWN_FIELDS))
    record = draw(st.sampled_from(delsarte.builtin_families())) if kind == "delsarte" else None
    # a dense K3 form walks a third of a second on GenericOps; the corpus has those
    weights = record.weights if record else draw(st.sampled_from(DRAWN_RINGS[:3 if kind == "dense" else 5]))
    ring = RingConfig(fld, weights)
    every = basis(ring).monomials
    if record:
        monos = list(parse_poly(record.equation, ring).term_dict())
    elif kind == "class":
        a = draw(st.sampled_from(every))
        monos = [m for m in every if all((x - y) % fld.p == 0 for x, y in zip(m, a))]
    else:
        monos = every if kind == "dense" else draw(st.lists(st.sampled_from(every), min_size=1,
                                                            max_size=ring.num_vars + 1, unique=True))
    coeffs = draw(st.lists(st.sampled_from(list(fld.elements())[1:]), min_size=len(monos), max_size=len(monos)))
    return Case(Polynomial(ring, dict(zip(monos, coeffs))), rows=True, lifts=True)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(drawn_cases())
def test_drawn_cases_agree(case):
    check(case)
