"""The numpy route of bundle() over F_2 and F_{p^e} against the dict route, on many seeded forms.

Outside the tier-1 suite (it takes about 50 s on a 2-core VM, most
of it in the dict route); CI runs it with the other sweeps:

    PYTHONPATH=src python -m pytest -q sweeps

The F_2 quartics are the scan's own traffic: the first 1000 samples of
``qfsplit scan -p 2 --seed 2026``, drawn by ``scan.sample``; on them the
p = 2 kernel also meets the general numpy route.  Each case of
CASES runs the tier-1 suite's twin assertion, ``assert_twins`` in
``tests/_support.py``, on 20 seeded forms: lambda and T of both routes,
read as raw values, the bundle's arrays and kept v_f, and its step matrix
against the entry-by-entry build from raw rows.
A form is fully dense (every basis monomial drawn from the whole field)
where the dict route takes at most about 0.2 s on one; elsewhere it has a
fixed number of terms, because one fully dense form costs the dict route
1.4-1.9 s over F_25 and the F_9 quintic and 5-7 s over F_49.  One fully
dense form still runs for the F_25 quartic and sextic and the F_49
quartic, and so do the lambda = 0 diagonal and cyclic forms.
"""

import random
import sys
from pathlib import Path

import pytest

from qfsplit import _fpbundle, scan
from qfsplit.cartier import basis, dict_lam_and_T
from qfsplit.ffield import field
from qfsplit.polyring import Polynomial, RingConfig, parse_poly

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _support import as_raw, assert_twins, forced  # noqa: E402

QUARTIC, SEXTIC, QUINTIC = (1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 1, 1, 1)
NAMES = {QUARTIC: "quartic", SEXTIC: "sextic", QUINTIC: "quintic"}
FORMS = 20
SCAN_SEED, SCAN_SAMPLES = 2026, 1000
# (p, e, weights, terms per form); None is fully dense
CASES = [
    (2, 1, SEXTIC, None), (2, 1, QUINTIC, None),
    (2, 2, QUARTIC, None), (2, 2, SEXTIC, None), (2, 2, QUINTIC, None),
    (2, 3, QUARTIC, None), (2, 3, SEXTIC, None), (2, 3, QUINTIC, None),
    (3, 2, QUARTIC, None), (3, 2, SEXTIC, None), (3, 2, QUINTIC, 12),
    (5, 2, QUARTIC, 8), (5, 2, SEXTIC, 8), (5, 2, QUINTIC, 6),
    (3, 3, QUARTIC, None), (3, 3, SEXTIC, None), (3, 3, QUINTIC, 8),
    (7, 2, QUARTIC, 6), (7, 2, SEXTIC, 6), (7, 2, QUINTIC, 4),
]
# forms whose lambda vanishes at some of p = 3, 5, 7
DIAGONAL = {
    QUARTIC: ("x^4+y^4+z^4+w^4", "x^3y+y^3z+z^3w+w^3x"),
    SEXTIC: ("x^6+y^6+z^6+w^2", "x^5y+y^5z+z^5x+w^2"),
    QUINTIC: ("x^5+y^5+z^5+w^5+u^5", "x^4y+y^4z+z^4w+w^4u+u^4x"),
}


def seeded_form(ring, seed, terms):
    rng = random.Random(seed)
    fld = ring.field
    monos = basis(ring).monomials
    elems = list(fld.elements())  # zero first
    if terms is None:
        coeffs = {m: elems[rng.randrange(len(elems))] for m in monos} | {monos[0]: fld.one}
    else:
        coeffs = {m: elems[rng.randrange(1, len(elems))] for m in rng.sample(monos, terms)}
    return Polynomial(ring, coeffs)


@pytest.mark.parametrize(
    "p,e,weights,terms", CASES,
    ids=[f"F{p ** e}-{NAMES[w]}-{'dense' if t is None else f'{t}terms'}" for p, e, w, t in CASES],
)
def test_routes_agree_on_seeded_forms(p, e, weights, terms):
    ring = RingConfig(field(p, e), weights)
    for seed in range(FORMS):
        assert_twins(seeded_form(ring, 10_000 * p + 100 * e + seed, terms))


def test_routes_agree_on_scan_samples():
    ring = RingConfig(field(2), QUARTIC)
    bas = basis(ring)
    compared = 0
    for index in range(SCAN_SAMPLES):
        f = bas.polynomial(scan.sample(SCAN_SEED, index, ring))
        if not f.is_zero():  # the zero form has no bundle
            kernel = as_raw(forced(_fpbundle.lam_and_T(f, bas)), ring.field)
            assert kernel == as_raw(forced(_fpbundle.general_lam_and_T(f, bas)), ring.field)
            assert kernel == forced(dict_lam_and_T(f, bas))
            compared += 1
    assert compared >= SCAN_SAMPLES - 1


@pytest.mark.parametrize("p,weights", [(5, QUARTIC), (5, SEXTIC), (7, QUARTIC)],
                         ids=["F25-quartic", "F25-sextic", "F49-quartic"])
def test_routes_agree_on_a_fully_dense_form(p, weights):
    assert_twins(seeded_form(RingConfig(field(p, 2), weights), 7, None))


@pytest.mark.parametrize("p", [3, 5, 7], ids=["F9", "F25", "F49"])
def test_routes_agree_on_diagonal_and_cyclic_forms(p):
    zero_rows = 0
    for weights, texts in DIAGONAL.items():
        ring = RingConfig(field(p, 2), weights)
        for text in texts:
            lam = assert_twins(parse_poly(text, ring))
            zero_rows += not any(v != ring.field.zero for v in lam)
    assert zero_rows >= 2  # lambda = 0 occurs at every one of these p
