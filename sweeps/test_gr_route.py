"""The numpy route of bundle() over F_{p^e} against the dict route, on many seeded forms.

Outside the tier-1 suite (it takes 20-40 s on a 2-core VM); CI runs it
with the other sweeps:

    PYTHONPATH=src python -m pytest -q sweeps

Each case compares the raw lambda and T of both routes on 20 seeded forms.
A form is fully dense (every basis monomial drawn from the whole field)
where the dict route takes at most about 0.2 s on one; elsewhere it has a
fixed number of terms, because one fully dense form costs the dict route
1.4-1.9 s over F_25 and the F_9 quintic and 5-7 s over F_49.  One fully
dense form still runs for the F_25 quartic and sextic and the F_49
quartic, and so do the lambda = 0 diagonal and cyclic forms.
"""

import random

import pytest

from qfsplit import _fpbundle
from qfsplit.cartier import basis, dict_lam_and_T
from qfsplit.ffield import field
from qfsplit.polyring import Polynomial, RingConfig, parse_poly

QUARTIC, SEXTIC, QUINTIC = (1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 1, 1, 1)
NAMES = {QUARTIC: "quartic", SEXTIC: "sextic", QUINTIC: "quintic"}
FORMS = 20
# (p, e, weights, terms per form); None is fully dense
CASES = [
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


def twins(f) -> list:
    """Assert that both routes give the same raw lambda and T; return lambda."""
    bas = basis(f.ring)
    assert _fpbundle.admits(f.ring, bas.m)
    lam, T = _fpbundle.lam_and_T(f, bas)
    assert (lam, T) == dict_lam_and_T(f, bas)
    return lam


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
        twins(seeded_form(ring, 10_000 * p + 100 * e + seed, terms))


@pytest.mark.parametrize("p,weights", [(5, QUARTIC), (5, SEXTIC), (7, QUARTIC)],
                         ids=["F25-quartic", "F25-sextic", "F49-quartic"])
def test_routes_agree_on_a_fully_dense_form(p, weights):
    twins(seeded_form(RingConfig(field(p, 2), weights), 7, None))


@pytest.mark.parametrize("p", [3, 5, 7], ids=["F9", "F25", "F49"])
def test_routes_agree_on_diagonal_and_cyclic_forms(p):
    zero_rows = 0
    for weights, texts in DIAGONAL.items():
        ring = RingConfig(field(p, 2), weights)
        for text in texts:
            zero_rows += not any(lam != ring.field.zero for lam in twins(parse_poly(text, ring)))
    assert zero_rows >= 2  # lambda = 0 occurs at every one of these p
