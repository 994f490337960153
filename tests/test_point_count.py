"""``cartier.height`` against the point-count oracle ``_support.affine_zeros``.

A form of weighted degree sum w_i over F_p has height 1 iff p does not
divide its number N of affine zeros (the proof is in the oracle's
docstring).  The count shares no code with lambda, T or the walk, so each
height-1 verdict below is checked by something the engine never runs.
"""

import pytest

from qfsplit import cartier, catalog
from qfsplit.ffield import field
from qfsplit.polyring import RingConfig, parse_poly

from _support import QUARTIC, affine_zeros
from test_registry import CORPUS, delsarte_forms


def verdicts(forms: list) -> list:
    """Whether each form has height 1, asserting that p does not divide its N exactly then."""
    out = []
    for f in forms:
        out.append(cartier.height(cartier.bundle(f)) == 1)
        assert out[-1] == (affine_zeros(f) % f.ring.field.p != 0), f
    return out


def test_point_count_matches_height_on_every_catalog_row():
    rows = [parse_poly(entry.equation, RingConfig(field(entry.p), entry.weights)) for entry in catalog.all_entries()]
    assert len(verdicts(rows)) == 19  # none of height 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_point_count_matches_height_on_the_delsarte_families(p):
    assert len(verdicts(delsarte_forms(p, 1, False))) == 20


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_point_count_matches_height_on_the_dwork_pencil(p):
    ring = RingConfig(field(p), QUARTIC)
    pencil = [parse_poly(f"x^4+y^4+z^4+w^4+{c}*x*y*z*w", ring) for c in range(1, p)]
    assert len(verdicts(pencil)) == p - 1  # every one of height 1 at p = 11, none at 5


def test_point_count_matches_height_on_the_registry_seeded_forms():
    forms = [case.f for group in CORPUS["test_routes_agree_on_seeded_forms"] for case in group.cases()]
    assert len(forms) == 82 and set(verdicts(forms)) == {True, False}
