"""``cartier.height`` against the point-count oracle (``tests/_support.affine_zeros``) past tier-1.

Outside the tier-1 suite; CI runs it with the other sweeps (``PYTHONPATH=src python -m
pytest -q sweeps``).  Height 1 holds iff p does not divide the number of affine zeros
(proof in the oracle's docstring).  The quartic Dwork pencil at every c in F_p^* at p = 31
and 47 (about 0.2 s a form at 47, on the products), and one fully dense quartic and sextic
at each prime 5..31 (up to about 3 s a form at 31, lambda on the products).
"""

import random
import sys
from pathlib import Path

import pytest

from qfsplit.ffield import field
from qfsplit.polyring import RingConfig, parse_poly

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _support import NAMES, QUARTIC, SEXTIC, seeded_form  # noqa: E402
from test_point_count import verdicts  # noqa: E402


@pytest.mark.parametrize("p", [31, 47])
def test_point_count_matches_height_on_the_dwork_pencil(p):
    ring = RingConfig(field(p), QUARTIC)
    assert set(verdicts([parse_poly(f"x^4+y^4+z^4+w^4+{c}*x*y*z*w", ring) for c in range(1, p)])) == {True, False}


@pytest.mark.parametrize("weights", [QUARTIC, SEXTIC], ids=[NAMES[QUARTIC], NAMES[SEXTIC]])
def test_point_count_matches_height_on_dense_forms(weights):
    forms = [seeded_form(RingConfig(field(p), weights), random.Random(p), None) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)]
    assert all(len(f) >= 20 for f in forms) and any(verdicts(forms))
