"""The registry's check (``tests/test_registry.py``) on a larger corpus and more drawn cases.

Outside the tier-1 suite; CI runs it with the other sweeps (``PYTHONPATH=src python -m
pytest -q sweeps``).  The corpus: 20 seeded forms in each of 20 rings over F_2 to F_49,
fully dense where the dict route takes at most about 0.2 s on one (one fully dense form
costs it 1.4-1.9 s over F_25 and 5-7 s over F_49, so three run alone); the first 1000
samples of ``qfsplit scan -p 2 --seed 2026``; the lambda = 0 diagonal and cyclic forms;
the fiber route against the numpy route on the twenty Delsarte families at every prime
29..47 and at 97 (about 1 s a family there) and on quartic binomials at p = 8191 (about
2 s each), where the dict route would take minutes.
"""

import random
import sys
from pathlib import Path

from hypothesis import given, settings

from qfsplit import _fibers, scan
from qfsplit.cartier import basis
from qfsplit.ffield import field
from qfsplit.polyring import RingConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _support import NAMES, QUARTIC, QUINTIC, SEXTIC, seeded_form  # noqa: E402
from test_registry import (NUMPY_ROUTE, check, corpus_test, delsarte_forms, diagonal_forms, drawn_cases,  # noqa: E402
                           every_route, forms, lam_zero_twice, parsed)


def scan_samples():
    ring = RingConfig(field(2), QUARTIC)
    samples = [basis(ring).polynomial(scan.sample(2026, index, ring)) for index in range(1000)]
    return [f for f in samples if not f.is_zero()]  # the zero form has no bundle


# (p, e, weights, terms per form); None is fully dense
RINGS = [
    (2, 1, SEXTIC, None), (2, 1, QUINTIC, None),
    (2, 2, QUARTIC, None), (2, 2, SEXTIC, None), (2, 2, QUINTIC, None),
    (2, 3, QUARTIC, None), (2, 3, SEXTIC, None), (2, 3, QUINTIC, None),
    (3, 2, QUARTIC, None), (3, 2, SEXTIC, None), (3, 2, QUINTIC, 12),
    (5, 2, QUARTIC, 8), (5, 2, SEXTIC, 8), (5, 2, QUINTIC, 6),
    (3, 3, QUARTIC, None), (3, 3, SEXTIC, None), (3, 3, QUINTIC, 8),
    (7, 2, QUARTIC, 6), (7, 2, SEXTIC, 6), (7, 2, QUINTIC, 4),
]
CORPUS = {"test_sweep_corpus": (
    [forms(f"F{p ** e}-{NAMES[w]}-{'dense' if t is None else f'{t}terms'}", lambda p, e, w, t: [
        seeded_form(RingConfig(field(p, e), w), random.Random(10_000 * p + 100 * e + k), t) for k in range(20)],
        p, e, w, t) for p, e, w, t in RINGS]
    + [forms("F2-scan-samples", scan_samples, requires=lambda bundles: len(bundles) >= 999)]
    + [forms(f"F{p * p}-{NAMES[w]}-fully-dense",
             lambda p, w: [seeded_form(RingConfig(field(p, 2), w), random.Random(7), None)], p, w)
       for p, w in [(5, QUARTIC), (5, SEXTIC), (7, QUARTIC)]]
    # lambda = 0 occurs at every one of these p
    + [forms(f"F{p * p}-diagonal", diagonal_forms, field(p, 2), requires=lam_zero_twice) for p in (3, 5, 7)]
    + [forms(f"F{p}-delsarte", delsarte_forms, p, 1, False, reference=NUMPY_ROUTE,
             requires=every_route(_fibers.lam_and_T)) for p in (29, 31, 37, 41, 43, 47, 97)]
    + [forms("F8191-binomials", parsed, ["x^4+y^3*z", "x^3*y+3*z^2*w^2", "5*x*y*z*w+x^4"],
             RingConfig(field(8191), QUARTIC), reference=NUMPY_ROUTE, requires=every_route(_fibers.lam_and_T))]
)}
test_sweep_corpus = corpus_test("test_sweep_corpus", CORPUS)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(drawn_cases())
def test_more_drawn_cases_agree(case):
    check(case)
