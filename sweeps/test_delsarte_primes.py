"""The Delsarte closed form against the matrix engine at every prime 11 <= p < 50.

Outside the tier-1 suite (it takes about 20 s); CI runs it as its own step:

    PYTHONPATH=src python -m pytest -q sweeps

Every one of the twenty built-in families is admissible at each of these
primes, so each prime checks all (family, p) pairs.  The lists may not
shrink; if the sweep grows too slow, split it across steps instead.
"""

import pytest

from qfsplit.delsarte import cross_check

PRIMES = [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
FAMILIES = list(range(20))


@pytest.mark.parametrize("p", PRIMES)
def test_closed_form_matches_engine(p):
    rows = cross_check(p)
    assert [row.family.index for row in rows] == FAMILIES
    mismatches = [(row.family.index, row.formula, row.matrix_height, row.matrix_tau)
                  for row in rows if not row.match]
    assert not mismatches
