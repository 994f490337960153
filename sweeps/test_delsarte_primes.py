"""The Delsarte closed form against the matrix engine at every prime 11 <= p < 50, and at p = 97.

Outside the tier-1 suite (about 13 s on a 2-core VM); CI runs it with the
other sweeps:

    PYTHONPATH=src python -m pytest -q sweeps

Every one of the twenty built-in families is admissible at each of these
primes, so each prime checks all (family, p) pairs.  The lists may not
shrink; if the sweep grows too slow, split it across steps instead.

At p = 97 two families run: the Fermat quartic (family 0) and the diagonal
sextic (family 10), about 1 s each, whose f^(p-2) has about 150k terms.
"""

import pytest

from qfsplit.delsarte import builtin_families, cross_check

PRIMES = [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
FAMILIES = list(range(20))


@pytest.mark.parametrize("p", PRIMES)
def test_closed_form_matches_engine(p):
    rows = cross_check(p)
    assert [row.family.index for row in rows] == FAMILIES
    mismatches = [(row.family.index, row.formula, row.matrix_height, row.matrix_tau)
                  for row in rows if not row.match]
    assert not mismatches


@pytest.mark.parametrize("index,e_A", [(0, 4), (10, 6)])
def test_closed_form_matches_engine_at_97(index, e_A):
    [row] = cross_check(97, [builtin_families()[index]])
    assert (row.formula.kind, row.formula.value, row.formula.e_A) == ("height", 1, e_A)
    assert row.match and row.matrix_height == 1
