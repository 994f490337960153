"""The Delsarte closed form against the matrix engine at every prime 11 <= p < 50, at p = 97,
and at the first admissible prime above 10^3, 10^4, 2^15 and 10^6.

Outside the tier-1 suite; CI runs it with the other sweeps:

    PYTHONPATH=src python -m pytest -q sweeps

Every one of the twenty built-in families is admissible at each of the
primes below 50, so each prime checks all (family, p) pairs.  The lists may
not shrink; if the sweep grows too slow, split it across steps instead.

At p = 97 two families run: the Fermat quartic (family 0) and the diagonal
sextic (family 10).  Each bundle takes the fiber route (``qfsplit._fibers``),
whose answer at the large primes no other route can reach in reasonable
time; there the closed form is the only check, on height and tau, and on ns
where it gives sigma.  Over F_(p^2) the height and ns must be those over F_p.
Most of the time goes to the factorial tables at p = 10^6 + 3 (about 1 s).
"""

from itertools import count

import pytest

from qfsplit import _fibers, cartier
from qfsplit.delsarte import admissible_primes, builtin_families, cross_check
from qfsplit.ffield import _is_prime, field
from qfsplit.polyring import RingConfig, parse_poly

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


@pytest.mark.parametrize("bound", [10**3, 10**4, 2**15, 10**6])
def test_closed_form_matches_engine_at_large_primes(bound):
    for record in builtin_families():
        p = next(q for q in count(bound + 1) if _is_prime(q) and admissible_primes(record, [q]))
        [row] = cross_check(p, [record])
        assert row.match, (record.index, p, row.formula, row.matrix_height, row.matrix_tau)
        if row.formula.kind == "sigma":
            assert row.matrix_ns == row.formula.value, (record.index, p)
        for e in (1, 2):
            f = parse_poly(record.equation, RingConfig(field(p, e), record.weights))
            assert cartier.route(f, cartier.basis(f.ring)) is _fibers.lam_and_T
        b = cartier.bundle(f)  # over F_(p^2)
        assert (repr(cartier.height(b)), repr(cartier.ns_index(b))) == (repr(row.matrix_height), repr(row.matrix_ns))
