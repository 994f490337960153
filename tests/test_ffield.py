from itertools import product

import pytest

from qfsplit.errors import DomainError, UsageError
from qfsplit.ffield import (
    MAX_PRIME,
    ExtensionField,
    _is_irreducible,
    _is_prime,
    default_modulus,
    field,
)
from qfsplit.polyring import parse_scalar


def test_prime_field_arithmetic_examples():
    F3 = field(3)
    assert F3.mul(2, 2) == 1
    F2 = field(2)
    assert F2.add(1, 1) == 0


def test_extension_arithmetic_example():
    F4 = field(2, 2)
    t = (0, 1)
    assert F4.modulus == (1, 1, 1)
    assert F4.mul(t, (1, 1)) == (1, 0)  # t*(t+1) = 1


def test_inverse_examples():
    assert field(3).inv(2) == 2
    assert field(5).inv(3) == 2
    F4 = field(2, 2)
    assert F4.inv((0, 1)) == (1, 1)


def test_inverse_of_zero_raises():
    with pytest.raises(DomainError):
        field(5).inv(0)
    with pytest.raises(DomainError):
        field(2, 2).inv((0, 0))


def test_frobenius_examples():
    F7 = field(7)
    assert all(F7.frobenius(a) == a for a in range(7))
    F4 = field(2, 2)
    assert F4.frobenius((0, 1)) == (1, 1)  # t^2 = t + 1
    F9 = field(3, 2)
    assert F9.modulus == (1, 0, 1)
    assert F9.frobenius((0, 1)) == (0, 2)  # t^3 = -t


@pytest.mark.parametrize(
    "p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4), (5, 2)]
)
def test_inverse_frobenius_is_inverse_exhaustive(p, e):
    F = field(p, e)
    for a in F.elements():
        assert F.inverse_frobenius(F.frobenius(a)) == a
        assert F.frobenius(F.inverse_frobenius(a)) == a


def test_inverse_frobenius_random_beyond_exhaustive_range():
    import random

    rng = random.Random(53)
    F = field(5, 3)  # order 125: sampled rather than enumerated
    for _ in range(60):
        a = tuple(rng.randrange(5) for _ in range(3))
        assert F.inverse_frobenius(F.frobenius(a)) == a


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_frobenius_is_a_ring_map(p, e):
    import random

    rng = random.Random(p * 100 + e)
    F = field(p, e)
    elems = list(F.elements())
    for _ in range(50):
        a, b = rng.choice(elems), rng.choice(elems)
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_matches_integer_arithmetic(p):
    F = field(p)
    for a in range(p):
        for b in range(p):
            assert F.add(a, b) == (a + b) % p
            assert F.sub(a, b) == (a - b) % p
            assert F.mul(a, b) == (a * b) % p


def test_field_constructor_validation():
    with pytest.raises(UsageError):
        field(4)
    with pytest.raises(UsageError):
        field(2, 1, modulus=[1, 1])
    with pytest.raises(UsageError):
        ExtensionField(2, 2, modulus=(1, 0, 1))  # t^2 + 1 = (t+1)^2 over F_2
    with pytest.raises(UsageError):
        ExtensionField(2, 2, modulus=(1, 1))  # wrong degree


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (5, 4)])
def test_default_modulus_is_monic_irreducible(p, e):
    mod = default_modulus(p, e)
    assert len(mod) == e + 1 and mod[-1] == 1
    ExtensionField(p, e, mod)  # constructor re-checks irreducibility


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(200_000) if _is_prime(n)] == [n for n in range(200_000) if trial_division(n)]


@pytest.mark.parametrize("n", [561, 41041, 3215031751, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # Carmichael numbers, and the least strong pseudoprimes to the first 4 and 9 prime bases
    assert not _is_prime(n)


def test_is_prime_decides_up_to_its_bound_only():
    assert _is_prime(2**61 - 1) and _is_prime(MAX_PRIME)
    # a strong pseudoprime to every prime base up to 37, which base 41 exposes
    assert not _is_prime(399165290221 * 798330580441)
    with pytest.raises(UsageError, match="primality is decided only below"):
        _is_prime(3317044064679887385961981)


@pytest.mark.parametrize("p", [2147483659, 2**61 - 1])
@pytest.mark.parametrize("e", [1, 2])
def test_characteristic_above_the_bound_names_it(p, e):
    with pytest.raises(UsageError, match=r"at most 2\^31 - 1 = 2147483647"):
        field(p, e)


def modulus_by_product(p: int, e: int) -> tuple:
    """``default_modulus`` as it enumerated candidates: ``itertools.product`` of the digits."""
    for digits in product(range(p), repeat=e):
        candidate = digits[::-1] + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError


def test_default_modulus_walks_the_candidates_in_counting_order():
    cases = [(p, e) for p in range(2, 26) if trial_division(p) for e in range(2, 10) if p**e <= 5**4]
    assert len(cases) == 22
    for p, e in cases:
        assert default_modulus(p, e) == modulus_by_product(p, e), (p, e)


def test_serialization_round_trip():
    F9 = field(3, 2)
    for raw in F9.elements():
        assert parse_scalar(F9, F9.format(raw)) == raw
    F7 = field(7)
    for raw in range(7):
        assert parse_scalar(F7, F7.format(raw)) == raw

