"""Exact arithmetic in F_p and small extensions F_{p^e}.

Raw element representations are deliberately plain so the polynomial layer
can run hot loops without object churn:

* prime field elements are ``int`` in ``[0, p)``;
* extension elements are ``tuple[int, ...]`` of length ``e`` holding the
  coefficients of the polynomial basis ``1, t, ..., t^(e-1)``.

All values are canonical (fully reduced), so ``==`` on raw representations
is semantic equality.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence, Union

from .errors import DomainError, UsageError

RawElement = Union[int, tuple]

MAX_PRIME = 2**31 - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # the first 13 primes
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin on ``_MR_BASES``.

    Sorenson and Webster (2015) proved these bases exact below
    ``_MR_EXACT_BELOW`` (about 3.3 * 10^24); at or above it this raises UsageError.
    """
    if n >= _MR_EXACT_BELOW:
        raise UsageError(f"primality is decided only below {_MR_EXACT_BELOW}, got {n}")
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    # a proves n composite iff a^d != 1 and a^(d 2^k) != -1 for every k < s
    return not any(pow(a, d, n) != 1 and all(pow(a, d << k, n) != n - 1 for k in range(s))
                   for a in _MR_BASES)


def _require_characteristic(p: int) -> None:
    """Reject p unless it is a prime at most :data:`MAX_PRIME`, the bound of both field classes."""
    if p > MAX_PRIME:
        raise UsageError(f"field characteristic must be at most 2^31 - 1 = {MAX_PRIME}, got {p}")
    if not _is_prime(p):
        raise UsageError(f"field characteristic must be prime, got {p}")


# ---------------------------------------------------------------------------
# univariate polynomial helpers over F_p (ascending coefficient tuples),
# used for extension-field arithmetic and irreducibility checks
# ---------------------------------------------------------------------------

def _poly_trim(a: Sequence[int]) -> tuple:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple:
    # m must be monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and len(a) > 0:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for j in range(dm + 1):
                a[shift + j] = (a[shift + j] - lead * m[j]) % p
        a.pop()
    return _poly_trim(a)


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        # reduce a mod b after making b monic
        inv_lead = pow(b[-1], p - 2, p)
        b_monic = tuple((c * inv_lead) % p for c in b)
        a, b = b, _poly_mod(a, b_monic, p)
    return _poly_trim(a)


def _poly_powmod_x(exp: int, m: Sequence[int], p: int) -> tuple:
    """x^exp mod m over F_p by square and multiply."""
    result: tuple = (1,)
    base = _poly_mod((0, 1), m, p)
    while exp:
        if exp & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        exp >>= 1
    return result


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Monic degree-e polynomial has no factor of degree <= e/2.

    gcd with x^(p^i) - x detects factors of degree dividing i, so checking
    i = 1 .. e//2 covers every possible proper factor.
    """
    e = len(modulus) - 1
    if e < 1 or modulus[-1] != 1:
        return False
    for i in range(1, e // 2 + 1):
        xq = _poly_powmod_x(p**i, modulus, p)
        # x^(p^i) - x
        diff = list(xq) + [0] * max(0, 2 - len(xq))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(diff, modulus, p)
        if len(g) > 1:  # common factor of degree >= 1
            return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, e: int) -> tuple:
    """First monic irreducible of degree e over F_p in base-p counting order.

    Candidate n = 0, 1, ... has coefficients c_k = floor(n / p^k) mod p, walked
    lazily: a deterministic replacement for a lookup table at any p.
    """
    for n in range(p**e):
        candidate = tuple(n // p**k % p for k in range(e)) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise DomainError(f"no irreducible polynomial of degree {e} over F_{p}")


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Field:
    """Shared interface of PrimeField and ExtensionField.

    All arithmetic methods take and return raw representations.
    """

    p: int
    e: int
    order: int
    modulus: tuple | None

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def frobenius(self, a):
        raise NotImplementedError

    def inverse_frobenius(self, a):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def pow(self, a, n: int):
        """a^n for n >= 0, by square and multiply."""
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def elements(self) -> Iterator[RawElement]:
        raise NotImplementedError

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash  # computed by the constructor: a field is immutable


class PrimeField(Field):
    """F_p with int representations in [0, p)."""

    def __init__(self, p: int):
        _require_characteristic(p)
        self.p = p
        self.e = 1
        self.order = p
        self.modulus = None
        self.zero = 0
        self.one = 1
        self._hash = hash((p, 1, None))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DomainError("zero has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def frobenius(self, a):
        return a % self.p

    def inverse_frobenius(self, a):
        return a % self.p

    def from_int(self, n: int):
        return n % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def format(self, a) -> str:
        return str(a % self.p)

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    def __repr__(self):
        return f"PrimeField(p={self.p})"


class ExtensionField(Field):
    """F_{p^e}, e > 1, with length-e coefficient tuples in the basis 1..t^(e-1)."""

    def __init__(self, p: int, e: int, modulus: Sequence[int] | None = None):
        _require_characteristic(p)
        if e < 2:
            raise UsageError("extension degree must be >= 2; use PrimeField for e=1")
        self.p = p
        self.e = e
        self.order = p**e
        if modulus is None:
            modulus = default_modulus(p, e)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise UsageError(
                f"modulus must be monic of degree {e} ({e + 1} coefficients, constant "
                f"first), got {','.join(map(str, modulus))}"
            )
        if not _is_irreducible(modulus, p):
            raise UsageError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        self.zero = (0,) * e
        self.one = (1,) + (0,) * (e - 1)
        self._hash = hash((p, e, modulus))

    def _canon(self, coeffs: Sequence[int]) -> tuple:
        reduced = _poly_mod([c % self.p for c in coeffs], self.modulus, self.p)
        return reduced + (0,) * (self.e - len(reduced))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return self._canon(_poly_mul(a, b, self.p))

    def inv(self, a):
        if self.is_zero(a):
            raise DomainError("zero has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def frobenius(self, a):
        return self.pow(a, self.p)

    def inverse_frobenius(self, a):
        # Frobenius has order e on F_{p^e}, so its inverse is its (e-1)-st power
        return self.pow(a, self.p ** (self.e - 1))

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.e - 1)

    def is_zero(self, a) -> bool:
        return all(c == 0 for c in a)

    def format(self, a) -> str:
        parts = []
        for i in range(self.e - 1, -1, -1):
            c = a[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                parts.append(var if c == 1 else f"{c}{var}")
        return "+".join(parts) if parts else "0"

    def elements(self) -> Iterator[tuple]:
        return product(range(self.p), repeat=self.e)

    def __repr__(self):
        return f"ExtensionField(p={self.p}, e={self.e}, modulus={self.modulus})"


def field(p: int, e: int = 1, modulus: Sequence[int] | None = None) -> Field:
    """Construct F_p (e=1) or F_{p^e} with the given or default modulus."""
    if e < 1:
        raise UsageError(f"extension degree must be positive, got {e}")
    if e == 1:
        if modulus is not None:
            raise UsageError("modulus is only meaningful for extension degree e > 1")
        return PrimeField(p)
    return ExtensionField(p, e, modulus)
