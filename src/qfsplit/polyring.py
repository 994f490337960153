"""Sparse weighted-graded multivariate polynomials over finite fields.

This module is the computational kernel of the package: exact polynomial
arithmetic (including ``mul_residues``, a product restricted to exponent
residue classes mod p), the Frobenius-defect operator ``delta`` (computed
by the first Witt sum polynomial; ``delta_lift_oracle``, a Teichmuller lift
to Z/p^2, is kept as its independent oracle), the semilinear corner
projection ``u_op``, and membership tests in Frobenius power ideals
m^[p^n] = (x_0^{p^n}, ..., x_N^{p^n}).

Products pack each exponent vector into one int (fixed-width bit fields,
wide enough that no sum overflows a field), so the inner loops add ints
instead of building tuples.

Representation: a polynomial is a map from exponent tuples to raw field
values (see ffield), with zero coefficients never stored; a form built
from its coefficient vector (:class:`VectorPolynomial`) fills that map on
its first read.  The canonical term order is graded lexicographic with
x_0 > x_1 > ... > x_N: terms are sorted by descending weighted degree,
ties broken by descending exponent tuple.  That order is frozen; the
monomial basis layout in the cartier module, hence the layout of all
serialized vectors and matrices, inherits it.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError, ParseError, ResourceError, UsageError
from .ffield import Field, RawElement

MAX_EXPONENT = 2**32  # documented headroom; exceeded only by runaway powers

ExponentVector = tuple  # tuple[int, ...], one entry per variable


class RingConfig:
    """A weighted polynomial ring k[x_0..x_N] with deg(x_i) = weights[i].

    The distinguished degree d = sum(weights) is the Calabi-Yau degree of
    the ring: hypersurfaces of that degree are the objects every invariant
    in this package is computed for.
    """

    def __init__(self, field: Field, weights: Sequence[int]):
        weights = tuple(int(w) for w in weights)
        if not (2 <= len(weights) <= 8):
            raise UsageError(f"number of variables must be in [2, 8], got {len(weights)}")
        if any(w <= 0 for w in weights):
            raise UsageError(f"all weights must be positive, got {weights}")
        self.field = field
        self.weights = weights
        self.num_vars = len(weights)
        self.d = sum(weights)
        self._hash = hash((field, weights))  # immutable, so hashed once

    def weighted_degree(self, exps: ExponentVector) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def __eq__(self, other):
        return (
            isinstance(other, RingConfig)
            and self.field == other.field
            and self.weights == other.weights
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RingConfig(p={self.field.p}, e={self.field.e}, weights={self.weights})"


def _order_key(ring: RingConfig, exps: ExponentVector):
    # graded lex, descending: highest weighted degree first, then x0-major
    return (-ring.weighted_degree(exps), tuple(-e for e in exps))


class Polynomial:
    """Immutable sparse polynomial; coefficients are raw field values.

    ``_coeffs`` keeps ``cartier.MonomialBasis.coefficients(self)``, a
    read-only int64 coordinate array, read on first use.  A form built from
    its coefficient vector is a :class:`VectorPolynomial`, which is given
    the array and builds its term dict only when something reads it.
    """

    __slots__ = ("ring", "_terms", "_max_exp", "_coeffs")

    def __init__(self, ring: RingConfig, terms: Mapping[ExponentVector, RawElement] | None = None):
        self.ring = ring
        clean: dict = {}
        if terms:
            is_zero = ring.field.is_zero
            for exps, coeff in terms.items():
                if not is_zero(coeff):
                    clean[tuple(exps)] = coeff
        self._terms = clean
        self._max_exp = max((max(e) for e in clean), default=0)
        self._coeffs = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingConfig) -> "Polynomial":
        return cls(ring)

    @classmethod
    def one(cls, ring: RingConfig) -> "Polynomial":
        return cls(ring, {(0,) * ring.num_vars: ring.field.one})

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple]:
        """Terms as (exponent tuple, raw coefficient) in canonical order."""
        key = lambda item: _order_key(self.ring, item[0])
        return iter(sorted(self._terms.items(), key=key))

    def term_dict(self) -> dict:
        return dict(self._terms)

    def coefficient(self, exps: ExponentVector) -> RawElement:
        return self._terms.get(tuple(exps), self.ring.field.zero)

    def weighted_degree(self) -> int | None:
        """Max weighted degree of the terms; None for the zero polynomial."""
        if not self._terms:
            return None
        wd = self.ring.weighted_degree
        return max(wd(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        """True for the zero polynomial and for single-degree polynomials."""
        degrees = {self.ring.weighted_degree(e) for e in self._terms}
        return len(degrees) <= 1

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial) or other.ring != self.ring:
            raise UsageError("polynomials belong to different ring configurations")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        f = self.ring.field
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            cur = out.get(exps)
            out[exps] = coeff if cur is None else f.add(cur, coeff)
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scaled(other.ring.field.from_int(-1))

    def scaled(self, scalar: RawElement) -> "Polynomial":
        f = self.ring.field
        return Polynomial(self.ring, {e: f.mul(scalar, c) for e, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        if self._max_exp + other._max_exp >= MAX_EXPONENT:
            raise ResourceError("product exponent would exceed the 2^32 headroom")
        return Polynomial(self.ring, _product(self._terms, other._terms, self.ring.field))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    # -- structural maps ----------------------------------------------------

    def frobenius_twist(self, k: int = 1) -> "Polynomial":
        """Termwise image under the k-fold Frobenius: coeff^(p^k), exps * p^k."""
        q = self.ring.field.p**k
        if self._max_exp * q >= MAX_EXPONENT:
            raise ResourceError("Frobenius twist exponent would exceed the 2^32 headroom")
        frob = self.ring.field.frobenius
        out = {}
        for exps, coeff in self._terms.items():
            twisted = tuple(e * q for e in exps)
            c = coeff
            for _ in range(k):
                c = frob(c)
            out[twisted] = c
        return Polynomial(self.ring, out)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Polynomial({self!s})"


class VectorPolynomial(Polynomial):
    """A form built from its coefficient vector on a monomial basis: ``MonomialBasis.polynomial``.

    It keeps the read-only coordinate array ``_coeffs`` it is given and a
    tuple of the raw values, so that a caller's later change to its list
    cannot reach the form.  ``len`` and ``is_zero`` read the array; the
    bundle, the witness search and every route but the dict route read
    nothing else.  The term dict and ``_max_exp``, which formatting, dict
    arithmetic, the dict route and the oracles read, are filled on their
    first read, the same as :class:`Polynomial` builds them from
    ``dict(zip(monomials, values))``.
    """

    __slots__ = ("_monomials", "_values")

    def __init__(self, ring: RingConfig, monomials: tuple, values: tuple, coeffs: np.ndarray):
        self.ring = ring
        self._monomials = monomials
        self._values = values
        self._coeffs = coeffs

    def __getattr__(self, name):
        # reached only for an unset slot or a missing name: the dict is built here, once
        if name not in ("_terms", "_max_exp"):
            raise AttributeError(name)
        built = Polynomial(self.ring, dict(zip(self._monomials, self._values)))
        self._terms, self._max_exp = built._terms, built._max_exp
        return getattr(self, name)

    def __len__(self) -> int:
        """The number of entries with a nonzero coordinate."""
        a = self._coeffs
        return int(np.count_nonzero(a if a.ndim == 1 else a.any(axis=1)))

    def is_zero(self) -> bool:
        return not np.count_nonzero(self._coeffs)


# ---------------------------------------------------------------------------
# term-dict kernels
# ---------------------------------------------------------------------------

def _pack(terms: dict, width: int) -> dict:
    """Terms keyed by one int holding the exponents in width-bit fields, x_0 highest.

    While no exponent sum reaches 2^width, exponent vectors add as ints,
    which keeps tuple building out of the product loops.
    """
    out = {}
    for exps, c in terms.items():
        key = 0
        for e in exps:
            key = (key << width) | e
        out[key] = c
    return out


def _accumulate(out: dict, a: dict, b: dict, field: Field) -> None:
    """Add every termwise product of two packed term dicts into out.

    Over a prime field the sums are left as unreduced ints (exact; see
    :func:`_unpack`), which saves a field call per product.
    """
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    if field.e == 1:
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                key = k1 + k2
                out[key] = get(key, 0) + c1 * c2
        return
    fmul, fadd = field.mul, field.add
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = k1 + k2
            val = fmul(c1, c2)
            cur = get(key)
            out[key] = val if cur is None else fadd(cur, val)


def _unpack(packed: dict, width: int, num_vars: int, field: Field) -> dict:
    """Tuple-keyed terms with canonical coefficients and zeros dropped."""
    mask = (1 << width) - 1
    shifts = range(width * (num_vars - 1), -1, -width)
    if field.e == 1:
        p = field.p
        packed = {key: r for key, c in packed.items() if (r := c % p)}
    else:
        is_zero = field.is_zero
        packed = {key: c for key, c in packed.items() if not is_zero(c)}
    return {tuple((key >> s) & mask for s in shifts): c for key, c in packed.items()}


def _product_width(a: dict, b: dict) -> int:
    """Field width that no exponent of a product of a and b can overflow."""
    return max(1, (max(map(max, a)) + max(map(max, b))).bit_length())


def _product(a: dict, b: dict, field: Field) -> dict:
    """a * b on tuple-keyed term dicts: canonical coefficients, no zeros."""
    if not a or not b:
        return {}
    width = _product_width(a, b)
    out: dict = {}
    _accumulate(out, _pack(a, width), _pack(b, width), field)
    return _unpack(out, width, len(next(iter(a))), field)


def _residue(exps: ExponentVector, p: int) -> tuple:
    return tuple(e % p for e in exps)


def _residue_buckets(terms: dict, p: int, width: int) -> dict:
    """Residue vector mod p -> the packed terms of that class."""
    out: dict = {}
    for exps, c in terms.items():
        out.setdefault(_residue(exps, p), {})[exps] = c
    return {r: _pack(bucket, width) for r, bucket in out.items()}


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

def poly_pow(a: Polynomial, n: int) -> Polynomial:
    """a^n by square-and-multiply, with the p-power part done termwise.

    Writing n = p^k * m with p the characteristic, a^(p^k) is the k-fold
    Frobenius twist (exact termwise), and only the m part needs honest
    products.
    """
    if n < 0:
        raise UsageError("polynomial powers require a nonnegative exponent")
    if n == 0:
        return Polynomial.one(a.ring)
    p = a.ring.field.p
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    base = a.frobenius_twist(k) if k else a
    result = None
    power = base
    while n:
        if n & 1:
            result = power if result is None else result * power
        n >>= 1
        if n:
            power = power * power
    return result


def mul_residues(a: Polynomial, b: Polynomial, keep) -> Polynomial:
    """The terms of a*b whose exponent residue vector mod p lies in ``keep``.

    ``keep`` is a collection of residue vectors; any representatives may be
    given, and a class listed twice counts once.

    Exact, not approximate: a product term's residue vector is the sum mod p
    of its factors' residue vectors.  Both factors are bucketed by residue
    and only bucket pairs summing into ``keep`` are multiplied, so the work
    is the number of surviving term pairs plus one lookup per (bucket of a,
    kept class).
    """
    a._check_ring(b)
    if a._max_exp + b._max_exp >= MAX_EXPONENT:
        raise ResourceError("product exponent would exceed the 2^32 headroom")
    field = a.ring.field
    p = field.p
    if a.is_zero() or b.is_zero():
        return Polynomial.zero(a.ring)
    width = _product_width(a._terms, b._terms)
    buckets_a = _residue_buckets(a._terms, p, width)
    buckets_b = _residue_buckets(b._terms, p, width)
    keep = {_residue(r, p) for r in keep}
    out: dict = {}
    for res_a, terms_a in buckets_a.items():
        for target in keep:
            terms_b = buckets_b.get(tuple((t - r) % p for t, r in zip(target, res_a)))
            if terms_b:
                _accumulate(out, terms_a, terms_b, field)
    return Polynomial(a.ring, _unpack(out, width, a.ring.num_vars, field))


def prune(a: Polynomial, exp_bound: int) -> Polynomial:
    """Oracle helper for the corner tests: drop terms with an exponent >= exp_bound.

    This is the reduction mod m^[exp_bound].
    """
    return Polynomial(a.ring, {e: c for e, c in a._terms.items() if max(e) < exp_bound})


# ---------------------------------------------------------------------------
# the Frobenius-defect operator: Witt-sum route and lift oracle
# ---------------------------------------------------------------------------

def delta(f: Polynomial) -> Polynomial:
    """Frobenius defect of f via the first Witt sum polynomial.

    For f = sum c_i M_i (distinct monomials M_i) the defect is the reduction
    mod p of ((sum y_i)^p - sum y_i^p) / p at y_i = c_i M_i.  Splitting the
    terms as f = A + B gives the integer identity

        delta(A + B) = delta(A) + delta(B)
                       + sum_{i=1}^{p-1} [binom(p, i) / p] * A^i * B^(p-i),

    and delta(c * M) = 0, so the term list is halved recursively.  The carry
    sum is evaluated by Horner's rule in A from the powers B, ..., B^(p-1):
    2p - 3 polynomial products per split, each bounded by the number of
    monomials of its degree, instead of one product per composition of p
    into the terms (about C(#terms + p - 1, p) of them).

    Vanishes on monomials; takes a homogeneous polynomial of weighted
    degree D to one of weighted degree p*D.  Works over every field;
    :func:`delta_lift_oracle` is the independent prime-field check.
    """
    ring = f.ring
    if len(f._terms) < 2:
        return Polynomial.zero(ring)  # before the O(p) carries: the dict route's monomials at large p
    field = ring.field
    p = field.p
    # k_i = binom(p, i) / p = (p-1)...(p-i+1) / i! = (-1)^(i-1) / i (mod p), i = 1 .. p-1
    carries = [field.from_int((-1) ** (i - 1) * pow(i, -1, p)) for i in range(1, p)]

    def rec(terms: list) -> Polynomial:
        if len(terms) < 2:
            return Polynomial.zero(ring)
        half = len(terms) // 2
        a, b = Polynomial(ring, dict(terms[:half])), Polynomial(ring, dict(terms[half:]))
        b_pows = [b]
        for _ in carries[1:]:
            b_pows.append(b_pows[-1] * b)
        # Horner in A: acc_i = k_i B^(p-i) + A * acc_(i+1), carry sum = A * acc_1
        acc = b.scaled(carries[-1])
        for k, b_pow in zip(reversed(carries[:-1]), b_pows[1:]):
            acc = a * acc + b_pow.scaled(k)
        return a * acc + rec(terms[:half]) + rec(terms[half:])

    return rec(list(f._terms.items()))


def delta_lift_oracle(f: Polynomial) -> Polynomial:
    """Oracle for :func:`delta`: the Frobenius defect by a Teichmuller lift to Z/p^2.

    Prime fields only.  Lifts each coefficient c to the Teichmuller
    representative c^p mod p^2, forms (fhat^p - phi(fhat)) / p with phi the
    termwise (coeff, p*exps) map, and reduces mod p.  Agrees identically
    with :func:`delta`; not used in production.
    """
    field = f.ring.field
    if field.e != 1:
        raise UsageError("the lift oracle is defined over prime fields only")
    p = field.p
    psq = p * p
    lifted = {e: pow(c, p, psq) for e, c in f._terms.items()}

    def zmul(a: dict, b: dict) -> dict:
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                out[exps] = (out.get(exps, 0) + c1 * c2) % psq
        return {e: c for e, c in out.items() if c}

    # fhat^p by square and multiply over Z/p^2
    power: dict = {(0,) * f.ring.num_vars: 1}
    base = lifted
    n = p
    while n:
        if n & 1:
            power = zmul(power, base)
        n >>= 1
        if n:
            base = zmul(base, base)

    # subtract phi(fhat): Teichmuller coefficients are Frobenius-fixed in Z/p^2
    for e, c in lifted.items():
        pe = tuple(p * x for x in e)
        power[pe] = (power.get(pe, 0) - c) % psq

    for c in power.values():
        if c % p:
            raise DomainError(f"{c} is not divisible by {p} in Z/{psq}")
    return Polynomial(f.ring, {e: c // p for e, c in power.items()})


# ---------------------------------------------------------------------------
# corner projection and Frobenius power ideals
# ---------------------------------------------------------------------------

def u_op(f: Polynomial) -> Polynomial:
    """Oracle for lambda and the T columns: the corner projection of the pushforward.

    The projection onto the top dual-basis component of the Frobenius
    pushforward.  Keeps exactly the terms c * x^e with every e_i = p-1
    (mod p), sending each to inverse_frobenius(c) * x^((e - (p-1))/p);
    everything else maps to 0.
    Semilinear: u_op(g^p * a) = g * u_op(a).
    """
    field = f.ring.field
    p = field.p
    ifrob = field.inverse_frobenius
    out = {}
    for exps, coeff in f._terms.items():
        if all(e % p == p - 1 for e in exps):
            out[tuple((e - (p - 1)) // p for e in exps)] = ifrob(coeff)
    return Polynomial(f.ring, out)


def in_frobenius_power(f: Polynomial, n: int) -> bool:
    """Oracle for ns = 1 and the corner test: membership in m^[p^n] = (x_i^(p^n))."""
    if n < 1:
        raise UsageError("the Frobenius power index must be positive")
    q = f.ring.field.p**n
    return all(max(exps) >= q for exps in f._terms)


def corner_coefficient(f: Polynomial, n: int) -> RawElement:
    """Oracle helper for the corner tests: the coefficient of (x_0 ... x_N)^(p^n - 1).

    Requires f homogeneous of weighted degree (p^n - 1) * d.  In that degree,
    the corner is the only monomial outside m^[p^n], so a zero corner
    coefficient is equivalent to membership in m^[p^n].
    """
    if n < 1:
        raise UsageError("the Frobenius power index must be positive")
    ring = f.ring
    q = ring.field.p**n
    target = (q - 1) * ring.d
    deg = f.weighted_degree()
    if not f.is_homogeneous() or (deg is not None and deg != target):
        raise UsageError(
            f"corner test needs a homogeneous polynomial of weighted degree {target}"
        )
    return f.coefficient((q - 1,) * ring.num_vars)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3, "u": 4}


class _Tokenizer:
    """Whitespace-insensitive lexer shared by the polynomial and scalar grammars.

    Digits are ``str.isdecimal`` characters, the ones ``int`` reads;
    ``isdigit`` also admits superscripts, which ``int`` rejects.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, message: str, pos: int | None = None) -> ParseError:
        """A ParseError at character ``pos`` (default the current one), as a UTF-8 byte offset.

        The text before ``pos`` is what the grammar consumed, so it encodes.
        """
        return ParseError(message, len(self.text[: self.pos if pos is None else pos].encode()))

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise self.error(f"expected '{ch}', found {got!r}")
        self.pos += 1

    def read_uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an unsigned integer")
        return int(self.text[start : self.pos])


def _signed_terms(tok: _Tokenizer, stop: str, what: str) -> Iterator[int]:
    """Yield the sign of each term of ['+'|'-'] term (('+'|'-') term)*, up to `stop`.

    The caller parses each term after its sign is yielded; the sum ends at
    the end of the input or before (not consuming) `stop`.
    """
    first = True
    while True:
        ch = tok.peek()
        if ch in ("", stop):
            if first:
                raise tok.error(f"empty {what} expression")
            return
        sign = 1
        if ch in "+-":
            tok.take()
            sign = -1 if ch == "-" else 1
        elif not first:
            raise tok.error(f"expected '+' or '-', found {ch!r}")
        first = False
        yield sign


def _parse_scalar_expr(tok: _Tokenizer, field: Field, stop: str) -> RawElement:
    """Sum of terms in the extension generator t, up to (not consuming) `stop`."""
    total = field.zero
    for sign in _signed_terms(tok, stop, "coefficient"):
        # one scalar term: [uint] ['*'] ['t' ['^' uint]]
        coeff = None
        if tok.peek().isdecimal():
            coeff = tok.read_uint()
            if tok.peek() == "*":
                tok.take()
        power = 0
        if tok.peek() == "t":
            if field.e == 1:
                raise tok.error("extension generator t used over a prime field")
            tok.take()
            power = 1
            if tok.peek() == "^":
                tok.take()
                power = tok.read_uint()
        if coeff is None and power == 0:
            raise tok.error("expected a coefficient term")
        if coeff is None:
            coeff = 1
        value = field.from_int(sign * coeff)
        if power:
            tgen = (0, 1) + (0,) * (field.e - 2)
            value = field.mul(value, field.pow(tgen, power))
        total = field.add(total, value)
    return total


def parse_scalar(field: Field, text: str) -> RawElement:
    """Parse a standalone field element ('7', 't+1', '2*t^2 + 1', ...)."""
    return _parse_scalar_expr(_Tokenizer(text), field, stop="")


def _parse_var(tok: _Tokenizer, ring: RingConfig) -> int:
    """A variable the caller has peeked: 'x' uint, or one of the aliases."""
    pos = tok.pos
    ch = tok.take()
    idx = tok.read_uint() if ch == "x" and tok.peek().isdecimal() else _ALIASES[ch]
    if idx >= ring.num_vars:
        raise tok.error(f"variable x{idx} out of range for a {ring.num_vars}-variable ring", pos)
    return idx


def parse_poly(text: str, ring: RingConfig) -> Polynomial:
    """Parse a polynomial expression into the given ring.

    Grammar (whitespace-insensitive)::

        poly   := ['+'|'-'] term (('+'|'-') term)*
        term   := coeff ['*' factors] | [coeff '*'?] factors
        factors:= factor ('*'? factor)*
        factor := var ('^' uint)?
        var    := 'x' uint | 'x' | 'y' | 'z' | 'w' | 'u'   (aliases -> x0..x4)
        coeff  := uint | '(' t-expression ')'              (parens need e > 1)

    Coefficients are reduced into the field and like terms combined.
    Raises ParseError on malformed input, with the UTF-8 byte offset of the error.
    """
    field = ring.field
    tok = _Tokenizer(text)
    terms: dict = {}
    for sign in _signed_terms(tok, "", "polynomial"):
        coeff = field.from_int(sign)
        exps = [0] * ring.num_vars
        saw_coeff = False
        saw_factor = False
        ch = tok.peek()
        if ch.isdecimal():
            n = tok.read_uint()
            coeff = field.mul(coeff, field.from_int(n))
            saw_coeff = True
        elif ch == "(":
            if field.e == 1:
                raise tok.error("parenthesized extension coefficient used over a prime field")
            tok.take()
            value = _parse_scalar_expr(tok, field, stop=")")
            tok.expect(")")
            coeff = field.mul(coeff, value)
            saw_coeff = True
        while True:
            ch = tok.peek()
            if ch == "*":
                tok.take()
                ch = tok.peek()
                if ch not in _ALIASES:
                    raise tok.error("expected a variable after '*'")
            if ch not in _ALIASES:
                break
            idx = _parse_var(tok, ring)
            power = 1
            if tok.peek() == "^":
                tok.take()
                power = tok.read_uint()
            if power >= MAX_EXPONENT:
                raise ResourceError("literal exponent exceeds the 2^32 headroom")
            exps[idx] += power
            saw_factor = True
        if not (saw_coeff or saw_factor):
            raise tok.error("expected a term")
        if not saw_factor and tok.peek() not in ("", "+", "-"):
            raise tok.error(f"unexpected character {tok.peek()!r}")

        key = tuple(exps)
        cur = terms.get(key, field.zero)
        terms[key] = field.add(cur, coeff)
    return Polynomial(ring, terms)


def format_poly(f: Polynomial) -> str:
    """Canonical-order rendering; parse_poly(format_poly(f)) reproduces f."""
    if f.is_zero():
        return "0"
    field = f.ring.field
    parts = []
    for exps, coeff in f.items():
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        cstr = field.format(coeff)
        if field.e > 1 and ("+" in cstr or "t" in cstr):
            cstr = f"({cstr})"
        if not factors:
            parts.append(cstr)
        elif cstr == "1":
            parts.append("*".join(factors))
        else:
            parts.append("*".join([cstr] + factors))
    return " + ".join(parts)
