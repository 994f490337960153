import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfsplit.errors import ParseError, ResourceError, UsageError
from qfsplit.ffield import field
from qfsplit.polyring import (
    MAX_EXPONENT,
    Polynomial,
    RingConfig,
    corner_coefficient,
    delta,
    delta_lift_oracle,
    format_poly,
    in_frobenius_power,
    mul_residues,
    parse_poly,
    parse_scalar,
    poly_pow,
    prune,
    u_op,
)

F2 = field(2)
F3 = field(3)
R2 = RingConfig(F2, (1, 1, 1, 1))
R3 = RingConfig(F3, (1, 1, 1, 1))
R2ab = RingConfig(F2, (1, 1))
R3ab = RingConfig(F3, (1, 1))


def random_quartic(rng, ring, max_terms=None):
    from qfsplit.cartier import basis

    monos = basis(ring).monomials
    p = ring.field.p
    terms = {}
    count = max_terms or len(monos)
    for mono in rng.sample(monos, min(count, len(monos))):
        terms[mono] = rng.randrange(p)
    return Polynomial(ring, terms)


# -- parsing ----------------------------------------------------------------

def test_parse_fermat_quartic():
    f = parse_poly("x0^4+x1^4+x2^4+x3^4", R3)
    assert len(f) == 4
    assert all(f.ring.weighted_degree(e) == 4 for e, _ in f.items())


def test_parse_weighted_sextic():
    ring = RingConfig(F3, (1, 1, 1, 3))
    f = parse_poly("x0^6+x1^6+x2^6+x3^2", ring)
    assert len(f) == 4
    assert all(ring.weighted_degree(e) == 6 for e, _ in f.items())


def test_parse_cancellation_gives_zero():
    assert parse_poly("x0 - x0", R3).is_zero()


def test_parse_aliases_and_implicit_multiplication():
    assert parse_poly("x*y^3", R2) == parse_poly("x0x1^3", R2)
    assert parse_poly("2x", R3ab) == parse_poly("2*x0", R3ab)
    quintic_ring = RingConfig(F2, (1, 1, 1, 1, 1))
    f = parse_poly("u^5", quintic_ring)
    assert f.coefficient((0, 0, 0, 0, 5)) == 1


def test_parse_signs():
    f = parse_poly("-x^4 + x^3y", R3)
    assert f.coefficient((4, 0, 0, 0)) == 2


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_poly("x0^4 + q", R3)
    assert err.value.offset == 7
    with pytest.raises(ParseError):
        parse_poly("x9", R3)  # unknown variable for this ring
    with pytest.raises(ParseError):
        parse_poly("", R3)
    with pytest.raises(ParseError):
        parse_poly("2*", R3)
    with pytest.raises(ParseError):
        parse_poly("(t+1)*x0^4", R3)  # extension coefficient over a prime field
    with pytest.raises(ParseError):
        parse_poly("x + + y", R3)  # empty term between signs
    with pytest.raises(ParseError):
        parse_poly("x0^", R3)
    with pytest.raises(ParseError):
        parse_poly("3 4", R3)


F9 = field(3, 2)
R9 = RingConfig(F9, (1, 1, 1, 1))
PARSERS = {
    "poly F3": lambda text: parse_poly(text, R3),
    "poly F9": lambda text: parse_poly(text, R9),
    "scalar F3": lambda text: parse_scalar(F3, text),
    "scalar F9": lambda text: parse_scalar(F9, text),
}

# malformed input -> (message, byte offset) of its ParseError, one or more
# inputs for every message the parser raises
PARSE_ERRORS = [
    ("poly F3", "", "empty polynomial expression", 0),
    ("poly F3", "   ", "empty polynomial expression", 3),
    ("poly F3", "x^2 3", "expected '+' or '-', found '3'", 4),
    ("poly F3", "x0^4 + q", "expected a term", 7),
    ("poly F3", "x + + y", "expected a term", 4),
    ("poly F3", "-", "expected a term", 1),
    ("poly F3", "x^4 -", "expected a term", 5),
    ("poly F3", ")x", "expected a term", 0),
    ("poly F3", "2*", "expected a variable after '*'", 2),
    ("poly F3", "2*3", "expected a variable after '*'", 2),
    ("poly F3", "3 4", "unexpected character '4'", 2),
    ("poly F3", "x0^", "expected an unsigned integer", 3),
    ("poly F3", "x9", "variable x9 out of range for a 4-variable ring", 0),
    ("poly F3", "u^4", "variable x4 out of range for a 4-variable ring", 0),
    ("poly F3", "(t+1)*x0^4", "parenthesized extension coefficient used over a prime field", 0),
    ("poly F9", "()*x^4", "empty coefficient expression", 1),
    ("poly F9", "( )x", "empty coefficient expression", 2),
    ("poly F9", "(t t)*x^4", "expected '+' or '-', found 't'", 3),
    ("poly F9", "(2 x", "expected '+' or '-', found 'x'", 3),
    ("poly F9", "(t+)*x^4", "expected a coefficient term", 3),
    ("poly F9", "(-)x", "expected a coefficient term", 2),
    ("poly F9", "(t", "expected ')', found ''", 2),
    ("poly F9", "(t^)x", "expected an unsigned integer", 3),
    ("poly F9", "(t)3", "unexpected character '3'", 3),
    ("scalar F9", "", "empty coefficient expression", 0),
    ("scalar F9", "t t", "expected '+' or '-', found 't'", 2),
    ("scalar F9", "2 3", "expected '+' or '-', found '3'", 2),
    ("scalar F9", "1 +", "expected a coefficient term", 3),
    ("scalar F9", "*t", "expected a coefficient term", 0),
    ("scalar F9", ")", "expected a coefficient term", 0),
    ("scalar F9", "t^", "expected an unsigned integer", 2),
    ("scalar F3", "t", "extension generator t used over a prime field", 0),
    # superscripts are digits to str.isdigit but not to int(); offsets count UTF-8 bytes
    ("poly F3", "x^²", "expected an unsigned integer", 2),
    ("poly F3", "x²", "expected '+' or '-', found '²'", 1),
    ("poly F3", "x^٤ + q", "expected a term", 7),  # x^4 in Arabic-Indic digits, one of two bytes
    ("scalar F9", "t^³", "expected an unsigned integer", 2),
    ("poly F9", "(٢t)x + é", "expected a term", 9),
]


@pytest.mark.parametrize("parser, text, message, offset", PARSE_ERRORS,
                         ids=[f"{c[0]}:{c[1]!r}" for c in PARSE_ERRORS])
def test_parse_error_message_and_offset(parser, text, message, offset):
    with pytest.raises(ParseError) as err:
        PARSERS[parser](text)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (at byte {offset})"


def test_parse_scalar_products_and_powers_of_t():
    F27 = field(3, 3)
    assert parse_scalar(F27, "2*t^2 + 1") == (1, 0, 2)
    assert parse_scalar(F27, "2t^2+t") == (0, 1, 2)
    assert parse_scalar(F27, "t^3") == (2, 1, 0)  # t^3 = t + 2 mod the default modulus
    assert parse_scalar(F27, "5") == (2, 0, 0)
    assert parse_scalar(F9, "-t^2") == (1, 0)


def test_parser_fuzz_never_crashes():
    from qfsplit.errors import QfsplitError

    rng = random.Random(11)
    alphabet = "xyzw0123456789^*+-() t"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 14)))
        try:
            f = parse_poly(text, R3)
        except QfsplitError:
            continue
        assert parse_poly(format_poly(f), R3) == f


def test_parse_extension_coefficients():
    F4 = field(2, 2)
    ring = RingConfig(F4, (1, 1))
    f = parse_poly("(t+1)*x0*x1 + x0^2", ring)
    assert f.coefficient((1, 1)) == (1, 1)


def test_format_parse_round_trip_random():
    rng = random.Random(0)
    for _ in range(25):
        f = random_quartic(rng, R3)
        assert parse_poly(format_poly(f), R3) == f


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 2),
    max_size=8,
))
def test_format_parse_round_trip_hypothesis(raw_terms):
    f = Polynomial(R3ab, raw_terms)
    assert parse_poly(format_poly(f), R3ab) == f


def test_extension_round_trip():
    F9 = field(3, 2)
    ring = RingConfig(F9, (1, 1))
    rng = random.Random(3)
    elems = list(F9.elements())
    for _ in range(20):
        terms = {(rng.randrange(4), rng.randrange(4)): rng.choice(elems) for _ in range(4)}
        f = Polynomial(ring, terms)
        assert parse_poly(format_poly(f), ring) == f


# -- arithmetic -------------------------------------------------------------

def test_freshman_dream_powers():
    assert poly_pow(parse_poly("x+y", R2ab), 2) == parse_poly("x^2+y^2", R2ab)
    assert poly_pow(parse_poly("x+y", R3ab), 3) == parse_poly("x^3+y^3", R3ab)


def test_power_zero_is_one():
    f = parse_poly("x+y", R3ab)
    assert poly_pow(f, 0) == Polynomial.one(R3ab)


def test_p_power_equals_termwise_frobenius():
    rng = random.Random(1)
    for ring in (R2, R3):
        p = ring.field.p
        for _ in range(10):
            f = random_quartic(rng, ring, max_terms=6)
            assert poly_pow(f, p) == f.frobenius_twist(1)


def test_exponent_overflow_guard():
    f = Polynomial(R2ab, {(MAX_EXPONENT - 2, 0): 1})
    with pytest.raises(ResourceError):
        f * f


def test_ring_mismatch_rejected():
    with pytest.raises(UsageError):
        parse_poly("x", R2ab) * parse_poly("x", R3ab)


# -- delta ------------------------------------------------------------------

def test_delta_small_examples():
    assert delta(parse_poly("x+y", R2ab)) == parse_poly("x*y", R2ab)
    assert delta(parse_poly("x+y", R3ab)) == parse_poly("x^2y + xy^2", R3ab)
    assert delta(parse_poly("x^2+x*y", R2ab)) == parse_poly("x^3*y", R2ab)


def test_delta_of_monomials_and_zero():
    assert delta(Polynomial.zero(R3ab)).is_zero()
    assert delta(parse_poly("2x", R3ab)).is_zero()
    assert delta(parse_poly("x^4", R3)).is_zero()


def test_delta_degree_law():
    rng = random.Random(2)
    for ring in (R2, R3):
        p = ring.field.p
        for _ in range(10):
            f = random_quartic(rng, ring, max_terms=8)
            if f.is_zero():
                continue
            df = delta(f)
            assert df.is_homogeneous()
            if not df.is_zero():
                assert df.weighted_degree() == p * 4


def test_delta_matches_lift_oracle_randomized():
    rng = random.Random(4)
    for p in (2, 3, 5):
        ring = RingConfig(field(p), (1, 1, 1))
        for _ in range(40):
            terms = {
                (rng.randrange(4), rng.randrange(4), rng.randrange(4)): rng.randrange(p)
                for _ in range(rng.randrange(1, 7))
            }
            f = Polynomial(ring, terms)
            assert delta(f) == delta_lift_oracle(f)


def test_delta_lift_oracle_requires_prime_field():
    ring = RingConfig(field(2, 2), (1, 1))
    with pytest.raises(UsageError):
        delta_lift_oracle(Polynomial.one(ring))


def test_delta_lift_oracle_needs_teichmuller_not_naive_lift():
    # (2x)^3 - 2x^3 = 6x^3, and 6/3 = 2 != 0 mod 3: the naive lift would give
    # a nonzero defect for a monomial.  The Teichmuller lift must give zero.
    f = parse_poly("2x", R3ab)
    assert delta_lift_oracle(f).is_zero()


def test_delta_of_double_point_quartic_lands_deep():
    # the catalogued double-point quartic has its whole defect inside m^[p^2],
    # which is what pins its non-splitting index at 2
    from qfsplit.catalog import RDP_QUARTIC_F2

    f = RDP_QUARTIC_F2.polynomial()
    assert in_frobenius_power(delta(f), 2)


def test_delta_over_extension_field():
    F4 = field(2, 2)
    ring = RingConfig(F4, (1, 1))
    f = parse_poly("(t)*x + (t+1)*y", ring)
    # delta = t(t+1) xy = 1*xy over F_4
    assert delta(f) == parse_poly("x*y", ring)


# -- delta against the multinomial oracle -------------------------------------
# Test-only oracle: the multinomial expansion that `delta` computed before
# the Witt-sum recursion.  It costs one step per composition of p into the
# terms, about C(#terms + p - 1, p), so it only runs on small forms.

def _sparse_compositions(total, parts, part_cap):
    """Compositions of `total` into `parts` slots with entries in [0, part_cap].

    Yielded sparsely as tuples of (slot index, positive part).
    """
    acc = []

    def rec(start, remaining):
        if remaining == 0:
            yield tuple(acc)
            return
        for idx in range(start, parts):
            if (parts - idx) * part_cap < remaining:
                break
            for part in range(1, min(part_cap, remaining) + 1):
                acc.append((idx, part))
                yield from rec(idx + 1, remaining - part)
                acc.pop()

    yield from rec(0, total)


def _multinomial_over_p(p, alpha):
    """binom(p; alpha) / p as an exact integer, for compositions with parts < p."""
    m = math.factorial(p)
    for a in alpha:
        m //= math.factorial(a)
    q, r = divmod(m, p)
    assert r == 0, f"multinomial({p}; {alpha}) not divisible by {p}"
    return q


def delta_multinomial_oracle(f):
    """Sum over compositions a of p into the terms c_i M_i, parts <= p-1, of
    [binom(p; a) / p] * prod (c_i M_i)^(a_i)."""
    ring = f.ring
    fld = ring.field
    p = fld.p
    terms = list(f.term_dict().items())
    out = {}
    for alpha in _sparse_compositions(p, len(terms), p - 1):
        coeff = fld.from_int(_multinomial_over_p(p, tuple(a for _, a in alpha)))
        exps = (0,) * ring.num_vars
        for idx, a in alpha:
            mono, c = terms[idx]
            coeff = fld.mul(coeff, fld.pow(c, a))
            exps = tuple(x + a * y for x, y in zip(exps, mono))
        out[exps] = fld.add(out.get(exps, fld.zero), coeff)
    return Polynomial(ring, out)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)])
def test_witt_delta_matches_multinomial_oracle(p, e):
    fld = field(p, e)
    rng = random.Random(100 * p + e)
    units = [c for c in fld.elements() if not fld.is_zero(c)]
    for nv in (3, 4, 5):
        ring = RingConfig(fld, (1,) * nv)
        forms = [
            Polynomial.zero(ring),
            Polynomial(ring, {tuple(rng.randrange(4) for _ in range(nv)): rng.choice(units)}),
        ]
        for _ in range(4):
            size = rng.randrange(2, 13)
            forms.append(Polynomial(ring, {
                tuple(rng.randrange(4) for _ in range(nv)): rng.choice(units) for _ in range(size)
            }))
        for f in forms:
            assert delta(f) == delta_multinomial_oracle(f), (p, e, str(f))


def test_delta_matches_lift_oracle_on_dense_p7_quartic():
    # the multinomial route would enumerate about 22 million compositions here
    from qfsplit.cartier import basis

    ring = RingConfig(field(7), (1, 1, 1, 1))
    rng = random.Random(77)
    f = Polynomial(ring, {m: rng.randrange(1, 7) for m in basis(ring).monomials})
    assert len(f) == 35
    assert delta(f) == delta_lift_oracle(f)


# -- products ---------------------------------------------------------------

def _naive_product(a, b):
    fld = a.ring.field
    out = {}
    for e1, c1 in a.term_dict().items():
        for e2, c2 in b.term_dict().items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            out[exps] = fld.add(out.get(exps, fld.zero), fld.mul(c1, c2))
    return Polynomial(a.ring, out)


def test_product_matches_termwise_reference():
    # exponents up to 2^k - 1 put the packed exponent fields at their limit
    rng = random.Random(13)
    for fld in (F2, F3, field(7), field(2, 2), field(3, 2)):
        ring = RingConfig(fld, (1, 1, 1))
        elems = list(fld.elements())
        for _ in range(15):
            top_a, top_b = 2 ** rng.randrange(1, 20), 2 ** rng.randrange(1, 20)
            a = Polynomial(ring, {tuple(rng.randrange(top_a) for _ in range(3)): rng.choice(elems)
                                  for _ in range(rng.randrange(0, 9))})
            b = Polynomial(ring, {tuple(rng.randrange(top_b) for _ in range(3)): rng.choice(elems)
                                  for _ in range(rng.randrange(0, 9))})
            assert a * b == _naive_product(a, b)


def test_mul_residues_is_the_filtered_product():
    rng = random.Random(14)
    for fld in (F2, F3, field(5), field(2, 2), field(3, 2)):
        p = fld.p
        ring = RingConfig(fld, (1, 1, 1))
        elems = list(fld.elements())
        for _ in range(12):
            a, b = (
                Polynomial(ring, {tuple(rng.randrange(6) for _ in range(3)): rng.choice(elems)
                                  for _ in range(rng.randrange(0, 15))})
                for _ in range(2)
            )
            # classes may be given by any representative, and repeated
            keep = [tuple(rng.randrange(-p, 2 * p) for _ in range(3)) for _ in range(rng.randrange(6))]
            classes = {tuple(x % p for x in r) for r in keep}
            expected = Polynomial(ring, {
                e: c for e, c in (a * b).term_dict().items() if tuple(x % p for x in e) in classes
            })
            assert mul_residues(a, b, keep + keep) == expected


# -- u operator -------------------------------------------------------------

def test_u_op_examples_p3():
    assert u_op(parse_poly("x^2y^2z^2w^2", R3)) == Polynomial.one(R3)
    assert u_op(parse_poly("x^5y^2z^2w^2", R3)) == parse_poly("x", R3)
    assert u_op(parse_poly("x^3y^2z^2w^2", R3)).is_zero()


def test_u_op_degree_drop():
    f = parse_poly("x^5y^2z^2w^2 + x^2y^5z^2w^2", R3)
    out = u_op(f)
    assert out.weighted_degree() == (f.weighted_degree() - 2 * 4) // 3


def test_u_op_semilinearity():
    rng = random.Random(5)
    for ring in (R2, R3):
        p = ring.field.p
        for _ in range(30):
            g = random_quartic(rng, ring, max_terms=4)
            a = random_quartic(rng, ring, max_terms=6)
            lhs = u_op(poly_pow(g, p) * a) if not g.is_zero() else u_op(Polynomial.zero(ring))
            rhs = g * u_op(a)
            if g.is_zero():
                assert lhs.is_zero()
            else:
                assert lhs == rhs


def test_u_op_semilinear_over_extension():
    F4 = field(2, 2)
    ring = RingConfig(F4, (1, 1))
    rng = random.Random(6)
    elems = list(F4.elements())
    for _ in range(20):
        g = Polynomial(ring, {(rng.randrange(3), rng.randrange(3)): rng.choice(elems)})
        a = Polynomial(ring, {(rng.randrange(4), rng.randrange(4)): rng.choice(elems)
                              for _ in range(3)})
        if g.is_zero():
            continue
        assert u_op(poly_pow(g, 2) * a) == g * u_op(a)


# -- Frobenius powers and corners --------------------------------------------

def test_in_frobenius_power_examples():
    f = parse_poly("x^4+y^4+z^4+w^4", R3)
    assert in_frobenius_power(f, 1)
    g = parse_poly("x^2y^2z^2w^2", R3)
    assert not in_frobenius_power(g, 1)


def test_corner_shortcut_matches_membership():
    # for homogeneous weighted degree (p^n - 1)d, corner zero <=> membership
    rng = random.Random(7)
    for _ in range(20):
        f = Polynomial(R3, {(2, 2, 2, 2): rng.randrange(3), (8, 0, 0, 0): rng.randrange(3),
                            (5, 2, 1, 0): rng.randrange(3), (3, 3, 2, 0): rng.randrange(3)})
        if f.is_zero():
            continue
        assert (corner_coefficient(f, 1) == 0) == in_frobenius_power(f, 1)


def test_corner_degree_precondition():
    with pytest.raises(UsageError):
        corner_coefficient(parse_poly("x^4", R3), 1)  # degree 4 != (3-1)*4

