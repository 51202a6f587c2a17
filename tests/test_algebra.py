"""Arithmetic, monomial orders, and the expression grammar."""

import operator
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacarena.algebra import (
    DEGREE_BOUND,
    GF,
    QQ,
    ZZ,
    MonomialOrder,
    Polynomial,
    _is_prime,
    _monomial_text,
    exponents,
    pack,
)
from jacarena.errors import DegreeOverflow, IncompatibleRings, RingSyntaxError, UnknownVariable
from jacarena.parsing import MAX_NESTING, _Parser, _scan, parse_polynomial, parse_ring


def poly(text, ring=ZZ, vars=("x", "y")):
    return parse_polynomial(text, ring, vars)


def test_product_difference_of_squares():
    assert poly("(x+1)*(x-1)") == poly("x^2-1")


def test_empty_product_power_zero():
    assert poly("(x+y)^0") == poly("1")
    assert Polynomial.zero(ZZ, ("x",)) ** 0 == Polynomial.constant(ZZ, 1, ("x",))


def test_gf5_product_reduces_coefficients():
    p = parse_polynomial("(X+2)*(X+3)", GF(5), ("X",))
    assert p == parse_polynomial("X^2+1", GF(5), ("X",))


def test_mixed_rings_rejected():
    with pytest.raises(IncompatibleRings):
        poly("x", ZZ) + poly("x", QQ)


def test_arithmetic_across_variable_lists_is_refused():
    p = parse_polynomial("x", ZZ, ("x",))
    for op in (operator.add, operator.sub, operator.mul):
        for q in (parse_polynomial("y", ZZ, ("y",)), poly("x"), poly("x", vars=("y", "x"))):
            with pytest.raises(IncompatibleRings):
                op(p, q)
        # remap is the way across: x over ("x",) onto ("x", "y")
        assert op(p.remap(("x", "y")), poly("y")) == op(poly("x"), poly("y"))


def test_parse_distributes():
    ring = parse_ring("ZZ[x,y]")
    assert ring.element("1 - y*(1 - 2*x)").poly == poly("1 - y + 2*x*y")


def test_parse_gf3_constant_vanishes():
    ring = parse_ring("GF(3)[x]")
    assert ring.element("x^2 + 3") == ring.element("x^2")


def test_parse_reduces_in_quotient():
    ring = parse_ring("QQ[x]/(x^2)")
    assert ring.element("(1-x)*(1+x)") == ring.one()


def test_parse_syntax_error_carries_position():
    with pytest.raises(RingSyntaxError) as info:
        parse_polynomial("1 + * 2", ZZ, ("x",))
    assert info.value.position == 4
    with pytest.raises(RingSyntaxError) as info:
        parse_ring("ZZ[X]/(X, X+)")
    assert info.value.position == 12


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_polynomial("x + z", ZZ, ("x", "y"))


def test_parse_long_sign_runs_without_recursion():
    x = ("x",)
    assert parse_polynomial("-" * 5001 + "x", ZZ, x) == poly("-x", vars=x)
    assert parse_polynomial("+-" * 3000 + "2", ZZ, x) == poly("2", vars=x)
    assert parse_polynomial("x*-+-x", ZZ, x) == poly("x^2", vars=x)


def test_parse_rejects_parentheses_nested_too_deep():
    x = ("x",)
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(deepest, ZZ, x) == poly("x", vars=x)
    assert parse_polynomial(f"{deepest}*{deepest}", ZZ, x) == poly("x^2", vars=x)
    with pytest.raises(RingSyntaxError) as info:
        parse_polynomial("(" + deepest + ")", ZZ, x)
    assert info.value.position == MAX_NESTING


def test_rational_coefficients_round_trip():
    p = parse_polynomial("1/2*x - 3/4", QQ, ("x",))
    assert p.terms[pack((1,), 1)] == Fraction(1, 2)
    assert parse_polynomial(p.to_text(), QQ, ("x",)) == p


def test_division_by_constant():
    assert parse_polynomial("(2*x+4)/2", ZZ, ("x",)) == poly("x+2", vars=("x",))
    with pytest.raises(RingSyntaxError):
        parse_polynomial("x/2", ZZ, ("x",))
    with pytest.raises(RingSyntaxError):
        parse_polynomial("x/(x+1)", QQ, ("x",))
    assert parse_polynomial("x/2", GF(5), ("x",)) == parse_polynomial("3*x", GF(5), ("x",))


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(RingSyntaxError):
        parse_ring("GF(10)[x]")


def _is_prime_by_trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_primality_agrees_with_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if _is_prime_by_trial_division(n)
    ]


def test_gf_modulus_bound():
    # psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to all 13
    # prime bases, so the test is exact only below it.
    psi13 = 3317044064679887385961981
    assert psi13 == 1287836182261 * 2575672364521 and _is_prime(psi13)
    assert GF(1000000000000000003).p == 1000000000000000003
    with pytest.raises(ValueError, match=f"below {psi13}"):
        GF(psi13)


def test_monomial_trailing_zero_normalization():
    assert pack((1,), 3) == pack((1, 0, 0), 3)
    p = Polynomial(ZZ, ("x", "y"), {(1,): 1, (1, 0): 2, (1, 0, 0): 3})
    assert p == poly("6*x")
    with pytest.raises(ValueError):
        pack((1, -1), 2)


def test_degree_bound():
    top = DEGREE_BOUND - 1
    assert exponents(pack((top,), 1), 1) == (top,)
    assert exponents(pack((top - 5, 5), 2), 2) == (top - 5, 5)
    for exps in [(DEGREE_BOUND,), (top, 1), (2**40,)]:
        with pytest.raises(DegreeOverflow):
            pack(exps, 2)
    with pytest.raises(DegreeOverflow):
        Polynomial(ZZ, ("x", "y"), {(top, 1): 1})
    x = poly("x", vars=("x",))
    big = x ** (DEGREE_BOUND // 2)
    assert big.degree_in("x") == DEGREE_BOUND // 2
    assert (big * x ** (DEGREE_BOUND // 2 - 1)).degree_in("x") == top
    with pytest.raises(DegreeOverflow):
        big * big
    with pytest.raises(DegreeOverflow):
        x ** DEGREE_BOUND
    with pytest.raises(DegreeOverflow):
        big.mul_term(pack((DEGREE_BOUND // 2,), 1), 1)
    # the zero polynomial has no degree to overflow
    zero = Polynomial.zero(ZZ, ("x",))
    assert (zero * big).is_zero() and (zero ** DEGREE_BOUND).is_zero()
    with pytest.raises(RingSyntaxError) as info:
        parse_polynomial(f"x + x^{DEGREE_BOUND}", ZZ, ("x",))
    assert info.value.position == 6
    with pytest.raises(RingSyntaxError) as info:
        parse_polynomial(f"x^{DEGREE_BOUND // 2} * x^{DEGREE_BOUND // 2}", ZZ, ("x",))
    assert info.value.position == 13
    assert parse_polynomial(f"x^{top}", ZZ, ("x",)) == x ** top


def test_power_coefficients_stop_at_the_literal_digit_limit():
    def const(text, ring=ZZ):
        return parse_polynomial(text, ring, ("x",))

    # 4,300 digits read as a literal and as a power; 4,301 as neither
    assert const("10^4299") == const("1" + "0" * 4299)
    assert const("2^14284").constant_value() == 2**14284
    for text, ring in [("10^4300", ZZ), ("2^14285", ZZ), ("2^4000000000", QQ), ("(1/3)^9100", QQ),
                       ("x*(2*x)^15000", ZZ)]:
        with pytest.raises(RingSyntaxError, match="coefficient would pass 4300 digits") as info:
            const(text, ring)
        assert info.value.position == text.index("^") + 1
    with pytest.raises(RingSyntaxError, match="Exceeds the limit [(]4300 digits[)]"):
        const("1" + "0" * 4300)
    # units, zero and residues take any exponent
    assert const("1^4000000000 + (-1)^4000000001 + 0^4000000000").is_zero()
    assert const("2^4000000000", GF(7)).constant_value() == pow(2, 4000000000, 7)
    assert const("(x/2)^3", QQ).to_text() == "1/8*x^3"


def test_built_coefficients_stop_at_the_literal_digit_limit():
    def parse(text, ring=ZZ):
        return parse_polynomial(text, ring, ("x",))

    nines = "9" * 4300
    # each text builds a coefficient of 4,301 or more digits at the last
    # token op, or at the exponent after it
    for text, op, what in [
        ("10^4000*10^4000", "*", "product"),
        (f"{nines}*x + x", "+", "sum"),
        (f"-{nines}*x - x", "-", "sum"),
        ("(x + 10^3000)*(x + 10^3000)", "*", "product"),
        ("10^2200*(x + 10^2200)", "*", "product"),
        ("(x + 10^3000)^2", "^", "power"),
    ]:
        with pytest.raises(RingSyntaxError, match=f"a {what}'s coefficient would pass 4300 digits") as info:
            parse(text)
        assert info.value.position == text.rindex(op) + (op == "^"), text
    for text in ["1/10^3000/10^3000", "(x/10^3000 + 1)/10^3000"]:
        with pytest.raises(RingSyntaxError, match="a quotient's coefficient") as info:
            parse(text, QQ)
        assert info.value.position == text.rindex("/")
    # just below the cap; residues are reduced, so GF(p) has none
    assert parse(f"{nines}*x + 0*x").to_text() == f"{nines}*x"
    assert parse("10^2150*10^2149").constant_value() == 10**4299
    assert parse(f"{nines} + {nines}", GF(7)).constant_value() == (2 * int(nines)) % 7


def test_power_of_a_sum_stops_at_the_expansion_bound():
    # over GF(2) the estimate is (e+1)^2 * (2 + 512) against 2^31
    x1 = parse_polynomial("x + 1", GF(2), ("x",))
    assert parse_polynomial("(x+1)^2043", GF(2), ("x",)) == x1 ** 2043
    for text, ring in [("(x+1)^2044", GF(2)), ("(x+1)^100000", ZZ), ("(x/3+1)^300", QQ)]:
        start = time.perf_counter()
        with pytest.raises(RingSyntaxError, match="power of a sum is too large") as info:
            parse_polynomial(text, ring, ("x",))
        assert time.perf_counter() - start < 0.1
        assert info.value.position == text.index("^") + 1
    # a power has no more terms than monomials of its degree: 57 for a sum of
    # 7 terms of degree 7 to the 8th, where C(14, 6) = 3003 would pass the bound
    x7 = parse_polynomial("+".join(f"x^{i}" for i in range(1, 8)), QQ, ("x",))
    assert parse_polynomial(f"({x7.to_text()})^8", QQ, ("x",)) == x7 ** 8
    # a term count past the 4,300 digits that str() prints is named by its size
    names = tuple(f"x{i}" for i in range(700))
    with pytest.raises(RingSyntaxError, match="power of a sum is too large to expand: over 10"):
        parse_polynomial("(" + "+".join(names) + ")^2000000000", QQ, names)


def test_checked_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        Polynomial(ZZ, ("x",), {(-1,): 1})
    with pytest.raises(ValueError):
        Polynomial(ZZ, ("x",), {(1, 1): 1})
    with pytest.raises(ValueError):
        Polynomial(ZZ, ("x",), {(1,): Fraction(1, 2)})
    with pytest.raises(ZeroDivisionError):
        Polynomial(GF(5), ("x",), {(1,): Fraction(1, 5)})


def test_qq_normalize_keeps_integers_as_int():
    assert type(QQ.normalize(Fraction(6, 2))) is int
    assert type(QQ.normalize(4)) is int
    assert QQ.normalize(Fraction(3, 6)) == Fraction(1, 2)
    assert QQ.normalize(2.5) == Fraction(5, 2)


def test_zz_normalize_takes_a_float_exactly_or_refuses_it():
    assert ZZ.normalize(3.0) == 3 and type(ZZ.normalize(3.0)) is int
    assert ZZ.normalize(Fraction(-8, 2)) == -4
    with pytest.raises(ValueError):
        ZZ.normalize(2.5)
    with pytest.raises(ValueError):
        parse_ring("ZZ[X]").element(2.5)


def test_gf_normalize_takes_a_float_exactly():
    # 2.5 = 5/2, and 5 * 2^(-1) is 0 in GF(5), not the truncation 2
    assert GF(5).normalize(2.5) == 0
    assert GF(7).normalize(2.5) == 5 * pow(2, -1, 7) % 7
    assert GF(7).normalize(-3.0) == 4
    assert parse_ring("GF(5)[X]").element(2.5).is_zero()
    with pytest.raises(ZeroDivisionError):
        GF(2).normalize(0.5)


def test_ring_text_round_trip():
    for text in ("ZZ", "QQ[x]", "GF(7)[a,b]/(a^2 + b, 3)", "ZZ/4", "ZZ[X]/(2, X^2)"):
        ring = parse_ring(text)
        again = parse_ring(ring.to_text())
        assert again == ring


def test_parse_ring_gives_one_presentation_per_text():
    text = "GF(7)[a,b]/(a^2 + b, 3)"
    ring = parse_ring(text)
    assert parse_ring(text) is ring
    assert parse_ring("ZZ[X]") is not parse_ring("ZZ[Y]")


@pytest.mark.parametrize(
    "text, message, position",
    [("ZZ[X,X]", "duplicate variable 'X'", 5), ("GF(4)[X]", "GF modulus must be a prime, got 4", 3)],
)
def test_parse_ring_refuses_a_text_again_on_every_call(text, message, position):
    for _ in range(3):
        with pytest.raises(RingSyntaxError) as info:
            parse_ring(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position


# -- randomized properties ---------------------------------------------------

RINGS = st.sampled_from([ZZ, QQ, GF(5), GF(2)])


@st.composite
def polynomials(draw, ring=None, vars=None, max_vars=2, max_deg=3, max_terms=4):
    ring = ring or draw(RINGS)
    if vars is None:
        vars = ("x", "y", "z")[: draw(st.integers(0, max_vars))]
    nvars = len(vars)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
        coeff = draw(st.integers(-9, 9))
        terms[exps] = terms.get(exps, 0) + coeff
    return Polynomial(ring, vars, terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    ring = data.draw(RINGS)
    vars = ("x", "y")[: data.draw(st.integers(0, 2))]
    a, b, c = (data.draw(polynomials(ring=ring, vars=vars)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Polynomial.zero(ring, a.vars)
    assert a - b == a + (-b)
    assert a - a == Polynomial.zero(ring, a.vars)
    assert (a - b) + b == a


# -- packed monomials against plain exponent tuples ---------------------------

NAMES = ("x", "y", "z", "w")


@st.composite
def exponent_vectors(draw, n, count):
    """count exponent vectors over n variables whose degrees sum below the
    bound; each exponent is small or takes nearly all the degree left."""
    left = DEGREE_BOUND - 1
    vectors = []
    for _ in range(count):
        exps = []
        for _ in range(n):
            e = draw(st.one_of(st.integers(0, min(4, left)), st.integers(max(0, left - 3), left)))
            left -= e
            exps.append(e)
        vectors.append(tuple(exps))
    return draw(st.permutations(vectors))


def _revlex_reference(e):
    return (sum(e), tuple(-x for x in reversed(e)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_monomial_mul_and_lcm_match_checked_constructor(data):
    n = data.draw(st.integers(0, 4))
    a, b = data.draw(exponent_vectors(n, 2))
    order = MonomialOrder(NAMES[:n])
    ma, mb = pack(a, n), pack(b, n)
    assert exponents(ma, n) == a
    assert exponents(ma + mb, n) == tuple(x + y for x, y in zip(a, b))
    assert order.lcm(ma, mb) == pack(tuple(map(max, a, b)), n)
    divides = all(x <= y for x, y in zip(a, b))
    assert order.divides(ma, mb) == divides
    if divides:
        assert mb - ma == pack(tuple(y - x for x, y in zip(a, b)), n)
    assert (ma == mb) == (order.key(ma) == order.key(mb)) == (a == b)
    assert (order.key(ma) < order.key(mb)) == (_revlex_reference(a) < _revlex_reference(b))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_order_key_sorts_like_the_reference(data):
    n = data.draw(st.integers(0, 4))
    small = st.tuples(*[st.integers(0, 3)] * n)
    vectors = data.draw(st.lists(small, max_size=10))
    order = MonomialOrder(NAMES[:n])
    # stable sorts of a list with repeats: equal keys keep their input order
    by_key = [exponents(m, n) for m in sorted((pack(e, n) for e in vectors), key=order.key)]
    assert by_key == sorted(vectors, key=_revlex_reference)
    if vectors:
        terms = {pack(e, n): i for i, e in enumerate(vectors)}
        lead, _ = order.leading(terms)
        assert exponents(lead, n) == max(vectors, key=_revlex_reference)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_order_total_and_multiplicative(data):
    n = data.draw(st.integers(0, 4))
    u, v, w = (pack(e, n) for e in data.draw(exponent_vectors(n, 3)))
    order = MonomialOrder(NAMES[:n])
    ku, kv = order.key(u), order.key(v)
    assert (ku < kv) or (kv < ku) or (u == v)
    if ku < kv:
        assert order.key(u + w) < order.key(v + w)
    if u != 0:
        assert order.key(0) < order.key(u)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_print_parse_round_trip(data):
    ring = data.draw(RINGS)
    p = data.draw(polynomials(ring=ring, max_vars=2))
    text = p.to_text()
    assert parse_polynomial(text, ring, p.vars) == p


SCAN_RINGS = st.sampled_from([ZZ, QQ, GF(2), GF(5), GF(1000000007)])
SCAN_VARS = st.sampled_from([("x",), ("X", "Y"), ("x", "y", "z"), ("X1", "_t", "ab")])


@st.composite
def printed_polynomials(draw, rings=SCAN_RINGS):
    """A polynomial over 1-3 variables, with coefficients up to 60 digits,
    fractions over QQ, and exponents small or near the degree bound."""
    ring, vars = draw(rings), draw(SCAN_VARS)
    coeffs = st.one_of(st.integers(-9, 9), st.integers(-10**60, 10**60))
    if ring == QQ:
        coeffs = st.builds(Fraction, coeffs, st.integers(1, 10**20))
    vectors = draw(exponent_vectors(len(vars), draw(st.integers(0, 5))))
    return Polynomial(ring, vars, {e: draw(coeffs) for e in vectors})


def _outcome(read, text, ring, vars):
    """The terms and coefficient types read, or the error's class and message
    (which carries the position)."""
    try:
        terms = read(text, ring, vars).terms
    except (RingSyntaxError, ValueError) as exc:
        return type(exc), str(exc)
    return {m: (c, type(c)) for m, c in terms.items()}


def _parser_alone(text, ring, vars):
    parser = _Parser(text, ring, vars)
    poly = parser.parse_poly()
    parser.expect_end()
    return poly


@settings(max_examples=200, deadline=None)
@given(printed_polynomials())
def test_term_scanner_reads_printed_text_exactly(p):
    text = p.to_text()
    assert _scan(text, p.ring, p.vars) is not None, text
    assert _outcome(parse_polynomial, text, p.ring, p.vars) == {
        m: (c, type(c)) for m, c in p.terms.items()
    }


# Texts that leave the printed form, each built from a printed polynomial.
DEVIATIONS = {
    "spacing": lambda t, v, r: t.replace(" ", "") if " " in t else f" {t}",
    "wide spacing": lambda t, v, r: t.replace(" ", "  ") + " ",
    "parentheses": lambda t, v, r: f"({t})",
    "non-ASCII digit": lambda t, v, r: f"{t} + \u0663*{v[0]}",
    "superscript digit": lambda t, v, r: f"{t} - \u00b2",
    "long literal": lambda t, v, r: f"{t} + {'7' * (4301 + r)}*{v[0]}",
    "degree bound": lambda t, v, r: f"{v[0]}^{DEGREE_BOUND - r}*{v[-1]}^{r + 1}",
    "unknown name": lambda t, v, r: f"{t} + 3*w",
    "repeated monomial": lambda t, v, r: f"{t} + {t}",
    "zero coefficient": lambda t, v, r: f"{t} - 0*{v[0]}",
    "multiple of p": lambda t, v, r: f"{t} + {2 * 1000000007 * 5}*{v[-1]}",
    "division": lambda t, v, r: f"{t} + {4 * r}/{r + 1}*{v[0]}",
    "zero divisor": lambda t, v, r: f"{t} + 3/{5 * r}",
    "signs": lambda t, v, r: f"-{v[0]}^{DEGREE_BOUND - 1 - r} - {t}",
}


@settings(max_examples=300, deadline=None)
@given(printed_polynomials(), st.sampled_from(sorted(DEVIATIONS)), st.integers(0, 3))
def test_term_scanner_leaves_other_text_to_the_parser(p, kind, r):
    text = DEVIATIONS[kind](p.to_text(), p.vars, r)
    # c/d is printed form over QQ and GF(p), a multiple of p outside GF(p),
    # and signs are printed form everywhere, though GF(p) prints none
    if kind not in ("division", "zero divisor", "multiple of p", "signs"):
        assert _scan(text, p.ring, p.vars) is None, (kind, text)
    expected = _outcome(_parser_alone, text, p.ring, p.vars)
    assert _outcome(parse_polynomial, text, p.ring, p.vars) == expected, (kind, text)


# Expression text outside the printed form, read by the parser alone, with
# the terms, coefficient types and errors (message and position) it gives.
_SUM49 = "+".join(f"x^{i}" for i in range(1, 50)) + "+10^4000/3"
PARSER_PINS = [
    ("sum-no-spaces", ZZ, "x+2*y-3", {(0, 0): -3, (1, 0): 1, (0, 1): 2}),
    ("fractions-no-spaces", QQ, "1/2*x-y/3+5/6",
     {(0, 0): Fraction(5, 6), (1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3)}),
    ("nested", ZZ, "((x+(y-1))*(x-(y+1)))", {(0, 0): 1, (1, 0): -2, (2, 0): 1, (0, 2): -1}),
    ("nested-singles", ZZ, "(((x)))-((y))", {(1, 0): 1, (0, 1): -1}),
    ("sign-run", ZZ, "--x+-+-y", {(1, 0): 1, (0, 1): 1}),
    ("sign-run-in-product", GF(7), "x*-+-x-(-(-y))*-3", {(0, 1): 3, (2, 0): 1}),
    ("negated-power-of-sum", ZZ, "-(x-y)^2", {(2, 0): -1, (1, 1): 2, (0, 2): -1}),
    ("zero-times-x", ZZ, "0*x+y", {(0, 1): 1}),
    ("x-to-zero", ZZ, "x^0+y^0", {(0, 0): 2}),
    ("zero-to-n", ZZ, "0^5+x", {(1, 0): 1}),
    ("zero-to-zero", ZZ, "0^0", {(0, 0): 1}),
    ("zero-sum-to-zero", QQ, "(x-x)^0", {(0, 0): 1}),
    ("one-to-n", ZZ, "1^4000000000*x", {(1, 0): 1}),
    ("minus-one-to-n", ZZ, "(-1)^3*x+(-1)^4000000000", {(0, 0): 1, (1, 0): -1}),
    ("fraction-power", QQ, "(-1/2)^3*y", {(0, 1): Fraction(-1, 8)}),
    ("divide-zz", ZZ, "(2*x+4)/2", {(0, 0): 2, (1, 0): 1}),
    ("divide-qq", QQ, "(x+1)/3/2", {(0, 0): Fraction(1, 6), (1, 0): Fraction(1, 6)}),
    ("divide-qq-integral", QQ, "x/2*2+4/2+2/4", {(0, 0): Fraction(5, 2), (1, 0): 1}),
    ("divide-gf", GF(7), "x/3+1/2", {(0, 0): 4, (1, 0): 5}),
    ("divide-power-qq", QQ, "(x/2)^3", {(3, 0): Fraction(1, 8)}),
    ("multiple-of-p", GF(7), "14*x+7+(x+1)^7", {(0, 0): 1, (7, 0): 1}),
    ("inexact-zz", ZZ, "(x+3)/2",
     (RingSyntaxError, "1 is not divisible by 2 over ZZ (at position 5)")),
    ("degree-product", ZZ, "x^2147483647*y",
     (RingSyntaxError, "total degree 2147483648 is not below 2147483648 (at position 12)")),
    ("degree-power", ZZ, "x^2147483648",
     (RingSyntaxError, "total degree 2147483648 is not below 2147483648 (at position 2)")),
    ("degree-power-of-sum", ZZ, "(x+y)^2147483648",
     (RingSyntaxError, "total degree 2147483648 is not below 2147483648 (at position 6)")),
    ("digits-product", ZZ, "10^4000*10^4000",
     (RingSyntaxError, "a product's coefficient would pass 4300 digits (at position 7)")),
    ("digits-quotient", QQ, "1/10^3000/10^3000",
     (RingSyntaxError, "a quotient's coefficient would pass 4300 digits (at position 9)")),
    ("digits-sum", ZZ, "9" * 4300 + "*x+x",
     (RingSyntaxError, "a sum's coefficient would pass 4300 digits (at position 4302)")),
    ("digits-power", ZZ, "10^4300",
     (RingSyntaxError, "a power's coefficient would pass 4300 digits (at position 3)")),
    ("digits-power-precheck", ZZ, "2^14285",
     (RingSyntaxError, "a power's coefficient would pass 4300 digits (at position 2)")),
    ("digits-power-denominator", QQ, "(1/3)^9100",
     (RingSyntaxError, "a power's coefficient would pass 4300 digits (at position 6)")),
    ("digits-power-of-sum", ZZ, "(x+10^3000)^2",
     (RingSyntaxError, "a power's coefficient would pass 4300 digits (at position 12)")),
    ("power-of-a-sum", ZZ, "(x+1)^100000",
     (RingSyntaxError, "a power of a sum is too large to expand:"
      " up to 100001 terms of 200000-bit coefficients (at position 6)")),
    ("product-of-sums", QQ, f"({_SUM49})*({_SUM49})",
     (RingSyntaxError, "a product of sums is too large to expand:"
      " up to 2500 terms of 26576-bit coefficients (at position 247)")),
    ("nesting", ZZ, "(" * 101 + "x" + ")" * 101,
     (RingSyntaxError, "parentheses nest deeper than 100 (at position 100)")),
    ("unknown-name", ZZ, "x+w", (UnknownVariable, "unknown variable 'w' (at position 2)")),
    ("divisor-sum", QQ, "x/(x+1)",
     (RingSyntaxError, "divisor must be a nonzero constant (at position 1)")),
    ("divisor-variable", ZZ, "x/y",
     (RingSyntaxError, "divisor must be a nonzero constant (at position 1)")),
    ("divisor-zero", ZZ, "x/0",
     (RingSyntaxError, "divisor must be a nonzero constant (at position 1)")),
    ("divisor-zero-sum", QQ, "x/(x-x)",
     (RingSyntaxError, "divisor must be a nonzero constant (at position 1)")),
    ("missing-operand", ZZ, "1+*2", (RingSyntaxError, "unexpected '*' (at position 2)")),
    ("exponent-not-integer", ZZ, "x^y",
     (RingSyntaxError, "expected 'int', found 'y' (at position 2)")),
    ("unclosed", ZZ, "(x+1", (RingSyntaxError, "expected ')', found 'end' (at position 4)")),
]


@pytest.mark.parametrize(
    "ring, text, expected", [pin[1:] for pin in PARSER_PINS], ids=[pin[0] for pin in PARSER_PINS]
)
def test_parser_reads_text_outside_the_printed_form_as_pinned(ring, text, expected):
    vars = ("x", "y")
    assert _scan(text, ring, vars) is None
    outcome = _outcome(parse_polynomial, text, ring, vars)
    if isinstance(expected, tuple):
        assert outcome == (expected[0], expected[1])
    else:
        assert outcome == {pack(e, 2): (c, type(c)) for e, c in expected.items()}


def test_polynomials_over_different_variable_lists_are_unequal():
    short = Polynomial.variable(QQ, "x", ("x",))
    long = Polynomial.variable(QQ, "x", ("x", "y"))
    assert short != long
    assert len({short, long}) == 2
    assert short.remap(long.vars) == long


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_hash_agrees_with_equality_over_one_variable_list(data):
    ring = data.draw(RINGS)
    vars = ("x", "y", "z")[: data.draw(st.integers(0, 3))]
    p, q = (data.draw(polynomials(ring=ring, vars=vars, max_deg=1, max_terms=2)) for _ in range(2))
    n = len(vars)
    # the same terms built in the other order
    same = Polynomial(ring, vars, {exponents(m, n): c for m, c in reversed(p.terms.items())})
    assert same == p and hash(same) == hash(p)
    assert (p == q) == (p.terms == q.terms)
    if p == q:
        assert hash(p) == hash(q)
    extra = data.draw(st.lists(st.sampled_from(["u", "v", "w"]), min_size=1, unique=True))
    longer = p.remap(data.draw(st.permutations(vars + tuple(extra))))
    assert longer != p
    assert longer.remap(vars) == p


# -- the unchecked fast paths against the checking constructors ---------------

# Variable lists in any order of x, y, z: operands of one operation share one.
VAR_LISTS = st.permutations(["x", "y", "z"]).flatmap(
    lambda names: st.integers(0, 3).map(lambda n: tuple(names[:n]))
)
DIFF_RINGS = st.sampled_from([ZZ, QQ, GF(7)])


# Pairwise coprime denominators up to 10^6 (999983 is prime): a QQ product
# clears each operand with a true lcm, and a denominator cancels against an
# even or a multiple-of-3 numerator often enough to give integral terms.
QQ_DENOMINATORS = st.sampled_from([1, 2, 3, 5, 7, 999983, 6, 10, 35])


@st.composite
def operands(draw, ring, vars=None):
    if vars is None:
        vars = draw(VAR_LISTS)
    if ring == QQ:
        coeffs = st.builds(Fraction, st.integers(-10**6, 10**6), QQ_DENOMINATORS)
        size = 6
    else:
        coeffs = st.integers(-9, 9)
        size = 4
    exps = st.tuples(*[st.integers(0, 3)] * len(vars))
    return Polynomial(ring, vars, draw(st.dictionaries(exps, coeffs, max_size=size)))


def _reference_product(a, b):
    """a*b summed from single-term products built by the checking constructor."""
    vars = a.vars
    n = len(vars)
    out = Polynomial.zero(a.ring, vars)
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            exps = tuple(map(operator.add, exponents(m1, n), exponents(m2, n)))
            out = out + Polynomial(a.ring, vars, {exps: c1 * c2})
    return out


def _is_canonical(p):
    """Packed monomials, reduced coefficients, and over QQ an int for each
    integral coefficient."""
    n = len(p.vars)
    terms = {exponents(m, n): c for m, c in p.terms.items()}
    return (
        all(pack(exponents(m, n), n) == m for m in p.terms)
        and Polynomial(p.ring, p.vars, terms).terms == p.terms
        and all(type(c) is int or c.denominator > 1 for c in p.terms.values())
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_matches_checked_reference(data):
    ring = data.draw(DIFF_RINGS)
    vars = data.draw(VAR_LISTS)
    a = data.draw(operands(ring, vars))
    b = data.draw(operands(ring, vars))
    product = a * b
    reference = _reference_product(a, b)
    assert product.vars == reference.vars
    assert product.terms == reference.terms
    assert product.to_text() == reference.to_text()
    assert _is_canonical(product)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_power_is_the_product_of_copies(data):
    ring = data.draw(DIFF_RINGS)
    p = data.draw(operands(ring))
    e = data.draw(st.integers(0, 7))
    product = Polynomial.constant(ring, 1, p.vars)
    for _ in range(e):
        product = product * p
    power = p ** e
    assert power.vars == product.vars
    assert power.terms == product.terms
    assert power.to_text() == product.to_text()
    assert _is_canonical(power)


@pytest.mark.parametrize("e", [-1, 1.5])
def test_power_rejects_other_exponents(e):
    with pytest.raises(ValueError):
        poly("x+y") ** e


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_remap_matches_checked_constructor(data):
    p = data.draw(operands(data.draw(DIFF_RINGS)))
    extra = tuple(data.draw(st.lists(st.sampled_from(["u", "v", "w"]), unique=True)))
    permuted = tuple(data.draw(st.permutations(p.vars + extra)))
    n = len(p.vars)
    for new_vars in (p.vars + extra, permuted):
        terms = {
            tuple(exponents(m, n)[p.vars.index(v)] if v in p.vars else 0 for v in new_vars): c
            for m, c in p.terms.items()
        }
        q = p.remap(new_vars)
        assert q.vars == new_vars
        assert q.terms == Polynomial(p.ring, new_vars, terms).terms
        assert _is_canonical(q)
        back = q.remap(p.vars)
        assert back.vars == p.vars and back.terms == p.terms


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_to_text_orders_terms_by_degree_then_exponents(data):
    p = data.draw(operands(data.draw(DIFF_RINGS)))
    n = len(p.vars)
    text = p.to_text()
    assert parse_polynomial(text, p.ring, p.vars) == p
    if p.is_zero():
        return
    shown = [parse_polynomial(piece, p.ring, p.vars) for piece in re.split(" [+-] ", text)]
    assert all(len(t.terms) == 1 for t in shown)
    seen = [exponents(next(iter(t.terms)), n) for t in shown]
    expected = sorted((exponents(m, n) for m in p.terms), key=lambda e: (sum(e), e), reverse=True)
    assert seen == expected


def _reference_text(p):
    """``to_text`` by unpacking every monomial into its exponent tuple on
    each call, sorting by (degree, exponents) and rendering term by term."""
    if not p.terms:
        return "0"
    n = len(p.vars)
    ordered = sorted(
        ((sum(exponents(m, n)), exponents(m, n), c) for m, c in p.terms.items()), reverse=True
    )
    pieces = []
    for _, exps, coeff in ordered:
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, exps) if e)
        neg = coeff < 0
        mag = -coeff if neg else coeff
        mag = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        text = body if body and mag == "1" else f"{mag}*{body}" if body else mag
        if not pieces:
            pieces.append(f"-{text}" if neg else text)
        else:
            pieces.append(f" - {text}" if neg else f" + {text}")
    return "".join(pieces)


@settings(max_examples=200, deadline=None)
@given(printed_polynomials(rings=st.sampled_from([ZZ, QQ, GF(2), GF(32003)])))
def test_to_text_matches_the_reference_renderer(p):
    expected = _reference_text(p)
    _monomial_text.cache_clear()
    assert p.to_text() == expected  # every monomial text computed
    assert p.to_text() == expected  # every monomial text from the cache


def test_monomial_text_is_keyed_by_the_variable_list():
    m, one = pack((2, 1), 2), pack((0, 1), 2)
    _monomial_text.cache_clear()
    assert Polynomial._raw(ZZ, ("X", "Y"), {m: 3, one: -1}).to_text() == "3*X^2*Y - Y"
    assert Polynomial._raw(ZZ, ("Y", "X"), {m: 3, one: -1}).to_text() == "3*Y^2*X - X"


@pytest.mark.parametrize("value", [0, 3, -7, Fraction(1, 2)])
def test_qq_int_and_fraction_coefficients_agree(value):
    vars, monos = ("x",), [(1,), ()]
    plain = Polynomial(QQ, vars, dict.fromkeys(monos, value))
    as_fraction = Polynomial(QQ, vars, dict.fromkeys(monos, Fraction(value)))
    # 1/2 * (2*value) leaves an integral Fraction in the product's term dict
    by_arithmetic = Polynomial.constant(QQ, Fraction(1, 2), vars) * Polynomial(
        QQ, vars, dict.fromkeys(monos, 2 * value)
    )
    for p in (as_fraction, by_arithmetic):
        assert p == plain
        assert hash(p) == hash(plain)
        assert p.to_text() == plain.to_text()


# -- the parser against Polynomial arithmetic ----------------------------------

# Expression trees: ("lit", n), ("var", name), ("paren", a), ("neg", a),
# ("pos", a), ("pow", a, e), and ("add" | "sub" | "mul" | "div", a, b).
TREE_VARS = ("x", "y", "z")
_PRECEDENCE = {"add": 0, "sub": 0, "mul": 1, "div": 1, "neg": 2, "pos": 2, "pow": 3}
_BINARY = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}

TREES = st.recursive(
    st.one_of(
        st.tuples(st.just("lit"), st.one_of(st.integers(0, 9), st.integers(0, 10**6))),
        st.tuples(st.just("var"), st.sampled_from(TREE_VARS)),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["paren", "neg", "pos"]), sub),
        st.tuples(st.just("pow"), sub, st.integers(0, 3)),
        st.tuples(st.sampled_from(sorted(_BINARY)), sub, sub),
    ),
    max_leaves=10,
)


def _render(node, level=0):
    """The text of a tree, parenthesised only where the grammar needs it
    and where the tree says so."""
    kind = node[0]
    if kind == "lit":
        return str(node[1])
    if kind == "var":
        return node[1]
    if kind == "paren":
        return "(" + _render(node[1]) + ")"
    if kind in ("neg", "pos"):
        text = ("-" if kind == "neg" else "+") + _render(node[1], 2)
    elif kind == "pow":
        text = f"{_render(node[1], 3)}^{node[2]}"
    else:
        at = _PRECEDENCE[kind]
        text = _render(node[1], at) + _BINARY[kind] + _render(node[2], at + 1)
    return text if _PRECEDENCE[kind] >= level else "(" + text + ")"


def _evaluate(node, ring):
    """The tree's value by Polynomial arithmetic; a bad divisor or an inexact
    quotient over ZZ raises RingSyntaxError, as the parser does."""
    kind = node[0]
    if kind == "lit":
        return Polynomial.constant(ring, node[1], TREE_VARS)
    if kind == "var":
        return Polynomial.variable(ring, node[1], TREE_VARS)
    a = _evaluate(node[1], ring)
    if kind in ("paren", "pos"):
        return a
    if kind == "neg":
        return -a
    if kind == "pow":
        return a ** node[2]
    b = _evaluate(node[2], ring)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if not b.is_constant() or b.is_zero():
        raise RingSyntaxError("divisor must be a nonzero constant")
    d = b.constant_value()
    if ring != ZZ:
        return a.scale(ring.invert(d))
    if any(c % d for c in a.terms.values()):
        raise RingSyntaxError("inexact quotient over ZZ")
    return Polynomial(ring, TREE_VARS, {exponents(m, 3): c // d for m, c in a.terms.items()})


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([ZZ, QQ, GF(7), GF(32003)]), TREES)
def test_parser_agrees_with_polynomial_arithmetic(ring, tree):
    text = _render(tree)
    try:
        expected = _evaluate(tree, ring)
    except RingSyntaxError:
        with pytest.raises(RingSyntaxError):
            parse_polynomial(text, ring, TREE_VARS)
        return
    parsed = parse_polynomial(text, ring, TREE_VARS)
    assert parsed.vars == TREE_VARS
    assert parsed.terms == expected.terms, text
    assert parsed.to_text() == expected.to_text()
    assert _is_canonical(parsed)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_parsing_printed_polynomials_multiplies_no_polynomials(data):
    p = data.draw(operands(data.draw(st.sampled_from([ZZ, QQ, GF(7), GF(32003)]))))
    text = p.to_text()

    def refuse(*args):
        raise AssertionError("Polynomial arithmetic while parsing " + text)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("__mul__", "__rmul__", "__pow__"):
            patch.setattr(Polynomial, name, refuse)
        parsed = parse_polynomial(text, p.ring, p.vars)
    assert parsed == p
