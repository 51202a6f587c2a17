"""Arithmetic, monomial orders, and the expression grammar."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacarena.algebra import GF, QQ, ZZ, Monomial, MonomialOrder, Polynomial
from jacarena.errors import IncompatibleRings, RingSyntaxError, UnknownVariable
from jacarena.parsing import parse_polynomial, parse_ring


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


def test_variable_lists_merge_by_name():
    p = parse_polynomial("x", ZZ, ("x",))
    q = parse_polynomial("y", ZZ, ("y",))
    assert (p + q) == poly("x+y")
    assert (p * q) == poly("x*y")


def test_substitute_binomial():
    p = parse_polynomial("X^2", QQ, ("X",))
    t = Polynomial.variable(QQ, "T")
    out = p.substitute({"X": t + 1})
    assert out == parse_polynomial("T^2+2*T+1", QQ, ("X", "T"))


def test_substitute_annihilating_binding():
    ring = ZZ
    vars = ("g", "X", "f")
    p = parse_polynomial("1 - g*(1 - X*f)", ring, vars)
    out = p.substitute({"g": Polynomial.zero(ring, vars)})
    assert out == parse_polynomial("1", ring, vars)


def test_substitute_identification():
    p = poly("x+y")
    out = p.substitute({"x": Polynomial.variable(ZZ, "y")})
    assert out == poly("2*y")


def test_substitute_leaves_unbound_variables():
    p = poly("x*y + x")
    out = p.substitute({"y": Polynomial.constant(ZZ, 3, ())})
    assert out == poly("4*x")


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


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_polynomial("x + z", ZZ, ("x", "y"))


def test_rational_coefficients_round_trip():
    p = parse_polynomial("1/2*x - 3/4", QQ, ("x",))
    assert p.terms[Monomial((1,))] == Fraction(1, 2)
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


def test_monomial_trailing_zero_normalization():
    assert Monomial((1, 0, 0)) == Monomial((1,))
    assert hash(Monomial((2, 1, 0))) == hash(Monomial((2, 1)))
    with pytest.raises(ValueError):
        Monomial((1, -1))


def test_ring_text_round_trip():
    for text in ("ZZ", "QQ[x]", "GF(7)[a,b]/(a^2 + b, 3)", "ZZ/4", "ZZ[X]/(2, X^2)"):
        ring = parse_ring(text)
        again = parse_ring(ring.to_text())
        assert again == ring


# -- randomized properties ---------------------------------------------------

RINGS = st.sampled_from([ZZ, QQ, GF(5), GF(2)])


@st.composite
def polynomials(draw, ring=None, max_vars=2, max_deg=3, max_terms=4):
    ring = ring or draw(RINGS)
    nvars = draw(st.integers(0, max_vars))
    vars = ("x", "y", "z")[:nvars]
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
    a = data.draw(polynomials(ring=ring))
    b = data.draw(polynomials(ring=ring))
    c = data.draw(polynomials(ring=ring))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Polynomial.zero(ring, a.vars)


MONOS = st.lists(st.integers(0, 4), min_size=0, max_size=3).map(Monomial)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["LEX", "DEGREVLEX"]),
    u=MONOS,
    v=MONOS,
    w=MONOS,
)
def test_order_total_and_multiplicative(kind, u, v, w):
    order = MonomialOrder(kind, ("x", "y", "z"))
    ku, kv = order.key(u), order.key(v)
    assert (ku < kv) or (kv < ku) or (u == v)
    if ku < kv:
        assert order.key(u.mul(w)) < order.key(v.mul(w))
    one = Monomial(())
    if u != one:
        assert order.key(one) < order.key(u)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_print_parse_round_trip(data):
    ring = data.draw(RINGS)
    p = data.draw(polynomials(ring=ring, max_vars=2))
    text = p.to_text()
    assert parse_polynomial(text, ring, p.vars) == p


def test_hash_agrees_with_equality_across_variable_lists():
    short = Polynomial.variable(QQ, "x", ("x",))
    long = Polynomial.variable(QQ, "x", ("x", "y"))
    assert short == long and hash(short) == hash(long)
    assert len({short, long}) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equal_polynomials_over_permuted_or_extended_vars_hash_equal(data):
    p = data.draw(polynomials(max_vars=3))
    extra = data.draw(st.lists(st.sampled_from(["u", "v", "w"]), unique=True))
    new_vars = data.draw(st.permutations(p.vars + tuple(extra)))
    q = p.remap(new_vars)
    assert q == p
    assert hash(q) == hash(p)
