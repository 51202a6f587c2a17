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
    exponents,
    pack,
)
from jacarena.errors import DegreeOverflow, IncompatibleRings, RingSyntaxError, UnknownVariable
from jacarena.parsing import MAX_NESTING, parse_polynomial, parse_ring


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


@st.composite
def operands(draw, ring, vars=None):
    if vars is None:
        vars = draw(VAR_LISTS)
    if ring == QQ:
        coeffs = st.fractions(-4, 4, max_denominator=6)
    else:
        coeffs = st.integers(-9, 9)
    exps = st.tuples(*[st.integers(0, 3)] * len(vars))
    return Polynomial(ring, vars, draw(st.dictionaries(exps, coeffs, max_size=4)))


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
    n = len(p.vars)
    terms = {exponents(m, n): c for m, c in p.terms.items()}
    return all(pack(exponents(m, n), n) == m for m in p.terms) and Polynomial(
        p.ring, p.vars, terms
    ).terms == p.terms


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
