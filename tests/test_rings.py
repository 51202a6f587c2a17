"""Presented rings: quotients, witnesses, localization, and integral transfer."""

import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from jacarena.algebra import GF, QQ, ZZ, Polynomial
from jacarena.errors import (
    IncompatibleRings,
    InvalidCertificate,
    LeadingCoefficientZero,
    NotFiniteDimensional,
    NotMonogenic,
    NotZeroDimensional,
)
from jacarena.parsing import parse_polynomial, parse_ring
from jacarena import rings
from jacarena.rings import (
    IntegralRelation,
    MonogenicExtension,
    RingPresentation,
    constraint,
    integral_dependence,
    key_elementary_transfer,
    loc_key_clear,
    member_in,
    minimal_polynomial,
    zero_dim_witness,
)


def test_quotient_extend_integers():
    Z = parse_ring("ZZ")
    Z6 = Z.quotient_extend([Z.element(6)])
    assert not Z6.is_trivial()
    assert Z6.element(7) == Z6.element(1)
    assert Z6.element(-2) == Z6.element(4)


def test_quotient_extend_stacked():
    R = parse_ring("QQ[X]")
    R1 = R.quotient_extend([R.element("X^2")])
    R2 = R1.quotient_extend([R1.element("X")])
    assert R2.element("X").is_zero()
    assert R2.element(1).is_one()
    assert not R2.is_trivial()


def test_quotient_extend_inverts_two():
    R = parse_ring("ZZ[X]")
    Q = R.quotient_extend([R.element("1 - X*2")])
    assert not Q.is_trivial()
    assert [b.to_text() for b in Q.gb.basis] == ["2*X - 1"]
    assert (Q.element(2) * Q.element("X")).is_one()


def _random_poly(rng, ring, coeffs, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, max_deg) for _ in ring.vars)
        terms[mono] = rng.choice(coeffs)
    return Polynomial(ring.base, ring.vars, terms)


@pytest.mark.parametrize(
    "ring_text, coeffs, max_deg",
    [
        ("ZZ[X,Y]/(2*X^2 - Y)", (2, 3, -4, 6, 1), 2),
        ("GF(2)[X,Y,Z]", (1,), 2),
        ("QQ[X,Y]", (1, -2, 3, 5), 2),
    ],
)
def test_quotient_extend_seeded_basis_matches_raw_relations(
    monkeypatch, ring_text, coeffs, max_deg
):
    # a child's basis is completed from the parent's reduced basis; it must
    # equal the basis completed from the raw relation list
    completions = []
    real_groebner = rings.groebner

    def spy(gens, *args, **kwargs):
        completions.append(list(gens))
        return real_groebner(gens, *args, **kwargs)

    rng = random.Random(ring_text)
    for _ in range(6):
        ring = parse_ring(ring_text)
        for _ in range(3):
            extra = _random_poly(rng, ring, coeffs, max_deg)
            parent_basis = list(ring.gb.basis) if ring.relations else None
            ring = ring.quotient_extend([extra])
            monkeypatch.setattr(rings, "groebner", spy)
            completions.clear()
            seeded = ring.gb.basis
            monkeypatch.setattr(rings, "groebner", real_groebner)
            if parent_basis is not None:
                assert completions == [parent_basis + [extra]]
            raw = RingPresentation(ring.base, ring.vars, ring.relations)
            assert seeded == raw.gb.basis


def test_quotient_monotonicity():
    rng = random.Random(5)
    R = parse_ring("ZZ[X]/(4, 2*X)")
    bigger = R.quotient_extend([R.element("X")])
    for _ in range(20):
        terms = {(rng.randint(0, 3),): rng.randint(-8, 8) for _ in range(2)}
        p = Polynomial(ZZ, ("X",), terms)
        if R.element(p).is_zero():
            assert bigger.element(p).is_zero()


def test_normal_form_constant_on_cosets():
    # equality in the ring is decided by the cached basis: adding any
    # combination of relations must not change the normal form
    rng = random.Random(17)
    for text in ("ZZ[X]/(6, 2*X - 4)", "ZZ[X,Y]/(4*X, 2*Y, X*Y - 2)", "QQ[X]/(X^3 - X)"):
        ring = parse_ring(text)
        for _ in range(25):
            terms = {
                tuple(rng.randint(0, 2) for _ in ring.vars): rng.randint(-9, 9)
                for _ in range(3)
            }
            p = Polynomial(ring.base, ring.vars, terms)
            shifted = p
            for rel in ring.relations:
                factor = Polynomial(
                    ring.base,
                    ring.vars,
                    {tuple(rng.randint(0, 1) for _ in ring.vars): rng.randint(-3, 3)},
                )
                shifted = shifted + factor * rel
            assert ring.element(p) == ring.element(shifted)
            assert ring.normal_form(p) == ring.normal_form(shifted)


def test_is_trivial_cases():
    Z = parse_ring("ZZ")
    assert Z.quotient_extend([Z.element(1)]).is_trivial()
    assert parse_ring("QQ[X]/(X, X-1)").is_trivial()
    assert not Z.is_trivial()


def test_relations_must_match_base():
    with pytest.raises(IncompatibleRings):
        parse_ring("ZZ[x]").quotient_extend([parse_ring("QQ[x]").element("x")])


def test_element_of_another_presentation_is_refused():
    R = parse_ring("ZZ[X]")
    Q = R.quotient_extend([R.element("X^2")])
    S = parse_ring("ZZ[X,Y]")
    for ring, foreign in [(Q, R.element("X+1")), (R, Q.element("X+1")), (S, R.element("X"))]:
        with pytest.raises(IncompatibleRings):
            ring.element(foreign)
        with pytest.raises(IncompatibleRings):
            ring.quotient_extend([foreign])
        with pytest.raises(IncompatibleRings):
            member_in(ring, foreign)
    # the representative crosses explicitly, and a base polynomial is remapped
    assert Q.element(R.element("X^3 + 1").poly) == Q.one()
    assert S.element(R.element("X").poly) == S.element("X")


def test_arithmetic_refuses_another_presentation_and_takes_an_equal_one():
    R = parse_ring("QQ[X]/(X^2)")
    other = parse_ring("QQ[X]/(X^3)").element("X")
    mine = R.element("X + 1")
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(IncompatibleRings):
            op(mine, other)
    with pytest.raises(IncompatibleRings):
        R.element(other)
    with pytest.raises(IncompatibleRings):
        R.element(parse_polynomial("X", ZZ, ("X",)))
    # an equal presentation that is another object: its elements combine
    twin = RingPresentation(QQ, ("X",), [parse_polynomial("X^2", QQ, ("X",))])
    assert twin is not R and twin == R
    x = twin.element("X")
    assert mine + x == R.element("2*X + 1")
    assert mine - x == R.one()
    assert mine * x == R.element("X")
    assert R.element(x) is x


@settings(max_examples=60, deadline=None)
@given(
    ring_text=st.sampled_from(["ZZ/12", "GF(5)[X]/(X^2)"]),
    a=st.integers(-30, 30),
    b=st.integers(-30, 30),
    shift=st.integers(-3, 3),
)
def test_element_eq_and_hash_contract(ring_text, a, b, shift):
    ring = parse_ring(ring_text)
    if ring.vars:
        # b*X^2 vanishes and 5*shift is zero in GF(5)
        u = ring.element(f"{a} + {b}*X")
        v = ring.element(f"{a + 5 * shift} + {b}*X + {b}*X^2")
    else:
        u, v = ring.element(a), ring.element(a + 12 * shift)
    assert u == v and hash(u) == hash(v)
    # an element never equals an int: in ZZ/12 the element 3 would have to
    # equal 3, 15, 27, ..., which no hash can follow
    assert u != a and a != u
    assert len({u, a}) == 2


# a polynomial ring and a quotient over each base
_CONSTRAINT_RINGS = [
    "ZZ[X,Y]",
    "ZZ[X]/(X^2-3, 6)",
    "QQ[X,Y]",
    "QQ[X,Y]/(X^2-Y, Y^3)",
    "GF(5)[X,Y]",
    "GF(5)[X]/(X^3+X+1)",
]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_constraint_is_one_minus_b_times_one_minus_a_x(data):
    ring = parse_ring(data.draw(st.sampled_from(_CONSTRAINT_RINGS)))
    n = len(ring.vars)
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), st.integers(-4, 4), max_size=3)
    x, a, b = (ring.element(Polynomial(ring.base, ring.vars, data.draw(terms))) for _ in range(3))
    one = ring.one()
    expected = one - b * (one - a * x)
    assert constraint(x, a, b) == expected
    # raw polynomials and an equal presentation read the same
    assert constraint(x, a.poly, b.poly) == expected
    twin = parse_ring(ring.to_text())
    assert constraint(x, twin.element(a.poly), twin.element(b.poly)) == expected
    # a move or reply from another presentation is refused
    other = ring.quotient_extend([ring.element(Polynomial.variable(ring.base, ring.vars[0], ring.vars))])
    with pytest.raises(IncompatibleRings):
        constraint(x, other.element(a.poly), b)
    with pytest.raises(IncompatibleRings):
        constraint(x, a, other.element(b.poly))


def test_minimal_polynomial_examples():
    assert minimal_polynomial(parse_ring("QQ[X]/(X^2)").element("X"))[0].to_text() == "T^2"
    assert (
        minimal_polynomial(parse_ring("GF(2)[X]/(X^2+X)").element("X"))[0].to_text()
        == "T^2 + T"
    )
    assert minimal_polynomial(parse_ring("QQ[X]/(X-3)").element("X"))[0].to_text() == "T - 3"


def test_minimal_polynomial_infinite_staircase():
    with pytest.raises(NotFiniteDimensional):
        minimal_polynomial(parse_ring("QQ[X,Y]/(X^2)").element("X"))


def test_minimal_polynomial_minimality_exhaustive():
    # no monic polynomial of smaller degree annihilates x, degrees <= 4
    cases = [
        ("GF(2)[X]/(X^2+X)", "X"),
        ("GF(3)[X]/(X^3)", "X"),
        ("GF(2)[X]/(X^4+X+1)", "X"),
        ("GF(3)[X]/(X^2+1)", "X+1"),
    ]
    for ring_text, x_text in cases:
        ring = parse_ring(ring_text)
        x = ring.element(x_text)
        mu, _ = minimal_polynomial(x)
        deg = mu.degree_in("T")
        p = ring.base.p
        by_deg = {d: c.constant_value() for d, c in mu.coefficients_in("T").items()}
        value = ring.zero()
        for k in range(deg, -1, -1):
            value = value * x + by_deg.get(k, 0)
        assert value.is_zero()
        for smaller in range(deg):
            found = False
            for combo in range(p ** smaller):
                coeffs = []
                c = combo
                for _ in range(smaller):
                    coeffs.append(c % p)
                    c //= p
                value = x ** smaller
                for j, cj in enumerate(coeffs):
                    value = value + ring.element(cj) * x ** j
                if value.is_zero():
                    found = True
                    break
            assert not found, (ring_text, x_text, smaller)


def _power_by_power_scan(x):
    """Reference minimal polynomial: the powers 1, x, x^2, ... taken in the
    ring one product at a time, eliminated with the base ring's own
    arithmetic until one depends on the earlier ones."""
    ring = x.ring
    base = ring.base
    stair = ring.gb.staircase()
    index = {m: i for i, m in enumerate(stair)}
    dim = len(stair)

    def vector(poly):
        v = [base.zero()] * dim
        for mono, coeff in poly.terms.items():
            v[index[mono]] = coeff
        return v

    pivots = []
    powers = []
    power = ring.one()
    for k in range(dim + 1):
        v = vector(power.poly)
        combo = [base.zero()] * k
        for pivot_idx, pvec, pcoords in pivots:
            f = v[pivot_idx]
            if f == base.zero():
                continue
            scale = base.mul(f, base.invert(pvec[pivot_idx]))
            v = [base.sub(a, base.mul(scale, b)) for a, b in zip(v, pvec)]
            for j, cj in enumerate(pcoords):
                combo[j] = base.add(combo[j], base.mul(scale, cj))
        nonzero = next((i for i, c in enumerate(v) if c != base.zero()), None)
        if nonzero is None:
            terms = {(k,): base.one()}
            for j, cj in enumerate(combo):
                if cj != base.zero():
                    terms[(j,)] = base.neg(cj)
            return Polynomial(base, ("T",), terms), powers
        coords = [base.neg(c) for c in combo] + [base.one()]
        pivots.append((nonzero, v, coords))
        powers.append(power.poly)
        power = power * x
    raise AssertionError("dependency must appear within dim+1 powers")


def _assert_scan_matches_reference(x):
    mu, powers = minimal_polynomial(x)
    assert (mu, powers) == _power_by_power_scan(x), x
    for k, pk in enumerate(powers):
        assert pk == (x ** k).poly, (x, k)
    if x.ring.base.kind == "QQ":
        coeffs = list(mu.terms.values()) + [c for pk in powers for c in pk.terms.values()]
        assert all(type(c) is int or c.denominator != 1 for c in coeffs), x
    return mu, powers


@st.composite
def _zero_dim_elements(draw):
    """x in K[X]/(f) or K[X,Y]/(f, g), f = X^a + lower, g = Y^b + lower in
    total degree; the coprime leading terms make {f, g} a Groebner basis,
    so the quotient has dimension a*b."""
    base = draw(st.sampled_from([QQ, GF(2), GF(7), GF(32003), GF(2**61 - 1)]))
    if base.kind == "QQ":
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=97)
    else:
        coeff = st.integers(0, base.p - 1)
    names = ("X", "Y")[: draw(st.integers(1, 2))]
    n = len(names)
    rels = []
    for i in range(n):
        deg = draw(st.integers(1, 8 if n == 1 else 3))
        lower = [
            (a, b)[:n] for a in range(deg) for b in range(deg) if a + b < deg and (n == 2 or b == 0)
        ]
        terms = dict(zip(lower, draw(st.lists(coeff, min_size=len(lower), max_size=len(lower)))))
        terms[tuple(deg if j == i else 0 for j in range(n))] = 1
        rels.append(Polynomial(base, names, terms))
    ring = RingPresentation(base, names).quotient_extend(rels)
    x_terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeff, max_size=3))
    return ring.element(Polynomial(base, names, x_terms))


@settings(max_examples=150, deadline=None)
@given(x=_zero_dim_elements())
def test_minimal_polynomial_matches_power_by_power_scan(x):
    _assert_scan_matches_reference(x)


# (ring, x, minimal polynomial): deg mu < dim, nilpotent, constant, zero,
# the trivial ring (dimension 0, mu = 1) and a ring with no variables
MINPOLY_SPECIAL_CASES = [
    ("[X,Y]/(X^3, Y^2)", "X+Y", "T^4"),
    ("[X,Y]/(X^2-3, Y^2)", "Y", "T^2"),
    ("[X,Y]/(X^2-3, Y^2)", "X+1", "T^2 - 2*T - 2"),
    ("[X]/(X^4+X+1)", "5", "T - 5"),
    ("[X]/(X^3-X)", "0", "T"),
    ("[X]/(X, X-1)", "X", "1"),
    ("", "4", "T - 4"),
]


@pytest.mark.parametrize("base", ["QQ", "GF(2)", "GF(7)", "GF(32003)"])
@pytest.mark.parametrize("ring_suffix,x_text,mu_text", MINPOLY_SPECIAL_CASES)
def test_minimal_polynomial_special_cases(base, ring_suffix, x_text, mu_text):
    ring = parse_ring(base + ring_suffix)
    mu, powers = _assert_scan_matches_reference(ring.element(x_text))
    assert mu == parse_polynomial(mu_text, ring.base, ("T",))
    assert len(powers) == mu.degree_in("T")


@pytest.mark.parametrize(
    "ring_text,x_text,expected_e",
    [
        ("ZZ/12", "6", 2),
        ("ZZ/7", "3", 0),
        ("QQ[X]/(X^2)", "X", 2),
        ("GF(5)", "2", 0),
        ("ZZ/8", "2", 3),
        ("ZZ[X]/(2, X^2)", "X", 2),
        ("ZZ[X]/(4, X^2)", "2*X", 2),
        ("ZZ[X]/(12, X^3)", "2+X", 4),
        ("ZZ[X,Y]/(6, X^2-Y, Y^2)", "3+X", 4),
        ("ZZ[X]/(9, X^2+1)", "3*X+1", 0),
        # m2 = 1: x^e is already 0 (or the ring is), so a = x^(-1) mod 1 = 0
        ("ZZ/1", "0", 0),
        ("ZZ/6", "0", 1),
    ],
)
def test_zero_dim_witness_identity(ring_text, x_text, expected_e):
    ring = parse_ring(ring_text)
    x = ring.element(x_text)
    e, a = zero_dim_witness(x)
    assert e == expected_e
    assert (x ** e * (ring.one() - a * x)).is_zero()
    if x.is_zero():
        assert a.is_zero()


def _witness_by_power_formula(x):
    """(e, a) with a = -g(0)^(-1) * sum_j c_j * x^(j-e-1), each power taken in the ring."""
    ring = x.ring
    mu = minimal_polynomial(x)[0]
    by_deg = {d: c.constant_value() for d, c in mu.coefficients_in("T").items()}
    e = min(by_deg)
    r = ring.zero()
    for j, cj in by_deg.items():
        if j > e:
            r = r + ring.element(cj) * x ** (j - e - 1)
    return e, -(ring.element(ring.base.invert(by_deg[e])) * r)


def _random_univariate_cases(base, seed):
    rng = random.Random(seed)
    ring = parse_ring(f"{base!r}[X]")

    def coeff(bound):
        # over QQ, with denominators up to 97
        c = rng.randint(-bound, bound)
        return Fraction(c, rng.randint(1, 97)) if base.kind == "QQ" else c

    cases = []
    for _ in range(4):
        deg = rng.randint(1, 12)
        nil = rng.randint(0, min(deg, 3))
        terms = {(nil + i,): coeff(5) for i in range(deg - nil)}
        terms[(deg,)] = 1
        m = Polynomial(base, ("X",), terms)
        x_terms = {(i,): coeff(3) for i in range(rng.randint(1, deg + 1))}
        if rng.random() < 0.5:
            x_terms = {(i + 1,): c for (i,), c in x_terms.items()}
        quotient = ring.quotient_extend([m])
        cases.append(quotient.element(Polynomial(base, ("X",), x_terms)))
    return cases


def _assert_witness_matches_power_formula(x):
    e, a = zero_dim_witness(x)
    assert (e, a) == _witness_by_power_formula(x), x
    assert (x ** e * (x.ring.one() - a * x)).is_zero()


@pytest.mark.parametrize("base", [QQ, GF(2), GF(7), GF(2**61 - 1)], ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_zero_dim_witness_matches_power_formula(base, seed):
    for x in _random_univariate_cases(base, seed):
        _assert_witness_matches_power_formula(x)


@pytest.mark.parametrize("ring_text", ["QQ[X,Y]/(X^2+Y, Y^3)", "GF(3)[X,Y]/(X^2-Y, Y^2+X)"])
def test_zero_dim_witness_matches_power_formula_multivariate(ring_text):
    ring = parse_ring(ring_text)
    for text in ["X", "X+Y", "Y+1", "X*Y-1", "2*X-3"]:
        _assert_witness_matches_power_formula(ring.element(text))


def test_zero_dim_witness_huge_modulus_is_fast():
    ring = parse_ring("ZZ").quotient_extend([parse_ring("ZZ").element(2 ** 90 * 3)])
    x = ring.element(6)
    e, a = zero_dim_witness(x)
    assert (x ** e * (ring.one() - a * x)).is_zero()


def test_zero_dim_witness_over_a_large_finite_zz_algebra_is_fast():
    # |R| = 1000003^2: a walk along the powers of x could take |R| steps
    ring = parse_ring("ZZ[X]/(1000003, X^2+1)")
    start = time.perf_counter()
    for text in ["X+1", "X", "1000002*X^2", "0"]:
        x = ring.element(text)
        e, a = zero_dim_witness(x)
        assert (x ** e * (ring.one() - a * x)).is_zero()
    assert time.perf_counter() - start < 1.0


def test_zero_dim_witness_rejects_non_zero_dimensional():
    with pytest.raises(NotZeroDimensional):
        zero_dim_witness(parse_ring("ZZ").element(2))
    with pytest.raises(NotZeroDimensional):
        zero_dim_witness(parse_ring("QQ[X]").element("X"))


@pytest.mark.parametrize(
    "ring_text,x_text,message",
    [
        ("QQ[X]", "2", "QQ[X] has an infinite staircase"),
        ("GF(5)[X,Y]/(X^2)", "3", "GF(5)[X,Y]/(X^2) has an infinite staircase"),
        ("ZZ[X]", "1", "ZZ[X] has an infinite staircase"),
        ("ZZ[X]/(X^2)", "1", "ZZ[X]/(X^2): monomial (0,) has unbounded coefficients"),
    ],
)
def test_zero_dim_witness_refuses_a_unit_of_a_ring_that_is_not_zero_dimensional(
    ring_text, x_text, message
):
    # the unit test would find x^(-1) in each of these rings; the refusal comes first
    with pytest.raises(NotZeroDimensional) as info:
        zero_dim_witness(parse_ring(ring_text).element(x_text))
    assert str(info.value) == message


@settings(max_examples=150, deadline=None)
@given(x=_zero_dim_elements())
def test_zero_dim_witness_matches_power_formula_property(x):
    _assert_witness_matches_power_formula(x)


def test_a_unit_never_reaches_the_krylov_scan(monkeypatch):
    def scan(x):
        raise AssertionError(f"Krylov scan on {x}")

    monkeypatch.setattr(rings, "minimal_polynomial", scan)
    for ring_text, x_text, inverse in [
        ("QQ[X]/(X^2)", "X+1", "-X + 1"),
        ("GF(7)[X]/(X^2+1)", "X", "6*X"),
        ("GF(3)[X,Y]/(X^2-Y, Y^2+X)", "Y+1", None),
        ("QQ", "4", "1/4"),
    ]:
        x = parse_ring(ring_text).element(x_text)
        e, a = zero_dim_witness(x)
        assert e == 0 and (a * x).is_one()
        assert inverse is None or a.to_text() == inverse
    with pytest.raises(AssertionError, match="Krylov scan"):
        zero_dim_witness(parse_ring("QQ[X]/(X^2)").element("X"))


def test_integral_dependence_examples():
    QQb = parse_ring("QQ")
    B = parse_ring("QQ[X]/(X^2-2)")
    ext = MonogenicExtension(QQb, B, "X", B.relations[0])
    dep = integral_dependence(B.element("X"), ext)
    assert (dep.l, dep.d) == (0, 2)
    assert [c.to_text() for c in dep.coeffs] == ["2", "0"]
    dep2 = integral_dependence(B.element("X+1"), ext)
    assert (dep2.l, dep2.d) == (0, 2)
    assert [c.to_text() for c in dep2.coeffs] == ["1", "2"]

    Zb = parse_ring("ZZ")
    B3 = parse_ring("ZZ[X]/(2*X^2-1)")
    ext3 = MonogenicExtension(Zb, B3, "X", B3.relations[0])
    dep3 = integral_dependence(B3.element("X"), ext3)
    assert (dep3.l, dep3.d) == (1, 2)
    assert [c.to_text() for c in dep3.coeffs] == ["1", "0"]
    assert dep3.verify()


# (base, ring, b, l, d, coeffs) computed by the characteristic polynomial
# over the localization at a, before the determinant was taken over plain
# polynomial entries
INTEGRAL_DEPENDENCE_PINS = [
    ("ZZ", "ZZ[X]/(2*X^3 - X - 1)", "X", 1, 3, ("1", "1", "0")),
    ("ZZ", "ZZ[X]/(2*X^3 - X - 1)", "X^2 + 1", 2, 3, ("10", "-21", "16")),
    ("ZZ[Y]", "ZZ[Y,X]/(Y*X^3 + X + 1)", "X + Y", 1, 3, ("Y^4 + Y - 1", "-3*Y^3 - 1", "3*Y^2")),
    (
        "GF(3)[Y]",
        "GF(3)[Y,X]/((Y+1)*X^4 + Y*X + 1)",
        "X^2 + Y*X",
        3,
        4,
        (
            "2*Y^6 + Y^5 + 2*Y^4 + Y^3 + Y^2 + 2*Y + 2",
            "2*Y^6 + Y^5 + Y^4 + 2*Y^3",
            "Y^2 + 2*Y + 1",
            "0",
        ),
    ),
    ("QQ[Y]", "QQ[Y,X]/(Y*X^3 - 2)", "X^2 - Y", 2, 3, ("-Y^5 + 4", "-3*Y^4", "-3*Y^3")),
    ("ZZ", "ZZ[X]/(3*X^3 + 2*X - 1, 12)", "X + 2", 1, 3, ("29", "-38", "18")),
    ("ZZ/4", "ZZ[X]/(4, 2*X^3 + X^2 + 1)", "X^2", 1, 3, ("0", "2", "0")),
    ("ZZ[Y]/(Y^2)", "ZZ[Y,X]/(Y^2, 3*X^3 + Y*X + 1)", "X*Y + X", 1, 3, ("-3*Y - 1", "-Y", "0")),
]


@pytest.mark.parametrize("base_text, ring_text, b_text, l, d, coeffs", INTEGRAL_DEPENDENCE_PINS)
def test_integral_dependence_pinned(base_text, ring_text, b_text, l, d, coeffs):
    base = parse_ring(base_text)
    B = parse_ring(ring_text)
    relation = next(r for r in B.relations if r.degree_in("X") > 0)
    dep = integral_dependence(B.element(b_text), MonogenicExtension(base, B, "X", relation))
    assert (dep.l, dep.d) == (l, d)
    assert tuple(c.to_text() for c in dep.coeffs) == coeffs


def _relation_from_det(b, ext):
    """The dependence of b read off the determinant of T*diag(a^(e_i)) minus
    the multiplication-by-b matrix, built here column by column."""
    base, k = ext.base, ext.k
    cvars = base.vars + ("T",)
    t = Polynomial.variable(base.base, "T", cvars)
    a_poly = ext.rel_coeffs[k].remap(cvars)
    x = Polynomial.variable(base.base, ext.var, ext.ring.vars)
    columns = [rings._reduce_in_extension(b.poly * x**i, ext) for i in range(k)]
    zero = Polynomial.zero(base.base, cvars)
    matrix = [
        [(t * a_poly**e if i == j else zero) - v[j].remap(cvars) for i, (v, e) in enumerate(columns)]
        for j in range(k)
    ]
    by_t = rings._det(matrix).coefficients_in("T")
    l = 0 if ext.lead.is_one() else sum(e for _, e in columns)
    coeffs = tuple(
        base.element(-by_t.get(j, Polynomial.zero(base.base, base.vars)).remap(base.vars))
        for j in range(k)
    )
    return IntegralRelation(b, ext.lead, l, k, coeffs)


# A = K[Y] or K[Y]/(relation) and B = A[X]/(lead*X^k + lower), k = 1..3
_BASE_EXTENSIONS = dict(
    base_kind=st.sampled_from(["QQ", "GF(7)", "ZZ"]),
    base_relation=st.sampled_from([None, "Y^2 - 2", "3*Y^2 + Y"]),
    lead=st.sampled_from(["1", "2", "Y + 3"]),
    lower=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)


def _base_extension(base_kind, base_relation, lead, lower):
    """The extension B of A, or None when lead vanishes in A."""
    quotient = f"/({base_relation})" if base_relation else ""
    base = parse_ring(f"{base_kind}[Y]{quotient}")
    relation_text = f"({lead})*X^{len(lower)} + " + " + ".join(
        f"({c})*X^{j}" for j, c in enumerate(lower)
    )
    relations = ([base_relation] if base_relation else []) + [relation_text]
    B = parse_ring(f"{base_kind}[Y,X]/({', '.join(relations)})")
    relation = parse_polynomial(relation_text, B.base, B.vars)
    try:
        return MonogenicExtension(base, B, "X", relation)
    except LeadingCoefficientZero:
        return None


def _in_y(ring, cs):
    return ring.element(" + ".join(f"({c})*Y^{j}" for j, c in enumerate(cs)) or "0")


@settings(max_examples=80, deadline=None)
@given(**_BASE_EXTENSIONS, b=st.lists(st.integers(-4, 4), max_size=3))
def test_integral_dependence_of_a_base_element_matches_the_determinant(
    base_kind, base_relation, lead, lower, b
):
    # b in A: the T-matrix is b*I, so the determinant is the closed form
    # (T - b)^k: l = 0 and c_j the normal form in A of -C(k, j) * (-b)^(k-j)
    ext = _base_extension(base_kind, base_relation, lead, lower)
    assume(ext is not None)
    y = _in_y(ext.ring, b)
    # B's basis may rewrite Y through X, when the leading coefficient is not a unit
    assume(y.poly.degree_in("X") <= 0)
    base, k = ext.base, ext.k
    neg_b = base.element(-y.poly.remap(base.vars))
    coeffs = tuple(base.element((neg_b ** (k - j)).poly.scale(-comb(k, j))) for j in range(k))
    dep = integral_dependence(y, ext)
    assert dep == IntegralRelation(y, ext.lead, 0, k, coeffs)
    assert dep == _relation_from_det(y, ext)
    assert dep.d == len(lower)


def test_integral_relation_validates_at_construction():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2+1)")
    with pytest.raises(InvalidCertificate):
        IntegralRelation(
            B.element("Y"), Zb.element(1), 0, 2, (Zb.element(5), Zb.element(0))
        ).require_valid()

    # 2*Y^3 = 4*Y^2 + 0*Y + 10 in ZZ[Y]/(Y^3 - 2*Y^2 - 5); with c_0 and c_2
    # swapped it fails, so the identity is read from the top coefficient down
    C = parse_ring("ZZ[Y]/(Y^3 - 2*Y^2 - 5)")
    coeffs = tuple(Zb.element(c) for c in (10, 0, 4))
    IntegralRelation(C.element("Y"), Zb.element(2), 1, 3, coeffs).require_valid()
    with pytest.raises(InvalidCertificate):
        IntegralRelation(C.element("Y"), Zb.element(2), 1, 3, coeffs[::-1]).require_valid()


def test_integral_relation_checks_in_b_when_b_has_non_unit_leading_coefficients():
    # B's basis is 12, 4*X + 4, X^3 + 2*X + 9: leading coefficients 12, 4, 1
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[X]/(3*X^3 + 2*X - 1, 12)")
    ext = MonogenicExtension(Zb, B, "X", parse_polynomial("3*X^3 + 2*X - 1", ZZ, ("X",)))
    dep = integral_dependence(B.element("X + 2"), ext)
    assert (dep.l, [c.to_text() for c in dep.coeffs]) == (1, ["29", "-38", "18"])

    def relation(c0):
        coeffs = (Zb.element(c0),) + dep.coeffs[1:]
        return IntegralRelation(dep.y, dep.a, dep.l, dep.d, coeffs)

    assert relation(29 + 12).verify()  # 12 = 0 in B
    assert not relation(29 + 1).verify()
    assert not relation(29 + 6).verify()


def test_monogenic_extension_validation():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y,W]/(Y^2+1)")
    with pytest.raises(NotMonogenic):
        MonogenicExtension(Zb, B, "W", B.relations[0])
    A2 = parse_ring("ZZ/2")
    B2 = parse_ring("ZZ[Y]/(2, 2*Y^2+Y)")
    with pytest.raises(LeadingCoefficientZero):
        MonogenicExtension(A2, B2, "Y", parse_polynomial("2*Y^2+Y", ZZ, ("Y",)))
    # the relation must vanish in the ring: 2 is not zero modulo (4, 2*Y^2-2)
    B3 = parse_ring("ZZ[Y]/(4, 2*Y^2-2)")
    with pytest.raises(NotMonogenic):
        MonogenicExtension(Zb, B3, "Y", parse_polynomial("2", ZZ, ("Y",)))


def test_loc_key_clear_examples():
    Z = parse_ring("ZZ")
    assert loc_key_clear(Z.element(3), Z.element(2), Z.element(5), 0) == Z.element(5)
    a2 = loc_key_clear(Z.element(3), Z.element(2), Z.element(5), 1)
    assert a2 == Z.element(1 + 2 * 5)
    a2 = loc_key_clear(Z.element(3), Z.element(2), Z.element(5), 2)
    assert a2 == Z.element(27)
    lhs = Z.element(1) - a2 * (Z.element(1) - Z.element(2) * Z.element(3))
    rhs = Z.element(2) ** 2 * (Z.element(3) ** 2 - Z.element(5) * (Z.element(1) - Z.element(6)))
    assert lhs == rhs == Z.element(136)


def test_loc_key_clear_random_identity():
    rng = random.Random(99)
    Z = parse_ring("ZZ")
    F7 = parse_ring("GF(7)")
    Qx = parse_ring("QQ[x]")
    for ring in (Z, F7, Qx):
        for _ in range(40):
            def rand():
                if ring.vars:
                    return ring.element(
                        Polynomial(ring.base, ring.vars,
                                   {(rng.randint(0, 2),): rng.randint(-5, 5)})
                    )
                return ring.element(rng.randint(-6, 6))

            a, a1, a2p = rand(), rand(), rand()
            e = rng.randint(0, 5)
            a2 = loc_key_clear(a, a1, a2p, e)
            lhs = ring.one() - a2 * (ring.one() - a1 * a)
            rhs = a1 ** e * (a ** e - a2p * (ring.one() - a1 * a))
            assert lhs == rhs


def test_key_elementary_transfer_base_identity():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[X]/(X-7)")
    ext = MonogenicExtension(Zb, B, "X", B.relations[0])
    a2 = key_elementary_transfer(Zb.element(1), Zb.element(1), B.element(7), ext)
    assert a2 == Zb.element(7)


# (base, B, a0, a1, a2) for b2 = Y and a monic relation, so a = 1 and
# w = 1 - a1*a0: with l = 0 the transfer inverts b2*w modulo the dependence
MONIC_TRANSFERS = [
    pytest.param("ZZ", "ZZ[Y]/(Y^2+1)", -1, 1, "-2", id="gaussian"),
    pytest.param("ZZ", "ZZ[Y]/(Y-7)", -2, 1, "7", id="identity"),
    pytest.param("QQ", "QQ[Y]/(Y^2-Y)", 0, 1, "1", id="idempotent"),
]


@pytest.mark.parametrize("base_text, ring_text, a0, a1, a2_text", MONIC_TRANSFERS)
def test_key_elementary_transfer_monic(base_text, ring_text, a0, a1, a2_text):
    base = parse_ring(base_text)
    B = parse_ring(ring_text)
    ext = MonogenicExtension(base, B, "Y", B.relations[0])
    a2 = key_elementary_transfer(base.element(a0), base.element(a1), B.element("Y"), ext)
    assert a2 == base.element(a2_text)
    w = B.element(1 - a1 * a0)
    target = B.one() - B.element("Y") * w
    assert member_in(B, B.one() - B.element(a2.poly) * w, [target]) is not None


def test_key_elementary_transfer_gaussian():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2+1)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    a0, a1 = Zb.element(1), Zb.element(2)
    a2 = key_elementary_transfer(a0, a1, B.element("Y"), ext)
    w = Zb.one() - a1 * ext.lead * a0
    target = B.one() - B.element("Y") * B.element(w.poly)
    claim = B.one() - B.element(a2.poly) * B.element(w.poly)
    assert member_in(B, claim, [target]) is not None


def test_key_elementary_transfer_refuses_a_wrong_output(monkeypatch):
    # w = 1 - a1*a0 = 2: the right a2 = -2 gives 1 - a2*w = 5 = (1 - 2Y)(1 + 2Y),
    # a2 + 1 gives 3, which 1 - 2Y (norm 5) does not divide in ZZ[Y]/(Y^2+1)
    clear = rings.loc_key_clear
    monkeypatch.setattr(rings, "loc_key_clear", lambda *args: clear(*args) + 1)
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2+1)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    with pytest.raises(InvalidCertificate, match="cofactor check"):
        key_elementary_transfer(Zb.element(-1), Zb.element(1), B.element("Y"), ext)


@settings(max_examples=80, deadline=None)
@given(
    **_BASE_EXTENSIONS,
    a0=st.lists(st.integers(-3, 3), max_size=2),
    a1=st.lists(st.integers(-3, 3), max_size=2),
    b=st.lists(st.integers(-4, 4), max_size=3),
)
def test_key_elementary_transfer_of_a_base_element_is_the_generic_sum(
    base_kind, base_relation, lead, lower, a0, a1, b
):
    # b2 = b in A takes the closed form: the generic a2 = sum c_j w^(d-1-j)
    # over b's dependence (l = 0), with no dependence built
    ext = _base_extension(base_kind, base_relation, lead, lower)
    assume(ext is not None)
    base, B = ext.base, ext.ring
    b2 = _in_y(B, b)
    assume(b2.poly.degree_in("X") <= 0)
    a0, a1 = _in_y(base, a0), _in_y(base, a1)
    w = base.one() - a1 * ext.lead * a0
    dep = integral_dependence(b2, ext)
    generic = sum((c * w ** (dep.d - 1 - j) for j, c in enumerate(dep.coeffs)), base.zero())

    def no_dependence(*args):
        raise AssertionError("the closed form built a dependence")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rings, "integral_dependence", no_dependence)
        a2 = key_elementary_transfer(a0, a1, b2, ext)
    assert a2 == generic
    w_b = B.element(w.poly)
    assert member_in(B, B.one() - B.element(a2.poly) * w_b, [B.one() - b2 * w_b]) is not None


def test_key_elementary_transfer_closed_form_refuses_a_wrong_output(monkeypatch):
    # b2 = 3, k = 2, w = 2: a2 = 2*3 - 3^2*2 = -12 gives 1 - a2*w = 25 =
    # (1 - 6)^2; a wrong binomial gives 3*3 - 2*3^2*2 = -27 and 55
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2+1)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    a0, a1, b2 = Zb.element(-1), Zb.element(1), B.element(3)
    assert key_elementary_transfer(a0, a1, b2, ext) == Zb.element(-12)
    monkeypatch.setattr(rings, "comb", lambda k, i: comb(k, i) + 1)
    with pytest.raises(InvalidCertificate, match="cofactor check"):
        key_elementary_transfer(a0, a1, b2, ext)


@pytest.mark.parametrize("b_text", ["Y", "2*Y+3", "Y+1", "3"])
def test_dependence_and_transfer_work_in_the_elements_ring(b_text):
    # B' = B/(5) is a quotient of B = ZZ[Y]/(Y^2-6): an element of B' gets
    # from the extension over B what an extension over B' gives it
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2-6)")
    Bq = B.quotient_extend([B.element(5)])
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    ext_q = MonogenicExtension(Zb, Bq, "Y", B.relations[0])
    b = Bq.element(b_text)
    assert integral_dependence(b, ext) == integral_dependence(b, ext_q)
    a0, a1 = Zb.element(2), Zb.element(3)
    a2 = key_elementary_transfer(a0, a1, b, ext)
    assert a2 == key_elementary_transfer(a0, a1, b, ext_q)
    w = Bq.element((Zb.one() - a1 * a0).poly)
    assert member_in(Bq, Bq.one() - Bq.element(a2.poly) * w, [Bq.one() - b * w]) is not None


def test_dependence_and_transfer_refuse_an_element_where_the_relation_fails():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2-6)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    y = parse_ring("ZZ[Y]").element("Y")
    with pytest.raises(InvalidCertificate):
        integral_dependence(y, ext)
    with pytest.raises(InvalidCertificate):
        key_elementary_transfer(Zb.element(2), Zb.element(3), y, ext)


@st.composite
def _transfer_inputs(draw):
    """(a0, a1, b2, ext) over B = A[X]/(relation), A one of ZZ, GF(3), QQ[Y]
    and ZZ[Y], the relation of X-degree 0..3 and monic or not, b2 of
    X-degree at most 2, and every coefficient c*Y + d with |c|, |d| <= 2."""
    A = parse_ring(draw(st.sampled_from(["ZZ", "GF(3)", "QQ[Y]", "ZZ[Y]"])))
    vars = A.vars + ("X",)

    def coeff():
        text = str(draw(st.integers(-2, 2)))
        if A.vars:
            text += f" + {draw(st.integers(-2, 2))}*Y"
        return parse_polynomial(text, A.base, vars)

    def in_x(cs):
        return parse_polynomial(
            " + ".join(f"({c.to_text()})*X^{j}" for j, c in enumerate(cs)), A.base, vars
        )

    k = draw(st.integers(0, 3))
    lead = parse_polynomial("1", A.base, vars) if draw(st.booleans()) else coeff()
    if lead.is_zero():
        lead = parse_polynomial("2", A.base, vars)
    relation = in_x([coeff() for _ in range(k)] + [lead])
    B = RingPresentation(A.base, vars, [relation])
    ext = MonogenicExtension(A, B, "X", relation)
    b2 = B.element(in_x([coeff() for _ in range(3)]))
    a0, a1 = (A.element(coeff().remap(A.vars)) for _ in range(2))
    return a0, a1, b2, ext


@settings(max_examples=50, deadline=None)
@given(inputs=_transfer_inputs())
def test_key_elementary_transfer_lands_in_the_extension_ideal(inputs):
    a0, a1, b2, ext = inputs
    B = ext.ring
    a2 = key_elementary_transfer(a0, a1, b2, ext)
    w = B.element((ext.base.one() - a1 * ext.lead * a0).poly)
    claim = B.one() - B.element(a2.poly) * w
    assert member_in(B, claim, [B.one() - b2 * w]) is not None


def test_key_elementary_transfer_zero_a1():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2+1)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    a2 = key_elementary_transfer(Zb.element(1), Zb.element(0), B.element("Y"), ext)
    # need 1 - a2 in <1 - Y> of B
    claim = B.one() - B.element(a2.poly)
    assert member_in(B, claim, [B.one() - B.element("Y")]) is not None


def test_key_elementary_transfer_nonmonic_localized():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[X]/(2*X^2-1)")
    ext = MonogenicExtension(Zb, B, "X", B.relations[0])
    a0, a1 = Zb.element(3), Zb.element(1)
    b2 = B.element("X+1")
    a2 = key_elementary_transfer(a0, a1, b2, ext)
    assert ext.lead == Zb.element(2)
    w = Zb.one() - a1 * ext.lead * a0
    target = B.one() - b2 * B.element(w.poly)
    claim = B.one() - B.element(a2.poly) * B.element(w.poly)
    assert member_in(B, claim, [target]) is not None
