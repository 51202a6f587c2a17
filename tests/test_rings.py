"""Presented rings: quotients, witnesses, localization, and integral transfer."""

import random

import pytest

from jacarena.algebra import GF, QQ, ZZ, Polynomial
from jacarena.errors import (
    IncompatibleRings,
    LeadingCoefficientZero,
    NonMonicDependence,
    NotAUnit,
    NotFiniteDimensional,
    NotMonogenic,
    NotZeroDimensional,
)
from jacarena.parsing import parse_polynomial, parse_ring
from jacarena.rings import (
    IntegralRelation,
    LocalizedElement,
    MonogenicExtension,
    integral_dependence,
    invert_in_integral_quotient,
    is_trivial,
    key_elementary_transfer,
    loc_key_clear,
    member_in,
    minimal_polynomial,
    quotient_extend,
    unit_poly_decompose,
    zero_dim_witness,
)


def test_quotient_extend_integers():
    Z = parse_ring("ZZ")
    Z6 = quotient_extend(Z, [Z.element(6)])
    assert not is_trivial(Z6)
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
    assert is_trivial(Z.quotient_extend([Z.element(1)]))
    assert is_trivial(parse_ring("QQ[X]/(X, X-1)"))
    assert not is_trivial(Z)


def test_relations_must_match_base():
    with pytest.raises(IncompatibleRings):
        parse_ring("ZZ[x]").quotient_extend([parse_ring("QQ[x]").element("x")])


def test_minimal_polynomial_examples():
    assert minimal_polynomial(parse_ring("QQ[X]/(X^2)").element("X")).to_text() == "T^2"
    assert (
        minimal_polynomial(parse_ring("GF(2)[X]/(X^2+X)").element("X")).to_text()
        == "T^2 + T"
    )
    assert minimal_polynomial(parse_ring("QQ[X]/(X-3)").element("X")).to_text() == "T - 3"


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
        mu = minimal_polynomial(x)
        deg = mu.degree_in("T")
        p = ring.base.p
        assert ring.element(mu.substitute({"T": x.poly}).remap(ring.vars)).is_zero()
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


@pytest.mark.parametrize(
    "ring_text,x_text,expected_e",
    [
        ("ZZ/12", "6", 2),
        ("ZZ/7", "3", 0),
        ("QQ[X]/(X^2)", "X", 2),
        ("GF(5)", "2", 0),
        ("ZZ/8", "2", 3),
        ("ZZ[X]/(2, X^2)", "X", 2),
    ],
)
def test_zero_dim_witness_identity(ring_text, x_text, expected_e):
    ring = parse_ring(ring_text)
    x = ring.element(x_text)
    e, a = zero_dim_witness(x)
    assert e == expected_e
    assert (x ** e * (ring.one() - a * x)).is_zero()


def _witness_by_power_formula(x):
    """(e, a) with a = -g(0)^(-1) * sum_j c_j * x^(j-e-1), each power taken in the ring."""
    ring = x.ring
    by_deg = {m.exponent(0): c for m, c in minimal_polynomial(x).terms.items()}
    e = min(by_deg)
    r = ring.zero()
    for j, cj in by_deg.items():
        if j > e:
            r = r + ring.element(cj) * x ** (j - e - 1)
    return e, -(ring.element(ring.base.invert(by_deg[e])) * r)


def _random_univariate_cases(base, seed):
    rng = random.Random(seed)
    ring = parse_ring(f"{base!r}[X]")
    cases = []
    for _ in range(4):
        deg = rng.randint(1, 12)
        nil = rng.randint(0, min(deg, 3))
        terms = {(nil + i,): rng.randint(-5, 5) for i in range(deg - nil)}
        terms[(deg,)] = 1
        m = Polynomial(base, ("X",), terms)
        x_terms = {(i,): rng.randint(-3, 3) for i in range(rng.randint(1, deg + 1))}
        if rng.random() < 0.5:
            x_terms = {(i + 1,): c for (i,), c in x_terms.items()}
        quotient = ring.quotient_extend([m])
        cases.append(quotient.element(Polynomial(base, ("X",), x_terms)))
    return cases


def _assert_witness_matches_power_formula(x):
    e, a = zero_dim_witness(x)
    assert (e, a) == _witness_by_power_formula(x), x
    assert (x ** e * (x.ring.one() - a * x)).is_zero()


@pytest.mark.parametrize("base", [QQ, GF(2), GF(7)], ids=repr)
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


def test_zero_dim_witness_rejects_non_zero_dimensional():
    with pytest.raises(NotZeroDimensional):
        zero_dim_witness(parse_ring("ZZ").element(2))
    with pytest.raises(NotZeroDimensional):
        zero_dim_witness(parse_ring("QQ[X]").element("X"))


def test_localized_element_equality():
    Z6 = parse_ring("ZZ/6")
    a = Z6.element(2)
    # 2/2 equals 4/2^2 after cross multiplication and one saturation step
    lhs = LocalizedElement(Z6.element(2), 1)
    rhs = LocalizedElement(Z6.element(4), 2)
    assert lhs.equal_with_saturation(rhs, a, bound=3)
    assert not LocalizedElement(Z6.element(1), 0).equal_with_saturation(
        LocalizedElement(Z6.element(5), 0), a, bound=3
    )


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


def test_integral_relation_validates_at_construction():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2+1)")
    with pytest.raises(Exception):
        IntegralRelation(
            B.element("Y"), Zb.element(1), 0, 2, (Zb.element(5), Zb.element(0))
        ).require_valid()


def test_monogenic_extension_validation():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y,W]/(Y^2+1)")
    with pytest.raises(NotMonogenic):
        MonogenicExtension(Zb, B, "W", B.relations[0])
    A2 = parse_ring("ZZ/2")
    B2 = parse_ring("ZZ[Y]/(2, 2*Y^2+Y)")
    with pytest.raises(LeadingCoefficientZero):
        MonogenicExtension(A2, B2, "Y", parse_polynomial("2*Y^2+Y", ZZ, ("Y",)))


def test_invert_in_integral_quotient_gaussian():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2+1)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    dep = integral_dependence(B.element("Y"), ext)
    a_out = invert_in_integral_quotient(Zb.element(2), B.element("Y"), dep)
    assert a_out == Zb.element(-2)
    # 5 = 1 - (-2)*2 lies in <1-2Y> of B
    target = B.one() - B.element(2) * B.element("Y")
    assert member_in(B, B.element(5), [target]) is not None


def test_invert_identity_case():
    # b already in the base: dependence of degree 1 returns b itself
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y-7)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    dep = integral_dependence(B.element("Y"), ext)
    assert dep.d == 1 and dep.l == 0
    out = invert_in_integral_quotient(Zb.element(3), B.element("Y"), dep)
    assert out == Zb.element(7)


def test_invert_trivially_satisfied():
    QQb = parse_ring("QQ")
    B = parse_ring("QQ[Y]/(Y^2-Y)")
    ext = MonogenicExtension(QQb, B, "Y", B.relations[0])
    dep = integral_dependence(B.element("Y"), ext)
    out = invert_in_integral_quotient(QQb.element(1), B.element("Y"), dep)
    assert out == QQb.element(1)


def test_invert_requires_monic():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[X]/(2*X^2-1)")
    ext = MonogenicExtension(Zb, B, "X", B.relations[0])
    dep = integral_dependence(B.element("X"), ext)
    with pytest.raises(NonMonicDependence):
        invert_in_integral_quotient(Zb.element(1), B.element("X"), dep)


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
    a2 = key_elementary_transfer(Zb.element(1), Zb.element(1), Zb.element(1), B.element(7), ext)
    assert a2 == Zb.element(7)


def test_key_elementary_transfer_gaussian():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2+1)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    a, a0, a1 = Zb.element(1), Zb.element(1), Zb.element(2)
    a2 = key_elementary_transfer(a, a0, a1, B.element("Y"), ext)
    w = Zb.one() - a1 * a * a0
    target = B.one() - B.element("Y") * B.element(w.poly)
    claim = B.one() - B.element(a2.poly) * B.element(w.poly)
    assert member_in(B, claim, [target]) is not None


def test_key_elementary_transfer_zero_a1():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2+1)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    a2 = key_elementary_transfer(Zb.element(1), Zb.element(1), Zb.element(0), B.element("Y"), ext)
    # need 1 - a2 in <1 - Y> of B
    claim = B.one() - B.element(a2.poly)
    assert member_in(B, claim, [B.one() - B.element("Y")]) is not None


def test_key_elementary_transfer_nonmonic_localized():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[X]/(2*X^2-1)")
    ext = MonogenicExtension(Zb, B, "X", B.relations[0])
    a, a0, a1 = Zb.element(2), Zb.element(3), Zb.element(1)
    b2 = B.element("X+1")
    a2 = key_elementary_transfer(a, a0, a1, b2, ext)
    w = Zb.one() - a1 * a * a0
    target = B.one() - b2 * B.element(w.poly)
    claim = B.one() - B.element(a2.poly) * B.element(w.poly)
    assert member_in(B, claim, [target]) is not None


def test_saturation_cap_env_override(monkeypatch):
    from jacarena.rings import saturation_cap

    assert saturation_cap() == 16
    monkeypatch.setenv("JACARENA_SATURATION_CAP", "3")
    assert saturation_cap() == 3


def test_unit_poly_decompose_z4():
    R = parse_ring("ZZ[X]/(4)")
    dec = unit_poly_decompose(R.element("1+2*X"), R.element("1-2*X"))
    assert dec.nil_certs[1].exponent == 2
    assert dec.constant[0] * dec.constant[1] == dec.constant[0].ring.one()
    assert dec.lead_exponent == 2


def test_unit_poly_decompose_constant_unit():
    R = parse_ring("QQ[X]")
    dec = unit_poly_decompose(R.element("3"), R.element("1/3"))
    assert dec.nil_certs == {}
    assert dec.constant[0].to_text() == "3"


def test_unit_poly_decompose_two_variables():
    R = parse_ring("ZZ[X,Y]/(4)")
    dec = unit_poly_decompose(R.element("1-2*X*Y"), R.element("1+2*X*Y"), var="Y")
    cert = dec.nil_certs[1]
    assert cert.exponent == 2
    assert cert.verify()


def test_unit_poly_decompose_rejects_non_unit():
    R = parse_ring("ZZ[X]/(4)")
    with pytest.raises(NotAUnit):
        unit_poly_decompose(R.element("1+2*X"), R.element("1+X"))


def test_unit_poly_decompose_random_nilpotent_units():
    rng = random.Random(31)
    for m in (4, 9):
        R = parse_ring(f"ZZ[X]/({m * m})")
        for _ in range(10):
            w = R.element(
                Polynomial(ZZ, ("X",), {(rng.randint(0, 2),): m * rng.randint(-2, 2)})
            )
            u = R.one() + w
            v = R.one() - w
            if not (u * v - 1).is_zero():
                continue
            dec = unit_poly_decompose(u, v)
            for cert in dec.nil_certs.values():
                assert cert.verify()
            deg_v = max(v.poly.coefficients_in("X"), default=0)
            split = u.poly.coefficients_in("X")
            higher = [j for j in split if j >= 1]
            if higher:
                lead = split[max(higher + [0])] if max(higher) >= 1 else None
                coeff_ring = parse_ring(f"ZZ/({m * m})")
                lead_elt = coeff_ring.element(split[max(higher)].remap(()))
                assert (lead_elt ** (deg_v + 1)).is_zero()
