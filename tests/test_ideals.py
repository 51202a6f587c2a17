"""Groebner bases, membership cofactors, and nilpotency certificates."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacarena.algebra import GF, QQ, ZZ, MonomialOrder, Polynomial, exponents, pack
from jacarena.errors import InvalidCertificate
from jacarena.ideals import NilCertificate, _reduce_full, _Row, groebner
from jacarena.parsing import parse_polynomial, parse_ring
from jacarena.rings import is_nil, member_in, nil_member
from support import nil_exponent_search


def gb_of(texts, ring, vars):
    gens = [parse_polynomial(t, ring, vars) for t in texts]
    return groebner(gens, MonomialOrder(vars), ring=ring)


def test_groebner_univariate_collapse():
    gb = gb_of(["X^2-1", "X-1"], QQ, ("X",))
    assert [b.to_text() for b in gb.basis] == ["X - 1"]


def test_groebner_strong_basis_stays():
    gb = gb_of(["2", "X"], ZZ, ("X",))
    assert sorted(b.to_text() for b in gb.basis) == ["2", "X"]


def test_groebner_unit_ideal():
    gb = gb_of(["X", "X-1"], QQ, ("X",))
    assert [b.to_text() for b in gb.basis] == ["1"]
    assert gb.is_member(Polynomial.constant(QQ, 1, ("X",)))


def test_groebner_empty_input():
    gb = groebner([], MonomialOrder(("X",)), ring=QQ)
    assert gb.basis == ()
    assert not gb.is_member(Polynomial.constant(QQ, 1, ("X",)))


def test_groebner_gcd_completion_pair():
    # <2X, 3Y> needs the gcd-completion element XY to be strong.
    gb = gb_of(["2*X", "3*Y"], ZZ, ("X", "Y"))
    texts = sorted(b.to_text() for b in gb.basis)
    assert "X*Y" in texts
    assert gb.is_member(parse_polynomial("5*X*Y", ZZ, ("X", "Y")))


def _check_transformation(gb):
    for row, cofs in zip(gb.basis, gb.cofactors):
        acc = Polynomial.zero(gb.ring, gb.order.vars)
        for c, g in zip(cofs, gb.gens):
            acc = acc + c * g
        assert acc == row


def _check_s_and_g_polys_reduce(gb):
    n = len(gb.order.vars)
    rows = list(zip(gb.basis, (gb.order.leading(b.terms) for b in gb.basis)))
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            (pi, (lmi, lci)), (pj, (lmj, lcj)) = rows[i], rows[j]
            ei, ej = exponents(lmi, n), exponents(lmj, n)
            lcm = [max(a, b) for a, b in zip(ei, ej)]
            si = pack([l - a for l, a in zip(lcm, ei)], n)
            sj = pack([l - b for l, b in zip(lcm, ej)], n)
            if gb.ring.kind == "ZZ":
                import math

                l = lci * lcj // math.gcd(lci, lcj)
                s = pi.mul_term(si, l // lci) - pj.mul_term(sj, l // lcj)
                assert gb.normal_form(s).is_zero()
                g, u, v = _egcd(lci, lcj)
                gp = pi.mul_term(si, u) + pj.mul_term(sj, v)
                assert gb.normal_form(gp).is_zero()
            else:
                s = pi.mul_term(si, gb.ring.invert(lci)) - pj.mul_term(
                    sj, gb.ring.invert(lcj)
                )
                assert gb.normal_form(s).is_zero()


def _check_reduced(gb):
    """What one inter-reduction pass must leave: each row is its own normal
    form by the others, and the rows are sorted by (key, lc)."""
    rows = gb._rows
    for i, row in enumerate(rows):
        others = rows[:i] + rows[i + 1 :]
        assert _reduce_full(row.poly, others, gb.order, False)[0] == row.poly
    keys = [(gb.order.key(row.lm), row.lc) for row in rows]
    assert keys == sorted(keys)


def _egcd(a, b):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, s, t = _egcd(b, a % b)
    return (g, t, s - (a // b) * t)


@pytest.mark.parametrize(
    "ring,texts,vars",
    [
        (QQ, ["X^2*Y - 1", "X*Y^2 - X"], ("X", "Y")),
        (GF(5), ["X^2 + Y", "Y^2 + X", "X*Y - 2"], ("X", "Y")),
        (ZZ, ["2*X + Y", "3*Y^2", "6"], ("X", "Y")),
        (ZZ, ["4*X^2 - Y", "6*X*Y", "10"], ("X", "Y")),
    ],
)
def test_groebner_invariants(ring, texts, vars):
    gb = gb_of(texts, ring, vars)
    _check_transformation(gb)
    _check_s_and_g_polys_reduce(gb)
    _check_reduced(gb)


def test_groebner_random_transformation_invariant():
    rng = random.Random(20240)
    for ring in (QQ, ZZ, GF(5)):
        for _ in range(6):
            vars = ("X", "Y")
            gens = []
            for _ in range(rng.randint(1, 3)):
                terms = {
                    (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4)
                    for _ in range(rng.randint(1, 3))
                }
                gens.append(Polynomial(ring, vars, terms))
            gb = groebner(gens, MonomialOrder(vars), ring=ring)
            _check_transformation(gb)
            _check_s_and_g_polys_reduce(gb)
            _check_reduced(gb)


UNIT_IDEALS = [
    (QQ, ["X+1", "X", "3"], ("X",), [["1", "-1", "0"]]),
    (ZZ, ["2", "3"], ("X",), [["-1", "1"]]),
    (ZZ, ["2*X+1", "X"], ("X",), [["1", "-2"]]),
    (GF(5), ["X*Y+1", "X*Y", "Y^2"], ("X", "Y"), [["1", "4", "0"]]),
]


@pytest.mark.parametrize("ring,texts,vars,cofactors", UNIT_IDEALS)
def test_groebner_stops_at_a_unit_row(ring, texts, vars, cofactors):
    # the cofactors the full completion gives, pinned before it stopped at a unit
    gb = gb_of(texts, ring, vars)
    assert [b.to_text() for b in gb.basis] == ["1"]
    assert [[c.to_text() for c in cofs] for cofs in gb.cofactors] == cofactors
    _check_transformation(gb)
    gens = [parse_polynomial(t, ring, vars) for t in texts]
    untracked = groebner(gens, MonomialOrder(vars), ring=ring, track=False)
    assert [b.to_text() for b in untracked.basis] == ["1"]


def test_groebner_over_zz_does_not_stop_at_a_non_unit_constant():
    for track in (True, False):
        gens = [parse_polynomial(t, ZZ, ("X",)) for t in ["6", "4"]]
        gb = groebner(gens, MonomialOrder(("X",)), ring=ZZ, track=track)
        assert [b.to_text() for b in gb.basis] == ["2"]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_groebner_with_a_unit_input_is_the_unit_ideal(data):
    ring = data.draw(st.sampled_from([QQ, ZZ, GF(5)]))
    vars = ("X", "Y")
    gens = [
        Polynomial(ring, vars, data.draw(st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4), max_size=3
        )))
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    unit = data.draw(st.sampled_from([1, -1] if ring == ZZ else [1, 2, -3]))
    gens.insert(data.draw(st.integers(0, len(gens))), Polynomial.constant(ring, unit, vars))
    order = MonomialOrder(vars)
    tracked = groebner(gens, order, ring=ring)
    untracked = groebner(gens, order, ring=ring, track=False)
    assert [b.to_text() for b in tracked.basis] == ["1"]
    assert [b.to_text() for b in untracked.basis] == ["1"]
    _check_transformation(tracked)


def _seeded_inputs():
    """(ring, vars, gens) of 18 seeded inputs: five random ones per ring in
    two or three variables, and one with a unit among them."""
    rng = random.Random(3404)
    out = []
    for ring in (QQ, ZZ, GF(5)):
        for n in (2, 2, 2, 3, 3):
            vars = ("X", "Y", "Z")[:n]
            gens = [
                Polynomial(ring, vars, {
                    tuple(rng.randint(0, 2) for _ in vars): rng.randint(-6, 6)
                    for _ in range(rng.randint(2, 4))
                })
                for _ in range(rng.randint(2, 3))
            ]
            out.append((ring, vars, gens))
        ring, vars, gens = out[-1]
        out.append((ring, vars, gens[:1] + [Polynomial.constant(ring, -1, vars)] + gens[1:]))
    return out


def test_groebner_bases_and_cofactors_of_seeded_inputs_are_pinned():
    # sha256 of every basis and cofactor text of 36 completions (over ZZ
    # with G-pairs), taken from the completion that built S- and G-pairs in
    # two branches and scanned untracked inputs for a unit
    digest = hashlib.sha256()
    for ring, vars, gens in _seeded_inputs():
        for track in (True, False):
            gb = groebner(gens, MonomialOrder(vars), ring=ring, track=track)
            cofactors = gb.cofactors and [[c.to_text() for c in cofs] for cofs in gb.cofactors]
            digest.update(repr(([b.to_text() for b in gb.basis], cofactors)).encode())
    assert digest.hexdigest() == "c356fb0845518b567c963493fc8f04e6cc428743ddd6c43e62303bb1a4a3ab71"


_small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-6, 6), min_size=1, max_size=4
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, ZZ, GF(5)]), st.lists(_small_polys, min_size=1, max_size=3))
def test_tracked_and_untracked_completions_give_the_same_basis(ring, gen_terms):
    vars = ("X", "Y")
    gens = [Polynomial(ring, vars, t) for t in gen_terms]
    order = MonomialOrder(vars)
    tracked = groebner(gens, order, ring=ring)
    assert groebner(gens, order, ring=ring, track=False).basis == tracked.basis
    _check_transformation(tracked)


def test_ideal_member_bezout():
    Z = parse_ring("ZZ")
    cofs = member_in(Z, 1, [3, 5])
    assert cofs is not None
    assert cofs[0] * 3 + cofs[1] * 5 == Z.one().poly


def test_ideal_member_degree_obstruction():
    R = parse_ring("QQ[X]")
    assert member_in(R, R.element("X"), [R.element("X^2")]) is None


def test_ideal_member_mixed():
    R = parse_ring("ZZ[X]/(2)")
    target = R.element("X").poly + 6
    cofs = member_in(R, target, [R.element("X")])
    assert cofs is not None
    assert cofs[0] * R.relations[0] + cofs[1] * R.element("X").poly == target


def test_nil_member_integer_example():
    Z = parse_ring("ZZ")
    cert = nil_member(Z.element(6), [Z.element(12)])
    assert cert is not None and cert.exponent == 2
    assert cert.verify()


def test_nil_member_absent():
    R = parse_ring("QQ[X]")
    assert nil_member(R.element("X"), [R.element("X^2+X^3")]) is None
    assert not is_nil(R.element("X"), [R.element("X^2+X^3")])
    found = nil_exponent_search(R.element("X"), [R.element("X^2+X^3")], cap=10)
    assert found is None


def test_nil_member_zero_element():
    Z = parse_ring("ZZ")
    cert = nil_member(Z.element(0), [])
    assert cert.exponent == 1 and cert.cofactors == () and cert.verify()
    assert is_nil(Z.element(0))


def test_nil_member_agrees_with_exponent_search():
    rng = random.Random(77)
    rings = [parse_ring("QQ[X,Y]"), parse_ring("GF(5)[X,Y]"), parse_ring("ZZ[X]")]
    for ring in rings:
        for _ in range(8):
            def rand_elt():
                terms = {
                    tuple(rng.randint(0, 2) for _ in ring.vars): rng.randint(-3, 3)
                    for _ in range(rng.randint(1, 3))
                }
                return ring.element(Polynomial(ring.base, ring.vars, terms))

            x = rand_elt()
            constraints = [rand_elt() for _ in range(rng.randint(1, 2))]
            cert = nil_member(x, constraints)
            assert is_nil(x, constraints) == (cert is not None)
            search = nil_exponent_search(x, constraints, cap=12)
            if search is not None:
                e, cert2 = search
                assert cert is not None, (x, constraints)
                assert cert2.verify()
            if cert is not None:
                assert cert.verify()
                if cert.exponent <= 12:
                    assert search is not None


def test_certificate_rejects_tampering():
    Z = parse_ring("ZZ")
    cert = nil_member(Z.element(6), [Z.element(12)])
    bad = NilCertificate(cert.element, cert.exponent + 1, cert.generators, cert.cofactors)
    assert not bad.verify()
    with pytest.raises(InvalidCertificate):
        bad.require_valid()


def test_certificate_with_a_cofactor_count_off_fails():
    def c(v):
        return Polynomial.constant(ZZ, v)

    # 5^1 = 1*5: the extra cofactor 5 must not be dropped
    assert NilCertificate(c(5), 1, (c(5),), (c(1),)).verify()
    assert not NilCertificate(c(5), 1, (c(5),), (c(1), c(5))).verify()
    assert not NilCertificate(c(5), 1, (c(5), c(7)), (c(1),)).verify()
    with pytest.raises(InvalidCertificate):
        NilCertificate(c(5), 1, (c(5),), (c(1), c(5))).require_valid()


def _qq_identity():
    """x'^3 = c1*g1 + c2*g2 over QQ[X], the four polynomials with different
    denominators; g1 is solved for, so the identity holds exactly."""
    def q(text):
        return parse_polynomial(text, QQ, ("X",))

    x = q("X/5 + 1/2")
    c1, c2, g2 = q("2/3"), q("5/4*X + 1/6"), q("X/7 + 2/9")
    g1 = (x**3 - c2 * g2) * q("3/2")
    return x, 3, (g1, g2), (c1, c2)


def test_qq_certificate_with_different_denominators_verifies():
    x, e, gens, cofs = _qq_identity()
    assert len({c.denominator for p in (x,) + gens + cofs for c in p.terms.values()}) > 3
    NilCertificate(x, e, gens, cofs).require_valid()


def test_qq_certificate_off_by_a_factor_of_two_fails():
    x, e, gens, cofs = _qq_identity()
    assert not NilCertificate(x.scale(2), e, gens, cofs).verify()
    assert not NilCertificate(x, e, gens, tuple(c.scale(2) for c in cofs)).verify()
    with pytest.raises(InvalidCertificate):
        NilCertificate(x, e, gens, tuple(c.scale(2) for c in cofs)).require_valid()


def test_qq_certificate_with_a_cofactor_off_by_one_over_the_common_denominator_fails():
    x, e, gens, cofs = _qq_identity()
    den = math.lcm(*(c.denominator for p in (x,) + gens + cofs for c in p.terms.values()))
    for i in range(len(cofs)):
        changed = list(cofs)
        changed[i] = changed[i] + Fraction(1, den)
        assert not NilCertificate(x, e, gens, tuple(changed)).verify()


def _fraction_reduce(p, rows, order, track):
    """Reference reducer over QQ on Fraction arithmetic: every row is monic,
    so the quotient of the largest reducible term c*m is c itself."""
    work = {m: Fraction(c) for m, c in p.terms.items()}
    remainder = {}
    quots = [{} for _ in rows]
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        idx = next((i for i, row in enumerate(rows) if order.divides(row.lm, m)), None)
        if idx is None:
            remainder[m] = c
            continue
        shift = m - rows[idx].lm
        quots[idx][shift] = c
        for m2, c2 in rows[idx].poly.terms.items():
            if m2 != rows[idx].lm:
                v = work.get(m2 + shift, 0) - c * c2
                if v:
                    work[m2 + shift] = v
                else:
                    work.pop(m2 + shift, None)
    nf = Polynomial._raw(p.ring, order.vars, remainder)
    if not track:
        return nf, None
    return nf, [Polynomial._raw(p.ring, order.vars, q) for q in quots]


def _assert_canonical(poly):
    for c in poly.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


_qq_coefficients = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 97))
_qq_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), _qq_coefficients, min_size=1, max_size=4
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_qq_polys, min_size=1, max_size=3), st.lists(_qq_polys, min_size=1, max_size=3))
def test_integer_reducer_matches_the_fraction_reducer(gen_terms, target_terms):
    import jacarena.ideals as ideals

    vars = ("X", "Y")
    order = MonomialOrder(vars)
    gens = [Polynomial(QQ, vars, t) for t in gen_terms]
    targets = [Polynomial(QQ, vars, t) for t in target_terms]
    for track in (True, False):
        gb = groebner(gens, order, ring=QQ, track=track)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ideals, "_reduce_full", _fraction_reduce)
            ref = groebner(gens, order, ring=QQ, track=track)
        assert gb.basis == ref.basis
        assert gb.cofactors == ref.cofactors
        for poly in gb.basis:
            _assert_canonical(poly)
        for p in targets:
            nf = gb.normal_form(p)
            assert nf == _fraction_reduce(p, gb._rows, order, False)[0]
            _assert_canonical(nf)
            if track:
                nf, quots = gb.reduce_tracked(p)
                ref_nf, ref_quots = _fraction_reduce(p, gb._rows, order, True)
                assert (nf, quots) == (ref_nf, ref_quots)
                for q in quots:
                    _assert_canonical(q)


def _integer_reduce(p, rows, order):
    """Reference reducer over ZZ on plain ints: the largest term c*m first,
    by the row of smallest leading coefficient whose leading monomial divides
    m (the lowest index on ties), with divmod remainders."""
    work = dict(p.terms)
    remainder = {}
    quots = [{} for _ in rows]
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        divisors = [i for i, row in enumerate(rows) if order.divides(row.lm, m)]
        if not divisors:
            remainder[m] = c
            continue
        idx = min(divisors, key=lambda i: rows[i].lc)
        row = rows[idx]
        q, r = divmod(c, row.lc)
        if r:
            remainder[m] = r
        if q == 0:
            continue
        shift = m - row.lm
        quots[idx][shift] = q
        for m2, c2 in row.poly.terms.items():
            if m2 != row.lm:
                v = work.get(m2 + shift, 0) - q * c2
                if v:
                    work[m2 + shift] = v
                else:
                    work.pop(m2 + shift, None)
    vars = order.vars
    return Polynomial._raw(ZZ, vars, remainder), [Polynomial._raw(ZZ, vars, q) for q in quots]


# rows with positive leading coefficients drawn from small pools, so that
# several rows share a leading monomial, a leading coefficient or both; every
# tail term has a smaller degree than the lead, so it is smaller in DEGREVLEX
_zz_rows = st.builds(
    lambda lead, lc, tail: {**{e: c for e, c in tail.items() if sum(e) < sum(lead)}, lead: lc},
    st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]),
    st.integers(1, 3),
    st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1)), st.integers(-6, 6).filter(bool), max_size=3
    ),
)
_zz_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-20, 20), min_size=1, max_size=5
)
_zz_gens = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4), min_size=1, max_size=3
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_zz_rows, min_size=1, max_size=5),
    st.lists(_zz_gens, min_size=1, max_size=3),
    st.lists(_zz_polys, min_size=1, max_size=3),
)
def test_integer_reducer_takes_the_smallest_coefficient_with_the_lowest_index(
    row_terms, gen_terms, target_terms
):
    vars = ("X", "Y")
    order = MonomialOrder(vars)
    rows = [_Row(Polynomial(ZZ, vars, t), None, order) for t in row_terms]
    gb = groebner([Polynomial(ZZ, vars, t) for t in gen_terms], order, ring=ZZ)
    for p in (Polynomial(ZZ, vars, t) for t in target_terms):
        for reducers in (rows, gb._rows):
            ref = _integer_reduce(p, reducers, order)
            assert _reduce_full(p, reducers, order, True) == ref
            assert _reduce_full(p, reducers, order, False)[0] == ref[0]
