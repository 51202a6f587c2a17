"""Finitely presented rings, quotients, and the localization/integrality toolkit.

A ring is presented as base coefficients, an ordered variable list, and
relation generators.  Elements are kept in Groebner normal form, so equality
is decidable and representatives are canonical (over ZZ thanks to the strong
basis with nonnegative canonical remainders).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .algebra import Monomial, MonomialOrder, Polynomial
from .errors import (
    IncompatibleRings,
    InvalidCertificate,
    LeadingCoefficientZero,
    NonMonicDependence,
    NotAUnit,
    NotFinite,
    NotFiniteDimensional,
    NotMonogenic,
    NotZeroDimensional,
    SaturationCapExceeded,
    UnsupportedRing,
)
from .ideals import NilCertificate, groebner, ideal_member


def saturation_cap():
    """Bounded-search cap for denominator clearing; env-overridable."""
    return int(os.environ.get("JACARENA_SATURATION_CAP", "16"))


class RingPresentation:
    """Computable ring: coefficient base + variables + relation ideal."""

    __slots__ = ("base", "vars", "relations", "order", "_gb")

    def __init__(self, base, vars=(), relations=(), order_kind="DEGREVLEX"):
        self.base = base
        self.vars = tuple(vars)
        rels = []
        for r in relations:
            if not isinstance(r, Polynomial):
                raise TypeError(f"relation {r!r} is not a Polynomial")
            if r.ring != base:
                raise IncompatibleRings(f"relation {r} not over {base}")
            rels.append(r.remap(self.vars))
        self.relations = tuple(rels)
        self.order = MonomialOrder(order_kind, self.vars)
        self._gb = None

    @property
    def gb(self):
        if self._gb is None:
            self._gb = groebner(
                list(self.relations), self.order, ring=self.base, track=False
            )
        return self._gb

    def normal_form(self, poly):
        poly = poly.remap(self.vars)
        if not self.relations:
            return poly
        return self.gb.normal_form(poly)

    def element(self, value):
        if isinstance(value, RingElement):
            if value.ring == self:
                return value
            value = value.poly
        if isinstance(value, str):
            from .parsing import parse_polynomial

            value = parse_polynomial(value, self.base, self.vars)
        if not isinstance(value, Polynomial):
            value = Polynomial.constant(self.base, value, self.vars)
        if value.ring != self.base:
            raise IncompatibleRings(f"{value} is not over {self.base}")
        return RingElement(self, self.normal_form(value))

    def zero(self):
        return RingElement(self, Polynomial.zero(self.base, self.vars))

    def one(self):
        return self.element(1)

    def is_trivial(self):
        return self.gb.contains_one

    def quotient_extend(self, extra):
        """New presentation with the extra elements adjoined to the relations."""
        polys = []
        for x in extra:
            if isinstance(x, RingElement):
                if x.ring != self:
                    raise IncompatibleRings(f"{x} does not belong to this ring")
                polys.append(x.poly)
            elif isinstance(x, Polynomial):
                polys.append(x.remap(self.vars))
            else:
                polys.append(Polynomial.constant(self.base, x, self.vars))
        return RingPresentation(
            self.base, self.vars, self.relations + tuple(polys), self.order.kind
        )

    def to_text(self):
        if self.base.kind == "GF":
            text = f"GF({self.base.p})"
        else:
            text = self.base.kind
        if self.vars:
            text += "[" + ",".join(self.vars) + "]"
        if self.relations:
            text += "/(" + ", ".join(r.to_text() for r in self.relations) + ")"
        return text

    def __eq__(self, other):
        return (
            isinstance(other, RingPresentation)
            and self.base == other.base
            and self.vars == other.vars
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.base, self.vars, self.relations))

    def __repr__(self):
        return f"RingPresentation({self.to_text()!r})"


class RingElement:
    """Element of a presented ring, stored as its unique normal form."""

    __slots__ = ("ring", "poly")

    def __init__(self, ring, poly):
        self.ring = ring
        self.poly = poly

    def is_zero(self):
        return self.poly.is_zero()

    def is_one(self):
        return self.poly.is_constant() and self.poly.constant_value() == self.ring.base.one()

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise IncompatibleRings(
                    f"{other.ring.to_text()} element mixed into {self.ring.to_text()}"
                )
            return other
        return self.ring.element(other)

    def __add__(self, other):
        other = self._coerce(other)
        return self.ring.element(self.poly + other.poly)

    __radd__ = __add__

    def __neg__(self):
        return self.ring.element(-self.poly)

    def __sub__(self, other):
        other = self._coerce(other)
        return self.ring.element(self.poly - other.poly)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return self.ring.element(self.poly * other.poly)

    __rmul__ = __mul__

    def __pow__(self, e):
        return self.ring.element(self.poly ** e)

    def __eq__(self, other):
        if isinstance(other, (int,)) and not isinstance(other, bool):
            other = self.ring.element(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.poly == other.poly

    def __hash__(self):
        return hash((self.ring, self.poly))

    def to_text(self):
        return self.poly.to_text()

    def __repr__(self):
        return f"<{self.poly.to_text()} in {self.ring.to_text()}>"


def quotient_extend(ring, extra):
    return ring.quotient_extend(extra)


def is_trivial(ring):
    return ring.is_trivial()


def _as_poly(x, ring):
    if isinstance(x, RingElement):
        if x.ring != ring:
            raise IncompatibleRings(f"{x} does not belong to {ring.to_text()}")
        return x.poly
    if isinstance(x, Polynomial):
        return x.remap(ring.vars)
    return Polynomial.constant(ring.base, x, ring.vars)


def member_in(ring, target, extra=()):
    """Cofactors of target over relations + extra inside the presented ring.

    Returns a list aligned with ``list(ring.relations) + list(extra)`` or
    None when the element is not in the ideal.
    """
    target = _as_poly(target, ring)
    gens = list(ring.relations) + [_as_poly(g, ring) for g in extra]
    return ideal_member(target, gens, MonomialOrder(ring.order.kind, ring.vars))


def membership_basis(ring, extra=()):
    """Untracked basis for relations + extra; cheap repeated membership tests.

    Starts from the ring's cached reduced basis, which generates the same
    ideal as the raw relation list but gives the completion a head start.
    """
    gens = list(ring.gb.basis) + [_as_poly(g, ring) for g in extra]
    return groebner(
        gens, MonomialOrder(ring.order.kind, ring.vars), ring=ring.base, track=False
    )


def in_ideal(ring, target, extra=()):
    return membership_basis(ring, extra).is_member(_as_poly(target, ring))


def _fresh_var(vars, stem="T"):
    if stem not in vars:
        return stem
    i = 0
    while f"{stem}{i}" in vars:
        i += 1
    return f"{stem}{i}"


def nil_member(x, constraints=()):
    """Nilpotency membership by the Rabinowitsch construction.

    Decides whether some power of x lies in the ideal generated by the
    ring's relations together with the constraint elements; on success the
    returned certificate's identity x^e = sum cofactor_i * generator_i holds
    exactly in the ambient polynomial ring.
    """
    ring = x.ring
    base = ring.base
    gens_ring = list(ring.relations) + [_as_poly(c, ring) for c in constraints]
    xp = x.poly
    if xp.is_zero():
        zero = Polynomial.zero(base, ring.vars)
        return NilCertificate(xp, 1, tuple(gens_ring), tuple(zero for _ in gens_ring))

    t = _fresh_var(ring.vars)
    bigvars = ring.vars + (t,)
    order = MonomialOrder(ring.order.kind, bigvars)
    tpoly = Polynomial.variable(base, t, bigvars)
    rab = Polynomial.constant(base, 1, bigvars) - tpoly * xp.remap(bigvars)
    gens = [g.remap(bigvars) for g in gens_ring] + [rab]
    gb = groebner(gens, order, ring=base)
    cofs = gb.member_cofactors(Polynomial.constant(base, 1, bigvars))
    if cofs is None:
        return None

    exponent = 0
    splits = []
    for c in cofs[:-1]:
        by_t = c.coefficients_in(t)
        splits.append(by_t)
        if by_t:
            exponent = max(exponent, max(by_t))
    out = []
    for by_t in splits:
        acc = Polynomial.zero(base, ring.vars)
        for k, coeff_poly in by_t.items():
            acc = acc + coeff_poly.remap(ring.vars) * xp ** (exponent - k)
        out.append(acc)
    cert = NilCertificate(xp, exponent, tuple(gens_ring), tuple(out))
    return cert.require_valid()


def nil_exponent_search(x, constraints=(), cap=12):
    """Independent oracle: smallest e <= cap with x^e in the ideal, else None."""
    ring = x.ring
    gens = list(ring.relations) + [_as_poly(c, ring) for c in constraints]
    power = Polynomial.constant(ring.base, 1, ring.vars)
    for e in range(cap + 1):
        cofs = ideal_member(power, gens, MonomialOrder(ring.order.kind, ring.vars))
        if cofs is not None:
            return e, NilCertificate(x.poly, e, tuple(gens), tuple(cofs)).require_valid()
        power = power * x.poly
    return None


def finite_enumeration_data(ring):
    """(staircase monomials, per-monomial residue counts) for a finite ring.

    Raises NotFinite when the presented ring has infinitely many elements.
    The residue count of a staircase monomial is the smallest applicable
    leading coefficient over ZZ, and the field size over GF(p).
    """
    gb = ring.gb
    stair = gb.staircase()
    if stair is None:
        raise NotFinite(f"{ring.to_text()} has an infinite staircase")
    base = ring.base
    if base.kind == "QQ":
        if stair:
            raise NotFinite(f"{ring.to_text()} is an infinite QQ-algebra")
        return [], []
    if base.kind == "GF":
        return list(stair), [base.p] * len(stair)
    counts = []
    leads = gb.lead_terms()
    for mono in stair:
        applicable = [lc for lm, lc in leads if lm.divides(mono)]
        if not applicable:
            raise NotFinite(
                f"{ring.to_text()}: monomial {mono!r} has unbounded coefficients"
            )
        counts.append(min(applicable))
    return list(stair), counts


def minimal_polynomial(x, var="T"):
    """Monic minimal polynomial of x in a finite-dimensional algebra over QQ or GF(p).

    Computed by scanning powers 1, x, x^2, ... expressed on the staircase
    basis for the first linear dependency.  ``zero_dim_witness`` reuses the
    scanned powers through ``_minimal_polynomial_scan``.
    """
    return _minimal_polynomial_scan(x, var)[0]


def _minimal_polynomial_scan(x, var="T"):
    """(minimal polynomial of x, normal forms of 1, x, ..., x^(d-1)), d its degree.

    The powers are the ones the scan reduces anyway.  Over a field a normal
    form is a combination of staircase monomials, so any linear combination
    of them is again a normal form: a polynomial of degree below d evaluated
    at x needs no further multiplication or reduction.
    """
    ring = x.ring
    base = ring.base
    if base.kind == "ZZ":
        raise UnsupportedRing("minimal polynomials need a field base (QQ or GF)")
    stair = ring.gb.staircase()
    if stair is None:
        raise NotFiniteDimensional(f"{ring.to_text()} has an infinite staircase")
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
            terms = {Monomial((k,)): base.one()}
            for j, cj in enumerate(combo):
                if cj != base.zero():
                    terms[Monomial((j,))] = base.neg(cj)
            return Polynomial(base, (var,), terms), powers
        coords = [base.neg(c) for c in combo] + [base.one()]
        pivots.append((nonzero, v, coords))
        powers.append(power.poly)
        power = power * x
    raise AssertionError("dependency must appear within dim+1 powers")


def zero_dim_witness(x):
    """Witness (e, a) with x^e * (1 - a*x) = 0 in the ring.

    Field algebras factor the minimal polynomial as T^e * g(T) with
    g(0) != 0 and return a = -g(0)^(-1) * r(x) for g = g(0) + T*r(T).
    r has degree below that of the minimal polynomial, so a is summed from
    the normal forms of the powers of x that the minimal polynomial scan
    kept; a linear combination of normal forms over a field is a normal form.
    Finite ZZ-based rings detect a power cycle x^i = x^j and return
    (i, x^(j-i-1)).
    """
    ring = x.ring
    base = ring.base
    if base.kind in ("QQ", "GF"):
        try:
            mu, powers = _minimal_polynomial_scan(x)
        except NotFiniteDimensional as exc:
            raise NotZeroDimensional(str(exc)) from None
        by_deg = {m.exponent(0): c for m, c in mu.terms.items()}
        e = min(by_deg)
        factor = base.neg(base.invert(by_deg[e]))
        a_poly = Polynomial.zero(base, ring.vars)
        for j, cj in by_deg.items():
            if j > e:
                a_poly = a_poly + powers[j - e - 1].scale(base.mul(factor, cj))
        a = RingElement(ring, a_poly)
    elif not ring.vars:
        e, a = _modular_witness(x)
    else:
        try:
            stair, counts = finite_enumeration_data(ring)
        except NotFinite as exc:
            raise NotZeroDimensional(str(exc)) from None
        bound = 1
        for c in counts:
            bound *= c
        seen = {}
        powers = []
        value = ring.one()
        i = j = None
        for k in range(bound + 2):
            key = value.poly
            if key in seen:
                i, j = seen[key], k
                break
            seen[key] = k
            powers.append(value)
            value = value * x
        if i is None:
            raise NotZeroDimensional(f"no power cycle within {bound + 2} steps")
        e = i
        a = powers[j - i - 1]
    witness = x ** e * (ring.one() - a * x)
    if not witness.is_zero():
        raise AssertionError("zero-dimensional witness identity failed")
    return e, a


def _modular_witness(x):
    """Witness for x in ZZ/n via gcd stabilization, in O(log n) steps.

    Once gcd(x^e, n) stops growing, n splits as g * m2 with g | x^e and x
    invertible modulo m2, so a := x^(-1) mod m2 gives x^e(1 - a*x) = 0.
    """
    import math

    ring = x.ring
    torsion = None
    for lm, lc in ring.gb.lead_terms():
        if lm.is_one():
            torsion = abs(lc)
            break
    if torsion is None:
        raise NotZeroDimensional(f"{ring.to_text()} has no integer torsion")
    n = torsion
    x_val = x.poly.constant_value() if not x.poly.is_zero() else 0
    prev = math.gcd(1, n)
    e = 0
    while True:
        nxt = math.gcd(pow(x_val, e + 1, n) if n > 1 else 0, n)
        if nxt == prev:
            break
        prev = nxt
        e += 1
    m2 = n // prev
    a = ring.element(pow(x_val, -1, m2)) if m2 > 1 else ring.zero()
    return e, a


@dataclass(frozen=True)
class LocalizedElement:
    """numerator / a^exponent in the localization of a ring at a."""

    numerator: RingElement
    denominator_exponent: int

    def equal_with_saturation(self, other, a, bound):
        """Equality after cross multiplication, up to a caller-supplied a-power."""
        e1, e2 = self.denominator_exponent, other.denominator_exponent
        diff = self.numerator * a ** e2 - other.numerator * a ** e1
        probe = diff
        for _ in range(bound + 1):
            if probe.is_zero():
                return True
            probe = probe * a
        return False


class MonogenicExtension:
    """B = A[X]/(relation, A-relations) with X-leading coefficient a.

    ``ring`` may be a further quotient of the monogenic cover; the defining
    relation is all the reduction machinery uses, and memberships are tested
    in ``ring`` itself.
    """

    __slots__ = ("base", "ring", "var", "relation", "k", "rel_coeffs", "lead")

    def __init__(self, base, ring, var, relation):
        if ring.vars != base.vars + (var,):
            raise NotMonogenic(
                f"{ring.to_text()} is not {base.to_text()} with {var!r} adjoined"
            )
        if ring.base != base.base:
            raise IncompatibleRings("base coefficient rings differ")
        self.base = base
        self.ring = ring
        self.var = var
        self.relation = relation.remap(ring.vars)
        split = self.relation.coefficients_in(var)
        if not split:
            raise LeadingCoefficientZero("zero defining relation")
        self.k = max(split)
        self.rel_coeffs = {j: p.remap(base.vars) for j, p in split.items()}
        lead = base.element(self.rel_coeffs[self.k])
        if lead.is_zero():
            raise LeadingCoefficientZero(
                f"leading coefficient of {self.relation.to_text()} vanishes in the base"
            )
        self.lead = lead


@dataclass(frozen=True)
class IntegralRelation:
    """a^l * y^d = c_{d-1} y^{d-1} + ... + c_0, verified in the ambient ring."""

    y: RingElement
    a: RingElement
    l: int
    d: int
    coeffs: tuple

    def verify(self):
        ring = self.y.ring
        lhs = ring.element(self.a.poly) ** self.l * self.y ** self.d
        rhs = ring.zero()
        for j, c in enumerate(self.coeffs):
            rhs = rhs + ring.element(c.poly) * self.y ** j
        return (lhs - rhs).is_zero()

    def require_valid(self):
        if not self.verify():
            raise InvalidCertificate("integral dependence identity fails")
        return self


class _LocPoly:
    """numerator / a^exp with polynomial numerator; plain pair arithmetic."""

    __slots__ = ("num", "exp")

    def __init__(self, num, exp=0):
        self.num = num
        self.exp = exp

    @staticmethod
    def lift(a_poly, entry, target_exp):
        num, exp = entry.num, entry.exp
        while exp < target_exp:
            num = num * a_poly
            exp += 1
        return num

    def add(self, other, a_poly):
        e = max(self.exp, other.exp)
        return _LocPoly(
            _LocPoly.lift(a_poly, self, e) + _LocPoly.lift(a_poly, other, e), e
        )

    def sub(self, other, a_poly):
        e = max(self.exp, other.exp)
        return _LocPoly(
            _LocPoly.lift(a_poly, self, e) - _LocPoly.lift(a_poly, other, e), e
        )

    def mul(self, other):
        return _LocPoly(self.num * other.num, self.exp + other.exp)


def _reduce_in_extension(poly, ext):
    """Rewrite a polynomial of B as (vector over 1..X^(k-1), a-power exponent).

    Each elimination of the top X-degree multiplies through by the leading
    coefficient a and substitutes a*X^k -> -(lower part of the relation).
    Coefficients are normalized in the base presentation along the way.
    """
    base = ext.base
    k = ext.k
    a_poly = ext.rel_coeffs[k]
    work = {}
    for j, c in poly.coefficients_in(ext.var).items():
        nf = base.normal_form(c.remap(base.vars))
        if not nf.is_zero():
            work[j] = nf
    exp = 0
    while work:
        top_deg = max(work)
        if top_deg < k:
            break
        top = work.pop(top_deg)
        work = {j: c * a_poly for j, c in work.items()}
        for j, rc in ext.rel_coeffs.items():
            if j == k:
                continue
            jj = top_deg - k + j
            cur = work.get(jj, Polynomial.zero(base.base, base.vars))
            work[jj] = cur - top * rc
        exp += 1
        work = {
            j: nf
            for j, c in work.items()
            if not (nf := base.normal_form(c)).is_zero()
        }
    vec = [
        work.get(j, Polynomial.zero(base.base, base.vars)) for j in range(max(k, 1))
    ]
    return vec[:k] if k else [], exp


def _det(matrix, a_poly):
    n = len(matrix)
    if n == 0:
        one = Polynomial.constant(a_poly.ring, 1, a_poly.vars)
        return _LocPoly(one, 0)
    if n == 1:
        return matrix[0][0]
    total = None
    for col in range(n):
        entry = matrix[0][col]
        if entry.num.is_zero():
            continue
        minor = [
            [row[c] for c in range(n) if c != col] for row in matrix[1:]
        ]
        term = entry.mul(_det(minor, a_poly))
        if col % 2 == 1:
            term = _LocPoly(-term.num, term.exp)
        total = term if total is None else total.add(term, a_poly)
    if total is None:
        return _LocPoly(Polynomial.zero(a_poly.ring, a_poly.vars), 0)
    return total


def integral_dependence(b, ext, cap=None):
    """Dependence a^l * b^d = sum c_j b^j from the multiplication-by-b matrix.

    The characteristic polynomial of that matrix over the localization at a
    annihilates b; a bounded a-power search then clears the identity back
    into the unlocalized ring.
    """
    if cap is None:
        cap = saturation_cap()
    base, ring, k = ext.base, ext.ring, ext.k
    a = ext.lead

    if k == 0:
        a_in_b = ring.element(a.poly)
        power = ring.one()
        for l in range(cap + 1):
            if power.is_zero():
                return IntegralRelation(b, a, l, 0, ()).require_valid()
            power = power * a_in_b
        raise SaturationCapExceeded(
            f"a^l stayed nonzero for l <= {cap} in {ring.to_text()}"
        )

    tvar = _fresh_var(ext.ring.vars)
    cvars = base.vars + (tvar,)
    a_poly = ext.rel_coeffs[k].remap(cvars)
    tpoly = Polynomial.variable(base.base, tvar, cvars)

    xvar = Polynomial.variable(base.base, ext.var, ring.vars)
    columns = []
    for i in range(k):
        vec, exp = _reduce_in_extension(b.poly * xvar ** i, ext)
        columns.append(([v.remap(cvars) for v in vec], exp))

    matrix = []
    for j in range(k):
        row = []
        for i in range(k):
            vec, exp = columns[i]
            diag = tpoly * a_poly ** exp if i == j else Polynomial.zero(base.base, cvars)
            row.append(_LocPoly(diag - vec[j], exp))
        matrix.append(row)

    char = _det(matrix, a_poly)
    by_t = char.num.coefficients_in(tvar)
    lead_coeff = by_t.get(k, Polynomial.zero(base.base, base.vars)).remap(base.vars)
    if lead_coeff != ext.rel_coeffs[k] ** char.exp:
        raise AssertionError("characteristic polynomial lost monicity")

    g = [
        base.normal_form(by_t.get(j, Polynomial.zero(base.base, base.vars)).remap(base.vars))
        for j in range(k)
    ]
    a_in_b = ring.element(a.poly)
    denom_exp = 0 if a.is_one() else char.exp
    value = a_in_b ** denom_exp * b ** k
    for j in range(k):
        value = value + ring.element(g[j]) * b ** j
    for ep in range(cap + 1):
        if value.is_zero():
            coeffs = tuple(
                base.element(-(ext.rel_coeffs[k] ** ep * gj)) for gj in g
            )
            return IntegralRelation(b, a, denom_exp + ep, k, coeffs).require_valid()
        value = value * a_in_b
    raise SaturationCapExceeded(
        f"dependence for {b.to_text()} did not clear within a^{cap}"
    )


def invert_in_integral_quotient(x, b, dep):
    """From a monic dependence for b, an a with 1 - a*x in <1 - b*x> of B."""
    if dep.l != 0:
        raise NonMonicDependence(f"dependence has denominator power a^{dep.l}")
    ring_b = dep.y.ring
    base = x.ring
    a_out = base.zero()
    for j in range(dep.d):
        a_out = a_out + dep.coeffs[dep.d - 1 - j] * x ** j
    x_b = ring_b.element(x.poly)
    target = ring_b.one() - ring_b.element(b.poly) * x_b
    claim = ring_b.one() - ring_b.element(a_out.poly) * x_b
    if not in_ideal(ring_b, claim, [target]):
        raise InvalidCertificate("1 - a*x is not in <1 - b*x>")
    return a_out


def loc_key_clear(a, a1, a2p, e):
    """Geometric-sum clearing: a2 with 1 - a2(1-a1*a) = a1^e (a^e - a2p(1-a1*a)).

    The identity is verified by expansion in the raw polynomial ring before
    the normalized element is returned.
    """
    ring = a.ring
    ap, a1p, a2pp = a.poly, a1.poly, a2p.poly
    one = Polynomial.constant(ring.base, 1, ring.vars)
    geo = Polynomial.zero(ring.base, ring.vars)
    term = one
    for _ in range(e):
        geo = geo + term
        term = term * (a1p * ap)
    a2_raw = geo + a1p ** e * a2pp
    lhs = one - a2_raw * (one - a1p * ap)
    rhs = a1p ** e * (ap ** e - a2pp * (one - a1p * ap))
    if lhs != rhs:
        raise AssertionError("clearing identity failed to expand")
    return ring.element(a2_raw)


def key_elementary_transfer(a, a0, a1, b2, ext, cap=None):
    """a2 in A with 1 - a2(1 - a1*a*a0) in <1 - b2(1 - a1*a*a0)> of ext.ring.

    Pipeline: integral dependence for b2, inversion over the localization
    (giving a numerator with denominator a^e), bounded saturation to land in
    the unlocalized ring, then geometric-sum clearing.
    """
    if cap is None:
        cap = saturation_cap()
    base = ext.base
    ring_b = ext.ring
    w = base.one() - a1 * a * a0
    dep = integral_dependence(b2, ext, cap=cap)

    a2dd = base.zero()
    for j in range(dep.d):
        a2dd = a2dd + dep.coeffs[dep.d - 1 - j] * w ** j
    e = dep.l

    w_b = ring_b.element(w.poly)
    target = ring_b.one() - b2 * w_b
    gb = membership_basis(ring_b, [target])
    found = None
    base_probe = a ** e - a2dd * w
    for ep in range(cap + 1):
        if gb.is_member((a ** ep * base_probe).poly):
            found = ep
            break
    if found is None:
        raise SaturationCapExceeded(
            f"no a-power within {cap} clears the localized inverse"
        )

    a2 = loc_key_clear(a, a1 * a0, a ** found * a2dd, e + found)
    claim = ring_b.one() - ring_b.element(a2.poly) * w_b
    if not gb.is_member(claim.poly):
        raise InvalidCertificate("transfer output failed its membership check")
    return a2


@dataclass(frozen=True)
class UnitDecomposition:
    """Constant-part unit witness plus one nilpotency certificate per higher coefficient."""

    constant: tuple
    nil_certs: dict
    lead_exponent: int


def unit_poly_decompose(u, v, var=None):
    """Split a polynomial unit: invertible constant part, nilpotent higher coefficients.

    Requires u*v = 1 in a presentation whose relations do not involve the
    polynomial variable; the leading coefficient additionally satisfies
    u_m^(deg v + 1) in the relation ideal of the coefficient ring.
    """
    ring = u.ring
    if not ring.vars:
        raise UnsupportedRing("the presentation has no polynomial variable")
    var = var or ring.vars[-1]
    for r in ring.relations:
        if r.degree_in(var) > 0:
            raise UnsupportedRing(f"relation {r.to_text()} involves {var!r}")
    if not (u * v - 1).is_zero():
        raise NotAUnit(f"({u.to_text()})*({v.to_text()}) is not 1")

    avars = tuple(name for name in ring.vars if name != var)
    coeff_ring = RingPresentation(
        ring.base, avars, [r.remap(avars) for r in ring.relations], ring.order.kind
    )
    u_split = u.poly.coefficients_in(var)
    v_split = v.poly.coefficients_in(var)
    u0 = coeff_ring.element(u_split.get(0, Polynomial.zero(ring.base, avars)))
    v0 = coeff_ring.element(v_split.get(0, Polynomial.zero(ring.base, avars)))
    if not (u0 * v0 - 1).is_zero():
        raise AssertionError("constant coefficients of a unit pair must multiply to 1")

    certs = {}
    for j, coeff in sorted(u_split.items()):
        if j == 0:
            continue
        cert = nil_member(coeff_ring.element(coeff))
        if cert is None:
            raise AssertionError(f"higher coefficient {coeff.to_text()} not nilpotent")
        certs[j] = cert

    deg_v = max(v_split, default=0)
    lead_exponent = deg_v + 1
    if certs:
        m = max(certs)
        lead = u_split[m].remap(avars)
        if member_in(coeff_ring, lead ** lead_exponent) is None:
            raise AssertionError("leading coefficient bound u_m^(deg v + 1) failed")
    return UnitDecomposition((u0, v0), certs, lead_exponent)
