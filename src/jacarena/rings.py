"""Finitely presented rings, quotients, and the localization/integrality toolkit.

A ring is presented as base coefficients, an ordered variable list, and
relation generators.  Elements are kept in Groebner normal form, so equality
is decidable and representatives are canonical (over ZZ thanks to the strong
basis with nonnegative canonical remainders).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm, prod

from .algebra import MonomialOrder, Polynomial, _cleared, _over, exponents
from .errors import (
    IncompatibleRings,
    InvalidCertificate,
    LeadingCoefficientZero,
    NotFinite,
    NotFiniteDimensional,
    NotMonogenic,
    NotZeroDimensional,
    UnsupportedRing,
)
from .ideals import NilCertificate, groebner
from .parsing import parse_polynomial


class RingPresentation:
    """Computable ring: coefficient base + variables + relation ideal."""

    __slots__ = ("base", "vars", "relations", "order", "_gb", "_parent")

    def __init__(self, base, vars=(), relations=()):
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
        self.order = MonomialOrder(self.vars)
        self._gb = None
        self._parent = None

    @property
    def gb(self):
        if self._gb is None:
            gens = list(self.relations)
            parent = self._parent
            if parent is not None and parent.relations:
                # the parent's reduced basis spans its relations: a head start
                gens = list(parent.gb.basis) + gens[len(parent.relations):]
            self._gb = groebner(gens, self.order, ring=self.base, track=False)
            self._parent = None
        return self._gb

    def normal_form(self, poly):
        if not self.relations:
            return poly
        return self.gb.normal_form(poly)

    def _representative(self, value):
        """The unreduced polynomial over this ring's variables for value: an
        element of this ring, ring text, a polynomial over the base or a
        constant.  An element of another presentation raises IncompatibleRings.
        """
        if isinstance(value, RingElement):
            if value.ring is not self and value.ring != self:
                raise IncompatibleRings(
                    f"{value.ring.to_text()} element given to {self.to_text()}"
                )
            return value.poly
        if isinstance(value, str):
            return parse_polynomial(value, self.base, self.vars)
        if isinstance(value, Polynomial):
            if value.ring != self.base:
                raise IncompatibleRings(f"{value} is not over {self.base}")
            return value.remap(self.vars)
        return Polynomial.constant(self.base, value, self.vars)

    def element(self, value):
        """value as an element of this ring, in normal form; see ``_representative``."""
        if type(value) is Polynomial and value.ring is self.base and value.vars is self.vars:
            return RingElement(self, self.normal_form(value))
        poly = self._representative(value)
        if isinstance(value, RingElement):
            return value
        return RingElement(self, self.normal_form(poly))

    def zero(self):
        return RingElement(self, Polynomial.zero(self.base, self.vars))

    def one(self):
        return self.element(1)

    def is_trivial(self):
        return self.gb.is_member(Polynomial.constant(self.base, 1, self.vars))

    def quotient_extend(self, extra):
        """New presentation with the extra elements adjoined to the relations.

        When this ring has relations, the child's basis is completed from
        this ring's reduced basis plus the new generators.  The child's
        ``relations`` keep the raw list, which certificates index.
        """
        polys = tuple(self._representative(x) for x in extra)
        child = RingPresentation(self.base, self.vars, self.relations + polys)
        child._parent = self
        return child

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

    def _operand(self, other):
        """other's polynomial over this element's presentation: at once for an
        element of the same presentation object, else through ``element``."""
        if type(other) is RingElement and other.ring is self.ring:
            return other.poly
        return self.ring.element(other).poly

    def __add__(self, other):
        ring = self.ring
        return RingElement(ring, ring.normal_form(self.poly + self._operand(other)))

    __radd__ = __add__

    def __neg__(self):
        return self.ring.element(-self.poly)

    def __sub__(self, other):
        ring = self.ring
        return RingElement(ring, ring.normal_form(self.poly - self._operand(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ring = self.ring
        return RingElement(ring, ring.normal_form(self.poly * self._operand(other)))

    __rmul__ = __mul__

    def __pow__(self, e):
        return self.ring.element(self.poly ** e)

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.poly == other.poly

    def __hash__(self):
        return hash((self.ring, self.poly))

    def to_text(self):
        return self.poly.to_text()

    def __repr__(self):
        return f"<{self.poly.to_text()} in {self.ring.to_text()}>"


def constraint(x, a, b):
    """The game constraint 1 - b(1 - a*x) in x's ring, expanded as
    1 - b + a*x*b with one normal form.  a and b are read by
    ``_representative``, so an element of another presentation raises
    IncompatibleRings."""
    ring = x.ring
    b = ring._representative(b)
    return RingElement(ring, ring.normal_form(1 - b + ring._representative(a) * x.poly * b))


def coefficient_ring(ring):
    """The coefficient ring A of ring = A[var], var the last variable.

    Raises UnsupportedRing when ring has no variable or a relation involves var.
    """
    if not ring.vars:
        raise UnsupportedRing(f"{ring.to_text()} has no polynomial variable")
    var = ring.vars[-1]
    for r in ring.relations:
        if r.degree_in(var) > 0:
            raise UnsupportedRing(f"relation {r.to_text()} involves the variable {var!r}")
    avars = tuple(name for name in ring.vars if name != var)
    return RingPresentation(ring.base, avars, [r.remap(avars) for r in ring.relations])


def member_in(ring, target, extra=()):
    """Cofactors of target over relations + extra inside the presented ring.

    Returns a list aligned with ``list(ring.relations) + list(extra)`` or
    None when the element is not in the ideal.
    """
    target = ring._representative(target)
    gens = list(ring.relations) + [ring._representative(g) for g in extra]
    return groebner(gens, ring.order, ring=ring.base).member_cofactors(target)


def _fresh_var(vars):
    if "T" not in vars:
        return "T"
    i = 0
    while f"T{i}" in vars:
        i += 1
    return f"T{i}"


def _rabinowitsch(x, constraints):
    """(gens, gens and 1 - t*x over x's variables and a fresh t, their
    order), where gens are the ring's relations and the constraints."""
    ring, base = x.ring, x.ring.base
    gens = list(ring.relations) + [ring._representative(c) for c in constraints]
    bigvars = ring.vars + (_fresh_var(ring.vars),)
    t = Polynomial.variable(base, bigvars[-1], bigvars)
    rab = Polynomial.constant(base, 1, bigvars) - t * x.poly.remap(bigvars)
    return gens, [g.remap(bigvars) for g in gens] + [rab], MonomialOrder(bigvars)


def is_nil(x, constraints=()):
    """``nil_member``'s decision alone, from one untracked basis."""
    _, gens, order = _rabinowitsch(x, constraints)
    gb = groebner(gens, order, ring=x.ring.base, track=False)
    return gb.is_member(Polynomial.constant(x.ring.base, 1, order.vars))


def nil_member(x, constraints=()):
    """Nilpotency membership by the Rabinowitsch construction.

    Decides whether some power of x lies in the ideal generated by the
    ring's relations together with the constraint elements; on success the
    returned certificate's identity x^e = sum cofactor_i * generator_i holds
    exactly in the ambient polynomial ring.
    """
    ring = x.ring
    base = ring.base
    xp = x.poly
    gens_ring, gens, order = _rabinowitsch(x, constraints)
    if xp.is_zero():
        zero = Polynomial.zero(base, ring.vars)
        return NilCertificate(xp, 1, tuple(gens_ring), tuple(zero for _ in gens_ring))

    t = order.vars[-1]
    gb = groebner(gens, order, ring=base)
    cofs = gb.member_cofactors(Polynomial.constant(base, 1, order.vars))
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
    divides = gb.order.divides
    for mono in stair:
        applicable = [lc for lm, lc in leads if divides(lm, mono)]
        if not applicable:
            exps = exponents(mono, len(ring.vars))
            raise NotFinite(f"{ring.to_text()}: monomial {exps} has unbounded coefficients")
        counts.append(min(applicable))
    return list(stair), counts


def minimal_polynomial(x):
    """(monic minimal polynomial of x in T, normal forms of 1, x, ..., x^(d-1)),
    d its degree, for x in a finite-dimensional algebra over QQ or GF(p).
    ``zero_dim_witness`` calls it for a non-unit only; a unit's witness is
    its inverse, from one membership.

    A Krylov scan on the staircase basis.  Column j of the matrix M of
    multiplication by x holds the coordinates of the normal form of x times
    the j-th staircase monomial; it is built on first use.  The vectors
    v_0 = 1, v_(k+1) = M*v_k are the coordinates of the powers of x.  Each
    is eliminated against the earlier ones in a row that also records which
    combination of powers it stands for, so the first row whose coordinates
    vanish is a multiple of the minimal polynomial.

    Over GF(p) a pivot row holds residues with pivot 1.  A new row is
    eliminated on plain ints, with each multiplier reduced mod p, so after
    k steps its entries stay below (k+1)*p^2; it is reduced mod p once, when
    it is made a pivot or found dependent.  Over QQ a row holds integers:
    v_k is kept as integer numerators over one denominator, and a row is
    eliminated fraction-free as in Bareiss 1968, except that after each
    step, cross-multiplied by the pivot, it is divided by its content
    rather than by the previous pivot; without that division the entries
    grow with every pivot.  Over a field a combination of staircase
    monomials is a normal form, so the powers are built from their
    coordinates with no multiplication or reduction.
    """
    ring = x.ring
    base = ring.base
    if base.kind == "ZZ":
        raise UnsupportedRing("minimal polynomials need a field base (QQ or GF)")
    stair = ring.gb.staircase()
    if stair is None:
        raise NotFiniteDimensional(f"{ring.to_text()} has an infinite staircase")
    dim = len(stair)
    index = {m: i for i, m in enumerate(stair)}
    p = base.p
    columns = [None] * dim

    def times_x(v, den):
        # M*(v/den) as integer numerators over one denominator (1 over GF(p))
        used = [(a, columns[j] or column(j)) for j, a in enumerate(v) if a]
        common = reduce(lcm, (cden for _, (cden, _) in used), 1)
        w = [0] * dim
        for a, (cden, entries) in used:
            a *= common // cden
            for i, c in entries:
                w[i] += a * c
        if p is not None:
            return [c % p for c in w], 1
        den *= common
        g = reduce(gcd, w, den)
        return [c // g for c in w], den // g

    def column(j):
        # (denominator, [(i, numerator)]) of the normal form of x * stair[j]
        poly = ring.normal_form(x.poly.mul_term(stair[j], 1))
        cden, terms = _cleared(poly.terms) if p is None else (1, poly.terms)
        columns[j] = col = (cden, [(index[m], c) for m, c in terms.items()])
        return col

    # the staircase is sorted by degree, so its first monomial is 1
    v = [1] + [0] * (dim - 1) if dim else []
    den = 1
    pivots = []
    powers = []
    for k in range(dim + 1):
        # the coordinates of den*x^k, then its coefficients on 1, x, ..., x^dim
        row = v + [0] * (dim + 1)
        row[dim + k] = den
        for i, prow in pivots:
            f = row[i]
            if p is not None:
                # entries stay below (k+1)*p^2 until the one reduction below
                f %= p
                if f:
                    row = [a - f * b for a, b in zip(row, prow)]
            elif f:
                q = prow[i]
                g = gcd(f, q)
                f, q = f // g, q // g
                row = [q * a - f * b for a, b in zip(row, prow)]
                g = reduce(gcd, row, 0)
                if g != 1:
                    row = [a // g for a in row]
        lead = next((i for i in range(dim) if (row[i] % p if p else row[i])), None)
        if lead is None:
            tail = [c % p for c in row[dim:]] if p else row[dim:]
            top = tail[k]
            terms = {(j,): Fraction(c, top) for j, c in enumerate(tail) if c}
            return Polynomial(base, ("T",), terms), powers
        if p is not None:
            inv = pow(row[lead], -1, p)
            row = [a * inv % p for a in row]
        pivots.append((lead, row))
        powers.append(Polynomial._raw(base, ring.vars, {
            stair[i]: c if den == 1 else base.normalize(Fraction(c, den))
            for i, c in enumerate(v) if c
        }))
        v, den = times_x(v, den)
    raise AssertionError("dependency must appear within dim+1 powers")


def zero_dim_witness(x):
    """Witness (e, a) with x^e * (1 - a*x) = 0 in the ring.

    ZZ/n takes ``_modular_witness``.  Any other ring is refused unless it
    is finite (over ZZ) or has a finite staircase (over a field); then one
    tracked membership of 1 in (relations, x) decides whether x is a unit.
    A unit's witness is forced: e = 0 and a = x^(-1), the cofactor of x.
    A non-unit over a field takes ``_minpoly_witness``.  A non-unit in
    another finite ZZ-based ring takes the first e with x^e*R = x^(e+1)*R,
    where the powers of x turn periodic, and a from x^e = a*x^(e+1).  Each
    strict step of that chain at least halves the ideal, so e stays below
    log2|R| + 1.
    """
    ring = x.ring
    base = ring.base
    if base.kind == "ZZ" and not ring.vars:
        e, a = _modular_witness(x)
    else:
        if base.kind == "ZZ":
            try:
                size = prod(finite_enumeration_data(ring)[1])
            except NotFinite as exc:
                raise NotZeroDimensional(str(exc)) from None
        elif ring.gb.staircase() is None:
            raise NotZeroDimensional(f"{ring.to_text()} has an infinite staircase")
        # e = 0 is the unit test, shared by every base
        e, power = 0, ring.one()
        cofs = member_in(ring, power, [x])
        while cofs is None and base.kind == "ZZ":
            e += 1
            if e >= size.bit_length():
                raise NotZeroDimensional(f"x^e*R did not stabilize while 2^e <= {size}")
            power = power * x
            cofs = member_in(ring, power, [power * x])
        if cofs is None:
            e, a = _minpoly_witness(x)
        else:
            a = ring.element(cofs[-1])
    witness = x ** e * (ring.one() - a * x)
    if not witness.is_zero():
        raise AssertionError("zero-dimensional witness identity failed")
    return e, a


def _minpoly_witness(x):
    """Witness for a non-unit x in a finite-dimensional algebra over a field.

    Factors the minimal polynomial as T^e * g(T) with g(0) != 0 and returns
    a = -g(0)^(-1) * r(x) for g = g(0) + T*r(T).  r has degree below that of
    the minimal polynomial, so a is summed from the normal forms of the
    powers of x that the minimal polynomial scan kept; a linear combination
    of normal forms over a field is a normal form.  The sum runs on the
    powers' int numerators over one common denominator (over GF(p), on
    residues), with one division (or one reduction mod p) per coefficient.
    """
    ring = x.ring
    base = ring.base
    mu, powers = minimal_polynomial(x)
    by_deg = {exponents(m, 1)[0]: c for m, c in mu.terms.items()}
    e = min(by_deg)
    factor = base.neg(base.invert(by_deg[e]))
    # a = sum of w_j * N_j / D_j over the powers' numerators N_j over D_j,
    # with the weights w_j = factor * c_j
    parts = []
    for j, cj in by_deg.items():
        if j > e:
            w = base.mul(factor, cj)
            den, nums = _cleared(powers[j - e - 1].terms)
            parts.append((w.numerator, w.denominator * den, nums))
    common = reduce(lcm, (den for _, den, _ in parts), 1)
    sums = {}
    for num, den, nums in parts:
        num *= common // den
        for m, c in nums.items():
            sums[m] = sums.get(m, 0) + num * c
    if base.p:
        terms = {m: r for m, c in sums.items() if (r := c % base.p)}
    else:
        terms = _over({m: c for m, c in sums.items() if c}, common)
    return e, RingElement(ring, Polynomial._raw(base, ring.vars, terms))


def _modular_witness(x):
    """Witness for x in ZZ/n via gcd stabilization, in O(log n) steps.

    Once gcd(x^e, n) stops growing, n splits as g * m2 with g | x^e and x
    invertible modulo m2, so a := x^(-1) mod m2 gives x^e(1 - a*x) = 0.
    """
    ring = x.ring
    torsion = None
    for lm, lc in ring.gb.lead_terms():
        if lm == 0:
            torsion = abs(lc)
            break
    if torsion is None:
        raise NotZeroDimensional(f"{ring.to_text()} has no integer torsion")
    n = torsion
    x_val = x.poly.constant_value() if not x.poly.is_zero() else 0
    prev = gcd(1, n)
    e = 0
    while True:
        nxt = gcd(pow(x_val, e + 1, n) if n > 1 else 0, n)
        if nxt == prev:
            break
        prev = nxt
        e += 1
    m2 = n // prev
    a = ring.element(pow(x_val, -1, m2)) if m2 > 1 else ring.zero()
    return e, a


class MonogenicExtension:
    """B = A[X]/(relation, A-relations) with X-leading coefficient a.

    ``ring`` may be a further quotient of the monogenic cover, but its ideal
    must contain the relation (NotMonogenic otherwise): the integral
    dependence and the transfer hold in B only then.  The defining relation
    is all the reduction machinery uses.  Both work in their element's
    ring, ``ring`` or any quotient of it, and refuse with InvalidCertificate
    an element of a ring where the relation fails.
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
        if not ring.gb.is_member(self.relation):
            raise NotMonogenic(
                f"{self.relation.to_text()} does not vanish in {ring.to_text()}"
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
        """Horner's rule from the top on polynomials over B's variables:
        acc = NF(a^l), then acc = NF(acc*y - c_j) for j = d-1 down to 0; the
        identity holds when the last acc is zero.  Normal forms are
        canonical, so one per step checks the same identity in B as reducing
        every product and difference would."""
        if len(self.coeffs) != self.d:
            return False
        ring = self.y.ring
        y = self.y.poly
        acc = ring.normal_form(self.a.poly.remap(ring.vars) ** self.l)
        for c in reversed(self.coeffs):
            acc = ring.normal_form(acc * y - c.poly.remap(ring.vars))
        return acc.is_zero()

    def require_valid(self):
        if not self.verify():
            raise InvalidCertificate("integral dependence identity fails")
        return self


def _reduce_in_extension(poly, ext):
    """Rewrite a polynomial of B as (vector over 1..X^(k-1), a-power exponent).

    Each elimination of the top X-degree multiplies through by the leading
    coefficient a and rewrites a*X^k as -(lower part of the relation).
    Coefficients are normalized in the base presentation along the way.
    """
    base, k = ext.base, ext.k
    zero = Polynomial.zero(base.base, base.vars)

    def normalized(items):
        return {j: nf for j, c in items if not (nf := base.normal_form(c)).is_zero()}

    work = normalized((j, c.remap(base.vars)) for j, c in poly.coefficients_in(ext.var).items())
    exp = 0
    while work and (top_deg := max(work)) >= k:
        top = work.pop(top_deg)
        work = {j: c * ext.rel_coeffs[k] for j, c in work.items()}
        for j, rc in ext.rel_coeffs.items():
            if j < k:
                work[top_deg - k + j] = work.get(top_deg - k + j, zero) - top * rc
        work = normalized(work.items())
        exp += 1
    return [work.get(j, zero) for j in range(k)], exp


def _det(matrix):
    """Determinant of a nonempty polynomial matrix by cofactor expansion
    along the first row, skipping zero entries."""
    if len(matrix) == 1:
        return matrix[0][0]
    first = matrix[0][0]
    total = Polynomial.zero(first.ring, first.vars)
    for col, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        term = entry * _det(minor)
        total = total - term if col % 2 else total + term
    return total


def integral_dependence(b, ext):
    """Dependence a^l * b^d = sum c_j b^j, a = ext.lead, from the
    multiplication-by-b matrix; d is the relation's X-degree k.  It is
    computed and checked in b's ring, ext.ring or a quotient of it.

    Column i holds the coordinates of a^(e_i) * b * X^i on 1, X, ...,
    X^(k-1), with X^k rewritten by the relation.  The determinant of
    T*diag(a^(e_i)) minus that matrix has leading coefficient a^l, l the sum
    of the e_i, and by the determinant trick (the adjugate, Atiyah &
    Macdonald 1969, Prop. 2.4) it vanishes at T = b in B itself, as B's
    ideal contains the relation; so l is exact and c_j is minus its T^j
    coefficient.  For k = 0 the relation is a, so a = 0 in B: l = 1, or 0
    when B is trivial.
    """
    base, ring, k = ext.base, b.ring, ext.k
    a = ext.lead

    if k == 0:
        return IntegralRelation(b, a, 0 if ring.is_trivial() else 1, 0, ()).require_valid()

    tvar = _fresh_var(ring.vars)
    cvars = base.vars + (tvar,)
    a_poly = ext.rel_coeffs[k].remap(cvars)
    tpoly = Polynomial.variable(base.base, tvar, cvars)

    xvar = Polynomial.variable(base.base, ext.var, ring.vars)
    columns = []
    for i in range(k):
        vec, exp = _reduce_in_extension(b.poly * xvar ** i, ext)
        columns.append(([v.remap(cvars) for v in vec], exp))

    zero = Polynomial.zero(base.base, cvars)
    matrix = [
        [(tpoly * a_poly ** e if i == j else zero) - v[j] for i, (v, e) in enumerate(columns)]
        for j in range(k)
    ]

    # a term takes one entry per column, the diagonal term is nonzero: a-power = column sum
    char_exp = sum(exp for _, exp in columns)
    by_t = _det(matrix).coefficients_in(tvar)
    lead_coeff = by_t.get(k, Polynomial.zero(base.base, base.vars)).remap(base.vars)
    if lead_coeff != ext.rel_coeffs[k] ** char_exp:
        raise AssertionError("characteristic polynomial lost monicity")

    coeffs = tuple(
        base.element(-by_t.get(j, Polynomial.zero(base.base, base.vars)).remap(base.vars))
        for j in range(k)
    )
    return IntegralRelation(b, a, 0 if a.is_one() else char_exp, k, coeffs).require_valid()


def loc_key_clear(a, a1, a2p, e):
    """Geometric-sum clearing: a2 = (1 + c + ... + c^(e-1)) + a1^e * a2p,
    c = a1*a, so that 1 - a2(1 - c) = a1^e (a^e - a2p(1 - c)).

    The identity holds for the unreduced polynomials; a2 is returned in
    normal form.  It is not checked here: the cofactor check of
    ``key_elementary_transfer``, which uses it, covers it.
    """
    ring = a.ring
    c = a1.poly * a.poly
    geo = Polynomial.zero(ring.base, ring.vars)
    term = Polynomial.constant(ring.base, 1, ring.vars)
    for _ in range(e):
        geo = geo + term
        term = term * c
    return ring.element(geo + a1.poly ** e * a2p.poly)


def key_elementary_transfer(a0, a1, b2, ext):
    """a2 in A with 1 - a2*w in <1 - b2*w> of B, b2's ring (ext.ring or a
    quotient of it), where w = 1 - a1*a*a0 and a = ext.lead.

    Let t = b2*w and S_j = 1 + t + ... + t^(j-1).  The dependence
    a^l * b2^d = sum c_j b2^j, times w^d, gives a^l - w*a2dd = (1 - t)*Q in
    B, where a2dd = sum c_j w^(d-1-j) and Q = a^l*S_d - sum c_j w^(d-j) S_j.
    The geometric-sum clearing of ``loc_key_clear`` turns a2dd into a2 with
    1 - a2*w = (a1*a0)^l (a^l - w*a2dd), so

        1 - a2*w = q * (1 - b2*w),   q = (a1*a0)^l * Q.

    A b2 that does not involve X is an element b of A, whose dependence is
    the determinant of (T - b)*I, (T - b)^k with l = 0: then a2 = a2dd =
    (1 - (1 - b*w)^k)/w and q = (1 - t)^(k-1), with no dependence built.

    q is built on unreduced polynomials from the dependence alone, not from
    a2, and one normal form of 1 - a2*w - q*(1 - t) in B checks the identity
    before a2 is returned.
    """
    base = ext.base
    ring_b = b2.ring
    a = ext.lead
    a1a0 = a1 * a0
    w = base.one() - a1a0 * a
    vars_b = ring_b.vars
    one = Polynomial.constant(ring_b.base, 1, vars_b)
    w_b = w.poly.remap(vars_b)
    t = b2.poly * w_b
    if ext.k and b2.poly.degree_in(ext.var) <= 0:
        # a2 = sum_(i=1..k) (-1)^(i+1) C(k, i) b^i w^(i-1), by Horner's rule in b*w
        b = b2.poly.remap(base.vars)
        u = b * w.poly
        a2 = Polynomial.zero(base.base, base.vars)
        for i in range(ext.k, 0, -1):
            a2 = a2 * u + (comb(ext.k, i) if i % 2 else -comb(ext.k, i))
        a2 = base.element(a2 * b)
        q = (one - t) ** (ext.k - 1)
    else:
        dep = integral_dependence(b2, ext)
        a2dd = sum((c * w ** (dep.d - 1 - j) for j, c in enumerate(dep.coeffs)), base.zero())
        a2 = loc_key_clear(a, a1a0, a2dd, dep.l)
        # Q by Horner's rule in t: its t^i coefficient is a^l - sum_(j>i) c_j w^(d-j)
        coeff = a.poly.remap(vars_b) ** dep.l
        w_pow = one
        q = Polynomial.zero(ring_b.base, vars_b)
        for c in reversed(dep.coeffs):
            q = q * t + coeff
            w_pow = w_pow * w_b
            coeff = coeff - c.poly.remap(vars_b) * w_pow
        q = q * a1a0.poly.remap(vars_b) ** dep.l
    if not ring_b.normal_form(one - a2.poly.remap(vars_b) * w_b - q * (one - t)).is_zero():
        raise InvalidCertificate("transfer output failed its cofactor check")
    return a2
