"""Groebner bases with cofactor tracking, ideal membership, and nilpotency certificates.

Over QQ and GF(p) this is Buchberger's algorithm with a reduced monic output.
Over ZZ it computes a strong basis in the Kandri-Rody--Kapur style: the pair
queue carries both S-polynomials and gcd-completion (G-) polynomials, built
by one formula from a coefficient pair each, and term reduction uses
canonical nonnegative remainders, which makes normal forms unique on cosets.
Every basis element carries cofactors expressing it over the input
generators, exactly.

The reduced basis of the unit ideal is [1]: a completion stops at its first
unit row (a nonzero constant over a field, +-1 over ZZ); a unit input
becomes one before any pair is formed.

Over QQ, reduction runs on ints: the polynomial being reduced is kept as
int numerators over one running scale, and each row as int numerators over
its own denominator, cleared once per row (see ``_reduce_full``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Polynomial, _cleared, _over, exponents, pack
from .errors import InvalidCertificate


def _egcd(a, b):
    """Return (g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class _Row:
    __slots__ = ("poly", "cof", "lm", "lc", "ints")

    def __init__(self, poly, cof, order):
        self.poly = poly
        self.cof = cof
        self.lm, self.lc = order.leading(poly.terms)
        # over QQ, (L, P) with poly = P/L and P on ints; the terms themselves
        # when L = 1
        self.ints = _cleared(poly.terms) if poly.ring.kind == "QQ" else (1, poly.terms)


def _combine_cofs(base, quots, rows):
    """cof vector of (base - sum quots[i]*rows[i]) given base's cof vector."""
    out = list(base)
    for q, row in zip(quots, rows):
        if q.is_zero():
            continue
        for j, c in enumerate(row.cof):
            if not c.is_zero():
                out[j] = out[j] - q * c
    return out


def _reduce_full(p, rows, order, track):
    """Fully reduce p by the rows; returns (normal form, quotient polys).

    A term c*m is reduced by the first row whose leading monomial divides m
    in one scan order: over ZZ the rows stably sorted by leading coefficient,
    and c becomes its canonical residue modulo that row's, so a term survives
    only when no row can shrink it; over a field the row order, and as every
    row is monic (``groebner`` normalizes each row it keeps) the quotient is c.
    Terms are visited largest first through a lazy min-heap of negated
    DEGREVLEX keys, so reductions only ever touch strictly smaller monomials.

    Over QQ the work runs on ints, fraction-free in the spirit of Bareiss
    1968: the work and the remainder are int numerators over one running
    scale S, and each row is P/L with P on ints (``_Row.ints``).  A step on
    a term with numerator c, coefficient c/S, multiplies the work and the
    remainder by u = L/gcd(c, L), so that the term's numerator is c*L/g for
    g = gcd(c, L), and subtracts (c/g)*P; the quotient term is c/S.  When
    every row has L = 1 the scale never moves.  The remainder is divided by
    S once, at the end, and a quotient term once, when it is recorded: an
    int where the division is exact and a reduced Fraction otherwise.  The
    results are the rationals that Fraction arithmetic gives.
    """
    ring = p.ring
    vars = order.vars
    integer = ring.kind == "ZZ"
    mod = ring.p
    scale, work = _cleared(p.terms) if ring.kind == "QQ" else (1, p.terms)
    work = dict(work)
    remainder = {}
    quots = [{} for _ in rows] if track else None
    guards = order.guards
    scan = [(i, row.lm) for i, row in enumerate(rows)]
    if integer:
        scan.sort(key=lambda e: rows[e[0]].lc)
    # The negated key of m is h = m - (deg(m) << (s + 1)); the same map takes
    # h back to m, so the heap holds plain ints.
    s = order.shift
    s1 = s + 1
    heap = [m - ((m >> s) << s1) for m in work]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        h = heappop(heap)
        m = h - ((h >> s) << s1)
        c = work.get(m)
        if c is None:
            continue
        mg = m | guards
        for idx, lm in scan:
            if (mg - lm) & guards == guards:
                break
        else:
            remainder[m] = c
            del work[m]
            continue
        row = rows[idx]
        shift = m - lm
        den, terms = row.ints
        r = 0
        if integer:
            q, r = divmod(c, row.lc)
            if q == 0:
                remainder[m] = c
                del work[m]
                continue
        else:
            q = c
        if track:
            # m is reduced once, so each (row, shift) is set once, to q != 0
            quots[idx][shift] = ring.normalize(Fraction(c, scale)) if scale != 1 else q
        if den != 1:
            g = math.gcd(c, den)
            q, u = c // g, den // g
            if u != 1:
                scale *= u
                work = {k: v * u for k, v in work.items()}
                remainder = {k: v * u for k, v in remainder.items()}
        for m2, c2 in terms.items():
            mm = m2 + shift
            old = work.get(mm)
            cc = (0 if old is None else old) - q * c2
            if mod:
                cc %= mod
            if cc == 0:
                if old is not None:
                    del work[mm]
            else:
                work[mm] = cc
                if old is None and mm != m:
                    heappush(heap, mm - ((mm >> s) << s1))
        if r != 0:
            remainder[m] = r
            work.pop(m, None)
    # Divided by the scale, every remainder coefficient is canonical and nonzero.
    nf = Polynomial._raw(ring, vars, _over(remainder, scale))
    if track:
        return nf, [Polynomial._raw(ring, vars, q) for q in quots]
    return nf, None


class GroebnerBasis:
    """Result of a basis computation, with reduction and membership services."""

    def __init__(self, ring, order, gens, rows, tracked=True):
        self.ring = ring
        self.order = order
        self.gens = tuple(gens)
        self._rows = rows
        self.tracked = tracked
        self.basis = tuple(r.poly for r in rows)
        self.cofactors = tuple(tuple(r.cof) for r in rows) if tracked else None

    def normal_form(self, p):
        """p reduced by the basis; p itself when no leading monomial divides
        any of its terms."""
        p = p.remap(self.order.vars)
        g = self.order.guards
        for m in p.terms:
            mg = m | g
            for row in self._rows:
                if (mg - row.lm) & g == g:
                    return _reduce_full(p, self._rows, self.order, False)[0]
        return p

    def reduce_tracked(self, p):
        return _reduce_full(p.remap(self.order.vars), self._rows, self.order, True)

    def is_member(self, p):
        return self.normal_form(p).is_zero()

    def member_cofactors(self, p):
        """Cofactors of p over the input generators, or None if not a member."""
        if not self.tracked:
            raise ValueError("basis was computed without cofactor tracking")
        nf, quots = self.reduce_tracked(p)
        if not nf.is_zero():
            return None
        zero = [Polynomial.zero(self.ring, self.order.vars)] * len(self.gens)
        return _combine_cofs(zero, [-q for q in quots], self._rows)

    def lead_terms(self):
        return [(r.lm, r.lc) for r in self._rows]

    def staircase(self):
        """Monomials not under any leading monomial, or None if infinite.

        Over ZZ only rows with unit leading coefficient block a monomial
        completely; other rows merely bound its coefficient.
        """
        if self.ring.kind == "ZZ":
            blockers = [r.lm for r in self._rows if r.lc == 1]
        else:
            blockers = [r.lm for r in self._rows]
        return _staircase_of(blockers, self.order)


def _staircase_of(lead_monos, order):
    if 0 in lead_monos:
        return []
    nvars = len(order.vars)
    lead_exps = [exponents(m, nvars) for m in lead_monos]
    bounds = []
    for i in range(nvars):
        # the smallest pure power of variable i among the leading monomials
        b = min((e[i] for e in lead_exps if e[i] and e[i] == sum(e)), default=None)
        if b is None:
            return None
        bounds.append(b)
    out = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == nvars:
            mono = pack(prefix, nvars)
            if not any(order.divides(m, mono) for m in lead_monos):
                out.append((sum(prefix), prefix, mono))
            continue
        i = len(prefix)
        for e in range(bounds[i]):
            stack.append(prefix + (e,))
    out.sort()
    return [mono for _, _, mono in out]


def groebner(gens, order, ring, track=True):
    """Compute a reduced (monic / strong, per coefficient ring) basis of gens over ring.

    The returned object satisfies two exact invariants: every S- and
    G-polynomial of the basis reduces to zero, and (when track is set) every
    basis element equals its cofactor combination over the inputs.  With
    track=False the cofactor bookkeeping is skipped, which is much faster
    when only membership answers are needed.

    Both pair kinds give the candidate ci*x^(lcm-lm_i)*r_i + cj*x^(lcm-lm_j)*r_j:
    an S-pair with (l/lc_i, -l/lc_j), l = lcm(lc_i, lc_j), which is (1, -1)
    over a field, where every row is monic; a G-pair (over ZZ) with the
    Bezout pair of lc_i and lc_j.  Tracked, a candidate's cofactors are
    built only when it reduces to a nonzero row.

    The first unit row ends the completion: every later candidate reduces
    to zero by it and it dominates every other row, so the full run would
    return it alone, with the same cofactors.  A unit input is such a row
    before any pair is formed.
    """
    vars = order.vars
    inputs = [g.remap(vars) for g in gens]
    zero = Polynomial.zero(ring, vars)
    one = Polynomial.constant(ring, 1, vars)
    integer = ring.kind == "ZZ"

    rows = []
    queue = []

    def add(cand, cof_of):
        """Reduce cand by the rows and keep a nonzero normal form as a row,
        scaled to a positive leading coefficient over ZZ and to 1 over a
        field, with, when tracked, the cofactors cof_of() minus the
        quotients' combination; a unit row ends the completion and is
        returned."""
        # the first row is the first nonzero input, as no row reduces it
        nf, quots = _reduce_full(cand, rows, order, track) if rows else (cand, [])
        if nf.is_zero():
            return None
        cof = _combine_cofs(cof_of(), quots, rows) if track else None
        lc = order.leading(nf.terms)[1]
        u = (-1 if lc < 0 else 1) if integer else ring.invert(lc)
        if u != 1:
            nf = nf.scale(u)
            cof = [c.scale(u) for c in cof] if track else None
        row = _Row(nf, cof, order)
        if row.lm == 0 and row.lc == 1:
            return row
        j = len(rows)
        rows.append(row)
        for i in range(j):
            # the key orders by the lcm's degree first, then by DEGREVLEX;
            # (i, j, kind) is unique, so the lcm is never compared
            lcm = order.lcm(rows[i].lm, row.lm)
            key = order.key(lcm)
            heapq.heappush(queue, (key, i, j, "s", lcm))
            if integer:
                heapq.heappush(queue, (key, i, j, "g", lcm))

    for j, g in enumerate(inputs):
        unit = add(g, lambda: [one if k == j else zero for k in range(len(inputs))])
        if unit:
            return GroebnerBasis(ring, order, inputs, [unit], tracked=track)

    while queue:
        _, i, j, kind, lcm = heapq.heappop(queue)
        ri, rj = rows[i], rows[j]
        if kind == "s":
            # rows are monic over a field; Buchberger's criterion asks over
            # ZZ for coprime leading coefficients too
            l = math.lcm(ri.lc, rj.lc) if integer else 1
            if lcm == ri.lm + rj.lm and l == ri.lc * rj.lc:
                continue
            ci, cj = l // ri.lc, -(l // rj.lc)
        else:
            if ri.lc % rj.lc == 0 or rj.lc % ri.lc == 0:
                continue
            _, ci, cj = _egcd(ri.lc, rj.lc)
        si, sj = lcm - ri.lm, lcm - rj.lm
        unit = add(
            ri.poly.mul_term(si, ci) + rj.poly.mul_term(sj, cj),
            lambda: [a.mul_term(si, ci) + b.mul_term(sj, cj) for a, b in zip(ri.cof, rj.cof)],
        )
        if unit:
            return GroebnerBasis(ring, order, inputs, [unit], tracked=track)

    rows_sorted = sorted(rows, key=lambda r: (order.key(r.lm), r.lc))
    kept = []
    for row in rows_sorted:
        dominated = False
        for other in kept:
            if order.divides(other.lm, row.lm) and (not integer or row.lc % other.lc == 0):
                dominated = True
                break
        if not dominated:
            kept.append(row)

    # no kept leading term is reducible by the others (see the README), so
    # reducing keeps every lead and the (key, lc) order: one pass suffices
    if len(kept) > 1:
        for idx, row in enumerate(kept):
            others = kept[:idx] + kept[idx + 1 :]
            nf, quots = _reduce_full(row.poly, others, order, track)
            if nf != row.poly:
                cof = _combine_cofs(row.cof, quots, others) if track else None
                kept[idx] = _Row(nf, cof, order)
    return GroebnerBasis(ring, order, inputs, kept, tracked=track)


@dataclass(frozen=True)
class NilCertificate:
    """Witness that element^exponent = sum cofactor_i * generator_i, exactly."""

    element: Polynomial
    exponent: int
    generators: tuple
    cofactors: tuple

    def verify(self):
        if len(self.cofactors) != len(self.generators):
            return False
        lhs = self.element ** self.exponent
        rhs = Polynomial.zero(self.element.ring, self.element.vars)
        for c, g in zip(self.cofactors, self.generators):
            rhs = rhs + c * g
        return lhs == rhs

    def require_valid(self):
        if self.exponent < 0 or len(self.generators) != len(self.cofactors):
            raise InvalidCertificate(f"malformed certificate {self!r}")
        if not self.verify():
            raise InvalidCertificate(
                f"identity fails for exponent {self.exponent} over "
                f"{len(self.generators)} generators"
            )
        return self
