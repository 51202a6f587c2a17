"""Groebner bases with cofactor tracking, ideal membership, and nilpotency certificates.

Over QQ and GF(p) this is Buchberger's algorithm with a reduced monic output.
Over ZZ it computes a strong basis in the Kandri-Rody--Kapur style: the pair
queue carries both S-polynomials and gcd-completion (G-) polynomials, and
term reduction uses canonical nonnegative remainders, which makes normal
forms unique on cosets.  Every basis element carries cofactors expressing it
over the input generators, exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .algebra import Polynomial, exponents, pack
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
    __slots__ = ("poly", "cof", "lm", "lc")

    def __init__(self, poly, cof, order):
        self.poly = poly
        self.cof = cof
        self.lm, self.lc = order.leading(poly.terms)


def _combine_cofs(ring, vars, base, quots, rows):
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

    Over a field every row is monic (``groebner`` normalizes each row it
    keeps), so the quotient of a term c*m is c itself.  Over ZZ a term c*m
    is rewritten to its canonical residue modulo the smallest applicable
    leading coefficient; a term survives only when no row can shrink it.
    Terms are visited largest first through a lazy min-heap of negated
    DEGREVLEX keys, so reductions only ever touch strictly smaller monomials.
    """
    ring = p.ring
    vars = order.vars
    zero = ring.zero()
    work = dict(p.terms)
    remainder = {}
    quots = [{} for _ in rows] if track else None
    integer = ring.kind == "ZZ"
    guards = order.guards
    lms = [row.lm for row in rows]
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
        best = None
        mg = m | guards
        for idx, lm in enumerate(lms):
            if (mg - lm) & guards == guards:
                if not integer:
                    best = idx
                    break
                if best is None or rows[idx].lc < rows[best].lc:
                    best = idx
        if best is None:
            remainder[m] = c
            del work[m]
            continue
        idx = best
        row = rows[idx]
        if integer:
            q, r = divmod(c, row.lc)
            if q == 0:
                remainder[m] = c
                del work[m]
                continue
        else:
            q, r = c, zero
        shift = m - lms[idx]
        for m2, c2 in row.poly.terms.items():
            mm = m2 + shift
            old = work.get(mm)
            cc = ring.sub(old if old is not None else zero, ring.mul(q, c2))
            if cc == zero:
                if old is not None:
                    del work[mm]
            else:
                work[mm] = cc
                if old is None and mm != m:
                    heappush(heap, mm - ((mm >> s) << s1))
        if integer and r != 0:
            remainder[m] = r
            work.pop(m, None)
        if track:
            # m is reduced once, so each (row, shift) is set once, to q != 0
            quots[idx][shift] = q
    # Every remainder coefficient is already canonical and nonzero.
    nf = Polynomial._raw(ring, vars, remainder)
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
        nf, _ = _reduce_full(p.remap(self.order.vars), self._rows, self.order, False)
        return nf

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
        vars = self.order.vars
        out = [Polynomial.zero(self.ring, vars) for _ in self.gens]
        for q, row in zip(quots, self._rows):
            if q.is_zero():
                continue
            for j, c in enumerate(row.cof):
                if not c.is_zero():
                    out[j] = out[j] + q * c
        return out

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
    """
    vars = order.vars
    inputs = [g.remap(vars) for g in gens]
    zero = Polynomial.zero(ring, vars)
    integer = ring.kind == "ZZ"

    rows = []
    queue = []

    def normalized(poly, cof):
        _, lc = order.leading(poly.terms)
        if integer:
            if lc < 0:
                poly = -poly
                cof = [-c for c in cof] if cof is not None else None
        elif lc != ring.one():
            inv = ring.invert(lc)
            poly = poly.scale(inv)
            cof = [c.scale(inv) for c in cof] if cof is not None else None
        return poly, cof

    def enqueue(kind, i, j):
        # the key orders by the lcm's degree first, then by DEGREVLEX
        lcm = order.lcm(rows[i].lm, rows[j].lm)
        heapq.heappush(queue, ((order.key(lcm), i, j, kind), kind, i, j))

    def push(poly, cof):
        poly, cof = normalized(poly, cof)
        row = _Row(poly, cof, order)
        new_index = len(rows)
        rows.append(row)
        for i in range(new_index):
            enqueue("s", i, new_index)
            if integer:
                enqueue("g", i, new_index)

    for j, g in enumerate(inputs):
        if g.is_zero():
            continue
        nf, quots = _reduce_full(g, rows, order, track)
        if nf.is_zero():
            continue
        if track:
            base = [zero] * len(inputs)
            base[j] = Polynomial.constant(ring, 1, vars)
            push(nf, _combine_cofs(ring, vars, base, quots, rows))
        else:
            push(nf, None)

    while queue:
        _, kind, i, j = heapq.heappop(queue)
        ri, rj = rows[i], rows[j]
        lcm = order.lcm(ri.lm, rj.lm)
        if kind == "s":
            coprime_monos = lcm == ri.lm + rj.lm
            if coprime_monos and (not integer or math.gcd(ri.lc, rj.lc) == 1):
                continue
            si, sj = lcm - ri.lm, lcm - rj.lm
            if integer:
                l = ri.lc * rj.lc // math.gcd(ri.lc, rj.lc)
                ui, uj = l // ri.lc, l // rj.lc
            else:
                ui = uj = ring.one()
            cand = ri.poly.mul_term(si, ui) - rj.poly.mul_term(sj, uj)
            cof = (
                [a.mul_term(si, ui) - b.mul_term(sj, uj) for a, b in zip(ri.cof, rj.cof)]
                if track
                else None
            )
        else:
            if ri.lc % rj.lc == 0 or rj.lc % ri.lc == 0:
                continue
            g, s, t = _egcd(ri.lc, rj.lc)
            si, sj = lcm - ri.lm, lcm - rj.lm
            cand = ri.poly.mul_term(si, s) + rj.poly.mul_term(sj, t)
            cof = (
                [a.mul_term(si, s) + b.mul_term(sj, t) for a, b in zip(ri.cof, rj.cof)]
                if track
                else None
            )
        nf, quots = _reduce_full(cand, rows, order, track)
        if nf.is_zero():
            continue
        push(nf, _combine_cofs(ring, vars, cof, quots, rows) if track else None)

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

    changed = True
    while changed:
        changed = False
        for idx, row in enumerate(kept):
            others = kept[:idx] + kept[idx + 1 :]
            nf, quots = _reduce_full(row.poly, others, order, track)
            if nf == row.poly:
                continue
            cof = _combine_cofs(ring, vars, row.cof, quots, others) if track else None
            poly, cof = normalized(nf, cof)
            kept[idx] = _Row(poly, cof, order)
            changed = True

    kept.sort(key=lambda r: (order.key(r.lm), r.lc))
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
