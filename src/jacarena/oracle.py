"""Brute-force ground truth on finite rings: radical membership by
enumeration and exact minimal game budgets.

On a finite ring the minimax over budgets collapses: playing the full
element list as one move set dominates every deeper tree.  Any win at some
budget walks, against fixed per-element replies, along a path whose
constraints form a subset of the flat all-moves constraint set, and the
nil-check target is monotone in the constraint ideal.  So the exact minimal
budget of a triple is 0 (already nilpotent), 1 (the flat move set wins
against every reply vector), or no finite budget works at all.  This is the
closed form of subset-iteration with dominance pruning, and the reply-side
search below still ranges over all reply vectors, kept as an antichain of
inclusion-minimal reachable ideals.
"""

from __future__ import annotations

from itertools import product

from .algebra import Polynomial, exponents
from .rings import constraint, finite_enumeration_data


class FiniteRingTable:
    """Complete element list of a finite presented ring, with index lookup."""

    def __init__(self, ring, elements):
        self.ring = ring
        self.elements = list(elements)
        self.index = {e.poly: i for i, e in enumerate(self.elements)}
        self._add = {}
        self._mul = {}

    def __len__(self):
        return len(self.elements)

    def idx(self, element):
        return self.index[self.ring.element(element).poly]

    def add(self, i, j):
        key = (i, j) if i <= j else (j, i)
        r = self._add.get(key)
        if r is None:
            r = self._add[key] = self.idx(self.elements[i] + self.elements[j])
        return r

    def mul(self, i, j):
        key = (i, j) if i <= j else (j, i)
        r = self._mul.get(key)
        if r is None:
            r = self._mul[key] = self.idx(self.elements[i] * self.elements[j])
        return r

    def ideal_closure(self, generators):
        """Indices of the ideal generated by the given element indices.

        The ideal of g_1, ..., g_k is R*g_1 + ... + R*g_k, and each R*g is
        itself an ideal, so one pass per generator takes the sums i + m of
        the ideal I built so far and the multiples m of g.  A g already in I
        adds nothing.
        """
        members = {self.idx(self.ring.zero())}
        for g in generators:
            if g not in members:
                multiples = {self.mul(r, g) for r in range(len(self.elements))}
                members = {self.add(i, m) for i in members for m in multiples}
        return frozenset(members)


def enumerate_finite(ring):
    """All distinct normal forms of a finite presented ring.

    Requires a finite staircase and, over ZZ, integer torsion; the candidate
    set staircase-monomials x residues is deduplicated by normal form.
    """
    stair, counts = finite_enumeration_data(ring)
    base = ring.base
    seen = {}
    elements = []
    for combo in product(*[range(c) for c in counts]) if counts else [()]:
        terms = {}
        for mono, c in zip(stair, combo):
            if c:
                terms[exponents(mono, len(ring.vars))] = c
        elt = ring.element(Polynomial(base, ring.vars, terms))
        if elt.poly not in seen:
            seen[elt.poly] = True
            elements.append(elt)
    if not elements:
        elements.append(ring.zero())
    return FiniteRingTable(ring, elements)


def _nil_from_ideal(table, xi, ideal):
    power = table.idx(table.ring.one())
    seen = set()
    while power not in seen:
        if power in ideal:
            return True
        seen.add(power)
        power = table.mul(power, xi)
    return power in ideal


def _minimal_frontier(ideals):
    keep = []
    for cand in sorted(ideals, key=len):
        if not any(k <= cand for k in keep):
            keep.append(cand)
    return keep


def minimal_alpha(table, x, xprime):
    """Exact least budget for the triple on a finite ring, or None.

    Budget 0 means xprime is already nilpotent; budget 1 is decided by the
    dominant all-elements move set against every reply vector (explored as
    an antichain of minimal reachable constraint ideals); by the collapse
    argument in the module docstring no larger finite budget can help.
    """
    x = table.ring.element(x)
    xprime = table.ring.element(xprime)
    xp_i = table.idx(xprime)
    start = table.ideal_closure([])
    if _nil_from_ideal(table, xp_i, start):
        return 0

    effect_sets = set()
    for a in table.elements:
        constraints = frozenset(table.idx(constraint(x, a, b)) for b in table.elements)
        effect_sets.add(constraints)

    frontier = [start]
    for options in sorted(effect_sets, key=sorted):
        nxt = set()
        for ideal in frontier:
            for c in options:
                if c in ideal:
                    nxt.add(ideal)
                else:
                    nxt.add(table.ideal_closure(list(ideal) + [c]))
        frontier = _minimal_frontier(nxt)
    if all(_nil_from_ideal(table, xp_i, ideal) for ideal in frontier):
        return 1
    return None


def minimal_alpha_ring(table):
    """Max of minimal_alpha(x, x) over the whole element list."""
    worst = 0
    for x in table.elements:
        alpha = minimal_alpha(table, x, x)
        if alpha is None:
            raise AssertionError("a diagonal triple on a finite ring must have finite budget")
        worst = max(worst, alpha)
    return worst
