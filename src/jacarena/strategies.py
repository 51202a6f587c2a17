"""Prover strategies, strategy combinators, and Delayer adversaries.

Prover strategies are deterministic move generators: ``propose`` yields this
round's elements, ``receive`` consumes the Delayer's replies and returns the
declared next budget together with a continuation strategy.  A strategy's
``receive`` is called only after its ``propose``, at the same position, so a
combinator keeps the sub-moves its ``propose`` got and hands exactly those to
the sub's ``receive`` (the integral transport hands back the moves it read
into its base ring); no ``receive`` proposes again.  The referee never
calls ``receive`` at budget 1, where 0 is the only legal declaration.
Correctness is enforced semantically by the referee's leaf check, so
combinators only have to produce the right moves.  Declared budgets are
clamped to stay strictly below the current position budget; a starved
strategy plays on and simply loses.
"""

from __future__ import annotations

import itertools
import random
import re
from math import gcd

from .algebra import Polynomial, pack
from .errors import (
    NotInJacobsonRadical,
    UnknownAgentSpec,
    UnsupportedRing,
    WrongBudget,
)
from .parsing import _MAX_DIGITS
from .rings import (
    MonogenicExtension,
    coefficient_ring,
    constraint,
    integral_dependence,
    key_elementary_transfer,
    member_in,
    zero_dim_witness,
)


class ProverStrategy:
    """Base move generator; subclasses override propose/receive."""

    def __init__(self, ring, budget, name):
        self.ring = ring
        self.budget = budget
        self.name = name

    def propose(self, pos):
        return []

    def receive(self, pos, moves, replies):
        return self._declare(pos, 0), self

    @staticmethod
    def _declare(pos, want):
        return max(0, min(want, pos.tau - 1))

    def __repr__(self):
        return f"<strategy {self.name} on {self.ring.to_text()}>"


class ZeroDimStrategy(ProverStrategy):
    """One-round strategy from a witness x^e(1 - a*x) = 0.

    Whatever b answers the move a, x^e = x^e(1 - b(1 - a*x)) puts x^e in the
    ideal of the single constraint.
    """

    def __init__(self, ring, x):
        super().__init__(ring, 1, "zeroDim")
        self.x = ring.element(x)
        self.exponent, self.move = zero_dim_witness(self.x)

    def propose(self, pos):
        return [self.move]

    def receive(self, pos, moves, replies):
        return self._declare(pos, 0), CutStrategy(self.ring, [])


class EuclideanDim1Strategy(ProverStrategy):
    """Two-round strategy for ZZ and K[X]: force a nonzero constraint, then
    finish with a zero-dimensional witness in the finite quotient."""

    def __init__(self, ring, x):
        super().__init__(ring, 2, "euclideanDim1")
        self.x = ring.element(x)
        base = ring.base
        if ring.relations or (base.kind == "ZZ" and ring.vars) or (
            base.kind != "ZZ" and len(ring.vars) > 1
        ):
            raise UnsupportedRing(
                f"euclideanDim1 covers ZZ and K[X] presentations, not {ring.to_text()}"
            )
        if self.x.is_zero():
            self.move = None
            return
        poly = self.x.poly
        if base.kind == "ZZ":
            n = poly.constant_value()
            if n in (1, -1):
                self.move = self.x
            else:
                self.move = ring.element(-1 if n > 0 else 1)
        else:
            if poly.is_constant():
                self.move = ring.element(base.invert(poly.constant_value()))
            else:
                self.move = ring.one()

    def propose(self, pos):
        return [] if self.move is None else [self.move]

    def receive(self, pos, moves, replies):
        if self.move is None:
            return self._declare(pos, 0), self
        m = constraint(self.x, self.move, replies[0])
        inner = ZeroDimStrategy(self.ring.quotient_extend([m]), self.x.poly)
        return self._declare(pos, 1), CutStrategy(self.ring, [inner])


class CutStrategy(ProverStrategy):
    """Play parts side by side, each over ring or a quotient of it.

    A cut along x plays a strategy for (A, y, x*z) beside one for
    (A/<x>, y, z); a chain of cuts is one cut with a part per link.  Each
    round plays the concatenation of the parts' moves, read into ring, and
    hands each part its own moves and its replies read into its own ring.
    A normal form modulo a larger ideal is already reduced modulo a smaller
    one, so a move crosses up unchanged.  The declared budget is the
    largest any part declares; the referee refuses one that is not below
    the position's budget.
    """

    def __init__(self, ring, parts):
        budget = max((s.budget for s in parts), default=0)
        super().__init__(ring, budget, "cut(" + "|".join(s.name for s in parts) + ")")
        self.parts = list(parts)

    def propose(self, pos):
        self.part_moves = [list(s.propose(pos)) for s in self.parts]
        return [self.ring.element(m.poly) for moves in self.part_moves for m in moves]

    def receive(self, pos, moves, replies):
        declared, conts, rest = 0, [], iter(replies)
        for s, own in zip(self.parts, self.part_moves):
            mine = [s.ring.element(next(rest).poly) for _ in own]
            budget, cont = s.receive(pos, own, mine)
            declared = max(declared, budget)
            conts.append(cont)
        return declared, CutStrategy(self.ring, conts)


class IntegralTransportStrategy(ProverStrategy):
    """Play a strategy for A, or for a ring A is a quotient of, inside a
    monogenic extension B of A, rescaled.

    A sub move, read into A, becomes the extension move a1*a*factor, a the
    leading coefficient of ext, in one normal form in ring; factor is a
    polynomial over ring's variables, and any representative of it gives
    the same moves.  Each extension reply b2 is converted back into a base
    reply via the localization transfer, whose output constraint lies in
    the ideal of the extension constraint.
    """

    def __init__(self, ring, sub, a0, ext, factor):
        super().__init__(ring, sub.budget, sub.name)
        self.sub = sub
        self.a0 = a0
        self.ext = ext
        self.factor = factor

    def propose(self, pos):
        base = self.ext.base
        self.inner_moves = [base.element(m.poly) for m in self.sub.propose(pos)]
        # A's relations hold in B, so each move is one normal form in B
        ring, vars = self.ring, self.ring.vars
        lead = self.ext.lead.poly.remap(vars)
        return [ring.element(a1.poly.remap(vars) * lead * self.factor) for a1 in self.inner_moves]

    def receive(self, pos, moves, replies):
        read = self.sub.ring.element
        inner_replies = [
            read(key_elementary_transfer(self.a0, a1, b2, self.ext).poly)
            for a1, b2 in zip(self.inner_moves, replies)
        ]
        # crossed moves, not the sub's own: the tower fault (ROADMAP item 1)
        crossed = [read(a1.poly) for a1 in self.inner_moves]
        declared, cont = self.sub.receive(pos, crossed, inner_replies)
        return declared, IntegralTransportStrategy(self.ring, cont, self.a0, self.ext, self.factor)


def loc_integral_strategy(rel, sub_factory, ext):
    """Strategy for (B, y, a*y) from a dependence a^l y^d = sum c_j y^j,
    with y = rel.y and B its ring, a quotient of ext.ring.

    Walks the chain B = B_d, B_{k-1} = B_k / <f_{k-1}> with f_0 = a^l and
    f_k = f_{k-1} y - c_{d-k}: the cut has one part per level k >= 1, which
    transports the base strategy for a*c_{d-k} into B_k over ext and
    rescales its moves by f_{k-1}.  B_0 needs no part, since f_0 = a^l
    dies there.  Each f_k, a part's factor and a quotient's generator,
    stays a polynomial over B's variables: any representative plays alike.
    """
    y, ring = rel.y, rel.y.ring
    a, l, d, cs = rel.a, rel.l, rel.d, rel.coeffs
    # a and the c_j live in the base, y in B: bring them to B's variables
    fs = [a.poly.remap(ring.vars) ** l]
    for k in range(1, d):
        fs.append(fs[-1] * y.poly - cs[d - k].poly.remap(ring.vars))
    parts, ring_k = [], ring
    for k in range(d, 0, -1):
        parts.append(IntegralTransportStrategy(ring_k, sub_factory(d - k), cs[d - k], ext, fs[k - 1]))
        if k > 1:
            ring_k = ring_k.quotient_extend([fs[k - 1]])
    return CutStrategy(ring, parts)


class PolyLiftStrategy(ProverStrategy):
    """Quantitative lift: from a strategy factory for the coefficient ring A
    (budget b) to a strategy for (A[X], f, f) at budget b + 1.

    Round one declares the single move X; the reply g pins the constraint
    h = 1 - g(1 - X f), and the continuation walks the chain
    C_k = A[X]/<h, a_{k+1}, ..., a_d> over the X-coefficients a_j of h,
    adding for each nonzero a_k, k >= 1, the parts of an integral-transport
    strategy for (C_k, f, a_k f) to one cut; a level whose a_k already
    vanishes adds nothing, and neither does level 0.  A factory over
    another ring than A is refused with UnsupportedRing.
    """

    def __init__(self, ring, f, factory):
        if factory.ring != coefficient_ring(ring):
            raise UnsupportedRing(
                f"a {factory.ring.to_text()} strategy does not lift to {ring.to_text()}"
            )
        # the factory's own presentation, with any basis it has completed
        self.coeff_ring = factory.ring
        super().__init__(ring, factory.budget + 1, f"polyLift({factory.name})")
        self.x = ring.element(f)
        self.var = ring.vars[-1]
        self.factory = factory

    def propose(self, pos):
        if self.x.is_zero():
            return []
        return [self.ring.element(Polynomial.variable(self.ring.base, self.var, self.ring.vars))]

    def receive(self, pos, moves, replies):
        if self.x.is_zero():
            return self._declare(pos, 0), self
        h = constraint(self.x, moves[0], replies[0])
        return self._declare(pos, self.factory.budget), CutStrategy(self.ring, self._chain_for(h))

    def _chain_for(self, h):
        """The parts of every level of the chain, deepest level last."""
        ring, base = self.ring, self.coeff_ring
        split = h.poly.coefficients_in(self.var)
        xvar = Polynomial.variable(ring.base, self.var, ring.vars)
        levels = sorted(split.keys() - {0}, reverse=True)
        parts, ring_k, base_k = [], ring.quotient_extend([h]), base
        zero = Polynomial.zero(ring.base, ring.vars)
        for k in levels:
            a_k = base_k.element(split[k])
            if a_k.is_zero():
                continue
            # h's terms of X-degree at most k
            rel_poly = sum((c.remap(ring.vars) * xvar ** j for j, c in split.items() if j <= k), zero)
            ext_k = MonogenicExtension(base_k, ring_k, self.var, rel_poly)
            dep = integral_dependence(ring_k.element(self.x.poly), ext_k)

            def sub_factory(idx, dep=dep):
                return self.factory(base.element((dep.a * dep.coeffs[idx]).poly))

            parts += loc_integral_strategy(dep, sub_factory, ext_k).parts
            if k != levels[-1]:
                ring_k = ring_k.quotient_extend([split[k]])
                base_k = base_k.quotient_extend([a_k])
        return parts


# (strategy class, budget) of each leaf spec
_LEAVES = {"zeroDim": (ZeroDimStrategy, 1), "euclideanDim1": (EuclideanDim1Strategy, 2)}


class _Factory:
    """Builds the strategy of one spec over one ring for any x: a leaf, or
    the polynomial lift of the factory ``inner`` for the coefficient ring."""

    def __init__(self, ring, leaf=None, inner=None):
        self.ring = ring
        self.inner = inner
        if inner is None:
            self.leaf, self.budget = _LEAVES[leaf]
            self.name = leaf
        else:
            self.budget = inner.budget + 1
            self.name = f"polyLift({inner.name})"

    def __call__(self, x):
        if self.inner is None:
            return self.leaf(self.ring, x)
        return PolyLiftStrategy(self.ring, x, self.inner)


def ring_strategy_factory(ring):
    """Strategy factory for towers base[X_1,...,X_n] with no relations.

    Budget is 1 for a field base, 2 for a ZZ or K[X] base, plus one per
    additional polynomial variable: the spec polyLift(...(leaf)...).
    """
    if ring.relations:
        raise UnsupportedRing(f"{ring.to_text()} is not a pure polynomial tower")
    n = len(ring.vars)
    if ring.base.kind == "ZZ":
        leaf, lifts = "euclideanDim1", n
    elif n == 0:
        leaf, lifts = "zeroDim", 0
    else:
        leaf, lifts = "euclideanDim1", n - 1
    return _factory_from_spec("polyLift(" * lifts + leaf + ")" * lifts, ring)


class FixedMovesProver(ProverStrategy):
    """Scripted Prover: plays the given move lists round by round."""

    def __init__(self, ring, x, rounds):
        rounds = [list(r) for r in rounds]
        super().__init__(ring, len(rounds), "scripted")
        self.x = ring.element(x)
        self.rounds = rounds

    def propose(self, pos):
        return [self.ring.element(m) for m in self.rounds[0]] if self.rounds else []

    def receive(self, pos, moves, replies):
        cont = FixedMovesProver(self.ring, self.x, self.rounds[1:])
        return self._declare(pos, cont.budget), cont


class DelayerStrategy:
    name = "delayer"

    def reply(self, pos, moves):
        raise NotImplementedError


class RandomDelayer(DelayerStrategy):
    """Seeded pseudo-random replies within per-variable degree and size bounds."""

    def __init__(self, ring, seed, deg_le=0, abs_le=1):
        self.ring = ring
        self.seed = seed
        self.deg_le = deg_le
        self.abs_le = abs_le
        self.rng = random.Random(seed)
        self.name = f"random(seed={seed},degLE={deg_le},absLE={abs_le})"
        # the packed monomial of every exponent vector of degree at most
        # deg_le in each variable, the last variable's exponent changing
        # fastest: the draw order
        n = len(ring.vars)
        self.monomials = [pack(e, n) for e in itertools.product(range(deg_le + 1), repeat=n)]

    def _random_element(self):
        base, terms = self.ring.base, {}
        for mono in self.monomials:
            if c := base.normalize(self.rng.randint(-self.abs_le, self.abs_le)):
                terms[mono] = c
        return self.ring.element(Polynomial._raw(base, self.ring.vars, terms))

    def reply(self, pos, moves):
        return [self._random_element() for _ in moves]


class ConstantDelayer(DelayerStrategy):
    def __init__(self, ring, value):
        self.ring = ring
        self.value = ring.element(value)
        self.name = f"constant({self.value.to_text()})"

    def reply(self, pos, moves):
        return [self.value for _ in moves]


class EchoDelayer(DelayerStrategy):
    """Replies b := a, a cheap adversary that stresses move handling."""

    name = "echo"

    def __init__(self, ring):
        self.ring = ring

    def reply(self, pos, moves):
        return list(moves)


class JacWitnessDelayer(DelayerStrategy):
    """Answers each move a with the cofactor of 1 - a*x in 1 = sum c_i u_i + q(1 - a*x).

    The resulting constraint 1 - q(1 - a*x) = sum c_i u_i then lies in the
    ideal of the base set.  Raises NotInJacobsonRadical at the first move
    where no witness exists.
    """

    def __init__(self, ring, x, base_constraints):
        self.ring = ring
        self.x = ring.element(x)
        self.base = [ring.element(u) for u in base_constraints]
        self.name = "jacWitness(" + ";".join(u.to_text() for u in self.base) + ")"

    def reply(self, pos, moves):
        out = []
        one = self.ring.one()
        for a in moves:
            probe = one - a * self.x
            cofs = member_in(self.ring, one, self.base + [probe])
            if cofs is None:
                raise NotInJacobsonRadical(a)
            out.append(self.ring.element(cofs[-1]))
        return out


class DiagonalRefuterZ(DelayerStrategy):
    """Lower-bound adversary on (ZZ, N, N) at budget one.

    Replies force every constraint to equal c = 1 + |N(1-a_1 N)...(1-a_n N)|,
    and c has a prime factor missing from N, so N is not nilpotent modulo c.
    """

    def __init__(self, ring, n_value):
        if ring.base.kind != "ZZ" or ring.vars or ring.relations:
            raise UnsupportedRing("refuterZ plays on the plain integers")
        if abs(n_value) < 2:
            raise ValueError("|N| must be at least 2")
        self.ring = ring
        self.n_value = n_value
        self.name = "refuterZ"

    @staticmethod
    def forced_constant(n_value, move_values):
        product = n_value
        for a in move_values:
            product *= 1 - a * n_value
        return 1 + abs(product)

    def reply(self, pos, moves):
        if pos.tau != 1:
            raise WrongBudget(f"refuterZ covers budget 1, invoked at {pos.tau}")
        values = [m.poly.constant_value() for m in moves]
        c = self.forced_constant(self.n_value, values)
        out = []
        for a in values:
            q, r = divmod(1 - c, 1 - a * self.n_value)
            if r != 0:
                raise AssertionError("diagonal reply division was not exact")
            out.append(self.ring.element(q))
        return out

    @staticmethod
    def check_not_nil(c, n_value):
        """Repeated gcd stripping: True iff some prime of c misses N."""
        c0 = abs(c)
        while True:
            g = gcd(c0, abs(n_value))
            if g == 1:
                break
            while c0 % g == 0:
                c0 //= g
        return c0 > 1


class DiagonalRefuterPoly(DelayerStrategy):
    """Lower-bound adversary on (A[X], X, X) at budget one.

    The reply to move f_i is g_i = X * prod_{j != i} (1 - f_j X), making every
    constraint equal h = 1 - X(1 - f_1 X)...(1 - f_n X); over a nontrivial A
    no power of X lies in <h>.
    """

    def __init__(self, ring):
        if not ring.vars:
            raise UnsupportedRing("refuterPoly plays on a polynomial ring")
        self.ring = ring
        self.var = ring.vars[-1]
        self.name = "refuterPoly"

    def reply(self, pos, moves):
        if pos.tau != 1:
            raise WrongBudget(f"refuterPoly covers budget 1, invoked at {pos.tau}")
        xvar = self.ring.element(
            Polynomial.variable(self.ring.base, self.var, self.ring.vars)
        )
        one = self.ring.one()
        out = []
        for i in range(len(moves)):
            g = xvar
            for j, f in enumerate(moves):
                if j != i:
                    g = g * (one - f * xvar)
            out.append(g)
        return out

    def forced_constraint(self, moves):
        xvar = self.ring.element(
            Polynomial.variable(self.ring.base, self.var, self.ring.vars)
        )
        h = xvar
        for f in moves:
            h = h * (self.ring.one() - f * xvar)
        return self.ring.one() - h


# most candidate monomials, (degLE+1)^nvars, that a random reply may draw from
_RANDOM_MAX_MONOMIALS = 1024

_RANDOM_SPEC = re.compile(
    r"random\(seed=(-?\d+),degLE=(\d+),absLE=(\d+)\)$|random:(-?\d+)(?::(\d+))?(?::(\d+))?$"
)


def delayer_from_spec(spec, ring, x):
    spec = spec.strip()
    m = _RANDOM_SPEC.match(spec)
    if m:
        if any(g and len(g.lstrip("-")) > _MAX_DIGITS for g in m.groups()):
            raise UnknownAgentSpec(f"a number in a random delayer spec passes {_MAX_DIGITS} digits")
        if m.group(1) is not None:
            seed, deg, bound = int(m.group(1)), int(m.group(2)), int(m.group(3))
        else:
            seed = int(m.group(4))
            deg = int(m.group(5)) if m.group(5) else 0
            bound = int(m.group(6)) if m.group(6) else 1
        if (deg + 1) ** len(ring.vars) > _RANDOM_MAX_MONOMIALS:
            raise UnknownAgentSpec(f"{spec!r} allows replies of more than {_RANDOM_MAX_MONOMIALS} terms")
        return RandomDelayer(ring, seed, deg, bound)
    if spec == "refuterZ":
        # x is a constant on the plain integers; other rings are refused first
        return DiagonalRefuterZ(ring, 0 if ring.vars else x.poly.constant_value())
    if spec == "refuterPoly":
        return DiagonalRefuterPoly(ring)
    if spec == "echo":
        return EchoDelayer(ring)
    if spec.startswith("constant(") and spec.endswith(")"):
        return ConstantDelayer(ring, ring.element(spec[len("constant(") : -1]))
    if spec.startswith("jacWitness(") and spec.endswith(")"):
        inner = spec[len("jacWitness(") : -1]
        base = [ring.element(part) for part in inner.split(";") if part.strip()]
        return JacWitnessDelayer(ring, x, base)
    raise UnknownAgentSpec(f"unknown delayer spec {spec!r}")


def _factory_from_spec(spec, ring):
    """The factory of a prover spec: the spec is read in full before any
    coefficient ring is taken, so unknown text is refused on every ring."""
    spec = spec.strip()
    # peel "polyLift(" and ")" off spec[start:end] in place, one pair a pass
    start, end, lifts = 0, len(spec), 0
    while spec.startswith("polyLift(", start, end) and spec.endswith(")", start, end):
        start, end, lifts = start + len("polyLift("), end - 1, lifts + 1
        while start < end and spec[start].isspace():
            start += 1
        while start < end and spec[end - 1].isspace():
            end -= 1
    core = spec[start:end]
    if core != "auto" and core not in _LEAVES:
        raise UnknownAgentSpec(f"unknown prover spec {spec!r}")
    rings = [ring]
    for _ in range(lifts):
        rings.append(coefficient_ring(rings[-1]))
    factory = ring_strategy_factory(rings[-1]) if core == "auto" else _Factory(rings[-1], leaf=core)
    for lifted in reversed(rings[:-1]):
        factory = _Factory(lifted, inner=factory)
    return factory


def prover_from_spec(spec, ring, x, xprime, budget):
    factory = _factory_from_spec(spec, ring)
    return factory(x)
