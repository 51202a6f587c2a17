"""Prover strategies, strategy combinators, and Delayer adversaries.

Prover strategies are deterministic move generators: ``propose`` yields this
round's elements, ``receive`` consumes the Delayer's replies and returns the
declared next budget together with a continuation strategy.  A strategy's
``receive`` is called only after its ``propose``, at the same position, so a
combinator keeps the sub-moves its ``propose`` got and hands exactly those to
the sub's ``receive``; no ``receive`` proposes again.  Correctness is
enforced semantically by the referee's leaf check, so combinators only have
to produce the right moves.  Declared budgets are clamped to stay strictly
below the current position budget; a starved strategy plays on and simply
loses.
"""

from __future__ import annotations

import random
import re

from .algebra import Polynomial
from .errors import (
    BudgetOverflow,
    NotInJacobsonRadical,
    UnsupportedRing,
    WrongBudget,
)
from .rings import (
    MonogenicExtension,
    coefficient_ring,
    integral_dependence,
    key_elementary_transfer,
    member_in,
    zero_dim_witness,
)


class ProverStrategy:
    """Base move generator; subclasses override propose/receive."""

    def __init__(self, ring, x, budget, name):
        self.ring = ring
        self.x = x
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


class ImmediateWinStrategy(ProverStrategy):
    """Never moves; relies on the leaf check already holding."""

    def __init__(self, ring, x):
        super().__init__(ring, x, 0, "immediate")


class ZeroDimStrategy(ProverStrategy):
    """One-round strategy from a witness x^e(1 - a*x) = 0.

    Whatever b answers the move a, x^e = x^e(1 - b(1 - a*x)) puts x^e in the
    ideal of the single constraint.
    """

    def __init__(self, ring, x):
        super().__init__(ring, ring.element(x), 1, "zeroDim")
        self.exponent, self.move = zero_dim_witness(self.x)

    def propose(self, pos):
        return [self.move]

    def receive(self, pos, moves, replies):
        return self._declare(pos, 0), ImmediateWinStrategy(self.ring, self.x)


class EuclideanDim1Strategy(ProverStrategy):
    """Two-round strategy for ZZ and K[X]: force a nonzero constraint, then
    finish with a zero-dimensional witness in the finite quotient."""

    def __init__(self, ring, x):
        super().__init__(ring, ring.element(x), 2, "euclideanDim1")
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
        if self.move is None or pos.tau <= 1:
            return self._declare(pos, 0), ImmediateWinStrategy(self.ring, self.x)
        b = replies[0]
        m = self.ring.one() - b * (self.ring.one() - self.move * self.x)
        quotient = self.ring.quotient_extend([m])
        inner = ZeroDimStrategy(quotient, self.x.poly)
        return self._declare(pos, 1), _Bridge(self.ring, self.x, 1, inner, self.name)


class _Bridge(ProverStrategy):
    """Play a strategy that lives over another presentation of the same
    ambient polynomials; moves and replies cross by representative."""

    def __init__(self, ring, x, budget, sub, name):
        super().__init__(ring, x, budget, name)
        self.sub = sub

    def propose(self, pos):
        return [self.ring.element(m.poly) for m in self.sub.propose(pos)]

    def receive(self, pos, moves, replies):
        # Crossed moves, not the sub's own: the tower fault (ROADMAP item 1).
        sub_moves = [self.sub.ring.element(m.poly) for m in moves]
        sub_replies = [self.sub.ring.element(b.poly) for b in replies]
        declared, cont = self.sub.receive(pos, sub_moves, sub_replies)
        return (
            self._declare(pos, declared),
            _Bridge(self.ring, self.x, declared, cont, self.name),
        )


def quotient_push(strategy, extra):
    """Transport a strategy along a quotient: same moves, larger relation ideal."""
    ring = strategy.ring.quotient_extend(extra)
    return _Bridge(
        ring, ring.element(strategy.x.poly), strategy.budget, strategy, strategy.name
    )


class CutStrategy(ProverStrategy):
    """Interleave a strategy for (A, y, x*z) with one for (A/<x>, y, z).

    Each round plays the concatenation of both sub-strategies' moves and
    splits the replies back; the declared budget is the max of the two.
    """

    def __init__(self, s1, s2, name=None):
        budget = max(s1.budget, s2.budget)
        super().__init__(s1.ring, s1.x, budget, name or f"cut({s1.name}|{s2.name})")
        self.s1 = s1
        self.s2 = s2

    def propose(self, pos):
        self.moves2 = self.s2.propose(pos)
        self.moves1 = list(self.s1.propose(pos))
        return self.moves1 + [self.ring.element(m.poly) for m in self.moves2]

    def receive(self, pos, moves, replies):
        if pos.tau <= 1:
            return 0, ImmediateWinStrategy(self.ring, self.x)
        n1 = len(self.moves1)
        b1, c1 = self.s1.receive(pos, self.moves1, replies[:n1])
        down_r = [self.s2.ring.element(b.poly) for b in replies[n1:]]
        b2, c2 = self.s2.receive(pos, self.moves2, down_r)
        declared = max(b1, b2)
        if declared >= pos.tau:
            raise BudgetOverflow(
                f"cut continuation needs budget {declared} at position {pos.tau}"
            )
        return declared, CutStrategy(c1, c2, self.name)


class IntegralTransportStrategy(ProverStrategy):
    """Play a base-ring strategy inside a monogenic extension, rescaled.

    A declared base move a1 becomes the extension move a1*a*factor, a the
    leading coefficient of ext; each extension reply b2 is converted back
    into a base reply via the localization transfer, whose output
    constraint lies in the ideal of the extension constraint.
    """

    def __init__(self, ring, x, sub, a0, ext, factor):
        super().__init__(ring, x, sub.budget, sub.name)
        self.sub = sub
        self.a0 = a0
        self.ext = ext
        self.factor = factor

    def propose(self, pos):
        self.inner_moves = self.sub.propose(pos)
        return [
            self.ring.element((a1 * self.ext.lead).poly) * self.factor
            for a1 in self.inner_moves
        ]

    def receive(self, pos, moves, replies):
        if pos.tau <= 1:
            return 0, ImmediateWinStrategy(self.ring, self.x)
        inner_replies = [
            key_elementary_transfer(self.a0, a1, b2, self.ext)
            for a1, b2 in zip(self.inner_moves, replies)
        ]
        declared, cont = self.sub.receive(pos, self.inner_moves, inner_replies)
        return declared, IntegralTransportStrategy(
            self.ring, self.x, cont, self.a0, self.ext, self.factor
        )


def loc_integral_strategy(ring, y, rel, sub_factory, ext):
    """Strategy for (B, y, a*y) from a dependence a^l y^d = sum c_j y^j.

    Descends the chain B = B_d, B_{k-1} = B_k / <f_{k-1}> with
    f_k = a^l y^k - (c_{d-1} y^{k-1} + ... + c_{d-k}); each level transports
    the base strategy for a*c_{d-k}, rescales moves by f_{k-1}, and closes
    with a cut on f_{k-1}.  Level zero wins outright since f_0 = a^l dies.
    """
    base = ext.base
    a, l, d, cs = rel.a, rel.l, rel.d, rel.coeffs
    # a and the c_j live in the base, y in B: bring them to B's variables
    a_poly = a.poly.remap(ring.vars)
    c_polys = [c.poly.remap(ring.vars) for c in cs]

    def f_raw(k):
        acc = a_poly ** l * y.poly ** k
        for j in range(1, k + 1):
            acc = acc - c_polys[d - j] * y.poly ** (k - j)
        return acc

    def build(k, ring_k):
        y_k = ring_k.element(y.poly)
        if k == 0:
            return ImmediateWinStrategy(ring_k, y_k)
        a0 = cs[d - k]
        ext_k = MonogenicExtension(base, ring_k, ext.var, ext.relation)
        sub = sub_factory(d - k)
        f_prev = ring_k.element(f_raw(k - 1))
        transport = IntegralTransportStrategy(ring_k, y_k, sub, a0, ext_k, f_prev)
        lower = build(k - 1, ring_k.quotient_extend([f_prev]))
        return CutStrategy(transport, lower, transport.name)

    return build(d, ring)


class PolyLiftStrategy(ProverStrategy):
    """Quantitative lift: from a strategy factory for the coefficient ring A
    (budget b) to a strategy for (A[X], f, f) at budget b + 1.

    Round one declares the single move X; the reply g pins the constraint
    h = 1 - g(1 - X f), and the continuation walks the chain
    C_k = A[X]/<h, a_{k+1}, ..., a_d> over the X-coefficients a_j of h,
    cutting on each nonzero a_k with an integral-transport strategy for
    (C_k, f, a_k f); a level whose a_k already vanishes adds nothing.
    """

    def __init__(self, ring, f, factory):
        self.coeff_ring = coefficient_ring(ring)
        super().__init__(
            ring, ring.element(f), factory.budget + 1, f"polyLift({factory.name})"
        )
        self.var = ring.vars[-1]
        self.factory = factory

    def propose(self, pos):
        if self.x.is_zero():
            return []
        return [self.ring.element(Polynomial.variable(self.ring.base, self.var, self.ring.vars))]

    def receive(self, pos, moves, replies):
        if self.x.is_zero() or pos.tau <= 1:
            return self._declare(pos, 0), ImmediateWinStrategy(self.ring, self.x)
        g = replies[0]
        h = self.ring.one() - g * (self.ring.one() - moves[0] * self.x)
        declared = self._declare(pos, self.factory.budget)
        return declared, _Bridge(self.ring, self.x, declared, self._chain_for(h), self.name)

    def _chain_for(self, h):
        ring, f = self.ring, self.x
        if h.is_zero():
            return ImmediateWinStrategy(ring, f)
        split = h.poly.coefficients_in(self.var)
        degree = max(split)
        coeffs = {
            j: split.get(j, Polynomial.zero(ring.base, self.coeff_ring.vars))
            for j in range(degree + 1)
        }

        def chain(k, ring_k, base_k):
            f_k = ring_k.element(f.poly)
            if k == -1:
                return ImmediateWinStrategy(ring_k, f_k)
            a_k = base_k.element(coeffs[k])
            if a_k.is_zero():
                return chain(k - 1, ring_k, base_k)
            lower_ring = ring_k.quotient_extend([ring_k.element(coeffs[k].remap(ring_k.vars))])
            deeper = chain(k - 1, lower_ring, base_k.quotient_extend([a_k]))
            rel_poly = Polynomial.zero(ring.base, ring.vars)
            xvar = Polynomial.variable(ring.base, self.var, ring.vars)
            for j in range(k + 1):
                rel_poly = rel_poly + base_k.element(coeffs[j]).poly.remap(ring.vars) * xvar ** j
            ext_k = MonogenicExtension(base_k, ring_k, self.var, rel_poly)
            dep = integral_dependence(f_k, ext_k)
            extra = [
                self.coeff_ring.element(r.remap(self.coeff_ring.vars))
                for r in base_k.relations[len(self.coeff_ring.relations):]
            ]

            def sub_factory(idx):
                target = dep.a * dep.coeffs[idx]
                return quotient_push(self.factory(self.coeff_ring.element(target.poly)), extra)

            side = loc_integral_strategy(ring_k, f_k, dep, sub_factory, ext_k)
            return CutStrategy(side, deeper, self.name)

        top_ring = ring.quotient_extend([h])
        return chain(degree, top_ring, self.coeff_ring)


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
        super().__init__(ring, ring.element(x), len(rounds), "scripted")
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

    def _random_element(self):
        nvars = len(self.ring.vars)
        monos = [()]
        for _ in range(nvars):
            monos = [m + (e,) for m in monos for e in range(self.deg_le + 1)]
        terms = {}
        for exps in monos:
            c = self.rng.randint(-self.abs_le, self.abs_le)
            if c:
                terms[exps] = c
        return self.ring.element(Polynomial(self.ring.base, self.ring.vars, terms))

    def reply(self, pos, moves):
        return [self._random_element() for _ in moves]


class ScriptedDelayer(DelayerStrategy):
    """Fixed replies per round; cycles its last entry if the match runs longer."""

    def __init__(self, ring, rounds):
        self.ring = ring
        self.rounds = [list(r) for r in rounds]
        self.index = 0
        self.name = "scripted"

    def reply(self, pos, moves):
        script = self.rounds[min(self.index, len(self.rounds) - 1)] if self.rounds else []
        self.index += 1
        out = []
        for i in range(len(moves)):
            value = script[i] if i < len(script) else 0
            out.append(self.ring.element(value))
        return out


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

    The resulting constraint then lies in the ideal of the base set, which
    is what certificate extraction rewrites along.  Raises
    NotInJacobsonRadical at the first move where no witness exists.
    """

    def __init__(self, ring, x, base_constraints):
        self.ring = ring
        self.x = ring.element(x)
        self.base = [ring.element(u) for u in base_constraints]
        self.witnesses = []
        self.name = "jacWitness(" + ";".join(u.to_text() for u in self.base) + ")"

    def reply(self, pos, moves):
        out = []
        one = self.ring.one()
        for a in moves:
            probe = one - a * self.x
            cofs = member_in(self.ring, one, self.base + [probe])
            if cofs is None:
                raise NotInJacobsonRadical(a)
            b = self.ring.element(cofs[-1])
            constraint = one - b * probe
            witness = member_in(self.ring, constraint, self.base)
            if witness is None:
                raise AssertionError("witness constraint escaped the base ideal")
            self.witnesses.append(witness)
            out.append(b)
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
        values = [m.poly.constant_value() if not m.poly.is_zero() else 0 for m in moves]
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
        import math

        c0 = abs(c)
        while True:
            g = math.gcd(c0, abs(n_value))
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


_RANDOM_SPEC = re.compile(
    r"random\(seed=(-?\d+),degLE=(\d+),absLE=(\d+)\)$|random:(-?\d+)(?::(\d+))?(?::(\d+))?$"
)


def delayer_from_spec(spec, ring, x):
    spec = spec.strip()
    m = _RANDOM_SPEC.match(spec)
    if m:
        if m.group(1) is not None:
            seed, deg, bound = int(m.group(1)), int(m.group(2)), int(m.group(3))
        else:
            seed = int(m.group(4))
            deg = int(m.group(5)) if m.group(5) else 0
            bound = int(m.group(6)) if m.group(6) else 1
        return RandomDelayer(ring, seed, deg, bound)
    if spec == "refuterZ":
        value = x.poly.constant_value() if not x.poly.is_zero() else 0
        return DiagonalRefuterZ(ring, value)
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
    raise UnsupportedRing(f"unknown delayer spec {spec!r}")


def _factory_from_spec(spec, ring):
    spec = spec.strip()
    if spec == "auto":
        return ring_strategy_factory(ring)
    if spec in _LEAVES:
        return _Factory(ring, leaf=spec)
    if spec.startswith("polyLift(") and spec.endswith(")"):
        inner = _factory_from_spec(spec[len("polyLift(") : -1], coefficient_ring(ring))
        return _Factory(ring, inner=inner)
    raise UnsupportedRing(f"unknown prover spec {spec!r}")


def prover_from_spec(spec, ring, x, xprime, budget):
    factory = _factory_from_spec(spec, ring)
    return factory(x)
