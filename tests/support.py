"""Test-only drivers and reference oracles: a scripted Delayer,
nilpotency-certificate extraction from a winning strategy (J_alpha => nil),
radical and Jacobson membership by enumeration of a finite ring, a
power-by-power nilpotency search, and a log of untracked Groebner runs."""

from jacarena.algebra import Polynomial
from jacarena.errors import EngineError
from jacarena.game import referee_play
from jacarena.ideals import NilCertificate
from jacarena.oracle import _nil_from_ideal
from jacarena import rings
from jacarena.rings import member_in
from jacarena.strategies import DelayerStrategy, JacWitnessDelayer


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


def extract_nil_from_jac(strategy, base_constraints):
    """Run a winning strategy on the diagonal match (ring, x, x) against the
    radical-witness Delayer and rewrite the final certificate over the
    initial constraint set.

    Requires x in Jac of the base set along every Prover move; the witness
    Delayer raises NotInJacobsonRadical at the first move where 1 is not in
    the extended ideal.  Each game constraint then lies in the ideal of the
    base set, with the cofactors ``member_in`` finds for it, so the leaf
    certificate rewrites exactly onto relations plus base constraints.
    """
    ring = strategy.ring
    x = strategy.x
    base_constraints = [ring.element(u) for u in base_constraints]
    delayer = JacWitnessDelayer(ring, x, base_constraints)
    transcript = referee_play(ring, x, x, strategy.budget, strategy, delayer)
    if transcript.winner != "prover":
        raise EngineError("strategy failed to win against the witness delayer")

    one, witnesses = ring.one(), []
    for rnd in transcript.rounds:
        for a, b in zip(rnd.moves, rnd.replies):
            witness = member_in(ring, one - b * (one - a * x), base_constraints)
            if witness is None:
                raise AssertionError("witness constraint escaped the base ideal")
            witnesses.append(witness)

    cert = transcript.certificate
    n_rel = len(ring.relations)
    gens_out = list(ring.relations) + [u.poly for u in base_constraints]
    out = [Polynomial.zero(ring.base, ring.vars) for _ in gens_out]
    for j in range(n_rel):
        out[j] = out[j] + cert.cofactors[j]
    for cof, witness in zip(cert.cofactors[n_rel:], witnesses):
        for j, w in enumerate(witness):
            if not w.is_zero():
                out[j] = out[j] + cof * w
    rewritten = NilCertificate(
        cert.element, cert.exponent, tuple(gens_out), tuple(out)
    )
    return rewritten.require_valid()


def brute_nil(table, x, constraints=()):
    """Exhaustive check: some power of x lies in the ideal of the constraints."""
    ideal = table.ideal_closure([table.idx(u) for u in constraints])
    return _nil_from_ideal(table, table.idx(x), ideal)


def brute_jac(table, x, constraints=()):
    """Full quantifier: for every a, 1 lies in the ideal of constraints + (1 - a*x)."""
    one = table.idx(table.ring.one())
    xi = table.idx(x)
    base = [table.idx(u) for u in constraints]
    for a in range(len(table.elements)):
        probe = table.idx(table.ring.one() - table.elements[a] * table.elements[xi])
        if one not in table.ideal_closure(base + [probe]):
            return False
    return True


def nil_exponent_search(x, constraints=(), cap=12):
    """Smallest e <= cap with x^e in the ideal, with its certificate, else None."""
    ring = x.ring
    gens = list(ring.relations) + [ring._representative(c) for c in constraints]
    power = Polynomial.constant(ring.base, 1, ring.vars)
    for e in range(cap + 1):
        cofs = member_in(ring, power, constraints)
        if cofs is not None:
            return e, NilCertificate(x.poly, e, tuple(gens), tuple(cofs)).require_valid()
        power = power * x.poly
    return None


def untracked_groebner_runs(monkeypatch):
    """A list that gets the generators of every untracked Groebner basis
    the rings module completes (a presentation's basis or a nilpotency
    decision) until monkeypatch is undone."""
    runs = []
    groebner = rings.groebner

    def logging(gens, order, ring, track=True):
        if not track:
            runs.append(gens)
        return groebner(gens, order, ring, track)

    monkeypatch.setattr(rings, "groebner", logging)
    return runs
