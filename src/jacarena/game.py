"""Referee, transcripts, and certificate extraction for the budgeted radical game.

A match on (ring, x, x') with budget b runs rounds while the budget is
positive: Prover declares elements a_1..a_n, Delayer answers b_1..b_n, the
constraints 1 - b_i(1 - a_i x) accumulate, and Prover declares a strictly
smaller budget.  At budget zero Prover wins exactly when some power of x'
lies in the ideal of the relations plus the accumulated constraints, which
the referee decides by the Rabinowitsch test and records as a checkable
certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import Polynomial
from .errors import EngineError, IllegalMove, MalformedTranscript, NotInJacobsonRadical
from .ideals import NilCertificate
from .parsing import parse_polynomial, parse_ring
from .rings import nil_member


@dataclass(frozen=True)
class GamePosition:
    """Fixed ambient ring, remaining budget, accumulated constraint elements."""

    ring: object
    tau: int
    constraints: tuple


@dataclass
class Round:
    moves: list
    replies: list
    declared: int


@dataclass
class Transcript:
    ring_text: str
    x_text: str
    xprime_text: str
    budget: int
    rounds: list
    winner: str
    certificate: object
    prover_name: str = "?"
    delayer_name: str = "?"
    diagnosis: str = None

    def to_json_obj(self):
        cert = None
        if self.certificate is not None:
            cert = {
                "e": self.certificate.exponent,
                "cofactors": {
                    str(i): c.to_text()
                    for i, c in enumerate(self.certificate.cofactors)
                    if not c.is_zero()
                },
            }
        return {
            "ring": self.ring_text,
            "x": self.x_text,
            "xPrime": self.xprime_text,
            "budget": self.budget,
            "rounds": [
                {
                    "moves": [m.to_text() for m in r.moves],
                    "replies": [b.to_text() for b in r.replies],
                    "nextBudget": r.declared,
                }
                for r in self.rounds
            ],
            "winner": self.winner,
            "certificate": cert,
            "prover": self.prover_name,
            "delayer": self.delayer_name,
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_json_obj(), indent=indent)

    @classmethod
    def from_json(cls, text):
        """Parse transcript JSON; MalformedTranscript names the first bad field."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedTranscript(f"not JSON: {exc}") from None
        ring_text = _field(obj, "ring", str)
        x_text = _field(obj, "x", str)
        xprime_text = _field(obj, "xPrime", str)
        budget = _field(obj, "budget", int)
        raw_rounds = _field(obj, "rounds", list)
        winner = _field(obj, "winner", str)
        ring = parse_ring(ring_text)
        x = ring.element(x_text)

        rounds = []
        for i, r in enumerate(raw_rounds):
            where = f"round {i}"
            rounds.append(Round(
                [ring.element(m) for m in _strings(r, "moves", where)],
                [ring.element(b) for b in _strings(r, "replies", where)],
                _field(r, "nextBudget", int, where),
            ))
        cert = None
        if obj.get("certificate") is not None:
            raw = obj["certificate"]
            e = _field(raw, "e", int, "certificate")
            if e < 0:
                raise MalformedTranscript(f"certificate exponent {e} is negative")
            gens = list(ring.relations)
            for r in rounds:
                for a, b in zip(r.moves, r.replies):
                    gens.append((ring.one() - b * (ring.one() - a * x)).poly)
            xprime = ring.element(xprime_text)
            cofactors = [Polynomial.zero(ring.base, ring.vars) for _ in gens]
            for key, val in _field(raw, "cofactors", dict, "certificate").items():
                if not (key.isascii() and key.isdigit() and int(key) < len(gens)):
                    raise MalformedTranscript(
                        f"certificate cofactor key {key!r} is not a generator index"
                        f" in [0, {len(gens)})"
                    )
                if not isinstance(val, str):
                    raise MalformedTranscript(f"certificate cofactor {key!r} is not a string")
                cofactors[int(key)] = parse_polynomial(val, ring.base, ring.vars)
            cert = NilCertificate(xprime.poly, e, tuple(gens), tuple(cofactors))
        return cls(
            ring_text,
            x_text,
            xprime_text,
            budget,
            rounds,
            winner,
            cert,
            _field(obj, "prover", str) if "prover" in obj else "?",
            _field(obj, "delayer", str) if "delayer" in obj else "?",
        )


_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _field(obj, key, kind, where="transcript"):
    """obj[key], checked to be present and of JSON type kind."""
    if not isinstance(obj, dict):
        raise MalformedTranscript(f"{where} is not an object")
    if key not in obj:
        raise MalformedTranscript(f"{where} has no {key!r} field")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise MalformedTranscript(f"{where} field {key!r} is not {_TYPE_NAMES[kind]}")
    return value


def _strings(obj, key, where):
    values = _field(obj, key, list, where)
    if not all(isinstance(v, str) for v in values):
        raise MalformedTranscript(f"{where} field {key!r} is not a list of strings")
    return values


def _constraint(ring, x, a, b):
    return ring.one() - b * (ring.one() - a * x)


def referee_play(ring, x, xprime, budget, prover, delayer):
    """Run one match to completion and return a self-verifying transcript.

    Raises IllegalMove when an agent breaks protocol (reply length mismatch,
    or a declared budget not strictly below the current one).  A Prover
    strategy whose internal hypothesis fails at runtime does not abort the
    match: it stops moving, the budget drops to zero, and the leaf check
    decides the winner; the failure is kept on the transcript's diagnosis.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    x = ring.element(x)
    xprime = ring.element(xprime)
    prover_name = getattr(prover, "name", prover.__class__.__name__)
    delayer_name = getattr(delayer, "name", delayer.__class__.__name__)
    pos = GamePosition(ring, budget, ())
    rounds = []
    diagnosis = None
    while pos.tau > 0:
        try:
            moves = list(prover.propose(pos))
        except IllegalMove:
            raise
        except EngineError as exc:
            diagnosis = f"prover strategy failed while proposing: {exc}"
            moves = []
        replies = list(delayer.reply(pos, moves))
        if len(replies) != len(moves):
            raise IllegalMove(
                "delayer", f"{len(moves)} moves got {len(replies)} replies"
            )
        if diagnosis is None:
            try:
                declared, prover = prover.receive(pos, moves, replies)
            except IllegalMove:
                raise
            except EngineError as exc:
                diagnosis = f"prover strategy failed on the replies: {exc}"
                declared = 0
        else:
            declared = 0
        if not (0 <= declared < pos.tau):
            raise IllegalMove(
                "prover", f"declared budget {declared} at position budget {pos.tau}"
            )
        new_constraints = tuple(_constraint(ring, x, a, b) for a, b in zip(moves, replies))
        rounds.append(Round(moves, replies, declared))
        pos = GamePosition(ring, declared, pos.constraints + new_constraints)

    cert = nil_member(xprime, list(pos.constraints))
    winner = "prover" if cert is not None else "delayer"
    return Transcript(
        ring.to_text(),
        x.to_text(),
        xprime.to_text(),
        budget,
        rounds,
        winner,
        cert,
        prover_name,
        delayer_name,
        diagnosis,
    )


class VerificationResult:
    """Boolean-valued verdict carrying a diagnosis list."""

    def __init__(self, problems):
        self.problems = list(problems)

    def __bool__(self):
        return not self.problems

    def __repr__(self):
        return "valid" if self.problems == [] else f"invalid: {'; '.join(self.problems)}"


def verify_transcript(transcript, replay=False):
    """Independently re-check a transcript: rules, outcome, certificate.

    With replay=True the named prover and delayer are reconstructed and the
    match re-run; any divergence from the recorded rounds is reported.  This
    only works for the deterministic built-in agent specs.
    """
    problems = []
    try:
        ring = parse_ring(transcript.ring_text)
        x = ring.element(transcript.x_text)
        xprime = ring.element(transcript.xprime_text)
    except EngineError as exc:
        return VerificationResult([f"unparseable header: {exc}"])

    tau = transcript.budget
    if tau < 0:
        problems.append("negative starting budget")
    constraints = []
    for i, rnd in enumerate(transcript.rounds):
        if tau <= 0:
            problems.append(f"round {i} played at budget {tau}")
            break
        if len(rnd.moves) != len(rnd.replies):
            problems.append(f"round {i}: reply count differs from move count")
            break
        if not (0 <= rnd.declared < tau):
            problems.append(f"round {i}: budget did not decrease ({tau} -> {rnd.declared})")
            break
        for a, b in zip(rnd.moves, rnd.replies):
            constraints.append(_constraint(ring, x, ring.element(a), ring.element(b)))
        tau = rnd.declared
    else:
        if transcript.rounds and tau != 0:
            problems.append(f"match stopped at budget {tau}, not 0")
        if not transcript.rounds and transcript.budget != 0:
            problems.append("no rounds played despite positive budget")

    if not problems:
        recomputed = nil_member(xprime, constraints)
        expected_winner = "prover" if recomputed is not None else "delayer"
        if transcript.winner != expected_winner:
            problems.append(
                f"recorded winner {transcript.winner!r}, recomputation says {expected_winner!r}"
            )
        cert = transcript.certificate
        if transcript.winner == "prover":
            if cert is None:
                problems.append("prover win recorded without certificate")
            else:
                gens = list(ring.relations) + [c.poly for c in constraints]
                if list(cert.generators) != gens:
                    problems.append("certificate generators differ from relations + constraints")
                elif cert.element != xprime.poly:
                    problems.append("certificate is not about xPrime")
                elif not cert.verify():
                    problems.append("certificate identity fails")
        elif cert is not None:
            problems.append("delayer win recorded with a certificate")

    if replay and not problems:
        from .strategies import delayer_from_spec, prover_from_spec

        try:
            prover = prover_from_spec(transcript.prover_name, ring, x, xprime, transcript.budget)
            delayer = delayer_from_spec(transcript.delayer_name, ring, x)
        except EngineError as exc:
            problems.append(f"cannot reconstruct agents: {exc}")
        else:
            fresh = referee_play(ring, x, xprime, transcript.budget, prover, delayer)
            if fresh.to_json_obj() != transcript.to_json_obj():
                problems.append("replay with the recorded agents diverges from the transcript")

    return VerificationResult(problems)


def extract_nil_from_jac(strategy, base_constraints):
    """Run a winning strategy against the radical-witness Delayer and rewrite
    the final certificate over the initial constraint set.

    Requires x in Jac of the base set along every Prover move; the witness
    Delayer raises NotInJacobsonRadical at the first move where 1 is not in
    the extended ideal.  Each game constraint then lies in the ideal of the
    base set, so the leaf certificate rewrites exactly onto relations plus
    base constraints.
    """
    from .strategies import JacWitnessDelayer

    ring = strategy.ring
    x = strategy.x
    xprime = strategy.xprime
    base_constraints = [ring.element(u) for u in base_constraints]
    delayer = JacWitnessDelayer(ring, x, base_constraints)
    transcript = referee_play(ring, x, xprime, strategy.budget, strategy, delayer)
    if transcript.winner != "prover":
        raise EngineError("strategy failed to win against the witness delayer")

    cert = transcript.certificate
    n_rel = len(ring.relations)
    base_polys = [u.poly for u in base_constraints]
    gens_out = list(ring.relations) + base_polys
    out = [Polynomial.zero(ring.base, ring.vars) for _ in gens_out]
    for j in range(n_rel):
        out[j] = out[j] + cert.cofactors[j]
    for cof, witness in zip(cert.cofactors[n_rel:], delayer.witnesses):
        for j, w in enumerate(witness):
            if not w.is_zero():
                out[j] = out[j] + cof * w
    rewritten = NilCertificate(
        cert.element, cert.exponent, tuple(gens_out), tuple(out)
    )
    return rewritten.require_valid()
