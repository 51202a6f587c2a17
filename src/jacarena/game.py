"""Referee and transcripts for the budgeted radical game.

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
import sys
from dataclasses import dataclass

from .algebra import Polynomial
from .errors import DegreeOverflow, EngineError, IllegalMove, MalformedTranscript
from .ideals import NilCertificate
from .parsing import _check_power, parse_polynomial, parse_ring
from .rings import constraint, is_nil, nil_member
from .strategies import delayer_from_spec, prover_from_spec


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
    """A played or parsed match.

    ``certificate`` is the leaf NilCertificate of a Prover win, else None.
    A certificate read from JSON carries only what the JSON holds: its
    element is x', its exponent e, its cofactors one per generator (zero
    where the JSON has no key), and its generators are None.  They are the
    relations and the round constraints, which ``verify_transcript``
    expands itself and checks the cofactors against.
    """

    ring: object
    x: object
    xprime: object
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
            "ring": self.ring.to_text(),
            "x": self.x.to_text(),
            "xPrime": self.xprime.to_text(),
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
        try:
            return json.dumps(self.to_json_obj(), indent=indent)
        except ValueError:  # str() of an int past Python's digit limit
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"a transcript coefficient passes {limit} digits and cannot be written") from None

    @classmethod
    def from_json(cls, text):
        """Parse transcript JSON; MalformedTranscript names the first bad field."""
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also a number or a nesting past Python's limits
            raise MalformedTranscript(f"not JSON: {exc}") from None
        ring = _parsed(parse_ring, _field(obj, "ring", str), "field 'ring'")
        x = _parsed(ring.element, _field(obj, "x", str), "field 'x'")
        xprime = _parsed(ring.element, _field(obj, "xPrime", str), "field 'xPrime'")
        budget = _field(obj, "budget", int)
        raw_rounds = _field(obj, "rounds", list)
        winner = _field(obj, "winner", str)

        rounds = []
        for i, r in enumerate(raw_rounds):
            where = f"round {i}"
            rounds.append(Round(
                [_parsed(ring.element, m, f"{where} move {j}")
                 for j, m in enumerate(_strings(r, "moves", where))],
                [_parsed(ring.element, b, f"{where} reply {j}")
                 for j, b in enumerate(_strings(r, "replies", where))],
                _field(r, "nextBudget", int, where),
            ))
        cert = None
        if obj.get("certificate") is not None:
            raw = obj["certificate"]
            e = _field(raw, "e", int, "certificate")
            if e < 0:
                raise MalformedTranscript(f"certificate exponent {e} is negative")
            # x'^e is refused as it would be refused as text, before verify expands it
            _parsed(lambda e: _check_power(xprime.poly, e), e, "certificate power x'^e")
            # the generators, relations then round constraints, are expanded
            # by verify_transcript; here only their count bounds the keys
            n_gens = len(ring.relations) + sum(min(len(r.moves), len(r.replies)) for r in rounds)
            cofactors = [Polynomial.zero(ring.base, ring.vars)] * n_gens
            for key, val in _field(raw, "cofactors", dict, "certificate").items():
                i = int(key) if key.isascii() and key.isdigit() and len(key) <= len(str(n_gens)) else -1
                if not (0 <= i < n_gens and key == str(i)):
                    raise MalformedTranscript(
                        f"certificate cofactor key {key!r} is not a generator index"
                        f" in [0, {n_gens})"
                    )
                if not isinstance(val, str):
                    raise MalformedTranscript(f"certificate cofactor {key!r} is not a string")
                cofactors[i] = _parsed(
                    lambda t: parse_polynomial(t, ring.base, ring.vars),
                    val, f"certificate cofactor {key!r}",
                )
            cert = NilCertificate(xprime.poly, e, None, tuple(cofactors))
        return cls(
            ring,
            x,
            xprime,
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


def _parsed(parse, text, where):
    """parse(text), with an engine error reported as malformed at ``where``."""
    try:
        return parse(text)
    except EngineError as exc:
        raise MalformedTranscript(f"{where}: {exc}") from None


def _strings(obj, key, where):
    values = _field(obj, key, list, where)
    if not all(isinstance(v, str) for v in values):
        raise MalformedTranscript(f"{where} field {key!r} is not a list of strings")
    return values


def referee_play(ring, x, xprime, budget, prover, delayer):
    """Run one match to completion and return a self-verifying transcript.

    Raises IllegalMove when an agent breaks protocol (reply length mismatch,
    or a declared budget not strictly below the current one).  A Prover
    strategy whose internal hypothesis fails at runtime does not abort the
    match: it stops moving, the budget drops to zero, and the leaf check
    decides the winner; the failure is kept on the transcript's diagnosis.
    A Delayer win with no such failure is diagnosed by the first round in
    which the Prover proposed no move at a positive budget, if there is one.
    At budget 1 the only legal declaration is 0, so the referee records 0
    and never calls the Prover's ``receive`` there.
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
    silent = None
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
        if not moves and silent is None:
            silent = f"prover proposed no move at budget {pos.tau} in round {len(rounds)}"
        declared = 0
        if diagnosis is None and pos.tau > 1:
            try:
                declared, prover = prover.receive(pos, moves, replies)
            except IllegalMove:
                raise
            except EngineError as exc:
                diagnosis = f"prover strategy failed on the replies: {exc}"
        if not (0 <= declared < pos.tau):
            raise IllegalMove(
                "prover", f"declared budget {declared} at position budget {pos.tau}"
            )
        new_constraints = tuple(constraint(x, a, b) for a, b in zip(moves, replies))
        rounds.append(Round(moves, replies, declared))
        pos = GamePosition(ring, declared, pos.constraints + new_constraints)

    cert = nil_member(xprime, list(pos.constraints))
    winner = "prover" if cert is not None else "delayer"
    if winner == "delayer" and diagnosis is None:
        diagnosis = silent
    return Transcript(
        ring,
        x,
        xprime,
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

    A Prover claim is settled by its certificate alone: the identity
    x'^e = sum c_i g_i over the relations and the game constraints, checked
    by expansion in the ambient polynomial ring, proves that a power of x'
    lies in their ideal, which is all a recomputation could establish.  A
    Delayer claim carries no certificate, so the Rabinowitsch test is rerun
    (``rings.is_nil``, one basis without cofactors and no certificate) and
    must find no power of x' in that ideal.

    With replay=True the named prover and delayer are reconstructed and the
    match re-run; any divergence from the recorded rounds is reported.  This
    only works for the deterministic built-in agent specs.
    """
    ring, x, xprime = transcript.ring, transcript.x, transcript.xprime
    tau = transcript.budget
    if tau < 0:
        return VerificationResult(["negative starting budget"])
    problems = []
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
        try:
            constraints.extend(constraint(x, a, b) for a, b in zip(rnd.moves, rnd.replies))
        except DegreeOverflow as exc:
            problems.append(f"round {i}: {exc}")
            break
        tau = rnd.declared
    else:
        if transcript.rounds and tau != 0:
            problems.append(f"match stopped at budget {tau}, not 0")
        if not transcript.rounds and transcript.budget != 0:
            problems.append("no rounds played despite positive budget")

    if not problems:
        cert = transcript.certificate
        if transcript.winner == "delayer":
            if is_nil(xprime, constraints):
                problems.append("recorded winner 'delayer', recomputation says 'prover'")
            if cert is not None:
                problems.append("delayer win recorded with a certificate")
        elif transcript.winner != "prover":
            problems.append(f"unknown winner {transcript.winner!r}")
        elif cert is None:
            problems.append("prover win recorded without certificate")
        elif not NilCertificate(
            xprime.poly, cert.exponent, ring.relations + tuple(c.poly for c in constraints), cert.cofactors
        ).verify():
            problems.append("certificate identity fails")

    if replay and not problems:
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
