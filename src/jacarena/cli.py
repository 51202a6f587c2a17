"""Command-line front end: play matches, refute, sweep budgets, verify transcripts.

Exit codes: 0 for a Prover win (or a valid transcript / successful sweep),
1 for a Delayer win (or an invalid transcript / failed refutation),
2 for configuration errors, 3 for engine errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import os
import sys

from .errors import EngineError, MalformedTranscript, NotFinite, RingSyntaxError, UnknownAgentSpec
from .game import Transcript, referee_play, verify_transcript
from .oracle import enumerate_finite, minimal_alpha, minimal_alpha_ring
from .parsing import parse_ring
from .rings import is_nil
from .strategies import (
    DiagonalRefuterPoly,
    DiagonalRefuterZ,
    delayer_from_spec,
    prover_from_spec,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jacarena",
        description="Budgeted Prover-Delayer games certifying radical membership on exact rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    play = sub.add_parser("play", help="run one match and write its transcript")
    play.add_argument("--ring", required=True)
    play.add_argument("--x", required=True)
    play.add_argument("--xprime", default=None)
    play.add_argument("--budget", type=int, required=True)
    play.add_argument("--prover", default="auto")
    play.add_argument("--delayer", default="random:0")
    play.add_argument("--out", default=None, help="transcript JSON path (default stdout)")

    repl = sub.add_parser("repl", help="interactive match with a human Delayer")
    repl.add_argument("--ring", required=True)
    repl.add_argument("--x", required=True)
    repl.add_argument("--xprime", default=None)
    repl.add_argument("--budget", type=int, required=True)
    repl.add_argument("--prover", default="auto")
    repl.add_argument("--out", default=None)

    refute = sub.add_parser("refute", help="run a diagonal refuter over a move family")
    refute.add_argument("kind", help="z (the refuter on ZZ) or poly (on a polynomial ring)")
    refute.add_argument("--N", default="2,3,10", help="integers for kind z")
    refute.add_argument("--ring", default="ZZ[X]", help="polynomial ring for kind poly")
    refute.add_argument("--max-moves", type=int, default=2)
    refute.add_argument("--bound", type=int, default=3, help="coefficient bound")
    refute.add_argument("--deg", type=int, default=1, help="move degree bound for kind poly")

    alpha = sub.add_parser("alpha", help="exact minimal budgets on finite rings, as CSV")
    alpha.add_argument("rings", nargs="+")
    alpha.add_argument("--per-element", action="store_true")

    verify = sub.add_parser("verify", help="re-check a transcript file")
    verify.add_argument("path")
    verify.add_argument("--replay", action="store_true",
                        help="also re-run the recorded agents and compare")
    return parser


def _load_match(args):
    ring = parse_ring(args.ring)
    x = ring.element(args.x)
    xprime = ring.element(args.xprime) if args.xprime is not None else x
    if args.budget < 0:
        raise RingSyntaxError("budget must be nonnegative")
    return ring, x, xprime


def _check_out(path):
    """Refuse an --out path that cannot be written before any play; the
    probe leaves the file system as it found it."""
    if path:
        new = not os.path.lexists(path)
        open(path, "a").close()
        if new:
            os.remove(path)


def _write_out(path, transcript):
    """Serialize the transcript, then write it to the --out path or stdout:
    a transcript that cannot be serialized leaves an old file as it was."""
    text = transcript.to_json(indent=2) + "\n"
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)


def cmd_play(args):
    ring, x, xprime = _load_match(args)
    prover = prover_from_spec(args.prover, ring, x, xprime, args.budget)
    delayer = delayer_from_spec(args.delayer, ring, x)
    _check_out(args.out)
    transcript = referee_play(ring, x, xprime, args.budget, prover, delayer)
    if transcript.diagnosis:
        print(f"note: {transcript.diagnosis}", file=sys.stderr)
    _write_out(args.out, transcript)
    return 0 if transcript.winner == "prover" else 1


_REPL_HELP = """\
Enter one expression per requested reply, in the ring's variables
(integers, + - * / ^ and parentheses; '/' divides by an invertible constant).
Special inputs:
  ?        show this help
  resign   concede the rest of the match (all further replies are 0)
An end-of-file also resigns."""


class _HumanDelayer:
    """Reads replies from stdin; EOF or 'resign' zero-fills the rest."""

    name = "human"

    def __init__(self, ring):
        self.ring = ring
        self.stream = sys.stdin
        self.resigned = False

    def _read_expr(self, prompt):
        while True:
            print(prompt, end="", flush=True)
            line = self.stream.readline()
            if not line:
                print("(end of input: resigning)")
                self.resigned = True
                return self.ring.zero()
            line = line.strip()
            if line == "?":
                print(_REPL_HELP)
                continue
            if line == "resign":
                self.resigned = True
                return self.ring.zero()
            if not line:
                continue
            try:
                return self.ring.element(line)
            except (EngineError, ValueError) as exc:
                print(f"  cannot parse: {exc}")

    def reply(self, pos, moves):
        out = []
        for i, move in enumerate(moves):
            if self.resigned:
                out.append(self.ring.zero())
                continue
            out.append(self._read_expr(f"  b[{i + 1}] replying to a[{i + 1}] = {move.to_text()}: "))
        return out


def cmd_repl(args):
    ring, x, xprime = _load_match(args)
    prover = prover_from_spec(args.prover, ring, x, xprime, args.budget)
    human = _HumanDelayer(ring)

    class _Announcer:
        name = prover.name

        def propose(self, pos):
            moves = prover_state[0].propose(pos)
            held = ", ".join(
                c.to_text() for c in pos.constraints
            )
            print(f"\nbudget {pos.tau}; constraints so far: [{held}]")
            if moves:
                print(f"Prover declares: {', '.join(m.to_text() for m in moves)}")
            else:
                print("Prover declares no elements this round.")
            return moves

        def receive(self, pos, moves, replies):
            declared, cont = prover_state[0].receive(pos, moves, replies)
            prover_state[0] = cont
            print(f"Prover declares next budget {declared}.")
            return declared, self

    prover_state = [prover]
    _check_out(args.out)
    print(f"Match on {ring.to_text()}: x = {x.to_text()}, x' = {xprime.to_text()}, budget {args.budget}")
    print("You are Delayer. '?' lists the input forms.")
    transcript = referee_play(ring, x, xprime, args.budget, _Announcer(), human)
    transcript.prover_name = prover.name
    transcript.delayer_name = "human"
    if args.out:
        _write_out(args.out, transcript)
    print(f"\nWinner: {transcript.winner}")
    if transcript.certificate is not None:
        cert = transcript.certificate
        print(f"Certificate: ({xprime.to_text()})^{cert.exponent} = "
              + " + ".join(
                  f"({c.to_text()})*({g.to_text()})"
                  for c, g in zip(cert.cofactors, cert.generators)
                  if not c.is_zero()
              ))
    if args.out:
        print(f"Transcript written to {args.out}")
    return 0 if transcript.winner == "prover" else 1


def _int_range(bound):
    return range(-bound, bound + 1)


def cmd_refute(args):
    flags = {"--max-moves": args.max_moves, "--bound": args.bound, "--deg": args.deg}
    for flag, value in flags.items():
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    checked = 0
    if args.kind == "z":
        ring = parse_ring("ZZ")
        targets = [int(s) for s in args.N.split(",")]
        for n_value in targets:
            if abs(n_value) <= 1:
                # 0 is nilpotent and +-1 are units: there is nothing to refute
                raise ValueError(f"--N must not be 0, 1 or -1, got {n_value}")
        for n_value in targets:
            for n_moves in range(args.max_moves + 1):
                for moves in itertools.product(_int_range(args.bound), repeat=n_moves):
                    c = DiagonalRefuterZ.forced_constant(n_value, list(moves))
                    if not DiagonalRefuterZ.check_not_nil(c, n_value):
                        print(f"FAILED at N={n_value}, moves={list(moves)}")
                        return 1
                    checked += 1
        print(f"refuted all {checked} one-round move lists for N in {targets}")
        return 0

    if args.kind != "poly":
        raise UnknownAgentSpec(f"unknown refuter kind {args.kind!r}")
    ring = parse_ring(args.ring)
    # A[X] has no relation in X, and over the zero ring X is nilpotent
    if not ring.vars or any(r.degree_in(ring.vars[-1]) for r in ring.relations) or ring.is_trivial():
        raise ValueError(f"refute poly needs A[X] over a nontrivial A, got {ring.to_text()}")
    x = ring.element(ring.vars[-1])
    moves_pool = []
    for coeffs in itertools.product(_int_range(args.bound), repeat=args.deg + 1):
        poly = ring.element(0)
        xe = ring.element(ring.vars[-1])
        for j, cval in enumerate(coeffs):
            poly = poly + ring.element(cval) * xe ** j
        moves_pool.append(poly)
    seen = {m.poly: m for m in moves_pool}
    moves_pool = list(seen.values())
    for n_moves in range(args.max_moves + 1):
        for combo in itertools.product(range(len(moves_pool)), repeat=n_moves):
            moves = [moves_pool[i] for i in combo]
            refuter = DiagonalRefuterPoly(ring)
            h = refuter.forced_constraint(moves)
            if is_nil(x, [h]):
                print(f"FAILED on {args.ring} at moves={[m.to_text() for m in moves]}")
                return 1
            checked += 1
    print(f"refuted all {checked} one-round move lists on {args.ring}")
    return 0


def cmd_alpha(args):
    try:
        tables = [(text, enumerate_finite(parse_ring(text))) for text in args.rings]
    except NotFinite as exc:
        raise ValueError(f"alpha needs a finite ring: {exc}") from None
    writer = csv.writer(sys.stdout)
    writer.writerow(["ring", "x", "xPrime", "minimalAlpha"])
    for text, table in tables:
        if args.per_element:
            for x in table.elements:
                alpha = minimal_alpha(table, x, x)
                writer.writerow([text, x.to_text(), x.to_text(),
                                 alpha if alpha is not None else "none"])
        else:
            writer.writerow([text, "*", "*", minimal_alpha_ring(table)])
    return 0


def cmd_verify(args):
    with open(args.path) as fh:
        text = fh.read()
    try:
        transcript = Transcript.from_json(text)
    except MalformedTranscript as exc:
        print(f"invalid: {exc}")
        return 1
    result = verify_transcript(transcript, replay=args.replay)
    if result:
        print("valid")
        return 0
    for problem in result.problems:
        print(f"invalid: {problem}")
    return 1


# argparse reads "--opt=--" as the end of options and gives the option []
_TEXT_OPTIONS = ("ring", "x", "xprime", "prover", "delayer", "N", "out")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "play": cmd_play,
        "repl": cmd_repl,
        "refute": cmd_refute,
        "alpha": cmd_alpha,
        "verify": cmd_verify,
    }
    try:
        for name in _TEXT_OPTIONS:
            value = getattr(args, name, None)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"--{name} must be a string, not {type(value).__name__}")
        return handlers[args.command](args)
    except (RingSyntaxError, UnknownAgentSpec, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
