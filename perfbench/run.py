#!/usr/bin/env python3
"""Match benchmark: play and verify rates of jacarena on seeded match lists.

    python3 perfbench/run.py --workload {dim1,lift,tower} --seed N \\
        --seconds S --trace {0,1} [--compare OTHER.hashes.json]

One process, one thread, a closed loop with a single client: each match
starts when the previous one ends.  The run plays whole passes over the
workload's fixed, seeded match list for as long as another whole pass fits
into S seconds (at least one pass).  Each match is played through the
public API (agent construction from specs, then ``referee_play``) and then
verified (``to_json``, ``from_json``, ``verify_transcript``); the two are
timed apart.  Outcomes are checked outside the timed sections, against the
paper's budgets and an arithmetic that shares no code with jacarena.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run plays one untraced and
one traced pass and prints the per-layer metrics instead.  Every run writes
a sha256 per transcript to ``perfbench/out/<workload>-seed<N>.hashes.json``;
``--compare`` lists the matches whose transcripts differ from another such
file and then exits 1.  The exit code is nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7

sys.path.insert(0, HERE)

import independent  # noqa: E402
import tracing  # noqa: E402
from matchlist import WORKLOADS, match_id, match_list  # noqa: E402


class Engine:
    """The jacarena modules of this checkout, imported afresh."""

    NAMES = ("algebra", "game", "ideals", "parsing", "rings", "strategies")

    def __init__(self):
        for name in [n for n in sys.modules if n == "jacarena" or n.startswith("jacarena.")]:
            del sys.modules[name]
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        package = importlib.import_module("jacarena")
        if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
            raise ImportError(f"jacarena was imported from {package.__file__}, not {SRC}")
        self.modules = {n: importlib.import_module(f"jacarena.{n}") for n in self.NAMES}


def prepare(engine, match):
    """Parse one match's texts into engine objects (part of set-up)."""
    ring = engine.modules["parsing"].parse_ring(match.ring)
    x = ring.element(match.x)
    moves = None if match.moves is None else [ring.element(m) for m in match.moves]
    return ring, x, moves


def set_up(workload, seed):
    """Import jacarena, generate the match list and parse it."""
    engine = Engine()
    matches = match_list(workload, seed)
    return engine, matches, [prepare(engine, m) for m in matches]


def play(engine, match, parsed, tracer=None):
    strategies = engine.modules["strategies"]
    ring, x, moves = parsed
    if moves is None:
        prover = strategies.prover_from_spec(match.prover, ring, x, x, match.budget)
    else:
        prover = strategies.FixedMovesProver(ring, x, [moves])
    delayer = strategies.delayer_from_spec(match.delayer, ring, x)
    if tracer is not None:
        prover = tracing.ProverProxy(prover, tracer)
        delayer = tracing.DelayerProxy(delayer, tracer)
    return engine.modules["game"].referee_play(ring, x, x, match.budget, prover, delayer)


class Run:
    """Timings and first-pass transcripts of the passes played so far."""

    def __init__(self, matches, parsed, transcript_path):
        self.matches = matches
        self.parsed = parsed
        self.play_s = [[] for _ in matches]
        self.verify_s = [[] for _ in matches]
        self.hashes = [None] * len(matches)
        self.winners = [None] * len(matches)
        self.problems = []
        self.passes = 0
        self.transcript_path = transcript_path

    def play_pass(self, engine, tracer=None):
        game = engine.modules["game"]
        clock = time.perf_counter
        first = self.passes == 0
        with open(self.transcript_path, "w") if first else contextlib.nullcontext() as sink:
            for i, (match, parsed) in enumerate(zip(self.matches, self.parsed)):
                t0 = clock()
                transcript = play(engine, match, parsed, tracer)
                t1 = clock()
                text = transcript.to_json()
                verdict = game.verify_transcript(game.Transcript.from_json(text))
                t2 = clock()
                self.play_s[i].append(t1 - t0)
                self.verify_s[i].append(t2 - t1)
                digest = hashlib.sha256(text.encode()).hexdigest()
                if not verdict:
                    self.problems.append(f"{match_id(i, match)}: verify_transcript says {verdict!r}")
                if first:
                    self.hashes[i] = digest
                    self.winners[i] = transcript.winner
                    sink.write(text + "\n")
                elif digest != self.hashes[i]:
                    self.problems.append(f"{match_id(i, match)}: transcript changed between passes")
        self.passes += 1

    def failed_per_pass(self):
        return sum(1 for m, w in zip(self.matches, self.winners) if m.kind == "fault" and w != "prover")


def check_outcomes(engine, run):
    """Check every first-pass transcript against the paper and by independent
    arithmetic; returns a list of problems."""
    game = engine.modules["game"]
    problems = list(run.problems)
    with open(run.transcript_path) as source:
        texts = [line.rstrip("\n") for line in source]
    for i, (match, text) in enumerate(zip(run.matches, texts)):
        obj = json.loads(text)
        where = match_id(i, match)
        if match.kind in ("auto", "fault"):
            if match.budget != independent.paper_budget(match.ring):
                problems.append(f"{where}: budget {match.budget} is not the paper's")
            if obj["winner"] != "prover":
                if match.kind == "auto":
                    problems.append(f"{where}: auto Prover lost at the paper's budget")
                continue
            if not independent.certificate_holds(obj):
                problems.append(f"{where}: certificate identity fails on expansion")
            if game.verify_transcript(game.Transcript.from_json(json.dumps(tampered(obj)))):
                problems.append(f"{where}: verify_transcript accepts a changed cofactor")
        else:
            holds = {"refuterZ": independent.refuter_z_holds, "refuterPoly": independent.refuter_poly_holds}
            if obj["winner"] != "delayer":
                problems.append(f"{where}: refuter lost")
            elif not holds[match.kind](obj):
                problems.append(f"{where}: forced constraint does not refute")
    return problems


def tampered(obj):
    """A copy of a Prover-win transcript with one cofactor value changed.

    The changed cofactor multiplies a nonzero generator, so the identity
    must fail.  Only keys inside the generator range are used.
    """
    ring = independent.Ring(obj["ring"])
    gens = ring.relations + independent.constraints(ring, obj)
    index = next(i for i, g in enumerate(gens) if g)
    out = copy.deepcopy(obj)
    cofactors = out["certificate"]["cofactors"]
    cofactors[str(index)] = cofactors.get(str(index), "0") + " + 1"
    return out


def median_of_medians(per_match):
    return statistics.median(statistics.median(times) for times in per_match)


def write_hashes(path, workload, seed, matches, hashes):
    with open(path, "w") as out:
        json.dump(
            {"workload": workload, "seed": seed,
             "matches": {match_id(i, m): h for i, (m, h) in enumerate(zip(matches, hashes))}},
            out, indent=1,
        )


def compare(path, other_path):
    """Print the matches whose transcript hashes differ; return their count."""
    with open(path) as f:
        mine = json.load(f)
    with open(other_path) as f:
        other = json.load(f)
    if (mine["workload"], mine["seed"]) != (other["workload"], other["seed"]):
        print(f"compare: {other_path} is {other['workload']} seed {other['seed']}, "
              f"this run is {mine['workload']} seed {mine['seed']}", file=sys.stderr)
        return 1
    differ = [k for k in mine["matches"] if mine["matches"][k] != other["matches"].get(k)]
    differ += [k for k in other["matches"] if k not in mine["matches"]]
    for key in differ:
        print(f"transcript differs: {key}", file=sys.stderr)
    print(f"compare: {len(differ)} of {len(mine['matches'])} transcripts differ", file=sys.stderr)
    return len(differ)


def measure(workload, seed, seconds, trace, keep=None):
    """One run: set-up, timed passes (or the traced pass), then the checks.

    Returns the result object and the list of failed checks.  ``keep``
    (indices into the match list) plays only those matches, for the smoke
    test.
    """
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}")
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        engine, matches, parsed = set_up(workload, seed)
        setup_times.append(time.perf_counter() - t0)
    if keep is not None:
        matches, parsed = [matches[i] for i in keep], [parsed[i] for i in keep]
    run = Run(matches, parsed, stem + ".transcripts.jsonl")
    if trace:
        t0 = time.perf_counter()
        run.play_pass(engine)
        untraced = time.perf_counter() - t0
        tracer = tracing.Tracer()
        tracing.install(tracer, engine.modules)
        t0 = time.perf_counter()
        run.play_pass(engine, tracer)
        traced = time.perf_counter() - t0
        values = tracing.layer_metrics(tracer)
        values["trace.traced_pass_s"] = traced
        values["trace.untraced_pass_s"] = untraced
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.LAYER_METRICS}
        tracer.write(stem + ".spans.tsv.gz")
    else:
        start = time.perf_counter()
        while True:
            run.play_pass(engine)
            elapsed = time.perf_counter() - start
            if elapsed * (run.passes + 1) / run.passes > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        played = len(run.matches) * run.passes
        metrics = {
            "matches_per_s": {"value": played / sum(map(sum, run.play_s)), "unit": "1/s"},
            "match_p50_ms": {"value": 1000 * median_of_medians(run.play_s), "unit": "ms"},
            "verifies_per_s": {"value": played / sum(map(sum, run.verify_s)), "unit": "1/s"},
            "verify_p50_ms": {"value": 1000 * median_of_medians(run.verify_s), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    problems = check_outcomes(engine, run)
    write_hashes(stem + ".hashes.json", workload, seed, run.matches, run.hashes)
    print(f"{workload} seed {seed}: {len(run.matches)} matches x {run.passes} passes", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(run.matches) * run.passes,
        "failed": run.failed_per_pass() * run.passes,
        "metrics": metrics,
    }
    return result, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", default=None, help="hashes file of another run to compare with")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "jacarena")):
        print(f"no jacarena source at {SRC}", file=sys.stderr)
        return 2

    result, problems = measure(args.workload, args.seed, args.seconds, args.trace)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    hashes = os.path.join(OUT, f"{args.workload}-seed{args.seed}.hashes.json")
    differ = compare(hashes, args.compare) if args.compare else 0
    print(json.dumps(result))
    return 1 if problems or differ else 0


if __name__ == "__main__":
    sys.exit(main())
