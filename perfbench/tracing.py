"""Span tracer for the traced run.

The tracer wraps jacarena's public functions from the benchmark's side:
each wrapped call records one span (name, start, end, parent span) in flat
arrays kept in memory, and the per-layer metrics are folded from those
arrays after the pass.  Nothing inside the engine changes.  A self time is
a span's duration minus the durations of its child spans; inclusive times
count only the outermost span of a name, so a nested call of the same
kind is not counted twice.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (module, attribute, span name).  A span name's first component is the
# layer whose self time the span adds to.
FUNCTIONS = (
    ("game", "referee_play", "game.referee_play"),
    ("game", "verify_transcript", "game.verify_transcript"),
    ("game", "Transcript.to_json", "game.to_json"),
    ("game", "Transcript.from_json", "game.from_json"),
    ("rings", "nil_member", "rings.nil_member"),
    ("rings", "zero_dim_witness", "rings.zero_dim_witness"),
    ("rings", "minimal_polynomial", "rings.minimal_polynomial"),
    ("rings", "integral_dependence", "rings.integral_dependence"),
    ("rings", "key_elementary_transfer", "rings.key_elementary_transfer"),
    ("rings", "RingPresentation.quotient_extend", "rings.quotient_extend"),
    ("rings", "RingPresentation.normal_form", "rings.normal_form"),
    ("ideals", "groebner", None),  # named by its track argument
    ("ideals", "GroebnerBasis.normal_form", "ideals.reduce"),
    ("ideals", "GroebnerBasis.reduce_tracked", "ideals.reduce"),
    ("ideals", "GroebnerBasis.member_cofactors", "ideals.reduce"),
    ("ideals", "NilCertificate.verify", "ideals.cert_verify"),
    ("algebra", "Polynomial.__mul__", "algebra.poly_mul"),
    ("algebra", "Polynomial.__pow__", "algebra.poly_pow"),
    ("parsing", "parse_polynomial", "parsing.parse"),
    ("parsing", "parse_ring", "parsing.parse"),
)

LAYERS = ("game", "strategies", "rings", "ideals", "algebra", "parsing")


class Tracer:
    """In-memory span store plus the exact counters the metrics need."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {"game.transcript_bytes": 0, "strategies.moves": 0, "ideals.basis_rows_max": 0}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, observe=None):
        """Wrap fn so each call records a span.  ``name`` is a span name, or
        a function of the call's (args, kwargs) that returns one."""
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        fixed = None if callable(name) else self.name_id(name)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Write every span as a tab-separated line: index, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (nid, parent, t0, t1) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                out.write(f"{i}\t{parent}\t{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\n")


def _groebner_span(args, kwargs):
    track = kwargs.get("track", args[3] if len(args) > 3 else True)
    return "ideals.groebner_tracked" if track else "ideals.groebner_untracked"


def install(tracer, modules):
    """Replace each traced function by its wrapper wherever jacarena holds it.

    ``modules`` maps short names (game, rings, ...) to jacarena's modules.
    Module-level functions are patched in every jacarena module that
    imported them by value; methods are patched on their class, under every
    attribute name that refers to them (``__rmul__`` is ``__mul__``).
    """

    def keep_rows(gb):
        c = tracer.counters
        c["ideals.basis_rows_max"] = max(c["ideals.basis_rows_max"], len(gb.basis))

    def count_bytes(text):
        tracer.counters["game.transcript_bytes"] += len(text)

    observers = {"Transcript.to_json": count_bytes, "groebner": keep_rows}
    holders = [m for n, m in sys.modules.items() if n == "jacarena" or n.startswith("jacarena.")]
    for module, attr, span in FUNCTIONS:
        owner = modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = tracer.wrap(fn, span, observers.get(attr))
            for key, value in list(cls.__dict__.items()):
                if value is raw:
                    setattr(cls, key, classmethod(wrapped) if is_classmethod else wrapped)
        else:
            fn = getattr(owner, attr)
            wrapped = tracer.wrap(fn, span or _groebner_span, observers.get(attr))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapped)


class ProverProxy:
    """Times the outermost propose/receive of a Prover handed to referee_play."""

    def __init__(self, inner, tracer):
        self.tracer = tracer
        self.name = getattr(inner, "name", inner.__class__.__name__)
        self._propose = tracer.wrap(lambda pos: list(inner.propose(pos)), "strategies.propose")
        self._receive = tracer.wrap(inner.receive, "strategies.receive")

    def propose(self, pos):
        moves = self._propose(pos)
        self.tracer.counters["strategies.moves"] += len(moves)
        return moves

    def receive(self, pos, moves, replies):
        declared, cont = self._receive(pos, moves, replies)
        return declared, ProverProxy(cont, self.tracer)


class DelayerProxy:
    """Times the reply of a Delayer handed to referee_play."""

    def __init__(self, inner, tracer):
        self.name = getattr(inner, "name", inner.__class__.__name__)
        self.reply = tracer.wrap(lambda pos, moves: list(inner.reply(pos, moves)), "strategies.reply")


# Per-layer metrics: (name, unit, better).  Kept in one list so the traced
# run and BENCHMARK.json name the same set.
LAYER_METRICS = (
    ("game.leaf_s", "s", "lower"),
    ("game.recheck_s", "s", "lower"),
    ("game.cert_check_s", "s", "lower"),
    ("game.json_s", "s", "lower"),
    ("game.transcript_bytes", "bytes", "lower"),
    ("game.self_s", "s", "lower"),
    ("strategies.prover_s", "s", "lower"),
    ("strategies.delayer_s", "s", "lower"),
    ("strategies.moves", "count", "lower"),
    ("strategies.self_s", "s", "lower"),
    ("rings.zero_dim_calls", "count", "lower"),
    ("rings.zero_dim_s", "s", "lower"),
    ("rings.minpoly_s", "s", "lower"),
    ("rings.integral_dep_calls", "count", "lower"),
    ("rings.integral_dep_s", "s", "lower"),
    ("rings.transfer_calls", "count", "lower"),
    ("rings.transfer_s", "s", "lower"),
    ("rings.nil_member_calls", "count", "lower"),
    ("rings.quotient_extend_calls", "count", "lower"),
    ("rings.normal_form_calls", "count", "lower"),
    ("rings.normal_form_s", "s", "lower"),
    ("rings.self_s", "s", "lower"),
    ("ideals.groebner_calls", "count", "lower"),
    ("ideals.groebner_untracked_s", "s", "lower"),
    ("ideals.groebner_tracked_s", "s", "lower"),
    ("ideals.basis_rows_max", "count", "lower"),
    ("ideals.reduce_calls", "count", "lower"),
    ("ideals.reduce_s", "s", "lower"),
    ("ideals.self_s", "s", "lower"),
    ("algebra.poly_mul_calls", "count", "lower"),
    ("algebra.poly_mul_s", "s", "lower"),
    ("algebra.poly_pow_calls", "count", "lower"),
    ("algebra.poly_pow_s", "s", "lower"),
    ("algebra.self_s", "s", "lower"),
    ("parsing.parse_calls", "count", "lower"),
    ("parsing.parse_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.traced_pass_s", "s", "lower"),
)


def layer_metrics(tracer):
    """Fold the recorded spans into the per-layer metrics (except the two
    pass wall times, which the caller measures)."""
    n = len(tracer.start)
    names = tracer.names
    bit = {name: 1 << i for i, name in enumerate(names)}
    layer = [name.split(".")[0] for name in names]
    child = [0.0] * n
    above = [0] * n  # bits of every span name among the ancestors
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += tracer.end[i] - tracer.start[i]
            above[i] = above[p] | (1 << tracer.name[p])

    calls = dict.fromkeys(names, 0)
    inclusive = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    leaf = recheck = cert_check = 0.0
    play_bit = bit.get("game.referee_play", 0)
    verify_bit = bit.get("game.verify_transcript", 0)
    nil_bit = bit.get("rings.nil_member", 0)
    for i in range(n):
        nid = tracer.name[i]
        name = names[nid]
        dur = tracer.end[i] - tracer.start[i]
        self_s[layer[nid]] += dur - child[i]
        if above[i] & (1 << nid):
            continue
        calls[name] += 1
        inclusive[name] += dur
        if name == "rings.nil_member":
            if above[i] & play_bit:
                leaf += dur
            elif above[i] & verify_bit:
                recheck += dur
        elif name == "ideals.cert_verify" and above[i] & verify_bit and not above[i] & nil_bit:
            cert_check += dur

    def c(name):
        return calls.get(name, 0)

    def s(*span_names):
        return sum(inclusive.get(name, 0.0) for name in span_names)

    out = {
        "game.leaf_s": leaf,
        "game.recheck_s": recheck,
        "game.cert_check_s": cert_check,
        "game.json_s": s("game.to_json", "game.from_json"),
        "strategies.prover_s": s("strategies.propose", "strategies.receive"),
        "strategies.delayer_s": s("strategies.reply"),
        "rings.zero_dim_calls": c("rings.zero_dim_witness"),
        "rings.zero_dim_s": s("rings.zero_dim_witness"),
        "rings.minpoly_s": s("rings.minimal_polynomial"),
        "rings.integral_dep_calls": c("rings.integral_dependence"),
        "rings.integral_dep_s": s("rings.integral_dependence"),
        "rings.transfer_calls": c("rings.key_elementary_transfer"),
        "rings.transfer_s": s("rings.key_elementary_transfer"),
        "rings.nil_member_calls": c("rings.nil_member"),
        "rings.quotient_extend_calls": c("rings.quotient_extend"),
        "rings.normal_form_calls": c("rings.normal_form"),
        "rings.normal_form_s": s("rings.normal_form"),
        "ideals.groebner_calls": c("ideals.groebner_tracked") + c("ideals.groebner_untracked"),
        "ideals.groebner_untracked_s": s("ideals.groebner_untracked"),
        "ideals.groebner_tracked_s": s("ideals.groebner_tracked"),
        "ideals.reduce_calls": c("ideals.reduce"),
        "ideals.reduce_s": s("ideals.reduce"),
        "algebra.poly_mul_calls": c("algebra.poly_mul"),
        "algebra.poly_mul_s": s("algebra.poly_mul"),
        "algebra.poly_pow_calls": c("algebra.poly_pow"),
        "algebra.poly_pow_s": s("algebra.poly_pow"),
        "parsing.parse_calls": c("parsing.parse"),
        "parsing.parse_s": s("parsing.parse"),
    }
    out.update(tracer.counters)
    for name in LAYERS:
        out[f"{name}.self_s"] = self_s[name]
    return out
