"""Mutated transcripts, ring texts and GF moduli: engine errors, never a traceback."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jacarena.algebra import DEGREE_BOUND, _is_prime
from jacarena.cli import main
from jacarena.errors import EngineError, RingSyntaxError
from jacarena.game import Transcript, referee_play, verify_transcript
from jacarena.parsing import parse_ring
from jacarena.strategies import delayer_from_spec, prover_from_spec

# (ring, x, budget, prover, delayer).  Two-variable QQ matches are left out:
# a mutation that flips their winner reruns a Groebner completion of seconds.
MATCHES = [
    ("ZZ", "6", 2, "euclideanDim1", "random:7"),
    ("ZZ", "2", 1, "euclideanDim1", "refuterZ"),
    ("GF(5)[X]", "X^2+X", 2, "auto", "random:3:1:2"),
    ("ZZ[X]/(4, X^2)", "1+X", 1, "zeroDim", "random:5:1:3"),
]

RINGS = ["ZZ", "QQ[X,Y]", "ZZ/12", "GF(5)[X]/(X^2+1)", "ZZ[X]/(4, X^2)", "GF(7)[X,Y]/(X*Y-1, Y^2)"]

ALPHABET = list("0123456789+-*/^()[],:{}\" .eXYZ_") + ["GF", "ZZ", "QQ", "null", "\\u00e9"]

EDITS = st.lists(
    st.tuples(st.sampled_from("idr"), st.integers(0, 10**4), st.sampled_from(ALPHABET)),
    min_size=1,
    max_size=3,
)

PRIMES = [2, 5, 1000000007, 1000000000000000003, 2**61 - 1, 3317044064679887385961813]


def _mutate(text, edits):
    for kind, pos, piece in edits:
        i = pos % (len(text) + 1)
        if kind == "i":
            text = text[:i] + piece + text[i:]
        elif kind == "r":
            text = text[:i] + piece + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_error_line(code, out, err):
    """Exit 2 prints one configuration error and nothing on standard output."""
    assert code == 2, (code, out, err)
    assert out == "" and err.count("\n") == 1 and err.startswith("configuration error: "), err


@pytest.fixture(scope="module")
def transcripts():
    texts = []
    for ring_text, x_text, budget, prover_spec, delayer_spec in MATCHES:
        ring = parse_ring(ring_text)
        x = ring.element(x_text)
        prover = prover_from_spec(prover_spec, ring, x, x, budget)
        delayer = delayer_from_spec(delayer_spec, ring, x)
        texts.append(referee_play(ring, x, x, budget, prover, delayer).to_json())
    return texts


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "t.json"


def test_fuzz_inputs_are_valid(transcripts):
    winners = [Transcript.from_json(text).winner for text in transcripts]
    assert "prover" in winners and "delayer" in winners
    assert all(verify_transcript(Transcript.from_json(text)) for text in transcripts)
    for text in RINGS:
        parse_ring(text)


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, len(MATCHES) - 1), edits=EDITS)
def test_mutated_transcript_raises_only_engine_errors(transcripts, path, which, edits):
    text = _mutate(transcripts[which], edits)
    try:
        verify_transcript(Transcript.from_json(text))
    except EngineError:
        pass
    path.write_text(text)
    code, out, err = _main(["verify", str(path)])
    if code == 0:
        assert out == "valid\n" and err == ""
    elif code == 1:
        lines = out.splitlines()
        assert lines and all(line.startswith("invalid: ") for line in lines), out
        assert err == ""
    else:
        _assert_one_error_line(code, out, err)


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, len(RINGS) - 1), edits=EDITS)
def test_mutated_ring_text_raises_only_engine_errors(which, edits):
    text = _mutate(RINGS[which], edits)
    try:
        ring = parse_ring(text)
    except EngineError:
        parsed = False
    else:
        parsed = True
        assert parse_ring(ring.to_text()) == ring, text
    code, out, err = _main(["play", f"--ring={text}", "--x", "1", "--budget", "0"])
    if parsed:
        # exit 3: the default prover does not cover this ring
        assert code in (0, 1, 3), (text, err)
        assert err == "" if code < 3 else err.count("\n") == 1 and err.startswith("engine error: ")
    else:
        _assert_one_error_line(code, out, err)


@settings(max_examples=100, deadline=None)
@given(p=st.one_of(st.integers(0, 10**30), st.sampled_from(PRIMES)))
def test_gf_modulus_up_to_ten_to_the_thirty(p):
    text = f"GF({p})"
    try:
        ring = parse_ring(text)
    except EngineError:
        assert p >= 3317044064679887385961981 or not _is_prime(p)
    else:
        assert ring.base.p == p and _is_prime(p)
    code, out, err = _main(["play", f"--ring={text}", "--x", "1", "--budget", "0"])
    if code != 1:
        _assert_one_error_line(code, out, err)


# total degrees on both sides of the bound, at twice the bound, and far past it
NEAR_BOUND = st.one_of(
    st.integers(DEGREE_BOUND - 3, DEGREE_BOUND + 3),
    st.integers(2 * DEGREE_BOUND - 3, 2 * DEGREE_BOUND + 3),
    st.integers(DEGREE_BOUND, 10**30),
)


@settings(max_examples=100, deadline=None)
@given(degree=NEAR_BOUND, cut=st.integers(0, 10**30), shape=st.integers(0, 2))
def test_exponents_around_the_degree_bound(degree, cut, shape):
    a = cut % (degree + 1)
    text = [f"X^{degree}", f"X^{a}*Y^{degree - a}", f"(X*Y)^{degree // 2}*X^{degree % 2}"][shape]
    in_bounds = degree < DEGREE_BOUND
    try:
        ring = parse_ring(f"QQ[X,Y]/({text})")
    except RingSyntaxError as exc:
        assert not in_bounds and "total degree" in str(exc)
    else:
        assert in_bounds and parse_ring(ring.to_text()) == ring
    code, out, err = _main(["play", "--ring=QQ[X,Y]", f"--x={text}", "--budget", "0"])
    if in_bounds:
        # no power of a monomial vanishes in QQ[X,Y]; near the bound the
        # Rabinowitsch generator 1 - T*x itself passes it
        assert code == 1 and err == "" or code == 3 and out == "", (text, err)
        assert code == 1 or err.count("\n") == 1 and err.startswith("engine error: total degree")
    else:
        _assert_one_error_line(code, out, err)
        assert "total degree" in err


# -- argv fuzz ---------------------------------------------------------------

ARGV_RINGS = ["ZZ", "ZZ/6", "GF(2)[X]", "QQ[X]"]
# "--opt=--" reaches a command as [], "--opt=" as empty text
JUNK = ["--", "", "7" * 5000]
PROVER_SPECS = ["auto", "zeroDim", "euclideanDim1", "polyLift(zeroDim)", "polyLift(euclideanDim1)",
                "polyLift(auto)", "polyLift(polyLift(zeroDim))"]
SMALL = st.integers(0, 2)


def _junk_or(strategy):
    """strategy, or about one time in eight a junk token."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(JUNK) if i == 3 else strategy)


@st.composite
def _element_text(draw, ring_text):
    """An element of degree at most 2 in the ring's one variable, if any."""
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3 if "X" in ring_text else 1))
    return "+".join(f"({c})*X^{i}" if i else f"({c})" for i, c in enumerate(coeffs))


@st.composite
def _delayer_spec(draw, ring_text):
    seed = draw(st.integers(-5, 5))
    element = _element_text(ring_text)
    return draw(st.sampled_from([
        f"random:{seed}",
        f"random:{seed}:{draw(SMALL)}:{draw(SMALL)}",
        f"random(seed={seed},degLE={draw(SMALL)},absLE={draw(SMALL)})",
        "refuterZ",
        "refuterPoly",
        "echo",
        f"constant({draw(_junk_or(element))})",
        f"jacWitness({draw(_junk_or(element))};{draw(_junk_or(element))})",
    ]))


def _option(name, value):
    return [] if value is None else [f"--{name}={value}"]


@st.composite
def _argv(draw, paths):
    command = draw(st.sampled_from(["play", "refute", "alpha", "verify"]))
    ring = draw(st.sampled_from(ARGV_RINGS))
    if command == "play":
        argv = [command, f"--ring={draw(_junk_or(st.just(ring)))}", f"--budget={draw(SMALL)}"]
        argv += _option("x", draw(_junk_or(_element_text(ring))))
        argv += _option("xprime", draw(st.none() | _junk_or(_element_text(ring))))
        argv += _option("prover", draw(st.none() | _junk_or(st.sampled_from(PROVER_SPECS))))
        argv += _option("delayer", draw(st.none() | _junk_or(_delayer_spec(ring))))
        argv += _option("out", draw(st.none() | _junk_or(st.just(paths["out"]))))
        return argv
    if command == "refute":
        # A QQ[X] sweep at 2 moves of degree 2 and bound 2 counts 15,751 move
        # lists and checks their 8,001 multisets, about 5 s on a 2-core host:
        # a valid input, but not a cheap one
        moves, bound, deg = draw(st.tuples(SMALL, SMALL, SMALL).filter(lambda t: t != (2, 2, 2)))
        argv = [command, f"--max-moves={moves}", f"--bound={bound}", f"--deg={deg}"]
        argv += _option("ring", draw(st.none() | _junk_or(st.just(ring))))
        argv += _option("N", draw(st.none() | _junk_or(st.sampled_from(["2", "-6,3", "0", "1,10"]))))
        return argv + ["--", draw(_junk_or(st.sampled_from(["z", "poly"])))]
    if command == "alpha":
        flags = draw(st.sampled_from([[], ["--per-element"]]))
        rings = draw(st.lists(_junk_or(st.sampled_from(ARGV_RINGS)), min_size=1, max_size=2))
        return [command, *flags, "--", *rings]
    flags = draw(st.sampled_from([[], ["--replay"]]))
    path = draw(_junk_or(st.sampled_from(["valid", "malformed", "missing", "directory"]).map(paths.get)))
    return [command, *flags, "--", path]


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    paths = {name: str(root / name) for name in ("valid", "malformed", "missing", "out")}
    paths["directory"] = str(root)
    assert _main(["play", "--ring=ZZ", "--x=6", "--budget=2", f"--out={paths['valid']}"])[0] == 0
    Path(paths["malformed"]).write_text("{")
    return paths


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_argv_exits_with_a_code_and_at_most_one_line(argv_paths, data):
    argv = data.draw(_argv(argv_paths))
    code, out, err = _main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, (argv, err)
    assert code == 0 or err.count("\n") <= 1, (argv, err)
