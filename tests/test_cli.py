"""CLI behavior: exit codes, transcripts on disk, CSV, REPL, verification."""

import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jacarena import cli
from jacarena.cli import main
from jacarena.parsing import parse_ring
from jacarena.strategies import DiagonalRefuterPoly, DiagonalRefuterZ


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_play_prover_win(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, _ = run(
        ["play", "--ring", "ZZ", "--x", "6", "--budget", "2",
         "--prover", "euclideanDim1", "--delayer", "random:7", "--out", str(out)],
        capsys,
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["winner"] == "prover"
    assert list(obj.keys())[:7] == [
        "ring", "x", "xPrime", "budget", "rounds", "winner", "certificate"
    ]


def test_play_budget_zero_immediate_win(capsys):
    code, out, _ = run(
        ["play", "--ring", "QQ[x]", "--x", "0", "--budget", "0"], capsys
    )
    assert code == 0
    assert json.loads(out)["winner"] == "prover"


def test_play_refuted_exit_one(capsys):
    code, out, _ = run(
        ["play", "--ring", "ZZ", "--x", "2", "--budget", "1",
         "--prover", "euclideanDim1", "--delayer", "refuterZ"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["winner"] == "delayer"


@pytest.mark.parametrize("x", ["X", "3"])
def test_refuter_z_refuses_another_ring_before_reading_x(capsys, x):
    code, out, err = run(
        ["play", "--ring", "ZZ[X]", "--x", x, "--budget", "1", "--prover", "polyLift(zeroDim)",
         "--delayer", "refuterZ"],
        capsys,
    )
    assert (code, out) == (3, "")
    assert err == "engine error: refuterZ plays on the plain integers\n"


def test_play_config_error(capsys):
    code, _, err = run(["play", "--ring", "WAT[", "--x", "1", "--budget", "1"], capsys)
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["play", "--ring=--", "--x", "1", "--budget", "0"], "ring"),
        (["refute", "poly", "--ring=--", "--max-moves", "1", "--bound", "1"], "ring"),
        (["play", "--ring", "ZZ", "--x=--", "--budget", "0"], "x"),
        (["play", "--ring", "ZZ", "--x", "2", "--xprime=--", "--budget", "0"], "xprime"),
        (["play", "--ring", "ZZ", "--x", "2", "--budget", "0", "--prover=--"], "prover"),
        (["play", "--ring", "ZZ", "--x", "2", "--budget", "0", "--delayer=--"], "delayer"),
        (["play", "--ring", "ZZ", "--x", "2", "--budget", "0", "--out=--"], "out"),
        (["refute", "z", "--N=--"], "N"),
        (["repl", "--ring", "ZZ", "--x=--", "--budget", "0"], "x"),
    ],
    ids=["play-ring", "refute-ring", "play-x", "play-xprime", "play-prover", "play-delayer",
         "play-out", "refute-N", "repl-x"],
)
def test_text_option_read_as_a_list_is_a_configuration_error(argv, option, capsys, monkeypatch):
    # argparse takes "--" as the end of options and gives the option [];
    # --out=-- must not fall back to stdout
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert run(argv, capsys) == (2, "", f"configuration error: --{option} must be a string, not list\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--"],
        ["play", "--ring", "ZZ", "--budget", "1"],
        ["alpha", "--ring=--"],
        ["play", "--ring", "ZZ", "--x", "2", "--budget", "two"],
        ["refute"],
        ["nope"],
        [],
    ],
    ids=["verify-no-path", "play-no-x", "alpha-unknown-option", "play-budget-text", "refute-no-kind",
         "unknown-command", "no-command"],
)
def test_argv_that_argparse_refuses_is_one_configuration_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("configuration error: "), err


def test_help_still_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["play", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: jacarena play")


@pytest.mark.parametrize("command", ["play", "repl"])
def test_empty_out_is_a_path_that_cannot_be_written(command, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, out, err = run([command, "--ring", "ZZ", "--x", "6", "--budget", "2", "--out="], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("configuration error: "), err


def test_play_with_a_large_gf_modulus_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(
        ["play", "--ring", "GF(1000000000000000003)", "--x", "1", "--budget", "0"], capsys
    )
    assert time.perf_counter() - start < 1
    assert code == 1 and json.loads(out)["winner"] == "delayer"


def test_play_with_a_gf_modulus_past_the_bound_is_a_configuration_error(capsys):
    code, out, err = run(
        ["play", "--ring", "GF(3317044064679887385961981)", "--x", "1", "--budget", "0"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("configuration error: ")


def test_play_deeply_nested_relation_is_a_configuration_error(capsys):
    relation = "(" * 3000 + "X" + ")" * 3000
    code, out, err = run(
        ["play", "--ring", f"ZZ[X]/({relation})", "--x", "X", "--budget", "1"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("configuration error: ")
    assert "parentheses nest deeper than" in err


def test_zero_dim_refuses_a_unit_of_a_ring_that_is_not_zero_dimensional(capsys):
    code, out, err = run(
        ["play", "--ring", "QQ[X]", "--x", "2", "--budget", "1",
         "--prover", "zeroDim", "--delayer", "echo"],
        capsys,
    )
    assert (code, out, err) == (3, "", "engine error: QQ[X] has an infinite staircase\n")


def test_play_engine_error(capsys):
    code, _, err = run(
        ["play", "--ring", "QQ[X,Y]", "--x", "X", "--budget", "2",
         "--prover", "euclideanDim1", "--delayer", "random:1"],
        capsys,
    )
    assert code == 3
    assert "engine error" in err


@pytest.mark.parametrize("command", ["play", "repl"])
def test_degree_past_the_bound_is_a_configuration_error(capsys, monkeypatch, command):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, out, err = run(
        [command, "--ring", "QQ[X]", "--x", "X^2147483648", "--budget", "1"], capsys
    )
    assert code == 2 and out == ""
    assert err == (
        "configuration error: total degree 2147483648 is not below 2147483648 (at position 2)\n"
    )


def test_power_coefficient_past_the_digit_limit_is_a_configuration_error(capsys):
    start = time.perf_counter()
    code, out, err = run(["play", "--ring", "ZZ", "--x", "2^4000000000", "--budget", "1"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "configuration error: a power's coefficient would pass 4300 digits (at position 2)\n"


@pytest.mark.parametrize(
    "ring, x, message",
    [
        ("ZZ[X]", "(X+1)^100000",
         "a power of a sum is too large to expand: up to 100001 terms of 200000-bit coefficients"
         " (at position 6)"),
        ("ZZ", "10^4000*10^4000", "a product's coefficient would pass 4300 digits (at position 7)"),
        ("GF(1000003)[X]", "(X+1)^2000*(X+1)^2000",
         "a power of a sum is too large to expand with the rest of the text:"
         " up to 2001 terms of 20-bit coefficients (at position 17)"),
        ("GF(1000003)[X]", "(X+1)^2000+(X+1)^2000+(X+1)^2000+(X+1)^2000",
         "a power of a sum is too large to expand with the rest of the text:"
         " up to 2001 terms of 20-bit coefficients (at position 17)"),
        ("GF(1000003)[X]", "(X+1)^1400*(X+1)^1400",
         "a product of sums is too large to expand with the rest of the text:"
         " up to 1962801 terms of 20-bit coefficients (at position 10)"),
        # one ring text, its relations included, shares one expansion budget
        ("GF(1000003)[X]/((X+1)^1500, (X+1)^1500)", "X",
         "a power of a sum is too large to expand with the rest of the text:"
         " up to 1501 terms of 20-bit coefficients (at position 34)"),
    ],
    ids=["power-of-a-sum", "product-of-literals", "product-of-powers", "sum-of-powers",
         "product-of-sums", "ring-relations"],
)
def test_text_too_large_to_build_is_a_configuration_error(capsys, ring, x, message):
    start = time.perf_counter()
    code, out, err = run(["play", "--ring", ring, "--x", x, "--budget", "0"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"configuration error: {message}\n"


def test_product_past_the_degree_bound_is_an_engine_error(capsys):
    # the reply X^(2^31 - 1) is in bounds; its constraint 1 - b*(1 - a*X) is not
    code, out, err = run(
        ["play", "--ring", "QQ[X]", "--x", "X", "--budget", "1",
         "--delayer", "constant(X^2147483647)"],
        capsys,
    )
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("engine error: total degree 2147483648")


def test_play_poly_lift_rejects_relation_in_lift_variable(capsys):
    code, out, err = run(
        ["play", "--ring", "QQ[X]/(X^2)", "--x", "X", "--budget", "2",
         "--prover", "polyLift(zeroDim)"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("engine error: ")
    assert "relation X^2 involves the variable 'X'" in err


@pytest.mark.parametrize(
    "command, flag, spec, message",
    [
        ("play", "--prover", "nope", "unknown prover spec 'nope'"),
        ("repl", "--prover", "nope", "unknown prover spec 'nope'"),
        # the spec is refused before polyLift asks ZZ for a coefficient ring
        ("play", "--prover", "polyLift(nope)", "unknown prover spec 'polyLift(nope)'"),
        ("play", "--delayer", "random:x:1:1", "unknown delayer spec 'random:x:1:1'"),
        ("play", "--delayer", "random:1:-1:1", "unknown delayer spec 'random:1:-1:1'"),
        # a number int() cannot read is refused before it is converted
        ("play", "--delayer", "random:0:0:1" + "0" * 5000,
         "a number in a random delayer spec passes 4300 digits"),
    ],
    ids=["play-prover", "repl-prover", "play-lifted-prover", "play-delayer-seed",
         "play-delayer-degree", "play-delayer-digits"],
)
def test_unknown_agent_spec_is_a_configuration_error(capsys, monkeypatch, command, flag, spec, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, out, err = run([command, "--ring", "ZZ", "--x", "6", "--budget", "2", flag, spec], capsys)
    assert (code, out) == (2, "")
    assert err == f"configuration error: {message}\n"


def test_unknown_refuter_kind_is_a_configuration_error(capsys):
    code, out, err = run(["refute", "nope"], capsys)
    assert (code, out) == (2, "")
    assert err == "configuration error: unknown refuter kind 'nope'\n"


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, _ = run(
        ["play", "--ring", "ZZ", "--x", "6", "--budget", "2",
         "--prover", "euclideanDim1", "--delayer", "random:3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    code, text, _ = run(["verify", str(out), "--replay"], capsys)
    assert code == 0 and "valid" in text

    obj = json.loads(out.read_text())
    obj["rounds"][0]["nextBudget"] = obj["budget"]
    out.write_text(json.dumps(obj))
    code, text, _ = run(["verify", str(out)], capsys)
    assert code == 1
    assert "invalid" in text


def test_random_delayer_with_too_large_replies_is_a_configuration_error(capsys):
    start = time.perf_counter()
    code, out, err = run(
        ["play", "--ring", "ZZ[X,Y,Z]", "--x", "X", "--budget", "2", "--delayer", "random:0:200:1"],
        capsys,
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("configuration error: ")


def test_transcript_past_the_digit_limit_is_not_written(tmp_path, capsys):
    old = tmp_path / "old.json"
    old.write_text("kept\n")
    new = tmp_path / "new.json"
    # replies of 2,200 digits give a certificate cofactor of over 4,300
    delayer = "random:0:0:" + "9" * 2200
    for path in (old, new):
        code, out, err = run(
            ["play", "--ring", "ZZ", "--x", "6", "--budget", "2", "--delayer", delayer,
             "--out", str(path)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "configuration error: a transcript coefficient passes 4300 digits and cannot be written\n"
    assert old.read_text() == "kept\n"
    assert not new.exists()


def test_replay_with_too_large_random_replies_is_invalid(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, _, _ = run(
        ["play", "--ring", "ZZ[X,Y,Z]", "--x", "0", "--budget", "0", "--out", str(path)], capsys
    )
    assert code == 0
    obj = json.loads(path.read_text())
    # too many candidate monomials, and a number int() cannot read
    for delayer, reason in [
        ("random(seed=0,degLE=1000,absLE=1)", "allows replies of more than 1024 terms"),
        ("random(seed=0,degLE=0,absLE=1" + "0" * 5000 + ")",
         "a number in a random delayer spec passes 4300 digits"),
    ]:
        obj["delayer"] = delayer
        path.write_text(json.dumps(obj))
        start = time.perf_counter()
        code, out, err = run(["verify", str(path), "--replay"], capsys)
        assert time.perf_counter() - start < 1
        assert (code, err) == (1, "")
        assert out.count("\n") == 1 and out.startswith("invalid: cannot reconstruct agents: ")
        assert out.endswith(reason + "\n")


@pytest.mark.parametrize(
    "core, message",
    [("auto", "QQ has no polynomial variable"), ("nope", "unknown prover spec 'polyLift(polyLift(")],
    ids=["ring-error", "unknown-spec"],
)
def test_replay_reads_a_deeply_nested_prover_spec_in_linear_time(tmp_path, capsys, core, message):
    path = tmp_path / "t.json"
    code, _, _ = run(["play", "--ring", "QQ[X]", "--x", "X", "--budget", "2", "--out", str(path)], capsys)
    assert code == 0
    obj = json.loads(path.read_text())
    # 2 MB of nesting: an unknown core is refused before the ring runs out of variables
    obj["prover"] = "polyLift(" * 200000 + core + ")" * 200000
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, out, err = run(["verify", str(path), "--replay"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, err) == (1, "")
    assert out.count("\n") == 1 and out.startswith(f"invalid: cannot reconstruct agents: {message}")


def test_jac_witness_delayer_spec_plays_and_replays(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, _, _ = run(
        ["play", "--ring", "GF(5)[X]", "--x", "X", "--budget", "2",
         "--delayer", "jacWitness(X^2)", "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert json.loads(path.read_text())["delayer"] == "jacWitness(X^2)"
    code, out, _ = run(["verify", str(path), "--replay"], capsys)
    assert (code, out) == (0, "valid\n")


def _rename_cofactor(obj, new_key):
    cofactors = obj["certificate"]["cofactors"]
    cofactors[new_key] = cofactors.pop("1")


def _set_round_text(obj, field, text):
    obj["rounds"][0][field][0] = text


# json.dumps cannot print an integer past Python's 4,300-digit limit, so a
# mutation sets this placeholder and the test writes the digits in its place.
LONG_INTEGER = "<5,000 digits>"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda obj: _rename_cofactor(obj, "99"), "cofactor key '99'"),
        (lambda obj: _rename_cofactor(obj, "-1"), "cofactor key '-1'"),
        (lambda obj: obj.pop("winner"), "no 'winner' field"),
        (lambda obj: obj.update(rounds={"0": obj["rounds"][0]}), "'rounds' is not a list"),
        (lambda obj: obj["certificate"].update(e=-1), "exponent -1 is negative"),
        (lambda obj: obj.update(ring="GF(4)"), "field 'ring': GF modulus must be a prime"),
        (lambda obj: obj.update(ring="GF(3317044064679887385961981)"),
         "field 'ring': GF modulus must be below 3317044064679887385961981"),
        (lambda obj: obj.update(x="Y"), "field 'x': unknown variable 'Y'"),
        (lambda obj: obj.update(xPrime="X +"), "field 'xPrime': unexpected 'end'"),
        (lambda obj: obj.update(x="(" * 3000 + "X" + ")" * 3000),
         "field 'x': parentheses nest deeper than"),
        (lambda obj: obj.update(x="-" * 5000 + "Y"), "field 'x': unknown variable 'Y'"),
        (lambda obj: _set_round_text(obj, "moves", "Y"), "round 0 move 0: unknown variable"),
        (lambda obj: _set_round_text(obj, "replies", "1/0"), "round 0 reply 0: divisor"),
        (lambda obj: obj["certificate"]["cofactors"].update({"1": "Y"}),
         "certificate cofactor '1': unknown variable 'Y'"),
        (lambda obj: obj.update(x="1" * 5000), "field 'x': Exceeds the limit (4300 digits)"),
        (lambda obj: obj.update(budget=LONG_INTEGER), "not JSON: Exceeds the limit (4300 digits)"),
        (lambda obj: obj.update(budget=-2), "negative starting budget"),
        (lambda obj: obj.update(x="X^2147483648"),
         "field 'x': total degree 2147483648 is not below 2147483648 (at position 2)"),
        (lambda obj: _set_round_text(obj, "moves", "X^1073741824 * X^1073741824"),
         "round 0 move 0: total degree 2147483648 is not below 2147483648 (at position 13)"),
        (lambda obj: _set_round_text(obj, "moves", "X^2147483647"),
         "invalid: round 0: total degree 2147483648 is not below 2147483648"),
        (lambda obj: obj.update(x="2^4000000000"),
         "field 'x': a power's coefficient would pass 4300 digits (at position 2)"),
        (lambda obj: obj.update(x="10^4000*10^4000"),
         "field 'x': a product's coefficient would pass 4300 digits (at position 7)"),
        (lambda obj: obj.update(x="(X+1)^100000"),
         "field 'x': a power of a sum is too large to expand"),
        (lambda obj: _rename_cofactor(obj, "00"), "cofactor key '00'"),
        (lambda obj: _rename_cofactor(obj, "01"), "cofactor key '01'"),
    ],
    ids=["key-out-of-range", "key-negative", "missing-winner", "rounds-not-list", "negative-e",
         "ring-not-a-field", "ring-modulus-too-large", "x-unknown-variable", "xprime-unparseable", "x-deep-parentheses",
         "x-long-sign-run", "move-unknown-variable",
         "reply-zero-divisor", "cofactor-unknown-variable", "x-long-integer", "budget-long-integer",
         "budget-negative", "x-degree-past-bound", "move-degree-past-bound",
         "constraint-degree-past-bound", "x-power-coefficient-past-limit",
         "x-product-coefficient-past-limit", "x-power-of-a-sum-too-large", "key-00", "key-01"],
)
def test_verify_rejects_malformed_transcript(tmp_path, capsys, mutate, message):
    out = tmp_path / "t.json"
    code, _, _ = run(
        ["play", "--ring", "QQ[X]", "--x", "X", "--budget", "2",
         "--delayer", "random:3", "--out", str(out)],
        capsys,
    )
    obj = json.loads(out.read_text())
    assert code == 0 and set(obj["certificate"]["cofactors"]) == {"0", "1"}
    mutate(obj)
    out.write_text(json.dumps(obj).replace(json.dumps(LONG_INTEGER), "9" * 5000))
    code, text, err = run(["verify", str(out)], capsys)
    assert code == 1
    assert text.count("\n") == 1 and text.startswith("invalid: ") and message in text
    assert err == ""


@pytest.mark.parametrize(
    "ring, xprime, e, cofactors, message",
    [
        ("ZZ", "6", 10000000, {}, "a power's coefficient would pass 4300 digits"),
        ("ZZ[X,Y]/(X^2 + 2*X*Y + Y^2)", "X + Y", 3000, {"0": "1"},
         "a power of a sum is too large to expand: up to 3001 terms"),
        ("ZZ[X]/(X^2)", "X", 2147483648, {}, "total degree 2147483648 is not below 2147483648"),
    ],
    ids=["coefficient-past-limit", "power-of-a-sum-too-large", "degree-past-bound"],
)
def test_verify_refuses_a_certificate_exponent_before_expanding_it(
    tmp_path, capsys, ring, xprime, e, cofactors, message
):
    # a Prover win at budget 0 claiming xprime^e = sum of cofactor_i * relation_i
    out = tmp_path / "t.json"
    out.write_text(json.dumps({
        "ring": ring, "x": xprime, "xPrime": xprime, "budget": 0, "rounds": [],
        "winner": "prover", "certificate": {"e": e, "cofactors": cofactors},
    }))
    start = time.perf_counter()
    code, text, err = run(["verify", str(out)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 1 and err == ""
    assert text.count("\n") == 1 and text.startswith(f"invalid: certificate power x'^e: {message}")


@pytest.mark.parametrize("ring", ["QQ[X]/(X^8)", "GF(5)[X]/(X^8)"])
def test_verify_accepts_the_power_of_a_sum_of_many_terms(tmp_path, capsys, ring):
    # x = X + ... + X^7 has nil index 8: x^8 has 57 terms, where a count by
    # its 7 terms alone would allow C(14, 6) = 3003
    out = tmp_path / "t.json"
    x = "+".join(f"X^{i}" for i in range(1, 8))
    code, _, _ = run(
        ["play", "--ring", ring, "--x", x, "--budget", "0", "--prover", "zeroDim",
         "--out", str(out)],
        capsys,
    )
    assert code == 0 and json.loads(out.read_text())["certificate"]["e"] == 8
    assert run(["verify", str(out)], capsys)[:2] == (0, "valid\n")


def test_verify_reports_a_delayer_win_constraint_past_the_degree_bound(tmp_path, capsys):
    # a Delayer win carries no certificate, so verify_transcript is the
    # first to expand the constraint 1 - b*(1 - a*X)
    out = tmp_path / "t.json"
    code, _, _ = run(
        ["play", "--ring", "QQ[X]", "--x", "X", "--budget", "1",
         "--delayer", "refuterPoly", "--out", str(out)],
        capsys,
    )
    obj = json.loads(out.read_text())
    assert code == 1 and obj["winner"] == "delayer" and obj["rounds"][0]["moves"]
    _set_round_text(obj, "moves", "X^2147483647")
    out.write_text(json.dumps(obj))
    code, text, err = run(["verify", str(out)], capsys)
    assert (code, text, err) == (
        1, "invalid: round 0: total degree 2147483648 is not below 2147483648\n", ""
    )


def test_verify_rejects_deeply_nested_json(tmp_path, capsys):
    out = tmp_path / "t.json"
    out.write_text("[" * 100000)
    code, text, err = run(["verify", str(out)], capsys)
    assert code == 1
    assert text.count("\n") == 1 and text.startswith("invalid: not JSON: ")
    assert err == ""


def test_alpha_csv(capsys):
    code, out, _ = run(["alpha", "ZZ/4", "GF(2)"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ring,x,xPrime,minimalAlpha"
    assert lines[1] == "ZZ/4,*,*,1"
    assert lines[2] == "GF(2),*,*,1"


def test_alpha_refuses_an_infinite_ring_before_any_output(capsys):
    code, out, err = run(["alpha", "ZZ/4", "QQ[X]"], capsys)
    assert (code, out) == (2, "")
    assert err == "configuration error: alpha needs a finite ring: QQ[X] has an infinite staircase\n"


def test_alpha_per_element(capsys):
    code, out, _ = run(["alpha", "ZZ/4", "--per-element"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 4
    assert any(row.endswith(",0") for row in rows)
    assert any(row.endswith(",1") for row in rows)


def test_refute_z_small(capsys):
    code, out, _ = run(["refute", "z", "--N", "2,3", "--max-moves", "1", "--bound", "5"], capsys)
    assert code == 0
    assert "refuted all" in out


def test_refute_poly_small(capsys):
    code, out, _ = run(
        ["refute", "poly", "--ring", "GF(5)[X]", "--max-moves", "1", "--deg", "1", "--bound", "1"],
        capsys,
    )
    assert code == 0


def test_repl_scripted_session(tmp_path, capsys, monkeypatch):
    out = tmp_path / "repl.json"
    monkeypatch.setattr(sys, "stdin", io.StringIO("?\n1\n0\n"))
    code, text, _ = run(
        ["repl", "--ring", "ZZ", "--x", "6", "--budget", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "Winner: prover" in text
    assert "Special inputs" in text
    # the referee asks for no declaration at budget 1: it can only be 0
    assert "Prover declares next budget 1." in text
    assert "next budget 0" not in text
    obj = json.loads(out.read_text())
    assert (obj["prover"], obj["delayer"]) == ("euclideanDim1", "human")
    code, text, _ = run(["verify", str(out)], capsys)
    assert code == 0


def test_repl_eof_resigns(tmp_path, capsys, monkeypatch):
    out = tmp_path / "repl.json"
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, text, _ = run(
        ["repl", "--ring", "ZZ", "--x", "6", "--budget", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "resigning" in text
    code, _, _ = run(["verify", str(out)], capsys)
    assert code == 0


def test_repl_rejects_bad_input_then_recovers(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 +\n2\nresign\n"))
    code, text, _ = run(
        ["repl", "--ring", "ZZ", "--x", "6", "--budget", "2"], capsys
    )
    assert code == 0
    assert "cannot parse" in text


@pytest.mark.parametrize(
    "argv",
    [
        ["play", "--ring", "ZZ", "--x", "6", "--budget", "2", "--out", "{dir}"],
        ["verify", "{dir}"],
        ["repl", "--ring", "ZZ", "--x", "6", "--budget", "2", "--out", "{dir}"],
    ],
    ids=["play-out", "verify", "repl-out"],
)
def test_directory_path_is_a_configuration_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO("resign\n"))
    code, _, err = run([a.format(dir=tmp_path) for a in argv], capsys)
    assert code == 2
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["play", "repl"])
def test_unwritable_out_path_fails_before_the_match(tmp_path, capsys, monkeypatch, command):
    def no_match(*args):
        raise AssertionError("the match was played before --out was opened")

    monkeypatch.setattr("jacarena.cli.referee_play", no_match)
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, _, err = run(
        [command, "--ring", "ZZ", "--x", "6", "--budget", "2", "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1


def test_refute_poly_without_a_variable_is_a_configuration_error(capsys):
    code, _, err = run(["refute", "poly", "--ring", "ZZ"], capsys)
    assert code == 2
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "ring, code",
    [
        ("ZZ[X]/(X)", 2),  # a relation in the last variable
        ("GF(5)[X,Y]/(Y^2)", 2),
        ("ZZ[X]/(1)", 2),  # the trivial ring, where X is nilpotent
        ("GF(5)[X,Y]/(X^2)", 0),  # A = GF(5)[X]/(X^2) is nontrivial
    ],
)
def test_refute_poly_needs_a_ring_over_a_nontrivial_coefficient_ring(ring, code, capsys):
    code_run, out, err = run(["refute", "poly", "--ring", ring, "--max-moves", "1"], capsys)
    assert code_run == code
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("configuration error: ")
    else:
        assert out.startswith("refuted all ") and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["refute", "poly", "--ring", "ZZ[X]", "--max-moves", "-1"],
        ["refute", "z", "--N", "2", "--bound", "-1"],
        ["refute", "poly", "--ring", "ZZ[X]", "--deg", "-1"],
    ],
)
def test_refute_with_an_empty_sweep_is_a_configuration_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"configuration error: {argv[-2]} must be nonnegative, got -1\n"


@pytest.mark.parametrize("n_value", ["0", "1", "-1"])
def test_refute_z_refuses_a_nilpotent_or_unit_n(n_value, capsys):
    code, out, err = run(["refute", "z", f"--N={n_value}", "--max-moves", "1", "--bound", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == f"configuration error: --N must not be 0, 1 or -1, got {n_value}\n"


# stdout of each sweep as printed when every ordered move list was checked
@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["refute", "z"], "refuted all 171 one-round move lists for N in [2, 3, 10]\n"),
        (["refute", "z", "--N", "6,-35", "--max-moves", "3", "--bound", "4"],
         "refuted all 1640 one-round move lists for N in [6, -35]\n"),
        (["refute", "poly", "--ring", "ZZ[Y,X]/(Y^2)", "--max-moves", "2", "--bound", "1", "--deg", "1"],
         "refuted all 91 one-round move lists on ZZ[Y,X]/(Y^2)\n"),
    ],
)
def test_refute_prints_the_count_of_ordered_move_lists(argv, stdout, capsys):
    assert run(argv, capsys) == (0, stdout, "")


def test_refute_poly_checks_each_multiset_of_moves_once(capsys, monkeypatch):
    checked = []
    monkeypatch.setattr(cli, "is_nil", lambda x, constraints: checked.append(constraints[0]) and False)
    argv = ["refute", "poly", "--ring", "GF(5)[X]", "--max-moves", "2", "--bound", "1", "--deg", "1"]
    assert run(argv, capsys) == (0, "refuted all 91 one-round move lists on GF(5)[X]\n", "")
    # 9 moves: 1 + 9 + 9*9 ordered lists, and 1 + 9 + 45 multisets
    assert len(checked) == 55


def _first_failing_list(pool, max_moves, fails):
    """The first failing move list in the order of every ordered list."""
    for n in range(max_moves + 1):
        for moves in itertools.product(pool, repeat=n):
            if fails(list(moves)):
                return list(moves)


def test_refute_z_failure_names_the_first_failing_ordered_list(capsys, monkeypatch):
    def fails(moves):
        return DiagonalRefuterZ.forced_constant(3, moves) % 7 == 0

    monkeypatch.setattr(cli.DiagonalRefuterZ, "check_not_nil", staticmethod(lambda c, n: c % 7 != 0))
    first = _first_failing_list(range(-3, 4), 3, fails)
    assert first is not None
    code, out, _ = run(["refute", "z", "--N", "3", "--max-moves", "3", "--bound", "3"], capsys)
    assert (code, out) == (1, f"FAILED at N=3, moves={first}\n")


def test_refute_poly_failure_names_the_first_failing_ordered_list(capsys, monkeypatch):
    ring = parse_ring("GF(5)[X]")
    pool = [ring.element(f"{c0} + {c1}*X") for c0, c1 in itertools.product(range(-1, 2), repeat=2)]
    refuter = DiagonalRefuterPoly(ring)

    def fails(moves):
        return len(refuter.forced_constraint(moves).poly.terms) == 3

    monkeypatch.setattr(cli, "is_nil", lambda x, constraints: len(constraints[0].poly.terms) == 3)
    first = _first_failing_list(pool, 2, fails)
    assert first is not None
    argv = ["refute", "poly", "--ring", "GF(5)[X]", "--max-moves", "2", "--bound", "1", "--deg", "1"]
    code, out, _ = run(argv, capsys)
    assert (code, out) == (1, f"FAILED on GF(5)[X] at moves={[m.to_text() for m in first]}\n")


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "jacarena", "play", "--ring", "ZZ", "--x", "6",
         "--budget", "2", "--delayer", "random:7"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["winner"] == "prover"
