"""CLI behavior: exit codes, transcripts on disk, CSV, REPL, verification."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jacarena.cli import main


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


def test_play_config_error(capsys):
    code, _, err = run(["play", "--ring", "WAT[", "--x", "1", "--budget", "1"], capsys)
    assert code == 2
    assert "configuration error" in err


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
    obj = json.loads(out.read_text())
    assert obj["delayer"] == "human"
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
