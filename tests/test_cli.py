"""CLI behavior: exit codes, transcripts on disk, CSV, REPL, verification."""

import io
import json
import sys

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


def test_play_engine_error(capsys):
    code, _, err = run(
        ["play", "--ring", "QQ[X,Y]", "--x", "X", "--budget", "2",
         "--prover", "euclideanDim1", "--delayer", "random:1"],
        capsys,
    )
    assert code == 3
    assert "engine error" in err


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


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda obj: _rename_cofactor(obj, "99"), "cofactor key '99'"),
        (lambda obj: _rename_cofactor(obj, "-1"), "cofactor key '-1'"),
        (lambda obj: obj.pop("winner"), "no 'winner' field"),
        (lambda obj: obj.update(rounds={"0": obj["rounds"][0]}), "'rounds' is not a list"),
        (lambda obj: obj["certificate"].update(e=-1), "exponent -1 is negative"),
    ],
    ids=["key-out-of-range", "key-negative", "missing-winner", "rounds-not-list", "negative-e"],
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
    out.write_text(json.dumps(obj))
    code, text, err = run(["verify", str(out)], capsys)
    assert code == 1
    assert text.count("\n") == 1 and text.startswith("invalid: ") and message in text
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
