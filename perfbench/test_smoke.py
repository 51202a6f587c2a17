"""Smoke test of the match benchmark, in seconds.

It plays the first match of every (ring, kind, reply size) group of each
workload with all of the benchmark's checks, and checks the checks: a
changed cofactor fails the independent expansion, a traced run repeats its
counts, and the comparison mode reports a changed transcript.

    python -m pytest perfbench
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import independent  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from matchlist import WORKLOADS, match_list  # noqa: E402


def sample(workload, seed=1):
    seen, keep = set(), []
    for i, m in enumerate(match_list(workload, seed)):
        key = (m.ring, m.kind, m.delayer.rsplit(":", 1)[-1])
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sampled_matches_pass_every_check(workload):
    keep = sample(workload)
    result, problems = run.measure(workload, 1, 0.0, 0, keep=keep)
    assert problems == []
    assert result["correct"] and result["attempted"] == len(keep)
    assert result["failed"] == (1 if workload == "tower" else 0)
    assert set(result["metrics"]) == {
        "matches_per_s", "match_p50_ms", "verifies_per_s", "verify_p50_ms", "setup_s", "peak_rss_mb"
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_match_lists_repeat_per_seed_and_keep_their_length():
    for workload in WORKLOADS:
        assert match_list(workload, 3) == match_list(workload, 3)
        assert match_list(workload, 3) != match_list(workload, 4)
        assert len(match_list(workload, 3)) == len(match_list(workload, 4))


def test_independent_expansion_rejects_a_changed_cofactor():
    run.measure("dim1", 1, 0.0, 0, keep=[0])
    with open(os.path.join(run.OUT, "dim1-seed1.transcripts.jsonl")) as f:
        obj = json.loads(f.readline())
    assert obj["winner"] == "prover"
    assert independent.certificate_holds(obj)
    assert not independent.certificate_holds(run.tampered(obj))


def test_traced_counts_repeat_exactly():
    keep = sample("tower")[:4]
    first, _ = run.measure("tower", 2, 0.0, 1, keep=keep)
    second, _ = run.measure("tower", 2, 0.0, 1, keep=keep)
    names = [name for name, unit, _ in tracing.LAYER_METRICS]
    assert set(first["metrics"]) == set(names)
    for name in names:
        if first["metrics"][name]["unit"] != "s":
            assert first["metrics"][name] == second["metrics"][name], name


def test_compare_lists_changed_transcripts(tmp_path, capsys):
    run.measure("tower", 1, 0.0, 0, keep=[0, 1])
    mine = os.path.join(run.OUT, "tower-seed1.hashes.json")
    with open(mine) as f:
        other = json.load(f)
    first = next(iter(other["matches"]))
    other["matches"][first] = "0" * 64
    other_path = tmp_path / "other.hashes.json"
    other_path.write_text(json.dumps(other))
    assert run.compare(mine, str(other_path)) == 1
    assert first in capsys.readouterr().err
