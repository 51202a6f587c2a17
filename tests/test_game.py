"""Referee rules, transcript verification, and certificate extraction."""

import json

import pytest

from jacarena.errors import IllegalMove, NotInJacobsonRadical
from jacarena.game import Transcript, referee_play, verify_transcript
from jacarena.parsing import parse_ring
from jacarena.strategies import (
    ConstantDelayer,
    CutStrategy,
    FixedMovesProver,
    DiagonalRefuterZ,
    EuclideanDim1Strategy,
    ProverStrategy,
    RandomDelayer,
    delayer_from_spec,
    prover_from_spec,
)

from support import extract_nil_from_jac


def test_budget_zero_with_nilpotent_target():
    R = parse_ring("QQ[x]")
    t = referee_play(R, R.element(0), R.element(0), 0,
                     CutStrategy(R, []),
                     ConstantDelayer(R, 0))
    assert t.winner == "prover"
    assert t.rounds == []
    assert verify_transcript(t)


def test_euclidean_wins_budget_two_over_integers():
    Z = parse_ring("ZZ")
    x = Z.element(6)
    t = referee_play(Z, x, x, 2, EuclideanDim1Strategy(Z, x), RandomDelayer(Z, 7, 0, 10))
    assert t.winner == "prover"
    assert t.certificate is not None and t.certificate.verify()
    assert verify_transcript(t)


def test_refuter_defeats_budget_one():
    Z = parse_ring("ZZ")
    x = Z.element(2)
    t = referee_play(Z, x, x, 1, EuclideanDim1Strategy(Z, x), DiagonalRefuterZ(Z, 2))
    assert t.winner == "delayer"
    assert t.certificate is None
    assert verify_transcript(t)


class _ReceivesAboveBudgetOne(ProverStrategy):
    """Plays its inner strategy and refuses a receive at budget 1."""

    def __init__(self, inner):
        super().__init__(inner.ring, inner.budget, inner.name)
        self.inner = inner

    def propose(self, pos):
        return self.inner.propose(pos)

    def receive(self, pos, moves, replies):
        assert pos.tau > 1, "receive called at budget 1"
        declared, cont = self.inner.receive(pos, moves, replies)
        return declared, _ReceivesAboveBudgetOne(cont)


def test_referee_declares_zero_at_budget_one_without_receive():
    Z = parse_ring("ZZ")
    x = Z.element(6)
    prover = _ReceivesAboveBudgetOne(EuclideanDim1Strategy(Z, x))
    t = referee_play(Z, x, x, 2, prover, RandomDelayer(Z, 7, 0, 10))
    assert [r.declared for r in t.rounds] == [1, 0]
    assert t.winner == "prover"
    assert verify_transcript(t)


def test_budget_soundness_round_count():
    Z = parse_ring("ZZ")
    for budget in (1, 2, 3, 5):
        t = referee_play(Z, Z.element(6), Z.element(6), budget,
                         EuclideanDim1Strategy(Z, Z.element(6)),
                         RandomDelayer(Z, 3, 0, 5))
        assert len(t.rounds) <= budget
        assert t.rounds[-1].declared == 0


def test_illegal_move_reply_mismatch():
    Z = parse_ring("ZZ")

    class BadDelayer:
        name = "bad"

        def reply(self, pos, moves):
            return []

    with pytest.raises(IllegalMove) as info:
        referee_play(Z, Z.element(6), Z.element(6), 2,
                     EuclideanDim1Strategy(Z, Z.element(6)), BadDelayer())
    assert info.value.agent == "delayer"


def test_illegal_move_budget_not_decreasing():
    Z = parse_ring("ZZ")

    class BadProver:
        name = "bad"
        ring, x, xprime, budget = Z, Z.element(6), Z.element(6), 2

        def propose(self, pos):
            return []

        def receive(self, pos, moves, replies):
            return pos.tau, self

    with pytest.raises(IllegalMove) as info:
        referee_play(Z, Z.element(6), Z.element(6), 2, BadProver(), ConstantDelayer(Z, 0))
    assert info.value.agent == "prover"


def test_a_cut_part_declaring_the_position_budget_is_an_illegal_prover_move():
    Z = parse_ring("ZZ")

    class OverDeclaring(ProverStrategy):
        def __init__(self):
            super().__init__(Z, 2, "overDeclaring")

        def receive(self, pos, moves, replies):
            return pos.tau, self

    with pytest.raises(IllegalMove) as info:
        referee_play(Z, Z.element(6), Z.element(6), 2, CutStrategy(Z, [OverDeclaring()]),
                     ConstantDelayer(Z, 0))
    assert info.value.agent == "prover"
    assert str(info.value) == "prover: declared budget 2 at position budget 2"


def test_transcript_json_round_trip_and_field_order():
    Z = parse_ring("ZZ")
    t = referee_play(Z, Z.element(6), Z.element(6), 2,
                     EuclideanDim1Strategy(Z, Z.element(6)),
                     RandomDelayer(Z, 7, 0, 10))
    obj = t.to_json_obj()
    assert list(obj.keys()) == [
        "ring", "x", "xPrime", "budget", "rounds", "winner", "certificate",
        "prover", "delayer",
    ]
    again = Transcript.from_json(t.to_json())
    assert again.to_json_obj() == obj
    assert verify_transcript(again)
    assert verify_transcript(again, replay=True)


@pytest.mark.parametrize(
    "ring_text, x, budget, prover, delayer",
    [
        ("ZZ", "6", 2, "euclideanDim1", "random:7"),
        ("ZZ", "2", 1, "euclideanDim1", "refuterZ"),
        ("ZZ/12", "6", 1, "zeroDim", "random:5"),
        ("QQ[X]", "X^2+X", 2, "auto", "random:3:1:2"),
        ("QQ[X]", "X", 1, "auto", "refuterPoly"),
        ("QQ[X,Y]/(X^2, Y^3)", "X+Y", 1, "zeroDim", "random:4:1:3"),
        ("GF(5)[X]", "X^2+X", 2, "auto", "random:3:1:2"),
        ("GF(5)[X]/(X^2+1)", "X", 1, "zeroDim", "random:3:1:2"),
    ],
)
def test_transcript_text_survives_a_read_and_a_write(ring_text, x, budget, prover, delayer):
    R = parse_ring(ring_text)
    x = R.element(x)
    t = referee_play(R, x, x, budget, prover_from_spec(prover, R, x, x, budget),
                     delayer_from_spec(delayer, R, x))
    text = t.to_json()
    again = Transcript.from_json(text)
    assert again.to_json() == text
    assert verify_transcript(again)


def test_transcripts_over_one_ring_share_its_presentation():
    R = parse_ring("QQ[X,Y]/(X^2, Y^3)")
    texts = []
    for x, delayer in [("X+Y", "random:4:1:3"), ("X*Y", "random:5:1:2")]:
        x = R.element(x)
        t = referee_play(R, x, x, 1, prover_from_spec("zeroDim", R, x, x, 1),
                         delayer_from_spec(delayer, R, x))
        texts.append(t.to_json())
    first, second = (Transcript.from_json(text) for text in texts)
    assert first.ring is second.ring is parse_ring(R.to_text())
    for t, text in zip((first, second), texts):
        assert t.to_json() == text
        assert verify_transcript(t)
        assert verify_transcript(t, replay=True)


@pytest.mark.parametrize(
    "ring_text, x, xprime, winner",
    [
        ("QQ[X]", "X", "0", "prover"),  # 1 - T*0 is a unit
        ("ZZ/12", "2", "6", "prover"),
        ("ZZ/12", "6", "2", "delayer"),
        ("GF(5)[X,Y]/(X*Y, Y^2)", "X", "Y", "prover"),
        ("QQ[X,Y]/(X*Y)", "X", "X + Y", "delayer"),
    ],
)
def test_verify_rechecks_a_delayer_claim(ring_text, x, xprime, winner):
    R = parse_ring(ring_text)
    # the move 0 answered by 1 adds the constraint 0, so x' alone decides
    t = referee_play(R, R.element(x), R.element(xprime), 1,
                     FixedMovesProver(R, x, [["0"]]), ConstantDelayer(R, 1))
    assert t.winner == winner
    obj = t.to_json_obj()
    obj["winner"] = "delayer"
    obj["certificate"] = None
    result = verify_transcript(Transcript.from_json(json.dumps(obj)))
    forged = ["recorded winner 'delayer', recomputation says 'prover'"]
    assert result.problems == ([] if winner == "delayer" else forged)


def test_verify_rejects_non_decreasing_budget():
    Z = parse_ring("ZZ")
    t = referee_play(Z, Z.element(6), Z.element(6), 2,
                     EuclideanDim1Strategy(Z, Z.element(6)),
                     RandomDelayer(Z, 7, 0, 10))
    obj = t.to_json_obj()
    obj["rounds"][0]["nextBudget"] = 2
    bad = Transcript.from_json(json.dumps(obj))
    result = verify_transcript(bad)
    assert not result
    assert any("budget" in p for p in result.problems)


def test_verify_rejects_tampered_certificate():
    Z = parse_ring("ZZ")
    t = referee_play(Z, Z.element(6), Z.element(6), 2,
                     EuclideanDim1Strategy(Z, Z.element(6)),
                     ConstantDelayer(Z, 1))
    assert t.winner == "prover"
    obj = t.to_json_obj()
    obj["certificate"]["e"] += 1
    bad = Transcript.from_json(json.dumps(obj))
    result = verify_transcript(bad)
    assert not result


def test_verify_rejects_flipped_winner():
    Z = parse_ring("ZZ")
    t = referee_play(Z, Z.element(2), Z.element(2), 1,
                     EuclideanDim1Strategy(Z, Z.element(2)),
                     DiagonalRefuterZ(Z, 2))
    obj = t.to_json_obj()
    obj["winner"] = "prover"
    bad = Transcript.from_json(json.dumps(obj))
    assert not verify_transcript(bad)


@pytest.mark.parametrize(
    "winner, problem",
    [
        ("delayer", "recorded winner 'delayer', recomputation says 'prover'"),
        ("nobody", "unknown winner 'nobody'"),
    ],
)
def test_verify_rejects_other_claims_on_prover_win(winner, problem):
    Z = parse_ring("ZZ")
    t = referee_play(Z, Z.element(6), Z.element(6), 2,
                     EuclideanDim1Strategy(Z, Z.element(6)),
                     ConstantDelayer(Z, 1))
    assert t.winner == "prover"
    obj = t.to_json_obj()
    obj["winner"] = winner
    obj["certificate"] = None
    result = verify_transcript(Transcript.from_json(json.dumps(obj)))
    assert result.problems == [problem]


def test_extract_certificate_direct_member():
    R = parse_ring("QQ[X]")
    cert = extract_nil_from_jac(
        EuclideanDim1Strategy(R, R.element("X")), [R.element("X")]
    )
    assert cert.exponent == 1
    assert [g.to_text() for g in cert.generators] == ["X"]
    assert cert.verify()


def test_extract_certificate_square():
    R = parse_ring("QQ[X]")
    cert = extract_nil_from_jac(
        EuclideanDim1Strategy(R, R.element("X")), [R.element("X^2")]
    )
    assert cert.exponent == 2
    assert cert.verify()
    assert [c.to_text() for c in cert.cofactors] == ["1"]


def test_extract_raises_outside_radical():
    R = parse_ring("QQ[X]")
    with pytest.raises(NotInJacobsonRadical) as info:
        extract_nil_from_jac(
            EuclideanDim1Strategy(R, R.element("X")), [R.element("X-1")]
        )
    assert info.value.move == R.element(1)


def test_failing_prover_becomes_diagnosed_loss():
    from jacarena.errors import InvalidCertificate

    Z = parse_ring("ZZ")

    class BrokenProver:
        name = "broken"
        ring, x, xprime, budget = Z, Z.element(2), Z.element(2), 2

        def propose(self, pos):
            return [Z.element(0)]

        def receive(self, pos, moves, replies):
            raise InvalidCertificate("hypothesis failed mid-match")

    class BrokenProposer(BrokenProver):
        def propose(self, pos):
            raise InvalidCertificate("hypothesis failed before moving")

    for prover, stage in [(BrokenProver(), "on the replies"), (BrokenProposer(), "while proposing")]:
        t = referee_play(Z, Z.element(2), Z.element(2), 2, prover, ConstantDelayer(Z, 1))
        assert t.winner == "delayer"
        assert "hypothesis failed" in t.diagnosis
        assert f"prover strategy failed {stage}" in t.diagnosis
        assert verify_transcript(t)


@pytest.mark.parametrize("x_value,winner,diagnosis", [
    (2, "delayer", "prover proposed no move at budget 2 in round 1"),
    (0, "prover", None),
])
def test_a_round_with_no_move_diagnoses_only_a_loss(x_value, winner, diagnosis):
    Z = parse_ring("ZZ")
    prover = FixedMovesProver(Z, Z.element(x_value), [[Z.element(0)], [], []])
    t = referee_play(Z, Z.element(x_value), Z.element(x_value), 3, prover, ConstantDelayer(Z, 1))
    assert [len(r.moves) for r in t.rounds] == [1, 0, 0]
    assert (t.winner, t.diagnosis) == (winner, diagnosis)


def test_scripted_prover_plays_given_moves():
    Z = parse_ring("ZZ")
    prover = FixedMovesProver(Z, Z.element(5), [[Z.element(2)], [Z.element(0)]])
    t = referee_play(Z, Z.element(5), Z.element(5), 2, prover, ConstantDelayer(Z, 1))
    assert [m.to_text() for m in t.rounds[0].moves] == ["2"]
    assert [m.to_text() for m in t.rounds[1].moves] == ["0"]
    assert verify_transcript(t)


def test_random_delayer_respects_bounds():
    Z = parse_ring("ZZ")
    d = RandomDelayer(Z, 11, 0, 1)
    moves = [Z.element(0)] * 50
    from jacarena.game import GamePosition

    replies = d.reply(GamePosition(Z, 1, ()), moves)
    values = {r.poly.constant_value() if not r.poly.is_zero() else 0 for r in replies}
    assert values <= {-1, 0, 1}
