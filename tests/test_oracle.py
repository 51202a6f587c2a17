"""Finite-ring enumeration, brute-force radicals, and exact minimal budgets."""

import itertools
import random

import pytest

from jacarena.errors import NotFinite
from jacarena.game import referee_play, verify_transcript
from jacarena.oracle import enumerate_finite, minimal_alpha, minimal_alpha_ring
from jacarena.parsing import parse_ring
from jacarena.rings import member_in, nil_member
from jacarena.strategies import (
    ConstantDelayer,
    FixedMovesProver,
    ZeroDimStrategy,
    ring_strategy_factory,
)
from support import brute_jac, brute_nil


def test_enumerate_finite_counts():
    assert len(enumerate_finite(parse_ring("ZZ/6"))) == 6
    assert len(enumerate_finite(parse_ring("GF(2)[X]/(X^2+X)"))) == 4
    table = enumerate_finite(parse_ring("ZZ[X]/(2, X^2)"))
    assert sorted(e.to_text() for e in table.elements) == ["0", "1", "X", "X + 1"]


def test_enumerate_finite_mixed_torsion():
    table = enumerate_finite(parse_ring("ZZ[X]/(4, 2*X, X^2)"))
    assert len(table) == 8


def test_enumerate_finite_rejects_infinite():
    # ZZ[X]/(4, 2*X) is infinite: the powers of X stay distinct
    for text in ("ZZ", "QQ[X]", "ZZ[X]/(2)", "ZZ[X]/(2*X, X^2)", "ZZ[X]/(4, 2*X)"):
        with pytest.raises(NotFinite):
            enumerate_finite(parse_ring(text))


def test_enumerate_trivial_ring():
    table = enumerate_finite(parse_ring("ZZ/1"))
    assert len(table) == 1


def test_brute_nil_and_jac_z4():
    table = enumerate_finite(parse_ring("ZZ/4"))
    ring = table.ring
    nil = sorted(e.to_text() for e in table.elements if brute_nil(table, e))
    jac = sorted(e.to_text() for e in table.elements if brute_jac(table, e))
    assert nil == ["0", "2"]
    assert jac == ["0", "2"]


def test_brute_all_in_trivial_ring():
    table = enumerate_finite(parse_ring("ZZ/1"))
    assert all(brute_nil(table, e) for e in table.elements)
    assert all(brute_jac(table, e) for e in table.elements)


def test_brute_jac_field():
    table = enumerate_finite(parse_ring("GF(5)"))
    jac = [e.to_text() for e in table.elements if brute_jac(table, e)]
    assert jac == ["0"]


def test_brute_jac_agrees_with_ideal_member():
    for text in ("ZZ/6", "GF(2)[X]/(X^2+X)"):
        table = enumerate_finite(parse_ring(text))
        ring = table.ring
        for x in table.elements:
            brute = brute_jac(table, x)
            engine = all(
                member_in(ring, ring.one(), [ring.one() - a * x]) is not None
                for a in table.elements
            )
            assert brute == engine, (text, x.to_text())


def test_minimal_alpha_examples():
    t4 = enumerate_finite(parse_ring("ZZ/4"))
    ring = t4.ring
    assert minimal_alpha(t4, ring.element(2), ring.element(2)) == 0
    assert minimal_alpha(t4, ring.element(3), ring.element(3)) == 1
    assert minimal_alpha(t4, ring.element(2), ring.element(3)) is None
    tt = enumerate_finite(parse_ring("ZZ/1"))
    assert minimal_alpha(tt, tt.ring.element(1), tt.ring.element(1)) == 0


def test_minimal_alpha_ring_values():
    assert minimal_alpha_ring(enumerate_finite(parse_ring("ZZ/1"))) == 0
    assert minimal_alpha_ring(enumerate_finite(parse_ring("ZZ/4"))) == 1
    assert minimal_alpha_ring(enumerate_finite(parse_ring("GF(2)"))) == 1


def test_oracle_agreement_small_sweep():
    for text in ("ZZ/6", "GF(2)[X]/(X^2+X)"):
        table = enumerate_finite(parse_ring(text))
        els = table.elements
        for x in els:
            for U in itertools.chain(
                [()], ((u,) for u in els), itertools.combinations(els, 2)
            ):
                agrees = brute_nil(table, x, list(U)) == (nil_member(x, list(U)) is not None)
                assert agrees, (text, x, U)


def test_upper_bound_consistency():
    # every nontrivial finite ring needs exactly one round; the trivial one none
    for text, expected in (("ZZ/2", 1), ("ZZ/9", 1), ("ZZ[X]/(2,X^2)", 1), ("ZZ/1", 0)):
        assert minimal_alpha_ring(enumerate_finite(parse_ring(text))) == expected


def test_strategy_budget_never_below_oracle():
    for text in ("GF(2)", "GF(3)", "GF(5)"):
        ring = parse_ring(text)
        table = enumerate_finite(ring)
        factory = ring_strategy_factory(ring)
        for x in table.elements:
            alpha = minimal_alpha(table, x, x)
            assert factory(x).budget >= alpha
    # presentations outside the factory: the one-round witness strategy
    for text in ("ZZ/4", "ZZ/12", "GF(2)[X]/(X^2+X)"):
        ring = parse_ring(text)
        table = enumerate_finite(ring)
        for x in table.elements:
            alpha = minimal_alpha(table, x, x)
            assert ZeroDimStrategy(ring, x).budget >= alpha


@pytest.mark.parametrize("text", ["ZZ/12", "GF(2)[X]/(X^3)", "ZZ[X]/(4, X^2)"])
def test_referee_verdicts_agree_with_brute_nil(text):
    # budget 0: x itself; budget 1: one move a against the constant reply b
    table = enumerate_finite(parse_ring(text))
    ring, one = table.ring, table.ring.one()
    rng = random.Random(text)
    for x in table.elements:
        matches = [(FixedMovesProver(ring, x, []), ConstantDelayer(ring, 0), [])]
        for _ in range(4):
            a, b = rng.choice(table.elements), rng.choice(table.elements)
            constraint = one - b * (one - a * x)
            matches.append((FixedMovesProver(ring, x, [[a]]), ConstantDelayer(ring, b), [constraint]))
        for prover, delayer, constraints in matches:
            transcript = referee_play(ring, x, x, prover.budget, prover, delayer)
            expected = "prover" if brute_nil(table, x, constraints) else "delayer"
            assert transcript.winner == expected, (text, x.to_text(), transcript.to_json())
            assert verify_transcript(transcript), transcript.to_json()
