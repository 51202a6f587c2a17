"""Acceptance suite: one test per criterion, exact checks, stated time limits.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import itertools
import json
import random
import time

import pytest

from jacarena.errors import NotInJacobsonRadical
from jacarena.game import Transcript, referee_play, verify_transcript
from jacarena.oracle import brute_nil, enumerate_finite, minimal_alpha_ring
from jacarena.parsing import parse_ring
from jacarena.rings import MonogenicExtension, key_elementary_transfer, loc_key_clear, member_in, nil_member
from jacarena.strategies import (
    DiagonalRefuterPoly,
    DiagonalRefuterZ,
    EuclideanDim1Strategy,
    FixedMovesProver,
    JacWitnessDelayer,
    PolyLiftStrategy,
    RandomDelayer,
    prover_from_spec,
    ring_strategy_factory,
)

from support import extract_nil_from_jac


def _won(ring, x, budget, prover, delayer, xprime=None):
    t = referee_play(ring, x, xprime if xprime is not None else x, budget, prover, delayer)
    assert bool(verify_transcript(t)), verify_transcript(t).problems
    return t


def test_criterion_01_integers_are_two_jacobson():
    start = time.time()
    Z = parse_ring("ZZ")
    wins = 0
    total = 0
    for value in (-7, -2, 0, 1, 2, 6, 30, 210):
        x = Z.element(value)
        delayers = [RandomDelayer(Z, seed, 0, 10 ** 6) for seed in (1, 2, 3)]
        delayers.append(JacWitnessDelayer(Z, x, [x * x]))
        for delayer in delayers:
            t = _won(Z, x, 2, EuclideanDim1Strategy(Z, x), delayer)
            total += 1
            wins += t.winner == "prover"
    elapsed = time.time() - start
    assert wins == total == 32
    assert elapsed < 10, elapsed
    print(f"\nACCEPTANCE 1: PASS - J2(ZZ,x,x) won {wins}/{total} in {elapsed:.2f}s")


def test_criterion_02_integers_not_one_jacobson():
    start = time.time()
    Z = parse_ring("ZZ")
    moves_range = range(-10, 11)
    checked = 0
    refereed = 0
    for n_value in (2, 3, 10):
        x = Z.element(n_value)
        for n_moves in range(4):
            for moves in itertools.product(moves_range, repeat=n_moves):
                c = DiagonalRefuterZ.forced_constant(n_value, moves)
                for a in moves:
                    q, r = divmod(1 - c, 1 - a * n_value)
                    assert r == 0
                    assert 1 - q * (1 - a * n_value) == c
                assert DiagonalRefuterZ.check_not_nil(c, n_value), (n_value, moves)
                if checked % 379 == 0:
                    prover = FixedMovesProver(Z, x, [[Z.element(a) for a in moves]])
                    t = _won(Z, x, 1, prover, DiagonalRefuterZ(Z, n_value))
                    assert t.winner == "delayer"
                    refereed += 1
                checked += 1
    elapsed = time.time() - start
    assert checked == 3 * (1 + 21 + 21 ** 2 + 21 ** 3)
    assert elapsed < 30, elapsed
    print(f"\nACCEPTANCE 2: PASS - refuted {checked} move lists "
          f"({refereed} replayed through the referee) in {elapsed:.2f}s")


def test_criterion_03_univariate_over_fields():
    start = time.time()
    wins = total = 0
    for ring_text in ("QQ[X]", "GF(5)[X]"):
        ring = parse_ring(ring_text)
        for x_text in ("X", "X+1", "X^2-1", "3*X^3+X"):
            x = ring.element(x_text)
            for seed in (1, 2, 3):
                t = _won(ring, x, 2, EuclideanDim1Strategy(ring, x),
                         RandomDelayer(ring, seed, 3, 5))
                total += 1
                wins += t.winner == "prover"
    elapsed = time.time() - start
    assert wins == total == 24
    assert elapsed < 30, elapsed
    print(f"\nACCEPTANCE 3: PASS - J2(K[X],x,x) won {wins}/{total} in {elapsed:.2f}s")


def test_criterion_04_nullstellensatz_over_fields():
    start = time.time()
    wins = total = 0
    F5x = parse_ring("GF(5)[X]")
    fac5 = ring_strategy_factory(parse_ring("GF(5)"))
    for f_text in ("X", "X+2"):
        f = F5x.element(f_text)
        for seed in (1, 2):
            t = _won(F5x, f, 2, PolyLiftStrategy(F5x, f, fac5), RandomDelayer(F5x, seed, 1, 4))
            total += 1
            wins += t.winner == "prover"
    Qxy = parse_ring("QQ[X,Y]")
    facQx = ring_strategy_factory(parse_ring("QQ[X]"))
    for f_text in ("X", "X*Y"):
        f = Qxy.element(f_text)
        for seed in (1, 2):
            t = _won(Qxy, f, 3, PolyLiftStrategy(Qxy, f, facQx), RandomDelayer(Qxy, seed, 1, 2))
            total += 1
            wins += t.winner == "prover"
    elapsed = time.time() - start
    assert wins == total == 8
    assert elapsed < 300, elapsed
    print(f"\nACCEPTANCE 4: PASS - field lifts won {wins}/{total} in {elapsed:.2f}s")


def test_criterion_05_nullstellensatz_over_integers():
    start = time.time()
    wins = total = 0
    Zx = parse_ring("ZZ[X]")
    facZ = ring_strategy_factory(parse_ring("ZZ"))
    for f_text in ("X", "X+2", "2*X-1"):
        f = Zx.element(f_text)
        for seed in (1, 2):
            t = _won(Zx, f, 3, PolyLiftStrategy(Zx, f, facZ), RandomDelayer(Zx, seed, 1, 3))
            total += 1
            wins += t.winner == "prover"
    elapsed = time.time() - start
    assert wins == total == 6
    assert elapsed < 600, elapsed
    print(f"\nACCEPTANCE 5: PASS - J3(ZZ[X],f,f) won {wins}/{total} in {elapsed:.2f}s")


def test_criterion_06_polynomial_rings_not_one_jacobson():
    start = time.time()
    refuted = 0
    refereed = 0
    for ring_text, bound in (("ZZ[X]", 2), ("GF(5)[X]", 4)):
        ring = parse_ring(ring_text)
        x = ring.element("X")
        refuter = DiagonalRefuterPoly(ring)
        pool = {}
        for c0 in range(-bound, bound + 1):
            for c1 in range(-bound, bound + 1):
                p = ring.element(c0) + ring.element(c1) * x
                pool[p.poly] = p
        pool = list(pool.values())
        families = itertools.chain(
            [()], ((f,) for f in pool), itertools.product(pool, repeat=2)
        )
        for idx, moves in enumerate(families):
            h = refuter.forced_constraint(list(moves))
            assert nil_member(x, [h]) is None, (ring_text, [m.to_text() for m in moves])
            if idx % 97 == 0:
                prover = FixedMovesProver(ring, x, [list(moves)])
                t = _won(ring, x, 1, prover, DiagonalRefuterPoly(ring))
                assert t.winner == "delayer"
                refereed += 1
            refuted += 1
    elapsed = time.time() - start
    assert elapsed < 60, elapsed
    print(f"\nACCEPTANCE 6: PASS - refuted {refuted} move families "
          f"({refereed} replayed) in {elapsed:.2f}s")


def test_criterion_07_clearing_identity_random():
    start = time.time()
    rng = random.Random(2026)
    count = 0
    for ring_text in ("ZZ", "GF(7)"):
        ring = parse_ring(ring_text)
        span = 40 if ring_text == "ZZ" else 6
        for _ in range(500):
            a = ring.element(rng.randint(-span, span))
            a1 = ring.element(rng.randint(-span, span))
            a2p = ring.element(rng.randint(-span, span))
            e = rng.randint(0, 5)
            a2 = loc_key_clear(a, a1, a2p, e)
            lhs = ring.one() - a2 * (ring.one() - a1 * a)
            rhs = a1 ** e * (a ** e - a2p * (ring.one() - a1 * a))
            assert lhs == rhs
            count += 1
    elapsed = time.time() - start
    assert count == 1000
    print(f"\nACCEPTANCE 7: PASS - clearing identity on {count} instances in {elapsed:.2f}s")


def test_criterion_08_integral_entailment_instance():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2+1)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    # a = 1, so w = 1 - a1*a*a0 = 2 for a0 = -1 and a1 = 1
    a_out = key_elementary_transfer(Zb.element(-1), Zb.element(1), B.element("Y"), ext)
    assert a_out == Zb.element(-2)
    target = B.one() - B.element(2) * B.element("Y")
    cofs = member_in(B, B.element(5), [target])
    assert cofs is not None
    print("\nACCEPTANCE 8: PASS - a = -2 and 5 lies in <1-2Y> with explicit cofactors")


def test_criterion_09_oracle_agreement():
    start = time.time()
    inventory = [f"ZZ/{n}" for n in range(1, 13)] + ["GF(2)[X]/(X^2+X)", "ZZ[X]/(2, X^2)"]
    pairs = 0
    for text in inventory:
        ring = parse_ring(text)
        table = enumerate_finite(ring)
        assert len(table) <= 16
        for x in table.elements:
            for U in itertools.chain(
                [()],
                ((u,) for u in table.elements),
                itertools.combinations(table.elements, 2),
            ):
                agrees = brute_nil(table, x, list(U)) == (nil_member(x, list(U)) is not None)
                assert agrees, (text, x.to_text(), U)
                pairs += 1
        expected = 0 if ring.is_trivial() else 1
        assert minimal_alpha_ring(table) == expected, text
    elapsed = time.time() - start
    assert elapsed < 120, elapsed
    print(f"\nACCEPTANCE 9: PASS - {pairs} nil agreements and ring budgets over "
          f"{len(inventory)} rings in {elapsed:.2f}s")


def test_criterion_10_certificate_extraction():
    R = parse_ring("QQ[X]")
    x = R.element("X")
    for k in (1, 2, 3):
        cert = extract_nil_from_jac(
            EuclideanDim1Strategy(R, x), [R.element(f"X^{k}")]
        )
        assert cert.exponent >= k
        assert cert.verify()
    with pytest.raises(NotInJacobsonRadical):
        extract_nil_from_jac(EuclideanDim1Strategy(R, x), [R.element("X-1")])
    print("\nACCEPTANCE 10: PASS - extraction certificates for X^k and the "
          "out-of-radical rejection")


def _random_match(rng):
    configs = [
        ("ZZ", ["6", "-2", "30"], "euclideanDim1", 2),
        ("QQ[x]", ["x", "x+1"], "euclideanDim1", 2),
        ("GF(5)", ["2", "3"], "zeroDim", 1),
        ("GF(5)[X]", ["X", "X+2"], "polyLift(zeroDim)", 2),
        ("ZZ[X]", ["X"], "polyLift(euclideanDim1)", 3),
    ]
    ring_text, xs, prover_spec, budget = configs[rng.randrange(len(configs))]
    ring = parse_ring(ring_text)
    x = ring.element(xs[rng.randrange(len(xs))])
    seed = rng.randrange(1000)
    delayer_spec = f"random(seed={seed},degLE=1,absLE=3)"
    prover = prover_from_spec(prover_spec, ring, x, x, budget)
    from jacarena.strategies import delayer_from_spec

    delayer = delayer_from_spec(delayer_spec, ring, x)
    return referee_play(ring, x, x, budget, prover, delayer)


def _mutations(transcript):
    """Single-field corruptions of a played transcript's semantic fields,
    each of which a correct verifier must reject for these match
    configurations.  A parsed certificate has no generators, so the
    cofactor corruption reads them from the played one."""
    obj = transcript.to_json_obj()

    def clone():
        return json.loads(json.dumps(obj))

    out = []
    m = clone()
    m["winner"] = "delayer" if obj["winner"] == "prover" else "prover"
    out.append(("winner", m))
    if obj["rounds"]:
        m = clone()
        m["budget"] = obj["budget"] - 1
        out.append(("budget", m))
        m = clone()
        m["rounds"][0]["nextBudget"] = obj["budget"]
        out.append(("nextBudget", m))
        if obj["rounds"][0]["replies"]:
            m = clone()
            m["rounds"][0]["replies"][0] += " + 1"
            out.append(("reply", m))
            m = clone()
            m["rounds"][0]["moves"][0] += " + 1"
            out.append(("move", m))
    if obj["certificate"] is not None:
        m = clone()
        m["certificate"]["e"] += 1
        out.append(("certificate.e", m))
        cert = transcript.certificate
        for key in sorted(obj["certificate"]["cofactors"]):
            if not cert.generators[int(key)].is_zero():
                m = clone()
                m["certificate"]["cofactors"][key] += " + 1"
                out.append(("cofactor", m))
                break
    return out


def test_criterion_11_transcript_integrity():
    start = time.time()
    rng = random.Random(11)
    detected = 0
    mutated = 0
    for i in range(100):
        t = _random_match(rng)
        text = t.to_json()
        again = Transcript.from_json(text)
        assert again.to_json() == text
        assert bool(verify_transcript(again, replay=True)), i
        for name, obj in _mutations(t):
            bad = Transcript.from_json(json.dumps(obj))
            result = verify_transcript(bad, replay=True)
            assert not result, (i, name)
            mutated += 1
            detected += 1
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 11: PASS - 100 matches round-tripped; "
          f"{detected}/{mutated} single-field mutations detected in {elapsed:.2f}s")
