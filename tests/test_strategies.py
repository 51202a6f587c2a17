"""Prover strategies, combinators, adversaries, and the soundness suite."""

import hashlib

import pytest

from jacarena.algebra import Polynomial
from jacarena.errors import UnknownAgentSpec, UnsupportedRing, WrongBudget
from jacarena.game import GamePosition, Transcript, referee_play, verify_transcript
from jacarena.parsing import parse_ring
from jacarena import strategies
from jacarena.rings import (
    MonogenicExtension,
    RingPresentation,
    coefficient_ring,
    integral_dependence,
    nil_member,
)
from jacarena.oracle import enumerate_finite, minimal_alpha
from jacarena.strategies import (
    ConstantDelayer,
    CutStrategy,
    DiagonalRefuterPoly,
    DiagonalRefuterZ,
    EchoDelayer,
    EuclideanDim1Strategy,
    FixedMovesProver,
    IntegralTransportStrategy,
    JacWitnessDelayer,
    PolyLiftStrategy,
    ProverStrategy,
    RandomDelayer,
    ZeroDimStrategy,
    delayer_from_spec,
    loc_integral_strategy,
    prover_from_spec,
    ring_strategy_factory,
)

from support import ScriptedDelayer, untracked_groebner_runs


def play(ring, x, budget, prover, delayer, xprime=None):
    t = referee_play(ring, x, xprime if xprime is not None else x, budget, prover, delayer)
    assert verify_transcript(t), verify_transcript(t).problems
    return t


# -- zero-dimensional strategy -------------------------------------------------

def test_zero_dim_unit_case_f5():
    F5 = parse_ring("GF(5)")
    s = ZeroDimStrategy(F5, F5.element(2))
    assert s.exponent == 0
    for d in (RandomDelayer(F5, 1, 0, 4), EchoDelayer(F5), ConstantDelayer(F5, 3)):
        t = play(F5, F5.element(2), 1, ZeroDimStrategy(F5, F5.element(2)), d)
        assert t.winner == "prover"


def test_zero_dim_nilpotent_case_z8():
    Z8 = parse_ring("ZZ/8")
    s = ZeroDimStrategy(Z8, Z8.element(2))
    assert s.exponent == 3
    t = play(Z8, Z8.element(2), 1, s, RandomDelayer(Z8, 5, 0, 7))
    assert t.winner == "prover"
    # a reply that keeps the quotient whole forces the full exponent 3
    t = play(Z8, Z8.element(2), 1, ZeroDimStrategy(Z8, Z8.element(2)),
             ScriptedDelayer(Z8, [[1]]))
    assert t.winner == "prover"
    assert t.certificate.exponent == 3


def test_zero_dim_z7():
    Z7 = parse_ring("ZZ/7")
    t = play(Z7, Z7.element(3), 1, ZeroDimStrategy(Z7, Z7.element(3)), RandomDelayer(Z7, 2, 0, 6))
    assert t.winner == "prover"


# -- one-dimensional euclidean strategy ----------------------------------------

def test_euclidean_z_scripted_reply_one():
    Z = parse_ring("ZZ")
    t = play(Z, Z.element(6), 2, EuclideanDim1Strategy(Z, Z.element(6)),
             ScriptedDelayer(Z, [[1], [0]]))
    assert t.winner == "prover"
    assert t.rounds[0].moves[0] == Z.element(-1)
    constraint = Z.one() - Z.element(1) * (Z.one() - Z.element(-1) * Z.element(6))
    assert constraint == Z.element(-6)


def test_euclidean_unit_case():
    Z = parse_ring("ZZ")
    t = play(Z, Z.element(1), 2, EuclideanDim1Strategy(Z, Z.element(1)),
             RandomDelayer(Z, 9, 0, 3))
    assert t.winner == "prover"


def test_euclidean_polynomial_reply_zero():
    R = parse_ring("QQ[X]")
    t = play(R, R.element("X"), 2, EuclideanDim1Strategy(R, R.element("X")),
             ScriptedDelayer(R, [[0], [0]]))
    assert t.winner == "prover"


def test_euclidean_rejects_other_rings():
    with pytest.raises(UnsupportedRing):
        EuclideanDim1Strategy(parse_ring("QQ[X,Y]"), parse_ring("QQ[X,Y]").element("X"))
    with pytest.raises(UnsupportedRing):
        EuclideanDim1Strategy(parse_ring("ZZ[X]"), parse_ring("ZZ[X]").element("X"))


def test_euclidean_starved_budget_loses_gracefully():
    Z = parse_ring("ZZ")
    t = play(Z, Z.element(2), 1, EuclideanDim1Strategy(Z, Z.element(2)),
             DiagonalRefuterZ(Z, 2))
    assert t.winner == "delayer"


# -- combinators -----------------------------------------------------------------

def test_cut_strategy_z12():
    # (Z/12, 2, 6) is immediate (6^2 = 0) and (Z/12 / <3>, 2, 2) is one round;
    # the cut on 3 wins (Z/12, 2, 2) at the oracle's exact budget.
    Z12 = parse_ring("ZZ/12")
    s1 = CutStrategy(Z12, [])
    inner_ring = Z12.quotient_extend([Z12.element(3)])
    s2 = ZeroDimStrategy(inner_ring, 2)
    combined = CutStrategy(Z12, [s1, s2])
    assert combined.budget == 1
    for d in (RandomDelayer(Z12, 1, 0, 11), EchoDelayer(Z12), ConstantDelayer(Z12, 5)):
        t = play(Z12, Z12.element(2), 1, CutStrategy(
            Z12, [CutStrategy(Z12, []), ZeroDimStrategy(inner_ring, 2)]), d)
        assert t.winner == "prover"
    table = enumerate_finite(Z12)
    assert minimal_alpha(table, Z12.element(2), Z12.element(2)) == combined.budget


def test_cut_budget_law():
    Z12 = parse_ring("ZZ/12")
    inner_ring = Z12.quotient_extend([Z12.element(3)])
    s1 = CutStrategy(Z12, [])
    s2 = ZeroDimStrategy(inner_ring, 2)
    combined = CutStrategy(Z12, [s1, s2])
    pos = GamePosition(Z12, 2, ())
    moves = combined.propose(pos)
    declared, _ = combined.receive(pos, moves, [Z12.element(1) for _ in moves])
    assert declared == max(s1.budget - 1 if s1.budget else 0, 0)
    assert declared < 2


def test_cut_trivial_x_cases():
    Z8 = parse_ring("ZZ/8")
    x2 = Z8.element(2)
    # a cut on 0: the quotient view is the same ring
    s1 = ZeroDimStrategy(Z8, x2)
    q = Z8.quotient_extend([Z8.zero()])
    s2 = ZeroDimStrategy(q, q.element(2))
    t = play(Z8, x2, 1, CutStrategy(Z8, [s1, s2]), RandomDelayer(Z8, 4, 0, 7))
    assert t.winner == "prover"
    # a cut on 1: the quotient side lives in the trivial ring
    q1 = Z8.quotient_extend([Z8.one()])
    s2t = ZeroDimStrategy(q1, q1.element(2))
    t = play(Z8, x2, 1, CutStrategy(Z8, [ZeroDimStrategy(Z8, x2), s2t]),
             RandomDelayer(Z8, 4, 0, 7))
    assert t.winner == "prover"


def _transport_over_z30():
    # ZZ's strategies played in B = ZZ[Y]/(Y^2-6, 30) over A = ZZ/(30), a
    # proper quotient of their own ring
    Z = parse_ring("ZZ")
    A = Z.quotient_extend([Z.element(30)])
    B = parse_ring("ZZ[Y]/(Y^2-6, 30)")
    ext = MonogenicExtension(A, B, "Y", B.relations[0])
    dep = integral_dependence(B.element("Y"), ext)
    fac = ring_strategy_factory(Z)
    return B, loc_integral_strategy(dep, lambda i: fac(Z.element((dep.a * dep.coeffs[i]).poly)), ext)


def test_transport_reads_its_sub_into_a_quotient_base():
    B, loc = _transport_over_z30()
    pos = GamePosition(B, 2, ())
    assert loc.propose(pos)
    crossed = 0
    for part in loc.parts:
        base = part.ext.base
        assert part.sub.ring != base
        own = part.sub.propose(pos)
        assert part.inner_moves == [base.element(m.poly) for m in own]
        crossed += sum(a1.poly != m.poly for a1, m in zip(part.inner_moves, own))
    assert crossed  # -1 in ZZ is 29 in ZZ/(30)
    for seed in (1, 2, 3):
        B, loc = _transport_over_z30()
        t = play(B, B.element("Y"), 2, loc, RandomDelayer(B, seed, 1, 29))
        assert t.winner == "prover"


# -- localization-transport strategy -------------------------------------------

def _loc_inputs(ring_text, y_text):
    """(B, the dependence of y over ZZ, the factory of its sub-strategies,
    the extension): what loc_integral_strategy takes for ring_text."""
    Zb = parse_ring("ZZ")
    B = parse_ring(ring_text)
    ext = MonogenicExtension(Zb, B, B.vars[-1], B.relations[0])
    dep = integral_dependence(B.element(y_text), ext)
    fac = ring_strategy_factory(Zb)

    def sub_factory(idx):
        return fac(Zb.element((dep.a * dep.coeffs[idx]).poly))

    return B, dep, sub_factory, ext


def _loc_strategy(ring_text, y_text):
    B, dep, sub_factory, ext = _loc_inputs(ring_text, y_text)
    return B, loc_integral_strategy(dep, sub_factory, ext)


def test_loc_integral_sqrt6():
    B, s = _loc_strategy("ZZ[Y]/(Y^2-6)", "Y")
    assert s.budget == 2
    for seed in (1, 2, 3):
        B2, s2 = _loc_strategy("ZZ[Y]/(Y^2-6)", "Y")
        t = play(B2, B2.element("Y"), 2, s2, RandomDelayer(B2, seed, 1, 3))
        assert t.winner == "prover"


def test_loc_integral_inverted_two():
    B, s = _loc_strategy("ZZ[Y]/(2*Y-1)", "Y")
    t = play(B, B.element("Y"), 2, s, RandomDelayer(B, 5, 1, 3),
             xprime=B.element("2*Y"))
    assert t.winner == "prover"


def test_integral_transport_move_law():
    # a base move a1 becomes ring.element((a1*a).poly) * factor
    B, loc = _loc_strategy("ZZ[Y]/(Y^2-6)", "Y")
    transport = loc.parts[0]
    assert isinstance(transport, IntegralTransportStrategy)
    pos = GamePosition(B, 2, ())
    expected = [
        (B.element((a1 * transport.ext.lead).poly) * transport.factor).poly
        for a1 in transport.sub.propose(pos)
    ]
    assert expected
    assert [m.poly for m in transport.propose(pos)] == expected

    unscaled = IntegralTransportStrategy(
        B, transport.sub, transport.a0, transport.ext, Polynomial.constant(B.base, 1, B.vars)
    )
    assert [m.poly for m in unscaled.propose(pos)] == [
        B.element((a1 * transport.ext.lead).poly).poly for a1 in transport.sub.propose(pos)
    ]


def test_integral_transport_moves_do_not_depend_on_the_factor_representative():
    # a factor and the same factor plus a relation of the part's ring
    B, loc = _loc_strategy("ZZ[Y]/(Y^2-6)", "Y")
    pos = GamePosition(B, 2, ())
    moved = False
    for part in loc.parts:
        moves = part.propose(pos)
        moved = moved or bool(moves)
        for r in part.ring.relations:
            shifted = IntegralTransportStrategy(part.ring, part.sub, part.a0, part.ext, part.factor + r)
            assert shifted.factor != part.factor
            assert shifted.propose(pos) == moves
    assert moved


def test_loc_integral_strategy_completes_no_quotient_basis(monkeypatch):
    # the chain's factors and quotient generators stay polynomials, so
    # building the strategy reduces nothing in its quotients
    B, dep, sub_factory, ext = _loc_inputs("ZZ[Y]/(Y^2-6)", "Y")
    runs = untracked_groebner_runs(monkeypatch)
    s = loc_integral_strategy(dep, sub_factory, ext)
    assert dep.d == 2 and len(s.parts) == 2
    assert runs == []


class _Spy(ProverStrategy):
    """Counts its propose calls; its continuation is a fresh spy on the same log."""

    def __init__(self, inner, log):
        super().__init__(inner.ring, inner.budget, inner.name)
        self.inner = inner
        self.log = log
        self.proposed = 0
        self.received = 0
        log.append(self)

    def propose(self, pos):
        self.proposed += 1
        return self.inner.propose(pos)

    def receive(self, pos, moves, replies):
        self.received += 1
        declared, cont = self.inner.receive(pos, moves, replies)
        return declared, _Spy(cont, self.log)


def _assert_asked_once_per_round(log):
    # a spy is one sub-strategy at one round: proposed at most once, and
    # exactly once when its round went on to receive the replies
    assert any(spy.received for spy in log)
    for spy in log:
        assert spy.proposed <= 1, spy
        assert spy.received <= spy.proposed, spy


def test_cut_proposes_each_sub_once_per_round():
    Z = parse_ring("ZZ")
    lower = Z.quotient_extend([Z.element(4)])
    for seed in (1, 2, 3):
        log = []
        cut = CutStrategy(Z, [
            _Spy(EuclideanDim1Strategy(Z, 6), log),
            _Spy(ZeroDimStrategy(lower, 6), log),
        ])
        play(Z, Z.element(6), 2, cut, RandomDelayer(Z, seed, 0, 5))
        _assert_asked_once_per_round(log)


def test_loc_integral_proposes_each_sub_once_per_round():
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(Y^2-6)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    dep = integral_dependence(B.element("Y"), ext)
    fac = ring_strategy_factory(Zb)
    for seed in (1, 2, 3):
        log = []

        def sub_factory(idx):
            return _Spy(fac(Zb.element((dep.a * dep.coeffs[idx]).poly)), log)

        s = loc_integral_strategy(dep, sub_factory, ext)
        t = play(B, B.element("Y"), 2, s, RandomDelayer(B, seed, 1, 3))
        assert t.winner == "prover"
        _assert_asked_once_per_round(log)


def test_loc_integral_degenerate_immediate():
    # d = 0 relation: a^l = 0 in B, strategy wins without moving
    Zb = parse_ring("ZZ")
    B = parse_ring("ZZ[Y]/(2, Y^2-1)")
    ext = MonogenicExtension(Zb, B, "Y", B.relations[0])
    dep = integral_dependence(B.element("Y"), ext)
    assert (dep.l, dep.d) == (1, 0)
    fac = ring_strategy_factory(Zb)
    s = loc_integral_strategy(dep, lambda i: fac(Zb.element(0)), ext)
    t = play(B, B.element("Y"), 1, s, EchoDelayer(B), xprime=B.element("2*Y"))
    assert t.winner == "prover"


# -- polynomial lift -------------------------------------------------------------

def test_poly_lift_zero_target():
    F5x = parse_ring("GF(5)[X]")
    fac = ring_strategy_factory(parse_ring("GF(5)"))
    t = play(F5x, F5x.element(0), 2, PolyLiftStrategy(F5x, 0, fac),
             RandomDelayer(F5x, 1, 2, 4))
    assert t.winner == "prover"
    assert t.rounds[0].moves == []


def test_poly_lift_f5():
    F5x = parse_ring("GF(5)[X]")
    fac = ring_strategy_factory(parse_ring("GF(5)"))
    for seed in (1, 2, 3):
        t = play(F5x, F5x.element("X"), 2, PolyLiftStrategy(F5x, "X", fac),
                 RandomDelayer(F5x, seed, 2, 4))
        assert t.winner == "prover"


def test_poly_lift_zz():
    Zx = parse_ring("ZZ[X]")
    fac = ring_strategy_factory(parse_ring("ZZ"))
    for seed in (1, 2):
        t = play(Zx, Zx.element("X"), 3, PolyLiftStrategy(Zx, "X", fac),
                 RandomDelayer(Zx, seed, 1, 3))
        assert t.winner == "prover"
        assert t.rounds[0].moves[0] == Zx.element("X")


@pytest.mark.parametrize("factory_ring", ["GF(7)", "QQ", "GF(5)[Y]"])
def test_poly_lift_refuses_a_factory_over_another_ring(factory_ring):
    fac = ring_strategy_factory(parse_ring(factory_ring))
    with pytest.raises(UnsupportedRing, match="does not lift"):
        PolyLiftStrategy(parse_ring("GF(5)[X]"), "X", fac)


# (ring, x, reply g): h = 1 - g*(1 - Y*x), Y the lifted variable
_LIFT_CHAINS = [
    ("QQ[X,Y]", "X*Y+X", "2"),  # a_1 = 2*X dies modulo a_2 = 2*X
    ("ZZ[X,Y]", "Y^2+X", "2"),  # a_1 = 2*X dies modulo a_3 = 2
    ("QQ[X,Y]", "X*Y^2+Y", "2"),  # a_3 = 2*X, a_2 = 2: two levels, then A is trivial
    ("GF(3)[X,Y]", "Y^2+X*Y+1", "X+1"),
]


@pytest.mark.parametrize("ring_text,x_text,g_text", _LIFT_CHAINS)
def test_lift_cut_has_a_part_per_degree_of_each_level_above_zero(
    ring_text, x_text, g_text, monkeypatch
):
    ring = parse_ring(ring_text)
    var = ring.vars[-1]
    lift = PolyLiftStrategy(ring, x_text, ring_strategy_factory(coefficient_ring(ring)))
    pos = GamePosition(ring, lift.budget, ())
    moves = lift.propose(pos)
    h = ring.one() - ring.element(g_text) * (ring.one() - moves[0] * ring.element(x_text))
    # level k of the chain has a dependence of degree k, so k parts
    split, base_k, expected, played = h.poly.coefficients_in(var), lift.coeff_ring, 0, []
    for k in sorted(split, reverse=True):
        a_k = base_k.element(split[k])
        if k and not a_k.is_zero():
            expected += k
            played.append(k)
            base_k = base_k.quotient_extend([a_k])
    assert expected and 0 in split
    # one quotient for h, k - 1 in level k's own chain, and two (ring and
    # coefficient ring) to pass to the next level, but none after the lowest
    lowest = min(set(split) - {0})
    extends = 1 + sum(k - 1 + 2 * (k != lowest) for k in played)

    built, calls = [], []

    class Recording(MonogenicExtension):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.k)

    quotient_extend = RingPresentation.quotient_extend

    def counting(self, extra):
        calls.append(self)
        return quotient_extend(self, extra)

    monkeypatch.setattr(strategies, "MonogenicExtension", Recording)
    monkeypatch.setattr(RingPresentation, "quotient_extend", counting)
    runs = untracked_groebner_runs(monkeypatch)
    _, cut = lift.receive(pos, moves, [ring.element(g_text)])
    assert isinstance(cut, CutStrategy) and len(cut.parts) == expected
    # one extension per level played, of the level's degree
    assert built == played
    assert len(calls) == extends
    # a basis for each level's quotient of ring, where its extension checks
    # the relation, and for the coefficient quotient that the next level
    # reads its leading coefficient in; none for the quotients of the parts
    assert len(runs) == sum(1 + (k != lowest) for k in played)


def test_ring_strategy_factory_budgets():
    assert ring_strategy_factory(parse_ring("QQ")).budget == 1
    assert ring_strategy_factory(parse_ring("GF(5)")).budget == 1
    assert ring_strategy_factory(parse_ring("ZZ")).budget == 2
    assert ring_strategy_factory(parse_ring("QQ[X]")).budget == 2
    assert ring_strategy_factory(parse_ring("ZZ[X]")).budget == 3
    assert ring_strategy_factory(parse_ring("QQ[X,Y]")).budget == 3
    assert ring_strategy_factory(parse_ring("ZZ[X,Y]")).budget == 4
    with pytest.raises(UnsupportedRing):
        ring_strategy_factory(parse_ring("ZZ/4"))


def test_factory_name_round_trips_through_spec():
    fac = ring_strategy_factory(parse_ring("QQ[X,Y]"))
    assert fac.name == "polyLift(euclideanDim1)"
    ring = parse_ring("QQ[X,Y]")
    s = prover_from_spec(fac.name, ring, ring.element("X"), ring.element("X"), 3)
    assert s.name == fac.name


# -- adversaries -----------------------------------------------------------------

def test_random_delayer_determinism():
    Z = parse_ring("ZZ")
    def run(seed):
        t = referee_play(Z, Z.element(6), Z.element(6), 2,
                         EuclideanDim1Strategy(Z, Z.element(6)),
                         RandomDelayer(Z, seed, 0, 10))
        return t.to_json()

    assert run(7) == run(7)
    assert run(7) != run(8)
    for seed in (7, 8):
        assert verify_transcript(
            __import__("jacarena.game", fromlist=["Transcript"]).Transcript.from_json(run(seed))
        )


def test_refuter_z_family_small():
    Z = parse_ring("ZZ")
    for n_value in (2, 3):
        for moves in ([], [0], [1], [2, -2]):
            c = DiagonalRefuterZ(Z, n_value).forced_constant(n_value, moves)
            assert DiagonalRefuterZ(Z, n_value).check_not_nil(c, n_value)
            p = FixedMovesProver(Z, Z.element(n_value), [[Z.element(a) for a in moves]])
            t = play(Z, Z.element(n_value), 1, p, DiagonalRefuterZ(Z, n_value))
            assert t.winner == "delayer"


def test_refuter_z_wrong_budget():
    Z = parse_ring("ZZ")
    p = FixedMovesProver(Z, Z.element(2), [[Z.element(0)], []])
    with pytest.raises(WrongBudget):
        referee_play(Z, Z.element(2), Z.element(2), 2, p, DiagonalRefuterZ(Z, 2))


def test_refuter_poly_constraints_collapse():
    R = parse_ring("ZZ[X]")
    d = DiagonalRefuterPoly(R)
    moves = [R.element("X"), R.element("1+X")]
    pos = GamePosition(R, 1, ())
    replies = d.reply(pos, moves)
    h = d.forced_constraint(moves)
    for a, g in zip(moves, replies):
        assert R.one() - g * (R.one() - a * R.element("X")) == h
    assert nil_member(R.element("X"), [h]) is None


def test_refuter_poly_beats_fixed_prover():
    for ring_text in ("ZZ[X]", "GF(5)[X]"):
        R = parse_ring(ring_text)
        X = R.element("X")
        for moves in ([], ["0"], ["1"], ["X", "2*X-1"]):
            p = FixedMovesProver(R, X, [[R.element(m) for m in moves]])
            t = play(R, X, 1, p, DiagonalRefuterPoly(R))
            assert t.winner == "delayer"


def test_jac_witness_replies_keep_constraints_in_base():
    R = parse_ring("QQ[X]")
    x = R.element("X")
    d = JacWitnessDelayer(R, x, [R.element("X^2")])
    pos = GamePosition(R, 2, ())
    replies = d.reply(pos, [R.element(1)])
    assert replies[0] == R.element("1+X")
    constraint = R.one() - replies[0] * (R.one() - x)
    assert constraint == R.element("X^2")


def test_delayer_spec_round_trip():
    Z = parse_ring("ZZ")
    d = delayer_from_spec("random(seed=7,degLE=1,absLE=3)", Z, Z.element(2))
    assert d.name == "random(seed=7,degLE=1,absLE=3)"
    d2 = delayer_from_spec("random:7", Z, Z.element(2))
    assert d2.seed == 7
    assert delayer_from_spec("refuterZ", Z, Z.element(2)).name == "refuterZ"
    with pytest.raises(UnknownAgentSpec):
        delayer_from_spec("nonsense", Z, Z.element(2))


def test_random_delayer_spec_bounds_its_candidate_monomials():
    R = parse_ring("GF(7)[X,Y]")
    # (31+1)^2 = 1024 candidate monomials is the most a reply may draw from
    assert delayer_from_spec("random:0:31:1", R, R.element("X")).deg_le == 31
    with pytest.raises(UnknownAgentSpec, match="more than 1024 terms"):
        delayer_from_spec("random:0:32:1", R, R.element("X"))
    with pytest.raises(UnknownAgentSpec, match="more than 1024 terms"):
        delayer_from_spec("random(seed=0,degLE=1000,absLE=1)", R, R.element("X"))


# -- soundness suite ---------------------------------------------------------------

SOUNDNESS_CASES = [
    ("ZZ", ["0", "1", "6", "-7"], 2, "full"),
    ("QQ", ["0", "1", "5"], 1, "full"),
    ("GF(5)", ["0", "2"], 1, "full"),
    ("QQ[X]", ["X", "X+1"], 2, "full"),
    ("GF(5)[X]", ["X", "X^2-1"], 2, "full"),
    ("ZZ[X]", ["X"], 3, "light"),
    ("QQ[X,Y]", ["X*Y"], 3, "light"),
]


@pytest.mark.parametrize("ring_text,xs,budget,mode", SOUNDNESS_CASES)
def test_soundness_suite(ring_text, xs, budget, mode):
    ring = parse_ring(ring_text)
    factory = ring_strategy_factory(ring)
    assert factory.budget == budget
    for x_text in xs:
        x = ring.element(x_text)
        delayers = [RandomDelayer(ring, seed, 1, 3) for seed in (1, 2, 3)]
        if mode == "full":
            delayers += [ConstantDelayer(ring, 0), ConstantDelayer(ring, 1), EchoDelayer(ring)]
            delayers.append(JacWitnessDelayer(ring, x, [x * x]))
        else:
            delayers = delayers[:2] + [ConstantDelayer(ring, 0)]
        for delayer in delayers:
            t = play(ring, x, budget, factory(x), delayer)
            assert t.winner == "prover", (ring_text, x_text, delayer.name)


# -- pinned transcripts ------------------------------------------------------------

# sha256 of to_json() for matches built from specs, most with the auto
# Prover.  A change to any move, declared budget or normal form changes
# these bytes.  In the GF(2) match the reply 1 gives h = Z*X*Y, whose Z^0
# coefficient is zero, so the lift chain meets zero coefficients.
PINNED_TRANSCRIPTS = [
    ("ZZ", "12", 2, "auto", "random:5:0:1000",
     "14e5346c9c2a867451128e887665649f09360f73dfc29f22161f9fb133fbcf14"),
    ("ZZ", "-90", 2, "auto", "random:11:0:1000000000000",
     "09441e7fd83e41f429bc32f81b763bd6b0753bb938ab113197fb964ae4a7b50a"),
    ("GF(5)[X]", "X^2+1", 2, "auto", "random:3:2:4",
     "3aeb9d19e49579ec7c9993a05d7a983741a097a468b62d3f7fb361884a73fd07"),
    ("GF(101)[X]", "3*X^2-X+7", 2, "auto", "random:1:4:9",
     "9570bfb017a0d72b396d40ed3bb3fb3a6e79ebd2e6344bd537b11271d8d90805"),
    # QQ[X] at high reply degree: the rational branch of zero_dim_witness,
    # each transcript carrying a fraction
    ("QQ[X]", "3*X^3-X+5", 2, "auto", "random:7:12:9",
     "cc704cefd577b6ceec1ac41f72eb6b05e7d3ceaa1827cc11dd802c0db2129ad3"),
    ("QQ[X]", "-4*X+7", 2, "auto", "random:2:10:9",
     "2f0121b2d4d5c1f8060629fea10294bd9d26be0a344fe2b841300be88bc17107"),
    ("QQ[X]", "2*X^2+3", 2, "auto", "random:4:3:5",
     "5a160eac934ce5099a768317c97d4632c8f859e504f4d839c7c10d349e7ee3a8"),
    ("QQ[X,Y,Z]", "X", 4, "auto", "random:2:0:1000",
     "e8286d846bb7555faab357d8541692561021ff1a7206efabb0da51bcb82ce027"),
    ("QQ[X,Y,Z]", "3*Y", 4, "auto", "random:8:0:1000",
     "48f60a8c086969ccfac7680a3f66afb67bc80ebd1dad0b59b00429043522d3d5"),
    ("ZZ[X,Y]", "X-Y", 4, "auto", "random:1:0:2",
     "82898a6491336def126c952699eaf8b77fb1177ae353e3eedfbf36b62df609e2"),
    ("ZZ[X,Y]", "X*Y+1", 4, "auto", "random:1:0:1",
     "25ba3ea2fa901696524e58f4bb08bc62d172a6203e9bf84ba4354596c55d7447"),
    ("GF(2)[X,Y,Z]", "X*Y", 4, "auto", "random:1:0:1",
     "566df09834137ba316bef4a63ec49481b4fc07010aa7f03817149871d97b7f30"),
    ("QQ[X,Y]", "X+Y", 3, "auto", "random:1:1:1",
     "42372f99fa812c616529034d961063cf7935ce21406d80e482c2531853cdedbe"),
    # lift chains: ZZ coefficients pushed into ZZ/(2), a two-variable GF(p)
    # ring, and QQ[T,T0], whose chain pushes into QQ[T]/(2*T) and whose
    # variables make _fresh_var pass over T and T0
    ("ZZ[X]", "2*X+1", 3, "auto", "random:3:1:1",
     "102dfc174058d0ac7d5310eab381ebbd84e698eab7e8405fecfbee72957e53a6"),
    ("GF(101)[X,Y]", "X+Y", 3, "auto", "random:5:1:1",
     "c84f4519bb1aec562c6832a77ef6336a35add27ae81f7d3710812a82190e360f"),
    ("QQ[T,T0]", "T*T0", 3, "auto", "random:1:1:2",
     "1207a1e5f07b236b95a11db9f116b882bcb756af03c3302bcd73f5856752650c"),
    # reply degree 14: the leaf quotient K[X]/(m) has dimension 18 and 16
    ("QQ[X]", "5*X^4-3*X^3+X-7", 2, "auto", "random:3:14:9",
     "2973d930a2fb64bc4b66fcaf884c1b417ad0a43a96840bdd8be1f47f12f3adcf"),
    ("QQ[X]", "-2*X^4+X^2+9", 2, "auto", "random:8:14:9",
     "987c1ab85ac064849e5a20b0cd68e425d57f4edce53cf38549280d5e3bfbbb65"),
    ("GF(32003)[X]", "4*X^2-7*X+3", 2, "auto", "random:5:14:9",
     "20d62faaf6c08015e2d7b955fb7139da548c008a269b1ca904f6e6b242f8c0f4"),
    # the zero-dimensional leaf on two-variable quotients: a unit x over QQ,
    # whose witness a = x^(-1) carries fractions, and x = X with e = 1
    ("QQ[X,Y]/(X^2+Y, Y^3)", "2*X-3", 1, "zeroDim", "random:2:0:5",
     "4a175152d5407d935456af6776d1289f79b3b1215aac76668c60484becf96642"),
    ("GF(3)[X,Y]/(X^2-Y, Y^2+X)", "X", 1, "zeroDim", "random:4:0:2",
     "0c3d9cc0c76ae538c180a90b9f2dd5dbc058f6a945ff9b8bd8b5b68607668f5f"),
    # a non-unit over QQ, whose witness a = -3/5*X + 2/5 (e = 2) is a
    # combination of the minimal polynomial scan's powers of x
    ("QQ[X]/(3*X^4-2*X^3+5*X^2)", "X", 1, "zeroDim", "random:3:2:5",
     "164fe62cc69458ce109399aefbb902ba0a430b62b7222836c03fd93d89227bc3"),
    # Groebner runs over 3 and 4 variables whose bytes change when the
    # DEGREVLEX tie-break is flipped (larger exponent in the last variable
    # ranked larger): they catch a wrong packed-key layout
    ("GF(3)[X,Y,Z]", "Y*Z", 4, "auto", "random:1:0:1",
     "b52ed08bfa8bc99555bdc4e276fcdf0410012e9bf18732f1e1ca58a316babb66"),
    ("GF(3)[X,Y,Z]", "X^2-Y", 4, "auto", "random:644354:0:1",
     "a0fed192f172add6a74b2f9191b5f221ee7c8671fcdfd9fe13af4c5530cbbe12"),
    ("GF(3)[X,Y,Z]", "X", 4, "auto", "random:698951:0:1",
     "97f73ba6cfdd0f7c6a1de67ebb164611980f4b92c897080c604a4cd1ec11e886"),
    ("QQ[X,Y,Z]", "Y*Z", 4, "auto", "random:3:0:1",
     "daea8fa847932c9be06866b10161d7861b15c9f9685cedbe65dc6a2e11494eae"),
    ("ZZ[X,Y]", "X+Y", 4, "auto", "random:3:0:2",
     "637136ff4f4031726e8209b79c175997d11e48e843c800b09ebd1525ad158955"),
    ("ZZ[X,Y]", "X+Y+1", 4, "auto", "random:4:0:2",
     "fd26369c94364b67766333f026f16d088aab2e7dd48c0dedef6d35bc1b62d134"),
    # constant replies, whose dependences take the closed form (T - b)^k:
    # over QQ[X,Y,Z] as in the benchmark's median stratum, and over ZZ[X,Y]
    # where two of them are taken over a coefficient ring that is a quotient
    ("QQ[X,Y,Z]", "-7*Y", 4, "auto", "random:438542:0:1000",
     "99aac2e226299a052bb9dc9c156cdecb96cac31eb1136b46a51b17721689ed24"),
    ("ZZ[X,Y]", "-Y", 4, "auto", "random:2:0:2",
     "5998d003c2e49b7e1fdc18ee3c22bf700a0af56a026584f61bf30cf4b8e738d1"),
    # constant replies whose transfers have k = 2 or 3, the last three with
    # a constraint whose constant coefficient is nonzero
    ("GF(2)[X,Y,Z]", "Z^2+X", 4, "auto", "constant(1)",
     "eab4693f2fe4f8f8326ea7bb460d431fe4af30db87289db4fcfa6bd85d8a08fe"),
    ("QQ[X,Y,Z]", "X*Y+Z", 4, "auto", "constant(2)",
     "0b757d09d3c3cb102c404f77ced5f5a950413239eee3d95e36b2dd79e68c4e9d"),
    ("GF(3)[X,Y,Z]", "Z^2+X", 4, "auto", "constant(2)",
     "1e0120e0684de4ce601c1496999ca294815b6227675c8ded01db72ab682a1ca8"),
    ("ZZ[X,Y]", "Y^2+X", 4, "auto", "constant(2)",
     "28225b9519e9cfaac8be0da41c4f659a7f0371cd92de47832996765e2278a440"),
    # the radical-witness Delayer, which no benchmark workload plays:
    # X*Y+1 is nilpotent modulo its square
    ("QQ[X,Y]", "X*Y+1", 3, "auto", "jacWitness(X^2*Y^2+2*X*Y+1)",
     "b938e03c92c935bada5851c9f29e6c89664e7985ecd89704da3fe68299ae2d85"),
]


@pytest.mark.parametrize(
    "ring_text,x_text,budget,prover_spec,delayer_spec,digest", PINNED_TRANSCRIPTS,
    ids=[f"{case[0]}:{case[1]}" for case in PINNED_TRANSCRIPTS],
)
def test_auto_transcript_bytes_are_pinned(
    ring_text, x_text, budget, prover_spec, delayer_spec, digest
):
    ring = parse_ring(ring_text)
    x = ring.element(x_text)
    prover = prover_from_spec(prover_spec, ring, x, x, budget)
    t = referee_play(ring, x, x, budget, prover, delayer_from_spec(delayer_spec, ring, x))
    assert t.winner == "prover"
    text = t.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    parsed = Transcript.from_json(text)
    assert parsed.to_json() == text
    assert verify_transcript(parsed)


# -- the paper's budgets, swept --------------------------------------------------

# K[X_1..X_n] is (1+n)-Jacobson and ZZ[X_1..X_n] is (2+n)-Jacobson.  The auto
# Prover plays each ring at that budget against constant replies and, where
# matches stay in the milliseconds, degree-1 replies (echo, random:3:1:1);
# on three-variable field rings and ZZ[X,Y] degree-1 replies still stall in
# _det's cofactor expansion (ROADMAP item 3), except the ZZ[X,Y] echo matches
# played after the sweep.
_CONSTANT_REPLIES = ["constant(1)", "random:1:0:1", "random:2:0:2"]
_ALL_REPLIES = _CONSTANT_REPLIES + ["echo", "random:3:1:1"]
_SHAPES = {
    "": ["0", "1", "2", "-6", "30"],
    "[X]": ["X", "X+1", "X^2+X", "2*X+1"],
    "[X,Y]": ["X", "Y", "X*Y+1", "X+Y", "X^2+Y"],
    "[X,Y,Z]": ["X", "Z", "X+Y*Z", "Y*Z+1", "X*Y*Z"],
}
_SWEPT_RINGS = [
    (base, vars, _CONSTANT_REPLIES if vars == "[X,Y,Z]" else _ALL_REPLIES)
    for base in ["GF(2)", "GF(3)", "QQ"] for vars in ["[X]", "[X,Y]", "[X,Y,Z]"]
] + [("ZZ", "", _ALL_REPLIES), ("ZZ", "[X]", _ALL_REPLIES), ("ZZ", "[X,Y]", _CONSTANT_REPLIES)]

# Replies that are all 1 (mod p) meet the tower fault (ROADMAP item 1): the
# auto Prover stops moving and loses; the diagnosis names the first round in
# which it proposed no move.
_TOWER_FAULT = [
    (ring, x, delayer)
    for ring, ones in [("GF(2)[X,Y,Z]", ["constant(1)", "random:1:0:1"]),
                       ("GF(3)[X,Y,Z]", ["constant(1)", "random:2:0:2"]),
                       ("QQ[X,Y,Z]", ["constant(1)"])]
    for x in ["X+Y*Z", "Y*Z+1"] for delayer in ones
] + [("ZZ[X,Y]", "X*Y+1", "constant(1)")]


def _auto_match(ring_text, x_text, delayer_spec):
    ring = parse_ring(ring_text)
    x = ring.element(x_text)
    budget = (2 if ring.base.kind == "ZZ" else 1) + len(ring.vars)
    prover = prover_from_spec("auto", ring, x, x, budget)
    return referee_play(ring, x, x, budget, prover, delayer_from_spec(delayer_spec, ring, x))


@pytest.mark.parametrize("base,vars,delayers", _SWEPT_RINGS, ids=[b + v for b, v, _ in _SWEPT_RINGS])
def test_auto_prover_wins_at_the_paper_budget(base, vars, delayers):
    ring_text = base + vars
    for x_text in _SHAPES[vars]:
        for delayer_spec in delayers:
            if (ring_text, x_text, delayer_spec) in _TOWER_FAULT:
                continue
            t = _auto_match(ring_text, x_text, delayer_spec)
            assert (t.winner, t.diagnosis) == ("prover", None), (x_text, delayer_spec)


# X*Y+1 and X^2+Y against echo still stall in _det (ROADMAP item 3).
@pytest.mark.parametrize("x_text", ["X", "Y", "X+Y"])
def test_auto_prover_wins_zz_xy_against_echo(x_text):
    t = _auto_match("ZZ[X,Y]", x_text, "echo")
    assert (t.winner, t.diagnosis) == ("prover", None)
    assert verify_transcript(Transcript.from_json(t.to_json()))


def test_a_silent_loss_names_the_round_with_no_move():
    t = _auto_match("GF(2)[X,Y,Z]", "X+Y*Z", "random:1:0:1")
    assert t.winner == "delayer"
    assert t.diagnosis == "prover proposed no move at budget 2 in round 2"
    assert [len(r.moves) for r in t.rounds] == [1, 2, 0]
    assert "diagnosis" not in t.to_json()
    assert verify_transcript(Transcript.from_json(t.to_json()))


def test_auto_prover_completes_no_basis_that_play_does_not_read(monkeypatch):
    # the chains normalize x only where integral dependence reads it, so the
    # quotients at their bottom are never completed
    from jacarena import rings

    completions = []
    groebner = rings.groebner

    def counting(*args, **kwargs):
        completions.append(args)
        return groebner(*args, **kwargs)

    monkeypatch.setattr(rings, "groebner", counting)
    t = _auto_match("GF(2)[X,Y,Z]", "X*Y+Z", "random:1:0:1")
    assert t.winner == "prover"
    assert len(completions) <= 9


@pytest.mark.xfail(strict=True, reason="the tower fault, ROADMAP item 1")
@pytest.mark.parametrize("ring_text,x_text,delayer_spec", _TOWER_FAULT,
                         ids=[":".join(case) for case in _TOWER_FAULT])
def test_auto_prover_loses_to_the_tower_fault(ring_text, x_text, delayer_spec):
    t = _auto_match(ring_text, x_text, delayer_spec)
    assert (t.winner, t.diagnosis) == ("prover", None)
