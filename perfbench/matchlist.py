"""Seeded match lists for the three workloads.

Every list has a fixed length and a fixed make-up of (ring, shape of x,
budget, reply degree and size) slots; the seed only picks coefficients,
moves and Delayer seeds inside each slot.  Keeping the make-up fixed keeps
the cost of one pass steady from seed to seed, and keeps the number of
expected failures a fixed share of the list.

A match is a plain tuple of texts, so the program sees only generated
inputs: ring text, x text, budget, Prover spec (or the scripted moves of a
one-round Prover) and Delayer spec.
"""

from __future__ import annotations

import random
from collections import namedtuple

# kind: "auto"   - auto Prover at the paper's budget, must end in a Prover win;
#       "fault"  - auto Prover on a match the engine is known to lose (tower);
#       "refuterZ" / "refuterPoly" - scripted one-round Prover against a
#                  diagonal refuter, must end in a Delayer win.
Match = namedtuple("Match", "ring x budget prover moves delayer kind")

WORKLOADS = ("dim1", "lift", "tower")

# J_4(GF(2)[X,Y,Z], x, x) for these x is lost by the auto Prover against a
# constant reply sequence starting with 1 (see README, "The tower fault").
# They do not depend on the seed, so they fail in every run.
TOWER_FAULTS = tuple(
    Match("GF(2)[X,Y,Z]", x, 4, "auto", None, f"random:{s}:0:1", "fault")
    for x in ("X+Y*Z", "X+Y*Z+1")
    for s in (1, 2, 3)
)


def _term(coeff, mono):
    if not mono:
        return str(abs(coeff))
    if abs(coeff) == 1:
        return mono
    return f"{abs(coeff)}*{mono}"


def poly_text(terms):
    """Render [(coeff, monomial text), ...] with clean signs, skipping zeros."""
    out = ""
    for coeff, mono in terms:
        if coeff == 0:
            continue
        body = _term(coeff, mono)
        if not out:
            out = f"-{body}" if coeff < 0 else body
        else:
            out += f" - {body}" if coeff < 0 else f" + {body}"
    return out or "0"


def _nonzero(rng, bound):
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _univariate(rng, degree, bound, var="X"):
    terms = [(_nonzero(rng, bound), f"{var}^{degree}" if degree > 1 else var)]
    for k in range(degree - 1, -1, -1):
        mono = f"{var}^{k}" if k > 1 else (var if k == 1 else "")
        terms.append((rng.randint(-bound, bound), mono))
    return poly_text(terms)


def _seed(rng):
    return rng.randrange(1_000_000)


def _auto(ring, x, budget, rng, degree, size):
    return Match(ring, x, budget, "auto", None, f"random:{_seed(rng)}:{degree}:{size}", "auto")


def _signed(rng, monomials, bound):
    return poly_text([(_nonzero(rng, bound), m) for m in monomials])


# Each list is built in three strata: cheap matches, a median stratum of
# matches over a large prime field (or with large constant replies) whose
# cost is set by degrees alone, and expensive matches.  The median
# stratum holds a quarter to a half of the list, so the per-match medians
# (match_p50_ms, verify_p50_ms) fall inside it for every seed.


def _dim1(rng):
    out = []
    # ZZ: N a random product of small prime powers, large integer replies.
    for _ in range(12):
        n = 1
        while n < 2:
            for p in (2, 3, 5, 7, 11, 13):
                n *= p ** rng.randint(0, 2)
        out.append(_auto("ZZ", str(n * rng.choice((1, -1))), 2, rng, 0, 10**12))
    # Lower-bound matches: one scripted round against the diagonal refuters.
    for _ in range(8):
        n = rng.choice((1, -1)) * rng.randint(2, 60)
        moves = tuple(str(rng.randint(-20, 20)) for _ in range(rng.randint(1, 3)))
        out.append(Match("ZZ", str(n), 1, "scripted", moves, "refuterZ", "refuterZ"))
    for ring in ("ZZ[X]",) * 8 + ("QQ[X]",) * 4 + ("GF(101)[X]",) * 4:
        moves = tuple(
            _univariate(rng, 1, 3) if rng.randint(0, 1) else _signed(rng, ("X",), 3)
            for _ in range(rng.randint(1, 2))
        )
        out.append(Match(ring, "X", 1, "scripted", moves, "refuterPoly", "refuterPoly"))
    # Median stratum: quadratic x, sextic replies, leaf quotient of dimension 8.
    for _ in range(24):
        out.append(_auto("GF(32003)[X]", _univariate(rng, 2, 9), 2, rng, 6, 9))
    # Expensive: reply degree 10 to 14, so K[X]/(m) has dimension up to 18.
    for ring in ("QQ[X]", "GF(101)[X]", "GF(32003)[X]"):
        for reply_deg in (10, 12, 14):
            for x_deg in (1, 2, 3, 4):
                out.append(_auto(ring, _univariate(rng, x_deg, 9), 2, rng, reply_deg, 9))
    return out


def _lift(rng):
    out = []
    for shape in (("X",), ("X", ""), ("X^2", ""), ("",)) * 3:
        out.append(_auto("ZZ[X]", _signed(rng, shape, 3), 3, rng, 1, 1))
    for shape in (("X",), ("Y",), ("X", "Y"), ("X",), ("Y",), ("X", "Y"), ("X",), ("Y",)):
        out.append(_auto("GF(101)[X,Y]", _signed(rng, shape, 1), 3, rng, 1, 1))
    # Median stratum: linear x against generic degree-1 replies.
    for shape in (("X",), ("Y",)) * 14:
        out.append(_auto("GF(32003)[X,Y]", _signed(rng, shape, 9), 3, rng, 1, 1000))
    # Rational coefficient growth, on shapes whose cost tail stays below a second.
    for shape in (("X",), ("Y",)) * 6:
        out.append(_auto("QQ[X,Y]", _signed(rng, shape, 2), 3, rng, 1, 1))
    return out


_GF2_SHAPES = (
    "X", "Y", "Z", "X*Y+Z", "X^2+Y", "X*Z+Y", "X+Y", "X+Z", "Y+Z", "X*Y",
    "X*Y*Z+1", "X+Y+Z", "X*Y+1", "X+1", "Z^2+X", "Y*Z", "X*Z+1", "X*Y+Z+1", "X^2+Y+1",
)


def _tower(rng):
    # Shapes of the form X+Y*Z and Y*Z+1 are left out of the seeded part,
    # over every base: the auto Prover loses them when the replies are all 1
    # (see TOWER_FAULTS), and a loss that depends on the seed cannot be
    # counted exactly.  Over ZZ, X*Y plus a constant has a cost tail of
    # seconds and is left out too.
    out = list(TOWER_FAULTS)
    out += [_auto("GF(2)[X,Y,Z]", x, 4, rng, 0, 1) for x in _GF2_SHAPES]
    for shape in (("X*Y", "Z"), ("X^2", "Y"), ("X",), ("Y*Z",)) * 2:
        out.append(_auto("GF(3)[X,Y,Z]", _signed(rng, shape, 1), 4, rng, 0, 1))
    for shape in (("X",), ("Y",), ("X", "Y"), ("X*Y",), ("",)) * 2:
        out.append(_auto("ZZ[X,Y]", _signed(rng, shape, 1), 4, rng, 0, 1))
    # Large constant replies make every constraint generic, so the cost of
    # these matches is set by the shape of x alone.
    for shape in (("X*Y", "Z"), ("X^2", "Y"), ("X",), ("Z",)) * 4:
        out.append(_auto("QQ[X,Y,Z]", _signed(rng, shape, 9), 4, rng, 0, 1000))
    # Median stratum.
    for _ in range(36):
        out.append(_auto("QQ[X,Y,Z]", _signed(rng, ("Y",), 9), 4, rng, 0, 1000))
    return out


def match_list(workload, seed):
    """The fixed-length list of matches for one workload and seed."""
    build = {"dim1": _dim1, "lift": _lift, "tower": _tower}[workload]
    return build(random.Random(f"{workload}:{seed}"))


def match_id(index, match):
    prover = match.prover if match.moves is None else f"scripted{list(match.moves)}"
    return f"{index:03d} {match.ring} x={match.x} b={match.budget} {prover} vs {match.delayer}"
