"""Outcome checks that share no code with jacarena.

Transcripts are read as text and expanded with a small polynomial
arithmetic of their own: a polynomial is a dict from exponent tuples to
coefficients, which are ints over ZZ, Fractions over QQ and residues over
GF(p).  From that the module checks the Nullstellensatz certificate of a
Prover win and the forced constraint of a refuter's Delayer win, and gives
the paper's budget for a polynomial ring.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RING = re.compile(r"^(ZZ|QQ|GF\((\d+)\))(?:\[([^\]]*)\])?(?:/(.*))?$")
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\S))")


class Ring:
    """Coefficient base plus variable names, parsed from ring text."""

    def __init__(self, text):
        m = _RING.match(text.strip())
        if not m:
            raise ValueError(f"unreadable ring {text!r}")
        self.kind = "GF" if m.group(2) else m.group(1)
        self.p = int(m.group(2)) if m.group(2) else None
        self.vars = tuple(v.strip() for v in m.group(3).split(",")) if m.group(3) else ()
        self.relations = [self.parse(r) for r in _split_relations(m.group(4))]

    def coeff(self, value):
        if self.kind == "QQ":
            return Fraction(value)
        if isinstance(value, Fraction):
            if self.kind == "GF":
                return value.numerator * pow(value.denominator, -1, self.p) % self.p
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer")
            return value.numerator
        return value % self.p if self.kind == "GF" else value

    def const(self, value):
        c = self.coeff(value)
        return {(0,) * len(self.vars): c} if c else {}

    def add(self, a, b, sign=1):
        return self.add_into(dict(a), b, sign)

    def add_into(self, out, b, sign=1):
        for m, c in b.items():
            v = self.coeff(out.get(m, 0) + sign * c)
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def mul(self, a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return {m: v for m, c in out.items() if (v := self.coeff(c))}

    def pow(self, a, e):
        out = self.const(1)
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def parse(self, text):
        return _Parser(self, text).parse()


def _split_relations(text):
    if not text:
        return []
    if not (text.startswith("(") and text.endswith(")")):
        return [text]
    parts, depth, start = [], 0, 1
    for i, ch in enumerate(text[1:-1], start=1):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:-1])
    return parts


class _Parser:
    """expr := term (+|- term)*; term := unary (*|/ unary)*;
    unary := -unary | +unary | atom [^ int]; atom := int | var | ( expr )."""

    def __init__(self, ring, text):
        self.ring = ring
        self.tokens = [t for t in _TOKEN.findall(text) if any(t)]
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _op(self, chars):
        tok = self._peek()
        if tok and tok[2] and tok[2] in chars:
            self.pos += 1
            return tok[2]
        return None

    def parse(self):
        out = self._expr()
        if self._peek() is not None:
            raise ValueError(f"trailing input in {self.tokens}")
        return out

    def _expr(self):
        acc = dict(self._term())
        while (op := self._op("+-")) is not None:
            self.ring.add_into(acc, self._term(), 1 if op == "+" else -1)
        return acc

    def _term(self):
        acc = self._unary()
        while (op := self._op("*/")) is not None:
            rhs = self._unary()
            if op == "*":
                acc = self.ring.mul(acc, rhs)
            else:
                if any(any(m) for m in rhs) or not rhs:
                    raise ValueError("division by a non-constant or zero")
                (c,) = rhs.values()
                inv = Fraction(1, c) if self.ring.kind != "GF" else pow(c, -1, self.ring.p)
                acc = {m: v for m, x in acc.items() if (v := self.ring.coeff(x * inv))}
        return acc

    def _unary(self):
        op = self._op("+-")
        if op == "-":
            return self.ring.add({}, self._unary(), -1)
        if op == "+":
            return self._unary()
        base = self._atom()
        if self._op("^"):
            tok = self.tokens[self.pos]
            self.pos += 1
            base = self.ring.pow(base, int(tok[0]))
        return base

    def _atom(self):
        tok = self._peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        if tok[0]:
            return self.ring.const(int(tok[0]))
        if tok[1]:
            exps = [0] * len(self.ring.vars)
            exps[self.ring.vars.index(tok[1])] = 1
            return {tuple(exps): self.ring.coeff(1)}
        if tok[2] == "(":
            inner = self._expr()
            if self._op(")") is None:
                raise ValueError("missing )")
            return inner
        raise ValueError(f"unexpected {tok[2]!r}")


def paper_budget(ring_text):
    """Budget the paper proves enough: 1+n over a field, 2+n over ZZ."""
    ring = Ring(ring_text)
    if ring.relations:
        raise ValueError("the budget theorem covers polynomial rings only")
    return (2 if ring.kind == "ZZ" else 1) + len(ring.vars)


def constraints(ring, obj):
    """The constraints 1 - b(1 - a*x) of a transcript, in play order."""
    x = ring.parse(obj["x"])
    one = ring.const(1)
    out = []
    for rnd in obj["rounds"]:
        for a, b in zip(rnd["moves"], rnd["replies"]):
            inner = ring.add(one, ring.mul(ring.parse(a), x), -1)
            out.append(ring.add(one, ring.mul(ring.parse(b), inner), -1))
    return out


def certificate_holds(obj):
    """x'^e == sum c_i g_i over relations + constraints, by expansion."""
    ring = Ring(obj["ring"])
    gens = ring.relations + constraints(ring, obj)
    cert = obj["certificate"]
    lhs = ring.pow(ring.parse(obj["xPrime"]), cert["e"])
    rhs = {}
    for key, text in cert["cofactors"].items():
        index = int(key)
        if not 0 <= index < len(gens):
            return False
        ring.add_into(rhs, ring.mul(ring.parse(text), gens[index]))
    return lhs == rhs


def _has_foreign_prime(c, n):
    """True when some prime factor of c does not divide n."""
    c = abs(c)
    while (g := math.gcd(c, n)) > 1:
        while c % g == 0:
            c //= g
    return c > 1


def refuter_z_holds(obj):
    """Every constraint equals c = 1 + |N prod(1 - a_i N)|, and c has a
    prime factor missing from N, so no power of N lies in (c)."""
    ring = Ring(obj["ring"])
    n = int(ring.parse(obj["x"]).get((), 0))
    moves = [int(ring.parse(a).get((), 0)) for a in obj["rounds"][0]["moves"]]
    forced = n
    for a in moves:
        forced *= 1 - a * n
    forced = 1 + abs(forced)
    forced_by_play = constraints(ring, obj)
    return (
        not ring.vars
        and bool(forced_by_play)
        and all(c == ring.const(forced) for c in forced_by_play)
        and _has_foreign_prime(forced, n)
    )


def refuter_poly_holds(obj):
    """Every constraint equals h = 1 - X*g with g = prod(1 - f_i X) != 0,
    so X is a unit modulo h and no power of it lies in (h)."""
    ring = Ring(obj["ring"])
    var = len(ring.vars) - 1
    xvar = {tuple(int(i == var) for i in range(len(ring.vars))): ring.coeff(1)}
    one = ring.const(1)
    g = one
    for f in obj["rounds"][0]["moves"]:
        g = ring.mul(g, ring.add(one, ring.mul(ring.parse(f), xvar), -1))
    h = ring.add(one, ring.mul(xvar, g), -1)
    forced_by_play = constraints(ring, obj)
    return (
        ring.parse(obj["x"]) == xvar
        and bool(g)
        and bool(forced_by_play)
        and all(c == h for c in forced_by_play)
    )
