"""Text grammar for rings and polynomial expressions.

    ring  := base vars? quot?
    base  := "ZZ" | "QQ" | "GF(" integer ")"
    vars  := "[" ident ("," ident)* "]"
    quot  := "/(" poly ("," poly)* ")" | "/" poly
    poly  := the usual +, -, *, ^ with parentheses, integer literals and
             identifiers; "/" divides by an invertible constant so that
             rational coefficients round-trip.
"""

from __future__ import annotations

from operator import mul

from .algebra import GF, QQ, ZZ, Polynomial
from .errors import DegreeOverflow, RingSyntaxError, UnknownVariable


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r}, {self.pos})"


_PUNCT = set("+-*/^(),[]")

# Deepest parenthesis nesting an expression may have; the recursive descent
# below needs a few stack frames per level.
MAX_NESTING = 100


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
        elif ch in _PUNCT:
            tokens.append(_Token(ch, ch, i))
            i += 1
        else:
            raise RingSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


def _bounded(op, a, b, tok):
    """op(a, b), with a degree past the bound reported at tok."""
    try:
        return op(a, b)
    except DegreeOverflow as exc:
        raise RingSyntaxError(str(exc), tok.pos) from None


class _Parser:
    def __init__(self, text, ring, vars):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.ring = ring
        self.vars = tuple(vars)

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok.kind != kind:
            raise RingSyntaxError(f"expected {kind!r}, found {tok.text or 'end'!r}", tok.pos)
        self.i += 1
        return tok

    def parse_poly(self):
        result = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.parse_term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def parse_term(self):
        result = self.parse_signed()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.parse_signed()
            if op.kind == "*":
                result = _bounded(mul, result, rhs, op)
            else:
                result = self._divide(result, rhs)
        return result

    def _divide(self, lhs, rhs):
        tok = self.tokens[self.i - 1]
        if not rhs.is_constant() or rhs.is_zero():
            raise RingSyntaxError("divisor must be a nonzero constant", tok.pos)
        value = rhs.constant_value()
        try:
            inv = self.ring.invert(value)
        except ZeroDivisionError:
            try:
                # an exact quotient of a nonzero integer is a nonzero integer
                return Polynomial._raw(
                    lhs.ring,
                    lhs.vars,
                    {m: self.ring.exact_div(c, value) for m, c in lhs.terms.items()},
                )
            except ValueError as exc:
                raise RingSyntaxError(str(exc), tok.pos) from None
        return lhs.scale(inv)

    def parse_signed(self):
        negate = False
        while self.peek().kind in ("+", "-"):
            negate ^= self.take().kind == "-"
        result = self.parse_power()
        return -result if negate else result

    def parse_power(self):
        base = self.parse_atom()
        while self.peek().kind == "^":
            self.take()
            tok = self.peek()
            base = _bounded(pow, base, self.take_int(), tok)
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            return Polynomial.constant(self.ring, self.take_int(), self.vars)
        if tok.kind == "ident":
            self.take()
            if tok.text not in self.vars:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.pos)
            return Polynomial.variable(self.ring, tok.text, self.vars)
        if tok.kind == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise RingSyntaxError(f"parentheses nest deeper than {MAX_NESTING}", tok.pos)
            inner = self.parse_poly()
            self.take(")")
            self.depth -= 1
            return inner
        raise RingSyntaxError(f"unexpected {tok.text or 'end'!r}", tok.pos)

    def take_int(self):
        tok = self.take("int")
        try:
            return int(tok.text)
        except ValueError as exc:  # longer than Python's integer-string limit
            raise RingSyntaxError(str(exc), tok.pos) from None

    def parse_list(self, item, close):
        """item ("," item)* close"""
        items = [item()]
        while self.peek().kind == ",":
            self.take()
            items.append(item())
        self.take(close)
        return items

    def parse_base(self):
        tok = self.take("ident")
        if tok.text == "ZZ":
            return ZZ
        if tok.text == "QQ":
            return QQ
        if tok.text != "GF":
            raise RingSyntaxError(f"unknown base ring {tok.text!r}", tok.pos)
        self.take("(")
        p_tok = self.take("int")
        self.take(")")
        try:
            return GF(int(p_tok.text))
        except ValueError as exc:
            raise RingSyntaxError(str(exc), p_tok.pos) from None

    def parse_vars(self):
        vars = []
        if self.peek().kind == "[":
            self.take()
            for tok in self.parse_list(lambda: self.take("ident"), "]"):
                if tok.text in vars:
                    raise RingSyntaxError(f"duplicate variable {tok.text!r}", tok.pos)
                vars.append(tok.text)
        return tuple(vars)

    def parse_relations(self):
        if self.peek().kind != "/":
            return []
        self.take()
        if self.peek().kind == "(":
            self.take()
            return self.parse_list(self.parse_poly, ")")
        return [self.parse_poly()]

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            raise RingSyntaxError(f"trailing input {tok.text!r}", tok.pos)


def parse_polynomial(text, ring, vars):
    """Parse an expression into a raw Polynomial over the given variables."""
    parser = _Parser(text, ring, vars)
    poly = parser.parse_poly()
    parser.expect_end()
    return poly.remap(tuple(vars))


def parse_ring(text):
    """Parse a ring presentation such as ``ZZ[x,y]/(x^2+1)``, ``GF(5)[x]`` or ``ZZ/4``."""
    from .rings import RingPresentation

    parser = _Parser(text, None, ())
    parser.ring = parser.parse_base()
    parser.vars = parser.parse_vars()
    relations = parser.parse_relations()
    parser.expect_end()
    return RingPresentation(parser.ring, parser.vars, relations)
