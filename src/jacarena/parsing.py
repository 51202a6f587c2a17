"""Text grammar for rings and polynomial expressions.

    ring  := base vars? quot?
    base  := "ZZ" | "QQ" | "GF(" integer ")"
    vars  := "[" ident ("," ident)* "]"
    quot  := "/(" poly ("," poly)* ")" | "/" poly
    poly  := the usual +, -, *, ^ with parentheses, integer literals and
             identifiers; "/" divides by an invertible constant so that
             rational coefficients round-trip.

Text exactly as ``Polynomial.to_text`` prints it, terms joined by " + " and
" - ", each [-]c[/d]*V^e*..., is read by one regular-expression scan
(``_scan``) straight into a {packed monomial: coefficient} dict.  Any other
text goes to the recursive-descent ``_Parser``, which builds each term as a
Polynomial and raises every error, with its position in the text: a degree
past ``DEGREE_BOUND``, a coefficient past the 4,300 digits that cap a
literal and a power or product of sums that would take the text past its
expansion budget, at the token that built it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, lcm

from .algebra import DEGREE_BOUND, GF, QQ, ZZ, Polynomial, degree, pack
from .errors import RingSyntaxError, UnknownVariable


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


# Python's default limit on int <-> str conversion, which already caps a
# literal; no coefficient built over ZZ or QQ may pass it either.  A number
# of b bits is at least 2^(b-1), so (b-1)*e above _LIMIT_BITS =
# floor(log2(10^4300)) rules c^e out before it is computed; the operands of
# a product, quotient or sum are below the cap, so its result is cheap to
# compute and compare.
_MAX_DIGITS = 4300
_COEFF_LIMIT = 10**_MAX_DIGITS
_LIMIT_BITS = 14284

# A power of a sum of t terms, of total degree at most d in n variables,
# has at most C(e+t-1, t-1) terms, and no more than the C(n+e*d, n)
# monomials of total degree at most e*d; its coefficients have at most
# e * bit_length(sum of |c|) bits (over QQ, of the numerators over a common
# denominator D, and of D^e).  Repeated squaring makes about terms^2
# products, and a product of two sums one per pair of their terms, each
# dearer by a unit per 512 bits and 32 times dearer for a Fraction.  One
# text, a whole ring included, gets _POWER_WORK of that work (0.2-0.65 s on
# a 2-core x86-64 host); the power or product that would pass it is refused.
_POWER_WORK = 1 << 31


@lru_cache(maxsize=64)
def _variable_monomials(vars):
    """name -> packed monomial of that variable over vars; one dict per vars,
    shared by every parser over them, so read only."""
    n = len(vars)
    return {name: pack(tuple(int(j == i) for j in range(n)), n) for i, name in enumerate(vars)}


class _Parser:
    def __init__(self, text, ring, vars):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.work = 0
        self.scope(ring, vars)

    def scope(self, ring, vars):
        """Read expressions over ``ring`` and the variables ``vars``."""
        self.ring = ring
        self.vars = tuple(vars)
        self.n = len(self.vars)
        self.monomials = _variable_monomials(self.vars)

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok.kind != kind:
            raise RingSyntaxError(f"expected {kind!r}, found {tok.text or 'end'!r}", tok.pos)
        self.i += 1
        return tok

    def parse_poly(self):
        return Polynomial._raw(self.ring, self.vars, self.parse_sum())

    def parse_sum(self):
        """term (("+" | "-") term)*, as a {monomial: coefficient} dict."""
        acc = {}
        negate = False
        op = None
        while True:
            for m, c in self.parse_term().terms.items():
                if m in acc:
                    acc[m] = v = acc[m] - c if negate else acc[m] + c
                    self._check_digits((v,), op, "sum")
                else:
                    acc[m] = -c if negate else c
            if self.peek().kind not in ("+", "-"):
                break
            op = self.take()
            negate = op.kind == "-"
        normalize = self.ring.normalize
        return {m: v for m, c in acc.items() if (v := normalize(c))}

    def parse_term(self):
        result = self.parse_signed()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.parse_signed()
            if op.kind == "*":
                result = self._multiply(result, rhs, op)
            else:
                result = self._divide(result, rhs, op)
        return result

    def _multiply(self, a, b, tok):
        if len(a.terms) > 1 and len(b.terms) > 1:
            (ta, top_a, den_a), (tb, top_b, den_b) = _size(a), _size(b)
            bits = top_a.bit_length() + top_b.bit_length()
            self._charge("product of sums", ta * tb, ta * tb, bits, den_a * den_b, tok)
        if a.terms and b.terms:
            # the largest packed monomials have the largest degrees
            self._check_degree(degree(max(a.terms) + max(b.terms), self.n), tok)
        product = a * b
        self._check_digits(product.terms.values(), tok, "product")
        return product

    def _divide(self, lhs, rhs, tok):
        d = rhs.terms.get(0)
        if not d or len(rhs.terms) > 1:
            raise RingSyntaxError("divisor must be a nonzero constant", tok.pos)
        ring = self.ring
        try:
            # an exact quotient of a nonzero coefficient is nonzero
            quotient = {m: ring.exact_div(c, d) for m, c in lhs.terms.items()}
        except ValueError as exc:
            raise RingSyntaxError(str(exc), tok.pos) from None
        self._check_digits(quotient.values(), tok, "quotient")
        return Polynomial._raw(ring, self.vars, quotient)

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
            base = self._power(base, self.take_int(), tok)
        return base

    def _power(self, base, e, tok):
        self._check_power(base, e, tok)
        power = base**e
        self._check_digits(power.terms.values(), tok, "power")
        return power

    def _check_power(self, base, e, tok):
        """Refuse base^e at tok before it is expanded: past the degree bound,
        past _LIMIT_BITS bits for a single term, or past the text's expansion
        budget for a sum.  A single term's power is then cheap to build; its
        digits are checked on the power itself, which ``_power`` builds."""
        if not (base.terms and e):
            return
        # the largest packed monomial has the largest degree
        d = degree(max(base.terms), self.n)
        self._check_degree(d * e, tok)
        if len(base.terms) > 1:
            t, top, den = _size(base)
            terms = min(comb(e + t - 1, t - 1), comb(self.n + d * e, self.n))
            self._charge("power of a sum", terms, terms * terms, e * top.bit_length(), den, tok)
        elif self.ring.kind != "GF":
            (c,) = base.terms.values()
            if any((x.bit_length() - 1) * e > _LIMIT_BITS for x in (c.numerator, c.denominator)):
                raise RingSyntaxError(f"a power's coefficient would pass {_MAX_DIGITS} digits", tok.pos)

    def _charge(self, what, terms, pairs, bits, den, tok):
        """Add an expansion of ``pairs`` term products, up to ``terms`` terms
        of ``bits``-bit coefficients over denominator ``den``, to the text's
        work; refuse it at tok if the work would pass _POWER_WORK."""
        if self.ring.p:
            bits = self.ring.p.bit_length()
        before = self.work
        self.work += pairs * (bits + 512) * (32 if den > 1 else 1)
        if self.work > _POWER_WORK:
            rest = " with the rest of the text" if before else ""
            # a count past 4,300 digits would not even print
            size = f"up to {terms}" if terms < 10**18 else "over 10^18"
            raise RingSyntaxError(
                f"a {what} is too large to expand{rest}: {size} terms"
                f" of {bits}-bit coefficients", tok.pos
            )

    def _check_digits(self, coeffs, tok, what):
        """Refuse at tok a coefficient past _MAX_DIGITS digits; residues mod p
        are reduced and always pass."""
        for c in coeffs:
            if not (-_COEFF_LIMIT < c.numerator < _COEFF_LIMIT and c.denominator < _COEFF_LIMIT):
                message = f"a {what}'s coefficient would pass {_MAX_DIGITS} digits"
                raise RingSyntaxError(message, tok.pos)

    def _check_degree(self, d, tok):
        if d >= DEGREE_BOUND:
            raise RingSyntaxError(f"total degree {d} is not below {DEGREE_BOUND}", tok.pos)

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            return Polynomial.constant(self.ring, self.take_int(), self.vars)
        if tok.kind == "ident":
            self.take()
            m = self.monomials.get(tok.text)
            if m is None:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.pos)
            return Polynomial._raw(self.ring, self.vars, {m: 1})
        if tok.kind == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise RingSyntaxError(f"parentheses nest deeper than {MAX_NESTING}", tok.pos)
            terms = self.parse_sum()
            self.take(")")
            self.depth -= 1
            return Polynomial._raw(self.ring, self.vars, terms)
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


def _size(poly):
    """(terms, top, D) of a sum: D the common denominator of its coefficients
    (1 over ZZ and GF(p)), top the larger of D and the sum of the numerators'
    absolute values over D."""
    cs = poly.terms.values()
    den = reduce(lcm, (c.denominator for c in cs), 1)
    top = sum(abs(c.numerator) * (den // c.denominator) for c in cs)
    return len(cs), max(top, den), den


# One term as ``Polynomial.to_text`` prints it, after its " + " or " - ":
# c, c/d, c*M, c/d*M or M, with ASCII literals c and d of at most _MAX_DIGITS
# digits, and M names or powers name^e (e of at most 10 digits) joined by
# "*".  The last group takes any other character, so the matches cover the text.
_TERM = re.compile(
    rf" ([-+]) (?:(\d{{1,{_MAX_DIGITS}}})(?:/(\d{{1,{_MAX_DIGITS}}}))?(?:\*(?=[A-Za-z_])|(?= |\Z))"
    r"|(?=[A-Za-z_]))((?:[A-Za-z_]\w*(?:\^\d{1,10})?\*)*[A-Za-z_]\w*(?:\^\d{1,10})?)?(?= |\Z)|(.)",
    re.ASCII | re.DOTALL,
)


def _scan(text, ring, vars):
    """The terms of text printed as ``to_text`` prints, as ``_Parser`` reads
    them, or None for any other text: other spacing or symbols, a literal
    _TERM refuses, an unknown name, a total degree of DEGREE_BOUND or more,
    a repeated monomial, a zero coefficient or "/" over ZZ."""
    if text == "0":
        return {}
    monomials = _variable_monomials(vars)
    p = ring.p
    terms = {}
    signed = f" - {text[1:]}" if text[:1] == "-" else f" + {text}"
    for sign, num, den, mono, other in _TERM.findall(signed):
        if other:
            return None
        c = int(num) if num else 1
        if den:
            d = int(den) % p if p else int(den)
            if not d or ring.kind == "ZZ":
                return None
            c = c * pow(d, -1, p) if p else ring.normalize(Fraction(c, d))
        if p:
            c %= p
        if not c:
            return None
        m = total = 0
        for name, _, e in (f.partition("^") for f in mono.split("*")) if mono else ():
            if name not in monomials:
                return None
            e = int(e) if e else 1
            total += e
            m += monomials[name] * e
        if total >= DEGREE_BOUND or m in terms:
            return None
        terms[m] = ring.neg(c) if sign == "-" else c
    return terms


def parse_polynomial(text, ring, vars):
    """Parse an expression into a raw Polynomial over the given variables:
    printed text through ``_scan``, all other text through ``_Parser``."""
    terms = _scan(text, ring, vars)
    if terms is not None:
        return Polynomial._raw(ring, vars, terms)
    parser = _Parser(text, ring, vars)
    poly = parser.parse_poly()
    parser.expect_end()
    return poly


def _check_power(poly, e):
    """Refuse poly^e, with the RingSyntaxError that the text "(poly)^e" would
    raise, before a sum is expanded: past the degree bound, past 4,300 digits
    for a single term, or past one text's expansion budget for a sum."""
    parser, tok = _Parser("", poly.ring, poly.vars), _Token("^", "^", None)
    parser._check_power(poly, e, tok)
    if len(poly.terms) == 1:
        parser._check_digits((poly**e).terms.values(), tok, "power")


def parse_ring(text):
    """Parse a ring presentation such as ``ZZ[x,y]/(x^2+1)``, ``GF(5)[x]`` or ``ZZ/4``.

    The presentations of the 64 texts used last are kept in a cache keyed
    by the text, so equal texts give one presentation, shared between
    callers together with the basis it completes on first use; callers must
    not change it.  A refusal is never cached: it is raised again on every
    call, with its message and position.  A text that is not a ``str`` is
    refused with RingSyntaxError.
    """
    if not isinstance(text, str):  # no cache key, like the [] argparse gives for "--ring=--"
        raise RingSyntaxError(f"a ring text must be a string, not {type(text).__name__}")
    return _parse_ring(text)


@lru_cache(maxsize=64)
def _parse_ring(text):
    from .rings import RingPresentation  # rings imports this module

    parser = _Parser(text, None, ())
    base = parser.parse_base()
    parser.scope(base, parser.parse_vars())
    relations = parser.parse_relations()
    parser.expect_end()
    return RingPresentation(parser.ring, parser.vars, relations)
