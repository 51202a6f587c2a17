"""Text grammar for rings and polynomial expressions.

    ring  := base vars? quot?
    base  := "ZZ" | "QQ" | "GF(" integer ")"
    vars  := "[" ident ("," ident)* "]"
    quot  := "/(" poly ("," poly)* ")" | "/" poly
    poly  := the usual +, -, *, ^ with parentheses, integer literals and
             identifiers; "/" divides by an invertible constant so that
             rational coefficients round-trip.

Terms are read straight into packed monomials with their coefficients, so
text such as ``Polynomial.to_text`` prints is read without a Polynomial
product or power.  Errors carry their position in the text: a degree past
``DEGREE_BOUND``, a coefficient past the 4,300 digits that cap a literal and
a power or product of sums that would take the text past its expansion
budget, at the token that built it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb, lcm
from operator import mul

from .algebra import DEGREE_BOUND, GF, QQ, ZZ, Polynomial, degree, pack
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


# Python's default limit on int <-> str conversion, which already caps a
# literal; no coefficient built over ZZ or QQ may pass it either.  A number
# of b bits is at least 2^(b-1), so (b-1)*e above _LIMIT_BITS =
# floor(log2(10^4300)) rules c^e out before it is computed; the operands of
# a product, quotient or sum are below the cap, so its result is cheap to
# compute and compare.
_MAX_DIGITS = 4300
_COEFF_LIMIT = 10**_MAX_DIGITS
_LIMIT_BITS = 14284

# A power of a sum of t terms has at most C(e+t-1, t-1) terms, of at most
# e * bit_length(sum of |c|) bits (over QQ, of the numerators over a common
# denominator D, and of D^e).  Repeated squaring makes about terms^2
# products, and a product of two sums one per pair of their terms, each
# dearer by a unit per 512 bits and 32 times dearer for a Fraction.  One
# text, a whole ring included, gets _POWER_WORK of that work (0.2-0.65 s on
# a 2-core x86-64 host); the power or product that would pass it is refused.
_POWER_WORK = 1 << 31

# A single term is read as a (coefficient, packed monomial) pair, and a sum
# of terms into one dict.  Only a parenthesised sub-expression of two or
# more terms is a Polynomial; its zeroth power and its product with zero
# are pairs, and all else computed from it keeps two or more terms, so a
# constant is always a pair.  A zero term is (0, 0), so that, as in
# Polynomial arithmetic, a product with zero checks no degree.
_ZERO = (0, 0)


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
            term = self.parse_term()
            pairs = ((term[1], term[0]),) if type(term) is tuple else term.terms.items()
            for m, c in pairs:
                if m in acc:
                    acc[m] = v = acc[m] - c if negate else acc[m] + c
                    self._capped((v, m), op, "sum")
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
        if type(a) is not tuple:
            a, b = b, a
        if type(a) is not tuple:
            (ta, top_a, den_a), (tb, top_b, den_b) = _size(a), _size(b)
            bits = top_a.bit_length() + top_b.bit_length()
            self._charge("product of sums", ta * tb, ta * tb, bits, den_a * den_b, tok)
            return self._capped(_bounded(mul, a, b, tok), tok, "product")
        c, m = a
        if not c:
            return _ZERO
        if type(b) is not tuple:
            return self._capped(_bounded(b.mul_term, m, c, tok), tok, "product")
        if not b[0]:
            return _ZERO
        m += b[1]
        self._check_degree(degree(m, self.n), tok)
        return self._capped((self.ring.normalize(c * b[0]), m), tok, "product")

    def _divide(self, lhs, rhs, tok):
        if type(rhs) is not tuple or rhs[1] or not rhs[0]:
            raise RingSyntaxError("divisor must be a nonzero constant", tok.pos)
        d = rhs[0]
        ring = self.ring
        try:
            if type(lhs) is tuple:
                return self._capped((ring.exact_div(lhs[0], d), lhs[1]), tok, "quotient")
            # an exact quotient of a nonzero coefficient is nonzero
            quotient = {m: ring.exact_div(c, d) for m, c in lhs.terms.items()}
            return self._capped(Polynomial._raw(ring, self.vars, quotient), tok, "quotient")
        except ValueError as exc:
            raise RingSyntaxError(str(exc), tok.pos) from None

    def parse_signed(self):
        negate = False
        while self.peek().kind in ("+", "-"):
            negate ^= self.take().kind == "-"
        result = self.parse_power()
        if not negate:
            return result
        if type(result) is tuple:
            return self.ring.neg(result[0]), result[1]
        return -result

    def parse_power(self):
        base = self.parse_atom()
        while self.peek().kind == "^":
            self.take()
            tok = self.peek()
            base = self._power(base, self.take_int(), tok)
        return base

    def _power(self, base, e, tok):
        if e == 0:
            return 1, 0
        if type(base) is not tuple:
            # the largest packed monomial has the largest degree
            self._check_degree(degree(max(base.terms), self.n) * e, tok)
            t, top, den = _size(base)
            terms = comb(e + t - 1, t - 1)
            self._charge("power of a sum", terms, terms * terms, e * top.bit_length(), den, tok)
            return self._capped(base**e, tok, "power")
        c, m = base
        if not c:
            return _ZERO
        self._check_degree(degree(m, self.n) * e, tok)
        m *= e
        ring = self.ring
        if ring.kind == "GF":
            return pow(c, e, ring.p), m
        if any((x.bit_length() - 1) * e > _LIMIT_BITS for x in (c.numerator, c.denominator)):
            raise RingSyntaxError(f"a power's coefficient would pass {_MAX_DIGITS} digits", tok.pos)
        return self._capped((c**e, m), tok, "power")

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
            raise RingSyntaxError(
                f"a {what} is too large to expand{rest}: up to {terms} terms"
                f" of {bits}-bit coefficients", tok.pos
            )

    def _capped(self, value, tok, what):
        """value, a pair or a Polynomial, unless one of its coefficients passes
        _MAX_DIGITS digits; residues mod p are reduced and always pass."""
        for c in (value[0],) if type(value) is tuple else value.terms.values():
            if not (-_COEFF_LIMIT < c.numerator < _COEFF_LIMIT and c.denominator < _COEFF_LIMIT):
                message = f"a {what}'s coefficient would pass {_MAX_DIGITS} digits"
                raise RingSyntaxError(message, tok.pos)
        return value

    def _check_degree(self, d, tok):
        if d >= DEGREE_BOUND:
            raise RingSyntaxError(f"total degree {d} is not below {DEGREE_BOUND}", tok.pos)

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            return self.ring.normalize(self.take_int()), 0
        if tok.kind == "ident":
            self.take()
            m = self.monomials.get(tok.text)
            if m is None:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.pos)
            return 1, m
        if tok.kind == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise RingSyntaxError(f"parentheses nest deeper than {MAX_NESTING}", tok.pos)
            terms = self.parse_sum()
            self.take(")")
            self.depth -= 1
            if len(terms) > 1:
                return Polynomial._raw(self.ring, self.vars, terms)
            return next(((c, m) for m, c in terms.items()), _ZERO)
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


def parse_polynomial(text, ring, vars):
    """Parse an expression into a raw Polynomial over the given variables."""
    parser = _Parser(text, ring, vars)
    poly = parser.parse_poly()
    parser.expect_end()
    return poly


def parse_ring(text):
    """Parse a ring presentation such as ``ZZ[x,y]/(x^2+1)``, ``GF(5)[x]`` or ``ZZ/4``."""
    from .rings import RingPresentation

    parser = _Parser(text, None, ())
    base = parser.parse_base()
    parser.scope(base, parser.parse_vars())
    relations = parser.parse_relations()
    parser.expect_end()
    return RingPresentation(parser.ring, parser.vars, relations)
