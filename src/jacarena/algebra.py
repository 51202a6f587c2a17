"""Exact multivariate polynomial arithmetic over ZZ, QQ, and prime fields.

Coefficients are plain ``int`` over ZZ and GF(p), the latter stored as
residues in [0, p).  A QQ coefficient is an ``int`` when it is an integer and
a reduced ``fractions.Fraction`` otherwise; arithmetic may leave an integral
``Fraction`` behind, which equals, hashes and prints like its ``int``.  No
floating point appears anywhere.

A monomial over n variables is one int, after Monagan & Pearce 2011
(*Sparse polynomial division using a heap*): exponent i sits in a 32-bit
field at bit 32*i and the total degree in the field at bit 32*n.  The top bit
of each field is a guard bit, clear while the total degree is below
DEGREE_BOUND = 2^31.  A product of monomials is then a sum of ints, a
quotient a difference, divisibility one subtraction under a mask, and the
DEGREVLEX key one shift and one subtraction.  Exponent tuples come in through
``pack`` and the checking ``Polynomial`` constructor, which raise
DegreeOverflow at the bound; so do a product, a power and ``mul_term`` whose
degree would reach it.

Arithmetic builds its results canonical by construction (packed monomials,
reduced nonzero coefficients) through the unchecked ``_raw`` constructors;
input from outside goes through the checking ones.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegreeOverflow, IncompatibleRings


# Miller-Rabin to the first 13 prime bases is exact below psi_13 (Sorenson &
# Webster 2015); psi_13 itself is a strong pseudoprime to all 13 bases.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MODULUS_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin test for 0 <= n < _MODULUS_BOUND."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CoefficientRing:
    """Base coefficient domain: integers, rationals, or a prime field GF(p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("ZZ", "QQ", "GF"):
            raise ValueError(f"unknown coefficient ring kind {kind!r}")
        if kind == "GF":
            if p is not None and p >= _MODULUS_BOUND:
                raise ValueError(f"GF modulus must be below {_MODULUS_BOUND}, got {p}")
            if p is None or not _is_prime(p):
                raise ValueError(f"GF modulus must be a prime, got {p!r}")
        elif p is not None:
            raise ValueError("only GF takes a modulus")
        self.kind = kind
        self.p = p

    def normalize(self, value):
        """Coerce an int/Fraction into this ring's canonical coefficient form.

        Any value that is not an ``int`` goes through ``Fraction``, so a
        float is converted exactly, never truncated.  Over QQ an integral
        value becomes an ``int``; over ZZ a value that is not an integer
        raises ValueError; over GF(p) a/b becomes a * b^(-1) mod p.
        """
        if type(value) is not int:
            value = value if type(value) is Fraction else Fraction(value)
            if self.kind == "QQ":
                return value.numerator if value.denominator == 1 else value
            if self.kind == "ZZ":
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an integer")
                return value.numerator
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return value % self.p if self.kind == "GF" else value

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        c = a + b
        return c % self.p if self.kind == "GF" else c

    def sub(self, a, b):
        c = a - b
        return c % self.p if self.kind == "GF" else c

    def mul(self, a, b):
        c = a * b
        return c % self.p if self.kind == "GF" else c

    def neg(self, a):
        return -a % self.p if self.kind == "GF" else -a

    def invert(self, a):
        if self.kind == "QQ":
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        if self.kind == "GF":
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.p)
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not invertible over ZZ")

    def exact_div(self, a, b):
        """The canonical a / b for b nonzero, raising ValueError if the
        quotient leaves the ring."""
        if self.kind == "ZZ":
            q, r = divmod(a, b)
            if r != 0:
                raise ValueError(f"{a} is not divisible by {b} over ZZ")
            return q
        if self.kind == "QQ":
            return self.normalize(Fraction(a, b))
        return self.mul(a, self.invert(b))

    def __eq__(self, other):
        return (
            isinstance(other, CoefficientRing)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.kind == "GF" else self.kind


ZZ = CoefficientRing("ZZ")
QQ = CoefficientRing("QQ")


def GF(p):
    return CoefficientRing("GF", p)


# Packed monomials: field width, field mask, and the bound on total degree.
# Fields hold values below 2^31, so a sum of two never carries into the next
# field, and the degree field on top makes the largest packed int of a
# polynomial one of largest degree.
_W = 32
_FIELD = (1 << _W) - 1
DEGREE_BOUND = 1 << (_W - 1)


def pack(exps, n):
    """The packed monomial of an exponent vector over n variables.

    Entries past the n-th must be zero.  A negative exponent raises
    ValueError, a total degree of DEGREE_BOUND or more DegreeOverflow.
    """
    exps = tuple(exps)
    if len(exps) > n and any(exps[n:]):
        raise ValueError(f"exponents {exps} have no slot in {n} variables")
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {exps}")
    exps = exps[:n]
    _check_degree(sum(exps))
    return _pack(exps, n)


def _pack(exps, n):
    m = sum(exps) << (n * _W)
    for i, e in enumerate(exps):
        m |= e << (i * _W)
    return m


def exponents(m, n):
    """The exponent vector of a packed monomial over n variables."""
    return tuple((m >> (i * _W)) & _FIELD for i in range(n))


def degree(m, n):
    """The total degree of a packed monomial over n variables."""
    return m >> (n * _W)


def _check_degree(degree):
    if degree >= DEGREE_BOUND:
        raise DegreeOverflow(f"total degree {degree} is not below {DEGREE_BOUND}")


class MonomialOrder:
    """DEGREVLEX order on the packed monomials over a fixed variable list.

    Total degree is compared first, and ties are broken by the reverse
    lexicographic rule (the monomial with the smaller exponent in the last
    differing slot is larger).  The key ``((m >> nW) << (nW + 1)) - m`` is
    d*2^(nW) minus the exponent fields: the degree d decides first, then the
    fields read from the last variable down, each smaller one larger.
    """

    __slots__ = ("vars", "shift", "guards")

    def __init__(self, vars):
        self.vars = tuple(vars)
        self.shift = len(self.vars) * _W
        # the guard bit of each of the n + 1 fields
        self.guards = DEGREE_BOUND * (((1 << (self.shift + _W)) - 1) // _FIELD)

    def key(self, m):
        s = self.shift
        return ((m >> s) << (s + 1)) - m

    def leading(self, terms):
        """Leading (monomial, coefficient) of a nonzero term dict."""
        m = max(terms, key=self.key)
        return m, terms[m]

    def divides(self, a, b):
        """Whether monomial a divides b: every field of (b | guards) - a keeps its guard."""
        g = self.guards
        return ((b | g) - a) & g == g

    def lcm(self, a, b):
        """Fieldwise maximum of a and b, with its degree.  Not checked against
        the bound: only ``mul_term``, which checks, multiplies by it."""
        n = len(self.vars)
        return _pack(tuple(map(max, exponents(a, n), exponents(b, n))), n)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        return f"MonomialOrder({self.vars})"


class Polynomial:
    """Immutable sparse polynomial: variable list plus packed monomial -> coefficient map.

    Arithmetic and equality take the ring and the variable list as part of
    the type; ``remap`` is the one way from one variable list to another.
    """

    __slots__ = ("ring", "vars", "terms")

    def __init__(self, ring, vars, terms):
        """Checking constructor; ``terms`` maps exponent tuples to coefficients."""
        self.ring = ring
        self.vars = tuple(vars)
        n = len(self.vars)
        clean = {}
        for exps, coeff in terms.items():
            mono = pack(exps, n)
            c = ring.normalize(coeff)
            if c != ring.zero():
                clean[mono] = ring.add(clean[mono], c) if mono in clean else c
                if clean[mono] == ring.zero():
                    del clean[mono]
        self.terms = clean

    @classmethod
    def _raw(cls, ring, vars, terms):
        """Unchecked constructor for internal paths with already-canonical terms."""
        obj = object.__new__(cls)
        obj.ring = ring
        obj.vars = vars
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, ring, vars=()):
        return cls._raw(ring, tuple(vars), {})

    @classmethod
    def constant(cls, ring, value, vars=()):
        c = ring.normalize(value)
        return cls._raw(ring, tuple(vars), {0: c} if c != ring.zero() else {})

    @classmethod
    def variable(cls, ring, name, vars=None):
        vars = (name,) if vars is None else tuple(vars)
        i = vars.index(name)
        return cls._raw(ring, vars, {(1 << (i * _W)) | (1 << (len(vars) * _W)): ring.one()})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(m == 0 for m in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get(0, self.ring.zero())

    def degree_in(self, var):
        at = self.vars.index(var) * _W
        return max(((m >> at) & _FIELD for m in self.terms), default=-1)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.vars, frozenset(self.terms.items())))

    def remap(self, new_vars):
        """Re-express over a variable list that contains every used variable."""
        new_vars = tuple(new_vars)
        if new_vars == self.vars:
            return self
        n, n2 = len(self.vars), len(new_vars)
        if new_vars[:n] == self.vars:
            # appended variables: the exponent fields stay, the degree moves up
            s, s2 = n * _W, n2 * _W
            low = (1 << s) - 1
            terms = {(m & low) | ((m >> s) << s2): c for m, c in self.terms.items()}
            return Polynomial._raw(self.ring, new_vars, terms)
        idx = [new_vars.index(name) if name in new_vars else None for name in self.vars]
        # The renaming is one-to-one on the used variables, so distinct
        # monomials stay distinct and the coefficients stay canonical.
        terms = {}
        for mono, coeff in self.terms.items():
            exps = [0] * n2
            for i, e in enumerate(exponents(mono, n)):
                if e == 0:
                    continue
                if idx[i] is None:
                    raise ValueError(
                        f"variable {self.vars[i]!r} used in {self} but absent from {new_vars}"
                    )
                exps[idx[i]] = e
            terms[_pack(exps, n2)] = coeff
        return Polynomial._raw(self.ring, new_vars, terms)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.ring, other, self.vars)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        _check_compatible(self, other)
        terms = dict(self.terms)
        ring = self.ring
        zero = ring.zero()
        for mono, coeff in other.terms.items():
            c = ring.add(terms.get(mono, zero), coeff)
            if c == zero:
                terms.pop(mono, None)
            else:
                terms[mono] = c
        return Polynomial._raw(ring, self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        return Polynomial._raw(
            ring, self.vars, {m: ring.neg(c) for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        _check_compatible(self, other)
        ring = self.ring
        if not self.terms or not other.terms:
            return Polynomial._raw(ring, self.vars, {})
        _check_degree((max(self.terms) + max(other.terms)) >> (len(self.vars) * _W))
        terms = {}
        get = terms.get
        b_terms = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in b_terms:
                m = m1 + m2
                terms[m] = get(m, 0) + c1 * c2
        if ring.kind == "GF":
            p = ring.p
            terms = {m: r for m, c in terms.items() if (r := c % p)}
        else:
            terms = {m: c for m, c in terms.items() if c}
        return Polynomial._raw(ring, self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {e!r}")
        if e == 0:
            return Polynomial.constant(self.ring, 1, self.vars)
        base, result = self, None
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def scale(self, coeff):
        ring = self.ring
        c0 = ring.normalize(coeff)
        if c0 == ring.zero():
            return Polynomial.zero(ring, self.vars)
        return Polynomial._raw(
            ring, self.vars, {m: ring.mul(c, c0) for m, c in self.terms.items()}
        )

    def mul_term(self, mono, coeff):
        """coeff * mono * self, for a packed monomial over ``vars``."""
        ring = self.ring
        c0 = ring.normalize(coeff)
        if c0 == ring.zero() or not self.terms:
            return Polynomial.zero(ring, self.vars)
        _check_degree((max(self.terms) + mono) >> (len(self.vars) * _W))
        return Polynomial._raw(
            ring,
            self.vars,
            {m + mono: ring.mul(c, c0) for m, c in self.terms.items()},
        )

    def coefficients_in(self, var):
        """Split by powers of one variable: degree -> polynomial in the others."""
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        at = i * _W
        below = (1 << at) - 1
        top = len(rest) * _W
        split = {}
        for mono, coeff in self.terms.items():
            d = (mono >> at) & _FIELD
            # drop field i: the fields above it, the degree's too, move down one
            rest_mono = (mono & below) | (((mono >> (at + _W)) << at) - (d << top))
            split.setdefault(d, {})[rest_mono] = coeff
        return {d: Polynomial._raw(self.ring, rest, t) for d, t in split.items()}

    def __repr__(self):
        return f"Polynomial({self.to_text()!r}, vars={self.vars})"

    def to_text(self):
        """Render in the expression grammar; ``parse`` round-trips this.

        Terms come by total degree, then by exponent vector, largest first.
        """
        if not self.terms:
            return "0"
        n = len(self.vars)
        shift = n * _W
        ordered = sorted(
            ((m >> shift, exponents(m, n), c) for m, c in self.terms.items()),
            reverse=True,
        )
        pieces = []
        for _, exps, coeff in ordered:
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(self.vars[i])
                elif e > 1:
                    factors.append(f"{self.vars[i]}^{e}")
            body = "*".join(factors)
            neg, mag = _coeff_text(coeff)
            if body and mag == "1":
                text = body
            elif body:
                text = f"{mag}*{body}"
            else:
                text = mag
            if not pieces:
                pieces.append(f"-{text}" if neg else text)
            else:
                pieces.append(f" - {text}" if neg else f" + {text}")
        return "".join(pieces)


def _coeff_text(coeff):
    if isinstance(coeff, Fraction):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        return neg, (str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}")
    neg = coeff < 0
    return neg, str(-coeff if neg else coeff)


def _check_compatible(a, b):
    """Refuse two polynomials over different coefficient rings or variable lists."""
    if a.ring != b.ring:
        raise IncompatibleRings(f"{a.ring} vs {b.ring}")
    if a.vars != b.vars:
        raise IncompatibleRings(f"variables {a.vars} vs {b.vars}; remap one of them")
