"""Exact multivariate polynomial arithmetic over ZZ, QQ, and prime fields.

Coefficients are plain ``int`` (ZZ and GF(p), the latter stored as residues
in [0, p)) or ``fractions.Fraction`` (QQ, always reduced with positive
denominator).  No floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IncompatibleRings


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class CoefficientRing:
    """Base coefficient domain: integers, rationals, or a prime field GF(p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("ZZ", "QQ", "GF"):
            raise ValueError(f"unknown coefficient ring kind {kind!r}")
        if kind == "GF":
            if p is None or not _is_prime(p):
                raise ValueError(f"GF modulus must be a prime, got {p!r}")
        elif p is not None:
            raise ValueError("only GF takes a modulus")
        self.kind = kind
        self.p = p

    @property
    def is_field(self):
        return self.kind != "ZZ"

    def normalize(self, value):
        """Coerce an int/Fraction into this ring's canonical coefficient form."""
        if self.kind == "ZZ":
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an integer")
                return int(value)
            return int(value)
        if self.kind == "QQ":
            return value if type(value) is Fraction else Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    def zero(self):
        return Fraction(0) if self.kind == "QQ" else 0

    def one(self):
        return Fraction(1) if self.kind == "QQ" else 1

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
        """Divide a by b, raising if the quotient leaves the ring."""
        if self.kind == "ZZ":
            q, r = divmod(a, b)
            if r != 0:
                raise ValueError(f"{a} is not divisible by {b} over ZZ")
            return q
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


class Monomial:
    """Exponent vector with trailing zeros stripped.

    Two monomials over the same variable list compare equal exactly when
    their exponent vectors agree after zero padding, which the stripped
    representation gives for free.
    """

    __slots__ = ("exps", "_hash")

    def __init__(self, exps):
        t = tuple(exps)
        while t and t[-1] == 0:
            t = t[:-1]
        if any(e < 0 for e in t):
            raise ValueError(f"negative exponent in {t}")
        self.exps = t
        self._hash = hash(t)

    def degree(self):
        return sum(self.exps)

    def exponent(self, i):
        return self.exps[i] if i < len(self.exps) else 0

    def padded(self, n):
        return self.exps + (0,) * (n - len(self.exps))

    def mul(self, other):
        n = max(len(self.exps), len(other.exps))
        return Monomial(a + b for a, b in zip(self.padded(n), other.padded(n)))

    def divides(self, other):
        return all(a <= b for a, b in zip(self.exps, other.padded(len(self.exps))))

    def div(self, other):
        n = max(len(self.exps), len(other.exps))
        return Monomial(a - b for a, b in zip(self.padded(n), other.padded(n)))

    def lcm(self, other):
        n = max(len(self.exps), len(other.exps))
        return Monomial(max(a, b) for a, b in zip(self.padded(n), other.padded(n)))

    def is_one(self):
        return not self.exps

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial{self.exps}"


_ONE_MONOMIAL = Monomial(())


class MonomialOrder:
    """Total multiplicative monomial order over a fixed variable list.

    LEX compares exponent vectors left to right.  DEGREVLEX compares total
    degree first and breaks ties by the reverse lexicographic rule (the
    monomial with the smaller exponent in the last differing slot is larger).
    """

    __slots__ = ("kind", "vars", "_cache")

    def __init__(self, kind, vars):
        if kind not in ("LEX", "DEGREVLEX"):
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.vars = tuple(vars)
        self._cache = {}

    def key(self, mono):
        cached = self._cache.get(mono)
        if cached is not None:
            return cached
        exps = mono.padded(len(self.vars))
        if self.kind == "LEX":
            result = exps
        else:
            result = (sum(exps), tuple(-e for e in reversed(exps)))
        self._cache[mono] = result
        return result

    def greater(self, a, b):
        return self.key(a) > self.key(b)

    def leading(self, terms):
        """Leading (monomial, coefficient) of a nonzero term dict."""
        m = max(terms, key=self.key)
        return m, terms[m]

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash((self.kind, self.vars))

    def __repr__(self):
        return f"MonomialOrder({self.kind}, {self.vars})"


def merge_vars(a, b):
    """Union of two variable lists, keeping the order of the first."""
    merged = list(a)
    for name in b:
        if name not in merged:
            merged.append(name)
    return tuple(merged)


class Polynomial:
    """Immutable sparse polynomial: variable list plus monomial -> coefficient map."""

    __slots__ = ("ring", "vars", "terms", "_key_cache")

    def __init__(self, ring, vars, terms):
        self.ring = ring
        self.vars = tuple(vars)
        clean = {}
        for mono, coeff in terms.items():
            if not isinstance(mono, Monomial):
                mono = Monomial(mono)
            if len(mono.exps) > len(self.vars):
                raise ValueError(f"monomial {mono} has no slot in {self.vars}")
            c = ring.normalize(coeff)
            if c != ring.zero():
                clean[mono] = ring.add(clean[mono], c) if mono in clean else c
                if clean[mono] == ring.zero():
                    del clean[mono]
        self.terms = clean
        self._key_cache = None

    @classmethod
    def _raw(cls, ring, vars, terms):
        """Unchecked constructor for internal paths with already-canonical terms."""
        obj = object.__new__(cls)
        obj.ring = ring
        obj.vars = vars
        obj.terms = terms
        obj._key_cache = None
        return obj

    @classmethod
    def zero(cls, ring, vars=()):
        return cls._raw(ring, tuple(vars), {})

    @classmethod
    def constant(cls, ring, value, vars=()):
        return cls(ring, vars, {_ONE_MONOMIAL: value})

    @classmethod
    def variable(cls, ring, name, vars=None):
        vars = (name,) if vars is None else tuple(vars)
        i = vars.index(name)
        return cls(ring, vars, {Monomial((0,) * i + (1,)): ring.one()})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(m.is_one() for m in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get(_ONE_MONOMIAL, self.ring.zero())

    def total_degree(self):
        return max((m.degree() for m in self.terms), default=-1)

    def degree_in(self, var):
        i = self.vars.index(var)
        return max((m.exponent(i) for m in self.terms), default=-1)

    def _key(self):
        """Hash key that ignores the order of ``vars`` and unused names in it.

        Equality aligns variable lists by name, so each monomial is keyed by
        its (name, exponent) pairs with nonzero exponent, sorted by name.
        """
        if self._key_cache is None:
            vars = self.vars
            self._key_cache = (
                self.ring,
                frozenset(
                    (tuple(sorted((vars[i], e) for i, e in enumerate(m.exps) if e)), c)
                    for m, c in self.terms.items()
                ),
            )
        return self._key_cache

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self.vars == other.vars:
            return self.terms == other.terms
        a, b = align(self, other)
        return a.terms == b.terms

    def __hash__(self):
        return hash(self._key())

    def remap(self, new_vars):
        """Re-express over a variable list that contains every used variable."""
        new_vars = tuple(new_vars)
        if new_vars == self.vars:
            return self
        idx = []
        for i, name in enumerate(self.vars):
            if name in new_vars:
                idx.append(new_vars.index(name))
            else:
                idx.append(None)
        terms = {}
        for mono, coeff in self.terms.items():
            exps = [0] * len(new_vars)
            for i, e in enumerate(mono.exps):
                if e == 0:
                    continue
                if idx[i] is None:
                    raise ValueError(
                        f"variable {self.vars[i]!r} used in {self} but absent from {new_vars}"
                    )
                exps[idx[i]] = e
            terms[Monomial(exps)] = coeff
        return Polynomial(self.ring, new_vars, terms)

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
        a, b = align(self, other)
        terms = dict(a.terms)
        ring = a.ring
        zero = ring.zero()
        for mono, coeff in b.terms.items():
            c = ring.add(terms.get(mono, zero), coeff)
            if c == zero:
                terms.pop(mono, None)
            else:
                terms[mono] = c
        return Polynomial._raw(ring, a.vars, terms)

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
        a, b = align(self, other)
        ring = a.ring
        zero = ring.zero()
        terms = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = m1.mul(m2)
                c = ring.add(terms.get(m, zero), ring.mul(c1, c2))
                if c == zero:
                    terms.pop(m, None)
                else:
                    terms[m] = c
        return Polynomial._raw(ring, a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {e!r}")
        result = Polynomial.constant(self.ring, 1, self.vars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, coeff):
        ring = self.ring
        c0 = ring.normalize(coeff)
        if c0 == ring.zero():
            return Polynomial.zero(ring, self.vars)
        return Polynomial._raw(
            ring, self.vars, {m: ring.mul(c, c0) for m, c in self.terms.items()}
        )

    def mul_term(self, mono, coeff):
        ring = self.ring
        c0 = ring.normalize(coeff)
        if c0 == ring.zero():
            return Polynomial.zero(ring, self.vars)
        return Polynomial._raw(
            ring,
            self.vars,
            {m.mul(mono): ring.mul(c, c0) for m, c in self.terms.items()},
        )

    def coefficients_in(self, var):
        """Split by powers of one variable: degree -> polynomial in the others."""
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        split = {}
        for mono, coeff in self.terms.items():
            d = mono.exponent(i)
            exps = list(mono.padded(len(self.vars)))
            del exps[i]
            split.setdefault(d, {})[Monomial(exps)] = coeff
        return {d: Polynomial(self.ring, rest, t) for d, t in split.items()}

    def substitute(self, bindings):
        """Simultaneous substitution; unbound variables are unchanged."""
        target_vars = self.vars
        for name, value in bindings.items():
            if not isinstance(value, Polynomial):
                raise TypeError("bindings must map names to polynomials")
            if value.ring != self.ring:
                raise IncompatibleRings(f"{value} is not over {self.ring}")
            target_vars = merge_vars(target_vars, value.vars)
        result = Polynomial.zero(self.ring, target_vars)
        for mono, coeff in self.terms.items():
            factor = Polynomial.constant(self.ring, coeff, target_vars)
            for i, e in enumerate(mono.exps):
                if e == 0:
                    continue
                name = self.vars[i]
                if name in bindings:
                    factor = factor * bindings[name].remap(
                        merge_vars(target_vars, bindings[name].vars)
                    ) ** e
                else:
                    factor = factor * Polynomial.variable(
                        self.ring, name, target_vars
                    ) ** e
            result = result + factor
        return result

    def __repr__(self):
        return f"Polynomial({self.to_text()!r}, vars={self.vars})"

    def to_text(self):
        """Render in the expression grammar; ``parse`` round-trips this."""
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms.items(),
            key=lambda kv: (kv[0].degree(), kv[0].padded(len(self.vars))),
            reverse=True,
        )
        pieces = []
        for mono, coeff in ordered:
            factors = []
            for i, e in enumerate(mono.exps):
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


def align(a, b):
    """Put two polynomials over a merged variable list, by name."""
    if a.ring != b.ring:
        raise IncompatibleRings(f"{a.ring} vs {b.ring}")
    if a.vars == b.vars:
        return a, b
    merged = merge_vars(a.vars, b.vars)
    return a.remap(merged), b.remap(merged)
