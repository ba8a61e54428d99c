"""The quadratic fields Q(sqrt(core)) with exact element arithmetic, and
the rules for values that are a Fraction or an element of one of them.

Local data at infinity (generalized exponents, their quotients, the
table's sqrt templates) live in Q or in one quadratic field
Q(sqrt(core)), core a squarefree integer other than 0 and 1: the leading
constants of a GT disguise of Sym²(K) lie there, and any other edge
factor is a named rejection (`generalized_exponents`).  So this is the
only kind of number field the package builds; `field_of` and
`value_sqrt` enforce that reach.  (`valuation_growth` works on
singularity classes of any degree, but keeps its own integer coordinate
lists over Z[theta'] and builds no field here.)  The loops at infinity
in `localdata` read these values as integer pairs (a, b) of
a + b·sqrt(core) over one denominator, with NFElems only for `roots`
and for the values they return.

A field is named by a radicand, an integer m other than 0 and 1 with
no square of a prime below ``TRIAL_BOUND`` dividing it: the squarefree
core of every rational that ``squarefree_core`` can reduce without
factoring a large integer (H. Cohen, *A Course in Computational
Algebraic Number Theory*, 1993, Ch. 5).  A radicand of at least
``TRIAL_BOUND``³ may still hide the square of a larger prime, so one
field can have several radicands: Q(sqrt m) = Q(sqrt m') exactly when
m·m' is a square, which ``math.isqrt`` decides.  Equal fields hash
alike, since they share the sign and the primes below the bound of
their radicands, and equal elements hash alike.  Mixing elements of two
radicands of one field writes the second over the first one's
generator; it never raises.

An element is (a + b·sqrt(core)) / den with integers a, b and den > 0,
gcd(a, b, den) = 1, so equality within one radicand is structural.
Sums, products, the conjugate and the inverse (the conjugate over the
norm) are the closed quadratic formulas followed by one gcd.
``coords`` gives (a/den, b/den) as Fractions for printing, keys and
square roots; the arithmetic never reads it.

A rational-valued element of any field mixes, compares and hashes like a
Fraction; irrational elements of two different fields do not mix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

from .poly import P

__all__ = [
    "NumberField",
    "NFElem",
    "demote",
    "field_of",
    "value_sqrt",
    "squarefree_core",
    "rational_sqrt",
    "TRIAL_BOUND",
]

#: radicands are reduced by trial division by the primes below this bound
TRIAL_BOUND = 1000


def _primes_below(n: int) -> list:
    """The sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


_SMALL_PRIMES = _primes_below(TRIAL_BOUND)


def _normal(field: "NumberField", a: int, b: int, den: int) -> "NFElem":
    """(a + b·y)/den, den > 0, with the common factor removed."""
    if den != 1:
        g = math.gcd(a, b, den)
        if g != 1:
            a, b, den = a // g, b // g, den // g
    return NFElem(field, a, b, den)


class NumberField:
    """Q(sqrt(core)) = Q[y]/(y² - core) for a radicand core that
    ``squarefree_core`` leaves as it is, other than 0 and 1; ``modulus``
    is y² - core, and y is the positive or upper-half root.

    Below ``TRIAL_BOUND``³ a radicand is the squarefree core.  Two
    radicands name one field when their product is a square, and such
    fields are equal and hash alike: the hash reads the sign and the
    primes below the bound, which the two radicands share.  A radicand
    with no prime above the bound is the field's only one."""

    __slots__ = ("core", "modulus", "name", "zero", "one", "gen", "_key", "_unique")

    def __init__(self, core: int):
        s, small, large = _split(abs(core)) if isinstance(core, int) and core else (0, 0, 0)
        if s != 1 or core == 1:
            raise ValueError(f"core {core} is not a radicand other than 0 and 1 "
                             "that squarefree_core leaves as it is")
        self.core = core
        self.modulus = P(-core, 0, 1)
        self.name = f"sqrt{core}" if core > 0 else f"sqrt_m{-core}"
        self._key = (core < 0, small)
        # with no prime above the bound, m·k² reduces to m for every k:
        # the field has this one radicand
        self._unique = large == 1
        self.zero = NFElem(self, 0, 0, 1)
        self.one = NFElem(self, 1, 0, 1)
        self.gen = NFElem(self, 0, 1, 1)

    def element(self, coords) -> "NFElem":
        """c_0 + c_1·y from at most two rational coordinates."""
        if len(coords) > 2:
            raise ValueError("too many coordinates")
        a, b = (Fraction(c) for c in (*coords, 0, 0)[:2])
        # over the lcm of the denominators the numerators are coprime to it
        den = math.lcm(a.denominator, b.denominator)
        return NFElem(self, a.numerator * (den // a.denominator),
                      b.numerator * (den // b.denominator), den)

    def from_rational(self, q) -> "NFElem":
        q = Fraction(q)
        return NFElem(self, q.numerator, 0, q.denominator)

    def coerce(self, v) -> "NFElem":
        if isinstance(v, NFElem):
            if v.field == self:
                return self._moved(v)
            if not v.is_rational():
                raise ValueError("element from a different field")
            return NFElem(self, v.a, 0, v.den)
        return self.from_rational(v)

    def _moved(self, v: "NFElem") -> "NFElem":
        """v, an element of a field equal to this one, over this field's
        generator: sqrt(m') = t·sqrt(m) with t = isqrt(m·m')/|m| > 0."""
        if v.field.core == self.core:
            return v
        m = abs(self.core)
        return _normal(self, v.a * m, v.b * math.isqrt(self.core * v.field.core), v.den * m)

    def __eq__(self, other):
        if not isinstance(other, NumberField):
            return False
        if self.core == other.core:
            return True
        n = self.core * other.core
        return self._key == other._key and math.isqrt(n) ** 2 == n

    def __hash__(self):
        return hash(("NumberField", self._key))

    def __repr__(self):
        return f"Q[{self.name}]/({self.modulus.to_str(self.name)})"


class NFElem:
    """(a + b·y) / den in Q(y), y² = core, in lowest terms with den > 0."""

    __slots__ = ("field", "a", "b", "den")

    def __init__(self, field: NumberField, a: int, b: int, den: int):
        self.field = field
        self.a = a
        self.b = b
        self.den = den

    @property
    def coords(self) -> Tuple[Fraction, Fraction]:
        return Fraction(self.a, self.den), Fraction(self.b, self.den)

    def is_rational(self) -> bool:
        return not self.b

    def as_rational(self) -> Fraction:
        if self.b:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.a, self.den)

    def __bool__(self):
        return bool(self.a or self.b)

    def _pair(self, other) -> Optional[Tuple["NFElem", "NFElem"]]:
        """(self, other) as elements of one field; None when other is
        irrational in another field (or not a number)."""
        if isinstance(other, NFElem):
            if other.field is self.field:
                return self, other
            if other.field == self.field:
                return self, self.field._moved(other)
            if not other.b:
                return self, NFElem(self.field, other.a, 0, other.den)
            if not self.b:
                return NFElem(other.field, self.a, 0, self.den), other
            return None
        if isinstance(other, int):
            return self, NFElem(self.field, other, 0, 1)
        if isinstance(other, Fraction):
            return self, NFElem(self.field, other.numerator, 0, other.denominator)
        return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        if x.den == y.den:
            return _normal(x.field, x.a + y.a, x.b + y.b, x.den)
        return _normal(x.field, x.a * y.den + y.a * x.den,
                       x.b * y.den + y.b * x.den, x.den * y.den)

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, -self.a, -self.b, self.den)

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return x + (-y)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        field = x.field
        return _normal(field, x.a * y.a + field.core * x.b * y.b,
                       x.a * y.b + x.b * y.a, x.den * y.den)

    __rmul__ = __mul__

    def inverse(self) -> "NFElem":
        """den·(a - b·y)/(a² - core·b²): the conjugate over the norm."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        a, b = self.a, self.b
        norm = a * a - self.field.core * b * b
        if norm < 0:
            a, b, norm = -a, -b, -norm
        return _normal(self.field, self.den * a, -self.den * b, norm)

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return x * y.inverse()

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return y * x.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def conjugate(self) -> "NFElem":
        """Galois conjugate: y -> -y."""
        return NFElem(self.field, self.a, -self.b, self.den)

    def norm(self) -> Fraction:
        return Fraction(self.a * self.a - self.field.core * self.b * self.b,
                        self.den * self.den)

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return x.den == y.den and x.a == y.a and x.b == y.b

    def __hash__(self):
        if not self.b:
            return hash(Fraction(self.a, self.den))
        field = self.field
        if field._unique:
            return hash((field.modulus.coeffs, self.coords))
        # a/den and b²·core/den² do not depend on the radicand
        return hash((field._key, Fraction(self.a, self.den),
                     Fraction(self.b * self.b * field.core, self.den * self.den)))

    def __repr__(self):
        return self.to_str()

    def to_str(self) -> str:
        a, b = self.coords
        if not b:
            return str(a)
        name = self.field.name
        t = name if b == 1 else f"-{name}" if b == -1 else f"{b}*{name}"
        if not a:
            return t
        return f"{a} - {t[1:]}" if t.startswith("-") else f"{a} + {t}"


def demote(v):
    """NFElem with rational value -> Fraction; everything else unchanged."""
    if isinstance(v, NFElem) and v.is_rational():
        return v.as_rational()
    return Fraction(v) if isinstance(v, int) else v


def field_of(values) -> Optional[NumberField]:
    """The one field holding the irrational values among Fractions and
    NFElems, None when all are rational; two fields raise."""
    found = None
    for v in values:
        if isinstance(v, NFElem) and not v.is_rational():
            if found is None:
                found = v.field
            elif v.field != found:
                raise ValueError("unsupported extension degree")
    return found


# -- square roots -------------------------------------------------------------


def _split(n: int) -> Tuple[int, int, int]:
    """n > 0 as (s, small, large) with n = s²·small·large: small is the
    product of the primes below ``TRIAL_BOUND`` that divide n to an odd
    power, and large has no prime below the bound and is no square.
    Below ``TRIAL_BOUND``³ such a large is 1, p or p·q with distinct
    primes, so small·large is the squarefree core; above, it may hide the
    square of a larger prime."""
    s = small = 1
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        e = 0
        while not n % p:
            n //= p
            e += 1
        if e:
            s *= p ** (e // 2)
            if e % 2:
                small *= p
    r = math.isqrt(n)
    if r * r == n:
        return s * r, small, 1
    if n < TRIAL_BOUND:  # the loop stopped at p² > n, a prime
        return s, small * n, 1
    return s, small, n


def squarefree_core(q: Fraction) -> Tuple[Fraction, int]:
    """Write q = outside^2 * core with core a radicand carrying the sign
    and outside a positive rational; (0, 1) for q = 0.

    The numerator and the denominator are reduced apart by ``_split``,
    with no integer factored: core is the squarefree core when it is
    below ``TRIAL_BOUND``³, and a radicand of the same field otherwise."""
    q = Fraction(q)
    if not q:
        return Fraction(0), 1
    sn, small_n, large_n = _split(abs(q.numerator))
    sd, small_d, large_d = _split(q.denominator)
    core_d = small_d * large_d  # q = (sn / (sd·core_d))² · core_n·core_d
    core = small_n * large_n * core_d
    return Fraction(sn, sd * core_d), -core if q < 0 else core


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """The nonnegative square root of q when q is a rational square, else
    None.  In lowest terms q is a square exactly when its numerator and
    denominator are, which integer square roots decide without factoring."""
    q = Fraction(q)
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(n, d) if n * n == q.numerator and d * d == q.denominator else None


def value_sqrt(v):
    """A square root of v, or None.

    A rational always has one: a Fraction, or outside·y in Q(sqrt core)
    for q = outside²·core (the positive or upper-half root).  An NFElem
    has one only inside its own field, rational values included: there
    (u + w·y)² = d0 + d1·y means u² + core·w² = d0 and 2uw = d1, so
    u² = (d0 ± N)/2 with N² = d0² - core·d1² the norm.  Only a rational
    that is no square is reduced by ``squarefree_core``, for the radicand
    of its field; every other test is ``rational_sqrt``."""
    if not isinstance(v, NFElem):
        root = rational_sqrt(v)
        if root is not None:
            return root
        outside, core = squarefree_core(Fraction(v))
        return NumberField(core).element([0, outside])
    field = v.field
    d0, d1 = v.coords
    if not d1:
        root = rational_sqrt(d0)
        if root is not None:
            return field.from_rational(root)
        w = rational_sqrt(d0 / field.core)  # d0 = w²·core
        return None if w is None else field.element([0, w])
    nrm = rational_sqrt(d0 * d0 - field.core * d1 * d1)
    if nrm is None:
        return None
    for n in (nrm, -nrm):
        u = rational_sqrt((d0 + n) / 2)
        if u:
            return field.element([u, d1 / (2 * u)])
    return None
