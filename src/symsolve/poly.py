"""Dense univariate polynomials over an exact coefficient ring.

Coefficients are duck typed: anything supporting +, -, *, ==, bool and
(for the field operations) / works, so the same class serves Q, quadratic
number fields, and polynomials-over-polynomials.  Rationals are stdlib
``fractions.Fraction``; plain ints are accepted and coerced lazily, with
the one rule that coefficient division always goes through Fraction so an
int/int never produces a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from math import lcm as _lcm
from typing import Iterable, Optional

__all__ = ["Poly", "P", "poly_gcd", "poly_lcm", "rational_content"]


def _fieldify(c):
    # ints must not hit true division
    return Fraction(c) if isinstance(c, int) else c


class Poly:
    """Immutable dense polynomial; coefficients ascending, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            if len(self.coeffs) != len(other.coeffs):
                return False
            return all(a == b for a, b in zip(self.coeffs, other.coeffs))
        if len(self.coeffs) > 1:
            return NotImplemented  # a scalar never equals it; a RatFunc decides
        return (self.coeffs[0] if self.coeffs else 0) == other

    def __hash__(self):
        # a constant hashes as the scalar it equals
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not other:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        if len(a) == 1:
            return Poly(tuple(a[0] * c for c in b))
        if len(b) == 1:
            return Poly(tuple(c * b[0] for c in a))
        return Poly(_list_mul(a, b))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- field (division) operations ------------------------------------

    def divmod(self, other: "Poly"):
        """Quotient and remainder; coefficient ring must be a field."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(), self
        rem = [_fieldify(c) for c in self.coeffs]
        dlc = _fieldify(other.lead())
        db = other.degree
        quo = [0] * (len(rem) - db)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c / dlc
            quo[k - db] = q
            for j, oc in enumerate(other.coeffs):
                rem[k - db + j] = rem[k - db + j] - q * oc
        return Poly(quo), Poly(rem[:db])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if r:
            raise ValueError("inexact polynomial division")
        return q

    def __truediv__(self, other):
        if isinstance(other, Poly):
            return self.exact_div(other)
        return self * (Fraction(1) / _fieldify(other))

    def monic(self) -> "Poly":
        if not self:
            return self
        inv = Fraction(1) / _fieldify(self.lead())
        return Poly(tuple(c * inv for c in self.coeffs))

    # -- structural maps -------------------------------------------------

    def shift(self, a) -> "Poly":
        """p(x + a), synthetic Taylor shift."""
        if not self or not a:
            return self
        return Poly(_list_shift(self.coeffs, a))

    def eval(self, v):
        """Horner evaluation; v may be a scalar or a Poly (composition)."""
        if not self.coeffs:
            return 0 * v if isinstance(v, Poly) else Fraction(0)
        acc = self.coeffs[-1]
        if isinstance(v, Poly):
            acc = Poly.const(acc)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def __call__(self, v):
        return self.eval(v)

    def map_coeffs(self, f) -> "Poly":
        return Poly(tuple(f(c) for c in self.coeffs))

    # -- content over Q ---------------------------------------------------

    def is_rational(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coeffs)

    def content(self) -> Fraction:
        """Positive rational content; content(0) = 0."""
        return rational_content(self.coeffs)

    def primitive(self) -> "Poly":
        """self / content, leading coefficient made positive."""
        c = self.content()
        if not c:
            return self
        if self.lead() < 0:
            c = -c
        return Poly(tuple(Fraction(a) / c for a in self.coeffs))

    def int_coeffs(self) -> list:
        """Coefficients as ints; raises if any is not integral."""
        out = []
        for c in self.coeffs:
            c = Fraction(c)
            if c.denominator != 1:
                raise ValueError("non-integral coefficient")
            out.append(c.numerator)
        return out

    # -- printing ----------------------------------------------------------

    def to_str(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            parts.append((k, c))
        pieces = []
        for idx, (k, c) in enumerate(parts):
            s = _coeff_str(c)
            neg = s.startswith("-")
            if neg:
                s = s[1:]
            if k == 0:
                term = s
            else:
                vp = var if k == 1 else f"{var}^{k}"
                term = vp if s == "1" else f"{s}*{vp}"
            if idx == 0:
                pieces.append(("-" if neg else "") + term)
            else:
                pieces.append(("- " if neg else "+ ") + term)
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({self.to_str()})"


def rational_content(values: Iterable) -> Fraction:
    """gcd of the numerators over lcm of the denominators: the positive
    rational c with every value / c an integer and their gcd 1; 0 when
    every value is 0."""
    num, den = 0, 1
    for c in values:
        c = Fraction(c)
        num = _igcd(num, c.numerator)
        den = den * c.denominator // _igcd(den, c.denominator)
    return Fraction(num, den)


def _coeff_str(c) -> str:
    if isinstance(c, Fraction) and c.denominator == 1:
        return str(c.numerator)
    s = str(c)
    if any(op in s[1:] for op in "+-*/ ") and not isinstance(c, (int, Fraction)):
        return f"({s})"
    return s


# -- gcd machinery -----------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd.  Primitive PRS over Z when both sides are rational,
    generic monic Euclid otherwise."""
    if not a:
        return b.monic()
    if not b:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return Poly.const(Fraction(1))
    if a.is_rational() and b.is_rational():
        g = _int_gcd_prs(a.primitive().int_coeffs(), b.primitive().int_coeffs())
        return Poly([Fraction(c) for c in g]).monic()
    # generic field Euclid
    while b:
        a, b = b, a % b
    return a.monic()


def _int_gcd_prs(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    while b and len(b) > 1:
        a = _int_prem(a, b)
        a = _int_primitive(a)
        a, b = b, a
    if b:  # nonzero constant
        return [1]
    return _int_primitive(a)


def _int_prem(a: list, b: list) -> list:
    """Pseudo-remainder of integer coefficient lists."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        la = a[-1]
        k = len(a) - 1 - db
        a = [c * lb for c in a]
        for j, cb in enumerate(b):
            a[k + j] -= la * cb
        while a and a[-1] == 0:
            a.pop()
    return a


def _int_exact_div(a: list, b: list) -> Optional[list]:
    """Quotient of integer coefficient lists, b primitive, or None when b
    does not divide a over Q.  A quotient over Q is integral by Gauss's
    lemma, so a step that does not divide over Z means there is none."""
    a, quo = list(a), []
    while len(a) >= len(b):
        q, rem = divmod(a[-1], b[-1])
        if rem:
            return None
        quo.append(q)
        for j, cb in enumerate(b, len(a) - len(b)):
            a[j] -= q * cb
        a.pop()
    return None if any(a) else quo[::-1]


def _int_primitive(a: list) -> list:
    g = 0
    for c in a:
        g = _igcd(g, c)
        if g == 1:
            break
    if g > 1:
        a = [c // g for c in a]
    return a


# Coefficient-list kernels.  They serve Poly over any coefficient ring and,
# on lists of Python ints, integer polynomials with no Fraction at all.


def _list_mul(a, b) -> list:
    """Product of coefficient lists; [] is zero."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _list_sub(a: list, b: list) -> list:
    """a - b for coefficient lists, trailing zeros stripped."""
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = [x - y for x, y in zip(a, b)] + a[len(b):]
    while out and not out[-1]:
        out.pop()
    return out


def _list_shift(a, h) -> list:
    """a(x + h) for a coefficient list, by synthetic Taylor shift."""
    cs = list(a)
    if h:
        n = len(cs)
        for i in range(n - 1):
            for k in range(n - 2, i - 1, -1):
                cs[k] += h * cs[k + 1]
    return cs


def _int_cleared(polys) -> list:
    """Integer coefficient lists of c·p for every p, with c the least
    common denominator of all their coefficients: one scalar for all."""
    c = _lcm(*(a.denominator for p in polys for a in p.coeffs))
    return [[a.numerator * (c // a.denominator) for a in p.coeffs] for p in polys]


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return Poly()
    # a·(b/g) equals (a·b)/g, and b/g is the shorter division
    return (a * b.exact_div(poly_gcd(a, b))).monic()


# -- convenience for the rational case ----------------------------------------


def P(*coeffs) -> Poly:
    """Rational polynomial from ascending coefficients; ints and strings OK."""
    return Poly(tuple(Fraction(c) for c in coeffs))
