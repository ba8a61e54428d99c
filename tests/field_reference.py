"""Number fields Q[y]/(m(y)) of any degree, kept as a test oracle.

This is the general-degree element arithmetic the package carried before
it settled on Q(sqrt(core)): integer numerators over one positive
denominator, products folded through integer rows y^k mod m, inverses
through the extended Euclidean algorithm.  The untruncated valuation
growth reference in ``test_localdata`` evaluates a class of degree 2 or
3 at its root θ with it; ``symsolve.fieldext`` covers quadratic fields
only, and ``valuation_growth`` works on its own integer lists over
Z[θ'].
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

from symsolve.poly import P, Poly, _fieldify


def poly_xgcd(a: Poly, b: Poly):
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = Poly.const(Fraction(1)), Poly()
    t0, t1 = Poly(), Poly.const(Fraction(1))
    while r1:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0:
        return r0, s0, t0
    inv = Fraction(1) / _fieldify(r0.lead())
    return r0 * inv, s0 * inv, t0 * inv


def _normal(field: "NumberField", nums, den: int) -> "NFElem":
    """nums/den with the common factor of numerators and den removed."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    return NFElem(field, tuple(nums), den)


class NumberField:
    """Q[y]/(m(y)) for monic irreducible m over Q."""

    __slots__ = ("modulus", "name", "_red", "_red_den", "zero", "one", "gen")

    def __init__(self, modulus: Poly, name: str = "s"):
        if not modulus or modulus.degree < 1:
            raise ValueError("modulus must be nonconstant")
        modulus = modulus.monic()
        self.modulus = modulus
        self.name = name
        d = modulus.degree
        # y^k mod m for k = d .. 2d-2, as Fraction coefficient lists
        low = [-Fraction(c) for c in modulus.coeffs[:-1]]  # y^d
        rows = []
        cur = low
        for _ in range(d - 1):
            rows.append(cur)
            top = cur[-1]
            cur = [Fraction(0)] + cur[:-1]  # * y
            if top:
                cur = [a + top * b for a, b in zip(cur, low)]
        # ... as integer rows over one denominator
        self._red_den = math.lcm(*(c.denominator for row in rows for c in row))
        self._red = tuple(
            tuple((c * self._red_den).numerator for c in row) for row in rows
        )
        zeros = (0,) * (d - 1)
        self.zero = NFElem(self, (0,) + zeros, 1)
        self.one = NFElem(self, (1,) + zeros, 1)
        # y itself; over a linear modulus that is the rational root
        self.gen = self.element([0, 1]) if d > 1 else self.from_rational(low[0])

    @classmethod
    def quadratic(cls, core: int, name: Optional[str] = None) -> "NumberField":
        """Q(sqrt(core)), core a squarefree integer != 0, 1."""
        if core in (0, 1):
            raise ValueError("core must define a proper extension")
        if name is None:
            name = f"sqrt{core}" if core > 0 else f"sqrt_m{-core}"
        return cls(P(-core, 0, 1), name=name)

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def element(self, coords) -> "NFElem":
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        cs += [Fraction(0)] * (self.degree - len(cs))
        # over the lcm of the denominators the numerators are coprime to it
        den = math.lcm(*(c.denominator for c in cs))
        return NFElem(self, tuple((c * den).numerator for c in cs), den)

    def from_rational(self, q) -> "NFElem":
        q = Fraction(q)
        return self._rational(q.numerator, q.denominator)

    def _rational(self, num: int, den: int) -> "NFElem":
        # num/den in lowest terms, den > 0
        return NFElem(self, (num,) + (0,) * (self.degree - 1), den)

    def coerce(self, v) -> "NFElem":
        if isinstance(v, NFElem):
            if v.field == self:
                return v
            if not v.is_rational():
                raise ValueError("element from a different field")
            return self._rational(v.nums[0], v.den)
        return self.from_rational(v)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("NumberField", self.modulus.coeffs))

    def __repr__(self):
        return f"Q[{self.name}]/({self.modulus.to_str(self.name)})"


class NFElem:
    """(nums[0] + nums[1]·y + ...) / den in a NumberField, in lowest terms."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, nums: Tuple[int, ...], den: int):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coords(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return Fraction(self.nums[0], self.den)

    def __bool__(self):
        return any(self.nums)

    def _pair(self, other) -> Optional[Tuple["NFElem", "NFElem"]]:
        """(self, other) as elements of one field; None when other is
        irrational in another field (or not a number)."""
        if isinstance(other, NFElem):
            if other.field is self.field or other.field == self.field:
                return self, other
            if other.is_rational():
                return self, self.field._rational(other.nums[0], other.den)
            if self.is_rational():
                return other.field._rational(self.nums[0], self.den), other
            return None
        if isinstance(other, int):
            return self, self.field._rational(other, 1)
        if isinstance(other, Fraction):
            return self, self.field._rational(other.numerator, other.denominator)
        return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.den == b.den:
            nums = [x + y for x, y in zip(a.nums, b.nums)]
            return _normal(a.field, nums, a.den)
        da, db = a.den, b.den
        nums = [x * db + y * da for x, y in zip(a.nums, b.nums)]
        return _normal(a.field, nums, da * db)

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        field = a.field
        d = len(a.nums)
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(b.nums):
                    if y:
                        prod[i + j] += x * y
        den = a.den * b.den
        out = prod[:d]
        if any(prod[d:]):
            # prod[k]·y^k for k >= d folds in as prod[k]·_red[k-d] / _red_den
            rd = field._red_den
            if rd != 1:
                out = [c * rd for c in out]
                den *= rd
            for c, row in zip(prod[d:], field._red):
                if c:
                    for i in range(d):
                        out[i] += c * row[i]
        return _normal(field, out, den)

    __rmul__ = __mul__

    def inverse(self) -> "NFElem":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        n0 = self.nums[0]
        if self.is_rational():
            return self.field._rational(self.den if n0 > 0 else -self.den, abs(n0))
        if self.field.degree == 2:
            # (n0 + n1·y)·(n0 + n1·y') = n0² - n0·n1·m1 + n1²·m0 for the
            # conjugate root y' = -m1 - y of y² + m1·y + m0
            m0, m1 = self.field.modulus.coeffs[:2]
            n1 = self.nums[1]
            norm = n0 * n0 - n0 * n1 * m1 + n1 * n1 * m0
            return self.field.element([(n0 - n1 * m1) * self.den / norm,
                                       -n1 * self.den / norm])
        g, s, _ = poly_xgcd(Poly(self.coords), self.field.modulus)
        if g.degree != 0:
            raise ZeroDivisionError("modulus not coprime to element")
        return self.field.element([s[i] for i in range(self.field.degree)])

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b * a.inverse()

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
        """Galois conjugate (quadratic fields only)."""
        if self.field.degree != 2:
            raise ValueError("conjugate implemented for quadratic fields only")
        p = self.field.modulus[1]
        a, b = self.coords
        return self.field.element([a - b * p, -b])

    def norm(self) -> Fraction:
        if self.field.degree != 2:
            raise ValueError("norm implemented for quadratic fields only")
        return (self * self.conjugate()).as_rational()

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.field.modulus.coeffs, self.coords))

    def __repr__(self):
        return self.to_str()

    def to_str(self) -> str:
        name = self.field.name
        parts = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                v = name if i == 1 else f"{name}^{i}"
                if c == 1:
                    parts.append(v)
                elif c == -1:
                    parts.append(f"-{v}")
                else:
                    parts.append(f"{c}*{v}")
        if not parts:
            return "0"
        s = parts[0]
        for t in parts[1:]:
            s += " - " + t[1:] if t.startswith("-") else " + " + t
        return s
