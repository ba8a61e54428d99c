"""Rational functions num/den over an exact coefficient field.

Normalized form: gcd(num, den) = 1 and den monic, so equality is
structural.  The coefficient field is whatever the underlying Poly
carries (rationals or a number field); an int coefficient is stored as
a Fraction, so that code reading num and den never divides two ints.
"""

from __future__ import annotations

from fractions import Fraction

from .fieldext import NFElem
from .poly import P, Poly, poly_gcd

__all__ = ["RatFunc", "RF"]


def _as_poly(v, what: str) -> Poly:
    """A Poly with no int coefficient, or a scalar (int, Fraction or
    NFElem) as a constant Poly."""
    if isinstance(v, Poly):
        if any(isinstance(c, int) for c in v.coeffs):
            return Poly(tuple(Fraction(c) if isinstance(c, int) else c
                              for c in v.coeffs))
        return v
    if isinstance(v, int):
        return Poly.const(Fraction(v))
    if isinstance(v, (Fraction, NFElem)):
        return Poly.const(v)
    raise TypeError(f"RatFunc {what} must be a Poly, int, Fraction or NFElem, "
                    f"not {type(v).__name__}")


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None, reduce: bool = True):
        num = _as_poly(num, "numerator")
        den = Poly.const(Fraction(1)) if den is None else _as_poly(den, "denominator")
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self.num = Poly()
            self.den = Poly.const(Fraction(1))
            return
        if den.degree == 0:
            lc = den.lead()
            if lc != 1:
                inv = 1 / lc
                num = num * inv
            self.num = num
            self.den = Poly.const(Fraction(1))
            return
        if reduce:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        lc = den.lead()
        if lc != 1:
            inv = 1 / lc
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(Poly.const(Fraction(c) if isinstance(c, int) else c))

    # -- queries ----------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a polynomial hashes as the Poly it equals
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        """other as a RatFunc; None (so NotImplemented) unless it is a
        RatFunc, a Poly or a scalar: int, Fraction or NFElem."""
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other, reduce=False)
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, (Fraction, NFElem)):
            return RatFunc(Poly.const(other), reduce=False)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            return self
        if not self:
            return o
        if self.den.degree == 0 and o.den.degree == 0:
            return RatFunc(self.num + o.num, reduce=False)
        g = poly_gcd(self.den, o.den)
        if g.degree > 0:
            da = self.den.exact_div(g)
            db = o.den.exact_div(g)
            return RatFunc(self.num * db + o.num * da, da * o.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self or not o:
            return RatFunc(Poly())
        if self.den.degree == 0 and o.den.degree == 0:
            return RatFunc(self.num * o.num, reduce=False)
        g1 = poly_gcd(self.num, o.den)
        g2 = poly_gcd(o.num, self.den)
        n1 = self.num.exact_div(g1) if g1.degree > 0 else self.num
        d2 = o.den.exact_div(g1) if g1.degree > 0 else o.den
        n2 = o.num.exact_div(g2) if g2.degree > 0 else o.num
        d1 = self.den.exact_div(g2) if g2.degree > 0 else self.den
        return RatFunc(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc(o.den, o.num, reduce=False)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            if not self:
                raise ZeroDivisionError
            return RatFunc(self.den**-n, self.num**-n)
        return RatFunc(self.num**n, self.den**n, reduce=False)

    # -- maps ------------------------------------------------------------------

    def shift(self, a) -> "RatFunc":
        """x -> x + a."""
        return RatFunc(self.num.shift(a), self.den.shift(a), reduce=False)

    def eval(self, v):
        dv = self.den.eval(v)
        if not dv:
            raise ZeroDivisionError(f"pole at {v}")
        nv = self.num.eval(v)
        if isinstance(nv, int):
            nv = Fraction(nv)
        if isinstance(dv, int):
            dv = Fraction(dv)
        return nv / dv

    def __call__(self, v):
        return self.eval(v)

    def map_coeffs(self, f) -> "RatFunc":
        return RatFunc(self.num.map_coeffs(f), self.den.map_coeffs(f))

    # -- printing -----------------------------------------------------------------

    def to_str(self, var: str = "x") -> str:
        if self.den.degree == 0:
            return self.num.to_str(var)
        ns = self.num.to_str(var)
        ds = self.den.to_str(var)
        if self.num.degree > 0 or self.num and self.num.lead() != 1:
            ns = f"({ns})"
        return f"{ns}/({ds})"

    def __repr__(self):
        return f"RatFunc({self.to_str()})"


def RF(num, den=1) -> RatFunc:
    """Rational function from int/Fraction coefficient lists or polys."""

    def topoly(v):
        if isinstance(v, Poly):
            return v
        if isinstance(v, (list, tuple)):
            return Poly(tuple(Fraction(c) for c in v))
        return Poly.const(Fraction(v))

    return RatFunc(topoly(num), topoly(den))
