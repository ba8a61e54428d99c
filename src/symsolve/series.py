"""Truncated Laurent/Puiseux series in t = 1/x.

A TSeries holds a window of known coefficients: terms at exponents
(val+k)/ram for k < len(coeffs), plus an O(t^((val+len)/ram)) tail.
Coefficients are any field-like values (Fraction, number-field
elements, or polynomials in a symbol for indicial work); arithmetic
propagates the usable window, never inventing unknown terms.

The twist of an operator at infinity, and the indicial step read off
it, are formed in `localdata` on integer coefficient lists; a TSeries
carries the resulting windows (and the coefficient windows of the
indicial polynomial) into the indicial step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, List, Sequence, Tuple

from .poly import Poly

__all__ = ["TSeries"]


def _is_zero(c) -> bool:
    return not c


class TSeries:
    """Series window sum_k coeffs[k]·t^((val+k)/ram) + O(t^((val+len)/ram))."""

    __slots__ = ("ram", "val", "coeffs")

    def __init__(self, ram: int, val: int, coeffs: Sequence):
        if ram < 1:
            raise ValueError("ramification must be positive")
        self.ram = ram
        self.val = val
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def monomial(cls, c, exponent: Fraction, ram: int, nterms: int) -> "TSeries":
        e = Fraction(exponent) * ram
        if e.denominator != 1:
            raise ValueError("exponent not representable at this ramification")
        return cls(ram, int(e), (c,) + (Fraction(0),) * (nterms - 1))

    @classmethod
    def one(cls, ram: int, nterms: int) -> "TSeries":
        return cls.monomial(Fraction(1), Fraction(0), ram, nterms)

    @classmethod
    def from_poly_in_invx(cls, p: Poly, ram: int, pad: int) -> "TSeries":
        """p(1/t) as an exact Laurent window with `pad` extra known zeros."""
        if not p:
            return cls(ram, 0, (Fraction(0),) * pad)
        rev = list(reversed(p.coeffs))
        if ram > 1:
            spread = []
            for c in rev:
                spread.append(c)
                spread.extend([Fraction(0)] * (ram - 1))
            rev = spread[: len(spread) - (ram - 1)]
        return cls(ram, -p.degree * ram, tuple(rev) + (Fraction(0),) * pad)

    # -- queries ------------------------------------------------------------

    @property
    def nterms(self) -> int:
        return len(self.coeffs)

    @property
    def end(self) -> int:
        """First unknown exponent, in 1/ram units."""
        return self.val + len(self.coeffs)

    def is_zero(self) -> bool:
        return all(_is_zero(c) for c in self.coeffs)

    def valuation(self):
        """Exponent of the first nonzero known term, or None."""
        for k, c in enumerate(self.coeffs):
            if not _is_zero(c):
                return Fraction(self.val + k, self.ram)
        return None

    def coeff_at(self, exponent: Fraction):
        e = Fraction(exponent) * self.ram
        if e.denominator != 1:
            return Fraction(0)
        k = int(e) - self.val
        if k < 0 or k >= len(self.coeffs):
            return Fraction(0)
        return self.coeffs[k]

    def strip(self) -> "TSeries":
        k = 0
        cs = self.coeffs
        while k < len(cs) and _is_zero(cs[k]):
            k += 1
        return TSeries(self.ram, self.val + k, cs[k:])

    def lift(self, ram: int) -> "TSeries":
        if ram == self.ram:
            return self
        if ram % self.ram:
            raise ValueError("can only lift to a multiple ramification")
        f = ram // self.ram
        out: List = []
        for c in self.coeffs:
            out.append(c)
            out.extend([Fraction(0)] * (f - 1))
        if out:
            out = out[: len(out) - (f - 1)]
        return TSeries(ram, self.val * f, out)

    def map_coeffs(self, fn: Callable) -> "TSeries":
        return TSeries(self.ram, self.val, tuple(fn(c) for c in self.coeffs))

    def retrunc(self, nterms: int) -> "TSeries":
        return TSeries(self.ram, self.val, self.coeffs[:nterms])

    def __bool__(self):
        return not self.is_zero()

    # -- ring operations ---------------------------------------------------------

    def _aligned(self, other: "TSeries") -> Tuple["TSeries", "TSeries"]:
        r = self.ram * other.ram // gcd(self.ram, other.ram)
        return self.lift(r), other.lift(r)

    def __add__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        a, b = self._aligned(other)
        lo = min(a.val, b.val)
        hi = min(a.end, b.end)
        if hi <= lo:
            return TSeries(a.ram, min(a.end, b.end), ())
        out = []
        for k in range(lo, hi):
            ca = a.coeffs[k - a.val] if k >= a.val else Fraction(0)
            cb = b.coeffs[k - b.val] if k >= b.val else Fraction(0)
            out.append(ca + cb)
        return TSeries(a.ram, lo, out)

    def __neg__(self):
        return TSeries(self.ram, self.val, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TSeries):
            return self.map_coeffs(lambda c: c * other)
        a, b = self._aligned(other)
        n = min(a.nterms, b.nterms)
        if n == 0:
            return TSeries(a.ram, a.val + b.val, ())
        out = [None] * n
        for i in range(n):
            acc = None
            for j in range(i + 1):
                term = a.coeffs[j] * b.coeffs[i - j]
                acc = term if acc is None else acc + term
            out[i] = acc
        return TSeries(a.ram, a.val + b.val, out)

    def __rmul__(self, other):
        return self.map_coeffs(lambda c: other * c)

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if _is_zero(c):
                continue
            e = Fraction(self.val + k, self.ram)
            parts.append(f"({c})*t^({e})")
        tail = f"O(t^({Fraction(self.end, self.ram)}))"
        return "TSeries(" + (" + ".join(parts + [tail])) + ")"

