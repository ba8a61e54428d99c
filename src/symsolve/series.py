"""Truncated Laurent/Puiseux series in t = 1/x.

A TSeries holds a window of known coefficients: terms at exponents
(val+k)/ram for k < len(coeffs), plus an O(t^((val+len)/ram)) tail.
Coefficients are any field-like values (Fraction, number-field
elements, or polynomials in a symbol for indicial work).

The twist of an operator at infinity, and the indicial step read off
it, are formed in `localdata` on integer coefficient lists; a TSeries
carries the resulting windows (and the coefficient windows of the
indicial polynomial) into the indicial step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import Poly

__all__ = ["TSeries"]


class TSeries:
    """Series window sum_k coeffs[k]·t^((val+k)/ram) + O(t^((val+len)/ram))."""

    __slots__ = ("ram", "val", "coeffs")

    def __init__(self, ram: int, val: int, coeffs: Sequence):
        if ram < 1:
            raise ValueError("ramification must be positive")
        self.ram = ram
        self.val = val
        self.coeffs = tuple(coeffs)

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

    @property
    def nterms(self) -> int:
        return len(self.coeffs)

    @property
    def end(self) -> int:
        """First unknown exponent, in 1/ram units."""
        return self.val + len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        parts = [f"({c})*t^({Fraction(self.val + k, self.ram)})"
                 for k, c in enumerate(self.coeffs) if c]
        tail = f"O(t^({Fraction(self.end, self.ram)}))"
        return "TSeries(" + (" + ".join(parts + [tail])) + ")"
