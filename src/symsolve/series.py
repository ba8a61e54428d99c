"""Truncated Laurent/Puiseux series in t = 1/x.

A TSeries holds a window of known coefficients: terms at exponents
(val+k)/ram for k < len(coeffs), plus an O(t^((val+len)/ram)) tail.
Coefficients are any field-like values (Fraction, number-field
elements, or polynomials in a symbol for indicial work).

The twist of an operator at infinity, and the indicial step read off
it, are formed in `localdata` on integer coefficient lists; a TSeries
carries the resulting windows (for the indicial polynomial, the twist
at slope 0) into the indicial step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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
