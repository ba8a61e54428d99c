import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsolve.poly import P

from genexp_reference import (
    TSeries, add, coeff_at, div, from_poly_in_invx, inverse, lift, mul, one, reduce_ram,
    strip, sub, tau, valuation,
)


def S(ram, val, *coeffs):
    return TSeries(ram, val, tuple(Fraction(c) for c in coeffs))


fractions = st.fractions(min_value=-30, max_value=30, max_denominator=6)


def small_series(ram=1, n=6):
    return st.lists(fractions, min_size=n, max_size=n).map(
        lambda cs: TSeries(ram, -2, tuple(cs))
    )


class TestConstruction:
    def test_monomial_window(self):
        s = S(1, -1, 1, 0, 0)
        assert s.val == -1 and len(s.coeffs) == 3 and s.end == 2

    def test_from_poly_in_invx(self):
        # p = x^2 + 3 as a series in t = 1/x: t^{-2} + 3
        s = from_poly_in_invx(P(3, 0, 1), 1, 2)
        assert coeff_at(s, Fraction(-2)) == 1
        assert coeff_at(s, Fraction(-1)) == 0
        assert coeff_at(s, Fraction(0)) == 3
        assert s.end == 3  # two known zero terms past the constant

    def test_valuation_strips_zeros(self):
        s = S(2, -1, 0, 0, 5, 7)
        assert valuation(s) == Fraction(1, 2)
        assert strip(s).coeffs[0] == 5

    def test_zero_window(self):
        s = S(1, 0, 0, 0, 0)
        assert s.is_zero() and valuation(s) is None


class TestArithmetic:
    def test_add_window_is_min(self):
        a = S(1, -1, 1, 1, 1)  # known through t^1
        b = S(1, 0, 2)         # known through t^0
        c = add(a, b)
        assert c.val == -1 and c.end == 1
        assert c.coeffs == (Fraction(1), Fraction(3))

    def test_mul_truncation(self):
        a = S(1, 0, 1, 1, 1)
        b = S(1, 0, 1, -1, 0)
        c = mul(a, b)
        assert c.coeffs == (Fraction(1), Fraction(0), Fraction(0))

    def test_inverse_roundtrip(self):
        a = S(1, -2, 3, 1, 4, 1, 5)
        assert sub(mul(a, inverse(a)), one(1, 5)).is_zero()

    def test_div_pow(self):
        a = S(2, 1, 1, 2, 1, 7)
        assert sub(div(mul(mul(a, a), a), mul(a, a)), a).is_zero()

    def test_int_coefficients_stay_exact(self):
        a = TSeries(1, 0, (2, 1, 0))
        inv = inverse(a)
        assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))
        assert all(isinstance(c, Fraction) for c in inv.coeffs)
        third = div(a, 3)
        assert third.coeffs == (Fraction(2, 3), Fraction(1, 3), Fraction(0))
        assert all(isinstance(c, Fraction) for c in third.coeffs)

    def test_lift_reduce(self):
        a = S(1, -1, 2, 0, 5)
        assert sub(reduce_ram(lift(a, 3)), a).is_zero()

    @given(small_series(), small_series())
    @settings(max_examples=40, deadline=None)
    def test_mul_commutes(self, a, b):
        assert sub(mul(a, b), mul(b, a)).is_zero()


class TestTau:
    def test_tau_fixes_one(self):
        e = one(1, 5)
        assert sub(tau(e), e).is_zero()

    def test_tau_on_t(self):
        # tau(t) = t/(1+t) = t - t^2 + t^3 - ...
        t = S(1, 1, 1, 0, 0, 0)
        assert tau(t).coeffs == (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1))

    def test_tau_on_sqrt_t(self):
        # tau(t^{1/2}) = t^{1/2}(1 - t/2 + 3t^2/8 - ...)
        s = S(2, 1, 1, 0, 0, 0, 0, 0)
        out = tau(s)
        assert coeff_at(out, Fraction(1, 2)) == 1
        assert coeff_at(out, Fraction(3, 2)) == Fraction(-1, 2)
        assert coeff_at(out, Fraction(5, 2)) == Fraction(3, 8)

    @given(small_series(), small_series())
    @settings(max_examples=40, deadline=None)
    def test_tau_is_additive(self, a, b):
        assert sub(tau(add(a, b)), add(tau(a), tau(b))).is_zero()

    @given(small_series(2), small_series(2))
    @settings(max_examples=40, deadline=None)
    def test_tau_is_multiplicative(self, a, b):
        assert sub(tau(mul(a, b)), mul(tau(a), tau(b))).is_zero()

