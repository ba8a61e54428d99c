from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsolve.poly import P, Poly, poly_gcd, poly_lcm, rational_content

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


def polys(max_deg=5):
    return st.lists(rationals, min_size=0, max_size=max_deg + 1).map(
        lambda cs: Poly(tuple(cs))
    )


class TestBasics:
    def test_trailing_zeros_stripped(self):
        assert Poly((Fraction(1), Fraction(0), Fraction(0))).degree == 0
        assert Poly(()) == Poly((Fraction(0),))
        assert not Poly(())

    def test_degree_conventions(self):
        assert Poly().degree == -1
        assert P(3).degree == 0

    def test_getitem_out_of_range(self):
        assert P(1, 2)[5] == 0

    def test_eval_composition(self):
        p = P(1, 0, 1)  # x^2 + 1
        q = P(1, 1)
        assert p.eval(q) == P(2, 2, 1)  # (x+1)^2 + 1

    def test_shift(self):
        p = P(0, 0, 1)
        assert p.shift(1) == P(1, 2, 1)
        assert p.shift(-1) == P(1, -2, 1)
        assert p.shift(Fraction(1, 2)) == P(Fraction(1, 4), 1, 1)

    def test_content_primitive(self):
        p = P(Fraction(2, 3), Fraction(4, 3))
        assert p.content() == Fraction(2, 3)
        assert p.primitive() == P(1, 2)
        assert P(-2, -4).primitive() == P(1, 2)  # sign moves into the content

    def test_rational_content(self):
        # gcd of numerators over lcm of denominators, positive
        assert rational_content([Fraction(-4, 3), 2, Fraction(6, 5), 0]) == Fraction(2, 15)
        assert rational_content([0, Fraction(0)]) == 0
        assert rational_content([]) == 0

    def test_hash_agrees_with_equality(self):
        half = Fraction(1, 2)
        for p, c in ((Poly(), 0), (Poly(), Fraction(0)), (P(3), 3), (P(half), half)):
            assert p == c and hash(p) == hash(c)
        assert len({Poly(), 0}) == 1

    def test_int_coeffs(self):
        assert P(1, -2).int_coeffs() == [1, -2]
        with pytest.raises(ValueError):
            P(Fraction(1, 2)).int_coeffs()


class TestRingAxioms:
    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(polys())
    @settings(max_examples=30, deadline=None)
    def test_units(self, a):
        assert a * P(1) == a
        assert a + Poly() == a
        assert a - a == Poly()


class TestDivision:
    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_divmod_roundtrip(self, a, b):
        if not b:
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_exact_div_raises(self):
        with pytest.raises(ValueError):
            P(1, 0, 1).exact_div(P(1, 1))

    @given(polys(3), polys(3), polys(2))
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides(self, a, b, m):
        if not a or not b or not m:
            return
        g = poly_gcd(a * m, b * m)
        if m:
            assert g % m.monic() == Poly() or (a * m).divmod(g)[1] == Poly()
        assert (a * m) % g == Poly()
        assert (b * m) % g == Poly()

    def test_lcm(self):
        assert poly_lcm(P(0, 1), P(0, 1) * P(1, 1)) == P(0, 1) * P(1, 1)


class TestKroneckerPath:
    def test_large_product_matches_schoolbook(self):
        a = Poly(tuple(Fraction(i - 40, 3) for i in range(90)))
        b = Poly(tuple(Fraction(2 * i + 1, 7) for i in range(75)))
        prod = a * b
        out = [Fraction(0)] * (a.degree + b.degree + 1)
        for i, ca in enumerate(a.coeffs):
            for j, cb in enumerate(b.coeffs):
                out[i + j] += ca * cb
        assert prod == Poly(out)

    def test_signed_coefficients(self):
        a = Poly(tuple(Fraction((-1) ** i * i) for i in range(60)))
        assert (a * a).eval(Fraction(1)) == a.eval(Fraction(1)) ** 2
        assert (a * a).eval(Fraction(-2)) == a.eval(Fraction(-2)) ** 2


class TestPrinting:
    def test_to_str(self):
        assert P(1, -2, 3).to_str() == "3*x^2 - 2*x + 1"
        assert Poly().to_str() == "0"
        assert P(0, 1).to_str() == "x"
        assert P(0, -1).to_str() == "-x"
