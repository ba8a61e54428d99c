from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsolve.fieldext import NumberField
from symsolve.poly import P, Poly
from symsolve.ratfunc import RF, RatFunc

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=4)


def ratfuncs():
    polys = st.lists(rationals, min_size=0, max_size=3).map(lambda cs: Poly(tuple(cs)))
    dens = st.lists(rationals, min_size=1, max_size=3).map(lambda cs: Poly(tuple(cs)))
    return st.tuples(polys, dens).filter(lambda nd: bool(nd[1])).map(
        lambda nd: RatFunc(*nd)
    )


class TestNormalization:
    def test_reduction(self):
        r = RF([0, 1, 1], [0, 1])  # (x^2+x)/x
        assert r.num == P(1, 1) and r.den == P(1)
        assert r.is_polynomial()

    def test_den_monic(self):
        r = RF([1], [2, 2])
        assert r.den == P(1, 1)
        assert r.num == P(Fraction(1, 2))

    def test_zero_den_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RF(1, 0)

    def test_zero_num_canonical(self):
        assert RF(0, [1, 5]) == RF(0, 7)

    def test_int_coefficients_become_fractions(self):
        # code reading num and den may divide coefficients
        for r in (RatFunc(Poly([1, 2])), RatFunc(Poly([3]), Poly([0, 1])),
                  RatFunc(Poly((0, 0, Fraction(1))))):
            assert all(type(c) is Fraction for p in (r.num, r.den) for c in p.coeffs)
        assert RatFunc(Poly([1, 2])) == RF([1, 2])


class TestEquality:
    def test_foreign_objects_are_not_coerced(self):
        for other in (None, "", [], "x"):
            assert RF(0) != other and not RF(0) == other
            with pytest.raises(TypeError):
                RF(1) * other
            with pytest.raises(TypeError):
                RF(1) + other

    def test_foreign_objects_are_not_constructed(self):
        for other in (None, "", [], "x", 1.5, (1, 2)):
            with pytest.raises(TypeError, match="numerator"):
                RatFunc(other)
            if other is not None:  # an omitted denominator is 1
                with pytest.raises(TypeError, match="denominator"):
                    RatFunc(P(1), other)
        q2 = NumberField(2)
        assert RatFunc(0) == RatFunc(Poly()) and RatFunc(3, 6) == Fraction(1, 2)
        assert RatFunc(Fraction(1, 2), q2.gen) == RatFunc(Poly.const(q2.gen / 4))
        assert RatFunc(P(1)) == RatFunc(P(1), None) == 1

    def test_scalars_and_polys_are_coerced(self):
        q2 = NumberField(2)
        assert RF(0) == 0 and RF(3) == Fraction(3) and RF(3) == q2.from_rational(3)
        assert RatFunc(Poly.const(q2.gen)) == q2.gen
        assert RF([0, 1]) * 2 == RF([0, 2]) and 2 * RF([0, 1]) == RF([0, 2])

    def test_hash_agrees_with_equality(self):
        pairs = [(RF(0), 0), (RF(0), Poly()), (RF(3), Fraction(3)), (RF(3), P(3)),
                 (RF([0, 1]), P(0, 1)), (RF([1, 2, 1], [1, 1]), P(1, 1))]
        for a, b in pairs:
            assert a == b and b == a
            assert hash(a) == hash(b)
        assert len({RF([0, 1]), P(0, 1)}) == 1


class TestFieldAxioms:
    @given(ratfuncs(), ratfuncs(), ratfuncs())
    @settings(max_examples=50, deadline=None)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(ratfuncs())
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, a):
        if not a:
            return
        assert a / a == RF(1)
        assert (1 / a) * a == RF(1)

    @given(ratfuncs(), ratfuncs())
    @settings(max_examples=50, deadline=None)
    def test_sub_add(self, a, b):
        assert (a - b) + b == a


class TestMaps:
    def test_shift(self):
        r = RF([0, 1], [1, 1])
        assert r.shift(1) == RF([1, 1], [2, 1])
        assert r.shift(1).shift(-1) == r

    def test_eval(self):
        r = RF([0, 1], [1, 1])
        assert r.eval(1) == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            r.eval(-1)

    def test_pow(self):
        r = RF([0, 1], [1, 1])
        assert r**3 == RF([0, 0, 0, 1], P(1, 1) ** 3)
        assert r**-2 == RF(P(1, 1) ** 2, [0, 0, 1])

