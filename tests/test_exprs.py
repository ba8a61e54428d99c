from fractions import Fraction as F

import pytest

from symsolve.opformat import ExprError, eval_fraction, eval_poly, eval_value
from symsolve.fieldext import NumberField
from symsolve.poly import P, Poly


class TestPolyContext:
    def test_basic(self):
        assert eval_poly("x^2 - 3*x + 2", {}) == P(2, -3, 1)

    def test_params(self):
        assert eval_poly("(x - 2*a + 1)^2", {"a": F(1, 2)}) == P(0, 0, 1)

    def test_rational_constants(self):
        assert eval_poly("x/2 + 1/3", {}) == P(F(1, 3), F(1, 2))

    def test_products_of_factors(self):
        got = eval_poly("-(x+2*b+1)*(x+2*b+2)^2*(x-a+b+1)",
                        {"a": F(0), "b": F(3, 2)})
        want = -(P(4, 1) * P(5, 1) * P(5, 1) * P(F(5, 2), 1))
        assert got == want

    def test_sqrt_rejected(self):
        with pytest.raises(ExprError):
            eval_poly("sqrt(x)", {})

    def test_nonconstant_division_rejected(self):
        with pytest.raises(ExprError):
            eval_poly("1/(x+1)", {})

    def test_unknown_symbol(self):
        with pytest.raises(ExprError):
            eval_poly("x + q", {})


class TestValueContext:
    def test_rational(self):
        assert eval_value("-2*b", {"b": F(2, 3)}) == F(-4, 3)
        assert eval_fraction("2*a", {"a": F(1, 2)}) == 1

    def test_perfect_square(self):
        assert eval_value("sqrt(9/4)", {}) == F(3, 2)

    def test_quadratic_irrational(self):
        # at z = 1/4: sqrt(z^2-z) = (1/4)sqrt(-3), so the value is (1+sqrt(-3))/2
        v = eval_value("-(2*z-1-2*sqrt(z^2-z))", {"z": F(1, 4)})
        fld = NumberField(-3)
        assert v == fld.element([F(1, 2), F(1, 2)])

    def test_square_collapses_to_field(self):
        v = eval_value("(2*z-1+2*sqrt(z^2-z))^2", {"z": F(1, 4)})
        fld = NumberField(-3)
        # R+^2 = (-1 - sqrt(-3))/2 at z = 1/4
        assert v == fld.element([F(-1, 2), F(-1, 2)])

    def test_sqrt_negative_scaled(self):
        v = eval_value("-sqrt(-2*z^2)", {"z": F(2)})
        fld = NumberField(-2)
        assert v == fld.element([0, -2])

    def test_x_rejected(self):
        with pytest.raises(ExprError):
            eval_value("x + 1", {})

    def test_mixed_radicals_rejected(self):
        with pytest.raises(ExprError):
            eval_value("sqrt(2) + sqrt(3)", {})

    def test_division(self):
        assert eval_value("16/z^4", {"z": F(2)}) == 1
