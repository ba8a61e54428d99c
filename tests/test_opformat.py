from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsolve.opformat import (
    ExprError,
    parse_operator,
    print_operator,
)
from symsolve.ore import Operator
from symsolve.poly import P, Poly
from symsolve.ratfunc import RF


class TestParsing:
    def test_basic(self):
        L = parse_operator("S^2 - (2x+2)S + x + 1")
        assert L.coeff(2) == RF(1)
        assert L.coeff(1) == RF([-2, -2])
        assert L.coeff(0) == RF([1, 1])

    def test_implicit_multiplication(self):
        assert parse_operator("2xS + 1") == parse_operator("2*x*S + 1")
        assert parse_operator("4(x+2)S + 1") == parse_operator("4*(x+2)*S + 1")
        assert parse_operator("(x+1)(x+2) + S") == parse_operator("x^2 + 3x + 2 + S")

    def test_double_star_power(self):
        assert parse_operator("S**2 + 1") == parse_operator("S^2 + 1")

    def test_commutation_in_source(self):
        # S*x must normalize to (x+1)*S
        assert parse_operator("S*x + 1") == parse_operator("(x+1)S + 1")

    def test_fractions(self):
        L = parse_operator("S/2 - 1/3")
        assert L.coeff(1) == RF(Fraction(1, 2))
        assert L.coeff(0) == RF(Fraction(-1, 3))

    def test_division_is_left_scalar(self):
        # S/x means (1/x) * S, applied before the shift acts
        L = parse_operator("S/x + 1", require_normal=False)
        assert L.coeff(1) == RF(1, [0, 1])

    def test_negative_scalar_power(self):
        L = parse_operator("x^(-1)S + 1", require_normal=False)
        assert L.coeff(1) == RF(1, [0, 1])

    def test_unary_minus(self):
        assert parse_operator("-S + x") == parse_operator("x - S")


class TestErrors:
    def test_not_normal(self):
        with pytest.raises(ValueError, match="not normal"):
            parse_operator("S^2 - S")
        # but accepted when asked for
        assert parse_operator("S^2 - S", require_normal=False).order == 2

    def test_decimal_rejected(self):
        with pytest.raises(ExprError, match="decimal"):
            parse_operator("1.5S + 1")

    def test_unknown_symbol(self):
        with pytest.raises(ExprError, match="unknown symbol"):
            parse_operator("S + y")

    def test_syntax_errors_carry_position(self):
        for bad in ["S + ", "(S + 1", "S ^ x", "S + @", "x / (S+1)"]:
            with pytest.raises(ExprError):
                parse_operator(bad, require_normal=False)

    def test_division_by_operator(self):
        with pytest.raises(ExprError, match="scalar"):
            parse_operator("x / S", require_normal=False)

    def test_division_by_zero(self):
        with pytest.raises(ExprError, match="zero"):
            parse_operator("x / 0", require_normal=False)

    def test_negative_power_of_operator(self):
        with pytest.raises(ExprError, match="non-scalar"):
            parse_operator("S^(-1)", require_normal=False)


def random_ops():
    coeff = st.integers(-9, 9)
    return st.lists(
        st.lists(coeff, min_size=1, max_size=4), min_size=1, max_size=4
    ).map(lambda rows: Operator([Poly(tuple(map(Fraction, r))) for r in rows]))


class TestPrinting:
    def test_examples(self):
        s = "S^2 - (2*x + 2)*S + x + 1"
        assert print_operator(parse_operator(s)) == s
        assert print_operator(parse_operator("x + S")) == "S + x"
        assert print_operator(Operator()) == "0"

    def test_canonicalizes(self):
        L = parse_operator("2S^2 + 4x", require_normal=True)
        assert print_operator(L) == "S^2 + 2*x"

    def test_monomial_forms(self):
        assert print_operator(parse_operator("3x^2S^2 + 1", require_normal=True)) == (
            "3*x^2*S^2 + 1"
        )
        # joint polynomial factors come out in canonical form
        assert print_operator(parse_operator("3x^2S^2 + x")) == "3*x*S^2 + 1"
        # canonical form flips the sign so a_d leads positive
        assert print_operator(parse_operator("-S + x")) == "S - x"

    @given(random_ops())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, L):
        if not L:
            return
        s = print_operator(L)
        assert parse_operator(s, require_normal=False) == L.canonical()
