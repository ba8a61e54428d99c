"""Operators and table templates share one grammar (symsolve.opformat)."""

from fractions import Fraction

import pytest

from symsolve.opformat import ExprError, eval_poly, eval_value, parse_operator


@pytest.mark.parametrize("text", [
    "2x(x+1)", "(x+1)**2", "x^2 - 3x + 2", "(x/2 + 1/3)^3", "-(2x+1)(x-4)/6",
])
def test_operator_and_template_agree(text):
    L = parse_operator(text, require_normal=False)
    assert L.order == 0
    c = L.coeff(0)
    assert c.is_polynomial() and c.num == eval_poly(text, {})


def test_negative_exponent_without_parentheses():
    assert parse_operator("x^-1 S + 1") == parse_operator("x^(-1)S + 1")
    assert eval_value("2z^-2", {"z": Fraction(2)}) == Fraction(1, 2)


@pytest.mark.parametrize("text, pos", [
    ("2*x+", 4), ("(x", 2), ("x + 1.5", 4), ("2*q", 2), ("x/0", 1),
    ("sqrt(2", 6), ("x^y", 2), ("1 $ 2", 2), ("x + 2²", 5),
])
def test_malformed_template_reports_position(text, pos):
    with pytest.raises(ExprError) as err:
        eval_poly(text, {})
    assert err.value.pos == pos
    assert f"(at position {pos})" in str(err.value)


def test_mixed_radicals_report_position():
    with pytest.raises(ExprError, match="incompatible radicals") as err:
        eval_value("sqrt(2) + sqrt(3)", {})
    assert err.value.pos == 8
