"""Frozen oracle values for the special-function evaluators.

Hand-checked references:
  H_2(1) = 4z^2-2 at z=1 = 2;  H_3(2) = 8z^3-12z at z=2 = 40
  P_2(3/5) = (3z^2-1)/2 = 1/25;  P_3(3/5) = (5z^3-3z)/2 = -9/25
  I_3(1) = 0.02216842492433190...  (power series)
  2F1(-1/2, 7/6; 7/6; 1/4) = (1-1/4)^(1/2) = sqrt(3)/2   (binomial case)
  2F1(-1, 5/3; 7/6; 1/4) = 1 - (5/3)/(7/6)/4 = 9/14
"""

from fractions import Fraction as F

import pytest

from symsolve.evaluators import EvaluatorError, eval_special


def test_hermite_exact():
    assert eval_special("H", 2, {"z": F(1)}, exact=True) == 2
    assert eval_special("H", 3, {"z": F(2)}, exact=True) == 40
    assert eval_special("H", 0, {"z": F(7, 3)}, exact=True) == 1


def test_legendre_exact():
    assert eval_special("P", 2, {"z": F(1)}, exact=True) == 1
    assert eval_special("P", 2, {"z": F(3, 5)}, exact=True) == F(1, 25)
    assert eval_special("P", 3, {"z": F(3, 5)}, exact=True) == F(-9, 25)


def test_bessel_float():
    v = eval_special("I", 3, {"z": F(1)})
    assert abs(v - 0.022168424924331902) < 1e-12
    with pytest.raises(EvaluatorError):
        eval_special("I", 3, {"z": F(1)}, exact=True)


def test_gauss_halfarg_terminating():
    params = {"a": F(0), "b": F(2, 3), "c": F(7, 6), "z": F(1, 4)}
    assert eval_special("2F1", 0, params, exact=True) == 1
    assert eval_special("2F1", 2, params, exact=True) == F(9, 14)


def test_gauss_halfarg_float_binomial_case():
    params = {"a": F(0), "b": F(2, 3), "c": F(7, 6), "z": F(1, 4)}
    v = eval_special("2F1", 1, params)
    assert abs(v - 0.75 ** 0.5) < 1e-12


def test_unknown_evaluator():
    with pytest.raises(EvaluatorError):
        eval_special("Ai", 1, {"z": F(1)})


def test_float_mode_matches_exact_mode():
    for x in range(0, 12):
        ex = eval_special("H", x, {"z": F(1, 2)}, exact=True)
        fl = eval_special("H", x, {"z": F(1, 2)})
        assert abs(fl - float(ex)) <= 1e-12 * max(1.0, abs(float(ex)))
