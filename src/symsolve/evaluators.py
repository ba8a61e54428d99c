"""Numeric/exact evaluation of the base-table solution families.

Every table entry names one of the evaluators here; certificates use them
for the numeric verification stage.  Exact mode returns Fractions and is
available whenever the value is a finite rational computation (recurrence
families, terminating hypergeometric sums); float mode goes through mpmath
at generous working precision and returns a Python float.  mpmath is
imported on first use, so loading the table imports no numerics library.
"""

from fractions import Fraction
from typing import Mapping

__all__ = ["EvaluatorError", "eval_special", "EVALUATORS"]

_DPS = 30


class EvaluatorError(ValueError):
    pass


def _hermite(x: int, z: Fraction) -> Fraction:
    if x < 0:
        raise EvaluatorError("Hermite index must be >= 0")
    prev, cur = Fraction(1), 2 * z
    if x == 0:
        return prev
    for n in range(1, x):
        prev, cur = cur, 2 * z * cur - 2 * n * prev
    return cur


def _legendre(x: int, z: Fraction) -> Fraction:
    if x < 0:
        raise EvaluatorError("Legendre index must be >= 0")
    prev, cur = Fraction(1), Fraction(z)
    if x == 0:
        return prev
    for n in range(1, x):
        prev, cur = cur, ((2 * n + 1) * z * cur - n * prev) / (n + 1)
    return cur


def _terminating_pfq(uppers, lowers, z: Fraction, n: int) -> Fraction:
    """Sum_{k=0..n} prod (u)_k / prod (l)_k * z^k / k! exactly."""
    total = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        total += term
        num = Fraction(1)
        for u in uppers:
            num *= u + k
        den = Fraction(1)
        for l in lowers:
            den *= l + k
        if den == 0:
            raise EvaluatorError("lower parameter hits a non-positive integer")
        term = term * num / den * z / (k + 1)
    return total


def _gauss_halfarg(x: int, a, b, c, z, exact: bool):
    """2F1(-x/2 + a, x/2 + b; c; z) for the half-argument family."""
    A = a - Fraction(x, 2)
    B = b + Fraction(x, 2)
    if A <= 0 and A.denominator == 1:
        val = _terminating_pfq([A, B], [c], Fraction(z), -int(A))
        return val if exact else float(val)
    if exact:
        raise EvaluatorError("2F1 value is not a terminating sum here")
    import mpmath as mp

    with mp.workdps(_DPS):
        # zeroprec: the family has exact zeros (e.g. a+b = 1, z = 1/2 sits
        # on the second Gauss evaluation), which plain hypsum cannot settle
        v = mp.hyp2f1(mp.mpf(A.numerator) / A.denominator,
                      mp.mpf(B.numerator) / B.denominator,
                      mp.mpf(c.numerator) / c.denominator,
                      mp.mpf(z.numerator) / z.denominator,
                      zeroprec=40 * _DPS)
        return float(v)


def _bessel_i(x: int, z, exact: bool):
    if exact:
        raise EvaluatorError("Bessel I has no exact rational mode")
    import mpmath as mp

    with mp.workdps(_DPS):
        return float(mp.besseli(x, mp.mpf(z.numerator) / z.denominator))


def eval_special(eid: str, x: int, params: Mapping[str, Fraction],
                 exact: bool = False):
    """Evaluate the named base solution at integer x.

    Known ids: H (Hermite), P (Legendre), I (modified Bessel, float only),
    2F1 (half-argument Gauss family, params a, b, c, z).
    """
    try:
        fn = EVALUATORS[eid]
    except KeyError:
        raise EvaluatorError(f"unknown evaluator {eid!r}") from None
    p = {k: Fraction(v) for k, v in params.items()}
    try:
        return fn(x, p, exact)
    except KeyError as e:
        raise EvaluatorError(f"evaluator {eid!r} missing parameter {e}") from None


EVALUATORS = {
    "H": lambda x, p, ex: (_hermite(x, p["z"]) if ex
                           else float(_hermite(x, p["z"]))),
    "P": lambda x, p, ex: (_legendre(x, p["z"]) if ex
                           else float(_legendre(x, p["z"]))),
    "I": lambda x, p, ex: _bessel_i(x, p["z"], ex),
    "2F1": lambda x, p, ex: _gauss_halfarg(x, p["a"], p["b"], p["c"],
                                           p["z"], ex),
}
