"""Factoring over Q by sympy's dense integer kernel, kept as a test oracle.

This is the ``factorization.factor_over_Q`` the package carried before it
found rational roots by p-adic lifting: every polynomial went through
sympy's ``dup_factor_list``.  The two must return equal (unit, factors).
"""

import math
from fractions import Fraction
from typing import List, Tuple

from symsolve.poly import Poly


def factor_over_Q(p: Poly) -> Tuple[Fraction, List[Tuple[Poly, int]]]:
    """p = unit * prod f_i^{m_i} with f_i primitive integer polynomials,
    positive leading coefficients, sorted by (degree, coefficients).

    p is cleared to one integer list by the lcm of its denominators and
    factored by sympy's dense integer kernel, whose factors are primitive
    with positive leading coefficients and whose content carries the sign."""
    if not p:
        return Fraction(0), []
    if p.degree == 0:
        return Fraction(p.coeffs[0]), []
    # imported here: loading sympy's factoring costs more than a table load
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    den = math.lcm(*(Fraction(c).denominator for c in p.coeffs))
    ints = [ZZ((Fraction(c) * den).numerator) for c in reversed(p.coeffs)]
    cont, factors = dup_factor_list(ints, ZZ)
    out = [(Poly([Fraction(int(c)) for c in reversed(f)]), int(m)) for f, m in factors]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Fraction(int(cont), den), out
