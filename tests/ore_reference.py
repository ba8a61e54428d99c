"""The rational canonical form of an operator, kept as a test oracle.

This is the ``Operator.canonical`` the package carried before it read
the integer form ``Operator.int_coeffs``: a monic polynomial gcd chain
over Q, exact division by it, then division by the rational content,
signed so that the leading coefficient of a_d is positive.  Over a
number field it made the leading coefficient of a_d monic instead.  On
every operator with rational values the two must agree.
"""

from fractions import Fraction

from symsolve.fieldext import demote
from symsolve.ore import Operator
from symsolve.poly import Poly, poly_gcd, rational_content


def reference_canonical(L: Operator) -> Operator:
    """Representative of {f(x)·L}: cleared polynomial coefficients,
    rational content 1 with positive leading coefficient of a_d
    (leading coefficient of a_d monic over a number field)."""
    if not L.coeffs:
        return L
    polys = L.poly_coeffs()
    rational = all(p.is_rational() for p in polys)
    if not rational:
        # rational values over a number field normalize as rationals
        demoted = [p.map_coeffs(demote) for p in polys]
        rational = all(p.is_rational() for p in demoted)
        if rational:
            polys = demoted
    g = Poly()
    for p in polys:
        if p:
            g = poly_gcd(g, p)
    if g.degree > 0:
        polys = [p.exact_div(g) if p else p for p in polys]
    if rational:
        content = rational_content(p.content() for p in polys)
        if polys[-1].lead() < 0:
            content = -content
        if content != 1:
            polys = [p * (Fraction(1) / content) for p in polys]
    elif polys[-1].lead() != 1:
        inv = 1 / polys[-1].lead()
        polys = [p * inv for p in polys]
    return Operator(polys)
