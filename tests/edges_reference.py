"""The Newton polygon at infinity read from the Fraction coefficients,
kept as a test oracle.

This is ``localdata._edges_at_infinity`` as it read degrees and leads
from ``Operator.poly_coeffs()``, tested whether a point lies on an edge
by comparing Fractions, and made each edge polynomial monic through
``Poly.monic()``.  The package reads the same degrees and leads, times
one positive integer, from ``int_coeffs()``; the two must agree on every
operator with rational coefficients.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from symsolve.localdata import _lower_hull
from symsolve.ore import Operator
from symsolve.poly import Poly


def edges_at_infinity(L: Operator) -> List[Tuple[Fraction, Poly]]:
    polys = L.poly_coeffs()
    pts = [(i, -p.degree) for i, p in enumerate(polys) if p]
    degmap: Dict[int, int] = dict(pts)
    hull = _lower_hull(pts)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        step = slope.denominator
        phi = [Fraction(0)] * ((x2 - x1) // step + 1)
        for i in range(x1, x2 + 1, step):
            if degmap.get(i) == y1 + slope * (i - x1):
                phi[(i - x1) // step] = Fraction(polys[i].lead())
        out.append((slope, Poly(phi).monic()))
    return out
