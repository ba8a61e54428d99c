"""The indicial step computed the direct way, kept as a test oracle.

This expands (1+it)^(-n) once per series b_i and adds one product of a
polynomial in n by a coefficient for every (i, k, j).  The package
forms the scalars Σ_i i^j·c_(i,k) first, and its results must agree
with this.
"""

from fractions import Fraction
from typing import Sequence

from symsolve.poly import Poly

_N = Poly((Fraction(0), Fraction(1)))  # the indicial variable


def indicial_of_series(bs: Sequence):
    """First t-level of sum_i b_i(t)·(1+it)^(-n) with a nonzero coefficient,
    for the windows bs (``genexp_reference.TSeries``), as (Poly in n,
    level as Fraction); None when the window shows nothing."""
    ram = bs[0].ram
    vmin = min(s.val for s in bs)
    end = min(s.end for s in bs)
    if end <= vmin:
        return None
    levels = end - vmin
    acc = [Poly() for _ in range(levels)]
    for i, s in enumerate(bs):
        if s.is_zero():
            continue
        jmax = levels // ram + 1
        bins = [Poly.const(Fraction(1))]
        if i:
            for j in range(jmax):
                bins.append(bins[-1] * (-_N - j) * i / (j + 1))
        for k, c in enumerate(s.coeffs):
            if not c:
                continue
            base = s.val + k - vmin
            for j, B in enumerate(bins):
                lvl = base + j * ram
                if lvl >= levels:
                    break
                acc[lvl] = acc[lvl] + B * c
    for m, Pm in enumerate(acc):
        if Pm:
            return Pm, Fraction(vmin + m, ram)
    return None
