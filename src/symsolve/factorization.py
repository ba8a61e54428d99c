"""Factorization over Q and root finding, on top of sympy's exact kernels.

Everything converts through integer coefficient lists, so sympy objects
never leak into the rest of the package.  Factor lists are normalized to
primitive integer-coefficient polynomials with positive leading
coefficient and a rational unit, sorted deterministically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .fieldext import NFElem, NumberField, demote, value_sqrt
from .poly import Poly, poly_gcd

__all__ = ["ExtensionDegreeError", "factor_over_Q", "roots", "root_multiplicity"]


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


# -- roots in Q or one quadratic field -----------------------------------------


class ExtensionDegreeError(ValueError):
    """A root outside Q and the one quadratic field allowed; ``factor`` is
    the irreducible factor that holds it."""

    def __init__(self, factor: Poly):
        super().__init__("unsupported extension degree")
        self.factor = factor


def root_multiplicity(p: Poly, root) -> int:
    m = 0
    while p.degree >= 1 and not p.eval(root):
        p = _deflate(p, root)
        m += 1
    return m


def _deflate(p: Poly, root) -> Poly:
    # synthetic division by (x - root); remainder known to vanish
    out = [0] * p.degree
    acc = p[p.degree]
    for k in range(p.degree - 1, -1, -1):
        out[k] = acc
        acc = p[k] + acc * root
    return Poly(out)


def roots(p: Poly, base: Optional[NumberField] = None) -> List[Tuple[object, int]]:
    """Distinct roots of p with multiplicities, demoted to Fraction when
    rational.

    With base None, p is rational and the two roots of an irreducible
    quadratic factor lie in their own Q(sqrt disc).  With a quadratic base,
    p may have coefficients in it and every root must lie in it.  A root
    outside that reach raises ExtensionDegreeError naming its factor.
    A linear p gives its one root directly, with no factoring.
    """
    if not p:
        raise ValueError("zero polynomial")
    p = p.map_coeffs(demote)
    if p.degree == 1:
        return [(demote(-p[0] / p[1]), 1)]
    if p.is_rational():
        factors = factor_over_Q(p)[1]
    else:
        # p's factors over base are its gcds with the factors over Q of
        # the norm p * conj(p)
        pf = p.map_coeffs(base.coerce)
        nrm = pf * pf.map_coeffs(NFElem.conjugate)
        factors = []
        for f, _ in factor_over_Q(nrm.map_coeffs(demote))[1]:
            g = poly_gcd(pf, f.map_coeffs(base.coerce))
            if g.degree >= 1:
                factors.append((g, None))  # multiplicity counted per root
    out = []
    for f, m in factors:
        if f.degree == 1:
            found = [-f[0] / f[1]]
        elif f.degree == 2:
            disc = f[1] * f[1] - 4 * f[2] * f[0]
            s = value_sqrt(disc if base is None else base.coerce(disc))
            if s is None:
                raise ExtensionDegreeError(f)
            found = [(-f[1] + s) / (2 * f[2]), (-f[1] - s) / (2 * f[2])]
        else:
            raise ExtensionDegreeError(f)
        out += [(demote(r), m or root_multiplicity(pf, r)) for r in found]
    return out
