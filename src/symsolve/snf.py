"""Shift normalization of rational functions and shift structure of polynomials.

Two rational functions r, r~ are gauge-related when r~/r = u(x+1)/u(x) for
some rational u; the canonical representative of that orbit is obtained by
translating every irreducible factor so its root sum lands in (-deg, 0],
keeping the multiplicative constant.  At r = 1 the orbit map u ->
u(x+1)/u(x) is inverted by `shift_quotient_inverse`, which recovers the
monic u from a shift quotient, so a rational term ratio can be shown as
the term u itself.  Integer-shift structure (dispersion sets, shift
equivalence of factors) lives here too.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .factorization import factor_over_Q
from .poly import Poly
from .ratfunc import RatFunc

__all__ = [
    "canonical_shift",
    "shift_normal_form",
    "shift_quotient_inverse",
    "shift_equivalent",
    "dispersion_set",
    "nth_root_ratfunc",
]


def _root_sum(f: Poly) -> Fraction:
    return -Fraction(f[f.degree - 1]) / Fraction(f.lead())


def canonical_shift(f: Poly) -> Tuple[Poly, int]:
    """(fhat, k) with f(x) = fhat(x + k) and the root sum of fhat in
    (-deg f, 0].  f must be nonconstant; primitivity is preserved."""
    d = f.degree
    if d < 1:
        raise ValueError("constant polynomial has no shift class")
    s = _root_sum(f)
    k = math.ceil(s / d)
    return f.shift(k), -k


def shift_equivalent(f: Poly, g: Poly) -> Optional[int]:
    """Integer k with f(x) = g(x + k), or None.  Both primitive with
    positive leading coefficient and the same degree, typically
    irreducible factors."""
    if f.degree != g.degree or f.degree < 1:
        return None
    if f.lead() != g.lead():
        return None
    diff = _root_sum(g) - _root_sum(f)
    k = diff / f.degree
    if k.denominator != 1:
        return None
    k = k.numerator
    if g.shift(k) == f:
        return k
    return None


def shift_normal_form(r: RatFunc) -> RatFunc:
    """Canonical orbit representative under r -> r * u(x+1)/u(x)."""
    if not r:
        return r
    un, nf = factor_over_Q(r.num)
    ud, df = factor_over_Q(r.den)
    num = Poly.const(un)
    for f, m in nf:
        num = num * canonical_shift(f)[0] ** m
    den = Poly.const(ud)
    for f, m in df:
        den = den * canonical_shift(f)[0] ** m
    return RatFunc(num, den)


def shift_quotient_inverse(r: RatFunc) -> Optional[RatFunc]:
    """The monic u in Q(x) with u(x+1)/u(x) = r, or None if there is none.

    r must lie in Q(x); number-field coefficients raise ValueError.
    "Monic" means numerator and denominator are both monic, which fixes
    u, since u is unique up to a constant factor.  None is returned when
    r = 0, when the constant of r (the unit left after factoring into
    primitive integer polynomials) is not 1, or when some shift class
    of irreducible factors has unequal total multiplicity in numerator
    and denominator.

    Within a class with exponent e_k on g(x+k) in r, the exponent of
    g(x+k) in u is d_k = d_{k-1} - e_k; the sum telescopes, so u is
    finite exactly when the e_k sum to 0.
    """
    if not (r.num.is_rational() and r.den.is_rational()):
        raise ValueError("rational coefficients required")
    if not r:
        return None
    un, nf = factor_over_Q(r.num)
    ud, df = factor_over_Q(r.den)
    if un != ud:
        return None
    classes: Dict[Poly, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for factors, sign in ((nf, 1), (df, -1)):
        for f, m in factors:
            g, k = canonical_shift(f)
            classes[g][k] += sign * m
    num = den = Poly.const(Fraction(1))
    for g, exps in classes.items():
        if sum(exps.values()):
            return None
        d = 0
        for k in range(min(exps), max(exps)):
            d -= exps[k]
            if d > 0:
                num = num * g.shift(k) ** d
            elif d < 0:
                den = den * g.shift(k) ** -d
    return RatFunc(num.monic(), den.monic())


def dispersion_set(p: Poly, q: Poly) -> List[int]:
    """All integers k >= 0 with deg gcd(p(x), q(x+k)) > 0.

    Factor based: a common factor at shift k forces an irreducible f | p
    and g | q of equal degree with f(x) = g(x+k), and k is then pinned by
    the root sums.
    """
    if p.degree < 1 or q.degree < 1:
        return []
    _, pf = factor_over_Q(p)
    _, qf = factor_over_Q(q)
    ks = set()
    for f, _ in pf:
        for g, _ in qf:
            k = shift_equivalent(f, g)
            if k is not None and k >= 0:
                ks.add(k)
    return sorted(ks)


def _rational_nth_root(c: Fraction, n: int) -> Optional[Fraction]:
    from sympy import integer_nthroot

    if not c:
        return Fraction(0)
    if c < 0:
        if n % 2 == 0:
            return None
        r = _rational_nth_root(-c, n)
        return -r if r is not None else None
    rn, okn = integer_nthroot(c.numerator, n)
    rd, okd = integer_nthroot(c.denominator, n)
    if okn and okd:
        return Fraction(int(rn), int(rd))
    return None


def nth_root_ratfunc(r: RatFunc, n: int) -> Optional[RatFunc]:
    """s with s^n = r, positive constant preferred for even n; None if
    r is not an n-th power in Q(x)."""
    if n < 1:
        raise ValueError("root order must be positive")
    if not r:
        return r
    un, nf = factor_over_Q(r.num)
    ud, df = factor_over_Q(r.den)
    if any(m % n for _, m in nf) or any(m % n for _, m in df):
        return None
    c = _rational_nth_root(un / ud, n)
    if c is None:
        return None
    num = Poly.const(c)
    for f, m in nf:
        num = num * f ** (m // n)
    den = Poly.const(Fraction(1))
    for f, m in df:
        den = den * f ** (m // n)
    return RatFunc(num, den)
