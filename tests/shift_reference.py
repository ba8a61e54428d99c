"""Shift structure computed the direct way, kept as test oracles.

These factor whole products of shifted polynomials and run gcd loops on
them.  The package reads the same structure from `snf.shift_classes` on
single coefficients, and its results must agree with these.
"""

from fractions import Fraction
from typing import List, Optional

from symsolve.factorization import factor_over_Q
from symsolve.poly import Poly, poly_gcd
from symsolve.ratfunc import RatFunc
from symsolve.snf import canonical_shift


def _root_sum(f: Poly) -> Fraction:
    return -Fraction(f[f.degree - 1]) / Fraction(f.lead())


def shift_equivalent(f: Poly, g: Poly) -> Optional[int]:
    """Integer k with f(x) = g(x + k), or None.  Both primitive with
    positive leading coefficient and the same degree, typically
    irreducible factors."""
    if f.degree != g.degree or f.degree < 1:
        return None
    if f.lead() != g.lead():
        return None
    k = (_root_sum(g) - _root_sum(f)) / f.degree
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


def dispersion_set(p: Poly, q: Poly) -> List[int]:
    """All integers k >= 0 with deg gcd(p(x), q(x+k)) > 0, from the
    irreducible factors of p and q paired by root sums."""
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


def abramov_denominator(A: Poly, B: Poly) -> Poly:
    """Universal denominator by Abramov's gcd loop on the products A, B."""
    u = Poly.const(Fraction(1))
    if A.degree < 1 or B.degree < 1:
        return u
    A, B = A.primitive(), B.primitive()
    for h in reversed(dispersion_set(A, B)):
        g = poly_gcd(A, B.shift(h))
        if g.degree < 1:
            continue
        A = A.exact_div(g)
        B = B.exact_div(g.shift(-h))
        for i in range(h + 1):
            u = u * g.shift(-i)
    return u


def hom_denominator(p1: List[Poly], p2: List[Poly]) -> Poly:
    """u of hom_space from the multiplied-out end data."""
    d1, d2 = len(p1) - 1, len(p2) - 1
    B = p2[0]
    A = p2[d2].shift(-d2)
    for m in range(d2):
        B = B * p1[d1].shift(m)
        A = A * p1[0].shift(m - d2) * p1[d1].shift(m - d2)
    return abramov_denominator(A, B)


def rational_denominator(polys: List[Poly]) -> Poly:
    """u of the rational solutions of a_0 + … + a_d·τ^d, the one
    hom_space gives for the source τ - 1."""
    d = len(polys) - 1
    return abramov_denominator(polys[d].shift(-d), polys[0])


def term_candidates(L1, L2) -> List[RatFunc]:
    """d-th roots of the shift normal form of det(L2)/det(L1), both
    signs for even d."""
    d = L1.order
    # det(L) = (-1)^d·a_0/a_d, and the signs cancel at equal orders
    ratio = (L2.coeff(0) / L2.leading()) / (L1.coeff(0) / L1.leading())
    root = nth_root_ratfunc(shift_normal_form(ratio), d)
    if root is None:
        return []
    return [root, -root] if d % 2 == 0 else [root]
