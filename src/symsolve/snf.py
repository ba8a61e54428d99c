"""Shift structure of polynomials and shift quotients.

`shift_classes` is the one place that reads shift structure.  It factors
p once with `factor_over_Q` and groups the irreducible factors by shift
class, each named by its canonical representative (root sum in
(-deg, 0]) with the integer offsets where it occurs; the factors of
p(x+k) are the shifts of those of p.  A constant or linear p needs no
factoring.  The classes of a
product of shifted polynomials whose classes are known are composed by
`compose_classes`, not factored: `product_classes` divides those
candidate factors out of the product exactly over Z and checks that a
constant, the unit, remains.  `shift_quotient_inverse` recovers the
monic u from a shift quotient r = u(x+1)/u(x), so a rational term ratio
can be shown as the term u itself.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .factorization import factor_over_Q
from .poly import Poly, _int_exact_div, _list_shift
from .ratfunc import RatFunc

__all__ = [
    "canonical_shift",
    "compose_classes",
    "product_classes",
    "shift_classes",
    "shift_quotient_inverse",
]

#: shift class representative -> {offset k: multiplicity of rep(x + k)},
#: read-only, since operators keep and share them
ShiftClasses = Mapping[Poly, Mapping[int, int]]


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


def shift_classes(p: Poly) -> Tuple[Fraction, ShiftClasses]:
    """(unit, classes) with p = unit·∏ rep(x + k)^m over the classes
    {rep: {k: m}}, from one factorization of p over Q: ``factor_over_Q``
    splits off the rational roots of p's squarefree parts by a p-adic
    lift, and only a cofactor of degree >= 4 without them goes to
    sympy's Zassenhaus.

    Each rep is primitive with positive leading coefficient and is its
    own canonical shift, so two factors lie in one class exactly when
    they are integer shifts of each other.  p must be rational.  The
    mappings are read-only.  A constant is its own unit, and a linear p
    is its content g times its primitive factor c1·x + c0 = rep(x + k),
    with rep = c1·x + (c0 mod c1) and k = c0 div c1, so neither is
    factored.
    """
    if p.degree < 1:
        return Fraction(p[0]), _frozen({})
    if p.degree == 1:
        den = math.lcm(Fraction(p[0]).denominator, Fraction(p[1]).denominator)
        c0, c1 = ((Fraction(c) * den).numerator for c in p.coeffs)
        g = math.gcd(c0, c1) if c1 > 0 else -math.gcd(c0, c1)
        c0, c1 = c0 // g, c1 // g
        rep = Poly((Fraction(c0 % c1), Fraction(c1)))
        return Fraction(g, den), _frozen({rep: {c0 // c1: 1}})
    unit, factors = factor_over_Q(p)
    classes: Dict[Poly, Dict[int, int]] = {}
    for f, m in factors:
        rep, k = canonical_shift(f)  # f(x) = rep(x + k)
        offsets = classes.setdefault(rep, {})
        offsets[k] = offsets.get(k, 0) + m
    return unit, _frozen(classes)


def _frozen(classes) -> ShiftClasses:
    return MappingProxyType({rep: MappingProxyType(offsets)
                             for rep, offsets in classes.items()})


def compose_classes(parts: Iterable[Tuple[ShiftClasses, int]]) -> Dict[Poly, Counter]:
    """Offset counts {rep: {k: m}} of ∏ p(x + s) over the parts, each a
    pair (shift classes of p, s): the classes of p shifted by s and
    summed, with no product formed."""
    counts: Dict[Poly, Counter] = defaultdict(Counter)
    for classes, s in parts:
        for rep, offsets in classes.items():
            counts[rep].update({k + s: m for k, m in offsets.items()})
    return counts


def product_classes(p: List[int], parts: Iterable[Tuple[ShiftClasses, int]]
                    ) -> Tuple[Fraction, ShiftClasses]:
    """``shift_classes(Poly(p))`` for an integer polynomial p that divides
    ∏ f(x + s) over the parts (shift classes of f, s) up to a constant,
    read from those classes with no factoring.

    Each candidate rep(x + k) of ``compose_classes(parts)`` is an
    irreducible primitive factor and is divided out of p exactly over Z
    as often as it divides, at most its count.  What remains must be a
    constant, the unit; anything else means a factor of p is missing
    from the parts and raises AssertionError.  A zero p has unit 0.
    """
    classes: Dict[Poly, Dict[int, int]] = {}
    if not p:
        return Fraction(0), _frozen(classes)
    for rep, counts in compose_classes(parts).items():
        base = [int(c) for c in rep.coeffs]
        for k, m in counts.items():
            f, got = _list_shift(base, k), 0
            while got < m:
                q = _int_exact_div(p, f)
                if q is None:
                    break
                p, got = q, got + 1
            if got:
                classes.setdefault(rep, {})[k] = got
    if len(p) != 1:
        raise AssertionError("the candidate shift classes leave a nonconstant "
                             "cofactor")
    return Fraction(p[0]), _frozen(classes)


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
    un, num_classes = shift_classes(r.num)
    ud, den_classes = shift_classes(r.den)
    if un != ud:
        return None
    classes = {g: dict(offsets) for g, offsets in num_classes.items()}
    for g, offsets in den_classes.items():
        exps = classes.setdefault(g, {})
        for k, m in offsets.items():
            exps[k] = exps.get(k, 0) - m
    num = den = Poly.const(Fraction(1))
    for g, exps in classes.items():
        if sum(exps.values()):
            return None
        d = 0
        for k in range(min(exps), max(exps)):
            d -= exps.get(k, 0)
            if d > 0:
                num = num * g.shift(k) ** d
            elif d < 0:
                den = den * g.shift(k) ** -d
    return RatFunc(num.monic(), den.monic())
