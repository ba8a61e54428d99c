"""Factorization over Q and root finding, on integer coefficient lists.

`factor_over_Q` splits a polynomial into squarefree parts over Z (Yun's
algorithm on primitive integer lists, with ``poly._int_gcd_prs`` and
exact division) and finds the rational roots of each part by lifting
its roots modulo one small prime p-adically (R. Loos, *Computing
rational zeros of integral polynomials by p-adic expansion*, SIAM J.
Comput. 12, 1983).  Every lifted root is checked exactly, so the lift
factors neither the polynomial nor any integer.  A cofactor of degree
2 or 3 with no rational root is irreducible.  Only a cofactor of
degree >= 4 without rational roots, such as the norm of a quadratic
polynomial over a quadratic field or an end coefficient with two
irreducible quadratic factors, reaches sympy's Zassenhaus factoring,
imported on that first use.

Factor lists are normalized to primitive integer-coefficient
polynomials with positive leading coefficient and a rational unit,
sorted deterministically, so sympy objects never leak into the rest of
the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from .fieldext import _SMALL_PRIMES, NFElem, NumberField, demote, value_sqrt
from .poly import Poly, _int_exact_div, _int_gcd_prs, _list_sub, poly_gcd

__all__ = ["ExtensionDegreeError", "factor_over_Q", "roots", "root_multiplicity"]


def factor_over_Q(p: Poly) -> Tuple[Fraction, List[Tuple[Poly, int]]]:
    """p = unit * prod f_i^{m_i} with f_i primitive integer polynomials,
    positive leading coefficients, sorted by (degree, coefficients).

    p is cleared to one integer list by the lcm of its denominators, its
    content with the sign of its lead is the unit's numerator, and each
    squarefree part gives its rational roots by ``_rational_roots``.  A
    cofactor of degree >= 4 left without rational roots is factored by
    sympy's dense integer kernel."""
    if not p:
        return Fraction(0), []
    if p.degree == 0:
        return Fraction(p.coeffs[0]), []
    den = math.lcm(*(Fraction(c).denominator for c in p.coeffs))
    ints = [(Fraction(c) * den).numerator for c in p.coeffs]
    cont = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    out = []
    for m, part in _squarefree_parts([c // cont for c in ints]):
        rest = part
        for f in _rational_roots(part):
            rest = _int_exact_div(rest, f)
            out.append((f, m))
        if len(rest) > 4:
            out += [(f, m) for f in _zassenhaus(rest)]
        elif len(rest) > 1:
            out.append((rest, m))
    out = [(Poly([Fraction(c) for c in f]), m) for f, m in out]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Fraction(cont, den), out


def _derivative(f: list) -> list:
    return [k * c for k, c in enumerate(f)][1:]


def _positive(f: list) -> list:
    return [-c for c in f] if f[-1] < 0 else f


def _squarefree_parts(f: list) -> List[Tuple[int, list]]:
    """[(m, s_m)] with f = prod s_m^m over the nonconstant s_m, for f a
    primitive integer list with positive lead; each s_m is squarefree,
    primitive with positive lead, and coprime to the others.

    Yun's algorithm: with g = gcd(f, f'), b = f/g and d = f'/g - b',
    each a = gcd(b, d) is the next part, then b <- b/a and
    d <- d/a - b'.  Every division is by a primitive divisor, so it is
    exact over Z (Gauss's lemma), and b and d keep one common scale."""
    df = _derivative(f)
    g = _positive(_int_gcd_prs(f, df))
    if len(g) == 1:
        return [(1, f)]
    b = _int_exact_div(f, g)
    d = _list_sub(_int_exact_div(df, g), _derivative(b))
    parts, m = [], 1
    while len(b) > 1:
        a = _positive(_int_gcd_prs(b, d))
        b = _int_exact_div(b, a)
        d = _list_sub(_int_exact_div(d, a), _derivative(b))
        if len(a) > 1:
            parts.append((m, a))
        m += 1
    return parts


def _primes() -> Iterator[int]:
    """2, 3, 5, ...: the small primes, then the next ones by trial division."""
    yield from _SMALL_PRIMES
    n = _SMALL_PRIMES[-1]
    while True:
        n += 2
        if all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            yield n


def _mod_gcd_degree(a: list, b: list, p: int) -> int:
    """Degree of gcd(a, b) over GF(p), a and b reduced mod p with nonzero
    leads or empty."""
    while b:
        inv = pow(b[-1], -1, p)
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            for j, cb in enumerate(b, len(a) - len(b)):
                a[j] = (a[j] - q * cb) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _eval_mod(f: list, x: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _rational_roots(f: list) -> List[list]:
    """The linear factors v·x - u (v > 0, primitive) of a squarefree
    primitive integer list f with positive lead, one per rational root.

    p is the first prime that does not divide the lead and keeps f
    squarefree mod p, so every rational root u/v, where v divides the
    lead, is a simple root mod p.  Each root mod p is lifted by Newton's
    iteration until p^k exceeds twice the bound lead + max|f_i| on
    w = lead·u/v, an integer; w is read as a symmetric residue, and
    u/v = w/lead is kept only when f(u/v) = 0 exactly."""
    n, lead, found = len(f) - 1, f[-1], []
    df = _derivative(f)
    for p in _primes():
        if lead % p:
            fp, dfp = [c % p for c in f], [c % p for c in df]
            while dfp and not dfp[-1]:
                dfp.pop()
            if _mod_gcd_degree(fp, dfp, p) == 0:
                break
    bound = 2 * (lead + max(abs(c) for c in f[:-1])) + 1
    for r in range(p):
        if _eval_mod(f, r, p):
            continue
        m = p
        while m < bound:
            m *= m
            r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
        w = r * lead % m
        if w > m // 2:
            w -= m
        root = Fraction(w, lead)
        u, v = root.numerator, root.denominator
        if not sum(c * u ** k * v ** (n - k) for k, c in enumerate(f)):
            found.append([-u, v])
    return found


def _zassenhaus(f: list) -> List[list]:
    """The irreducible factors of a squarefree primitive integer list f
    with positive lead, by sympy's dense integer kernel."""
    # imported here: loading sympy's factoring costs more than a table load
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    _, factors = dup_factor_list([ZZ(c) for c in reversed(f)], ZZ)
    return [[int(c) for c in reversed(g)] for g, _ in factors]


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
