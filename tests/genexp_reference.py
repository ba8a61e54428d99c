"""Generalized exponents at infinity computed the direct way, kept as test
oracles.

For every root c of every edge this twists L by the windowed series of
c·t^v·h, through a generic series inverse, the shift τ applied term by
term and one series product per coefficient, and reads the indicial
polynomial by ``indicial_reference``'s direct expansion, in Fraction
and number-field arithmetic; quotients of exponents go through a series
division.  The package builds the twist once per slope over the
integers, reads each root off it on integer coordinates at one scale,
searches one root per conjugate pair, and writes quotients in closed
form; its results must agree with these.  The twist here starts from
the windows of L's own coefficients, where the package clears them to
integers by one scalar.

The series windows (``TSeries``) and the arithmetic on them (sums,
products, ramification changes) live here too: the package keeps its
windows as integer lists and needs none of it.
"""

import math
from fractions import Fraction
from typing import List, Optional, Sequence

from symsolve.factorization import ExtensionDegreeError, roots
from symsolve.fieldext import field_of
from symsolve.localdata import (
    GenExpRep,
    GenExpSet,
    _dedupe_entries,
    _lower_hull,
    _sqrt,
)
from symsolve.ore import Operator
from symsolve.poly import Poly, _fieldify

from indicial_reference import indicial_of_series


# -- series operations -------------------------------------------------------


class TSeries:
    """Truncated Laurent/Puiseux series in t = 1/x: the window
    sum_k coeffs[k]·t^((val+k)/ram) + O(t^((val+len)/ram)) of known
    coefficients, which are Fractions, number-field elements or
    polynomials in the indicial variable."""

    __slots__ = ("ram", "val", "coeffs")

    def __init__(self, ram: int, val: int, coeffs: Sequence):
        if ram < 1:
            raise ValueError("ramification must be positive")
        self.ram = ram
        self.val = val
        self.coeffs = tuple(coeffs)

    @property
    def end(self) -> int:
        """First unknown exponent, in 1/ram units."""
        return self.val + len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        parts = [f"({c})*t^({Fraction(self.val + k, self.ram)})"
                 for k, c in enumerate(self.coeffs) if c]
        tail = f"O(t^({Fraction(self.end, self.ram)}))"
        return "TSeries(" + (" + ".join(parts + [tail])) + ")"


def from_poly_in_invx(p: Poly, ram: int, pad: int) -> TSeries:
    """p(1/t) as an exact Laurent window with `pad` extra known zeros."""
    if not p:
        return TSeries(ram, 0, (Fraction(0),) * pad)
    rev = list(reversed(p.coeffs))
    if ram > 1:
        spread = []
        for c in rev:
            spread.append(c)
            spread.extend([Fraction(0)] * (ram - 1))
        rev = spread[: len(spread) - (ram - 1)]
    return TSeries(ram, -p.degree * ram, tuple(rev) + (Fraction(0),) * pad)


def coeff_windows(polys: Sequence[Poly], ram: int, pad: int) -> List[TSeries]:
    out = []
    for p in polys:
        if not p:
            out.append(TSeries(ram, 0, (Fraction(0),) * (pad + 1)))
        else:
            out.append(from_poly_in_invx(p, ram, pad))
    return out


def monomial(c, exponent: Fraction, ram: int, nterms: int) -> TSeries:
    e = Fraction(exponent) * ram
    if e.denominator != 1:
        raise ValueError("exponent not representable at this ramification")
    return TSeries(ram, int(e), (c,) + (Fraction(0),) * (nterms - 1))


def one(ram: int, nterms: int) -> TSeries:
    return monomial(Fraction(1), Fraction(0), ram, nterms)


def valuation(s: TSeries):
    """Exponent of the first nonzero known term, or None."""
    for k, c in enumerate(s.coeffs):
        if c:
            return Fraction(s.val + k, s.ram)
    return None


def coeff_at(s: TSeries, exponent: Fraction):
    e = Fraction(exponent) * s.ram
    if e.denominator != 1:
        return Fraction(0)
    k = int(e) - s.val
    if k < 0 or k >= len(s.coeffs):
        return Fraction(0)
    return s.coeffs[k]


def strip(s: TSeries) -> TSeries:
    k = 0
    while k < len(s.coeffs) and not s.coeffs[k]:
        k += 1
    return TSeries(s.ram, s.val + k, s.coeffs[k:])


def lift(s: TSeries, ram: int) -> TSeries:
    if ram == s.ram:
        return s
    if ram % s.ram:
        raise ValueError("can only lift to a multiple ramification")
    f = ram // s.ram
    out: List = []
    for c in s.coeffs:
        out.append(c)
        out.extend([Fraction(0)] * (f - 1))
    if out:
        out = out[: len(out) - (f - 1)]
    return TSeries(ram, s.val * f, out)


def retrunc(s: TSeries, nterms: int) -> TSeries:
    return TSeries(s.ram, s.val, s.coeffs[:nterms])


def _aligned(a: TSeries, b: TSeries):
    r = a.ram * b.ram // math.gcd(a.ram, b.ram)
    return lift(a, r), lift(b, r)


def add(a: TSeries, b: TSeries) -> TSeries:
    """a + b on the window both know."""
    a, b = _aligned(a, b)
    lo = min(a.val, b.val)
    hi = min(a.end, b.end)
    if hi <= lo:
        return TSeries(a.ram, hi, ())
    out = []
    for k in range(lo, hi):
        ca = a.coeffs[k - a.val] if k >= a.val else Fraction(0)
        cb = b.coeffs[k - b.val] if k >= b.val else Fraction(0)
        out.append(ca + cb)
    return TSeries(a.ram, lo, out)


def mul(a: TSeries, b) -> TSeries:
    """a·b for a series or a scalar b, on the window both know."""
    if not isinstance(b, TSeries):
        return TSeries(a.ram, a.val, tuple(c * b for c in a.coeffs))
    a, b = _aligned(a, b)
    n = min(len(a.coeffs), len(b.coeffs))
    out = [None] * n
    for i in range(n):
        acc = None
        for j in range(i + 1):
            term = a.coeffs[j] * b.coeffs[i - j]
            acc = term if acc is None else acc + term
        out[i] = acc
    return TSeries(a.ram, a.val + b.val, out)


def sub(a: TSeries, b: TSeries) -> TSeries:
    return add(a, mul(b, -1))


def reduce_ram(s: TSeries) -> TSeries:
    """Smallest ramification representing the known window."""
    s = strip(s)
    if s.is_zero() or s.ram == 1:
        return s
    g = s.ram
    g = math.gcd(g, s.val % s.ram if s.val % s.ram else s.ram)
    for k, c in enumerate(s.coeffs):
        if c:
            g = math.gcd(g, k)
        if g == 1:
            return s
    return TSeries(s.ram // g, s.val // g, s.coeffs[::g])


def inverse(s: TSeries) -> TSeries:
    s = strip(s)
    if not s.coeffs or not s.coeffs[0]:
        raise ZeroDivisionError("inverting a series with no known leading term")
    c0 = s.coeffs[0]
    n = len(s.coeffs)
    inv0 = 1 / _fieldify(c0)
    out = [inv0]
    for k in range(1, n):
        acc = None
        for j in range(1, k + 1):
            term = s.coeffs[j] * out[k - j]
            acc = term if acc is None else acc + term
        out.append(-inv0 * acc)
    return TSeries(s.ram, -s.val, out)


def div(a: TSeries, b) -> TSeries:
    """a / b for a series or a scalar b."""
    if not isinstance(b, TSeries):
        return mul(a, 1 / _fieldify(b))
    return mul(a, inverse(b))


def tau(s: TSeries) -> TSeries:
    """Apply x -> x+1: t^e -> t^e (1+t)^(-e) expanded on the known
    window (exact for each stored term)."""
    if s.is_zero():
        return s
    n = len(s.coeffs)
    out = [Fraction(0)] * n
    for k, c in enumerate(s.coeffs):
        if not c:
            continue
        e = Fraction(s.val + k, s.ram)
        # (1 + t)^(-e): integer powers of t = ram steps
        b = Fraction(1)
        j = 0
        while k + j * s.ram < n:
            out[k + j * s.ram] = out[k + j * s.ram] + c * b
            b = b * (-e - j) / (j + 1)
            j += 1
    return TSeries(s.ram, s.val, out)


def series(g: GenExpRep, slots: int) -> TSeries:
    """Exact window of the element an E_r representative stands for."""
    coeffs = [g.c] + [g.c * a for a in g.tail]
    coeffs += [Fraction(0)] * max(0, slots - len(coeffs))
    return TSeries(g.r, int(g.v * g.r), coeffs[:max(slots, len(coeffs))])


def trunc(s: TSeries, r: Optional[int] = None) -> GenExpRep:
    """E_r representative of a nonzero series: keep the leading constant,
    the valuation, and tail coefficients through t^(r/r)."""
    if r is None:
        r = s.ram
    ss = s
    if ss.ram != r:
        ss = reduce_ram(ss)
        if r % ss.ram:
            raise ValueError("series not representable at this ramification")
        ss = lift(ss, r)
    ss = strip(ss)
    if not ss.coeffs or not ss.coeffs[0]:
        raise ValueError("series is zero to truncation order")
    if len(ss.coeffs) < r + 1:
        raise ValueError("insufficient truncation for an E_r representative")
    c = ss.coeffs[0]
    inv = 1 / _fieldify(c)
    tail = tuple(ss.coeffs[k] * inv for k in range(1, r + 1))
    return GenExpRep(r, c, Fraction(ss.val, r), tail)


# -- the twist and the branches, one root at a time ---------------------------


def twisted_series(polys: Sequence[Poly], g: TSeries, slots: int) -> List[TSeries]:
    """Coefficient series b_i of L ⊛ (τ - 1/g) for exact windowed g."""
    ram = g.ram
    d = len(polys) - 1
    rho = retrunc(inverse(g), slots)
    windows = coeff_windows(polys, ram, slots)
    taus = [rho]
    for _ in range(d - 1):
        taus.append(tau(taus[-1]))
    suffix = [None] * (d + 1)
    suffix[d] = TSeries(ram, 0, (Fraction(1),) + (Fraction(0),) * (slots - 1))
    for i in range(d - 1, -1, -1):
        suffix[i] = mul(taus[i], suffix[i + 1])
    return [mul(windows[i], suffix[i]) for i in range(d + 1)]


def _tail_candidates(polys, c, v: Fraction, beta, ram: int) -> List[GenExpRep]:
    base = field_of([c, beta])
    for slots in (2 * ram + 2, 4 * ram + 4):
        if ram == 1:
            g = monomial(c, v, 1, slots)
        else:
            cs = [c, c * beta] + [Fraction(0)] * (slots - 2)
            g = TSeries(2, int(Fraction(v) * 2), cs[:slots])
        got = indicial_of_series(twisted_series(polys, g, slots))
        if got is None:
            continue
        P, _lvl = got
        if not P.degree >= 1:
            return []
        return [GenExpRep(ram, c, Fraction(v), (-n0,) if ram == 1 else (beta, -n0), m)
                for n0, m in roots(P, base)]
    raise ValueError("increase truncation")


def _ramified_branch(polys, c, v: Fraction, want_beta_zero: bool):
    d = len(polys) - 1
    entries: List[GenExpRep] = []
    incomplete = False
    for slots in (6, 12):
        bs = twisted_series(polys, monomial(c, v, 2, slots), slots)
        mal = []
        for alpha in range(d + 1):
            acc = None
            for i in range(alpha, d + 1):
                term = mul(bs[i], Fraction(math.comb(i, alpha)))
                acc = term if acc is None else add(acc, term)
            mal.append(acc)
        vals = []
        for alpha, m in enumerate(mal):
            va = valuation(m)
            if va is not None:
                vals.append((alpha, va))
        if not vals:
            continue
        best = min(va + Fraction(alpha, 2) for alpha, va in vals)
        touch = [(alpha, va) for alpha, va in vals if va + Fraction(alpha, 2) == best]
        hull = _lower_hull([(a, va * 2) for a, va in vals])
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            slope2 = Fraction(y2 - y1, x2 - x1)
            if -2 < slope2 < 0 and slope2 != -1:
                incomplete = True
        betas = []
        if len(touch) >= 2:
            a0 = touch[0][0]
            spacing = 0
            for alpha, _ in touch[1:]:
                spacing = math.gcd(spacing, alpha - a0)
            phi = [Fraction(0)] * ((touch[-1][0] - a0) // spacing + 1)
            for alpha, va in touch:
                lead = coeff_at(mal[alpha], va)
                phi[(alpha - a0) // spacing] = phi[(alpha - a0) // spacing] + lead
            for B, _m in roots(Poly(phi), field_of([c, *phi])):
                if spacing == 1:
                    betas.append(B)
                elif spacing == 2:
                    s = _sqrt(B)
                    betas += [s, -s]
                else:
                    incomplete = True
        if want_beta_zero:
            betas.append(Fraction(0))
        for beta in betas:
            entries.extend(_tail_candidates(polys, c, v, beta, 2))
        return entries, incomplete
    raise ValueError("increase truncation")


def generalized_exponents(L: Operator) -> GenExpSet:
    """``localdata.generalized_exponents`` one root at a time."""
    if not L.is_normal():
        raise ValueError("operator must be normal")
    polys = L.poly_coeffs()
    d = L.order
    pts = [(i, -p.degree) for i, p in enumerate(polys) if p]
    hull = _lower_hull(pts)
    degmap = {i: y for i, y in pts}

    entries: List[GenExpRep] = []
    complete = True
    integer_branches = []

    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        v = -slope
        step = v.denominator
        if step > 2:
            return GenExpSet((), False, (
                f"edge at infinity of slope {slope} has slope denominator "
                f"{step} > 2"))
        phi = [Fraction(0)] * ((x2 - x1) // step + 1)
        for i in range(x1, x2 + 1, step):
            if i in degmap and degmap[i] == y1 + slope * (i - x1):
                phi[(i - x1) // step] = Fraction(polys[i].lead())
        try:
            edge_roots = roots(Poly(phi))
        except ExtensionDegreeError as exc:
            return GenExpSet((), False, (
                f"edge polynomial at infinity of slope {slope} has the "
                f"irreducible factor {exc.factor.to_str('T')} of degree "
                f"{exc.factor.degree} > 2"))
        for root, _m in edge_roots:
            if step == 1:
                integer_branches.append((v, root))
                entries.extend(_tail_candidates(polys, root, v, None, 1))
            else:
                s = _sqrt(root)
                for c in (s, -s):
                    got, inc = _ramified_branch(polys, c, v, True)
                    entries.extend(got)
                    complete = complete and not inc

    entries = _dedupe_entries(entries)
    if sum(e.multiplicity for e in entries) < d:
        for v, c in integer_branches:
            got, inc = _ramified_branch(polys, c, v, False)
            entries.extend(got)
            complete = complete and not inc
        entries = _dedupe_entries(entries)

    complete = complete and sum(e.multiplicity for e in entries) == d
    entries.sort(key=GenExpRep.sort_key)
    return GenExpSet(tuple(entries), complete)


def gquo(ges: GenExpSet) -> List[GenExpRep]:
    """``localdata.gquo`` by series division."""
    out: List[GenExpRep] = []
    for gi in ges:
        for gj in ges:
            if gi == gj:
                continue
            r = gi.r * gj.r // math.gcd(gi.r, gj.r)
            field_of([gi.c, *gi.tail, gj.c, *gj.tail])
            slots = 2 * r + 2
            q = trunc(div(series(gi.lift(r), slots), series(gj.lift(r), slots)), r)
            if not any(q == seen for seen in out):
                out.append(q)
    out.sort(key=GenExpRep.sort_key)
    return out
