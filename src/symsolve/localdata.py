"""Local data of difference operators that survives gauge and term
transformations.

Finite side: problem points are roots of a_0(x)·a_d(x-d); each shift
class of such roots gets a valuation-growth gap, read off the Smith
form (over power series in a local parameter ε) of the transition
matrix that carries solution windows across the singular region.

Infinity side: the indicial polynomial, generalized exponents with
their ramification-2 refinement, truncation to E_r representatives,
r-equivalence, and the quotient set used for table matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .factorization import ExtensionDegreeError, roots
from .fieldext import demote, field_of, value_sqrt
from .ore import Operator
from .poly import Poly, _fieldify, _int_cleared, _list_shift
from .series import TSeries
from .snf import canonical_shift, shift_classes

__all__ = [
    "SingularityClass",
    "ValGEntry",
    "GenExpRep",
    "GenExpSet",
    "LocalData",
    "problem_points",
    "valuation_growth",
    "valg_set",
    "indicial_polynomial",
    "generalized_exponents",
    "trunc",
    "r_equivalent",
    "gquo",
    "local_data",
]

_N = Poly((Fraction(0), Fraction(1)))  # the indicial variable


# -- finite singularities ----------------------------------------------------


@dataclass(frozen=True)
class SingularityClass:
    """Shift class of problem points, named by its monic SNF representative."""

    representative: Poly

    def __repr__(self):
        return f"SingularityClass({self.representative.to_str()})"


@dataclass(frozen=True)
class ValGEntry:
    cls: SingularityClass
    gap: int


def _class_poly(cls) -> Poly:
    rep = cls.representative if isinstance(cls, SingularityClass) else cls
    if not isinstance(rep, Poly) or rep.degree < 1:
        raise ValueError("class representative must be a nonconstant polynomial")
    return rep


def problem_points(L: Operator) -> List[Tuple[Poly, List[int]]]:
    """Shift classes of roots of a_0(x)·a_d(x-d): (monic SNF representative,
    sorted integer positions of the roots relative to its roots), merged
    from the shift classes of a_0 and of a_d."""
    if not L.is_normal():
        raise ValueError("operator must be normal")
    polys = L.poly_coeffs()
    d = L.order
    classes: Dict[Poly, Set[int]] = {}
    for p, s in ((polys[0], 0), (polys[d], -d)):
        for rep, offsets in shift_classes(p)[1].items():
            # rep(x + k + s) has its roots at -(k + s) relative to rep's,
            # with s = -d for a_d(x - d)
            classes.setdefault(rep.monic(), set()).update(-(k + s) for k in offsets)
    return sorted(((rep, sorted(ks)) for rep, ks in classes.items()),
                  key=lambda it: (it[0].degree, it[0].coeffs))


def _fold(w: list, lo: int, hi: int, mu: list) -> None:
    """Reduce w[lo:hi], an integer polynomial in y, modulo the monic
    μ(y) = y^e + mu[e-1]·y^(e-1) + … + mu[0], in place: every coefficient
    from index lo + e on is folded into the e below it and zeroed.  μ is
    monic, so the result stays integral."""
    e = len(mu)
    for p in range(hi - 1, lo + e - 1, -1):
        q = w[p]
        if q:
            w[p] = 0
            for i in range(e):
                w[p - e + i] -= q * mu[i]


def _dot(terms: List[tuple], mu: list) -> list:
    """Σ sign·a·b over (sign, a, b), in the layout of ``valuation_growth``:
    only the indices below len(a) are formed (the truncation mod ε^prec),
    and each ε-block is reduced modulo μ once, after the sum."""
    w = [0] * len(terms[0][1])
    for sign, a, b in terms:
        for i, ca in enumerate(a):
            if ca:
                ca *= sign
                w[i:] = [o + ca * cb for o, cb in zip(w[i:], b)]
    s = 2 * len(mu) - 1
    for lo in range(0, len(w), s):
        _fold(w, lo, lo + s, mu)
    return w


def _minor_det(rows: List[list], mu: list) -> list:
    """Determinant mod ε^prec, every partial product reduced mod μ."""
    if len(rows) == 1:
        return rows[0][0]
    return _dot([((-1) ** j, top,
                  _minor_det([r[:j] + r[j + 1:] for r in rows[1:]], mu))
                 for j, top in enumerate(rows[0])], mu)


def _taylor(b: list, h: int, lead: int, mu: list, count: int) -> list:
    """The first ``count`` ε-coefficients of b(θ′ + h + ℓ·ε), ℓ = lead, in
    the layout of ``valuation_growth``: the j-th is ℓ^j·T_j(θ′), with
    T_j(y) = Σ_m C(m, j)·c_m·y^(m-j) and c = b(y + h)."""
    c = _list_shift(b, h)
    e = len(mu)
    out = []
    scale = 1
    for j in range(min(count, len(c))):
        t = [math.comb(m, j) * c[m] for m in range(j, len(c))]
        _fold(t, 0, len(t), mu)
        t = (t + [0] * e)[:e]
        out += [scale * a for a in t] + [0] * (e - 1)
        scale *= lead
    return out


def _eps_val(w: list, s: int) -> Optional[int]:
    """ε-valuation of an element in the layout of ``valuation_growth``,
    None for zero."""
    return next((i // s for i, c in enumerate(w) if c), None)


def valuation_growth(L: Operator, cls, offsets: Optional[Sequence[int]] = None
                     ) -> Tuple[int, int]:
    """Extreme ε-valuation growths of solutions across the singular region
    of the given shift class: (min, max).  (0, 0) for classes without
    problem points.

    ``offsets`` are the sorted positions of the class's problem points
    relative to the roots of ``cls``, as ``problem_points`` lists them
    for its representatives; they are computed from L when omitted.

    The transition matrix N over Q(θ)[ε] is the product of the companion
    numerators across the region, so det N = ±∏ a_0·a_d^(d-1) evaluated
    along the way and v(det N) = vdet is known before any product is
    formed.  Only two valuations of N are read: the least entry
    valuation s_1 and the least cofactor valuation vdet - s_d, where
    s_1 ≤ … ≤ s_d are the exponents of its Smith form over Q(θ)[[ε]].
    Both are at most s_1 + … + s_d = vdet, so each is attained by an
    entry or cofactor that is nonzero mod ε^(vdet+1), while an entry
    or cofactor that vanishes there has valuation above vdet and cannot
    be the least.  Entries and cofactors are polynomials in the
    evaluations, so their residues mod ε^(vdet+1) follow from the
    evaluations' residues: every evaluation and every product is
    reduced mod ε^(vdet+1), and the result is exact.  Only a_0 and a_d
    are expanded in full, for vdet; the other coefficients only up to
    ε^vdet.

    All of this runs on Python integers, with one integer scale per
    step.  L is cleared to integer coefficients by one scalar c, and the
    class is written as its primitive integer form f = ℓ·x^e + …, ℓ > 0.
    Then θ′ = ℓθ is a root of the monic integer polynomial
    μ(y) = ℓ^(e-1)·f(y/ℓ).  With D the largest coefficient degree and
    b_i(y) = c·ℓ^D·a_i(y/ℓ), an integer polynomial,

        c·ℓ^D·a_i(θ + k + ε) = b_i(θ′ + ℓk + ℓε),

    whose ε-coefficients lie in Z[θ′]; products reduced modulo μ stay
    there, because μ is monic.  Every evaluation of a step is scaled by
    the same nonzero integer c·ℓ^D, so the step's companion numerator
    is that integer times the true one, N is a nonzero integer times
    the true N, and so is each cofactor: no entry or cofactor valuation
    moves, vdet is unchanged, and the argument above holds word for
    word.  After each step N is divided by the gcd of all its integers,
    again one integer for the whole matrix, which keeps them small.  A
    scale per coefficient (such as ℓ^(deg a_i)) or per row is
    not allowed: it turns a step into U·M·V with diagonal units U and
    V, and the V·U left between two steps does not commute with the
    next companion numerator, so the product need not have the Smith
    form of N.  One integer commutes with every factor.  For e = 1,
    μ = y - θ′ is linear and the reduction of products does nothing.

    An element of Z[θ′][ε] mod ε^(vdet+1) is one integer list with the
    coordinates of ε^j at j·s .. j·s + e - 1, s = 2e - 1; the gap holds
    the θ′-degrees up to 2e - 2 of a product before it is reduced.
    """
    if not L.is_normal():
        raise ValueError("non-normal at class")
    rep = _class_poly(cls)
    if offsets is None:
        hat, k = canonical_shift(rep.monic())  # rep(x) = hat(x + k), up to a unit
        offsets = next(([o + k for o in ks] for p, ks in problem_points(L)
                        if p == hat), [])
    if not offsets:
        return (0, 0)
    d = L.order

    f = rep.primitive().int_coeffs()
    e, lead = len(f) - 1, f[-1]
    mu = [f[i] * lead ** (e - 1 - i) for i in range(e)]
    bs = _int_cleared(L.poly_coeffs())
    D = max(len(b) for b in bs) - 1
    bs = [[a * lead ** (D - m) for m, a in enumerate(b)] for b in bs]
    s = 2 * e - 1

    ks = range(offsets[0] - d, offsets[-1] + 1)
    ends = []
    vden = 0
    vdet = 0
    for k in ks:
        a0, ad = (_taylor(bs[i], lead * k, lead, mu, len(bs[i])) for i in (0, d))
        v0, vd = _eps_val(a0, s), _eps_val(ad, s)
        if v0 is None or vd is None:
            raise ValueError("non-normal at class")
        vden += vd
        vdet += v0 + (d - 1) * vd
        ends.append((a0, ad))
    n = (vdet + 1) * s

    def fit(w):  # mod ε^(vdet+1)
        return (w + [0] * n)[:n]

    N = [[fit([1]) if i == j else [0] * n for j in range(d)] for i in range(d)]
    for k, (a0, ad) in zip(ks, ends):
        ev = ([fit(a0)]
              + [fit(_taylor(bs[i], lead * k, lead, mu, vdet + 1)) for i in range(1, d)]
              + [fit(ad)])
        # companion numerator: rows 0..d-2 carry a_d on the superdiagonal,
        # row d-1 is -a_0, ..., -a_(d-1)
        N = ([[_dot([(1, ev[d], N[i + 1][j])], mu) for j in range(d)]
              for i in range(d - 1)]
             + [[_dot([(-1, ev[m], N[m][j]) for m in range(d)], mu)
                 for j in range(d)]])
        g = math.gcd(*(a for row in N for w in row for a in w))
        if g > 1:
            N = [[[a // g for a in w] for w in row] for row in N]

    vmin = min(v for row in N for v in (_eps_val(w, s) for w in row) if v is not None)
    if d == 1:
        vadj = 0
    else:
        cofs = (_minor_det([r[:j] + r[j + 1:] for r in N[:i] + N[i + 1:]], mu)
                for i in range(d) for j in range(d))
        vadj = min(v for v in (_eps_val(c, s) for c in cofs) if v is not None)
    return (vmin - vden, vdet - vadj - vden)


def valg_set(L: Operator) -> Set[ValGEntry]:
    """Essential singularity classes (gap > 0) with their gaps."""
    out = set()
    for rep, offs in problem_points(L):
        mn, mx = valuation_growth(L, rep, offs)
        if mx - mn > 0:
            out.add(ValGEntry(SingularityClass(rep), mx - mn))
    return out


# -- indicial polynomial ------------------------------------------------------


def _coeff_windows(polys: Sequence[Poly], ram: int, pad: int) -> List[TSeries]:
    out = []
    for p in polys:
        if not p:
            out.append(TSeries(ram, 0, (Fraction(0),) * (pad + 1)))
        else:
            out.append(TSeries.from_poly_in_invx(p, ram, pad))
    return out


def _indicial_of_series(bs: Sequence[TSeries]):
    """First t-level of sum_i b_i(t)·(1+it)^(-n) with a nonzero coefficient,
    as (Poly in n, level as Fraction); None when the window shows nothing.

    (1+it)^(-n) = Σ_j i^j·β_j(n)·t^j with β_j(n) = C(-n, j), the same
    polynomial for every i.  So level m, in 1/ram units from the least
    valuation, is Σ_j β_j(n)·S_(m,j) with the scalar
    S_(m,j) = Σ_i i^j·c_(i, m - j·ram), c_(i,k) the coefficient of b_i
    at level k: one Poly product per (level, j), and the levels are
    formed in order until one is nonzero."""
    ram = bs[0].ram
    vmin = min(s.val for s in bs)
    end = min(s.end for s in bs)
    betas = [Poly.const(Fraction(1))]
    for m in range(end - vmin):
        Pm = Poly()
        for j in range(m // ram + 1):
            if j == len(betas):
                betas.append(betas[-1] * (-_N - (j - 1)) / j)
            S = 0
            for i, s in enumerate(bs):
                k = m - j * ram + vmin - s.val  # index of level m - j·ram in b_i
                if k >= 0 and s.coeffs[k]:
                    S = S + i ** j * s.coeffs[k]
            if S:
                Pm = Pm + betas[j] * S
        if Pm:
            return Pm, Fraction(vmin + m, ram)
    return None


def indicial_polynomial(L: Operator) -> Tuple[Poly, Fraction]:
    """(P, v) with L(t^n) = P(n)·t^(n+v) + higher order, t = 1/x."""
    if not any(L.coeffs):
        raise ValueError("zero operator has no indicial polynomial")
    polys = L.poly_coeffs()
    degs = [p.degree for p in polys if p]
    span = max(degs) - min(degs)
    pad0 = L.order + span + 4
    for pad in (pad0, 2 * pad0):
        got = _indicial_of_series(_coeff_windows(polys, 1, pad))
        if got:
            return got
    raise ValueError("increase truncation")


# -- generalized exponents ----------------------------------------------------


def _value_key(v):
    v = demote(v)
    if isinstance(v, Fraction):
        return (0, (), (v,))
    return (1, tuple(Fraction(c) for c in v.field.modulus.coeffs), tuple(v.coords))


@dataclass(frozen=True)
class GenExpRep:
    """c·t^v(1 + a_1 t^(1/r) + ... + a_r t^(r/r)) with a multiplicity."""

    r: int
    c: object
    v: Fraction
    tail: Tuple
    multiplicity: int = field(default=1, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "c", demote(self.c))
        object.__setattr__(self, "v", Fraction(self.v))
        object.__setattr__(self, "tail", tuple(demote(a) for a in self.tail))
        if (self.v * self.r).denominator != 1:
            raise ValueError("valuation not representable at this ramification")
        if len(self.tail) != self.r:
            raise ValueError("tail length must equal the ramification")

    def lift(self, r: int) -> "GenExpRep":
        if r == self.r:
            return self
        if r % self.r:
            raise ValueError("can only lift to a multiple ramification")
        f = r // self.r
        tail = [Fraction(0)] * r
        for k, a in enumerate(self.tail, start=1):
            tail[k * f - 1] = a
        return GenExpRep(r, self.c, self.v, tuple(tail), self.multiplicity)

    def series(self, slots: int) -> TSeries:
        """Exact window of the represented element."""
        coeffs = [self.c] + [self.c * a for a in self.tail]
        coeffs += [Fraction(0)] * max(0, slots - len(coeffs))
        return TSeries(self.r, int(self.v * self.r), coeffs[:max(slots, len(coeffs))])

    def sort_key(self):
        return (
            self.r,
            self.v,
            _value_key(self.c),
            tuple(_value_key(a) for a in self.tail),
        )

    def __repr__(self):
        return (
            f"GenExpRep(r={self.r}, c={self.c!r}, v={self.v}, "
            f"tail={self.tail!r}, mult={self.multiplicity})"
        )


@dataclass(frozen=True)
class GenExpSet:
    entries: Tuple[GenExpRep, ...]
    complete: bool
    rejection: Optional[str] = None  # why L has no closed form, if proven here

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def trunc(s: TSeries, r: Optional[int] = None) -> GenExpRep:
    """E_r representative of a nonzero series: keep the leading constant,
    the valuation, and tail coefficients through t^(r/r)."""
    if r is None:
        r = s.ram
    ss = s
    if ss.ram != r:
        ss = ss.reduce_ram()
        if r % ss.ram:
            raise ValueError("series not representable at this ramification")
        ss = ss.lift(r)
    ss = ss.strip()
    if not ss.coeffs or not ss.coeffs[0]:
        raise ValueError("series is zero to truncation order")
    if ss.nterms < r + 1:
        raise ValueError("insufficient truncation for an E_r representative")
    c = ss.coeffs[0]
    inv = 1 / _fieldify(c)
    tail = tuple(ss.coeffs[k] * inv for k in range(1, r + 1))
    return GenExpRep(r, c, Fraction(ss.val, r), tail)


def r_equivalent(a: GenExpRep, b: GenExpRep) -> bool:
    """Same E_r class: c, v, a_1..a_{r-1} equal and the level-r coefficients
    congruent mod (1/r)Z."""
    r = a.r * b.r // math.gcd(a.r, b.r)
    a, b = a.lift(r), b.lift(r)
    if a.v != b.v or a.c != b.c or a.tail[:-1] != b.tail[:-1]:
        return False
    try:
        diff = demote(a.tail[-1] - b.tail[-1])
    except TypeError:  # irrational values of two different fields
        return False
    return isinstance(diff, Fraction) and (diff * r).denominator == 1


def _lower_hull(pts: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    pts = sorted(pts)
    hull: List[Tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _sqrt(v):
    """A square root of the value v; raises outside quadratic reach."""
    got = value_sqrt(v)
    if got is None:
        raise ValueError("unsupported extension degree")
    return got[0]


def _twisted_series(polys: Sequence[Poly], g: TSeries, slots: int) -> List[TSeries]:
    """Coefficient series b_i of L ⊛ (τ - 1/g) for exact windowed g."""
    ram = g.ram
    d = len(polys) - 1
    rho = g.inverse().retrunc(slots)
    windows = _coeff_windows(polys, ram, slots)
    taus = [rho]
    for _ in range(d - 1):
        taus.append(taus[-1].tau())
    suffix = [None] * (d + 1)
    suffix[d] = TSeries(ram, 0, (Fraction(1),) + (Fraction(0),) * (slots - 1))
    for i in range(d - 1, -1, -1):
        suffix[i] = taus[i] * suffix[i + 1]
    return [windows[i] * suffix[i] for i in range(d + 1)]


def _tail_candidates(polys, c, v: Fraction, beta, ram: int) -> List[GenExpRep]:
    """Indicial-root step: with leading part c·t^v(1+beta·t^(1/2)) fixed,
    the level-1 tail coefficients are -n0 over the indicial roots n0 of
    the twisted operator, each with the multiplicity of n0.

    That multiplicity is the definitional one: twisting further by the
    factor (1 - n0·t) shifts the indicial variable, so the indicial
    polynomial of the further twist is a constant times P(n + n0), at
    the same level, and the multiplicity of its root 0 is that of n0
    in P."""
    base = field_of([c, beta])  # the indicial roots must lie in it
    for slots in (2 * ram + 2, 4 * ram + 4):
        if ram == 1:
            g = TSeries.monomial(c, v, 1, slots)
        else:
            cs = [c, c * beta] + [Fraction(0)] * (slots - 2)
            g = TSeries(2, int(Fraction(v) * 2), cs[:slots])
        got = _indicial_of_series(_twisted_series(polys, g, slots))
        if got is None:
            continue
        P, _lvl = got
        if not P.degree >= 1:
            return []  # no roots at this branch
        return [GenExpRep(ram, c, Fraction(v), (-n0,) if ram == 1 else (beta, -n0), m)
                for n0, m in roots(P, base)]
    raise ValueError("increase truncation")


def _ramified_branch(polys, c, v: Fraction, want_beta_zero: bool):
    """Ramification-2 refinement at leading part c·t^v: find t^(1/2)-level
    ratio coefficients from the Δ-polygon, then finish with the indicial
    step.  Returns (entries, saw_higher_ramification)."""
    d = len(polys) - 1
    entries: List[GenExpRep] = []
    incomplete = False
    for slots in (6, 12):
        bs = _twisted_series(polys, TSeries.monomial(c, v, 2, slots), slots)
        # τ = 1 + Δ: m_α = Σ_{i≥α} C(i,α)·b_i
        mal = []
        for alpha in range(d + 1):
            acc = None
            for i in range(alpha, d + 1):
                term = bs[i] * Fraction(math.comb(i, alpha))
                acc = term if acc is None else acc + term
            mal.append(acc)
        vals = []
        for alpha, m in enumerate(mal):
            va = m.valuation()
            if va is not None:
                vals.append((alpha, va))
        if not vals:
            continue  # window too small to see anything
        # supporting line of slope -1/2 in (α, valuation)
        best = min(va + Fraction(alpha, 2) for alpha, va in vals)
        touch = [(alpha, va) for alpha, va in vals if va + Fraction(alpha, 2) == best]
        # other fractional slopes on the lower hull would need ramification > 2
        hull = _lower_hull([(a, va * 2) for a, va in vals])  # y in half-units
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            slope2 = Fraction(y2 - y1, x2 - x1)  # 2·slope
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
                lead = mal[alpha].coeff_at(va)
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
    """Multiset of E_r representatives of the exponents of L at infinity,
    ramification at most 2, each with its definitional multiplicity.

    An edge polynomial at infinity with an irreducible factor of degree
    >= 3 rejects L: the set is empty and ``rejection`` names the factor.
    This is a proof that L is no GT disguise of a symmetric square
    Sym²(K) with K of order 2 over Q(x).  The leading constants of the
    exponents of such a disguise are ρ·{c₁², c₁c₂, c₂²}, with ρ ∈ Q the
    lead of the term ratio and c₁, c₂ roots of the edge polynomials of
    K, so in Q or in one quadratic field; gauge maps keep these
    constants.  So every root of an edge polynomial of L (at a
    half-integer slope, every square c² of a leading constant) lies in
    a field of degree <= 2, and every irreducible factor has degree
    <= 2.

    A slope with denominator >= 3 rejects L the same way, naming the
    slope.  The slopes of the order-2 K have denominator <= 2, and each
    slope of Sym²(K) is a sum of two of them; a term twist shifts every
    slope by an integer, and gauge maps keep them.  Without a rejection,
    ``complete`` is False when a ramified branch needs more terms or
    ramification above 2.
    """
    if not L.is_normal():
        raise ValueError("operator must be normal")
    polys = L.poly_coeffs()
    d = L.order
    pts = [(i, -p.degree) for i, p in enumerate(polys) if p]
    hull = _lower_hull(pts)
    degmap: Dict[int, int] = {i: y for i, y in pts}

    entries: List[GenExpRep] = []
    complete = True
    integer_branches: List[Tuple[Fraction, object]] = []

    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        v = -slope
        step = v.denominator  # the edge polynomial is in c^step
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


def _dedupe_entries(entries: List[GenExpRep]) -> List[GenExpRep]:
    out: List[GenExpRep] = []
    for e in entries:
        if not any(e == seen for seen in out):
            out.append(e)
    return out


def gquo(ges: GenExpSet) -> List[GenExpRep]:
    """Truncated pairwise quotients of distinct generalized exponents."""
    out: List[GenExpRep] = []
    for gi in ges:
        for gj in ges:
            if gi == gj:
                continue
            r = gi.r * gj.r // math.gcd(gi.r, gj.r)
            field_of([gi.c, *gi.tail, gj.c, *gj.tail])  # raises for two fields
            slots = 2 * r + 2
            q = trunc(gi.lift(r).series(slots) / gj.lift(r).series(slots), r)
            if not any(q == seen for seen in out):
                out.append(q)
    out.sort(key=GenExpRep.sort_key)
    return out


# -- aggregate + serialization -------------------------------------------------


@dataclass
class LocalData:
    valg: Tuple[ValGEntry, ...]
    genexp: Tuple[GenExpRep, ...]
    gquo: Tuple[GenExpRep, ...]
    genexp_complete: bool
    rejection: Optional[str] = None  # GenExpSet.rejection

    def to_json(self) -> dict:
        out = {
            "valg": [
                {
                    "class": [str(Fraction(c)) for c in e.cls.representative.coeffs],
                    "gap": e.gap,
                }
                for e in sorted(
                    self.valg,
                    key=lambda e: (
                        e.cls.representative.degree,
                        e.cls.representative.coeffs,
                    ),
                )
            ],
            "genexp": [_rep_json(g) for g in self.genexp],
            "gquo": [_rep_json(g) for g in self.gquo],
            "genexp_complete": self.genexp_complete,
        }
        if self.rejection is not None:
            out["rejection"] = self.rejection
        return out


def _value_json(v):
    v = demote(v)
    if isinstance(v, Fraction):
        return str(v)
    return {
        "minpoly": [str(Fraction(c)) for c in v.field.modulus.coeffs],
        "coords": [str(Fraction(c)) for c in v.coords],
    }


def _rep_json(g: GenExpRep) -> dict:
    return {
        "r": g.r,
        "v": str(Fraction(g.v)),
        "c": _value_json(g.c),
        "tail": [_value_json(a) for a in g.tail],
        "multiplicity": g.multiplicity,
    }


def local_data(L: Operator) -> LocalData:
    """Local data of L.  An operator rejected at infinity matches no table
    entry whatever its finite singularities, so its ValG is left empty."""
    ges = generalized_exponents(L)
    valg = () if ges.rejection is not None else valg_set(L)
    return LocalData(
        valg=tuple(
            sorted(
                valg,
                key=lambda e: (
                    e.cls.representative.degree,
                    e.cls.representative.coeffs,
                ),
            )
        ),
        genexp=ges.entries,
        gquo=tuple(gquo(ges)),
        genexp_complete=ges.complete,
        rejection=ges.rejection,
    )
