"""Local data of difference operators that survives gauge and term
transformations.

Finite side: problem points are roots of a_0(x)·a_d(x-d); each shift
class of such roots gets a valuation-growth gap, read off the Smith
form (over power series in a local parameter ε) of the transition
matrix that carries solution windows across the singular region.

Infinity side: generalized exponents (E_r representatives) with their
ramification-2 refinement, r-equivalence, and the quotient set used for
table matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .factorization import ExtensionDegreeError, roots
from .fieldext import NFElem, _normal, demote, field_of, value_sqrt
from .ore import Operator
from .poly import Poly, _list_mul, _list_shift

__all__ = [
    "ValGEntry",
    "GenExpRep",
    "GenExpSet",
    "LocalData",
    "problem_points",
    "valuation_growth",
    "edges_at_infinity",
    "generalized_exponents",
    "r_equivalent",
    "gquo",
    "local_data",
]

# -- finite singularities ----------------------------------------------------


@dataclass(frozen=True)
class ValGEntry:
    """An essential class, named by its monic ``problem_points``
    representative, and its valuation-growth gap."""

    cls: Poly
    gap: int


def problem_points(L: Operator) -> List[Tuple[Poly, List[int]]]:
    """Shift classes of roots of a_0(x)·a_d(x-d): (monic SNF representative,
    sorted integer positions of the roots relative to its roots), merged
    from the shift classes of a_0 and of a_d."""
    if not L.is_normal():
        raise ValueError("operator must be normal")
    d = L.order
    classes: Dict[Poly, Set[int]] = {}
    for i, s in ((0, 0), (d, -d)):
        for rep, offsets in L.shift_classes(i)[1].items():
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
    if s > 1:  # modulo a linear μ the blocks are reduced already
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
    """The first ``count`` ε-coefficients of b(θ′ + h + λ·ε), λ = lead, in
    the layout of ``valuation_growth``: λ^j times the j-th Taylor
    coefficient of b at α = θ′ + h, by synthetic division over Z[θ′]/μ,
    one Horner pass each, with α·u = θ′·u + h·u and θ′·u a shift reduced
    by the monic μ.  For e = 1, θ′ = -mu[0] and that is ``_list_shift``."""
    e = len(mu)
    if e == 1:
        return [a * lead ** j for j, a in enumerate(_list_shift(b, h - mu[0])[:count])]
    cs = [[a] + [0] * (e - 1) for a in b]
    out = []
    for i in range(min(count, len(cs))):
        for k in range(len(cs) - 2, i - 1, -1):
            u, w = cs[k + 1], cs[k]
            cs[k] = [w[t] + h * u[t] + (u[t - 1] if t else 0) - u[-1] * mu[t]
                     for t in range(e)]
        out += [lead ** i * a for a in cs[i]] + [0] * (e - 1)
    return out


def _eps_val(w: list, s: int) -> Optional[int]:
    """ε-valuation of an element in the layout of ``valuation_growth``,
    None for zero."""
    return next((i // s for i, c in enumerate(w) if c), None)


def valuation_growth(L: Operator, cls: Poly, offsets: Sequence[int]
                     ) -> Tuple[int, int]:
    """Extreme ε-valuation growths of solutions across the singular region
    of the shift class of ``cls``: (min, max).  (0, 0) for a class without
    problem points.

    ``cls`` and ``offsets`` are one item of ``problem_points(L)``: the
    class's representative and the sorted positions of its problem points
    relative to the roots of ``cls``.

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
    With λ = ℓ, μ(y) = λ^e·f(y/λ)/ℓ = y^e + Σ_k f_k·ℓ^(e-1-k)·y^k is a
    monic integer polynomial and θ′ = λθ is a root of it.  A smaller λ
    may do as well (2 for 4x² + 1), but no valuation below depends on
    λ, so no search for the least one is made.  With D the largest
    coefficient degree and b_i(y) = c·λ^D·a_i(y/λ), an integer
    polynomial,

        c·λ^D·a_i(θ + k + ε) = b_i(θ′ + λk + λε),

    whose ε-coefficients, λ^j times the Taylor coefficients of b_i at
    θ′ + λk, lie in Z[θ′] and come from one synthetic division over
    Z[θ′]/μ (``_taylor``); products reduced modulo μ stay there, because
    μ is monic.  Every evaluation of a step is scaled by the same
    nonzero integer c·λ^D, so the step's companion numerator
    is that integer times the true one, N is a nonzero integer times
    the true N, and so is each cofactor: no entry or cofactor valuation
    moves, vdet is unchanged, and the argument above holds word for
    word.  After each step N is divided by the gcd of all its integers,
    again one integer for the whole matrix, which keeps them small.  A
    scale per coefficient (such as λ^(deg a_i)) or per row is
    not allowed: it turns a step into U·M·V with diagonal units U and
    V, and the V·U left between two steps does not commute with the
    next companion numerator, so the product need not have the Smith
    form of N.  One integer commutes with every factor.  For e = 1,
    μ = y - θ′ is linear, the reduction of products does nothing, and
    each expansion is one ``_list_shift`` to the integer θ′ + λk.

    An element of Z[θ′][ε] mod ε^(vdet+1) is one integer list with the
    coordinates of ε^j at j·s .. j·s + e - 1, s = 2e - 1; the gap holds
    the θ′-degrees up to 2e - 2 of a product before it is reduced.
    """
    if not L.is_normal():
        raise ValueError("non-normal at class")
    if not offsets:
        return (0, 0)
    d = L.order

    f = cls.primitive().int_coeffs()
    e, lam = len(f) - 1, f[-1]
    mu = [f[k] * lam ** (e - 1 - k) for k in range(e)]
    bs = L.int_coeffs()
    D = max(len(b) for b in bs) - 1
    bs = [[a * lam ** (D - m) for m, a in enumerate(b)] for b in bs]
    s = 2 * e - 1

    ks = range(offsets[0] - d, offsets[-1] + 1)
    ends = []
    vden = 0
    vdet = 0
    for k in ks:
        a0, ad = (_taylor(bs[i], lam * k, lam, mu, len(bs[i])) for i in (0, d))
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
              + [fit(_taylor(bs[i], lam * k, lam, mu, vdet + 1)) for i in range(1, d)]
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


# -- indicial polynomial ------------------------------------------------------


def _indicial_of_series(parts: Sequence[Sequence[list]], vals: Sequence[int],
                        ram: int):
    """First t-level of sum_i b_i(t)·(1+it)^(-n) with a nonzero coefficient,
    from the integer windows of ``_Slope.twisted`` (one list of b_0 .. b_d
    per coordinate, b_i from t^(vals[i]/ram)): (its polynomial in n times
    a positive integer, one integer list per coordinate; the level as a
    Fraction), or None when the windows show nothing.

    (1+it)^(-n) = Σ_j i^j·γ_j(n)/j!·t^j with γ_j(n) = (-n)(-n-1)···(-n-j+1).
    So level m, in 1/ram units from the least valuation, times J! with
    J = m // ram, is Σ_j (J!/j!)·γ_j(n)·S_(m,j), S_(m,j) = Σ_i i^j·c_(i,
    m - j·ram) and c_(i,k) the coefficient of b_i at level k: integer,
    and linear in the c_(i,k), so formed per coordinate."""
    vmin = min(vals)
    end = min(v + len(b) for v, b in zip(vals, parts[0]))
    gammas = [[1]]
    for m in range(end - vmin):
        top = m // ram
        while len(gammas) <= top:
            gammas.append(_list_mul(gammas[-1], [1 - len(gammas), -1]))
        out = []
        for bs in parts:
            Pm = [0] * (top + 1)
            f = 1  # J!/j!, from j = J down
            for j in range(top, -1, -1):
                S = 0
                for i, (v, b) in enumerate(zip(vals, bs)):
                    k = m - j * ram + vmin - v  # index of level m - j·ram in b_i
                    if k >= 0 and b[k]:
                        S += i ** j * b[k]
                if S:
                    for t, g in enumerate(gammas[j]):
                        Pm[t] += f * S * g
                f *= j
            out.append(Pm)
        if any(any(Pm) for Pm in out):
            return out, Fraction(vmin + m, ram)
    return None


# -- generalized exponents ----------------------------------------------------


def _value_key(v):
    v = demote(v)
    if isinstance(v, Fraction):
        return (0, (), (v,))
    return (1, v.field.modulus.coeffs, v.coords)


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
        if not isinstance(self.v, Fraction):
            object.__setattr__(self, "v", Fraction(self.v))
        object.__setattr__(self, "tail", tuple(demote(a) for a in self.tail))
        if self.r % self.v.denominator:
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


def edges_at_infinity(L: Operator) -> List[Tuple[Fraction, Poly]]:
    """The Newton polygon of L at infinity: (slope, monic edge polynomial)
    for each edge, in order of increasing slope.

    The points are (i, -deg a_i) for the nonzero coefficients a_i, and
    the edges are those of their lower hull.  On an edge of slope s from
    i_0 to i_1, with step the denominator of s, the edge polynomial is
    Σ lead(a_i)·T^((i - i_0)/step) over the points i on the edge, in
    T = c^step.  A root T of multiplicity m stands for the step·m
    dimensions of formal solutions at infinity with
    y(x+1)/y(x) = c·x^s·(1 + o(1)), c^step = T, so the monic polynomial
    describes the solution space, not the way L is written: multiplying
    L on the left by a nonzero rational function moves every point by
    the same height and scales every edge polynomial by one constant.

    The edges are kept on L after the first call, as the exponents are,
    so the table's slope test, the exponents and ``gt_find`` share one
    polygon.  They are read from ``L.int_coeffs()``, which has the
    degrees of L's coefficients and their leads times one positive
    integer, so the monic edge polynomials are L's own; as for
    ``generalized_exponents``, L must have rational coefficients.
    """
    if L._edges is None:
        L._edges = _edges_at_infinity(L)
    return L._edges


def _edges_at_infinity(L: Operator) -> List[Tuple[Fraction, Poly]]:
    bs = L.int_coeffs()
    pts = [(i, 1 - len(b)) for i, b in enumerate(bs) if b]
    degmap: Dict[int, int] = dict(pts)
    hull = _lower_hull(pts)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        dx, dy = x2 - x1, y2 - y1
        slope = Fraction(dy, dx)
        step = slope.denominator
        phi = [0] * (dx // step + 1)
        for i in range(x1, x2 + 1, step):
            y = degmap.get(i)
            if y is not None and (y - y1) * dx == dy * (i - x1):
                phi[(i - x1) // step] = bs[i][-1]
        lead = phi[-1]
        out.append((slope, Poly([Fraction(a, lead) for a in phi])))
    return out


def _sqrt(v):
    """A square root of the value v; raises outside quadratic reach."""
    s = value_sqrt(v)
    if s is None:
        raise ValueError("unsupported extension degree")
    return s


def _series_mul(A: list, B: list, slots: int) -> list:
    """Product of two series truncated to ``slots`` terms; coefficients
    are integer polynomials in β (lists, [] for zero)."""
    out: List[list] = [[] for _ in range(slots)]
    for i, pa in enumerate(A[:slots]):
        if pa:
            for j, pb in enumerate(B[:slots - i]):
                if pb:
                    acc = out[i + j]
                    grow = len(pa) + len(pb) - 1 - len(acc)
                    if grow > 0:
                        acc.extend([0] * grow)
                    for s, a in enumerate(pa):
                        if a:
                            for t, b in enumerate(pb, s):
                                acc[t] += a * b
    return out


class _Slope:
    """The twist of L by one leading term at infinity, for all leading
    constants at once.

    At slope -v and ramification ``ram`` (u = t^(1/ram)), the twist by
    g = c·t^v·h, h = 1 + β·u (β = 0 unless ram = 2), has the coefficient
    series b_i = a_i(1/t)·∏_(k=i..d-1) τ^k(1/g), and since τ^k(c) = c,

        b_i = c^(i-d)·W_i,   W_i = a_i(1/t)·∏_(k=i..d-1) τ^k(t^(-v)·h^(-1)).

    W_i does not depend on c.  With τ^k(t) = t/(1 + k·t) and
    τ^k(u) = u·(1 + k·t)^(-1/2), the factor k is

        τ^k(t^(-v)·h^(-1)) = t^(-v)·Σ_q (-β·u)^q·(1 + k·t)^(v - q/2),

    binomial series in Z[β] at integer v - q/2 and in Z[1/2][β] at
    half-integer v - q/2, where C(e, j)·4^j is an integer.  So every
    series is kept with the coefficient at u^m multiplied by 2^m when
    ram = 2 (the substitution u -> 2u, a ring map, under which those
    binomial terms are integers), and at the end coefficient m of W_i
    is multiplied by 2^(slots-1-m), which leaves all of them over the
    one denominator 2^(slots-1).  L enters with its coefficients cleared
    to integers by one scalar.  ``twisted`` evaluates c^i·W_i(β) with c
    and β as integer pairs of Q(sqrt m) over one positive integer
    scale: the true b_i times one nonzero constant shared by every i and
    level.

    Each W_i is exact on ``slots`` terms from the valuation ``vals[i]``
    (in 1/ram units), the window the series product gives; a zero a_i
    counts as degree 0.
    """

    def __init__(self, bs: List[list], v: Fraction, ram: int):
        d = len(bs) - 1
        self.bs, self.v, self.ram, self.e2 = bs, v, ram, int(2 * v)
        vr = int(v * ram)
        self.vals = [-max(len(b) - 1, 0) * ram - (d - i) * vr for i, b in enumerate(bs)]
        self._w: Dict[int, List[List[list]]] = {}

    def _factor(self, k: int, slots: int) -> List[list]:
        """t^v·τ^k(t^(-v)·h^(-1)) on ``slots`` terms, scaled."""
        ram, e2 = self.ram, self.e2
        out: List[list] = [[] for _ in range(slots)]
        for q in range(slots if ram == 2 else 1):
            x, j = (-ram) ** q, 0  # (-1)^q·2^q·4^j·C(v - q/2, j)·k^j
            while x and q + ram * j < slots:
                p = out[q + ram * j]
                p.extend([0] * (q + 1 - len(p)))
                p[q] = x
                x = x * ram ** ram * (e2 - q - 2 * j) * k // (2 * (j + 1))
                j += 1
        return out

    def _coefficients(self, slots: int) -> List[List[list]]:
        w = self._w.get(slots)
        if w is None:
            ram, d = self.ram, len(self.bs) - 1
            w = [None] * (d + 1)
            suffix: List[list] = [[1]] + [[] for _ in range(slots - 1)]
            for i in range(d, -1, -1):
                if i < d:
                    suffix = _series_mul(self._factor(i, slots), suffix, slots)
                b = self.bs[i]
                window: List[list] = [[] for _ in range(slots)]
                for m, a in enumerate(b):  # a_i(1/t) = t^(-deg)·Σ a_m·t^(deg-m)
                    pos = ram * (len(b) - 1 - m)
                    if a and pos < slots:
                        window[pos] = [a * ram ** pos]
                w[i] = [[x * ram ** (slots - 1 - m) for x in p]
                        for m, p in enumerate(_series_mul(window, suffix, slots))]
            self._w[slots] = w
        return w

    def twisted(self, c, beta, slots: int) -> List[List[list]]:
        """The series c^i·W_i(β), i = 0..d, on ``slots`` terms from
        ``vals[i]``, times one positive integer: integer windows, one list
        per coordinate of Q(sqrt m) (one when c and β are rational).  With
        c = C/cd, β = B/bd and K = slots - 1 (0 at β = 0), the integer is
        cd^d·bd^K: w(β) in W_i becomes C^i·cd^(d-i)·Σ_k w_k·B^k·bd^(K-k)."""
        field = field_of([c, beta])
        m = field.core if field else 0
        ca, cb, cd = _coords(c, field)
        ba, bb, bd = _coords(beta or 0, field)
        K = slots - 1 if ba or bb else 0
        pw, ci = [(bd ** K, 0)], (cd ** (len(self.bs) - 1), 0)
        for _ in range(K):  # B^k·bd^(K-k): each division by bd is exact
            pw.append(tuple(z // bd for z in _pair_mul(pw[-1], ba, bb, m)))
        out: List[List[list]] = [[], []]
        for i, wi in enumerate(self._coefficients(slots)):
            if i:  # C^i·cd^(d-i)
                ci = tuple(z // cd for z in _pair_mul(ci, ca, cb, m))
            xs, ys = [], []
            for p in wi:
                x = y = 0
                for a, (pa, pb) in zip(p, pw):
                    x, y = x + a * pa, y + a * pb
                xs.append(x * ci[0] + m * y * ci[1])
                ys.append(x * ci[1] + y * ci[0])
            out[0].append(xs)
            out[1].append(ys)
        return out[:1] if field is None else out


def _pair_mul(x: Tuple[int, int], a: int, b: int, m: int) -> Tuple[int, int]:
    """(x_0 + x_1·sqrt m)·(a + b·sqrt m) as an integer pair."""
    return x[0] * a + m * x[1] * b, x[0] * b + x[1] * a


def _coords(v, field) -> Tuple[int, int, int]:
    """The rational or quadratic v as (a, b, den) with v = (a + b·sqrt m)/den
    in ``field`` (b = 0 when it is None)."""
    if isinstance(v, NFElem):
        v = field.coerce(v) if field is not None else v
        return v.a, v.b, v.den
    return v.numerator, 0, v.denominator


def _value(coords: Sequence[int], field, den: int = 1):
    """(a + b·sqrt m)/den for coords (a,) or (a, b) and den > 0: a
    Fraction, or an element of ``field`` when b is nonzero."""
    if len(coords) < 2 or not coords[1]:
        return Fraction(coords[0], den)
    return _normal(field, coords[0], coords[1], den)


def _conj(x):
    """Galois conjugate of an irrational quadratic value; others as they are."""
    return x.conjugate() if isinstance(x, NFElem) and not x.is_rational() else x


class _Orbits:
    """Branch results by their inputs (c, or c and β, with the slope).

    W_i is rational, so a branch computed at the Galois conjugates of
    the inputs of another is that branch conjugated: every scalar it
    forms is a polynomial with rational coefficients in c and β, and
    every decision (a level that vanishes, a valuation, a slope, the
    roots of a polynomial and their multiplicities, a square root
    inside the field) is invariant under the automorphism; the kernels'
    integer pairs (a, b) over a denominator conj keeps become (a, -b).
    So each pair of conjugate inputs costs one computation."""

    def __init__(self):
        self._done: Dict[tuple, Tuple[List[GenExpRep], bool]] = {}

    def run(self, key: tuple, compute) -> Tuple[List[GenExpRep], bool]:
        twin = tuple(_conj(x) for x in key)
        if twin != key and twin in self._done:
            entries, incomplete = self._done[twin]
            return [GenExpRep(e.r, _conj(e.c), e.v, tuple(_conj(a) for a in e.tail),
                              e.multiplicity) for e in entries], incomplete
        got = self._done[key] = compute()
        return got


def _tail_candidates(slope: _Slope, c, beta) -> List[GenExpRep]:
    """Indicial-root step: with leading part c·t^v(1+beta·t^(1/2)) fixed,
    the level-1 tail coefficients are -n0 over the indicial roots n0 of
    the twisted operator, each with the multiplicity of n0.

    That multiplicity is the definitional one: twisting further by the
    factor (1 - n0·t) shifts the indicial variable, so the indicial
    polynomial of the further twist is a constant times P(n + n0), at
    the same level, and the multiplicity of its root 0 is that of n0
    in P.

    The twisted series are ``slope.twisted``, the true ones times one
    constant, so P is the true indicial polynomial times a nonzero
    constant: same level, roots and multiplicities.  Over a quadratic
    field the caller runs this once per pair of conjugate inputs
    (``_Orbits``)."""
    ram = slope.ram
    base = field_of([c, beta])  # the indicial roots must lie in it
    for slots in (2 * ram + 2, 4 * ram + 4):
        got = _indicial_of_series(slope.twisted(c, beta, slots), slope.vals, ram)
        if got is None:
            continue
        P = Poly([_value(x, base) for x in zip(*got[0])])
        if not P.degree >= 1:
            return []  # no roots at this branch
        return [GenExpRep(ram, c, slope.v, (-n0,) if ram == 1 else (beta, -n0), m)
                for n0, m in roots(P, base)]
    raise ValueError("increase truncation")


def _ramified_branch(slope: _Slope, c, want_beta_zero: bool, orbits: _Orbits):
    """Ramification-2 refinement at leading part c·t^v: find t^(1/2)-level
    ratio coefficients from the Δ-polygon, then finish with the indicial
    step.  Returns (entries, saw_higher_ramification).

    With τ = 1 + Δ the twist has the Δ-coefficients
    m_α = Σ_(i≥α) C(i, α)·b_i, read level by level from the scaled
    series of ``slope.twisted``: the common constant moves no valuation,
    and it scales the edge polynomial φ of the Δ-polygon, so its roots
    stay.  The caller runs this once per pair of conjugate c; here each
    pair of conjugate β at a rational c gets one indicial step."""
    vals = slope.vals
    d = len(vals) - 1
    entries: List[GenExpRep] = []
    incomplete = False
    base = field_of([c])
    for slots in (6, 12):
        parts = slope.twisted(c, None, slots)
        pts, lead = [], {}
        for alpha in range(d + 1):
            lo = min(vals[alpha:])
            for e in range(lo, lo + slots):
                x = [sum(math.comb(i, alpha) * bs[i][e - vals[i]]
                         for i in range(alpha, d + 1) if vals[i] <= e)
                     for bs in parts]
                if any(x):
                    pts.append((alpha, e))  # valuation in half-units
                    lead[alpha] = _value(x, base)
                    break
        if not pts:
            continue  # window too small to see anything
        # supporting line of slope -1/2 in (α, valuation)
        best = min(e + alpha for alpha, e in pts)
        touch = [(alpha, e) for alpha, e in pts if e + alpha == best]
        # other fractional slopes on the lower hull would need ramification
        # > 2: 2·slope = dy/dx strictly between -2 and 0, other than -1
        hull = _lower_hull(pts)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            dx, dy = x2 - x1, y2 - y1
            if -2 * dx < dy < 0 and dy != -dx:
                incomplete = True
        betas = []
        if len(touch) >= 2:
            a0 = touch[0][0]
            spacing = 0
            for alpha, _ in touch[1:]:
                spacing = math.gcd(spacing, alpha - a0)
            phi = [0] * ((touch[-1][0] - a0) // spacing + 1)
            for alpha, _va in touch:
                phi[(alpha - a0) // spacing] = lead[alpha]
            for B, _m in roots(Poly(phi), base):
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
            got, _ = orbits.run(("tail", slope.v, c, beta),
                                lambda: (_tail_candidates(slope, c, beta), False))
            entries.extend(got)
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

    The twist of L by a leading term c·t^v·h has the coefficient series
    c^(i-d)·W_i with W_i independent of c (``_Slope``).  So the W_i are
    built once per slope and ramification, on integers, and each root
    c of the edge polynomial reads its indicial step and Δ-polygon off
    c^i·W_i, on integers too: c and β enter as integer pairs over one
    positive integer scale per call.  That scale and the common factor
    c^(-d) move no root, multiplicity, valuation or first nonzero
    level, and a Poly or NFElem is built only for ``roots`` and for the
    entries returned.  Because W_i is rational, the branch at conj(c)
    is the conjugate of the branch at c, entries, multiplicities and
    ``complete`` alike, so each conjugate pair of roots is searched
    once (``_Orbits``).

    The set is kept on L after the first call, as ``shift_classes`` are,
    so local_data and every hom_space into L share one computation.
    """
    if L._exponents is None:
        L._exponents = _generalized_exponents(L)
    return L._exponents


def _generalized_exponents(L: Operator) -> GenExpSet:
    if not L.is_normal():
        raise ValueError("operator must be normal")
    bs = L.int_coeffs()
    d = L.order
    entries: List[GenExpRep] = []
    complete = True
    integer_branches: List[Tuple[Fraction, object]] = []
    slopes: Dict[Tuple[Fraction, int], _Slope] = {}
    orbits = _Orbits()

    def at(v: Fraction, ram: int) -> _Slope:
        if (v, ram) not in slopes:
            slopes[v, ram] = _Slope(bs, v, ram)
        return slopes[v, ram]

    def ramified(v: Fraction, c, want_beta_zero: bool):
        return orbits.run(("ramified", v, want_beta_zero, c),
                          lambda: _ramified_branch(at(v, 2), c, want_beta_zero, orbits))

    for slope, phi in edges_at_infinity(L):
        v = -slope
        step = v.denominator  # the edge polynomial is in c^step
        if step > 2:
            return GenExpSet((), False, (
                f"edge at infinity of slope {slope} has slope denominator "
                f"{step} > 2"))
        try:
            edge_roots = roots(phi)
        except ExtensionDegreeError as exc:
            return GenExpSet((), False, (
                f"edge polynomial at infinity of slope {slope} has the "
                f"irreducible factor {exc.factor.to_str('T')} of degree "
                f"{exc.factor.degree} > 2"))
        for root, _m in edge_roots:
            if step == 1:
                integer_branches.append((v, root))
                got, _ = orbits.run(("tail", v, root, None),
                                    lambda: (_tail_candidates(at(v, 1), root, None), False))
                entries.extend(got)
            else:
                s = _sqrt(root)
                for c in (s, -s):
                    got, inc = ramified(v, c, True)
                    entries.extend(got)
                    complete = complete and not inc

    entries = _dedupe_entries(entries)
    if sum(e.multiplicity for e in entries) < d:
        for v, c in integer_branches:
            got, inc = ramified(v, c, False)
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
    """Truncated pairwise quotients of distinct generalized exponents.

    With both lifted to the common ramification r, tails a of g_i and b
    of g_j, the quotient is

        g_i/g_j = (c_i/c_j)·t^(v_i - v_j)·(1 + Σ_(k=1..r) e_k·t^(k/r)) + ...,

    where e_0 = 1 and e_k = a_k - Σ_(m=1..k) b_m·e_(k-m): the
    coefficients of (1 + Σ a_k·t^(k/r))/(1 + Σ b_k·t^(k/r)) through
    t^(r/r), which only the first r + 1 terms of each factor reach.

    On integers: every value is an integer pair of a + b·sqrt m over one
    common denominator D, so E_k = D^k·e_k = D^(k-1)·(D·a_k) -
    Σ_m (D·b_m)·E_(k-m)·D^(m-1) is a pair, and each quotient in lowest
    terms is a key of integers, one GenExpRep per distinct key."""
    values = [x for g in ges for x in (g.c, *g.tail)]
    field = field_of(values)  # raises for two fields
    m = field.core if field else 0
    coords = [_coords(x, field) for x in values]
    D = math.lcm(*(den for *_, den in coords))
    ints = iter([(a * (D // den), b * (D // den)) for a, b, den in coords])
    reps = [(g.r, g.v, next(ints), [next(ints) for _ in g.tail]) for g in ges]
    out: Dict[tuple, GenExpRep] = {}
    for gi in reps:
        for gj in reps:
            if gi == gj:  # equal values have equal integers
                continue
            (ri, vi, (x, y), a), (rj, vj, (u, w), b) = gi, gj
            r = ri * rj // math.gcd(ri, rj)
            a, b = ([z for p in t for z in [(0, 0)] * (r // r0 - 1) + [p]]
                    for r0, t in ((ri, a), (rj, b)))  # lifted to r
            E = [(1, 0)]
            for k in range(1, r + 1):
                ex, ey = a[k - 1][0] * D ** (k - 1), a[k - 1][1] * D ** (k - 1)
                for j in range(1, k + 1):
                    px, py = _pair_mul(E[k - j], *b[j - 1], m)
                    ex, ey = ex - px * D ** (j - 1), ey - py * D ** (j - 1)
                E.append((ex, ey))
            key = (r, vi - vj,
                   _reduced(x * u - m * y * w, y * u - x * w, u * u - m * w * w),
                   tuple(_reduced(ex, ey, D ** k) for k, (ex, ey) in enumerate(E[1:], 1)))
            if key not in out:
                c, *tail = (_value(t[:2], field, t[2]) for t in (key[2], *key[3]))
                out[key] = GenExpRep(r, c, key[1], tuple(tail))
    return sorted(out.values(), key=GenExpRep.sort_key)


def _reduced(a: int, b: int, den: int) -> Tuple[int, int, int]:
    """(a + b·sqrt m)/den in lowest terms with den > 0."""
    if den < 0:
        a, b, den = -a, -b, -den
    g = math.gcd(a, b, den)
    return a // g, b // g, den // g

# -- aggregate + serialization -------------------------------------------------


@dataclass
class LocalData:
    """GT-invariant local data of an operator, each invariant computed
    from ``operator`` on first read and kept, so a reader pays only for
    what it reads.

    In order of cost:

    - the slopes at infinity, which the table matcher reads from
      ``edges_at_infinity(operator)``, kept on the operator;
    - the generalized exponents (``genexp``, ``genexp_complete``,
      ``rejection``), one ``generalized_exponents`` call, also kept on
      the operator, and Gquo, their quotients;
    - ValG at the classes of degree 1 (``rational_valg``), the only
      classes ``table.solve_parameters`` reads;
    - ValG at every class (``valg``), read by ``to_json`` and the
      table's self-validation.

    The gap of each class is computed once per instance, so a
    ``to_json`` after a match does not compute a class twice.  An
    operator rejected at infinity matches no table entry whatever its
    finite singularities, so both ValG reads are empty for it.
    """

    operator: Operator
    _gaps: Dict[Poly, int] = field(default_factory=dict, init=False,
                                   repr=False, compare=False)

    @cached_property
    def _exponents(self) -> GenExpSet:
        return generalized_exponents(self.operator)

    @property
    def genexp(self) -> Tuple[GenExpRep, ...]:
        return self._exponents.entries

    @property
    def genexp_complete(self) -> bool:
        return self._exponents.complete

    @property
    def rejection(self) -> Optional[str]:
        return self._exponents.rejection

    @cached_property
    def gquo(self) -> Tuple[GenExpRep, ...]:
        return tuple(gquo(self._exponents))

    def essential_classes(self, max_degree: Optional[int] = None
                          ) -> Tuple[ValGEntry, ...]:
        """The classes with gap > 0, of degree at most ``max_degree``
        when it is given, in the order of ``problem_points``."""
        out = []
        for rep, offs in problem_points(self.operator):
            if max_degree is not None and rep.degree > max_degree:
                break  # problem_points lists the classes by degree
            gap = self._gaps.get(rep)
            if gap is None:
                mn, mx = valuation_growth(self.operator, rep, offs)
                gap = self._gaps[rep] = mx - mn
            if gap > 0:
                out.append(ValGEntry(rep, gap))
        return tuple(out)

    @cached_property
    def rational_valg(self) -> Tuple[ValGEntry, ...]:
        """The essential classes of degree 1, those of a rational point."""
        return () if self.rejection is not None else self.essential_classes(1)

    @cached_property
    def valg(self) -> Tuple[ValGEntry, ...]:
        return () if self.rejection is not None else self.essential_classes()

    def to_json(self) -> dict:
        out = {
            "valg": [
                {
                    "class": [str(Fraction(c)) for c in e.cls.coeffs],
                    "gap": e.gap,
                }
                for e in self.valg
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
    """Local data of L, each invariant computed on first read."""
    if not L.is_normal():
        raise ValueError("operator must be normal")
    return LocalData(L)
