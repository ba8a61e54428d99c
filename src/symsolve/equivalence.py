"""Term and gauge transformations between difference operators.

A term transformation multiplies every solution by a fixed nonzero
term with ratio r(x) (a solution of tau - r); a gauge transformation
applies an operator of lower order that maps one solution space
bijectively onto another.  Composites of the two are found in stages:
the term ratio is pinned down by the shift-normalized determinant
ratio, and the gauge part is an ansatz G = sum c_i(x) tau^i whose
coefficients solve a coupled linear difference system.  Rational
solving follows the universal-denominator approach: pole chains of a
solution are trapped between roots of the trailing and (shifted)
leading data, which leaves a finite-dimensional polynomial search.
The degrees in that search are proven bounds read at infinity, from
the generalized exponents of both operators (Abramov, ISSAC 1995; van
Hoeij, JPAA 139, 1999).  Rational solutions of L are the maps of
Hom(tau - 1, L), so ``hom_space`` is the one rational solver.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .fieldext import demote
from .linalg import DependencyFinder, nullspace_rational
from .localdata import (
    GenExpRep,
    GenExpSet,
    edges_at_infinity,
    generalized_exponents,
    r_equivalent,
)
from .opformat import print_operator
from .ore import Operator
from .poly import Poly, _int_cleared, _list_mul, _list_shift, _list_sub
from .ratfunc import RatFunc
from .snf import compose_classes
from .symprod import TermRatio, _shift_reduce_step, symprod_first_order

__all__ = [
    "GaugeMap",
    "GTTransform",
    "hom_space",
    "term_candidates",
    "gt_find",
    "transformed_operator",
    "case_diagnosis",
]

#: largest numerator degree hom_space will search
_DEGREE_BUDGET = 100


def _within_budget(bound: int) -> int:
    if bound > _DEGREE_BUDGET:
        raise ValueError(
            f"numerator degree bound {bound} exceeds the degree budget "
            f"{_DEGREE_BUDGET}"
        )
    return bound


@dataclass(frozen=True)
class GaugeMap:
    """Operator G sending solutions of source into solutions of target.

    Validity means target*G is right divisible by source; G is stored
    reduced modulo source, which does not change its action on the
    solution space.  The check runs on integer polynomials.  With
    G = sum z_i/u·tau^i and w = u(x)·u(x+1)···u(x+ord target), the
    operator w·target·G has polynomial coefficients, and its right
    pseudo-remainder by source (``_right_prem``) is a nonzero
    polynomial times the remainder of target*G over Q(x): a nonzero
    left scalar factor keeps right divisibility, since f·(Q·source + R)
    = (f·Q)·source + f·R.  So the pseudo-remainder vanishes exactly
    when the remainder does.
    """

    G: Operator
    source: Operator
    target: Operator

    def __post_init__(self):
        if self.G.order >= self.source.order:
            object.__setattr__(self, "G", self.G % self.source)
        if not _is_map(self.G, self.source, self.target):
            raise ValueError("not a homomorphism: nonzero remainder")

    @property
    def bijective(self) -> bool:
        """Whether gcrd(G, source) = 1, so that G maps the solutions of
        source one to one onto those of target.

        P ↦ P·G sends D = Q(x)[tau] into D/D·source, a space of
        dimension d = ord(source) over Q(x).  Its kernel is the left
        ideal of an operator of order d - ord gcrd(G, source), so the
        image has dimension d exactly when the gcrd is trivial.  The
        image is spanned by the tau^k·G mod source: each is tau times
        the last, so once one depends on those before it every later
        one does too, and k < d span it.  ``_image_is_full`` tests that
        their d×d coordinate matrix has a nonzero determinant.
        """
        return _image_is_full(self.G, self.source)

    def to_json(self) -> dict:
        return {
            "G": print_operator(self.G),
            "source": print_operator(self.source),
            "target": print_operator(self.target),
        }


@dataclass(frozen=True)
class GTTransform:
    """Term twist by ratio r followed by a gauge map.

    G goes from source twisted by (tau - r) to the target; the composite
    carries solutions of source, multiplied by a solution of tau - r,
    into solutions of the target.
    """

    r: RatFunc
    G: GaugeMap
    source: Operator

    def __post_init__(self):
        if not self.r:
            raise ValueError("term ratio must be nonzero")
        if self.G.source.canonical() != symprod_first_order(self.source, self.r):
            raise ValueError("gauge part does not start at the twisted operator")

    @property
    def target(self) -> Operator:
        return self.G.target

    def to_json(self) -> dict:
        return {
            "r": self.r.to_str(),
            "G": print_operator(self.G.G),
            "source": print_operator(self.source),
            "target": print_operator(self.target),
        }


# -- integer certificates -----------------------------------------------------


def _right_prem(A: List[list], S: List[list]) -> List[list]:
    """Right pseudo-remainder of A by S, operators given as lists of
    integer coefficient lists, ascending in tau.

    Each step cancels the top term a_n·tau^n of A against
    tau^k·S = sum_j s_j(x+k)·tau^(j+k), k = n - ord S, by
    A ← l(x+k)·A - a_n·tau^k·S with l the leading coefficient of S.
    The result is f·R for R the remainder of A over Q(x) and f the
    product of the l(x+k), with no division at all.
    """
    d = len(S) - 1
    A = list(A)
    while len(A) > d:
        top = A.pop()
        k = len(A) - d
        lead = _list_shift(S[d], k)
        A = [_list_mul(lead, a) for a in A]
        for j in range(d):
            A[k + j] = _list_sub(A[k + j], _list_mul(top, _list_shift(S[j], k)))
    return A


def _tau_times(A: List[list]) -> List[list]:
    # tau·sum a_i tau^i = sum a_i(x+1) tau^(i+1)
    return [[]] + [_list_shift(a, 1) for a in A]


def _is_map(G: Operator, source: Operator, target: Operator) -> bool:
    """Whether target*G is right divisible by source; see GaugeMap."""
    # G = sum Z_i/U·tau^i and A = -w·target*G, each up to a constant
    Z, T = G.int_coeffs(), target.int_coeffs()
    (U,) = _int_cleared([G.denominator()])
    ushift = [_list_shift(U, j) for j in range(len(T))]
    A: List[list] = [[] for _ in range(len(T) + len(Z) - 1)]
    for j, t in enumerate(T):
        if not t:
            continue
        for jj, us in enumerate(ushift):
            if jj != j:
                t = _list_mul(t, us)
        for i, z in enumerate(Z):
            if z:
                A[i + j] = _list_sub(A[i + j], _list_mul(t, _list_shift(z, j)))
    return not any(_right_prem(A, source.int_coeffs()))


def _image_is_full(G: Operator, source: Operator) -> bool:
    """Whether the rows of tau^k·G mod source, k < d, have a nonzero
    determinant; see GaugeMap.bijective.

    Row k is the pseudo-remainder of tau·(row k-1), a nonzero scalar
    multiple of the true coordinates, which keeps the rank.  The
    determinant has degree at most the sum of the rows' largest degrees
    D, so if it is nonzero it is nonzero at one of x = 0 .. D; each
    integer matrix is ranked by fraction-free elimination.
    """
    S = source.int_coeffs()
    d = len(S) - 1
    row = _right_prem(G.int_coeffs(), S)
    rows = []
    for _ in range(d):
        row = row + [[]] * (d - len(row))
        rows.append(row)
        row = _right_prem(_tau_times(row), S)
    bound = sum(max(len(c) for c in r) - 1 for r in rows)
    for x0 in range(bound + 1):
        if _int_rank([[_eval_int(c, x0) for c in r] for r in rows]) == d:
            return True
    return False


# -- homomorphisms -----------------------------------------------------------


def _abramov_denominator(A, B) -> Poly:
    """Universal denominator when pole chains of a solution must start
    at a root of A and end at a root of B.

    A and B are products of shifted polynomials, each a list of (shift
    classes of p, s) for the factor p(x + s).  Only the offset counts
    of each class are read, with no product, gcd or exact division.
    Abramov's loop runs per class, largest dispersion h first: A's
    rep(x + k) and B's rep(x + k - h) each lose m = min of their counts,
    and u gains rep(x + k - i)^m for i = 0..h.
    """
    A, B = compose_classes(A), compose_classes(B)
    exps: Counter = Counter()
    for rep, a in A.items():
        b = B.get(rep, {})
        for h in sorted({ka - kb for ka in a for kb in b if ka >= kb}, reverse=True):
            for k in a:
                m = min(a[k], b[k - h])
                if m:
                    a[k] -= m
                    b[k - h] -= m
                    for i in range(h + 1):
                        exps[rep, k - i] += m
    u = Poly.const(Fraction(1))
    for (rep, k), m in exps.items():
        u = u * rep.shift(k) ** m
    return u.monic()


def _power_columns(q: list, j: int, width: int) -> List[list]:
    """Coefficient lists of q·(x+j)^k for k < width, each from the last
    by one linear pass q'[m] = q[m-1] + j·q[m]."""
    q = list(q)
    block = [q]
    for _ in range(width - 1):
        q = [j * q[0]] + [a + j * b for a, b in zip(q, q[1:])] + [q[-1]]
        block.append(q)
    return block


def _hom_denominator(L1: Operator, L2: Operator) -> Poly:
    # Pole chains of the ansatz coefficients: a rightmost pole needs the
    # trailing coefficient of the target (or a reduction pole of the
    # source lead) to vanish there, a leftmost pole the same for the
    # shifted leading data.  Conservative on both ends.  Each end
    # coefficient is factored at most once per operator (a square or a
    # twist keeps the classes composed from its inputs'); the products
    # are read as shifts.
    d1, d2 = L1.order, L2.order
    src0, src_lead, tgt0, tgt_lead = (L.shift_classes(i)[1]
                                      for L, i in ((L1, 0), (L1, d1), (L2, 0), (L2, d2)))
    B = [(tgt0, 0)] + [(src_lead, m) for m in range(d2)]
    A = [(tgt_lead, -d2)]
    for m in range(d2):
        A += [(src0, m - d2), (src_lead, m - d2)]
    return _abramov_denominator(A, B)


def _fallback_cap(P1: List[list], P2: List[list]) -> int:
    # heuristic, for operands without a complete exponent set only
    return 2 * (max(len(p) for p in P1 + P2) - 1) + 10


def _complete_exponents(L: Operator) -> Optional[GenExpSet]:
    # None when generalized_exponents rejects L, marks it incomplete or
    # needs more than it computes
    try:
        ges = generalized_exponents(L)
    except ValueError:
        return None
    return ges if ges.complete else None


def _leading_power(e: GenExpRep):
    # alpha with y = Gamma(x)^s·c^x·exp(2·beta·sqrt(x))·x^alpha·(1 + o(1))
    # for the ratio c·t^v·(1 + beta·t^(1/2) + a·t): alpha = a - beta²/2
    a = e.tail[-1]
    return a - e.tail[0] * e.tail[0] / 2 if e.r == 2 else a


def _sublead(p: Poly) -> Fraction:
    # A with p = lead·x^n·(1 + A/x + ...)
    return Fraction(p[p.degree - 1]) / Fraction(p.lead()) if p.degree > 0 else Fraction(0)


def _exponent_bound(L1: Operator, ges1: GenExpSet, ges2: GenExpSet) -> Optional[int]:
    """B of hom_space: deg c_i <= B for every map; None when no
    exponent of L2 matches one of L1, so that the only map is 0."""
    d = L1.order
    p = L1.poly_coeffs()
    slopes = sorted(-e.v for e in ges1 for _ in range(e.multiplicity))
    # E: the leading powers of the solutions less that of the Casoratian.
    # An irrational power comes with its conjugate and the same
    # multiplicity, so only rational parts add up, whatever the fields.
    defect = _sublead(p[d]) - _sublead(p[0])
    for e in ges1:
        alpha = demote(_leading_power(e))
        defect += e.multiplicity * (alpha if isinstance(alpha, Fraction) else alpha.coords[0])
    best = None
    for e in ges1:
        gaps = [demote(_leading_power(f) - _leading_power(e))
                for f in ges2 if r_equivalent(e, f)]
        if not gaps:
            continue
        others = list(slopes)
        others.remove(-e.v)
        for i in range(d):
            rows = [j for j in range(d) if j != i]
            term = max(gaps) + sum(j * s for j, s in zip(rows, others))
            best = term if best is None else max(best, term)
    return None if best is None else math.floor(best + defect)


def _hom_rows(P1: List[list], P2: List[list], u: Poly, width: int
              ) -> List[List[int]]:
    """Integer rows of the hom_space system; see hom_space."""
    d1, d2 = len(P1) - 1, len(P2) - 1
    (U,) = _int_cleared([u])
    lead = P1[d1]
    # numerators N[k] of tau^k modulo L1 over Delta_k, k = 0 .. d1+d2-1
    N = [[[1] if s == k else [] for s in range(d1)] for k in range(d1)]
    while len(N) < d1 + d2:
        N.append(_right_prem(_tau_times(N[-1]), P1))
    # tail[a] = l(x+a)···l(x+d2-1) = Delta_K / Delta_k for a = max(0, k-d1+1)
    tail = [[1]]
    for m in range(d2 - 1, -1, -1):
        tail.insert(0, _list_mul(_list_shift(lead, m), tail[0]))
    ushift = [_list_shift(U, j) for j in range(d2 + 1)]
    # mult[i, j]: P2_j times the cofactor of term (i, j), shared by every s
    mult = {}
    for j in range(d2 + 1):
        if not P2[j]:
            continue
        others = P2[j]
        for jj in range(d2 + 1):
            if jj != j:
                others = _list_mul(others, ushift[jj])
        for i in range(d1):
            mult[i, j] = _list_mul(others, tail[max(0, i + j - d1 + 1)])

    rows: List[List[int]] = []
    for s in range(d1):
        bases = [(i, j, _list_mul(m, N[i + j][s])) for (i, j), m in mult.items()]
        bases = [t for t in bases if t[2]]
        size = max(len(b) for _, _, b in bases) + width - 1
        cols = [[0] * size for _ in range(d1 * width)]
        for i, j, b in bases:
            for k, q in enumerate(_power_columns(b, j, width)):
                col = cols[i * width + k]
                for m, c in enumerate(q):
                    col[m] += c
        # an equation that vanishes identically keeps one zero row, so
        # that the nullspace still sees every column
        height = 1 + max((m for c in cols for m, v in enumerate(c) if v), default=0)
        rows += [[c[m] for c in cols] for m in range(height)]
    return rows


def hom_space(L1: Operator, L2: Operator) -> List[GaugeMap]:
    """Basis of the maps carrying solutions of L1 to solutions of L2.

    Ansatz G = sum_{i < d1} c_i(x) tau^i, d1 = ord(L1); the remainder of
    L2*G under right division by L1 must vanish, a coupled linear system
    for the c_i.  All c_i share one universal denominator u, and
    deg c_i <= B with the bound B below, so the numerators have width
    deg u + B + 1 and the basis is complete.  A negative width, or no
    exponent of L2 matching one of L1, returns [] with no row built; a
    numerator degree deg u + B above _DEGREE_BUDGET raises ValueError.
    For L1 = tau - 1 a map is G = c_0 with L2(c_0) = 0, so the c_0 of the
    basis are a basis of the rational solutions of L2.

    The degree bound.  Take a basis y_1 .. y_d1 of formal solutions of
    L1 at infinity, one per generalized exponent counted with its
    multiplicity: for the ratio c_k·t^(-s_k)·(1 + beta_k·t^(1/2) + a_k·t),

        y_k = Gamma(x)^s_k·c_k^x·exp(2·beta_k·sqrt(x))·x^alpha_k·(1 + ...),

    alpha_k = a_k - beta_k²/2, the dots a series in x^(-1/2) with
    polynomials in log x.  Write pow(f) for the leading power of x once
    the exponential part is set aside: it adds under products, the pow
    of a sum is at most the largest pow of its terms, and
    pow(tau^i y_k) = alpha_k + i·s_k.  With the Casoratian
    Y = (tau^i y_k), G y_k = sum_i c_i·tau^i y_k gives c = w·Y^(-1) for
    w_k = G y_k, so by Cramer's rule

        c_i = sum_k ±w_k·minor_(i,k)(Y)/det Y.

    - w_k: L2*G is a left multiple of L1, so w_k solves L2, with the
      exponential part of y_k and powers in alpha_k + (1/r)Z.  Its
      leading power is an indicial root of L2 there: the alpha' of an
      exponent of L2 r-equivalent to that of y_k.  With none, w_k = 0.
      So pow(w_k) <= alpha_k + delta_k, delta_k the largest
      alpha' - alpha_k.
    - det Y solves W(x+1) = ±(a_0/a_d1)(x)·W(x), a_i the coefficients
      of L1, so it carries no log and pow(det Y) = A for
      a_0/a_d1 = lambda·x^S·(1 + A/x + O(x^(-2))).
    - minor_(i,k) is a sum of products of the tau^i' y_k' with i' != i
      and k' != k, so pow <= sum_(k' != k) alpha_k' + T_(i,k), where
      T_(i,k) is the largest sum of i'·s_(sigma(i')) over bijections
      sigma from those rows onto those solutions: rows and slopes both
      in ascending order (rearrangement).

    Every term of c_i then has the trivial exponential part and
    pow <= delta_k + T_(i,k) + E with E = sum_k alpha_k - A, and the
    rational c_i has an integer degree no larger than the largest of
    them:

        deg c_i <= B = floor(E + max_(k, i) (delta_k + T_(i,k))).

    E = -pow(det V) for V = (tau^i y_k / y_k) is where multiplicities
    and shared leading constants enter.  Distinct c_k at one slope s
    leave a Vandermonde leading term, pow(det V) = s·d1(d1-1)/2.
    Solutions that share c and s cancel that term, and E grows by the
    levels lost: 1/2 for Bessel's ramified pair at c = -2, whose tails
    differ at t^(1/2), and 3 for (S - 2)^3, whose solutions
    2^x·{1, x, x²} differ only in their powers.  E is read exactly from
    the exponents and a_0/a_d1, so no case analysis is needed.  This is
    the argument of Abramov (ISSAC 1995) and van
    Hoeij (JPAA 139, 1999) for rational solutions, whose exponents are
    the differences alpha' - alpha, lifted to Hom(L1, L2).

    The proof needs complete exponent sets.  For operands without one
    (generalized_exponents rejects them, as for a single edge of slope
    -1/3, marks them incomplete, or raises), B is the heuristic cap
    2·(largest coefficient degree) + 10, and for exactly that input
    class the basis is complete only within the cap.  The solver meets
    it only through an L2 that local_data leaves incomplete without a
    rejection (a rejected L2 matches no table entry, and gt_find's edge
    pruning makes M share L2's edges), or an M whose ramified branches
    need more terms than L2's; the golden inputs and round trips in
    tests/ never take it.

    The system is built on integer polynomials.  With p_i and q_j the
    coefficients of the integer forms of L1 and L2 (``int_coeffs``),
    l = p_(d1) and c_i = z_i/u, tau^k is reduced modulo L1
    fraction-free: its coordinates are integer polynomials N_k[s] over
    Delta_k(x) = l(x)·l(x+1)···l(x+k-d1) (1 for k < d1), with
    N_k[s] = l·N_(k-1)[s-1](x+1) - N_(k-1)[d1-1](x+1)·p_s.  The
    remainder coefficient at tau^s is

        sum_{j,i} q_j(x)·z_i(x+j)/u(x+j)·N_(i+j)[s](x)/Delta_(i+j)(x) = 0,

    and equation s is multiplied by Delta_K·u(x)···u(x+d2), K = d1+d2-1.
    Term (i, j) then has the cofactor l(x+a)···l(x+d2-1), a =
    max(0, i+j-d1+1), times the u(x+j') with j' != j: products of
    shifts, with no gcd, no exact division and no rational function.
    Multiplying a polynomial identity by a nonzero polynomial keeps its
    solutions, and nullspace_rational returns the canonical basis of
    the solution space (a unit at each free column), so the basis does
    not depend on the scaling; only the number of rows does.

    The unknowns are the numerator coefficients z_{i,k} of c_i, and the
    term with c_i(x+j) contributes base·(x+j)^k to column (i, k).  Each
    column block is built by a running product q ← q·(x+j), one linear
    pass q'[m] = q[m-1] + j·q[m] per column: the Taylor shift
    z(x) ↦ z(x+j) applied column by column instead of a full polynomial
    product per power.
    """
    if not (L1.is_normal() and L2.is_normal()):
        raise ValueError("normal operators required")
    d1 = L1.order
    if d1 < 1:
        raise ValueError("positive source order required")
    P1, P2 = L1.int_coeffs(), L2.int_coeffs()
    ges1, ges2 = _complete_exponents(L1), _complete_exponents(L2)
    if ges1 is None or ges2 is None:
        bound = _fallback_cap(P1, P2)
    else:
        bound = _exponent_bound(L1, ges1, ges2)
        if bound is None:
            return []
    u = _hom_denominator(L1, L2)
    if u.degree + bound < 0:
        return []
    width = _within_budget(u.degree + bound) + 1
    basis = []
    for vec in nullspace_rational(_hom_rows(P1, P2, u, width)):
        numerators = [Poly(vec[i * width : (i + 1) * width]) for i in range(d1)]
        G = Operator([RatFunc(z, u) for z in numerators])
        basis.append(GaugeMap(G, L1, L2))
    return basis


# -- term candidates and the combined search ---------------------------------


def _integer_nth_root(a: int, n: int) -> Optional[int]:
    """The integer r >= 0 with r^n = a >= 0, or None: Newton's iteration
    from above, r <- ((n-1)·r + a // r^(n-1)) // n, falls to floor(a^(1/n))."""
    if a < 2:
        return a
    r = 1 << -(-a.bit_length() // n)  # 2^ceil(bits/n) > a^(1/n)
    while True:
        s = ((n - 1) * r + a // r ** (n - 1)) // n
        if s >= r:
            return r if r ** n == a else None
        r = s


def _rational_nth_root(c: Fraction, n: int) -> Optional[Fraction]:
    if c < 0 and n % 2 == 0:
        return None
    rn, rd = _integer_nth_root(abs(c.numerator), n), _integer_nth_root(c.denominator, n)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd) * (-1 if c < 0 else 1)


def term_candidates(L1: Operator, L2: Operator) -> List[RatFunc]:
    """Ratios r for which a twist of L1 by (tau - r) can be gauge
    equivalent to L2: d-th roots of the shift-normalized determinant
    ratio, with both signs when d is even.

    For L1 = sum a_i tau^i and L2 = sum b_i tau^i that ratio is
    b_0·a_d/(a_0·b_d), and its normal form c·prod rep^e keeps the unit
    c and sums each class's exponents into e.  Both are read from the
    shift classes of the four end coefficients.  Each r is a
    ``TermRatio`` that keeps the classes of its numerator and
    denominator, read off the same reps, so the twist by it factors
    neither.
    """
    if not (L1.is_normal() and L2.is_normal()):
        raise ValueError("normal operators required")
    d = L1.order
    if d != L2.order:
        raise ValueError("operators must have the same order")
    c = Fraction(1)
    exps: Counter = Counter()
    for L, i, sign in ((L2, 0, 1), (L1, d, 1), (L1, 0, -1), (L2, d, -1)):
        unit, classes = L.shift_classes(i)
        c *= unit ** sign
        for rep, offsets in classes.items():
            exps[rep] += sign * sum(offsets.values())
    if any(e % d for e in exps.values()):
        return []
    c = _rational_nth_root(c, d)
    if c is None:
        return []
    num, den = Poly.const(c), Poly.const(Fraction(1))
    classes = ({}, {})
    for rep, e in exps.items():
        if e > 0:
            num = num * rep ** (e // d)
            classes[0][rep] = {0: e // d}
        elif e < 0:
            den = den * rep ** (-e // d)
            classes[1][rep] = {0: -e // d}
    if d % 2 == 0:
        return [TermRatio(num, den, classes), TermRatio(-num, den, classes)]
    return [TermRatio(num, den, classes)]


def _gauge_rank(gm: GaugeMap):
    return (gm.G.order, print_operator(gm.G.canonical()))


def gt_find(L1: Operator, L2: Operator) -> Optional[GTTransform]:
    """Combined transformation taking solutions of L1 to solutions of
    L2, or None.

    The term ratios r are those of ``term_candidates``, tried in its
    order.  For each, the first bijective gauge map out of the twisted
    operator M = L1 ⊛ (τ - r) wins; ties inside one hom space go to the
    lowest order, then the smallest canonical coefficient string.

    An r whose M has other edges at infinity than L2
    (``edges_at_infinity``: slopes and monic edge polynomials) is
    skipped without building a hom_space system, because no bijective
    map exists for it.  With D = Q(x)[τ] and d the common order, a
    bijective G gives the isomorphism P ↦ P·G from D/D·L2 onto D/D·M.
    It is well defined because L2·G is a left multiple of M.  Its
    kernel {P : P·G ∈ D·M} is the left ideal of an operator of order
    d - ord gcrd(G, M) = d, and L2, of order d, lies in it, so the
    kernel is D·L2; both sides have dimension d over Q(x).  Over the
    formal series at infinity the two modules stay isomorphic, so
    their formal solutions match, with the same growth c·x^s of
    y(x+1)/y(x) and the same dimension for each (c, s).  Those
    dimensions are the multiplicities of the roots c^step of the monic
    edge polynomials, so M and L2 have equal edges (van Hoeij, JPAA
    1999; Cha, van Hoeij and Levy, ISSAC 2010).  The test reads only
    degrees and leading coefficients, in rational arithmetic.

    With the degree bound of ``hom_space`` proven for M and L2, None
    means that no transform exists.
    """
    if L1.order != L2.order:
        raise ValueError("operators must have the same order")
    edges = edges_at_infinity(L2)
    for r in term_candidates(L1, L2):
        M = symprod_first_order(L1, r)
        if edges_at_infinity(M) != edges:
            continue
        for gm in sorted(hom_space(M, L2), key=_gauge_rank):
            if gm.bijective:
                return GTTransform(r, gm, L1)
    return None


def transformed_operator(L1: Operator, G: Operator) -> Operator:
    """Minimal annihilator of the image of the solution space under G.

    Reduces G, tau*G, tau^2*G, ... modulo L1 until the coordinate
    vectors become dependent; injectivity (trivial gcrd with L1, decided
    as in GaugeMap.bijective) keeps the image dimension full, so the
    result has the order of L1.  The injectivity test and the remainder
    identity read the integer forms, so both operators need rational
    coefficients.
    """
    if not L1.is_normal():
        raise ValueError("operator must be normal")
    d = L1.order
    if d < 1:
        raise ValueError("positive order required")
    if not _image_is_full(G, L1):
        raise ValueError("not injective")
    rem = G % L1 if G.order >= d else G
    vec = [rem.coeff(i) for i in range(d)]
    finder = DependencyFinder(d)
    for _ in range(d + 1):
        dep = finder.feed(vec)
        if dep is not None:
            M = Operator(dep).canonical()
            if not _is_map(G, L1, M):
                raise AssertionError("transport failed the remainder identity")
            return M
        vec = _shift_reduce_step(vec, L1)
    raise AssertionError("no dependency within the solution-space dimension")


def _int_rank(rows: List[List[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After the step with pivot p, every entry below the pivot rows is a
    minor of the input, so the division by the previous pivot is exact.
    """
    m = [list(r) for r in rows]
    width = len(m[0]) if m else 0
    rank, prev = 0, 1
    for col in range(width):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        p = top[col]
        for row in m[rank + 1 :]:
            f = row[col]
            for j in range(col + 1, width):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[col] = 0
        prev = p
        rank += 1
    return rank


def _eval_int(c: List[int], v: int) -> int:
    acc = 0
    for a in reversed(c):
        acc = acc * v + a
    return acc


def _fold(v: List[int], b: List[int]) -> List[int]:
    """M·b for M = [[0, 0, -c_0], [c_3, 0, -c_1], [0, c_3, -c_2]] with
    v = (c_0, c_1, c_2, c_3) at one point."""
    c0, c1, c2, c3 = v
    return [-c0 * b[2], c3 * b[0] - c1 * b[2], c3 * b[1] - c2 * b[2]]


def _cross_rows(v0: List[int], v1: List[int], v2: List[int]) -> List[List[int]]:
    """C(x0) from the coefficient values v0, v1, v2 at x0, x0+1, x0+2:
    the rows (b_0·b_1, b_0·b_2, b_1·b_2) of b_3, b_4 and b_5 at x0."""
    bs = (v0[:3], _fold(v0, v1[:3]), _fold(v0, _fold(v1, v2[:3])))
    return [[b[0] * b[1], b[0] * b[2], b[1] * b[2]] for b in bs]


def _det3(C: List[List[int]]) -> int:
    (a, b, c), (d, e, f), (g, h, i) = C
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def case_diagnosis(L: Operator) -> int:
    """Order of the symmetric square of an order-3 operator.

    5 points at a term twist of the square of a second-order operator,
    6 at a square disguised by a proper gauge map; anything else is
    outside the two-case split.

    The order is computed as a rank, exactly, from integer matrices.
    With c_0 .. c_3 the integer coefficients of L (``int_coeffs()``) and
    D their largest degree, τ^k u has coordinates a_k in the basis
    u, τu, τ²u, and a_k(x) = T(x)·a_(k-1)(x+1) with T the fold of
    τ³u through L.  Clearing c_3 at every step, with M = c_3·T, gives
    the polynomial vectors ã_k = c_3(x)···c_3(x+k-1)·a_k, and τ^k(u²)
    has coordinates w_k = (ã_k,i·ã_k,j)_(i<=j), scaled by a nonzero
    polynomial.  The first k with w_k dependent on w_0 .. w_(k-1) is
    the order of the square, and then every later w is dependent too
    (a shift carries a dependency one step on), so the order is the
    rank over Q(x) of W = [w_0 .. w_5].

    The first three rows are diagonal: ã_0 = e_0, ã_1 = c_3(x)·e_1 and
    ã_2 = c_3(x)c_3(x+1)·e_2, so w_0, w_1 and w_2 each sit on one slot,
    00, 11 and 22.  For k = 3 .. 5, ã_k = -c_3(x+k-2)c_3(x+k-1)·b_k with
    b_3 = (c_0, c_1, c_2)(x) and b_k(x) = M(x)·b_(k-1)(x+1).  Clearing
    the three diagonal slots with w_0 .. w_2 leaves the cross terms, and
    the nonzero factors c_3(x+k-2)²c_3(x+k-1)² of w_3 .. w_5 keep the
    rank, so rank W = 3 + rank C, where C is the 3×3 matrix with rows
    (b_k,0·b_k,1, b_k,0·b_k,2, b_k,1·b_k,2) for k = 3 .. 5.

    b_k has degree <= (k-2)D, so the rows of C have degree <= 2D, 4D
    and 6D: det C has degree <= 12D and every 2×2 minor degree <= 10D.
    Evaluating at an integer x0 cannot raise the rank, so each rank of
    C(x0) is a lower bound, and a nonzero det C(x0) proves rank 3.  A
    nonzero det C cannot vanish at all of x0 = 0 .. 12D, so the
    determinant is tested at those points, stopping at the first
    nonzero one.  When it vanishes at every one, det C = 0 and rank C
    <= 2, and a nonzero minor of degree <= 10D cannot vanish at all of
    them either, so the largest rank of C(x0) over the same points,
    from fraction-free elimination and stopping at the first rank 2,
    is the rank of C.  C(x0) is built from the values of the c_i at
    x0, x0+1 and x0+2 with no division.

    The c_i need not be canonical.  A common polynomial factor g of
    them leaves T as it is, scales M by g(x) and b_3 by g(x), so b_k by
    g(x)···g(x+k-3) and row k of C by the square of that nonzero
    polynomial: the rank of C does not change.  The degree bounds above
    hold for the D of the lists read, so 12D still bounds every minor.
    """
    if L.order != 3:
        raise ValueError("order-3 operator required")
    if not L.is_normal():
        raise ValueError("operator must be normal")
    cs = L.int_coeffs()
    if any(_det3(C) for C in _blocks(cs)):
        return 6
    best = 0
    for C in _blocks(cs):
        best = max(best, _int_rank(C))
        if best == 2:
            break
    return 3 + best


def _blocks(cs: List[List[int]]):
    """C(x0) for x0 = 0 .. 12D, from the integer coefficients cs."""
    v0, v1 = ([_eval_int(c, v) for c in cs] for v in (0, 1))
    for x0 in range(12 * (max(len(c) for c in cs) - 1) + 1):
        v2 = [_eval_int(c, x0 + 2) for c in cs]
        yield _cross_rows(v0, v1, v2)
        v0, v1 = v1, v2
