import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from sympy import factorint

from symsolve import localdata, snf
from symsolve.equivalence import transformed_operator
from symsolve.factorization import factor_over_Q, roots
from symsolve.fieldext import NumberField, demote, field_of, value_sqrt
from symsolve.localdata import (
    GenExpRep,
    LocalData,
    ValGEntry,
    edges_at_infinity,
    generalized_exponents,
    gquo,
    local_data,
    problem_points,
    r_equivalent,
    valuation_growth,
)
from symsolve.opformat import parse_operator
from symsolve.ore import Operator
from symsolve.poly import P, Poly, _fieldify
from symsolve.ratfunc import RF, RatFunc
from symsolve.snf import canonical_shift
from symsolve.symprod import symprod_first_order, symsquare_order2

import edges_reference
import field_reference
import genexp_reference
from gcrd_reference import gcrd
from genexp_reference import TSeries, div, from_poly_in_invx, mul, one, series, trunc
from indicial_reference import indicial_of_series

X = P(0, 1)
F = Fraction

SQRT_M2 = value_sqrt(F(-2))
SQRT_M1 = value_sqrt(F(-1))


def hermite_sq(z=F(1)) -> Operator:
    # H_{x+2} = 2z H_{x+1} - 2(x+1) H_x, squared
    K = Operator([P(2, 2), Poly.const(-2 * z), P(1)])
    return symsquare_order2(K).canonical()


def legendre_sq(z=F(3, 5)) -> Operator:
    # (x+2) P_{x+2} = (2x+3) z P_{x+1} - (x+1) P_x, squared
    K = Operator([P(1, 1), -(P(3, 2)) * z, P(2, 1)])
    return symsquare_order2(K).canonical()


def turan_op(z=F(1)) -> Operator:
    # order-3 operator behind the Turan determinant, a gauge transform
    # of hermite_sq at the same z
    z2 = z * z
    a3 = P(1)
    a2 = P(2, 2) - Poly.const(4 * z2)
    a1 = (P(2, 1) * (X + Poly.const(4 - 2 * z2))) * F(-4)
    a0 = (X + P(1)) * P(2, 1) * P(2, 1) * F(-8)
    return Operator([a0, a1, a2, a3])


def rep(r, c, v, *tail, mult=1):
    return GenExpRep(r, c, F(v), tuple(tail), mult)


class TestProblemPoints:
    def test_single_shift(self):
        L = Operator([-X, P(1)])
        assert problem_points(L) == [(X, [0])]

    def test_turan_positions(self):
        assert problem_points(turan_op()) == [(X, [-2, -1])]

    def test_two_classes(self):
        L = Operator([(X + P(3)) * (P(-1, 2)), P(1)])
        pts = problem_points(L)
        assert [(p.to_str(), offs) for p, offs in pts] == [
            ("x", [-3]),
            ("x + 1/2", [1]),
        ]

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError):
            problem_points(Operator([RatFunc(Poly(), reduce=False), RF([1])]))


def _growth(L: Operator, cls: Poly):
    """valuation_growth at cls, a representative of problem_points(L),
    with its offsets."""
    return valuation_growth(L, cls, dict(problem_points(L))[cls])


class TestValuationGrowth:
    def test_tau_minus_x(self):
        L = Operator([-X, P(1)])
        assert _growth(L, X) == (1, 1)

    def test_unrelated_class_is_flat(self):
        L = Operator([-X, P(1)])
        assert valuation_growth(L, X * X + P(7), []) == (0, 0)

    def test_turan_gap(self):
        assert _growth(turan_op(), X) == (0, 2)

    def test_quadratic_class(self):
        # problem points at ±sqrt(2); transition matrix lives in Q(sqrt 2)
        L = Operator([-(X * X - P(2)), P(1)])
        assert _growth(L, X * X - P(2)) == (1, 1)

    def test_symsquare_doubles_growth(self):
        rng = random.Random(7)
        for _ in range(3):
            K = Operator(
                [P(rng.randint(1, 3), 1), P(rng.randint(1, 3)), P(rng.randint(1, 3))]
            )
            mn, mx = _growth(K, X)
            S = symsquare_order2(K).canonical()
            assert _growth(S, X) == (2 * mn, 2 * mx)

    def test_non_normal_message(self):
        L = Operator([RatFunc(Poly(), reduce=False), RF([1])])
        with pytest.raises(ValueError, match="non-normal at class"):
            valuation_growth(L, X, [0])


def _eps_val(p: Poly) -> int:
    return next(k for k, c in enumerate(p.coeffs) if c)


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    acc = Poly()
    for j, top in enumerate(rows[0]):
        sub = [[r[k] for k in range(len(rows)) if k != j] for r in rows[1:]]
        acc = acc + top * _det(sub) if j % 2 == 0 else acc - top * _det(sub)
    return acc


def _reference_transition(L: Operator, cls: Poly):
    """Untruncated transition matrix N over Q(θ)[ε] across the singular
    region of cls, with the valuations vden and vdet = v(det N)."""
    hat, k = canonical_shift(cls.monic())
    offsets = next(([o + k for o in ks] for p, ks in problem_points(L) if p == hat))
    polys, d = L.poly_coeffs(), L.order
    rep = cls.monic()
    theta = -F(rep[0]) if rep.degree == 1 else field_reference.NumberField(rep, name="theta").gen
    N = [[P(1) if i == j else Poly() for j in range(d)] for i in range(d)]
    vden = vdet = 0
    for k in range(offsets[0] - d, offsets[-1] + 1):
        ev = [p.shift(theta + k) for p in polys]
        vden += _eps_val(ev[d])
        vdet += _eps_val(ev[0]) + (d - 1) * _eps_val(ev[d])
        M = [[ev[d] if j == i + 1 else Poly() for j in range(d)] for i in range(d - 1)]
        M.append([-e for e in ev[:d]])
        N = [[sum((M[i][l] * N[l][j] for l in range(d)), Poly()) for j in range(d)]
             for i in range(d)]
    return N, vden, vdet


def _reference_valuations(N):
    """Entry and cofactor valuations of N, zero entries left out."""
    d = len(N)
    entries = [_eps_val(e) for row in N for e in row if e]
    if d == 1:
        return entries, [0]
    cofs = [_det([[N[r][c] for c in range(d) if c != j] for r in range(d) if r != i])
            for i in range(d) for j in range(d)]
    return entries, [_eps_val(c) for c in cofs if c]


def _reference_growth(L: Operator, cls: Poly):
    N, vden, vdet = _reference_transition(L, cls)
    entries, cofs = _reference_valuations(N)
    return (min(entries) - vden, vdet - min(cofs) - vden)


def _matches_reference(L: Operator) -> bool:
    """L has problem points, and valuation_growth equals the untruncated
    reference at each of their classes."""
    points = problem_points(L)
    return bool(points) and all(
        valuation_growth(L, rep, offs) == _reference_growth(L, rep)
        for rep, offs in points)


# the last five have primitive integer forms with leading coefficient
# l != 1, so valuation_growth works with the root l·θ of a scaled minimal
# polynomial; for the last two a scale of 2, below l, would do as well
CLASSES = (X, X * X - P(2), X * X + P(1), X ** 3 - P(2), X ** 3 - X - P(1),
           P(-1, 2), P(-2, 0, 3), P(-3, 0, 0, 2), P(1, 0, 4), P(-3, 0, 0, 8))


@st.composite
def _operator_with_class(draw):
    """Small normal operator of order 1 to 3 whose a_0, and maybe a_d,
    vanish on shifted copies of a class of degree 1, 2 or 3; and the class.
    Cubic classes come with order at most 2, where the untruncated
    reference stays fast; test_cubic_class covers one at order 3."""
    f = draw(st.sampled_from(CLASSES))
    d = draw(st.integers(1, 2 if f.degree == 3 else 3))
    small = st.lists(st.integers(-3, 3), min_size=1, max_size=2)
    coeffs = [Poly(draw(small)) for _ in range(d + 1)]
    coeffs[0] = (coeffs[0] or P(1)) * f.shift(draw(st.integers(0, 1)))
    coeffs[d] = coeffs[d] or P(1)
    if draw(st.booleans()):
        coeffs[d] = coeffs[d] * f.shift(draw(st.integers(0, 1)))
    if draw(st.booleans()):
        # a factor shared by all coefficients lifts every Smith exponent
        g = f.shift(draw(st.integers(0, 1)))
        coeffs = [c * g for c in coeffs]
    return Operator(coeffs), f


#: 10000000000000000051 · 3000000000000000000053, 41 digits
SEMIPRIME = 30000000000000000153530000000000000002703


def _least_scale(f: list) -> int:
    """The least λ > 0 with λ^(e-k)·f_k/f_e an integer for every k < e:
    ∏ p^(max_k ⌈v_p(f_e/gcd(f_k, f_e))/(e-k)⌉) over the primes p of f_e."""
    e, lead = len(f) - 1, f[-1]
    lam = 1
    dens = [lead // math.gcd(f[k], lead) for k in range(e)]
    for p in factorint(lead):
        need = 0
        for k, den in enumerate(dens):
            v = 0
            while den % p == 0:
                den //= p
                v += 1
            need = max(need, -(-v // (e - k)))
        lam *= int(p) ** need
    return lam


def _scales_to_integers(f: list, lam: int) -> bool:
    """μ(y) = λ^e·f(y/λ)/f_e is an integer polynomial."""
    e = len(f) - 1
    return all((F(f[k], f[-1]) * lam ** (e - k)).denominator == 1 for k in range(e))


def _binomial_taylor(b: list, h: int, lead: int, mu: list, count: int) -> list:
    """``localdata._taylor`` by the binomial formula: the j-th
    ε-coefficient of b(θ′ + h + λε) is λ^j·T_j(θ′) with T_j(y) =
    Σ_m C(m, j)·c_m·y^(m-j), c = b(y + h), reduced modulo μ."""
    e = len(mu)
    c = Poly([F(a) for a in b]).shift(F(h))
    monic = Poly([F(a) for a in mu] + [F(1)])
    out = []
    for j in range(min(count, len(b))):
        t = Poly([F(math.comb(m, j)) * c[m] for m in range(j, len(b))]) % monic
        out += [lead ** j * int(t[k]) for k in range(e)] + [0] * (e - 1)
    return out


class TestTaylorStep:
    """The ε-coefficients of each step of ``valuation_growth`` come from
    one synthetic division over Z[θ′]/μ; the binomial formula with a
    reduction per coefficient must give the same lists."""

    @given(b=st.lists(st.integers(-5, 5), min_size=1, max_size=6),
           h=st.integers(-6, 6), lead=st.integers(1, 4),
           mu=st.lists(st.integers(-4, 4), min_size=1, max_size=3),
           count=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_binomial_formula(self, b, h, lead, mu, count):
        assert localdata._taylor(b, h, lead, mu, count) == _binomial_taylor(
            b, h, lead, mu, count)


class TestTruncatedGrowth:
    """valuation_growth reduces everything mod ε^(vdet+1); an untruncated
    reference must give the same growths."""

    @given(_operator_with_class())
    @settings(max_examples=64, deadline=None)
    def test_matches_untruncated(self, case):
        L, f = case
        assert canonical_shift(f.monic())[0] in dict(problem_points(L))
        assert _matches_reference(L)
        event(f"class of degree {f.degree}")

    def test_cubic_class(self):
        f = X ** 3 - P(2)
        L = Operator([f * f.shift(1), X, P(-1), f.shift(2)])
        assert _matches_reference(L)

    @pytest.mark.parametrize("f, lam", [
        ([1, 0, 4], 2),                    # x^2 + 1/4
        ([-3, 0, 0, 8], 2),                # x^3 - 3/8
        ([1] + [0] * 6 + [625000], 10),    # x^7 + 1/(2^4·5^7)
        ([3, 2, 12], 6),                   # x^2 + x/6 + 1/4
        ([-1, 0, 2], 2), ([5, 7], 7), ([1, 0, 1], 1),
    ])
    def test_least_scale(self, f, lam):
        # lam is the least scale, which the factoring oracle finds; the
        # leading coefficient, the scale valuation_growth takes, is a
        # multiple of it
        assert _least_scale(f) == lam
        e = len(f) - 1
        for p in (2, 3, 5, 7):  # no proper divisor of λ will do
            if lam % p == 0:
                assert any((F(f[k], f[-1]) * (lam // p) ** (e - k)).denominator > 1
                           for k in range(e))
        assert f[-1] % lam == 0 and _scales_to_integers(f, f[-1])

    def test_large_class_lead_is_not_factored(self, monkeypatch):
        # the class N·x + 1 of a term ratio with N a 41-digit semiprime:
        # factoring N took seconds, and the scale is N itself.  squarefree_core
        # reduces the radicands at infinity by trial division, with no factorint.
        real = sympy.factorint

        def small_only(n, *args, **kwargs):
            assert abs(n) <= 10 ** 12, "factorint called on a large integer"
            return real(n, *args, **kwargs)

        monkeypatch.setattr(sympy, "factorint", small_only)
        L = symprod_first_order(hermite_sq(F(2)), RF([1, SEMIPRIME], [2, 1]))
        start = time.perf_counter()
        data = local_data(L)
        assert time.perf_counter() - start < 1.0
        assert P(F(1, SEMIPRIME), 1) in [rep for rep, _ in problem_points(L)]
        assert data.valg == (ValGEntry(X, 2),)  # N·x + 1 is apparent

    def test_scale_below_the_leading_coefficient(self):
        # 8x^3 - 3 has l = 8, and θ′ = 2θ is already integral; the growths
        # do not depend on the scale, so l·θ gives the same
        f = P(-3, 0, 0, 8)
        L = Operator([f * f.shift(1), X, P(-1), f.shift(2)])
        assert _matches_reference(L)
        for g in (P(1, 0, 4), P(1, 2, 4)):  # least scale 2, l = 4
            assert _least_scale(g.int_coeffs()) == 2
            L = Operator([g * g.shift(-1), P(2), g.shift(1) * X])
            assert _matches_reference(L)

    def test_kept_and_dropped_valuations(self):
        # one entry of N has valuation exactly vdet, the last coefficient
        # the truncation keeps, and another lies above it and is dropped
        L = Operator([-X, -X, P(1)])
        N, _, vdet = _reference_transition(L, X)
        entries, cofs = _reference_valuations(N)
        assert vdet in entries and vdet in cofs
        assert max(entries) > vdet and max(cofs) > vdet
        assert _growth(L, X) == _reference_growth(L, X)

    def test_order_one_bound_attained(self):
        # The bound is tight here.  For d >= 2 the least cofactor
        # valuation is vdet - s_d < vdet once the class has a problem
        # point; for d = 1, N is the product of the -a_0 and its only
        # entry has valuation vdet, the last coefficient kept.
        L = Operator([-(X * X - P(2)) * P(2, 4, 1), P(1)])  # (x+2)^2 - 2
        N, _, vdet = _reference_transition(L, X * X - P(2))
        assert _reference_valuations(N)[0] == [vdet] and vdet == 2
        assert _growth(L, X * X - P(2)) == _reference_growth(L, X * X - P(2))


class TestValgSet:
    def test_factors_once(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return factor_over_Q(p)

        monkeypatch.setattr(snf, "factor_over_Q", counting)
        # two classes, x and x^2 - 2: each end coefficient is factored once
        # and serves every class (a linear end would need no factoring)
        L = Operator([(X * X - P(2)) * X, P(1), X.shift(3) * X.shift(1)])
        LocalData(L).essential_classes()
        ends = [L.poly_coeffs()[0], L.poly_coeffs()[-1]]
        assert len(calls) == 2
        assert all(any(p == e for e in ends) for p in calls)

    def test_no_essential_points(self):
        assert set(LocalData(Operator([-X, P(1)])).essential_classes()) == set()

    def test_turan(self):
        assert (set(LocalData(turan_op()).essential_classes())
                == {ValGEntry(X, 2)})

    def test_legendre_square(self):
        assert (set(LocalData(legendre_sq()).essential_classes())
                == {ValGEntry(X, 4)})

    def test_hermite_square(self):
        assert (set(LocalData(hermite_sq()).essential_classes())
                == {ValGEntry(X, 2)})


@st.composite
def _fractional_operator(draw):
    """Operator of order 1 to 3 with Fraction coefficients of degree <= 3;
    the middle coefficients are often zero."""
    d = draw(st.integers(1, 3))
    q = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    coeffs = [Poly(draw(st.lists(q, min_size=1, max_size=4))) for _ in range(d + 1)]
    for i in range(1, d):
        if draw(st.booleans()):
            coeffs[i] = Poly()
    coeffs[0] = coeffs[0] or P(F(1, 3))
    coeffs[d] = coeffs[d] or P(F(-2, 5), 1)
    return Operator(coeffs)


class TestIndicial:
    """The indicial step of ``generalized_exponents`` reads the twist of L
    cleared to integers by one scalar; the reference reads the windows of
    L's own coefficients, with no scalar.  Fraction coefficients make the
    scalar nontrivial, and equal degrees put an edge at slope 0."""

    @given(_fractional_operator())
    @settings(max_examples=120, deadline=None)
    def test_matches_windows_of_the_coefficients(self, L):
        assert _genexp_outcome(localdata, L) == _genexp_outcome(genexp_reference, L)


@st.composite
def _series_windows(draw):
    """1 to 4 windows at one ramification (1 or 2), with Fraction or
    Q(sqrt(-2)) coefficients; some windows are all zero, and the i = 0
    window is drawn like the others."""
    ram = draw(st.sampled_from([1, 2]))
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    if draw(st.booleans()):
        value = st.builds(lambda a, b: SQRT_M2.field.element([a, b]), small, small)
    else:
        value = small
    windows = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 7))
        if draw(st.integers(0, 4)) == 0:
            coeffs = [F(0)] * n
        else:
            coeffs = draw(st.lists(st.one_of(st.just(F(0)), value),
                                   min_size=n, max_size=n))
        windows.append(TSeries(ram, draw(st.integers(-3, 1)), coeffs))
    # as in a twisted operator, the plain sum may cancel at the lowest
    # levels, which leaves them to the j >= 1 terms of the expansion
    cancel = draw(st.integers(0, 3)) if len(windows) > 1 else 0
    if cancel:
        vmin = min(w.val for w in windows)
        last = [F(0)] * (windows[-1].val - vmin) + list(windows[-1].coeffs)
        for m in range(min(cancel, len(last))):
            last[m] = -sum((w.coeffs[vmin + m - w.val] for w in windows[:-1]
                            if 0 <= vmin + m - w.val < len(w.coeffs)), F(0))
        windows[-1] = TSeries(ram, vmin, last)
    return windows


def _integer_indicial(bs):
    """``localdata._indicial_of_series`` on the windows bs, handed over as
    the twist hands them: times the lcm of every coordinate's
    denominator, one part per coordinate.  Returns (the level's
    polynomial as a Poly, level) or None."""
    field = field_of([c for s in bs for c in s.coeffs])
    coords = [[localdata._coords(c, field) for c in s.coeffs] for s in bs]
    D = math.lcm(*(den for cs in coords for _, _, den in cs))
    parts = [[[x[p] * (D // x[2]) for x in cs] for cs in coords]
             for p in range(1 if field is None else 2)]
    got = localdata._indicial_of_series(parts, [s.val for s in bs], bs[0].ram)
    if got is None:
        return None
    for part in got[0]:
        assert all(type(a) is int for a in part)
    return Poly([localdata._value(x, field) for x in zip(*got[0])]), got[1]


def _same_up_to_a_positive_scale(got, want):
    """The integer kernel's (P, level) against the reference's: the same
    level, and P the reference's polynomial times a positive rational."""
    if want is None:
        return got is None
    ratio = demote(got[0].lead() / _fieldify(want[0].lead()))
    return (got[1] == want[1] and isinstance(ratio, Fraction) and ratio > 0
            and got[0] == want[0] * ratio)


class TestIndicialOfSeries:
    """The indicial step sums Σ_i i^j·c_(i,k) before the one product by
    γ_j(n) per (level, j), on integer coordinates; the direct expansion
    must give the same level and polynomial up to a positive scale."""

    @given(_series_windows())
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_expansion(self, bs):
        assert _same_up_to_a_positive_scale(_integer_indicial(bs), indicial_of_series(bs))

    def test_only_the_i0_term(self):
        # b_0 alone is never expanded: (1 + 0·t)^(-n) = 1
        bs = [TSeries(1, -1, (F(3), F(5))), TSeries(1, 0, (F(0), F(0)))]
        assert _integer_indicial(bs) == indicial_of_series(bs) == (P(3), F(-1))

    def test_all_zero_window(self):
        bs = [TSeries(2, 0, (F(0),) * 4), TSeries(2, -1, (F(0),) * 5)]
        assert _integer_indicial(bs) is None
        assert indicial_of_series(bs) is None

    def test_quadratic_coefficients(self):
        bs = [TSeries(2, -2, (SQRT_M2, F(0), F(1))),
              TSeries(2, -2, (-SQRT_M2, F(1), F(0)))]
        got = _integer_indicial(bs)
        assert _same_up_to_a_positive_scale(got, indicial_of_series(bs))
        assert got[1] == F(-1, 2)


class TestIntegerKernels:
    """The twist and the indicial step read values in Q(sqrt m) as integer
    pairs: every coefficient they return is an int, with one part per
    coordinate, and they do no Fraction arithmetic."""

    @pytest.mark.parametrize("text, parts", [
        ("S^2 - 3*x*S + 2*x^2", 1),   # edge (T - 1)(T - 2): c = 1, 2
        ("3*S^2 + 2*x*S + x^2", 2),   # edge 1 + 2T + 3T^2: c in Q(sqrt(-2))
        ("S^4 + x*S^2 + x^2", 2),     # slope 1/2, c^2 a root of T^2 + T + 1
    ])
    def test_integer_lists(self, monkeypatch, text, parts):
        L = parse_operator(text)
        (slope, phi), = edges_at_infinity(L)
        ram = slope.denominator
        twist = localdata._Slope(L.int_coeffs(), -slope, ram)
        cs = [r for T, _ in roots(phi) for r in
              ((T,) if ram == 1 else (value_sqrt(T), -value_sqrt(T)))]

        def forbidden(*args, **kwargs):
            raise AssertionError("Fraction arithmetic in an integer kernel")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__"):
            monkeypatch.setattr(F, name, forbidden)
        for c in cs:
            for beta in ((None,) if ram == 1 else (None, c)):
                got = twist.twisted(c, beta, 4 * ram + 4)
                assert len(got) == parts
                assert all(type(a) is int for bs in got for b in bs for a in b)
                level = localdata._indicial_of_series(got, twist.vals, ram)
                assert level is not None and len(level[0]) == parts
                assert all(type(a) is int for P0 in level[0] for a in P0)


def _definitional_mult(L: Operator, e: GenExpRep) -> int:
    """Multiplicity of e by its definition: the multiplicity of the root 0
    of the indicial polynomial of L twisted by the represented element."""
    polys = L.poly_coeffs()
    for slots in (2 * e.r + 2, 4 * e.r + 4):
        got = indicial_of_series(
            genexp_reference.twisted_series(polys, series(e, slots), slots))
        if got:
            P0 = got[0]
            return next(k for k, c in enumerate(P0.coeffs) if c)
    raise AssertionError("increase truncation")


@st.composite
def _small_order3(draw):
    """Random normal operator of order 3 with coefficient degrees <= 2."""
    coeffs = [Poly([F(c) for c in draw(st.lists(st.integers(-3, 3),
                                                 min_size=1, max_size=3))])
              for _ in range(4)]
    coeffs[0] = coeffs[0] or P(1)
    coeffs[3] = coeffs[3] or P(1)
    return Operator(coeffs)


@st.composite
def _rational_operator(draw):
    """Random operator of order 1 to 5 over Q(x): Fraction coefficients
    with denominators up to 6, middle coefficients often zero, and some
    coefficients divided by a polynomial."""
    frac = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    coeffs = []
    order = draw(st.integers(1, 5))
    for i in range(order + 1):
        num = Poly(draw(st.lists(frac, min_size=1, max_size=5)))
        if 0 < i < order and draw(st.integers(0, 3)) == 0:
            num = Poly()
        elif not num:
            num = P(1)
        den = Poly(draw(st.lists(frac, min_size=1, max_size=3)))
        coeffs.append(RatFunc(num, den) if den and draw(st.integers(0, 3)) == 0
                      else num)
    return Operator(coeffs)


@st.composite
def _first_order_products(draw):
    """Product of three factors x·S - c·(x + k) from a small pool, so
    that exponents of multiplicity 2 and 3 are common."""
    L = Operator([P(1)])
    for _ in range(3):
        c, k = draw(st.sampled_from([1, 2, -1])), draw(st.integers(0, 2))
        L = L * Operator([P(k, 1) * F(-c), P(0, 1)])
    return L


class TestGenExp:
    def test_tau_minus_x(self):
        ge = generalized_exponents(Operator([-X, P(1)]))
        assert ge.complete
        assert list(ge) == [rep(1, F(1), -1, F(0))]

    def test_constant_ratio(self):
        ge = generalized_exponents(Operator([Poly.const(F(-7, 3)), P(1)]))
        assert list(ge) == [rep(1, F(7, 3), 0, F(0))]

    def test_kept_on_the_operator(self, monkeypatch):
        # local_data and every hom_space into L share one computation
        L = hermite_sq()
        first = generalized_exponents(L)
        monkeypatch.setattr(localdata, "_generalized_exponents", None)
        assert generalized_exponents(L) is first
        assert local_data(L).genexp == first.entries

    def test_first_order_is_trunc_of_ratio(self):
        # GenExp(tau - r) = {Trunc(r(t))} with r = (x^2+x+1)/x^2 -> 1 + t + t^2
        L = Operator([-P(1, 1, 1), P(0, 0, 1)])
        assert list(generalized_exponents(L)) == [rep(1, F(1), 0, F(1))]

    def test_turan_entries(self):
        ge = generalized_exponents(turan_op())
        assert ge.complete and sum(e.multiplicity for e in ge) == 3
        assert set(ge) == {
            rep(1, F(2), -1, F(3, 2)),
            rep(2, F(-2), -1, SQRT_M2, F(-1, 2)),
            rep(2, F(-2), -1, -SQRT_M2, F(-1, 2)),
        }

    def test_hermite_square_entries(self):
        ge = generalized_exponents(hermite_sq())
        assert ge.complete
        assert set(ge) == {
            rep(1, F(2), -1, F(1, 2)),
            rep(2, F(-2), -1, SQRT_M2, F(-1, 2)),
            rep(2, F(-2), -1, -SQRT_M2, F(-1, 2)),
        }

    def test_legendre_square_constants(self):
        ge = generalized_exponents(legendre_sq())
        assert ge.complete
        cs = {e.c for e in ge}
        a = F(-7, 25) + F(24, 25) * SQRT_M1
        abar = F(-7, 25) - F(24, 25) * SQRT_M1
        assert cs == {F(1), a, abar}

    def test_ramification_three_incomplete(self):
        # Newton polygon slope k/3: an exponent t^(-k/3) needs ramification
        # 3, and no disguise of a symmetric square has such a slope
        for text, slope in (("S^3 - x", "1/3"), ("x S^3 - 1", "-1/3"),
                            ("S^3 - x^2", "2/3")):
            L = parse_operator(text)
            ge = generalized_exponents(L)
            assert ge.complete is False and ge.entries == ()
            assert ge.rejection == (f"edge at infinity of slope {slope} has "
                                    "slope denominator 3 > 2")
            assert local_data(L).to_json()["rejection"] == ge.rejection

    def test_product_rule_first_order_twist(self):
        # GenExp(L ⊛ (τ-r)) = {Trunc(g · r(t))}
        L = hermite_sq()
        r = RF([2, 1], [0, 1])  # (x+2)/x
        tw = symprod_first_order(L, r).canonical()
        left = {
            (e.r, e.c, e.v, e.tail) for e in generalized_exponents(tw)
        }
        rt = div(from_poly_in_invx(r.num, 2, 8), from_poly_in_invx(r.den, 2, 8))
        right = set()
        for g in generalized_exponents(L):
            q = trunc(mul(series(g, 8), rt), g.r)
            right.add((q.r, q.c, q.v, q.tail))
        assert left == right

    def test_multiplicities_definitional(self):
        for L in (turan_op(), hermite_sq(), legendre_sq()):
            ge = generalized_exponents(L)
            assert all(e.multiplicity >= 1 for e in ge)
            assert sum(e.multiplicity for e in ge) == L.order
            assert all(e.multiplicity == _definitional_mult(L, e) for e in ge)

    def test_double_indicial_root(self):
        # the twist by 1 at v = 0 has the double indicial root -2
        L = parse_operator("(x^3 + x^2)*S^2 - (2*x^3 + 5*x^2 + x)*S"
                           " + x^3 + 4*x^2 + 5*x + 2")
        ge = generalized_exponents(L)
        assert ge.complete
        assert [(e.c, e.v, e.tail, e.multiplicity) for e in ge] == [
            (F(1), F(0), (F(2),), 2)]
        assert _definitional_mult(L, ge.entries[0]) == 2

    @given(st.one_of(_small_order3(), _first_order_products()))
    @settings(max_examples=40, deadline=None)
    def test_multiplicity_is_definitional(self, L):
        try:
            ge = generalized_exponents(L)
        except ValueError:  # an indicial root outside the quadratic field
            return
        for e in ge:
            assert e.multiplicity == _definitional_mult(L, e)

    def test_cubic_edge_factor_rejects(self):
        # the edge of slope 0 at infinity has the polynomial T^3 - T - 3
        L = parse_operator("(x - 1)*S^3 + 2*S^2 - (x - 3)*S - 3*x")
        ge = generalized_exponents(L)
        assert ge.entries == () and not ge.complete
        assert "T^3 - T - 3" in ge.rejection
        data = local_data(L)
        assert data.genexp == () and data.gquo == ()
        assert data.to_json()["rejection"] == ge.rejection
        assert "rejection" not in local_data(hermite_sq()).to_json()

    def test_rejected_operator_skips_valuation_growth(self, monkeypatch):
        # the rejection decides the match, so ValG is not computed
        L = parse_operator("(x - 1)*S^3 + 2*S^2 - (x - 3)*S - 3*x")
        assert set(LocalData(L).essential_classes())  # x is an essential class
        def fail(*args):
            raise AssertionError("valuation_growth called on a rejected operator")
        monkeypatch.setattr(localdata, "valuation_growth", fail)
        data = local_data(L)
        assert data.valg == () and data.to_json()["valg"] == []

    def test_cubic_edge_factor_at_half_slope_rejects(self):
        # slope 1/2: the edge polynomial in c^2 is T^3 - 2
        ge = generalized_exponents(parse_operator("S^6 - 2*x^3"))
        assert ge.entries == ()
        assert "T^3 - 2" in ge.rejection


def _edge_operator(integer) -> Operator:
    """Normal operator of order 2 or 3, from integer(lo, hi) draws.

    Coefficient degrees 0..2 put integer and half-integer slopes on the
    polygon at infinity; leading coefficients ±1..±3 give irreducible
    quadratic edge factors; a middle coefficient is sometimes zero."""
    d = integer(2, 3)
    coeffs = []
    for i in range(d + 1):
        if 0 < i < d and integer(0, 4) == 0:
            coeffs.append(Poly())
            continue
        deg = integer(0, 2)
        lead = integer(1, 3) * (-1) ** integer(0, 1)
        coeffs.append(P(*[integer(-3, 3) for _ in range(deg)], lead))
    return Operator(coeffs)


@st.composite
def _edge_operators(draw):
    return _edge_operator(lambda lo, hi: draw(st.integers(lo, hi)))


def _genexp_outcome(module, L):
    """Generalized exponents and their quotients as JSON, or the error."""
    try:
        ges = module.generalized_exponents(L)
        return ([localdata._rep_json(e) for e in ges], ges.complete, ges.rejection,
                [localdata._rep_json(q) for q in module.gquo(ges)])
    except ValueError as exc:
        return type(exc).__name__, str(exc)


BRANCH_KINDS = ("integer slope", "half-integer slope", "quadratic edge factor",
                "beta != 0")


def _branch_kinds(outcome) -> set:
    if isinstance(outcome[0], str):
        return set()
    kinds = set()
    for e in outcome[0]:
        if e["r"] == 1:
            kinds.add("integer slope")
            if isinstance(e["c"], dict):  # an irrational root of the edge
                kinds.add("quadratic edge factor")
        if F(e["v"]).denominator == 2:
            kinds.add("half-integer slope")
        if e["r"] == 2 and e["tail"][0] != "0":
            kinds.add("beta != 0")
    return kinds


class TestGenExpOracle:
    """The twist built once per slope, one root search per conjugate
    pair and the closed-form quotients must give what the twist built
    per root, every root searched and series division give
    (``genexp_reference``): entries with their multiplicities,
    ``complete``, ``rejection`` and the quotients, as JSON."""

    @given(_edge_operators())
    @settings(max_examples=80, deadline=None)
    def test_matches_one_root_at_a_time(self, L):
        got = _genexp_outcome(localdata, L)
        assert got == _genexp_outcome(genexp_reference, L)
        for kind in sorted(_branch_kinds(got)):
            event(kind)  # --hypothesis-show-statistics reports how often

    def test_draws_reach_every_branch_kind(self):
        rng = random.Random(13)
        seen = Counter()
        for _ in range(40):
            seen.update(_branch_kinds(_genexp_outcome(localdata, _edge_operator(rng.randint))))
        assert all(seen[k] >= 3 for k in BRANCH_KINDS), seen

    def test_conjugates_that_are_not_negatives(self):
        # slope 1/2 with edge polynomial T^2 + T + 1 in T = c^2: the four
        # constants ±(1 ± sqrt(-3))/2, where conj(c) is not -c
        L = parse_operator("S^4 + x*S^2 + x^2")
        got = _genexp_outcome(localdata, L)
        assert got == _genexp_outcome(genexp_reference, L)
        assert len(got[0]) == 4 and got[1]


#: term ratios and gauges of the planted sweep
SWEEP_RATIOS = (RF([1]), RF([2]), RF([F(-1, 2)]), RF([0, 1]), RF([1], [0, 1]),
                RF([1, 0, 1]), RF([1, 1], [2, 1]), RF([0, 3], [1, 0, 1]))
SWEEP_GAUGES = (None, "1 + S", "2 + S", "1 + x*S", "1 + S^2", "x + S",
                "(x+1) + x*S^2")


def _twisted_edges(edges, r: RatFunc):
    """Edges of L ⊛ (τ - r) from those of L: each slope rises by deg r
    and each leading constant c becomes lead(r)·c, so each root
    T = c^step of a monic edge polynomial becomes lead(r)^step·T."""
    rise = r.num.degree - r.den.degree
    rho = F(r.num.lead()) / F(r.den.lead())
    out = []
    for slope, phi in edges:
        n = phi.degree
        out.append((slope + rise, Poly([a * rho ** (slope.denominator * (n - k))
                                        for k, a in enumerate(phi.coeffs)])))
    return out


class TestEdgesAtInfinity:
    def test_monic_in_c(self):
        # points (0, -2), (1, -1), (2, 0): one edge of slope 1, 1 + 2T + 3T^2
        assert edges_at_infinity(parse_operator("3*S^2 + 2*x*S + x^2")) == [
            (F(1), Poly([F(1, 3), F(2, 3), F(1)]))]

    def test_half_integer_slope_in_c_squared(self):
        assert edges_at_infinity(parse_operator("S^4 + x*S^2 + x^2")) == [
            (F(1, 2), P(1, 1, 1))]

    def test_points_off_the_edge_are_left_out(self):
        # (1, 0) lies above the edge from (0, -1) to (2, -1)
        assert edges_at_infinity(parse_operator("2*x*S^2 + S - 3*x")) == [
            (F(0), Poly([F(-3, 2), F(0), F(1)]))]

    def test_two_edges_in_order_of_slope(self):
        # points (0, 0), (1, -2), (2, -1)
        assert edges_at_infinity(parse_operator("2*x*S^2 + 3*x^2*S + 5")) == [
            (F(-2), Poly([F(5, 3), F(1)])), (F(1), Poly([F(3, 2), F(1)]))]

    @given(_small_order3(), st.sampled_from(SWEEP_RATIOS), st.sampled_from(SWEEP_GAUGES))
    @settings(max_examples=80, deadline=None)
    def test_twist_and_gauge_keep_monic_edges(self, L, r, gauge):
        M = symprod_first_order(L, r)
        if gauge is not None:
            G = parse_operator(gauge)
            assume(gcrd(G, M).order == 0)
            M = transformed_operator(M, G)
        edges = edges_at_infinity(L)
        assert edges_at_infinity(M) == _twisted_edges(edges, r)
        if any(slope.denominator == 2 for slope, _ in edges):
            event("half-integer slope")
        if any(phi.degree >= 2 for _, phi in edges):
            event("edge polynomial of degree >= 2")
        if gauge is not None:
            event("gauge")

    @given(_rational_operator())
    @settings(max_examples=150, deadline=None)
    def test_integer_form_gives_the_fraction_edges(self, L):
        # degrees and leads read from int_coeffs(), points tested on an edge
        # by cross-multiplication, against the Fraction reading of poly_coeffs()
        got = localdata._edges_at_infinity(L)
        assert got == edges_reference.edges_at_infinity(Operator(L.coeffs))
        assert all(type(c) is F for _, phi in got for c in phi.coeffs)
        if any(not c for c in L.coeffs[1:-1]):
            event("zero middle coefficient")
        if any(c.den.degree > 0 for c in L.coeffs):
            event("rational function coefficient")

    def test_kept_on_the_operator(self, monkeypatch):
        # the table's slope test, the exponents and gt_find read one polygon
        L = hermite_sq()
        edges = edges_at_infinity(L)

        def refuse(L):
            raise AssertionError("Newton polygon computed twice")

        monkeypatch.setattr(localdata, "_edges_at_infinity", refuse)
        assert edges_at_infinity(L) is edges
        assert generalized_exponents(L).complete

    def test_generalized_exponents_read_the_edges(self):
        # each leading constant c gives a root c^step of its slope's edge
        for L in (hermite_sq(), legendre_sq(), turan_op()):
            edges = edges_at_infinity(L)
            for e in generalized_exponents(L):
                phi = dict(edges)[-e.v]
                T = e.c ** (-e.v).denominator
                assert not phi.eval(T)


def _count_roots(monkeypatch, module) -> list:
    calls = []
    real = module.roots

    def counting(p, base=None):
        calls.append(base is not None)
        return real(p, base)

    monkeypatch.setattr(module, "roots", counting)
    return calls


class TestOneSearchPerConjugatePair:
    """Every root search over a quadratic field serves a conjugate pair,
    so there are half as many as when each root is searched."""

    @pytest.mark.parametrize("make", [
        hermite_sq, legendre_sq, turan_op,
        lambda: parse_operator("S^4 + x*S^2 + x^2"),
    ], ids=["hermite_sq", "legendre_sq", "turan_op", "order4_slope_half"])
    def test_roots_calls(self, monkeypatch, make):
        L = make()
        calls = _count_roots(monkeypatch, localdata)
        got = generalized_exponents(L)
        ref_calls = _count_roots(monkeypatch, genexp_reference)
        want = genexp_reference.generalized_exponents(L)
        assert [(e, e.multiplicity) for e in got] == [(e, e.multiplicity) for e in want]
        quadratic = calls.count(True)
        assert quadratic >= 1
        assert 2 * quadratic == ref_calls.count(True)
        assert calls.count(False) == ref_calls.count(False)


class TestTrunc:
    def test_monomial_fixed(self):
        s = TSeries(1, -2, (F(5), F(0), F(0)))
        assert trunc(s) == rep(1, F(5), -2, F(0))

    def test_cuts_past_level_r(self):
        s = TSeries(1, -1, (F(1), F(1), F(1)))
        assert trunc(s) == rep(1, F(1), -1, F(1))

    def test_ramified_window(self):
        s = TSeries(2, -2, (F(2), F(6), F(-4), F(2)))
        t = trunc(s)
        assert t == rep(2, F(2), -1, F(3), F(-2))

    def test_zero_series_rejected(self):
        with pytest.raises(ValueError):
            trunc(TSeries(1, 0, (F(0), F(0))))

    def test_int_leading_coefficient(self):
        t = trunc(TSeries(1, -1, (2, 1, 5)))
        assert t == rep(1, F(2), -1, F(1, 2))
        assert isinstance(t.tail[0], Fraction)


class TestREquivalent:
    def test_level_r_integer_shift(self):
        a = rep(1, F(3), -1, F(1, 2))
        b = rep(1, F(3), -1, F(7, 2))
        assert r_equivalent(a, b)

    def test_printed_equivalence(self):
        # -1 + sqrt(-2 z^2) t^(1/2) + (z^2+1) t  vs  z^2 t  at z = 1
        a = rep(2, F(-1), 0, -SQRT_M2, F(-2))
        b = rep(2, F(-1), 0, -SQRT_M2, F(-1))
        assert r_equivalent(a, b)
        assert r_equivalent(b, a)

    def test_half_integer_shift_at_ram_two(self):
        a = rep(2, F(-1), 0, SQRT_M2, F(0))
        b = rep(2, F(-1), 0, SQRT_M2, F(1, 2))
        assert r_equivalent(a, b)

    def test_distinguishes_lower_tail(self):
        a = rep(2, F(-1), 0, SQRT_M2, F(0))
        b = rep(2, F(-1), 0, -SQRT_M2, F(0))
        assert not r_equivalent(a, b)

    def test_distinguishes_constant_and_valuation(self):
        a = rep(1, F(2), 0, F(0))
        assert not r_equivalent(a, rep(1, F(3), 0, F(0)))
        assert not r_equivalent(a, rep(1, F(2), -1, F(0)))

    def test_cross_ramification_lift(self):
        a = rep(1, F(2), -1, F(1, 3))
        b = rep(2, F(2), -1, F(0), F(1, 3))
        assert r_equivalent(a, b)

    def test_values_of_two_fields(self):
        q2, q3 = NumberField(2), NumberField(3)
        assert not r_equivalent(rep(1, F(1), 0, q2.gen), rep(1, F(1), 0, q3.gen))
        assert not r_equivalent(rep(1, q2.gen, 0, F(0)), rep(1, q3.gen, 0, F(0)))
        # rational values carried by different fields are plain rationals
        assert r_equivalent(rep(1, q2.from_rational(3), 0, q2.gen),
                            rep(1, q3.from_rational(3), 0, q2.gen + 1))


class TestGquo:
    def test_first_order_pair(self):
        # (tau-2)(tau-3): exponents {2, 3}, quotients {2/3, 3/2}
        L = Operator([P(6), P(-5), P(1)])
        assert set(gquo(generalized_exponents(L))) == {
            rep(1, F(2, 3), 0, F(0)),
            rep(1, F(3, 2), 0, F(0)),
        }

    def test_turan_display(self):
        got = set(gquo(generalized_exponents(turan_op())))
        want = {
            rep(2, F(-1), 0, -SQRT_M2, F(-2)),
            rep(2, F(-1), 0, -SQRT_M2, F(0)),
            rep(2, F(-1), 0, SQRT_M2, F(-2)),
            rep(2, F(-1), 0, SQRT_M2, F(0)),
            rep(2, F(1), 0, F(2) * SQRT_M2, F(-4)),
            rep(2, F(1), 0, F(-2) * SQRT_M2, F(-4)),
        }
        assert got == want

    def test_hermite_square_display(self):
        got = set(gquo(generalized_exponents(hermite_sq())))
        want = {
            rep(2, F(-1), 0, -SQRT_M2, F(-1)),
            rep(2, F(-1), 0, SQRT_M2, F(-1)),
            rep(2, F(1), 0, F(2) * SQRT_M2, F(-4)),
            rep(2, F(1), 0, F(-2) * SQRT_M2, F(-4)),
        }
        assert got == want

    def test_gauge_pair_matches_up_to_r_equivalence(self):
        qa = gquo(generalized_exponents(turan_op()))
        qb = gquo(generalized_exponents(hermite_sq()))
        assert all(any(r_equivalent(a, b) for b in qb) for a in qa)
        assert all(any(r_equivalent(a, b) for a in qa) for b in qb)

    def test_legendre_square_constants(self):
        got = {e.c for e in gquo(generalized_exponents(legendre_sq()))}
        a = F(-7, 25) + F(24, 25) * SQRT_M1
        abar = F(-7, 25) - F(24, 25) * SQRT_M1
        a2 = F(-527, 625) + F(336, 625) * SQRT_M1
        a2bar = F(-527, 625) - F(336, 625) * SQRT_M1
        assert got == {a, abar, a2, a2bar}

    def test_invariant_under_term_twist(self):
        L = hermite_sq()
        base = gquo(generalized_exponents(L))
        for r in (RF([2, 1], [0, 1]), RF([5]), RF([1, 1], [3, 1])):
            tw = symprod_first_order(L, r).canonical()
            assert gquo(generalized_exponents(tw)) == base

    def test_closed_under_inversion(self):
        for L in (turan_op(), hermite_sq()):
            q = gquo(generalized_exponents(L))
            for e in q:
                inv = trunc(div(one(e.r, 2 * e.r + 2), series(e, 2 * e.r + 2)), e.r)
                assert any(inv == other for other in q)


class TestLocalData:
    def test_aggregate_and_json(self):
        ld = local_data(hermite_sq())
        assert ld.genexp_complete
        doc = ld.to_json()
        assert doc["valg"] == [{"class": ["0", "1"], "gap": 2}]
        assert len(doc["genexp"]) == 3 and len(doc["gquo"]) == 4
        ramified = [g for g in doc["genexp"] if g["r"] == 2]
        assert all(g["v"] == "-1" and g["c"] == "-2" for g in ramified)
        assert {g["tail"][1] for g in ramified} == {"-1/2"}
        assert ramified[0]["tail"][0]["minpoly"] == ["2", "0", "1"]

    def test_deterministic(self):
        a = local_data(turan_op()).to_json()
        b = local_data(turan_op()).to_json()
        assert a == b
