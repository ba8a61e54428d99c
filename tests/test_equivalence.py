"""Transformation layer: hom spaces (rational solutions among them),
term candidates, the combined gauge/term search, and operator
transport."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symsolve import equivalence, snf
from symsolve.equivalence import (
    _abramov_denominator,
    _complete_exponents,
    _exponent_bound,
    _hom_denominator,
    _hom_rows,
    _image_is_full,
    _power_columns,
    GaugeMap,
    GTTransform,
    case_diagnosis,
    gt_find,
    hom_space,
    term_candidates,
    transformed_operator,
)
from symsolve.factorization import factor_over_Q
from symsolve.fieldext import NumberField
from symsolve.linalg import DependencyFinder, nullspace_rational
from symsolve.localdata import edges_at_infinity, problem_points
from symsolve.opformat import parse_operator, print_operator
from symsolve.ore import Operator
from symsolve.poly import P, Poly, poly_lcm
from symsolve.ratfunc import RF, RatFunc
from symsolve.snf import shift_quotient_inverse
from symsolve.symprod import (
    _shift_reduce_step,
    symprod_first_order,
    symprod_general,
    symsquare_order2,
)
from symsolve.table import load_table

import case_reference
import shift_reference
from gcrd_reference import gcrd
from test_localdata import SWEEP_GAUGES, SWEEP_RATIOS, _small_order3

X = P(0, 1)
L_CUBIC = parse_operator("2S^3 + x^2 S^2 - 3S + (x+1)")

# order-3 operator whose symmetric square drops to order 5
E_TEXT = (
    "(x+1)S^3 + (-4x^4-28x^3-73x^2-84x-36)S^2"
    " + (-4x^5-28x^4-77x^3-104x^2-69x-18)S + (x^4+5x^3+8x^2+4x)"
)


def _apply(L: Operator, y: RatFunc) -> RatFunc:
    acc = RatFunc(Poly(), reduce=False)
    for i in range(L.order + 1):
        if L.coeff(i):
            acc = acc + L.coeff(i) * y.shift(i)
    return acc


def _proportional(G1: Operator, G2: Operator, L: Operator) -> bool:
    # G1 == c*G2 modulo L for some nonzero constant c
    a = G1 % L if G1.order >= L.order else G1
    b = G2 % L if G2.order >= L.order else G2
    lead = next((i for i in range(L.order) if a.coeff(i)), None)
    if lead is None or not b.coeff(lead):
        return False
    c = a.coeff(lead) / b.coeff(lead)
    if not c.is_constant():
        return False
    return all(a.coeff(i) == c * b.coeff(i) for i in range(L.order))


ONE = parse_operator("S - 1")


def _rational_solutions(L: Operator):
    """The c_0 of the maps G = c_0 in the basis of Hom(τ - 1, L)."""
    return [gm.G.coeff(0) for gm in hom_space(ONE, L)]


class TestRationalSolutions:
    """Rational solutions of L are Hom(τ - 1, L): a map from τ - 1 is
    G = c_0 with L(c_0) = 0."""

    def test_shift_of_x(self):
        L = parse_operator("x S - (x+1)")
        assert [y.to_str() for y in _rational_solutions(L)] == ["x"]

    def test_constants(self):
        assert [y.to_str() for y in _rational_solutions(ONE)] == ["1"]

    def test_geometric_has_none(self):
        assert _rational_solutions(parse_operator("S - 2")) == []

    def test_pole_chain(self):
        L = parse_operator("(x+2) S - x")
        sols = _rational_solutions(L)
        assert [y.to_str() for y in sols] == ["1/(x^2 + x)"]
        assert not _apply(L, sols[0])

    def test_double_unit_root(self):
        # (S - 1)^2 annihilates 1 and x
        sols = _rational_solutions(parse_operator("S^2 - 2S + 1"))
        assert len(sols) == 2
        for y in sols:
            assert y.is_polynomial() and y.num.degree <= 1

    def test_planted_factor(self):
        y = RF([3, 0, 1], [0, 1])  # (x^2+3)/x
        L = (parse_operator("S - 2") * Operator([-(y.shift(1) / y), 1])).canonical()
        sols = _rational_solutions(L)
        assert len(sols) == 1
        assert (sols[0] / y).is_constant()
        assert not _apply(L, sols[0])

    def test_cap_exceeded(self):
        # y(x+1)/y(x) = (x+101)/x: y = x(x+1)...(x+100), one past the budget
        with pytest.raises(ValueError, match="bound 101 exceeds the degree budget 100"):
            _rational_solutions(parse_operator("x S - (x+101)"))

    def test_solution_at_the_budget(self):
        sols = _rational_solutions(parse_operator("x S - (x+100)"))
        assert len(sols) == 1 and sols[0].is_polynomial()
        assert sols[0].num.degree == 100
        assert not _apply(parse_operator("x S - (x+100)"), sols[0])

    def test_non_normal_rejected(self):
        with pytest.raises(ValueError, match="normal"):
            _rational_solutions(parse_operator("S^2 - x S", require_normal=False))

    @given(
        num=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        den=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_first_order_planted(self, num, den):
        if not any(num) or not any(den):
            return
        y = RF(num, den)
        L = Operator([-(y.shift(1) / y), 1]).canonical()
        sols = _rational_solutions(L)
        assert len(sols) == 1
        assert (sols[0] / y).is_constant()


def _in_span(G: Operator, basis, L: Operator) -> bool:
    # G == sum of constants times the basis maps, modulo L
    ops = [gm.G for gm in basis] + [G % L if G.order >= L.order else G]
    den = Poly.const(F(1))
    for op in ops:
        for i in range(L.order):
            den = poly_lcm(den, op.coeff(i).den)
    prods = [[op.coeff(i) * RatFunc(den) for i in range(L.order)] for op in ops]
    assert all(p.is_polynomial() for ps in prods for p in ps)
    nums = [[p.num for p in ps] for ps in prods]
    size = 1 + max(p.degree for ps in nums for p in ps)
    vecs = [[F(p[m]) for p in ps for m in range(size)] for ps in nums]
    D = math.lcm(*(c.denominator for v in vecs for c in v))
    rows = [[int(c * D) for c in r] for r in zip(*vecs)]
    return any(v[-1] for v in nullspace_rational(rows))


class TestPowerColumns:
    @given(
        nums=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        dens=st.lists(st.integers(1, 9), min_size=6, max_size=6),
        j=st.integers(0, 3),
        width=st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_is_base_times_powers(self, nums, dens, j, width):
        if not any(nums):
            return
        base = Poly([F(n, d) for n, d in zip(nums, dens)])
        block = _power_columns(base.coeffs, j, width)
        assert len(block) == width
        for k, col in enumerate(block):
            assert Poly(col) == base * Poly((F(j), F(1))) ** k


class TestHomSpace:
    def test_planted_gauge_in_span(self):
        # target of order 3, so the columns run through (x+j)^k for j = 0..3
        G = Operator([P(1), P(0, 1), P(2)])  # 1 + x*tau + 2*tau^2
        L2 = transformed_operator(L_CUBIC, G)
        assert L2.order == 3 and L2.coeff(3)
        basis = hom_space(L_CUBIC, L2)
        assert basis
        assert _in_span(G, basis, L_CUBIC)
        assert not _in_span(Operator([P(1), P(1)]), basis, L_CUBIC)

    def test_identity_present(self):
        basis = hom_space(L_CUBIC, L_CUBIC)
        assert len(basis) == 1
        assert _proportional(basis[0].G, Operator.identity(), L_CUBIC)
        assert basis[0].bijective

    def test_roundtrip_recovery(self):
        G = Operator([P(1), P(0, 1)])  # 1 + x*tau
        L2 = transformed_operator(L_CUBIC, G)
        basis = hom_space(L_CUBIC, L2)
        assert len(basis) == 1
        assert _proportional(basis[0].G, G, L_CUBIC)
        assert basis[0].bijective

    def test_kernel_only_map(self):
        # solutions {1, 2^x} vs {2^x, 3^x}: constants must die, so the
        # only maps are multiples of 1 - tau, and none is a bijection
        L1 = parse_operator("S^2 - 3S + 2")
        L2 = parse_operator("S^2 - 5S + 6")
        basis = hom_space(L1, L2)
        assert len(basis) == 1
        assert _proportional(basis[0].G, Operator([P(1), P(-1)]), L1)
        assert not basis[0].bijective

    def test_zero_remainder_invariant(self):
        G = Operator([P(0, 1), P(2)])
        L2 = transformed_operator(L_CUBIC, G)
        for gm in hom_space(L_CUBIC, L2):
            assert not (gm.target * gm.G) % gm.source

    def test_dimension_twist_invariance(self):
        G = Operator([P(1), P(0, 1)])
        L2 = transformed_operator(L_CUBIC, G)
        r = RF([0, 1])
        dim = len(hom_space(L_CUBIC, L2))
        dim_twisted = len(
            hom_space(
                symprod_first_order(L_CUBIC, r),
                symprod_first_order(L2, r),
            )
        )
        assert dim == dim_twisted == 1

    def test_requires_normal(self):
        with pytest.raises(ValueError, match="normal"):
            hom_space(parse_operator("S^2 - x S", require_normal=False), L_CUBIC)


class TestTermCandidates:
    def test_cubic_twist(self):
        L2 = symprod_first_order(L_CUBIC, RF([0, 1]))
        assert term_candidates(L_CUBIC, L2) == [RF([0, 1])]

    def test_identity(self):
        assert term_candidates(L_CUBIC, L_CUBIC) == [RF([1])]

    def test_ratio_not_a_cube(self):
        cs = list(L_CUBIC.coeffs)
        L2 = Operator([cs[0] * RF([0, 1])] + cs[1:])
        assert term_candidates(L_CUBIC, L2) == []

    def test_even_order_gives_both_signs(self):
        K = parse_operator("S^2 - 3S + 2")
        K2 = symprod_first_order(K, RF([0, 1]))
        assert term_candidates(K, K2) == [RF([0, 1]), -RF([0, 1])]

    def test_shift_class_collapses(self):
        # planting x+1 normalizes to the class representative x
        L2 = symprod_first_order(L_CUBIC, RF([1, 1]))
        assert term_candidates(L_CUBIC, L2) == [RF([0, 1])]

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order"):
            term_candidates(L_CUBIC, parse_operator("S - 1"))


# Shift structure read from single coefficients against the products the
# direct way builds (shift_reference), on end coefficients that share
# shifted, repeated and quadratic factors across several classes.

CLASS_POOL = (P(0, 1), P(1, 2), P(1, 0, 1), P(1, 1, 1))


@st.composite
def end_coefficient(draw):
    p = Poly.const(draw(st.sampled_from([F(1), F(-2), F(3, 2), F(-1, 4)])))
    for i, k, m in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3),
                                           st.integers(1, 2)), max_size=3)):
        p = p * CLASS_POOL[i].shift(k) ** m
    return p


@st.composite
def end_data(draw):
    """Coefficient list of order 1..3 whose middle coefficients are 1."""
    d = draw(st.integers(1, 3))
    return [draw(end_coefficient())] + [P(1)] * (d - 1) + [draw(end_coefficient())]


class TestUniversalDenominator:
    @given(end_data(), end_data())
    @settings(max_examples=60, deadline=None)
    def test_hom_denominator_matches_products(self, p1, p2):
        got = _hom_denominator(Operator(p1), Operator(p2))
        assert got == shift_reference.hom_denominator(p1, p2)

    @given(end_data())
    @settings(max_examples=40, deadline=None)
    def test_rational_solutions_denominator_matches_products(self, ps):
        # called directly: hom_space returns before the denominator when
        # no exponent matches
        got = _hom_denominator(ONE, Operator(ps))
        assert got == shift_reference.rational_denominator(ps)

    def test_same_class_at_two_dispersions(self):
        # A = x·(x+1)^2, B = (x-2)·(x+1): h = 3 pairs x+1 with x-2, then
        # h = 0 pairs the second x+1 with B's x+1
        A = [(snf.shift_classes(P(0, 1) * P(1, 1) ** 2)[1], 0)]
        B = [(snf.shift_classes(P(-2, 1) * P(1, 1))[1], 0)]
        u = _abramov_denominator(A, B)
        assert u == P(1, 1) ** 2 * P(0, 1) * P(-1, 1) * P(-2, 1)
        assert u == shift_reference.abramov_denominator(
            P(0, 1) * P(1, 1) ** 2, P(-2, 1) * P(1, 1))


class TestTermCandidatesReference:
    @given(st.integers(1, 3), end_coefficient(), end_coefficient(),
           st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3)), max_size=3),
           st.sampled_from([F(1), F(-1), F(2), F(-3, 2)]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_shift_normal_form_and_root(self, d, a0, ad, planted, c, spoil):
        # b_0·a_d/(a_0·b_d) = c^d·prod f(x+k_1)···f(x+k_d), each copy of f
        # at its own shift, times x when spoiled
        b0 = a0 * Poly.const(c ** d)
        bd = ad
        for i, k in planted:
            for j in range(d):
                if (k + j) % 2:
                    b0 = b0 * CLASS_POOL[i].shift(k + j)
                else:
                    bd = bd * CLASS_POOL[(i + 1) % 4].shift(j - k)
        if spoil:
            b0 = b0 * P(0, 1)
        L1 = Operator([a0] + [P(1)] * (d - 1) + [ad])
        L2 = Operator([b0] + [P(2)] * (d - 1) + [bd])
        got = term_candidates(L1, L2)
        want = shift_reference.term_candidates(L1, L2)
        assert got == want
        assert [r.to_str() for r in got] == [r.to_str() for r in want]

    @pytest.mark.parametrize("d, c, roots", [
        (2, F(9, 4), ["3/2", "-3/2"]),
        (2, F(-4), []),
        (3, F(-27, 8), ["-3/2"]),
        (3, F(2), []),
    ])
    def test_units(self, d, c, roots):
        L1 = Operator([P(1, 1)] + [P(1)] * (d - 1) + [P(0, 2)])
        L2 = Operator([P(1, 1) * Poly.const(c)] + [P(1)] * (d - 1) + [P(0, 2)])
        got = term_candidates(L1, L2)
        assert [r.to_str() for r in got] == roots
        assert got == shift_reference.term_candidates(L1, L2)


def _count_factoring(monkeypatch) -> list:
    calls = []

    def counting(p):
        calls.append(p)
        return factor_over_Q(p)

    monkeypatch.setattr(snf, "factor_over_Q", counting)
    return calls


def _end_coefficients(*ops) -> list:
    return [p for L in ops for p in (L.poly_coeffs()[0], L.poly_coeffs()[-1])]


class TestFactorsEndCoefficients:
    def test_hom_space(self, monkeypatch):
        # a fresh copy: L_CUBIC keeps its twists, and theirs factored ends;
        # the twist M keeps the classes of its ends, composed from those of
        # L_CUBIC and x, so only the gauged L2 is factored
        M = symprod_first_order(Operator(L_CUBIC.coeffs), RF([0, 1]))
        L2 = transformed_operator(M, Operator([P(1), P(0, 1)]))
        calls = _count_factoring(monkeypatch)
        hom_space(M, L2)
        ends = _end_coefficients(L2)
        assert len(calls) == 2
        assert all(any(p == e for e in ends) for p in calls)

    def test_term_candidates(self, monkeypatch):
        L2 = transformed_operator(symprod_first_order(L_CUBIC, RF([1, 1])),
                                  Operator([P(1), P(0, 1)]))
        # operators keep their factored ends; the left scalar x^2 + 1 gives
        # L1 ends of degree >= 2, which are factored, and leaves the
        # determinant ratio unchanged
        L1 = Operator([c * P(1, 0, 1) for c in L_CUBIC.coeffs])
        calls = _count_factoring(monkeypatch)
        assert term_candidates(L1, L2) == [RF([0, 1])]
        ends = _end_coefficients(L1, L2)
        assert len(calls) == 4
        assert all(any(p == e for e in ends) for p in calls)

    def test_second_read_factors_nothing(self, monkeypatch):
        # an operator keeps its cleared coefficients and their shift
        # classes, so the readers of one input share one factorization;
        # the left scalar x^2 + 1 gives ends that need factoring
        L = Operator([c * P(1, 0, 1) for c in L_CUBIC.coeffs])
        calls = _count_factoring(monkeypatch)
        problem_points(L)
        term_candidates(L, L)
        assert len(calls) == 2
        problem_points(L)
        term_candidates(L, L)
        hom_space(L, L)
        assert len(calls) == 2
        assert L.poly_coeffs() is L.poly_coeffs()
        assert isinstance(L.poly_coeffs(), tuple)
        classes = L.shift_classes(0)[1]
        with pytest.raises(TypeError):
            classes[P(0, 1)] = {}
        with pytest.raises(TypeError):
            next(iter(classes.values()))[0] = 1


TERM_POOL = (
    RF([1]),
    RF([2]),
    RF([0, 1]),
    RF([1, 1]),
    RF([1], [0, 1]),
)


def _random_order3(rng) -> Operator:
    while True:
        cs = [
            P(*[F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])
            for _ in range(4)
        ]
        L = Operator(cs)
        if L.order == 3 and L.is_normal():
            return L.canonical()


def _random_gauge(rng, M: Operator) -> Operator:
    while True:
        cs = [
            P(*[F(rng.randint(-2, 2)) for _ in range(1 + rng.randint(0, 1))])
            for _ in range(rng.randint(1, 3))
        ]
        G = Operator(cs)
        if G and gcrd(G, M).order == 0:
            return G


class TestGtFind:
    def test_self_is_trivial(self):
        t = gt_find(L_CUBIC, L_CUBIC)
        assert t.r == RF([1])
        assert _proportional(t.G.G, Operator.identity(), L_CUBIC)

    def test_disguised_twist(self):
        r = RF([0, 1])
        M = symprod_first_order(L_CUBIC, r)
        G = Operator([P(1), P(0, 1)])
        L2 = transformed_operator(M, G)
        t = gt_find(L_CUBIC, L2)
        assert t is not None
        assert t.r == r
        assert _proportional(t.G.G, G, M)
        assert t.G.bijective
        assert t.target == L2

    def test_no_transform_between_unrelated(self):
        assert gt_find(
            parse_operator("S^2 - 3S + 2"), parse_operator("S^2 - 5S + 6")
        ) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_random_roundtrips(self, seed):
        rng = random.Random(seed)
        L1 = _random_order3(rng)
        r = rng.choice(TERM_POOL)
        M = symprod_first_order(L1, r)
        G = _random_gauge(rng, M)
        L2 = transformed_operator(M, G)
        t = gt_find(L1, L2)
        assert t is not None
        assert shift_quotient_inverse(t.r / r) is not None
        assert t.G.bijective


# symmetric squares of random order-2 operators whose local data match
# a table entry; each candidate's twisted base has other leading
# constants at infinity than L
REJECT_CANDIDATES = [
    (
        "(27*x^4 - 27*x^3)*S^3 - (30*x^4 + 12*x^3 - 48*x^2 - 12*x + 18)*S^2"
        " - (20*x^4 + 28*x^3 - 4*x^2 - 12*x)*S + 8*x^4 + 16*x^3 + 8*x^2",
        "legendre_sq", {"z": F(4, 3)},
        # constants {-2/3, 8/9 ± 2/9·sqrt 7} against {-2/3, -46/27 ∓ 16/27·sqrt 7}
        Poly([F(8, 27), F(-20, 27), F(-10, 9), F(1)]),
        Poly([F(8, 27), F(220, 81), F(110, 27), F(1)]),
    ),
    (
        "(x^3 - x^2)*S^3 - (x^3 - 2*x^2 + 10*x - 9)*S^2 - (x^3 - x^2 + 9*x)*S"
        " + x^3 - 2*x^2 + x",
        "gauss2f1_sq", {"a": F(0), "b": F(1, 2), "c": F(1), "z": F(1, 2)},
        # constants {-1, 1, 1} against {-1, ±i}
        Poly([F(1), F(-1), F(-1), F(1)]),
        Poly([F(1), F(1), F(1), F(1)]),
    ),
]


def _reject_candidate(text, entry, assignment):
    M, _ = load_table().entry(entry).instantiate(assignment)
    return M, parse_operator(text)


def _count_hom_space(monkeypatch) -> list:
    calls = []

    def counting(L1, L2):
        calls.append(L1)
        return hom_space(L1, L2)

    monkeypatch.setattr(equivalence, "hom_space", counting)
    return calls


class TestEdgePruning:
    """A term ratio whose twisted base has other edges at infinity than
    the target builds no hom_space system."""

    @pytest.mark.parametrize("case", REJECT_CANDIDATES, ids=["legendre", "gauss"])
    def test_reject_candidate_builds_no_system(self, monkeypatch, case):
        M, L = _reject_candidate(*case[:3])
        calls = _count_hom_space(monkeypatch)
        assert gt_find(M, L) is None
        assert calls == []

    @pytest.mark.parametrize("case", REJECT_CANDIDATES, ids=["legendre", "gauss"])
    def test_skipped_system_has_no_bijective_map(self, case):
        M, L = _reject_candidate(*case[:3])
        target, twisted = case[3:]
        assert edges_at_infinity(L) == [(F(0), target)]
        (r,) = term_candidates(M, L)
        N = symprod_first_order(M, r)
        assert edges_at_infinity(N) == [(F(0), twisted)]
        assert not any(gm.bijective for gm in hom_space(N, L))

    def test_kept_candidate_is_found(self, monkeypatch):
        # the same base, disguised: the edges agree and one system is built
        M, _ = _reject_candidate(*REJECT_CANDIDATES[0][:3])
        r = RF([F(3, 2)])
        L = transformed_operator(symprod_first_order(M, r), parse_operator("1 + x*S"))
        calls = _count_hom_space(monkeypatch)
        t = gt_find(M, L)
        assert t is not None and t.G.bijective and t.r == r
        assert len(calls) == 1


def _reference_rows(p1, p2, u, width):
    """The hom_space rows as built over Q(x) with RatFunc: tau^k reduced
    modulo L1 with rational coordinates, each remainder coefficient put
    over the lcm of its term denominators and cleared of its rational
    denominators.  The integer kernel must give the same nullspace."""
    d1, d2 = len(p1) - 1, len(p2) - 1
    L1c = Operator(p1)
    one, zero = RatFunc(P(1)), RatFunc(Poly())
    reduced = [[one if i == k else zero for i in range(d1)] for k in range(d1)]
    while len(reduced) < d1 + d2:
        reduced.append(_shift_reduce_step(reduced[-1], L1c))
    rows = []
    for s in range(d1):
        terms = []
        for j in range(d2 + 1):
            if not p2[j]:
                continue
            for i in range(d1):
                t = RatFunc(p2[j]) * reduced[j + i][s] / RatFunc(u.shift(j))
                if t:
                    terms.append((i, j, t))
        den = P(1)
        for _, _, t in terms:
            den = poly_lcm(den, t.den)
        bases = [(i, j, (t.num * den.exact_div(t.den)).coeffs) for i, j, t in terms]
        D = math.lcm(*(F(c).denominator for _, _, b in bases for c in b))
        size = max(len(b) for _, _, b in bases) + width - 1
        cols = [[0] * size for _ in range(d1 * width)]
        for i, j, b in bases:
            for k, q in enumerate(_power_columns([int(c * D) for c in b], j, width)):
                for m, c in enumerate(q):
                    cols[i * width + k][m] += c
        height = 1 + max(m for c in cols for m, v in enumerate(c) if v)
        rows += [[c[m] for c in cols] for m in range(height)]
    return rows


def _degree_cap(p1, p2) -> int:
    """The reference width beyond deg u: the heuristic cap hom_space
    used before its degree bound was proven, twice the largest
    coefficient degree plus ten."""
    return 2 * max(p.degree for p in p1 + p2) + 10


def _bases_agree(L1: Operator, L2: Operator) -> int:
    """Check the integer rows against the reference rows at the
    reference width, and hom_space, at its proven width, against the
    reference basis; the dimension."""
    p1, p2 = L1.poly_coeffs(), L2.poly_coeffs()
    u = _hom_denominator(L1, L2)
    width = _degree_cap(p1, p2) + u.degree + 1
    want = nullspace_rational(_reference_rows(p1, p2, u, width))
    assert nullspace_rational(_hom_rows(L1.int_coeffs(), L2.int_coeffs(), u, width)) == want
    d1 = L1.order
    want_G = [
        Operator([RatFunc(Poly(v[i * width:(i + 1) * width]), u) for i in range(d1)])
        for v in want
    ]
    assert [gm.G for gm in hom_space(L1, L2)] == want_G
    return len(want)


def _mixed_rational(rng, L: Operator) -> Operator:
    """L times a polynomial with non-integral coefficients: the same
    operator up to a unit of Q(x), with rationals in poly_coeffs."""
    f = P(F(rng.randint(1, 5), rng.randint(2, 7)), F(rng.randint(1, 5), rng.randint(2, 7)))
    return Operator([c * RatFunc(f) for c in L.coeffs])


# polynomial coefficients whose rational denominators differ from one
# coefficient to the next, so one scalar must clear them all
L_FRACTIONAL = Operator([P(F(1, 2), F(1, 3)), P(F(2, 3), 1), P(F(1, 5)), P(F(3, 7), F(1, 2))])


class TestHomRows:
    def test_fractional_source_keeps_the_planted_gauge(self):
        assert any(c.denominator > 1 for p in L_FRACTIONAL.poly_coeffs() for c in p.coeffs)
        G = Operator([P(1), P(0, 1)])
        L2 = transformed_operator(L_FRACTIONAL, G)
        assert _bases_agree(L_FRACTIONAL, L2) == 1
        assert _bases_agree(L_FRACTIONAL, _mixed_rational(random.Random(0), L2)) == 1
        (gm,) = hom_space(L_FRACTIONAL, L2)
        assert _proportional(gm.G, G, L_FRACTIONAL)

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_gauges(self, seed):
        rng = random.Random(100 + seed)
        L1 = _random_order3(rng)
        G = _random_gauge(rng, L1)
        L2 = transformed_operator(L1, G)
        if seed % 2:
            L1 = _mixed_rational(rng, L1)
        assert _bases_agree(L1, L2) >= 1

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_normal_pairs(self, data):
        def operator(order):
            cs = data.draw(st.lists(
                st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                         min_size=1, max_size=3).map(lambda c: P(*c)),
                min_size=order + 1, max_size=order + 1))
            L = Operator(cs)
            if L.order != order or not L.is_normal():
                return None
            return L
        order = data.draw(st.integers(1, 2))
        L1, L2 = operator(order), operator(order)
        if L1 is None or L2 is None:
            return
        _bases_agree(L1, L2)
        _bases_agree(L1, L1)


def _count_calls(monkeypatch, name) -> list:
    calls = []
    real = getattr(equivalence, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(equivalence, name, counting)
    return calls


def _exponent_bound_of(L1: Operator, L2: Operator):
    ges1, ges2 = _complete_exponents(L1), _complete_exponents(L2)
    assert ges1 is not None and ges2 is not None
    return _exponent_bound(L1, ges1, ges2)


def _coefficient_degrees(G: Operator) -> list:
    return [c.num.degree - c.den.degree for c in G.coeffs if c]


class TestDegreeBound:
    """hom_space's width comes from the generalized exponents at
    infinity of both operators; see its docstring for the proof."""

    @given(_small_order3(), st.sampled_from(SWEEP_RATIOS), st.sampled_from(SWEEP_GAUGES))
    @settings(max_examples=60, deadline=None)
    def test_planted_gauges_lie_within_the_bound(self, L, r, gauge):
        M = symprod_first_order(L, r)
        G = parse_operator(gauge) if gauge is not None else Operator.identity()
        assume(gcrd(G, M).order == 0)
        L2 = transformed_operator(M, G)
        ges1, ges2 = _complete_exponents(M), _complete_exponents(L2)
        assume(ges1 is not None and ges2 is not None)
        bound = _exponent_bound(M, ges1, ges2)
        assert bound is not None
        assert max(_coefficient_degrees(G)) <= bound
        assert _in_span(G, hom_space(M, L2), M)

    def test_exponent_gap_is_the_degree(self):
        # y1 = x(x+1)(x+2) against y2 = 1: c_0 = y2/y1 up to a constant,
        # of degree -3, the gap between the powers 0 and 3
        L1, L2 = parse_operator("x*S - (x+3)"), parse_operator("S - 1")
        assert _exponent_bound_of(L1, L2) == -3
        (gm,) = hom_space(L1, L2)
        assert gm.G == Operator([RF([1], [0, 2, 3, 1])])
        assert _exponent_bound_of(L2, L1) == 3
        (gm,) = hom_space(L2, L1)
        assert gm.G == Operator([RF([0, 2, 3, 1])])

    def test_shared_constant_needs_the_casoratian_term(self):
        # (S - 2)^3 has the solutions 2^x·{1, x, x²}: one leading constant
        # for all three, so det V loses three levels and E = 3; the
        # largest gap is 2, yet a map has a coefficient of degree 4
        L = parse_operator("S^3 - 6*S^2 + 12*S - 8")
        ges = _complete_exponents(L)
        assert [(e.c, e.tail) for e in ges] == [(2, (0,)), (2, (1,)), (2, (2,))]
        assert _exponent_bound(L, ges, ges) == 5
        assert _bases_agree(L, L) == 9
        assert max(d for gm in hom_space(L, L) for d in _coefficient_degrees(gm.G)) == 4

    def test_irrational_powers(self):
        # x²·Δ²y = y: powers (1 ± √5)/2, whose irrational parts cancel in E
        L = parse_operator("x^2*S^2 - 2*x^2*S + x^2 - 1")
        ges = _complete_exponents(L)
        assert all(e.c == 1 and not isinstance(e.tail[0], F) for e in ges)
        G = parse_operator("1 + x*S")
        L2 = transformed_operator(L, G)
        assert _exponent_bound_of(L, L2) == 2
        assert _bases_agree(L, L2) == 1
        assert _in_span(G, hom_space(L, L2), L)

    @pytest.mark.parametrize("source, target", [
        ("S - 2", "S - 3"),                  # no shared leading constant
        ("2*x*S - (2*x + 1)", "S - 1"),      # powers 1/2 and 0: no integer gap
    ])
    def test_no_matching_exponent_builds_no_rows(self, monkeypatch, source, target):
        L1, L2 = parse_operator(source), parse_operator(target)
        assert _bases_agree(L1, L2) == 0
        calls = _count_calls(monkeypatch, "_hom_rows")
        assert hom_space(L1, L2) == []
        assert calls == []

    def test_bound_above_the_budget_raises(self):
        # c_0 = x(x+1)···(x+100): degree 101, one past the budget
        with pytest.raises(ValueError, match="bound 101 exceeds the degree budget 100"):
            hom_space(parse_operator("S - 1"), parse_operator("x*S - (x+101)"))
        (gm,) = hom_space(parse_operator("S - 1"), parse_operator("x*S - (x+100)"))
        assert _coefficient_degrees(gm.G) == [100]

    def test_equations_that_vanish_keep_their_columns(self):
        # u = 1 and B = 0: at width 1 every equation of hom_space(L, L)
        # vanishes, and the constants are the whole space
        L = parse_operator("(2*x^2 - x + 2)*S + 3*x + 9")
        assert _hom_denominator(L, L) == P(1) and _exponent_bound_of(L, L) == 0
        (gm,) = hom_space(L, L)
        assert _proportional(gm.G, Operator.identity(), L)

    def test_incomplete_operands_take_the_fallback_cap(self, monkeypatch):
        # a single edge of slope -1/3: no complete exponent set
        L = parse_operator("S^3 - x")
        assert _complete_exponents(L) is None
        calls = _count_calls(monkeypatch, "_fallback_cap")
        assert _bases_agree(L, L) >= 1
        assert len(calls) == 1


class TestTransformedOperator:
    def test_identity_map(self):
        assert transformed_operator(L_CUBIC, Operator.identity()) == L_CUBIC

    def test_scalar_map_is_term_twist(self):
        got = transformed_operator(L_CUBIC, Operator([RF([0, 1])]))
        assert got == symprod_first_order(L_CUBIC, RF([1, 1], [0, 1]))

    def test_order_preserved(self):
        assert transformed_operator(L_CUBIC, Operator.tau()).order == 3

    def test_shared_factor_rejected(self):
        L = parse_operator("S^2 - 3S + 2")
        with pytest.raises(ValueError, match="injective"):
            transformed_operator(L, parse_operator("S - 1"))

    @pytest.mark.parametrize(
        "r", [RF([0, 1]), RF([2]), RF([1, 1], [0, 1])], ids=["x", "2", "(x+1)/x"]
    )
    def test_det_transport(self, r):
        twisted = symprod_first_order(L_CUBIC, r)
        # det(L) = -a_0/a_3 for both operators; the signs cancel
        end_ratio = [op.coeff(0) / op.leading() for op in (twisted, L_CUBIC)]
        assert end_ratio[0] / end_ratio[1] == r * r.shift(1) * r.shift(2)


# a gauge disguise of the Gauss square from the gauge workload
GAUGE_TEXT = (
    "(4374*x^6 + 65610*x^5 + 398439*x^4 + 1251180*x^3 + 2139021*x^2"
    " + 1885620*x + 669856)*S^3 - (8748*x^6 + 125388*x^5 + 726408*x^4"
    " + 2171016*x^3 + 3522249*x^2 + 2937252*x + 984096)*S^2 + (8748*x^6"
    " + 119556*x^5 + 658368*x^4 + 1863000*x^3 + 2847897*x^2 + 2225808*x"
    " + 696060)*S - (4374*x^6 + 56862*x^5 + 296379*x^4 + 788508*x^3"
    " + 1122957*x^2 + 807840*x + 229500)"
)


def _int_poly(cs) -> Poly:
    return Poly([F(c) for c in cs])


@st.composite
def _common_factor(draw):
    """A nonzero polynomial: random over Q, or -c·(x - k_1)···(x - k_m)
    with the roots k_i at the first evaluation points of case_diagnosis."""
    if draw(st.booleans()):
        f = Poly(draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                               min_size=1, max_size=4)))
        assume(f)
        return f
    f = _int_poly([-draw(st.integers(1, 3))])
    for k in draw(st.lists(st.integers(-2, 8), min_size=1, max_size=3)):
        f = f * _int_poly([-k, 1])
    return f


@st.composite
def _case_input(draw):
    """A normal order-3 operator: random, the square of a random order-2 K,
    that square twisted by a random ratio, or gauged by a random map
    g_0 + g_1·S."""
    kind = draw(st.sampled_from(("random", "square", "twisted", "gauged")))
    small = st.lists(st.integers(-2, 2), min_size=1, max_size=2)
    if kind == "random":
        L = Operator([_int_poly(draw(st.lists(st.integers(-3, 3), min_size=1,
                                               max_size=3))) for _ in range(4)])
        assume(L.order == 3 and L.is_normal())
        return L
    K = Operator([_int_poly(draw(small)) for _ in range(3)])
    assume(K.order == 2 and K.is_normal())
    L = symsquare_order2(K)
    assume(L.order == 3)
    if kind == "twisted":
        num, den = draw(small), draw(small)
        assume(any(num) and any(den))
        L = symprod_first_order(L, RF(num, den))
    elif kind == "gauged":
        G = Operator([_int_poly(draw(small)) for _ in range(2)])
        assume(G.order == 1 and _image_is_full(G, L))
        L = transformed_operator(L, G)
    assume(L.is_normal())
    return L


class TestCaseDiagnosis:
    def test_collapsing_example(self):
        assert case_diagnosis(parse_operator(E_TEXT)) == 5

    def test_plain_square(self):
        K = Operator([P(1, 1), P(-3, 2), P(2)])
        assert case_diagnosis(symsquare_order2(K)) == 5

    def test_gauge_disguise(self):
        K = Operator([P(1, 1), P(-3, 2), P(2)])
        S = symsquare_order2(K)
        L3 = transformed_operator(S, Operator([P(1), P(0, 1)]))
        assert case_diagnosis(L3) == 6

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError, match="order-3"):
            case_diagnosis(parse_operator("S^2 - 1"))

    @pytest.mark.parametrize(
        "text, order", [("S^3 - 1", 3), ("S^3 + S^2 + S + 1", 4)]
    )
    def test_constant_coefficients(self, text, order):
        # one evaluation point: products of the roots {1, w, w^2} and {-1, i, -i}
        assert case_diagnosis(parse_operator(text)) == order

    def test_lead_vanishing_at_the_first_points(self):
        # the square's lead vanishes at x = -1 .. 4, so W(x0) loses rank at
        # x0 = 0 .. 4 and the order shows only further out
        K = Operator([X + 1, (X - 3) * (X - 4), X * (X - 1) * (X - 2)])
        L = symsquare_order2(K)
        assert case_diagnosis(L) == 5 == symprod_general(L, L).order

    def test_no_rational_function_arithmetic(self, monkeypatch):
        L = parse_operator(E_TEXT)

        def forbidden(*args, **kwargs):
            raise AssertionError("case_diagnosis left integer arithmetic")

        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "shift"):
            monkeypatch.setattr(RatFunc, name, forbidden)
        monkeypatch.setattr(DependencyFinder, "feed", forbidden)
        assert case_diagnosis(L) == 5
        # int_coeffs() clears the denominators once per operator and keeps
        # the result; with it computed above, the determinant sweep and the
        # rank read multiply no Poly and do no Fraction arithmetic
        monkeypatch.setattr(Poly, "__mul__", forbidden)
        for name in ("__new__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                     "__floordiv__", "__pow__", "__neg__"):
            monkeypatch.setattr(F, name, forbidden)
        assert case_diagnosis(L) == 5

    def test_number_field_rejected(self):
        K = NumberField(2)
        # S^3 + x + sqrt(2)
        L = Operator([Poly((K.gen, K.one)), Poly(), Poly(), Poly((K.one,))])
        with pytest.raises(ValueError, match="rational coefficients"):
            case_diagnosis(L)

    @given(
        cs=st.lists(
            st.lists(st.integers(-3, 3), min_size=1, max_size=4), min_size=4, max_size=4
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_symmetric_product(self, cs):
        L = Operator([Poly([F(c) for c in cf]) for cf in cs])
        if L.order != 3 or not L.is_normal():
            return
        assert case_diagnosis(L) == symprod_general(L, L).order

    @given(
        cs=st.lists(
            st.lists(st.integers(-3, 3), min_size=1, max_size=2), min_size=3, max_size=3
        ),
        r=st.lists(st.integers(-3, 3), min_size=1, max_size=2),
    )
    @settings(max_examples=10, deadline=None)
    def test_twisted_squares_match_symmetric_product(self, cs, r):
        K = Operator([Poly([F(c) for c in cf]) for cf in cs])
        if K.order != 2 or not K.is_normal() or not any(r):
            return
        L = symprod_first_order(symsquare_order2(K), RF(r))
        if L.order != 3 or not L.is_normal():
            return
        assert case_diagnosis(L) == symprod_general(L, L).order

    @given(L=_case_input())
    @example(L=parse_operator("S^3 - 1"))
    @example(L=parse_operator("S^3 + S^2 + S + 1"))
    @example(L=symprod_first_order(symsquare_order2(parse_operator("S^2 + S + 1")),
                                   RF([1, 1], [0, 1])))
    @example(L=symprod_first_order(symsquare_order2(parse_operator("S^2 - 2S + 2")),
                                   RF([0, 0, 1])))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_full_krylov_rank(self, L):
        # the roots of S^2 + S + 1 have a ratio of order 3, those of
        # S^2 - 2S + 2 one of order 4, so the squares of their squares
        # have order 3 and 4; a twist keeps the order
        assert case_diagnosis(L) == case_reference.case_diagnosis(L)

    @given(L=_case_input(), f=_common_factor())
    @settings(max_examples=40, deadline=None)
    def test_a_common_factor_keeps_the_case(self, L, f):
        # f·L has the lists of L times f, not canonical: each row of C is
        # scaled by a nonzero polynomial, so its rank stays
        fL = Operator([f * p for p in L.poly_coeffs()])
        assert case_diagnosis(fL) == case_diagnosis(L)

    def _calls(self, monkeypatch, L):
        """case_diagnosis(L), the number of blocks C(x0) built for the
        determinant sweep and the rank read, and the shapes ranked."""
        blocks, shapes = [], []
        cross, rank = equivalence._cross_rows, equivalence._int_rank

        def building(*vs):
            blocks.append(vs)
            return cross(*vs)

        def ranking(rows):
            shapes.append((len(rows), len(rows[0])))
            return rank(rows)

        monkeypatch.setattr(equivalence, "_cross_rows", building)
        monkeypatch.setattr(equivalence, "_int_rank", ranking)
        return case_diagnosis(L), len(blocks), shapes

    def test_case_5_tests_every_determinant(self, monkeypatch):
        # det C vanishes at all 12D + 1 points, and the first block ranked,
        # built again, has rank 2, which ends the rank read
        L = symsquare_order2(Operator([P(1, 1), P(-3, 2), P(2)]))
        assert max(p.degree for p in L.canonical().poly_coeffs()) == 4
        assert self._calls(monkeypatch, L) == (5, 49 + 1, [(3, 3)])

    def test_case_6_stops_at_full_rank(self, monkeypatch):
        # the first nonzero determinant ends the sweep, with no rank read
        assert self._calls(monkeypatch, parse_operator(GAUGE_TEXT)) == (6, 1, [])

    def test_rank_read_covers_every_point(self, monkeypatch):
        # the square of the square of S^2 - 2S + 2 has order 4 (see
        # test_matches_the_full_krylov_rank), so rank C = 1 < 2: every
        # point is ranked
        L = symprod_first_order(symsquare_order2(parse_operator("S^2 - 2S + 2")),
                                RF([0, 0, 1]))
        points = 12 * max(len(c) - 1 for c in L.int_coeffs()) + 1
        assert points > 1
        assert self._calls(monkeypatch, L) == (4, 2 * points, [(3, 3)] * points)


class TestTypes:
    def test_gauge_map_validates(self):
        with pytest.raises(ValueError, match="homomorphism"):
            GaugeMap(Operator.tau(), L_CUBIC, L_CUBIC)

    def test_gauge_map_reduces(self):
        G = Operator([P(1), P(0, 1)])
        L2 = transformed_operator(L_CUBIC, G)
        padded = G + Operator.tau() * L_CUBIC
        gm = GaugeMap(padded, L_CUBIC, L2)
        assert gm.G == G

    def test_gauge_map_json(self):
        gm = GaugeMap(Operator.identity(), L_CUBIC, L_CUBIC)
        js = gm.to_json()
        assert js["G"] == "1"
        assert js["source"] == print_operator(L_CUBIC)

    def test_gt_transform_validates_ratio(self):
        gm = GaugeMap(Operator.identity(), L_CUBIC, L_CUBIC)
        with pytest.raises(ValueError, match="nonzero"):
            GTTransform(RF([0]), gm, L_CUBIC)

    def test_gt_transform_validates_source(self):
        gm = GaugeMap(Operator.identity(), L_CUBIC, L_CUBIC)
        with pytest.raises(ValueError, match="twisted"):
            GTTransform(RF([2]), gm, L_CUBIC)

    def test_gt_transform_checks_the_kept_twist(self):
        # gt_find built the twisted base; the transform compares its gauge
        # source with that operator, kept on the base, and a corrupted
        # transform still raises
        M = symprod_first_order(Operator(L_CUBIC.coeffs), RF([1, 1]))
        L2 = transformed_operator(M, Operator([P(1), P(0, 1)]))
        L1 = Operator(L_CUBIC.coeffs)
        t = gt_find(L1, L2)
        assert t is not None and t.G.source is symprod_first_order(L1, t.r)
        with pytest.raises(ValueError, match="twisted"):
            GTTransform(t.r * 2, t.G, L1)
        with pytest.raises(ValueError, match="twisted"):
            GTTransform(t.r, t.G, symprod_first_order(L1, RF(2)))

    def test_gt_transform_json(self):
        t = gt_find(L_CUBIC, L_CUBIC)
        js = t.to_json()
        assert js["r"] == "1" and js["G"] == "1"
        assert js["source"] == js["target"] == print_operator(L_CUBIC)


def _accepts(G: Operator, source: Operator, target: Operator) -> bool:
    try:
        GaugeMap(G, source, target)
    except ValueError:
        return False
    return True


def _check_agrees(G: Operator, source: Operator, target: Operator) -> bool:
    """The integer checks of GaugeMap against the Q(x) oracles: the
    remainder of target*G by source, and gcrd(G, source).  Returns
    whether G is a map."""
    valid = not (target * G) % source
    assert _accepts(G, source, target) == valid
    injective = gcrd(G, source).order == 0
    assert _image_is_full(G, source) == injective
    if valid:
        assert GaugeMap(G, source, target).bijective == injective
    return valid


class TestIntegerCertificates:
    """GaugeMap's remainder check and ``bijective`` run on integer
    polynomials; the Q(x) remainder and gcrd are their oracles."""

    @given(_small_order3(), st.sampled_from(SWEEP_RATIOS), st.sampled_from(SWEEP_GAUGES))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_rational_oracles(self, L, r, gauge):
        M = symprod_first_order(L, r)
        G = parse_operator(gauge) if gauge is not None else Operator.identity()
        assume(gcrd(G, M).order == 0)
        L2 = transformed_operator(M, G)
        assert _check_agrees(G, M, L2)
        # corrupted: plus x (G may be a constant, and G + 1 a map), and
        # the top coefficient times x + 1
        _check_agrees(G + Operator([X]), M, L2)
        top = list(G.coeffs)
        top[-1] = top[-1] * RatFunc(X + 1)
        _check_agrees(Operator(top), M, L2)
        assert _check_agrees(Operator(), M, L2)
        # a source M·1/(x+1) and the map G·1/(x+1) out of it, with the
        # denominators x+1+i
        s = Operator([RF([1], [1, 1])])
        assert _check_agrees(G * s, M * s, L2)
        for gm in hom_space(M, L2):
            assert _check_agrees(gm.G, M, L2)

    @given(st.lists(st.tuples(st.sampled_from([1, 2, -1]), st.integers(0, 2)),
                    min_size=3, max_size=3),
           st.sampled_from(SWEEP_GAUGES))
    @settings(max_examples=30, deadline=None)
    def test_shared_right_factor_is_not_injective(self, factors, gauge):
        # L = A·B·C with first-order factors x·S - c·(x + k): any G with
        # the right factor C kills C's solutions
        ops = [Operator([P(k, 1) * F(-c), P(0, 1)]) for c, k in factors]
        L = ops[0] * ops[1] * ops[2]
        C = ops[2]
        G = parse_operator(gauge) if gauge is not None else Operator.identity()
        for H in (C, Operator([X + 1]) * C, Operator.tau() * C, G * C):
            assert gcrd(H, L).order > 0
            assert not _image_is_full(H, L)
        assert _image_is_full(G, L) == (gcrd(G, L).order == 0)

    def test_kernel_only_map_is_not_bijective(self):
        # the pair of TestHomSpace.test_kernel_only_map
        L1 = parse_operator("S^2 - 3S + 2")
        L2 = parse_operator("S^2 - 5S + 6")
        G = Operator([P(1), P(-1)])
        assert _check_agrees(G, L1, L2)
        assert not GaugeMap(G, L1, L2).bijective

    def test_map_with_a_denominator(self):
        # c_0 = 1/(x(x+1)(x+2)) from x*S - (x+3) to S - 1
        L1, L2 = parse_operator("x*S - (x+3)"), parse_operator("S - 1")
        G = Operator([RF([1], [0, 2, 3, 1])])
        assert _check_agrees(G, L1, L2)
        assert GaugeMap(G, L1, L2).bijective
        assert not _check_agrees(Operator([RF([1], [0, 2, 3])]), L1, L2)

    def test_not_injective_is_rejected(self):
        # 1 - S kills the constants, a solution of S^2 - 3S + 2
        with pytest.raises(ValueError, match="not injective"):
            transformed_operator(parse_operator("S^2 - 3S + 2"), Operator([P(1), P(-1)]))
