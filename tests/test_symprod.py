import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace_reference import interlace
from ore_reference import reference_canonical
from test_ore import rational_ops
from symsolve import poly, ratfunc, snf, symprod
from symsolve.equivalence import term_candidates
from symsolve.fieldext import NumberField
from symsolve.opformat import parse_operator
from symsolve.ore import Operator, solution_window
from symsolve.poly import P
from symsolve.ratfunc import RF, RatFunc
from symsolve.snf import shift_classes
from symsolve.symprod import (
    TermRatio,
    symprod_first_order,
    symprod_general,
    symsquare_order2,
)

# desk-sized order-3 operator whose square drops to order 5
E_TEXT = (
    "(x+1)S^3 + (-4x^4-28x^3-73x^2-84x-36)S^2"
    " + (-4x^5-28x^4-77x^3-104x^2-69x-18)S + (x^4+5x^3+8x^2+4x)"
)


def _random_full_order2(rng) -> Operator:
    # constant terms >= 1 keep every coefficient nonzero
    return Operator([P(rng.randint(1, 4), rng.randint(0, 2)) for _ in range(3)])


def _product_oracle(S: Operator, K: Operator, M: Operator, rng, points=15):
    """apply(S, u*v) == 0 for random solutions u of K, v of M."""
    S = S.canonical()
    u = solution_window(K, [Fraction(rng.randint(1, 5)) for _ in range(K.order)], 1, points)
    v = solution_window(M, [Fraction(rng.randint(1, 5), 2) for _ in range(M.order)], 1, points)
    w = [a * b for a, b in zip(u, v)]
    return all(r == 0 for r in S.apply_window(w, 1))


def _ratfunc_twist(L: Operator, r: RatFunc) -> Operator:
    """b_i = a_i · prod_{j=i}^{d-1} r(x+j) over Q(x), in the rational
    canonical form."""
    d = L.order
    out = [L.coeff(d)]
    tail = RF(1)
    for i in range(d - 1, -1, -1):
        tail = tail * r.shift(i)
        out.append(L.coeff(i) * tail)
    out.reverse()
    return reference_canonical(Operator(out))


# ratios with a rational constant, which clearing n and m apart would drop
RATIOS = [RF([0, Fraction(2, 3)]), RF(Fraction(-1, 2)), RF([1, 1], [3, 2]),
          RF([Fraction(5, 4), 0, 1], [0, Fraction(-7, 3)])]


class TestFirstOrder:
    @given(L=rational_ops(), r=st.sampled_from(RATIOS))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_ratfunc_formula(self, L, r):
        if L:
            assert symprod_first_order(L, r) == _ratfunc_twist(L, r)

    def test_two_first_order(self):
        # (S - a) (x) (S - b) = S - a*b
        a, b = RF([1, 1]), RF([0, 2])
        got = symprod_first_order(Operator([-a.num, P(1)]), b)
        assert got.canonical() == Operator([-(a * b).num * 2, P(2)]).canonical()

    def test_formed_without_gcd_or_ratfunc_product(self, monkeypatch):
        # the twist and canonical() work on the kept integer form
        L, r = parse_operator(E_TEXT), RF([1, 1], [3, 2])
        L2 = Operator([c * P(1, 1) for c in (P(2), P(0, -4), P(6, 0, 1))])

        def refuse(*args):
            raise AssertionError("gcd or RatFunc product")

        for owner in (poly, ratfunc):
            monkeypatch.setattr(owner, "poly_gcd", refuse)
        monkeypatch.setattr(RatFunc, "__mul__", refuse)
        assert symprod_first_order(L, r).order == 3
        assert L2.canonical() == Operator([P(2), P(0, -4), P(6, 0, 1)])

    def test_identity_twist(self):
        L = parse_operator("(x+1)S^2 - (3x+2)S + 2x")
        assert symprod_first_order(L, RF(1)) == L.canonical()

    def test_order2_twist_by_x(self):
        L = parse_operator("S^2 - (2x+2)S + x + 1")
        got = symprod_first_order(L, RF([0, 1]))
        exp = Operator([P(1, 1) * P(0, 1) * P(1, 1), P(-2, -2) * P(1, 1), P(1)])
        assert got.canonical() == exp.canonical()

    def test_zero_twist_rejected(self):
        with pytest.raises(ValueError):
            symprod_first_order(parse_operator("S - 1"), RF(0))

    def test_sequence_oracle(self):
        rng = random.Random(7)
        L = parse_operator("(x+2)S^2 - (3x+2)S + x + 1")
        r = RF([1, 1], [2, 1])
        S = symprod_first_order(L, r)
        u = solution_window(L, [1, 2], 1, 12)
        # v(x+1) = r(x) v(x)
        v = [Fraction(1)]
        for n in range(1, 12):
            v.append(v[-1] * r.eval(n))
        w = [a * b for a, b in zip(u, v)]
        assert all(c == 0 for c in S.canonical().apply_window(w, 1))


class TestSymsquareOrder2:
    def test_missing_middle_branch(self):
        K = Operator([P(0, 0, -1), P(), P(1, 1)])  # (x+1)S^2 - x^2
        got = symsquare_order2(K)
        exp = Operator([P(0, 0, 0, 0, -1), P(), P(1, 2, 1)])
        assert got.canonical() == exp.canonical()
        assert got.order == 2

    def test_full_branch_order3(self):
        B = parse_operator("S^2 - (2x+2)S + x + 1")
        assert symsquare_order2(B).order == 3

    def test_order_check(self):
        with pytest.raises(ValueError):
            symsquare_order2(parse_operator("S - 1"))

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_sequence_oracle_u2_uv_v2(self, seed):
        rng = random.Random(seed)
        K = _random_full_order2(rng)
        S = symsquare_order2(K).canonical()
        u = solution_window(K, [1, Fraction(rng.randint(1, 9), 2)], 1, 15)
        v = solution_window(K, [Fraction(rng.randint(1, 9), 3), 2], 1, 15)
        for w in ([a * a for a in u], [a * b for a, b in zip(u, v)], [b * b for b in v]):
            assert all(r == 0 for r in S.apply_window(w, 1))


class TestSqrtMiddle:
    """symsquare_order2(K, D) squares a2·S^2 + p·sqrt(D)·S + a0."""

    @pytest.mark.parametrize("core", [3, -1, 5])
    @pytest.mark.parametrize("a0, p, a2", [
        (P(Fraction(1, 2), 1), P(-2, Fraction(3, 4)), P(3, 1)),
        (P(-3), P(1, 1, 1), P(Fraction(2, 5))),
    ])
    def test_agrees_with_general_product_over_quadratic_field(self, core, a0, p, a2):
        s = NumberField(core).gen
        K_D = Operator([a0, p * s, a2])
        ref = symprod_general(K_D, K_D).canonical()
        got = symsquare_order2(Operator([a0, p, a2]), Fraction(core))
        assert got.order == 3
        assert got == ref

    def test_rational_root(self):
        K = parse_operator("(x+1)S^2 - (2x+3)S + x")
        K2 = parse_operator("(x+1)S^2 - (6x+9)S + x")
        assert symsquare_order2(K, Fraction(9)) == symsquare_order2(K2)

    def test_zero_radicand_drops_the_middle(self):
        K = parse_operator("(x+1)S^2 - (2x+3)S + x")
        K0 = parse_operator("(x+1)S^2 + x")
        assert symsquare_order2(K, Fraction(0)) == symsquare_order2(K0)


def _ends_are_seeded(M: Operator) -> bool:
    """The classes M keeps for a_0 and a_d, composed when it was built,
    equal those of factoring, unit and mapping."""
    return all(i in M._classes and M._classes[i] == shift_classes(M.poly_coeffs()[i])
               for i in (0, M.order))


_small = st.integers(-4, 4)
# constant, linear or quadratic, either sign, nonzero
_coeff = st.lists(_small, min_size=1, max_size=3).filter(lambda cs: cs[-1] != 0).map(
    lambda cs: P(*cs))


@st.composite
def order2_roots(draw):
    """(K, D): K = a2·S^2 + p·S + a0 with a0, a2 nonzero and p sometimes
    zero, times a left scalar that canonical() divides out."""
    a0, a2 = draw(_coeff), draw(_coeff)
    p = draw(st.one_of(st.just(P()), _coeff))
    scalar = draw(st.sampled_from([P(1), P(-2), P(3, 2), P(-1, 0, 3), P(2, 1, 1)]))
    D = draw(st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(-5, 3)]))
    return Operator([scalar * a0, scalar * p, scalar * a2]), D


@st.composite
def twist_ratios(draw, K: Operator):
    """A constant, a quotient of small polynomials, one sharing factors
    with the ends of K's square, or a shift quotient m(x+1)/m(x)."""
    a0, _, a2 = K.poly_coeffs()
    lin = draw(_coeff)
    kind = draw(st.sampled_from(("constant", "quotient", "shared", "shift")))
    if kind == "constant":
        return RF(draw(st.sampled_from([Fraction(2), Fraction(-1, 3), Fraction(5, 4)])))
    if kind == "quotient":
        return RatFunc(lin, draw(_coeff))
    if kind == "shared":
        return RatFunc(a0.shift(1) * lin, a2)
    m = a2 * lin
    return RatFunc(m.shift(1), m)


class TestSeededEndClasses:
    """The square and the twist keep the shift classes of their end
    coefficients, composed from their inputs' and peeled off by exact
    division, so that gt_find factors neither."""

    @given(st.data(), order2_roots())
    @settings(max_examples=120, deadline=None)
    def test_square_and_twists_match_factoring(self, data, root):
        K, D = root
        M = symsquare_order2(K, D)
        assert _ends_are_seeded(M)
        N = symprod_first_order(M, data.draw(twist_ratios(K)))
        assert _ends_are_seeded(N)
        assert _ends_are_seeded(symprod_first_order(N, data.draw(twist_ratios(K))))

    @given(rational_ops(), st.sampled_from(RATIOS))
    @settings(max_examples=60, deadline=None)
    def test_twist_of_a_factored_operator(self, L, r):
        if L:
            assert _ends_are_seeded(symprod_first_order(L, r))

    def test_gcd_and_content_divided_out(self):
        # (2x+3)·K: canonical() divides the square by a nonconstant gcd
        K = Operator([P(1, 1) * P(3, 2), P(-3, 2) * P(3, 2), P(2, 0, 1) * P(3, 2)])
        for D in (Fraction(1), Fraction(3, 4)):
            M = symsquare_order2(K, D)
            assert M == symsquare_order2(Operator([P(1, 1), P(-3, 2), P(2, 0, 1)]), D)
            assert _ends_are_seeded(M)

    @given(st.data(), order2_roots())
    @settings(max_examples=60, deadline=None)
    def test_term_ratios_bring_their_classes(self, data, root):
        # term_candidates reads r's classes off the ends' classes; the
        # twist by that r factors neither num(r) nor den(r) and keeps the
        # same end classes as the twist by the plain quotient
        K, D = root
        M = symsquare_order2(K, D)
        N = symprod_first_order(M, data.draw(twist_ratios(K)))
        for r in term_candidates(M, N):
            assert isinstance(r, TermRatio)
            with mock.patch.object(symprod, "shift_classes", None):
                T = symprod_first_order(Operator(M.coeffs), r)
            plain = symprod_first_order(Operator(M.coeffs), RatFunc(r.num, r.den))
            assert T == plain and T._classes == plain._classes
            assert _ends_are_seeded(T)

    def test_corrupted_candidates_trip_the_check(self, monkeypatch):
        # a candidate class dropped leaves a nonconstant cofactor
        real = snf.compose_classes

        def drop_first(parts):
            counts = real(parts)
            counts.pop(next(iter(counts)))
            return counts

        monkeypatch.setattr(snf, "compose_classes", drop_first)
        with pytest.raises(AssertionError, match="nonconstant cofactor"):
            symsquare_order2(Operator([P(1, 1), P(-3, 2), P(2, 0, 1)]))


class TestGeneral:
    def test_agrees_with_first_order(self):
        got = symprod_general(parse_operator("S - x"), parse_operator("S - x"))
        assert got.canonical() == parse_operator("S - x^2", require_normal=False).canonical()

    def test_order5_example(self):
        E = parse_operator(E_TEXT)
        assert symprod_general(E, E).order == 5

    @given(st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_cross_validates_closed_formula(self, seed):
        rng = random.Random(seed)
        K = _random_full_order2(rng)
        assert symprod_general(K, K).canonical() == symsquare_order2(K).canonical()

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_definition_oracle(self, seed):
        rng = random.Random(seed)
        K = _random_full_order2(rng)
        M = _random_full_order2(rng)
        S = symprod_general(K, M)
        assert S.leading() == RF(1)  # monic
        assert _product_oracle(S, K, M, rng)

    def test_generic_order2_square_has_order3(self):
        rng = random.Random(3)
        for _ in range(5)[:5]:
            K = _random_full_order2(rng)
            assert symprod_general(K, K).order == 3

    def test_requires_normal(self):
        with pytest.raises(ValueError):
            symprod_general(parse_operator("S^2 - S", require_normal=False),
                            parse_operator("S - 1"))


class TestInterlace:
    def test_examples(self):
        got = interlace(parse_operator("S - x"), 2)
        assert got.canonical() == parse_operator("2S^2 - x", require_normal=False)
        L = parse_operator("S^2 - (2x+2)S + x + 1")
        assert interlace(L, 1) is L

    def test_even_section_oracle(self):
        L = parse_operator("(x+1)S^2 - (3x+2)S + 2x + 2")
        u = solution_window(L, [1, 3], 0, 10)
        I2 = interlace(L, 2)
        # residual at even n uses only even points, where w(2k) = u(k)
        for n in range(0, 12, 2):
            acc = Fraction(0)
            for i in range(0, I2.order + 1, 2):
                c = I2.coeff(i)
                if c:
                    acc += c.eval(n) * u[(n + i) // 2]
            assert acc == 0

    def test_half_integer_coefficients_exact(self):
        got = interlace(parse_operator("S - (2x+1)"), 2)
        assert got.coeff(0) == RF([-1, -1])  # -(2(x/2)+1) = -(x+1)

