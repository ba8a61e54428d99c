from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsolve.equivalence import case_diagnosis, hom_space
from symsolve.fieldext import NumberField, demote
from symsolve.opformat import parse_operator, print_operator
from symsolve.ore import Operator, solution_window
from symsolve.poly import P, Poly
from symsolve.ratfunc import RF, RatFunc

from gcrd_reference import gcrd
from ore_reference import reference_canonical


def small_ops(max_order=2, span=3):
    coeff = st.integers(-span, span)
    return st.lists(
        st.lists(coeff, min_size=1, max_size=2), min_size=1, max_size=max_order + 1
    ).map(lambda rows: Operator([Poly(tuple(map(Fraction, r))) for r in rows]))


@st.composite
def rational_ops(draw, max_order=3):
    """Operators with rational values: random numerators times one factor
    shared by every coefficient, denominators with rational constants,
    either sign of every constant, and sometimes all coefficients written
    over Q(sqrt 3)."""
    frac = st.fractions(min_value=-4, max_value=4, max_denominator=5)

    def poly(size):
        return Poly(draw(st.lists(frac, min_size=1, max_size=size)))

    shared = poly(3) or P(1)
    dens = [P(1), P(Fraction(2, 3)), P(0, 3), P(1, Fraction(1, 2)), P(2, 1, 1)]
    coeffs = [RatFunc(poly(3) * shared, draw(st.sampled_from(dens)))
              for _ in range(draw(st.integers(1, max_order + 1)))]
    if draw(st.booleans()):
        K = NumberField(3)
        coeffs = [RatFunc(c.num.map_coeffs(K.from_rational), c.den) for c in coeffs]
    return Operator(coeffs)


S = Operator.tau()
X = Operator((RF([0, 1]),))


class TestRing:
    def test_commutation_rule(self):
        # S * x = (x+1) * S
        assert S * X == (X + 1) * S

    def test_shift_in_product(self):
        L = (S - 1) * (S - Operator((RF([0, 1]),)))
        # (S - 1)(S - x) = S^2 - (x+2) S + x
        assert L == parse_operator("S^2 - (x+2)S + x")

    @given(small_ops(), small_ops(), small_ops())
    @settings(max_examples=40, deadline=None)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(small_ops(), small_ops(), small_ops())
    @settings(max_examples=40, deadline=None)
    def test_left_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_noncommutative(self):
        assert S * X != X * S

    def test_pow(self):
        assert S**3 == S * S * S
        assert (S - 1) ** 2 == S * S - 2 * S + 1

    def test_zero_and_identity(self):
        Z = Operator()
        assert Z.order == -1 and not Z
        assert S * Z == Z
        assert Operator.identity() * S == S


class TestDivision:
    def test_tau_square_by_tau_minus_one(self):
        q, r = (S * S).right_divmod(S - 1)
        assert q == S + 1
        assert r == Operator.identity()

    @given(small_ops(2), small_ops(1))
    @settings(max_examples=40, deadline=None)
    def test_divmod_roundtrip(self, a, m):
        if not m:
            return
        q, r = a.right_divmod(m)
        assert q * m + r == a
        assert r.order < m.order

    def test_gcrd(self):
        g = gcrd(S * S - 1, S - 1)
        assert g == S - 1
        assert gcrd(S - 1, S + 1).order == 0

    @given(small_ops(1), small_ops(1), small_ops(1))
    @settings(max_examples=30, deadline=None)
    def test_gcrd_right_divides(self, a, b, f):
        if not f:
            return
        g = gcrd(a * f, b * f)
        if not g:
            return
        assert (a * f).right_divmod(g)[1] == Operator()
        assert (b * f).right_divmod(g)[1] == Operator()
        # f is a right factor of both, so of the gcrd
        assert g.right_divmod(f)[1] == Operator()


class TestCompanionAndWindows:
    def test_apply_window_annihilates(self):
        # S - 2 kills 2^n
        L = parse_operator("S - 2")
        vals = [Fraction(2) ** n for n in range(6)]
        assert L.apply_window(vals, 0) == [0] * 5

    def test_apply_window_pole_named(self):
        L = Operator((RF(1, [0, 1]), RF(1)))
        with pytest.raises(ZeroDivisionError, match="x = 0"):
            L.apply_window([Fraction(1)] * 3, -1)

    def test_solution_window(self):
        # Fibonacci: S^2 - S - 1
        L = parse_operator("S^2 - S - 1")
        assert solution_window(L, [0, 1], 0, 10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_solution_window_residuals_vanish(self):
        L = parse_operator("(x+1)S^2 - (3x+2)S + 2x")
        w = solution_window(L, [1, 2], 0, 9)
        assert L.apply_window(w, 0) == [0] * 7


class TestCanonical:
    def test_content_and_sign(self):
        L = Operator([P(0, -2), P(-4)])  # -2x - 4 S ... lead negative
        C = L.canonical()
        assert C.coeff(1) == RF(2)
        assert C.coeff(0) == RF([0, 1])

    def test_clears_denominators(self):
        L = Operator((RF([1, 1], [0, 2]), RF(1)))
        C = L.canonical()
        assert C.coeff(0) == RF([1, 1]) and C.coeff(1) == RF([0, 2])

    @given(small_ops(), st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_scalar_orbit(self, L, a, b):
        if not L:
            return
        assert L.scalar_mul(Fraction(a, b)).canonical() == L.canonical()
        assert L.scalar_mul(RF([a, b])).canonical() == L.canonical()

    def test_denominator_clears_the_coefficients(self):
        # 1/(2x) + 1/(x+1)·S + 3·S^2, with lcm x(x+1) of the denominators
        L = Operator((RF([1], [0, 2]), RF([1], [1, 1]), RF(3)))
        assert L.denominator() == P(0, 1, 1)
        assert L.poly_coeffs() == (P(Fraction(1, 2), Fraction(1, 2)), P(0, 1), P(0, 3, 3))
        assert Operator([P(2), P(0, 1)]).denominator() == P(1)

    def test_no_multiplication_by_one(self, monkeypatch):
        # every denominator is 1 and the content is 1: poly_coeffs keeps
        # the numerators and canonical() keeps them unscaled
        L = Operator([Poly([1, 2]), Poly([0, 3]), Poly([1])])

        def refuse(*args):
            raise AssertionError("Poly.__mul__ called")

        monkeypatch.setattr(Poly, "__mul__", refuse)
        assert L.poly_coeffs() == tuple(c.num for c in L.coeffs)
        assert all(p is c.num for p, c in zip(L.poly_coeffs(), L.coeffs))
        C = L.canonical()
        assert C == L
        assert all(type(c) is Fraction for p in C.poly_coeffs() for c in p.coeffs)

    def test_storage_is_exact(self):
        L = Operator([P(0, 2), P(4)])
        assert L.coeff(1) == RF(4)  # not silently rescaled
        assert L.canonical().coeff(1) == RF(2)

    @given(rational_ops())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_rational_reference(self, L):
        assert L.canonical() == reference_canonical(L)

    @given(rational_ops())
    @settings(max_examples=50, deadline=None)
    def test_int_coeffs_scale_poly_coeffs_by_one_integer(self, L):
        ints = L.int_coeffs()
        polys = [p.map_coeffs(demote) for p in L.poly_coeffs()]
        assert all(type(a) is int for c in ints for a in c)
        assert [bool(c) for c in ints] == [bool(p) for p in polys]
        if L:
            scale = Fraction(ints[-1][-1]) / polys[-1].lead()
            assert scale > 0 and scale.denominator == 1
            assert [Poly(c) for c in ints] == [p * scale for p in polys]

    def test_shared_factor_and_rational_content(self):
        # (x+1)(x-2)·(-3/2·S^2 + x/3·S + 1/(2x))
        h = P(-2, -1, 1)
        L = Operator([RatFunc(h * P(Fraction(1, 2)), P(0, 1)),
                      RatFunc(h * P(0, Fraction(1, 3))), RatFunc(h * P(Fraction(-3, 2)))])
        assert L.canonical() == parse_operator("9*x*S^2 - 2*x^2*S - 3",
                                               require_normal=False)
        assert L.canonical().int_coeffs() == [[-3], [0, 0, -2], [0, 9]]

    def test_irrational_coefficients_rejected(self):
        # S^3 + S + x + sqrt(3): the integer form needs rational values
        K = NumberField(3)
        L = Operator([Poly((K.gen, K.one)), P(1), Poly(), P(1)])
        for read in (Operator.int_coeffs, Operator.canonical, print_operator,
                     case_diagnosis, lambda L: hom_space(L, L)):
            with pytest.raises(ValueError, match="rational coefficients required"):
                read(L)

    def test_rational_values_over_a_number_field(self):
        # decided by value, not by coefficient type
        L = Operator([P(2, 4), P(6)])
        K = NumberField(3)
        LK = Operator([p.map_coeffs(K.from_rational) for p in (P(2, 4), P(6))])
        assert L.canonical().coeff(1) == RF(3)
        assert LK.canonical() == L.canonical()
