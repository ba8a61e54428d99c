from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsolve import snf
from symsolve.factorization import factor_over_Q
from symsolve.poly import P, Poly
from symsolve.ratfunc import RF
from symsolve.snf import (
    canonical_shift,
    product_classes,
    shift_classes,
    shift_quotient_inverse,
)

# the oracles of equivalence's shift reading; their own tests stay here
from shift_reference import (
    dispersion_set,
    nth_root_ratfunc,
    shift_equivalent,
    shift_normal_form,
)


class TestFactorization:
    def test_difference_of_squares(self):
        unit, fs = factor_over_Q(P(-1, 0, 1))
        assert unit == 1
        assert fs == [(P(-1, 1), 1), (P(1, 1), 1)]

    def test_irreducible_quadratic(self):
        unit, fs = factor_over_Q(P(1, 0, 1))
        assert fs == [(P(1, 0, 1), 1)]

    def test_content_and_multiplicity(self):
        unit, fs = factor_over_Q(P(0, 0, 4, 2))  # 2x^2(x? ) -> 2*x^2*(x+2)
        # 2x^3 + 4x^2 = 2 x^2 (x + 2)
        assert unit == 2
        assert fs == [(P(0, 1), 2), (P(2, 1), 1)]

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_reexpansion(self, cs):
        p = Poly(tuple(Fraction(c) for c in cs))
        if not p:
            return
        unit, fs = factor_over_Q(p)
        prod = Poly.const(unit)
        for f, m in fs:
            prod = prod * f**m
        assert prod == p


class TestCanonicalShift:
    def test_half_shift(self):
        f = P(-5, 2)  # 2x - 5, root 5/2
        fhat, k = canonical_shift(f)
        assert fhat == P(1, 2)  # 2x + 1, root -1/2 in (-1, 0]
        assert f == fhat.shift(k)

    def test_already_canonical(self):
        assert canonical_shift(P(0, 1))[0] == P(0, 1)
        assert canonical_shift(P(0, 1))[1] == 0

    @given(st.integers(-4, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, k, deg):
        base = Poly(tuple(Fraction(c) for c in [3, 1, 0, 1][: deg + 1]))
        if base.degree < 1:
            return
        a = canonical_shift(base)[0]
        b = canonical_shift(base.shift(k))[0]
        assert a == b


class TestShiftClasses:
    def test_classes_and_offsets(self):
        # 3·x²·(x+2)·(2x+1)·(2x-3)²: two classes, the second at offsets 0, -2
        p = P(0, 1) ** 2 * P(2, 1) * P(1, 2) * P(-3, 2) ** 2 * 3
        unit, classes = shift_classes(p)
        assert unit == 3
        assert classes == {P(0, 1): {0: 2, 2: 1}, P(1, 2): {0: 1, -2: 2}}

    def test_constant(self):
        assert shift_classes(Poly.const(Fraction(-5, 2))) == (Fraction(-5, 2), {})

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(-3, 3), st.integers(1, 3)),
            max_size=5,
        ),
        st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 4), Fraction(-1, 6)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rebuilds_and_separates(self, picks, c):
        # shifted, repeated and quadratic factors, some classes sharing reps
        pool = [P(0, 1), P(1, 2), P(1, 0, 1), P(-2, 0, 1), P(1, 1, 1)]
        p = Poly.const(c)
        for i, k, m in picks:
            p = p * pool[i].shift(k) ** m
        unit, classes = shift_classes(p)
        rebuilt = Poly.const(unit)
        for rep, offsets in classes.items():
            for k, m in offsets.items():
                rebuilt = rebuilt * rep.shift(k) ** m
        assert rebuilt == p
        reps = list(classes)
        assert all(canonical_shift(rep) == (rep, 0) for rep in reps)
        assert all(shift_equivalent(f, g) is None
                   for i, f in enumerate(reps) for g in reps[i + 1:])


def _refuse(p):
    raise AssertionError(f"factored {p}")


class TestClassesWithoutFactoring:
    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                    max_size=2))
    @settings(max_examples=80, deadline=None)
    def test_degree_at_most_one_matches_factor_over_Q(self, cs):
        # a constant is its unit, a linear p its content times its
        # primitive factor
        p = Poly(cs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snf, "factor_over_Q", _refuse)
            got = shift_classes(p)
        unit, factors = factor_over_Q(p)
        expected = {}
        for f, m in factors:
            rep, k = canonical_shift(f)
            expected[rep] = {k: m}
        assert got == (unit, expected)
        assert all(type(c) is Fraction for rep in got[1] for c in rep.coeffs)

    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3), st.integers(1, 3)),
                 max_size=5),
        st.lists(st.integers(0, 4), max_size=3),
        st.sampled_from([1, -2, 6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_products_match_factoring(self, picks, removed, c):
        # p divides c·prod f(x + s) over the parts; the classes of p are
        # read from the parts' with no factoring
        pool = [P(0, 1), P(1, 2), P(1, 0, 1), P(-2, 0, 1), P(3, 1, 1)]
        parts, p = [], Poly.const(Fraction(c))
        for i, k, m in picks:
            parts += [(shift_classes(pool[i])[1], k)] * m
            p = p * pool[i].shift(k) ** m
        for j in removed:  # cofactors divided out, as canonical() does
            if j < len(picks):
                q = pool[picks[j][0]].shift(picks[j][1])
                if not p.divmod(q)[1]:
                    p = p.exact_div(q)
        ints = [int(a) for a in p.coeffs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snf, "factor_over_Q", _refuse)
            got = product_classes(ints, parts)
        assert got == shift_classes(p)

    def test_missing_factor_trips_the_check(self):
        p = P(0, 1) * P(1, 0, 1).shift(2)
        with pytest.raises(AssertionError, match="nonconstant cofactor"):
            product_classes([int(a) for a in p.coeffs], [(shift_classes(P(0, 1))[1], 0)])

    def test_zero(self):
        assert product_classes([], []) == (0, {})


class TestShiftEquivalence:
    def test_detects_shift(self):
        assert shift_equivalent(P(-3, 1), P(2, 1)) == -5  # x-3 = (x+2) at x -> x-5
        assert shift_equivalent(P(2, 1), P(-3, 1)) == 5
        assert shift_equivalent(P(0, 1), P(0, 1)) == 0

    def test_rejects_non_equivalent(self):
        assert shift_equivalent(P(1, 0, 1), P(0, 0, 1)) is None
        assert shift_equivalent(P(0, 1), P(0, 2)) is None


class TestSNF:
    def test_spec_examples(self):
        assert shift_normal_form(RF([Fraction(-5, 2), 1])) == RF([Fraction(1, 2), 1])
        assert shift_normal_form(RF([-3, 1], [2, 1])) == RF(1)
        assert shift_normal_form(RF([0, 1])) == RF([0, 1])

    def test_constant_preserved(self):
        r = RF([0, 0, 7], 3)  # (7/3) x^2
        assert shift_normal_form(r) == r

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_orbit_invariant(self, j, k):
        r = RF(P(-j, 1), P(k * 2 + 1, 2))
        s = shift_normal_form(r)
        assert shift_normal_form(s) == s
        assert shift_normal_form(RF(P(-j, 1).shift(3), P(k * 2 + 1, 2).shift(3))) == s


class TestDispersion:
    def test_simple(self):
        assert dispersion_set(P(0, 1), P(-3, 1)) == [3]
        assert dispersion_set(P(0, 1), P(0, 1)) == [0]
        assert dispersion_set(P(0, 1) * P(1, 1), P(0, 1)) == [0, 1]

    def test_none(self):
        assert dispersion_set(P(0, 1), P(1, 2)) == []

    def test_agrees_with_resultant_oracle(self):
        import sympy

        x, k = sympy.symbols("x k")
        for pc, qc in [([0, 1, 1], [0, 1]), ([-2, 1], [3, 1]), ([1, 1, 1], [3, 3, 1])]:
            p = sum(c * x**i for i, c in enumerate(pc))
            q = sum(c * (x + k) ** i for i, c in enumerate(qc))
            res = sympy.resultant(p, q, x)
            expected = sorted(
                int(r) for r in sympy.roots(sympy.Poly(res, k), multiple=True)
                if r.is_integer and r >= 0
            )
            got = dispersion_set(Poly(tuple(map(Fraction, pc))), Poly(tuple(map(Fraction, qc))))
            assert got == expected


class TestNthRoot:
    def test_spec_examples(self):
        assert nth_root_ratfunc(RF([0, 0, 1], P(1, 1) ** 2), 2) == RF([0, 1], [1, 1])
        assert nth_root_ratfunc(RF([0, 0, 0, 8]), 3) == RF([0, 2])
        assert nth_root_ratfunc(RF([0, 1]), 2) is None

    def test_negative_constants(self):
        assert nth_root_ratfunc(RF(-8), 3) == RF(-2)
        assert nth_root_ratfunc(RF(-4), 2) is None

    @given(st.integers(1, 3), st.integers(-3, 3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, d, a, c):
        s = RF(P(a, 1) * c, P(1, 0, 2))
        r = s**d
        got = nth_root_ratfunc(r, d)
        assert got is not None
        assert got**d == r


class TestShiftQuotientInverse:
    def test_identity(self):
        assert shift_quotient_inverse(RF(1)) == RF(1)

    def test_polynomial_builds(self):
        # u(x+1)/u(x) = (x+2)/x has u = x(x+1)
        u = shift_quotient_inverse(RF(P(2, 1), P(0, 1)))
        assert u == RF(P(0, 1) * P(1, 1))

    def test_reciprocal(self):
        u = shift_quotient_inverse(RF(P(0, 1), P(1, 1)))
        assert u == RF(1, P(0, 1))

    def test_non_monic_class(self):
        # (2x+1)/(2x-1): the half-integer chain, u = 2x-1
        u = shift_quotient_inverse(RF(P(1, 2), P(-1, 2)))
        assert u == RF(P(-1, 2)) / 2

    def test_geometric_part_has_no_inverse(self):
        assert shift_quotient_inverse(RF(2)) is None
        assert shift_quotient_inverse(RF(P(2, 2), P(0, 1))) is None

    def test_unbalanced_class_has_no_inverse(self):
        assert shift_quotient_inverse(RF(P(1, 1))) is None
        assert shift_quotient_inverse(RF(P(0, 1), P(0, 0, 1))) is None

    @given(st.integers(-3, 3), st.integers(-2, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, a, k, e):
        u = RF(P(Fraction(a), 1) ** e, P(Fraction(a), 1).shift(k))
        r = u.shift(1) / u
        got = shift_quotient_inverse(r)
        assert got is not None
        assert got.shift(1) / got == r

    @given(
        st.lists(
            st.tuples(st.integers(-2, 3), st.integers(-2, 3), st.integers(1, 2)),
            min_size=2,
            max_size=3,
        ),
        st.sampled_from([Fraction(1), Fraction(1), Fraction(2), Fraction(-1, 3)]),
        st.sampled_from([None, None, 0, 1, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_shift_normal_form(self, pairs, c, extra):
        # balanced pairs g(x+j)^e / g(x+k)^e over the classes x, 2x+1 and
        # x^2+1, then possibly a constant and one unbalanced factor
        classes = [P(0, 1), P(1, 2), P(1, 0, 1)]
        r = RF(c)
        for g, (j, k, e) in zip(classes, pairs):
            r = r * RF(g.shift(j) ** e, g.shift(k) ** e)
        if extra is not None:
            r = r * RF(classes[extra].shift(1))
        u = shift_quotient_inverse(r)
        assert (u is not None) == (shift_normal_form(r) == RF(1))
        if u is not None:
            assert u.num.lead() == 1 and u.den.lead() == 1
            assert u.shift(1) / u == r

    def test_number_field_coefficients_rejected(self):
        from symsolve.fieldext import NumberField
        from symsolve.ratfunc import RatFunc

        s = NumberField(2).gen
        with pytest.raises(ValueError, match="rational coefficients required"):
            shift_quotient_inverse(RatFunc(Poly((s, s.field.one)), P(0, 1)))
