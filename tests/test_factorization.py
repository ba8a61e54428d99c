from fractions import Fraction as F
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from symsolve.factorization import ExtensionDegreeError, factor_over_Q, roots
from symsolve.fieldext import NFElem, NumberField, demote, field_of
from symsolve.localdata import local_data
from symsolve.opformat import parse_operator
from symsolve.poly import P, Poly, poly_gcd

import factor_reference

X = P(0, 1)
Q2 = NumberField(2)
Qm3 = NumberField(-3)
Qm2 = NumberField(-2)


def over(field, *coeffs):
    """Polynomial with ascending coefficients in the given field."""
    return Poly(tuple(field.coerce(c) for c in coeffs))


# factors with non-integral coefficients and negative leads; their
# products repeat factors and share none of them
FACTOR_POOL = (P(0, 1), P(-3, 2), P(F(1, 3), F(-1, 2)), P(1, 0, 1),
               P(1, F(-1, 2), -3), P(-2, 0, 0, 1), P(F(5, 7), F(2, 3), F(-4, 9), 1))


def _sympy_factor_list(p: Poly):
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    unit, factors = sympy.factor_list(sympy.Poly(coeffs, x, domain="QQ"))
    got = [(Poly([F(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]), m)
           for f, m in factors]
    return F(int(unit.p), int(unit.q)), sorted(got, key=lambda fm: (fm[0].degree, fm[0].coeffs))


class TestFactorOverQ:
    """Integer-list factoring against sympy's own rational factor_list."""

    @given(st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool),
           st.lists(st.tuples(st.integers(0, len(FACTOR_POOL) - 1), st.integers(1, 3)),
                    max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, unit, picks):
        p = Poly.const(unit)
        for i, m in picks:
            p = p * FACTOR_POOL[i] ** m
        got = factor_over_Q(p)
        assert got == (_sympy_factor_list(p) if picks else (unit, []))
        prod = Poly.const(got[0])
        for f, m in got[1]:
            assert f.lead() > 0 and f.content() == 1
            prod = prod * f ** m
        assert prod == p

    def test_repeated_factor_and_negative_lead(self):
        p = P(F(-1, 2), 0, F(1, 3)) ** 2 * P(3, -6)  # (x^2/3 - 1/2)^2 (3 - 6x)
        unit, factors = factor_over_Q(p)
        assert unit == F(-3, 36)
        assert factors == [(P(-1, 2), 1), (P(-3, 0, 2), 2)]
        assert (unit, factors) == _sympy_factor_list(p)

    def test_constants(self):
        assert factor_over_Q(Poly.const(F(-5, 3))) == (F(-5, 3), [])
        assert factor_over_Q(Poly()) == (F(0), [])


class TestRationalCoefficients:
    def test_rational_roots_with_multiplicity(self):
        p = (X - P(1)) ** 2 * P(1, 2) * P(7)
        got = roots(p)
        assert dict(got) == {F(1): 2, F(-1, 2): 1}
        assert all(isinstance(r, F) for r, _ in got)

    def test_quadratic_factors_in_their_own_fields(self):
        p = X * (X * X - P(2)) * P(1, 1, 1) ** 2
        got = roots(p)
        assert len(got) == 5
        for r, m in got:
            assert not p.eval(r)
        fields = {field_of([r]): m for r, m in got}
        assert fields == {None: 1, Q2: 1, Qm3: 2}
        assert {r for r, _ in got if field_of([r]) == Q2} == {Q2.gen, -Q2.gen}
        w = Qm3.element([F(-1, 2), F(1, 2)])  # a primitive cube root of 1
        assert {r for r, _ in got if field_of([r]) == Qm3} == {w, w * w}

    def test_irreducible_cubic_unsupported(self):
        with pytest.raises(ValueError, match="unsupported extension degree"):
            roots(P(-1, -1, 0, 1))

    def test_zero_polynomial(self):
        with pytest.raises(ValueError):
            roots(Poly())


class TestBaseField:
    def test_coefficients_in_the_base(self):
        s = Q2.gen
        p = over(Q2, -s, 1) * over(Q2, 3, 1)  # (x - sqrt2)(x + 3)
        got = roots(p, Q2)
        assert dict(got) == {s: 1, F(-3): 1}
        assert {type(r) for r, _ in got} == {F, type(s)}  # -3 comes back demoted

    def test_multiplicity_over_the_base(self):
        s = Q2.gen
        p = (X * X - P(2)) * over(Q2, -s, 1)  # (x - sqrt2)^2 (x + sqrt2)
        assert dict(roots(p, Q2)) == {s: 2, -s: 1}

    def test_roots_from_the_norm_factors(self):
        # x^2 - (3 + 2 sqrt2) = (x - 1 - sqrt2)(x + 1 + sqrt2)
        u = Q2.element([1, 1])
        assert dict(roots(over(Q2, -(u * u), 0, 1), Q2)) == {u: 1, -u: 1}

    def test_rational_polynomial_in_the_base(self):
        assert dict(roots(X * X - P(8), Q2)) == {Q2.element([0, 2]): 1,
                                                 Q2.element([0, -2]): 1}
        assert dict(roots(X * X - P(9), Q2)) == {F(3): 1, F(-3): 1}

    def test_root_outside_the_base_unsupported(self):
        with pytest.raises(ValueError, match="unsupported extension degree"):
            roots(X * X - P(3), Q2)
        with pytest.raises(ValueError, match="unsupported extension degree"):
            roots(over(Q2, -Q2.gen, 0, 1), Q2)  # x^2 - sqrt2


def _linear_roots_by_factoring(p: Poly, base=None):
    """The root of a linear p through the factors over Q, or over the
    base through the gcds with the factors of the norm p·conj(p)."""
    p = p.map_coeffs(demote)
    if p.is_rational():
        factors = [f for f, _ in factor_over_Q(p)[1]]
    else:
        pf = p.map_coeffs(base.coerce)
        nrm = pf * pf.map_coeffs(NFElem.conjugate)
        factors = [poly_gcd(pf, f.map_coeffs(base.coerce))
                   for f, _ in factor_over_Q(nrm.map_coeffs(demote))[1]]
        factors = [g for g in factors if g.degree >= 1]
    return [(demote(-f[0] / f[1]), 1) for f in factors]


small = st.fractions(min_value=-20, max_value=20, max_denominator=9)
nonzero = small.filter(bool)


class TestLinear:
    """A linear polynomial gives its root with no factoring; the root,
    its type and its multiplicity are those of the factoring path."""

    @given(nonzero, small)
    @settings(max_examples=60, deadline=None)
    def test_over_Q(self, a, b):
        p = P(b, a)
        got = roots(p)
        assert got == _linear_roots_by_factoring(p)
        assert [type(r) for r, _ in got] == [F]

    @given(st.tuples(small, small).filter(any), st.tuples(small, small))
    @settings(max_examples=60, deadline=None)
    def test_over_a_quadratic_field(self, a, b):
        p = Poly((Qm2.element(list(b)), Qm2.element(list(a))))
        got, want = roots(p, Qm2), _linear_roots_by_factoring(p, Qm2)
        assert got == want
        assert [type(r) for r, _ in got] == [type(r) for r, _ in want]

    def test_rational_root_of_irrational_coefficients(self):
        s = Qm2.gen
        assert roots(Poly((2 * s, -s)), Qm2) == [(F(2), 1)]

    def test_no_factoring(self, monkeypatch):
        def refuse(p):
            raise AssertionError("factored a linear polynomial")

        monkeypatch.setattr("symsolve.factorization.factor_over_Q", refuse)
        assert roots(P(3, 2)) == [(F(-3, 2), 1)]
        assert roots(Poly((Qm2.gen, F(1))), Qm2) == [(-Qm2.gen, 1)]


def test_cubic_edge_at_infinity_unsupported():
    # (x - 1)*S^3 + 2*S^2 - (x - 3)*S - 3*x has an edge of length 3 at
    # infinity whose characteristic polynomial is an irreducible cubic;
    # local_data turns the error into a rejection naming the factor
    edge = P(-3, -1, 0, 1)
    with pytest.raises(ExtensionDegreeError, match="unsupported extension degree") as err:
        roots(edge)
    assert err.value.factor == edge
    L = parse_operator("(x - 1)*S^3 + 2*S^2 - (x - 3)*S - 3*x")
    assert "T^3 - T - 3" in local_data(L).rejection


# -- the rational-root lift against the sympy oracle ----------------------------

# irreducible quartics, the last one irreducible over Q but split modulo
# every prime, and a product of two irreducible quadratics: a squarefree
# part with one of them left after its rational roots reaches Zassenhaus
QUARTICS = (P(1, 0, 0, 0, 1), P(1, 1, 0, 0, 1), P(1, 0, -10, 0, 1),
            P(1, 0, 1) * P(2, 2, 1))
DIGITS30 = st.integers(-10 ** 30, 10 ** 30)
SMALL_Q = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def factor_products(draw):
    """unit·∏ f_i(x + s_i)^{m_i}: f_i of degree 0-5 with rational or
    30-digit coefficients and a lead of either sign, or an irreducible
    quartic."""
    p = Poly.const(draw(SMALL_Q.filter(bool)))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 4)) == 0:
            f = draw(st.sampled_from(QUARTICS))
        else:
            coeffs = draw(st.sampled_from([SMALL_Q, DIGITS30]))
            cs = draw(st.lists(coeffs, min_size=1, max_size=6))
            f = Poly(cs[:-1] + [draw(coeffs.filter(bool))])
        f = f.shift(draw(st.integers(-3, 3))) * draw(st.sampled_from([1, -1, F(-2, 3)]))
        p = p * f ** draw(st.integers(1, 3))
    return p


class TestAgainstTheSympyOracle:
    @given(factor_products())
    @settings(max_examples=150, deadline=None)
    def test_equal_units_and_factors(self, p):
        assert factor_over_Q(p) == factor_reference.factor_over_Q(p)

    def test_quartic_cofactors_take_the_fallback(self, monkeypatch):
        calls = []
        real = sympy.polys.factortools.dup_factor_list

        def recording(f, K):
            calls.append(len(f) - 1)
            return real(f, K)

        products = [q * P(-3, 2) ** 2 for q in QUARTICS]
        want = [factor_reference.factor_over_Q(p) for p in products]
        monkeypatch.setattr(sympy.polys.factortools, "dup_factor_list", recording)
        assert [factor_over_Q(p) for p in products] == want
        assert calls == [4, 4, 4, 4]

    @given(st.lists(st.tuples(SMALL_Q | DIGITS30.map(F), st.integers(1, 3)), max_size=5),
           st.sampled_from([None, P(1, 0, 1), P(-2, 0, 0, 1), P(7, 3, 0, 5), P(F(1, 3), 0, -1)]),
           st.integers(1, 3), DIGITS30.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_no_sympy_below_degree_four(self, roots_, other, m, unit):
        # rational roots and at most one irreducible quadratic or cubic:
        # every cofactor has degree <= 3
        p = Poly.const(F(unit))
        for r, k in roots_:
            p = p * P(-r, 1) ** k
        if other is not None:
            p = p * other ** m
        want = factor_reference.factor_over_Q(p)

        def refuse(*args):
            raise AssertionError("Zassenhaus on a cofactor of degree <= 3")

        with mock.patch.object(sympy.polys.factortools, "dup_factor_list", refuse):
            assert factor_over_Q(p) == want

    def test_cubic_and_quadratic_cofactors_without_sympy(self, monkeypatch):
        p = P(1, 0, 1) ** 2 * P(-2, 0, 0, 1) * P(-1, 3) ** 2 * X * P(10 ** 30 + 7, -3)
        want = (F(-1), [(P(-10 ** 30 - 7, 3), 1), (P(-1, 3), 2), (X, 1),
                        (P(1, 0, 1), 2), (P(-2, 0, 0, 1), 1)])
        assert factor_reference.factor_over_Q(p) == want
        monkeypatch.setattr(sympy.polys.factortools, "dup_factor_list", None)
        assert factor_over_Q(p) == want


class TestNormBranch:
    """roots over a base Q(sqrt 5) with coefficients in it: the factors of
    the norm p·conj(p) over Q, and their gcds with p."""

    Q5 = NumberField(5)

    def test_irrational_roots_take_the_quartic_fallback(self, monkeypatch):
        # the norm is (x² - 5)((x - 1)² - 5), a quartic with no rational root
        s = self.Q5.gen
        p = over(self.Q5, -s, 1) * over(self.Q5, -1 - s, 1)
        calls = []
        real = sympy.polys.factortools.dup_factor_list

        def recording(f, K):
            calls.append(len(f) - 1)
            return real(f, K)

        monkeypatch.setattr(sympy.polys.factortools, "dup_factor_list", recording)
        assert roots(p, self.Q5) == [(s, 1), (1 + s, 1)]
        assert calls == [4]

    def test_rational_roots_take_the_lift(self, monkeypatch):
        # sqrt5·(x - 1)²(x - 2) has norm -5(x - 1)⁴(x - 2)²
        s = self.Q5.gen
        p = over(self.Q5, 2 * s, -3 * s, s) * over(self.Q5, -1, 1)

        def refuse(*args):
            raise AssertionError("Zassenhaus on a norm with rational roots")

        monkeypatch.setattr(sympy.polys.factortools, "dup_factor_list", refuse)
        got = roots(p, self.Q5)
        assert got == [(F(2), 1), (F(1), 2)]
        assert all(type(r) is F for r, _ in got)
