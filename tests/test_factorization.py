from fractions import Fraction as F

import pytest

from symsolve.factorization import ExtensionDegreeError, roots
from symsolve.fieldext import NumberField, field_of
from symsolve.localdata import local_data
from symsolve.opformat import parse_operator
from symsolve.poly import P, Poly

X = P(0, 1)
Q2 = NumberField.quadratic(2)
Qm3 = NumberField.quadratic(-3)


def over(field, *coeffs):
    """Polynomial with ascending coefficients in the given field."""
    return Poly(tuple(field.coerce(c) for c in coeffs))


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
