import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsolve.fieldext import (
    NumberField,
    field_of,
    field_sqrt,
    rational_sqrt,
    sqrt_as_field_element,
    squarefree_core,
    value_sqrt,
)
from symsolve.poly import P, Poly, poly_xgcd

Q5 = NumberField.quadratic(5)
Qm2 = NumberField.quadratic(-2)

coords = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def elems(field):
    return st.tuples(coords, coords).map(lambda ab: field.element(ab))


class TestFieldAxioms:
    @given(elems(Q5), elems(Q5), elems(Q5))
    @settings(max_examples=80, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a

    @given(elems(Q5))
    @settings(max_examples=80, deadline=None)
    def test_inverse(self, a):
        if not a:
            return
        assert a * a.inverse() == 1
        assert (1 / a) * a == Q5.one

    def test_generator_squares_to_core(self):
        assert Q5.gen * Q5.gen == 5
        assert Qm2.gen * Qm2.gen == -2

    def test_mixed_scalar_arithmetic(self):
        a = Q5.element([1, 2])
        assert a + Fraction(1, 2) == Q5.element([Fraction(3, 2), 2])
        assert 2 * a == Q5.element([2, 4])
        assert (1 / Q5.gen) * Q5.gen == 1

    def test_cross_field_mixing_rejected(self):
        with pytest.raises(TypeError):
            Q5.gen + Qm2.gen

    def test_rational_values_mix_across_fields(self):
        Q2, Q3 = NumberField.quadratic(2), NumberField.quadratic(3)
        assert Q2.from_rational(1) == Q3.from_rational(1)
        assert Q2.from_rational(1) != Q3.from_rational(2)
        assert Q2.gen != Q3.gen
        assert Q2.from_rational(2) + Q3.gen == Q3.element([2, 1])
        assert Q3.gen - Q2.from_rational(2) == Q3.element([-2, 1])
        assert Q2.from_rational(2) * Q3.gen == Q3.element([0, 2])
        assert Q2.from_rational(6) / Q3.gen == Q3.element([0, 2])
        assert Q3.coerce(Q2.from_rational(5)) == Q3.from_rational(5)
        with pytest.raises(ValueError):
            Q3.coerce(Q2.gen)


class TestConjugation:
    @given(elems(Q5), elems(Q5))
    @settings(max_examples=40, deadline=None)
    def test_conjugate_is_automorphism(self, a, b):
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a

    @given(elems(Q5))
    @settings(max_examples=40, deadline=None)
    def test_norm_is_rational(self, a):
        n = a.norm()
        assert isinstance(n, Fraction)
        if a:
            assert n != 0 or not a  # nonzero elements have nonzero norm

    def test_rational_elements(self):
        e = Q5.from_rational(Fraction(3, 7))
        assert e.is_rational() and e.as_rational() == Fraction(3, 7)
        assert e == Fraction(3, 7)
        assert hash(e) == hash(Fraction(3, 7))


class TestSquareRoots:
    def test_squarefree_core(self):
        assert squarefree_core(Fraction(12)) == (Fraction(2), 3)
        assert squarefree_core(Fraction(-8)) == (Fraction(2), -2)
        assert squarefree_core(Fraction(9, 4)) == (Fraction(3, 2), 1)
        assert squarefree_core(Fraction(0)) == (Fraction(0), 1)
        assert squarefree_core(Fraction(3, 4)) == (Fraction(1, 2), 3)

    @given(st.fractions(min_value=-50, max_value=50, max_denominator=12))
    @settings(max_examples=80, deadline=None)
    def test_core_reconstructs(self, q):
        out, core = squarefree_core(q)
        assert out * out * core == q

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(9, 16)) == Fraction(3, 4)
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(-4)) is None

    def test_sqrt_as_field_element(self):
        f, e = sqrt_as_field_element(Fraction(3, 4))
        assert f is not None and e * e == Fraction(3, 4)
        f2, e2 = sqrt_as_field_element(Fraction(4))
        assert f2 is None and e2 == 2

    def test_field_sqrt_rational_value(self):
        assert field_sqrt(Fraction(9), Q5) == 3
        assert field_sqrt(Fraction(5), Q5) == Q5.gen
        assert field_sqrt(Fraction(20), Q5) == Q5.element([0, 2])
        assert field_sqrt(Fraction(3), Q5) is None

    def test_field_sqrt_irrational_value(self):
        # (1 + sqrt5)^2 = 6 + 2 sqrt5
        v = Q5.element([6, 2])
        s = field_sqrt(v, Q5)
        assert s is not None and s * s == v
        # an element that is not a square in Q(sqrt5)
        assert field_sqrt(Q5.element([1, 1]), Q5) is None

    @given(elems(Qm2))
    @settings(max_examples=60, deadline=None)
    def test_field_sqrt_of_squares(self, a):
        s = field_sqrt(a * a, Qm2)
        assert s is not None and s * s == a * a


class TestModulusReduction:
    def test_nontrivial_modulus(self):
        # y^2 - y - 1 (golden ratio field)
        K = NumberField(P(-1, -1, 1), name="phi")
        phi = K.gen
        assert phi * phi == phi + 1
        assert (phi**5) == 5 * phi + 3  # Fibonacci
        conj = phi.conjugate()
        assert phi + conj == 1 and phi * conj == -1


class TestValues:
    def test_field_of(self):
        assert field_of([Fraction(1), 2, Q5.from_rational(3), None]) is None
        assert field_of([Fraction(1), Q5.gen, Qm2.from_rational(1)]) == Q5
        assert field_of([Q5.gen, 2 * Q5.gen + 1]) == Q5

    def test_field_of_two_fields_raises(self):
        with pytest.raises(ValueError, match="unsupported extension degree"):
            field_of([Q5.gen, Qm2.gen])

    def test_value_sqrt_of_rationals(self):
        assert value_sqrt(Fraction(9, 4)) == (Fraction(3, 2), None)
        assert value_sqrt(Fraction(0)) == (Fraction(0), None)
        s, fld = value_sqrt(Fraction(-8))
        assert fld == Qm2 and s == Qm2.element([0, 2])

    def test_value_sqrt_stays_in_the_field_of_an_element(self):
        v = Q5.element([6, 2])  # (1 + sqrt5)^2
        s, fld = value_sqrt(v)
        assert fld == Q5 and s * s == v
        assert value_sqrt(Q5.element([1, 1])) is None
        # a rational value carried by Q(sqrt5) has its root sought there
        assert value_sqrt(Q5.from_rational(20)) == (Q5.element([0, 2]), Q5)
        assert value_sqrt(Q5.from_rational(3)) is None


# -- reference: elements as Fraction coordinate tuples ---------------------------


class _RefElem:
    """An element as a tuple of Fraction coordinates, reduced through
    Fraction rows y^k mod m: the representation the integer kernel
    replaced, kept to check it."""

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)

    @staticmethod
    def red_rows(field):
        m = field.modulus
        d = m.degree
        red = []
        cur = P(*[-Fraction(c) for c in m.coeffs[:-1]])  # y^d
        for _ in range(d - 1):
            red.append(tuple(cur[i] for i in range(d)))
            cur = Poly((0,) + cur.coeffs)  # * y
            top = cur[d]
            cur = Poly(tuple(cur[i] for i in range(d)))
            if top:
                cur = cur + Poly(tuple(-top * Fraction(c) for c in m.coeffs[:-1]))
        return red

    def __add__(self, o):
        return _RefElem(self.field, [a + b for a, b in zip(self.coords, o.coords)])

    def __sub__(self, o):
        return _RefElem(self.field, [a - b for a, b in zip(self.coords, o.coords)])

    def __mul__(self, o):
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(self.coords):
            for j, y in enumerate(o.coords):
                prod[i + j] += x * y
        out = prod[:d]
        for k, row in enumerate(self.red_rows(self.field)):
            for i in range(d):
                out[i] += prod[d + k] * row[i]
        return _RefElem(self.field, out)

    def inverse(self):
        g, s, _ = poly_xgcd(Poly(self.coords), self.field.modulus)
        return _RefElem(self.field, [Fraction(s[i]) for i in range(self.field.degree)])

    def __truediv__(self, o):
        return self * o.inverse()

    def __eq__(self, o):
        return self.coords == o.coords

    def __hash__(self):
        if not any(self.coords[1:]):
            return hash(self.coords[0])
        return hash((self.field.modulus.coeffs, self.coords))


# 2y^3 + 3y^2 - 3y + 3 is irreducible (Eisenstein at 3); its monic form
# y^3 + 3/2 y^2 - 3/2 y + 3/2 reduces through rows over the denominator 4
CUBIC = NumberField(P(3, -3, 3, 2), name="t")
SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _coord_lists(field):
    d = field.degree
    return st.one_of(
        st.lists(SMALL, min_size=d, max_size=d),
        st.tuples(SMALL).map(lambda c: [c[0]] + [0] * (d - 1)),  # rational values
    )


def _agrees(new, ref):
    # same value, lowest terms over a positive denominator, same hash
    assert new.coords == ref.coords
    assert new.den > 0 and math.gcd(new.den, *new.nums) == 1
    assert new == new.field.element(ref.coords)
    assert hash(new) == hash(ref)


class TestIntegerKernel:
    def test_cubic_reduction_rows_are_integral_over_one_denominator(self):
        assert CUBIC._red_den == 4
        t = CUBIC.gen
        assert t * t * t == CUBIC.element([Fraction(-3, 2), Fraction(3, 2), Fraction(-3, 2)])

    @given(st.sampled_from([Q5, Qm2, NumberField(P(-1, -1, 1)), CUBIC]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_operations_agree_with_fraction_coordinates(self, field, data):
        ca = data.draw(_coord_lists(field))
        cb = data.draw(_coord_lists(field))
        a, b = field.element(ca), field.element(cb)
        ra, rb = _RefElem(field, ca), _RefElem(field, cb)
        _agrees(a, ra)
        _agrees(a + b, ra + rb)
        _agrees(a - b, ra - rb)
        _agrees(a * b, ra * rb)
        if rb.coords != (0,) * field.degree:
            _agrees(a / b, ra / rb)
        assert (a == b) == (ra == rb)
        assert (a * b - b * a).nums == (0,) * field.degree and (a - a).den == 1
        if ra.coords[1:] == (0,) * (field.degree - 1):
            assert a == ra.coords[0] and hash(a) == hash(ra.coords[0])

    @given(st.lists(SMALL, min_size=2, max_size=2), st.fractions(max_denominator=9))
    @settings(max_examples=60, deadline=None)
    def test_scalars_and_rational_elements_of_other_fields(self, cs, q):
        a = Q5.element(cs)
        r = Qm2.from_rational(q)
        _agrees(a * q, _RefElem(Q5, cs) * _RefElem(Q5, [q, 0]))
        _agrees(a + r, _RefElem(Q5, cs) + _RefElem(Q5, [q, 0]))
        _agrees(q - a, _RefElem(Q5, [q, 0]) - _RefElem(Q5, cs))
        assert (a * 1).field is Q5 and a + 0 == a
