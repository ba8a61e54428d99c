import math
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symsolve.fieldext import (
    TRIAL_BOUND,
    NumberField,
    field_of,
    rational_sqrt,
    squarefree_core,
    value_sqrt,
)
from symsolve.poly import P, Poly

from field_reference import poly_xgcd

Q5 = NumberField(5)
Qm2 = NumberField(-2)

coords = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def elems(field):
    return st.tuples(coords, coords).map(lambda ab: field.element(ab))


class TestConstruction:
    @pytest.mark.parametrize("core", [4, 8, -4, 12, -27, 0, 1])
    def test_core_must_be_squarefree_and_proper(self, core):
        with pytest.raises(ValueError, match="squarefree"):
            NumberField(core)

    def test_core_must_be_an_integer(self):
        with pytest.raises(ValueError):
            NumberField(Fraction(2))

    def test_modulus_and_name(self):
        assert Q5.modulus == P(-5, 0, 1) and Q5.name == "sqrt5"
        assert Qm2.modulus == P(2, 0, 1) and Qm2.name == "sqrt_m2"
        assert NumberField(-1) == NumberField(-1) and NumberField(-1).name == "sqrt_m1"
        assert NumberField(2) != NumberField(-2)
        assert repr(NumberField(3)) == "Q[sqrt3]/(sqrt3^2 - 3)"

    def test_one_field_per_core(self):
        # Q(sqrt 8) is Q(sqrt 2): it is built from the core 2 only
        s8 = value_sqrt(Fraction(8))
        assert s8.field == NumberField(2) and s8 == 2 * NumberField(2).gen
        # sqrt 4 is rational: no Q[y]/(y² - 4), whose 2 - y has no inverse
        assert type(value_sqrt(Fraction(4))) is Fraction


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
        Q2, Q3 = NumberField(2), NumberField(3)
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
        assert n == (a * a.conjugate()).as_rational()
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
        # a rational that is no square gets its root in Q(sqrt core)
        e = value_sqrt(Fraction(3, 4))
        assert e.field == NumberField(3) and e == NumberField(3).element([0, Fraction(1, 2)])
        assert e * e == Fraction(3, 4)
        e2 = value_sqrt(Fraction(4))
        assert type(e2) is Fraction and e2 == 2
        assert value_sqrt(5) == Q5.gen

    def test_field_sqrt_rational_value(self):
        assert value_sqrt(Q5.from_rational(9)) == 3
        assert value_sqrt(Q5.from_rational(5)) == Q5.gen
        assert value_sqrt(Q5.from_rational(20)) == Q5.element([0, 2])
        assert value_sqrt(Q5.from_rational(3)) is None

    def test_field_sqrt_irrational_value(self):
        # (1 + sqrt5)^2 = 6 + 2 sqrt5
        v = Q5.element([6, 2])
        s = value_sqrt(v)
        assert s is not None and s * s == v
        # an element that is not a square in Q(sqrt5)
        assert value_sqrt(Q5.element([1, 1])) is None

    @given(elems(Qm2))
    @settings(max_examples=60, deadline=None)
    def test_field_sqrt_of_squares(self, a):
        s = value_sqrt(a * a)
        assert s is not None and s * s == a * a


def _refuse_factoring(monkeypatch):
    import sympy

    def refuse(*args, **kwargs):
        raise AssertionError("factorint called")

    monkeypatch.setattr(sympy, "factorint", refuse)


# a 37-digit product of two primes, slow to factor
SEMIPRIME = (10**18 + 3) * (10**18 + 9)


class TestSquarenessWithoutFactoring:
    def test_rational_sqrt_of_a_large_semiprime(self, monkeypatch):
        _refuse_factoring(monkeypatch)
        assert rational_sqrt(Fraction(SEMIPRIME)) is None
        assert rational_sqrt(Fraction(SEMIPRIME**2, 4)) == Fraction(SEMIPRIME, 2)
        assert rational_sqrt(Fraction(SEMIPRIME, 7)) is None

    def test_value_sqrt_of_a_large_element(self, monkeypatch):
        _refuse_factoring(monkeypatch)
        assert value_sqrt(Q5.element([10**18 + 3, 10**18 + 9])) is None
        assert value_sqrt(Q5.from_rational(SEMIPRIME)) is None
        assert value_sqrt(Q5.from_rational(5 * SEMIPRIME**2)) == Q5.element([0, SEMIPRIME])
        assert value_sqrt(Fraction(SEMIPRIME**2)) == SEMIPRIME

    @given(st.fractions(max_denominator=10**6), st.sampled_from([1, 1, 2, -1, 3, -7]))
    @settings(max_examples=150, deadline=None)
    def test_rational_sqrt_agrees_with_the_core(self, q, core):
        # half the draws are rational squares (core 1), times a core
        for x in (q, q * q * core):
            outside, c = squarefree_core(x)
            assert rational_sqrt(x) == (outside if c == 1 else None)


# primes above TRIAL_BOUND; a radicand with one of them may hide the square
# of another, since the squarefree test stops at the bound
BIG_PRIMES = (1009, 1013, 10007, 10 ** 12 + 39, 10 ** 18 + 3)


class TestRadicands:
    """Q(sqrt m) = Q(sqrt m·P²): radicands m and m·P² with P a prime
    above the trial bound name one field, with no integer factored."""

    @given(st.sampled_from([1, -1, 2, -3, 30]), st.sampled_from(BIG_PRIMES),
           st.sampled_from(BIG_PRIMES), coords, coords)
    @settings(max_examples=60, deadline=None)
    def test_two_radicands_of_one_field(self, small, q, big, u, w):
        with mock.patch.object(sympy, "factorint", None):
            self._check(small * q, big, u, w)

    @staticmethod
    def _check(m, big, u, w):
        mp = m * big * big
        assert squarefree_core(Fraction(mp)) == (1, mp)  # the square stays hidden
        assert squarefree_core(Fraction(4 * mp, 9)) == (Fraction(2, 3), mp)
        A, B = NumberField(m), NumberField(mp)
        assert A == B and B == A and hash(A) == hash(B)
        assert B.gen == big * A.gen and hash(B.gen) == hash(big * A.gen)
        # mixing never raises: the second is written over the first's generator
        a, b = A.element([u, w]), B.element([w, u])
        want = A.element([u + w, w + u * big])  # a + b over sqrt m
        assert a + b == want and b + a == want and hash(a + b) == hash(b + a)
        assert a * b == b * a and hash(a * b) == hash(b * a)
        if b:
            assert (a * b) / b == a
        assert field_of([a, b, A.gen, B.gen]) in (A, B)
        assert A.coerce(B.gen) == big * A.gen and A.coerce(B.gen).field is A
        assert value_sqrt(B.from_rational(m)) == A.gen
        assert {a: 1}.get(B.coerce(a)) == 1

    def test_squares_of_small_primes_are_divided_out(self):
        # with no prime above the bound, m·P² reduces to m: that radicand
        # is its field's only one, and m·P² names no field
        for P_ in BIG_PRIMES:
            assert squarefree_core(Fraction(6 * P_ * P_)) == (P_, 6)
            with pytest.raises(ValueError, match="squarefree"):
                NumberField(6 * P_ * P_)
        assert NumberField(1009 * 1013) != NumberField(1009)
        assert NumberField(-1009) != NumberField(1009)

    def test_below_the_cube_of_the_bound_the_radicand_is_the_core(self):
        # 1, p, p² or p·q is left when the small primes are gone
        p, q = 1009, 1013
        assert p * q < TRIAL_BOUND ** 3
        assert squarefree_core(Fraction(12 * p * q)) == (2, 3 * p * q)
        assert squarefree_core(Fraction(12 * p * p)) == (2 * p, 3)
        assert squarefree_core(Fraction(-5, 7 * p * p)) == (Fraction(1, 7 * p), -35)


class TestValues:
    def test_field_of(self):
        assert field_of([Fraction(1), 2, Q5.from_rational(3), None]) is None
        assert field_of([Fraction(1), Q5.gen, Qm2.from_rational(1)]) == Q5
        assert field_of([Q5.gen, 2 * Q5.gen + 1]) == Q5

    def test_field_of_two_fields_raises(self):
        with pytest.raises(ValueError, match="unsupported extension degree"):
            field_of([Q5.gen, Qm2.gen])

    def test_value_sqrt_of_rationals(self):
        assert value_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert value_sqrt(Fraction(0)) == 0
        s = value_sqrt(Fraction(-8))
        assert s.field == Qm2 and s == Qm2.element([0, 2])

    def test_value_sqrt_stays_in_the_field_of_an_element(self):
        v = Q5.element([6, 2])  # (1 + sqrt5)^2
        s = value_sqrt(v)
        assert s.field == Q5 and s * s == v
        assert value_sqrt(Q5.element([1, 1])) is None
        # a rational value carried by Q(sqrt5) has its root sought there
        assert value_sqrt(Q5.from_rational(20)) == Q5.element([0, 2])
        assert value_sqrt(Q5.from_rational(3)) is None


# -- reference: elements as Fraction coordinate tuples ---------------------------


class _RefElem:
    """An element as a tuple of Fraction coordinates, reduced through
    Fraction rows y^k mod m and inverted through the extended Euclidean
    algorithm: the general representation the quadratic kernel replaced,
    kept to check it."""

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
        d = self.field.modulus.degree
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
        return _RefElem(self.field, [Fraction(s[i]) for i in range(self.field.modulus.degree)])

    def __truediv__(self, o):
        return self * o.inverse()

    def __eq__(self, o):
        return self.coords == o.coords

    def __hash__(self):
        if not any(self.coords[1:]):
            return hash(self.coords[0])
        return hash((self.field.modulus.coeffs, self.coords))


FIELDS = [NumberField(c) for c in (-1, -2, 5, 6, -7, 2, -3, 10, -15, 21)]
SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=6)
LARGE = st.fractions(min_value=-10 ** 30, max_value=10 ** 30, max_denominator=10 ** 25)
# square roots factor the norm, so their coordinates stay moderate
MEDIUM = st.fractions(min_value=-10 ** 4, max_value=10 ** 4, max_denominator=100)


def _coord_lists(coords=SMALL):
    return st.one_of(
        st.lists(coords, min_size=2, max_size=2),
        st.tuples(coords).map(lambda c: [c[0], 0]),  # rational values
    )


def _agrees(new, ref):
    # same value, lowest terms over a positive denominator, same hash
    assert new.coords == ref.coords
    assert new.den > 0 and math.gcd(new.a, new.b, new.den) == 1
    assert new == new.field.element(ref.coords)
    assert hash(new) == hash(ref)


class TestIntegerKernel:
    @given(st.sampled_from(FIELDS), st.sampled_from([SMALL, LARGE]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_operations_agree_with_fraction_coordinates(self, field, coords, data):
        ca = data.draw(_coord_lists(coords))
        cb = data.draw(_coord_lists(coords))
        a, b = field.element(ca), field.element(cb)
        ra, rb = _RefElem(field, ca), _RefElem(field, cb)
        _agrees(a, ra)
        _agrees(a + b, ra + rb)
        _agrees(a - b, ra - rb)
        _agrees(a * b, ra * rb)
        _agrees(a.conjugate(), _RefElem(field, [ra.coords[0], -ra.coords[1]]))
        if any(rb.coords):
            _agrees(a / b, ra / rb)
            _agrees(b.inverse(), rb.inverse())
        assert (a == b) == (ra == rb)
        assert (a * b - b * a).a == (a * b - b * a).b == 0 and (a - a).den == 1
        if not ra.coords[1]:
            assert a == ra.coords[0] and hash(a) == hash(ra.coords[0])

    @given(st.sampled_from([f for f in FIELDS if f.core > 0]), _coord_lists(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_inverse_of_negative_norm(self, field, cs, data):
        # a - b·y with a² < core·b² has a negative norm; the inverse keeps den > 0
        a = field.element(cs)
        assume(a.norm() < 0)
        inv = a.inverse()
        _agrees(inv, _RefElem(field, cs).inverse())
        assert inv * a == 1 and (-a).inverse().den > 0

    def test_negative_norm_example(self):
        Q6 = NumberField(6)
        a = Q6.element([1, 1])  # norm 1 - 6 = -5
        assert a.norm() == -5
        inv = a.inverse()
        assert (inv.a, inv.b, inv.den) == (-1, 1, 5)

    @given(st.sampled_from(FIELDS), st.sampled_from(FIELDS),
           st.lists(SMALL, min_size=2, max_size=2), st.fractions(max_denominator=9))
    @settings(max_examples=80, deadline=None)
    def test_scalars_and_rational_elements_of_other_fields(self, field, other, cs, q):
        a = field.element(cs)
        r = other.from_rational(q)
        _agrees(a * q, _RefElem(field, cs) * _RefElem(field, [q, 0]))
        _agrees(a + r, _RefElem(field, cs) + _RefElem(field, [q, 0]))
        _agrees(r * a, _RefElem(field, cs) * _RefElem(field, [q, 0]))
        _agrees(q - a, _RefElem(field, [q, 0]) - _RefElem(field, cs))
        assert (a * 1).field is field and a + 0 == a
        assert (a == r) == (cs[1] == 0 and cs[0] == q)

    @given(st.sampled_from(FIELDS), st.sampled_from([SMALL, MEDIUM]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_value_sqrt_against_reference_squares(self, field, coords, data):
        cs = data.draw(_coord_lists(coords))
        ref = _RefElem(field, cs)
        sq = ref * ref
        s = value_sqrt(field.element(sq.coords))
        assert s is not None and s.field == field
        _agrees(s * s, sq)
        # an arbitrary element: any root found squares back to it
        v = field.element(data.draw(_coord_lists(coords)))
        root = value_sqrt(v)
        if root is not None:
            rr = _RefElem(field, root.coords)
            _agrees(v, rr * rr)

    @given(st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4))
    @settings(max_examples=80, deadline=None)
    def test_value_sqrt_of_rationals_squares_back(self, q):
        s = value_sqrt(q)
        assert s * s == q
        if isinstance(s, Fraction):
            assert s >= 0
        else:
            _, core = squarefree_core(q)
            assert s.field.core == core and not s.a and s.b > 0
