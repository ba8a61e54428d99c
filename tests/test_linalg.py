import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from symsolve.linalg import DependencyFinder, nullspace_rational
from symsolve.poly import P, Poly
from symsolve.ratfunc import RF


class TestFirstDependency:
    def test_sum_dependency(self):
        v0 = [RF(1), RF([0, 1])]
        v1 = [RF([0, 1]), RF(1)]
        v2 = [v0[0] + v1[0], v0[1] + v1[1]]
        f = DependencyFinder(2)
        assert [f.feed(v) for v in (v0, v1, v2)] == [None, None, [RF(-1), RF(-1), RF(1)]]

    def test_independent(self):
        f = DependencyFinder(2)
        assert [f.feed(v) for v in ([RF(1), RF(0)], [RF(0), RF(1)])] == [None, None]

    def test_earliest_dependency_wins(self):
        v0 = [RF(1), RF(2)]
        v1 = [RF(2), RF(4)]  # dependent already here
        f = DependencyFinder(2)
        assert f.feed(v0) is None
        assert f.feed(v1) == [RF(-2), RF(1)]

    def test_rational_function_combination(self):
        # v2 = x*v0 + (1/(x+1))*v1 detected with exact coefficients
        v0 = [RF([1, 1]), RF(1)]
        v1 = [RF([0, 1]), RF([2, 1])]
        x = RF([0, 1])
        c = RF(1, [1, 1])
        v2 = [x * v0[0] + c * v1[0], x * v0[1] + c * v1[1]]
        f = DependencyFinder(2)
        assert f.feed(v0) is None and f.feed(v1) is None
        dep = f.feed(v2)
        assert dep is not None
        for a, b, d in zip(v0, v1, v2):
            assert dep[0] * a + dep[1] * b + dep[2] * d == RF(0)
        assert dep[2] == RF(1)

    def test_zero_vector(self):
        assert DependencyFinder(2).feed([RF(0), RF(0)]) == [RF(1)]

    def test_width_mismatch(self):
        f = DependencyFinder(2)
        with pytest.raises(ValueError):
            f.feed([RF(1)])

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_planted_dependency(self, seed):
        rng = random.Random(seed)
        w = rng.randint(2, 4)
        vs = []
        for _ in range(2):
            vs.append([RF(P(rng.randint(-3, 3), rng.randint(-2, 2))) for _ in range(w)])
        a, b = RF([rng.randint(-2, 2), 1]), RF(rng.randint(1, 3))
        planted = [a * p + b * q for p, q in zip(*vs)]
        rows = vs + [planted]
        f = DependencyFinder(w)
        for v in rows:  # the two random vectors may already be dependent
            dep = f.feed(v)
            if dep is not None:
                break
        assert dep is not None
        k = len(dep)
        for col in range(w):
            acc = RF(0)
            for i in range(k):
                acc = acc + dep[i] * rows[i][col]
            assert acc == RF(0)


def _cleared(rows):
    # each row times the lcm of its denominators: integer entries, same nullspace
    out = []
    for r in rows:
        d = math.lcm(*(c.denominator for c in r))
        out.append([int(c * d) for c in r])
    return out


def _sympy_nullity(rows):
    if not rows:
        return 0
    return len(sympy.Matrix([[sympy.Rational(c) for c in r] for r in rows]).nullspace())


class TestModularNullspace:
    def test_simple(self):
        basis = nullspace_rational([[1, 1, 0]])
        assert len(basis) == 2
        for v in basis:
            assert v[0] + v[1] == 0

    def test_full_rank_certified_empty(self):
        assert nullspace_rational([[2, 1], [1, 1]]) == []

    def test_no_rows_rejected(self):
        # [] would claim a trivial nullspace; a zero row keeps the width
        with pytest.raises(ValueError, match="at least one row"):
            nullspace_rational([])
        assert nullspace_rational([[0, 0]]) == [[1, 0], [0, 1]]

    def test_rational_entries(self):
        rows = [[Fraction(1, 3), Fraction(1, 6)], [Fraction(2), Fraction(1)]]
        basis = nullspace_rational(_cleared(rows))
        assert len(basis) == 1
        v = basis[0]
        assert v[0] * Fraction(1, 3) + v[1] * Fraction(1, 6) == 0

    def test_fraction_entries_rejected(self):
        # the kernel works on integers; a rational row is passed cleared
        with pytest.raises(TypeError, match="integer rows"):
            nullspace_rational([[Fraction(1, 3), 1]])

    def test_big_coefficients_reconstruct(self):
        # the basis holds the 87-bit over 50-bit ratio itself, exactly
        big = Fraction(123456789012345678901234567, 987654321098765)
        basis = nullspace_rational(_cleared([[Fraction(1), big]]))
        assert len(basis) == 1
        assert basis[0][0] + big * basis[0][1] == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_matches_sympy_nullity(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(m)
        ]
        basis = nullspace_rational(_cleared(rows))
        assert len(basis) == _sympy_nullity(rows)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy_basis(self, seed):
        # tall matrices of every rank, the zero matrix and full column
        # rank among them, with entries up to 10^40: the same canonical
        # basis as sympy, vector for vector
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        rank = rng.randint(0, n)
        scale = 10 ** rng.choice((0, 5, 20, 40))
        gens = [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(rank)]
        rows = list(gens)
        for _ in range(rng.randint(1, 40 - rank)):
            coeffs = [rng.choice((0, 1, -1, rng.randint(-9, 9))) for _ in gens]
            rows.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)])
        rows.append([0] * n)
        rng.shuffle(rows)
        expected = [[Fraction(int(c.p), int(c.q)) for c in v]
                    for v in sympy.Matrix(rows).nullspace()]
        assert nullspace_rational(rows) == expected
