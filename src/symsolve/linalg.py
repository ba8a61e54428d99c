"""Linear algebra used by the product and equivalence machinery.

Two kits live here: an exact incremental dependency finder over F(x)
(fraction-free rows, used for minimal-order annihilators), and a
modular nullspace solver for large integer systems (row reduce mod
word-sized primes, CRT, rational reconstruction, then verify exactly;
a reconstruction that verifies is a proof, so primes never need trust).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .poly import Poly, poly_gcd, rational_content
from .ratfunc import RatFunc

__all__ = ["DependencyFinder", "nullspace_rational"]


# -- exact dependency search over F(x) ------------------------------------


def _clear_row(vec: Sequence[RatFunc]) -> Tuple[List[Poly], Poly]:
    den = Poly.const(Fraction(1))
    for c in vec:
        if c:
            den = den * c.den.exact_div(poly_gcd(den, c.den))
    return [c.num * den.exact_div(c.den) if c else Poly() for c in vec], den


def _strip_row(main: List[Poly], aug: List[Poly]) -> None:
    entries = [p for p in main + aug if p]
    if not entries:
        return
    g = Poly()
    for p in entries:
        g = poly_gcd(g, p)
        if g.degree == 0:
            break
    rational = all(p.is_rational() for p in entries)
    if g.degree > 0:
        for row in (main, aug):
            for i, p in enumerate(row):
                if p:
                    row[i] = p.exact_div(g)
    if rational:
        c = rational_content(p.content() for p in main + aug)
        if c != 1:
            inv = 1 / c
            for row in (main, aug):
                for i, p in enumerate(row):
                    if p:
                        row[i] = p * inv


class DependencyFinder:
    """Feed vectors over F(x) one at a time; reports the first linear
    dependency as monic coefficients (last coefficient 1)."""

    def __init__(self, width: int):
        self.width = width
        self.count = 0
        self.dens: List[Poly] = []  # per-row denominator-clearing factors
        # rows: (pivot column, main part, multiplier part)
        self.rows: List[Tuple[int, List[Poly], List[Poly]]] = []

    def feed(self, vec: Sequence[RatFunc]) -> Optional[List[RatFunc]]:
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        main, den = _clear_row(vec)
        self.dens.append(den)
        aug = [Poly()] * self.count + [Poly.const(Fraction(1))]
        self.count += 1
        for piv, bmain, baug in self.rows:
            if not main[piv]:
                continue
            f, g = bmain[piv], main[piv]
            main = [f * a - g * b for a, b in zip(main, bmain)]
            baug = baug + [Poly()] * (len(aug) - len(baug))
            aug = [f * a - g * b for a, b in zip(aug, baug)]
            _strip_row(main, aug)
        piv = next((i for i, p in enumerate(main) if p), None)
        if piv is None:
            # aug applies to the cleared rows; undo the clearing factors
            coeffs = [RatFunc(c * d) for c, d in zip(aug, self.dens)]
            lead = coeffs[-1]
            return [c / lead for c in coeffs]
        self.rows.append((piv, main, aug))
        self.rows.sort(key=lambda r: r[0])
        return None


# -- modular nullspaces for rational matrices -------------------------------

_PRIMES: List[int] = []
_MAX_PRIMES = 40  # primes tried before nullspace_rational gives up


def _prime(i: int) -> int:
    from sympy import prevprime

    # descending from 2^29 keeps intermediate products inside int64
    while len(_PRIMES) <= i:
        p = _PRIMES[-1] if _PRIMES else (1 << 29)
        _PRIMES.append(int(prevprime(p)))
    return _PRIMES[i]


def _rref_mod_p(A: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    A = A % p
    m, n = A.shape
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, col])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            A[[r, k]] = A[[k, r]]
        inv = pow(int(A[r, col]), p - 2, p)
        A[r] = (A[r] * inv) % p
        other = np.nonzero(A[:, col])[0]
        other = other[other != r]
        if other.size:
            A[other] = (A[other] - np.outer(A[other, col], A[r])) % p
        pivots.append(col)
        r += 1
    return A, pivots


def _nullspace_mod_p(A: np.ndarray, p: int) -> Tuple[List[int], np.ndarray]:
    """Pivot columns and a nullspace basis (one row per free column,
    unit at the free column, solved values at the pivot columns)."""
    R, pivots = _rref_mod_p(A, p)
    n = A.shape[1]
    free = [j for j in range(n) if j not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for bi, j in enumerate(free):
        basis[bi, j] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = (-int(R[ri, j])) % p
    return pivots, basis


def _crt(r1: int, m1: int, r2: int, m2: int) -> Tuple[int, int]:
    s = pow(m1, -1, m2)
    t = ((r2 - r1) * s) % m2
    return r1 + m1 * t, m1 * m2


def _rat_recon(r: int, m: int) -> Optional[Fraction]:
    """Wang reconstruction: n/d = r mod m with |n|, d <= sqrt(m/2)."""
    bound = math.isqrt(m // 2)
    a0, a1 = m, r % m
    b0, b1 = 0, 1
    while a1 > bound:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    if abs(b1) > bound or b1 == 0:
        return None
    if math.gcd(a1, b1) != 1:
        return None
    return Fraction(a1, b1) if b1 > 0 else Fraction(-a1, -b1)


def nullspace_rational(rows: Sequence[Sequence[int]]) -> List[List[Fraction]]:
    """Exact rational nullspace basis of an integer matrix (list of rows).

    A rational matrix is passed with each row's denominators cleared,
    which leaves its nullspace unchanged.  Solves modulo word-sized
    primes and reconstructs; the result is verified against the exact
    matrix, so a returned basis is certified.  An empty list certifies a
    trivial nullspace (full column rank seen mod a prime bounds the rank
    from below).
    """
    if not rows:
        return []
    if not all(isinstance(c, int) for r in rows for c in r):
        # a Fraction would be truncated on its way into int64
        raise TypeError("nullspace_rational takes integer rows")
    n = len(rows[0])
    best: Optional[Tuple[int, List[int]]] = None  # (rank, pivots)
    residues: Optional[np.ndarray] = None
    modulus = 1
    for pi in range(_MAX_PRIMES):
        p = _prime(pi)
        A = np.array([[c % p for c in r] for r in rows], dtype=np.int64)
        pivots, basis = _nullspace_mod_p(A, p)
        rank = len(pivots)
        if best is None or rank > best[0]:
            best = (rank, pivots)
            residues, modulus = basis.astype(object), p
            if rank == n:
                return []
        elif rank == best[0] and pivots == best[1]:
            if basis.shape != residues.shape:
                continue
            combined = np.empty_like(residues)
            for i in range(residues.shape[0]):
                for j in range(n):
                    combined[i, j] = _crt(
                        int(residues[i, j]), modulus, int(basis[i, j]), p
                    )[0]
            residues, modulus = combined, modulus * p
        else:
            continue
        cand = _reconstruct(residues, modulus)
        if cand is not None and _verify_null(rows, cand):
            return cand
    raise ArithmeticError("modular nullspace did not stabilize")


def _reconstruct(residues: np.ndarray, modulus: int) -> Optional[List[List[Fraction]]]:
    out = []
    for row in residues:
        vec = []
        for r in row:
            q = _rat_recon(int(r), modulus)
            if q is None:
                return None
            vec.append(q)
        out.append(vec)
    return out


def _verify_null(rows: Sequence[Sequence[int]], basis: List[List[Fraction]]) -> bool:
    for vec in basis:
        den = math.lcm(*(c.denominator for c in vec))
        ivec = [int(c * den) for c in vec]
        for row in rows:
            if sum(a * b for a, b in zip(row, ivec)):
                return False
    return True
