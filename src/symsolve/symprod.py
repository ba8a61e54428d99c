"""Symmetric products of difference operators.

The symmetric product M ⊛ N is the minimal-order monic operator whose
solution space contains every product u·v with M(u) = N(v) = 0.  The
first-order twist and the order-2 square have closed formulas; the
general case reduces shifts of u·v in the ord(M)·ord(N)-dimensional
product-coordinate space and takes the first linear dependency.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .linalg import DependencyFinder
from .ore import Operator
from .poly import Poly, _list_mul, _list_shift
from .ratfunc import RatFunc

__all__ = ["symprod_first_order", "symsquare_order2", "symprod_general"]


def symprod_first_order(L: Operator, r: RatFunc) -> Operator:
    """L ⊛ (τ - r): twist by the first-order solution with ratio r.

    b_i = a_i · prod_{j=i}^{d-1} r(x+j); the order is preserved.  It is
    formed over Z as A_i·prod_{j>=i} n(x+j)·prod_{j<i} m(x+j), j < d, for
    A and (n, m) the integer forms of L and of num(r) + den(r)·S.
    The result is kept on L per r, so a ``GTTransform`` checks its gauge
    source against the operator ``gt_find`` built, not a recomputation.
    """
    if not r:
        raise ValueError("twist ratio must be nonzero")
    d = L.order
    if d < 0:
        raise ValueError("zero operator")
    M = L._twists.get(r)
    if M is None:
        n, m = Operator((r.num, r.den)).int_coeffs()
        out = L.int_coeffs()
        for j in range(d):
            nj, mj = _list_shift(n, j), _list_shift(m, j)
            out = [_list_mul(a, nj if i <= j else mj) for i, a in enumerate(out)]
        M = L._twists[r] = Operator([Poly(c) for c in out]).canonical()
    return M


def symsquare_order2(K: Operator, D: Fraction = Fraction(1)) -> Operator:
    """Symmetric square of a2·S^2 + p·sqrt(D)·S + a0, given K = a2·S^2 + p·S + a0.

    Order 3 when p·sqrt(D) != 0 (solutions u^2, uv, v^2), order 2 when the
    middle coefficient vanishes (every pairwise product satisfies the
    same two-term recurrence).

    The middle coefficient may carry sqrt(D) (half-argument Gauss family,
    D = 1-z).  Each formula is odd in it, so one common sqrt(D) divides
    out, only D enters and the result stays rational.  D = 1 is the
    square of K itself.
    """
    if K.order != 2:
        raise ValueError("order-2 operator required")
    if not K.is_normal():
        raise ValueError("normal operator required (a_0 != 0)")
    a0, p, a2 = K.coeff(0), K.coeff(1), K.coeff(2)
    if not p or not D:
        return Operator((-(a0 * a0), RatFunc(Poly(), reduce=False), a2 * a2)).canonical()
    a0s, ps, a2s = a0.shift(1), p.shift(1), a2.shift(1)
    b3 = p * a2s * a2s * a2
    b2 = ps * a2 * (a0s * a2 - D * ps * p)
    b1 = a0s * p * (D * ps * p - a0s * a2)
    b0 = -(ps * a0s * a0 * a0)
    return Operator((b0, b1, b2, b3)).canonical()


def _shift_reduce_step(vec: List[RatFunc], L: Operator) -> List[RatFunc]:
    # tau * (sum c_i tau^i u)  with tau^d u folded back through L
    d = L.order
    lead = L.leading()
    shifted = [c.shift(1) for c in vec]
    top = shifted[d - 1]
    out = [RatFunc(Poly(), reduce=False)] + shifted[: d - 1]
    if top:
        for i in range(d):
            ci = L.coeff(i)
            if ci:
                out[i] = out[i] - top * (ci / lead)
    return out


def symprod_general(M: Operator, N: Operator) -> Operator:
    """Minimal-order monic annihilator of all products of solutions.

    tau^k(u·v) has coordinates alpha_k ⊗ beta_k in the basis
    tau^i(u)·tau^j(v); the first dependency among k = 0, 1, ... gives
    the coefficients directly, and minimality is by construction.
    """
    if not M.is_normal() or not N.is_normal():
        raise ValueError("normal operators required")
    m, n = M.order, N.order
    if m == 0 or n == 0:
        raise ValueError("positive order required")
    zero = RatFunc(Poly(), reduce=False)
    one = RatFunc(Poly.const(Fraction(1)), reduce=False)
    alpha = [one] + [zero] * (m - 1)
    beta = [one] + [zero] * (n - 1)
    finder = DependencyFinder(m * n)
    for _ in range(m * n + 1):
        prod = [a * b for a in alpha for b in beta]
        dep = finder.feed(prod)
        if dep is not None:
            return Operator(dep)
        alpha = _shift_reduce_step(alpha, M)
        beta = _shift_reduce_step(beta, N)
    raise AssertionError("no dependency within the product-space dimension")
