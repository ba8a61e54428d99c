"""Order of the symmetric square from the full 6×6 Krylov matrix W,
kept as a test oracle.

This is the rank computation the package carried before it read the
order from the 3×3 cross-term block (``equivalence.case_diagnosis``):
all six rows w_0 .. w_5 at every point x0 = 0 .. 30D, each ranked by
fraction-free elimination.  The two must agree on every order-3 input.
"""

from typing import List

from symsolve.equivalence import _eval_int, _int_rank
from symsolve.ore import Operator


def _square_rows(cs: List[List[int]], x0: int) -> List[List[int]]:
    """Rows w_0 .. w_5 of the symmetric-square Krylov matrix at x = x0.

    ã_k(x0) = M(x0)·M(x0+1)···M(x0+k-1)·e_0, where M = c_3·T is the
    fold of one shift through L with the division by c_3 cleared; w_k
    holds the products ã_k,i·ã_k,j for i <= j.
    """
    prod = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rows = []
    for k in range(6):
        a = [prod[0][0], prod[1][0], prod[2][0]]
        rows.append([a[i] * a[j] for i in range(3) for j in range(i, 3)])
        if k == 5:
            break
        v = x0 + k
        c0, c1, c2, c3 = (_eval_int(c, v) for c in cs)
        # prod·M with M = [[0, 0, -c0], [c3, 0, -c1], [0, c3, -c2]]
        prod = [
            [r[1] * c3, r[2] * c3, -(r[0] * c0 + r[1] * c1 + r[2] * c2)]
            for r in prod
        ]
    return rows


def case_diagnosis(L: Operator) -> int:
    """Rank of W over Q(x): every minor of W has degree <= 30D, so the
    largest rank of W(x0) over x0 = 0 .. 30D is the rank."""
    polys = L.canonical().poly_coeffs()
    cs = [p.int_coeffs() for p in polys]
    bound = 30 * max(p.degree for p in polys)
    best = 0
    for x0 in range(bound + 1):
        best = max(best, _int_rank(_square_rows(cs, x0)))
        if best == 6:
            break
    return best
