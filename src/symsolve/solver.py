"""The composed solver.

``solve`` runs the stages in the paper's order: ``case_diagnosis``
splits on the order of the symmetric square, and a case-5 or case-6
input goes on through ``local_data``, ``match_local_data``,
``solve_parameters`` and ``instantiate`` to ``gt_find``, which stops at
the first GT transform found.  Each stage is looked up on its module at
call time, so a wrapper installed there sees the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from . import equivalence, localdata, table as tablemod
from .equivalence import GTTransform
from .localdata import LocalData
from .ore import Operator
from .table import BaseTable, TableEntry

__all__ = ["Result", "solve"]


@dataclass(frozen=True)
class Result:
    """The answer for one input.  ``local_data`` is None outside cases 5
    and 6; ``entry``, ``assignment`` and ``transform`` are None when no
    GT transform was found."""

    case: int
    local_data: Optional[LocalData] = None
    entry: Optional[TableEntry] = None
    assignment: Optional[Dict[str, Fraction]] = None
    transform: Optional[GTTransform] = None


def solve(L: Operator, table: BaseTable) -> Result:
    """The first GT transform from a matching table entry's base operator
    to L, with the data that led to it.  Exceptions of the stages
    propagate."""
    case = equivalence.case_diagnosis(L)
    if case not in (5, 6):  # outside the twist/gauge case split
        return Result(case)
    data = localdata.local_data(L)
    for entry in tablemod.match_local_data(data, table):
        for asn in tablemod.solve_parameters(entry, data):
            M, _ = entry.instantiate(asn)
            t = equivalence.gt_find(M, L)
            if t is not None:
                return Result(case, data, entry, asn, t)
    return Result(case, data)
