"""The solve pipeline composed from the public stages, and its oracle.

``solve`` runs case_diagnosis -> local_data -> match_local_data ->
solve_parameters -> instantiate -> gt_find and stops at the first
transform found.  Every stage function is looked up on its module at
call time, so wrappers installed by the traced run are seen, and each
stage call is timed from outside.
"""

from __future__ import annotations

import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from symsolve import equivalence, localdata, table as tablemod
from symsolve.equivalence import GTTransform
from symsolve.ore import Operator
from symsolve.symprod import symprod_first_order

STAGES = ("case_diagnosis", "local_data", "match_local_data",
          "solve_parameters", "instantiate", "gt_find")


@dataclass
class Answer:
    entry: Optional[str] = None
    assignment: Optional[dict] = None
    transform: Optional[GTTransform] = None
    error: Optional[str] = None           # exception type, if one escaped


@dataclass
class StageLog:
    """What the stages did over a set of solves, timed from outside."""

    seconds: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    gt_find_calls: int = 0
    gt_find_useful: int = 0
    assignments: int = 0
    warnings: int = 0


class _Stages:
    def __init__(self, log: StageLog, tracer):
        self.log, self.tracer = log, tracer

    def __call__(self, stage: str, fn, *args):
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args)
            return self.tracer.call("stage." + stage, fn, *args)
        finally:
            self.log.seconds[stage] += time.perf_counter() - t0


def solve(L: Operator, table, log: StageLog, tracer=None) -> Answer:
    stage = _Stages(log, tracer)
    case = stage("case_diagnosis", equivalence.case_diagnosis, L)
    if case not in (5, 6):  # outside the twist/gauge case split
        return Answer()
    data = stage("local_data", localdata.local_data, L)
    for entry in stage("match_local_data", tablemod.match_local_data, data, table):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assignments = stage("solve_parameters", tablemod.solve_parameters,
                                entry, data)
        log.warnings += len(caught)
        log.assignments += len(assignments)
        for asn in assignments:
            M, _ = stage("instantiate", entry.instantiate, asn)
            t = stage("gt_find", equivalence.gt_find, M, L)
            log.gt_find_calls += 1
            if t is not None:
                log.gt_find_useful += 1
                return Answer(entry.name, asn, t)
    return Answer()


def run_case(L: Operator, table, log: StageLog, tracer=None) -> Answer:
    """solve() with any exception turned into a failed answer."""
    try:
        return solve(L, table, log, tracer)
    except Exception as exc:  # every escaped exception is a recorded failure
        return Answer(error=type(exc).__name__)


def check(case, answer: Answer, table) -> Optional[str]:
    """None when the answer is correct, else the reason it is not.

    A found answer must carry a certificate that holds exactly: the
    target is the input, the gauge satisfies the remainder identity and
    is bijective, and it starts at the instantiated base operator
    twisted by the found ratio.  Any table entry is accepted.
    """
    if answer.error is not None:
        return f"exception {answer.error}"
    t = answer.transform
    if t is None:
        return "planted operator not found" if case.expect_found else None
    if t.target != case.L:
        return "certificate target is not the input"
    if (t.target * t.G.G) % t.G.source:
        return "gauge fails the remainder identity"
    if not t.G.bijective:
        return "gauge is not bijective"
    M, _ = table.entry(answer.entry).instantiate(answer.assignment)
    if t.source != M or t.G.source.canonical() != symprod_first_order(M, t.r):
        return "gauge source is not the twisted base operator"
    return None


def is_wrong(case, answer: Answer, failure: Optional[str]) -> bool:
    """Whether a failure is a wrong output: a certificate that does not
    hold, or no closed form for a planted operator.  An exception on an
    input with no planted closed form is a failure to answer, counted in
    ``failed``, but it states nothing false."""
    return failure is not None and (case.expect_found or answer.error is None)


def fresh(L: Operator) -> Operator:
    """A copy without the memoized canonical form, so every pass does
    the same work."""
    return Operator(L.coeffs)


def solve_all(cases: List, table, tracer=None):
    """One closed-loop pass: (per-case seconds, answers, stage log)."""
    log = StageLog()
    times, answers = [], []
    for case in cases:
        L = fresh(case.L)
        root = tracer.open("solve") if tracer is not None else None
        t0 = time.perf_counter()
        answers.append(run_case(L, table, log, tracer))
        times.append(time.perf_counter() - t0)
        if root is not None:
            tracer.close(root)
    return times, answers, log
