"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the package: a function is replaced
on every ``symsolve`` module that holds it as an attribute (that is
where callers look it up), a method on its class under every attribute
name that holds it.  Each call records a span (name, start, end,
parent) in flat in-memory arrays; self time is derived once at the end,
and the spans are written out only when the run finishes.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

#: (span name, "module:attribute" or "module:Class.method")
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("localdata.problem_points", "symsolve.localdata:problem_points"),
    ("localdata.valuation_growth", "symsolve.localdata:valuation_growth"),
    ("localdata.generalized_exponents", "symsolve.localdata:generalized_exponents"),
    ("localdata.gquo", "symsolve.localdata:gquo"),
    ("equivalence.term_candidates", "symsolve.equivalence:term_candidates"),
    ("equivalence.hom_space", "symsolve.equivalence:hom_space"),
    ("linalg.nullspace_rational", "symsolve.linalg:nullspace_rational"),
    ("symprod.symprod_general", "symsolve.symprod:symprod_general"),
    ("linalg.DependencyFinder.feed", "symsolve.linalg:DependencyFinder.feed"),
)
KERNELS: Tuple[Tuple[str, str], ...] = (
    ("poly.Poly.__mul__", "symsolve.poly:Poly.__mul__"),
    ("poly.poly_gcd", "symsolve.poly:poly_gcd"),
    ("fieldext.NFElem.__mul__", "symsolve.fieldext:NFElem.__mul__"),
    ("factorization.factor_over_Q", "symsolve.factorization:factor_over_Q"),
)


def _valuation_growth_probe(stats: Dict[str, float], args) -> None:
    cls = args[1]
    rep = getattr(cls, "representative", cls)
    key = "localdata.valuation_growth.max_class_degree"
    stats[key] = max(stats.get(key, 0), rep.degree)


def _nullspace_probe(stats: Dict[str, float], args) -> None:
    rows = args[0]
    for key, size in (("linalg.nullspace_rational.max_rows", len(rows)),
                      ("linalg.nullspace_rational.max_cols",
                       len(rows[0]) if len(rows) else 0)):
        stats[key] = max(stats.get(key, 0), size)


#: argument sizes recorded at a layer boundary, keyed by span name
PROBES: Dict[str, Callable[[Dict[str, float], tuple], None]] = {
    "localdata.valuation_growth": _valuation_growth_probe,
    "linalg.nullspace_rational": _nullspace_probe,
}


class Tracer:
    """Records nested spans; single-threaded, one open span stack."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stats: Dict[str, float] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(self.stats, args)
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- installing wrappers -----------------------------------------------

    def install(self) -> None:
        for name, where in LAYERS + KERNELS:
            modname, attr = where.split(":")
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(sys.modules[modname], owner_name)
                orig = owner.__dict__[meth]
                wrapped = self._wrap(name, orig)
                for key, val in list(owner.__dict__.items()):
                    if val is orig:
                        self._undo.append((owner, key, val))
                        setattr(owner, key, wrapped)
            else:
                orig = getattr(sys.modules[modname], attr)
                wrapped = self._wrap(name, orig)
                for mname, mod in list(sys.modules.items()):
                    if (mname == "symsolve" or mname.startswith("symsolve.")) \
                            and getattr(mod, attr, None) is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, val = self._undo.pop()
            setattr(owner, key, val)

    # -- analysis -----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds.

        Layers and kernels partition the time separately.  A layer's self
        time excludes only the layer spans nested in it, so the kernels
        it calls count towards it; a kernel's self time excludes the
        kernel spans nested in it.
        """
        if self._stack:
            raise RuntimeError("spans still open")
        n = len(self.start)
        kernel_ids = {self._ids[k] for k, _ in KERNELS if k in self._ids}
        is_kernel = [i in kernel_ids for i in range(len(self.names))]
        name_id, parent = self.name_id, self.parent
        dur = np.frombuffer(self.end, dtype=np.float64, count=n) \
            - np.frombuffer(self.start, dtype=np.float64, count=n)
        child = np.zeros(n)
        for i in range(n):
            group = is_kernel[name_id[i]]
            p = parent[i]
            while p >= 0 and is_kernel[name_id[p]] != group:
                p = parent[p]
            if p >= 0:
                child[p] += dur[i]
        ids = np.frombuffer(name_id, dtype=np.int32, count=n)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                "self_s": float(own[i])}
                for i in range(k)}

    def save(self, path) -> None:
        n = len(self.start)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n))
