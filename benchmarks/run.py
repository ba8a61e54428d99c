"""Solve benchmark: one order-3 operator in, a certified closed form or
"not found" out.

    python3 benchmarks/run.py --workload gauge --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 measures the end-to-end metrics with no wrappers installed:
the set-up time of fresh interpreters, then whole closed-loop passes
over the corpus, at least two and then as many as fit in --seconds
counted from the start, reported as medians over passes, and the peak
memory of this process.

--trace 1 makes one untraced pass (stage times, and the reference for
the tracing overhead) and two traced passes of the same corpus, whatever
--seconds says; the corpora are sized so that this takes no longer
than a --trace 0 run.  Layer metrics come from the traced passes, whose
call counts must agree exactly.  The spans are written to
benchmarks/out/.

An exception is a failure; so is a certificate that does not hold or a
planted operator left unanswered, and only these make the run
incorrect.  An exception on an input with no planted closed form is
counted in ``failed`` and ``ok_frac`` but states nothing false.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("twist", "gauge", "reject")
SETUP_REPEATS = 9
MIN_PASSES = 2
SETUP_CODE = "import symsolve; from symsolve.table import load_table; load_table()"

#: the layer each workload is expected to spend most self time in
PREDICTED = {
    "twist": ("equivalence.hom_space",),
    "gauge": ("localdata.valuation_growth",),
    "reject": ("symprod.symprod_general", "linalg.DependencyFinder.feed"),
}
#: layer metrics reported from the traced passes: (span, field)
LAYER_METRICS = (
    ("localdata.valuation_growth", "calls"),
    ("localdata.valuation_growth", "self_s"),
    ("localdata.generalized_exponents", "calls"),
    ("localdata.generalized_exponents", "self_s"),
    ("localdata.problem_points", "self_s"),
    ("localdata.gquo", "self_s"),
    ("equivalence.term_candidates", "self_s"),
    ("equivalence.hom_space", "calls"),
    ("equivalence.hom_space", "self_s"),
    ("linalg.nullspace_rational", "calls"),
    ("linalg.nullspace_rational", "self_s"),
    ("symprod.symprod_general", "self_s"),
    ("linalg.DependencyFinder.feed", "calls"),
    ("linalg.DependencyFinder.feed", "self_s"),
    ("poly.Poly.__mul__", "calls"),
    ("poly.Poly.__mul__", "self_s"),
    ("poly.poly_gcd", "calls"),
    ("poly.poly_gcd", "self_s"),
    ("fieldext.NFElem.__mul__", "calls"),
    ("fieldext.NFElem.__mul__", "self_s"),
    ("factorization.factor_over_Q", "calls"),
    ("factorization.factor_over_Q", "self_s"),
)
SIZE_METRICS = (
    ("localdata.valuation_growth.max_class_degree", "degree"),
    ("linalg.nullspace_rational.max_rows", "rows"),
    ("linalg.nullspace_rational.max_cols", "cols"),
)


def _import_package():
    if not (SRC / "symsolve" / "__init__.py").is_file():
        sys.exit(f"benchmark: no symsolve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symsolve

    if Path(symsolve.__file__).resolve().parent != SRC / "symsolve":
        sys.exit(f"benchmark: imported symsolve from {symsolve.__file__}, "
                 f"not from {SRC}")


def measure_setup() -> float:
    """Median wall time of fresh interpreters importing the package and
    loading the table (no self-validation)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _failures(cases, answers, table):
    """(failure reason or None per case, number of wrong answers)."""
    from pipeline import check, is_wrong

    failures = [check(c, a, table) for c, a in zip(cases, answers)]
    wrong = sum(is_wrong(c, a, f) for c, a, f in zip(cases, answers, failures))
    return failures, wrong


def _report_cases(cases, times, answers, failures):
    for i, (c, t, a, f) in enumerate(zip(cases, times, answers, failures)):
        m = c.meta()
        got = a.entry if a.transform is not None else (a.error or "not found")
        print(f"  case {i:2d} {m['kind']:<13} {m['family'] or '-':<12} "
              f"r={m['r'] or '-':<12} G={m['G'] or '-':<8} deg={m['degrees']} "
              f"{t:8.3f} s -> {got}{'' if f is None else '  FAILED: ' + f}")
    reasons = Counter(f for f in failures if f is not None)
    print(f"  failures: {dict(reasons) or 'none'}")


def run_end_to_end(cases, table, seconds, start):
    from pipeline import solve_all

    passes, attempted, failed, wrong, first = [], 0, 0, 0, None
    while True:
        times, answers, _ = solve_all(cases, table)
        failures, n_wrong = _failures(cases, answers, table)
        passes.append((sum(times), max(times)))
        attempted += len(cases)
        failed += sum(f is not None for f in failures)
        wrong += n_wrong
        if first is None:
            first = (times, answers, failures)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and \
                elapsed + statistics.median(p[0] for p in passes) > seconds:
            break
    _report_cases(cases, *first)
    print(f"  passes: {len(passes)}, corpus seconds: "
          f"{', '.join(f'{p[0]:.3f}' for p in passes)}")
    metrics = {
        "corpus_s": _metric(statistics.median(p[0] for p in passes), "s"),
        "solve_max_s": _metric(statistics.median(p[1] for p in passes), "s"),
        "ok_frac": _metric((attempted - failed) / attempted, "fraction"),
    }
    return metrics, attempted, failed, wrong


def run_traced(workload, seed, cases, table):
    from pipeline import STAGES, solve_all
    from tracing import KERNELS, LAYERS, Tracer

    ref_times, answers, ref_log = solve_all(cases, table)
    failures, wrong = _failures(cases, answers, table)
    attempted, failed = len(cases), sum(f is not None for f in failures)
    _report_cases(cases, ref_times, answers, failures)

    runs = []
    for k in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            _, answers, log = solve_all(cases, table, tracer)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        failures, n_wrong = _failures(cases, answers, table)
        attempted += len(cases)
        failed += sum(f is not None for f in failures)
        wrong += n_wrong
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{workload}-seed{seed}-pass{k}.npz")
        runs.append((wall, tracer.summary(), dict(tracer.stats), log))

    counts = [({n: s["calls"] for n, s in summ.items()}, stats,
               (log.gt_find_calls, log.gt_find_useful, log.assignments, log.warnings))
              for _, summ, stats, log in runs]
    repeat_ok = counts[0] == counts[1]
    wall = statistics.mean(r[0] for r in runs)
    summ, stats, log = runs[0][1], runs[0][2], runs[0][3]

    def field(name, key):
        vals = [r[1].get(name, {}).get(key, 0) for r in runs]
        return vals[0] if key == "calls" else statistics.mean(vals)

    metrics = {f"stage.{s}_s": _metric(ref_log.seconds.get(s, 0.0), "s")
               for s in STAGES}
    for name, key in LAYER_METRICS:
        metrics[f"{name}.{key}"] = _metric(field(name, key),
                                           "count" if key == "calls" else "s")
    for name, unit in SIZE_METRICS:
        metrics[name] = _metric(stats.get(name, 0), unit)
    metrics["equivalence.gt_find.calls"] = _metric(log.gt_find_calls, "count")
    metrics["equivalence.gt_find.useful_ratio"] = _metric(
        log.gt_find_useful / log.gt_find_calls if log.gt_find_calls else 0.0,
        "ratio")
    metrics["table.solve_parameters.assignments"] = _metric(log.assignments, "count")
    metrics["table.solve_parameters.warnings"] = _metric(log.warnings, "count")
    solve_total = field("solve", "total_s")
    metrics["trace.stage_uncovered_frac"] = _metric(
        field("solve", "self_s") / solve_total, "fraction")
    metrics["trace.overhead_ratio"] = _metric(wall / sum(ref_times), "ratio")

    ranked = sorted(((field(n, "self_s"), n) for n, _ in LAYERS), reverse=True)
    kernels = sorted(((field(n, "self_s"), n) for n, _ in KERNELS), reverse=True)
    top = ranked[0][1]
    verdict = "as predicted" if top in PREDICTED[workload] else "MISMATCH"
    print(f"  largest self-time layer: {top} ({ranked[0][0]:.3f} s of "
          f"{solve_total:.3f} s solve time), predicted "
          f"{' or '.join(PREDICTED[workload])}: {verdict}")
    print(f"  largest kernel: {kernels[0][1]} ({kernels[0][0]:.3f} s)")
    print(f"  solve time outside stage spans: "
          f"{metrics['trace.stage_uncovered_frac']['value']:.2e}")
    print(f"  call counts repeat across the two traced passes: {repeat_ok}")
    summary = {
        "workload": workload, "seed": seed,
        "corpus": [c.meta() for c in cases],
        "layers": {n: {k: field(n, k) for k in ("calls", "total_s", "self_s")}
                   for n in sorted(summ)},
        "largest_layer": top, "predicted": list(PREDICTED[workload]),
        "prediction_holds": top in PREDICTED[workload],
        "counts_repeat": repeat_ok,
    }
    (OUT / f"{workload}-seed{seed}-summary.json").write_text(
        json.dumps(summary, indent=1))
    return metrics, attempted, failed, wrong, repeat_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    _import_package()
    import corpus
    from pipeline import solve_all
    from symsolve.table import load_table

    setup_s = measure_setup() if args.trace == 0 else None
    table = load_table()
    cases = corpus.build(args.workload, args.seed, table)
    solve_all([corpus.warmup_case(table)], table)
    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} operators")

    if args.trace == 0:
        metrics, attempted, failed, wrong = run_end_to_end(
            cases, table, args.seconds, start)
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["setup_s"] = _metric(setup_s, "s")
        correct = wrong == 0
    else:
        metrics, attempted, failed, wrong, repeat_ok = run_traced(
            args.workload, args.seed, cases, table)
        correct = wrong == 0 and repeat_ok
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
