"""Golden answers: one solve record per fixed input, kept in
``tests/data/answers.json`` and compared by ``tests/test_answers.py``.

The inputs are stored as operator strings, so the file does not move
when the benchmark corpora change.  They are

- the distinct inputs of the ``gauge``, ``reject`` and ``twist``
  workloads of ``benchmarks/corpus.py`` at seeds 1, 2, 3 and 101;
- four large planted disguises (Gauss with r = x²+1 and Legendre with
  r = (x+1)/(x+2), both with G = (x+1)+x·S²; Hermite with r = x²+1 and
  Bessel with r = 3x/(x²+1), both with G = x+S), at the corpus's fixed
  parameters;
- the planted round trips of ``tests/test_roundtrip.py``.

Each record holds the answer of ``symsolve.solve``, which owns the stage
order: the case, the entry, the assignment, the printed r and G, and a
sha256 of ``json.dumps(LocalData.to_json(), sort_keys=True)``.  When
``solve`` raises, the record names the type of the escaped exception and
holds no case or hash, since the exception ends the solve before its
result exists.  No current record has an error.

A change that moves an answer on purpose regenerates the file:

    PYTHONPATH=src python tests/golden_answers.py
"""

import hashlib
import json
import os
import random
import sys

from symsolve import solve, table as tablemod
from symsolve.equivalence import transformed_operator
from symsolve.opformat import parse_operator, print_operator
from symsolve.ratfunc import RF
from symsolve.symprod import symprod_first_order

HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS = os.path.join(HERE, "data", "answers.json")

SEEDS = (1, 2, 3, 101)
WORKLOADS = ("gauge", "reject", "twist")
# (entry, term ratio, gauge) at benchmarks/corpus.py's FAMILY_PARAMS
LARGE = (
    ("gauss2f1_sq", RF([1, 0, 1]), "(x+1) + x*S^2"),
    ("legendre_sq", RF([1, 1], [2, 1]), "(x+1) + x*S^2"),
    ("hermite_sq", RF([1, 0, 1]), "x + S"),
    ("besseli_sq", RF([0, 3], [1, 0, 1]), "x + S"),
)


def _planted(table, name, assignment, r, gauge):
    M, _ = table.entry(name).instantiate(assignment)
    L = symprod_first_order(M, r)
    if gauge is not None:
        L = transformed_operator(L, parse_operator(gauge))
    return L


def inputs(table):
    """The operator strings of every input, distinct, in a fixed order."""
    sys.path.insert(0, os.path.join(HERE, os.pardir, "benchmarks"))
    import corpus
    from test_roundtrip import CASES

    ops = [case.L for workload in WORKLOADS for seed in SEEDS
           for case in corpus.build(workload, seed, table)]
    ops += [_planted(table, name, corpus.FAMILY_PARAMS[name], r, gauge)
            for name, r, gauge in LARGE]
    for name, seed, r, gauge in CASES:
        entry = table.entry(name)
        ops.append(_planted(table, name, entry.sample_assignment(random.Random(seed)),
                            r, gauge))
    return list(dict.fromkeys(print_operator(L) for L in ops))


def answer(text, table) -> dict:
    """The solve record of one input."""
    L = parse_operator(text)
    rec = {"input": text, "case": None, "local_data_sha256": None, "entry": None,
           "assignment": None, "r": None, "G": None, "error": None}
    try:
        res = solve(L, table)
    except Exception as exc:  # the record names what escaped
        rec["error"] = type(exc).__name__
        return rec
    rec["case"] = res.case
    if res.local_data is not None:
        blob = json.dumps(res.local_data.to_json(), sort_keys=True).encode()
        rec["local_data_sha256"] = hashlib.sha256(blob).hexdigest()
    if res.transform is not None:
        rec.update(entry=res.entry.name,
                   assignment={k: str(v) for k, v in sorted(res.assignment.items())},
                   r=res.transform.r.to_str(), G=print_operator(res.transform.G.G))
    return rec


def main():
    table = tablemod.load_table()
    records = [answer(text, table) for text in inputs(table)]
    with open(ANSWERS, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(records)} records written to {ANSWERS}")


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    main()
