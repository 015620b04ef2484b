"""Write ``pool.json``: the prover's outcome on each master formula.

    PYTHONPATH=src python3 perfbench/make_pool.py

The master pools are the first 3000 formulas of depth 4 and of depth 5
that ``inputs.random_formula`` draws from ``random.Random(20240)``.  For
each formula the file records the prover's status (``p`` proved, ``c``
countermodel, ``u`` unknown) and its rule-application count.  The
workloads pick their seeded formulas from these pools by the recorded
outcomes, so that the same seed gives the same inputs on every commit.
"""

from __future__ import annotations

import json
import os
import sys

import inputs

SEED = 20240
SIZE = 3000
# The formulas answering ``unknown`` among the first 500 of each depth
# are the prove-sweep's kept failures.
FAILING_PREFIX = 500


def main() -> int:
    from ilgl import formula, tableaux
    limits = tableaux.Limits(max_rule_applications=5000, max_labels=64,
                             timeout=3600.0)
    depths = {}
    for depth in (4, 5):
        status, steps = [], []
        for f in inputs.master_pool(depth, SIZE, SEED):
            result = tableaux.prove(formula.parse(inputs.render(f)), limits)
            status.append(result.status[0])
            steps.append(result.tableau.steps)
        depths[str(depth)] = {"status": "".join(status), "steps": steps}
        print(f"depth {depth}: " + ", ".join(
            f"{s} {status.count(s)}" for s in "pcu"), file=sys.stderr)
    with open(inputs.POOL_PATH, "w") as fh:
        json.dump({"seed": SEED, "failing_prefix": FAILING_PREFIX,
                   "depths": depths}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
