"""Steadiness check: run workloads repeatedly, in sets started one after
the other, and print each metric's median and quartiles per set.

    python3 perfbench/steady.py --workloads prove-sweep,modelcheck \
        --seeds 1-10 --sets 2 [--traced]

Each run is ``run.py`` with another seed and ``BENCHMARK.json``'s
``run_seconds``.  Per set and metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, the distance between the
quartiles as a share of the median; across sets, the change of the
median.  With ``--traced`` each seed is
also run with ``--trace 1``: the per-layer medians are printed, and the
tracing overhead as the untraced over the traced throughput.  Raw
results go to ``out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + 600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    traced = re.search(r"traced throughput_per_s (\S+)", proc.stdout)
    if traced:
        out["traced_throughput_per_s"] = float(traced.group(1))
    return out


def describe(values: list) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return (f"median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"spread {spread:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default="prove-sweep,oracle-sweep,modelcheck")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    workloads = args.workloads.split(",")
    raw = {w: [] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            runs = []
            for seed in args.seeds:
                res = run(w, seed, seconds, 0)
                if args.traced:
                    res["traced"] = run(w, seed, seconds, 1)
                runs.append(res)
                print(f"set {s + 1} {w} seed {seed}: "
                      + ", ".join(f"{k} {m['value']:.5g}"
                                  for k, m in res["metrics"].items())
                      + f", failed {res['failed']}/{res['attempted']}",
                      flush=True)
            raw[w].append(runs)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    for w in workloads:
        print(f"\n{w}")
        sets = raw[w]
        for name in sets[0][0]["metrics"]:
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                print(f"  {name:<18} set {s + 1}: {describe(values)}")
            for s in range(1, len(medians)):
                print(f"  {name:<18} set {s + 1} / set 1 median: "
                      f"{medians[s] / medians[0] - 1:+.3f}")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"  failed share: {sorted(shares)}")
        if args.traced:
            runs = [r for rs in sets for r in rs]
            plain = statistics.median(
                r["metrics"]["throughput_per_s"]["value"] for r in runs)
            traced = statistics.median(
                r["traced"]["traced_throughput_per_s"] for r in runs)
            print(f"  tracing overhead: untraced throughput {plain:.5g}/s, "
                  f"traced {traced:.5g}/s, ratio {plain / traced:.3f}")
            for name in runs[0]["traced"]["metrics"]:
                values = [r["traced"]["metrics"][name]["value"]
                          for r in runs]
                print(f"  {name:<40} median {statistics.median(values):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
