"""Benchmark of the ilgl prover, validity oracle and model checkers.

    python3 perfbench/run.py --workload prove-sweep --seed 1 --seconds 15 \
        --trace 0

Run from the root of a checkout.  Each run first generates the inputs
in two untimed worker starts under different hash seeds, whose input
digests must agree.  It then starts the worker several times in fresh
interpreters: every start times set-up (import, reading the inputs,
warm-up) up to its ``READY`` line, and the last one goes on to the timed
phase.  With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run.  Metric names and units are those of
``BENCHMARK.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("prove-sweep", "oracle-sweep", "modelcheck")
SETUPS = {"prove-sweep": 7, "oracle-sweep": 3, "modelcheck": 7}
# Seconds a run may take beyond its timed phase before it is stopped.
SLACK = 160


def worker_cmd(args, *flags) -> list:
    return [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *flags]


def prepare(args, hash_seed: int) -> str:
    """Generate the run's inputs in an untimed worker; returns their
    digest."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(worker_cmd(args, "--prepare"), cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=SLACK)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(
            "INPUTS "):
        raise RuntimeError(f"input generation failed (exit "
                           f"{proc.returncode})")
    return lines[-1].split()[1]


def start_worker(args, setup_only: bool):
    """Start one worker; returns (process, set-up seconds, digest)."""
    cmd = worker_cmd(args, *(["--setup-only"] if setup_only else []))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if not line.startswith("READY "):
        proc.stdout.close()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit "
                           f"{proc.returncode}): {line.strip()!r}")
    return proc, elapsed, line.split()[1]


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ilgl", "__init__.py")):
        print(f"error: no ilgl sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    setup_times, digests = [], []
    try:
        # The generated inputs must not depend on the hash seed.
        digests += [prepare(args, 1), prepare(args, 2)]
        for _ in range(SETUPS[args.workload] - 1):
            proc, elapsed, dig = start_worker(args, True)
            finish(proc, SLACK)
            setup_times.append(elapsed)
            digests.append(dig)
        proc, elapsed, dig = start_worker(args, False)
        setup_times.append(elapsed)
        digests.append(dig)
        out = finish(proc, args.seconds + SLACK)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    correct = res["correct"] and len(set(digests)) == 1
    if len(set(digests)) != 1:
        print(f"error: input digests differ across processes: {digests}",
              file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: inputs sha256 "
          f"{digests[-1]}")
    print(f"  rounds {res['rounds']} of {res['round_ops']} operations; "
          f"attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {str(correct).lower()}")
    if args.trace:
        metrics = {m["name"]: {"value": res["layers"][m["name"]],
                               "unit": m["unit"]}
                   for m in bench["per_layer"]}
        print(f"  traced throughput_per_s {res['throughput_per_s']:.4f} "
              f"(spans {res['spans']}, written to {res['trace_file']})")
    else:
        values = dict(res, setup_s=statistics.median(setup_times))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        print(f"  setup_s samples {', '.join(f'{t:.4f}' for t in setup_times)}")
        print(f"  latency_tail_ms is p{res['tail_pct']:g} "
              f"({res['tail_beyond']} of {res['attempted']} samples beyond)")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
