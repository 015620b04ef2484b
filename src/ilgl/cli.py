"""Command-line interface: prove, check, validate, algebra tooling, and
the cross-validation suites.

Exit codes: 0 success / proved / sat / valid; 1 refuted with certificate
(countermodel, unsat, invalid, suite violation); 2 input error; 3 budget
exhausted (unknown); 4 internal error.

A bad input raises ``InputError`` wherever it is found: input files are
read through ``files.read`` and output files written through
``files.write``.  Each command returns a ``RunResult``; ``main`` alone
times it, turns an ``InputError`` into an exit-2 result, prints it and
returns its exit code.  Any other exception is an internal error: exit
4, with the traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import List, Optional

from . import algebra as algmod
from . import crosscheck
from . import files
from . import graph as graphmod
from . import hilbert
from . import predicate as predmod
from . import relational as relmod
from . import tableaux
from .formula import InputError, ParseError, parse, parse_pred, render

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4
PROVE_EXITS = {"proved": EXIT_OK, "countermodel": EXIT_REFUTED,
               "unknown": EXIT_UNKNOWN}


@dataclass
class RunResult:
    command: str
    status: str
    exit_code: int
    payload: dict = field(default_factory=dict)
    paths: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    def emit(self, as_json: bool) -> None:
        if as_json:
            body = {"command": self.command, "status": self.status,
                    "payload": self.payload, "paths": self.paths}
            print(json.dumps(body, indent=2, sort_keys=True))
        else:
            print(f"{self.command}: {self.status} "
                  f"({self.elapsed * 1000:.0f} ms)")
            for key, value in sorted(self.payload.items()):
                if key == "trace":
                    continue
                print(f"  {key}: {value}")
            for rec in self.payload.get("trace", []):
                facts = ",".join(rec["facts"])
                print(f"  [{rec['step']}] branch {rec['branch']} "
                      f"{rec['rule']} on {rec['premise']}"
                      + (f" via {facts}" if facts else ""))
            for path in self.paths:
                print(f"  wrote {path}")


def _scaffold_dot(model: graphmod.LayeredGraphModel) -> str:
    sc = model.scaffold
    lines = ["digraph scaffold {"]
    for v in sorted(sc.graph.vertices):
        lines.append(f'  "{v}";')
    for (u, v) in sorted(sc.graph.edges):
        style = ' [style=bold, label="E"]' if (u, v) in sc.eset else ""
        lines.append(f'  "{u}" -> "{v}"{style};')
    for i, sg in enumerate(sc.subgraphs):
        verts = ",".join(sorted(sg.vertices))
        lines.append(f'  // world {i}: {{{verts}}}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_prove(args) -> RunResult:
    for flag, value in (("--max-steps", args.max_steps),
                        ("--max-labels", args.max_labels),
                        ("--timeout", args.timeout)):
        if not value >= 0:  # NaN too
            raise InputError(f"{flag} must be zero or more, got {value}")
    f = parse(args.formula)
    limits = tableaux.Limits(max_rule_applications=args.max_steps,
                             max_labels=args.max_labels,
                             timeout=args.timeout)
    result = tableaux.prove(f, limits)
    payload = {"formula": render(f), "steps": result.tableau.steps}
    paths = []
    if args.trace:
        payload["trace"] = result.tableau.trace
    if result.status == "proved":
        payload["branches"] = len(result.tableau.branches)
    elif result.status == "countermodel":
        payload["worlds"] = result.model.world_count()
        payload["root"] = result.root
        if args.emit_countermodel:
            data = graphmod.model_to_dict(result.model)
            data["label_map"] = {
                tableaux.label_str(lab): idx
                for lab, idx in sorted(result.label_map.items())}
            files.write(args.emit_countermodel, files.json_text(data))
            paths.append(args.emit_countermodel)
        if args.dot:
            files.write(args.dot, _scaffold_dot(result.model))
            paths.append(args.dot)
    else:
        payload["reason"] = result.reason
    return RunResult("prove", result.status, PROVE_EXITS[result.status],
                     payload, paths)


def cmd_check(args) -> RunResult:
    kind, model = files.read(args.model, "model", "resource model", "frame")
    rm = None
    if kind == "resource model":
        rm, model = model, model.model
    what = "frame" if kind == "frame" else "model"
    n = model.frame.worlds if kind == "frame" else model.world_count()
    if args.world is not None and not 0 <= args.world < n:
        raise InputError(f"world {args.world} is not among the {what}'s "
                         f"worlds 0..{n - 1}" if n else
                         f"world {args.world}: the {what} has no worlds")
    problems = (model.validate() if kind == "frame"
                else graphmod.validate_model(model))
    if problems:
        return RunResult("check", "error", EXIT_INPUT,
                         {"message": f"{what} file fails validation",
                          "violations": problems[:10]})
    try:
        f = parse(args.formula)
    except ParseError as exc:
        if rm is None:
            raise InputError(f"{exc}; a predicate formula would need a "
                             "resource model (placement/resources)") from exc
        pf = parse_pred(args.formula)
        free = predmod.free_resources(pf)
        if free:
            raise InputError(f"formula has free resources {sorted(free)}; "
                             "only sentences are checkable")
        if args.world is not None:
            ok = predmod.pred_satisfies(rm, {}, args.world, pf)
        else:
            ok = predmod.pred_valid_in_model(rm, pf)
    else:
        if kind == "frame":
            # One evaluator for every world: its memo is shared.
            ev = relmod.Evaluator(model.frame, model.valuation)
            ok = all(ev.sat(w, f) for w in
                     (range(n) if args.world is None else [args.world]))
        elif args.world is not None:
            ok = graphmod.satisfies(model, args.world, f)
        else:
            ok = graphmod.valid_in_model(model, f)
    if args.world is not None:
        status = "sat" if ok else "unsat"
    else:
        status = "valid" if ok else "invalid"
    return RunResult("check", status, EXIT_OK if ok else EXIT_REFUTED,
                     {"formula": args.formula})


def cmd_validate(args) -> RunResult:
    kind, obj = files.read(args.path, "algebra", "frame", "model",
                           "resource model")
    if kind == "algebra":
        problems = algmod.validate_algebra(obj)
    elif kind == "frame":
        problems = obj.validate()
    else:
        problems = graphmod.validate_model(
            obj.model if kind == "resource model" else obj)
    payload = {"kind": kind, "violations": problems[:20],
               "violation_count": len(problems)}
    return RunResult("validate", "violations" if problems else "ok",
                     EXIT_INPUT if problems else EXIT_OK, payload)


def element_ids(text: str) -> List[int]:
    """``--subset``: element ids separated by commas."""
    return [int(x) for x in text.split(",") if x != ""]


def cmd_algebra(args) -> RunResult:
    report, paths = [], []
    if args.algebra_cmd == "complex":
        frame = files.read(args.path, "frame")[1].frame
        problems = frame.validate()
        if problems:
            raise InputError(f"invalid frame: {problems[:5]}")
        alg = out = algmod.complex_algebra(frame)
        payload = {"size": alg.size}
    else:
        alg = files.read(args.path, "algebra")[1]
        problems = algmod.validate_algebra(alg)
        if problems:
            raise InputError(f"invalid algebra: {problems[:5]}")
    if args.algebra_cmd == "primefilters":
        filters = algmod.prime_filters(alg)
        payload = {"count": len(filters),
                   "filters": [sorted(f) for f in filters]}
    elif args.algebra_cmd == "embed":
        h, report = algmod.representation_embed(alg)
        payload = {"map": {str(k): v for k, v in h.items()},
                   "report": report[:10]}
    elif args.algebra_cmd == "fep":
        out, inclusion, report = algmod.fep_complete(alg, args.subset)
        payload = {"size": out.size,
                   "inclusion": {str(k): v for k, v in inclusion.items()},
                   "report": report[:10]}
    if getattr(args, "output", None):
        files.write(args.output, files.json_text(algmod.algebra_to_dict(out)))
        paths.append(args.output)
    return RunResult(f"algebra {args.algebra_cmd}",
                     "violations" if report else "ok",
                     EXIT_REFUTED if report else EXIT_OK, payload, paths)


def cmd_hilbert(args) -> RunResult:
    derivation = files.read(args.path, "derivation")[1]
    problems = hilbert.check_derivation(derivation)
    payload = {"conclusion": str(derivation.conclusion),
               "problems": problems[:10]}
    if args.theorem:
        payload["theorem"] = hilbert.check_theorem(derivation,
                                                   parse(args.theorem))
        if not payload["theorem"] and not problems:
            problems = [{"problem": "conclusion is not top |- theorem"}]
    return RunResult("hilbert", "violations" if problems else "ok",
                     EXIT_REFUTED if problems else EXIT_OK, payload)


def cmd_crosscheck(args) -> RunResult:
    if args.budget is not None and args.budget < 0:
        raise InputError(f"--budget must be zero or more, got {args.budget}")
    ok, summary, repro = crosscheck.run_suite(args.suite, args.seed,
                                              args.budget)
    payload = {"suite": args.suite, "seed": args.seed, **summary}
    paths = []
    if not ok and repro is not None:
        repro_path = args.repro or f"crosscheck-{args.suite}-repro.json"
        files.write(repro_path, files.json_text(repro))
        paths.append(repro_path)
    return RunResult("crosscheck", "ok" if ok else "violations",
                     EXIT_OK if ok else EXIT_REFUTED, payload, paths)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ilgl",
        description="Prover and model checker for intuitionistic layered "
                    "graph logic")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide a formula by tableau search")
    p.add_argument("formula")
    p.add_argument("--max-steps", type=int,
                   default=tableaux.Limits.max_rule_applications)
    p.add_argument("--max-labels", type=int,
                   default=tableaux.Limits.max_labels)
    p.add_argument("--timeout", type=float, default=tableaux.Limits.timeout)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--emit-countermodel", metavar="PATH")
    p.add_argument("--dot", metavar="PATH")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("check", help="check a formula on a model or frame "
                                     "file")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--world", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("validate", help="validate a model/frame/algebra file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("algebra", help="complex algebras, prime filters, "
                                       "embedding, FEP completion")
    asub = p.add_subparsers(dest="algebra_cmd", required=True)
    a = asub.add_parser("complex")
    a.add_argument("path")
    a.add_argument("-o", "--output")
    a = asub.add_parser("primefilters")
    a.add_argument("path")
    a = asub.add_parser("embed")
    a.add_argument("path")
    a = asub.add_parser("fep")
    a.add_argument("path")
    a.add_argument("--subset", default="", type=element_ids)
    a.add_argument("-o", "--output")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("hilbert", help="check a Hilbert derivation file")
    p.add_argument("path")
    p.add_argument("--theorem", default=None,
                   help="also require the derivation to prove this formula")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("crosscheck", help="run a cross-validation suite")
    p.add_argument("suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--repro", default=None,
                   help="where to write the reproduction artifact")
    p.set_defaults(func=cmd_crosscheck)
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    # One parser per process, built on first use: building it costs more
    # than checking a small model.  parse_args keeps no state between
    # calls; each returns a fresh namespace.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    started = time.monotonic()
    try:
        run = args.func(args)
    except InputError as exc:
        run = RunResult(args.command, "error", EXIT_INPUT,
                        {"message": str(exc)})
    except Exception as exc:
        traceback.print_exc()
        run = RunResult(args.command, "error", EXIT_INTERNAL, {
            "message": f"internal error: {type(exc).__name__}: {exc}"})
    run.elapsed = time.monotonic() - started
    try:
        run.emit(args.json)
        sys.stdout.flush()
    except BrokenPipeError:  # nobody reads: let the flush at exit pass
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
