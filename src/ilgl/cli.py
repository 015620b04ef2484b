"""Command-line interface: prove, check, validate, algebra tooling, and
the cross-validation suites.

Exit codes: 0 success / proved / sat / valid; 1 refuted with certificate
(countermodel, unsat, invalid, suite violation); 2 input error; 3 budget
exhausted (unknown).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

from . import algebra as algmod
from . import crosscheck
from . import graph as graphmod
from . import hilbert
from . import predicate as predmod
from . import relational as relmod
from . import tableaux
from .formula import ParseError, parse, parse_pred, render

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3


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


def _fail(command: str, message: str, as_json: bool) -> int:
    RunResult(command, "error", EXIT_INPUT,
              {"message": message}).emit(as_json)
    return EXIT_INPUT


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


def cmd_prove(args) -> int:
    started = time.monotonic()
    for flag, value in (("--max-steps", args.max_steps),
                        ("--max-labels", args.max_labels),
                        ("--timeout", args.timeout)):
        if not value >= 0:  # NaN too
            return _fail("prove", f"{flag} must be zero or more, got "
                         f"{value}", args.json)
    try:
        f = parse(args.formula)
    except ParseError as exc:
        return _fail("prove", str(exc), args.json)
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
        run = RunResult("prove", "proved", EXIT_OK, payload, paths,
                        time.monotonic() - started)
    elif result.status == "countermodel":
        payload["worlds"] = result.model.world_count()
        payload["root"] = result.root
        if args.emit_countermodel:
            data = graphmod.model_to_dict(result.model)
            data["label_map"] = {
                tableaux.label_str(lab): idx
                for lab, idx in sorted(result.label_map.items())}
            with open(args.emit_countermodel, "w") as fh:
                json.dump(data, fh, indent=2, sort_keys=True)
                fh.write("\n")
            paths.append(args.emit_countermodel)
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(_scaffold_dot(result.model))
            paths.append(args.dot)
        run = RunResult("prove", "countermodel", EXIT_REFUTED, payload,
                        paths, time.monotonic() - started)
    else:
        payload["reason"] = result.reason
        run = RunResult("prove", "unknown", EXIT_UNKNOWN, payload, paths,
                        time.monotonic() - started)
    run.emit(args.json)
    return run.exit_code


def _load_any_model(path: str):
    """(layered graph model, resource model or None) from a model file."""
    with open(path) as fh:
        data = json.load(fh)
    if "placement" in data or "resources" in data:
        rm = predmod.resource_model_from_dict(data)
        return rm.model, rm
    return graphmod.model_from_dict(data), None


def cmd_check(args) -> int:
    started = time.monotonic()
    try:
        model, rm = _load_any_model(args.model)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return _fail("check", f"cannot load model: {exc}", args.json)
    n = model.world_count()
    if args.world is not None and not 0 <= args.world < n:
        return _fail("check", f"world {args.world} is not among the "
                     f"model's worlds 0..{n - 1}", args.json)
    try:
        problems = graphmod.validate_model(model, exhaustive=args.exhaustive)
    except ValueError as exc:  # beyond the exhaustive scope
        return _fail("check", str(exc), args.json)
    if problems:
        RunResult("check", "error", EXIT_INPUT,
                  {"message": "model file fails validation",
                   "violations": problems[:10]}).emit(args.json)
        return EXIT_INPUT
    propositional = None
    try:
        propositional = parse(args.formula)
    except ParseError as exc:
        propositional_error = exc
    if propositional is not None:
        if args.world is not None:
            ok = graphmod.satisfies(model, args.world, propositional)
        else:
            ok = graphmod.valid_in_model(model, propositional)
    else:
        try:
            pf = parse_pred(args.formula)
        except ParseError as exc:
            # Without resources the formula was meant to be propositional.
            return _fail("check", str(exc if rm is not None
                                       else propositional_error),
                         args.json)
        if rm is None:
            return _fail("check", "predicate formulas need a resource "
                         "model (placement/resources)", args.json)
        free = predmod.free_resources(pf)
        if free:
            return _fail("check", f"formula has free resources "
                         f"{sorted(free)}; only sentences are checkable",
                         args.json)
        try:
            if args.world is not None:
                ok = predmod.pred_satisfies(rm, {}, args.world, pf)
            else:
                ok = predmod.pred_valid_in_model(rm, pf)
        except ValueError as exc:
            return _fail("check", str(exc), args.json)
    if args.world is not None:
        status = "sat" if ok else "unsat"
    else:
        status = "valid" if ok else "invalid"
    run = RunResult("check", status,
                    EXIT_OK if ok else EXIT_REFUTED, {"formula": args.formula},
                    [], time.monotonic() - started)
    run.emit(args.json)
    return run.exit_code


def cmd_validate(args) -> int:
    started = time.monotonic()
    try:
        with open(args.path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail("validate", f"cannot read {args.path}: {exc}",
                     args.json)
    try:
        if "size" in data:
            kind = "algebra"
            problems = algmod.validate_algebra(algmod.algebra_from_dict(data))
        elif "worlds" in data:
            kind = "frame"
            problems = relmod.frame_from_dict(data).validate()
        elif "X" in data:
            kind = "model"
            if "placement" in data or "resources" in data:
                kind = "resource model"
                rm = predmod.resource_model_from_dict(data)
                problems = graphmod.validate_model(
                    rm.model, exhaustive=args.exhaustive)
            else:
                problems = graphmod.validate_model(
                    graphmod.model_from_dict(data),
                    exhaustive=args.exhaustive)
        else:
            return _fail("validate", "unrecognized file kind", args.json)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return _fail("validate", f"malformed {args.path}: {exc}", args.json)
    payload = {"kind": kind, "violations": problems[:20],
               "violation_count": len(problems)}
    if problems:
        RunResult("validate", "violations", EXIT_INPUT, payload, [],
                  time.monotonic() - started).emit(args.json)
        return EXIT_INPUT
    RunResult("validate", "ok", EXIT_OK, payload, [],
              time.monotonic() - started).emit(args.json)
    return EXIT_OK


def cmd_algebra(args) -> int:
    started = time.monotonic()
    try:
        if args.algebra_cmd == "complex":
            rmodel = relmod.load_frame(args.path)
            problems = rmodel.frame.validate()
            if problems:
                return _fail("algebra", f"invalid frame: {problems[:5]}",
                             args.json)
            alg = algmod.complex_algebra(rmodel.frame)
            paths = []
            if args.output:
                algmod.save_algebra(alg, args.output)
                paths.append(args.output)
            run = RunResult("algebra complex", "ok", EXIT_OK,
                            {"size": alg.size}, paths,
                            time.monotonic() - started)
        else:
            alg = algmod.load_algebra(args.path)
            problems = algmod.validate_algebra(alg)
            if problems:
                return _fail("algebra", f"invalid algebra: {problems[:5]}",
                             args.json)
        if args.algebra_cmd == "primefilters":
            filters = algmod.prime_filters(alg)
            run = RunResult("algebra primefilters", "ok", EXIT_OK,
                            {"count": len(filters),
                             "filters": [sorted(f) for f in filters]},
                            [], time.monotonic() - started)
        elif args.algebra_cmd == "embed":
            h, report = algmod.representation_embed(alg)
            status = "ok" if not report else "violations"
            run = RunResult("algebra embed", status,
                            EXIT_OK if not report else EXIT_REFUTED,
                            {"map": {str(k): v for k, v in h.items()},
                             "report": report[:10]},
                            [], time.monotonic() - started)
        elif args.algebra_cmd == "fep":
            subset = [int(x) for x in args.subset.split(",") if x != ""]
            completed, inclusion, report = algmod.fep_complete(alg, subset)
            paths = []
            if args.output:
                algmod.save_algebra(completed, args.output)
                paths.append(args.output)
            status = "ok" if not report else "violations"
            run = RunResult("algebra fep", status,
                            EXIT_OK if not report else EXIT_REFUTED,
                            {"size": completed.size,
                             "inclusion": {str(k): v
                                           for k, v in inclusion.items()},
                             "report": report[:10]},
                            paths, time.monotonic() - started)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail("algebra", str(exc), args.json)
    run.emit(args.json)
    return run.exit_code


def cmd_hilbert(args) -> int:
    started = time.monotonic()
    try:
        derivation = hilbert.load_derivation(args.path)
    except (OSError, ValueError, KeyError, ParseError,
            json.JSONDecodeError) as exc:
        return _fail("hilbert", f"cannot load derivation: {exc}", args.json)
    problems = hilbert.check_derivation(derivation)
    payload = {"conclusion": str(derivation.conclusion),
               "problems": problems[:10]}
    if args.theorem:
        try:
            f = parse(args.theorem)
        except ParseError as exc:
            return _fail("hilbert", str(exc), args.json)
        payload["theorem"] = hilbert.check_theorem(derivation, f)
        if not payload["theorem"] and not problems:
            problems = [{"problem": "conclusion is not top |- theorem"}]
    status = "ok" if not problems else "violations"
    run = RunResult("hilbert", status,
                    EXIT_OK if not problems else EXIT_REFUTED, payload, [],
                    time.monotonic() - started)
    run.emit(args.json)
    return run.exit_code


def cmd_crosscheck(args) -> int:
    started = time.monotonic()
    if args.suite not in crosscheck.SUITES:
        return _fail("crosscheck", f"unknown suite {args.suite!r} "
                     f"(choose from {', '.join(crosscheck.SUITES)})",
                     args.json)
    if args.budget is not None and args.budget < 0:
        return _fail("crosscheck", f"--budget must be zero or more, got "
                     f"{args.budget}", args.json)
    ok, summary, repro = crosscheck.run_suite(args.suite, args.seed,
                                              args.budget)
    payload = {"suite": args.suite, "seed": args.seed, **summary}
    paths = []
    if not ok and repro is not None:
        repro_path = args.repro or f"crosscheck-{args.suite}-repro.json"
        with open(repro_path, "w") as fh:
            json.dump(repro, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(repro_path)
    run = RunResult("crosscheck", "ok" if ok else "violations",
                    EXIT_OK if ok else EXIT_REFUTED, payload, paths,
                    time.monotonic() - started)
    run.emit(args.json)
    return run.exit_code


EXHAUSTIVE = ("check admissibility against every subgraph of the graph; "
              "refused above 12 vertices or 20000 subgraphs, and on the "
              "graphs it accepts it finds what the default check finds")


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
    p.add_argument("--max-steps", type=int, default=5000)
    p.add_argument("--max-labels", type=int, default=64)
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--emit-countermodel", metavar="PATH")
    p.add_argument("--dot", metavar="PATH")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("check", help="check a formula on a model file")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--world", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true", help=EXHAUSTIVE)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("validate", help="validate a model/frame/algebra file")
    p.add_argument("path")
    p.add_argument("--exhaustive", action="store_true", help=EXHAUSTIVE)
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
    a.add_argument("--subset", default="")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
