"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py`` in a fresh interpreter.  With ``--prepare`` it
generates the inputs of ``--workload`` from ``--seed``, writes them
under ``out/<workload>-seed<n>/`` and prints ``INPUTS <digest>``; it
imports nothing from ``ilgl``.  Otherwise, as
``python3 perfbench/worker.py --workload W --seed N --seconds S
--trace 0|1 [--setup-only]``, it imports ``ilgl`` from the checkout's
``src``, reads the prepared inputs, warms the program up and prints
``READY <digest>``; the parent times set-up up to that line.  Unless
``--setup-only``, it then runs whole rounds of the workload's operations
until ``--seconds`` have passed, checks every output against the
reference checker, and prints one JSON line of results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import inputs  # noqa: E402
import refcheck  # noqa: E402


def import_program():
    """Import ``ilgl`` from the checkout and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ilgl", "__init__.py")):
        raise SystemExit(f"no ilgl sources under {src}")
    sys.path.insert(0, src)
    import ilgl
    if not os.path.abspath(ilgl.__file__).startswith(src + os.sep):
        raise SystemExit(f"ilgl imported from {ilgl.__file__}, not {src}")
    import ilgl.algebra
    import ilgl.cli
    import ilgl.formula
    import ilgl.graph
    import ilgl.predicate
    import ilgl.relational
    import ilgl.tableaux
    return ilgl


# -- workloads ------------------------------------------------------------

class Workload:
    """A workload: ``generate`` makes its inputs as JSON data from a seed,
    without ``ilgl``; the constructor takes them back.  ``ops`` is one
    round of operations.  ``run`` performs one, ``summary`` condenses its
    result for the comparison between rounds, ``record`` keeps what the
    checks of the first round need."""

    def warm_up(self) -> None:
        """Work every new process pays before it can serve."""

    def failed(self, op, result) -> bool:
        return False

    def layer_counts(self, records) -> dict:
        return {}


class ProveSweep(Workload):
    """Parse a formula and decide it with ``tableaux.prove``."""

    name = "prove-sweep"
    tail = 99.5
    per_depth = 496  # seeded decided formulas per depth and round
    models = 3

    @classmethod
    def generate(cls, seed: int) -> dict:
        pool = inputs.load_pool()
        rng = random.Random(seed)
        failing = [e for depth in (4, 5)
                   for e in pool["pools"][depth][:pool["failing_prefix"]]
                   if e["status"] == "u"]
        seeded = []
        for depth in (4, 5):
            decided = [e for e in pool["pools"][depth] if e["status"] != "u"]
            seeded += inputs.stratified(
                rng, decided, cls.per_depth,
                key=lambda e: (e["steps"], len(e["text"]), e["index"]))
        ops = [{"formula": e["formula"], "text": e["text"],
                "kept_failure": e["status"] == "u"}
               for e in failing + seeded]
        rng.shuffle(ops)
        return {"ops": ops,
                "models": [inputs.random_graph_model(rng)
                           for _ in range(cls.models)]}

    def __init__(self, ilgl, data: dict, folder: str):
        self.ilgl = ilgl
        # The wall clock never decides: every verdict comes from the step
        # and label budgets.
        self.limits = ilgl.tableaux.Limits(max_rule_applications=5000,
                                           max_labels=64, timeout=3600.0)
        self.ops = with_formula_tuples(data["ops"])
        self.model_data = data["models"]

    def run(self, op):
        f = self.ilgl.formula.parse(op["text"])
        return self.ilgl.tableaux.prove(f, self.limits)

    def summary(self, result):
        return (result.status, result.tableau.steps)

    def failed(self, op, result) -> bool:
        return result.status == "unknown"

    def record(self, op, result) -> dict:
        tab = result.tableau
        rec = {"status": result.status, "steps": tab.steps,
               "branches": tab.next_branch - 1, "labels": tab.next_fresh}
        if result.status == "unknown":
            rec["reason"] = result.reason
        if result.status == "countermodel":
            rec["certified"] = result.certified
            rec["root"] = result.root
            rec["model"] = model_json(result.model)
        return rec

    def check(self, records) -> list:
        rel = self.ilgl.relational
        parse = self.ilgl.formula.parse
        models = [refcheck.GraphModel(m) for m in self.model_data]
        for m in models:
            if m.problems():
                return [f"benchmark model invalid: {m.problems()[:2]}"]
        problems = []
        for op, rec in zip(self.ops, records):
            f, text = op["formula"], op["text"]
            status = rec["status"]
            if status == "unknown":
                if rec["reason"] != "label budget exhausted":
                    problems.append(f"{text}: unknown by {rec['reason']}")
                if not op["kept_failure"]:
                    print(f"note: {text}: unknown, decided when the pool "
                          "was made", file=sys.stderr)
                continue
            if status == "proved":
                if rel.rel_valid_upto(parse(text), 3, 3) is not None:
                    problems.append(f"{text}: proved, but the oracle "
                                    "refutes it at 3 worlds")
                for m in models:
                    if m.sat_mask(f) != m.frame.all:
                        problems.append(f"{text}: proved, but fails in a "
                                        "benchmark model")
            elif status == "countermodel":
                cm = refcheck.GraphModel(rec["model"])
                bad = cm.problems()
                if not 0 <= rec["root"] < len(cm.X):
                    bad.append(f"root {rec['root']} out of range")
                if bad or not rec["certified"]:
                    problems.append(f"{text}: countermodel invalid: "
                                    f"{bad[:2]}")
                elif cm.sat_mask(f) >> rec["root"] & 1:
                    problems.append(f"{text}: countermodel satisfies the "
                                    "formula at its root")
            else:
                problems.append(f"{text}: status {status}")
        return problems

    def layer_counts(self, records) -> dict:
        """Per-round prover work, read off the results."""
        return {
            "tableaux.rule_applications": sum(r["steps"] for r in records),
            "tableaux.branches": sum(r["branches"] for r in records),
            "tableaux.labels": sum(r["labels"] for r in records),
        }


class OracleSweep(Workload):
    """``relational.rel_valid_upto`` with the 3-atom limit, at 3 worlds
    with the default relation caps and at 4 worlds with the 4-world cap
    set to 1."""

    name = "oracle-sweep"
    tail = 95.0
    # (kind, worlds, atoms, operations per round).  A valid formula scans
    # the whole family: 3 atoms at 4 worlds would cost up to 2 s each.
    plan = (("valid", 3, (3,), 12), ("valid", 4, (2,), 6),
            ("refutable", 3, (0, 1, 2, 3), 24),
            ("refutable", 4, (0, 1, 2, 3), 24))
    caps = {3: None, 4: {4: 1}}

    @classmethod
    def generate(cls, seed: int) -> dict:
        pool = inputs.load_pool()
        rng = random.Random(seed)
        entries = [e for depth in (4, 5) for e in pool["pools"][depth]]
        # Known valid: the prover proved them.  Known refutable: the
        # prover certified a countermodel.
        by_kind = {"valid": [e for e in entries if e["status"] == "p"],
                   "refutable": [e for e in entries if e["status"] == "c"]}
        ops = []
        for kind, worlds, atoms, k in cls.plan:
            cands = [e for e in by_kind[kind]
                     if len(inputs.atoms_of(e["formula"])) in atoms]
            for e in inputs.stratified(
                    rng, cands, k,
                    key=lambda e: (len(inputs.atoms_of(e["formula"])),
                                   inputs.size(e["formula"]), e["index"])):
                ops.append({"formula": e["formula"], "text": e["text"],
                            "kind": kind, "worlds": worlds})
        rng.shuffle(ops)
        return {"ops": ops}

    def __init__(self, ilgl, data: dict, folder: str):
        self.ilgl = ilgl
        self.ops = with_formula_tuples(data["ops"])

    def warm_up(self) -> None:
        """The cold build of the oracle's stacked frame tables: the first
        4-world cap-1 call builds every step up to 4 worlds; a second,
        warm call of the same formula times the scan alone."""
        rel = self.ilgl.relational
        f = self.ilgl.formula.parse("p -> p")
        t0 = time.perf_counter()
        rel.rel_valid_upto(f, 4, 3, self.caps[4])
        t1 = time.perf_counter()
        rel.rel_valid_upto(f, 4, 3, self.caps[4])
        t2 = time.perf_counter()
        self.cold_build_s = (t1 - t0) - (t2 - t1)

    def run(self, op):
        f = self.ilgl.formula.parse(op["text"])
        return self.ilgl.relational.rel_valid_upto(
            f, op["worlds"], 3, self.caps[op["worlds"]])

    def summary(self, result):
        return None if result is None else (result.frame.worlds,
                                            result.world)

    def record(self, op, result) -> dict:
        if result is None:
            return {"counterexample": None}
        fr = result.frame
        return {"counterexample": {
            "worlds": fr.worlds, "order": sorted(map(list, fr.order)),
            "rel": sorted(map(list, fr.rel)),
            "valuation": {p: sorted(ws)
                          for p, ws in sorted(result.valuation.items())},
            "world": result.world}}

    def check(self, records) -> list:
        problems = []
        for op, rec in zip(self.ops, records):
            ce = rec["counterexample"]
            text = op["text"]
            if ce is None:
                # Refutable formulas may have no counterexample inside the
                # declared family; valid ones must have none anywhere.
                continue
            if op["kind"] == "valid":
                problems.append(f"{text}: proved, but the oracle refutes "
                                "it")
            problems += [f"{text}: {p}" for p in
                         counterexample_problems(op, ce)]
        return problems

    def layer_counts(self, records) -> dict:
        return {"relational.cold_build_s": self.cold_build_s}


def counterexample_problems(op, ce) -> list:
    """An oracle counterexample must lie in the declared frame family and
    falsify the formula at its world."""
    out = []
    n = ce["worlds"]
    cap = {3: 2, 4: 1 if op["worlds"] == 4 else 2}.get(n)
    if n > op["worlds"]:
        out.append(f"{n} worlds exceed the limit {op['worlds']}")
    if cap is not None and len(ce["rel"]) > cap:
        out.append(f"relation of size {len(ce['rel'])} exceeds cap {cap}")
    pairs = {tuple(p) for p in ce["order"]}
    frame, valuation = refcheck.frame_model(ce)
    closed = {(i, j) for i in range(n) for j in range(n) if frame.leq[i][j]}
    if pairs != closed:
        out.append("order is not a preorder")
    if refcheck.persistence_problems(frame, valuation):
        out.append("valuation not persistent")
    if not 0 <= ce["world"] < n:
        out.append("world out of range")
    elif refcheck.sat_mask(frame, valuation, op["formula"]) >> ce["world"] & 1:
        out.append("formula holds at the reported world")
    return out


class ModelCheck(Workload):
    """``ilgl check`` in-process, plus direct ``rel_satisfies`` and
    complex-algebra ``interpret`` calls on the frames of the models."""

    name = "modelcheck"
    tail = 99.0
    graph_models = 32
    # Admissible subgraphs per graph model, cycled, so that every seed
    # draws models of the same sizes.
    graph_members = (2, 3, 4, 5, 6, 7, 8, 12)
    # (place vertices, placement links) of the resource models: their
    # quantifier domains have 4, 12, 48, 192 and 768 up-sets.
    resource_shapes = ((2, 0), (4, 1), (6, 1), (8, 1), (10, 1))
    algebra_max_upsets = 16
    whole_model_max_places = 6

    @classmethod
    def generate(cls, seed: int) -> dict:
        rng = random.Random(seed)
        files, frames, ops = {}, {}, []

        def add(kind, path, f, world):
            ops.append({"kind": kind, "path": path, "formula": f,
                        "text": inputs.render(f), "world": world})

        # Per graph model: two whole-model and two one-world checks, one
        # rel_satisfies call and, where the complex algebra is small, one
        # interpret call; the checks are most of the operations.
        for i in range(cls.graph_models):
            data = inputs.random_graph_model(
                rng, members=cls.graph_members[i % len(cls.graph_members)])
            path = f"g{i}.json"
            files[path] = data
            frame = refcheck.GraphModel(data).frame
            frames[path] = {
                "worlds": frame.n,
                "order": [[a, b] for a in range(frame.n)
                          for b in range(frame.n) if frame.leq[a][b]],
                "rel": [list(t) for t in frame.triples],
                "valuation": data["valuation"]}
            n = frame.n
            for world in (None, None, rng.randrange(n), rng.randrange(n)):
                add("cli", path, inputs.random_formula(rng, 3), world)
            add("rel", path, inputs.random_formula(rng, 3), rng.randrange(n))
            if frame.upsets(cls.algebra_max_upsets) is not None:
                add("alg", path, inputs.random_formula(rng, 3), None)
        # Per resource model: an existential and a universal sentence,
        # with two nested quantifiers where the domain is small.  On small
        # domains the existential one is checked on the whole model.
        # Elsewhere both are checked at one world, and drawn until the
        # quantifier must visit its whole domain (an existential that
        # fails, a universal that holds), so that their cost does not
        # hinge on where a witness sits in the enumeration order.  The
        # largest domain gets two of each: they set the tail.
        for i, (places, links) in enumerate(cls.resource_shapes):
            data = inputs.random_resource_model(rng, places, links)
            path = f"rm{i}.json"
            files[path] = data
            n = len(data["X"])
            nested = places <= 4
            if places <= cls.whole_model_max_places:
                add("cli", path, inputs.random_sentence(rng, "exists", nested),
                    None)
                add("cli", path, inputs.random_sentence(rng, "forall", nested),
                    rng.randrange(n))
                continue
            ref = refcheck.ResourceModel(data)
            checks = ((("exists", 0), ("forall", 1)) *
                      (2 if places == cls.resource_shapes[-1][0] else 1))
            for quant, want in checks:
                while True:
                    f = inputs.random_sentence(rng, quant, nested)
                    mask = ref.pred_mask(f)
                    worlds = [w for w in range(n) if mask >> w & 1 == want]
                    if worlds:
                        break
                add("cli", path, f, rng.choice(worlds))
        rng.shuffle(ops)
        return {"files": files, "frames": frames, "ops": ops}

    def __init__(self, ilgl, data: dict, folder: str):
        self.ilgl = ilgl
        self.dir = folder
        self.files = data["files"]
        self.ops = with_formula_tuples(data["ops"])
        self.frames = {path: ilgl.relational.frame_from_dict(frame)
                       for path, frame in data["frames"].items()}

    def run(self, op):
        ilgl = self.ilgl
        if op["kind"] == "cli":
            argv = ["--json", "check", os.path.join(self.dir, op["path"]),
                    op["text"]]
            if op["world"] is not None:
                argv += ["--world", str(op["world"])]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = ilgl.cli.main(argv)
            return (code, json.loads(buf.getvalue())["status"])
        f = ilgl.formula.parse(op["text"])
        model = self.frames[op["path"]]
        if op["kind"] == "rel":
            return ilgl.relational.rel_satisfies(model, op["world"], f)
        alg, ups = ilgl.algebra.complex_algebra_with_elements(model.frame)
        index = {m: i for i, m in enumerate(ups)}
        valuation = {p: index[sum(1 << w for w in ws)]
                     for p, ws in model.valuation.items()}
        value = ilgl.algebra.interpret(
            ilgl.algebra.AlgebraInterpretation(alg, valuation), f)
        return ups[value]

    def summary(self, result):
        return result

    def failed(self, op, result) -> bool:
        return op["kind"] == "cli" and result[0] not in (0, 1)

    def record(self, op, result):
        return {"result": result}

    def check(self, records) -> list:
        refs = {path: (refcheck.ResourceModel(data) if "placement" in data
                       else refcheck.GraphModel(data))
                for path, data in self.files.items()}
        problems = []
        for op, rec in zip(self.ops, records):
            ref = refs[op["path"]]
            if isinstance(ref, refcheck.ResourceModel):
                mask = ref.pred_mask(op["formula"])
            else:
                mask = ref.sat_mask(op["formula"])
            w = op["world"]
            if op["kind"] == "cli":
                if w is None:
                    want = "valid" if mask == ref.frame.all else "invalid"
                else:
                    want = "sat" if mask >> w & 1 else "unsat"
                if rec["result"] != (0 if want in ("valid", "sat") else 1,
                                     want):
                    problems.append(f"check {op['path']} {op['text']!r} "
                                    f"world {w}: {rec['result']}, "
                                    f"reference {want}")
            elif op["kind"] == "rel":
                if rec["result"] != bool(mask >> w & 1):
                    problems.append(f"rel_satisfies {op['path']} "
                                    f"{op['text']!r} at {w} disagrees")
            elif rec["result"] != mask:
                problems.append(f"interpret {op['path']} {op['text']!r} "
                                "disagrees")
        return problems


WORKLOADS = {w.name: w for w in (ProveSweep, OracleSweep, ModelCheck)}


def with_formula_tuples(ops: list) -> list:
    """Operations read back from JSON, their formulas tuples again."""
    def tup(x):
        return tuple(map(tup, x)) if isinstance(x, list) else x
    return [dict(op, formula=tup(op["formula"])) for op in ops]


def model_json(model) -> dict:
    """The JSON model form of a program model, read off its fields."""
    sc = model.scaffold
    return {
        "vertices": sorted(sc.graph.vertices),
        "edges": sorted(map(list, sc.graph.edges)),
        "eset": sorted(map(list, sc.eset)),
        "X": [{"vertices": sorted(sg.vertices),
               "edges": sorted(map(list, sg.edges))}
              for sg in sc.subgraphs],
        "order": sorted(map(list, sc.order)),
        "valuation": {p: sorted(ws)
                      for p, ws in sorted(model.valuation.items())},
    }


# -- tracing ----------------------------------------------------------------

def install_tracer(ilgl):
    """Wrap the public functions of each layer in spans."""
    from tracer import Tracer
    tr = Tracer()
    m = ilgl
    # (module, attribute, span name); cli.main is only called on check.
    wraps = [
        (m.formula, "parse", "formula.parse"),
        (m.cli, "parse", "formula.parse"),
        (m.tableaux, "prove", "tableaux.prove"),
        (m.tableaux, "applicable_rules", "tableaux.agenda"),
        (m.tableaux, "is_closed", "tableaux.closure"),
        (m.tableaux, "expand", "tableaux.expand"),
        (m.tableaux, "render", "tableaux.trace_render"),
        (m.tableaux, "extract_model", "tableaux.extract_model"),
        (m.graph, "model_from_dict", "graph.load"),
        (m.graph, "validate_model", "graph.validate"),
        (m.graph, "satisfies", "graph.satisfies"),
        (m.graph, "valid_in_model", "graph.valid_in_model"),
        (m.relational, "rel_satisfies", "relational.rel_satisfies"),
        (m.algebra, "complex_algebra_with_elements",
         "algebra.complex_algebra"),
        (m.algebra, "interpret", "algebra.interpret"),
        (m.predicate, "pred_satisfies", "predicate.pred_satisfies"),
        (m.predicate, "enumerate_upsets", "predicate.enumerate_upsets"),
        (m.cli, "main", "cli.check"),
    ]
    for module, attr, name in wraps:
        tr.wrap(module, attr, name)
    tr.wrap(m.relational, "rel_valid_upto", "relational.scan",
            classify=lambda ce: ("relational.scan_valid" if ce is None
                                 else "relational.scan_refuted"))
    return tr


def layer_metrics(tr, rounds: int) -> dict:
    """Per-layer metrics from the spans, per round of the workload.

    Times are self times where spans of the same layer nest, and total
    durations where a metric covers a call with everything under it.
    """
    t = tr.totals()

    def self_ms(name):
        return 1000.0 * t.get(name, {}).get("self", 0.0) / rounds

    def dur_ms(name):
        return 1000.0 * t.get(name, {}).get("dur", 0.0) / rounds

    def count(name):
        return t.get(name, {}).get("count", 0)

    def ratio(num, den):
        return count(num) / count(den) if count(den) else 0.0

    return {
        "formula.parse_ms": self_ms("formula.parse"),
        "tableaux.prove_ms": self_ms("tableaux.prove"),
        "tableaux.agenda_ms": self_ms("tableaux.agenda"),
        "tableaux.closure_ms": self_ms("tableaux.closure"),
        "tableaux.expand_ms": self_ms("tableaux.expand"),
        "tableaux.trace_render_ms": self_ms("tableaux.trace_render"),
        # extract_model, plus the validate_model and satisfies calls that
        # prove makes to certify a countermodel.
        "tableaux.certify_ms": dur_ms("tableaux.extract_model")
        + 1000.0 * tr.child_dur("tableaux.prove",
                                ("graph.validate", "graph.satisfies"))
        / rounds,
        "tableaux.agenda_scans_per_step": ratio("tableaux.agenda",
                                                "tableaux.expand"),
        # Read off the results or the set-up by the workload, when it
        # runs that layer.
        "tableaux.rule_applications": 0.0,
        "tableaux.branches": 0.0,
        "tableaux.labels": 0.0,
        "relational.cold_build_s": 0.0,
        "relational.scan_valid_ms": dur_ms("relational.scan_valid"),
        "relational.scan_refuted_ms": dur_ms("relational.scan_refuted"),
        "relational.rel_satisfies_ms": dur_ms("relational.rel_satisfies"),
        "relational.rel_satisfies_calls":
            count("relational.rel_satisfies") / rounds,
        "graph.load_ms": dur_ms("graph.load"),
        "graph.validate_ms": dur_ms("graph.validate"),
        "graph.satisfies_ms": dur_ms("graph.satisfies"),
        "graph.satisfies_calls": count("graph.satisfies") / rounds,
        "graph.valid_in_model_ms": dur_ms("graph.valid_in_model"),
        "algebra.complex_algebra_ms": dur_ms("algebra.complex_algebra"),
        "algebra.interpret_ms": self_ms("algebra.interpret"),
        "predicate.pred_satisfies_ms": dur_ms("predicate.pred_satisfies"),
        "predicate.pred_satisfies_calls":
            count("predicate.pred_satisfies") / rounds,
        "predicate.upset_enumerations_per_check": ratio(
            "predicate.enumerate_upsets", "predicate.pred_satisfies"),
        "cli.check_ms": self_ms("cli.check"),
    }


# -- the timed phase --------------------------------------------------------

def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond_tail(samples: int, pct: float) -> int:
    """Samples above the nearest-rank ``pct`` percentile."""
    return samples - math.ceil(pct / 100.0 * samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--prepare", action="store_true")
    args = ap.parse_args(argv)

    cls = WORKLOADS[args.workload]
    folder = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    inputs_path = os.path.join(folder, "inputs.json")
    if args.prepare:
        data = cls.generate(args.seed)
        os.makedirs(folder, exist_ok=True)
        for name, model in data.get("files", {}).items():
            with open(os.path.join(folder, name), "w") as fh:
                json.dump(model, fh, indent=1, sort_keys=True)
        with open(inputs_path, "w") as fh:
            json.dump(data, fh, sort_keys=True)
        print(f"INPUTS {inputs.digest(data)}", flush=True)
        return 0

    ilgl = import_program()
    with open(inputs_path) as fh:
        data = json.load(fh)
    work = cls(ilgl, data, folder)
    work.warm_up()
    print(f"READY {inputs.digest(data)}", flush=True)
    if args.setup_only:
        return 0

    tr = install_tracer(ilgl) if args.trace else None
    op_name = tr.name_id("op") if tr else None
    ops = work.ops
    latencies = []
    round_rates = []
    records = [None] * len(ops)
    firsts = [None] * len(ops)
    problems = []
    failed = 0
    rounds = 0
    started = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tr:
                tr.op_id = len(latencies)
                span = tr.open(op_name)
            t0 = time.perf_counter()
            result = work.run(op)
            t1 = time.perf_counter()
            if tr:
                tr.close(span)
            latencies.append(t1 - t0)
            failed += work.failed(op, result)
            if rounds == 0:
                firsts[i] = work.summary(result)
                records[i] = work.record(op, result)
            elif work.summary(result) != firsts[i]:
                problems.append(f"operation {i} answered differently in "
                                f"round {rounds + 1}")
        rounds += 1
        round_rates.append(len(ops) / sum(latencies[-len(ops):]))
        # A slow run goes on past --seconds until the tail percentile
        # has ten samples beyond it.
        if (time.perf_counter() - started >= args.seconds
                and beyond_tail(len(latencies), work.tail) >= 10):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tr:
        tr.unwrap()

    problems += work.check(records)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    lat = sorted(latencies)
    result = {
        "correct": not problems,
        "attempted": len(latencies),
        "failed": failed,
        "rounds": rounds,
        "round_ops": len(ops),
        "tail_pct": work.tail,
        "tail_beyond": beyond_tail(len(lat), work.tail),
        "throughput_per_s": statistics.median(round_rates),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * percentile(lat, work.tail),
        "rss_mb": rss_mb,
    }
    if tr:
        layers = layer_metrics(tr, rounds)
        layers.update({k: float(v)
                       for k, v in work.layer_counts(records).items()})
        result["layers"] = layers
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.npz")
        tr.save(trace_path)
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
        result["spans"] = len(tr.start)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
