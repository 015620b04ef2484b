"""Batch cross-validation suites tying the prover, the validity oracle,
the complex algebras and the satisfaction relation together.

Layered-graph, relational and predicate satisfaction share one set of
clauses (``relational.Evaluator``); the graph semantics is the relational
one on the scaffold's frame.  The suites therefore pair independent
procedures: prover against oracle and graph models, relational clauses
against complex-algebra tables, and persistence of each semantics.  The
residuation suite checks the algebra axioms of complex algebras; the
derived laws of residuated structures follow from them.

Each suite runs a seeded sweep and returns (ok, summary, repro): on
failure ``repro`` is a JSON-ready reproduction of the first (shrunk where
possible) failing instance, with the formula, model, frame, algebra or
assignment it was checked on.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Iterator, Optional, Tuple

from . import algebra as algmod
from . import gen
from . import graph as graphmod
from . import relational as relmod
from . import tableaux
from .formula import (Contains, Exists, Forall, Formula, InputError, PointsTo,
                      render, subformulas)
from .predicate import (LinkGraphSpec, build_bigraph_scaffold,
                        resource_evaluator, resource_model_to_dict)


def _shrink_formula(f: Formula, failing: Callable[[Formula], bool]) -> Formula:
    """Greedily descend to a smallest failing subformula."""
    current = f
    progress = True
    while progress:
        progress = False
        for sub in subformulas(current)[:-1]:
            if failing(sub):
                current = sub
                progress = True
                break
    return current


def suite_soundness(seed: int, budget: int) -> Tuple[bool, dict, Optional[dict]]:
    """Proved formulas must survive the relational oracle and hold in
    random layered graph models."""
    rng = random.Random(seed)
    proved = refuted = unknown = 0
    models = [gen.random_graph_model(random.Random(seed + i))
              for i in range(50)]
    for i in range(budget):
        f = gen.random_formula(rng, 4)
        result = tableaux.prove(f)
        if result.status == "countermodel":
            refuted += 1
            continue
        if result.status == "unknown":
            unknown += 1
            continue
        proved += 1
        cex = relmod.rel_valid_upto(f, 3, 3)
        if cex is not None:
            bad = _shrink_formula(
                f, lambda g: (tableaux.prove(g).status == "proved"
                              and relmod.rel_valid_upto(g, 3, 3) is not None))
            return False, {"checked": i + 1}, {
                "suite": "soundness", "formula": render(bad),
                "counterexample": relmod.frame_to_dict(cex.model()),
                "world": cex.world}
        for j, model in enumerate(models):
            if not graphmod.valid_in_model(model, f):
                return False, {"checked": i + 1}, {
                    "suite": "soundness", "formula": render(f),
                    "model": graphmod.model_to_dict(model), "index": j}
    return True, {"formulas": budget, "proved": proved, "refuted": refuted,
                  "unknown": unknown}, None


def _bigraph_fixture():
    """Two composed bigraphs, small enough for quantifier sweeps."""
    forests = [{"a1": None, "a2": "a1"}, {"b1": None}]
    links = [LinkGraphSpec(nodes=["a1", "a2"], inner=[], outer=["x"],
                           hyperedges=[["a1", "a2", "x"]]),
             LinkGraphSpec(nodes=["b1"], inner=["x_in"], outer=[],
                           hyperedges=[["x_in", "b1"]], targets=["b1"])]
    return build_bigraph_scaffold(forests, links, [("x", "x_in")],
                                  resources=["r1", "r2"])


def _persistence_instances(seed: int, budget: int) -> Iterator[tuple]:
    """The persistence suite's instances in drawing order: (semantics,
    evaluator, formula, assignment, writer).  The assignment is the
    evaluator's: (variable, vertex mask) pairs.  The order checked is the
    one the evaluator reads, ``ev.up``: the model's own order.  The writer
    gives the repro's model and, in the predicate semantics, the
    assignment's blocks as sorted vertex names."""
    rng = random.Random(seed)
    for _ in range(budget):
        model = gen.random_graph_model(rng)
        yield ("graph", graphmod.model_evaluator(model),
               gen.random_formula(rng, 3), frozenset(),
               lambda model=model: {"model": graphmod.model_to_dict(model)})
        rmodel = gen.random_relational_model(rng, rng.randrange(1, 5))
        yield ("relational", relmod.Evaluator(rmodel.frame, rmodel.valuation),
               gen.random_formula(rng, 3), frozenset(),
               lambda rmodel=rmodel: {"model": relmod.frame_to_dict(rmodel)})
    rm = _bigraph_fixture()
    ev = resource_evaluator(rm)
    names = rm.model.scaffold.masks.vertices  # the evaluator's bit order
    pformulas = [Contains("r1"), PointsTo("r1", "r2"),
                 Exists("s", Contains("s")),
                 Forall("s", Contains("s"))]
    rng = random.Random(seed + 1)
    for _ in range(min(budget, 60)):
        s = frozenset({"r1": rng.choice(ev.upsets),
                       "r2": rng.choice(ev.upsets)}.items())
        yield ("predicate", ev, rng.choice(pformulas), s, lambda s=s: {
                   "model": resource_model_to_dict(rm),
                   "assignment": {r: [names[j] for j in relmod.bits(m)]
                                  for r, m in s}})


def suite_persistence(seed: int, budget: int
                      ) -> Tuple[bool, dict, Optional[dict]]:
    """Satisfaction is upward closed along the order, in all three
    semantics, each checked with one evaluator per model.  Pairs of
    worlds count as checked in row-major order, up to the least one
    where the formula is lost going up."""
    checked = 0
    for semantics, ev, f, s, write in _persistence_instances(seed, budget):
        # The formula's worlds, and the pairs going up that leave them.
        holds = frozenset(w for w in range(ev.n) if ev.sat(w, f, s))
        lost = [(i, j) for i in holds for j in relmod.bits(ev.up[i])
                if j not in holds]
        if lost:
            a, b = min(lost)
            return False, {"checked": checked + a * ev.n + b}, {
                "suite": "persistence", "semantics": semantics,
                "formula": render(f), "below": a, "above": b, **write()}
        checked += ev.n ** 2
    return True, {"pairs": checked}, None


def _rounds(check: Callable[[random.Random], Optional[dict]], key: str,
            seed: int, budget: int) -> Tuple[bool, dict, Optional[dict]]:
    """Draw and check one instance per round.  ``check`` returns the
    repro of an instance that fails; the first one ends the suite."""
    rng = random.Random(seed)
    for i in range(budget):
        repro = check(rng)
        if repro is not None:
            return False, {"checked": i}, repro
    return True, {key: budget}, None


def _residuation(rng: random.Random) -> Optional[dict]:
    """Complex algebras of random frames satisfy the algebra axioms,
    residuation among them.  The derived laws are not checked again: the
    layer product is a left adjoint in each argument, so it is monotone,
    absorbs bottom and distributes over joins, and the unit laws of the
    residuals follow from the adjunction at top and at bottom."""
    frame = gen.random_frame(rng, rng.randrange(1, 5))
    issues = algmod.validate_algebra(algmod.complex_algebra(frame))
    if issues:
        return {"suite": "residuation", "issues": issues[:5],
                "frame": relmod.frame_to_dict(
                    relmod.RelationalModel(frame, {}))}
    return None


def _representation(rng: random.Random) -> Optional[dict]:
    """The prime-filter embedding verifies on random complex algebras."""
    alg = algmod.complex_algebra(gen.random_frame(rng, rng.randrange(1, 4)))
    report = algmod.representation_embed(alg)[1]
    if report:
        return {"suite": "representation", "size": alg.size,
                "report": report[:5], "algebra": algmod.algebra_to_dict(alg)}
    return None


def _fep(rng: random.Random) -> Optional[dict]:
    """Finite embeddability completions validate and embed."""
    alg = algmod.complex_algebra(gen.random_frame(rng, rng.randrange(1, 4)))
    subset = sorted(rng.sample(range(alg.size),
                               min(rng.randrange(1, 5), alg.size)))
    report = algmod.fep_complete(alg, subset)[2]
    if report:
        return {"suite": "fep", "subset": subset, "report": report[:5],
                "algebra": algmod.algebra_to_dict(alg)}
    return None


def _oracle_agreement(rng: random.Random) -> Optional[dict]:
    """Relational satisfaction == complex-algebra interpretation, two
    independent procedures."""
    small = gen.random_relational_model(rng, rng.randrange(1, 5))
    g = gen.random_formula(rng, 3)
    if not algmod.algebra_satisfaction_agrees(small, g):
        return {"suite": "oracle-agreement", "kind": "algebra/relational",
                "formula": render(g), "model": relmod.frame_to_dict(small)}
    return None


# Each suite's runner and default budget.
SUITES = {
    "soundness": (suite_soundness, 200),
    "persistence": (suite_persistence, 150),
    "residuation": (partial(_rounds, _residuation, "algebras"), 60),
    "representation": (partial(_rounds, _representation, "algebras"), 60),
    "fep": (partial(_rounds, _fep, "completions"), 60),
    "oracle-agreement": (partial(_rounds, _oracle_agreement, "instances"),
                         150),
}


def run_suite(name: str, seed: int = 0, budget: Optional[int] = None
              ) -> Tuple[bool, dict, Optional[dict]]:
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITES)}")
    runner, default = SUITES[name]
    return runner(seed, default if budget is None else budget)
