"""Batch cross-validation suites tying the prover, the validity oracle,
the complex algebras and the satisfaction relation together.

Layered-graph, relational and predicate satisfaction share one set of
clauses (``relational.Evaluator``); the graph semantics is the relational
one on the scaffold's frame.  The suites therefore pair independent
procedures: prover against oracle and graph models, relational clauses
against complex-algebra tables, and persistence of each semantics.

Each suite runs a seeded sweep and returns (ok, summary, repro): on
failure ``repro`` is a JSON-ready reproduction of the first (shrunk where
possible) failing instance.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Tuple

from . import algebra as algmod
from . import gen
from . import graph as graphmod
from . import relational as relmod
from . import tableaux
from .formula import (Contains, Exists, Forall, Formula, InputError, PointsTo,
                      render, subformulas)
from .predicate import (LinkGraphSpec, build_bigraph_scaffold,
                        resource_evaluator)

SUITES = ("soundness", "persistence", "residuation", "representation",
          "fep", "oracle-agreement")


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


def suite_persistence(seed: int, budget: int
                      ) -> Tuple[bool, dict, Optional[dict]]:
    """Satisfaction is upward closed along the order, in all three
    semantics, each checked with one evaluator per model."""
    rng = random.Random(seed)
    checked = 0

    def lost_going_up(n: int, leq, holds) -> Optional[Tuple[int, int]]:
        # First (below, above) pair in row-major order where ``holds`` is
        # lost; every pair looked at before it counts as checked.
        nonlocal checked
        for a in range(n):
            for b in range(n):
                if leq(a, b) and holds(a) and not holds(b):
                    return a, b
                checked += 1
        return None

    for i in range(budget):
        model = gen.random_graph_model(rng)
        f = gen.random_formula(rng, 3)
        ev = graphmod.model_evaluator(model)
        bad = lost_going_up(model.world_count(), model.scaffold.leq,
                            lambda w: ev.sat(w, f))
        if bad:
            return False, {"checked": checked}, {
                "suite": "persistence", "semantics": "graph",
                "formula": render(f), "below": bad[0], "above": bad[1],
                "model": graphmod.model_to_dict(model)}
        rmodel = gen.random_relational_model(rng, rng.randrange(1, 5))
        g = gen.random_formula(rng, 3)
        ev = relmod.Evaluator(rmodel.frame, rmodel.valuation)
        bad = lost_going_up(rmodel.frame.worlds, rmodel.frame.leq,
                            lambda w: ev.sat(w, g))
        if bad:
            return False, {"checked": checked}, {
                "suite": "persistence", "semantics": "relational",
                "formula": render(g),
                "model": relmod.frame_to_dict(rmodel),
                "below": bad[0], "above": bad[1]}
    rm = _bigraph_fixture()
    ev = resource_evaluator(rm)
    pformulas = [Contains("r1"), PointsTo("r1", "r2"),
                 Exists("s", Contains("s")),
                 Forall("s", Contains("s"))]
    rng2 = random.Random(seed + 1)
    for _ in range(min(budget, 60)):
        s = frozenset({"r1": rng2.choice(ev.upsets),
                       "r2": rng2.choice(ev.upsets)}.items())
        pf = rng2.choice(pformulas)
        bad = lost_going_up(rm.model.world_count(), rm.model.scaffold.leq,
                            lambda w: ev.sat(w, pf, s))
        if bad:
            return False, {"checked": checked}, {
                "suite": "persistence", "semantics": "predicate",
                "world_below": bad[0], "world_above": bad[1]}
    return True, {"pairs": checked}, None


def suite_residuation(seed: int, budget: int
                      ) -> Tuple[bool, dict, Optional[dict]]:
    """Derived residuated-structure laws on complex algebras of random
    frames: monotonicity, bottom absorption, unit laws, join distribution."""
    rng = random.Random(seed)
    for i in range(budget):
        frame = gen.random_frame(rng, rng.randrange(1, 5))
        alg = algmod.complex_algebra(frame)
        issues = algmod.validate_algebra(alg)
        if issues:
            return False, {"checked": i}, {
                "suite": "residuation", "frame": {
                    "worlds": frame.worlds,
                    "order": sorted(map(list, frame.order)),
                    "rel": sorted(map(list, frame.rel))},
                "issues": issues[:5]}
        n = alg.size
        for a in range(n):
            for b in range(n):
                if alg.lconj[alg.bot][a] != alg.bot \
                        or alg.lconj[a][alg.bot] != alg.bot:
                    return False, {}, {"suite": "residuation",
                                       "law": "bottom absorption"}
                if alg.rres[a][alg.top] != alg.top \
                        or alg.lres[a][alg.top] != alg.top \
                        or alg.rres[alg.bot][a] != alg.top \
                        or alg.lres[alg.bot][a] != alg.top:
                    return False, {}, {"suite": "residuation",
                                       "law": "unit laws"}
                for a2 in range(n):
                    for b2 in range(n):
                        if alg.le(a, a2) and alg.le(b, b2) and not alg.le(
                                alg.lconj[a][b], alg.lconj[a2][b2]):
                            return False, {}, {"suite": "residuation",
                                               "law": "monotonicity"}
                        join_ab = alg.join[a][a2]
                        lhs = alg.lconj[join_ab][alg.join[b][b2]]
                        rhs = alg.join[
                            alg.join[alg.lconj[a][b]][alg.lconj[a][b2]]][
                            alg.join[alg.lconj[a2][b]][alg.lconj[a2][b2]]]
                        if lhs != rhs:
                            return False, {}, {"suite": "residuation",
                                               "law": "join distribution"}
    return True, {"algebras": budget}, None


def suite_representation(seed: int, budget: int
                         ) -> Tuple[bool, dict, Optional[dict]]:
    """The prime-filter embedding verifies on random complex algebras."""
    rng = random.Random(seed)
    for i in range(budget):
        frame = gen.random_frame(rng, rng.randrange(1, 4))
        alg = algmod.complex_algebra(frame)
        _, report = algmod.representation_embed(alg)
        if report:
            return False, {"checked": i}, {
                "suite": "representation", "size": alg.size,
                "report": report[:5],
                "algebra": algmod.algebra_to_dict(alg)}
    return True, {"algebras": budget}, None


def suite_fep(seed: int, budget: int) -> Tuple[bool, dict, Optional[dict]]:
    """Finite embeddability completions validate and embed."""
    rng = random.Random(seed)
    for i in range(budget):
        frame = gen.random_frame(rng, rng.randrange(1, 4))
        alg = algmod.complex_algebra(frame)
        if alg.size > 8:
            continue
        size = rng.randrange(1, 5)
        subset = sorted(rng.sample(range(alg.size),
                                   min(size, alg.size)))
        _, _, report = algmod.fep_complete(alg, subset)
        if report:
            return False, {"checked": i}, {
                "suite": "fep", "subset": subset, "report": report[:5],
                "algebra": algmod.algebra_to_dict(alg)}
    return True, {"completions": budget}, None


def suite_oracle_agreement(seed: int, budget: int
                           ) -> Tuple[bool, dict, Optional[dict]]:
    """Relational satisfaction == complex-algebra interpretation, two
    independent procedures."""
    rng = random.Random(seed)
    for i in range(budget):
        small = gen.random_relational_model(rng, rng.randrange(1, 5))
        g = gen.random_formula(rng, 3)
        if not algmod.algebra_satisfaction_agrees(small, g):
            return False, {"checked": i}, {
                "suite": "oracle-agreement", "kind": "algebra/relational",
                "formula": render(g), "model": relmod.frame_to_dict(small)}
    return True, {"instances": budget}, None


_DEFAULT_BUDGETS = {
    "soundness": 200, "persistence": 150, "residuation": 60,
    "representation": 60, "fep": 60, "oracle-agreement": 150,
}

_RUNNERS = {
    "soundness": suite_soundness,
    "persistence": suite_persistence,
    "residuation": suite_residuation,
    "representation": suite_representation,
    "fep": suite_fep,
    "oracle-agreement": suite_oracle_agreement,
}


def run_suite(name: str, seed: int = 0, budget: Optional[int] = None
              ) -> Tuple[bool, dict, Optional[dict]]:
    if name not in _RUNNERS:
        raise InputError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITES)}")
    return _RUNNERS[name](seed, budget or _DEFAULT_BUDGETS[name])
