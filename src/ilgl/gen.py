"""Seeded random generators for formulas, frames, scaffolds, and models.

Used by the crosscheck suites and the test sweeps; everything is driven by
an explicit random.Random so runs are reproducible from a seed.
"""

from __future__ import annotations

import random
from typing import Optional

from .formula import BINARY_NODES, Atom, Bot, Formula, Top
from .graph import (DirectedGraph, GraphMasks, LayeredGraphModel,
                    OrderedScaffold, check_admissible)
from .relational import (IntLayeredFrame, RelationalModel, closure_pairs,
                         principal_upsets)

ATOM_NAMES = ("p", "q", "r")


def random_formula(rng: random.Random, max_depth: int = 4) -> Formula:
    if max_depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return Top()
        if roll < 0.2:
            return Bot()
        return Atom(rng.choice(ATOM_NAMES))
    cls = rng.choice(BINARY_NODES)
    return cls(random_formula(rng, max_depth - 1),
               random_formula(rng, max_depth - 1))


def random_preorder(rng: random.Random, n: int) -> frozenset:
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < 0.3]
    return frozenset(closure_pairs(pairs, range(n)))


def random_frame(rng: random.Random, worlds: int) -> IntLayeredFrame:
    order = random_preorder(rng, worlds)
    k = rng.randrange(worlds + 2)
    triples = [(rng.randrange(worlds), rng.randrange(worlds),
                rng.randrange(worlds)) for _ in range(k)]
    return IntLayeredFrame(worlds, order, frozenset(triples))


def _random_valuation(rng: random.Random, n: int, order) -> dict:
    """Each atom true on the up-closure of a random seed set of worlds:
    the union of the seeds' principal up-sets."""
    up = principal_upsets(n, order)
    valuation = {}
    for p in ATOM_NAMES:
        mask = 0
        for w in range(n):
            if rng.random() < 0.4:
                mask |= up[w]
        valuation[p] = frozenset(w for w in range(n) if mask >> w & 1)
    return valuation


def random_relational_model(rng: random.Random, worlds: int
                            ) -> RelationalModel:
    frame = random_frame(rng, worlds)
    return RelationalModel(frame,
                           _random_valuation(rng, worlds, frame.order))


def random_scaffold(rng: random.Random) -> OrderedScaffold:
    """A random admissible ordered scaffold (retries, up to 40 times,
    until the admissibility repair loop converges small enough)."""
    for _ in range(40):
        scaffold = _try_scaffold(rng)
        if scaffold is not None and not check_admissible(scaffold):
            return scaffold
    raise RuntimeError("could not generate an admissible scaffold")


def _try_scaffold(rng: random.Random) -> Optional[OrderedScaffold]:
    n = rng.randrange(3, 7)
    names = [f"v{i}" for i in range(n)]
    edges = {(a, b) for a in names for b in names
             if a != b and rng.random() < 0.25}
    graph = DirectedGraph(frozenset(names), frozenset(edges))
    # Draw over a sorted list: set order depends on the hash seed.
    eset = frozenset(e for e in sorted(edges) if rng.random() < 0.6)

    masks = GraphMasks(graph, eset)
    pool = set()
    free = list(names)
    rng.shuffle(free)
    while free:
        take = min(len(free), rng.choice([1, 1, 2]))
        part, free = free[:take], free[take:]
        if rng.random() < 0.8:  # the part with its non-eset edges
            vm = sum(1 << masks.vertices.index(v) for v in part)
            pool.add((vm, masks.inner(vm) & ~masks.eset))
    if not pool:
        return None
    # Close under composition and decomposition so the admissibility
    # biconditional has no witnesses against X.
    for _ in range(12):
        members = list(pool)
        if len(members) > 25:
            return None
        grown = {masks.compose(h, k) for h in members for k in members}
        grown.discard(None)
        for m in members:
            for h, k in masks.decompositions(m):
                grown.update((h, k))
        if grown <= pool:
            break
        pool |= grown
    else:
        return None
    subgraphs = sorted(map(masks.subgraph, pool),
                       key=lambda s: (sorted(s.vertices), sorted(s.edges)))
    m = len(subgraphs)
    order_pairs = [(i, j) for i in range(m) for j in range(m)
                   if i != j and rng.random() < 0.15]
    return OrderedScaffold(graph, eset, subgraphs, frozenset(order_pairs))


def random_graph_model(rng: random.Random) -> LayeredGraphModel:
    scaffold = random_scaffold(rng)
    return LayeredGraphModel(scaffold, _random_valuation(
        rng, len(scaffold.subgraphs), scaffold.order))
