"""Directed graphs, layering composition, ordered scaffolds, and the
layered-graph satisfaction relation.

Worlds of a model are indices into the scaffold's admissible subgraph list
X; the preorder is stored as its full reflexive-transitive closure.
Satisfaction is relational satisfaction on the scaffold's frame, where
R(i, j, k) holds iff X[i] @ X[j] = X[k].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .formula import Formula
from .relational import Evaluator, IntLayeredFrame, closure_pairs

Edge = Tuple[str, str]


@dataclass(frozen=True)
class DirectedGraph:
    vertices: FrozenSet[str]
    edges: FrozenSet[Edge]

    def __post_init__(self):
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u},{v}) leaves the vertex set")


@dataclass(frozen=True)
class Subgraph:
    vertices: FrozenSet[str]
    edges: FrozenSet[Edge]
    parent: DirectedGraph = field(compare=False, repr=False)

    def __post_init__(self):
        if not self.vertices <= self.parent.vertices:
            raise ValueError("subgraph vertices not in parent")
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u},{v}) leaves the subgraph")
            if (u, v) not in self.parent.edges:
                raise ValueError(f"edge ({u},{v}) not in parent")

    def key(self) -> Tuple:
        return (frozenset(self.vertices), frozenset(self.edges))


def _check_parents(h: Subgraph, k: Subgraph) -> None:
    if h.parent is not k.parent and h.parent != k.parent:
        raise ValueError("subgraphs have different parent graphs")


def reaches(h: Subgraph, k: Subgraph, eset: FrozenSet[Edge]) -> bool:
    """True iff some eset edge runs from a vertex of h to one of k."""
    _check_parents(h, k)
    return any(u in h.vertices and v in k.vertices for u, v in eset)


def compose(h: Subgraph, k: Subgraph,
            eset: FrozenSet[Edge]) -> Optional[Subgraph]:
    """Layering composition; None when undefined.

    Defined iff h and k are vertex-disjoint, h reaches k through eset, and
    k does not reach h.  The result is the union of both subgraphs plus the
    eset edges running h-to-k.
    """
    _check_parents(h, k)
    if h.vertices & k.vertices:
        return None
    if not reaches(h, k, eset) or reaches(k, h, eset):
        return None
    between = {(u, v) for u, v in eset
               if u in h.vertices and v in k.vertices}
    return Subgraph(h.vertices | k.vertices,
                    h.edges | k.edges | frozenset(between), h.parent)


@dataclass
class OrderedScaffold:
    graph: DirectedGraph
    eset: FrozenSet[Edge]
    subgraphs: List[Subgraph]
    order: FrozenSet[Tuple[int, int]]  # full preorder on X indices

    def __post_init__(self):
        if not self.eset <= self.graph.edges:
            raise ValueError("eset must be a subset of the graph's edges")
        n = len(self.subgraphs)
        self.order = frozenset(
            closure_pairs(self.order, range(n)))
        self._index: Dict[Tuple, int] = {
            sg.key(): i for i, sg in enumerate(self.subgraphs)}
        # Composition table over X: comp[(i, j)] = index of X[i] @ X[j],
        # None when undefined or when the result lies outside X.
        self._comp: Dict[Tuple[int, int], Optional[int]] = {}
        for i, h in enumerate(self.subgraphs):
            for j, k in enumerate(self.subgraphs):
                out = compose(h, k, self.eset)
                self._comp[(i, j)] = (
                    self._index.get(out.key()) if out is not None else None)

    def leq(self, i: int, j: int) -> bool:
        return (i, j) in self.order

    def composition_index(self, i: int, j: int) -> Optional[int]:
        return self._comp[(i, j)]


@dataclass
class LayeredGraphModel:
    scaffold: OrderedScaffold
    valuation: Dict[str, FrozenSet[int]]

    def world_count(self) -> int:
        return len(self.scaffold.subgraphs)


def _all_decompositions(member: Subgraph, eset):
    """All (h, k) with h @ k equal to ``member``.

    Candidate parts carry exactly the member's edges restricted to their
    side; any valid decomposition has this shape because cross edges can
    only come from eset.
    """
    verts = sorted(member.vertices)
    n = len(verts)
    if n < 2 or n > 12:
        return
    for mask in range(1, 2 ** n - 1):
        left = frozenset(v for b, v in enumerate(verts) if mask >> b & 1)
        right = member.vertices - left
        h = Subgraph(left, frozenset((u, v) for u, v in member.edges
                                     if u in left and v in left),
                     member.parent)
        k = Subgraph(right, frozenset((u, v) for u, v in member.edges
                                      if u in right and v in right),
                     member.parent)
        out = compose(h, k, eset)
        if out is not None and out.key() == member.key():
            yield h, k


def _all_subgraphs(graph: DirectedGraph, limit: int = 20000):
    verts = sorted(graph.vertices)
    n = len(verts)
    count = 0
    for vmask in range(2 ** n):
        vs = frozenset(v for b, v in enumerate(verts) if vmask >> b & 1)
        inner = sorted((u, v) for u, v in graph.edges
                       if u in vs and v in vs)
        m = len(inner)
        for emask in range(2 ** m):
            count += 1
            if count > limit:
                raise ValueError(
                    f"more than {limit} subgraphs; exhaustive check refused")
            yield Subgraph(vs, frozenset(
                e for b, e in enumerate(inner) if emask >> b & 1), graph)


def check_admissible(scaffold: OrderedScaffold,
                     exhaustive: bool = False) -> List[dict]:
    """Violations of the admissibility biconditional, empty iff admissible.

    Default scope: all pairs from X plus single-vertex subgraphs, and all
    decompositions of members of X (members above 12 vertices are not
    decomposed).  With ``exhaustive`` every subgraph of the ambient graph
    is considered (refused above 12 vertices).
    """
    violations = []
    eset = scaffold.eset
    in_x = set(scaffold._index)

    def describe(sg: Subgraph) -> dict:
        return {"vertices": sorted(sg.vertices),
                "edges": sorted(map(list, sg.edges))}

    def check_pair(h: Subgraph, k: Subgraph) -> None:
        out = compose(h, k, eset)
        if out is None:
            return
        components_in = h.key() in in_x and k.key() in in_x
        if components_in != (out.key() in in_x):
            violations.append({
                "left": describe(h), "right": describe(k),
                "composition": describe(out),
                "direction": ("composition missing from X"
                              if components_in else
                              "component missing from X")})

    pool = {sg.key(): sg for sg in scaffold.subgraphs}
    for v in scaffold.graph.vertices:
        single = Subgraph(frozenset([v]), frozenset(), scaffold.graph)
        pool.setdefault(single.key(), single)
    for member in scaffold.subgraphs:
        for h, k in _all_decompositions(member, eset):
            pool.setdefault(h.key(), h)
            pool.setdefault(k.key(), k)
    if exhaustive:
        if len(scaffold.graph.vertices) > 12:
            raise ValueError("exhaustive admissibility check capped at "
                             "12 vertices")
        for sg in _all_subgraphs(scaffold.graph):
            pool.setdefault(sg.key(), sg)
    items = list(pool.values())
    for h in items:
        for k in items:
            check_pair(h, k)
    return violations


def check_persistent(model: LayeredGraphModel) -> List[tuple]:
    """All (atom, i, j) with i below j but only i in the atom's extension."""
    bad = []
    sc = model.scaffold
    for atom, worlds in sorted(model.valuation.items()):
        for i in worlds:
            for j in range(len(sc.subgraphs)):
                if sc.leq(i, j) and j not in worlds:
                    bad.append((atom, i, j))
    return bad


def validate_model(model: LayeredGraphModel,
                   exhaustive: bool = False) -> List[dict]:
    problems = [dict(kind="admissibility", **v)
                for v in check_admissible(model.scaffold, exhaustive)]
    problems += [{"kind": "persistence", "atom": p, "below": i, "above": j}
                 for (p, i, j) in check_persistent(model)]
    return problems


def scaffold_to_frame(scaffold: OrderedScaffold) -> IntLayeredFrame:
    """Frame on X with R(i,j,k) iff X[i] @ X[j] is defined and equals X[k]."""
    n = len(scaffold.subgraphs)
    rel = {(i, j, m) for (i, j), m in scaffold._comp.items()
           if m is not None}
    return IntLayeredFrame(n, scaffold.order, frozenset(rel))


def model_evaluator(model: LayeredGraphModel) -> Evaluator:
    """One evaluator for every satisfaction query on ``model``."""
    return Evaluator(scaffold_to_frame(model.scaffold), model.valuation)


def satisfies(model: LayeredGraphModel, world: int, f: Formula) -> bool:
    """Satisfaction at a world (an index into the scaffold's X list)."""
    return model_evaluator(model).sat(world, f)


def valid_in_model(model: LayeredGraphModel, f: Formula) -> bool:
    """True iff every world of the model satisfies ``f``."""
    ev = model_evaluator(model)
    return all(ev.sat(w, f) for w in range(ev.n))


# -- JSON model format --------------------------------------------------

def model_to_dict(model: LayeredGraphModel) -> dict:
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


def model_from_dict(data: dict) -> LayeredGraphModel:
    # Vertex ids are strings; numeric ids in hand-written files are
    # normalized on load.
    def edge(e) -> Edge:
        u, v = e
        return (str(u), str(v))

    graph = DirectedGraph(frozenset(str(v) for v in data["vertices"]),
                          frozenset(edge(e) for e in data["edges"]))
    subgraphs = [Subgraph(frozenset(str(v) for v in sg["vertices"]),
                          frozenset(edge(e) for e in sg["edges"]), graph)
                 for sg in data["X"]]
    scaffold = OrderedScaffold(
        graph, frozenset(edge(e) for e in data["eset"]), subgraphs,
        frozenset((int(i), int(j)) for i, j in data.get("order", [])))
    valuation = {p: frozenset(int(i) for i in ws)
                 for p, ws in data.get("valuation", {}).items()}
    n = len(subgraphs)
    for p, ws in valuation.items():
        for i in ws:
            if not 0 <= i < n:
                raise ValueError(f"valuation of {p!r} mentions world {i}")
    return LayeredGraphModel(scaffold, valuation)


def load_model(path: str) -> LayeredGraphModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
