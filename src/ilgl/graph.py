"""Directed graphs, layering composition, ordered scaffolds, and the
layered-graph satisfaction relation.

Worlds of a model are indices into the scaffold's admissible subgraph list
X; the preorder is stored as its full reflexive-transitive closure.
Satisfaction is relational satisfaction on the scaffold's frame, where
R(i, j, k) holds iff X[i] @ X[j] = X[k].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .formula import Formula
from .relational import (Evaluator, IntLayeredFrame, closure_pairs,
                         upset_masks)

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
    masks = GraphMasks(h.parent, eset)
    out = masks.compose(masks.part(h), masks.part(k))
    return None if out is None else masks.subgraph(out)


Part = Tuple[int, int]  # (vertex mask, edge mask) of a subgraph


def _bits(mask: int) -> List[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class GraphMasks:
    """A graph and its eset as bitmasks over its sorted vertices and
    edges: composition and decomposition on ``Part``s."""

    def __init__(self, graph: DirectedGraph, eset: FrozenSet[Edge]):
        if not eset <= graph.edges:
            raise ValueError("eset must be a subset of the graph's edges")
        self.graph = graph
        self.vertices, self.edges = sorted(graph.vertices), sorted(graph.edges)
        self._vbit = {v: 1 << i for i, v in enumerate(self.vertices)}
        self._ebit = {e: 1 << i for i, e in enumerate(self.edges)}
        # Per edge: the bits of its tail and head vertices.
        self.ends = [(self._vbit[u], self._vbit[v]) for u, v in self.edges]
        self.eset = sum(self._ebit[e] for e in eset)
        self._sums: Dict[int, Tuple[int, int]] = {}

    def sums(self, vm: int) -> Tuple[int, int]:
        """The edges leaving and entering the vertex set ``vm``."""
        got = self._sums.get(vm)
        if got is None:
            out = inn = 0
            for e, (u, v) in enumerate(self.ends):
                if vm & u:
                    out |= 1 << e
                if vm & v:
                    inn |= 1 << e
            got = self._sums[vm] = (out, inn)
        return got

    def inner(self, vm: int) -> int:
        """The edges inside the vertex set ``vm``."""
        out, inn = self.sums(vm)
        return out & inn

    def part(self, sg: Subgraph) -> Part:
        return (sum(self._vbit[v] for v in sg.vertices),
                sum(self._ebit[e] for e in sg.edges))

    def subgraph(self, part: Part) -> Subgraph:
        return Subgraph(frozenset(self.vertices[v] for v in _bits(part[0])),
                        frozenset(self.edges[e] for e in _bits(part[1])),
                        self.graph)

    def compose(self, h: Part, k: Part) -> Optional[Part]:
        """``compose`` on parts."""
        (hv, he), (kv, ke) = h, k
        (h_out, h_in), (k_out, k_in) = self.sums(hv), self.sums(kv)
        between = h_out & k_in & self.eset
        if hv & kv or not between or k_out & h_in & self.eset:
            return None
        return hv | kv, he | ke | between

    def decompositions(self, member: Part) -> List[Tuple[Part, Part]]:
        """Every (h, k) with h @ k equal to ``member``.  Each part carries
        the member's edges on its side.  The left vertices form an up-set
        of a preorder: a member or inner eset edge u->v puts u left when v
        is, and an edge in exactly one of member and eset puts v left when
        u is.  The up-sets with an eset edge from left to right are the
        decompositions."""
        vm, em = member
        if not em & self.eset:  # every composition holds an eset edge
            return []
        up = {1 << v: 1 << v for v in _bits(vm)}
        for e in _bits(em | self.inner(vm) & self.eset):
            u, v = self.ends[e]
            up[v] |= u
            if (em ^ self.eset) >> e & 1:
                up[u] |= v
        for w in up:  # transitive closure, Warshall on bit rows
            for v in up:
                if up[v] & w:
                    up[v] |= up[w]
        return [((left, em & self.inner(left)),
                 (vm ^ left, em & self.inner(vm ^ left)))
                for left in upset_masks(up.values())
                if self.sums(left)[0] & self.sums(vm ^ left)[1] & self.eset]


@dataclass
class OrderedScaffold:
    graph: DirectedGraph
    eset: FrozenSet[Edge]
    subgraphs: List[Subgraph]
    order: FrozenSet[Tuple[int, int]]  # full preorder on X indices

    def __post_init__(self):
        self.masks = GraphMasks(self.graph, self.eset)
        n = len(self.subgraphs)
        self.order = frozenset(
            closure_pairs(self.order, range(n)))
        self.parts = [self.masks.part(sg) for sg in self.subgraphs]
        index = {part: i for i, part in enumerate(self.parts)}
        # Composition table over X: comp[(i, j)] = index of X[i] @ X[j]
        # when that lies in X; the (h, k, h @ k) leaving X are kept apart.
        self._comp: Dict[Tuple[int, int], int] = {}
        self._escapes: Set[Tuple[Part, Part, Part]] = set()
        for i, h in enumerate(self.parts):
            for j, k in enumerate(self.parts):
                out = self.masks.compose(h, k)
                if out in index:
                    self._comp[(i, j)] = index[out]
                elif out is not None:
                    self._escapes.add((h, k, out))

    def leq(self, i: int, j: int) -> bool:
        return (i, j) in self.order

    def composition_index(self, i: int, j: int) -> Optional[int]:
        """Index of X[i] @ X[j]; None when undefined or outside X."""
        return self._comp.get((i, j))


@dataclass
class LayeredGraphModel:
    scaffold: OrderedScaffold
    valuation: Dict[str, FrozenSet[int]]

    def world_count(self) -> int:
        return len(self.scaffold.subgraphs)


def check_admissible(scaffold: OrderedScaffold) -> List[dict]:
    """Violations of the admissibility biconditional, sorted by parts.

    A violating pair has both parts in X and composes outside X, or it
    decomposes a member of X.  Raises InputError when a member has more
    than ``relational.MAX_UPSETS`` candidate splits."""
    masks = scaffold.masks
    in_x = set(scaffold.parts)
    found = set(scaffold._escapes)
    for member in in_x:
        found.update((h, k, member) for h, k in masks.decompositions(member))

    def describe(part: Part) -> dict:
        return subgraph_to_dict(masks.subgraph(part))

    violations = [
        {"left": describe(h), "right": describe(k),
         "composition": describe(out),
         "direction": ("composition missing from X" if out not in in_x
                       else "component missing from X")}
        for h, k, out in found if (h in in_x and k in in_x) != (out in in_x)]
    return sorted(violations, key=lambda v: [
        v[s][f] for s in ("left", "right") for f in ("vertices", "edges")])


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


def validate_model(model: LayeredGraphModel) -> List[dict]:
    problems = [dict(kind="admissibility", **v)
                for v in check_admissible(model.scaffold)]
    problems += [{"kind": "persistence", "atom": p, "below": i, "above": j}
                 for (p, i, j) in check_persistent(model)]
    return problems


def scaffold_to_frame(scaffold: OrderedScaffold) -> IntLayeredFrame:
    """Frame on X with R(i,j,k) iff X[i] @ X[j] is defined and equals X[k]."""
    n = len(scaffold.subgraphs)
    rel = {(i, j, m) for (i, j), m in scaffold._comp.items()}
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

def subgraph_to_dict(sg: Subgraph) -> dict:
    return {"vertices": sorted(sg.vertices),
            "edges": sorted(map(list, sg.edges))}


def model_to_dict(model: LayeredGraphModel) -> dict:
    sc = model.scaffold
    return {
        "vertices": sorted(sc.graph.vertices),
        "edges": sorted(map(list, sc.graph.edges)),
        "eset": sorted(map(list, sc.eset)),
        "X": [subgraph_to_dict(sg) for sg in sc.subgraphs],
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
    from .files import read  # which builds on this module
    return read(path, "model")[1]
