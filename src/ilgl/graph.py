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

from .formula import Formula, InputError
from .relational import (MAX_FRAME_WORLDS, Evaluator, IntLayeredFrame, bits,
                         closure_rows, persistence_failures, upset_masks,
                         valuation_from_dict, world_ids)

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


Part = Tuple[int, int]  # (vertex mask, edge mask) of a subgraph


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
        self.eset = sum(map(self._ebit.__getitem__, eset))
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
        return (sum(map(self._vbit.__getitem__, sg.vertices)),
                sum(map(self._ebit.__getitem__, sg.edges)))

    def subgraph(self, part: Part) -> Subgraph:
        return Subgraph(frozenset(self.vertices[v] for v in bits(part[0])),
                        frozenset(self.edges[e] for e in bits(part[1])),
                        self.graph)

    def compose(self, h: Part, k: Part) -> Optional[Part]:
        """Layering composition of two parts; None when undefined.

        Defined iff h and k are vertex-disjoint, h reaches k through eset,
        and k does not reach h.  The result is the union of both parts
        plus the eset edges running h-to-k."""
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
        up = {1 << v: 1 << v for v in bits(vm)}
        for e in bits(em | self.inner(vm) & self.eset):
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
                # the empty up-set and the whole split off an empty part
                for left in upset_masks(up.values())[1:-1]
                if self.sums(left)[0] & self.sums(vm ^ left)[1] & self.eset]


@dataclass
class OrderedScaffold:
    graph: DirectedGraph
    eset: FrozenSet[Edge]
    subgraphs: List[Subgraph]
    order: FrozenSet[Tuple[int, int]]  # full preorder on X indices

    def __post_init__(self):
        self.masks = masks = GraphMasks(self.graph, self.eset)
        n = len(self.subgraphs)
        # The preorder as bit rows: up[i] holds the members at or above i.
        self.order = frozenset(self.order)
        self.up = closure_rows(self.order, range(n))
        if len(self.order) < sum(map(int.bit_count, self.up)):  # not closed
            self.order = frozenset((i, j) for i in range(n)
                                   for j in bits(self.up[i]))
        self.parts = [masks.part(sg) for sg in self.subgraphs]
        index = {part: i for i, part in enumerate(self.parts)}
        if len(index) < n:  # X is a set: a copy would be a second world
            j = next(j for j, part in enumerate(self.parts)
                     if index[part] != j)
            raise ValueError(f"X[{j}] and X[{index[self.parts[j]]}] are "
                             "the same subgraph")
        # Composition table over X: comp[(i, j)] = index of X[i] @ X[j]
        # when that lies in X; the (h, k, h @ k) leaving X are kept apart.
        # X[i] @ X[j] needs an eset edge from X[i] into X[j], which are
        # disjoint, so only a member holding the tail of one but not its
        # head and a member holding its head but not its tail compose.
        self._comp: Dict[Tuple[int, int], int] = {}
        self._escapes: Set[Tuple[Part, Part, Part]] = set()
        joined = set()
        for e in bits(masks.eset):
            tail, head = masks.ends[e]
            tails = [i for i, (vm, _) in enumerate(self.parts)
                     if vm & (tail | head) == tail]
            joined.update((i, j) for j, (vm, _) in enumerate(self.parts)
                          if vm & (tail | head) == head for i in tails)
        for i, j in joined:
            h, k = self.parts[i], self.parts[j]
            out = masks.compose(h, k)
            if out in index:
                self._comp[(i, j)] = index[out]
            elif out is not None:
                self._escapes.add((h, k, out))

    def leq(self, i: int, j: int) -> bool:
        return self.up[i] >> j & 1 == 1


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
    if not found:
        return []

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
    return persistence_failures(model.valuation, model.world_count(),
                                model.scaffold.leq)


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
    return Evaluator(scaffold_to_frame(model.scaffold), model.valuation,
                     up=model.scaffold.up)


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
    # The scaffold composes every pair of members of X, so their number
    # is held to the frame bound before any subgraph is built.
    if len(data["X"]) > MAX_FRAME_WORLDS:
        raise InputError(f"{len(data['X'])} members of X exceed the frame "
                         f"bound {MAX_FRAME_WORLDS}")
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
        frozenset((i, j) for i, j in (world_ids(pair, f"order pair {pair!r}")
                                      for pair in data.get("order", []))))
    return LayeredGraphModel(scaffold,
                             valuation_from_dict(data, len(subgraphs)))


def load_model(path: str) -> LayeredGraphModel:
    from .files import read  # which builds on this module
    return read(path, "model")[1]
