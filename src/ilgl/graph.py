"""Directed graphs, layering composition, ordered scaffolds, and the
layered-graph satisfaction relation.

Worlds of a model are indices into the scaffold's admissible subgraph list
X; the preorder is stored as its full reflexive-transitive closure.
Satisfaction is relational satisfaction on the frame the scaffold
carries, where R(i, j, k) holds iff X[i] @ X[j] = X[k].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .formula import Formula, InputError
from .relational import (MAX_FRAME_WORLDS, Evaluator, IntLayeredFrame, bits,
                         closure_rows, json_list,
                         persistence_failures, upset_masks,
                         valuation_from_dict)

Edge = Tuple[str, str]


def _check_edges(vertices: FrozenSet[str], edges: FrozenSet[Edge],
                 what: str) -> None:
    """Raises ValueError naming the least edge with an end outside
    ``vertices``, the vertices of ``what``."""
    for u, v in edges:
        if u not in vertices or v not in vertices:
            stray = min(e for e in edges if not vertices.issuperset(e))
            raise ValueError(f"edge {list(stray)} leaves {what}")


@dataclass(frozen=True)
class DirectedGraph:
    vertices: FrozenSet[str]
    edges: FrozenSet[Edge]

    def __post_init__(self):
        _check_edges(self.vertices, self.edges, "the vertex set")


@dataclass(frozen=True)
class Subgraph:
    vertices: FrozenSet[str]
    edges: FrozenSet[Edge]
    parent: DirectedGraph = field(compare=False, repr=False)

    def __post_init__(self):
        # A message names the least vertex or edge at fault.
        if not self.vertices <= self.parent.vertices:
            stray = min(self.vertices - self.parent.vertices)
            raise ValueError(f"vertex {stray!r} is not a vertex of the graph")
        if not self.edges <= self.parent.edges:
            stray = min(self.edges - self.parent.edges)
            raise ValueError(f"edge {list(stray)} is not an edge of the graph")
        _check_edges(self.vertices, self.edges, "the subgraph")


Part = Tuple[int, int]  # (vertex mask, edge mask) of a subgraph


class GraphMasks:
    """A graph and its eset as bitmasks over its sorted vertices and
    edges: composition and decomposition on ``Part``s."""

    def __init__(self, graph: DirectedGraph, eset: FrozenSet[Edge]):
        if not eset <= graph.edges:
            stray = min(eset - graph.edges)
            raise ValueError(f"eset edge {list(stray)} is not an edge of "
                             "the graph")
        self.graph = graph
        self.vertices, self.edges = sorted(graph.vertices), sorted(graph.edges)
        # Each vertex's bit: the one numbering of the graph's vertices.
        self.vbit = {v: 1 << i for i, v in enumerate(self.vertices)}
        self.ebit = {e: 1 << i for i, e in enumerate(self.edges)}
        # Per edge: the bits of its tail and head vertices.
        self.ends = [(self.vbit[u], self.vbit[v]) for u, v in self.edges]
        self.eset = sum(map(self.ebit.__getitem__, eset))
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

    def part(self, vertices: Iterable[str], edges: Iterable[Edge]) -> Part:
        return (sum(map(self.vbit.__getitem__, vertices)),
                sum(map(self.ebit.__getitem__, edges)))

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
    """A graph's masks, the admissible subgraphs X as parts and a preorder
    on X.  Built once: the order is closed, X is checked to be a set, and
    ``frame`` is the layered frame the scaffold induces, with worlds the
    indices of X, the closed order, and R(i, j, k) iff X[i] @ X[j] =
    X[k].  Every reader of a model's order or relation reads ``frame``;
    the eset and X as ``Subgraph``s are made for output, when read."""
    masks: GraphMasks
    parts: List[Part]
    order: FrozenSet[Tuple[int, int]]  # full preorder on X indices

    @cached_property
    def eset(self) -> FrozenSet[Edge]:
        return frozenset(self.masks.edges[e] for e in bits(self.masks.eset))

    @cached_property
    def subgraphs(self) -> List[Subgraph]:
        return list(map(self.masks.subgraph, self.parts))

    def __post_init__(self):
        masks = self.masks
        self.graph: DirectedGraph = masks.graph
        n = len(self.parts)
        # Close the preorder: up[i] holds the members at or above i.
        self.order = frozenset(self.order)
        up = closure_rows(self.order, range(n))
        if len(self.order) < sum(map(int.bit_count, up)):  # not closed
            self.order = frozenset((i, j) for i in range(n)
                                   for j in bits(up[i]))
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
        self.frame = IntLayeredFrame(n, self.order, frozenset(
            (i, j, m) for (i, j), m in self._comp.items()))


@dataclass
class LayeredGraphModel:
    scaffold: OrderedScaffold
    valuation: Dict[str, FrozenSet[int]]

    def world_count(self) -> int:
        return self.scaffold.frame.worlds


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


def validate_model(model: LayeredGraphModel) -> List[dict]:
    problems = [dict(kind="admissibility", **v)
                for v in check_admissible(model.scaffold)]
    problems += [{"kind": "persistence", "atom": p, "below": i, "above": j}
                 for (p, i, j) in persistence_failures(
                     model.valuation, model.world_count(),
                     model.scaffold.frame.leq)]
    return problems


def model_evaluator(model: LayeredGraphModel) -> Evaluator:
    """One evaluator for every satisfaction query on ``model``, on the
    frame its scaffold carries."""
    return Evaluator(model.scaffold.frame, model.valuation)


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


def _distinct(items: list, what: str, noun: str) -> frozenset:
    """``items`` as a set; the least item listed twice is refused."""
    found = frozenset(items)
    if len(found) < len(items):
        items = sorted(items)
        twice = next(a for a, b in zip(items, items[1:]) if a == b)
        shown = list(twice) if type(twice) is tuple else twice
        raise InputError(f"{what} lists {noun} {shown!r} twice")
    return found


def vertex_set(ids, what: str) -> FrozenSet[str]:
    """A file's list of distinct vertex ids, as strings: numeric ids in
    hand-written files are normalized on load."""
    return _distinct(list(map(str, json_list(ids, what, "a vertex id"))),
                     what, "vertex")


def vertex_pairs(pairs, what: str, each: str) -> FrozenSet[Edge]:
    """A file's list of distinct pairs of vertex ids, as string pairs."""
    return _distinct([(str(u), str(v)) for u, v in json_list(
        json_list(pairs, what), each, "a vertex id", 2)], what, "pair")


def model_from_dict(data: dict) -> LayeredGraphModel:
    # The scaffold composes every pair of members of X, so their number
    # is held to the frame bound before any subgraph is built.
    members = json_list(data["X"], "X")
    if len(members) > MAX_FRAME_WORLDS:
        raise InputError(f"{len(members)} members of X exceed the frame "
                         f"bound {MAX_FRAME_WORLDS}")
    graph = DirectedGraph(vertex_set(data["vertices"], "vertices"),
                          vertex_pairs(data["edges"], "edges", "edge"))
    subgraphs = []
    for j, sg in enumerate(members):
        if type(sg) is not dict:
            raise InputError(f"X[{j}] is {sg!r:.40}, not an object")
        vertices = vertex_set(sg["vertices"], f"X[{j}] vertices")
        edges = vertex_pairs(sg["edges"], f"X[{j}] edges", f"X[{j}] edge")
        try:
            subgraphs.append(Subgraph(vertices, edges, graph))
        except ValueError as exc:
            raise InputError(f"X[{j}] {exc}") from None
    eset = vertex_pairs(data["eset"], "eset", "eset edge")
    order = json_list(json_list(data.get("order", []), "order"),
                      "order pair", "a world id", 2)
    masks = GraphMasks(graph, eset)
    parts = [masks.part(sg.vertices, sg.edges) for sg in subgraphs]
    scaffold = OrderedScaffold(masks, parts, frozenset(map(tuple, order)))
    return LayeredGraphModel(scaffold,
                             valuation_from_dict(data, len(subgraphs)))


def load_model(path: str) -> LayeredGraphModel:
    from .files import read  # which builds on this module
    return read(path, "model")[1]
