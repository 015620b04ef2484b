"""Finite-instance model checking for predicate ILGL over bigraph resource
models: Contains / points-to atoms and intuitionistic quantifiers ranging
over up-closed vertex sets of the placement order.

Formulas are parsed by ``formula.parse_pred`` and checked by the shared
satisfaction clauses of ``relational.Evaluator`` on the scaffold's frame.
The quantifier domain is fully enumerated, so models are capped at 14
placement vertices (16384 up-sets worst case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .formula import (BINARY_NODES, QUANT_NODES, Contains, Formula,
                      InputError, PointsTo)
from .graph import (DirectedGraph, GraphMasks, LayeredGraphModel,
                    OrderedScaffold, Subgraph, model_from_dict,
                    model_to_dict, scaffold_to_frame)
from .relational import (Evaluator, closure_pairs, principal_upsets,
                         upset_masks)

MAX_PLACEMENT_VERTICES = 14


def free_resources(f: Formula) -> Set[str]:
    if isinstance(f, Contains):
        return {f.resource}
    if isinstance(f, PointsTo):
        return {f.source, f.target}
    if isinstance(f, BINARY_NODES):
        return free_resources(f.left) | free_resources(f.right)
    if isinstance(f, QUANT_NODES):
        return free_resources(f.body) - {f.var}
    return set()


# -- resource models -------------------------------------------------------

@dataclass
class ResourceModel:
    model: LayeredGraphModel
    placement: FrozenSet[Tuple[str, str]]  # preorder on place vertices
    resources: FrozenSet[str]

    def __post_init__(self):
        domain = {v for pair in self.placement for v in pair}
        self.place_vertices = frozenset(domain)
        self.placement = frozenset(closure_pairs(self.placement, domain))

    def place_leq(self, u: str, v: str) -> bool:
        return (u, v) in self.placement


ResourceAssignment = Dict[str, FrozenSet[str]]


def check_assignment(rm: ResourceModel, s: ResourceAssignment) -> List[str]:
    problems = []
    for r, block in sorted(s.items()):
        for v in block:
            if v not in rm.place_vertices:
                problems.append(f"{r}: {v} is not a placement vertex")
            for w in rm.place_vertices:
                if rm.place_leq(v, w) and w not in block:
                    problems.append(f"{r}: not up-closed at {v} <= {w}")
    return problems


def enumerate_upsets(placement: FrozenSet[Tuple[str, str]]
                     ) -> Iterator[FrozenSet[str]]:
    """Every up-closed vertex set of the placement preorder, exactly once."""
    domain = sorted({v for pair in placement for v in pair})
    if len(domain) > MAX_PLACEMENT_VERTICES:
        raise InputError(
            f"{len(domain)} placement vertices exceed the quantifier cap "
            f"of {MAX_PLACEMENT_VERTICES}; shrink the model")
    pos = {v: j for j, v in enumerate(domain)}
    order = {(pos[u], pos[v]) for u, v in closure_pairs(placement, domain)}
    for mask in upset_masks(principal_upsets(len(domain), order)):
        yield frozenset(v for j, v in enumerate(domain) if mask >> j & 1)


def resource_evaluator(rm: ResourceModel) -> Evaluator:
    """One evaluator for every predicate query on ``rm``; its quantifiers
    range over the up-sets of the placement order."""
    sc = rm.model.scaffold
    return Evaluator(scaffold_to_frame(sc), rm.model.valuation,
                     sc.subgraphs, list(enumerate_upsets(rm.placement)))


def pred_satisfies(rm: ResourceModel, s: ResourceAssignment, world: int,
                   f: Formula) -> bool:
    """Satisfaction of a predicate formula at a world under an assignment."""
    missing = free_resources(f) - set(s)
    if missing:
        raise KeyError(f"unbound resources: {sorted(missing)}")
    return resource_evaluator(rm).sat(world, f, frozenset(s.items()))


def pred_valid_in_model(rm: ResourceModel, f: Formula) -> bool:
    """True iff the sentence ``f`` holds at every world of the model."""
    missing = free_resources(f)
    if missing:
        raise KeyError(f"unbound resources: {sorted(missing)}")
    ev = resource_evaluator(rm)
    return all(ev.sat(w, f) for w in range(ev.n))


# -- bigraph scaffold construction -----------------------------------------

@dataclass
class LinkGraphSpec:
    """One bigraph's link structure: hyperedges over its nodes and
    interface names.

    Members listed in ``targets`` receive their hub edge (hub feeds them);
    outer names always do.  Everything else feeds its hub.
    """
    nodes: List[str]
    inner: List[str]
    outer: List[str]
    hyperedges: List[List[str]]
    targets: List[str] = field(default_factory=list)


def build_bigraph_scaffold(place_forests: List[Dict[str, Optional[str]]],
                           link_graphs: List[LinkGraphSpec],
                           interface_edges: List[Tuple[str, str]],
                           resources: Iterator[str] = ()) -> ResourceModel:
    """Encode a system of composed bigraphs as a resource model.

    Each hyperedge becomes a hub vertex with one edge per connection:
    nodes and inner names feed the hub, the hub feeds outer names (flow
    runs toward the outer interface).  Interface edges wire outer names of
    one bigraph to inner names of another and constitute the distinguished
    edge set.  The admissible set is the singleton place vertices plus the
    link graphs closed under composition; the order is the place
    containment (descendant below ancestor) with link-graph worlds only
    reflexively related.
    """
    if len(place_forests) != len(link_graphs):
        raise ValueError("one place forest per link graph is required")
    all_vertices: Set[str] = set()
    edges: Set[Tuple[str, str]] = set()
    link_worlds: List[Tuple[Set[str], Set[Tuple[str, str]]]] = []
    for bi, (forest, link) in enumerate(zip(place_forests, link_graphs)):
        verts = set(forest) | set(link.nodes)
        for child, parent in forest.items():
            if parent is not None and parent not in forest:
                raise ValueError(f"parent {parent!r} missing from forest")
        names = set(link.inner) | set(link.outer)
        if names & verts:
            raise ValueError(f"name collision in bigraph {bi}: "
                             f"{sorted(names & verts)}")
        member_vertices = verts | names
        if member_vertices & all_vertices:
            raise ValueError(f"vertex collision across bigraphs: "
                             f"{sorted(member_vertices & all_vertices)}")
        all_vertices |= member_vertices
        link_edges: Set[Tuple[str, str]] = set()
        inner, outer = set(link.inner), set(link.outer)
        for k, members in enumerate(link.hyperedges):
            hub = f"b{bi}_e{k}"
            if hub in all_vertices:
                raise ValueError(f"vertex collision on hub {hub!r}")
            all_vertices.add(hub)
            member_vertices.add(hub)
            for m in members:
                if m not in verts and m not in names:
                    raise ValueError(f"hyperedge member {m!r} not in "
                                     f"bigraph {bi}")
                if m in outer or m in link.targets:
                    link_edges.add((hub, m))
                else:
                    link_edges.add((m, hub))
        edges |= link_edges
        link_worlds.append((member_vertices, link_edges))
    outer_names = {x for link in link_graphs for x in link.outer}
    inner_names = {x for link in link_graphs for x in link.inner}
    for u, v in interface_edges:
        if u not in outer_names or v not in inner_names:
            raise ValueError(f"interface edge ({u},{v}) must run from an "
                             "outer name to an inner name")
    eset = frozenset(interface_edges)
    edges |= eset
    graph = DirectedGraph(frozenset(all_vertices), frozenset(edges))

    place_vertices = [v for forest in place_forests for v in forest]
    singles = [Subgraph(frozenset([v]), frozenset(), graph)
               for v in sorted(place_vertices)]
    masks = GraphMasks(graph, eset)
    pool = [masks.part(Subgraph(frozenset(vs), frozenset(es), graph))
            for vs, es in link_worlds]
    grown = True
    while grown:
        grown = False
        for h in list(pool):
            for k in list(pool):
                out = masks.compose(h, k)
                if out is not None and out not in pool:
                    pool.append(out)
                    grown = True
    subgraphs = singles + [masks.subgraph(p) for p in pool]
    placement_pairs = set()
    for forest in place_forests:
        for child, parent in forest.items():
            placement_pairs.add((child, child))
            if parent is not None:
                placement_pairs.add((child, parent))
    placement = frozenset(closure_pairs(
        placement_pairs, {v for p in placement_pairs for v in p}))
    order = {(i, i) for i in range(len(subgraphs))}
    for i, a in enumerate(singles):
        for j, b in enumerate(singles):
            (u,), (v,) = a.vertices, b.vertices
            if (u, v) in placement:
                order.add((i, j))
    scaffold = OrderedScaffold(graph, eset, subgraphs, frozenset(order))
    model = LayeredGraphModel(scaffold, {})
    return ResourceModel(model, placement, frozenset(resources))


# -- JSON format extension -------------------------------------------------

def resource_model_from_dict(data: dict) -> ResourceModel:
    model = model_from_dict(data)
    placement = frozenset((u, v) for u, v in data.get("placement", []))
    return ResourceModel(model, placement,
                         frozenset(data.get("resources", [])))


def resource_model_to_dict(rm: ResourceModel) -> dict:
    out = model_to_dict(rm.model)
    out["placement"] = sorted(map(list, rm.placement))
    out["resources"] = sorted(rm.resources)
    return out
