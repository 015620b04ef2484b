"""Finite-instance model checking for predicate ILGL over bigraph resource
models: Contains / points-to atoms and intuitionistic quantifiers ranging
over up-closed vertex sets of the placement order.

Formulas are parsed by ``formula.parse_pred`` and checked by the shared
satisfaction clauses of ``relational.Evaluator`` on the scaffold's frame.
Vertices are the bits the scaffold gives them, one per graph vertex in
sorted order; the quantifier domain and an assignment's blocks are masks
over those bits.  The domain is fully enumerated, so models are capped
at 14 placement vertices: 16,384 up-sets, where a whole-model ``forall``
takes about 1.4 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .formula import (BINARY_NODES, QUANT_NODES, Contains, Formula,
                      InputError, PointsTo)
from .graph import (DirectedGraph, GraphMasks, LayeredGraphModel,
                    OrderedScaffold, model_from_dict, model_to_dict,
                    vertex_pairs)
from .relational import (Evaluator, bits, closure_pairs, json_list,
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
        self.placement = frozenset(closure_pairs(self.placement, domain))


ResourceAssignment = Dict[str, FrozenSet[str]]


def placement_upsets(placement: FrozenSet[Tuple[str, str]],
                     vertices: List[str]) -> List[int]:
    """Every up-set of ``placement``, a closed preorder, once and
    ascending, as a mask over ``vertices``: a sorted list holding every
    placement vertex, such as the graph's.  Any such list numbers the
    placement vertices in one relative order, so the up-sets come in
    one order too."""
    bit = {v: 1 << j for j, v in enumerate(vertices)}
    up: Dict[str, int] = {}
    for u, v in placement:
        up[u] = up.get(u, 0) | bit[v]
    if len(up) > MAX_PLACEMENT_VERTICES:
        raise InputError(
            f"{len(up)} placement vertices exceed the quantifier cap "
            f"of {MAX_PLACEMENT_VERTICES}; shrink the model")
    return upset_masks([up[v] for v in sorted(up)])


def enumerate_upsets(placement: FrozenSet[Tuple[str, str]]
                     ) -> Iterator[FrozenSet[str]]:
    """Every up-closed vertex set of the placement preorder, exactly once."""
    domain = sorted({v for pair in placement for v in pair})
    masks = placement_upsets(closure_pairs(placement, domain), domain)
    return (frozenset(domain[j] for j in bits(mask)) for mask in masks)


def resource_evaluator(rm: ResourceModel) -> Evaluator:
    """One evaluator for every predicate query on ``rm``, on the bits the
    scaffold gives the graph's vertices: the quantifier domain is the
    placement order's up-set masks as they are."""
    sc = rm.model.scaffold
    masks, succ = sc.masks, []
    for _, em in sc.parts:
        row = [0] * len(masks.vertices)
        for e in bits(em):
            u, v = masks.ends[e]
            row[u.bit_length() - 1] |= v
        succ.append(row)
    return Evaluator(sc.frame, rm.model.valuation, [vm for vm, _ in sc.parts],
                     succ, placement_upsets(rm.placement, masks.vertices))


def pred_satisfies(rm: ResourceModel, s: ResourceAssignment, world: int,
                   f: Formula) -> bool:
    """Satisfaction of a predicate formula at a world under an assignment;
    block vertices outside the model are dropped."""
    missing = free_resources(f) - set(s)
    if missing:
        raise KeyError(f"unbound resources: {sorted(missing)}")
    vbit = rm.model.scaffold.masks.vbit
    return resource_evaluator(rm).sat(world, f, frozenset(
        (r, sum(vbit.get(v, 0) for v in block)) for r, block in s.items()))


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

    place = sorted(v for forest in place_forests for v in forest)
    masks = GraphMasks(graph, eset)
    singles = [masks.part([v], []) for v in place]
    # X is a set: a link-graph world equal to a place single is listed once.
    pool = [masks.part(*world) for world in link_worlds]
    pool = [part for part in pool if part not in singles]
    grown = True
    while grown:
        grown = False
        for h in list(pool):
            for k in list(pool):
                out = masks.compose(h, k)
                if out is not None and out not in pool:
                    pool.append(out)
                    grown = True
    # Each place vertex, at or below itself and its parent; the model and
    # the scaffold close the order.
    placement = frozenset((child, up) for forest in place_forests
                          for child, parent in forest.items()
                          for up in (child, parent) if up is not None)
    at = {v: i for i, v in enumerate(place)}
    scaffold = OrderedScaffold(masks, singles + pool, frozenset(
        (at[u], at[v]) for u, v in placement))
    model = LayeredGraphModel(scaffold, {})
    return ResourceModel(model, placement, frozenset(resources))


# -- JSON format extension -------------------------------------------------

def resource_model_from_dict(data: dict) -> ResourceModel:
    model = model_from_dict(data)
    # Placement ids are vertex ids, normalized to strings in the same way.
    placement = vertex_pairs(data.get("placement", []), "placement",
                             "placement pair")
    outside = ({v for pair in placement for v in pair}
               - model.scaffold.graph.vertices)
    if outside:
        raise InputError(f"placement vertex {min(outside)!r} is not a "
                         "vertex of the graph")
    resources = json_list(data.get("resources", []), "resources",
                          "a resource name")
    return ResourceModel(model, placement, frozenset(resources))


def resource_model_to_dict(rm: ResourceModel) -> dict:
    out = model_to_dict(rm.model)
    out["placement"] = sorted(map(list, rm.placement))
    out["resources"] = sorted(rm.resources)
    return out
