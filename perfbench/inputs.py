"""Seeded input generators of the benchmark.

Nothing here imports ``ilgl``: formulas are built as tuples and rendered
to text, models are built as the JSON dicts of the model file format.
Layering composition, decomposition and the order closure are the
reference checker's.
Every draw comes from an explicit ``random.Random`` and is made while
iterating lists or sorted collections, never sets, so the same seed gives
the same inputs in every process, whatever ``PYTHONHASHSEED`` is.

Formula tuples: ``("atom", name)``, ``("top",)``, ``("bot",)``,
``(op, left, right)`` with op one of the keys of ``BINARY_TEXT``, and for
predicate formulas ``("contains", var)``, ``("pointsto", var, var)``,
``("exists", var, body)`` and ``("forall", var, body)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Optional

from refcheck import Frame, compose, decompositions

BINARY_TEXT = {"and": "&", "or": "|", "imp": "->", "lc": "|>",
               "rimp": "-|>", "limp": "<|-"}
# The order of the connectives the formula generator draws from.
BINARY_OPS = ("and", "or", "imp", "lc", "rimp", "limp")
ATOMS = ("p", "q", "r")

POOL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pool.json")


# -- formulas ----------------------------------------------------------

def random_formula(rng: random.Random, max_depth: int) -> tuple:
    """A formula of depth at most ``max_depth`` over ``ATOMS``: a leaf
    with probability 0.3 (or at depth 0), else a uniform binary
    connective over two recursive draws."""
    if max_depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return ("top",)
        if roll < 0.2:
            return ("bot",)
        return ("atom", rng.choice(ATOMS))
    op = rng.choice(BINARY_OPS)
    return (op, random_formula(rng, max_depth - 1),
            random_formula(rng, max_depth - 1))


def render(f: tuple) -> str:
    """Formula text with every compound operand parenthesized, which
    parses back to the same tree under any precedence rules."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag in ("top", "bot"):
        return tag
    if tag == "contains":
        return f"Contains({f[1]})"
    if tag == "pointsto":
        return f"{f[1]} ~> {f[2]}"
    if tag in ("exists", "forall"):
        return f"{tag} {f[1]}. {render(f[2])}"
    return f"{_operand(f[1])} {BINARY_TEXT[tag]} {_operand(f[2])}"


def _operand(f: tuple) -> str:
    if f[0] in BINARY_TEXT or f[0] in ("exists", "forall", "pointsto"):
        return "(" + render(f) + ")"
    return render(f)


def size(f: tuple) -> int:
    """Number of nodes."""
    if f[0] in BINARY_TEXT:
        return 1 + size(f[1]) + size(f[2])
    if f[0] in ("exists", "forall"):
        return 1 + size(f[2])
    return 1


def atoms_of(f: tuple) -> list:
    if f[0] == "atom":
        return [f[1]]
    if f[0] in BINARY_TEXT:
        return sorted(set(atoms_of(f[1])) | set(atoms_of(f[2])))
    return []


# -- the formula pool --------------------------------------------------

def master_pool(depth: int, count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [random_formula(rng, depth) for _ in range(count)]


def load_pool() -> dict:
    """The master formula pools with their recorded prover outcomes.

    ``pool.json`` holds, per depth, the prover status of each master
    formula (``p`` proved, ``c`` countermodel, ``u`` unknown) and its
    rule-application count; ``make_pool.py`` writes it.  The formulas
    themselves are regenerated here from the master seed.
    """
    with open(POOL_PATH) as fh:
        meta = json.load(fh)
    pools = {}
    for key, rec in meta["depths"].items():
        depth = int(key)
        formulas = master_pool(depth, len(rec["status"]), meta["seed"])
        pools[depth] = [
            {"formula": f, "text": render(f), "status": s, "steps": n,
             "index": i}
            for i, (f, s, n) in enumerate(zip(formulas, rec["status"],
                                              rec["steps"]))]
    return {"seed": meta["seed"], "failing_prefix": meta["failing_prefix"],
            "pools": pools}


def stratified(rng: random.Random, entries: list, k: int, key) -> list:
    """One entry from each of ``k`` equal strata of ``entries`` sorted by
    ``key``: every seed draws different members but the same cost
    profile."""
    ranked = sorted(entries, key=key)
    n = len(ranked)
    if k > n:
        raise ValueError(f"{k} strata need at least {k} entries, have {n}")
    return [ranked[rng.randrange(j * n // k, (j + 1) * n // k)]
            for j in range(k)]


# -- layered-graph models ----------------------------------------------

# Vertices of a random graph model, and the most admissible subgraphs it
# may have before the draw is discarded.
GRAPH_VERTICES = (3, 6)
MAX_MEMBERS = 20
# Composed bigraphs of a random resource model.
BIGRAPHS = 2


def _key(sg) -> tuple:
    return (tuple(sorted(sg[0])), tuple(sorted(sg[1])))


def _close(pool: dict, eset):
    """Close a subgraph pool under composition and decomposition; None
    when it outgrows ``MAX_MEMBERS``."""
    while True:
        members = [pool[key] for key in sorted(pool)]
        if len(members) > MAX_MEMBERS:
            return None
        grown = False
        for h in members:
            for k in members:
                out = compose(h, k, eset)
                if out is not None and _key(out) not in pool:
                    pool[_key(out)] = out
                    grown = True
        for m in members:
            for h, k in decompositions(m, eset):
                for part in (h, k):
                    if _key(part) not in pool:
                        pool[_key(part)] = part
                        grown = True
        if not grown:
            return [pool[key] for key in sorted(pool)]


def random_graph_model(rng: random.Random,
                       members: Optional[int] = None) -> dict:
    """A seeded admissible layered-graph model in the JSON model format.

    The admissible set starts from random one- and two-vertex pieces and
    is closed under composition and decomposition, which makes the
    admissibility biconditional hold; draws that outgrow ``MAX_MEMBERS``,
    or miss ``members`` admissible subgraphs when it is given, are
    discarded and drawn again from the same stream.
    """
    while True:
        n = rng.randint(*GRAPH_VERTICES)
        names = [f"v{i}" for i in range(n)]
        edges = [(a, b) for a in names for b in names
                 if a != b and rng.random() < 0.3]
        eset = frozenset(e for e in edges if rng.random() < 0.6)
        plain = [e for e in edges if e not in eset]
        free = list(names)
        rng.shuffle(free)
        pool = {}
        while free:
            take = min(len(free), rng.choice([1, 1, 2]))
            part, free = frozenset(free[:take]), free[take:]
            if rng.random() < 0.8:
                sg = (part, frozenset(e for e in plain
                                      if e[0] in part and e[1] in part))
                pool[_key(sg)] = sg
        closed = _close(pool, eset) if pool else None
        if closed is None or len(closed) < 2 or (
                members is not None and len(closed) != members):
            continue
        m = len(closed)
        frame = Frame(m, [(i, j) for i in range(m) for j in range(m)
                          if i != j and rng.random() < 0.12], [])
        valuation = {}
        for p in ATOMS:
            up = 0
            for w in range(m):
                if rng.random() < 0.35:
                    up |= frame.up[w]
            valuation[p] = [w for w in range(m) if up >> w & 1]
        return {
            "vertices": names,
            "edges": [list(e) for e in sorted(edges)],
            "eset": [list(e) for e in sorted(eset)],
            "X": [{"vertices": sorted(v), "edges": [list(e)
                                                    for e in sorted(es)]}
                  for v, es in closed],
            "order": [[i, j] for i in range(m) for j in range(m)
                      if frame.leq[i][j]],
            "valuation": valuation,
        }


# -- bigraph resource models -------------------------------------------

def random_resource_model(rng: random.Random, place_vertices: int,
                          links: int) -> dict:
    """A seeded resource model from ``BIGRAPHS`` composed bigraphs.

    The place forest has ``links`` disjoint child-parent pairs inside the
    first bigraph and otherwise roots, so the quantifier domain has
    exactly 2^(place_vertices - 2 links) * 3^links up-sets whatever the
    seed.  Each bigraph has a link graph in which every hyperedge becomes
    a hub vertex: nodes and inner names feed the hub, the hub feeds outer
    names.  Interface
    edges wire bigraph b's outer name to bigraph b+1's inner name and
    form the distinguished edge set.  The admissible set is the single
    place vertices plus the link worlds closed under composition; the
    order is place containment on the singles.
    """
    shares = [place_vertices // BIGRAPHS + (b < place_vertices % BIGRAPHS)
              for b in range(BIGRAPHS)]
    vertices, edges, link_worlds, eset = [], [], [], []
    parent_of = {}
    place = []
    for b, share in enumerate(shares):
        nodes = [f"n{b}_{i}" for i in range(share)]
        for node in nodes:
            parent_of[node] = None
        inner = [f"in{b}"] if b > 0 else []
        outer = [f"out{b}"] if b < BIGRAPHS - 1 else []
        members = nodes + inner + outer
        link_edges = []
        hubs = []
        pending = list(nodes)
        rng.shuffle(pending)
        hyper = []
        while pending:
            take = min(len(pending), rng.randint(1, 3))
            # Each hyperedge after the first shares a node with the one
            # before, so a link world is connected and splits only along
            # interface edges (otherwise it would not be admissible).
            shared = hyper[-1][-1:] if hyper else []
            hyper.append(shared + pending[:take])
            pending = pending[take:]
        # The inner name's hub feeds its own nodes, so points-to paths
        # run from one bigraph's nodes into the next one's.
        targets = set(hyper[0]) if inner else set()
        hyper[0] = hyper[0] + inner
        hyper[-1] = hyper[-1] + outer
        for h, group in enumerate(hyper):
            hub = f"h{b}_{h}"
            hubs.append(hub)
            for m in group:
                feeds = m in outer or (h == 0 and m in targets)
                link_edges.append((hub, m) if feeds else (m, hub))
        world_vertices = frozenset(members + hubs)
        vertices += members + hubs
        edges += link_edges
        link_worlds.append((world_vertices, frozenset(link_edges)))
        place += nodes
        if b > 0:
            eset.append((f"out{b - 1}", f"in{b}"))
    if 2 * links > shares[0]:
        raise ValueError(f"{links} links need {2 * links} places in the "
                         f"first bigraph, which has {shares[0]}")
    linked = rng.sample([f"n0_{i}" for i in range(shares[0])], 2 * links)
    for child, parent in zip(linked[::2], linked[1::2]):
        parent_of[child] = parent
    eset_fs = frozenset(eset)
    edges += eset
    pool = {_key(w): w for w in link_worlds}
    while True:
        grown = False
        members = [pool[k] for k in sorted(pool)]
        for h in members:
            for k in members:
                out = compose(h, k, eset_fs)
                if out is not None and _key(out) not in pool:
                    pool[_key(out)] = out
                    grown = True
        if not grown:
            break
    singles = sorted(place)
    worlds = ([{"vertices": [v], "edges": []} for v in singles]
              + [{"vertices": sorted(v), "edges": [list(e)
                                                   for e in sorted(es)]}
                 for v, es in (pool[k] for k in sorted(pool))])
    placement = sorted({(v, v) for v in place}
                       | {(v, p) for v, p in parent_of.items()
                          if p is not None})
    index = {v: i for i, v in enumerate(singles)}
    order = sorted({(index[v], index[p]) for v, p in parent_of.items()
                    if p is not None})
    return {
        "vertices": sorted(vertices),
        "edges": [list(e) for e in sorted(edges)],
        "eset": [list(e) for e in sorted(eset)],
        "X": worlds,
        "order": [list(p) for p in order],
        "valuation": {},
        "placement": [list(p) for p in placement],
        "resources": ["r1", "r2"],
    }


def random_sentence(rng: random.Random, first: str, nested: bool) -> tuple:
    """A predicate sentence under the quantifier ``first``: one
    quantifier, or two nested ones when ``nested``, over a body of
    Contains / points-to atoms."""
    if not nested:
        body = _pred_body(rng, ["s"])
        return (first, "s", body)
    second = rng.choice(("exists", "forall"))
    inner = (second, "t", _pred_body(rng, ["s", "t"]))
    outer_atom = ("contains", "s")
    op = rng.choice(("imp", "and", "or"))
    return (first, "s", (op, outer_atom, inner))


def _pred_body(rng: random.Random, names: list) -> tuple:
    def leaf():
        if len(names) > 1 and rng.random() < 0.5:
            a, b = rng.sample(names, 2)
            return ("pointsto", a, b)
        if rng.random() < 0.3:
            return ("pointsto", names[0], names[-1])
        return ("contains", rng.choice(names))
    op = rng.choice(("imp", "and", "or", "lc"))
    return (op, leaf(), leaf())


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of ``obj``."""
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()
