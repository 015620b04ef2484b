"""The admissibility check before it was built from X×X compositions and
up-set decompositions.

``check_admissible`` composes every pair of a pool: X, the single
vertices, and every brute-force decomposition of each member of X
(``all_decompositions``, which tries all 2^n vertex splits of members of
up to 20 vertices).  With ``exhaustive`` the pool holds every subgraph of the
ambient graph (``all_subgraphs``).  The tests hold ``graph.check_admissible``
and ``GraphMasks.decompositions`` against it.
"""

import numpy as np

from ilgl.graph import Subgraph, compose


def all_decompositions(member: Subgraph, eset):
    """All (h, k) with h @ k equal to ``member``.

    Candidate parts carry exactly the member's edges restricted to their
    side; any valid decomposition has this shape because cross edges can
    only come from eset.
    """
    verts = sorted(member.vertices)
    n = len(verts)
    if n > 20:
        raise ValueError("brute-force decompositions capped at 20 vertices")
    # Skip only the splits that cannot compose: the edges of h @ k between
    # its parts all run from h to k.
    masks = np.arange(1, 2 ** n - 1, dtype=np.int64)
    keep = np.ones(len(masks), dtype=bool)
    for u, v in member.edges:
        keep &= ~((masks >> verts.index(v) & 1)
                  & ~(masks >> verts.index(u) & 1)).astype(bool)
    for mask in masks[keep].tolist():
        left = frozenset(v for b, v in enumerate(verts) if mask >> b & 1)
        right = member.vertices - left
        h = Subgraph(left, frozenset((u, v) for u, v in member.edges
                                     if u in left and v in left),
                     member.parent)
        k = Subgraph(right, frozenset((u, v) for u, v in member.edges
                                      if u in right and v in right),
                     member.parent)
        out = compose(h, k, eset)
        if out is not None and out == member:
            yield h, k


def all_subgraphs(graph, limit: int = 20000):
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


def check_admissible(scaffold, exhaustive: bool = False):
    """Violations of the admissibility biconditional over all pairs of the
    pool, in pool order."""
    violations = []
    eset = scaffold.eset
    in_x = set(scaffold.subgraphs)

    def describe(sg: Subgraph) -> dict:
        return {"vertices": sorted(sg.vertices),
                "edges": sorted(map(list, sg.edges))}

    def check_pair(h: Subgraph, k: Subgraph) -> None:
        out = compose(h, k, eset)
        if out is None:
            return
        components_in = h in in_x and k in in_x
        if components_in != (out in in_x):
            violations.append({
                "left": describe(h), "right": describe(k),
                "composition": describe(out),
                "direction": ("composition missing from X"
                              if components_in else
                              "component missing from X")})

    pool = dict.fromkeys(scaffold.subgraphs)
    for v in scaffold.graph.vertices:
        single = Subgraph(frozenset([v]), frozenset(), scaffold.graph)
        pool.setdefault(single)
    for member in scaffold.subgraphs:
        for h, k in all_decompositions(member, eset):
            pool.setdefault(h)
            pool.setdefault(k)
    if exhaustive:
        if len(scaffold.graph.vertices) > 12:
            raise ValueError("exhaustive admissibility check capped at "
                             "12 vertices")
        for sg in all_subgraphs(scaffold.graph):
            pool.setdefault(sg)
    items = list(pool)
    for h in items:
        for k in items:
            check_pair(h, k)
    return violations
