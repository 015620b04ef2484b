"""Reference checker for the benchmark's correctness checks.

Written from the satisfaction clauses of intuitionistic layered graph
logic and imported by nothing in ``ilgl`` (and importing nothing from
it).  It works on the JSON forms of the inputs and on the formula tuples
of ``inputs.py``; world sets are bitmasks.

Relational clauses, for a frame (W, <=, R) where R(y, z, x) reads
"y composed with z is x":

- w |= A |> B   iff some x <= w has R(y, z, x) with y |= A and z |= B;
- w |= A -|> B  iff for all y >= w and R(y, z, x): z |= A implies x |= B;
- w |= A <|- B  iff for all y >= w and R(z, y, x): z |= A implies x |= B;
- w |= A -> B   iff every v >= w with v |= A has v |= B;

and the usual clauses for atoms, top, bot, & and |.  A layered-graph
model is the frame on its admissible subgraphs X, ordered by the model's
preorder, with R(i, j, k) iff X[i] @ X[j] is defined and equals X[k].
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

MAX_DECOMPOSED_VERTICES = 12


class Frame:
    """Worlds 0..n-1, a preorder given as up-set and down-set masks per
    world, and composition triples (y, z, x)."""

    def __init__(self, n: int, order_pairs, triples):
        self.n = n
        leq = [[i == j for j in range(n)] for i in range(n)]
        for a, b in order_pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"order pair ({a},{b}) out of range")
            leq[a][b] = True
        for k in range(n):  # Warshall
            for i in range(n):
                if leq[i][k]:
                    for j in range(n):
                        if leq[k][j]:
                            leq[i][j] = True
        self.leq = leq
        self.up = [sum(1 << j for j in range(n) if leq[i][j])
                   for i in range(n)]
        self.down = [sum(1 << j for j in range(n) if leq[j][i])
                     for i in range(n)]
        self.triples = sorted({tuple(t) for t in triples})
        for t in self.triples:
            if any(not 0 <= w < n for w in t):
                raise ValueError(f"triple {t} out of range")
        self.all = (1 << n) - 1

    def up_closed(self, mask: int) -> bool:
        return all(self.up[w] & ~mask == 0
                   for w in range(self.n) if mask >> w & 1)

    def upsets(self, limit: Optional[int] = None) -> Optional[List[int]]:
        """Every up-closed world set, ascending: the unions of principal
        up-sets.  None when there are more than ``limit``."""
        found = {0}
        for w in range(self.n):
            found |= {m | self.up[w] for m in found}
            if limit is not None and len(found) > limit:
                return None
        return sorted(found)


# -- formulas -------------------------------------------------------------

def sat_mask(frame: Frame, valuation: Dict[str, int], f: tuple,
             memo: Optional[dict] = None) -> int:
    """The set of worlds satisfying a propositional formula tuple."""
    if memo is None:
        memo = {}
    if f in memo:
        return memo[f]
    tag = f[0]
    if tag == "atom":
        out = valuation.get(f[1], 0)
    elif tag == "top":
        out = frame.all
    elif tag == "bot":
        out = 0
    else:
        a = sat_mask(frame, valuation, f[1], memo)
        b = sat_mask(frame, valuation, f[2], memo)
        out = _connective(frame, tag, a, b)
    memo[f] = out
    return out


def _connective(frame: Frame, tag: str, a: int, b: int) -> int:
    n = frame.n
    if tag == "and":
        return a & b
    if tag == "or":
        return a | b
    if tag == "imp":
        return _mask(w for w in range(n) if frame.up[w] & a & ~b == 0)
    if tag == "lc":
        made = _mask(x for (y, z, x) in frame.triples
                     if a >> y & 1 and b >> z & 1)
        return _mask(w for w in range(n) if frame.down[w] & made)
    if tag == "rimp":
        bad = _mask(y for (y, z, x) in frame.triples
                    if a >> z & 1 and not b >> x & 1)
        return _mask(w for w in range(n) if frame.up[w] & bad == 0)
    if tag == "limp":
        bad = _mask(y for (z, y, x) in frame.triples
                    if a >> z & 1 and not b >> x & 1)
        return _mask(w for w in range(n) if frame.up[w] & bad == 0)
    raise ValueError(f"not a connective: {tag!r}")


def _mask(worlds) -> int:
    out = 0
    for w in worlds:
        out |= 1 << w
    return out


# -- relational frames ----------------------------------------------------

def frame_model(data: dict) -> Tuple[Frame, Dict[str, int]]:
    """(frame, valuation masks) from the JSON frame format."""
    n = int(data["worlds"])
    frame = Frame(n, [tuple(p) for p in data.get("order", [])],
                  [tuple(t) for t in data.get("rel", [])])
    valuation = {p: _mask(ws) for p, ws in data.get("valuation", {}).items()}
    return frame, valuation


def persistence_problems(frame: Frame, valuation: Dict[str, int]) -> list:
    return [p for p, m in sorted(valuation.items())
            if not frame.up_closed(m)]


# -- layered-graph models -------------------------------------------------

def _subgraph(item) -> Tuple[frozenset, frozenset]:
    return (frozenset(str(v) for v in item["vertices"]),
            frozenset((str(u), str(v)) for u, v in item["edges"]))


def compose(h, k, eset) -> Optional[Tuple[frozenset, frozenset]]:
    """h @ k: defined iff h and k are vertex-disjoint, some distinguished
    edge runs from h to k and none from k to h; the union of both plus
    the distinguished edges from h to k."""
    if h[0] & k[0]:
        return None
    across = frozenset((u, v) for (u, v) in eset if u in h[0] and v in k[0])
    back = any(u in k[0] and v in h[0] for (u, v) in eset)
    if not across or back:
        return None
    return (h[0] | k[0], h[1] | k[1] | across)


class GraphModel:
    """A layered-graph model read from the JSON model format."""

    def __init__(self, data: dict):
        self.vertices = frozenset(str(v) for v in data["vertices"])
        self.edges = frozenset((str(u), str(v)) for u, v in data["edges"])
        self.eset = frozenset((str(u), str(v)) for u, v in data["eset"])
        self.X = [_subgraph(item) for item in data["X"]]
        self.index = {sg: i for i, sg in enumerate(self.X)}
        n = len(self.X)
        triples = []
        for i, h in enumerate(self.X):
            for j, k in enumerate(self.X):
                out = compose(h, k, self.eset)
                if out is not None and out in self.index:
                    triples.append((i, j, self.index[out]))
        self.frame = Frame(n, [tuple(p) for p in data.get("order", [])],
                           triples)
        self.valuation = {p: _mask(ws)
                          for p, ws in data.get("valuation", {}).items()}

    def sat_mask(self, f: tuple) -> int:
        return sat_mask(self.frame, self.valuation, f)

    def problems(self) -> list:
        """Structural, admissibility and persistence violations."""
        out = []
        if not self.eset <= self.edges:
            out.append("eset is not a subset of the edges")
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                out.append(f"edge ({u},{v}) leaves the vertex set")
        for i, (vs, es) in enumerate(self.X):
            if not vs <= self.vertices or not es <= self.edges:
                out.append(f"world {i} is not a subgraph")
            if any(u not in vs or v not in vs for u, v in es):
                out.append(f"world {i} has an edge leaving it")
        out += self.admissibility_problems()
        out += [f"valuation of {p} not persistent"
                for p in persistence_problems(self.frame, self.valuation)]
        return out

    def admissibility_problems(self) -> list:
        """The biconditional h, k in X iff h @ k in X, over pairs drawn
        from X, the single vertices and every decomposition of a member
        of X with at most MAX_DECOMPOSED_VERTICES vertices."""
        pool = set(self.X)
        pool |= {(frozenset([v]), frozenset()) for v in self.vertices}
        for member in self.X:
            if len(member[0]) <= MAX_DECOMPOSED_VERTICES:
                for h, k in decompositions(member, self.eset):
                    pool.add(h)
                    pool.add(k)
        members = set(self.X)
        out = []
        items = sorted(pool, key=lambda s: (sorted(s[0]), sorted(s[1])))
        for h in items:
            for k in items:
                m = compose(h, k, self.eset)
                if m is None:
                    continue
                if (h in members and k in members) != (m in members):
                    out.append(f"admissibility fails for "
                               f"{sorted(h[0])} @ {sorted(k[0])}")
        return out


def decompositions(member, eset) -> list:
    verts = sorted(member[0])
    out = []
    for mask in range(1, 2 ** len(verts) - 1):
        left = frozenset(v for b, v in enumerate(verts) if mask >> b & 1)
        right = member[0] - left
        h = (left, frozenset(e for e in member[1]
                             if e[0] in left and e[1] in left))
        k = (right, frozenset(e for e in member[1]
                              if e[0] in right and e[1] in right))
        if compose(h, k, eset) == member:
            out.append((h, k))
    return out


# -- predicate sentences on resource models -------------------------------

class ResourceModel(GraphModel):
    """A resource model: a layered-graph model plus a placement preorder
    on place vertices.  Quantifiers range over the up-closed sets of
    place vertices."""

    def __init__(self, data: dict):
        super().__init__(data)
        pairs = [(str(u), str(v)) for u, v in data.get("placement", [])]
        self.places = sorted({v for pair in pairs for v in pair})
        pos = {v: i for i, v in enumerate(self.places)}
        place_frame = Frame(len(self.places),
                            [(pos[u], pos[v]) for u, v in pairs], [])
        self.reach = [_reach(sg) for sg in self.X]
        self.domain = [frozenset(self.places[i]
                                 for i in range(len(self.places))
                                 if m >> i & 1)
                       for m in place_frame.upsets()]

    def pred_mask(self, f: tuple, env: Tuple = ()) -> int:
        """Worlds satisfying ``f`` under the assignment ``env``, a tuple
        of (variable, vertex set) pairs."""
        memo: dict = {}
        return self._pred(f, env, memo)

    def _pred(self, f: tuple, env: Tuple, memo: dict) -> int:
        key = (f, env)
        if key in memo:
            return memo[key]
        tag = f[0]
        fr = self.frame
        s = dict(env)
        if tag == "top":
            out = fr.all
        elif tag == "bot":
            out = 0
        elif tag == "contains":
            block = s[f[1]]
            out = _mask(w for w, (vs, _) in enumerate(self.X) if vs & block)
        elif tag == "pointsto":
            src, dst = s[f[1]], s[f[2]]
            out = _mask(w for w, reach in enumerate(self.reach)
                        if any(reach[u] & dst for u in src if u in reach))
        elif tag == "exists":
            out = 0
            for block in self.domain:
                out |= self._pred(f[2], _bind(env, f[1], block), memo)
        elif tag == "forall":
            every = fr.all
            for block in self.domain:
                every &= self._pred(f[2], _bind(env, f[1], block), memo)
            out = _mask(w for w in range(fr.n) if fr.up[w] & ~every == 0)
        else:
            a = self._pred(f[1], env, memo)
            b = self._pred(f[2], env, memo)
            out = _connective(fr, tag, a, b)
        memo[key] = out
        return out


def _bind(env: Tuple, var: str, block: frozenset) -> Tuple:
    return tuple(sorted(dict(env, **{var: block}).items(),
                        key=lambda kv: kv[0]))


def _reach(sg) -> Dict[str, frozenset]:
    """Per vertex of the subgraph, the vertices at the end of a directed
    path of at least one edge inside it."""
    vertices, edges = sg
    succ: Dict[str, set] = {v: set() for v in vertices}
    for u, v in edges:
        succ[u].add(v)
    out = {}
    for start in vertices:
        seen: set = set()
        frontier = list(succ[start])
        while frontier:
            v = frontier.pop()
            if v not in seen:
                seen.add(v)
                frontier.extend(succ[v])
        out[start] = frozenset(seen)
    return out
