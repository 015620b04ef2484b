"""Intuitionistic layered frames, the satisfaction clauses shared by the
relational, layered-graph and predicate semantics, and the exhaustive
small-frame validity oracle used to cross-check the prover.

Enumeration policy for the oracle: frames with at most 2 worlds are swept
over the full ternary-relation space; at 3 and 4 worlds the relation is
enumerated in (size, lex)-ascending order up to a size cap (default 2),
because the full space (2^27 and 2^64 relations per preorder) is out of
reach.  Counterexamples are therefore world-minimal, and "no
counterexample" always means none within the declared family (at most
4 worlds).  Validity is the same on isomorphic frames, so the oracle
scans one frame per isomorphism class, the first in enumeration order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple)

import numpy as np

from .formula import (BINARY_NODES, And, Atom, Bot, Contains, Exists, Forall,
                      Formula, Imp, ImpLeft, ImpRight, LayerConj, Or,
                      InputError, PointsTo, Top, atoms)

Triple = Tuple[int, int, int]


def closure_pairs(pairs, domain) -> Set[Tuple]:
    """Reflexive-transitive closure of ``pairs`` over ``domain``."""
    succ: Dict = {d: {d} for d in domain}
    for a, b in pairs:
        if a not in succ or b not in succ:
            raise ValueError(f"order pair ({a},{b}) outside the domain")
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in succ:
            extra = set()
            for b in succ[a]:
                extra |= succ[b]
            if not extra <= succ[a]:
                succ[a] |= extra
                changed = True
    return {(a, b) for a in succ for b in succ[a]}


def principal_upsets(n: int, order) -> List[int]:
    """The up-set of each world 0..n-1 under the closed preorder ``order``,
    as bitmasks."""
    return [sum(1 << y for y in range(n) if (x, y) in order)
            for x in range(n)]


# The most up-sets ``upset_masks`` builds; above the 16,384 of the
# predicate layer's largest placement graph.
MAX_UPSETS = 1 << 16


def upset_masks(principals) -> List[int]:
    """Every up-set, ascending: the unions of the principal up-set masks,
    built by adding one principal up-set at a time.  Raises InputError as
    soon as there are more than MAX_UPSETS."""
    masks = {0}
    for p in principals:
        masks |= {m | p for m in masks}
        if len(masks) > MAX_UPSETS:
            raise InputError(f"more than {MAX_UPSETS} up-sets")
    return sorted(masks)


@dataclass
class IntLayeredFrame:
    worlds: int
    order: FrozenSet[Tuple[int, int]]
    rel: FrozenSet[Triple]

    def __post_init__(self):
        self.order = frozenset(self.order)
        self.rel = frozenset(self.rel)

    def leq(self, i: int, j: int) -> bool:
        return (i, j) in self.order

    def validate(self) -> List[str]:
        problems = []
        rng = range(self.worlds)
        for i, j in self.order:
            if i not in rng or j not in rng:
                problems.append(f"order pair ({i},{j}) out of range")
        for t in self.rel:
            if any(w not in rng for w in t):
                problems.append(f"relation triple {t} out of range")
        for i in rng:
            if (i, i) not in self.order:
                problems.append(f"order not reflexive at {i}")
        for i, j in self.order:
            for k, l in self.order:
                if j == k and (i, l) not in self.order:
                    problems.append(f"order not transitive: "
                                    f"({i},{j}),({j},{l})")
        return problems

    def upsets(self) -> List[int]:
        """All up-closed world sets as bitmasks, ascending."""
        return upset_masks(principal_upsets(self.worlds, self.order))


@dataclass
class RelationalModel:
    frame: IntLayeredFrame
    valuation: Dict[str, FrozenSet[int]]

    def validate(self) -> List[str]:
        problems = self.frame.validate()
        for p, ws in sorted(self.valuation.items()):
            for i in ws:
                for j in range(self.frame.worlds):
                    if self.frame.leq(i, j) and j not in ws:
                        problems.append(
                            f"valuation of {p!r} not persistent: "
                            f"{i} <= {j}")
        return problems


def _has_path(sg, sources: FrozenSet, targets: FrozenSet) -> bool:
    """Non-empty directed path inside the subgraph from a source vertex to
    a target vertex (at least one edge)."""
    seen: Set = set()
    frontier = {v for u, v in sg.edges if u in sources}
    while frontier:
        if frontier & targets:
            return True
        seen |= frontier
        frontier = {v for u, v in sg.edges if u in frontier} - seen
    return False


class Evaluator:
    """The satisfaction clauses of the relational, layered-graph and
    predicate semantics, memoised per (world, formula, assignment).

    The propositional clauses read the frame (worlds, order, triples) and
    the valuation of the atoms.  Layered-graph satisfaction is this run on
    the scaffold's frame.  The predicate clauses also read ``subgraphs``
    (the admissible subgraph each world names, for ``Contains`` and
    ``~>``), ``upsets`` (the quantifier domain) and an assignment of
    resource names to blocks, given as a frozenset of (name, block) pairs.
    """

    def __init__(self, frame: IntLayeredFrame,
                 valuation: Dict[str, FrozenSet[int]],
                 subgraphs=(), upsets=()):
        self.n = frame.worlds
        self.order = frame.order
        self.rel = frame.rel
        self.valuation = valuation
        self.subgraphs = subgraphs
        self.upsets = upsets
        self.memo: Dict[tuple, bool] = {}

    def sat(self, w: int, f: Formula, s: FrozenSet = frozenset()) -> bool:
        key = (w, f, s)
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = self._sat(w, f, s)
        return value

    def _sat(self, w: int, f: Formula, s: FrozenSet) -> bool:
        sat, order = self.sat, self.order
        if isinstance(f, Atom):
            return w in self.valuation.get(f.name, frozenset())
        if isinstance(f, Top):
            return True
        if isinstance(f, Bot):
            return False
        if isinstance(f, And):
            return sat(w, f.left, s) and sat(w, f.right, s)
        if isinstance(f, Or):
            return sat(w, f.left, s) or sat(w, f.right, s)
        if isinstance(f, Imp):
            return all(sat(v, f.right, s) for v in range(self.n)
                       if (w, v) in order and sat(v, f.left, s))
        if isinstance(f, LayerConj):
            return any((x, w) in order
                       and sat(y, f.left, s) and sat(z, f.right, s)
                       for y, z, x in self.rel)
        if isinstance(f, ImpRight):
            return all(sat(x, f.right, s) for y, z, x in self.rel
                       if (w, y) in order and sat(z, f.left, s))
        if isinstance(f, ImpLeft):
            return all(sat(x, f.right, s) for z, y, x in self.rel
                       if (w, y) in order and sat(z, f.left, s))
        if isinstance(f, Contains):
            return bool(dict(s)[f.resource] & self.subgraphs[w].vertices)
        if isinstance(f, PointsTo):
            env = dict(s)
            return _has_path(self.subgraphs[w], env[f.source],
                             env[f.target])
        if isinstance(f, (Exists, Forall)):
            rest = frozenset((r, b) for r, b in s if r != f.var)
            bound = [rest | {(f.var, block)} for block in self.upsets]
            if isinstance(f, Exists):
                return any(sat(w, f.body, t) for t in bound)
            # World and domain quantification combined, as the semantics
            # states it: every extension at every order-successor.
            return all(sat(v, f.body, t) for t in bound
                       for v in range(self.n) if (w, v) in order)
        raise TypeError(f"not a formula: {f!r}")


def rel_satisfies(model: RelationalModel, world: int, f: Formula) -> bool:
    return Evaluator(model.frame, model.valuation).sat(world, f)


# -- frame enumeration ---------------------------------------------------

def enumerate_preorders(n: int) -> List[FrozenSet[Tuple[int, int]]]:
    """All preorders on n elements, as closures of all binary relations,
    deduplicated; ordered by (size, sorted pairs)."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen = set()
    for bits in range(2 ** len(pairs)):
        base = [p for b, p in enumerate(pairs) if bits >> b & 1]
        seen.add(frozenset(closure_pairs(base, range(n))))
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def enumerate_frames(max_worlds: int,
                     max_rel_size: Optional[int] = None
                     ) -> Iterator[IntLayeredFrame]:
    """Every frame with up to ``max_worlds`` worlds, smallest first.

    ``max_rel_size`` caps the ternary relation's size; None means the full
    space (only viable below 3 worlds).
    """
    if max_worlds < 1:
        raise ValueError("need at least one world")
    for n in range(1, max_worlds + 1):
        triples = list(itertools.product(range(n), repeat=3))
        top = len(triples) if max_rel_size is None else min(max_rel_size,
                                                            len(triples))
        for order in enumerate_preorders(n):
            for size in range(top + 1):  # (size, lex) order
                for rel in itertools.combinations(triples, size):
                    yield IntLayeredFrame(n, order, frozenset(rel))


DEFAULT_REL_CAPS = {1: None, 2: None, 3: 2, 4: 2}


# Complex-algebra operation tables, used both by the algebra module and by
# the oracle below (frames sharing tables are interchangeable for validity).

# The operation each binary connective denotes in an algebra.
OP_NAME = {And: "meet", Or: "join", Imp: "himp", LayerConj: "lconj",
           ImpRight: "rres", ImpLeft: "lres"}


def _order_tables(n: int, order) -> tuple:
    """Order-only part of the complex algebra: up-sets, principal up-set
    masks, and the meet/join/himp tables."""
    up_of = principal_upsets(n, order)
    ups = upset_masks(up_of)
    index = {m: i for i, m in enumerate(ups)}
    meet = [[index[ma & mb] for mb in ups] for ma in ups]
    join = [[index[ma | mb] for mb in ups] for ma in ups]
    himp = [[index[sum(1 << x for x in range(n)
                       if up_of[x] & ma & ~mb == 0)]
             for mb in ups] for ma in ups]
    return ups, index, up_of, meet, join, himp


def _triple_tables(n: int, ups: list, up_of: list, triples) -> tuple:
    """The lconj, rres and lres world masks of each single triple, as
    arrays of shape (T, u, u); a relation's tables are their OR (lconj)
    and AND (rres, lres).  For (t0, t1, t2): lconj[a][b] is up_of[t2]
    when a holds t0 and b holds t1; rres[a][b] drops the worlds below t0
    when a holds t1 and b misses t2, lres those below t1 when a holds t0
    and b misses t2."""
    full = (1 << n) - 1
    dtype = np.min_scalar_type(full)
    t = np.array(triples, dtype=np.intp)
    # has[k, i, a]: up-set a contains world t_i of triple k.
    has = np.array([[m >> w & 1 for m in ups] for w in range(n)],
                   dtype=bool)[t]
    not_down = np.array([full & ~sum(1 << x for x in range(n)
                                     if up_of[x] >> w & 1)
                         for w in range(n)], dtype=dtype)
    a0, a1 = has[:, 0, :, None], has[:, 1, :, None]
    b1, b2 = has[:, 1, None, :], has[:, 2, None, :]
    return (np.where(a0 & b1, np.array(up_of, dtype)[t[:, 2], None, None], 0),
            np.where(a1 & ~b2, not_down[t[:, 0], None, None], full),
            np.where(a0 & ~b2, not_down[t[:, 1], None, None], full))


def frame_tables(frame: IntLayeredFrame) -> tuple:
    """(upsets, ops) where upsets are bitmasks and ops maps each binary
    operation name to a square table over up-set indices."""
    n = frame.worlds
    full = (1 << n) - 1
    ups, index, up_of, meet, join, himp = _order_tables(n, frame.order)
    lconj, rres, lres = (np.full((len(ups),) * 2, v, np.min_scalar_type(full))
                         for v in (0, full, full))
    for triple in frame.rel:  # one at a time: memory stays O(u^2)
        lc, rr, lr = _triple_tables(n, ups, up_of, [triple])
        lconj, rres, lres = lconj | lc[0], rres & rr[0], lres & lr[0]
    layer = tuple([[index[m] for m in row] for row in t.tolist()]
                  for t in (lconj, rres, lres))
    return ups, dict(zip(OP_NAME.values(), (meet, join, himp) + layer))


def postfix(f: Formula) -> list:
    """Every node occurrence of ``f``, operands before their connective."""
    out = []

    def walk(g: Formula) -> None:
        if isinstance(g, BINARY_NODES):
            walk(g.left)
            walk(g.right)
        out.append(g)

    walk(f)
    return out


def fold_tables(nodes: list, apply: Callable, valuation: dict, bot, top):
    """The value in an algebra of the formula whose ``postfix`` is
    ``nodes``: ``apply(name, a, b)`` applies the operation ``OP_NAME``
    names, and atoms missing from ``valuation`` go to ``bot``.  Values are
    element ids, or numpy arrays of them when the oracle evaluates many
    algebras and assignments at once."""
    stack = []
    for g in nodes:
        if isinstance(g, Atom):
            stack.append(valuation.get(g.name, bot))
        elif isinstance(g, Top):
            stack.append(top)
        elif isinstance(g, Bot):
            stack.append(bot)
        else:
            b = stack.pop()
            stack.append(apply(OP_NAME[type(g)], stack.pop(), b))
    return stack.pop()


@dataclass
class Counterexample:
    frame: IntLayeredFrame
    valuation: Dict[str, FrozenSet[int]]
    world: int

    def model(self) -> RelationalModel:
        return RelationalModel(self.frame, self.valuation)


def _preorder_chunks(n: int, cap: Optional[int]) -> Iterator[tuple]:
    """(entries, tables) per kept preorder of one world-count step, in
    enumeration order; entries are (position, frame, ups), at position
    p * R + r for the preorder's rank p and the relation's index r among
    the R relations of size at most ``cap`` in (size, lex) order.

    One frame is kept per isomorphism class, the one of least position.
    It lies on the lowest-ranked preorder of its orbit, where relation r
    is kept when no automorphism maps r, or a relation with r's tables,
    to a smaller index.  All tables are folded from per-triple tables.
    """
    triples = list(itertools.product(range(n), repeat=3))
    top = len(triples) if cap is None else min(cap, len(triples))
    combos = [np.array(list(itertools.combinations(range(len(triples)), k)),
                       dtype=np.intp) for k in range(top + 1)]
    rels = [frozenset(triples[i] for i in c)
            for block in combos for c in block.tolist()]
    # masks[w, r]: relation r moved by world permutation w, as a bitmask
    # of triples; permutations() yields the identity first.
    perms = list(itertools.permutations(range(n)))
    moved = np.array(perms)[:, np.array(triples)] @ np.array([n * n, n, 1])
    bits = np.left_shift(np.uint64(1), moved.astype(np.uint64))
    masks = np.concatenate([np.bitwise_or.reduce(bits[:, c], axis=-1)
                            for c in combos], axis=-1)
    by_mask = np.argsort(masks[0])
    orders = enumerate_preorders(n)
    rank = {order: p for p, order in enumerate(orders)}
    full = (1 << n) - 1
    for p, order in enumerate(orders):
        images = np.array([rank[frozenset((w[a], w[b]) for a, b in order)]
                           for w in perms])
        if images.min() < p:
            continue
        ups, index, up_of, meet, join, himp = _order_tables(n, order)
        lc, rr, lr = _triple_tables(n, ups, up_of, triples)
        lut = np.zeros(1 << n, dtype=np.int16)
        lut[ups] = np.arange(len(ups))
        layer = lut[np.concatenate([np.stack(
            [np.bitwise_or.reduce(lc[c], axis=1),
             np.bitwise_and.reduce(rr[c], axis=1, initial=full),
             np.bitwise_and.reduce(lr[c], axis=1, initial=full)], axis=1)
            for c in combos])]
        # The least index an automorphism moves each relation to, then
        # each set of relations with equal tables to: r is kept if it is
        # its set's least.
        moves = by_mask[np.searchsorted(masks[0], masks[images == p],
                                        sorter=by_mask)].min(axis=0)
        first: Dict[bytes, int] = {}
        same = np.array([first.setdefault(row, r) for r, row in
                         enumerate(map(bytes, layer.reshape(len(rels), -1)))])
        least = np.full(len(rels), len(rels))
        np.minimum.at(least, same, moves)
        keep = np.flatnonzero(least[same] == np.arange(len(rels))).tolist()
        ops = np.array([meet, join, himp], dtype=np.int16)
        ops = np.concatenate([np.broadcast_to(ops, (len(keep),) + ops.shape),
                              layer[keep]], axis=1)
        yield ([(p * len(rels) + r, IntLayeredFrame(n, order, rels[r]), ups)
                for r in keep],
               dict(zip(OP_NAME.values(), ops.transpose(1, 0, 2, 3))))


class _StackedStep:
    """The algebras of one step, stacked for vectorized evaluation:
    ``entries`` in enumeration order, and per up-set count u a group of
    entry ``indices`` with their int16 operation ``tables``, (A, u, u)."""

    def __init__(self, chunks):
        self.entries = []  # (position, frame, ups)
        self.groups: Dict[int, dict] = {}
        for entries, tables in chunks:
            group = self.groups.setdefault(len(entries[0][2]),
                                           {"indices": [], "tables": []})
            group["indices"] += range(len(self.entries),
                                      len(self.entries) + len(entries))
            self.entries += entries
            group["tables"].append(tables)
        for group in self.groups.values():
            group["tables"] = {
                name: np.concatenate([t[name] for t in group["tables"]])
                for name in OP_NAME.values()}


class _OracleCache:
    """The oracle's steps by (worlds, relation cap), built on first use
    and kept for the process's life: 18,186 algebras at most by default."""

    def __init__(self):
        self.stacked: Dict[tuple, _StackedStep] = {}

    def stacked_step(self, n: int, cap: Optional[int]) -> _StackedStep:
        key = (n, cap)
        if key not in self.stacked:
            self.stacked[key] = _StackedStep(_preorder_chunks(n, cap))
        return self.stacked[key]


_CACHE = _OracleCache()


def _scan_stacked(nodes: list, names: list, step: _StackedStep
                  ) -> Optional[Counterexample]:
    """Evaluate the formula whose ``postfix`` is ``nodes`` over every
    (algebra, assignment) of a stacked step at once; returns the
    counterexample earliest in enumeration order.  Each table lookup is
    one ``take`` from the group's flattened tables: int16 ids at int32
    offsets."""
    k = len(names)
    best = None  # (position, frame, ups, assignment index, value index)
    for u in sorted(step.groups):
        group = step.groups[u]
        flat = {name: t.reshape(-1) for name, t in group["tables"].items()}
        a_count = len(group["indices"])
        count = u ** k
        base = np.arange(0, a_count * u * u, u * u, dtype=np.int32)[:, None]
        atom_vec = {name: (np.arange(count) // u ** (k - 1 - m) % u
                           ).astype(np.int16)
                    for m, name in enumerate(names)}
        result = np.broadcast_to(fold_tables(
            nodes, lambda name, a, b: flat[name].take(base + a * u + b),
            atom_vec, 0, u - 1), (a_count, count))
        failing = result != (u - 1)
        hit = failing.any(axis=1)
        row = int(hit.argmax())  # positions ascend with the rows
        position, frame, ups = step.entries[group["indices"][row]]
        if hit[row] and (best is None or position < best[0]):
            t = int(failing[row].argmax())
            best = (position, frame, ups, t, int(result[row, t]))
    if best is None:
        return None
    # The atoms take the up-sets the digits of t index; the formula's
    # value misses the reported world.
    position, frame, ups, t, value = best
    u, n = len(ups), frame.worlds
    return Counterexample(
        frame, {p: frozenset(w for w in range(n)
                             if ups[t // u ** (k - 1 - m) % u] >> w & 1)
                for m, p in enumerate(names)},
        next(w for w in range(n) if not ups[value] >> w & 1))


def rel_valid_upto(f: Formula, max_worlds: int, max_atoms: int,
                   rel_caps: Optional[Dict[int, Optional[int]]] = None
                   ) -> Optional[Counterexample]:
    """First countermodel of ``f`` in the oracle family, None if it survives.

    Search order is world count, then preorder, then relation (size, lex),
    then valuation; the result is schedule-independent.  The family stops
    at 4 worlds.
    """
    if max_worlds > 4:
        raise ValueError(f"{max_worlds} worlds exceed the oracle's limit 4")
    names = atoms(f)
    if len(names) > max_atoms:
        raise ValueError(f"{len(names)} atoms exceed the limit {max_atoms}")
    nodes = postfix(f)
    caps = dict(DEFAULT_REL_CAPS)
    if rel_caps:
        caps.update(rel_caps)
    for n in range(1, max_worlds + 1):
        hit = _scan_stacked(nodes, names, _CACHE.stacked_step(n, caps[n]))
        if hit is not None:
            return hit
    return None


# -- JSON frame format ---------------------------------------------------

def frame_to_dict(model: RelationalModel) -> dict:
    return {
        "worlds": model.frame.worlds,
        "order": sorted(map(list, model.frame.order)),
        "rel": sorted(map(list, model.frame.rel)),
        "valuation": {p: sorted(ws)
                      for p, ws in sorted(model.valuation.items())},
    }


def frame_from_dict(data: dict) -> RelationalModel:
    n = data.get("worlds") if isinstance(data, dict) else None
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"a frame needs \"worlds\": a count of worlds, "
                         f"got {n!r}")
    order = closure_pairs([(int(i), int(j)) for i, j in data.get("order", [])],
                          range(n))
    frame = IntLayeredFrame(
        n, frozenset(order),
        frozenset((int(y), int(z), int(x))
                  for y, z, x in data.get("rel", [])))
    valuation = {p: frozenset(int(i) for i in ws)
                 for p, ws in data.get("valuation", {}).items()}
    return RelationalModel(frame, valuation)
