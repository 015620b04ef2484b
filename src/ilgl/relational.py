"""Intuitionistic layered frames, the satisfaction clauses shared by the
relational, layered-graph and predicate semantics, and the exhaustive
small-frame validity oracle used to cross-check the prover.

Enumeration policy for the oracle: frames with at most 2 worlds are swept
over the full ternary-relation space; at 3 and 4 worlds the relation is
enumerated in (size, lex)-ascending order up to a size cap (default 2),
because the full space (2^27 and 2^64 relations per preorder) is out of
reach.  Counterexamples are therefore world-minimal, and "no
counterexample" always means none within the declared family.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple)

import numpy as np

from .formula import (BINARY_NODES, And, Atom, Bot, Contains, Exists, Forall,
                      Formula, Imp, ImpLeft, ImpRight, LayerConj, Or,
                      PointsTo, Top, atoms)

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


def upset_masks(principals) -> List[int]:
    """Every up-set, ascending: the unions of the principal up-set masks,
    built by adding one principal up-set at a time."""
    masks = {0}
    for p in principals:
        masks |= {m | p for m in masks}
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


def _rel_subsets(n: int, max_size: Optional[int]) -> Iterator[FrozenSet]:
    """Subsets of the triple space in (size, lex) order."""
    triples = list(itertools.product(range(n), repeat=3))
    top = len(triples) if max_size is None else min(max_size, len(triples))
    for size in range(top + 1):
        for combo in itertools.combinations(triples, size):
            yield frozenset(combo)


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
        for order in enumerate_preorders(n):
            for rel in _rel_subsets(n, max_rel_size):
                yield IntLayeredFrame(n, order, rel)


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


def _layer_tables(n: int, rel, ups, index, up_of) -> tuple:
    """Relation-dependent part: the lconj/rres/lres tables."""
    u = len(ups)
    rel = sorted(rel)
    lconj = [[0] * u for _ in range(u)]
    rres = [[0] * u for _ in range(u)]
    lres = [[0] * u for _ in range(u)]
    for a in range(u):
        ma = ups[a]
        for b in range(u):
            mb = ups[b]
            lc = 0
            for (y, z, x) in rel:
                if ma >> y & 1 and mb >> z & 1:
                    lc |= up_of[x]
            lconj[a][b] = index[lc]
            rr = 0
            lr = 0
            for x in range(n):
                ux = up_of[x]
                if all(not (ux >> w & 1 and ma >> y & 1) or mb >> z & 1
                       for (w, y, z) in rel):
                    rr |= 1 << x
                if all(not (ux >> w & 1 and ma >> y & 1) or mb >> z & 1
                       for (y, w, z) in rel):
                    lr |= 1 << x
            rres[a][b] = index[rr]
            lres[a][b] = index[lr]
    return lconj, rres, lres


def frame_tables(frame: IntLayeredFrame) -> tuple:
    """(upsets, ops) where upsets are bitmasks and ops maps each binary
    operation name to a square table over up-set indices."""
    ups, index, up_of, meet, join, himp = _order_tables(
        frame.worlds, frame.order)
    layer = _layer_tables(frame.worlds, frame.rel, ups, index, up_of)
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


def _mask_worlds(mask: int, n: int) -> FrozenSet[int]:
    return frozenset(w for w in range(n) if mask >> w & 1)


def _counterexample(frame: IntLayeredFrame, ups: list, names: list,
                    digits, value: int) -> Counterexample:
    """The atoms take the up-sets ``digits`` index; the formula's value
    ``ups[value]`` misses the reported world."""
    n = frame.worlds
    return Counterexample(
        frame, {p: _mask_worlds(ups[d], n) for p, d in zip(names, digits)},
        next(w for w in range(n) if not ups[value] >> w & 1))


def _step_entries(n: int, cap: Optional[int]) -> Iterator[tuple]:
    """(frame, upsets, ops, fingerprint) for one world-count step.

    The order-only tables are computed once per preorder; each relation
    only pays for the three layering tables.
    """
    for order in enumerate_preorders(n):
        ups, index, up_of, meet, join, himp = _order_tables(n, order)
        base_fp = tuple(ups)
        for rel in _rel_subsets(n, cap):
            layer = _layer_tables(n, rel, ups, index, up_of)
            ops = dict(zip(OP_NAME.values(), (meet, join, himp) + layer))
            fp = (base_fp,) + tuple(tuple(map(tuple, t)) for t in layer)
            yield IntLayeredFrame(n, order, rel), ups, ops, fp


class _StackedStep:
    """Distinct algebras of one step, stacked for vectorized evaluation.

    Frames sharing operation tables are interchangeable for validity, so
    only the first frame per distinct table set is kept; ``position``
    remembers its place in the enumeration order so the counterexample
    reported is still the overall first.
    """

    def __init__(self, n: int, cap: Optional[int]):
        self.entries = []  # (position, frame, ups)
        seen: Dict[tuple, int] = {}
        raw = []
        for pos, (frame, ups, ops, fp) in enumerate(_step_entries(n, cap)):
            if fp in seen:
                continue
            seen[fp] = pos
            self.entries.append((pos, frame, ups))
            raw.append(ops)
        self.groups: Dict[int, dict] = {}
        for idx, (pos, frame, ups) in enumerate(self.entries):
            self.groups.setdefault(len(ups), {"indices": []})
            self.groups[len(ups)]["indices"].append(idx)
        for u, group in self.groups.items():
            idxs = group["indices"]
            group["tables"] = {
                name: np.array([raw[i][name] for i in idxs], dtype=np.int16)
                for name in OP_NAME.values()}


class _OracleCache:
    """Lazily built steps of the oracle frame family.

    Small steps (up to 3 worlds, or 4 worlds with a thin relation cap)
    are deduplicated, stacked, and cached for the life of the process
    because validity sweeps exhaust them repeatedly; anything larger is
    streamed fresh each time to keep memory flat.
    """

    def __init__(self):
        self.stacked: Dict[tuple, _StackedStep] = {}

    @staticmethod
    def stackable(n: int, cap: Optional[int]) -> bool:
        return n <= 3 or (cap is not None and cap <= 1)

    def stacked_step(self, n: int, cap: Optional[int]) -> _StackedStep:
        key = (n, cap)
        if key not in self.stacked:
            self.stacked[key] = _StackedStep(n, cap)
        return self.stacked[key]


_CACHE = _OracleCache()


def _scan_stacked(nodes: list, names: list, step: _StackedStep
                  ) -> Optional[Counterexample]:
    """Evaluate the formula whose ``postfix`` is ``nodes`` over every
    (algebra, assignment) of a stacked step at once; returns the
    counterexample earliest in enumeration order."""
    k = len(names)
    best = None  # (position, frame, ups, assignment index, value index)
    for u in sorted(step.groups):
        group = step.groups[u]
        tables = group["tables"]
        a_count = len(group["indices"])
        count = u ** k
        rows = np.arange(a_count)[:, None]
        atom_vec = {
            name: np.broadcast_to(
                (np.arange(count) // u ** (k - 1 - m)) % u,
                (a_count, count))
            for m, name in enumerate(names)}
        result = fold_tables(
            nodes,
            lambda name, a, b: tables[name][rows, a, b].astype(np.int64),
            atom_vec, 0, u - 1)
        if np.shape(result) != (a_count, count):  # no atom occurs in f
            result = np.broadcast_to(result, (a_count, count))
        failing = result != (u - 1)
        if failing.any():
            for row in np.flatnonzero(failing.any(axis=1)):
                idx = group["indices"][int(row)]
                position, frame, ups = step.entries[idx]
                if best is None or position < best[0]:
                    t = int(np.flatnonzero(failing[row])[0])
                    value = int(result[row, t])
                    best = (position, frame, ups, t, value)
    if best is None:
        return None
    position, frame, ups, t, value = best
    u = len(ups)
    return _counterexample(frame, ups, names,
                           [(t // u ** (k - 1 - m)) % u for m in range(k)],
                           value)


def rel_valid_upto(f: Formula, max_worlds: int, max_atoms: int,
                   rel_caps: Optional[Dict[int, Optional[int]]] = None
                   ) -> Optional[Counterexample]:
    """First countermodel of ``f`` in the oracle family, None if it survives.

    Search order is world count, then preorder, then relation (size, lex),
    then valuation; the result is schedule-independent.
    """
    names = atoms(f)
    if len(names) > max_atoms:
        raise ValueError(f"{len(names)} atoms exceed the limit {max_atoms}")
    nodes = postfix(f)
    caps = dict(DEFAULT_REL_CAPS)
    if rel_caps:
        caps.update(rel_caps)
    for n in range(1, max_worlds + 1):
        cap = caps.get(n, 2)
        if _CACHE.stackable(n, cap):
            hit = _scan_stacked(nodes, names, _CACHE.stacked_step(n, cap))
            if hit is not None:
                return hit
            continue
        verified: set = set()
        for frame, ups, ops, fp in _step_entries(n, cap):
            if fp in verified:
                continue
            top_i = len(ups) - 1
            for combo in itertools.product(range(len(ups)),
                                           repeat=len(names)):
                val = fold_tables(nodes, lambda name, a, b: ops[name][a][b],
                                  dict(zip(names, combo)), 0, top_i)
                if val != top_i:
                    return _counterexample(frame, ups, names, combo, val)
            verified.add(fp)
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
    n = int(data["worlds"])
    order = closure_pairs([(int(i), int(j)) for i, j in data.get("order", [])],
                          range(n))
    frame = IntLayeredFrame(
        n, frozenset(order),
        frozenset((int(y), int(z), int(x))
                  for y, z, x in data.get("rel", [])))
    valuation = {p: frozenset(int(i) for i in ws)
                 for p, ws in data.get("valuation", {}).items()}
    return RelationalModel(frame, valuation)


def load_frame(path: str) -> RelationalModel:
    with open(path) as fh:
        return frame_from_dict(json.load(fh))
