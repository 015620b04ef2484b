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
from functools import cache, reduce
from operator import or_
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple)

from .formula import (_KEYWORDS, ATOM_RE, And, Atom, Bot, Contains, Exists,
                      Forall, Formula, Imp, ImpLeft, ImpRight, LayerConj, Or,
                      InputError, PointsTo, Top, atoms, postfix)

Triple = Tuple[int, int, int]


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure_rows(pairs, domain) -> List[int]:
    """Reflexive-transitive closure of ``pairs`` over ``domain``: each
    element's successors, as a mask of positions in ``domain``."""
    at = {d: k for k, d in enumerate(domain)}
    up = [1 << k for k in range(len(at))]
    for a, b in pairs:
        if a not in at or b not in at:
            raise ValueError(f"order pair ({a},{b}) outside the domain")
        up[at[a]] |= 1 << at[b]
    for w in range(len(up)):  # Warshall on bit rows
        row, bit = up[w], 1 << w
        if row != bit:  # a row of w alone adds nothing
            up = [r | row if r & bit else r for r in up]
    return up


def closure_pairs(pairs, domain) -> Set[Tuple]:
    """Reflexive-transitive closure of ``pairs`` over ``domain``."""
    domain = list(domain)
    return {(a, b) for a, row in zip(domain, closure_rows(pairs, domain))
            for k, b in enumerate(domain) if row >> k & 1}


def principal_upsets(n: int, order) -> List[int]:
    """The up-set of each world 0..n-1 under the closed preorder ``order``
    on them, as bitmasks."""
    up = [0] * n
    for x, y in order:
        up[x] |= 1 << y
    return up


# The most up-sets ``upset_masks`` builds; above the 16,384 of the
# predicate layer's largest placement graph.
MAX_UPSETS = 1 << 16


# The most elements a complex algebra or an algebra file may have: the
# JSON of a 256-element algebra is 4.7 MB, of a 512-element one 19 MB,
# above the 16 MiB that ``files.read`` decodes.
MAX_ALGEBRA_SIZE = 256


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
        # Transitivity in O(|order|): each world's successors as a bitmask;
        # (i, j) is transitive when j's successors are among i's.
        inside = [(i, j) for i, j in self.order if i in rng and j in rng]
        succ = principal_upsets(self.worlds, inside)
        for i, j in inside:
            missing = succ[j] & ~succ[i]
            if missing:
                problems += [f"order not transitive: ({i},{j}),({j},{l})"
                             for l in rng if missing >> l & 1]
        return problems


@dataclass
class RelationalModel:
    frame: IntLayeredFrame
    valuation: Dict[str, FrozenSet[int]]

    def validate(self) -> List[str]:
        return self.frame.validate() + [
            f"valuation of {p!r} not persistent: {i} <= {j}"
            for p, i, j in persistence_failures(
                self.valuation, self.frame.worlds, self.frame.leq)]


def persistence_failures(valuation: Dict[str, FrozenSet[int]], n: int,
                         leq: Callable[[int, int], bool]
                         ) -> List[Tuple[str, int, int]]:
    """All (atom, i, j) with i <= j but only i in the atom's extension."""
    bad = []
    for p, ws in sorted(valuation.items()):
        for i in ws:
            for j in range(n):
                if j not in ws and leq(i, j):
                    bad.append((p, i, j))
    return bad


class Evaluator:
    """The satisfaction clauses of the relational, layered-graph and
    predicate semantics, one per connective in ``CLAUSES``, memoised per
    (world, formula, assignment).  Layered-graph satisfaction is this run
    on the frame the scaffold carries.  Worlds are bits: ``up[w]`` holds
    the successors of world w in ``frame.order``, the one order every
    clause reads.  So are vertices in the predicate
    clauses: ``places[w]`` holds those of the admissible subgraph that
    world w names and ``succ[w][i]`` vertex i's successors inside it.
    ``upsets``, the quantifier domain, and the blocks of an assignment (a
    frozenset of (name, block) pairs) are vertex masks.
    """

    def __init__(self, frame: IntLayeredFrame,
                 valuation: Dict[str, FrozenSet[int]],
                 places=(), succ=(), upsets=()):
        self.n = frame.worlds
        self.up = principal_upsets(self.n, frame.order)
        self.rel = frame.rel
        self.valuation = valuation
        self.places, self.succ, self.upsets = places, succ, upsets
        # Satisfaction, ``reach`` and ``extensions``, each found once.
        self.memo, self.reached, self.bound = {}, {}, {}

    def sat(self, w: int, f: Formula, s: FrozenSet = frozenset()) -> bool:
        key = (w, f, s)
        value = self.memo.get(key)
        if value is None:
            clause = self.CLAUSES.get(type(f))
            if clause is None:
                raise TypeError(f"not a formula: {f!r}")
            value = self.memo[key] = clause(self, w, f, s)
        return value

    def reach(self, w: int, src: int) -> int:
        """The vertices at the end of a path of at least one edge inside
        world w from ``src``, found once per set of sources in w."""
        src &= self.places[w]
        if (w, src) not in self.reached:
            row, got, frontier = self.succ[w], 0, src
            while frontier:
                step = reduce(or_, map(row.__getitem__, bits(frontier)), 0)
                frontier, got = step & ~got, got | step
            self.reached[w, src] = got
        return self.reached[w, src]

    def extensions(self, f, s: FrozenSet) -> List[FrozenSet]:
        """``s`` with the quantifier's variable bound to each up-set."""
        if (f.var, s) not in self.bound:
            rest = frozenset(pair for pair in s if pair[0] != f.var)
            self.bound[f.var, s] = [rest | {(f.var, m)} for m in self.upsets]
        return self.bound[f.var, s]

    def _imp(self, w, f, s):
        sat = self.sat
        return all(sat(v, f.right, s) for v in bits(self.up[w])
                   if sat(v, f.left, s))

    def _layer_conj(self, w, f, s):
        sat, up = self.sat, self.up
        return any(up[x] >> w & 1 and sat(y, f.left, s)
                   and sat(z, f.right, s) for y, z, x in self.rel)

    def _imp_right(self, w, f, s):
        sat, up = self.sat, self.up[w]
        return all(sat(x, f.right, s) for y, z, x in self.rel
                   if up >> y & 1 and sat(z, f.left, s))

    def _imp_left(self, w, f, s):
        sat, up = self.sat, self.up[w]
        return all(sat(x, f.right, s) for z, y, x in self.rel
                   if up >> y & 1 and sat(z, f.left, s))

    def _points_to(self, w, f, s):
        env = dict(s)
        return self.reach(w, env[f.source]) & env[f.target] != 0

    def _exists(self, w, f, s):
        return any(self.sat(w, f.body, t) for t in self.extensions(f, s))

    def _forall(self, w, f, s):
        # World and domain quantification combined, as the semantics
        # states it: every extension at every order-successor.
        above = list(bits(self.up[w]))
        return all(self.sat(v, f.body, t) for t in self.extensions(f, s)
                   for v in above)

    CLAUSES = {
        Atom: lambda ev, w, f, s: w in ev.valuation.get(f.name, ()),
        Top: lambda ev, w, f, s: True,
        Bot: lambda ev, w, f, s: False,
        And: lambda ev, w, f, s: (ev.sat(w, f.left, s)
                                  and ev.sat(w, f.right, s)),
        Or: lambda ev, w, f, s: ev.sat(w, f.left, s) or ev.sat(w, f.right, s),
        Imp: _imp, LayerConj: _layer_conj, ImpRight: _imp_right,
        ImpLeft: _imp_left, PointsTo: _points_to, Exists: _exists,
        Contains: lambda ev, w, f, s: dict(s)[f.resource] & ev.places[w] != 0,
        Forall: _forall}


def rel_satisfies(model: RelationalModel, world: int, f: Formula) -> bool:
    return Evaluator(model.frame, model.valuation).sat(world, f)


# -- frame enumeration ---------------------------------------------------

def enumerate_preorders(n: int) -> List[FrozenSet[Tuple[int, int]]]:
    """All preorders on n elements, as closures of all binary relations,
    deduplicated; ordered by (size, sorted pairs)."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen = set()
    for chosen in range(2 ** len(pairs)):
        base = [p for b, p in enumerate(pairs) if chosen >> b & 1]
        seen.add(frozenset(closure_pairs(base, range(n))))
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


DEFAULT_REL_CAPS = {1: None, 2: None, 3: 2, 4: 2}


# Complex-algebra operation tables: one frame's on bit rows, and the
# oracle's below folded from per-triple tables (frames sharing tables are
# interchangeable for validity).  Only the oracle's functions import numpy.

# The operation each binary connective denotes in an algebra.
OP_NAME = {And: "meet", Or: "join", Imp: "himp", LayerConj: "lconj",
           ImpRight: "rres", ImpLeft: "lres"}


def preimages(rows, masks) -> List[List[int]]:
    """``preimages(rows, masks)[r][m]``: the c with ``rows[r][c]`` in
    ``masks[m]``, as a bitmask.  Each distinct row of ids, all below
    MAX_ALGEBRA_SIZE = 256, is read as bytes through a table per mask."""
    tables = [format(m, "0256b")[::-1].encode() for m in masks]
    read = cache(lambda key: [int(key.translate(t) or b"0", 2)
                              for t in tables])
    return [read(bytes(reversed(row))) for row in rows]


def _order_tables(n: int, order) -> tuple:
    """Order-only part of the complex algebra: up-sets, their ids,
    principal up-set masks, the meet/join/himp tables, and ``residual``,
    which maps the table of a union-preserving product to its residual:
    entry (a, b) holds the x with ``product[a][↑x]`` in ``down[b]``.
    Raises InputError first if there are over MAX_ALGEBRA_SIZE up-sets."""
    up_of = principal_upsets(n, order)
    ups = upset_masks(up_of)
    if len(ups) > MAX_ALGEBRA_SIZE:
        raise InputError(f"{len(ups)} up-sets exceed the algebra bound "
                         f"{MAX_ALGEBRA_SIZE}")
    index = {m: i for i, m in enumerate(ups)}
    meet = [[index[ma & mb] for mb in ups] for ma in ups]
    join = [[index[ma | mb] for mb in ups] for ma in ups]
    at = [index[m] for m in up_of]
    down = [sum(1 << e for e, m in enumerate(ups) if m & ~mb == 0)
            for mb in ups]

    def residual(product) -> List[List[int]]:
        return [list(map(index.__getitem__, masks)) for masks in
                preimages([[row[p] for p in at] for row in product], down)]
    return ups, index, up_of, meet, join, residual(meet), residual


def frame_tables(frame: IntLayeredFrame) -> tuple:
    """(upsets, ops) where upsets are bitmasks and ops maps each binary
    operation name to a square table over up-set indices.  lconj[a] is
    the OR over the y in a of ``hits[y]``, where ``hits[y][b]`` is the
    union of the ``↑x`` over the triples (y, z, x) with z in b; rres and
    lres are its residuals, with ``↑x`` on the left and on the right."""
    ups, index, up_of, meet, join, himp, residual = _order_tables(
        frame.worlds, frame.order)
    hits: Dict[int, list] = {}
    for y, z, x in frame.rel:
        hits[y] = [h | up_of[x] if mb >> z & 1 else h
                   for h, mb in zip(hits.get(y, [0] * len(ups)), ups)]
    down = principal_upsets(frame.worlds, {(x, y) for y, x in frame.order})
    # Each up-set's row is that of the smaller up-set left when the class
    # of a minimal world y is removed, ORed with the class's hits.
    rows = {0: [0] * len(ups)}
    for a in ups[1:]:
        y = next(y for y in bits(a) if down[y] & a & ~up_of[y] == 0)
        rows[a] = reduce(lambda row, more: list(map(or_, row, more)),
                         (hits[x] for x in bits(up_of[y] & down[y])
                          if x in hits), rows[a & ~down[y]])
    lconj = [list(map(index.__getitem__, rows[a])) for a in ups]
    layer = (lconj, residual(list(zip(*lconj))), residual(lconj))
    return ups, dict(zip(OP_NAME.values(), (meet, join, himp) + layer))


def _triple_tables(n: int, ups: list, up_of: list, triples) -> tuple:
    """The lconj, rres and lres world masks of each single triple, as
    arrays of shape (T, u, u); a relation's tables are their OR (lconj)
    and AND (rres, lres).  For (t0, t1, t2): lconj[a][b] is up_of[t2]
    when a holds t0 and b holds t1; rres[a][b] drops the worlds below t0
    when a holds t1 and b misses t2, lres those below t1 when a holds t0
    and b misses t2."""
    import numpy as np
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
    import numpy as np
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
    singles = np.left_shift(np.uint64(1), moved.astype(np.uint64))
    masks = np.concatenate([np.bitwise_or.reduce(singles[:, c], axis=-1)
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
        ups, index, up_of, meet, join, himp, _ = _order_tables(n, order)
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
    entry ``indices`` with their int16 operation ``tables``, (A, u, u).
    The scan reads a table as one flat array, so each algebra's u * u
    cells are contiguous and algebra i's start at offset i * u * u."""

    def __init__(self, chunks):
        import numpy as np
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


@cache
def _stacked_step(n: int, cap: Optional[int]) -> _StackedStep:
    """The oracle's step by (worlds, relation cap), built on first use
    and kept for the process's life: 18,186 algebras at most by default."""
    return _StackedStep(_preorder_chunks(n, cap))


def _scan_stacked(nodes: list, names: list, step: _StackedStep
                  ) -> Optional[Counterexample]:
    """Evaluate the formula whose ``postfix`` is ``nodes`` over every
    (algebra, assignment) of a stacked step at once; returns the
    counterexample earliest in enumeration order.  Axis m indexes atom
    m's up-set and the last axis the group's algebras, so broadcasting
    evaluates each subformula over the atoms it mentions only, and
    numpy's inner loops run along the algebras.  Each table lookup is
    one ``take`` from the group's flattened int16 tables, at offsets of
    the narrowest type that holds the group's A * u * u cells: int16 up
    to 32,767, int32 above.  Only the root's value is spread to (u^k,
    algebras): assignment t gives atom m the up-set its m-th base-u
    digit names, most significant first."""
    import numpy as np
    k = len(names)
    best = None  # (position, frame, ups, assignment index, value index)
    for u in sorted(step.groups):
        group = step.groups[u]
        flat = {name: t.reshape(-1) for name, t in group["tables"].items()}
        a_count = len(group["indices"])
        cells = a_count * u * u
        dtype = np.int16 if cells < 1 << 15 else np.int32
        width = dtype(u)
        base = np.arange(0, cells, u * u, dtype=dtype
                         ).reshape((1,) * k + (a_count,))
        atom_vec = {name: np.arange(u, dtype=dtype).reshape(
                        (1,) * m + (u,) + (1,) * (k - m))
                    for m, name in enumerate(names)}
        result = np.broadcast_to(fold_tables(
            nodes, lambda name, a, b: flat[name].take(base + a * width + b),
            atom_vec, 0, u - 1), (u,) * k + (a_count,)).reshape(-1, a_count)
        failing = result != (u - 1)
        hit = failing.any(axis=0)
        column = int(hit.argmax())  # positions ascend with the columns
        position, frame, ups = step.entries[group["indices"][column]]
        if hit[column] and (best is None or position < best[0]):
            t = int(failing[:, column].argmax())
            best = (position, frame, ups, t, int(result[t, column]))
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
    at 4 worlds.  ``rel_caps`` maps world counts 1 to 4 to a relation
    size cap: None for no cap, or an integer from 0.
    """
    if type(max_worlds) is not int or max_worlds < 1:
        raise ValueError(f"max_worlds must be a world count from 1, "
                         f"got {max_worlds!r}")
    if max_worlds > 4:
        raise ValueError(f"{max_worlds} worlds exceed the oracle's limit 4")
    caps = {**DEFAULT_REL_CAPS, **(rel_caps or {})}
    for n, cap in caps.items():
        if n not in DEFAULT_REL_CAPS or cap is not None and (
                type(cap) is not int or cap < 0):
            raise ValueError(f"rel_caps maps {n!r} to {cap!r}: it needs a "
                             f"world count from 1 to 4 and None or an "
                             f"integer from 0")
    names = atoms(f)
    if len(names) > max_atoms:
        raise ValueError(f"{len(names)} atoms exceed the limit {max_atoms}")
    nodes = postfix(f)
    for n in range(1, max_worlds + 1):
        hit = _scan_stacked(nodes, names, _stacked_step(n, caps[n]))
        if hit is not None:
            return hit
    return None


# -- JSON frame format ---------------------------------------------------

# The most worlds a frame file may declare: at this bound, loading and
# validating a frame whose order is total takes about a second.
MAX_FRAME_WORLDS = 512


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
    if n > MAX_FRAME_WORLDS:
        raise InputError(f"{n} worlds exceed the frame bound "
                         f"{MAX_FRAME_WORLDS}")
    order = json_list(json_list(data.get("order", []), "order"),
                      "order pair", "a world id", 2)
    rel = json_list(json_list(data.get("rel", []), "rel"), "relation triple",
                    "a world id", 3)
    frame = IntLayeredFrame(n, frozenset(closure_pairs(order, range(n))),
                            frozenset(map(tuple, rel)))
    return RelationalModel(frame, valuation_from_dict(data, n))


# The JSON types of each kind of item in a file's lists, named with their
# article; a boolean is none of them.
ID_TYPES = {"a world id": (int,), "a vertex id": (str, int),
            "an integer": (int,), "a resource name": (str,)}


def json_list(value, what: str, noun: str = "", count: int = 0) -> list:
    """``value``, which must be a JSON list of items of the kind ``noun``
    of ``ID_TYPES`` if given; with ``count``, a checked list of lists of
    ``count`` such items (edges, pairs, triples), each named ``what``."""
    if type(value) is not list:
        raise InputError(f"{what} is {value!r:.40}, not a list")
    if count:
        kinds = ID_TYPES[noun]
        for ids in value:
            if type(ids) is not list or len(ids) != count:
                raise InputError(f"{what} is {ids!r:.40}, not a list of "
                                 f"{count}")
            for x in ids:
                if type(x) not in kinds:
                    raise InputError(f"{what} {ids!r} holds {x!r}, not {noun}")
    elif noun:
        kinds = ID_TYPES[noun]
        for x in value:
            if type(x) not in kinds:
                raise InputError(f"{what} holds {x!r}, not {noun}")
    return value


def valuation_from_dict(data: dict, n: int) -> Dict[str, FrozenSet[int]]:
    """The file's valuation: each atom's worlds, all among 0..n-1, keyed
    by names a formula can read as atoms."""
    given = data.get("valuation", {})
    if type(given) is not dict:
        raise InputError(f"valuation is {given!r:.40}, not an object")
    valuation = {p: frozenset(json_list(ws, f"valuation of {p!r}",
                                        "a world id"))
                 for p, ws in given.items()}
    for p, ws in valuation.items():
        if not ATOM_RE.match(p) or p in _KEYWORDS:
            raise InputError(f"valuation key {p!r} is not an atom name")
        for i in ws:
            if not 0 <= i < n:
                raise ValueError(f"valuation of {p!r} mentions world {i}")
    return valuation
