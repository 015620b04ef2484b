"""The oracle's frame family before its reduction to isomorphism classes.

``unreduced_chunks`` builds one chunk per labelled preorder, keeping the
first relation of each set of equal tables: the family the oracle scanned
before it kept one frame per isomorphism class.  ``class_minima`` groups
its frames into isomorphism classes by relabelling their tables under
every world permutation.  The tests hold the reduced oracle steps against
both.  ``enumerate_frames`` lists every labelled frame up to a world
count, relations in (size, lex) order: the family before any reduction,
and ``upsets`` the up-sets of a frame, the valuations of each atom.

``frame_tables_reference`` builds one frame's complex-algebra tables as
the oracle's numpy builder does, one triple at a time, with the order
tables of ``order_tables_reference``, whose himp scans every world: the
builder ``relational.frame_tables`` replaced.

``closure_reference`` closes a relation by composing it with itself
until nothing is added.  ``check_assignment`` checks that a resource
assignment takes values in the predicate quantifiers' domain, the
up-sets of the placement order.
"""

import itertools
from typing import Dict, Iterator, List, Optional

import numpy as np

from ilgl.formula import InputError
from ilgl.predicate import ResourceAssignment, ResourceModel
from ilgl.relational import (MAX_ALGEBRA_SIZE, OP_NAME, IntLayeredFrame,
                             _order_tables, _triple_tables,
                             enumerate_preorders, principal_upsets,
                             upset_masks)

LAYER_OPS = ("lconj", "rres", "lres")


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


def upsets(frame: IntLayeredFrame) -> List[int]:
    """All up-closed world sets of a frame as bitmasks, ascending."""
    return upset_masks(principal_upsets(frame.worlds, frame.order))


def unreduced_chunks(n: int, cap: Optional[int], ranks=None):
    """(entries, tables) per preorder, in enumeration order, for the
    preorders whose rank is in ``ranks`` (all when None); entries are
    (position, frame, ups) as in the oracle's steps."""
    triples = list(itertools.product(range(n), repeat=3))
    top = len(triples) if cap is None else min(cap, len(triples))
    combos = [np.array(list(itertools.combinations(range(len(triples)), k)),
                       dtype=np.intp) for k in range(top + 1)]
    rels = [frozenset(triples[i] for i in c)
            for block in combos for c in block.tolist()]
    full = (1 << n) - 1
    for p, order in enumerate(enumerate_preorders(n)):
        if ranks is not None and p not in ranks:
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
        first: Dict[bytes, int] = {}
        for r, row in enumerate(map(bytes, layer.reshape(len(rels), -1))):
            first.setdefault(row, r)
        keep = list(first.values())
        ops = np.array([meet, join, himp], dtype=np.int16)
        ops = np.concatenate([np.broadcast_to(ops, (len(keep),) + ops.shape),
                              layer[keep]], axis=1)
        yield ([(p * len(rels) + r, IntLayeredFrame(n, order, rels[r]), ups)
                for r in keep],
               dict(zip(OP_NAME.values(), ops.transpose(1, 0, 2, 3))))


def class_minima(n: int, chunks) -> Dict[tuple, int]:
    """The least position of a frame in each isomorphism class of the
    chunks' frames, by class.  A world permutation carries a frame to one
    on the permuted preorder, whose tables are the frame's with every
    up-set id relabelled; a class is named by the least (preorder rank,
    relabelled tables) over all permutations."""
    rank = {order: p for p, order in enumerate(enumerate_preorders(n))}
    least: Dict[tuple, int] = {}
    for entries, tables in chunks:
        order, ups = entries[0][1].order, entries[0][2]
        layer = np.stack([tables[name] for name in LAYER_OPS], axis=1)
        keys = [None] * len(entries)
        for perm in itertools.permutations(range(n)):
            moved = [sum(1 << perm[w] for w in range(n) if m >> w & 1)
                     for m in ups]
            sigma = np.argsort(np.argsort(moved))
            inv = np.argsort(sigma)
            image = sigma[layer[:, :, inv][:, :, :, inv]]
            r = rank[frozenset((perm[a], perm[b]) for a, b in order)]
            for i, row in enumerate(image):
                key = (r, row.tobytes())
                if keys[i] is None or key < keys[i]:
                    keys[i] = key
        for (position, _, _), key in zip(entries, keys):
            least[key] = min(position, least.get(key, position))
    return least


def order_tables_reference(n: int, order) -> tuple:
    """Order-only part of the complex algebra: up-sets, principal up-set
    masks, and the meet/join/himp tables.  Raises InputError before the
    tables when there are more than MAX_ALGEBRA_SIZE up-sets."""
    up_of = principal_upsets(n, order)
    ups = upset_masks(up_of)
    if len(ups) > MAX_ALGEBRA_SIZE:
        raise InputError(f"{len(ups)} up-sets exceed the algebra bound "
                         f"{MAX_ALGEBRA_SIZE}")
    index = {m: i for i, m in enumerate(ups)}
    meet = [[index[ma & mb] for mb in ups] for ma in ups]
    join = [[index[ma | mb] for mb in ups] for ma in ups]
    himp = [[index[sum(1 << x for x in range(n)
                       if up_of[x] & ma & ~mb == 0)]
             for mb in ups] for ma in ups]
    return ups, index, up_of, meet, join, himp


def frame_tables_reference(frame: IntLayeredFrame) -> tuple:
    """(upsets, ops) where upsets are bitmasks and ops maps each binary
    operation name to a square table over up-set indices."""
    n = frame.worlds
    full = (1 << n) - 1
    ups, index, up_of, meet, join, himp = order_tables_reference(
        n, frame.order)
    lconj, rres, lres = (np.full((len(ups),) * 2, v, np.min_scalar_type(full))
                         for v in (0, full, full))
    for triple in frame.rel:  # one at a time: memory stays O(u^2)
        lc, rr, lr = _triple_tables(n, ups, up_of, [triple])
        lconj, rres, lres = lconj | lc[0], rres & rr[0], lres & lr[0]
    layer = tuple([[index[m] for m in row] for row in t.tolist()]
                  for t in (lconj, rres, lres))
    return ups, dict(zip(OP_NAME.values(), (meet, join, himp) + layer))


def closure_reference(pairs, domain) -> set:
    """The reflexive-transitive closure of ``pairs`` over ``domain``."""
    closed = {(d, d) for d in domain} | set(pairs)
    while True:
        step = {(a, c) for a, b in closed for b2, c in closed if b == b2}
        if step <= closed:
            return closed
        closed |= step


def check_assignment(rm: ResourceModel, s: ResourceAssignment) -> List[str]:
    """Why ``s`` is not an assignment of up-closed placement vertex sets;
    empty when it is one."""
    place_vertices = {v for pair in rm.placement for v in pair}
    problems = []
    for r, block in sorted(s.items()):
        for v in block:
            if v not in place_vertices:
                problems.append(f"{r}: {v} is not a placement vertex")
            for w in place_vertices:
                if (v, w) in rm.placement and w not in block:
                    problems.append(f"{r}: not up-closed at {v} <= {w}")
    return problems
