"""Finite layered Heyting algebras: validation, interpretation, complex
algebras, prime filter frames, the representation embedding, and the
finite-embeddability completion.

Algebras are explicit operation tables over element ids 0..size-1.  The
laws are checked as equations between element sets held as bitmasks, and
the prime filters come from the join-irreducible elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import merge
from itertools import chain, islice, product, repeat
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .formula import Formula, InputError, postfix
from .relational import (MAX_ALGEBRA_SIZE, OP_NAME, Evaluator,
                         IntLayeredFrame, RelationalModel, bits, fold_tables,
                         frame_tables, json_list, preimages)

BINOPS = tuple(OP_NAME.values())


@dataclass
class FiniteLayeredHeytingAlgebra:
    size: int
    leq: Sequence[Sequence[bool]]
    meet: Sequence[Sequence[int]]
    join: Sequence[Sequence[int]]
    himp: Sequence[Sequence[int]]
    lconj: Sequence[Sequence[int]]
    rres: Sequence[Sequence[int]]
    lres: Sequence[Sequence[int]]
    top: int
    bot: int

    def op(self, name: str) -> Sequence[Sequence[int]]:
        return getattr(self, name)

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a][b])


@dataclass
class AlgebraInterpretation:
    algebra: FiniteLayeredHeytingAlgebra
    valuation: Dict[str, int]


def interpret(interp: AlgebraInterpretation, f: Formula) -> int:
    """Fold ``f`` through the operation tables; unknown atoms go to bot."""
    alg = interp.algebra
    return fold_tables(postfix(f), lambda name, a, b: alg.op(name)[a][b],
                       interp.valuation, alg.bot, alg.top)


def validate_algebra(alg: FiniteLayeredHeytingAlgebra) -> List[dict]:
    """Check the lattice, Heyting, and residuation axioms; empty iff valid.
    Stops at the 20th violation.  Needs at most MAX_ALGEBRA_SIZE elements
    and size x size tables whose entries, like top and bot, are element
    ids: ``algebra_from_dict`` refuses other input, and ``complex_algebra``
    and ``fep_complete`` build such tables."""
    return list(islice(_violations(alg), 20))


def _violations(alg: FiniteLayeredHeytingAlgebra) -> Iterator[dict]:
    """Each broken law with its witness, group by group.  A law lists its
    witnesses (a,), (a, b) or (a, b, c) in ascending order, from one
    comparison of two element sets held as bitmasks: ``up[a]`` holds the
    elements at or above a, ``down[a]`` those at or below it.  Within a
    group, witnesses merge in ascending order, laws in turn on a tie."""
    rng, every = range(alg.size), (1 << alg.size) - 1
    up = [sum(1 << b for b in rng if alg.leq[a][b]) for a in rng]
    down = [sum(1 << b for b in rng if alg.leq[b][a]) for a in rng]
    pairs = list(product(rng, repeat=2))
    meet, join, lconj = alg.meet, alg.join, alg.lconj
    # The c with meet[a][c] <= b, with a <= rres[b][c], with b <= lres[a][c].
    below, above_r, above_l = (preimages(meet, down), preimages(alg.rres, up),
                               preimages(alg.lres, up))
    groups = [
        [("order reflexivity", ((a,) for a in rng if not up[a] >> a & 1)),
         ("order antisymmetry", ((a, b) for a in rng
                                 for b in bits(up[a] & down[a] & ~(1 << a)))),
         ("order transitivity", ((a, b, c) for a in rng for b in bits(up[a])
                                 for c in bits(up[b] & ~up[a])))],
        [("bot least", ((a,) for a in bits(every & ~up[alg.bot]))),
         ("top greatest", ((a,) for a in bits(every & ~down[alg.top])))],
        [("meet lower bound", ((a, b) for a, b in pairs
                               if not (down[a] & down[b]) >> meet[a][b] & 1)),
         ("join upper bound", ((a, b) for a, b in pairs
                               if not (up[a] & up[b]) >> join[a][b] & 1)),
         ("meet greatest lower bound", ((a, b, c) for a, b in pairs for c in
                                        bits(down[a] & down[b]
                                             & ~down[meet[a][b]]))),
         ("join least upper bound", ((a, b, c) for a, b in pairs for c in
                                     bits(up[a] & up[b] & ~up[join[a][b]])))],
        [("Heyting adjunction", ((a, b, c) for a, b in pairs for c in bits(
            down[alg.himp[a][b]] ^ below[a][b]))),
         ("residuation (right)", ((a, b, c) for a, b in pairs for c in bits(
             up[lconj[a][b]] ^ above_r[b][a]))),
         ("residuation (left)", ((a, b, c) for a, b in pairs for c in bits(
             up[lconj[a][b]] ^ above_l[a][b])))]]
    for group in groups:
        ranked = (zip(witnesses, repeat(rank), repeat(law))
                  for rank, (law, witnesses) in enumerate(group))
        for witness, _, law in merge(*ranked):
            yield {"law": law, **dict(zip("abc", witness))}


# -- complex algebras -----------------------------------------------------

def complex_algebra_with_elements(
        frame: IntLayeredFrame) -> Tuple[FiniteLayeredHeytingAlgebra, list]:
    """Complex algebra of a frame plus its elements as world bitmasks."""
    ups, ops = frame_tables(frame)
    leq = [[ma & ~mb == 0 for mb in ups] for ma in ups]
    return FiniteLayeredHeytingAlgebra(size=len(ups), leq=leq,
                                       top=len(ups) - 1, bot=0, **ops), ups


def complex_algebra(frame: IntLayeredFrame) -> FiniteLayeredHeytingAlgebra:
    return complex_algebra_with_elements(frame)[0]


def algebra_satisfaction_agrees(model: RelationalModel, f: Formula) -> bool:
    """Pointwise agreement of the complex-algebra interpretation with
    relational satisfaction (the two-semantics bridge, used as a test)."""
    alg, ups = complex_algebra_with_elements(model.frame)
    index = {m: i for i, m in enumerate(ups)}
    masks = {p: sum(1 << w for w in worlds)
             for p, worlds in model.valuation.items()}
    if any(m not in index for m in masks.values()):
        return False  # not persistent, so not a valid model
    valuation = {p: index[m] for p, m in masks.items()}
    mask = ups[interpret(AlgebraInterpretation(alg, valuation), f)]
    ev = Evaluator(model.frame, model.valuation)
    return all((mask >> w & 1 == 1) == ev.sat(w, f)
               for w in range(model.frame.worlds))


# -- prime filters and representation ------------------------------------

def _fold(table: Sequence[Sequence[int]], items, unit: int) -> int:
    """``items`` folded through ``table`` from ``unit``: a join or meet."""
    return reduce(lambda acc, a: table[acc][a], items, unit)


def _join_irreducibles(alg: FiniteLayeredHeytingAlgebra) -> List[int]:
    """The join-irreducible elements, ordered as their up-sets sorted:
    each a other than the join of the elements strictly below it (bot is
    that empty join, so it is never one).  In a finite distributive
    lattice the prime filters are exactly their up-sets (Davey &
    Priestley, *Introduction to Lattices and Order*, 2nd ed., ch. 5)."""
    rng = range(alg.size)
    irreducible = [a for a in rng if a != _fold(
        alg.join, (b for b in rng if alg.le(b, a) and b != a), alg.bot)]
    return sorted(irreducible, key=lambda a: [b for b in rng if alg.le(a, b)])


def prime_filters(alg: FiniteLayeredHeytingAlgebra) -> List[FrozenSet[int]]:
    """All prime filters as sets of element ids, sorted: the up-sets of the
    join-irreducibles, so the algebra must be valid (``cmd_algebra``
    validates it first; complex algebras are valid by construction)."""
    return [frozenset(b for b in range(alg.size) if alg.le(a, b))
            for a in _join_irreducibles(alg)]


def _filter_frame(alg: FiniteLayeredHeytingAlgebra
                  ) -> Tuple[IntLayeredFrame, List[int]]:
    """The prime filter frame, and for each element the worlds whose
    filter holds it.  Worlds are prime filters ordered by inclusion; R
    holds when the layering product of the first two filters lands in the
    third.  The algebra must be valid, as for ``prime_filters``.

    World i is the filter of the i-th join-irreducible g[i], which holds
    a iff g[i] <= a.  So filter i lies in filter j iff g[j] <= g[i], and,
    the layering product being monotone, the products of filters i and j
    land in filter m iff g[m] <= lconj[g[i]][g[j]]."""
    g = _join_irreducibles(alg)
    k = range(len(g))
    holds = [sum(1 << i for i in k if alg.le(g[i], a))
             for a in range(alg.size)]
    order = frozenset((i, j) for i in k for j in bits(holds[g[i]]))
    rel = frozenset((i, j, m) for i, j in product(k, repeat=2)
                    for m in bits(holds[alg.lconj[g[i]][g[j]]]))
    return IntLayeredFrame(len(g), order, rel), holds


def representation_embed(
        alg: FiniteLayeredHeytingAlgebra) -> Tuple[Dict[int, int], List[dict]]:
    """Embed the algebra into the complex algebra of its prime filter frame.

    Returns the element map plus a verification report (empty iff the map
    is injective and preserves order, every binary operation, and both
    constants).  Like ``prime_filters`` this needs a valid algebra.
    """
    frame, holds = _filter_frame(alg)
    com, ups = complex_algebra_with_elements(frame)
    index = {m: i for i, m in enumerate(ups)}
    report: List[dict] = []
    h: Dict[int, int] = {}
    for a in range(alg.size):
        if holds[a] not in index:
            report.append({"problem": "image not an up-set", "element": a})
            return h, report
        h[a] = index[holds[a]]
    if len(set(h.values())) != alg.size:
        report.append({"problem": "not injective"})
    if h[alg.top] != com.top:
        report.append({"problem": "top not preserved"})
    if h[alg.bot] != com.bot:
        report.append({"problem": "bot not preserved"})
    for a, b in product(range(alg.size), repeat=2):
        if alg.le(a, b) != com.le(h[a], h[b]):
            report.append({"problem": "order not preserved", "a": a, "b": b})
        for name in BINOPS:
            if h[alg.op(name)[a][b]] != com.op(name)[h[a]][h[b]]:
                report.append({"problem": f"{name} not preserved",
                               "a": a, "b": b})
    return h, report


# -- finite embeddability completion --------------------------------------

def fep_complete(alg: FiniteLayeredHeytingAlgebra,
                 subset: Sequence[int]
                 ) -> Tuple[FiniteLayeredHeytingAlgebra, Dict[int, int],
                            List[dict]]:
    """Complete the partial subalgebra on ``subset`` to a finite layered
    Heyting algebra.

    The carrier is the distributive sublattice generated by the subset
    (top and bot are adjoined when missing); Heyting implication is the
    join of admissible meets, and the layering operations come from the
    ambient ones squeezed through the closure/interior maps onto the
    carrier.  Returns (algebra, inclusion map on A-elements, report); the
    report verifies validity and the embeddability property itself.
    Raises InputError on a subset id outside the algebra.
    """
    if any(not 0 <= a < alg.size for a in subset):
        raise InputError(f"subset ids must be elements 0..{alg.size - 1}")
    base = set(subset) | {alg.top, alg.bot}
    carrier = set(base)
    while True:
        extra = {alg.meet[a][b] for a in carrier for b in carrier}
        extra |= {alg.join[a][b] for a in carrier for b in carrier}
        if extra <= carrier:
            break
        carrier |= extra
    elems = sorted(carrier)
    index = {a: i for i, a in enumerate(elems)}

    def close_up(a: int) -> int:
        return _fold(alg.meet, (c for c in elems if alg.le(a, c)), alg.top)

    def close_down(a: int) -> int:
        return _fold(alg.join, (c for c in elems if alg.le(c, a)), alg.bot)

    def table(entry) -> List[List[int]]:
        return [[index[entry(a, b)] for b in elems] for a in elems]

    completed = FiniteLayeredHeytingAlgebra(
        size=len(elems), leq=[[alg.le(a, b) for b in elems] for a in elems],
        meet=table(lambda a, b: alg.meet[a][b]),
        join=table(lambda a, b: alg.join[a][b]),
        himp=table(lambda a, b: _fold(alg.join, (
            c for c in elems if alg.le(alg.meet[a][c], b)), alg.bot)),
        lconj=table(lambda a, b: close_up(alg.lconj[a][b])),
        rres=table(lambda a, b: close_down(alg.rres[a][b])),
        lres=table(lambda a, b: close_down(alg.lres[a][b])),
        top=index[alg.top], bot=index[alg.bot])
    inclusion = {a: index[a] for a in sorted(base)}

    report = [dict(kind="algebra", **v) for v in validate_algebra(completed)]
    for name, a, b in product(BINOPS, sorted(base), sorted(base)):
        image = alg.op(name)[a][b]
        if image in base and (completed.op(name)[index[a]][index[b]]
                              != index[image]):
            report.append({"kind": "embeddability", "op": name,
                           "a": a, "b": b})
    return completed, inclusion, report


# -- JSON algebra format ---------------------------------------------------

def algebra_to_dict(alg: FiniteLayeredHeytingAlgebra) -> dict:
    return {
        "size": alg.size,
        "leq": [[1 if alg.le(a, b) else 0 for b in range(alg.size)]
                for a in range(alg.size)],
        **{name: [list(row) for row in alg.op(name)] for name in BINOPS},
        "top": alg.top,
        "bot": alg.bot,
    }


def algebra_from_dict(data: dict) -> FiniteLayeredHeytingAlgebra:
    """The algebra a JSON object describes.  Raises ValueError unless
    size <= MAX_ALGEBRA_SIZE (checked first), every table is a size x size
    list of lists and every entry, top and bot is an element id: a JSON
    integer, and in ``leq`` 0, 1, true or false (KeyError on a missing
    field); the laws are ``validate_algebra``'s."""
    (n,) = json_list([data["size"]], "size", "an integer")
    if n < 1:
        raise InputError(f"size {n} is below 1, the fewest elements of an "
                         "algebra")
    if n > MAX_ALGEBRA_SIZE:
        raise InputError(f"size {n} over the algebra bound {MAX_ALGEBRA_SIZE}")
    leq = [json_list(row, "leq") for row in json_list(data["leq"], "leq")]
    for x in chain.from_iterable(leq):
        if type(x) not in (int, bool) or x not in (0, 1):
            raise InputError(f"leq holds {x!r}: only 0, 1, true or false")
    ops = {name: [json_list(row, name, "an integer")
                  for row in json_list(data[name], name)] for name in BINOPS}
    (top,), (bot,) = (json_list([data[key]], key, "an integer")
                      for key in ("top", "bot"))
    for name, rows in {"leq": leq, **ops}.items():
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"{name} is not a {n} x {n} table")
        if name in ops and any(not 0 <= x < n for row in rows for x in row):
            raise ValueError(f"{name} has an entry outside 0..{n - 1}")
    if not (0 <= top < n and 0 <= bot < n):
        raise ValueError(f"top or bot outside 0..{n - 1}")
    return FiniteLayeredHeytingAlgebra(
        size=n, leq=[list(map(bool, row)) for row in leq], top=top, bot=bot,
        **ops)
