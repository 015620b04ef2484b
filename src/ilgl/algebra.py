"""Finite layered Heyting algebras: validation, interpretation, complex
algebras, prime filter frames, the representation embedding, and the
finite-embeddability completion.

Algebras are explicit operation tables over element ids 0..size-1; that
keeps validation and the completion construction total and cheap at the
sizes this toolkit targets (a few dozen elements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .formula import Formula, InputError
from .relational import (OP_NAME, Evaluator, IntLayeredFrame,
                         RelationalModel, fold_tables, frame_tables, postfix)

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


def validate_algebra(alg: FiniteLayeredHeytingAlgebra,
                     max_reports: int = 20) -> List[dict]:
    """Check the lattice, Heyting, and residuation axioms; empty iff valid."""
    n = alg.size
    out: List[dict] = []

    def report(law: str, **witness) -> bool:
        out.append({"law": law, **witness})
        return len(out) >= max_reports

    rng = range(n)
    for name in BINOPS:
        table = alg.op(name)
        if len(table) != n or any(len(row) != n for row in table):
            report("table shape", op=name)
            return out
        for a in rng:
            for b in rng:
                if not 0 <= table[a][b] < n:
                    if report("table range", op=name, a=a, b=b):
                        return out
    if not (0 <= alg.top < n and 0 <= alg.bot < n):
        report("constants out of range")
        return out
    for a in rng:
        if not alg.le(a, a) and report("order reflexivity", a=a):
            return out
        for b in rng:
            if alg.le(a, b) and alg.le(b, a) and a != b:
                if report("order antisymmetry", a=a, b=b):
                    return out
            for c in rng:
                if alg.le(a, b) and alg.le(b, c) and not alg.le(a, c):
                    if report("order transitivity", a=a, b=b, c=c):
                        return out
    for a in rng:
        if not alg.le(alg.bot, a) and report("bot least", a=a):
            return out
        if not alg.le(a, alg.top) and report("top greatest", a=a):
            return out
    for a in rng:
        for b in rng:
            m, j = alg.meet[a][b], alg.join[a][b]
            if not (alg.le(m, a) and alg.le(m, b)):
                if report("meet lower bound", a=a, b=b):
                    return out
            if not (alg.le(a, j) and alg.le(b, j)):
                if report("join upper bound", a=a, b=b):
                    return out
            for c in rng:
                if alg.le(c, a) and alg.le(c, b) and not alg.le(c, m):
                    if report("meet greatest lower bound", a=a, b=b, c=c):
                        return out
                if alg.le(a, c) and alg.le(b, c) and not alg.le(j, c):
                    if report("join least upper bound", a=a, b=b, c=c):
                        return out
    for a in rng:
        for b in rng:
            for c in rng:
                if (alg.meet[a][alg.join[b][c]]
                        != alg.join[alg.meet[a][b]][alg.meet[a][c]]):
                    if report("distributivity", a=a, b=b, c=c):
                        return out
                if alg.le(alg.meet[a][c], b) != alg.le(c, alg.himp[a][b]):
                    if report("Heyting adjunction", a=a, b=b, c=c):
                        return out
                left = alg.le(alg.lconj[a][b], c)
                if left != alg.le(a, alg.rres[b][c]):
                    if report("residuation (right)", a=a, b=b, c=c):
                        return out
                if left != alg.le(b, alg.lres[a][c]):
                    if report("residuation (left)", a=a, b=b, c=c):
                        return out
    return out


# -- complex algebras -----------------------------------------------------

def complex_algebra_with_elements(
        frame: IntLayeredFrame) -> Tuple[FiniteLayeredHeytingAlgebra, list]:
    """Complex algebra of a frame plus its elements as world bitmasks."""
    ups, ops = frame_tables(frame)
    u = len(ups)
    leq = [[ups[a] & ~ups[b] == 0 for b in range(u)] for a in range(u)]
    alg = FiniteLayeredHeytingAlgebra(
        size=u, leq=leq, top=u - 1, bot=0, **ops)
    return alg, ups


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

def prime_filters(alg: FiniteLayeredHeytingAlgebra) -> List[FrozenSet[int]]:
    """All prime filters, each as a set of element ids.

    In a finite lattice every filter is principal (it contains the meet of
    its elements), so candidates are exactly the up-sets of single
    elements.
    """
    out = []
    for a in range(alg.size):
        if a == alg.bot:
            continue  # improper: the whole algebra
        filt = frozenset(b for b in range(alg.size) if alg.le(a, b))
        prime = all(not alg.le(a, alg.join[x][y])
                    or alg.le(a, x) or alg.le(a, y)
                    for x in range(alg.size) for y in range(alg.size))
        if prime:
            out.append(filt)
    out.sort(key=sorted)
    return out


def prime_filter_frame(alg: FiniteLayeredHeytingAlgebra) -> IntLayeredFrame:
    """Worlds are prime filters ordered by inclusion; R holds when the
    layering product of the first two filters lands in the third."""
    filters = prime_filters(alg)
    k = len(filters)
    order = frozenset((i, j) for i in range(k) for j in range(k)
                      if filters[i] <= filters[j])
    rel = set()
    for i, f0 in enumerate(filters):
        for j, f1 in enumerate(filters):
            for m, f2 in enumerate(filters):
                if all(alg.lconj[a][b] in f2 for a in f0 for b in f1):
                    rel.add((i, j, m))
    return IntLayeredFrame(k, order, frozenset(rel))


def representation_embed(
        alg: FiniteLayeredHeytingAlgebra) -> Tuple[Dict[int, int], List[dict]]:
    """Embed the algebra into the complex algebra of its prime filter frame.

    Returns the element map plus a verification report (empty iff the map
    is injective and preserves order, every binary operation, and both
    constants).
    """
    filters = prime_filters(alg)
    frame = prime_filter_frame(alg)
    com, ups = complex_algebra_with_elements(frame)
    index = {m: i for i, m in enumerate(ups)}
    report: List[dict] = []
    h: Dict[int, int] = {}
    for a in range(alg.size):
        mask = sum(1 << i for i, f in enumerate(filters) if a in f)
        if mask not in index:
            report.append({"problem": "image not an up-set", "element": a})
            return h, report
        h[a] = index[mask]
    if len(set(h.values())) != alg.size:
        report.append({"problem": "not injective"})
    if h[alg.top] != com.top:
        report.append({"problem": "top not preserved"})
    if h[alg.bot] != com.bot:
        report.append({"problem": "bot not preserved"})
    for a in range(alg.size):
        for b in range(alg.size):
            if alg.le(a, b) != com.le(h[a], h[b]):
                report.append({"problem": "order not preserved",
                               "a": a, "b": b})
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
    k = len(elems)

    def meet_c(items) -> int:
        acc = alg.top
        for a in items:
            acc = alg.meet[acc][a]
        return acc

    def join_c(items) -> int:
        acc = alg.bot
        for a in items:
            acc = alg.join[acc][a]
        return acc

    def close_up(a: int) -> int:
        return meet_c(c for c in elems if alg.le(a, c))

    def close_down(a: int) -> int:
        return join_c(c for c in elems if alg.le(c, a))

    leq = [[alg.le(elems[i], elems[j]) for j in range(k)] for i in range(k)]
    meet = [[index[alg.meet[elems[i]][elems[j]]] for j in range(k)]
            for i in range(k)]
    join = [[index[alg.join[elems[i]][elems[j]]] for j in range(k)]
            for i in range(k)]
    himp = [[index[join_c(c for c in elems
                          if alg.le(alg.meet[elems[i]][c], elems[j]))]
             for j in range(k)] for i in range(k)]
    lconj = [[index[close_up(alg.lconj[elems[i]][elems[j]])]
              for j in range(k)] for i in range(k)]
    rres = [[index[close_down(alg.rres[elems[i]][elems[j]])]
             for j in range(k)] for i in range(k)]
    lres = [[index[close_down(alg.lres[elems[i]][elems[j]])]
             for j in range(k)] for i in range(k)]
    completed = FiniteLayeredHeytingAlgebra(
        size=k, leq=leq, meet=meet, join=join, himp=himp, lconj=lconj,
        rres=rres, lres=lres, top=index[alg.top], bot=index[alg.bot])
    inclusion = {a: index[a] for a in sorted(base)}

    report = [dict(kind="algebra", **v) for v in validate_algebra(completed)]
    for name in BINOPS:
        for a in sorted(base):
            for b in sorted(base):
                image = alg.op(name)[a][b]
                if image in base:
                    if completed.op(name)[index[a]][index[b]] != index[image]:
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
    every table is size x size and every entry, top and bot is an element
    id (KeyError or TypeError on a missing or mistyped field); the laws
    are ``validate_algebra``'s to check."""
    n = int(data["size"])
    leq = [[bool(x) for x in row] for row in data["leq"]]
    ops = {name: [[int(x) for x in row] for row in data[name]]
           for name in BINOPS}
    top, bot = int(data["top"]), int(data["bot"])
    for name, rows in {"leq": leq, **ops}.items():
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"{name} is not a {n} x {n} table")
        if name in ops and any(not 0 <= x < n for row in rows for x in row):
            raise ValueError(f"{name} has an entry outside 0..{n - 1}")
    if not (0 <= top < n and 0 <= bot < n):
        raise ValueError(f"top or bot outside 0..{n - 1}")
    return FiniteLayeredHeytingAlgebra(size=n, leq=leq, top=top, bot=bot,
                                       **ops)
