"""References for the algebra layer: the axiom checks, prime filters,
prime filter frame and representation embedding as element-by-element
scans.

``validate_algebra`` checks each law with nested loops over the
elements, table shapes and ranges first.  ``prime_filters`` tests every
principal filter for primeness against every join; ``prime_filter_frame``
tests every product of every pair of filters; ``representation_embed``
maps each element to the filters that hold it.  The tests hold the
bit-row forms in ``ilgl.algebra`` against them.
"""

from typing import Dict, FrozenSet, List, Tuple

from ilgl.algebra import (BINOPS, FiniteLayeredHeytingAlgebra,
                          complex_algebra_with_elements)
from ilgl.relational import IntLayeredFrame


def validate_algebra(alg: FiniteLayeredHeytingAlgebra) -> List[dict]:
    """Check the lattice, Heyting, and residuation axioms; empty iff valid.
    Stops at the 20th violation."""
    n = alg.size
    out: List[dict] = []

    def report(law: str, **witness) -> bool:
        out.append({"law": law, **witness})
        return len(out) >= 20

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
