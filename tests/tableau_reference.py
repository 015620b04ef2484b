"""References for tableau branches: the branch invariants checked in full,
and the realization of a branch in a layered graph model.

``css_check`` rescans a whole branch for the Ref, Contra and Freshness
invariants; the tests hold the prover's per-step check against it.
``realize_check`` says whether an assignment of the branch's labels to
worlds realizes the branch: every label is mapped, a composite label goes
to the composition of its parts' worlds, every constraint holds in the
order, and every signed formula has its sign in the model.  The tests
hold extracted countermodels against it.
"""

from typing import Dict, List

from ilgl import graph as graphmod
from ilgl.graph import LayeredGraphModel
from ilgl.tableaux import CSS, Label, _format_slf, label_str


def css_check(css: CSS) -> List[dict]:
    """Violations of the Ref / Contra / Freshness branch invariants."""
    problems = []
    for (_, _, x) in css.formula_order:
        if not css.cset.holds(x, x):
            problems.append({"property": "Ref", "label": label_str(x)})
    twos = css.cset.two_letter()
    for (i, j) in twos:
        if (j, i) in css.cset.domain:
            problems.append({"property": "Contra",
                             "label": label_str((i, j))})
    for (i, j) in twos:
        for other in twos:
            if other in ((i, j), (j, i)):
                continue
            if {i, j} & set(other):
                problems.append({"property": "Freshness",
                                 "label": label_str((i, j)),
                                 "other": label_str(other)})
    return problems


def realize_check(css: CSS, model: LayeredGraphModel,
                  assignment: Dict[Label, int]) -> List[dict]:
    """Verify that the assignment realizes the branch in the model."""
    problems = []
    sc = model.scaffold
    for x in sorted(css.cset.domain, key=lambda l: (len(l), l)):
        if x not in assignment:
            problems.append({"clause": "totality", "label": label_str(x)})
            continue
        if len(x) == 2:
            i, j = (x[0],), (x[1],)
            if i not in assignment or j not in assignment:
                problems.append({"clause": "composition",
                                 "label": label_str(x)})
                continue
            m = sc.composition_index(assignment[i], assignment[j])
            if m is None or m != assignment[x]:
                problems.append({"clause": "composition",
                                 "label": label_str(x)})
    for (a, b) in sorted(css.cset.closure):
        if a in assignment and b in assignment:
            if not sc.leq(assignment[a], assignment[b]):
                problems.append({"clause": "order",
                                 "constraint": f"{label_str(a)} <= "
                                               f"{label_str(b)}"})
    ev = graphmod.model_evaluator(model)
    for slf in css.formula_order:
        sign, f, x = slf
        if x not in assignment:
            continue
        holds = ev.sat(assignment[x], f)
        if holds != sign:
            problems.append({"clause": "satisfaction",
                             "formula": _format_slf(slf)})
    return problems
