"""Realization of a tableau branch in a layered graph model.

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
