"""References for tableau branches: the branch invariants checked in full,
the realization of a branch in a layered graph model, and the proof search
over (branch, rule instance) pairs.

``css_check`` rescans a whole branch for the Ref, Contra and Freshness
invariants; the tests hold the prover's per-step check against it.
``realize_check`` says whether an assignment of the branch's labels to
worlds realizes the branch: every label is mapped, a composite label goes
to the composition of its parts' worlds, every constraint holds in the
order, and every signed formula has its sign in the model.  The tests
hold extracted countermodels against it.
``prove_by_pairs`` queues every rule instance of an admitted branch as its
own entry and skips the entries of branches already expanded; the tests
hold ``tableaux.prove``, which queues each open branch once, against it.
``closure`` reads a constraint set's closure off its bit rows as label
pairs.
``check_hintikka`` lists a branch's failures of the fifteen saturation
conditions of the paper's completeness proof; the tests hold the prover's
countermodel branches against it, while the prover itself relies on
certification of the model alone.
``sweep`` draws the 1,000-formula sweep whose traces the tests pin.
"""

import random
import time
from collections import deque
from typing import Dict, List, Optional

from graph_reference import composition_index
from ilgl import graph as graphmod
from ilgl import tableaux
from ilgl.formula import Bot, Formula, Top
from ilgl.gen import random_formula
from ilgl.graph import LayeredGraphModel
from ilgl.relational import bits
from ilgl.tableaux import (CSS, RULES, ConstraintSet, Label, Limits, Proved,
                           RuleInstance, SignedFormula, UnknownResult,
                           _format_slf, _met, label_str)


def closure(cset: ConstraintSet) -> set:
    """Every (a, b) with a <= b in the closure of ``cset``."""
    return {(x, cset.labels[j]) for x, i in cset.domain.items()
            for j in bits(cset.up[i])}


def css_check(css: CSS) -> List[dict]:
    """Violations of the Ref / Contra / Freshness branch invariants."""
    problems = []
    for (_, _, x) in css.formulas:
        if not css.cset.holds(x, x):
            problems.append({"property": "Ref", "label": label_str(x)})
    twos = sorted(x for x in css.cset.domain if len(x) == 2)
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
            m = composition_index(sc, assignment[i], assignment[j])
            if m is None or m != assignment[x]:
                problems.append({"clause": "composition",
                                 "label": label_str(x)})
    for (a, b) in sorted(closure(css.cset)):
        if a in assignment and b in assignment:
            if not sc.frame.leq(assignment[a], assignment[b]):
                problems.append({"clause": "order",
                                 "constraint": f"{label_str(a)} <= "
                                               f"{label_str(b)}"})
    ev = graphmod.model_evaluator(model)
    for slf in css.formulas:
        sign, f, x = slf
        if x not in assignment:
            continue
        holds = ev.sat(assignment[x], f)
        if holds != sign:
            problems.append({"clause": "satisfaction",
                             "formula": _format_slf(slf)})
    return problems


def prove_by_pairs(f: Formula, limits: Optional[Limits] = None):
    """Decide ``f`` by a breadth-first queue of (branch, rule instance)
    pairs: a popped pair whose branch was expanded already, or whose
    instance no longer fits the label budget, is skipped."""
    limits = limits or Limits()
    start = time.monotonic()
    tableau = tableaux.initial_tableau(f)
    live: Dict[int, CSS] = {}
    queue: deque = deque()

    def over_budget(inst: RuleInstance) -> bool:
        return (tableau.next_fresh + tableaux._rule(inst).fresh
                > limits.max_labels)

    def admit(branch: CSS) -> Optional[CSS]:
        """Register an open branch; returns it when saturated."""
        if tableaux.is_closed(branch):
            return None
        live[branch.branch_id] = branch
        insts = list(tableaux.applicable_rules(branch))
        if not insts:
            return branch
        queue.extend((branch.branch_id, inst) for inst in insts
                     if not over_budget(inst))
        return None

    saturated_branch = admit(tableau.leaves[1])
    if saturated_branch is not None:
        return tableaux._certify_countermodel(f, saturated_branch, tableau)
    if not live:
        return Proved(tableau)
    while queue:
        if tableau.steps >= limits.max_rule_applications:
            return UnknownResult("rule application budget exhausted", tableau)
        if time.monotonic() - start > limits.timeout:
            return UnknownResult("time budget exhausted", tableau)
        branch_id, inst = queue.popleft()
        branch = live.get(branch_id)
        if branch is None or over_budget(inst):
            continue
        del live[branch_id]
        tableaux.expand(tableau, branch, inst)
        for child_id in tableau.steps_taken[-1].children:
            sat = admit(tableau.leaves[child_id])
            if sat is not None:
                return tableaux._certify_countermodel(f, sat, tableau)
        if not live:
            return Proved(tableau)
    # Queue drained: the live branches left are starved (label budget).
    return UnknownResult("label budget exhausted", tableau)


# The Hintikka condition of each rule: conditions 1-3 are closure.
CONDITIONS = {"T&": 4, "F&": 5, "T|": 6, "F|": 7, "T->": 8, "F->": 9,
              "T|>": 10, "F|>": 11, "T-|>": 12, "F-|>": 13, "T<|-": 14,
              "F<|-": 15}


def check_hintikka(css: CSS) -> List[dict]:
    """The fifteen saturation conditions: 1-3 are closure, 4-15 are the
    rule table's.  A ranged rule must be met at every witness in its
    range, a rule that makes fresh labels at some witness in its range,
    and & and | at the premise's label."""
    fails = []
    cset, at = css.cset, css.at

    def fail(cond: int, slf: SignedFormula, **extra) -> None:
        fails.append({"condition": cond, "formula": _format_slf(slf),
                      **extra})

    for slf in css.formulas:
        sign, f, x = slf
        i = cset.domain[x]
        if sign and isinstance(f, Bot):
            fail(3, slf)
        if not sign and isinstance(f, Top):
            fail(2, slf)
        if sign and at.get((False, f), 0) & cset.up[i]:
            for y in [y for s, g, y in css.formulas if not s and g is f]:
                if cset.holds(x, y):
                    fail(1, slf, other=_format_slf((False, f, y)))
        rule = RULES.get((type(f), sign))
        if rule is None:
            continue
        condition = CONDITIONS[rule.name]
        if rule.fresh:
            if not cset.witnesses(rule.over, i) & _met(css, rule, f):
                fail(condition, slf)
        elif rule.ranged:
            todo = cset.witnesses(rule.over, i)
            for w in bits(todo and todo & ~_met(css, rule, f)):
                fail(condition, slf, label=label_str(cset.labels[w]))
        elif not _met(css, rule, f) >> i & 1:
            fail(condition, slf)
    return fails


def sweep():
    """The 1,000-formula sweep: a fresh random.Random(20240) per depth,
    500 formulas at each of depths 4 and 5."""
    for depth in (4, 5):
        rng = random.Random(20240)
        for _ in range(500):
            yield random_formula(rng, depth)
