"""Labelled tableaux for ILGL: graph labels, constraint closure, branches
(CSS), the twelve expansion rules, bounded-saturation proof search,
Hintikka checking, and countermodel extraction.

Labels are words of one or two atomic-label indices; a two-letter word
stands for a graph layered from its letters.  Proof search is a
breadth-first aging queue over (branch, rule instance) pairs; exhausting
the step, label, or time budget yields Unknown rather than a verdict.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from . import graph as graphmod
from .formula import (And, Atom, Bot, Formula, Imp, ImpLeft, ImpRight,
                      LayerConj, Or, Top, render)
from .graph import DirectedGraph, LayeredGraphModel, OrderedScaffold, Subgraph

Label = Tuple[int, ...]
SignedFormula = Tuple[bool, Formula, Label]  # sign True = asserted
Constraint = Tuple[Label, Label]


def label_str(x: Label) -> str:
    return "".join(f"c{i}" for i in x)


def sublabels(x: Label) -> List[Label]:
    if len(x) == 1:
        return [x]
    return [(x[0],), (x[1],), x]


class ConstraintSet:
    """A constraint set with its closure kept incrementally up to date.

    The closure adds reflexivity for every sub-label in the domain and
    closes under transitivity; it never enlarges the domain.
    """

    def __init__(self, constraints: Iterable[Constraint] = ()):
        self.constraints: Set[Constraint] = set()
        self.closure: Set[Constraint] = set()
        self.domain: Set[Label] = set()
        self.alphabet: Set[int] = set()
        for c in constraints:
            self.add(c)

    def add(self, constraint: Constraint) -> None:
        a, b = constraint
        if constraint in self.constraints:
            return
        self.constraints.add(constraint)
        for lab in sublabels(a) + sublabels(b):
            if lab not in self.domain:
                self.domain.add(lab)
                self.closure.add((lab, lab))
                self.alphabet.update(lab)
        pre = {x for (x, y) in self.closure if y == a} | {a}
        post = {y for (x, y) in self.closure if x == b} | {b}
        self.closure.update((x, y) for x in pre for y in post)

    def holds(self, a: Label, b: Label) -> bool:
        return (a, b) in self.closure

    def two_letter(self) -> List[Label]:
        return sorted(x for x in self.domain if len(x) == 2)

    def copy(self) -> "ConstraintSet":
        dup = ConstraintSet.__new__(ConstraintSet)
        dup.constraints = set(self.constraints)
        dup.closure = set(self.closure)
        dup.domain = set(self.domain)
        dup.alphabet = set(self.alphabet)
        return dup


def close_constraints(constraints: Iterable[Constraint]) -> Set[Constraint]:
    """The least closure of a constraint set (a preorder on its domain)."""
    return set(ConstraintSet(constraints).closure)


class CSS:
    """One branch: signed labelled formulas plus a constraint set."""

    def __init__(self, formulas: Iterable[SignedFormula] = (),
                 constraints: Iterable[Constraint] = ()):
        self.formula_order: List[SignedFormula] = []
        self.formulas: Set[SignedFormula] = set()
        self.cset = ConstraintSet(constraints)
        self.applied: Set[tuple] = set()
        self.starved = False
        self.branch_id = 0  # assigned by the owning tableau
        for slf in formulas:
            self.add_formula(slf)

    def add_formula(self, slf: SignedFormula) -> None:
        if slf not in self.formulas:
            self.formulas.add(slf)
            self.formula_order.append(slf)

    def copy(self) -> "CSS":
        dup = CSS.__new__(CSS)
        dup.formula_order = list(self.formula_order)
        dup.formulas = set(self.formulas)
        dup.cset = self.cset.copy()
        dup.applied = set(self.applied)
        dup.starved = self.starved
        dup.branch_id = 0
        return dup


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


def is_closed(css: CSS) -> bool:
    """Closed iff T/F meet across the order, or top is denied, or bot
    asserted."""
    by_formula: Dict[Formula, Tuple[list, list]] = {}
    for (sign, f, x) in css.formula_order:
        if isinstance(f, Top) and not sign:
            return True
        if isinstance(f, Bot) and sign:
            return True
        slot = by_formula.setdefault(f, ([], []))
        slot[0 if sign else 1].append(x)
    for f, (ts, fs) in by_formula.items():
        for x in ts:
            for y in fs:
                if css.cset.holds(x, y):
                    return True
    return False


@dataclass(frozen=True)
class RuleInstance:
    rule: str
    premise: SignedFormula
    facts: Tuple[Label, ...] = ()

    def key(self) -> tuple:
        return (self.rule, self.premise, self.facts)

    def fresh_needed(self) -> int:
        return {"F->": 1, "T|>": 2, "F-|>": 2, "F<|-": 2}.get(self.rule, 0)


def _conclusions(inst: RuleInstance,
                 fresh: int) -> List[Tuple[list, list]]:
    """Per produced branch: (formulas to add, constraints to add).

    ``fresh`` is the first unused atomic-label index for rules that
    introduce labels.
    """
    sign, f, x = inst.premise
    rule = inst.rule
    if rule == "T&":
        return [([(True, f.left, x), (True, f.right, x)], [])]
    if rule == "F&":
        return [([(False, f.left, x)], []), ([(False, f.right, x)], [])]
    if rule == "T|":
        return [([(True, f.left, x)], []), ([(True, f.right, x)], [])]
    if rule == "F|":
        return [([(False, f.left, x), (False, f.right, x)], [])]
    if rule == "T->":
        (y,) = inst.facts
        return [([(False, f.left, y)], []), ([(True, f.right, y)], [])]
    if rule == "F->":
        c = (fresh,)
        return [([(True, f.left, c), (False, f.right, c)], [(x, c)])]
    if rule == "T|>":
        ci, cj = (fresh,), (fresh + 1,)
        return [([(True, f.left, ci), (True, f.right, cj)],
                 [((fresh, fresh + 1), x)])]
    if rule == "F|>":
        (yz,) = inst.facts
        return [([(False, f.left, (yz[0],))], []),
                ([(False, f.right, (yz[1],))], [])]
    if rule == "T-|>":
        _, yz = inst.facts
        return [([(False, f.left, (yz[1],))], []),
                ([(True, f.right, yz)], [])]
    if rule == "F-|>":
        ci, cj = fresh, fresh + 1
        return [([(True, f.left, (cj,)), (False, f.right, (ci, cj))],
                 [(x, (ci,)), ((ci, cj), (ci, cj))])]
    if rule == "T<|-":
        _, zy = inst.facts
        return [([(False, f.left, (zy[0],))], []),
                ([(True, f.right, zy)], [])]
    if rule == "F<|-":
        ci, cj = fresh, fresh + 1
        return [([(True, f.left, (cj,)), (False, f.right, (cj, ci))],
                 [(x, (ci,)), ((cj, ci), (cj, ci))])]
    raise ValueError(f"unknown rule {rule}")


def applicable_rules(css: CSS) -> List[RuleInstance]:
    """Every rule instance whose side condition holds and whose conclusion
    would still add something to the branch, minus instances already
    applied here."""
    out = []
    cset = css.cset
    twos = cset.two_letter()
    present = css.formulas

    def emit(rule: str, premise: SignedFormula, facts=(),
             alternatives: Optional[list] = None) -> None:
        inst = RuleInstance(rule, premise, tuple(facts))
        if inst.key() in css.applied:
            return
        if alternatives is not None and any(
                alt in present for alt in alternatives):
            return
        out.append(inst)

    for slf in css.formula_order:
        sign, f, x = slf
        if isinstance(f, And):
            if sign:
                if not {(True, f.left, x), (True, f.right, x)} <= present:
                    emit("T&", slf)
            else:
                emit("F&", slf,
                     alternatives=[(False, f.left, x), (False, f.right, x)])
        elif isinstance(f, Or):
            if sign:
                emit("T|", slf,
                     alternatives=[(True, f.left, x), (True, f.right, x)])
            else:
                if not {(False, f.left, x), (False, f.right, x)} <= present:
                    emit("F|", slf)
        elif isinstance(f, Imp):
            if sign:
                for y in sorted(cset.domain):
                    if cset.holds(x, y):
                        emit("T->", slf, facts=(y,),
                             alternatives=[(False, f.left, y),
                                           (True, f.right, y)])
            else:
                emit("F->", slf)
        elif isinstance(f, LayerConj):
            if sign:
                emit("T|>", slf)
            else:
                for yz in twos:
                    if cset.holds(yz, x):
                        emit("F|>", slf, facts=(yz,),
                             alternatives=[(False, f.left, (yz[0],)),
                                           (False, f.right, (yz[1],))])
        elif isinstance(f, ImpRight):
            if sign:
                for yz in twos:
                    if cset.holds(x, (yz[0],)):
                        emit("T-|>", slf, facts=((yz[0],), yz),
                             alternatives=[(False, f.left, (yz[1],)),
                                           (True, f.right, yz)])
            else:
                emit("F-|>", slf)
        elif isinstance(f, ImpLeft):
            if sign:
                for zy in twos:
                    if cset.holds(x, (zy[1],)):
                        emit("T<|-", slf, facts=((zy[1],), zy),
                             alternatives=[(False, f.left, (zy[0],)),
                                           (True, f.right, zy)])
            else:
                emit("F<|-", slf)
    return out


def saturated(css: CSS) -> bool:
    return not applicable_rules(css)


@dataclass
class Tableau:
    branches: List[CSS]
    trace: List[dict] = field(default_factory=list)
    next_fresh: int = 1
    steps: int = 0
    next_branch: int = 2


def initial_tableau(f: Formula) -> Tableau:
    root = CSS([(False, f, (0,))], [((0,), (0,))])
    root.branch_id = 1
    return Tableau(branches=[root], next_fresh=1)


def _format_slf(slf: SignedFormula) -> str:
    sign, f, x = slf
    return f"{'T' if sign else 'F'} {render(f)} : {label_str(x)}"


def expand(tableau: Tableau, branch_index: int,
           inst: RuleInstance) -> Tableau:
    """Apply one rule instance, replacing the branch by its children."""
    branch = tableau.branches[branch_index]
    if inst not in applicable_rules(branch):
        raise ValueError(f"instance {inst} is stale")
    needed = inst.fresh_needed()
    conclusions = _conclusions(inst, tableau.next_fresh)
    tableau.next_fresh += needed
    children = []
    record = {"step": tableau.steps, "branch": branch.branch_id,
              "rule": inst.rule, "premise": _format_slf(inst.premise),
              "facts": [label_str(x) for x in inst.facts], "children": []}
    for new_formulas, new_constraints in conclusions:
        child = branch.copy()
        child.branch_id = tableau.next_branch
        tableau.next_branch += 1
        child.applied.add(inst.key())
        for c in new_constraints:
            child.cset.add(c)
        for slf in new_formulas:
            child.add_formula(slf)
        bad = css_check(child)
        if bad:
            raise RuntimeError(f"rule {inst.rule} broke CSS invariants: "
                               f"{bad}")
        children.append(child)
        record["children"].append(child.branch_id)
        record.setdefault("added", []).append({
            "formulas": [_format_slf(s) for s in new_formulas],
            "constraints": [f"{label_str(a)} <= {label_str(b)}"
                            for a, b in new_constraints]})
    tableau.branches[branch_index:branch_index + 1] = children
    tableau.trace.append(record)
    tableau.steps += 1
    return tableau


# -- Hintikka conditions and countermodel extraction ----------------------

def check_hintikka(css: CSS) -> List[dict]:
    """The fifteen saturation conditions, checked literally."""
    fails = []
    cset = css.cset
    present = css.formulas
    twos = cset.two_letter()

    def fail(cond: int, slf: SignedFormula, **extra) -> None:
        fails.append({"condition": cond, "formula": _format_slf(slf),
                      **extra})

    for slf in css.formula_order:
        sign, f, x = slf
        if sign and isinstance(f, Bot):
            fail(3, slf)
        if not sign and isinstance(f, Top):
            fail(2, slf)
        if sign:
            for other in css.formula_order:
                if (not other[0] and other[1] == f
                        and cset.holds(x, other[2])):
                    fail(1, slf, other=_format_slf(other))
        if isinstance(f, And):
            if sign:
                if not {(True, f.left, x), (True, f.right, x)} <= present:
                    fail(4, slf)
            elif not ((False, f.left, x) in present
                      or (False, f.right, x) in present):
                fail(5, slf)
        elif isinstance(f, Or):
            if sign:
                if not ((True, f.left, x) in present
                        or (True, f.right, x) in present):
                    fail(6, slf)
            elif not {(False, f.left, x), (False, f.right, x)} <= present:
                fail(7, slf)
        elif isinstance(f, Imp):
            if sign:
                for y in sorted(cset.domain):
                    if cset.holds(x, y) and not (
                            (False, f.left, y) in present
                            or (True, f.right, y) in present):
                        fail(8, slf, label=label_str(y))
            else:
                if not any(cset.holds(x, y)
                           and (True, f.left, y) in present
                           and (False, f.right, y) in present
                           for y in cset.domain):
                    fail(9, slf)
        elif isinstance(f, LayerConj):
            if sign:
                if not any(cset.holds(yz, x)
                           and (True, f.left, (yz[0],)) in present
                           and (True, f.right, (yz[1],)) in present
                           for yz in twos):
                    fail(10, slf)
            else:
                for yz in twos:
                    if cset.holds(yz, x) and not (
                            (False, f.left, (yz[0],)) in present
                            or (False, f.right, (yz[1],)) in present):
                        fail(11, slf, label=label_str(yz))
        elif isinstance(f, ImpRight):
            if sign:
                for yz in twos:
                    if cset.holds(x, (yz[0],)) and not (
                            (False, f.left, (yz[1],)) in present
                            or (True, f.right, yz) in present):
                        fail(12, slf, label=label_str(yz))
            else:
                if not any(cset.holds(x, (yz[0],))
                           and (True, f.left, (yz[1],)) in present
                           and (False, f.right, yz) in present
                           for yz in twos):
                    fail(13, slf)
        elif isinstance(f, ImpLeft):
            if sign:
                for zy in twos:
                    if cset.holds(x, (zy[1],)) and not (
                            (False, f.left, (zy[0],)) in present
                            or (True, f.right, zy) in present):
                        fail(14, slf, label=label_str(zy))
            else:
                if not any(cset.holds(x, (zy[1],))
                           and (True, f.left, (zy[0],)) in present
                           and (False, f.right, zy) in present
                           for zy in twos):
                    fail(15, slf)
    return fails


def extract_model(css: CSS) -> Tuple[LayeredGraphModel, Dict[Label, int]]:
    """Turn a Hintikka branch into a layered graph countermodel.

    Atomic labels become single vertices, two-letter labels the two-vertex
    layered graphs over them; the order is the constraint closure and each
    atom holds wherever some T-occurrence sits at or below the world.
    """
    fails = check_hintikka(css)
    if fails:
        raise ValueError(f"not a Hintikka branch: {fails[:3]}")
    cset = css.cset
    vertices = frozenset(f"c{i}" for i in sorted(cset.alphabet))
    eset = frozenset((f"c{i}", f"c{j}") for (i, j) in cset.two_letter())
    graph = DirectedGraph(vertices, eset)
    labels = sorted(cset.domain, key=lambda x: (len(x), x))
    label_map = {lab: idx for idx, lab in enumerate(labels)}
    subgraphs = []
    for lab in labels:
        if len(lab) == 1:
            subgraphs.append(Subgraph(frozenset([f"c{lab[0]}"]),
                                      frozenset(), graph))
        else:
            i, j = lab
            subgraphs.append(Subgraph(frozenset([f"c{i}", f"c{j}"]),
                                      frozenset([(f"c{i}", f"c{j}")]),
                                      graph))
    order = frozenset((label_map[a], label_map[b])
                      for (a, b) in cset.closure)
    scaffold = OrderedScaffold(graph, eset, subgraphs, order)
    valuation: Dict[str, Set[int]] = {}
    for (sign, f, y) in css.formula_order:
        if sign and isinstance(f, Atom):
            worlds = valuation.setdefault(f.name, set())
            for x in labels:
                if cset.holds(y, x):
                    worlds.add(label_map[x])
    model = LayeredGraphModel(
        scaffold, {p: frozenset(ws) for p, ws in valuation.items()})
    return model, label_map


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


# -- proof search ---------------------------------------------------------

@dataclass
class Limits:
    max_rule_applications: int = 5000
    max_labels: int = 64
    timeout: float = 10.0


@dataclass
class Proved:
    tableau: Tableau

    status = "proved"


@dataclass
class CountermodelResult:
    model: LayeredGraphModel
    root: int
    label_map: Dict[Label, int]
    branch: CSS
    tableau: Tableau
    certified: bool = False  # model re-checked to falsify f at the root

    status = "countermodel"


@dataclass
class UnknownResult:
    reason: str
    tableau: Tableau

    status = "unknown"


ProofResult = Union[Proved, CountermodelResult, UnknownResult]


def _certify_countermodel(f: Formula, branch: CSS,
                          tableau: Tableau) -> CountermodelResult:
    model, label_map = extract_model(branch)
    root = label_map[(0,)]
    problems = graphmod.validate_model(model)
    if problems:
        raise RuntimeError(f"extracted model invalid: {problems[:3]}")
    if graphmod.satisfies(model, root, f):
        raise RuntimeError("extracted model fails to falsify the formula "
                           "at the root world")
    return CountermodelResult(model, root, label_map, branch, tableau,
                              certified=True)


def prove(f: Formula, limits: Optional[Limits] = None) -> ProofResult:
    """Decide ``f`` by bounded tableau saturation.

    Proved carries a closed tableau; a countermodel is extracted from the
    first saturated open branch and is re-checked against the satisfaction
    relation before being returned; exhausted budgets yield Unknown.
    """
    limits = limits or Limits()
    start = time.monotonic()
    tableau = initial_tableau(f)
    live: Dict[int, CSS] = {}
    queue: deque = deque()

    def admit(branch: CSS) -> Optional[CSS]:
        """Register an open branch; returns it when saturated."""
        if is_closed(branch):
            return None
        live[branch.branch_id] = branch
        insts = applicable_rules(branch)
        if not insts:
            return branch
        for inst in insts:
            if (tableau.next_fresh + inst.fresh_needed()
                    > limits.max_labels):
                branch.starved = True
            else:
                queue.append((branch.branch_id, inst))
        return None

    saturated_branch = admit(tableau.branches[0])
    if saturated_branch is not None:
        return _certify_countermodel(f, saturated_branch, tableau)
    if not live:
        return Proved(tableau)

    while queue:
        if tableau.steps >= limits.max_rule_applications:
            return UnknownResult("rule application budget exhausted", tableau)
        if time.monotonic() - start > limits.timeout:
            return UnknownResult("time budget exhausted", tableau)
        branch_id, inst = queue.popleft()
        branch = live.get(branch_id)
        if branch is None:
            continue
        if inst.fresh_needed() and (tableau.next_fresh + inst.fresh_needed()
                                    > limits.max_labels):
            branch.starved = True
            continue
        if inst not in applicable_rules(branch):
            continue
        index = tableau.branches.index(branch)
        del live[branch_id]
        expand(tableau, index, inst)
        for child in tableau.branches[index:index + len(
                tableau.trace[-1]["children"])]:
            sat = admit(child)
            if sat is not None:
                return _certify_countermodel(f, sat, tableau)
        if not live:
            return Proved(tableau)
    # Queue drained: remaining live branches are starved (label budget).
    if live:
        return UnknownResult("label budget exhausted", tableau)
    return Proved(tableau)
