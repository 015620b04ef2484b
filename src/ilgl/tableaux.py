"""Labelled tableaux for ILGL: graph labels, constraint closure, branches
(CSS), the twelve expansion rules, bounded-saturation proof search,
Hintikka checking, and countermodel extraction.

Labels are words of one or two atomic-label indices; a two-letter word
stands for a graph layered from its letters.  Proof search is a
breadth-first queue of open branches, each expanded by its first rule
instance within the label budget; exhausting the step, label, or time
budget yields Unknown rather than a verdict.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Set, Tuple, Union)

from . import graph as graphmod
from .formula import (And, Atom, Bot, Formula, Imp, ImpLeft, ImpRight,
                      LayerConj, Or, Top, render)
from .graph import DirectedGraph, LayeredGraphModel, OrderedScaffold, Subgraph
from .relational import bits

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
    closes under transitivity; it never enlarges the domain.  It is kept
    as bit rows: ``domain`` gives each label a bit, in the order the
    labels entered, ``labels`` lists them by bit, and ``up[i]`` holds the
    bits of the labels above the label with bit i, ``down[i]`` those
    below it.
    """

    def __init__(self, constraints: Iterable[Constraint] = ()):
        self.domain: Dict[Label, int] = {}
        self.labels: List[Label] = []
        self.up: List[int] = []
        self.down: List[int] = []
        for c in constraints:
            self.add(c)

    @property
    def closure(self) -> Set[Constraint]:
        return {(x, self.labels[j]) for x, i in self.domain.items()
                for j in bits(self.up[i])}

    def add(self, constraint: Constraint) -> List[Constraint]:
        """Add a constraint; returns the pairs it added to the closure:
        each label at or below ``a`` gains those at or above ``b``."""
        a, b = constraint
        new = []
        for lab in sublabels(a) + sublabels(b):
            if lab not in self.domain:
                self.domain[lab] = i = len(self.labels)
                self.labels.append(lab)
                self.up.append(1 << i)
                self.down.append(1 << i)
                new.append((lab, lab))
        above, below = self.up[self.domain[b]], self.down[self.domain[a]]
        for i in bits(below):
            gained = above & ~self.up[i]
            if gained:
                self.up[i] |= gained
                new += [(self.labels[i], self.labels[j])
                        for j in bits(gained)]
        for j in bits(above):
            self.down[j] |= below
        return new

    def holds(self, a: Label, b: Label) -> bool:
        i, j = self.domain.get(a), self.domain.get(b)
        return i is not None and j is not None and self.up[i] >> j & 1 == 1

    def two_letter(self) -> List[Label]:
        return sorted(x for x in self.domain if len(x) == 2)

    def copy(self) -> "ConstraintSet":
        dup = ConstraintSet.__new__(ConstraintSet)
        dup.domain, dup.labels = dict(self.domain), list(self.labels)
        dup.up, dup.down = list(self.up), list(self.down)
        return dup


class CSS:
    """One branch: signed labelled formulas plus a constraint set.

    The closure test is kept up to date as the branch grows: ``signed``
    maps each formula to the labels it is asserted (T) and denied (F) at,
    ``asserted`` each label to the formulas asserted there, and ``clash``
    is set as soon as a new formula or a new closure pair makes a T-label
    lie below an F-label of the same formula, or when ``T bot`` or
    ``F top`` is added.  Add constraints through ``add_constraint`` so
    that this test and the agenda see them.
    """

    def __init__(self, formulas: Iterable[SignedFormula] = (),
                 constraints: Iterable[Constraint] = ()):
        self.formulas: Dict[SignedFormula, None] = {}  # in the order added
        self.cset = ConstraintSet(constraints)
        self.applied: Set[RuleInstance] = set()
        self.branch_id = 0  # assigned by the owning tableau
        self.signed: Dict[Formula, Tuple[Tuple[Label, ...],
                                         Tuple[Label, ...]]] = {}
        self.asserted: Dict[Label, Tuple[Formula, ...]] = {}
        self.clash = False
        # What applicable_rules found at its last scan, which covered the
        # first ``scanned`` formulas: the unspent instances of each formula
        # that can still have some, and the labels added to the domain
        # since.
        self.agenda: Dict[SignedFormula, List[RuleInstance]] = {}
        self.scanned = 0
        self.new_labels: Set[Label] = set()
        for slf in formulas:
            self.add_formula(slf)

    def add_formula(self, slf: SignedFormula) -> None:
        if slf in self.formulas:
            return
        self.formulas[slf] = None
        sign, f, x = slf
        ts, fs = self.signed.get(f, ((), ()))
        holds = self.cset.holds
        if sign:
            self.clash = (self.clash or isinstance(f, Bot)
                          or any(holds(x, y) for y in fs))
            self.signed[f] = (ts + (x,), fs)
            self.asserted[x] = self.asserted.get(x, ()) + (f,)
        else:
            self.clash = (self.clash or isinstance(f, Top)
                          or any(holds(y, x) for y in ts))
            self.signed[f] = (ts, fs + (x,))

    def add_constraint(self, constraint: Constraint) -> List[Label]:
        """Add a constraint; returns the labels it added to the domain."""
        new = self.cset.add(constraint)
        # A label enters the domain with its reflexive pair.
        labels = [x for x, y in new if x == y]
        self.new_labels.update(labels)
        if any(x not in self.new_labels and y not in self.new_labels
               for x, y in new):
            # Old ranges changed: the next scan starts from scratch.
            self.agenda, self.scanned = {}, 0
        if not self.clash:
            self.clash = any((False, f, y) in self.formulas
                             for x, y in new
                             for f in self.asserted.get(x, ()))
        return labels

    def copy(self) -> "CSS":
        dup = CSS.__new__(CSS)
        dup.formulas = dict(self.formulas)
        dup.cset = self.cset.copy()
        dup.applied = set(self.applied)
        dup.branch_id = 0
        dup.signed = dict(self.signed)
        dup.asserted = dict(self.asserted)
        dup.clash = self.clash
        dup.agenda = self.agenda
        dup.scanned = self.scanned
        dup.new_labels = set(self.new_labels)
        return dup


def _step_problems(css: CSS, formulas: List[SignedFormula],
                   labels: List[Label]) -> List[str]:
    """The Ref, Contra and Freshness violations that adding ``formulas``
    and the domain ``labels`` to a branch can make.  Domains and closures
    only grow, so on a branch that had none these are all it has."""
    domain = css.cset.domain
    twos = [lab for lab in labels if len(lab) == 2]
    return ([f"Ref {label_str(x)}" for (_, _, x) in formulas
             if x not in domain]
            + [f"Contra {label_str((i, j))}" for i, j in twos
               if (j, i) in domain]
            + [f"Freshness {label_str((i, j))} {label_str(other)}"
               for i, j in twos for other in domain if len(other) == 2
               and other not in ((i, j), (j, i)) and {i, j} & set(other)])


def is_closed(css: CSS) -> bool:
    """Closed iff T/F meet across the order, or top is denied, or bot
    asserted.  The branch keeps this test up to date as it grows."""
    return css.clash


# -- the rule table -------------------------------------------------------
#
# One entry per (connective, sign): the twelve expansion rules, each with
# its Hintikka condition (4-15).  The two rules of each of ->, |>, -|> and
# <|- share a range of existing labels, listed as fact tuples whose last
# label is the witness w that the conclusions sit on.  The rule without
# fresh labels has one instance per fact tuple in range, and its condition
# asks that each one is met.  The rule with fresh labels has one instance;
# ``create`` makes its witness from the first unused letter n, with the
# constraints that put the witness in range, and its condition asks for
# some met witness in range.  Condition 9 therefore takes its witness from
# the whole label domain although F-> creates an atomic label.  & and |
# range over nothing and conclude at the premise's label x.

# A range is listed in the order of ``labels``, a sorted list of the labels
# to look at: the whole domain, or the labels that are new since a scan.

def _above(cs: ConstraintSet, x: Label, labels: List[Label]) -> list:
    """Labels y with x <= y."""
    return [(y,) for y in labels if cs.holds(x, y)]


def _layered_below(cs: ConstraintSet, x: Label, labels: List[Label]) -> list:
    """Two-letter labels yz with yz <= x."""
    return [(yz,) for yz in labels if len(yz) == 2 and cs.holds(yz, x)]


def _first_above(cs: ConstraintSet, x: Label, labels: List[Label]) -> list:
    """Facts (y, yz) for the two-letter labels yz with x <= y."""
    return [(yz[:1], yz) for yz in labels
            if len(yz) == 2 and cs.holds(x, yz[:1])]


def _second_above(cs: ConstraintSet, x: Label, labels: List[Label]) -> list:
    """Facts (y, zy) for the two-letter labels zy with x <= y."""
    return [(zy[1:], zy) for zy in labels
            if len(zy) == 2 and cs.holds(x, zy[1:])]


def _witness(x: Label, facts: Tuple[Label, ...]) -> Label:
    return facts[-1] if facts else x


@dataclass(frozen=True)
class Rule:
    name: str       # as it appears in traces
    condition: int  # its Hintikka condition
    # (formula, x, w) -> the signed formulas added to each child branch
    children: Callable[[Formula, Label, Label], List[List[SignedFormula]]]
    over: Optional[Callable[[ConstraintSet, Label, List[Label]],
                            list]] = None
    fresh: int = 0  # atomic labels the rule creates
    create: Optional[Callable[[int, Label],
                              Tuple[Label, List[Constraint]]]] = None

    @property
    def ranged(self) -> bool:
        """One instance per fact tuple in range."""
        return self.over is not None and not self.fresh

    def instances(self, cset: ConstraintSet, x: Label,
                  labels: List[Label]) -> list:
        """The fact tuples of the rule's instances at ``x``."""
        return self.over(cset, x, labels) if self.ranged else [()]

    def met(self, present: Dict[SignedFormula, None], f: Formula, x: Label,
            facts: Tuple[Label, ...]) -> bool:
        """Some child's conclusions are all present."""
        return any(all(slf in present for slf in child)
                   for child in self.children(f, x, _witness(x, facts)))


RULES: Dict[Tuple[type, bool], Rule] = {
    (And, True): Rule("T&", 4, lambda f, x, w: [
        [(True, f.left, x), (True, f.right, x)]]),
    (And, False): Rule("F&", 5, lambda f, x, w: [
        [(False, f.left, x)], [(False, f.right, x)]]),
    (Or, True): Rule("T|", 6, lambda f, x, w: [
        [(True, f.left, x)], [(True, f.right, x)]]),
    (Or, False): Rule("F|", 7, lambda f, x, w: [
        [(False, f.left, x), (False, f.right, x)]]),
    (Imp, True): Rule("T->", 8, lambda f, x, w: [
        [(False, f.left, w)], [(True, f.right, w)]], over=_above),
    (Imp, False): Rule("F->", 9, lambda f, x, w: [
        [(True, f.left, w), (False, f.right, w)]], over=_above,
        fresh=1, create=lambda n, x: ((n,), [(x, (n,))])),
    (LayerConj, True): Rule("T|>", 10, lambda f, x, w: [
        [(True, f.left, w[:1]), (True, f.right, w[1:])]],
        over=_layered_below,
        fresh=2, create=lambda n, x: ((n, n + 1), [((n, n + 1), x)])),
    (LayerConj, False): Rule("F|>", 11, lambda f, x, w: [
        [(False, f.left, w[:1])], [(False, f.right, w[1:])]],
        over=_layered_below),
    (ImpRight, True): Rule("T-|>", 12, lambda f, x, w: [
        [(False, f.left, w[1:])], [(True, f.right, w)]], over=_first_above),
    (ImpRight, False): Rule("F-|>", 13, lambda f, x, w: [
        [(True, f.left, w[1:]), (False, f.right, w)]], over=_first_above,
        fresh=2, create=lambda n, x: (
            (n, n + 1), [(x, (n,)), ((n, n + 1), (n, n + 1))])),
    (ImpLeft, True): Rule("T<|-", 14, lambda f, x, w: [
        [(False, f.left, w[:1])], [(True, f.right, w)]], over=_second_above),
    (ImpLeft, False): Rule("F<|-", 15, lambda f, x, w: [
        [(True, f.left, w[:1]), (False, f.right, w)]], over=_second_above,
        fresh=2, create=lambda n, x: (
            (n + 1, n), [(x, (n,)), ((n + 1, n), (n + 1, n))])),
}


class RuleInstance(NamedTuple):
    """A rule on a premise over a fact tuple; ``CSS.applied`` holds it."""

    rule: str
    premise: SignedFormula
    facts: Tuple[Label, ...] = ()


def _rule(inst: RuleInstance) -> Optional[Rule]:
    sign, f, _ = inst.premise
    return RULES.get((type(f), sign))


def _live(css: CSS, inst: RuleInstance) -> bool:
    """The instance would still add something to the branch: its premise
    is present and it is unspent."""
    rule = _rule(inst)
    return (rule is not None and rule.name == inst.rule
            and inst.premise in css.formulas and _unspent(css, rule, inst))


def _unspent(css: CSS, rule: Rule, inst: RuleInstance) -> bool:
    """No child's conclusions are present already (those on fresh labels
    never are), and the instance has not been applied here."""
    _, f, x = inst.premise
    return ((rule.fresh > 0 or not rule.met(css.formulas, f, x, inst.facts))
            and inst not in css.applied)


def applicable_rules(css: CSS) -> List[RuleInstance]:
    """Every unspent rule instance of the branch, in formula order.

    The scan starts from the branch's previous one, which a child inherits
    from its parent.  A formula scanned then keeps its instances that are
    still unspent (a spent one stays spent) and gains those on the labels
    new since then; a new formula is scanned over the whole domain.  New
    labels carry the largest letters, so they sort after the others and
    the order is that of a scan from scratch.  The conclusions of a rule
    are its premise's two operands, so an instance can only have been met
    since if one of them is among the new formulas.
    """
    cset = css.cset
    added = list(islice(css.formulas, css.scanned, None))
    operands = {f for (_, f, _) in added}
    new = sorted(css.new_labels)
    agenda: Dict[SignedFormula, List[RuleInstance]] = {}
    for slf, insts in css.agenda.items():
        sign, f, x = slf
        rule = RULES[type(f), sign]
        if f.left in operands or f.right in operands:
            insts = [inst for inst in insts if _unspent(css, rule, inst)]
        else:
            insts = [inst for inst in insts if inst not in css.applied]
        if rule.ranged and new:
            insts += _instances(css, rule, slf, new)
        if insts or rule.ranged:
            agenda[slf] = insts
    every = sorted(cset.domain)
    for slf in added:
        sign, f, _ = slf
        rule = RULES.get((type(f), sign))
        if rule is not None:
            agenda[slf] = _instances(css, rule, slf, every)
    css.agenda, css.scanned, css.new_labels = (
        agenda, len(css.formulas), set())
    return [inst for insts in agenda.values() for inst in insts]


def _instances(css: CSS, rule: Rule, slf: SignedFormula,
               labels: List[Label]) -> List[RuleInstance]:
    """The unspent instances of ``rule`` on ``slf`` over ``labels``."""
    out = []
    for facts in rule.instances(css.cset, slf[2], labels):
        inst = RuleInstance(rule.name, slf, facts)
        if _unspent(css, rule, inst):
            out.append(inst)
    return out


class Step(NamedTuple):
    """One expansion as raw values; ``Tableau.trace`` renders it."""

    step: int
    branch: int
    rule: str
    premise: SignedFormula
    facts: Tuple[Label, ...]
    children: List[int]  # the child branch ids
    conclusions: List[List[SignedFormula]]  # added to each child
    constraints: List[Constraint]  # added to every child


@dataclass
class Tableau:
    leaves: Dict[int, CSS]  # the unexpanded branches by id
    steps_taken: List[Step] = field(default_factory=list)
    next_fresh: int = 1
    steps: int = 0
    next_branch: int = 2

    @property
    def branches(self) -> List[CSS]:
        """The unexpanded branches, left to right in the tree."""
        split = {rec.branch: rec.children for rec in self.steps_taken}
        out, todo = [], [1]
        while todo:
            branch_id = todo.pop()
            if branch_id in split:
                todo += reversed(split[branch_id])
            else:
                out.append(self.leaves[branch_id])
        return out

    @property
    def trace(self) -> List[dict]:
        """The expansions as printable records, rendered when read."""
        return [_render_step(rec) for rec in self.steps_taken]


def initial_tableau(f: Formula) -> Tableau:
    root = CSS([(False, f, (0,))], [((0,), (0,))])
    root.branch_id = 1
    return Tableau(leaves={1: root}, next_fresh=1)


def _format_slf(slf: SignedFormula) -> str:
    sign, f, x = slf
    return f"{'T' if sign else 'F'} {render(f)} : {label_str(x)}"


def _render_step(rec: Step) -> dict:
    return {"step": rec.step, "branch": rec.branch, "rule": rec.rule,
            "premise": _format_slf(rec.premise),
            "facts": [label_str(x) for x in rec.facts],
            "children": list(rec.children),
            "added": [{"formulas": [_format_slf(s) for s in formulas],
                       "constraints": [f"{label_str(a)} <= {label_str(b)}"
                                       for a, b in rec.constraints]}
                      for formulas in rec.conclusions]}


def expand(tableau: Tableau, branch: CSS, inst: RuleInstance) -> Tableau:
    """Apply one rule instance, replacing the branch by its children;
    each child's CSS invariants are checked on what the step added."""
    if (tableau.leaves.get(branch.branch_id) is not branch
            or not _live(branch, inst)):
        raise ValueError(f"instance {inst} is stale")
    _, f, x = inst.premise
    rule = _rule(inst)
    if rule.fresh:
        w, new_constraints = rule.create(tableau.next_fresh, x)
        tableau.next_fresh += rule.fresh
    else:
        w, new_constraints = _witness(x, inst.facts), []
    children = []
    conclusions = rule.children(f, x, w)
    for new_formulas in conclusions:
        child = branch.copy()
        child.branch_id = tableau.next_branch
        tableau.next_branch += 1
        child.applied.add(inst)
        labels = [lab for c in new_constraints
                  for lab in child.add_constraint(c)]
        for slf in new_formulas:
            child.add_formula(slf)
        bad = _step_problems(child, new_formulas, labels)
        if bad:
            raise RuntimeError(f"rule {inst.rule} broke CSS invariants: "
                               f"{bad}")
        children.append(child)
    del tableau.leaves[branch.branch_id]
    tableau.leaves.update((child.branch_id, child) for child in children)
    tableau.steps_taken.append(Step(
        tableau.steps, branch.branch_id, inst.rule, inst.premise,
        inst.facts, [child.branch_id for child in children], conclusions,
        new_constraints))
    tableau.steps += 1
    return tableau


# -- Hintikka conditions and countermodel extraction ----------------------

def check_hintikka(css: CSS) -> List[dict]:
    """The fifteen saturation conditions: 1-3 are closure, 4-15 are the
    rule table's."""
    fails = []
    cset = css.cset
    present = css.formulas
    labels = sorted(cset.domain)

    def fail(cond: int, slf: SignedFormula, **extra) -> None:
        fails.append({"condition": cond, "formula": _format_slf(slf),
                      **extra})

    for slf in css.formulas:
        sign, f, x = slf
        if sign and isinstance(f, Bot):
            fail(3, slf)
        if not sign and isinstance(f, Top):
            fail(2, slf)
        if sign:
            for y in css.signed[f][1]:
                if cset.holds(x, y):
                    fail(1, slf, other=_format_slf((False, f, y)))
        rule = RULES.get((type(f), sign))
        if rule is None:
            continue
        if rule.fresh:
            if not any(rule.met(present, f, x, facts)
                       for facts in rule.over(cset, x, labels)):
                fail(rule.condition, slf)
            continue
        for facts in rule.instances(cset, x, labels):
            if not rule.met(present, f, x, facts):
                where = {"label": label_str(facts[-1])} if facts else {}
                fail(rule.condition, slf, **where)
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
    vertices = frozenset(f"c{i}" for lab in cset.domain for i in lab)
    eset = frozenset((f"c{i}", f"c{j}") for (i, j) in cset.two_letter())
    graph = DirectedGraph(vertices, eset)
    labels = sorted(cset.domain, key=lambda x: (len(x), x))
    label_map = {lab: idx for idx, lab in enumerate(labels)}
    subgraphs = []
    for lab in labels:
        names = [f"c{i}" for i in lab]
        subgraphs.append(Subgraph(frozenset(names),
                                  frozenset(zip(names, names[1:])), graph))
    order = frozenset((label_map[a], label_map[b])
                      for (a, b) in cset.closure)
    scaffold = OrderedScaffold(graph, eset, subgraphs, order)
    valuation: Dict[str, Set[int]] = {}
    for (sign, f, y) in css.formulas:
        if sign and isinstance(f, Atom):
            valuation.setdefault(f.name, set()).update(
                label_map[x] for x in labels if cset.holds(y, x))
    model = LayeredGraphModel(
        scaffold, {p: frozenset(ws) for p, ws in valuation.items()})
    return model, label_map


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
    relation before being returned; exhausted budgets yield Unknown.  A
    popped branch none of whose instances fits the label budget is
    starved: it is never expanded, and the search can then only answer
    Unknown.  The step and time budgets are checked just before an
    expansion, so they are named only when some branch could go on.
    """
    limits = limits or Limits()
    start = time.monotonic()
    tableau = initial_tableau(f)
    queue: deque = deque()  # (open branch, its instances), oldest first
    starved = False

    def admit(branch: CSS) -> Optional[CSS]:
        """Queue an open branch; returns it when saturated."""
        if is_closed(branch):
            return None
        insts = applicable_rules(branch)
        if not insts:
            return branch
        queue.append((branch, insts))
        return None

    saturated_branch = admit(tableau.leaves[1])
    if saturated_branch is not None:
        return _certify_countermodel(f, saturated_branch, tableau)
    while queue:
        branch, insts = queue.popleft()
        inst = next((inst for inst in insts if tableau.next_fresh
                     + _rule(inst).fresh <= limits.max_labels), None)
        if inst is None:
            starved = True
            continue
        if tableau.steps >= limits.max_rule_applications:
            return UnknownResult("rule application budget exhausted", tableau)
        if time.monotonic() - start > limits.timeout:
            return UnknownResult("time budget exhausted", tableau)
        expand(tableau, branch, inst)
        for child_id in tableau.steps_taken[-1].children:
            sat = admit(tableau.leaves[child_id])
            if sat is not None:
                return _certify_countermodel(f, sat, tableau)
    if starved:
        return UnknownResult("label budget exhausted", tableau)
    return Proved(tableau)
