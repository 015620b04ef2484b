"""Labelled tableaux for ILGL: graph labels, constraint closure, branches
(CSS), the twelve expansion rules, bounded-saturation proof search, and
countermodel extraction and certification.

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
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple, Union)

from . import graph as graphmod
from .formula import (And, Atom, Bot, Formula, Imp, ImpLeft, ImpRight,
                      LayerConj, Or, Top, render)
from .graph import DirectedGraph, LayeredGraphModel, OrderedScaffold, Subgraph
from .relational import bits

Label = Tuple[int, ...]
SignedFormula = Tuple[bool, Formula, Label]  # sign True = asserted
Constraint = Tuple[Label, Label]

# Where a rule's conclusion sits: the slice of its witness w that is all
# of w, its first letter, or its second letter (told apart by identity).
W, FIRST, SECOND = slice(None), slice(0, 1), slice(1, 2)


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
    as bit rows: ``domain`` gives each label a bit, ``labels`` lists them
    by bit, ``up[i]`` (``down[i]``) holds the labels above (below) the
    label with bit i, ``firsts[i]`` (``seconds[i]``) the two-letter labels
    with it as first (second) letter, and ``two`` all two-letter labels.
    New labels enter sorted and fresh letters are the largest, so on a
    prover's branch bit order is sorted label order.
    """

    def __init__(self, constraints: Iterable[Constraint] = ()):
        self.domain: Dict[Label, int] = {}
        self.labels: List[Label] = []
        self.up: List[int] = []
        self.down: List[int] = []
        self.firsts: List[int] = []
        self.seconds: List[int] = []
        self.two = 0
        for c in constraints:
            self.add(c)

    def add(self, constraint: Constraint) -> List[Label]:
        """Add a constraint; returns the labels it added to the domain.
        Each label at or below ``a`` gains those at or above ``b``."""
        a, b = constraint
        new = sorted({*sublabels(a), *sublabels(b)} - self.domain.keys())
        for lab in new:
            self.domain[lab] = i = len(self.labels)
            self.labels.append(lab)
            self.up.append(1 << i)
            self.down.append(1 << i)
            self.firsts.append(0)
            self.seconds.append(0)
        for lab in new:
            if len(lab) == 2:
                bit = 1 << self.domain[lab]
                self.firsts[self.domain[lab[:1]]] |= bit
                self.seconds[self.domain[lab[1:]]] |= bit
                self.two |= bit
        above, below = self.up[self.domain[b]], self.down[self.domain[a]]
        for i in bits(below):
            self.up[i] |= above
        for j in bits(above):
            self.down[j] |= below
        return new

    def holds(self, a: Label, b: Label) -> bool:
        i, j = self.domain.get(a), self.domain.get(b)
        return i is not None and j is not None and self.up[i] >> j & 1 == 1

    def lift(self, mask: int, place: slice) -> int:
        """The witnesses whose label at ``place`` lies in ``mask``."""
        if place is W:
            return mask
        rows = self.firsts if place is FIRST else self.seconds
        out = 0
        for i in bits(mask):
            out |= rows[i]
        return out

    def witnesses(self, over: Tuple[bool, slice], i: int) -> int:
        """The witnesses of the range ``over`` at the label with bit i."""
        upward, place = over
        return (self.lift(self.up[i], place) if upward
                else self.down[i] & self.two)

    def copy(self) -> "ConstraintSet":
        dup = ConstraintSet.__new__(ConstraintSet)
        dup.domain, dup.labels = dict(self.domain), list(self.labels)
        dup.up, dup.down = list(self.up), list(self.down)
        dup.firsts, dup.seconds = list(self.firsts), list(self.seconds)
        dup.two = self.two
        return dup


class CSS:
    """One branch: signed labelled formulas plus a constraint set.

    ``formulas`` keeps them in the order added, ``at[(sign, f)]`` the
    labels a signed formula sits at as a mask, and ``premises`` the
    formulas with a rule that may have unspent instances.  A formula must
    sit at a label of the domain (Ref): ``add_formula`` raises otherwise,
    so constraints come first.  ``clash`` is set once a T-label lies
    below an F-label of the same formula, or ``T bot`` or ``F top`` is
    added.
    """

    def __init__(self, formulas: Iterable[SignedFormula] = (),
                 constraints: Iterable[Constraint] = ()):
        self.formulas: Dict[SignedFormula, None] = {}
        self.cset = ConstraintSet(constraints)
        self.at: Dict[Tuple[bool, Formula], int] = {}
        self.premises: Dict[SignedFormula, Rule] = {}
        self.clash = False
        self.branch_id = 0  # assigned by the owning tableau
        for slf in formulas:
            self.add_formula(slf)

    def add_formula(self, slf: SignedFormula) -> None:
        if slf in self.formulas:
            return
        sign, f, x = slf
        cset = self.cset
        i = cset.domain.get(x)
        if i is None:
            raise RuntimeError(f"Ref {label_str(x)}: {_format_slf(slf)} "
                               "sits off the label domain")
        self.formulas[slf] = None
        if isinstance(f, Bot if sign else Top):
            self.clash = True
        self.at[sign, f] = self.at.get((sign, f), 0) | 1 << i
        rows = cset.up if sign else cset.down
        if self.at.get((not sign, f), 0) & rows[i]:
            self.clash = True
        rule = RULES.get((type(f), sign))
        if rule is not None:
            self.premises[slf] = rule

    def add_constraint(self, constraint: Constraint) -> List[Label]:
        """Add a constraint; returns the labels it added to the domain."""
        labels = self.cset.add(constraint)
        if not self.clash:
            # Every pair the constraint adds runs from below a to above b.
            cset, at = self.cset, self.at
            a, b = constraint
            below, above = cset.down[cset.domain[a]], cset.up[cset.domain[b]]
            self.clash = any(mask & below and at.get((False, f), 0) & above
                             for (sign, f), mask in at.items() if sign)
        return labels

    def copy(self) -> "CSS":
        dup = CSS.__new__(CSS)
        dup.formulas, dup.at = dict(self.formulas), dict(self.at)
        dup.premises, dup.cset = dict(self.premises), self.cset.copy()
        dup.clash, dup.branch_id = self.clash, 0
        return dup


def _step_problems(css: CSS, labels: List[Label]) -> List[str]:
    """The Contra and Freshness violations that adding the domain
    ``labels`` to a branch can make.  Domains only grow, so on a branch
    that had none these are all it has.  ``add_formula`` enforces Ref."""
    domain = css.cset.domain
    twos = [lab for lab in labels if len(lab) == 2]
    return ([f"Contra {label_str((i, j))}" for i, j in twos
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
# its conclusions for each child as data: (sign, operand, place), the
# premise's left or right operand at a place read off the witness w.  The
# two rules of each of ->, |>, -|> and <|- share a range of witnesses at
# the premise's label x.  The rule without fresh labels has one instance
# per witness in range, and each must be met.  The rule with fresh labels
# has one instance; ``create`` makes its witness from the first unused
# letter n, with the constraints that put it in range.  Its range is where
# a saturated branch must meet it, and F-> takes it from the whole domain
# although it creates an atomic label.  & and | range over nothing: their
# witness is x.

# Ranges as (upward, place): the witnesses whose label at ``place`` lies
# at or above x, or the two-letter labels below x.
ABOVE, LAYERED_BELOW = (True, W), (False, W)
FIRST_ABOVE, SECOND_ABOVE = (True, FIRST), (True, SECOND)
LEFT, RIGHT = "left", "right"


@dataclass(frozen=True)
class Rule:
    name: str  # as it appears in traces
    children: List[List[Tuple[bool, str, slice]]]
    over: Optional[Tuple[bool, slice]] = None
    fresh: int = 0  # atomic labels the rule creates
    create: Optional[Callable[[int, Label],
                              Tuple[Label, List[Constraint]]]] = None

    @property
    def ranged(self) -> bool:
        """One instance per witness in range."""
        return self.over is not None and not self.fresh

    def conclude(self, f: Formula, w: Label) -> List[List[SignedFormula]]:
        """The signed formulas added to each child at witness ``w``."""
        return [[(sign, getattr(f, operand), w[place])
                 for sign, operand, place in child]
                for child in self.children]

    def facts(self, w: Label) -> Tuple[Label, ...]:
        """The labels an instance at witness ``w`` is traced with."""
        if not self.ranged:
            return ()
        return (w,) if self.over[1] is W else (w[self.over[1]], w)


RULES: Dict[Tuple[type, bool], Rule] = {
    (And, True): Rule("T&", [[(True, LEFT, W), (True, RIGHT, W)]]),
    (And, False): Rule("F&", [[(False, LEFT, W)], [(False, RIGHT, W)]]),
    (Or, True): Rule("T|", [[(True, LEFT, W)], [(True, RIGHT, W)]]),
    (Or, False): Rule("F|", [[(False, LEFT, W), (False, RIGHT, W)]]),
    (Imp, True): Rule("T->", [[(False, LEFT, W)], [(True, RIGHT, W)]], ABOVE),
    (Imp, False): Rule("F->", [[(True, LEFT, W), (False, RIGHT, W)]],
                       ABOVE, 1, lambda n, x: ((n,), [(x, (n,))])),
    (LayerConj, True): Rule(
        "T|>", [[(True, LEFT, FIRST), (True, RIGHT, SECOND)]],
        LAYERED_BELOW, 2, lambda n, x: ((n, n + 1), [((n, n + 1), x)])),
    (LayerConj, False): Rule(
        "F|>", [[(False, LEFT, FIRST)], [(False, RIGHT, SECOND)]],
        LAYERED_BELOW),
    (ImpRight, True): Rule(
        "T-|>", [[(False, LEFT, SECOND)], [(True, RIGHT, W)]], FIRST_ABOVE),
    (ImpRight, False): Rule(
        "F-|>", [[(True, LEFT, SECOND), (False, RIGHT, W)]],
        FIRST_ABOVE, 2, lambda n, x: (
            (n, n + 1), [(x, (n,)), ((n, n + 1), (n, n + 1))])),
    (ImpLeft, True): Rule(
        "T<|-", [[(False, LEFT, FIRST)], [(True, RIGHT, W)]], SECOND_ABOVE),
    (ImpLeft, False): Rule(
        "F<|-", [[(True, LEFT, FIRST), (False, RIGHT, W)]],
        SECOND_ABOVE, 2, lambda n, x: (
            (n + 1, n), [(x, (n,)), ((n + 1, n), (n + 1, n))])),
}


class RuleInstance(NamedTuple):
    """A rule on a premise at a witness, traced with its fact labels."""

    rule: str
    premise: SignedFormula
    facts: Tuple[Label, ...] = ()


def _rule(inst: RuleInstance) -> Optional[Rule]:
    return RULES.get((type(inst.premise[1]), inst.premise[0]))


def _met(css: CSS, rule: Rule, f: Formula) -> int:
    """The witnesses at which some child's conclusions are all present."""
    lift, at = css.cset.lift, css.at
    out = 0
    for child in rule.children:
        mask = -1
        for sign, operand, place in child:
            got = at.get((sign, getattr(f, operand)), 0)
            mask &= got if place is W else lift(got, place)
        out |= mask
    return out


def _unspent(css: CSS, rule: Rule, slf: SignedFormula) -> int:
    """The witnesses of the premise's unspent instances: in range (the
    premise's label for a rule without one) and not met.  Conclusions on
    fresh labels never are: a rule that makes them is spent once applied,
    when ``expand`` takes its premise off the child's premises."""
    cset = css.cset
    i = cset.domain[slf[2]]
    todo = cset.witnesses(rule.over, i) if rule.ranged else 1 << i
    if todo and not rule.fresh:
        todo &= ~_met(css, rule, slf[1])
    return todo


def _live(css: CSS, inst: RuleInstance) -> bool:
    """The instance would still add something to the branch: its premise
    is present and it is unspent."""
    rule = css.premises.get(inst.premise)
    i = css.cset.domain.get(inst.facts[-1] if inst.facts else inst.premise[2])
    return (rule is not None and rule.name == inst.rule and i is not None
            and _unspent(css, rule, inst.premise) >> i & 1 == 1)


def applicable_rules(css: CSS) -> List[RuleInstance]:
    """Every unspent rule instance of the branch, in formula order and
    then in label order.  A premise without a range that is spent never
    revives, so it leaves the branch's premises."""
    out = []
    labels = css.cset.labels
    for slf, rule in list(css.premises.items()):
        todo = _unspent(css, rule, slf)
        if not todo and not rule.ranged:
            del css.premises[slf]
        out += [RuleInstance(rule.name, slf, rule.facts(labels[w]))
                for w in bits(todo)]
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
    _, f, x = slf = inst.premise
    rule = _rule(inst)
    if rule.fresh:
        w, new_constraints = rule.create(tableau.next_fresh, x)
        tableau.next_fresh += rule.fresh
    else:
        w = inst.facts[-1] if inst.facts else x
        new_constraints = []
    children = []
    conclusions = rule.conclude(f, w)
    for new_formulas in conclusions:
        child = branch.copy()
        child.branch_id = tableau.next_branch
        tableau.next_branch += 1
        if rule.fresh:
            del child.premises[slf]
        labels = [lab for c in new_constraints
                  for lab in child.add_constraint(c)]
        for new in new_formulas:
            child.add_formula(new)
        bad = _step_problems(child, labels)
        if bad:
            raise RuntimeError(f"rule {inst.rule} broke CSS invariants: "
                               f"{bad}")
        children.append(child)
    del tableau.leaves[branch.branch_id]
    tableau.leaves.update((child.branch_id, child) for child in children)
    tableau.steps_taken.append(Step(
        tableau.steps, branch.branch_id, inst.rule, slf, inst.facts,
        [child.branch_id for child in children], conclusions,
        new_constraints))
    tableau.steps += 1
    return tableau


# -- countermodel extraction ---------------------------------------------

def extract_model(css: CSS) -> Tuple[LayeredGraphModel, Dict[Label, int]]:
    """Turn a branch into a layered graph model, with each label's world.

    Atomic labels become single vertices, two-letter labels the two-vertex
    layered graphs over them; the order is the constraint closure, read
    off its bit rows, and each atom holds wherever some T-occurrence sits
    at or below the world.  Nothing here checks that the branch is
    saturated: ``_certify_countermodel`` checks the model instead.
    """
    cset = css.cset
    labels = sorted(sorted(cset.domain), key=len)
    label_map = {lab: idx for idx, lab in enumerate(labels)}
    name = {i: f"c{i}" for lab in labels for i in lab}
    edges = [tuple(map(name.get, lab)) for lab in labels if len(lab) == 2]
    eset = frozenset(edges)
    graph = DirectedGraph(frozenset(name.values()), eset)
    subgraphs = [Subgraph(frozenset({name[lab[0]]}), frozenset(), graph)
                 for lab in labels if len(lab) == 1]
    subgraphs += [Subgraph(frozenset(e), frozenset({e}), graph)
                  for e in edges]
    world = [label_map[lab] for lab in cset.labels]  # by bit
    order = frozenset((world[i], world[j]) for i, row in enumerate(cset.up)
                      for j in bits(row))
    scaffold = OrderedScaffold(graph, eset, subgraphs, order)
    valuation = {f.name: frozenset(label_map[x] for x in labels
                                   if cset.down[cset.domain[x]] & mask)
                 for (sign, f), mask in css.at.items()
                 if sign and isinstance(f, Atom)}
    return LayeredGraphModel(scaffold, valuation), label_map


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
