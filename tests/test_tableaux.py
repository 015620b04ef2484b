import dataclasses
import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilgl import graph as graphmod
from ilgl import relational as relmod
from ilgl import tableaux
from ilgl.formula import (Atom, Bot, Imp, LayerConj, Top, parse, render,
                          subformulas)
from ilgl.gen import random_formula
from ilgl.tableaux import (CSS, RULES, ConstraintSet, Limits, RuleInstance,
                           applicable_rules, expand, extract_model,
                           initial_tableau, is_closed, label_str, prove)

from graph_reference import composition_index, composition_table
from tableau_reference import (check_hintikka, closure, css_check,
                               prove_by_pairs, realize_check, sweep)

c0, c1, c2, c3 = (0,), (1,), (2,), (3,)


def closed_by_rescan(css):
    """The closure test by a scan of the whole branch: the reference for
    the branch's incremental one."""
    by_formula = {}
    for (sign, f, x) in css.formulas:
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


# The ranges of the rules with one instance per witness, as scans of the
# sorted label domain: each gives the fact tuples of the instances at x,
# whose last label is the witness.

def _above(cs, x, labels):
    """Labels y with x <= y."""
    return [(y,) for y in labels if cs.holds(x, y)]


def _layered_below(cs, x, labels):
    """Two-letter labels yz with yz <= x."""
    return [(yz,) for yz in labels if len(yz) == 2 and cs.holds(yz, x)]


def _first_above(cs, x, labels):
    """Facts (y, yz) for the two-letter labels yz with x <= y."""
    return [(yz[:1], yz) for yz in labels
            if len(yz) == 2 and cs.holds(x, yz[:1])]


def _second_above(cs, x, labels):
    """Facts (y, zy) for the two-letter labels zy with x <= y."""
    return [(zy[1:], zy) for zy in labels
            if len(zy) == 2 and cs.holds(x, zy[1:])]


RANGES = {"T->": _above, "F|>": _layered_below, "T-|>": _first_above,
          "T<|-": _second_above}


def agenda(css):
    """The branch's agenda, read to its end."""
    return list(applicable_rules(css))


def rules_from_scratch(css):
    """Every unspent rule instance by a scan of the whole branch over the
    sorted domain, one instance at a time: the reference for the agenda.
    An instance is spent when some child's conclusions are all present
    already.  Those on fresh labels never are: a rule that makes fresh
    labels is spent once applied, which takes its premise off the
    branch's premises."""
    cset = css.cset
    labels = sorted(cset.domain)
    out = []
    for slf in css.formulas:
        sign, f, x = slf
        rule = RULES.get((type(f), sign))
        if rule is None or rule.fresh and slf not in css.premises:
            continue
        over = RANGES.get(rule.name)
        for facts in over(cset, x, labels) if over else [()]:
            w = facts[-1] if facts else x
            met = not rule.fresh and any(
                all(c in css.formulas for c in child)
                for child in rule.conclude(f, w))
            if not met:
                out.append(RuleInstance(rule.name, slf, facts))
    return out


# One- and two-letter labels over six letters.
LABELS = st.one_of(st.tuples(st.integers(0, 5)),
                   st.tuples(st.integers(0, 5), st.integers(0, 5)))
# The same with two-letter labels of adjacent letters, as the prover makes
# them: entered in sorted order, they get their bits in that order.
PROVER_LABELS = st.one_of(
    st.tuples(st.integers(0, 5)),
    st.builds(lambda i, rising: (i, i + 1) if rising else (i + 1, i),
              st.integers(0, 4), st.booleans()))


def naive_closure(constraints):
    """The closure by fixed-point iteration: the reference for
    ``ConstraintSet``.  Returns the domain and the closure."""
    domain = {lab for a, b in constraints for end in (a, b)
              for lab in ([end] if len(end) == 1
                          else [(end[0],), (end[1],), end])}
    closure = set(constraints) | {(x, x) for x in domain}
    while True:
        more = {(x, z) for (x, y) in closure for (y2, z) in closure
                if y == y2} - closure
        if not more:
            return domain, closure
        closure |= more


class TestClosure:
    def test_transitivity(self):
        pairs = closure(ConstraintSet([(c0, c1), (c1, c2)]))
        assert (c0, c2) in pairs

    def test_two_letter_fixpoint(self):
        # Hand fixpoint of the reflexivity rules plus transitivity over
        # the single constraint c0c1 <= c2.
        pairs = closure(ConstraintSet([((0, 1), c2)]))
        assert pairs == {(c0, c0), (c1, c1), (c2, c2),
                           ((0, 1), (0, 1)), ((0, 1), c2)}

    def test_empty(self):
        assert closure(ConstraintSet([])) == set()

    def test_idempotent(self):
        rng = random.Random(8)
        for _ in range(50):
            labels = [(rng.randrange(4),) for _ in range(4)]
            labels.append((4, 5))
            constraints = {(rng.choice(labels), rng.choice(labels))
                           for _ in range(4)}
            once = closure(ConstraintSet(constraints))
            assert closure(ConstraintSet(once)) == once

    def test_domain_preserved(self):
        cs = ConstraintSet([((0, 1), c2)])
        assert set(cs.domain) == {c0, c1, (0, 1), c2}
        # every domain label is reflexive in the closure (Prop item 1)
        for lab in cs.domain:
            assert cs.holds(lab, lab)

    def test_incremental_matches_batch(self):
        rng = random.Random(13)
        for _ in range(40):
            pool = [c0, c1, c2, c3, (4, 5), (6, 7)]
            constraints = [(rng.choice(pool), rng.choice(pool))
                           for _ in range(5)]
            inc = ConstraintSet()
            for con in constraints:
                inc.add(con)
            assert closure(inc) == closure(ConstraintSet(constraints))

    @settings(max_examples=300)
    @given(st.lists(st.tuples(LABELS, LABELS), max_size=12))
    def test_matches_naive_fixpoint(self, constraints):
        cs = ConstraintSet()
        for i, con in enumerate(constraints):
            before, _ = naive_closure(constraints[:i])
            added = cs.add(con)
            domain, fixpoint = naive_closure(constraints[:i + 1])
            assert added == sorted(domain - before)
            assert closure(cs) == fixpoint
            assert set(cs.domain) == domain
        domain, fixpoint = naive_closure(constraints)
        probe = sorted(domain | {(6,), (0, 6)})
        for x in probe:
            for y in probe:
                assert cs.holds(x, y) == ((x, y) in fixpoint)


class TestCssCheck:
    def test_initial_shape_valid(self):
        css = CSS([(False, Atom("p"), c0)], [(c0, c0)])
        assert css_check(css) == []

    def test_contra_violation(self):
        css = CSS([], [((0, 1), (0, 1)), ((1, 0), (1, 0))])
        assert any(v["property"] == "Contra" for v in css_check(css))

    def test_freshness_violation(self):
        css = CSS([], [((0, 1), (0, 1)), ((0, 2), (0, 2))])
        assert any(v["property"] == "Freshness" for v in css_check(css))

    def test_ref_violation(self):
        css = CSS.__new__(CSS)
        css.formulas = {(True, Atom("p"), c0): None}
        css.cset = ConstraintSet()
        css.branch_id = 0
        assert any(v["property"] == "Ref" for v in css_check(css))

    def test_incremental_matches_rescan_on_sweep(self, monkeypatch):
        # expand checks each child only on what the step added; the full
        # rescan of every child of the sweep finds nothing either.
        step = tableaux.expand
        children = [0]

        def compare(tableau, branch, inst):
            step(tableau, branch, inst)
            for child_id in tableau.steps_taken[-1].children:
                assert css_check(tableau.leaves[child_id]) == []
                children[0] += 1
            return tableau

        monkeypatch.setattr(tableaux, "expand", compare)
        for f in sweep():
            prove(f)
        assert children[0] > 5000

    # Rules that break one invariant each: a fresh label left out of the
    # domain, a two-letter label together with its reverse, and two
    # two-letter labels sharing a letter.
    BROKEN = [
        ("Ref", (Imp, False), "p -> q",
         dict(create=lambda n, x: ((n,), []))),
        ("Contra", (LayerConj, True), "p |> q",
         dict(create=lambda n, x: ((n, n + 1), [
             ((n, n + 1), x), ((n + 1, n), (n + 1, n))]))),
        ("Freshness", (LayerConj, True), "p |> q",
         dict(create=lambda n, x: ((n, n + 1), [
             ((n, n + 1), x), ((n + 1, n + 2), (n + 1, n + 2))]))),
    ]

    @pytest.mark.parametrize("prop, key, text, change", BROKEN,
                             ids=[case[0] for case in BROKEN])
    def test_broken_rule_raises(self, monkeypatch, prop, key, text,
                                change):
        rule = dataclasses.replace(RULES[key], **change)
        monkeypatch.setitem(RULES, key, rule)
        css = CSS([(key[1], parse(text), c0)], [(c0, c0)])
        tableau = tableaux.Tableau(leaves={1: css})
        css.branch_id = 1
        (inst,) = agenda(css)
        with pytest.raises(RuntimeError, match=prop):
            expand(tableau, css, inst)
        monkeypatch.setattr(tableaux, "_step_problems", lambda *args: [])
        if prop == "Ref":
            # The branch refuses a formula off its domain when it is
            # added, with or without the per-step check.
            with pytest.raises(RuntimeError, match="Ref"):
                expand(tableau, css, inst)
            return
        # With the per-step check off, a full rescan of the child finds
        # the same property.
        expand(tableau, css, inst)
        (child,) = tableau.branches
        assert {v["property"] for v in css_check(child)} == {prop}


class TestApplicableRules:
    def test_conjunction_single_instance(self):
        css = CSS([(True, parse("p & q"), c0)], [(c0, c0)])
        insts = agenda(css)
        assert [i.rule for i in insts] == ["T&"]

    def test_fresh_rule_once(self):
        css = CSS([(False, parse("p -|> q"), c0)], [(c0, c0)])
        insts = agenda(css)
        assert [i.rule for i in insts] == ["F-|>"]
        css.branch_id = 1
        tableau = tableaux.Tableau(leaves={1: css})
        expand(tableau, css, insts[0])
        (child,) = tableau.branches
        assert agenda(child) == []

    def test_saturation_empty(self):
        css = CSS([(True, Atom("p"), c0)], [(c0, c0)])
        assert agenda(css) == []

    def test_not_saturated_before_expansion(self):
        css = CSS([(True, parse("p & q"), c0)], [(c0, c0)])
        assert agenda(css) != []

    def test_gamma_rule_instances_per_fact(self):
        css = CSS([(True, parse("p -> q"), c0)],
                  [(c0, c0), (c0, c1), (c0, c2)])
        insts = agenda(css)
        assert [i.rule for i in insts] == ["T->"] * 3
        assert {i.facts for i in insts} == {(c0,), (c1,), (c2,)}

    def test_rescan_after_constraint_between_old_labels(self):
        # c0 <= c1 between two labels already scanned widens the range
        # of an old premise: the next scan sees its new witness.
        css = CSS([(True, parse("p -> q"), c0)], [(c0, c0), (c1, c1)])
        assert [i.facts for i in agenda(css)] == [(c0,)]
        css.add_constraint((c0, c1))
        assert agenda(css) == rules_from_scratch(css)
        assert [i.facts for i in agenda(css)] == [(c0,), (c1,)]

    def test_inherited_agenda_matches_scan_from_scratch(self,
                                                        monkeypatch):
        # Each admitted branch's agenda, read to its end on a copy,
        # equals the scan from scratch; prove reads its own lazily.
        scan = tableaux.applicable_rules
        checked = [0]

        def compare(css):
            assert list(scan(css.copy())) == rules_from_scratch(css)
            checked[0] += 1
            return scan(css)

        monkeypatch.setattr(tableaux, "applicable_rules", compare)
        for f in sweep():
            prove(f)
        assert checked[0] > 5000


    def test_bit_order_is_label_order_on_sweep(self, monkeypatch):
        # Instances come out in bit order, which must be sorted label
        # order on every branch the prover builds.
        step = tableaux.expand
        children = [0]

        def compare(tableau, branch, inst):
            step(tableau, branch, inst)
            for child_id in tableau.steps_taken[-1].children:
                labels = tableau.leaves[child_id].cset.labels
                assert labels == sorted(labels)
                children[0] += 1
            return tableau

        monkeypatch.setattr(tableaux, "expand", compare)
        for f in sweep():
            prove(f)
        assert children[0] > 5000

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(PROVER_LABELS, PROVER_LABELS), min_size=1,
                    max_size=8),
           st.integers(0, 10 ** 6), st.data())
    def test_random_branch_matches_reference(self, constraints, seed,
                                             data):
        # The labels enter sorted, as on a prover's branch; then the
        # constraints and some signed subformulas of a random formula come
        # in a random order, and some instances are applied.  Some
        # premises come with one child's conclusions at a drawn witness,
        # often their own label.
        domain = sorted({lab for pair in constraints for end in pair
                         for lab in tableaux.sublabels(end)})
        css = CSS([], [(lab, lab) for lab in domain])
        assert css.cset.labels == domain
        parts = subformulas(random_formula(random.Random(seed), 3))
        formulas = data.draw(st.lists(st.tuples(
            st.booleans(), st.sampled_from(parts), st.sampled_from(domain)),
            max_size=10))
        for sign, f, x in list(formulas):
            rule = RULES.get((type(f), sign))
            if rule is None or not data.draw(st.booleans()):
                continue
            w = data.draw(st.one_of(st.just(x), st.sampled_from(domain)))
            child = data.draw(st.sampled_from(rule.conclude(f, w)))
            if all(x in css.cset.domain for _, _, x in child):
                formulas += child
        steps = [("c", con) for con in constraints] + [
            ("f", slf) for slf in formulas]
        for kind, item in data.draw(st.permutations(steps)):
            if kind == "c":
                css.add_constraint(item)
            else:
                css.add_formula(item)
            assert is_closed(css) == closed_by_rescan(css)
            assert agenda(css) == rules_from_scratch(css)
        # Applying an instance takes a fresh rule's premise off the
        # premises, and gives any other rule one child's conclusions.
        insts = rules_from_scratch(css)
        for inst in data.draw(st.lists(st.sampled_from(insts), max_size=3)
                              if insts else st.just([])):
            rule, (_, f, x) = tableaux._rule(inst), inst.premise
            if rule.fresh:
                css.premises.pop(inst.premise, None)
                continue
            w = inst.facts[-1] if inst.facts else x
            for slf in data.draw(st.sampled_from(rule.conclude(f, w))):
                css.add_formula(slf)
        expected = rules_from_scratch(css)
        assert agenda(css) == expected
        assert agenda(css) == expected


class TestExpand:
    def test_f_and_branches(self):
        t = initial_tableau(parse("p & q"))
        inst = agenda(t.branches[0])[0]
        assert inst.rule == "F&"
        expand(t, t.branches[0], inst)
        assert len(t.branches) == 2
        assert (False, Atom("p"), c0) in t.branches[0].formulas
        assert (False, Atom("q"), c0) in t.branches[1].formulas

    def test_f_imp_fresh_label(self):
        t = initial_tableau(parse("p -> q"))
        inst = agenda(t.branches[0])[0]
        expand(t, t.branches[0], inst)
        (branch,) = t.branches
        assert (True, Atom("p"), c1) in branch.formulas
        assert (False, Atom("q"), c1) in branch.formulas
        assert branch.cset.holds(c0, c1)

    def test_t_layer_fresh_pair(self):
        t = initial_tableau(parse("(p |> q) -> bot"))
        expand(t, t.branches[0], agenda(t.branches[0])[0])  # F->
        (branch,) = t.branches
        inst = [i for i in agenda(branch) if i.rule == "T|>"][0]
        expand(t, branch, inst)
        (target,) = t.branches
        assert (True, Atom("p"), (2,)) in target.formulas
        assert (True, Atom("q"), (3,)) in target.formulas
        assert target.cset.holds((2, 3), c1)

    def test_stale_instance_rejected(self):
        t = initial_tableau(parse("p & q"))
        parent = t.branches[0]
        inst = agenda(parent)[0]
        expand(t, parent, inst)
        with pytest.raises(ValueError):
            expand(t, t.branches[0], inst)
        with pytest.raises(ValueError):  # no longer a branch of t
            expand(t, parent, inst)

    def test_children_preserve_invariants(self):
        rng = random.Random(21)
        for _ in range(40):
            f = random_formula(rng, 3)
            t = initial_tableau(f)
            for _ in range(15):
                expandable = [(b, inst) for b in t.branches
                              for inst in agenda(b)[:1]]
                if not expandable:
                    break
                b, inst = expandable[0]
                expand(t, b, inst)  # raises if a child breaks Ref/Contra/
                # Freshness


class TestClosed:
    def test_atom_pair(self):
        css = CSS([(True, Atom("p"), c0), (False, Atom("p"), c0)],
                  [(c0, c0)])
        assert is_closed(css)

    def test_f_top(self):
        assert is_closed(CSS([(False, parse("top"), c0)], [(c0, c0)]))

    def test_open(self):
        css = CSS([(False, Atom("p"), c0), (True, Atom("q"), c0)],
                  [(c0, c0)])
        assert not is_closed(css)

    def test_closure_mediated(self):
        css = CSS([(True, Atom("p"), c0), (False, Atom("p"), c1)],
                  [(c0, c1)])
        assert is_closed(css)
        css2 = CSS([(True, Atom("p"), c1), (False, Atom("p"), c0)],
                   [(c0, c1)])
        assert not is_closed(css2)

    def test_constraint_added_after_formulas_closes(self):
        css = CSS([(True, Atom("p"), c1), (False, Atom("p"), c2)],
                  [(c1, c1), (c2, c2)])
        assert not is_closed(css)
        twin = css.copy()
        css.add_constraint((c2, c1))
        assert not is_closed(css) and not closed_by_rescan(css)
        css.add_constraint((c1, c2))
        assert is_closed(css) and closed_by_rescan(css)
        assert not is_closed(twin)  # a copy keeps its own index

    def test_off_domain_formula_raises_ref(self):
        # A formula must sit at a label of the domain when it is added.
        with pytest.raises(RuntimeError, match="Ref c3"):
            CSS([(True, Atom("p"), c3), (False, Atom("p"), c3)])
        css = CSS([(True, Atom("p"), c0)], [(c0, c0)])
        with pytest.raises(RuntimeError, match="Ref c3"):
            css.add_formula((False, Atom("p"), c3))
        assert list(css.formulas) == [(True, Atom("p"), c0)]
        css.add_constraint((c3, c3))
        css.add_formula((False, Atom("p"), c3))
        assert not is_closed(css) and not closed_by_rescan(css)

    def test_incremental_matches_rescan_on_sweep(self, monkeypatch):
        incremental = tableaux.is_closed
        seen = {True: 0, False: 0}

        def compare(css):
            result = incremental(css)
            assert result == closed_by_rescan(css)
            seen[result] += 1
            return result

        monkeypatch.setattr(tableaux, "is_closed", compare)
        for f in sweep():
            prove(f)
        assert seen[True] > 500 and seen[False] > 5000


FIGURE = "q <|- (q |> (p -> (p | q)))"
# After five steps every open branch is starved at 2 labels.
STARVED_AT_STEP_BUDGET = ("(r <|- (p -|> r)) | ((p -|> q) -> r) | "
                          "((bot | q) & (q | p) -> (q -|> p) |> (r -|> r))")


class TestProve:
    def test_figure_formula_proved(self):
        result = prove(parse(FIGURE))
        assert result.status == "proved"
        assert result.tableau.steps <= 200
        rules = [rec["rule"] for rec in result.tableau.trace]
        for needed in ("F<|-", "F|>", "F->", "F|"):
            assert needed in rules

    def test_top_zero_expansions(self):
        result = prove(parse("top"))
        assert result.status == "proved"
        assert result.tableau.steps == 0

    def test_countermodel_certified_against_oracle(self):
        f = parse("(p |> q) -> (q |> p)")
        result = prove(f)
        assert result.status == "countermodel"
        assert not graphmod.satisfies(result.model, result.root, f)
        assert relmod.rel_valid_upto(f, 4, 2) is not None

    def test_unknown_on_tiny_budget(self):
        f = parse("((p -> q) -> p) -> p")  # Peirce: not intuitionistic
        result = prove(f, Limits(max_rule_applications=1))
        assert result.status in ("unknown", "countermodel")
        if result.status == "unknown":
            assert result.tableau.steps <= 1

    def test_label_budget_unknown(self):
        f = parse("(p -> q) -> (q -> p)")
        result = prove(f, Limits(max_labels=1))
        assert result.status == "unknown"

    def test_deterministic(self):
        rng = random.Random(31)
        for _ in range(25):
            f = random_formula(rng, 3)
            r1, r2 = prove(f), prove(f)
            assert r1.status == r2.status
            assert [t["rule"] for t in r1.tableau.trace] \
                == [t["rule"] for t in r2.tableau.trace]

    def test_intuitionistic_staples(self):
        for text in ["p -> p", "p -> (q -> p)", "p & q -> p",
                     "p -> p | q", "bot -> p",
                     "(p -> q) -> ((q -> r) -> (p -> r))"]:
            assert prove(parse(text)).status == "proved", text

    def test_classical_only_not_proved(self):
        for text in ["p | (p -> bot)", "((p -> q) -> p) -> p",
                     "(p -> q) -> (q -> p)"]:
            assert prove(parse(text)).status == "countermodel", text

    def test_one_agenda_scan_per_admitted_branch(self, monkeypatch):
        from ilgl import tableaux
        counts = {"scans": 0, "open": 0}
        scan, closed = tableaux.applicable_rules, tableaux.is_closed

        def counting_scan(css):
            counts["scans"] += 1
            return scan(css)

        def counting_closed(css):
            result = closed(css)
            counts["open"] += not result
            return result

        monkeypatch.setattr(tableaux, "applicable_rules", counting_scan)
        monkeypatch.setattr(tableaux, "is_closed", counting_closed)
        rng = random.Random(20240)
        for _ in range(60):
            prove(random_formula(rng, 4))
        assert counts["scans"] == counts["open"] > 0

    def test_negation_chain_at_nesting_limit(self):
        # 99 negations of p, the deepest formula the parser accepts: the
        # label budget runs out well within the default time budget.
        f = parse("~" * 99 + "p")
        start = time.monotonic()
        result = prove(f)
        elapsed = time.monotonic() - start
        assert result.status == "unknown"
        assert result.reason == "label budget exhausted"
        assert result.tableau.steps == 267
        assert elapsed < 3.0

    def test_deep_search_ends_on_label_budget(self):
        # A step costs what it adds, not what its branch holds: the
        # double-negation chain reaches 1,000 labels in its time budget.
        result = prove(parse("~~p -> p"), Limits(100000, 1000, 10.0))
        assert result.status == "unknown"
        assert result.reason == "label budget exhausted"

    def test_divergent_saturation_reports_unknown(self):
        # Double negation elimination never saturates: the T-> premise
        # keeps demanding new labels.  Bounded search answers honestly and
        # the oracle still refutes the formula.
        f = parse("((p -> bot) -> bot) -> p")
        result = prove(f)
        assert result.status == "unknown"
        assert relmod.rel_valid_upto(f, 2, 1) is not None

    def test_branch_queue_matches_pair_queue_on_budget_grid(self):
        # Both searches expand the same branches with the same instances.
        # An unknown names the step budget exactly when some open branch
        # could still take a step within the label budget.  The pair queue
        # checks the step budget before it skips a pair, so it names the
        # step budget too when every open branch is starved.
        step, label = ("rule application budget exhausted",
                       "label budget exhausted")
        rng = random.Random(5)  # its 127th formula is the quoted one
        changed = set()
        for f in [random_formula(rng, 4) for _ in range(300)]:
            for steps in (0, 1, 2, 3, 5, 8, 13):
                for labels in (1, 2, 3, 4, 6, 9):
                    limits = Limits(steps, labels)
                    old, new = prove_by_pairs(f, limits), prove(f, limits)
                    t = new.tableau
                    assert (new.status, t.steps, t.steps_taken) == (
                        old.status, old.tableau.steps,
                        old.tableau.steps_taken)
                    if new.status != "unknown":
                        continue
                    can_step = any(
                        t.next_fresh + tableaux._rule(inst).fresh <= labels
                        for css in t.leaves.values() if not is_closed(css)
                        for inst in rules_from_scratch(css))
                    assert (new.reason == step) == can_step
                    if new.reason != old.reason:
                        assert (old.reason, new.reason) == (step, label)
                        changed.add((render(f), steps, labels))
        assert (STARVED_AT_STEP_BUDGET, 5, 2) in changed


class TestHintikka:
    def test_closed_branch_fails_early_conditions(self):
        css = CSS([(True, Atom("p"), c0), (False, Atom("p"), c0)],
                  [(c0, c0)])
        conditions = {f["condition"] for f in check_hintikka(css)}
        assert conditions & {1, 2, 3}

    def test_saturated_open_branch_passes(self):
        result = prove(parse("p"))
        assert result.status == "countermodel"
        assert check_hintikka(result.branch) == []

    def test_missing_layer_witness_fails_10(self):
        css = CSS([(True, parse("p |> q"), c0)], [(c0, c0)])
        assert any(f["condition"] == 10 for f in check_hintikka(css))


# Condition, premise sign and formula at c0, the constraints that put the
# labels in place, the failing labels, and the formulas that witness it.
C12 = (1, 2)
HINTIKKA_CASES = [
    (4, True, "p & q", [], [], [(True, "p", c0), (True, "q", c0)]),
    (5, False, "p & q", [], [], [(False, "q", c0)]),
    (6, True, "p | q", [], [], [(True, "p", c0)]),
    (7, False, "p | q", [], [], [(False, "p", c0), (False, "q", c0)]),
    (8, True, "p -> q", [(c0, c1)], ["c0", "c1"],
     [(False, "p", c0), (True, "q", c1)]),
    # The witness of condition 9 may be a two-letter label.
    (9, False, "p -> q", [(c0, C12)], [],
     [(True, "p", C12), (False, "q", C12)]),
    (10, True, "p |> q", [(C12, c0)], [], [(True, "p", c1), (True, "q", c2)]),
    (11, False, "p |> q", [(C12, c0)], ["c1c2"], [(False, "q", c2)]),
    (12, True, "p -|> q", [(c0, c1), (C12, C12)], ["c1c2"],
     [(True, "q", C12)]),
    (13, False, "p -|> q", [(c0, c1), (C12, C12)], [],
     [(True, "p", c2), (False, "q", C12)]),
    (14, True, "p <|- q", [(c0, c2), (C12, C12)], ["c1c2"],
     [(False, "p", c1)]),
    (15, False, "p <|- q", [(c0, c2), (C12, C12)], [],
     [(True, "p", c1), (False, "q", C12)]),
]


@pytest.mark.parametrize("condition, sign, text, constraints, labels, "
                         "witness", HINTIKKA_CASES,
                         ids=[str(case[0]) for case in HINTIKKA_CASES])
def test_hintikka_condition(condition, sign, text, constraints, labels,
                            witness):
    css = CSS([(sign, parse(text), c0)], [(c0, c0)] + constraints)
    fails = check_hintikka(css)
    assert {f["condition"] for f in fails} == {condition}
    assert [f["label"] for f in fails if "label" in f] == labels
    for s, atom, x in witness:
        css.add_formula((s, Atom(atom), x))
    assert check_hintikka(css) == []


class TestExtractModel:
    def test_single_atom(self):
        css = CSS([(False, Atom("p"), c0)], [(c0, c0)])
        model, label_map = extract_model(css)
        assert model.world_count() == 1
        assert model.valuation.get("p", frozenset()) == frozenset()
        assert not graphmod.satisfies(model, label_map[c0], Atom("p"))

    def test_two_letter_label_world(self):
        css = CSS([(False, Atom("p"), c0)],
                  [(c0, c0), ((1, 2), c0)])
        model, label_map = extract_model(css)
        comp = label_map[(1, 2)]
        sg = model.scaffold.subgraphs[comp]
        assert sg.vertices == frozenset(["c1", "c2"])
        assert sg.edges == frozenset([("c1", "c2")])
        assert model.scaffold.frame.leq(comp, label_map[c0])
        assert composition_index(
            model.scaffold, label_map[(1,)], label_map[(2,)]) == comp

    def test_valuation_persistence_rule(self):
        css = CSS([(True, Atom("p"), c0), (False, Atom("q"), c1)],
                  [(c0, c1)])
        model, label_map = extract_model(css)
        # Tp at c0 and c0 <= c1 puts the c1 world into p's extension.
        assert label_map[c1] in model.valuation["p"]

    def test_output_validates(self):
        rng = random.Random(17)
        seen = 0
        while seen < 25:
            f = random_formula(rng, 3)
            result = prove(f)
            if result.status != "countermodel":
                continue
            seen += 1
            assert graphmod.validate_model(result.model) == []

    def test_certification_rejects_non_hintikka_branch(self):
        # T p |> q at c0 without its witness: extraction builds the
        # one-world model, in which p |> q fails at the root, so the
        # model does not falsify p |> q -> bot and certification stops it.
        css = CSS([(True, parse("p |> q"), c0)], [(c0, c0)])
        assert check_hintikka(css) != []
        model, _ = extract_model(css)
        assert model.world_count() == 1
        f = parse("(p |> q) -> bot")
        with pytest.raises(RuntimeError, match="fails to falsify"):
            tableaux._certify_countermodel(f, css, initial_tableau(f))


class TestRealize:
    def test_extracted_model_realizes_branch(self):
        rng = random.Random(23)
        seen = 0
        while seen < 20:
            f = random_formula(rng, 3)
            result = prove(f)
            if result.status != "countermodel":
                continue
            seen += 1
            report = realize_check(result.branch, result.model,
                                   result.label_map)
            assert report == []

    def test_closed_branch_never_realizable(self):
        css = CSS([(True, Atom("p"), c0), (False, Atom("p"), c0)],
                  [(c0, c0)])
        donor = prove(parse("p"))
        model = donor.model
        for world in range(model.world_count()):
            report = realize_check(css, model, {c0: world})
            assert any(r["clause"] == "satisfaction" for r in report)

    def test_wrong_order_reported(self):
        result = prove(parse("(p -> q) -> q"))
        assert result.status == "countermodel"
        branch = result.branch
        model = result.model
        bad = dict(result.label_map)
        # c0 <= c1 is a branch constraint; map both ends so it breaks.
        bad[(0,)], bad[(1,)] = bad[(1,)], bad[(0,)]
        report = realize_check(branch, model, bad)
        assert any(r["clause"] in ("order", "satisfaction", "composition")
                   for r in report)


class TestSoundnessSample:
    def test_proved_formulas_hold_in_random_models(self):
        from ilgl.gen import random_graph_model
        rng = random.Random(37)
        models = [random_graph_model(rng) for _ in range(20)]
        proved = 0
        rng2 = random.Random(41)
        while proved < 10:
            f = random_formula(rng2, 3)
            if prove(f).status != "proved":
                continue
            proved += 1
            for model in models:
                assert graphmod.valid_in_model(model, f), render(f)


def test_sweep_countermodel_branches_are_hintikka():
    # The prover checks countermodels by certification alone; the branch
    # each one comes from still meets all fifteen conditions.
    models = 0
    for f in sweep():
        result = prove(f)
        if result.status == "countermodel":
            assert check_hintikka(result.branch) == [], render(f)
            models += 1
    assert models == 875


def test_sweep_composition_tables_equal_all_pairs():
    # Every countermodel's table, built from the pairs an eset edge joins,
    # equals the one from composing every pair of members.
    models = 0
    for f in sweep():
        result = prove(f)
        if result.status == "countermodel":
            sc = result.model.scaffold
            assert (sc._comp, sc._escapes) == composition_table(sc), \
                render(f)
            models += 1
    assert models == 875


def test_prove_builds_no_subgraph(monkeypatch):
    # Certification reads the scaffold's parts: no countermodel of the
    # sweep builds a ``Subgraph`` until its ``subgraphs`` are read.
    built = [0]
    check = graphmod.Subgraph.__post_init__

    def counted(sg):
        built[0] += 1
        check(sg)

    monkeypatch.setattr(graphmod.Subgraph, "__post_init__", counted)
    models = []
    for f in sweep():
        result = prove(f)
        if result.status == "countermodel":
            models.append(result.model)
    assert len(models) == 875 and built[0] == 0
    for model in models:
        assert len(model.scaffold.subgraphs) == model.world_count()
    assert built[0] == sum(model.world_count() for model in models)


def test_sweep_countermodels_round_trip_through_json():
    # Every countermodel written as JSON loads back to an equal frame on
    # equal parts, with the same valuation.
    models = 0
    for f in sweep():
        result = prove(f)
        if result.status == "countermodel":
            model = result.model
            again = graphmod.model_from_dict(json.loads(json.dumps(
                graphmod.model_to_dict(model))))
            assert again.scaffold.frame == model.scaffold.frame, render(f)
            assert again.scaffold.parts == model.scaffold.parts, render(f)
            assert again.valuation == model.valuation, render(f)
            models += 1
    assert models == 875


# Digests of the 1,000-formula sweep (a fresh random.Random(20240) per
# depth, 500 formulas at each of depths 4 and 5), recorded before the
# rule table replaced the per-rule code paths.
SWEEP_TRACE_SHA256 = \
    "c713a4065809221b2ef3879a1c270547acd0eb04e391a9006f66f1c67abc2bbc"
SWEEP_HINTIKKA_SHA256 = \
    "ca78b6179042dc1939aca9139cef495d2eeae98b58b951b10a6b4fed363b6155"


def test_traces_byte_identical():
    traces, hintikka = hashlib.sha256(), hashlib.sha256()
    counts = {}
    for f in sweep():
        result = prove(f)
        t = result.tableau
        counts[result.status] = counts.get(result.status, 0) + 1
        traces.update(json.dumps([render(f), result.status, t.steps,
                                  t.trace], sort_keys=True).encode())
        for branch in t.branches:
            hintikka.update(json.dumps(check_hintikka(branch),
                                       sort_keys=True).encode())
    assert counts == {"countermodel": 875, "proved": 118, "unknown": 7}
    assert traces.hexdigest() == SWEEP_TRACE_SHA256
    assert hintikka.hexdigest() == SWEEP_HINTIKKA_SHA256
