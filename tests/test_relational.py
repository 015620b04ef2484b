import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from ilgl import gen
from ilgl import graph as graphmod
from ilgl import relational as relmod
from ilgl.algebra import (AlgebraInterpretation,
                          complex_algebra_with_elements, interpret)
from ilgl.crosscheck import _bigraph_fixture
from ilgl.formula import atoms, parse, postfix
from ilgl.gen import (random_formula, random_graph_model,
                      random_relational_model)
from ilgl.predicate import resource_evaluator
from ilgl.relational import (MAX_UPSETS, OP_NAME, IntLayeredFrame,
                             RelationalModel, _stacked_step, closure_pairs,
                             enumerate_preorders, frame_from_dict,
                             frame_to_dict, rel_satisfies, rel_valid_upto,
                             upset_masks)
from ilgl.tableaux import prove
from graph_reference import composition_index
from oracle_reference import (class_minima, closure_reference,
                              enumerate_frames, unreduced_chunks, upsets)
from tableau_reference import sweep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


class TestScaffoldToFrame:
    def test_single_composition_triple(self):
        # Random graph models, the bigraph fixture's model and the
        # countermodels of the 1,000-formula sweep.
        rng = random.Random(0)
        models = [random_graph_model(rng) for _ in range(80)]
        models.append(_bigraph_fixture().model)
        models += [result.model for result in map(prove, sweep())
                   if result.status == "countermodel"]
        assert len(models) == 80 + 1 + 875
        found = False
        for model in models:
            frame = model.scaffold.frame
            assert frame.worlds == model.world_count()
            assert frame.order == model.scaffold.order
            for (i, j), m in model.scaffold._comp.items():
                if m is not None:
                    assert (i, j, m) in frame.rel
                    found = True
            for (y, z, x) in frame.rel:
                assert composition_index(model.scaffold, y, z) == x
        assert found

    def test_evaluator_order_is_frame_order(self):
        # The persistence suite checks each formula's worlds against
        # ``ev.up``: it must be the model's own order.
        rng = random.Random(4)
        checks = [(graphmod.model_evaluator(m), m.scaffold.frame)
                  for m in (random_graph_model(rng) for _ in range(60))]
        checks += [(relmod.Evaluator(m.frame, m.valuation), m.frame)
                   for m in (random_relational_model(rng, rng.randrange(1, 5))
                             for _ in range(60))]
        rm = _bigraph_fixture()
        checks.append((resource_evaluator(rm), rm.model.scaffold.frame))
        strict = 0
        for ev, frame in checks:
            assert ev.n == frame.worlds
            for i in range(ev.n):
                for j in range(ev.n):
                    assert (ev.up[i] >> j & 1 == 1) == frame.leq(i, j)
                    strict += i != j and frame.leq(i, j)
        assert strict > 0

    def test_no_compositions_empty_rel(self):
        g = graphmod.DirectedGraph(frozenset(["a"]), frozenset())
        sg = graphmod.Subgraph(frozenset(["a"]), frozenset(), g)
        sc = graphmod.OrderedScaffold(g, frozenset(), [sg], frozenset())
        assert sc.frame.rel == frozenset()


class TestRelSatisfies:
    def frame(self):
        return IntLayeredFrame(3, frozenset([(0, 0), (1, 1), (2, 2)]),
                               frozenset([(0, 1, 2)]))

    def test_top_bot(self):
        m = RelationalModel(self.frame(), {})
        for w in range(3):
            assert rel_satisfies(m, w, parse("top"))
            assert not rel_satisfies(m, w, parse("bot"))

    def test_layer_clause(self):
        m = RelationalModel(self.frame(), {"p": frozenset([0]),
                                           "q": frozenset([1])})
        assert rel_satisfies(m, 2, parse("p |> q"))
        assert not rel_satisfies(m, 2, parse("q |> p"))
        assert not rel_satisfies(m, 0, parse("p |> q"))

    def test_unknown_atom(self):
        m = RelationalModel(self.frame(), {})
        assert not rel_satisfies(m, 0, parse("nope"))

    def test_agrees_with_graph_semantics(self):
        rng = random.Random(77)
        for _ in range(200):
            model = random_graph_model(rng)
            rmodel = RelationalModel(model.scaffold.frame, model.valuation)
            f = random_formula(rng, 3)
            for w in range(model.world_count()):
                assert graphmod.satisfies(model, w, f) \
                    == rel_satisfies(rmodel, w, f)

    def test_persistence(self):
        rng = random.Random(55)
        for _ in range(300):
            m = random_relational_model(rng, rng.randrange(1, 5))
            assert m.validate() == []
            f = random_formula(rng, 3)
            for a in range(m.frame.worlds):
                if not rel_satisfies(m, a, f):
                    continue
                for b in range(m.frame.worlds):
                    if m.frame.leq(a, b):
                        assert rel_satisfies(m, b, f)


class TestEnumeration:
    def test_one_world_two_frames(self):
        frames = list(enumerate_frames(1))
        assert len(frames) == 2
        assert {f.rel for f in frames} == {frozenset(),
                                           frozenset([(0, 0, 0)])}

    def test_one_preorder_on_one_element(self):
        assert enumerate_preorders(1) == [frozenset([(0, 0)])]

    def test_preorder_counts(self):
        # labeled preorders: 1, 4, 29 for 1..3 elements
        assert len(enumerate_preorders(2)) == 4
        assert len(enumerate_preorders(3)) == 29

    def test_two_worlds_full_space(self):
        frames = list(enumerate_frames(2))
        assert len(frames) == 2 + 4 * 2 ** 8
        for frame in frames[:50]:
            assert frame.validate() == []

    def test_all_yielded_frames_valid(self):
        for frame in itertools.islice(enumerate_frames(3, 2), 500):
            assert frame.validate() == []

    def test_closure_matches_reference(self):
        rng = random.Random(4)
        for n in range(1, 9):
            for domain in (range(n), [f"v{i}" for i in range(n)]):
                for _ in range(30):
                    pairs = [(rng.choice(domain), rng.choice(domain))
                             for _ in range(rng.randrange(2 * n))]
                    assert closure_pairs(pairs, domain) \
                        == closure_reference(pairs, domain)
        with pytest.raises(ValueError):
            closure_pairs([(0, 3)], range(3))

    def test_validate_names_each_fault(self):
        order = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (1, 0)]
        frame = IntLayeredFrame(3, frozenset(order), frozenset())
        assert frame.validate() == ["order not transitive: (0,1),(1,2)"]
        frame = IntLayeredFrame(2, frozenset([(0, 0), (0, 1), (1, 5)]),
                                frozenset([(0, 0, 2)]))
        model = RelationalModel(frame, {"p": frozenset([0])})
        assert sorted(model.validate()) == [
            "order not reflexive at 1", "order pair (1,5) out of range",
            "relation triple (0, 0, 2) out of range",
            "valuation of 'p' not persistent: 0 <= 1"]

    def test_upsets_bounded(self):
        # 16 discrete worlds have exactly MAX_UPSETS up-sets; 17 have
        # twice as many, and 80 would have 2^80.
        assert MAX_UPSETS == 1 << 16
        assert len(upset_masks([1 << w for w in range(16)])) == MAX_UPSETS
        for worlds in (17, 80):
            with pytest.raises(ValueError, match="up-sets"):
                upset_masks([1 << w for w in range(worlds)])


class TestValidityOracle:
    def test_tautology_none(self):
        assert rel_valid_upto(parse("p -> p"), 3, 1) is None

    def test_atom_refuted_minimally(self):
        cex = rel_valid_upto(parse("p"), 3, 1)
        assert cex is not None
        assert cex.frame.worlds == 1
        assert cex.valuation == {"p": frozenset()}
        assert cex.world == 0

    def test_layer_swap_counterexample(self):
        cex = rel_valid_upto(parse("(p |> q) -> (q |> p)"), 4, 2)
        assert cex is not None
        assert cex.frame.worlds <= 3
        model = cex.model()
        assert model.validate() == []
        assert not rel_satisfies(model, cex.world,
                                 parse("(p |> q) -> (q |> p)"))

    def test_counterexamples_certify(self):
        rng = random.Random(3)
        hits = 0
        while hits < 15:
            f = random_formula(rng, 3)
            cex = rel_valid_upto(f, 3, 3)
            if cex is None:
                continue
            hits += 1
            model = cex.model()
            assert model.validate() == []
            assert not rel_satisfies(model, cex.world, f)

    def test_deterministic(self):
        f = parse("(p |> q) -> p")
        a = rel_valid_upto(f, 3, 2)
        b = rel_valid_upto(f, 3, 2)
        assert frame_to_dict(a.model()) == frame_to_dict(b.model())
        assert a.world == b.world

    def test_atom_limit_enforced(self):
        with pytest.raises(ValueError):
            rel_valid_upto(parse("p & q"), 2, 1)

    def test_four_world_cap_two_step_is_cached(self, monkeypatch):
        # Capping smaller steps to the empty relation forces the search
        # into the 4-world cap-2 step; once built, it is not built again.
        f = parse("(p |> q) -> (q |> p)")
        caps = {1: 0, 2: 0, 3: 0, 4: 2}
        cex = rel_valid_upto(f, 4, 2, rel_caps=caps)
        assert cex is not None
        assert cex.frame.worlds == 4
        assert not rel_satisfies(cex.model(), cex.world, f)
        built = _stacked_step.cache_info().misses
        step = _stacked_step(4, 2)
        assert _stacked_step.cache_info().misses == built

        def rebuild(n, cap):
            raise AssertionError(f"step ({n}, {cap}) rebuilt")

        monkeypatch.setattr(relmod, "_preorder_chunks", rebuild)
        again = rel_valid_upto(f, 4, 2, rel_caps=caps)
        assert frame_to_dict(again.model()) == frame_to_dict(cex.model())
        assert _stacked_step(4, 2) is step

    def test_more_than_four_worlds_rejected(self):
        with pytest.raises(ValueError, match="4"):
            rel_valid_upto(parse("p -> p"), 5, 1)

    @pytest.mark.parametrize("max_worlds, rel_caps, named", [
        (0, None, "max_worlds"), (-2, None, "max_worlds"),
        (2.0, None, "max_worlds"), (True, None, "max_worlds"),
        (3, {3: -1}, "rel_caps"), (3, {3: 2.5}, "rel_caps"),
        (3, {3: "2"}, "rel_caps"), (3, {3: False}, "rel_caps"),
        (2, {4: -1}, "rel_caps"), (3, {0: 1}, "rel_caps"),
        (3, {5: None}, "rel_caps")])
    def test_bad_arguments_rejected(self, max_worlds, rel_caps, named):
        # None is the answer for a valid formula, so a bad argument must
        # raise rather than return it or fail inside numpy.
        with pytest.raises(ValueError, match=named):
            rel_valid_upto(parse("p"), max_worlds, 1, rel_caps)

    def test_matches_direct_brute_force(self, monkeypatch):
        # Independent oracle: sweep the identical two-world family with
        # rel_satisfies directly (no algebra tables) and compare both the
        # verdict and the first counterexample found.
        import itertools

        from ilgl.formula import atoms

        def brute(f):
            names = atoms(f)
            for frame in enumerate_frames(2):
                ups = upsets(frame)
                n = frame.worlds
                for combo in itertools.product(ups, repeat=len(names)):
                    valuation = {
                        p: frozenset(w for w in range(n) if m >> w & 1)
                        for p, m in zip(names, combo)}
                    model = RelationalModel(frame, valuation)
                    for w in range(n):
                        if not rel_satisfies(model, w, f):
                            return frame, valuation, w
            return None

        monkeypatch.setattr(gen, "ATOM_NAMES", ("p", "q"))  # two atoms
        rng = random.Random(271)
        outcomes = set()
        for _ in range(40):
            f = random_formula(rng, 3)
            fast = rel_valid_upto(f, 2, 2)
            slow = brute(f)
            outcomes.add(slow is None)
            if slow is None:
                assert fast is None, f
            else:
                assert fast is not None, f
                assert frame_to_dict(fast.model()) == frame_to_dict(
                    RelationalModel(slow[0], slow[1]))
                assert fast.world == slow[2]
        assert outcomes == {True, False}

    def test_default_caps_four_worlds_cold(self):
        # A valid 3-atom formula scans every class of the default family
        # up to 4 worlds, building each step first.
        code = ("from ilgl.formula import parse; "
                "from ilgl.relational import rel_valid_upto; "
                "print(rel_valid_upto(parse('(p |> q) -> (p |> (q | r))'), "
                "4, 3))")
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "None"
        assert time.monotonic() - started < 30


class TestIsomorphismClasses:
    # The reduced steps against the unreduced family they replace: one
    # entry per isomorphism class, at the class's least position.

    def test_step_sizes(self):
        sizes = [len(_stacked_step(n, cap).entries) for n, cap in
                 ((1, None), (2, None), (3, 2), (4, 1), (4, 2))]
        assert sizes == [2, 158, 974, 951, 18186]

    @pytest.mark.parametrize("n, cap", [(1, None), (2, None), (3, 2),
                                        (4, 1)])
    def test_one_entry_per_class(self, n, cap):
        chunks = list(unreduced_chunks(n, cap))
        unreduced = {pos: (frame, ups, {name: t[row] for name, t
                                        in tables.items()})
                     for entries, tables in chunks
                     for row, (pos, frame, ups) in enumerate(entries)}
        step = _stacked_step(n, cap)
        positions = [pos for pos, _, _ in step.entries]
        assert positions == sorted(class_minima(n, chunks).values())
        for group in step.groups.values():
            for row, idx in enumerate(group["indices"]):
                pos, frame, ups = step.entries[idx]
                ref_frame, ref_ups, ref_tables = unreduced[pos]
                assert (frame, ups) == (ref_frame, ref_ups)
                for name, table in group["tables"].items():
                    assert np.array_equal(table[row], ref_tables[name])

    def test_one_entry_per_class_on_sampled_four_world_preorders(self):
        orders = enumerate_preorders(4)
        rank = {order: p for p, order in enumerate(orders)}
        orbit = {p: frozenset(rank[frozenset((w[a], w[b]) for a, b in order)]
                              for w in itertools.permutations(range(4)))
                 for p, order in enumerate(orders)}
        lowest = sorted({min(ranks) for ranks in orbit.values()})
        assert len(lowest) == 33
        step = _stacked_step(4, 2)
        relations = 1 + 64 + 64 * 63 // 2
        assert sorted({pos // relations for pos, _, _ in step.entries}) \
            == lowest
        for p in random.Random(11).sample(lowest, 4):
            least = class_minima(4, unreduced_chunks(4, 2, orbit[p]))
            assert [pos for pos, _, _ in step.entries
                    if pos // relations == p] == sorted(least.values())


SCAN_STEPS = [(1, None), (2, None), (3, 2), (4, 1)]


def _falsified(cex, f) -> bool:
    """Whether ``algebra.interpret`` on the complex algebra of ``cex``'s
    frame gives ``f`` a value missing ``cex.world``."""
    alg, ups = complex_algebra_with_elements(cex.frame)
    index = {m: i for i, m in enumerate(ups)}
    valuation = {p: index[sum(1 << w for w in ws)]
                 for p, ws in cex.valuation.items()}
    value = interpret(AlgebraInterpretation(alg, valuation), f)
    return not ups[value] >> cex.world & 1


class TestScan:
    """``_scan_stacked`` gives atom m its own axis and the algebras the
    last; the answers must be those of evaluating every (algebra,
    assignment) on its own."""

    @pytest.mark.parametrize("text", ["top", "bot", "top -> bot",
                                      "top |> top", "(top |> top) <|- top"])
    def test_constant_formulas(self, text):
        # No atom, so no atom axis: the first entry with a world where
        # the relational clauses refute the formula, at every step.
        f = parse(text)
        for n, cap in SCAN_STEPS:
            step = _stacked_step(n, cap)
            expected = next(
                ((frame, w) for _, frame, _ in step.entries
                 for w in range(n)
                 if not rel_satisfies(RelationalModel(frame, {}), w, f)),
                None)
            cex = relmod._scan_stacked(postfix(f), [], step)
            if expected is None:
                assert cex is None, (text, n)
            else:
                assert (cex.frame, cex.world) == expected, (text, n)
                assert cex.valuation == {}

    @pytest.mark.parametrize("text", [
        "top -> (bot | (top & (top -> p)))",
        "(top |> (top -> (bot | q))) -> (p |> top)",
        "(p |> q) -> (top |> (top -> (r & top)))",
        "((top |> top) <|- (top & r)) -> ((p | q) |> top)",
    ])
    def test_counterexamples_falsified(self, text):
        # One to three atoms, one of them once and deep under constants.
        f = parse(text)
        names = atoms(f)
        refuted = 0
        for n, cap in SCAN_STEPS:
            cex = relmod._scan_stacked(postfix(f), names,
                                       _stacked_step(n, cap))
            if cex is not None:
                refuted += 1
                assert sorted(cex.valuation) == names
                assert cex.model().validate() == []
                assert _falsified(cex, f), (text, n)
        assert refuted

    @pytest.mark.parametrize("text", [
        "p -> (top & (top -> p))",
        "(top |> (p & top)) -> (top |> p)",
        "(p |> q) -> (p |> (q | r))",
    ])
    def test_none_agrees_with_interpret(self, text):
        f = parse(text)
        names = atoms(f)
        rng = random.Random(16)
        for n, cap in SCAN_STEPS:
            step = _stacked_step(n, cap)
            assert relmod._scan_stacked(postfix(f), names, step) is None
            for _, frame, ups in rng.sample(step.entries,
                                            min(20, len(step.entries))):
                alg, elements = complex_algebra_with_elements(frame)
                assert elements == ups
                for combo in itertools.product(range(alg.size),
                                               repeat=len(names)):
                    interp = AlgebraInterpretation(alg,
                                                   dict(zip(names, combo)))
                    assert interpret(interp, f) == alg.top, (text, n)


    @pytest.mark.parametrize("u, width, refutable", [
        # 108 algebras, 27,648 cells: int16 offsets.
        (16, np.int16, "(p <|- p) & q & (q -|> q -|> q) <|- "
                       "(q & p & (q -|> q) -|> q & top)"),
        # 1,033 algebras, 148,752 cells: int32 offsets.
        (12, np.int32, "((p | p) |> p & (p | p | (p -|> q)) <|- (q <|- bot)"
                       " | top |> (q | p)) | (p -> (q | (bot -|> q)) |> "
                       "(p & q -|> p -|> p))")], ids=["int16", "int32"])
    def test_offset_widths(self, u, width, refutable):
        # One group of the 4-world cap-2 step scanned on its own.  The
        # refutable formula's first counterexample lies past offset 10,000
        # (int16) or 32,767 (int32), and the valid formula reads every
        # algebra's tables, so an offset that overflows gives a wrong
        # answer here.
        step = _stacked_step(4, 2)
        group = step.groups[u]
        a_count = len(group["indices"])
        assert (a_count * u * u < 1 << 15) == (width is np.int16)
        one = types.SimpleNamespace(entries=step.entries, groups={u: group})
        column = {index: c for c, index in enumerate(group["indices"])}
        entry = {id(frame): i for i, (_, frame, _) in enumerate(step.entries)}
        rng = random.Random(26)
        valid = parse("(p |> q) -> (p |> (q | r))")
        assert relmod._scan_stacked(postfix(valid), atoms(valid), one) is None
        f = parse(refutable)
        names = atoms(f)
        cex = relmod._scan_stacked(postfix(f), names, one)
        first = column[entry[id(cex.frame)]]
        assert first * u * u > (10_000 if width is np.int16 else 1 << 15)
        assert _falsified(cex, f)
        for c in rng.sample(range(first), 5) + [first, a_count - 1]:
            _, frame, ups = step.entries[group["indices"][c]]
            alg, elements = complex_algebra_with_elements(frame)
            assert elements == ups
            failing = next((combo for combo in itertools.product(
                range(u), repeat=len(names)) if interpret(
                    AlgebraInterpretation(alg, dict(zip(names, combo))), f)
                != alg.top), None)
            if c < first:
                assert failing is None, (u, c)
            elif c == first:
                assert {p: ups[e] for p, e in zip(names, failing)} == {
                    p: sum(1 << w for w in ws)
                    for p, ws in cex.valuation.items()}
            if c in (first, a_count - 1):
                for combo in itertools.product(range(u), repeat=3):
                    interp = AlgebraInterpretation(
                        alg, dict(zip(atoms(valid), combo)))
                    assert interpret(interp, valid) == alg.top, (u, c)


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _counterexample_line(cex) -> str:
    if cex is None:
        return "None"
    return json.dumps([frame_to_dict(cex.model()), cex.world],
                      sort_keys=True)


def test_oracle_byte_identical():
    # The steps digest covers every cached step's entries and stacked
    # tables; it was recorded once TestIsomorphismClasses held them
    # against the unreduced family.  The counterexamples digest dates from
    # the scalar table builder and the unreduced scan: reducing to one
    # frame per isomorphism class leaves every counterexample unchanged.
    lines = []
    for n, cap in ((1, None), (2, None), (3, 2), (4, 1), (4, 2)):
        step = _stacked_step(n, cap)
        for pos, frame, ups in step.entries:
            lines.append(repr((pos, frame.worlds, sorted(frame.order),
                               sorted(frame.rel), list(ups))))
        for u in sorted(step.groups):
            group = step.groups[u]
            lines.append(repr((u, group["indices"])))
            for name in OP_NAME.values():
                table = group["tables"][name]
                assert table.dtype == np.int16
                lines.append(table.tobytes().hex())
    assert _sha(lines) == STEPS_DIGEST

    formulas = []
    for depth in (3, 4):
        rng = random.Random(20240)
        formulas += [random_formula(rng, depth) for _ in range(75)]
    results = [rel_valid_upto(f, 3, 3) for f in formulas]
    # Refutable with at most two atoms, but only on a non-empty relation:
    # with every smaller step capped to the empty relation the search
    # reaches the 4-world cap-2 step.
    empty = {1: 0, 2: 0, 3: 0}
    four_world = [f for f, cex in zip(formulas, results)
                  if cex is not None and len(atoms(f)) <= 2
                  and rel_valid_upto(f, 3, 3, rel_caps=empty) is None][:11]
    assert len(four_world) == 11
    lines = [_counterexample_line(cex) for cex in results]
    lines += [_counterexample_line(rel_valid_upto(
        f, 4, 2, rel_caps={**empty, 4: 2})) for f in four_world]
    assert _sha(lines) == COUNTEREXAMPLES_DIGEST


def test_oracle_four_world_cap_one_byte_identical():
    # The path the benchmark's oracle sweep runs: 4 worlds with the
    # 4-world cap set to 1, once with every smaller step at its default
    # cap and once with them capped to the empty relation, so that 58 of
    # the counterexamples lie in the 4-world step.  The digest was
    # recorded before the scan put the algebra axis last.
    formulas = []
    for depth in (3, 4, 5):
        rng = random.Random(20240)
        formulas += [random_formula(rng, depth) for _ in range(75)]
    lines = []
    for caps in ({4: 1}, {1: 0, 2: 0, 3: 0, 4: 1}):
        results = [rel_valid_upto(f, 4, 3, caps) for f in formulas]
        lines += map(_counterexample_line, results)
    assert sum('"worlds": 4' in line for line in lines) == 58
    assert _sha(lines) == FOUR_WORLD_CAP_ONE_DIGEST


STEPS_DIGEST = (
    "f7e66ba1bc6ad27eb89bafe931149b274b8949ddd4d693f84f30836f73350e6f")
COUNTEREXAMPLES_DIGEST = (
    "bc89d3485bda0a4a4e1ce3f228e09ad98ded67af62d18e3bfcccd982e918d4cc")
FOUR_WORLD_CAP_ONE_DIGEST = (
    "96a528983250cd1ed4e8ff95d425b459f6150fdcdb987e61b5a4b5810c2ed8d8")


class TestFrameJson:
    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(20):
            m = random_relational_model(rng, rng.randrange(1, 5))
            back = frame_from_dict(frame_to_dict(m))
            assert frame_to_dict(back) == frame_to_dict(m)

    def test_order_closed_on_load(self):
        m = frame_from_dict({"worlds": 3, "order": [[0, 1], [1, 2]],
                             "rel": [], "valuation": {}})
        assert m.frame.leq(0, 2)
        assert m.frame.validate() == []
