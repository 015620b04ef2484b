import itertools
import random

import pytest

from ilgl import graph as graphmod
from ilgl.formula import parse
from ilgl.gen import (random_formula, random_graph_model,
                      random_relational_model)
from ilgl.graph import scaffold_to_frame
from ilgl.relational import (IntLayeredFrame, RelationalModel,
                             enumerate_frames, enumerate_preorders,
                             frame_from_dict, frame_to_dict, rel_satisfies,
                             rel_valid_upto)


class TestScaffoldToFrame:
    def test_single_composition_triple(self):
        rng = random.Random(0)
        found = False
        for _ in range(80):
            model = random_graph_model(rng)
            frame = scaffold_to_frame(model.scaffold)
            assert frame.worlds == model.world_count()
            assert frame.order == model.scaffold.order
            for (i, j), m in model.scaffold._comp.items():
                if m is not None:
                    assert (i, j, m) in frame.rel
                    found = True
            for (y, z, x) in frame.rel:
                assert model.scaffold.composition_index(y, z) == x
        assert found

    def test_no_compositions_empty_rel(self):
        g = graphmod.DirectedGraph(frozenset(["a"]), frozenset())
        sg = graphmod.Subgraph(frozenset(["a"]), frozenset(), g)
        sc = graphmod.OrderedScaffold(g, frozenset(), [sg], frozenset())
        assert scaffold_to_frame(sc).rel == frozenset()


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
            rmodel = RelationalModel(scaffold_to_frame(model.scaffold),
                                     model.valuation)
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

    def test_streaming_four_world_path(self):
        # Capping smaller steps to the empty relation forces the search
        # into the streamed 4-world scan.
        f = parse("(p |> q) -> (q |> p)")
        cex = rel_valid_upto(f, 4, 2, rel_caps={1: 0, 2: 0, 3: 0, 4: 2})
        assert cex is not None
        assert cex.frame.worlds == 4
        assert not rel_satisfies(cex.model(), cex.world, f)

    def test_matches_direct_brute_force(self):
        # Independent oracle: sweep the identical two-world family with
        # rel_satisfies directly (no algebra tables) and compare both the
        # verdict and the first counterexample found.
        import itertools

        from ilgl.formula import atoms

        def brute(f):
            names = atoms(f)
            for frame in enumerate_frames(2):
                ups = frame.upsets()
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

        rng = random.Random(271)
        outcomes = set()
        for _ in range(40):
            f = random_formula(rng, 3, ("p", "q"))
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
