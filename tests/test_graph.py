import json
import random

import pytest

import graph_reference
from ilgl.crosscheck import _bigraph_fixture
from ilgl.formula import parse
from ilgl.gen import _try_scaffold, random_formula, random_graph_model
from ilgl.graph import (DirectedGraph, GraphMasks, LayeredGraphModel,
                        OrderedScaffold, Subgraph, check_admissible,
                        check_persistent, compose, model_from_dict,
                        model_to_dict, reaches, satisfies, valid_in_model,
                        validate_model)


def g(vertices, edges):
    return DirectedGraph(frozenset(vertices),
                         frozenset(tuple(e) for e in edges))


PARENT = g(["1", "2", "3", "4"], [("1", "2"), ("3", "4"), ("2", "3"),
                                  ("3", "2")])


def sub(vertices, edges=()):
    return Subgraph(frozenset(vertices),
                    frozenset(tuple(e) for e in edges), PARENT)


class TestReaches:
    def test_direct_edge(self):
        h, k = sub(["1", "2"]), sub(["3", "4"])
        assert reaches(h, k, frozenset([("2", "3")]))

    def test_wrong_direction(self):
        h, k = sub(["1", "2"]), sub(["3", "4"])
        assert not reaches(h, k, frozenset([("3", "2")]))

    def test_empty_eset(self):
        h, k = sub(["1", "2"]), sub(["3", "4"])
        assert not reaches(h, k, frozenset())

    def test_parent_mismatch(self):
        other = g(["1"], [])
        with pytest.raises(ValueError):
            reaches(sub(["1"]), Subgraph(frozenset(["1"]), frozenset(),
                                         other), frozenset())


class TestCompose:
    def test_defined(self):
        h = sub(["1", "2"], [("1", "2")])
        k = sub(["3", "4"], [("3", "4")])
        out = compose(h, k, frozenset([("2", "3")]))
        assert out is not None
        assert out.vertices == frozenset(["1", "2", "3", "4"])
        assert out.edges == frozenset([("1", "2"), ("3", "4"), ("2", "3")])

    def test_reverse_undefined(self):
        h = sub(["1", "2"], [("1", "2")])
        k = sub(["3", "4"], [("3", "4")])
        assert compose(k, h, frozenset([("2", "3")])) is None

    def test_overlap_undefined(self):
        assert compose(sub(["1"]), sub(["1", "2"]), frozenset()) is None

    def test_noncommutative_everywhere(self):
        rng = random.Random(1)
        for _ in range(50):
            model = random_graph_model(rng)
            sc = model.scaffold
            for h in sc.subgraphs:
                for k in sc.subgraphs:
                    if compose(h, k, sc.eset) is not None:
                        assert compose(k, h, sc.eset) is None

    def test_output_well_formed(self):
        rng = random.Random(2)
        for _ in range(30):
            model = random_graph_model(rng)
            sc = model.scaffold
            for h in sc.subgraphs:
                for k in sc.subgraphs:
                    out = compose(h, k, sc.eset)
                    if out is not None:
                        assert out.parent is h.parent
                        assert out.vertices <= sc.graph.vertices


def scaffold_hk():
    """H, K, H@K over the shared parent."""
    eset = frozenset([("2", "3")])
    h = sub(["1", "2"], [("1", "2")])
    k = sub(["3", "4"], [("3", "4")])
    hk = compose(h, k, eset)
    return h, k, hk, eset


class TestAdmissibility:
    def test_closed_triple_valid(self):
        h, k, hk, eset = scaffold_hk()
        sc = OrderedScaffold(PARENT, eset, [h, k, hk], frozenset())
        assert check_admissible(sc) == []

    def test_missing_composition(self):
        h, k, hk, eset = scaffold_hk()
        sc = OrderedScaffold(PARENT, eset, [h, k], frozenset())
        report = check_admissible(sc)
        assert any(v["direction"] == "composition missing from X"
                   for v in report)

    def test_missing_components(self):
        h, k, hk, eset = scaffold_hk()
        sc = OrderedScaffold(PARENT, eset, [hk], frozenset())
        report = check_admissible(sc)
        assert any(v["direction"] == "component missing from X"
                   for v in report)

    def test_exhaustive_matches_default_on_small(self):
        # The reference's exhaustive pool holds every subgraph: the
        # all-subgraph definition of admissibility.
        h, k, hk, eset = scaffold_hk()
        good = OrderedScaffold(PARENT, eset, [h, k, hk], frozenset())
        bad = OrderedScaffold(PARENT, eset, [hk], frozenset())
        for sc in (good, bad):
            assert sorted(map(repr, check_admissible(sc))) == sorted(map(
                repr, graph_reference.check_admissible(sc, exhaustive=True)))
        assert check_admissible(good) == [] and check_admissible(bad) != []

    def test_violations_sorted_by_parts(self):
        report = check_admissible(chain_scaffold(5, [(1, 2), (3, 4)]))
        assert len(report) == 3 and report == sorted(report, key=part_key)
        report = check_admissible(chain_scaffold(9, [(0, 8)]))
        assert len(report) == 8 and report == sorted(report, key=part_key)


def part_key(violation: dict) -> tuple:
    return tuple(violation[side][f] for side in ("left", "right")
                 for f in ("vertices", "edges"))


def chain_scaffold(n: int, members, eset_too: bool = True):
    """The chain v00 -> v01 -> ... on n vertices (all eset edges when
    ``eset_too``) with the members given as (first, last) vertex ranges,
    each carrying its chain edges."""
    names = [f"v{i:02d}" for i in range(n)]
    edges = frozenset(zip(names, names[1:]))
    graph = DirectedGraph(frozenset(names), edges)
    xs = [Subgraph(frozenset(names[a:b + 1]),
                   frozenset(zip(names[a:b], names[a + 1:b + 1])), graph)
          for a, b in members]
    return OrderedScaffold(graph, edges if eset_too else frozenset(), xs,
                           frozenset())


def same_violations(scaffold) -> bool:
    new = check_admissible(scaffold)
    old = graph_reference.check_admissible(scaffold)
    return sorted(map(repr, new)) == sorted(map(repr, old))


class TestAdmissibleAgainstReference:
    """The X×X compositions plus up-set decompositions report the same
    violations as the pool-wide scan of ``tests/graph_reference.py``."""

    def test_gen_scaffolds_with_members_removed(self):
        rng = random.Random(8)
        inadmissible = 0
        for _ in range(300):
            sc = None
            while sc is None:
                sc = _try_scaffold(rng)
            xs = list(sc.subgraphs)
            for i in sorted(rng.sample(range(len(xs)),
                                       min(len(xs), rng.randrange(4))),
                            reverse=True):
                del xs[i]
            cut = OrderedScaffold(sc.graph, sc.eset, xs, frozenset())
            assert same_violations(cut)
            report = check_admissible(cut)
            assert report == sorted(report, key=part_key)
            inadmissible += bool(report)
        assert inadmissible >= 60

    def test_bigraph_fixture(self):
        sc = _bigraph_fixture().model.scaffold
        assert same_violations(sc) and check_admissible(sc) == []
        for i in range(len(sc.subgraphs)):
            xs = sc.subgraphs[:i] + sc.subgraphs[i + 1:]
            assert same_violations(
                OrderedScaffold(sc.graph, sc.eset, xs, frozenset()))

    @pytest.mark.parametrize("members", [
        [(0, 13)], [(0, 13), (0, 0)], [(0, 13), (0, 1)], [(0, 5)],
        # v00..v05 in X; v06..v13 enters the pool as a part of v05..v13,
        # so the 14-vertex member's split between them is reported.
        [(0, 13), (0, 5), (5, 13)], [(0, 13), (0, 5), (6, 13)],
        [(0, 13), (0, 5), (5, 13), (6, 13), (5, 5)],
        # The single vertex v00 is in the pool without being in X.
        [(0, 13), (1, 13)], [(0, 13), (1, 13), (0, 0)],
    ])
    def test_members_above_twelve_vertices(self, members):
        for eset_too in (True, False):
            assert same_violations(chain_scaffold(14, members, eset_too))

    def test_split_of_a_large_member_into_pool_parts(self):
        report = check_admissible(chain_scaffold(14, [(0, 13), (0, 5),
                                                      (5, 13)]))
        assert any(v["left"]["vertices"] == [f"v{i:02d}" for i in range(6)]
                   and len(v["composition"]["vertices"]) == 14
                   for v in report)

    def test_decompositions_equal_brute_force(self):
        rng = random.Random(11)
        found = 0
        for _ in range(400):
            names = [f"x{i}" for i in range(rng.randrange(2, 9))]
            edges = frozenset((a, b) for a in names for b in names
                              if rng.random() < 0.3)
            eset = frozenset(e for e in sorted(edges) if rng.random() < 0.6)
            graph = DirectedGraph(frozenset(names), edges)
            vs = frozenset(v for v in names if rng.random() < 0.8)
            member = Subgraph(vs, frozenset(
                e for e in sorted(edges)
                if e[0] in vs and e[1] in vs and rng.random() < 0.7), graph)
            masks = GraphMasks(graph, eset)
            fast = {(masks.subgraph(h), masks.subgraph(k))
                    for h, k in masks.decompositions(masks.part(member))}
            slow = set(graph_reference.all_decompositions(member, eset))
            assert fast == slow
            found += bool(slow)
        assert found >= 100


class TestPersistence:
    def test_valid_chain(self):
        h, k, hk, eset = scaffold_hk()
        sc = OrderedScaffold(PARENT, eset, [h, k, hk],
                             frozenset([(0, 1)]))
        model = LayeredGraphModel(sc, {"p": frozenset([0, 1])})
        assert check_persistent(model) == []

    def test_violation_reported(self):
        h, k, hk, eset = scaffold_hk()
        sc = OrderedScaffold(PARENT, eset, [h, k, hk],
                             frozenset([(0, 1)]))
        model = LayeredGraphModel(sc, {"p": frozenset([0])})
        assert ("p", 0, 1) in check_persistent(model)

    def test_empty_valuation(self):
        h, k, hk, eset = scaffold_hk()
        sc = OrderedScaffold(PARENT, eset, [h, k, hk], frozenset([(0, 1)]))
        assert check_persistent(LayeredGraphModel(sc, {})) == []


class TestSatisfaction:
    def model(self):
        h, k, hk, eset = scaffold_hk()
        sc = OrderedScaffold(PARENT, eset, [h, k, hk], frozenset())
        return LayeredGraphModel(sc, {"p": frozenset([0]),
                                      "q": frozenset([1])})

    def test_top_bot(self):
        m = self.model()
        for w in range(3):
            assert satisfies(m, w, parse("top"))
            assert not satisfies(m, w, parse("bot"))

    def test_layer_conj_at_composition(self):
        # world 2 is H@K, p holds at H and q at K
        assert satisfies(self.model(), 2, parse("p |> q"))
        assert not satisfies(self.model(), 2, parse("q |> p"))

    def test_layer_conj_needs_decomposition(self):
        single = Subgraph(frozenset(["1"]), frozenset(), PARENT)
        sc = OrderedScaffold(PARENT, frozenset(), [single], frozenset())
        m = LayeredGraphModel(sc, {"p": frozenset([0]),
                                   "q": frozenset([0])})
        assert not satisfies(m, 0, parse("p |> q"))

    def test_unknown_atom_is_empty(self):
        assert not satisfies(self.model(), 0, parse("zzz"))

    def test_valid_in_model(self):
        m = self.model()
        assert valid_in_model(m, parse("top"))
        assert valid_in_model(m, parse("p -> p"))
        assert not valid_in_model(m, parse("p"))

    def test_residuation_bridge(self):
        # p -|> q at H says: composing H (raised) with p-stuff yields q.
        h, k, hk, eset = scaffold_hk()
        sc = OrderedScaffold(PARENT, eset, [h, k, hk], frozenset())
        m = LayeredGraphModel(sc, {"p": frozenset([1]),
                                   "q": frozenset([2])})
        assert satisfies(m, 0, parse("p -|> q"))
        m2 = LayeredGraphModel(sc, {"p": frozenset([1])})
        assert not satisfies(m2, 0, parse("p -|> q"))
        # p <|- q at K says: p-stuff composed with K (raised) yields q.
        m3 = LayeredGraphModel(sc, {"p": frozenset([0]),
                                    "q": frozenset([2])})
        assert satisfies(m3, 1, parse("p <|- q"))
        m4 = LayeredGraphModel(sc, {"p": frozenset([0])})
        assert not satisfies(m4, 1, parse("p <|- q"))


class TestPersistenceLemma:
    def test_random_sweep(self):
        rng = random.Random(99)
        for _ in range(150):
            model = random_graph_model(rng)
            f = random_formula(rng, 3)
            n = model.world_count()
            for a in range(n):
                if not satisfies(model, a, f):
                    continue
                for b in range(n):
                    if model.scaffold.leq(a, b):
                        assert satisfies(model, b, f)


class TestModelJson:
    def test_round_trip(self):
        rng = random.Random(4)
        for _ in range(20):
            model = random_graph_model(rng)
            data = json.loads(json.dumps(model_to_dict(model)))
            back = model_from_dict(data)
            assert model_to_dict(back) == model_to_dict(model)
            assert validate_model(back) == []

    def test_order_generators_closed(self):
        h, k, hk, eset = scaffold_hk()
        data = {
            "vertices": sorted(PARENT.vertices),
            "edges": sorted(map(list, PARENT.edges)),
            "eset": sorted(map(list, eset)),
            "X": [{"vertices": sorted(s.vertices),
                   "edges": sorted(map(list, s.edges))}
                  for s in (h, k, hk)],
            "order": [[0, 1], [1, 2]],
            "valuation": {},
        }
        model = model_from_dict(data)
        assert model.scaffold.leq(0, 2)  # transitive
        assert model.scaffold.leq(0, 0)  # reflexive

    def test_bad_valuation_rejected(self):
        h, k, hk, eset = scaffold_hk()
        data = model_to_dict(LayeredGraphModel(
            OrderedScaffold(PARENT, eset, [h, k, hk], frozenset()), {}))
        data["valuation"] = {"p": [7]}
        with pytest.raises(ValueError):
            model_from_dict(data)
