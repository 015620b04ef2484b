import random

import pytest

from ilgl.graph import (DirectedGraph, LayeredGraphModel, OrderedScaffold,
                        Subgraph, validate_model)
from ilgl.formula import (Bot, Contains, Exists, Forall, Imp, PointsTo,
                          parse_pred)
from ilgl.formula import ParseError as PredParseError
from ilgl.formula import render as render_pred
from ilgl.predicate import (LinkGraphSpec, ResourceModel,
                            build_bigraph_scaffold, enumerate_upsets,
                            free_resources, pred_satisfies,
                            resource_model_from_dict, resource_model_to_dict)
from graph_reference import composition_index
from oracle_reference import check_assignment


def tiny_model():
    """One world: the edge v1 -> v2, discrete placement."""
    g = DirectedGraph(frozenset(["v1", "v2"]), frozenset([("v1", "v2")]))
    world = Subgraph(frozenset(["v1", "v2"]),
                     frozenset([("v1", "v2")]), g)
    sc = OrderedScaffold(g, frozenset(), [world], frozenset())
    placement = frozenset([("v1", "v1"), ("v2", "v2")])
    return ResourceModel(LayeredGraphModel(sc, {}), placement,
                         frozenset(["r", "r2"]))


# 60 quantifiers over a chain of 50 atoms: the parser nests 60 levels, and
# the formula's height counts the chain below the quantifiers too.
DEEP_QUANTIFIED = ("".join(f"forall s{i}. " for i in range(60))
                   + " -> ".join(f"Contains(s{i})" for i in range(50)))


class TestParser:
    def test_contains(self):
        assert parse_pred("Contains(r)") == Contains("r")
        assert parse_pred("~ Contains(r)") == Imp(Contains("r"), Bot())

    def test_points_to(self):
        assert parse_pred("r ~> r2") == PointsTo("r", "r2")

    def test_quantifiers_scope_right(self):
        from ilgl.formula import And as PredAnd
        f = parse_pred("exists r. Contains(r) & r ~> s")
        assert f == Exists("r", PredAnd(Contains("r"), PointsTo("r", "s")))

    def test_shadowing_renamed_apart(self):
        f = parse_pred("forall r. (Contains(r) & (exists r. Contains(r)))")
        assert isinstance(f, Forall)
        inner = f.body.right
        assert isinstance(inner, Exists)
        assert inner.var != f.var
        assert inner.body == Contains(inner.var)

    def test_renamed_binder_is_fresh(self):
        # The inner binder must not take the free name s_1.
        f = parse_pred("exists s. (exists s. Contains(s_1))")
        inner = f.body
        assert isinstance(inner, Exists)
        assert inner.var not in ("s", "s_1")
        assert inner.body == Contains("s_1")
        assert free_resources(f) == {"s_1"}
        g = parse_pred("exists s. (exists s. (Contains(s) & s_1 ~> s_2))")
        assert g.body.var not in ("s", "s_1", "s_2")
        assert free_resources(g) == {"s_1", "s_2"}

    def test_quantified_chain_too_deep(self):
        with pytest.raises(PredParseError,
                           match="nested deeper than 100 levels"):
            parse_pred(DEEP_QUANTIFIED)

    def test_no_propositional_atoms(self):
        with pytest.raises(PredParseError):
            parse_pred("p -> q")

    def test_render_round_trip(self):
        for text in ["Contains(r)", "r ~> r2",
                     "exists r. Contains(r)",
                     "forall r. (Contains(r) -> r ~> r2)",
                     "Contains(r) |> Contains(r2)",
                     "(exists r. Contains(r)) -> (forall r. ~ Contains(r))",
                     "forall r. (Contains(r) & (exists r. Contains(r)))"
                     ] + [t for _, t, _ in TestBigraphTruthTable().cases()[2]]:
            f = parse_pred(text)
            assert parse_pred(render_pred(f)) == f

    def test_free_resources(self):
        f = parse_pred("exists r. (Contains(r) & r ~> r2)")
        assert free_resources(f) == {"r2"}


class TestUpsets:
    def test_discrete_two(self):
        placement = frozenset([("a", "a"), ("b", "b")])
        assert len(list(enumerate_upsets(placement))) == 4

    def test_chain(self):
        placement = frozenset([("lo", "hi"), ("lo", "lo"), ("hi", "hi")])
        ups = set(enumerate_upsets(placement))
        assert ups == {frozenset(), frozenset(["hi"]),
                       frozenset(["lo", "hi"])}

    def test_antichain_powerset(self):
        placement = frozenset((f"x{i}", f"x{i}") for i in range(5))
        assert len(list(enumerate_upsets(placement))) == 2 ** 5

    def test_matches_brute_force_on_random_preorders(self):
        rng = random.Random(11)
        for _ in range(200):
            k = rng.randrange(1, 7)
            names = [f"x{i}" for i in range(k)]
            pairs = {(v, v) for v in names} | {
                (u, v) for u in names for v in names
                if u != v and rng.random() < 0.2}
            # Up-closed under the generating pairs, in ascending bitmask
            # order over the sorted names.
            want = [block for block in (
                frozenset(v for i, v in enumerate(names) if mask >> i & 1)
                for mask in range(2 ** k))
                if all(v in block for u, v in pairs if u in block)]
            assert list(enumerate_upsets(frozenset(pairs))) == want

    def test_cap_enforced(self):
        placement = frozenset((f"x{i}", f"x{i}") for i in range(15))
        with pytest.raises(ValueError):
            list(enumerate_upsets(placement))


class TestBasicClauses:
    def test_points_to_single_edge(self):
        rm = tiny_model()
        s = {"r": frozenset(["v1"]), "r2": frozenset(["v2"])}
        assert check_assignment(rm, s) == []
        assert pred_satisfies(rm, s, 0, PointsTo("r", "r2"))
        assert not pred_satisfies(rm, s, 0, PointsTo("r2", "r"))

    def test_contains_disjoint_false(self):
        rm = tiny_model()
        s = {"r": frozenset()}
        assert not pred_satisfies(rm, s, 0, Contains("r"))

    def test_exists_any_vertex(self):
        rm = tiny_model()
        assert pred_satisfies(rm, {}, 0, Exists("r", Contains("r")))

    def test_unbound_resource(self):
        rm = tiny_model()
        with pytest.raises(KeyError):
            pred_satisfies(rm, {}, 0, Contains("r"))

    def test_path_needs_an_edge(self):
        rm = tiny_model()
        s = {"r": frozenset(["v1"]), "r2": frozenset(["v1"])}
        # v1 to itself without a cycle: no non-empty path
        assert not pred_satisfies(rm, s, 0, PointsTo("r", "r2"))


def composed_bigraphs():
    """The two-bigraph composition fixture.

    Bigraph A: places a1 (root) and a2 (inside a1); one hyperedge over
    {a1, a2, x} with outer name x.  Encoded edges: a1->hA, a2->hA, hA->x.
    Bigraph B: place b1; inner name x_in; one hyperedge over {x_in, b1}
    with b1 as its target.  Encoded edges: x_in->hB, hB->b1.
    Interface: x -> x_in (the distinguished edge set).
    """
    forests = [{"a1": None, "a2": "a1"}, {"b1": None}]
    links = [LinkGraphSpec(nodes=["a1", "a2"], inner=[], outer=["x"],
                           hyperedges=[["a1", "a2", "x"]]),
             LinkGraphSpec(nodes=["b1"], inner=["x_in"], outer=[],
                           hyperedges=[["x_in", "b1"]], targets=["b1"])]
    return build_bigraph_scaffold(forests, links, [("x", "x_in")],
                                  resources=["r1", "r2"])


def world_by_vertices(rm, vertices):
    for i, sg in enumerate(rm.model.scaffold.subgraphs):
        if sg.vertices == frozenset(vertices):
            return i
    raise AssertionError(f"no world {sorted(vertices)}")


class TestBigraphBuilder:
    def test_scaffold_validates(self):
        rm = composed_bigraphs()
        assert validate_model(rm.model) == []

    def test_worlds(self):
        rm = composed_bigraphs()
        assert rm.model.world_count() == 6  # 3 singles + A + B + A@B
        link_a = world_by_vertices(rm, ["a1", "a2", "x", "b0_e0"])
        link_b = world_by_vertices(rm, ["b1", "x_in", "b1_e0"])
        combined = world_by_vertices(
            rm, ["a1", "a2", "x", "b0_e0", "b1", "x_in", "b1_e0"])
        assert composition_index(rm.model.scaffold, link_a, link_b) \
            == combined

    def test_composition_one_direction_only(self):
        rm = composed_bigraphs()
        link_a = world_by_vertices(rm, ["a1", "a2", "x", "b0_e0"])
        link_b = world_by_vertices(rm, ["b1", "x_in", "b1_e0"])
        assert composition_index(rm.model.scaffold, link_b, link_a) is None

    def test_place_order_on_singletons(self):
        rm = composed_bigraphs()
        inner = world_by_vertices(rm, ["a2"])
        outer = world_by_vertices(rm, ["a1"])
        assert rm.model.scaffold.frame.leq(inner, outer)
        assert not rm.model.scaffold.frame.leq(outer, inner)

    def test_hyperedge_three_incident_edges(self):
        rm = composed_bigraphs()
        hub_edges = [e for e in rm.model.scaffold.graph.edges
                     if "b0_e0" in e]
        assert len(hub_edges) == 3

    def test_single_bigraph_no_interfaces(self):
        rm = build_bigraph_scaffold(
            [{"a1": None}],
            [LinkGraphSpec(nodes=["a1"], inner=[], outer=[],
                           hyperedges=[["a1"]])], [])
        assert rm.model.scaffold.eset == frozenset()
        frame_rel = [m for m in rm.model.scaffold._comp.values()
                     if m is not None]
        assert frame_rel == []

    def test_link_world_equal_to_a_place_single_listed_once(self):
        # The one-node link graph {a} is the place single {a}: one world.
        rm = build_bigraph_scaffold(
            [{"a": None}],
            [LinkGraphSpec(nodes=["a"], inner=[], outer=[], hyperedges=[])],
            [])
        sc = rm.model.scaffold
        assert [sorted(sg.vertices) for sg in sc.subgraphs] == [["a"]]
        assert sc.order == frozenset({(0, 0)})
        assert validate_model(rm.model) == []

    def test_name_collision_rejected(self):
        with pytest.raises(ValueError):
            build_bigraph_scaffold(
                [{"a1": None}, {"a1": None}],
                [LinkGraphSpec(nodes=["a1"], inner=[], outer=[],
                               hyperedges=[]),
                 LinkGraphSpec(nodes=["a1"], inner=[], outer=[],
                               hyperedges=[])], [])

    def test_interface_arity_checked(self):
        with pytest.raises(ValueError):
            build_bigraph_scaffold(
                [{"a1": None}],
                [LinkGraphSpec(nodes=["a1"], inner=[], outer=[],
                               hyperedges=[])], [("a1", "a1")])


class TestBigraphTruthTable:
    """Six hand-enumerated cases on the composed fixture.

    With s0 = {r1 -> {a1}, r2 -> {b1}} (both up-closed: a1 and b1 are
    roots).  Worlds named by their vertex sets; A@B is the composed link
    world carrying the full edge chain a1->hA->x->x_in->hB->b1.
    """

    def cases(self):
        rm = composed_bigraphs()
        s0 = {"r1": frozenset(["a1"]), "r2": frozenset(["b1"])}
        assert check_assignment(rm, s0) == []
        w_a1 = world_by_vertices(rm, ["a1"])
        w_a2 = world_by_vertices(rm, ["a2"])
        w_link_a = world_by_vertices(rm, ["a1", "a2", "x", "b0_e0"])
        w_comp = world_by_vertices(
            rm, ["a1", "a2", "x", "b0_e0", "b1", "x_in", "b1_e0"])
        return rm, s0, [
            # 1. a1 is an s(r1)-vertex of the {a1} world.
            (w_a1, "Contains(r1)", True),
            # 2. {a2} has no s(r1)-vertex.
            (w_a2, "Contains(r1)", False),
            # 3. In A@B the chain a1->hA->x->x_in->hB->b1 joins r1 to r2.
            (w_comp, "r1 ~> r2", True),
            # 4. Link graph A does not even contain b1.
            (w_link_a, "r1 ~> r2", False),
            # 5. Witness A = {a1}: contains a vertex of A@B and reaches b1.
            (w_comp, "exists s. (Contains(s) & s ~> r2)", True),
            # 6. A = {b1} contains a vertex of A@B but b1 has no outgoing
            #    edge, so the path conjunct fails: the universal is false.
            (w_comp, "forall s. (Contains(s) -> s ~> r2)", False),
        ]

    def test_hand_enumerated_cases(self):
        rm, s0, cases = self.cases()
        for world, text, expected in cases:
            f = parse_pred(text)
            assert pred_satisfies(rm, s0, world, f) is expected, text


class TestPredicateProperties:
    def test_persistence(self):
        rm = composed_bigraphs()
        upsets = list(enumerate_upsets(rm.placement))
        rng = random.Random(6)
        formulas = [parse_pred(t) for t in
                    ["Contains(r1)", "r1 ~> r2",
                     "Contains(r1) & Contains(r2)",
                     "exists s. (Contains(s) & s ~> r2)",
                     "forall s. (Contains(s) -> Contains(r1))",
                     "Contains(r1) |> Contains(r2)",
                     "Contains(r1) -> Contains(r2)"]]
        n = rm.model.world_count()
        checked = 0
        for _ in range(40):
            s = {"r1": rng.choice(upsets), "r2": rng.choice(upsets)}
            f = rng.choice(formulas)
            for a in range(n):
                if not pred_satisfies(rm, s, a, f):
                    continue
                for b in range(n):
                    if rm.model.scaffold.frame.leq(a, b):
                        assert pred_satisfies(rm, s, b, f)
                        checked += 1
        assert checked > 0

    def test_forall_instance_check(self):
        rm = composed_bigraphs()
        f = parse_pred("forall s. (Contains(s) -> Contains(r1))")
        s0 = {"r1": frozenset(["a1"])}
        for w in range(rm.model.world_count()):
            if pred_satisfies(rm, s0, w, f):
                for block in enumerate_upsets(rm.placement):
                    inst = Imp(Contains("s"), Contains("r1"))
                    assert pred_satisfies(rm, {**s0, "s": block}, w, inst)

    def test_sentences_ignore_unused_assignments(self):
        rm = composed_bigraphs()
        f = parse_pred("exists s. Contains(s)")
        junk = {"zz": frozenset(["a1"])}
        for w in range(rm.model.world_count()):
            assert pred_satisfies(rm, {}, w, f) \
                == pred_satisfies(rm, junk, w, f)


class TestResourceModelJson:
    def test_round_trip(self):
        rm = composed_bigraphs()
        data = resource_model_to_dict(rm)
        back = resource_model_from_dict(data)
        assert resource_model_to_dict(back) == data
        assert ("a2", "a1") in back.placement
