"""The benchmark's tracer wraps functions of ``ilgl`` by module and name
(``tableaux.is_closed``, ``tableaux.render``, ``tableaux.extract_model``,
...).  Renaming or removing one of them breaks the benchmark's per-layer
metrics, so this test installs the tracer and takes it off again."""

import os
import random
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import worker  # noqa: E402


def test_tracer_wraps_and_unwraps_every_traced_name():
    ilgl = worker.import_program()
    modules = [ilgl.algebra, ilgl.cli, ilgl.formula, ilgl.graph,
               ilgl.predicate, ilgl.relational, ilgl.tableaux]
    before = [dict(vars(m)) for m in modules]
    tr = worker.install_tracer(ilgl)  # AttributeError on a missing name
    try:
        assert {attr for _, attr, _ in tr._patched} >= {
            "prove", "applicable_rules", "is_closed", "expand", "render",
            "extract_model", "validate_model", "satisfies"}
        for module, attr, original in tr._patched:
            assert callable(original), (module.__name__, attr)
            assert getattr(module, attr) is not original
    finally:
        tr.unwrap()
    assert [dict(vars(m)) for m in modules] == before


def test_model_json_equals_model_to_dict():
    # The benchmark writes its models from the scaffold's fields, not
    # through ``graph.model_to_dict``; the two must agree.
    ilgl = worker.import_program()
    from ilgl import gen
    from ilgl.crosscheck import _bigraph_fixture
    from ilgl.formula import parse
    rng = random.Random(5)
    models = [gen.random_graph_model(rng) for _ in range(30)]
    models.append(ilgl.tableaux.prove(parse("(p |> q) -> p")).model)
    models.append(_bigraph_fixture().model)
    for model in models:
        assert worker.model_json(model) == ilgl.graph.model_to_dict(model)
