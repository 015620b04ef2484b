"""The benchmark's tracer wraps functions of ``ilgl`` by module and name
(``tableaux.is_closed``, ``tableaux.render``, ``tableaux.extract_model``,
...).  Renaming or removing one of them breaks the benchmark's per-layer
metrics, so this test installs the tracer and takes it off again."""

import os
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
