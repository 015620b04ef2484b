"""The satisfaction clauses against the benchmark's reference checker.

``perfbench/refcheck.py`` is written from the paper's clauses and imports
nothing from ``ilgl``, so agreement with it is evidence that one shared
evaluator cannot give by comparing against itself.  Models, formulas and
sentences come from the benchmark's own seeded generators in
``perfbench/inputs.py``.
"""

import itertools
import os
import random
import subprocess
import sys
import time

from ilgl.algebra import complex_algebra
from ilgl.formula import parse, parse_pred
import graph_reference
from ilgl.graph import (OrderedScaffold, check_admissible, model_evaluator,
                        model_from_dict)
from ilgl.predicate import (pred_satisfies, pred_valid_in_model,
                            resource_evaluator, resource_model_from_dict)
from ilgl.relational import (DEFAULT_REL_CAPS, IntLayeredFrame, closure_pairs,
                             frame_tables)
from oracle_reference import frame_tables_reference, unreduced_chunks

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import inputs  # noqa: E402
import refcheck  # noqa: E402


def test_graph_models_agree_at_every_world():
    rng = random.Random(3)
    worlds = 0
    for i in range(12):
        data = inputs.random_graph_model(rng, members=2 + i % 7)
        ref = refcheck.GraphModel(data)
        ev = model_evaluator(model_from_dict(data))
        for _ in range(6):
            f = inputs.random_formula(rng, 3)
            mask = ref.sat_mask(f)
            g = parse(inputs.render(f))
            for w in range(ev.n):
                assert ev.sat(w, g) == bool(mask >> w & 1), \
                    (i, inputs.render(f), w)
                worlds += 1
    assert worlds > 300


def test_predicate_sentences_agree_at_every_world():
    # Up to the (8, 1) and (10, 1) models, whose 192 and 768 up-sets set
    # the benchmark's tail.
    rng = random.Random(4)
    for places, links in ((2, 0), (3, 1), (4, 1), (6, 1), (8, 1), (10, 1)):
        data = inputs.random_resource_model(rng, places, links)
        ref = refcheck.ResourceModel(data)
        ev = resource_evaluator(resource_model_from_dict(data))
        for quant in ("exists", "forall") * 3:
            f = inputs.random_sentence(rng, quant, places <= 4)
            mask = ref.pred_mask(f)
            g = parse_pred(inputs.render(f))
            for w in range(ev.n):
                assert ev.sat(w, g) == bool(mask >> w & 1), \
                    (places, inputs.render(f), w)


def test_open_predicate_formulas_agree_under_random_assignments():
    # The bodies of nested sentences, free in s or in s and t, under
    # assignments of arbitrary vertex sets, up-sets or not.
    rng = random.Random(19)
    checked = 0
    for places, links in ((2, 0), (4, 1), (6, 1), (10, 1)):
        data = inputs.random_resource_model(rng, places, links)
        ref = refcheck.ResourceModel(data)
        rm = resource_model_from_dict(data)
        vertices = sorted(rm.model.scaffold.graph.vertices)
        for _ in range(4):
            sentence = inputs.random_sentence(
                rng, rng.choice(("exists", "forall")), True)
            for f in (sentence[2], sentence[2][2][2]):
                g = parse_pred(inputs.render(f))
                env = {r: frozenset(rng.sample(vertices, rng.randint(
                    0, len(vertices)))) for r in ("s", "t")}
                mask = ref.pred_mask(f, tuple(sorted(env.items())))
                for w in range(rm.model.world_count()):
                    assert pred_satisfies(rm, env, w, g) == bool(
                        mask >> w & 1), (places, inputs.render(f), env, w)
                    checked += 1
    assert checked > 200


def test_predicate_checks_at_the_placement_cap_within_cpu_bounds():
    # 14 place vertices, no links: 16,384 up-sets.  The bounds are about
    # twice the CPU time of each check (2.0 s and 0.14 s) on the machine
    # that set them; the one-world check is made at the largest world.
    rm = resource_model_from_dict(inputs.random_resource_model(
        random.Random(14), 14, 0))
    subgraphs = rm.model.scaffold.subgraphs
    world = max(range(len(subgraphs)),
                key=lambda w: len(subgraphs[w].vertices))
    start = time.process_time()
    assert pred_valid_in_model(
        rm, parse_pred("forall s. Contains(s) -> Contains(s)"))
    assert time.process_time() - start < 4.0
    start = time.process_time()
    # The reference checker answers False at this world too.
    assert not pred_satisfies(
        rm, {}, world, parse_pred("exists s. Contains(s) |> (s ~> s)"))
    assert time.process_time() - start < 0.3


def test_admissibility_on_resource_models_matches_reference():
    """The benchmark's bigraph resource models, whole and with one member
    removed, give the same violations as the pool-wide reference scan;
    (10, 1) has a 12-vertex link world."""
    rng = random.Random(5)
    inadmissible = 0
    for places, links in ((2, 0), (4, 1), (6, 1), (8, 1), (10, 1)):
        sc = resource_model_from_dict(inputs.random_resource_model(
            rng, places, links)).model.scaffold
        links_at = [i for i, sg in enumerate(sc.subgraphs)
                    if len(sg.vertices) > 1]
        cuts = [sc.subgraphs] + [
            sc.subgraphs[:i] + sc.subgraphs[i + 1:]
            for i in rng.sample(links_at, min(3, len(links_at)))]
        for xs in cuts:
            cut = OrderedScaffold(sc.graph, sc.eset, xs, frozenset())
            new = check_admissible(cut)
            old = graph_reference.check_admissible(cut)
            assert sorted(map(repr, new)) == sorted(map(repr, old))
            inadmissible += bool(new)
        assert check_admissible(sc) == []
    assert inadmissible >= 5


LAYER_TAGS = {"lconj": "lc", "rres": "rimp", "lres": "limp"}


def _algebras(chunks):
    """(frame, ups, layer tables) of every algebra of some table chunks."""
    for entries, tables in chunks:
        for row, (pos, frame, ups) in enumerate(entries):
            yield frame, ups, {name: tables[name][row].tolist()
                               for name in LAYER_TAGS}


def _check_layer_tables(frame, ups, tables):
    ref = refcheck.Frame(frame.worlds, frame.order, frame.rel)
    for name, tag in LAYER_TAGS.items():
        for a, ma in enumerate(ups):
            for b, mb in enumerate(ups):
                assert ups[tables[name][a][b]] == refcheck._connective(
                    ref, tag, ma, mb), (frame, name, a, b)


def test_oracle_layer_tables_agree_with_the_clauses():
    # The oracle folds per-triple numpy tables and the complex algebra
    # reads its tables from bit rows.  The oracle's are checked against
    # the reference clauses here, on the family before its reduction to
    # isomorphism classes: every distinct algebra per preorder up to 3
    # worlds, and a seeded sample of the 4-world cap-1 step and of cap-2
    # preorders, where the complex algebra's must equal them.
    checked = 0
    for n in (1, 2, 3):
        for frame, ups, tables in _algebras(
                unreduced_chunks(n, DEFAULT_REL_CAPS[n])):
            _check_layer_tables(frame, ups, tables)
            checked += 1
    assert checked == 2 + 298 + 5478
    rng = random.Random(5)
    sampled = {p for p in range(355) if rng.random() < 0.1}
    four = [list(unreduced_chunks(4, 1))]
    four += [[chunk] for chunk in unreduced_chunks(4, 2, sampled)]
    for chunks in four:
        algebras = list(_algebras(chunks))
        for frame, ups, tables in rng.sample(algebras,
                                             min(40, len(algebras))):
            _check_layer_tables(frame, ups, tables)
            alg = complex_algebra(frame)
            assert {name: alg.op(name) for name in LAYER_TAGS} == tables
            checked += 1
    assert len(four) > 30 and checked > 5778 + 1000


def _random_frame(rng, n, max_triples):
    pairs = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(0, 2 * n))] if n else []
    triples = list(itertools.product(range(n), repeat=3))
    return IntLayeredFrame(n, frozenset(closure_pairs(pairs, range(n))),
                           frozenset(rng.sample(triples, rng.randint(
                               0, min(max_triples, len(triples))))))


def test_frame_tables_equal_the_numpy_reference():
    # Seeded frames of 0-6 worlds with random preorders, cyclic ones
    # included, and up to 3n^2 triples; then a 70-world chain, above the
    # 64 worlds a machine word holds, with 200 triples.
    rng = random.Random(18)
    cyclic = 0
    for _ in range(2000):
        n = rng.randint(0, 6)
        frame = _random_frame(rng, n, 3 * n * n)
        cyclic += any(i != j and (j, i) in frame.order
                      for i, j in frame.order)
        assert frame_tables(frame) == frame_tables_reference(frame), frame
    assert cyclic > 300
    n = 70
    triples = list(itertools.product(range(n), repeat=3))
    chain = IntLayeredFrame(
        n, frozenset(closure_pairs([(i, i + 1) for i in range(n - 1)],
                                   range(n))),
        frozenset(rng.sample(triples, 200)))
    assert frame_tables(chain) == frame_tables_reference(chain)


def test_benchmark_tracer_finds_every_traced_function():
    # The benchmark's --trace 1 wraps public functions by module and
    # name; a refactor that removes one breaks it.
    code = ("import worker; "
            "worker.install_tracer(worker.import_program()).unwrap()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_tracer_wraps_and_unwraps_in_process():
    # The same guard on the package these tests import: every name the
    # traced run wraps exists, and unwrapping restores each original.
    import importlib

    import ilgl
    import worker
    modules = [importlib.import_module(f"ilgl.{name}") for name in
               ("algebra", "cli", "formula", "graph", "predicate",
                "relational", "tableaux")]
    before = [dict(vars(m)) for m in modules]
    tracer = worker.install_tracer(ilgl)
    assert ilgl.tableaux.prove is not before[-1]["prove"]
    tracer.unwrap()
    for m, names in zip(modules, before):
        assert vars(m).keys() == names.keys()
        assert all(vars(m)[k] is v for k, v in names.items()), m.__name__


def test_traced_sentence_check_reports_every_layer_metric(tmp_path):
    # A sentence check under the installed tracer records its spans, and
    # the per-layer metrics read from them are those BENCHMARK.json names.
    import contextlib
    import io
    import json

    import ilgl
    import worker
    from ilgl.crosscheck import _bigraph_fixture
    from ilgl.predicate import resource_model_to_dict
    path = tmp_path / "rm.json"
    path.write_text(json.dumps(resource_model_to_dict(_bigraph_fixture())))
    tracer = worker.install_tracer(ilgl)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = ilgl.cli.main(["--json", "check", str(path),
                                  "exists s. Contains(s)", "--world", "0"])
    finally:
        tracer.unwrap()
    assert code == 0
    counts = {name: t["count"] for name, t in tracer.totals().items()}
    assert counts["cli.check"] == counts["predicate.pred_satisfies"] == 1
    with open(os.path.join(os.path.dirname(PERFBENCH),
                           "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(worker.layer_metrics(tracer, 1)) == sorted(names)
