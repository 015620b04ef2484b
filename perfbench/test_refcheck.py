"""Hand-worked cases for the benchmark's reference checker, input
generators and output checks.  Run with ``python -m pytest perfbench``
from the root of the repository."""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import refcheck  # noqa: E402

P, Q, R = ("atom", "p"), ("atom", "q"), ("atom", "r")


def imp(a, b):
    return ("imp", a, b)


def lc(a, b):
    return ("lc", a, b)


# One layered graph: v0 -> v1 is distinguished, so {v0} @ {v1} is the
# two-vertex graph; three worlds, discrete order.
LAYERED = {
    "vertices": ["v0", "v1"], "edges": [["v0", "v1"]],
    "eset": [["v0", "v1"]],
    "X": [{"vertices": ["v0"], "edges": []},
          {"vertices": ["v1"], "edges": []},
          {"vertices": ["v0", "v1"], "edges": [["v0", "v1"]]}],
    "order": [], "valuation": {"p": [0], "q": [1]},
}


def test_composition_and_layering_clauses():
    m = refcheck.GraphModel(LAYERED)
    assert m.problems() == []
    assert m.frame.triples == [(0, 1, 2)]
    assert m.sat_mask(lc(P, Q)) == 0b100      # only the composite
    assert m.sat_mask(lc(Q, P)) == 0          # layering is not symmetric
    # q -|> p at world 0: 0 @ 1 = 2 with q at 1, but p fails at 2;
    # vacuous at 1 and 2, which compose on the left with nothing.
    assert m.sat_mask(("rimp", Q, P)) == 0b110
    assert m.sat_mask(("rimp", Q, lc(P, Q))) == 0b111
    # p <|- q at world 1: 0 @ 1 = 2 with p at 0, q fails at 2.
    assert m.sat_mask(("limp", P, Q)) == 0b101


def test_implication_follows_the_order():
    frame = refcheck.Frame(2, [(0, 1)], [])
    val = {"p": 0b10, "q": 0b11}
    assert refcheck.sat_mask(frame, val, imp(P, ("bot",))) == 0b00
    assert refcheck.sat_mask(frame, val, imp(Q, P)) == 0b10
    assert refcheck.persistence_problems(frame, {"p": 0b01}) == ["p"]


def test_p_implies_p_is_valid():
    rng = random.Random(3)
    models = [refcheck.GraphModel(LAYERED)] + [
        refcheck.GraphModel(inputs.random_graph_model(rng))
        for _ in range(5)]
    for m in models:
        assert m.problems() == []
        assert m.sat_mask(imp(P, P)) == m.frame.all


def test_admissibility_violation_is_found():
    data = dict(LAYERED, X=LAYERED["X"][1:])  # the composite lost {v0}
    assert any("admissibility" in p
               for p in refcheck.GraphModel(data).problems())


@pytest.mark.parametrize("text, formula", [
    ("(p |> q) -> (q |> p)", imp(lc(P, Q), lc(Q, P))),
    ("(p |> q) -> p", imp(lc(P, Q), P)),
])
def test_prover_countermodels_refute(tmp_path, text, formula):
    path = tmp_path / "cm.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ilgl.cli", "prove", text,
         "--emit-countermodel", str(path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    data = json.loads(path.read_text())
    m = refcheck.GraphModel(data)
    assert m.problems() == []
    root = data["label_map"]["c0"]
    assert not m.sat_mask(formula) >> root & 1


def test_prove_sweep_rejects_a_root_outside_the_countermodel():
    import worker
    f = imp(lc(P, Q), lc(Q, P))
    ops = [{"formula": f, "text": inputs.render(f), "kept_failure": False}]
    work = worker.ProveSweep(worker.import_program(),
                             {"ops": ops, "models": []}, None)
    # LAYERED refutes the formula at the composite, world 2.  It has no
    # world 3, whose bit reads 0 in every satisfaction mask.
    rec = {"status": "countermodel", "certified": True, "model": LAYERED}
    assert work.check([dict(rec, root=2)]) == []
    assert "out of range" in " ".join(work.check([dict(rec, root=3)]))


# A place vertex a, a hub h and a place vertex b: world 0 is {a}, world 1
# the link graph a -> h -> b.  The placement is discrete, so the
# quantifier domain is every subset of {a, b}.
RESOURCE = {
    "vertices": ["a", "b", "h"], "edges": [["a", "h"], ["h", "b"]],
    "eset": [],
    "X": [{"vertices": ["a"], "edges": []},
          {"vertices": ["a", "b", "h"], "edges": [["a", "h"], ["h", "b"]]}],
    "order": [], "valuation": {},
    "placement": [["a", "a"], ["b", "b"]], "resources": [],
}


def test_predicate_clauses_by_hand():
    m = refcheck.ResourceModel(RESOURCE)
    assert m.problems() == []
    assert len(m.domain) == 4
    some = ("exists", "s", ("contains", "s"))
    every = ("forall", "s", ("contains", "s"))
    path = ("exists", "s", ("exists", "t", ("pointsto", "s", "t")))
    out_of = ("forall", "s", imp(("contains", "s"),
                                 ("exists", "t", ("pointsto", "s", "t"))))
    assert m.pred_mask(some) == 0b11
    assert m.pred_mask(every) == 0   # the empty up-set contains nothing
    assert m.pred_mask(path) == 0b10  # a -> h -> b, only in world 1
    assert m.pred_mask(out_of) == 0   # no path leaves b


def test_generated_models_are_admissible():
    rng = random.Random(11)
    for _ in range(6):
        assert refcheck.GraphModel(inputs.random_graph_model(rng)) \
            .problems() == []
    for places, links in ((2, 0), (6, 1), (10, 1)):
        m = refcheck.ResourceModel(
            inputs.random_resource_model(rng, places, links))
        assert m.problems() == []
        assert len(m.domain) == 2 ** (places - 2 * links) * 3 ** links


def test_inputs_do_not_depend_on_the_hash_seed():
    code = ("import random, inputs; rng = random.Random(5); "
            "print(inputs.digest([inputs.random_graph_model(rng), "
            "inputs.random_resource_model(rng, 8, 1), "
            "inputs.random_formula(rng, 5)]))")
    digests = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        digests.add(subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, env=env,
            capture_output=True, text=True, timeout=60, check=True).stdout)
    assert len(digests) == 1
