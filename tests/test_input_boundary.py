"""The one input boundary: every file the CLI reads goes through
``files.read``, every bad input is an ``InputError``, and ``main`` turns
it into exit 2 without a traceback; any other exception exits 4."""

import contextlib
import io
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilgl import crosscheck, files
from ilgl import graph as graphmod
from ilgl.algebra import algebra_to_dict, complex_algebra
from ilgl.cli import main
from ilgl.formula import InputError, parse
from ilgl.hilbert import Derivation, Sequent, derivation_to_dict
from ilgl.predicate import resource_model_to_dict
from ilgl.relational import (MAX_ALGEBRA_SIZE, MAX_FRAME_WORLDS,
                             IntLayeredFrame, RelationalModel, frame_to_dict)

KINDS = ("algebra", "frame", "model", "resource model", "derivation")
MODEL = {"vertices": ["a", "b"], "edges": [["a", "b"]], "eset": [["a", "b"]],
         "X": [{"vertices": ["a"], "edges": []},
               {"vertices": ["b"], "edges": []},
               {"vertices": ["a", "b"], "edges": [["a", "b"]]}],
         "order": [], "valuation": {"p": [0]}}
FRAME = IntLayeredFrame(2, frozenset([(0, 0), (1, 1), (0, 1)]),
                        frozenset([(0, 0, 1)]))


def deep_derivation(depth: int) -> str:
    node = '{"rule": "Ax", "conclusion": {"left": "p", "right": "p"}, ' \
           '"premises": ['
    return node * depth + "]}" * depth


def run(capsys, tmp_path, content, *argv):
    """Exit code, JSON body and stderr of ``ilgl --json`` on ``argv``,
    with ``{}`` standing for a file holding ``content``."""
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code = main(["--json", *(str(path) if a == "{}" else a for a in argv)])
    out, err = capsys.readouterr()
    return code, json.loads(out), err


INF = "1e400"  # decoded as float infinity
CRASHES = [
    ("[" * 5000, [("check", "{}", "p"), ("validate", "{}"),
                  ("algebra", "complex", "{}"),
                  ("algebra", "primefilters", "{}")]),
    (deep_derivation(495), [("hilbert", "{}")]),
    (deep_derivation(1200), [("hilbert", "{}")]),
    (json.dumps(MODEL).replace('"order": []', f'"order": [[0, {INF}]]'),
     [("check", "{}", "p"), ("validate", "{}")]),
    (json.dumps(MODEL).replace('"p": [0]', f'"p": [{INF}]'),
     [("check", "{}", "p"), ("validate", "{}")]),
    ('{"worlds": 2, "order": [[0, %s]], "rel": []}' % INF,
     [("validate", "{}"), ("algebra", "complex", "{}")]),
    ('{"size": %s}' % INF,
     [("validate", "{}"), ("algebra", "primefilters", "{}"),
      ("algebra", "embed", "{}"), ("algebra", "fep", "{}")]),
    (b'{"X": [\xff]}', [("validate", "{}"), ("check", "{}", "p"),
                        ("hilbert", "{}")]),
]


@pytest.mark.parametrize("content, argvs", CRASHES,
                         ids=["nested-json", "derivation-495",
                              "derivation-1200", "order-overflow",
                              "valuation-overflow", "frame-overflow",
                              "size-overflow", "byte-ff"])
def test_malformed_input_exit_two(capsys, tmp_path, content, argvs):
    for argv in argvs:
        code, body, err = run(capsys, tmp_path, content, *argv)
        assert code == 2 and body["status"] == "error", argv
        assert "input.json" in body["payload"]["message"], argv
        assert "Traceback" not in err, argv


FRAME_TEXT = '{"worlds": 2, "order": [[0, 1]], "rel": [], "valuation": %s}'
MODEL_ARGVS = [("check", "{}", "p"), ("validate", "{}")]
FRAME_ARGVS = [("validate", "{}"), ("algebra", "complex", "{}")]


@pytest.mark.parametrize("content, argvs, world", [
    (FRAME_TEXT % '{"p": [1, 99]}', FRAME_ARGVS, 99),
    (FRAME_TEXT % '{"p": [-1]}', FRAME_ARGVS, -1),
    (json.dumps({**MODEL, "valuation": {"p": [0, 99]}}), MODEL_ARGVS, 99),
    (json.dumps({**MODEL, "valuation": {"p": [-1]}}), MODEL_ARGVS, -1),
], ids=["frame-99", "frame-minus-1", "model-99", "model-minus-1"])
def test_valuation_world_out_of_range_exit_two(capsys, tmp_path, content,
                                               argvs, world):
    for argv in argvs:
        code, body, err = run(capsys, tmp_path, content, *argv)
        assert code == 2 and body["status"] == "error", argv
        message = body["payload"]["message"]
        assert "input.json" in message, argv
        assert f"valuation of 'p' mentions world {world}" in message, argv
        assert "Traceback" not in err, argv


# A world id is a JSON integer: a string, a float or a boolean is refused,
# not read as its characters, truncated or taken for 0 or 1.
MODEL_ID_ARGVS = MODEL_ARGVS + [("check", "{}", "p", "--world", "1")]


@pytest.mark.parametrize("content, argvs, named", [
    (json.dumps({**MODEL, "valuation": {"p": "12"}}), MODEL_ID_ARGVS,
     "valuation of 'p' is '12', not a list"),
    (json.dumps({**MODEL, "valuation": {"p": [0.7]}}), MODEL_ID_ARGVS,
     "valuation of 'p' holds 0.7"),
    (json.dumps({**MODEL, "valuation": {"p": [True]}}), MODEL_ID_ARGVS,
     "valuation of 'p' holds True"),
    (json.dumps({**MODEL, "order": [[0.9, 1]]}), MODEL_ARGVS,
     "order pair [0.9, 1] holds 0.9"),
    (json.dumps({**MODEL, "order": [[0, False]]}), MODEL_ARGVS,
     "order pair [0, False] holds False"),
    (FRAME_TEXT % '{"p": "1"}', FRAME_ARGVS,
     "valuation of 'p' is '1', not a list"),
    (FRAME_TEXT % '{"p": [1.0]}', FRAME_ARGVS, "valuation of 'p' holds 1.0"),
    ('{"worlds": 2, "order": [[0.9, 1]], "rel": []}', FRAME_ARGVS,
     "order pair [0.9, 1] holds 0.9"),
    ('{"worlds": 2, "order": [[0, true]], "rel": []}', FRAME_ARGVS,
     "order pair [0, True] holds True"),
    ('{"worlds": 2, "order": [], "rel": [[0, 1, 1.5]]}', FRAME_ARGVS,
     "relation triple [0, 1, 1.5] holds 1.5"),
], ids=["model-string", "model-float", "model-bool", "model-order-float",
        "model-order-bool", "frame-string", "frame-float",
        "frame-order-float", "frame-order-bool", "frame-rel-float"])
def test_world_id_not_an_integer_exit_two(capsys, tmp_path, content, argvs,
                                          named):
    for argv in argvs:
        code, body, err = run(capsys, tmp_path, content, *argv)
        assert code == 2 and body["status"] == "error", argv
        message = body["payload"]["message"]
        assert "input.json" in message and named in message, argv
        assert "Traceback" not in err, argv


PLACED = {**MODEL, "placement": [["a", "b"]], "resources": []}


def with_member(change: dict) -> dict:
    """MODEL with ``change`` made to its member X[2], a @ b."""
    return {**MODEL, "X": MODEL["X"][:2] + [{**MODEL["X"][2], **change}]}


# The two-element chain: the complex algebra of a one-world frame.
CHAIN = algebra_to_dict(complex_algebra(
    IntLayeredFrame(1, frozenset([(0, 0)]), frozenset())))
ALGEBRA_ARGVS = [("validate", "{}"), ("algebra", "primefilters", "{}")]


# Each list-shaped field is a JSON list; each edge, placement pair and
# order pair a list of two ids, and each relation triple of three; and a
# vertex id a JSON string or integer.  A string is not read as its
# characters, an object as an empty list or its keys, nor true, null or
# 1.5 as the vertex "True", "None" or "1.5".  The vertex ids of a list are
# distinct once read as strings: 5 and "5" are one vertex, and a list
# naming both is refused, not merged; so is a pair listed twice in an
# edge or placement list, [5, "a"] and ["5", "a"] being one pair.  A
# member of X or an eset edge that leaves the graph is named, with the
# least vertex or edge at fault.
SHAPE_ARGVS = [("validate", "{}"), ("check", "{}", "p |> top", "--world",
                                    "2")]
PLACED_ARGVS = [("validate", "{}"), ("check", "{}", "exists s. Contains(s)",
                                     "--world", "0")]


@pytest.mark.parametrize("content, argvs, named", [
    ({**with_member({"edges": ["ab"]}), "edges": ["ab"], "eset": ["ab"]},
     SHAPE_ARGVS, "edge is 'ab', not a list of 2"),
    ({**MODEL, "eset": ["ab"]}, SHAPE_ARGVS,
     "eset edge is 'ab', not a list of 2"),
    (with_member({"edges": ["ab"]}), SHAPE_ARGVS,
     "X[2] edge is 'ab', not a list of 2"),
    ({**MODEL, "placement": ["ab"], "resources": []}, PLACED_ARGVS,
     "placement pair is 'ab', not a list of 2"),
    ({**MODEL, "vertices": "ab"}, SHAPE_ARGVS,
     "vertices is 'ab', not a list"),
    (with_member({"vertices": "ab"}), SHAPE_ARGVS,
     "X[2] vertices is 'ab', not a list"),
    ({**MODEL, "vertices": ["a", "b", True]}, SHAPE_ARGVS,
     "vertices holds True, not a vertex id"),
    ({**MODEL, "vertices": ["a", "b", None]}, SHAPE_ARGVS,
     "vertices holds None, not a vertex id"),
    ({**MODEL, "vertices": ["a", "b", 1.5]}, SHAPE_ARGVS,
     "vertices holds 1.5, not a vertex id"),
    ({**MODEL, "X": {}, "valuation": {}}, [("validate", "{}"),
                                           ("check", "{}", "p")],
     "X is {}, not a list"),
    ({**MODEL, "order": {}}, SHAPE_ARGVS, "order is {}, not a list"),
    ({**MODEL, "valuation": {"p": 0}}, SHAPE_ARGVS,
     "valuation of 'p' is 0, not a list"),
    ({**MODEL, "order": [[0]]}, SHAPE_ARGVS,
     "order pair is [0], not a list of 2"),
    ({"worlds": 2, "order": {}, "rel": []}, FRAME_ARGVS,
     "order is {}, not a list"),
    ({"worlds": 2, "order": [], "rel": {}}, FRAME_ARGVS,
     "rel is {}, not a list"),
    ({"worlds": 2, "order": [], "rel": [[0, 1]]}, FRAME_ARGVS,
     "relation triple is [0, 1], not a list of 3"),
    ({**CHAIN, "meet": 5}, ALGEBRA_ARGVS, "meet is 5, not a list"),
    ({**CHAIN, "leq": None}, ALGEBRA_ARGVS, "leq is None, not a list"),
    ({**CHAIN, "join": [[0, 1], 5]}, ALGEBRA_ARGVS, "join is 5, not a list"),
    ({**CHAIN, "leq": [[1, 1], 5]}, ALGEBRA_ARGVS, "leq is 5, not a list"),
    ({**CHAIN, "meet": {"a": [0, 0], "b": [0, 1]}}, ALGEBRA_ARGVS,
     "meet is {'a': [0, 0], 'b': [0, 1]}, not a list"),
    ({**MODEL, "vertices": ["a", "b", "a"]}, SHAPE_ARGVS,
     "vertices lists vertex 'a' twice"),
    ({**MODEL, "vertices": [5, "5", "a", "b"]}, SHAPE_ARGVS,
     "vertices lists vertex '5' twice"),
    (with_member({"vertices": ["a", "b", "b"]}), SHAPE_ARGVS,
     "X[2] vertices lists vertex 'b' twice"),
    ({**PLACED, "X": [{"vertices": [7, "a", "7"], "edges": []}],
      "vertices": ["a", "b", 7], "valuation": {}}, PLACED_ARGVS,
     "X[0] vertices lists vertex '7' twice"),
    ({**with_member({"edges": [["a", "b"], ["a", "b"]]}),
      "edges": [["a", "b"], ["a", "b"]], "eset": [["a", "b"], ["a", "b"]]},
     SHAPE_ARGVS, "edges lists pair ['a', 'b'] twice"),
    ({**MODEL, "eset": [["a", "b"], ["a", "b"]]}, SHAPE_ARGVS,
     "eset lists pair ['a', 'b'] twice"),
    (with_member({"edges": [["a", "b"], ["a", "b"]]}), SHAPE_ARGVS,
     "X[2] edges lists pair ['a', 'b'] twice"),
    ({**MODEL, "vertices": ["a", "b", 5], "edges": [[5, "a"], ["5", "a"]]},
     SHAPE_ARGVS, "edges lists pair ['5', 'a'] twice"),
    ({**PLACED, "placement": [["a", "b"], ["b", "b"], ["a", "b"]]},
     PLACED_ARGVS, "placement lists pair ['a', 'b'] twice"),
    ({**MODEL, "X": [MODEL["X"][0], {"vertices": ["z", "y"], "edges": []}]},
     SHAPE_ARGVS, "X[1] vertex 'y' is not a vertex of the graph"),
    (with_member({"edges": [["b", "a"]]}), SHAPE_ARGVS,
     "X[2] edge ['b', 'a'] is not an edge of the graph"),
    (with_member({"vertices": ["a"]}), SHAPE_ARGVS,
     "X[2] edge ['a', 'b'] leaves the subgraph"),
    ({**MODEL, "eset": [["b", "a"], ["a", "a"]]}, SHAPE_ARGVS,
     "eset edge ['a', 'a'] is not an edge of the graph"),
    ({**MODEL, "edges": [["a", "z"], ["b", "y"], ["a", "x"]]}, SHAPE_ARGVS,
     "edge ['a', 'x'] leaves the vertex set"),
], ids=["edges-all-strings", "eset-string", "member-edge-string",
        "placement-string", "vertices-string", "member-vertices-string",
        "vertex-true", "vertex-null", "vertex-float", "x-object",
        "order-object", "valuation-integer", "order-pair-short",
        "frame-order-object", "frame-rel-object", "frame-triple-short",
        "meet-number", "leq-null", "join-row-number", "leq-row-number",
        "meet-object", "vertices-twice", "vertices-number-and-string",
        "member-vertices-twice", "placed-member-vertices-twice",
        "edges-twice", "eset-twice", "member-edges-twice",
        "edge-number-and-string", "placement-twice",
        "member-vertex-outside", "member-edge-outside", "member-loose-edge",
        "eset-edge-outside", "edge-outside"])
def test_field_of_wrong_shape_exit_two(capsys, tmp_path, content, argvs,
                                       named):
    for argv in argvs:
        code, body, err = run(capsys, tmp_path, json.dumps(content), *argv)
        assert code == 2 and body["status"] == "error", argv
        message = body["payload"]["message"]
        assert "input.json" in message and named in message, argv
        assert "Traceback" not in err, argv


# Algebra sizes, table entries, top and bot are JSON integers, and leq
# entries only 0, 1, true or false: nothing is truncated, parsed from a
# string or read for its truth value.
@pytest.mark.parametrize("change, named", [
    ({"size": "2"}, "size holds '2', not an integer"),
    ({"size": 2.0}, "size holds 2.0"),
    ({"join": [[0, 1.9], [1, 1]]}, "join holds 1.9, not an integer"),
    ({"meet": [[0, False], [0, 1]]}, "meet holds False"),
    ({"top": "1"}, "top holds '1', not an integer"),
    ({"bot": False}, "bot holds False, not an integer"),
    ({"leq": [[1, 1], [0, "x"]]}, "leq holds 'x': only 0, 1, true or false"),
    ({"leq": [[1, 1], ["0", 1]]}, "leq holds '0'"),
    ({"leq": [[True, 1.0], [0, 1]]}, "leq holds 1.0"),
    ({"leq": [[1, 2], [0, 1]]}, "leq holds 2"),
    ({"size": "2", "leq": [[True, 1.0], [0, "x"]],
      "join": [[0, 1.9], [1, 1]], "top": "1", "bot": False}, "size holds"),
], ids=["size-string", "size-float", "join-float", "meet-bool",
        "top-string", "bot-bool", "leq-string", "leq-zero-string",
        "leq-float", "leq-two", "all"])
def test_algebra_field_not_an_integer_exit_two(capsys, tmp_path, change,
                                               named):
    content = json.dumps({**CHAIN, **change})
    for argv in ALGEBRA_ARGVS:
        code, body, err = run(capsys, tmp_path, content, *argv)
        assert code == 2 and body["status"] == "error", argv
        message = body["payload"]["message"]
        assert "input.json" in message and named in message, argv
        assert "Traceback" not in err, argv


def test_algebra_leq_booleans_accepted(capsys, tmp_path):
    leq = [[x == 1 for x in row] for row in CHAIN["leq"]]
    for argv in ALGEBRA_ARGVS:
        code, body, _ = run(capsys, tmp_path,
                            json.dumps({**CHAIN, "leq": leq}), *argv)
        assert code == 0 and body["status"] == "ok", argv


@pytest.mark.parametrize("content", [
    '{"worlds": 0, "order": [], "rel": []}',
    '{"vertices": [], "edges": [], "eset": [], "X": [], "order": [], '
    '"valuation": {}}'], ids=["frame", "model"])
def test_world_of_zero_world_file_exit_two(capsys, tmp_path, content):
    what = "frame" if "worlds" in content else "model"
    code, body, err = run(capsys, tmp_path, content, "check", "{}", "p",
                          "--world", "0")
    assert code == 2 and body["status"] == "error" and "Traceback" not in err
    assert body["payload"]["message"] == f"world 0: the {what} has no worlds"


@pytest.mark.parametrize("worlds", [10 ** 9, MAX_FRAME_WORLDS + 1])
def test_frame_beyond_world_bound_exit_two(capsys, tmp_path, worlds):
    content = json.dumps({"worlds": worlds, "order": [], "rel": []})
    for argv in FRAME_ARGVS:
        start = time.monotonic()
        code, body, err = run(capsys, tmp_path, content, *argv)
        assert time.monotonic() - start < 1.0, argv
        assert code == 2 and body["status"] == "error", argv
        message = body["payload"]["message"]
        assert "input.json" in message and "frame bound" in message, argv
        assert "Traceback" not in err, argv


@pytest.mark.parametrize("extra", [{}, {"placement": []}],
                         ids=["model", "resource-model"])
def test_model_beyond_world_bound_exit_two(capsys, tmp_path, extra):
    # Single-vertex members without edges: the scaffold would compose all
    # of their pairs.
    n = MAX_FRAME_WORLDS + 1
    names = [f"v{i}" for i in range(n)]
    content = json.dumps({"vertices": names, "edges": [], "eset": [],
                          "X": [{"vertices": [v], "edges": []}
                                for v in names], **extra})
    for argv in MODEL_ARGVS:
        start = time.monotonic()
        code, body, err = run(capsys, tmp_path, content, *argv)
        assert time.monotonic() - start < 1.0, argv
        assert code == 2 and body["status"] == "error", argv
        message = body["payload"]["message"]
        assert "input.json" in message and "frame bound" in message, argv
        assert "Traceback" not in err, argv


def test_chain_frame_at_world_bound_validates(capsys, tmp_path):
    n = MAX_FRAME_WORLDS
    content = json.dumps({"worlds": n, "rel": [[0, 0, n - 1]],
                          "order": [[i, i + 1] for i in range(n - 1)],
                          "valuation": {"p": [n - 2, n - 1]}})
    code, body, _ = run(capsys, tmp_path, content, "validate", "{}")
    assert code == 0 and body["status"] == "ok"


def test_file_beyond_size_bound_exit_two(capsys, tmp_path):
    # A 2,000-world chain that lists its full order: about 26 MB, refused
    # before it is decoded.
    n = 2000
    order = ", ".join(f"[{i}, {j}]" for i in range(n) for j in range(i, n))
    content = '{"worlds": %d, "rel": [], "order": [%s]}' % (n, order)
    assert len(content) > files.MAX_FILE_BYTES
    start = time.monotonic()
    code, body, err = run(capsys, tmp_path, content, "validate", "{}")
    assert time.monotonic() - start < 1.0
    assert code == 2 and body["status"] == "error"
    message = body["payload"]["message"]
    assert "input.json" in message and "larger than" in message
    assert "Traceback" not in err


@pytest.mark.parametrize("extra, status", [(0, "ok"), (1, "error")])
def test_file_at_size_bound(capsys, tmp_path, extra, status):
    text = json.dumps(frame_to_dict(RelationalModel(FRAME, {})))
    content = text + " " * (files.MAX_FILE_BYTES - len(text) + extra)
    code, body, _ = run(capsys, tmp_path, content, "validate", "{}")
    assert body["status"] == status and code == (0 if extra == 0 else 2)


def test_full_order_frame_at_world_bound_within_size_bound():
    n = MAX_FRAME_WORLDS
    order = frozenset((i, j) for i in range(n) for j in range(n))
    frame = IntLayeredFrame(n, order, frozenset())
    text = files.json_text(frame_to_dict(RelationalModel(frame, {})))
    assert len(text.encode()) < files.MAX_FILE_BYTES


@pytest.mark.parametrize("output", [False, True])
def test_complex_algebra_beyond_algebra_bound_exit_two(capsys, tmp_path,
                                                       output):
    """A small frame file whose complex algebra would have 512 elements
    is refused before any table is built, with or without an output."""
    content = json.dumps({"worlds": 9, "order": [], "rel": [[0, 0, 0]],
                          "valuation": {}})
    argv = ["algebra", "complex", "{}"]
    if output:
        argv += ["-o", str(tmp_path / "alg.json")]
    start = time.monotonic()
    code, body, err = run(capsys, tmp_path, content, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 2 and body["status"] == "error" and "Traceback" not in err
    assert (body["payload"]["message"]
            == f"512 up-sets exceed the algebra bound {MAX_ALGEBRA_SIZE}")
    assert not (tmp_path / "alg.json").exists()


def test_complex_algebra_of_chain_with_many_triples(capsys, tmp_path):
    """The 256-element complex algebra of a 255-world chain frame with
    1,000 seeded triples is built well within a CPU-time bound."""
    n, rng = 255, random.Random(7)
    rel = [[t // n // n, t // n % n, t % n]
           for t in rng.sample(range(n ** 3), 1000)]
    content = json.dumps({"worlds": n, "rel": rel, "valuation": {},
                          "order": [[i, i + 1] for i in range(n - 1)]})
    start = time.process_time()
    code, body, err = run(capsys, tmp_path, content, "algebra", "complex",
                          "{}", "-o", str(tmp_path / "alg.json"))
    assert time.process_time() - start < 10.0
    assert code == 0 and body["status"] == "ok" and "Traceback" not in err
    kind, alg = files.read(str(tmp_path / "alg.json"), "algebra")
    assert kind == "algebra" and alg.size == 256


def test_algebra_file_beyond_algebra_bound_exit_two(capsys, tmp_path):
    code, body, err = run(capsys, tmp_path, '{"size": 512}', "validate", "{}")
    assert code == 2 and body["status"] == "error" and "Traceback" not in err
    message = body["payload"]["message"]
    assert "input.json" in message
    assert f"size 512 over the algebra bound {MAX_ALGEBRA_SIZE}" in message


@pytest.mark.parametrize("size", [0, -1])
def test_algebra_size_below_one_exit_two(capsys, tmp_path, size):
    # Checked first: size 0 was refused for its top, -1 for its leq table.
    content = json.dumps({**CHAIN, "size": size})
    code, body, err = run(capsys, tmp_path, content, "validate", "{}")
    assert code == 2 and body["status"] == "error" and "Traceback" not in err
    assert (f"input.json: size {size} is below 1, the fewest elements of "
            "an algebra") in body["payload"]["message"]


def test_algebra_at_algebra_bound_fits_file_bound():
    frame = IntLayeredFrame(8, frozenset((i, i) for i in range(8)),
                            frozenset([(0, 1, 2)]))
    alg = complex_algebra(frame)
    assert alg.size == MAX_ALGEBRA_SIZE
    text = files.json_text(algebra_to_dict(alg))
    assert len(text.encode()) < files.MAX_FILE_BYTES


SENTENCE_ARGVS = [("check", "{}", "exists s. Contains(s)", "--world", "0"),
                  ("validate", "{}")]


@pytest.mark.parametrize("placement, vertex", [
    ([[5, "a"]], "5"), ([["zz", "zz"]], "zz")], ids=["number", "unknown"])
def test_placement_vertex_outside_graph_exit_two(capsys, tmp_path,
                                                  placement, vertex):
    # A number among string ids once stopped the sentence check with a
    # TypeError (exit 4), and an unknown vertex was accepted silently.
    content = json.dumps({**PLACED, "placement": placement})
    for argv in SENTENCE_ARGVS:
        code, body, err = run(capsys, tmp_path, content, *argv)
        assert code == 2 and body["status"] == "error", argv
        message = body["payload"]["message"]
        assert "input.json" in message and "Traceback" not in err, argv
        assert f"placement vertex '{vertex}' is not a vertex" in message


@pytest.mark.parametrize("resources, named", [
    ("r1", "resources is 'r1', not a list"),
    ([1, None], "resources holds 1, not a resource name"),
    (["r1", None], "resources holds None, not a resource name"),
], ids=["string", "number", "null"])
def test_resources_not_a_list_of_names_exit_two(capsys, tmp_path, resources,
                                                named):
    content = json.dumps({**PLACED, "resources": resources})
    for argv in SENTENCE_ARGVS:
        code, body, err = run(capsys, tmp_path, content, *argv)
        assert code == 2 and body["status"] == "error", argv
        message = body["payload"]["message"]
        assert "input.json" in message and named in message, argv
        assert "Traceback" not in err, argv


# A valuation key is a name a formula reads as an atom: no other key could
# ever be checked, so it is refused in every kind of file with a valuation.
@pytest.mark.parametrize("key", ["P Q", "top", "", "Contains", "p-q"])
@pytest.mark.parametrize("content", [
    MODEL, PLACED, frame_to_dict(RelationalModel(FRAME, {}))],
    ids=["model", "resource-model", "frame"])
def test_valuation_key_not_an_atom_exit_two(capsys, tmp_path, key, content):
    text = json.dumps({**content, "valuation": {"p": [0], key: [1]}})
    code, body, err = run(capsys, tmp_path, text, "validate", "{}")
    assert code == 2 and body["status"] == "error" and "Traceback" not in err
    assert body["payload"]["message"].endswith(
        f"input.json: valuation key {key!r} is not an atom name")


def test_numeric_placement_vertex_is_a_string_id(capsys, tmp_path):
    # Vertex 5 is written as a number everywhere: it is the vertex "5".
    content = json.dumps(PLACED).replace('"a"', "5")
    for argv, status in zip(SENTENCE_ARGVS, ("sat", "ok")):
        code, body, err = run(capsys, tmp_path, content, *argv)
        assert code == 0 and body["status"] == status, argv


def test_repeated_member_of_x_exit_two(capsys, tmp_path):
    # Before it was refused, "p |> q" was unsat at world 2 and sat at its
    # copy, world 3, and validate accepted the file.
    content = json.dumps({**MODEL, "X": MODEL["X"] + MODEL["X"][2:],
                          "valuation": {"p": [0], "q": [1]}})
    for argv in [("check", "{}", "p |> q", "--world", "2"),
                 ("validate", "{}")]:
        code, body, err = run(capsys, tmp_path, content, *argv)
        assert code == 2 and body["status"] == "error", argv
        assert "input.json: X[2] and X[3] are the same subgraph" in \
            body["payload"]["message"], argv
        assert "Traceback" not in err, argv


def test_missing_field_named(capsys, tmp_path):
    data = algebra_to_dict(complex_algebra(FRAME))
    del data["meet"]
    for argv in (("validate", "{}"), ("algebra", "embed", "{}")):
        code, body, err = run(capsys, tmp_path, json.dumps(data), *argv)
        assert code == 2 and "Traceback" not in err
        assert "missing field 'meet'" in body["payload"]["message"]


def test_too_many_splits_exit_two(capsys, tmp_path):
    # One eset edge among 18 vertices: every other vertex may go to
    # either side, so the member has about 2^17 candidate splits.
    names = [f"v{i:02d}" for i in range(18)]
    edge = [names[:2]]
    member = {"vertices": names, "edges": edge}
    data = {"vertices": names, "edges": edge, "eset": edge, "X": [member],
            "order": [], "valuation": {}}
    code, body, err = run(capsys, tmp_path, json.dumps(data), "validate", "{}")
    assert code == 2 and "Traceback" not in err
    assert "up-sets" in body["payload"]["message"]


def test_wrong_kind_refused(capsys, tmp_path):
    code, body, _ = run(capsys, tmp_path, json.dumps(MODEL),
                        "algebra", "embed", "{}")
    assert code == 2 and "'model'" in body["payload"]["message"]


@pytest.mark.parametrize("argv", [
    ("prove", "p", "--emit-countermodel", "{missing}/x.json"),
    ("prove", "p", "--dot", "{missing}/x.dot"),
    ("algebra", "complex", "{frame}", "-o", "{missing}/a.json"),
])
def test_unwritable_output_exit_two(capsys, tmp_path, argv):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(frame_to_dict(RelationalModel(FRAME, {}))))
    argv = [a.format(missing=tmp_path / "missing", frame=frame)
            for a in argv]
    code = main(["--json", *argv])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    assert "cannot write" in json.loads(out)["payload"]["message"]


def test_output_beyond_size_bound_exit_two(capsys, tmp_path, monkeypatch):
    """The writer refuses a file the reader would refuse, and writes
    nothing; at the bound it writes the file as it did."""
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(frame_to_dict(RelationalModel(FRAME, {}))))
    out = tmp_path / "alg.json"
    text = files.json_text(algebra_to_dict(complex_algebra(FRAME)))
    argv = ["--json", "algebra", "complex", str(frame), "-o", str(out)]
    monkeypatch.setattr(files, "MAX_FILE_BYTES", len(text) - 1)
    code = main(argv)
    message = json.loads(capsys.readouterr().out)["payload"]["message"]
    assert code == 2 and not out.exists()
    assert message == (f"cannot write {out}: larger than {len(text) - 1} "
                       "bytes")
    monkeypatch.setattr(files, "MAX_FILE_BYTES", len(text))
    assert main(argv) == 0 and out.read_text() == text


def test_unwritable_repro_exit_two(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(crosscheck, "run_suite",
                        lambda *args: (False, {}, {"suite": "soundness"}))
    code = main(["--json", "crosscheck", "soundness", "--repro",
                 str(tmp_path / "missing" / "r.json")])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    assert "cannot write" in json.loads(out)["payload"]["message"]


def test_internal_error_exit_four(capsys, tmp_path, monkeypatch):
    def broken(model):
        raise RuntimeError("injected")

    monkeypatch.setattr(graphmod, "validate_model", broken)
    code, body, err = run(capsys, tmp_path, json.dumps(MODEL),
                          "check", "{}", "p")
    assert code == 4 and body["status"] == "error"
    assert "RuntimeError: injected" in body["payload"]["message"]
    assert "Traceback" in err


# -- properties over arbitrary JSON ---------------------------------------

KEYS = ["size", "worlds", "X", "placement", "resources", "rule",
        "vertices", "edges", "eset", "order", "valuation", "rel", "leq",
        "meet", "join", "himp", "lconj", "rres", "lres", "top", "bot",
        "conclusion", "premises", "left", "right", "index"]
# Small integers: a frame of n worlds is built and validated in time
# quadratic in n, so a large world count only measures the machine.
SCALARS = (st.none() | st.booleans() | st.integers(-2, 5)
           | st.sampled_from([float("inf"), float("nan"), 0.5])
           | st.sampled_from(["a", "p", "p -> q", "Ax", "0", ""]))
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5),
    max_leaves=10)
SAMPLES = [
    MODEL,
    resource_model_to_dict(crosscheck._bigraph_fixture()),
    frame_to_dict(RelationalModel(FRAME, {"p": frozenset([1])})),
    algebra_to_dict(complex_algebra(FRAME)),
    derivation_to_dict(Derivation("Ax", Sequent(parse("p"), parse("p")))),
]


def _sites(value, path=()):
    """The path of every value inside a JSON value, its own included."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _sites(inner, path + (key,))


def _replace(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replace(value[path[0]], path[1:], new)
    return copy


SITES = [(sample, path) for sample in SAMPLES for path in _sites(sample)]
MUTANTS = st.builds(lambda site, new: _replace(*site, new),
                    st.sampled_from(SITES),
                    st.sampled_from([float("inf"), float("nan")])
                    | SCALARS | VALUES)
# Of ten files: six a well-formed file with one value replaced, at any
# depth, which reaches the builders' later checks; two an object on the
# recognised keys; one any JSON value; one arbitrary text.
TEXTS = st.integers(0, 9).flatmap(
    lambda i: st.text(max_size=12) if i == 9 else (
        MUTANTS if i < 6
        else st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=8)
        if i < 8 else VALUES).map(json.dumps))


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("docs") / "doc.json"


@settings(max_examples=200)
@given(TEXTS)
def test_reader_raises_only_input_error(doc_path, text):
    doc_path.write_text(text)
    try:
        files.read(str(doc_path), *KINDS)
    except InputError as exc:
        # The builders' own checks name the field; a Python TypeError's
        # text, such as "'int' object is not iterable", names none.
        assert not isinstance(exc.__cause__, TypeError), str(exc)


COMMANDS = [("check", "{}", "p -> p"),
            ("check", "{}", "exists s. Contains(s)", "--world", "0"),
            ("validate", "{}"), ("algebra", "complex", "{}"),
            ("algebra", "primefilters", "{}"), ("algebra", "embed", "{}"),
            ("algebra", "fep", "{}", "--subset", "0,1"), ("hilbert", "{}"),
            ("hilbert", "{}", "--theorem", "p -> p")]


@settings(max_examples=100)
@given(TEXTS, st.sampled_from(COMMANDS))
def test_main_exit_codes(doc_path, text, argv):
    doc_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--json", *(str(doc_path) if a == "{}" else a
                                 for a in argv)])
    # Within the documented 0-4, and a file alone never makes an internal
    # error (4).
    assert code in range(4), err.getvalue()
    assert json.loads(out.getvalue())["status"]
