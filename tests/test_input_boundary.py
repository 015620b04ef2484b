"""The one input boundary: every file the CLI reads goes through
``files.read``, every bad input is an ``InputError``, and ``main`` turns
it into exit 2 without a traceback; any other exception exits 4."""

import contextlib
import io
import json

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
from ilgl.relational import IntLayeredFrame, RelationalModel, frame_to_dict

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
    except InputError:
        pass


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
