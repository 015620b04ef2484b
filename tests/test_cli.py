import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from hilbert_corpus import corpus, mutated

from ilgl import algebra as algmod
from ilgl import crosscheck, files, tableaux
from ilgl import relational as relmod
from ilgl.algebra import algebra_to_dict, complex_algebra
from ilgl.cli import main
from ilgl.crosscheck import SUITES
from ilgl.graph import load_model, satisfies
from ilgl.formula import MAX_DEPTH, parse, render, subformulas
from ilgl.gen import random_formula
from ilgl.hilbert import derivation_to_dict
from ilgl.predicate import resource_model_to_dict
from ilgl.relational import IntLayeredFrame, RelationalModel, frame_to_dict

FIGURE = "q <|- (q |> (p -> (p | q)))"
REFUTABLE = "(p |> q) -> (q |> p)"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def cli_env(**extra) -> dict:
    """The environment for ``python -m ilgl.cli`` run from a test: the
    package sources come first on the module path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out)


class TestProveCommand:
    def test_proved_exit_zero(self, capsys):
        code, body = run_json(capsys, "prove", FIGURE)
        assert code == 0
        assert body["status"] == "proved"

    def test_countermodel_exit_one_and_certified_file(self, capsys,
                                                      tmp_path):
        target = tmp_path / "cm.json"
        code, body = run_json(capsys, "prove", REFUTABLE,
                              "--emit-countermodel", str(target))
        assert code == 1
        assert body["status"] == "countermodel"
        data = json.loads(target.read_text())
        assert "label_map" in data and data["label_map"]["c0"] == 0
        model = load_model(str(target))
        root = data["label_map"]["c0"]
        assert not satisfies(model, root, parse(REFUTABLE))

    def test_syntax_error_exit_two(self, capsys):
        code, _ = run(capsys, "prove", "p |> q |> r")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--max-labels", "-1"), ("--max-steps", "-5"), ("--timeout", "-1")])
    def test_negative_budget_exit_two(self, capsys, flag, value):
        code, body = run_json(capsys, "prove", "p -> p", flag, value)
        assert code == 2 and body["status"] == "error"
        assert flag in body["payload"]["message"]

    def test_unknown_exit_three(self, capsys):
        code, body = run_json(capsys, "prove", "((p -> bot) -> bot) -> p",
                              "--max-steps", "40")
        assert code == 3
        assert body["status"] == "unknown"

    def test_trace_records(self, capsys):
        code, body = run_json(capsys, "prove", FIGURE, "--trace")
        rules = [rec["rule"] for rec in body["payload"]["trace"]]
        assert rules == ["F<|-", "F|>", "F->", "F|"]

    def test_json_deterministic(self, capsys):
        _, first = run(capsys, "--json", "prove", FIGURE, "--trace")
        _, second = run(capsys, "--json", "prove", FIGURE, "--trace")
        assert first == second

    def test_trace_as_text(self, capsys):
        code, out = run(capsys, "prove", "--trace", "p -> p")
        assert code == 0
        assert "  [0] branch 1 F-> on F p -> p : c0\n" in out
        assert "trace:" not in out

    @pytest.mark.parametrize("valuation, message", [
        # Without atoms p -> q holds at the root.
        (lambda root: {}, "fails to falsify the formula at the root world"),
        # p at the root only is lost going up to the F-> witness.
        (lambda root: {"p": frozenset({root})}, "extracted model invalid")])
    def test_bad_countermodel_refused(self, capsys, tmp_path, monkeypatch,
                                      valuation, message):
        extract = tableaux.extract_model

        def corrupted(css):
            model, label_map = extract(css)
            return (dataclasses.replace(
                model, valuation=valuation(label_map[(0,)])), label_map)

        monkeypatch.setattr(tableaux, "extract_model", corrupted)
        with pytest.raises(RuntimeError, match=message):
            tableaux.prove(parse("p -> q"))
        target = tmp_path / "cm.json"
        code, _ = run(capsys, "--json", "prove", "p -> q",
                      "--emit-countermodel", str(target))
        assert code == 4 and not target.exists()

    def test_dot_output(self, capsys, tmp_path):
        target = tmp_path / "cm.dot"
        code, _ = run_json(capsys, "prove", REFUTABLE, "--dot", str(target))
        text = target.read_text()
        assert text.startswith("digraph")
        assert "->" in text


class TestCheckCommand:
    def model_file(self, tmp_path):
        path = tmp_path / "model.json"
        code, body = main(["prove", REFUTABLE, "--emit-countermodel",
                           str(path)]), None
        assert code == 1
        return str(path)

    def test_sat_unsat(self, capsys, tmp_path):
        path = self.model_file(tmp_path)
        capsys.readouterr()
        code, _ = run(capsys, "check", path, "top")
        assert code == 0
        code, _ = run(capsys, "check", path, REFUTABLE, "--world", "0")
        assert code == 1

    def test_validity_over_all_worlds(self, capsys, tmp_path):
        path = self.model_file(tmp_path)
        capsys.readouterr()
        code, body = run_json(capsys, "check", path, "p -> p")
        assert code == 0 and body["status"] == "valid"
        code, body = run_json(capsys, "check", path, REFUTABLE)
        assert code == 1 and body["status"] == "invalid"

    def test_invalid_model_exit_two(self, capsys, tmp_path):
        path = self.model_file(tmp_path)
        data = json.loads(open(path).read())
        dropped = len(data["X"]) - 1  # the composition world
        data["X"] = data["X"][:dropped]
        data["order"] = [[i, j] for i, j in data["order"]
                         if i < dropped and j < dropped]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        code, body = run_json(capsys, "check", str(bad), "top")
        assert code == 2
        assert body["payload"]["violations"]

    def test_predicate_dispatch(self, capsys, tmp_path):
        from test_predicate import composed_bigraphs
        rm = composed_bigraphs()
        path = tmp_path / "rm.json"
        path.write_text(json.dumps(resource_model_to_dict(rm)))
        code, body = run_json(capsys, "check", str(path),
                              "exists s. Contains(s)", "--world", "0")
        assert code == 0 and body["status"] == "sat"
        code, body = run_json(capsys, "check", str(path),
                              "forall s. Contains(s)", "--world", "0")
        assert code == 1 and body["status"] == "unsat"

    def test_world_out_of_range_exit_two(self, capsys, tmp_path):
        path = self.model_file(tmp_path)
        capsys.readouterr()
        for world in ("99", "-1"):
            code, body = run_json(capsys, "check", path, REFUTABLE,
                                  "--world", world)
            assert code == 2 and body["status"] == "error", world

    def test_mistyped_model_exit_two(self, capsys, tmp_path):
        path = self.model_file(tmp_path)
        capsys.readouterr()
        for field, value in (("vertices", 5), ("valuation", [1])):
            data = json.loads(open(path).read())
            data[field] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(data))
            code, body = run_json(capsys, "check", str(bad), "top")
            assert code == 2 and body["status"] == "error", field

    def test_bad_predicate_formula_exit_two(self, capsys, tmp_path):
        from test_predicate import composed_bigraphs
        path = tmp_path / "rm.json"
        path.write_text(json.dumps(resource_model_to_dict(
            composed_bigraphs())))
        for text in ("exists s. Contains(s", "exists s. p",
                     "forall s. Contains(s) & exists t. Contains(t)"):
            code, body = run_json(capsys, "check", str(path), text)
            assert code == 2 and body["status"] == "error", text

    def test_predicate_needs_resource_model(self, capsys, tmp_path):
        path = self.model_file(tmp_path)
        capsys.readouterr()
        code, _ = run(capsys, "check", path, "exists s. Contains(s)")
        assert code == 2

    def test_free_variables_rejected(self, capsys, tmp_path):
        from test_predicate import composed_bigraphs
        path = tmp_path / "rm.json"
        path.write_text(json.dumps(resource_model_to_dict(
            composed_bigraphs())))
        code, _ = run(capsys, "check", str(path), "Contains(r1)")
        assert code == 2

    def test_renamed_binder_captures_no_free_name(self, capsys, tmp_path):
        from test_predicate import composed_bigraphs
        path = tmp_path / "rm.json"
        path.write_text(json.dumps(resource_model_to_dict(
            composed_bigraphs())))
        for text in ("exists s. (exists s. Contains(s_1))",
                     "exists s. (exists t. Contains(s_1))"):
            code, body = run_json(capsys, "check", str(path), text)
            assert code == 2 and body["status"] == "error", text
            assert ("free resources ['s_1']"
                    in body["payload"]["message"]), text

    def frame_file(self, tmp_path, valuation):
        """A two-world frame, 0 <= 1, with one triple."""
        frame = IntLayeredFrame(2, frozenset([(0, 0), (1, 1), (0, 1)]),
                                frozenset([(0, 0, 1)]))
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(frame_to_dict(
            RelationalModel(frame, valuation))))
        return str(path)

    @pytest.mark.parametrize("formula, world, code, status", [
        ("p", "1", 0, "sat"), ("p", "0", 1, "unsat"),
        ("p -> p", None, 0, "valid"), ("p", None, 1, "invalid"),
        ("q |> q", "1", 0, "sat"), ("q |> q", "0", 1, "unsat")])
    def test_frame(self, capsys, tmp_path, formula, world, code, status):
        path = self.frame_file(tmp_path, {"p": {1}, "q": {0, 1}})
        argv = ["check", path, formula] + (["--world", world] if world
                                           else [])
        got, body = run_json(capsys, *argv)
        assert (got, body["status"]) == (code, status)

    def test_frame_world_out_of_range_exit_two(self, capsys, tmp_path):
        path = self.frame_file(tmp_path, {"p": {1}})
        for world in ("2", "-1"):
            code, body = run_json(capsys, "check", path, "p",
                                  "--world", world)
            assert code == 2 and body["status"] == "error", world
            assert "frame's worlds 0..1" in body["payload"]["message"]

    def test_invalid_frame_exit_two(self, capsys, tmp_path):
        path = self.frame_file(tmp_path, {"p": {0}})  # not persistent
        code, body = run_json(capsys, "check", path, "top")
        assert code == 2
        assert body["payload"]["message"] == "frame file fails validation"
        assert body["payload"]["violations"]

    def test_predicate_formula_on_frame_exit_two(self, capsys, tmp_path):
        path = self.frame_file(tmp_path, {"p": {1}})
        code, body = run_json(capsys, "check", path,
                              "exists s. Contains(s)")
        assert code == 2 and body["status"] == "error"


def nested_conjunction(depth):
    """``p & (p & (... (p)))``: ``depth`` levels of tree and, with one
    outer pair, ``depth`` levels of parentheses."""
    inner = "p"
    for _ in range(depth - 1):
        inner = f"p & ({inner})"
    return "(" + inner + ")"


TOO_DEEP = ["(" * 300 + "p" + ")" * 300, "~" * 1000 + "p",
            " -> ".join(["p"] * 1000), nested_conjunction(MAX_DEPTH + 1),
            "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1)]


class TestDeepFormulas:
    def test_prove_rejects_too_deep(self, capsys):
        for text in TOO_DEEP:
            code, body = run_json(capsys, "prove", text)
            assert code == 2 and body["status"] == "error", text[:20]
            assert "nested deeper" in body["payload"]["message"]

    def test_check_rejects_too_deep(self, capsys, tmp_path):
        path = TestCheckCommand().model_file(tmp_path)
        capsys.readouterr()
        for text in TOO_DEEP:
            code, body = run_json(capsys, "check", path, text)
            assert code == 2 and body["status"] == "error", text[:20]
            assert "nested deeper" in body["payload"]["message"]

    def test_predicate_check_rejects_too_deep(self, capsys, tmp_path):
        from test_predicate import composed_bigraphs
        path = tmp_path / "rm.json"
        path.write_text(json.dumps(resource_model_to_dict(
            composed_bigraphs())))
        for text in ("exists s. " * 300 + "Contains(s)",
                     "(" * 300 + "exists s. Contains(s)" + ")" * 300):
            code, body = run_json(capsys, "check", str(path), text)
            assert code == 2 and body["status"] == "error", text[:20]
            assert "nested deeper" in body["payload"]["message"]

    def test_predicate_check_rejects_deep_quantified_chain(self, capsys,
                                                           tmp_path):
        from test_predicate import DEEP_QUANTIFIED, composed_bigraphs
        path = tmp_path / "rm.json"
        path.write_text(json.dumps(resource_model_to_dict(
            composed_bigraphs())))
        code, body = run_json(capsys, "check", str(path), DEEP_QUANTIFIED)
        assert code == 2 and body["status"] == "error"
        assert "nested deeper" in body["payload"]["message"]
        assert "Traceback" not in capsys.readouterr().err

    def test_at_the_limit_runs(self, capsys, tmp_path):
        path = TestCheckCommand().model_file(tmp_path)
        capsys.readouterr()
        text = nested_conjunction(MAX_DEPTH)
        code, body = run_json(capsys, "prove", text, "--trace")
        assert code == 1 and body["status"] == "countermodel"
        for text in (nested_conjunction(MAX_DEPTH),
                     "~" * (MAX_DEPTH - 1) + "p",
                     " -> ".join(["p"] * MAX_DEPTH)):
            code, body = run_json(capsys, "check", path, text)
            assert code in (0, 1) and body["status"] in ("valid", "invalid")

    def test_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ilgl.cli", "prove", TOO_DEEP[0]],
            capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr + proc.stdout


class TestValidateCommand:
    def test_model_ok(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        main(["prove", REFUTABLE, "--emit-countermodel", str(path)])
        capsys.readouterr()
        code, body = run_json(capsys, "validate", str(path))
        assert code == 0 and body["status"] == "ok"

    def test_frame_and_algebra_detection(self, capsys, tmp_path):
        frame = IntLayeredFrame(2, frozenset([(0, 0), (1, 1)]),
                                frozenset([(0, 1, 0)]))
        fpath = tmp_path / "frame.json"
        fpath.write_text(json.dumps(frame_to_dict(
            RelationalModel(frame, {}))))
        code, body = run_json(capsys, "validate", str(fpath))
        assert code == 0 and body["payload"]["kind"] == "frame"
        apath = tmp_path / "alg.json"
        apath.write_text(json.dumps(algebra_to_dict(complex_algebra(frame))))
        code, body = run_json(capsys, "validate", str(apath))
        assert code == 0 and body["payload"]["kind"] == "algebra"

    def test_mistyped_model_exit_two(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        main(["prove", REFUTABLE, "--emit-countermodel", str(path)])
        good = path.read_text()
        capsys.readouterr()
        for field, value in (("vertices", 5), ("valuation", [1])):
            data = json.loads(good)
            data[field] = value
            path.write_text(json.dumps(data))
            code, body = run_json(capsys, "validate", str(path))
            assert code == 2 and body["status"] == "error", field

    def test_violations_exit_two(self, capsys, tmp_path):
        apath = tmp_path / "bad_alg.json"
        frame = IntLayeredFrame(1, frozenset([(0, 0)]), frozenset())
        alg = complex_algebra(frame)
        data = algebra_to_dict(alg)
        data["lconj"] = [[1, 1], [1, 1]]
        apath.write_text(json.dumps(data))
        code, body = run_json(capsys, "validate", str(apath))
        assert code == 2 and body["status"] == "violations"


class TestAlgebraCommand:
    def test_complex_then_embed_then_fep(self, capsys, tmp_path):
        frame = IntLayeredFrame(2, frozenset([(0, 0), (1, 1)]),
                                frozenset([(0, 1, 1)]))
        fpath = tmp_path / "frame.json"
        fpath.write_text(json.dumps(frame_to_dict(
            RelationalModel(frame, {}))))
        apath = tmp_path / "alg.json"
        code, body = run_json(capsys, "algebra", "complex", str(fpath),
                              "-o", str(apath))
        assert code == 0 and body["payload"]["size"] == 4
        code, body = run_json(capsys, "algebra", "primefilters", str(apath))
        assert code == 0 and body["payload"]["count"] >= 1
        code, body = run_json(capsys, "algebra", "embed", str(apath))
        assert code == 0 and body["payload"]["report"] == []
        out = tmp_path / "fep.json"
        code, body = run_json(capsys, "algebra", "fep", str(apath),
                              "--subset", "0,1", "-o", str(out))
        assert code == 0 and body["payload"]["report"] == []
        assert json.loads(out.read_text())["size"] >= 2

    def test_too_many_upsets_exit_two(self, capsys, tmp_path):
        # Ten chains of seven worlds: 8^10 up-sets, far past the bound.
        order = [[7 * c + i, 7 * c + j] for c in range(10)
                 for i in range(7) for j in range(i, 7)]
        fpath = tmp_path / "chains.json"
        fpath.write_text(json.dumps({"worlds": 70, "order": order,
                                     "rel": []}))
        start = time.monotonic()
        code, body = run_json(capsys, "algebra", "complex", str(fpath))
        assert code == 2 and "up-sets" in body["payload"]["message"]
        assert time.monotonic() - start < 5.0

    def test_complex_on_invalid_frame_exit_two(self, capsys, tmp_path):
        fpath = tmp_path / "frame.json"
        fpath.write_text(json.dumps({"worlds": 2, "order": [],
                                     "rel": [[0, 0, 5]], "valuation": {}}))
        code, body = run_json(capsys, "algebra", "complex", str(fpath))
        assert code == 2 and body["status"] == "error"
        assert body["payload"]["message"].startswith("invalid frame")


    def test_complex_worlds_not_a_count_exit_two(self, capsys, tmp_path):
        fpath = tmp_path / "frame.json"
        for worlds in ("3", 2.0, True, -1):
            fpath.write_text(json.dumps({"worlds": worlds, "order": [],
                                         "rel": []}))
            code, body = run_json(capsys, "algebra", "complex", str(fpath))
            assert code == 2 and "worlds" in body["payload"]["message"]

    @staticmethod
    def two_chain_file(tmp_path, **changes):
        frame = IntLayeredFrame(2, frozenset([(0, 0), (1, 1), (0, 1)]),
                                frozenset([(0, 0, 1)]))
        data = {**algebra_to_dict(complex_algebra(frame)), **changes}
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_json_list_exit_two(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text('["size"]')
        for argv in (("algebra", "embed"), ("validate",)):
            code, body = run_json(capsys, *argv, str(path))
            assert code == 2 and "JSON object" in body["payload"]["message"]

    def test_out_of_range_entry_exit_two(self, capsys, tmp_path):
        meet = [[0, 0, 0], [0, 9, 1], [0, 1, 2]]
        path = self.two_chain_file(tmp_path, meet=meet)
        for argv in (("algebra", "embed"), ("validate",)):
            code, body = run_json(capsys, *argv, path)
            assert code == 2 and "meet" in body["payload"]["message"]

    def test_fep_subset_outside_algebra_exit_two(self, capsys, tmp_path):
        path = self.two_chain_file(tmp_path)
        code, body = run_json(capsys, "algebra", "fep", path,
                              "--subset", "0,7")
        assert code == 2 and "subset" in body["payload"]["message"]

    def test_primefilters_on_invalid_algebra_exit_two(self, capsys,
                                                      tmp_path):
        path = self.two_chain_file(tmp_path, join=[[0, 0, 0]] * 3)
        code, body = run_json(capsys, "algebra", "primefilters", path)
        assert code == 2 and "invalid algebra" in body["payload"]["message"]


class TestHilbertCommand:
    def test_not_an_object_exit_two(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text("[1]")
        code, body = run_json(capsys, "hilbert", str(path))
        assert code == 2
        assert "not a JSON object" in body["payload"]["message"]

    def test_malformed_premises_named(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({
            "rule": "Ax", "conclusion": {"left": "p", "right": "p"},
            "premises": 5}))
        code, body = run_json(capsys, "hilbert", str(path))
        assert code == 2
        assert "derivation.premises" in body["payload"]["message"]

    def test_nested_field_named_by_path(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({
            "rule": "Ax", "conclusion": {"left": "p", "right": "p"},
            "premises": [{"rule": "Ax", "conclusion": {"left": "p"}}]}))
        code, body = run_json(capsys, "hilbert", str(path))
        assert code == 2
        assert ("derivation.premises[0].conclusion.right"
                in body["payload"]["message"])


class TestCrosscheckCommand:
    def test_ok_suites(self, capsys):
        for suite in ("residuation", "representation", "fep"):
            code, body = run_json(capsys, "crosscheck", suite,
                                  "--seed", "3", "--budget", "10")
            assert code == 0, suite
            assert body["status"] == "ok"

    def test_unknown_suite(self, capsys):
        code, _ = run(capsys, "crosscheck", "nonsense")
        assert code == 2

    def test_zero_budget_runs_nothing(self, capsys):
        for suite in SUITES:
            code, body = run_json(capsys, "crosscheck", suite,
                                  "--budget", "0")
            assert code == 0 and body["status"] == "ok", suite
            counts = {k: v for k, v in body["payload"].items()
                      if k not in ("suite", "seed")}
            assert counts and set(counts.values()) == {0}, suite

    def test_negative_budget_exit_two(self, capsys):
        code, body = run_json(capsys, "crosscheck", "soundness",
                              "--budget", "-3")
        assert code == 2 and body["status"] == "error"
        assert "--budget" in body["payload"]["message"]

    def test_soundness_meets_proofs(self):
        ok, summary, repro = crosscheck.suite_soundness(1, 5)
        assert ok and repro is None and summary["proved"] >= 1

    def test_soundness_violation_shrunk_and_written(self, capsys, tmp_path,
                                                    monkeypatch):
        # An oracle that refutes every formula: the suite's first proof
        # fails, shrunk to a subformula that the prover still proves.
        cex = relmod.rel_valid_upto(parse("p"), 1, 1)
        monkeypatch.setattr(relmod, "rel_valid_upto", lambda *args: cex)
        ok, _, repro = crosscheck.suite_soundness(1, 5)
        assert not ok and repro["suite"] == "soundness"
        assert repro["formula"] == "bot <|- p"
        rng = random.Random(1)
        first = next(f for f in iter(lambda: random_formula(rng, 4), None)
                     if tableaux.prove(f).status == "proved")
        bad = parse(repro["formula"])
        assert bad in subformulas(first) and bad != first
        assert tableaux.prove(bad).status == "proved"
        target = tmp_path / "out.json"
        code, body = run_json(capsys, "crosscheck", "soundness", "--seed",
                              "1", "--budget", "5", "--repro", str(target))
        assert code == 1 and body["status"] == "violations"
        assert body["paths"] == [str(target)]
        assert json.loads(target.read_text()) == repro


def force_failure(monkeypatch, name, forced, suite):
    """Run ``suite`` with ``algebra.<name>`` answering ``forced`` on its
    third call: (repro, arguments of the failing call)."""
    real, calls = getattr(algmod, name), []

    def check(*args):
        calls.append(args)
        return forced if len(calls) == 3 else real(*args)

    monkeypatch.setattr(algmod, name, check)
    ok, summary, repro = crosscheck.run_suite(suite, 5)
    assert not ok and summary == {"checked": 2} and repro["suite"] == suite
    return repro, calls[-1]


def read_back(tmp_path, data, kind):
    """``data`` written as the CLI writes a repro, read as a ``kind``."""
    path = tmp_path / "part.json"
    path.write_text(files.json_text(data))
    return files.read(str(path), kind)[1]


class TestCrosscheckFailures:
    """Each suite's failure path, forced by a monkeypatched property: the
    repro holds the instance that failed, in a file the CLI reads."""

    def test_residuation(self, monkeypatch, tmp_path):
        repro, (alg,) = force_failure(monkeypatch, "validate_algebra",
                                      [{"law": "forced"}], "residuation")
        assert repro["issues"] == [{"law": "forced"}]
        frame = read_back(tmp_path, repro["frame"], "frame").frame
        assert algebra_to_dict(complex_algebra(frame)) == \
            algebra_to_dict(alg)

    def test_representation(self, monkeypatch, tmp_path):
        repro, (alg,) = force_failure(monkeypatch, "representation_embed",
                                      ({}, [{"forced": 1}]), "representation")
        assert repro["report"] == [{"forced": 1}]
        assert repro["size"] == alg.size
        written = read_back(tmp_path, repro["algebra"], "algebra")
        assert algebra_to_dict(written) == algebra_to_dict(alg)

    def test_fep(self, monkeypatch, tmp_path):
        repro, (alg, subset) = force_failure(
            monkeypatch, "fep_complete", (None, {}, [{"forced": 1}]), "fep")
        assert repro["report"] == [{"forced": 1}]
        assert repro["subset"] == subset
        written = read_back(tmp_path, repro["algebra"], "algebra")
        assert algebra_to_dict(written) == algebra_to_dict(alg)

    def test_oracle_agreement(self, monkeypatch, tmp_path):
        repro, (model, f) = force_failure(
            monkeypatch, "algebra_satisfaction_agrees", False,
            "oracle-agreement")
        assert parse(repro["formula"]) is f
        written = read_back(tmp_path, repro["model"], "frame")
        assert frame_to_dict(written) == frame_to_dict(model)

    @pytest.mark.parametrize("semantics, kind", [
        ("graph", "model"), ("relational", "frame"),
        ("predicate", "resource model")])
    def test_persistence(self, monkeypatch, tmp_path, semantics, kind):
        # The evaluators of one semantics answer each instance's formula
        # true exactly at the worlds with another world above them.  The
        # first such instance where that is lost going up fails.
        current = {}
        draw = crosscheck._persistence_instances

        def recorded(seed, budget):
            for instance in draw(seed, budget):
                current[instance[1]] = instance
                yield instance

        def lost(ev):  # the (below, above) pairs, row-major
            return [(a, b) for a in range(ev.n)
                    for b in relmod.bits(ev.up[a])
                    if ev.up[a] != 1 << a and ev.up[b] == 1 << b]

        real = relmod.Evaluator.sat

        def sat(self, w, f, s=frozenset()):
            kind_, _, formula, assignment, _ = current[self]
            if kind_ == semantics and f is formula and s == assignment:
                return self.up[w] != 1 << w
            return real(self, w, f, s)

        monkeypatch.setattr(crosscheck, "_persistence_instances", recorded)
        monkeypatch.setattr(relmod.Evaluator, "sat", sat)
        ok, summary, repro = crosscheck.run_suite("persistence", 3, 20)
        checked = 0
        for kind_, ev, f, s, write in draw(3, 20):
            if kind_ == semantics and lost(ev):
                break
            checked += ev.n ** 2
        a, b = lost(ev)[0]
        assert not ok and summary == {"checked": checked + a * ev.n + b}
        assert repro["semantics"] == semantics
        assert (repro["formula"], repro["below"], repro["above"]) == \
            (render(f), a, b)
        assert repro["model"] == write()["model"]
        written = read_back(tmp_path, repro["model"], kind)
        if semantics != "predicate":
            assert "assignment" not in repro
            return
        vertices = written.model.scaffold.masks.vertices
        assert repro["assignment"] == {
            r: [vertices[j] for j in relmod.bits(m)] for r, m in s}
        assert all(names == sorted(names)
                   for names in repro["assignment"].values())


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ilgl.cli", "--json", "prove", FIGURE],
            capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "proved"

    def test_byte_determinism_across_processes(self):
        cmd = [sys.executable, "-m", "ilgl.cli", "--json", "prove",
               REFUTABLE, "--trace"]
        first = subprocess.run(cmd, capture_output=True, text=True,
                               env=cli_env())
        second = subprocess.run(cmd, capture_output=True, text=True,
                                env=cli_env())
        assert first.returncode == second.returncode == 1
        assert first.stdout == second.stdout

    def test_closed_stdout_keeps_exit_code(self):
        """A reader that is gone before the output is written does not turn
        a proof into exit 1 or print a traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ilgl.cli", "prove", "p -> p",
                 "--trace"], stdout=write_end, stderr=subprocess.PIPE,
                text=True, env=cli_env())
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr

    def test_persistence_suite_ignores_hash_seed(self):
        cmd = [sys.executable, "-m", "ilgl.cli", "--json", "crosscheck",
               "persistence", "--seed", "7", "--budget", "30"]
        outs = {subprocess.run(cmd, capture_output=True,
                               env=cli_env(PYTHONHASHSEED=seed)).stdout
                for seed in ("1", "2", "3")}
        assert len(outs) == 1
        assert json.loads(outs.pop())["status"] == "ok"

    def test_validate_violations_ignore_hash_seed(self, tmp_path):
        # X = {b->c, d->e} on the eset chain a->b->c->d->e: three
        # violations, once listed in set iteration order.
        chain = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "vertices": list("abcde"), "edges": chain, "eset": chain,
            "X": [{"vertices": ["b", "c"], "edges": [["b", "c"]]},
                  {"vertices": ["d", "e"], "edges": [["d", "e"]]}],
            "order": [], "valuation": {}}))
        cmd = [sys.executable, "-m", "ilgl.cli", "--json", "validate",
               str(path)]
        outs = {subprocess.run(cmd, capture_output=True,
                               env=cli_env(PYTHONHASHSEED=seed)).stdout
                for seed in ("1", "2", "3")}
        assert len(outs) == 1
        body = json.loads(outs.pop())
        assert body["payload"]["violation_count"] == 3

    def test_one_parser_per_process(self, capsys, tmp_path):
        """Calls of main in one process give the bytes and exit codes of
        fresh processes: no parser or namespace state leaks between
        them."""
        model = str(tmp_path / "cm.json")
        assert main(["prove", REFUTABLE, "--emit-countermodel", model]) == 1
        capsys.readouterr()
        argvs = [["check", model],
                 ["--json", "check", model, REFUTABLE, "--world", "0"],
                 ["--json", "check", model, REFUTABLE],
                 ["--json", "check", model, "p", "--world", "0"],
                 ["--json", "prove", REFUTABLE]]
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "ilgl.cli", *argv],
                                   capture_output=True, text=True,
                                   env=cli_env())
            assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                        fresh.stderr), argv


# Each case: argv, its exit code, and whether it loads numpy.  Only the
# validity oracle imports numpy; the ``crosscheck soundness`` case, which
# proves a formula and so runs the oracle, is the control that shows the
# test would see it loaded.
NUMPY_CASES = [
    (["prove", "p -> p"], 0, False),
    (["prove", REFUTABLE, "--emit-countermodel", "out.json", "--dot",
      "out.dot"], 1, False),
    (["check", "cm.json", REFUTABLE], 1, False),
    (["check", "cm.json", REFUTABLE, "--world", "0"], 1, False),
    (["check", "rm.json", "exists s. Contains(s)", "--world", "0"], 0,
     False),
    (["check", "frame.json", "p -> p"], 0, False),
    (["validate", "cm.json"], 0, False),
    (["validate", "frame.json"], 0, False),
    (["validate", "alg.json"], 0, False),
    (["hilbert", "deriv.json"], 0, False),
    (["algebra", "complex", "frame.json"], 0, False),
    (["crosscheck", "residuation", "--budget", "1"], 0, False),
    (["algebra", "primefilters", "alg.json"], 0, False),
    (["algebra", "embed", "alg.json"], 0, False),
    (["crosscheck", "soundness", "--seed", "1", "--budget", "5"], 0, True),
]


@pytest.fixture(scope="module")
def numpy_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("numpy")
    golden_inputs(folder)
    assert main(["algebra", "complex", str(folder / "frame.json"), "-o",
                 str(folder / "alg.json")]) == 0
    assert main(["prove", REFUTABLE, "--emit-countermodel",
                 str(folder / "cm.json")]) == 1
    return folder


@pytest.mark.parametrize("argv, code, loads", NUMPY_CASES,
                         ids=[" ".join(c[0][:2]) + f"-{i}"
                              for i, c in enumerate(NUMPY_CASES)])
def test_numpy_only_for_tables(numpy_inputs, argv, code, loads):
    script = ("import sys; from ilgl.cli import main; "
              "code = main(sys.argv[1:]); "
              "print(code, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script, "--json", *argv],
                          capture_output=True, text=True, cwd=numpy_inputs,
                          env=cli_env())
    assert proc.stdout.splitlines()[-1] == f"{code} {loads}", proc.stderr


def golden_inputs(tmp_path):
    """Input files for the golden run, written under ``tmp_path``."""
    from test_predicate import composed_bigraphs

    frame = IntLayeredFrame(2, frozenset([(0, 0), (1, 1), (0, 1)]),
                            frozenset([(0, 0, 1), (1, 1, 1)]))
    chain = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]]
    item = corpus()[5]
    inputs = {
        "frame.json": frame_to_dict(RelationalModel(frame, {"p": {1}})),
        "rm.json": resource_model_to_dict(composed_bigraphs()),
        "inadmissible.json": {
            "vertices": list("abcde"), "edges": chain, "eset": chain,
            "X": [{"vertices": ["b", "c"], "edges": [["b", "c"]]},
                  {"vertices": ["d", "e"], "edges": [["d", "e"]]}],
            "order": [], "valuation": {}},
        "deriv.json": derivation_to_dict(item["derivation"]),
        "bad_deriv.json": derivation_to_dict(mutated(item)),
    }
    for name, data in inputs.items():
        (tmp_path / name).write_text(json.dumps(data))


GOLDEN_ARGVS = [
    ["prove", FIGURE, "--trace"],
    ["prove", REFUTABLE, "--trace", "--emit-countermodel", "cm.json",
     "--dot", "cm.dot"],
    ["prove", "((p -> bot) -> bot) -> p", "--max-steps", "40"],
    ["prove", "p |> q |> r"],
    ["check", "cm.json", REFUTABLE],
    ["check", "cm.json", REFUTABLE, "--world", "0"],
    ["check", "cm.json", "p -> p"],
    ["check", "rm.json", "exists s. Contains(s)", "--world", "0"],
    ["check", "rm.json", "forall s. Contains(s)"],
    ["check", "inadmissible.json", "top"],
    ["check", "missing.json", "top"],
    ["validate", "cm.json"],
    ["validate", "frame.json"],
    ["validate", "rm.json"],
    ["validate", "inadmissible.json"],
    ["algebra", "complex", "frame.json", "-o", "alg.json"],
    ["validate", "alg.json"],
    ["algebra", "primefilters", "alg.json"],
    ["algebra", "embed", "alg.json"],
    ["algebra", "fep", "alg.json", "--subset", "0,1", "-o", "fep.json"],
    ["algebra", "embed", "frame.json"],
    ["hilbert", "deriv.json"],
    ["hilbert", "deriv.json", "--theorem", "p -> p"],
    ["hilbert", "bad_deriv.json"],
    *(["crosscheck", suite, "--seed", "7", "--budget", "3"]
      for suite in ("soundness", "persistence", "residuation",
                    "representation", "fep", "oracle-agreement")),
    ["crosscheck", "nonsense"],
]

# sha256 over every command's argv, exit code and --json stdout, then
# every file the commands wrote.
JSON_BYTES_DIGEST = ("39a06975b174e3739ef6151af9cb1a0c"
                     "0cf95f8554916f48915f426c6a4a6225")


def test_json_bytes_golden(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden_inputs(tmp_path)
    before = {p.name for p in tmp_path.iterdir()}
    digest = hashlib.sha256()
    for argv in GOLDEN_ARGVS:
        code = main(["--json", *argv])
        out = capsys.readouterr().out
        digest.update(f"{argv!r}\0{code}\0{out}\0".encode())
    for path in sorted(tmp_path.iterdir()):
        if path.name not in before:
            digest.update(f"{path.name}\0{path.read_text()}\0".encode())
    assert digest.hexdigest() == JSON_BYTES_DIGEST
