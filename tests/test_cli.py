import json
import os
import subprocess
import sys
import time

import pytest

from ilgl.algebra import algebra_to_dict, complex_algebra
from ilgl.cli import main
from ilgl.graph import load_model, satisfies
from ilgl.formula import MAX_DEPTH, parse
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

    def test_negative_budget_exit_two(self, capsys):
        code, body = run_json(capsys, "crosscheck", "soundness",
                              "--budget", "-3")
        assert code == 2 and body["status"] == "error"
        assert "--budget" in body["payload"]["message"]


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
