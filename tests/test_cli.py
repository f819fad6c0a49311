import argparse
import collections
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mbqcflow
from mbqcflow import flow
from mbqcflow.cli import build_parser, run_command
from mbqcflow.errors import DeterminismError, FlowConsistencyError
from mbqcflow.fixtures import (
    CATALOG,
    bottleneck_graph,
    cluster_graph,
    cluster_row_flow,
    fig4_depth_one_gflow,
    fig4_graph,
    path_flow,
    path_graph,
)

from conftest import count_product_merges

SHOW_BAD_GRAPH = ["graph", "show", "--graph", "bad.json"]
VERIFY_BAD_GFLOW = ["flow", "verify", "--graph", "g.json", "--gflow", "bad.json"]


@pytest.fixture
def path5_files(tmp_path):
    graph = path_graph(5)
    gflow = path_flow(5)
    pattern = {
        "angles": {str(v): 0.4 + 0.3 * v for v in range(4)},
        "planes": {str(v): "XY" for v in range(4)},
    }
    g = tmp_path / "graph.json"
    f = tmp_path / "gflow.json"
    p = tmp_path / "pattern.json"
    g.write_text(graph.to_json())
    f.write_text(gflow.to_json())
    p.write_text(json.dumps(pattern))
    return str(g), str(f), str(p)


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip() else None
    return code, payload


class TestExitCodes:
    def test_flow_find_success(self, capsys, path5_files):
        g, _, _ = path5_files
        code, payload = run_json(capsys, ["flow", "find", "--graph", g])
        assert code == 0
        assert payload["schema_version"] == 1
        assert payload["gflow"]["g"]["0"] == [1]

    def test_flow_find_domain_negative(self, capsys, tmp_path):
        g = tmp_path / "bn.json"
        g.write_text(bottleneck_graph().to_json())
        code, payload = run_json(capsys, ["flow", "find", "--graph", str(g)])
        assert code == 1
        assert payload == {
            "schema_version": 1,
            "gflow": None,
            "reason": "no gflow",
        }

    @pytest.mark.parametrize("error", [DeterminismError, FlowConsistencyError])
    @pytest.mark.parametrize(
        "command, target",
        [
            ("flow report", "mbqcflow.cli.flow_wires"),
            ("oracle unitary", "mbqcflow.oracle.oracle_unitary"),
        ],
    )
    def test_a_failed_consistency_check_is_domain_error(
        self, capsys, monkeypatch, path5_files, command, target, error
    ):
        def fail(*args, **kwargs):
            raise error("the check failed")

        monkeypatch.setattr(target, fail)
        g, f, p = path5_files
        argv = [*command.split(), "--graph", g, "--gflow", f]
        if command == "oracle unitary":
            argv += ["--pattern", p]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the check failed\n"

    def test_unknown_flag_is_usage_error(self, capsys, path5_files):
        g, _, _ = path5_files
        assert run_command(["flow", "find", "--graph", g, "--bogus"]) == 2

    def test_unknown_command_is_usage_error(self):
        assert run_command(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv,text",
        [
            (SHOW_BAD_GRAPH, "{not json"),
            (SHOW_BAD_GRAPH, '{"n": "3", "edges": []}'),
            (SHOW_BAD_GRAPH, '{"n": 3.0, "edges": []}'),
            (SHOW_BAD_GRAPH, '{"n": true, "edges": []}'),
            (SHOW_BAD_GRAPH, '{"n": 2, "edges": [[0, 1.0]]}'),
            (SHOW_BAD_GRAPH, '{"n": 2, "edges": [], "inputs": "0"}'),
            (VERIFY_BAD_GFLOW, '{"g": {"0": ["1"]}, "layers": [[0], [1]]}'),
        ],
        ids=[
            "not-json",
            "n-string",
            "n-float",
            "n-bool",
            "edge-float",
            "inputs-string",
            "gflow-member-string",
        ],
    )
    def test_malformed_json_is_usage_error(self, tmp_path, monkeypatch, capsys, argv, text):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.json").write_text(path_graph(2).to_json())
        (tmp_path / "bad.json").write_text(text)
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["oracle", "unitary"], ["oracle", "determinism"], ["oracle", "run", "--branch", "00"]],
        ids=["simulate", "oracle-unitary", "oracle-determinism", "oracle-run"],
    )
    def test_angle_on_an_unmeasured_vertex_is_usage_error(self, tmp_path, capsys, command):
        g, f, p = (tmp_path / name for name in ("g.json", "f.json", "p.json"))
        g.write_text(path_graph(3).to_json())
        f.write_text(path_flow(3).to_json())
        p.write_text('{"angles": {"0": 0.3, "1": 0.5, "2": 0.7}}')
        code = run_command([*command, "--graph", str(g), "--gflow", str(f), "--pattern", str(p)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: pattern gives angles to unmeasured vertices [2]\n"

    def test_plane_on_an_unmeasured_vertex_is_usage_error(self, tmp_path, capsys):
        # As a pattern's angles do, a gFlow's planes name measured vertices only.
        g, f = tmp_path / "g.json", tmp_path / "f.json"
        g.write_text(path_graph(3).to_json())
        f.write_text(
            '{"g": {"0": [1], "1": [2]}, "layers": [[0], [1], [2]], '
            '"planes": {"0": "XY", "1": "XY", "2": "XZ", "7": "YZ"}}'
        )
        code = run_command(["flow", "verify", "--graph", str(g), "--gflow", str(f)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: gflow gives planes to unmeasured vertices [2, 7]\n"

    @pytest.mark.parametrize(
        "graph,gflow,pattern,message",
        [
            (
                '{"n": 2, "edges": [[0, 1]], "inputs": [], "outputs": [1]}',
                '{"g": {"0": [0, 1]}, "layers": [[0], [1]], "planes": {"0": "XZ"}}',
                '{"angles": {"0": 0.3}, "planes": {"0": "XZ"}}',
                "symbolic simulation supports XY-plane patterns only",
            ),
            (None, None, '{"angles": {"0": NaN}}', "angle for vertex 0 is not finite"),
            (
                None,
                None,
                '{"angles": {}, "planes": {"0": "XY"}}',
                "planes defined for vertices without angles",
            ),
            ('{"n": -1, "edges": []}', None, None, "vertex count must be non-negative"),
            (
                '{"n": 2, "edges": [], "inputs": [0, 0], "outputs": [1]}',
                None,
                None,
                "duplicate vertex in inputs",
            ),
            ('{"n": 3, "edges": [[0, 1, 2]]}', None, None, "edge [0, 1, 2] is not a pair"),
            (None, '{"g": {"0": [1]}, "layers": [[0], [0, 1]]}', None, "vertex 0 appears in two layers"),
            (
                None,
                '{"g": {"0": [1], "1": [0]}, "layers": [[0], [1]]}',
                None,
                "correcting sets and measurement rounds differ on vertices [1]",
            ),
            ("[1, 2]", None, None, "graph must be an object, got [1, 2]"),
            (None, "null", None, "gflow must be an object, got None"),
            (None, None, "[1, 2]", "pattern must be an object, got [1, 2]"),
        ],
        ids=[
            "xz-plane",
            "nan-angle",
            "planes-without-angles",
            "negative-n",
            "duplicate-input",
            "triple-edge",
            "vertex-in-two-layers",
            "correcting-set-off-the-rounds",
            "graph-not-an-object",
            "gflow-not-an-object",
            "pattern-not-an-object",
        ],
    )
    def test_input_check_is_usage_error(self, tmp_path, capsys, graph, gflow, pattern, message):
        # A file left unset is that of path 2, its flow, or one angle on vertex 0.
        texts = {
            "graph": graph or path_graph(2).to_json(),
            "gflow": gflow or path_flow(2).to_json(),
            "pattern": pattern or '{"angles": {"0": 0.3}}',
        }
        argv = ["simulate"]
        for kind, text in texts.items():
            (tmp_path / f"{kind}.json").write_text(text)
            argv += [f"--{kind}", str(tmp_path / f"{kind}.json")]
        code = run_command(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.splitlines()[0] == f"error: {message}"

    @pytest.mark.parametrize("role", [0, 1, 2], ids=["graph", "gflow", "pattern"])
    def test_deeply_nested_json_is_usage_error(self, tmp_path, capsys, path5_files, role):
        # json.loads raises RecursionError long before this depth.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        files = list(path5_files)
        files[role] = str(deep)
        g, f, p = files
        code = run_command(["oracle", "determinism", "--graph", g, "--gflow", f, "--pattern", p])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {deep}: JSON nested too deeply\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"angles": {"0": true, "1": 0.5, "2": 0.5, "3": 0.5}}',
            '{"angles": {"0": "0.5", "1": 0.5, "2": 0.5, "3": 0.5}}',
            '{"angles": [0.1, 0.2, 0.3, 0.4]}',
            '{"angles": {"0": 0.1, "1": 0.2, "2": 0.3, "3": 0.4}, "planes": []}',
            '{"angles": {"0": 1%s, "1": 0.2, "2": 0.3, "3": 0.4}}' % ("0" * 400),
        ],
        ids=["angle-bool", "angle-string", "angles-list", "planes-list", "angle-huge-int"],
    )
    def test_malformed_pattern_is_usage_error(self, tmp_path, capsys, path5_files, text):
        g, f, _ = path5_files
        bad = tmp_path / "bad_pattern.json"
        bad.write_text(text)
        code = run_command(["simulate", "--graph", g, "--gflow", f, "--pattern", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "command,code",
        [
            (["flow", "verify"], 1),
            (["flow", "report"], 2),
            (["cone", "--vertex", "0"], 2),
            (["bounds"], 2),
            (["simulate", "--pattern", "p.json"], 2),
            (["oracle", "run", "--pattern", "p.json", "--branch", "000"], 2),
            (["oracle", "determinism", "--pattern", "p.json"], 2),
            (["oracle", "unitary", "--pattern", "p.json"], 2),
        ],
        ids=[
            "flow-verify",
            "flow-report",
            "cone",
            "bounds",
            "simulate",
            "oracle-run",
            "oracle-determinism",
            "oracle-unitary",
        ],
    )
    def test_invalid_gflow_is_rejected_before_analysis(
        self, tmp_path, monkeypatch, capsys, command, code
    ):
        # Vertex 0 is corrected by 1, which is measured before it (rule g1).
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.json").write_text(path_graph(4).to_json())
        (tmp_path / "f.json").write_text(
            json.dumps({"g": {"0": [1], "1": [2], "2": [3]}, "layers": [[1], [0], [2], [3]]})
        )
        (tmp_path / "p.json").write_text(json.dumps({"angles": {"0": 0.1, "1": 0.2, "2": 0.3}}))
        result = run_command(command + ["--graph", "g.json", "--gflow", "f.json"])
        captured = capsys.readouterr()
        assert result == code
        if code == 1:
            rules = {v["rule"] for v in json.loads(captured.out)["violations"]}
            assert "g1" in rules
        else:
            assert captured.out == ""
            assert captured.err.startswith("error: gflow is invalid")

    def test_a_file_that_does_not_parse_is_reported_before_an_invalid_gflow(
        self, tmp_path, monkeypatch, capsys
    ):
        # The gFlow breaks rule g1 and the pattern is not JSON: every
        # command that reads both reports the pattern, as simulate does.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.json").write_text(path_graph(4).to_json())
        (tmp_path / "f.json").write_text(
            json.dumps({"g": {"0": [1], "1": [2], "2": [3]}, "layers": [[1], [0], [2], [3]]})
        )
        (tmp_path / "p.json").write_text("{not json")
        errors = set()
        for command in (
            ["simulate"],
            ["oracle", "run", "--branch", "000"],
            ["oracle", "determinism"],
            ["oracle", "unitary"],
        ):
            argv = command + ["--graph", "g.json", "--gflow", "f.json", "--pattern", "p.json"]
            assert run_command(argv) == 2, command
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.add(captured.err)
        (err,) = errors
        assert err.startswith("error: p.json: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["00", " 0", "+0", "1_0", "\u0661\u0660"])
    @pytest.mark.parametrize(
        "kind,field",
        [("gflow", "g"), ("gflow", "planes"), ("pattern", "angles"), ("pattern", "planes")],
    )
    def test_non_canonical_vertex_key_is_usage_error(
        self, tmp_path, capsys, path5_files, kind, field, key
    ):
        # int() reads every one of these keys, so two keys could name one vertex.
        g, f, p = path5_files
        path = Path(f if kind == "gflow" else p)
        doc = json.loads(path.read_text())
        doc[field][key] = doc[field]["0"]
        path.write_text(json.dumps(doc))
        assert run_command(["simulate", "--graph", g, "--gflow", f, "--pattern", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: malformed {kind} JSON: {field} key {key!r} "
            "is not a vertex number in canonical form\n"
        )

    @pytest.mark.parametrize(
        "kind,text,message",
        [
            ("graph", '{"n": 5, "n": 4, "edges": []}', "g.json: repeated key 'n' in a JSON object"),
            (
                "gflow",
                '{"g": {"0": [1], "1": [2], "1": [0], "2": [3], "3": [4]}, '
                '"layers": [[0], [1], [2], [3], [4]]}',
                "f.json: repeated key '1' in a JSON object",
            ),
            (
                "pattern",
                '{"angles": {"0": 0.1, "0": 0.7, "1": 0.2, "2": 0.3, "3": 0.4}}',
                "p.json: repeated key '0' in a JSON object",
            ),
            (
                "gflow",
                '{"g": {"0": [1, 1], "1": [2], "2": [3], "3": [4]}, '
                '"layers": [[0], [1], [2], [3], [4]]}',
                "malformed gflow JSON: correcting set repeats member 1",
            ),
            (
                "gflow",
                '{"g": {"0": [1], "1": [2], "2": [3], "3": [4]}, '
                '"layers": [[0, 0], [1], [2], [3], [4]]}',
                "malformed gflow JSON: layer repeats member 0",
            ),
        ],
        ids=["graph-key", "gflow-key", "pattern-key", "correcting-set-member", "layer-member"],
    )
    def test_repeated_key_or_member_is_usage_error(
        self, tmp_path, monkeypatch, capsys, path5_files, kind, text, message
    ):
        # json.loads keeps the last of two equal keys, and a repeated member
        # would read as a set; either would analyse another file than given.
        monkeypatch.chdir(tmp_path)
        for name, source in zip(("g", "f", "p"), path5_files):
            Path(f"{name}.json").write_text(Path(source).read_text())
        Path({"graph": "g.json", "gflow": "f.json", "pattern": "p.json"}[kind]).write_text(text)
        argv = ["--graph", "g.json", "--gflow", "f.json"]
        if kind == "pattern":
            argv = ["oracle", "unitary", *argv, "--pattern", "p.json"]
        else:
            argv = ["flow", "verify", *argv]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_simulate_verifies_the_gflow_once(self, monkeypatch, capsys, path5_files):
        # The runner's gate and the library's check through one function in
        # flow.py, as verify_gflow does, so patching it there counts each.
        import mbqcflow.flow as flow_mod

        calls = []
        violations = flow_mod._violations

        def counted(graph, gflow, masks):
            calls.append(gflow)
            return violations(graph, gflow, masks)

        monkeypatch.setattr(flow_mod, "_violations", counted)
        g, f, p = path5_files
        assert run_command(["simulate", "--graph", g, "--gflow", f, "--pattern", p]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                '{"g": {"0": [1], "1": [2], "2": [3]}, "layers": [[1], [0], [2], [3]]}',
                "error: gflow is invalid",
            ),
            ('{"g": {"0": ["1"]}, "layers": [[0], [1]]}', "error: "),
        ],
        ids=["invalid", "malformed"],
    )
    def test_bounds_rejects_the_gflow_before_the_exact_bounds(
        self, tmp_path, monkeypatch, capsys, text, message
    ):
        from mbqcflow import bounds as bounds_mod

        def refuse(*args, **kwargs):
            raise AssertionError("exact bound computed before the gFlow was checked")

        monkeypatch.setattr(bounds_mod, "structural_entanglement_exact", refuse)
        monkeypatch.setattr(bounds_mod, "entanglement_width_exact", refuse)
        (tmp_path / "g.json").write_text(path_graph(4).to_json())
        (tmp_path / "f.json").write_text(text)
        argv = ["bounds", "--graph", str(tmp_path / "g.json"), "--gflow", str(tmp_path / "f.json")]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1

    def test_dense_budget_alone_bounds_determinism(self, tmp_path, capsys):
        # The walk holds one row, so 2^15 branches need no budget of their own.
        code, payload = run_json(capsys, ["graph", "gen", "path", "--n", "16", "--with-gflow"])
        assert code == 0
        rng = random.Random(16)
        pattern = {"angles": {v: rng.uniform(0, 2 * math.pi) for v in payload["gflow"]["g"]}}
        for name, data in (("g", payload["graph"]), ("f", payload["gflow"]), ("p", pattern)):
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        argv = ["oracle", "determinism", "--graph", str(tmp_path / "g.json"),
                "--gflow", str(tmp_path / "f.json"), "--pattern", str(tmp_path / "p.json")]
        code, report = run_json(capsys, [*argv, "--budget-dense", "16"])
        assert code == 0
        assert report["deterministic"] is True
        assert report["branch_count"] == 2**15

    def test_dense_budget_names_its_flag(self, capsys, path5_files):
        g, f, p = path5_files
        code = run_command(
            [
                "oracle", "run",
                "--graph", g,
                "--gflow", f,
                "--pattern", p,
                "--branch", "0000",
                "--budget-dense", "4",
            ]
        )
        assert code == 3
        assert capsys.readouterr().err == "budget exceeded: 5 qubits exceed --budget-dense 4\n"


    @pytest.mark.parametrize("command", ["determinism", "unitary"])
    def test_oracle_dense_budget_is_a_flag(self, tmp_path, capsys, command):
        graph, gflow = path_graph(15), path_flow(15)
        files = {
            "g.json": graph.to_json(),
            "f.json": gflow.to_json(),
            "p.json": json.dumps({"angles": {str(v): 0.1 * v for v in graph.measured}}),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = ["oracle", command, "--graph", str(tmp_path / "g.json"),
                "--gflow", str(tmp_path / "f.json"), "--pattern", str(tmp_path / "p.json")]
        assert run_command(argv) == 3
        assert capsys.readouterr().err == "budget exceeded: 15 qubits exceed --budget-dense 14\n"
        code, payload = run_json(capsys, argv + ["--budget-dense", "15"])
        assert code == 0
        assert payload["schema_version"] == 1

    def test_simulate_term_budget_exit_code(self, capsys, tmp_path):
        # Cluster 3x14 with random angles ran out of memory with no budget
        # while measured X was kept; with it stripped, its logicals peak at
        # 63 rows.  The 14 logicals of cluster 7x6 reach 18,999 rows together.
        graph, gflow = cluster_graph(7, 6), cluster_row_flow(7, 6)
        rng = np.random.default_rng(5)
        pattern = {"angles": {str(v): float(rng.uniform(0, 6.28)) for v in graph.measured}}
        files = {"g.json": graph.to_json(), "f.json": gflow.to_json(), "p.json": json.dumps(pattern)}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = ["simulate", "--graph", str(tmp_path / "g.json"), "--gflow", str(tmp_path / "f.json"),
                "--pattern", str(tmp_path / "p.json"), "--budget-terms", "10000"]
        assert run_command(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"budget exceeded: (\d+) terms exceed --budget-terms 10000\n", captured.err
        )
        assert int(captured.err.split()[2]) > 10000

    @pytest.mark.parametrize("budget, code", [(5, 3), (6, 0)])
    def test_simulate_term_budget_holds_for_one_term_logicals(
        self, capsys, tmp_path, budget, code
    ):
        # Right angles keep the 6 logicals of cluster 3x4 at one term each.
        graph, gflow = cluster_graph(3, 4), cluster_row_flow(3, 4)
        pattern = {"angles": {str(v): np.pi / 2 for v in graph.measured}}
        files = {"g.json": graph.to_json(), "f.json": gflow.to_json(), "p.json": json.dumps(pattern)}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = ["simulate", "--graph", str(tmp_path / "g.json"), "--gflow", str(tmp_path / "f.json"),
                "--pattern", str(tmp_path / "p.json"), "--budget-terms", str(budget)]
        assert run_command(argv) == code
        assert capsys.readouterr().err == (
            "budget exceeded: 6 terms exceed --budget-terms 5\n" if code else ""
        )

    def test_simulate_dense_limit_exit_code(self, tmp_path):
        # Twelve isolated vertices, each an input and an output: a 12-qubit
        # unitary holds as many amplitudes as a 24-qubit state, in simulate
        # and in oracle unitary alike.
        graph = mbqcflow.OpenGraph(n=12, edges=[], inputs=range(12), outputs=range(12))
        (tmp_path / "g.json").write_text(graph.to_json())
        (tmp_path / "f.json").write_text(mbqcflow.find_gflow(graph).to_json())
        (tmp_path / "p.json").write_text(json.dumps({"angles": {}}))
        src = str(Path(mbqcflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for command in (["simulate"], ["oracle", "unitary"]):
            proc = subprocess.run(
                [sys.executable, "-m", "mbqcflow.cli", *command, "--graph", "g.json",
                 "--gflow", "f.json", "--pattern", "p.json"],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 3
            assert proc.stdout == ""
            assert proc.stderr == (
                "budget exceeded: 24 qubits exceed --budget-dense 14 "
                "(a 12-qubit unitary holds 4^12 amplitudes)\n"
            )

    def test_out_of_memory_exit_code(self, tmp_path):
        # --budget-dense 28 lets the oracle try a 2^28-amplitude state; the
        # child's own address-space limit makes that allocation fail.  One
        # BLAS thread keeps numpy's own reservations small on many-core hosts.
        resource = pytest.importorskip("resource")
        (tmp_path / "g.json").write_text(path_graph(28).to_json())
        (tmp_path / "f.json").write_text(path_flow(28).to_json())
        (tmp_path / "p.json").write_text(json.dumps({"angles": {str(v): 0.0 for v in range(27)}}))
        limit = 1 << 30

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(mbqcflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "mbqcflow.cli", "oracle", "unitary", "--graph", "g.json",
             "--gflow", "f.json", "--pattern", "p.json", "--budget-dense", "28"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=limit_memory,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "budget exceeded: memory ran out within --budget-dense 28\n"

    def test_exact_bounds_at_the_width_budget_fit_the_bench_address_space(self, tmp_path, capsys):
        # The width DP keeps its split tables for the largest vertex count it
        # has run, up to --budget-width 16, where they hold 43 MB.  The kept
        # table must fit the bench's address-space limit (2 GiB, one BLAS
        # thread), so bounds runs in a child under that limit on the
        # 16-vertex 4x4 cluster.
        resource = pytest.importorskip("resource")
        argv = ["graph", "gen", "cluster", "--rows", "4", "--cols", "4", "--with-gflow"]
        code, payload = run_json(capsys, argv)
        assert code == 0
        for name in ("graph", "gflow"):
            (tmp_path / f"{name}.json").write_text(json.dumps(payload[name]))
        limit = 2 << 30

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(mbqcflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "mbqcflow.cli", "bounds", "--graph", "graph.json",
             "--gflow", "gflow.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=limit_memory,
        )
        assert proc.returncode == 0, proc.stderr
        bounds = json.loads(proc.stdout)
        assert (bounds["chi_wd_exact"], bounds["e_struc_exact"]) == (3, 4)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["flow", "find", "--graph", "path3.json"], 0),
            (["flow", "find", "--graph", "bottleneck.json"], 1),
            (["graph", "gen", "cluster", "--rows", "6", "--cols", "30", "--with-gflow"], 0),
        ],
        ids=["ok", "domain", "generated"],
    )
    def test_a_closed_stdout_keeps_the_exit_code(self, tmp_path, argv, code):
        # The reader closes its end before the child writes, as `| head -c 10`
        # does before a long payload ends: the command's own exit code, and
        # nothing on stderr (no usage error, no "Exception ignored").
        (tmp_path / "path3.json").write_text(path_graph(3).to_json())
        (tmp_path / "bottleneck.json").write_text(bottleneck_graph().to_json())
        src = str(Path(mbqcflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mbqcflow.cli", *argv],
                cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, "")

    def test_vertex_cap_exit_code(self, capsys, tmp_path):
        from mbqcflow.graph import VERTEX_CAP

        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": VERTEX_CAP + 1, "edges": []}))
        assert run_command(["graph", "show", "--graph", str(g)]) == 3
        assert capsys.readouterr().err == (
            f"budget exceeded: {VERTEX_CAP + 1} vertices exceed the vertex cap of {VERTEX_CAP}\n"
        )

    @pytest.mark.parametrize(
        "argv,n",
        [
            (["path", "--n", "1048577"], 1048577),
            (["cluster", "--rows", "1025", "--cols", "1025"], 1050625),
        ],
        ids=["path", "cluster"],
    )
    def test_graph_gen_checks_the_vertex_cap(self, capsys, argv, n):
        from mbqcflow.graph import VERTEX_CAP

        assert run_command(["graph", "gen", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"budget exceeded: {n} vertices exceed the vertex cap of {VERTEX_CAP}\n"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["path", "--n", "0"], "path needs at least one vertex"),
            (["cluster", "--rows", "0", "--cols", "3"], "cluster needs positive dimensions"),
        ],
        ids=["path", "cluster"],
    )
    def test_graph_gen_checks_the_size_is_positive(self, capsys, argv, message):
        assert run_command(["graph", "gen", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestSharedRules:
    """Each budget and gate rule has one definition, so every caller words it alike."""

    def test_unitary_budget_message_is_the_same_from_every_producer(self):
        n = 12
        graph = mbqcflow.OpenGraph(
            n, [(i, i + 1) for i in range(n - 1)], inputs=range(n), outputs=range(n)
        )
        gflow, pattern = mbqcflow.GFlow({}, [range(n)]), mbqcflow.MeasurementPattern({})
        state = mbqcflow.propagate_all(mbqcflow.initialize_simulation(graph, gflow, pattern))
        logicals = mbqcflow.finalize_outputs(state)
        messages = []
        for produce in (
            lambda: mbqcflow.simulate_pattern(graph, gflow, pattern),
            lambda: mbqcflow.extract_unitary(logicals),
            lambda: mbqcflow.oracle_unitary(graph, gflow, pattern),
        ):
            with pytest.raises(mbqcflow.BudgetExceededError) as info:
                produce()
            messages.append(str(info.value))
        assert messages == [
            "24 qubits exceed --budget-dense 14 (a 12-qubit unitary holds 4^12 amplitudes)"
        ] * 3

    def test_invalid_gflow_line_is_the_same_from_both_gates(self, tmp_path, monkeypatch, capsys):
        # The runner skips its gFlow check for simulate, whose library call
        # makes it; oracle unitary is checked by the runner.
        monkeypatch.chdir(tmp_path)
        Path("g.json").write_text(path_graph(3).to_json())
        Path("f.json").write_text('{"g": {"0": [1], "1": [2]}, "layers": [[1], [0], [2]]}')
        Path("p.json").write_text('{"angles": {"0": 0.3, "1": 0.5}}')
        files = ["--graph", "g.json", "--gflow", "f.json", "--pattern", "p.json"]
        errors = []
        for command in (["simulate"], ["oracle", "unitary"]):
            assert run_command([*command, *files]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: gflow is invalid: [Violation(vertex=0, rule='g1'")

    def test_simulate_refuses_a_unitary_over_budget_before_propagating(self, tmp_path, capsys):
        # Random angles on the 8x7 cluster once ran every round, for
        # seconds, to stop on --budget-terms; its 16 qubits are over
        # --budget-dense from the start.
        argv = ["graph", "gen", "cluster", "--rows", "8", "--cols", "7", "--with-gflow"]
        code, payload = run_json(capsys, argv)
        assert code == 0
        rng = random.Random(3)
        pattern = {"angles": {v: rng.uniform(0, 2 * math.pi) for v in payload["gflow"]["g"]}}
        for name, data in (("g", payload["graph"]), ("f", payload["gflow"]), ("p", pattern)):
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        argv = ["simulate", "--graph", str(tmp_path / "g.json"), "--gflow", str(tmp_path / "f.json"),
                "--pattern", str(tmp_path / "p.json")]
        assert run_command(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "budget exceeded: 16 qubits exceed --budget-dense 14 "
            "(a 8-qubit unitary holds 4^8 amplitudes)\n"
        )


class TestCommands:
    def test_graph_gen_and_show_round_trip(self, capsys, tmp_path):
        code, payload = run_json(capsys, ["graph", "gen", "path", "--n", "4"])
        assert code == 0
        g = tmp_path / "g.json"
        g.write_text(json.dumps(payload["graph"]))
        code, shown = run_json(capsys, ["graph", "show", "--graph", str(g)])
        assert code == 0
        assert shown["graph"] == payload["graph"]
        assert shown["vertex_count"] == 4

    def test_graph_gen_with_gflow(self, capsys):
        code, payload = run_json(
            capsys, ["graph", "gen", "fig4", "--with-gflow", "--gflow-variant", "wide"]
        )
        assert code == 0
        assert payload["gflow"]["g"]["0"] == [4, 5, 6, 7]

    def test_wide_gflow_variant_is_the_found_gflow_on_any_fixture(self, capsys):
        argv = ["graph", "gen", "fig3b", "--with-gflow", "--gflow-variant"]
        _, default = run_json(capsys, argv + ["default"])
        code, wide = run_json(capsys, argv + ["wide"])
        assert code == 0
        graph = mbqcflow.OpenGraph.from_json_dict(wide["graph"])
        gflow = mbqcflow.GFlow.from_json_dict(wide["gflow"])
        assert mbqcflow.verify_gflow(graph, gflow) == []
        assert gflow.depth == 1
        assert wide["gflow"] != default["gflow"]

    def test_graph_dot(self, capsys, path5_files):
        g, f, _ = path5_files
        code = run_command(["graph", "dot", "--graph", g, "--gflow", f])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph")
        assert "style=dashed, color=red" in out

    def test_empty_gflow_path_means_no_gflow(self, capsys, path5_files):
        g, _, _ = path5_files
        code, payload = run_json(capsys, ["bounds", "--graph", g, "--gflow", ""])
        assert code == 0
        assert (payload["c_f"], payload["delta"], payload["flow_bound"]) == (None, None, None)
        assert run_command(["graph", "dot", "--graph", g]) == 0
        plain = capsys.readouterr().out
        assert run_command(["graph", "dot", "--graph", g, "--gflow", ""]) == 0
        assert capsys.readouterr().out == plain

    def test_graph_dot_renders_an_invalid_gflow(self, capsys, tmp_path):
        # Vertex 0 is corrected by 1, which is measured before it (rule g1).
        text = '{"g": {"0": [1], "1": [2], "2": [3]}, "layers": [[1], [0], [2], [3]]}'
        (tmp_path / "g.json").write_text(path_graph(4).to_json())
        (tmp_path / "f.json").write_text(text)
        argv = ["graph", "dot", "--graph", str(tmp_path / "g.json"),
                "--gflow", str(tmp_path / "f.json")]
        assert run_command(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == path_graph(4).to_dot(mbqcflow.GFlow.from_json(text)) + "\n"

    def test_flow_verify_and_report(self, capsys, path5_files):
        g, f, _ = path5_files
        code, payload = run_json(
            capsys, ["flow", "verify", "--graph", g, "--gflow", f]
        )
        assert code == 0 and payload["valid"]
        code, payload = run_json(
            capsys, ["flow", "report", "--graph", g, "--gflow", f]
        )
        assert code == 0
        assert payload["depth"] == 4
        assert payload["wires"]["wires"] == [[0, 1, 2, 3, 4]]

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_empty_measurement_round_is_usage_error(self, tmp_path, capsys, command):
        # Round 1 measures nothing: the gFlow is otherwise valid, and would
        # report depth 3 for two rounds.
        (tmp_path / "g.json").write_text(path_graph(3).to_json())
        (tmp_path / "f.json").write_text(
            json.dumps({"g": {"0": [1], "1": [2]}, "layers": [[0], [], [1], [2]]})
        )
        files = ["--graph", str(tmp_path / "g.json"), "--gflow", str(tmp_path / "f.json")]
        assert run_command(["flow", command, *files]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: measurement round 1 is empty\n")

    def test_cone(self, capsys, path5_files):
        g, f, _ = path5_files
        code, payload = run_json(
            capsys, ["cone", "--graph", g, "--gflow", f, "--vertex", "0"]
        )
        assert code == 0
        assert payload["cone"] == [0, 1, 2, 3, 4]
        code = run_command(
            ["cone", "--graph", g, "--gflow", f, "--vertex", "0", "--dot"]
        )
        out = capsys.readouterr().out
        assert code == 0 and "fillcolor=red" in out

    def test_simulate_and_oracle_agree(self, capsys, path5_files):
        g, f, p = path5_files
        code, sim = run_json(
            capsys,
            ["simulate", "--graph", g, "--gflow", f, "--pattern", p, "--report-terms"],
        )
        assert code == 0
        assert all(sim["cone_bound_ok"].values())
        code, orc = run_json(
            capsys, ["oracle", "unitary", "--graph", g, "--gflow", f, "--pattern", p]
        )
        assert code == 0
        a = np.array([[complex(re, im) for re, im in row] for row in sim["unitary"]])
        b = np.array([[complex(re, im) for re, im in row] for row in orc["unitary"]])
        idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
        phase = a[idx] / b[idx]
        assert np.max(np.abs(a - phase * b)) < 1e-9

    def test_simulate_on_the_empty_graph(self, capsys, tmp_path):
        # The gFlow comes from flow find, as a user would make it.
        g, f, p = (tmp_path / name for name in ("g.json", "f.json", "p.json"))
        g.write_text('{"n": 0, "edges": []}')
        p.write_text('{"angles": {}}')
        code, found = run_json(capsys, ["flow", "find", "--graph", str(g)])
        assert code == 0
        f.write_text(json.dumps(found["gflow"]))
        files = ["--graph", str(g), "--gflow", str(f), "--pattern", str(p)]
        code, sim = run_json(capsys, ["simulate", *files])
        assert code == 0
        assert sim["unitary"] == [[[1.0, 0.0]]]
        code, orc = run_json(capsys, ["oracle", "unitary", *files])
        assert (code, orc["unitary"]) == (0, sim["unitary"])

    def test_the_6x30_cluster_at_the_bench_grid_size(self, capsys, tmp_path, monkeypatch):
        """The wide gFlow of the 6x30 cluster, and two one-edge changes to it.

        The wide gFlow verifies, and one edge (74, 76), two columns along
        row 2, leaves no gFlow.  The wide gFlow is causal, so flow report
        takes its wires from the correcting sets.  With one more edge
        (74, 135), the gFlow that flow find returns corrects one vertex
        with two, and flow report takes the wires from the max-flow.  Both
        reports give 6 vertex-disjoint wires along edges, one from each
        input to an output.
        """
        monkeypatch.chdir(tmp_path)
        argv = ["graph", "gen", "cluster", "--rows", "6", "--cols", "30", "--with-gflow",
                "--gflow-variant", "wide"]
        code, payload = run_json(capsys, argv)
        assert code == 0
        graph = payload["graph"]
        files = {
            "c630-graph.json": graph,
            "c630-gflow.json": payload["gflow"],
            "c630-broken.json": {**graph, "edges": [*graph["edges"], [74, 76]]},
            "c630-long.json": {**graph, "edges": [*graph["edges"], [74, 135]]},
        }
        for name, data in files.items():
            Path(name).write_text(json.dumps(data))
        code, verified = run_json(
            capsys, ["flow", "verify", "--graph", "c630-graph.json", "--gflow", "c630-gflow.json"]
        )
        assert (code, verified["valid"]) == (0, True)
        code, broken = run_json(capsys, ["flow", "find", "--graph", "c630-broken.json"])
        assert (code, broken["gflow"]) == (1, None)
        code, found = run_json(capsys, ["flow", "find", "--graph", "c630-long.json"])
        assert code == 0
        assert max(map(len, found["gflow"]["g"].values())) == 2
        Path("c630-long-gflow.json").write_text(json.dumps(found["gflow"]))

        max_flows, max_flow_successors = [], flow._max_flow_successors

        def spied_max_flow(graph):
            max_flows.append(graph)
            return max_flow_successors(graph)

        monkeypatch.setattr(flow, "_max_flow_successors", spied_max_flow)
        for g, f, max_flow_calls in (
            ("c630-graph.json", "c630-gflow.json", 0),
            ("c630-long.json", "c630-long-gflow.json", 1),
        ):
            max_flows.clear()
            code, report = run_json(capsys, ["flow", "report", "--graph", g, "--gflow", f])
            assert code == 0
            assert len(max_flows) == max_flow_calls, g
            data = files[g]
            wires = report["wires"]["wires"]
            on_wires = [v for wire in wires for v in wire]
            edges = {frozenset(edge) for edge in data["edges"]}
            assert len(wires) == 6 and len(on_wires) == len(set(on_wires)), g
            assert sorted(wire[0] for wire in wires) == sorted(data["inputs"]), g
            assert {wire[-1] for wire in wires} <= set(data["outputs"]), g
            assert all(frozenset(e) in edges for wire in wires for e in zip(wire, wire[1:])), g

    @pytest.mark.parametrize(
        "rows, cols, seed, clifford",
        [(2, 5, 7, False), (2, 5, 11, True), (3, 4, 2, True)],
        ids=["2x5-random", "2x5-clifford", "3x4-clifford"],
    )
    def test_seeded_cluster_patterns_match_the_oracle(
        self, capsys, tmp_path, monkeypatch, rows, cols, seed, clifford
    ):
        """simulate prints oracle unitary's unitary, entry by entry, within 1e-9.

        Random angles on the 2x5 cluster make simulate multiply Pauli sums
        in its corrections.  Multiples of pi/2 keep every logical one Pauli
        word, so the pattern takes the word path.  In both
        Clifford unitaries row 0 of the first column is 0, so simulate
        projects e_0 to nothing and takes that column from e_1.
        """
        monkeypatch.chdir(tmp_path)
        argv = ["graph", "gen", "cluster", "--rows", str(rows), "--cols", str(cols), "--with-gflow"]
        code, payload = run_json(capsys, argv)
        assert code == 0
        rng = random.Random(seed)
        measured = sorted(payload["gflow"]["g"], key=int)
        if clifford:
            angles = {v: rng.randrange(4) * math.pi / 2 for v in measured}
        else:
            angles = {v: rng.uniform(0, 2 * math.pi) for v in measured}
        for name, data in (("g", payload["graph"]), ("f", payload["gflow"]), ("p", {"angles": angles})):
            Path(f"{name}.json").write_text(json.dumps(data))
        files = ["--graph", "g.json", "--gflow", "f.json", "--pattern", "p.json"]
        merges = count_product_merges(monkeypatch)
        code, sim = run_json(capsys, ["simulate", *files, *(["--report-terms"] if clifford else [])])
        assert code == 0
        code, orc = run_json(capsys, ["oracle", "unitary", *files])
        assert code == 0
        u, v = (np.array(out["unitary"]) @ [1, 1j] for out in (sim, orc))
        assert u.shape == v.shape == (1 << rows, 1 << rows)
        assert np.abs(u - v).max() <= 1e-9
        if clifford:
            assert set(sim["term_counts"].values()) == {1}
            assert abs(u[0, 0]) < 1e-12
        else:
            assert sum(merges.values()) > 0

    def test_oracle_run_branch(self, capsys, path5_files):
        g, f, p = path5_files
        code, payload = run_json(
            capsys,
            [
                "oracle", "run",
                "--graph", g,
                "--gflow", f,
                "--pattern", p,
                "--branch", "0101",
            ],
        )
        assert code == 0
        assert payload["outcomes"] == {"0": 0, "1": 1, "2": 0, "3": 1}
        assert abs(payload["probability"] - 2.0**-4) < 1e-9

    def test_oracle_determinism(self, capsys, path5_files):
        g, f, p = path5_files
        code, payload = run_json(
            capsys,
            ["oracle", "determinism", "--graph", g, "--gflow", f, "--pattern", p],
        )
        assert code == 0
        assert payload["deterministic"]

    def test_bounds_with_and_without_gflow(self, capsys, path5_files):
        g, f, _ = path5_files
        code, payload = run_json(capsys, ["bounds", "--graph", g, "--gflow", f])
        assert code == 0
        assert payload["e_struc_exact"] == 1
        assert payload["chi_wd_exact"] == 1
        assert payload["flow_bound"] == 1
        code, payload = run_json(capsys, ["bounds", "--graph", g])
        assert code == 0
        assert payload["c_f"] is None

    @pytest.mark.parametrize(
        "words, option",
        [
            (("simulate",), "--budget-terms"),
            (("simulate",), "--budget-dense"),
            (("oracle", "run"), "--budget-dense"),
            (("oracle", "determinism"), "--budget-dense"),
            (("oracle", "unitary"), "--budget-dense"),
            (("bounds",), "--budget-estruc"),
            (("bounds",), "--budget-width"),
        ],
    )
    def test_negative_budget_is_usage_error(self, capsys, path5_files, words, option):
        g, f, p = path5_files
        files = ["--graph", g]
        if words != ("bounds",):
            files += ["--gflow", f, "--pattern", p]
        if words == ("oracle", "run"):
            files += ["--branch", "0000"]
        assert run_command([*words, *files, option, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"mbqcflow {' '.join(words)}: error: argument {option}: must be 0 or more, got -1"
        )
        # Zero is a budget: it may be exceeded (exit 3) or give nulls, but it parses.
        assert run_command([*words, *files, option, "0"]) in (0, 3)
        assert "error: argument" not in capsys.readouterr().err

    def test_bounds_budget_gives_nulls(self, capsys, tmp_path):
        from mbqcflow.fixtures import cluster_graph

        g = tmp_path / "c.json"
        g.write_text(cluster_graph(3, 3).to_json())
        code, payload = run_json(
            capsys,
            ["bounds", "--graph", str(g), "--budget-estruc", "4", "--budget-width", "4"],
        )
        assert code == 0
        assert payload["e_struc_exact"] is None
        assert payload["chi_wd_exact"] is None

    def test_fixtures_list(self, capsys):
        code, payload = run_json(capsys, ["fixtures", "list"])
        assert code == 0
        assert {f["name"] for f in payload["fixtures"]} == set(CATALOG)


def leaf_parsers(parser, words=()):
    """The words naming each leaf subcommand under ``parser``, with its parser."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield words, parser
        return
    for name, sub in groups[0].choices.items():
        yield from leaf_parsers(sub, words + (name,))


@pytest.mark.parametrize("words", [w for w, _ in leaf_parsers(build_parser())], ids=" ".join)
def test_every_subcommand_has_help(capsys, words):
    assert run_command([*words, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: mbqcflow {' '.join(words)} [-h]")


def budget_defaults(parser) -> dict[str, set]:
    """Every ``--budget-*`` flag declared under ``parser``, with its defaults."""
    found: dict[str, set] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                for flag, defaults in budget_defaults(sub).items():
                    found.setdefault(flag, set()).update(defaults)
        for flag in action.option_strings:
            if flag.startswith("--budget-"):
                found.setdefault(flag, set()).add(action.default)
    return found


def test_readme_budgets_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Budgets", 1)[1]
    rows = re.findall(r"^\| `(--budget-[a-z-]+)` \| ([^|]*)\|", section, flags=re.MULTILINE)
    assert len(rows) == len(dict(rows))
    # The leading integer of each default cell, such as 4194304 in "4194304 (2^22) rows".
    table = {flag: {int(re.match(r"\d+", cell).group())} for flag, cell in rows}
    assert table == budget_defaults(build_parser())


class TestOutputsAlwaysParse:
    def test_every_fixture_through_every_subcommand(self, capsys, tmp_path):
        for name, spec in CATALOG.items():
            graph = spec.build()
            g = tmp_path / f"{name}.json"
            g.write_text(graph.to_json())
            for argv in (
                ["graph", "show", "--graph", str(g)],
                ["flow", "find", "--graph", str(g)],
                ["flow", "find", "--graph", str(g), "--causal"],
                ["bounds", "--graph", str(g)],
            ):
                code = run_command(argv)
                out = capsys.readouterr().out
                assert code in (0, 1, 3), argv
                payload = json.loads(out)
                assert payload["schema_version"] == 1

            code = run_command(["graph", "dot", "--graph", str(g)])
            out = capsys.readouterr().out
            assert code == 0 and out.startswith("digraph")

            # gFlow-dependent commands run wherever a gFlow exists.
            code = run_command(["flow", "find", "--graph", str(g)])
            out = capsys.readouterr().out
            gflow_payload = json.loads(out)["gflow"]
            if gflow_payload is None:
                continue
            f = tmp_path / f"{name}-gflow.json"
            f.write_text(json.dumps(gflow_payload))
            measured = sorted(int(v) for v in gflow_payload["g"])
            p = tmp_path / f"{name}-pattern.json"
            p.write_text(
                json.dumps(
                    {
                        "angles": {str(v): 0.2 + 0.1 * i for i, v in enumerate(measured)},
                        "planes": {str(v): "XY" for v in measured},
                    }
                )
            )
            vertex = str(graph.inputs[0]) if graph.inputs else "0"
            branch = "0" * len(measured)
            for argv in (
                ["flow", "verify", "--graph", str(g), "--gflow", str(f)],
                ["flow", "report", "--graph", str(g), "--gflow", str(f)],
                ["cone", "--graph", str(g), "--gflow", str(f), "--vertex", vertex],
                ["bounds", "--graph", str(g), "--gflow", str(f)],
                ["simulate", "--graph", str(g), "--gflow", str(f), "--pattern", str(p)],
                ["oracle", "run", "--graph", str(g), "--gflow", str(f),
                 "--pattern", str(p), "--branch", branch],
                ["oracle", "determinism", "--graph", str(g), "--gflow", str(f),
                 "--pattern", str(p)],
                ["oracle", "unitary", "--graph", str(g), "--gflow", str(f),
                 "--pattern", str(p)],
            ):
                code = run_command(argv)
                out = capsys.readouterr().out
                assert code in (0, 1, 3), argv
                payload = json.loads(out)
                assert payload["schema_version"] == 1


#: Values a mutation puts in place of a JSON value, or adds.  2**40 is over
#: the vertex cap; no value makes a graph larger than one more vertex.
JUNK = [None, True, False, -1, 0, 1, 2.5, float("nan"), 2**40, "", "1", "XY", [], {}, [[0, 1]]]


def json_containers(data):
    """Every object and array in ``data``, ``data`` first."""
    if isinstance(data, (dict, list)):
        yield data
        for value in data.values() if isinstance(data, dict) else data:
            yield from json_containers(value)


def mutate(data, rng):
    """A copy of ``data`` with one seeded change to one of its objects or arrays.

    A value is removed, replaced by one of ``JUNK``, or, if it is an
    integer, moved by one; or one junk value is added, under a new key.
    """
    data = json.loads(json.dumps(data))
    node = rng.choice(list(json_containers(data)))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = rng.randrange(4) if keys else 0
    if action == 0:
        if isinstance(node, dict):
            node[rng.choice(["0", "7", "-1", "x", "n", "planes", "extra"])] = rng.choice(JUNK)
        else:
            node.append(rng.choice(JUNK))
        return data
    key = rng.choice(keys)
    if action == 1:
        del node[key]
    elif action == 3 and type(node[key]) is int:
        node[key] += rng.choice([-1, 1])
    else:
        node[key] = rng.choice(JUNK)
    return data


def test_malformed_input_never_escapes_as_a_traceback(capsys, tmp_path):
    # Seeded mutations of the graph, gFlow and pattern JSON of three fixtures
    # through every command that reads files: each call returns an exit code
    # of the CLI, and no exception leaves run_command.
    commands = [
        (words, parser.get_default("files"))
        for words, parser in leaf_parsers(build_parser())
        if parser.get_default("files")
    ]
    assert len(commands) == 11
    cases = [
        (path_graph(4), path_flow(4), 0.3),
        (cluster_graph(2, 3), cluster_row_flow(2, 3), math.pi / 2),
        (fig4_graph(), fig4_depth_one_gflow(), 0.7),
    ]
    rng, codes = random.Random(41), collections.Counter()
    for graph, gflow, angle in cases:
        base = {
            "graph": graph.to_json_dict(),
            "gflow": gflow.to_json_dict(),
            "pattern": {"angles": {str(v): angle * (v + 1) for v in gflow.corrections}},
        }
        extra = {
            ("cone",): ["--vertex", str(graph.inputs[0])],
            ("oracle", "run"): ["--branch", "0" * len(gflow.corrections)],
        }
        for round_ in range(15):
            texts = {name: json.dumps(data) for name, data in base.items()}
            target = ("graph", "gflow", "pattern")[round_ % 3]
            texts[target] = json.dumps(mutate(base[target], rng))
            for name, text in texts.items():
                (tmp_path / f"{name}.json").write_text(text)
            for words, files in commands:
                argv = [*words, *extra.get(words, [])]
                for name in files:
                    argv += [f"--{name}", str(tmp_path / f"{name}.json")]
                try:
                    code = run_command(argv)
                except Exception as exc:  # the failure names the mutated input
                    pytest.fail(f"{' '.join(words)} on {target} {texts[target]} raised {exc!r}")
                capsys.readouterr()
                assert code in (0, 1, 2, 3), (words, texts[target])
                codes[code] += 1
    assert sum(codes.values()) == 3 * 15 * 11
    assert codes[0] and codes[2]


def test_cli_import_does_not_load_networkx():
    # Start-up time of every CLI call: networkx alone took about 0.2 s to import.
    src = str(Path(mbqcflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import mbqcflow.cli, sys; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_commands_without_numpy_do_not_load_it(path5_files):
    # Importing numpy costs more than a combinatorial command itself, and
    # every CLI call is a fresh process.  bounds shows the check can fail.
    g, f, _ = path5_files
    graph, both = ["--graph", g], ["--graph", g, "--gflow", f]
    commands = [
        ["graph", "gen", "path", "--n", "3", "--with-gflow"],
        ["graph", "show", *graph],
        ["graph", "dot", *both],
        ["flow", "find", *graph],
        ["flow", "verify", *both],
        ["flow", "report", *both],
        ["cone", *both, "--vertex", "0"],
        ["fixtures", "list"],
        ["bounds", *both],
    ]
    script = """
import runpy, sys
loaded = []
for argv in COMMANDS:
    sys.argv = ["mbqcflow", *argv]
    try:
        runpy.run_module("mbqcflow.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, argv
    loaded.append("numpy" in sys.modules)
print(loaded, file=sys.stderr)
"""
    src = str(Path(mbqcflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script.replace("COMMANDS", repr(commands))],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stderr == f"{[False] * 8 + [True]}\n"


@pytest.mark.parametrize(
    "preset, want", [({}, ["1", "1", "1"]), ({"OMP_NUM_THREADS": "2"}, ["1", "2", "1"])]
)
def test_cli_runs_one_blas_thread_unless_one_is_set(preset, want):
    # A BLAS thread pool costs more than it saves on one call's small
    # matrices, so main() sets one thread before any handler loads numpy,
    # and keeps a count the caller set.
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    script = """
import os, sys
from mbqcflow import cli
sys.argv = ["mbqcflow", "fixtures", "list"]
try:
    cli.main()
except SystemExit as exc:
    assert exc.code == 0
print([os.environ.get(name) for name in NAMES], file=sys.stderr)
"""
    src = str(Path(mbqcflow.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key not in names}
    env.update(preset, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script.replace("NAMES", repr(names))],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stderr == f"{want}\n"
