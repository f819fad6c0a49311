import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mbqcflow
from mbqcflow.cli import build_parser, run_command
from mbqcflow.fixtures import (
    CATALOG,
    bottleneck_graph,
    cluster_graph,
    cluster_row_flow,
    path_flow,
    path_graph,
)

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

    def test_simulate_verifies_the_gflow_once(self, monkeypatch, capsys, path5_files):
        import mbqcflow.cli as cli_mod
        import mbqcflow.simulate as simulate_mod

        calls = []
        verify = simulate_mod.verify_gflow

        def counted(graph, gflow):
            calls.append(gflow)
            return verify(graph, gflow)

        monkeypatch.setattr(cli_mod, "verify_gflow", counted)
        monkeypatch.setattr(simulate_mod, "verify_gflow", counted)
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

    def test_budget_exit_code(self, capsys, path5_files):
        g, f, p = path5_files
        code = run_command(
            [
                "oracle",
                "determinism",
                "--graph", g,
                "--gflow", f,
                "--pattern", p,
                "--budget-branches", "2",
            ]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "budget exceeded: 2^4 branches exceed --budget-branches 2\n"
        )

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
        # Cluster 3x14 with random angles ran out of memory with no budget.
        graph, gflow = cluster_graph(3, 14), cluster_row_flow(3, 14)
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

    def test_simulate_dense_limit_exit_code(self, tmp_path):
        # Twelve isolated vertices, each an input and an output: a 12-qubit
        # unitary holds as many amplitudes as a 24-qubit state.
        graph = mbqcflow.OpenGraph(n=12, edges=[], inputs=range(12), outputs=range(12))
        (tmp_path / "g.json").write_text(graph.to_json())
        (tmp_path / "f.json").write_text(mbqcflow.find_gflow(graph).to_json())
        (tmp_path / "p.json").write_text(json.dumps({"angles": {}}))
        src = str(Path(mbqcflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mbqcflow.cli", "simulate", "--graph", "g.json",
             "--gflow", "f.json", "--pattern", "p.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "budget exceeded: 24 qubits exceed --budget-dense 14 "
            "(a 12-qubit unitary holds 4^12 amplitudes)\n"
        )

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


def subcommand_words(parser, words=()):
    """The words naming each leaf subcommand under ``parser``."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield words
        return
    for name, sub in groups[0].choices.items():
        yield from subcommand_words(sub, words + (name,))


@pytest.mark.parametrize("words", list(subcommand_words(build_parser())), ids=" ".join)
def test_every_subcommand_has_help(capsys, words):
    assert run_command([*words, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: mbqcflow {' '.join(words)} [-h]")


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


def test_cli_import_does_not_load_networkx():
    # Start-up time of every CLI call: networkx alone took about 0.2 s to import.
    src = str(Path(mbqcflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import mbqcflow.cli, sys; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "False"
