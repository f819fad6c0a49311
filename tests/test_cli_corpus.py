"""CLI corpus: every command on the fixture catalogue keeps its exit code and messages.

Each row of ``tests/cli_corpus.json`` is one argv run through
``mbqcflow.cli.run_command`` in process, from a directory that holds the
input files below.  A row records the exit code and the last stderr
line, which for an argparse usage error names the option rather than
repeating the usage text, and, for commands whose stdout holds no float
(everything but ``simulate`` and ``oracle``), the sha256 of stdout.  The inputs are the
fixture catalogue (path 2-6, cluster 2x3 and 3x3, bottleneck, fig3b,
fig4) with the gFlow ``flow find`` returns, and one seeded random-angle
and one pi/2-angle pattern each; the rows that must fail read malformed
JSON, an invalid gFlow, an out-of-range ``--vertex``, or a too-small or
negative ``--budget-*`` value.

The numeric outputs are checked elsewhere (``tests/test_corpus.py`` and
the oracle comparisons), so a change that keeps every exit code, message
and float-free output leaves this table as it is.  The one numeric check
here needs no table: for every graph, gFlow and pattern on which both
``simulate`` and ``oracle unitary`` exit 0, their printed unitaries agree
within 1e-9.  Regenerate it with
``PYTHONPATH=src python tests/test_cli_corpus.py`` after an intended
change, and say in the change which rows moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

from mbqcflow.cli import run_command
from mbqcflow.fixtures import CATALOG
from mbqcflow.flow import find_gflow

TABLE = Path(__file__).with_name("cli_corpus.json")

#: (label, fixture, graph gen options) of every input graph.
GRAPHS = [
    *((f"path{n}", "path", ["--n", str(n)]) for n in range(2, 7)),
    ("cluster2x3", "cluster", ["--rows", "2", "--cols", "3"]),
    ("cluster3x3", "cluster", ["--rows", "3", "--cols", "3"]),
    ("bottleneck", "bottleneck", []),
    ("fig3b", "fig3b", []),
    ("fig4", "fig4", []),
]

#: Commands whose stdout carries floats; their rows record no stdout digest.
FLOAT_COMMANDS = ("simulate", "oracle")


def write_inputs(directory: Path) -> list[list[str]]:
    """Write every input file into ``directory`` and return the corpus argvs."""
    rng = random.Random(2013)
    files: dict[str, object] = {"bad.json": "{", "missing-n.json": {"edges": []}}
    argvs: list[list[str]] = [["fixtures", "list"]]
    for label, fixture, options in GRAPHS:
        graph = CATALOG[fixture].build(**{k[2:]: int(v) for k, v in zip(options[::2], options[1::2])})
        g = f"{label}.json"
        files[g] = graph.to_json_dict()
        gen = ["graph", "gen", fixture, *options]
        argvs += [gen, gen + ["--with-gflow"], gen + ["--with-gflow", "--gflow-variant", "wide"]]
        argvs += [
            ["graph", "show", "--graph", g],
            ["graph", "dot", "--graph", g],
            ["flow", "find", "--graph", g],
            ["flow", "find", "--causal", "--graph", g],
            ["bounds", "--graph", g],
        ]
        gflow = find_gflow(graph)
        if gflow is None:
            continue
        f, r, c = f"{label}-gflow.json", f"{label}-random.json", f"{label}-clifford.json"
        files[f] = gflow.to_json_dict()
        measured = sorted(gflow.measurement_order)
        files[r] = {"angles": {str(v): rng.uniform(0.0, 2 * math.pi) for v in measured}}
        files[c] = {"angles": {str(v): rng.randrange(4) * math.pi / 2 for v in measured}}
        flow = ["--graph", g, "--gflow", f]
        argvs += [
            ["graph", "dot", *flow],
            ["flow", "verify", *flow],
            ["flow", "report", *flow],
            ["bounds", *flow],
            ["cone", *flow, "--vertex", "0", "--dot"],
            *(["cone", *flow, "--vertex", str(v)] for v in range(graph.n)),
        ]
        for p in (r, c):
            pattern = [*flow, "--pattern", p]
            argvs += [
                ["simulate", *pattern],
                ["simulate", *pattern, "--report-terms"],
                ["oracle", "determinism", *pattern],
                ["oracle", "unitary", *pattern],
                ["oracle", "run", *pattern, "--branch", "0" * len(measured)],
                ["oracle", "run", *pattern, "--branch", "1" * len(measured)],
            ]

    # Rows that must fail.  path4 measures 0, 1, 2 in turn; its invalid
    # gFlow corrects vertex 0 with vertex 2, which is not a neighbour.
    files["path4-invalid.json"] = {"g": {"0": [2], "1": [2], "2": [3]}, "layers": [[0], [1], [2], [3]]}
    path4 = ["--graph", "path4.json", "--gflow", "path4-gflow.json"]
    invalid = ["--graph", "path4.json", "--gflow", "path4-invalid.json"]
    big = ["--graph", "cluster3x3.json", "--gflow", "cluster3x3-gflow.json", "--pattern", "cluster3x3-random.json"]
    clifford = big[:-1] + ["cluster3x3-clifford.json"]
    argvs += [
        ["graph", "show", "--graph", "bad.json"],
        ["graph", "show", "--graph", "missing-n.json"],
        ["graph", "show", "--graph", "no-such-file.json"],
        ["graph", "gen", "no-such-fixture"],
        ["graph", "gen", "path", "--rows", "2"],
        ["flow", "verify", "--graph", "path4.json", "--gflow", "bad.json"],
        ["simulate", *path4, "--pattern", "bad.json"],
        ["flow", "verify", *invalid],
        ["flow", "report", *invalid],
        ["cone", *invalid, "--vertex", "0"],
        ["bounds", *invalid],
        ["simulate", *invalid, "--pattern", "path4-random.json"],
        ["oracle", "unitary", *invalid, "--pattern", "path4-random.json"],
        ["cone", *path4, "--vertex", "4"],
        ["cone", *path4, "--vertex", "-1"],
        ["oracle", "run", *path4, "--pattern", "path4-random.json", "--branch", "01"],
        ["simulate", *big, "--budget-terms", "1"],
        # One word per logical: six rows, so both budgets stop the first round.
        ["simulate", *clifford, "--budget-terms", "1"],
        ["simulate", *clifford, "--budget-terms", "5"],
        ["simulate", *big, "--budget-dense", "1"],
        ["oracle", "run", *big, "--branch", "000000", "--budget-dense", "1"],
        ["oracle", "determinism", *big, "--budget-dense", "1"],
        ["oracle", "unitary", *big, "--budget-dense", "1"],
        ["bounds", "--graph", "cluster3x3.json", "--budget-estruc", "1"],
        ["bounds", "--graph", "cluster3x3.json", "--budget-width", "1"],
        ["simulate", "--graph", "path4.json"],
        # A negative budget is a usage error; zero is a budget.
        ["simulate", *big, "--budget-terms", "-5"],
        ["simulate", *big, "--budget-terms", "0"],
        ["simulate", *big, "--budget-dense", "-1"],
        ["oracle", "run", *big, "--branch", "000000", "--budget-dense", "-1"],
        ["oracle", "determinism", *big, "--budget-dense", "-1"],
        ["oracle", "unitary", *big, "--budget-dense", "-1"],
        ["bounds", "--graph", "cluster3x3.json", "--budget-estruc", "-1"],
        ["bounds", "--graph", "cluster3x3.json", "--budget-width", "-1"],
        ["bounds", "--graph", "cluster3x3.json", "--budget-width", "0"],
    ]
    # A gFlow of path3 with no correcting set for the measured vertex 1
    # cannot be loaded, so even graph dot, which checks no gFlow rule,
    # exits 2.  Without options, graph gen builds its builder's defaults.
    files["path3-short.json"] = {"g": {"0": [1]}, "layers": [[0], [1], [2]]}
    argvs += [
        ["graph", "dot", "--graph", "path3.json", "--gflow", "path3-short.json"],
        ["graph", "gen", "path"],
        ["graph", "gen", "cluster"],
    ]
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (directory / name).write_text(text, encoding="utf-8")
    return argvs


def run_row(argv: list[str]) -> tuple[dict, str]:
    """Exit code, last stderr line and (when float-free) the stdout digest of one run; its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    lines = err.getvalue().splitlines()
    row = {"argv": argv, "exit": code, "stderr": lines[-1] if lines else None}
    if argv[0] not in FLOAT_COMMANDS:
        row["stdout_sha256"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return row, out.getvalue()


def corpus_rows(directory: Path) -> list[tuple[dict, str]]:
    """Every corpus row with its stdout, run from ``directory``."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        return [run_row(argv) for argv in write_inputs(directory)]
    finally:
        os.chdir(here)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> list[tuple[dict, str]]:
    return corpus_rows(tmp_path_factory.mktemp("cli-corpus"))


def test_cli_corpus_keeps_its_table(corpus):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    rows = [row for row, _ in corpus]
    assert [row["argv"] for row in rows] == [row["argv"] for row in expected]
    for row, want in zip(rows, expected):
        assert row == want, " ".join(row["argv"])


def test_graph_gen_without_options_builds_the_builder_defaults(corpus):
    # path's builder makes 5 vertices and cluster's 2x3, so 6.
    printed = {tuple(row["argv"]): out for row, out in corpus}
    for fixture, options, n in (("path", ("--n", "5"), 5), ("cluster", ("--rows", "2", "--cols", "3"), 6)):
        default = printed["graph", "gen", fixture]
        assert json.loads(default)["graph"]["n"] == n
        assert default == printed[("graph", "gen", fixture, *options)]


def test_simulate_prints_the_oracle_unitary(corpus):
    # Rows are matched by their graph, gFlow and pattern files, so the
    # --report-terms and budget variants of simulate are compared too.
    printed: dict[str, dict[tuple, list[np.ndarray]]] = {"simulate": {}, "oracle": {}}
    for row, out in corpus:
        argv = row["argv"]
        if row["exit"] == 0 and (argv[0] == "simulate" or argv[:2] == ["oracle", "unitary"]):
            files = tuple(argv[argv.index(option) + 1] for option in ("--graph", "--gflow", "--pattern"))
            unitary = np.array(json.loads(out)["unitary"], dtype=float)
            printed[argv[0]].setdefault(files, []).append(unitary[..., 0] + 1j * unitary[..., 1])
    both = printed["simulate"].keys() & printed["oracle"].keys()
    assert len(both) == 18
    for files in sorted(both):
        (reference,) = printed["oracle"][files]
        for unitary in printed["simulate"][files]:
            assert unitary.shape == reference.shape, files
            assert np.abs(unitary - reference).max() <= 1e-9, files


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = [row for row, _ in corpus_rows(Path(scratch))]
    rows = ",\n".join(json.dumps(row) for row in table)
    TABLE.write_text(f"[\n{rows}\n]\n", encoding="utf-8")
    print(f"{len(table)} rows written to {TABLE}")
