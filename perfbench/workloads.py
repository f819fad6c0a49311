"""Seeded workload inputs, the work of one instance, and the output checks.

Every workload is a pool of instances built from a seed alone; the timed
loop cycles through the pool.  ``run`` performs one instance through the
public ``mbqcflow`` API (or the CLI for ``cli-session``) and returns the raw
result; ``summarize`` turns it into plain data outside the timed region.
``check`` compares summaries against independent references after the
loop, and ``digest_item`` picks the exact (non-float) outputs that the
output digest covers.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import mbqcflow as mf
from mbqcflow.fixtures import cluster_graph

#: Tolerance between the symbolic unitary and the dense oracle.
UNITARY_TOLERANCE = 1e-9

#: Largest register on which the sim-terms unitary is checked against the oracle.
ORACLE_CHECK_LIMIT = 14

#: Share of vertex pairs joined in the random gFlow graphs.
EDGE_DENSITY = 0.4

#: Grid offsets (rows, columns) of extra edges.  Edges of these keep a gFlow;
GFLOW_KEEPING_MOVES = ((2, 0), (2, 1), (2, -1))
#: edges of these usually do (sim-clifford redraws until one exists);
DIAGONAL_MOVES = ((1, 1), (1, -1))
#: one edge of these destroys it, and peeling stops about where it sits.
GFLOW_BREAKING_MOVES = ((0, 2), (1, 2), (1, -2))


@dataclass
class Instance:
    """One input of a workload; only the fields the workload uses are set."""

    index: int
    label: str
    graph: mf.OpenGraph | None = None
    gflow: mf.GFlow | None = None
    pattern: mf.MeasurementPattern | None = None
    argv: tuple[str, ...] = ()
    expected_exit: int | None = None
    files: dict[str, str] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.graph.n if self.graph is not None else 0

    @property
    def measured(self) -> int:
        return len(self.graph.measured) if self.graph is not None else 0

    def manifest_item(self) -> dict:
        item: dict[str, Any] = {"label": self.label}
        if self.graph is not None:
            item["graph"] = self.graph.to_json_dict()
        if self.gflow is not None:
            item["gflow"] = self.gflow.to_json_dict()
        if self.pattern is not None:
            item["pattern"] = self.pattern.to_json_dict()
        if self.argv:
            item["argv"] = list(self.argv)
            item["files"] = self.files
        return item


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[np.random.Generator], list[Instance]]
    run: Callable[[Instance], Any]
    summarize: Callable[[Instance, Any], dict]
    check: Callable[[Instance, dict], list[str]]
    digest_item: Callable[[Instance, dict], Any]


# -- input generation -------------------------------------------------------


def perturbed_grid(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    moves: tuple[tuple[int, int], ...] = (),
    extra_edges: int = 0,
    columns: tuple[int, int] | None = None,
) -> mf.OpenGraph:
    """Cluster grid plus ``extra_edges`` random short-range edges.

    Each extra edge joins a random site, in the column range ``columns``
    (half-open; default all), to the site one of ``moves`` away; draws
    that fall off the grid are redrawn.
    """
    base = cluster_graph(rows, cols)
    low, high = columns or (0, cols)
    edges = set(base.edges)
    while len(edges) < len(base.edges) + extra_edges:
        r, c = int(rng.integers(rows)), int(rng.integers(low, high))
        dr, dc = moves[int(rng.integers(len(moves)))]
        if 0 <= r + dr < rows and 0 <= c + dc < cols:
            u, v = r * cols + c, (r + dr) * cols + c + dc
            edges.add((min(u, v), max(u, v)))
    return mf.OpenGraph(n=base.n, edges=sorted(edges), inputs=base.inputs, outputs=base.outputs)


def random_gflow_graph(rng: np.random.Generator, n: int, k: int) -> mf.OpenGraph:
    """Random n-vertex graph with k inputs, k outputs and a gFlow.

    The edge count is fixed at ``EDGE_DENSITY`` of all pairs, because the
    dense oracle's cost grows with it; edge sets are drawn until
    ``find_gflow`` succeeds, so the result depends on the generator alone.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    count = round(EDGE_DENSITY * len(pairs))
    while True:
        chosen = rng.choice(len(pairs), size=count, replace=False)
        order = [int(v) for v in rng.permutation(n)]
        graph = mf.OpenGraph(
            n=n, edges=[pairs[i] for i in chosen], inputs=order[k : 2 * k], outputs=order[:k]
        )
        if mf.find_gflow(graph) is not None:
            return graph


def random_pattern(
    rng: np.random.Generator, graph: mf.OpenGraph, clifford: bool
) -> mf.MeasurementPattern:
    """XY angles on every measured vertex: uniform, or multiples of pi/2."""
    if clifford:
        angles = {v: float(rng.integers(4)) * math.pi / 2 for v in graph.measured}
    else:
        angles = {v: float(rng.uniform(0.0, 2 * math.pi)) for v in graph.measured}
    return mf.MeasurementPattern(angles=angles)


def _with_gflow(index: int, label: str, graph: mf.OpenGraph, rng, clifford: bool) -> Instance:
    gflow = mf.find_gflow(graph)
    if gflow is None:
        raise ValueError(f"generated instance {label} has no gFlow")
    return Instance(index, label, graph, gflow, random_pattern(rng, graph, clifford))


# -- flow-scan --------------------------------------------------------------

FLOW_SCAN_SHAPES = ((4, 20), (4, 30), (5, 20), (5, 26), (6, 18), (6, 24), (3, 40), (4, 33))


def build_flow_scan(rng: np.random.Generator) -> list[Instance]:
    """Each shape plain, with gFlow-keeping edges, and broken mid-way and late.

    One gFlow-breaking edge stops peeling where it sits, so placing it in
    a fixed column band fixes how much work the negative instance does.
    """
    pool = []
    for rows, cols in FLOW_SCAN_SHAPES:
        mid, late = (cols // 2 - 1, cols // 2 + 2), (cols - 5, cols - 2)
        variants = (
            ("cluster", perturbed_grid(rng, rows, cols)),
            ("long", perturbed_grid(rng, rows, cols, GFLOW_KEEPING_MOVES, 3)),
            ("broken-mid", perturbed_grid(rng, rows, cols, GFLOW_BREAKING_MOVES, 1, mid)),
            ("broken-late", perturbed_grid(rng, rows, cols, GFLOW_BREAKING_MOVES, 1, late)),
        )
        for kind, graph in variants:
            pool.append(Instance(len(pool), f"{kind}-{rows}x{cols}", graph))
    return pool


def run_flow_scan(inst: Instance) -> dict:
    graph = inst.graph
    out: dict[str, Any] = {
        "gflow": mf.find_gflow(graph),
        "causal": mf.find_causal_flow(graph),
    }
    gflow = out["gflow"]
    if gflow is not None:
        out["violations"] = mf.verify_gflow(graph, gflow)
        out["report"] = mf.correction_dependencies(graph, gflow)
        out["wires"] = mf.flow_wires(graph, gflow)
        out["cone"] = mf.max_forward_cone(graph, gflow)
        out["bound"] = mf.flow_entanglement_bound(graph, gflow, out["wires"])
    return out


def summarize_flow_scan(inst: Instance, out: dict) -> dict:
    gflow, causal = out["gflow"], out["causal"]
    summary: dict[str, Any] = {
        "gflow": gflow.to_json_dict() if gflow is not None else None,
        "causal_depth": causal.depth if causal is not None else None,
    }
    if gflow is not None:
        summary.update(
            violations=len(out["violations"]),
            correction_cost=out["report"].total_cost,
            wires=[list(w) for w in out["wires"].wires],
            cone=list(out["cone"]),
            flow_bound=out["bound"].bound,
        )
    return summary


def check_flow_scan(inst: Instance, s: dict) -> list[str]:
    problems = []
    if s["gflow"] is not None and s["violations"]:
        problems.append("found gFlow fails verify_gflow")
    if s["causal_depth"] is not None:
        if s["gflow"] is None:
            problems.append("causal flow found but no gFlow")
        elif len(s["gflow"]["layers"]) - 1 > s["causal_depth"]:
            problems.append("gFlow deeper than the causal flow")
    return problems


def digest_flow_scan(inst: Instance, s: dict) -> Any:
    return [
        s["gflow"],
        s["gflow"] is not None,
        s["causal_depth"] is not None,
        s.get("cone"),
        s.get("correction_cost"),
        s.get("flow_bound"),
    ]


# -- sim-terms / sim-clifford -----------------------------------------------

#: Pools are shaped so that the p50 and the p90 fall inside a run of
#: instances of similar cost: small changes then move them smoothly.
SIM_TERMS_SHAPES = (
    (2, 10), (2, 10), (2, 10), (4, 5), (4, 5), (3, 7), (3, 7), (3, 7),
    (2, 11), (2, 11), (3, 8), (3, 8), (3, 8), (3, 8),
)
#: (vertices, inputs) of the random gFlow graphs; each has as many outputs.
SIM_TERMS_RANDOM = ((10, 3), (11, 4), (12, 4), (12, 5), (13, 5), (14, 6))
SIM_CLIFFORD_SHAPES = ((3, 10), (3, 12), (4, 12), (5, 10), (3, 16), (4, 12), (6, 10), (6, 12), (6, 12))


def build_sim_terms(rng: np.random.Generator) -> list[Instance]:
    """Random-angle patterns on small clusters and random gFlow graphs."""
    pool = []
    for rows, cols in SIM_TERMS_SHAPES:
        pool.append(_with_gflow(len(pool), f"cluster-{rows}x{cols}", cluster_graph(rows, cols), rng, False))
    for n, k in SIM_TERMS_RANDOM:
        graph = random_gflow_graph(rng, n, k)
        pool.append(_with_gflow(len(pool), f"random-n{n}-k{k}", graph, rng, False))
    return pool


def build_sim_clifford(rng: np.random.Generator) -> list[Instance]:
    """Pi/2-multiple angles on wider clusters, plain and diagonal-perturbed."""
    pool = []
    for rows, cols in SIM_CLIFFORD_SHAPES:
        pool.append(_with_gflow(len(pool), f"cluster-{rows}x{cols}", cluster_graph(rows, cols), rng, True))
        while True:
            graph = perturbed_grid(rng, rows, cols, DIAGONAL_MOVES, int(rng.integers(2, 7)))
            if mf.find_gflow(graph) is not None:
                break
        pool.append(_with_gflow(len(pool), f"diag-{rows}x{cols}", graph, rng, True))
    return pool


def run_simulation(inst: Instance):
    return mf.simulate_pattern(inst.graph, inst.gflow, inst.pattern)


def summarize_simulation(inst: Instance, result) -> dict:
    return {
        "high_water": [[f"{kind}{v}", c] for (kind, v), c in sorted(result.high_water.items())],
        "cone_sizes": sorted(result.cone_sizes.items()),
        "bound_ok": all(result.bound_ok.values()),
        "unitary": result.unitary,
    }


def check_sim_terms(inst: Instance, s: dict) -> list[str]:
    # bound_ok is digested, not checked: it may be False on graphs outside
    # the fixture families (tests/test_simulate.py pins such a case).
    if inst.n <= ORACLE_CHECK_LIMIT and s["unitary"] is not None:
        reference = mf.oracle_unitary(inst.graph, inst.gflow, inst.pattern)
        if not np.allclose(s["unitary"], reference, rtol=0.0, atol=UNITARY_TOLERANCE):
            return ["symbolic unitary differs from the dense oracle"]
    return []


def check_sim_clifford(inst: Instance, s: dict) -> list[str]:
    if any(count != 1 for _, count in s["high_water"]):
        return ["Clifford pattern left a logical with more than one term"]
    return []


def digest_simulation(inst: Instance, s: dict) -> Any:
    return [s["high_water"], s["cone_sizes"], s["bound_ok"]]


# -- exact-small ------------------------------------------------------------

#: (vertices, inputs) of the random graphs: at most six measured vertices,
#: with the n = 10 graphs as the middle and the top of the cost range.
EXACT_SMALL_SIZES = (
    (6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3), (9, 3), (9, 4),
    (10, 5), (10, 5), (10, 5), (10, 5), (10, 5), (10, 5), (10, 4), (10, 4), (10, 4), (10, 4),
)


def build_exact_small(rng: np.random.Generator) -> list[Instance]:
    """Small gFlow graphs with at most 64 branches, plus two small clusters."""
    pool = [
        _with_gflow(0, "cluster-2x4", cluster_graph(2, 4), rng, False),
        _with_gflow(1, "cluster-3x3", cluster_graph(3, 3), rng, False),
    ]
    for n, k in EXACT_SMALL_SIZES:
        graph = random_gflow_graph(rng, n, k)
        pool.append(_with_gflow(len(pool), f"random-n{n}-k{k}", graph, rng, False))
    return pool


def run_exact_small(inst: Instance) -> dict:
    graph, gflow, pattern = inst.graph, inst.gflow, inst.pattern
    budget = max(mf.oracle.DEFAULT_BRANCH_BUDGET, 2 ** inst.measured)
    return {
        "determinism": mf.check_determinism(graph, gflow, pattern, branch_budget=budget),
        "unitary": mf.oracle_unitary(graph, gflow, pattern),
        "e_struc": mf.structural_entanglement_exact(graph, max_vertices=graph.n),
        "chi_wd": mf.entanglement_width_exact(graph, max_vertices=graph.n),
    }


def summarize_exact_small(inst: Instance, out: dict) -> dict:
    report = out["determinism"]
    return {
        "deterministic": report.ok,
        "branch_count": report.branch_count,
        "e_struc": out["e_struc"],
        "chi_wd": out["chi_wd"],
    }


def check_exact_small(inst: Instance, s: dict) -> list[str]:
    problems = [] if s["deterministic"] else ["check_determinism is not ok"]
    flow_bound = mf.flow_entanglement_bound(inst.graph, inst.gflow).bound
    if s["e_struc"] > flow_bound:
        problems.append("structural entanglement exceeds the flow bound")
    return problems


def digest_exact_small(inst: Instance, s: dict) -> Any:
    return [s["deterministic"], s["branch_count"], s["e_struc"], s["chi_wd"]]


# -- cli-session ------------------------------------------------------------

CLI_SCHEMA_VERSION = 1


def cli_command_name(argv: tuple[str, ...]) -> str:
    """Command words joined by ``_`` (``flow find`` -> ``flow_find``)."""
    two_word = {"graph", "flow", "oracle", "fixtures"}
    return "_".join(argv[:2]) if argv[0] in two_word else argv[0]


def build_cli_session(rng: np.random.Generator) -> list[Instance]:
    """A fixed script over the fixtures plus seeded small graphs.

    Files are returned as contents keyed by relative name; the worker
    writes them into its scratch directory before the first call.
    """
    files: dict[str, str] = {}

    def graph_file(name: str, graph: mf.OpenGraph) -> str:
        files[f"{name}.json"] = graph.to_json()
        return f"{name}.json"

    fixtures = mf.fixtures
    cases = {
        "fig4": (fixtures.fig4_graph(), fixtures.fig4_flow().to_gflow()),
        "fig3b": (fixtures.fig3b_graph(), fixtures.fig3b_gflow()),
        "cluster": (cluster_graph(2, 3), mf.find_gflow(cluster_graph(2, 3))),
    }
    for seq, (n, k) in enumerate(((7, 3), (8, 3))):
        graph = random_gflow_graph(rng, n, k)
        cases[f"seeded{seq}"] = (graph, mf.find_gflow(graph))
    paths = {}
    for name, (graph, gflow) in cases.items():
        paths[name] = (
            graph_file(name, graph),
            f"{name}.gflow.json",
            f"{name}.pattern.json",
        )
        files[paths[name][1]] = gflow.to_json()
        files[paths[name][2]] = random_pattern(rng, graph, clifford=False).to_json()
    bottleneck = graph_file("bottleneck", fixtures.bottleneck_graph())

    expected = [
        (("graph", "gen", "fig4", "--with-gflow"), 0),
        (("graph", "gen", "fig3b", "--with-gflow", "--gflow-variant", "wide"), 0),
        (("graph", "gen", "cluster", "--rows", "2", "--cols", "3"), 0),
        (("graph", "gen", "path", "--n", str(int(rng.integers(4, 9)))), 0),
        (("flow", "find", "--graph", bottleneck), 1),
        (("flow", "find", "--graph", paths["fig3b"][0], "--causal"), 1),
    ]
    for name in ("fig4", "fig3b", "seeded0", "seeded1"):
        g, f, p = paths[name]
        expected += [
            (("flow", "find", "--graph", g), 0),
            (("flow", "verify", "--graph", g, "--gflow", f), 0),
        ]
    for name in ("fig4", "seeded0", "seeded1"):
        is_flow = mf.find_causal_flow(cases[name][0]) is not None
        expected.append((("flow", "find", "--graph", paths[name][0], "--causal"), 0 if is_flow else 1))
    for name in ("fig4", "fig3b", "seeded0"):
        g, f, p = paths[name]
        expected += [
            (("flow", "report", "--graph", g, "--gflow", f), 0),
            (("cone", "--graph", g, "--gflow", f, "--vertex", str(cases[name][0].inputs[0])), 0),
            (("bounds", "--graph", g, "--gflow", f), 0),
        ]
    for name in ("cluster", "seeded0", "seeded1"):
        g, f, p = paths[name]
        expected += [
            (("simulate", "--graph", g, "--gflow", f, "--pattern", p, "--report-terms"), 0),
            (("oracle", "unitary", "--graph", g, "--gflow", f, "--pattern", p), 0),
            (("oracle", "determinism", "--graph", g, "--gflow", f, "--pattern", p), 0),
        ]
    pool = [
        Instance(index, cli_command_name(argv), argv=argv, expected_exit=code)
        for index, (argv, code) in enumerate(expected)
    ]
    pool[0].files = files
    return pool


def run_cli_subprocess(inst: Instance) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "mbqcflow.cli", *inst.argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return proc.returncode, proc.stdout


def summarize_cli(inst: Instance, out: tuple[int, bytes]) -> dict:
    code, stdout = out
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    summary: dict[str, Any] = {
        "exit": code,
        "schema_version": payload.get("schema_version") if isinstance(payload, dict) else None,
        "stdout_bytes": len(stdout),
    }
    if inst.argv[:2] == ("flow", "find") and isinstance(payload, dict):
        summary["gflow"] = payload.get("gflow")
    return summary


def check_cli(inst: Instance, s: dict) -> list[str]:
    problems = []
    if s["exit"] != inst.expected_exit:
        problems.append(f"exit {s['exit']}, expected {inst.expected_exit}")
    if s["schema_version"] != CLI_SCHEMA_VERSION:
        problems.append(f"schema_version {s['schema_version']!r}")
    return problems


def digest_cli(inst: Instance, s: dict) -> Any:
    return [s["exit"], s.get("gflow")]


# -- registry ---------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "flow-scan", build_flow_scan, run_flow_scan,
            summarize_flow_scan, check_flow_scan, digest_flow_scan,
        ),
        Workload(
            "sim-terms", build_sim_terms, run_simulation,
            summarize_simulation, check_sim_terms, digest_simulation,
        ),
        Workload(
            "sim-clifford", build_sim_clifford, run_simulation,
            summarize_simulation, check_sim_clifford, digest_simulation,
        ),
        Workload(
            "exact-small", build_exact_small, run_exact_small,
            summarize_exact_small, check_exact_small, digest_exact_small,
        ),
        Workload(
            "cli-session", build_cli_session, run_cli_subprocess,
            summarize_cli, check_cli, digest_cli,
        ),
    )
}


def build_pool(name: str, seed: int) -> list[Instance]:
    return WORKLOADS[name].build(np.random.default_rng([seed, _name_key(name)]))


def _name_key(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")


def digest(items: Any) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
