"""Command-line surface: JSON in, JSON (or DOT) out.

Exit codes: 0 success, 1 domain negative (e.g. no gFlow exists), 2
usage or parse error, 3 budget exceeded.  Every JSON report carries a
``schema_version`` field.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import bounds as bounds_mod
from . import fixtures as fixtures_mod
from . import oracle as oracle_mod
from . import simulate as simulate_mod
from .errors import BudgetExceededError, DeterminismError, FlowConsistencyError
from .flow import (
    GFlow,
    correction_dependencies,
    find_causal_flow,
    find_gflow,
    flow_wires,
    verify_gflow,
)
from .cones import forward_cone
from .graph import OpenGraph, parse_json
from .pattern import MeasurementPattern
from .simulate import complex_pairs, simulate_pattern

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load(path: str, kind):
    """Read the JSON file at ``path`` as a ``kind`` (graph, gFlow or pattern)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = parse_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return kind.from_json_dict(data)


def _load_valid_gflow(path: str, graph: OpenGraph) -> GFlow:
    """Load a gFlow to analyse; a gFlow invalid on ``graph`` is a usage error."""
    gflow = _load(path, GFlow)
    violations = verify_gflow(graph, gflow)
    if violations:
        raise ValueError(f"gflow is invalid: {violations[:3]}")
    return gflow


# -- graph ----------------------------------------------------------------


def _cmd_graph_gen(args) -> int:
    spec = fixtures_mod.CATALOG.get(args.fixture)
    if spec is None:
        raise ValueError(f"unknown fixture {args.fixture!r}")
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.rows is not None:
        params["rows"] = args.rows
    if args.cols is not None:
        params["cols"] = args.cols
    unknown = set(params) - set(spec.parameters)
    if unknown:
        raise ValueError(f"fixture {spec.name} does not take {sorted(unknown)}")
    graph = spec.build(**params)
    if args.with_gflow:
        if args.gflow_variant == "wide":
            gflow = find_gflow(graph)
        else:
            gflow = fixtures_mod.fixture_gflow(spec.name)
            if gflow is None:
                gflow = find_causal_flow(graph)
        _emit(
            {
                "graph": graph.to_json_dict(),
                "gflow": gflow.to_json_dict() if gflow is not None else None,
            }
        )
    else:
        _emit({"graph": graph.to_json_dict()})
    return EXIT_OK


def _cmd_graph_show(args) -> int:
    graph = _load(args.graph, OpenGraph)
    _emit(
        {
            "graph": graph.to_json_dict(),
            "vertex_count": graph.n,
            "edge_count": len(graph.edges),
        }
    )
    return EXIT_OK


def _cmd_graph_dot(args) -> int:
    graph = _load(args.graph, OpenGraph)
    gflow = _load(args.gflow, GFlow) if args.gflow else None
    sys.stdout.write(graph.to_dot(gflow) + "\n")
    return EXIT_OK


# -- flow -----------------------------------------------------------------


def _cmd_flow_find(args) -> int:
    graph = _load(args.graph, OpenGraph)
    if args.causal:
        gflow = find_causal_flow(graph)
        reason = "no causal flow"
    else:
        gflow = find_gflow(graph)
        reason = "no gflow"
    if gflow is None:
        _emit({"gflow": None, "reason": reason})
        return EXIT_DOMAIN
    _emit({"gflow": gflow.to_json_dict()})
    return EXIT_OK


def _cmd_flow_verify(args) -> int:
    graph = _load(args.graph, OpenGraph)
    gflow = _load(args.gflow, GFlow)
    violations = verify_gflow(graph, gflow)
    _emit(
        {
            "valid": not violations,
            "violations": [
                {"vertex": v.vertex, "rule": v.rule, "detail": v.detail}
                for v in violations
            ],
        }
    )
    return EXIT_OK if not violations else EXIT_DOMAIN


def _cmd_flow_report(args) -> int:
    graph = _load(args.graph, OpenGraph)
    gflow = _load_valid_gflow(args.gflow, graph)
    report = correction_dependencies(graph, gflow)
    payload = report.to_json_dict()
    try:
        payload["wires"] = flow_wires(graph, gflow).to_json_dict()
    except FlowConsistencyError as exc:
        payload["wires"] = None
        payload["wires_error"] = str(exc)
    _emit(payload)
    return EXIT_OK


# -- cones ----------------------------------------------------------------


def _cmd_cone(args) -> int:
    graph = _load(args.graph, OpenGraph)
    gflow = _load_valid_gflow(args.gflow, graph)
    cone = forward_cone(graph, gflow, args.vertex)
    if args.dot:
        lines = graph.to_dot(gflow).splitlines()
        highlights = [
            f"  {v} [fillcolor=red, style=filled];" for v in sorted(cone)
        ]
        sys.stdout.write("\n".join(lines[:-1] + highlights + [lines[-1]]) + "\n")
        return EXIT_OK
    _emit({"vertex": args.vertex, "cone": sorted(cone), "size": len(cone)})
    return EXIT_OK


# -- simulate -------------------------------------------------------------


def _cmd_simulate(args) -> int:
    graph = _load(args.graph, OpenGraph)
    # initialize_simulation verifies the gFlow.
    gflow = _load(args.gflow, GFlow)
    pattern = _load(args.pattern, MeasurementPattern)
    result = simulate_pattern(
        graph, gflow, pattern, term_budget=args.budget_terms, dense_limit=args.budget_dense
    )
    payload = result.to_json_dict()
    if not args.report_terms:
        payload.pop("term_counts", None)
    _emit(payload)
    return EXIT_OK


# -- oracle ---------------------------------------------------------------


def _parse_branch(gflow: GFlow, text: str) -> dict[int, int]:
    measured = sorted(gflow.measurement_order)
    if len(text) != len(measured) or set(text) - {"0", "1"}:
        raise ValueError(
            f"branch must be a {len(measured)}-character bitstring over "
            f"the sorted measured vertices {measured}"
        )
    return {v: int(bit) for v, bit in zip(measured, text)}


def _cmd_oracle_run(args) -> int:
    graph = _load(args.graph, OpenGraph)
    gflow = _load_valid_gflow(args.gflow, graph)
    pattern = _load(args.pattern, MeasurementPattern)
    bits = _parse_branch(gflow, args.branch)
    record = oracle_mod.run_branch(
        graph, gflow, pattern, bits, dense_limit=args.budget_dense
    )
    _emit(
        {
            "outcomes": {str(v): b for v, b in sorted(record.outcomes.items())},
            "step_probabilities": list(record.step_probabilities),
            "probability": record.probability,
            "output_state": None
            if record.output_state is None
            else complex_pairs(record.output_state),
        }
    )
    return EXIT_OK


def _cmd_oracle_determinism(args) -> int:
    graph = _load(args.graph, OpenGraph)
    gflow = _load_valid_gflow(args.gflow, graph)
    pattern = _load(args.pattern, MeasurementPattern)
    report = oracle_mod.check_determinism(
        graph,
        gflow,
        pattern,
        seed=args.seed,
        branch_budget=args.budget_branches,
    )
    _emit(report.to_json_dict())
    return EXIT_OK if report.ok else EXIT_DOMAIN


def _cmd_oracle_unitary(args) -> int:
    graph = _load(args.graph, OpenGraph)
    gflow = _load_valid_gflow(args.gflow, graph)
    pattern = _load(args.pattern, MeasurementPattern)
    matrix = oracle_mod.oracle_unitary(graph, gflow, pattern)
    _emit({"unitary": complex_pairs(matrix)})
    return EXIT_OK


# -- bounds ---------------------------------------------------------------


def _cmd_bounds(args) -> int:
    graph = _load(args.graph, OpenGraph)
    gflow = _load_valid_gflow(args.gflow, graph) if args.gflow else None
    payload: dict = {}
    try:
        payload["e_struc_exact"] = bounds_mod.structural_entanglement_exact(
            graph, max_vertices=args.budget_estruc
        )
    except BudgetExceededError:
        payload["e_struc_exact"] = None
    try:
        payload["chi_wd_exact"] = bounds_mod.entanglement_width_exact(
            graph, max_vertices=args.budget_width
        )
    except BudgetExceededError:
        payload["chi_wd_exact"] = None
    if gflow is not None:
        report = bounds_mod.flow_entanglement_bound(graph, gflow)
        payload.update(report.to_json_dict())
    else:
        payload.update({"c_f": None, "delta": None, "flow_bound": None})
    _emit(payload)
    return EXIT_OK


# -- fixtures -------------------------------------------------------------


def _cmd_fixtures_list(_args) -> int:
    _emit(
        {
            "fixtures": [
                {
                    "name": spec.name,
                    "description": spec.description,
                    "parameters": list(spec.parameters),
                }
                for spec in fixtures_mod.CATALOG.values()
            ]
        }
    )
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbqcflow",
        description="flow analysis, simulation and entanglement bounds "
        "for open graph states",
    )
    top = parser.add_subparsers(dest="command", required=True)

    graph_p = top.add_parser("graph", help="generate, inspect or render graphs")
    graph_sub = graph_p.add_subparsers(dest="subcommand", required=True)
    gen = graph_sub.add_parser("gen", help="emit a named fixture graph")
    gen.add_argument("fixture")
    gen.add_argument("--n", type=int)
    gen.add_argument("--rows", type=int)
    gen.add_argument("--cols", type=int)
    gen.add_argument("--with-gflow", action="store_true")
    gen.add_argument("--gflow-variant", default="default", choices=["default", "wide"])
    gen.set_defaults(func=_cmd_graph_gen)
    show = graph_sub.add_parser("show", help="echo a graph in canonical form")
    show.add_argument("--graph", required=True)
    show.set_defaults(func=_cmd_graph_show)
    dot = graph_sub.add_parser("dot", help="render a graph as DOT")
    dot.add_argument("--graph", required=True)
    dot.add_argument("--gflow")
    dot.set_defaults(func=_cmd_graph_dot)

    flow_p = top.add_parser("flow", help="find, verify or report flows")
    flow_sub = flow_p.add_subparsers(dest="subcommand", required=True)
    find = flow_sub.add_parser("find", help="find a maximally delayed (g)flow")
    find.add_argument("--graph", required=True)
    find.add_argument("--causal", action="store_true", help="restrict to causal flow")
    find.set_defaults(func=_cmd_flow_find)
    verify = flow_sub.add_parser("verify", help="check the gflow conditions")
    verify.add_argument("--graph", required=True)
    verify.add_argument("--gflow", required=True)
    verify.set_defaults(func=_cmd_flow_verify)
    report = flow_sub.add_parser("report", help="correction dependencies and wires")
    report.add_argument("--graph", required=True)
    report.add_argument("--gflow", required=True)
    report.set_defaults(func=_cmd_flow_report)

    cone = top.add_parser("cone", help="forward cone of a vertex")
    cone.add_argument("--graph", required=True)
    cone.add_argument("--gflow", required=True)
    cone.add_argument("--vertex", type=int, required=True)
    cone.add_argument("--dot", action="store_true")
    cone.set_defaults(func=_cmd_cone)

    sim = top.add_parser("simulate", help="symbolic logical-operator simulation")
    sim.add_argument("--graph", required=True)
    sim.add_argument("--gflow", required=True)
    sim.add_argument("--pattern", required=True)
    sim.add_argument("--report-terms", action="store_true")
    sim.add_argument(
        "--budget-terms", type=int, default=simulate_mod.DEFAULT_TERM_BUDGET
    )
    sim.add_argument("--budget-dense", type=int, default=oracle_mod.DEFAULT_DENSE_LIMIT)
    sim.set_defaults(func=_cmd_simulate)

    oracle_p = top.add_parser("oracle", help="dense statevector ground truth")
    oracle_sub = oracle_p.add_subparsers(dest="subcommand", required=True)
    run = oracle_sub.add_parser("run", help="run one branch")
    run.add_argument("--graph", required=True)
    run.add_argument("--gflow", required=True)
    run.add_argument("--pattern", required=True)
    run.add_argument("--branch", required=True, help="bitstring over sorted measured vertices")
    run.add_argument("--budget-dense", type=int, default=oracle_mod.DEFAULT_DENSE_LIMIT)
    run.set_defaults(func=_cmd_oracle_run)
    det = oracle_sub.add_parser("determinism", help="compare all branches")
    det.add_argument("--graph", required=True)
    det.add_argument("--gflow", required=True)
    det.add_argument("--pattern", required=True)
    det.add_argument("--seed", type=int, default=0)
    det.add_argument(
        "--budget-branches", type=int, default=oracle_mod.DEFAULT_BRANCH_BUDGET
    )
    det.set_defaults(func=_cmd_oracle_determinism)
    uni = oracle_sub.add_parser("unitary", help="assemble the implemented unitary")
    uni.add_argument("--graph", required=True)
    uni.add_argument("--gflow", required=True)
    uni.add_argument("--pattern", required=True)
    uni.set_defaults(func=_cmd_oracle_unitary)

    bounds_p = top.add_parser("bounds", help="entanglement measures and flow bound")
    bounds_p.add_argument("--graph", required=True)
    bounds_p.add_argument("--gflow")
    bounds_p.add_argument(
        "--budget-estruc", type=int, default=bounds_mod.DEFAULT_ORDERING_BUDGET
    )
    bounds_p.add_argument(
        "--budget-width", type=int, default=bounds_mod.DEFAULT_TREE_BUDGET
    )
    bounds_p.set_defaults(func=_cmd_bounds)

    fixtures_p = top.add_parser("fixtures", help="the named example library")
    fixtures_sub = fixtures_p.add_subparsers(dest="subcommand", required=True)
    flist = fixtures_sub.add_parser("list", help="names and parameters")
    flist.set_defaults(func=_cmd_fixtures_list)

    return parser


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DeterminismError, FlowConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
