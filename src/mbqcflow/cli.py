"""Command-line surface: JSON in, JSON (or DOT) out.

Each subcommand is declared once, in :func:`build_parser`, by a
:func:`_command` call that names the files it reads.  One runner,
:func:`_run`, does everything around the handlers: it loads those files
in a fixed order (graph, gFlow, pattern) through :func:`_load`, then
checks the gFlow against the graph, so a file that does not parse is
reported before an invalid gFlow.  It calls the handler and prints what
it returns.  A handler is a function from the parsed arguments and the
loaded inputs to a JSON payload (optionally with an exit code) or to
DOT text.  Three commands skip the gFlow check because they check or
show the gFlow themselves: ``flow verify``, ``graph dot`` and
``simulate``, whose library call verifies it once.

Only the ``simulate``, ``oracle`` and ``bounds`` handlers load numpy,
by importing their layer when they run: every call is a fresh process,
and importing numpy takes longer than a combinatorial command's work.
So the parser reads its budget defaults from the numpy-free
:mod:`.errors`.

Exit codes: 0 success, 1 domain negative (e.g. no gFlow exists), 2
usage or parse error, 3 budget exceeded or out of memory.  A reader
that closes stdout early does not change the exit code.  Every JSON
report carries a ``schema_version`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import fixtures as fixtures_mod
from .errors import DEFAULT_DENSE_LIMIT, DEFAULT_ORDERING_BUDGET, DEFAULT_TERM_BUDGET
from .errors import DEFAULT_TREE_BUDGET
from .errors import BudgetExceededError, DeterminismError, FlowConsistencyError
from .flow import GFlow, _check_gflow_valid, correction_dependencies, find_causal_flow
from .flow import find_gflow, flow_wires, verify_gflow
from .cones import forward_cone
from .graph import OpenGraph, parse_json
from .pattern import MeasurementPattern

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

#: The files a command can read, in the order the runner loads them.
_FILE_KINDS = {"graph": OpenGraph, "gflow": GFlow, "pattern": MeasurementPattern}


def _load(path: str, kind):
    """Read the JSON file at ``path`` as a ``kind`` (graph, gFlow or pattern)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = parse_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return kind.from_json_dict(data)


def _run(args) -> int:
    """Load the command's files, check its gFlow, run its handler and print."""
    inputs = []
    for name in args.files:
        path = getattr(args, name)
        absent = name == "gflow" and args.gflow_optional and not path
        inputs.append(None if absent else _load(path, _FILE_KINDS[name]))
    if args.check_gflow and inputs[1] is not None:
        _check_gflow_valid(inputs[0], inputs[1])
    result = args.handler(args, *inputs)
    result, code = result if isinstance(result, tuple) else (result, EXIT_OK)
    try:
        if isinstance(result, str):
            sys.stdout.write(result + "\n")
        else:
            payload = {"schema_version": SCHEMA_VERSION, **result}
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``| head``), which is no error of the
        # command.  With stdout on devnull the flush at exit cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


# -- graph ----------------------------------------------------------------

#: The size options of ``graph gen``: the parameters of every fixture
#: builder, in catalog order.
_GEN_SIZES = tuple(
    dict.fromkeys(name for spec in fixtures_mod.CATALOG.values() for name in spec.parameters)
)


def _graph_gen(args):
    spec = fixtures_mod.CATALOG.get(args.fixture)
    if spec is None:
        raise ValueError(f"unknown fixture {args.fixture!r}")
    params = {k: getattr(args, k) for k in _GEN_SIZES if getattr(args, k) is not None}
    unknown = set(params) - set(spec.parameters)
    if unknown:
        raise ValueError(f"fixture {spec.name} does not take {sorted(unknown)}")
    graph = spec.build(**params)
    payload = {"graph": graph.to_json_dict()}
    if args.with_gflow:
        if args.gflow_variant == "wide":
            gflow = find_gflow(graph)
        else:
            gflow = spec.gflow() if spec.gflow else find_causal_flow(graph)
        payload["gflow"] = gflow.to_json_dict() if gflow is not None else None
    return payload


def _graph_show(args, graph):
    return {"graph": graph.to_json_dict(), "vertex_count": graph.n, "edge_count": len(graph.edges)}


def _graph_dot(args, graph, gflow):
    return graph.to_dot(gflow)


# -- flow -----------------------------------------------------------------


def _flow_find(args, graph):
    if args.causal:
        gflow, reason = find_causal_flow(graph), "no causal flow"
    else:
        gflow, reason = find_gflow(graph), "no gflow"
    if gflow is None:
        return {"gflow": None, "reason": reason}, EXIT_DOMAIN
    return {"gflow": gflow.to_json_dict()}


def _flow_verify(args, graph, gflow):
    violations = verify_gflow(graph, gflow)
    payload = {
        "valid": not violations,
        "violations": [
            {"vertex": v.vertex, "rule": v.rule, "detail": v.detail} for v in violations
        ],
    }
    return payload, EXIT_DOMAIN if violations else EXIT_OK


def _flow_report(args, graph, gflow):
    payload = correction_dependencies(graph, gflow).to_json_dict()
    payload["wires"] = flow_wires(graph, gflow).to_json_dict()
    return payload


# -- cones ----------------------------------------------------------------


def _cone(args, graph, gflow):
    cone = forward_cone(graph, gflow, args.vertex)
    if not args.dot:
        return {"vertex": args.vertex, "cone": sorted(cone), "size": len(cone)}
    *body, close = graph.to_dot(gflow).splitlines()
    highlights = [f"  {v} [fillcolor=red, style=filled];" for v in sorted(cone)]
    return "\n".join(body + highlights + [close])


# -- simulate -------------------------------------------------------------


def _simulate(args, graph, gflow, pattern):
    from .simulate import simulate_pattern

    result = simulate_pattern(
        graph, gflow, pattern, term_budget=args.budget_terms, dense_limit=args.budget_dense
    )
    payload = result.to_json_dict()
    if not args.report_terms:
        payload.pop("term_counts", None)
    return payload


# -- oracle ---------------------------------------------------------------


def _oracle_run(args, graph, gflow, pattern):
    from .oracle import complex_pairs, run_branch

    measured = sorted(gflow.measurement_order)
    if len(args.branch) != len(measured) or set(args.branch) - {"0", "1"}:
        raise ValueError(
            f"branch must be a {len(measured)}-character bitstring over "
            f"the sorted measured vertices {measured}"
        )
    bits = {v: int(bit) for v, bit in zip(measured, args.branch)}
    record = run_branch(graph, gflow, pattern, bits, dense_limit=args.budget_dense)
    state = record.output_state
    return {
        "outcomes": {str(v): b for v, b in sorted(record.outcomes.items())},
        "step_probabilities": list(record.step_probabilities),
        "probability": record.probability,
        "output_state": None if state is None else complex_pairs(state),
    }


def _oracle_determinism(args, graph, gflow, pattern):
    from .oracle import check_determinism

    report = check_determinism(graph, gflow, pattern, dense_limit=args.budget_dense)
    return report.to_json_dict(), EXIT_OK if report.ok else EXIT_DOMAIN


def _oracle_unitary(args, graph, gflow, pattern):
    from .oracle import complex_pairs, oracle_unitary

    matrix = oracle_unitary(graph, gflow, pattern, dense_limit=args.budget_dense)
    return {"unitary": complex_pairs(matrix)}


# -- bounds ---------------------------------------------------------------


def _bounds(args, graph, gflow):
    from . import bounds as bounds_mod

    payload: dict = {}
    for key, exact, budget in (
        ("e_struc_exact", bounds_mod.structural_entanglement_exact, args.budget_estruc),
        ("chi_wd_exact", bounds_mod.entanglement_width_exact, args.budget_width),
    ):
        try:
            payload[key] = exact(graph, max_vertices=budget)
        except BudgetExceededError:
            payload[key] = None
    if gflow is not None:
        payload.update(bounds_mod.flow_entanglement_bound(graph, gflow).to_json_dict())
    else:
        payload.update({"c_f": None, "delta": None, "flow_bound": None})
    return payload


# -- fixtures -------------------------------------------------------------


def _fixtures_list(args):
    fixtures = [
        {"name": spec.name, "description": spec.description, "parameters": list(spec.parameters)}
        for spec in fixtures_mod.CATALOG.values()
    ]
    return {"fixtures": fixtures}


# -- parser ---------------------------------------------------------------


def _command(
    commands, name, help_text, handler, files=(), gflow_optional=False, check_gflow=True
):
    """Declare a subcommand, its handler and the files it reads.

    ``files`` names the ``--graph``, ``--gflow`` and ``--pattern`` options
    in loading order.  Each is required, except that ``gflow_optional``
    makes an absent or empty ``--gflow`` mean no gFlow.  ``check_gflow``
    has the runner reject a gFlow that is invalid on the graph.
    """
    parser = commands.add_parser(name, help=help_text)
    for file in files:
        parser.add_argument(f"--{file}", required=not (file == "gflow" and gflow_optional))
    parser.set_defaults(
        handler=handler, files=files, gflow_optional=gflow_optional,
        check_gflow=check_gflow and "gflow" in files,
    )
    return parser


def _budget(text: str) -> int:
    """The value of a ``--budget-*`` option: an integer, 0 or more.

    argparse turns the error into a usage error (exit 2) naming the option.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbqcflow",
        description="flow analysis, simulation and entanglement bounds "
        "for open graph states",
    )
    top = parser.add_subparsers(dest="command", required=True)
    flow_files = ("graph", "gflow")
    pattern_files = ("graph", "gflow", "pattern")

    graph_p = top.add_parser("graph", help="generate, inspect or render graphs")
    graph_sub = graph_p.add_subparsers(dest="subcommand", required=True)
    gen = _command(graph_sub, "gen", "emit a named fixture graph", _graph_gen)
    gen.add_argument("fixture")
    for name in _GEN_SIZES:
        gen.add_argument(f"--{name}", type=int)
    gen.add_argument("--with-gflow", action="store_true")
    gen.add_argument("--gflow-variant", default="default", choices=["default", "wide"])
    _command(graph_sub, "show", "echo a graph in canonical form", _graph_show, ("graph",))
    _command(
        graph_sub, "dot", "render a graph as DOT", _graph_dot, flow_files,
        gflow_optional=True, check_gflow=False,
    )

    flow_p = top.add_parser("flow", help="find, verify or report flows")
    flow_sub = flow_p.add_subparsers(dest="subcommand", required=True)
    find = _command(flow_sub, "find", "find a maximally delayed (g)flow", _flow_find, ("graph",))
    find.add_argument("--causal", action="store_true", help="restrict to causal flow")
    _command(
        flow_sub, "verify", "check the gflow conditions", _flow_verify, flow_files,
        check_gflow=False,
    )
    _command(flow_sub, "report", "correction dependencies and wires", _flow_report, flow_files)

    cone = _command(top, "cone", "forward cone of a vertex", _cone, flow_files)
    cone.add_argument("--vertex", type=int, required=True)
    cone.add_argument("--dot", action="store_true")

    sim = _command(
        top, "simulate", "symbolic logical-operator simulation", _simulate, pattern_files,
        check_gflow=False,
    )
    sim.add_argument("--report-terms", action="store_true")
    sim.add_argument("--budget-terms", type=_budget, default=DEFAULT_TERM_BUDGET)
    sim.add_argument("--budget-dense", type=_budget, default=DEFAULT_DENSE_LIMIT)

    oracle_p = top.add_parser("oracle", help="dense statevector ground truth")
    oracle_sub = oracle_p.add_subparsers(dest="subcommand", required=True)
    run = _command(oracle_sub, "run", "run one branch", _oracle_run, pattern_files)
    run.add_argument("--branch", required=True, help="bitstring over sorted measured vertices")
    det = _command(
        oracle_sub, "determinism", "check stepwise determinism", _oracle_determinism, pattern_files
    )
    uni = _command(
        oracle_sub, "unitary", "assemble the implemented unitary", _oracle_unitary, pattern_files
    )
    for cmd in (run, det, uni):
        cmd.add_argument("--budget-dense", type=_budget, default=DEFAULT_DENSE_LIMIT)

    bounds_p = _command(
        top, "bounds", "entanglement measures and flow bound", _bounds, flow_files,
        gflow_optional=True,
    )
    bounds_p.add_argument("--budget-estruc", type=_budget, default=DEFAULT_ORDERING_BUDGET)
    bounds_p.add_argument("--budget-width", type=_budget, default=DEFAULT_TREE_BUDGET)

    fixtures_p = top.add_parser("fixtures", help="the named example library")
    fixtures_sub = fixtures_p.add_subparsers(dest="subcommand", required=True)
    _command(fixtures_sub, "list", "names and parameters", _fixtures_list)

    return parser


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _run(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        # A budget raised past what memory holds ends here, not in a traceback.
        budgets = [f"--{k.replace('_', '-')} {v}" for k, v in vars(args).items() if "budget" in k]
        hint = f" within {' and '.join(budgets)}" if budgets else ""
        print(f"budget exceeded: memory ran out{hint}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DeterminismError, FlowConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    # One BLAS thread unless the caller set a count: on the small matrices of
    # one call, a thread pool costs more than it saves.  Numpy is not loaded yet.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
