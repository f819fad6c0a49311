"""Flow analysis, symbolic simulation and entanglement bounds for open graph states.

The package root is lazy (PEP 562): ``import mbqcflow`` loads no module,
so a CLI process imports only the layers its command runs.  Reading a
module of :data:`_API` (``mbqcflow.oracle``) imports that module.  The
first read of a public name (``mbqcflow.find_gflow``) imports the whole
API at once, so every layer is in ``sys.modules`` from then on.
"""

import importlib

#: The public API: each name under the module that defines it.
_API = {
    "bounds": (
        "FlowEntanglementBound",
        "entanglement_width_exact",
        "flow_entanglement_bound",
        "structural_entanglement_exact",
    ),
    "cones": ("forward_cone", "influence_region", "influence_successors", "max_forward_cone"),
    "errors": (
        "BudgetExceededError",
        "DeterminismError",
        "FlowConsistencyError",
        "SimulationInvariantError",
    ),
    "flow": (
        "GFlow",
        "Violation",
        "correction_dependencies",
        "find_causal_flow",
        "find_gflow",
        "flow_wires",
        "verify_gflow",
    ),
    "graph": ("OpenGraph", "cut_edges", "cut_rank", "has_entanglement_capacity", "odd_neighborhood"),
    "oracle": (
        "BranchRecord",
        "DeterminismReport",
        "build_open_graph_state",
        "check_determinism",
        "oracle_unitary",
        "run_branch",
        "schmidt_rank_log2",
    ),
    "pattern": ("MeasurementPattern", "Plane"),
    "pauli": ("LogicalOperator",),
    "simulate": (
        "SimulationState",
        "extract_unitary",
        "finalize_outputs",
        "initialize_simulation",
        "propagate_all",
        "propagate_round",
        "rotated_stabilizer",
        "simulate_pattern",
    ),
}

__all__ = sorted(name for names in _API.values() for name in names)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _API:
        return importlib.import_module(f".{name}", __name__)
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module_name, names in _API.items():
        module = importlib.import_module(f".{module_name}", __name__)
        globals().update((attr, getattr(module, attr)) for attr in names)
    return globals()[name]
