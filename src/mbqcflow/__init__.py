"""Flow analysis, symbolic simulation and entanglement bounds for open graph states."""

from .bounds import (
    FlowEntanglementBound,
    entanglement_width_exact,
    flow_entanglement_bound,
    structural_entanglement_exact,
)
from .cones import forward_cone, influence_region, influence_successors, max_forward_cone
from .errors import (
    BudgetExceededError,
    DeterminismError,
    FlowConsistencyError,
    SimulationInvariantError,
)
from .flow import (
    GFlow,
    Violation,
    correction_dependencies,
    find_causal_flow,
    find_gflow,
    flow_wires,
    verify_gflow,
)
from .graph import (
    OpenGraph,
    cut_edges,
    cut_rank,
    has_entanglement_capacity,
    odd_neighborhood,
)
from .oracle import (
    BranchRecord,
    DeterminismReport,
    build_open_graph_state,
    check_determinism,
    oracle_unitary,
    run_branch,
    schmidt_rank_log2,
)
from .pattern import MeasurementPattern, Plane
from .pauli import LogicalOperator
from .simulate import (
    FinalizedLogicals,
    SimulationState,
    extract_unitary,
    finalize_outputs,
    initialize_simulation,
    propagate_all,
    propagate_round,
    rotated_stabilizer,
    simulate_pattern,
)

__all__ = [
    "BranchRecord",
    "BudgetExceededError",
    "DeterminismError",
    "DeterminismReport",
    "FinalizedLogicals",
    "FlowConsistencyError",
    "FlowEntanglementBound",
    "GFlow",
    "LogicalOperator",
    "MeasurementPattern",
    "OpenGraph",
    "Plane",
    "SimulationInvariantError",
    "SimulationState",
    "Violation",
    "build_open_graph_state",
    "check_determinism",
    "correction_dependencies",
    "cut_edges",
    "cut_rank",
    "entanglement_width_exact",
    "extract_unitary",
    "finalize_outputs",
    "find_causal_flow",
    "find_gflow",
    "flow_entanglement_bound",
    "flow_wires",
    "forward_cone",
    "has_entanglement_capacity",
    "influence_region",
    "influence_successors",
    "initialize_simulation",
    "max_forward_cone",
    "odd_neighborhood",
    "oracle_unitary",
    "propagate_all",
    "propagate_round",
    "rotated_stabilizer",
    "run_branch",
    "schmidt_rank_log2",
    "simulate_pattern",
    "structural_entanglement_exact",
    "verify_gflow",
]

__version__ = "0.1.0"
