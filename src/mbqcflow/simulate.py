"""Symbolic simulation of XY-plane measurement patterns with gFlow.

The computation is tracked in the logical Heisenberg picture after a
per-qubit Z rotation turns every measurement into a Pauli X measurement.
Each input contributes two logical operators (for its initial X and Z),
expanded as complex-weighted sums of Pauli words.  Propagation multiplies
the terms that anticommute with a measured X by that vertex's correcting
stabilizer product; output extraction then strips the measured X factors,
leaving operators on the outputs that encode the implemented unitary.

Cost accounting: the number of terms per logical is recorded at every
step, to be compared against ``2**|forward cone|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import forward_cone
from .errors import DeterminismError, SimulationInvariantError
from .flow import GFlow, check_pattern, verify_gflow
from .graph import OpenGraph
from .oracle import normalize_phase
from .pattern import MeasurementPattern, Plane
from .pauli import LogicalOperator

UNITARITY_TOLERANCE = 1e-9


def rotated_stabilizer(graph: OpenGraph, vertex: int, angle: float) -> LogicalOperator:
    """Graph stabilizer of ``vertex`` conjugated by its measurement rotation.

    ``exp(i a/2 Z) (X (x) Z_neighbours) exp(-i a/2 Z)``, expanded into at
    most two Pauli words.  Only non-input vertices carry a stabilizer.
    """
    if not 0 <= vertex < graph.n:
        raise ValueError(f"vertex {vertex} out of range")
    if vertex in graph.input_set:
        raise ValueError(f"input vertex {vertex} carries no stabilizer")
    return _rotated_x_word(graph, vertex, angle)


def _rotated_x_word(graph: OpenGraph, vertex: int, angle: float) -> LogicalOperator:
    """``X_vertex (x) Z_neighbours`` conjugated by the rotation of ``vertex``."""
    x_bit = 1 << vertex
    nb_mask = graph.adjacency_masks[vertex]
    terms = {
        (x_bit, nb_mask): complex(np.cos(angle)),
        (x_bit, nb_mask | x_bit): -1j * complex(np.sin(angle)),
    }
    return LogicalOperator(graph.n, terms).prune()


@dataclass
class SimulationState:
    """Mutable carrier of stabilizers and logicals through the rounds."""

    graph: OpenGraph
    gflow: GFlow
    pattern: MeasurementPattern
    stabilizers: dict[int, LogicalOperator]
    logicals: dict[tuple[str, int], LogicalOperator]
    round_cursor: int = 0
    high_water: dict[tuple[str, int], int] = field(default_factory=dict)

    @property
    def rounds(self) -> tuple[frozenset[int], ...]:
        return self.gflow.layers[:-1]

    def record_high_water(self) -> None:
        for label, op in self.logicals.items():
            self.high_water[label] = max(self.high_water.get(label, 0), op.num_terms)


def _stabilizer_angle(pattern: MeasurementPattern, vertex: int) -> float:
    # Unmeasured (output) vertices are never rotated.
    return pattern.angles.get(vertex, 0.0)


def _correcting_operator(
    graph: OpenGraph, gflow: GFlow, pattern: MeasurementPattern, vertex: int
) -> LogicalOperator:
    """Product of rotated stabilizers over the correcting set of ``vertex``."""
    result: LogicalOperator | None = None
    for j in sorted(gflow.corrections[vertex]):
        factor = rotated_stabilizer(graph, j, _stabilizer_angle(pattern, j))
        result = factor if result is None else result * factor
    if result is None:
        raise SimulationInvariantError(f"empty correcting set for vertex {vertex}")
    return result


def initialize_simulation(
    graph: OpenGraph, gflow: GFlow, pattern: MeasurementPattern
) -> SimulationState:
    """Rotated stabilizers and initial logical operators for the pattern.

    Inputs that are measured contribute a rotated ``X (x) Z_neighbours``
    logical; unmeasured inputs keep it unrotated.  The input's Z logical
    commutes with the rotation and stays a bare Z.
    """
    if len(graph.inputs) > len(graph.outputs):
        raise ValueError("simulation requires |inputs| <= |outputs|")
    violations = verify_gflow(graph, gflow)
    if violations:
        raise ValueError(f"gflow is invalid: {violations[:3]}")
    for v, plane in gflow.planes.items():
        if plane is not Plane.XY:
            raise ValueError("symbolic simulation supports XY-plane patterns only")
    check_pattern(gflow, pattern)

    stabilizers = {
        i: _correcting_operator(graph, gflow, pattern, i)
        for i in sorted(gflow.corrections)
    }
    logicals: dict[tuple[str, int], LogicalOperator] = {}
    for i in graph.inputs:
        x_bit = 1 << i
        if i in graph.output_set:
            x_op = LogicalOperator(graph.n, {(x_bit, graph.adjacency_masks[i]): 1.0})
        else:
            x_op = _rotated_x_word(graph, i, pattern.angle(i))
        logicals[("X", i)] = x_op
        logicals[("Z", i)] = LogicalOperator(graph.n, {(0, x_bit): 1.0})

    state = SimulationState(
        graph=graph,
        gflow=gflow,
        pattern=pattern,
        stabilizers=stabilizers,
        logicals=logicals,
    )
    state.record_high_water()
    return state


def propagate_round(state: SimulationState, round_index: int) -> SimulationState:
    """Push every logical through one measurement round.

    For each vertex of the round (ascending) every Pauli term that
    anticommutes with the measured X is multiplied by that vertex's
    correcting stabilizer product; terms merge and vanishing coefficients
    are pruned (:meth:`LogicalOperator.corrected`).  Rounds must be applied
    in ascending order.
    """
    if round_index != state.round_cursor:
        raise ValueError(
            f"round {round_index} applied out of order (expected {state.round_cursor})"
        )
    if round_index >= len(state.rounds):
        raise ValueError(f"round {round_index} out of range")
    for mu in sorted(state.rounds[round_index]):
        s_mu = state.stabilizers[mu]
        for label, op in state.logicals.items():
            state.logicals[label] = op.corrected(mu, s_mu)
        state.record_high_water()
    state.round_cursor += 1
    return state


def propagate_all(state: SimulationState) -> SimulationState:
    while state.round_cursor < len(state.rounds):
        propagate_round(state, state.round_cursor)
    return state


@dataclass(frozen=True)
class FinalizedLogicals:
    """Logical operators reduced to the output register (output order)."""

    input_vertices: tuple[int, ...]
    output_vertices: tuple[int, ...]
    x_logicals: tuple[LogicalOperator, ...]
    z_logicals: tuple[LogicalOperator, ...]

    @property
    def qubit_count(self) -> int:
        return len(self.output_vertices)


def finalize_outputs(state: SimulationState) -> FinalizedLogicals:
    """Strip measured X factors and reindex the logicals onto the outputs.

    After full propagation every term is free of Z on measured vertices;
    multiplying residual X factors away (they are stabilizers of the
    post-measurement state) leaves operators supported on the outputs
    only.  Residual Z support on a measured vertex violates the gflow
    guarantee and raises :class:`SimulationInvariantError`.
    """
    if state.round_cursor != len(state.rounds):
        raise ValueError("all rounds must be propagated before finalizing")
    graph = state.graph
    out_pos = {v: pos for pos, v in enumerate(graph.outputs)}
    non_output_mask = 0
    for v in graph.measured:
        non_output_mask |= 1 << v

    def project(op: LogicalOperator) -> LogicalOperator:
        terms: dict[tuple[int, int], complex] = {}
        for (x, z), c in op.terms():
            if z & non_output_mask:
                raise SimulationInvariantError(
                    "residual anticommutation with a measured X survived propagation"
                )
            new_x = 0
            new_z = 0
            for v, pos in out_pos.items():
                if (x >> v) & 1:
                    new_x |= 1 << pos
                if (z >> v) & 1:
                    new_z |= 1 << pos
            key = (new_x, new_z)
            terms[key] = terms.get(key, 0.0) + c
        return LogicalOperator(len(out_pos), terms).prune()

    return FinalizedLogicals(
        input_vertices=tuple(graph.inputs),
        output_vertices=tuple(graph.outputs),
        x_logicals=tuple(project(state.logicals[("X", i)]) for i in graph.inputs),
        z_logicals=tuple(project(state.logicals[("Z", i)]) for i in graph.inputs),
    )


def extract_unitary(finalized: FinalizedLogicals) -> np.ndarray:
    """Factor the unitary out of the finalized logical operators.

    The logicals are images ``U P U^dag`` of the input Paulis, so the
    product of ``(1 + Lz_i)/2`` is the image of |0..0><0..0|; its
    principal eigenvector seeds the columns, which the X images then
    generate.  A transfer map that is not rank-one/unitary within
    ``UNITARITY_TOLERANCE`` means the pattern does not implement a
    unitary and raises :class:`DeterminismError`.
    """
    k = len(finalized.input_vertices)
    if k != finalized.qubit_count:
        raise ValueError("unitary extraction needs equally many inputs and outputs")
    dim = 1 << k
    lx = [op.to_matrix() for op in finalized.x_logicals]
    lz = [op.to_matrix() for op in finalized.z_logicals]
    projector = np.eye(dim, dtype=complex)
    for mat in lz:
        projector = projector @ (np.eye(dim) + mat) / 2.0
    eigvals, eigvecs = np.linalg.eigh((projector + projector.conj().T) / 2.0)
    if max(abs(eigvals[-1] - 1.0), *np.abs(eigvals[:-1])) > UNITARITY_TOLERANCE:
        raise DeterminismError(
            "transfer of |0><0| is not a rank-one projector; pattern is not unitary"
        )
    u0 = eigvecs[:, -1]
    unitary = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        image = u0
        for i in range(k):
            if (a >> i) & 1:
                image = lx[i] @ image
        unitary[:, a] = image
    deviation = np.max(np.abs(unitary.conj().T @ unitary - np.eye(dim)))
    if deviation > UNITARITY_TOLERANCE:
        raise DeterminismError(
            f"extracted map deviates from unitarity by {deviation:.2e}"
        )
    return normalize_phase(unitary)


def complex_pairs(values: np.ndarray) -> list:
    """Nested ``[re, im]`` lists of a complex array, for JSON output."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


@dataclass(frozen=True)
class SimulationResult:
    """Full pipeline output with cost accounting."""

    unitary: np.ndarray | None
    high_water: dict[tuple[str, int], int]
    cone_sizes: dict[int, int]
    bound_ok: dict[int, bool]

    def to_json_dict(self) -> dict:
        payload: dict = {
            "term_counts": {
                f"{kind}{vertex}": count
                for (kind, vertex), count in sorted(self.high_water.items())
            },
            "cone_sizes": {str(v): s for v, s in sorted(self.cone_sizes.items())},
            "cone_bound_ok": {str(v): ok for v, ok in sorted(self.bound_ok.items())},
        }
        payload["unitary"] = None if self.unitary is None else complex_pairs(self.unitary)
        return payload


def simulate_pattern(
    graph: OpenGraph, gflow: GFlow, pattern: MeasurementPattern
) -> SimulationResult:
    """Initialize, propagate all rounds, finalize, and account the cost.

    The per-input term-count high-water marks are compared against
    ``2**|forward cone|``; the unitary is extracted when the input and
    output registers have equal size.
    """
    state = initialize_simulation(graph, gflow, pattern)
    propagate_all(state)
    finalized = finalize_outputs(state)
    unitary = None
    if len(graph.inputs) == len(graph.outputs):
        unitary = extract_unitary(finalized)
    cone_sizes = {
        i: len(forward_cone(graph, gflow, i)) for i in graph.inputs
    }
    bound_ok = {}
    for i in graph.inputs:
        limit = 2 ** cone_sizes[i]
        bound_ok[i] = (
            state.high_water[("X", i)] <= limit
            and state.high_water[("Z", i)] <= limit
        )
    return SimulationResult(
        unitary=unitary,
        high_water=dict(state.high_water),
        cone_sizes=cone_sizes,
        bound_ok=bound_ok,
    )
