"""Dense statevector ground truth for open-graph measurement patterns.

Everything here works on explicit complex amplitude vectors: open graph
states are built by applying CZ along every edge, measurements project
branch by branch with the gflow corrections applied on the -1 outcomes,
and the implemented unitary is reassembled column by column.  Correction
operators are applied as raw X/Z bitmasks (global phase dropped), keeping
this module independent of the symbolic Pauli machinery it validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import BudgetExceededError, DeterminismError
from .flow import GFlow
from .graph import OpenGraph
from .pattern import MeasurementPattern, Plane

#: Largest register a dense state is allowed to hold.
DEFAULT_DENSE_LIMIT = 14

#: Cap on the number of branches enumerated by the determinism check.
DEFAULT_BRANCH_BUDGET = 2**12

_ZERO_PROBABILITY = 1e-12

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Observable axes spanning each measurement plane (angle 0 is the first).
_PLANE_AXES = {Plane.XY: ("X", "Y"), Plane.XZ: ("X", "Z"), Plane.YZ: ("Y", "Z")}

#: Pauli flipping the two projectors of a plane into each other.
_PLANE_FLIP = {Plane.XY: "Z", Plane.XZ: "Y", Plane.YZ: "X"}


def measurement_basis(plane: Plane, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (+1, -1) eigenbasis of the plane's angle-theta observable."""
    a, b = _PLANE_AXES[plane]
    observable = np.cos(angle) * _PAULI[a] + np.sin(angle) * _PAULI[b]
    eigvals, eigvecs = np.linalg.eigh(observable)
    plus = eigvecs[:, int(np.argmax(eigvals))]
    minus = eigvecs[:, int(np.argmin(eigvals))]
    return plus, minus


def build_open_graph_state(
    graph: OpenGraph,
    input_state: np.ndarray | None = None,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> np.ndarray:
    """CZ along every edge applied to the input state padded with |+> qubits.

    ``input_state`` lives on the input qubits in input order (qubit k of
    the small register is the k-th input vertex); None means |+...+>.
    """
    if graph.n > dense_limit:
        raise BudgetExceededError(
            f"{graph.n} qubits exceed the dense limit of {dense_limit}"
        )
    k = len(graph.inputs)
    dim = 1 << graph.n
    idx = np.arange(dim)
    if input_state is None:
        amp = np.full(dim, 2.0 ** (-graph.n / 2), dtype=complex)
    else:
        input_state = np.asarray(input_state, dtype=complex)
        if input_state.shape != (1 << k,):
            raise ValueError("input state dimension does not match the input count")
        norm = np.linalg.norm(input_state)
        if norm < _ZERO_PROBABILITY:
            raise ValueError("input state has zero norm")
        input_state = input_state / norm
        key = np.zeros(dim, dtype=np.int64)
        for pos, vertex in enumerate(graph.inputs):
            key |= ((idx >> vertex) & 1) << pos
        amp = input_state[key] * 2.0 ** (-(graph.n - k) / 2)
    for u, v in graph.edges:
        both = ((idx >> u) & (idx >> v) & 1).astype(bool)
        amp[both] *= -1
    return amp


def apply_word_masks(state: np.ndarray, x_mask: int, z_mask: int) -> np.ndarray:
    """Apply ``X^x Z^z`` (phase-free) to a dense state."""
    dim = state.shape[0]
    idx = np.arange(dim)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & z_mask) & 1)
    return (signs * state)[idx ^ x_mask]


def _project(
    state: np.ndarray, qubit: int, basis_state: np.ndarray
) -> tuple[np.ndarray, float]:
    """Project one qubit onto a single-qubit state; returns (state, probability)."""
    dim = state.shape[0]
    idx = np.arange(dim)
    bit = (idx >> qubit) & 1
    overlap = np.where(bit == 0, basis_state[0], basis_state[1]).conj() * state
    # Partial inner product lives on the qubit=0 slice; rebuild the product state.
    partial = np.zeros(dim, dtype=complex)
    np.add.at(partial, idx & ~(1 << qubit), overlap)
    prob = float(np.linalg.norm(partial) ** 2)
    if prob < _ZERO_PROBABILITY:
        return np.zeros_like(state), 0.0
    out = np.where(bit == 0, basis_state[0], basis_state[1]) * partial[
        idx & ~(1 << qubit)
    ]
    return out / np.sqrt(prob), prob


def correction_masks(graph: OpenGraph, gflow: GFlow, vertex: int) -> tuple[int, int]:
    """X/Z bitmasks of the correction for ``vertex`` (global phase dropped).

    The stabilizer product over the correcting set contributes X on the
    set and Z on its odd neighbourhood; the plane's flip Pauli on the
    measured vertex cancels the on-site factor for a valid gflow.
    """
    corr = gflow.corrections[vertex]
    x_mask = 0
    z_mask = 0
    for j in corr:
        x_mask ^= 1 << j
        z_mask ^= graph.adjacency_masks[j]
    flip = _PLANE_FLIP[gflow.planes[vertex]]
    if flip in ("X", "Y"):
        x_mask ^= 1 << vertex
    if flip in ("Z", "Y"):
        z_mask ^= 1 << vertex
    return x_mask, z_mask


@dataclass(frozen=True)
class BranchRecord:
    """Outcome bits, per-step probabilities and the surviving output state."""

    outcomes: dict[int, int]
    step_probabilities: tuple[float, ...]
    probability: float
    output_state: np.ndarray | None


def run_branch(
    graph: OpenGraph,
    gflow: GFlow,
    pattern: MeasurementPattern,
    branch_bits: Mapping[int, int],
    input_state: np.ndarray | None = None,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> BranchRecord:
    """Run one branch of the pattern with corrections on the -1 outcomes.

    Measured qubits are processed round by round in the gflow order
    (ascending index within a round); after each -1 outcome the gflow
    correction, restricted to the still-unmeasured qubits, is applied.
    Zero-probability branches are reported with probability 0 and no
    state rather than as an error.
    """
    state = build_open_graph_state(graph, input_state, dense_limit)
    measured_order = [v for layer in gflow.layers[:-1] for v in sorted(layer)]
    missing = set(measured_order) - set(branch_bits)
    if missing:
        raise ValueError(f"branch bits missing for vertices {sorted(missing)}")
    unmeasured = set(measured_order) - set(pattern.angles)
    if unmeasured:
        raise ValueError(f"pattern missing angles for vertices {sorted(unmeasured)}")
    for v in measured_order:
        if v in gflow.planes and pattern.plane(v) is not gflow.planes[v]:
            raise ValueError(
                f"pattern plane {pattern.plane(v).value} for vertex {v} "
                f"conflicts with the gflow plane {gflow.planes[v].value}"
            )
    active_mask = (1 << graph.n) - 1
    step_probs: list[float] = []
    outcomes: dict[int, int] = {}
    for v in measured_order:
        outcome = int(branch_bits[v]) & 1
        plus, minus = measurement_basis(pattern.plane(v), pattern.angle(v))
        state, prob = _project(state, v, plus if outcome == 0 else minus)
        outcomes[v] = outcome
        step_probs.append(prob)
        active_mask &= ~(1 << v)
        if prob == 0.0:
            return BranchRecord(
                outcomes=outcomes,
                step_probabilities=tuple(step_probs),
                probability=0.0,
                output_state=None,
            )
        if outcome == 1:
            x_mask, z_mask = correction_masks(graph, gflow, v)
            state = apply_word_masks(state, x_mask & active_mask, z_mask & active_mask)
    output_state = _extract_output_state(graph, state, measured_order, pattern, outcomes)
    total = float(np.prod(step_probs)) if step_probs else 1.0
    return BranchRecord(
        outcomes=outcomes,
        step_probabilities=tuple(step_probs),
        probability=total,
        output_state=output_state,
    )


def _extract_output_state(
    graph: OpenGraph,
    state: np.ndarray,
    measured_order: list[int],
    pattern: MeasurementPattern,
    outcomes: Mapping[int, int],
) -> np.ndarray:
    """Contract the measured qubits away, leaving the outputs in output order."""
    tensor = state.reshape([2] * graph.n) if graph.n else state.reshape(())
    axis_labels = list(range(graph.n - 1, -1, -1))  # axis k holds qubit n-1-k
    for v in measured_order:
        # After projection the measured qubit sits exactly in its outcome
        # basis state, so contracting against it removes the qubit exactly.
        plus, minus = measurement_basis(pattern.plane(v), pattern.angle(v))
        held = plus if outcomes[v] == 0 else minus
        axis = axis_labels.index(v)
        tensor = np.tensordot(tensor, held.conj(), axes=([axis], [0]))
        axis_labels.pop(axis)
    # Reorder the remaining axes so output k maps to bit k of the result.
    perm = [axis_labels.index(q) for q in reversed(graph.outputs)]
    return np.transpose(tensor, perm).reshape(-1)


def normalize_phase(vec: np.ndarray, tolerance: float = 1e-9) -> np.ndarray:
    """Rotate a global phase so the first significant entry is real positive."""
    flat = vec.reshape(-1)
    scale = np.max(np.abs(flat))
    if scale == 0:
        return vec
    for entry in flat:
        if abs(entry) > tolerance * scale:
            return vec * (abs(entry) / entry)
    return vec


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of the exhaustive branch comparison."""

    ok: bool
    worst_fidelity: float
    max_probability_deviation: float
    total_probability: float
    branch_count: int

    def to_json_dict(self) -> dict:
        return {
            "deterministic": self.ok,
            "worst_fidelity": self.worst_fidelity,
            "max_probability_deviation": self.max_probability_deviation,
            "total_probability": self.total_probability,
            "branch_count": self.branch_count,
        }


def check_determinism(
    graph: OpenGraph,
    gflow: GFlow,
    pattern: MeasurementPattern,
    seed: int = 0,
    branch_budget: int = DEFAULT_BRANCH_BUDGET,
    fidelity_tolerance: float = 1e-9,
) -> DeterminismReport:
    """Compare every branch's output against branch 0 on a random input.

    True when each nonzero-probability branch reproduces the branch-0
    output up to global phase with fidelity within ``fidelity_tolerance``
    of 1.  The worst single-measurement deviation from probability 1/2 is
    reported alongside.
    """
    measured = sorted(v for layer in gflow.layers[:-1] for v in layer)
    if 2 ** len(measured) > branch_budget:
        raise BudgetExceededError(
            f"2^{len(measured)} branches exceed the budget of {branch_budget}"
        )
    rng = np.random.default_rng(seed)
    k = len(graph.inputs)
    input_state = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    input_state /= np.linalg.norm(input_state)

    reference: np.ndarray | None = None
    worst_fidelity = 1.0
    max_dev = 0.0
    total = 0.0
    ok = True
    for mask in range(2 ** len(measured)):
        bits = {v: (mask >> pos) & 1 for pos, v in enumerate(measured)}
        record = run_branch(graph, gflow, pattern, bits, input_state)
        total += record.probability
        if record.probability == 0.0:
            continue
        for p in record.step_probabilities:
            max_dev = max(max_dev, abs(p - 0.5))
        if reference is None:
            reference = record.output_state
            continue
        fidelity = float(abs(np.vdot(reference, record.output_state)) ** 2)
        worst_fidelity = min(worst_fidelity, fidelity)
        if fidelity < 1.0 - fidelity_tolerance:
            ok = False
    return DeterminismReport(
        ok=ok,
        worst_fidelity=worst_fidelity,
        max_probability_deviation=max_dev,
        total_probability=total,
        branch_count=2 ** len(measured),
    )


def oracle_unitary(
    graph: OpenGraph,
    gflow: GFlow,
    pattern: MeasurementPattern,
    unitarity_tolerance: float = 1e-9,
) -> np.ndarray:
    """Unitary implemented by the pattern, assembled from branch-0 runs.

    Runs the all-+1 branch on every computational basis input and stacks
    the unnormalized output columns, which preserves their relative
    phases; the result is normalized, checked for unitarity, and brought
    to a canonical global phase (first significant entry real positive).
    """
    k = len(graph.inputs)
    if k != len(graph.outputs):
        raise ValueError("unitary extraction needs equally many inputs and outputs")
    measured = [v for layer in gflow.layers[:-1] for v in sorted(layer)]
    bits = {v: 0 for v in measured}
    dim = 1 << k
    columns = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[b] = 1.0
        record = run_branch(graph, gflow, pattern, bits, basis)
        if record.output_state is None:
            raise DeterminismError(f"branch 0 has zero probability on input {b}")
        columns[:, b] = record.output_state * np.sqrt(record.probability)
    scale = np.linalg.norm(columns[:, 0])
    if scale < _ZERO_PROBABILITY:
        raise DeterminismError("assembled map is singular")
    unitary = columns / scale
    deviation = np.max(np.abs(unitary.conj().T @ unitary - np.eye(dim)))
    if deviation > unitarity_tolerance:
        raise DeterminismError(
            f"assembled map deviates from unitarity by {deviation:.2e}"
        )
    return normalize_phase(unitary)


def schmidt_rank_log2(state: np.ndarray, n: int, side: Iterable[int]) -> int:
    """log2 of the Schmidt rank of ``state`` across (side, complement).

    The rank is determined from the singular values with a scale-relative
    threshold; for stabilizer states the spectrum is flat, so the result
    is exact and the log2 is an integer.
    """
    side_list = sorted(set(side))
    other = [q for q in range(n) if q not in side_list]
    idx = np.arange(1 << n)
    a_key = np.zeros(1 << n, dtype=np.int64)
    for pos, q in enumerate(side_list):
        a_key |= ((idx >> q) & 1) << pos
    b_key = np.zeros(1 << n, dtype=np.int64)
    for pos, q in enumerate(other):
        b_key |= ((idx >> q) & 1) << pos
    mat = np.zeros((1 << len(side_list), 1 << len(other)), dtype=complex)
    mat[a_key, b_key] = state
    singular = np.linalg.svd(mat, compute_uv=False)
    top = singular[0] if singular.size else 0.0
    if top == 0.0:
        return 0
    rank = int(np.sum(singular > 1e-6 * top))
    log2 = rank.bit_length() - 1
    if 1 << log2 != rank:
        raise ValueError(f"Schmidt rank {rank} is not a power of two")
    return log2
