"""Dense statevector ground truth for open-graph measurement patterns.

Everything here works on explicit complex amplitude vectors: open graph
states are built by applying CZ along every edge, and a branch measures
the qubits in gflow order.  Measuring a qubit contracts it against the
conjugated closed-form basis vector of its outcome, so the register
halves at every step and what is left at the end is the output register;
the gflow correction of a -1 outcome acts on the qubits still held.  The
implemented unitary is reassembled column by column.  Correction
operators are applied as raw X/Z bitmasks (global phase dropped), keeping
this module independent of the symbolic Pauli machinery it validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import BudgetExceededError, DeterminismError
from .flow import GFlow, check_pattern
from .graph import OpenGraph
from .pattern import MeasurementPattern, Plane

#: Largest register a dense state is allowed to hold.
DEFAULT_DENSE_LIMIT = 14

#: Cap on the number of branches enumerated by the determinism check.
DEFAULT_BRANCH_BUDGET = 2**12

_ZERO_PROBABILITY = 1e-12

#: Largest fidelity loss and unitarity deviation the checks accept.
_TOLERANCE = 1e-9

#: Pauli flipping the two projectors of a plane into each other.
_PLANE_FLIP = {Plane.XY: "Z", Plane.XZ: "Y", Plane.YZ: "X"}


def measurement_basis(plane: Plane, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (+1, -1) eigenbasis of the plane's angle-theta observable.

    The observable is ``cos(theta) A + sin(theta) B`` with (A, B) = (X, Y),
    (X, Z) and (Y, Z) for XY, XZ and YZ.  XY has plus = (1, e^{i theta})/sqrt2
    and minus = (1, -e^{i theta})/sqrt2.  XZ and YZ have the Bloch vector
    at polar angle pi/2 - theta, so with half-angle amplitudes
    c = cos(pi/4 - theta/2), s = sin(pi/4 - theta/2) and the azimuth phase
    p = 1 (XZ) or i (YZ): plus = (c, p s) and minus = (s, -p c).
    """
    if plane is Plane.XY:
        phase = np.exp(1j * angle)
        return (
            np.array([1.0, phase]) / np.sqrt(2),
            np.array([1.0, -phase]) / np.sqrt(2),
        )
    half = np.pi / 4 - angle / 2
    c, s = np.cos(half), np.sin(half)
    p = 1.0 if plane is Plane.XZ else 1j
    return np.array([c, p * s], dtype=complex), np.array([s, -p * c], dtype=complex)


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

    Measured qubits are processed in ``gflow.measurement_order``, which
    must hold every non-output vertex exactly once.  Each is
    contracted away against its outcome's basis vector, and after a -1
    outcome the gflow correction, restricted to the still-unmeasured
    qubits, is applied.  The surviving outputs are returned in output
    order.  Zero-probability branches are reported with probability 0 and
    no state rather than as an error.
    """
    order = gflow.measurement_order
    if sorted(order) != list(graph.measured):
        raise ValueError(
            f"gflow layers measure {sorted(order)} but the non-output "
            f"vertices are {list(graph.measured)}"
        )
    state = build_open_graph_state(graph, input_state, dense_limit)
    missing = set(order) - set(branch_bits)
    if missing:
        raise ValueError(f"branch bits missing for vertices {sorted(missing)}")
    check_pattern(gflow, pattern)
    held = list(range(graph.n))  # held[k] is the vertex at bit k of ``state``
    step_probs: list[float] = []
    outcomes: dict[int, int] = {}
    for v in order:
        outcome = int(branch_bits[v]) & 1
        vector = measurement_basis(pattern.plane(v), pattern.angle(v))[outcome]
        pos = held.index(v)
        state = (vector.conj() @ state.reshape(-1, 2, 1 << pos)).reshape(-1)
        del held[pos]
        prob = float(np.linalg.norm(state) ** 2)
        if prob < _ZERO_PROBABILITY:
            prob = 0.0
        outcomes[v] = outcome
        step_probs.append(prob)
        if prob == 0.0:
            return BranchRecord(
                outcomes=outcomes,
                step_probabilities=tuple(step_probs),
                probability=0.0,
                output_state=None,
            )
        state /= np.sqrt(prob)
        if outcome == 1:
            x_mask, z_mask = correction_masks(graph, gflow, v)
            state = apply_word_masks(state, _on_held(x_mask, held), _on_held(z_mask, held))
    # Axis k of the tensor holds bit len(held)-1-k; put output k at bit k.
    perm = [len(held) - 1 - held.index(q) for q in reversed(graph.outputs)]
    output_state = np.transpose(state.reshape([2] * len(held)), perm).reshape(-1)
    total = float(np.prod(step_probs)) if step_probs else 1.0
    return BranchRecord(
        outcomes=outcomes,
        step_probabilities=tuple(step_probs),
        probability=total,
        output_state=output_state,
    )


def _on_held(mask: int, held: list[int]) -> int:
    """``mask`` restricted to the held vertices, re-indexed to their bits."""
    return sum(1 << k for k, q in enumerate(held) if (mask >> q) & 1)


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
) -> DeterminismReport:
    """Compare every branch's output against branch 0 on a random input.

    True when each nonzero-probability branch reproduces the branch-0
    output up to global phase with fidelity within ``_TOLERANCE`` of 1.
    The worst single-measurement deviation from probability 1/2 is
    reported alongside.
    """
    measured = sorted(gflow.measurement_order)
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
        if fidelity < 1.0 - _TOLERANCE:
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
    bits = dict.fromkeys(gflow.measurement_order, 0)
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
    if deviation > _TOLERANCE:
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
