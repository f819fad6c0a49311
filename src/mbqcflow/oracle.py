"""Dense statevector ground truth for open-graph measurement patterns.

Everything here works on explicit complex amplitude vectors: open graph
states are built by applying CZ along every edge, and a branch measures
the qubits in gflow order.  Measuring a qubit contracts it against the
conjugated closed-form basis vector of its outcome, so the register
halves at every step and what is left at the end is the output register;
the gflow correction of a -1 outcome acts on the qubits still held.
Each state is built once, and every path measures a batch of registers:
``run_branch`` runs one branch as a batch of one, ``check_determinism``
extends every surviving outcome prefix by both outcomes at each step, so
that branches share the contractions of their common prefix, and
``oracle_unitary`` runs the all-+1 branch on the open graph state with
its input legs left open: the state built with |+> on every qubit holds
one row per assignment of the input bits, over a register of the n - k
non-input qubits.  A measured input then only scales each row by its
bra's entry at the row's bit, so the unitary costs one build and one
contraction per measured non-input qubit, each on 2^n amplitudes, where
one run per basis input would hold 2^k times as many.  All three take
the same measurement step.  A correction, X on g(v) and Z on Odd(g(v))
(``flow.correction_masks``), acts on the held qubits as raw bitmasks
(global phase dropped), keeping this module independent of the symbolic
Pauli machinery it validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DEFAULT_BRANCH_BUDGET, DEFAULT_DENSE_LIMIT
from .errors import DeterminismError, _over_budget
from .flow import GFlow, _check_gflow_shape, check_pattern, correction_masks
from .graph import OpenGraph
from .pattern import MeasurementPattern, Plane

_ZERO_PROBABILITY = 1e-12

#: Largest fidelity loss and unitarity deviation the checks accept, and the
#: share of the largest entry below which :func:`normalize_phase` skips one.
TOLERANCE = 1e-9


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

    ``input_state`` is one vector on the input qubits in input order
    (qubit k of the small register is the k-th input vertex), and is
    normalised; None means |+...+>.
    """
    if graph.n > dense_limit:
        raise _over_budget(graph.n, "qubits", "dense", dense_limit)
    k = len(graph.inputs)
    dim = 1 << graph.n
    idx = np.arange(dim)
    if input_state is None:
        amp = np.full(dim, 2.0 ** (-graph.n / 2), dtype=complex)
    else:
        input_state = np.asarray(input_state, dtype=complex)
        if input_state.shape != (1 << k,):
            raise ValueError("input state dimension does not match the input count")
        norm = np.linalg.norm(input_state, axis=-1)
        if norm < _ZERO_PROBABILITY:
            raise ValueError("input state has zero norm")
        input_state = input_state / norm
        key = np.zeros(dim, dtype=np.int64)
        for pos, vertex in enumerate(graph.inputs):
            key |= ((idx >> vertex) & 1) << pos
        amp = input_state[key] * 2.0 ** (-(graph.n - k) / 2)
    # The CZ sign is the parity of the edges inside the mask.  Each vertex
    # u adds its bit times the number of its lower neighbours in the mask,
    # so the masks whose top bit is u add it to the masks below 2^u.  The
    # uint8 count wraps modulo 256, which keeps its parity.
    edges = np.zeros(dim, dtype=np.uint8)
    for u, neighbours in enumerate(graph.adjacency_masks):
        half = 1 << u
        lower = np.bitwise_count(idx[:half] & (neighbours & (half - 1)))
        np.add(edges[:half], lower, out=edges[half : 2 * half])
    amp[(edges & 1).astype(bool)] *= -1
    return amp


def apply_word_masks(state: np.ndarray, x_mask: int, z_mask: int) -> np.ndarray:
    """Apply ``X^x Z^z`` (phase-free) to a dense state, or to each row of a batch."""
    dim = state.shape[-1]
    idx = np.arange(dim)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & z_mask) & 1)
    return (signs * state)[..., idx ^ x_mask]


class _Step(NamedTuple):
    """One measurement, fixed before any amplitude is touched."""

    vertex: int
    #: Bit of ``vertex`` in the register it is measured from.
    pos: int
    #: Conjugated basis vectors of the +1 and the -1 outcome.
    bras: tuple[np.ndarray, np.ndarray]
    #: X/Z masks of the -1 correction on the bits left after the step.
    correction: tuple[int, int]


def _prepare(
    graph: OpenGraph,
    gflow: GFlow,
    pattern: MeasurementPattern,
    input_state: np.ndarray | None,
    dense_limit: int,
    register: Iterable[int],
) -> tuple[np.ndarray, list[_Step], np.ndarray]:
    """The checks every path runs, the built state and the measurement plan.

    Checks the gflow's layer shape with ``flow._check_gflow_shape``, as
    :func:`~.flow.verify_gflow` does, so the rounds measure exactly the
    non-output vertices; then that the pattern fits the gflow and, before
    building anything exponential, that the state fits the dense limit.
    Returns the built state as a batch of one row, the measurement plan of
    a register that holds ``register``'s vertices from bit 0 up, and the
    index array that reorders the register the last step leaves so that
    output k sits at bit k.  The plan has one step per vertex of
    ``gflow.measurement_order`` in the register; an output outside it
    adds no bit to the index.
    """
    _check_gflow_shape(graph, gflow)
    check_pattern(gflow, pattern)
    state = build_open_graph_state(graph, input_state, dense_limit)[None]
    held = list(register)  # held[k] is the vertex at bit k
    steps = []
    for v in gflow.measurement_order:
        if v not in held:
            continue
        pos = held.index(v)
        del held[pos]
        x_mask, z_mask = correction_masks(graph, gflow, v)
        correction = (_on_held(x_mask, held), _on_held(z_mask, held))
        bras = tuple(b.conj() for b in measurement_basis(pattern.planes[v], pattern.angles[v]))
        steps.append(_Step(v, pos, bras, correction))
    out = np.arange(1 << len(graph.outputs))
    source = np.zeros_like(out)
    for k, q in enumerate(graph.outputs):
        if q in held:
            source |= ((out >> k) & 1) << held.index(q)
    return state, steps, source


def _measure(state: np.ndarray, step: _Step, outcome: int) -> tuple[np.ndarray, np.ndarray]:
    """Measure ``step.vertex`` of every row of ``state`` with the given outcome.

    Contracts the vertex against its outcome's basis vector, which drops
    its bit, normalises each row and, after a -1 outcome, applies the
    gflow correction.  Returns the new batch and the step probability of
    each row.  A probability below ``_ZERO_PROBABILITY`` reads 0, and its
    row is left unnormalised.
    """
    rows = len(state)
    state = (step.bras[outcome] @ state.reshape(rows, -1, 2, 1 << step.pos)).reshape(rows, -1)
    prob = np.linalg.norm(state, axis=-1) ** 2
    prob[prob < _ZERO_PROBABILITY] = 0.0
    state /= np.sqrt(np.where(prob == 0.0, 1.0, prob))[:, None]
    if outcome == 1 and prob.any():
        state = apply_word_masks(state, *step.correction)
    return state, prob


def _on_held(mask: int, held: list[int]) -> int:
    """``mask`` restricted to the held vertices, re-indexed to their bits."""
    return sum(1 << k for k, q in enumerate(held) if (mask >> q) & 1)


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
    no state rather than as an error.  This is the single-branch
    reference that the determinism batch and the unitary batch are tested
    against.
    """
    state, steps, source = _prepare(
        graph, gflow, pattern, input_state, dense_limit, range(graph.n)
    )
    missing = set(gflow.measurement_order) - set(branch_bits)
    if missing:
        raise ValueError(f"branch bits missing for vertices {sorted(missing)}")
    step_probs: list[float] = []
    outcomes: dict[int, int] = {}
    for step in steps:
        outcome = int(branch_bits[step.vertex]) & 1
        state, prob = _measure(state, step, outcome)
        outcomes[step.vertex] = outcome
        step_probs.append(float(prob[0]))
        if prob[0] == 0.0:
            break
    return BranchRecord(
        outcomes=outcomes,
        step_probabilities=tuple(step_probs),
        probability=float(np.prod(step_probs)),
        output_state=state[0, source] if all(step_probs) else None,
    )


def normalize_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first significant entry is real positive."""
    flat = vec.reshape(-1)
    scale = np.max(np.abs(flat))
    for entry in flat:
        if abs(entry) > TOLERANCE * scale:
            return vec * (abs(entry) / entry)
    return vec


def _check_unitary(k: int, outputs: int, dense_limit: int | None = None) -> None:
    """Equal registers; given ``dense_limit``, a k-qubit unitary (4^k amplitudes) as 2k qubits."""
    if k != outputs:
        raise ValueError("unitary extraction needs equally many inputs and outputs")
    if dense_limit is not None and 2 * k > dense_limit:
        note = f"a {k}-qubit unitary holds 4^{k} amplitudes"
        raise _over_budget(2 * k, "qubits", "dense", dense_limit, note)


def canonical_unitary(matrix: np.ndarray, name: str) -> np.ndarray:
    """``matrix`` in canonical phase, or DeterminismError if the ``name`` map is not unitary."""
    deviation = np.max(np.abs(matrix.conj().T @ matrix - np.eye(len(matrix))))
    if deviation > TOLERANCE:
        raise DeterminismError(f"{name} map deviates from unitarity by {deviation:.2e}")
    return normalize_phase(matrix)


def complex_pairs(values: np.ndarray) -> list:
    """Nested ``[re, im]`` lists of a complex array, for JSON output."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


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
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> DeterminismReport:
    """Compare every branch's output against branch 0 on a random input.

    True when each nonzero-probability branch reproduces the output of
    the first such branch (branch 0 unless it has probability 0) up to
    global phase with fidelity within ``TOLERANCE`` of 1.  The worst
    single-measurement deviation from probability 1/2 over those
    branches is reported alongside.

    In branch ``mask`` the measured vertex at position ``pos`` in
    ascending order has outcome bit ``pos`` of ``mask``, and branches are
    compared in mask order.  From one built state, each step of
    ``gflow.measurement_order`` measures every surviving outcome prefix
    with both outcomes and drops the prefixes of probability 0.  The
    register halves as the rows at most double, so the batch never holds
    more than 2^n amplitudes: one build and 2m batched contractions for m
    measured vertices, giving each branch the values :func:`run_branch`
    gives it.
    """
    measured = sorted(gflow.measurement_order)
    if 2 ** len(measured) > branch_budget:
        raise _over_budget(f"2^{len(measured)}", "branches", "branches", branch_budget)
    rng = np.random.default_rng(seed)
    k = len(graph.inputs)
    # Left unnormalised: build_open_graph_state normalises every input.
    input_state = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    state, steps, source = _prepare(
        graph, gflow, pattern, input_state, dense_limit, range(graph.n)
    )
    bit = {v: 1 << pos for pos, v in enumerate(measured)}
    # Per surviving prefix: outcome mask, probability, worst step deviation.
    masks = np.zeros(1, dtype=np.int64)
    probability = np.ones(1)
    deviation = np.zeros(1)
    for step in steps:
        plus, plus_prob = _measure(state, step, 0)
        minus, minus_prob = _measure(state, step, 1)
        prob = np.concatenate([plus_prob, minus_prob])
        live = prob > 0.0
        state = np.concatenate([plus, minus])[live]
        masks = np.concatenate([masks, masks | bit[step.vertex]])[live]
        probability = (np.tile(probability, 2) * prob)[live]
        deviation = np.maximum(np.tile(deviation, 2), np.abs(prob - 0.5))[live]
    order = np.argsort(masks)
    outputs = state[order][:, source]
    fidelity = np.abs(outputs[1:] @ outputs[0].conj()) ** 2
    return DeterminismReport(
        ok=not np.any(fidelity < 1.0 - TOLERANCE),
        worst_fidelity=float(fidelity.min(initial=1.0)),
        max_probability_deviation=float(deviation.max(initial=0.0)),
        total_probability=sum(probability[order].tolist()),
        branch_count=2 ** len(measured),
    )


def oracle_unitary(
    graph: OpenGraph,
    gflow: GFlow,
    pattern: MeasurementPattern,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> np.ndarray:
    """Unitary implemented by the pattern, assembled from branch-0 runs.

    Runs the all-+1 branch on every computational basis input and stacks
    the unnormalized output columns, which preserves their relative
    phases; the result is normalized, checked for unitarity, and brought
    to a canonical global phase (first significant entry real positive).

    The basis inputs are the rows of one batch, cut from one state built
    with |+> on every qubit: row x holds the 2^(n-k) amplitudes whose
    input bits read x, over a register of the non-input qubits.  Each
    measured non-input qubit is contracted once for all rows, so the batch
    never holds more than the 2^n amplitudes of the built state.  A
    measured input v scales row x by its bra's entry at bit x_v, with
    step probability the entry's squared modulus, and an input that is an
    output keeps its row's bit.  :func:`_check_unitary` checks the
    registers before anything else, and the unitary's size after the
    dense state and before the rows are laid out.
    """
    k = len(graph.inputs)
    _check_unitary(k, len(graph.outputs))
    register = [v for v in range(graph.n) if v not in graph.input_set]
    built, steps, source = _prepare(graph, gflow, pattern, None, dense_limit, register)
    _check_unitary(k, k, dense_limit)
    # Row x holds the amplitudes whose input bits read x (input p at bit p
    # of x), scaled so that each row, a basis input's state, has norm 1.
    axes = [graph.n - 1 - v for v in (*reversed(graph.inputs), *reversed(register))]
    state = built[0].reshape((2,) * graph.n).transpose(axes).reshape(1 << k, -1)
    state *= 2.0 ** (k / 2)
    amp = np.ones(1 << k, dtype=complex)
    for step in steps:
        state, prob = _measure(state, step, 0)
        amp *= np.sqrt(prob)
    x = np.arange(1 << k)
    columns = state[:, source].T
    for pos, v in enumerate(graph.inputs):
        bit = (x >> pos) & 1
        if v in graph.output_set:
            # An input that is an output keeps its row's bit.
            columns[((x[:, None] >> graph.outputs.index(v)) & 1) != bit] = 0.0
        else:
            entry = measurement_basis(pattern.planes[v], pattern.angles[v])[0].conj()
            entry[np.abs(entry) ** 2 < _ZERO_PROBABILITY] = 0.0
            amp *= entry[bit]
    zero = np.flatnonzero(amp == 0.0)
    if zero.size:
        raise DeterminismError(f"branch 0 has zero probability on input {zero[0]}")
    columns = columns * amp
    scale = np.linalg.norm(columns[:, 0])
    if scale < _ZERO_PROBABILITY:
        raise DeterminismError("assembled map is singular")
    return canonical_unitary(columns / scale, "assembled")


def schmidt_rank_log2(state: np.ndarray, n: int, side: Iterable[int]) -> int:
    """log2 of the Schmidt rank of ``state`` across (side, complement).

    The rank is determined from the singular values with a scale-relative
    threshold; for stabilizer states the spectrum is flat, so the result
    is exact and the log2 is an integer.
    """
    side_list = sorted(set(side))
    other = [q for q in range(n) if q not in side_list]
    # Row bit p is side_list[p] and column bit p is other[p], as in oracle_unitary.
    axes = [n - 1 - q for q in (*reversed(side_list), *reversed(other))]
    mat = state.reshape((2,) * n).transpose(axes).reshape(1 << len(side_list), -1)
    singular = np.linalg.svd(mat, compute_uv=False)
    top = singular[0] if singular.size else 0.0
    if top == 0.0:
        return 0
    rank = int(np.sum(singular > 1e-6 * top))
    log2 = rank.bit_length() - 1
    if 1 << log2 != rank:
        raise ValueError(f"Schmidt rank {rank} is not a power of two")
    return log2
