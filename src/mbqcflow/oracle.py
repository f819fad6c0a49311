"""Dense statevector ground truth for open-graph measurement patterns.

Everything here works on explicit complex amplitude vectors: open graph
states are built by applying CZ along every edge, and a branch measures
the qubits in gflow order.  Each state is built once and laid out once:
from bit 0 up the register holds the outputs in output order, then the
measured qubits in reverse gflow order, so every measurement contracts
the top bit of what is left against the conjugated closed-form basis
vector of its outcome.  The register halves at every step and what is
left at the end is the output register, output k at bit k; the gflow
correction of a -1 outcome acts on the bits below the one measured.
``run_branch`` runs one branch as a batch of one row.
``check_determinism`` walks the gflow order once, on one row: each step
contracts it against both outcomes' bras in one product, checks that the
corrected -1 state equals the +1 state, and goes on with one of them.
Stepwise determinism makes that one walk as good as comparing all 2^m
branches.  ``oracle_unitary`` runs the all-+1 branch on the open graph
state with its input legs left open: laid out with the inputs on the top
bits, the state built with |+> on every qubit holds one row per
assignment of the input bits, over a register of the n - k non-input
qubits.  A measured input then only scales each row by its bra's entry
at the row's bit, so the unitary costs one build and one contraction per
measured non-input qubit, each on 2^n amplitudes, where one run per basis
input would hold 2^k times as many.  ``run_branch`` and
``oracle_unitary`` take the same measurement step.  A correction, X on
g(v) and Z on Odd(g(v)) (``flow.correction_masks``), acts on the bits
left as raw bitmasks (global phase dropped), keeping this module
independent of the symbolic Pauli machinery it validates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

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


def measurement_basis(plane: Plane, angle: float) -> np.ndarray:
    """Orthonormal eigenbasis of the plane's angle-theta observable: rows (plus, minus).

    The observable is ``cos(theta) A + sin(theta) B`` with (A, B) = (X, Y),
    (X, Z) and (Y, Z) for XY, XZ and YZ.  XY has plus = (1, e^{i theta})/sqrt2
    and minus = (1, -e^{i theta})/sqrt2.  XZ and YZ have the Bloch vector
    at polar angle pi/2 - theta, so with half-angle amplitudes
    c = cos(pi/4 - theta/2), s = sin(pi/4 - theta/2) and the azimuth phase
    p = 1 (XZ) or i (YZ): plus = (c, p s) and minus = (s, -p c).
    """
    if plane is Plane.XY:
        r = 1 / math.sqrt(2)
        phase = cmath.exp(1j * angle) * r
        return np.array([[r, phase], [r, -phase]], dtype=complex)
    half = math.pi / 4 - angle / 2
    c, s = math.cos(half), math.sin(half)
    p = 1.0 if plane is Plane.XZ else 1j
    return np.array([[c, p * s], [s, -p * c]], dtype=complex)


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
    #: Conjugated basis vectors as rows: the +1 outcome's, then the -1 outcome's.
    bras: np.ndarray
    #: X/Z masks of the -1 correction on the bits below the measured one.
    correction: tuple[int, int]


def _lay_out(state: np.ndarray, layout: Sequence[int], top: int) -> np.ndarray:
    """``state`` with bit p holding qubit ``layout[p]``, as 2^top rows of its top bits."""
    n = len(layout)
    axes = [n - 1 - q for q in reversed(layout)]
    return state.reshape((2,) * n).transpose(axes).reshape(1 << top, -1)


def _prepare(
    graph: OpenGraph,
    gflow: GFlow,
    pattern: MeasurementPattern,
    input_state: np.ndarray | None,
    dense_limit: int,
    rows: Sequence[int] = (),
) -> tuple[np.ndarray, list[_Step]]:
    """The checks every path runs, the built state and the measurement plan.

    Checks the gflow's layer shape with ``flow._check_gflow_shape``, as
    :func:`~.flow.verify_gflow` does, so the rounds measure exactly the
    non-output vertices; then that the pattern fits the gflow and, before
    building anything exponential, that the state fits the dense limit.
    Returns the built state, laid out once, and one step per vertex of
    ``gflow.measurement_order`` outside ``rows``.  From bit 0 up the
    register holds the outputs outside ``rows`` in output order, then the
    steps' vertices in reverse order, then ``rows``, whose bits index the
    batch rows.  So each step measures the top bit of what is left of a
    row, and the last step leaves output k at bit k.
    """
    _check_gflow_shape(graph, gflow)
    check_pattern(gflow, pattern)
    order = [v for v in gflow.measurement_order if v not in rows]
    layout = [q for q in graph.outputs if q not in rows] + order[::-1] + list(rows)
    state = _lay_out(build_open_graph_state(graph, input_state, dense_limit), layout, len(rows))
    # bit[q] is vertex q's register bit; each correction keeps the bits below its step's.
    bit = np.zeros(graph.n, dtype=np.int64)
    bit[layout] = 1 << np.arange(graph.n)
    masks = np.array([correction_masks(graph, gflow, v) for v in order], dtype=np.int64)
    relabelled = (((masks.reshape(-1, 2, 1) >> np.arange(graph.n)) & 1) * bit).sum(axis=-1)
    corrections = (relabelled & (bit[order] - 1)[:, None]).tolist()
    steps = [
        _Step(v, measurement_basis(pattern.planes[v], pattern.angles[v]).conj(), tuple(c))
        for v, c in zip(order, corrections)
    ]
    return state, steps


def _measure(state: np.ndarray, step: _Step, outcome: int) -> tuple[np.ndarray, np.ndarray]:
    """Measure ``step.vertex``, the top bit of every row of ``state``, with the given outcome.

    Contracts the top bit against its outcome's basis vector, which drops
    it, normalises each row and, after a -1 outcome, applies the gflow
    correction.  Returns the new batch and the step probability of each
    row.  A probability below ``_ZERO_PROBABILITY`` reads 0, and its row
    is left unnormalised.
    """
    state = step.bras[outcome] @ state.reshape(len(state), 2, -1)
    prob = np.linalg.norm(state, axis=-1) ** 2
    prob[prob < _ZERO_PROBABILITY] = 0.0
    state /= np.sqrt(np.where(prob == 0.0, 1.0, prob))[:, None]
    if outcome == 1 and prob.any():
        state = apply_word_masks(state, *step.correction)
    return state, prob


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
    reference that the determinism walk and the unitary batch are tested
    against.
    """
    state, steps = _prepare(graph, gflow, pattern, input_state, dense_limit)
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
        output_state=state[0] if all(step_probs) else None,
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
    """Outcome of the stepwise determinism check."""

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
    branch_budget: int = DEFAULT_BRANCH_BUDGET,  # ignored; the benchmark still passes it
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> DeterminismReport:
    """Check stepwise determinism along ``gflow.measurement_order`` on a random input.

    A gFlow makes a pattern stepwise deterministic (Browne, Kashefi,
    Mhalla and Perdrix, NJP 9, 250, 2007): after each measurement the
    corrected -1 state equals the +1 state up to global phase, so all 2^m
    branches (``branch_count``) end in the same output.  One walk checks
    this on one row, which halves at every step: it contracts the row
    against both bras at once, records |p - 1/2| of each outcome that
    occurs and, when both occur, the fidelity of the corrected -1 state
    with the +1 state, then goes on with the normalised +1 state or the
    only outcome that occurs.  True when every step's fidelity is within
    ``TOLERANCE`` of 1: ``worst_fidelity`` is per step, not over final
    outputs, and ``total_probability`` is the product over the steps of
    (p+) + (p-).  The per-step test is the stronger one: a wrong correction
    that a later measurement turns into a global phase fails it, though
    every branch ends in the same output.

    The walk measures each round in label order.  On a gFlow whose
    correction reaches a vertex of its own round, which breaks the g1/g2
    rules of ``verify_gflow``, the verdict can depend on that order:
    seeded relabellings within the rounds changed 2-6 of 60 corrupted
    verdicts.  The CLI refuses such a gFlow before the oracle runs.

    The walk holds one row of at most 2^n amplitudes, so ``dense_limit``
    bounds its work and ``branch_budget`` is accepted and ignored.
    """
    m = len(gflow.measurement_order)
    rng = np.random.default_rng(seed)
    k = len(graph.inputs)
    # Left unnormalised: build_open_graph_state normalises every input.
    input_state = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    (state,), steps = _prepare(graph, gflow, pattern, input_state, dense_limit)
    worst, deviation, total = 1.0, 0.0, 1.0
    for step in steps:
        plus, minus = step.bras @ state.reshape(2, -1)
        probs = [float(np.vdot(row, row).real) for row in (plus, minus)]
        p_plus, p_minus = (p if p >= _ZERO_PROBABILITY else 0.0 for p in probs)
        if p_minus:
            minus = apply_word_masks(minus, *step.correction)
        if p_plus and p_minus:
            worst = min(worst, float(abs(np.vdot(plus, minus))) ** 2 / (p_plus * p_minus))
        deviation = max(deviation, *(abs(p - 0.5) for p in (p_plus, p_minus) if p))
        total *= p_plus + p_minus
        kept, p = (plus, p_plus) if p_plus else (minus, p_minus)
        state = kept * (1 / math.sqrt(p))
    return DeterminismReport(
        ok=worst >= 1.0 - TOLERANCE,
        worst_fidelity=worst,
        max_probability_deviation=deviation,
        total_probability=total,
        branch_count=2**m,
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
    dense state and before the first contraction.
    """
    k = len(graph.inputs)
    _check_unitary(k, len(graph.outputs))
    state, steps = _prepare(graph, gflow, pattern, None, dense_limit, graph.inputs)
    _check_unitary(k, k, dense_limit)
    # Scaled so that each row, a basis input's state, has norm 1.
    state *= 2.0 ** (k / 2)
    amp = np.ones(1 << k, dtype=complex)
    for step in steps:
        state, prob = _measure(state, step, 0)
        amp *= np.sqrt(prob)
    x = np.arange(1 << k)
    columns = state.T
    if graph.input_set & graph.output_set:
        # The register left holds the other outputs, in output order.
        kept = [b for b, q in enumerate(graph.outputs) if q not in graph.input_set]
        source = np.zeros_like(x)
        for pos, b in enumerate(kept):
            source |= ((x >> b) & 1) << pos
        columns = columns[source]
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
    mat = _lay_out(state, other + side_list, len(side_list))
    singular = np.linalg.svd(mat, compute_uv=False)
    top = singular[0] if singular.size else 0.0
    if top == 0.0:
        return 0
    rank = int(np.sum(singular > 1e-6 * top))
    log2 = rank.bit_length() - 1
    if 1 << log2 != rank:
        raise ValueError(f"Schmidt rank {rank} is not a power of two")
    return log2
