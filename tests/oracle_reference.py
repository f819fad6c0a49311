"""The oracle as it was before its register was laid out once.

``check_determinism`` measured every surviving outcome prefix with both
outcomes at each step and compared all 2^m outputs against the first
surviving branch.  It is kept verbatim, so the differential tests in
``tests/test_oracle.py`` can require the walk to give the same verdict,
branch count and probabilities.  So are the helpers it calls: ``_prepare``
kept the built state in vertex order and gave each step the bit of its
vertex in the register left (``_Step.pos``), ``_measure`` contracted that
bit wherever it sat, and ``_on_held`` re-indexed each correction to the
bits still held.  The library now lays the register out once, so the two
sides compare independent layouts.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from mbqcflow.errors import DEFAULT_BRANCH_BUDGET, DEFAULT_DENSE_LIMIT, _over_budget
from mbqcflow.flow import GFlow, _check_gflow_shape, check_pattern, correction_masks
from mbqcflow.graph import OpenGraph
from mbqcflow.oracle import (
    _ZERO_PROBABILITY,
    TOLERANCE,
    DeterminismReport,
    apply_word_masks,
    build_open_graph_state,
    measurement_basis,
)
from mbqcflow.pattern import MeasurementPattern


class _Step(NamedTuple):
    """One measurement, fixed before any amplitude is touched."""

    vertex: int
    #: Bit of ``vertex`` in the register it is measured from.
    pos: int
    #: Conjugated basis vectors as rows: the +1 outcome's, then the -1 outcome's.
    bras: np.ndarray
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
        bras = measurement_basis(pattern.planes[v], pattern.angles[v]).conj()
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
