"""The determinism check as it was before it became a walk along the gFlow order.

``check_determinism`` measured every surviving outcome prefix with both
outcomes at each step and compared all 2^m outputs against the first
surviving branch.  It is kept verbatim, so the differential tests in
``tests/test_oracle.py`` can require the walk to give the same verdict,
branch count and probabilities.  The helpers it calls, ``_prepare`` and
``_measure``, are imported from the library; ``run_branch`` and
``oracle_unitary`` still use them.
"""

from __future__ import annotations

import numpy as np

from mbqcflow.errors import DEFAULT_BRANCH_BUDGET, DEFAULT_DENSE_LIMIT, _over_budget
from mbqcflow.flow import GFlow
from mbqcflow.graph import OpenGraph
from mbqcflow.oracle import TOLERANCE, DeterminismReport, _measure, _prepare
from mbqcflow.pattern import MeasurementPattern


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
