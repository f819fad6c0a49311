"""Shared test helpers: random instance generators and comparisons."""

from __future__ import annotations

import numpy as np
import pytest

from mbqcflow import (
    LogicalOperator,
    OpenGraph,
    SimulationState,
    find_causal_flow,
    find_gflow,
    rotated_stabilizer,
)
from mbqcflow.gf2 import gf2_rank


def random_open_graph(
    rng: np.random.Generator,
    n_min: int = 2,
    n_max: int = 8,
    with_io: bool = True,
    equal_io: bool = False,
) -> OpenGraph:
    """One random open graph; inputs and outputs are disjoint draws."""
    n = int(rng.integers(n_min, n_max + 1))
    p = float(rng.uniform(0.25, 0.75))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    if not with_io:
        return OpenGraph(n=n, edges=edges)
    k_out = int(rng.integers(1, max(n // 2, 1) + 1))
    vertices = list(rng.permutation(n))
    outputs = vertices[:k_out]
    k_in = k_out if equal_io else int(rng.integers(0, k_out + 1))
    inputs = vertices[k_out : k_out + k_in]
    return OpenGraph(n=n, edges=edges, inputs=inputs, outputs=outputs)


def sample_graphs_with_flow(count: int, seed: int, n_max: int = 8, max_tries: int = 200000):
    """Deterministic stream of random graphs on which a causal flow exists."""
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(max_tries):
        graph = random_open_graph(rng, n_min=2, n_max=n_max, equal_io=True)
        flow = find_causal_flow(graph)
        if flow is not None:
            found.append((graph, flow))
            if len(found) == count:
                return found
    raise AssertionError(f"only found {len(found)} flow-bearing graphs")


def sample_graphs_with_gflow(count: int, seed: int, n_max: int = 10, max_tries: int = 200000):
    """Deterministic stream of random graphs on which a gFlow exists."""
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(max_tries):
        graph = random_open_graph(rng, n_min=2, n_max=n_max, equal_io=True)
        gflow = find_gflow(graph)
        if gflow is not None:
            found.append((graph, gflow))
            if len(found) == count:
                return found
    raise AssertionError(f"only found {len(found)} gflow-bearing graphs")


def max_deviation_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise deviation after aligning a global phase."""
    idx = np.unravel_index(int(np.argmax(np.abs(b))), b.shape)
    if abs(b[idx]) == 0:
        return float(np.max(np.abs(a - b)))
    phase = a[idx] / b[idx]
    phase /= abs(phase)
    return float(np.max(np.abs(a - phase * b)))


def completion_generators(state: SimulationState) -> list[LogicalOperator]:
    """Generators completing the correcting products to a full stabilizer basis.

    Each correcting product corresponds over GF(2) to the indicator of its
    correcting set inside the non-input vertices; the completion greedily
    adds single rotated stabilizers for independent directions and then
    walks the rounds multiplying by correcting products, so that every
    completion commutes termwise with every measured X.
    """
    graph, gflow = state.graph, state.gflow
    non_inputs = [v for v in range(graph.n) if v not in graph.input_set]
    col_of = {v: c for c, v in enumerate(non_inputs)}
    basis = [
        sum(1 << col_of[j] for j in gflow.corrections[i]) for i in sorted(gflow.corrections)
    ]
    completions = []
    for j in non_inputs:
        candidate = basis + [1 << col_of[j]]
        if gf2_rank(candidate) > gf2_rank(basis):
            basis = candidate
            angle = state.pattern.angles.get(j, 0.0)
            completions.append(rotated_stabilizer(graph, j, angle))
    fixed = []
    for gen in completions:
        for nu in (v for layer in state.rounds for v in sorted(layer)):
            gen = gen.corrected(nu, state.stabilizers[nu])
        fixed.append(gen)
    return fixed


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
