"""Shared test helpers: random instance generators and comparisons."""

from __future__ import annotations

import collections
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from mbqcflow import (
    GFlow,
    LogicalOperator,
    OpenGraph,
    SimulationState,
    find_causal_flow,
    find_gflow,
    initialize_simulation,
    propagate_round,
    rotated_stabilizer,
)
from mbqcflow import pauli
from mbqcflow.gf2 import gf2_rank
from mbqcflow.pauli import PauliTable

from pauli_reference import reference_round, reference_start


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


def bench_pool(name: str, seed: int) -> list:
    """The instances of the benchmark's ``name`` pool for ``seed``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.build_pool(name, seed)


def flow_scan_graphs(seed: int) -> list[OpenGraph]:
    """The graphs of the benchmark's flow-scan pool for ``seed``."""
    return [inst.graph for inst in bench_pool("flow-scan", seed)]


def relabel(graph: OpenGraph, gflow: GFlow | None, mapping: dict[int, int], n: int):
    """``graph`` and ``gflow`` on ``n`` qubits, vertex v renamed ``mapping[v]``.

    The vertices no one is mapped to are isolated extra outputs.  A
    ``gflow`` of None stays None.
    """
    extra = sorted(set(range(n)) - set(mapping.values()))
    big = OpenGraph(
        n=n,
        edges=[(mapping[u], mapping[v]) for u, v in graph.edges],
        inputs=[mapping[v] for v in graph.inputs],
        outputs=[mapping[v] for v in graph.outputs] + extra,
    )
    if gflow is None:
        return big, None
    layers = [[mapping[v] for v in layer] for layer in gflow.layers]
    layers[-1] += extra
    big_flow = GFlow(
        corrections={mapping[v]: [mapping[u] for u in s] for v, s in gflow.corrections.items()},
        layers=layers,
        planes={mapping[v]: p for v, p in gflow.planes.items()},
    )
    return big, big_flow


def local_complement(graph: OpenGraph, v: int) -> OpenGraph:
    """``graph`` with every edge between two neighbours of ``v`` toggled.

    Inputs and outputs are kept.  Local complementation keeps every cut
    rank (Bouchet; Oum, "Rank-width and vertex-minors", JCTB 95, 2005).
    """
    inside = {frozenset(pair) for pair in itertools.combinations(graph.neighbors(v), 2)}
    edges = {frozenset(edge) for edge in graph.edges} ^ inside
    return OpenGraph(
        n=graph.n,
        edges=sorted(tuple(sorted(edge)) for edge in edges),
        inputs=graph.inputs,
        outputs=graph.outputs,
    )


def count_product_merges(monkeypatch) -> collections.Counter:
    """Count the product corrections of ``PauliTable.correct`` by whether rows merged.

    A correction can merge rows only when its stabilizer has two words or
    a sum of the table has two rows; only those are counted.  It merged
    when its grouping step found two equal rows.  The counter
    maps True and False to those counts for every call made while the
    patch holds.
    """
    counts: collections.Counter = collections.Counter()
    merged: list[bool] = []
    group, correct = pauli._group, PauliTable.correct

    def spied_group(rows):
        run, first = group(rows)
        merged.append(len(first) < len(rows))
        return run, first

    def spied_correct(self, qubit, correction, *budget):
        product = correction.num_terms > 1 or self.counts.max(initial=0) > 1
        merged.clear()
        hit = correct(self, qubit, correction, *budget)
        if hit and product:
            counts[any(merged)] += 1
        return hit

    monkeypatch.setattr(pauli, "_group", spied_group)
    monkeypatch.setattr(PauliTable, "correct", spied_correct)
    return counts


def assert_rounds_match_reference(graph, gflow, pattern):
    """Every round equals the dict reference: keys in order, coefficients, marks.

    Returns how many logicals the rounds changed and how many they left alone.
    """
    def assert_same(op, terms):
        got = list(op.terms())
        assert [key for key, _ in got] == list(terms)
        for (_, coeff), expected in zip(got, terms.values()):
            assert abs(coeff - expected) <= 1e-15

    touched = untouched = 0
    state = initialize_simulation(graph, gflow, pattern)
    stabilizers, logicals = reference_start(graph, gflow, pattern)
    for mu, terms in stabilizers.items():
        assert_same(state.stabilizers[mu], terms)
    initial = state.logicals.operators()
    for label, terms in logicals.items():
        assert_same(initial[label], terms)
    high_water = {label: len(terms) for label, terms in logicals.items()}
    for r in range(len(state.rounds)):
        logicals_after = reference_round(logicals, stabilizers, state.rounds[r], high_water)
        propagate_round(state)
        for label, op in state.logicals.operators().items():
            want = logicals_after[label]
            if want is logicals[label]:
                untouched += 1
            else:
                touched += 1
            assert_same(op, want)
        assert state.high_water == high_water
        logicals = logicals_after
    return touched, untouched


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
    table = PauliTable.stack(graph.n, dict(enumerate(completions)))
    for nu in (v for layer in state.rounds for v in sorted(layer)):
        table.correct(nu, state.stabilizers[nu])
    return list(table.operators().values())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
