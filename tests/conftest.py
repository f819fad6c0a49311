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
from mbqcflow.pauli import PauliTable, Run

from pauli_reference import StripReference, reference_round, reference_start


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
    when two of its rows, kept or made, are equal (with their owner) once
    X on its qubit is cleared; that is read from the table before the call,
    on Python ints.  The counter maps True and False to those counts for
    every call made while the patch holds.
    """
    counts: collections.Counter = collections.Counter()
    correct = PauliTable.correct

    def spied_correct(self, qubit, factor, *budget):
        product = len(factor[1]) > 1 or self.counts.max(initial=0) > 1
        bit, w = 1 << qubit, self.words
        words = zip(pauli._unpack_masks(self.rows[:, :w]), pauli._unpack_masks(self.rows[:, w:]))
        factor_x, factor_z = factor[0][:, :w], factor[0][:, w:]
        factor_words = list(zip(pauli._unpack_masks(factor_x), pauli._unpack_masks(factor_z)))
        made = []
        for owner, (x, z) in zip(self.owner.tolist(), words):
            pairs = [(x ^ fx, z ^ fz) for fx, fz in factor_words] if z & bit else [(x, z)]
            made += [(owner, x & ~bit, z) for x, z in pairs]
        hit = correct(self, qubit, factor, *budget)
        if hit and product:
            counts[len(set(made)) < len(made)] += 1
        return hit

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
    # The table path strips each vertex's X once it is corrected; the word path keeps it.
    strip = state.words is None
    for r in range(len(state.rounds)):
        logicals_after = reference_round(logicals, stabilizers, state.rounds[r], high_water, strip)
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
    completion commutes termwise with every measured X.  The walk keeps X
    on the measured vertices (``StripReference.correct``), so each
    completion stays a stabilizer of the rotated state.
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
    table = StripReference(pack_operators(graph.n, dict(enumerate(completions))))
    stabilizers = state.stabilizers
    for nu in (v for layer in state.rounds for v in sorted(layer)):
        table.correct(nu, packed(stabilizers[nu]))
    arrays = (table.rows, table.coeffs, table.owner)
    return list(PauliTable(graph.n, table.labels, *arrays).operators().values())


def pack_operators(n: int, ops: dict) -> PauliTable:
    """One table of the labelled operators' terms, labels and rows in their order."""
    return PauliTable.pack(n, {label: op.words for label, op in ops.items()})


def packed(op: LogicalOperator) -> Run:
    """``op``'s terms as the run of a one-sum table, as ``PauliTable.correct`` takes a factor."""
    return PauliTable.pack(op.n, {0: op.words}).runs()[0]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
