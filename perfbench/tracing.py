"""Spans and counts recorded around calls into each ``mbqcflow`` module.

``instrument`` replaces every listed public function at every module that
binds it (``from .gf2 import gf2_rank`` makes ``mbqcflow.simulate.gf2_rank``
and ``mbqcflow.bounds.gf2_rank`` two bindings of one function) and patches
``LogicalOperator.__mul__``, ``__add__`` and ``prune`` on the class.  Spans
live in memory until ``Tracer.write`` at the end of the run.  Nothing inside
``src/mbqcflow`` changes; the wrappers exist only in a traced process.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: Span name of the benchmark's own wrapper around one instance.
INSTANCE_SPAN = "bench.instance"

#: Marker attribute set on every wrapper.
TRACED_ATTR = "__perfbench_traced__"


class Tracer:
    """In-memory spans ``[name, start, end, parent, instance]`` and counters."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.high_water: list[list[int]] = []
        self._stack: list[int] = []
        self._instance = -1
        self.active = False

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._instance])
        self._stack.append(index)
        return index

    def leave(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def run_instance(self, instance_id: int, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as one traced instance under a root span."""
        self._instance = instance_id
        self.active = True
        index = self.enter(INSTANCE_SPAN)
        try:
            return fn()
        finally:
            self.leave(index)
            self.active = False

    def write(self, path: str, rows: list[dict]) -> None:
        """Spans, counters and per-instance rows as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for row in rows:
                handle.write(json.dumps({"instance": row}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _instance in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_name, start, end, _parent, _instance) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


# -- instrumentation --------------------------------------------------------


def _wrap(tracer: Tracer, name: str | Callable[..., str], fn, after=None):
    """Span around ``fn``; ``after(tracer, args, result)`` updates counters."""
    span_name = name if callable(name) else (lambda *_a, **_k: name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.enter(span_name(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(index)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(traced, TRACED_ATTR, True)
    return traced


def _count(key: str, value: Callable[[tuple, Any], float]):
    def after(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.counts[key] += value(args, result)

    return after


def _after_simulation(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.high_water.append(list(result.high_water.values()))


def _after_run_branch(tracer: Tracer, args: tuple, result: Any) -> None:
    # Computed, not measured: one built state plus one projection per
    # measured vertex, each holding 2**n amplitudes.
    graph = args[0]
    tracer.counts["oracle.amplitudes_computed"] += (1 << graph.n) * (1 + len(result.outcomes))


#: (module, function, span name, counter hook) for every traced function.
FUNCTIONS: tuple[tuple[str, str, str, Any], ...] = (
    ("gf2", "gf2_solve_min", "gf2.solve_min", _count("gf2.solve_min.solved", lambda a, r: r is not None)),
    ("gf2", "gf2_rank", "gf2.rank", None),
    ("flow", "find_gflow", "flow.find_gflow", _count("flow.gflow_found", lambda a, r: r is not None)),
    ("flow", "find_causal_flow", "flow.find_causal_flow", None),
    ("flow", "verify_gflow", "flow.verify_gflow", None),
    ("flow", "correction_dependencies", "flow.correction_dependencies", None),
    ("flow", "flow_wires", "flow.flow_wires", None),
    ("graph", "odd_neighborhood", "graph.odd_neighborhood", None),
    ("cones", "forward_cone", "cones.forward_cone", None),
    ("cones", "max_forward_cone", "cones.max_forward_cone", None),
    ("simulate", "simulate_pattern", "simulate.simulate_pattern", _after_simulation),
    ("simulate", "initialize_simulation", "simulate.initialize", None),
    ("simulate", "rotated_stabilizer", "simulate.rotated_stabilizer", None),
    ("simulate", "propagate_round", "simulate.propagate_round", None),
    ("simulate", "finalize_outputs", "simulate.finalize", None),
    ("simulate", "extract_unitary", "simulate.extract_unitary", None),
    ("oracle", "run_branch", "oracle.run_branch", _after_run_branch),
    ("oracle", "build_open_graph_state", "oracle.build_state", None),
    ("oracle", "measurement_basis", "oracle.measurement_basis", None),
    ("oracle", "apply_word_masks", "oracle.apply_word_masks", None),
    ("oracle", "check_determinism", "oracle.check_determinism", None),
    ("oracle", "oracle_unitary", "oracle.oracle_unitary", None),
    ("bounds", "structural_entanglement_exact", "bounds.structural_entanglement_exact", None),
    ("bounds", "entanglement_width_exact", "bounds.entanglement_width_exact", None),
    ("bounds", "flow_entanglement_bound", "bounds.flow_entanglement_bound", None),
)


def _cli_span_name(argv, *_rest) -> str:
    from workloads import cli_command_name

    return "cli." + cli_command_name(tuple(argv))


def _mbqcflow_modules() -> list[Any]:
    return [m for name, m in sorted(sys.modules.items()) if name == "mbqcflow" or name.startswith("mbqcflow.")]


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Install the wrappers at every binding; returns a function undoing it."""
    import mbqcflow
    import mbqcflow.cli  # noqa: F401  (bind its imports before patching)
    from mbqcflow.pauli import LogicalOperator

    undo: list[tuple[Any, str, Any]] = []
    modules = _mbqcflow_modules()
    for module_name, attr, span, after in FUNCTIONS:
        original = getattr(sys.modules[f"mbqcflow.{module_name}"], attr)
        wrapper = _wrap(tracer, span, original, after)
        for module in modules:
            if module.__dict__.get(attr) is original:
                undo.append((module, attr, original))
                setattr(module, attr, wrapper)
    run_command = mbqcflow.cli.run_command
    undo.append((mbqcflow.cli, "run_command", run_command))
    mbqcflow.cli.run_command = _wrap(tracer, _cli_span_name, run_command)

    methods = (
        ("__mul__", "pauli.mul", _after_mul),
        ("__add__", "pauli.add", None),
    )
    for attr, span, after in methods:
        original = LogicalOperator.__dict__[attr]
        undo.append((LogicalOperator, attr, original))
        setattr(LogicalOperator, attr, _wrap(tracer, span, original, after))
    prune = LogicalOperator.__dict__["prune"]
    undo.append((LogicalOperator, "prune", prune))
    LogicalOperator.prune = _traced_prune(tracer, prune)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _after_mul(tracer: Tracer, args: tuple, result: Any) -> None:
    left, right = args
    tracer.counts["pauli.mul.term_pairs"] += left.num_terms * right.num_terms
    tracer.counts["pauli.mul.terms_out"] += result.num_terms


def _traced_prune(tracer: Tracer, prune):
    @functools.wraps(prune)
    def traced(self, *args, **kwargs):
        if not tracer.active:
            return prune(self, *args, **kwargs)
        before = self.num_terms
        index = tracer.enter("pauli.prune")
        try:
            result = prune(self, *args, **kwargs)
        finally:
            tracer.leave(index)
        tracer.counts["pauli.prune.terms_in"] += before
        tracer.counts["pauli.prune.terms_out"] += result.num_terms
        return result

    setattr(traced, TRACED_ATTR, True)
    return traced


def traced_bindings() -> int:
    """Number of wrapper objects reachable from the loaded mbqcflow modules."""
    from mbqcflow.pauli import LogicalOperator

    owners = [m.__dict__ for m in _mbqcflow_modules()] + [LogicalOperator.__dict__]
    return sum(
        1 for namespace in owners for value in namespace.values() if getattr(value, TRACED_ATTR, False)
    )


# -- per-layer metrics ------------------------------------------------------

MODULES = ("gf2", "flow", "graph", "cones", "pauli", "simulate", "oracle", "bounds", "cli", "bench")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-instance means of counts and self times, plus module totals."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, own):
        calls[span[0]] += 1
        self_s[span[0]] += seconds
    instances = max(calls[INSTANCE_SPAN], 1)
    counts = tracer.counts

    def per(value: float) -> float:
        return value / instances

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in calls:
        m[f"{name}.calls"] = per(calls[name])
        m[f"{name}.self_s"] = per(self_s[name])
    m["gf2.solve_min.solved_ratio"] = ratio(counts["gf2.solve_min.solved"], calls["gf2.solve_min"])
    m["flow.reports.self_s"] = per(self_s["flow.correction_dependencies"] + self_s["flow.flow_wires"])
    m["flow.gflow_found_ratio"] = ratio(counts["flow.gflow_found"], calls["flow.find_gflow"])
    m["pauli.mul.term_pairs"] = per(counts["pauli.mul.term_pairs"])
    m["pauli.mul.merge_ratio"] = ratio(counts["pauli.mul.terms_out"], counts["pauli.mul.term_pairs"])
    m["pauli.prune.kept_ratio"] = ratio(counts["pauli.prune.terms_out"], counts["pauli.prune.terms_in"])
    marks = [max(hw) for hw in tracer.high_water if hw]
    m["simulate.high_water.max"] = float(max(marks, default=0))
    m["simulate.high_water.sum"] = per(sum(sum(hw) for hw in tracer.high_water))
    m["oracle.amplitudes_computed"] = per(counts["oracle.amplitudes_computed"])
    for module in MODULES:
        m[f"{module}.self_s"] = per(
            sum(s for name, s in self_s.items() if name.split(".")[0] == module)
        )
    m["trace.instance_s"] = per(
        sum(end - start for name, start, end, _p, _i in spans if name == INSTANCE_SPAN)
    )
    m["trace.instances"] = float(calls[INSTANCE_SPAN])
    return m
