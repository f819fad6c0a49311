"""Finding and verifying gFlow on open graphs.

A gFlow assigns every measured vertex a correcting set of non-input
vertices together with a layered time order, such that corrections never
touch the past.  A causal flow is the special case of singleton
correcting sets in the XY plane; it has no type of its own, and
``GFlow.is_flow`` tells the two apart.  ``find_gflow`` returns the
maximally delayed gFlow via backward layer peeling: each pass eliminates
the correctors' neighbourhoods once and reads every remaining vertex's
minimal correcting set off that one basis, the O(n^3) route of Mhalla
and Perdrix.  ``find_causal_flow`` is the same peeling restricted to
singleton correcting sets.  Both are complete: a None result means no
flow of that kind exists.

Every gFlow condition and signal dependency reads two sets per measured
vertex i: g(i), which receives X, and Odd(g(i)), which receives Z (Browne
et al., NJP 9, 250, 2007); ``correction_masks`` gives both as bitmasks.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple

from .errors import FlowConsistencyError
from .gf2 import gf2_basis, gf2_express
from .graph import OpenGraph, _mask_to_set, _set_to_mask
from .graph import json_ints, json_list, json_object, json_vertex, parse_json
from .pattern import MeasurementPattern, Plane


class Violation(NamedTuple):
    """One broken gFlow condition."""

    vertex: int
    rule: str
    detail: str


@dataclass(frozen=True)
class GFlow:
    """Correction-set map with a layered measurement order.

    ``layers`` lists the measurement rounds in time order followed by one
    final layer holding the (unmeasured) outputs.  ``planes`` assigns a
    measurement plane to every measured vertex.  Vertex labels are coerced
    with :func:`operator.index`, as in :class:`OpenGraph`.
    """

    corrections: dict[int, frozenset[int]]
    layers: tuple[frozenset[int], ...]
    planes: dict[int, Plane]

    def __init__(
        self,
        corrections: dict[int, Iterable[int]],
        layers: Iterable[Iterable[int]],
        planes: dict[int, Plane] | None = None,
    ) -> None:
        corr = {
            operator.index(v): frozenset(map(operator.index, s)) for v, s in corrections.items()
        }
        given = {operator.index(v): p for v, p in (planes or {}).items()}
        object.__setattr__(self, "corrections", corr)
        object.__setattr__(
            self, "layers", tuple(frozenset(map(operator.index, l)) for l in layers)
        )
        object.__setattr__(
            self, "planes", {v: Plane(given[v]) if v in given else Plane.XY for v in corr}
        )

    @cached_property
    def layer_of(self) -> dict[int, int]:
        index = {}
        for k, layer in enumerate(self.layers):
            for v in layer:
                if v in index:
                    raise ValueError(f"vertex {v} appears in two layers")
                index[v] = k
        return index

    @cached_property
    def measurement_order(self) -> tuple[int, ...]:
        """Measured vertices round by round in time order, ascending within a round."""
        return tuple(v for layer in self.layers[:-1] for v in sorted(layer))

    @property
    def depth(self) -> int:
        """Number of measurement rounds (the output layer does not count)."""
        return len(self.layers) - 1

    @property
    def is_flow(self) -> bool:
        return all(len(s) == 1 for s in self.corrections.values()) and all(
            p is Plane.XY for p in self.planes.values()
        )

    def to_json_dict(self) -> dict:
        return {
            "g": {str(v): sorted(s) for v, s in sorted(self.corrections.items())},
            "layers": [sorted(layer) for layer in self.layers],
            "planes": {str(v): p.value for v, p in sorted(self.planes.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_gflow(self) -> GFlow:
        """Return ``self``.

        Causal flows once had a type of their own that callers converted
        with this method; the identity keeps such callers working.
        """
        return self

    @classmethod
    def from_json_dict(cls, data: dict) -> GFlow:
        try:
            corrections = {
                json_vertex(v, "g"): json_ints(s, "correcting set")
                for v, s in json_object(data["g"], "g").items()
            }
            layers = [
                json_ints(layer, "layer") for layer in json_list(data["layers"], "layers")
            ]
            planes = {
                json_vertex(v, "planes"): Plane(p)
                for v, p in json_object(data.get("planes", {}), "planes").items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed gflow JSON: {exc}") from exc
        return cls(corrections=corrections, layers=layers, planes=planes)

    @classmethod
    def from_json(cls, text: str) -> GFlow:
        return cls.from_json_dict(parse_json(text))


def _check_analysis_preconditions(graph: OpenGraph) -> None:
    if len(graph.inputs) > len(graph.outputs):
        raise ValueError("flow analysis requires |inputs| <= |outputs|")


def _peel(graph: OpenGraph, singleton: bool):
    """Backward layer peeling; returns construction passes or None.

    Each pass collects every unprocessed vertex u admitting a correcting
    set K of already-processed non-inputs with Odd(K) meeting the
    unprocessed region in exactly {u}.  Passes are built from the output
    side, so the first pass holds the vertices measured last.  A pass
    restricts each corrector's neighbourhood to the unprocessed region
    (its column) and eliminates those columns once; each vertex's minimal
    correcting set is then read off the shared basis.
    """
    adjacency = graph.adjacency_masks
    unprocessed = [v for v in range(graph.n) if v not in graph.output_set]
    correctors = sorted(v for v in graph.outputs if v not in graph.input_set)
    passes: list[dict[int, frozenset[int]]] = []

    while unprocessed:
        region = sum(1 << v for v in unprocessed)
        columns = [adjacency[w] & region for w in correctors]
        found: dict[int, frozenset[int]] = {}
        if singleton:
            for w, col in zip(correctors, columns):
                u = col.bit_length() - 1
                if col and col == 1 << u and u not in found:
                    found[u] = frozenset((w,))
        else:
            basis = gf2_basis(columns)
            for u in unprocessed:
                mask = gf2_express(basis, 1 << u)
                if mask is not None:
                    found[u] = frozenset(
                        w for c, w in enumerate(correctors) if (mask >> c) & 1
                    )
        if not found:
            return None
        passes.append(found)
        unprocessed = [v for v in unprocessed if v not in found]
        correctors = sorted(
            set(correctors) | {v for v in found if v not in graph.input_set}
        )
    return passes


def _find(graph: OpenGraph, singleton: bool) -> GFlow | None:
    _check_analysis_preconditions(graph)
    passes = _peel(graph, singleton)
    if passes is None:
        return None
    corrections: dict[int, frozenset[int]] = {}
    for p in passes:
        corrections.update(p)
    layers = [frozenset(p) for p in reversed(passes)]
    layers.append(graph.output_set)
    return GFlow(corrections=corrections, layers=layers)


def find_gflow(graph: OpenGraph) -> GFlow | None:
    """Maximally delayed XY-plane gFlow, or None when no gFlow exists."""
    return _find(graph, singleton=False)


def find_causal_flow(graph: OpenGraph) -> GFlow | None:
    """Maximally delayed causal flow, or None when no causal flow exists.

    The result is a gFlow with singleton correcting sets, so ``is_flow``
    holds.
    """
    return _find(graph, singleton=True)


def correction_masks(graph: OpenGraph, gflow: GFlow, vertex: int) -> tuple[int, int]:
    """Bitmasks of g(vertex) and Odd(g(vertex)); ValueError if g(vertex) leaves 0..n-1."""
    x_mask = z_mask = 0
    for j in gflow.corrections[vertex]:
        if not 0 <= j < graph.n:
            raise ValueError(f"correcting set of {vertex} contains out-of-range vertex {j}")
        x_mask |= 1 << j
        z_mask ^= graph.adjacency_masks[j]
    return x_mask, z_mask


#: Whether each plane needs i in g(i) and in Odd(g(i)), and the rule it breaks otherwise.
_PLANE_RULES = {
    Plane.XY: ((0, 1), "g3", "XY needs i outside g(i) and inside Odd(g(i))"),
    Plane.XZ: ((1, 1), "g4", "XZ needs i inside g(i) and inside Odd(g(i))"),
    Plane.YZ: ((1, 0), "g5", "YZ needs i inside g(i) and outside Odd(g(i))"),
}


def verify_gflow(graph: OpenGraph, gflow: GFlow) -> list[Violation]:
    """Check every gFlow condition; an empty list means the gFlow is valid.

    Structural malformations (correction map not defined exactly on the
    measured vertices, layers not partitioning the vertex set, correcting
    sets reaching inputs) raise ValueError; per-vertex rule violations are
    returned as a list.
    """
    measured = set(graph.measured)
    if set(gflow.corrections) != measured:
        raise ValueError(
            "correction map must be defined exactly on the non-output vertices"
        )
    layer_of = gflow.layer_of
    if set(layer_of) != set(range(graph.n)):
        raise ValueError("layers must partition the vertex set")
    if gflow.layers and gflow.layers[-1] != graph.output_set:
        raise ValueError("final layer must hold exactly the outputs")
    if set(gflow.planes) != measured:
        raise ValueError("planes must be defined exactly on the measured vertices")
    for i, corr in gflow.corrections.items():
        if corr & graph.input_set:
            raise ValueError(f"correcting set of {i} contains input vertices")
        for j in corr:
            if not 0 <= j < graph.n:
                raise ValueError(f"correcting set of {i} is out of range")

    # not_later[k]: the vertices of layers 0..k.
    not_later = list(accumulate(map(_set_to_mask, gflow.layers), operator.or_))
    violations: list[Violation] = []
    for i in sorted(gflow.corrections):
        x_mask, z_mask = correction_masks(graph, gflow, i)
        early = not_later[layer_of[i]] & ~(1 << i)
        for j in sorted(_mask_to_set(x_mask & early)):
            violations.append(Violation(i, "g1", f"corrector {j} not after {i}"))
        # Strict form: everything the correction touches must come
        # strictly later.  Merely banning strictly-earlier vertices
        # would admit same-round corrections that overwrite each
        # other and break determinism.
        for j in sorted(_mask_to_set(z_mask & early)):
            violations.append(Violation(i, "g2", f"correction touches non-later vertex {j}"))
        needs, rule, detail = _PLANE_RULES[gflow.planes[i]]
        if ((x_mask >> i) & 1, (z_mask >> i) & 1) != needs:
            violations.append(Violation(i, rule, detail))
    return violations


def check_pattern(gflow: GFlow, pattern: MeasurementPattern) -> None:
    """Raise ValueError unless ``pattern`` fits the measured vertices of ``gflow``.

    Every vertex of ``gflow.measurement_order`` needs an angle, and its
    pattern plane must be the gflow's plane.
    """
    missing = set(gflow.measurement_order) - set(pattern.angles)
    if missing:
        raise ValueError(f"pattern missing angles for vertices {sorted(missing)}")
    for v in gflow.measurement_order:
        if v in gflow.planes and pattern.plane(v) is not gflow.planes[v]:
            raise ValueError(
                f"pattern plane {pattern.plane(v).value} for vertex {v} "
                f"conflicts with the gflow plane {gflow.planes[v].value}"
            )


@dataclass(frozen=True)
class CorrectionReport:
    """Classical processing cost of a gFlow's correction schedule.

    For each vertex j, ``x_parity[j]`` collects the measured vertices whose
    outcome feeds an X correction on j, and ``z_parity[j]`` those feeding a
    Z correction.  ``total_cost`` counts all parity-set memberships and is
    traded off against ``depth``.
    """

    x_parity: dict[int, tuple[int, ...]]
    z_parity: dict[int, tuple[int, ...]]
    total_cost: int
    depth: int

    def to_json_dict(self) -> dict:
        return {
            "x_parity": {str(v): list(s) for v, s in sorted(self.x_parity.items())},
            "z_parity": {str(v): list(s) for v, s in sorted(self.z_parity.items())},
            "total_cost": self.total_cost,
            "depth": self.depth,
        }


def correction_dependencies(graph: OpenGraph, gflow: GFlow) -> CorrectionReport:
    """Per-vertex X/Z parity sets and the total classical processing cost."""
    x_parity: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    z_parity: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    for i in sorted(gflow.corrections):
        x_mask, z_mask = correction_masks(graph, gflow, i)
        for j in _mask_to_set(x_mask):
            x_parity[j].append(i)
        for j in _mask_to_set(z_mask & ~(1 << i)):
            z_parity[j].append(i)
    total = sum(len(s) for s in x_parity.values()) + sum(
        len(s) for s in z_parity.values()
    )
    return CorrectionReport(
        x_parity={v: tuple(s) for v, s in x_parity.items()},
        z_parity={v: tuple(s) for v, s in z_parity.items()},
        total_cost=total,
        depth=len(gflow.layers) - 1,
    )


@dataclass(frozen=True)
class WireReport:
    """Vertex-disjoint input-to-output paths plus the vertices they miss."""

    wires: tuple[tuple[int, ...], ...]
    uncovered_non_outputs: frozenset[int]

    def to_json_dict(self) -> dict:
        return {
            "wires": [list(w) for w in self.wires],
            "uncovered_non_outputs": sorted(self.uncovered_non_outputs),
        }


def flow_wires(graph: OpenGraph, gflow: GFlow) -> WireReport:
    """One vertex-disjoint input-to-output path per input.

    For a causal flow the wires follow the singleton correcting sets from
    each input (for equally many inputs and outputs these cover every
    vertex).
    For a general gFlow the paths come from unit-vertex-capacity max-flow;
    fewer than ``len(inputs)`` disjoint paths means an upstream invariant
    was violated and raises :class:`FlowConsistencyError`.  Non-output
    vertices on no wire are reported for the entanglement-bound surplus
    term.

    The max-flow wires are canonical: one shortest augmenting path per
    input in ``graph.inputs`` order, found by breadth-first search that
    tries each vertex's neighbours in descending label order.  Of the two
    label orders, descending gives the lower flow bound more often: on
    the 253 non-causal gFlows of ``sample_graphs_with_gflow(600, seed=11,
    n_max=10)`` (tests/conftest.py) its bound is lower than ascending
    order's on 15 and higher on 10.
    """
    if gflow.is_flow:
        wires = _wires_from_flow(graph, gflow)
    else:
        wires = _wires_from_max_flow(graph)
    covered = {v for wire in wires for v in wire}
    uncovered = frozenset(
        v for v in range(graph.n) if v not in covered and v not in graph.output_set
    )
    return WireReport(wires=tuple(tuple(w) for w in wires), uncovered_non_outputs=uncovered)


def _wires_from_flow(graph: OpenGraph, gflow: GFlow) -> list[list[int]]:
    wires = []
    seen: set[int] = set()
    for start in graph.inputs:
        wire = [start]
        current = start
        while current not in graph.output_set:
            (current,) = gflow.corrections[current]
            if current in wire:
                raise FlowConsistencyError(f"flow successor cycle through {current}")
            wire.append(current)
        if seen & set(wire):
            raise FlowConsistencyError("flow wires are not vertex-disjoint")
        seen.update(wire)
        wires.append(wire)
    return wires


def _wires_from_max_flow(graph: OpenGraph) -> list[list[int]]:
    """Vertex-disjoint input/output paths by unit-capacity BFS augmentation.

    The network splits vertex v into v_in = 2v and v_out = 2v + 1 joined
    by a unit arc, with a unit arc u_out -> v_in for each edge in each
    direction and v_out -> sink for each output.  Arc a and its residual
    reverse are the pair (a, a ^ 1).  Each input, in ``graph.inputs``
    order, starts one breadth-first search for a shortest augmenting path
    from its own v_in, which stands in for the unit source arc (Edmonds
    and Karp, JACM 19, 1972).  An input that finds no path never finds
    one later, so the number of augmented inputs is the maximum flow.
    """
    if not graph.inputs:
        return []
    sink = 2 * graph.n
    head: list[int] = []
    residual: list[int] = []
    arcs: list[list[int]] = [[] for _ in range(sink + 1)]

    def add_arc(tail: int, to: int) -> None:
        arcs[tail].append(len(head))
        arcs[to].append(len(head) + 1)
        head.extend((to, tail))
        residual.extend((1, 0))

    for v in range(graph.n):
        add_arc(2 * v, 2 * v + 1)
    for v in graph.outputs:
        add_arc(2 * v + 1, sink)
    # Reversed canonical edges list every v_out's neighbours in descending order.
    for u, v in reversed(graph.edges):
        add_arc(2 * u + 1, 2 * v)
        add_arc(2 * v + 1, 2 * u)
    value = 0
    for start in graph.inputs:
        via = {2 * start: -1}
        queue = [2 * start]
        for node in queue:
            for a in arcs[node]:
                if residual[a] and head[a] not in via:
                    via[head[a]] = a
                    queue.append(head[a])
            if sink in via:
                break
        if sink not in via:
            continue
        value += 1
        node = sink
        while via[node] >= 0:
            a = via[node]
            residual[a] -= 1
            residual[a ^ 1] += 1
            node = head[a ^ 1]
    if value < len(graph.inputs):
        raise FlowConsistencyError(
            f"only {value} vertex-disjoint paths exist for {len(graph.inputs)} inputs"
        )
    wires = []
    for start in graph.inputs:
        wire = [start]
        while True:
            # The one forward arc out of v_out that carries flow.
            target = next(
                head[a] for a in arcs[2 * wire[-1] + 1] if a % 2 == 0 and not residual[a]
            )
            if target == sink:
                break
            wire.append(target // 2)
        wires.append(wire)
    return wires
