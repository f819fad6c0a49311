"""Finding and verifying gFlow on open graphs.

A gFlow assigns every measured vertex a correcting set of non-input
vertices together with a layered time order, such that corrections never
touch the past.  A causal flow is the special case of singleton
correcting sets in the XY plane; it has no type of its own, and
``GFlow.is_flow`` tells the two apart.  ``find_gflow`` returns the
maximally delayed gFlow by the backward layer peeling of Mhalla and
Perdrix ("Finding optimal flows efficiently", ICALP 2008).  Each pass
works on the live frontier only: it eliminates, once, the columns of the
correctors whose neighbourhoods still meet the unprocessed region, and
asks that basis for minimal correcting sets at its pivots alone.  A pass
with c live correctors and a basis of rank r costs O(c r) XORs of n-bit
masks, so with at most n passes the worst case is O(n^3) such XORs; on
a cluster grid c is about one column's height.  ``find_causal_flow`` is
the same peeling restricted to singleton correcting sets.  Both are
complete: a None result means no flow of that kind exists.

Every gFlow condition and signal dependency reads two sets per measured
vertex i: g(i), which receives X, and Odd(g(i)), which receives Z (Browne
et al., NJP 9, 250, 2007); ``correction_masks`` gives both as bitmasks.
The hot paths stay in bitmasks: peeling and ``correction_dependencies``
walk set bits with ``mask & -mask``, and ``verify_gflow`` lists vertices
only for a rule that is broken.  The finder's passes already have the
shape ``GFlow.__init__`` checks, so it builds its result unchecked.  The
max-flow behind ``flow_wires`` keeps its flow per vertex rather than in
an arc list.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple

from .errors import FlowConsistencyError
from .gf2 import gf2_basis, gf2_express
from .graph import JsonText, OpenGraph, _check_vertices, _mask_to_set, _set_to_mask
from .graph import json_distinct_ints, json_list, json_object, json_vertex
from .pattern import MeasurementPattern, Plane


class Violation(NamedTuple):
    """One broken gFlow condition."""

    vertex: int
    rule: str
    detail: str


@dataclass(frozen=True)
class GFlow(JsonText):
    """Correction-set map with a layered measurement order.

    ``layers`` lists the measurement rounds in time order followed by one
    final layer holding the (unmeasured) outputs.  ``corrections`` and
    ``planes`` give each measured vertex, a vertex of the rounds, its
    correcting set and measurement plane.  The constructor checks outside
    input: it raises ValueError when a vertex is in two layers, the
    correcting sets are not for exactly the measured vertices, a
    measurement round is empty (rounds count from 0; only the final,
    output layer may be empty), or ``planes`` names an unmeasured vertex.
    The rules that need the graph are :func:`verify_gflow`'s.  Vertex
    labels are coerced with :func:`operator.index`, as in :class:`OpenGraph`.

    The finder builds its result with ``_unchecked``, which skips the
    coercion and the checks.  That is safe because its labels are bit
    positions and labels of an :class:`OpenGraph`, which are Python ints,
    and its peeling passes are non-empty and disjoint, give one correcting
    set to each vertex they hold, and together hold the measured vertices.
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
        layers = tuple(frozenset(map(operator.index, l)) for l in layers)
        object.__setattr__(self, "corrections", corr)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(
            self, "planes", {v: Plane(given[v]) if v in given else Plane.XY for v in corr}
        )
        if len(set().union(*layers)) != sum(map(len, layers)):
            twice = min(v for k, a in enumerate(layers) for b in layers[:k] for v in a & b)
            raise ValueError(f"vertex {twice} appears in two layers")
        differ = corr.keys() ^ set().union(*layers[:-1])
        if differ:
            raise ValueError(
                f"correcting sets and measurement rounds differ on vertices {sorted(differ)}"
            )
        empty = [k for k, layer in enumerate(layers[:-1]) if not layer]
        if empty:
            raise ValueError(f"measurement round {empty[0]} is empty")
        extra = given.keys() - corr.keys()
        if extra:
            raise ValueError(f"gflow gives planes to unmeasured vertices {sorted(extra)}")

    @classmethod
    def _unchecked(
        cls, corrections: dict[int, frozenset[int]], layers: tuple[frozenset[int], ...]
    ) -> GFlow:
        """An all-XY gFlow from parts that already meet every check of ``__init__``."""
        gflow = object.__new__(cls)
        object.__setattr__(gflow, "corrections", corrections)
        object.__setattr__(gflow, "layers", layers)
        object.__setattr__(gflow, "planes", dict.fromkeys(corrections, Plane.XY))
        return gflow

    @cached_property
    def layer_of(self) -> dict[int, int]:
        return {v: k for k, layer in enumerate(self.layers) for v in layer}

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

    def to_gflow(self) -> GFlow:
        """Return ``self``.

        Causal flows once had a type of their own that callers converted
        with this method; the identity keeps such callers working.
        """
        return self

    @classmethod
    def from_json_dict(cls, data: dict) -> GFlow:
        data = json_object(data, "gflow")
        try:
            corrections = {
                json_vertex(v, "g"): json_distinct_ints(s, "correcting set")
                for v, s in json_object(data["g"], "g").items()
            }
            layers = [
                json_distinct_ints(layer, "layer") for layer in json_list(data["layers"], "layers")
            ]
            planes = {
                json_vertex(v, "planes"): Plane(p)
                for v, p in json_object(data.get("planes", {}), "planes").items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed gflow JSON: {exc}") from exc
        return cls(corrections=corrections, layers=layers, planes=planes)


def check_analysis_preconditions(graph: OpenGraph) -> None:
    if len(graph.inputs) > len(graph.outputs):
        raise ValueError("flow analysis requires |inputs| <= |outputs|")


def _peel(graph: OpenGraph, singleton: bool):
    """Backward layer peeling; returns construction passes or None.

    Each pass collects every unprocessed vertex u admitting a correcting
    set K of already-processed non-inputs with Odd(K) meeting the
    unprocessed region in exactly {u}.  Passes are built from the output
    side, so the first pass holds the vertices measured last.  A pass
    restricts each corrector's neighbourhood to the unprocessed region
    (its column) and eliminates only the nonzero columns, once.  The
    region only shrinks, so a corrector whose column is zero is dropped
    for good; a zero column adds no basis entry, so dropping it only
    relabels the columns that the masks name.  Only a pivot of the basis
    can be expressed alone, so only the pivots are asked, in ascending
    order, for their minimal correcting sets.
    """
    adjacency = graph.adjacency_masks
    region = _set_to_mask(graph.measured)
    correctors = sorted(v for v in graph.outputs if v not in graph.input_set)
    passes: list[dict[int, frozenset[int]]] = []

    while region:
        live = [(w, col) for w in correctors if (col := adjacency[w] & region)]
        correctors = [w for w, _ in live]
        found: dict[int, frozenset[int]] = {}
        if singleton:
            for w, col in live:
                u = col.bit_length() - 1
                if col == 1 << u and u not in found:
                    found[u] = frozenset((w,))
        else:
            basis = gf2_basis([col for _, col in live])
            for u in sorted(basis):
                mask = gf2_express(basis, 1 << u)
                if mask is not None:
                    members = []
                    while mask:
                        low = mask & -mask
                        members.append(correctors[low.bit_length() - 1])
                        mask ^= low
                    found[u] = frozenset(members)
        if not found:
            return None
        passes.append(found)
        region &= ~_set_to_mask(found)
        correctors = sorted(correctors + [v for v in found if v not in graph.input_set])
    return passes


def _find(graph: OpenGraph, singleton: bool) -> GFlow | None:
    check_analysis_preconditions(graph)
    passes = _peel(graph, singleton)
    if passes is None:
        return None
    corrections: dict[int, frozenset[int]] = {}
    for p in passes:
        corrections.update(p)
    return GFlow._unchecked(corrections, (*map(frozenset, reversed(passes)), graph.output_set))


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
    """Bitmasks of g(vertex) and Odd(g(vertex)); ValueError if g(vertex) leaves 0..n-1.

    The range test stays inline on this hot path; ``_check_vertices`` only raises.
    """
    x_mask = z_mask = 0
    for j in gflow.corrections[vertex]:
        if not 0 <= j < graph.n:
            _check_vertices(graph.n, gflow.corrections[vertex], f"correcting set of {vertex}")
        x_mask |= 1 << j
        z_mask ^= graph.adjacency_masks[j]
    return x_mask, z_mask


#: Whether each plane needs i in g(i) and in Odd(g(i)), and the rule it breaks otherwise.
_PLANE_RULES = {
    Plane.XY: ((0, 1), "g3", "XY needs i outside g(i) and inside Odd(g(i))"),
    Plane.XZ: ((1, 1), "g4", "XZ needs i inside g(i) and inside Odd(g(i))"),
    Plane.YZ: ((1, 0), "g5", "YZ needs i inside g(i) and outside Odd(g(i))"),
}


def _check_gflow_shape(graph: OpenGraph, gflow: GFlow) -> None:
    """ValueError unless ``gflow``'s layers and correcting sets have the shape ``graph`` needs.

    The layers partition the vertex set and end in exactly the outputs, so
    the rounds measure the non-outputs, and no correcting set holds an input.
    """
    if set(gflow.layer_of) != set(range(graph.n)):
        raise ValueError("layers must partition the vertex set")
    if gflow.layers and gflow.layers[-1] != graph.output_set:
        raise ValueError("final layer must hold exactly the outputs")
    for i, corr in gflow.corrections.items():
        if corr & graph.input_set:
            raise ValueError(f"correcting set of {i} contains input vertices")


def verify_gflow(graph: OpenGraph, gflow: GFlow) -> list[Violation]:
    """Check every gFlow condition; an empty list means the gFlow is valid.

    Structural malformations raise ValueError: a layer shape that
    :func:`_check_gflow_shape` refuses, or a correcting set leaving the
    vertex range (:func:`correction_masks`).  Per-vertex rule violations
    are returned as a list.
    """
    _check_gflow_shape(graph, gflow)
    layer_of = gflow.layer_of
    # not_later[k]: the vertices of layers 0..k.
    not_later = list(accumulate(map(_set_to_mask, gflow.layers), operator.or_))
    violations: list[Violation] = []
    for i in sorted(gflow.corrections):
        x_mask, z_mask = correction_masks(graph, gflow, i)
        early = not_later[layer_of[i]] & ~(1 << i)
        if x_mask & early:
            for j in sorted(_mask_to_set(x_mask & early)):
                violations.append(Violation(i, "g1", f"corrector {j} not after {i}"))
        # Strict form: everything the correction touches must come
        # strictly later.  Merely banning strictly-earlier vertices
        # would admit same-round corrections that overwrite each
        # other and break determinism.
        if z_mask & early:
            for j in sorted(_mask_to_set(z_mask & early)):
                violations.append(Violation(i, "g2", f"correction touches non-later vertex {j}"))
        needs, rule, detail = _PLANE_RULES[gflow.planes[i]]
        if ((x_mask >> i) & 1, (z_mask >> i) & 1) != needs:
            violations.append(Violation(i, rule, detail))
    return violations


def _check_gflow_valid(graph: OpenGraph, gflow: GFlow) -> None:
    """ValueError naming the first three violations unless ``gflow`` is valid on ``graph``."""
    violations = verify_gflow(graph, gflow)
    if violations:
        raise ValueError(f"gflow is invalid: {violations[:3]}")


def check_pattern(gflow: GFlow, pattern: MeasurementPattern) -> None:
    """Raise ValueError unless ``pattern`` fits the measured vertices of ``gflow``.

    The pattern's angles name exactly the vertices of
    ``gflow.measurement_order``, and each pattern plane must be the
    gflow's plane.
    """
    missing = set(gflow.measurement_order) - set(pattern.angles)
    if missing:
        raise ValueError(f"pattern missing angles for vertices {sorted(missing)}")
    extra = set(pattern.angles) - set(gflow.measurement_order)
    if extra:
        raise ValueError(f"pattern gives angles to unmeasured vertices {sorted(extra)}")
    for v in gflow.measurement_order:
        if pattern.planes[v] is not gflow.planes[v]:
            raise ValueError(
                f"pattern plane {pattern.planes[v].value} for vertex {v} "
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
        z_mask &= ~(1 << i)
        while x_mask:
            low = x_mask & -x_mask
            x_parity[low.bit_length() - 1].append(i)
            x_mask ^= low
        while z_mask:
            low = z_mask & -z_mask
            z_parity[low.bit_length() - 1].append(i)
            z_mask ^= low
    total = sum(len(s) for s in x_parity.values()) + sum(
        len(s) for s in z_parity.values()
    )
    return CorrectionReport(
        x_parity={v: tuple(s) for v, s in x_parity.items()},
        z_parity={v: tuple(s) for v, s in z_parity.items()},
        total_cost=total,
        depth=gflow.depth,
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

    Both kinds of wire are successor chains, walked once from each input
    to the first output.  A causal flow gives its successors directly,
    its singleton correcting sets (for equally many inputs and outputs
    these wires cover every vertex); it skips the max-flow because that
    took 0.25 ms per call against 0.07 ms on the seed-1 flow-scan pool's
    causal gFlows (2 CPUs, Python 3.11).  Any other gFlow gets them from a
    unit-vertex-capacity max-flow.  Fewer than ``len(inputs)`` disjoint paths, a successor
    cycle or two wires that meet mean an upstream invariant was violated
    and raise :class:`FlowConsistencyError`, as does a causal chain that
    stops short of an output.  Non-output vertices on no
    wire are reported for the entanglement-bound surplus term.

    The max-flow wires are canonical: one shortest augmenting path per
    input in ``graph.inputs`` order, found by breadth-first search that
    tries each vertex's neighbours in descending label order.  Of the two
    label orders, descending gives the lower flow bound more often: on
    the 253 non-causal gFlows of ``sample_graphs_with_gflow(600, seed=11,
    n_max=10)`` (tests/conftest.py) its bound is lower than ascending
    order's on 15 and higher on 10.
    """
    if gflow.is_flow:
        successor = {v: w for v, (w,) in gflow.corrections.items()}
    else:
        successor = _max_flow_successors(graph)
    wires = []
    seen: set[int] = set()
    for start in graph.inputs:
        wire = [start]
        while wire[-1] not in graph.output_set:
            current = successor.get(wire[-1])
            if current is None:
                raise FlowConsistencyError(
                    f"flow wire from {start} stops at {wire[-1]}, which is not an output"
                )
            if current in wire:
                raise FlowConsistencyError(f"flow successor cycle through {current}")
            wire.append(current)
        if seen & set(wire):
            raise FlowConsistencyError("flow wires are not vertex-disjoint")
        seen.update(wire)
        wires.append(tuple(wire))
    uncovered = frozenset(range(graph.n)).difference(seen, graph.output_set)
    return WireReport(wires=tuple(wires), uncovered_non_outputs=uncovered)


def _max_flow_successors(graph: OpenGraph) -> dict[int, int]:
    """Successor map of vertex-disjoint input/output paths, by BFS augmentation.

    The network splits vertex v into v_in = 2v and v_out = 2v + 1 joined
    by a unit arc, with a unit arc u_out -> v_in for each edge in each
    direction and v_out -> sink for each output.  Each input, in
    ``graph.inputs`` order, starts one breadth-first search for a
    shortest augmenting path from its own v_in, which stands in for the
    unit source arc (Edmonds and Karp, JACM 19, 1972).  An input that
    finds no path never finds one later, so the number of augmented
    inputs is the maximum flow.

    No arc list is built.  At most one unit passes through a vertex, so
    the flow is held per vertex: ``used[v]`` says whether v's split arc
    carries it, ``succ[v]`` and ``pred[v]`` name the neighbours it goes
    to and comes from (-1 for none), and ``to_sink[v]`` says whether the
    sink arc of an output is still free.  The residual arcs of v_in are
    then its split arc while unused and the reverse of pred[v]'s arc;
    those of v_out are the reverse split arc while used, the sink arc
    while free, and the arcs to every neighbour but succ[v], in
    descending label order.  The search stops at the first v_out whose
    sink arc is free and otherwise tries the arcs in that order, so each
    augmenting path is the one a search over the split network's arc
    lists would find.  ``succ`` is the successor map.
    """
    n = graph.n
    sink = 2 * n
    # v_in of every neighbour; reversed canonical edges list them in descending order.
    arcs_out: list[list[int]] = [[] for _ in range(n)]
    for u, v in reversed(graph.edges):
        arcs_out[u].append(2 * v)
        arcs_out[v].append(2 * u)
    used = [False] * n
    succ = [-1] * n
    pred = [-1] * n
    to_sink = [False] * n
    for v in graph.outputs:
        to_sink[v] = True
    value = 0
    for start in graph.inputs:
        source = 2 * start
        via = [-1] * (sink + 1)  # the node each node was reached from; -1: not reached
        via[source] = source
        queue = [source]
        for node in queue:
            v = node >> 1
            if node & 1:
                if to_sink[v]:
                    via[sink] = node
                    break
                if used[v] and via[node - 1] < 0:
                    via[node - 1] = node
                    queue.append(node - 1)
                skip = 2 * succ[v]
                for step in arcs_out[v]:
                    if via[step] < 0 and step != skip:
                        via[step] = node
                        queue.append(step)
            else:
                if not used[v] and via[node + 1] < 0:
                    via[node + 1] = node
                    queue.append(node + 1)
                step = 2 * pred[v] + 1
                if step > 0 and via[step] < 0:
                    via[step] = node
                    queue.append(step)
        else:
            continue
        value += 1
        node = sink
        while node != source:
            prev = via[node]
            u, v = prev >> 1, node >> 1
            if node == sink:
                to_sink[u] = False
            elif u == v:
                used[u] = not prev & 1
            elif prev & 1:
                succ[u], pred[v] = v, u
            else:
                # The reverse of v_out -> u_in takes back v's unit into u.
                # The walk runs from the sink, so a later arc of this path
                # may already have sent v's unit elsewhere.
                pred[u] = -1
                if succ[v] == u:
                    succ[v] = -1
            node = prev
    if value < len(graph.inputs):
        raise FlowConsistencyError(
            f"only {value} vertex-disjoint paths exist for {len(graph.inputs)} inputs"
        )
    return {v: w for v, w in enumerate(succ) if w >= 0}
