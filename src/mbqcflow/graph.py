"""Open graphs and their GF(2) cut structure.

An open graph is a simple undirected graph with designated ordered input
and output vertex sets.  Entanglement across a bipartition of the
corresponding graph state equals the GF(2) rank of the adjacency
submatrix between the two sides, which is what the cut operations here
compute.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import BudgetExceededError
from .gf2 import gf2_rank

#: Cap on the number of bipartitions enumerated by the entanglement check.
DEFAULT_CUT_BUDGET = 2**20

#: Largest ``n`` that graph JSON may declare, from a 1 GiB target.  The
#: costliest command on an edgeless graph is ``flow report`` with every
#: vertex an input and an output: 900-990 bytes per vertex of peak RSS at
#: n = 10^5 and 2^20 (Python 3.11), so 2^20 vertices take about 0.95 GB.
VERTEX_CAP = 2**20


class JsonText:
    """``to_json`` and ``from_json`` over a class's ``to_json_dict`` and ``from_json_dict``."""

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_dict(parse_json(text))


@dataclass(frozen=True)
class OpenGraph(JsonText):
    """Simple undirected graph with ordered input and output vertex sets.

    Parameters
    ----------
    n : int
        Number of vertices, labelled ``0..n-1``.  Every label, and ``n``,
        is coerced with :func:`operator.index`, so numpy integers become
        Python ints and bitmasks over them do not wrap.
    edges : iterable of (int, int)
        Unordered vertex pairs; no self-loops or duplicates.  An edge of
        any other length raises ValueError.
    inputs : iterable of int
        Ordered input vertices (the order fixes the input qubit register).
    outputs : iterable of int
        Ordered output vertices.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        inputs: Iterable[int] = (),
        outputs: Iterable[int] = (),
    ) -> None:
        pairs = [list(map(operator.index, e)) for e in edges]
        for e in pairs:
            if len(e) != 2:
                raise ValueError(f"edge {e} is not a pair")
        canonical = sorted(tuple(sorted(e)) for e in pairs)
        object.__setattr__(self, "n", operator.index(n))
        object.__setattr__(self, "edges", tuple(canonical))
        object.__setattr__(self, "inputs", tuple(map(operator.index, inputs)))
        object.__setattr__(self, "outputs", tuple(map(operator.index, outputs)))
        self._validate()

    def _validate(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        for name, vertices in (("inputs", self.inputs), ("outputs", self.outputs)):
            if len(set(vertices)) != len(vertices):
                raise ValueError(f"duplicate vertex in {name}")
            for v in vertices:
                if not 0 <= v < self.n:
                    raise ValueError(f"{name} vertex {v} out of range")

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbour bitmask per vertex."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def input_set(self) -> frozenset[int]:
        return frozenset(self.inputs)

    @cached_property
    def output_set(self) -> frozenset[int]:
        return frozenset(self.outputs)

    @cached_property
    def measured(self) -> tuple[int, ...]:
        """Vertices outside the output set, ascending."""
        return tuple(v for v in range(self.n) if v not in self.output_set)

    def _check_vertex(self, v: int) -> None:
        """Raise ValueError unless ``v`` is a vertex, one of ``0..n-1``."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return _mask_to_set(self.adjacency_masks[v])

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> OpenGraph:
        data = json_object(data, "graph")
        try:
            n = check_vertex_count(json_int(data["n"], "n"))
            edges = [json_ints(e, "edge") for e in json_list(data["edges"], "edges")]
            inputs = json_ints(data.get("inputs", []), "inputs")
            outputs = json_ints(data.get("outputs", []), "outputs")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed open graph JSON: {exc}") from exc
        return cls(n=n, edges=edges, inputs=inputs, outputs=outputs)

    def to_dot(self, gflow=None) -> str:
        """Graphviz rendering: boxed inputs, hollow outputs.

        When a gflow is supplied its correction assignments are drawn as
        dashed red arrows.
        """
        lines = ["digraph G {", "  node [shape=circle, style=filled, fillcolor=lightgrey];"]
        for v in range(self.n):
            attrs = []
            if v in self.input_set:
                attrs.append("shape=box")
            if v in self.output_set:
                attrs.append("style=solid")
            if attrs:
                lines.append(f"  {v} [{', '.join(attrs)}];")
            else:
                lines.append(f"  {v};")
        for u, v in self.edges:
            lines.append(f"  {u} -> {v} [dir=none];")
        if gflow is not None:
            for i in sorted(gflow.corrections):
                for j in sorted(gflow.corrections[i]):
                    lines.append(
                        f"  {i} -> {j} [style=dashed, color=red, constraint=false];"
                    )
        lines.append("}")
        return "\n".join(lines)


def check_vertex_count(n: int) -> int:
    """``n`` itself, or BudgetExceededError when it exceeds ``VERTEX_CAP``."""
    if n > VERTEX_CAP:
        raise BudgetExceededError(f"{n} vertices exceed the vertex cap of {VERTEX_CAP}")
    return n


def parse_json(text: str) -> object:
    """``json.loads(text)``, with a ValueError for a repeated key or for deep nesting."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object of ``pairs``; ``json.loads`` alone keeps the last of two equal keys."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"repeated key {repeated!r} in a JSON object")
    return obj


def json_int(value: object, name: str) -> int:
    """``value`` itself if it is a JSON integer, else ValueError.

    Nothing is coerced: floats, strings and booleans (which Python counts
    as ints) are all rejected.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def json_vertex(key: object, name: str) -> int:
    """The vertex a JSON object key names, else ValueError.

    Only the canonical decimal form counts (``str(int(key)) == key``):
    ``int()`` alone also reads ``"00"``, ``" 0"``, ``"+0"``, ``"1_0"`` and
    non-ASCII digits, which would let two keys name one vertex.
    """
    if not (isinstance(key, str) and key.isascii() and str(int(key)) == key):
        raise ValueError(f"{name} key {key!r} is not a vertex number in canonical form")
    return int(key)


def json_list(value: object, name: str) -> list:
    """``value`` itself if it is a JSON array, else ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def json_ints(value: object, name: str) -> list[int]:
    """A JSON array of integers, checked with :func:`json_int`."""
    return [json_int(v, f"{name} member") for v in json_list(value, name)]


def json_distinct_ints(value: object, name: str) -> list[int]:
    """A JSON array of integers in which no member repeats."""
    members = json_ints(value, name)
    if len(set(members)) < len(members):
        repeated = next(v for v, count in Counter(members).items() if count > 1)
        raise ValueError(f"{name} repeats member {repeated}")
    return members


def json_number(value: object, name: str) -> float:
    """``value`` as a float if it is a JSON int or float, else ValueError."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def json_object(value: object, name: str) -> dict:
    """``value`` itself if it is a JSON object, else ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    return value


def _mask_to_set(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _set_to_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _check_vertices(graph: OpenGraph, vertices: Iterable[int], name: str) -> frozenset[int]:
    vs = frozenset(vertices)
    for v in vs:
        if not 0 <= v < graph.n:
            raise ValueError(f"{name} contains out-of-range vertex {v}")
    return vs


def odd_neighborhood(graph: OpenGraph, vertices: Iterable[int]) -> frozenset[int]:
    """Vertices adjacent to an odd number of members of ``vertices``.

    Linear over symmetric difference: Odd(K1 xor K2) = Odd(K1) xor Odd(K2).
    """
    vs = _check_vertices(graph, vertices, "vertex set")
    acc = 0
    for v in vs:
        acc ^= graph.adjacency_masks[v]
    return _mask_to_set(acc)


def cut_edges(graph: OpenGraph, side: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in ``side``."""
    vs = _check_vertices(graph, side, "cut side")
    return sum(1 for u, v in graph.edges if (u in vs) != (v in vs))


def cut_rank(graph: OpenGraph, side: Iterable[int]) -> int:
    """GF(2) rank of the adjacency submatrix between ``side`` and its complement.

    For the corresponding graph state this equals the log2 Schmidt rank of
    the bipartition, so it never exceeds ``cut_edges`` nor the size of the
    smaller side.
    """
    side = map(operator.index, side)  # a numpy label would wrap the mask
    return mask_cut_rank(graph, _set_to_mask(_check_vertices(graph, side, "cut side")))


def mask_cut_rank(graph: OpenGraph, side_mask: int) -> int:
    """:func:`cut_rank` with the side given as a bitmask of in-range vertices."""
    other_mask = ((1 << graph.n) - 1) & ~side_mask
    rows = [
        graph.adjacency_masks[v] & other_mask
        for v in range(graph.n)
        if (side_mask >> v) & 1
    ]
    return gf2_rank(rows)


def has_entanglement_capacity(graph: OpenGraph) -> tuple[bool, frozenset[int] | None]:
    """Check that every input/output-separating cut can carry the input space.

    Requires cut rank at least ``len(inputs)`` for every bipartition (A,
    B) with the inputs in A and the outputs in B.  Returns ``(ok,
    witness)`` where ``witness`` is a violating A side when the check
    fails.  A reference qubit entangled with each input (a pendant
    vertex) would add nothing: it sits on the A side with its input in
    every such cut, so its edge never crosses and the rank is unchanged.

    Interior vertices are enumerated exhaustively; if there are more than
    ``log2(DEFAULT_CUT_BUDGET)`` of them a :class:`BudgetExceededError` is
    raised.
    If an input is also an output no separating bipartition exists and the
    check is vacuously true.
    """
    k = len(graph.inputs)
    if graph.input_set & graph.output_set:
        return True, None
    free = [
        v
        for v in range(graph.n)
        if v not in graph.input_set and v not in graph.output_set
    ]
    if 2 ** len(free) > DEFAULT_CUT_BUDGET:
        raise BudgetExceededError(
            f"{len(free)} interior vertices exceed the cut budget of {DEFAULT_CUT_BUDGET}"
        )
    base_a = _set_to_mask(graph.inputs)
    for mask in range(2 ** len(free)):
        # Bit set moves the free vertex to the output side.
        a_side = base_a
        for bit, v in enumerate(free):
            if not (mask >> bit) & 1:
                a_side |= 1 << v
        if mask_cut_rank(graph, a_side) < k:
            return False, _mask_to_set(a_side)
    return True, None
