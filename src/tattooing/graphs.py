"""Simple connected graphs, their orientations, and named graph families.

An orientation is an integer code: bit ``i`` set flips edge ``i`` to
high-to-low.  :func:`collect_acyclic_orientation_bits` lists the codes
of the acyclic ones in ascending order, by a recursive scan over
per-vertex reachability masks.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable


class EdgeListError(ValueError):
    """Base class for errors raised while building a graph from edge input."""


class MalformedLineError(EdgeListError):
    """A line of edge-list input is not two non-negative integers."""


class SelfLoopError(EdgeListError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(EdgeListError):
    """The same unordered vertex pair appears more than once."""


class DisconnectedGraphError(EdgeListError):
    """The input does not describe a single connected graph."""


@dataclass(frozen=True)
class Graph:
    """A simple connected undirected graph on vertices ``0 .. n-1``.

    Edges are stored canonically: each pair ordered ``(u, v)`` with
    ``u < v`` and the tuple sorted lexicographically.  Construction
    normalises the edge order and rejects loops, duplicate edges,
    out-of-range endpoints, and disconnected inputs.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        seen: set[tuple[int, int]] = set()
        canon: list[tuple[int, int]] = []
        for pair in self.edges:
            u, v = pair
            if u == v:
                raise SelfLoopError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if u < 0 or v >= self.n:
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if (u, v) in seen:
                raise DuplicateEdgeError(f"edge ({u}, {v}) appears more than once")
            seen.add((u, v))
            canon.append((u, v))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))
        self._check_connected()

    def _check_connected(self) -> None:
        """Reject a disconnected graph in memory proportional to the edge
        count, whatever vertex count it claims."""
        adj: dict[int, list[int]] = {}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.n:
            # seen holds at most m + 1 ids, so the scan stops early
            missing = next(x for x in range(self.n) if x not in seen)
            raise DisconnectedGraphError(
                f"vertex {missing} is not connected to vertex 0"
            )

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour tuple for every vertex, each in ascending order."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


def parse_edge_list(text: str) -> Graph:
    """Build a graph from lines of ``u v`` pairs.

    Blank lines and lines starting with ``#`` are skipped.  Vertex ids
    must be non-negative integers and every id in ``0 .. max`` must occur
    in some edge, otherwise the graph is reported as disconnected.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLineError(
                f"line {lineno}: expected two vertex ids, got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(
                f"line {lineno}: expected two vertex ids, got {line!r}"
            ) from None
        if u < 0 or v < 0:
            raise MalformedLineError(f"line {lineno}: vertex ids must be non-negative")
        if u == v:
            raise SelfLoopError(f"line {lineno}: loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(
                f"line {lineno}: edge {key} appears more than once"
            )
        seen.add(key)
        edges.append(key)
        top = max(top, v, u)
    if not edges:
        raise MalformedLineError("no edges in input")
    return Graph(top + 1, tuple(edges))


@dataclass(frozen=True)
class Digraph:
    """An orientation of a graph: arc ``i`` is ``edges[i]`` as (tail, head)."""

    graph: Graph
    arcs: tuple[tuple[int, int], ...]
    _out: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _in: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        edges = self.graph.edges
        if len(self.arcs) != len(edges):
            raise ValueError("arc count does not match edge count")
        out: list[list[int]] = [[] for _ in range(self.graph.n)]
        inc: list[list[int]] = [[] for _ in range(self.graph.n)]
        for i, (t, h) in enumerate(self.arcs):
            if (t, h) != edges[i] and (h, t) != edges[i]:
                raise ValueError(f"arc {i} {(t, h)} does not orient edge {edges[i]}")
            out[t].append(i)
            inc[h].append(i)
        object.__setattr__(self, "_out", tuple(tuple(a) for a in out))
        object.__setattr__(self, "_in", tuple(tuple(a) for a in inc))

    def tail(self, i: int) -> int:
        return self.arcs[i][0]

    def head(self, i: int) -> int:
        return self.arcs[i][1]

    def out_arcs(self, v: int) -> tuple[int, ...]:
        """Indices of arcs leaving ``v``, in ascending arc order."""
        return self._out[v]

    def in_arcs(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def sources(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.graph.n) if not self._in[v])

    def bits(self) -> int:
        """Integer code of this orientation; see :func:`orient`."""
        code = 0
        for i, arc in enumerate(self.arcs):
            if arc != self.graph.edges[i]:
                code |= 1 << i
        return code

    def topological_order(self) -> tuple[int, ...]:
        """Kahn's algorithm, always removing the smallest ready vertex id."""
        indeg = [self.in_degree(v) for v in range(self.graph.n)]
        ready = [v for v in range(self.graph.n) if indeg[v] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for i in self._out[v]:
                h = self.arcs[i][1]
                indeg[h] -= 1
                if indeg[h] == 0:
                    heapq.heappush(ready, h)
        if len(order) != self.graph.n:
            raise ValueError("digraph contains a directed cycle")
        return tuple(order)

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
        except ValueError:
            return False
        return True


def orient(graph: Graph, code: int) -> Digraph:
    """Decode an orientation: bit ``i`` set flips edge ``i`` to high-to-low."""
    arcs = tuple(
        (v, u) if (code >> i) & 1 else (u, v)
        for i, (u, v) in enumerate(graph.edges)
    )
    return Digraph(graph, arcs)


def collect_acyclic_orientation_bits(
    graph: Graph, *, check: Callable[[], None] | None = None
) -> array:
    """Codes of all acyclic orientations, in ascending numeric order.

    A recursive scan assigns edge ``m-1`` first, trying the unflipped
    direction before the flipped one, so codes come out strictly
    increasing.  ``reach[w]`` is the (reflexive) bitmask of vertices
    ``w`` reaches; an arc ``t -> h`` is refused when ``h`` already
    reaches ``t``, and otherwise the child scan gets a copy in which
    every vertex reaching ``t`` also reaches all that ``h`` reaches.
    ``check``, if given, is called after every 256th code and may raise
    to abandon the listing, as a search's deadline does.
    """
    out = array("Q")
    edges = graph.edges

    def scan(e: int, bits: int, reach: list[int]) -> None:
        if e < 0:
            out.append(bits)
            if check is not None and len(out) % 256 == 0:
                check()
            return
        u, v = edges[e]
        for t, h, flip in ((u, v, 0), (v, u, 1 << e)):
            rh = reach[h]
            if not (rh >> t) & 1:
                grown = (
                    [rw | rh if (rw >> t) & 1 else rw for rw in reach]
                    if e
                    else reach  # a leaf reads no masks
                )
                scan(e - 1, bits | flip, grown)

    scan(graph.m - 1, 0, [1 << x for x in range(graph.n)])
    return out


class FamilyKind(Enum):
    CYCLE = "cycle"
    PATH = "path"
    STAR = "star"
    WHEEL = "wheel"
    FRIENDSHIP = "friendship"
    GENERAL_FRIENDSHIP = "genfriendship"
    JOOST = "joost"


# least value of each parameter; the tuple's length is the arity
_MINIMA = {
    FamilyKind.CYCLE: (3,),
    FamilyKind.PATH: (2,),
    FamilyKind.STAR: (1,),
    FamilyKind.WHEEL: (3,),
    FamilyKind.FRIENDSHIP: (3, 1),
    FamilyKind.JOOST: (3, 1),
    FamilyKind.GENERAL_FRIENDSHIP: (),
}


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family instance.

    ``params`` carries the integer parameters for every kind except
    GENERAL_FRIENDSHIP, which instead lists ``blocks`` of
    (cycle length, copies) pairs.
    """

    kind: FamilyKind
    params: tuple[int, ...] = ()
    blocks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        k = self.kind
        minima = _MINIMA[k]
        if len(self.params) != len(minima):
            raise ValueError(
                f"{k.value} takes {len(minima)} parameter(s), got {len(self.params)}"
            )
        if k is FamilyKind.GENERAL_FRIENDSHIP:
            if not self.blocks:
                raise ValueError("genfriendship needs at least one cycle block")
            for length, copies in self.blocks:
                if length < 3:
                    raise ValueError(f"cycle length must be at least 3, got {length}")
                if copies < 1:
                    raise ValueError(f"copy count must be positive, got {copies}")
            return
        if self.blocks:
            raise ValueError(f"{k.value} does not take cycle blocks")
        for value, least in zip(self.params, minima):
            if value < least:
                raise ValueError(
                    f"{k.value} parameter {value} below minimum {least}"
                )

    def __str__(self) -> str:
        if self.kind is FamilyKind.GENERAL_FRIENDSHIP:
            body = "+".join(f"{l}x{c}" for l, c in self.blocks)
        else:
            body = ",".join(str(p) for p in self.params)
        return f"{self.kind.value}:{body}"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse ``kind:params``, e.g. ``cycle:7``, ``friendship:3,6``,
    ``joost:4,7``, or ``genfriendship:3x2+4x1``."""
    kind_text, sep, body = text.strip().partition(":")
    if not sep or not body:
        raise ValueError(f"family spec {text!r} is not of the form kind:params")
    try:
        kind = FamilyKind(kind_text.lower())
    except ValueError:
        names = ", ".join(k.value for k in FamilyKind)
        raise ValueError(f"unknown family {kind_text!r}; expected one of {names}") from None
    if kind is FamilyKind.GENERAL_FRIENDSHIP:
        blocks: list[tuple[int, int]] = []
        for part in body.split("+"):
            length_text, sep2, copies_text = part.partition("x")
            try:
                if not sep2:
                    raise ValueError
                blocks.append((int(length_text), int(copies_text)))
            except ValueError:
                raise ValueError(
                    f"bad cycle block {part!r}; expected LENGTHxCOPIES"
                ) from None
        return FamilySpec(kind, (), tuple(blocks))
    try:
        params = tuple(int(p) for p in body.split(","))
    except ValueError:
        raise ValueError(f"bad parameters {body!r} for family {kind.value}") from None
    return FamilySpec(kind, params)


def build_family(spec: FamilySpec) -> Graph:
    """Construct the graph of a family instance with a fixed vertex layout.

    Hub-style families (star, wheel, friendship, genfriendship) put the
    hub at vertex 0; the Joost family puts its two junction vertices at
    0 and 1 with each parallel path numbered from the 0 side.
    """
    k = spec.kind
    if k is FamilyKind.CYCLE:
        (n,) = spec.params
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        return Graph(n, tuple(edges))
    if k is FamilyKind.PATH:
        (n,) = spec.params
        return Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    if k is FamilyKind.STAR:
        (t,) = spec.params
        return Graph(t + 1, tuple((0, i) for i in range(1, t + 1)))
    if k is FamilyKind.WHEEL:
        (n,) = spec.params
        edges = [(0, i) for i in range(1, n + 1)]
        edges += [(i, i + 1) for i in range(1, n)]
        edges.append((1, n))
        return Graph(n + 1, tuple(edges))
    if k is FamilyKind.FRIENDSHIP:
        q, copies = spec.params
        return _windmill([q] * copies)
    if k is FamilyKind.GENERAL_FRIENDSHIP:
        lengths: list[int] = []
        for length, copies in spec.blocks:
            lengths.extend([length] * copies)
        return _windmill(lengths)
    if k is FamilyKind.JOOST:
        n, paths = spec.params
        interior = n - 2
        edges = []
        nxt = 2
        for _ in range(paths):
            chain = list(range(nxt, nxt + interior))
            nxt += interior
            edges.append((0, chain[0]))
            edges += [(chain[i], chain[i + 1]) for i in range(interior - 1)]
            edges.append((chain[-1], 1))
        return Graph(nxt, tuple(edges))
    raise AssertionError(f"unhandled family kind {k}")


def _windmill(lengths: list[int]) -> Graph:
    """Cycles of the given lengths sharing exactly one hub vertex 0."""
    edges: list[tuple[int, int]] = []
    nxt = 1
    for length in lengths:
        block = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        edges.append((0, block[0]))
        edges += [(block[i], block[i + 1]) for i in range(length - 2)]
        edges.append((0, block[-1]))
    return Graph(nxt, tuple(edges))
