"""Exact minimisation of cost and label sum over acyclic orientations.

The search finds the lexicographic (cost, label sum) optimum in one
deepening loop.  Every orientation has an admissible lower bound
``sum_v max(0, need(outdeg v) - indeg v)`` on its cost (number of
primaries, or tokens).  A target cost ``c`` rises from the least bound;
at each ``c`` the orientations whose bound does not exceed it are
searched exhaustively, depth first with admissible bounds in both
coordinates, for the least label sum of a run costing at most ``c``.
The first ``c`` with any completion is the minimum cost, and the best
run found there is the answer.  BRUSH needs no search: a token run
always meets the bound, and every token weighs one.

The orientations of a level are listed by a scan that cuts a branch
once the bound of its decided edges passes ``c``
(:func:`~tattooing.graphs.collect_acyclic_orientation_bits`), so the
orientations above the final cost are never listed.  The first listing
is the least level, and each listing also gives the least bound it
left out, so no level the loop lists is empty, and a listing and its
isomorphism classes serve every level up to the next bound.  The
number of orientations the report gives is counted without listing
them (:func:`~tattooing.graphs.count_acyclic_orientations`).  The
count, the listings and the isomorphism classes are kept per graph
object, for as long as it lives, and every search of it shares them
(:class:`_OrientationSpace`).

A vertex fires once, as soon as every in-arc is tattooed, so each run
fires the vertices of its orientation in a topological order.  The
search explores one order per orientation: the topological order that
always removes the smallest ready vertex (Kahn), restricted to the
vertices with out-arcs.  Each orientation's order becomes a table of
firing steps, built once before its search: step ``k`` holds the vertex
that fires at depth ``k``, its out-arcs into vertices that fire later,
its out-arcs into sinks, and which of its live arcs are
interchangeable (the second pruning below).  The depth-first search is
one recursive step per firing: step ``k`` dispatches distinct pool sets
injectively along the vertex's out-arcs, every way the bounds allow,
and recurses on step ``k + 1`` with only colour state carried.  This
loses nothing: a vertex fires exactly once, and what it can dispatch
depends only on its arrivals, not on when unrelated vertices fired.

The depth-first search cuts a branch on two admissible bounds:

* Cost: the cost so far plus, for each vertex still to fire, the
  primaries its out-degree needs beyond its own primaries and one
  colour per in-arc, against the target ``c``.  The table of these
  needs is fixed per start: arrivals are not tracked.
* Label sum: the label sum so far plus a floor of the least weight of
  out-degree distinct sets for each vertex still to fire, against the
  best sum found.  Until a vertex's last in-arc is tattooed, its share
  is the cheapest any pool could offer.  From then on its colours are
  final, and its share is the cheapest in the best pool it can still
  reach within ``c``; if that pool is too small, the branch has no
  completion and is cut at once.

Under the SMALLEST policy the search works purely with firing-time
augmentation; an initial allocation at a vertex behaves exactly like
augmenting the same count at its first firing, and the reported
witness converts the first firing's augmentation back into an initial
allocation.  Under FRESH the global numbering makes the two differ, so
initial allocation counts are enumerated explicitly.

Orientations related by a digraph isomorphism admit exactly the same
(cost, label sum) pairs, so each isomorphism class is searched once,
through its least code.  The classes are the orbits of Aut(G) on the
orientations.  Generators of Aut(G) are learned from the class tests
themselves, as in nauty's automorphism pruning (McKay and Piperno,
*Practical graph isomorphism II*, 2014): every VF2 match is an
automorphism, and the orbit it generates is labelled at once.  A code
no generator has reached is placed exactly by a Weisfeiler-Lehman hash
and VF2.  Two further sound symmetry prunings keep the per-orientation
search small:

* Arcs whose head never fires (out-degree zero) are not branched on.
  Their labels have no downstream effect, so after the live arcs are
  assigned they greedily take the cheapest remaining pool sets.
* Live heads whose reachable firing subgraphs are disjoint, isomorphic
  as decorated shapes, and fed only from inside themselves or from the
  firing vertex are interchangeable: swapping their assigned sets and
  mirroring all downstream choices yields a run of identical cost and
  label sum.  Assignments within such a group are forced ascending.

Determinism: orientations are always enumerated in ascending code
order, the engine's pool order is (weight, cardinality, members), and
the incumbent is replaced only on strict improvement, so the reported
witness is a pure function of the input.  Every result is replayed
through the process engine before being returned.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
import time
import warnings
import weakref
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate, count, islice, permutations
from math import inf

from tattooing.engine import (
    AllocationPlan,
    ColourSet,
    EngineError,
    FireEvent,
    Mode,
    Outcome,
    Policy,
    ReplayError,
    Witness,
    _grant_mask,
    _member,
    _pool_masks,
    _sort_key,
    fire,
    initial_state,
    mutate_pool,
    ready_vertices,
    replay,
    required_primaries,
)
from tattooing.graphs import (
    Digraph,
    FamilySpec,
    Graph,
    _ints,
    collect_acyclic_orientation_bits,
    count_acyclic_orientations,
    orient,
)


def _lazy_module(name: str):
    """The module ``name``, executed on its first attribute access (one
    already imported is returned as it is).

    Only class reduction (:meth:`_Searcher._rep_for`) uses networkx, so
    a process that never reduces classes never pays for importing it.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


nx = _lazy_module("networkx")


class DiGraphMatcher:
    """networkx's VF2 matcher of two digraphs.

    A class of this module rather than networkx's, so that networkx
    loads only when a matcher is built.
    """

    def __init__(self, G1, G2):
        self._matcher = nx.isomorphism.DiGraphMatcher(G1, G2)

    def is_isomorphic(self) -> bool:
        return self._matcher.is_isomorphic()

    @property
    def mapping(self) -> dict[int, int]:
        return self._matcher.mapping


class Quantity(Enum):
    BR = "br"
    BTAU = "btau"
    TAU = "tau"
    MIN_LABEL_SUM = "labelsum"
    INDEX = "index"
    RAW_RATIO = "ratio"


# The cost quantities, each with the one mode it is defined in.
COST_MODES = {
    Quantity.BR: Mode.BRUSH,
    Quantity.BTAU: Mode.FSG,
    Quantity.TAU: Mode.BLEND,
}


def quantity_mode(
    quantity: Quantity | None, mode: Mode | None = None
) -> Mode:
    """The mode a quantity is computed in.

    A cost quantity implies its mode, and ``mode`` may only repeat it.
    Any other quantity, or none, takes ``mode`` and defaults to BLEND.
    """
    if quantity is not None:
        _member("quantity", quantity, Quantity)
    if mode is None:
        return COST_MODES.get(quantity, Mode.BLEND)
    _member("mode", mode, Mode)
    implied = COST_MODES.get(quantity, mode)
    if mode is not implied:
        raise ValueError(f"{quantity.value} is defined in {implied.value} mode")
    return mode


def quantity_value(quantity: Quantity, result) -> int | Fraction:
    """The value of ``quantity`` in a result with ``cost``, ``label_sum``,
    ``raw_ratio`` and ``index``: an outcome (a search report is one) or
    an oracle result."""
    _member("quantity", quantity, Quantity)
    if quantity in COST_MODES:
        return result.cost
    if quantity is Quantity.MIN_LABEL_SUM:
        return result.label_sum
    if quantity is Quantity.INDEX:
        return result.index
    return result.raw_ratio


class LimitError(RuntimeError):
    """The requested computation exceeds the configured limits."""


def _env_max_edges() -> int:
    raw = os.environ.get("TATTOO_MAX_EDGES", "22")
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(f"TATTOO_MAX_EDGES={raw!r} is not an integer") from None
    if limit < 1:
        raise ValueError(f"TATTOO_MAX_EDGES={raw!r} is not a positive integer")
    return limit


def _env_time_budget() -> float | None:
    raw = os.environ.get("TATTOO_TIME_BUDGET")
    if not raw:
        return None
    try:
        seconds = float(raw)
    except ValueError:
        raise ValueError(f"TATTOO_TIME_BUDGET={raw!r} is not a number") from None
    if not seconds > 0:  # 0, negative or nan
        raise ValueError(
            f"TATTOO_TIME_BUDGET={raw!r} is not a positive number of seconds"
        )
    return seconds


@dataclass(frozen=True)
class SearchLimits:
    """Hard limits; exceeding them refuses the computation outright.

    ``max_edges`` is a positive integer.  ``time_budget`` is a positive
    ``int`` or ``float`` (seconds, ``inf`` allowed), or None: no deadline.
    """

    max_edges: int = field(default_factory=_env_max_edges)
    time_budget: float | None = field(default_factory=_env_time_budget)

    def __post_init__(self) -> None:
        _ints("edge limits", (self.max_edges,))
        if self.max_edges < 1:
            raise ValueError(
                f"edge limit must be a positive integer, got {self.max_edges!r}"
            )
        budget = self.time_budget
        if not (budget is None or type(budget) in (int, float) and budget > 0):
            raise ValueError(
                f"time budget must be a positive number of seconds, "
                f"got {budget!r}"
            )

    def check(self, graph: Graph | FamilySpec) -> None:
        """Refuse a graph, or a family spec before it is built, with
        more edges than the limit."""
        if graph.m > self.max_edges:
            raise LimitError(
                f"graph has {graph.m} edges, limit is {self.max_edges} "
                "(raise TATTOO_MAX_EDGES or pass a larger limit)"
            )


class _Clock:
    """Counts units of work and checks the deadline on the first of
    every 256."""

    def __init__(self, time_budget: float | None):
        self.deadline = (
            time.monotonic() + time_budget if time_budget is not None else None
        )
        self.ticks = 0

    def tick(self) -> None:
        self.ticks += 1
        if self.ticks % 256 == 1:
            self.check()

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise LimitError("time budget exceeded")


@dataclass(frozen=True)
class IndexReport(Outcome):
    """Least cost, then least label sum at that cost, for one graph and
    mode: the replayed run of the witness found, and how many
    orientations the search covered."""

    orientations_searched: int


def _distinct_partitions(total: int) -> int:
    """Number of sets of positive integers that sum to ``total``."""
    ways = [1] + [0] * total
    for part in range(1, total + 1):
        for s in range(total, part - 1, -1):
            ways[s] += ways[s - part]
    return ways[total]


@functools.cache
def _cheap_prefix(mode: Mode, size: int) -> tuple[int, ...]:
    """Prefix sums of the cheapest weights t distinct sets can have,
    for t up to ``size``.

    FSG forms singletons only, of weights 1, 2, 3, ...  A set of primaries
    weighs the sum of its members, so exactly as many sets weigh w as w
    has partitions into distinct parts.  The table is exact, which keeps
    the label-sum bound built from it admissible.
    """
    if mode is Mode.FSG:
        weights = list(range(1, size + 1))
    else:
        weights = []
        w = 0
        while len(weights) < size:
            w += 1
            weights += [w] * _distinct_partitions(w)
    return tuple(accumulate(weights[:size], initial=0))


def _act(code: int, action: tuple[tuple[tuple[int, ...], ...], int]) -> int:
    """The image of an orientation code under an edge action: each byte
    of the code looks up where its bits move, then the flip mask is
    XORed in."""
    tables, image = action
    for table in tables:
        image ^= table[code & 255]
        code >>= 8
    return image


class _Orientation:
    """One orientation's firing steps and bounds.

    ``steps[k]`` is ``(v, live, sinks, follows)`` for the vertex ``v``
    that fires at depth ``k``: its out-arcs into vertices that fire
    later, its out-arcs into sinks, and for each live arc the position
    of the earlier live arc in its exchange class (-1 if none).

    An exchange class groups the live arcs whose heads have equal shape
    signatures, pairwise-disjoint firing closures, and no in-arcs from
    outside their own closure other than from v.  Each arc of a class
    takes a pool set later than the one before it.  FRESH numbering
    depends on global firing order, so every class is a singleton there.

    ``closing[k]`` lists ``(w, out-degree of w)`` for the firing
    vertices ``w`` whose last in-arc is tattooed by the firing at depth
    ``k - 1``; ``closing[0]`` lists the sources.  From depth ``k`` on
    their colours are final.
    """

    __slots__ = ("digraph", "need_out", "floor", "steps", "closing")

    def __init__(
        self,
        graph: Graph,
        code: int,
        mode: Mode,
        policy: Policy,
        prefix: tuple[int, ...],
    ):
        d = self.digraph = orient(graph, code)
        firing = [v for v in d.topological_order() if d.out_arcs(v)]
        self.need_out = [
            required_primaries(d.out_degree(v), mode) for v in range(graph.n)
        ]
        # floor[k]: least label sum the firings from depth k on can add
        self.floor = list(
            accumulate(
                (prefix[d.out_degree(v)] for v in reversed(firing)),
                initial=0,
            )
        )[::-1]
        # interned shape signature and firing closure of each firing
        # vertex, children before parents
        intern: dict[tuple, int] = {}
        sig: dict[int, int] = {}
        desc: dict[int, frozenset[int]] = {}
        for v in reversed(firing):
            heads = [d.head(i) for i in d.out_arcs(v)]
            kids = [h for h in heads if h in sig]
            key = (
                d.in_degree(v),
                len(heads) - len(kids),
                tuple(sorted(sig[h] for h in kids)),
            )
            sig[v] = intern.setdefault(key, len(intern))
            desc[v] = frozenset({v}.union(*(desc[h] for h in kids)))
        self.steps = []
        for v in firing:
            live = [i for i in d.out_arcs(v) if d.head(i) in sig]
            sinks = [i for i in d.out_arcs(v) if d.head(i) not in sig]
            follows = []
            # per signature: the class's latest arc and its closures
            latest: dict[int, tuple[int, frozenset[int]]] = {}
            for pos, i in enumerate(live):
                h = d.head(i)
                prev, taken = latest.get(sig[h], (-1, frozenset()))
                closure = desc[h]
                if (
                    policy is Policy.SMALLEST
                    and not closure & taken
                    and all(
                        d.tail(j) == v or d.tail(j) in closure
                        for w in closure
                        for j in d.in_arcs(w)
                    )
                ):
                    follows.append(prev)
                    latest[sig[h]] = (pos, taken | closure)
                else:
                    follows.append(-1)
            self.steps.append((v, live, sinks, follows))
        depth = {v: k for k, v in enumerate(firing)}
        self.closing = [[] for _ in range(len(firing) + 1)]
        for v in firing:
            last = max((depth[d.tail(i)] for i in d.in_arcs(v)), default=-1)
            self.closing[last + 1].append((v, d.out_degree(v)))


class _OrientationSpace:
    """What every search of one graph shares, built as searches need it.

    * ``count``: a(G), or None until a search has counted it;
    * ``listings[(bounds, limit)]``: the codes
      :func:`~tattooing.graphs.collect_acyclic_orientation_bits` lists
      with that bound table and limit, and the least bound it left out
      (``inf`` if none);
    * ``iso_buckets``, ``iso_rep`` and ``generators``: the orbit labels
      of :meth:`_Searcher._rep_for`.  A bucket keeps its classes' codes,
      not their networkx digraphs, which would hold about 4 kB each for
      as long as the graph lives.

    A listing is stored only once complete, so a search stopped inside
    one leaves nothing partial.  BRUSH and FSG have one bound table and
    BLEND its own, so a listing serves the modes with its table.  The
    orbit labels serve every mode and policy: the orbits of Aut(G) do
    not depend on either, every bound table gives an orbit one bound, so
    an orbit enters each listing whole, and the codes of a listing are
    labelled in ascending order.  So the first code of an orbit any
    search labels is the orbit's least, and that is every label.
    """

    def __init__(self) -> None:
        self.count: int | None = None
        self.listings: dict[tuple, tuple[Sequence[int], float]] = {}
        self.iso_buckets: dict[str, list[int]] = {}
        self.iso_rep: dict[int, int] = {}
        self.generators: list[tuple[tuple[tuple[int, ...], ...], int]] = []


# The orientation space of each graph object alive, by identity, and
# freed with it.  Graphs compare by value, so a dictionary keyed by the
# graph itself would hand one graph's space to every equal graph and
# drop it with the first.
_spaces: dict[int, _OrientationSpace] = {}


def _space_of(graph: Graph) -> _OrientationSpace:
    space = _spaces.get(id(graph))
    if space is None:
        space = _spaces[id(graph)] = _OrientationSpace()
        weakref.finalize(graph, _spaces.pop, id(graph))
    return space


class _Searcher:
    def __init__(
        self, graph: Graph, mode: Mode, policy: Policy, limits: SearchLimits
    ):
        _member("mode", mode, Mode)
        _member("policy", policy, Policy)
        limits.check(graph)
        self.graph = graph
        self.mode = mode
        self.policy = policy
        self.clock = _Clock(limits.time_budget)
        adj = graph.adjacency()
        self.prefix = _cheap_prefix(mode, max(len(a) for a in adj))
        # bounds[v][out] = max(0, need(out) - indeg v), v's share of the
        # cost bound when out of its edges leave it
        self.bounds = tuple(
            tuple(
                max(0, required_primaries(out, mode) - len(a) + out)
                for out in range(len(a) + 1)
            )
            for a in adj
        )
        self._pools: dict = {}
        if graph.m == 0:
            raise ValueError("the process needs at least one edge")
        self.space = _space_of(graph)

    def _rep_for(self, code: int) -> int:
        """Least code of this orientation's isomorphism class.

        Relabelling vertices maps legal runs to legal runs of the same
        cost and label sum, in both policies, so only one orientation
        per digraph isomorphism class needs searching.  Two orientations
        of G are isomorphic exactly when an automorphism of G maps one
        onto the other, so the classes are the orbits of Aut(G), and an
        orbit shares the cost bound.  So a whole orbit enters the
        deepening loop at one level, whose codes arrive in ascending
        order, and the first code seen of a class is its least.

        A code not yet labelled is placed exactly: buckets are keyed by
        a Weisfeiler-Lehman hash, and membership is settled by VF2.
        The vertex map of each VF2 hit is an automorphism, kept as a
        generator (:meth:`_learn`).  After every such classification the
        code's orbit under the generators found so far gets the same
        representative, so its other members skip WL and VF2.  Labels,
        buckets and generators are the graph's orientation space's, so
        a later search of the graph reuses them.
        """
        space = self.space
        got = space.iso_rep.get(code)
        if got is not None:
            return got
        G = self._nx_digraph(code)
        with warnings.catch_warnings():
            # networkx 3.5 changed these hashes; they are only compared
            # within one process, so the change does not matter here
            warnings.filterwarnings(
                "ignore", "The hashes produced for ", UserWarning
            )
            key = nx.weisfeiler_lehman_graph_hash(G)
        bucket = space.iso_buckets.setdefault(key, [])
        rep = code
        for rep_code in bucket:
            matcher = DiGraphMatcher(G, self._nx_digraph(rep_code))
            if matcher.is_isomorphic():
                rep = rep_code
                self._learn(code, rep, matcher.mapping)
                break
        else:
            bucket.append(code)
        # label the code's orbit under the generators found so far
        labels = space.iso_rep
        labels[code] = rep
        queue = [code]
        for c in queue:
            for action in space.generators:
                image = _act(c, action)
                if image not in labels:
                    self.clock.tick()
                    labels[image] = rep
                    queue.append(image)
        return rep

    def _nx_digraph(self, code: int) -> nx.DiGraph:
        G = nx.DiGraph()
        G.add_nodes_from(range(self.graph.n))
        G.add_edges_from(orient(self.graph, code).arcs)
        return G

    def _learn(self, code: int, rep: int, mapping: dict[int, int]) -> None:
        """Keep the vertex map ``mapping``, which VF2 found to take
        orientation ``code`` onto ``rep``, as an edge action.

        The action gives each edge its target edge and whether its
        direction flips, so an image code is the source's bits moved to
        their targets and XORed with the flip mask.  The moves are kept
        as one table per byte of a code.  The action is checked against
        the edge set and against ``code`` before use.
        """
        vertices = list(range(self.graph.n))
        if sorted(mapping) != vertices or sorted(mapping.values()) != vertices:
            raise EngineError(f"VF2 mapping {mapping} is not a vertex permutation")
        edges = self.graph.edges
        index = {e: i for i, e in enumerate(edges)}
        targets, flips = [], 0
        for u, v in edges:
            a, b = mapping[u], mapping[v]
            j = index.get((min(a, b), max(a, b)))
            if j is None:
                raise EngineError(
                    f"VF2 mapping sends edge {(u, v)} to non-edge {(a, b)}"
                )
            targets.append(j)
            flips |= (a > b) << j
        tables = []
        for k in range(0, len(targets), 8):
            # table[x]: where x moves, as bits k to k + 7 of a code
            table = [0]
            for j in targets[k : k + 8]:
                table += [t | 1 << j for t in table]
            tables.append(tuple(table))
        action = (tuple(tables), flips)
        if _act(code, action) != rep:
            raise EngineError(
                f"VF2 mapping does not take orientation {code} onto {rep}"
            )
        if action not in self.space.generators:
            self.space.generators.append(action)

    # ---- the deepening loop ----

    def run(self, workers: int = 1) -> IndexReport:
        space = self.space
        if space.count is None:
            space.count = count_acyclic_orientations(
                self.graph, check=self.clock.check
            )
        return self._solve(self._levels(), space.count, workers)

    def run_fixed(self, code: int) -> IndexReport:
        """The same optimum restricted to one orientation."""
        return self._solve(((c, [code]) for c in count(self._bound(code))), 1)

    def _bound(self, code: int) -> int:
        """The cost bound of one orientation."""
        d = orient(self.graph, code)
        return sum(
            share[d.out_degree(v)] for v, share in enumerate(self.bounds)
        )

    def _levels(self) -> Iterator[tuple[int, Sequence[int]]]:
        """``(c, reps)`` for each target cost ``c`` from the least bound
        up, ``reps`` being the least code of each isomorphism class of
        the orientations whose bound is at most ``c``, ascending.  BRUSH
        takes the least code of the least level, so there ``reps`` is
        every such code.

        The first listing is the least level.  Each listing also gives
        the least bound of the codes it left out, so its classes serve
        every level below that bound.  Listings are kept in the graph's
        orientation space by bound table and limit, so a later search of
        the graph with the same table lists none of them again.
        """
        c = None
        listings = self.space.listings
        while True:
            key = (self.bounds, c)
            if key not in listings:
                beyond: list[int] = []
                codes = collect_acyclic_orientation_bits(
                    self.graph,
                    check=self.clock.check,
                    bounds=self.bounds,
                    limit=c,
                    beyond=beyond,
                )
                listings[key] = (codes, beyond[0] if beyond else inf)
            codes, nxt = listings[key]
            if c is None:
                c = self._bound(codes[0])
            reps = codes
            if self.mode is not Mode.BRUSH:
                reps = []
                for code in codes:
                    self.clock.tick()
                    if self._rep_for(code) == code:
                        reps.append(code)
            while c < nxt:
                yield c, reps
                c += 1

    def _solve(
        self,
        levels: Iterator[tuple[int, Sequence[int]]],
        total: int,
        workers: int = 1,
    ) -> IndexReport:
        """Least cost, then least label sum, over the representatives of
        ``levels`` (see :meth:`_levels`), replayed once; ``total`` is
        the number of orientations the report says were searched."""
        global _worker
        if self.mode is Mode.BRUSH:
            # a token run always meets the bound, and tokens weigh one
            c, codes = next(levels)
            witness = self._brush_witness(codes[0])
            return self._finish(c, self.graph.m, witness, total)
        pool, size = None, 1
        try:
            for c, reps in levels:
                # levels only grow: a pool starts at the first level
                # with two representatives and is replaced only by a
                # level that can keep more workers busy, so no pool
                # has more workers than its level has representatives
                want = min(workers, len(reps))
                if want > size:
                    if pool is not None:
                        pool.terminate()
                    pool, size = self._start_pool(want), want
                best = self._search_level(c, reps, pool, size)
                if best["S"] < inf:
                    break
        finally:
            _worker = None
            if pool is not None:
                pool.terminate()
        witness = self._events_to_witness(
            best["code"], best["events"], best["plan"]
        )
        return self._finish(c, best["S"], witness, total)

    def _start_pool(self, size: int):
        """A pool of ``size`` workers forked from this process, so that
        each inherits this searcher, its deadline and its pool cache
        included, and keeps it for every level the pool serves."""
        global _worker
        _worker = self
        return _mp_context().Pool(size)

    def _search_level(
        self, budget: int, reps: list[int], pool, size: int
    ) -> dict:
        """Least label sum at cost at most ``budget`` over the
        representatives, as the ``best`` record of :meth:`_probe`.

        With a pool of ``size`` workers, the representatives are split
        round robin and the per-worker optima merged by (label sum,
        orientation code).  An admissible bound never prunes a
        completion at the final minimum, so the merged witness matches
        the serial one exactly.
        """
        if pool is None:
            return self._exhaust(budget, reps)
        chunks = [(budget, reps[w::size]) for w in range(size)]
        results = pool.map(_exhaust_chunk, chunks)
        # with no completion anywhere, any worker's empty record will do
        return min(
            (b for b in results if b["S"] < inf),
            key=lambda b: (b["S"], b["code"]),
            default=results[0],
        )

    def _exhaust(self, budget: int, codes: list[int]) -> dict:
        """Least label sum at cost at most ``budget`` over ``codes``, as
        the ``best`` record of :meth:`_probe`."""
        best: dict = {"S": inf, "code": None, "events": None, "plan": None}
        for code in codes:
            self.clock.tick()
            self._probe(code, budget, best)
        return best

    def _finish(
        self, cost: int, label_sum: int, witness: Witness, total: int
    ) -> IndexReport:
        """Replay the witness through the engine, once, insist it gives
        the cost and label sum the search claims, and report the replayed
        run with ``total`` orientations searched."""
        outcome = replay(self.graph, self.mode, witness)
        if outcome.cost != cost or outcome.label_sum != label_sum:
            raise ReplayError(
                f"search claims cost {cost}, label sum {label_sum}; "
                f"replay gives {outcome.cost}, {outcome.label_sum}"
            )
        return IndexReport(**vars(outcome), orientations_searched=total)

    # ---- per-orientation depth-first search ----

    def _probe(self, code: int, budget: int, best: dict) -> None:
        """Minimise the label sum on one orientation at cost at most
        ``budget``, updating ``best`` on strict improvement.

        One recursive step, ``dfs(k, ...)``, fires the vertex of
        ``steps[k]``: for each augmentation count the budget allows, it
        gives the live arcs every injective assignment of pool sets
        (``place``, ascending within an exchange class), gives the arcs
        into sinks the cheapest sets left, and recurses on the colour
        state that leaves.  Every child and every start passes ``admit``,
        which ticks and cuts on two admissible bounds: ``cost + lack[k]``
        against the budget, and the label sum so far plus the floor
        against the incumbent (``inf`` at first); ``place`` also cuts on
        the cheapest sets still to place.  The firings above the current
        depth are one ``path`` of references, turned into events when
        ``best`` improves.

        ``lack[k]``, built once per start, counts the primaries the
        vertices firing from depth ``k`` on need beyond their own held
        primaries and one colour per in-arc.  An in-arc brings at most
        one primary or blend, and a pool of ``p`` primaries and ``b``
        blends has a distinct set per out-arc only if ``p + b >=
        need_out``, so a smaller grant leaves the pool too small: the
        bound is admissible, and ``cost + lack[k]`` never falls along a
        branch.  The ``extra`` range keeps every child within the
        budget, so ``admit``'s cost cut fires only at a start.

        The floor charges a vertex still to fire ``prefix[out-degree]``,
        the cheapest distinct sets any pool could offer, until the vertex
        closes (its last in-arc is tattooed, ``closing``).  From then on
        its held primaries and arrived blends are final, and its share is
        the least weight of out-degree distinct sets in the best pool it
        can still reach: ``held | grant`` with the largest grant the
        budget allows, ``min(need_out, budget - cost)``, plus its arrived
        blends.  The share less ``prefix[out-degree]`` is its ``rise``,
        written at its closing depth and read only below it.  ``lift``
        sums the rises of the closed vertices still to fire: a firing
        drops its own vertex's rise and adds those ``admit`` returns.  A
        closed vertex whose best pool has too few sets has no
        completion, so its branch is cut at once; no rise is infinite.

        The share is admissible under both policies.  Costs only rise,
        so the grant at the vertex's firing has at most the count used
        here.  Under SMALLEST a grant is the lowest bits ``held`` lacks,
        so a smaller grant is a subset of the larger one, and so is its
        pool.  Under FRESH a grant is the bits numbered from the cost so
        far up, as every index up to the cost is issued, and the cost only
        grows.  So the bits of a later grant are in no held set and no
        arrived blend.  Sending the later grant's bits, in order, onto the
        bits from the current cost up fixes every arrived blend and maps
        the later pool one to one into the pool used here, with no set
        heavier.  So neither a smaller grant nor a later grant gives a
        cheaper choice of distinct sets.
        """
        o = _Orientation(self.graph, code, self.mode, self.policy, self.prefix)
        need_out, floor, steps = o.need_out, o.floor, o.steps
        arcs, closing, prefix = o.digraph.arcs, o.closing, self.prefix
        tick, policy, pool_for = self.clock.tick, self.policy, self._pool_for
        in_degree = o.digraph.in_degree
        rise = [0] * self.graph.n

        def admit(k, present, blends, cost, base):
            """One tick, then the rises of the vertices in ``closing[k]``,
            or None to cut: on ``cost + lack[k]``, on a pool too small, or
            on ``base`` plus the rises reaching the incumbent."""
            tick()
            if cost + lack[k] > budget:
                return None
            room = best["S"] - base
            total = 0
            for w, t in closing[k]:
                if total >= room:
                    return None
                held = present[w]
                grant = _grant_mask(
                    held, policy, cost, min(need_out[w], budget - cost)
                )
                pool, _, cheapest = pool_for(held | grant, blends[w])
                if len(pool) < t:
                    return None
                rise[w] = cheapest[t] - prefix[t]
                total += rise[w]
            return None if total >= room else total

        def dfs(k, present, blends, lift, cost, ssum):
            if k == len(steps):
                # every arc is tattooed, so the floor is 0 and the cut
                # before this call has made this a strict improvement
                events = [
                    (v, tuple((i, pool[pi]) for i, pi in zip(out, picks)))
                    for v, out, picks, pool in path
                ]
                best.update(S=ssum, code=code, events=events, plan=plan)
                return
            v, live, sinks, follows = steps[k]
            out = live + sinks
            old, arrived = present[v], blends[v]
            todo = len(out)
            # v's own share is charged in place, by the sets it takes
            lift_others = lift - rise[v]
            bound_base = ssum + floor[k + 1] + lift_others
            picks = [0] * len(live)

            def place(pos: int, add: int) -> None:
                """Put each unused pool set on live arc ``pos`` in turn;
                past the last live arc, fire ``v``."""
                if bound_base + add + cheapest[todo - pos] >= best["S"]:
                    return
                if pos < len(live):
                    f = follows[pos]
                    for pi in range(picks[f] + 1 if f >= 0 else 0, len(pool)):
                        if not used[pi]:
                            used[pi] = True
                            picks[pos] = pi
                            place(pos + 1, add + weights[pi])
                            used[pi] = False
                    return
                # the pool holds a set for every arc, so enough are left
                spare = (pi for pi, u in enumerate(used) if not u)
                sink_picks = list(islice(spare, len(sinks)))
                add += sum(weights[pi] for pi in sink_picks)
                all_picks = picks + sink_picks
                refs = 0
                for pi in all_picks:
                    if pool[pi] not in arrived:
                        refs |= pool[pi] & ~old
                if refs != granted:
                    return
                new_present, new_blends = list(present), list(blends)
                # colours are read only at heads that fire later
                for i, pi in zip(live, picks):
                    c, h = pool[pi], arcs[i][1]
                    if c & (c - 1) == 0:
                        new_present[h] |= c
                    else:
                        new_blends[h] = new_blends[h] | {c}
                raised = admit(
                    k + 1, new_present, new_blends, cost + extra, bound_base + add
                )
                if raised is None:
                    return
                path.append((v, out, all_picks, pool))
                dfs(
                    k + 1,
                    new_present,
                    new_blends,
                    lift_others + raised,
                    cost + extra,
                    ssum + add,
                )
                path.pop()

            for extra in range(min(need_out[v], budget - cost - lack[k + 1]) + 1):
                granted = _grant_mask(old, policy, cost, extra)
                pool, weights, cheapest = pool_for(old | granted, arrived)
                if len(pool) >= todo:
                    used = [False] * len(pool)
                    place(0, 0)
            del place  # it calls itself: unbound, it is freed now, not by gc

        # SMALLEST starts from the empty plan alone
        starts = self._starts(o, budget if policy is Policy.FRESH else 0)
        blends0 = [frozenset()] * self.graph.n
        path = []  # per firing: vertex, arcs, their pool positions, pool
        for plan, present0, cost0 in starts:
            # lack[k]: the primaries the firings from depth k on need
            # beyond their own and one colour per in-arc
            short = (
                need_out[v] - bin(present0[v]).count("1") - in_degree(v)
                for v, *_ in reversed(steps)
            )
            lack = list(accumulate((max(0, s) for s in short), initial=0))[::-1]
            lift = admit(0, present0, blends0, cost0, floor[0])
            if lift is not None:
                dfs(0, present0, blends0, lift, cost0, 0)
        del dfs  # it calls itself, and holds self through pool_for

    def _starts(self, o: _Orientation, budget: int):
        """The initial allocations of at most ``budget`` primaries that
        give no vertex more than its out-degree needs, as ``(plan, held
        masks, cost)``, cheapest first.  FRESH numbers the blocks in
        plan order; with a budget of 0 the one start is the empty plan."""
        n = self.graph.n
        caps = o.need_out
        spots = [v for v in range(n) if caps[v] > 0]
        out = []

        def rec(idx: int, acc: list[tuple[int, int]], used: int):
            if idx == len(spots):
                present = [0] * n
                issued = 0
                for v, k in acc:
                    present[v] = ((1 << k) - 1) << issued
                    issued += k
                out.append((tuple(acc), present, used))
                return
            v = spots[idx]
            for k in range(0, min(caps[v], budget - used) + 1):
                rec(idx + 1, acc + [(v, k)] if k else acc, used + k)

        rec(0, [], 0)
        del rec  # it calls itself, as dfs and place do
        out.sort(key=lambda s: (s[2], s[0]))
        return out

    def _pool_for(self, held: int, arrived: frozenset[int]):
        """Sorted pool, weights, and cheapest-k prefix sums, cached."""
        key = (held, arrived)
        got = self._pools.get(key)
        if got is None:
            pool = _pool_masks(held, arrived, self.mode)
            weights = [_sort_key(c)[0] for c in pool]
            got = (pool, weights, list(accumulate(weights, initial=0)))
            self._pools[key] = got
        return got

    # ---- witnesses ----

    def _events_to_witness(
        self,
        code: int,
        raw_events: list,
        plan: tuple[tuple[int, int], ...],
    ) -> Witness:
        if not plan:
            # the first firing's augmentation becomes the initial
            # allocation; nothing was granted before it, so the indices
            # coincide exactly under either policy
            v0, assignment0 = raw_events[0]
            refs = 0
            for _, mask in assignment0:
                refs |= mask
            plan = ((v0, bin(refs).count("1")),)
        # each FireEvent orders its assignment by arc
        events = tuple(
            FireEvent(v, tuple((i, ColourSet.from_mask(c)) for i, c in sets))
            for v, sets in raw_events
        )
        return Witness(code, self.policy, plan, events)

    def _brush_witness(self, code: int) -> Witness:
        """Each vertex's share of the bound (its out-degree surplus) in
        tokens, then every vertex with out-arcs firing, smallest ready
        id first."""
        d = orient(self.graph, code)
        shares = [share[d.out_degree(v)] for v, share in enumerate(self.bounds)]
        initial = tuple((v, k) for v, k in enumerate(shares) if k)
        return Witness(code, self.policy, initial, _brush_events(d))


def _brush_events(d: Digraph) -> tuple[FireEvent, ...]:
    """A token run's firings: every vertex with out-arcs, smallest ready
    id first."""
    return tuple(FireEvent(v) for v in d.topological_order() if d.out_arcs(v))


def _mp_context():
    import multiprocessing

    return multiprocessing.get_context("fork")


# the searcher that a running pool's workers inherit when forked
_worker: _Searcher | None = None


def _exhaust_chunk(args):
    """Exhaust one chunk of orientation codes in a worker process."""
    budget, codes = args
    return _worker._exhaust(budget, codes)


def best_index(
    graph: Graph,
    mode: Mode,
    policy: Policy = Policy.SMALLEST,
    limits: SearchLimits | None = None,
    workers: int = 1,
) -> IndexReport:
    """Minimum cost, then minimum label sum at that cost, with witness."""
    searcher = _Searcher(graph, mode, policy, limits or SearchLimits())
    return searcher.run(workers=workers)


def best_index_for_orientation(
    digraph: Digraph,
    mode: Mode,
    policy: Policy = Policy.SMALLEST,
    limits: SearchLimits | None = None,
) -> IndexReport:
    """Minimum cost, then minimum label sum, on one fixed orientation."""
    if not digraph.is_acyclic():
        raise ValueError("orientation has a directed cycle")
    searcher = _Searcher(
        digraph.graph, mode, policy, limits or SearchLimits()
    )
    return searcher.run_fixed(digraph.bits())


def _sums_of(counts: Counter, k: int, clock: _Clock) -> set[int]:
    """Every sum of exactly ``k`` sets, drawn from ``counts`` (how many sets
    have each weight): a reachability pass over (how many taken, weight
    so far), one distinct weight at a time.  No sum takes more than ``k``
    sets of one weight."""
    reach = {(0, 0)}
    for w, c in counts.items():
        clock.tick()
        for _ in range(min(c, k)):
            reach |= {(t + 1, s + w) for t, s in reach if t < k}
    return {s for t, s in reach if t == k}


def ratio_set(
    digraph: Digraph,
    mode: Mode,
    plan: AllocationPlan,
    limits: SearchLimits | None = None,
) -> frozenset[Fraction]:
    """Every ratio edges/(cost * label sum) reachable from a fixed
    orientation and allocation without any augmentation.

    Explores each distinct state once through the process engine itself,
    firing once per injective assignment of pool sets to the arcs whose
    heads fire later; arcs into sinks are weighed, not fired one by one.
    Raises ValueError on a cyclic orientation or if no schedule
    completes, and LimitError once the time budget is spent.
    """
    limits = limits or SearchLimits()
    limits.check(digraph.graph)
    if not digraph.is_acyclic():
        raise ValueError("orientation has a directed cycle")
    m = digraph.graph.m

    if mode is Mode.BRUSH:
        # a token run on an acyclic orientation always completes
        events = _brush_events(digraph)
        witness = Witness(digraph.bits(), plan.policy, plan.initial, events)
        run = replay(digraph.graph, mode, witness)
        if run.cost != plan.total:
            raise ValueError(
                "allocation cannot cover the orientation without augmentation"
            )
        return frozenset({run.index})

    # Pools never augment, so the cost stays fixed; the tattooed arcs fix
    # which vertex fires next; and colours are read only at vertices that
    # will still fire.  Those three things are all a state's future sees.
    # Sinks never fire, so each choice of sets for the arcs into them
    # leads to the same state: one child per live assignment is fired,
    # and the sink arcs add every sum of weights the sets left can make.
    clock = _Clock(limits.time_budget)
    memo: dict[tuple, frozenset[int]] = {}

    def explore(state) -> frozenset[int]:
        """Label-sum increments of the schedules that complete ``state``."""
        to_fire = [
            v for v in range(digraph.graph.n) if state.untattooed_out(v)
        ]
        key = (
            tuple(s is None for s in state.arc_status),
            tuple(
                (state.primaries_present[v], state.arrived_blends[v])
                for v in to_fire
            ),
        )
        if key in memo:
            return memo[key]
        ready = ready_vertices(state)
        if not ready:
            found = {0}
        else:
            v = ready[0]
            todo = state.untattooed_out(v)
            live = [i for i in todo if digraph.out_arcs(digraph.head(i))]
            dead = [i for i in todo if not digraph.out_arcs(digraph.head(i))]
            pool = mutate_pool(state, v, clock.check)
            found = set()
            # too few sets for every arc: nothing fires
            assignments = (
                permutations(pool, len(live)) if len(pool) >= len(todo) else ()
            )
            counts = Counter(c.weight for c in pool)
            # the sets left differ only by the live ones taken out, so
            # their sink sums depend only on the live weights
            sink_sums: dict[tuple[int, ...], set[int]] = {}
            for sets in assignments:
                clock.tick()
                tail = tuple(
                    islice((c for c in pool if c not in sets), len(dead))
                )
                child = fire(state, v, tuple(zip(live + dead, sets + tail)))
                after = explore(child)
                taken = tuple(sorted(c.weight for c in sets))
                if taken not in sink_sums:
                    left = counts - Counter(taken)
                    sink_sums[taken] = _sums_of(left, len(dead), clock)
                step = sum(taken)
                for s in sink_sums[taken]:
                    found.update(step + s + x for x in after)
        memo[key] = frozenset(found)
        return memo[key]

    sums = explore(initial_state(digraph, mode, plan))
    del explore  # it calls itself, and holds the memo
    if not sums:
        raise ValueError("no schedule completes from this allocation")
    return frozenset(Fraction(m, plan.total * s) for s in sums)
