"""Exact minimisation of cost and label sum over acyclic orientations.

The search finds the lexicographic (cost, label sum) optimum in one
deepening loop.  Every orientation gets an admissible lower bound
``sum_v max(0, need(outdeg v) - indeg v)`` on its cost (number of
primaries, or tokens), updated edge by edge from one orientation code
to the next.  A target cost ``c`` then rises from the least bound; at
each ``c`` the orientations whose bound does not exceed it are searched
exhaustively, depth first with admissible bounds in both coordinates,
for the least label sum of a run costing at most ``c``.  The first
``c`` with any completion is the minimum cost, and the best run found
there is the answer.  BRUSH needs no search: a token run always meets
the bound, and every token weighs one.

A vertex fires once, as soon as every in-arc is tattooed, so each run
fires the vertices of its orientation in a topological order.  The
search explores one order per orientation: the topological order that
always removes the smallest ready vertex (Kahn), restricted to the
vertices with out-arcs.  The depth-first search takes the vertex at
depth ``k`` from that list and carries only colour state.  This loses
nothing: a vertex fires exactly once, and what it can dispatch depends
only on its arrivals, not on when unrelated vertices fired.

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
order, pool sets are ordered by (weight, cardinality, members), and the
incumbent is replaced only on strict improvement, so the reported
witness is a pure function of the input.  Every result is replayed
through the process engine before being returned.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate, permutations

import networkx as nx
from networkx.algorithms.isomorphism import DiGraphMatcher

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
    fire,
    initial_state,
    mutate_pool,
    ready_vertices,
    replay,
    required_primaries,
)
from tattooing.graphs import (
    Digraph,
    Graph,
    collect_acyclic_orientation_bits,
    orient,
)


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
    implied = COST_MODES.get(quantity)
    if implied is None:
        return Mode.BLEND if mode is None else mode
    if mode is not None and mode is not implied:
        raise ValueError(
            f"{quantity.value} is defined in {implied.value} mode"
        )
    return implied


def quantity_value(quantity: Quantity, result) -> int | Fraction:
    """The value of ``quantity`` in a result with ``cost``, ``label_sum``,
    ``raw_ratio`` and ``index``: a search report, a replayed outcome or
    an oracle result."""
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
    number of seconds (``inf`` allowed), or None for no deadline.
    """

    max_edges: int = field(default_factory=_env_max_edges)
    time_budget: float | None = field(default_factory=_env_time_budget)

    def __post_init__(self) -> None:
        if self.max_edges < 1:
            raise ValueError(
                f"edge limit must be a positive integer, got {self.max_edges!r}"
            )
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError(
                f"time budget must be a positive number of seconds, "
                f"got {self.time_budget!r}"
            )

    def check(self, graph: Graph) -> None:
        if graph.m > self.max_edges:
            raise LimitError(
                f"graph has {graph.m} edges, limit is {self.max_edges} "
                "(raise TATTOO_MAX_EDGES or pass a larger limit)"
            )


@dataclass(frozen=True)
class IndexReport:
    """Least cost, then least label sum at that cost, for one graph and
    mode."""

    mode: Mode
    policy: Policy
    cost: int
    label_sum: int
    raw_ratio: Fraction
    index: Fraction
    witness: Witness
    orientations_searched: int


@dataclass(frozen=True)
class InvariantResult:
    quantity: Quantity
    mode: Mode
    policy: Policy
    value: int | Fraction
    witness: Witness
    orientations_searched: int


@functools.cache
def _sort_key(mask: int) -> tuple[int, int, tuple[int, ...]]:
    members = tuple(
        i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1
    )
    return (sum(members), len(members), members)


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


def _submasks(mask: int) -> list[int]:
    out = []
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


def _grant_mask(held: int, policy: Policy, fresh: int, count: int) -> int:
    if count == 0:
        return 0
    if policy is Policy.FRESH:
        return ((1 << count) - 1) << (fresh - 1)
    granted = 0
    got = 0
    b = 0
    while got < count:
        if not (held >> b) & 1:
            granted |= 1 << b
            got += 1
        b += 1
    return granted


class _Orientation:
    """One orientation's firing order and bounds, with shape data for
    the symmetry prunings."""

    __slots__ = (
        "code",
        "digraph",
        "live",
        "firing",
        "need_out",
        "floor",
        "sig",
        "desc",
        "classes",
    )

    def __init__(
        self, graph: Graph, code: int, mode: Mode, prefix: tuple[int, ...]
    ):
        self.code = code
        d = self.digraph = orient(graph, code)
        self.live = [bool(d.out_arcs(v)) for v in range(graph.n)]
        self.firing = [v for v in d.topological_order() if self.live[v]]
        self.need_out = [
            required_primaries(d.out_degree(v), mode) for v in range(graph.n)
        ]
        # floor[k]: least label sum the firings from depth k on can add
        self.floor = list(
            accumulate(
                (prefix[d.out_degree(v)] for v in reversed(self.firing)),
                initial=0,
            )
        )[::-1]
        self.sig: dict[int, int] | None = None
        self.desc: dict[int, frozenset[int]] | None = None
        self.classes: dict[int, dict[int, int]] = {}

    def _shape_data(self) -> None:
        """Interned shape signature and firing closure per vertex."""
        if self.sig is not None:
            return
        d = self.digraph
        intern: dict[tuple, int] = {}
        sig: dict[int, int] = {}
        desc: dict[int, frozenset[int]] = {}
        # reversed topological order visits children before parents
        for v in reversed(d.topological_order()):
            if not self.live[v]:
                sig[v] = -1
                desc[v] = frozenset()
                continue
            live_children = []
            sinks = 0
            closure: set[int] = {v}
            for i in d.out_arcs(v):
                h = d.head(i)
                if self.live[h]:
                    live_children.append(sig[h])
                    closure |= desc[h]
                else:
                    sinks += 1
            key = (d.in_degree(v), sinks, tuple(sorted(live_children)))
            sig[v] = intern.setdefault(key, len(intern))
            desc[v] = frozenset(closure)
        self.sig = sig
        self.desc = desc

    def exchange_classes(self, v: int, policy: Policy) -> dict[int, int]:
        """Map each live out-arc of v to an interchangeability class.

        Classes group arcs whose heads have equal shape signatures,
        pairwise-disjoint firing closures, and no in-arcs from outside
        their own closure other than from v.  FRESH numbering depends
        on global firing order, so everything stays singleton there.
        """
        cached = self.classes.get(v)
        if cached is not None:
            return cached
        d = self.digraph
        live_arcs = [i for i in d.out_arcs(v) if self.live[d.head(i)]]
        classes: dict[int, int] = {}
        if policy is Policy.FRESH:
            for j, i in enumerate(live_arcs):
                classes[i] = -1 - j
            self.classes[v] = classes
            return classes
        self._shape_data()
        by_sig: dict[int, list[int]] = {}
        for i in live_arcs:
            by_sig.setdefault(self.sig[d.head(i)], []).append(i)
        nxt = 0
        for arcs_here in by_sig.values():
            group = []
            for i in arcs_here:
                if self._closed_under(v, d.head(i)):
                    group.append(i)
                else:
                    classes[i] = -1 - i
            # heads with overlapping closures cannot be interchanged
            ok = []
            taken: set[int] = set()
            for i in group:
                closure = self.desc[d.head(i)]
                if closure & taken:
                    classes[i] = -1 - i
                else:
                    taken |= closure
                    ok.append(i)
            if len(ok) >= 2:
                for i in ok:
                    classes[i] = nxt
                nxt += 1
            else:
                for i in ok:
                    classes[i] = -1 - i
        self.classes[v] = classes
        return classes

    def _closed_under(self, v: int, h: int) -> bool:
        """True if every in-arc into h's firing closure starts at v or
        inside the closure itself."""
        closure = self.desc[h]
        d = self.digraph
        for w in closure:
            for i in d.in_arcs(w):
                t = d.tail(i)
                if t != v and t not in closure:
                    return False
        return True


class _Searcher:
    def __init__(
        self, graph: Graph, mode: Mode, policy: Policy, limits: SearchLimits
    ):
        limits.check(graph)
        self.graph = graph
        self.mode = mode
        self.policy = policy
        self.limits = limits
        self.deadline = (
            time.monotonic() + limits.time_budget
            if limits.time_budget is not None
            else None
        )
        self.ticks = 0
        self.prefix = _cheap_prefix(
            mode, max(len(a) for a in graph.adjacency())
        )
        self._plan: tuple[tuple[int, int], ...] = ()
        self._pools: dict = {}
        self._iso_buckets: dict[str, list[tuple[int, nx.DiGraph]]] = {}
        self._iso_rep: dict[int, int] = {}
        self._generators: list[tuple[tuple[tuple[int, ...], ...], int]] = []
        if graph.m == 0:
            raise ValueError("the process needs at least one edge")

    def _tick(self) -> None:
        self.ticks += 1
        if self.ticks % 256 == 1:
            self._check_time()

    def _check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise LimitError("time budget exceeded")

    # ---- cost bound, updated edge by edge ----
    #
    # f[v][out] = max(0, need(out) - indeg v) is v's share of the bound.
    # Code 0 orients every edge low to high; setting bit i moves edge i's
    # out-arc from its low end to its high end, and clearing it moves the
    # arc back.  Ascending codes mostly differ in their low bits.

    def _lower_bounds(self, codes: Sequence[int]) -> list[int]:
        """Each code's bound, from the one before it in ``codes``."""
        adj = self.graph.adjacency()
        f = [[max(0, required_primaries(o, self.mode) - len(a) + o)
              for o in range(len(a) + 1)] for a in adj]
        moves = {1 << i: (e, e[::-1]) for i, e in enumerate(self.graph.edges)}
        out = [sum(w > v for w in a) for v, a in enumerate(adj)]  # code 0
        lb, prev, lbs = sum(fv[o] for fv, o in zip(f, out)), 0, []
        for code in codes:
            diff, prev = code ^ prev, code
            while bit := diff & -diff:
                diff ^= bit
                u, v = moves[bit][not code & bit]
                ou, ov = out[u], out[v]
                lb += f[u][ou - 1] - f[u][ou] + f[v][ov + 1] - f[v][ov]
                out[u], out[v] = ou - 1, ov + 1
            lbs.append(lb)
        return lbs

    def _rep_for(self, code: int) -> int:
        """Least code of this orientation's isomorphism class.

        Relabelling vertices maps legal runs to legal runs of the same
        cost and label sum, in both policies, so only one orientation
        per digraph isomorphism class needs searching.  Two orientations
        of G are isomorphic exactly when an automorphism of G maps one
        onto the other, so the classes are the orbits of Aut(G), and an
        orbit shares the cost bound.  Codes arrive in ascending order,
        so the first code seen of a class is its least.

        A code not yet labelled is placed exactly: buckets are keyed by
        a Weisfeiler-Lehman hash, and membership is settled by VF2.
        The vertex map of each VF2 hit is an automorphism, kept as a
        generator (:meth:`_learn`).  After every such classification the
        code's orbit under the generators found so far gets the same
        representative, so its other members skip WL and VF2.
        """
        got = self._iso_rep.get(code)
        if got is not None:
            return got
        G = nx.DiGraph()
        G.add_nodes_from(range(self.graph.n))
        for i, (u, v) in enumerate(self.graph.edges):
            if (code >> i) & 1:
                G.add_edge(v, u)
            else:
                G.add_edge(u, v)
        with warnings.catch_warnings():
            # networkx 3.5 changed these hashes; they are only compared
            # within one search, so the change does not matter here
            warnings.filterwarnings(
                "ignore", "The hashes produced for ", UserWarning
            )
            key = nx.weisfeiler_lehman_graph_hash(G)
        bucket = self._iso_buckets.setdefault(key, [])
        rep = code
        for rep_code, rep_graph in bucket:
            matcher = DiGraphMatcher(G, rep_graph)
            if matcher.is_isomorphic():
                rep = rep_code
                self._learn(code, rep, matcher.mapping)
                break
        else:
            bucket.append((code, G))
        # label the code's orbit under the generators found so far
        labels = self._iso_rep
        labels[code] = rep
        queue = [code]
        for c in queue:
            for action in self._generators:
                image = _act(c, action)
                if image not in labels:
                    self._tick()
                    labels[image] = rep
                    queue.append(image)
        return rep

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
        if action not in self._generators:
            self._generators.append(action)

    # ---- the deepening loop ----

    def run(self, workers: int = 1) -> IndexReport:
        bits = collect_acyclic_orientation_bits(
            self.graph, check=self._check_time
        )
        self._tick()
        return self._solve(bits, workers)

    def run_fixed(self, code: int) -> IndexReport:
        """The same optimum restricted to one orientation."""
        # a lone orientation is its own class representative
        self._iso_rep[code] = code
        return self._solve([code])

    def _solve(self, codes: Sequence[int], workers: int = 1) -> IndexReport:
        """Least cost, then least label sum, over the orientations
        ``codes`` (ascending), replayed once."""
        lbs = self._lower_bounds(codes)
        if self.mode is Mode.BRUSH:
            # a token run always meets the bound, and tokens weigh one
            at = lbs.index(min(lbs))
            witness = self._brush_witness(codes[at])
            out = self._finish(lbs[at], self.graph.m, witness)
            return self._report(out, len(codes))
        c = min(lbs)
        pool, size = None, 1
        try:
            while True:
                reps = []
                for code, lb in zip(codes, lbs):
                    if lb <= c:
                        self._tick()
                        if self._rep_for(code) == code:
                            reps.append(code)
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
                if best["S"] is not None:
                    break
                c += 1
        finally:
            if pool is not None:
                pool.terminate()
        witness = self._events_to_witness(
            best["code"], best["events"], best["plan"]
        )
        out = self._finish(c, best["S"], witness)
        return self._report(out, len(codes))

    def _start_pool(self, size: int):
        """A pool of ``size`` workers, each of which builds one searcher
        and keeps it for every level the pool serves."""
        remaining = None
        if self.deadline is not None:
            remaining = max(0.1, self.deadline - time.monotonic())
        limits = SearchLimits(
            max_edges=self.limits.max_edges, time_budget=remaining
        )
        return _mp_context().Pool(
            size,
            initializer=_init_worker,
            initargs=(self.graph, self.mode, self.policy, limits),
        )

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
            (b for b in results if b["S"] is not None),
            key=lambda b: (b["S"], b["code"]),
            default=results[0],
        )

    def _exhaust(self, budget: int, codes: list[int]) -> dict:
        """Least label sum at cost at most ``budget`` over ``codes``, as
        the ``best`` record of :meth:`_probe`."""
        best: dict = {"S": None, "code": None, "events": None, "plan": None}
        for code in codes:
            self._tick()
            self._probe(code, budget, best)
        return best

    def _report(self, outcome: Outcome, total: int) -> IndexReport:
        return IndexReport(
            mode=self.mode,
            policy=self.policy,
            cost=outcome.primaries_used,
            label_sum=outcome.label_sum,
            raw_ratio=outcome.raw_ratio,
            index=outcome.index,
            witness=outcome.witness,
            orientations_searched=total,
        )

    def _finish(self, cost: int, label_sum: int, witness: Witness) -> Outcome:
        """Replay the witness through the engine, once, and insist it
        gives the cost and label sum the search claims."""
        outcome = replay(self.graph, self.mode, witness)
        if outcome.primaries_used != cost or outcome.label_sum != label_sum:
            raise ReplayError(
                f"search claims cost {cost}, label sum {label_sum}; "
                f"replay gives {outcome.primaries_used}, {outcome.label_sum}"
            )
        return outcome

    # ---- per-orientation depth-first search ----

    def _probe(self, code: int, budget: int, best: dict) -> None:
        """Minimise the label sum on one orientation at cost at most
        ``budget``, updating ``best`` on strict improvement."""
        o = _Orientation(self.graph, code, self.mode, self.prefix)
        n = self.graph.n
        if self.policy is Policy.SMALLEST:
            starts = [((), [0] * n, 1, 0)]
        else:
            starts = self._fresh_starts(o, budget)
        for plan, present0, fresh0, cost0 in starts:
            self._plan = plan
            avail = [
                bin(present0[v]).count("1") + o.digraph.in_degree(v)
                for v in range(n)
            ]
            lb_rem = sum(max(0, o.need_out[v] - avail[v]) for v in o.firing)
            self._dfs(
                o,
                0,
                list(present0),
                [frozenset()] * n,
                avail,
                lb_rem,
                cost0,
                0,
                fresh0,
                [],
                budget,
                best,
            )

    def _fresh_starts(self, o: _Orientation, budget: int):
        """Initial allocation count vectors for the FRESH policy."""
        n = self.graph.n
        caps = o.need_out
        spots = [v for v in range(n) if caps[v] > 0]
        out = []

        def rec(idx: int, acc: list[tuple[int, int]], used: int):
            if idx == len(spots):
                present = [0] * n
                fresh = 1
                for v, k in acc:
                    present[v] = ((1 << k) - 1) << (fresh - 1)
                    fresh += k
                out.append((tuple(acc), present, fresh, used))
                return
            v = spots[idx]
            for k in range(0, min(caps[v], budget - used) + 1):
                if k:
                    acc.append((v, k))
                rec(idx + 1, acc, used + k)
                if k:
                    acc.pop()

        rec(0, [], 0)
        out.sort(key=lambda s: (s[3], s[0]))
        return out

    def _pool_for(self, held: int, arrived: frozenset[int]):
        """Sorted pool, weights, and cheapest-k prefix sums, cached."""
        key = (held, arrived)
        got = self._pools.get(key)
        if got is None:
            if self.mode is Mode.FSG:
                pool = [
                    1 << b
                    for b in range(held.bit_length())
                    if (held >> b) & 1
                ]
            else:
                pool = _submasks(held)
                for b in arrived:
                    if b & ~held:
                        pool.append(b)
            pool.sort(key=_sort_key)
            weights = [_sort_key(c)[0] for c in pool]
            cheapest = [0]
            for w in weights:
                cheapest.append(cheapest[-1] + w)
            got = (pool, weights, cheapest)
            self._pools[key] = got
        return got

    def _dfs(
        self,
        o: _Orientation,
        k: int,
        present: list[int],
        blends: list[frozenset[int]],
        avail: list[int],
        lb_rem: int,
        cost: int,
        ssum: int,
        fresh: int,
        events: list,
        budget: int,
        best: dict,
    ) -> None:
        """Fire ``o.firing[k]`` every way the budget and the incumbent
        allow, then the rest of the firing order."""
        self._tick()
        if cost + lb_rem > budget:
            return
        if best["S"] is not None and ssum + o.floor[k] >= best["S"]:
            return
        if k == len(o.firing):
            # every arc is tattooed, so the floor is 0 and the check
            # above has made this a strict improvement
            best["S"] = ssum
            best["code"] = o.code
            best["events"] = list(events)
            best["plan"] = self._plan
            return
        v = o.firing[k]
        d = o.digraph
        todo = d.out_arcs(v)
        live = [i for i in todo if o.live[d.head(i)]]
        sinks = [i for i in todo if not o.live[d.head(i)]]
        classes = o.exchange_classes(v, self.policy) if live else {}
        old = present[v]
        arrived = blends[v]
        lb_others = lb_rem - max(0, o.need_out[v] - avail[v])
        cap = o.need_out[v]
        ctx = (o, k, v, live, sinks, classes, old, arrived, lb_others)
        state = (present, blends, avail)
        for extra in range(0, cap + 1):
            if cost + extra + lb_others > budget:
                break
            granted = _grant_mask(old, self.policy, fresh, extra)
            held = old | granted
            pool, weights, cheapest = self._pool_for(held, arrived)
            if len(pool) < len(todo):
                continue
            self._assignments(
                ctx,
                state,
                pool,
                weights,
                cheapest,
                granted,
                cost + extra,
                ssum,
                fresh + (extra if self.policy is Policy.FRESH else 0),
                events,
                budget,
                best,
            )

    def _assignments(
        self,
        ctx,
        state,
        pool,
        weights,
        cheapest,
        granted,
        cost,
        ssum,
        fresh,
        events,
        budget,
        best,
    ):
        o, k, v, live, sinks, classes, old, arrived, lb_others = ctx
        present, blends, avail = state
        size = len(pool)
        used = [False] * size
        chosen: list[int] = []
        floors: dict[int, int] = {}
        n_live = len(live)
        n_sink = len(sinks)
        bound_base = ssum + o.floor[k + 1]

        def place(pos: int, add: int) -> None:
            if best["S"] is not None:
                left = n_live - pos + n_sink
                if bound_base + add + cheapest[left] >= best["S"]:
                    return
            if pos == n_live:
                finish(add)
                return
            cls = classes[live[pos]]
            start = floors.get(cls, 0)
            for pi in range(start, size):
                if used[pi]:
                    continue
                used[pi] = True
                chosen.append(pi)
                prev = floors.get(cls, 0)
                floors[cls] = pi + 1
                place(pos + 1, add + weights[pi])
                floors[cls] = prev
                chosen.pop()
                used[pi] = False

        def finish(add: int) -> None:
            sink_picks: list[int] = []
            if sinks:
                for pi in range(size):
                    if not used[pi]:
                        sink_picks.append(pi)
                        if len(sink_picks) == n_sink:
                            break
                if len(sink_picks) < n_sink:
                    return
                for pi in sink_picks:
                    add += weights[pi]
            all_picks = chosen + sink_picks
            refs = 0
            for pi in all_picks:
                c = pool[pi]
                if c not in arrived:
                    refs |= c & ~old
            if refs != granted:
                return
            new_present = list(present)
            new_blends = list(blends)
            new_avail = list(avail)
            new_lb = lb_others
            arcs = o.digraph.arcs
            need_out = o.need_out
            # colours are read only at heads that fire later
            for i, pi in zip(live, chosen):
                c = pool[pi]
                h = arcs[i][1]
                if c & (c - 1) == 0:
                    merged = bool(new_present[h] & c)
                    new_present[h] |= c
                else:
                    merged = c in new_blends[h]
                    if not merged:
                        new_blends[h] = new_blends[h] | {c}
                if merged:
                    # a merged arrival shrinks the head's future pool
                    before = max(0, need_out[h] - new_avail[h])
                    new_avail[h] -= 1
                    new_lb += max(0, need_out[h] - new_avail[h]) - before
            assignment = sorted(
                (i, pool[pi]) for i, pi in zip(live + sinks, all_picks)
            )
            self._dfs(
                o,
                k + 1,
                new_present,
                new_blends,
                new_avail,
                new_lb,
                cost,
                ssum + add,
                fresh,
                events + [(v, tuple(assignment))],
                budget,
                best,
            )

        place(0, 0)

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
        events = []
        for v, assignment in raw_events:
            events.append(
                FireEvent(
                    v,
                    tuple(
                        (i, ColourSet.from_mask(mask))
                        for i, mask in assignment
                    ),
                )
            )
        return Witness(code, self.policy, plan, tuple(events))

    def _brush_witness(self, code: int) -> Witness:
        """Tokens for each vertex's out-degree surplus, then every vertex
        with out-arcs firing in order, smallest ready id first."""
        d = orient(self.graph, code)
        initial = []
        for v in range(self.graph.n):
            lack = d.out_degree(v) - d.in_degree(v)
            if lack > 0:
                initial.append((v, lack))
        events = tuple(
            FireEvent(v) for v in d.topological_order() if d.out_arcs(v)
        )
        return Witness(code, self.policy, tuple(initial), events)


def _mp_context():
    return multiprocessing.get_context("fork")


# the searcher of a pool worker, built once by _init_worker
_worker: _Searcher | None = None


def _init_worker(
    graph: Graph, mode: Mode, policy: Policy, limits: SearchLimits
) -> None:
    global _worker
    _worker = _Searcher(graph, mode, policy, limits)


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


def min_cost_for_orientation(
    digraph: Digraph,
    mode: Mode,
    policy: Policy = Policy.SMALLEST,
    limits: SearchLimits | None = None,
) -> InvariantResult:
    """Minimum cost over all runs on one fixed acyclic orientation, with
    the least-label-sum run at that cost as witness."""
    report = best_index_for_orientation(digraph, mode, policy, limits)
    return InvariantResult(
        quantity=next(q for q, m in COST_MODES.items() if m is mode),
        mode=mode,
        policy=policy,
        value=report.cost,
        witness=report.witness,
        orientations_searched=1,
    )


def invariant(
    graph: Graph,
    quantity: Quantity,
    mode: Mode | None = None,
    policy: Policy = Policy.SMALLEST,
    limits: SearchLimits | None = None,
    workers: int = 1,
) -> InvariantResult:
    """One named quantity of a graph, with a witness run attached."""
    mode = quantity_mode(quantity, mode)
    report = best_index(graph, mode, policy, limits, workers=workers)
    return InvariantResult(
        quantity=quantity,
        mode=mode,
        policy=policy,
        value=quantity_value(quantity, report),
        witness=report.witness,
        orientations_searched=report.orientations_searched,
    )


def ratio_set(
    digraph: Digraph,
    mode: Mode,
    plan: AllocationPlan,
    limits: SearchLimits | None = None,
) -> frozenset[Fraction]:
    """Every ratio edges/(cost * label sum) reachable from a fixed
    orientation and allocation without any augmentation.

    Enumerates all complete schedules through the process engine itself,
    branching over every injective pool assignment at each firing.
    Raises if no schedule completes.
    """
    (limits or SearchLimits()).check(digraph.graph)
    m = digraph.graph.m
    sums: set[int] = set()

    if mode is Mode.BRUSH:
        state = initial_state(digraph, mode, plan)
        while True:
            ready = ready_vertices(state)
            if not ready:
                break
            before = state.cost
            state = fire(state, ready[0])
            if state.cost != before:
                raise ValueError(
                    "allocation cannot cover the orientation without "
                    "augmentation"
                )
        if not state.complete:
            raise ValueError("no schedule completes from this allocation")
        return frozenset({Fraction(m, plan.total * state.label_sum)})

    def explore(state) -> None:
        ready = ready_vertices(state)
        if not ready:
            if state.complete:
                sums.add(state.label_sum)
            return
        v = ready[0]
        todo = state.untattooed_out(v)
        pool = mutate_pool(state, v)
        if len(pool) < len(todo):
            return
        for combo in permutations(pool, len(todo)):
            explore(fire(state, v, tuple(zip(todo, combo))))

    explore(initial_state(digraph, mode, plan))
    if not sums:
        raise ValueError("no schedule completes from this allocation")
    return frozenset(Fraction(m, plan.total * s) for s in sums)
