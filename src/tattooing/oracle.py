"""Brute-force evaluation of the invariants on tiny graphs.

This module deliberately repeats as little of the rest of the package as
possible: it filters orientations with its own acyclicity check, runs
the process with its own simulator over plain frozensets, and derives
primary-count requirements with its own arithmetic.  It exists to give
the optimizer something independent to agree with, so any shared bug
would have to be written twice.

The simulator always fires the smallest ready vertex, so each
orientation has one fixed firing order.  Firing tattoos every out-arc
of a vertex, so an arc is tattooed exactly when its tail has fired, and
each vertex fires at most once.  Which vertices are ready therefore
depends only on which have fired, and the whole sequence is a function
of the orientation: the acyclicity check computes it once, and the DFS
fires its k-th vertex at depth k.  Firing order cannot change what a
run can achieve either: the colour sets available to a vertex depend
only on its initial allocation and on what its in-arcs carry, never on
when other vertices fired.

Search space, per acyclic orientation: every initial allocation giving
each vertex at most as many primaries as its out-degree ever needs, and
at each firing every augmentation count up to that same per-vertex cap
with every injective assignment of pool sets to untattooed out-arcs.
Originating more primaries at a vertex than its out-degree needs can
only raise the cost without enabling any cheaper labelling, so the caps
do not hide any lexicographic (cost, label sum) minimum.

Search order: cost levels come outermost.  Every acyclic orientation is
listed once, then each initial total from 0 upwards is tried on all of
them, and the search stops at the first total above the best cost found.
Within a level the DFS cuts a branch once its cost exceeds the best, or,
at equal cost, once its label sum plus a floor for the arcs still to
tattoo reaches the best sum.  Skipping a total above the best, or a
whole orientation whose root floor already reaches the best sum, makes
those same cuts before the plans are listed: every skipped call is one
the DFS would reject on its first test with the same incumbent.  The
answer is the lexicographic minimum over a fixed search space, so the
order does not change it.

Set choices: one call of ``oracle_invariants`` keeps a memo of what
each firing may send, shared by all its orientations and dropped when
the call returns.  A firing's held mask and its admissible choices
(each choice of ``t`` pool sets that spends exactly the primaries
granted, with its weight, in ``combinations`` order) read only its
holding ``old``, the blends ``arrived`` at it, ``t``, the mode and the
grant.  Under SMALLEST the grant is a function of ``old`` and the count
``extra``; under FRESH, of the counter ``fresh`` and ``extra``.  The
mode and the policy are fixed for the call, so the key ``(old, fresh
under FRESH else 0, extra, arrived, t)`` is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations, permutations, product
from typing import NamedTuple

from tattooing.engine import Mode, Policy
from tattooing.graphs import Graph

MAX_ORACLE_EDGES = 7

# colour sets are bitmasks here: bit i stands for primary i + 1


class _Weights(dict):
    """The weight of each colour mask, worked out on its first lookup."""

    def __missing__(self, mask: int) -> int:
        total = 0
        i = 1
        rest = mask
        while rest:
            if rest & 1:
                total += i
            rest >>= 1
            i += 1
        self[mask] = total
        return total


_WEIGHT = _Weights()
_mask_weight = _WEIGHT.__getitem__


@lru_cache(maxsize=None)
def _cheapest_distinct_weights(mode: Mode) -> tuple[int, ...]:
    """Prefix sums of the smallest weights t pairwise-distinct sets can
    have, ignoring availability; an admissible label-sum bound."""
    if mode is Mode.FSG:
        weights = list(range(1, 13))
    else:
        weights = sorted(
            _mask_weight(m) for m in range(1, 1 << 8)
        )[:12]
    prefix = [0]
    for w in weights:
        prefix.append(prefix[-1] + w)
    return tuple(prefix)


@dataclass(frozen=True)
class OracleResult:
    """Lexicographic (cost, label sum) minimum over every legal run."""

    mode: Mode
    cost: int
    label_sum: int
    raw_ratio: Fraction
    index: Fraction
    orientations: int


def oracle_invariants(
    graph: Graph,
    mode: Mode,
    policy: Policy = Policy.SMALLEST,
    cost_bound: int | None = None,
) -> OracleResult:
    """Exhaustively minimise (cost, label sum) for one graph and mode.

    Refuses graphs with more than seven edges.  ``cost_bound`` caps the
    cost of the runs considered, in every mode: the primaries allocated
    and granted in FSG and BLEND, the tokens topped up in BRUSH.  It
    defaults to the edge count, which is always enough: tattooing from
    in-arc arrivals alone costs at most one primary per arc.
    """
    if not isinstance(mode, Mode):
        raise TypeError(f"mode must be a Mode, got {mode!r}")
    if not isinstance(policy, Policy):
        raise TypeError(f"policy must be a Policy, got {policy!r}")
    if cost_bound is not None and (
        not isinstance(cost_bound, int) or isinstance(cost_bound, bool)
    ):
        raise TypeError(f"cost_bound must be an int, got {cost_bound!r}")
    m = graph.m
    if m == 0:
        raise ValueError("the process needs at least one edge")
    if m > MAX_ORACLE_EDGES:
        raise ValueError(
            f"oracle is limited to {MAX_ORACLE_EDGES} edges, got {m}"
        )
    bound = m if cost_bound is None else cost_bound
    best: list[int | None] = [None, None]  # cost, label sum
    if mode is Mode.BRUSH:
        orientations = 0
        for arcs, order in _acyclic_arc_lists(graph):
            orientations += 1
            cost = _brush_cost(graph.n, arcs, order)
            if cost <= bound:
                _offer(best, cost, m)
    else:
        choices: dict = {}  # shared by this call's shapes, see _dfs
        shapes = [
            _shape(graph.n, arcs, order, mode, choices)
            for arcs, order in _acyclic_arc_lists(graph)
        ]
        orientations = len(shapes)
        for total in range(0, bound + 1):
            if best[0] is not None and total > best[0]:
                break
            for shape in shapes:
                # ``best`` only falls, so a cut orientation stays cut
                if total == best[0] and shape.floor >= best[1]:
                    continue
                _search_level(graph.n, shape, mode, policy, bound, best, total)
    cost, label_sum = best
    if cost is None:
        raise ValueError("no run completed within the cost bound")
    return OracleResult(
        mode=mode,
        cost=cost,
        label_sum=label_sum,
        raw_ratio=Fraction(m, label_sum),
        index=Fraction(m, cost * label_sum),
        orientations=orientations,
    )


def _offer(best: list[int | None], cost: int, label_sum: int) -> None:
    if (
        best[0] is None
        or cost < best[0]
        or (cost == best[0] and label_sum < best[1])
    ):
        best[0] = cost
        best[1] = label_sum


def _acyclic_arc_lists(graph: Graph):
    """All acyclic orientations, by trying every code and topo-sorting,
    each as ``(arcs, order)``: ``order`` pops the smallest ready vertex
    first and keeps only the vertices with out-arcs, which is the order
    they fire in."""
    n, edges = graph.n, graph.edges
    for code in range(1 << graph.m):
        arcs = [
            (v, u) if (code >> i) & 1 else (u, v)
            for i, (u, v) in enumerate(edges)
        ]
        indeg = [0] * n
        out: list[list[int]] = [[] for _ in range(n)]
        for t, h in arcs:
            indeg[h] += 1
            out[t].append(h)
        # built in ascending order, so already a heap
        ready = [v for v in range(n) if indeg[v] == 0]
        order = []
        seen = 0
        while ready:
            v = heappop(ready)
            seen += 1
            if out[v]:
                order.append(v)
            for h in out[v]:
                indeg[h] -= 1
                if indeg[h] == 0:
                    heappush(ready, h)
        if seen == n:
            yield arcs, order


def _needed(demand: int, mode: Mode) -> int:
    """Fewest own primaries that could ever cover this many out-arcs."""
    if demand <= 0:
        return 0
    if mode is Mode.BLEND:
        k = 0
        while (1 << k) - 1 < demand:
            k += 1
        return k
    return demand


def _brush_cost(
    n: int, arcs: list[tuple[int, int]], order: list[int]
) -> int:
    """Simulate anonymous tokens, topping up whatever a firing lacks."""
    heads: list[list[int]] = [[] for _ in range(n)]
    for t, h in arcs:
        heads[t].append(h)
    tokens = [0] * n
    cost = 0
    for v in order:
        cost += max(0, len(heads[v]) - tokens[v])
        for h in heads[v]:
            tokens[h] += 1
    return cost


def _capped_counts(caps: list[int], total: int):
    """All ways to hand out ``total`` primaries within per-vertex caps,
    as ``((v, k), ...)`` over the vertices given ``k > 0``, in ascending
    lexicographic order of the counts of the vertices with a cap.

    One odometer: the first plan puts as much as it can on the last
    vertices; each next plan raises the rightmost count that can still
    rise while a later count gives one back, and refills the later
    counts from the back."""
    spots = [v for v, cap in enumerate(caps) if cap > 0]
    last = len(spots) - 1
    counts = [0] * len(spots)
    left = total
    for i in range(last, -1, -1):
        counts[i] = min(caps[spots[i]], left)
        left -= counts[i]
    if left:
        return
    while True:
        yield tuple((v, k) for v, k in zip(spots, counts) if k)
        tail = 0  # the primaries after position i
        for i in range(last - 1, -1, -1):
            tail += counts[i + 1]
            if tail and counts[i] < caps[spots[i]]:
                break
        else:
            return
        counts[i] += 1
        left = tail - 1
        for j in range(last, i, -1):
            counts[j] = min(caps[spots[j]], left)
            left -= counts[j]


class _Shape(NamedTuple):
    """One orientation, laid out once for every cost level."""

    arcs: list[tuple[int, int]]
    out_arcs: list[list[int]]
    # the vertices with out-arcs, in firing order
    order: list[int]
    caps: list[int]
    # the least label sum any run on this orientation can reach
    floor: int
    # the mode's _cheapest_distinct_weights
    prefix: tuple[int, ...]
    # the call's memo of set choices, shared by all its shapes
    choices: dict


def _shape(
    n: int,
    arcs: list[tuple[int, int]],
    order: list[int],
    mode: Mode,
    choices: dict,
) -> _Shape:
    out_arcs: list[list[int]] = [[] for _ in range(n)]
    for i, (t, _) in enumerate(arcs):
        out_arcs[t].append(i)
    caps = [_needed(len(out_arcs[v]), mode) for v in range(n)]
    prefix = _cheapest_distinct_weights(mode)
    floor = sum(prefix[len(out_arcs[v])] for v in range(n))
    return _Shape(arcs, out_arcs, order, caps, floor, prefix, choices)


def _search_level(
    n: int,
    shape: _Shape,
    mode: Mode,
    policy: Policy,
    bound: int,
    best: list[int | None],
    total: int,
) -> None:
    """Run the DFS from every allocation of exactly ``total`` primaries."""
    for plan in _capped_counts(shape.caps, total):
        present = [0] * n
        fresh = 1
        if policy is Policy.SMALLEST:
            for v, k in plan:
                present[v] = (1 << k) - 1
        else:
            for v, k in plan:
                present[v] = ((1 << k) - 1) << (fresh - 1)
                fresh += k
        _dfs(
            shape, mode, policy, bound, best,
            present, [frozenset()] * n, total, 0, fresh, 0, shape.floor,
        )


def _submasks(mask: int) -> list[int]:
    out = []
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


def _dfs(
    shape, mode, policy, bound, best,
    present, blends, cost, ssum, fresh, depth, floor,
) -> None:
    """Fire ``shape.order[depth]``; ``floor`` is the least weight the
    out-arcs of it and every later vertex can carry.  ``cost`` is within
    ``bound`` and not above the incumbent's: the caller and the
    ``extra`` loop below both see to it.

    For each ``extra``, the held mask and the admissible set choices
    come from ``shape.choices``, the memo of the one
    ``oracle_invariants`` call, keyed by ``(old, fresh under FRESH else
    0, extra, arrived, t)`` and filled by ``_set_choices`` on a miss.
    The key is complete: the grant reads ``old`` and ``extra`` under
    SMALLEST and ``fresh`` and ``extra`` under FRESH, the pool and the
    filter read ``old``, the grant, ``arrived`` and ``t``, and the mode
    and policy are fixed for the call.  The choices keep the order a
    fresh build lists them in, so the search tree is the same."""
    if best[0] is not None and cost == best[0]:
        if ssum + floor >= best[1]:
            return
    if depth == len(shape.order):
        _offer(best, cost, ssum)
        return
    v = shape.order[depth]
    todo = shape.out_arcs[v]
    t = len(todo)
    old = present[v]
    arrived = blends[v]
    rest_floor = floor - shape.prefix[t]
    counter = fresh if policy is Policy.FRESH else 0
    memo = shape.choices
    for extra in range(0, shape.caps[v] + 1):
        if cost + extra > bound:
            break
        if best[0] is not None and cost + extra > best[0]:
            break
        key = (old, counter, extra, arrived, t)
        found = memo.get(key)
        if found is None:
            found = memo[key] = _set_choices(
                old, arrived, t, mode, _grant(old, policy, fresh, extra)
            )
        held, options = found
        for chosen, add in options:
            if (
                best[0] is not None
                and cost + extra == best[0]
                and ssum + add + rest_floor >= best[1]
            ):
                continue
            for assigned in permutations(chosen):
                new_present = list(present)
                new_blends = list(blends)
                new_present[v] = held
                for i, c in zip(todo, assigned):
                    h = shape.arcs[i][1]
                    if c & (c - 1) == 0:
                        new_present[h] = new_present[h] | c
                    else:
                        new_blends[h] = new_blends[h] | {c}
                _dfs(
                    shape, mode, policy, bound, best,
                    new_present, new_blends, cost + extra, ssum + add,
                    fresh + (extra if policy is Policy.FRESH else 0),
                    depth + 1, rest_floor,
                )


def _set_choices(
    old: int, arrived: frozenset, t: int, mode: Mode, granted: int
) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """The held mask of a firing that holds ``old``, has received the
    blends ``arrived`` and is granted ``granted``, and each choice of
    ``t`` of its pool sets, in ``combinations`` order, that spends
    exactly the grant, with its weight."""
    held = old | granted
    if mode is Mode.FSG:
        pool = [1 << b for b in range(held.bit_length()) if (held >> b) & 1]
    else:
        pool = _submasks(held)
        for b in arrived:
            if b & ~held:
                pool.append(b)
    pool.sort(key=_mask_weight)
    options = []
    for chosen in combinations(pool, t):
        refs = 0
        add = 0
        for c in chosen:
            add += _WEIGHT[c]
            if c not in arrived:
                refs |= c & ~old
        if refs == granted:
            options.append((chosen, add))
    return held, options


def _grant(held: int, policy: Policy, fresh: int, count: int) -> int:
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


def connected_graph_corpus(max_edges: int) -> tuple[Graph, ...]:
    """Every connected graph with 1..max_edges edges, one per isomorphism
    class, canonically labelled, ordered by (edges, vertices, edge list).

    Each edge layer grows from the one before, starting at K2: every
    missing edge, and every pendant edge to a new vertex, is added, then
    canonicalised and deduplicated (canonical augmentation, McKay 1998).
    No class is missed: deleting a cycle edge, or a leaf of a tree with
    its edge, leaves a connected graph with one edge fewer.  The order
    comes from the final sort alone, not from the growth.

    The canonical form is the smallest edge list over all relabellings
    that sort vertices by descending degree; restricting to
    degree-respecting relabellings is sound because isomorphisms
    preserve degrees.
    """
    if not 1 <= max_edges <= MAX_ORACLE_EDGES:
        raise ValueError(
            f"corpus covers 1..{MAX_ORACLE_EDGES} edges, got {max_edges}"
        )
    layer = {(2, ((0, 1),))}
    found = set(layer)
    for _ in range(max_edges - 1):
        grown = set()
        for n, edges in layer:
            extensions = [
                pair for pair in combinations(range(n), 2) if pair not in edges
            ] + [(u, n) for u in range(n)]
            for u, v in extensions:
                size = max(n, v + 1)
                grown.add((size, _canonical_edges(size, edges + ((u, v),))))
        found |= grown
        layer = grown
    ordered = sorted(found, key=lambda nc: (len(nc[1]), nc[0], nc[1]))
    return tuple(Graph(n, code) for n, code in ordered)


def _canonical_edges(
    n: int, edges: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    # vertices of equal degree compete for the same block of labels
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(degree[v], []).append(v)
    blocks = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    label_blocks = []
    start = 0
    for block in blocks:
        label_blocks.append(list(range(start, start + len(block))))
        start += len(block)
    best: tuple[tuple[int, int], ...] | None = None
    for perm_parts in product(
        *(permutations(labels) for labels in label_blocks)
    ):
        mapping = {}
        for block, labels in zip(blocks, perm_parts):
            for v, lab in zip(block, labels):
                mapping[v] = lab
        code = tuple(
            sorted(
                (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                for u, v in edges
            )
        )
        if best is None or code < best:
            best = code
    return best
