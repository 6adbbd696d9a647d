"""Brute-force oracle values and the small-graph corpus."""

from __future__ import annotations

import hashlib
import inspect
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from tattooing import oracle
from tattooing.engine import Mode, Policy
from tattooing.graphs import (
    DisconnectedGraphError,
    Graph,
    build_family,
    parse_family_spec,
)
from tattooing.oracle import connected_graph_corpus, oracle_invariants

# A002905: connected graphs with m edges, m = 1..7
CONNECTED_BY_EDGES = {1: 1, 2: 1, 3: 3, 4: 5, 5: 12, 6: 30, 7: 79}

# sha256 of repr([(g.n, g.edges) for g in connected_graph_corpus(6)]);
# the oracle-xcheck benchmark indexes its reference pairs by position
CORPUS_6_SHA256 = (
    "7dcd0e993214769e934b658d3c7b7224426b76904b4010b6616219b781fa64cc"
)


def family(text: str) -> Graph:
    return build_family(parse_family_spec(text))


def _all_subsets_corpus(max_edges: int) -> tuple[Graph, ...]:
    """Reference generator: canonicalise every connected edge subset of
    every K_n, n <= max_edges + 1."""
    found = set()
    for n in range(2, max_edges + 2):
        pairs = list(combinations(range(n), 2))
        for m in range(n - 1, max_edges + 1):
            for subset in combinations(pairs, m):
                try:
                    Graph(n, subset)
                except DisconnectedGraphError:
                    continue
                found.add((n, oracle._canonical_edges(n, subset)))
    ordered = sorted(found, key=lambda nc: (len(nc[1]), nc[0], nc[1]))
    return tuple(Graph(n, code) for n, code in ordered)


def _reference_oracle(
    graph: Graph,
    mode: Mode,
    policy: Policy = Policy.SMALLEST,
    cost_bound: int | None = None,
) -> oracle.OracleResult:
    """Reference search order: one orientation at a time, every total
    from 0 to the bound on each, over the reference DFS below."""
    m, n = graph.m, graph.n
    bound = m if cost_bound is None else cost_bound
    best = [None, None]
    orientations = 0
    for arcs, _ in oracle._acyclic_arc_lists(graph):
        orientations += 1
        if mode is Mode.BRUSH:
            cost = _reference_brush_cost(n, arcs)
            if cost <= bound:
                oracle._offer(best, cost, m)
            continue
        out_arcs = [[] for _ in range(n)]
        in_arcs = [[] for _ in range(n)]
        for i, (t, h) in enumerate(arcs):
            out_arcs[t].append(i)
            in_arcs[h].append(i)
        caps = [oracle._needed(len(out_arcs[v]), mode) for v in range(n)]
        for total in range(0, bound + 1):
            for plan in oracle._capped_counts(caps, total):
                present = [0] * n
                fresh = 1
                for v, k in plan:
                    if policy is Policy.SMALLEST:
                        present[v] = (1 << k) - 1
                    else:
                        present[v] = ((1 << k) - 1) << (fresh - 1)
                        fresh += k
                _reference_dfs(
                    n, arcs, out_arcs, in_arcs, mode, policy, bound, best,
                    [None] * len(arcs), present, [frozenset()] * n,
                    [frozenset()] * n, total, 0, fresh,
                )
    cost, label_sum = best
    if cost is None:
        raise ValueError("no run completed within the cost bound")
    return oracle.OracleResult(
        mode=mode,
        cost=cost,
        label_sum=label_sum,
        raw_ratio=Fraction(m, label_sum),
        index=Fraction(m, cost * label_sum),
        orientations=orientations,
    )


def _smallest_ready(n, arcs, out_arcs, in_arcs, done) -> int | None:
    for v in range(n):
        if all(done[i] for i in in_arcs[v]) and any(
            not done[i] for i in out_arcs[v]
        ):
            return v
    return None


def _reference_brush_cost(n: int, arcs: list[tuple[int, int]]) -> int:
    """Anonymous tokens, finding the next vertex to fire by rescanning."""
    out_arcs = [[] for _ in range(n)]
    in_arcs = [[] for _ in range(n)]
    for i, (t, h) in enumerate(arcs):
        out_arcs[t].append(i)
        in_arcs[h].append(i)
    done = [False] * len(arcs)
    tokens = [0] * n
    cost = 0
    while True:
        v = _smallest_ready(n, arcs, out_arcs, in_arcs, done)
        if v is None:
            return cost
        todo = [i for i in out_arcs[v] if not done[i]]
        lack = max(0, len(todo) - tokens[v])
        cost += lack
        tokens[v] += lack - len(todo)
        for i in todo:
            done[i] = True
            tokens[arcs[i][1]] += 1


def _reference_dfs(
    n,
    arcs,
    out_arcs,
    in_arcs,
    mode,
    policy,
    bound,
    best,
    labels,
    present,
    blends,
    used,
    cost,
    ssum,
    fresh,
) -> None:
    """The oracle's DFS before it fired a fixed order: every node
    rebuilds the tattooed arcs, the floor and the ready vertex from the
    labels so far, and keeps the sets each vertex has sent."""
    if cost > bound:
        return
    if best[0] is not None and cost > best[0]:
        return
    done = [s is not None for s in labels]
    # untattooed out-arcs per vertex, and the least weight they can carry
    left = [sum(1 for i in out_arcs[w] if not done[i]) for w in range(n)]
    prefix = oracle._cheapest_distinct_weights(mode)
    all_floor = sum(prefix[t_w] for t_w in left)
    if best[0] is not None and cost == best[0]:
        if ssum + all_floor >= best[1]:
            return
    v = _smallest_ready(n, arcs, out_arcs, in_arcs, done)
    if v is None:
        if all(done):
            oracle._offer(best, cost, ssum)
        return
    todo = [i for i in out_arcs[v] if labels[i] is None]
    t = len(todo)
    old = present[v]
    arrived = blends[v]
    rest_floor = all_floor - prefix[left[v]]
    for extra in range(0, oracle._needed(len(out_arcs[v]), mode) + 1):
        if cost + extra > bound:
            break
        if best[0] is not None and cost + extra > best[0]:
            break
        granted = oracle._grant(old, policy, fresh, extra)
        held = old | granted
        if mode is Mode.FSG:
            pool = [1 << b for b in range(held.bit_length()) if (held >> b) & 1]
        else:
            pool = oracle._submasks(held)
            for b in arrived:
                if b & ~held:
                    pool.append(b)
        pool = [c for c in pool if c not in used[v]]
        pool.sort(key=oracle._mask_weight)
        if len(pool) < t:
            continue
        for chosen in combinations(pool, t):
            refs = 0
            add = 0
            for c in chosen:
                add += oracle._mask_weight(c)
                if c not in arrived:
                    refs |= c & ~old
            if refs != granted:
                continue
            if (
                best[0] is not None
                and cost + extra == best[0]
                and ssum + add + rest_floor >= best[1]
            ):
                continue
            for order in permutations(chosen):
                new_labels = list(labels)
                new_present = list(present)
                new_blends = list(blends)
                new_used = list(used)
                new_present[v] = held
                new_used[v] = used[v] | frozenset(chosen)
                for i, c in zip(todo, order):
                    new_labels[i] = c
                    h = arcs[i][1]
                    if c & (c - 1) == 0:
                        new_present[h] = new_present[h] | c
                    else:
                        new_blends[h] = new_blends[h] | {c}
                _reference_dfs(
                    n,
                    arcs,
                    out_arcs,
                    in_arcs,
                    mode,
                    policy,
                    bound,
                    best,
                    new_labels,
                    new_present,
                    new_blends,
                    new_used,
                    cost + extra,
                    ssum + add,
                    fresh + (extra if policy is Policy.FRESH else 0),
                )


class TestCorpus:
    def test_counts_by_edges(self):
        corpus = connected_graph_corpus(5)
        assert len(corpus) == 22
        histogram: dict[int, int] = {}
        for g in corpus:
            histogram[g.m] = histogram.get(g.m, 0) + 1
        assert histogram == {1: 1, 2: 1, 3: 3, 4: 5, 5: 12}

    @pytest.mark.parametrize("max_edges", range(1, 6))
    def test_equals_all_subsets_reference(self, max_edges):
        assert connected_graph_corpus(max_edges) == _all_subsets_corpus(
            max_edges
        )

    def test_six_edge_corpus_pinned(self):
        corpus = connected_graph_corpus(6)
        text = repr([(g.n, g.edges) for g in corpus])
        assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_6_SHA256

    def test_canonicalisations_bounded(self, monkeypatch):
        # growing layer by layer takes 219 calls; every edge subset of
        # every K_n, n <= 7, took 22,358
        calls = 0
        canonical = oracle._canonical_edges

        def counted(n, edges):
            nonlocal calls
            calls += 1
            return canonical(n, edges)

        monkeypatch.setattr(oracle, "_canonical_edges", counted)
        assert len(connected_graph_corpus(6)) == 52
        assert calls <= 300

    def test_small_classes_listed(self):
        corpus = connected_graph_corpus(3)
        assert len(corpus) == 5
        by_size = {(g.n, g.m) for g in corpus}
        # K2; P3; P4, star, triangle
        assert by_size == {(2, 1), (3, 2), (4, 3), (3, 3)}

    def test_deterministic(self):
        assert connected_graph_corpus(4) == connected_graph_corpus(4)

    def test_prefix_property(self):
        four = connected_graph_corpus(4)
        five = connected_graph_corpus(5)
        assert five[: len(four)] == four

    def test_all_connected_and_canonical(self):
        for g in connected_graph_corpus(5):
            assert Graph(g.n, g.edges) == g  # construction revalidates

    def test_bounds(self):
        with pytest.raises(ValueError):
            connected_graph_corpus(0)
        with pytest.raises(ValueError):
            connected_graph_corpus(8)

    def test_pairwise_non_isomorphic(self):
        nx = pytest.importorskip("networkx")
        corpus = [nx.Graph(g.edges) for g in connected_graph_corpus(6)]
        for i in range(len(corpus)):
            for j in range(i + 1, len(corpus)):
                assert not nx.is_isomorphic(corpus[i], corpus[j])

    def test_complete_against_atlas(self):
        nx = pytest.importorskip("networkx")
        from networkx.generators.atlas import graph_atlas_g

        # a connected graph with at most 7 edges has at most 8 vertices.
        # The atlas lists every graph on up to 7 vertices; on 8 vertices
        # such a graph is a tree
        atlas = [
            g
            for g in graph_atlas_g()
            if 1 <= g.number_of_edges() <= 7
            and g.number_of_nodes() >= 1
            and nx.is_connected(g)
        ] + list(nx.nonisomorphic_trees(8))
        corpus = connected_graph_corpus(7)
        assert Counter(g.number_of_edges() for g in atlas) == (
            CONNECTED_BY_EDGES
        )
        assert Counter(g.m for g in corpus) == CONNECTED_BY_EDGES
        # and each reference graph is one of the corpus's

        def degrees(g):
            return sorted(d for _, d in g.degree())

        graphs = [nx.Graph(g.edges) for g in corpus]
        for g in atlas:
            assert any(
                degrees(h) == degrees(g) and nx.is_isomorphic(g, h)
                for h in graphs
            )


ORACLE_TABLE = [
    # family, mode, cost, label sum
    ("path:2", Mode.BRUSH, 1, 1),
    ("path:2", Mode.FSG, 1, 1),
    ("path:2", Mode.BLEND, 1, 1),
    ("path:4", Mode.BRUSH, 1, 3),
    ("path:4", Mode.FSG, 1, 3),
    ("path:4", Mode.BLEND, 1, 3),
    ("cycle:3", Mode.BRUSH, 2, 3),
    ("cycle:3", Mode.FSG, 2, 4),
    ("cycle:3", Mode.BLEND, 2, 4),
    ("cycle:4", Mode.BRUSH, 2, 4),
    ("cycle:4", Mode.FSG, 2, 5),
    ("cycle:4", Mode.BLEND, 2, 5),
    ("cycle:5", Mode.BLEND, 2, 6),
    ("star:3", Mode.BRUSH, 2, 3),
    ("star:3", Mode.FSG, 2, 3),
    ("star:3", Mode.BLEND, 2, 3),
    ("star:4", Mode.BRUSH, 2, 4),
    ("star:4", Mode.FSG, 3, 4),
    ("star:4", Mode.BLEND, 2, 7),
    ("star:5", Mode.BRUSH, 3, 5),
    ("star:5", Mode.FSG, 4, 5),
    ("star:5", Mode.BLEND, 3, 8),
]


class TestOracleValues:
    @pytest.mark.parametrize("text,mode,cost,label_sum", ORACLE_TABLE)
    def test_frozen_minima(self, text, mode, cost, label_sum):
        r = oracle_invariants(family(text), mode)
        assert (r.cost, r.label_sum) == (cost, label_sum)
        g = family(text)
        assert r.raw_ratio == Fraction(g.m, label_sum)
        assert r.index == Fraction(g.m, cost * label_sum)

    def test_orientation_count_reported(self):
        r = oracle_invariants(family("cycle:4"), Mode.BLEND)
        assert r.orientations == 14

    def test_six_edge_graphs(self):
        # complete graph on four vertices: blending cannot get below three
        r = oracle_invariants(family("wheel:3"), Mode.BLEND)
        assert (r.cost, r.label_sum) == (3, 10)
        # double triangle: both restricted modes agree with each other
        fsg = oracle_invariants(family("friendship:3,2"), Mode.FSG)
        blend = oracle_invariants(family("friendship:3,2"), Mode.BLEND)
        assert (fsg.cost, fsg.label_sum) == (2, 8)
        assert (blend.cost, blend.label_sum) == (2, 8)
        assert fsg.index == Fraction(3, 8)

    def test_fresh_policy_changes_label_sum(self):
        # without per-vertex index restarts, two allocated leaves cannot
        # send the same name, so the best sum rises from 3 to 4
        small = oracle_invariants(family("star:3"), Mode.FSG, Policy.SMALLEST)
        fresh = oracle_invariants(family("star:3"), Mode.FSG, Policy.FRESH)
        assert (small.cost, small.label_sum) == (2, 3)
        assert (fresh.cost, fresh.label_sum) == (2, 4)

    def test_refuses_large_graphs(self):
        with pytest.raises(ValueError):
            oracle_invariants(family("cycle:8"), Mode.BLEND)

    def test_unreachable_cost_bound(self):
        with pytest.raises(ValueError):
            oracle_invariants(family("cycle:3"), Mode.BLEND, cost_bound=1)

    @pytest.mark.parametrize("bound", [2.5, "3", True])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_cost_bound_must_be_an_int(self, mode, bound):
        # one refusal in every mode, before any mode's search starts
        with pytest.raises(TypeError, match="cost_bound must be an int"):
            oracle_invariants(family("cycle:3"), mode, cost_bound=bound)

    def test_brush_label_sum_is_edge_count(self):
        for g in connected_graph_corpus(4):
            r = oracle_invariants(g, Mode.BRUSH)
            assert r.label_sum == g.m
            assert r.raw_ratio == 1


class TestSearchOrder:
    """Cost levels outermost, cut at the incumbent, one fixed firing
    order per orientation: the same answers as searching one orientation
    at a time with the rescanning reference DFS, and no root the DFS
    would reject on entry."""

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_corpus_matches_reference(self, mode, policy):
        for g in connected_graph_corpus(5):
            assert oracle_invariants(g, mode, policy) == _reference_oracle(
                g, mode, policy
            ), g.edges

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("spec", ["friendship:3,2", "wheel:3", "star:5"])
    def test_families_match_reference(self, spec, mode, policy):
        g = family(spec)
        assert oracle_invariants(g, mode, policy) == _reference_oracle(
            g, mode, policy
        )

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("spec", ["cycle:4", "star:5", "wheel:3"])
    def test_cost_bound_at_and_below_the_optimum(self, spec, mode):
        g = family(spec)
        free = oracle_invariants(g, mode)
        assert oracle_invariants(g, mode, cost_bound=free.cost) == free
        assert _reference_oracle(g, mode, cost_bound=free.cost) == free
        with pytest.raises(ValueError, match="within the cost bound"):
            oracle_invariants(g, mode, cost_bound=free.cost - 1)

    def test_search_tree_pinned(self, monkeypatch):
        # the DFS calls over the corpus, counted as tests/identity.py
        # counts them; memoising set choices must not move this number
        calls = 0
        dfs = oracle._dfs

        def counted(*args):
            nonlocal calls
            calls += 1
            return dfs(*args)

        monkeypatch.setattr(oracle, "_dfs", counted)
        for g in connected_graph_corpus(5):
            for mode in Mode:
                for policy in Policy:
                    oracle_invariants(g, mode, policy)
        assert calls == 21542

    def test_set_choices_memo_lives_for_one_call(self, monkeypatch):
        builds = 0
        build = oracle._set_choices

        def counted(*args):
            nonlocal builds
            builds += 1
            return build(*args)

        monkeypatch.setattr(oracle, "_set_choices", counted)
        g = family("wheel:3")
        oracle_invariants(g, Mode.BLEND, Policy.FRESH)
        first = builds
        # a second call builds every choice again: nothing was kept
        oracle_invariants(g, Mode.BLEND, Policy.FRESH)
        assert first > 0
        assert builds == 2 * first

    def test_no_root_starts_beyond_the_incumbent(self, monkeypatch):
        roots = []
        dfs = oracle._dfs
        prefix = oracle._cheapest_distinct_weights(Mode.BLEND)

        def recording(*args):
            shape, _, _, bound, best = args[:5]
            cost, depth = args[7], args[10]
            if depth == 0:
                floor = sum(prefix[len(out)] for out in shape.out_arcs)
                roots.append((cost, bound, floor, best[0], best[1]))
            return dfs(*args)

        monkeypatch.setattr(oracle, "_dfs", recording)
        for g in connected_graph_corpus(6)[40:52]:
            oracle_invariants(g, Mode.BLEND)
        assert roots
        for cost, bound, floor, best_cost, best_sum in roots:
            assert cost <= bound
            if best_cost is None:
                continue
            assert cost <= best_cost
            if cost == best_cost:
                assert floor < best_sum

    def test_firing_order_is_lexicographic_topological(self):
        # the smallest ready vertex first, sinks left out (they never fire)
        nx = pytest.importorskip("networkx")
        graphs = list(connected_graph_corpus(5)) + [
            family(s) for s in ("friendship:3,2", "wheel:3", "star:5")
        ]
        for g in graphs:
            for arcs, order in oracle._acyclic_arc_lists(g):
                d = nx.DiGraph(arcs)
                want = [
                    v
                    for v in nx.lexicographical_topological_sort(d)
                    if d.out_degree(v)
                ]
                assert order == want, arcs


class TestCappedCounts:
    def test_plans_in_order_against_a_product_filter(self):
        # zero caps included: such a vertex takes no primary
        for caps in product(range(4), repeat=4):
            for total in range(sum(caps) + 2):
                want = [
                    tuple((v, k) for v, k in enumerate(counts) if k)
                    for counts in product(*(range(cap + 1) for cap in caps))
                    if sum(counts) == total
                ]
                got = list(oracle._capped_counts(list(caps), total))
                assert got == want, (caps, total)

    def test_mask_weights(self):
        for mask in range(1 << 10):
            members = [i + 1 for i in range(10) if mask >> i & 1]
            assert oracle._mask_weight(mask) == sum(members)


class TestIndependence:
    def test_only_mode_policy_and_graph_come_from_the_package(self):
        """The oracle shares no search or engine code: a bug would have
        to be written twice to pass both."""
        homes = {}
        for name, obj in vars(oracle).items():
            if name.startswith("__"):
                continue
            home = (
                obj.__name__
                if inspect.ismodule(obj)
                else getattr(obj, "__module__", None)
            )
            if home:
                homes[name] = home
        foreign = {
            name: home
            for name, home in homes.items()
            if home.split(".")[0] == "tattooing" and home != oracle.__name__
        }
        assert foreign == {
            "Mode": "tattooing.engine",
            "Policy": "tattooing.engine",
            "Graph": "tattooing.graphs",
        }
        assert not [
            name
            for name, home in homes.items()
            if home.split(".")[0] == "networkx"
        ]
