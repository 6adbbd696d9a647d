"""Optimiser: costs, label sums, indices, and witnesses."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import DiGraphMatcher

from tattooing import engine, search
from tattooing.engine import (
    AllocationPlan,
    EngineError,
    Mode,
    Policy,
    ReplayError,
    fire,
    initial_state,
    ready_vertices,
    replay,
)
from tattooing.graphs import (
    Digraph,
    Graph,
    build_family,
    collect_acyclic_orientation_bits,
    orient,
    parse_family_spec,
)
from tattooing.oracle import connected_graph_corpus, oracle_invariants
from tattooing.search import (
    LimitError,
    Quantity,
    SearchLimits,
    best_index,
    best_index_for_orientation,
    invariant,
    min_cost_for_orientation,
    ratio_set,
)
from tattooing.search import _cheap_prefix

NO_CAP = SearchLimits(max_edges=30, time_budget=None)


def family(text: str) -> Graph:
    return build_family(parse_family_spec(text))


def identity_orientation(g: Graph) -> Digraph:
    return Digraph(g, g.edges)


def source_plan(count: int) -> AllocationPlan:
    return AllocationPlan(((0, count),), Policy.SMALLEST)


class TestCycleTau:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_tau_is_two(self, n):
        r = best_index(family(f"cycle:{n}"), Mode.BLEND)
        assert r.cost == 2

    @pytest.mark.parametrize("n", range(3, 9))
    def test_minimum_label_sum_is_n_plus_one(self, n):
        # one arc must carry the blend {1,2}; everything else singletons
        r = best_index(family(f"cycle:{n}"), Mode.BLEND)
        assert r.label_sum == n + 1
        assert r.index == Fraction(n, 2 * (n + 1))

    def test_c7_best_index(self):
        r = best_index(family("cycle:7"), Mode.BLEND)
        assert r.index == Fraction(7, 16)
        assert r.raw_ratio == Fraction(7, 8)

    def test_witness_replays_to_reported_values(self):
        g = family("cycle:5")
        r = best_index(g, Mode.BLEND)
        outcome = replay(g, Mode.BLEND, r.witness)
        assert outcome.primaries_used == r.cost
        assert outcome.label_sum == r.label_sum


class TestRatioSet:
    def test_c7_source_to_sink_with_two_primaries(self):
        g = family("cycle:7")
        rs = ratio_set(identity_orientation(g), Mode.BLEND, source_plan(2))
        assert rs == frozenset(
            Fraction(7, s) for s in (16, 18, 26, 30, 38, 40)
        )

    def test_c3_source_to_sink_with_two_primaries(self):
        g = family("cycle:3")
        rs = ratio_set(identity_orientation(g), Mode.BLEND, source_plan(2))
        assert rs == frozenset(
            Fraction(3, s) for s in (8, 10, 14, 16)
        )

    def test_directed_path_single_primary(self):
        g = family("path:4")
        rs = ratio_set(identity_orientation(g), Mode.BLEND, source_plan(1))
        assert rs == frozenset({Fraction(1, 1)})

    def test_infeasible_allocation_raises(self):
        # one primary cannot split at the cycle source
        g = family("cycle:5")
        with pytest.raises(ValueError):
            ratio_set(identity_orientation(g), Mode.BLEND, source_plan(1))

    def test_brush_run_needing_augmentation_raises(self):
        g = family("star:4")
        with pytest.raises(ValueError):
            ratio_set(identity_orientation(g), Mode.BRUSH, source_plan(2))


class TestFixedOrientation:
    def joost_symmetric(self) -> Digraph:
        # every parallel path oriented from junction 0 to junction 1
        g = family("joost:4,7")
        arcs = tuple((v, u) if u == 1 else (u, v) for u, v in g.edges)
        return Digraph(g, arcs)

    def test_joost_4_7_symmetric_orientation(self):
        r = best_index_for_orientation(self.joost_symmetric(), Mode.BLEND)
        assert r.cost == 3
        assert r.label_sum == 72
        assert r.index == Fraction(7, 72)
        assert r.orientations_searched == 1

    def test_joost_4_7_global_optimum_beats_symmetric(self):
        # reversing three paths lets junction 1 re-dispatch cheap subsets
        r = best_index(family("joost:4,7"), Mode.BLEND)
        assert r.cost == 3
        assert r.label_sum == 54
        assert r.index == Fraction(7, 54)

    @pytest.mark.parametrize("t", range(1, 11))
    def test_out_star_needs_log_many_primaries(self, t):
        d = identity_orientation(family(f"star:{t}"))
        res = min_cost_for_orientation(d, Mode.BLEND)
        assert res.value == t.bit_length()
        assert res.quantity is Quantity.TAU
        assert res.orientations_searched == 1

    def test_out_star_fsg_needs_one_primary_per_arc(self):
        d = identity_orientation(family("star:6"))
        assert min_cost_for_orientation(d, Mode.FSG).value == 6

    def test_directed_path_any_mode_costs_one(self):
        d = identity_orientation(family("path:5"))
        for mode in Mode:
            assert min_cost_for_orientation(d, mode).value == 1

    def test_cycle_as_two_directed_paths(self):
        d = identity_orientation(family("cycle:7"))
        assert min_cost_for_orientation(d, Mode.BLEND).value == 2

    def test_cyclic_orientation_rejected(self):
        g = family("cycle:3")
        cyclic = Digraph(g, ((0, 1), (2, 0), (1, 2)))
        with pytest.raises(ValueError):
            min_cost_for_orientation(cyclic, Mode.BLEND)
        with pytest.raises(ValueError):
            best_index_for_orientation(cyclic, Mode.BLEND)

    def test_brush_orientation_cost_is_deficit_sum(self):
        d = identity_orientation(family("star:5"))
        res = min_cost_for_orientation(d, Mode.BRUSH)
        assert res.value == 5
        assert res.quantity is Quantity.BR


class TestOneSearchPath:
    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_min_cost_is_the_fixed_optimum(self, mode, policy):
        # the least cost, witnessed by the least-label-sum run at it
        for g in connected_graph_corpus(4):
            for code in collect_acyclic_orientation_bits(g):
                d = orient(g, code)
                res = min_cost_for_orientation(d, mode, policy)
                report = best_index_for_orientation(d, mode, policy)
                assert res.value == report.cost
                assert res.witness == report.witness

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_witness_fires_the_smallest_ready_vertex(self, mode, policy):
        # one firing order per orientation: its topological order, the
        # engine's smallest ready vertex first
        for g in connected_graph_corpus(5):
            for code in collect_acyclic_orientation_bits(g):
                d = orient(g, code)
                witness = best_index_for_orientation(d, mode, policy).witness
                state = initial_state(
                    d, mode, AllocationPlan(witness.initial, witness.policy)
                )
                for event in witness.events:
                    assert event.vertex == ready_vertices(state)[0]
                    state = fire(state, event.vertex, event.assignment)
                assert state.complete


class TestCheapPrefix:
    def test_exact_table_matches_nine_bit_masks(self):
        # every set of weight at most 9 fits in 9 bits; there are 32
        weights = sorted(
            sum(b + 1 for b in range(9) if (mask >> b) & 1)
            for mask in range(1, 1 << 9)
        )
        assert _cheap_prefix(Mode.BLEND, 32) == tuple(
            accumulate(weights[:32], initial=0)
        )

    def test_out_degree_beyond_the_old_table(self):
        d = identity_orientation(family("star:24"))
        limits = SearchLimits(max_edges=40, time_budget=None)
        tau = best_index_for_orientation(d, Mode.BLEND, limits=limits)
        assert tau.cost == 5
        btau = best_index_for_orientation(d, Mode.FSG, limits=limits)
        assert btau.cost == 24


ANSWERS = {
    "best_index": lambda g, mode: best_index(g, mode),
    "best_index_for_orientation": lambda g, mode: best_index_for_orientation(
        identity_orientation(g), mode
    ),
    "min_cost_for_orientation": lambda g, mode: min_cost_for_orientation(
        identity_orientation(g), mode
    ),
    "invariant": lambda g, mode: invariant(g, Quantity.INDEX, mode),
}


class TestOneReplayPerAnswer:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("answer", sorted(ANSWERS))
    def test_each_answer_replays_once(self, monkeypatch, answer, mode):
        calls = []

        def counting(*args):
            calls.append(args)
            return replay(*args)

        # count a replay reached through either module's name
        monkeypatch.setattr(search, "replay", counting)
        monkeypatch.setattr(engine, "replay", counting)
        ANSWERS[answer](family("cycle:5"), mode)
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("answer", sorted(ANSWERS))
    def test_wrong_replay_outcome_raises(self, monkeypatch, answer, mode):
        def off_by_one(*args):
            outcome = replay(*args)
            return dataclasses.replace(
                outcome, label_sum=outcome.label_sum + 1
            )

        monkeypatch.setattr(search, "replay", off_by_one)
        with pytest.raises(ReplayError):
            ANSWERS[answer](family("cycle:5"), mode)


class TestFsgFamilies:
    @pytest.mark.parametrize("n,expect", [(2, 2), (3, 4), (4, 6)])
    def test_friendship_btau(self, n, expect):
        r = best_index(family(f"friendship:3,{n}"), Mode.FSG)
        assert r.cost == expect == 2 * (n - 1)

    @pytest.mark.parametrize("n,label_sum", [(2, 8), (3, 12), (4, 16)])
    def test_friendship_minimum_label_sum(self, n, label_sum):
        r = best_index(family(f"friendship:3,{n}"), Mode.FSG)
        assert r.label_sum == label_sum

    def test_friendship_2_index_matches_oracle(self):
        r = best_index(family("friendship:3,2"), Mode.FSG)
        assert r.index == Fraction(3, 8)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_joost_btau_is_k(self, n, k):
        r = best_index(family(f"joost:{n},{k}"), Mode.FSG)
        assert r.cost == k

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_joost_single_path_ratio_one(self, n):
        r = best_index(family(f"joost:{n},1"), Mode.FSG)
        assert r.raw_ratio == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_joost_two_paths_ratio(self, n):
        g = family(f"joost:{n},2")
        r = best_index(g, Mode.FSG)
        assert r.raw_ratio == Fraction(g.m, g.m + 1)

    @pytest.mark.parametrize("n,label_sum", [(3, 8), (4, 11), (5, 14)])
    def test_joost_three_paths_label_sum(self, n, label_sum):
        # one index is granted at two distinct origins and merges at the
        # junction, beating the one-origin schedule by one unit per path
        r = best_index(family(f"joost:{n},3"), Mode.FSG)
        assert r.label_sum == label_sum == 3 * n - 1


class TestGlobalOptima:
    def test_friendship_3_6_blend(self):
        r = best_index(family("friendship:3,6"), Mode.BLEND)
        assert r.cost == 4
        assert r.label_sum == 56
        assert r.index == Fraction(9, 112)
        assert r.orientations_searched == 6 ** 6

    def test_friendship_3_6_witness_replays(self):
        g = family("friendship:3,6")
        r = best_index(g, Mode.BLEND)
        outcome = replay(g, Mode.BLEND, r.witness)
        assert outcome.label_sum == 56


class TestOracleAgreement:
    MODES = (Mode.BRUSH, Mode.FSG, Mode.BLEND)

    @pytest.mark.parametrize("mode", MODES)
    def test_spot_corpus_graphs(self, mode):
        for g in connected_graph_corpus(4):
            r = best_index(g, mode)
            o = oracle_invariants(g, mode)
            assert (r.cost, r.label_sum) == (o.cost, o.label_sum)
            assert r.index == o.index
            assert r.raw_ratio == o.raw_ratio

    def test_orientation_totals_match(self):
        for g in connected_graph_corpus(4):
            r = best_index(g, Mode.BLEND)
            o = oracle_invariants(g, Mode.BLEND)
            assert r.orientations_searched == o.orientations
            assert r.orientations_searched == len(
                collect_acyclic_orientation_bits(g)
            )

    @pytest.mark.parametrize("mode", (Mode.FSG, Mode.BLEND))
    def test_fresh_policy_agrees(self, mode):
        for g in connected_graph_corpus(4):
            r = best_index(g, mode, Policy.FRESH)
            o = oracle_invariants(g, mode, Policy.FRESH)
            assert (r.cost, r.label_sum) == (o.cost, o.label_sum)


class TestFreshPolicy:
    def test_bowtie_values_match_smallest_here(self):
        g = family("friendship:3,2")
        for mode in (Mode.FSG, Mode.BLEND):
            r = best_index(g, mode, Policy.FRESH)
            assert (r.cost, r.label_sum) == (2, 8)

    def test_joost_3_3_fsg_needs_distinct_origins(self):
        # FRESH numbering forbids the cross-origin merge, so the label
        # sum climbs back to the one-origin value
        r = best_index(family("joost:3,3"), Mode.FSG, Policy.FRESH)
        assert (r.cost, r.label_sum) == (3, 9)
        assert r.index == Fraction(2, 9)

    def test_cycle_fresh(self):
        r = best_index(family("cycle:5"), Mode.BLEND, Policy.FRESH)
        assert (r.cost, r.label_sum) == (2, 6)

    def test_witness_carries_initial_allocation(self):
        r = best_index(family("cycle:4"), Mode.BLEND, Policy.FRESH)
        assert r.witness.policy is Policy.FRESH
        assert sum(k for _, k in r.witness.initial) == r.cost


class TestBrush:
    @pytest.mark.parametrize(
        "spec,cost",
        [
            ("path:5", 1),
            ("cycle:6", 2),
            ("star:4", 2),
            ("star:5", 3),
            ("friendship:3,2", 2),
        ],
    )
    def test_brush_numbers(self, spec, cost):
        r = best_index(family(spec), Mode.BRUSH)
        assert r.cost == cost

    def test_brush_label_sum_is_edge_count(self):
        g = family("cycle:6")
        r = best_index(g, Mode.BRUSH)
        assert r.label_sum == g.m
        assert r.raw_ratio == 1
        assert r.index == Fraction(1, r.cost)

    def test_brush_witness_has_token_counts_only(self):
        r = best_index(family("star:4"), Mode.BRUSH)
        assert all(e.assignment == () for e in r.witness.events)
        assert sum(k for _, k in r.witness.initial) == r.cost


class TestInvariantDispatch:
    def test_quantities_imply_modes(self):
        g = family("cycle:4")
        assert invariant(g, Quantity.BR).mode is Mode.BRUSH
        assert invariant(g, Quantity.BTAU).mode is Mode.FSG
        assert invariant(g, Quantity.TAU).mode is Mode.BLEND

    def test_conflicting_mode_rejected(self):
        with pytest.raises(ValueError):
            invariant(family("cycle:4"), Quantity.BTAU, Mode.BLEND)

    def test_ratio_quantities_default_to_blend(self):
        g = family("cycle:5")
        res = invariant(g, Quantity.INDEX)
        assert res.mode is Mode.BLEND
        assert res.value == Fraction(5, 12)
        raw = invariant(g, Quantity.RAW_RATIO)
        assert raw.value == Fraction(5, 6)

    def test_label_sum_quantity(self):
        res = invariant(family("cycle:5"), Quantity.MIN_LABEL_SUM)
        assert res.value == 6

    def test_values_consistent_with_best_index(self):
        g = family("friendship:3,2")
        r = best_index(g, Mode.FSG)
        assert invariant(g, Quantity.BTAU).value == r.cost
        assert (
            invariant(g, Quantity.MIN_LABEL_SUM, Mode.FSG).value
            == r.label_sum
        )


class TestLowerBounds:
    """The edge-by-edge bound against a direct count per orientation."""

    @staticmethod
    def direct(graph: Graph, code: int, mode: Mode) -> int:
        d = orient(graph, code)
        return sum(
            max(
                0,
                engine.required_primaries(d.out_degree(v), mode)
                - d.in_degree(v),
            )
            for v in range(graph.n)
        )

    @pytest.mark.parametrize("mode", list(Mode))
    def test_matches_direct_count_in_any_order(self, mode):
        graphs = [
            *connected_graph_corpus(5),
            *map(family, ("joost:3,3", "friendship:3,3", "wheel:5", "star:6")),
        ]
        for graph in graphs:
            searcher = search._Searcher(graph, mode, Policy.SMALLEST, NO_CAP)
            codes = collect_acyclic_orientation_bits(graph)
            want = [self.direct(graph, code, mode) for code in codes]
            assert searcher._lower_bounds(codes) == want
            assert searcher._lower_bounds(codes[::-1]) == want[::-1]
            assert [searcher._lower_bounds([c])[0] for c in codes] == want


class _ReferenceClasses:
    """Reference class finder: the Weisfeiler-Lehman hash + VF2 test the
    search once ran on every code, before it labelled orbits."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._iso_buckets: dict[str, list[tuple[int, nx.DiGraph]]] = {}
        self._iso_rep: dict[int, int] = {}

    def _rep_for(self, code: int) -> int:
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
        key = nx.weisfeiler_lehman_graph_hash(G)
        bucket = self._iso_buckets.setdefault(key, [])
        for rep, rep_graph in bucket:
            if DiGraphMatcher(G, rep_graph).is_isomorphic():
                self._iso_rep[code] = rep
                return rep
        bucket.append((code, G))
        self._iso_rep[code] = code
        return code


@pytest.mark.filterwarnings("ignore:The hashes produced for:UserWarning")
class TestLearnedOrbits:
    """Orbit labels from VF2-learned automorphisms against the reference
    finder, level by level of the deepening loop."""

    @staticmethod
    def check(graph: Graph, mode: Mode) -> None:
        searcher = search._Searcher(graph, mode, Policy.SMALLEST, NO_CAP)
        reference = _ReferenceClasses(graph)
        codes = collect_acyclic_orientation_bits(graph)
        lbs = searcher._lower_bounds(codes)
        last = best_index(graph, mode, limits=NO_CAP).cost
        for c in range(min(lbs), last + 1):
            under = [code for code, lb in zip(codes, lbs) if lb <= c]
            got = {code: searcher._rep_for(code) for code in under}
            assert got == {code: reference._rep_for(code) for code in under}

    @pytest.mark.parametrize("mode", [Mode.FSG, Mode.BLEND])
    def test_corpus_matches_reference(self, mode):
        for graph in connected_graph_corpus(6):
            self.check(graph, mode)

    @pytest.mark.parametrize("mode", [Mode.FSG, Mode.BLEND])
    @pytest.mark.parametrize(
        "spec",
        [
            "friendship:3,4",
            "friendship:3,5",
            "joost:4,5",
            "wheel:6",
            "cycle:7",
            "star:8",
            "genfriendship:3x2+4x1",
        ],
    )
    def test_family_matches_reference(self, spec, mode):
        self.check(family(spec), mode)

    @staticmethod
    def count_hashes(monkeypatch) -> list:
        """Record every Weisfeiler-Lehman hash the search computes."""
        calls = []
        real = search.nx.weisfeiler_lehman_graph_hash

        def counting(G):
            calls.append(G)
            return real(G)

        monkeypatch.setattr(search.nx, "weisfeiler_lehman_graph_hash", counting)
        return calls

    def test_few_hashes(self, monkeypatch):
        # 5,760 hashes when every code under the target was hashed
        calls = self.count_hashes(monkeypatch)
        best_index(family("friendship:3,5"), Mode.FSG, limits=NO_CAP)
        assert 0 < len(calls) < 100

    def test_every_orbit_label_ticks(self, monkeypatch):
        # each code is labelled by its own hash or as an image, with a tick
        hashed = self.count_hashes(monkeypatch)
        graph = family("friendship:3,4")
        searcher = search._Searcher(graph, Mode.FSG, Policy.SMALLEST, NO_CAP)
        codes = collect_acyclic_orientation_bits(graph)
        for code in codes:
            searcher._rep_for(code)
        assert len(searcher._iso_rep) == len(codes)
        assert searcher.ticks == len(codes) - len(hashed) > 0

    @pytest.mark.parametrize(
        "mapping,message",
        [
            ({0: 0, 1: 1, 2: 2, 3: 3}, "does not take orientation"),
            ({0: 1, 1: 0, 2: 2, 3: 3}, "non-edge"),
            ({0: 0, 1: 0, 2: 2, 3: 3}, "not a vertex permutation"),
        ],
    )
    def test_bad_automorphism_raises(self, monkeypatch, mapping, message):
        class Lying:
            def __init__(self, G1, G2):
                self.mapping = mapping

            def is_isomorphic(self):
                return True

        graph = family("cycle:4")
        first, second = collect_acyclic_orientation_bits(graph)[:2]
        searcher = search._Searcher(graph, Mode.FSG, Policy.SMALLEST, NO_CAP)
        monkeypatch.setattr(
            search.nx, "weisfeiler_lehman_graph_hash", lambda G: "one bucket"
        )
        searcher._rep_for(first)
        monkeypatch.setattr(search, "DiGraphMatcher", Lying)
        with pytest.raises(EngineError, match=message):
            searcher._rep_for(second)


class TestLimits:
    def test_edge_cap_refusal(self):
        with pytest.raises(LimitError):
            best_index(
                family("cycle:9"),
                Mode.BLEND,
                limits=SearchLimits(max_edges=8, time_budget=None),
            )

    def test_default_edge_cap_from_environment(self, monkeypatch):
        monkeypatch.setenv("TATTOO_MAX_EDGES", "3")
        assert SearchLimits().max_edges == 3
        with pytest.raises(LimitError):
            best_index(family("cycle:4"), Mode.BLEND)

    def test_time_budget_refusal(self):
        tight = SearchLimits(max_edges=30, time_budget=1e-4)
        with pytest.raises(LimitError):
            best_index(family("friendship:3,4"), Mode.BLEND, limits=tight)

    def test_time_budget_covers_orientation_listing(self, monkeypatch):
        # the clock passes the deadline at its third reading: the first
        # sets the deadline, the next come after 256 and 512 of the 1022
        # acyclic orientations of cycle:10
        readings = iter([0.0, 0.0])
        monkeypatch.setattr(
            search,
            "time",
            SimpleNamespace(monotonic=lambda: next(readings, 1e9)),
        )
        listed = []
        real = search.collect_acyclic_orientation_bits

        def listing(*args, **kwargs):
            listed.append(real(*args, **kwargs))
            return listed[-1]

        monkeypatch.setattr(search, "collect_acyclic_orientation_bits", listing)
        budget = SearchLimits(max_edges=30, time_budget=1.0)
        with pytest.raises(LimitError):
            best_index(family("cycle:10"), Mode.BLEND, limits=budget)
        assert listed == []

    @pytest.mark.parametrize("limit", [0, -1])
    def test_edge_limit_must_be_positive(self, limit):
        with pytest.raises(ValueError, match="positive integer"):
            SearchLimits(max_edges=limit, time_budget=None)

    @pytest.mark.parametrize("raw", ["0", "-5"])
    def test_edge_limit_variable_must_be_positive(self, monkeypatch, raw):
        monkeypatch.setenv("TATTOO_MAX_EDGES", raw)
        with pytest.raises(ValueError, match=f"TATTOO_MAX_EDGES={raw!r}"):
            SearchLimits()

    @pytest.mark.parametrize("budget", [0, -1, float("nan")])
    def test_budget_must_be_positive(self, budget):
        with pytest.raises(ValueError, match="positive number of seconds"):
            SearchLimits(max_edges=30, time_budget=budget)

    def test_infinite_budget_is_no_deadline(self, monkeypatch):
        monkeypatch.setenv("TATTOO_TIME_BUDGET", "inf")
        r = best_index(family("cycle:4"), Mode.BLEND)
        assert r.cost == 2

    def test_generous_budget_unaffected(self):
        loose = SearchLimits(max_edges=30, time_budget=600.0)
        r = best_index(family("cycle:4"), Mode.BLEND, limits=loose)
        assert r.cost == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec,mode",
        [
            ("friendship:3,2", Mode.BLEND),
            ("cycle:6", Mode.BLEND),
            ("joost:4,3", Mode.FSG),
            # its least-bound level has 2 representatives and no
            # completion, so every worker there comes back empty
            ("star:5", Mode.FSG),
        ],
    )
    def test_parallel_sweep_matches_serial(self, spec, mode):
        g = family(spec)
        serial = best_index(g, mode, workers=1)
        parallel = best_index(g, mode, workers=3)
        assert serial == parallel
        assert serial.witness == parallel.witness

    @pytest.mark.parametrize(
        "spec,mode,workers,sizes",
        [
            # 2 representatives at cost 3, with no completion, then 4
            ("star:5", Mode.FSG, 2, [2]),
            # one level, with 3 representatives
            ("cycle:6", Mode.BLEND, 4, [3]),
            # 2, then 4, then 6 representatives
            ("star:7", Mode.FSG, 3, [2, 3]),
        ],
    )
    def test_pools_per_search(self, monkeypatch, spec, mode, workers, sizes):
        g = family(spec)
        serial = best_index(g, mode)
        started = []
        real = search._mp_context()

        class Recording:
            def Pool(self, size, **kwargs):
                started.append(size)
                return real.Pool(size, **kwargs)

        monkeypatch.setattr(search, "_mp_context", Recording)
        parallel = best_index(g, mode, workers=workers)
        assert parallel == serial
        assert parallel.witness == serial.witness
        assert started == sizes

    def test_repeated_runs_identical(self):
        g = family("friendship:3,2")
        assert best_index(g, Mode.BLEND) == best_index(g, Mode.BLEND)
