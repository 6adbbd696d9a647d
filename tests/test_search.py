"""Optimiser: costs, label sums, indices, and witnesses."""

from __future__ import annotations

import dataclasses
import gc
import math
import multiprocessing.pool
import time
import weakref
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from types import FunctionType, SimpleNamespace

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import DiGraphMatcher

from tattooing import engine, search
from tattooing.engine import (
    AllocationPlan,
    EngineError,
    Mode,
    Outcome,
    Policy,
    ReplayError,
    Witness,
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
    quantity_mode,
    quantity_value,
    ratio_set,
)
from tattooing.search import _cheap_prefix
from test_search_golden import FAMILIES as GOLDEN_FAMILIES

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
        assert outcome.cost == r.cost
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

    @pytest.mark.parametrize(
        "spec,count",
        [("star:4", 4), ("star:4", 5), ("cycle:5", 2), ("friendship:3,2", 4)],
    )
    def test_brush_run_is_edges_over_tokens_and_arcs(self, spec, count):
        # every arc takes one token, so the label sum is the edge count
        # and the ratio is 1 / tokens
        digraph = orient(family(spec), 0)
        got = ratio_set(digraph, Mode.BRUSH, source_plan(count))
        assert got == {Fraction(1, count)}


def _reference_ratio_set(
    digraph: Digraph, mode: Mode, plan: AllocationPlan
) -> frozenset[Fraction]:
    """Reference ratio set (FSG and BLEND): every complete schedule fired
    through the engine, with every permutation of the pool at each firing,
    as ``ratio_set`` once did before it shared equal states."""
    sums: set[int] = set()

    def explore(state) -> None:
        ready = ready_vertices(state)
        if not ready:
            if state.complete:
                sums.add(state.label_sum)
            return
        v = ready[0]
        todo = state.untattooed_out(v)
        pool = engine.mutate_pool(state, v)
        if len(pool) < len(todo):
            return
        for combo in permutations(pool, len(todo)):
            explore(fire(state, v, tuple(zip(todo, combo))))

    explore(initial_state(digraph, mode, plan))
    if not sums:
        raise ValueError("no schedule completes from this allocation")
    return frozenset(Fraction(digraph.graph.m, plan.total * s) for s in sums)


class TestSharedStates:
    """``ratio_set`` explores each distinct state once; it must reach the
    same ratios, and fail with the same message, as the reference."""

    @staticmethod
    def outcome(ratios, *args):
        try:
            return ratios(*args)
        except ValueError as exc:
            return str(exc)

    def test_corpus_matches_reference(self):
        allocations = ({0: 2}, {0: 3}, {0: 1, 1: 2})
        cases = 0
        for graph in connected_graph_corpus(5):
            for code in collect_acyclic_orientation_bits(graph):
                digraph = orient(graph, code)
                for mode in (Mode.FSG, Mode.BLEND):
                    for policy in Policy:
                        for counts in allocations:
                            plan = AllocationPlan.from_counts(counts, policy)
                            args = (digraph, mode, plan)
                            got = self.outcome(ratio_set, *args)
                            want = self.outcome(_reference_ratio_set, *args)
                            assert got == want, (graph.edges, code, *args[1:])
                            cases += 1
        assert cases == 5304

    @pytest.mark.parametrize(
        "spec", ["star:3", "star:4", "star:5", "friendship:3,2"]
    )
    def test_sink_heavy_matches_reference(self, spec):
        # orientation 0 sends every star arc, and four of the six arcs of
        # friendship:3,2, into a sink
        digraph = orient(family(spec), 0)
        for counts in ({0: 2}, {0: 3}):
            for mode in (Mode.FSG, Mode.BLEND):
                for policy in Policy:
                    plan = AllocationPlan.from_counts(counts, policy)
                    args = (digraph, mode, plan)
                    got = self.outcome(ratio_set, *args)
                    want = self.outcome(_reference_ratio_set, *args)
                    assert got == want, args[1:]

    def test_star_sums_every_combination_of_the_pool(self):
        digraph = orient(family("star:6"), 0)
        plan = source_plan(4)
        pool = engine.mutate_pool(initial_state(digraph, Mode.BLEND, plan), 0)
        want = frozenset(
            Fraction(6, 4 * sum(c.weight for c in sets))
            for sets in combinations(pool, 6)
        )
        assert ratio_set(digraph, Mode.BLEND, plan, NO_CAP) == want

    def test_star_12_within_budget(self):
        # its 12 arcs into sinks once took C(31, 12) firings at the root
        digraph = orient(family("star:12"), 0)
        budget = SearchLimits(max_edges=30, time_budget=5.0)
        assert len(ratio_set(digraph, Mode.BLEND, source_plan(5), budget)) == 87

    def test_cycle_4_twelve_primaries_within_budget(self):
        # 4,095 blend sets at the root, one live arc and one into a sink:
        # the sink sums are found once per distinct live weight, where a
        # pass over every set left per live set took 40 s.  Every label
        # sum from 5 to 311 is reached, as before.
        digraph = orient(family("cycle:4"), 0)
        budget = SearchLimits(max_edges=30, time_budget=10.0)
        want = frozenset(Fraction(4, 12 * s) for s in range(5, 312))
        assert ratio_set(digraph, Mode.BLEND, source_plan(12), budget) == want

    def test_fires_far_fewer_times(self, monkeypatch):
        # The reference fires 98,280 times here.  Sharing equal states
        # brought that to 16,605, of which 16,380 were the root's 210 live
        # permutations times 78 sink combinations; weighing the sink arcs
        # instead of firing each combination leaves one fire per live
        # permutation.
        calls = {"fire": 0, "mutate_pool": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(search, "fire", counted("fire", fire))
        monkeypatch.setattr(
            search, "mutate_pool", counted("mutate_pool", engine.mutate_pool)
        )
        digraph = orient(family("friendship:3,2"), 0)
        plan = AllocationPlan(((0, 4),), Policy.SMALLEST)
        assert len(ratio_set(digraph, Mode.BLEND, plan, NO_CAP)) == 42
        assert calls == {"fire": 435, "mutate_pool": 226}

    def test_cyclic_orientation_is_named(self):
        g = family("cycle:3")
        cyclic = [c for c in range(1 << g.m) if not orient(g, c).is_acyclic()]
        assert cyclic
        for code in cyclic:
            for mode in (Mode.BRUSH, Mode.BLEND):
                with pytest.raises(ValueError, match="has a directed cycle"):
                    ratio_set(orient(g, code), mode, source_plan(2))

    def test_time_budget_refusal(self):
        # about 0.4 s of work, with the deadline checked every 256 ticks
        digraph = orient(family("friendship:3,3"), 0)
        plan = AllocationPlan(((0, 4),), Policy.SMALLEST)
        tight = SearchLimits(max_edges=30, time_budget=1e-3)
        with pytest.raises(LimitError, match="time budget exceeded"):
            ratio_set(digraph, Mode.BLEND, plan, tight)


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
        res = best_index_for_orientation(d, Mode.BLEND)
        assert res.cost == t.bit_length()
        assert res.orientations_searched == 1

    def test_out_star_fsg_needs_one_primary_per_arc(self):
        d = identity_orientation(family("star:6"))
        assert best_index_for_orientation(d, Mode.FSG).cost == 6

    def test_directed_path_any_mode_costs_one(self):
        d = identity_orientation(family("path:5"))
        for mode in Mode:
            assert best_index_for_orientation(d, mode).cost == 1

    def test_cycle_as_two_directed_paths(self):
        d = identity_orientation(family("cycle:7"))
        assert best_index_for_orientation(d, Mode.BLEND).cost == 2

    def test_cyclic_orientation_rejected(self):
        g = family("cycle:3")
        cyclic = Digraph(g, ((0, 1), (2, 0), (1, 2)))
        with pytest.raises(ValueError):
            best_index_for_orientation(cyclic, Mode.BLEND)

    def test_brush_orientation_cost_is_deficit_sum(self):
        d = identity_orientation(family("star:5"))
        assert best_index_for_orientation(d, Mode.BRUSH).cost == 5


class TestOneSearchPath:
    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_best_index_is_the_least_fixed_optimum(self, mode, policy):
        # least cost, then least label sum, over the fixed optima of every
        # acyclic orientation; the witness's orientation attains it
        for g in connected_graph_corpus(4):
            report = best_index(g, mode, policy)
            fixed = [
                best_index_for_orientation(orient(g, code), mode, policy)
                for code in collect_acyclic_orientation_bits(g)
            ]
            best = (report.cost, report.label_sum)
            assert best == min((r.cost, r.label_sum) for r in fixed)
            at_witness = best_index_for_orientation(
                orient(g, report.witness.orientation), mode, policy
            )
            assert (at_witness.cost, at_witness.label_sum) == best

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
        for g in connected_graph_corpus(5):
            r = best_index(g, mode, Policy.FRESH)
            o = oracle_invariants(g, mode, Policy.FRESH)
            assert (r.cost, r.label_sum) == (o.cost, o.label_sum)
            assert r.orientations_searched == o.orientations

    @staticmethod
    def agree(g: Graph, mode: Mode, policy: Policy) -> None:
        r = best_index(g, mode, policy)
        o = oracle_invariants(g, mode, policy)
        assert (r.cost, r.label_sum, r.orientations_searched) == (
            o.cost,
            o.label_sum,
            o.orientations,
        ), (g.edges, mode, policy)

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("mode", MODES)
    def test_six_edge_graphs_agree(self, mode, policy):
        for g in connected_graph_corpus(6):
            if g.m == 6:
                self.agree(g, mode, policy)

    def test_seven_edge_graphs_agree(self):
        # one (mode, policy) pair per graph, taken in turn by index
        pairs = [(m, p) for m in (Mode.FSG, Mode.BLEND) for p in Policy]
        sevens = [g for g in connected_graph_corpus(7) if g.m == 7]
        assert len(sevens) == 79
        for i, g in enumerate(sevens):
            self.agree(g, *pairs[i % len(pairs)])


def _prefix_floor(monkeypatch) -> None:
    """Empty every orientation's closing table, so that the search
    charges each vertex still to fire ``prefix[out-degree]`` until it
    fires: the label-sum floor before closed vertices were charged the
    best pool they can reach."""
    build = search._Orientation.__init__

    def build_open(self, *args):
        build(self, *args)
        self.closing = [[] for _ in self.closing]

    monkeypatch.setattr(search._Orientation, "__init__", build_open)


def _serial(graph: Graph, mode: Mode, policy: Policy):
    """The report of a serial search and the ticks it took."""
    searcher = search._Searcher(graph, mode, policy, NO_CAP)
    return searcher.run(), searcher.clock.ticks


class TestPoolFloor:
    """A closed vertex's share of the label-sum floor is the least weight
    of its out-degree distinct sets in the best pool it can still reach."""

    def test_reports_equal_the_prefix_floor(self, monkeypatch):
        graphs = [
            *connected_graph_corpus(6),
            *(family(spec) for spec in GOLDEN_FAMILIES),
        ]
        cases = [
            (g, mode, policy)
            for g in graphs
            for mode in (Mode.FSG, Mode.BLEND)
            for policy in Policy
        ]
        pool = [_serial(*case) for case in cases]
        _prefix_floor(monkeypatch)
        prefix = [_serial(*case) for case in cases]
        # the same reports, witnesses included, in fewer ticks
        assert [r for r, _ in pool] == [r for r, _ in prefix]
        assert sum(t for _, t in pool) < sum(t for _, t in prefix)

    @pytest.mark.parametrize(
        "spec,policy,optimum,prefix_ticks",
        # optimum: cost, label sum and witness orientation; prefix_ticks:
        # the ticks of the same search with the prefix floor
        [
            ("joost:4,6", Policy.SMALLEST, (3, 42, 14080), 100_656),
            ("joost:4,5", Policy.FRESH, (3, 31, 3075), 181_753),
        ],
    )
    def test_under_half_the_prefix_floor_ticks(
        self, spec, policy, optimum, prefix_ticks
    ):
        report, ticks = _serial(family(spec), Mode.BLEND, policy)
        assert (
            report.cost,
            report.label_sum,
            report.witness.orientation,
        ) == optimum
        assert ticks < prefix_ticks / 2

    def test_closed_vertex_without_a_pool_is_cut(self, monkeypatch):
        # The firing order is 0, 1, 2, 4, and the cost bound is 2, all
        # spent by vertex 0.  Its first assignment sends {1} to 1, {2} to
        # 2 and {1,2} to 4, and 1 passes {1} on to 4.  Vertex 4 then
        # closes with the two sets {1} and {1,2} for its three out-arcs,
        # and the cut skips vertex 2's firing.  The cost bound cannot see
        # it: two distinct colours arrived for the two primaries vertex 4
        # needs.
        g = Graph(
            8,
            ((0, 1), (0, 2), (0, 4), (1, 4), (2, 3), (4, 5), (4, 6), (4, 7)),
        )

        class Unset(dict):
            """An incumbent that is never set, so that no cut against it
            fires."""

            def update(self, **_):
                pass

        def ticks_without_incumbent() -> int:
            searcher = search._Searcher(g, Mode.BLEND, Policy.SMALLEST, NO_CAP)
            searcher._probe(0, 2, Unset(S=math.inf))
            return searcher.clock.ticks

        pool = search._Searcher(g, Mode.BLEND, Policy.SMALLEST, NO_CAP)
        assert pool._bound(0) == 2
        report = pool.run_fixed(0)
        assert (report.cost, report.label_sum) == (2, 16)
        cut = ticks_without_incumbent()
        _prefix_floor(monkeypatch)
        prefix = search._Searcher(g, Mode.BLEND, Policy.SMALLEST, NO_CAP)
        assert prefix.run_fixed(0) == report
        assert cut < ticks_without_incumbent()


def _seeded_probe(graph, mode, policy, code, budget, seed):
    """The ``best`` record one orientation's probe leaves, started from
    the incumbent ``seed``, and the ticks it took."""
    searcher = search._Searcher(graph, mode, policy, NO_CAP)
    best = {"S": seed, "code": None, "events": None, "plan": None}
    searcher._probe(code, budget, best)
    return best, searcher.clock.ticks


class TestSeededIncumbent:
    """An incumbent preset above the least label sum keeps the witness,
    the premise of seeding the FRESH search with a first dive."""

    @pytest.mark.parametrize("mode", [Mode.FSG, Mode.BLEND])
    @pytest.mark.parametrize("policy", list(Policy))
    def test_seed_above_the_optimum_keeps_the_witness(self, mode, policy):
        for g in connected_graph_corpus(6):
            report = best_index(g, mode, policy, NO_CAP)
            code, least = report.witness.orientation, report.label_sum
            (free, free_ticks), (above, above_ticks), (at, at_ticks) = (
                _seeded_probe(g, mode, policy, code, report.cost, seed)
                for seed in (math.inf, least + 1, least)
            )
            assert (free["S"], free["code"]) == (least, code), g
            assert above == free, g
            # a seed at the optimum leaves nothing to improve on
            assert at == dict(S=least, code=None, events=None, plan=None)
            assert at_ticks <= above_ticks <= free_ticks, g


class TestNoClosureOutlivesItsCall:
    """The search's closures that call themselves unbind themselves as
    their call ends, so a search frees its searcher, and each firing its
    colour state, without waiting for the cyclic collector."""

    @pytest.mark.parametrize(
        "spec,mode,policy",
        [
            ("cycle:5", Mode.BLEND, Policy.SMALLEST),
            ("joost:4,4", Mode.BLEND, Policy.FRESH),
            ("friendship:3,3", Mode.FSG, Policy.SMALLEST),
        ],
    )
    def test_searcher_is_freed_after_its_run(self, spec, mode, policy):
        searcher = search._Searcher(family(spec), mode, policy, NO_CAP)
        gc.collect()
        gc.disable()
        try:
            searcher.run()
            ref = weakref.ref(searcher)
            del searcher
            assert ref() is None
        finally:
            gc.enable()

    @staticmethod
    def closures_left(call) -> list[str]:
        """The search module's closures still alive after ``call``, with
        the cyclic collector off."""
        gc.collect()
        gc.disable()
        try:
            call()
            return [
                f.__qualname__
                for f in gc.get_objects()
                if isinstance(f, FunctionType)
                and f.__code__.co_filename == search.__file__
                and "<locals>" in f.__qualname__
            ]
        finally:
            gc.enable()

    def test_no_closure_is_left_after_a_probe(self):
        searcher = search._Searcher(
            family("joost:4,6"), Mode.BLEND, Policy.SMALLEST, NO_CAP
        )
        best = {"S": math.inf, "code": None, "events": None, "plan": None}
        assert self.closures_left(lambda: searcher._probe(14080, 3, best)) == []
        assert best["S"] == 42

    def test_no_closure_is_left_after_a_ratio_set(self):
        d = orient(family("cycle:4"), 0)
        got = []
        left = self.closures_left(
            lambda: got.append(ratio_set(d, Mode.BLEND, source_plan(3)))
        )
        assert left == []
        assert got[0]


class TestEnumArguments:
    """A mode or policy given as its string value is refused: the search,
    the engine and the oracle branch on ``is``, so a string would mix
    the rules of two members, and the replay would mix them the same
    way."""

    @pytest.mark.parametrize(
        "name,call",
        [
            pytest.param(
                "mode",
                lambda: best_index(family("star:4"), "blend"),
                id="best_index-mode",
            ),
            pytest.param(
                "policy",
                lambda: best_index(family("friendship:3,3"), Mode.FSG, "fresh"),
                id="best_index-policy",
            ),
            pytest.param(
                "policy",
                lambda: best_index_for_orientation(
                    identity_orientation(family("star:4")), Mode.BLEND, "fresh"
                ),
                id="best_index_for_orientation",
            ),
            pytest.param(
                "mode",
                lambda: ratio_set(
                    orient(family("cycle:5"), 0), "fsg", source_plan(2)
                ),
                id="ratio_set",
            ),
            pytest.param(
                "mode",
                lambda: initial_state(
                    identity_orientation(family("star:4")),
                    "blend",
                    source_plan(2),
                ),
                id="initial_state",
            ),
            pytest.param(
                "mode",
                lambda: replay(
                    family("star:4"),
                    "blend",
                    best_index(family("star:4"), Mode.BLEND).witness,
                ),
                id="replay",
            ),
            pytest.param(
                "policy",
                lambda: AllocationPlan(((0, 1),), "fresh"),
                id="AllocationPlan",
            ),
            pytest.param(
                "policy",
                lambda: Witness(0, "fresh", ((0, 1),), ()),
                id="Witness",
            ),
            pytest.param(
                "mode",
                lambda: oracle_invariants(family("star:4"), "blend"),
                id="oracle_invariants-mode",
            ),
            pytest.param(
                "policy",
                lambda: oracle_invariants(family("star:4"), Mode.FSG, "fresh"),
                id="oracle_invariants-policy",
            ),
            # btau is defined in FSG, not in the default BLEND
            pytest.param(
                "quantity",
                lambda: quantity_mode("btau"),
                id="quantity_mode-quantity",
            ),
            # a string read as a ratio quantity gives 5/6, not the cost 2
            pytest.param(
                "quantity",
                lambda: quantity_value(
                    "tau", best_index(family("cycle:5"), Mode.BLEND)
                ),
                id="quantity_value",
            ),
            # not a contradiction: the string is not Mode.BLEND
            pytest.param(
                "mode",
                lambda: quantity_mode(Quantity.TAU, "blend"),
                id="quantity_mode-implied-mode",
            ),
            # not passed on to the search as it is
            pytest.param(
                "mode",
                lambda: quantity_mode(Quantity.INDEX, "fsg"),
                id="quantity_mode-mode",
            ),
        ],
    )
    def test_string_value_is_refused(self, name, call):
        with pytest.raises(TypeError, match=f"^{name} must be a "):
            call()


class TestColourRulesFromTheEngine:
    def test_search_takes_the_pool_order_and_grant_from_the_engine(self):
        """The pool, its order and the grant are stated once, in the
        engine; only the oracle keeps copies of its own."""
        for name in ("_sort_key", "_grant_mask", "_pool_masks"):
            assert getattr(search, name) is getattr(engine, name), name
        assert not hasattr(search, "_submasks")


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


def quantity(g: Graph, q: Quantity, mode: Mode | None = None):
    """One quantity of a graph: its value in the report of its mode."""
    return quantity_value(q, best_index(g, quantity_mode(q, mode)))


class TestInvariantDispatch:
    def test_quantities_imply_modes(self):
        assert quantity_mode(Quantity.BR) is Mode.BRUSH
        assert quantity_mode(Quantity.BTAU) is Mode.FSG
        assert quantity_mode(Quantity.TAU) is Mode.BLEND
        assert quantity_mode(Quantity.TAU, Mode.BLEND) is Mode.BLEND

    def test_conflicting_mode_rejected(self):
        with pytest.raises(ValueError):
            quantity_mode(Quantity.BTAU, Mode.BLEND)

    def test_ratio_quantities_default_to_blend(self):
        assert quantity_mode(Quantity.INDEX) is Mode.BLEND
        assert quantity_mode(Quantity.INDEX, Mode.FSG) is Mode.FSG
        g = family("cycle:5")
        assert quantity(g, Quantity.INDEX) == Fraction(5, 12)
        assert quantity(g, Quantity.RAW_RATIO) == Fraction(5, 6)

    def test_label_sum_quantity(self):
        assert quantity(family("cycle:5"), Quantity.MIN_LABEL_SUM) == 6

    def test_values_consistent_with_best_index(self):
        g = family("friendship:3,2")
        r = best_index(g, Mode.FSG)
        assert quantity(g, Quantity.BTAU) == r.cost
        assert quantity(g, Quantity.MIN_LABEL_SUM, Mode.FSG) == r.label_sum

    @pytest.mark.parametrize("solve", [best_index, oracle_invariants])
    def test_edgeless_graph_refused(self, solve):
        with pytest.raises(ValueError, match="needs at least one edge"):
            solve(Graph(1, ()), Mode.BLEND)


class TestReportIsReplayedOutcome:
    @pytest.mark.parametrize("spec", ["cycle:5", "friendship:3,2"])
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("answer", sorted(ANSWERS))
    def test_report_equals_its_replay(self, answer, mode, spec):
        g = family(spec)
        r = ANSWERS[answer](g, mode)
        assert isinstance(r, Outcome)
        run = {f.name: getattr(r, f.name) for f in dataclasses.fields(Outcome)}
        assert replay(g, r.mode, r.witness) == Outcome(**run)


class TestLowerBounds:
    """The listing pruned by the cost bound against the full listing
    filtered by a direct count per orientation."""

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
    def test_pruned_listing_matches_direct_bound(self, mode):
        graphs = [
            *connected_graph_corpus(5),
            *map(family, ("joost:3,3", "friendship:3,3", "wheel:5", "star:6")),
        ]
        for graph in graphs:
            searcher = search._Searcher(graph, mode, Policy.SMALLEST, NO_CAP)
            bounds = searcher.bounds
            codes = collect_acyclic_orientation_bits(graph)
            want = {code: self.direct(graph, code, mode) for code in codes}
            least = min(want.values())
            # no limit, which lists the least level, then every limit from
            # the bound of the empty orientation up to the largest bound
            limits = range(sum(s[0] for s in bounds), max(want.values()) + 1)
            for limit in [None, *limits]:
                c = least if limit is None else limit
                beyond: list[int] = []
                listed = collect_acyclic_orientation_bits(
                    graph, bounds=bounds, limit=limit, beyond=beyond
                )
                assert list(listed) == [x for x in codes if want[x] <= c]
                rest = [b for b in want.values() if b > c]
                assert beyond == ([min(rest)] if rest else [])

    @staticmethod
    def record_limits(monkeypatch) -> list:
        """Record the ``limit`` of every listing the search makes."""
        limits = []
        real = search.collect_acyclic_orientation_bits

        def listing(*args, **kwargs):
            limits.append(kwargs.get("limit"))
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "collect_acyclic_orientation_bits", listing)
        return limits

    def test_brush_lists_only_the_least_level(self, monkeypatch):
        limits = self.record_limits(monkeypatch)
        best_index(family("joost:4,6"), Mode.BRUSH, limits=NO_CAP)
        assert limits == [None]

    @pytest.mark.parametrize("mode", [Mode.FSG, Mode.BLEND])
    def test_each_listing_once(self, monkeypatch, mode):
        # the first listing is the least level, and no later limit is
        # listed twice or lies past the answer's cost
        limits = self.record_limits(monkeypatch)
        graph = family("friendship:3,4")
        report = best_index(graph, mode, limits=NO_CAP)
        assert limits[0] is None
        assert limits[1:] == sorted(set(limits[1:]))
        assert all(c <= report.cost for c in limits[1:])


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
        # the loop yields only representatives, so every code of a level
        # is listed here and compared with the reference; the optimum
        # comes from a copy of the graph, so the searcher labels alone
        searcher = search._Searcher(graph, mode, Policy.SMALLEST, NO_CAP)
        reference = _ReferenceClasses(graph)
        last = best_index(Graph(graph.n, graph.edges), mode, limits=NO_CAP).cost
        for c, reps in searcher._levels():
            if c > last:
                break
            under = collect_acyclic_orientation_bits(
                graph, bounds=searcher.bounds, limit=c
            )
            got = {code: searcher._rep_for(code) for code in under}
            assert got == {code: reference._rep_for(code) for code in under}
            assert reps == [code for code in under if got[code] == code]

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

    def test_fixed_orientation_labels_nothing(self, monkeypatch):
        # a lone orientation is searched as it is, with no class to find
        hashed = self.count_hashes(monkeypatch)
        graph = family("friendship:3,3")
        searcher = search._Searcher(graph, Mode.FSG, Policy.SMALLEST, NO_CAP)
        searcher.run_fixed(collect_acyclic_orientation_bits(graph)[-1])
        assert searcher.space.iso_rep == {}
        assert hashed == []

    def test_brush_hashes_nothing(self, monkeypatch):
        # BRUSH takes the least code of the least level, its own class's
        hashed = self.count_hashes(monkeypatch)
        best_index(family("joost:4,6"), Mode.BRUSH, limits=NO_CAP)
        assert hashed == []

    def test_every_orbit_label_ticks(self, monkeypatch):
        # each code is labelled by its own hash or as an image, with a tick
        hashed = self.count_hashes(monkeypatch)
        graph = family("friendship:3,4")
        searcher = search._Searcher(graph, Mode.FSG, Policy.SMALLEST, NO_CAP)
        codes = collect_acyclic_orientation_bits(graph)
        for code in codes:
            searcher._rep_for(code)
        assert len(searcher.space.iso_rep) == len(codes)
        assert searcher.clock.ticks == len(codes) - len(hashed) > 0

    def test_tracer_hook_points(self, monkeypatch):
        # perfbench's tracer times class reduction by swapping the module
        # globals ``nx`` and ``DiGraphMatcher`` for wrappers, as done here;
        # the wrappers see the graph's first search, as a later search of
        # the same graph object reuses its orbit labels
        graph = family("friendship:3,3")
        expected = best_index(family("friendship:3,3"), Mode.FSG, limits=NO_CAP)
        hashes, tests = [], []

        class CountingNetworkx:
            def __init__(self, module):
                self._module = module

            def weisfeiler_lehman_graph_hash(self, G):
                hashes.append(G)
                return self._module.weisfeiler_lehman_graph_hash(G)

            def __getattr__(self, name):
                return getattr(self._module, name)

        class CountingMatcher(search.DiGraphMatcher):
            def __init__(self, G1, G2):
                super().__init__(G1, G2)

            def is_isomorphic(self):
                tests.append(self)
                return super().is_isomorphic()

        monkeypatch.setattr(search, "nx", CountingNetworkx(search.nx))
        monkeypatch.setattr(search, "DiGraphMatcher", CountingMatcher)
        assert best_index(graph, Mode.FSG, limits=NO_CAP) == expected
        assert len(hashes) > 0
        assert len(tests) > 0
        hashes.clear()
        tests.clear()
        assert best_index(graph, Mode.FSG, limits=NO_CAP) == expected
        assert hashes == tests == []

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


class TestOrientationSpace:
    """Every search of one graph object shares its orientation space:
    a(G), the listings and the orbit labels."""

    @staticmethod
    def copy(graph: Graph) -> Graph:
        """An equal graph object, with a space of its own."""
        return Graph(graph.n, graph.edges)

    def test_reports_do_not_depend_on_the_searches_before(self):
        pairs = [(mode, policy) for mode in Mode for policy in Policy]
        for g in connected_graph_corpus(6):
            # a new graph object per call: an empty space every time
            alone = {p: best_index(self.copy(g), *p, NO_CAP) for p in pairs}
            forward, backward = self.copy(g), self.copy(g)
            assert {p: best_index(forward, *p, NO_CAP) for p in pairs} == alone
            assert {
                p: best_index(backward, *p, NO_CAP) for p in reversed(pairs)
            } == alone

    @staticmethod
    def record_listings(monkeypatch) -> list:
        """The limit of every listing the search makes."""
        limits = []
        real = search.collect_acyclic_orientation_bits

        def listing(*args, **kwargs):
            limits.append(kwargs["limit"])
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "collect_acyclic_orientation_bits", listing)
        return limits

    def test_brush_and_fsg_share_their_listings(self, monkeypatch):
        limits = self.record_listings(monkeypatch)
        graph = family("friendship:3,5")
        best_index(graph, Mode.BRUSH, limits=NO_CAP)
        assert limits == [None]
        best_index(graph, Mode.FSG, limits=NO_CAP)
        best_index(graph, Mode.FSG, Policy.FRESH, limits=NO_CAP)
        # FSG lists only the levels above the least; BLEND has its own
        # bound table, so its least level is listed again
        assert limits.count(None) == 1 and len(limits) > 1
        best_index(graph, Mode.BLEND, limits=NO_CAP)
        assert limits.count(None) == 2

    def test_a_search_stopped_inside_a_listing_stores_none_of_it(
        self, monkeypatch
    ):
        # friendship:3,4 fsg lists its least level (96 codes), then the
        # codes of bound at most 6 (800 codes, 8 deadline checks); the
        # deadline passes at the fourth check of that second listing
        now = [0.0]
        monkeypatch.setattr(
            search, "time", SimpleNamespace(monotonic=lambda: now[0])
        )
        limits = self.record_listings(monkeypatch)
        listing = search.collect_acyclic_orientation_bits
        checks = []

        def late_listing(graph, *, check, **kwargs):
            def late_check():
                if len(limits) == 2:
                    checks.append(None)
                    if len(checks) == 4:
                        now[0] = 1e9
                check()

            return listing(graph, check=late_check, **kwargs)

        monkeypatch.setattr(search, "collect_acyclic_orientation_bits", late_listing)
        graph = family("friendship:3,4")
        budget = SearchLimits(max_edges=30, time_budget=1.0)
        with pytest.raises(LimitError):
            best_index(graph, Mode.FSG, limits=budget)
        assert limits == [None, 6] and len(checks) == 4
        assert [limit for _, limit in search._space_of(graph).listings] == [None]
        monkeypatch.undo()
        unshared = best_index(self.copy(graph), Mode.FSG, limits=NO_CAP)
        assert best_index(graph, Mode.FSG, limits=NO_CAP) == unshared

    def test_space_is_freed_with_its_graph(self):
        graph = family("friendship:3,3")
        report = best_index(graph, Mode.FSG, limits=NO_CAP)
        space = weakref.ref(search._space_of(graph))
        assert space().listings and space().iso_rep
        key = id(graph)
        del graph, report
        gc.collect()
        assert space() is None
        assert key not in search._spaces


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

    def test_time_budget_covers_children_cut_on_closing(self):
        # under FRESH, friendship:3,5 blend spends seconds on children
        # that the floor of a closed vertex cuts before recursing; each
        # ticks, so the deadline is checked among them too
        tight = SearchLimits(max_edges=30, time_budget=0.2)
        start = time.monotonic()
        with pytest.raises(LimitError):
            best_index(
                family("friendship:3,5"), Mode.BLEND, Policy.FRESH, tight
            )
        assert time.monotonic() - start < 5

    def test_time_budget_covers_orientation_listing(self, monkeypatch):
        # the clock passes the deadline at its third reading: the first
        # sets the deadline, the second comes at the first node of the
        # count pass, the third at the first node of the first listing
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

    @staticmethod
    def expire_at_third_reading(monkeypatch) -> None:
        """The first reading sets the deadline, the second finds time
        left, every later one finds it passed."""
        readings = iter([0.0, 0.0])
        monkeypatch.setattr(
            search,
            "time",
            SimpleNamespace(monotonic=lambda: next(readings, 1e9)),
        )

    def test_time_budget_covers_count_pass(self, monkeypatch):
        # the count reads the clock at its first scan node and at its
        # 257th, of the nearly 3,000 it takes on joost:4,6
        self.expire_at_third_reading(monkeypatch)

        def listing(*args, **kwargs):
            raise AssertionError("listed before the count ended")

        monkeypatch.setattr(search, "collect_acyclic_orientation_bits", listing)
        budget = SearchLimits(max_edges=30, time_budget=1.0)
        with pytest.raises(LimitError) as raised:
            best_index(family("joost:4,6"), Mode.BLEND, limits=budget)
        assert any(
            e.name == "count_acyclic_orientations" for e in raised.traceback
        )

    def test_time_budget_covers_first_scan(self, monkeypatch):
        # the first scan, which lists the least level, reads the clock
        # at its first node and at its 257th, which passes the deadline
        graph = family("joost:4,6")
        self.expire_at_third_reading(monkeypatch)
        real_count = search.count_acyclic_orientations
        monkeypatch.setattr(
            search,
            "count_acyclic_orientations",
            lambda graph, check=None: real_count(graph),
        )
        limits = TestLowerBounds.record_limits(monkeypatch)
        budget = SearchLimits(max_edges=30, time_budget=1.0)
        with pytest.raises(LimitError) as raised:
            best_index(graph, Mode.BRUSH, limits=budget)
        assert limits == [None]
        assert any(
            e.name == "collect_acyclic_orientation_bits"
            for e in raised.traceback
        )

    def test_workers_keep_the_deadline(self, monkeypatch):
        # the deadline has passed when the pool forks, so the workers
        # stop: the least level of joost:4,6 blend has about 10
        # representatives, so a pool starts there
        real = search._Searcher._start_pool

        def expired(self, size):
            self.clock.deadline = time.monotonic() - 1.0
            return real(self, size)

        monkeypatch.setattr(search._Searcher, "_start_pool", expired)
        with pytest.raises(LimitError) as raised:
            best_index(
                family("joost:4,6"), Mode.BLEND, limits=NO_CAP, workers=2
            )
        assert isinstance(
            raised.value.__cause__, multiprocessing.pool.RemoteTraceback
        )
        assert search._worker is None

    @pytest.mark.parametrize("limit", [0, -1])
    def test_edge_limit_must_be_positive(self, limit):
        with pytest.raises(ValueError, match="positive integer"):
            SearchLimits(max_edges=limit, time_budget=None)

    @pytest.mark.parametrize("limit", [True, 8.0, "8"])
    def test_edge_limit_must_be_an_int(self, limit):
        # a bool is no count: True used to pass and refuse a path:3
        # later with "limit is True"
        with pytest.raises(ValueError, match="edge limits are integers"):
            SearchLimits(max_edges=limit, time_budget=None)

    @pytest.mark.parametrize("raw", ["0", "-5"])
    def test_edge_limit_variable_must_be_positive(self, monkeypatch, raw):
        monkeypatch.setenv("TATTOO_MAX_EDGES", raw)
        with pytest.raises(ValueError, match=f"TATTOO_MAX_EDGES={raw!r}"):
            SearchLimits()

    @pytest.mark.parametrize(
        "budget", [0, -1, float("nan"), "5", "abc", True]
    )
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
