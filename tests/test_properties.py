"""Randomised invariants of the process engine and the optimizer.

Graphs stay small (at most five vertices, six edges) so every property
can afford a full two-stage search per example.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import combinations

import networkx as nx
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tattooing.engine import (
    AllocationPlan,
    ColourSet,
    FireEvent,
    Mode,
    Policy,
    fire,
    initial_state,
    mutate_pool,
    ready_vertices,
    replay,
)
from tattooing.graphs import (
    Digraph,
    Graph,
    collect_acyclic_orientation_bits,
    orient,
)
from tattooing.search import best_index, best_index_for_orientation

PROPERTY_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def connected_graphs(draw) -> Graph:
    """Random spanning tree plus a couple of extra edges."""
    n = draw(st.integers(min_value=2, max_value=5))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    spare = [
        (u, v)
        for u, v in combinations(range(n), 2)
        if (u, v) not in edges
    ]
    if spare:
        edges.update(
            draw(st.lists(st.sampled_from(spare), max_size=2, unique=True))
        )
    return Graph(n, tuple(edges))


@st.composite
def oriented_digraphs(draw) -> tuple[Graph, int]:
    graph = draw(connected_graphs())
    code = draw(st.sampled_from(collect_acyclic_orientation_bits(graph)))
    return graph, code


class TestGraphCanonicalisation:
    @PROPERTY_SETTINGS
    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_edge_order_and_direction_do_not_matter(self, graph, rng):
        scrambled = [
            (v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges
        ]
        rng.shuffle(scrambled)
        assert Graph(graph.n, tuple(scrambled)) == graph


class TestOrientationEnumeration:
    @PROPERTY_SETTINGS
    @given(connected_graphs())
    def test_codes_are_exactly_the_acyclic_ones(self, graph):
        listed = set(collect_acyclic_orientation_bits(graph))
        for code in range(1 << graph.m):
            d = nx.DiGraph(orient(graph, code).arcs)
            assert (code in listed) == nx.is_directed_acyclic_graph(d)

    @PROPERTY_SETTINGS
    @given(connected_graphs())
    def test_count_matches_chromatic_polynomial_at_minus_one(self, graph):
        # Stanley: acyclic orientations number (-1)^n P(-1)
        poly = nx.chromatic_polynomial(nx.Graph(graph.edges))
        expected = (-1) ** graph.n * poly.subs(sympy.Symbol("x"), -1)
        assert len(collect_acyclic_orientation_bits(graph)) == expected


def events_by_vertex(witness) -> dict[int, tuple]:
    return {event.vertex: event.assignment for event in witness.events}


class TestScheduleOrderIndependence:
    @PROPERTY_SETTINGS
    @given(oriented_digraphs(), st.data())
    def test_any_ready_order_reaches_the_same_outcome(self, oriented, data):
        graph, code = oriented
        digraph = orient(graph, code)
        witness = best_index_for_orientation(
            digraph, Mode.BLEND, Policy.SMALLEST
        ).witness
        assignments = events_by_vertex(witness)
        plan = AllocationPlan(witness.initial, witness.policy)

        state = initial_state(digraph, Mode.BLEND, plan)
        order = []
        while True:
            ready = ready_vertices(state)
            if not ready:
                break
            vertex = ready[data.draw(st.integers(0, len(ready) - 1))]
            state = fire(state, vertex, dict(assignments[vertex]))
            order.append(vertex)

        assert state.complete
        canonical = replay(graph, Mode.BLEND, witness)
        assert state.label_sum == canonical.label_sum
        assert state.cost == canonical.cost

        reordered = dataclasses.replace(
            witness, events=tuple(FireEvent(v, assignments[v]) for v in order)
        )
        rerun = replay(graph, Mode.BLEND, reordered)
        assert rerun.label_sum == canonical.label_sum
        assert rerun.cost == canonical.cost
        assert rerun.index == canonical.index


class TestPoolContract:
    @PROPERTY_SETTINGS
    @given(oriented_digraphs(), st.sampled_from([Mode.FSG, Mode.BLEND]))
    def test_pool_is_mutations_minus_used(self, oriented, mode):
        graph, code = oriented
        digraph = orient(graph, code)
        witness = best_index_for_orientation(
            digraph, mode, Policy.SMALLEST
        ).witness
        assignments = events_by_vertex(witness)
        state = initial_state(
            digraph, mode, AllocationPlan(witness.initial, witness.policy)
        )
        while True:
            ready = ready_vertices(state)
            if not ready:
                break
            vertex = ready[0]
            present = state.primaries_present[vertex]
            if mode is Mode.FSG:
                expected = {ColourSet((p,)) for p in present}
            else:
                expected = {
                    ColourSet(tuple(sorted(c)))
                    for size in range(1, len(present) + 1)
                    for c in combinations(sorted(present), size)
                }
                expected.update(state.arrived_blends[vertex])
            pool = list(mutate_pool(state, vertex))
            assert set(pool) == expected
            # by weight, then cardinality, then members
            assert pool == sorted(
                pool, key=lambda c: (sum(c.members), len(c.members), c.members)
            )
            state = fire(state, vertex, dict(assignments[vertex]))


class TestModeRestrictions:
    @PROPERTY_SETTINGS
    @given(connected_graphs())
    def test_singleton_only_runs_use_singletons(self, graph):
        report = best_index(graph, Mode.FSG)
        for event in report.witness.events:
            for _, colours in event.assignment:
                assert len(colours.members) == 1
                assert not colours.is_blend

    @PROPERTY_SETTINGS
    @given(connected_graphs())
    def test_blend_label_sum_is_conserved(self, graph):
        report = best_index(graph, Mode.BLEND)
        weights = [
            colours.weight
            for event in report.witness.events
            for _, colours in event.assignment
        ]
        assert all(w >= 1 for w in weights)
        assert sum(weights) == report.label_sum

    @PROPERTY_SETTINGS
    @given(connected_graphs())
    def test_token_runs_charge_one_per_edge(self, graph):
        report = best_index(graph, Mode.BRUSH)
        assert report.label_sum == graph.m
        assert report.raw_ratio == 1


class TestInvariantOrder:
    @PROPERTY_SETTINGS
    @given(connected_graphs())
    def test_blend_never_beats_singletons_never_beats_tokens(self, graph):
        br = best_index(graph, Mode.BRUSH).cost
        btau = best_index(graph, Mode.FSG).cost
        tau = best_index(graph, Mode.BLEND).cost
        assert 1 <= br <= btau
        assert tau <= btau

    @PROPERTY_SETTINGS
    @given(connected_graphs(), st.sampled_from(list(Mode)))
    def test_index_bounds(self, graph, mode):
        report = best_index(graph, mode)
        assert report.index == report.raw_ratio / report.cost
        assert 0 < report.index <= report.raw_ratio <= Fraction(1)


class TestSearchStability:
    @PROPERTY_SETTINGS
    @given(connected_graphs(), st.sampled_from(list(Mode)))
    def test_repeat_runs_are_identical(self, graph, mode):
        assert best_index(graph, mode) == best_index(graph, mode)

    @PROPERTY_SETTINGS
    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_vertex_relabelling_preserves_all_invariants(self, graph, rng):
        relabel = list(range(graph.n))
        rng.shuffle(relabel)
        mapped = Graph(
            graph.n,
            tuple((relabel[u], relabel[v]) for u, v in graph.edges),
        )
        for mode in (Mode.FSG, Mode.BLEND):
            a = best_index(graph, mode)
            b = best_index(mapped, mode)
            assert (a.cost, a.label_sum, a.index) == (
                b.cost,
                b.label_sum,
                b.index,
            )
