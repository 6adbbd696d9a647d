"""Firing rules, pools, policies, and schedule outcomes."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest

from tattooing import engine
from tattooing.engine import (
    AllocationPlan,
    ColourSet,
    FireEvent,
    IncompleteAssignmentError,
    InjectivityError,
    Mode,
    NotReadyError,
    Outcome,
    Policy,
    ReplayError,
    UnavailableColourSetError,
    Witness,
    fire,
    initial_state,
    mutate_pool,
    ready_vertices,
    replay,
    required_primaries,
)
from tattooing.graphs import Graph, build_family, orient, parse_family_spec


def family(text: str) -> Graph:
    return build_family(parse_family_spec(text))


def cs(*indices: int) -> ColourSet:
    return ColourSet(tuple(indices))


def smallest_plan(**counts: int) -> AllocationPlan:
    return AllocationPlan.from_counts(
        {int(k[1:]): c for k, c in counts.items()}, Policy.SMALLEST
    )


class TestColourSet:
    def test_normalisation(self):
        assert cs(3, 1, 3).members == (1, 3)

    def test_weight_and_blend_flag(self):
        assert cs(1, 4).weight == 5
        assert cs(1, 4).is_blend
        assert not cs(2).is_blend

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ColourSet(())

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            cs(0, 1)

    @pytest.mark.parametrize("member", [1.5, 2.0, True, "1"])
    def test_non_integer_rejected(self, member):
        # a bool is an int to Python, not a primary index
        with pytest.raises(ValueError, match="primary indices are integers"):
            ColourSet((1, member))

    def test_sort_key_orders_weight_then_size(self):
        pool = [cs(1, 2), cs(3), cs(2), cs(1)]
        pool.sort(key=ColourSet.sort_key)
        assert pool == [cs(1), cs(2), cs(3), cs(1, 2)]

    def test_mask_roundtrip(self):
        c = cs(1, 3, 4)
        assert c.mask() == 0b1101
        assert ColourSet.from_mask(0b1101) == c
        # every mask below 2^10; the empty mask is no colour set
        for m in range(1, 1 << 10):
            c = ColourSet.from_mask(m)
            assert c.mask() == m
            assert c.sort_key() == engine._sort_key(m)
        with pytest.raises(ValueError, match="non-empty"):
            ColourSet.from_mask(0)

    def test_str(self):
        assert str(cs(2, 5)) == "{2,5}"


class TestAllocationPlan:
    def test_sorted_and_total(self):
        plan = AllocationPlan(((3, 1), (0, 2)), Policy.SMALLEST)
        assert plan.initial == ((0, 2), (3, 1))
        assert plan.total == 3

    def test_from_counts_drops_zeroes(self):
        plan = AllocationPlan.from_counts({0: 2, 1: 0, 2: 1}, Policy.FRESH)
        assert plan.initial == ((0, 2), (2, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AllocationPlan((), Policy.SMALLEST)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            AllocationPlan(((0, -1),), Policy.SMALLEST)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError):
            AllocationPlan(((0, 1), (0, 2)), Policy.SMALLEST)

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="bad vertex -1"):
            AllocationPlan(((-1, 1),), Policy.SMALLEST)

    @pytest.mark.parametrize("pair", [(False, 2), (0, True), (0, 2.0)])
    def test_non_integer_rejected(self, pair):
        # a bool is an int to Python, not a vertex or a count
        with pytest.raises(ValueError, match="are integers, got"):
            AllocationPlan((pair,), Policy.SMALLEST)


class TestRequiredPrimaries:
    @pytest.mark.parametrize(
        "demand,need", [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4)]
    )
    def test_blend_uses_subsets(self, demand, need):
        assert required_primaries(demand, Mode.BLEND) == need

    @pytest.mark.parametrize("mode", [Mode.FSG, Mode.BRUSH])
    def test_other_modes_need_one_each(self, mode):
        for demand in range(6):
            assert required_primaries(demand, mode) == demand


class TestInitialState:
    def test_smallest_restarts_indices_per_vertex(self):
        d = orient(family("path:3"), 0b10)  # sources 0 and 2
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=2, v2=1))
        assert st.primaries_present[0] == (1, 2)
        assert st.primaries_present[2] == (1,)
        assert st.cost == 3

    def test_fresh_numbers_by_ascending_vertex(self):
        d = orient(family("path:3"), 0b10)
        plan = AllocationPlan.from_counts({0: 2, 2: 1}, Policy.FRESH)
        st = initial_state(d, Mode.BLEND, plan)
        assert st.primaries_present[0] == (1, 2)
        assert st.primaries_present[2] == (3,)
        assert st.cost == 3

    def test_brush_allocates_tokens(self):
        d = orient(family("path:3"), 0)
        st = initial_state(d, Mode.BRUSH, smallest_plan(v0=2))
        assert st.brush_tokens == (2, 0, 0)
        assert st.primaries_present == ((), (), ())

    def test_unknown_vertex_rejected(self):
        d = orient(family("path:3"), 0)
        with pytest.raises(ValueError):
            initial_state(d, Mode.BLEND, smallest_plan(v9=1))

    def test_edgeless_graph_rejected(self):
        from tattooing.graphs import Digraph

        d = Digraph(Graph(1, ()), ())
        with pytest.raises(ValueError):
            initial_state(d, Mode.BLEND, smallest_plan(v0=1))


class TestReadiness:
    def test_only_sources_ready_at_start(self):
        d = orient(family("cycle:3"), 0)  # 0->1, 0->2, 1->2
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=2))
        assert ready_vertices(st) == (0,)

    def test_sink_never_ready(self):
        d = orient(family("path:2"), 0)
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=1))
        st = fire(st, 0, ((0, cs(1)),))
        assert ready_vertices(st) == ()

    def test_fired_vertex_not_ready_again(self):
        d = orient(family("cycle:3"), 0)
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=2))
        st = fire(st, 0, ((0, cs(1)), (1, cs(2))))
        assert ready_vertices(st) == (1,)


class TestFireValidation:
    def setup_method(self):
        self.d = orient(family("cycle:3"), 0)  # arcs 0:0->1, 1:0->2, 2:1->2
        self.st = initial_state(self.d, Mode.BLEND, smallest_plan(v0=2))

    def test_not_ready_with_untattooed_in_arc(self):
        with pytest.raises(NotReadyError):
            fire(self.st, 1, ((2, cs(1)),))

    def test_not_ready_after_firing(self):
        st = fire(self.st, 0, ((0, cs(1)), (1, cs(2))))
        with pytest.raises(NotReadyError):
            fire(st, 0, ((0, cs(1)),))

    def test_missing_arc(self):
        with pytest.raises(IncompleteAssignmentError):
            fire(self.st, 0, ((0, cs(1)),))

    @pytest.mark.parametrize("mode", [Mode.FSG, Mode.BLEND])
    def test_no_assignment(self, mode):
        st = initial_state(self.d, mode, smallest_plan(v0=2))
        with pytest.raises(
            IncompleteAssignmentError, match=r"assignment covers \[\]$"
        ):
            fire(st, 0)

    def test_foreign_arc(self):
        with pytest.raises(IncompleteAssignmentError):
            fire(self.st, 0, ((0, cs(1)), (2, cs(2))))

    def test_repeated_arc(self):
        # the pairs sort by arc alone, so a tie never compares colour sets
        twice = ((0, cs(2)), (0, cs(1)))
        assert FireEvent(0, twice).assignment == twice
        with pytest.raises(
            IncompleteAssignmentError,
            match=r"must tattoo arcs \[0, 1\], assignment covers \[0, 0\]",
        ):
            fire(self.st, 0, twice)

    def test_duplicate_colour_set(self):
        with pytest.raises(InjectivityError):
            fire(self.st, 0, ((0, cs(1, 2)), (1, cs(2, 1))))

    def test_missing_primary_is_augmented(self):
        st = fire(self.st, 0, ((0, cs(1)), (1, cs(2))))
        # vertex 1 holds only primary 1; {2} is the smallest absent index,
        # so the policy grants it at a cost of one augmentation
        after = fire(st, 1, ((2, cs(2)),))
        assert after.cost == 3
        assert after.primaries_present[1] == (1, 2)

    def test_smallest_policy_pins_new_indices(self):
        st = fire(self.st, 0, ((0, cs(1)), (1, cs(2))))
        with pytest.raises(
            UnavailableColourSetError,
            match=r"names new primaries \[3\]; smallest policy grants \[2\]$",
        ):
            fire(st, 1, ((2, cs(3)),))  # smallest absent index is 2, not 3

    def test_fresh_policy_pins_new_indices(self):
        plan = AllocationPlan.from_counts({0: 2}, Policy.FRESH)
        st = initial_state(self.d, Mode.BLEND, plan)
        st = fire(st, 0, ((0, cs(1)), (1, cs(2))))
        with pytest.raises(
            UnavailableColourSetError,
            match=r"names new primaries \[2\]; fresh policy grants \[3\]$",
        ):
            fire(st, 1, ((2, cs(2)),))  # fresh grants 3, not a reused 2
        out = fire(st, 1, ((2, cs(3)),))
        assert out.cost == 3

    def test_far_primary_is_refused_in_little_memory(self):
        # the named primary is compared as a member, not as a mask as
        # wide as its index
        d = orient(family("cycle:5"), 0)
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=1))
        tracemalloc.start()
        try:
            with pytest.raises(
                UnavailableColourSetError,
                match=r"names new primaries \[67108864\]; smallest policy "
                r"grants \[2\]$",
            ):
                fire(st, 0, ((0, cs(1)), (1, cs(2**26))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_fsg_rejects_blends(self):
        st = initial_state(self.d, Mode.FSG, smallest_plan(v0=2))
        with pytest.raises(UnavailableColourSetError):
            fire(st, 0, ((0, cs(1, 2)), (1, cs(1))))

    def test_brush_rejects_assignment(self):
        st = initial_state(self.d, Mode.BRUSH, smallest_plan(v0=2))
        with pytest.raises(ValueError):
            fire(st, 0, ((0, cs(1)), (1, cs(2))))


class TestBlendSemantics:
    def test_arrived_blend_is_opaque(self):
        d = orient(family("path:3"), 0)  # 0->1->2
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=2))
        st = fire(st, 0, ((0, cs(1, 2)),))
        assert st.arrived_blends[1] == (cs(1, 2),)
        assert st.primaries_present[1] == ()
        # forwarding the blend is free; dispatching {1} instead costs an
        # augmentation because the blend's members never joined the vertex
        forwarded = fire(st, 1, ((1, cs(1, 2)),))
        assert forwarded.complete and forwarded.cost == 2
        unpacked = fire(st, 1, ((1, cs(1)),))
        assert unpacked.complete and unpacked.cost == 3

    def test_duplicate_singletons_merge(self):
        d = orient(family("cycle:4"), 0b1000)  # 0->1, 0->3, 1->2, 3->2
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=2))
        st = fire(st, 0, ((0, cs(1)), (1, cs(2))))
        st = fire(st, 1, ((2, cs(1)),))
        # vertex 3 holds {2}; augmenting grants index 1, so it can echo {1}
        st = fire(st, 3, ((3, cs(1)),))
        assert st.primaries_present[2] == (1,)
        assert st.cost == 3

    def test_duplicate_blends_merge(self):
        d = orient(family("cycle:4"), 0b1000)
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=2))
        st = fire(st, 0, ((0, cs(1, 2)), (1, cs(1))))
        st = fire(st, 1, ((2, cs(1, 2)),))  # forward the arrived blend
        st = fire(st, 3, ((3, cs(1, 2)),))  # blend of held 1 and augmented 2
        assert st.arrived_blends[2] == (cs(1, 2),)
        assert st.cost == 3

    def test_blend_of_fresh_primaries_allowed(self):
        d = orient(family("path:2"), 0)
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=1))
        # assignment names primary 2 as part of a blend; augmentation covers it
        st = fire(st, 0, ((0, cs(1, 2)),))
        assert st.cost == 2 and st.primaries_present[0] == (1, 2)

    def test_dispatch_does_not_consume_members(self):
        # one primary can appear in several distinct dispatched sets
        d = orient(family("star:2"), 0)
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=2))
        st = fire(st, 0, ((0, cs(1)), (1, cs(1, 2))))
        assert st.complete and st.label_sum == 4


class TestBrushSemantics:
    def test_tokens_flow_and_augment(self):
        d = orient(family("path:3"), 0)
        st = initial_state(d, Mode.BRUSH, smallest_plan(v0=1))
        st = fire(st, 0)
        assert st.brush_tokens == (0, 1, 0)
        st = fire(st, 1)
        assert st.complete and st.cost == 1

    def test_missing_tokens_augmented(self):
        d = orient(family("star:3"), 0)
        st = initial_state(d, Mode.BRUSH, smallest_plan(v0=1))
        st = fire(st, 0)
        assert st.cost == 3  # needed 3 tokens, had 1

    def test_leftover_tokens_stay(self):
        # 0->1, 2->1, 1 is a sink; give 1 a spare token that goes nowhere
        d = orient(family("path:3"), 0b10)
        st = initial_state(d, Mode.BRUSH, smallest_plan(v0=1, v2=1))
        st = fire(st, 0)
        st = fire(st, 2)
        assert st.complete
        assert st.brush_tokens == (0, 2, 0)
        assert st.label_sum == 2  # every tattooed arc counts one token


class TestReplay:
    TRIANGLE_EVENTS = (
        FireEvent(0, ((0, cs(1)), (1, cs(2)))),
        FireEvent(1, ((2, cs(1)),)),
    )

    def outcome(self) -> tuple[Graph, Outcome]:
        g = family("cycle:3")
        w = Witness(0, Policy.SMALLEST, ((0, 2),), self.TRIANGLE_EVENTS)
        return g, replay(g, Mode.BLEND, w)

    def test_non_integer_fields_rejected(self):
        # a bool is an int to Python, not a vertex, an arc or a code
        with pytest.raises(ValueError, match="fired vertices are integers"):
            FireEvent(True)
        with pytest.raises(ValueError, match=r"arcs are integers, got \[1, 0.0\]"):
            FireEvent(0, ((1, cs(2)), (0.0, cs(1))))
        with pytest.raises(ValueError, match="orientation codes are integers"):
            Witness(False, Policy.SMALLEST, ((0, 2),), self.TRIANGLE_EVENTS)

    def test_outcome_figures(self):
        _, out = self.outcome()
        assert out.mode is Mode.BLEND
        assert out.cost == 2
        assert out.label_sum == 4
        assert out.raw_ratio == Fraction(3, 4)
        assert out.index == Fraction(3, 8)
        assert out.witness.orientation == 0
        assert out.witness.initial == ((0, 2),)

    def test_witness_comes_back_normalised(self):
        # a code bit above the edges, an unsorted allocation and a list
        # of events: the outcome's witness trims, sorts and freezes them
        g = family("path:3")
        w = Witness(
            0b100,
            Policy.SMALLEST,
            ((2, 1), (0, 1)),
            [FireEvent(0, ((0, cs(1)),)), FireEvent(1, ((1, cs(1)),))],
        )
        out = replay(g, Mode.FSG, w)
        assert out.witness == Witness(
            0, Policy.SMALLEST, ((0, 1), (2, 1)), tuple(w.events)
        )

    def test_exhausted_schedule_raises(self):
        g = family("cycle:3")
        w = Witness(0, Policy.SMALLEST, ((0, 2),), ())
        with pytest.raises(ReplayError):
            replay(g, Mode.BLEND, w)

    def test_cyclic_orientation_stalls(self):
        # 0->1, 2->0, 1->2: no vertex is ever ready
        g = family("cycle:3")
        w = Witness(0b010, Policy.SMALLEST, ((0, 2),), ())
        with pytest.raises(ReplayError):
            replay(g, Mode.BLEND, w)

    def test_brush_schedule(self):
        g = family("path:4")
        w = Witness(
            0,
            Policy.SMALLEST,
            ((0, 1),),
            (FireEvent(0), FireEvent(1), FireEvent(2)),
        )
        out = replay(g, Mode.BRUSH, w)
        assert out.cost == 1
        assert out.index == Fraction(1)

    def test_replay_reproduces(self):
        g, out = self.outcome()
        assert replay(g, out.mode, out.witness) == out

    def test_replay_rejects_stalling_witness(self):
        g, out = self.outcome()
        import dataclasses

        cut = dataclasses.replace(out.witness, events=out.witness.events[:1])
        with pytest.raises(ReplayError):
            replay(g, out.mode, cut)


class TestMutatePool:
    def test_blend_pool_sorted(self):
        d = orient(family("cycle:3"), 0)
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=2))
        assert mutate_pool(st, 0) == (cs(1), cs(2), cs(1, 2))

    def test_fsg_pool_is_singletons(self):
        d = orient(family("cycle:3"), 0)
        st = initial_state(d, Mode.FSG, smallest_plan(v0=2))
        assert mutate_pool(st, 0) == (cs(1), cs(2))

    def test_brush_has_no_pool(self):
        d = orient(family("cycle:3"), 0)
        st = initial_state(d, Mode.BRUSH, smallest_plan(v0=2))
        with pytest.raises(ValueError):
            mutate_pool(st, 0)

    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_vertex_out_of_range_refused(self, vertex):
        # -1 used to give the pool of vertex 2, ({1},), and 3 an IndexError
        d = orient(family("path:3"), 0)
        st = initial_state(d, Mode.BLEND, smallest_plan(v0=2, v2=1))
        with pytest.raises(ValueError, match=f"^no vertex {vertex}$"):
            mutate_pool(st, vertex)
