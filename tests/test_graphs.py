"""Graph construction, parsing, families, and orientation enumeration."""

from __future__ import annotations

import tracemalloc

import pytest

from tattooing.graphs import (
    DisconnectedGraphError,
    Digraph,
    DuplicateEdgeError,
    FamilyKind,
    FamilySpec,
    Graph,
    MalformedLineError,
    SelfLoopError,
    build_family,
    collect_acyclic_orientation_bits,
    count_acyclic_orientations,
    orient,
    parse_edge_list,
    parse_family_spec,
)
from tattooing.oracle import connected_graph_corpus


def family(text: str) -> Graph:
    return build_family(parse_family_spec(text))


class TestGraph:
    def test_canonical_edge_order(self):
        g = Graph(3, ((2, 1), (0, 2), (1, 0)))
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert g.m == 3

    def test_equality_ignores_input_order(self):
        assert Graph(3, ((1, 2), (0, 1))) == Graph(3, ((0, 1), (2, 1)))

    def test_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph(2, ((0, 0), (0, 1)))

    def test_duplicate_rejected_in_either_direction(self):
        with pytest.raises(DuplicateEdgeError):
            Graph(3, ((0, 1), (1, 0), (1, 2)))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            Graph(4, ((0, 1), (2, 3)))

    def test_isolated_vertex_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            Graph(3, ((0, 1),))

    def test_disconnected_check_memory_follows_edges(self):
        # the claimed vertex count alone must not size any structure
        tracemalloc.start()
        try:
            with pytest.raises(
                DisconnectedGraphError,
                match="vertex 2 is not connected to vertex 0",
            ):
                Graph(10**6, ((0, 1),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_no_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertex count must be positive"):
            Graph(0, ())

    def test_single_vertex_allowed(self):
        assert Graph(1, ()).m == 0

    @pytest.mark.parametrize(
        "n,edges,message",
        [
            (True, (), r"vertex counts are integers, got \[True\]"),
            (2.0, ((0, 1),), r"vertex counts are integers, got \[2.0\]"),
            (2, ((False, True),), r"edge ends are integers, got \[False, True\]"),
            (2, ((0, 1.0),), r"edge ends are integers, got \[0, 1.0\]"),
        ],
    )
    def test_non_integer_rejected(self, n, edges, message):
        # a bool is an int to Python, not a vertex
        with pytest.raises(ValueError, match=message):
            Graph(n, edges)

    def test_adjacency_and_degree(self):
        g = family("star:3")
        assert g.adjacency()[0] == (1, 2, 3)
        assert g.degree(0) == 3
        assert g.degree(2) == 1


class TestParseEdgeList:
    def test_basic(self):
        g = parse_edge_list("0 1\n1 2\n\n# comment\n2 0\n")
        assert g == family("cycle:3")

    def test_malformed_token_count(self):
        with pytest.raises(MalformedLineError):
            parse_edge_list("0 1 2\n")

    def test_malformed_non_integer(self):
        with pytest.raises(MalformedLineError):
            parse_edge_list("0 a\n")

    def test_malformed_negative(self):
        with pytest.raises(MalformedLineError):
            parse_edge_list("0 -1\n")

    def test_empty_input(self):
        with pytest.raises(MalformedLineError):
            parse_edge_list("# nothing\n")

    def test_loop(self):
        with pytest.raises(SelfLoopError):
            parse_edge_list("0 1\n1 1\n")

    def test_duplicate_reversed(self):
        with pytest.raises(DuplicateEdgeError):
            parse_edge_list("0 1\n1 0\n")

    def test_disconnected_by_gap(self):
        # vertex 2 never appears, so ids 0..3 do not form a connected graph
        with pytest.raises(DisconnectedGraphError):
            parse_edge_list("0 1\n1 3\n")


class TestFamilies:
    @pytest.mark.parametrize(
        "text,n,m",
        [
            ("cycle:3", 3, 3),
            ("cycle:8", 8, 8),
            ("path:2", 2, 1),
            ("path:5", 5, 4),
            ("star:1", 2, 1),
            ("star:6", 7, 6),
            ("wheel:3", 4, 6),
            ("wheel:4", 5, 8),
            ("friendship:3,1", 3, 3),
            ("friendship:3,6", 13, 18),
            ("friendship:4,2", 7, 8),
            ("genfriendship:3x2+4x1", 8, 10),
            ("genfriendship:5x1", 5, 5),
            ("joost:3,1", 3, 2),
            ("joost:4,7", 16, 21),
            ("joost:5,3", 11, 12),
        ],
    )
    def test_sizes(self, text, n, m):
        g = family(text)
        assert (g.n, g.m) == (n, m)
        # and from the spec alone, without building the graph
        spec = parse_family_spec(text)
        assert (spec.n, spec.m) == (n, m)

    def test_wheel_is_rim_plus_hub(self):
        w = family("wheel:4")
        assert w.degree(0) == 4
        assert all(w.degree(v) == 3 for v in range(1, 5))

    def test_friendship_hub_degree(self):
        g = family("friendship:3,6")
        assert g.degree(0) == 12
        assert all(g.degree(v) == 2 for v in range(1, 13))

    def test_joost_junction_degrees(self):
        g = family("joost:4,7")
        assert g.degree(0) == 7 and g.degree(1) == 7
        assert all(g.degree(v) == 2 for v in range(2, 16))

    def test_joost_two_paths_is_cycle(self):
        # joost:n,2 is a cycle of length 2(n-1) up to relabelling
        g = family("joost:5,2")
        assert g.n == 8 and g.m == 8
        assert all(g.degree(v) == 2 for v in range(8))

    def test_parse_roundtrip(self):
        for text in ["cycle:7", "friendship:3,6", "joost:4,7", "genfriendship:3x2+4x1"]:
            assert str(parse_family_spec(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "cycle:2",
            "path:1",
            "star:0",
            "wheel:2",
            "friendship:2,3",
            "friendship:3,0",
            "joost:2,2",
            "joost:3,0",
            "genfriendship:2x1",
            "genfriendship:3x0",
        ],
    )
    def test_parameter_bounds(self, text):
        with pytest.raises(ValueError):
            parse_family_spec(text)

    @pytest.mark.parametrize("text", ["cycle", "cycle:", "blob:3", "cycle:x", "genfriendship:3"])
    def test_bad_syntax(self, text):
        with pytest.raises(ValueError):
            parse_family_spec(text)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            FamilySpec(FamilyKind.CYCLE, (3, 4))

    @pytest.mark.parametrize(
        "kind,params,blocks,message",
        [
            (FamilyKind.GENERAL_FRIENDSHIP, (), (), "at least one cycle block"),
            (FamilyKind.CYCLE, (3,), ((3, 1),), "does not take cycle blocks"),
        ],
    )
    def test_blocks_checked(self, kind, params, blocks, message):
        with pytest.raises(ValueError, match=message):
            FamilySpec(kind, params, blocks)

    @pytest.mark.parametrize(
        "kind,params,blocks",
        [
            # cycle:3.0 used to print, then fail to build with a TypeError
            (FamilyKind.CYCLE, (3.0,), ()),
            # star:True used to build star:1 and print star:True
            (FamilyKind.STAR, (True,), ()),
            (FamilyKind.FRIENDSHIP, (3, "2"), ()),
            (FamilyKind.GENERAL_FRIENDSHIP, (), ((3, 2.0),)),
            (FamilyKind.GENERAL_FRIENDSHIP, (), ((3, 1), (False, 2))),
        ],
    )
    def test_non_integer_parameters_refused(self, kind, params, blocks):
        with pytest.raises(ValueError, match="are integers"):
            FamilySpec(kind, params, blocks)


class TestDigraph:
    def test_arc_must_orient_its_edge(self):
        g = family("cycle:3")
        with pytest.raises(ValueError):
            Digraph(g, ((0, 1), (0, 2), (0, 2)))

    def test_arc_count_must_match_edge_count(self):
        g = family("cycle:3")
        with pytest.raises(ValueError, match="arc count does not match"):
            Digraph(g, ((0, 1), (0, 2)))

    def test_orient_roundtrip(self):
        g = family("cycle:4")
        for code in collect_acyclic_orientation_bits(g):
            assert orient(g, code).bits() == code

    def test_degrees_and_sources(self):
        g = family("path:3")
        d = orient(g, 0b10)  # 0->1, 2->1
        assert d.sources() == (0, 2)
        assert d.out_degree(0) == 1 and d.in_degree(1) == 2
        assert d.out_arcs(2) == (1,) and d.in_arcs(1) == (0, 1)

    def test_topological_order_prefers_small_ids(self):
        g = family("path:3")
        d = orient(g, 0b10)
        assert d.topological_order() == (0, 2, 1)

    def test_cyclic_orientation_detected(self):
        g = family("cycle:3")
        d = orient(g, 0b010)  # 0->1, 2->0, 1->2 is a directed triangle
        assert not d.is_acyclic()
        with pytest.raises(ValueError):
            d.topological_order()


class TestAcyclicEnumeration:
    @pytest.mark.parametrize(
        "text,count",
        [
            ("cycle:3", 6),
            ("cycle:4", 14),
            ("cycle:5", 30),
            ("path:2", 2),
            ("path:3", 4),
            ("path:5", 16),
            ("star:4", 16),
            ("friendship:3,2", 36),
            ("wheel:3", 24),  # K4: every acyclic orientation is a transitive tournament
        ],
    )
    def test_counts(self, text, count):
        g = family(text)
        assert len(collect_acyclic_orientation_bits(g)) == count

    def test_stream_ascending_and_acyclic(self):
        g = family("friendship:3,2")
        codes = list(collect_acyclic_orientation_bits(g))
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)
        for code in codes:
            assert orient(g, code).is_acyclic()

    def test_matches_exhaustive_filter(self):
        # independent reference: try all 2^m codes, keep the acyclic ones;
        # the edgeless Graph(1, ()) has one orientation, code 0
        texts = ["cycle:3", "cycle:4", "path:4", "star:3", "wheel:3"]
        graphs = [Graph(1, ()), *connected_graph_corpus(5)]
        for g in graphs + [family(t) for t in texts]:
            expect = [
                code for code in range(1 << g.m) if orient(g, code).is_acyclic()
            ]
            assert list(collect_acyclic_orientation_bits(g)) == expect

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        g = family("friendship:3,2")
        expect = []
        for code in range(1 << g.m):
            d = nx.DiGraph(orient(g, code).arcs)
            if nx.is_directed_acyclic_graph(d):
                expect.append(code)
        assert list(collect_acyclic_orientation_bits(g)) == expect

    def test_theta_graph_count_by_inclusion_exclusion(self):
        # seven parallel 3-edge paths: acyclic iff no fully-forward path
        # coexists with a fully-backward one, so 2*7^7 - 6^7 orientations
        g = family("joost:4,7")
        assert len(collect_acyclic_orientation_bits(g)) == 2 * 7**7 - 6**7


class TestAcyclicCount:
    """The memoised count against the listing, and on graphs too large
    to list in a test."""

    def test_matches_listing(self):
        texts = [
            "cycle:7", "path:5", "star:8", "wheel:6", "friendship:3,4",
            "genfriendship:3x2+4x1", "joost:3,3", "joost:4,5",
        ]
        graphs = [Graph(1, ()), *connected_graph_corpus(6)]
        for g in graphs + [family(t) for t in texts]:
            assert count_acyclic_orientations(g) == len(
                collect_acyclic_orientation_bits(g)
            )

    @pytest.mark.parametrize(
        "text,count",
        [
            ("joost:4,7", 2 * 7**7 - 6**7),  # 1,367,150
            ("joost:6,4", 1_037_042),
            ("star:20", 2**20),
        ],
    )
    def test_large_counts(self, text, count):
        assert count_acyclic_orientations(family(text)) == count
