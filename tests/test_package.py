"""The public surface of the package, pinned name by name."""

from __future__ import annotations

import dataclasses

import tattooing

PUBLIC = [
    "AllocationPlan",
    "ColourSet",
    "Digraph",
    "DisconnectedGraphError",
    "DuplicateEdgeError",
    "EdgeListError",
    "EngineError",
    "FamilyFormulaResult",
    "FamilyKind",
    "FamilySpec",
    "FireEvent",
    "Graph",
    "IncompleteAssignmentError",
    "IndexReport",
    "InjectivityError",
    "LimitError",
    "MAX_ORACLE_EDGES",
    "MalformedLineError",
    "Mode",
    "NotReadyError",
    "OracleResult",
    "Outcome",
    "Policy",
    "ProcessState",
    "Quantity",
    "ReplayError",
    "SearchLimits",
    "SelfLoopError",
    "UnavailableColourSetError",
    "Witness",
    "best_index",
    "best_index_for_orientation",
    "build_family",
    "collect_acyclic_orientation_bits",
    "connected_graph_corpus",
    "count_acyclic_orientations",
    "cycle_tau",
    "fire",
    "fr3_formulas",
    "general_fr_formulas",
    "initial_state",
    "joost_formulas",
    "mutate_pool",
    "oracle_invariants",
    "orient",
    "parse_edge_list",
    "parse_family_spec",
    "quantity_mode",
    "quantity_value",
    "ratio_set",
    "ready_vertices",
    "replay",
    "required_primaries",
]


def test_all_is_the_pinned_sorted_list():
    # a name added to or removed from the package shows up here
    assert PUBLIC == sorted(set(PUBLIC))
    assert tattooing.__all__ == PUBLIC


def test_every_listed_name_resolves():
    missing = [name for name in tattooing.__all__ if not hasattr(tattooing, name)]
    assert missing == []


# the result records, field by field, in order
RECORDS = {
    "Outcome": ["mode", "cost", "label_sum", "raw_ratio", "index", "witness"],
    "IndexReport": [
        "mode", "cost", "label_sum", "raw_ratio", "index", "witness",
        "orientations_searched",
    ],
    "ProcessState": [
        "digraph", "mode", "policy", "arc_status", "primaries_present",
        "arrived_blends", "brush_tokens", "cost",
    ],
}


def test_result_records_have_the_pinned_fields():
    # a field added to, removed from or moved in a record shows up here
    fields = {
        name: [f.name for f in dataclasses.fields(getattr(tattooing, name))]
        for name in RECORDS
    }
    assert fields == RECORDS
