"""Search reports pinned to a golden file, witnesses included.

Any change to the optimizer that is meant to keep its outputs must keep
every report here byte for byte: cost, label sum, ratio, index, the
witness run and the number of orientations searched.  The golden holds
no work counts (ticks), so a change that only makes the search faster
leaves it as it is.

Run ``PYTHONPATH=src python tests/test_search_golden.py`` to print the
reports of the current code in the golden's format.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tattooing.cli import _witness_doc
from tattooing.engine import Mode, Policy
from tattooing.graphs import Graph, build_family, parse_family_spec
from tattooing.oracle import connected_graph_corpus
from tattooing.search import IndexReport, SearchLimits, best_index

GOLDEN = Path(__file__).parent / "data" / "search" / "reports.json"
LIMITS = SearchLimits(max_edges=22, time_budget=None)
FAMILIES = (
    "cycle:7",
    "star:6",
    "wheel:6",
    "friendship:3,4",
    "genfriendship:3x2+4x1",
    "joost:3,4",
    "joost:4,4",
)


def _cases() -> list[tuple[str, Graph, Mode]]:
    cases = []
    for g in connected_graph_corpus(6):
        label = "corpus:" + "-".join(f"{u}{v}" for u, v in g.edges)
        cases += [(label, g, mode) for mode in Mode]
    for spec in FAMILIES:
        g = build_family(parse_family_spec(spec))
        cases += [(spec, g, mode) for mode in (Mode.FSG, Mode.BLEND)]
    return cases


def _report_doc(report: IndexReport) -> dict:
    return {
        "cost": report.cost,
        "label_sum": report.label_sum,
        "raw_ratio": str(report.raw_ratio),
        "index": str(report.index),
        "witness": _witness_doc(report.witness),
        "orientations_searched": report.orientations_searched,
    }


def reports() -> dict[str, dict]:
    """Every case's report, keyed by graph, mode and policy."""
    return {
        f"{label} {mode.value} {policy.value}": _report_doc(
            best_index(g, mode, policy, LIMITS)
        )
        for label, g, mode in _cases()
        for policy in Policy
    }


def dumps(docs: dict[str, dict]) -> str:
    """The golden's text: one report per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in docs.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = reports()
    assert list(got) == list(golden)
    wrong = [key for key in golden if got[key] != golden[key]]
    assert not wrong, f"{len(wrong)} reports differ, first {wrong[:3]}"


if __name__ == "__main__":
    sys.stdout.write(dumps(reports()))
