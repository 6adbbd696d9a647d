"""Command-line surface: documents, suites, sweeps, and exit codes."""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tattooing import cli, search
from tattooing.cli import main
from tattooing.graphs import DisconnectedGraphError
from test_search_golden import GOLDEN as GOLDEN_REPORTS
from test_search_golden import _cases as golden_cases

JOOST_TAU_REFERENCE = (
    Path(__file__).parents[1] / "perfbench" / "reference" / "joost-tau.json"
)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCompute:
    def test_cycle_index_example(self, capsys):
        doc = run_json(
            capsys,
            "compute",
            "--family",
            "cycle:7",
            "--mode",
            "blend",
            "--quantity",
            "index",
            "--no-timing",
        )
        assert doc["value"] == "7/16"
        assert doc["cost"] == 2
        assert doc["label_sum"] == 16 // 2
        assert doc["orientations_searched"] == 2**7 - 2

    def test_path_brush_example(self, capsys):
        doc = run_json(
            capsys,
            "compute",
            "--family",
            "path:9",
            "--mode",
            "brush",
            "--quantity",
            "br",
            "--no-timing",
        )
        assert doc["value"] == 1

    def test_mode_inferred_from_quantity(self, capsys):
        doc = run_json(
            capsys, "compute", "--family", "cycle:4", "--quantity", "btau",
            "--no-timing",
        )
        assert doc["mode"] == "fsg"

    def test_conflicting_mode_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "compute",
            "--family",
            "cycle:4",
            "--quantity",
            "btau",
            "--mode",
            "blend",
        )
        assert code == 2
        assert "fsg" in err

    def test_timing_field_toggled(self, capsys):
        with_timing = run_json(
            capsys, "compute", "--family", "path:3", "--quantity", "tau"
        )
        assert "elapsed_ms" in with_timing
        without = run_json(
            capsys,
            "compute",
            "--family",
            "path:3",
            "--quantity",
            "tau",
            "--no-timing",
        )
        assert "elapsed_ms" not in without

    def test_edge_list_input(self, capsys, tmp_path):
        source = tmp_path / "graph.txt"
        source.write_text("0 1\n1 2\n2 3\n")
        doc = run_json(
            capsys,
            "compute",
            "--input",
            str(source),
            "--quantity",
            "tau",
            "--no-timing",
        )
        assert doc["value"] == 1
        assert doc["family"] is None

    def test_non_utf8_edge_list_is_named(self, capsys, tmp_path):
        source = tmp_path / "graph.txt"
        source.write_bytes(b"\xff\xfe")
        code, out, err = run(
            capsys, "compute", "--input", str(source), "--quantity", "tau"
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {source}: 'utf-8' codec")

    def test_missing_graph_exits_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--quantity", "tau")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("--family", "cycle:3", "--input", "F", "--quantity", "tau"),
                "give either --family or --input, not both",
            ),
            (
                ("--family", "cycle:3"),
                "--quantity is required (unless --replay is given)",
            ),
        ],
        ids=["family-and-input", "no-quantity"],
    )
    def test_graph_and_quantity_checked(self, capsys, argv, message):
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "quantity",
        [
            ("tau",),
            ("ratio-set", "--orientation", "0", "--allocate", "0:2"),
        ],
        ids=["tau", "ratio-set"],
    )
    def test_unknown_family_exits_2(self, capsys, quantity):
        code, out, err = run(
            capsys, "compute", "--family", "moebius:5", "--quantity", *quantity
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: unknown family 'moebius'; ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "quantity",
        [
            ("tau",),
            ("ratio-set", "--orientation", "0", "--allocate", "0:2"),
        ],
        ids=["tau", "ratio-set"],
    )
    def test_limit_refusal_exits_3(self, capsys, quantity):
        code, _, err = run(
            capsys, "compute", "--family", "cycle:25", "--quantity", *quantity
        )
        assert code == 3
        assert err.startswith("refused: ")
        assert "25" in err

    def test_over_limit_family_is_refused_unbuilt(self, capsys, monkeypatch):
        def unbuilt(spec):
            raise AssertionError(f"built {spec}")

        monkeypatch.delenv("TATTOO_MAX_EDGES", raising=False)
        monkeypatch.setattr(cli, "build_family", unbuilt)
        code, out, err = run(
            capsys, "compute", "--family", "cycle:30", "--quantity", "tau"
        )
        assert (code, out) == (3, "")
        assert err == (
            "refused: graph has 30 edges, limit is 22 "
            "(raise TATTOO_MAX_EDGES or pass a larger limit)\n"
        )

    @pytest.mark.parametrize(
        "extra,env",
        [(("--mode", "fsg"), None), ((), "abc")],
        ids=["mode", "limit-variable"],
    )
    def test_graph_error_comes_first(self, capsys, monkeypatch, extra, env):
        # the spec is read before the mode and the limits, as is the
        # graph it names
        if env is not None:
            monkeypatch.setenv("TATTOO_MAX_EDGES", env)
        code, _, err = run(
            capsys, "compute", "--family", "nope:3", "--quantity", "tau", *extra
        )
        assert code == 2
        assert err.startswith("error: unknown family 'nope'")

    def test_max_edges_flag_lowers_limit(self, capsys):
        code, _, _ = run(
            capsys,
            "compute",
            "--family",
            "cycle:6",
            "--quantity",
            "tau",
            "--max-edges",
            "5",
        )
        assert code == 3


class TestComputeOrientation:
    def test_out_star_fixed_orientation(self, capsys):
        doc = run_json(
            capsys,
            "compute",
            "--family",
            "star:10",
            "--quantity",
            "tau",
            "--orientation",
            "0",
            "--no-timing",
        )
        assert doc["value"] == 4
        assert doc["orientation"] == 0
        assert doc["orientations_searched"] == 1

    QUANTITIES = pytest.mark.parametrize(
        "quantity",
        [("tau",), ("ratio-set", "--allocate", "0:2")],
        ids=["tau", "ratio-set"],
    )

    @QUANTITIES
    def test_cyclic_orientation_exits_2(self, capsys, quantity):
        # edges of C3 are (0,1),(0,2),(1,2); flipping edge 1 closes a cycle
        code, _, err = run(
            capsys,
            "compute",
            "--family",
            "cycle:3",
            "--quantity",
            *quantity,
            "--orientation",
            "2",
        )
        assert code == 2
        assert err == "error: orientation code 2 has a directed cycle\n"

    @QUANTITIES
    def test_orientation_code_out_of_range_exits_2(self, capsys, quantity):
        code, _, err = run(
            capsys,
            "compute",
            "--family",
            "cycle:3",
            "--quantity",
            *quantity,
            "--orientation",
            "8",
        )
        assert code == 2
        assert err == "error: orientation code 8 out of range for 3 edges\n"

    @pytest.mark.parametrize(
        "spec,ratios",
        [
            ("cycle:3", ["3/8", "3/10", "3/14", "3/16"]),
            ("cycle:5", ["5/12", "5/14", "5/18", "5/22", "5/26", "5/28"]),
        ],
    )
    def test_ratio_set_values(self, capsys, spec, ratios):
        doc = run_json(
            capsys,
            "compute",
            "--family",
            spec,
            "--quantity",
            "ratio-set",
            "--orientation",
            "0",
            "--allocate",
            "0:2",
            "--no-timing",
        )
        assert doc["value"] == ratios
        assert doc["witness"] is None

    def test_brush_ratio_set_value(self, capsys):
        # every arc takes one of the two tokens
        doc = run_json(
            capsys,
            "compute",
            "--family",
            "cycle:5",
            "--mode",
            "brush",
            "--quantity",
            "ratio-set",
            "--orientation",
            "0",
            "--allocate",
            "0:2",
            "--no-timing",
        )
        assert doc["value"] == ["1/2"]
        assert doc["witness"] is None

    def test_ratio_set_needs_orientation_and_allocation(self, capsys):
        code, _, _ = run(
            capsys, "compute", "--family", "cycle:3", "--quantity", "ratio-set"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "extra,message",
        [
            (("--allocate", "99:1"), "names vertex 99"),
            (("--allocate", "2:1"), "no schedule completes"),
            (
                ("--allocate", "0:1", "--mode", "brush"),
                "without augmentation",
            ),
            (("--allocate", "x"), "bad allocation 'x'"),
            (("--allocate", "0"), "bad allocation '0'"),
            (("--allocate", "0:1.5"), "bad allocation '0:1.5'"),
        ],
        ids=["unknown-vertex", "no-completion", "brush-augmentation",
             "no-colon", "no-count", "float-count"],
    )
    def test_ratio_set_allocation_that_cannot_run_exits_2(
        self, capsys, extra, message
    ):
        code, _, err = run(
            capsys, "compute", "--family", "cycle:5", "--quantity",
            "ratio-set", "--orientation", "0", *extra,
        )
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "cycle:5", "--quantity", "tau"),
            ("--replay", "no-such-document.json"),
        ],
        ids=["tau", "replay"],
    )
    def test_allocate_without_ratio_set_exits_2(
        self, capsys, monkeypatch, argv
    ):
        monkeypatch.setattr(cli, "best_index", None)  # no search may run
        code, out, err = run(capsys, "compute", *argv, "--allocate", "0:2")
        assert code == 2
        assert out == ""
        assert err == "error: --allocate applies only to --quantity ratio-set\n"

    @QUANTITIES
    def test_workers_exit_2_before_any_search(
        self, capsys, monkeypatch, quantity
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")

        for name in ("best_index", "best_index_for_orientation", "ratio_set"):
            monkeypatch.setattr(cli, name, no_search)
        code, out, err = run(
            capsys, "compute", "--family", "cycle:4", "--quantity", *quantity,
            "--orientation", "0", "--workers", "2",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --workers applies only to a search ")

    @QUANTITIES
    def test_workers_1_is_the_default(self, capsys, quantity):
        argv = (
            "compute", "--family", "cycle:4", "--quantity", *quantity,
            "--orientation", "0", "--no-timing",
        )
        assert run_json(capsys, *argv, "--workers", "1") == run_json(
            capsys, *argv
        )

    def test_ratio_set_time_budget_exits_3(self, capsys, monkeypatch):
        # about 0.4 s of work, with the deadline checked every 256 ticks
        monkeypatch.setenv("TATTOO_TIME_BUDGET", "0.001")
        code, out, err = run(
            capsys, "compute", "--family", "friendship:3,3", "--quantity",
            "ratio-set", "--orientation", "0", "--allocate", "0:4",
        )
        assert code == 3
        assert out == ""
        assert err == "refused: time budget exceeded\n"

    def test_ratio_set_time_budget_covers_the_pool(self, capsys, monkeypatch):
        # the root's blend pool alone has 2^21 - 1 sets: many seconds of
        # work, so the refusal must come while the pool is built
        monkeypatch.setenv("TATTOO_TIME_BUDGET", "0.2")
        start = time.monotonic()
        code, out, err = run(
            capsys, "compute", "--family", "cycle:4", "--quantity",
            "ratio-set", "--orientation", "0", "--allocate", "0:21",
        )
        assert time.monotonic() - start < 5
        assert code == 3
        assert out == ""
        assert err == "refused: time budget exceeded\n"


class TestReplay:
    def save(self, capsys, tmp_path, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        path = tmp_path / "doc.json"
        path.write_text(out)
        return path

    def test_round_trip(self, capsys, tmp_path):
        path = self.save(
            capsys,
            tmp_path,
            "compute",
            "--family",
            "friendship:3,2",
            "--quantity",
            "index",
            "--no-timing",
        )
        code, out, _ = run(capsys, "compute", "--replay", str(path))
        assert code == 0
        assert "replay OK" in out

    def test_tampered_value_exits_4(self, capsys, tmp_path):
        path = self.save(
            capsys,
            tmp_path,
            "compute",
            "--family",
            "cycle:5",
            "--quantity",
            "labelsum",
            "--no-timing",
        )
        doc = json.loads(path.read_text())
        doc["value"] = doc["value"] + 1
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "compute", "--replay", str(path))
        assert code == 4
        assert "mismatch" in err

    @pytest.mark.parametrize(
        "key,claim",
        [("cost", 1), ("label_sum", 1), ("raw_ratio", "1"), ("index", "99")],
    )
    def test_tampered_figure_exits_4(self, capsys, tmp_path, key, claim):
        # value still agrees with the witness; only one other figure lies
        path = self.save(
            capsys, tmp_path, "compute", "--family", "cycle:4",
            "--quantity", "tau", "--no-timing",
        )
        doc = json.loads(path.read_text())
        assert doc["value"] == 2
        doc[key] = claim
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compute", "--replay", str(path))
        assert code == 4
        assert out == ""
        assert err.startswith(f"replay mismatch: document says {key} = ")

    def test_golden_witnesses_replay(self, capsys, tmp_path):
        # every pinned search report, written as the document compute
        # would print for its mode's cost quantity
        graphs = {label: g for label, g, _ in golden_cases()}
        quantity = {"brush": "br", "fsg": "btau", "blend": "tau"}
        golden = json.loads(GOLDEN_REPORTS.read_text())
        path = tmp_path / "doc.json"
        for key, report in golden.items():
            label, mode, _ = key.rsplit(" ", 2)
            g = graphs[label]
            doc = {
                "graph": {"vertices": g.n, "edge_list": list(g.edges)},
                "mode": mode,
                "quantity": quantity[mode],
                "value": report["cost"],
                **report,
            }
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "compute", "--replay", str(path))
            assert (code, err) == (0, ""), key
            assert out == f"replay OK: {quantity[mode]} = {report['cost']}\n"

    def test_joost_tau_reference_replays(self, capsys):
        # the benchmark replays its joost-tau witness the same way
        code, out, err = run(
            capsys, "compute", "--replay", str(JOOST_TAU_REFERENCE)
        )
        assert (code, err) == (0, "")
        assert out == "replay OK: tau = 3\n"

    def test_non_utf8_document_exits_2(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "compute", "--replay", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot load {path}: 'utf-8' codec")

    @pytest.mark.parametrize(
        "tamper,expect",
        [
            (lambda doc: doc["witness"]["events"].reverse(), 4),
            (lambda doc: doc.pop("quantity"), 2),
            (lambda doc: doc["witness"].update(initial=[[99, 1]]), 2),
            (lambda doc: doc["witness"].update(initial=[]), 2),
            (lambda doc: doc.update(mode="blend", quantity="btau"), 2),
            (lambda doc: doc["witness"].update(orientation=1 << 5), 2),
            (lambda doc: doc.pop("value"), 2),
        ],
        ids=[
            "events-out-of-order",
            "no-quantity",
            "unknown-vertex",
            "no-allocation",
            "mode-contradicts-quantity",
            "orientation-out-of-range",
            "no-value",
        ],
    )
    def test_tampered_witness_exit_code(
        self, capsys, tmp_path, tamper, expect
    ):
        path = self.save(
            capsys,
            tmp_path,
            "compute",
            "--family",
            "cycle:5",
            "--quantity",
            "labelsum",
            "--no-timing",
        )
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "compute", "--replay", str(path))
        assert code == expect

    @pytest.mark.parametrize(
        "extra,named",
        [
            (
                ("--family", "star:9", "--quantity", "index", "--orientation",
                 "3", "--max-edges", "2", "--policy", "fresh", "--workers",
                 "2"),
                "--family, --quantity, --orientation, --max-edges, --policy, "
                "--workers",
            ),
            (("--family", "cycle:5"), "--family"),
            (("--input", "edges.txt"), "--input"),
            (("--quantity", "tau"), "--quantity"),
            (("--mode", "blend"), "--mode"),
            (("--orientation", "0"), "--orientation"),
            (("--max-edges", "22"), "--max-edges"),
            (("--policy", "fresh"), "--policy"),
            (("--workers", "2"), "--workers"),
        ],
        ids=["example", "family", "input", "quantity", "mode", "orientation",
             "max-edges", "policy", "workers"],
    )
    def test_flags_it_would_ignore_exit_2(
        self, capsys, monkeypatch, tmp_path, extra, named
    ):
        path = tmp_path / "c5.json"
        path.write_text(json.dumps(CYCLE5_DOC))
        monkeypatch.setattr(
            cli, "replay", lambda *args: pytest.fail("a witness was replayed")
        )
        code, out, err = run(capsys, "compute", "--replay", str(path), *extra)
        assert code == 2
        assert out == ""
        assert err == (
            "error: --replay takes the graph and settings from the "
            f"document; drop {named}\n"
        )

    def test_default_settings_and_no_timing_still_replay(
        self, capsys, tmp_path
    ):
        path = tmp_path / "c5.json"
        path.write_text(json.dumps(CYCLE5_DOC))
        code, out, _ = run(
            capsys, "compute", "--replay", str(path), "--policy", "smallest",
            "--workers", "1", "--no-timing",
        )
        assert code == 0
        assert out == "replay OK: labelsum = 6\n"

    def test_document_without_witness_exits_2(self, capsys, tmp_path):
        path = self.save(
            capsys,
            tmp_path,
            "compute",
            "--family",
            "cycle:3",
            "--quantity",
            "ratio-set",
            "--orientation",
            "0",
            "--allocate",
            "0:2",
            "--no-timing",
        )
        code, _, _ = run(capsys, "compute", "--replay", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "assignment,expect,message",
        [
            (
                [[0, [1]], [0, [2]]],
                4,
                "inconsistent result: vertex 0 must tattoo arcs [0, 1], "
                "assignment covers [0, 0]",
            ),
            (
                [[0, [1.5]], [1, [2]]],
                2,
                "error: malformed document: primary indices are integers, "
                "got [1.5]",
            ),
            (
                [[0, [True]], [1, [2]]],
                2,
                "error: malformed document: primary indices are integers, "
                "got [True]",
            ),
            (
                # refused as a member, not built as a 2^40-bit mask
                [[0, [1]], [1, [2**40]]],
                4,
                "inconsistent result: vertex 0 names new primaries "
                "[1099511627776]; smallest policy grants [3]",
            ),
        ],
        ids=["repeated-arc", "float-primary", "bool-primary", "far-primary"],
    )
    def test_bad_assignment_exit_code(
        self, capsys, tmp_path, assignment, expect, message
    ):
        doc = json.loads(json.dumps(CYCLE5_DOC))
        doc["witness"]["events"][0]["assignment"] = assignment
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compute", "--replay", str(path))
        assert (code, out, err) == (expect, "", message + "\n")

    @pytest.mark.parametrize("entry", ["replay", "allocate"])
    def test_out_of_memory_exits_3(self, capsys, tmp_path, entry):
        # CPython refuses a tuple of 2^62 primaries before allocating it,
        # whatever the kernel would overcommit
        count = 2**62
        if entry == "replay":
            doc = json.loads(json.dumps(CYCLE5_DOC))
            doc["witness"]["initial"] = [[0, count]]
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            argv = ("--replay", str(path))
        else:
            argv = (
                "--family", "cycle:5", "--quantity", "ratio-set",
                "--orientation", "0", "--allocate", f"0:{count}",
            )
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out, err) == (3, "", "refused: out of memory\n")

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (
                ("witness", "events", 1, "vertex"),
                True,
                "fired vertices are integers, got [True]",
            ),
            (
                ("witness", "initial"),
                [[False, 2]],
                "allocation vertices and counts are integers, got [False, 2]",
            ),
            (
                ("witness", "events", 0, "assignment", 0, 0),
                False,
                "arcs are integers, got [False, 1]",
            ),
            (
                ("witness", "orientation"),
                False,
                "orientation codes are integers, got [False]",
            ),
            (
                ("graph", "edge_list", 0),
                [False, True],
                "edge ends are integers, got [False, True]",
            ),
        ],
        ids=["vertex", "initial", "arc", "orientation", "edge-list"],
    )
    def test_bool_is_no_integer(self, capsys, tmp_path, path, value, message):
        # each of these once replayed as the first vertex, arc or code
        doc = json.loads(
            self.save(
                capsys, tmp_path, "compute", "--family", "cycle:5",
                "--quantity", "tau", "--no-timing",
            ).read_text()
        )
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compute", "--replay", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: malformed document: {message}\n"


def _paths(node, path=()):
    """The path to every value inside a JSON document, root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


JSON_VALUES = st.one_of(
    st.integers(-2, 12),
    st.none(),
    st.booleans(),
    st.sampled_from(["", "blend", "tau", "smallest"]),
    st.lists(st.integers(-1, 6), max_size=3),
)


@st.composite
def mutated_documents(draw, base):
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return doc


CYCLE5_DOC = {
    "graph": {
        "vertices": 5,
        "edges": 5,
        "edge_list": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]],
    },
    "mode": "blend",
    "quantity": "labelsum",
    "value": 6,
    "witness": {
        "orientation": 0,
        "policy": "smallest",
        "initial": [[0, 2]],
        "events": [
            {"vertex": 0, "assignment": [[0, [1]], [1, [2]]]},
            {"vertex": 1, "assignment": [[2, [1]]]},
            {"vertex": 2, "assignment": [[3, [1]]]},
            {"vertex": 3, "assignment": [[4, [1]]]},
        ],
    },
}


class TestReplayFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mutated_documents(CYCLE5_DOC))
    def test_mutated_document_exit_code(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "compute", "--replay", str(path))
        assert code in (0, 2, 4)

    def test_base_document_replays(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(CYCLE5_DOC))
        code, out, _ = run(capsys, "compute", "--replay", str(path))
        assert code == 0, out


GOLDEN = Path(__file__).parent / "data" / "verify"


def counting_searches(monkeypatch) -> list[tuple]:
    """Record the (graph, mode) of every ``best_index`` call ``cli`` makes,
    passing each on to the search ``cli`` held before."""
    calls = []
    searched = cli.best_index

    def counted(graph, mode, *args, **kwargs):
        calls.append((graph.n, graph.edges, mode))
        return searched(graph, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "best_index", counted)
    return calls


class TestVerify:
    # the goldens pin each suite's output byte for byte: row labels, order,
    # statuses and details; regenerate one only when a row is meant to change

    def test_paper_anchors_has_no_failures(
        self, capsys, monkeypatch, shared_searches
    ):
        calls = counting_searches(monkeypatch)
        code, out, _ = run(capsys, "verify", "--suite", "paper-anchors")
        assert code == 0
        assert out == (GOLDEN / "paper-anchors.txt").read_text()
        # one search per distinct (graph, mode)
        assert len(calls) == len(set(calls)) == 24

    def test_closed_forms_flags_known_discrepancies(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "closed-forms")
        assert code == 0
        assert "Fr(3,4) fsg label sum vs closed form: DISCREPANCY" in out
        assert "Joost(3,2) fsg label sum vs closed form: PASS" in out

    @pytest.mark.parametrize(
        "printed,row",
        [
            (False, cli.Row("x", cli.FAIL)),
            (True, cli.Row("x", cli.FAIL, "engine 3 exceeds printed 2")),
        ],
        ids=["unprinted-mismatch", "above-printed"],
    )
    def test_row_fails(self, printed, row):
        assert cli._row("x", 3, 2, printed) == row

    def test_oracle_suite_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--json")
        assert code == 0
        assert out == (GOLDEN / "oracle.json").read_text()
        doc = json.loads(out)
        assert doc["counts"] == {"PASS": 22, "FAIL": 0, "DISCREPANCY": 0}

    def test_json_report_shape(self, capsys, monkeypatch):
        calls = counting_searches(monkeypatch)
        code, out, _ = run(
            capsys, "verify", "--suite", "closed-forms", "--json"
        )
        assert code == 0
        assert out == (GOLDEN / "closed-forms.json").read_text()
        assert len(calls) == len(set(calls)) == 18

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "imaginary")
        assert code == 2


def _options(parser) -> dict[str, tuple]:
    """Each option of ``parser``: its default, choices, type, and whether
    it is required."""
    return {
        ", ".join(action.option_strings): (
            action.default,
            action.choices,
            getattr(action.type, "__name__", None),
            action.required,
        )
        for action in parser._actions
        if action.option_strings
    }


class TestOptionSurface:
    HELP = {"-h, --help": ("==SUPPRESS==", None, None, False)}
    SEARCH = {
        "--mode": (None, ["brush", "fsg", "blend"], None, False),
        "--policy": ("smallest", ["smallest", "fresh"], None, False),
        "--max-edges": (None, None, "int", False),
        "--workers": (1, None, "_worker_count", False),
        "--no-timing": (False, None, None, False),
    }

    def test_each_subcommand_keeps_its_options(self):
        quantities = ["br", "btau", "tau", "labelsum", "index", "ratio",
                      "ratio-set"]
        expected = {
            "compute": {
                **self.HELP,
                **self.SEARCH,
                "--input": (None, None, None, False),
                "--family": (None, None, None, False),
                "--quantity": (None, quantities, None, False),
                "--orientation": (None, None, "int", False),
                "--allocate": (None, None, None, False),
                "--replay": (None, None, None, False),
            },
            "verify": {
                **self.HELP,
                "--suite": (None, None, None, True),
                "--max-edges": (None, None, "int", False),
                "--json": (False, None, None, False),
            },
            "sweep": {
                **self.HELP,
                **self.SEARCH,
                "--family": (None, None, None, True),
                "--n": (None, None, None, False),
                "--k": (None, None, None, False),
                "--q": (None, None, "int", False),
                "--blocks": (None, None, None, False),
                "--vertices": (None, None, "int", False),
                "--edges": (None, None, "int", False),
                "--count": (None, None, "int", False),
                "--seed": (None, None, "int", False),
                "--csv": (None, None, None, False),
            },
        }
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if not a.option_strings]
        assert {
            name: _options(command) for name, command in sub.choices.items()
        } == expected
        assert _options(parser) == self.HELP


def rows_of(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestSweep:
    def test_over_limit_rows_are_refused_unbuilt(self, capsys, monkeypatch):
        built = []
        build = cli.build_family

        def counted(spec):
            built.append(str(spec))
            return build(spec)

        monkeypatch.delenv("TATTOO_MAX_EDGES", raising=False)
        monkeypatch.setattr(cli, "build_family", counted)
        code, out, _ = run(
            capsys, "sweep", "--family", "cycle", "--n", "20..30",
            "--no-timing",
        )
        assert code == 0
        assert out.splitlines() == [
            "family,params,vertices,edges,br,btau,tau,labelsum,index,status",
            "cycle,20,20,20,2,2,2,21,10/21,ok",
            "cycle,21,21,21,2,2,2,22,21/44,ok",
            "cycle,22,22,22,2,2,2,23,11/23,ok",
        ] + [
            f'cycle,{n},{n},{n},,,,,,"refused: graph has {n} edges, limit is '
            f'22 (raise TATTOO_MAX_EDGES or pass a larger limit)"'
            for n in range(23, 31)
        ]
        assert built == ["cycle:20", "cycle:21", "cycle:22"]

    def test_joost_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "joost",
            "--n",
            "3..4",
            "--k",
            "1..3",
            "--mode",
            "fsg",
            "--no-timing",
        )
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 6
        assert [r["params"] for r in rows] == [
            "3,1", "3,2", "3,3", "4,1", "4,2", "4,3",
        ]
        assert all(
            r["btau"] == r["params"].split(",")[1] for r in rows
        )

    def test_cycle_sweep_tau_column(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "cycle",
            "--n",
            "3..8",
            "--mode",
            "blend",
            "--no-timing",
        )
        assert code == 0
        rows = rows_of(out)
        assert [r["tau"] for r in rows] == ["2"] * 6

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--family", "cycle", "--n", "5..3"), "empty range '5..3'"),
            (("--family", "cycle", "--n", "x"), "bad range 'x'"),
            (("--family", "joost", "--n", "3", "--k", "4..2"), "empty range"),
            (("--family", "random", "--vertices", "4", "--edges", "4",
              "--count", "-1"), "--count"),
            (("--family", "random", "--vertices", "4", "--edges", "4",
              "--count", "0"), "--count"),
            # a tree on 30 vertices is hardly ever drawn at random
            (("--family", "random", "--vertices", "30", "--edges", "29"),
             "could not sample enough connected graphs"),
        ],
        ids=["empty-n", "bad-n", "empty-k", "negative-count", "zero-count",
             "unsampled"],
    )
    def test_no_instance_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "sweep", *argv, "--no-timing")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    def test_csv_file_output(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "path",
            "--n",
            "3..5",
            "--csv",
            str(target),
            "--no-timing",
        )
        assert code == 0
        assert out == ""
        assert len(rows_of(target.read_text())) == 3

    def test_unwritable_csv_exits_2_before_any_search(
        self, capsys, monkeypatch, tmp_path
    ):
        searched = []
        monkeypatch.setattr(
            cli, "best_index", lambda *args, **kw: searched.append(args)
        )
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run(
            capsys, "sweep", "--family", "cycle", "--n", "3",
            "--csv", str(target),
        )
        assert code == 2
        assert out == ""
        assert str(target) in err
        assert "Traceback" not in err
        assert searched == []

    def test_refused_instances_get_status_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "cycle",
            "--n",
            "9..11",
            "--max-edges",
            "10",
            "--no-timing",
        )
        assert code == 0
        rows = rows_of(out)
        assert [r["status"].startswith("refused") for r in rows] == [
            False, False, True,
        ]
        assert rows[2]["tau"] == ""

    def test_all_refused_exits_nonzero(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "cycle",
            "--n",
            "8..9",
            "--max-edges",
            "5",
            "--no-timing",
        )
        assert code == 1
        assert all(
            r["status"].startswith("refused") for r in rows_of(out)
        )

    @pytest.mark.parametrize(
        "span,refused,code", [("2..4", ["2"], 0), ("1..2", ["1", "2"], 1)]
    )
    def test_parameter_below_minimum_is_a_refused_row(
        self, capsys, span, refused, code
    ):
        got, out, _ = run(
            capsys, "sweep", "--family", "cycle", "--n", span, "--no-timing"
        )
        assert got == code
        rows = out.splitlines()[1:]
        assert rows[: len(refused)] == [
            f"cycle,{n},,,,,,,,refused: cycle parameter {n} below minimum 3"
            for n in refused
        ]
        assert all(r.endswith(",ok") for r in rows[len(refused) :])

    def test_random_sweep_redraws_disconnected_samples(
        self, capsys, monkeypatch
    ):
        code, out, _ = run(
            capsys, "sweep", "--family", "random", "--vertices", "6",
            "--edges", "5", "--count", "3", "--no-timing",
        )
        assert code == 0
        assert [r["status"] for r in rows_of(out)] == ["ok"] * 3
        # 5 edges on 6 vertices must form a tree; seed 0 draws one
        # sample that is not connected among its first four
        drawn = []
        real = cli.Graph

        def counted(n, edges):
            try:
                graph = real(n, edges)
            except DisconnectedGraphError:
                drawn.append(False)
                raise
            drawn.append(True)
            return graph

        monkeypatch.setattr(cli, "Graph", counted)
        args = SimpleNamespace(vertices=6, edges=5, count=3, seed=None)
        assert [p for p, _, _ in cli._random_instances(args)] == [
            "6,5#0", "6,5#1", "6,5#2",
        ]
        assert sorted(drawn) == [False, True, True, True]

    def test_random_ensemble_deterministic(self, capsys):
        argv = (
            "sweep", "--family", "random", "--vertices", "5", "--edges", "6",
            "--count", "2", "--seed", "11", "--no-timing",
        )
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert len(rows_of(out_a)) == 2
        assert {r["edges"] for r in rows_of(out_a)} == {"6"}

    @pytest.mark.parametrize(
        "vertices,edges",
        [("0", "0"), ("-2", "1"), ("1", "0"), ("3", "1"), ("3", "9")],
    )
    def test_random_sizes_out_of_range_exit_2(self, capsys, vertices, edges):
        code, out, err = run(
            capsys, "sweep", "--family", "random", "--vertices", vertices,
            "--edges", edges, "--no-timing",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_missing_range_exits_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "cycle")
        assert code == 2
        assert out == ""
        assert err == "error: cycle sweeps need --n RANGE\n"

    @pytest.mark.parametrize(
        "argv,lacking",
        [
            (("friendship", "--q", "4"), "friendship sweeps need --n RANGE"),
            (("joost", "--k", "x"), "joost sweeps need --n RANGE"),
            (("joost", "--n", "x"), "joost sweeps need --k RANGE"),
            (("genfriendship",), "genfriendship sweeps need --blocks SPEC"),
            (
                ("genfriendship", "--blocks", ""),
                "genfriendship sweeps need --blocks SPEC",
            ),
            (("moebius",), "unknown sweep family 'moebius'"),
            (
                ("random", "--edges", "3"),
                "random sweeps need --vertices N and --edges M",
            ),
        ],
        ids=["friendship-n", "joost-n", "joost-k", "genfriendship",
             "genfriendship-empty", "unknown", "random"],
    )
    def test_missing_flag_is_named_before_any_range_is_read(
        self, capsys, argv, lacking
    ):
        code, out, err = run(capsys, "sweep", "--family", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {lacking}\n"

    @pytest.mark.parametrize(
        "argv,unread",
        [
            (
                ("cycle", "--n", "3", "--k", "5", "--q", "9", "--blocks",
                 "3x2", "--vertices", "4"),
                "cycle sweeps do not read --k, --q, --blocks, --vertices",
            ),
            (("friendship", "--n", "2", "--k", "1"),
             "friendship sweeps do not read --k"),
            (("joost", "--n", "3", "--k", "2", "--q", "3"),
             "joost sweeps do not read --q"),
            (("genfriendship", "--blocks", "3x2", "--n", "3"),
             "genfriendship sweeps do not read --n"),
            (("wheel", "--n", "4", "--edges", "5", "--count", "1",
              "--seed", "0"),
             "wheel sweeps do not read --edges, --count, --seed"),
            (("random", "--vertices", "4", "--edges", "4", "--n", "3",
              "--q", "3"),
             "random sweeps do not read --n, --q"),
        ],
        ids=["cycle", "friendship", "joost", "genfriendship", "wheel",
             "random"],
    )
    def test_flags_the_family_does_not_read_exit_2(self, capsys, argv, unread):
        code, out, err = run(capsys, "sweep", "--family", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {unread}\n"

    def test_defaults_given_explicitly_change_nothing(self, capsys):
        for plain, explicit in [
            (("friendship", "--n", "2"), ("--q", "3")),
            (("random", "--vertices", "5", "--edges", "6"),
             ("--count", "1", "--seed", "0")),
        ]:
            argv = ("sweep", "--family", *plain, "--no-timing")
            assert run(capsys, *argv) == run(capsys, *argv, *explicit)

    def test_parallel_rows_byte_identical(self, capsys):
        argv = (
            "sweep", "--family", "joost", "--n", "3..4", "--k", "1..3",
            "--mode", "fsg", "--no-timing",
        )
        _, serial, _ = run(capsys, *argv)
        _, parallel, _ = run(capsys, *argv, "--workers", "3")
        assert serial == parallel


class _InlineContext:
    """Stands in for a multiprocessing context: records each pool's size
    and runs its map in this process."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def terminate(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestWorkerCap:
    @pytest.mark.parametrize("cpus,sizes", [(None, []), (1, []), (2, [2])])
    @pytest.mark.parametrize(
        "argv",
        [
            (
                "compute", "--family", "cycle:6", "--quantity", "labelsum",
                "--no-timing",
            ),
            ("sweep", "--family", "cycle", "--n", "3..6", "--no-timing"),
        ],
        ids=["compute", "sweep"],
    )
    def test_workers_capped_at_cpu_count(
        self, capsys, monkeypatch, argv, cpus, sizes
    ):
        _, serial, _ = run(capsys, *argv)
        context = _InlineContext()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method: context
        )
        code, out, err = run(capsys, *argv, "--workers", "64")
        assert code == 0, err
        assert context.sizes == sizes
        assert out == serial


class TestWorkerCount:
    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--family", "cycle:3", "--quantity", "tau"),
            ("sweep", "--family", "cycle", "--n", "3"),
        ],
        ids=["compute", "sweep"],
    )
    def test_below_one_exits_2(self, capsys, argv, workers):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", workers])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--workers" in err


class TestParallelCompute:
    def test_workers_do_not_change_the_document(self, capsys, monkeypatch):
        # cycle:6 in blend mode has 3 representatives at its least cost
        argv = (
            "compute", "--family", "cycle:6", "--mode", "blend",
            "--quantity", "labelsum", "--no-timing",
        )
        _, serial, _ = run(capsys, *argv)
        contexts = []
        real = search._mp_context

        def recording():
            contexts.append(real())
            return contexts[-1]

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(search, "_mp_context", recording)
        _, parallel, _ = run(capsys, *argv, "--workers", "4")
        assert len(contexts) == 1
        assert serial == parallel


NOISE_LINES = st.one_of(
    st.sampled_from(["", "# comment", "x y", "1.5 2", "0", "1 2 3", "0x1 2"]),
    st.tuples(st.integers(-3, 10**6), st.integers(0, 10**6)).map(
        lambda pair: f"{pair[0]} {pair[1]}"
    ),
)


@st.composite
def edge_list_texts(draw):
    """Edge-list text: a connected graph on up to 7 vertices, in random
    line order, with up to two defects: a dropped line (a gap or a
    disconnection), a loop, a duplicate, or a line of noise (a comment,
    a blank, malformed tokens, a negative id, an id up to 10**6)."""
    n = draw(st.integers(2, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(chords), max_size=3)))
    lines = [f"{u} {v}" for u, v in draw(st.permutations(sorted(edges)))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["drop", "loop", "repeat", "noise"]))
        at = draw(st.integers(0, len(lines)))
        if kind == "drop" and lines:
            del lines[min(at, len(lines) - 1)]
        elif kind == "loop":
            v = draw(st.integers(0, n - 1))
            lines.insert(at, f"{v} {v}")
        elif kind == "repeat":
            u, v = draw(st.sampled_from(sorted(edges)))
            lines.insert(at, f"{v} {u}")
        else:
            lines.insert(at, draw(NOISE_LINES))
    return "\n".join(lines) + "\n"


class TestEdgeListFuzz:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(edge_list_texts())
    def test_edge_list_exit_code(self, capsys, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        code, _, _ = run(
            capsys, "compute", "--input", str(path), "--quantity", "tau",
            "--max-edges", "6", "--no-timing",
        )
        assert code in (0, 2, 3)


class TestMalformedLimitVariables:
    @pytest.mark.parametrize(
        "name,value",
        [("TATTOO_MAX_EDGES", "abc"), ("TATTOO_TIME_BUDGET", "soon")],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--family", "cycle:3", "--quantity", "tau"),
            ("verify", "--suite", "paper-anchors"),
            ("sweep", "--family", "cycle", "--n", "3"),
        ],
    )
    def test_exits_2_naming_the_variable(
        self, capsys, monkeypatch, name, value, argv
    ):
        monkeypatch.setenv(name, value)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert f"{name}={value!r}" in err

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--family", "friendship:3,4", "--quantity", "tau"),
            ("verify", "--suite", "paper-anchors"),
            ("sweep", "--family", "cycle", "--n", "3"),
        ],
    )
    def test_time_budget_must_be_positive(self, capsys, monkeypatch, value, argv):
        # 0 and nan once meant no deadline, -1 an immediate refusal
        monkeypatch.setenv("TATTOO_TIME_BUDGET", value)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"TATTOO_TIME_BUDGET={value!r}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--family", "cycle:3", "--quantity", "tau"),
            ("verify", "--suite", "oracle"),
            ("sweep", "--family", "cycle", "--n", "3"),
        ],
    )
    @pytest.mark.parametrize(
        "variable,flag,named",
        [
            ("-5", None, "TATTOO_MAX_EDGES='-5'"),
            (None, "-1", "got -1"),
            (None, "0", "got 0"),
        ],
    )
    def test_edge_limit_must_be_positive(
        self, capsys, monkeypatch, argv, variable, flag, named
    ):
        # every search was once refused with exit 3
        if variable is not None:
            monkeypatch.setenv("TATTOO_MAX_EDGES", variable)
        extra = () if flag is None else ("--max-edges", flag)
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert named in err


class TestNoWarnings:
    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--family", "friendship:3,3", "--quantity", "btau"),
            ("sweep", "--family", "friendship", "--n", "2..3", "--mode", "fsg"),
        ],
    )
    def test_search_emits_no_warning(self, capsys, argv):
        # networkx 3.5+ warns on every Weisfeiler-Lehman hash of a digraph
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert [str(w.message) for w in caught] == []
        assert err == ""


def _child_env() -> dict:
    """The environment with this checkout's ``src`` first on the path."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


class TestNoNumpy:
    @pytest.mark.parametrize(
        "modules", ["tattooing.cli", "tattooing.oracle, tattooing.search"]
    )
    def test_package_does_not_import_numpy(self, modules):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {modules}; sys.exit('numpy' in sys.modules)"],
            capture_output=True,
            env=_child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()


class TestLazyNetworkx:
    """networkx is executed on the first class reduction, not on import:
    ``networkx`` is in ``sys.modules`` as a lazy module from the start, and
    its subpackages appear once it runs."""

    @staticmethod
    def child(*argv) -> tuple[str, bool]:
        """Standard output of ``tattoo ARGV`` (of the import alone if
        there is none) in a fresh interpreter, and whether networkx ran."""
        script = (
            "import sys, tattooing.cli\n"
            "assert 'networkx' in sys.modules\n"
            f"argv = {list(argv)!r}\n"
            "code = tattooing.cli.main(argv) if argv else 0\n"
            "print('networkx.classes' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            env=_child_env(),
            timeout=120,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        *out, loaded = proc.stdout.splitlines(keepends=True)
        return "".join(out), loaded == "True\n"

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("compute", "--family", "friendship:3,2", "--quantity",
             "ratio-set", "--orientation", "0", "--allocate", "0:4"),
            ("compute", "--family", "joost:3,3", "--quantity", "tau",
             "--orientation", "5"),
            ("compute", "--family", "joost:3,3", "--quantity", "br"),
            ("compute", "--replay", str(JOOST_TAU_REFERENCE)),
        ],
        ids=["import", "ratio-set", "orientation", "br", "replay"],
    )
    def test_no_class_reduction_leaves_networkx_unexecuted(self, argv):
        _, loaded = self.child(*argv)
        assert not loaded

    def test_class_reduction_loads_networkx(self, capsys):
        argv = ("compute", "--family", "joost:3,3", "--quantity", "tau",
                "--no-timing")
        out, loaded = self.child(*argv)
        assert loaded
        _, expected, _ = run(capsys, *argv)
        assert out == expected


class TestClosedPipe:
    def test_closed_stdout_exits_1_without_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "tattooing.cli", "compute", "--family",
             "cycle:3", "--quantity", "tau"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
        # the child is still importing when its reader goes away
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err


@pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs a /dev/full device"
)
class TestFullDevice:
    """A write that fails ends in one ``error:`` line, not a traceback."""

    def run_child(self, *argv, stdout=subprocess.DEVNULL):
        return subprocess.run(
            [sys.executable, "-m", "tattooing.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=_child_env(),
            timeout=120,
            text=True,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--family", "cycle:3", "--quantity", "tau"),
            ("sweep", "--family", "cycle", "--n", "3..4", "--no-timing"),
            ("verify", "--suite", "closed-forms"),
        ],
        ids=["compute", "sweep", "verify"],
    )
    def test_full_stdout_exits_1(self, argv):
        with open("/dev/full", "w") as full:
            proc = self.run_child(*argv, stdout=full)
        assert proc.returncode == 1
        # one line: no traceback, no "Exception ignored" at exit
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert proc.stderr.count("\n") == 1

    def test_full_stdout_on_replay_exits_1(self, capsys, tmp_path):
        saved = tmp_path / "cycle3.json"
        code, out, _ = run(
            capsys, "compute", "--family", "cycle:3", "--quantity", "tau",
            "--no-timing",
        )
        assert code == 0
        saved.write_text(out)
        with open("/dev/full", "w") as full:
            proc = self.run_child("compute", "--replay", str(saved), stdout=full)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert proc.stderr.count("\n") == 1

    def test_full_csv_file_exits_2(self):
        proc = self.run_child(
            "sweep", "--family", "cycle", "--n", "3", "--no-timing",
            "--csv", "/dev/full",
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write /dev/full: ")
        assert proc.stderr.count("\n") == 1
