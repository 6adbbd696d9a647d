"""Command-line surface: documents, suites, sweeps, and exit codes."""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tattooing import cli, search
from tattooing.cli import main


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

    def test_missing_graph_exits_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--quantity", "tau")
        assert code == 2

    def test_unknown_family_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "compute", "--family", "moebius:5", "--quantity", "tau"
        )
        assert code == 2

    def test_limit_refusal_exits_3(self, capsys):
        code, _, err = run(
            capsys, "compute", "--family", "cycle:25", "--quantity", "tau"
        )
        assert code == 3
        assert "25" in err

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

    def test_cyclic_orientation_exits_2(self, capsys):
        # edges of C3 are (0,1),(0,2),(1,2); flipping edge 1 closes a cycle
        code, _, err = run(
            capsys,
            "compute",
            "--family",
            "cycle:3",
            "--quantity",
            "tau",
            "--orientation",
            "2",
        )
        assert code == 2
        assert "cycle" in err

    def test_orientation_code_out_of_range_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            "compute",
            "--family",
            "cycle:3",
            "--quantity",
            "tau",
            "--orientation",
            "8",
        )
        assert code == 2

    def test_ratio_set_values(self, capsys):
        doc = run_json(
            capsys,
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
        assert doc["value"] == ["3/8", "3/10", "3/14", "3/16"]
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
        ],
        ids=["unknown-vertex", "no-completion", "brush-augmentation"],
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
        "tamper,expect",
        [
            (lambda doc: doc["witness"]["events"].reverse(), 4),
            (lambda doc: doc.pop("quantity"), 2),
            (lambda doc: doc["witness"].update(initial=[[99, 1]]), 2),
            (lambda doc: doc["witness"].update(initial=[]), 2),
            (lambda doc: doc.update(mode="blend", quantity="btau"), 2),
            (lambda doc: doc["witness"].update(orientation=1 << 5), 2),
        ],
        ids=[
            "events-out-of-order",
            "no-quantity",
            "unknown-vertex",
            "no-allocation",
            "mode-contradicts-quantity",
            "orientation-out-of-range",
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
    """Record the (graph, mode) of every ``best_index`` call ``cli`` makes."""
    calls = []

    def counted(graph, mode, *args, **kwargs):
        calls.append((graph.n, graph.edges, mode))
        return search.best_index(graph, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "best_index", counted)
    return calls


class TestVerify:
    # the goldens pin each suite's output byte for byte: row labels, order,
    # statuses and details; regenerate one only when a row is meant to change

    def test_paper_anchors_has_no_failures(self, capsys, monkeypatch):
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


def rows_of(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestSweep:
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
        "argv",
        [
            ("--family", "cycle", "--n", "5..3"),
            ("--family", "joost", "--n", "3", "--k", "4..2"),
            ("--family", "random", "--vertices", "4", "--edges", "4",
             "--count", "-1"),
            ("--family", "random", "--vertices", "4", "--edges", "4",
             "--count", "0"),
        ],
    )
    def test_no_instance_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "sweep", *argv, "--no-timing")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

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
        with pytest.raises(SystemExit) as caught:
            main(["sweep", "--family", "cycle"])
        assert caught.value.code == 2
        capsys.readouterr()

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

    def Pool(self, size, initializer=None, initargs=()):
        self.sizes.append(size)
        if initializer is not None:
            initializer(*initargs)
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
        # the pool initializer runs here, so restore its global after
        monkeypatch.setattr(search, "_worker", None)
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
