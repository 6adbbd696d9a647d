"""Command-line front end: compute invariants, verify anchors, sweep families.

Exit codes: 0 success, 1 a failed verify or sweep, or standard output
that cannot be written (a closed pipe, a full disk), 2 input or parse
failure (a malformed document and a ``--csv`` file that cannot be written
included), 3 search-limit refusal or memory running out, 4 witness replay
mismatch or a witness that breaks the process rules.  All rationals are
printed reduced, as ``p/q`` (or a bare integer when the denominator is
one).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from tattooing.engine import (
    AllocationPlan,
    ColourSet,
    EngineError,
    FireEvent,
    Mode,
    Outcome,
    Policy,
    Witness,
    replay,
)
from tattooing.formulas import (
    cycle_tau,
    fr3_formulas,
    general_fr_formulas,
    joost_formulas,
)
from tattooing.graphs import (
    Digraph,
    DisconnectedGraphError,
    FamilySpec,
    Graph,
    build_family,
    orient,
    parse_edge_list,
    parse_family_spec,
)
from tattooing.oracle import connected_graph_corpus, oracle_invariants
from tattooing.search import (
    COST_MODES,
    IndexReport,
    LimitError,
    Quantity,
    SearchLimits,
    best_index,
    best_index_for_orientation,
    quantity_mode,
    quantity_value,
    ratio_set,
)

PASS = "PASS"
FAIL = "FAIL"
DISCREPANCY = "DISCREPANCY"


class InputError(Exception):
    """Bad user input: malformed graph, spec, flag combination, or file."""


def _scalar(value):
    return value if isinstance(value, int) else str(value)


def _parse_range(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError as exc:
        raise InputError(f"bad range {text!r}: use N or A..B") from exc
    if not values:
        raise InputError(f"empty range {text!r}: A..B needs A <= B")
    return values


def _parse_allocation(text: str, policy: Policy) -> AllocationPlan:
    pairs = []
    try:
        for clause in text.split(","):
            v, k = clause.split(":", 1)
            pairs.append((int(v), int(k)))
        return AllocationPlan(tuple(pairs), policy)
    except ValueError as exc:
        raise InputError(f"bad allocation {text!r}: use v:k[,v:k...]") from exc


def _load_graph(args) -> tuple[FamilySpec | Graph, str | None]:
    """The spec of ``--family``, unbuilt, or the graph of ``--input``."""
    if args.family and args.input:
        raise InputError("give either --family or --input, not both")
    try:
        if args.family:
            return parse_family_spec(args.family), args.family
        if args.input:
            with open(args.input, encoding="utf-8") as handle:
                return parse_edge_list(handle.read()), None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    raise InputError("a graph is required: --family SPEC or --input FILE")


def _built(source: FamilySpec | Graph, limits: SearchLimits) -> Graph:
    """The graph of a source; a family spec over the edge limit is
    refused before it is built."""
    if isinstance(source, Graph):
        return source
    limits.check(source)
    return build_family(source)


def _limits(args) -> SearchLimits:
    try:
        base = SearchLimits()
        if args.max_edges is not None:
            base = dataclasses.replace(base, max_edges=args.max_edges)
    except ValueError as exc:  # a malformed TATTOO_* variable or --max-edges
        raise InputError(str(exc)) from exc
    return base


def _worker_count(text: str) -> int:
    """Parse ``--workers``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}"
        )
    return value


def _workers(args) -> int:
    """``--workers``, capped at the number of CPUs."""
    return min(args.workers, os.cpu_count() or 1)


def _witness_doc(witness: Witness) -> dict:
    return {
        "orientation": witness.orientation,
        "policy": witness.policy.value,
        "initial": [[v, k] for v, k in witness.initial],
        "events": [
            {
                "vertex": event.vertex,
                "assignment": [
                    [arc, list(colour.members)]
                    for arc, colour in event.assignment
                ],
            }
            for event in witness.events
        ],
    }


def _witness_from_doc(doc: dict) -> Witness:
    return Witness(
        orientation=doc["orientation"],
        policy=Policy(doc["policy"]),
        initial=tuple((v, k) for v, k in doc["initial"]),
        events=tuple(
            FireEvent(
                vertex=event["vertex"],
                assignment=tuple(
                    (arc, ColourSet(tuple(members)))
                    for arc, members in event["assignment"]
                ),
            )
            for event in doc["events"]
        ),
    )


def _figures(quantity: Quantity, result: Outcome) -> dict:
    """The figures of a run, in the form and order documents give them."""
    return {
        "value": _scalar(quantity_value(quantity, result)),
        "cost": result.cost,
        "label_sum": result.label_sum,
        "raw_ratio": str(result.raw_ratio),
        "index": str(result.index),
    }


def _graph_doc(graph: Graph) -> dict:
    return {
        "vertices": graph.n,
        "edges": graph.m,
        "edge_list": [[u, v] for u, v in graph.edges],
    }


# ---- compute ----


def cmd_compute(args) -> int:
    if args.allocate is not None and args.quantity != "ratio-set":
        raise InputError("--allocate applies only to --quantity ratio-set")
    if args.replay:
        ignored = [
            flag
            for flag, given in (
                ("--family", args.family is not None),
                ("--input", args.input is not None),
                ("--quantity", args.quantity is not None),
                ("--mode", args.mode is not None),
                ("--orientation", args.orientation is not None),
                ("--max-edges", args.max_edges is not None),
                ("--policy", args.policy != Policy.SMALLEST.value),
                ("--workers", args.workers != 1),
            )
            if given
        ]
        if ignored:
            raise InputError(
                "--replay takes the graph and settings from the document; "
                f"drop {', '.join(ignored)}"
            )
        return _replay_check(args.replay)
    if args.quantity is None:
        raise InputError("--quantity is required (unless --replay is given)")
    if args.workers != 1 and (
        args.orientation is not None or args.quantity == "ratio-set"
    ):
        raise InputError(
            "--workers applies only to a search over every orientation; "
            "drop it with --orientation or --quantity ratio-set"
        )
    source, family = _load_graph(args)
    # ratio-set is not a Quantity; it implies no mode
    quantity = (
        None if args.quantity == "ratio-set" else Quantity(args.quantity)
    )
    try:
        mode = quantity_mode(quantity, Mode(args.mode) if args.mode else None)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    policy = Policy(args.policy)
    limits = _limits(args)
    graph = _built(source, limits)
    started = time.monotonic()

    doc = {
        "graph": _graph_doc(graph),
        "family": family,
        "mode": mode.value,
        "policy": policy.value,
        "quantity": args.quantity,
    }

    if quantity is None:
        if args.orientation is None or args.allocate is None:
            raise InputError(
                "ratio-set needs --orientation CODE and --allocate v:k[,...]"
            )
        digraph = _orientation(graph, args.orientation)
        plan = _parse_allocation(args.allocate, policy)
        try:
            values = ratio_set(digraph, mode, plan, limits)
        except ValueError as exc:
            # an allocation that names a vertex the graph lacks, or
            # from which no schedule completes
            raise InputError(str(exc)) from exc
        doc["orientation"] = args.orientation
        doc["allocation"] = [[v, k] for v, k in plan.initial]
        doc["value"] = [str(v) for v in sorted(values, reverse=True)]
        doc["witness"] = None
        doc["orientations_searched"] = 1
    else:
        if args.orientation is not None:
            digraph = _orientation(graph, args.orientation)
            report = best_index_for_orientation(
                digraph, mode, policy, limits
            )
            doc["orientation"] = args.orientation
        else:
            report = best_index(
                graph, mode, policy, limits, workers=_workers(args)
            )
        doc.update(_figures(quantity, report))
        doc["witness"] = _witness_doc(report.witness)
        doc["orientations_searched"] = report.orientations_searched

    if not args.no_timing:
        doc["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    print(json.dumps(doc, indent=2))
    return 0


def _orientation(graph: Graph, code: int) -> Digraph:
    if not 0 <= code < (1 << graph.m):
        raise InputError(
            f"orientation code {code} out of range for {graph.m} edges"
        )
    digraph = orient(graph, code)
    if not digraph.is_acyclic():
        raise InputError(f"orientation code {code} has a directed cycle")
    return digraph


def _replay_check(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON
        raise InputError(f"cannot load {path}: {exc}") from exc
    if not isinstance(doc, dict) or not doc.get("witness"):
        raise InputError("document carries no witness to replay")
    try:
        graph = Graph(
            doc["graph"]["vertices"],
            tuple((u, v) for u, v in doc["graph"]["edge_list"]),
        )
        witness = _witness_from_doc(doc["witness"])
        if not 0 <= witness.orientation < (1 << graph.m):
            raise ValueError(
                f"orientation code {witness.orientation} out of range"
            )
        quantity = Quantity(doc["quantity"])
        mode = quantity_mode(quantity, Mode(doc["mode"]))
        if "value" not in doc:
            raise KeyError("value")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed document: {exc}") from exc
    # a witness that breaks the process rules raises an EngineError
    try:
        outcome = replay(graph, mode, witness)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed document: {exc}") from exc
    # each figure the document gives, in the form ``compute`` writes it
    replayed = _figures(quantity, outcome)
    for key, value in replayed.items():
        if key in doc and doc[key] != value:
            print(
                f"replay mismatch: document says {key} = {doc[key]}, "
                f"witness gives {value}",
                file=sys.stderr,
            )
            return 4
    print(f"replay OK: {quantity.value} = {replayed['value']}")
    return 0


# ---- verify ----


@dataclasses.dataclass
class Row:
    name: str
    status: str
    detail: str = ""


def _row(name: str, got, want, printed: bool = False) -> Row:
    """PASS when ``got == want``.  Against a ``printed`` figure a lower
    engine value is a DISCREPANCY (a documented inconsistency) and a
    higher one a FAIL; any other disagreement is a FAIL."""
    if got == want:
        return Row(name, PASS)
    if not printed:
        return Row(name, FAIL)
    if got < want:
        return Row(name, DISCREPANCY, f"engine optimum {got} beats printed {want}")
    return Row(name, FAIL, f"engine {got} exceeds printed {want}")


def _family(text: str) -> Graph:
    return build_family(parse_family_spec(text))


def _searches(limits: SearchLimits):
    """``best(spec, mode)`` over all orientations and ``fixed(spec, mode,
    code)`` on one, each searching a distinct argument list once.  Each
    family is built once, so its searches share its orientation space."""
    family = functools.cache(_family)

    @functools.cache
    def best(spec: str, mode: Mode) -> IndexReport:
        return best_index(family(spec), mode, limits=limits)

    @functools.cache
    def fixed(spec: str, mode: Mode, code: int) -> IndexReport:
        digraph = orient(family(spec), code)
        return best_index_for_orientation(digraph, mode, limits=limits)

    return best, fixed


def _suite_paper_anchors(limits: SearchLimits) -> list[Row]:
    best, fixed = _searches(limits)
    blend, fsg = Mode.BLEND, Mode.FSG
    c7 = orient(_family("cycle:7"), 0)
    # the symmetric orientation turns round every edge whose tail is vertex 1
    edges = enumerate(_family("joost:4,7").edges)
    sym = sum(1 << i for i, (u, _) in edges if u == 1)
    stars, paths = range(1, 11), range(3, 7)
    return [
        *(
            _row(f"tau(C{n}) == 2", best(f"cycle:{n}", blend).cost, 2)
            for n in range(3, 9)
        ),
        _row(
            "C7 ratio set == {7/16,7/18,7/26,7/30,7/38,7/40}",
            ratio_set(c7, blend, AllocationPlan(((0, 2),), Policy.SMALLEST), limits),
            frozenset(Fraction(7, s) for s in (16, 18, 26, 30, 38, 40)),
        ),
        _row("C7 best index == 7/16", best("cycle:7", blend).index, Fraction(7, 16)),
        _row(
            "Joost(4,7) symmetric orientation label sum == 72",
            fixed("joost:4,7", blend, sym).label_sum, 72,
        ),
        _row(
            "Joost(4,7) symmetric orientation index == 7/72",
            fixed("joost:4,7", blend, sym).index, Fraction(7, 72),
        ),
        _row("tau(Joost(4,7)) == 3", best("joost:4,7", blend).cost, 3),
        _row(
            "Joost(4,7) blend label sum vs printed 72",
            best("joost:4,7", blend).label_sum, 72, printed=True,
        ),
        _row("tau(Fr(3,6)) == 4", best("friendship:3,6", blend).cost, 4),
        _row(
            "Fr(3,6) best index >= 1/14",
            best("friendship:3,6", blend).index >= Fraction(1, 14), True,
        ),
        _row(
            "Fr(3,6) blend label sum vs printed 63",
            best("friendship:3,6", blend).label_sum, 63, printed=True,
        ),
        *(
            _row(f"btau(Fr(3,{n})) == {b}", best(f"friendship:3,{n}", fsg).cost, b)
            for n, b in ((2, 2), (3, 4), (4, 6))
        ),
        _row(
            "Fr(3,2) fsg index == 3/8",
            best("friendship:3,2", fsg).index, Fraction(3, 8),
        ),
        *(
            _row(f"btau(Joost({n},{k})) == {k}", best(f"joost:{n},{k}", fsg).cost, k)
            for k in (1, 2, 3)
            for n in (3, 4, 5)
        ),
        _row(
            "out-star blend cost == ceil(log2(t+1)), t=1..10",
            [fixed(f"star:{t}", blend, 0).cost for t in stars],
            [t.bit_length() for t in stars],
        ),
        _row(
            "paths have index 1 (n=3..6)",
            [best(f"path:{n}", blend).index for n in paths],
            [1] * len(paths),
        ),
    ]


def _suite_closed_forms(limits: SearchLimits) -> list[Row]:
    best, _ = _searches(limits)
    cycles = range(3, 9)

    def fsg_rows(label: str, spec: str, form) -> tuple[Row, Row]:
        engine = best(spec, Mode.FSG)
        return (
            _row(
                f"btau({label}) == closed form {form.b_tau}", engine.cost, form.b_tau
            ),
            _row(
                f"{label} fsg label sum vs closed form",
                engine.label_sum, form.label_sum, printed=True,
            ),
        )

    triangle = fr3_formulas(2).label_sum
    general = general_fr_formulas(((3, 2),)).label_sum
    return [
        _row(
            "tau(C_n) == cycle closed form, n=3..8",
            [best(f"cycle:{n}", Mode.BLEND).cost for n in cycles],
            [cycle_tau(n) for n in cycles],
        ),
        *(
            row
            for n in (2, 3, 4)
            for row in fsg_rows(
                f"Fr(3,{n})", f"friendship:3,{n}", fr3_formulas(n)
            )
        ),
        _row(
            "Fr(3,2) fsg label sum vs general windmill form",
            best("friendship:3,2", Mode.FSG).label_sum, general, printed=True,
        ),
        Row(
            "triangle vs general windmill forms agree on Fr(3,2)",
            PASS if triangle == general else DISCREPANCY,
            f"{triangle} vs {general}",
        ),
        *(
            row
            for k in (1, 2, 3)
            for n in (3, 4, 5)
            for row in fsg_rows(
                f"Joost({n},{k})", f"joost:{n},{k}", joost_formulas(n, k)
            )
        ),
    ]


def _suite_oracle(limits: SearchLimits) -> list[Row]:
    rows = []
    for graph in connected_graph_corpus(5):
        got, want = [], []
        for mode in Mode:
            r = best_index(graph, mode, limits=limits)
            o = oracle_invariants(graph, mode)
            got.append(
                (r.cost, r.label_sum, r.raw_ratio, r.index, r.orientations_searched)
            )
            want.append((o.cost, o.label_sum, o.raw_ratio, o.index, o.orientations))
        name = f"n={graph.n} m={graph.m} edges={list(graph.edges)}"
        rows.append(_row(f"oracle == optimizer on {name}", got, want))
    return rows


_SUITES = {
    "paper-anchors": _suite_paper_anchors,
    "closed-forms": _suite_closed_forms,
    "oracle": _suite_oracle,
}


def cmd_verify(args) -> int:
    suite = _SUITES.get(args.suite)
    if suite is None:
        raise InputError(
            f"unknown suite {args.suite!r}: "
            f"choose from {', '.join(sorted(_SUITES))}"
        )
    rows = suite(_limits(args))
    counts = {PASS: 0, FAIL: 0, DISCREPANCY: 0}
    for row in rows:
        counts[row.status] += 1
    if args.json:
        rows_doc = [vars(r) for r in rows]  # name, status, detail
        doc = {"suite": args.suite, "rows": rows_doc, "counts": counts}
        print(json.dumps(doc, indent=2))
    else:
        for row in rows:
            line = f"{row.name}: {row.status}"
            if row.detail:
                line += f"  ({row.detail})"
            print(line)
        print(
            f"{counts[PASS]} pass, {counts[DISCREPANCY]} discrepancy, "
            f"{counts[FAIL]} fail"
        )
    return 0 if counts[FAIL] == 0 else 1


# ---- sweep ----


def _vertex_pair(k: int) -> tuple[int, int]:
    """The ``k``-th vertex pair ``(u, v)``, ``u < v``, ordered by ``v``
    and then ``u``."""
    v = (1 + math.isqrt(1 + 8 * k)) // 2
    return k - v * (v - 1) // 2, v


# the flags that fill each family's spec body (``4,3`` in ``joost:4,3``),
# slot by slot, and what each holds: a RANGE to walk, a SPEC taken whole,
# or the default of a single value
_SWEEP_SLOTS = {
    **dict.fromkeys(("cycle", "path", "star", "wheel"), {"n": "RANGE"}),
    "friendship": {"q": 3, "n": "RANGE"},
    "joost": {"n": "RANGE", "k": "RANGE"},
    "genfriendship": {"blocks": "SPEC"},
}
_RANDOM_FLAGS = ("vertices", "edges", "count", "seed")
# every flag that only some sweep families read
_FAMILY_FLAGS = ("n", "k", "q", "blocks", *_RANDOM_FLAGS)
_COLUMNS = (
    "family", "params", "vertices", "edges", "br", "btau", "tau",
    "labelsum", "index", "runtime_ms", "status",
)


def _sweep_instances(
    args,
) -> list[tuple[str, FamilySpec | Graph | None, str]]:
    """(params, source, error) per requested instance: a family spec,
    unbuilt, whose body is the params, or a random graph; or None and why
    the spec is refused.

    A family-specific flag given to a family that does not read it is
    refused, as is a missing one that it needs."""
    reads = (
        _RANDOM_FLAGS
        if args.family == "random"
        else _SWEEP_SLOTS.get(args.family)
    )
    if reads is None:
        raise InputError(f"unknown sweep family {args.family!r}")
    given = vars(args)
    ignored = [
        f"--{flag}"
        for flag in _FAMILY_FLAGS
        if flag not in reads and given[flag] is not None
    ]
    if ignored:
        raise InputError(
            f"{args.family} sweeps do not read {', '.join(ignored)}"
        )
    if args.family == "random":
        return _random_instances(args)
    for flag, holds in reads.items():
        if (
            holds == "RANGE" and given[flag] is None
            or holds == "SPEC" and not given[flag]
        ):
            raise InputError(f"{args.family} sweeps need --{flag} {holds}")
    ranges = [
        _parse_range(given[flag])
        if holds == "RANGE"
        else [holds if given[flag] is None else given[flag]]
        for flag, holds in reads.items()
    ]
    out = []
    for combo in itertools.product(*ranges):
        body = ",".join(map(str, combo))
        try:
            out.append((body, parse_family_spec(f"{args.family}:{body}"), ""))
        except ValueError as exc:
            out.append((body, None, str(exc)))
    return out


def _random_instances(args) -> list[tuple[str, Graph, str]]:
    n, m = args.vertices, args.edges
    if n is None or m is None:
        raise InputError("random sweeps need --vertices N and --edges M")
    count = 1 if args.count is None else args.count
    seed = 0 if args.seed is None else args.seed
    if count < 1:
        raise InputError("--count must be at least 1")
    if n < 2 or not n - 1 <= m <= n * (n - 1) // 2:
        raise InputError(
            "a connected graph on --vertices N >= 2 needs "
            "N-1 <= --edges <= N(N-1)/2"
        )
    rng = random.Random(seed)
    out: list[tuple[str, Graph, str]] = []
    attempts = 0
    while len(out) < count and attempts < 1000 * count:
        attempts += 1
        picks = rng.sample(range(n * (n - 1) // 2), m)
        try:
            graph = Graph(n, tuple(map(_vertex_pair, picks)))
        except DisconnectedGraphError:
            continue
        out.append((f"{n},{m}#{len(out)}", graph, ""))
    if len(out) < count:
        raise InputError(
            "could not sample enough connected graphs; "
            "raise --edges or lower --vertices"
        )
    return out


def _sweep_row(family, mode, policy, limits, instance) -> dict:
    params, source, error = instance
    row = dict.fromkeys(_COLUMNS, "")
    row.update(family=family, params=params)
    if source is None:
        row["status"] = f"refused: {error}"
        return row
    row.update(vertices=source.n, edges=source.m)
    started = time.monotonic()
    try:
        graph = _built(source, limits)
        # the chosen mode is one of the three cost modes
        reports = {}
        for quantity, cost_mode in COST_MODES.items():
            reports[cost_mode] = best_index(graph, cost_mode, policy, limits)
            row[quantity.value] = reports[cost_mode].cost
        row["labelsum"] = reports[mode].label_sum
        row["index"] = str(reports[mode].index)
        row["status"] = "ok"
    except LimitError as exc:
        row["status"] = f"refused: {exc}"
    row["runtime_ms"] = int((time.monotonic() - started) * 1000)
    return row


def cmd_sweep(args) -> int:
    instances = _sweep_instances(args)
    row_of = functools.partial(
        _sweep_row,
        args.family,
        Mode(args.mode) if args.mode else Mode.BLEND,
        Policy(args.policy),
        _limits(args),
    )
    workers = _workers(args)
    columns = [
        c for c in _COLUMNS if not (args.no_timing and c == "runtime_ms")
    ]

    # open the CSV first, so that a path it cannot write costs no search
    try:
        handle = open(args.csv, "w", encoding="utf-8") if args.csv else None
    except OSError as exc:
        raise InputError(f"cannot write {args.csv}: {exc}") from exc
    if workers > 1 and len(instances) > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            rows = pool.map(row_of, instances)
    else:
        rows = [row_of(i) for i in instances]
    try:
        with handle or contextlib.nullcontext(sys.stdout) as out:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([row[c] for c in columns])
    except OSError as exc:  # a full disk: the file fails on close
        # (standard output is a buffer until the command is done)
        raise InputError(f"cannot write {args.csv}: {exc}") from exc
    return 0 if any(row["status"] == "ok" for row in rows) else 1


# ---- argument surface ----


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tattoo",
        description=(
            "Exact brush, tattoo, and index invariants of small connected "
            "graphs."
        ),
    )
    # the flags several subcommands share, each declared once
    limited = argparse.ArgumentParser(add_help=False)
    limited.add_argument("--max-edges", type=int)
    searching = argparse.ArgumentParser(add_help=False, parents=[limited])
    searching.add_argument("--mode", choices=[m.value for m in Mode])
    searching.add_argument(
        "--policy",
        choices=[p.value for p in Policy],
        default=Policy.SMALLEST.value,
    )
    searching.add_argument("--workers", type=_worker_count, default=1)
    searching.add_argument(
        "--no-timing",
        action="store_true",
        help="omit timings for byte-stable output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute",
        parents=[searching],
        help="one invariant of one graph, as JSON",
    )
    compute.add_argument("--input", help="edge-list file; one 'u v' per line")
    compute.add_argument(
        "--family", help="family spec such as cycle:7 or friendship:3,6"
    )
    compute.add_argument(
        "--quantity", choices=[q.value for q in Quantity] + ["ratio-set"]
    )
    compute.add_argument(
        "--orientation",
        type=int,
        help="restrict to one orientation (bit i flips edge i)",
    )
    compute.add_argument(
        "--allocate", help="initial allocation v:k[,v:k...] for ratio-set"
    )
    compute.add_argument(
        "--replay",
        metavar="FILE",
        help="re-run a saved document's witness and compare values",
    )
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser(
        "verify",
        parents=[limited],
        help="run a verification suite with PASS/FAIL rows",
    )
    verify.add_argument(
        "--suite",
        required=True,
        help="paper-anchors, closed-forms, or oracle",
    )
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser(
        "sweep",
        parents=[searching],
        help="tabulate invariants over a family range, as CSV",
    )
    sweep.add_argument("--family", required=True)
    sweep.add_argument("--n", help="range N or A..B")
    sweep.add_argument("--k", help="range for the second slot")
    sweep.add_argument(
        "--q", type=int, help="cycle length for friendship sweeps (default 3)"
    )
    sweep.add_argument("--blocks")
    sweep.add_argument("--vertices", type=int)
    sweep.add_argument("--edges", type=int)
    sweep.add_argument("--count", type=int, help="default 1")
    sweep.add_argument("--seed", type=int, help="default 0")
    sweep.add_argument("--csv", metavar="FILE")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # a command's standard output is written once it is done, so that a
    # failed write is told apart from a failed search
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("refused: out of memory", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"inconsistent result: {exc}", file=sys.stderr)
        return 4
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe (``| head``) or a full disk
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        # send the interpreter's last flush of what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
