"""Headline guarantees, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each test prints "criterion N (title): PASS" or ": FAIL (...)" and then
asserts, so a red test always names the sub-check that broke.

Two criteria are red on purpose.  They pin engine output to printed
closed-form figures (the triangle-friendship index at n = 3 and the
three-path raw ratios) that the optimizer strictly improves on; the
improved optima are oracle-confirmed at every size the oracle can
reach, so the package reports the better values and these two checks
fail loudly instead of encoding numbers the engine cannot reproduce.
The verify command classifies the same disagreements as DISCREPANCY
rows.
"""

from __future__ import annotations

import json
from fractions import Fraction

from tattooing.cli import main
from tattooing.engine import AllocationPlan, Mode, Policy
from tattooing.formulas import fr3_formulas, joost_formulas
from tattooing.graphs import Digraph, Graph, build_family, parse_family_spec
from tattooing.oracle import connected_graph_corpus, oracle_invariants
from tattooing.search import (
    SearchLimits,
    best_index,
    best_index_for_orientation,
    ratio_set,
)

LIMITS = SearchLimits(max_edges=22, time_budget=None)

Check = tuple[str, bool]


def criterion(number: int, title: str, checks: list[Check]) -> None:
    bad = [name for name, ok in checks if not ok]
    status = "PASS" if not bad else "FAIL (" + "; ".join(bad) + ")"
    print(f"criterion {number} ({title}): {status}")
    assert not bad, f"criterion {number} ({title}): {bad}"


def family(text: str) -> Graph:
    return build_family(parse_family_spec(text))


def verify_rows(capsys, suite: str) -> dict:
    code = main(["verify", "--suite", suite, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    return {row["name"]: row["status"] for row in doc["rows"]}


def test_criterion_1_cycle_tattoo_number():
    checks = [
        (
            f"tau(C_{n}) == 2",
            best_index(family(f"cycle:{n}"), Mode.BLEND, limits=LIMITS).cost
            == 2,
        )
        for n in range(3, 9)
    ]
    criterion(1, "cycle tattoo number", checks)


def test_criterion_2_c7_ratio_set():
    c7 = family("cycle:7")
    ratios = ratio_set(
        Digraph(c7, c7.edges),
        Mode.BLEND,
        AllocationPlan.from_counts({0: 2}, Policy.SMALLEST),
        LIMITS,
    )
    wanted = {
        Fraction(7, 16),
        Fraction(7, 18),
        Fraction(7, 26),
        Fraction(7, 30),
        Fraction(7, 38),
        Fraction(7, 40),
    }
    best = best_index(c7, Mode.BLEND, limits=LIMITS)
    checks = [
        ("fixed-orientation ratio set", ratios == wanted),
        ("best index == 7/16", best.index == Fraction(7, 16)),
    ]
    criterion(2, "C7 ratio set", checks)


def test_criterion_3_joost_anchor():
    g = family("joost:4,7")
    # orient every path away from junction 0 and into junction 1
    arcs = tuple((v, u) if u == 1 else (u, v) for u, v in g.edges)
    report = best_index_for_orientation(
        Digraph(g, arcs), Mode.BLEND, Policy.SMALLEST, LIMITS
    )
    checks = [
        ("tau == 3", report.cost == 3),
        ("label sum == 72", report.label_sum == 72),
        ("index == 7/72", report.index == Fraction(7, 72)),
    ]
    criterion(3, "seven-path anchor, symmetric orientation", checks)


def test_criterion_4_friendship_anchor(
    capsys, shared_searches, memoised_searches
):
    rows = verify_rows(capsys, "paper-anchors")
    # the suite's own search, called as ``verify`` calls it
    report = memoised_searches.best_index(
        family("friendship:3,6"), Mode.BLEND, limits=SearchLimits()
    )
    surfaced = rows.get("Fr(3,6) blend label sum vs printed 63")
    checks = [
        ("tau == 4", report.cost == 4),
        ("index >= 1/14", report.index >= Fraction(1, 14)),
        (
            "label-sum disagreement surfaced, not silent",
            surfaced == "DISCREPANCY",
        ),
    ]
    criterion(4, "six-triangle anchor", checks)


def test_criterion_5_fsg_friendship(capsys):
    checks: list[Check] = []
    for n in (2, 3, 4):
        engine = best_index(family(f"friendship:3,{n}"), Mode.FSG, limits=LIMITS)
        checks.append(
            (f"btau(Fr(3,{n})) == {2 * (n - 1)}", engine.cost == 2 * (n - 1))
        )
        if n in (2, 3):
            printed = fr3_formulas(n).fsg_index
            checks.append(
                (
                    f"index(Fr(3,{n})) == printed {printed}"
                    f" [engine: {engine.index}]",
                    engine.index == printed,
                )
            )
    rows = verify_rows(capsys, "closed-forms")
    checks.append(
        (
            "Fr(3,4) label-sum row is DISCREPANCY",
            rows.get("Fr(3,4) fsg label sum vs closed form") == "DISCREPANCY",
        )
    )
    criterion(5, "single-colour friendship", checks)


def test_criterion_6_fsg_joost():
    checks: list[Check] = []
    for k in (1, 2, 3):
        for n in (3, 4, 5):
            engine = best_index(family(f"joost:{n},{k}"), Mode.FSG, limits=LIMITS)
            printed = joost_formulas(n, k)
            checks.append((f"btau(Joost({n},{k})) == {k}", engine.cost == k))
            checks.append(
                (
                    f"raw ratio Joost({n},{k}) == printed {printed.raw_ratio}"
                    f" [engine: {engine.raw_ratio}]",
                    engine.raw_ratio == printed.raw_ratio,
                )
            )
    criterion(6, "single-colour parallel paths", checks)


def test_criterion_7_out_star_log_bound():
    checks = []
    for t in range(1, 11):
        star = Graph(t + 1, tuple((0, leaf) for leaf in range(1, t + 1)))
        result = best_index_for_orientation(
            Digraph(star, star.edges), Mode.BLEND, Policy.SMALLEST, LIMITS
        )
        checks.append(
            (f"cost(out-star {t}) == {t.bit_length()}",
             result.cost == t.bit_length())
        )
    criterion(7, "out-star log bound", checks)


def test_criterion_8_oracle_equivalence():
    checks = []
    for graph in connected_graph_corpus(5):
        for mode in Mode:
            engine = best_index(graph, mode, limits=LIMITS)
            oracle = oracle_invariants(graph, mode)
            agree = (
                engine.cost == oracle.cost
                and engine.label_sum == oracle.label_sum
                and engine.raw_ratio == oracle.raw_ratio
                and engine.index == oracle.index
            )
            checks.append(
                (f"n={graph.n} m={graph.m} {mode.value}", agree)
            )
    criterion(8, "oracle equivalence on the small-graph corpus", checks)


def test_criterion_9_order_properties():
    checks: list[Check] = []
    for graph in connected_graph_corpus(5):
        tag = f"n={graph.n} m={graph.m}"
        br = best_index(graph, Mode.BRUSH, limits=LIMITS)
        btau = best_index(graph, Mode.FSG, limits=LIMITS)
        tau = best_index(graph, Mode.BLEND, limits=LIMITS)
        checks.append((f"{tag}: br <= btau", br.cost <= btau.cost))
        checks.append((f"{tag}: tau <= btau", tau.cost <= btau.cost))
        checks.append(
            (f"{tag}: index <= 1/tau", tau.index <= Fraction(1, tau.cost))
        )
        checks.append(
            (
                f"{tag}: label sums >= edge count",
                min(br.label_sum, btau.label_sum, tau.label_sum) >= graph.m,
            )
        )
    for n in range(2, 11):
        checks.append(
            (
                f"index(P_{n}) == 1",
                best_index(family(f"path:{n}"), Mode.BLEND, limits=LIMITS).index
                == 1,
            )
        )
    criterion(9, "order-theoretic properties", checks)


def test_criterion_10_parallel_determinism(capsys):
    def compute(spec: str, quantity: str, workers: str) -> str:
        code = main(
            [
                "compute",
                "--family",
                spec,
                "--mode",
                "blend",
                "--quantity",
                quantity,
                "--workers",
                workers,
                "--no-timing",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        return out

    checks = []
    for spec, quantity in (("friendship:3,6", "index"), ("cycle:7", "tau")):
        serial = compute(spec, quantity, "1")
        parallel = compute(spec, quantity, "4")
        witnessed = json.loads(serial)["witness"] is not None
        checks.append((f"{spec}: serial == parallel", serial == parallel))
        checks.append((f"{spec}: witness present", witnessed))
    criterion(10, "serial and parallel runs are byte-identical", checks)
