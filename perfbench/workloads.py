"""The benchmark's workloads: the inputs a seed makes, and output checks.

Seed 0 runs each family in its own vertex layout, and its outputs must
equal the recorded references byte for byte.  A nonzero seed relabels
the vertices before the input reaches the program: an ``--input`` edge
list for ``joost-tau``, and for ``ratio-set`` an edge list with the
orientation code and allocation remapped.  The relabelling is fixed by
the seed alone, so every child of a run measures the same input.  The
values are invariant under relabelling, but the work is not, so compare
commits only on the same seeds.

Two workloads ignore the seed.  ``friendship-sweep`` takes only family
specs.  ``oracle-xcheck`` runs the corpus as generated: relabelling its
graphs makes the oracle's exhaustive search cost heavy-tailed (one
corpus graph took 5 s instead of 0.3 s under one seed), so a run of one
child would measure the draw rather than the program.

The references in ``reference/`` are the seed-0 outputs of the program
at the commit that added the benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"


def permutation(n: int, *key) -> list[int]:
    """A vertex relabelling fixed by ``key``, the same on every platform."""
    perm = list(range(n))
    random.Random(":".join(str(k) for k in ("perfbench",) + key)).shuffle(perm)
    return perm


def relabel(edges, perm) -> list[list[int]]:
    """Edges under ``perm``, in the package's canonical order."""
    return sorted(
        sorted((perm[u], perm[v])) for u, v in edges
    )


def _reference_doc(name: str) -> dict:
    return json.loads((REFERENCE / name).read_bytes())


@dataclass(frozen=True)
class Case:
    """One child run: its argument vector and what its output must show."""

    argv: list[str]
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    imports: str
    seed_applied: bool
    # the output carries a witness, replayed with ``tattoo compute --replay``
    replay: bool
    # spans that must fire in a traced run, so a rename stops the benchmark
    required_spans: tuple[str, ...]
    case: Callable[[int, Path], Case]
    check: Callable[[bytes, Case], str | None]


def _write_edges(workdir: Path, tag: str, edges) -> str:
    path = workdir / f"{tag}.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    return str(path)


# ---- joost-tau ----

JOOST_ARGV = ["compute", "--quantity", "tau", "--workers", "1", "--no-timing"]


def _joost_case(seed: int, workdir: Path) -> Case:
    ref = _reference_doc("joost-tau.json")
    if seed == 0:
        return Case(["cli", *JOOST_ARGV, "--family", "joost:4,6"], {"seed": 0})
    graph = ref["graph"]
    edges = relabel(graph["edge_list"], permutation(graph["vertices"], seed))
    path = _write_edges(workdir, f"joost-tau-{seed}", edges)
    return Case(["cli", *JOOST_ARGV, "--input", path], {"seed": seed, "edges": edges})


def _joost_check(out: bytes, case: Case) -> str | None:
    ref_bytes = (REFERENCE / "joost-tau.json").read_bytes()
    if case.expect["seed"] == 0:
        return None if out == ref_bytes else "output differs from the reference"
    ref = json.loads(ref_bytes)
    doc = json.loads(out)
    for key in ("mode", "policy", "quantity", "value", "cost", "label_sum",
                "raw_ratio", "index", "orientations_searched"):
        if doc.get(key) != ref[key]:
            return f"{key} is {doc.get(key)!r}, expected {ref[key]!r}"
    if doc["graph"]["edge_list"] != case.expect["edges"]:
        return "output describes another graph than the input"
    return None


# ---- friendship-sweep ----

SWEEP_ARGV = ["sweep", "--family", "friendship", "--n", "2..5", "--mode", "fsg",
              "--workers", "1", "--no-timing"]


def _sweep_case(seed: int, workdir: Path) -> Case:
    return Case(["cli", *SWEEP_ARGV], {})


def _sweep_check(out: bytes, case: Case) -> str | None:
    ref = (REFERENCE / "friendship-sweep.csv").read_bytes()
    return None if out == ref else "CSV differs from the reference"


# ---- ratio-set ----

RATIO_ARGV = ["compute", "--quantity", "ratio-set", "--workers", "1", "--no-timing"]


def _ratio_case(seed: int, workdir: Path) -> Case:
    if seed == 0:
        return Case(
            ["cli", *RATIO_ARGV, "--family", "friendship:3,2",
             "--orientation", "0", "--allocate", "0:4"],
            {"seed": 0},
        )
    ref = _reference_doc("ratio-set.json")
    graph = ref["graph"]
    perm = permutation(graph["vertices"], seed)
    edges = relabel(graph["edge_list"], perm)
    # the reference orientation points every edge from low to high id
    code = 0
    for u, v in graph["edge_list"]:
        tail, head = perm[u], perm[v]
        if tail > head:
            code |= 1 << edges.index(sorted((tail, head)))
    allocate = ",".join(f"{perm[v]}:{k}" for v, k in ref["allocation"])
    path = _write_edges(workdir, f"ratio-set-{seed}", edges)
    return Case(
        ["cli", *RATIO_ARGV, "--input", path, "--orientation", str(code),
         "--allocate", allocate],
        {"seed": seed},
    )


def _ratio_check(out: bytes, case: Case) -> str | None:
    ref_bytes = (REFERENCE / "ratio-set.json").read_bytes()
    if case.expect["seed"] == 0:
        return None if out == ref_bytes else "output differs from the reference"
    got = json.loads(out)["value"]
    want = json.loads(ref_bytes)["value"]
    return None if got == want else f"{len(got)} ratios, expected the {len(want)} recorded"


# ---- oracle-xcheck ----

def _oracle_case(seed: int, workdir: Path) -> Case:
    return Case(["oracle-xcheck"], {})


def _oracle_check(out: bytes, case: Case) -> str | None:
    doc = json.loads(out)
    want = _reference_doc("oracle-xcheck.json")["pairs"]
    for pair in doc["pairs"]:
        graph, mode, policy, oracle, optimizer = pair
        if oracle != optimizer:
            return (f"graph {graph} {mode}/{policy}: oracle {oracle}, "
                    f"optimizer {optimizer}")
    if doc["pairs"] != want:
        return f"{len(doc['pairs'])} pairs differ from the {len(want)} recorded"
    return None


def oracle_xcheck() -> dict:
    """Cross-check the optimizer against the oracle on the 6-edge corpus.

    Every graph is run in every mode under both policies.  Names are
    looked up on the modules at call time, so traced wrappers apply.
    """
    from tattooing import engine, oracle, search

    corpus = oracle.connected_graph_corpus(6)
    pairs = []
    for gi, graph in enumerate(corpus):
        for mode in engine.Mode:
            for policy in engine.Policy:
                o = oracle.oracle_invariants(graph, mode, policy)
                r = search.best_index(graph, mode, policy)
                pairs.append([
                    gi, mode.value, policy.value,
                    [o.cost, o.label_sum, str(o.raw_ratio), str(o.index),
                     o.orientations],
                    [r.cost, r.label_sum, str(r.raw_ratio), str(r.index),
                     r.orientations_searched],
                ])
    return {"corpus_graphs": len(corpus), "pairs": pairs}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "joost-tau", "import tattooing.cli", True, True,
            ("cli.main", "search.best_index",
             "graphs.collect_acyclic_orientation_bits", "engine.replay"),
            _joost_case, _joost_check,
        ),
        Workload(
            "friendship-sweep", "import tattooing.cli", False, False,
            ("cli.main", "search.best_index", "search.iso_wl", "search.iso_vf2"),
            _sweep_case, _sweep_check,
        ),
        Workload(
            "ratio-set", "import tattooing.cli", True, False,
            ("cli.main", "search.ratio_set", "engine.fire",
             "engine.ready_vertices", "engine.mutate_pool"),
            _ratio_case, _ratio_check,
        ),
        Workload(
            "oracle-xcheck", "import tattooing.oracle, tattooing.search", False, False,
            ("oracle.connected_graph_corpus", "oracle.oracle_invariants",
             "search.best_index", "engine.replay"),
            _oracle_case, _oracle_check,
        ),
    )
}
