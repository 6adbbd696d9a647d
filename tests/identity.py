"""Digests of the search's outputs, to check a change that must keep them.

Run ``PYTHONPATH=src python tests/identity.py`` in a checkout of the
change, and the same script with ``PYTHONPATH`` pointing at its parent's
``src``, and compare what they print.  Each line is the sha256 of one
part of the identity set, over the JSON documents of its reports
(witnesses included, as the search golden writes them):

* ``corpus``: ``best_index`` on ``connected_graph_corpus(6)``;
* ``fixed``: ``best_index_for_orientation`` on every acyclic orientation
  of ``connected_graph_corpus(5)``;
* ``families``: ``best_index`` with two workers on the families of the
  search golden;
* ``ratios``: ``ratio_set`` on every acyclic orientation of
  ``connected_graph_corpus(5)``, with one and then two primaries at
  every source, each ratio set written as its sorted ratio strings or
  its ``ValueError`` text;
* ``oracle``: ``oracle_invariants`` on ``connected_graph_corpus(6)``,
  each result written as its cost, label sum, raw ratio, index and
  number of orientations;

each in every mode and under every policy.  With ``--ticks`` two last
lines follow.  ``ticks C F G`` sums the units of work
(``_Searcher.clock.ticks``) of the searches of the first three parts;
the families are searched once more, serially, for ``G``, as the ticks
of worker processes do not come back.  ``oracle_dfs N`` counts the calls
of the oracle's DFS in the ``oracle`` part, so it shows whether the
oracle's search tree changed.  Pytest does not collect this file, as
its name does not start with ``test_``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import partial

from test_search_golden import FAMILIES, LIMITS, _report_doc

from tattooing import oracle, search
from tattooing.engine import AllocationPlan, Mode, Policy
from tattooing.graphs import (
    Graph,
    build_family,
    collect_acyclic_orientation_bits,
    orient,
    parse_family_spec,
)
from tattooing.oracle import connected_graph_corpus, oracle_invariants
from tattooing.search import best_index, best_index_for_orientation, ratio_set

# the clock of every search built in this process, as the public entry
# points build it
_clocks: list = []


class _Noted(search._Searcher):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _clocks.append(self.clock)


search._Searcher = _Noted

# calls of the oracle's DFS, which finds itself, as its callers do,
# through the module global
_dfs_calls = [0]
_dfs = oracle._dfs


def _counted_dfs(*args):
    _dfs_calls[0] += 1
    return _dfs(*args)


oracle._dfs = _counted_dfs


def _label(graph: Graph) -> str:
    return "-".join(f"{u}{v}" for u, v in graph.edges)


def corpus() -> list:
    return [
        (_label(g), partial(best_index, g)) for g in connected_graph_corpus(6)
    ]


def fixed() -> list:
    return [
        (
            f"{_label(g)} {code}",
            partial(best_index_for_orientation, orient(g, code)),
        )
        for g in connected_graph_corpus(5)
        for code in collect_acyclic_orientation_bits(g)
    ]


def families(workers: int = 2) -> list:
    cases = []
    for spec in FAMILIES:
        g = build_family(parse_family_spec(spec))
        cases.append((spec, partial(best_index, g, workers=workers)))
    return cases


def ratios() -> list:
    """The ratio sets of the ``ratios`` part, one document each."""
    docs = []
    for g in connected_graph_corpus(5):
        for code in collect_acyclic_orientation_bits(g):
            d = orient(g, code)
            sources = [v for v in range(g.n) if d.in_degree(v) == 0]
            for mode in Mode:
                for policy in Policy:
                    for k in (1, 2):
                        plan = AllocationPlan.from_counts(
                            dict.fromkeys(sources, k), policy
                        )
                        try:
                            got = sorted(
                                map(str, ratio_set(d, mode, plan, LIMITS))
                            )
                        except ValueError as e:
                            got = str(e)
                        docs.append(
                            [_label(g), code, mode.value, policy.value, k, got]
                        )
    return docs


def oracles() -> list:
    """The oracle's results of the ``oracle`` part, one document each."""
    return [
        [
            _label(g), mode.value, policy.value,
            r.cost, r.label_sum, str(r.raw_ratio), str(r.index), r.orientations,
        ]
        for g in connected_graph_corpus(6)
        for mode in Mode
        for policy in Policy
        for r in [oracle_invariants(g, mode, policy)]
    ]


def _sha(docs: list) -> str:
    text = json.dumps(docs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest(cases: list) -> tuple[int, str, int]:
    """Number of reports, the sha256 of their documents and the ticks of
    the searches run in this process; each case is a key and a search to
    call with a mode, a policy and limits."""
    _clocks.clear()
    docs = [
        [
            f"{key} {mode.value} {policy.value}",
            _report_doc(run(mode, policy, LIMITS)),
        ]
        for key, run in cases
        for mode in Mode
        for policy in Policy
    ]
    return len(docs), _sha(docs), sum(clock.ticks for clock in _clocks)


if __name__ == "__main__":
    work = []
    for part in (corpus, fixed, families):
        size, sha, ticks = digest(part())
        sys.stdout.write(f"{part.__name__} {size} {sha}\n")
        work.append(ticks)
    for name, part in (("ratios", ratios), ("oracle", oracles)):
        docs = part()
        sys.stdout.write(f"{name} {len(docs)} {_sha(docs)}\n")
    if "--ticks" in sys.argv[1:]:
        work[-1] = digest(families(workers=1))[2]
        sys.stdout.write(f"ticks {' '.join(map(str, work))}\n")
        sys.stdout.write(f"oracle_dfs {_dfs_calls[0]}\n")
