#!/usr/bin/env python3
"""Print a side-by-side invariant table for one graph family.

Example:

    python scripts/family_report.py --family cycle --n 3..8
    python scripts/family_report.py --family friendship --q 3 --n 2..4
"""

from __future__ import annotations

import argparse
import sys

from tattooing import (
    LimitError,
    Mode,
    SearchLimits,
    best_index,
    build_family,
    parse_family_spec,
)


def parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return range(int(text), int(text) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="cycle")
    parser.add_argument("--n", default="3..8", type=parse_range)
    parser.add_argument("--q", type=int, help="cycle length for friendship")
    parser.add_argument("--k", type=int, help="path count for joost")
    parser.add_argument("--max-edges", type=int, default=None)
    args = parser.parse_args()
    try:
        report(args)
    except ValueError as exc:  # a bad family spec or edge limit
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    return 0


def report(args) -> None:
    limits = SearchLimits() if args.max_edges is None else SearchLimits(
        max_edges=args.max_edges, time_budget=SearchLimits().time_budget
    )

    header = f"{'instance':<18}{'|V|':>5}{'|E|':>5}{'br':>5}{'btau':>6}{'tau':>5}{'S*':>6}  index"
    print(header)
    print("-" * len(header))
    for n in args.n:
        if args.family == "friendship":
            spec = f"friendship:{args.q or 3},{n}"
        elif args.family == "joost":
            spec = f"joost:{n},{args.k or 2}"
        else:
            spec = f"{args.family}:{n}"
        graph = build_family(parse_family_spec(spec))
        br = best_index(graph, Mode.BRUSH, limits=limits)
        btau = best_index(graph, Mode.FSG, limits=limits)
        tau = best_index(graph, Mode.BLEND, limits=limits)
        print(
            f"{spec:<18}{graph.n:>5}{graph.m:>5}{br.cost:>5}{btau.cost:>6}"
            f"{tau.cost:>5}{tau.label_sum:>6}  {tau.index}"
        )


if __name__ == "__main__":
    sys.exit(main())
