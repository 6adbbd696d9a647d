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
    """``N`` or ``A..B``, both ends included; an empty range is an error."""
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(f"bad range {text!r}: use N or A..B") from None
    if not values:
        raise ValueError(f"empty range {text!r}: A..B needs A <= B")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="cycle")
    parser.add_argument("--n", default="3..8", help="range N or A..B")
    parser.add_argument("--q", type=int, help="cycle length for friendship")
    parser.add_argument("--k", type=int, help="path count for joost")
    parser.add_argument("--max-edges", type=int, default=None)
    args = parser.parse_args()
    try:
        report(args)
    except ValueError as exc:  # a bad range, family spec or edge limit
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

    sizes = parse_range(args.n)
    header = f"{'instance':<18}{'|V|':>5}{'|E|':>5}{'br':>5}{'btau':>6}{'tau':>5}{'S*':>6}  index"
    print(header)
    print("-" * len(header))
    for n in sizes:
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
