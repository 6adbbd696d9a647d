#!/usr/bin/env python3
"""Show every achievable edge/label-sum ratio for a fixed orientation.

Holds the orientation and the initial allocation fixed and explores
each distinct state of the dispatch process once, so the spread of the
printed list is entirely due to arc-choice patterns.

Example:

    python scripts/ratio_spectrum.py --family cycle:7 --colours 2
    python scripts/ratio_spectrum.py --family cycle:5 --colours 2 --orientation 0
"""

from __future__ import annotations

import argparse
import sys

from tattooing import (
    AllocationPlan,
    LimitError,
    Mode,
    Policy,
    SearchLimits,
    build_family,
    orient,
    parse_family_spec,
    ratio_set,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="cycle:7")
    parser.add_argument(
        "--orientation",
        type=int,
        default=0,
        help="bit code over the edge list; 0 keeps every edge as stored",
    )
    parser.add_argument("--vertex", type=int, default=0)
    parser.add_argument("--colours", type=int, default=2)
    parser.add_argument(
        "--mode", choices=[m.value for m in Mode], default=Mode.BLEND.value
    )
    args = parser.parse_args()
    try:
        graph = build_family(parse_family_spec(args.family))
        plan = AllocationPlan.from_counts(
            {args.vertex: args.colours}, Policy.SMALLEST
        )
        if not 0 <= args.orientation < 1 << graph.m:
            raise ValueError(
                f"orientation code {args.orientation} out of range for "
                f"{graph.m} edges"
            )
        digraph = orient(graph, args.orientation)
        ratios = ratio_set(digraph, Mode(args.mode), plan, SearchLimits())
    except ValueError as exc:  # a bad spec, code or allocation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    print(f"{args.family}, orientation {args.orientation}, "
          f"{args.colours} colours at vertex {args.vertex}:")
    for ratio in sorted(ratios, reverse=True):
        print(f"  {ratio}")
    print(f"best: {max(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
