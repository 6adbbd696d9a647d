"""One child run of a benchmark workload, optionally traced.

    python3 perfbench/child.py [--trace FILE] cli TATTOO-ARGS...
    python3 perfbench/child.py [--trace FILE] oracle-xcheck

``cli`` runs the ``tattoo`` entry point, ``tattooing.cli.main``, on the
given arguments.  ``oracle-xcheck`` prints the oracle/optimizer pairs of
:func:`workloads.oracle_xcheck` as JSON.  With ``--trace`` the module
boundaries are wrapped before the work starts and the spans are written
to FILE when it ends.  The package is imported from ``PYTHONPATH``.
"""

import argparse
import json
import sys

import spans
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", default=None, metavar="FILE")
    parser.add_argument("job", choices=["cli", "oracle-xcheck"])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    # what the workload's set-up time imports, before any tracing
    if opts.job == "cli":
        import tattooing.cli
    else:
        import tattooing.oracle, tattooing.search  # noqa: E401, F401

    tracer = None
    if opts.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        if opts.job == "cli":
            return tattooing.cli.main(opts.args)
        print(json.dumps(workloads.oracle_xcheck()))
        return 0
    finally:
        if tracer is not None:
            tracer.dump(opts.trace)


if __name__ == "__main__":
    sys.exit(main())
