"""Sweep tables pinned to a golden file, byte for byte.

Each case runs ``tattoo sweep ... --no-timing`` in this process and
records its standard output and exit code.  A change to the command
line that is meant to keep its outputs must leave the golden as it is.

Run ``PYTHONPATH=src python tests/test_sweep_golden.py`` to print the
transcript of the current code in the golden's format.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from tattooing.cli import main

GOLDEN = Path(__file__).parent / "data" / "sweep" / "sweeps.txt"
CASES = (
    "--family joost --n 3..4 --k 1..3 --mode fsg",
    "--family friendship --n 2..4 --mode fsg",
    "--family cycle --n 3..6",
    "--family path --n 3..5 --mode brush",
    "--family star --n 2..4 --policy fresh",
    "--family wheel --n 3..4",
    "--family genfriendship --blocks 3x2+4x1",
    "--family random --vertices 5 --edges 6 --count 3 --seed 11",
    "--family cycle --n 9..11 --max-edges 10",  # the last row is refused
)


def transcript() -> str:
    """Every case's command, CSV table and exit code, in case order."""
    parts = []
    for case in CASES:
        argv = ["sweep", *case.split(), "--no-timing"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        parts.append(f"$ tattoo {' '.join(argv)}\n{out.getvalue()}[exit {code}]\n")
    return "\n".join(parts)


def test_sweeps_match_golden():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(transcript())
