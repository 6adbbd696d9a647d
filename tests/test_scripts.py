"""The example scripts under ``scripts/`` run end to end."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_family_report_cycles():
    done = run_script("family_report.py", "--family", "cycle", "--n", "3..4")
    assert done.returncode == 0, done.stderr
    # columns: instance |V| |E| br btau tau S* index
    rows = {
        line.split()[0]: line.split()
        for line in done.stdout.splitlines()[2:]
    }
    assert sorted(rows) == ["cycle:3", "cycle:4"]
    assert rows["cycle:3"][5:7] == ["2", "4"]


def test_ratio_spectrum_cycle_5():
    done = run_script(
        "ratio_spectrum.py", "--family", "cycle:5", "--colours", "2"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "best: 5/12"


@pytest.mark.parametrize(
    "argv,code,prefix",
    [
        (("family_report.py", "--max-edges", "0"), 2, "error: "),
        (
            ("family_report.py", "--n", "5..3"),
            2,
            "error: empty range '5..3'",
        ),
        (("family_report.py", "--n", "x"), 2, "error: bad range 'x'"),
        (
            ("family_report.py", "--family", "cycle", "--n", "4",
             "--max-edges", "3"),
            3,
            "refused: ",
        ),
        (("ratio_spectrum.py", "--family", "nope:3"), 2, "error: "),
        (("ratio_spectrum.py", "--family", "cycle:30"), 3, "refused: "),
        (
            ("ratio_spectrum.py", "--family", "cycle:3", "--orientation", "99"),
            2,
            "error: orientation code 99 out of range",
        ),
        (
            ("ratio_spectrum.py", "--family", "cycle:3", "--orientation", "2"),
            2,
            "error: orientation has a directed cycle",
        ),
    ],
)
def test_bad_input_exits_without_traceback(argv, code, prefix):
    done = run_script(*argv)
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(prefix)
    assert done.stderr.count("\n") == 1
