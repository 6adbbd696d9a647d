"""Benchmark of the ``tattooing`` package: four workloads, one layer each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  Each workload runs as a child process, one at a time, with
``--workers 1``: one client in a closed loop.

``--trace 0`` first times the set-up (a fresh interpreter importing what
the workload imports, five times after one warm-up), then starts
children back to back while the next one should still end within S
seconds, at least one.  It prints the medians of ``run_s`` (child start
to child exit), ``setup_s`` and ``peak_rss_mb`` (the child's peak RSS).

The machine this was tuned on (2 shared vCPUs) changes speed by up to a
third for seconds to minutes at a time.  So before and after every
set-up import and child the benchmark also times a fixed pure-Python
loop, and scales each sample by ``CAL_REF_S`` over the mean of the two
loop times around it: ``run_s`` and ``setup_s`` are seconds at the
speed where one loop takes ``CAL_REF_S``.  The summary line keeps the
unscaled samples and the loop times.

``--trace 1`` runs the seed's input once untraced and twice with
spans at the module boundaries (see ``spans.py``), whatever S is, and
prints the per-layer metrics: the mean of the two traced children,
whose deterministic counts must agree.  ``trace.overhead_s`` is traced
minus untraced ``run_s``.  Per-layer times are not scaled.

Every child of a run gets the same input, made from the seed, and its
output is checked after it is timed (see ``workloads.py``).  A child
that exits nonzero, prints something else than the reference, or whose
witness ``tattoo compute --replay`` rejects, counts as failed;
``failed / attempted`` is the fail ratio.  The last line of standard output is the result; the line
before it is a summary with the samples, quartiles and the run
environment, also written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0
CAL_LOOP = 300_000
CAL_UNITS = 16
# near the loop's median time on the 2-vCPU Xeon VM the benchmark was tuned on
CAL_REF_S = 0.03


@dataclass(frozen=True)
class Finished:
    code: int | None
    out: bytes
    err: bytes
    wall_s: float
    maxrss_mb: float


def run_process(argv: list[str], env: dict, deadline: float) -> Finished:
    """Run ``argv`` to its exit, or kill it at ``deadline`` (code None)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    killed = True
                    break
                for key, _ in sel.select(timeout=left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    # wait4 rather than Popen.wait: it also returns the child's peak RSS
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for pipe in chunks:
        pipe.close()
    return Finished(
        None if killed else proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        wall,
        usage.ru_maxrss / 1024.0,
    )


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TATTOO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def spread(samples: list[float]) -> dict:
    """Median and quartiles with the sample count.

    The tail is the highest percentile with ten samples beyond it, given
    only when that lies above the median: a run needs more than twenty
    samples for one.
    """
    n = len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if n > 1 else [samples[0]] * 3
    tail = None
    if n > 20:
        tail = {"p": (n - 10) / n, "value": sorted(samples)[n - 11]}
    return {"n": n, "median": statistics.median(samples), "q1": q1, "q3": q3,
            "tail": tail, "samples": samples}


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def calibration() -> float:
    """Median time of a fixed pure-Python loop, run between children."""
    times = []
    for _ in range(CAL_UNITS):
        start = time.perf_counter()
        _spin(CAL_LOOP)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs the children of one benchmark run and keeps the tally."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.case = workload.case(seed, OUT)
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, index: int, trace: Path | None = None) -> Finished:
        """One child run, checked; a failure is tallied and reported."""
        argv = [sys.executable, str(HERE / "child.py")]
        if trace is not None:
            argv += ["--trace", str(trace)]
        done = run_process(argv + self.case.argv, self.env, self.deadline)
        self.attempted += 1
        problem = self.problem(done)
        if problem:
            self.failures.append(f"child {index}: {problem}")
            print(f"FAILED child {index}: {problem}", file=sys.stderr)
        return done

    def problem(self, done: Finished) -> str | None:
        """Why a child's run is wrong, or None; checked after its timing."""
        if done.code is None:
            return "killed at the run's time limit"
        if done.code != 0:
            return f"exit code {done.code}: {done.err.decode()[-2000:]}"
        try:
            problem = self.workload.check(done.out, self.case)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            return f"unreadable output: {exc!r}"
        if problem or not self.workload.replay:
            return problem
        path = OUT / f"{self.workload.name}-witness.json"
        path.write_bytes(done.out)
        argv = [sys.executable, str(HERE / "child.py"), "cli", "compute",
                "--replay", str(path)]
        replayed = run_process(argv, self.env, self.deadline)
        if replayed.code != 0:
            return (f"witness does not replay (exit code {replayed.code}): "
                    f"{replayed.err.decode()[-2000:]}")
        return None

    def setup_time(self) -> float:
        argv = [sys.executable, "-c", self.workload.imports]
        done = run_process(argv, self.env, self.deadline)
        if done.code != 0:
            raise SystemExit(f"set-up failed: {done.err.decode()[-2000:]}")
        return done.wall_s


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.setup_time()  # the first import may write bytecode caches
    cal = [calibration()]

    def scaled(raw: float) -> float:
        """``raw`` at reference speed, by the loops timed just before and after."""
        cal.append(calibration())
        return raw * CAL_REF_S / statistics.mean(cal[-2:])

    setup, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        setup.append(runner.setup_time())
        setup_s.append(scaled(setup[-1]))
    wall, run_s, rss = [], [], []
    start = time.perf_counter()
    last = 0.0
    while not wall or time.perf_counter() - start + last <= seconds:
        before = time.perf_counter()
        done = runner.child(len(wall))
        wall.append(done.wall_s)
        run_s.append(scaled(done.wall_s))
        rss.append(done.maxrss_mb)
        last = time.perf_counter() - before
    summary = {"run_s": spread(run_s), "setup_s": spread(setup_s),
               "peak_rss_mb": spread(rss), "unscaled_run_s": spread(wall),
               "unscaled_setup_s": spread(setup), "calibration_s": spread(cal)}
    metrics = {
        "run_s": {"value": statistics.median(run_s), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    return summary, metrics


def trace(runner: Runner) -> tuple[dict, dict]:
    plain = runner.child(0)
    traced = []
    for k in (0, 1):
        path = OUT / f"{runner.workload.name}-spans{k}.json"
        path.unlink(missing_ok=True)
        done = runner.child(0, trace=path)
        if not path.exists():
            raise SystemExit(f"traced child {k} wrote no spans; see above")
        traced.append((done, json.loads(path.read_text(encoding="utf-8"))))
    per_child = [spans.layer_metrics(doc, done.wall_s) for done, doc in traced]
    fired = {name for _, doc in traced
             for name, entry in spans.span_totals(doc).items() if entry["calls"]}
    missing = [n for n in runner.workload.required_spans if n not in fired]
    if missing:
        raise SystemExit(
            f"spans never fired: {', '.join(missing)}; the traced names "
            "no longer match the package, so spans.py must follow it")
    for key in per_child[0]:
        if _unit(key) == "count" and per_child[0][key] != per_child[1][key]:
            raise SystemExit(
                f"{key} differs between two traced runs of one input: "
                f"{per_child[0][key]} vs {per_child[1][key]}")
    values = {key: statistics.mean(m[key] for m in per_child)
              for key in per_child[0]}
    traced_wall = statistics.mean(done.wall_s for done, _ in traced)
    values["trace.run_s"] = traced_wall
    values["trace.untraced_run_s"] = plain.wall_s
    values["trace.overhead_s"] = traced_wall - plain.wall_s
    shares = spans.self_shares(values, traced_wall)
    summary = {"self_share": shares, "dominant": max(shares, key=shares.get),
               "per_layer": values}
    metrics = {key: {"value": value, "unit": _unit(key)}
               for key, value in values.items()}
    return summary, metrics


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # a terminated run still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tattooing" / "cli.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run this from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, args.seed)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    if args.trace:
        summary, metrics = trace(runner)
    else:
        summary, metrics = measure(runner, args.seconds)
    env["loadavg_after"] = os.getloadavg()

    failed = len(runner.failures)
    summary.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        seed_applied=workload.seed_applied, attempted=runner.attempted,
        failed=failed, fail_ratio=failed / runner.attempted,
        failures=runner.failures, env=env,
    )
    line = json.dumps(summary)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
