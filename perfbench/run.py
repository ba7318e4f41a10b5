"""fracinv benchmark: wall time of reconstruction cells and of the estimate-t
sweep, and where that time goes per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lm-bp-1d, lm-ipp-1d, lm-bp-2d, estimate-t (see perfbench/README.md).
The load is a closed loop: one worker process runs cells back to back.
Every workload runs in fresh worker processes with the BLAS thread count
fixed here.

--trace 0 measures the end-to-end metrics. Four fresh workers run one after
another. Each sets up (imports, exact data, truth), runs one cold cell and
then warm cells for a quarter of S seconds (at least one), so set-up, cold and
warm cells are sampled across the whole run.
--trace 1 runs one worker that times every call into the package's public
functions from outside and reports per-layer figures per traced cell.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON report with the
run environment, the per-cell accuracy figures and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CELL_WORKERS = 4
DEADLINE_S = 170.0  # every worker is killed after this, and the run fails
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def run_worker(args, mode: str, seconds: float, first: int, stride: int, deadline: float):
    """Run one worker, whose cells are first, first + stride, ..., to
    completion; returns (seconds to "ready", events)."""
    env = dict(os.environ)
    env.update({var: str(blas_threads()) for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), args.workload,
           str(args.seed), repr(seconds), mode, str(first), str(stride)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready, events = None, []
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event["event"] == "ready" and ready is None:
                ready = time.perf_counter() - t0
            events.append(event)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not events or events[-1]["event"] != "done":
        raise WorkerFailed(f"{mode} worker for {args.workload} exited with code {code}")
    return ready, events


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def tally(cells: list[dict]) -> dict:
    errors, problems = {}, []
    for c in cells:
        if c["error"]:
            errors[c["error"]] = errors.get(c["error"], 0) + 1
        problems += [f"cell {c['i']}: {p}" for p in c["problems"]]
    failed = sum(1 for c in cells if c["error"] or c["problems"])
    return {"attempted": len(cells), "failed": failed, "errors": errors, "problems": problems}


def accuracy(cells: list[dict]) -> dict:
    outs = [c["out"] for c in cells if "out" in c]
    acc = {}
    for key, unit in (("v_err", "mass-norm"), ("T_err", "time")):
        values = [o[key] for o in outs if key in o]
        if values:
            acc[key] = {"value": statistics.median(values), "unit": unit}
    return acc


def percentile_beyond_ten(values: list[float]):
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = int(100 * (n - 10) / n)
    return {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1]}


def end_to_end(args, deadline: float):
    setups, colds, warm, cells, peaks = [], [], [], [], []
    for k in range(CELL_WORKERS):
        ready, events = run_worker(args, "run", args.seconds / CELL_WORKERS, k, CELL_WORKERS,
                                   deadline)
        cell_events = [e for e in events if e["event"] == "cell"]
        setups.append(ready)
        colds.append(cell_events[0]["seconds"])
        warm.extend(e["seconds"] for e in cell_events[1:])
        cells.extend(cell_events)
        peaks.append(events[-1]["peak_rss_mb"])
    metrics = {
        "cell_s": {"value": statistics.median(warm), "unit": "s"},
        "cold_cell_s": {"value": statistics.median(colds), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(peaks), "unit": "MB"},
    }
    report = {
        "warm_cells": len(warm),
        "cell_s_tail": percentile_beyond_ten(warm),
        "cell_seconds": warm,
        "cold_cell_seconds": colds,
        "setup_seconds": setups,
        "accuracy": accuracy(cells),
        "env": events[-1]["env"],
    }
    return metrics, cells, report


def traced(args, deadline: float):
    import layers

    _, events = run_worker(args, "trace", args.seconds, 0, 1, deadline)
    cells = [e for e in events if e["event"] == "cell"]
    trace = next(e for e in events if e["event"] == "trace")
    metrics = {name: {"value": value, "unit": layers.unit(name)}
               for name, value in trace["metrics"].items()}
    report = {"spans": trace["spans"], "traced_cells": trace["cells"],
              "traced_untraced_mismatches": trace["mismatches"],
              "accuracy": accuracy(cells), "env": events[-1]["env"]}
    return metrics, cells, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fracinv" / "__init__.py").is_file():
        print(f"no fracinv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        measure = traced if args.trace else end_to_end
        metrics, cells, report = measure(args, deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    counts = tally(cells)
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fail_frac": counts["failed"] / counts["attempted"],
        "errors": counts["errors"], "problems": counts["problems"],
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    })
    print(json.dumps({"report": report}))
    # a cell that raised has no output to check, so it is not correct either
    correct = counts["failed"] == 0 and not report.get("traced_untraced_mismatches")
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
