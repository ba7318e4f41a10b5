"""One workload process. Started by run.py; talks to it in JSON lines.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS MODE FIRST STRIDE

ROOT is the checkout whose `src/` holds the package under test. The worker
runs cells FIRST, FIRST + STRIDE, FIRST + 2*STRIDE, ... MODE is
  run    set up (imports, exact data, truth), print "ready", run one cold
         cell and then warm cells until SECONDS have passed (at least one);
  trace  set up under the tracer, then run each cell untraced and traced
         (same inputs) until SECONDS have passed, and report the per-layer
         figures of the traced cells.
Every cell prints one line; the last line is "done" with the peak RSS.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_TRACE_PAIRS = 2


def emit(**event) -> None:
    print(json.dumps(event), flush=True)


def import_package(root: Path) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    import fracinv

    if Path(fracinv.__file__).resolve().parent != (src / "fracinv").resolve():
        raise SystemExit(f"fracinv imported from {fracinv.__file__}, not {src}")


def load_reference(workload: str, seed: int) -> dict | None:
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    with open(Path(__file__).with_name("reference.json")) as fh:
        return json.load(fh)["cells"].get(workload)


def cell_event(i: int, seconds: float, gated: dict) -> dict:
    return {"event": "cell", "i": i, "seconds": seconds, **gated}


def run_cells(workload, inputs, reference, seconds: float, cells) -> None:
    from workloads import run_checked

    def timed(i: int) -> None:
        t0 = time.perf_counter()
        gated = run_checked(workload, inputs, i, reference)
        emit(**cell_event(i, time.perf_counter() - t0, gated))

    timed(next(cells))  # cold
    start = time.perf_counter()
    timed(next(cells))
    while time.perf_counter() - start < seconds:
        timed(next(cells))


def run_traced(name, workload, seed, seconds, reference, root: Path, import_s: float,
               cells) -> None:
    from tracer import Tracer
    from workloads import run_checked
    import layers

    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.active("setup"):
        inputs = workload.prepare(seed)
    setup_wall = time.perf_counter() - t0
    emit(event="ready")

    plain, traced, mismatches = {}, {}, []
    start = time.perf_counter()
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
        i = next(cells)
        t0 = time.perf_counter()
        a = run_checked(workload, inputs, i, reference)
        plain[i] = time.perf_counter() - t0
        emit(**cell_event(i, plain[i], a))
        with tracer.active(i):
            t0 = time.perf_counter()
            with tracer.span("cell"):
                b = run_checked(workload, inputs, i, reference)
            traced[i] = time.perf_counter() - t0
        tracer.end_cell()
        emit(**cell_event(i, traced[i], b))
        if a.get("out", {}).get("digest") != b.get("out", {}).get("digest"):
            mismatches.append(i)

    metrics = layers.per_layer(tracer, n_cells=len(traced))
    # the first cell ran cold untraced; compare warm cells only
    warm_plain = list(plain.values())[1:]
    metrics["trace.cell_s"] = statistics.median(traced.values())
    metrics["trace.overhead_s"] = metrics["trace.cell_s"] - statistics.median(warm_plain)
    metrics["setup.import_s"] = import_s
    metrics["setup.prepare_s"] = setup_wall
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans_{name}_seed{seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "cell"],
                   "spans": tracer.spans, "kernels": tracer.kernels}, fh)
    emit(event="trace", metrics=metrics, cells=len(traced), mismatches=mismatches,
         spans=str(spans_path.relative_to(root)))


def main(argv: list[str]) -> None:
    root, name, seed, seconds, mode = Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4]
    cells = itertools.count(int(argv[5]), int(argv[6]))
    t0 = time.perf_counter()
    import_package(root)
    from workloads import WORKLOADS

    import_s = time.perf_counter() - t0
    workload = WORKLOADS[name]
    reference = load_reference(name, seed)
    if mode == "trace":
        run_traced(name, workload, seed, seconds, reference, root, import_s, cells)
    else:
        inputs = workload.prepare(seed)
        emit(event="ready", import_s=import_s)
        run_cells(workload, inputs, reference, seconds, cells)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit(event="done", peak_rss_mb=peak_kb / 1024.0, env=versions())


def versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


if __name__ == "__main__":
    main(sys.argv[1:])
