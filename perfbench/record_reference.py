"""Record the reference outputs the benchmark checks on its default seed.

    python3 perfbench/record_reference.py

Runs cells 0..REFERENCE_CELLS-1 of every workload at workloads.DEFAULT_SEED
with the package under src/ and writes perfbench/reference.json. Record only on a
commit whose outputs are the intended baseline: a later change that moves
any output by more than workloads.REFERENCE_RTOL fails the benchmark.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import DEFAULT_SEED, REFERENCE_CELLS, REFERENCE_KEYS, WORKLOADS

    cells = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.prepare(DEFAULT_SEED)
        cells[name] = {}
        for i in range(REFERENCE_CELLS):
            out = workload.run_cell(inputs, i)
            problems = workload.check(out)
            if problems:
                raise SystemExit(f"{name} cell {i} fails its checks: {problems}")
            cells[name][str(i)] = {k: out[k] for k in REFERENCE_KEYS if k in out}
            print(name, i, cells[name][str(i)], file=sys.stderr)
    with open(HERE / "reference.json", "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                   "cells": cells}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
