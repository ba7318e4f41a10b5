"""Per-layer figures from a Tracer's spans and counters.

Every figure is per traced cell (the mean over traced cells), except those
named `setup.*`, which cover the traced set-up phase of the run once.
`.s` is a span's inclusive time, `.self_s` its time outside traced child
spans. Kernel counts of `fem.l1_evolve` are computed from argument shapes,
not measured.
"""

from __future__ import annotations

from tracer import SPAN_NAMES, self_times

# span name -> name of its call count (the operator's count is its builds)
CALL_COUNT = {"fem.operator": "fem.operator.builds"}
SETUP_SPANS = ("cases.exact_observation", "fem.solve_fem", "fem.l1_evolve",
               "mittag_leffler.ml_neg")


def per_layer(tracer, n_cells: int) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    calls, incl, excl = {}, {}, {}
    setup = {}
    cell_self = 0.0
    for (name, start, end, _, cell), self_s in zip(spans, selfs):
        if cell == "setup":
            key = (name, "calls")
            setup[key] = setup.get(key, 0) + 1
            setup[(name, "s")] = setup.get((name, "s"), 0.0) + (end - start)
            continue
        if name == "cell":
            cell_self += self_s
            continue
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        excl[name] = excl.get(name, 0.0) + self_s

    m = {}
    for name in SPAN_NAMES:
        m[CALL_COUNT.get(name, name + ".calls")] = calls.get(name, 0) / n_cells
        m[name + ".s"] = incl.get(name, 0.0) / n_cells
        m[name + ".self_s"] = excl.get(name, 0.0) / n_cells

    kernels = [k for k in tracer.kernels if k["cell"] != "setup"]
    for key in ("steps", "solves"):
        m[f"fem.l1_evolve.{key}"] = sum(k[key] for k in kernels) / n_cells
    m["fem.history_bytes"] = sum(k["history_bytes"] for k in kernels) / n_cells
    m["fem.history_flops"] = sum(k["history_flops"] for k in kernels) / n_cells
    m["fem.history_flops_per_byte"] = (
        m["fem.history_flops"] / m["fem.history_bytes"] if kernels else 0.0)
    m["fem.history_array_bytes"] = max((k["history_array_bytes"] for k in kernels), default=0)

    counts = {}
    for (cell, counter), value in tracer.counts.items():
        if cell != "setup":
            counts[counter] = counts.get(counter, 0) + value
    m["mittag_leffler.ml_neg.points"] = counts.get("ml_neg.points", 0) / n_cells
    factor_calls = calls.get("fem.factorized", 0)
    m["fem.factor_hit_ratio"] = (
        counts.get("factorized.hits", 0) / factor_calls if factor_calls else 0.0)
    steps = calls.get("inverse.lm_step", 0)
    m["inverse.forward_per_iter"] = calls.get("inverse.forward_map", 0) / steps if steps else 0.0

    cell_total = sum(end - start for name, start, end, _, cell in spans
                     if name == "cell" and cell != "setup")
    m["trace.unexplained_s"] = cell_self / n_cells
    m["trace.unexplained_share"] = cell_self / cell_total

    for name in SETUP_SPANS:
        m[f"setup.{name}.calls"] = setup.get((name, "calls"), 0)
        m[f"setup.{name}.s"] = setup.get((name, "s"), 0.0)
    return m


def unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("flops"):
        return "flop"
    if name.endswith("per_byte"):
        return "flop/B"
    if name.endswith(("ratio", "share", "per_iter")):
        return "ratio"
    return "count"
