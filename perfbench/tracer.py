"""Outside-in tracer: times calls into fracinv's public functions without
editing the package.

While active, every traced function is replaced by a timing wrapper in each
``fracinv`` module that holds it under its own name (``fracinv.inverse``
imports ``l1_evolve`` from ``fracinv.fem`` by name, ``fracinv.spectral`` and
``fracinv.cases`` import ``ml_neg``, and so on), and two methods of
``FemOperator`` are wrapped on the class. Leaving the context restores the
originals, so untraced cells in the same process run the plain code.

Spans (name, start, end, parent, cell id) are kept in memory and written out
by the caller once the run ends. Counters that need the call's arguments
(points passed to ``ml_neg``, computed ``l1_evolve`` kernel counts,
factorization cache hits) are recorded at the same boundaries.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute) of every traced public function; the span is named
# "<layer>.<function>" after the module that defines it.
FUNCTIONS = (
    ("fracinv.mittag_leffler", "ml_neg"),
    ("fracinv.spectral", "build_eigendecomposition"),
    ("fracinv.spectral", "estimate_T"),
    ("fracinv.fem", "l1_evolve"),
    ("fracinv.fem", "solve_fem"),
    ("fracinv.inverse", "forward_map"),
    ("fracinv.inverse", "jacobian_v_matrix"),
    ("fracinv.inverse", "jacobian_T"),
    ("fracinv.inverse", "lm_step"),
    ("fracinv.inverse", "lm_reconstruct"),
    ("fracinv.cases", "exact_observation"),
    ("fracinv.cases", "estimate_prior_T"),
)

# FemOperator methods, wrapped on the class: span name per method
METHODS = (("__init__", "fem.operator"), ("factorized", "fem.factorized"))

SPAN_NAMES = tuple(f"{mod.split('.')[-1]}.{fn}" for mod, fn in FUNCTIONS) + tuple(
    name for _, name in METHODS
)


class Tracer:
    """Records spans and counters for the calls made while `active`."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.kernels: list[dict] = []  # one record per traced l1_evolve call
        self.counts: dict[tuple[object, str], int] = {}  # (cell, counter) -> total
        self._stack: list[int] = []
        self._cell = None
        self._factor_seen: dict = {}

    # -- span bookkeeping ------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self._cell))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        name, start, _, parent, cell = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, cell)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _timed(self, name: str, fn, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- argument-derived counters -----------------------------------------------

    def _count(self, counter: str, value: int) -> None:
        key = (self._cell, counter)
        self.counts[key] = self.counts.get(key, 0) + value

    def _count_ml(self, sig):
        def before(args, kwargs):
            self._count("ml_neg.points", int(np.size(sig.bind(*args, **kwargs).arguments["x"])))

        return before

    def _count_l1(self, sig):
        def before(args, kwargs):
            a = sig.bind(*args, **kwargs).arguments
            w0 = np.asarray(a["w0_int"])
            m = w0.shape[0]
            p = int(np.prod(w0.shape[1:], dtype=int))
            n = int(a["tg"].n_steps)
            reads = m * p * n * (n + 1) // 2  # history entries read over all steps
            self.kernels.append({
                "cell": self._cell, "m": m, "p": p, "N": n,
                "steps": n, "solves": n * p,
                "history_bytes": 8 * reads,
                "history_flops": 2 * reads,  # one multiply and one add per entry
                "history_array_bytes": 8 * m * p * (n + 1),
            })

        return before

    def _count_factor(self, args, kwargs):
        op, c = args[0], (args[1] if len(args) > 1 else kwargs["c"])
        key = (id(op), float(c))
        if key in self._factor_seen:
            self._count("factorized.hits", 1)
        else:
            # hold the operator so its id cannot be reused within the run
            self._factor_seen[key] = op

    # -- install / restore ---------------------------------------------------------

    @contextmanager
    def active(self, cell):
        """Trace every call made inside the block, tagged with `cell`."""
        from fracinv.fem import FemOperator

        self._cell = cell
        patched = []
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "fracinv" or n.startswith("fracinv."))]
        for mod_name, fn_name in FUNCTIONS:
            fn = getattr(sys.modules[mod_name], fn_name)
            sig = inspect.signature(fn)
            before = {"ml_neg": self._count_ml, "l1_evolve": self._count_l1}.get(fn_name)
            wrapper = self._timed(f"{mod_name.split('.')[-1]}.{fn_name}", fn,
                                  before(sig) if before else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, fn))
        for meth, name in METHODS:
            fn = FemOperator.__dict__[meth]
            before = self._count_factor if meth == "factorized" else None
            setattr(FemOperator, meth, self._timed(name, fn, before))
            patched.append((FemOperator, meth, fn))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)
            self._cell = None

    def end_cell(self) -> None:
        """Release the operators held for hit counting (call between cells)."""
        self._factor_seen.clear()


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]
