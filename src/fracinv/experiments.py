"""Experiment drivers behind the command-line interface: forward snapshots,
terminal-time estimation, single reconstructions, benchmark tables,
convergence studies, and columnar plot-data emission.

All data files are byte-deterministic for a fixed config and seed (fixed
float formatting, no timestamps); wall-clock timings go to stderr only.
The per-cell noise seed is seed + cell index in the (alpha, epsilon) grid,
and every output records the generator (PCG64) and seed used.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import cases as case_mod
from .cases import (
    exact_observation,
    estimate_prior_T,
    get_case,
    lm_config_for,
    make_setup,
    tensor_sine_basis,
)
from .config import ExperimentConfig
from .errors import ConfigError, FracinvError
from .fem import convergence_study, mass_norm
from .grids import Grid2D
from .inverse import LMConfig, ReconstructionResult, add_noise, lm_reconstruct
from .problems import ProblemSpec

__all__ = [
    "run_forward",
    "run_estimate_t",
    "run_recover",
    "run_table",
    "run_convergence",
    "emit_plot_data",
]

_FMT = "%.12e"


def _write_columns(path, header: str, columns) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        if columns:
            rows = len(columns[0])
            for i in range(rows):
                fh.write(",".join(_FMT % c[i] for c in columns) + "\n")


def _write_meta(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_nodal(path, grid, **fields) -> None:
    """A CSV of nodal fields after the node-coordinate columns: x, or x and y."""
    pts = grid.nodes
    coords = {"x": pts[:, 0], "y": pts[:, 1]} if isinstance(grid, Grid2D) else {"x": pts}
    columns = {**coords, **fields}
    _write_columns(path, ",".join(columns), list(columns.values()))


def _make_out_dir(cfg: ExperimentConfig) -> str:
    """Make the output directory: after a driver's config checks, before its first computation."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory: {exc}") from None
    return cfg.out_dir


def _lm_config(case, alpha, cfg: ExperimentConfig) -> LMConfig:
    """The LMConfig of one order: the case's weights, the config's settings
    and the prior, t_init or the estimator's."""
    prior = estimate_prior_T(case, alpha) if cfg.t_init == "auto" else float(cfg.t_init)
    return lm_config_for(case, alpha, T_init=prior, max_iter=cfg.max_iter,
                         stop=cfg.stop, **cfg.lm_overrides)


def run_forward(cfg: ExperimentConfig) -> list:
    """Exact snapshots plus one noisy observation per (alpha, epsilon)."""
    case = get_case(cfg.case_id)
    out = _make_out_dir(cfg)
    written = []
    cell = 0
    for alpha in cfg.alphas:
        setup = make_setup(case, alpha, n=cfg.n, n_steps=cfg.steps)
        g_dag = exact_observation(case, alpha, setup.grid)
        snap = os.path.join(out, f"snapshot_{case.case_id}_a{alpha:g}.csv")
        _write_nodal(snap, setup.grid, value=g_dag)
        written.append(snap)
        for eps in cfg.epsilons:
            obs = add_noise(g_dag, eps, seed=cfg.seed + cell, t_true=case_mod.T_TRUE)
            cell += 1
            name = os.path.join(out, f"observation_{case.case_id}_a{alpha:g}_e{eps:g}.csv")
            _write_nodal(name, setup.grid, value=obs.g_delta)
            written.append(name)
        _write_meta(
            os.path.join(out, f"forward_{case.case_id}_a{alpha:g}.json"),
            {
                "case": case.case_id,
                "alpha": alpha,
                "grid_n": setup.grid.n,
                "n_steps": setup.n_steps,
                "rng": "PCG64",
                "seed": cfg.seed,
                "epsilons": list(cfg.epsilons),
            },
        )
    return written


def run_estimate_t(cfg: ExperimentConfig) -> list:
    """Asymptotic terminal-time estimates per alpha (1D cases)."""
    case = get_case(cfg.case_id)
    return [(case.case_id, alpha, estimate_prior_T(case, alpha)) for alpha in cfg.alphas]


def _snapshot(case, alpha, cfg: ExperimentConfig) -> np.ndarray:
    """The exact snapshot on the inversion mesh, shared by every epsilon."""
    return exact_observation(case, alpha, case.grid(cfg.n))


def _reconstruct_cell(case, alpha, eps, cfg: ExperimentConfig, seed: int, lm: LMConfig,
                      g_dag: np.ndarray) -> tuple[ReconstructionResult, np.ndarray, object]:
    basis = None
    if case.domain == "unit_square":
        basis = tensor_sine_basis(case.grid(cfg.n), 6)
    setup = make_setup(case, alpha, n=cfg.n, n_steps=cfg.steps, basis=basis)
    truth = case.truth_nodal(setup.grid)
    obs = add_noise(g_dag, eps, seed=seed, t_true=case_mod.T_TRUE)
    truth_arg = truth if lm.stop == "oracle" else None
    res = lm_reconstruct(setup, obs, lm, truth=truth_arg)
    return res, truth, setup.grid


def run_recover(cfg: ExperimentConfig, kind: str) -> ReconstructionResult:
    """One reconstruction (first alpha / epsilon of the config)."""
    case = get_case(cfg.case_id)
    if case.kind != kind:
        article = "an" if case.kind[0] in "aeiou" else "a"
        raise ConfigError(f"case {case.case_id} is {article} {case.kind} benchmark, not {kind}")
    alpha, eps = cfg.alphas[0], cfg.epsilons[0]
    lm = _lm_config(case, alpha, cfg)
    out = _make_out_dir(cfg)
    res, truth, grid = _reconstruct_cell(case, alpha, eps, cfg, cfg.seed, lm,
                                         _snapshot(case, alpha, cfg))
    emit_plot_data(res, truth, grid, out, f"{case.case_id}_a{alpha:g}_e{eps:g}")
    _write_meta(os.path.join(out, f"recover_{case.case_id}_a{alpha:g}_e{eps:g}.json"),
                {"case": case.case_id, "alpha": alpha, "epsilon": eps,
                 "rng": "PCG64", "seed": cfg.seed, "k_star": res.k_star,
                 "T_hat": res.T_hat, "stop": cfg.stop})
    return res


def _write_table(path, rows) -> None:
    """The table's CSV: one line per (case, alpha, epsilon, e, k_star, T_hat, note) row."""
    with open(path, "w") as fh:
        fh.write("case,alpha,epsilon,e,k_star,T_hat,note\n")
        for case_id, alpha, eps, e, k_star, t_hat, note in rows:
            fh.write(
                f"{case_id},{alpha:g},{eps:g},"
                + (_FMT % e if np.isfinite(e) else "nan")
                + f",{k_star},"
                + (_FMT % t_hat if np.isfinite(t_hat) else "nan")
                + f",{note}\n"
            )


def _table_cell(args):
    case_id, alpha, eps, cfg, seed, lm, g_dag = args
    case = get_case(case_id)
    try:
        res, truth, grid = _reconstruct_cell(case, alpha, eps, cfg, seed, lm, g_dag)
        e = mass_norm(grid, res.v_hat - truth)
        return (case_id, alpha, eps, e, res.k_star, res.T_hat, "")
    except FracinvError as exc:
        return (case_id, alpha, eps, float("nan"), -1, float("nan"),
                type(exc).__name__)


def run_table(cfg: ExperimentConfig, threads: int = 1) -> list:
    """Full (alpha x epsilon) grid of reconstructions in study mode; returns the
    CSV's rows. Every order's LMConfig is built before any cell runs."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    case = get_case(cfg.case_id)
    lms = {alpha: _lm_config(case, alpha, cfg) for alpha in cfg.alphas}
    out = _make_out_dir(cfg)
    jobs = []
    cell = 0
    for alpha in cfg.alphas:
        g_dag = _snapshot(case, alpha, cfg)
        for eps in cfg.epsilons:
            jobs.append((case.case_id, alpha, eps, cfg, cfg.seed + cell, lms[alpha], g_dag))
            cell += 1
    if threads > 1:
        # a fork pool starts all its workers at the first submit: no more than the cells
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            rows = list(pool.map(_table_cell, jobs))
    else:
        rows = [_table_cell(j) for j in jobs]
    _write_table(os.path.join(out, f"table_{case.case_id}.csv"), rows)
    _write_meta(os.path.join(out, f"table_{case.case_id}.json"),
                {"case": case.case_id, "alphas": list(cfg.alphas),
                 "epsilons": list(cfg.epsilons), "rng": "PCG64",
                 "seed": cfg.seed, "stop": cfg.stop,
                 "priors": {f"{a:g}": lms[a].T_init for a in cfg.alphas}})
    return rows


def emit_plot_data(result: ReconstructionResult, truth, grid, out_dir, prefix: str) -> list:
    """Columnar series (k, r), (k, e), (k, T) and the profile (x, v_hat, truth), in out_dir."""
    hist = result.history
    ks = np.array([h[0] for h in hist], dtype=float)
    rs = np.array([h[1] for h in hist])
    es = np.array([h[2] for h in hist])
    ts = np.array([h[3] for h in hist])
    paths = []
    for name, col in (("residual", rs), ("error", es), ("time", ts)):
        path = os.path.join(out_dir, f"{prefix}_{name}.csv")
        _write_columns(path, "k,value", [ks, col] if len(ks) else [])
        paths.append(path)
    prof = os.path.join(out_dir, f"{prefix}_profile.csv")
    _write_nodal(prof, grid, v_hat=result.v_hat, truth=np.asarray(truth, float))
    paths.append(prof)
    return paths


def run_convergence(cfg: ExperimentConfig):
    """Solver validation orders (`convergence_study`) on the single-mode problem."""
    out = _make_out_dir(cfg)
    alpha = cfg.alphas[0]
    spec = ProblemSpec(alpha=alpha, u0=lambda x: np.sin(np.pi * x), f=0.0)
    t0 = time.time()
    report = convergence_study(spec, 0.5)
    print(f"convergence study took {time.time() - t0:.1f}s", file=sys.stderr)
    path = os.path.join(out, f"convergence_a{alpha:g}.csv")
    with open(path, "w") as fh:
        fh.write("quantity,value\n")
        fh.write(f"space_order,{_FMT % report.space_order}\n")
        fh.write(f"time_order,{_FMT % report.time_order}\n")
        for h, d in report.space_diffs:
            fh.write(f"space_diff_h={h:g},{_FMT % d}\n")
        for tau, d in report.time_diffs:
            fh.write(f"time_diff_tau={tau:g},{_FMT % d}\n")
    return report
