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
from dataclasses import dataclass

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
from .grids import Grid1D, Grid2D
from .inverse import LMConfig, ReconstructionResult, add_noise, lm_reconstruct
from .problems import ProblemSpec
from .spectral import build_eigendecomposition, propagate_modes

__all__ = [
    "TableReport",
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


def _snapshot_columns(grid, values):
    if isinstance(grid, Grid2D):
        pts = grid.nodes
        return "x,y,value", [pts[:, 0], pts[:, 1], values]
    return "x,value", [grid.nodes, values]


def _prior_for(case, alpha, cfg: ExperimentConfig) -> float:
    if cfg.t_init != "auto":
        return float(cfg.t_init)
    if case.domain != "interval":
        # the mode-ratio estimator is one-dimensional; never substitute the truth
        raise ConfigError(f"case {case.case_id}: t_init = auto needs the 1D "
                          "estimator; set an explicit t_init")
    prior = estimate_prior_T(case, alpha)  # parse_config could not check deltaT against it
    deltaT = cfg.lm_overrides.get("deltaT", LMConfig.deltaT)
    if prior <= deltaT:
        raise ConfigError(f"[lm] deltaT = {deltaT:g} must be below the prior "
                          f"T_init = {prior:.6g} of t_init = auto (alpha = {alpha:g})")
    return prior


def run_forward(cfg: ExperimentConfig, out_dir=None) -> list:
    """Exact snapshots plus one noisy observation per (alpha, epsilon)."""
    case = get_case(cfg.case_id)
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    written = []
    cell = 0
    for alpha in cfg.alphas:
        setup = make_setup(case, alpha, n=cfg.n, n_steps=cfg.steps)
        g_dag = exact_observation(case, alpha, setup.grid)
        header, cols = _snapshot_columns(setup.grid, g_dag)
        snap = os.path.join(out, f"snapshot_{case.case_id}_a{alpha:g}.csv")
        _write_columns(snap, header, cols)
        written.append(snap)
        for eps in cfg.epsilons:
            obs = add_noise(g_dag, eps, seed=cfg.seed + cell, t_true=case_mod.T_TRUE)
            cell += 1
            header, cols = _snapshot_columns(setup.grid, obs.g_delta)
            name = os.path.join(out, f"observation_{case.case_id}_a{alpha:g}_e{eps:g}.csv")
            _write_columns(name, header, cols)
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
    if case.domain != "interval":
        raise ConfigError("estimate-t runs on interval cases")
    out = []
    for alpha in cfg.alphas:
        out.append((case.case_id, alpha, estimate_prior_T(case, alpha)))
    return out


def _snapshot(case, alpha, cfg: ExperimentConfig) -> np.ndarray:
    """The exact snapshot on the inversion mesh, shared by every epsilon."""
    return exact_observation(case, alpha, make_setup(case, alpha, n=cfg.n).grid)


def _reconstruct_cell(case, alpha, eps, cfg: ExperimentConfig, seed: int, prior: float,
                      g_dag: np.ndarray) -> tuple[ReconstructionResult, np.ndarray, object]:
    basis = None
    if case.domain == "unit_square":
        basis = tensor_sine_basis(Grid2D(cfg.n or case.default_n), 6)
    setup = make_setup(case, alpha, n=cfg.n, n_steps=cfg.steps, basis=basis)
    truth = case.truth_nodal(setup.grid)
    obs = add_noise(g_dag, eps, seed=seed, t_true=case_mod.T_TRUE)
    lm = lm_config_for(case, alpha, T_init=prior, max_iter=cfg.max_iter,
                       stop=cfg.stop, **cfg.lm_overrides)
    truth_arg = truth if cfg.stop == "oracle" else None
    res = lm_reconstruct(setup, obs, lm, truth=truth_arg)
    return res, truth, setup.grid


def run_recover(cfg: ExperimentConfig, kind: str, out_dir=None) -> ReconstructionResult:
    """One reconstruction (first alpha / epsilon of the config)."""
    case = get_case(cfg.case_id)
    if case.kind != kind:
        article = "an" if case.kind[0] in "aeiou" else "a"
        raise ConfigError(f"case {case.case_id} is {article} {case.kind} benchmark, not {kind}")
    alpha, eps = cfg.alphas[0], cfg.epsilons[0]
    prior = _prior_for(case, alpha, cfg)
    res, truth, grid = _reconstruct_cell(case, alpha, eps, cfg, cfg.seed, prior,
                                         _snapshot(case, alpha, cfg))
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    emit_plot_data(res, truth, grid, out, f"{case.case_id}_a{alpha:g}_e{eps:g}")
    _write_meta(os.path.join(out, f"recover_{case.case_id}_a{alpha:g}_e{eps:g}.json"),
                {"case": case.case_id, "alpha": alpha, "epsilon": eps,
                 "rng": "PCG64", "seed": cfg.seed, "k_star": res.k_star,
                 "T_hat": res.T_hat, "stop": cfg.stop})
    return res


@dataclass
class TableReport:
    """Rows of (case, alpha, epsilon, e, k_star, T_hat); CSV-serializable."""

    rows: list

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("case,alpha,epsilon,e,k_star,T_hat,note\n")
            for case_id, alpha, eps, e, k_star, t_hat, note in self.rows:
                fh.write(
                    f"{case_id},{alpha:g},{eps:g},"
                    + (_FMT % e if np.isfinite(e) else "nan")
                    + f",{k_star},"
                    + (_FMT % t_hat if np.isfinite(t_hat) else "nan")
                    + f",{note}\n"
                )


def _table_cell(args):
    case_id, alpha, eps, cfg, seed, prior, g_dag = args
    case = get_case(case_id)
    try:
        res, truth, grid = _reconstruct_cell(case, alpha, eps, cfg, seed, prior, g_dag)
        e = mass_norm(grid, res.v_hat - truth)
        return (case_id, alpha, eps, e, res.k_star, res.T_hat, "")
    except FracinvError as exc:
        return (case_id, alpha, eps, float("nan"), -1, float("nan"),
                type(exc).__name__)


def run_table(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> TableReport:
    """Full (alpha x epsilon) grid of reconstructions in study mode."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    case = get_case(cfg.case_id)
    priors = {alpha: _prior_for(case, alpha, cfg) for alpha in cfg.alphas}
    jobs = []
    cell = 0
    for alpha in cfg.alphas:
        g_dag = _snapshot(case, alpha, cfg)
        for eps in cfg.epsilons:
            jobs.append((case.case_id, alpha, eps, cfg, cfg.seed + cell, priors[alpha], g_dag))
            cell += 1
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_table_cell, jobs))
    else:
        rows = [_table_cell(j) for j in jobs]
    report = TableReport(rows=rows)
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    report.to_csv(os.path.join(out, f"table_{case.case_id}.csv"))
    _write_meta(os.path.join(out, f"table_{case.case_id}.json"),
                {"case": case.case_id, "alphas": list(cfg.alphas),
                 "epsilons": list(cfg.epsilons), "rng": "PCG64",
                 "seed": cfg.seed, "stop": cfg.stop,
                 "priors": {f"{a:g}": priors[a] for a in cfg.alphas}})
    return report


def emit_plot_data(result: ReconstructionResult, truth, grid, out_dir, prefix: str) -> list:
    """Columnar series (k, r), (k, e), (k, T) and the profile (x, v_hat, truth)."""
    os.makedirs(out_dir, exist_ok=True)
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
    if isinstance(grid, Grid2D):
        pts = grid.nodes
        _write_columns(prof, "x,y,v_hat,truth",
                       [pts[:, 0], pts[:, 1], result.v_hat, np.asarray(truth, float)])
    else:
        _write_columns(prof, "x,v_hat,truth",
                       [grid.nodes, result.v_hat, np.asarray(truth, float)])
    paths.append(prof)
    return paths


# Modal reference of the convergence study: sines and the grid they are
# projected on and interpolated from.
REFERENCE_MODES = 256
REFERENCE_N = 4096


def run_convergence(cfg: ExperimentConfig, out_dir=None):
    """Solver validation orders on the single-mode problem, against its modal
    solution interpolated from a fine grid."""
    alpha = cfg.alphas[0]
    spec = ProblemSpec(alpha=alpha, T=0.5, u0=lambda x: np.sin(np.pi * x), f=0.0)
    t0 = time.time()
    fine = Grid1D(REFERENCE_N)
    lam, phi = build_eigendecomposition(REFERENCE_MODES, fine)
    u0c = phi @ (fine.trapezoid_weights() * spec.sample("u0", fine))
    u_ref = phi.T @ propagate_modes(alpha, lam, spec.T, u0c, 0.0)
    report = convergence_study(spec, lambda grid: np.interp(grid.nodes, fine.nodes, u_ref))
    print(f"convergence study took {time.time() - t0:.1f}s", file=sys.stderr)
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"convergence_a{alpha:g}.csv")
    with open(path, "w") as fh:
        fh.write("quantity,value\n")
        fh.write(f"space_order,{_FMT % report.space_order}\n")
        fh.write(f"time_order,{_FMT % report.time_order}\n")
        for h, e in report.space_errors:
            fh.write(f"space_error_h={h:g},{_FMT % e}\n")
        for tau, d in report.time_diffs:
            fh.write(f"time_diff_tau={tau:g},{_FMT % d}\n")
    return report
