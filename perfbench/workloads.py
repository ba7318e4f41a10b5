"""The benchmark's workloads: inputs made from the seed, one cell, and the
checks every cell's outputs must pass.

An LM cell follows the order of a `fracinv table` cell
(`experiments._reconstruct_cell`): make_setup -> exact_observation ->
add_noise -> lm_config_for -> lm_reconstruct, in study mode (stop = oracle)
at a fixed iteration count. The exact snapshot and the truth depend only on
(case, alpha, mesh), so they are made once per alpha in set-up; every cell
builds its own InverseSetup. An estimate-t cell is the `fracinv estimate-t`
sweep over three cases and three orders at a snapshot time drawn from the
seed.

Imported only inside a worker process, after `src/` is on the path.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# called through their modules, so that the tracer's wrappers are seen
from fracinv import cases, inverse
from fracinv.errors import FracinvError
from fracinv.fem import mass_norm
from fracinv.grids import Grid2D

DEFAULT_SEED = 1
MAX_ITER = 2
REFERENCE_RTOL = 1e-8
REFERENCE_CELLS = 6  # cells 0..5 of the default seed have reference values
# outputs compared with the reference values recorded on the default seed
REFERENCE_KEYS = ("alpha", "v_err", "T_hat", "k_star", "residual", "T", "T_hats")


@dataclass(frozen=True)
class LMWorkload:
    """Study-mode reconstructions of one case at a fixed mesh.

    t_init is a fixed input per alpha, not recomputed by the estimator, so a
    change to the estimator cannot change the work done here. v_err_max and
    t_err_max are the accuracy bounds any seed must meet.
    """

    case_id: str
    alphas: tuple
    epsilon: float
    n: int
    steps: int
    t_init: dict
    v_err_max: float
    t_err_max: float
    basis_terms: Optional[int] = None  # k for the k*k tensor sine basis (2D)

    def prepare(self, seed: int) -> dict:
        case = cases.get_case(self.case_id)
        data = {}
        for alpha in self.alphas:
            setup = cases.make_setup(case, alpha, n=self.n, n_steps=self.steps)
            data[alpha] = (cases.exact_observation(case, alpha, setup.grid),
                           case.truth_nodal(setup.grid))
        return {"seed": seed, "case": case, "data": data}

    def run_cell(self, inputs: dict, i: int) -> dict:
        seed, case = inputs["seed"], inputs["case"]
        alpha = self.alphas[(seed + i) % len(self.alphas)]
        g_dag, truth = inputs["data"][alpha]
        basis = None
        if self.basis_terms is not None:
            basis = cases.tensor_sine_basis(Grid2D(self.n), self.basis_terms)
        setup = cases.make_setup(case, alpha, n=self.n, n_steps=self.steps, basis=basis)
        obs = inverse.add_noise(g_dag, self.epsilon, seed=seed + i, t_true=cases.T_TRUE)
        cfg = cases.lm_config_for(case, alpha, T_init=self.t_init[alpha],
                                  max_iter=MAX_ITER, stop="oracle")
        res = inverse.lm_reconstruct(setup, obs, cfg, truth=truth)
        return {
            "alpha": alpha,
            "v_err": mass_norm(setup.grid, res.v_hat - truth),
            "e0": res.history[0][2],
            "T_hat": res.T_hat,
            "T_err": abs(res.T_hat - cases.T_TRUE),
            "k_star": res.k_star,
            "r0": res.history[0][1],
            "residual": res.history[-1][1],
            "digest": _digest(res.v_hat, [v for h in res.history for v in h]),
        }

    def check(self, out: dict) -> list[str]:
        problems = []
        if not out["v_err"] <= self.v_err_max:
            problems.append(f"v_err {out['v_err']:.4g} > {self.v_err_max}")
        if not out["v_err"] < out["e0"]:
            problems.append("the reconstruction is no closer to the truth than v0")
        if not out["T_err"] <= self.t_err_max:
            problems.append(f"|T_hat - T| {out['T_err']:.4g} > {self.t_err_max}")
        if not out["residual"] < out["r0"]:
            problems.append("the residual did not decrease")
        return problems


@dataclass(frozen=True)
class EstimateWorkload:
    """The estimate-t sweep at a snapshot time drawn per cell from the seed."""

    case_ids: tuple
    alphas: tuple
    t_range: tuple
    t_err_max: float

    def prepare(self, seed: int) -> dict:
        return {"seed": seed}

    def snapshot_time(self, seed: int, i: int) -> float:
        lo, hi = self.t_range
        return lo + (hi - lo) * float(np.random.Generator(np.random.PCG64([seed, i])).random())

    def run_cell(self, inputs: dict, i: int) -> dict:
        T = self.snapshot_time(inputs["seed"], i)
        t_hats = [cases.estimate_prior_T(cases.get_case(cid), alpha, T=T)
                  for cid in self.case_ids for alpha in self.alphas]
        return {
            "T": T,
            "T_hats": t_hats,
            "T_err": max(abs(t - T) for t in t_hats),
            "digest": _digest(np.asarray(t_hats), []),
        }

    def check(self, out: dict) -> list[str]:
        if not out["T_err"] <= self.t_err_max:
            return [f"max |T_hat - T| {out['T_err']:.4g} > {self.t_err_max}"]
        return []


# The LM T_init values of the 1D workloads are the estimator's priors
# (`fracinv table` with t_init = auto) at T = 0.5 on the default meshes,
# recorded once and frozen. lm-bp-2d starts 10% below the truth because
# t_init = auto returns the true T in 2D.
WORKLOADS = {
    "lm-bp-1d": LMWorkload(
        case_id="5.1i", alphas=(0.5,), epsilon=1e-2, n=128, steps=512,
        t_init={0.5: 0.5000095157417175}, v_err_max=0.30, t_err_max=1e-3),
    "lm-ipp-1d": LMWorkload(
        case_id="5.3", alphas=(0.25, 0.5, 0.75), epsilon=0.0, n=128, steps=512,
        t_init={0.25: 0.4728895888326942, 0.5: 0.48291643677191237,
                0.75: 0.47986018673263586},
        v_err_max=0.15, t_err_max=0.02),
    "lm-bp-2d": LMWorkload(
        case_id="5.1ii", alphas=(0.5,), epsilon=1e-2, n=32, steps=64,
        t_init={0.5: 0.45}, v_err_max=0.15, t_err_max=0.06, basis_terms=6),
    "estimate-t": EstimateWorkload(
        case_ids=("5.1i", "5.2i", "5.3"), alphas=(0.25, 0.5, 0.75),
        t_range=(0.3, 0.7), t_err_max=0.06),
}


def _digest(array: np.ndarray, values: list) -> str:
    """Hex of the exact bits of a cell's outputs, for identity checks."""
    h = hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes())
    h.update(np.asarray(values, dtype=float).tobytes())
    return h.hexdigest()


def run_checked(workload, inputs: dict, i: int, reference: Optional[dict]) -> dict:
    """One cell with its gate: a FracinvError is a failure carrying its type
    name; outputs are checked against the truth and, where a reference value
    was recorded for this seed and cell, against it."""
    try:
        out = workload.run_cell(inputs, i)
    except FracinvError as exc:
        return {"error": type(exc).__name__, "problems": []}
    problems = workload.check(out)
    if reference is not None and str(i) in reference:
        problems += _compare(reference[str(i)], out)
    return {"error": None, "problems": problems, "out": out}


def _compare(ref: dict, out: dict) -> list[str]:
    problems = []
    for key, want in ref.items():
        got = out[key]
        if isinstance(want, list):
            bad = any(not math.isclose(g, w, rel_tol=REFERENCE_RTOL, abs_tol=0.0)
                      for g, w in zip(got, want)) or len(got) != len(want)
        elif isinstance(want, float):
            bad = not math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0)
        else:
            bad = got != want
        if bad:
            problems.append(f"{key} = {got!r} differs from the reference {want!r}")
    return problems
