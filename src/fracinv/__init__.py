"""fracinv: subdiffusion forward solvers and joint (parameter, terminal time)
reconstruction from a single spatial snapshot taken at an unknown time.

Modules:
  mittag_leffler - modal decay factors E_{a,b}(-x) to ~1e-12 relative
  grids          - meshes and nodal values on them
  problems       - forward problem descriptions and time grids
  spectral       - the closed-form sine basis, the per-mode propagator and
                   the terminal-time estimator, on plain arrays
  fem            - P1 finite elements with L1 time stepping to u(T)
  inverse        - Levenberg-Marquardt joint (parameter, time) reconstruction
  cases          - built-in benchmark definitions and data synthesis
  experiments    - config-driven drivers behind the CLI
"""

from .grids import Grid1D, Grid2D
from .mittag_leffler import MLParams, ml_eval, ml_neg
from .problems import ProblemSpec, TimeGrid
from .spectral import build_eigendecomposition, estimate_T
from .fem import L1Weights, convergence_study, solve_fem
from .inverse import (
    InverseSetup,
    LMConfig,
    Observation,
    ReconstructionResult,
    add_noise,
    forward_map,
    lm_reconstruct,
    lm_step,
)

__version__ = "0.1.0"
