"""fracinv: subdiffusion forward solvers and joint (parameter, terminal time)
reconstruction from a single spatial snapshot taken at an unknown time.

Modules:
  mittag_leffler - modal decay factors E_{a,b}(-x) to ~1e-12 relative
  grids          - meshes and nodal/spectral fields
  problems       - forward problem descriptions and time grids
  spectral       - eigen-decompositions, modal solvers, terminal-time estimator
  fem            - P1 finite elements with L1 time stepping
  inverse        - Levenberg-Marquardt joint (parameter, time) reconstruction
  cases          - built-in benchmark definitions and data synthesis
  experiments    - config-driven drivers behind the CLI
"""

from .grids import Field, Grid1D, Grid2D
from .mittag_leffler import MLParams, ml_eval, ml_neg
from .problems import ProblemSpec, SeparableSource, TimeGrid, TimeIndependentSource
from .spectral import (
    EigenDecomposition,
    apply_F,
    build_eigendecomposition,
    estimate_T,
    hs_norm,
    solve_spectral,
    solve_spectral_ipp,
)
from .fem import L1Weights, Trajectory, caputo_derivative_at_T, convergence_study, solve_fem
from .inverse import (
    InverseSetup,
    LMConfig,
    Observation,
    ReconstructionResult,
    add_noise,
    direct_ipp_reconstruct,
    forward_map,
    lm_reconstruct,
    lm_step,
    metrics,
)

__version__ = "0.1.0"
