"""Forward-problem description of the FEM solver: one time-independent
source f(x), the field the source problem recovers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ParameterError
from .grids import Grid1D, Grid2D, GridLike

__all__ = ["ProblemSpec", "TimeGrid"]

FieldData = Union[float, np.ndarray, Callable]


@dataclass(frozen=True)
class ProblemSpec:
    """One forward problem: order, domain, coefficients, data, horizon.

    dirichlet is None for homogeneous boundary values, or a constant pair
    (a0, a1) on the interval (left, right).
    """

    alpha: float
    T: float
    u0: FieldData
    f: FieldData
    diffusion: FieldData = 1.0
    potential: FieldData = 0.0
    dirichlet: Optional[tuple[float, float]] = None
    domain: str = "interval"

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.T <= 0.0:
            raise ParameterError(f"T must be positive, got {self.T}")
        if self.domain not in ("interval", "unit_square"):
            raise ParameterError(f"unknown domain {self.domain!r}")
        if self.dirichlet is not None:
            if self.domain != "interval":
                raise ParameterError("constant Dirichlet values require the interval")
            a0, a1 = self.dirichlet
            if a0 < 0 or a1 < 0:
                raise ParameterError("Dirichlet constants must be nonnegative")

    def grid_for(self, n: int) -> GridLike:
        return Grid1D(n) if self.domain == "interval" else Grid2D(n)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid 0 = t_0 < ... < t_N = T."""

    n_steps: int
    T: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise ParameterError("need at least one time step")
        if self.T <= 0.0:
            raise ParameterError("T must be positive")

    @property
    def tau(self) -> float:
        return self.T / self.n_steps
