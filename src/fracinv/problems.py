"""Forward-problem description of the FEM solver: one time-independent
source f(x), the field the source problem recovers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ParameterError
from .mittag_leffler import MLParams

__all__ = ["ProblemSpec", "TimeGrid"]

FieldData = Union[float, np.ndarray, Callable]


@dataclass(frozen=True)
class ProblemSpec:
    """One forward equation: order, coefficients and data. The horizon is
    the time grid's (`TimeGrid`), the domain the mesh's.

    dirichlet is None for homogeneous boundary values, or a constant pair
    (a0, a1) on the interval (left, right).
    """

    alpha: float
    u0: FieldData
    f: FieldData
    diffusion: FieldData = 1.0
    potential: FieldData = 0.0
    dirichlet: Optional[tuple[float, float]] = None

    def __post_init__(self):
        MLParams(self.alpha)  # the order rule, alpha in (0, 1]
        if self.dirichlet is not None:
            a0, a1 = self.dirichlet
            if a0 < 0 or a1 < 0:
                raise ParameterError("Dirichlet constants must be nonnegative")


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
