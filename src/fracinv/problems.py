"""Forward-problem data of the FEM solver: one time-independent source f(x),
the field the source problem recovers, and the uniform time grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ParameterError
from .mittag_leffler import MLParams

__all__ = ["ProblemSpec", "TimeGrid"]

FieldData = Union[float, np.ndarray, Callable]


def check_count(name: str, value, least: int, error=ParameterError) -> None:
    """The count rule: an integer >= least, and a bool is no count."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """The data of one forward equation: order, initial state, source and
    boundary values. The coefficients are the operator's (`fem.FemOperator`),
    the horizon the time grid's (`TimeGrid`), the domain the mesh's.

    dirichlet is None for homogeneous boundary values, or a constant pair
    (a0, a1) on the interval (left, right).
    """

    alpha: float
    u0: FieldData
    f: FieldData
    dirichlet: Optional[tuple[float, float]] = None

    def __post_init__(self):
        MLParams(self.alpha)  # the order rule, alpha in (0, 1]
        if self.dirichlet is not None:
            a0, a1 = self.dirichlet
            if a0 < 0 or a1 < 0:
                raise ParameterError("Dirichlet constants must be nonnegative")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid 0 = t_0 < ... < t_N = T: an integer N >= 1, a finite T > 0."""

    n_steps: int
    T: float

    def __post_init__(self):
        check_count("the number of time steps", self.n_steps, 1)
        if not (0.0 < self.T < math.inf):
            raise ParameterError(f"T must be finite and positive, got {self.T}")

    @property
    def tau(self) -> float:
        return self.T / self.n_steps
