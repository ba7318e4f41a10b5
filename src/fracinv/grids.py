"""Meshes, and spatial functions as nodal values on them.

Every solver consumes and produces a spatial function as its values at all
nodes of a grid, boundary nodes included; `as_nodal_values` turns a callable,
a scalar or an array into that form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ShapeError

__all__ = ["Grid1D", "Grid2D", "as_nodal_values"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (0, 1) with n intervals, nodes x_i = i/n, i = 0..n."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ShapeError(f"need at least 2 intervals, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def n_nodes(self) -> int:
        return self.n + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @property
    def interior(self) -> slice:
        return slice(1, self.n)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n + 1, self.h)
        w[0] = w[-1] = self.h / 2.0
        return w


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid on the unit square, n x n cells, each cell split
    into two right triangles (SW-NE diagonal). Nodes are ordered row-major:
    node (i, j) -> j * (n+1) + i, with x = i/n, y = j/n."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ShapeError(f"need at least 2 cells per side, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def n_nodes(self) -> int:
        return (self.n + 1) ** 2

    @property
    def nodes(self) -> np.ndarray:
        """(n_nodes, 2) array of node coordinates."""
        s = np.linspace(0.0, 1.0, self.n + 1)
        xx, yy = np.meshgrid(s, s, indexing="xy")
        return np.column_stack([xx.ravel(), yy.ravel()])

    def interior_mask(self) -> np.ndarray:
        m = np.zeros((self.n + 1, self.n + 1), dtype=bool)
        m[1:-1, 1:-1] = True
        return m.ravel()

    def triangles(self) -> np.ndarray:
        """(2*n*n, 3) node indices; SW and NE triangle per cell."""
        n = self.n
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        v00 = (j * (n + 1) + i).ravel()
        v10 = v00 + 1
        v01 = v00 + (n + 1)
        v11 = v01 + 1
        lower = np.column_stack([v00, v10, v11])
        upper = np.column_stack([v00, v11, v01])
        return np.vstack([lower, upper])


GridLike = Union[Grid1D, Grid2D]


def as_nodal_values(f, grid: GridLike) -> np.ndarray:
    """Sample a callable / broadcast a scalar / validate an array on grid nodes."""
    if callable(f):
        if isinstance(grid, Grid1D):
            return np.asarray(f(grid.nodes), dtype=float)
        pts = grid.nodes
        return np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.n_nodes, float(arr))
    if arr.shape != (grid.n_nodes,):
        raise ShapeError(f"field has {arr.shape}, grid expects ({grid.n_nodes},)")
    return arr
