"""Meshes, and spatial functions as nodal values on them.

Every solver consumes and produces a spatial function as its values at all
nodes of a grid, boundary nodes included; `as_nodal_values` turns a callable,
a scalar or an array into that form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParameterError, ShapeError
from .problems import check_count

__all__ = ["Grid1D", "Grid2D", "as_nodal_values"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (0, 1) with n intervals, nodes x_i = i/n, i = 0..n."""

    n: int

    def __post_init__(self):
        check_count("the number of intervals", self.n, 2, ShapeError)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def n_nodes(self) -> int:
        return self.n + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

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
        check_count("the number of cells per side", self.n, 2, ShapeError)

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


def at_points(f, *coords: np.ndarray) -> np.ndarray:
    """The callable f at points of coordinate arrays coords, all of one shape;
    a scalar result is broadcast, any other shape is a ShapeError."""
    vals, shape = np.asarray(f(*coords), dtype=float), coords[0].shape
    if vals.shape not in ((), shape):
        raise ShapeError(f"a field callable gave shape {vals.shape} at points of shape {shape}")
    return np.full(shape, vals)


def as_nodal_values(f, grid: GridLike) -> np.ndarray:
    """Sample a callable / broadcast a scalar / validate an array on grid nodes."""
    if f is None:  # np.asarray(None, float) would be a NaN field
        raise ParameterError("a field is None, not a callable, a number or an array")
    if callable(f):
        return at_points(f, *np.atleast_2d(grid.nodes.T))
    arr = np.asarray(f, dtype=float)
    if arr.shape not in ((), (grid.n_nodes,)):
        raise ShapeError(f"field has {arr.shape}, grid expects ({grid.n_nodes},)")
    return np.full(grid.n_nodes, arr)
