"""Interval meshes and structured triangulations of the unit square.

Geometry is floating point: it feeds the floating FEM assembly.  Exactness is
confined to :mod:`ctrldisc.exactbasis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactbasis import _check_size

__all__ = [
    "AffineMap",
    "SimplexMesh",
    "cell_affine_map",
    "cell_geometry",
    "unit_interval_mesh",
    "unit_square_mesh",
]


@dataclass(frozen=True)
class SimplexMesh:
    """Simplicial mesh: vertices, cells (d+1 vertex indices each), mesh size h.

    Cells have pairwise disjoint interiors and cover the unit interval/square.
    Instances are immutable (arrays are marked read-only) and safe to share.
    """

    dim: int
    vertices: np.ndarray  # (num_vertices, dim) float
    cells: np.ndarray  # (num_cells, dim + 1) int
    h: float

    def __post_init__(self):
        vertices = np.ascontiguousarray(self.vertices, dtype=float)
        cells = np.ascontiguousarray(self.cells, dtype=np.intp)
        if vertices.ndim != 2 or vertices.shape[1] != self.dim:
            raise ValueError("vertices must have shape (num_vertices, dim)")
        if cells.ndim != 2 or cells.shape[1] != self.dim + 1:
            raise ValueError("cells must have shape (num_cells, dim + 1)")
        vertices.setflags(write=False)
        cells.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "cells", cells)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]


@dataclass(frozen=True)
class AffineMap:
    """Affine map x_hat -> B x_hat + b from the reference simplex onto a cell."""

    matrix: np.ndarray  # (dim, dim)
    offset: np.ndarray  # (dim,)
    abs_det: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map reference points (nq, dim) to physical points (nq, dim)."""
        return points @ self.matrix.T + self.offset


def unit_interval_mesh(n: int) -> SimplexMesh:
    """n equal cells covering [0, 1]; h = 1/n."""
    _check_size("cell count", n, 1)
    vertices = (np.arange(n + 1, dtype=float) / n).reshape(-1, 1)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return SimplexMesh(dim=1, vertices=vertices, cells=cells, h=1.0 / n)


def unit_square_mesh(n: int) -> SimplexMesh:
    """Structured triangulation of [0, 1]^2: n^2 squares, each split into 2 triangles.

    Every square is cut along the same lower-left to upper-right diagonal, so
    meshes are deterministic and reports reproducible.  Vertex (i, j) has index
    j*(n+1) + i; there are 2 n^2 cells and h = sqrt(2)/n.
    """
    _check_size("subdivision count", n, 1)
    side = np.arange(n + 1, dtype=float) / n
    xs, ys = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xs.ravel(), ys.ravel()])

    # square (i, j), in row-major order, is cut into the lower-right triangle
    # (a, b, c) and the upper-left triangle (a, c, d)
    j, i = np.divmod(np.arange(n * n), n)
    a = j * (n + 1) + i
    b, c, d = a + 1, a + n + 2, a + n + 1
    cells = np.column_stack([a, b, c, a, c, d]).reshape(-1, 3)
    return SimplexMesh(dim=2, vertices=vertices, cells=cells, h=math.sqrt(2.0) / n)


def cell_geometry(mesh: SimplexMesh, index: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """B, shape (cells, d, d), and |det B|, shape (cells,), of every cell's affine map.

    One batched pass; given `index`, that cell only (leading axis of length 1).
    Column i of B is vertex i+1 minus vertex 0, so |det B| = d! * |T|; the
    determinant is closed-form for d <= 2.  Raises ValueError naming the first
    degenerate cell.
    """
    cells = mesh.cells if index is None else mesh.cells[[index]]
    verts = mesh.vertices[cells]  # (cells, d+1, d)
    matrices = np.swapaxes(verts[:, 1:] - verts[:, :1], 1, 2)
    if mesh.dim == 1:
        det = matrices[:, 0, 0]
    elif mesh.dim == 2:
        det = matrices[:, 0, 0] * matrices[:, 1, 1] - matrices[:, 0, 1] * matrices[:, 1, 0]
    else:
        det = np.linalg.det(matrices)
    abs_det = np.abs(det)
    degenerate = np.flatnonzero(abs_det == 0.0)
    if degenerate.size:
        first = int(degenerate[0]) if index is None else index
        raise ValueError(f"degenerate cell {first}: |det B| = 0")
    return matrices, abs_det


def cell_affine_map(mesh: SimplexMesh, index: int) -> AffineMap:
    """Affine map sending the reference simplex onto cell `index`.

    Reference vertex 0 goes to the cell's first vertex and reference vertex e_i
    to vertex i; |det B| = d! * |T|.  Raises on a degenerate cell.  A per-cell
    convenience: assembly uses the batched :func:`cell_geometry`.
    """
    matrices, abs_det = cell_geometry(mesh, index)
    matrix = matrices[0].copy()
    offset = mesh.vertices[mesh.cells[index, 0]].copy()
    matrix.setflags(write=False)
    offset.setflags(write=False)
    return AffineMap(matrix=matrix, offset=offset, abs_det=float(abs_det[0]))

