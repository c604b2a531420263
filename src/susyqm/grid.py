"""Symmetric 1D spatial grids and the exact parity permutation on them.

Grids are symmetric about x = 0 so that the reflection x -> -x maps the
point set onto itself exactly:

* Dirichlet grids on (-L/2, L/2) exclude both endpoints, h = L/(n+1);
  parity is plain index reversal.
* Periodic grids place x_j = -L/2 + j h with h = L/n and require an even
  point count; parity is then an exact index permutation modulo the period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_positive

DIRICHLET = "dirichlet"
PERIODIC = "periodic"

# The largest grid build_grid accepts: 10^8 points, two orders above the
# 10^6 the checks are measured at. Its points alone take 800 MB of float64,
# and one three-point stencil in CSR about 4 GB (3 * 10^8 float64 values
# and int32 column indices).
MAX_POINTS = 10 ** 8


@dataclass(frozen=True)
class Grid1D:
    """Immutable uniform grid on [-L/2, L/2]; spacing and points derive from the three fields."""

    half_width: float
    n_points: int
    boundary: str

    @property
    def length(self) -> float:
        return 2.0 * self.half_width

    @property
    def spacing(self) -> float:
        if self.boundary == DIRICHLET:
            return self.length / (self.n_points + 1)
        return self.length / self.n_points

    @property
    def points(self) -> np.ndarray:
        """Grid points, reproducible bit-exactly from the stored fields.

        Built as signed offsets from the center so the point set is
        bit-exactly invariant under negation.
        """
        j = np.arange(self.n_points)
        if self.boundary == DIRICHLET:
            return (j + 1 - (self.n_points + 1) / 2.0) * self.spacing
        return (j - self.n_points / 2.0) * self.spacing

    @property
    def zero_index(self) -> int | None:
        """Index of the x = 0 point, or None if 0 is not a grid point."""
        if self.boundary == DIRICHLET:
            if self.n_points % 2 == 1:
                return self.n_points // 2
            return None
        return self.n_points // 2


def build_grid(half_width: float, n_points: int, boundary: str) -> Grid1D:
    """Validate parameters and construct a Grid1D.

    n_points runs from 3 to MAX_POINTS; a larger count is refused here,
    before any array is allocated, rather than by a failed allocation.
    """
    if boundary not in (DIRICHLET, PERIODIC):
        raise ParameterError(f"unknown boundary {boundary!r}; use 'dirichlet' or 'periodic'")
    require_positive("half_width", half_width)
    if n_points < 3:
        raise ParameterError(f"n_points must be at least 3, got {n_points}")
    if n_points > MAX_POINTS:
        raise ParameterError(f"n_points must be at most {MAX_POINTS}, got {n_points}")
    if boundary == PERIODIC and n_points % 2 != 0:
        raise ParameterError(
            f"periodic grids need an even point count so parity closes exactly, got {n_points}"
        )
    grid = Grid1D(half_width=float(half_width), n_points=int(n_points), boundary=boundary)
    # the stencils divide by h^2: keep 1/h^2 a finite, nonzero float
    inv_h = 1.0 / grid.spacing if grid.spacing > 0 else math.inf
    if not 0 < inv_h * inv_h < math.inf:
        raise ParameterError(
            f"grid spacing {grid.spacing!r} is out of range: 1/h^2 overflows or vanishes")
    return grid


def parity_permutation(grid: Grid1D) -> np.ndarray:
    """Index permutation pi with x[pi(j)] == -x[j] (mod period if periodic).

    The permutation is an involution on every valid grid.
    """
    n = grid.n_points
    j = np.arange(n)
    if grid.boundary == DIRICHLET:
        return j[::-1].copy()
    # x_j = -L/2 + j h; -x_j = -L/2 + (n - j) h up to one period, so
    # j -> (n - j) mod n, fixing j = 0 (the -L/2 point maps to L/2 = -L/2 + L).
    return (n - j) % n
