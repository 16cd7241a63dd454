"""Per-source feeding regions on a uniform grid.

Each source with positive cone radius dominates the region where its cone
height ``r_j - |x - y_j|`` beats every other cone and zero.  Areas are
estimated by cell counting, which is first-order accurate in the grid
spacing and refined on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import ConvexDomain

NONE_LABEL = -1


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid covering the bounding box of the domain."""

    origin: np.ndarray
    h: float
    nx: int
    ny: int
    inside_mask: np.ndarray  # (ny, nx) bool, True where the cell center is in the domain

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    def cell_centers(self) -> np.ndarray:
        """(ny, nx, 2) array of cell centers."""
        xs = self.origin[0] + (np.arange(self.nx) + 0.5) * self.h
        ys = self.origin[1] + (np.arange(self.ny) + 0.5) * self.h
        cx, cy = np.meshgrid(xs, ys)
        return np.stack([cx, cy], axis=-1)

    def inside_centers(self) -> np.ndarray:
        """(m, 2) centers of inside cells, row-major order."""
        return self.cell_centers()[self.inside_mask]

    @cached_property
    def center_labels(self) -> list[str]:
        """``"x,y,"`` text of each inside cell center, 17 significant digits, row-major."""
        return [f"{x:.17g},{y:.17g}," for x, y in self.inside_centers().tolist()]

    def cell_index(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Row/column indices of the cells containing the given points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cols = np.clip(((points[:, 0] - self.origin[0]) / self.h).astype(int), 0, self.nx - 1)
        rows = np.clip(((points[:, 1] - self.origin[1]) / self.h).astype(int), 0, self.ny - 1)
        return rows, cols


@dataclass(frozen=True)
class Partition:
    """Cell labels (source index or NONE_LABEL) and per-source areas."""

    grid: Grid
    labels: np.ndarray  # (ny, nx) int, NONE_LABEL outside the pile or domain
    areas: np.ndarray   # (k,) float


def build_grid(domain: ConvexDomain, h: float) -> Grid:
    if h <= 0.0:
        raise ValueError("grid spacing must be positive")
    lo, hi = domain.bbox
    nx = max(1, int(np.ceil((hi[0] - lo[0]) / h - 1e-12)))
    ny = max(1, int(np.ceil((hi[1] - lo[1]) / h - 1e-12)))
    xs = lo[0] + (np.arange(nx) + 0.5) * h
    ys = lo[1] + (np.arange(ny) + 0.5) * h
    cx, cy = np.meshgrid(xs, ys)
    centers = np.stack([cx.ravel(), cy.ravel()], axis=1)
    mask = domain.contains_many(centers).reshape(ny, nx)
    return Grid(origin=np.asarray(lo, dtype=float), h=float(h), nx=nx, ny=ny, inside_mask=mask)


def distances(points: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """(m, k) array of |x_i - y_j|, one row per point and one column per source.

    Bit-equal to ``np.linalg.norm(points[None] - locations[:, None], axis=2).T``,
    which also sums dx*dx + dy*dy, without the (k, m, 2) difference array.
    """
    points = np.asarray(points, dtype=float)
    locations = np.asarray(locations, dtype=float)
    dist = points[:, 0, None] - locations[None, :, 0]
    dy = points[:, 1, None] - locations[None, :, 1]
    dist *= dist
    dy *= dy
    dist += dy
    return np.sqrt(dist, out=dist)


def cone_values(points: np.ndarray, locations: np.ndarray, radii: np.ndarray, dist=None) -> np.ndarray:
    """(m, k) array of r_j - |x_i - y_j|, one row per point and one column per source.

    ``dist`` may pass ``distances(points, locations)`` computed beforehand.
    """
    if dist is None:
        dist = distances(points, locations)
    return radii[None, :] - dist


def partition(grid: Grid, sources, radii, dist=None) -> Partition:
    """Label every inside cell by the dominating source.

    A cell belongs to source j when r_j - |x - y_j| is maximal among all
    sources and strictly positive; ties go to the lowest source index.
    ``dist`` may pass the (inside cells, sources) matrix
    ``distances(grid.inside_centers(), sources.locations)``, which stays
    fixed while only the radii change; without it the matrix is computed here.
    """
    radii = np.asarray(radii, dtype=float)
    locations = np.asarray(sources.locations, dtype=float)
    if len(radii) != len(locations):
        raise ValueError("one radius per source required")
    if np.any(radii < 0.0):
        raise ValueError("radii must be non-negative")
    k = len(radii)
    if dist is not None and dist.shape != (int(grid.inside_mask.sum()), k):
        raise ValueError(
            f"distance matrix of shape {dist.shape} does not match "
            f"{int(grid.inside_mask.sum())} inside cells and {k} sources"
        )

    labels = np.full((grid.ny, grid.nx), NONE_LABEL, dtype=np.int64)
    if k > 0 and np.any(radii > 0.0):
        if dist is None:
            dist = distances(grid.inside_centers(), locations)
        values = radii[None, :] - dist
        best = np.argmax(values, axis=1)           # lowest index wins ties
        covered = values[np.arange(len(values)), best] > 0.0
        labels[grid.inside_mask] = np.where(covered, best, NONE_LABEL)

    counts = np.bincount(labels[labels >= 0].ravel(), minlength=k)
    return Partition(grid=grid, labels=labels, areas=counts * grid.cell_area)


def areas_only(grid: Grid, sources, radii, dist=None) -> np.ndarray:
    return partition(grid, sources, radii, dist).areas


def areas_with_floor(grid: Grid, domain: ConvexDomain, sources, radii, needs_area, dist=None) -> np.ndarray:
    """Areas for the integrator: a needed source must have positive area.

    A source that still feeds the pile (positive radius below its escape
    cost) must occupy positive area; a zero count means the grid cannot
    resolve its region.  One halving is attempted before giving up.
    ``dist`` is the cell-source distance matrix of ``grid`` (see
    ``partition``); the halved grid computes its own.
    """
    areas = areas_only(grid, sources, radii, dist)
    needs_area = np.asarray(needs_area, dtype=bool)
    if not np.any(needs_area & (areas <= 0.0)):
        return areas
    fine = build_grid(domain, grid.h * 0.5)
    fine_areas = areas_only(fine, sources, radii)
    bad = needs_area & (fine_areas <= 0.0)
    if np.any(bad):
        j = int(np.nonzero(bad)[0][0])
        raise RuntimeError(
            f"source {j} has an unresolved feeding region (radius {radii[j]:.6g}, "
            f"grid spacing {fine.h:.3e}); refine the grid"
        )
    return fine_areas
