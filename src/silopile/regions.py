"""Per-source feeding regions on a uniform grid.

Each source with positive cone radius dominates the region where its cone
height ``r_j - |x - y_j|`` beats every other cone and zero: an additively
weighted (Apollonius) cell.  Areas are estimated by cell counting, which is
first-order accurate in the grid spacing and refined on demand.

A cell is only ever won by one of a few nearby sources, and during a run
only the radii move.  ``SourceLists`` keeps, per cell, the few sources that
can win while the radii stay near their values at the last rebuild, with
their exact distances, so a partition reads (cells x few) values instead of
a (cells x sources) matrix and gives the same labels and heights, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import ConvexDomain

NONE_LABEL = -1

# Cells per side of a rebuild tile: the tile pass measures tiles x sources,
# 1/16 of the cells x sources matrix, and a tile's radius (about 2h) widens
# the lists little.
TILE = 4
# A tile keeping more than k / DENSE_SHARE sources gives way to full lists of
# all k sources, computed once and never rebuilt.  Measured on the benchmark
# (2-core VM, 16 in-process passes): short lists for every k made a certify
# (k = 2) pass rebuild 53 times and spend 98 ms in ``best``, against 39 ms
# with full lists (pass medians 0.39 and 0.32 s), and a refine (k = 4, 16)
# pass 49 ms against 36 ms; grow (k = 256) keeps at most 20 sources per tile.
DENSE_SHARE = 8
# Rounding slack of the tile bound, relative to the extent of points, sources
# and radii: far above the few ulps a distance or a difference can be off.
SLACK = 1e-12


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

    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The cell centers' x per column and y per row."""
        xs = self.origin[0] + (np.arange(self.nx) + 0.5) * self.h
        ys = self.origin[1] + (np.arange(self.ny) + 0.5) * self.h
        return xs, ys

    def cell_centers(self) -> np.ndarray:
        """(ny, nx, 2) array of cell centers."""
        cx, cy = np.meshgrid(*self._axes())
        return np.stack([cx, cy], axis=-1)

    def inside_centers(self) -> np.ndarray:
        """(m, 2) centers of inside cells, row-major order."""
        return self.cell_centers()[self.inside_mask]

    @cached_property
    def center_labels(self) -> list[str]:
        """``"x,y,"`` text of each inside cell center, 17 significant digits, row-major."""
        # each column's x and each row's y formatted once
        xs, ys = ([f"{v:.17g}," for v in axis.tolist()] for axis in self._axes())
        rows, cols = np.nonzero(self.inside_mask)
        return [xs[c] + ys[r] for r, c in zip(rows.tolist(), cols.tolist())]

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
    box = Grid(np.asarray(lo, dtype=float), float(h), nx, ny, np.ones((ny, nx), dtype=bool))
    return replace(box, inside_mask=domain.contains_many(box.inside_centers()).reshape(ny, nx))


def distances(points: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """(m, k) array of |x_i - y_j|, one row per point and one column per source.

    Bit-equal to ``np.linalg.norm(points[None] - locations[:, None], axis=2).T``,
    which also sums dx*dx + dy*dy, without the (k, m, 2) difference array.
    """
    points = np.asarray(points, dtype=float)
    locations = np.asarray(locations, dtype=float)
    return _norm(points[:, 0, None] - locations[None, :, 0], points[:, 1, None] - locations[None, :, 1])


def _norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy), written over ``dx``: the arithmetic of ``distances``."""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


class SourceLists:
    """Per point, the sources that can win the argmax of r_j - |x - y_j|.

    Points and sources stay fixed; the radii may change from call to call.
    At a rebuild with radii r0 each point keeps the sources with
    r0_j - d_j >= max_i (r0_i - d_i) - 3 delta, in ascending index order,
    with their exact distances.  The lists serve while every
    |r_j - r0_j| <= delta: a source left out then stays at least delta
    below the point's best, so every source tied at the maximum is listed
    and an argmax over a list keeps the lowest-index tie rule of the full
    row.  Snapshots go back in time, so the drift check is two-sided.

    ``h`` is the spacing of the grid the points are the cell centres of;
    delta = h, so the lists of a run survive a few steps.  Without it the
    lists are for one set of radii: delta = 0, and any change of radii
    rebuilds them.

    A rebuild finds each point's list from a tile pass: points are grouped
    into tiles of TILE x TILE cells (of spacing h, or of the points' extent
    over the square root of their count), each with a centre c and radius
    rho, and a tile keeps the sources within 2 rho + 3 delta of its best
    value at c.  When some tile keeps more than k / DENSE_SHARE sources,
    every point lists all k sources instead; such lists serve any radii.

    ``rebuilds`` counts the builds and ``max_candidates`` the longest list built.
    """

    def __init__(self, points, locations, h: float | None = None):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.locations = np.asarray(locations, dtype=float)
        self.h = h
        self.delta = 0.0 if h is None else float(h)
        self.index = None  # (m, width) listed sources, ascending; one shared row for full lists
        self.dist = None   # (m, width) their distances, +inf after a short list
        self.base_radii = None  # the radii of the last rebuild
        self.rebuilds = 0
        self.max_candidates = 0

    @property
    def k(self) -> int:
        return len(self.locations)

    def best(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """Per point: the lowest-index source maximizing r_j - |x - y_j|, and that maximum."""
        radii = np.asarray(radii, dtype=float)
        if len(self.points) == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        if self.base_radii is None or np.abs(radii - self.base_radii).max() > self.delta:
            self._rebuild(radii)
        values = radii[self.index] - self.dist
        pos = np.argmax(values, axis=1)
        rows = np.arange(len(values))
        return self.index[rows if len(self.index) > 1 else 0, pos], values[rows, pos]

    def _rebuild(self, radii: np.ndarray) -> None:
        self.rebuilds += 1
        self.base_radii = radii.copy()
        k = self.k
        # With k < DENSE_SHARE every tile keeps more than k / DENSE_SHARE sources.
        keep = self._tile_candidates(radii) if k >= DENSE_SHARE else None
        if keep is None or keep.sum(axis=1).max() > k / DENSE_SHARE:
            self.index = np.arange(k)[None, :]
            self.dist = distances(self.points, self.locations)
            self.delta = np.inf
            self.max_candidates = k
            return
        tile_of = self._tile_geometry[0]
        rows, cols, slot, width = _pack(keep)
        tile_index = np.full((len(keep), width), k)  # k: a source at infinity pads the rows
        tile_index[rows, slot] = cols
        index = tile_index[tile_of]
        xs, ys = np.append(self.locations[:, 0], np.inf), np.append(self.locations[:, 1], np.inf)
        dist = _norm(self.points[:, 0, None] - xs[index], self.points[:, 1, None] - ys[index])
        values = np.append(radii, 0.0)[index] - dist
        rows, cols, slot, width = _pack(values >= (values.max(axis=1) - 3.0 * self.delta)[:, None])
        self.index = np.zeros((len(index), width), dtype=np.int64)
        self.index[rows, slot] = index[rows, cols]
        self.dist = np.full((len(index), width), np.inf)
        self.dist[rows, slot] = dist[rows, cols]
        self.max_candidates = max(self.max_candidates, width)

    def _tile_candidates(self, radii: np.ndarray) -> np.ndarray:
        """(tiles, k) bool: the sources within 2 rho + 3 delta of each tile's best at its centre."""
        _, centres, rho, extent = self._tile_geometry
        values = distances(centres, self.locations)
        np.subtract(radii, values, out=values)
        slack = SLACK * (extent + float(np.abs(radii).max()))
        return values >= (values.max(axis=1) - 2.0 * rho - (3.0 * self.delta + slack))[:, None]

    @cached_property
    def _tile_geometry(self):
        """Tile of each point, each tile's centre and radius, and the extent of points and sources."""
        p = self.points
        spacing = self.h or float(np.ptp(p, axis=0).max()) / np.sqrt(len(p)) or 1.0
        cells = np.rint((p - p.min(axis=0)) / spacing).astype(np.int64) // TILE
        _, tile_of = np.unique(cells[:, 0] * (int(cells[:, 1].max()) + 1) + cells[:, 1], return_inverse=True)
        tile_of = tile_of.ravel()
        members = np.bincount(tile_of)
        centres = np.stack([np.bincount(tile_of, p[:, 0]), np.bincount(tile_of, p[:, 1])], axis=1)
        centres /= members[:, None]
        reach = np.sqrt(((p - centres[tile_of]) ** 2).sum(axis=1))
        rho = np.zeros(len(members))
        np.maximum.at(rho, tile_of, reach)
        both = np.vstack([p, self.locations])
        return tile_of, centres, rho, float(np.ptp(both, axis=0).sum() + np.abs(both).max())


def _pack(keep: np.ndarray):
    """The True entries of each row of ``keep``, moved left in column order.

    Returns their rows and columns, their slots in the packed rows and the
    packed width.
    """
    rows, cols = np.divmod(np.flatnonzero(keep), keep.shape[1])  # ascending column within a row
    counts = np.bincount(rows, minlength=len(keep))
    slot = np.arange(len(cols)) - (np.cumsum(counts) - counts)[rows]
    return rows, cols, slot, int(counts.max())


def partition(grid: Grid, sources, radii, lists: SourceLists | None = None) -> Partition:
    """Label every inside cell by the dominating source.

    A cell belongs to source j when r_j - |x - y_j| is maximal among all
    sources and strictly positive; ties go to the lowest source index.
    ``lists`` may pass the run's ``SourceLists`` of the grid's inside cells;
    without it a one-shot one is built here.
    """
    radii = np.asarray(radii, dtype=float)
    locations = np.asarray(sources.locations, dtype=float)
    if len(radii) != len(locations):
        raise ValueError("one radius per source required")
    if np.any(radii < 0.0):
        raise ValueError("radii must be non-negative")
    k = len(radii)
    m = int(grid.inside_mask.sum())
    if lists is not None and (len(lists.points) != m or lists.k != k or lists.h != grid.h):
        raise ValueError(
            f"source lists of {len(lists.points)} points, {lists.k} sources and spacing {lists.h} "
            f"do not match {m} inside cells, {k} sources and spacing {grid.h}"
        )

    labels = np.full((grid.ny, grid.nx), NONE_LABEL, dtype=np.int64)
    if k > 0 and np.any(radii > 0.0):
        if lists is None:
            lists = SourceLists(grid.inside_centers(), locations)
        best, value = lists.best(radii)
        labels[grid.inside_mask] = np.where(value > 0.0, best, NONE_LABEL)

    counts = np.bincount(labels[labels >= 0].ravel(), minlength=k)
    return Partition(grid=grid, labels=labels, areas=counts * grid.cell_area)


def areas_only(grid: Grid, sources, radii, lists: SourceLists | None = None) -> np.ndarray:
    return partition(grid, sources, radii, lists).areas


def areas_with_floor(
    grid: Grid, domain: ConvexDomain, sources, radii, needs_area, lists: SourceLists | None = None
) -> np.ndarray:
    """Areas for the integrator: a needed source must have positive area.

    A source that still feeds the pile (positive radius below its escape
    cost) must occupy positive area; a zero count means the grid cannot
    resolve its region.  One halving is attempted before giving up.
    ``lists`` are the ``SourceLists`` of ``grid`` (see ``partition``); the
    halved grid builds its own.
    """
    areas = areas_only(grid, sources, radii, lists)
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
