"""Per-source feeding regions on a uniform grid.

Each source with positive cone radius dominates the region where its cone
height ``r_j - |x - y_j|`` beats every other cone and zero: an additively
weighted (Apollonius) cell.  Areas are estimated by cell counting, which is
first-order accurate in the grid spacing and refined on demand.

A cell is only ever won by one of a few nearby sources, and during a run
only the radii move.  ``SourceLists`` keeps, per cell, the few sources that
can win while the radii keep close to their values at the last rebuild up
to a common shift, with their exact distances, and re-ranks only the cells
whose winner a change of radii can overturn.  So a partition reads a few
values per cell instead of a (cells x sources) matrix and gives the same
labels and heights, bit for bit.  Only a grid builds lists, of its inside
cells (``Grid.source_lists``); every partition, height field and
certificate demand height on that grid, for one set of sources, reads them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress

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
# Rounding slack of the tile bound and of a point's lead, relative to the
# extent of points, sources and radii: far above the few ulps a distance or
# a difference can be off.
SLACK = 1e-12
# Entries (rows x sources) per block of every points-by-sources pass: the
# distances, the tile and point passes of a rebuild and a rank.  A block's
# temporaries stay small, so a pass holds little beside what it keeps, and
# each block costs a few dozen numpy calls.  Measured on a 2-core VM: with
# 2^13 entries ``simulate`` at k = 4096, h = 1/512 peaked at 134 MB (1193 MB
# with whole-array passes); on the benchmark's grow config it peaked at
# 32.6 MB against 36.5 MB, where 2^15 entries reached 34.4 MB and 2^16 35.0 MB.
BLOCK = 1 << 13


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
        """``"x,y,"`` text of each inside cell center, 17 significant digits, row-major: ``csv_template``'s."""
        return self.csv_template.split("%.17g\n")[:-1]

    @cached_property
    def csv_template(self) -> str:
        """The rows of a table of the inside cells: ``"x,y,%.17g"`` per cell, row-major."""
        xs, ys = self._axes()
        xs = [f"{v:.17g}," for v in xs.tolist()]
        rows = []
        for y, inside in zip(ys.tolist(), self.inside_mask.tolist()):
            row = list(compress(xs, inside))
            if row:  # "x0" + tail + "x1" + tail ..., with tail = "y,%.17g\n"
                tail = f"{y:.17g},%.17g\n"
                rows.append(tail.join(row) + tail)
        return "".join(rows)

    def source_lists(self, locations) -> SourceLists:
        """The ``SourceLists`` of the inside cells at spacing h, for these source locations.

        Built on the first call and returned again while the same locations
        come back; other locations replace them.
        """
        locations = np.asarray(locations, dtype=float)
        lists = getattr(self, "_lists", None)
        if lists is None or not np.array_equal(lists.locations, locations):
            lists = SourceLists(self.inside_centers(), locations, self.h)
            object.__setattr__(self, "_lists", lists)  # a cache, not a field: == and replace() ignore it
        return lists

    def cell_of(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row/column indices of the cells containing the points (x, y), clipped to the grid."""
        cols = np.clip(((x - self.origin[0]) / self.h).astype(int), 0, self.nx - 1)
        rows = np.clip(((y - self.origin[1]) / self.h).astype(int), 0, self.ny - 1)
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
    need = nx * ny * 17  # bytes of the (ny, nx, 2) float centres and the (ny, nx) bool mask
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"grid spacing h = {h:g} needs {nx} x {ny} cells, whose centres and mask alone "
            f"take {need / 2**30:.3g} GiB of the {have / 2**30:.3g} GiB of memory; raise h"
        )
    box = Grid(np.asarray(lo, dtype=float), float(h), nx, ny, np.ones((ny, nx), dtype=bool))
    return replace(box, inside_mask=domain.contains_many(box.inside_centers()).reshape(ny, nx))


def distances(points: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """(m, k) array of |x_i - y_j|, one row per point and one column per source.

    Bit-equal to ``np.linalg.norm(points[None] - locations[:, None], axis=2).T``,
    which also sums dx*dx + dy*dy.  Each block of rows is written in place
    in the result, so the pass holds no other array of its size.
    """
    points = np.asarray(points, dtype=float)
    locations = np.asarray(locations, dtype=float)
    out = np.empty((len(points), len(locations)))
    xs, ys = locations[:, 0], locations[:, 1]
    for rows in _blocks(len(points), len(locations)):
        p = points[rows]
        _norm(np.subtract(p[:, 0, None], xs, out=out[rows]), p[:, 1, None] - ys)
    return out


def _norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy), written over ``dx``: the arithmetic of ``distances``."""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices of ``rows`` rows of ``width`` entries: BLOCK entries each, at least one row."""
    step = max(1, BLOCK // max(width, 1))
    return [slice(b, min(b + step, rows)) for b in range(0, rows, step)]


class SourceLists:
    """Per point, the sources that can win the argmax of r_j - |x - y_j|.

    Points and sources stay fixed; the radii may change from call to call.
    At a rebuild with radii r0 each point keeps the sources with
    r0_j - d_j >= max_i (r0_i - d_i) - 3 delta, in ascending index order,
    with their exact distances.  The lists serve while the shift r - r0
    spreads by at most 2 delta.  Write it c + e_j, with c its midpoint and
    |e_j| <= delta: adding c to every radius changes no argmax, so a source
    left out then stays at least delta below the point's best, every
    source tied at the maximum is listed, and an argmax over a list keeps
    the lowest-index tie rule of the full row.  Radii rising together, or
    going back together to a snapshot's, keep the lists.

    A call re-ranks only the points whose winner can have changed.  Per
    point it keeps the last winner, its distance, and a lower bound on its
    lead over the runner-up among the listed sources.  With s the shift
    from the last call's radii, no listed source gains more than
    max(s) - s_winner on the winner, so the bound falls by that, and by one
    rounding slack (SLACK relative to the extent of points and sources and
    to the radii).  Only the points whose bound is then within a slack of
    zero are ranked again over their lists; a rebuild ranks them all.  The
    value returned is r_winner - d_winner, the same float operation as a
    full row's.

    The points are the cell centres of a grid of spacing ``h`` that builds
    the lists (``Grid.source_lists``); delta = h, so they serve a few steps.

    A rebuild finds each point's list from a tile pass: points are grouped
    into tiles of TILE x TILE cells, each with a centre c and radius rho,
    and a tile keeps the sources within 2 rho + 3 delta of its best value
    at c.  When some tile keeps more than k / DENSE_SHARE sources, every
    point lists all k sources instead; such lists serve any radii.  The
    point pass then measures each point against its tile's sources only.

    Every pass runs over blocks of BLOCK (rows x sources) entries and keeps
    only what each block's rows keep: the tile pass packs each block of
    tiles' sources as it goes and gives way to full lists at the first
    crowded tile, the point pass packs each block of cells, and a rank
    walks blocks of cells.  So a rebuild holds the lists it keeps and a
    few blocks, never a (tiles x sources) or (cells x tile sources) array,
    and each entry is the same float operation as a whole-array pass's.

    ``rebuilds`` counts the builds, ``max_candidates`` the longest list
    built and ``reranked`` the points ranked, over all calls.
    """

    def __init__(self, points, locations, h: float):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.locations = np.asarray(locations, dtype=float)
        self.h = self.delta = float(h)
        self.index = None  # (m, width) listed sources, ascending; one shared row for full lists
        self.dist = None   # (m, width) their distances, +inf after a short list
        self.base_radii = None  # the radii of the last rebuild
        self.radii = None       # the radii of the last call
        m = len(self.points)
        self.winner = np.zeros(m, dtype=np.int64)  # per point, at the last call
        self.wdist = np.zeros(m)                   # the winner's distance
        self.lead = np.zeros(m)                    # a lower bound on the winner's lead
        self.rebuilds = 0
        self.max_candidates = 0
        self.reranked = 0

    @property
    def k(self) -> int:
        return len(self.locations)

    def best(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """Per point: the lowest-index source maximizing r_j - |x - y_j|, and that maximum."""
        radii = np.array(radii, dtype=float)  # a copy, kept as the last call's radii
        if len(self.points) == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        spread = None if self.base_radii is None else radii - self.base_radii
        if spread is None or np.ptp(spread) > 2.0 * self.delta:
            self._rebuild(radii)
            self._rank(radii)
        else:
            shift = radii - self.radii
            if shift.any():
                slack = SLACK * (self._extent + max(np.abs(radii).max(), np.abs(self.radii).max()))
                self.lead -= (shift.max() + slack) - shift[self.winner]
                self._rank(radii, np.flatnonzero(self.lead <= slack))
        self.radii = radii
        return self.winner.copy(), radii[self.winner] - self.wdist

    def _rank(self, radii: np.ndarray, rows: np.ndarray | None = None) -> None:
        """Winner, its distance and its lead over the runner-up, from the lists of ``rows`` (all when None)."""
        count = len(self.points) if rows is None else len(rows)
        self.reranked += count
        shared = len(self.index) == 1
        for block in _blocks(count, self.dist.shape[1]):
            at = block if rows is None else rows[block]
            index = self.index if shared else self.index[at]
            dist = self.dist[at]
            values = radii[index] - dist
            pos = np.argmax(values, axis=1)
            slot = np.arange(len(values))
            top = values[slot, pos]
            values[slot, pos] = -np.inf
            self.winner[at] = index[0 if shared else slot, pos]
            self.wdist[at] = dist[slot, pos]
            self.lead[at] = top - values.max(axis=1)

    def _rebuild(self, radii: np.ndarray) -> None:
        self.rebuilds += 1
        self.base_radii = radii
        k = self.k
        # With k < DENSE_SHARE every tile keeps more than k / DENSE_SHARE sources.
        tile_index = self._tile_lists(radii) if k >= DENSE_SHARE else None
        if tile_index is None:
            self.index = np.arange(k)[None, :]
            self.dist = distances(self.points, self.locations)
            self.delta = np.inf
            self.max_candidates = k
            return
        tile_of = self._tile_geometry[0]
        xs, ys = np.append(self.locations[:, 0], np.inf), np.append(self.locations[:, 1], np.inf)
        radii = np.append(radii, 0.0)
        packed = []  # each block packed to its own width; the widest sets the lists'
        for rows in _blocks(len(self.points), tile_index.shape[1]):
            index = tile_index[tile_of[rows]]
            p = self.points[rows]
            dist = _norm(p[:, 0, None] - xs[index], p[:, 1, None] - ys[index])
            values = radii[index] - dist
            keep = values >= (values.max(axis=1) - 3.0 * self.delta)[:, None]
            r, c = np.divmod(np.flatnonzero(keep), index.shape[1])
            slot, width = _slots(r, len(index))
            block_index = np.zeros((len(index), width), dtype=np.int64)
            block_index[r, slot] = index[r, c]
            block_dist = np.full((len(index), width), np.inf)
            block_dist[r, slot] = dist[r, c]
            packed.append((rows, block_index, block_dist))
        width = max(block_index.shape[1] for _, block_index, _ in packed)
        self.index = np.zeros((len(self.points), width), dtype=np.int64)
        self.dist = np.full((len(self.points), width), np.inf)
        for rows, block_index, block_dist in packed:
            self.index[rows, : block_index.shape[1]] = block_index
            self.dist[rows, : block_dist.shape[1]] = block_dist
        self.max_candidates = max(self.max_candidates, width)

    def _tile_lists(self, radii: np.ndarray) -> np.ndarray | None:
        """Per tile, the sources within 2 rho + 3 delta of its best at its centre.

        Returns a (tiles, width) array of them, ascending and padded with k
        (a source at infinity), or None at the first tile that keeps more
        than k / DENSE_SHARE sources.
        """
        _, centres, rho = self._tile_geometry
        k = self.k
        xs, ys = self.locations[:, 0], self.locations[:, 1]
        margin = 3.0 * self.delta + SLACK * (self._extent + float(np.abs(radii).max()))
        rows, cols = [], []
        for tiles in _blocks(len(centres), k):
            at = centres[tiles]
            values = _norm(at[:, 0, None] - xs, at[:, 1, None] - ys)
            np.subtract(radii, values, out=values)
            keep = values >= (values.max(axis=1) - 2.0 * rho[tiles] - margin)[:, None]
            r, c = np.divmod(np.flatnonzero(keep), k)  # row-major: ascending source within a tile
            if np.bincount(r).max() > k / DENSE_SHARE:
                return None
            rows.append(r + tiles.start)
            cols.append(c)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        slot, width = _slots(rows, len(centres))
        tile_index = np.full((len(centres), width), k)
        tile_index[rows, slot] = cols
        return tile_index

    @cached_property
    def _tile_geometry(self):
        """Tile of each point, and each tile's centre and radius.

        Tiles are numbered in ascending order of their keys, as
        ``np.unique``'s inverse would, by a count over a table of all keys.
        """
        p = self.points
        cells = np.rint((p - p.min(axis=0)) / self.h).astype(np.int64) // TILE
        span = cells.max(axis=0) + 1
        keys = cells[:, 0] * span[1] + cells[:, 1]
        present = np.zeros(span[0] * span[1], dtype=bool)
        present[keys] = True
        tile_of = (np.cumsum(present) - 1)[keys]
        members = np.bincount(tile_of)
        centres = np.stack([np.bincount(tile_of, p[:, 0]), np.bincount(tile_of, p[:, 1])], axis=1)
        centres /= members[:, None]
        reach = _norm(p[:, 0] - centres[tile_of, 0], p[:, 1] - centres[tile_of, 1])
        rho = np.zeros(len(members))
        np.maximum.at(rho, tile_of, reach)
        return tile_of, centres, rho

    @cached_property
    def _extent(self) -> float:
        """The extent of points and sources: above every distance and coordinate."""
        both = np.vstack([self.points, self.locations])
        return float(np.ptp(both, axis=0).sum() + np.abs(both).max())


def _slots(rows: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Slots of entries in ascending ``rows`` of n rows, packed left in their order, and the packed width."""
    counts = np.bincount(rows, minlength=n)
    return np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows], int(counts.max())


def partition(grid: Grid, sources, radii) -> Partition:
    """Label every inside cell by the dominating source.

    A cell belongs to source j when r_j - |x - y_j| is maximal among all
    sources and strictly positive; ties go to the lowest source index.  The
    maxima come from the grid's ``source_lists``.
    """
    radii = np.asarray(radii, dtype=float)
    locations = np.asarray(sources.locations, dtype=float)
    if len(radii) != len(locations):
        raise ValueError("one radius per source required")
    if np.any(radii < 0.0):
        raise ValueError("radii must be non-negative")
    k = len(radii)

    labels = np.full((grid.ny, grid.nx), NONE_LABEL, dtype=np.int64)
    if k > 0 and np.any(radii > 0.0):
        best, value = grid.source_lists(locations).best(radii)
        labels[grid.inside_mask] = np.where(value > 0.0, best, NONE_LABEL)

    counts = np.bincount(labels[labels >= 0].ravel(), minlength=k)
    return Partition(grid=grid, labels=labels, areas=counts * grid.cell_area)


def areas_only(grid: Grid, sources, radii) -> np.ndarray:
    return partition(grid, sources, radii).areas


def areas_with_floor(grid: Grid, domain: ConvexDomain, sources, radii, needs_area) -> np.ndarray:
    """Areas for the integrator: a needed source must have positive area.

    A source that still feeds the pile (positive radius below its escape
    cost) must occupy positive area; a zero count means the grid cannot
    resolve its region.  One halving is attempted before giving up; the
    halved grid builds its own source lists.
    """
    areas = areas_only(grid, sources, radii)
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
