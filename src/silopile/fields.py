"""Standing layer, growth rate, spill measure and rolling-layer measure.

The pile height is the upper envelope of cones of slope one; its time
derivative is piecewise constant on the feeding regions; spilled mass sits
in boundary atoms at the cheapest wall crossings; the rolling layer is the
line measure carried by the transport rays from deposition points back to
their sources, discretized onto the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import ConeState, growth_rates
from .geometry import BoundaryPoints, ConvexDomain
from .regions import NONE_LABEL, Grid, Partition, distances
from .sources import SourceSet

# Segments deposited per np.add.at pass of rolling_measure; bounds the
# sub-deposit arrays without changing the order of accumulation.
DEPOSIT_BLOCK = 1024
# Outside-inside cell distances per pass when rolling_measure moves the mass
# of cells centred outside the domain to their nearest inside cells.
STRAY_BLOCK = 1 << 20


@dataclass(frozen=True)
class GridField:
    """Scalar samples at the inside cells of a grid (zero elsewhere)."""

    grid: Grid
    values: np.ndarray  # (ny, nx)


@dataclass(frozen=True)
class BoundaryMeasure:
    """Non-negative atoms on the boundary: mass ``masses[i]`` at point i."""

    points: BoundaryPoints
    masses: np.ndarray  # (k,)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


def heights_at(state: ConeState, sources: SourceSet, points) -> np.ndarray:
    """Pile height max_j (r_j - |x - y_j|)+ at each point, from the full (points, sources) distances."""
    values = distances(points, sources.locations)
    np.subtract(state.radii, values, out=values)
    return np.maximum(values.max(axis=1), 0.0)


def height_field(state: ConeState, sources: SourceSet, grid: Grid) -> GridField:
    """Pile height at the inside cells, from the grid's source lists."""
    values = np.zeros((grid.ny, grid.nx))
    values[grid.inside_mask] = np.maximum(grid.source_lists(sources.locations).best(state.radii)[1], 0.0)
    return GridField(grid=grid, values=values)


def growth_rate_field(state: ConeState, sources: SourceSet, part: Partition) -> GridField:
    """The pile's growth rate: ``growth_rates`` of each cell's source, 0 on unlabelled cells."""
    rates = growth_rates(~state.frozen, sources.rates, part.areas)
    values = np.where(part.labels == NONE_LABEL, 0.0, rates[part.labels])
    return GridField(grid=part.grid, values=values)


def spill_measure(state: ConeState, sources: SourceSet, atoms: BoundaryPoints) -> BoundaryMeasure:
    """Mass c_j at the canonical wall crossing (point j of ``atoms``) of each frozen source j.

    Sources crossing at the same (edge, param) share one atom, whose mass
    sums their rates in ascending source index; atoms ascend by (edge, param).
    """
    frozen = np.flatnonzero(state.frozen)
    frozen = frozen[np.lexsort((atoms.param[frozen], atoms.edge[frozen]))]  # stable: ties keep source order
    edge, param = atoms.edge[frozen], atoms.param[frozen]
    first = np.ones(len(frozen), dtype=bool)
    first[1:] = (edge[1:] != edge[:-1]) | (param[1:] != param[:-1])
    masses = np.zeros(int(first.sum()))
    np.add.at(masses, np.cumsum(first) - 1, sources.rates[frozen])
    at = frozen[first]
    return BoundaryMeasure(BoundaryPoints(atoms.edge[at], atoms.param[at], atoms.position[at]), masses)


def rolling_measure(state: ConeState, sources: SourceSet, part: Partition, atoms: BoundaryPoints) -> GridField:
    """Discretized rolling layer: its density, cell mass / h^2.

    Every labeled cell, with its mass growth rate x h^2, and the spill atom
    (point j of ``atoms``) of every frozen source j, with mass c_j, is
    treated as a point mass shipping to its source; mass w * |x - y| is
    spread along the segment [x, y] in ceil(|x - y| / h) equal sub-deposits
    binned to grid cells.  Deposits accumulate by source index, row-major
    cells within a source, then the spill atoms.  A cell whose centre lies
    outside the domain passes its mass to the nearest inside cell (lowest
    index on ties), so the inside cells hold the layer's whole mass.
    """
    grid = part.grid
    labels = part.labels.ravel()
    cell_mass = growth_rate_field(state, sources, part).values.ravel() * grid.cell_area
    cells = np.flatnonzero(cell_mass > 0.0)
    cells = cells[np.argsort(labels[cells], kind="stable")]
    frozen = np.flatnonzero(state.frozen)

    centers = grid.cell_centers().reshape(-1, 2)
    starts = np.concatenate([centers[cells], atoms.position[frozen]])
    owners = np.concatenate([labels[cells], frozen])
    weights = np.concatenate([cell_mass[cells], sources.rates[frozen]])
    flat = np.zeros(grid.ny * grid.nx)  # row-major cells
    for b in range(0, len(starts), DEPOSIT_BLOCK):
        block = slice(b, b + DEPOSIT_BLOCK)
        _deposit_segments(grid, starts[block], sources.locations[owners[block]], weights[block], flat)
    inside = np.flatnonzero(grid.inside_mask)
    stray = np.flatnonzero((flat != 0.0) & ~grid.inside_mask.ravel())
    step = max(1, STRAY_BLOCK // max(len(inside), 1))
    for b in range(0, len(stray), step):
        block = stray[b : b + step]
        np.add.at(flat, inside[distances(centers[block], centers[inside]).argmin(axis=1)], flat[block])
    flat[stray] = 0.0
    return GridField(grid=grid, values=flat.reshape(grid.ny, grid.nx) / grid.cell_area)


def _deposit_segments(grid, starts, targets, weights, flat):
    """Add each segment's sub-deposits to the row-major cell masses ``flat``, in segment order (np.add.at)."""
    diff = targets - starts
    lengths = np.linalg.norm(diff, axis=1)
    keep = lengths > 1e-15
    if not np.any(keep):
        return
    starts, diff, lengths, weights = starts[keep], diff[keep], lengths[keep], weights[keep]
    nsub = np.maximum(np.ceil(lengths / grid.h).astype(int), 1)
    total = int(nsub.sum())
    owner = np.repeat(np.arange(len(starts)), nsub)
    first = np.concatenate([[0], np.cumsum(nsub)[:-1]])
    k = np.arange(total) - np.repeat(first, nsub)
    s = (k + 0.5) / nsub[owner]
    submass = (weights * lengths / nsub)[owner]
    x = starts[:, 0][owner] + s * diff[:, 0][owner]
    y = starts[:, 1][owner] + s * diff[:, 1][owner]
    rows, cols = grid.cell_of(x, y)
    np.add.at(flat, rows * grid.nx + cols, submass)


def field_to_csv(field: GridField) -> str:
    """Row-major table of the inside cells, 17 significant digits."""
    return "x,y,value\n" + field.grid.csv_template % tuple(field.values[field.grid.inside_mask].tolist())


def field_from_csv(grid: Grid, text: str) -> GridField:
    """The field of a ``field_to_csv`` table; row k must start with inside cell k's ``x,y``."""
    rows = text.strip().splitlines()
    if rows[0] != "x,y,value":
        raise ValueError("missing x,y,value header")
    body, labels = rows[1:], grid.center_labels
    if len(body) != len(labels):
        raise ValueError(f"expected {len(labels)} rows, found {len(body)}")
    if not all(map(str.startswith, body, labels)):
        k = next(k for k, (line, xy) in enumerate(zip(body, labels)) if not line.startswith(xy))
        raise ValueError(f"row {k + 1} {body[k]!r} is not at the cell centre {labels[k][:-1]}")
    values = np.zeros((grid.ny, grid.nx))
    values[grid.inside_mask] = [float(line[len(xy):]) for line, xy in zip(body, labels)]
    return GridField(grid=grid, values=values)


def boundary_measure_to_lines(nu: BoundaryMeasure) -> str:
    rows = zip(nu.points.edge.tolist(), nu.points.param.tolist(), nu.masses.tolist())
    return "edge_index,edge_parameter,mass\n" + "".join([f"{e},{s:.17g},{m:.17g}\n" for e, s, m in rows])


def boundary_measure_from_lines(domain: ConvexDomain, text: str) -> BoundaryMeasure:
    rows = text.strip().splitlines()
    if rows[0] != "edge_index,edge_parameter,mass":
        raise ValueError("missing edge_index,edge_parameter,mass header")
    table = np.array([line.split(",") for line in rows[1:]], dtype=str).reshape(-1, 3)
    points = domain.boundary_points(table[:, 0].astype(np.int64), table[:, 1].astype(float))
    return BoundaryMeasure(points, table[:, 2].astype(float))
