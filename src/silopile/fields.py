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

from .cones import ConeState
from .geometry import BoundaryPoint, ConvexDomain
from .regions import NONE_LABEL, Grid, Partition, SourceLists
from .sources import SourceSet

# Segments deposited per np.add.at pass of rolling_measure; bounds the
# sub-deposit arrays without changing the order of accumulation.
DEPOSIT_BLOCK = 1024


@dataclass(frozen=True)
class GridField:
    """Scalar samples at the inside cells of a grid (zero elsewhere)."""

    grid: Grid
    values: np.ndarray  # (ny, nx)


@dataclass(frozen=True)
class BoundaryMeasure:
    """Non-negative atoms on the boundary."""

    atoms: list[tuple[BoundaryPoint, float]]

    @property
    def total_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))


@dataclass(frozen=True)
class PathMeasure:
    """Rolling-layer mass binned to grid cells."""

    grid: Grid
    density: np.ndarray  # (ny, nx), cell mass / h^2

    @property
    def total_mass(self) -> float:
        return float(self.density.sum() * self.grid.cell_area)


def eval_height_many(state: ConeState, lists: SourceLists) -> np.ndarray:
    """Pile height max_j (r_j - |x - y_j|)+ at each of the lists' points, exact."""
    return np.maximum(lists.best(state.radii)[1], 0.0)


def height_field(state: ConeState, sources: SourceSet, grid: Grid, lists: SourceLists | None = None) -> GridField:
    """Pile height at the inside cells; ``lists`` as in ``regions.partition``."""
    if lists is None:
        lists = SourceLists(grid.inside_centers(), sources.locations)
    values = np.zeros((grid.ny, grid.nx))
    values[grid.inside_mask] = eval_height_many(state, lists)
    return GridField(grid=grid, values=values)


def equilibrium_field(
    sources: SourceSet, thresholds: np.ndarray, grid: Grid, lists: SourceLists | None = None
) -> GridField:
    """Stationary profile after every source froze: cones capped at their escape costs."""
    state = ConeState(0.0, thresholds.copy(), np.ones(sources.k, dtype=bool), thresholds)
    return height_field(state, sources, grid, lists)


def growth_rate_field(state: ConeState, sources: SourceSet, part: Partition) -> GridField:
    rates = np.zeros(sources.k + 1)
    active = ~state.frozen
    with np.errstate(divide="ignore", invalid="ignore"):
        per_source = np.where(active & (part.areas > 0.0), sources.rates / part.areas, 0.0)
    rates[: sources.k] = per_source
    values = np.where(part.labels == NONE_LABEL, 0.0, rates[part.labels])
    return GridField(grid=part.grid, values=values)


def spill_measure(state: ConeState, sources: SourceSet, atoms: list[BoundaryPoint]) -> BoundaryMeasure:
    """One atom of mass c_j at the canonical wall crossing ``atoms[j]`` of each frozen source."""
    masses: dict[tuple[int, float], float] = {}
    points: dict[tuple[int, float], BoundaryPoint] = {}
    for j in np.nonzero(state.frozen)[0]:
        bp = atoms[j]
        masses[bp.key] = masses.get(bp.key, 0.0) + float(sources.rates[j])
        points[bp.key] = bp
    return BoundaryMeasure(atoms=[(points[k], masses[k]) for k in sorted(masses)])


def rolling_measure(
    state: ConeState,
    sources: SourceSet,
    part: Partition,
    atoms: list[BoundaryPoint],
    grid: Grid,
) -> PathMeasure:
    """Discretized rolling layer.

    Every labeled cell, and the spill atom ``atoms[j]`` of every frozen
    source j, is treated as a point mass shipping to its source; mass
    w * |x - y| is spread along the segment [x, y] in ceil(|x - y| / h)
    equal sub-deposits binned to grid cells.  Deposits accumulate by
    source index, row-major cells within a source, then the spill atoms.
    """
    labels = part.labels.ravel()
    feeding = ~state.frozen & (part.areas > 0.0)
    cell_weight = np.zeros(sources.k)
    cell_weight[feeding] = sources.rates[feeding] / part.areas[feeding] * grid.cell_area
    cells = np.flatnonzero(labels != NONE_LABEL)
    cells = cells[feeding[labels[cells]]]
    cells = cells[np.argsort(labels[cells], kind="stable")]
    frozen = np.flatnonzero(state.frozen)

    starts = np.concatenate(
        [grid.cell_centers().reshape(-1, 2)[cells], np.array([atoms[j].position for j in frozen]).reshape(-1, 2)]
    )
    owners = np.concatenate([labels[cells], frozen])
    weights = np.concatenate([cell_weight[labels[cells]], sources.rates[frozen]])
    mass = np.zeros((grid.ny, grid.nx))
    for b in range(0, len(starts), DEPOSIT_BLOCK):
        block = slice(b, b + DEPOSIT_BLOCK)
        _deposit_segments(grid, starts[block], sources.locations[owners[block]], weights[block], mass)
    return PathMeasure(grid=grid, density=mass / grid.cell_area)


def _deposit_segments(grid, starts, targets, weights, mass):
    """Add each segment's sub-deposits to ``mass``, in segment order (np.add.at)."""
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
    pos = starts[owner] + s[:, None] * diff[owner]
    submass = (weights * lengths / nsub)[owner]
    rows, cols = grid.cell_index(pos)
    np.add.at(mass, (rows, cols), submass)


def field_to_csv(field: GridField) -> str:
    """Row-major table of the inside cells, 17 significant digits."""
    values = field.values[field.grid.inside_mask].tolist()
    body = "".join([f"{xy}{v:.17g}\n" for xy, v in zip(field.grid.center_labels, values)])
    return "x,y,value\n" + body


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


def path_measure_to_csv(mu: PathMeasure) -> str:
    return field_to_csv(GridField(grid=mu.grid, values=mu.density))


def boundary_measure_to_lines(nu: BoundaryMeasure) -> str:
    lines = ["edge_index,edge_parameter,mass"]
    for bp, m in nu.atoms:
        lines.append(f"{bp.edge_index},{bp.edge_parameter:.17g},{m:.17g}")
    return "\n".join(lines) + "\n"


def boundary_measure_from_lines(domain: ConvexDomain, text: str) -> BoundaryMeasure:
    rows = text.strip().splitlines()
    if rows[0] != "edge_index,edge_parameter,mass":
        raise ValueError("missing edge_index,edge_parameter,mass header")
    atoms = []
    for line in rows[1:]:
        e, s, m = line.split(",")
        atoms.append((domain.boundary_point(int(e), float(s)), float(m)))
    return BoundaryMeasure(atoms=atoms)
