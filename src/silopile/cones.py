"""Growth of the cone radii: exact early phase, RK2 stepping, wall freezing.

Each source j feeds a cone whose apex height r_j obeys rdot_j = c_j / |A_j|
until it reaches the escape cost of its source, after which the radius is
frozen and the source's entire rate spills over the wall.  While the cones
are disjoint discs inside the domain the ODE has the closed-form solution
r_j(t) = (3 c_j t / pi)^(1/3); the integrator starts from that phase, which
removes the t -> 0 singularity of the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPoint, ConvexDomain
from .regions import Grid, SourceLists, areas_with_floor, build_grid
from .sources import SourceSet, min_separation
from .tolerances import FREEZE_TOL

# Largest radius advance of one RK2 step, in units of the grid spacing h.
STEP_SAFETY = 0.25


@dataclass(frozen=True)
class ConeState:
    """Radii and freeze flags of all cones at one instant."""

    time: float
    radii: np.ndarray
    frozen: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        if not len(self.radii) == len(self.frozen) == len(self.thresholds):
            raise ValueError(
                f"{len(self.radii)} radii and {len(self.frozen)} frozen flags "
                f"for {len(self.thresholds)} sources"
            )
        if np.any(self.radii < -FREEZE_TOL) or np.any(self.radii > self.thresholds + FREEZE_TOL):
            raise ValueError("radii must stay within [0, escape cost]")
        at_wall = self.radii >= self.thresholds - FREEZE_TOL
        if np.any(self.frozen != at_wall):
            raise ValueError("frozen flags inconsistent with radii")


@dataclass(frozen=True)
class StepRecord:
    """Start-of-step quantities used by the mass-balance audit."""

    time: float
    dt: float
    areas: np.ndarray
    rdot: np.ndarray
    active: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    snapshot_times: list[float]
    states: list[ConeState]
    freeze_events: list[tuple[int, float]]
    steps: list[StepRecord]
    final_state: ConeState
    spill_atoms: list[BoundaryPoint]  # per source, where its rate crosses the wall once frozen
    grid: Grid  # the grid the stepped phase partitioned
    lists: SourceLists  # the candidate sources of the grid's inside cells


def analytic_phase(sources: SourceSet, domain: ConvexDomain):
    """Closed-form radii valid while all cones are disjoint discs in the domain.

    Returns the guaranteed validity horizon t0 and the radii function.
    With m the smaller of the minimal pairwise source distance and the
    minimal wall distance, all cones stay below m/2 up to
    t0 = pi / (3 max_j c_j) * (m/2)^3.
    """
    m1, m2 = min_separation(sources, domain)
    m = min(m1, m2)
    c_max = float(sources.rates.max())
    t0 = np.pi / (3.0 * c_max) * (m / 2.0) ** 3
    rates = sources.rates.copy()

    def radii_fn(t: float) -> np.ndarray:
        return np.cbrt(3.0 * rates * t / np.pi)

    return float(t0), radii_fn


def step(
    state: ConeState,
    sources: SourceSet,
    domain: ConvexDomain,
    grid: Grid,
    dt_max: float = np.inf,
    lists: SourceLists | None = None,
) -> tuple[ConeState, StepRecord, list[tuple[int, float]]]:
    """One explicit midpoint step with freeze clamping.

    Returns the new state, the start-of-step audit record and the freeze
    events (source index, interpolated crossing time) triggered by the step.
    ``lists`` are the grid's ``SourceLists``, if already built.
    """
    active = ~state.frozen
    r = state.radii.copy()
    c = sources.rates

    areas = areas_with_floor(grid, domain, sources, r, active & (r > 0.0), lists)
    rdot = np.zeros_like(r)
    rdot[active] = c[active] / areas[active]

    if not np.any(active):
        dt = dt_max if np.isfinite(dt_max) else 0.0
        new_state = ConeState(state.time + dt, r, state.frozen.copy(), state.thresholds)
        return new_state, StepRecord(state.time, dt, areas, rdot, active), []

    dt = float(np.min(STEP_SAFETY * grid.h * areas[active] / c[active]))
    dt = min(dt, dt_max)

    r_half = r.copy()
    r_half[active] = np.minimum(r[active] + 0.5 * dt * rdot[active], state.thresholds[active])
    areas_half = areas_with_floor(grid, domain, sources, r_half, active & (r_half > 0.0), lists)
    rdot_half = np.zeros_like(r)
    rdot_half[active] = c[active] / areas_half[active]

    r_new = r.copy()
    r_new[active] = r[active] + dt * rdot_half[active]

    frozen = state.frozen.copy()
    events: list[tuple[int, float]] = []
    for j in np.flatnonzero(active & (r_new >= state.thresholds - FREEZE_TOL)).tolist():
        advance = r_new[j] - r[j]
        frac = (state.thresholds[j] - r[j]) / advance if advance > 0.0 else 1.0
        events.append((j, state.time + min(max(frac, 0.0), 1.0) * dt))
        r_new[j] = state.thresholds[j]
        frozen[j] = True

    new_state = ConeState(state.time + dt, r_new, frozen, state.thresholds)
    return new_state, StepRecord(state.time, dt, areas, rdot, active), events


def run(
    sources: SourceSet,
    domain: ConvexDomain,
    T: float,
    snapshot_times,
    h: float,
    routes: tuple[np.ndarray, list[BoundaryPoint]] | None = None,
) -> Trajectory:
    """Integrate to time T, emitting interpolated snapshots.

    The analytic phase covers [0, min(t0, T)]; afterwards RK2 stepping takes
    over until T or until every source is frozen, on a grid of spacing h.
    Snapshot radii between step boundaries are interpolated linearly in r.
    ``routes`` is ``domain.escape_cost(sources.locations)``, if already computed.
    """
    if T <= 0.0:
        raise ValueError("horizon T must be positive")
    snapshot_times = [float(t) for t in snapshot_times]
    if any(t < 0.0 or t > T for t in snapshot_times):
        raise ValueError("snapshot times must lie in [0, T]")
    if any(b <= a for a, b in zip(snapshot_times, snapshot_times[1:])):
        raise ValueError("snapshot times must be strictly increasing")

    thresholds, spill_atoms = routes if routes is not None else domain.escape_cost(sources.locations)
    t0, radii_fn = analytic_phase(sources, domain)
    t0 = min(t0, T)
    grid = build_grid(domain, h)
    # Sources and grid stay fixed for the run; only the radii move.
    lists = SourceLists(grid.inside_centers(), sources.locations, grid.h)

    def state_at_analytic(t: float) -> ConeState:
        r = np.minimum(radii_fn(t), thresholds)
        frozen = r >= thresholds - FREEZE_TOL
        return ConeState(t, r, frozen, thresholds)

    knots: list[ConeState] = [state_at_analytic(t0)]
    steps: list[StepRecord] = []
    freeze_events: list[tuple[int, float]] = []

    state = knots[0]
    while state.time < T - 1e-15 and not np.all(state.frozen):
        state, record, events = step(state, sources, domain, grid, dt_max=T - state.time, lists=lists)
        steps.append(record)
        freeze_events.extend(events)
        knots.append(state)

    def state_at(t: float) -> ConeState:
        if t <= t0:
            return state_at_analytic(t)
        for a, b in zip(knots, knots[1:]):
            if t <= b.time + 1e-15:
                span = b.time - a.time
                w = (t - a.time) / span if span > 0.0 else 1.0
                r = a.radii + min(max(w, 0.0), 1.0) * (b.radii - a.radii)
                frozen = r >= thresholds - FREEZE_TOL
                return ConeState(t, r, frozen, thresholds)
        last = knots[-1]
        return ConeState(t, last.radii.copy(), last.frozen.copy(), thresholds)

    snapshots = [state_at(t) for t in snapshot_times]
    return Trajectory(
        snapshot_times=snapshot_times,
        states=snapshots,
        freeze_events=freeze_events,
        steps=steps,
        final_state=knots[-1],
        spill_atoms=spill_atoms,
        grid=grid,
        lists=lists,
    )
