"""Growth of the cone radii: exact early phase, RK2 stepping, wall freezing.

Each source j feeds a cone whose apex height r_j obeys rdot_j = c_j / |A_j|
until it reaches the escape cost of its source, after which the radius is
frozen and the source's entire rate spills over the wall.  While the cones
are disjoint discs inside the domain the ODE has the closed-form solution
r_j(t) = (3 c_j t / pi)^(1/3); the integrator starts from that phase, which
removes the t -> 0 singularity of the right-hand side.  A cone is frozen
exactly when its radius is within FREEZE_TOL of its escape cost, so a
state holds radii only and derives its freeze flags; the stepped phase
partitions one grid, whose source lists serve the whole run.

The run passes time once, handing each snapshot to ``on_snapshot(state,
grid)`` in time order, on the run's grid and before the next step.  The
callback must not mutate the state; the grid's source lists are exact, so
reading them there changes no bit of the run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPoints, ConvexDomain
from .regions import Grid, areas_with_floor, build_grid
from .sources import SourceSet, min_separation
from .tolerances import FREEZE_TOL

# Largest radius advance of one RK2 step, in units of the grid spacing h.
STEP_SAFETY = 0.25


@dataclass(frozen=True)
class ConeState:
    """Radii of all cones at one instant, with their escape costs."""

    time: float
    radii: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        if len(self.radii) != len(self.thresholds):
            raise ValueError(f"{len(self.radii)} radii for {len(self.thresholds)} sources")
        if np.any(self.radii < -FREEZE_TOL) or np.any(self.radii > self.thresholds + FREEZE_TOL):
            raise ValueError("radii must stay within [0, escape cost]")

    @property
    def frozen(self) -> np.ndarray:
        """Per source: its radius reached its escape cost, within FREEZE_TOL."""
        return self.radii >= self.thresholds - FREEZE_TOL


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
    states: list[ConeState]  # one per snapshot time, in the order the run passed them
    freeze_events: list[tuple[int, float]]
    steps: list[StepRecord]
    final_state: ConeState
    spill_atoms: BoundaryPoints  # per source, where its rate crosses the wall once frozen
    grid: Grid  # the grid the stepped phase partitioned; it holds the run's source lists


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
) -> tuple[ConeState, StepRecord, list[tuple[int, float]]]:
    """One explicit midpoint step with freeze clamping.

    Returns the new state, the start-of-step audit record and the freeze
    events (source index, interpolated crossing time) triggered by the step.
    """
    active = ~state.frozen
    r = state.radii.copy()
    c = sources.rates

    areas = areas_with_floor(grid, domain, sources, r, active & (r > 0.0))
    rdot = np.zeros_like(r)
    rdot[active] = c[active] / areas[active]

    if not np.any(active):
        dt = dt_max if np.isfinite(dt_max) else 0.0
        new_state = ConeState(state.time + dt, r, state.thresholds)
        return new_state, StepRecord(state.time, dt, areas, rdot, active), []

    dt = float(np.min(STEP_SAFETY * grid.h * areas[active] / c[active]))
    dt = min(dt, dt_max)

    r_half = r.copy()
    r_half[active] = np.minimum(r[active] + 0.5 * dt * rdot[active], state.thresholds[active])
    areas_half = areas_with_floor(grid, domain, sources, r_half, active & (r_half > 0.0))
    rdot_half = np.zeros_like(r)
    rdot_half[active] = c[active] / areas_half[active]

    r_new = r.copy()
    r_new[active] = r[active] + dt * rdot_half[active]

    events: list[tuple[int, float]] = []
    for j in np.flatnonzero(active & (r_new >= state.thresholds - FREEZE_TOL)).tolist():
        advance = r_new[j] - r[j]
        frac = (state.thresholds[j] - r[j]) / advance if advance > 0.0 else 1.0
        events.append((j, state.time + min(max(frac, 0.0), 1.0) * dt))
        r_new[j] = state.thresholds[j]

    new_state = ConeState(state.time + dt, r_new, state.thresholds)
    return new_state, StepRecord(state.time, dt, areas, rdot, active), events


def run(
    sources: SourceSet,
    domain: ConvexDomain,
    T: float,
    snapshot_times,
    h: float,
    routes: tuple[np.ndarray, BoundaryPoints] | None = None,
    on_snapshot=None,
) -> Trajectory:
    """Integrate to time T, handing each snapshot to ``on_snapshot`` as the run passes it.

    The analytic phase covers [0, min(t0, T)]; afterwards RK2 stepping takes
    over until T or until every source is frozen, on a grid of spacing h.
    Snapshot radii between step boundaries are interpolated linearly in r.
    ``routes`` is ``domain.escape_cost(sources.locations)``, if already computed.
    ``on_snapshot(state, grid)`` is called once per snapshot time, in time
    order, on the run's grid and before the next step; it must not mutate
    the state, and reading the grid's exact source lists changes no bit.
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

    states: list[ConeState] = []
    pending = deque(snapshot_times)

    def emit_until(limit: float, radii_at) -> None:
        while pending and pending[0] <= limit:
            t = pending.popleft()
            states.append(ConeState(t, radii_at(t), thresholds))
            if on_snapshot is not None:
                on_snapshot(states[-1], grid)

    emit_until(t0, lambda t: np.minimum(radii_fn(t), thresholds))
    steps: list[StepRecord] = []
    freeze_events: list[tuple[int, float]] = []
    b = ConeState(t0, np.minimum(radii_fn(t0), thresholds), thresholds)
    while b.time < T - 1e-15 and not np.all(b.frozen):
        a = b
        b, record, events = step(a, sources, domain, grid, dt_max=T - a.time)
        steps.append(record)
        freeze_events.extend(events)
        span = b.time - a.time
        emit_until(b.time + 1e-15, lambda t: a.radii + (
            min(max((t - a.time) / span, 0.0), 1.0) if span > 0.0 else 1.0) * (b.radii - a.radii))
    emit_until(np.inf, lambda t: b.radii.copy())

    return Trajectory(
        states=states,
        freeze_events=freeze_events,
        steps=steps,
        final_state=b,
        spill_atoms=spill_atoms,
        grid=grid,
    )
