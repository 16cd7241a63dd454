"""Discrete boundary-taxed transport: primal plan, dual potential, certificates.

A snapshot is certified by solving the finite transportation problem
that ships the source rates onto the deposited growth (grid cells
weighted by the growth rate, and one atom at its own location for each
active source whose cone covers no cell centre) and, for frozen sources,
over the wall (boundary nodes taxed by the wall height).  Boundary sinks
have unlimited capacity, so the taxed boundary collapses into one
absorbing column: supply i spills at its cheapest taxed crossing
a_i = min_b (|x_i - b| + g_b), and that column's demand is the spill
total.  The primal is solved exactly by a network simplex on the
bipartite graph.  Its basis is a spanning tree whose flows live on the
tree's arcs: a leaf column, of one arc, is two array entries (its row
and that arc's flow), and only the at most m - 1 junction columns, of
two arcs or more, keep Python sets and arc flows.  The Python work of a
pivot or of the tree duals grows with the rows and junctions, not with
the n demand cells; the greedy start ships its columns in one array pass
up to its first event, and one at a time on Python floats after it.

The dual check rests on weak duality, not on a second solver.  A pair of
potentials with u_i - w_j <= |x_i - y_j| for every supply-demand pair
and, when the problem spills, u_i <= a_i is feasible for the LP dual, so
its value sum f u - sum d w bounds the cost of every feasible plan from
below.  ``solve_dual`` takes w from the simplex's final tree and u as
its c-transform, which is feasible by construction whatever the tree;
a value that meets a feasible plan's cost then proves that plan optimal,
and a tree that is not optimal shows as a gap, not as a false proof.
``certify`` decides a snapshot's whole verdict, the read-back of its
written heights included; ``certify_snapshot`` is the one path to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cones import ConeState
from .fields import growth_rate_field, height_field, heights_at
from .geometry import ConvexDomain
from .regions import Grid, _blocks, distances, partition
from .sources import SourceSet
from .tolerances import DUAL_NODE_CAP, LP_TOL, RESIDUE_TOL


@dataclass(frozen=True)
class DiscreteProblem:
    """Supplies (sources), fixed interior demands, taxed boundary sinks."""

    supply_locations: np.ndarray    # (m, 2)
    supply_masses: np.ndarray       # (m,)
    demand_locations: np.ndarray    # (nd, 2)
    demand_masses: np.ndarray       # (nd,)
    boundary_positions: np.ndarray  # (nb, 2)
    boundary_walls: np.ndarray      # (nb,)
    spill_total: float
    h: float
    # the snapshot's cone radii, the simplex's row offsets for its start
    radii: np.ndarray | None = None     # (m,)
    demand_atoms: int = 0               # trailing demand nodes that are source atoms

    @property
    def n_demand(self) -> int:
        return len(self.demand_masses)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary_walls)


@dataclass(frozen=True)
class TransportSolution:
    plan_supply: np.ndarray    # (p,) supply index per plan entry
    plan_sink: np.ndarray      # (p,) sink index: demands first, then boundary
    plan_mass: np.ndarray      # (p,)
    spill: np.ndarray          # (nb,) mass over the wall per boundary node
    primal_value: float
    dual_value: float
    min_reduced_cost: float
    marginal_error: float
    pivots: int                # network simplex pivots
    u: np.ndarray              # (m,) the final tree's row potentials
    v: np.ndarray              # column potentials, the absorbing column last


@dataclass(frozen=True)
class DualSolution:
    value: float
    u: np.ndarray              # (m,) supply potentials
    w: np.ndarray              # (nd,) demand potentials; the boundary's is 0
    problem: DiscreteProblem   # the (possibly coarsened) problem actually solved
    primal: TransportSolution  # that problem's plan, whose tree gave the potentials


@dataclass(frozen=True)
class CertificateReport:
    primal: float              # the plan's cost
    dual: float                # the feasible dual's value
    ray_residual: float        # max | |x-y| - (u(y) - u(x)) | over plan support
    wall_residual: float       # max | u(b) - g(b) | over spill-carrying nodes
    duality_gap: float         # | <rho, u> - primal_value |
    lp_gap: float              # | dual value - the coarse plan's cost |
    u_residual: float          # max | written height - recomputed height | over the grid
    tolerance: float
    pivots: int                # the pivots of the primal and of the dual's coarse solve
    demand_atoms: int          # demand nodes that are source atoms
    passed: bool


def build_problem(
    state: ConeState,
    sources: SourceSet,
    domain: ConvexDomain,
    grid: Grid,
    boundary_spacing: float,
) -> DiscreteProblem:
    """Assemble the snapshot's transportation problem.

    Interior demand is the discretized growth rate (cell mass = rate x h^2);
    the expected spill is the total rate of frozen sources.  An active
    source whose cone covers no cell centre is one demand atom instead: its
    rate c_j at its own location y_j, where the height is at least r_j and
    the cost from source j is 0.  The atoms follow the cells, so the demand
    is every active rate, balanced to rounding.
    """
    part = partition(grid, sources, state.radii)
    rate_field = growth_rate_field(state, sources, part)
    masses = rate_field.values[grid.inside_mask] * grid.cell_area
    keep = masses > 0.0
    bare = ~state.frozen & (part.areas <= 0.0)
    demand_loc = np.vstack([grid.inside_centers()[keep], sources.locations[bare]])
    demand_mass = np.concatenate([masses[keep], sources.rates[bare]])

    nodes = domain.boundary_nodes(boundary_spacing)
    spill_total = float(sources.rates[state.frozen].sum())
    return DiscreteProblem(
        supply_locations=sources.locations.copy(),
        supply_masses=sources.rates.copy(),
        demand_locations=demand_loc,
        demand_masses=demand_mass,
        boundary_positions=nodes.position,
        boundary_walls=domain.wall_height(nodes),
        spill_total=spill_total,
        h=grid.h,
        radii=state.radii.copy(),
        demand_atoms=int(bare.sum()),
    )


def transport_problem(supply_locations, supply_masses, demand_locations, demand_masses) -> DiscreteProblem:
    """Balanced two-marginal problem with the boundary disabled.

    Locations are (k, 2) arrays of points with one mass each; masses must
    be finite and nonnegative and locations finite.  A bad shape or value
    raises ``ValueError`` naming its argument.
    """
    args = {
        "supply_locations": np.atleast_2d(np.asarray(supply_locations, dtype=float)),
        "supply_masses": np.asarray(supply_masses, dtype=float),
        "demand_locations": np.atleast_2d(np.asarray(demand_locations, dtype=float)),
        "demand_masses": np.asarray(demand_masses, dtype=float),
    }
    for side in ("supply", "demand"):
        points, masses = args[f"{side}_locations"], args[f"{side}_masses"]
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"{side}_locations must have shape (k, 2), not {points.shape}")
        if masses.shape != (len(points),):
            raise ValueError(f"{side}_masses must have shape ({len(points)},), one per location, not {masses.shape}")
    for name, values in args.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
        if name.endswith("masses") and (values < 0.0).any():
            raise ValueError(f"{name} must be nonnegative")
    total = args["supply_masses"].sum()
    if abs(total - args["demand_masses"].sum()) > LP_TOL * max(1.0, total):
        raise ValueError("marginals must balance when the boundary is disabled")
    return DiscreteProblem(
        **args,
        boundary_positions=np.empty((0, 2)),
        boundary_walls=np.empty(0),
        spill_total=0.0,
        h=0.0,
    )


def _transport_costs(p: DiscreteProblem):
    """Shipping costs shared by the primal and the dual.

    Returns the (m, nd) supply-demand distances and, when the problem
    spills, the absorbing column a_i = min_b (|x_i - b| + g_b) with each
    supply's exit node, the first minimizer in boundary order (the tie rule
    of ``ConvexDomain.escape_cost``'s exits).  Both are None when nothing
    spills.
    """
    spills = p.spill_total > 0.0
    if spills and p.n_boundary == 0:
        raise ValueError("spill present but the problem has no boundary nodes")
    if not spills and p.n_demand == 0:
        raise ValueError("problem has neither interior demand nor spill")
    cost = distances(p.supply_locations, p.demand_locations.reshape(p.n_demand, 2))
    if not spills:
        return cost, None, None
    taxed = distances(p.supply_locations, p.boundary_positions)
    taxed += p.boundary_walls
    return cost, taxed.min(axis=1), taxed.argmin(axis=1)


def solve_primal(p: DiscreteProblem) -> TransportSolution:
    """Exact optimum of the transportation LP by network simplex.

    The spill goes through the absorbing column of ``_transport_costs``,
    whose demand is the spill total; each supply's flow into it is
    reported at that supply's exit node.  The simplex starts from the
    cheapest rows under c_ij - o_i with the problem's cone radii as o
    (zeros without them): each demand cell then goes to its partition
    label and each frozen source to the absorbing column, a plan that is
    already optimal up to rounding.  The start only saves pivots; the
    optimum is proven as from any start, by the final tree's duals and
    the minimum of all m*n reduced costs.
    """
    nd = p.n_demand
    cost, absorb, exits = _transport_costs(p)
    supplies = p.supply_masses.astype(float)
    demands = p.demand_masses.astype(float)
    if absorb is not None:
        cost = np.hstack([cost, absorb[:, None]])
        demands = np.append(demands, p.spill_total)
    solver = _TransportSimplex(supplies, demands, cost, p.radii)
    solver.solve()
    rows, cols, flows = solver.plan()

    keep = flows > LP_TOL
    sup_idx, col_idx = rows[keep], cols[keep]
    sink_idx, spill = col_idx, np.zeros(p.n_boundary)
    if absorb is not None:
        sink_idx = np.where(col_idx == nd, nd + exits[sup_idx], col_idx)
        # each supply's flow into the absorbing column, zero off the tree
        to_wall = np.zeros(len(supplies))
        to_wall[rows[cols == nd]] = flows[cols == nd]
        spill = np.bincount(exits, weights=to_wall, minlength=p.n_boundary)

    return TransportSolution(
        plan_supply=sup_idx,
        plan_sink=sink_idx,
        plan_mass=flows[keep],
        spill=spill,
        primal_value=float(np.sum(flows * cost[rows, cols])),
        dual_value=float(solver.u @ supplies + solver.v @ demands),
        min_reduced_cost=solver.min_rc,
        marginal_error=float(
            max(
                np.abs(np.bincount(rows, weights=flows, minlength=len(supplies)) - supplies).max(),
                np.abs(np.bincount(cols, weights=flows, minlength=len(demands)) - demands).max(),
            )
        ),
        pivots=solver.pivots,
        u=solver.u,
        v=solver.v,
    )


def coarsen_problem(p: DiscreteProblem, node_cap: int = DUAL_NODE_CAP) -> DiscreteProblem:
    """Aggregate demand cells 4:1 (2x2 blocks) until the node count fits."""
    out = p
    scale = 2.0
    while len(out.supply_masses) + out.n_demand + out.n_boundary > node_cap:
        if out.n_demand <= 1:
            break
        block = scale * max(out.h, 1e-12)
        keys = np.floor(out.demand_locations / block).astype(np.int64)
        order = np.lexsort((keys[:, 0], keys[:, 1]))
        # each block's cells are a run of the sorted order
        starts = np.flatnonzero(np.r_[True, np.any(np.diff(keys[order], axis=0) != 0, axis=1)])
        mass = out.demand_masses[order]
        masses = np.add.reduceat(mass, starts)
        moments = np.add.reduceat(out.demand_locations[order] * mass[:, None], starts, axis=0)
        # a block merges atoms with cells, so no node is an atom any more
        out = replace(out, demand_locations=moments / masses[:, None], demand_masses=masses, demand_atoms=0)
        scale *= 2.0
    return out


def solve_dual(p: DiscreteProblem, node_cap: int = DUAL_NODE_CAP) -> DualSolution:
    """A feasible dual of the transport problem, from the simplex's tree and one c-transform.

    Over supply potentials u_i and demand potentials w_j, the dual
    maximizes sum_i f_i u_i - sum_j d_j w_j subject to u_i - w_j <=
    |x_i - y_j| for every supply-demand pair and, when the problem spills,
    u_i <= a_i, the absorbing column's cost.  Demand nodes are first
    coarsened to respect the node cap, and ``solve_primal`` solves that
    problem.  Its final tree's column potentials give w_j = v_abs - v_j,
    with v_abs the absorbing column's (0 when nothing spills), and the
    c-transform u_i = min(min_j (|x_i - y_j| + w_j), a_i) gives u.  The
    pair is feasible by construction, whatever the simplex did, so by weak
    duality its value bounds the LP optimum, and so the cost of every
    feasible plan, from below.  A value that meets the cost of the
    returned feasible plan therefore proves that plan optimal; the tree
    only makes the bound tight.
    """
    pc = coarsen_problem(p, node_cap)
    sol = solve_primal(pc)
    cost, absorb, _ = _transport_costs(pc)
    nd = pc.n_demand
    w = (0.0 if absorb is None else sol.v[nd]) - sol.v[:nd]
    cost += w
    u = cost.min(axis=1, initial=np.inf)
    if absorb is not None:
        u = np.minimum(u, absorb)
    value = float(pc.supply_masses @ u - pc.demand_masses @ w)
    return DualSolution(value=value, u=u, w=w, problem=pc, primal=sol)


def certify(
    u_supply: np.ndarray,
    u_demand: np.ndarray,
    u_boundary: np.ndarray,
    sol: TransportSolution,
    p: DiscreteProblem,
    dual: DualSolution,
    u_residual: float = 0.0,
) -> CertificateReport:
    """The snapshot's verdict: the height candidate, the plan and the dual.

    On the plan's support the height must rise by exactly the distance
    toward the source; wall contact must hold where spill lands; and the
    pairing of the height with f - growth must reproduce the primal value.
    By weak duality the dual's value must meet its coarse plan's cost, and
    both plans must meet their marginals.  ``u_residual``, the distance of
    a written height field from the recomputed one, must be within LP_TOL.
    """
    u_sink = np.concatenate([u_demand, u_boundary])
    sink_pos = np.vstack([p.demand_locations.reshape(p.n_demand, 2), p.boundary_positions])
    ray = 0.0
    if len(sol.plan_mass):
        d = np.linalg.norm(p.supply_locations[sol.plan_supply] - sink_pos[sol.plan_sink], axis=1)
        ray = float(np.abs(d - (u_supply[sol.plan_supply] - u_sink[sol.plan_sink])).max())

    wall = 0.0
    carrying = sol.spill > LP_TOL
    if np.any(carrying):
        wall = float(np.abs(u_boundary[carrying] - p.boundary_walls[carrying]).max())

    pairing = float(p.supply_masses @ u_supply - p.demand_masses @ u_demand)
    gap = abs(pairing - sol.primal_value)

    coarse = dual.primal
    lp_gap = abs(dual.value - coarse.primal_value)
    mass_tol = LP_TOL * max(1.0, float(p.supply_masses.sum()))
    tol = 1e-6 + 2.0 * p.h
    return CertificateReport(
        primal=sol.primal_value,
        dual=dual.value,
        ray_residual=ray,
        wall_residual=wall,
        duality_gap=gap,
        lp_gap=lp_gap,
        u_residual=u_residual,
        tolerance=tol,
        pivots=sol.pivots + coarse.pivots,
        demand_atoms=p.demand_atoms,
        passed=(
            ray <= tol
            and wall <= tol
            and gap <= tol
            and lp_gap <= LP_TOL * max(1.0, coarse.primal_value)
            and coarse.marginal_error <= mass_tol
            and sol.marginal_error <= mass_tol
            and u_residual <= LP_TOL
        ),
    )


def certify_snapshot(state: ConeState, sources: SourceSet, domain: ConvexDomain, grid: Grid,
                     boundary_spacing: float, node_cap: int, written_u: np.ndarray) -> CertificateReport:
    """A snapshot's whole certificate, with ``written_u`` the (ny, nx) height field written for it.

    Builds and solves the snapshot's problem and its dual, and certifies
    the heights of one ``height_field``: the demand cells' from that field
    (``Grid.cell_of``), the atoms', supplies' and boundary nodes' from
    ``heights_at``.  That field's distance from ``written_u`` is ``u_residual``.
    """
    p = build_problem(state, sources, domain, grid, boundary_spacing)
    sol, dual = solve_primal(p), solve_dual(p, node_cap)
    u = height_field(state, sources, grid).values
    cells, atoms = np.split(p.demand_locations, [p.n_demand - p.demand_atoms])
    u_demand = np.concatenate([u[grid.cell_of(cells[:, 0], cells[:, 1])], heights_at(state, sources, atoms)])
    u_supply, u_boundary = (heights_at(state, sources, nodes) for nodes in (p.supply_locations, p.boundary_positions))
    return certify(u_supply, u_demand, u_boundary, sol, p, dual, float(np.abs(written_u - u).max(initial=0.0)))


def wasserstein(a_locations, a_masses, b_locations, b_masses) -> float:
    """Exact W1 between two balanced discrete measures (no boundary).

    The network simplex starts from the greedy cheapest-row plan with zero
    row offsets: each b point goes to its nearest a point that has mass
    left, in ascending order of that distance.  A b point exactly
    equidistant from several nearest a points with mass left goes to the
    one with the most mass left, the lowest-indexed of those on equal mass.
    """
    p = transport_problem(a_locations, a_masses, b_locations, b_masses)
    return solve_primal(p).primal_value


def _first_min(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's minimum over the rows of ``block`` and the first row that attains it.

    The same as ``block.min(axis=0)`` and ``np.argmin(block, axis=0)``, in
    one pass per row instead of numpy's strided arg-reduction down the
    columns, which is about ten times slower.
    """
    least = block.min(axis=0)
    first = np.full(block.shape[1], len(block) - 1)
    for i in range(len(block) - 2, -1, -1):
        first[block[i] == least] = i
    return least, first


class _TransportSimplex:
    """Primal network simplex specialised to dense transportation problems.

    The basis is a spanning tree of m + n - 1 arcs.  A leaf column, of one
    basic arc, is described by two arrays over the columns: ``col_row[j]``,
    its row, and ``col_flow[j]``, the flow on that arc.  Only a junction
    column (degree >= 2; a tree has at most m - 1) keeps Python
    containers: its rows in the set ``col_rows[j]`` and its arcs' flows in
    ``arc_flow[i, j]``; its ``col_row[j]`` is one of those rows, and
    ``row_junc[i]`` holds the junction columns touching row i.  A column
    keeps its set when it falls back to a leaf, because set iteration order
    picks a junction's next ``col_row`` when it loses that arc, and the
    order depends on the set's history.  Rows and junction columns (node
    m + j) span a core tree of at most 2m - 1 nodes, rooted at row 0;
    ``parent`` and ``depth`` locate each core node in it, and every leaf
    column hangs under its row.  But for the start's columns from its
    first event on, Python loops run over rows and junction columns only;
    what touches every column is a numpy expression.

    The start (Kelly & O'Neill 1991 on advanced starts) is greedy on the
    key c_ij - o_i, with an optional row offset o, zero by default.
    ``_greedy`` ships each column to its cheapest rows with supply left,
    visiting the columns by ascending cheapest key; of several exactly
    tied cheapest rows, the one with the most supply left goes first, the
    lower on equal supply.  A lattice point equidistant from two sources
    then does not fill the lower source's row before that row's own
    points come, which would push them to farther rows; the convergence
    study's n = 64 W1 solve starts optimal this way.  The columns before
    the first that is tied, meets a row without supply or empties a row
    ship in one array pass.  Each arc closes a row or a column, so the
    positive flows form a forest.
    ``_join`` then joins the forest into a spanning tree by zero-flow arcs
    of least reduced cost under the tree's potentials.  ``solve_primal``
    passes a snapshot's cone radii as o: a demand cell's cheapest row is
    then the source whose additively weighted (Apollonius) cell holds it,
    its partition label, so the start is the simulation's own plan
    (Hartmann & Schuhmacher 2020 on semi-discrete W1), and the snapshots
    of the shipped configs and of the benchmark solve without a pivot.

    Pricing scans blocks of about 4096 reduced costs, starting after the
    block that supplied the last entering arc, and enters the most negative
    arc of the first block that has one.  The potentials ``u`` and ``v``
    persist across pivots: a pivot walks parent pointers to find its cycle,
    updates the flows on its arcs, Python floats in ``arc_flow`` (with the
    entering arc in, every arc of the cycle is a junction arc), re-hangs
    the subtree cut off by the leaving arc and
    shifts only that subtree's potentials, the columns' through one gather
    over ``col_row``.  A cycle of blocks without a candidate is followed by
    fresh tree duals.  When they are the cycle's own bits, as always when
    nothing pivoted, the least of the cycle's block minima proves
    optimality; else a second pass over the blocks in order, whose least
    reduced cost (the first in row order, with no (m, n) temporary)
    enters or proves optimality.  After ``solve``, ``plan()``, the final
    tree's ``u`` and ``v`` and ``min_rc``, the minimum of all m*n reduced
    costs, certify the plan on their own, whatever the start.

    The tree stays strongly feasible (Cunningham 1976): a zero-flow arc to
    a junction column hangs the column under its row, so zero-flow arcs
    point away from the root and degenerate pivots cannot cycle.  The
    start has this property: its forest carries positive flow only, and
    each join hangs another component's column under a tree row.
    ``_pivot``'s leaving rule keeps it.  Rows of zero supply, which carry
    no flow in any plan, are the one exception: they hang under a column
    over a zero-flow arc.
    """

    BLOCK_CELLS = 4096

    def __init__(self, supply, demand, cost, offset=None):
        self.supply = np.asarray(supply, dtype=float)
        self.demand = np.asarray(demand, dtype=float)
        self.cost = np.asarray(cost, dtype=float)
        self.m, self.n = self.cost.shape
        total = self.supply.sum()
        if abs(total - self.demand.sum()) > LP_TOL * max(1.0, total):
            raise ValueError(
                f"unbalanced transportation problem: supply {total:.12g}, demand {self.demand.sum():.12g}"
            )
        self.scale = max(1.0, float(max(self.cost.max(), -self.cost.min())))
        self.col_rows: dict[int, set[int]] = {}
        self.arc_flow: dict[tuple[int, int], float] = {}
        self.row_junc: list[set[int]] = [set() for _ in range(self.m)]
        self.parent = [-1] * (self.m + self.n)
        self.depth = [0] * (self.m + self.n)
        self.pivots = 0
        self._initial_basis(np.zeros(self.m) if offset is None else np.asarray(offset, dtype=float))

    # -- construction -----------------------------------------------------

    def _initial_basis(self, offset):
        """Greedy cheapest-row plan on the key c_ij - o_i, joined into a tree.

        ``_greedy`` ships the columns to their cheapest rows and ``_join``
        joins its forest into a spanning tree.  The arcs land in arrays,
        and each column's first arc makes it a leaf; only further arcs go
        through ``_add_arc``.
        """
        key = self.cost - offset[:, None]
        cheapest, first = _first_min(key)
        key -= cheapest  # the ray residual: 0 on each column's cheapest row
        arc_rows, arc_cols, takes = self._greedy(key, cheapest, first)
        join_rows, join_cols = self._join(key, arc_rows, arc_cols)
        rows = np.concatenate([arc_rows, join_rows])
        cols = np.concatenate([arc_cols, join_cols])
        flows = np.concatenate([takes, np.zeros(len(join_rows))])
        _, head = np.unique(cols, return_index=True)
        self.col_row, self.col_flow = rows[head], flows[head]
        more = np.ones(len(cols), dtype=bool)
        more[head] = False
        for i, j, flow in zip(rows[more].tolist(), cols[more].tolist(), flows[more].tolist()):
            self._add_arc(i, j)
            self.arc_flow[i, j] = flow
        self._hang(0, -1)

    def _greedy(self, residual, cheapest, first):
        """The start's arcs as (rows, columns, flows), in the order they open.

        Columns are visited in ascending order of their cheapest key.  Each
        ships to its cheapest row that still has supply, and spills down
        its own ranking of the rows only when that row runs out.  Among
        several exactly tied cheapest rows (a residual of exactly 0), it
        ships first to the live one with the most supply left, the lower
        on equal supply.  A row closes when it runs out; the last live row
        never closes.  What is left within ``RESIDUE_TOL`` of a row's
        supply, on the row or on the column it serves, is rounding residue:
        the row keeps it or takes it, so no arc carries it.  Zero-demand
        columns wait for ``_join``.

        The visiting order up to its first event ships in one array pass,
        each of those columns whole to its cheapest row.  An event is a
        tied column, a cheapest row without supply, or a column that would
        leave its row's supply within residue of 0: it takes part of its
        demand or closes the row.  A row's supply left is
        ``np.subtract.accumulate`` over its columns, the bits of one
        subtraction per column.  From the first event on, a loop on Python
        floats takes one column at a time.
        """
        m, supply, demand = self.m, self.supply, self.demand
        tied = np.count_nonzero(residual == 0.0, axis=0) > 1
        live = supply > 0.0
        if not live.any():
            live[0] = True
        residue = RESIDUE_TOL * supply

        order = np.argsort(cheapest, kind="stable")
        order = order[demand[order] > 0.0]
        rows = first[order]
        # each row's supply left after each of its columns, were all of them whole
        left = np.empty(len(order))
        by_row = np.argsort(rows, kind="stable")
        bound = np.searchsorted(rows[by_row], np.arange(m + 1))
        for i in np.flatnonzero(np.diff(bound)).tolist():
            at = by_row[bound[i] : bound[i + 1]]
            left[at] = np.subtract.accumulate(np.append(supply[i], demand[order[at]]))[1:]
        event = tied[order] | ~live[rows] | (left <= residue[rows])
        stop = int(np.argmax(event)) if event.any() else len(order)
        # a row's prefix columns lead its run of by_row; the last one sets its supply left
        shipped = np.bincount(rows[:stop], minlength=m)
        rem_s = supply.copy()
        has = shipped > 0
        rem_s[has] = left[by_row[bound[:-1][has] + shipped[has] - 1]]

        tail = order[stop:]
        tie_rows = self._tie_rows(residual, tail[tied[tail]])
        # Python floats: the same IEEE arithmetic as float64, without the
        # per-element cost of numpy scalars
        rem_s, residue, live = rem_s.tolist(), residue.tolist(), live.tolist()
        n_live = sum(live)
        arc_rows, arc_cols, takes = [], [], []
        for j, i, rem_d in zip(tail.tolist(), rows[stop:].tolist(), demand[tail].tolist()):
            ranking = None
            if j in tie_rows:
                # live rows first, then the most supply left; max keeps the lower on equal keys
                i = max(tie_rows[j], key=lambda r: (live[r], rem_s[r]))
            while True:
                if not live[i]:
                    # rank the column's rows only once its first choice is spent
                    if ranking is None:
                        ranking = iter(np.argsort(residual[:, j], kind="stable").tolist())
                    i = next(ranking)
                    continue
                take = rem_d if n_live == 1 or rem_d - rem_s[i] <= residue[i] else rem_s[i]
                arc_rows.append(i)
                arc_cols.append(j)
                takes.append(take)
                rem_s[i] -= take
                rem_d -= take
                if n_live > 1 and rem_s[i] <= residue[i]:
                    live[i] = False
                    n_live -= 1
                if rem_d <= 0.0:
                    break
        return (
            np.concatenate([rows[:stop], np.array(arc_rows, dtype=np.int64)]),
            np.concatenate([order[:stop], np.array(arc_cols, dtype=np.int64)]),
            np.concatenate([demand[order[:stop]], takes]),
        )

    def _tie_rows(self, residual, cols):
        """The rows of residual 0, ascending, of each of ``cols``, keyed by column.

        One ``np.nonzero`` per block of ``regions.BLOCK`` entries.
        """
        out = {}
        for part in _blocks(len(cols), self.m):
            block = cols[part]
            at, rows = np.nonzero(residual[:, block].T == 0.0)
            bound = np.searchsorted(at, np.arange(len(block) + 1)).tolist()
            rows = rows.tolist()
            for k, j in enumerate(block.tolist()):
                out[j] = rows[bound[k] : bound[k + 1]]
        return out

    def _join(self, residual, arc_rows, arc_cols):
        """Zero-flow arcs that join the start's forest into a spanning tree.

        The tree grows from row 0's component and carries potentials, d_i
        on rows and b_j on columns, with b_j - d_i = residual_ij on each of
        its arcs; they are its duals less the offsets and the column minima.
        Each step hangs the component of the column j outside the tree with
        the least d_i + residual_ij over tree rows i, by that arc, so b_j
        is that least value (Dijkstra); ties go to the lower column, then
        the lower row.  Every arc from a tree row into a component joined
        later then prices out nonnegative, and so does the whole tree when
        each component is one row and the columns it is cheapest for, as
        for a snapshot under its radii.  Rows without arcs (zero supply)
        hang last, each under the column of greatest b_j - residual_rj.

        A component's potentials spread by a walk over its rows and
        junction columns; its leaf columns take theirs from their rows in
        one expression.  Returns the joining arcs' rows and columns, in
        joining order.
        """
        m, n = self.m, self.n
        degree = np.bincount(arc_cols, minlength=n)
        leaf = degree[arc_cols] == 1
        # the forest's leaf columns by row: row i's are leaf_cols[bound[i]:bound[i + 1]]
        by_row = np.argsort(arc_rows[leaf], kind="stable")
        leaf_cols = arc_cols[leaf][by_row]
        bound = np.searchsorted(arc_rows[leaf][by_row], np.arange(m + 1))
        leaves_of = np.diff(bound)
        leaf_row = np.zeros(n, dtype=np.int64)
        leaf_row[arc_cols[leaf]] = arc_rows[leaf]
        # the forest's other arcs, between rows i and junction columns m + j
        near: dict[int, list[int]] = {}
        for i, x in zip(arc_rows[~leaf].tolist(), (m + arc_cols[~leaf]).tolist()):
            near.setdefault(i, []).append(x)
            near.setdefault(x, []).append(i)
        pot = np.zeros(m + n)
        seen = set()
        best, mate = np.full(n, np.inf), np.zeros(n, dtype=np.int64)
        out_cols = np.ones(n, dtype=bool)
        joins = []
        x = 0
        while True:
            # potentials over x's component, outward from x
            start = x
            if x >= m and degree[x - m] == 1:
                start = int(leaf_row[x - m])
                pot[start] = pot[x] - residual[start, x - m]
            seen.add(start)
            comp, stack = [start], [start]
            while stack:
                y = stack.pop()
                for z in near.get(y, ()):
                    if z not in seen:
                        seen.add(z)
                        if z < m:
                            pot[z] = pot[y] - residual[z, y - m]
                        else:
                            pot[z] = pot[y] + residual[y, z - m]
                        comp.append(z)
                        stack.append(z)
            comp.sort()
            rows = np.array([y for y in comp if y < m], dtype=np.int64)
            cols = np.array([y - m for y in comp if y >= m], dtype=np.int64)
            if len(rows):
                tips = np.concatenate([leaf_cols[bound[i] : bound[i + 1]] for i in rows])
                tip_rows = np.repeat(rows, leaves_of[rows])
                entry = pot[x]
                pot[m + tips] = pot[tip_rows] + residual[tip_rows, tips]
                pot[x] = entry
                cols = np.concatenate([tips, cols])
            out_cols[cols] = False
            best[cols] = np.inf
            if len(rows):
                block = residual[rows]
                block += pot[rows, None]
                reach, arg = _first_min(block)
                row = rows[arg]
                better = reach < best
                better |= (reach == best) & (row < mate)
                better &= out_cols
                np.copyto(best, reach, where=better)
                np.copyto(mate, row, where=better)
            j = int(np.argmin(best))
            if best[j] == np.inf:
                break
            joins.append((int(mate[j]), j))
            x = m + j
            pot[x] = best[j]
        for r in range(m):
            if r not in seen:
                joins.append((r, int(np.argmax(pot[m:] - residual[r]))))
        join_rows, join_cols = np.array(joins, dtype=np.int64).reshape(-1, 2).T
        return join_rows, join_cols

    def plan(self):
        """The basic arcs as (rows, columns, flows), in row-major order."""
        junction = np.array(list(self.arc_flow), dtype=np.int64).reshape(-1, 2)
        leaves = np.ones(self.n, dtype=bool)
        leaves[junction[:, 1]] = False
        rows = np.concatenate([self.col_row[leaves], junction[:, 0]])
        cols = np.concatenate([np.flatnonzero(leaves), junction[:, 1]])
        flows = np.concatenate([self.col_flow[leaves], np.fromiter(self.arc_flow.values(), float, len(self.arc_flow))])
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], flows[order]

    # -- duals -------------------------------------------------------------

    def duals(self):
        """Node potentials with u[0] = 0, propagated down the core tree in order of depth.

        Each core node takes its potential from its parent over their basic
        arc; a parent that is not a core node one level up over a basic arc
        means the pointers no longer span the basis.
        """
        m, n, cost, col_rows, depth = self.m, self.n, self.cost, self.col_rows, self.depth
        u, v = np.zeros(m), np.zeros(n)
        junctions = sorted(m + j for j, rows in col_rows.items() if len(rows) > 1)
        for x in sorted([*range(1, m), *junctions], key=depth.__getitem__):
            p = self.parent[x]
            i, j = (x, p - m) if x < m else (p, x - m)
            rows = col_rows.get(j, ())
            one_up = p >= 0 and (p < m) != (x < m) and depth[p] == depth[x] - 1
            if not (one_up and len(rows) > 1 and i in rows):
                raise RuntimeError("basis tree is not connected")
            if x < m:
                u[i] = cost[i, j] - v[j]
            else:
                v[j] = cost[i, j] - u[i]
        # leaf columns hang under one row; the same formula is consistent
        # for junction columns because basic arcs satisfy u_i + v_j = c_ij
        v = self.cost[self.col_row, np.arange(n)] - u[self.col_row]
        return u, v

    # -- pivoting ----------------------------------------------------------

    def solve(self):
        """Pivot to optimality; ``min_rc`` is then the least of all m*n reduced costs (see the class)."""
        m, n = self.m, self.n
        max_iter = 400 * (m + n) + 5000
        floor = -LP_TOL * self.scale
        width = -(-self.BLOCK_CELLS // m)
        blocks = range(0, n, width)
        start = 0
        self.u, self.v = self.duals()
        for _ in range(max_iter):
            cycle = []
            for b in range(len(blocks)):
                rc, ei, ej = self._block_min(blocks[(start + b) % len(blocks)], width)
                if rc < floor:
                    break
                cycle.append((rc, ei, ej))
            else:
                # no block prices out: fresh tree duals decide.  Under the
                # bits the cycle priced with (bytes, as -0.0 == 0.0), its
                # block minima hold the least of all m*n; else a pass over
                # the blocks in order finds it
                u, v = self.duals()
                same = u.tobytes() == self.u.tobytes() and v.tobytes() == self.v.tobytes()
                self.u, self.v = u, v
                rc, ei, ej = min(cycle if same else (self._block_min(lo, width) for lo in blocks))
                if rc >= floor:
                    self.min_rc = rc
                    return
            start = ej // width + 1
            self.pivots += 1
            self._pivot(ei, ej, rc)
        raise RuntimeError("network simplex exceeded its iteration budget")

    def _block_min(self, lo: int, width: int) -> tuple[float, int, int]:
        """(c_ij - u_i - v_j, i, j) least over the columns lo .. lo + width - 1, first in row order.

        As a tuple's order breaks ties by row, then column, the least of
        the blocks' minima is the first minimum of all m*n in row order.
        """
        cols = slice(lo, lo + width)
        reduced = self.cost[:, cols] - self.u[:, None]
        reduced -= self.v[cols]
        flat = int(reduced.argmin())
        i, j = divmod(flat, reduced.shape[1])
        return float(reduced.flat[flat]), i, lo + j

    def _hang(self, x: int, y: int):
        """Hang core node x and everything beyond it (away from y) under y.

        Resets ``parent`` and ``depth`` over that subtree and returns its rows.
        """
        m, parent, depth = self.m, self.parent, self.depth
        row_junc, col_rows = self.row_junc, self.col_rows
        parent[x] = y
        depth[x] = depth[y] + 1 if y >= 0 else 0
        rows = []
        stack = [x]
        while stack:
            node = stack.pop()
            up, below = parent[node], depth[node] + 1
            if node < m:
                rows.append(node)
                for j in row_junc[node]:
                    k = m + j
                    if k != up:
                        parent[k] = node
                        depth[k] = below
                        stack.append(k)
            else:
                for k in col_rows[node - m]:
                    if k != up:
                        parent[k] = node
                        depth[k] = below
                        stack.append(k)
        return rows

    def _pivot(self, ei: int, ej: int, rc: float):
        m, parent, depth, flow = self.m, self.parent, self.depth, self.arc_flow
        leaf = len(self.col_rows.get(ej, ())) < 2
        r0 = int(self.col_row[ej])
        # with the entering arc in, every arc of the cycle is a junction arc
        self._add_arc(ei, ej)
        # climb from both ends of the entering arc to their common ancestor
        up, down = [ei], [r0 if leaf else m + ej]
        while up[-1] != down[-1]:
            if depth[up[-1]] >= depth[down[-1]]:
                up.append(parent[up[-1]])
            else:
                down.append(parent[down[-1]])
        path = up + down[-2::-1]
        if leaf:
            path.append(m + ej)
        cells = []
        for a, b in zip(path, path[1:]):
            cells.append((a, b - m) if a < m else (b, a - m))
        minus = cells[0::2]
        plus = cells[1::2]
        theta = min(flow[cell] for cell in minus)
        # Strongly feasible rule: leave by the last blocking arc met going
        # from the apex against the flow, down to ej and back up from ei.
        # cells[:len(up) - 1] is ei's climb; minus arcs sit at even indices.
        blocking = [k for k in range(0, len(cells), 2) if flow[cells[k]] <= theta]
        climb = [k for k in blocking if k < len(up) - 1]
        cut = (climb or blocking)[-1]
        leave = cells[cut]

        flow[ei, ej] += theta
        for cell in plus:
            flow[cell] += theta
        for cell in minus:
            flow[cell] -= theta
        self._remove_arc(*leave)

        # The leaving arc cuts off the subtree below it.  It holds ei when
        # the arc lies on ei's climb, and ej otherwise; hang it under the
        # other end of the entering arc, which makes that arc tight.
        if cut < len(up) - 1:
            if leaf:
                parent[m + ej] = r0
                depth[m + ej] = depth[r0] + 1
            rows, shift = self._hang(ei, m + ej), rc
        else:
            rows, shift = self._hang(m + ej, ei), -rc
        if rows:
            delta = np.zeros(m)
            delta[rows] = shift
            self.u += delta
            # the subtree's columns are those whose row is in it, but for ej
            self.v -= delta[self.col_row]
        self.v[ej] = self.cost[ei, ej] - self.u[ei]

    def _add_arc(self, i: int, j: int):
        """Arc (i, j), at zero flow, into column j, which has an arc already."""
        rows = self.col_rows.get(j)
        if rows is None:
            rows = self.col_rows[j] = {int(self.col_row[j])}
        if len(rows) == 1:
            # a leaf becomes a junction: its arc's flow moves to arc_flow
            self.arc_flow[int(self.col_row[j]), j] = float(self.col_flow[j])
        rows.add(i)
        self.arc_flow[i, j] = 0.0
        if len(rows) == 2:
            for r in rows:
                self.row_junc[r].add(j)
        else:
            self.row_junc[i].add(j)

    def _remove_arc(self, i: int, j: int):
        rows = self.col_rows.get(j, ())
        if len(rows) < 2 or i not in rows:
            raise RuntimeError("leaving arc would disconnect its column")
        rows.discard(i)
        self.row_junc[i].discard(j)
        del self.arc_flow[i, j]
        if len(rows) == 1:
            # a junction becomes a leaf: its arc's flow moves to col_flow
            survivor = next(iter(rows))
            self.row_junc[survivor].discard(j)
            self.col_row[j] = survivor
            self.col_flow[j] = self.arc_flow.pop((survivor, j))
        elif self.col_row[j] == i:
            self.col_row[j] = next(iter(rows))
