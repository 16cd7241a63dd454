"""Discrete boundary-taxed transport: primal plan, dual potential, certificates.

A snapshot is certified by solving the finite transportation problem that
ships the source rates onto the deposited growth (grid cells weighted by
the growth rate) and, for frozen sources, over the wall (boundary nodes
taxed by the wall height).  Boundary sinks have unlimited capacity, so the
taxed boundary collapses into one absorbing column: supply i spills at its
cheapest taxed crossing a_i = min_b (|x_i - b| + g_b), and that column's
demand is the spill total.  The primal is solved exactly by a network
simplex on the bipartite graph.  The dual is the exact LP dual of the same
problem, solved independently by HiGHS, which keeps the duality check
non-circular: one row u_i - w_j <= |x_i - y_j| per supply-demand pair and,
when the problem spills, the bound u_i <= a_i (see ``solve_dual``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cones import ConeState
from .fields import eval_height_many, growth_rate_field
from .geometry import ConvexDomain
from .regions import Grid, SourceLists, distances, partition
from .sources import SourceSet
from .tolerances import DUAL_NODE_CAP, LP_TOL, RESIDUE_TOL

# Snapshot imbalance beyond this fraction of the supply is a hard error;
# anything smaller is absorbed by proportional demand rescaling.
MAX_IMBALANCE = 0.01


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
    demand_rescale: float = 0.0         # |expected / counted demand - 1|

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


@dataclass(frozen=True)
class DualSolution:
    value: float
    u: np.ndarray              # (m,) supply potentials
    w: np.ndarray              # (nd,) demand potentials; the boundary's is 0
    problem: DiscreteProblem   # the (possibly coarsened) problem actually solved


@dataclass(frozen=True)
class CertificateReport:
    ray_residual: float        # max | |x-y| - (u(y) - u(x)) | over plan support
    wall_residual: float       # max | u(b) - g(b) | over spill-carrying nodes
    duality_gap: float         # | <rho, u> - primal_value |
    tolerance: float
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
    the expected spill is the total rate of frozen sources.  A small
    quadrature imbalance is removed by rescaling the demand masses.
    """
    part = partition(grid, sources, state.radii)
    rate_field = growth_rate_field(state, sources, part)
    masses = rate_field.values[grid.inside_mask] * grid.cell_area
    centers = grid.inside_centers()
    keep = masses > 0.0
    demand_loc = centers[keep]
    demand_mass = masses[keep]

    supply_total = sources.total_rate
    expected_demand = float(sources.rates[~state.frozen].sum())
    got = float(demand_mass.sum())
    if abs(got - expected_demand) > MAX_IMBALANCE * supply_total:
        raise ValueError(
            f"snapshot mass imbalance {got - expected_demand:+.3e} exceeds "
            f"{MAX_IMBALANCE:.0%} of the supply {supply_total:.6g}"
        )
    rescale = expected_demand / got if got > 0.0 else 1.0
    demand_mass = demand_mass * rescale

    nodes = domain.boundary_nodes(boundary_spacing)
    spill_total = float(sources.rates[state.frozen].sum())
    return DiscreteProblem(
        supply_locations=sources.locations.copy(),
        supply_masses=sources.rates.copy(),
        demand_locations=demand_loc,
        demand_masses=demand_mass,
        boundary_positions=np.array([b.position for b in nodes]),
        boundary_walls=np.array([domain.wall_height(b) for b in nodes]),
        spill_total=spill_total,
        h=grid.h,
        radii=state.radii.copy(),
        demand_rescale=abs(rescale - 1.0),
    )


def transport_problem(supply_locations, supply_masses, demand_locations, demand_masses, h=0.0) -> DiscreteProblem:
    """Balanced two-marginal problem with the boundary disabled."""
    supply_masses = np.asarray(supply_masses, dtype=float)
    demand_masses = np.asarray(demand_masses, dtype=float)
    if abs(supply_masses.sum() - demand_masses.sum()) > LP_TOL * max(1.0, supply_masses.sum()):
        raise ValueError("marginals must balance when the boundary is disabled")
    return DiscreteProblem(
        supply_locations=np.atleast_2d(np.asarray(supply_locations, dtype=float)),
        supply_masses=supply_masses,
        demand_locations=np.atleast_2d(np.asarray(demand_locations, dtype=float)),
        demand_masses=demand_masses,
        boundary_positions=np.empty((0, 2)),
        boundary_walls=np.empty(0),
        spill_total=0.0,
        h=h,
    )


def _transport_costs(p: DiscreteProblem):
    """Shipping costs shared by the primal and the dual.

    Returns the (m, nd) supply-demand distances and, when the problem
    spills, the absorbing column a_i = min_b (|x_i - b| + g_b) with each
    supply's exit node, the first minimizer in boundary order (the tie rule
    of ``ConvexDomain.escape_cost``'s exits).  Both are None when nothing
    spills.
    """
    spills = p.spill_total > LP_TOL * max(1.0, float(p.supply_masses.sum()))
    if spills and p.n_boundary == 0:
        raise ValueError("spill present but the problem has no boundary nodes")
    if not spills and p.n_demand == 0:
        raise ValueError("problem has neither interior demand nor spill")
    cost = distances(p.supply_locations, p.demand_locations.reshape(p.n_demand, 2))
    if not spills:
        return cost, None, None
    taxed = distances(p.supply_locations, p.boundary_positions) + p.boundary_walls
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
    flows = solver.flows

    sup_idx, col_idx = np.nonzero(flows > LP_TOL)
    sink_idx, spill = col_idx, np.zeros(p.n_boundary)
    if absorb is not None:
        sink_idx = np.where(col_idx == nd, nd + exits[sup_idx], col_idx)
        spill = np.bincount(exits, weights=flows[:, nd], minlength=p.n_boundary)

    return TransportSolution(
        plan_supply=sup_idx,
        plan_sink=sink_idx,
        plan_mass=flows[sup_idx, col_idx],
        spill=spill,
        primal_value=float((flows * cost).sum()),
        dual_value=float(solver.u @ supplies + solver.v @ demands),
        min_reduced_cost=solver.min_rc,
        marginal_error=float(
            max(np.abs(flows.sum(axis=1) - supplies).max(), np.abs(flows.sum(axis=0) - demands).max())
        ),
        pivots=solver.pivots,
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
        out = replace(out, demand_locations=moments / masses[:, None], demand_masses=masses)
        scale *= 2.0
    return out


def solve_dual(p: DiscreteProblem, node_cap: int = DUAL_NODE_CAP) -> DualSolution:
    """Exact LP dual of the transport problem, solved independently by HiGHS.

    Over supply potentials u_i and demand potentials w_j, maximize
    sum_i f_i u_i - sum_j d_j w_j subject to u_i - w_j <= |x_i - y_j| for
    every supply-demand pair and, when the problem spills, u_i <= a_i, the
    absorbing column's cost.  That bound is the absorbing column's row with
    its potential fixed at 0, which loses nothing: the masses balance
    (sum f = sum d + spill), so adding one constant to every potential
    leaves the objective unchanged.  By LP duality the optimum equals the
    primal's.  Demand nodes are coarsened to respect the node cap.
    """
    # Imported here, by the only user, so commands that never solve the
    # dual do not pay scipy's import time.
    import scipy.sparse as sp
    from scipy.optimize import linprog

    pc = coarsen_problem(p, node_cap)
    m, nd = len(pc.supply_masses), pc.n_demand
    cost, absorb, _ = _transport_costs(pc)

    # row i * nd + j: u_i - w_j <= |x_i - y_j|
    a_ub = sp.hstack([sp.kron(sp.eye(m), np.ones((nd, 1))), -sp.kron(np.ones((m, 1)), sp.eye(nd))])
    upper = [None] * m if absorb is None else absorb.tolist()
    bounds = [(None, a) for a in upper] + [(None, None)] * nd
    rho = np.concatenate([pc.supply_masses, -pc.demand_masses])
    res = linprog(-rho, A_ub=a_ub, b_ub=cost.ravel(), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"dual LP failed: {res.message}")
    return DualSolution(value=float(-res.fun), u=res.x[:m], w=res.x[m:], problem=pc)


def certify(
    u_supply: np.ndarray,
    u_demand: np.ndarray,
    u_boundary: np.ndarray,
    sol: TransportSolution,
    p: DiscreteProblem,
) -> CertificateReport:
    """Complementary-slackness and duality-gap check for a height candidate.

    On the plan's support the height must rise by exactly the distance
    toward the source; wall contact must hold where spill lands; and the
    pairing of the height with f - growth must reproduce the primal value.
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

    tol = 1e-6 + 2.0 * p.h
    return CertificateReport(
        ray_residual=ray,
        wall_residual=wall,
        duality_gap=gap,
        tolerance=tol,
        passed=(ray <= tol and wall <= tol and gap <= tol),
    )


def snapshot_heights(state: ConeState, sources: SourceSet, p: DiscreteProblem):
    """Height samples at the supply, demand and boundary nodes of a ``build_problem`` problem."""
    nodes = (p.supply_locations, p.demand_locations, p.boundary_positions)
    return tuple(eval_height_many(state, SourceLists(x, sources.locations)) for x in nodes)


def wasserstein(a_locations, a_masses, b_locations, b_masses) -> float:
    """Exact W1 between two balanced discrete measures (no boundary).

    The network simplex starts from the greedy cheapest-row plan with zero
    row offsets: each b point goes to its nearest a point that has mass
    left, in ascending order of that distance.
    """
    p = transport_problem(a_locations, a_masses, b_locations, b_masses)
    return solve_primal(p).primal_value


class _TransportSimplex:
    """Primal network simplex specialised to dense transportation problems.

    Basis bookkeeping: ``col_rows[j]`` holds the basic rows of column j,
    ``col_row[j]`` one of them (the unique one for leaf columns), and
    ``row_junc[i]`` the junction columns (degree >= 2) touching row i.
    Rows and junction columns (node m + j) span a core tree of at most
    2m - 1 nodes, rooted at row 0; ``parent`` and ``depth`` locate each
    core node in it, and every other column hangs as a leaf under its row.

    The start (Kelly & O'Neill 1991 on advanced starts) is greedy on the
    key c_ij - o_i, with an optional row offset o, zero by default.
    ``_initial_basis`` ships each column to its cheapest rows with supply
    left, visiting the columns by ascending cheapest key; each arc closes
    a row or a column, so the positive flows form a forest.  ``_join``
    then joins the forest into a spanning tree by zero-flow arcs of least
    reduced cost under the tree's potentials.  ``solve_primal`` passes a
    snapshot's cone radii as o: a demand cell's cheapest row is then the
    source whose additively weighted (Apollonius) cell holds it, its
    partition label, so the start is the simulation's own plan (Hartmann &
    Schuhmacher 2020 on semi-discrete W1), and the snapshots of the shipped
    configs and of the benchmark solve without a pivot.

    Pricing scans blocks of about 4096 reduced costs, starting after the
    block that supplied the last entering arc, and enters the most negative
    arc of the first block that has one.  The potentials ``u`` and ``v``
    persist across pivots: a pivot walks parent pointers to find its cycle,
    re-hangs the subtree cut off by the leaving arc and shifts only that
    subtree's potentials, the columns' through one gather over ``col_row``.
    A cycle of blocks without a candidate is followed by fresh tree duals
    and a second pass over the blocks in order, whose least reduced cost
    (the first in row order, with no (m, n) temporary) enters or proves
    optimality.  After ``solve``, ``flows``, the final tree's ``u`` and
    ``v`` and ``min_rc``, the minimum of all m*n reduced costs, certify
    the plan on their own, whatever the start.

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
            raise ValueError("unbalanced transportation problem")
        self.scale = max(1.0, float(np.abs(self.cost).max()))
        self.flows = np.zeros((self.m, self.n))
        self.col_rows: list[set[int]] = [set() for _ in range(self.n)]
        self.col_row = np.zeros(self.n, dtype=np.int64)
        self.row_junc: list[set[int]] = [set() for _ in range(self.m)]
        self.parent = [-1] * (self.m + self.n)
        self.depth = [0] * (self.m + self.n)
        self.pivots = 0
        self._initial_basis(np.zeros(self.m) if offset is None else np.asarray(offset, dtype=float))

    # -- construction -----------------------------------------------------

    def _initial_basis(self, offset):
        """Greedy cheapest-row plan on the key c_ij - o_i, joined into a tree.

        Columns are visited in ascending order of their cheapest key.  Each
        ships to its cheapest row that still has supply, and spills down
        its own ranking of the rows only when that row runs out.  A row
        closes when it runs out; the last live row never closes.  What is
        left within ``RESIDUE_TOL`` of a row's supply, on the row or on the
        column it serves, is rounding residue: the row keeps it or takes
        it, so no arc carries it.  Zero-demand columns wait for ``_join``.
        """
        m, n = self.m, self.n
        key = self.cost - offset[:, None]
        first = np.argmin(key, axis=0)
        cheapest = key[first, np.arange(n)]
        key -= cheapest  # the ray residual: 0 on each column's cheapest row

        # Python floats: the same IEEE arithmetic as float64, without the
        # per-element cost of numpy scalars
        rem_s = self.supply.tolist()
        residue = (RESIDUE_TOL * self.supply).tolist()
        live = [s > 0.0 for s in rem_s]
        if not any(live):
            live[0] = True
        n_live = sum(live)
        demand = self.demand.tolist()
        first = first.tolist()
        arc_rows, arc_cols, takes = [], [], []
        for j in np.argsort(cheapest, kind="stable").tolist():
            rem_d = demand[j]
            if rem_d <= 0.0:
                continue
            ranking = None
            i = first[j]
            while True:
                if not live[i]:
                    # rank the column's rows only once its first choice is spent
                    if ranking is None:
                        ranking = iter(np.argsort(key[:, j], kind="stable").tolist())
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
        self.flows[arc_rows, arc_cols] = takes
        joins = self._join(key, np.array(arc_rows, dtype=np.int64), np.array(arc_cols, dtype=np.int64))
        for i, j in [*zip(arc_rows, arc_cols), *joins]:
            self._add_arc(i, j)
        self._hang(0, -1)

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
        """
        m, n = self.m, self.n
        # the forest's neighbours of node y (rows i, columns m + j) are
        # near[bound[y]:bound[y + 1]]
        ends = np.concatenate([arc_rows, m + arc_cols])
        order = np.argsort(ends, kind="stable")
        near = np.concatenate([m + arc_cols, arc_rows])[order]
        bound = np.searchsorted(ends[order], np.arange(m + n + 1)).tolist()
        pot = np.zeros(m + n)
        in_tree = [False] * (m + n)
        best, mate = np.full(n, np.inf), np.zeros(n, dtype=np.int64)
        out_cols = np.ones(n, dtype=bool)
        joins = []
        x = 0
        while True:
            # potentials over x's component, outward from x
            in_tree[x] = True
            comp, stack = [x], [x]
            while stack:
                y = stack.pop()
                for z in near[bound[y] : bound[y + 1]].tolist():
                    if not in_tree[z]:
                        in_tree[z] = True
                        if z < m:
                            pot[z] = pot[y] - residual[z, y - m]
                        else:
                            pot[z] = pot[y] + residual[y, z - m]
                        comp.append(z)
                        stack.append(z)
            comp = np.array(sorted(comp))
            rows, cols = comp[comp < m], comp[comp >= m] - m
            out_cols[cols] = False
            best[cols] = np.inf
            if len(rows):
                reach = residual[rows]
                reach += pot[rows, None]
                arg = np.argmin(reach, axis=0)
                reach, row = reach[arg, np.arange(n)], rows[arg]
                better = out_cols & ((reach < best) | ((reach == best) & (row < mate)))
                best[better], mate[better] = reach[better], row[better]
            if not out_cols.any():
                break
            j = int(np.argmin(best))
            joins.append((int(mate[j]), j))
            x = m + j
            pot[x] = best[j]
        for r in [i for i in range(m) if not in_tree[i]]:
            joins.append((r, int(np.argmax(pot[m:] - residual[r]))))
        return joins

    # -- duals -------------------------------------------------------------

    def duals(self):
        """Node potentials with u[0] = 0, propagated down the core tree in order of depth.

        Each core node takes its potential from its parent over their basic
        arc; a parent that is not a core node one level up over a basic arc
        means the pointers no longer span the basis.
        """
        m, n, cost, col_rows, depth = self.m, self.n, self.cost, self.col_rows, self.depth
        u, v = np.zeros(m), np.zeros(n)
        junctions = [m + j for j, rows in enumerate(col_rows) if len(rows) > 1]
        for x in sorted([*range(1, m), *junctions], key=depth.__getitem__):
            p = self.parent[x]
            i, j = (x, p - m) if x < m else (p, x - m)
            one_up = p >= 0 and (p < m) != (x < m) and depth[p] == depth[x] - 1
            if not (one_up and len(col_rows[j]) > 1 and i in col_rows[j]):
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
        m, n = self.m, self.n
        max_iter = 400 * (m + n) + 5000
        floor = -LP_TOL * self.scale
        width = -(-self.BLOCK_CELLS // m)
        blocks = range(0, n, width)
        start = 0
        self.u, self.v = self.duals()
        for _ in range(max_iter):
            for b in range(len(blocks)):
                rc, ei, ej = self._block_min(blocks[(start + b) % len(blocks)], width)
                if rc < floor:
                    break
            else:
                # no block prices out: fresh tree duals and a pass over all
                # m*n reduced costs, the same blocks in order, decide
                self.u, self.v = self.duals()
                rc, ei, ej = min(self._block_min(lo, width) for lo in blocks)
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
        reduced = self.cost[:, cols] - self.u[:, None] - self.v[None, cols]
        flat = int(np.argmin(reduced))
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
                near = [m + j for j in row_junc[node]]
            else:
                near = col_rows[node - m]
            for k in near:
                if k != up:
                    parent[k] = node
                    depth[k] = below
                    stack.append(k)
        return rows

    def _pivot(self, ei: int, ej: int, rc: float):
        m, parent, depth = self.m, self.parent, self.depth
        leaf = len(self.col_rows[ej]) == 1
        r0 = int(self.col_row[ej])
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
        theta = min(self.flows[i, j] for i, j in minus)
        # Strongly feasible rule: leave by the last blocking arc met going
        # from the apex against the flow, down to ej and back up from ei.
        # cells[:len(up) - 1] is ei's climb; minus arcs sit at even indices.
        blocking = [k for k in range(0, len(cells), 2) if self.flows[cells[k]] <= theta]
        climb = [k for k in blocking if k < len(up) - 1]
        cut = (climb or blocking)[-1]
        leave = cells[cut]

        self.flows[ei, ej] += theta
        for i, j in plus:
            self.flows[i, j] += theta
        for i, j in minus:
            self.flows[i, j] -= theta
        self._add_arc(ei, ej)
        self._remove_arc(*leave)
        self.flows[leave] = 0.0

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
        rows = self.col_rows[j]
        rows.add(i)
        deg = len(rows)
        if deg == 1:
            self.col_row[j] = i
        elif deg == 2:
            for r in rows:
                self.row_junc[r].add(j)
        else:
            self.row_junc[i].add(j)

    def _remove_arc(self, i: int, j: int):
        rows = self.col_rows[j]
        rows.discard(i)
        self.row_junc[i].discard(j)
        deg = len(rows)
        if deg == 0:
            raise RuntimeError("leaving arc would disconnect its column")
        if deg == 1:
            survivor = next(iter(rows))
            self.row_junc[survivor].discard(j)
            self.col_row[j] = survivor
        elif self.col_row[j] == i:
            self.col_row[j] = next(iter(rows))
