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
from .regions import Grid, distances, partition
from .sources import SourceSet
from .tolerances import DUAL_NODE_CAP, LP_TOL

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
    bland_pivots: int          # of which under Bland's rule


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
    if got > 0.0:
        demand_mass = demand_mass * (expected_demand / got)

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
    reported at that supply's exit node.
    """
    nd = p.n_demand
    cost, absorb, exits = _transport_costs(p)
    supplies = p.supply_masses.astype(float)
    demands = p.demand_masses.astype(float)
    if absorb is not None:
        cost = np.hstack([cost, absorb[:, None]])
        demands = np.append(demands, p.spill_total)
    solver = _TransportSimplex(supplies, demands, cost)
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
        bland_pivots=solver.bland_pivots,
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
        keys_sorted = keys[order]
        boundaries = np.nonzero(np.any(np.diff(keys_sorted, axis=0) != 0, axis=1))[0] + 1
        groups = np.split(order, boundaries)
        locs = np.array(
            [
                (out.demand_locations[g] * out.demand_masses[g, None]).sum(axis=0)
                / out.demand_masses[g].sum()
                for g in groups
            ]
        )
        masses = np.array([out.demand_masses[g].sum() for g in groups])
        out = replace(out, demand_locations=locs, demand_masses=masses)
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
    return tuple(eval_height_many(state, sources, x) for x in nodes)


def wasserstein(a_locations, a_masses, b_locations, b_masses) -> float:
    """Exact W1 between two balanced discrete measures (no boundary)."""
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

    Pricing scans blocks of about 4096 reduced costs, starting after the
    block that supplied the last entering arc, and enters the most negative
    arc of the first block that has one.  The potentials ``u`` and ``v``
    persist across pivots: a pivot walks parent pointers to find its cycle,
    re-hangs the subtree cut off by the leaving arc and shifts only that
    subtree's potentials, the columns' through one gather over ``col_row``.
    A pass over all blocks without a candidate is followed by fresh tree
    duals and one full reduced-cost pass, which either finds the next
    entering arc or proves optimality; Bland's rule, switched on after a
    long run of degenerate pivots, prices every pivot that way.  After
    ``solve``, ``flows``, the final tree's ``u`` and ``v`` and ``min_rc``,
    the minimum of all m*n reduced costs, certify the plan on their own.
    """

    BLOCK_CELLS = 4096

    def __init__(self, supply, demand, cost):
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
        self.bland_pivots = 0
        self._initial_basis()

    # -- construction -----------------------------------------------------

    def _initial_basis(self):
        """Northwest-corner start on greedily ordered columns.

        Columns are grouped by their cheapest supply row and, within a
        group, ordered by decreasing regret, so the initial tree is already
        close to the nearest-supply assignment.
        """
        m, n = self.m, self.n
        if m == 1:
            order = np.arange(n)
        else:
            nearest = np.argmin(self.cost, axis=0)
            part = np.partition(self.cost, 1, axis=0)
            regret = part[1] - part[0]
            order = np.lexsort((-regret, nearest))

        # Python floats: the same IEEE arithmetic as float64, without the
        # per-element cost of numpy scalars; each cell is visited once
        rem_s = self.supply.tolist()
        demand = self.demand.tolist()
        arc_rows, arc_cols, takes = [], [], []
        i = 0
        for j in order.tolist():
            rem_d = demand[j]
            while True:
                take = min(rem_s[i], rem_d)
                arc_rows.append(i)
                arc_cols.append(j)
                takes.append(take)
                rem_s[i] -= take
                rem_d -= take
                if rem_d <= 0.0 or i + 1 >= m:
                    break
                if rem_s[i] <= 0.0:
                    i += 1
        self.flows[arc_rows, arc_cols] = takes
        arcs = set(zip(arc_rows, arc_cols))
        # the walk gives every row it reaches an arc and reaches rows 0..i;
        # the rest (trailing zero supplies) hang off their cheapest column
        # with a degenerate zero-flow arc
        for r in range(i + 1, m):
            arcs.add((r, int(np.argmin(self.cost[r]))))
        for r, j in arcs:
            self.col_rows[j].add(r)
        for j in range(n):
            if not self.col_rows[j]:
                # unreachable for a balanced problem, but keep the basis total
                self.col_rows[j].add(m - 1)
        for j, rows in enumerate(self.col_rows):
            self.col_row[j] = next(iter(rows))
            if len(rows) > 1:
                for r in rows:
                    self.row_junc[r].add(j)
        self._hang(0, -1)

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
        mass_scale = max(1.0, float(self.supply.sum()))
        floor = -LP_TOL * self.scale
        width = -(-self.BLOCK_CELLS // m)
        blocks = -(-n // width)
        start = 0
        stall = 0
        bland = False
        self.u, self.v = self.duals()
        for _ in range(max_iter):
            enter = None
            for b in range(0 if bland else blocks):
                lo = (start + b) % blocks * width
                cols = slice(lo, lo + width)
                reduced = self.cost[:, cols] - self.u[:, None] - self.v[None, cols]
                flat = int(np.argmin(reduced))
                if reduced.flat[flat] < floor:
                    ei, ej = divmod(flat, reduced.shape[1])
                    enter = ei, lo + ej, float(reduced.flat[flat])
                    break
            if enter is None:
                # no block prices out (or Bland's rule is on): fresh tree
                # duals and one pass over all m*n reduced costs decide
                self.u, self.v = self.duals()
                reduced = self.cost - self.u[:, None] - self.v[None, :]
                flat = int(np.argmin(reduced))
                if reduced.flat[flat] >= floor:
                    self.min_rc = float(reduced.flat[flat])
                    return
                if bland:
                    flat = int(np.argmax(reduced < floor))  # first in row-major order
                ei, ej = divmod(flat, n)
                enter = ei, ej, float(reduced.flat[flat])
            start = enter[1] // width + 1
            self.pivots += 1
            self.bland_pivots += bland
            theta = self._pivot(*enter)
            if theta <= 1e-14 * mass_scale:
                stall += 1
                if stall > m + n:
                    bland = True
            else:
                stall = 0
        raise RuntimeError("network simplex exceeded its iteration budget")

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

    def _pivot(self, ei: int, ej: int, rc: float) -> float:
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
        leave = min((i, j) for i, j in minus if self.flows[i, j] <= theta)

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
        if cells.index(leave) < len(up) - 1:
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
        return float(theta)

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
