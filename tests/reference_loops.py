"""Per-item loops that the array passes in ``src/`` replaced, kept as test oracles.

Each function does, one source, edge or row at a time, what the package
now does in one array pass.  The oracle tests assert that both give the
same bits.  ``dense_partition`` and ``dense_heights`` are the full
(points x sources) forms that the grid's ``regions.SourceLists`` replaced;
``point_heights`` is the per-point loop of ``fields.heights_at``, the full
form that points off the grid still take.  ``contains_whole`` is the
one-array form of ``ConvexDomain.contains_many``, which now tests one
edge at a time.  ``DenseTransportSimplex`` is
the network simplex that kept a dense flow matrix before
``verify._TransportSimplex`` kept per-column arrays, and ``greedy_start``
the per-column loop that shipped its whole start before
``_TransportSimplex._greedy`` shipped the start's event-free prefix in
one array pass.  ``knot_scan`` finds
snapshot states after the run, over its kept step states, as
``cones.run`` did before it handed each snapshot on as it passed it.
"""

import math

import numpy as np

from silopile.cones import ConeState, analytic_phase, step
from silopile.geometry import _INV_GOLDEN
from silopile.regions import NONE_LABEL, build_grid, distances
from silopile.tolerances import GEOM_TOL, LP_TOL, REFINE_TOL, RESIDUE_TOL, TIE_TOL


def edge_minimum(domain, i, y):
    """Golden-section minimum of wall(s) + |edge(s) - y| on edge i: (s, value)."""
    a_val = domain.wall_values[i]
    b_val = domain.wall_values[(i + 1) % domain.n_edges]
    v = domain.vertices[i]
    e = domain.edges[i]
    y = np.asarray(y, dtype=float)

    def f(s):
        return (1.0 - s) * a_val + s * b_val + float(np.linalg.norm(v + s * e - y))

    lo, hi = 0.0, 1.0
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > REFINE_TOL:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = f(d)
    s_mid = 0.5 * (lo + hi)
    candidates = [(0.0, f(0.0)), (s_mid, f(s_mid)), (1.0, f(1.0))]
    return min(candidates, key=lambda c: c[1])


def edge_minima(domain, points):
    """(k, n) minimizers and minima, one ``edge_minimum`` call per point and edge."""
    out = np.array([[edge_minimum(domain, i, y) for i in range(domain.n_edges)] for y in points])
    return out[..., 0], out[..., 1]


def first_exit(domain, y):
    """The escape cost's exit ``(edge, param, position)`` from one point, one tied edge minimizer at a time.

    Every edge minimizer within TIE_TOL of the cost is canonicalized (a
    parameter >= 1 - GEOM_TOL wraps to parameter 0 of the next edge, one
    <= GEOM_TOL snaps to 0) and the one with the smallest key is the exit.
    """
    t, f = domain._edge_minima(np.asarray(y, dtype=float)[None, :])
    t, f = t[0], f[0]
    exits = {}
    for i in np.nonzero(f <= f.min() + TIE_TOL)[0]:
        edge, s = int(i), float(t[i])
        if s >= 1.0 - GEOM_TOL:
            edge, s = (edge + 1) % domain.n_edges, 0.0
        elif s <= GEOM_TOL:
            s = 0.0
        exits.setdefault((edge, s), domain.vertices[edge] + s * domain.edges[edge])
    key = min(exits)
    return key[0], key[1], exits[key]


def wall_height(domain, i, s):
    """Wall height at parameter s of edge i."""
    j = (i + 1) % domain.n_edges
    return float((1.0 - s) * domain.wall_values[i] + s * domain.wall_values[j])


def boundary_nodes(domain, spacing):
    """``(edges, params, positions)`` of the boundary nodes, one node at a time."""
    nodes = []
    for i in range(domain.n_edges):
        n_sub = max(1, int(np.ceil(domain.edge_lengths[i] / spacing - GEOM_TOL)))
        for k in range(n_sub):
            s = k / n_sub
            nodes.append((i, s, domain.vertices[i] + s * domain.edges[i]))
    edges, params, positions = zip(*nodes)
    return list(edges), list(params), np.array(positions)


def spill_atoms(state, sources, atoms):
    """``(keys, positions, masses)`` of the spill measure, one frozen source at a time.

    Rates accumulate per exact (edge, param) key in a dict, in ascending
    source index; the keys come out sorted.
    """
    masses, points = {}, {}
    for j in np.nonzero(state.frozen)[0]:
        key = (int(atoms.edge[j]), float(atoms.param[j]))
        masses[key] = masses.get(key, 0.0) + float(sources.rates[j])
        points[key] = atoms.position[j]
    keys = sorted(masses)
    return keys, np.array([points[k] for k in keys]).reshape(-1, 2), np.array([masses[k] for k in keys])


def merge_sources(locations, rates):
    """First-representative greedy merge of locations within GEOM_TOL."""
    merged_loc, merged_rate = [], []
    for loc, rate in zip(np.asarray(locations, dtype=float), np.asarray(rates, dtype=float)):
        for i, existing in enumerate(merged_loc):
            if np.linalg.norm(existing - loc) <= GEOM_TOL:
                merged_rate[i] += rate
                break
        else:
            merged_loc.append(loc)
            merged_rate.append(float(rate))
    return np.array(merged_loc), np.array(merged_rate)


def contains_whole(domain, points):
    """Half-plane membership over one (m, n_edges, 2) array of offsets, as ``contains_many`` did."""
    points = np.asarray(points, dtype=float)
    rel = points[:, None, :] - domain.vertices[None, :, :]
    side = (domain.edges[None, :, 0] * rel[:, :, 1] - domain.edges[None, :, 1] * rel[:, :, 0]) / domain.edge_lengths
    return np.all(side >= -GEOM_TOL, axis=1)


def distance_to_boundary(domain, x):
    """Distance from one point to the boundary, one edge projection per row."""
    x = np.asarray(x, dtype=float)
    rel = x - domain.vertices
    t = np.einsum("ij,ij->i", rel, domain.edges) / domain.edge_lengths**2
    t = np.clip(t, 0.0, 1.0)
    feet = domain.vertices + t[:, None] * domain.edges
    return float(np.linalg.norm(feet - x, axis=1).min())


def min_pairwise(locations):
    """Smallest pairwise distance from the full (k, k, 2) difference array."""
    diff = locations[:, None, :] - locations[None, :, :]
    d = np.linalg.norm(diff, axis=2)
    return float(d[np.triu_indices(len(locations), k=1)].min())


def deposit_loop(state, sources, part, atoms, grid):
    """Rolling-layer cell mass and mass-weighted ray directions, one source per call.

    Returns ``(mass, direction_mass)``: (ny, nx) and (ny, nx, 2) arrays;
    the directions point toward the source.
    """
    mass = np.zeros((grid.ny, grid.nx))
    dir_mass = np.zeros((grid.ny, grid.nx, 2))
    centers = grid.cell_centers()
    for j in range(sources.k):
        if state.frozen[j] or part.areas[j] <= 0.0:
            continue
        sel = part.labels == j
        if not np.any(sel):
            continue
        starts = centers[sel]
        weights = np.full(len(starts), sources.rates[j] / part.areas[j] * grid.cell_area)
        _deposit(grid, starts, sources.locations[j], weights, mass, dir_mass)
    for j in np.nonzero(state.frozen)[0]:
        _deposit(
            grid,
            atoms.position[j][None, :],
            sources.locations[j],
            np.array([float(sources.rates[j])]),
            mass,
            dir_mass,
        )
    return mass, dir_mass


def _deposit(grid, starts, target, weights, mass, dir_mass):
    diff = target[None, :] - starts
    lengths = np.linalg.norm(diff, axis=1)
    keep = lengths > 1e-15
    if not np.any(keep):
        return
    starts, diff, lengths, weights = starts[keep], diff[keep], lengths[keep], weights[keep]
    theta = diff / lengths[:, None]
    nsub = np.maximum(np.ceil(lengths / grid.h).astype(int), 1)
    total = int(nsub.sum())
    owner = np.repeat(np.arange(len(starts)), nsub)
    first = np.concatenate([[0], np.cumsum(nsub)[:-1]])
    k = np.arange(total) - np.repeat(first, nsub)
    s = (k + 0.5) / nsub[owner]
    pos = starts[owner] + s[:, None] * diff[owner]
    submass = (weights * lengths / nsub)[owner]
    rows, cols = grid.cell_of(pos[:, 0], pos[:, 1])
    np.add.at(mass, (rows, cols), submass)
    np.add.at(dir_mass, (rows, cols, 0), submass * theta[owner, 0])
    np.add.at(dir_mass, (rows, cols, 1), submass * theta[owner, 1])


def field_to_csv_rows(field):
    """Row-major ``x,y,value`` table, one f-string per inside cell."""
    centers = field.grid.inside_centers()
    values = field.values[field.grid.inside_mask]
    lines = ["x,y,value"]
    for (x, y), v in zip(centers, values):
        lines.append(f"{x:.17g},{y:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


def tree_duals(solver):
    """A network simplex basis's potentials, u[0] = 0, by depth-first search from row 0.

    Walks a ``verify._TransportSimplex``'s rows and junction columns
    through ``row_junc`` and ``col_rows``; every column then takes its
    potential from ``col_row``.  Raises when row 0 does not reach every row.
    """
    m, n, cost = solver.m, solver.n, solver.cost
    u = np.full(m, np.nan)
    v_junc = {}
    u[0] = 0.0
    stack = [0]
    while stack:
        r = stack.pop()
        for j in solver.row_junc[r]:
            if j not in v_junc:
                v_junc[j] = cost[r, j] - u[r]
                for r2 in solver.col_rows[j]:
                    if np.isnan(u[r2]):
                        u[r2] = cost[r2, j] - v_junc[j]
                        stack.append(r2)
    if np.isnan(u).any():
        raise RuntimeError("basis tree is not connected")
    v = cost[solver.col_row, np.arange(n)] - u[solver.col_row]
    return u, v


def greedy_start(supply, demand, residual, cheapest, first):
    """The greedy start's arcs as (rows, columns, flows), one column at a time on Python floats.

    ``residual`` is the key less each column's least, ``cheapest`` those
    least keys and ``first`` the first row that attains each.
    """
    supply, demand = np.asarray(supply, dtype=float), np.asarray(demand, dtype=float)
    tied = (np.count_nonzero(residual == 0.0, axis=0) > 1).tolist()
    rem_s = supply.tolist()
    residue = (RESIDUE_TOL * supply).tolist()
    live = [s > 0.0 for s in rem_s]
    if not any(live):
        live[0] = True
    n_live = sum(live)
    demand = demand.tolist()
    first = np.asarray(first).tolist()
    arc_rows, arc_cols, takes = [], [], []
    for j in np.argsort(cheapest, kind="stable").tolist():
        rem_d = demand[j]
        if rem_d <= 0.0:
            continue
        ranking = None
        i = first[j]
        if tied[j]:
            # live rows first, then the most supply left; max keeps the lower on equal keys
            i = max(np.flatnonzero(residual[:, j] == 0.0).tolist(), key=lambda r: (live[r], rem_s[r]))
        while True:
            if not live[i]:
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
    return np.array(arc_rows, dtype=np.int64), np.array(arc_cols, dtype=np.int64), np.array(takes, dtype=float)


def knot_scan(sources, domain, T, h):
    """The run's knots, and the scan over them that found a snapshot state after the run.

    Steps from the analytic start to T, or until every source froze, on a
    fresh grid, keeping every step's end state: the knots.  ``state_at(t)``
    then scans the knots: the analytic radii at t <= t0, linear in r over
    the first step that ends at or after t, the last knot's radii past the
    last step.
    """
    thresholds, _ = domain.escape_cost(sources.locations)
    t0, radii_fn = analytic_phase(sources, domain)
    t0 = min(t0, T)
    grid = build_grid(domain, h)

    def state_at_analytic(t):
        return ConeState(t, np.minimum(radii_fn(t), thresholds), thresholds)

    knots = [state_at_analytic(t0)]
    while knots[-1].time < T - 1e-15 and not np.all(knots[-1].frozen):
        knots.append(step(knots[-1], sources, domain, grid, dt_max=T - knots[-1].time)[0])

    def state_at(t):
        if t <= t0:
            return state_at_analytic(t)
        for a, b in zip(knots, knots[1:]):
            if t <= b.time + 1e-15:
                span = b.time - a.time
                w = (t - a.time) / span if span > 0.0 else 1.0
                return ConeState(t, a.radii + min(max(w, 0.0), 1.0) * (b.radii - a.radii), thresholds)
        return ConeState(t, knots[-1].radii.copy(), thresholds)

    return knots, state_at


def dense_partition(grid, sources, radii):
    """Labels and areas from the full (inside cells, sources) matrix of r_j - |x - y_j|."""
    radii = np.asarray(radii, dtype=float)
    k = len(radii)
    labels = np.full((grid.ny, grid.nx), NONE_LABEL, dtype=np.int64)
    if k > 0 and np.any(radii > 0.0):
        values = radii[None, :] - distances(grid.inside_centers(), sources.locations)
        best = np.argmax(values, axis=1)  # lowest index wins ties
        covered = values[np.arange(len(values)), best] > 0.0
        labels[grid.inside_mask] = np.where(covered, best, NONE_LABEL)
    counts = np.bincount(labels[labels >= 0].ravel(), minlength=k)
    return labels, counts * grid.cell_area


def dense_heights(radii, sources, points):
    """Pile height max_j (r_j - |x - y_j|)+ from the full (points, sources) matrix."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(radii, dtype=float)[None, :] - distances(points, sources.locations)
    return np.maximum(values.max(axis=1), 0.0)


def point_heights(radii, locations, points):
    """Pile height max_j (r_j - |x - y_j|)+ one point and one source at a time, on Python floats."""
    heights = []
    for x, y in np.asarray(points, dtype=float).tolist():
        cones = [r - math.sqrt((x - a) * (x - a) + (y - b) * (y - b)) for r, (a, b) in zip(radii, locations)]
        heights.append(max(max(cones), 0.0))
    return np.array(heights, dtype=float)


def polygon_area_roll(poly):
    """Shoelace area with the next vertices from ``np.roll``."""
    x, y = poly[:, 0], poly[:, 1]
    return float(0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def polygon_centroid_roll(poly):
    """Polygon centroid with the next vertices from ``np.roll``."""
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * cross.sum()
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return np.array([cx, cy])


# The network simplex as it was when it kept a dense (m, n) flow matrix,
# a set of rows for every column and scanned all n columns for the tree's
# junctions.  ``verify._TransportSimplex`` must reproduce its starts,
# trees, pivots and duals bit for bit.
class DenseTransportSimplex:
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
        its own ranking of the rows only when that row runs out.  Of
        several exactly tied cheapest rows it ships first to the live one
        with the most supply left, the lowest on equal supply.  A row
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
            # exact ties at the least key: the live row with the most
            # supply left, the lowest of those with equal supply
            for r in range(m):
                if key[r, j] == 0.0 and live[r] and (not live[i] or rem_s[r] > rem_s[i]):
                    i = r
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
