"""Per-item loops that the array passes in ``src/`` replaced, kept as test oracles.

Each function does, one source, edge or row at a time, what the package
now does in one array pass.  The oracle tests assert that both give the
same bits.  ``dense_partition`` and ``dense_heights`` are the full
(points x sources) forms that ``regions.SourceLists`` replaced.
"""

import numpy as np

from silopile.geometry import _INV_GOLDEN
from silopile.regions import NONE_LABEL, distances
from silopile.tolerances import GEOM_TOL, REFINE_TOL, TIE_TOL


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
    rows, cols = grid.cell_index(pos)
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
