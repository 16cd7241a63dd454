"""Point sources and discretization of non-negative source measures.

A continuous source measure (uniform on a polygon, truncated Gaussian, or
an explicit point list) is approximated by centroidal binning: one point
source per nonempty cell of a sqrt(n) x sqrt(n) overlay grid, placed at
the cell's mass centroid and carrying the cell's mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConvexDomain
from .tolerances import GEOM_TOL

UNIFORM_POLYGON = "uniform-on-polygon"
GAUSSIAN = "gaussian-truncated"
POINT_LIST = "point-list"

# Fixed subdivision used for quadrature of the Gaussian kind inside one bin.
_GAUSS_SUBGRID = 24

# Source pairs per block of min_separation's pairwise distances.
_PAIR_BLOCK = 4096


@dataclass(frozen=True)
class SourceSet:
    """Distinct interior point sources with positive rates."""

    locations: np.ndarray  # (k, 2)
    rates: np.ndarray      # (k,)

    @property
    def k(self) -> int:
        return len(self.rates)

    @property
    def total_rate(self) -> float:
        return float(self.rates.sum())


@dataclass(frozen=True)
class DensitySpec:
    """Description of the source measure to be discretized."""

    kind: str
    total_mass: float
    polygon: np.ndarray | None = None        # uniform-on-polygon
    center: np.ndarray | None = None         # gaussian-truncated
    sigma: float = 0.0
    radius: float = 0.0
    points: np.ndarray | None = None         # point-list
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (UNIFORM_POLYGON, GAUSSIAN, POINT_LIST):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.total_mass <= 0.0:
            raise ValueError("total_mass must be positive")
        if self.kind == UNIFORM_POLYGON and self.polygon is None:
            raise ValueError("uniform-on-polygon requires a polygon")
        if self.kind == GAUSSIAN and (self.center is None or self.sigma <= 0.0 or self.radius <= 0.0):
            raise ValueError("gaussian-truncated requires center, sigma > 0 and radius > 0")
        if self.kind == POINT_LIST and self.points is None:
            raise ValueError("point-list requires points")


def make_sources(domain: ConvexDomain, locations, rates) -> SourceSet:
    """Validate and normalize a raw source list.

    Coincident locations are merged by summing their rates; every location
    must lie strictly inside the domain and every rate must be positive.
    """
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    if len(locations) == 0:
        raise ValueError("source set must not be empty")
    if locations.shape != (len(rates), 2):
        raise ValueError("locations must be (k, 2) with one rate each")
    if np.any(rates <= 0.0):
        raise ValueError("source rates must be positive")

    rep = _merge_representatives(locations)
    keep = rep == np.arange(len(rep))
    out_loc = locations[keep]
    merged_rate = rates.copy()
    # Each rate joins its representative's in index order, as a running sum.
    np.add.at(merged_rate, rep[~keep], rates[~keep])

    inside = domain.contains_many(out_loc) & (domain.distance_to_boundary(out_loc) > GEOM_TOL)
    if not inside.all():
        loc = out_loc[np.argmin(inside)]
        raise ValueError(f"source at {tuple(loc.tolist())} is not strictly inside the domain")
    return SourceSet(locations=out_loc, rates=merged_rate[keep])


def _merge_representatives(locations: np.ndarray) -> np.ndarray:
    """Index of the source each location merges into (itself if none).

    A location joins the first earlier representative within GEOM_TOL.
    Pairs that close fall in one run of the points sorted by x with gaps
    below the window, then in one run of that run sorted by y, so only
    pairs inside those runs are measured.
    """
    # A margin over GEOM_TOL, so rounding in the gaps cannot split a pair.
    window = 2.0 * GEOM_TOL
    rep = np.arange(len(locations))
    x, y = locations[:, 0], locations[:, 1]
    by_x = np.argsort(x, kind="stable")
    x_run = np.concatenate([[0], np.cumsum(~(np.diff(x[by_x]) <= window))])
    within = np.lexsort((y[by_x], x_run))
    order, run = by_x[within], x_run[within]
    cut = np.flatnonzero((np.diff(run) != 0) | ~(np.diff(y[order]) <= window)) + 1
    pairs = sorted(
        (j, i)
        for group in np.split(order, cut)
        if len(group) > 1
        for i in group
        for j in group
        if i < j
    )
    for j, i in pairs:
        if rep[j] == j and rep[i] == i and np.linalg.norm(locations[i] - locations[j]) <= GEOM_TOL:
            rep[j] = i
    return rep


def min_separation(s: SourceSet, domain: ConvexDomain) -> tuple[float, float]:
    """Smallest pairwise source distance and smallest distance to the wall.

    The pairwise minimum is +inf for a single source.  It is taken over
    blocks of rows, so no (k, k) array is formed.
    """
    if s.k == 0:
        raise ValueError("empty source set")
    loc = s.locations
    m1 = np.inf
    rows = max(1, _PAIR_BLOCK // s.k)
    for i0 in range(0, s.k - 1, rows):
        i1 = min(i0 + rows, s.k - 1)
        d = np.linalg.norm(loc[i0:i1, None, :] - loc[None, :, :], axis=2)
        upper = np.arange(s.k)[None, :] > np.arange(i0, i1)[:, None]
        m1 = min(m1, float(d[upper].min()))
    m2 = float(domain.distance_to_boundary(loc).min())
    return m1, m2


def discretize(f: DensitySpec, n: int, domain: ConvexDomain) -> SourceSet:
    """Approximate the measure by at most n point sources (centroidal binning)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_support_inside(f, domain)

    if f.kind == POINT_LIST:
        pts = np.atleast_2d(np.asarray(f.points, dtype=float))
        w = _point_weights(f, pts)
        if n >= len(pts):
            return make_sources(domain, pts, w)
        return make_sources(domain, *_bin_points(pts, w, n))

    q = int(np.ceil(np.sqrt(n)))
    if f.kind == UNIFORM_POLYGON:
        locs, masses = _bin_uniform_polygon(f, q)
    else:
        locs, masses = _bin_gaussian(f, q)
    return make_sources(domain, locs, masses)


def _point_weights(f: DensitySpec, pts: np.ndarray) -> np.ndarray:
    if f.weights is not None:
        w = np.asarray(f.weights, dtype=float)
    else:
        w = np.full(len(pts), f.total_mass / len(pts))
    if abs(w.sum() - f.total_mass) > 1e-9 * max(1.0, f.total_mass):
        raise ValueError("point weights must sum to total_mass")
    return w


def _check_support_inside(f: DensitySpec, domain: ConvexDomain) -> None:
    if f.kind == GAUSSIAN:
        c = np.asarray(f.center, dtype=float)[None, :]
        if not (domain.contains_many(c) & (domain.distance_to_boundary(c) > f.radius + GEOM_TOL))[0]:
            raise ValueError("gaussian support disc reaches the boundary")
        return
    probe = np.atleast_2d(np.asarray(f.polygon if f.kind == UNIFORM_POLYGON else f.points, dtype=float))
    inside = domain.contains_many(probe) & (domain.distance_to_boundary(probe) > GEOM_TOL)
    if not inside.all():
        loc = probe[np.argmin(inside)]
        raise ValueError(f"measure support at {tuple(loc.tolist())} is not strictly inside the domain")


def _bin_points(pts: np.ndarray, w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    q = int(np.ceil(np.sqrt(n)))
    lo = pts.min(axis=0)
    span = np.maximum(pts.max(axis=0) - lo, 1e-300)
    ix = np.minimum((q * (pts[:, 0] - lo[0]) / span[0]).astype(int), q - 1)
    iy = np.minimum((q * (pts[:, 1] - lo[1]) / span[1]).astype(int), q - 1)
    locs, masses = [], []
    for cell in range(q * q):
        sel = (iy * q + ix) == cell
        if not np.any(sel):
            continue
        m = w[sel].sum()
        locs.append((pts[sel] * w[sel, None]).sum(axis=0) / m)
        masses.append(m)
    return np.array(locs), np.array(masses)


def _bin_uniform_polygon(f: DensitySpec, q: int) -> tuple[np.ndarray, np.ndarray]:
    poly = np.asarray(f.polygon, dtype=float)
    total_area = _polygon_area(poly)
    if total_area <= 0.0:
        raise ValueError("uniform support polygon must have positive area")
    density = f.total_mass / total_area
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    dx, dy = (hi - lo) / q
    locs, masses = [], []
    for iy in range(q):
        for ix in range(q):
            cell = np.array(
                [
                    [lo[0] + ix * dx, lo[1] + iy * dy],
                    [lo[0] + (ix + 1) * dx, lo[1] + iy * dy],
                    [lo[0] + (ix + 1) * dx, lo[1] + (iy + 1) * dy],
                    [lo[0] + ix * dx, lo[1] + (iy + 1) * dy],
                ]
            )
            clipped = _clip_polygon(poly, cell)
            if len(clipped) < 3:
                continue
            area = _polygon_area(clipped)
            if area <= 1e-14 * total_area:
                continue
            locs.append(_polygon_centroid(clipped))
            masses.append(density * area)
    return np.array(locs), np.array(masses)


def _bin_gaussian(f: DensitySpec, q: int) -> tuple[np.ndarray, np.ndarray]:
    c = np.asarray(f.center, dtype=float)
    r = f.radius
    lo = c - r
    dx = dy = 2.0 * r / q
    locs, masses = [], []
    for iy in range(q):
        for ix in range(q):
            x0 = lo[0] + ix * dx
            y0 = lo[1] + iy * dy
            xs = x0 + (np.arange(_GAUSS_SUBGRID) + 0.5) * dx / _GAUSS_SUBGRID
            ys = y0 + (np.arange(_GAUSS_SUBGRID) + 0.5) * dy / _GAUSS_SUBGRID
            gx, gy = np.meshgrid(xs, ys)
            pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
            rho2 = ((pts - c) ** 2).sum(axis=1)
            w = np.where(rho2 <= r * r, np.exp(-0.5 * rho2 / f.sigma**2), 0.0)
            m = w.sum()
            if m <= 0.0:
                continue
            locs.append((pts * w[:, None]).sum(axis=0) / m)
            masses.append(m * (dx / _GAUSS_SUBGRID) * (dy / _GAUSS_SUBGRID))
    masses = np.array(masses)
    masses *= f.total_mass / masses.sum()
    return np.array(locs), masses


def _polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return float(0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def _polygon_centroid(poly: np.ndarray) -> np.ndarray:
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * cross.sum()
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return np.array([cx, cy])


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clipping of a convex subject by a convex window."""
    output = [tuple(p) for p in subject]
    cp1 = tuple(clip[-1])
    for cp2 in (tuple(p) for p in clip):
        if not output:
            break
        input_list = output
        output = []
        ex, ey = cp2[0] - cp1[0], cp2[1] - cp1[1]

        def inside(p):
            return ex * (p[1] - cp1[1]) - ey * (p[0] - cp1[0]) >= 0.0

        s = input_list[-1]
        for e in input_list:
            if inside(e):
                if not inside(s):
                    output.append(_intersect(cp1, cp2, s, e))
                output.append(e)
            elif inside(s):
                output.append(_intersect(cp1, cp2, s, e))
            s = e
        cp1 = cp2
    return np.array(output) if output else np.empty((0, 2))


def _intersect(cp1, cp2, s, e):
    dcx, dcy = cp1[0] - cp2[0], cp1[1] - cp2[1]
    dpx, dpy = s[0] - e[0], s[1] - e[1]
    n1 = cp1[0] * cp2[1] - cp1[1] * cp2[0]
    n2 = s[0] * e[1] - s[1] * e[0]
    n3 = 1.0 / (dcx * dpy - dcy * dpx)
    return ((n1 * dpx - n2 * dcx) * n3, (n1 * dpy - n2 * dcy) * n3)
