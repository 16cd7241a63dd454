"""Convex polygonal silo domains with a piecewise-linear wall profile.

The silo floor is a convex polygon; the wall height is prescribed at each
vertex and interpolated linearly along every edge.  All boundary queries
(membership, distance to the wall, wall-taxed escape cost and its exit
point, node placement) live here; each takes a (k, 2) array of points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import GEOM_TOL, REFINE_TOL, TIE_TOL

_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BoundaryPoint:
    """Point on the polygon boundary, parameterized along one edge.

    ``edge_parameter`` runs from 0 at the edge's start vertex to 1 at its
    end vertex; points shared by two edges are canonicalized to parameter
    0 of the later edge.
    """

    edge_index: int
    edge_parameter: float
    position: np.ndarray

    @property
    def key(self) -> tuple[int, float]:
        return (self.edge_index, self.edge_parameter)


class ConvexDomain:
    """Convex polygon (counter-clockwise vertices) with wall heights.

    Collinear consecutive vertices are allowed; they are the supported way
    to encode wall profiles with several linear pieces along a straight
    side (e.g. steep ramps approximating a gate).
    """

    def __init__(self, vertices, wall_values):
        vertices = np.asarray(vertices, dtype=float)
        wall_values = np.asarray(wall_values, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if len(vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if wall_values.shape != (len(vertices),):
            raise ValueError("one wall value per vertex required")
        if np.any(wall_values < 0.0):
            raise ValueError("wall values must be non-negative")

        edges = np.roll(vertices, -1, axis=0) - vertices
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
        if np.any(cross < -GEOM_TOL):
            raise ValueError("vertices must describe a convex counter-clockwise polygon")
        lengths = np.linalg.norm(edges, axis=1)
        if np.any(lengths <= GEOM_TOL):
            raise ValueError("degenerate (zero-length) edge")

        self.vertices = vertices
        self.wall_values = wall_values
        self.edges = edges
        self.edge_lengths = lengths
        self.perimeter = float(lengths.sum())
        x, y = vertices[:, 0], vertices[:, 1]
        self.area = float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        self.diameter = float(
            np.max(np.linalg.norm(vertices[:, None, :] - vertices[None, :, :], axis=2))
        )
        self.bbox = (vertices.min(axis=0), vertices.max(axis=0))
        # Inward normals: rotate CCW edge direction by +90 degrees.
        self._normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1) / lengths[:, None]

    @property
    def n_edges(self) -> int:
        return len(self.vertices)

    def boundary_point(self, edge_index: int, s: float) -> BoundaryPoint:
        """Construct the boundary point at parameter ``s`` of one edge."""
        s = float(s)
        if not 0.0 <= s <= 1.0:
            raise ValueError("edge parameter outside [0, 1]")
        edge_index, s = self._canonical(int(edge_index), s)
        edge_index, s = int(edge_index), float(s)
        pos = self.vertices[edge_index] + s * self.edges[edge_index]
        return BoundaryPoint(edge_index, s, pos)

    def _canonical(self, edge_index, s):
        """Canonical (edge, parameter) of edge points, elementwise over arrays.

        A parameter >= 1 - GEOM_TOL wraps to parameter 0 of the next edge;
        a parameter <= GEOM_TOL snaps to 0.
        """
        wrap = s >= 1.0 - GEOM_TOL
        return (edge_index + wrap) % self.n_edges, np.where(wrap | (s <= GEOM_TOL), 0.0, s)

    def contains_many(self, points) -> np.ndarray:
        """Closed-polygon membership of an (m, 2) array: half-plane tests, tol GEOM_TOL."""
        points = np.asarray(points, dtype=float)
        rel = points[:, None, :] - self.vertices[None, :, :]
        side = (
            self.edges[None, :, 0] * rel[:, :, 1] - self.edges[None, :, 1] * rel[:, :, 0]
        ) / self.edge_lengths[None, :]
        return np.all(side >= -GEOM_TOL, axis=1)

    def distance_to_boundary(self, points) -> np.ndarray:
        """Distance from each row of a (k, 2) array to the boundary."""
        points = np.asarray(points, dtype=float)
        t = np.einsum("kij,ij->ki", points[:, None, :] - self.vertices, self.edges) / self.edge_lengths**2
        feet = self.vertices + np.clip(t, 0.0, 1.0)[..., None] * self.edges
        return np.linalg.norm(feet - points[:, None, :], axis=2).min(axis=1)

    def wall_height(self, b: BoundaryPoint) -> float:
        """Linear interpolation of the vertex wall values along the edge."""
        i = b.edge_index
        j = (i + 1) % self.n_edges
        return float((1.0 - b.edge_parameter) * self.wall_values[i] + b.edge_parameter * self.wall_values[j])

    def escape_cost(self, points) -> tuple[np.ndarray, list[BoundaryPoint]]:
        """Cheapest wall crossing from each row of a (k, 2) array of interior points.

        Minimizes wall height plus straight-line distance over the whole
        boundary.  Each edge's 1-D objective is convex (linear wall term
        plus a distance), so golden-section refinement converges to its
        minimum.  One kernel refines every (point, edge) pair in lockstep,
        each with its own bracket, until all brackets are REFINE_TOL wide.
        The cost is exact to rounding, but the objective is flat at its
        minimum, so comparisons of its values locate the minimizer's edge
        parameter only to about 1e-8 (the square root of the machine
        epsilon).  Returns the (k,) costs and one exit per row: among the
        edge minimizers within TIE_TOL of the cost, the one with the
        smallest canonical ``key``.
        """
        t, f = self._edge_minima(np.asarray(points, dtype=float))
        best = f.min(axis=1)
        edge, param = self._canonical(np.arange(self.n_edges), t)
        tied = f <= best[:, None] + TIE_TOL
        first_edge = np.where(tied, edge, self.n_edges).min(axis=1)
        first_param = np.where(tied & (edge == first_edge[:, None]), param, np.inf).min(axis=1)
        positions = self.vertices[first_edge] + first_param[:, None] * self.edges[first_edge]
        exits = [BoundaryPoint(int(i), float(s), pos) for i, s, pos in zip(first_edge, first_param, positions)]
        return best, exits

    def boundary_nodes(self, spacing: float) -> list[BoundaryPoint]:
        """Nodes at arc-length intervals <= spacing, vertices always included."""
        if spacing <= 0.0:
            raise ValueError("spacing must be positive")
        nodes = []
        for i in range(self.n_edges):
            n_sub = max(1, int(np.ceil(self.edge_lengths[i] / spacing - GEOM_TOL)))
            for k in range(n_sub):
                s = k / n_sub
                nodes.append(BoundaryPoint(i, s, self.vertices[i] + s * self.edges[i]))
        return nodes

    def _edge_minima(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Golden-section minimum of wall(s) + |edge(s) - y| per (point, edge).

        Returns (k, n) arrays of the minimizing edge parameter and the
        minimum.  Every bracket follows the scalar recurrence step for
        step; a bracket that is already narrow enough stays put.
        """
        a_val = self.wall_values
        b_val = np.roll(self.wall_values, -1)
        y = points[:, None, :]

        def f(s):
            p = self.vertices + s[..., None] * self.edges - y
            # sqrt(p . p) through BLAS ddot, the reduction np.linalg.norm of
            # one 2-vector uses; dx*dx + dy*dy can differ from it by an ulp.
            dist = np.sqrt((p[..., None, :] @ p[..., :, None])[..., 0, 0])
            return (1.0 - s) * a_val + s * b_val + dist

        shape = (len(points), self.n_edges)
        lo, hi = np.zeros(shape), np.ones(shape)
        c = hi - _INV_GOLDEN * (hi - lo)
        d = lo + _INV_GOLDEN * (hi - lo)
        fc, fd = f(c), f(d)
        live = hi - lo > REFINE_TOL
        while live.any():
            down = fc <= fd
            left, right = live & down, live & ~down
            # left: hi, d, fd = d, c, fc; right: lo, c, fc = c, d, fd
            hi, d, fd, lo, c, fc = (
                np.where(left, d, hi),
                np.where(left, c, d),
                np.where(left, fc, fd),
                np.where(right, c, lo),
                np.where(right, d, c),
                np.where(right, fd, fc),
            )
            x = np.where(left, hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo))
            fx = f(x)
            c, fc = np.where(left, x, c), np.where(left, fx, fc)
            d, fd = np.where(right, x, d), np.where(right, fx, fd)
            live = hi - lo > REFINE_TOL
        # The first of the tied candidates 0, mid, 1 wins, as with min().
        s_mid = 0.5 * (lo + hi)
        t, best = np.zeros(shape), f(np.zeros(shape))
        for s in (s_mid, np.ones(shape)):
            fs = f(s)
            take = fs < best
            t, best = np.where(take, s, t), np.where(take, fs, best)
        return t, best
