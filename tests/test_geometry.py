import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silopile.geometry import ConvexDomain

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def unit_square(g=0.2):
    return ConvexDomain(UNIT_SQUARE, [g] * 4)


def big_square(g=0.0):
    return ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [g] * 4)


def boundary_scan(domain, y, step=1e-4):
    """Dense brute-force scan of wall + distance along the whole boundary."""
    best = np.inf
    arg = None
    for i in range(domain.n_edges):
        n = int(np.ceil(domain.edge_lengths[i] / step))
        for s in np.linspace(0.0, 1.0, n + 1):
            pos = domain.vertices[i] + s * domain.edges[i]
            val = domain.wall_height(domain.boundary_point(i, s)) + np.linalg.norm(pos - y)
            if val < best:
                best, arg = val, pos
    return best, arg


def closed_form_escape(domain, y):
    """Escape cost from each edge's closed-form minimizer.

    At arc length tau along edge i the objective is a + k tau + |(tau - tau0, d)|,
    with wall slope k, tau0 the foot of y and d its distance to the edge's
    line.  For |k| < 1 it is stationary at tau0 - k d / sqrt(1 - k^2);
    otherwise it is monotone and its minimum sits at an endpoint.
    """
    best = np.inf
    for i in range(domain.n_edges):
        a = domain.wall_values[i]
        b = domain.wall_values[(i + 1) % domain.n_edges]
        v, e, length = domain.vertices[i], domain.edges[i], domain.edge_lengths[i]
        k = (b - a) / length
        rel = y - v
        tau0 = rel @ e / length
        d = abs(e[0] * rel[1] - e[1] * rel[0]) / length
        taus = [0.0, length]
        if abs(k) < 1.0:
            taus.append(min(max(tau0 - k * d / np.sqrt(1.0 - k * k), 0.0), length))
        best = min(best, *(a + k * tau + np.hypot(tau - tau0, d) for tau in taus))
    return best


class TestConstruction:
    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            ConvexDomain([(0, 0), (0, 1), (1, 1), (1, 0)], [0] * 4)

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError):
            ConvexDomain([(0, 0), (2, 0), (1, 0.5), (2, 2), (0, 2)], [0] * 5)

    def test_rejects_negative_wall(self):
        with pytest.raises(ValueError):
            ConvexDomain(UNIT_SQUARE, [0.1, -0.1, 0.1, 0.1])

    def test_allows_collinear_vertices(self):
        dom = ConvexDomain([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)], [0, 1, 0, 0, 0])
        assert dom.n_edges == 5
        assert dom.area == pytest.approx(1.0)

    def test_measures(self):
        dom = unit_square()
        assert dom.area == pytest.approx(1.0)
        assert dom.perimeter == pytest.approx(4.0)
        assert dom.diameter == pytest.approx(np.sqrt(2.0))


class TestContains:
    def test_interior(self):
        assert unit_square().contains((0.5, 0.5))

    def test_exterior(self):
        assert not unit_square().contains((1.5, 0.5))

    def test_boundary_closed(self):
        assert unit_square().contains((1.0, 0.5))

    def test_vectorized_matches_scalar(self):
        dom = unit_square()
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [1.0, 0.5], [-0.1, 0.2]])
        assert list(dom.contains_many(pts)) == [dom.contains(p) for p in pts]


class TestNearestBoundary:
    def test_distance(self):
        assert big_square().distance_to_boundary((2, 1)) == pytest.approx(1.0)


class TestEscapeCost:
    def test_constant_wall_center(self):
        value, mins = unit_square(0.2).escape_cost((0.5, 0.5))
        assert value == pytest.approx(0.7, abs=1e-9)
        assert len(mins) == 4

    def test_zero_wall_is_boundary_distance(self):
        value, mins = unit_square(0.0).escape_cost((0.5, 0.5))
        assert value == pytest.approx(0.5, abs=1e-9)
        assert len(mins) == 4

    def test_ramped_wall_against_boundary_scan(self):
        # Steep ramps emulate a low gate near the corner (0,0): the wall is
        # 0 at (0,0), rises to 1 at (0,1) along the left edge, and sits at
        # 10 elsewhere except the two ramp strips adjoining those corners.
        delta = 0.01
        verts = [(0, 0), (delta, 0), (1, 0), (1, 1), (delta, 1), (0, 1)]
        walls = [0.0, 10.0, 10.0, 10.0, 10.0, 1.0]
        dom = ConvexDomain(verts, walls)
        y = np.array([0.25, 0.5])
        value, mins = dom.escape_cost(y)
        scan_value, scan_arg = boundary_scan(dom, y)
        # The scan samples at 1e-4 arc-length; the ramp slope 10/delta bounds
        # the value gap per sample interval.
        assert value <= scan_value + 1e-12
        assert value == pytest.approx(scan_value, abs=0.5 * 1e-4 * (1 + 10 / delta))
        np.testing.assert_allclose(mins[0].position, scan_arg, atol=1e-3)
        # Frozen oracle value: minimum sits at the zero-wall corner (0,0).
        assert value == pytest.approx(np.sqrt(0.25**2 + 0.5**2), abs=1e-9)

    def test_minimizers_attain_value(self):
        dom = ConvexDomain([(0, 0), (3, 0), (4, 2), (1, 3)], [0.3, 0.0, 0.7, 0.2])
        rng = np.random.default_rng(7)
        for _ in range(25):
            y = rng.uniform(1.0, 2.0, size=2)
            if not dom.contains(y):
                continue
            value, mins = dom.escape_cost(y)
            for b in mins:
                attained = dom.wall_height(b) + np.linalg.norm(b.position - y)
                assert attained == pytest.approx(value, abs=1e-9)

    def test_minimality_over_random_boundary_points(self):
        dom = ConvexDomain([(0, 0), (3, 0), (4, 2), (1, 3)], [0.3, 0.0, 0.7, 0.2])
        y = np.array([2.0, 1.5])
        value, _ = dom.escape_cost(y)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            i = int(rng.integers(dom.n_edges))
            s = float(rng.random())
            pos = dom.vertices[i] + s * dom.edges[i]
            assert value <= dom.wall_height(dom.boundary_point(i, s)) + np.linalg.norm(pos - y) + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        quad=st.sampled_from([UNIT_SQUARE, [(0, 0), (3, 0), (4, 2), (1, 3)]]),
        walls=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
        weights=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    )
    def test_matches_closed_form(self, quad, walls, weights):
        dom = ConvexDomain(quad, walls)
        w = np.array(weights)
        y = w @ dom.vertices / w.sum()  # positive weights: strictly inside
        value, _ = dom.escape_cost(y)
        assert abs(value - closed_form_escape(dom, y)) <= 1e-14

    def test_zero_wall_matches_nearest_boundary(self):
        dom = ConvexDomain([(0, 0), (3, 0), (4, 2), (1, 3)], [0.0] * 4)
        rng = np.random.default_rng(3)
        for _ in range(50):
            y = rng.uniform(0.5, 2.5, size=2)
            if not dom.contains(y):
                continue
            value, _ = dom.escape_cost(y)
            assert value == pytest.approx(dom.distance_to_boundary(y), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        x1=st.floats(0.05, 0.95),
        y1=st.floats(0.05, 0.95),
        x2=st.floats(0.05, 0.95),
        y2=st.floats(0.05, 0.95),
    )
    def test_one_lipschitz(self, x1, y1, x2, y2):
        dom = unit_square(0.3)
        v1, _ = dom.escape_cost((x1, y1))
        v2, _ = dom.escape_cost((x2, y2))
        assert abs(v1 - v2) <= np.hypot(x1 - x2, y1 - y2) + 1e-9


class TestWallHeight:
    def test_constant(self):
        dom = unit_square(0.2)
        assert dom.wall_height(dom.boundary_point(1, 0.37)) == pytest.approx(0.2)

    def test_linear_interpolation(self):
        dom = ConvexDomain(UNIT_SQUARE, [0.0, 1.0, 0.0, 0.0])
        assert dom.wall_height(dom.boundary_point(0, 0.25)) == pytest.approx(0.25)

    def test_vertex_continuity(self):
        dom = ConvexDomain(UNIT_SQUARE, [0.4, 0.8, 0.1, 0.6])
        end_of_0 = dom.boundary_point(0, 1.0)
        start_of_1 = dom.boundary_point(1, 0.0)
        assert end_of_0.key == start_of_1.key
        assert dom.wall_height(end_of_0) == pytest.approx(0.8)


class TestBoundaryNodes:
    def test_unit_square_half_spacing(self):
        nodes = unit_square().boundary_nodes(0.5)
        assert len(nodes) == 8

    def test_unit_square_unit_spacing(self):
        nodes = unit_square().boundary_nodes(1.0)
        assert len(nodes) == 4
        np.testing.assert_allclose([n.edge_parameter for n in nodes], 0.0)

    def test_345_triangle(self):
        dom = ConvexDomain([(0, 0), (3, 0), (0, 4)], [0, 0, 0])
        assert len(dom.boundary_nodes(1.0)) == 12

    def test_spacing_respected(self):
        dom = ConvexDomain([(0, 0), (3, 0), (4, 2), (1, 3)], [0] * 4)
        nodes = dom.boundary_nodes(0.3)
        pos = np.array([n.position for n in nodes])
        gaps = np.linalg.norm(np.roll(pos, -1, axis=0) - pos, axis=1)
        assert gaps.max() <= 0.3 + 1e-12

    def test_deterministic(self):
        a = unit_square().boundary_nodes(0.17)
        b = unit_square().boundary_nodes(0.17)
        assert [n.key for n in a] == [n.key for n in b]
