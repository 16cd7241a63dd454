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
            val = domain.wall_height(domain.boundary_points([i], [s]))[0] + np.linalg.norm(pos - y)
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
        assert unit_square().contains_many([(0.5, 0.5)])[0]

    def test_exterior(self):
        assert not unit_square().contains_many([(1.5, 0.5)])[0]

    def test_boundary_closed(self):
        assert unit_square().contains_many([(1.0, 0.5)])[0]


class TestNearestBoundary:
    def test_distance(self):
        assert big_square().distance_to_boundary([(2, 1)])[0] == pytest.approx(1.0)


def assert_four_way_tie(dom, value):
    """The unit square's centre exits at edge 0's midpoint; all four midpoints attain the cost."""
    y = np.array([0.5, 0.5])
    exits = dom.escape_cost(y[None, :])[1]
    assert exits.edge.tolist() == [0]
    assert exits.param[0] == pytest.approx(0.5, abs=1e-7)
    mids = dom.boundary_points(range(4), [0.5] * 4)
    attained = dom.wall_height(mids) + np.linalg.norm(mids.position - y, axis=1)
    np.testing.assert_allclose(attained, value, rtol=0.0, atol=1e-12)


class TestEscapeCost:
    def test_constant_wall_center(self):
        value = unit_square(0.2).escape_cost([(0.5, 0.5)])[0][0]
        assert value == pytest.approx(0.7, abs=1e-9)
        assert_four_way_tie(unit_square(0.2), value)

    def test_zero_wall_is_boundary_distance(self):
        value = unit_square(0.0).escape_cost([(0.5, 0.5)])[0][0]
        assert value == pytest.approx(0.5, abs=1e-9)
        assert_four_way_tie(unit_square(0.0), value)

    def test_ramped_wall_against_boundary_scan(self):
        # Steep ramps emulate a low gate near the corner (0,0): the wall is
        # 0 at (0,0), rises to 1 at (0,1) along the left edge, and sits at
        # 10 elsewhere except the two ramp strips adjoining those corners.
        delta = 0.01
        verts = [(0, 0), (delta, 0), (1, 0), (1, 1), (delta, 1), (0, 1)]
        walls = [0.0, 10.0, 10.0, 10.0, 10.0, 1.0]
        dom = ConvexDomain(verts, walls)
        y = np.array([0.25, 0.5])
        (value,), exits = dom.escape_cost(y[None, :])
        scan_value, scan_arg = boundary_scan(dom, y)
        # The scan samples at 1e-4 arc-length; the ramp slope 10/delta bounds
        # the value gap per sample interval.
        assert value <= scan_value + 1e-12
        assert value == pytest.approx(scan_value, abs=0.5 * 1e-4 * (1 + 10 / delta))
        np.testing.assert_allclose(exits.position[0], scan_arg, atol=1e-3)
        # Frozen oracle value: minimum sits at the zero-wall corner (0,0).
        assert value == pytest.approx(np.sqrt(0.25**2 + 0.5**2), abs=1e-9)

    def test_minimizers_attain_value(self):
        dom = ConvexDomain([(0, 0), (3, 0), (4, 2), (1, 3)], [0.3, 0.0, 0.7, 0.2])
        pts = np.random.default_rng(7).uniform(1.0, 2.0, size=(25, 2))
        pts = pts[dom.contains_many(pts)]
        values, exits = dom.escape_cost(pts)
        attained = dom.wall_height(exits) + np.linalg.norm(exits.position - pts, axis=1)
        np.testing.assert_allclose(attained, values, rtol=0.0, atol=1e-9)

    def test_minimality_over_random_boundary_points(self):
        dom = ConvexDomain([(0, 0), (3, 0), (4, 2), (1, 3)], [0.3, 0.0, 0.7, 0.2])
        y = np.array([2.0, 1.5])
        value = dom.escape_cost(y[None, :])[0][0]
        rng = np.random.default_rng(11)
        b = dom.boundary_points(rng.integers(dom.n_edges, size=1000), rng.random(1000))
        assert np.all(value <= dom.wall_height(b) + np.linalg.norm(b.position - y, axis=1) + 1e-9)

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
        value = dom.escape_cost(y[None, :])[0][0]
        assert abs(value - closed_form_escape(dom, y)) <= 1e-14

    def test_zero_wall_matches_nearest_boundary(self):
        dom = ConvexDomain([(0, 0), (3, 0), (4, 2), (1, 3)], [0.0] * 4)
        pts = np.random.default_rng(3).uniform(0.5, 2.5, size=(50, 2))
        pts = pts[dom.contains_many(pts)]
        np.testing.assert_allclose(dom.escape_cost(pts)[0], dom.distance_to_boundary(pts), rtol=0.0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        x1=st.floats(0.05, 0.95),
        y1=st.floats(0.05, 0.95),
        x2=st.floats(0.05, 0.95),
        y2=st.floats(0.05, 0.95),
    )
    def test_one_lipschitz(self, x1, y1, x2, y2):
        v1, v2 = unit_square(0.3).escape_cost([(x1, y1), (x2, y2)])[0]
        assert abs(v1 - v2) <= np.hypot(x1 - x2, y1 - y2) + 1e-9


class TestWallHeight:
    def test_constant(self):
        dom = unit_square(0.2)
        assert dom.wall_height(dom.boundary_points([1], [0.37]))[0] == pytest.approx(0.2)

    def test_linear_interpolation(self):
        dom = ConvexDomain(UNIT_SQUARE, [0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(dom.wall_height(dom.boundary_points([0, 1, 3], [0.25, 0.5, 1.0])), [0.25, 0.5, 0.0])

    def test_vertex_continuity(self):
        dom = ConvexDomain(UNIT_SQUARE, [0.4, 0.8, 0.1, 0.6])
        ends = dom.boundary_points([0, 1, 3], [1.0, 0.0, 1.0])
        assert ends.edge.tolist() == [1, 1, 0] and ends.param.tolist() == [0.0, 0.0, 0.0]
        np.testing.assert_array_equal(ends.position, [(1, 0), (1, 0), (0, 0)])
        np.testing.assert_allclose(dom.wall_height(ends), [0.8, 0.8, 0.4])


class TestBoundaryPoints:
    @pytest.mark.parametrize("edge, s", [(0, -0.1), (0, 1.1), (0, np.nan), (-1, 0.5), (4, 0.5)])
    def test_rejects_parameter_or_edge_outside_range(self, edge, s):
        with pytest.raises(ValueError, match="outside"):
            unit_square().boundary_points([1, edge], [0.5, s])


class TestBoundaryNodes:
    def test_unit_square_half_spacing(self):
        nodes = unit_square().boundary_nodes(0.5)
        assert nodes.edge.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert nodes.param.tolist() == [0.0, 0.5] * 4

    def test_unit_square_unit_spacing(self):
        nodes = unit_square().boundary_nodes(1.0)
        assert len(nodes.edge) == 4
        np.testing.assert_array_equal(nodes.param, 0.0)
        np.testing.assert_array_equal(nodes.position, UNIT_SQUARE)

    def test_345_triangle(self):
        dom = ConvexDomain([(0, 0), (3, 0), (0, 4)], [0, 0, 0])
        assert np.bincount(dom.boundary_nodes(1.0).edge).tolist() == [3, 5, 4]

    def test_spacing_respected(self):
        dom = ConvexDomain([(0, 0), (3, 0), (4, 2), (1, 3)], [0] * 4)
        nodes = dom.boundary_nodes(0.3)
        pos = nodes.position
        gaps = np.linalg.norm(np.roll(pos, -1, axis=0) - pos, axis=1)
        assert gaps.max() <= 0.3 + 1e-12

    def test_deterministic(self):
        a = unit_square().boundary_nodes(0.17)
        b = unit_square().boundary_nodes(0.17)
        assert np.array_equal(a.edge, b.edge) and np.array_equal(a.param, b.param)
