import numpy as np
import pytest

import reference_loops as ref
from silopile import sources
from silopile.geometry import ConvexDomain
from silopile.sources import (
    GAUSSIAN,
    POINT_LIST,
    UNIFORM_POLYGON,
    DensitySpec,
    discretize,
    _polygon_area,
    _polygon_centroid,
    make_sources,
    min_separation,
)


@pytest.fixture
def big_square():
    return ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [0.0] * 4)


class TestMakeSources:
    def test_rejects_boundary_location(self, big_square):
        with pytest.raises(ValueError):
            make_sources(big_square, [(0.0, 2.0)], [1.0])

    def test_rejects_exterior_location(self, big_square):
        with pytest.raises(ValueError):
            make_sources(big_square, [(5.0, 2.0)], [1.0])

    def test_rejects_nonpositive_rate(self, big_square):
        with pytest.raises(ValueError):
            make_sources(big_square, [(2.0, 2.0)], [0.0])

    def test_rejects_empty(self, big_square):
        with pytest.raises(ValueError):
            make_sources(big_square, np.empty((0, 2)), [])

    def test_merges_coincident(self, big_square):
        s = make_sources(big_square, [(2, 2), (2, 2), (1, 1)], [0.5, 0.25, 1.0])
        assert s.k == 2
        assert s.total_rate == pytest.approx(1.75)
        assert s.rates[0] == pytest.approx(0.75)


class TestMinSeparation:
    def test_single_source(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        m1, m2 = min_separation(s, big_square)
        assert m1 == np.inf
        assert m2 == pytest.approx(2.0)

    def test_two_sources(self, big_square):
        s = make_sources(big_square, [(1, 2), (3, 2)], [1.0, 1.0])
        m1, m2 = min_separation(s, big_square)
        assert m1 == pytest.approx(2.0)
        assert m2 == pytest.approx(1.0)

    def test_matches_brute_force(self, big_square):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.5, 3.5, size=(6, 2))
        s = make_sources(big_square, pts, np.ones(6))
        m1, m2 = min_separation(s, big_square)
        brute1 = min(
            np.linalg.norm(pts[i] - pts[j])
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        )
        brute2 = min(ref.distance_to_boundary(big_square, p) for p in pts)
        assert m1 == pytest.approx(brute1)
        assert m2 == pytest.approx(brute2)


class TestPolygonHelpers:
    """Area and centroid by slicing one closed ring, against the ``np.roll`` forms."""

    def test_same_bits_on_random_polygons(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            k = int(rng.integers(3, 12))
            # convex polygons, as the clipping leaves them, and arbitrary rings
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
            convex = rng.uniform(-3, 3, 2) + rng.uniform(0.01, 2.0) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            for poly in (convex, rng.normal(size=(k, 2)) * 10.0 ** rng.uniform(-6, 6)):
                assert _polygon_area(poly) == ref.polygon_area_roll(poly)
                assert np.array_equal(_polygon_centroid(poly), ref.polygon_centroid_roll(poly), equal_nan=True)

    def test_discretize_same_bits(self, big_square, monkeypatch):
        # a uniform feed's overlay cells, clipped at its support
        f = DensitySpec(kind=UNIFORM_POLYGON, total_mass=1.0, polygon=np.array([[1.0, 0.5], [3.5, 1.0], [2.0, 3.5]]))
        s = discretize(f, 64, big_square)
        monkeypatch.setattr(sources, "_polygon_area", ref.polygon_area_roll)
        monkeypatch.setattr(sources, "_polygon_centroid", ref.polygon_centroid_roll)
        rolled = discretize(f, 64, big_square)
        assert s.k > 16
        assert np.array_equal(s.locations, rolled.locations) and np.array_equal(s.rates, rolled.rates)


class TestDiscretize:
    def test_point_list_identity(self, big_square):
        f = DensitySpec(kind=POINT_LIST, total_mass=1.0, points=np.array([[2.0, 2.0]]))
        s = discretize(f, 1, big_square)
        assert s.k == 1
        np.testing.assert_allclose(s.locations, [[2.0, 2.0]])
        np.testing.assert_allclose(s.rates, [1.0])

    def test_point_list_identity_when_n_large(self, big_square):
        pts = np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 1.5]])
        f = DensitySpec(kind=POINT_LIST, total_mass=3.0, points=pts)
        for n in (3, 5, 9):
            s = discretize(f, n, big_square)
            np.testing.assert_allclose(s.locations, pts)

    def test_point_list_binned_below_its_count(self, big_square):
        # n = 4 < 9 points: a 2 x 2 overlay of the points' bounding box
        # [1, 3]^2, one source per occupied bin at its weighted centroid
        points = np.array([
            [1.0, 1.0, 1.0], [3.0, 3.0, 2.0], [2.5, 1.2, 1.0], [1.5, 1.5, 1.0], [1.0, 3.0, 2.0],
            [3.0, 1.0, 3.0], [1.2, 1.8, 2.0], [2.2, 2.4, 3.0], [1.4, 2.6, 2.0],
        ])
        f = DensitySpec(kind=POINT_LIST, total_mass=17.0, points=points[:, :2], weights=points[:, 2])
        s = discretize(f, 4, big_square)
        np.testing.assert_allclose(s.locations, [[1.225, 1.525], [2.875, 1.05], [1.2, 2.8], [2.52, 2.64]], rtol=1e-15)
        np.testing.assert_allclose(s.rates, [4.0, 4.0, 4.0, 5.0], rtol=1e-15)
        assert s.rates.sum() == 17.0

    def test_uniform_square_n4(self, big_square):
        f = DensitySpec(
            kind=UNIFORM_POLYGON,
            total_mass=1.0,
            polygon=np.array([[1, 1], [3, 1], [3, 3], [1, 3]], dtype=float),
        )
        s = discretize(f, 4, big_square)
        assert s.k == 4
        expected = {(1.5, 1.5), (2.5, 1.5), (1.5, 2.5), (2.5, 2.5)}
        got = {tuple(np.round(p, 12)) for p in s.locations}
        assert got == expected
        np.testing.assert_allclose(s.rates, 0.25)

    def test_mass_conserved_for_interior_support(self, big_square):
        f = DensitySpec(
            kind=UNIFORM_POLYGON,
            total_mass=2.5,
            polygon=np.array([[1, 1], [3, 1.2], [2.5, 3], [1.2, 2.4]], dtype=float),
        )
        for n in (1, 4, 16, 49):
            s = discretize(f, n, big_square)
            assert s.total_rate == pytest.approx(2.5, rel=1e-12)

    def test_locations_in_support_hull(self, big_square):
        poly = np.array([[1, 1], [3, 1.2], [2.5, 3], [1.2, 2.4]], dtype=float)
        hull = ConvexDomain(poly, [0.0] * 4)
        f = DensitySpec(kind=UNIFORM_POLYGON, total_mass=1.0, polygon=poly)
        s = discretize(f, 16, big_square)
        assert hull.contains_many(s.locations).all()

    def test_gaussian_mass_and_symmetry(self, big_square):
        f = DensitySpec(kind=GAUSSIAN, total_mass=1.0, center=np.array([2.0, 2.0]), sigma=0.3, radius=1.0)
        s = discretize(f, 16, big_square)
        assert s.total_rate == pytest.approx(1.0, rel=1e-12)
        centroid = (s.locations * s.rates[:, None]).sum(axis=0) / s.total_rate
        np.testing.assert_allclose(centroid, [2.0, 2.0], atol=1e-9)

    def test_rejects_support_touching_boundary(self, big_square):
        f = DensitySpec(
            kind=UNIFORM_POLYGON,
            total_mass=1.0,
            polygon=np.array([[0.0, 1.0], [3, 1], [3, 3], [1, 3]], dtype=float),
        )
        with pytest.raises(ValueError):
            discretize(f, 4, big_square)

    def test_gaussian_disc_must_stay_interior(self, big_square):
        f = DensitySpec(kind=GAUSSIAN, total_mass=1.0, center=np.array([1.0, 2.0]), sigma=0.3, radius=1.5)
        with pytest.raises(ValueError):
            discretize(f, 4, big_square)

    def test_deterministic(self, big_square):
        f = DensitySpec(
            kind=UNIFORM_POLYGON,
            total_mass=1.0,
            polygon=np.array([[1, 1], [3, 1], [3, 3], [1, 3]], dtype=float),
        )
        a = discretize(f, 16, big_square)
        b = discretize(f, 16, big_square)
        np.testing.assert_array_equal(a.locations, b.locations)
        np.testing.assert_array_equal(a.rates, b.rates)


def uniform_quadrature(n_side):
    """Midpoint quadrature of the uniform measure on [1,3]^2, unit mass."""
    xs = 1.0 + (np.arange(n_side) + 0.5) * 2.0 / n_side
    gx, gy = np.meshgrid(xs, xs)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return pts, np.full(len(pts), 1.0 / len(pts))


class TestWeakStarConvergence:
    def test_w1_shrinks_from_4_to_16(self, big_square):
        from silopile.verify import wasserstein

        f = DensitySpec(
            kind=UNIFORM_POLYGON,
            total_mass=1.0,
            polygon=np.array([[1, 1], [3, 1], [3, 3], [1, 3]], dtype=float),
        )
        qpts, qw = uniform_quadrature(100)  # 10^4-point quadrature oracle
        errs = {}
        for n in (4, 16):
            s = discretize(f, n, big_square)
            errs[n] = wasserstein(s.locations, s.rates, qpts, qw)
        assert errs[16] < errs[4]

    def test_w1_nonincreasing_along_refinement(self, big_square):
        from silopile.verify import wasserstein

        f = DensitySpec(
            kind=UNIFORM_POLYGON,
            total_mass=1.0,
            polygon=np.array([[1, 1], [3, 1], [3, 3], [1, 3]], dtype=float),
        )
        qpts, qw = uniform_quadrature(40)
        errs = []
        for n in (4, 16, 64, 256):
            s = discretize(f, n, big_square)
            errs.append(wasserstein(s.locations, s.rates, qpts, qw))
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
