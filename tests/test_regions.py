import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silopile.geometry import ConvexDomain
from silopile.regions import NONE_LABEL, areas_with_floor, build_grid, distances, partition
from silopile.sources import make_sources


@pytest.fixture
def big_square():
    return ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [0.0] * 4)


class TestBuildGrid:
    def test_covers_bbox(self, big_square):
        g = build_grid(big_square, 1 / 64)
        assert (g.nx, g.ny) == (256, 256)
        assert g.inside_mask.all()

    def test_mask_excludes_outside(self):
        tri = ConvexDomain([(0, 0), (2, 0), (0, 2)], [0] * 3)
        g = build_grid(tri, 1 / 32)
        frac = g.inside_mask.mean()
        assert 0.45 < frac < 0.55

    def test_rejects_bad_spacing(self, big_square):
        with pytest.raises(ValueError):
            build_grid(big_square, 0.0)


class TestPartition:
    def test_single_disc_area(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        g = build_grid(big_square, 1 / 256)
        p = partition(g, s, [1.0])
        assert abs(p.areas[0] - np.pi) <= 4 * (1 / 256) * (2 * np.pi)

    def test_zero_radii_all_none(self, big_square):
        s = make_sources(big_square, [(2, 2), (1, 1)], [1.0, 1.0])
        g = build_grid(big_square, 1 / 64)
        p = partition(g, s, [0.0, 0.0])
        assert np.all(p.labels == NONE_LABEL)
        np.testing.assert_array_equal(p.areas, [0.0, 0.0])

    def test_symmetric_pair_equal_areas(self, big_square):
        s = make_sources(big_square, [(1, 2), (3, 2)], [1.0, 1.0])
        g = build_grid(big_square, 1 / 64)
        p = partition(g, s, [1.5, 1.5])
        assert p.areas[0] == p.areas[1]
        centers = g.cell_centers()
        left = p.labels == 0
        right = p.labels == 1
        assert centers[left][:, 0].max() < 2.0
        assert centers[right][:, 0].min() > 2.0
        # The run's precomputed matrix labels as a fresh partition does, also
        # for a pair mirrored about a cell column, whose exact ties go to 0.
        for shift in (0.0, 1 / 128):
            pair = make_sources(big_square, [(1 + shift, 2), (3 + shift, 2)], [1.0, 1.0])
            fresh = partition(g, pair, [1.5, 1.5])
            cached = partition(g, pair, [1.5, 1.5], distances(g.inside_centers(), pair.locations))
            np.testing.assert_array_equal(cached.labels, fresh.labels)
            np.testing.assert_array_equal(cached.areas, fresh.areas)
        tie_column = cached.labels[:, centers[0, :, 0] == 2 + 1 / 128]
        assert np.all(tie_column[tie_column != NONE_LABEL] == 0) and np.any(tie_column == 0)
        assert cached.areas[0] > cached.areas[1]

    def test_rejects_mismatched_distances(self, big_square):
        s = make_sources(big_square, [(1, 2), (3, 2)], [1.0, 1.0])
        g = build_grid(big_square, 1 / 16)
        dist = distances(g.inside_centers(), s.locations)
        for bad in (dist.T, dist[:-1], dist[:, :1]):
            with pytest.raises(ValueError):
                partition(g, s, [1.5, 1.5], bad)

    def test_source_cell_labeled_when_active(self, big_square):
        s = make_sources(big_square, [(1.3, 2.2), (2.8, 1.7)], [1.0, 1.0])
        g = build_grid(big_square, 1 / 64)
        p = partition(g, s, [0.4, 0.9])
        rows, cols = g.cell_index(s.locations)
        assert p.labels[rows[0], cols[0]] == 0
        assert p.labels[rows[1], cols[1]] == 1

    def test_labeled_cells_within_radius(self, big_square):
        s = make_sources(big_square, [(1.3, 2.2), (2.8, 1.7)], [1.0, 1.0])
        g = build_grid(big_square, 1 / 64)
        radii = [0.7, 1.1]
        p = partition(g, s, radii)
        centers = g.cell_centers()
        for j in range(2):
            sel = p.labels == j
            if np.any(sel):
                d = np.linalg.norm(centers[sel] - s.locations[j], axis=1)
                assert d.max() <= radii[j]

    def test_union_area_bound(self, big_square):
        s = make_sources(big_square, [(1, 1), (3, 3), (2, 2)], [1.0, 1.0, 1.0])
        g = build_grid(big_square, 1 / 64)
        p = partition(g, s, [2.0, 2.0, 2.0])
        assert p.areas.sum() <= big_square.area + big_square.perimeter * 4 * g.h

    @settings(max_examples=25, deadline=None)
    @given(
        r1=st.floats(0.1, 1.4),
        r2=st.floats(0.1, 1.4),
        bump=st.floats(0.01, 0.5),
    )
    def test_monotone_in_radius(self, r1, r2, bump):
        big = ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [0.0] * 4)
        s = make_sources(big, [(1.5, 2), (2.7, 2.3)], [1.0, 1.0])
        g = build_grid(big, 1 / 32)
        base = partition(g, s, [r1, r2]).areas
        grown = partition(g, s, [r1 + bump, r2]).areas
        assert grown[0] >= base[0]
        assert grown[1] <= base[1]


@settings(max_examples=50, deadline=None)
@given(
    corner=st.tuples(st.floats(-8.0, 2.0), st.floats(-8.0, 2.0)),
    side=st.floats(0.5, 4.0),
    h=st.sampled_from([1 / 8, 1 / 10, 1 / 16, 0.3]),
    locations=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), min_size=1, max_size=6),
    on_center=st.integers(0, 10_000),
)
def test_distances_equal_norm(corner, side, h, locations, on_center):
    x0, y0 = corner
    dom = ConvexDomain([(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)], [0.0] * 4)
    centers = build_grid(dom, h).inside_centers()
    # One source sits exactly on a cell center.
    locs = np.vstack([np.array(locations, dtype=float), centers[on_center % len(centers)]])
    ref = np.linalg.norm(centers[None] - locs[:, None], axis=2)
    assert np.array_equal(distances(centers, locs), ref.T)


class TestAreaFloor:
    def test_unresolved_region_aborts(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        g = build_grid(big_square, 1 / 4)
        with pytest.raises(RuntimeError):
            areas_with_floor(g, big_square, s, [1e-4], [True])

    def test_single_refinement_recovers(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        g = build_grid(big_square, 1 / 8)
        # radius resolvable at h/2 but not at h
        areas = areas_with_floor(g, big_square, s, [0.08], [True])
        assert areas[0] > 0.0

