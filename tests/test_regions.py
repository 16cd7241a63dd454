import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from silopile.cones import ConeState
from silopile.fields import height_field
from silopile.geometry import ConvexDomain
from silopile import regions
from silopile.regions import NONE_LABEL, SourceLists, areas_with_floor, build_grid, distances, partition
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
        # A grid's persistent lists label as a fresh grid's do, also
        # for a pair mirrored about a cell column, whose exact ties go to 0.
        for shift in (0.0, 1 / 128):
            pair = make_sources(big_square, [(1 + shift, 2), (3 + shift, 2)], [1.0, 1.0])
            partition(g, pair, [1.6, 1.4])
            fresh = partition(build_grid(big_square, 1 / 64), pair, [1.5, 1.5])
            cached = partition(g, pair, [1.5, 1.5])
            np.testing.assert_array_equal(cached.labels, fresh.labels)
            np.testing.assert_array_equal(cached.areas, fresh.areas)
        tie_column = cached.labels[:, centers[0, :, 0] == 2 + 1 / 128]
        assert np.all(tie_column[tie_column != NONE_LABEL] == 0) and np.any(tie_column == 0)
        assert cached.areas[0] > cached.areas[1]

    def test_source_cell_labeled_when_active(self, big_square):
        s = make_sources(big_square, [(1.3, 2.2), (2.8, 1.7)], [1.0, 1.0])
        g = build_grid(big_square, 1 / 64)
        p = partition(g, s, [0.4, 0.9])
        rows, cols = g.cell_of(s.locations[:, 0], s.locations[:, 1])
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



UNIT = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.0] * 4)


def assert_dense_bits(grid, sources, lists, radii):
    """Labels, areas, best values and heights through ``lists``, the grid's, equal the full matrix's bits."""
    assert grid.source_lists(sources.locations) is lists
    radii = np.asarray(radii, dtype=float)
    values = radii[None, :] - distances(lists.points, sources.locations)
    best, value = lists.best(radii)
    assert np.array_equal(best, np.argmax(values, axis=1))
    assert np.array_equal(value.view(np.uint64), values.max(axis=1).view(np.uint64))
    part = partition(grid, sources, radii)
    labels, areas = ref.dense_partition(grid, sources, radii)
    assert np.array_equal(part.labels, labels)
    assert np.array_equal(part.areas, areas)
    state = ConeState(0.0, radii, np.full(len(radii), 1e9))
    dense = ref.dense_heights(radii, sources, lists.points)
    u = height_field(state, sources, grid).values[grid.inside_mask]
    assert np.array_equal(u.view(np.uint64), dense.view(np.uint64))


def lattice_sources(n, h):
    """n x n sources on cell centres of the unit square's h-grid, spaced 1/n: dyadic, so ties are exact."""
    per = round(1 / (n * h))
    xs = (np.arange(n) * per + per // 2 + 0.5) * h
    gx, gy = np.meshgrid(xs, xs)
    return make_sources(UNIT, np.stack([gx.ravel(), gy.ravel()], axis=1), np.ones(n * n))


def jittered_sources(n, rng):
    """n x n sources, each moved at random within its cell of the unit square's n x n lattice."""
    lattice = (np.stack(np.meshgrid(np.arange(n), np.arange(n)), axis=-1).reshape(-1, 2) + 0.5) / n
    return make_sources(UNIT, lattice + rng.uniform(-0.4, 0.4, (n * n, 2)) / n, np.ones(n * n))


def mirror_pair_with_far_sources():
    """Sources 0 and 1 mirrored about a column of cell centres of the h = 1/64 grid on [0, 2]^2.

    Sixty-two far sources of radius zero keep the lists short.
    """
    dom = ConvexDomain([(0, 0), (2, 0), (2, 2), (0, 2)], [0.0] * 4)
    axis = 64.5 / 64  # a column of cell centres
    pts = [(axis - 10 / 64, 1.0 + 0.5 / 64), (axis + 10 / 64, 1.0 + 0.5 / 64)]
    pts += [(x, y) for y in (0.03, 1.97) for x in np.linspace(0.05, 1.95, 31)]
    s = make_sources(dom, pts, np.ones(len(pts)))
    g = build_grid(dom, 1 / 64)
    return g, s, g.source_lists(s.locations)


class TestSourceLists:
    """``SourceLists`` against the full (cells x sources) matrix it replaced, bit for bit."""

    @pytest.mark.parametrize(
        "vertices",
        [
            [(0, 0), (1, 0), (1, 1), (0, 1)],
            [(0, 0), (2, 0), (0, 1.3)],
            [(1, 0), (0.5, 0.87), (-0.5, 0.87), (-1, 0), (-0.5, -0.87), (0.5, -0.87)],
        ],
        ids=["square", "triangle", "hexagon"],
    )
    def test_tiles_number_as_np_unique(self, vertices):
        dom = ConvexDomain(vertices, [0.0] * len(vertices))
        g = build_grid(dom, 1 / 64)
        lists = g.source_lists(np.array([[0.1, 0.1], [0.3, 0.2]]))
        tile_of, centres, _ = lists._tile_geometry
        p = lists.points
        cells = np.rint((p - p.min(axis=0)) / lists.h).astype(np.int64) // regions.TILE
        _, inverse = np.unique(cells[:, 0] * (int(cells[:, 1].max()) + 1) + cells[:, 1], return_inverse=True)
        assert np.array_equal(tile_of, inverse.ravel())
        assert len(centres) == inverse.max() + 1

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # (sources per side, h): full lists for n <= 4, mostly short lists beyond.
        case=st.sampled_from([(1, 1 / 32), (2, 1 / 32), (4, 1 / 64), (8, 1 / 128), (16, 1 / 64), (16, 1 / 64)]),
        steps=st.integers(4, 12),
        frozen_share=st.floats(0.0, 0.5),
    )
    def test_growing_radii_with_backward_jumps(self, seed, case, steps, frozen_share):
        n, h = case
        rng = np.random.default_rng(seed)
        k = n * n
        s = jittered_sources(n, rng)
        g = build_grid(UNIT, h)
        lists = g.source_lists(s.locations)
        frozen = rng.random(k) < frozen_share
        radii = np.where(rng.random(k) < 0.2, 0.0, rng.uniform(0.0, 0.5 / n, k))
        history = [radii]
        for _ in range(steps):
            step = rng.uniform(0.0, 0.6 * h, k)
            if rng.random() < 0.2:
                step *= 5.0  # a jump beyond the drift bound
            radii = np.where(frozen, radii, radii + step)
            history.append(radii)
            assert_dense_bits(g, s, lists, radii)
        # Snapshots go back in time, by more than the drift bound.
        for earlier in rng.permutation(len(history)):
            assert_dense_bits(g, s, lists, history[earlier])
        assert 1 <= lists.rebuilds <= 2 * steps + 2
        assert lists.max_candidates <= k

    @settings(max_examples=10, deadline=None)
    @given(radius=st.floats(0.0, 0.3), growth=st.floats(0.0, 0.05), n=st.sampled_from([4, 8]))
    def test_lattice_ties_with_equal_radii(self, radius, growth, n):
        g = build_grid(UNIT, 1 / 64)
        s = lattice_sources(n, g.h)
        lists = g.source_lists(s.locations)
        for r in (radius, radius + growth, radius + 2 * growth, radius):
            assert_dense_bits(g, s, lists, np.full(s.k, r))
        if n == 8:
            assert lists.max_candidates < s.k  # short lists, not all sources

    def test_lattice_ties_split_lowest_index(self):
        g = build_grid(UNIT, 1 / 64)
        s = lattice_sources(8, g.h)
        lists = g.source_lists(s.locations)
        part = partition(g, s, np.full(s.k, 0.2))
        assert lists.max_candidates < s.k
        # Cells on the bisector column between the first two lattice columns tie exactly.
        column = g.cell_centers()[0, :, 0] == 0.5 * (s.locations[0, 0] + s.locations[1, 0])
        assert np.any(column)
        on_column = part.labels[:, column].ravel()
        assert np.all(on_column % 8 != 1)  # ties go to the lower source

    @settings(max_examples=10, deadline=None)
    @given(half=st.integers(1, 40), rows=st.integers(0, 20), r=st.floats(0.05, 0.6))
    def test_mirror_pairs_tie_to_lowest_index(self, half, rows, r):
        g = build_grid(UNIT, 1 / 64)
        axis = 32.5 / 64  # a column of cell centres
        y = (20 + rows + 0.5) / 64
        pts = [(axis - half / 128, y), (axis + half / 128, y)]
        pts += [(x, 0.9) for x in np.linspace(0.05, 0.95, 14)]
        s = make_sources(UNIT, pts, np.ones(len(pts)))
        lists = g.source_lists(s.locations)
        radii = np.r_[r, r, np.zeros(14)]
        assert_dense_bits(g, s, lists, radii)
        assert_dense_bits(g, s, lists, radii * 0.5)

    def test_tie_at_the_drift_bound(self):
        # Source 0 sits exactly 2 delta below source 1 at the rebuild; both
        # then move by exactly delta, towards each other, and tie on the
        # mirror column.  A margin of 2 delta loses source 0 to rounding
        # where b - d crosses a power of two; 3 delta keeps it.  That spread
        # of exactly 2 delta keeps the lists, also on top of a common rise
        # of 10 h; a spread just above 2 delta rebuilds them.
        far = np.zeros(62)
        for b in 1.0 + np.arange(0, 64, 4) / 64:
            g, s, lists = mirror_pair_with_far_sources()
            assert_dense_bits(g, s, lists, np.r_[b - 2 * g.h, b, far])
            assert_dense_bits(g, s, lists, np.r_[b - g.h, b - g.h, far])
            assert_dense_bits(g, s, lists, np.r_[b - g.h, b - g.h, far] + 10 * g.h)
            assert lists.max_candidates < s.k and lists.rebuilds == 1
            assert_dense_bits(g, s, lists, np.r_[b - g.h + 2**-30, b - g.h, far] + 10 * g.h)
            assert lists.rebuilds == 2

    def test_full_lists_for_few_sources_and_crowded_tiles(self):
        g = build_grid(UNIT, 1 / 32)
        one = make_sources(UNIT, [(0.3, 0.6)], [1.0])
        lists = g.source_lists(one.locations)
        for r in (0.0, 0.2, 0.1):
            assert_dense_bits(g, one, lists, [r])
        assert lists.delta == np.inf and lists.max_candidates == 1
        # Sixteen sources crowded into one tile: every tile keeps all of them.
        rng = np.random.default_rng(3)
        crowd = make_sources(UNIT, 0.5 + rng.uniform(-0.05, 0.05, (16, 2)), np.ones(16))
        lists = g.source_lists(crowd.locations)
        radii = rng.uniform(0.0, 0.3, 16)
        for scale in (1.0, 1.5, 0.2, 0.0):
            assert_dense_bits(g, crowd, lists, radii * scale)
        assert lists.delta == np.inf and lists.rebuilds == 1 and lists.max_candidates == 16

    def test_zero_radii_and_uncovered_cells(self):
        g = build_grid(UNIT, 1 / 64)
        s = lattice_sources(8, g.h)
        lists = g.source_lists(s.locations)
        assert_dense_bits(g, s, lists, np.zeros(s.k))
        radii = np.zeros(s.k)
        radii[::3] = 0.02  # most cells have best value <= 0
        assert_dense_bits(g, s, lists, radii)
        assert np.any(lists.best(radii)[1] <= 0.0)


def test_memory_stays_below_a_quarter_of_the_dense_matrix():
    # k = 1024 sources on the h = 1/128 unit square: the full matrix is
    # 16,384 cells x 1024 sources x 8 B = 128 MiB.
    g = build_grid(UNIT, 1 / 128)
    s = lattice_sources(32, 1 / 1024)
    rng = np.random.default_rng(1)
    radii = rng.uniform(0.0, 0.04, s.k)
    state = ConeState(0.0, radii, np.full(s.k, 1e9))
    dense_bytes = int(g.inside_mask.sum()) * s.k * 8
    tracemalloc.start()
    try:
        part = partition(g, s, radii)
        u = height_field(state, s, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4, f"peak {peak / 2**20:.1f} MiB"
    labels, areas = ref.dense_partition(g, s, radii)
    assert np.array_equal(part.labels, labels) and np.array_equal(part.areas, areas)
    assert np.array_equal(u.values[g.inside_mask], ref.dense_heights(radii, s, g.inside_centers()))


class TestListsFollowTheRadii:
    """The spread rule keeps the lists and the lead bound keeps the winners, bit for bit."""

    def test_uniform_rise_keeps_the_lists(self):
        g = build_grid(UNIT, 1 / 64)
        rng = np.random.default_rng(5)
        s = jittered_sources(16, rng)
        lists = g.source_lists(s.locations)
        radii = rng.uniform(0.01, 0.03, s.k)
        for rise in (0.0, 10 * g.h, 3 * g.h, 25 * g.h):
            assert_dense_bits(g, s, lists, radii + rise)
        assert lists.max_candidates < s.k and lists.rebuilds == 1
        # Only rounding can overturn a winner under a common rise.
        assert lists.reranked < 1.2 * len(lists.points)

    def test_repeated_call_reranks_nothing(self):
        # Lattice sources with equal radii: many cells tie exactly.
        g = build_grid(UNIT, 1 / 64)
        s = lattice_sources(8, g.h)
        lists = g.source_lists(s.locations)
        radii = np.full(s.k, 0.1)
        lists.best(radii)
        ranked = lists.reranked
        assert ranked == len(lists.points)
        assert_dense_bits(g, s, lists, radii)
        assert lists.reranked == ranked

    def test_returned_arrays_are_fresh(self):
        g = build_grid(UNIT, 1 / 64)
        rng = np.random.default_rng(6)
        s = jittered_sources(16, rng)
        lists = g.source_lists(s.locations)
        radii = rng.uniform(0.01, 0.03, s.k)
        for step in (0.0, 0.0, 0.5 * g.h):
            radii = radii + step
            best, value = lists.best(radii)
            best[:] = 0
            value[:] = -1.0
            assert_dense_bits(g, s, lists, radii)

    def test_falling_winner_and_rising_neighbour(self):
        # Equal radii, then source 0, the winner on its side of the mirror
        # column, falls by delta while source 1 rises by delta: a spread of
        # 2 delta, so no rebuild.  Every cell of source 0 whose lead was
        # below 2 delta changes hands, though no source rose by more than
        # delta.
        for b in 1.0 + np.arange(0, 64, 8) / 64:
            g, s, lists = mirror_pair_with_far_sources()
            far, delta = np.zeros(62), g.h
            assert_dense_bits(g, s, lists, np.r_[b, b, far])
            assert_dense_bits(g, s, lists, np.r_[b - delta, b + delta, far])
            assert lists.max_candidates < s.k and lists.rebuilds == 1


def lists_trace(grid, locations, radii_seq):
    """Every counter and array of fresh ``SourceLists`` on the grid, after each call of a radii sequence."""
    lists = SourceLists(grid.inside_centers(), locations, grid.h)
    trace = []
    for radii in radii_seq:
        best, value = lists.best(radii)
        trace.append((best, value.view(np.uint64), lists.index.copy(), lists.dist.view(np.uint64).copy(),
                      lists.rebuilds, lists.reranked, lists.max_candidates, lists.delta))
    return trace, lists


def assert_same_trace(got, want):
    for step_got, step_want in zip(got, want, strict=True):
        for a, b in zip(step_got, step_want, strict=True):
            assert np.array_equal(a, b)


class TestBlocks:
    """Every pass in blocks of regions.BLOCK entries gives the bits of one whole-array pass."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 7, 64]))
    def test_distances_and_membership_with_points_on_edges_and_vertices(self, seed, block):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        dom = ConvexDomain(np.stack([np.cos(angles), np.sin(angles)], axis=1) + rng.uniform(-1, 1, 2), [0.0] * n)
        edge = rng.integers(n, size=20)
        on_edges = dom.vertices[edge] + rng.random(20)[:, None] * dom.edges[edge]
        points = np.vstack([dom.vertices, on_edges, rng.uniform(-2.5, 2.5, (int(rng.integers(0, 40)), 2))])
        locations = np.vstack([dom.vertices, rng.uniform(-2.5, 2.5, (int(rng.integers(0, 9)), 2))])
        whole = distances(points, locations)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regions, "BLOCK", block)
            blocked = distances(points, locations)
            inside = dom.contains_many(points)
        assert np.array_equal(blocked.view(np.uint64), whole.view(np.uint64))
        assert np.array_equal(whole, np.linalg.norm(points[None] - locations[:, None], axis=2).T)
        assert np.array_equal(inside, ref.contains_whole(dom, points))
        assert inside[: n + 20].all()  # the vertices and the points on edges, within GEOM_TOL

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("case", ["full", "crowded", "short"])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_source_lists(self, case, block, seed):
        rng = np.random.default_rng(seed)
        g = build_grid(UNIT, 1 / 64 if case == "short" else 1 / 32)
        if case == "full":  # k < DENSE_SHARE
            locations = rng.uniform(0.05, 0.95, (5, 2))
            radii = rng.uniform(0.0, 0.4, 5)
        elif case == "crowded":
            # Source 0 rules the left of the square, where the first tiles keep it
            # alone; fifteen sources crowd one tile on the right, so a later tile
            # block gives way to full lists.
            crowd = np.array([0.85, 0.5]) + rng.uniform(-0.01, 0.01, (15, 2))
            locations = np.vstack([[0.1, 0.1], crowd])
            radii = np.r_[0.4, rng.uniform(0.2, 0.21, 15)]
        else:
            locations = jittered_sources(16, rng).locations
            radii = rng.uniform(0.0, 0.02, len(locations))
        # Growth within the drift bound, a jump beyond it, then back in time.
        seq = [radii, radii + rng.uniform(0.0, 0.5 * g.h, len(radii)), radii + rng.uniform(0.0, 8.0 * g.h, len(radii)),
               radii]
        want, lists = lists_trace(g, locations, seq)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regions, "BLOCK", block)
            got, _ = lists_trace(g, locations, seq)
        assert_same_trace(got, want)
        # The jittered sources keep short lists while the radii stay below 0.02;
        # after the 8h jump a tile may rightly keep more than k / DENSE_SHARE
        # sources, so only the first call's mode is fixed.
        first_delta = want[0][-1]
        assert (first_delta == np.inf) == (case != "short")
        if case == "crowded":
            first_tiles = lists._tile_geometry[1][: max(1, block // len(locations))]
            assert np.all(first_tiles[:, 0] < 0.2)  # far from the crowd, so decided in a later block

    def test_first_rebuild_holds_little_beside_the_lists(self):
        # k = 1024 lattice sources on the h = 1/128 unit square: a (tiles x
        # sources) pass alone would take 8 MiB per array, the kept lists 3.2 MiB.
        g = build_grid(UNIT, 1 / 128)
        s = lattice_sources(32, 1 / 1024)
        radii = np.random.default_rng(1).uniform(0.0, 0.04, s.k)
        lists = g.source_lists(s.locations)
        tracemalloc.start()
        try:
            lists.best(radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = lists.index.nbytes + lists.dist.nbytes
        assert lists.delta == g.h
        assert peak < 4 * kept, f"peak {peak / 2**20:.1f} MiB, lists {kept / 2**20:.1f} MiB"
