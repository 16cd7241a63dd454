"""Bit-exact oracles for the array passes of escape cost, merging, deposits and CSV.

Each pass must reproduce, bit for bit, the per-item loop it replaced
(``reference_loops``): the loops fixed the shipped outputs, and
``test_golden`` pins those by hash.
"""

import itertools

import numpy as np
import pytest

import reference_loops as ref
from silopile import fields
from silopile.cones import ConeState
from silopile.fields import GridField, field_to_csv, rolling_measure
from silopile.geometry import ConvexDomain
from silopile.regions import build_grid, partition
from silopile.sources import make_sources, min_separation
from silopile.tolerances import GEOM_TOL

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def random_domain(rng):
    """Convex polygon with some collinear vertices and some zero walls."""
    n = int(rng.integers(3, 8))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    if np.min(np.diff(np.append(angles, angles[0] + 2.0 * np.pi))) < 0.2:
        angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False) + rng.uniform(0.0, 1.0)
    vertices = np.stack([np.cos(angles), np.sin(angles)], axis=1) * rng.uniform(0.5, 2.0, 2) + rng.uniform(-1, 1, 2)
    # Split some edges at an interior point: collinear vertices.
    out = []
    for i, v in enumerate(vertices):
        out.append(v)
        if rng.random() < 0.4:
            out.append(v + rng.uniform(0.2, 0.8) * (vertices[(i + 1) % n] - v))
    walls = rng.uniform(0.0, 0.6, len(out))
    walls[rng.random(len(out)) < 0.4] = 0.0
    return ConvexDomain(np.array(out), walls)


def interior_points(domain, rng, m):
    w = rng.dirichlet(np.ones(domain.n_edges), size=m)
    return w @ domain.vertices


def symmetric_cases():
    """Sources on symmetry lines, where edges and golden-section steps tie."""
    square = ConvexDomain(UNIT_SQUARE, [0.2] * 4)
    flat = ConvexDomain(UNIT_SQUARE, [0.0] * 4)
    hexagon = ConvexDomain(
        [(np.cos(a), np.sin(a)) for a in np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)], [0.1] * 6
    )
    gate = ConvexDomain([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)], [0.0, 0.3, 0.0, 0.1, 0.1])
    line = np.linspace(0.05, 0.95, 19)
    square_pts = np.concatenate(
        [np.stack([line, line], 1), np.stack([line, 1.0 - line], 1), np.stack([line, 0.5 + 0 * line], 1),
         np.stack([0.5 + 0 * line, line], 1)]
    )
    hex_pts = np.array([[r * np.cos(a), r * np.sin(a)] for r in (0.0, 0.3, 0.6) for a in np.linspace(0, np.pi, 7)])
    return [(square, square_pts), (flat, square_pts), (hexagon, hex_pts), (gate, np.stack([0.5 + 0 * line, line], 1))]


class TestEscapeCost:
    def test_kernel_matches_per_edge_loop_on_random_polygons(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dom = random_domain(rng)
            pts = interior_points(dom, rng, 12)
            t, f = dom._edge_minima(pts)
            t_ref, f_ref = ref.edge_minima(dom, pts)
            assert np.array_equal(t, t_ref)
            assert np.array_equal(f, f_ref)

    @pytest.mark.parametrize("case", range(4))
    def test_kernel_matches_per_edge_loop_on_symmetry_lines(self, case):
        dom, pts = symmetric_cases()[case]
        t, f = dom._edge_minima(pts)
        t_ref, f_ref = ref.edge_minima(dom, pts)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(f, f_ref)

    @staticmethod
    def assert_first_exits(dom, pts):
        costs, exits = dom.escape_cost(pts)
        assert np.array_equal(costs, dom._edge_minima(pts)[1].min(axis=1))
        assert len(exits) == len(pts)
        for y, b in zip(pts, exits):
            expected = ref.first_exit(dom, y)
            assert type(b.edge_index) is int and type(b.edge_parameter) is float
            assert b.key == expected.key
            assert np.array_equal(b.position, expected.position)

    def test_exits_match_tie_collection_on_random_polygons(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            dom = random_domain(rng)
            self.assert_first_exits(dom, interior_points(dom, rng, 10))

    @pytest.mark.parametrize("case", range(4))
    def test_exits_match_tie_collection_on_symmetry_lines(self, case):
        self.assert_first_exits(*symmetric_cases()[case])

    @pytest.mark.parametrize("walls", [[0.2] * 4, [0.0] * 4, [0.0, 0.3, 0.0, 0.3], [0.1, 0.1, 0.4, 0.4]])
    def test_exits_match_tie_collection_on_lattice(self, walls):
        # Lattice points on the square's diagonals and midlines tie 2 or 4 ways.
        line = np.linspace(0.05, 0.95, 19)
        pts = np.stack(np.meshgrid(line, line), axis=-1).reshape(-1, 2)
        self.assert_first_exits(ConvexDomain(UNIT_SQUARE, walls), pts)

    def test_exits_match_tie_collection_at_vertices(self):
        # A zero wall at one vertex and steep walls elsewhere put every
        # minimizer at that vertex: the end of one edge and the start of the
        # next tie there, and the end wraps.  Collinear vertices included.
        rng = np.random.default_rng(17)
        for _ in range(30):
            dom = random_domain(rng)
            walls = np.full(dom.n_edges, 50.0)
            walls[rng.integers(dom.n_edges)] = 0.0
            dom = ConvexDomain(dom.vertices, walls)
            self.assert_first_exits(dom, interior_points(dom, rng, 6))


class TestMakeSources:
    @staticmethod
    def assert_same(domain, locations, rates):
        s = make_sources(domain, locations, rates)
        loc_ref, rate_ref = ref.merge_sources(locations, rates)
        assert np.array_equal(s.locations, loc_ref)
        assert np.array_equal(s.rates, rate_ref)
        return s

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_chain_merges(self, order):
        # a ~ b and b ~ c, but a and c lie further apart than GEOM_TOL.
        dom = ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [0.0] * 4)
        chain = np.array([[2.0, 2.0], [2.0 + 0.8 * GEOM_TOL, 2.0], [2.0 + 1.6 * GEOM_TOL, 2.0]])
        rates = np.array([0.5, 0.25, 0.125])
        s = self.assert_same(dom, chain[list(order)], rates[list(order)])
        assert s.k == (1 if order[0] == 1 else 2)  # b first takes both a and c

    def test_diagonal_chain(self):
        dom = ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [0.0] * 4)
        step = 0.6 * GEOM_TOL
        pts = np.array([[1.0 + i * step, 3.0 - i * step] for i in range(6)] + [[1.0, 3.0]])
        self.assert_same(dom, pts, np.arange(1.0, 8.0))

    def test_random_near_duplicates(self):
        rng = np.random.default_rng(13)
        dom = ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [0.0] * 4)
        for _ in range(30):
            # A coarse lattice shares x and y values; copies jitter below and above GEOM_TOL.
            base = rng.integers(1, 8, size=(40, 2)) * 0.5
            jitter = rng.uniform(-1.2, 1.2, size=(40, 2)) * GEOM_TOL * (rng.random((40, 1)) < 0.5)
            pts = base + jitter
            self.assert_same(dom, pts, rng.uniform(0.1, 1.0, 40))

    def test_shared_x_without_merges(self):
        dom = ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [0.0] * 4)
        ys = np.linspace(0.5, 3.5, 200)
        s = self.assert_same(dom, np.stack([np.full(200, 2.0), ys], 1), np.ones(200))
        assert s.k == 200

    def test_first_outside_source_is_named(self):
        dom = ConvexDomain(UNIT_SQUARE, [0.0] * 4)
        with pytest.raises(ValueError, match=r"source at \(.*1\.5.*0\.5.*\) is not strictly inside"):
            make_sources(dom, [(0.5, 0.5), (1.5, 0.5), (0.0, 0.3)], [1.0, 1.0, 1.0])

    def test_min_separation_matches_full_array(self):
        rng = np.random.default_rng(14)
        dom = random_domain(rng)
        for k in (2, 3, 17, 300):
            s = make_sources(dom, interior_points(dom, rng, k), np.ones(k))
            m1, m2 = min_separation(s, dom)
            assert m1 == ref.min_pairwise(s.locations)
            assert m2 == min(ref.distance_to_boundary(dom, y) for y in s.locations)

    def test_distance_to_boundary_matches_per_point_projection(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            dom = random_domain(rng)
            pts = interior_points(dom, rng, 20)
            expected = [ref.distance_to_boundary(dom, y) for y in pts]
            assert list(dom.distance_to_boundary(pts)) == expected


def mixed_state(domain, sources, radii, grid):
    """Cone state with the given radii, capped and frozen at the escape costs."""
    thresholds, atoms = domain.escape_cost(sources.locations)
    radii = np.minimum(np.asarray(radii, dtype=float), thresholds)
    state = ConeState(0.3, radii, radii >= thresholds - 1e-12, thresholds)
    return state, partition(grid, sources, radii), atoms


class TestRollingMeasure:
    @pytest.mark.parametrize("block", [1, 7, fields.DEPOSIT_BLOCK])
    def test_matches_per_source_loop(self, monkeypatch, block):
        monkeypatch.setattr(fields, "DEPOSIT_BLOCK", block)
        dom = ConvexDomain(UNIT_SQUARE, [0.12, 0.3, 0.2, 0.25])
        s = make_sources(
            dom,
            [(0.3, 0.35), (0.7, 0.6), (0.45, 0.8), (0.32, 0.37), (0.8, 0.2)],
            [0.6, 0.8, 0.4, 0.1, 0.3],
        )
        grid = build_grid(dom, 1 / 32)
        # Source 0 frozen at its wall, source 3 buried under source 0's cone
        # (zero area), source 4 not yet fed (radius 0, zero area).
        for radii in ([9.0, 0.2, 0.15, 0.01, 0.0], [0.1, 0.25, 9.0, 0.02, 0.0], [9.0] * 5, [0.0] * 5):
            state, part, atoms = mixed_state(dom, s, radii, grid)
            if radii[0] == 9.0 and radii[3] == 0.01:
                assert state.frozen[0] and not state.frozen[3:].any() and not part.areas[3:].any()
            mu = rolling_measure(state, s, part, atoms)
            mass, _ = ref.deposit_loop(state, s, part, atoms, grid)
            assert np.array_equal(mu.density, mass / grid.cell_area)

    def test_matches_per_source_loop_on_many_sources(self):
        rng = np.random.default_rng(16)
        dom = ConvexDomain(UNIT_SQUARE, [0.0, 0.02, 0.01, 0.03])
        s = make_sources(dom, rng.uniform(0.05, 0.95, (64, 2)), rng.uniform(0.01, 0.05, 64))
        grid = build_grid(dom, 1 / 64)
        state, part, atoms = mixed_state(dom, s, rng.uniform(0.0, 0.12, 64), grid)
        assert state.frozen.any() and (~state.frozen & (part.areas == 0.0)).any()
        mu = rolling_measure(state, s, part, atoms)
        mass, _ = ref.deposit_loop(state, s, part, atoms, grid)
        assert np.array_equal(mu.density, mass / grid.cell_area)


class TestFieldToCsv:
    def test_matches_f_string_rows(self):
        grid = build_grid(ConvexDomain([(-1, -0.5), (1, -0.5), (0.2, 1.3)], [0.0] * 3), 1 / 16)
        rng = np.random.default_rng(17)
        values = rng.normal(size=(grid.ny, grid.nx)) * 10.0 ** rng.integers(-300, 300, (grid.ny, grid.nx))
        special = [-0.0, 5e-324, 1e300, -1e-300, 0.1, 1 / 3, np.inf, np.nan, 0.0]
        inside = np.flatnonzero(grid.inside_mask)
        values.flat[inside[: len(special)]] = special
        field = GridField(grid=grid, values=values)
        assert field_to_csv(field) == ref.field_to_csv_rows(field)
        assert ",-0\n" in field_to_csv(field) and ",4.9406564584124654e-324\n" in field_to_csv(field)
