"""Bit-exact oracles for the array passes of escape cost, merging, deposits and CSV.

Each pass must reproduce, bit for bit, the per-item loop it replaced
(``reference_loops``): the loops fixed the shipped outputs, and
``test_golden`` pins those by hash.
"""

import itertools

import numpy as np
import pytest

import reference_loops as ref
from silopile import fields, regions
from silopile.cones import ConeState
from silopile.fields import GridField, field_to_csv, rolling_measure, spill_measure
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
        edges, params, positions = zip(*(ref.first_exit(dom, y) for y in pts))
        assert exits.edge.dtype == np.int64 and exits.param.dtype == np.float64
        assert np.array_equal(exits.edge, edges)
        assert np.array_equal(exits.param, params)
        assert np.array_equal(exits.position, np.array(positions))

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

    @pytest.mark.parametrize("block", [1, 7, regions.BLOCK])
    def test_min_separation_matches_full_array(self, monkeypatch, block):
        monkeypatch.setattr(regions, "BLOCK", block)
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


class TestBoundaryArrays:
    def test_nodes_match_per_node_loop(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            dom = random_domain(rng)
            for spacing in (rng.uniform(0.01, 0.3), rng.uniform(0.5, 5.0), float(dom.edge_lengths.min())):
                nodes = dom.boundary_nodes(spacing)
                edges, params, positions = ref.boundary_nodes(dom, spacing)
                assert nodes.edge.dtype == np.int64
                assert np.array_equal(nodes.edge, edges)
                assert np.array_equal(nodes.param, params)
                assert np.array_equal(nodes.position, positions)

    def test_wall_height_matches_scalar_form(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            dom = random_domain(rng)
            edges = rng.integers(dom.n_edges, size=50)
            params = np.concatenate([rng.random(44), [0.0, 1.0, GEOM_TOL, 1.0 - GEOM_TOL, 0.5, 0.25]])
            points = dom.boundary_points(edges, params)
            expected = [ref.wall_height(dom, i, t) for i, t in zip(points.edge.tolist(), points.param.tolist())]
            assert np.array_equal(dom.wall_height(points), expected)
            nodes = dom.boundary_nodes(0.1)
            expected = [ref.wall_height(dom, i, t) for i, t in zip(nodes.edge.tolist(), nodes.param.tolist())]
            assert np.array_equal(dom.wall_height(nodes), expected)


def frozen_state(thresholds, frozen):
    radii = np.where(frozen, thresholds, 0.0)
    return ConeState(0.3, radii, thresholds)


class TestSpillMeasure:
    @staticmethod
    def assert_matches_dict(state, sources, atoms):
        nu = spill_measure(state, sources, atoms)
        keys, positions, masses = ref.spill_atoms(state, sources, atoms)
        assert nu.points.edge.tolist() == [e for e, _ in keys]
        assert nu.points.param.tolist() == [t for _, t in keys]
        assert np.array_equal(nu.points.position, positions)
        assert np.array_equal(nu.masses, masses)
        return nu

    def test_shared_exits_match_dict_accumulation(self):
        # Zero walls at one or two vertices that share no edge and steep walls
        # elsewhere: every source exits at one of those vertices.
        rng = np.random.default_rng(20)
        for _ in range(30):
            dom = random_domain(rng)
            walls = np.full(dom.n_edges, 50.0)
            a = int(rng.integers(dom.n_edges))
            walls[[a, (a + 2) % dom.n_edges] if dom.n_edges > 3 else a] = 0.0
            dom = ConvexDomain(dom.vertices, walls)
            s = make_sources(dom, interior_points(dom, rng, 40), rng.uniform(1e-3, 1.0, 40) ** 4)
            thresholds, atoms = dom.escape_cost(s.locations)
            assert np.all(atoms.param == 0.0)
            for frozen in (rng.random(s.k) < 0.6, np.ones(s.k, dtype=bool)):
                self.assert_matches_dict(frozen_state(thresholds, frozen), s, atoms)

    def test_one_exit_sums_rates_in_source_order(self):
        # Walls (0, 1, 1, 1) and sources closer than 1 to vertex 0: all exit there.
        dom = ConvexDomain(UNIT_SQUARE, [0.0, 1.0, 1.0, 1.0])
        rng = np.random.default_rng(21)
        rates = np.concatenate([np.full(8, 1e-16), [1.0], rng.uniform(0.0, 1.0, 7) * 1e-16])
        s = make_sources(dom, rng.uniform(0.05, 0.45, (16, 2)), rates)
        thresholds, atoms = dom.escape_cost(s.locations)
        assert atoms.edge.tolist() == [0] * 16 and atoms.param.tolist() == [0.0] * 16
        nu = self.assert_matches_dict(frozen_state(thresholds, np.ones(16, dtype=bool)), s, atoms)
        total = 0.0
        for r in s.rates.tolist():
            total += r
        assert nu.masses.tolist() == [total]
        assert total != sum(reversed(s.rates.tolist()))  # the order shows in the bits
        np.testing.assert_array_equal(nu.points.position, [[0.0, 0.0]])

    def test_no_frozen_source(self):
        dom = ConvexDomain(UNIT_SQUARE, [0.0, 1.0, 1.0, 1.0])
        s = make_sources(dom, [(0.3, 0.4), (0.6, 0.7)], [1.0, 2.0])
        thresholds, atoms = dom.escape_cost(s.locations)
        nu = self.assert_matches_dict(frozen_state(thresholds, [False, False]), s, atoms)
        assert nu.masses.shape == (0,) and nu.points.position.shape == (0, 2)


def mixed_state(domain, sources, radii, grid):
    """Cone state with the given radii, capped and frozen at the escape costs."""
    thresholds, atoms = domain.escape_cost(sources.locations)
    radii = np.minimum(np.asarray(radii, dtype=float), thresholds)
    state = ConeState(0.3, radii, thresholds)
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
            assert np.array_equal(mu.values, mass / grid.cell_area)

    def test_matches_per_source_loop_on_many_sources(self):
        rng = np.random.default_rng(16)
        dom = ConvexDomain(UNIT_SQUARE, [0.0, 0.02, 0.01, 0.03])
        s = make_sources(dom, rng.uniform(0.05, 0.95, (64, 2)), rng.uniform(0.01, 0.05, 64))
        grid = build_grid(dom, 1 / 64)
        state, part, atoms = mixed_state(dom, s, rng.uniform(0.0, 0.12, 64), grid)
        assert state.frozen.any() and (~state.frozen & (part.areas == 0.0)).any()
        mu = rolling_measure(state, s, part, atoms)
        mass, _ = ref.deposit_loop(state, s, part, atoms, grid)
        assert np.array_equal(mu.values, mass / grid.cell_area)


class TestFieldToCsv:
    def test_matches_f_string_rows(self):
        grid = build_grid(ConvexDomain([(-1, -0.5), (1, -0.5), (0.2, 1.3)], [0.0] * 3), 1 / 16)
        rng = np.random.default_rng(17)
        values = rng.normal(size=(grid.ny, grid.nx)) * 10.0 ** rng.integers(-300, 300, (grid.ny, grid.nx))
        special = [-0.0, 5e-324, 1e300, -1e-300, 0.1, 1 / 3, np.inf, np.nan, 0.0]
        inside = np.flatnonzero(grid.inside_mask)
        values.flat[inside[: len(special)]] = special
        field = GridField(grid=grid, values=values)
        assert not grid.inside_mask.any(axis=1).all()  # the apex's row holds no inside cell
        assert field_to_csv(field) == ref.field_to_csv_rows(field)
        assert ",-0\n" in field_to_csv(field) and ",4.9406564584124654e-324\n" in field_to_csv(field)
        assert "center_labels" not in vars(grid)  # the table keeps no per-cell labels
