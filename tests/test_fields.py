import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_loops import deposit_loop, point_heights
from silopile.cones import ConeState, run
from silopile.fields import (
    BoundaryMeasure,
    boundary_measure_from_lines,
    boundary_measure_to_lines,
    field_from_csv,
    field_to_csv,
    growth_rate_field,
    height_field,
    heights_at,
    rolling_measure,
    spill_measure,
)
from silopile.geometry import ConvexDomain
from silopile.regions import build_grid, partition
from silopile.sources import make_sources


def layer_mass(mu):
    """The rolling layer's total mass: its density summed over the cells, times h^2."""
    return float(mu.values.sum() * mu.grid.cell_area)


@pytest.fixture
def big_square():
    return ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [10.0] * 4)


@pytest.fixture
def unit_square():
    return ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.0] * 4)


def single_cone_state(domain, sources, r):
    thresholds, _ = domain.escape_cost(sources.locations)
    radii = np.full(sources.k, float(r))
    return ConeState(0.0, radii, thresholds)


def value_at(field, x):
    """Value of a grid field in the cell containing x."""
    row, col = field.grid.cell_of(np.float64(x[0]), np.float64(x[1]))
    return field.values[row, col]


class TestEvalHeight:
    def test_apex_value(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 0.5)
        assert heights_at(state, s, [(2, 2)])[0] == pytest.approx(0.5)

    def test_cone_slope(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 0.5)
        assert heights_at(state, s, [(2.3, 2.2)])[0] == pytest.approx(0.5 - np.sqrt(0.13))

    def test_clipped_to_zero(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 0.5)
        assert heights_at(state, s, [(3.5, 3.5)])[0] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        x1=st.floats(0.0, 4.0), y1=st.floats(0.0, 4.0),
        x2=st.floats(0.0, 4.0), y2=st.floats(0.0, 4.0),
    )
    def test_one_lipschitz(self, x1, y1, x2, y2):
        dom = ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [10.0] * 4)
        s = make_sources(dom, [(1.2, 1.5), (2.8, 2.3)], [1.0, 0.5])
        state = ConeState(0.0, np.array([0.8, 1.1]), dom.escape_cost(s.locations)[0])
        u1, u2 = heights_at(state, s, [(x1, y1), (x2, y2)])
        assert abs(u1 - u2) <= np.hypot(x1 - x2, y1 - y2) + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(["scatter", "one", "coincident", "collinear", "empty"]),
        m=st.integers(1, 300),
        k=st.sampled_from([1, 3, 16, 64]),
    )
    def test_heights_at_matches_per_point_loop(self, seed, layout, m, k):
        # Off-grid points of any layout, including ties at coincident points
        # and radii all zero, give the bits of one sqrt per point and source.
        rng = np.random.default_rng(seed)
        points = {
            "scatter": rng.uniform(0.0, 1.0, (m, 2)),
            "one": rng.uniform(0.0, 1.0, (1, 2)),
            "coincident": np.tile(rng.uniform(0.0, 1.0, 2), (m, 1)),
            "collinear": np.stack([np.linspace(0.0, 1.0, m), np.full(m, 0.5)], axis=1),
            "empty": np.zeros((0, 2)),
        }[layout]
        dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.5] * 4)
        s = make_sources(dom, 0.05 + 0.9 * rng.random((k, 2)), np.ones(k))
        for radii in (rng.uniform(0.0, 0.4, k), np.zeros(k), rng.uniform(0.0, 0.2, k)):
            state = ConeState(0.0, radii, np.full(k, 1e9))
            want = point_heights(radii.tolist(), s.locations.tolist(), points)
            assert np.array_equal(heights_at(state, s, points).view(np.uint64), want.view(np.uint64))


class TestGrowthRate:
    def test_interior_disc_rate(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 1.0)
        grid = build_grid(big_square, 1 / 128)
        part = partition(grid, s, state.radii)
        f = growth_rate_field(state, s, part)
        assert value_at(f, (2.1, 2.0)) == pytest.approx(1 / np.pi, rel=2e-3)
        covered = part.labels == 0
        np.testing.assert_allclose(f.values[covered], 1.0 / part.areas[0])

    def test_frozen_region_rate_zero(self, unit_square):
        s = make_sources(unit_square, [(0.5, 0.5)], [1.0])
        state = single_cone_state(unit_square, s, 0.5)  # threshold is 0.5: frozen
        assert state.frozen[0]
        grid = build_grid(unit_square, 1 / 64)
        part = partition(grid, s, state.radii)
        f = growth_rate_field(state, s, part)
        assert value_at(f, (0.5, 0.6)) == 0.0
        assert f.values.max() == 0.0

    def test_uncovered_region_rate_zero(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 1.0)
        grid = build_grid(big_square, 1 / 64)
        part = partition(grid, s, state.radii)
        assert value_at(growth_rate_field(state, s, part), (3.9, 3.9)) == 0.0


class TestSpillMeasure:
    def test_no_frozen_no_atoms(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 1.0)
        nu = spill_measure(state, s, big_square.escape_cost(s.locations)[1])
        assert nu.points.edge.shape == nu.points.param.shape == nu.masses.shape == (0,)
        assert nu.points.position.shape == (0, 2) and nu.total_mass == 0.0
        assert boundary_measure_to_lines(nu) == "edge_index,edge_parameter,mass\n"

    def test_single_frozen_atom(self):
        dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.2, 0.2, 5.0, 5.0])
        s = make_sources(dom, [(0.5, 0.3)], [1.0])
        state = single_cone_state(dom, s, dom.escape_cost(s.locations)[0][0])
        nu = spill_measure(state, s, dom.escape_cost(s.locations)[1])
        assert nu.masses.tolist() == [1.0]
        np.testing.assert_allclose(nu.points.position, [[0.5, 0.0]], atol=1e-9)

    def test_tie_selects_first_and_height_unaffected(self, unit_square):
        s = make_sources(unit_square, [(0.5, 0.5)], [1.0])
        state = single_cone_state(unit_square, s, 0.5)
        nu = spill_measure(state, s, unit_square.escape_cost(s.locations)[1])
        assert nu.masses.tolist() == [1.0]
        # four-way tie resolved to the lowest boundary parameterization
        np.testing.assert_allclose(nu.points.position, [[0.5, 0.0]], atol=1e-9)
        # the standing layer is selection-independent: each of the four tied
        # exits, the edge midpoints, sees u = g
        grid = build_grid(unit_square, 1 / 64)
        u = height_field(state, s, grid)
        alt = unit_square.boundary_points(range(4), [0.5] * 4)
        u_alt = heights_at(state, s, alt.position)
        np.testing.assert_allclose(u_alt, unit_square.wall_height(alt), rtol=0.0, atol=1e-9)
        assert u.values.max() <= 0.5 + 1e-12


class TestRollingMeasure:
    def test_interior_cone_total_mass(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 1.0)
        grid = build_grid(big_square, 1 / 64)
        part = partition(grid, s, state.radii)
        mu = rolling_measure(state, s, part, big_square.escape_cost(s.locations)[1])
        assert layer_mass(mu) == pytest.approx(2.0 / 3.0, rel=0.01)

    def test_monte_carlo_cross_check(self, big_square):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1, 1, size=(200_000, 2))
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        mc = np.linalg.norm(pts, axis=1).mean()  # mean distance in the unit disc
        assert mc == pytest.approx(2.0 / 3.0, abs=3 * 0.001)

    def test_zero_radii_zero_measure(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = ConeState(0.0, np.zeros(1), big_square.escape_cost(s.locations)[0])
        grid = build_grid(big_square, 1 / 32)
        part = partition(grid, s, state.radii)
        mu = rolling_measure(state, s, part, big_square.escape_cost(s.locations)[1])
        assert layer_mass(mu) == 0.0

    def test_slanted_wall_mass_reaches_inside_cells(self):
        # Sub-deposits near the triangle's slanted walls land in cells centred
        # outside it, which the CSV does not list; each passes its mass to
        # the nearest inside cell.
        dom = ConvexDomain([(0, 0), (1, 0), (0.5, 0.9)], [0.0, 0.01, 0.005])
        rng = np.random.default_rng(1)
        pts = rng.uniform(dom.bbox[0], dom.bbox[1], (400, 2))
        pts = pts[dom.contains_many(pts) & (dom.distance_to_boundary(pts) >= 0.03)][:40]
        s = make_sources(dom, pts, np.full(40, 1 / 40))
        traj = run(s, dom, 0.1, [0.1], 1 / 50)
        state, grid = traj.states[0], traj.grid
        part = partition(grid, s, state.radii)
        assert state.frozen.any() and not state.frozen.all()
        mu = rolling_measure(state, s, part, traj.spill_atoms)

        mass, _ = deposit_loop(state, s, part, traj.spill_atoms, grid)
        stray = ~grid.inside_mask & (mass != 0.0)
        assert stray.any()
        centers, inside = grid.cell_centers(), np.argwhere(grid.inside_mask)
        for r, c in np.argwhere(stray):
            nearest = inside[np.argmin(np.linalg.norm(centers[grid.inside_mask] - centers[r, c], axis=1))]
            mass[tuple(nearest)] += mass[r, c]
            mass[r, c] = 0.0
        np.testing.assert_array_equal(mu.values, mass / grid.cell_area)
        written = field_from_csv(grid, field_to_csv(mu)).values.sum() * grid.cell_area
        assert written == pytest.approx(layer_mass(mu), rel=1e-14)

    def test_diameter_bound(self):
        dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.1, 0.4, 0.2, 0.3])
        s = make_sources(dom, [(0.3, 0.4), (0.7, 0.65)], [0.5, 1.25])
        grid = build_grid(dom, 1 / 64)
        thresholds, atoms = dom.escape_cost(s.locations)
        for r in (0.05, 0.2, 10.0):
            radii = np.minimum(np.full(2, r), thresholds)
            state = ConeState(0.0, radii, thresholds)
            part = partition(grid, s, radii)
            mu = rolling_measure(state, s, part, atoms)
            assert layer_mass(mu) <= dom.diameter * s.total_rate + 1e-12


class TestEquilibrium:
    def test_single_source_closed_form(self, unit_square):
        s = make_sources(unit_square, [(0.5, 0.5)], [1.0])
        thresholds, _ = unit_square.escape_cost(s.locations)
        grid = build_grid(unit_square, 1 / 129)  # odd cell count: a cell centered on the apex
        eq = height_field(ConeState(0.0, thresholds.copy(), thresholds), s, grid)  # every cone capped
        centers = grid.inside_centers()
        closed = np.maximum(0.5 - np.linalg.norm(centers - 0.5, axis=1), 0.0)
        np.testing.assert_allclose(eq.values[grid.inside_mask], closed, rtol=0.0, atol=1e-12)
        assert value_at(eq, (0.5, 0.5)) == pytest.approx(0.5)
        # 1-Lipschitz: the cell center is within h / sqrt(2) of the point
        assert value_at(eq, (0.9, 0.5)) == pytest.approx(0.1, abs=1 / 129)
        assert value_at(eq, (0.95, 0.05)) == 0.0

    def test_huge_wall_not_reached(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        traj = run(s, big_square, 2.0, [2.0], 1 / 32)
        assert not traj.final_state.frozen.any()
        assert traj.final_state.radii[0] < big_square.escape_cost(s.locations)[0][0]

    def test_two_source_long_run_matches_closed_form(self):
        dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.05, 0.1, 0.0, 0.15])
        s = make_sources(dom, [(0.35, 0.4), (0.7, 0.6)], [1.0, 0.7])
        h = 1 / 64
        traj = run(s, dom, 3.0, [3.0], h)
        assert traj.final_state.frozen.all()
        # each radius is clamped to its escape cost when it freezes, so the
        # final pile is the stationary profile bit for bit
        thresholds, _ = dom.escape_cost(s.locations)
        assert np.array_equal(traj.final_state.radii.view(np.uint64), thresholds.view(np.uint64))


class TestFieldInvariants:
    def make_run(self, h=1 / 64):
        dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.12, 0.3, 0.2, 0.25])
        s = make_sources(dom, [(0.3, 0.35), (0.7, 0.6), (0.45, 0.8)], [0.6, 0.8, 0.4])
        times = [0.05, 0.1, 0.18, 0.28, 0.4]
        traj = run(s, dom, 0.4, times, h)
        return dom, s, traj, h

    def test_boundary_bounds_and_monotonicity(self):
        dom, s, traj, h = self.make_run()
        nodes = dom.boundary_nodes(0.02)
        node_pos, walls = nodes.position, dom.wall_height(nodes)
        prev = None
        for state in traj.states:
            ub = heights_at(state, s, node_pos)
            assert np.all(ub >= 0.0)
            assert np.all(ub <= walls + 1e-9)
            u = height_field(state, s, traj.grid).values
            if prev is not None:
                assert np.all(u >= prev - 1e-12)
            prev = u

    def test_wall_contact_at_spill_atoms(self):
        dom, s, traj, _ = self.make_run()
        final = traj.final_state
        assert final.frozen.any()
        nu = spill_measure(final, s, traj.spill_atoms)
        u_atoms = heights_at(final, s, nu.points.position)
        np.testing.assert_allclose(u_atoms, dom.wall_height(nu.points), rtol=0.0, atol=1e-9)

    def test_weak_form_residual_first_order(self):
        for h in (1 / 64, 1 / 128):
            dom, s, traj, _ = self.make_run(h)
            grid = build_grid(dom, h)
            centers = grid.cell_centers().reshape(-1, 2)
            for state in (traj.states[2], traj.states[4]):
                part = partition(grid, s, state.radii)
                dudt = growth_rate_field(state, s, part)
                _, direction_mass = deposit_loop(state, s, part, traj.spill_atoms, grid)
                nu = spill_measure(state, s, traj.spill_atoms)
                for phi, dphi in _test_functions():
                    t1 = float((dudt.values.ravel() * phi(centers)).sum() * h * h)
                    g = dphi(centers)
                    t2 = float(
                        (g[:, 0] * direction_mass[..., 0].ravel()).sum()
                        + (g[:, 1] * direction_mass[..., 1].ravel()).sum()
                    )
                    t3 = float((s.rates * phi(s.locations)).sum())
                    t4 = float((nu.masses * phi(nu.points.position)).sum())
                    assert abs(t1 + t2 - t3 + t4) <= 3.0 * h

    def test_squared_rate_bound(self):
        dom, s, traj, h = self.make_run()
        grid = build_grid(dom, h)
        total = 0.0
        t_prev = 0.0
        for state in traj.states:
            part = partition(grid, s, state.radii)
            active = ~state.frozen & (part.areas > 0.0)
            sq = float((s.rates[active] ** 2 / part.areas[active]).sum())
            total += sq * (state.time - t_prev)
            t_prev = state.time
        u_max = float(traj.states[-1].radii.max())
        assert total <= u_max * s.total_rate * (1 + 5 * h)


class TestSerialization:
    def test_field_round_trip(self, unit_square):
        s = make_sources(unit_square, [(0.5, 0.5)], [1.0])
        state = single_cone_state(unit_square, s, 0.3)
        grid = build_grid(unit_square, 1 / 16)
        f = height_field(state, s, grid)
        back = field_from_csv(grid, field_to_csv(f))
        np.testing.assert_array_equal(back.values, f.values)

    def test_path_measure_dump_parses(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 1.0)
        grid = build_grid(big_square, 1 / 16)
        part = partition(grid, s, state.radii)
        mu = rolling_measure(state, s, part, big_square.escape_cost(s.locations)[1])
        back = field_from_csv(grid, field_to_csv(mu))
        np.testing.assert_array_equal(back.values, mu.values)

    def test_boundary_measure_round_trip(self, unit_square):
        nu = BoundaryMeasure(unit_square.boundary_points([0, 2], [0.5, 0.125]), np.array([0.75, 1.0 / 3.0]))
        back = boundary_measure_from_lines(unit_square, boundary_measure_to_lines(nu))
        assert back.points.edge.tolist() == [0, 2] and back.points.param.tolist() == [0.5, 0.125]
        np.testing.assert_array_equal(back.points.position, nu.points.position)
        np.testing.assert_array_equal(back.masses, nu.masses)

    @pytest.mark.parametrize("row", ["6,0.25,1.0", "-1,0.25,1.0", "1,1.1,1.0", "1,-0.1,1.0", "1,nan,1.0"])
    def test_boundary_measure_rejects_point_off_the_wall(self, unit_square, row):
        with pytest.raises(ValueError, match="outside"):
            boundary_measure_from_lines(unit_square, f"edge_index,edge_parameter,mass\n0,0.5,1.0\n{row}\n")

    def test_rejects_bad_header(self, unit_square):
        grid = build_grid(unit_square, 0.5)
        with pytest.raises(ValueError):
            field_from_csv(grid, "a,b,c\n1,2,3\n")


def _test_functions():
    """Smooth bumps: sine products supported on boxes inside the domain."""
    specs = [
        (0.05, 0.95, 0.05, 0.95, 1, 1),
        (0.1, 0.9, 0.1, 0.9, 2, 1),
        (0.2, 0.8, 0.15, 0.85, 1, 2),
        (0.05, 0.6, 0.05, 0.6, 2, 2),
        (0.3, 0.95, 0.3, 0.95, 1, 1),
    ]
    out = []
    for a, b, c, d, k, l in specs:
        def phi(p, a=a, b=b, c=c, d=d, k=k, l=l):
            p = np.atleast_2d(p)
            inside = (p[:, 0] >= a) & (p[:, 0] <= b) & (p[:, 1] >= c) & (p[:, 1] <= d)
            return np.where(
                inside,
                np.sin(k * np.pi * (p[:, 0] - a) / (b - a)) * np.sin(l * np.pi * (p[:, 1] - c) / (d - c)),
                0.0,
            )

        def dphi(p, a=a, b=b, c=c, d=d, k=k, l=l):
            p = np.atleast_2d(p)
            inside = (p[:, 0] >= a) & (p[:, 0] <= b) & (p[:, 1] >= c) & (p[:, 1] <= d)
            gx = np.where(
                inside,
                k * np.pi / (b - a)
                * np.cos(k * np.pi * (p[:, 0] - a) / (b - a))
                * np.sin(l * np.pi * (p[:, 1] - c) / (d - c)),
                0.0,
            )
            gy = np.where(
                inside,
                l * np.pi / (d - c)
                * np.sin(k * np.pi * (p[:, 0] - a) / (b - a))
                * np.cos(l * np.pi * (p[:, 1] - c) / (d - c)),
                0.0,
            )
            return np.stack([gx, gy], axis=1)

        out.append((phi, dphi))
    return out
