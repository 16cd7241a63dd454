import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_loops import deposit_loop
from silopile.cones import ConeState, run
from silopile.fields import (
    BoundaryMeasure,
    boundary_measure_from_lines,
    boundary_measure_to_lines,
    equilibrium_field,
    eval_height_many,
    field_from_csv,
    field_to_csv,
    growth_rate_field,
    height_field,
    path_measure_to_csv,
    rolling_measure,
    spill_measure,
)
from silopile.geometry import ConvexDomain
from silopile.regions import SourceLists, build_grid, partition
from silopile.sources import make_sources


@pytest.fixture
def big_square():
    return ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [10.0] * 4)


@pytest.fixture
def unit_square():
    return ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.0] * 4)


def single_cone_state(domain, sources, r):
    thresholds, _ = domain.escape_cost(sources.locations)
    radii = np.full(sources.k, float(r))
    return ConeState(0.0, radii, radii >= thresholds - 1e-12, thresholds)


def value_at(field, x):
    """Value of a grid field in the cell containing x."""
    rows, cols = field.grid.cell_index(x)
    return field.values[rows[0], cols[0]]


class TestEvalHeight:
    def test_apex_value(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 0.5)
        assert eval_height_many(state, SourceLists((2, 2), s.locations))[0] == pytest.approx(0.5)

    def test_cone_slope(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 0.5)
        assert eval_height_many(state, SourceLists((2.3, 2.2), s.locations))[0] == pytest.approx(0.5 - np.sqrt(0.13))

    def test_clipped_to_zero(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 0.5)
        assert eval_height_many(state, SourceLists((3.5, 3.5), s.locations))[0] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        x1=st.floats(0.0, 4.0), y1=st.floats(0.0, 4.0),
        x2=st.floats(0.0, 4.0), y2=st.floats(0.0, 4.0),
    )
    def test_one_lipschitz(self, x1, y1, x2, y2):
        dom = ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [10.0] * 4)
        s = make_sources(dom, [(1.2, 1.5), (2.8, 2.3)], [1.0, 0.5])
        state = ConeState(
            0.0, np.array([0.8, 1.1]), np.array([False, False]), dom.escape_cost(s.locations)[0]
        )
        u1, u2 = eval_height_many(state, SourceLists([(x1, y1), (x2, y2)], s.locations))
        assert abs(u1 - u2) <= np.hypot(x1 - x2, y1 - y2) + 1e-12


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
        assert spill_measure(state, s, big_square.escape_cost(s.locations)[1]).atoms == []

    def test_single_frozen_atom(self):
        dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.2, 0.2, 5.0, 5.0])
        s = make_sources(dom, [(0.5, 0.3)], [1.0])
        state = single_cone_state(dom, s, dom.escape_cost(s.locations)[0][0])
        nu = spill_measure(state, s, dom.escape_cost(s.locations)[1])
        assert len(nu.atoms) == 1
        bp, m = nu.atoms[0]
        assert m == pytest.approx(1.0)
        np.testing.assert_allclose(bp.position, [0.5, 0.0], atol=1e-9)

    def test_tie_selects_first_and_height_unaffected(self, unit_square):
        s = make_sources(unit_square, [(0.5, 0.5)], [1.0])
        state = single_cone_state(unit_square, s, 0.5)
        nu = spill_measure(state, s, unit_square.escape_cost(s.locations)[1])
        assert len(nu.atoms) == 1
        bp, m = nu.atoms[0]
        assert m == pytest.approx(1.0)
        # four-way tie resolved to the lowest boundary parameterization
        np.testing.assert_allclose(bp.position, [0.5, 0.0], atol=1e-9)
        # the standing layer is selection-independent: each of the four tied
        # exits, the edge midpoints, sees u = g
        grid = build_grid(unit_square, 1 / 64)
        u = height_field(state, s, grid)
        for alt in (unit_square.boundary_point(edge, 0.5) for edge in range(4)):
            u_alt = eval_height_many(state, SourceLists(alt.position, s.locations))[0]
            assert u_alt == pytest.approx(unit_square.wall_height(alt), abs=1e-9)
        assert u.values.max() <= 0.5 + 1e-12


class TestRollingMeasure:
    def test_interior_cone_total_mass(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = single_cone_state(big_square, s, 1.0)
        grid = build_grid(big_square, 1 / 64)
        part = partition(grid, s, state.radii)
        mu = rolling_measure(state, s, part, big_square.escape_cost(s.locations)[1])
        assert mu.total_mass == pytest.approx(2.0 / 3.0, rel=0.01)

    def test_monte_carlo_cross_check(self, big_square):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1, 1, size=(200_000, 2))
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        mc = np.linalg.norm(pts, axis=1).mean()  # mean distance in the unit disc
        assert mc == pytest.approx(2.0 / 3.0, abs=3 * 0.001)

    def test_zero_radii_zero_measure(self, big_square):
        s = make_sources(big_square, [(2, 2)], [1.0])
        state = ConeState(0.0, np.zeros(1), np.zeros(1, dtype=bool), big_square.escape_cost(s.locations)[0])
        grid = build_grid(big_square, 1 / 32)
        part = partition(grid, s, state.radii)
        mu = rolling_measure(state, s, part, big_square.escape_cost(s.locations)[1])
        assert mu.total_mass == 0.0

    def test_diameter_bound(self):
        dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.1, 0.4, 0.2, 0.3])
        s = make_sources(dom, [(0.3, 0.4), (0.7, 0.65)], [0.5, 1.25])
        grid = build_grid(dom, 1 / 64)
        thresholds, atoms = dom.escape_cost(s.locations)
        for r in (0.05, 0.2, 10.0):
            radii = np.minimum(np.full(2, r), thresholds)
            state = ConeState(0.0, radii, radii >= thresholds - 1e-12, thresholds)
            part = partition(grid, s, radii)
            mu = rolling_measure(state, s, part, atoms)
            assert mu.total_mass <= dom.diameter * s.total_rate + 1e-12


class TestEquilibrium:
    def test_single_source_closed_form(self, unit_square):
        s = make_sources(unit_square, [(0.5, 0.5)], [1.0])
        thresholds, _ = unit_square.escape_cost(s.locations)
        grid = build_grid(unit_square, 1 / 129)  # odd cell count: a cell centered on the apex
        eq = equilibrium_field(s, thresholds, grid)
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
        grid = build_grid(dom, h)
        sim = height_field(traj.final_state, s, grid)
        eq = equilibrium_field(s, traj.final_state.thresholds, grid)
        assert np.abs(sim.values - eq.values).max() <= 2 * h


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
        node_pos = np.array([b.position for b in nodes])
        walls = np.array([dom.wall_height(b) for b in nodes])
        prev = None
        for state in traj.states:
            ub = eval_height_many(state, SourceLists(node_pos, s.locations))
            assert np.all(ub >= 0.0)
            assert np.all(ub <= walls + 1e-9)
            u = eval_height_many(state, traj.lists)
            if prev is not None:
                assert np.all(u >= prev - 1e-12)
            prev = u

    def test_wall_contact_at_spill_atoms(self):
        dom, s, traj, _ = self.make_run()
        final = traj.final_state
        assert final.frozen.any()
        nu = spill_measure(final, s, traj.spill_atoms)
        for bp, _ in nu.atoms:
            assert eval_height_many(final, SourceLists(bp.position, s.locations))[0] == pytest.approx(dom.wall_height(bp), abs=1e-9)

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
                    t4 = float(sum(m * phi(bp.position[None, :])[0] for bp, m in nu.atoms))
                    assert abs(t1 + t2 - t3 + t4) <= 3.0 * h

    def test_squared_rate_bound(self):
        dom, s, traj, h = self.make_run()
        grid = build_grid(dom, h)
        total = 0.0
        t_prev = 0.0
        for t, state in zip(traj.snapshot_times, traj.states):
            part = partition(grid, s, state.radii)
            active = ~state.frozen & (part.areas > 0.0)
            sq = float((s.rates[active] ** 2 / part.areas[active]).sum())
            total += sq * (t - t_prev)
            t_prev = t
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
        text = path_measure_to_csv(mu)
        back = field_from_csv(grid, text)
        np.testing.assert_array_equal(back.values, mu.density)

    def test_boundary_measure_round_trip(self, unit_square):
        nu = BoundaryMeasure(
            atoms=[
                (unit_square.boundary_point(0, 0.5), 0.75),
                (unit_square.boundary_point(2, 0.125), 1.0 / 3.0),
            ]
        )
        back = boundary_measure_from_lines(unit_square, boundary_measure_to_lines(nu))
        assert len(back.atoms) == 2
        for (b1, m1), (b2, m2) in zip(back.atoms, nu.atoms):
            assert b1.key == b2.key
            assert m1 == m2

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
