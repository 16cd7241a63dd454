import math

import numpy as np
import pytest

from silopile.cones import ConeState, analytic_phase, run, step
from silopile.geometry import ConvexDomain
from silopile.regions import build_grid
from silopile.sources import make_sources


@pytest.fixture
def big_square():
    return ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [0.0] * 4)


@pytest.fixture
def unit_square():
    return ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.0] * 4)


def tall_walls(domain, g=10.0):
    return ConvexDomain(domain.vertices, [g] * domain.n_edges)


class TestAnalyticPhase:
    def test_single_source_centered(self, big_square):
        dom = tall_walls(big_square)
        s = make_sources(dom, [(2, 2)], [1.0])
        t0, radii_fn = analytic_phase(s, dom)
        assert t0 == pytest.approx(np.pi / 3)
        assert radii_fn(t0)[0] == pytest.approx(1.0)

    def test_zero_time_zero_radii(self, big_square):
        s = make_sources(big_square, [(1, 2), (3, 2)], [1.0, 0.5])
        _, radii_fn = analytic_phase(s, big_square)
        np.testing.assert_array_equal(radii_fn(0.0), [0.0, 0.0])

    def test_two_sources(self, big_square):
        s = make_sources(big_square, [(1, 2), (3, 2)], [1.0, 1.0])
        t0, radii_fn = analytic_phase(s, big_square)
        assert t0 == pytest.approx(np.pi / 24)
        np.testing.assert_allclose(radii_fn(t0), 0.5)
        # cube-law cross-check r^3 = 3 c t / pi
        t = 0.7 * t0
        np.testing.assert_allclose(radii_fn(t) ** 3, 3 * t / np.pi)


class TestStep:
    def test_all_frozen_only_time_moves(self, unit_square):
        s = make_sources(unit_square, [(0.5, 0.5)], [1.0])
        thresholds = np.array([0.5])
        state = ConeState(1.0, thresholds.copy(), np.array([True]), thresholds)
        grid = build_grid(unit_square, 1 / 64)
        new, record, events = step(state, s, unit_square, grid, dt_max=0.25)
        assert new.time == pytest.approx(1.25)
        np.testing.assert_array_equal(new.radii, state.radii)
        assert events == []

    def test_single_cone_matches_closed_form(self, big_square):
        dom = tall_walls(big_square)
        s = make_sources(dom, [(2, 2)], [1.0])
        h = 1 / 128
        grid = build_grid(dom, h)
        t = np.pi / 3  # r(t) = 1 exactly
        thresholds = dom.escape_cost(s.locations)[0]
        state = ConeState(t, np.array([1.0]), np.array([False]), thresholds)
        new, record, _ = step(state, s, dom, grid)
        exact = (3 * new.time / np.pi) ** (1 / 3)
        # dominant error: O(h) relative area error times the advance
        assert new.radii[0] == pytest.approx(exact, abs=5 * h * record.dt)

    def test_symmetric_pair_stays_symmetric(self, big_square):
        s = make_sources(big_square, [(1, 2), (3, 2)], [1.0, 1.0])
        grid = build_grid(big_square, 1 / 64)
        thresholds = big_square.escape_cost(s.locations)[0]
        state = ConeState(0.1, np.array([0.6, 0.6]), np.array([False, False]), thresholds)
        for _ in range(15):
            state, _, _ = step(state, s, big_square, grid)
            assert state.radii[0] == state.radii[1]


class TestRun:
    def test_horizon_within_analytic_phase(self, big_square):
        dom = tall_walls(big_square)
        s = make_sources(dom, [(2, 2)], [1.0])
        times = [0.1, 0.5, 1.0]
        traj = run(s, dom, 1.0, times, 1 / 32)
        _, radii_fn = analytic_phase(s, dom)
        for t, st in zip(times, traj.states):
            np.testing.assert_array_equal(st.radii, radii_fn(t))
        assert traj.steps == []

    def test_single_source_freeze_bracket(self, unit_square):
        s = make_sources(unit_square, [(0.5, 0.5)], [1.0])
        traj = run(s, unit_square, 0.5, [0.25], 1 / 129)
        assert len(traj.freeze_events) == 1
        j, t1 = traj.freeze_events[0]
        assert j == 0
        # pure-cone bound and the coarse rate bound c/|Omega|
        assert math.pi * 0.5**3 / 3 <= t1 <= 0.5
        # pinned regression value for this exact configuration
        assert t1 == pytest.approx(0.13092146, abs=1e-6)
        assert traj.states[0].radii[0] == pytest.approx(0.5)
        assert traj.states[0].frozen[0]

    def test_rejects_bad_horizon(self, unit_square):
        s = make_sources(unit_square, [(0.5, 0.5)], [1.0])
        with pytest.raises(ValueError):
            run(s, unit_square, 0.0, [], 1 / 32)

    def test_rejects_snapshot_outside_horizon(self, unit_square):
        s = make_sources(unit_square, [(0.5, 0.5)], [1.0])
        with pytest.raises(ValueError):
            run(s, unit_square, 0.1, [0.2], 1 / 32)

    def test_zero_sources_rejected_at_construction(self, unit_square):
        with pytest.raises(ValueError):
            make_sources(unit_square, np.empty((0, 2)), [])


class TestInvariants:
    def test_mass_balance_every_step(self, big_square):
        s = make_sources(big_square, [(1, 1.2), (2.8, 2.6), (1.5, 3.0)], [0.5, 1.0, 0.75])
        dom = ConvexDomain(big_square.vertices, [0.3, 0.5, 0.2, 0.4])
        s = make_sources(dom, s.locations, s.rates)
        traj = run(s, dom, 1.2, [1.2], 1 / 64)
        assert traj.steps, "expected stepped integration"
        c = s.rates
        for rec in traj.steps:
            np.testing.assert_array_equal(rec.rdot[rec.active], c[rec.active] / rec.areas[rec.active])
            balance = math.fsum(list(c[rec.active]) + list(c[~rec.active]))
            assert balance == math.fsum(c)

    def test_radii_monotone_and_freeze_absorbing(self, big_square):
        dom = ConvexDomain(big_square.vertices, [0.1, 0.2, 0.1, 0.3])
        s = make_sources(dom, [(1, 2), (3, 2)], [1.0, 2.0])
        times = list(np.linspace(0.05, 2.0, 12))
        traj = run(s, dom, 2.0, times, 1 / 64)
        prev = np.zeros(2)
        was_frozen = np.zeros(2, dtype=bool)
        for st in traj.states:
            assert np.all(st.radii >= prev - 1e-15)
            assert np.all(st.frozen | ~was_frozen)
            prev = st.radii
            was_frozen = st.frozen

    def test_halving_h_is_first_order(self, unit_square):
        s = make_sources(unit_square, [(0.5, 0.5)], [1.0])
        T = 0.08  # mid-growth, before freezing
        r = {}
        for n in (32, 64, 128):
            traj = run(s, unit_square, T, [T], 1 / n)
            r[n] = traj.states[0].radii[0]
        exact = (3 * T / np.pi) ** (1 / 3)
        e32, e64, e128 = abs(r[32] - exact), abs(r[64] - exact), abs(r[128] - exact)
        assert e64 <= 1.0 * e32 + 1e-12
        assert e128 <= 0.8 * e32 + 1e-12
        assert e128 <= 5e-3  # O(h) floor at h = 1/128

    def test_doubling_rates_dominates(self, big_square):
        dom = ConvexDomain(big_square.vertices, [0.4, 0.6, 0.5, 0.4])
        pts = [(1.2, 1.4), (2.9, 2.4)]
        times = list(np.linspace(0.1, 1.5, 8))
        base = run(make_sources(dom, pts, [0.6, 0.9]), dom, 1.5, times, 1 / 64)
        double = run(make_sources(dom, pts, [1.2, 1.8]), dom, 1.5, times, 1 / 64)
        for st1, st2 in zip(double.states, base.states):
            assert np.all(st1.radii >= st2.radii - 1e-12)
