"""Acceptance criteria A1-A9: one pass/fail line per criterion.

Each test prints its verdict (visible with pytest -s) and asserts the
criterion at its stated tolerance.
"""

import itertools
import math
import time

import numpy as np
import pytest

from silopile.cones import ConeState, run
from silopile.fields import (
    growth_rate_field,
    height_field,
    heights_at,
    rolling_measure,
    spill_measure,
)
from silopile.geometry import ConvexDomain
from silopile.regions import build_grid, partition
from silopile.sources import DensitySpec, UNIFORM_POLYGON, discretize, make_sources
from silopile.tolerances import DUAL_NODE_CAP
from silopile.verify import (
    certify_snapshot,
    solve_dual,
    solve_primal,
    transport_problem,
)

from test_verify import linprog_oracle


def report(name: str, ok: bool, detail: str = ""):
    print(f"{name} {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def three_source_run(h=1 / 64, horizon=0.3, times=(0.02, 0.06, 0.1, 0.125, 0.3)):
    dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.12, 0.3, 0.2, 0.25])
    s = make_sources(dom, [(0.3, 0.35), (0.7, 0.6), (0.45, 0.8)], [0.6, 0.8, 0.4])
    traj = run(s, dom, horizon, list(times), h)
    return dom, s, traj


def test_a1_early_time_closed_form():
    t_begin = time.perf_counter()
    dom = ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [10.0] * 4)
    s = make_sources(dom, [(2, 2)], [1.0])
    times = list(np.linspace(np.pi / 30, np.pi / 3, 10))
    traj = run(s, dom, np.pi / 3, times, 1 / 128)
    rel = max(
        abs(state.radii[0] - (3 * t / np.pi) ** (1 / 3)) / (3 * t / np.pi) ** (1 / 3)
        for t, state in zip(times, traj.states)
    )
    elapsed = time.perf_counter() - t_begin
    report("A1", rel <= 0.01 and elapsed <= 30.0, f"max rel err {rel:.2e}, {elapsed:.1f}s")


def test_a2_mass_balance():
    h = 1 / 64
    dom, s, traj = three_source_run(h=h)
    assert traj.steps and traj.freeze_events

    c = s.rates
    total = math.fsum(c)
    construction_ok = True
    product_gap = 0.0
    for rec in traj.steps:
        active = rec.active
        construction_ok &= bool(
            np.array_equal(rec.rdot[active], c[active] / rec.areas[active])
        )
        # the identity written via the defining values is exact
        construction_ok &= math.fsum(list(c[active]) + list(c[~active])) == total
        # float round-trip of the products stays at ulp level
        product_gap = max(
            product_gap,
            abs(math.fsum([r * a for r, a in zip(rec.rdot[active], rec.areas[active])])
                + math.fsum(c[~active]) - total),
        )

    grid = build_grid(dom, h)
    quad_tol = 2.0 * dom.perimeter * h
    quad_gap = 0.0
    for state in traj.states:
        part = partition(grid, s, state.radii)
        growth = growth_rate_field(state, s, part)
        integral = float(growth.values.sum() * grid.cell_area)
        nu_mass = spill_measure(state, s, traj.spill_atoms).total_mass
        quad_gap = max(quad_gap, abs(integral + nu_mass - total))

    ok = construction_ok and product_gap <= 1e-12 and quad_gap <= quad_tol
    report("A2", ok, f"product gap {product_gap:.1e}, quadrature gap {quad_gap:.2e} (tol {quad_tol:.2e})")


def test_a3_structural_invariants():
    dom, s, traj = three_source_run()
    rng = np.random.default_rng(2024)
    pairs_a = rng.random((10_000, 2))
    pairs_b = rng.random((10_000, 2))
    nodes = dom.boundary_nodes(1 / 64)
    node_pos, walls = nodes.position, dom.wall_height(nodes)
    grid = build_grid(dom, 1 / 64)

    lip_slack = 0.0
    bound_violation = 0.0
    monotone_violation = 0.0
    atom_gap = 0.0
    prev = None
    for state in traj.states:
        ua = heights_at(state, s, pairs_a)
        ub = heights_at(state, s, pairs_b)
        gaps = np.abs(ua - ub) - np.linalg.norm(pairs_a - pairs_b, axis=1)
        lip_slack = max(lip_slack, float(gaps.max()))

        u_bdry = heights_at(state, s, node_pos)
        bound_violation = max(
            bound_violation, float(max((-u_bdry).max(), (u_bdry - walls).max()))
        )

        u_grid = height_field(state, s, grid).values[grid.inside_mask]
        if prev is not None:
            monotone_violation = max(monotone_violation, float((prev - u_grid).max()))
        prev = u_grid

        atoms = spill_measure(state, s, traj.spill_atoms).points
        u_atoms = heights_at(state, s, atoms.position)
        atom_gap = max(atom_gap, float(np.abs(u_atoms - dom.wall_height(atoms)).max(initial=0.0)))

    ok = (
        lip_slack <= 1e-12
        and bound_violation <= 1e-9
        and monotone_violation <= 1e-12
        and atom_gap <= 1e-9
    )
    report(
        "A3",
        ok,
        f"lipschitz slack {lip_slack:.1e}, boundary violation {bound_violation:.1e}, "
        f"monotonicity {monotone_violation:.1e}, wall contact {atom_gap:.1e}",
    )


def test_a4_duality_certification():
    t_begin = time.perf_counter()
    h = 1 / 64
    dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.15, 0.35, 0.25, 0.3])
    s = make_sources(dom, [(0.32, 0.4), (0.68, 0.62)], [0.7, 0.5])
    times = [0.05, 0.12, 0.2, 0.27, 0.5]  # spans both freeze events
    fields = []  # each snapshot's height field, as simulate writes it
    traj = run(s, dom, 0.5, times, h,
               on_snapshot=lambda state, grid: fields.append(height_field(state, s, grid).values))
    assert not traj.states[0].frozen.any()
    assert traj.states[-1].frozen.all()

    worst = 0.0
    all_pass = True
    for state, u in zip(traj.states, fields):
        rep = certify_snapshot(state, s, dom, traj.grid, h, DUAL_NODE_CAP, u)
        all_pass &= rep.passed
        worst = max(worst, rep.ray_residual, rep.wall_residual, rep.duality_gap, rep.lp_gap, rep.u_residual)
    elapsed = time.perf_counter() - t_begin
    tol = 1e-6 + 2 * h
    report("A4", all_pass and elapsed <= 300.0, f"worst residual {worst:.2e} (tol {tol:.2e}), {elapsed:.0f}s")


def test_a5_equilibrium():
    h = 1 / 129  # odd cell count: lattice centered on the apex
    dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.0] * 4)
    s = make_sources(dom, [(0.5, 0.5)], [1.0])
    traj = run(s, dom, 0.5, [0.5], h)
    assert len(traj.freeze_events) == 1
    t1 = traj.freeze_events[0][1]

    grid = build_grid(dom, h)
    centers = grid.inside_centers()
    u_sim = height_field(traj.final_state, s, traj.grid).values[traj.grid.inside_mask]
    closed = np.maximum(0.5 - np.linalg.norm(centers - 0.5, axis=1), 0.0)
    sup = float(np.abs(u_sim - closed).max())

    ok = sup <= 2 * h and math.pi / 24 <= t1 <= 0.5
    report("A5", ok, f"sup err {sup:.2e} (tol {2*h:.2e}), freeze {t1:.8f} in [{math.pi/24:.8f}, 0.5]")


def test_a6_measure_bounds():
    h = 1 / 64
    dom, s, traj = three_source_run(h=h)
    grid = build_grid(dom, h)
    total = s.total_rate

    mu_ok = nu_ok = True
    sq_total = 0.0
    t_prev = 0.0
    for state in traj.states:
        part = partition(grid, s, state.radii)
        mu = rolling_measure(state, s, part, traj.spill_atoms)
        nu = spill_measure(state, s, traj.spill_atoms)
        mu_ok &= mu.values.sum() * grid.cell_area <= dom.diameter * total + 1e-12
        nu_ok &= nu.total_mass <= total + 1e-12
        active = ~state.frozen & (part.areas > 0.0)
        sq_total += float((s.rates[active] ** 2 / part.areas[active]).sum()) * (state.time - t_prev)
        t_prev = state.time
    u_max = float(traj.states[-1].radii.max())
    l2_ok = sq_total <= u_max * total * (1 + 5 * h)

    big = ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [10.0] * 4)
    sc = make_sources(big, [(2, 2)], [1.0])
    thresholds, atoms = big.escape_cost(sc.locations)
    state = ConeState(0.0, np.array([1.0]), thresholds)
    gk = build_grid(big, h)
    mu_cone = rolling_measure(state, sc, partition(gk, sc, state.radii), atoms)
    cone_mass = float(mu_cone.values.sum() * gk.cell_area)
    cone_ok = abs(cone_mass - 2.0 / 3.0) <= 0.01 * (2.0 / 3.0)

    ok = mu_ok and nu_ok and l2_ok and cone_ok
    report(
        "A6",
        ok,
        f"L2 sum {sq_total:.4f} <= {u_max * total * (1 + 5 * h):.4f}, "
        f"cone mass {cone_mass:.5f} vs 2/3",
    )


def test_a7_comparison_principle():
    h = 1 / 64
    times = (0.02, 0.06, 0.1, 0.125, 0.3)
    dom, s, traj = three_source_run(h=h, times=times)
    doubled = make_sources(dom, s.locations, 2.0 * s.rates)
    traj2 = run(doubled, dom, 0.3, list(times), h)

    worst = -np.inf
    for st1, st2 in zip(traj.states, traj2.states):
        u1 = height_field(st1, s, traj.grid).values[traj.grid.inside_mask]
        u2 = height_field(st2, doubled, traj2.grid).values[traj2.grid.inside_mask]
        worst = max(worst, float((u1 - u2).max()))
    report("A7", worst <= 1e-12, f"max undershoot {worst:.2e}")


def test_a8_source_convergence():
    dom = ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [10.0] * 4)
    f = DensitySpec(
        kind=UNIFORM_POLYGON,
        total_mass=1.0,
        polygon=np.array([[1, 1], [3, 1], [3, 3], [1, 3]], dtype=float),
    )
    times = [0.2, 0.5]
    fields = {}
    for n in (4, 16, 64):
        s = discretize(f, n, dom)
        traj = run(s, dom, 0.5, times, 1 / 32)
        fields[n] = [height_field(state, s, traj.grid).values[traj.grid.inside_mask] for state in traj.states]

    ok = True
    detail = []
    for i, t in enumerate(times):
        d1 = float(np.abs(fields[16][i] - fields[4][i]).max())
        d2 = float(np.abs(fields[64][i] - fields[16][i]).max())
        ok &= d2 < d1
        detail.append(f"t={t:g}: {d1:.4f} > {d2:.4f}")
    report("A8", ok, "; ".join(detail))


def test_a9_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst_primal = 0.0
    worst_dual = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        sm = rng.random(m) + 0.2
        dm = rng.random(n) + 0.2
        dm *= sm.sum() / dm.sum()
        p = transport_problem(rng.random((m, 2)), sm, rng.random((n, 2)), dm)
        sol = solve_primal(p)
        worst_primal = max(worst_primal, abs(sol.primal_value - linprog_oracle(p)))
        worst_dual = max(worst_dual, abs(solve_dual(p).value - sol.primal_value))
    ok = worst_primal <= 1e-9 and worst_dual <= 1e-8
    report("A9", ok, f"primal vs oracle {worst_primal:.1e}, dual vs primal {worst_dual:.1e}")
