import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import reference_loops
from test_golden import CONFIGS, GOLDEN_CERTIFICATES
from silopile.cli import resolve_sources
from silopile.cones import run
from silopile.config import parse_config
from silopile.fields import rolling_measure, spill_measure
from silopile.geometry import ConvexDomain
from silopile.regions import build_grid, partition
from silopile.sources import make_sources
from silopile.verify import (
    DiscreteProblem,
    build_problem,
    certify,
    coarsen_problem,
    snapshot_heights,
    solve_dual,
    solve_primal,
    transport_problem,
    wasserstein,
    _TransportSimplex,
)
from silopile.tolerances import LP_TOL, RESIDUE_TOL


def node_costs(p: DiscreteProblem) -> np.ndarray:
    """(m, nd + nb) cost per supply and sink node; boundary columns pay the wall."""
    sinks = np.vstack([p.demand_locations.reshape(p.n_demand, 2), p.boundary_positions])
    cost = np.linalg.norm(p.supply_locations[:, None, :] - sinks[None, :, :], axis=2)
    cost[:, p.n_demand :] += p.boundary_walls
    return cost


def linprog_oracle(p: DiscreteProblem) -> float:
    """Dense-LP value of the same problem via scipy's generic solver.

    One column per boundary node, with no demand of its own: whatever the
    supplies do not send to interior demand leaves over the wall.  The
    constraint matrix is stored sparse so that instances of a few thousand
    cells fit in memory; the LP is the same.
    """
    m = len(p.supply_masses)
    n = p.n_demand + p.n_boundary
    cost = node_costs(p)
    # one row per supply (its whole row of cells), then one per demand column
    a_eq = sp.vstack([sp.kron(sp.eye(m), np.ones((1, n))), sp.kron(np.ones((1, m)), sp.eye(n)).tocsr()[: p.n_demand]])
    b_eq = np.concatenate([p.supply_masses, p.demand_masses])
    res = linprog(cost.ravel(), A_eq=a_eq.tocsr(), b_eq=b_eq, method="highs")
    assert res.status == 0
    return float(res.fun)


def taxed_nodes(domain, spacing):
    """``DiscreteProblem`` boundary fields for the domain's nodes at this spacing."""
    nodes = domain.boundary_nodes(spacing)
    return {
        "boundary_positions": np.array([b.position for b in nodes]),
        "boundary_walls": np.array([domain.wall_height(b) for b in nodes]),
    }


def unit_square(g=0.0):
    return ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [g] * 4)


def spill_problem(domain, y, mass=1.0, spacing=0.05):
    return DiscreteProblem(
        supply_locations=np.atleast_2d(np.asarray(y, dtype=float)),
        supply_masses=np.array([mass]),
        demand_locations=np.empty((0, 2)),
        demand_masses=np.empty(0),
        **taxed_nodes(domain, spacing),
        spill_total=mass,
        h=spacing,
    )


class TestSolvePrimal:
    def test_one_to_one(self):
        p = transport_problem([(0.0, 0.0)], [1.0], [(0.3, 0.0)], [1.0])
        sol = solve_primal(p)
        assert sol.primal_value == pytest.approx(0.3, abs=1e-12)
        assert len(sol.plan_mass) == 1
        assert sol.plan_mass[0] == pytest.approx(1.0)
        assert sol.min_reduced_cost >= -1e-9

    def test_all_mass_to_best_boundary(self):
        dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.3, 0.3, 2.0, 2.0])
        y = (0.4, 0.45)
        p = spill_problem(dom, y, spacing=0.01)
        sol = solve_primal(p)
        assert sol.spill.sum() == pytest.approx(1.0)
        target = dom.escape_cost([y])[0][0]
        assert sol.primal_value == pytest.approx(target, abs=0.01)
        assert sol.primal_value >= target - 1e-12  # node minimum cannot beat the true one

    def test_random_instances_match_dense_lp(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 6))
            sup = rng.random((m, 2))
            dem = rng.random((n, 2))
            sm = rng.random(m) + 0.1
            dm = rng.random(n) + 0.1
            dm *= sm.sum() / dm.sum()
            p = transport_problem(sup, sm, dem, dm)
            sol = solve_primal(p)
            assert sol.primal_value == pytest.approx(linprog_oracle(p), abs=1e-9)
            assert sol.marginal_error <= 1e-9
            assert sol.min_reduced_cost >= -1e-9

    def test_boundary_instances_match_dense_lp(self):
        rng = np.random.default_rng(23)
        dom = unit_square(0.25)
        for _ in range(8):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            sm = rng.random(m) + 0.2
            dm = rng.random(n) + 0.1
            spill = rng.random() * sm.sum() * 0.5
            dm *= (sm.sum() - spill) / dm.sum()
            p = DiscreteProblem(
                supply_locations=rng.random((m, 2)) * 0.8 + 0.1,
                supply_masses=sm,
                demand_locations=rng.random((n, 2)) * 0.8 + 0.1,
                demand_masses=dm,
                **taxed_nodes(dom, 0.25),
                spill_total=spill,
                h=0.25,
            )
            sol = solve_primal(p)
            assert sol.primal_value == pytest.approx(linprog_oracle(p), abs=1e-9)
            assert sol.spill.sum() == pytest.approx(spill, abs=1e-9)

    def test_strong_duality_certificate(self):
        rng = np.random.default_rng(3)
        sup = rng.random((4, 2))
        dem = rng.random((6, 2))
        sm = rng.random(4) + 0.5
        dm = rng.random(6) + 0.5
        dm *= sm.sum() / dm.sum()
        sol = solve_primal(transport_problem(sup, sm, dem, dm))
        assert sol.dual_value == pytest.approx(sol.primal_value, abs=1e-8)


def pricing_blocks(m: int, n: int) -> int:
    """Number of column blocks the simplex prices an m x n problem in."""
    width = -(-_TransportSimplex.BLOCK_CELLS // m)
    return -(-n // width)


def solver_scale(p: DiscreteProblem) -> float:
    """The cost scale the simplex's reduced-cost floor is relative to."""
    cost = node_costs(p)
    top = cost[:, : p.n_demand].max(initial=0.0)
    if p.n_boundary:
        top = max(top, cost[:, p.n_demand :].min(axis=1).max())
    return max(1.0, float(top))


def lattice(k: int) -> np.ndarray:
    """Cell centres of a k x k lattice on the unit square."""
    ticks = (np.arange(k) + 0.5) / k
    return np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)


def block_instance(kind: str, rng) -> DiscreteProblem:
    """16 supplies and 900 demands: pricing cycles through four blocks."""
    m, n = 16, 900
    if kind == "lattice":
        # exact distance ties everywhere, equal masses on each side
        return transport_problem(lattice(4), np.full(m, 1.0 / m), lattice(30), np.full(n, 1.0 / n))
    sm = rng.random(m) + 0.1
    dm = rng.random(n) + 0.1
    if kind == "random":
        return transport_problem(rng.random((m, 2)), sm, rng.random((n, 2)), dm * sm.sum() / dm.sum())
    spill = sm.sum() * rng.uniform(0.2, 0.6)
    return DiscreteProblem(
        supply_locations=rng.random((m, 2)),
        supply_masses=sm,
        demand_locations=rng.random((n, 2)),
        demand_masses=dm * (sm.sum() - spill) / dm.sum(),
        **taxed_nodes(ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], list(rng.uniform(0.0, 0.3, 4))), 0.1),
        spill_total=spill,
        h=0.1,
    )


def shifted_lattice() -> DiscreteProblem:
    """A 10 x 10 unit lattice against itself shifted by half a step.

    With equal masses every pivot is degenerate: the flow never moves.
    """
    g = 10 * lattice(10)
    w = np.full(100, 0.01)
    return transport_problem(g, w, g + (0.5, 0.0), w)


class TestBlockPricing:
    """Instances whose pricing spans several column blocks, against the dense LP."""

    @pytest.mark.parametrize("kind, seed", [("random", 71), ("random", 72), ("lattice", 0), ("spill", 73), ("spill", 74)])
    def test_matches_dense_lp_and_certifies(self, kind, seed):
        p = block_instance(kind, np.random.default_rng(seed))
        assert pricing_blocks(len(p.supply_masses), p.n_demand) >= 3
        sol = solve_primal(p)
        assert abs(sol.primal_value - linprog_oracle(p)) <= 1e-9
        assert sol.marginal_error <= LP_TOL
        assert sol.min_reduced_cost >= -LP_TOL * solver_scale(p)
        assert sol.pivots > pricing_blocks(len(p.supply_masses), p.n_demand)
        if kind == "spill":
            assert sol.spill.sum() == pytest.approx(p.spill_total, abs=1e-12)

    def test_shifted_lattice_without_stalling(self):
        # the strongly feasible leaving rule takes about 200 pivots here
        p = shifted_lattice()
        sol = solve_primal(p)
        assert sol.pivots <= 300
        assert abs(sol.primal_value - 0.5) <= 1e-12
        assert sol.min_reduced_cost >= -LP_TOL * solver_scale(p)


def reference_start(supply, demand, cost):
    """The simplex's starting plan and basic arcs, by plain loops (offsets 0).

    Columns in ascending order of their least cost, each shipped to its live
    rows in order of cost until its demand is met; a row closes when its
    supply runs out, unless it is the last live row, and rounding residue
    stays with the row.  Zero-demand columns wait for the joins.  Then the
    tree grows from row 0's component with potentials, b_j - d_i equal to
    the residual on its arcs: each step takes the least d_i + residual_ij
    from a tree row to another component's column, ties to the lower
    column, then the lower row.  Rows without arcs hang last under the
    column of greatest b_j - residual_rj, ties to the lower column.
    """
    m, n = cost.shape
    cheapest = [min(cost[i, j] for i in range(m)) for j in range(n)]
    residual = [[float(cost[i, j] - cheapest[j]) for j in range(n)] for i in range(m)]
    rem_s = [float(s) for s in supply]
    residue = [RESIDUE_TOL * s for s in rem_s]
    live = [s > 0.0 for s in rem_s]
    flows = np.zeros((m, n))
    arcs = set()
    for j in sorted(range(n), key=lambda j: (cheapest[j], j)):
        rem_d = float(demand[j])
        for i in sorted(range(m), key=lambda i: (residual[i][j], i)):
            if rem_d <= 0.0:
                break
            if not live[i]:
                continue
            last = sum(live) == 1
            take = rem_d if last or rem_d - rem_s[i] <= residue[i] else rem_s[i]
            flows[i, j] = take
            arcs.add((i, j))
            rem_s[i] -= take
            rem_d -= take
            if not last and rem_s[i] <= residue[i]:
                live[i] = False

    forest = sorted(arcs)
    pot, tree = {}, set()

    def attach(x, px):
        """Add x's component to the tree, with potentials outward from x."""
        pot[x] = px
        tree.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for i, j in forest:
                if y == i:
                    z, value = m + j, pot[y] + residual[i][j]
                elif y == m + j:
                    z, value = i, pot[y] - residual[i][j]
                else:
                    continue
                if z not in tree:
                    pot[z] = value
                    tree.add(z)
                    stack.append(z)

    attach(0, 0.0)
    while any(m + j not in tree for j in range(n)):
        value, j, i = min(
            (pot[i] + residual[i][j], j, i) for i in range(m) if i in tree for j in range(n) if m + j not in tree
        )
        arcs.add((i, j))
        attach(m + j, value)
    for r in range(m):
        if r not in tree:
            _, j = max((pot[m + j] - residual[r][j], -j) for j in range(n))
            arcs.add((r, -j))
    return flows, arcs


class TestInitialBasis:
    def test_matches_reference_start(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            m, n = int(rng.integers(1, 20)), int(rng.integers(1, 200))
            supply = rng.random(m) * (rng.random(m) > 0.3)
            supply[0] += 0.1
            demand = rng.random(n) * (rng.random(n) > 0.2)
            demand[-1] += 0.1
            demand *= supply.sum() / demand.sum()
            cost = rng.random((m, n))
            flows, arcs = reference_start(supply, demand, cost)
            solver = _TransportSimplex(supply, demand, cost)
            assert np.array_equal(solver.flows, flows)
            assert {(r, j) for j, rows in enumerate(solver.col_rows) for r in rows} == arcs


def random_transports(rng, count):
    """Balanced problems of 1-19 supplies and 1-199 demands, some masses zero."""
    problems = []
    for _ in range(count):
        m, n = int(rng.integers(1, 20)), int(rng.integers(1, 200))
        supply = rng.random(m) * (rng.random(m) > 0.3)
        supply[0] += 0.1
        demand = rng.random(n) * (rng.random(n) > 0.2)
        demand[-1] += 0.1
        demand *= supply.sum() / demand.sum()
        problems.append(transport_problem(rng.random((m, 2)), supply, rng.random((n, 2)), demand))
    return problems


def spilling_snapshot():
    """``build_problem`` at t = 0.1 of a six-source run in which three sources have frozen."""
    dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.05, 0.3, 0.2, 0.1])
    pts = [(0.2, 0.2), (0.5, 0.25), (0.8, 0.2), (0.25, 0.7), (0.55, 0.6), (0.8, 0.8)]
    s = make_sources(dom, pts, [0.3, 0.5, 0.2, 0.6, 0.4, 0.25])
    state = run(s, dom, 0.1, [0.1], 1 / 32).states[0]
    assert state.frozen.sum() == 3
    return build_problem(state, s, dom, build_grid(dom, 1 / 32), boundary_spacing=1 / 32)


def integer_lattice(k: int) -> np.ndarray:
    return np.argwhere(np.ones((k, k))).astype(float)


TREE_DUAL_CASES = {
    "random": lambda: random_transports(np.random.default_rng(37), 20)
    + [block_instance(kind, np.random.default_rng(38)) for kind in ("random", "spill")],
    # lattice points with dyadic or equal masses: exact ties and degenerate
    # pivots
    "degenerate_lattice": lambda: [
        transport_problem(integer_lattice(4), np.ones(16), integer_lattice(8) / 2, np.full(64, 0.25)),
        block_instance("lattice", None),
        shifted_lattice(),
    ],
    "single_row": lambda: [
        transport_problem([(0.5, 0.5)], [1.0], lattice(7), np.full(49, 1 / 49)),
        spill_problem(unit_square(0.2), (0.4, 0.45)),
    ],
    "spilling_snapshot": lambda: [spilling_snapshot()],
}


class TestTreeDuals:
    """``duals`` against the depth-first walk it replaced (``reference_loops.tree_duals``)."""

    @pytest.mark.parametrize("case", sorted(TREE_DUAL_CASES))
    def test_bit_equal_at_every_call(self, monkeypatch, case):
        problems = TREE_DUAL_CASES[case]()
        duals, calls = _TransportSimplex.duals, []

        def compared(solver):
            u, v = duals(solver)
            ref_u, ref_v = reference_loops.tree_duals(solver)
            assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)
            calls.append(solver.pivots)
            return u, v

        monkeypatch.setattr(_TransportSimplex, "duals", compared)
        for p in problems:
            solve_primal(p)
        # at least the starting tree's duals and the final tree's, per solve
        assert len(calls) >= 2 * len(problems)

    def test_disconnected_basis_raises(self):
        rng = np.random.default_rng(31)
        supply, demand = rng.random(4) + 0.1, rng.random(9) + 0.1
        solver = _TransportSimplex(supply, demand * supply.sum() / demand.sum(), rng.random((4, 9)))
        j = solver.parent[1] - solver.m
        assert j >= 0  # row 1 hangs under a junction column
        solver.col_rows[j].discard(1)
        solver.row_junc[1].discard(j)
        for duals in (solver.duals, lambda: reference_loops.tree_duals(solver)):
            with pytest.raises(RuntimeError, match="basis tree is not connected"):
                duals()


class TestStronglyFeasible:
    """The tree after ``_initial_basis`` and after every pivot is strongly feasible."""

    @staticmethod
    def assert_strongly_feasible(solver):
        # A zero-flow arc to a junction column hangs the column under its row.
        # Rows of zero supply are skipped: all their arcs carry zero flow and
        # their parent is a column, so no tree can orient them away from the root.
        m = solver.m
        for j, rows in enumerate(solver.col_rows):
            if len(rows) < 2:
                continue
            for r in rows:
                if solver.supply[r] > 0.0 and solver.flows[r, j] == 0.0:
                    assert solver.parent[m + j] == r, f"zero-flow arc ({r}, {j}) points toward the root"

    @pytest.mark.parametrize("case", sorted(TREE_DUAL_CASES))
    def test_every_tree(self, monkeypatch, case):
        problems = TREE_DUAL_CASES[case]()
        start, pivot, checked = _TransportSimplex._initial_basis, _TransportSimplex._pivot, []

        def checked_start(solver, offset):
            start(solver, offset)
            self.assert_strongly_feasible(solver)
            checked.append(0)

        def checked_pivot(solver, *enter):
            pivot(solver, *enter)
            self.assert_strongly_feasible(solver)
            checked.append(solver.pivots)

        monkeypatch.setattr(_TransportSimplex, "_initial_basis", checked_start)
        monkeypatch.setattr(_TransportSimplex, "_pivot", checked_pivot)
        for p in problems:
            solve_primal(p)
        assert checked.count(0) == len(problems)


class TestRadiiStart:
    """With the cone radii as row offsets, the start is the partition's plan.

    Each demand cell's cheapest row under c_ij - r_i is its label, and the
    frozen rows are the absorbing column's, so a handful of pivots prove
    the optimum.  Values equal the recorded optima to 1e-12; for
    two_source, the golden certificates' primal column.
    """

    def test_spilling_snapshot(self):
        p = spilling_snapshot()
        sol = solve_primal(p)
        assert sol.pivots <= 5
        assert abs(sol.primal_value - 0.6334023423595533) <= 1e-12
        assert sol.min_reduced_cost >= -LP_TOL * solver_scale(p)
        # the offsets make the difference: without them the same start pivots
        assert solve_primal(replace(p, radii=None)).pivots > 20

    def test_two_source_snapshots(self):
        cfg = parse_config(CONFIGS / "two_source.ini")
        dom = cfg.domain()
        s = resolve_sources(cfg, dom)
        traj = run(s, dom, cfg.horizon, cfg.snapshot_times, cfg.grid_h)
        grid = build_grid(dom, cfg.grid_h)
        assert len(traj.states) == len(GOLDEN_CERTIFICATES)
        for state, golden in zip(traj.states, GOLDEN_CERTIFICATES):
            p = build_problem(state, s, dom, grid, cfg.boundary_spacing)
            sol = solve_primal(p)
            assert sol.pivots <= 5
            assert abs(sol.primal_value - golden[1]) <= 1e-12
            assert sol.min_reduced_cost >= -LP_TOL * solver_scale(p)


class TestSolveDual:
    def test_kantorovich_rubinstein(self):
        p = transport_problem([(0.1, 0.2)], [1.0], [(0.7, 0.6)], [1.0])
        d = solve_dual(p)
        dist = np.hypot(0.6, 0.4)
        assert d.value == pytest.approx(dist, abs=1e-8)
        assert d.u[0] - d.w[0] == pytest.approx(dist, abs=1e-8)

    def test_wall_spill_matches_primal(self):
        dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.3, 0.3, 2.0, 2.0])
        p = spill_problem(dom, (0.4, 0.45), spacing=0.05)
        d = solve_dual(p)
        sol = solve_primal(p)
        assert d.value == pytest.approx(sol.primal_value, abs=1e-8)

    def test_strong_duality_random(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            sm = rng.random(m) + 0.1
            dm = rng.random(n) + 0.1
            dm *= sm.sum() / dm.sum()
            p = transport_problem(rng.random((m, 2)), sm, rng.random((n, 2)), dm)
            assert solve_dual(p).value == pytest.approx(solve_primal(p).primal_value, abs=1e-8)

    def test_coarsening_caps_nodes(self):
        rng = np.random.default_rng(9)
        n = 600
        p = transport_problem(
            [(0.5, 0.5)], [1.0], rng.random((n, 2)), np.full(n, 1.0 / n), h=0.02
        )
        pc = coarsen_problem(p, node_cap=200)
        assert 1 + pc.n_demand + pc.n_boundary <= 200
        assert pc.demand_masses.sum() == pytest.approx(1.0)


def random_balanced_problem(rng, walls):
    """Up to 3 supplies and 12 demands anywhere in the unit square, balanced.

    ``walls`` is None for no boundary, or the four vertex wall heights of
    the unit square; then 10% to 90% of the supply spills over the wall.
    """
    m = int(rng.integers(1, 4))
    nd = int(rng.integers(1, 13))
    sm = rng.random(m) + 0.1
    dm = rng.random(nd) + 0.1
    if walls is None:
        return transport_problem(rng.random((m, 2)), sm, rng.random((nd, 2)), dm * sm.sum() / dm.sum())
    spill = sm.sum() * rng.uniform(0.1, 0.9)
    dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], walls)
    return DiscreteProblem(
        supply_locations=rng.random((m, 2)),
        supply_masses=sm,
        demand_locations=rng.random((nd, 2)),
        demand_masses=dm * (sm.sum() - spill) / dm.sum(),
        **taxed_nodes(dom, float(rng.choice([0.2, 0.35, 1.0]))),
        spill_total=spill,
        h=0.1,
    )


def wall_nearer_than_supplies(p: DiscreteProblem) -> bool:
    """Whether some boundary node lies nearer a demand than every supply does.

    There a dual that lets the boundary feed demand would undercut the
    transport optimum.
    """
    to_supply = np.linalg.norm(p.supply_locations[:, None, :] - p.demand_locations[None, :, :], axis=2)
    to_wall = np.linalg.norm(p.boundary_positions[:, None, :] - p.demand_locations[None, :, :], axis=2)
    return bool(np.any(to_wall.min(axis=0, initial=np.inf) < to_supply.min(axis=0)))


WALL_CASES = {
    "no_boundary": lambda rng: None,
    "zero_walls": lambda rng: [0.0] * 4,
    "positive_walls": lambda rng: list(rng.uniform(0.05, 0.6, 4)),
}


class TestSolveDualOracle:
    """The dual LP against the dense transport LP on small random instances."""

    @pytest.mark.parametrize("case, seed", [("no_boundary", 41), ("zero_walls", 42), ("positive_walls", 43)])
    def test_value_matches_transport_lp(self, case, seed):
        rng = np.random.default_rng(seed)
        undercut = 0
        for _ in range(25):
            p = random_balanced_problem(rng, WALL_CASES[case](rng))
            assert abs(solve_dual(p, node_cap=10_000).value - linprog_oracle(p)) <= 1e-12
            undercut += wall_nearer_than_supplies(p)
        assert undercut > 0 or case == "no_boundary"

    @pytest.mark.parametrize("case, seed", [("no_boundary", 61), ("zero_walls", 62), ("positive_walls", 63)])
    def test_potentials_feasible_and_score_value(self, case, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            p = random_balanced_problem(rng, WALL_CASES[case](rng))
            d = solve_dual(p, node_cap=10_000)
            assert d.problem is p  # nothing coarsened under this cap
            cost = node_costs(p)
            assert (d.u[:, None] - d.w[None, :] - cost[:, : p.n_demand]).max() <= 1e-12
            if p.n_boundary:
                assert (d.u - cost[:, p.n_demand :].min(axis=1)).max() <= 1e-12
            score = p.supply_masses @ d.u - p.demand_masses @ d.w
            assert abs(score - d.value) <= 1e-12

    def test_boundary_only_absorbs(self):
        # The wall node (0.5, 1) lies 0.1 from the demand, which is 0.8 from
        # the supply.  The boundary absorbs but never feeds demand, so the
        # optimum ships 0.5 over 0.8 and spills 0.5 over 0.1.
        p = DiscreteProblem(
            supply_locations=np.array([[0.5, 0.1]]),
            supply_masses=np.array([1.0]),
            demand_locations=np.array([[0.5, 0.9]]),
            demand_masses=np.array([0.5]),
            boundary_positions=np.array([[0.5, 0.0], [0.5, 1.0]]),
            boundary_walls=np.zeros(2),
            spill_total=0.5,
            h=0.1,
        )
        assert wall_nearer_than_supplies(p)
        assert solve_primal(p).primal_value == pytest.approx(0.45, abs=1e-12)
        assert linprog_oracle(p) == pytest.approx(0.45, abs=1e-12)
        assert solve_dual(p).value == pytest.approx(0.45, abs=1e-12)


class TestWasserstein:
    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(11)
        for n in (3, 5, 6):
            a = rng.random((n, 2))
            b = rng.random((n, 2))
            w = wasserstein(a, np.full(n, 1.0 / n), b, np.full(n, 1.0 / n))
            brute = min(
                sum(np.linalg.norm(a[i] - b[sigma[i]]) for i in range(n)) / n
                for sigma in itertools.permutations(range(n))
            )
            assert w == pytest.approx(brute, abs=1e-9)

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            transport_problem([(0, 0)], [1.0], [(1, 1)], [0.5])


class TestSnapshotPipeline:
    def make_snapshot(self, t=0.25, h=1 / 32):
        dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.12, 0.3, 0.2, 0.25])
        s = make_sources(dom, [(0.3, 0.35), (0.7, 0.6)], [0.6, 0.8])
        traj = run(s, dom, t, [t], h)
        return dom, s, traj.states[0], h

    def test_prefreeze_all_interior(self):
        dom, s, state, h = self.make_snapshot(t=0.05)
        grid = build_grid(dom, h)
        p = build_problem(state, s, dom, grid, boundary_spacing=h)
        assert p.n_boundary > 0
        assert p.spill_total == 0.0
        sol = solve_primal(p)
        assert sol.spill.sum() == 0.0
        assert sol.primal_value > 0.0

    def test_postfreeze_spills_frozen_rates(self):
        dom, s, state, h = self.make_snapshot(t=0.6)
        assert state.frozen.all()
        grid = build_grid(dom, h)
        p = build_problem(state, s, dom, grid, boundary_spacing=h)
        sol = solve_primal(p)
        assert sol.spill.sum() == pytest.approx(s.total_rate)

    def test_coarse_grid_rejected_for_imbalance(self):
        from silopile.cones import ConeState

        dom = unit_square(5.0)
        s = make_sources(dom, [(0.3, 0.35), (0.7, 0.6)], [0.6, 0.8])
        thresholds, _ = dom.escape_cost(s.locations)
        # radii too small for a 0.45 grid: their cells carry no demand mass
        state = ConeState(0.01, np.array([0.02, 0.02]), np.array([False, False]), thresholds)
        tiny_grid = build_grid(dom, 0.45)
        with pytest.raises(ValueError):
            build_problem(state, s, dom, tiny_grid, boundary_spacing=0.45)

    def test_certify_passes_midrun(self):
        for t in (0.08, 0.25):  # pre-freeze and fully frozen
            dom, s, state, h = self.make_snapshot(t=t)
            grid = build_grid(dom, h)
            p = build_problem(state, s, dom, grid, boundary_spacing=h)
            sol = solve_primal(p)
            report = certify(*snapshot_heights(state, s, p), sol, p)
            assert report.passed, (t, report)

    def test_certify_fails_on_perturbation(self):
        dom, s, state, h = self.make_snapshot(t=0.08)
        grid = build_grid(dom, h)
        p = build_problem(state, s, dom, grid, boundary_spacing=h)
        assert p.n_demand > 0
        sol = solve_primal(p)
        u_s, u_d, u_b = snapshot_heights(state, s, p)
        u_d = u_d.copy()
        u_d[0] += 0.1
        report = certify(u_s, u_d, u_b, sol, p)
        assert not report.passed
        assert max(report.ray_residual, report.duality_gap) >= 0.1 - 1e-9

    def test_exact_pair_zero_residuals(self):
        p = transport_problem([(0.2, 0.2)], [1.0], [(0.8, 0.6)], [1.0])
        sol = solve_primal(p)
        dist = np.hypot(0.6, 0.4)
        report = certify(np.array([dist]), np.array([0.0]), np.empty(0), sol, p)
        assert report.ray_residual == pytest.approx(0.0, abs=1e-12)
        assert report.duality_gap == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_spill_optimality(self):
        dom, s, state, h = self.make_snapshot(t=0.6)
        grid = build_grid(dom, h)
        p = build_problem(state, s, dom, grid, boundary_spacing=h)
        sol = solve_primal(p)
        pos = p.boundary_positions
        for idx in range(len(sol.plan_mass)):
            sink = sol.plan_sink[idx]
            if sink < p.n_demand:
                continue
            b = sink - p.n_demand
            y = p.supply_locations[sol.plan_supply[idx]]
            cost_b = p.boundary_walls[b] + np.linalg.norm(y - pos[b])
            all_costs = p.boundary_walls + np.linalg.norm(pos - y, axis=1)
            assert cost_b <= all_costs.min() + 1e-9

    def test_rolling_mass_matches_plan_cost(self):
        dom, s, state, h = self.make_snapshot(t=0.25)
        grid = build_grid(dom, h)
        part = partition(grid, s, state.radii)
        mu = rolling_measure(state, s, part, dom.escape_cost(s.locations)[1])
        p = build_problem(state, s, dom, grid, boundary_spacing=h)
        sol = solve_primal(p)
        sink_pos = np.vstack([p.demand_locations, p.boundary_positions])
        dist = np.linalg.norm(
            p.supply_locations[sol.plan_supply] - sink_pos[sol.plan_sink], axis=1
        )
        plan_distance_cost = float((sol.plan_mass * dist).sum())
        assert abs(mu.total_mass - plan_distance_cost) <= 10 * h * s.total_rate * dom.diameter
