import importlib.util
import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import reference_loops
from test_golden import CONFIGS, GOLDEN_CERTIFICATES
from silopile.cli import resolve_sources
from silopile.cones import ConeState, analytic_phase, run
from silopile.config import parse_config
from silopile.fields import height_field, heights_at, rolling_measure, spill_measure
from silopile.geometry import ConvexDomain
from silopile.regions import build_grid, partition
from silopile.sources import discretize, make_sources
from silopile.verify import (
    DiscreteProblem,
    build_problem,
    certify,
    certify_snapshot,
    coarsen_problem,
    solve_dual,
    solve_primal,
    transport_problem,
    wasserstein,
    _TransportSimplex,
    _transport_costs,
)
from silopile.tolerances import DUAL_NODE_CAP, LP_TOL, RESIDUE_TOL


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
    return {"boundary_positions": nodes.position, "boundary_walls": domain.wall_height(nodes)}


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
        # exact distance ties everywhere; a ramp of supplies, (1 + i) / 136,
        # moves the optimum far from the nearest-source plan
        return transport_problem(lattice(4), np.arange(1, m + 1) / 136, lattice(30), np.full(n, 1.0 / n))
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
    rows in order of cost until its demand is met, first to the tied
    cheapest live row with the most supply left; a row closes when its
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
        order = sorted(range(m), key=lambda i: (residual[i][j], i))
        # of several live rows at the least cost, the one with the most
        # supply left goes first, the lowest of those with equal supply
        tied = [i for i in range(m) if residual[i][j] == 0.0 and live[i]]
        if len(tied) > 1:
            most = max(rem_s[i] for i in tied)
            pick = min(i for i in tied if rem_s[i] == most)
            order = [pick] + [i for i in order if i != pick]
        for i in order:
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


def dense_plan(solver) -> np.ndarray:
    """The (m, n) flow matrix of a simplex's basic arcs."""
    rows, cols, flows = solver.plan()
    dense = np.zeros((solver.m, solver.n))
    dense[rows, cols] = flows
    return dense


class TestInitialBasis:
    def test_matches_reference_start(self):
        # every other problem has costs in quarters, so that most of its
        # columns have several exactly tied cheapest rows
        rng = np.random.default_rng(29)
        for k in range(80):
            m, n = int(rng.integers(1, 20)), int(rng.integers(1, 200))
            supply = rng.random(m) * (rng.random(m) > 0.3)
            supply[0] += 0.1
            demand = rng.random(n) * (rng.random(n) > 0.2)
            demand[-1] += 0.1
            demand *= supply.sum() / demand.sum()
            cost = rng.random((m, n))
            if k % 2:
                cost = np.round(cost * 4) / 4
            flows, arcs = reference_start(supply, demand, cost)
            solver = _TransportSimplex(supply, demand, cost)
            assert np.array_equal(dense_plan(solver), flows)
            rows, cols, _ = solver.plan()
            assert len(rows) == m + n - 1
            assert set(zip(rows.tolist(), cols.tolist())) == arcs

    @pytest.mark.parametrize(
        "cost, supply, demand, col, flows",
        [
            # column 0 ties rows 0 and 1 and goes first to row 1, which has
            # more supply left; row 0 would fill up and push column 1 to row 1
            ([[1, 2], [1, 3]], [0.25, 0.75], [0.5, 0.5], 0, [0.0, 0.5]),
            # equal supply left: the lower row
            ([[1, 2], [1, 3]], [0.5, 0.5], [0.5, 0.5], 0, [0.5, 0.0]),
            # supply left, not initial supply: column 0 (row 1 only) leaves
            # row 1 with 0.3 < row 0's 0.4, so tied column 1 ships to row 0
            ([[9, 2, 3], [1, 2, 4]], [0.4, 0.6], [0.3, 0.3, 0.4], 1, [0.3, 0.0]),
        ],
        ids=["more_supply_left", "equal_supply", "supply_left_not_initial"],
    )
    def test_tied_column_goes_to_the_row_with_more_supply_left(self, cost, supply, demand, col, flows):
        cost = np.array(cost, dtype=float)
        plan = dense_plan(_TransportSimplex(supply, demand, cost))
        assert plan[:, col].tolist() == flows
        assert np.array_equal(plan, reference_start(supply, demand, cost)[0])

    def test_join_ties_go_to_the_lower_row(self):
        # Each row ships to its own column 0, 1 or 2.  Row 0 joins column 2
        # at potential 2, then column 1 at 4; zero-demand column 3 is then
        # reached at 4 both from row 2 (2 + 2, first) and from row 1 (4 + 0),
        # and hangs under the lower row, 1.
        cost = np.array([[0, 4, 2, 10], [5, 0, 5, 0], [5, 5, 0, 2]], dtype=float)
        supply, demand = [1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]
        rows, cols, _ = _TransportSimplex(supply, demand, cost).plan()
        arcs = set(zip(rows.tolist(), cols.tolist()))
        assert arcs == {(0, 0), (1, 1), (2, 2), (0, 2), (0, 1), (1, 3)}
        assert arcs == reference_start(supply, demand, cost)[1]

    def test_join_keeps_the_entry_potential(self):
        # Row 1 alone has supply, and column 1 ships to it although row 2 is
        # its cheapest: the arc's residual is 0.8 - 0.1.  Column 1 joins from
        # row 0 at potential 0.2 - 0.1 = 0.1, two ulps above column 0's
        # 0.5 - 0.4; recomputed through row 1, (0.1 - 0.7) + 0.7 would drop
        # it to column 0's value.  Zero-supply row 2 hangs under the column
        # of greatest potential less its residual (0 for both): column 1.
        cost = np.array([[0.5, 0.2, 0.4], [0.6, 0.8, 0.5], [0.4, 0.1, 0.5]])
        supply, demand = [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]
        rows, cols, _ = _TransportSimplex(supply, demand, cost).plan()
        arcs = set(zip(rows.tolist(), cols.tolist()))
        assert arcs == {(1, 1), (0, 2), (0, 0), (0, 1), (2, 1)}
        assert arcs == reference_start(supply, demand, cost)[1]

    def test_leaf_arc_cannot_leave(self):
        # row 0 serves columns 0 and 1, row 1 columns 2 and 3; one join
        # makes a junction, and the other columns stay leaves
        solver = _TransportSimplex([0.5, 0.5], np.full(4, 0.25), np.arange(8.0).reshape(2, 4))
        leaves = [j for j in range(4) if len(solver.col_rows.get(j, ())) < 2]
        assert len(leaves) == 3
        for j in leaves:
            with pytest.raises(RuntimeError, match="disconnect its column"):
                solver._remove_arc(int(solver.col_row[j]), j)


def first_event(supply, demand, residual, cheapest, first):
    """Why the first column of the visiting order that cannot ship whole to its cheapest row cannot.

    Returns the kind and the column's place among the positive-demand
    columns, or (None, their count) when every column ships whole.
    """
    live = supply > 0.0
    if not live.any():
        live[0] = True
    left = supply.tolist()
    visits = [j for j in np.argsort(cheapest, kind="stable").tolist() if demand[j] > 0.0]
    for place, j in enumerate(visits):
        i, residue = first[j], RESIDUE_TOL * supply[first[j]]
        if np.count_nonzero(residual[:, j] == 0.0) > 1:
            return "tied", place
        if not live[i]:
            return "zero_supply_row", place
        after = left[i] - demand[j]
        if after <= residue:
            return ("full_take_closes" if demand[j] - left[i] <= residue else "partial_take"), place
        left[i] = after
    return None, len(visits)


def event_problem(kind, rng):
    """Supply, demand, cost and offsets whose greedy start meets ``kind`` first.

    Each row's supply is the demand of the columns it is cheapest for, its
    load, plus a slack of 1e-11 of it and 1e-11 more: far above its
    rounding residue, so no column meets an event unless the kind places
    one, and together far below ``LP_TOL``.  A last row that is no
    column's cheapest takes up the supply a kind moves off a row.
    """
    m = int(rng.integers(2, 20))
    n = int(rng.integers(2 * m, 200))
    cost = rng.random((m, n))
    cost[-1] += 2.0
    offset = None if rng.random() < 0.5 else rng.random(m) * 0.1
    demand = rng.random(n) + 0.01
    if kind == "zero_demand_columns":
        demand[:-1][rng.random(n - 1) < 0.3] = 0.0
        demand[rng.integers(n - 1)] = 0.0
    elif kind == "single_live_row":
        # row 0 is the cheapest of most columns, and the one row with supply
        cost[0, rng.random(n) < 0.9] -= 1.0
    key = cost - (0.0 if offset is None else offset[:, None])
    if kind == "tied":
        # from the middle of the visiting order on, every third column ties
        # its two or three cheapest rows
        offset, key = None, cost
        for k, j in enumerate(np.argsort(cost.min(axis=0), kind="stable")[n // 2 :: 3]):
            rows = np.argsort(cost[:, j])[: 2 + k % 2]
            cost[rows, j] = cost[rows[0], j]
    first = key.argmin(axis=0)
    load = np.bincount(first, weights=demand, minlength=m)
    supply = load * (1.0 + 1e-11) + 1e-11
    # a row that is the cheapest of at least two columns
    r = int(rng.choice(np.flatnonzero(np.bincount(first[demand > 0.0], minlength=m)[:-1] > 1)))
    if kind == "partial_take":
        supply[r] = load[r] / 2
    elif kind == "full_take_closes":
        # all but its last column: that one finds the row closed, within residue of 0 or below
        last = [j for j in np.argsort(key.min(axis=0), kind="stable") if first[j] == r][-1]
        supply[r] = load[r] - demand[last]
    elif kind == "zero_supply_row":
        supply[r] = 0.0
    elif kind == "single_live_row":
        supply[:] = 0.0
        supply[0] = demand.sum()
    supply[-1] += max(0.0, demand.sum() - supply.sum())
    return supply, demand, cost, offset


EVENT_KINDS = ["tied", "partial_take", "full_take_closes", "zero_supply_row", "single_live_row", "zero_demand_columns", None]


class TestGreedyPrefix:
    """``_greedy`` against the per-column loop it replaced, ``reference_loops.greedy_start``.

    The one-pass prefix ends at the first event; each case puts a
    different event first, or none at all.
    """

    @pytest.mark.parametrize("kind", EVENT_KINDS, ids=str)
    def test_matches_per_column_loop(self, kind):
        rng = np.random.default_rng(EVENT_KINDS.index(kind))
        prefixes = []
        for _ in range(40):
            supply, demand, cost, offset = event_problem(kind, rng)
            solver = _TransportSimplex(supply, demand, cost, offset)
            key = cost - (0.0 if offset is None else offset[:, None])
            cheapest, first = key.min(axis=0), key.argmin(axis=0)
            key -= cheapest
            met, place = first_event(supply, demand, key, cheapest, first)
            if kind == "single_live_row":
                assert np.count_nonzero(supply) == 1
            elif kind == "zero_demand_columns":
                assert met is None and (demand == 0.0).any()
            else:
                assert met == kind
            prefixes.append(place)
            got = solver._greedy(key, cheapest, first)
            want = reference_loops.greedy_start(supply, demand, key, cheapest, first)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # most starts ship some columns in one pass before their first event
        assert np.count_nonzero(prefixes) > 20


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
    # lattice points with dyadic, equal or ramped masses: exact ties and
    # degenerate pivots
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


class TestOptimalStartPricing:
    """A start that prices out is proven by the pricing cycle that found no entering arc.

    Its tree duals are the ones that cycle priced with, so the least of
    its block minima is the least of all m*n reduced costs; only a tree
    that pivoted prices all blocks again under fresh duals.
    """

    @staticmethod
    def count_block_mins(monkeypatch):
        block_min, calls = _TransportSimplex._block_min, []

        def counted(solver, lo, width):
            calls.append(solver.pivots)
            return block_min(solver, lo, width)

        monkeypatch.setattr(_TransportSimplex, "_block_min", counted)
        return calls

    def test_n64_w1_prices_each_block_once(self, monkeypatch):
        study = convergence_study()
        cfg = parse_config(study.CONFIG)
        domain, f = cfg.domain(), cfg.density
        qpts, qw = study.quadrature()
        s = discretize(f, 64, domain)
        calls = self.count_block_mins(monkeypatch)
        sol = solve_primal(transport_problem(s.locations, s.rates, qpts, qw))
        assert sol.pivots == 0
        assert len(calls) == pricing_blocks(64, 3600) == 57
        assert sol.min_reduced_cost >= -LP_TOL

    def test_spilling_snapshot_prices_each_block_once(self, monkeypatch):
        p = spilling_snapshot()
        calls = self.count_block_mins(monkeypatch)
        sol = solve_primal(p)
        assert sol.pivots == 0
        # the absorbing column is one more
        assert len(calls) == pricing_blocks(len(p.supply_masses), p.n_demand + 1)

    def test_pivoted_tree_prices_all_blocks_again(self, monkeypatch):
        p = block_instance("random", np.random.default_rng(71))
        calls = self.count_block_mins(monkeypatch)
        sol = solve_primal(p)
        assert sol.pivots > 0
        assert calls.count(sol.pivots) == 2 * pricing_blocks(len(p.supply_masses), p.n_demand)
        assert abs(sol.primal_value - linprog_oracle(p)) <= 1e-9


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
        for j, rows in solver.col_rows.items():
            if len(rows) < 2:
                continue
            for r in rows:
                if solver.supply[r] > 0.0 and solver.arc_flow[r, j] == 0.0:
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


def simplex_inputs(p: DiscreteProblem):
    """The supply, demand, cost and row offsets ``solve_primal`` hands its simplex."""
    cost, absorb, _ = _transport_costs(p)
    demand = p.demand_masses
    if absorb is not None:
        cost = np.hstack([cost, absorb[:, None]])
        demand = np.append(demand, p.spill_total)
    return p.supply_masses, demand, cost, p.radii


def quantized_transports(rng, count):
    """Simplex inputs with costs in quarters, so that keys and potentials tie exactly.

    Some supplies and demands are zero; every other problem has random row
    offsets, also in quarters.
    """
    cases = []
    for k in range(count):
        m, n = int(rng.integers(2, 20)), int(rng.integers(2, 200))
        supply = rng.random(m) * (rng.random(m) > 0.3)
        supply[0] += 0.1
        demand = rng.random(n) * (rng.random(n) > 0.2)
        demand[-1] += 0.1
        demand *= supply.sum() / demand.sum()
        offset = None if k % 2 else np.round(rng.random(m) * 4) / 4
        cases.append((supply, demand, np.round(rng.random((m, n)) * 4) / 4, offset))
    return cases


def residue_transport():
    """Row 0 runs out within rounding residue of its supply before a column that prefers it.

    0.4 - 0.1 - 0.1 - 0.1 - 0.1 leaves 2.8e-17 on row 0, so it closes, and
    column 4 ships all of its demand to row 1.
    """
    cost = np.ones((2, 10))
    cost[0, :4] = 0.0
    cost[1, 5:] = 0.0
    cost[:, 4] = (0.5, 0.6)
    return np.array([0.4, 0.6]), np.full(10, 0.1), cost, None


ORACLE_CASES = {
    # rows with zero supply, columns with zero demand; every other problem
    # with random row offsets
    "random": lambda: [
        simplex_inputs(replace(p, radii=None if k % 2 else np.random.default_rng(k).random(len(p.supply_masses))))
        for k, p in enumerate(random_transports(np.random.default_rng(41), 24))
    ],
    "ties": lambda: [
        simplex_inputs(shifted_lattice()),
        simplex_inputs(transport_problem(integer_lattice(4), np.ones(16), integer_lattice(8) / 2, np.full(64, 0.25))),
        *quantized_transports(np.random.default_rng(47), 40),
    ],
    "residue": lambda: [residue_transport()],
    # the absorbing column, with and without the cone radii as offsets
    "absorbing": lambda: [simplex_inputs(spilling_snapshot()), simplex_inputs(block_instance("spill", np.random.default_rng(43)))],
}


class TestDenseOracle:
    """The simplex against ``reference_loops.DenseTransportSimplex``, which kept an (m, n) flow matrix.

    Starts, trees, pivot counts and duals must be the same bits.
    """

    @staticmethod
    def assert_same_basis(solver, oracle):
        assert np.array_equal(dense_plan(solver), oracle.flows)
        assert solver.parent == oracle.parent
        assert solver.depth == oracle.depth
        assert np.array_equal(solver.col_row, oracle.col_row)
        junctions = {j: rows for j, rows in solver.col_rows.items() if len(rows) > 1}
        assert junctions == {j: rows for j, rows in enumerate(oracle.col_rows) if len(rows) > 1}
        # set iteration order picks col_row when a junction loses that arc
        assert all(list(rows) == list(oracle.col_rows[j]) for j, rows in junctions.items())
        # only junction columns keep their arcs in Python containers
        assert set(solver.arc_flow) == {(i, j) for j, rows in junctions.items() for i in rows}
        assert all(len(rows) <= solver.m for rows in junctions.values()) and len(junctions) < solver.m

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_same_start_tree_pivots_and_duals(self, case):
        for args in ORACLE_CASES[case]():
            solver, oracle = _TransportSimplex(*args), reference_loops.DenseTransportSimplex(*args)
            self.assert_same_basis(solver, oracle)
            for got, want in zip(solver.duals(), oracle.duals()):
                assert np.array_equal(got, want)
            if case == "residue":
                assert dense_plan(solver)[:, 4].tolist() == [0.0, 0.1]
            solver.solve()
            oracle.solve()
            assert solver.pivots == oracle.pivots
            self.assert_same_basis(solver, oracle)
            assert np.array_equal(solver.u, oracle.u) and np.array_equal(solver.v, oracle.v)
            assert solver.min_rc == oracle.min_rc


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
        p = replace(transport_problem([(0.5, 0.5)], [1.0], rng.random((n, 2)), np.full(n, 1.0 / n)), h=0.02)
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

    @pytest.mark.parametrize("case, seed", [("no_boundary", 71), ("zero_walls", 72), ("positive_walls", 73)])
    def test_unpivoted_tree_still_bounds_below(self, case, seed, monkeypatch):
        # The c-transform makes any tree's potentials feasible, so a simplex
        # stopped before its first pivot still yields a lower bound: never
        # above the optimum, and a gap that shows the plan is not optimal.
        def unpivoted(self):
            self.u, self.v = self.duals()
            self.min_rc = float((self.cost - self.u[:, None] - self.v).min())

        rng = np.random.default_rng(seed)
        problems = [random_balanced_problem(rng, WALL_CASES[case](rng)) for _ in range(40)]
        problems = [p for p in problems if solve_primal(p).pivots > 0]
        assert len(problems) >= 5
        monkeypatch.setattr(_TransportSimplex, "solve", unpivoted)
        gaps = []
        for p in problems:
            d = solve_dual(p, node_cap=10_000)
            assert d.primal.pivots == 0
            cost = node_costs(p)
            assert (d.u[:, None] - d.w[None, :] - cost[:, : p.n_demand]).max() <= 1e-12
            if p.n_boundary:
                assert (d.u - cost[:, p.n_demand :].min(axis=1)).max() <= 1e-12
            assert d.value <= linprog_oracle(p) + 1e-12
            gaps.append(d.primal.primal_value - d.value)
        assert max(gaps) > LP_TOL

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

    @pytest.mark.parametrize(
        "masses, locations, named",
        [
            ([np.nan, 1.0], [[0, 0], [1, 0]], "supply_masses must be finite"),
            ([np.inf, 1.0], [[0, 0], [1, 0]], "supply_masses must be finite"),
            ([-1.0, 2.0], [[0, 0], [1, 0]], "supply_masses must be nonnegative"),
            ([0.5, 0.5], [[0, 0], [np.inf, 0]], "supply_locations must be finite"),
            ([0.5, 0.5], [[0, 0], [1, np.nan]], "supply_locations must be finite"),
        ],
    )
    def test_rejects_bad_supply(self, masses, locations, named):
        with pytest.raises(ValueError, match=named):
            wasserstein(locations, masses, [[0, 1], [1, 1]], [0.5, 0.5])

    @pytest.mark.parametrize(
        "masses, locations, named",
        [
            ([0.5, np.nan], [[0, 1], [1, 1]], "demand_masses must be finite"),
            ([2.0, -1.0], [[0, 1], [1, 1]], "demand_masses must be nonnegative"),
            ([0.5, 0.5], [[0, 1], [-np.inf, 1]], "demand_locations must be finite"),
        ],
    )
    def test_rejects_bad_demand(self, masses, locations, named):
        with pytest.raises(ValueError, match=named):
            wasserstein([[0, 0], [1, 0]], [0.5, 0.5], locations, masses)

    @pytest.mark.parametrize(
        "locations, masses, named",
        [
            ([[0, 0]], [0.5, 0.5], r"supply_masses must have shape \(1,\)"),
            ([[0, 0], [1, 0]], [1.0], r"supply_masses must have shape \(2,\)"),
            ([[0, 0, 0]], [1.0], r"supply_locations must have shape \(k, 2\), not \(1, 3\)"),
        ],
        ids=["one_location_two_masses", "two_locations_one_mass", "three_coordinates"],
    )
    def test_rejects_bad_shapes(self, locations, masses, named):
        with pytest.raises(ValueError, match=named):
            transport_problem(locations, masses, [[0, 1], [1, 1]], [0.5, 0.5])
        # the same shapes on the demand side name the demand argument
        with pytest.raises(ValueError, match=named.replace("supply", "demand")):
            transport_problem([[0, 1], [1, 1]], [0.5, 0.5], locations, masses)


def convergence_study():
    """``scripts/convergence_study.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"
    spec = importlib.util.spec_from_file_location("convergence_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestConvergenceStudyW1:
    """The W1 solves of ``scripts/convergence_study.py``: the pivot sequence is pinned."""

    def test_pivot_counts(self):
        study = convergence_study()
        cfg = parse_config(study.CONFIG)
        domain, f = cfg.domain(), cfg.density
        qpts, qw = study.quadrature()
        pivots = []
        for n in study.N_LIST:
            s = discretize(f, n, domain)
            sol = solve_primal(transport_problem(s.locations, s.rates, qpts, qw))
            assert sol.min_reduced_cost >= -LP_TOL and sol.marginal_error <= LP_TOL
            pivots.append(sol.pivots)
        assert study.N_LIST == [4, 16, 64, 256]
        assert pivots == [0, 0, 0, 1071]

    def test_n64_starts_optimal(self):
        # 464 of the 3600 quadrature points are equidistant from two or four
        # of the 8 x 8 sources; splitting them by supply left makes the start
        # the optimum
        study = convergence_study()
        cfg = parse_config(study.CONFIG)
        domain, f = cfg.domain(), cfg.density
        qpts, qw = study.quadrature()
        s = discretize(f, 64, domain)
        p = transport_problem(s.locations, s.rates, qpts, qw)
        sol = solve_primal(p)
        assert sol.pivots == 0
        assert abs(sol.primal_value - linprog_oracle(p)) <= 1e-9


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

    def test_coarse_grid_balances_with_atoms(self):
        dom = unit_square(5.0)
        s = make_sources(dom, [(0.3, 0.35), (0.7, 0.6)], [0.6, 0.8])
        thresholds, _ = dom.escape_cost(s.locations)
        # radii too small for a 0.45 grid: each cone is an atom at its source
        state = ConeState(0.01, np.array([0.02, 0.02]), thresholds)
        p = build_problem(state, s, dom, build_grid(dom, 0.45), boundary_spacing=0.45)
        assert p.demand_atoms == p.n_demand == 2
        assert np.array_equal(p.demand_locations, s.locations)
        assert abs(p.demand_masses.sum() - s.rates.sum()) <= 1e-12
        # coarsening merges the two atoms into one node, which is no atom
        merged = coarsen_problem(p, node_cap=len(s.rates) + p.n_boundary + 1)
        assert merged.n_demand == 1 and merged.demand_atoms == 0

    @settings(max_examples=40, deadline=None)
    @given(
        lattice=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=6, unique=True),
        jitter=st.lists(st.floats(-0.05, 0.05), min_size=12, max_size=12),
        decades=st.lists(st.floats(0.0, 3.0), min_size=6, max_size=6),
        h=st.sampled_from([1 / 8, 1 / 16]),
        fraction=st.floats(0.01, 1.0),
    )
    def test_atoms_balance_and_certify(self, lattice, jitter, decades, h, fraction):
        # point sources with rates over three decades, at a time inside the
        # exact analytic phase, on grids too coarse for the small cones
        k = len(lattice)
        points = 0.2 + 0.2 * np.array(lattice, dtype=float) + np.reshape(jitter[: 2 * k], (k, 2))
        dom = ConvexDomain([(0, 0), (1, 0), (1, 1), (0, 1)], [0.12, 0.3, 0.2, 0.25])
        s = make_sources(dom, points, 10.0 ** -np.array(decades[:k]))
        t = fraction * analytic_phase(s, dom)[0]
        state = run(s, dom, t, [t], h).states[0]
        grid = build_grid(dom, h)
        p = build_problem(state, s, dom, grid, boundary_spacing=h)

        active = s.rates[~state.frozen].sum()
        assert abs(p.demand_masses.sum() - active) <= 1e-12 * s.total_rate
        bare = ~state.frozen & (partition(grid, s, state.radii).areas == 0.0)
        assert p.demand_atoms == bare.sum()
        first_atom = p.n_demand - p.demand_atoms
        assert np.array_equal(p.demand_locations[first_atom:], s.locations[bare])
        assert np.array_equal(p.demand_masses[first_atom:], s.rates[bare])

        sol = solve_primal(p)
        assert sol.marginal_error <= LP_TOL
        report = certify_snapshot(state, s, dom, grid, h, DUAL_NODE_CAP, height_field(state, s, grid).values)
        assert report.passed and report.ray_residual <= 1e-15, report

    def test_certify_passes_midrun(self):
        for t in (0.08, 0.25):  # pre-freeze and fully frozen
            dom, s, state, h = self.make_snapshot(t=t)
            grid = build_grid(dom, h)
            report = certify_snapshot(state, s, dom, grid, h, DUAL_NODE_CAP, height_field(state, s, grid).values)
            assert report.passed, (t, report)

    def test_read_back_gates_the_verdict(self):
        # certify_snapshot alone decides the read-back too: a written height
        # 2 LP_TOL off at one cell fails the snapshot and reports that residual
        dom, s, state, h = self.make_snapshot(t=0.08)
        grid = build_grid(dom, h)
        written = height_field(state, s, grid).values
        report = certify_snapshot(state, s, dom, grid, h, DUAL_NODE_CAP, written)
        assert report.passed and report.u_residual == 0.0
        cell = np.unravel_index(np.argmax(written), written.shape)
        off = written.copy()
        off[cell] += 2 * LP_TOL
        report = certify_snapshot(state, s, dom, grid, h, DUAL_NODE_CAP, off)
        assert not report.passed
        assert report.u_residual == off[cell] - written[cell] == pytest.approx(2 * LP_TOL, rel=1e-6)
        assert max(report.ray_residual, report.wall_residual, report.duality_gap) <= report.tolerance

    def test_certify_fails_on_perturbation(self):
        dom, s, state, h = self.make_snapshot(t=0.08)
        grid = build_grid(dom, h)
        p = build_problem(state, s, dom, grid, boundary_spacing=h)
        assert p.n_demand > 0
        sol = solve_primal(p)
        u_s, u_d, u_b = (heights_at(state, s, nodes)
                         for nodes in (p.supply_locations, p.demand_locations, p.boundary_positions))
        u_d[0] += 0.1
        report = certify(u_s, u_d, u_b, sol, p, solve_dual(p))
        assert not report.passed
        assert max(report.ray_residual, report.duality_gap) >= 0.1 - 1e-9

    def test_exact_pair_zero_residuals(self):
        p = transport_problem([(0.2, 0.2)], [1.0], [(0.8, 0.6)], [1.0])
        sol = solve_primal(p)
        dist = np.hypot(0.6, 0.4)
        report = certify(np.array([dist]), np.array([0.0]), np.empty(0), sol, p, solve_dual(p))
        assert report.ray_residual == pytest.approx(0.0, abs=1e-12)
        assert report.duality_gap == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_dual_and_marginals_gate_the_verdict(self):
        # certify alone decides the transport verdict: a dual 1e-6 off its
        # coarse plan's cost, or either plan's marginals off by 1e-6, fails
        # it, although every height residual is exact
        p = transport_problem([(0.2, 0.2)], [1.0], [(0.8, 0.6)], [1.0])
        sol, dual = solve_primal(p), solve_dual(p)
        heights = (np.array([np.hypot(0.6, 0.4)]), np.array([0.0]), np.empty(0))
        assert certify(*heights, sol, p, dual).passed
        off = certify(*heights, sol, p, replace(dual, value=dual.value + 1e-6))
        assert not off.passed and off.lp_gap == pytest.approx(1e-6, rel=1e-9)
        assert not certify(*heights, sol, p, replace(dual, primal=replace(dual.primal, marginal_error=1e-6))).passed
        assert not certify(*heights, replace(sol, marginal_error=1e-6), p, dual).passed

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
        assert abs(mu.values.sum() * grid.cell_area - plan_distance_cost) <= 10 * h * s.total_rate * dom.diameter
