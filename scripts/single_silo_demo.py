"""End-to-end demo: simulate a two-source silo, certify every snapshot.

Runs the growth simulation from configs/two_source.ini, solves the
transport problem of each snapshot, and prints the certificates next to
the freeze events.  Equivalent to

    silopile simulate --config configs/two_source.ini
    silopile verify   --config configs/two_source.ini

but kept as a script so the intermediate objects are easy to poke at.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from silopile.cli import resolve_sources
from silopile.config import parse_config
from silopile.cones import run
from silopile.verify import build_problem, certify, snapshot_heights, solve_primal


def main():
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "two_source.ini")
    domain = cfg.domain()
    sources = resolve_sources(cfg, domain)
    print(f"domain area {domain.area:.3f}, total rate {sources.total_rate:.3f}")

    traj = run(sources, domain, cfg.horizon, cfg.snapshot_times, cfg.grid_h)
    for j, t in traj.freeze_events:
        print(f"source {j} froze at t = {t:.5f}")

    grid = traj.grid
    for t, state in zip(traj.snapshot_times, traj.states):
        problem = build_problem(state, sources, domain, grid, cfg.boundary_spacing)
        sol = solve_primal(problem)
        rep = certify(*snapshot_heights(state, sources, problem), sol, problem)
        verdict = "PASS" if rep.passed else "FAIL"
        print(
            f"t={t:5.2f}: transport cost {sol.primal_value:8.5f}, "
            f"gap {rep.duality_gap:.2e}, ray residual {rep.ray_residual:.2e} -> {verdict}"
        )


if __name__ == "__main__":
    main()
