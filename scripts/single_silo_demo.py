"""End-to-end demo: simulate a two-source silo, certify every snapshot.

Runs the growth simulation from configs/two_source.ini and certifies
each snapshot's height field, as ``simulate`` would write it, with
``verify``'s one call, ``certify_snapshot``; it prints the verdict next to
the freeze events.  Equivalent to

    silopile simulate --config configs/two_source.ini
    silopile verify   --manifest out/two_source/manifest.txt

but kept as a script so the run and its reports are easy to poke at.
Exits 1 if any snapshot's certificate fails, like ``silopile verify``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from silopile.cli import resolve_sources
from silopile.config import parse_config
from silopile.cones import run
from silopile.fields import height_field
from silopile.verify import certify_snapshot


def main() -> int:
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "two_source.ini")
    domain = cfg.domain()
    sources = resolve_sources(cfg, domain)
    print(f"domain area {domain.area:.3f}, total rate {sources.total_rate:.3f}")

    fields = []  # each snapshot's height field, as simulate writes it
    traj = run(sources, domain, cfg.horizon, cfg.snapshot_times, cfg.grid_h,
               on_snapshot=lambda state, grid: fields.append(height_field(state, sources, grid).values))
    for j, t in traj.freeze_events:
        print(f"source {j} froze at t = {t:.5f}")

    failed = 0
    for state, u in zip(traj.states, fields):
        rep = certify_snapshot(state, sources, domain, traj.grid, cfg.boundary_spacing, cfg.dual_node_cap, u)
        verdict = "PASS" if rep.passed else "FAIL"
        failed += not rep.passed
        print(
            f"t={state.time:5.2f}: transport cost {rep.primal:8.5f}, "
            f"gap {rep.duality_gap:.2e}, lp gap {rep.lp_gap:.2e}, ray residual {rep.ray_residual:.2e} -> {verdict}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
