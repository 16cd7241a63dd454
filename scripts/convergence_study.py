"""Source-discretization study: refinement of a uniform measure.

Reads configs/uniform_converge.ini: a 4 x 4 silo fed by the uniform
measure on [1,3]^2.  For n in {4, 16, 64, 256} point sources approximating
that measure, reports the 1-Wasserstein distance to a fine quadrature of
the measure and the uniform gap between successive pile profiles at the
config's snapshot times.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from silopile.cones import run
from silopile.config import parse_config
from silopile.fields import height_field
from silopile.sources import discretize
from silopile.verify import wasserstein

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "uniform_converge.ini"
N_LIST = [4, 16, 64, 256]


def quadrature(n_side=60):
    xs = 1.0 + (np.arange(n_side) + 0.5) * 2.0 / n_side
    gx, gy = np.meshgrid(xs, xs)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return pts, np.full(len(pts), 1.0 / len(pts))


def main():
    cfg = parse_config(CONFIG)
    domain, times = cfg.domain(), cfg.snapshot_times
    qpts, qw = quadrature()

    fields = {}
    print(f"{'n':>4} {'W1 to quadrature':>18}")
    for n in N_LIST:
        s = discretize(cfg.density, n, domain)
        w1 = wasserstein(s.locations, s.rates, qpts, qw)
        print(f"{n:>4} {w1:18.6f}")
        traj = run(s, domain, cfg.horizon, times, cfg.grid_h)
        fields[n] = [height_field(st, s, traj.grid).values for st in traj.states]

    print()
    print(f"{'pair':>10} " + " ".join(f"sup|du| at t={t:g}" for t in times))
    for a, b in zip(N_LIST, N_LIST[1:]):
        sups = [float(np.abs(fields[b][i] - fields[a][i]).max()) for i in range(len(times))]
        print(f"{a:>4} -> {b:<4}" + " ".join(f"{s:16.6f}" for s in sups))


if __name__ == "__main__":
    main()
