"""Source-discretization study: refinement of a uniform measure.

For n in {4, 16, 64, 256} point sources approximating the uniform measure
on [1,3]^2, reports the 1-Wasserstein distance to a fine quadrature of the
measure and the uniform gap between successive pile profiles at two times.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from silopile.cones import run
from silopile.fields import height_field
from silopile.geometry import ConvexDomain
from silopile.sources import UNIFORM_POLYGON, DensitySpec, discretize
from silopile.verify import wasserstein

N_LIST = [4, 16, 64, 256]
TIMES = [0.2, 0.5]


def quadrature(n_side=60):
    xs = 1.0 + (np.arange(n_side) + 0.5) * 2.0 / n_side
    gx, gy = np.meshgrid(xs, xs)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return pts, np.full(len(pts), 1.0 / len(pts))


def fed_square():
    """The 4 x 4 silo and the uniform density on [1,3]^2 that feeds it."""
    domain = ConvexDomain([(0, 0), (4, 0), (4, 4), (0, 4)], [10.0] * 4)
    f = DensitySpec(
        kind=UNIFORM_POLYGON,
        total_mass=1.0,
        polygon=np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 3.0], [1.0, 3.0]]),
    )
    return domain, f


def main():
    domain, f = fed_square()
    qpts, qw = quadrature()

    fields = {}
    print(f"{'n':>4} {'W1 to quadrature':>18}")
    for n in N_LIST:
        s = discretize(f, n, domain)
        w1 = wasserstein(s.locations, s.rates, qpts, qw)
        print(f"{n:>4} {w1:18.6f}")
        traj = run(s, domain, max(TIMES), TIMES, 1 / 32)
        fields[n] = [height_field(st, s, traj.grid).values for st in traj.states]

    print()
    print(f"{'pair':>10} " + " ".join(f"sup|du| at t={t:g}" for t in TIMES))
    for a, b in zip(N_LIST, N_LIST[1:]):
        sups = [float(np.abs(fields[b][i] - fields[a][i]).max()) for i in range(len(TIMES))]
        print(f"{a:>4} -> {b:<4}" + " ".join(f"{s:16.6f}" for s in sups))


if __name__ == "__main__":
    main()
