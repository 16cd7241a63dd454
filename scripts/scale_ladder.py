"""Scale ladder: wall time and peak memory of ``simulate`` and ``verify`` as sources and cells grow.

Each rung runs ``silopile simulate`` on 256 or 1024 sources uniform on
[0.05, 0.95]^2 in the unit silo, at grid spacing 1/64, 1/128 or 1/256, in
a fresh process; three more rungs take 4096 sources at 1/256, and 1024 and
4096 sources at 1/512.  Wall time is measured around the process; peak RSS
is the child's own maximum resident set, from ``os.wait4``, also written
per grid cell as ``bytes_per_cell``.  Where the snapshot's dense cost
matrix has at most ``PRIMAL_CELLS`` entries, a second fresh process runs
``silopile verify`` on the rung's manifest, timed as ``verify_wall_s``
with its peak RSS as ``verify_peak_rss_mb``.  Each rung also copies every
``key = value`` line of its manifest's ``[timings]``: ``simulate``'s
seconds, partition counters and RK2 steps, and ``verify``'s seconds,
pivots and demand atoms.  A rung's ``exit_code`` is its first nonzero
child's, so a certificate FAIL makes the ladder exit 1.  Last, the W1
solves of ``convergence_study.py`` are timed, one per n, with their
pivots.  The rungs and their numbers are written to ``BENCH_<label>.json``
in the working directory.

    python scripts/scale_ladder.py --label mine            # all nine rungs
    python scripts/scale_ladder.py --label ci --smallest   # 256 sources at h = 1/64 only
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from silopile.cli import parse_manifest  # noqa: E402

# (sources, h), smallest first: the first rung is CI's.
RUNGS = [(k, h) for k in (256, 1024) for h in (1 / 64, 1 / 128, 1 / 256)] + [
    (4096, 1 / 256), (1024, 1 / 512), (4096, 1 / 512)]
HORIZON = 0.02
# Sources x cells above which the rung's verify is skipped: its primal's dense
# cost matrix alone would pass 36 MB.  The solve holds at most three
# (m, n) float arrays at once: the distances and their copy with the
# absorbing column while that column is appended, then the cost, the
# start's key and the rows of the component being joined.  ``distances``
# fills its result block by block, with no other array of its size.
# The flows live on the tree's arcs, not in an (m, n) matrix.
PRIMAL_CELLS = 4_500_000

CONFIG = """[domain]
vertices = 0 0 ; 1 0 ; 1 1 ; 0 1
wall_values = 0 0.02 0.01 0.03

[sources]
kind = uniform-on-polygon
polygon = 0.05 0.05 ; 0.95 0.05 ; 0.95 0.95 ; 0.05 0.95
total_mass = 1.0
n = {k}

[run]
horizon = {horizon!r}
snapshot_times = {horizon!r}

[grid]
h = {h!r}

[output]
directory = {out}
"""


def run_child(args: list[str]) -> tuple[float, float, int]:
    """A fresh Python process: wall seconds, peak RSS in MB and exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, *args], env=env)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return wall, usage.ru_maxrss / 1024, child.returncode  # ru_maxrss is in KiB on Linux


def run_rung(k: int, h: float, workdir: Path) -> dict:
    """``silopile simulate`` in a fresh process, then ``silopile verify`` on its manifest in another."""
    config = workdir / f"k{k}_h{round(1 / h)}.ini"
    manifest = workdir / config.stem / "manifest.txt"
    config.write_text(CONFIG.format(k=k, h=h, horizon=HORIZON, out=manifest.parent))
    wall, rss, code = run_child(["-m", "silopile", "simulate", "--config", str(config), "--quiet"])
    cells = round(1 / h) ** 2
    rung = {
        "sources": k,
        "h": h,
        "cells": cells,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(rss, 1),
        "bytes_per_cell": round(rss * 2**20 / cells),
        "exit_code": code,
    }
    if code == 0 and k * cells <= PRIMAL_CELLS:
        wall, rss, code = run_child(["-m", "silopile", "verify", "--manifest", str(manifest), "--quiet"])
        rung.update(verify_wall_s=round(wall, 3), verify_peak_rss_mb=round(rss, 1), exit_code=code)
    if manifest.exists():  # its [timings] section holds "key = value" lines
        lines = parse_manifest(manifest)["timings"]
        rung.update((key, json.loads(value)) for key, value in (line.split(" = ") for line in lines))
    return rung


def w1_seconds() -> list[dict]:
    """Seconds and pivots of each W1 solve of ``convergence_study.py``, one per n."""
    sys.path.insert(0, str(HERE))
    from convergence_study import CONFIG, N_LIST, quadrature

    from silopile.config import parse_config
    from silopile.sources import discretize
    from silopile.verify import solve_primal, transport_problem

    cfg = parse_config(CONFIG)
    domain = cfg.domain()
    qpts, qw = quadrature()
    rows = []
    for n in N_LIST:
        s = discretize(cfg.density, n, domain)
        start = time.perf_counter()
        sol = solve_primal(transport_problem(s.locations, s.rates, qpts, qw))
        seconds = time.perf_counter() - start
        rows.append({"n": n, "w1": sol.primal_value, "seconds": round(seconds, 3), "pivots": sol.pivots})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--smallest", action="store_true", help="run only the smallest rung")
    args = parser.parse_args(argv)

    rungs = RUNGS[:1] if args.smallest else RUNGS
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, h in rungs:
            result = run_rung(k, h, Path(tmp))
            results.append(result)
            verified = "skipped" if "verify_wall_s" not in result else (
                f"{result['verify_wall_s']:.3f} s, {result.get('primal_pivots')} pivots")
            print(f"k={k:5d} h=1/{round(1 / h):<4d} wall {result['wall_s']:8.3f} s  "
                  f"peak RSS {result['peak_rss_mb']:8.1f} MB ({result['bytes_per_cell']:6d} B/cell)  "
                  f"verify {verified}  exit {result['exit_code']}")
    w1 = w1_seconds()
    for row in w1:
        print(f"W1 n={row['n']:<4d} {row['seconds']:8.3f} s  {row['pivots']} pivots")
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps({
        "label": args.label,
        "horizon": HORIZON,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rungs": results,
        "w1": w1,
    }, indent=2) + "\n")
    print(f"-> {path}")
    return 0 if all(r["exit_code"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
