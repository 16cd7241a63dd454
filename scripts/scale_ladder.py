"""Scale ladder: wall time and peak memory of ``simulate`` as sources and cells grow.

Each rung runs ``simulate`` on 256 or 1024 sources uniform on
[0.05, 0.95]^2 in the unit silo, at grid spacing 1/64, 1/128 or 1/256, in
a fresh process.  Wall time is measured around the process; peak RSS is
the child's own maximum resident set, from ``os.wait4``.  The rungs and
their numbers are written to ``BENCH_<label>.json`` in the working directory.

    python scripts/scale_ladder.py --label mine            # all six rungs
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

SRC = Path(__file__).resolve().parent.parent / "src"

SOURCES = (256, 1024)
SPACINGS = (1 / 64, 1 / 128, 1 / 256)
HORIZON = 0.02

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


def run_rung(k: int, h: float, workdir: Path) -> dict:
    """One ``simulate`` in a fresh process: wall seconds, peak RSS in MB, exit code."""
    config = workdir / f"k{k}_h{round(1 / h)}.ini"
    config.write_text(CONFIG.format(k=k, h=h, horizon=HORIZON, out=workdir / config.stem))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "silopile", "simulate", "--config", str(config), "--quiet"], env=env)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return {
        "sources": k,
        "h": h,
        "cells": round(1 / h) ** 2,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
        "exit_code": child.returncode,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--smallest", action="store_true", help="run only the smallest rung")
    args = parser.parse_args(argv)

    rungs = [(k, h) for k in SOURCES for h in SPACINGS]
    if args.smallest:
        rungs = rungs[:1]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, h in rungs:
            result = run_rung(k, h, Path(tmp))
            results.append(result)
            print(f"k={k:5d} h=1/{round(1 / h):<4d} wall {result['wall_s']:8.3f} s  "
                  f"peak RSS {result['peak_rss_mb']:8.1f} MB  exit {result['exit_code']}")
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps({
        "label": args.label,
        "horizon": HORIZON,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rungs": results,
    }, indent=2) + "\n")
    print(f"-> {path}")
    return 0 if all(r["exit_code"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
