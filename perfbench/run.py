"""The silopile benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload certify|grow|refine --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; it imports the program from ``src``.
Each workload runs as one closed-loop client: a fresh Python process that
issues its commands one after another, with BLAS and OpenMP pinned to one
thread.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics, taken from spans
around every public call into the program.  Every pass's outputs are
checked against the recorded reference outputs.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Fresh processes timed for setup_s; the median is reported.
SETUP_STARTS = 5
# A run must end within this many seconds, child processes included.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit.  Times are means over the traced passes of a run; counts
# and bytes are per pass, bytes computed from array sizes.
PER_LAYER = {
    "cli.import_s": "s",
    "config.parse_config.s": "s",
    "sources.discretize.s": "s",
    "regions.partition.calls": "count",
    "regions.partition.s": "s",
    "regions.partition.bytes_computed": "bytes",
    "regions.grid_halvings": "count",
    "regions.cells": "count",
    "cones.run.self_s": "s",
    "cones.rk2_steps": "count",
    "cones.freezes": "count",
    "geometry.escape_cost.calls": "count",
    "geometry.escape_cost.s": "s",
    "fields.height_field.s": "s",
    "fields.rolling_measure.s": "s",
    "fields.spill_measure.s": "s",
    "fields.csv.s": "s",
    "fields.csv_bytes": "bytes",
    "verify.build_problem.s": "s",
    "verify.demand_nodes": "count",
    "verify.boundary_nodes": "count",
    "verify.certify.s": "s",
    "verify.coarsen_problem.s": "s",
    "verify.solve_dual.s": "s",
    "verify.dual_nodes": "count",
    "verify.dual_constraints": "count",
    "verify.solve_primal.calls": "count",
    "verify.solve_primal.s": "s",
    "verify.solve_primal.cost_cells": "count",
    "verify.wasserstein.s": "s",
    "simulate_s": "s",
    "verify_s": "s",
    "w1_s": "s",
    "converge_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "probe.failed": "count",
    "ops.failed_frac": "ratio",
    "hot_spot.share": "%",
}

# Per workload: the command whose time the hot spot dominates at the seed
# commit, and the hot spot's metric.  hot_spot.share is the hot spot's
# inclusive time over the command's time, both from the traced passes.
HOT_SPOTS = {
    "certify": ("verify_s", "verify.solve_dual.s"),
    "grow": ("simulate_s", "regions.partition.s"),
    "refine": ("w1_s", "verify.solve_primal.s"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(cmd, workdir: Path, deadline: float, stdout=None) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    env = _env()
    env["TMPDIR"] = str(workdir)
    try:
        return subprocess.run(
            cmd, cwd=workdir, env=env, timeout=timeout, stdout=stdout or sys.stderr,
            stderr=subprocess.PIPE if stdout else sys.stderr, text=True,
        )
    except subprocess.TimeoutExpired as exc:  # run() kills and waits for the child
        raise BenchError(f"{cmd[1:3]} did not finish within the run's deadline") from exc


def _client(args, workdir: Path, deadline: float, extra) -> dict:
    result = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "client.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--result", str(result), *extra,
    ]
    proc = _spawn(cmd, workdir, deadline)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"client exited with code {proc.returncode}")
    return json.loads(result.read_text())


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _environment(child: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **child["versions"],
        "thread_vars": {var: "1" for var in THREAD_VARS},
        "child_threads": child["threads"],
        "git_commit": _git_commit(),
    }


def end_to_end(child: dict, setup_times: list[float]) -> tuple[dict, list[str]]:
    lines = []
    metrics = {}
    for name, values in (
        ("setup_s", setup_times),
        ("wall_s", [p["wall_s"] for p in child["passes"]]),
        ("peak_rss_mb", [child["peak_rss_mb"]]),
    ):
        q1, med, q3 = _quartiles(values)
        unit = END_TO_END[name]
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"{name}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    return metrics, lines


def per_layer(workload: str, child: dict, probe: tuple[bool, str] | None) -> tuple[dict, list[str]]:
    values = {"cli.import_s": child["import_s"], **child["layers"]}
    plain = [p for p in child["passes"] if not p["traced"]]
    traced = [p for p in child["passes"] if p["traced"]]
    for key in ("simulate_s", "verify_s", "w1_s", "converge_s"):
        got = [p[key] for p in plain if key in p]
        # 0 where the workload does not run the command
        values[key] = statistics.median(got) if got else 0.0
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    probe_attempted, probe_failed = (1, int(probe[0])) if probe else (0, 0)
    values["probe.failed"] = probe_failed
    values["ops.failed_frac"] = (child["failed"] + probe_failed) / (child["attempted"] + probe_attempted)

    command, hot = HOT_SPOTS[workload]
    traced_command = statistics.fmean(p[command] for p in traced)
    values["hot_spot.share"] = 100.0 * values[hot] / traced_command
    lines = [
        f"hot spot: {hot[:-2]} takes {values['hot_spot.share']:.1f}% of traced {command[:-2]} "
        f"({values[hot]:.4g} of {traced_command:.4g} s, mean of {len(traced)} traced passes)",
        "no layer waits: every process is single-threaded and nothing queues, so no waited time is reported",
        f"self time per span (mean per traced pass, {len(traced)} passes):",
    ]
    table = sorted(child["self_time"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in table:
        lines.append(f"  {name:36s} calls {row['calls']:10.1f}  self {row['self_s']:.6f} s  total {row['s']:.6f} s")
    metrics = {}
    for name, unit in PER_LAYER.items():
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"{name}: {values[name]:.6g} {unit}")
    return metrics, lines


def run_probe(workdir: Path, deadline: float) -> tuple[bool, str]:
    """The grow workload's scale probe, run as a user would: (failed, message)."""
    cmd = [sys.executable, "-m", "silopile", "simulate", "--config", "probe.ini", "--quiet"]
    proc = _spawn(cmd, workdir, deadline, stdout=subprocess.PIPE)
    message = (proc.stderr or "").strip().splitlines()
    return proc.returncode != 0, message[-1] if message else f"exit code {proc.returncode}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "silopile" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'silopile'} is missing", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workloads.write_inputs(args.workload, args.seed, workdir)
        setup_times = []
        if not args.trace:
            for _ in range(SETUP_STARTS):
                t0 = time.perf_counter()
                proc = _spawn(
                    [sys.executable, str(HERE / "client.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--setup"],
                    workdir, deadline,
                )
                setup_times.append(time.perf_counter() - t0)
                if proc.returncode != 0:
                    raise BenchError(f"setup process exited with code {proc.returncode}")
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(out_dir / f"spans-{args.workload}.json")]
        child = _client(args, workdir, deadline, extra)
        probe = run_probe(workdir, deadline) if args.trace and args.workload == "grow" else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, lines = per_layer(args.workload, child, probe)
    else:
        metrics, lines = end_to_end(child, setup_times)
    env = _environment(child)
    header = [
        f"silopile benchmark: workload {args.workload}, seed {args.seed} "
        f"(variants in order {[p['variant'] for p in child['passes']]}), "
        f"{args.seconds:g} s, trace {args.trace}, one closed-loop client",
        "environment: " + json.dumps(env, sort_keys=True),
        f"gate: {child['attempted']} operations, {child['failed']} failed; "
        f"outputs exactly equal to the reference: {'yes' if child['exact'] else 'no'}",
        *(f"gate error: {e}" for e in child["errors"]),
    ]
    if probe is not None:
        header.append(f"probe (gaussian-truncated, n=64, h=1/64): {'failed' if probe[0] else 'passed'}: {probe[1]}")
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "report": header + lines, "child": child, **result}, indent=1)
    )
    print("\n".join(header + lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
