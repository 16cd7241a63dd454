"""One closed-loop client: a fresh process that runs a workload's passes.

Started by run.py with its working directory set to the run's work
directory (which holds the configs) and PYTHONPATH set to the checkout's
``src``.  Writes one JSON result file and exits.

    python3 perfbench/client.py --workload W --seed N --seconds S \
        --trace 0|1 --result PATH [--spans PATH]
    python3 perfbench/client.py --workload W --seed N --setup

A warm-up pass of variant order[0] comes first, untimed.  Then pass i runs
variant order[i % 8] of a permutation the seed draws; a traced run gives
each variant an untraced and then a traced pass.  With --setup
the client only imports silopile.cli, parses the first variant's config
and builds the sources and grid, as every command does before its work.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

# Passes run at least, so medians are defined.  A traced run alternates
# untraced and traced passes and runs at least MIN_TRACED of each.
MIN_PASSES = 3
MIN_TRACED = 2


def _threads() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _setup(workload: str, v: int) -> None:
    from silopile import cli

    cfg = cli.parse_config(workloads.config_name(workload, v))
    domain = cfg.domain()
    cli.resolve_sources(cfg, domain)
    cli.build_grid(domain, cfg.grid_h)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--spans")
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import silopile.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import silopile as pkg

    order = workloads.variant_order(args.seed)
    if args.setup:
        _setup(args.workload, order[0])
        return 0

    reference = workloads.load_reference(args.workload)

    passes = []
    span_sets = []
    attempted = failed = 0
    errors: list[str] = []
    exact = True

    def account(index, v, tracer):
        nonlocal attempted, failed, exact
        times, codes, bad, same = gated_pass(args.workload, pkg, v, reference[str(v)], tracer)
        attempted += codes
        failed += len(bad)
        exact &= same
        errors.extend(f"pass {index} {name}: {msg}" for name, msgs in bad.items() for msg in msgs)
        return times

    # A warm-up pass fills caches and finishes lazy imports.  It is gated
    # like the others and left out of every time.
    account("warm-up", order[0], None)
    loop_start = time.perf_counter()
    while True:
        i = len(passes)
        traced = bool(args.trace) and i % 2 == 1
        v = order[i // (1 + args.trace) % workloads.VARIANTS]
        tracer = spans.Tracer(op=i) if traced else None
        times = account(i, v, tracer)
        if tracer:
            span_sets.append(tracer.spans)
        passes.append({"variant": v, "traced": traced, **times})

        elapsed = time.perf_counter() - loop_start
        need = 2 * MIN_TRACED if args.trace else MIN_PASSES
        if len(passes) >= need and elapsed + times["wall_s"] > args.seconds:
            break

    result = {
        "import_s": import_s,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "exact": exact and not failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _threads(),
        "versions": _versions(),
    }
    if args.trace:
        result["layers"] = _layer_summary(span_sets)
        result["self_time"] = _self_time_summary(span_sets)
        if args.spans:
            with open(args.spans, "w") as f:
                json.dump([[s.as_dict() for s in group] for group in span_sets], f)
    Path(args.result).write_text(json.dumps(result))
    return 0


def gated_pass(workload: str, pkg, v: int, reference: dict, tracer):
    """Run one pass, traced when a tracer is given, and check its outputs.

    Returns (times, commands attempted, mismatches by command, exactly equal).
    """
    if tracer:
        tracer.install(pkg)
    try:
        times, codes, values = workloads.run_pass(workload, pkg, v)
    finally:
        if tracer:
            tracer.uninstall()
    bad = {name: [f"exit code {rc}"] for name, rc in codes.items() if rc != 0}
    same = False
    if not bad:
        got = workloads.observe(workload, Path.cwd(), values)
        bad = workloads.compare(workload, got, reference)
        same = workloads.exact(workload, got, reference)
    return times, len(codes), bad, same


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def layer_metrics(group) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    t = lambda *names: spans.inclusive_time(group, names)  # noqa: E731
    n = lambda name, key=None: spans.count(group, name, key)  # noqa: E731
    selfs = spans.self_times(group)
    return {
        "config.parse_config.s": t("config.parse_config"),
        "sources.discretize.s": t("sources.discretize"),
        "regions.partition.calls": n("regions.partition"),
        "regions.partition.s": t("regions.partition"),
        "regions.partition.bytes_computed": n("regions.partition", "bytes_computed"),
        "regions.grid_halvings": spans.child_count(group, "regions.build_grid", "regions.areas_with_floor"),
        "regions.cells": n("regions.partition", "cells"),
        "cones.run.self_s": sum(x for s, x in zip(group, selfs) if s.name == "cones.run"),
        "cones.rk2_steps": n("cones.step"),
        "cones.freezes": n("cones.run", "freezes"),
        "geometry.escape_cost.calls": n("geometry.escape_cost"),
        "geometry.escape_cost.s": t("geometry.escape_cost"),
        "fields.height_field.s": t("fields.height_field"),
        "fields.rolling_measure.s": t("fields.rolling_measure"),
        "fields.spill_measure.s": t("fields.spill_measure"),
        "fields.csv.s": t("fields.field_to_csv", "fields.path_measure_to_csv", "fields.boundary_measure_to_lines"),
        "fields.csv_bytes": n("fields.field_to_csv", "csv_bytes") + n("fields.boundary_measure_to_lines", "csv_bytes"),
        "verify.build_problem.s": t("verify.build_problem"),
        "verify.demand_nodes": n("verify.build_problem", "demand_nodes"),
        "verify.boundary_nodes": n("verify.build_problem", "boundary_nodes"),
        "verify.certify.s": t("verify.certify"),
        "verify.coarsen_problem.s": t("verify.coarsen_problem"),
        "verify.solve_dual.s": t("verify.solve_dual"),
        "verify.dual_nodes": n("verify.solve_dual", "dual_nodes"),
        "verify.dual_constraints": n("verify.solve_dual", "dual_constraints"),
        "verify.solve_primal.calls": n("verify.solve_primal"),
        "verify.solve_primal.s": t("verify.solve_primal"),
        "verify.solve_primal.cost_cells": n("verify.solve_primal", "cost_cells"),
        "verify.wasserstein.s": t("verify.wasserstein"),
        "trace.spans": len(group),
    }


def _self_time_summary(span_sets) -> dict[str, dict[str, float]]:
    """Per span name, the mean over the traced passes of calls, s and self_s."""
    total: dict[str, dict[str, float]] = {}
    for group in span_sets:
        for name, row in spans.self_time_table(group).items():
            acc = total.setdefault(name, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                acc[key] += value / len(span_sets)
    return total


def _layer_summary(span_sets) -> dict[str, float]:
    """Mean of each per-layer metric over the traced passes."""
    rows = [layer_metrics(group) for group in span_sets]
    return {key: statistics.fmean(r[key] for r in rows) for key in rows[0]}


if __name__ == "__main__":
    sys.exit(main())
