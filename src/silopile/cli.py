"""Command line orchestration: simulate, verify, equilibrium, converge.

Exit codes: 0 success (and certification PASS), 1 certification FAIL,
2 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, _fmt, _number, echo_config, parse_config, parse_echo, require_lines
from .cones import ConeState, run
from .fields import (
    boundary_measure_to_lines,
    field_from_csv,
    field_to_csv,
    height_field,
    rolling_measure,
    spill_measure,
)
from .geometry import ConvexDomain
from .regions import build_grid, partition
from .sources import SourceSet, discretize
# Not called here: perfbench/test_perfbench.py::TestTracer reads cli.solve_dual.
# The import goes when solve_dual and coarsening do.
from .verify import certify_snapshot, solve_dual  # noqa: F401

MANIFEST_HEADER = "silopile-manifest-v1"


def resolve_sources(cfg: RunConfig, domain: ConvexDomain) -> SourceSet:
    """The configured sources: the density discretized into at most ``cfg.n_sources`` points."""
    return discretize(cfg.density, cfg.n_sources, domain)


# ---------------------------------------------------------------------------
# manifest


def _timing_lines(timings: dict[str, float | int]) -> list[str]:
    """One line per key, sorted: counts as integers, seconds to 3 decimals."""
    return [
        f"{key} = {value}" if isinstance(value, int) else f"{key} = {value:.3f}"
        for key, value in sorted(timings.items())
    ]


def _write_sections(path: Path, sections: dict[str, list[str]]) -> None:
    """The manifest text: the header, then each section's heading and lines, in order."""
    lines = [MANIFEST_HEADER]
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines += body
    path.write_text("\n".join(lines) + "\n")


def parse_manifest(path: Path) -> dict[str, list[str]]:
    text = path.read_text().splitlines()
    if not text or text[0] != MANIFEST_HEADER:
        raise ConfigError(f"{path}: not a {MANIFEST_HEADER} file")
    sections: dict[str, list[str]] = {}
    current = None
    for line in text[1:]:
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif current is not None and line.strip():
            sections[current].append(line)
    return sections


def _source_lines(sources: SourceSet) -> list[str]:
    """The ``[sources]`` lines: per source, its location and rate."""
    return [
        f"{j} = {_fmt(x)} {_fmt(y)} {_fmt(c)}" for j, ((x, y), c) in enumerate(zip(sources.locations, sources.rates))
    ]


def _field_files(i: int) -> tuple[str, str]:
    """Snapshot ``i``'s height and rolling-layer table names."""
    return f"snap{i:03d}_u.csv", f"snap{i:03d}_mu.csv"


def _snapshot_line(i: int, state: ConeState) -> str:
    """Snapshot ``i``'s ``[snapshots]`` line: its time, tables, radii and frozen flags."""
    u_name, mu_name = _field_files(i)
    radii = ",".join(_fmt(r) for r in state.radii)
    frozen = ",".join("1" if f else "0" for f in state.frozen)
    return f"{i} = t={_fmt(state.time)} u={u_name} mu={mu_name} radii={radii} frozen={frozen}"


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: RunConfig, quiet: bool) -> int:
    t_start = time.perf_counter()
    domain = cfg.domain()
    sources = resolve_sources(cfg, domain)
    routes = domain.escape_cost(sources.locations)
    spill_atoms = routes[1]
    fields = []  # per snapshot: its height field and rolling layer, read as the run passes it

    def read_fields(state, grid):
        u = height_field(state, sources, grid)
        mu = rolling_measure(state, sources, partition(grid, sources, state.radii), spill_atoms)
        fields.append((u, mu))

    traj = run(sources, domain, cfg.horizon, cfg.snapshot_times, cfg.grid_h, routes, read_fields)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    snapshots, nu_blocks = [], []
    for i, (state, (u, mu)) in enumerate(zip(traj.states, fields)):
        u_name, mu_name = _field_files(i)
        (out / u_name).write_text(field_to_csv(u))
        (out / mu_name).write_text(field_to_csv(mu))
        nu = spill_measure(state, sources, spill_atoms)
        nu_blocks.append(f"# snapshot {i} t={_fmt(state.time)}\n" + boundary_measure_to_lines(nu))
        snapshots.append(_snapshot_line(i, state))
    (out / "nu.csv").write_text("".join(nu_blocks))

    lists = traj.grid.source_lists(sources.locations)
    timings = {
        "simulate_seconds": time.perf_counter() - t_start,
        "partition_rebuilds": lists.rebuilds,
        "partition_reranked": lists.reranked,
        "max_candidates": lists.max_candidates,
        "rk2_steps": len(traj.steps),
    }
    _write_sections(out / "manifest.txt", {
        "config": echo_config(cfg),
        "sources": _source_lines(sources),
        "freeze_events": [f"{j} = {_fmt(t)}" for j, t in traj.freeze_events],
        "snapshots": snapshots,
        "certificates": [],
        "timings": _timing_lines(timings),
    })
    if not quiet:
        print(f"simulate: {len(traj.states)} snapshots, {len(traj.freeze_events)} freezes -> {out}")
    return 0


def cmd_verify(manifest_path: Path, quiet: bool) -> int:
    """Certify a manifest's snapshots.

    Its config, source and snapshot lines must be those rebuilt from the
    echoed config and each snapshot's ``radii``, the one field parsed.
    """
    t_start = time.perf_counter()
    sections = parse_manifest(manifest_path)
    out = manifest_path.parent
    cfg = parse_echo(sections.get("config", []))
    domain = cfg.domain()
    sources = resolve_sources(cfg, domain)
    require_lines("manifest [sources]", sections.get("sources", []), _source_lines(sources))
    grid = build_grid(domain, cfg.grid_h)
    thresholds, _ = domain.escape_cost(sources.locations)

    entries, times = sections.get("snapshots", []), cfg.snapshot_times
    if len(entries) != len(times):
        raise ConfigError(f"manifest [snapshots] holds {len(entries)} entries for {len(times)} run.snapshot_times")
    snapshots = []
    for i, (line, t) in enumerate(zip(entries, times)):
        where = f"manifest [snapshots] entry {i}"
        radii = line.partition(" radii=")[2].partition(" ")[0].split(",")
        try:
            state = ConeState(t, np.array([_number(r, f"{where} radii") for r in radii]), thresholds)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        require_lines(where, [line], [_snapshot_line(i, state)])
        u_file = _field_files(i)[0]
        try:
            u = field_from_csv(grid, (out / u_file).read_text()).values
        except (OSError, ValueError, IndexError) as exc:
            raise ConfigError(f"snapshot file {u_file}: {exc}") from None
        snapshots.append((i, state, u))

    cert_lines, reports = [], []
    for idx, state, u in snapshots:
        try:
            report = certify_snapshot(state, sources, domain, grid, cfg.boundary_spacing, cfg.dual_node_cap, u)
        except ValueError as exc:
            raise ValueError(f"manifest [snapshots] entry {idx} (t={_fmt(state.time)}): {exc}") from None
        reports.append(report)
        status = "PASS" if report.passed else "FAIL"
        cert_lines.append(
            f"{idx} = t={_fmt(state.time)} primal={_fmt(report.primal)} dual={_fmt(report.dual)} "
            f"lp_gap={_fmt(report.lp_gap)} pairing_gap={_fmt(report.duality_gap)} "
            f"ray_residual={_fmt(report.ray_residual)} wall_residual={_fmt(report.wall_residual)} "
            f"u_residual={_fmt(report.u_residual)} tolerance={_fmt(report.tolerance)} {status}"
        )
        if not quiet:
            print(f"snapshot {idx}: {status} (gap {report.duality_gap:.3e}, tol {report.tolerance:.3e})")

    summary = "PASS" if all(report.passed for report in reports) else "FAIL"
    lines = ["silopile-certificates-v1", f"result = {summary}", *cert_lines]
    (out / "certificates.txt").write_text("\n".join(lines) + "\n")

    # refresh the manifest's certificate section, keeping timings quarantined
    timings = {
        "verify_seconds": time.perf_counter() - t_start,
        "primal_pivots": sum(report.pivots for report in reports),
        "demand_atoms": sum(report.demand_atoms for report in reports),
    }
    _splice_manifest(manifest_path, cert_lines, timings)
    if not quiet:
        print(f"verify: {summary}")
    return 0 if summary == "PASS" else 1


def _splice_manifest(path: Path, cert_lines: list[str], extra_timings: dict[str, float | int]) -> None:
    """Replace the certificates; ``extra_timings`` replace same-named timings, which stay last."""
    sections = parse_manifest(path)
    sections["certificates"] = cert_lines
    kept = [line for line in sections.pop("timings", []) if line.partition(" = ")[0] not in extra_timings]
    sections["timings"] = kept + _timing_lines(extra_timings)
    _write_sections(path, sections)


def cmd_equilibrium(cfg: RunConfig, quiet: bool) -> int:
    domain = cfg.domain()
    sources = resolve_sources(cfg, domain)
    routes = domain.escape_cost(sources.locations)
    thresholds = routes[0]
    bound = float(np.sum(domain.area * thresholds / sources.rates))
    limit = 1.1 * bound
    horizon = min(cfg.horizon, limit)

    traj = run(sources, domain, horizon, [], cfg.grid_h, routes)
    final = traj.final_state
    if not final.frozen.all():
        if horizon < limit:
            raise RuntimeError(
                f"equilibrium unreachable within horizon {cfg.horizon:.6g}; "
                f"the rate bound allows freeze times up to {bound:.6g}"
            )
        raise RuntimeError(
            f"integration passed {limit:.6g} (110% of the rate bound {bound:.6g}) "
            "without full freeze"
        )

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # every radius is clamped to its escape cost when it freezes, so the
    # final field is the stationary profile of cones capped at those costs
    (out / "final_u.csv").write_text(field_to_csv(height_field(final, sources, traj.grid)))
    freeze = dict((j, t) for j, t in traj.freeze_events)
    lines = ["silopile-equilibrium-v1", f"rate_bound = {_fmt(bound)}"]
    for j in range(sources.k):
        t_j = freeze.get(j, float("nan"))
        lines.append(f"freeze {j} = t={_fmt(t_j)} threshold={_fmt(thresholds[j])}")
    (out / "equilibrium.txt").write_text("\n".join(lines) + "\n")
    if not quiet:
        print(f"equilibrium: all {sources.k} sources frozen (rate bound {bound:.6g}) -> {out}")
    return 0


def cmd_converge(cfg: RunConfig, quiet: bool) -> int:
    if len(cfg.n_list) == 0:
        raise ConfigError("[run]: converge requires n_list")
    if any(b <= a for a, b in zip(cfg.n_list, cfg.n_list[1:])):
        raise ConfigError("[run]: n_list must be strictly increasing")
    domain = cfg.domain()

    per_n = {}
    for n in cfg.n_list:
        sources = discretize(cfg.density, n, domain)
        heights = per_n[n] = []
        run(sources, domain, cfg.horizon, cfg.snapshot_times, cfg.grid_h,
            on_snapshot=lambda state, grid: heights.append(height_field(state, sources, grid).values))

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["time,n_from,n_to,sup_diff"]
    for si, t in enumerate(cfg.snapshot_times):
        for a, b in zip(cfg.n_list, cfg.n_list[1:]):
            sup = float(np.abs(per_n[b][si] - per_n[a][si]).max())
            rows.append(f"{_fmt(t)},{a},{b},{_fmt(sup)}")
            if not quiet:
                print(f"t={t:g}: sup|u_{b} - u_{a}| = {sup:.6g}")
    (out / "converge.csv").write_text("\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="silopile", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "equilibrium", "converge"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--quiet", action="store_true")
    pv = sub.add_parser("verify")
    pv.add_argument("--manifest", required=True)
    pv.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(Path(args.manifest), args.quiet)
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg.output_dir = args.out
        if args.command == "simulate":
            return cmd_simulate(cfg, args.quiet)
        if args.command == "equilibrium":
            return cmd_equilibrium(cfg, args.quiet)
        return cmd_converge(cfg, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
