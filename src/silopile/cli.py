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

from .config import ConfigError, RunConfig, _floats, _fmt, _number, _rows, _whole, echo_config, parse_config
from .cones import ConeState, Trajectory, run
from .fields import (
    boundary_measure_to_lines,
    equilibrium_field,
    eval_height_many,
    field_from_csv,
    field_to_csv,
    height_field,
    path_measure_to_csv,
    rolling_measure,
    spill_measure,
)
from .geometry import ConvexDomain
from .regions import SourceLists, build_grid, partition
from .sources import SourceSet, discretize, make_sources
from .tolerances import DUAL_NODE_CAP, LP_TOL
from .verify import build_problem, certify, snapshot_heights, solve_dual, solve_primal

MANIFEST_HEADER = "silopile-manifest-v1"


def resolve_sources(cfg: RunConfig, domain: ConvexDomain) -> SourceSet:
    """The configured sources: the density discretized into at most ``cfg.n_sources`` points."""
    return discretize(cfg.density, cfg.n_sources, domain)


# ---------------------------------------------------------------------------
# manifest


def write_manifest(
    path: Path,
    cfg: RunConfig,
    sources: SourceSet,
    traj: Trajectory,
    snapshot_files: list[tuple[str, str]],
    timings: dict[str, float | int],
) -> None:
    snapshots = []
    for i, (t, state) in enumerate(zip(traj.snapshot_times, traj.states)):
        u_file, mu_file = snapshot_files[i]
        radii = ",".join(_fmt(r) for r in state.radii)
        frozen = ",".join("1" if f else "0" for f in state.frozen)
        snapshots.append(f"{i} = t={_fmt(t)} u={u_file} mu={mu_file} radii={radii} frozen={frozen}")
    _write_sections(path, {
        "config": echo_config(cfg),
        "sources": [
            f"{j} = {_fmt(x)} {_fmt(y)} {_fmt(c)}"
            for j, ((x, y), c) in enumerate(zip(sources.locations, sources.rates))
        ],
        "freeze_events": [f"{j} = {_fmt(t)}" for j, t in traj.freeze_events],
        "snapshots": snapshots,
        "certificates": [],
        "timings": _timing_lines(timings),
    })


def _timing_lines(timings: dict[str, float | int]) -> list[str]:
    """One line per key, sorted: counts as integers, seconds to 3 decimals, other measures to 17 digits."""
    lines = []
    for key in sorted(timings):
        value = timings[key]
        if isinstance(value, int):
            lines.append(f"{key} = {value}")
        elif key.endswith("_seconds"):
            lines.append(f"{key} = {value:.3f}")
        else:
            lines.append(f"{key} = {_fmt(value)}")
    return lines


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


def _entry(values: dict[str, str], where: str, key: str, parse=None):
    """``values[key]``, or ``parse(values[key], f"manifest {where} {key}")``.

    ``parse`` is one of ``config``'s parsers, so a missing key and a
    malformed value are both ConfigErrors that name where.
    """
    if key not in values:
        raise ConfigError(f"manifest {where} lacks {key}")
    return values[key] if parse is None else parse(values[key], f"manifest {where} {key}")


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: RunConfig, quiet: bool) -> int:
    t_start = time.perf_counter()
    domain = cfg.domain()
    sources = resolve_sources(cfg, domain)
    traj = run(sources, domain, cfg.horizon, cfg.snapshot_times, cfg.grid_h)
    grid, lists = traj.grid, traj.lists

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    snapshot_files = []
    nu_blocks = []
    for i, state in enumerate(traj.states):
        u_name = f"snap{i:03d}_u.csv"
        mu_name = f"snap{i:03d}_mu.csv"
        u = height_field(state, sources, grid, lists)
        part = partition(grid, sources, state.radii, lists)
        mu = rolling_measure(state, sources, part, traj.spill_atoms)
        nu = spill_measure(state, sources, traj.spill_atoms)
        (out / u_name).write_text(field_to_csv(u))
        (out / mu_name).write_text(path_measure_to_csv(mu))
        nu_blocks.append(f"# snapshot {i} t={_fmt(traj.snapshot_times[i])}\n" + boundary_measure_to_lines(nu))
        snapshot_files.append((u_name, mu_name))
    (out / "nu.csv").write_text("".join(nu_blocks))

    timings = {
        "simulate_seconds": time.perf_counter() - t_start,
        "partition_rebuilds": lists.rebuilds,
        "max_candidates": lists.max_candidates,
    }
    write_manifest(out / "manifest.txt", cfg, sources, traj, snapshot_files, timings)
    if not quiet:
        print(f"simulate: {len(traj.states)} snapshots, {len(traj.freeze_events)} freezes -> {out}")
    return 0


def cmd_verify(manifest_path: Path, quiet: bool) -> int:
    t_start = time.perf_counter()
    sections = parse_manifest(manifest_path)
    echo = dict(line.partition(" = ")[::2] for line in sections.get("config", []))  # key = value
    out = manifest_path.parent

    domain = ConvexDomain(
        _entry(echo, "[config]", "domain.vertices", _rows),
        _entry(echo, "[config]", "domain.wall_values", _floats),
    )
    rows = [line.partition(" = ")[::2] for line in sections.get("sources", [])]  # index, x y rate
    if any(len(text.split()) != 3 for _, text in rows):
        raise ConfigError("manifest [sources] entries must hold x y rate")
    src = np.array([_floats(text, f"manifest [sources] entry {idx}") for idx, text in rows]).reshape(-1, 3)
    sources = make_sources(domain, src[:, :2], src[:, 2])
    h = _entry(echo, "[config]", "grid.h", _number)
    spacing = _entry(echo, "[config]", "grid.boundary_spacing", _number)
    cap = echo.get("tolerances.dual_node_cap", str(DUAL_NODE_CAP))  # absent from older manifests
    node_cap = _number(cap, "manifest [config] tolerances.dual_node_cap", _whole)
    grid = build_grid(domain, h)
    thresholds, _ = domain.escape_cost(sources.locations)
    # the inside cells' heights, to check each snapshot's u file against
    lists = SourceLists(grid.inside_centers(), sources.locations, grid.h)

    snapshots = []
    for line in sections.get("snapshots", []):
        idx, _, rest = line.partition(" = ")
        where = f"[snapshots] entry {idx}"
        pairs = [part.split("=", 1) for part in rest.split()]
        if any(len(pair) != 2 for pair in pairs):
            raise ConfigError(f"manifest {where} holds a field that is not key=value")
        fields = dict(pairs)
        u_file = _entry(fields, where, "u")
        if not (out / u_file).exists():
            raise ConfigError(f"missing snapshot file {u_file}")
        try:
            u = field_from_csv(grid, (out / u_file).read_text()).values[grid.inside_mask]
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"snapshot file {u_file}: {exc}") from None
        t = _entry(fields, where, "t", _number)
        radii = np.array([_number(r, f"manifest {where} radii") for r in _entry(fields, where, "radii").split(",")])
        flags = _entry(fields, where, "frozen").split(",")
        if not set(flags) <= {"0", "1"}:
            raise ConfigError(f"manifest {where} frozen: flags must be 0 or 1, got {','.join(flags)!r}")
        try:
            state = ConeState(t, radii, np.array([c == "1" for c in flags]), thresholds)
        except ValueError as exc:
            raise ConfigError(f"manifest {where}: {exc}") from None
        snapshots.append((idx, state, u))

    cert_lines = []
    all_pass = True
    pivots, rescale = 0, 0.0
    for idx, state, u in snapshots:
        u_residual = float(np.abs(u - eval_height_many(state, lists)).max(initial=0.0))
        problem = build_problem(state, sources, domain, grid, spacing)
        rescale = max(rescale, problem.demand_rescale)
        sol = solve_primal(problem)
        report = certify(*snapshot_heights(state, sources, problem), sol, problem)
        dual = solve_dual(problem, node_cap)
        primal_coarse = solve_primal(dual.problem)
        pivots += sol.pivots + primal_coarse.pivots
        lp_gap = abs(dual.value - primal_coarse.primal_value)
        lp_ok = lp_gap <= LP_TOL * max(1.0, primal_coarse.primal_value)
        passed = report.passed and u_residual <= LP_TOL and lp_ok
        status = "PASS" if passed else "FAIL"
        all_pass &= passed
        cert_lines.append(
            f"{idx} = t={_fmt(state.time)} primal={_fmt(sol.primal_value)} dual={_fmt(dual.value)} "
            f"lp_gap={_fmt(lp_gap)} pairing_gap={_fmt(report.duality_gap)} "
            f"ray_residual={_fmt(report.ray_residual)} wall_residual={_fmt(report.wall_residual)} "
            f"u_residual={_fmt(u_residual)} tolerance={_fmt(report.tolerance)} {status}"
        )
        if not quiet:
            print(f"snapshot {idx}: {status} (gap {report.duality_gap:.3e}, tol {report.tolerance:.3e})")

    summary = "PASS" if all_pass else "FAIL"
    report_text = "\n".join(
        ["silopile-certificates-v1", f"result = {summary}"] + cert_lines
    ) + "\n"
    (out / "certificates.txt").write_text(report_text)

    # refresh the manifest's certificate section, keeping timings quarantined
    timings = {
        "verify_seconds": time.perf_counter() - t_start,
        "primal_pivots": pivots,
        "max_demand_rescale": rescale,
    }
    _splice_manifest(manifest_path, cert_lines, timings)
    if not quiet:
        print(f"verify: {summary}")
    return 0 if all_pass else 1


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

    sim = height_field(final, sources, traj.grid, traj.lists)
    closed = equilibrium_field(sources, thresholds, traj.grid, traj.lists)
    sup_diff = float(np.abs(sim.values - closed.values).max())

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "final_u.csv").write_text(field_to_csv(sim))
    (out / "equilibrium_u.csv").write_text(field_to_csv(closed))
    freeze = dict((j, t) for j, t in traj.freeze_events)
    lines = ["silopile-equilibrium-v1", f"sup_diff = {_fmt(sup_diff)}", f"rate_bound = {_fmt(bound)}"]
    for j in range(sources.k):
        t_j = freeze.get(j, float("nan"))
        lines.append(f"freeze {j} = t={_fmt(t_j)} threshold={_fmt(thresholds[j])}")
    (out / "equilibrium.txt").write_text("\n".join(lines) + "\n")
    if not quiet:
        print(f"equilibrium: sup diff {sup_diff:.3e} (grid h {cfg.grid_h:.6g}) -> {out}")
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
        traj = run(sources, domain, cfg.horizon, cfg.snapshot_times, cfg.grid_h)
        per_n[n] = [eval_height_many(state, traj.lists) for state in traj.states]

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
    pv.add_argument("--manifest", default=None)
    pv.add_argument("--config", default=None, help="config whose output directory holds the manifest")
    pv.add_argument("--out", default=None)
    pv.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if args.manifest:
                if args.out is not None:
                    raise ConfigError(
                        "verify --out only picks the output directory of --config; "
                        "with --manifest the certificates are written beside the manifest"
                    )
                manifest = Path(args.manifest)
            elif args.config:
                cfg = _load(args)
                manifest = Path(cfg.output_dir) / "manifest.txt"
            else:
                raise ConfigError("verify needs --manifest or --config")
            return cmd_verify(manifest, args.quiet)
        cfg = _load(args)
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


def _load(args) -> RunConfig:
    cfg = parse_config(args.config)
    if args.out is not None:
        cfg.output_dir = args.out
    return cfg
