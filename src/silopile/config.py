"""Run configuration: plain-text sectioned key-value files.

One config describes one reproducible run: the domain polygon and wall
profile, the sources, the horizon and snapshot times, grid spacings and
the output directory.  Numbers are parsed by float() at full precision.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import ConvexDomain
from .sources import GAUSSIAN, POINT_LIST, UNIFORM_POLYGON, DensitySpec
from .tolerances import DUAL_NODE_CAP


class ConfigError(Exception):
    """Malformed run configuration; the message names section and key."""


@dataclass
class RunConfig:
    domain_vertices: np.ndarray
    wall_values: np.ndarray
    density: DensitySpec
    n_sources: int
    horizon: float
    snapshot_times: list[float]
    grid_h: float
    boundary_spacing: float
    output_dir: str
    seed: int = 0
    n_list: list[int] = field(default_factory=list)
    dual_node_cap: int = DUAL_NODE_CAP

    def domain(self) -> ConvexDomain:
        return ConvexDomain(self.domain_vertices, self.wall_values)


def _number(text: str, where: str, kind=float):
    """``kind(text)``; a malformed number is a ConfigError naming where."""
    try:
        return kind(text)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _fmt(x) -> str:
    """Round-trip text of a number, as configs, manifests and reports write it."""
    return f"{float(x):.17g}"


def _whole(text: str) -> int:
    return int(float(text))  # integer keys accept float spellings such as 4.0


def _rows(text: str, where: str, width: int = 2) -> np.ndarray:
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) != width:
            raise ConfigError(f"{where}: expected {width} numbers per entry, got {chunk!r}")
        rows.append([_number(p, where) for p in parts])
    if not rows:
        raise ConfigError(f"{where}: empty list")
    return np.array(rows)


def _floats(text: str, where: str) -> list[float]:
    return [_number(p, where) for p in text.split()]


def parse_config(path: str | Path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    def get(section, key, fallback=None):
        if not cp.has_section(section):
            if fallback is None:
                raise ConfigError(f"missing section [{section}]")
            return fallback
        if not cp.has_option(section, key):
            if fallback is None:
                raise ConfigError(f"[{section}]: missing key {key!r}")
            return fallback
        return cp.get(section, key)

    def number(section, key, fallback=None, kind=float):
        return _number(get(section, key, fallback), f"[{section}] {key}", kind)

    vertices = _rows(get("domain", "vertices"), "[domain] vertices")
    walls = np.array(_floats(get("domain", "wall_values"), "[domain] wall_values"))

    kind = get("sources", "kind").strip()
    n_sources = number("sources", "n", "0", _whole)
    if kind == POINT_LIST:
        points = _rows(get("sources", "points"), "[sources] points", 3)
        if n_sources == 0:
            n_sources = len(points)
        density = DensitySpec(
            kind=POINT_LIST,
            total_mass=float(points[:, 2].sum()),
            points=points[:, :2].copy(),
            weights=points[:, 2].copy(),
        )
    elif kind == UNIFORM_POLYGON:
        poly = _rows(get("sources", "polygon"), "[sources] polygon")
        density = DensitySpec(
            kind=UNIFORM_POLYGON,
            total_mass=number("sources", "total_mass"),
            polygon=poly,
        )
    elif kind == GAUSSIAN:
        center = _rows(get("sources", "center"), "[sources] center")[0]
        density = DensitySpec(
            kind=GAUSSIAN,
            total_mass=number("sources", "total_mass"),
            center=center,
            sigma=number("sources", "sigma"),
            radius=number("sources", "radius"),
        )
    else:
        raise ConfigError(f"[sources]: unknown kind {kind!r}")
    if n_sources < 1:
        raise ConfigError("[sources] n: must be at least 1")

    horizon = number("run", "horizon")
    snapshot_times = _floats(get("run", "snapshot_times", ""), "[run] snapshot_times")
    n_list = [_number(x, "[run] n_list", _whole) for x in get("run", "n_list", "").split()]

    grid_h = number("grid", "h")
    boundary_spacing = number("grid", "boundary_spacing", str(grid_h))
    if grid_h <= 0 or boundary_spacing <= 0:
        raise ConfigError("[grid]: spacings must be positive")
    if horizon <= 0:
        raise ConfigError("[run]: horizon must be positive")
    for t in snapshot_times:
        if not 0.0 <= t <= horizon:
            raise ConfigError(f"[run]: snapshot time {t} outside [0, horizon]")

    return RunConfig(
        domain_vertices=vertices,
        wall_values=walls,
        density=density,
        n_sources=n_sources,
        horizon=horizon,
        snapshot_times=snapshot_times,
        grid_h=grid_h,
        boundary_spacing=boundary_spacing,
        output_dir=get("output", "directory", "out"),
        seed=number("rng", "seed", "0", _whole),
        n_list=n_list,
        dual_node_cap=number("tolerances", "dual_node_cap", str(DUAL_NODE_CAP), _whole),
    )


def echo_config(cfg: RunConfig) -> list[str]:
    """Canonical, fully resolved key=value listing (stable order)."""
    d = cfg.density
    lines = [
        "domain.vertices = " + " ; ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in cfg.domain_vertices),
        "domain.wall_values = " + " ".join(_fmt(w) for w in cfg.wall_values),
        f"sources.kind = {d.kind}",
    ]
    if d.kind == POINT_LIST:
        lines.append(
            "sources.points = "
            + " ; ".join(f"{_fmt(x)} {_fmt(y)} {_fmt(c)}" for (x, y), c in zip(d.points, d.weights))
        )
    if d.kind == UNIFORM_POLYGON:
        lines.append("sources.polygon = " + " ; ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in d.polygon))
        lines.append(f"sources.total_mass = {_fmt(d.total_mass)}")
    if d.kind == GAUSSIAN:
        lines.append(f"sources.center = {_fmt(d.center[0])} {_fmt(d.center[1])}")
        lines.append(f"sources.sigma = {_fmt(d.sigma)}")
        lines.append(f"sources.radius = {_fmt(d.radius)}")
        lines.append(f"sources.total_mass = {_fmt(d.total_mass)}")
    lines += [
        f"sources.n = {cfg.n_sources}",
        f"run.horizon = {_fmt(cfg.horizon)}",
        "run.snapshot_times = " + " ".join(_fmt(t) for t in cfg.snapshot_times),
        "run.n_list = " + " ".join(str(n) for n in cfg.n_list),
        f"grid.h = {_fmt(cfg.grid_h)}",
        f"grid.boundary_spacing = {_fmt(cfg.boundary_spacing)}",
        f"output.directory = {cfg.output_dir}",
        f"rng.seed = {cfg.seed}",
        f"tolerances.dual_node_cap = {cfg.dual_node_cap}",
    ]
    return lines
