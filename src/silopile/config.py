"""Run configuration: plain-text sectioned key-value files.

One config describes one reproducible run: the domain polygon and wall
profile, the sources, the horizon and snapshot times, grid spacings and
the output directory.  Numbers are parsed by float() at full precision.
"""

from __future__ import annotations

import configparser
import itertools
import math
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
    """``kind(text)``; a malformed or non-finite number is a ConfigError naming where."""
    try:
        value = kind(text)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {text.strip()!r} is not a finite number")
    return value


def _fmt(x) -> str:
    """Round-trip text of a number, as configs, manifests and reports write it."""
    return f"{float(x):.17g}"


def _whole(text: str) -> int:
    value = float(text)  # integer keys accept float spellings such as 4.0
    if not value.is_integer():
        raise ValueError(f"{text.strip()!r} is not a whole number")
    return int(value)


def _count(text: str, where: str) -> int:
    """A whole number of at least 1; else a ConfigError naming where."""
    if (value := _number(text, where, _whole)) < 1:
        raise ConfigError(f"{where}: must be at least 1")
    return value


def _positive(text: str, where: str) -> float:
    """A finite number above 0; else a ConfigError naming where."""
    if (value := _number(text, where)) <= 0:
        raise ConfigError(f"{where}: must be positive")
    return value


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
    # Without interpolation a value is its literal text, '%' included.
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:  # a repeated section or key, a line outside any section
        raise ConfigError(f"cannot parse config file {path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return _resolve({name: dict(cp[name]) for name in cp.sections()})


def parse_echo(lines: list[str]) -> RunConfig:
    """The run a manifest's ``[config]`` section echoes; ``echo_config`` of it must give ``lines`` back."""
    sections: dict[str, dict[str, str]] = {}
    for key, _, value in (line.partition(" = ") for line in lines):
        section, _, name = key.partition(".")
        sections.setdefault(section, {})[name] = value
    try:
        cfg = _resolve(sections)
    except ConfigError as exc:
        raise ConfigError(f"manifest [config]: {exc}") from None
    require_lines("manifest [config]", lines, echo_config(cfg))
    return cfg


def require_lines(where: str, written: list[str], rebuilt: list[str]) -> None:
    """A ConfigError naming where and the first written line that is not the line rebuilt for it."""
    for got, want in itertools.zip_longest(written, rebuilt):
        if got != want:
            raise ConfigError(f"{where} holds {got!r} where the run gives {want!r}")


def _resolve(sections: dict[str, dict[str, str]]) -> RunConfig:
    """The run config of each section's key texts, checked key by key."""

    def get(section, key, fallback=None):
        if (value := sections.get(section, {}).get(key, fallback)) is None:
            missing = f"[{section}]: missing key {key!r}" if section in sections else f"missing section [{section}]"
            raise ConfigError(missing)
        return value

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
    n_list = [_count(x, "[run] n_list") for x in get("run", "n_list", "").split()]

    grid_h = _positive(get("grid", "h"), "[grid] h")
    boundary_spacing = _positive(get("grid", "boundary_spacing", str(grid_h)), "[grid] boundary_spacing")
    if horizon <= 0:
        raise ConfigError("[run]: horizon must be positive")
    for t in snapshot_times:
        if not 0.0 <= t <= horizon:
            raise ConfigError(f"[run] snapshot_times: {t} outside [0, horizon]")
    if any(b <= a for a, b in zip(snapshot_times, snapshot_times[1:])):
        raise ConfigError("[run] snapshot_times: must be strictly increasing")

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
        dual_node_cap=_count(get("tolerances", "dual_node_cap", str(DUAL_NODE_CAP)), "[tolerances] dual_node_cap"),
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
