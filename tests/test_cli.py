import itertools
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import silopile
from silopile import cli, verify
from silopile.cli import MANIFEST_SECTIONS, _write_sections, main, parse_manifest
from silopile.cones import run
from silopile.config import ConfigError, echo_config, parse_config, parse_echo
from silopile.fields import field_from_csv, heights_at
from silopile.geometry import ConvexDomain
from silopile.regions import build_grid

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
TWO_SOURCE = (Path(__file__).resolve().parents[1] / "configs" / "two_source.ini").read_text().replace(
    "directory = out/two_source", "directory = {out}")

SINGLE_SOURCE = """
[domain]
vertices = 0 0 ; 1 0 ; 1 1 ; 0 1
wall_values = 0.12 0.3 0.2 0.25

[sources]
kind = point-list
points = 0.3 0.35 0.6 ; 0.7 0.6 0.8

[run]
horizon = 0.3
snapshot_times = 0.05 0.12 0.3

[grid]
h = 0.03125
boundary_spacing = 0.03125

[output]
directory = {out}
"""

EQ_CONFIG = """
[domain]
vertices = 0 0 ; 1 0 ; 1 1 ; 0 1
wall_values = 0 0 0 0

[sources]
kind = point-list
points = 0.5 0.5 1.0

[run]
horizon = 1.0
snapshot_times =

[grid]
# 1/129: an odd cell count centers the lattice on the source apex
h = 0.007751937984496124

[output]
directory = {out}
"""

CONVERGE_CONFIG = """
[domain]
vertices = 0 0 ; 4 0 ; 4 4 ; 0 4
wall_values = 10 10 10 10

[sources]
kind = uniform-on-polygon
polygon = 1 1 ; 3 1 ; 3 3 ; 1 3
total_mass = 1.0
n = 4

[run]
horizon = 0.25
snapshot_times = 0.1 0.25
n_list = 4 16

[grid]
h = 0.0625

[output]
directory = {out}
"""


# 256 sources at h = 1/64: short source lists, as in the benchmark's grow workload.
MANY_SOURCES = """
[domain]
vertices = 0 0 ; 1 0 ; 1 1 ; 0 1
wall_values = 0 0.02 0.01 0.03

[sources]
kind = uniform-on-polygon
polygon = 0.05 0.05 ; 0.95 0.05 ; 0.95 0.95 ; 0.05 0.95
total_mass = 1.0
n = 256

[run]
horizon = 0.02
snapshot_times = 0.005 0.02

[grid]
h = 0.015625

[output]
directory = {out}
"""

# The benchmark's grow run: MANY_SOURCES to horizon 0.1.
GROW = MANY_SOURCES.replace("horizon = 0.02\nsnapshot_times = 0.005 0.02", "horizon = 0.1\nsnapshot_times = 0.02 0.05 0.1")

# 64 Gaussian sources at h = 1/64: the run passes t = 0.01, then a feeding
# region narrower than the grid resolves stops it near t = 0.1.
UNRESOLVED = MANY_SOURCES.replace(
    "kind = uniform-on-polygon\npolygon = 0.05 0.05 ; 0.95 0.05 ; 0.95 0.95 ; 0.05 0.95",
    "kind = gaussian-truncated\ncenter = 0.5 0.5\nsigma = 0.2\nradius = 0.4",
).replace("n = 256", "n = 64").replace(
    "horizon = 0.02\nsnapshot_times = 0.005 0.02", "horizon = 0.2\nsnapshot_times = 0.01 0.2")

GAUSSIAN_CONFIG = CONVERGE_CONFIG.replace(
    "kind = uniform-on-polygon\npolygon = 1 1 ; 3 1 ; 3 3 ; 1 3",
    "kind = gaussian-truncated\ncenter = 2 2\nsigma = 0.3\nradius = 0.9",
)


def write_config(tmp_path, template, name="run.ini"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(template.format(out=out))
    return path, out


def strip_timings(text: str) -> str:
    lines = []
    in_timings = False
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            in_timings = line == "[timings]"
        if not in_timings:
            lines.append(line)
    return "\n".join(lines)


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        cfg = parse_config(path)
        assert cfg.horizon == 0.3
        assert cfg.grid_h == 0.03125
        assert len(cfg.density.points) == 2
        assert cfg.snapshot_times == [0.05, 0.12, 0.3]

    def test_missing_section_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[domain]\nvertices = 0 0 ; 1 0 ; 1 1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_snapshot_outside_horizon_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(SINGLE_SOURCE.format(out=tmp_path).replace(
            "snapshot_times = 0.05 0.12 0.3", "snapshot_times = 0.05 0.6"))
        with pytest.raises(ConfigError, match=r"^\[run\] snapshot_times: 0\.6 outside \[0, horizon\]$"):
            parse_config(path)

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("[output]", "[grid]\nh = 0.5\n[output]", "section 'grid' already exists"),
            ("[grid]\n", "[grid]\nh = 0.5\n", "option 'h' in section 'grid' already exists"),
            ("\n[domain]", "h = 0.5\n[domain]", "File contains no section headers."),
        ],
        ids=["duplicate_section", "duplicate_key", "no_section_header"],
    )
    def test_syntax_error_names_file(self, tmp_path, capsys, old, new, named):
        assert SINGLE_SOURCE.count(old) == 1
        path, out = write_config(tmp_path, SINGLE_SOURCE.replace(old, new))
        assert main(["simulate", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot parse config file {path}: ") and named in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_percent_is_literal(self, tmp_path):
        out = tmp_path / "out" / "50%done"
        path = tmp_path / "run.ini"
        path.write_text(SINGLE_SOURCE.format(out=out))
        assert parse_config(path).output_dir == str(out)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 0

    @pytest.mark.parametrize(
        "template",
        [
            *(path.read_text() for path in CONFIGS),
            CONVERGE_CONFIG,
            GAUSSIAN_CONFIG,
            SINGLE_SOURCE.replace("\n[run]", "n = 1\n[run]"),
            SINGLE_SOURCE.replace("[output]", "[tolerances]\ndual_node_cap = 7\n[rng]\nseed = 3\n[output]"),
        ],
        ids=[*(path.stem for path in CONFIGS), "uniform", "gaussian", "point_list_binned", "tolerances_and_rng"],
    )
    def test_echo_round_trips(self, tmp_path, template):
        path, _ = write_config(tmp_path, template)
        cfg = parse_config(path)
        lines = echo_config(cfg)
        assert echo_config(parse_echo(lines)) == lines

    def test_bad_number_reports_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(SINGLE_SOURCE.format(out=tmp_path).replace("0.3 0.35 0.6", "x y z"))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "sources" in str(err.value)

    @pytest.mark.parametrize(
        "template, old, new, named",
        [
            (SINGLE_SOURCE, "\n[run]", "n = 2x\n[run]", "[sources] n"),
            (CONVERGE_CONFIG, "total_mass = 1.0", "total_mass = 1.0x", "[sources] total_mass"),
            (GAUSSIAN_CONFIG, "sigma = 0.3", "sigma = 0.3.", "[sources] sigma"),
            (GAUSSIAN_CONFIG, "radius = 0.9", "radius = r", "[sources] radius"),
            (SINGLE_SOURCE, "horizon = 0.3", "horizon = 0.5x", "[run] horizon"),
            (SINGLE_SOURCE, "h = 0.03125", "h = 1/64", "[grid] h"),
            (SINGLE_SOURCE, "boundary_spacing = 0.03125", "boundary_spacing = fine", "[grid] boundary_spacing"),
            (SINGLE_SOURCE, "boundary_spacing = 0.03125", "boundary_spacing = 0", "[grid] boundary_spacing"),
            (SINGLE_SOURCE, "[output]", "[rng]\nseed = x1\n[output]", "[rng] seed"),
            (SINGLE_SOURCE, "[output]", "[tolerances]\ndual_node_cap = 4e\n[output]", "[tolerances] dual_node_cap"),
            (SINGLE_SOURCE, "[output]", "[tolerances]\ndual_node_cap = nan\n[output]", "[tolerances] dual_node_cap"),
            (SINGLE_SOURCE, "[output]", "[tolerances]\ndual_node_cap = -5\n[output]", "[tolerances] dual_node_cap"),
            (CONVERGE_CONFIG, "n_list = 4 16", "n_list = 0 4", "[run] n_list"),
            (SINGLE_SOURCE, "h = 0.03125", "h = inf", "[grid] h"),
            (SINGLE_SOURCE, "h = 0.03125", "h = nan", "[grid] h"),
            (SINGLE_SOURCE, "horizon = 0.3", "horizon = inf", "[run] horizon"),
            (SINGLE_SOURCE, "\n[run]", "n = 16.9\n[run]", "[sources] n"),
            (SINGLE_SOURCE, "snapshot_times = 0.05 0.12 0.3", "snapshot_times = 0.12 0.05 0.3", "[run] snapshot_times"),
            (SINGLE_SOURCE, "snapshot_times = 0.05 0.12 0.3", "snapshot_times = 0.05 0.12 0.12", "[run] snapshot_times"),
            (GAUSSIAN_CONFIG, "sigma = 0.3", "sigma = 0", "[sources] sigma"),
            (GAUSSIAN_CONFIG, "radius = 0.9", "radius = -0.9", "[sources] radius"),
            (CONVERGE_CONFIG, "total_mass = 1.0", "total_mass = -1", "[sources] total_mass"),
            (SINGLE_SOURCE, "0.3 0.35 0.6", "0.3 0.35 -1", "[sources] points"),
            (SINGLE_SOURCE, "0.7 0.6 0.8", "0.7 0.6 0", "[sources] points"),
        ],
        ids=[
            "n", "total_mass", "sigma", "radius", "horizon", "h", "boundary_spacing", "zero_spacing", "seed",
            "node_cap", "nan_cap", "negative_cap", "n_list_entry",
            "inf_h", "nan_h", "inf_horizon", "fractional_n", "decreasing_times", "repeated_times",
            "zero_sigma", "negative_radius", "negative_total_mass", "negative_weight", "zero_weight",
        ],
    )
    def test_bad_scalar_names_key(self, tmp_path, capsys, template, old, new, named):
        assert template.count(old) == 1
        path, out = write_config(tmp_path, template.replace(old, new))
        assert main(["simulate", "--config", str(path), "--quiet"]) == 2
        assert f"config error: {named}: " in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_file_inventory(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "manifest.txt",
            "nu.csv",
            "snap000_mu.csv",
            "snap000_u.csv",
            "snap001_mu.csv",
            "snap001_u.csv",
            "snap002_mu.csv",
            "snap002_u.csv",
        ]

    def test_near_zero_time_snapshot(self, tmp_path):
        template = SINGLE_SOURCE.replace("snapshot_times = 0.05 0.12 0.3", "snapshot_times = 1e-9")
        path, out = write_config(tmp_path, template)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        body = (out / "snap000_u.csv").read_text().splitlines()[1:]
        values = np.array([float(line.split(",")[2]) for line in body])
        assert values.max() < 1e-3

    def test_rerun_byte_identical(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(first) == set(second)
        for name in first:
            if name == "manifest.txt":
                assert strip_timings(first[name].decode()) == strip_timings(second[name].decode())
            else:
                assert first[name] == second[name], name

    def test_escape_cost_once_per_source(self, tmp_path, monkeypatch):
        points = []
        escape_cost = ConvexDomain.escape_cost

        def counted(self, y):
            points.append(len(np.atleast_2d(y)))
            return escape_cost(self, y)

        monkeypatch.setattr(ConvexDomain, "escape_cost", counted)
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert "frozen=1,1" in (out / "manifest.txt").read_text()  # both sources froze
        assert sum(points) == 2

    def test_distances_once_per_run(self, tmp_path, monkeypatch):
        # One set of source lists per run, owned by the run's grid and shared
        # by the RK2 steps and the snapshot loop, however many steps the
        # horizon takes.  With two sources they hold the full cells x sources
        # matrix, built once; with 256 they never build it.  verify's
        # partitions and height read-back share one set too, equilibrium's
        # fields share the run's, and converge builds one per n.
        from silopile import cones, regions

        built, shapes, steps = [], [], []
        lists_type, distances, step = regions.SourceLists, regions.distances, cones.step

        def counted_lists(points, locations, h):
            built.append(len(points))
            return lists_type(points, locations, h)

        def counted_distances(points, locations):
            shapes.append((len(points), len(locations)))
            return distances(points, locations)

        def counted_step(*args, **kwargs):
            steps.append(args[0].time)
            return step(*args, **kwargs)

        monkeypatch.setattr(regions, "SourceLists", counted_lists)
        monkeypatch.setattr(regions, "distances", counted_distances)
        monkeypatch.setattr(cones, "step", counted_step)

        def simulate(template, where):
            (tmp_path / where).mkdir()
            path, out = write_config(tmp_path / where, template)
            built.clear()
            shapes.clear()
            steps.clear()
            assert main(["simulate", "--config", str(path), "--quiet"]) == 0
            cells = int(parse_config(path).grid_h ** -2)  # the unit square's inside cells
            return len(built), len(steps), [shape for shape in shapes if shape[0] == cells], out

        per_horizon = []
        for horizon, times in (("0.12", "0.05 0.12"), ("0.3", "0.05 0.12 0.3")):
            template = SINGLE_SOURCE.replace("horizon = 0.3", f"horizon = {horizon}").replace(
                "snapshot_times = 0.05 0.12 0.3", f"snapshot_times = {times}")
            per_horizon.append(simulate(template, horizon))
        (built_short, steps_short, full_short, _), (built_long, steps_long, full_long, _) = per_horizon
        assert 0 < steps_short < steps_long
        assert built_short == built_long == 1
        assert full_short == full_long == [(1024, 2)]

        built_many, steps_many, full_many, out = simulate(MANY_SOURCES, "many")
        assert built_many == 1 and steps_many > 0
        assert full_many == []
        timings = parse_manifest(out / "manifest.txt")["timings"]
        assert any(line.startswith("partition_rebuilds = ") for line in timings)

        built.clear()
        assert main(["verify", "--manifest", str(per_horizon[1][3] / "manifest.txt"), "--quiet"]) == 0
        assert len(built) == 1
        for command, template, runs in (("equilibrium", SINGLE_SOURCE, 1), ("converge", CONVERGE_CONFIG, 2)):
            (tmp_path / command).mkdir()
            path, _ = write_config(tmp_path / command, template)
            built.clear()
            assert main([command, "--config", str(path), "--quiet"]) == 0
            assert len(built) == runs, command

    def test_snapshots_cause_no_rebuild(self, tmp_path):
        # Each snapshot is read as the run passes it, so its height field and
        # partition move the source lists only forward: simulate rebuilds them
        # as often as the run alone does.
        path, out = write_config(tmp_path, GROW)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        timings = dict(line.split(" = ") for line in parse_manifest(out / "manifest.txt")["timings"])
        cfg = parse_config(path)
        domain = cfg.domain()
        sources = cli.resolve_sources(cfg, domain)
        traj = run(sources, domain, cfg.horizon, [], cfg.grid_h)
        alone = traj.grid.source_lists(sources.locations).rebuilds
        assert alone == 3
        assert timings["partition_rebuilds"] == str(alone)

    def test_failed_run_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # The run fails after passing its first snapshot; files are written
        # only once the run ends, so there is no output directory at all.
        from silopile import cones

        starts, step = [], cones.step

        def counted_step(*args, **kwargs):
            starts.append(args[0].time)
            return step(*args, **kwargs)

        monkeypatch.setattr(cones, "step", counted_step)
        path, out = write_config(tmp_path, UNRESOLVED)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 2
        assert "unresolved feeding region" in capsys.readouterr().err
        assert max(starts) > 0.01
        assert not out.exists()

    def test_no_command_imports_scipy(self, tmp_path):
        # scipy is a test dependency only: with it blocked, every command runs.
        runs = []
        for command, template in (("simulate", SINGLE_SOURCE), ("equilibrium", SINGLE_SOURCE), ("converge", CONVERGE_CONFIG)):
            (tmp_path / command).mkdir()
            path, out = write_config(tmp_path / command, template)
            runs.append([command, "--config", str(path), "--quiet"])
            if command == "simulate":
                runs.append(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"])
        src = str(Path(silopile.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from silopile.cli import main\n"
            f"print([main(argv) for argv in {runs!r}])\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[0, 0, 0, 0]"

    def test_gaussian_round_trip(self, tmp_path):
        template = GAUSSIAN_CONFIG.replace("0 0 ; 4 0 ; 4 4 ; 0 4", "0 0 ; 1 0 ; 1 1 ; 0 1").replace(
            "center = 2 2\nsigma = 0.3\nradius = 0.9", "center = 0.5 0.5\nsigma = 0.2\nradius = 0.3").replace(
            "horizon = 0.25\nsnapshot_times = 0.1 0.25", "horizon = 0.05\nsnapshot_times = 0.02 0.05").replace(
            "h = 0.0625", "h = 0.03125")
        path, out = write_config(tmp_path, template)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        echo = parse_manifest(out / "manifest.txt")["config"]
        assert echo[2:8] == [
            "sources.kind = gaussian-truncated",
            "sources.center = 0.5 0.5",
            "sources.sigma = 0.20000000000000001",
            "sources.radius = 0.29999999999999999",
            "sources.total_mass = 1",
            "sources.n = 4",
        ]
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 0
        assert "result = PASS" in (out / "certificates.txt").read_text()

    @pytest.mark.parametrize(
        "argv, template, old, new, named",
        [
            (["simulate", "--config", "{config}"], SINGLE_SOURCE, "kind = point-list", "kind = cloud",
             "[sources]: unknown kind 'cloud'"),
            (["simulate", "--config", "{config}"], CONVERGE_CONFIG, "n = 4\n", "n = 0\n",
             "[sources] n: must be at least 1"),
            (["simulate", "--config", "{config}"], SINGLE_SOURCE, "h = 0.03125", "h = -0.03125",
             "[grid] h: must be positive"),
            (["simulate", "--config", "{config}"], SINGLE_SOURCE, "horizon = 0.3", "horizon = 0",
             "[run]: horizon must be positive"),
            (["simulate", "--config", "{config}"], SINGLE_SOURCE, "h = 0.03125", "h = 1e-9",
             "grid spacing h = 1e-09 needs 1000000000 x 1000000000 cells"),
            (["simulate", "--config", "{config}.missing"], SINGLE_SOURCE, None, None, "cannot read config file"),
            (["simulate", "--config", "{config}"], SINGLE_SOURCE, "[grid]\n", "[mesh]\n", "missing section [grid]"),
            (["verify", "--manifest", "{config}"], SINGLE_SOURCE, None, None, "not a silopile-manifest-v1 file"),
            (["converge", "--config", "{config}"], SINGLE_SOURCE, None, None, "[run]: converge requires n_list"),
        ],
        ids=["unknown_kind", "density_n_0", "grid_h", "horizon", "grid_too_large", "unreadable", "missing_section",
             "manifest_header", "converge_n_list"],
    )
    def test_exit_2_names_cause(self, tmp_path, capsys, argv, template, old, new, named):
        if old is not None:
            assert template.count(old) == 1
            template = template.replace(old, new)
        path, out = write_config(tmp_path, template)
        assert main([arg.format(config=path) for arg in argv] + ["--quiet"]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_exit_code_2_on_bad_config(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[domain]\nvertices = broken\n")
        assert main(["simulate", "--config", str(path), "--quiet"]) == 2

    def test_point_outside_domain_is_named(self, tmp_path, capsys):
        path, out = write_config(tmp_path, SINGLE_SOURCE.replace("0.7 0.6 0.8", "1.5 0.6 0.8"))
        assert main(["simulate", "--config", str(path), "--quiet"]) == 2
        assert "(1.5, 0.6) is not strictly inside the domain" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_end_to_end_pass(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 0
        report = (out / "certificates.txt").read_text()
        assert "result = PASS" in report
        manifest = (out / "manifest.txt").read_text()
        assert "[certificates]" in manifest
        assert "PASS" in manifest.split("[certificates]")[1]

    def test_missing_snapshot_file_errors(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        (out / "snap001_u.csv").unlink()
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 2

    def test_edited_height_fails_its_snapshot(self, tmp_path):
        # simulate writes u to 17 digits, so verify reads back the heights
        # it recomputes from the radii exactly; 0.5 on one cell FAILs
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        u_file = out / "snap001_u.csv"
        header, first, *rest = u_file.read_text().splitlines()
        x, y, value = first.split(",")
        u_file.write_text("\n".join([header, f"{x},{y},{float(value) + 0.5!r}", *rest]) + "\n")
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 1
        lines = (out / "certificates.txt").read_text().splitlines()
        assert lines[1] == "result = FAIL"
        assert [line.rsplit(" ", 1)[1] for line in lines[2:]] == ["PASS", "FAIL", "PASS"]
        residuals = [float(re.search(r" u_residual=(\S+) ", line).group(1)) for line in lines[2:]]
        assert residuals[0] == residuals[2] == 0.0
        assert residuals[1] == pytest.approx(0.5, abs=1e-12)

    def test_truncated_height_file_is_named(self, tmp_path, capsys):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        u_file = out / "snap001_u.csv"
        u_file.write_text("".join(u_file.read_text().splitlines(keepends=True)[:-1]))
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 2
        assert "snapshot file snap001_u.csv: expected" in capsys.readouterr().err
        assert not (out / "certificates.txt").exists()

    def test_relabelled_height_row_is_named(self, tmp_path, capsys):
        # the value is untouched, but the row no longer names its cell
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        u_file = out / "snap001_u.csv"
        header, first, *rest = u_file.read_text().splitlines()
        value = first.rsplit(",", 1)[1]
        u_file.write_text("\n".join([header, f"9,9,{value}", *rest]) + "\n")
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"snapshot file snap001_u.csv: row 1 '9,9,{value}' is not at the cell centre" in err
        assert not (out / "certificates.txt").exists()

    @pytest.mark.parametrize(
        "pattern, keep, named",
        [
            (r"^domain\.wall_values = .*\n", "", "[config]: [domain]: missing key 'wall_values'"),
            (r"^(1 = t=.*) radii=\S+", r"\1", "[snapshots] entry 1 radii: could not convert string to float: ''"),
            (r"^(0 = \S+ \S+) \S+$", r"\1", "[sources] holds {new!r} where the run gives {old!r}"),
            (r"^(1 = t=\S+) ", r"\1 junk ", "[snapshots] entry 1 holds {new!r} where the run gives {old!r}"),
            (r"^1 = t=\S+ ", "1 = t=abc ", "[snapshots] entry 1 holds {new!r} where the run gives {old!r}"),
            (r"^(2 = .* radii=)\S+?,", r"\1r,", "[snapshots] entry 2 radii: could not convert string to float: 'r'"),
            (r"^grid\.h = \S+$", "grid.h = 1/32", "[config]: [grid] h: could not convert string to float: '1/32'"),
            (r"^(domain\.wall_values = \S+) \S+", r"\1 x", "[config]: [domain] wall_values: could not convert"),
            (r"^0 = (\S+) (\S+ \S+)$", r"0 = \1x \2", "[sources] holds {new!r} where the run gives {old!r}"),
            (
                r"^tolerances\.dual_node_cap = \S+$",
                "tolerances.dual_node_cap = 4e",
                "[config]: [tolerances] dual_node_cap: could not convert string to float: '4e'",
            ),
            (r"^(1 = t=.* radii=[^,\s]+),\S+", r"\1", "[snapshots] entry 1: 1 radii for 2 sources"),
            (r"^(1 = t=.* frozen=\d),\d$", r"\1", "[snapshots] entry 1 holds {new!r} where the run gives {old!r}"),
            (r"^(1 = t=.* frozen=\d),\d$", r"\1,x", "[snapshots] entry 1 holds {new!r} where the run gives {old!r}"),
            (r"^(0 = t=.* frozen=)0,", r"\g<1>1,", "[snapshots] entry 0 holds {new!r} where the run gives {old!r}"),
            (r"^grid\.h = \S+$", "grid.h = inf", "[config]: [grid] h: 'inf' is not a finite number"),
            (r"^(2 = .* radii=)\S+?,", r"\1nan,", "[snapshots] entry 2 radii: 'nan' is not a finite number"),
            (r"^(1 = t=)\S+ ", r"\1inf ", "[snapshots] entry 1 holds {new!r} where the run gives {old!r}"),
            (r"^(1 = t=)\S+ ", r"\g<1>0.9 ", "[snapshots] entry 1 holds {new!r} where the run gives {old!r}"),
            (r"^2 = t=.*\n", "", "[snapshots] holds 2 entries for 3 run.snapshot_times"),
            (
                r"^tolerances\.dual_node_cap = .*\n",
                "",
                "[config] holds None where the run gives 'tolerances.dual_node_cap = 2000'",
            ),
            (
                r"^tolerances\.dual_node_cap = \S+$",
                "tolerances.dual_node_cap = 0",
                "[config]: [tolerances] dual_node_cap: must be at least 1",
            ),
            (r"^grid\.h = \S+$", "grid.h = 0", "[config]: [grid] h: must be positive"),
            (
                r"^grid\.boundary_spacing = \S+$",
                "grid.boundary_spacing = 0",
                "[config]: [grid] boundary_spacing: must be positive",
            ),
            # accepted before verify rebuilt the lines: an unknown echo key,
            # a [sources] rate the echo does not give, an echo [sources] does not hold
            (r"^(grid\.h = .*)$", r"\1\nfoo.bar = 1", "[config] holds {new!r} where the run gives 'grid.boundary_spacing"),
            (r"^(0 = \S+ \S+) \S+$", r"\1 0.5", "[sources] holds {new!r} where the run gives {old!r}"),
            (
                r"^(sources\.points = \S+ \S+) \S+",
                r"\1 0.5",
                "[sources] holds '0 = 0.29999999999999999 0.34999999999999998 0.59999999999999998' "
                "where the run gives '0 = 0.29999999999999999 0.34999999999999998 0.5'",
            ),
            (r"^(sources\.points = \S+ \S+) \S+", r"\1 -1", "[config]: [sources] points: weight -1.0 must be positive"),
            (r"^(sources\.points = \S+ \S+) \S+", r"\1 0", "[config]: [sources] points: weight 0.0 must be positive"),
            # accepted before verify required simulate's sections, each once and in order
            (r"^\[sources\]$", "[sources]\n0 = 9 9 9\n[sources]", "line 18: '[sources]' repeats a section"),
            (r"^\[config\]$", "stray text\n[config]", "line 2: 'stray text' lies outside any section"),
            (
                r"^\[timings\]$",
                "[bogus]\nx = 1\n[timings]",
                "holds sections config, sources, freeze_events, snapshots, certificates, bogus, timings "
                "where simulate writes config, sources, freeze_events, snapshots, certificates, timings",
            ),
            (
                r"^\[freeze_events\]\n(?:.*\n)*?(?=\[snapshots\])",
                "",
                "holds sections config, sources, snapshots, certificates, timings "
                "where simulate writes config, sources, freeze_events, snapshots, certificates, timings",
            ),
        ],
        ids=[
            "config_key", "snapshot_key", "source_rate", "snapshot_token", "snapshot_time", "snapshot_radius",
            "grid_h", "wall_values", "source_coordinate", "node_cap", "few_radii", "few_flags", "flag_token",
            "flag_inconsistent", "grid_h_inf", "radius_nan", "time_inf", "time_not_echoed", "missing_entry",
            "no_node_cap", "zero_node_cap", "zero_h", "zero_spacing", "unknown_echo_key", "edited_rate",
            "edited_echo_points", "negative_weight", "zero_weight", "repeated_section", "line_before_sections",
            "unknown_section", "no_freeze_events",
        ],
    )
    def test_malformed_manifest_is_config_error(self, tmp_path, capsys, pattern, keep, named):
        # {old} and {new} stand for the edited line before and after the edit
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        manifest = out / "manifest.txt"
        before = manifest.read_text()
        text, hits = re.subn(pattern, keep, before, flags=re.M)
        assert hits == 1
        manifest.write_text(text)
        assert main(["verify", "--manifest", str(manifest), "--quiet"]) == 2
        old = next((line for line in before.splitlines() if line not in text.splitlines()), None)
        new = next((line for line in text.splitlines() if line not in before.splitlines()), None)
        assert f"config error: manifest {named.format(old=old, new=new)}" in capsys.readouterr().err
        assert not (out / "certificates.txt").exists()

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("sigma", "0", "[sources] sigma"),
            ("radius", "0", "[sources] radius"),
            ("total_mass", "-1", "[sources] total_mass"),
        ],
        ids=["zero_sigma", "zero_radius", "negative_total_mass"],
    )
    def test_nonpositive_echoed_source_key_is_named(self, tmp_path, capsys, key, value, named):
        path, out = write_config(tmp_path, GAUSSIAN_CONFIG)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        manifest = out / "manifest.txt"
        text, hits = re.subn(rf"^sources\.{key} = \S+$", f"sources.{key} = {value}", manifest.read_text(), flags=re.M)
        assert hits == 1
        manifest.write_text(text)
        assert main(["verify", "--manifest", str(manifest), "--quiet"]) == 2
        assert f"config error: manifest [config]: {named}: must be positive" in capsys.readouterr().err
        assert not (out / "certificates.txt").exists()

    def test_splice_keeps_section_order(self, tmp_path):
        # verify rewrites the manifest it read: the sections keep their order,
        # its certificates replace the old ones, and a second verify changes
        # nothing outside [timings]
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        manifest = out / "manifest.txt"
        assert main(["verify", "--manifest", str(manifest), "--quiet"]) == 0
        once = manifest.read_text()
        assert main(["verify", "--manifest", str(manifest), "--quiet"]) == 0
        twice = parse_manifest(manifest)
        assert tuple(twice) == MANIFEST_SECTIONS
        assert strip_timings(manifest.read_text()) == strip_timings(once)
        assert twice["certificates"] == (out / "certificates.txt").read_text().splitlines()[2:]
        assert len(twice["certificates"]) == 3

    def test_splice_replaces_timing(self, tmp_path):
        # verify's timings replace their namesakes and come last, after
        # simulate's, which keep their order; a stale verify_seconds in the
        # middle of [timings] is dropped
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        manifest = out / "manifest.txt"
        simulated = parse_manifest(manifest)["timings"]
        assert main(["verify", "--manifest", str(manifest), "--quiet"]) == 0
        before = manifest.read_text()
        stale = before.replace("\n[timings]\n", "\n[timings]\nverify_seconds = 999.000\n", 1)
        assert stale != before
        manifest.write_text(stale)
        for _ in range(2):
            assert main(["verify", "--manifest", str(manifest), "--quiet"]) == 0
        after = manifest.read_text()
        timings = parse_manifest(manifest)["timings"]
        assert timings[: len(simulated)] == simulated
        verified = [line.partition(" = ")[0] for line in timings[len(simulated):]]
        assert verified == ["demand_atoms", "primal_pivots", "verify_seconds"]
        assert "verify_seconds = 999.000" not in timings
        assert strip_timings(after) == strip_timings(before)

    def test_partition_counters_survive_verify(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 0
        timings = dict(line.split(" = ") for line in parse_manifest(out / "manifest.txt")["timings"])
        # Two sources: full lists, built once, with both sources per cell.
        assert timings["partition_rebuilds"] == "1"
        assert timings["max_candidates"] == "2"
        # The build ranks all 1024 inside cells; later calls re-rank only
        # the cells whose lead a step can overturn, near the bisector.
        assert 1024 <= int(timings["partition_reranked"]) < 2 * 1024
        cfg = parse_config(path)
        domain = cfg.domain()
        traj = run(cli.resolve_sources(cfg, domain), domain, cfg.horizon, cfg.snapshot_times, cfg.grid_h)
        assert int(timings["rk2_steps"]) == traj.rk2_steps > 0
        assert re.fullmatch(r"\d+\.\d{3}", timings["simulate_seconds"])
        assert re.fullmatch(r"\d+\.\d{3}", timings["verify_seconds"])

    def test_primal_pivots_counted(self, tmp_path, monkeypatch):
        # the sum over both primal solves of every snapshot, the full one and
        # the coarse one inside solve_dual; under the cone radii the start is
        # already optimal, so they are dropped: with a third source the plain
        # cheapest-row start then pivots
        build_problem, solve_primal, pivots = verify.build_problem, verify.solve_primal, []

        def counted(problem):
            sol = solve_primal(problem)
            pivots.append(sol.pivots)
            return sol

        monkeypatch.setattr(verify, "build_problem", lambda *args: replace(build_problem(*args), radii=None))
        monkeypatch.setattr(verify, "solve_primal", counted)
        path, out = write_config(tmp_path, SINGLE_SOURCE.replace("0.8\n", "0.8 ; 0.4 0.75 0.5\n"))
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 0
        timings = dict(line.split(" = ") for line in parse_manifest(out / "manifest.txt")["timings"])
        assert len(pivots) == 6 and sum(pivots) > 0
        assert timings["primal_pivots"] == str(sum(pivots))

    def test_demand_atoms_counted(self, tmp_path, monkeypatch):
        # the sum of build_problem's atom sources over the snapshots: at
        # t = 0 both cones are points, at t = 0.05 both cover cells
        build_problem, atoms = verify.build_problem, []

        def recorded(*args):
            problem = build_problem(*args)
            atoms.append(problem.demand_atoms)
            return problem

        monkeypatch.setattr(verify, "build_problem", recorded)
        path, out = write_config(tmp_path, TWO_SOURCE.replace(
            "snapshot_times = 0.05 0.12 0.2 0.27 0.5", "snapshot_times = 0 0.05"))
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 0
        timings = dict(line.split(" = ") for line in parse_manifest(out / "manifest.txt")["timings"])
        assert atoms == [2, 0]
        assert timings["demand_atoms"] == "2"

    def test_unbalanced_snapshot_is_named(self, tmp_path, capsys, monkeypatch):
        # a demand that misses the supply is a bug: the simplex refuses it,
        # and verify names the snapshot and both totals
        build_problem = verify.build_problem

        def off_by_a_micro(*args):
            p = build_problem(*args)
            return replace(p, demand_masses=p.demand_masses * (1 + 1e-6))

        monkeypatch.setattr(verify, "build_problem", off_by_a_micro)
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: manifest [snapshots] entry 0 (t=0.050000000000000003): "
            "unbalanced transportation problem: supply 1.4, demand 1.4000014\n"
        )
        assert not (out / "certificates.txt").exists()

    def test_writer_round_trips_parsed_manifest(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        manifest = out / "manifest.txt"
        before = manifest.read_bytes()
        _write_sections(manifest, parse_manifest(manifest))
        assert manifest.read_bytes() == before

    @pytest.mark.parametrize("argv, named", [
        (["--manifest", "{manifest}", "--out", "{elsewhere}"], "unrecognized arguments: --out"),
        (["--config", "{config}"], "the following arguments are required: --manifest"),
        ([], "the following arguments are required: --manifest"),
    ], ids=["out", "config", "no_manifest"])
    def test_verify_takes_only_a_manifest(self, tmp_path, capsys, argv, named):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        elsewhere = tmp_path / "elsewhere"
        argv = [arg.format(manifest=out / "manifest.txt", elsewhere=elsewhere, config=path) for arg in argv]
        with pytest.raises(SystemExit) as exit_:
            main(["verify", *argv, "--quiet"])
        assert exit_.value.code == 2
        assert named in capsys.readouterr().err
        assert not elsewhere.exists() and not (out / "certificates.txt").exists()

    def test_lp_gap_gates_pass(self, tmp_path, monkeypatch):
        # A dual value 1e-6 off its primal fails that snapshot, although
        # every residual of the height certificate still passes.
        solve_dual, calls = verify.solve_dual, []

        def off_by_a_micro(problem, node_cap):
            dual = solve_dual(problem, node_cap)
            calls.append(dual.value)
            return replace(dual, value=dual.value + 1e-6) if len(calls) == 2 else dual

        monkeypatch.setattr(verify, "solve_dual", off_by_a_micro)
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 1
        lines = (out / "certificates.txt").read_text().splitlines()
        assert lines[1] == "result = FAIL"
        assert [line.rsplit(" ", 1)[1] for line in lines[2:]] == ["PASS", "FAIL", "PASS"]

    def test_coarse_marginal_error_gates_pass(self, tmp_path, monkeypatch):
        # The LP gap proves the coarse plan optimal only if that plan is
        # feasible: a coarse plan whose marginals miss by 1e-6 fails its
        # snapshot, although its cost still meets the dual.
        solve_dual, calls = verify.solve_dual, []

        def off_by_a_micro(problem, node_cap):
            dual = solve_dual(problem, node_cap)
            calls.append(dual.primal.marginal_error)
            return replace(dual, primal=replace(dual.primal, marginal_error=1e-6)) if len(calls) == 2 else dual

        monkeypatch.setattr(verify, "solve_dual", off_by_a_micro)
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 1
        lines = (out / "certificates.txt").read_text().splitlines()
        assert [line.rsplit(" ", 1)[1] for line in lines[2:]] == ["PASS", "FAIL", "PASS"]
        assert max(calls) <= 1e-9

    def test_marginal_error_gates_pass(self, tmp_path, monkeypatch):
        # A certified plan whose marginals miss by 1e-6 fails that snapshot,
        # although its cost, the LP gap and every residual still pass.
        # Each snapshot solves its full problem, then its coarse one.
        solve_primal, calls = verify.solve_primal, []

        def off_by_a_micro(problem):
            sol = solve_primal(problem)
            calls.append(sol.marginal_error)
            return replace(sol, marginal_error=1e-6) if len(calls) == 3 else sol  # snapshot 1's full problem

        monkeypatch.setattr(verify, "solve_primal", off_by_a_micro)
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 1
        lines = (out / "certificates.txt").read_text().splitlines()
        assert lines[1] == "result = FAIL"
        assert [line.rsplit(" ", 1)[1] for line in lines[2:]] == ["PASS", "FAIL", "PASS"]
        assert max(calls) <= 1e-9

    @pytest.mark.parametrize("template, atoms", [
        (TWO_SOURCE.replace("snapshot_times = 0.05 0.12 0.2 0.27 0.5", "snapshot_times = 0 0.05"), 2),
        (SINGLE_SOURCE.replace("horizon = 0.3", "horizon = 5e-5").replace(
            "snapshot_times = 0.05 0.12 0.3", "snapshot_times = 5e-5").replace("0.03125", "0.3"), 2),
        # the small cone covers no cell; spreading its rate over the large
        # cone's cells would ship it about 0.5 (ray residual 0.52)
        (SINGLE_SOURCE.replace("points = 0.3 0.35 0.6 ; 0.7 0.6 0.8", "points = 0.3 0.3 1 ; 0.7 0.7 0.005").replace(
            "horizon = 0.3", "horizon = 0.001").replace(
            "snapshot_times = 0.05 0.12 0.3", "snapshot_times = 0.001").replace("0.03125", "0.0625"), 1),
    ], ids=["zero-time", "coarse-grid", "small-rate"])
    def test_snapshot_with_uncovered_sources_passes(self, tmp_path, template, atoms):
        # simulate writes a snapshot in which active cones cover no cell
        # centre; each is a demand atom at its source, shipped there at cost 0
        path, out = write_config(tmp_path, template)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 0
        lines = (out / "certificates.txt").read_text().splitlines()
        assert lines[1] == "result = PASS"
        for line in lines[2:]:
            fields = dict(part.split("=", 1) for part in line.split()[2:-1])
            assert float(fields["ray_residual"]) <= 1e-15
            assert float(fields["pairing_gap"]) <= 1e-15
        timings = dict(line.split(" = ") for line in parse_manifest(out / "manifest.txt")["timings"])
        assert timings["demand_atoms"] == str(atoms)

    def test_demand_heights_are_the_written_field(self, tmp_path, monkeypatch):
        # certify_snapshot reads the demand heights from the one height field
        # that it compares with the written one: the bits simulate wrote, and
        # those of full distance rows.
        path, out = write_config(tmp_path, TWO_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        cfg = parse_config(path)
        domain = cfg.domain()
        sources = cli.resolve_sources(cfg, domain)
        grid = build_grid(domain, cfg.grid_h)
        states = run(sources, domain, cfg.horizon, cfg.snapshot_times, cfg.grid_h).states
        certify, heights = verify.certify, []

        def recorded(u_supply, u_demand, *args):
            heights.append(u_demand)
            return certify(u_supply, u_demand, *args)

        monkeypatch.setattr(verify, "certify", recorded)
        assert len(states) == 5
        for i, state in enumerate(states):
            written = field_from_csv(grid, (out / f"snap{i:03d}_u.csv").read_text()).values
            report = verify.certify_snapshot(state, sources, domain, grid, cfg.boundary_spacing, cfg.dual_node_cap,
                                             written)
            assert report.passed and report.u_residual == 0.0
            at = verify.build_problem(state, sources, domain, grid, cfg.boundary_spacing).demand_locations
            u_demand = heights[i].view(np.uint64)
            assert np.array_equal(u_demand, written[grid.cell_of(at[:, 0], at[:, 1])].view(np.uint64))
            assert np.array_equal(u_demand, heights_at(state, sources, at).view(np.uint64))

    @pytest.mark.parametrize("scale", [2.0**-20, 2.0**-10, 2.0**10, 2.0**20], ids=["2^-20", "2^-10", "2^10", "2^20"])
    def test_certificates_scale_with_space(self, tmp_path, scale):
        # Lengths (vertices, walls, points, h, spacing) times s and rates
        # times s^3 is the same pile at another scale: every transport cost,
        # so every primal and dual, scales by s^4.  A power of 2 scales
        # each input exactly.
        def certify(template, name):
            (tmp_path / name).mkdir()
            path, out = write_config(tmp_path / name, template)
            assert main(["simulate", "--config", str(path), "--quiet"]) == 0
            code = main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"])
            lines = (out / "certificates.txt").read_text().splitlines()
            return code, lines[1], [dict(part.split("=", 1) for part in line.split()[2:-1]) for line in lines[2:]]

        config = TWO_SOURCE
        for key, factors in (("vertices", [scale]), ("wall_values", [scale]), ("points", [scale, scale, scale**3]),
                             ("h", [scale]), ("boundary_spacing", [scale])):
            line = re.search(rf"^{key} = .*$", config, re.M).group(0)
            groups = [group.split() for group in line.partition(" = ")[2].split(";")]
            text = " ; ".join(" ".join(repr(float(x) * f) for x, f in zip(g, itertools.cycle(factors))) for g in groups)
            config = config.replace(line, f"{key} = {text}")
        _, _, unit = certify(TWO_SOURCE, "unit")
        code, result, lines = certify(config, "scaled")
        assert code in (0, 1) and len(lines) == len(unit) == 5
        for got, want in zip(lines, unit):
            for key in ("primal", "dual"):
                expected = float(want[key]) * scale**4
                assert abs(float(got[key]) - expected) <= 1e-12 * abs(expected), (key, got, want)
        # the verdict at large scales still rests on the absolute 1e-6 + 2h
        if scale < 1.0:
            assert code == 0 and result == "result = PASS"


class TestEquilibrium:
    def test_single_source_grounded_walls(self, tmp_path):
        path, out = write_config(tmp_path, EQ_CONFIG)
        assert main(["equilibrium", "--config", str(path), "--quiet"]) == 0
        text = (out / "equilibrium.txt").read_text()
        assert sorted(p.name for p in out.iterdir()) == ["equilibrium.txt", "final_u.csv"]
        # every cone capped at its escape cost, here the distance 0.5 to the grounded walls
        cfg = parse_config(path)
        grid = build_grid(cfg.domain(), cfg.grid_h)
        final = field_from_csv(grid, (out / "final_u.csv").read_text()).values[grid.inside_mask]
        closed = np.maximum(0.5 - np.linalg.norm(grid.inside_centers() - 0.5, axis=1), 0.0)
        assert np.abs(final - closed).max() <= 1e-12
        t1 = float([l for l in text.splitlines() if l.startswith("freeze 0")][0].split("t=")[1].split()[0])
        assert np.pi / 24 <= t1 <= 0.5

    def test_escape_cost_once_per_source(self, tmp_path, monkeypatch):
        points = []
        escape_cost = ConvexDomain.escape_cost

        def counted(self, y):
            points.append(len(np.atleast_2d(y)))
            return escape_cost(self, y)

        monkeypatch.setattr(ConvexDomain, "escape_cost", counted)
        template = EQ_CONFIG.replace("points = 0.5 0.5 1.0", "points = 0.3 0.35 0.6 ; 0.7 0.6 0.8 ; 0.4 0.75 0.5")
        path, out = write_config(tmp_path, template.replace("h = 0.007751937984496124", "h = 0.03125"))
        assert main(["equilibrium", "--config", str(path), "--quiet"]) == 0
        assert (out / "equilibrium.txt").read_text().count("freeze ") == 3
        assert sum(points) == 3

    def test_unreachable_wall_refused(self, tmp_path):
        template = EQ_CONFIG.replace("wall_values = 0 0 0 0", "wall_values = 50 50 50 50")
        template = template.replace("horizon = 1.0", "horizon = 0.5")
        path, out = write_config(tmp_path, template)
        assert main(["equilibrium", "--config", str(path), "--quiet"]) == 2


class TestConverge:
    def test_decreasing_table(self, tmp_path):
        path, out = write_config(tmp_path, CONVERGE_CONFIG)
        assert main(["converge", "--config", str(path), "--quiet"]) == 0
        rows = (out / "converge.csv").read_text().splitlines()[1:]
        assert len(rows) == 2  # one comparison per snapshot time
        sups = [float(r.split(",")[3]) for r in rows]
        assert all(s > 0 for s in sups)

    def test_single_entry_trivial(self, tmp_path):
        template = CONVERGE_CONFIG.replace("n_list = 4 16", "n_list = 4")
        path, out = write_config(tmp_path, template)
        assert main(["converge", "--config", str(path), "--quiet"]) == 0
        rows = (out / "converge.csv").read_text().splitlines()
        assert rows == ["time,n_from,n_to,sup_diff"]

    def test_point_list_identity_for_large_n(self, tmp_path):
        template = CONVERGE_CONFIG.replace(
            "kind = uniform-on-polygon", "kind = point-list"
        ).replace("polygon = 1 1 ; 3 1 ; 3 3 ; 1 3", "points = 1.5 1.5 0.5 ; 2.5 2.5 0.5"
        ).replace("total_mass = 1.0\nn = 4", "").replace("n_list = 4 16", "n_list = 2 4 8")
        path, out = write_config(tmp_path, template)
        assert main(["converge", "--config", str(path), "--quiet"]) == 0
        rows = (out / "converge.csv").read_text().splitlines()[1:]
        sups = [float(r.split(",")[3]) for r in rows]
        assert all(s == 0.0 for s in sups)

    def test_nonascending_rejected(self, tmp_path):
        template = CONVERGE_CONFIG.replace("n_list = 4 16", "n_list = 16 4")
        path, out = write_config(tmp_path, template)
        assert main(["converge", "--config", str(path), "--quiet"]) == 2
