import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import silopile
from silopile import cli
from silopile.cli import _splice_manifest, _write_sections, main, parse_manifest
from silopile.config import ConfigError, parse_config
from silopile.geometry import ConvexDomain

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
        with pytest.raises(ConfigError):
            parse_config(path)

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
            (SINGLE_SOURCE, "[output]", "[rng]\nseed = x1\n[output]", "[rng] seed"),
            (SINGLE_SOURCE, "[output]", "[tolerances]\ndual_node_cap = 4e\n[output]", "[tolerances] dual_node_cap"),
            (SINGLE_SOURCE, "[output]", "[tolerances]\ndual_node_cap = nan\n[output]", "[tolerances] dual_node_cap"),
        ],
        ids=["n", "total_mass", "sigma", "radius", "horizon", "h", "boundary_spacing", "seed", "node_cap", "nan_cap"],
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
        # One set of source lists per run, shared by the RK2 steps and the
        # snapshot loop, however many steps the horizon takes.  With two
        # sources they hold the full cells x sources matrix, built once; with
        # 256 they never build it.
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

        monkeypatch.setattr(cones, "SourceLists", counted_lists)
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

    def test_does_not_import_the_dual_solver(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        src = str(Path(silopile.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys\n"
            "from silopile.cli import main\n"
            f"assert main(['simulate', '--config', {str(path)!r}, '--quiet']) == 0\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

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
             "[grid]: spacings must be positive"),
            (["simulate", "--config", "{config}"], SINGLE_SOURCE, "horizon = 0.3", "horizon = 0",
             "[run]: horizon must be positive"),
            (["simulate", "--config", "{config}.missing"], SINGLE_SOURCE, None, None, "cannot read config file"),
            (["simulate", "--config", "{config}"], SINGLE_SOURCE, "[grid]\n", "[mesh]\n", "missing section [grid]"),
            (["verify"], SINGLE_SOURCE, None, None, "verify needs --manifest or --config"),
            (["verify", "--manifest", "{config}"], SINGLE_SOURCE, None, None, "not a silopile-manifest-v1 file"),
            (["converge", "--config", "{config}"], SINGLE_SOURCE, None, None, "[run]: converge requires n_list"),
        ],
        ids=["unknown_kind", "density_n_0", "grid_h", "horizon", "unreadable", "missing_section", "verify_no_input",
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
            (r"^domain\.wall_values = .*\n", "", "[config] lacks domain.wall_values"),
            (r"^(1 = t=.*) radii=\S+", r"\1", "[snapshots] entry 1 lacks radii"),
            (r"^(0 = \S+ \S+) \S+$", r"\1", "[sources] entries must hold x y rate"),
            (r"^(1 = t=\S+) ", r"\1 junk ", "[snapshots] entry 1 holds a field that is not key=value"),
            (r"^1 = t=\S+ ", "1 = t=abc ", "[snapshots] entry 1 t: could not convert string to float: 'abc'"),
            (r"^(2 = .* radii=)\S+?,", r"\1r,", "[snapshots] entry 2 radii: could not convert string to float: 'r'"),
            (r"^grid\.h = \S+$", "grid.h = 1/32", "[config] grid.h: could not convert string to float: '1/32'"),
            (r"^(domain\.wall_values = \S+) \S+", r"\1 x", "[config] domain.wall_values: could not convert"),
            (r"^0 = (\S+) (\S+ \S+)$", r"0 = \1x \2", "[sources] entry 0: could not convert string to float: '0."),
            (
                r"^tolerances\.dual_node_cap = \S+$",
                "tolerances.dual_node_cap = 4e",
                "[config] tolerances.dual_node_cap: could not convert string to float: '4e'",
            ),
            (r"^(1 = t=.* radii=[^,\s]+),\S+", r"\1", "[snapshots] entry 1: 1 radii and 2 frozen flags for 2 sources"),
            (r"^(1 = t=.* frozen=\d),\d$", r"\1", "[snapshots] entry 1: 2 radii and 1 frozen flags for 2 sources"),
            (r"^(1 = t=.* frozen=\d),\d$", r"\1,x", "[snapshots] entry 1 frozen: flags must be 0 or 1, got '0,x'"),
            (r"^(0 = t=.* frozen=)0,", r"\g<1>1,", "[snapshots] entry 0: frozen flags inconsistent with radii"),
        ],
        ids=[
            "config_key", "snapshot_key", "source_rate", "snapshot_token", "snapshot_time", "snapshot_radius",
            "grid_h", "wall_values", "source_coordinate", "node_cap", "few_radii", "few_flags", "flag_token",
            "flag_inconsistent",
        ],
    )
    def test_malformed_manifest_is_config_error(self, tmp_path, capsys, pattern, keep, named):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        manifest = out / "manifest.txt"
        text, hits = re.subn(pattern, keep, manifest.read_text(), flags=re.M)
        assert hits == 1
        manifest.write_text(text)
        assert main(["verify", "--manifest", str(manifest), "--quiet"]) == 2
        assert named in capsys.readouterr().err
        assert not (out / "certificates.txt").exists()

    def test_splice_replaces_timing(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        manifest = out / "manifest.txt"
        before = manifest.read_text()
        for seconds in (1.0, 2.0, 3.0):
            extra = {"verify_seconds": seconds, "primal_pivots": int(seconds), "max_demand_rescale": seconds / 7}
            _splice_manifest(manifest, [], extra)
        after = manifest.read_text()
        timings = after.split("\n[timings]\n", 1)[1].splitlines()
        assert [line for line in timings if line.startswith("verify_seconds")] == ["verify_seconds = 3.000"]
        assert [line for line in timings if line.startswith("primal_pivots")] == ["primal_pivots = 3"]
        assert [line for line in timings if line.startswith("max_demand_rescale")] == [
            f"max_demand_rescale = {3 / 7:.17g}"
        ]
        assert any(line.startswith("simulate_seconds") for line in timings)
        assert strip_timings(after) == strip_timings(before)

    def test_partition_counters_survive_verify(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--config", str(path), "--quiet"]) == 0
        timings = dict(line.split(" = ") for line in parse_manifest(out / "manifest.txt")["timings"])
        # Two sources: full lists, built once, with both sources per cell.
        assert timings["partition_rebuilds"] == "1"
        assert timings["max_candidates"] == "2"
        assert re.fullmatch(r"\d+\.\d{3}", timings["simulate_seconds"])
        assert re.fullmatch(r"\d+\.\d{3}", timings["verify_seconds"])

    def test_primal_pivots_counted(self, tmp_path, monkeypatch):
        # the sum over both primal solves of every snapshot; under the cone
        # radii the start is already optimal, so they are dropped: with a
        # third source the plain cheapest-row start then pivots
        build_problem, solve_primal, pivots = cli.build_problem, cli.solve_primal, []

        def counted(problem):
            sol = solve_primal(problem)
            pivots.append(sol.pivots)
            return sol

        monkeypatch.setattr(cli, "build_problem", lambda *args: replace(build_problem(*args), radii=None))
        monkeypatch.setattr(cli, "solve_primal", counted)
        path, out = write_config(tmp_path, SINGLE_SOURCE.replace("0.8\n", "0.8 ; 0.4 0.75 0.5\n"))
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--config", str(path), "--quiet"]) == 0
        timings = dict(line.split(" = ") for line in parse_manifest(out / "manifest.txt")["timings"])
        assert len(pivots) == 6 and sum(pivots) > 0
        assert timings["primal_pivots"] == str(sum(pivots))

    def test_demand_rescale_recorded(self, tmp_path, monkeypatch):
        # the largest |expected / counted demand - 1| of build_problem over
        # the snapshots; with three sources some count differs by rounding
        build_problem, rescales = cli.build_problem, []

        def recorded(*args):
            problem = build_problem(*args)
            rescales.append(problem.demand_rescale)
            return problem

        monkeypatch.setattr(cli, "build_problem", recorded)
        path, out = write_config(tmp_path, SINGLE_SOURCE.replace("0.8\n", "0.8 ; 0.4 0.75 0.5\n"))
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--config", str(path), "--quiet"]) == 0
        timings = dict(line.split(" = ") for line in parse_manifest(out / "manifest.txt")["timings"])
        assert len(rescales) == 3 and max(rescales) > 0.0
        assert float(timings["max_demand_rescale"]) == max(rescales)

    def test_writer_round_trips_parsed_manifest(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        manifest = out / "manifest.txt"
        before = manifest.read_bytes()
        _write_sections(manifest, parse_manifest(manifest))
        assert manifest.read_bytes() == before

    def test_splice_keeps_section_order(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "silopile-manifest-v1\n[config]\na = 1\n[certificates]\n[timings]\n"
            "simulate_seconds = 1.000\nverify_seconds = 9.000\nother = 2.000\n[extra]\nx = 1\n"
        )
        _splice_manifest(manifest, ["0 = PASS"], {"verify_seconds": 3.0})
        assert manifest.read_text() == (
            "silopile-manifest-v1\n[config]\na = 1\n[certificates]\n0 = PASS\n[extra]\nx = 1\n"
            "[timings]\nsimulate_seconds = 1.000\nother = 2.000\nverify_seconds = 3.000\n"
        )

    def test_manifest_with_out_rejected(self, tmp_path, capsys):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        elsewhere = tmp_path / "elsewhere"
        argv = ["verify", "--manifest", str(out / "manifest.txt"), "--out", str(elsewhere), "--quiet"]
        assert main(argv) == 2
        assert "--out" in capsys.readouterr().err
        assert not elsewhere.exists() and not (out / "certificates.txt").exists()

    def test_lp_gap_gates_pass(self, tmp_path, monkeypatch):
        # A dual value 1e-6 off its primal fails that snapshot, although
        # every residual of the height certificate still passes.
        solve_dual, calls = cli.solve_dual, []

        def off_by_a_micro(problem, node_cap):
            dual = solve_dual(problem, node_cap)
            calls.append(dual.value)
            return replace(dual, value=dual.value + 1e-6) if len(calls) == 2 else dual

        monkeypatch.setattr(cli, "solve_dual", off_by_a_micro)
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--manifest", str(out / "manifest.txt"), "--quiet"]) == 1
        lines = (out / "certificates.txt").read_text().splitlines()
        assert lines[1] == "result = FAIL"
        assert [line.rsplit(" ", 1)[1] for line in lines[2:]] == ["PASS", "FAIL", "PASS"]

    def test_verify_via_config(self, tmp_path):
        path, out = write_config(tmp_path, SINGLE_SOURCE)
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert main(["verify", "--config", str(path), "--quiet"]) == 0


class TestEquilibrium:
    def test_single_source_grounded_walls(self, tmp_path):
        path, out = write_config(tmp_path, EQ_CONFIG)
        assert main(["equilibrium", "--config", str(path), "--quiet"]) == 0
        text = (out / "equilibrium.txt").read_text()
        sup = float([l for l in text.splitlines() if l.startswith("sup_diff")][0].split(" = ")[1])
        assert sup <= 2 / 129
        assert (out / "final_u.csv").exists()
        assert (out / "equilibrium_u.csv").exists()
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
