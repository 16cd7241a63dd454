"""Inputs, operations and correctness gates of the three workloads.

Each workload is a family of VARIANTS inputs that pose one problem seen
differently: the eight symmetries of the unit silo for ``certify`` and
``grow``, and eight translations of the fed square for ``refine``.  A run
cycles through the variants in an order drawn from the seed, so the work
of a run hardly depends on the seed while the numbers the program sees
do.  reference.json, with reference_grow.npz for grow's numbers, holds
what every variant produced at the commit that recorded it.

Operations reach the program through module attributes looked up at call
time (``cli.main``, ``verify.wasserstein``), so the tracer's patches apply.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from pathlib import Path

import numpy as np

VARIANTS = 8
WORKLOADS = ("certify", "grow", "refine")

# Outputs must equal their reference to this absolute tolerance per number.
TOL = 1e-12

OUT = "out"  # output directory, relative to the client's working directory

_CORNERS = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
_VERTICES = "0 0 ; 1 0 ; 1 1 ; 0 1"


def symmetry(v: int, x: float, y: float) -> tuple[float, float]:
    """The v-th of the eight symmetries of the unit square."""
    return (
        (x, y), (1.0 - y, x), (1.0 - x, 1.0 - y), (y, 1.0 - x),
        (1.0 - x, y), (x, 1.0 - y), (y, x), (1.0 - y, 1.0 - x),
    )[v]


def _walls(v: int, walls) -> str:
    """Vertex wall values moved with the silo by symmetry v."""
    out = [0.0] * 4
    for corner, w in zip(_CORNERS, walls):
        out[_CORNERS.index(symmetry(v, *corner))] = w
    return " ".join(repr(w) for w in out)


# certify: configs/two_source.ini, with the dual LP capped at 400 nodes.
# The shipped cap of 2000 makes one verify take about 40 s, longer than a
# run may measure; at 400 the dual LP still takes over 80% of verify.
CERTIFY_POINTS = ((0.32, 0.4, 0.7), (0.68, 0.62, 0.5))
CERTIFY_WALLS = (0.15, 0.35, 0.25, 0.3)
CERTIFY_DUAL_NODE_CAP = 400

# grow: 256 sources, uniform on [0.05, 0.95]^2, low walls, h = 1/64.  The
# uniform kind resolves every feeding region at this spacing; the Gaussian
# kind does not (see probe_config), so it cannot be the timed workload.
GROW_WALLS = (0.0, 0.02, 0.01, 0.03)
GROW_SOURCES = 256

# refine: scripts/convergence_study.py, W1 on n <= 64 (n = 256 takes 54 s).
# The piles run on n <= 16: at n = 64 they double the pass, and the
# fewer passes a run holds, the more one slow stretch of the machine
# moves its median.
REFINE_W1_N = (4, 16, 64)
REFINE_CONVERGE_N = (4, 16)
REFINE_TIMES = (0.2, 0.5)
REFINE_QUADRATURE = 60
REFINE_OFFSETS = (
    (0.0, 0.0), (0.125, 0.0), (0.0, 0.125), (-0.25, 0.125),
    (0.375, -0.25), (-0.125, -0.375), (0.25, 0.25), (-0.375, 0.5),
)


def certify_config(v: int) -> str:
    points = " ; ".join(
        "{!r} {!r} {!r}".format(*symmetry(v, x, y), c) for x, y, c in CERTIFY_POINTS
    )
    return f"""[domain]
vertices = {_VERTICES}
wall_values = {_walls(v, CERTIFY_WALLS)}

[sources]
kind = point-list
points = {points}

[run]
horizon = 0.5
snapshot_times = 0.05 0.12 0.2 0.27 0.5

[grid]
h = 0.015625
boundary_spacing = 0.015625

[tolerances]
dual_node_cap = {CERTIFY_DUAL_NODE_CAP}

[output]
directory = {OUT}
"""


def grow_config(v: int) -> str:
    return f"""[domain]
vertices = {_VERTICES}
wall_values = {_walls(v, GROW_WALLS)}

[sources]
kind = uniform-on-polygon
polygon = 0.05 0.05 ; 0.95 0.05 ; 0.95 0.95 ; 0.05 0.95
total_mass = 1.0
n = {GROW_SOURCES}

[run]
horizon = 0.1
snapshot_times = 0.02 0.05 0.1

[grid]
h = 0.015625

[output]
directory = {OUT}
"""


def probe_config(v: int) -> str:
    """The known scale defect: a Gaussian feed whose regions the grid cannot resolve."""
    return f"""[domain]
vertices = {_VERTICES}
wall_values = {_walls(v, GROW_WALLS)}

[sources]
kind = gaussian-truncated
center = 0.5 0.5
sigma = 0.2
radius = 0.4
total_mass = 1.0
n = 64

[run]
horizon = 0.2
snapshot_times = 0.2

[grid]
h = 0.015625

[output]
directory = probe_out
"""


def _refine_square(v: int) -> np.ndarray:
    a, b = REFINE_OFFSETS[v]
    return np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 3.0], [1.0, 3.0]]) + [a, b]


def refine_config(v: int) -> str:
    polygon = " ; ".join(f"{float(x)!r} {float(y)!r}" for x, y in _refine_square(v))
    return f"""[domain]
vertices = 0 0 ; 4 0 ; 4 4 ; 0 4
wall_values = 10 10 10 10

[sources]
kind = uniform-on-polygon
polygon = {polygon}
total_mass = 1.0
n = 16

[run]
horizon = 0.5
snapshot_times = {" ".join(map(str, REFINE_TIMES))}
n_list = {" ".join(map(str, REFINE_CONVERGE_N))}

[grid]
h = 0.03125

[output]
directory = {OUT}
"""


def refine_quadrature(v: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell centres of a 60 x 60 grid on the fed square, equal weights."""
    q = REFINE_QUADRATURE
    lo = _refine_square(v)[0]
    steps = (np.arange(q) + 0.5) * 2.0 / q
    gx, gy = np.meshgrid(lo[0] + steps, lo[1] + steps)
    points = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return points, np.full(len(points), 1.0 / len(points))


CONFIGS = {"certify": certify_config, "grow": grow_config, "refine": refine_config}


def variant_order(seed: int) -> list[int]:
    return [int(v) for v in np.random.default_rng(seed).permutation(VARIANTS)]


def config_name(workload: str, v: int) -> str:
    return f"{workload}-{v}.ini"


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write every variant's config, and the grow probe's, into workdir."""
    for v in range(VARIANTS):
        (workdir / config_name(workload, v)).write_text(CONFIGS[workload](v))
    if workload == "grow":
        (workdir / "probe.ini").write_text(probe_config(variant_order(seed)[0]))


# ---------------------------------------------------------------------------
# operations: one pass of a workload's commands, issued one after another


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def run_pass(workload: str, pkg, v: int) -> tuple[dict, dict, dict]:
    """One pass.  Returns (timings in s, exit code per command, values to gate)."""
    cli = pkg.cli
    cfg = config_name(workload, v)
    if workload == "certify":
        rc_sim, t_sim = _timed(cli.main, ["simulate", "--config", cfg, "--out", OUT, "--quiet"])
        rc_ver, t_ver = _timed(cli.main, ["verify", "--manifest", f"{OUT}/manifest.txt", "--quiet"])
        times = {"wall_s": t_sim + t_ver, "simulate_s": t_sim, "verify_s": t_ver}
        return times, {"simulate": rc_sim, "verify": rc_ver}, {}
    if workload == "grow":
        rc, t_sim = _timed(cli.main, ["simulate", "--config", cfg, "--out", OUT, "--quiet"])
        return {"wall_s": t_sim, "simulate_s": t_sim}, {"simulate": rc}, {}

    t0 = time.perf_counter()
    run_cfg = pkg.config.parse_config(cfg)
    domain = run_cfg.domain()
    qpts, qw = refine_quadrature(v)
    w1 = []
    for n in REFINE_W1_N:
        s = pkg.sources.discretize(run_cfg.density, n, domain)
        w1.append(pkg.verify.wasserstein(s.locations, s.rates, qpts, qw))
    t_w1 = time.perf_counter() - t0
    rc, t_conv = _timed(cli.main, ["converge", "--config", cfg, "--out", OUT, "--quiet"])
    times = {"wall_s": t_w1 + t_conv, "w1_s": t_w1, "converge_s": t_conv}
    return times, {"w1": 0, "converge": rc}, {"w1": w1}


# ---------------------------------------------------------------------------
# correctness: observe outputs, compare with the recorded reference

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# grow's output numbers, per variant and file, under the key "v/name".
GROW_REFERENCE = REFERENCE.with_name("reference_grow.npz")

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def parse_numbers(text: str) -> dict:
    """The numbers of one output file, and a hash of its text without them."""
    return {
        "skeleton_sha256": hashlib.sha256(_NUMBER.sub("#", text).encode()).hexdigest(),
        "values": np.array([float(t) for t in _NUMBER.findall(text)]),
    }


def load_reference(workload: str) -> dict[str, dict]:
    """The recorded outputs of every variant of a workload, keyed by variant."""
    table = json.loads(REFERENCE.read_text())[workload]
    if workload == "grow":
        with np.load(GROW_REFERENCE) as numbers:
            for v, files in table.items():
                for name, entry in files.items():
                    entry["values"] = numbers[f"{v}/{name}"]
    return table


def _strip_timings(manifest: str) -> str:
    return manifest.split("\n[timings]\n", 1)[0] + "\n"


def _certificate_rows(text: str) -> dict:
    lines = text.strip().splitlines()
    rows = []
    for line in lines[2:]:
        _, _, rest = line.partition(" = ")
        *pairs, status = rest.split()
        row = {k: float(x) for k, x in (p.split("=", 1) for p in pairs)}
        row["status"] = status
        rows.append(row)
    return {"result": lines[1].partition(" = ")[2], "snapshots": rows}


def observe(workload: str, workdir: Path, values: dict) -> dict:
    """What a pass produced, in the form the reference records."""
    out = workdir / OUT
    if workload == "certify":
        return _certificate_rows((out / "certificates.txt").read_text())
    if workload == "grow":
        files = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
        obs = {name: parse_numbers((out / name).read_text()) for name in files}
        obs["manifest.txt"] = parse_numbers(_strip_timings((out / "manifest.txt").read_text()))
        return obs
    rows = (out / "converge.csv").read_text().strip().splitlines()[1:]
    return {
        "w1": [float(x) for x in values["w1"]],
        "converge_sup": [float(r.split(",")[3]) for r in rows],
    }


# Certificate values compared to TOL.
CERTIFICATE_KEYS = ("t", "primal", "pairing_gap", "ray_residual", "wall_residual", "tolerance")
# The dual LP value, and its gap to the coarse primal, are the LP solver's
# answers: compared to the solver's accuracy rather than to TOL.  The
# recorded gaps are at most 2.3e-16, and the duals of the eight variants
# agree to 3e-16.
DUAL_TOL = 1e-9


def _close_lists(got, want) -> bool:
    return len(got) == len(want) and all(abs(a - b) <= TOL for a, b in zip(got, want))


def _numbers_mismatch(got: dict, want: dict) -> str | None:
    if got["skeleton_sha256"] != want["skeleton_sha256"] or got["values"].shape != want["values"].shape:
        return "text layout or number count differs"
    err = float(np.abs(got["values"] - want["values"]).max(initial=0.0))
    if not err <= TOL:
        return f"numbers differ by up to {err:.3e}"
    return None


def compare(workload: str, got: dict, want: dict) -> dict[str, list[str]]:
    """Mismatches against the reference, keyed by the command at fault."""
    bad: dict[str, list[str]] = {}
    if workload == "certify":
        msgs = []
        if got["result"] != "PASS":
            msgs.append(f"result {got['result']}")
        if len(got["snapshots"]) != len(want["snapshots"]):
            msgs.append("snapshot count differs")
        for i, (g, w) in enumerate(zip(got["snapshots"], want["snapshots"])):
            if g["status"] != "PASS":
                msgs.append(f"snapshot {i} {g['status']}")
            if not g["lp_gap"] <= DUAL_TOL:
                msgs.append(f"snapshot {i} lp_gap {g['lp_gap']:.3e} above {DUAL_TOL:g}")
            if not abs(g["dual"] - w["dual"]) <= DUAL_TOL:
                msgs.append(f"snapshot {i} dual {g['dual']!r} != {w['dual']!r}")
            for key in CERTIFICATE_KEYS:
                if not abs(g[key] - w[key]) <= TOL:
                    msgs.append(f"snapshot {i} {key} {g[key]!r} != {w[key]!r}")
        if msgs:
            bad["verify"] = msgs
    elif workload == "grow":
        msgs = []
        if sorted(got) != sorted(want):
            msgs.append(f"output files {sorted(got)} != {sorted(want)}")
        for name in sorted(set(got) & set(want)):
            why = _numbers_mismatch(got[name], want[name])
            if why:
                msgs.append(f"{name}: {why}")
        if msgs:
            bad["simulate"] = msgs
    else:
        if not _close_lists(got["w1"], want["w1"]):
            bad["w1"] = [f"W1 {got['w1']!r} != {want['w1']!r}"]
        if not _close_lists(got["converge_sup"], want["converge_sup"]):
            bad["converge"] = [f"sup gaps {got['converge_sup']!r} != {want['converge_sup']!r}"]
    return bad


def exact(workload: str, got: dict, want: dict) -> bool:
    """Whether every gated output equals the reference exactly."""
    if workload == "grow":
        return sorted(got) == sorted(want) and all(
            got[k]["skeleton_sha256"] == want[k]["skeleton_sha256"]
            and np.array_equal(got[k]["values"], want[k]["values"])
            for k in got
        )
    return got == want
