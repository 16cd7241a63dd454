"""Golden outputs: the shipped configs reproduce recorded bytes and certificates.

Every file that ``simulate`` writes for the three shipped configs, and
that ``equilibrium`` and ``converge`` write for theirs, must hash to the
recorded sha256 (the manifest without its ``[timings]`` section).  A
refactor that changes any written digit fails here.  ``verify`` on
``two_source.ini`` at the shipped dual node cap must reproduce the
recorded certificate values: 1e-12 for the primal and its residuals, 1e-9
for the LP solver's dual value.
"""

import hashlib
from pathlib import Path

from silopile.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

RUNS = [
    ("simulate", "two_source"),
    ("simulate", "single_source_eq"),
    ("simulate", "uniform_converge"),
    ("equilibrium", "single_source_eq"),
    ("converge", "uniform_converge"),
]

# sha256 per output file, keyed "<command>_<config>/<file>".
GOLDEN = {
    "converge_uniform_converge/converge.csv": "fbd7360eb1f6d25dc4f9a2da051db52ad1ddd3ed528e20e50c144d6cb11472a4",
    "equilibrium_single_source_eq/equilibrium.txt": "f921a41be233891521edb9596d06d9e96b7084211eb043fa3917c047860ec7ca",
    "equilibrium_single_source_eq/final_u.csv": "9354d674cdca366e05e2f153f92e76bca4c0b56d647f48f07e96daacff53d61a",
    "simulate_single_source_eq/manifest.txt": "7d8dae11532b73556b34313e4bea7ff07c717d5332a5ce0b7e11cf7b59f974b1",
    "simulate_single_source_eq/nu.csv": "23b8973c51903fce14cab21ed30a5c446bdcfc43956ccbf943d838d0c2e669df",
    "simulate_single_source_eq/snap000_mu.csv": "0d0c1a26b549f5a60f85a417187f3deea74bf31dd8addef68d292a53ba17b3dd",
    "simulate_single_source_eq/snap000_u.csv": "14885e3b3eb1caa8d17020b8b300a7fd28e5b085efbbfa29383c422a68f141d2",
    "simulate_single_source_eq/snap001_mu.csv": "52f72cdf26e4eb7e8746a0daf9b5e78eceefc911ae06e1c4d51edda258627555",
    "simulate_single_source_eq/snap001_u.csv": "93c8a0188cec155b3da576f946e279fc844f9a812ce2a928649d4b16f8c25776",
    "simulate_single_source_eq/snap002_mu.csv": "ac6db0a32d61330a15d475dd8f802d6d8cc91149337b9bd206073b128c6ac28f",
    "simulate_single_source_eq/snap002_u.csv": "9354d674cdca366e05e2f153f92e76bca4c0b56d647f48f07e96daacff53d61a",
    "simulate_two_source/manifest.txt": "3d90c86cb4477a0d8d3b97d097a0d26e631393e7163da8f6756451c28df9cb64",
    "simulate_two_source/nu.csv": "fabc311b6dad7a40cb95ff41bbe1f13e16565dee2b3b22deceb61a7d548e7730",
    "simulate_two_source/snap000_mu.csv": "3a13a635b34dc69545e5e4577bb0dcea51a0ade02b7ffb1874c5348ff3cc8fbb",
    "simulate_two_source/snap000_u.csv": "7df76f87cd77baa56e3e3cdbe52a93bfc93136219a62c61bcabc15037460e66a",
    "simulate_two_source/snap001_mu.csv": "bc851678fc0ba21e974329c448a986d36e6445e669b37e66623e97519a6de89f",
    "simulate_two_source/snap001_u.csv": "3c94fc6e54f58954b5c3d14bb86003b07efddb557d9bfa4c13d1ab551a95a1a7",
    "simulate_two_source/snap002_mu.csv": "f9c1196de97f8da3a8e55c52bf4657c2afbd771ab08d31c1c15b46bad15c4d35",
    "simulate_two_source/snap002_u.csv": "ae721fc66a92995f546f4dc0f1677dd74a2f709c4c1d574ab896ce32f1f6febc",
    "simulate_two_source/snap003_mu.csv": "8aa07afcab581cb474c49cc9e9b0c5d5ea6a07e217759e83b334bed085db8c83",
    "simulate_two_source/snap003_u.csv": "d11c4aaeac2ef1f3c59027785991b3b97499b6dbfcf1f71899468c96109cf966",
    "simulate_two_source/snap004_mu.csv": "d45b3430d7bc035b4b32fc811aa80734bd6fd6c39e57d99764f57b6adf13056e",
    "simulate_two_source/snap004_u.csv": "ccd2f54e4afa72dcc9d7d6165a1a7bd4922555a24c13ad67dd1da3b3317ceb39",
    "simulate_uniform_converge/manifest.txt": "92b5f6fe3a094b7c46ff89cef5bb4e92c57e0440bdb26e8907e881623ee6202c",
    "simulate_uniform_converge/nu.csv": "37d203f94376a21b387b2bce817b5f8c73ce8c399b88968a9d7aadc797e76f8f",
    "simulate_uniform_converge/snap000_mu.csv": "f9c65f291862d1108c2cfe2a98a43934e2e35328cde92e2ba075604e9afbe9e6",
    "simulate_uniform_converge/snap000_u.csv": "c6b8255547621e24511d37a1bb3e2f3b414e0c5a99d7ef2c254c156ed6358208",
    "simulate_uniform_converge/snap001_mu.csv": "77bc261a0222eb737743d30b127d2cbaed9528523a34108368f7772838f36312",
    "simulate_uniform_converge/snap001_u.csv": "48745583e6d04edec38e862875ff7c008987cbd34004499b686d038c5506c0a7",
}


def output_hashes(root: Path) -> dict[str, str]:
    hashes = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            text = path.read_text()
            if path.name == "manifest.txt":
                text = text.split("\n[timings]\n", 1)[0] + "\n"
            hashes[path.relative_to(root).as_posix()] = hashlib.sha256(text.encode()).hexdigest()
    return hashes


def test_shipped_configs_reproduce_golden_outputs(tmp_path, monkeypatch):
    # The manifest echoes the output directory, so it is kept relative.
    monkeypatch.chdir(tmp_path)
    for command, config in RUNS:
        out = f"out/{command}_{config}"
        assert main([command, "--config", str(CONFIGS / f"{config}.ini"), "--out", out, "--quiet"]) == 0
    assert output_hashes(tmp_path / "out") == GOLDEN


# Per snapshot of two_source.ini: t, primal, dual, pairing_gap,
# ray_residual, wall_residual, tolerance, as ``verify`` wrote them with the
# all-pairs dual LP.
GOLDEN_CERTIFICATES = [
    (0.050000000000000003, 0.24018929450929641, 0.24000409033935621, 1.4432899320127035e-15, 2.7755575615628914e-17, 0, 0.031251000000000001),
    (0.12, 0.30893845448442137, 0.30880232095342086, 6.6613381477509392e-16, 2.7755575615628914e-17, 0, 0.031251000000000001),
    (0.20000000000000001, 0.50473982280585361, 0.50466276087558981, 6.2452279336211447e-05, 5.4643789493269423e-17, 8.9217541900443731e-05, 0.031251000000000001),
    (0.27000000000000002, 0.51780578368633234, 0.51773494743970394, 6.2452279320113213e-05, 5.5511151231257827e-17, 8.9217541900443731e-05, 0.031251000000000001),
    (0.5, 0.67173895429082742, 0.67173895429082742, 7.5301100974090041e-05, 0, 8.9217541900443731e-05, 0.031251000000000001),
]
CERTIFICATE_FIELDS = ("t", "primal", "dual", "pairing_gap", "ray_residual", "wall_residual", "tolerance")


def test_two_source_verify_reproduces_golden_certificates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = str(CONFIGS / "two_source.ini")
    assert main(["simulate", "--config", config, "--out", "out", "--quiet"]) == 0
    assert main(["verify", "--manifest", "out/manifest.txt", "--quiet"]) == 0
    lines = (tmp_path / "out" / "certificates.txt").read_text().splitlines()
    assert lines[1] == "result = PASS"
    assert len(lines) == 2 + len(GOLDEN_CERTIFICATES)
    for line, expected in zip(lines[2:], GOLDEN_CERTIFICATES):
        *pairs, status = line.partition(" = ")[2].split()
        assert status == "PASS"
        got = {key: float(value) for key, value in (pair.split("=") for pair in pairs)}
        for key, want in zip(CERTIFICATE_FIELDS, expected):
            assert abs(got[key] - want) <= (1e-9 if key == "dual" else 1e-12), (line, key)
