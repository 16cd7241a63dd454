"""``scripts/scale_ladder.py``: each rung runs the shipped commands and keeps their ``[timings]``."""

import importlib.util
from pathlib import Path

import pytest

SIMULATE_KEYS = {"simulate_seconds", "partition_rebuilds", "partition_reranked", "max_candidates", "rk2_steps"}
VERIFY_KEYS = {"verify_wall_s", "verify_peak_rss_mb", "verify_seconds", "primal_pivots", "demand_atoms"}


@pytest.fixture
def ladder():
    """``scripts/scale_ladder.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "scale_ladder.py"
    spec = importlib.util.spec_from_file_location("scale_ladder", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rung_keeps_both_commands_counters(ladder, tmp_path):
    rung = ladder.run_rung(256, 1 / 64, tmp_path)
    assert rung["exit_code"] == 0
    assert SIMULATE_KEYS | VERIFY_KEYS <= rung.keys()
    assert isinstance(rung["primal_pivots"], int) and rung["primal_pivots"] > 0
    assert isinstance(rung["verify_seconds"], float)
    assert "result = PASS" in (tmp_path / "k256_h64" / "certificates.txt").read_text()


def test_verify_skipped_above_primal_cells(ladder, tmp_path, monkeypatch):
    monkeypatch.setattr(ladder, "PRIMAL_CELLS", 0)
    rung = ladder.run_rung(256, 1 / 64, tmp_path)
    assert rung["exit_code"] == 0
    assert SIMULATE_KEYS <= rung.keys()
    assert not VERIFY_KEYS & rung.keys()


def test_certificate_fail_is_the_rung_exit_code(ladder, tmp_path, monkeypatch):
    """A written height 1e-6 off at one cell FAILs the read-back, and the rung exits 1."""
    run_child = ladder.run_child

    def tampered(args):
        if "verify" in args:
            u = tmp_path / "k256_h64" / "snap000_u.csv"
            header, first, *rest = u.read_text().splitlines(keepends=True)
            x, y, value = first.split(",")
            u.write_text(f"{header}{x},{y},{float(value) + 1e-6!r}\n{''.join(rest)}")
        return run_child(args)

    monkeypatch.setattr(ladder, "run_child", tampered)
    rung = ladder.run_rung(256, 1 / 64, tmp_path)
    assert rung["exit_code"] == 1
    assert "verify_seconds" in rung
    assert "result = FAIL" in (tmp_path / "k256_h64" / "certificates.txt").read_text()
