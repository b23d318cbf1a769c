"""The diagnostic scripts run against the engine they read: each is loaded
by path and exercised on one small case, so an engine refactor that breaks
one fails here rather than when someone next runs it."""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from uavcache import environment_preset, system_capacity

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_profile_prints_one_line_per_geometry(monkeypatch, capsys):
    script = load_script("kernel_profile")
    monkeypatch.setattr("sys.argv", ["kernel_profile.py", "--geometry", "sub_urban:1:1"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["env"], record["x_cop_km"], record["altitude_km"]) == ("sub_urban", 1.0, 1.0)
    assert len(record["tables_sha256"]) == len(record["table_sha256"]) == 64
    # the default geometry is summed on the window every assembly starts on
    assert record["v_window"] == [-20, 14]
    # one cold geometry builds every radial table group it reads
    assert record["groups_built"] > 0 and record["groups_reused"] == 0
    # the windowed branch's normal tails are timed inside its replay
    assert record["branches"]["windowed"]["cells"] > 0
    assert 0.0 < record["window_tails_s"]


def test_acceptance_diagnostics_diagonal_is_the_system_rate():
    script = load_script("acceptance_diagnostics")
    cfg = script.scenario(environment_preset("sub_urban"))
    assert script.mixed_rate_bits(cfg, cfg) == pytest.approx(
        system_capacity(cfg).system_rate_bits, rel=1e-12, abs=0)


def test_acceptance_diagnostics_mode_split_is_the_engine_table():
    # the per-mode radials take the engine's radial nodes: at H = 1 km the
    # engine reads its unit-altitude table unshifted, so for sub_urban they
    # agree but for the far panels each group ends at its own tail edges
    # (2.7e-13); at another altitude, to the script's own 1e-9 check
    script = load_script("acceptance_diagnostics")
    for altitude, rtol in ((1.0, 1e-12), (0.5, 1e-9)):
        cfg = script.scenario(environment_preset("sub_urban"), altitude)
        tables = script.accepted_tables(cfg)
        parts = script.mode_radials(tables.v_grid, cfg)
        np.testing.assert_allclose(parts["los"] + parts["nlos"],
                                   tables.zone + tables.outside, rtol=rtol, atol=0,
                                   err_msg=f"H={altitude}")


def test_placement_profile_prints_one_line_per_solver(monkeypatch, capsys):
    script = load_script("placement_profile")
    monkeypatch.setattr("sys.argv", ["placement_profile.py", "--case", "10:5",
                                     "--requests", "2000"])
    assert script.main() == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["solver"] for r in records] == ["solve_rcp", "lru_che", "lru_simulate"]
    for record in records:
        assert (record["library_size"], record["cache_size"]) == (10, 5)
        assert len(record["probabilities_sha256"]) == 64
    assert records[2]["args"] == {"n_requests": 2000, "warmup": 500, "seed": 7}


def test_mc_profile_prints_one_line_per_stage(monkeypatch, capsys):
    script = load_script("mc_profile")
    monkeypatch.setattr("sys.argv", ["mc_profile.py", "--case", "high_rise:1",
                                     "--trials", "64"])
    assert script.main() == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["stage"] for r in records] == ["far_tau", "far_build", "far_sample",
                                             "draw_links", "zone_chunk"]
    for record in records:
        assert (record["env"], record["x_cop_km"], record["trials"]) == ("high_rise", 1.0, 64)
        assert len(record["sha256"]) == 64
    # the far field's threshold lattice index and bound, as the field holds them
    far = records[1]["args"]
    assert -48 <= far["k"] <= 0 and 0.0 < far["bias_nats"] <= 5e-4
    # every repeat of a stage returns the same bytes, so a rerun matches
    monkeypatch.setattr("sys.argv", ["mc_profile.py", "--case", "high_rise:1",
                                     "--trials", "64"])
    assert script.main() == 0
    again = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["sha256"] for r in again] == [r["sha256"] for r in records]
