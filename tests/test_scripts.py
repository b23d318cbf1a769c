"""The scripts run against the engine they read: each is loaded by path and
exercised on one small case, so an engine refactor that breaks one fails
here rather than when someone next runs it."""
import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from uavcache import environment_preset, system_capacity
from uavcache.harness import _LRU_REQUESTS
from uavcache.simulator import SimOptions

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(monkeypatch, script, *argv):
    monkeypatch.setattr("sys.argv", [script.__file__, *argv])
    return script.main()


def printed_records(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_every_script_is_exercised_here():
    source = Path(__file__).read_text(encoding="utf-8")
    untested = [p.name for p in sorted((ROOT / "scripts").glob("*.py"))
                if f'load_script("{p.stem}")' not in source]
    assert not untested


def test_layer_profile_runs_every_layer_at_its_defaults(monkeypatch, capsys):
    script = load_script("layer_profile")
    for name in ("kernel", "mc", "placement"):
        monkeypatch.setattr(script, f"{name}_layer", lambda args: [
            {k: v for k, v in vars(args).items() if k != "profile"}])
    assert run_main(monkeypatch, script) == 0
    assert printed_records(capsys) == [
        {"layer": "kernel", "hermite_nodes": None, "geometry": None},
        {"layer": "mc", "case": None, "trials": SimOptions().chunk_size},
        {"layer": "placement", "case": None, "requests": _LRU_REQUESTS},
    ]


def test_kernel_layer_prints_one_line_per_geometry(monkeypatch, capsys):
    script = load_script("layer_profile")
    assert run_main(monkeypatch, script, "kernel", "--geometry", "sub_urban:1:1") == 0
    records = printed_records(capsys)
    assert len(records) == 1
    record = records[0]
    assert record["layer"] == "kernel"
    assert (record["env"], record["x_cop_km"], record["altitude_km"]) == ("sub_urban", 1.0, 1.0)
    assert len(record["tables_sha256"]) == len(record["table_sha256"]) == 64
    # the default geometry is summed on the window every assembly starts on
    assert record["v_window"] == [-20, 14]
    # one cold geometry builds every radial table group it reads, the 9 of
    # its window, in one call timed inside its build
    assert record["groups_built"] == 9 and record["groups_reused"] == 0
    assert 0.0 < record["table_s"] <= record["build_s"]
    # the windowed branch's normal tails are timed inside its replay
    assert record["branches"]["windowed"]["cells"] > 0
    assert 0.0 < record["window_tails_s"]


def test_placement_layer_prints_one_line_per_solver(monkeypatch, capsys):
    script = load_script("layer_profile")
    assert run_main(monkeypatch, script, "placement", "--case", "10:5",
                    "--requests", "2000") == 0
    records = printed_records(capsys)
    assert [r["solver"] for r in records] == ["solve_rcp", "lru_che", "lru_simulate"]
    for record in records:
        assert record["layer"] == "placement"
        assert (record["library_size"], record["cache_size"]) == (10, 5)
        assert len(record["probabilities_sha256"]) == 64
        assert record["peak_mib"] > 0.0
    assert records[2]["args"] == {"n_requests": 2000, "warmup": 500, "seed": 7}


def test_mc_layer_prints_one_line_per_stage(monkeypatch, capsys):
    script = load_script("layer_profile")
    argv = ("mc", "--case", "high_rise:1", "--trials", "64")
    assert run_main(monkeypatch, script, *argv) == 0
    records = printed_records(capsys)
    assert [r["stage"] for r in records] == ["far_tau", "far_build", "far_sample",
                                             "draw_links", "zone_chunk"]
    for record in records:
        assert record["layer"] == "mc"
        assert (record["env"], record["x_cop_km"], record["trials"]) == ("high_rise", 1.0, 64)
        assert len(record["sha256"]) == 64
    # the far field's threshold lattice index and bound, as the field holds them
    far = records[1]["args"]
    assert -48 <= far["k"] <= 0 and 0.0 < far["bias_nats"] <= 5e-4
    # every repeat of a stage returns the same bytes, so a rerun matches
    assert run_main(monkeypatch, script, *argv) == 0
    again = printed_records(capsys)
    assert [r["sha256"] for r in again] == [r["sha256"] for r in records]


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


def test_run_figures_writes_every_preset(monkeypatch, capsys, tmp_path):
    script = load_script("run_figures")
    assert run_main(monkeypatch, script, str(tmp_path)) == 0
    presets = sorted(p.stem for p in script.PRESET_DIR.glob("*.yaml"))
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == presets
    rows = []
    for path in tmp_path.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows.extend(csv.DictReader(fh))
    assert len(rows) == 137
    assert [r["scenario_id"] for r in rows if r["method"] == "failed"] == []


TABLE = "scenario_id,method,capacity_bits\na-000,analytic,1.5\na-001,analytic,2.0\n"


def write_csvs(directory, **tables):
    directory.mkdir()
    for name, text in tables.items():
        (directory / f"{name}.csv").write_text(text, encoding="utf-8")
    return str(directory)


@pytest.mark.parametrize("new, rel, status, message", [
    (TABLE, "0", 0, "within 0 relative"),
    (TABLE.replace("2.0", "2.1"), "0.01", 1, "capacity_bits        5.000e-02  > --rel"),
    (TABLE.replace(",2.0", ""), "0", 1, "MISMATCH line 3: 3 cells against 2"),
    ("", "0", 1, "MISMATCH headers differ"),
    (TABLE.replace("a-001", "a-002"), "0", 1, "MISMATCH line 3 scenario_id: 'a-001' -> 'a-002'"),
], ids=["equal", "over_rel", "short_row", "empty", "label"])
def test_csv_diff_reads_each_difference(monkeypatch, capsys, tmp_path, new, rel, status, message):
    script = load_script("csv_diff")
    old_dir = write_csvs(tmp_path / "old", sweep=TABLE)
    new_dir = write_csvs(tmp_path / "new", sweep=new)
    assert run_main(monkeypatch, script, old_dir, new_dir, "--rel", rel) == status
    out = capsys.readouterr().out
    assert message in out
    assert out.splitlines()[-1].startswith("within" if status == 0 else "NOT within")


def test_csv_diff_fails_a_file_in_one_directory(monkeypatch, capsys, tmp_path):
    script = load_script("csv_diff")
    old_dir = write_csvs(tmp_path / "old", sweep=TABLE, extra=TABLE)
    new_dir = write_csvs(tmp_path / "new", sweep=TABLE)
    assert run_main(monkeypatch, script, old_dir, new_dir, "--rel", "0") == 1
    assert "extra.csv: only in OLD_DIR" in capsys.readouterr().out
