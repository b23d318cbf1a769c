"""Config parsing, sweep execution, CSV emission, and the CLI front end."""
import csv
import io
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import uavcache
from uavcache import caching, cli, harness, simulator
from uavcache.analytics import (CapacityReport, PowerModel, QuadratureConfig,
                                energy_efficiency_exact)
from uavcache.caching import POLICY_KINDS
from uavcache.channel import (ENVIRONMENT_PRESETS, ChannelConfig, Environment,
                              environment_preset)
from uavcache.errors import ConfigError
from uavcache.harness import (CSV_HEADER, METHODS, SWEEP_VARIABLES, SweepSpec,
                              dump_config, emit_csv, load_config, parse_config,
                              run_sweep)
from uavcache.simulator import SimOptions, estimate_capacity

ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_CONFIG = ROOT / "configs" / "example.yaml"
# every config the repository ships: the example, the package's presets and
# the benchmark workloads
SHIPPED_CONFIGS = [EXAMPLE_CONFIG,
                   *sorted((ROOT / "src" / "uavcache" / "presets").glob("*.yaml")),
                   *sorted((ROOT / "perfbench" / "workloads").glob("*/*.yaml"))]

MINIMAL_SWEEP_YAML = """\
scenario:
  environment: sub_urban
  library_size: 12
  zipf_exponent: 0.8
  cache_size: 3
sweeps:
  - name: radius
    variable: x_cop
    grid: [0.5, 1.0]
    methods: [analytic]
    seed: 4
"""


# --- config parsing -----------------------------------------------------------

def test_defaults_from_empty_config():
    run = parse_config({})
    sc = run.scenario
    assert sc.env.name == "sub_urban"
    assert sc.library.size == 20
    assert sc.library.zipf_exponent == 0.8
    assert sc.policy.cache_size == 5
    assert run.point.policies == ("rcp",)
    assert sc.subchannels == 64
    assert sc.uav_density == pytest.approx(1e-3)
    assert sc.coop_radius_km == pytest.approx(1.0)
    assert sc.channel.altitude_km == pytest.approx(1.0)
    assert run.point.seed == 0 and run.point.trials == 10_000 and run.sweeps == ()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="config"):
        parse_config({"senario": {}})
    with pytest.raises(ConfigError, match="scenario"):
        parse_config({"scenario": {"libary_size": 10}})
    with pytest.raises(ConfigError, match="sweeps"):
        parse_config({"sweeps": [{"variable": "x_cop", "grid": [1.0],
                                  "colour": "red"}]})



@pytest.mark.parametrize("block,key,value", [
    # shadowing is an excess loss in dB with no alternative convention
    ("channel", "shadowing_convention", "db_loss"),
    ("channel", "shadowing_convention", "literal"),
    # the Monte Carlo estimator is the conditioned one and its SIR is uncapped
    ("simulation", "mode", "conditioned"),
    ("simulation", "sir_cap", 1e6),
    # the far field's spike threshold is chosen from its own bias bound
    ("simulation", "spike_rel", 1e-6)])
def test_removed_keys_rejected(block, key, value, tmp_path, capsys):
    # a key whose choice is gone is unknown whatever its value, the old
    # default included
    raw = {"scenario": {block: {key: value}}}
    with pytest.raises(ConfigError, match=key):
        parse_config(raw)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"scenario.{block}" in err and key in err


@pytest.mark.parametrize("key,value", [("z_max", 64.0), ("k_max_tail", 1e-12),
                                       ("v_max", 1e7)])
def test_retired_quadrature_keys_rejected(key, value, tmp_path, capsys):
    # the radial truncation floor and the EE Poisson tail are fixed constants,
    # and the transform window's ends move by its guard panels, so their old
    # keys are unknown even at their old default values
    raw = {"scenario": {"quadrature": {key: value}}}
    with pytest.raises(ConfigError, match=key):
        parse_config(raw)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "scenario.quadrature" in err and key in err


def test_out_of_range_scenario_values():
    with pytest.raises(ConfigError, match="out of range"):
        parse_config({"scenario": {"zipf_exponent": 2.5}})
    with pytest.raises(ConfigError):
        parse_config({"scenario": {"uav_density_per_km2": -1.0}})
    with pytest.raises(ConfigError):
        parse_config({"scenario": {"cache_size": 30}})


@pytest.mark.parametrize("block,key,bad,edge,build", [
    ("quadrature", "rel_tol", 1e-20, 1e-16, lambda v: QuadratureConfig(rel_tol=v)),
    (None, "altitude_km", 0.0, 1e-10, lambda v: ChannelConfig(altitude_km=v)),
], ids=["rel_tol", "altitude_km"])
def test_config_and_api_share_each_bound(block, key, bad, edge, build):
    # each bound is stated once, in its dataclass: a value the API rejects
    # is rejected from the config and the edge value passes both
    def raw(value):
        node = {key: value}
        return {"scenario": {block: node} if block else node}
    with pytest.raises(ConfigError, match="out of range|must be positive"):
        build(bad)
    with pytest.raises(ConfigError, match="out of range|must be positive"):
        parse_config(raw(bad))
    build(edge)
    parse_config(raw(edge))


@pytest.mark.parametrize("block,key,bad,edge", [
    ("power", "transmit_w", -1.0, 0.0),
    ("power", "rate_power_slope", -0.5, 0.0),
    ("quadrature", "hermite_nodes", 1, 2),
    ("simulation", "chunk_size", 0, 1),
    ("simulation", "n_jobs", 0, 1)])
def test_block_bounds_are_checked_by_their_dataclass(block, key, bad, edge):
    with pytest.raises(ConfigError, match="must be >= "):
        parse_config({"scenario": {block: {key: bad}}})
    parse_config({"scenario": {block: {key: edge}}})


# the config blocks parsed into a dataclass; a block's keys are its fields'
# names, less the channel's altitude, which is a scenario key
CONFIG_BLOCKS = ("channel", "power", "quadrature", "simulation", "custom_environment")
# a complete custom environment block: it has no defaults
CANYON = {f.name: getattr(environment_preset("urban"), f.name)
          for f in fields(Environment)} | {"name": "canyon"}


def _parsed_block(block, node):
    """(run, the dataclass parse_config built from config block `node`)."""
    scenario = {block: node}
    if block == "custom_environment":
        scenario["environment"] = node["name"]
    run = parse_config({"scenario": scenario})
    sc = run.scenario
    return run, {"channel": sc.channel, "power": sc.power, "quadrature": sc.quadrature,
                 "simulation": run.point.sim_options, "custom_environment": sc.env}[block]


@pytest.mark.parametrize("block", CONFIG_BLOCKS)
def test_every_block_field_is_a_config_key(block):
    base = CANYON if block == "custom_environment" else {}
    run, default = _parsed_block(block, base)
    keys = [f.name for f in fields(default)
            if (block, f.name) != ("channel", "altitude_km")]
    assert list(dump_config(run)["scenario"][block]) == keys
    # each key sets its own field and leaves the others at their defaults
    for name in keys:
        old = getattr(default, name)
        new = "gorge" if isinstance(old, str) else old * 2
        _, parsed = _parsed_block(block, {**base, name: new})
        assert getattr(parsed, name) == new and parsed == replace(default, **{name: new})


def test_empty_config_takes_every_block_default():
    run = parse_config({})
    assert run.scenario.channel == ChannelConfig(altitude_km=1.0)
    assert run.scenario.power == PowerModel()
    assert run.scenario.quadrature == QuadratureConfig()
    assert run.point.sim_options == SimOptions()


def test_example_config_spells_out_every_block_default():
    example = yaml.safe_load(EXAMPLE_CONFIG.read_text())["scenario"]
    defaults = dump_config(parse_config({}))["scenario"]
    for block in ("channel", "power", "quadrature", "simulation"):
        assert example[block] == defaults[block], block


@pytest.mark.parametrize("variable,key,bad,edge", [
    ("altitude", "altitude_km", 0.0, 1e-10),
    ("x_cop", "coop_radius_km", -1e-9, 0.0),
    ("density", "uav_density_per_km2", -1e-9, 0.0),
    ("kappa", "zipf_exponent", 2.0 + 1e-9, 2.0),
    ("kappa", "zipf_exponent", -1e-9, 0.0),
    ("library_size", "library_size", 0, 1),
], ids=["altitude", "x_cop", "density", "kappa", "kappa_low", "library_size"])
def test_variable_bound_is_the_same_for_scenario_and_sweep(variable, key, bad, edge):
    # each bound is stated once, by the dataclass holding the value: the
    # scenario key, a grid value and an override reject the same value with
    # the same message and accept the edge value alike. mpc and a one-file
    # cache keep the zone and cache-budget checks out of the way.
    base = {"policy": "mpc", "cache_size": 1}
    other = "density" if variable == "x_cop" else "x_cop"

    def raws(value):
        return [{"scenario": {**base, key: value}},
                {"scenario": base, "sweeps": [{"variable": variable, "grid": [value]}]},
                {"scenario": base, "sweeps": [{"variable": other, "grid": [1.0],
                                               "overrides": {variable: value}}]}]
    messages = []
    for raw in raws(bad):
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        messages.append(str(exc.value))
    assert messages[1] == messages[2] == f"sweep 'sweep0': {messages[0]}"
    for raw in raws(edge):
        parse_config(raw)


@pytest.mark.parametrize("where,raw", [
    ("scenario.coop_radius_km", lambda v: {"scenario": {"coop_radius_km": v}}),
    ("scenario.power.static_w", lambda v: {"scenario": {"power": {"static_w": v}}}),
    ("sweeps[0].grid[0]",
     lambda v: {"sweeps": [{"variable": "library_size", "grid": [v]}]}),
    ("library_size", lambda v: {"sweeps": [{"variable": "x_cop", "grid": [1.0],
                                            "overrides": {"library_size": v}}]}),
], ids=["scenario", "block", "grid", "override"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400],
                         ids=["nan", "inf", "-inf", "huge_int", "-huge_int"])
def test_non_finite_numbers_are_config_errors(where, raw, value, tmp_path, capsys):
    # NaN passes every range check, and int() of a non-finite grid value or
    # override raised a traceback; an int beyond the float range (YAML reads
    # a 400-digit number as one) raised OverflowError
    with pytest.raises(ConfigError, match=re.escape(f"{where} must be a finite number")):
        parse_config(raw(value))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw(value)))
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err


def test_custom_environment_round_trip():
    raw = {
        "scenario": {
            "environment": "canyon",
            "custom_environment": {
                "name": "canyon", "phi": 20.0, "psi": 0.1,
                "mu_los": 1.0, "mu_nlos": 25.0,
                "a_los": 8.0, "a_nlos": 35.0, "c_los": 0.03, "c_nlos": 0.03,
            },
        },
    }
    run = parse_config(raw)
    assert run.scenario.env.name == "canyon"
    assert run.scenario.env.phi == 20.0
    again = parse_config(dump_config(run))
    assert again.scenario.env == run.scenario.env


@pytest.mark.parametrize("environment", ["urban", "sub_urban"])
def test_custom_environment_may_not_take_a_preset_name(environment):
    # the custom block would replace the preset of its name in every row, so
    # an `env=urban` row would hold another environment's numbers
    custom = {f.name: getattr(environment_preset("sub_urban"), f.name)
              for f in fields(Environment)} | {"name": "urban"}
    raw = {"scenario": {"environment": environment, "custom_environment": custom},
           "sweeps": [{"variable": "x_cop", "grid": [1.0],
                       "environments": ["urban", "sub_urban"]}]}
    with pytest.raises(ConfigError, match="custom environment 'urban' takes a preset's name"):
        parse_config(raw)
    with pytest.raises(ConfigError, match="takes a preset's name"):
        SweepSpec(name="s", variable="x_cop", grid=(1.0,), base=parse_config({}).scenario,
                  environments=("urban",),
                  environment_map={"urban": Environment(**custom)})


def test_dump_config_round_trip():
    run = parse_config({"scenario": {"environment": "high_rise",
                                     "library_size": 8, "cache_size": 2,
                                     "zipf_exponent": 1.1,
                                     "coop_radius_km": 2.5,
                                     "altitude_km": 0.5,
                                     "subchannels": 16}})
    again = parse_config(dump_config(run))
    sc, sc2 = run.scenario, again.scenario
    assert (sc2.env.name, sc2.library.size, sc2.policy.cache_size,
            sc2.library.zipf_exponent, sc2.coop_radius_km,
            sc2.channel.altitude_km, sc2.subchannels) == (
        sc.env.name, sc.library.size, sc.policy.cache_size,
        sc.library.zipf_exponent, sc.coop_radius_km,
        sc.channel.altitude_km, sc.subchannels)


SWEEP_FIELDS = ("name", "variable", "grid", "environments", "policies",
                "methods", "trials", "seed", "overrides", "sim_options",
                "environment_map")


def _parsed_fields(run) -> tuple:
    """Everything parse_config reads from a config, in comparable form: the
    scenario, and every field of the run point and of each sweep."""
    sc = run.scenario
    assert run.point.base is sc and all(spec.base is sc for spec in run.sweeps)
    specs = tuple(tuple(getattr(spec, f) for f in SWEEP_FIELDS)
                  for spec in (run.point, *run.sweeps))
    return (sc.env, sc.env.name, sc.channel, sc.power,
            sc.quadrature, sc.uav_density, sc.coop_radius_km, sc.subchannels,
            sc.library.size, sc.library.zipf_exponent, sc.policy.cache_size,
            tuple(sc.policy.probabilities), specs)


def _optional_block(**keys):
    return st.fixed_dictionaries({}, optional=keys)


def _number(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# admissible grid and override values per sweep variable
SWEEP_VALUES = {"x_cop": _number(0.0, 5.0), "density": _number(0.0, 0.1),
                "kappa": _number(0.0, 2.0), "altitude": _number(0.05, 5.0),
                "library_size": st.integers(1, 30)}


@st.composite
def raw_sweeps(draw, environments):
    """One sweep block setting any subset of the optional sweep keys."""
    variable = draw(st.sampled_from(SWEEP_VARIABLES))
    grid = draw(st.lists(SWEEP_VALUES[variable], min_size=1, max_size=4,
                         unique=True).map(sorted))
    names = st.lists(st.sampled_from(environments), min_size=1, unique=True)
    sweep = draw(_optional_block(
        name=st.text("abxy_-019", min_size=1, max_size=6),
        environments=names,
        policies=st.lists(st.sampled_from(POLICY_KINDS), min_size=1, unique=True),
        methods=st.sampled_from([["analytic"], ["monte_carlo"], ["both"],
                                 ["monte_carlo", "analytic"]]),
        trials=st.integers(1, 10 ** 6), seed=st.integers(0, 2 ** 31),
        overrides=_optional_block(**SWEEP_VALUES)))
    return {"variable": variable, "grid": grid, **sweep}


@st.composite
def raw_configs(draw):
    """Config dicts setting any subset of the scenario keys, plus sweeps."""
    scenario = draw(_optional_block(
        # a positive zone mean keeps a sweepless rcp base valid
        uav_density_per_km2=_number(1e-5, 0.1),
        altitude_km=_number(0.05, 5.0),
        coop_radius_km=_number(1e-3, 5.0),
        subchannels=st.integers(1, 256),
        # any cache size fits any library size, set or defaulted (5 and 20)
        library_size=st.integers(5, 30),
        cache_size=st.integers(1, 5),
        zipf_exponent=_number(0.0, 2.0),
        policy=st.sampled_from(POLICY_KINDS),
        channel=_optional_block(
            alpha_los=_number(2.01, 3.0), alpha_nlos=_number(3.0, 5.0),
            k_los=_number(0.1, 10.0), k_nlos=_number(0.1, 10.0),
            nakagami_los=_number(2.0, 20.0), nakagami_nlos=_number(0.5, 2.0)),
        power=_optional_block(
            transmit_w=_number(0.0, 10.0), cache_per_file_w=_number(0.0, 1.0),
            static_w=_number(0.0, 10.0), rate_power_slope=_number(0.0, 5.0)),
        quadrature=_optional_block(
            hermite_nodes=st.integers(2, 100), rel_tol=_number(1e-12, 1e-2)),
        simulation=_optional_block(
            chunk_size=st.integers(1, 4096), n_jobs=st.integers(1, 8))))
    environments = sorted(ENVIRONMENT_PRESETS)
    if draw(st.booleans()):
        # a custom environment may serve the scenario, the sweeps, or neither
        scenario["custom_environment"] = {
            "name": "canyon", "phi": draw(_number(0.1, 30.0)),
            "psi": draw(_number(0.01, 1.0)), "mu_los": draw(_number(0.0, 5.0)),
            "mu_nlos": draw(_number(5.0, 40.0)), "a_los": draw(_number(0.0, 15.0)),
            "a_nlos": draw(_number(0.0, 40.0)), "c_los": draw(_number(0.0, 0.1)),
            "c_nlos": draw(_number(0.0, 0.1))}
        environments.append("canyon")
    scenario["environment"] = draw(st.sampled_from(environments))
    top = draw(_optional_block(seed=st.integers(0, 2 ** 31),
                               trials=st.integers(1, 10 ** 6),
                               sweeps=st.lists(raw_sweeps(environments), max_size=2)))
    return {**top, "scenario": scenario}


@settings(max_examples=40, deadline=None)
@given(raw_configs())
def test_dump_config_is_lossless(raw):
    run = parse_config(raw)
    again = parse_config(yaml.safe_load(yaml.safe_dump(dump_config(run))))
    assert _parsed_fields(again) == _parsed_fields(run)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                         ids=[str(p.relative_to(ROOT)) for p in SHIPPED_CONFIGS])
def test_example_config_loads_and_round_trips(path):
    # a shipped config must name only live keys, so it parses at all; the
    # figure script and the benchmark read the presets and workloads
    run = load_config(path)
    if path == EXAMPLE_CONFIG:
        assert run.point.seed == 42 and [spec.name for spec in run.sweeps] == ["demo"]
    else:
        assert run.sweeps
    assert _parsed_fields(parse_config(dump_config(run))) == _parsed_fields(run)


@pytest.mark.parametrize("key,value", [
    ("grid", ["x"]), ("grid", [True, 2]), ("grid", [None]),
    ("policies", "rcp"), ("environments", "sub_urban"), ("methods", "analytic"),
    ("policies", []), ("environments", []), ("methods", []), ("name", 2020), ("name", "")])
def test_bad_sweep_values_are_config_errors(key, value, tmp_path, capsys):
    # a grid value is a number as an override is, and a name list is a list,
    # not a string read character by character; an empty one would make a
    # sweep of no rows, which validate passed and sweep could not write. A
    # name is a string: one YAML reads as a number is quoted, as an
    # environment name is
    raw = {"sweeps": [{"name": "s", "variable": "x_cop", "grid": [1.0, 2.0],
                       key: value}]}
    with pytest.raises(ConfigError, match=f"sweeps\\[0\\].{key}"):
        parse_config(raw)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("key,value,message", [
    ("seed", -1, "seed = -1 out of range"), ("seed", 1.5, "config.seed must be an integer"),
    ("seed", "7", "config.seed must be an integer"), ("trials", 0, "trials = 0 out of range"),
    ("trials", True, "config.trials must be an integer")])
def test_bad_top_level_seed_or_trials_is_a_config_error(key, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config({key: value})
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config({key: value, "sweeps": [{"variable": "x_cop", "grid": [1.0]}]})


@pytest.mark.parametrize("methods", ["both", ["both"]])
def test_sweep_methods_both_runs_every_method(methods):
    raw = {"sweeps": [{"variable": "x_cop", "grid": [1.0], "methods": methods}]}
    assert parse_config(raw).sweeps[0].methods == METHODS


def test_sweep_spec_validation():
    base = parse_config({}).scenario
    with pytest.raises(ConfigError, match="unknown sweep variable"):
        SweepSpec(name="s", variable="power", grid=(1.0,), base=base)
    with pytest.raises(ConfigError, match="nonempty"):
        SweepSpec(name="s", variable="x_cop", grid=(), base=base)
    with pytest.raises(ConfigError, match="strictly increasing"):
        SweepSpec(name="s", variable="x_cop", grid=(1.0, 1.0), base=base)
    with pytest.raises(ConfigError, match="unknown policy"):
        SweepSpec(name="s", variable="x_cop", grid=(1.0,), base=base,
                  policies=("optimal",))
    with pytest.raises(ConfigError, match="unknown method"):
        SweepSpec(name="s", variable="x_cop", grid=(1.0,), base=base,
                  methods=("exact",))
    with pytest.raises(ConfigError, match="out of range"):
        SweepSpec(name="s", variable="kappa", grid=(0.5, 2.5), base=base)
    with pytest.raises(ConfigError, match="unknown override"):
        SweepSpec(name="s", variable="x_cop", grid=(1.0,), base=base,
                  overrides={"beta": 2.0})


# --- sweep execution ------------------------------------------------------------

def test_row_order_and_ids():
    base = parse_config({"scenario": {"library_size": 6, "cache_size": 2}}).scenario
    spec = SweepSpec(name="grid", variable="x_cop", grid=(0.5, 1.0), base=base,
                     environments=("sub_urban", "urban"), methods=("analytic",))
    rows = run_sweep(spec)
    assert [r.scenario_id for r in rows] == [f"grid-{i:03d}" for i in range(4)]
    assert [(r.coop_radius_km, r.env) for r in rows] == [
        (0.5, "sub_urban"), (0.5, "urban"), (1.0, "sub_urban"), (1.0, "urban")]
    assert all(r.method == "analytic" and r.n_trials == 0 and r.stderr is None
               for r in rows)
    assert all(r.capacity_bits > 0 and r.ee_bits_per_joule > 0 for r in rows)


def test_kappa_sweep_rebuilds_library():
    base = parse_config({"scenario": {"library_size": 10, "cache_size": 2}}).scenario
    spec = SweepSpec(name="pop", variable="kappa", grid=(0.2, 1.2), base=base,
                     policies=("mpc",), methods=("analytic",))
    rows = run_sweep(spec)
    assert [r.kappa for r in rows] == [0.2, 1.2]
    # a more skewed library concentrates traffic on cached contents
    assert rows[1].capacity_bits > rows[0].capacity_bits


def test_policy_variants_execute():
    base = parse_config({"scenario": {"library_size": 10, "cache_size": 2}}).scenario
    spec = SweepSpec(name="pol", variable="x_cop", grid=(1.0,), base=base,
                     policies=("rcp", "mpc", "lru_che", "lru_empirical"),
                     methods=("analytic",), seed=6)
    rows = run_sweep(spec)
    assert [r.policy for r in rows] == ["rcp", "mpc", "lru_che", "lru_empirical"]
    assert all(r.method == "analytic" for r in rows)
    # the empirical LRU row is seeded, so repeating the sweep reproduces it
    again = run_sweep(spec)
    assert rows[3].capacity_bits == again[3].capacity_bits


def test_failed_row_keeps_sweep_alive():
    base = parse_config({}).scenario  # cache_size 5
    spec = SweepSpec(name="mix", variable="library_size", grid=(3.0, 10.0),
                     base=base, methods=("analytic",))
    rows = run_sweep(spec)
    assert rows[0].method == "failed"
    assert rows[0].capacity_bits is None
    assert rows[0].ee_bits_per_joule is None
    assert rows[1].method == "analytic"
    assert rows[1].library_size == 10
    assert rows[1].capacity_bits > 0
    assert rows[0].library_size == 3


def test_failed_row_records_overrides_and_grid_value():
    base = parse_config({}).scenario  # cache_size 5, library_size 20
    spec = SweepSpec(name="mix", variable="library_size", grid=(3.0,), base=base,
                     methods=("analytic",), overrides={"x_cop": 2.5, "density": 0.01})
    rows = run_sweep(spec)
    assert rows[0].method == "failed"
    assert (rows[0].library_size, rows[0].coop_radius_km, rows[0].density) == (3, 2.5, 0.01)
    buf = io.StringIO()
    emit_csv(rows, buf)
    cells = buf.getvalue().splitlines()[1].split(",")
    assert (cells[4], cells[6], cells[8]) == ("0.01", "2.5", "3")


def test_methods_of_one_point_share_its_placement(monkeypatch):
    # the analytic and Monte Carlo rows of a point evaluate one placement,
    # built once from the seed of the point's first row
    placed, calls = [], []
    monkeypatch.setattr(harness, "_evaluate_row", lambda scenario, method, *rest: (
        placed.append((method, scenario.policy.probabilities)) or (1.0, 1.0, None, 0)))
    build = harness.lru_empirical_policy
    monkeypatch.setattr(harness, "lru_empirical_policy",
                        lambda *args: calls.append(args) or build(*args))
    base = parse_config({"scenario": {"library_size": 10, "cache_size": 3}}).scenario
    spec = SweepSpec(name="pair", variable="x_cop", grid=(1.0,), base=base,
                     policies=("lru_empirical",), methods=("analytic", "monte_carlo"),
                     seed=5)
    rows = run_sweep(spec)
    assert [r.method for r in rows] == ["analytic", "monte_carlo"]
    assert [r.seed for r in rows] == [
        int(np.random.SeedSequence((5, i)).generate_state(1)[0]) for i in range(2)]
    (_, analytic), (_, monte) = placed
    assert len(calls) == 1 and np.array_equal(analytic, monte)
    # the first row's seed is the one a single-method sweep would use
    single = []
    monkeypatch.setattr(harness, "_evaluate_row", lambda scenario, *rest: (
        single.append(scenario.policy.probabilities) or (1.0, 1.0, None, 0)))
    run_sweep(replace(spec, methods=("analytic",)))
    assert np.array_equal(single[0], analytic)


def test_row_seeds_are_stable_and_distinct():
    base = parse_config({"scenario": {"library_size": 6, "cache_size": 2}}).scenario
    spec = SweepSpec(name="s", variable="x_cop", grid=(0.5, 1.0), base=base,
                     methods=("analytic",), seed=9)
    rows = run_sweep(spec)
    expected = [int(np.random.SeedSequence((9, i)).generate_state(1)[0])
                for i in range(2)]
    assert [r.seed for r in rows] == expected
    assert rows[0].seed != rows[1].seed


# --- CSV emission ---------------------------------------------------------------

def test_emit_csv_layout(tmp_path):
    base = parse_config({"scenario": {"library_size": 6, "cache_size": 2}}).scenario
    rows = run_sweep(SweepSpec(name="s", variable="x_cop", grid=(1.0,),
                               base=base, methods=("analytic",)))
    out = tmp_path / "rows.csv"
    emit_csv(rows, out)
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "s-000"
    assert cells[3] == "analytic"
    assert float(cells[11]) == pytest.approx(rows[0].capacity_bits, rel=1e-11)
    assert cells[13] == ""  # analytic rows carry no standard error
    assert cells[14] == "0"
    # file-object sink produces the same bytes
    buf = io.StringIO()
    emit_csv(rows, buf)
    assert buf.getvalue() == text


def test_emit_csv_quotes_names_holding_a_comma():
    base = parse_config({"scenario": {"library_size": 6, "cache_size": 2}}).scenario
    odd = replace(environment_preset("urban"), name="old town, east")
    rows = run_sweep(SweepSpec(name="a,b", variable="x_cop", grid=(1.0,), base=base,
                               environments=("sub_urban", "old town, east"),
                               environment_map={"old town, east": odd}))
    buf = io.StringIO()
    emit_csv(rows, buf)
    read = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert [(r["scenario_id"], r["env"], r["method"]) for r in read] == [
        ("a,b-000", "sub_urban", "analytic"), ("a,b-001", "old town, east", "analytic")]
    assert all(len(r) == len(CSV_HEADER.split(",")) and None not in r for r in read)


def test_emit_csv_rejects_empty():
    with pytest.raises(ValueError):
        emit_csv([], io.StringIO())


# --- CLI -------------------------------------------------------------------------

def test_cli_validate_and_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL_SWEEP_YAML)
    assert cli.main(["validate", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert "config ok" in printed
    assert "sweep radius" in printed

    out = tmp_path / "out.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("run-000,sub_urban,rcp,analytic")


def test_cli_run_uses_simulation_block(tmp_path):
    # each chunk of trials owns its own random stream, so 64 trials in chunks
    # of 16 draw other numbers than in one default chunk, while spelling out
    # the default chunk size changes nothing
    rows = {}
    explicit = f"  simulation:\n    chunk_size: {SimOptions().chunk_size}\n"
    for tag, sim in (("default", ""), ("explicit", explicit),
                     ("chunked", "  simulation:\n    chunk_size: 16\n")):
        cfg = tmp_path / f"{tag}.yaml"
        cfg.write_text("scenario:\n  library_size: 4\n  cache_size: 2\n" + sim)
        out = tmp_path / f"{tag}.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--method", "monte_carlo", "--trials", "64"]) == 0
        rows[tag] = out.read_text().strip().splitlines()[1].split(",")
    assert rows["chunked"][3] == "monte_carlo" and rows["chunked"][14] == "64"
    assert rows["explicit"] == rows["default"]
    assert rows["chunked"][11] != rows["default"][11]


def test_cli_sweep_writes_all_rows(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL_SWEEP_YAML)
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[6] == "0.5"
    assert lines[2].split(",")[6] == "1"


@pytest.mark.parametrize("key,variable", [("uav_density_per_km2", "density"),
                                          ("coop_radius_km", "x_cop")])
def test_base_placement_is_built_per_row(key, variable):
    # the base's placement is not solved at parse time, so an empty zone at
    # the base is no error when every sweep row sets a nonempty one
    run = parse_config({"scenario": {key: 0},
                        "sweeps": [{"variable": variable, "grid": [1e-3, 3e-3]}]})
    assert run.point.policies == ("rcp",) and run.scenario.policy.kind == "mpc"
    rows = run_sweep(run.sweeps[0])
    assert [(r.policy, r.method) for r in rows] == [("rcp", "analytic")] * 2
    assert all(r.capacity_bits > 0 for r in rows)


def test_cli_validate_predicts_monte_carlo_cost(tmp_path, monkeypatch, capsys):
    # per (grid value, environment) of a sweep with monte_carlo rows, the
    # far field's threshold index, floor bias bound and spikes per trial, as
    # the field the rows would draw holds them, and whether its chunks would
    # be refused; nothing is sampled, and an empty zone has no far field
    monkeypatch.setattr(simulator._FarField, "sample",
                        lambda *args: pytest.fail("validate sampled a far field"))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("""\
sweeps:
  - name: crowd
    variable: density
    grid: [1.0e-3, 3000.0]
    environments: [high_rise]
    methods: [analytic, monte_carlo]
  - name: radius
    variable: x_cop
    grid: [0.0, 1.0]
    methods: [monte_carlo]
""")
    assert cli.main(["validate", "--config", str(cfg)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  monte_carlo")]
    assert len(lines) == 4
    sparse = simulator._FarField(environment_preset("high_rise"), ChannelConfig(),
                                 1e-3 / 64, 1.0)
    assert lines[0].startswith("  monte_carlo high_rise density=0.001: far field "
                               f"k={sparse.k} ")
    assert f"bound {sparse.bias:.2g} nats, {sparse.spikes:.3g} spikes per trial" in lines[0]
    assert lines[0].endswith("within the spike budget")
    assert lines[1].startswith("  monte_carlo high_rise density=3000: far field k=0 ")
    assert "refused:" in lines[1] and lines[1].endswith("lower simulation.chunk_size")
    assert lines[2] == "  monte_carlo sub_urban x_cop=0: empty zone, no far field"
    assert lines[3].endswith("within the spike budget")


def test_cli_validate_predicts_nothing_for_analytic_sweeps(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "_FarField",
                        lambda *args: pytest.fail("an analytic sweep built a far field"))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL_SWEEP_YAML)
    assert cli.main(["validate", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert "sweep radius" in printed and "config ok" in printed
    assert "far field" not in printed


def test_validate_runs_no_lru_trace(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(caching, "lru_simulate", lambda *args: calls.append(args))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenario:\n  policy: lru_empirical\n")
    assert cli.main(["validate", "--config", str(cfg)]) == 0
    assert "policy=lru_empirical" in capsys.readouterr().out
    assert calls == []


def test_cli_validate_rejects_empty_zone_under_rcp(tmp_path, capsys):
    # rcp placement needs a positive zone mean; a zero density or radius is
    # a config error, not a traceback
    for key in ("uav_density_per_km2", "coop_radius_km"):
        cfg = tmp_path / f"{key}.yaml"
        cfg.write_text(f"scenario:\n  policy: rcp\n  {key}: 0\n")
        assert cli.main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "uav_density_per_km2" in err
        assert "coop_radius_km" in err


def test_package_exports_resolve():
    missing = [name for name in uavcache.__all__ if not hasattr(uavcache, name)]
    assert missing == []


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # missing config file
    assert cli.main(["validate", "--config", str(tmp_path / "nope.yaml")]) == 2
    # malformed YAML is a config error naming the file and the line, and
    # bytes that are not UTF-8 one naming the file
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("scenario:\n  library_size: 6\n  cache_size: [2\n  seed: 1\n")
    with pytest.raises(ConfigError, match=r"malformed\.yaml, line 4: not valid YAML"):
        load_config(malformed)
    assert cli.main(["validate", "--config", str(malformed)]) == 2
    assert "malformed.yaml, line 4" in capsys.readouterr().err
    binary = tmp_path / "binary.yaml"
    binary.write_bytes(b"scenario:\n  environment: \xff\n")
    with pytest.raises(ConfigError, match=r"binary\.yaml: not UTF-8 text"):
        load_config(binary)
    # a path that cannot be opened as the config or the output exits 2
    # with the operating system's reason, not a traceback
    not_a_dir = tmp_path / "file.txt"
    not_a_dir.write_text("")
    for argv in (["validate", "--config", str(tmp_path)],
                 ["validate", "--config", str(not_a_dir / "cfg.yaml")],
                 ["run", "--out", str(tmp_path)]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: [Errno"), argv
    # an output that cannot be written fails before any row runs
    sweep_cfg = tmp_path / "sweep.yaml"
    sweep_cfg.write_text(MINIMAL_SWEEP_YAML)
    swept = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_sweep", swept.append)
        for argv in (["run", "--out", str(tmp_path)],
                     ["sweep", "--config", str(sweep_cfg), "--out", str(tmp_path)]):
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("error: [Errno"), argv
    assert not swept
    # config without sweeps cannot drive the sweep subcommand
    empty = tmp_path / "empty.yaml"
    empty.write_text("scenario:\n  library_size: 6\n  cache_size: 2\n")
    assert cli.main(["sweep", "--config", str(empty)]) == 2
    assert "no sweeps" in capsys.readouterr().err
    # a failing row surfaces as exit status 3
    broken = tmp_path / "broken.yaml"
    broken.write_text("""\
scenario:
  cache_size: 5
sweeps:
  - name: mix
    variable: library_size
    grid: [3, 10]
    methods: [analytic]
""")
    out = tmp_path / "broken.csv"
    assert cli.main(["sweep", "--config", str(broken), "--out", str(out)]) == 3
    lines = out.read_text().strip().splitlines()
    assert lines[1].split(",")[3] == "failed"
    assert lines[2].split(",")[3] == "analytic"

    # a config the process may not read exits 2 as well (raised in place of
    # open, which mode bits do not stop for a superuser)
    def unreadable(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "load_config", unreadable)
    assert cli.main(["validate", "--config", str(empty)]) == 2
    assert "Permission denied" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_seed_is_a_config_error(command, tmp_path, capsys):
    # a command-line seed is checked where a config's sweep seed is, before
    # np.random.SeedSequence sees it
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL_SWEEP_YAML)
    with pytest.raises(ConfigError, match="seed"):
        parse_config(yaml.safe_load(MINIMAL_SWEEP_YAML.replace("seed: 4", "seed: -1")))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv"),
                     "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_zero_trials_is_a_config_error_on_every_command(command, tmp_path, capsys):
    # a command-line trial count is checked where a config's is, whatever the
    # methods: `trials: 0` exits 2 on an analytic config, and so does --trials 0
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL_SWEEP_YAML)
    with pytest.raises(ConfigError, match="trials"):
        parse_config(yaml.safe_load(MINIMAL_SWEEP_YAML + "trials: 0\n"))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv"),
                     "--trials", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trials = 0" in err


def test_cli_overrides_reach_rows(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL_SWEEP_YAML)
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--seed", "77"]) == 0
    seeds = [int(line.split(",")[15])
             for line in out.read_text().strip().splitlines()[1:]]
    expected = [int(np.random.SeedSequence((77, i)).generate_state(1)[0])
                for i in range(2)]
    assert seeds == expected


def test_both_methods_agree_on_one_point():
    base = parse_config({}).scenario
    spec = SweepSpec(name="pt", variable="x_cop", grid=(1.0,), base=base,
                     methods=("analytic", "monte_carlo"), trials=1500, seed=3)
    rows = run_sweep(spec)
    analytic, monte = rows
    assert analytic.method == "analytic" and monte.method == "monte_carlo"
    assert monte.n_trials == 1500 and monte.stderr > 0
    assert abs(analytic.capacity_bits - monte.capacity_bits) < 1.96 * monte.stderr
    # the Monte Carlo row's EE is the exact Poisson sum at its own
    # per-content rates
    sc = harness._placed_scenario(spec, spec.settings(1.0), monte.env, monte.policy,
                                  analytic.seed)
    nats = np.array([estimate_capacity(sc, c, 1500, monte.seed, spec.sim_options).mean
                     for c in range(1, sc.library.size + 1)])
    report = CapacityReport(nats, sc.zone_mean_uavs * sc.policy.probabilities,
                            float(sc.library.popularity @ nats))
    assert monte.ee_bits_per_joule == energy_efficiency_exact(sc, report) > 0


def test_monte_carlo_row_survives_chunks_without_spikes():
    # at 1e-6 UAVs per km^2 the far field expects 0.037 spikes per trial, so
    # about three chunks in four of 8 trials draw none and hold the floor alone
    run = parse_config(yaml.safe_load("""\
scenario:
  uav_density_per_km2: 1.0e-6
  simulation:
    chunk_size: 8
sweeps:
  - name: thin
    variable: x_cop
    grid: [1.0]
    methods: [monte_carlo]
    trials: 256
    seed: 1
"""))
    (row,) = run_sweep(run.sweeps[0])
    assert row.method == "monte_carlo"
    assert row.capacity_bits > 0 and row.stderr > 0


def test_monte_carlo_row_of_an_empty_zone_is_zero():
    # with no zone there is no cooperator: every rate is zero, as in the
    # analytic row
    run = parse_config(yaml.safe_load("""\
scenario:
  policy: mpc
sweeps:
  - name: empty
    variable: x_cop
    grid: [0.0]
    methods: [monte_carlo, analytic]
    trials: 256
    seed: 1
"""))
    monte, analytic = run_sweep(run.sweeps[0])
    assert (monte.method, monte.capacity_bits, monte.ee_bits_per_joule,
            monte.stderr, monte.n_trials) == ("monte_carlo", 0.0, 0.0, 0.0, 256)
    assert (analytic.method, analytic.capacity_bits) == ("analytic", 0.0)


def test_monte_carlo_row_fails_on_spike_overload_and_sweep_continues():
    # at 3000 UAVs per km^2 the high_rise far field expects about 7.6e4
    # spikes per trial at its cap tau = g(X); that row fails before
    # sampling and the next one still runs
    spec = SweepSpec(name="crowd", variable="density", grid=(3000.0,),
                     base=parse_config({}).scenario, environments=("high_rise",),
                     methods=("monte_carlo", "analytic"), trials=1024, seed=1)
    failed, ok = run_sweep(spec)
    assert (failed.env, failed.method, failed.capacity_bits) == ("high_rise", "failed", None)
    assert (ok.env, ok.method) == ("high_rise", "analytic")
    assert ok.capacity_bits > 0


def test_analytic_row_fails_on_far_tail_overflow_and_sweep_continues():
    # a 200 dB grazing-angle NLOS spread is refused by the radial table's
    # far tail; that row fails and the next one still runs
    wide = replace(environment_preset("urban"), name="wide", a_nlos=200.0)
    spec = SweepSpec(name="wide", variable="x_cop", grid=(1.0,),
                     base=parse_config({}).scenario, environments=("wide", "sub_urban"),
                     methods=("analytic",), environment_map={"wide": wide})
    failed, ok = run_sweep(spec)
    assert (failed.env, failed.method, failed.capacity_bits) == ("wide", "failed", None)
    assert (ok.env, ok.method) == ("sub_urban", "analytic")
    assert ok.capacity_bits > 0


def test_monte_carlo_stderr_is_that_of_the_system_rate():
    # oracle: std over trials of sum_c a_c X_c,t, the per-trial values each
    # estimate_capacity call averages in the row's one zone pass, on the
    # row's placed scenario (the pass draws every live content of it)
    base = parse_config({}).scenario
    spec = SweepSpec(name="pt", variable="x_cop", grid=(1.0,), base=base,
                     methods=("monte_carlo",), trials=400, seed=9)
    (row,) = run_sweep(spec)
    placed = harness._placed_scenario(spec, spec.settings(1.0), spec.environments[0],
                                      spec.policies[0], row.seed)
    opts = SimOptions()
    system = np.zeros(400)
    for c in range(1, placed.library.size + 1):
        est = estimate_capacity(placed, c, 400, row.seed, opts)
        system += float(placed.library.popularity[c - 1]) * est.samples
    ln2 = math.log(2.0)
    assert row.capacity_bits == pytest.approx(system.mean() / ln2, rel=1e-12)
    assert row.stderr == pytest.approx(
        system.std(ddof=1) / math.sqrt(400) / ln2, rel=1e-12)


def test_monte_carlo_stderr_is_calibrated():
    # the reported stderr must match the spread of the row means over seeds;
    # summing per-content stderrs in quadrature ignores the shared field and
    # reads about 1.9 here
    base = parse_config({}).scenario
    spec = SweepSpec(name="pt", variable="x_cop", grid=(1.0,), base=base,
                     methods=("monte_carlo",), trials=500)
    rows = [run_sweep(replace(spec, seed=s))[0] for s in range(40)]
    means = np.array([r.capacity_bits for r in rows])
    stderrs = np.array([r.stderr for r in rows])
    ratio = means.std(ddof=1) / stderrs.mean()
    assert 0.7 <= ratio <= 1.4, ratio


def test_load_config_matches_parse(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL_SWEEP_YAML)
    run = load_config(cfg)
    assert run.scenario.library.size == 12
    assert run.sweeps[0].name == "radius"
    assert run.sweeps[0].grid == (0.5, 1.0)
    assert run.sweeps[0].seed == 4
