"""Batch configuration, sweeps, and CSV emission.

The config file is YAML with two top-level sections: `scenario` (single
evaluation point; every field optional, defaults below) and `sweeps` (list of
sweep blocks). Unknown keys anywhere are errors, so typos surface instead of
silently falling back to defaults.

Defaults follow the evaluation setup this library targets: sub_urban
environment, density 1e-3 per km^2, altitude 1 km, cooperation radius 1 km,
64 sub-channels, library of 20 contents with Zipf exponent 0.8, cache size 5.
Power figures (1 W transmit, 0.1 W per cached file, 1 W static, slope 1) are
placeholders for relative comparisons, not measurements.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np
import yaml

from .analytics import (PowerModel, QuadratureConfig, ScenarioConfig,
                        energy_efficiency, system_capacity)
from .caching import (POLICY_KINDS, ContentLibrary, PlacementPolicy, lru_che,
                      lru_empirical_policy, mpc_policy, solve_rcp)
from .channel import ChannelConfig, Environment, environment_preset
from .errors import ConfigError, UavCacheError
from .simulator import (_PURPOSE_LRU, SimEstimate, SimOptions, _chunk_rng,
                        draw_interference_field, estimate_capacity, estimate_ee)

SWEEP_VARIABLES = ("x_cop", "kappa", "library_size", "altitude", "density")
METHODS = ("analytic", "monte_carlo")

_LRU_REQUESTS = 400_000
_LRU_WARMUP = 100_000

CSV_HEADER = ("scenario_id,env,policy,method,lambda_per_km2,H_km,X_cop_km,"
              "B,F,S,kappa,capacity_bits,ee_bits_per_joule,stderr,n_trials,seed")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a variable swept over a grid, crossed with environments,
    placement policies, and evaluation methods on top of a base scenario."""

    name: str
    variable: str
    grid: tuple[float, ...]
    base: ScenarioConfig
    environments: tuple[str, ...] = ("sub_urban",)
    policies: tuple[str, ...] = ("rcp",)
    methods: tuple[str, ...] = ("analytic",)
    trials: int = 10_000
    seed: int = 0
    overrides: dict = field(default_factory=dict)
    sim_options: SimOptions = SimOptions()
    environment_map: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"unknown sweep variable {self.variable!r}; "
                              f"expected one of {SWEEP_VARIABLES}")
        if len(self.grid) == 0:
            raise ConfigError(f"sweep {self.name!r}: grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError(f"sweep {self.name!r}: grid must be strictly increasing")
        for e in self.environments:
            if not isinstance(e, str):
                raise ConfigError(f"sweep {self.name!r}: environment names must be strings")
            _resolve_environment(e, self.environment_map)
        for p in self.policies:
            if p not in POLICY_KINDS:
                raise ConfigError(f"sweep {self.name!r}: unknown policy {p!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"sweep {self.name!r}: unknown method {m!r}")
        if "monte_carlo" in self.methods and self.trials < 1:
            raise ConfigError(f"sweep {self.name!r}: monte_carlo requires trials >= 1")
        for key, val in self.overrides.items():
            if key not in SWEEP_VARIABLES:
                raise ConfigError(f"sweep {self.name!r}: unknown override {key!r}")
            _check_variable_value(key, val, f"sweep {self.name!r} override")
        for g in self.grid:
            _check_variable_value(self.variable, g, f"sweep {self.name!r} grid")


@dataclass(frozen=True, eq=False)
class SweepRow:
    """One result row; metric fields are None when the row failed."""

    scenario_id: str
    env: str
    policy: str
    method: str
    density: float
    altitude_km: float
    coop_radius_km: float
    subchannels: int
    library_size: int
    cache_size: int
    kappa: float
    capacity_bits: float | None
    ee_bits_per_joule: float | None
    stderr: float | None
    n_trials: int
    seed: int


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Parsed configuration: the base scenario plus any sweep blocks.

    Placement is built per row, so the base scenario carries an MPC
    placeholder; `policy` is the configured placement kind, which `run`
    evaluates and sweeps without their own `policies` use.
    """

    scenario: ScenarioConfig
    sweeps: tuple[SweepSpec, ...]
    seed: int
    trials: int
    policy: str
    custom_environments: dict[str, Environment] = field(default_factory=dict)
    sim_options: SimOptions = SimOptions()


def _check_variable_value(variable: str, value, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: {variable} values must be numbers")
    if variable == "kappa" and not 0.0 <= value <= 2.0:
        raise ConfigError(f"{where}: kappa = {value} outside the admissible range [0, 2]")
    if variable == "library_size" and (value != int(value) or value < 1):
        raise ConfigError(f"{where}: library_size values must be positive integers")
    if variable == "altitude" and value <= 0:
        raise ConfigError(f"{where}: altitude values must be positive")
    if variable in ("x_cop", "density") and value < 0:
        raise ConfigError(f"{where}: {variable} values must be >= 0")


def _require_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping")
    return node


def _check_keys(node: dict, allowed: Iterable[str], where: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(str, unknown))}")


def _get_number(node: dict, key: str, default: float, where: str,
                lo: float | None = None, hi: float | None = None) -> float:
    val = node.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    val = float(val)
    if lo is not None and val < lo:
        raise ConfigError(f"{where}.{key} = {val} out of range (must be >= {lo})")
    if hi is not None and val > hi:
        raise ConfigError(f"{where}.{key} = {val} out of range (must be <= {hi})")
    return val


def _get_int(node: dict, key: str, default: int, where: str, lo: int = 0) -> int:
    val = node.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    if val < lo:
        raise ConfigError(f"{where}.{key} = {val} out of range (must be >= {lo})")
    return val


_ENV_KEYS = ("name", "phi", "psi", "mu_los", "mu_nlos",
             "a_los", "a_nlos", "c_los", "c_nlos")


def _parse_environment(node: dict, where: str) -> Environment:
    _check_keys(node, _ENV_KEYS, where)
    missing = [k for k in _ENV_KEYS if k not in node]
    if missing:
        raise ConfigError(f"{where} missing key(s): {', '.join(missing)}")
    name = node["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{where}.name must be a nonempty string")
    fields = {k: _get_number(node, k, math.nan, where) for k in _ENV_KEYS[1:]}
    return Environment(name=name, **fields)


_CHANNEL_KEYS = ("alpha_los", "alpha_nlos", "k_los", "k_nlos",
                 "nakagami_los", "nakagami_nlos")
_POWER_KEYS = ("transmit_w", "cache_per_file_w", "static_w", "rate_power_slope")
_QUAD_KEYS = ("hermite_nodes", "rel_tol", "v_max")
_SIM_KEYS = ("r_max_km", "spike_rel", "chunk_size", "n_jobs")
_SCENARIO_KEYS = ("environment", "custom_environment", "uav_density_per_km2",
                  "altitude_km", "coop_radius_km", "subchannels",
                  "library_size", "zipf_exponent", "cache_size", "policy",
                  "channel", "power", "quadrature", "simulation")
_SWEEP_KEYS = ("name", "variable", "grid", "environments", "policies",
               "methods", "trials", "seed", "overrides")
_TOP_KEYS = ("scenario", "sweeps", "seed", "trials")


def _parse_channel(node: dict, altitude: float, where: str) -> ChannelConfig:
    _check_keys(node, _CHANNEL_KEYS, where)
    return ChannelConfig(
        alpha_los=_get_number(node, "alpha_los", 2.09, where),
        alpha_nlos=_get_number(node, "alpha_nlos", 4.0, where),
        k_los=_get_number(node, "k_los", 1.0, where),
        k_nlos=_get_number(node, "k_nlos", 1.0, where),
        nakagami_los=_get_number(node, "nakagami_los", 10.0, where),
        nakagami_nlos=_get_number(node, "nakagami_nlos", 2.0, where),
        altitude_km=altitude)


def _parse_sim_options(node: dict, where: str) -> SimOptions:
    _check_keys(node, _SIM_KEYS, where)
    r_max = node.get("r_max_km")
    if r_max is not None:
        r_max = _get_number(node, "r_max_km", 0.0, where)
    return SimOptions(
        r_max=r_max,
        spike_rel=_get_number(node, "spike_rel", 1e-6, where),
        chunk_size=_get_int(node, "chunk_size", 256, where, lo=1),
        n_jobs=_get_int(node, "n_jobs", 1, where, lo=1))


def _resolve_environment(name: str, custom: dict[str, Environment]) -> Environment:
    if name in custom:
        return custom[name]
    return environment_preset(name)


def _rcp_zone_mean(scenario: ScenarioConfig) -> float:
    """The mean zone UAV count rcp placement is solved at; ConfigError when
    the zone is empty."""
    beta = scenario.zone_mean_uavs
    if not beta > 0:
        raise ConfigError(
            "rcp placement needs UAVs in the cooperation zone; got "
            f"uav_density_per_km2 = {scenario.uav_density:g} and "
            f"coop_radius_km = {scenario.coop_radius_km:g}")
    return beta


def _build_policy(kind: str, library: ContentLibrary, scenario: ScenarioConfig,
                  seed: int) -> PlacementPolicy:
    s = scenario.policy.cache_size
    if kind == "rcp":
        return solve_rcp(library.popularity, s, _rcp_zone_mean(scenario))
    if kind == "mpc":
        return mpc_policy(library.popularity, s)
    if kind == "lru_che":
        return lru_che(library.popularity, s)
    if kind == "lru_empirical":
        return lru_empirical_policy(library.popularity, s, _LRU_REQUESTS,
                                    _LRU_WARMUP, _chunk_rng(seed, _PURPOSE_LRU, 0, 0))
    raise ConfigError(f"unknown policy kind {kind!r}")


def load_config(path) -> RunConfig:
    """Parse and validate a YAML config; an empty file yields full defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    return parse_config(raw if raw is not None else {})


def parse_config(raw: dict) -> RunConfig:
    raw = _require_mapping(raw, "config")
    _check_keys(raw, _TOP_KEYS, "config")
    seed = _get_int(raw, "seed", 0, "config")
    trials = _get_int(raw, "trials", 10_000, "config", lo=1)

    sc = _require_mapping(raw.get("scenario"), "scenario")
    _check_keys(sc, _SCENARIO_KEYS, "scenario")

    custom: dict[str, Environment] = {}
    if "custom_environment" in sc:
        env_node = _require_mapping(sc["custom_environment"], "scenario.custom_environment")
        custom_env = _parse_environment(env_node, "scenario.custom_environment")
        custom[custom_env.name] = custom_env

    env_name = sc.get("environment", "sub_urban")
    if not isinstance(env_name, str):
        raise ConfigError("scenario.environment must be a string")
    try:
        env = _resolve_environment(env_name, custom)
    except ConfigError:
        raise ConfigError(f"scenario.environment: unknown environment {env_name!r}")

    altitude = _get_number(sc, "altitude_km", 1.0, "scenario")
    channel = _parse_channel(_require_mapping(sc.get("channel"), "scenario.channel"),
                             altitude, "scenario.channel")

    power_node = _require_mapping(sc.get("power"), "scenario.power")
    _check_keys(power_node, _POWER_KEYS, "scenario.power")
    power = PowerModel(
        transmit_w=_get_number(power_node, "transmit_w", 1.0, "scenario.power", lo=0.0),
        cache_per_file_w=_get_number(power_node, "cache_per_file_w", 0.1,
                                     "scenario.power", lo=0.0),
        static_w=_get_number(power_node, "static_w", 1.0, "scenario.power", lo=0.0),
        rate_power_slope=_get_number(power_node, "rate_power_slope", 1.0,
                                     "scenario.power", lo=0.0))

    quad_node = _require_mapping(sc.get("quadrature"), "scenario.quadrature")
    _check_keys(quad_node, _QUAD_KEYS, "scenario.quadrature")
    quadrature = QuadratureConfig(
        hermite_nodes=_get_int(quad_node, "hermite_nodes", 32, "scenario.quadrature", lo=2),
        rel_tol=_get_number(quad_node, "rel_tol", 1e-6, "scenario.quadrature"),
        v_max=_get_number(quad_node, "v_max", 1e7, "scenario.quadrature"))

    size = _get_int(sc, "library_size", 20, "scenario", lo=1)
    kappa = _get_number(sc, "zipf_exponent", 0.8, "scenario", lo=0.0, hi=2.0)
    cache_size = _get_int(sc, "cache_size", 5, "scenario", lo=1)
    if cache_size > size:
        raise ConfigError("scenario.cache_size cannot exceed scenario.library_size")
    library = ContentLibrary(size=size, zipf_exponent=kappa)

    density = _get_number(sc, "uav_density_per_km2", 1e-3, "scenario", lo=0.0)
    coop_radius = _get_number(sc, "coop_radius_km", 1.0, "scenario", lo=0.0)
    subchannels = _get_int(sc, "subchannels", 64, "scenario", lo=1)

    policy_kind = sc.get("policy", "rcp")
    if policy_kind not in POLICY_KINDS:
        raise ConfigError(f"scenario.policy: unknown policy {policy_kind!r}")

    sim_options = _parse_sim_options(_require_mapping(sc.get("simulation"),
                                                      "scenario.simulation"),
                                     "scenario.simulation")

    # placement is built per row; the base carries an MPC placeholder
    scenario = ScenarioConfig(
        library=library, policy=mpc_policy(library.popularity, cache_size),
        env=env, channel=channel, power=power, quadrature=quadrature,
        uav_density=density, coop_radius_km=coop_radius, subchannels=subchannels)

    sweeps = []
    sweep_nodes = raw.get("sweeps") or []
    if not isinstance(sweep_nodes, list):
        raise ConfigError("sweeps must be a list")
    for i, node in enumerate(sweep_nodes):
        node = _require_mapping(node, f"sweeps[{i}]")
        _check_keys(node, _SWEEP_KEYS, f"sweeps[{i}]")
        name = node.get("name", f"sweep{i}")
        grid = node.get("grid")
        if not isinstance(grid, list) or not grid:
            raise ConfigError(f"sweeps[{i}].grid must be a nonempty list")
        variable = node.get("variable")
        if not isinstance(variable, str):
            raise ConfigError(f"sweeps[{i}].variable is required")
        envs = node.get("environments", [env_name])
        pols = node.get("policies", [policy_kind])
        methods = node.get("methods", ["analytic"])
        if methods == ["both"] or methods == "both":
            methods = list(METHODS)
        overrides = _require_mapping(node.get("overrides"), f"sweeps[{i}].overrides")
        sweeps.append(SweepSpec(
            name=str(name), variable=variable,
            grid=tuple(float(g) for g in grid), base=scenario,
            environments=tuple(envs), policies=tuple(pols),
            methods=tuple(methods),
            trials=_get_int(node, "trials", trials, f"sweeps[{i}]", lo=1),
            seed=_get_int(node, "seed", seed, f"sweeps[{i}]"),
            overrides=dict(overrides), sim_options=sim_options,
            environment_map=dict(custom)))

    if not sweeps and policy_kind == "rcp":
        # without sweeps the base is the config's one evaluation point, so a
        # placement it cannot have is a config error; a sweep row without
        # one is recorded as failed
        _rcp_zone_mean(scenario)

    return RunConfig(scenario=scenario, sweeps=tuple(sweeps), seed=seed,
                     trials=trials, policy=policy_kind,
                     custom_environments=custom, sim_options=sim_options)


def _fields(obj, keys: Iterable[str], renamed: dict[str, str] | None = None) -> dict:
    """Config block whose keys are the parser's key table; a key names the
    attribute it is read into unless `renamed` maps it elsewhere."""
    renamed = renamed or {}
    return {k: getattr(obj, renamed.get(k, k)) for k in keys}


def dump_config(run: RunConfig) -> dict:
    """Config dict that parse_config maps back to the same scenario and sweeps."""
    sc = run.scenario
    out = {
        "seed": run.seed,
        "trials": run.trials,
        "scenario": {
            "environment": sc.env.name,
            "uav_density_per_km2": sc.uav_density,
            "altitude_km": sc.channel.altitude_km,
            "coop_radius_km": sc.coop_radius_km,
            "subchannels": sc.subchannels,
            "library_size": sc.library.size,
            "zipf_exponent": sc.library.zipf_exponent,
            "cache_size": sc.policy.cache_size,
            "policy": run.policy,
            "channel": _fields(sc.channel, _CHANNEL_KEYS),
            "power": _fields(sc.power, _POWER_KEYS),
            "quadrature": _fields(sc.quadrature, _QUAD_KEYS),
            "simulation": _fields(run.sim_options, _SIM_KEYS, {"r_max_km": "r_max"}),
        },
    }
    # the one custom environment may serve sweeps without being the scenario's
    for env in run.custom_environments.values():
        out["scenario"]["custom_environment"] = _fields(env, _ENV_KEYS)
    if run.sweeps:
        out["sweeps"] = [{k: list(v) if isinstance(v, tuple) else v
                          for k, v in _fields(spec, _SWEEP_KEYS).items()}
                         for spec in run.sweeps]
    return out


def _apply_variable(scenario: ScenarioConfig, variable: str,
                    value: float) -> ScenarioConfig:
    if variable == "x_cop":
        return replace(scenario, coop_radius_km=float(value))
    if variable == "altitude":
        return replace(scenario, channel=scenario.channel.with_altitude(float(value)))
    if variable == "density":
        return replace(scenario, uav_density=float(value))
    if variable == "kappa":
        lib = ContentLibrary(size=scenario.library.size, zipf_exponent=float(value))
        return replace(scenario, library=lib,
                       policy=mpc_policy(lib.popularity, scenario.policy.cache_size))
    if variable == "library_size":
        size = int(value)
        if size != value or size < 1:
            raise ConfigError("library_size values must be positive integers")
        if size < scenario.policy.cache_size:
            raise ConfigError("library_size cannot drop below the cache size")
        lib = ContentLibrary(size=size, zipf_exponent=scenario.library.zipf_exponent)
        return replace(scenario, library=lib,
                       policy=mpc_policy(lib.popularity, scenario.policy.cache_size))
    raise ConfigError(f"unknown sweep variable {variable!r}")


def _evaluate_row(scenario: ScenarioConfig, method: str, trials: int,
                  seed: int, opts: SimOptions) -> tuple[float, float, float | None, int]:
    """(capacity_bits, ee_bits_per_joule, stderr, n_trials) for one row.

    A Monte Carlo row shares one interference field across its contents, so
    the per-content estimates are correlated: the row's stderr is that of the
    per-trial weighted system rate sum_c a_c X_c,t, not a sum in quadrature.
    """
    if method == "analytic":
        report = system_capacity(scenario)
        ee = energy_efficiency(scenario, report)
        return report.system_rate_bits, ee, None, 0
    field = draw_interference_field(scenario, trials, seed, opts)
    per_content = np.zeros(scenario.library.size)
    system = np.zeros(trials)
    for c in range(1, scenario.library.size + 1):
        est = estimate_capacity(scenario, c, trials, seed, opts, field=field)
        per_content[c - 1] = est.mean
        system += float(scenario.library.popularity[c - 1]) * est.samples
    row = SimEstimate.of(system)
    ln2 = math.log(2.0)
    ee_est = estimate_ee(scenario, per_content / ln2, trials, seed, opts)
    return row.mean / ln2, ee_est.mean, row.stderr / ln2, trials


# SweepRow field written by each sweep variable
_VARIABLE_COLUMN = {"x_cop": "coop_radius_km", "altitude": "altitude_km",
                    "density": "density", "kappa": "kappa",
                    "library_size": "library_size"}


def _scenario_columns(scenario: ScenarioConfig) -> tuple:
    """SweepRow's scenario fields, density through kappa, in field order."""
    return (scenario.uav_density, scenario.channel.altitude_km,
            scenario.coop_radius_km, scenario.subchannels,
            scenario.library.size, scenario.policy.cache_size,
            scenario.library.zipf_exponent)


def _swept_columns(spec: SweepSpec, value: float) -> dict:
    """Row fields set by the sweep's overrides and grid value, known even when
    building the scenario from them raised."""
    settings = {**spec.overrides, spec.variable: value}
    return {_VARIABLE_COLUMN[k]: int(v) if k == "library_size" else float(v)
            for k, v in settings.items()}


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every (grid value, environment, policy, method) combination.

    Row order is the iteration order: grid outermost, then environment,
    policy, method. Rows that raise numeric or configuration errors are
    recorded with method="failed" and empty metrics, under the scenario
    columns the overrides and grid value asked for; the sweep continues.
    """
    rows: list[SweepRow] = []
    row_idx = 0
    for value in spec.grid:
        for env_name in spec.environments:
            for policy_kind in spec.policies:
                for method in spec.methods:
                    seed = int(np.random.SeedSequence(
                        (spec.seed, row_idx)).generate_state(1)[0])
                    scenario_id = f"{spec.name}-{row_idx:03d}"
                    try:
                        scenario = spec.base
                        for key, val in spec.overrides.items():
                            scenario = _apply_variable(scenario, key, val)
                        scenario = _apply_variable(scenario, spec.variable, value)
                        env = _resolve_environment(env_name, spec.environment_map)
                        scenario = replace(scenario, env=env)
                        policy = _build_policy(policy_kind, scenario.library,
                                               scenario, seed)
                        scenario = scenario.with_policy(policy)
                        cap, ee, stderr, n_used = _evaluate_row(
                            scenario, method, spec.trials, seed, spec.sim_options)
                        rows.append(SweepRow(
                            scenario_id, env_name, policy_kind, method,
                            *_scenario_columns(scenario),
                            cap, ee, stderr, n_used, seed))
                    except (UavCacheError, ValueError, RuntimeError,
                            FloatingPointError):
                        failed = SweepRow(
                            scenario_id, env_name, policy_kind, "failed",
                            *_scenario_columns(spec.base),
                            None, None, None, 0, seed)
                        rows.append(replace(failed, **_swept_columns(spec, value)))
                    row_idx += 1
    return rows


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write rows in order under the fixed header; reruns are byte-identical."""
    if not rows:
        raise ValueError("refusing to write an empty result table")
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in rows:
        buf.write(",".join([
            r.scenario_id, r.env, r.policy, r.method,
            f"{r.density:.12g}", f"{r.altitude_km:.12g}",
            f"{r.coop_radius_km:.12g}", str(r.subchannels),
            str(r.library_size), str(r.cache_size), f"{r.kappa:.12g}",
            _fmt(r.capacity_bits), _fmt(r.ee_bits_per_joule), _fmt(r.stderr),
            str(r.n_trials), str(r.seed)]) + "\n")
    data = buf.getvalue()
    if hasattr(path, "write"):
        path.write(data)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
