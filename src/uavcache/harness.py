"""Batch configuration, sweeps, and CSV emission.

The config file is YAML with two top-level sections: `scenario` (single
evaluation point; every field optional, defaults below) and `sweeps` (list of
sweep blocks). Unknown keys anywhere are errors, so typos surface instead of
silently falling back to defaults.

Defaults follow the evaluation setup this library targets, in the
sub_urban environment. The scenario's seven scalar keys, their sweep
variables, types and defaults are the one table `_SCALARS`; each nested
block's keys and defaults are its dataclass's fields. The power defaults are
placeholders for relative comparisons, not measurements. Every value's range
is checked by the dataclass that holds it.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from operator import attrgetter
from typing import Iterable

import numpy as np
import yaml
from numpy.random import SeedSequence

from .analytics import (PowerModel, QuadratureConfig, ScenarioConfig,
                        energy_efficiency, system_capacity)
from .caching import (POLICY_KINDS, ContentLibrary, PlacementPolicy, lru_che,
                      lru_empirical_policy, mpc_policy, solve_rcp)
from .channel import ChannelConfig, Environment, environment_preset
from .errors import ConfigError, UavCacheError
from .simulator import (_PURPOSE_LRU, SimEstimate, SimOptions, _chunk_rng,
                        estimate_capacity, estimate_ee)

# The scenario's scalar keys in SweepRow's column order, density to kappa:
# key -> (sweep variable or None, type, ScenarioConfig attribute, default).
_SCALARS = {
    "uav_density_per_km2": ("density", "float", "uav_density", ScenarioConfig.uav_density),
    "altitude_km": ("altitude", "float", "channel.altitude_km", ChannelConfig.altitude_km),
    "coop_radius_km": ("x_cop", "float", "coop_radius_km", ScenarioConfig.coop_radius_km),
    "subchannels": (None, "int", "subchannels", ScenarioConfig.subchannels),
    "library_size": ("library_size", "int", "library.size", 20),
    "cache_size": (None, "int", "policy.cache_size", 5),
    "zipf_exponent": ("kappa", "float", "library.zipf_exponent", 0.8),
}
# scenario key set by each sweep variable
_SWEPT = {variable: key for key, (variable, *_) in _SCALARS.items() if variable}
SWEEP_VARIABLES = tuple(_SWEPT)
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
        if self.seed < 0:
            raise ConfigError(f"sweep {self.name!r}: seed = {self.seed} out of range "
                              "(must be >= 0)")
        for key in self.overrides:
            if key not in SWEEP_VARIABLES:
                raise ConfigError(f"sweep {self.name!r}: unknown override {key!r}")
        base = self.base
        for value in self.grid:
            try:
                # a library smaller than the cache fails its rows, not the
                # config, so the values are checked under a one-file cache
                _scenario({**self.settings(value), "cache_size": 1}, base.env,
                          base.channel, base.power, base.quadrature)
            except ConfigError as exc:
                raise ConfigError(f"sweep {self.name!r}: {exc}") from None

    def settings(self, value: float) -> dict:
        """Scalar settings of the rows at grid `value`, keyed and ordered as
        `_SCALARS`: the base's, under the overrides, under `value`."""
        settings = _settings(self.base)
        for variable, val in (*self.overrides.items(), (self.variable, value)):
            key = _SWEPT[variable]
            val = _read(val, "float", variable)
            if _SCALARS[key][1] == "int":
                if val != int(val):
                    raise ConfigError(f"{variable} must be an integer")
                val = int(val)
            settings[key] = val
        return settings


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


def _read(value, kind: str, where: str):
    """`value` checked against a field annotation: "str", "int" or "float";
    an int is read as a float where a float is expected."""
    if kind == "str":
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{where} must be a nonempty string")
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a finite number")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number")
    return value


def _get_int(node: dict, key: str, default: int, where: str, lo: int = 0) -> int:
    val = _read(node.get(key, default), "int", f"{where}.{key}")
    if val < lo:
        raise ConfigError(f"{where}.{key} = {val} out of range (must be >= {lo})")
    return val


def _block_fields(cls, omit: Iterable[str] = ()) -> list[Field]:
    """The fields of dataclass `cls` not in `omit`; each is a config key of
    its block under its own name."""
    return [f for f in fields(cls) if f.name not in omit]


def _parse_block(node, cls, where: str, **given):
    """Dataclass `cls` from config block `node` and the fields `given`.

    Every other field is a key, read as its annotation's type; an absent key
    takes the field's default and is an error for a field without one. The
    dataclass itself checks the values' ranges.
    """
    node = _require_mapping(node, where)
    block = _block_fields(cls, given)
    _check_keys(node, [f.name for f in block], where)
    missing = [f.name for f in block if f.name not in node and f.default is MISSING]
    if missing:
        raise ConfigError(f"{where} missing key(s): {', '.join(missing)}")
    return cls(**given, **{f.name: _read(node[f.name], f.type, f"{where}.{f.name}")
                           for f in block if f.name in node})


def _fields(obj, *omit: str) -> dict:
    """Config block of dataclass `obj` less the fields `omit`: `_parse_block`'s inverse."""
    return {f.name: getattr(obj, f.name) for f in _block_fields(type(obj), omit)}


# SweepSpec fields that a sweep inherits from the scenario instead of a key
_FROM_SCENARIO = ("base", "sim_options", "environment_map")
_SWEEP_KEYS = tuple(f.name for f in _block_fields(SweepSpec, _FROM_SCENARIO))
_SCENARIO_KEYS = ("environment", "custom_environment", *_SCALARS, "policy",
                  "channel", "power", "quadrature", "simulation")
_TOP_KEYS = ("scenario", "sweeps", "seed", "trials")


def _resolve_environment(name: str, custom: dict[str, Environment]) -> Environment:
    if name in custom:
        return custom[name]
    return environment_preset(name)


def _settings(scenario: ScenarioConfig) -> dict:
    """The scalar settings `_scenario` builds `scenario` from."""
    return {key: attrgetter(attr)(scenario) for key, (_, _, attr, _) in _SCALARS.items()}


def _scenario(s: dict, env: Environment, channel: ChannelConfig, power: PowerModel,
              quadrature: QuadratureConfig) -> ScenarioConfig:
    """The scenario of scalar settings `s` in the given blocks, with an MPC
    placeholder placement. The dataclasses check each value's range; the
    cache budget is the one check across two settings."""
    library = ContentLibrary(size=s["library_size"], zipf_exponent=s["zipf_exponent"])
    if not 1 <= s["cache_size"] <= library.size:
        raise ConfigError(f"cache_size = {s['cache_size']} out of range "
                          f"(must lie in [1, library_size = {library.size}])")
    return ScenarioConfig(
        library=library, policy=mpc_policy(library.popularity, s["cache_size"]),
        env=env, channel=replace(channel, altitude_km=s["altitude_km"]), power=power,
        quadrature=quadrature, uav_density=s["uav_density_per_km2"],
        coop_radius_km=s["coop_radius_km"], subchannels=s["subchannels"])


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
    """Parse and validate a YAML config; an empty file yields full defaults.
    A file that is not UTF-8 text or not valid YAML raises ConfigError
    naming it (and, for YAML, the line)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f", line {mark.line + 1}" if mark is not None else ""
            problem = getattr(exc, "problem", None) or exc
            raise ConfigError(f"{path}{where}: not valid YAML: {problem}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text") from exc
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
        custom_env = _parse_block(sc["custom_environment"], Environment,
                                  "scenario.custom_environment")
        custom[custom_env.name] = custom_env

    env_name = sc.get("environment", "sub_urban")
    if not isinstance(env_name, str):
        raise ConfigError("scenario.environment must be a string")
    try:
        env = _resolve_environment(env_name, custom)
    except ConfigError:
        raise ConfigError(f"scenario.environment: unknown environment {env_name!r}")

    settings = {key: _read(sc.get(key, default), kind, f"scenario.{key}")
                for key, (_, kind, _, default) in _SCALARS.items()}
    channel = _parse_block(sc.get("channel"), ChannelConfig, "scenario.channel",
                           altitude_km=settings["altitude_km"])
    power = _parse_block(sc.get("power"), PowerModel, "scenario.power")
    quadrature = _parse_block(sc.get("quadrature"), QuadratureConfig,
                              "scenario.quadrature")

    policy_kind = sc.get("policy", "rcp")
    if policy_kind not in POLICY_KINDS:
        raise ConfigError(f"scenario.policy: unknown policy {policy_kind!r}")

    sim_options = _parse_block(sc.get("simulation"), SimOptions, "scenario.simulation")

    # placement is built per row; the base carries an MPC placeholder
    scenario = _scenario(settings, env, channel, power, quadrature)

    sweeps = []
    sweep_nodes = raw.get("sweeps") or []
    if not isinstance(sweep_nodes, list):
        raise ConfigError("sweeps must be a list")
    for i, node in enumerate(sweep_nodes):
        where = f"sweeps[{i}]"
        node = _require_mapping(node, where)
        _check_keys(node, _SWEEP_KEYS, where)
        grid = node.get("grid")
        if not isinstance(grid, list) or not grid:
            raise ConfigError(f"{where}.grid must be a nonempty list")
        variable = node.get("variable")
        if not isinstance(variable, str):
            raise ConfigError(f"{where}.variable is required")
        methods = node.get("methods", ["analytic"])
        lists = {"environments": node.get("environments", [env_name]),
                 "policies": node.get("policies", [policy_kind]),
                 # "both", bare or listed, runs every method
                 "methods": list(METHODS) if methods in ("both", ["both"]) else methods}
        for key, val in lists.items():
            if not isinstance(val, list) or not val:
                raise ConfigError(f"{where}.{key} must be a nonempty list")
        overrides = _require_mapping(node.get("overrides"), f"{where}.overrides")
        sweeps.append(SweepSpec(
            name=str(node.get("name", f"sweep{i}")), variable=variable,
            grid=tuple(_read(g, "float", f"{where}.grid[{j}]")
                       for j, g in enumerate(grid)),
            base=scenario, **{k: tuple(v) for k, v in lists.items()},
            trials=_get_int(node, "trials", trials, where, lo=1),
            seed=_read(node.get("seed", seed), "int", f"{where}.seed"),
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


def dump_config(run: RunConfig) -> dict:
    """Config dict that parse_config maps back to the same scenario and sweeps."""
    sc = run.scenario
    out = {
        "seed": run.seed,
        "trials": run.trials,
        "scenario": {
            "environment": sc.env.name,
            **_settings(sc),
            "policy": run.policy,
            "channel": _fields(sc.channel, "altitude_km"),
            "power": _fields(sc.power),
            "quadrature": _fields(sc.quadrature),
            "simulation": _fields(run.sim_options),
        },
    }
    # the one custom environment may serve sweeps without being the scenario's
    for env in run.custom_environments.values():
        out["scenario"]["custom_environment"] = _fields(env)
    if run.sweeps:
        out["sweeps"] = [{k: list(v) if isinstance(v, tuple) else v
                          for k, v in _fields(spec, *_FROM_SCENARIO).items()}
                         for spec in run.sweeps]
    return out


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
    per_content = np.zeros(scenario.library.size)
    system = np.zeros(trials)
    for c in range(1, scenario.library.size + 1):
        est = estimate_capacity(scenario, c, trials, seed, opts)
        per_content[c - 1] = est.mean
        system += float(scenario.library.popularity[c - 1]) * est.samples
    row = SimEstimate.of(system)
    ln2 = math.log(2.0)
    ee_est = estimate_ee(scenario, per_content / ln2, trials, seed, opts)
    return row.mean / ln2, ee_est.mean, row.stderr / ln2, trials


def _placed_scenario(spec: SweepSpec, settings: dict, env_name: str,
                     policy_kind: str, seed: int) -> ScenarioConfig:
    """The scenario of `settings` in the sweep's base blocks and environment
    `env_name`, with the `policy_kind` placement built from `seed`."""
    base = spec.base
    scenario = _scenario(settings, _resolve_environment(env_name, spec.environment_map),
                         base.channel, base.power, base.quadrature)
    return scenario.with_policy(_build_policy(policy_kind, scenario.library,
                                              scenario, seed))


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every (grid value, environment, policy, method) combination.

    Row order is the iteration order: grid outermost, then environment,
    policy, method. Each (grid value, environment, policy) builds its
    scenario and placement once, from the seed of its first row, and
    evaluates every method on them. Every row's scenario columns are the
    settings its scenario is built from. Rows that raise numeric or
    configuration errors are recorded with method="failed" and empty
    metrics; the sweep continues.
    """
    rows: list[SweepRow] = []
    for value, env_name, policy_kind in itertools.product(
            spec.grid, spec.environments, spec.policies):
        # row i's seed derives from (sweep seed, i); rows are appended in order
        seeds = [int(SeedSequence((spec.seed, i)).generate_state(1)[0])
                 for i in range(len(rows), len(rows) + len(spec.methods))]
        settings = spec.settings(value)
        scenario = None
        for method, seed in zip(spec.methods, seeds):
            scenario_id = f"{spec.name}-{len(rows):03d}"
            try:
                if scenario is None:
                    scenario = _placed_scenario(spec, settings, env_name,
                                                policy_kind, seeds[0])
                metrics = _evaluate_row(scenario, method, spec.trials, seed,
                                        spec.sim_options)
            except (UavCacheError, ValueError, RuntimeError, FloatingPointError):
                method, metrics = "failed", (None, None, None, 0)
            rows.append(SweepRow(scenario_id, env_name, policy_kind, method,
                                 *settings.values(), *metrics, seed))
    return rows


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write rows in order under the fixed header; reruns are byte-identical.
    A name holding a comma or quote is quoted, so every row keeps 16 cells."""
    if not rows:
        raise ValueError("refusing to write an empty result table")
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([
        r.scenario_id, r.env, r.policy, r.method,
        f"{r.density:.12g}", f"{r.altitude_km:.12g}",
        f"{r.coop_radius_km:.12g}", str(r.subchannels),
        str(r.library_size), str(r.cache_size), f"{r.kappa:.12g}",
        _fmt(r.capacity_bits), _fmt(r.ee_bits_per_joule), _fmt(r.stderr),
        str(r.n_trials), str(r.seed)] for r in rows)
    data = buf.getvalue()
    if hasattr(path, "write"):
        path.write(data)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
