#!/usr/bin/env python3
"""Time analytic table builds and split the Laplace kernel's cost by branch,
with a fingerprint of the tables each build produced.

The script empties the table caches once, then builds the tables of each
geometry in the order given, as a sweep over them would: a geometry's read
of the radial table at its cooperation radius (the two partial panels
around X) is always made. The radial table itself (prefix and suffix sums on
every panel edge, independent of the cooperation radius and held at unit
altitude and intercept, in groups of ln u panels) is read at
u = v k_n H^-alpha_n; a group is built unless an earlier geometry with the
same environment and channel left it in the cache, whatever its altitude.
Every `_shadow_expectation` call made during a build is recorded and then
replayed once per kernel branch with only that branch's cells live (the
other cells set to 0, which the kernel answers without work), and once
with every cell 0 (`base_s`: masks and gates). Each replay is the fastest
of REPEATS runs. A branch's seconds are its replay time minus `base_s`, so
the branch times plus `base_s` approximate `kernel_s`; a branch too cheap to
separate from timing noise can read slightly below 0. Within the windowed
replays, the time spent in the branch's two normal-tail terms
(`channel.ndtr` and `channel.log_ndtr`) is timed on its own. The radial
table's far tail is more panels in each group's one `kernel_table` call, so
its cells fall in the branch split with the rest.

One JSON line per geometry:
  env, x_cop_km, altitude_km, hermite_nodes,
  build_s        table build, rate assembly and window guard
                 (`analytics.system_capacity`),
  groups_built   radial table groups this geometry built,
  groups_reused  radial table groups it read that were already cached (each
                 distinct group once, though both link modes may read it),
  table_s        time in `_radial_group` (cache lookups included),
  read_s         build_s - table_s: the read at X, assembly and guard,
  kernel_s       time inside `_shadow_expectation` during the build,
  base_s         replay with every cell 0,
  branches       {linear, gauss_hermite, windowed}: {cells, s},
  window_tails_s time in the windowed branch's ndtr and log_ndtr calls
                 (part of branches.windowed.s; fastest replay per call),
  v_window       first and last ln w lattice panel of the transform window
                 the rates were accepted on, guard panels included; panel k
                 spans w = v k_los H^-alpha_los from 10^(k/2) to
                 10^((k+1)/2), and [-20, 14] unless the geometry moved an end,
  tables_sha256  SHA-256 of the zone table bytes followed by the outside
                 table bytes (the whole window, guard panels included),
  table_sha256   SHA-256 of the radial table's prefix bytes followed by its
                 suffix bytes, as read at the geometry's altitude.

The default geometries are the six builds of the benchmark's
figures_analytic workload: high_rise and sub_urban at X = 1 and 3 km with
H = 1 km, and at X = 3 km with H = 2 km; the X = 3 km builds reuse the
radial table groups of X = 1 km, and at H = 2 km build only the group its
shifted range reaches below them.

Usage: python3 scripts/kernel_profile.py [--hermite-nodes N]
           [--geometry ENV:X_KM:H_KM ...]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace

import numpy as np

from uavcache import (ChannelConfig, ContentLibrary, QuadratureConfig,
                      ScenarioConfig, environment_preset, mpc_policy)
from uavcache import analytics, channel

REPEATS = 3
DEFAULT_GEOMETRIES = (
    ("high_rise", 1.0, 1.0), ("sub_urban", 1.0, 1.0),
    ("high_rise", 3.0, 1.0), ("sub_urban", 3.0, 1.0),
    ("high_rise", 3.0, 2.0), ("sub_urban", 3.0, 2.0),
)


def scenario(env_name: str, x_cop: float, altitude: float,
             hermite_nodes: int | None) -> ScenarioConfig:
    lib = ContentLibrary(20, 0.8)
    quad = QuadratureConfig()
    if hermite_nodes is not None:
        quad = replace(quad, hermite_nodes=hermite_nodes)
    return ScenarioConfig(lib, mpc_policy(lib.popularity, 5),
                          environment_preset(env_name),
                          channel=ChannelConfig(altitude_km=altitude),
                          quadrature=quad, coop_radius_km=x_cop)


def branch_masks(coef, m_ln, s_ln):
    """The kernel's branch of every cell, by the kernel's own rule."""
    s = np.broadcast_to(s_ln, coef.shape)
    live = coef != 0.0
    linear = live & (coef < channel.linear_threshold(m_ln, s))
    gauss_hermite = live & ~linear & (s < channel._S_SWITCH)
    windowed = live & ~linear & ~gauss_hermite
    return {"linear": linear, "gauss_hermite": gauss_hermite,
            "windowed": windowed}


def timed(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def timed_normal_tails(fn, *args) -> float:
    """Fastest of REPEATS runs of fn(*args), counting only the time spent in
    channel.ndtr and channel.log_ndtr."""
    tails = {name: getattr(channel, name) for name in ("ndtr", "log_ndtr")}
    spent = 0.0

    def timing(tail):
        def run(*a, **k):
            nonlocal spent
            t0 = time.perf_counter()
            out = tail(*a, **k)
            spent += time.perf_counter() - t0
            return out
        return run

    best = float("inf")
    try:
        for name, tail in tails.items():
            setattr(channel, name, timing(tail))
        for _ in range(REPEATS):
            spent = 0.0
            fn(*args)
            best = min(best, spent)
    finally:
        for name, tail in tails.items():
            setattr(channel, name, tail)
    return best


def profile(env_name: str, x_cop: float, altitude: float,
            hermite_nodes: int | None) -> dict:
    cfg = scenario(env_name, x_cop, altitude, hermite_nodes)
    kernel = channel._shadow_expectation
    radial_group = analytics._radial_group
    calls = []
    groups_read = set()
    kernel_s = table_s = 0.0

    def recording(coef, m_ln, s_ln, wbar, n_h):
        nonlocal kernel_s
        t0 = time.perf_counter()
        out = kernel(coef, m_ln, s_ln, wbar, n_h)
        kernel_s += time.perf_counter() - t0
        calls.append((coef, m_ln, s_ln, wbar, n_h))
        return out

    def timed_group(*args, **kwargs):
        nonlocal table_s
        groups_read.add(args)
        t0 = time.perf_counter()
        out = radial_group(*args, **kwargs)
        table_s += time.perf_counter() - t0
        return out

    built = radial_group.cache_info().misses
    channel._shadow_expectation = recording
    analytics._radial_group = timed_group
    try:
        t0 = time.perf_counter()
        analytics.system_capacity(cfg)
        build_s = time.perf_counter() - t0
    finally:
        channel._shadow_expectation = kernel
        analytics._radial_group = radial_group
    built = radial_group.cache_info().misses - built
    tables = analytics._assemble_rates(cfg, cfg.policy.probabilities)[1]
    digest = hashlib.sha256(np.ascontiguousarray(tables.zone).tobytes()
                            + np.ascontiguousarray(tables.outside).tobytes())
    _, prefix, suffix = analytics._radial_table(cfg.env, cfg.channel, cfg.quadrature,
                                                *tables.panels)
    table_digest = hashlib.sha256(prefix.tobytes() + suffix.tobytes())

    base_s = window_tails_s = 0.0
    branches = {name: {"cells": 0, "s": 0.0}
                for name in ("linear", "gauss_hermite", "windowed")}
    for coef, m_ln, s_ln, wbar, n_h in calls:
        coef = np.asarray(coef, dtype=float)
        base = timed(kernel, np.zeros_like(coef), m_ln, s_ln, wbar, n_h)
        base_s += base
        for name, mask in branch_masks(coef, m_ln, s_ln).items():
            branches[name]["cells"] += int(mask.sum())
            if mask.any():
                live = np.where(mask, coef, 0.0)
                branches[name]["s"] += timed(kernel, live, m_ln, s_ln, wbar, n_h) - base
                if name == "windowed":
                    window_tails_s += timed_normal_tails(kernel, live, m_ln, s_ln, wbar, n_h)
    for rec in branches.values():
        rec["s"] = round(rec["s"], 4)
    return {"env": env_name, "x_cop_km": x_cop, "altitude_km": altitude,
            "hermite_nodes": cfg.quadrature.hermite_nodes,
            "build_s": round(build_s, 4),
            "groups_built": built, "groups_reused": len(groups_read) - built,
            "table_s": round(table_s, 4), "read_s": round(build_s - table_s, 4),
            "kernel_s": round(kernel_s, 4), "base_s": round(base_s, 4),
            "branches": branches, "window_tails_s": round(window_tails_s, 4),
            "v_window": list(tables.panels), "tables_sha256": digest.hexdigest(),
            "table_sha256": table_digest.hexdigest()}


def parse_geometry(text: str) -> tuple[str, float, float]:
    env_name, x_cop, altitude = text.split(":")
    return env_name, float(x_cop), float(altitude)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hermite-nodes", type=int, default=None,
                    help="quadrature hermite_nodes (default: QuadratureConfig's)")
    ap.add_argument("--geometry", type=parse_geometry, action="append",
                    help="ENV:X_KM:H_KM, repeatable (default: the six "
                         "figures_analytic builds)")
    args = ap.parse_args()
    analytics._geometry_tables.cache_clear()
    analytics._radial_group.cache_clear()
    for env_name, x_cop, altitude in args.geometry or DEFAULT_GEOMETRIES:
        print(json.dumps(profile(env_name, x_cop, altitude, args.hermite_nodes)),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
