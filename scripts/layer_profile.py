#!/usr/bin/env python3
"""Time the engine layer by layer, with a fingerprint of the numbers each
stage produced.

Three layers, each a subcommand; with none named, all three run with their
defaults, in this order. Every layer starts from the default scenario
(`parse_config({}).scenario`). A stage's time is the fastest of REPEATS
runs, every one of which returns the same bytes (a kernel geometry's build
times are of its one cold build), and each SHA-256 hashes the float64 bytes
of the arrays named, in that order. One JSON line per record, its "layer"
first.

kernel [--hermite-nodes N] [--geometry ENV:X_KM:H_KM ...]
  Empties the table caches once, then builds the tables of each geometry
  in the order given, as a sweep over them would (by default the six
  builds of the benchmark's figures_analytic workload: high_rise and
  sub_urban at X = 1 and 3 km with H = 1 km, and at X = 3 km with
  H = 2 km). A geometry's read of the radial table at X (the two partial
  panels around it, none when X is a panel edge) is always made; the
  radial table (prefix and suffix sums on every panel edge, held at unit
  altitude and intercept, in groups of ln u panels, each with its own far
  tail) is read at u = v k_n H^-alpha_n, and a group is built unless an
  earlier geometry with the same environment and channel left it cached,
  whatever its altitude; the groups a geometry builds are built in one
  `kernel_table` call. Every `_shadow_expectation` call of the build is
  recorded, then replayed once per kernel branch with only that branch's
  cells live (the others 0, which the kernel answers without work) and
  once with every cell 0 (`base_s`: masks and gates). A branch's seconds are its replay minus
  `base_s`, so the branches plus `base_s` approximate `kernel_s`; a branch
  too cheap to separate from noise can read below 0.
  One record per geometry:
    env, x_cop_km, altitude_km, hermite_nodes,
    build_s        table build, rate assembly and window guard
                   (`analytics.system_capacity`),
    groups_built   radial table groups this geometry built,
    groups_reused  distinct groups it read that were already cached,
    table_s        time in `_radial_groups` (memo reads and the one-call
                   build of the missing groups),
    read_s         build_s - table_s: the read at X, assembly and guard,
    kernel_s       time inside `_shadow_expectation` during the build,
    base_s         replay with every cell 0,
    branches       {linear, gauss_hermite, windowed}: {cells, s},
    window_tails_s time in the windowed replays' `channel.ndtr` and
                   `channel.log_ndtr` calls (part of branches.windowed.s),
    v_window       first and last ln w lattice panel of the transform window
                   the rates were accepted on, guard panels included; panel
                   k spans w = v k_los H^-alpha_los from 10^(k/2) to
                   10^((k+1)/2), [-20, 14] unless the geometry moved an end,
    tables_sha256  the zone then outside tables on that window,
    table_sha256   the radial table's prefix then suffix sums as read at
                   the geometry's altitude.

mc [--case ENV:X_KM ...] [--trials N]
  For each (environment, X), by default sub_urban and high_rise at X = 1
  and 3 km, with the `lru_che` placement (every content live, as in the
  benchmark's 20-content mc_crosscheck row) and one chunk of --trials
  trials (default: the default chunk size), five stages, each run drawing
  from a fresh Philox stream keyed by SEED as the estimators key theirs:
    far_tau     the far field's spike threshold (`_FarField._threshold`),
    far_build   the far-field model (`_FarField`): threshold, grid, spike
                intensities and guide tables, mean floor,
    far_sample  its spikes for one chunk (`_FarField.sample`),
    draw_links  `_draw_links` on LINKS radii, area-uniform on r <= X,
    zone_chunk  one chunk of every live content (`_Zone.fill`) against the
                chunk's shared field (spikes and floor).
  One record per (stage, env, X):
    stage, env, x_cop_km, trials,
    args    the stage's size: for far_build the threshold's lattice index k
            (tau = g(X) 10^(k/4)), its bias bound B(tau) in nats and the
            expected spikes per trial; expected spikes per chunk, links, or
            live contents for the others,
    best_s  wall time,
    sha256  tau; the floor, then each mode's spike count, CDF and guide
            table; the spikes; the LOS flags, then the gains; the (live
            contents, trials) rates.

placement [--case L:S ...] [--requests N]
  For each (library size L, cache size S), by default 10:5 20:5 40:5
  300:30 1000:100, on the default scenario's Zipf library exponent, three
  solvers:
    solve_rcp     the optimal randomized placement, at the default
                  scenario's mean zone UAV count beta,
    lru_che       the Che characteristic-time approximation of LRU,
    lru_simulate  the LRU trace replay, at the sweep harness's trace length
                  and warm-up for `lru_empirical` rows, from a fresh
                  `numpy.random.default_rng(SEED)` each run; a shorter
                  --requests keeps the harness's warm-up share.
  One record per (solver, L, S):
    solver, library_size, cache_size,
    args                  the solver's other arguments,
    best_s                wall time,
    peak_mib              `tracemalloc` peak of one more run, made after
                          the timed ones, in MiB,
    probabilities_sha256  the placement probabilities.

Usage: python3 scripts/layer_profile.py [kernel|mc|placement] [flags]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np

from uavcache import (analytics, channel, environment_preset, lru_che,
                      lru_simulate, parse_config, simulator, solve_rcp,
                      zipf_popularity)
from uavcache.harness import _LRU_REQUESTS, _LRU_WARMUP

REPEATS = 3
SEED = 7
LINKS = 65536
DEFAULT_GEOMETRIES = (
    ("high_rise", 1.0, 1.0), ("sub_urban", 1.0, 1.0),
    ("high_rise", 3.0, 1.0), ("sub_urban", 3.0, 1.0),
    ("high_rise", 3.0, 2.0), ("sub_urban", 3.0, 2.0),
)
DEFAULT_MC_CASES = (("sub_urban", 1.0), ("sub_urban", 3.0),
                    ("high_rise", 1.0), ("high_rise", 3.0))
DEFAULT_PLACEMENT_CASES = ((10, 5), (20, 5), (40, 5), (300, 30), (1000, 100))


def best_of(fn):
    """(fastest of REPEATS wall times of fn(), its last result)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def peak_mib(fn) -> float:
    """The `tracemalloc` peak of one run of fn(), in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def timed_normal_tails(fn) -> float:
    """Fastest of REPEATS runs of fn(), counting only the time spent in
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
            fn()
            best = min(best, spent)
    finally:
        for name, tail in tails.items():
            setattr(channel, name, tail)
    return best


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def scenario(env_name: str, x_cop: float):
    """The default scenario in environment env_name at cooperation radius
    x_cop km."""
    return replace(parse_config({}).scenario, env=environment_preset(env_name),
                   coop_radius_km=x_cop)


def kernel_geometry(env_name: str, x_cop: float, altitude: float,
                    hermite_nodes: int | None) -> dict:
    cfg = scenario(env_name, x_cop)
    quad = cfg.quadrature
    if hermite_nodes is not None:
        quad = replace(quad, hermite_nodes=hermite_nodes)
    cfg = replace(cfg, channel=replace(cfg.channel, altitude_km=altitude), quadrature=quad)
    kernel = channel._shadow_expectation
    radial_groups = analytics._radial_groups
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

    def timed_groups(*args):
        nonlocal table_s
        *table, groups = args
        groups_read.update((*table, g) for g in groups)
        t0 = time.perf_counter()
        out = radial_groups(*args)
        table_s += time.perf_counter() - t0
        return out

    built = analytics._RADIAL_GROUPS.built
    channel._shadow_expectation = recording
    analytics._radial_groups = timed_groups
    try:
        t0 = time.perf_counter()
        analytics.system_capacity(cfg)
        build_s = time.perf_counter() - t0
    finally:
        channel._shadow_expectation = kernel
        analytics._radial_groups = radial_groups
    built = analytics._RADIAL_GROUPS.built - built
    tables = analytics._assemble_rates(cfg, cfg.policy.probabilities)[1]
    _, prefix, suffix = analytics._radial_table(cfg.env, cfg.channel, cfg.quadrature,
                                                *tables.panels)

    base_s = window_tails_s = 0.0
    branches = {name: {"cells": 0, "s": 0.0}
                for name in ("linear", "gauss_hermite", "windowed")}
    for coef, m_ln, s_ln, wbar, n_h in calls:
        coef = np.asarray(coef, dtype=float)
        base = best_of(partial(kernel, np.zeros_like(coef), m_ln, s_ln, wbar, n_h))[0]
        base_s += base
        for name, mask in zip(branches, channel._kernel_branches(coef, m_ln, s_ln)):
            branches[name]["cells"] += int(mask.sum())
            if mask.any():
                live = np.where(mask, coef, 0.0)
                replay = partial(kernel, live, m_ln, s_ln, wbar, n_h)
                branches[name]["s"] += best_of(replay)[0] - base
                if name == "windowed":
                    window_tails_s += timed_normal_tails(replay)
    for rec in branches.values():
        rec["s"] = round(rec["s"], 4)
    return {"env": env_name, "x_cop_km": x_cop, "altitude_km": altitude,
            "hermite_nodes": cfg.quadrature.hermite_nodes,
            "build_s": round(build_s, 4),
            "groups_built": built, "groups_reused": len(groups_read) - built,
            "table_s": round(table_s, 4), "read_s": round(build_s - table_s, 4),
            "kernel_s": round(kernel_s, 4), "base_s": round(base_s, 4),
            "branches": branches, "window_tails_s": round(window_tails_s, 4),
            "v_window": list(tables.panels),
            "tables_sha256": sha256(tables.zone, tables.outside),
            "table_sha256": sha256(prefix, suffix)}


def kernel_layer(args):
    analytics._geometry_tables.cache_clear()
    analytics._RADIAL_GROUPS.clear()
    for env_name, x_cop, altitude in args.geometry or DEFAULT_GEOMETRIES:
        yield kernel_geometry(env_name, x_cop, altitude, args.hermite_nodes)


def mc_stages(env_name: str, x_cop: float, trials: int) -> list[dict]:
    cfg = scenario(env_name, x_cop)
    cfg = cfg.with_policy(lru_che(cfg.library.popularity, cfg.policy.cache_size))

    def rng(purpose: int) -> np.random.Generator:
        return simulator._chunk_rng(SEED, purpose, 0)

    field_purpose = simulator._PURPOSE_FIELD
    far_args = (cfg.env, cfg.channel, cfg.interferer_density, x_cop)
    far = simulator._FarField(*far_args)
    spikes = far.spikes * trials
    field = far.sample(rng(field_purpose), trials) + far.floor
    zone = simulator._Zone(cfg.env, cfg.channel, cfg.zone_mean_uavs,
                           cfg.interferer_density, x_cop, cfg.policy.probabilities,
                           trials)

    def far_digest(f):
        return sha256(f.floor, *[a for md in f.modes for a in (md.lam, md.cum, md.guide)])

    def radii():
        return x_cop * np.sqrt(rng(field_purpose).random(LINKS))

    def zone_chunk():
        out = np.empty((zone.size, trials))
        zone.fill(rng(simulator._PURPOSE_CAPACITY), out, field)
        return out

    stages = (
        ("far_tau", {}, lambda: simulator._FarField._threshold(*far_args),
         lambda res: sha256(res[1])),
        ("far_build", {"k": far.k, "bias_nats": float(f"{far.bias:.3g}"),
                       "spikes_per_trial": round(far.spikes, 2)},
         lambda: simulator._FarField(*far_args), far_digest),
        ("far_sample", {"spikes": round(spikes)},
         lambda: far.sample(rng(field_purpose), trials), sha256),
        ("draw_links", {"links": LINKS},
         lambda: simulator._draw_links(rng(field_purpose), radii(), cfg.env, cfg.channel),
         lambda res: sha256(*res)),
        ("zone_chunk", {"contents": zone.size}, zone_chunk, sha256),
    )
    records = []
    for name, stage_args, fn, fingerprint in stages:
        best_s, result = best_of(fn)
        records.append({"stage": name, "env": env_name, "x_cop_km": x_cop,
                        "trials": trials, "args": stage_args,
                        "best_s": round(best_s, 4), "sha256": fingerprint(result)})
    return records


def mc_layer(args):
    for env_name, x_cop in args.case or DEFAULT_MC_CASES:
        yield from mc_stages(env_name, x_cop, args.trials)


def placement_solvers(size: int, cache_size: int, n_requests: int) -> list[dict]:
    base = parse_config({}).scenario
    a = zipf_popularity(size, base.library.zipf_exponent)
    warmup = n_requests * _LRU_WARMUP // _LRU_REQUESTS
    beta = base.zone_mean_uavs
    solvers = (
        ("solve_rcp", {"beta": beta},
         lambda: solve_rcp(a, cache_size, beta).probabilities),
        ("lru_che", {}, lambda: lru_che(a, cache_size).probabilities),
        ("lru_simulate",
         {"n_requests": n_requests, "warmup": warmup, "seed": SEED},
         lambda: lru_simulate(a, cache_size, n_requests, warmup,
                              np.random.default_rng(SEED))),
    )
    records = []
    for name, solver_args, fn in solvers:
        best_s, probabilities = best_of(fn)
        records.append({"solver": name, "library_size": size,
                        "cache_size": cache_size, "args": solver_args,
                        "best_s": round(best_s, 4),
                        "peak_mib": round(peak_mib(fn), 4),
                        "probabilities_sha256": sha256(probabilities)})
    return records


def placement_layer(args):
    for size, cache_size in args.case or DEFAULT_PLACEMENT_CASES:
        yield from placement_solvers(size, cache_size, args.requests)


def case(*types):
    """An argparse type reading colon-separated fields of the given types."""
    def parse(text: str) -> tuple:
        fields = text.split(":")
        if len(fields) != len(types):
            raise ValueError(text)
        return tuple(t(f) for t, f in zip(types, fields))
    parse.__name__ = ":".join(t.__name__ for t in types)
    return parse


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    layers = ap.add_subparsers(dest="layer")
    kernel = layers.add_parser("kernel", help="analytic table builds, kernel by branch")
    kernel.set_defaults(profile=kernel_layer)
    kernel.add_argument("--hermite-nodes", type=int, default=None,
                        help="quadrature hermite_nodes (default: the default scenario's)")
    kernel.add_argument("--geometry", type=case(str, float, float), action="append",
                        help="ENV:X_KM:H_KM, repeatable (default: the six "
                             "figures_analytic builds)")
    mc = layers.add_parser("mc", help="Monte Carlo simulator stages")
    mc.set_defaults(profile=mc_layer)
    mc.add_argument("--case", type=case(str, float), action="append",
                    help="ENV:X_KM, repeatable (default: sub_urban and "
                         "high_rise at X = 1 and 3 km)")
    default_trials = simulator.SimOptions().chunk_size
    mc.add_argument("--trials", type=int, default=default_trials,
                    help=f"trials per chunk (default {default_trials}, "
                         "the default chunk size)")
    placement = layers.add_parser("placement", help="placement solvers")
    placement.set_defaults(profile=placement_layer)
    placement.add_argument("--case", type=case(int, int), action="append",
                           help="L:S, repeatable (default: 10:5 20:5 40:5 300:30 1000:100)")
    placement.add_argument("--requests", type=int, default=_LRU_REQUESTS,
                           help=f"LRU trace length (default {_LRU_REQUESTS})")
    args = ap.parse_args()
    runs = [args] if args.layer else [ap.parse_args([name])
                                      for name in ("kernel", "mc", "placement")]
    for run in runs:
        for record in run.profile(run):
            print(json.dumps({"layer": run.layer, **record}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
