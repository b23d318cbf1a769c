#!/usr/bin/env python3
"""Print the evidence behind acceptance criteria 4 and 6.

Criterion 4 expects high_rise to beat the other environments at kappa=0.8,
X=3 km; criterion 6's altitude leg expects energy efficiency not to rise with
altitude where the zone edge is line-of-sight. Three tables explain what the
model does at those points, using the engine's own radial integrals:

1. the system rate (bits) with the signal environment and the interference
   environment chosen independently, with the preset shadowing spreads and
   with the spreads set to zero;
2. the LOS and NLOS parts of the whole-plane interference Laplace exponent
   2*pi*lambda_I*int z k_n(z, v) dz at v in {1, 1e2, 1e4};
3. energy efficiency and the zone-edge LOS probability against altitude for
   sub_urban at X=3 km.

Usage: python3 scripts/acceptance_diagnostics.py
"""
from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np

from uavcache import (ChannelConfig, ContentLibrary, ScenarioConfig,
                      elevation_deg, energy_efficiency, environment_preset,
                      los_probability, solve_rcp, system_capacity)
from uavcache.analytics import (_V_NODES, _assemble_rates, _geometry_tables,
                                _laplace_factors, _linear_rest, _panel_integrals,
                                _radial_edges, _tail_edges)

ENVS = ("high_rise", "dense_urban", "urban", "sub_urban")
LN2 = math.log(2.0)
KAPPA = 0.8
X_COP = 3.0
V_POINTS = (1.0, 1e2, 1e4)
ALTITUDES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)


def scenario(env, altitude=1.0) -> ScenarioConfig:
    """The acceptance battery's RCP scenario (size 20, cache 5) at X=3 km."""
    lib = ContentLibrary(20, KAPPA)
    beta = math.pi * 1e-3 * X_COP ** 2
    return ScenarioConfig(library=lib, policy=solve_rcp(lib.popularity, 5, beta),
                          env=env, coop_radius_km=X_COP,
                          channel=ChannelConfig(altitude_km=altitude))


def accepted_tables(cfg: ScenarioConfig):
    """The geometry's tables on the transform window its rates accepted."""
    return _assemble_rates(cfg, cfg.policy.probabilities)[1]


def mixed_rate_bits(sig_cfg: ScenarioConfig, int_cfg: ScenarioConfig) -> float:
    """System rate with the zone (signal) integral of sig_cfg and the
    interference integrals of int_cfg, assembled as system_capacity does:
    one row per content, summed over the wider of the two accepted transform
    windows at each end, guard panels left out."""
    windows = [accepted_tables(cfg).panels for cfg in (sig_cfg, int_cfg)]
    window = (min(w[0] for w in windows), max(w[1] for w in windows))
    sig, intf = (_geometry_tables(cfg.env, cfg.channel, cfg.quadrature,
                                  cfg.coop_radius_km, *window) for cfg in (sig_cfg, int_cfg))
    assert np.array_equal(sig.v_grid, intf.v_grid)
    probs = sig_cfg.policy.probabilities
    noncaching, caching_out, _ = _laplace_factors(intf.zone, intf.outside,
                                                  sig_cfg, probs[:, None])
    signal = _laplace_factors(sig.zone, sig.outside, sig_cfg, probs[:, None])[2]
    block = sig.weights * noncaching * caching_out * signal
    rates = block[:, _V_NODES:-_V_NODES].sum(axis=1)
    rates = np.where(probs > 0.0, rates, 0.0)
    return float(np.dot(sig_cfg.library.popularity, rates)) / LN2


def rate_matrix(title: str, envs: dict) -> None:
    cfgs = {name: scenario(env) for name, env in envs.items()}
    print(f"\n{title}\n{'signal / interference':>22}"
          + "".join(f"{name:>12}" for name in cfgs))
    for s_name, s_cfg in cfgs.items():
        row = [mixed_rate_bits(s_cfg, i_cfg) for i_cfg in cfgs.values()]
        own = system_capacity(s_cfg).system_rate_bits
        # the diagonal must reproduce the engine's own system rate
        assert abs(row[list(cfgs).index(s_name)] - own) <= 1e-12 * own
        print(f"{s_name:>22}" + "".join(f"{r:12.4g}" for r in row))


def mode_radials(v: np.ndarray, cfg: ScenarioConfig) -> dict[str, np.ndarray]:
    """Whole-plane int z p_n(z) E_n(z, v) dz per link mode n at any v, on the
    node layout of the engine's zone and outside tables (the radial table's
    panels at H times its zeta edges, and its far panels out to the tail
    edges of v's largest value, with the one that holds X split there, on
    the engine's nodes and weights, `_radial_nodes`) and with its per-mode
    linear rest beyond them, all evaluated at the altitude H itself; at
    H = 1 km the engine reads its unit-altitude table unshifted, so the two
    differ only where a group's own tail edges end its far panels elsewhere
    (at most 5e-11 relative, urban, for the four presets at X = 3 km)."""
    env, ch, quad, x = cfg.env, cfg.channel, cfg.quadrature, cfg.coop_radius_km
    edges = ch.altitude_km * _radial_edges(env, quad.rel_tol)
    edges = np.append(edges, _tail_edges(env, ch, float(v.max()), float(edges[-1])))
    split = np.insert(edges, np.searchsorted(edges, x, side="right"), x)
    los, nlos = (_panel_integrals(v, env, ch, quad, split, per_mode=True).sum(axis=1)
                 + _linear_rest(v, env, ch, float(edges[-1])))
    return {"los": los, "nlos": nlos}


def exponent_split() -> None:
    v = np.asarray(V_POINTS)
    print("\nwhole-plane interference exponent 2*pi*lambda_I*int z k_n dz, "
          f"X={X_COP:g} H=1 (zone-edge LOS probability in brackets)")
    print(f"{'env':>12} {'v':>8} {'LOS':>11} {'NLOS':>11} {'NLOS/LOS':>9}")
    for name in ENVS:
        cfg = scenario(environment_preset(name))
        # the per-mode split must add up to the engine's own tables
        tables = accepted_tables(cfg)
        on_grid = mode_radials(tables.v_grid, cfg)
        assert np.allclose(on_grid["los"] + on_grid["nlos"],
                           tables.zone + tables.outside, rtol=1e-9, atol=0)
        parts = mode_radials(v, cfg)
        scale = 2.0 * np.pi * cfg.interferer_density
        p_edge = los_probability(X_COP, 1.0, cfg.env)
        for i, v_pt in enumerate(V_POINTS):
            los, nlos = scale * parts["los"][i], scale * parts["nlos"][i]
            label = f"{name} [{p_edge:.3f}]" if i == 0 else ""
            print(f"{label:>20} {v_pt:8.0e} {los:11.3e} {nlos:11.3e} {nlos / los:9.1f}")
    for name in ENVS:
        env = environment_preset(name)
        print(f"  {name}: NLOS shadowing spread {env.a_nlos:.2f} dB at grazing "
              f"elevation, {env.a_nlos * math.exp(-env.c_nlos * elevation_deg(X_COP, 1.0)):.2f}"
              " dB at the zone edge")


def altitude_table() -> None:
    env = environment_preset("sub_urban")
    curve = []
    for h in ALTITUDES:
        cfg = scenario(env, h)
        curve.append((h, los_probability(X_COP, h, env),
                      energy_efficiency(cfg, system_capacity(cfg))))
    peak = max(curve, key=lambda item: item[2])[0]
    print(f"\nsub_urban X={X_COP:g}: energy efficiency against altitude")
    print(f"{'H km':>6} {'edge elev deg':>14} {'edge P_LOS':>11} {'EE bits/J':>11}")
    for h, p, ee in curve:
        mark = "  <- peak" if h == peak else ""
        print(f"{h:6.2f} {elevation_deg(X_COP, h):14.1f} {p:11.3f} {ee:11.3e}{mark}")


def main() -> int:
    presets = {name: environment_preset(name) for name in ENVS}
    rate_matrix(f"system rate, bits: kappa={KAPPA} X={X_COP:g} H=1", presets)
    rate_matrix("same, shadowing spread set to zero (a_los = a_nlos = 0)",
                {name: replace(env, a_los=0.0, a_nlos=0.0)
                 for name, env in presets.items()})
    exponent_split()
    altitude_table()
    return 0


if __name__ == "__main__":
    sys.exit(main())
