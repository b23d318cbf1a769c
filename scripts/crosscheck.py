#!/usr/bin/env python3
"""Cross-validate the semi-analytic capacity against the Monte Carlo
estimator for the most popular content in two contrasting environments and
two cooperation radii. Prints a z-score per setting, then the Monte Carlo
load behind it: the expected far-field spikes per trial.

Usage: python3 scripts/crosscheck.py [trials]
"""
from __future__ import annotations

import math
import sys
import time

from uavcache import (ContentLibrary, ScenarioConfig, content_capacity,
                      environment_preset, estimate_capacity, mpc_policy,
                      solve_rcp)
from uavcache.simulator import SimOptions, _FarField

LN2 = math.log(2.0)


def base_scenario(env_name: str, x_cop: float) -> ScenarioConfig:
    lib = ContentLibrary(size=20, zipf_exponent=0.8)
    sc = ScenarioConfig(library=lib, policy=mpc_policy(lib.popularity, 5),
                        env=environment_preset(env_name),
                        coop_radius_km=x_cop)
    return sc.with_policy(solve_rcp(lib.popularity, 5, sc.zone_mean_uavs))


def mc_health(sc: ScenarioConfig) -> str:
    """Expected far-field spikes per trial at the default simulation
    options."""
    far = _FarField(sc.env, sc.channel, sc.interferer_density,
                    sc.coop_radius_km, SimOptions().spike_rel)
    spikes = sum(md.lam for md in far.modes)
    return f"{spikes:.3g} far-field spikes per trial"


def main() -> int:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    worst = 0.0
    for env_name in ("sub_urban", "high_rise"):
        for x_cop in (1.0, 3.0):
            sc = base_scenario(env_name, x_cop)
            t0 = time.time()
            analytic = content_capacity(sc, 1) / LN2
            mc = estimate_capacity(sc, 1, trials, seed=2026)
            mc_bits = mc.mean / LN2
            se_bits = mc.stderr / LN2
            z = (analytic - mc_bits) / se_bits if se_bits else float("inf")
            worst = max(worst, abs(z))
            print(f"{env_name:>10} X={x_cop:.0f}: analytic={analytic:.6f} "
                  f"mc={mc_bits:.6f} +- {se_bits:.2g} bits  z={z:+.2f} "
                  f"({time.time() - t0:.1f}s)")
            print(f"{'':>10}   {mc_health(sc)}")
    print(f"worst |z| = {worst:.2f}")
    return 0 if worst < 3.0 else 1


if __name__ == "__main__":
    sys.exit(main())
