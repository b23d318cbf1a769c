#!/usr/bin/env python3
"""Time the Monte Carlo simulator's stages, with a fingerprint of the numbers
each one produced.

For each (environment, cooperation radius X) the script takes the default
scenario (`parse_config({})`) in that environment and radius with the
`lru_che` placement, which makes every content live as in the benchmark's
20-content mc_crosscheck row, and times five stages at the default
simulation options:

  far_tau       the far field's spike threshold (`_FarField._threshold`):
                the floor's bias bound at every lattice point, in one pass;
  far_build     the far-field model (`_FarField`): threshold, grid, spike
                intensities and guide tables, mean floor;
  far_sample    its spikes for one chunk of --trials trials
                (`_FarField.sample`);
  draw_links    `_draw_links` on LINKS radii, area-uniform on the zone
                r <= X, where every link it draws lies;
  zone_chunk    one chunk of every live content (`_Zone.fill`, the zone
                pass's chunk) against the chunk's shared field (spikes and
                floor).

Each run of a stage draws from a fresh Philox stream keyed by SEED, as the
estimators key theirs, so each of its REPEATS runs returns the same bytes.

One JSON line per (stage, env, X):
  stage, env, x_cop_km, trials,
  args      the stage's size: for far_build the threshold's lattice index k
            (tau = g(X) 10^(k/4)), its bias bound B(tau) in nats and the
            expected spikes per trial; expected spikes per chunk, links, or
            live contents for the others,
  best_s    fastest of REPEATS wall times,
  sha256    SHA-256 of the float64 bytes the stage returned (for far_tau:
            tau; for far_build: the floor, then each mode's spike count,
            CDF and guide table; for draw_links: the LOS flags, then the
            gains; for zone_chunk: the (live contents, trials) rates).

Usage: python3 scripts/mc_profile.py [--case ENV:X_KM ...] [--trials N]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace

import numpy as np

from uavcache import environment_preset, lru_che, parse_config
from uavcache import simulator
from uavcache.simulator import SimOptions

REPEATS = 3
SEED = 7
LINKS = 65536
DEFAULT_CASES = (("sub_urban", 1.0), ("sub_urban", 3.0),
                 ("high_rise", 1.0), ("high_rise", 3.0))


def best_of(fn):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def rng(purpose: int) -> np.random.Generator:
    return simulator._chunk_rng(SEED, purpose, 0)


def profile(env_name: str, x_cop: float, trials: int) -> list[dict]:
    base = parse_config({}).scenario
    cfg = replace(base, env=environment_preset(env_name), coop_radius_km=x_cop)
    cfg = cfg.with_policy(lru_che(cfg.library.popularity, cfg.policy.cache_size))
    field_purpose = simulator._PURPOSE_FIELD

    far_args = (cfg.env, cfg.channel, cfg.interferer_density, x_cop)
    far = simulator._FarField(*far_args)
    spikes = far.spikes * trials
    field = far.sample(rng(field_purpose), trials) + far.floor
    zone = simulator._Zone(cfg.env, cfg.channel, cfg.zone_mean_uavs,
                           cfg.interferer_density, x_cop, cfg.policy.probabilities,
                           trials)

    def far_digest(f):
        return digest(f.floor, *[a for md in f.modes for a in (md.lam, md.cum, md.guide)])

    def radii():
        return x_cop * np.sqrt(rng(field_purpose).random(LINKS))

    def zone_chunk():
        out = np.empty((zone.size, trials))
        zone.fill(rng(simulator._PURPOSE_CAPACITY), out, field)
        return out

    stages = (
        ("far_tau", {}, lambda: simulator._FarField._threshold(*far_args),
         lambda res: digest(res[1])),
        ("far_build", {"k": far.k, "bias_nats": float(f"{far.bias:.3g}"),
                       "spikes_per_trial": round(far.spikes, 2)},
         lambda: simulator._FarField(*far_args), far_digest),
        ("far_sample", {"spikes": round(spikes)},
         lambda: far.sample(rng(field_purpose), trials), digest),
        ("draw_links", {"links": LINKS},
         lambda: simulator._draw_links(rng(field_purpose), radii(), cfg.env, cfg.channel),
         lambda res: digest(*res)),
        ("zone_chunk", {"contents": zone.size}, zone_chunk, digest),
    )
    records = []
    for name, args, fn, fingerprint in stages:
        best_s, result = best_of(fn)
        records.append({"stage": name, "env": env_name, "x_cop_km": x_cop,
                        "trials": trials, "args": args, "best_s": round(best_s, 4),
                        "sha256": fingerprint(result)})
    return records


def parse_case(text: str) -> tuple[str, float]:
    env_name, x_cop = text.split(":")
    return env_name, float(x_cop)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", type=parse_case, action="append",
                    help="ENV:X_KM, repeatable (default: sub_urban and "
                         "high_rise at X = 1 and 3 km)")
    default_trials = SimOptions().chunk_size
    ap.add_argument("--trials", type=int, default=default_trials,
                    help=f"trials per chunk (default {default_trials}, "
                         "the default chunk size)")
    args = ap.parse_args()
    for env_name, x_cop in args.case or DEFAULT_CASES:
        for record in profile(env_name, x_cop, args.trials):
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
