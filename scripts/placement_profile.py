#!/usr/bin/env python3
"""Time the placement solvers, with a fingerprint of the probabilities each
one produced.

For each (library size L, cache size S) the script builds the default Zipf
library (exponent 0.8) and runs three solvers on it:

  solve_rcp     the optimal randomized placement, at the default scenario's
                mean zone UAV count beta (`zone_mean_uavs` of an empty config);
  lru_che       the Che characteristic-time approximation of LRU;
  lru_simulate  the LRU trace replay, at the trace length and warm-up the
                sweep harness uses for `lru_empirical` rows, from a fresh
                `numpy.random.default_rng(SEED)` on every run. A shorter
                --requests keeps the harness's warm-up share of the trace.

Every solver is deterministic for its arguments, so each of its REPEATS runs
returns the same bytes.

One JSON line per (solver, L, S):
  solver, library_size, cache_size,
  args                   the solver's other arguments,
  best_s                 fastest of REPEATS wall times,
  probabilities_sha256   SHA-256 of the float64 probability bytes.

Usage: python3 scripts/placement_profile.py [--case L:S ...] [--requests N]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from uavcache import (lru_che, lru_simulate, parse_config, solve_rcp,
                      zipf_popularity)
from uavcache.harness import _LRU_REQUESTS, _LRU_WARMUP

REPEATS = 3
ZIPF_EXPONENT = 0.8
SEED = 7
DEFAULT_CASES = ((10, 5), (20, 5), (40, 5), (300, 30), (1000, 100))


def best_of(fn) -> tuple[float, np.ndarray]:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def profile(size: int, cache_size: int, n_requests: int) -> list[dict]:
    a = zipf_popularity(size, ZIPF_EXPONENT)
    warmup = n_requests * _LRU_WARMUP // _LRU_REQUESTS
    beta = parse_config({}).scenario.zone_mean_uavs
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
    for name, args, fn in solvers:
        best_s, probabilities = best_of(fn)
        digest = hashlib.sha256(np.ascontiguousarray(probabilities, dtype=float).tobytes())
        records.append({"solver": name, "library_size": size,
                        "cache_size": cache_size, "args": args,
                        "best_s": round(best_s, 4),
                        "probabilities_sha256": digest.hexdigest()})
    return records


def parse_case(text: str) -> tuple[int, int]:
    size, cache_size = text.split(":")
    return int(size), int(cache_size)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", type=parse_case, action="append",
                    help="L:S, repeatable (default: 10:5 20:5 40:5 300:30 1000:100)")
    ap.add_argument("--requests", type=int, default=_LRU_REQUESTS,
                    help=f"LRU trace length (default {_LRU_REQUESTS})")
    args = ap.parse_args()
    for size, cache_size in args.case or DEFAULT_CASES:
        for record in profile(size, cache_size, args.requests):
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
