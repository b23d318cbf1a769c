"""Content popularity and cache placement policies.

Provides the Zipf popularity law, the optimal randomized placement solved by
KKT bisection, most-popular-content placement, and LRU both as the Che
characteristic-time approximation and as an event-driven simulation.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

POLICY_KINDS = ("rcp", "mpc", "lru_che", "lru_empirical")


def zipf_popularity(size: int, exponent: float) -> np.ndarray:
    """Rank-based popularity a_m = m^(-exponent) / sum_c c^(-exponent)."""
    if size < 1:
        raise ValueError("library size must be >= 1")
    if not 0.0 <= exponent <= 2.0:
        raise ValueError("Zipf exponent must lie in [0, 2]")
    ranks = np.arange(1, size + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


@dataclass(frozen=True, eq=False)
class ContentLibrary:
    """Content catalogue with Zipf popularity."""

    size: int
    zipf_exponent: float
    popularity: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.popularity is None:
            object.__setattr__(self, "popularity", zipf_popularity(self.size, self.zipf_exponent))
        a = np.asarray(self.popularity, dtype=float)
        if a.shape != (self.size,):
            raise ConfigError("popularity vector length must equal the library size")
        if np.any(np.diff(a) > 0):
            raise ConfigError("popularity must be nonincreasing in rank")
        if abs(a.sum() - 1.0) > 1e-12:
            raise ConfigError("popularity must sum to 1")
        object.__setattr__(self, "popularity", a)


@dataclass(frozen=True, eq=False)
class PlacementPolicy:
    """Per-content caching probabilities under a cache budget."""

    probabilities: np.ndarray
    cache_size: int
    kind: str

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"policy kind must be one of {POLICY_KINDS}")
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise ConfigError("placement probabilities must lie in [0, 1]")
        if abs(p.sum() - self.cache_size) > 1e-9:
            raise ConfigError("placement probabilities must sum to the cache size")
        object.__setattr__(self, "probabilities", np.clip(p, 0.0, 1.0))


def rcp_objective(a: np.ndarray, p: np.ndarray, beta: float) -> float:
    """Expected zone hit probability sum_c a_c (1 - exp(-beta p_c))."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    return float(np.sum(a * -np.expm1(-beta * p)))


def _check_budget(a: np.ndarray, cache_size: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("popularity must be a nonempty vector")
    if not 1 <= cache_size <= a.size:
        raise ValueError("cache size must satisfy 1 <= S <= library size")
    return a


def solve_rcp(a, cache_size: int, beta: float, tolerance: float = 1e-10) -> PlacementPolicy:
    """Optimal randomized placement maximizing sum a_c (1 - exp(-beta p_c))
    subject to sum p_c = cache_size and p_c in [0, 1].

    KKT stationarity makes every interior coordinate p_c = omega + ln(a_c)/beta
    for a shared shift omega; the budget residual is monotone in omega, so
    bisection plus one equal-increment polish on the interior set solves it.
    (Bisecting in omega = ln(beta/nu)/beta rather than the multiplier nu keeps
    the bracket finite for extreme beta.)
    """
    a = _check_budget(a, cache_size)
    if not beta > 0:
        raise ValueError("beta must be positive")
    if cache_size == a.size:
        return PlacementPolicy(np.ones(a.size), cache_size, "rcp")
    offsets = np.log(a) / beta

    def clipped(omega: float) -> np.ndarray:
        return np.clip(omega + offsets, 0.0, 1.0)

    lo = -offsets.max()          # residual = -cache_size < 0
    hi = 1.0 - offsets.min()     # residual = size - cache_size >= 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if clipped(mid).sum() - cache_size > 0.0:
            hi = mid
        else:
            lo = mid
    p = clipped(0.5 * (lo + hi))
    # Equal-increment polish: spreading the residual over the interior set
    # preserves equal marginals; a second pass covers clip boundary crossings.
    for _ in range(2):
        interior = (p > 0.0) & (p < 1.0)
        gap = cache_size - p.sum()
        if abs(gap) <= tolerance or not interior.any():
            break
        p[interior] += gap / interior.sum()
        p = np.clip(p, 0.0, 1.0)
    if abs(p.sum() - cache_size) > max(tolerance, 1e-9):
        raise RuntimeError("placement bisection failed to meet the budget tolerance")
    return PlacementPolicy(p, cache_size, "rcp")


def mpc_policy(a, cache_size: int) -> PlacementPolicy:
    """Deterministically cache the most popular contents (lowest index wins ties)."""
    a = _check_budget(a, cache_size)
    p = np.zeros(a.size)
    p[np.argsort(-a, kind="stable")[:cache_size]] = 1.0
    return PlacementPolicy(p, cache_size, "mpc")


def lru_che(a, cache_size: int, tolerance: float = 1e-10) -> PlacementPolicy:
    """Che approximation of LRU: occupancy q_c = 1 - exp(-a_c T) with the
    characteristic time T solving sum_c q_c = cache_size."""
    a = _check_budget(a, cache_size)
    if cache_size == a.size:
        return PlacementPolicy(np.ones(a.size), cache_size, "lru_che")

    def occupancy(t: float) -> np.ndarray:
        return -np.expm1(-a * t)

    hi = 1.0
    while occupancy(hi).sum() < cache_size:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if occupancy(mid).sum() > cache_size:
            hi = mid
        else:
            lo = mid
    q = occupancy(0.5 * (lo + hi))
    q += (cache_size - q.sum()) / q.size  # distribute the residual bisection gap
    return PlacementPolicy(np.clip(q, 0.0, 1.0), cache_size, "lru_che")


def lru_simulate(a, cache_size: int, n_requests: int, warmup: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Event-driven LRU occupancy: fraction of (post-warmup, cache-full) time
    each content spends in cache. The vector sums to the cache size exactly.
    """
    a = _check_budget(a, cache_size)
    if not n_requests > warmup >= 0:
        raise ValueError("need n_requests > warmup >= 0")
    requests = rng.choice(a.size, size=n_requests, p=a)
    cache: OrderedDict[int, int] = OrderedDict()  # content -> in-cache-since time
    residence = np.zeros(a.size)
    window_start = None  # first instant with a full cache past warmup
    for t, c in enumerate(requests):
        c = int(c)
        if c in cache:
            cache.move_to_end(c)
        else:
            cache[c] = t
            if len(cache) > cache_size:
                old, since = cache.popitem(last=False)
                if window_start is not None:
                    residence[old] += t - max(since, window_start)
        if window_start is None and len(cache) == cache_size and t >= warmup:
            window_start = t
            for key in cache:
                cache[key] = t
    if window_start is None or window_start >= n_requests - 1:
        raise ValueError("cache never filled within the request budget; increase n_requests")
    for c, since in cache.items():
        residence[c] += n_requests - max(since, window_start)
    return residence / (n_requests - window_start)


def lru_empirical_policy(a, cache_size: int, n_requests: int, warmup: int,
                         rng: np.random.Generator) -> PlacementPolicy:
    """Wrap the simulated LRU occupancy as a placement policy."""
    occ = lru_simulate(a, cache_size, n_requests, warmup, rng)
    return PlacementPolicy(occ, cache_size, "lru_empirical")

