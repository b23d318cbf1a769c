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
        if not self.size >= 1:
            raise ConfigError(f"library size = {self.size} out of range (must be >= 1)")
        if not 0.0 <= self.zipf_exponent <= 2.0:
            raise ConfigError(f"Zipf exponent = {self.zipf_exponent} out of range "
                              "(must lie in [0, 2])")
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


def _bisect(above, lo: float, hi: float) -> tuple[float, float]:
    """Bracket [lo, hi] after up to 200 halvings at mid = (lo + hi) / 2,
    moving hi to mid where above(mid) and lo to mid otherwise. It returns at
    the first halving that leaves (lo, hi) unchanged: every later one would
    repeat it, so the bracket is the one 200 halvings reach."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bracket = (lo, mid) if above(mid) else (mid, hi)
        if bracket == (lo, hi):
            break
        lo, hi = bracket
    return lo, hi


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
    lo, hi = _bisect(lambda omega: clipped(omega).sum() - cache_size > 0.0, lo, hi)
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
    lo, hi = _bisect(lambda t: occupancy(t).sum() > cache_size, 0.0, hi)
    q = occupancy(0.5 * (lo + hi))
    q += (cache_size - q.sum()) / q.size  # distribute the residual bisection gap
    return PlacementPolicy(np.clip(q, 0.0, 1.0), cache_size, "lru_che")


# Requests turned into Python ints at a time, so that list never spans the
# whole trace (contents above 256 are one int object each).
_REPLAY_CHUNK = 65536


def lru_simulate(a, cache_size: int, n_requests: int, warmup: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Event-driven LRU occupancy: fraction of (post-warmup, cache-full) time
    each content spends in cache. The vector sums to the cache size exactly.

    The trace is ``rng.choice`` over the library, one request per time step
    t = 0..n_requests-1. The measurement window opens at the first step t >=
    warmup after whose request the cache is full. Residence counts whole steps
    from the later of a content's insertion and the window start to its
    eviction (or to n_requests).

    The cache state at the window start is recovered from the trace rather
    than replayed. An LRU cache of S slots holds the S most recently requested
    distinct contents, ordered by their last arrival; so it is full after step
    t exactly when S distinct contents arrived by t, and the window opens at
    max(warmup, first arrival of the S-th distinct content). At that step the
    cache is the S contents with the latest last arrival in the prefix, least
    recent first, and every one is stamped with the window start. Evictions
    before the window add no residence, so this state is the one a replay of
    the prefix reaches, and the single loop over the remaining requests
    (taken in chunks of _REPLAY_CHUNK) then makes the same evictions at the
    same steps. Residences are integer step counts, so their sum and the
    final division give the replay's bytes.
    """
    a = _check_budget(a, cache_size)
    if not n_requests > warmup >= 0:
        raise ValueError("need n_requests > warmup >= 0")
    requests = rng.choice(a.size, size=n_requests, p=a)
    # Steps and arrival times share one type (ufunc.at is fast only on
    # matching dtypes), wide enough for the sentinel n_requests.
    step_type = np.int32 if n_requests <= np.iinfo(np.int32).max else np.int64
    steps = np.arange(n_requests, dtype=step_type)
    first = np.full(a.size, n_requests, dtype=step_type)
    np.minimum.at(first, requests, steps)
    first.sort()
    window_start = max(warmup, int(first[cache_size - 1]))
    if window_start >= n_requests - 1:
        raise ValueError("cache never filled within the request budget; increase n_requests")
    last = np.full(a.size, -1, dtype=step_type)
    np.maximum.at(last, requests[:window_start + 1], steps[:window_start + 1])
    del steps
    # content -> in-cache-since step, least recently used first
    cache = OrderedDict.fromkeys(np.argsort(last)[-cache_size:].tolist(), window_start)
    move_to_end, popitem = cache.move_to_end, cache.popitem
    residence = [0] * a.size
    for lo in range(window_start + 1, n_requests, _REPLAY_CHUNK):
        for t, c in enumerate(requests[lo:lo + _REPLAY_CHUNK].tolist(), lo):
            if c in cache:
                move_to_end(c)
            else:
                cache[c] = t
                old, since = popitem(False)
                residence[old] += t - since
    for c, since in cache.items():
        residence[c] += n_requests - since
    return np.array(residence, dtype=float) / (n_requests - window_start)


def lru_empirical_policy(a, cache_size: int, n_requests: int, warmup: int,
                         rng: np.random.Generator) -> PlacementPolicy:
    """Wrap the simulated LRU occupancy as a placement policy."""
    occ = lru_simulate(a, cache_size, n_requests, warmup, rng)
    return PlacementPolicy(occ, cache_size, "lru_empirical")

