"""Content popularity, placement policies, and cache hit statistics."""
import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavcache import caching
from uavcache.caching import (ContentLibrary, PlacementPolicy, _check_budget,
                              lru_che, lru_empirical_policy, lru_simulate,
                              mpc_policy, rcp_objective, solve_rcp,
                              zipf_popularity)
from uavcache.errors import ConfigError


# --- popularity ------------------------------------------------------------

def test_zipf_uniform_when_exponent_zero():
    np.testing.assert_allclose(zipf_popularity(5, 0.0), np.full(5, 0.2), rtol=1e-15)


def test_zipf_harmonic_weights():
    # oracle: normalized 1/k weights for exponent 1
    a = zipf_popularity(4, 1.0)
    h = 1.0 + 0.5 + 1.0 / 3.0 + 0.25
    np.testing.assert_allclose(a, np.array([1.0, 0.5, 1.0 / 3.0, 0.25]) / h,
                               rtol=1e-14)


def test_zipf_single_content():
    np.testing.assert_array_equal(zipf_popularity(1, 1.3), [1.0])


@given(st.integers(1, 200), st.floats(0.0, 2.0))
def test_zipf_is_a_sorted_distribution(size, kappa):
    a = zipf_popularity(size, kappa)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(a) <= 0)
    assert np.all(a > 0)


def test_zipf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zipf_popularity(0, 1.0)
    with pytest.raises(ValueError):
        zipf_popularity(5, -0.1)
    with pytest.raises(ValueError):
        zipf_popularity(5, 2.5)


def test_library_validation():
    lib = ContentLibrary(4, 0.8)
    assert lib.popularity.shape == (4,)
    with pytest.raises(ConfigError, match="length"):
        ContentLibrary(4, 0.8, popularity=np.array([0.5, 0.5]))
    with pytest.raises(ConfigError, match="nonincreasing"):
        ContentLibrary(3, 0.8, popularity=np.array([0.2, 0.5, 0.3]))
    with pytest.raises(ConfigError, match="sum"):
        ContentLibrary(3, 0.8, popularity=np.array([0.5, 0.3, 0.3]))
    custom = ContentLibrary(3, 0.8, popularity=np.array([0.5, 0.3, 0.2]))
    np.testing.assert_array_equal(custom.popularity, [0.5, 0.3, 0.2])


def test_policy_validation():
    with pytest.raises(ConfigError, match="kind"):
        PlacementPolicy(np.array([1.0]), 1, "greedy")
    with pytest.raises(ConfigError, match="lie in"):
        PlacementPolicy(np.array([1.2, -0.2]), 1, "rcp")
    with pytest.raises(ConfigError, match="sum"):
        PlacementPolicy(np.array([0.5, 0.4]), 1, "rcp")
    pol = PlacementPolicy(np.array([0.6, 0.4]), 1, "rcp")
    assert pol.cache_size == 1


# --- optimal randomized placement ------------------------------------------

def test_rcp_objective_by_hand():
    a = np.array([0.6, 0.4])
    p = np.array([1.0, 0.0])
    assert rcp_objective(a, p, 2.0) == pytest.approx(0.6 * -math.expm1(-2.0),
                                                     rel=1e-14)


def test_rcp_beats_exhaustive_grid():
    # oracle: vectorized simplex scan at step 1e-3 for a 3-content library
    a = zipf_popularity(3, 1.0)
    step = 1e-3
    g = np.arange(0.0, 1.0 + step / 2, step)
    p1, p2 = np.meshgrid(g, g, indexing="ij")
    p3 = 1.0 - p1 - p2
    obj = np.where(
        p1 + p2 <= 1.0 + 1e-12,
        a[0] * -np.expm1(-2 * p1) + a[1] * -np.expm1(-2 * p2)
        + a[2] * -np.expm1(-2 * np.clip(p3, 0.0, None)),
        -1.0)
    grid_best = obj.max()
    assert grid_best == pytest.approx(0.5376546505365826, rel=1e-12)
    pol = solve_rcp(a, 1, 2.0)
    assert rcp_objective(a, pol.probabilities, 2.0) >= grid_best - 1e-9
    np.testing.assert_allclose(pol.probabilities,
                               [0.63195991, 0.28538632, 0.08265377], atol=1e-7)


def test_rcp_equalizes_marginal_gains():
    # interior coordinates of the optimum share one marginal value
    a = zipf_popularity(6, 0.9)
    pol = solve_rcp(a, 2, 1.7)
    p = pol.probabilities
    marginal = a * 1.7 * np.exp(-1.7 * p)
    interior = marginal[(p > 1e-9) & (p < 1.0 - 1e-9)]
    assert interior.size >= 2
    assert np.ptp(interior) < 1e-6 * interior.max()


def test_rcp_full_cache_is_everything():
    pol = solve_rcp(zipf_popularity(4, 1.2), 4, 0.5)
    np.testing.assert_allclose(pol.probabilities, 1.0, atol=1e-12)


def test_rcp_small_coverage_recovers_top_popular():
    # as the mean helper count vanishes the optimum degenerates to top-S
    a = zipf_popularity(5, 0.8)
    pol = solve_rcp(a, 2, 1e-9)
    np.testing.assert_allclose(pol.probabilities,
                               mpc_policy(a, 2).probabilities, atol=1e-6)


def test_rcp_large_coverage_spreads_out():
    a = zipf_popularity(5, 0.8)
    pol = solve_rcp(a, 1, 1e4)
    assert pol.probabilities.min() > 0.0
    assert rcp_objective(a, pol.probabilities, 1e4) > 0.999


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.floats(0.1, 2.0), st.floats(0.05, 30.0),
       st.integers(0, 10_000))
def test_rcp_dominates_feasible_competitors(size, kappa, beta, salt):
    cache = 1 + salt % size
    a = zipf_popularity(size, kappa)
    pol = solve_rcp(a, cache, beta)
    p = pol.probabilities
    assert np.all((p >= -1e-12) & (p <= 1.0 + 1e-12))
    assert p.sum() == pytest.approx(cache, abs=1e-8)
    assert np.all(np.diff(p) <= 1e-9)
    best = rcp_objective(a, p, beta)
    assert best >= rcp_objective(a, mpc_policy(a, cache).probabilities, beta) - 1e-9
    uniform = np.full(size, cache / size)
    assert best >= rcp_objective(a, uniform, beta) - 1e-9


def test_rcp_rejects_bad_arguments():
    a = zipf_popularity(4, 1.0)
    with pytest.raises(ValueError):
        solve_rcp(a, 0, 1.0)
    with pytest.raises(ValueError):
        solve_rcp(a, 5, 1.0)
    with pytest.raises(ValueError):
        solve_rcp(a, 2, 0.0)


# --- deterministic and LRU baselines ----------------------------------------

def test_mpc_selects_top_ranks():
    pol = mpc_policy(zipf_popularity(5, 1.0), 2)
    np.testing.assert_array_equal(pol.probabilities, [1, 1, 0, 0, 0])
    assert pol.kind == "mpc"


def test_mpc_breaks_ties_by_rank():
    pol = mpc_policy(np.array([0.4, 0.3, 0.3]), 2)
    np.testing.assert_array_equal(pol.probabilities, [1, 1, 0])


def test_lru_che_is_a_valid_policy():
    a = zipf_popularity(20, 0.8)
    pol = lru_che(a, 5)
    assert pol.kind == "lru_che"
    assert pol.probabilities.sum() == pytest.approx(5.0, abs=1e-8)
    assert np.all(np.diff(pol.probabilities) <= 1e-12)
    assert np.all((pol.probabilities > 0) & (pol.probabilities < 1))


def test_lru_che_matches_simulation():
    # oracle: long-run occupancy from an explicit request-by-request replay
    a = zipf_popularity(20, 0.8)
    che = lru_che(a, 5).probabilities
    emp = lru_simulate(a, 5, 1_000_000, 100_000, np.random.default_rng(11))
    assert emp.sum() == pytest.approx(5.0, abs=1e-9)
    assert np.max(np.abs(emp - che)) < 0.02
    # empirical occupancy inherits the popularity ordering up to noise
    assert np.max(np.diff(emp)) < 0.01


def test_lru_simulate_rejects_bad_budgets():
    a = zipf_popularity(6, 0.8)
    with pytest.raises(ValueError):
        lru_simulate(a, 3, 100, 100, np.random.default_rng(0))
    # a content that is never requested keeps the cache from ever filling
    with pytest.raises(ValueError, match="never filled"):
        lru_simulate(np.array([1.0, 0.0]), 2, 1000, 10, np.random.default_rng(0))


def test_lru_empirical_policy_wraps_simulation():
    a = zipf_popularity(10, 0.8)
    pol = lru_empirical_policy(a, 3, 50_000, 5_000, np.random.default_rng(7))
    assert pol.kind == "lru_empirical"
    assert pol.cache_size == 3
    assert pol.probabilities.sum() == pytest.approx(3.0, abs=1e-9)


# --- bisection stop ----------------------------------------------------------

def rcp_200(a, cache_size, beta, tolerance=1e-10):
    """Oracle: `solve_rcp` with its bisection run for all 200 iterations."""
    a = _check_budget(a, cache_size)
    if cache_size == a.size:
        return np.ones(a.size)
    offsets = np.log(a) / beta

    def clipped(omega):
        return np.clip(omega + offsets, 0.0, 1.0)

    lo = -offsets.max()
    hi = 1.0 - offsets.min()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if clipped(mid).sum() - cache_size > 0.0:
            hi = mid
        else:
            lo = mid
    p = clipped(0.5 * (lo + hi))
    for _ in range(2):
        interior = (p > 0.0) & (p < 1.0)
        gap = cache_size - p.sum()
        if abs(gap) <= tolerance or not interior.any():
            break
        p[interior] += gap / interior.sum()
        p = np.clip(p, 0.0, 1.0)
    if abs(p.sum() - cache_size) > max(tolerance, 1e-9):
        raise RuntimeError("placement bisection failed to meet the budget tolerance")
    return PlacementPolicy(p, cache_size, "rcp").probabilities


def che_200(a, cache_size):
    """Oracle: `lru_che` with its bisection run for all 200 iterations."""
    a = _check_budget(a, cache_size)
    if cache_size == a.size:
        return np.ones(a.size)

    def occupancy(t):
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
    q += (cache_size - q.sum()) / q.size
    return PlacementPolicy(np.clip(q, 0.0, 1.0), cache_size, "lru_che").probabilities


def test_bisections_stop_at_their_fixed_point(monkeypatch):
    # stopping at the first halving that leaves the bracket unchanged gives
    # the bytes of 200 halvings, in far fewer residual evaluations
    evaluations = []
    bisect = caching._bisect

    def counted(above, lo, hi):
        evaluations.append(0)

        def counting(x):
            evaluations[-1] += 1
            return above(x)
        return bisect(counting, lo, hi)

    monkeypatch.setattr(caching, "_bisect", counted)
    rng = np.random.default_rng(20261019)
    cases = []
    for size in (2, 3, 10, 100, 1000):
        for cache_size in sorted({1, size - 1, int(rng.integers(1, size))}):
            for beta in (1e-6, 1e6, 10.0 ** rng.uniform(-6.0, 6.0)):
                kappa = rng.uniform(0.0, 2.0)
                cases.append((zipf_popularity(size, kappa), cache_size, beta))
            cases.append((rng.dirichlet(np.ones(size)), cache_size,
                          10.0 ** rng.uniform(-6.0, 6.0)))
    for a, cache_size, beta in cases:
        label = f"L={a.size} S={cache_size} beta={beta:g}"
        for solve, oracle, args in (
                (lambda *x: solve_rcp(*x).probabilities, rcp_200, (a, cache_size, beta)),
                (lambda *x: lru_che(*x).probabilities, che_200, (a, cache_size))):
            evaluations.clear()
            assert np.array_equal(solve(*args), oracle(*args)), label
            assert len(evaluations) == 1 and 0 < evaluations[0] < 200, label


def replayed_lru(a, cache_size: int, n_requests: int, warmup: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Oracle: the request-by-request OrderedDict replay that `lru_simulate`
    replaced, kept verbatim."""
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


def assert_same_as_replay(a, cache_size, n_requests, warmup, seed):
    outcomes = []
    for simulate in (lru_simulate, replayed_lru):
        try:
            outcomes.append(simulate(a, cache_size, n_requests, warmup,
                                     np.random.default_rng(seed)).tobytes())
        except ValueError as exc:
            outcomes.append(("ValueError", str(exc)))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lru_simulate_matches_the_replay(data):
    # small Dirichlet concentrations give near-zero popularities, so some
    # draws leave the cache unfilled and both sides must raise alike
    size = data.draw(st.integers(1, 60))
    cache_size = data.draw(st.integers(1, size))
    n_requests = data.draw(st.integers(2, 5000))
    warmup = data.draw(st.integers(0, n_requests - 1))
    alpha = data.draw(st.sampled_from([0.02, 0.2, 1.0, 10.0]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    a = np.random.default_rng(seed).dirichlet(np.full(size, alpha))
    assert_same_as_replay(a / a.sum(), cache_size, n_requests, warmup, seed)


def test_lru_simulate_matches_the_replay_with_a_full_library_cache():
    assert_same_as_replay(zipf_popularity(8, 0.8), 8, 4000, 500, 3)


def test_lru_simulate_fills_past_a_never_requested_content():
    # two requested contents fill a cache of two although a third never arrives
    a = np.array([0.5, 0.5, 0.0])
    occupancy = lru_simulate(a, 2, 1000, 10, np.random.default_rng(0))
    np.testing.assert_array_equal(occupancy, [1.0, 1.0, 0.0])
    assert_same_as_replay(a, 2, 1000, 10, 0)


def test_lru_simulate_matches_the_replay_across_chunks():
    # 150k post-window requests span three replay chunks, over contents
    # numbered above 256
    assert_same_as_replay(zipf_popularity(300, 0.8), 30, 200_000, 50_000, 5)


@pytest.mark.parametrize("size, cache_size", [(20, 5), (300, 30), (1000, 100)])
def test_lru_simulate_holds_the_trace_in_bounded_memory(size, cache_size):
    # the harness's 400k-request trace is drawn and scanned a chunk at a
    # time, one byte a request up to 256 contents and two beyond, so no
    # temporary spans the trace; it peaks at 1.4-2.0 MiB
    a = zipf_popularity(size, 0.8)
    tracemalloc.start()
    try:
        occupancy = lru_simulate(a, cache_size, 400_000, 100_000, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20
    want = replayed_lru(a, cache_size, 400_000, 100_000, np.random.default_rng(7))
    assert occupancy.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [256, 257])
def test_lru_simulate_matches_the_replay_at_the_request_type_edge(size):
    # 256 contents are numbered in one byte, 257 need two; every content is
    # requested, the last included
    a = np.full(size, 1.0 / size)
    occupancy = lru_simulate(a, 200, 20_000, 2_000, np.random.default_rng(size))
    assert occupancy[-1] > 0.0
    assert_same_as_replay(a, 200, 20_000, 2_000, size)


RARE = np.array([0.6, 0.4 - 1e-5, 1e-5])


def test_lru_simulate_opens_the_window_beyond_the_first_draw_chunk():
    # with S = L = 3 the window opens at the rare content's first arrival,
    # which at this seed lies past the first _REPLAY_CHUNK requests
    n_requests, seed = 400_000, 4
    trace = np.random.default_rng(seed).choice(3, size=n_requests, p=RARE)
    assert np.flatnonzero(trace == 2)[0] > caching._REPLAY_CHUNK
    assert_same_as_replay(RARE, 3, n_requests, 10, seed)


def test_lru_simulate_finds_a_cached_content_more_than_a_chunk_back():
    # the rare content is cached at the window start (S = L = 3), but its
    # last arrival before it lies more than a chunk back
    n_requests, warmup, seed = 400_000, 300_000, 2
    trace = np.random.default_rng(seed).choice(3, size=n_requests, p=RARE)
    assert warmup - np.flatnonzero(trace[:warmup + 1] == 2)[-1] > caching._REPLAY_CHUNK
    assert_same_as_replay(RARE, 3, n_requests, warmup, seed)
