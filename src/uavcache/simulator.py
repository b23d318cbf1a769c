"""Monte Carlo network simulator.

Independent oracle for the analytic capacity/EE pipeline: per trial, samples
the cooperators and the same-sub-channel interferers inside the zone (the
interferers thinned by the placement probability), draws per-link channels,
adds the interference from beyond the zone, and estimates rates empirically.

Interference from beyond the cooperation zone is the far-field model, from
the zone edge outward: links whose path-loss-times-shadowing product exceeds a
small threshold form a Poisson "spike" process of their own (the marking
theorem), sampled exactly on a log-radius grid; the remainder enters as a
deterministic mean floor computed from exact log-normal partial moments, and
the tail beyond the grid is added analytically.

A capacity trial splits in two. Beyond the cooperation zone every UAV on the
sub-channel interferes whatever it caches, so the far field is one
content-independent interference field per trial, shared by every content of
a system row (common random numbers). It is drawn once and memoized on
exactly what it reads (`_interference_field`), so the calls for the contents
of one scenario, trial count, seed and options all read one draw; a cleared
memo redraws the same bytes. Per content, only the cooperators and the
non-caching interferers inside the zone are drawn.

Determinism contract: every estimator derives its randomness from
counter-based Philox substreams keyed by (master seed, purpose, content) with
the chunk index in the counter block; the shared field has its own purpose
and content 0. Chunks own disjoint streams and are reduced in index order, so
results are bit-identical for any chunk execution order or thread count.
"""
from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox

from .analytics import ScenarioConfig, _poisson_k_max
from .channel import (ChannelConfig, Environment, los_probability, ndtr, ndtri,
                      path_loss, shadowing_log_moments, shadowing_sigma_db)
from .errors import ConfigError, ConvergenceError

_MASK64 = (1 << 64) - 1
# Philox stream purposes; each must be distinct, or two estimators replay
# one stream
_PURPOSE_CAPACITY = 1
_PURPOSE_EE = 2
_PURPOSE_LRU = 3    # the LRU request trace of lru_empirical placements
_PURPOSE_FIELD = 4
# expected far-field spikes per chunk above which a field draw is refused:
# sampling holds about 16.8 bytes per spike (CDF levels and gains; the marks
# are computed _SPIKE_BLOCK spikes at a time), so about 280 MB at the
# budget, and at the default 1024-trial chunk it refuses above 16384
# expected spikes per trial
_SPIKE_BUDGET = 2 ** 24
_SPIKE_BLOCK = 8192


@dataclass(frozen=True)
class SimOptions:
    """Estimator controls (trial counts and seeds are explicit arguments).

    Trials run in chunks of `chunk_size`, each with its own random streams,
    so the chunk size is part of what a result depends on. A chunk's
    far-field spikes are bounded by _SPIKE_BUDGET: at the default 1024 a
    field draw is refused above 16384 expected spikes per trial.
    """

    spike_rel: float = 1e-6
    chunk_size: int = 1024
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if not self.spike_rel >= 1e-12:
            raise ConfigError(f"spike_rel = {self.spike_rel} out of range (must be >= 1e-12)")
        if self.chunk_size < 1 or self.n_jobs < 1:
            raise ConfigError("chunk_size and n_jobs must be >= 1")


@dataclass(frozen=True, eq=False)
class SimEstimate:
    """Sample mean with its standard error, and the per-trial values it
    averages when an estimator produced them."""

    mean: float
    stderr: float
    n_trials: int
    samples: np.ndarray | None = None

    @classmethod
    def of(cls, samples: np.ndarray) -> SimEstimate:
        """Mean and standard error of the per-trial values."""
        n = samples.size
        std = float(samples.std(ddof=1)) if n > 1 else 0.0
        return cls(float(samples.mean()), std / math.sqrt(n), n, samples)

    @property
    def half_width(self) -> float:
        """95% confidence half-width."""
        return 1.96 * self.stderr


def _chunk_rng(seed: int, purpose: int, content: int, chunk: int) -> np.random.Generator:
    # as Python ints: numpy integers overflow against the 64-bit mask
    seed, content = operator.index(seed), operator.index(content)
    key = np.array([seed & _MASK64, ((purpose << 32) | content) & _MASK64],
                   dtype=np.uint64)
    counter = np.array([0, 0, 0, chunk], dtype=np.uint64)
    return Generator(Philox(key=key, counter=counter))


def _draw_links(rng: np.random.Generator, radii: np.ndarray, env: Environment,
                ch: ChannelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-link LOS flags and gains L * V * W: mode draw, shadowing
    V = 10^(-U/10) with U ~ Normal(mu, sigma(r)^2) in dB, unit-mean Nakagami
    power fading W ~ Gamma(W_n, 1/W_n), and path loss L. Every link inside
    the cooperation zone is drawn here.

    Draw order (mode uniforms, then one normal block, then one gamma block) is
    part of the determinism contract.
    """
    n = radii.size
    h = ch.altitude_km
    los = rng.random(n) < los_probability(radii, h, env)
    mu = np.where(los, env.mu_los, env.mu_nlos)
    sigma = np.where(los,
                     shadowing_sigma_db(radii, h, "los", env),
                     shadowing_sigma_db(radii, h, "nlos", env))
    v = 10.0 ** (-rng.normal(mu, sigma) / 10.0)
    wbar = np.where(los, ch.nakagami_los, ch.nakagami_nlos)
    w = rng.gamma(wbar, 1.0 / wbar)
    alpha = np.where(los, ch.alpha_los, ch.alpha_nlos)
    k = np.where(los, ch.k_los, ch.k_nlos)
    loss = k * (h * h + radii * radii) ** (-alpha / 2.0)
    return los, loss * v * w


def _spike_law(z: np.ndarray, mode: str, env: Environment, ch: ChannelConfig,
               tau: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """One mode's far-field law at ranges z: (m_ln, s_ln) of ln V, the path
    loss L, and the standardized threshold a_std = (ln(tau/L) - m_ln)/s_ln
    above which ln V makes the link a spike (L V > tau)."""
    h = ch.altitude_km
    m_ln, s_ln = shadowing_log_moments(z, h, mode, env)
    m_ln = float(m_ln)  # range-independent
    s_ln = np.asarray(s_ln, dtype=float)
    loss = path_loss(z, h, mode, ch)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_std = (np.log(tau / loss) - m_ln) / s_ln
    return m_ln, s_ln, loss, a_std


class _SpikeMode:
    """One mode's far-field spikes: their expected count per trial `lam`, the
    piecewise-linear CDF `cum` of their range over the grid `zg`, and the law
    of their marks (tail-conditioned log-normal shadowing, Nakagami fading).

    A guide table (Chen & Asau, AIIE Trans. 1974) splits u in [0, 1) into a
    power of two of at least 16 buckets per CDF node, so a bucket index is
    exact; each bucket holds the one `cum` cell it lies in, or -1 when a
    breakpoint falls inside it and the spike's cell is found by searchsorted.
    Range and spread are then read from that cell: the law of
    np.interp(u, cum, zg) and np.interp(z, zg, s_ln), to an ulp.
    """

    def __init__(self, zg: np.ndarray, cum: np.ndarray, s_ln: np.ndarray,
                 m_ln: float, lam: float, tau: float, h: float, alpha: float,
                 k: float, wbar: float):
        self.zg, self.cum, self.s_ln, self.m_ln = zg, cum, s_ln, m_ln
        self.lam, self.tau = lam, tau
        self.h2, self.alpha, self.k, self.wbar = h * h, alpha, k, wbar
        with np.errstate(divide="ignore"):  # a flat cell is never drawn
            self.z_slope = np.diff(zg) / np.diff(cum)
        self.s_slope = np.diff(s_ln) / np.diff(zg)
        n_buckets = 1 << (16 * cum.size - 1).bit_length()
        edges = np.arange(n_buckets + 1) / n_buckets
        first = np.searchsorted(cum, edges[:-1], side="right") - 1
        last = np.searchsorted(cum, edges[1:], side="left") - 1
        self.guide = np.where(first == last, first, -1)

    def locate(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Range z and ln-shadowing spread s_ln of spikes at CDF levels u."""
        j = self.guide[(u * self.guide.size).astype(np.intp)]
        miss = np.flatnonzero(j < 0)
        j[miss] = np.searchsorted(self.cum, u[miss], side="right") - 1
        # np.interp's slope form on cell j: z bit for bit, s_ln to an ulp
        d = self.cum[j]
        np.subtract(u, d, out=d)
        zj = self.zg[j]
        z = self.z_slope[j]
        z *= d
        z += zj
        np.subtract(z, zj, out=d)
        s = self.s_slope[j]
        s *= d
        s += np.take(self.s_ln, j, out=d)
        return z, s

    def gains(self, u: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Path loss times shadowing L V of spikes at CDF levels u, with ln V
        drawn from its normal law conditioned on L V > tau by inversion of the
        uniforms r: ln V = m_ln - s_ln Phi^-1((1 - r) Phi(-a)), a the
        standardized threshold. Overwrites r with the result."""
        loss, s = self.locate(u)
        # L = k (h^2 + z^2)^(-alpha/2), in the range's buffer
        loss *= loss
        loss += self.h2
        loss **= -self.alpha / 2.0
        loss *= self.k
        # Phi(-a), -a = (m_ln - ln(tau/L)) / s_ln
        a = np.divide(self.tau, loss)
        np.log(a, out=a)
        np.subtract(self.m_ln, a, out=a)
        a /= s
        ndtr(a, out=a)
        # ln V = m_ln - s_ln Phi^-1((1 - r) Phi(-a)), then L V
        np.subtract(1.0, r, out=r)
        r *= a
        ndtri(r, out=r)
        r *= s
        np.subtract(self.m_ln, r, out=r)
        np.exp(r, out=r)
        r *= loss
        return r


class _FarField:
    """Spike intensities and mean floor for interference beyond the
    cooperation zone X at interferer density lam_i, with spikes resolved
    down to spike_rel (`_spike_threshold`).

    Per mode, links with path_loss * V > tau are a Poisson process on a
    log-radius grid from the zone edge (sampled exactly via inverse-CDF radii
    and tail-conditioned log-normal gains, see _SpikeMode); weaker links
    contribute their exact sub-threshold mean.
    The grid extends adaptively until the expected spike count beyond it is
    negligible, so heavy grazing-angle shadowing cannot park unsampled spikes
    past a fixed horizon. Beyond the grid the power-law tail closes with the
    sub-threshold mean as well: the full log-normal mean would count saturated
    shadowing mass that belongs to the (exhausted) spike class and would
    overstate far interference.
    """

    _PROBE_SPAN = 45.0   # e-folds of radius probed for the grid end
    _PROBE_STEP = 0.05
    _SPIKE_TAIL = 1e-6   # expected spikes allowed beyond the grid

    def __init__(self, env: Environment, ch: ChannelConfig, lam_i: float,
                 x: float, spike_rel: float):
        h = ch.altitude_km
        tau = _spike_threshold(env, ch, x, spike_rel)
        zg = self._grid(env, ch, lam_i, x, tau)
        p_los = los_probability(zg, h, env)
        self.modes = []
        floor = 0.0
        for mode, pm in (("los", p_los), ("nlos", 1.0 - p_los)):
            alpha, k, wbar = ch.mode_params(mode)
            m_ln, s_ln, loss, a_std = _spike_law(zg, mode, env, ch, tau)
            p_spike = ndtr(-a_std)
            rho = 2.0 * math.pi * lam_i * zg * pm * p_spike
            lam_tot = float(np.trapezoid(rho, zg))
            cum = np.concatenate(([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(zg))))
            mean_full = np.exp(m_ln + 0.5 * s_ln ** 2)
            mean_sub = mean_full * ndtr(a_std - s_ln)  # E[V; V <= tau/L]
            floor += float(np.trapezoid(2.0 * math.pi * lam_i * zg * pm * loss * mean_sub, zg))
            pm_inf = float(np.asarray(pm).reshape(-1)[-1])
            floor += (2.0 * math.pi * lam_i * pm_inf * k * float(mean_sub[-1])
                      * float(zg[-1]) ** (2.0 - alpha) / (alpha - 2.0))
            self.modes.append(_SpikeMode(zg, cum / max(cum[-1], 1e-300), s_ln, m_ln,
                                         lam_tot, tau, h, alpha, k, wbar))
        self.floor = floor

    @classmethod
    def _grid(cls, env: Environment, ch: ChannelConfig, lam_i: float,
              x: float, tau: float) -> np.ndarray:
        """Log-radius grid from the zone edge x to where the residual spike
        intensity dies."""
        h = ch.altitude_km
        u = math.log(x) + cls._PROBE_STEP * np.arange(
            int(cls._PROBE_SPAN / cls._PROBE_STEP) + 1)
        zp = np.exp(u)
        p_los = los_probability(zp, h, env)
        resid = np.zeros(zp.size)
        for mode, pm in (("los", p_los), ("nlos", 1.0 - p_los)):
            *_, a_std = _spike_law(zp, mode, env, ch, tau)
            # intensity per unit ln z: 2 pi lam z^2 p_mode P(spike)
            rho = 2.0 * math.pi * lam_i * zp * zp * pm * ndtr(-a_std)
            seg = 0.5 * (rho[1:] + rho[:-1]) * cls._PROBE_STEP
            resid[:-1] += np.cumsum(seg[::-1])[::-1]
        end = int(np.argmax(resid < cls._SPIKE_TAIL))
        span = max(float(u[end] - u[0]), 2.0)
        n = max(400, int(math.ceil(span / 0.018)))
        return np.exp(np.linspace(u[0], u[0] + span, n))

    def sample(self, rng: np.random.Generator, n_trials: int) -> np.ndarray:
        """Per-trial spike interference. Fixed draw order per mode: counts,
        positions, conditioned shadowing, fading, each one draw for all the
        mode's spikes; the marks in between are computed _SPIKE_BLOCK spikes
        at a time."""
        out = np.zeros(n_trials)
        for md in self.modes:
            if md.lam <= 0.0:
                continue
            counts = rng.poisson(md.lam, n_trials)
            tot = int(counts.sum())
            if tot == 0:
                continue
            u = rng.random(tot)
            gains = rng.random(tot)
            for lo in range(0, tot, _SPIKE_BLOCK):
                md.gains(u[lo:lo + _SPIKE_BLOCK], gains[lo:lo + _SPIKE_BLOCK])
            del u  # before the fading draw: 16 bytes per spike at most
            gains *= rng.gamma(md.wbar, 1.0 / md.wbar, tot)
            out += _per_trial_sum(n_trials, counts, gains)
        return out


def _spike_threshold(env: Environment, ch: ChannelConfig, x: float,
                     spike_rel: float) -> float:
    """Far-field spikes are resolved down to spike_rel times the typical
    zone-edge LOS signal gain (path loss times median shadowing) at radius x."""
    m_ln, _ = shadowing_log_moments(x, ch.altitude_km, "los", env)
    return spike_rel * float(path_loss(x, ch.altitude_km, "los", ch)) * math.exp(float(m_ln))


def _truncated_poisson_cdf(m: float) -> np.ndarray:
    """CDF table of the zero-truncated Poisson for inverse-CDF sampling.

    The table grows until the tail mass beyond it falls below 1e-15; a table
    that reaches 10000 terms with more tail mass left raises ConvergenceError.
    """
    k_min = _poisson_k_max(m, 1e-15)
    k_hi = 1
    while k_hi < k_min:
        if k_hi >= 10000:
            raise ConvergenceError(
                f"cooperator count table for mean m_c = {m:.6g} did not reach "
                f"its 1e-15 tail within {k_hi} terms")
        k_hi = max(k_hi + 1, int(1.5 * k_hi))
    ks = np.arange(1, k_hi + 1, dtype=float)
    log_pmf = ks * math.log(m) - m - np.cumsum(np.log(ks))
    pmf = np.exp(log_pmf) / -math.expm1(-m)
    return np.cumsum(pmf)


def _per_trial_sum(n: int, counts: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Sum gains into n trials that own counts[t] consecutive entries each.
    Always float64: with no entries at all, bincount would return int64."""
    return np.bincount(np.repeat(np.arange(n), counts), weights=gains,
                       minlength=n).astype(float, copy=False)


def _capacity_chunk(cfg: ScenarioConfig, p_c: float, n: int,
                    rng: np.random.Generator, trunc_cdf: np.ndarray,
                    field: np.ndarray) -> np.ndarray:
    """Per-trial rate samples log(1+SIR) of one content for one chunk, given
    the chunk's shared field (canonical draw order: cooperator counts, signal
    links, in-zone interferer counts, their radii and links)."""
    env, ch = cfg.env, cfg.channel
    x = cfg.coop_radius_km

    u = rng.random(n)
    k = np.minimum(np.searchsorted(trunc_cdf, u, side="right") + 1,
                   trunc_cdf.size)
    r_sig = x * np.sqrt(rng.random(int(k.sum())))
    _, g_sig = _draw_links(rng, r_sig, env, ch)
    signal = _per_trial_sum(n, k, g_sig)

    # inside the zone only the UAVs that do not cache the content interfere
    n_in = rng.poisson(cfg.interferer_density * (1.0 - p_c) * math.pi * x * x, n)
    r_in = x * np.sqrt(rng.random(int(n_in.sum())))
    _, g_in = _draw_links(rng, r_in, env, ch)
    interference = _per_trial_sum(n, n_in, g_in) + field

    # the far-field floor keeps the interference positive
    return np.log1p(signal / interference)


def _run_chunks(worker, n_trials: int, chunk_size: int, n_jobs: int,
                make_rng) -> np.ndarray:
    """Evaluate worker(rng, trials) over all chunks, where trials is the
    chunk's slice of the trial range, reducing in chunk order regardless of
    execution order."""
    n_chunks = (n_trials + chunk_size - 1) // chunk_size

    def run(i: int) -> np.ndarray:
        lo = i * chunk_size
        return worker(make_rng(i), slice(lo, min(lo + chunk_size, n_trials)))

    if n_jobs > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            parts = list(pool.map(run, range(n_chunks)))
    else:
        parts = [run(i) for i in range(n_chunks)]
    return np.concatenate(parts)


@lru_cache(maxsize=1)
def _interference_field(env: Environment, ch: ChannelConfig, lam_i: float,
                        x: float, n_trials: int, seed: int,
                        opts: SimOptions) -> np.ndarray:
    """Per-trial interference from the UAVs beyond the cooperation zone x at
    interferer density lam_i: far-field spikes plus floor, read-only.

    Memoized on exactly what the draw reads, placement excluded, so every
    content of a row reads one draw; one entry holds a row's n_trials
    floats. The options go in whole: n_jobs moves no byte, but keeps a
    serial and a threaded run from sharing one draw.
    """
    far = _FarField(env, ch, lam_i, x, opts.spike_rel)
    spikes = sum(md.lam for md in far.modes) * min(opts.chunk_size, n_trials)
    if spikes > _SPIKE_BUDGET:
        raise ConvergenceError(
            f"environment {env.name!r} expects {spikes:.2e} far-field "
            f"spikes per chunk (> {_SPIKE_BUDGET}); its grazing-angle "
            "shadowing spread is too wide at spike_rel = "
            f"{opts.spike_rel:g}, raise spike_rel")

    def worker(rng: np.random.Generator, trials: slice) -> np.ndarray:
        return far.sample(rng, trials.stop - trials.start) + far.floor

    vals = _run_chunks(worker, n_trials, opts.chunk_size, opts.n_jobs,
                       lambda i: _chunk_rng(seed, _PURPOSE_FIELD, 0, i))
    vals.flags.writeable = False
    return vals


def estimate_capacity(cfg: ScenarioConfig, content: int, n_trials: int,
                      seed: int, options: SimOptions | None = None) -> SimEstimate:
    """Monte Carlo estimate of the average rate of one content (1-based
    index), nats per channel use, with its per-trial values as `samples`.

    The estimand is E[ln(1 + SIR)], the quantity content_capacity computes.
    Each trial draws the cooperator count from the zero-truncated Poisson, so
    every trial has a signal, and the mean is scaled by the nonempty-zone
    probability 1 - exp(-m_c); an empty zone contributes rate zero.

    The interference beyond the zone is `_interference_field`'s memoized
    draw, so the estimates of a scenario's contents at one trial count, seed
    and options are correlated: combine them per trial through `samples`.
    """
    opts = options or SimOptions()
    content = operator.index(content)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not 1 <= content <= cfg.library.size:
        raise ValueError("content index out of range")
    p_c = float(cfg.policy.probabilities[content - 1])
    m_c = cfg.coop_mean(p_c)
    if p_c <= 0.0 or m_c <= 0.0:
        return SimEstimate.of(np.zeros(n_trials))
    field = _interference_field(cfg.env, cfg.channel, cfg.interferer_density,
                                cfg.coop_radius_km, n_trials, seed, opts)
    trunc_cdf = _truncated_poisson_cdf(m_c)

    def worker(rng: np.random.Generator, trials: slice) -> np.ndarray:
        return _capacity_chunk(cfg, p_c, trials.stop - trials.start, rng,
                               trunc_cdf, field[trials])

    vals = _run_chunks(worker, n_trials, opts.chunk_size, opts.n_jobs,
                       lambda i: _chunk_rng(seed, _PURPOSE_CAPACITY, content, i))
    vals *= -math.expm1(-m_c)
    return SimEstimate.of(vals)


def estimate_ee(cfg: ScenarioConfig, capacity_bits: np.ndarray, n_trials: int,
                seed: int, options: SimOptions | None = None) -> SimEstimate:
    """Empirical energy efficiency in bits per joule.

    Per trial, draws a cooperator count per content and accumulates
    popularity * rate / (count * fixed_power + slope * rate) over contents
    with a nonempty cooperation set. Rates are per-content averages in bits
    per channel use (e.g. from CapacityReport.per_content_bits).
    """
    opts = options or SimOptions()
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rates = np.asarray(capacity_bits, dtype=float)
    if rates.shape != (cfg.library.size,):
        raise ValueError("need one capacity value per content")
    a = cfg.library.popularity
    m = cfg.zone_mean_uavs * cfg.policy.probabilities
    fixed = cfg.power.fixed_power(cfg.policy.cache_size)
    zeta = cfg.power.rate_power_slope
    live = (m > 0.0) & (rates > 0.0)

    def worker(rng: np.random.Generator, trials: slice) -> np.ndarray:
        n = trials.stop - trials.start
        k = rng.poisson(np.broadcast_to(m, (n, m.size)))
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where((k > 0) & live[None, :],
                             a[None, :] * rates[None, :]
                             / (k * fixed + zeta * rates[None, :]),
                             0.0)
        return terms.sum(axis=1)

    return SimEstimate.of(_run_chunks(worker, n_trials, opts.chunk_size, opts.n_jobs,
                                      lambda i: _chunk_rng(seed, _PURPOSE_EE, 0, i)))
