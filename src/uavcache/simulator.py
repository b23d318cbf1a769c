"""Monte Carlo network simulator.

Independent oracle for the analytic capacity/EE pipeline: per trial, samples
the cooperators and the same-sub-channel interferers inside the zone (the
interferers thinned by the placement probability), draws per-link channels,
adds the interference from beyond the zone, and estimates rates empirically.

Interference from beyond the cooperation zone is the far-field model, from
the zone edge outward: links whose path-loss-times-shadowing product exceeds a
threshold form a Poisson "spike" process of their own (the marking theorem),
sampled exactly on a log-radius grid; the remainder enters as a deterministic
mean floor computed from exact log-normal partial moments, and the tail
beyond the grid is added analytically. The threshold is the largest whose
floor biases a rate by at most _FLOOR_BIAS nats (`_FarField._threshold`).

A capacity trial splits in two. Beyond the cooperation zone every UAV on the
sub-channel interferes whatever it caches, so the far field is one
content-independent interference field per trial, shared by every content of
a system row (common random numbers). It is drawn once and memoized on
exactly what it reads (`_interference_field`). Inside the zone, one pass per
row (`_zone_rates`, memoized the same way, the placement included) draws the
cooperators and the non-caching interferers of every live content against
that field, so the calls for the contents of one scenario, trial count, seed
and options all read one pass; cleared memos redraw the same bytes.

A row's energy efficiency draws nothing: `estimate_ee` evaluates the exact
Poisson sum over the cooperator count at the row's simulated rates.

Determinism contract: every estimator derives its randomness from
counter-based Philox substreams keyed by (master seed, purpose, 0) with the
chunk index in the counter block; the field, the zone pass and the LRU
request trace each have their own purpose. A zone chunk draws the live
contents in library order, a block of them at a time (`_Zone.fill`), so a
content's bytes depend on the whole placement. Chunks own disjoint streams and write
disjoint slices, so results are bit-identical for any chunk execution order
or thread count.
"""
from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox

from .analytics import (CapacityReport, ScenarioConfig, _log_factorial,
                        _poisson_k_max, energy_efficiency_exact)
from .channel import (ChannelConfig, Environment, log_ndtr, los_probability, ndtr,
                      ndtri, path_loss, shadowing_log_moments, shadowing_sigma_db)
from .errors import ConfigError, ConvergenceError

_MASK64 = (1 << 64) - 1
# Philox stream purposes; each must be distinct, or two estimators replay
# one stream, and none may be renumbered, or its stream's bytes move (2 was
# the deleted EE sampler's)
_PURPOSE_CAPACITY = 1
_PURPOSE_LRU = 3    # the LRU request trace of lru_empirical placements
_PURPOSE_FIELD = 4
# expected far-field spikes per chunk above which a field draw is refused:
# sampling holds about 16.8 bytes per spike (CDF levels and gains; the marks
# are computed _SPIKE_BLOCK spikes at a time), so about 280 MB at the
# budget, and at the default 1024-trial chunk it refuses above 16384
# expected spikes per trial. A zone chunk draws its contents in blocks of
# about _SPIKE_BLOCK expected links.
_SPIKE_BUDGET = 2 ** 24
_SPIKE_BLOCK = 8192
# rate bias, in nats, that the far field's sub-threshold floor may cause, and
# the quarter-decade lattice points below the zone-edge gain its threshold is
# chosen from (`_FarField._threshold`)
_FLOOR_BIAS = 5e-4
_TAU_STEPS = 48


@dataclass(frozen=True)
class SimOptions:
    """Estimator controls (trial counts and seeds are explicit arguments).

    Trials run in chunks of `chunk_size`, each with its own random streams,
    so the chunk size is part of what a result depends on. A chunk's
    far-field spikes are bounded by _SPIKE_BUDGET: at the default 1024 a
    field draw is refused above 16384 expected spikes per trial.
    """

    chunk_size: int = 1024
    n_jobs: int = 1

    def __post_init__(self) -> None:
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


def _chunk_rng(seed: int, purpose: int, chunk: int) -> np.random.Generator:
    # as a Python int: a numpy integer overflows against the 64-bit mask
    seed = operator.index(seed)
    key = np.array([seed & _MASK64, purpose << 32], dtype=np.uint64)
    counter = np.array([0, 0, 0, chunk], dtype=np.uint64)
    return Generator(Philox(key=key, counter=counter))


def _draw_links(rng: np.random.Generator, radii: np.ndarray, env: Environment,
                ch: ChannelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-link LOS flags and gains L * V * W: mode draw, shadowing
    V = 10^(-U/10) with U ~ Normal(mu, sigma(r)^2) in dB, unit-mean Nakagami
    power fading W ~ Gamma(W_n, 1/W_n), and path loss L. Every link inside
    the cooperation zone is drawn here.

    Draw order (mode uniforms, then one normal block, then one gamma block) is
    part of the determinism contract. The arithmetic runs in place and frees
    each array once read; the gain is (L V) W, in that order.
    """
    n = radii.size
    h = ch.altitude_km
    los = rng.random(n) < los_probability(radii, h, env)
    mu = np.where(los, env.mu_los, env.mu_nlos)
    sigma = shadowing_sigma_db(radii, h, "los", env)
    np.copyto(sigma, shadowing_sigma_db(radii, h, "nlos", env), where=~los)
    v = rng.normal(mu, sigma)
    del mu, sigma
    # V = 10^(-U/10)
    np.negative(v, out=v)
    v /= 10.0
    np.power(10.0, v, out=v)
    wbar = np.where(los, ch.nakagami_los, ch.nakagami_nlos)
    w = rng.gamma(wbar, 1.0 / wbar)
    del wbar
    # L = k (h^2 + r^2)^(-alpha/2)
    loss = radii * radii
    loss += h * h
    alpha = np.where(los, ch.alpha_los, ch.alpha_nlos)
    np.negative(alpha, out=alpha)
    alpha /= 2.0
    loss **= alpha
    del alpha
    loss *= np.where(los, ch.k_los, ch.k_nlos)
    loss *= v
    loss *= w
    return los, loss


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
    down to the threshold tau of `_threshold`: its lattice index `k`, its
    bound `bias` B(tau), and `spikes`, the expected spikes per trial.

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
    _BIAS_THIN = 10      # the bound reads every 10th, half an e-fold apart
    _SPIKE_TAIL = 1e-6   # expected spikes allowed beyond the grid

    def __init__(self, env: Environment, ch: ChannelConfig, lam_i: float,
                 x: float):
        h = ch.altitude_km
        self.k, self.tau, self.bias = self._threshold(env, ch, lam_i, x)
        tau = self.tau
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
        self.spikes = sum(md.lam for md in self.modes)

    @classmethod
    def _threshold(cls, env: Environment, ch: ChannelConfig, lam_i: float,
                   x: float) -> tuple[int, float, float]:
        """(k, tau, B(tau)): the largest threshold tau_k = g 10^(k/4),
        k = -_TAU_STEPS..0, whose bound B(tau) = Var(I_sub) / (2 E[I_sub]^2)
        is at most _FLOOR_BIAS (the finest, k = -_TAU_STEPS, when none is),
        with g the zone-edge LOS median gain `_edge_gain`.

        Why B bounds the floor's bias. The floor stands in for I_sub, the
        interference of the links with L V <= tau, by its mean. A trial's
        rate r = ln(1 + S/I) has I^2 r'' = 1 - 1/(1 + S/I)^2 <= min(1, 2r)
        in its interference I, which is at least E[I_sub]; so to second
        order the floor moves the rate by (1/2) r'' Var(I_sub) <=
        B min(1, 2r). By Campbell's theorem (Haenggi, Stochastic Geometry for
        Wireless Networks, CUP 2012, ch. 4), with p_n, L_n and W_n each
        mode's probability, path loss and Nakagami shape,
          E[I_sub] = int 2 pi lam_i z sum_n p_n L_n E[V_n; L_n V_n <= tau] dz,
          Var(I_sub) = int 2 pi lam_i z sum_n p_n L_n^2 (1 + 1/W_n)
                           E[V_n^2; L_n V_n <= tau] dz,
        with the log-normal partial moments taken as exp(... + log_ndtr(...)),
        so a wide grazing spread cannot overflow them.

        Why 5e-4 nats. At the default 10k trials B min(1, 2r) stays below a
        tenth of a content's standard error: measured for every live content
        of the rcp placement in each environment at X = 1 and 3 km and at
        1e-3 and 1 UAVs per km^2, it is at most 0.072 of it. Per-trial spreads (given a nonempty zone) are
        1.1-2.9 nats at 1e-3 UAVs per km^2, where min(1, 2r) = 1; at 1 per
        km^2 they fall to 0.001-0.3 nats, but there the SIR is low, the rate
        falls with the spread and the 2r factor applies.

        One (tau, z) array pass: every lattice tau against every
        _BIAS_THIN-th probe point, a trapezoid in ln z, each mode's power-law
        tail beyond the last point closed with its marks there. B need not
        be monotone in tau. The result does not change when both path-loss
        intercepts are scaled by a power of two: it reads L / g only.
        """
        h = ch.altitude_km
        g = _edge_gain(env, ch, x)
        step = cls._PROBE_STEP * cls._BIAS_THIN
        z = np.exp(math.log(x) + step * np.arange(int(cls._PROBE_SPAN / step) + 1))
        # per unit ln z, trapezoid weights: 2 pi lam_i z^2 dln z
        dens = 2.0 * math.pi * lam_i * z * z
        weights = dens * step
        weights[[0, -1]] *= 0.5
        log_t = (math.log(10.0) / 4.0) * np.arange(-_TAU_STEPS, 1)  # ln(tau/g)
        p_los = los_probability(z, h, env)
        mean = var = 0.0
        for mode, pm in (("los", p_los), ("nlos", 1.0 - p_los)):
            alpha, _, wbar = ch.mode_params(mode)
            m_ln, s = shadowing_log_moments(z, h, mode, env)
            ell = np.log(path_loss(z, h, mode, ch) / g)
            # a = (ln(tau/L) - m_ln) / s_ln, a row per tau, and per g and g^2
            # the moments L E[V; LV <= tau] and L^2 (1 + 1/W) E[V^2; LV <= tau]
            a = (log_t[:, None] - (ell + m_ln)) / s
            part_mean = log_ndtr(a - s)
            part_mean += ell + m_ln + 0.5 * s * s
            np.exp(part_mean, out=part_mean)
            a -= 2.0 * s
            part_var = log_ndtr(a, out=a)
            part_var += 2.0 * (ell + m_ln + s * s) + math.log1p(1.0 / wbar)
            np.exp(part_var, out=part_var)
            tail = dens[-1] * pm[-1]
            mean = mean + part_mean @ (weights * pm) + part_mean[:, -1] * (tail / (alpha - 2.0))
            var = var + part_var @ (weights * pm) + part_var[:, -1] * (tail / (2.0 * alpha - 2.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            bias = 0.5 * var / (mean * mean)
        ok = np.flatnonzero(bias <= _FLOOR_BIAS)
        j = int(ok[-1]) if ok.size else 0
        k = j - _TAU_STEPS
        return k, g * 10.0 ** (k / 4.0), float(bias[j])

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

    def overload(self, n_trials: int) -> str | None:
        """Why a chunk of n_trials is refused before it samples: it expects
        more than _SPIKE_BUDGET spikes. None when it is not."""
        spikes = self.spikes * n_trials
        if spikes <= _SPIKE_BUDGET:
            return None
        return (f"expects {spikes:.2e} far-field spikes per chunk of {n_trials} "
                f"trials (> {_SPIKE_BUDGET}) at threshold tau = g(X) 10^({self.k}/4); "
                "lower simulation.chunk_size")

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


def _edge_gain(env: Environment, ch: ChannelConfig, x: float) -> float:
    """The typical zone-edge LOS signal gain g(X): path loss times median
    shadowing at radius x, the scale of the far field's threshold lattice."""
    m_ln, _ = shadowing_log_moments(x, ch.altitude_km, "los", env)
    return float(path_loss(x, ch.altitude_km, "los", ch)) * math.exp(float(m_ln))


def _truncated_poisson_cdf(m: float) -> np.ndarray:
    """CDF table of the zero-truncated Poisson for inverse-CDF sampling.

    The table holds k = 1..K, K the smallest count whose zero-truncated tail
    mass P(N > K)/(1 - e^-m) is below 1e-15 (`_poisson_k_max`), with the pmf
    of the analytic EE sum; a K above 10000 raises ConvergenceError.
    """
    k_max = _poisson_k_max(m, 1e-15 * -math.expm1(-m))
    if k_max > 10000:
        raise ConvergenceError(
            f"cooperator count table for mean m_c = {m:.6g} needs {k_max} terms "
            "(> 10000) to reach its 1e-15 tail")
    ks = np.arange(1, k_max + 1, dtype=float)
    pmf = np.exp(ks * math.log(m) - m - _log_factorial(ks)) / -math.expm1(-m)
    return np.cumsum(pmf)


def _per_trial_sum(n: int, counts: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Sum gains into n trials that own counts[t] consecutive entries each.
    Always float64: with no entries at all, bincount would return int64."""
    return np.bincount(np.repeat(np.arange(n), counts), weights=gains,
                       minlength=n).astype(float, copy=False)


def _live(zone_mean: float, p: np.ndarray) -> np.ndarray:
    """Which contents are live: cached somewhere (p_c > 0) with a positive
    mean cooperator count m_c = zone_mean * p_c. The rest have rate zero."""
    return (p > 0.0) & (zone_mean * p > 0.0)


class _Zone:
    """The in-zone law of a placement's live contents, in library order: per
    content the zero-truncated Poisson table of its cooperator count, its
    nonempty-zone probability 1 - exp(-m_c), and its mean in-zone
    interferer count lam_i (1 - p_c) pi X^2 (inside the zone only the UAVs
    that do not cache the content interfere).

    Consecutive live contents are drawn in blocks of about _SPIKE_BLOCK
    expected links per chunk of n trials (at least one content a block), so
    a chunk of every live content takes a few link draws with bounded
    temporaries.
    """

    def __init__(self, env: Environment, ch: ChannelConfig, zone_mean: float,
                 lam_i: float, x: float, p: np.ndarray, n: int):
        self.env, self.ch, self.x = env, ch, x
        p = p[_live(zone_mean, p)]
        m = zone_mean * p
        self.size = p.size
        self.cdfs = [_truncated_poisson_cdf(float(mc)) for mc in m]
        self.nonempty = -np.expm1(-m)
        self.mean_in = lam_i * (1.0 - p) * math.pi * x * x
        links = n * (m / self.nonempty + self.mean_in)
        self.blocks = []
        lo, held = 0, 0.0
        for j, e in enumerate(links):
            if j > lo and held + e > _SPIKE_BLOCK:
                self.blocks.append(slice(lo, j))
                lo, held = j, 0.0
            held += e
        self.blocks.append(slice(lo, self.size))

    def fill(self, rng: np.random.Generator, out: np.ndarray,
             field: np.ndarray) -> None:
        """Write the live contents' per-trial rates, log(1 + SIR) times the
        nonempty probability, for one chunk into out (n_live, n), given the
        chunk's far field (n,). Canonical draw order, block by block:
        cooperator-count uniforms, signal radii and links, in-zone
        interferer counts, their radii and links."""
        for blk in self.blocks:
            rates = out[blk]
            rates[...] = self._link_sums(rng, self._coop_counts(rng, blk, rates.shape))
            # the far-field floor keeps the interference positive
            rates /= self._link_sums(
                rng, rng.poisson(self.mean_in[blk, None], rates.shape)) + field
            np.log1p(rates, out=rates)
            rates *= self.nonempty[blk, None]

    def _coop_counts(self, rng: np.random.Generator, blk: slice,
                     shape: tuple[int, int]) -> np.ndarray:
        """Cooperator counts of a block's contents, by inversion of their
        zero-truncated Poisson tables."""
        u = rng.random(shape)
        return np.stack([np.minimum(np.searchsorted(cdf, uj, side="right") + 1, cdf.size)
                         for cdf, uj in zip(self.cdfs[blk], u)])

    def _link_sums(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        """Per-trial sums of the gains of counts[j, t] links area-uniform on
        the zone, drawn as one block: radii, then links."""
        r = rng.random(int(counts.sum()))
        np.sqrt(r, out=r)
        r *= self.x
        _, gains = _draw_links(rng, r, self.env, self.ch)
        return _per_trial_sum(counts.size, counts.ravel(), gains).reshape(counts.shape)


def _run_chunks(worker, n_trials: int, seed: int, purpose: int,
                opts: SimOptions) -> None:
    """Run worker(rng, trials) over all chunks, where rng is the chunk's
    stream of (seed, purpose), trials is the chunk's slice of the trial range
    and the worker writes its output there. Chunks own disjoint streams and
    slices, so execution order moves no byte."""
    chunk_size = opts.chunk_size
    n_chunks = (n_trials + chunk_size - 1) // chunk_size

    def run(i: int) -> None:
        lo = i * chunk_size
        worker(_chunk_rng(seed, purpose, i), slice(lo, min(lo + chunk_size, n_trials)))

    if opts.n_jobs > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=opts.n_jobs) as pool:
            list(pool.map(run, range(n_chunks)))
    else:
        for i in range(n_chunks):
            run(i)


@lru_cache(maxsize=1)
def _interference_field(env: Environment, ch: ChannelConfig, lam_i: float,
                        x: float, n_trials: int, seed: int,
                        opts: SimOptions) -> np.ndarray:
    """Per-trial interference from the UAVs beyond the cooperation zone x at
    interferer density lam_i: far-field spikes plus floor, read-only.

    Memoized on exactly what the draw reads, placement excluded, so the
    placements of one geometry and seed read one draw; one entry holds a
    row's n_trials floats. The options go in whole: n_jobs moves no byte,
    but keeps a serial and a threaded run from sharing one draw.
    """
    far = _FarField(env, ch, lam_i, x)
    refused = far.overload(min(opts.chunk_size, n_trials))
    if refused:
        raise ConvergenceError(f"environment {env.name!r} {refused}")
    vals = np.empty(n_trials)

    def worker(rng: np.random.Generator, trials: slice) -> None:
        np.add(far.sample(rng, trials.stop - trials.start), far.floor, out=vals[trials])

    _run_chunks(worker, n_trials, seed, _PURPOSE_FIELD, opts)
    vals.flags.writeable = False
    return vals


@lru_cache(maxsize=1)
def _zone_rates(env: Environment, ch: ChannelConfig, zone_mean: float,
                lam_i: float, x: float, probabilities: bytes, n_trials: int,
                seed: int, opts: SimOptions) -> np.ndarray:
    """Per-trial rates of every live content of a placement (rows in library
    order, `_Zone.fill`) against the memoized far field: read-only
    (n_live, n_trials).

    One pass per row: each chunk draws every live content from one stream.
    Memoized on exactly what the pass reads (the placement as the bytes of
    its probabilities, the zone's mean UAV count zone_mean), so every
    content of a row reads one pass; one entry holds n_live * n_trials
    floats.
    """
    field = _interference_field(env, ch, lam_i, x, n_trials, seed, opts)
    zone = _Zone(env, ch, zone_mean, lam_i, x, np.frombuffer(probabilities),
                 min(opts.chunk_size, n_trials))
    rates = np.empty((zone.size, n_trials))

    def worker(rng: np.random.Generator, trials: slice) -> None:
        zone.fill(rng, rates[:, trials], field[trials])

    _run_chunks(worker, n_trials, seed, _PURPOSE_CAPACITY, opts)
    rates.flags.writeable = False
    return rates


def estimate_capacity(cfg: ScenarioConfig, content: int, n_trials: int,
                      seed: int, options: SimOptions | None = None) -> SimEstimate:
    """Monte Carlo estimate of the average rate of one content (1-based
    index), nats per channel use, with its per-trial values as `samples`
    (read-only).

    The estimand is E[ln(1 + SIR)], the quantity content_capacity computes.
    Each trial draws the cooperator count from the zero-truncated Poisson, so
    every trial has a signal, and the mean is scaled by the nonempty-zone
    probability 1 - exp(-m_c); an empty zone contributes rate zero.

    The first call for a live content draws every live content of the
    placement in one memoized pass (`_zone_rates`), against the memoized
    interference beyond the zone, so the estimates of a scenario's contents
    at one trial count, seed and options are correlated: combine them per
    trial through `samples`.
    """
    opts = options or SimOptions()
    content = operator.index(content)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not 1 <= content <= cfg.library.size:
        raise ValueError("content index out of range")
    p = cfg.policy.probabilities
    live = _live(cfg.zone_mean_uavs, p)
    if not live[content - 1]:
        return SimEstimate.of(np.zeros(n_trials))
    rates = _zone_rates(cfg.env, cfg.channel, cfg.zone_mean_uavs,
                        cfg.interferer_density, cfg.coop_radius_km, p.tobytes(),
                        n_trials, seed, opts)
    return SimEstimate.of(rates[np.count_nonzero(live[:content - 1])])


def estimate_ee(cfg: ScenarioConfig, capacity_bits: np.ndarray) -> float:
    """Energy efficiency in bits per joule of a Monte Carlo row: the exact
    Poisson sum `energy_efficiency_exact` at the row's per-content rates in
    bits per channel use (the estimate_capacity means), with cooperator
    means zone_mean_uavs * p_c. It draws nothing.

    It stays a function of this module, and the harness calls it by this
    name, so that a traced benchmark run times the Monte Carlo rows' EE
    (the `simulator.estimate_ee` span) apart from their capacity.
    """
    rates = np.asarray(capacity_bits, dtype=float)
    if rates.shape != (cfg.library.size,):
        raise ValueError("need one capacity value per content")
    nats = rates * math.log(2.0)
    report = CapacityReport(nats, cfg.zone_mean_uavs * cfg.policy.probabilities,
                            float(np.sum(cfg.library.popularity * nats)))
    return energy_efficiency_exact(cfg, report)
