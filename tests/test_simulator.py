"""Monte Carlo network simulator: sampling distributions, estimator
agreement with the analytic rate, parallelism, and input validation."""
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, log_ndtr, ndtr, ndtri
from scipy.stats import poisson

from uavcache import simulator
from uavcache.analytics import (PowerModel, QuadratureConfig, ScenarioConfig,
                                content_capacity, energy_efficiency_exact,
                                system_capacity)
from uavcache.caching import ContentLibrary, mpc_policy, solve_rcp
from uavcache.channel import (ENVIRONMENT_PRESETS, ChannelConfig,
                              environment_preset, los_probability, path_loss,
                              shadowing_log_moments)
from uavcache.errors import ConfigError, ConvergenceError
from uavcache.simulator import (SimEstimate, SimOptions, estimate_capacity,
                                estimate_ee)

SU = environment_preset("sub_urban")


def dense_scenario(**kwargs):
    lib = ContentLibrary(5, 0.8)
    policy = solve_rcp(lib.popularity, 2, math.pi * 0.05 * 9.0)
    base = dict(library=lib, policy=policy, env=SU, uav_density=0.05,
                coop_radius_km=3.0, subchannels=4)
    base.update(kwargs)
    return ScenarioConfig(**base)


def far_field(cfg):
    """The far-field model beyond cfg's cooperation zone."""
    return simulator._FarField(cfg.env, cfg.channel, cfg.interferer_density,
                               cfg.coop_radius_km)


def interference_field(cfg, n_trials, seed, opts):
    """The memoized per-trial interference beyond cfg's cooperation zone."""
    return simulator._interference_field(cfg.env, cfg.channel, cfg.interferer_density,
                                         cfg.coop_radius_km, n_trials, seed, opts)


# --- options and sampling primitives -----------------------------------------

def test_sim_options_validation():
    with pytest.raises(ConfigError):
        SimOptions(chunk_size=0)
    with pytest.raises(ConfigError):
        SimOptions(n_jobs=0)


def test_sim_estimate_half_width():
    est = SimEstimate(1.0, 0.5, 100)
    assert est.half_width == pytest.approx(1.96 * 0.5)


def zone_draws(monkeypatch, cold_field, cfg, n_trials):
    """What a one-chunk pass over cfg's live contents draws, block by block
    (each block draws its cooperators, then its in-zone interferers): the
    per-trial counts, one row per live content in library order, and the
    radii passed to the link sampler, pooled over the blocks. The pass draws
    its field on an emptied memo, and that draw passes no link there: its
    far-field spikes carry their own gains."""
    counts, radii = [], []
    link_sums = simulator._Zone._link_sums
    draw_links = simulator._draw_links

    def recording_sums(self, rng, c):
        counts.append(c.copy())
        return link_sums(self, rng, c)

    def recording_links(rng, r, env, ch):
        radii.append(r.copy())
        return draw_links(rng, r, env, ch)

    monkeypatch.setattr(simulator._Zone, "_link_sums", recording_sums)
    monkeypatch.setattr(simulator, "_draw_links", recording_links)
    opts = SimOptions(chunk_size=n_trials)
    cold_field()
    estimate_capacity(cfg, 1, n_trials, 42, opts)
    assert simulator._interference_field.cache_info().misses == 1
    assert len(counts) == len(radii) and len(counts) % 2 == 0
    assert [c.sum() for c in counts] == [r.size for r in radii]
    return (np.concatenate(counts[0::2]), np.concatenate(counts[1::2]),
            np.concatenate(radii[0::2]), np.concatenate(radii[1::2]))


def test_sample_network_poisson_count(monkeypatch, cold_field):
    # oracle, per live content (one row each): per trial the cooperator
    # count is the zero-truncated Poisson of mean m_c / (1 - exp(-m_c)), and
    # the in-zone interferer count the Poisson of mean
    # lambda_I * pi * (1 - p_c) X^2, the same-sub-channel UAVs in the zone
    # less the caching ones, which cooperate instead; leaving the thinning
    # out moves content 3's interferer mean by about 15 SE (content 1's by
    # about 147), and giving a content another's law moves its cooperator
    # mean by 16 SE or more
    cfg = dense_scenario()
    p = cfg.policy.probabilities
    assert (p > 0.0).all()
    m = cfg.zone_mean_uavs * p
    nonempty = -np.expm1(-m)
    coop_mean = m / nonempty
    coop_var = m * (1.0 + m) / nonempty - coop_mean ** 2
    interferer_mean = cfg.interferer_density * math.pi * (1.0 - p) * 3.0 ** 2
    n = 4000
    coop, interferers, *_ = zone_draws(monkeypatch, cold_field, cfg, n)
    assert coop.shape == interferers.shape == (p.size, n)
    for c in range(p.size):
        for counts, mean, var in ((coop[c], coop_mean[c], coop_var[c]),
                                  (interferers[c], interferer_mean[c],
                                   interferer_mean[c])):
            z = (counts.mean() - mean) / math.sqrt(var / n)
            assert abs(z) < 3.0, c + 1


def test_sample_network_radial_law(monkeypatch, cold_field):
    # cooperators and in-zone interferers are area-uniform on the zone: the
    # CDF at r is (r / X)^2
    cfg = dense_scenario()
    x = 3.0
    for radii in zone_draws(monkeypatch, cold_field, cfg, 2000)[2:]:
        assert radii.min() >= 0.0 and radii.max() <= x
        for r in (0.75, 1.5, 2.25):
            cdf = (r / x) ** 2
            frac = (radii <= r).mean()
            assert abs(frac - cdf) < 3.0 * math.sqrt(cdf * (1 - cdf) / radii.size), r


# --- capacity estimator -------------------------------------------------------

def test_estimator_matches_content_capacity():
    # the estimand is the analytic one, E[ln(1 + SIR)] with no cap on the
    # SIR: over four seeds fixed in advance, the top content's mean z lies
    # within three of its standard errors, 3 / sqrt(4), of zero (a gap under
    # 1.5 single-seed SEs)
    cfg = dense_scenario()
    exact = content_capacity(cfg, 1)
    zs = []
    for seed in (7, 8, 9, 10):
        est = estimate_capacity(cfg, 1, 4000, seed, SimOptions())
        assert est.n_trials == 4000
        zs.append((est.mean - exact) / est.stderr)
    assert abs(np.mean(zs)) < 3.0 / math.sqrt(len(zs)), zs


def test_far_field_floor_keeps_the_sir_finite(monkeypatch, cold_field):
    # every trial's interference includes the far-field floor, so a positive
    # floor is what keeps an SIR finite without a cap
    lib = ContentLibrary(20, 0.8)
    top = ScenarioConfig(library=lib, policy=solve_rcp(lib.popularity, 5, math.pi * 9e-3),
                         env=environment_preset("high_rise"), coop_radius_km=3.0)
    for name in ENVIRONMENT_PRESETS:
        for x in (0.5, 1.0, 3.0):
            for h in (0.5, 1.0, 3.0):
                cfg = replace(top, env=environment_preset(name), coop_radius_km=x,
                              channel=ChannelConfig(altitude_km=h))
                assert far_field(cfg).floor > 0.0, (name, x, h)
    # high_rise at X = 3 km: against the floor alone about one top-content
    # trial in 1e3 reaches an SIR above 1e6 (15-26 of 20k over seeds 0-4), so
    # one chunk of the zone pass against a floor-only field holds such trials
    # whatever the stream layout; they stay finite and are not clipped
    floor = far_field(top).floor
    monkeypatch.setattr(simulator, "_interference_field",
                        lambda *key: np.full(20_000, floor))
    nonempty = -math.expm1(-top.coop_mean(float(top.policy.probabilities[0])))
    samples = estimate_capacity(top, 1, 20_000, 3, SimOptions(chunk_size=20_000)).samples
    assert np.isfinite(samples).all()
    assert samples.max() > nonempty * math.log1p(1e6)


def default_far_field(env_name, x, uav_density=1e-3):
    lib = ContentLibrary(20, 0.8)
    cfg = ScenarioConfig(library=lib,
                         policy=solve_rcp(lib.popularity, 5, math.pi * uav_density * x * x),
                         env=environment_preset(env_name), coop_radius_km=x,
                         uav_density=uav_density)
    far = far_field(cfg)
    return cfg, far.tau, far


def test_far_field_starts_at_the_zone_edge():
    # beyond X every link is the far field's: at the default sub_urban
    # scenario the spikes expected in X < r < 2X are the links of that ring
    # that clear the threshold, int 2 pi lambda_I r sum_n p_n P(L_n V_n > tau)
    # dr: all but about 5e-6 of its lambda_I * pi * 3 X^2 links, the NLOS
    # links that fall below tau
    cfg, tau, far = default_far_field("sub_urban", 1.0)
    h = cfg.channel.altitude_km
    for md in far.modes:
        assert md.zg[0] == pytest.approx(1.0, rel=1e-15)

    def clearing(r):
        p_los = los_probability(r, h, cfg.env)
        total = 0.0
        for mode, p_mode in (("los", p_los), ("nlos", 1.0 - p_los)):
            m_ln, s_ln = shadowing_log_moments(r, h, mode, cfg.env)
            loss = path_loss(r, h, mode, cfg.channel)
            total += p_mode * ndtr((m_ln - math.log(tau / loss)) / float(s_ln))
        return 2.0 * math.pi * cfg.interferer_density * r * total

    expected = quad(clearing, 1.0, 2.0, epsabs=0.0, epsrel=1e-10)[0]
    ring = sum(md.lam * np.interp(2.0, md.zg, md.cum) for md in far.modes)
    assert ring == pytest.approx(expected, rel=1e-3)


def reference_bias(cfg, step=0.005, span=80.0):
    """B(tau_k) = Var(I_sub) / (2 E[I_sub]^2) at every lattice point, from
    scipy's log_ndtr on a fine trapezoid in ln z with each mode's power-law
    tail beyond it, held apart from the simulator's own pass."""
    env, ch, x = cfg.env, cfg.channel, cfg.coop_radius_km
    h = ch.altitude_km
    m_edge, _ = shadowing_log_moments(x, h, "los", env)
    g = path_loss(x, h, "los", ch) * math.exp(m_edge)
    z = np.exp(math.log(x) + np.arange(0.0, span + step / 2, step))
    log_t = math.log(10.0) / 4.0 * np.arange(-simulator._TAU_STEPS, 1)
    p_los = los_probability(z, h, env)
    mean = var = 0.0
    for mode, p_mode in (("los", p_los), ("nlos", 1.0 - p_los)):
        alpha, _, wbar = ch.mode_params(mode)
        m_ln, s_ln = shadowing_log_moments(z, h, mode, env)
        ell = np.log(path_loss(z, h, mode, ch) / g)
        a = (log_t[:, None] - ell - m_ln) / s_ln
        f_mean = np.exp(log_ndtr(a - s_ln) + ell + m_ln + s_ln ** 2 / 2) * z * z * p_mode
        f_var = (np.exp(log_ndtr(a - 2 * s_ln) + 2 * (ell + m_ln + s_ln ** 2))
                 * (1 + 1 / wbar) * z * z * p_mode)
        mean = mean + np.trapezoid(f_mean, dx=step, axis=1) + f_mean[:, -1] / (alpha - 2)
        var = var + np.trapezoid(f_var, dx=step, axis=1) + f_var[:, -1] / (2 * alpha - 2)
    return 0.5 * var / (2.0 * math.pi * cfg.interferer_density * mean * mean), g


@pytest.mark.parametrize("uav_density", [1e-3, 1.0])
@pytest.mark.parametrize("env_name", sorted(ENVIRONMENT_PRESETS))
def test_threshold_is_the_largest_within_the_bias_budget(env_name, uav_density):
    # tau is the largest lattice point g 10^(k/4) whose floor bound B is at
    # most _FLOOR_BIAS, or the cap g itself; B from the simulator's probe
    # pass agrees with the fine reference
    for x in (1.0, 3.0):
        cfg, tau, far = default_far_field(env_name, x, uav_density)
        bias, g = reference_bias(cfg)
        j = far.k + simulator._TAU_STEPS
        assert tau == g * 10.0 ** (far.k / 4.0)
        assert bias[j] <= simulator._FLOOR_BIAS, (x, far.k)
        assert (bias[j + 1:] > simulator._FLOOR_BIAS).all(), (x, far.k)
        assert far.bias == pytest.approx(bias[j], rel=1e-3)


def test_threshold_bound_of_a_wide_spread_is_finite():
    # a 60 dB grazing-angle NLOS spread puts E[V^2] at exp(2 s^2) = e^381
    # or beyond; taken in logs, the bound stays finite and the threshold
    # sits at the cap g(X), with the floor finite as well
    canyon = replace(environment_preset("urban"), name="canyon", a_nlos=60.0)
    for x in (1.0, 3.0):
        far = simulator._FarField(canyon, ChannelConfig(), 1e-3 / 64, x)
        assert far.k == 0
        assert 0.0 < far.bias <= simulator._FLOOR_BIAS
        assert math.isfinite(far.floor) and far.floor > 0.0


@pytest.mark.parametrize("x", [1.0, 3.0])
@pytest.mark.parametrize("env_name", sorted(ENVIRONMENT_PRESETS))
def test_guide_table_reads_the_interpolated_law(env_name, x):
    # the guide-table cell lookup gives the spike range and spread of the
    # piecewise-linear law np.interp gives, on a dense u grid with every CDF
    # node, u = 0 and the last double below 1
    *_, far = default_far_field(env_name, x)
    for md in far.modes:
        u = np.concatenate([np.linspace(0.0, 1.0, 100_001)[:-1], md.cum[:-1],
                            [np.nextafter(1.0, 0.0)]])
        u = u[u < 1.0]
        z, s_ln = md.locate(u)
        z_ref = np.interp(u, md.cum, md.zg)
        s_ref = np.interp(z_ref, md.zg, md.s_ln)
        assert np.abs(z / z_ref - 1.0).max() <= 4e-16
        assert np.abs(s_ln / s_ref - 1.0).max() <= 4e-16
        # about 16 or more buckets per node, a few percent of them mixed
        assert md.guide.size >= 16 * md.cum.size
        assert (md.guide < 0).mean() < 0.1


def test_every_spike_clears_the_threshold():
    # spikes are the links with L V > tau; near the grid end the standardized
    # threshold a exceeds 8.3, where Phi(a) + r Phi(-a) rounds to 1, and its
    # inversion clipped below 1 pinned ln V at 8.2 spreads, below threshold
    cfg, tau, far = default_far_field("high_rise", 3.0)
    md = far.modes[1]  # NLOS
    u = 1.0 - np.geomspace(1e-3, 1e-12, 2000)
    r = np.random.default_rng(0).random(u.size)
    z, s_ln = md.locate(u)
    *_, loss, a = simulator._spike_law(z, "nlos", cfg.env, cfg.channel, tau)
    deep = a > 8.3
    assert deep.sum() > 100
    clipped = np.clip(ndtr(a) + r * ndtr(-a), 0.0, 1.0 - 1e-16)
    old = loss * np.exp(md.m_ln + s_ln * ndtri(clipped))
    assert (old[deep] <= tau).all()
    gains = md.gains(u, r.copy())
    assert (gains > tau).all()
    # drawn spikes, fading aside: every one above the threshold
    rng = np.random.default_rng(1)
    assert (md.gains(rng.random(200_000), rng.random(200_000)) > tau).all()


def test_estimator_error_scales_as_root_n():
    cfg = dense_scenario()
    small = estimate_capacity(cfg, 1, 1000, 21, SimOptions())
    large = estimate_capacity(cfg, 1, 4000, 21, SimOptions())
    assert 1.6 < small.stderr / large.stderr < 2.5


def test_estimator_parallelism_is_invisible(cold_field):
    cfg = dense_scenario()
    serial = estimate_capacity(cfg, 1, 2000, 5, SimOptions(n_jobs=1))
    cold_field()
    threaded = estimate_capacity(cfg, 1, 2000, 5, SimOptions(n_jobs=3))
    assert serial.mean == threaded.mean
    assert serial.stderr == threaded.stderr
    assert serial.samples.tobytes() == threaded.samples.tobytes()


def test_estimator_seed_reproducibility(cold_field):
    cfg = dense_scenario()
    a = estimate_capacity(cfg, 1, 500, 123, SimOptions())
    cold_field()
    b = estimate_capacity(cfg, 1, 500, 123, SimOptions())
    c = estimate_capacity(cfg, 1, 500, 124, SimOptions())
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    assert a.mean != c.mean


def test_samples_are_invariant_under_intercept_scaling(cold_field):
    # a power-of-two factor on both path-loss intercepts scales every sampled
    # gain, and the far field's spike threshold, exactly: every SIR sample,
    # and so every rate sample, is unchanged
    cfg = dense_scenario()
    opts = SimOptions()
    base = estimate_capacity(cfg, 1, 500, 7, opts).samples
    for c in (2.0 ** 20, 2.0 ** -30):
        scaled = replace(cfg, channel=ChannelConfig(k_los=c, k_nlos=c))
        assert np.array_equal(estimate_capacity(scaled, 1, 500, 7, opts).samples, base), c


@pytest.mark.parametrize("env_name", ["sub_urban", "high_rise"])
def test_spike_refinement_is_invisible(monkeypatch, cold_field, env_name):
    # the far field carries the interference beyond the zone edge: at the
    # default scenario, a threshold chosen at a tenth of the bias budget
    # resolves more spikes and must not move the estimate
    lib = ContentLibrary(20, 0.8)
    cfg = ScenarioConfig(library=lib, policy=solve_rcp(lib.popularity, 5, math.pi * 1e-3),
                         env=environment_preset(env_name))
    coarse = estimate_capacity(cfg, 1, 10_000, 11)
    k = far_field(cfg).k
    with monkeypatch.context() as patch:
        cold_field()
        patch.setattr(simulator, "_FLOOR_BIAS", simulator._FLOOR_BIAS / 10.0)
        assert far_field(cfg).k < k
        fine = estimate_capacity(cfg, 1, 10_000, 11)
    cold_field()
    assert abs(coarse.mean - fine.mean) < 1.96 * math.hypot(coarse.stderr, fine.stderr)


def test_per_trial_sum_is_float_without_entries():
    # a chunk that draws no in-zone interferer (a content cached with p = 1)
    # has all-zero counts; the sum must still be float64 so the shared field
    # can be added to it
    out = simulator._per_trial_sum(4, np.zeros(4, dtype=np.int64), np.empty(0))
    assert out.dtype == np.float64
    assert np.array_equal(out, np.zeros(4))


def test_cooperator_table_refuses_an_unreached_tail():
    # past 10000 terms the table is refused rather than built: at m_c = 2e4
    # a table cut there would leave a tail mass near 1/2, and at 10500 its
    # 1e-15 tail needs k = 11324 (the growth rule it replaced built 12138
    # entries there and accepted them)
    for m, label in ((2e4, "m_c = 20000"), (10500.0, "m_c = 10500 needs 11324 terms")):
        with pytest.raises(ConvergenceError, match=label):
            simulator._truncated_poisson_cdf(m)
    assert simulator._truncated_poisson_cdf(9000.0).size <= 10000


def test_cooperator_table_is_the_ee_pmf_to_its_smallest_end():
    # the table ends at the smallest k whose zero-truncated tail
    # P(N > k)/(1 - e^-m) is below 1e-15, and is that law's CDF within
    # 1e-15 (1 + m) of scipy's; the growth rule it replaced overshot (6
    # entries for k = 5 at m = 1e-3, 94 for k = 79 at m = 28), and its
    # cumulative ln k! sums missed by 1.4e-12 at m = 300 and 3.1e-11 at 4000
    for m, k_end in ((1e-3, 5), (0.5, 14), (5.0, 31), (28.0, 79), (300.0, None),
                     (4000.0, None)):
        cdf = simulator._truncated_poisson_cdf(m)
        k = cdf.size
        assert k_end is None or k == k_end, m
        tail = -math.expm1(-m) * 1e-15
        assert gammainc(k + 1.0, m) < tail <= gammainc(float(k), m), m
        ref = 1.0 - poisson.sf(np.arange(1.0, k + 1.0), m) / -math.expm1(-m)
        assert np.max(np.abs(cdf - ref)) < 1e-15 * (1.0 + m), m


def test_cooperator_table_leaves_out_less_than_its_tail():
    # the zero-truncated law's mass beyond the table, P(N > k)/(1 - e^-m),
    # is below 1e-15 at every mean, the smallest ones too: at m = 1e-8 the
    # untruncated tail beyond k = 1 is 5e-17, but the truncated one 5e-9
    for m in np.geomspace(1e-8, 4000.0, 45):
        k = simulator._truncated_poisson_cdf(m).size
        assert gammainc(k + 1.0, m) / -math.expm1(-m) < 1e-15, m


def test_field_draw_refuses_a_spike_overload(cold_field):
    # at 3000 UAVs per km^2 the high_rise far field sits at the cap tau =
    # g(X) and still expects about 7.6e4 spikes per trial, 7.7e7 per chunk
    # of 1024 trials: the draw must refuse before it samples rather than ask
    # numpy for the arrays, and name the remedy left
    lib = ContentLibrary(20, 0.8)
    cfg = ScenarioConfig(library=lib, policy=solve_rcp(lib.popularity, 5, math.pi * 3000.0),
                         env=environment_preset("high_rise"), uav_density=3000.0)
    far = far_field(cfg)
    assert far.k == 0 and far.spikes * 1024 > simulator._SPIKE_BUDGET
    with pytest.raises(ConvergenceError, match="'high_rise'.*simulation.chunk_size"):
        estimate_capacity(cfg, 1, 1024, 0)
    assert far.overload(64) is None


def test_stream_purposes_are_distinct():
    # two estimators sharing a purpose would replay one Philox stream, and a
    # renumbered purpose moves its stream's bytes: each keeps its integer
    # (2 was the deleted EE sampler's and stays unused)
    purposes = {name: value for name, value in vars(simulator).items()
                if name.startswith("_PURPOSE_")}
    assert purposes == {"_PURPOSE_CAPACITY": 1, "_PURPOSE_LRU": 3, "_PURPOSE_FIELD": 4}


def test_shared_field_matches_own_draw(cold_field):
    # the contents of a row read one memoized pass over one memoized field;
    # cleared memos draw both again from the same streams, so each estimate
    # keeps its bytes
    cfg = dense_scenario()
    opts = SimOptions(chunk_size=200)
    shared = [estimate_capacity(cfg, content, 500, 17, opts) for content in (1, 2)]
    info = simulator._zone_rates.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert simulator._interference_field.cache_info().misses == 1
    for content, est in zip((1, 2), shared):
        cold_field()
        own = estimate_capacity(cfg, content, 500, 17, opts)
        assert (est.mean, est.stderr) == (own.mean, own.stderr)
        assert est.samples.tobytes() == own.samples.tobytes()
        assert est.mean == est.samples.mean()


def test_shared_field_parallelism_is_invisible(cold_field):
    cfg = dense_scenario()
    serial = interference_field(cfg, 700, 5, SimOptions(chunk_size=100))
    threaded = interference_field(
        cfg, 700, 5, SimOptions(chunk_size=100, n_jobs=3))
    assert simulator._interference_field.cache_info().misses == 2
    assert serial.tobytes() == threaded.tobytes()
    assert serial.shape == (700,)


def bumped(value):
    """A nearby admissible value of a config field."""
    return value + 1 if isinstance(value, int) else value * 1.1 + 0.01


def count_field_draws(monkeypatch):
    """Patch _FarField.sample to record one entry per chunk it samples."""
    draws = []
    sample = simulator._FarField.sample

    def counting(self, rng, n_trials):
        draws.append(n_trials)
        return sample(self, rng, n_trials)

    monkeypatch.setattr(simulator._FarField, "sample", counting)
    return draws


def field_changes(cfg, opts):
    """Every number the field draw reads, each moved alone, as changes to the
    (cfg, n_trials, seed, opts) of a call: the call's own, the environment's
    but its name, the channel's, the scenario's, the options'."""
    def config_fields(attr):
        config = getattr(cfg, attr)
        return [dict(cfg=replace(cfg, **{attr: replace(
                    config, **{f.name: bumped(getattr(config, f.name))})}))
                for f in fields(config) if (attr, f.name) != ("env", "name")]

    return [
        [dict(n_trials=65), dict(seed=8)],
        config_fields("env"),
        config_fields("channel"),
        [dict(cfg=replace(cfg, **{name: bumped(getattr(cfg, name))}))
         for name in ("uav_density", "subchannels", "coop_radius_km")],
        # the options go in whole, n_jobs included
        [dict(opts=replace(opts, **{f.name: bumped(getattr(opts, f.name))}))
         for f in fields(opts)],
    ]


@pytest.mark.parametrize("change", field_changes(dense_scenario(), SimOptions()))
def test_shared_field_key_is_checked(monkeypatch, cold_field, change):
    # the field memo is keyed on every number the draw reads: moving any one
    # of them draws a new field, one chunk of 64 or 65 trials here
    draws = count_field_draws(monkeypatch)
    base = dict(cfg=dense_scenario(), n_trials=64, seed=7, opts=SimOptions())
    for moved in change:
        estimate_capacity(base["cfg"], 1, 64, 7, base["opts"])
        call = {**base, **moved}
        before = len(draws)
        estimate_capacity(call["cfg"], 1, call["n_trials"], call["seed"], call["opts"])
        assert len(draws) - before == 1, moved


def test_field_memo_skips_what_the_draw_never_reads(monkeypatch, cold_field):
    # the environment's name, the placement, library, power and quadrature
    # take no part in the draw, so they read the memoized field; the field is
    # shared, so it is read-only
    draws = count_field_draws(monkeypatch)
    cfg = dense_scenario()
    opts = SimOptions()
    estimate_capacity(cfg, 1, 64, 7, opts)
    assert len(draws) == 1
    for other in (replace(cfg, env=replace(cfg.env, name="renamed")),
                  cfg.with_policy(mpc_policy(cfg.library.popularity, 2)),
                  replace(cfg, library=ContentLibrary(5, 1.2)),
                  replace(cfg, power=PowerModel(0.0, 0.0, 0.0, 1.0)),
                  replace(cfg, quadrature=QuadratureConfig(rel_tol=1e-4))):
        estimate_capacity(other, 1, 64, 7, opts)
    assert len(draws) == 1
    field = interference_field(cfg, 64, 7, opts)
    assert len(draws) == 1
    assert not field.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        field[0] = 0.0


def zone_changes(cfg, opts):
    """Every number the zone pass reads, each moved alone: the field's (see
    field_changes) and one placement probability, moved by one ulp (the
    placement still sums to its cache size)."""
    p = cfg.policy.probabilities.copy()
    p[1] = np.nextafter(p[1], 0.0)
    moved = replace(cfg.policy, probabilities=p)
    return [*field_changes(cfg, opts), [dict(cfg=cfg.with_policy(moved))]]


@pytest.mark.parametrize("change", zone_changes(dense_scenario(), SimOptions()))
def test_zone_memo_key_is_checked(cold_field, change):
    # the zone memo is keyed on every number the pass reads: moving any one
    # of them makes one new pass
    base = dict(cfg=dense_scenario(), n_trials=64, seed=7, opts=SimOptions())
    for moved in change:
        estimate_capacity(base["cfg"], 1, 64, 7, base["opts"])
        call = {**base, **moved}
        before = simulator._zone_rates.cache_info().misses
        estimate_capacity(call["cfg"], 1, call["n_trials"], call["seed"], call["opts"])
        assert simulator._zone_rates.cache_info().misses - before == 1, moved


def test_zone_memo_skips_what_the_pass_never_reads(cold_field):
    # the environment's name, the library's Zipf vector, power and
    # quadrature take no part in the pass, so every content of these reads
    # the memoized one; its samples are shared, so they are read-only
    cfg = dense_scenario()
    opts = SimOptions()
    ref = estimate_capacity(cfg, 2, 64, 7, opts)
    for other in (replace(cfg, env=replace(cfg.env, name="renamed")),
                  replace(cfg, library=ContentLibrary(5, 1.2)),
                  replace(cfg, power=PowerModel(0.0, 0.0, 0.0, 1.0)),
                  replace(cfg, quadrature=QuadratureConfig(rel_tol=1e-4))):
        for content in range(1, 6):
            estimate_capacity(other, content, 64, 7, opts)
    assert simulator._zone_rates.cache_info().misses == 1
    assert not ref.samples.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ref.samples[0] = 0.0


def test_zone_pass_rows_are_the_live_contents():
    # one row per live content in library order; a content cached nowhere
    # reads zeros without a pass, and the others read their own rows
    cfg = dense_scenario()
    p = np.array([1.0, 0.0, 0.5, 0.0, 0.5])
    cfg = cfg.with_policy(replace(cfg.policy, probabilities=p))
    opts = SimOptions()
    ests = [estimate_capacity(cfg, c, 300, 5, opts) for c in range(1, 6)]
    rates = simulator._zone_rates(cfg.env, cfg.channel, cfg.zone_mean_uavs,
                                  cfg.interferer_density, cfg.coop_radius_km,
                                  p.tobytes(), 300, 5, opts)
    assert rates.shape == (3, 300)
    for c, row in ((1, 0), (3, 1), (5, 2)):
        assert ests[c - 1].samples.tobytes() == rates[row].tobytes()
    for c in (2, 4):
        assert ests[c - 1].samples.tobytes() == np.zeros(300).tobytes()


def test_numpy_integers_read_as_python_ints(cold_field):
    # a numpy integer content or seed gives the bytes of the Python int it
    # equals (the stream key once overflowed on them); a float content is no
    # index and is refused
    cfg = dense_scenario()
    opts = SimOptions()
    ref = estimate_capacity(cfg, 2, 50, 3, opts)
    for content, seed in ((np.int64(2), 3), (2, np.int64(3)), (2, np.uint32(3))):
        cold_field()
        est = estimate_capacity(cfg, content, 50, seed, opts)
        assert est.samples.tobytes() == ref.samples.tobytes(), (content, seed)
    assert content_capacity(cfg, np.int64(2)) == content_capacity(cfg, 2)
    for content in (1.5, 2.0):
        with pytest.raises(TypeError):
            estimate_capacity(cfg, content, 50, 3, opts)
        with pytest.raises(TypeError):
            content_capacity(cfg, content)


def test_estimator_validation(cold_field):
    cfg = dense_scenario()
    with pytest.raises(ValueError):
        estimate_capacity(cfg, 1, 0, 0, SimOptions())
    with pytest.raises(ValueError):
        estimate_capacity(cfg, 9, 10, 0, SimOptions())
    # the far field starts at the zone edge, so an empty zone has none: its
    # rates are zero and it draws no field
    empty = estimate_capacity(dense_scenario(coop_radius_km=0.0), 1, 10, 0)
    assert empty.samples.tobytes() == np.zeros(10).tobytes()
    assert simulator._interference_field.cache_info().misses == 0
    assert simulator._zone_rates.cache_info().misses == 0


# --- energy efficiency estimator ----------------------------------------------

def sampled_ee(cfg, capacity_bits, n_trials, seed):
    """The sampler estimate_ee once was, as its oracle: per trial a Poisson
    cooperator count k_c per content, and sum_c a_c r_c / (k_c fixed +
    slope r_c) over contents with k_c > 0 and a positive rate r_c. (It drew
    1024-trial chunks to bound a 10k-trial row's memory; one block draws the
    same law.)"""
    a = cfg.library.popularity
    m = cfg.zone_mean_uavs * cfg.policy.probabilities
    fixed = cfg.power.fixed_power(cfg.policy.cache_size)
    zeta = cfg.power.rate_power_slope
    rates = np.asarray(capacity_bits, dtype=float)
    k = np.random.default_rng(seed).poisson(m, (n_trials, m.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where((k > 0) & (rates > 0.0), a * rates / (k * fixed + zeta * rates), 0.0)
    return SimEstimate.of(terms.sum(axis=1))


def ee_cases():
    """(scenario, capacity report): the dense rcp and mpc placements, and
    the rcp one with a live content's rate set to zero."""
    cfg = dense_scenario()
    mpc = cfg.with_policy(mpc_policy(cfg.library.popularity, 2))
    rcp = system_capacity(cfg)
    nats = rcp.per_content_nats.copy()
    nats[0] = 0.0
    zeroed = replace(rcp, per_content_nats=nats,
                     system_rate_nats=float(cfg.library.popularity @ nats))
    return [(cfg, rcp), (mpc, system_capacity(mpc)), (cfg, zeroed)]


def test_ee_estimator_is_the_exact_sum():
    # a Monte Carlo row's EE is energy_efficiency_exact at its per-content
    # rates, bit for bit
    for cfg, report in ee_cases():
        assert estimate_ee(cfg, report.per_content_bits) == energy_efficiency_exact(cfg, report)


def test_ee_estimator_free_hardware_closed_form():
    # with zero fixed power each content's sum over k >= 1 only asks whether
    # the zone is populated: sum_c a_c (1 - e^-m_c), less a tail below 1e-12
    cfg = dense_scenario(power=PowerModel(0.0, 0.0, 0.0, 1.0))
    report = system_capacity(cfg)
    closed = float(np.sum(cfg.library.popularity * -np.expm1(-report.coop_means)))
    assert estimate_ee(cfg, report.per_content_bits) == pytest.approx(closed, abs=1e-12)


def test_ee_estimator_matches_analytic():
    # the sampler's 20k-trial mean lies within 4 of its standard errors of
    # the sum it samples (a fresh seed breaks that with probability 6e-5 per
    # case); at seed 31 the three cases read z = 0.68, 1.77 and -0.31, and
    # over seeds 0-39 each case's z has mean -0.12 to 0.14 and spread 1.0-1.2
    for cfg, report in ee_cases():
        rates = report.per_content_bits
        est = sampled_ee(cfg, rates, 20_000, 31)
        assert abs(est.mean - estimate_ee(cfg, rates)) < 4.0 * est.stderr


def test_ee_estimator_validation():
    cfg = dense_scenario()
    with pytest.raises(ValueError, match="one capacity value per content"):
        estimate_ee(cfg, np.array([1.0, 2.0]))
