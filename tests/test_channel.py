"""Channel model tests: mode probability, path loss, shadowing, fading, and
the Laplace kernel against closed forms and direct-sampling oracles."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr, ndtri

from uavcache import channel
from uavcache.analytics import QuadratureConfig
from uavcache.channel import (ENVIRONMENT_PRESETS, ChannelConfig, Environment,
                              environment_preset, kernel_table, los_probability,
                              path_loss, shadowing_log_moments, shadowing_sigma_db)
from uavcache.errors import ConfigError
from uavcache.simulator import _draw_links

DB_TO_LN = math.log(10.0) / 10.0
NODES = QuadratureConfig().hermite_nodes  # the quadrature the engine uses

# (phi, psi, mu_los, mu_nlos, a_los, a_nlos, c_los, c_nlos)
PRESET_TABLE = {
    "high_rise": (27.23, 0.08, 1.5, 29.0, 7.37, 37.08, 0.03, 0.03),
    "dense_urban": (12.08, 0.11, 1.0, 20.0, 8.96, 35.97, 0.04, 0.04),
    "urban": (9.61, 0.16, 0.6, 17.0, 10.39, 29.6, 0.05, 0.03),
    "sub_urban": (4.88, 0.43, 0.0, 18.0, 11.25, 32.17, 0.06, 0.03),
}

ENV_NAMES = tuple(PRESET_TABLE)
ENV_STRATEGY = st.sampled_from(ENV_NAMES)


def test_presets_match_published_parameters_bit_exactly():
    assert set(ENVIRONMENT_PRESETS) == set(PRESET_TABLE)
    for name, row in PRESET_TABLE.items():
        env = environment_preset(name)
        got = (env.phi, env.psi, env.mu_los, env.mu_nlos,
               env.a_los, env.a_nlos, env.c_los, env.c_nlos)
        assert got == row
        assert env.name == name


def test_unknown_preset_raises():
    with pytest.raises(ConfigError, match="unknown environment"):
        environment_preset("orbital")


def test_environment_validation():
    with pytest.raises(ConfigError):
        Environment("bad", 0.0, 0.1, 0, 0, 1, 1, 0.01, 0.01)
    with pytest.raises(ConfigError):
        Environment("bad", 1.0, 0.1, 0, 0, -1.0, 1, 0.01, 0.01)


def test_channel_config_validation():
    with pytest.raises(ConfigError):
        ChannelConfig(alpha_los=2.0)
    with pytest.raises(ConfigError):
        ChannelConfig(k_los=0.0)
    with pytest.raises(ConfigError):
        ChannelConfig(nakagami_los=1.0, nakagami_nlos=2.0)
    with pytest.raises(ConfigError):
        ChannelConfig(altitude_km=0.0)


# --- LOS probability -------------------------------------------------------

def test_los_probability_at_45_degrees():
    # oracle: direct scalar evaluation of the sigmoid at theta = 45 deg
    env = environment_preset("high_rise")
    expected = 1.0 / (1.0 + 27.23 * math.exp(-0.08 * (45.0 - 27.23)))
    assert los_probability(1.0, 1.0, env) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(0.1320768404904893, rel=1e-12)


def test_los_probability_far_limit():
    # oracle: closed-form limit 1 / (1 + phi * exp(psi * phi)) as r -> inf
    env = environment_preset("high_rise")
    limit = 1.0 / (1.0 + 27.23 * math.exp(0.08 * 27.23))
    assert limit == pytest.approx(0.004140789977717571, rel=1e-12)
    assert los_probability(1e9, 1.0, env) == pytest.approx(limit, rel=1e-7)


def test_los_probability_overhead_is_nearly_one():
    # at r = 0 the elevation is 90 deg; sub_urban sits within 1e-7 of certainty
    assert los_probability(0.0, 1.0, environment_preset("sub_urban")) > 1.0 - 1e-7


def test_los_probability_strictly_monotone_on_grid():
    r = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0])
    for name in ENV_NAMES:
        p = los_probability(r, 1.0, environment_preset(name))
        assert np.all(np.diff(p) < 0), name
    for name in ENV_NAMES:
        p = [los_probability(1.0, h, environment_preset(name))
             for h in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(p) > 0), name


@given(ENV_STRATEGY,
       st.floats(0.0, 1e6), st.floats(0.0, 1e6),
       st.floats(1e-3, 50.0))
def test_los_probability_ordering_and_bounds(name, r1, r2, h):
    env = environment_preset(name)
    lo, hi = sorted((r1, r2))
    p_lo = los_probability(lo, h, env)
    p_hi = los_probability(hi, h, env)
    assert 0.0 <= p_hi <= p_lo <= 1.0


def test_los_probability_rejects_bad_geometry():
    env = environment_preset("urban")
    with pytest.raises(ValueError):
        los_probability(-1.0, 1.0, env)
    with pytest.raises(ValueError):
        los_probability(1.0, 0.0, env)
    with pytest.raises(ValueError):
        los_probability(math.nan, 1.0, env)
    with pytest.raises(ValueError):
        los_probability(math.inf, 1.0, env)


# --- path loss -------------------------------------------------------------

def test_path_loss_unit_distance():
    cfg = ChannelConfig()
    assert path_loss(0.0, 1.0, "los", cfg) == 1.0
    assert path_loss(0.0, 1.0, "nlos", cfg) == 1.0


def test_path_loss_345_triangle():
    cfg = ChannelConfig()
    assert path_loss(4.0, 3.0, "nlos", cfg) == pytest.approx(5.0 ** -4, rel=1e-14)
    assert path_loss(4.0, 3.0, "los", cfg) == pytest.approx(5.0 ** -2.09, rel=1e-13)
    assert 5.0 ** -2.09 == pytest.approx(0.03460610259172965, rel=1e-12)


def test_path_loss_scales_with_intercept():
    cfg = ChannelConfig(k_los=7.5, k_nlos=0.25)
    assert path_loss(4.0, 3.0, "los", cfg) == pytest.approx(7.5 * 5.0 ** -2.09, rel=1e-13)
    assert path_loss(4.0, 3.0, "nlos", cfg) == pytest.approx(0.25 * 5.0 ** -4, rel=1e-13)


def test_path_loss_singular_origin():
    # path loss checks its geometry as its siblings do: a nonpositive or
    # non-finite altitude raises instead of returning nan, 0 or 1
    for r, h in ((0.0, 0.0), (1.0, 0.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="altitude"):
            path_loss(r, h, "los", ChannelConfig())


def test_path_loss_strictly_decreasing_on_grid():
    cfg = ChannelConfig()
    r = np.array([0.0, 0.5, 1.0, 2.0, 10.0])
    for mode in ("los", "nlos"):
        assert np.all(np.diff(path_loss(r, 1.0, mode, cfg)) < 0)
        p = [path_loss(1.0, h, mode, cfg) for h in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(p) < 0)


@given(st.floats(0.0, 1e4), st.floats(0.0, 1e4), st.floats(1e-3, 50.0),
       st.sampled_from(["los", "nlos"]))
def test_path_loss_ordering(r1, r2, h, mode):
    cfg = ChannelConfig()
    lo, hi = sorted((r1, r2))
    assert path_loss(hi, h, mode, cfg) <= path_loss(lo, h, mode, cfg)


# --- shadowing spread ------------------------------------------------------

def test_shadowing_sigma_pinned_values():
    # oracle: a * exp(-c * theta_deg) evaluated by hand at 90 and 45 degrees
    su = environment_preset("sub_urban")
    hr = environment_preset("high_rise")
    assert shadowing_sigma_db(0.0, 1.0, "los", su) == pytest.approx(
        0.05081153560439254, rel=1e-12)
    assert shadowing_sigma_db(1.0, 1.0, "nlos", hr) == pytest.approx(
        9.61262886474966, rel=1e-12)


def test_shadowing_sigma_zero_amplitude():
    env = Environment("flat", 4.88, 0.43, 0.0, 18.0, 0.0, 0.0, 0.06, 0.03)
    r = np.array([0.0, 1.0, 10.0, 1e4])
    assert np.all(shadowing_sigma_db(r, 1.0, "los", env) == 0.0)
    assert np.all(shadowing_sigma_db(r, 1.0, "nlos", env) == 0.0)


def test_shadowing_sigma_increasing_in_range():
    r = np.array([0.0, 0.5, 1.0, 2.0, 10.0, 100.0])
    for name in ENV_NAMES:
        env = environment_preset(name)
        for mode in ("los", "nlos"):
            assert np.all(np.diff(shadowing_sigma_db(r, 1.0, mode, env)) > 0)


def test_shadowing_log_moments_db_loss():
    env = environment_preset("high_rise")
    sigma = shadowing_sigma_db(1.0, 1.0, "nlos", env)
    m_db, s_db = shadowing_log_moments(1.0, 1.0, "nlos", env)
    assert m_db == pytest.approx(-29.0 * DB_TO_LN, rel=1e-13)
    assert float(s_db) == pytest.approx(sigma * DB_TO_LN, rel=1e-13)


# --- link sampling ---------------------------------------------------------
# Every Monte Carlo link comes from simulator._draw_links, which returns only
# the product L * V * W. Fading is read as gain / L with mu = a = 0 (V = 1);
# shadowing is read as the gain ratio against the same environment with
# mu = a = 0 at the same seed, which replays the mode draws and fading.

def _links(env, cfg, r, n, seed):
    """n links at range r from the Monte Carlo sampler: (los, gain / L)."""
    los, gain = _draw_links(np.random.default_rng(seed), np.full(n, r), env, cfg)
    h = cfg.altitude_km
    loss = np.where(los, path_loss(r, h, "los", cfg), path_loss(r, h, "nlos", cfg))
    return los, gain / loss


def _unshadowed(env):
    return replace(env, mu_los=0.0, mu_nlos=0.0, a_los=0.0, a_nlos=0.0)


def _shadowing_gains(env, cfg, r, n, seed):
    """(los, V) per link: the gain ratio against the unshadowed twin."""
    los, gain = _links(env, cfg, r, n, seed)
    los_0, gain_0 = _links(_unshadowed(env), cfg, r, n, seed)
    assert np.array_equal(los, los_0)
    return los, gain / gain_0


# sub_urban at H = 1 km is LOS with probability ~0.5 at this range
MIXED_R = 6.6


def test_fading_unit_shape_is_exponential():
    cfg = ChannelConfig(nakagami_los=1.0, nakagami_nlos=1.0)
    env = _unshadowed(environment_preset("sub_urban"))
    _, x = _links(env, cfg, MIXED_R, 100_000, 101)
    n = x.size
    assert abs(x.mean() - 1.0) < 3.0 / math.sqrt(n)
    # P(X > 1) = exp(-1) for the unit exponential
    p = math.exp(-1.0)
    assert abs((x > 1.0).mean() - p) < 3.0 * math.sqrt(p * (1 - p) / n)


def test_fading_moments():
    cfg = ChannelConfig()
    env = _unshadowed(environment_preset("sub_urban"))
    los, x = _links(env, cfg, MIXED_R, 100_000, 202)
    x_los, y = x[los], x[~los]  # shapes 10 and 2
    # SE of the mean is sqrt(1/shape/n)
    assert abs(x_los.mean() - 1.0) < 3.0 * math.sqrt(0.1 / x_los.size)
    # SE of the sample variance from the Gamma fourth central moment
    var, se_var = 0.5, math.sqrt((6.0 * 0.25 - 0.25) / y.size)
    assert abs(y.var(ddof=1) - var) < 3.0 * se_var


def test_shadowing_deterministic_when_sigma_zero():
    env = Environment("flat", 4.88, 0.43, 3.0, 18.0, 0.0, 0.0, 0.0, 0.0)
    los, v = _shadowing_gains(env, ChannelConfig(), MIXED_R, 16, 1)
    assert los.any() and not los.all()
    np.testing.assert_allclose(v[los], 10.0 ** (-3.0 / 10.0), rtol=1e-14)
    np.testing.assert_allclose(v[~los], 10.0 ** (-18.0 / 10.0), rtol=1e-14)


def test_shadowing_median_one_when_mu_zero():
    env = Environment("centered", 4.88, 0.43, 0.0, 0.0, 11.25, 32.17, 0.06, 0.03)
    n = 100_000
    _, v = _shadowing_gains(env, ChannelConfig(), 1.0, n, 303)
    # V > 1 iff the dB draw is negative, a fair coin when mu = 0
    assert abs((v > 1.0).mean() - 0.5) < 3.0 * math.sqrt(0.25 / n)


def test_shadowing_lognormal_mean():
    # oracle: E[10^(-U/10)] = exp((sigma * ln10 / 10)^2 / 2) when mu = 0
    env = Environment("centered", 27.23, 0.08, 0.0, 0.0, 7.37, 37.08, 0.03, 0.03)
    sigma = shadowing_sigma_db(1.0, 1.0, "nlos", env)
    expected = math.exp((sigma * DB_TO_LN) ** 2 / 2.0)
    assert expected == pytest.approx(11.583095431671245, rel=1e-12)
    los, v = _shadowing_gains(env, ChannelConfig(), 1.0, 1_000_000, 404)
    assert abs(v[~los].mean() - expected) / expected < 0.05


# --- Laplace kernel --------------------------------------------------------

def test_kernel_zero_transform_variable():
    env = environment_preset("sub_urban")
    cfg = ChannelConfig()
    z = np.array([0.0, 0.5, 1.0, 10.0])
    assert np.all(kernel_table(z, 0.0, env, cfg, NODES) == 0.0)


def test_kernel_saturates_at_large_v():
    env = environment_preset("sub_urban")
    cfg = ChannelConfig()
    table = kernel_table([0.5, 1.0, 2.0], [1e9, 1e10, 1e11], env, cfg, NODES)
    assert table.shape == (3, 3)
    assert np.all(table >= 0.999)


def test_kernel_deep_linear_regime():
    # for v small enough, kernel = v * sum_n p_n L_n E[V_n] exactly
    cfg = ChannelConfig()
    v = 1e-12
    for name in ENV_NAMES:
        env = environment_preset(name)
        for z in (0.5, 2.0):
            p_l = los_probability(z, 1.0, env)
            expected = 0.0
            for mode, p_mode in (("los", p_l), ("nlos", 1.0 - p_l)):
                m_ln, s_ln = shadowing_log_moments(z, 1.0, mode, env)
                expected += (p_mode * path_loss(z, 1.0, mode, cfg)
                             * math.exp(m_ln + 0.5 * float(s_ln) ** 2))
            got = kernel_table([z], [v], env, cfg, NODES)[0, 0]
            assert got == pytest.approx(v * expected, rel=1e-6), (name, z)


def test_kernel_monotone_in_v_on_grid():
    cfg = ChannelConfig()
    v = np.logspace(-8, 10, 60)
    for name in ENV_NAMES:
        env = environment_preset(name)
        table = kernel_table(np.array([0.3, 1.0, 5.0, 50.0]), v, env, cfg, 48)
        # branch seams may wiggle at the 1e-8 level; anything larger is a bug
        assert np.all(np.diff(table, axis=1) > -1e-7)
        assert np.all((table >= 0.0) & (table <= 1.0))


@settings(max_examples=60, deadline=None)
@given(ENV_STRATEGY,
       st.floats(0.0, 1e5),
       st.floats(1e-12, 1e12))
def test_kernel_bounds(name, z, v):
    val = kernel_table([z], [v], environment_preset(name), ChannelConfig(), NODES)[0, 0]
    assert 0.0 <= val <= 1.0


def test_kernel_rejects_bad_inputs():
    env = environment_preset("urban")
    cfg = ChannelConfig()
    with pytest.raises(ConfigError):
        kernel_table([1.0], [1.0], env, cfg, hermite_nodes=1)
    with pytest.raises(ValueError):
        kernel_table([-1.0], [1.0], env, cfg, NODES)
    with pytest.raises(ValueError):
        kernel_table([1.0], [-1.0], env, cfg, NODES)


def test_kernel_against_direct_sampling():
    # oracle: 1 - E[exp(-v L V W)] over links from the Monte Carlo sampler
    env = environment_preset("sub_urban")
    cfg = ChannelConfig()
    z, n = 1.0, 1_000_000
    _, gains = _draw_links(np.random.default_rng(20260829), np.full(n, z), env, cfg)
    samples = -np.expm1(-1.0 * gains)
    se = samples.std(ddof=1) / math.sqrt(n)
    assert abs(samples.mean() - kernel_table([z], [1.0], env, cfg, 48)[0, 0]) < 3.0 * se


def _chunked_shadow_expectation(coef, m_ln, s_ln, wbar, hermite_nodes):
    """Oracle: the kernel's three-branch expectation with the windowed branch
    evaluated in 8192-cell chunks, cell by cell, without blocked buffers or
    per-row gates."""
    coef = np.asarray(coef, dtype=float)
    s = np.broadcast_to(np.asarray(s_ln, dtype=float), coef.shape)
    out = np.empty(coef.shape)
    flat_c, flat_s, flat_o = coef.ravel(), s.ravel(), out.ravel()
    zero = flat_c == 0.0
    flat_o[zero] = 0.0
    linear = ~zero & (flat_c < channel.linear_threshold(m_ln, flat_s))
    flat_o[linear] = flat_c[linear] * np.exp(m_ln + 0.5 * flat_s[linear] ** 2)
    gh_mask = ~zero & ~linear & (flat_s < channel._S_SWITCH)
    if gh_mask.any():
        x, w = np.polynomial.hermite.hermgauss(hermite_nodes)
        c, sg = flat_c[gh_mask], flat_s[gh_mask]
        acc = np.zeros(c.shape)
        for xi, wi in zip(x, w):
            with np.errstate(over="ignore"):
                t = c * np.exp(m_ln + np.sqrt(2.0) * sg * xi) / wbar
                acc += wi * -np.expm1(-wbar * np.log1p(t))
        flat_o[gh_mask] = acc / np.sqrt(np.pi)
    win_mask = ~zero & ~linear & ~gh_mask
    if win_mask.any():
        y, w = channel._window_rule(max(6, hermite_nodes // 4))
        fy = w * -np.expm1(-wbar * np.log1p(np.exp(y) / wbar))
        c, sw = flat_c[win_mask], flat_s[win_mask]
        x0 = (-np.log(c) - m_ln) / sw
        vals = np.empty(c.shape)
        for lo in range(0, c.size, 8192):
            sl = slice(lo, min(lo + 8192, c.size))
            xx = x0[sl, None] + y[None, :] / sw[sl, None]
            vals[sl] = np.exp(-0.5 * xx * xx) @ fy
        vals /= np.sqrt(2.0 * np.pi) * sw
        vals += ndtr(-(x0 + channel._WIN_Y_HI / sw))
        vals += np.exp(np.log(c) + m_ln + 0.5 * sw ** 2
                       + log_ndtr(x0 + channel._WIN_Y_LO / sw - sw))
        flat_o[win_mask] = vals
    return np.clip(out, 0.0, 1.0), int(linear.sum()), int(gh_mask.sum()), int(win_mask.sum())


@pytest.mark.parametrize("n_win_blocks", [(0, 1), (1, 0), (1, 1), (2, 37), (3, 5)])
def test_shadow_expectation_matches_chunked_oracle(n_win_blocks):
    # windowed cell counts 1, one block, one block + 1 and beyond two blocks,
    # interleaved with linear, Gauss-Hermite and zero cells
    blocks, extra = n_win_blocks
    n_win = blocks * channel._WIN_BLOCK + extra
    rng = np.random.default_rng(7 + n_win)
    m_ln, wbar = -4.1, 2.0
    s_win = rng.uniform(1.3, 8.0, n_win)
    s_gh = rng.uniform(0.05, 1.1, 300)
    s_lin = rng.uniform(0.05, 8.0, 300)
    s = np.concatenate([s_win, s_gh, s_lin, [2.0, 0.5]])
    scale = 10.0 ** np.concatenate([rng.uniform(0.5, 14.0, n_win + 300),
                                    rng.uniform(-3.0, -0.1, 300), [0.0, 0.0]])
    coef = channel.linear_threshold(m_ln, s) * scale
    coef[-2:] = 0.0
    order = rng.permutation(coef.size)
    coef, s = coef[order], s[order]
    expected, n_lin, n_gh, n_w = _chunked_shadow_expectation(coef, m_ln, s, wbar, 32)
    assert (n_lin, n_gh, n_w) == (300, 300, n_win)
    got = channel._shadow_expectation(coef, m_ln, s, wbar, 32)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)


def test_shadow_expectation_row_gates_match_chunked_oracle():
    # kernel_table's layout: one spread per row broadcast over the v columns
    env, cfg = environment_preset("high_rise"), ChannelConfig()
    z = np.geomspace(0.1, 1e6, 40)
    v = np.geomspace(1e-10, 1e8, 90)
    for mode in ("los", "nlos"):
        _, _, wbar = cfg.mode_params(mode)
        m_ln, s_ln = shadowing_log_moments(z, 1.0, mode, env)
        coef = np.outer(path_loss(z, 1.0, mode, cfg), v)
        s_col = np.asarray(s_ln)[:, None]
        expected, n_lin, n_gh, n_w = _chunked_shadow_expectation(
            coef, float(m_ln), s_col, wbar, 48)
        assert min(n_lin, n_w) > 0
        got = channel._shadow_expectation(coef, float(m_ln), s_col, wbar, 48)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("block", [1, 90, 7 * 90 + 1])
def test_kernel_table_blocks_agree_with_one_pass(monkeypatch, block):
    # one row at a time, one row per block, and blocks that do not divide
    # the 40 rows agree with one pass over the whole table; not to the byte,
    # since the normal family's matmul rounds by the width of its operand
    env, cfg = environment_preset("high_rise"), ChannelConfig()
    z, v = np.geomspace(0.1, 1e6, 40), np.geomspace(1e-10, 1e8, 90)
    whole = kernel_table(z, v, env, cfg, NODES)
    monkeypatch.setattr(channel, "_TABLE_BLOCK", block)
    np.testing.assert_allclose(kernel_table(z, v, env, cfg, NODES), whole,
                               rtol=1e-15, atol=0.0)


# The normal family against scipy.special. Distances are in ulps of scipy's
# value. Both ndtr's evaluate erfc at the same rounded y = |x|/sqrt2, but
# scipy forms exp(-y*y) from the rounded square, a relative error up to
# y^2 2^-53 = x^2/2 ulp, which Cody's split of exp(-y^2) avoids; the two
# rationals, exponentials and products add a few ulp on each side.
def ulp_distance(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return np.where(got == ref, 0.0, np.abs(got - ref) / np.spacing(np.abs(ref)))


def test_ndtr_matches_scipy_within_the_conditioning_bound():
    x = np.linspace(-37.0, 9.0, 400_001)
    assert (ulp_distance(channel.ndtr(x), ndtr(x)) <= 16.0 + x * x / 2.0).all()


def test_log_ndtr_matches_scipy_into_the_far_tail():
    # below -0.66, ln Phi = ln(erfcx(y)/2) - y^2 takes no exponential and
    # -y^2 dominates, so both sides sit within a few ulp of the true value
    # out to x = -1e150; above 0.66, ln Phi = log1p(-Phi(-x)) inherits
    # Phi(-x)'s bound
    lower = np.concatenate([-np.geomspace(1e150, 0.5, 100_001),
                            np.linspace(-0.5, 0.0, 10_001)])
    assert ulp_distance(channel.log_ndtr(lower), log_ndtr(lower)).max() <= 8.0
    upper = np.linspace(0.0, 37.0, 100_001)
    assert (ulp_distance(channel.log_ndtr(upper), log_ndtr(upper))
            <= 16.0 + upper * upper / 2.0).all()


def test_ndtri_matches_scipy_and_inverts_ndtr():
    # AS 241 and scipy are each accurate to about 1e-16 before rounding; the
    # log, square root and two degree-7 polynomials add a few ulp per side
    p = np.concatenate([np.geomspace(1e-300, 0.5, 200_001),
                        np.linspace(0.0, 1.0, 200_001)[1:-1],
                        1.0 - np.geomspace(1e-16, 0.5, 50_001)])
    assert ulp_distance(channel.ndtri(p), ndtri(p)).max() <= 12.0
    # round trip on the lower half, where p = Phi(x) keeps full relative
    # precision: p's relative error of (16 + x^2/2) 2^-52 moves x by that
    # times Phi(x)/phi(x) <= min(1.26, 1/|x|) (Mills' ratio), plus ndtri's
    # own 12 ulp of x
    x = np.linspace(-37.0, 0.0, 200_001)
    err = np.abs(channel.ndtri(channel.ndtr(x)) - x)
    assert (err <= 2.0 ** -52 * (21.0 + 21.0 * np.abs(x))).all()


@pytest.mark.parametrize("name", ["ndtr", "log_ndtr", "ndtri"])
def test_normal_family_edge_values_are_scipys(name):
    # Phi(-a) underflows to 0 deep in the spike sampler's tail, where
    # ndtri(0) = -inf must follow; nan's sign is not compared
    from scipy import special

    if name == "ndtri":
        x = np.array([0.0, -0.0, 1.0, 0.5, -0.1, 1.1, np.inf, -np.inf, np.nan])
    else:
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300,
                      -38.0, -40.0, 38.5, 40.0])
    got, ref = getattr(channel, name)(x), getattr(special, name)(x)
    np.testing.assert_array_equal(got, ref)
    assert (np.signbit(got) == np.signbit(ref))[~np.isnan(ref)].all()
    scalar = getattr(channel, name)(0.25)
    assert np.ndim(scalar) == 0 and ulp_distance(scalar, getattr(special, name)(0.25)) <= 2


def test_normal_family_writes_in_place_and_keeps_shape():
    x = np.linspace(-9.0, 3.0, 2 * channel._NORMAL_BLOCK + 7).reshape(3, -1)
    expected = channel.ndtr(x)
    assert expected.shape == x.shape
    channel.ndtr(x, out=x)
    np.testing.assert_array_equal(x, expected)
    with pytest.raises(ValueError, match="contiguous"):
        channel.ndtri(np.full(4, 0.3), out=np.empty((4, 2))[:, 0])
