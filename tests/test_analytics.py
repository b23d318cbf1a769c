"""Semi-analytic capacity and energy efficiency: factor behavior, frozen
regression points, the per-geometry table memos and the EE sums."""
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import gammainc, gammaln

from uavcache import analytics
from uavcache.analytics import (CapacityReport, PowerModel, QuadratureConfig,
                                ScenarioConfig, content_capacity,
                                energy_efficiency, energy_efficiency_exact,
                                system_capacity)
from uavcache.caching import (ContentLibrary, PlacementPolicy, lru_che,
                              mpc_policy, solve_rcp)
from uavcache.channel import (ENVIRONMENT_PRESETS, ChannelConfig,
                              environment_preset, kernel_table,
                              linear_threshold, los_probability,
                              shadowing_log_moments)
from uavcache.errors import ConfigError, ConvergenceError


def reference_scenario(env_name, radius_km, quadrature=QuadratureConfig(),
                       altitude_km=1.0, uav_density=1e-3):
    """Default-parameter scenario with the optimal randomized placement."""
    lib = ContentLibrary(20, 0.8)
    seed_cfg = ScenarioConfig(lib, mpc_policy(lib.popularity, 5),
                              environment_preset(env_name),
                              channel=ChannelConfig(altitude_km=altitude_km),
                              quadrature=quadrature, uav_density=uav_density,
                              coop_radius_km=radius_km)
    policy = solve_rcp(lib.popularity, 5, seed_cfg.zone_mean_uavs)
    return seed_cfg.with_policy(policy)


# --- configuration objects ---------------------------------------------------

def test_quadrature_validation():
    with pytest.raises(ConfigError):
        QuadratureConfig(hermite_nodes=1)
    with pytest.raises(ConfigError):
        QuadratureConfig(rel_tol=0.0)
    # the transform window's ends are guarded, not set
    assert [f.name for f in fields(QuadratureConfig)] == ["hermite_nodes", "rel_tol"]


def test_power_model():
    pm = PowerModel()
    assert pm.fixed_power(5) == pytest.approx(1.0 + 0.5 + 1.0, rel=1e-15)
    with pytest.raises(ConfigError):
        PowerModel(transmit_w=-1.0)


def test_scenario_derived_quantities():
    cfg = reference_scenario("sub_urban", 3.0)
    assert cfg.interferer_density == pytest.approx(1e-3 / 64, rel=1e-15)
    assert cfg.zone_mean_uavs == pytest.approx(math.pi * 1e-3 * 9.0, rel=1e-15)
    assert cfg.coop_mean(0.5) == pytest.approx(cfg.zone_mean_uavs * 0.5, rel=1e-15)


def test_scenario_validation():
    lib = ContentLibrary(4, 1.0)
    pol = mpc_policy(lib.popularity, 2)
    env = environment_preset("urban")
    with pytest.raises(ConfigError):
        ScenarioConfig(lib, pol, env, uav_density=-1e-3)
    with pytest.raises(ConfigError):
        ScenarioConfig(lib, pol, env, coop_radius_km=-1.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(lib, pol, env, subchannels=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(ContentLibrary(5, 1.0), pol, env)


# --- Laplace-functional factors ---------------------------------------------

def laplace_factors(v, cfg, p_c):
    """(noncaching interference, caching interference outside the zone, zone
    signal) at any v, from the engine's radial panels, split at X as its
    reader splits them, and its grazing-limit tails."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    env, ch, quad, x = cfg.env, cfg.channel, cfg.quadrature, cfg.coop_radius_km
    edges = ch.altitude_km * analytics._radial_edges(
        analytics._grazing_radius(env, quad.rel_tol))
    i = int(np.searchsorted(edges, x, side="right"))
    panels = analytics._panel_integrals(v, env, ch, quad, np.insert(edges, i, x))
    tails = analytics._grazing_tails(v, env, ch, quad, float(edges[-1]))
    zone = panels[:i].sum(axis=0)
    outside = panels[i:].sum(axis=0) + tails["los"] + tails["nlos"]
    return analytics._laplace_factors(zone, outside, cfg, p_c)


def test_factors_at_zero_transform_variable():
    cfg = reference_scenario("sub_urban", 1.0)
    noncaching, caching_out, signal = laplace_factors(0.0, cfg, 0.5)
    assert noncaching[0] == pytest.approx(1.0)
    assert caching_out[0] == pytest.approx(1.0)
    assert signal[0] == pytest.approx(0.0, abs=1e-15)


def test_factors_monotone_in_transform_variable():
    cfg = reference_scenario("sub_urban", 1.0)
    v = np.array([0.01, 0.1, 1.0, 10.0, 100.0])
    t1, t2, t3 = laplace_factors(v, cfg, 0.5)
    assert np.all(np.diff(t1) < 0) and np.all((t1 > 0) & (t1 <= 1))
    assert np.all(np.diff(t2) < 0) and np.all((t2 > 0) & (t2 <= 1))
    assert np.all(np.diff(t3) > 0) and np.all((t3 >= 0) & (t3 <= 1))


def test_factors_monotone_in_placement_probability():
    # more caching shrinks the noncaching interferer pool and grows the rest
    cfg = reference_scenario("sub_urban", 1.0)
    grid = [0.0, 0.3, 0.7, 1.0]
    t1, t2, _ = zip(*(laplace_factors(1.0, cfg, p) for p in grid))
    assert np.all(np.diff(np.concatenate(t1)) > 0)
    assert np.all(np.diff(np.concatenate(t2)) < 0)
    assert t2[0][0] == pytest.approx(1.0)


def test_cooperative_factor_saturates_to_void_complement_squared():
    # as v grows the zone integral tends to X^2/2, so the zone signal term
    # approaches the nonempty-zone probability 1 - exp(-mean cooperator count)
    for name, radius, rel in (("sub_urban", 3.0, 1e-4), ("high_rise", 1.0, 1e-6)):
        cfg = reference_scenario(name, radius)
        p1 = float(cfg.policy.probabilities[0])
        target = -math.expm1(-cfg.coop_mean(p1))
        got = laplace_factors(1e9, cfg, p1)[2][0]
        assert got == pytest.approx(target, rel=rel), name


# --- capacity ---------------------------------------------------------------

# frozen outputs of this module recorded at adoption time with
# hermite_nodes=48; at that setting any kernel change must reproduce them
REFERENCE_QUADRATURE = QuadratureConfig(hermite_nodes=48)
REFERENCE_VALUES = {
    ("sub_urban", 1.0): (0.020682720320145724, 0.011395888680849623,
                         6.464888424728026e-08, 2.036847885932849e-05),
    ("sub_urban", 3.0): (0.15040181644426132, 0.08286929045435588,
                         3.681635088642294e-05, 0.0012184289983257321),
    ("high_rise", 1.0): (0.007709541726150092, 0.004247849312452177,
                         2.409861770057353e-08, 7.648974103712492e-06),
    ("high_rise", 3.0): (0.02797130344444727, 0.015411795710485045,
                         6.860433014219087e-06, 0.00024229778240631014),
}


@pytest.mark.parametrize("env_name,radius", sorted(REFERENCE_VALUES))
def test_reference_scenarios_are_stable(env_name, radius):
    cfg = reference_scenario(env_name, radius, REFERENCE_QUADRATURE)
    top_rate, system_rate, ee, ee_exact = REFERENCE_VALUES[(env_name, radius)]
    assert content_capacity(cfg, 1) == pytest.approx(top_rate, rel=1e-10)
    report = system_capacity(cfg)
    assert report.system_rate_nats == pytest.approx(system_rate, rel=1e-10)
    assert energy_efficiency(cfg, report) == pytest.approx(ee, rel=1e-10)
    assert energy_efficiency_exact(cfg, report) == pytest.approx(ee_exact, rel=1e-10)
    default = system_capacity(reference_scenario(env_name, radius))
    assert default.system_rate_nats == pytest.approx(system_rate, rel=1e-7)


def test_default_hermite_nodes_are_converged():
    # the preset geometry where the kernel's quadrature error is largest:
    # doubling the default node count must move the system rate < rel_tol
    quad = QuadratureConfig()
    doubled = replace(quad, hermite_nodes=2 * quad.hermite_nodes)
    rates = [system_capacity(reference_scenario("sub_urban", 3.0, q, altitude_km=0.5))
             .system_rate_nats for q in (quad, doubled)]
    assert rates[0] == pytest.approx(rates[1], rel=quad.rel_tol)


def test_capacity_units_and_aggregation():
    cfg = reference_scenario("sub_urban", 1.0)
    report = system_capacity(cfg)
    per = np.array([content_capacity(cfg, c) for c in range(1, 21)])
    np.testing.assert_allclose(report.per_content_nats, per, rtol=1e-12)
    assert report.system_rate_nats == pytest.approx(
        float(np.sum(cfg.library.popularity * per)), rel=1e-12)
    np.testing.assert_allclose(report.per_content_bits,
                               report.per_content_nats / math.log(2.0), rtol=1e-15)
    assert report.system_rate_bits == pytest.approx(
        report.system_rate_nats / math.log(2.0), rel=1e-15)
    # rates fall with popularity rank under the optimal placement
    assert np.all(np.diff(report.per_content_nats) <= 1e-15)


def test_uniform_policy_collapses_to_one_rate():
    lib = ContentLibrary(8, 0.0)
    pol = PlacementPolicy(np.full(8, 0.25), 2, "rcp")
    cfg = ScenarioConfig(lib, pol, environment_preset("urban"))
    report = system_capacity(cfg)
    assert np.ptp(report.per_content_nats) == 0.0
    assert report.per_content_nats[0] == pytest.approx(
        content_capacity(cfg, 5), rel=1e-12)


def test_capacity_input_validation():
    cfg = reference_scenario("sub_urban", 1.0)
    with pytest.raises(ValueError):
        content_capacity(cfg, 0)
    with pytest.raises(ValueError):
        content_capacity(cfg, 21)


def test_capacity_grows_with_cooperation_radius():
    rates = [content_capacity(reference_scenario("urban", x), 1)
             for x in (0.5, 1.0, 2.0)]
    assert np.all(np.diff(rates) > 0)


# --- far radial table ----------------------------------------------------------

def start_tables(env, ch, quad, x_cop):
    """A geometry's tables on the window every rate assembly starts on."""
    return analytics._geometry_tables(env, ch, quad, x_cop, *analytics._W_START)


def lattice_far_radial(v, env, ch, quad, j0, v_top):
    """The radial integral beyond the lattice edge H * 1.6**j0 by panels on
    every lattice edge out to where v_top * L(z) sits below half the kernel's
    grazing linear gate, plus the analytic linear remainder beyond, all at the
    altitude H itself and integrated in z: an independent oracle for the
    grazing-limit tail, the wide ln zeta panels and the table's read at
    u = v H^-alpha."""
    h = ch.altitude_km
    z_end = 2.0 * h
    for mode in ("los", "nlos"):
        alpha, k, _ = ch.mode_params(mode)
        m_ln, s_ln = shadowing_log_moments(1e9, h, mode, env)
        c_lin = float(linear_threshold(float(m_ln), float(s_ln)))
        z_end = max(z_end, math.sqrt((2.0 * v_top * k / c_lin) ** (2.0 / alpha) - h * h))
    j_end = max(j0 + 1, math.ceil(math.log(z_end / h) / analytics._OUTER_LOG))
    edges = h * analytics._OUTER_RATIO ** np.arange(j0, j_end + 1)
    z, w = analytics._gl_panels(edges, analytics._GL_NODES)
    far = (w * z) @ kernel_table(z, v, env, ch, quad.hermite_nodes)
    z_far = float(edges[-1])
    p_los = los_probability(z_far, h, env)
    for mode, p_mode in (("los", p_los), ("nlos", 1.0 - p_los)):
        alpha, k, _ = ch.mode_params(mode)
        m_ln, s_ln = shadowing_log_moments(z_far, h, mode, env)
        far += (p_mode * k * math.exp(m_ln + 0.5 * float(s_ln) ** 2)
                * (h * h + z_far * z_far) ** (1.0 - alpha / 2.0) / (alpha - 2.0) * v)
    return far


@pytest.mark.parametrize("env_name", sorted(ENVIRONMENT_PRESETS))
def test_far_radial_matches_lattice_oracle(env_name):
    # the radial table's suffix from the edge where its panels turn
    # _FAR_STEP lattice steps wide and take their nodes in ln zeta
    # (H * 1.6**9 km), against the every-edge oracle in z
    quad = QuadratureConfig()
    env = environment_preset(env_name)
    j0 = math.ceil(math.log(analytics._Z_COARSE) / analytics._OUTER_LOG)
    for h in (0.5, 1.0, 3.0):
        ch = ChannelConfig(altitude_km=h)
        edges, _, suffix = analytics._radial_table(env, ch, quad, *analytics._W_START)
        v = start_tables(env, ch, quad, 1.0).v_grid
        i = int(np.searchsorted(edges, h * analytics._Z_COARSE))
        assert edges[i] == h * analytics._OUTER_RATIO ** j0
        want = lattice_far_radial(v, env, ch, quad, j0, v[-1])
        np.testing.assert_allclose(suffix[i], want, rtol=1e-8, atol=0, err_msg=f"H={h}")


# --- radial table reader ---------------------------------------------------------

@pytest.mark.parametrize("env_name", sorted(ENVIRONMENT_PRESETS))
def test_reader_splits_the_whole_plane(env_name):
    # zone(X) + outside(X) is the whole-plane integral at any X: the two
    # partial panels stand in for the table panel that holds X, so the sum
    # moves only by that panel's quadrature error; the kernel steps where a
    # shadowing spread crosses its Gauss-Hermite/windowed switch, which holds
    # that error near 1e-9 of the panel, below 3e-11 of the whole
    quad = QuadratureConfig()
    env = environment_preset(env_name)
    for h in (0.05, 1.0):
        ch = ChannelConfig(altitude_km=h)
        edges, prefix, suffix = analytics._radial_table(env, ch, quad, *analytics._W_START)
        whole = prefix[-1] + suffix[-1]
        # the last X lies inside the last (widest) panel before z_far
        last = math.sqrt(edges[-2] * edges[-1])
        for x in (0.1, 1.0, 3.0, 20.0, 100.0, 400.0, 1e4, last):
            tables = start_tables(env, ch, quad, x)
            np.testing.assert_allclose(tables.zone + tables.outside, whole,
                                       rtol=1e-10, atol=0, err_msg=f"H={h} X={x}")


def test_reader_edge_cases():
    quad = QuadratureConfig()
    env, ch = environment_preset("sub_urban"), ChannelConfig(altitude_km=1.0)
    edges, prefix, _ = analytics._radial_table(env, ch, quad, *analytics._W_START)
    v = start_tables(env, ch, quad, 1.0).v_grid

    def zone_oracle(edges):
        return analytics._panel_integrals(v, env, ch, quad, edges).sum(axis=0)

    # below the first edge (1.6**-2 km, the first at or above H/4) the zone
    # is one partial panel from 0
    assert edges[1] > 0.1
    np.testing.assert_allclose(start_tables(env, ch, quad, 0.1).zone,
                               zone_oracle(np.linspace(0.0, 0.1, 5)), rtol=1e-12)
    # on a lattice edge (1.6**0 km) the inner partial panel is empty
    on_edge = int(np.flatnonzero(edges == 1.0)[0])
    assert np.array_equal(start_tables(env, ch, quad, 1.0).zone,
                          prefix[on_edge])
    # beyond 64 km X sits inside a _FAR_STEP-step panel integrated in ln z;
    # the finer oracle agrees to the kernel's step at its branch switch,
    # near 1e-9
    i = int(np.searchsorted(edges, 100.0)) - 1
    assert edges[i + 1] / edges[i] == pytest.approx(1.6 ** analytics._FAR_STEP)
    np.testing.assert_allclose(
        start_tables(env, ch, quad, 100.0).zone,
        zone_oracle(np.concatenate([[0.0], np.geomspace(0.05, 100.0, 97)])),
        rtol=1e-8)
    # at or beyond the last edge, z_far, there is no panel to read
    for x in (float(edges[-1]), 10.0 * edges[-1]):
        with pytest.raises(ConvergenceError, match=re.escape(f"cooperation radius {x:g} km")):
            start_tables(env, ch, quad, x)
    cfg = replace(reference_scenario("sub_urban", 1.0), coop_radius_km=float(edges[-1]))
    with pytest.raises(ConvergenceError, match="cooperation radius"):
        system_capacity(cfg)


# --- per-geometry table memos ----------------------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch, cold_tables):
    """Empty table memos for the test, and a running count of kernel_table
    calls made by the analytic engine."""
    calls = []
    inner = analytics.kernel_table

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(analytics, "kernel_table", counted)
    return calls


@pytest.fixture
def group_builds(monkeypatch, cold_tables):
    """Empty table memos for the test, and the key (environment, unit-altitude
    channel, hermite_nodes, rel_tol, u-group index) of every radial table
    group built, in build order."""
    built = []
    memo = analytics._radial_group

    def recording(*key):
        misses = memo.cache_info().misses
        out = memo(*key)
        if memo.cache_info().misses > misses:
            built.append(key)
        return out

    recording.cache_clear, recording.cache_info = memo.cache_clear, memo.cache_info
    monkeypatch.setattr(analytics, "_radial_group", recording)
    return built


def unit_groups(panels=analytics._W_START):
    """The u-groups a 1 km altitude with equal intercepts reads: the ln w
    lattice panels of its table, _GROUP_PANELS to a group (35 panels in 9
    groups on the window every rate assembly starts on)."""
    size = analytics._GROUP_PANELS
    return list(range(panels[0] // size, panels[1] // size + 1))


def test_density_sweep_builds_tables_once(kernel_calls, group_builds):
    # one build per geometry: the radial table (one kernel call per u-group)
    # and its read at X, shared by the window guard and by every density
    cfg = reference_scenario("sub_urban", 1.0)
    for density in (1e-4, 1e-3, 1e-2):
        assert system_capacity(replace(cfg, uav_density=density)).system_rate_nats > 0
    assert [key[-1] for key in group_builds] == unit_groups()
    assert len(kernel_calls) == len(unit_groups()) + 1


def test_coop_radius_sweep_shares_far_table(kernel_calls, group_builds, cold_tables):
    # the radial table does not depend on X: a sweep over X builds it once,
    # and each X adds one kernel table, its read of the two partial panels
    cfg = reference_scenario("sub_urban", 1.0)
    at_3 = replace(cfg, coop_radius_km=3.0)
    groups = len(unit_groups())
    system_capacity(cfg)
    assert len(kernel_calls) == groups + 1
    shared = system_capacity(at_3).per_content_nats
    assert len(kernel_calls) == groups + 2
    cold_tables()
    cold = system_capacity(at_3).per_content_nats
    assert np.array_equal(shared, cold)
    # a new environment builds its own radial table
    before, built = len(kernel_calls), len(group_builds)
    system_capacity(replace(at_3, env=environment_preset("high_rise")))
    assert len(kernel_calls) - before == groups + 1
    assert [key[-1] for key in group_builds[built:]] == unit_groups()
    # a new altitude reads the same table: LOS at u = w, and 2 km shifts the
    # NLOS range 1.15 lattice panels down, so it builds only the u-group
    # below the 1 km range, and one kernel call reads
    before, built = len(kernel_calls), len(group_builds)
    system_capacity(replace(at_3, channel=ChannelConfig(altitude_km=2.0)))
    assert [key[-1] for key in group_builds[built:]] == [unit_groups()[0] - 1]
    assert len(kernel_calls) - before == 1 + 1
    # an X beyond the one-step panels (64 km) reads the same table
    tables = analytics._radial_group.cache_info().currsize
    before = len(kernel_calls)
    system_capacity(replace(cfg, coop_radius_km=100.0))
    assert len(kernel_calls) - before == 1
    assert analytics._radial_group.cache_info().currsize == tables


def test_far_table_is_keyed_on_rel_tol(kernel_calls):
    # rel_tol sets the grazing radius where the radial panels end, so two
    # tolerances at one geometry build two radial tables
    cfg = reference_scenario("sub_urban", 1.0)
    for rel_tol in (1e-6, 1e-8):
        system_capacity(replace(cfg, quadrature=QuadratureConfig(rel_tol=rel_tol)))
    groups = len(unit_groups())
    assert len(kernel_calls) == 2 * (groups + 1)
    assert analytics._radial_group.cache_info().currsize == 2 * groups


def bumped(value):
    """A nearby admissible value of a config field."""
    return value + 1 if isinstance(value, int) else value * 1.1 + 0.01


def test_table_memos_key_on_every_number_they_read(kernel_calls, group_builds):
    # the memos are keyed on the frozen config objects themselves, so every
    # field of Environment, ChannelConfig and QuadratureConfig but the
    # environment's name is in the key; the name, density, sub-channel count
    # and placement are not, and cost no table build. The radial table's
    # groups hold it at unit altitude on fixed ln u panels, so the altitude
    # and intercepts key only the read, as does the window: none builds a
    # group inside the range already covered
    cfg = reference_scenario("sub_urban", 1.0)
    groups = unit_groups()
    system_capacity(cfg)
    assert len(kernel_calls) == len(groups) + 1
    for other in (replace(cfg, env=replace(cfg.env, name="renamed")),
                  replace(cfg, uav_density=2e-3), replace(cfg, subchannels=16),
                  cfg.with_policy(mpc_policy(cfg.library.popularity, 5))):
        system_capacity(other)
    assert len(kernel_calls) == len(groups) + 1
    assert len(group_builds) == len(groups)
    for attr in ("env", "channel", "quadrature"):
        config = getattr(cfg, attr)
        for f in fields(config):
            if (attr, f.name) == ("env", "name"):
                continue
            perturbed = replace(cfg, **{attr: replace(
                config, **{f.name: bumped(getattr(config, f.name))})})
            built, before = len(group_builds), len(kernel_calls)
            start_tables(perturbed.env, perturbed.channel, perturbed.quadrature,
                         perturbed.coop_radius_km)
            new = [key[-1] for key in group_builds[built:]]
            if (attr, f.name) in (("channel", "k_los"), ("channel", "altitude_km")):
                # k_nlos/k_los = 1/1.11, or 1.11 km, shifts the NLOS range
                # down by under a panel, into the group below the range,
                # which the first of the two builds
                assert new == ([groups[0] - 1] if f.name == "k_los" else []), \
                    f"{attr}.{f.name}"
            elif (attr, f.name) == ("channel", "k_nlos"):
                # k_nlos/k_los = 1.11 ends in the last group the range reads
                assert new == [], f"{attr}.{f.name}"
            else:
                assert new == groups, f"{attr}.{f.name}"
            assert len(kernel_calls) - before == len(new) + 1, f"{attr}.{f.name}"
    # a window moved out at either end builds only the groups beyond the
    # ones its table already has, and one read
    lo, hi = analytics._W_START
    table = group_builds[0][:-1]
    for window in ((lo - analytics._W_STEP, hi), (lo, hi + analytics._W_STEP)):
        have = {key[-1] for key in group_builds if key[:-1] == table}
        built, before = len(group_builds), len(kernel_calls)
        analytics._geometry_tables(cfg.env, cfg.channel, cfg.quadrature,
                                   cfg.coop_radius_km, *window)
        new = [key[-1] for key in group_builds[built:]]
        assert sorted(new) == sorted(set(unit_groups(window)) - have) != [], window
        assert len(kernel_calls) - before == len(new) + 1, window


def test_empty_zone_rates_are_zero_without_tables(kernel_calls):
    # with no UAV expected in the zone no cooperator can serve any content,
    # so the rates are zero before any radial integral is needed
    cfg = reference_scenario("sub_urban", 1.0)
    for empty in (replace(cfg, coop_radius_km=0.0), replace(cfg, uav_density=0.0)):
        report = system_capacity(empty)
        assert np.array_equal(report.per_content_nats, np.zeros(20))
        assert report.system_rate_nats == 0.0
        assert content_capacity(empty, 1) == 0.0
    assert len(kernel_calls) == 0


@pytest.fixture
def window_oracle(monkeypatch, cold_tables):
    """Per-content rates of the same engine started on the ln w lattice
    panels from w = 1e-19 to 10^16.5, with the table memos emptied around
    it."""
    def rates(cfg):
        cold_tables()
        with monkeypatch.context() as patch:
            patch.setattr(analytics, "_W_START", (-38, 32))
            out = system_capacity(cfg).per_content_nats
        cold_tables()
        return out
    return rates


def window_panels(cfg):
    """The first and last lattice panel of the window a rate assembly
    accepted at cfg, guard panels included."""
    return analytics._assemble_rates(cfg, cfg.policy.probabilities)[1].panels


def test_window_lower_end_moves_out_in_dense_zones(window_oracle):
    # at X = 20 km and 10 UAVs per km^2 the zone signal is not yet linear in
    # v at w = 1e-10, so the start window's lower guard panel holds mass:
    # the lower end must move out until the rates agree with the oracle
    for name, h in (("dense_urban", 0.3), ("high_rise", 1.0), ("sub_urban", 1.0)):
        cfg = reference_scenario(name, 20.0, altitude_km=h, uav_density=10.0)
        want = window_oracle(cfg)
        got = system_capacity(cfg).per_content_nats
        assert window_panels(cfg)[0] < analytics._W_START[0], name
        np.testing.assert_allclose(got, want, rtol=cfg.quadrature.rel_tol, atol=0,
                                   err_msg=name)


def test_window_upper_end_moves_out_from_a_low_start(window_oracle, monkeypatch,
                                                     cold_tables):
    # started with its upper guard panel at w = 1e4, a sparse zone's window
    # must grow and land within rel_tol of the oracle; every assembly starts
    # from the same window, so the rates do not depend on whether another
    # density built the tables first
    cfg = reference_scenario("high_rise", 1.0, uav_density=1e-4)
    want = window_oracle(cfg)
    monkeypatch.setattr(analytics, "_W_START", (analytics._W_START[0], 8))
    cold = system_capacity(cfg).per_content_nats
    assert window_panels(cfg)[1] > 8
    np.testing.assert_allclose(cold, want, rtol=cfg.quadrature.rel_tol, atol=0)
    cold_tables()
    for density in (1e-2, 1e-3):
        system_capacity(replace(cfg, uav_density=density))
    assert np.array_equal(system_capacity(cfg).per_content_nats, cold)


def test_window_cap_names_the_end(monkeypatch):
    # an end still over its budget after the last move raises, naming it
    monkeypatch.setattr(analytics, "_W_MOVES", 0)
    dense = reference_scenario("high_rise", 20.0, uav_density=10.0)
    with pytest.raises(ConvergenceError, match="the lower end of the transform window"):
        system_capacity(dense)
    monkeypatch.setattr(analytics, "_W_START", (analytics._W_START[0], 8))
    with pytest.raises(ConvergenceError, match="the upper end of the transform window"):
        system_capacity(reference_scenario("high_rise", 1.0, uav_density=1e-4))


def test_altitude_sweep_builds_one_table_per_environment(kernel_calls, group_builds,
                                                          cold_tables):
    # the ee_vs_altitude preset's rows: four environments at H = 0.5-3 km,
    # X = 3 km. Every altitude reads its environment's one unit-altitude
    # table, so the groups built belong to four tables, each built once by
    # one kernel call; each row adds one call, its read at X. LOS reads
    # u = w at every altitude; shifted by -(alpha_nlos - alpha_los) ln H,
    # the NLOS range reaches one group above the 1 km range's at 0.5 km and
    # one below it at 2 and 3 km
    heights = (0.5, 1.0, 2.0, 3.0)
    envs = sorted(ENVIRONMENT_PRESETS)

    def rates(order):
        return {(name, h): system_capacity(reference_scenario(
                    name, 3.0, altitude_km=h)).per_content_nats
                for name in envs for h in order}

    forward = rates(heights)
    assert len({key[:-1] for key in group_builds}) == len(envs)
    assert len(set(group_builds)) == len(group_builds)
    groups = unit_groups()
    span = list(range(groups[0] - 1, groups[-1] + 2))
    for name in envs:
        env = environment_preset(name)
        assert sorted(key[-1] for key in group_builds if key[0] == env) == span, name
    assert len(kernel_calls) == len(group_builds) + len(envs) * len(heights)
    # a group's bits do not depend on which altitude built it first
    cold_tables()
    backward = rates(heights[::-1])
    for key, want in forward.items():
        assert np.array_equal(backward[key], want), key


def loop_rates(cfg):
    """The per-content assembly the block replaced: each distinct p_c > 0
    integrated alone over the window the block accepted, its guard panels
    left out."""
    tables = analytics._assemble_rates(cfg, cfg.policy.probabilities)[1]
    inner = slice(analytics._GL_NODES, -analytics._GL_NODES)
    weights, zone, outside = tables.weights[inner], tables.zone[inner], tables.outside[inner]
    lam_i = cfg.interferer_density
    by_p = {}
    for p_c in map(float, cfg.policy.probabilities):
        if p_c not in by_p:
            by_p[p_c] = 0.0
            if p_c > 0.0:
                noncaching = np.exp(-2.0 * np.pi * (1.0 - p_c) * lam_i * (zone + outside))
                caching_out = np.exp(-2.0 * np.pi * p_c * lam_i * outside)
                signal = -np.expm1(-2.0 * np.pi * p_c * cfg.uav_density * zone)
                by_p[p_c] = float((weights * noncaching * caching_out * signal).sum())
    return np.array([by_p[float(p)] for p in cfg.policy.probabilities])


@pytest.mark.parametrize("env_name", ["sub_urban", "high_rise"])
@pytest.mark.parametrize("policy", ["rcp", "mpc", "lru_che"])
def test_block_assembly_equals_the_per_content_loop(env_name, policy):
    cfg = reference_scenario(env_name, 1.0)
    lib = cfg.library
    if policy == "mpc":
        cfg = cfg.with_policy(mpc_policy(lib.popularity, 5))
    elif policy == "lru_che":
        cfg = cfg.with_policy(lru_che(lib.popularity, 5))
    report = system_capacity(cfg)
    want = loop_rates(cfg)
    assert report.per_content_nats.tobytes() == want.tobytes()
    assert report.system_rate_nats == float(np.sum(lib.popularity * want))


def test_rates_do_not_depend_on_evaluation_order(cold_tables):
    cfg = reference_scenario("urban", 1.0)
    first, second = (replace(cfg, uav_density=d) for d in (1e-3, 1e-2))
    cold = {}
    for c in (first, second):
        cold_tables()
        cold[c.uav_density] = system_capacity(c).per_content_nats
    # each density served from the table the other one built
    assert np.array_equal(system_capacity(first).per_content_nats, cold[1e-3])
    cold_tables()
    system_capacity(first)
    assert np.array_equal(system_capacity(second).per_content_nats, cold[1e-2])


# --- energy efficiency --------------------------------------------------------

def test_ee_positive_and_ordered():
    cfg = reference_scenario("sub_urban", 3.0)
    report = system_capacity(cfg)
    ee = energy_efficiency(cfg, report)
    exact = energy_efficiency_exact(cfg, report)
    assert 0.0 < ee < exact


def test_ee_truncation_is_stable():
    cfg = reference_scenario("sub_urban", 3.0)
    report = system_capacity(cfg)
    assert energy_efficiency(cfg, report, k_max=50) == pytest.approx(
        energy_efficiency(cfg, report, k_max=200), abs=1e-12)


def test_ee_decreases_with_static_power():
    cfg = reference_scenario("sub_urban", 3.0)
    report = system_capacity(cfg)
    heavier = replace(cfg, power=PowerModel(static_w=10.0))
    assert energy_efficiency(heavier, report) < energy_efficiency(cfg, report)


def test_ee_free_hardware_counts_nonempty_zones():
    # with no fixed power draw the efficiency reduces to the popularity-
    # weighted nonempty-zone probability divided by the rate power slope
    cfg = replace(reference_scenario("sub_urban", 3.0),
                  power=PowerModel(0.0, 0.0, 0.0, 1.0))
    report = system_capacity(cfg)
    closed = float(np.sum(cfg.library.popularity * -np.expm1(-report.coop_means)))
    assert energy_efficiency_exact(cfg, report) == pytest.approx(closed, abs=1e-12)


def test_ee_poisson_tail_overflow():
    # the Poisson sum is sized from the cooperator mean, so a mean of 16000
    # is summed; one whose sum would exceed _K_MAX_TERMS raises instead
    lib = ContentLibrary(1, 0.0)
    cfg = ScenarioConfig(lib, mpc_policy(lib.popularity, 1),
                         environment_preset("sub_urban"))
    report = CapacityReport(np.array([1.0]), np.array([16000.0]), 1.0)
    assert energy_efficiency_exact(cfg, report) > 0.0
    with pytest.raises(ConvergenceError, match="cooperator mean of 1e\\+09"):
        energy_efficiency_exact(cfg, replace(report, coop_means=np.array([1e9])))


def test_poisson_k_max_is_the_smallest_k_at_any_mean():
    # oracle: the fixed 2000-term scan, exact wherever it reaches the bound
    ks = np.arange(1, 2001)
    for m in np.geomspace(1e-6, 1700.0, 200):
        expected = int(ks[np.argmax(gammainc(ks + 1.0, m) < 1e-12)])
        assert analytics._poisson_k_max(m, 1e-12) == expected
    for m in (1800.0, 5000.0, 1e5):
        k = analytics._poisson_k_max(m, 1e-12)
        assert gammainc(k + 1.0, m) < 1e-12 <= gammainc(k, m)


def test_log_factorial_matches_gammaln():
    # below 1024 the table holds math.lgamma; above, Stirling's sum has three
    # rounded terms no larger than the result: each side is within 2 ulp
    k = np.concatenate([np.arange(5000), np.geomspace(5000, 1e7, 2000).astype(int)])
    got, ref = analytics._log_factorial(k), gammaln(k + 1.0)
    assert got[:2].tolist() == [0.0, 0.0]
    assert (np.abs(got - ref)[2:] / np.spacing(ref[2:])).max() <= 4.0


def test_poisson_tail_matches_gammainc():
    # P(N > k) = gammainc(k + 1, m). Each pmf term's exponent
    # j ln m - m - ln j! sums three terms rounded to an ulp of their size,
    # so the tail carries a relative error of a few times
    # 2^-52 (k |ln m| + m + ln k!), its terms lying a few standard
    # deviations past k: 16 times that bounds it
    for m in np.geomspace(1e-6, 1e5, 60):
        k = np.arange(int(m + 40.0 * math.sqrt(m) + 60.0))
        ref = gammainc(k + 1.0, m)
        got = analytics._poisson_tail(k, m)
        live = ref > 1e-300
        scale = 2.0 ** -52 * (k * abs(math.log(m)) + m + gammaln(k + 1.0) + 1.0)
        assert (np.abs(got[live] / ref[live] - 1.0) <= 16.0 * scale[live]).all(), m
    assert analytics._poisson_tail(3, 2.0) == pytest.approx(gammainc(4.0, 2.0), rel=1e-15)


def test_radial_truncation_overflow_names_the_environment():
    # a grazing-angle NLOS spread of 400 dB underflows the kernel's linear
    # gate, so no finite radial truncation exists
    env = replace(environment_preset("urban"), name="canyon", a_nlos=400.0)
    cfg = replace(reference_scenario("urban", 1.0), env=env)
    with pytest.raises(ConvergenceError, match="shadowing spread of environment 'canyon'"):
        system_capacity(cfg)


# --- exact invariances --------------------------------------------------------

@pytest.mark.parametrize("env_name", ["sub_urban", "high_rise"])
def test_rates_are_invariant_under_intercept_scaling(env_name):
    # scaling both path-loss intercepts by c scales every gain, signal and
    # interference alike, so the SIR and every rate stay; the transform
    # window sits on the scenario's gain scale w = v k_los H^-alpha_los, so
    # the engine sums the same w nodes and reads the same tables at any c
    for x in (1.0, 3.0):
        cfg = reference_scenario(env_name, x)
        ch = cfg.channel
        base = system_capacity(cfg).per_content_nats
        for c in (1e-10, 1e-3, 2.0 ** 20, 1e6, 1e8):
            scaled = replace(cfg, channel=replace(ch, k_los=c * ch.k_los,
                                                  k_nlos=c * ch.k_nlos))
            np.testing.assert_allclose(system_capacity(scaled).per_content_nats, base,
                                       rtol=1e-14, atol=0, err_msg=f"X={x} c={c:g}")


@pytest.mark.parametrize("env_name", ["sub_urban", "high_rise"])
def test_rates_are_invariant_under_length_scaling(env_name):
    # the SIR has no noise term, so scaling every length (altitude and
    # cooperation radius) by a, density by 1/a^2 and each path-loss
    # intercept k_n by a^alpha_n leaves every rate unchanged; the gain scale
    # w = v k_los H^-alpha_los and the NLOS shift in ln u are the same at
    # every a, so the engine sums the same w nodes read from the same
    # unit-altitude table: the rates agree to rounding
    for x in (1.0, 3.0):
        cfg = reference_scenario(env_name, x)
        ch = cfg.channel
        base = system_capacity(cfg).per_content_nats
        live = base > 0.0
        for a in (0.5, 2.0, 4.0):
            scaled = replace(
                cfg, uav_density=cfg.uav_density / a ** 2, coop_radius_km=a * x,
                channel=replace(ch, altitude_km=a * ch.altitude_km,
                                k_los=ch.k_los * a ** ch.alpha_los,
                                k_nlos=ch.k_nlos * a ** ch.alpha_nlos))
            rates = system_capacity(scaled).per_content_nats
            assert np.array_equal(rates > 0.0, live)
            gap = np.max(np.abs(rates[live] / base[live] - 1.0))
            assert gap < 1e-14, f"X={x} a={a}: {gap:.2e}"
