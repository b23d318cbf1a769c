"""Acceptance battery: ten end-to-end checks covering placement optimality,
analytic/Monte-Carlo agreement, qualitative capacity and efficiency trends,
closed-form limits, sampling fidelity, numerical robustness, and determinism.

Each test prints (and records for the terminal summary) one verdict line,
then asserts it. One check is known to fail for this model as built and is
asserted faithfully rather than weakened: the environment-ordering check
(test 4). At kappa=0.8, X=3 km the high_rise serving link is LOS at the zone
edge with probability 0.018 (sub_urban: 0.986), so its signal is the weakest,
and in every environment the interference is mostly NLOS, because the
shadowing spread a*exp(-c*theta) approaches a_nlos (29.6-37.1 dB) at the
grazing elevations of distant interferers; high_rise therefore sees no less
interference than sub_urban. Which part the paper models differently cannot
be settled from the repository; scripts/acceptance_diagnostics.py prints the
evidence.

The altitude leg of test 6 checks only altitudes where the zone edge is LOS
with probability >= 0.95. Below that, EE rises with altitude as the zone
edge turns LOS: for sub_urban at X=3 km it peaks near 0.75-1 km, the
optimal-altitude behaviour of the LOS-sigmoid channel (Al-Hourani,
Kandeepan & Lardner, IEEE WCL 2014), not a defect.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
import yaml
from conftest import ACCEPTANCE_LINES
from scipy.special import digamma, polygamma

from uavcache import analytics, cli, simulator
from uavcache.analytics import (PowerModel, QuadratureConfig, ScenarioConfig,
                                content_capacity, energy_efficiency,
                                system_capacity)
from uavcache.caching import (ContentLibrary, lru_che, mpc_policy,
                              rcp_objective, solve_rcp, zipf_popularity)
from uavcache.channel import (ChannelConfig, environment_preset, kernel_table,
                              linear_threshold, los_probability, path_loss,
                              shadowing_log_moments)
from uavcache.harness import parse_config
from uavcache.simulator import _draw_links, estimate_capacity

ENVS = ("high_rise", "dense_urban", "urban", "sub_urban")
X_GRID = (0.5, 1.0, 2.0, 3.0, 4.0)
KAPPA_GRID = (0.2, 0.8, 1.4)
EDGE_LOS = 0.95  # zone-edge LOS probability above which EE may not rise with H


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    return line


def rcp_scenario(env_name, x_cop, kappa=0.8, size=20, cache=5, **kw):
    """Default deployment with the optimal randomized placement for its zone."""
    lib = ContentLibrary(size, kappa)
    beta = math.pi * kw.get("uav_density", 1e-3) * x_cop ** 2
    pol = (solve_rcp(lib.popularity, cache, beta) if beta > 0
           else mpc_policy(lib.popularity, cache))
    return ScenarioConfig(library=lib, policy=pol,
                          env=environment_preset(env_name),
                          coop_radius_km=x_cop, **kw)


@pytest.fixture(scope="module")
def capacity_grid():
    """System rate (bits) over environment x zone radius x popularity skew."""
    grid = {}
    for env_name in ENVS:
        for x in X_GRID:
            for kappa in KAPPA_GRID:
                cfg = rcp_scenario(env_name, x, kappa)
                grid[(env_name, x, kappa)] = system_capacity(cfg).system_rate_bits
    return grid


def test_criterion_01_placement_optimality():
    # exact lattice optimum at step 1e-3: the objective sum a_i (1 - e^(-beta
    # p_i)) is separable and concave, so greedy marginal allocation of
    # cache/step steps under the box p_i <= 1 is optimal on the lattice (Fox,
    # Mgmt. Sci. 13, 1966). Each file's step gains fall, so the greedy steps
    # are the cache/step largest gains over all files, and each file takes a
    # prefix of its own.
    def lattice_best(a, cache, beta, step=1e-3):
        levels = np.arange(round(1.0 / step) + 1) * step
        gains = a[:, None] * -np.diff(np.exp(-beta * levels))
        picked = np.argsort(gains, axis=None)[::-1][:round(cache / step)]
        steps = np.bincount(picked // gains.shape[1], minlength=a.size)
        return float((a * -np.expm1(-beta * levels[steps])).sum())

    rng = np.random.default_rng(20260819)
    worst_gap = -math.inf
    worst_kkt = 0.0
    for _ in range(50):
        size = int(rng.integers(2, 6))
        cache = int(rng.integers(1, size + 1))
        kappa = float(rng.uniform(0.0, 2.0))
        beta = float(10 ** rng.uniform(math.log10(0.05), math.log10(30.0)))
        a = zipf_popularity(size, kappa)
        pol = solve_rcp(a, cache, beta)
        solver = rcp_objective(a, pol.probabilities, beta)
        worst_gap = max(worst_gap, lattice_best(a, cache, beta) - solver)
        p = pol.probabilities
        marginal = a * beta * np.exp(-beta * p)
        interior = marginal[(p > 1e-6) & (p < 1 - 1e-6)]
        if interior.size >= 2:
            worst_kkt = max(worst_kkt,
                            float(np.ptp(interior) / interior.max()))
    ok = worst_gap < 1e-6 and worst_kkt < 1e-6
    line = _verdict(1, ok, f"50 random instances: worst lattice excess "
                           f"{worst_gap:.2e} (< 1e-6), worst equal-marginal "
                           f"residual {worst_kkt:.2e} (< 1e-6)")
    assert ok, line


def floor_bias_in_se(cfg, est, n_trials=10_000):
    """The far field's floor bias bound on est, in units of the content's
    standard error at n_trials: a trial's rate r moves by at most
    B min(1, 2r) (`simulator._FarField._threshold`), and an estimate scaled
    by the nonempty-zone probability q by at most B q min(1, 2 r_bar), with
    r_bar = mean / q the rate given a nonempty zone (Jensen: min(1, 2r) is
    concave)."""
    far = simulator._FarField(cfg.env, cfg.channel, cfg.interferer_density,
                              cfg.coop_radius_km)
    q = -math.expm1(-cfg.coop_mean(float(cfg.policy.probabilities[0])))
    se = float(est.samples.std(ddof=1)) / math.sqrt(n_trials)
    return far.bias * q * min(1.0, 2.0 * est.mean / q) / se


def test_criterion_02_analytic_mc_agreement():
    details = []
    ok = True
    bias_se = {}
    # Every leg bounds |z| by the two-sided 1e-3 normal quantile 3.29 plus
    # the estimate's largest biases in its own standard errors: the floor's
    # (floor_bias_in_se at the leg's trial count) and the analytic rate's
    # rel_tol.
    rel_tol = QuadratureConfig().rel_tol
    # sparse legs, 1e-3 UAVs per km^2: zone means of 0.003-0.028 UAVs
    for env_name in ("sub_urban", "high_rise"):
        for x in (1.0, 3.0):
            cfg = rcp_scenario(env_name, x)
            analytic = content_capacity(cfg, 1)
            est = estimate_capacity(cfg, 1, 100_000, 2026)
            key = f"{env_name} X={x:g}"
            bias_se[key] = floor_bias_in_se(cfg, est)
            z = (est.mean - analytic) / est.stderr
            z_max = (3.29 + floor_bias_in_se(cfg, est, 100_000)
                     + rel_tol * analytic / est.stderr)
            ok &= abs(z) < z_max
            details.append(f"{key}, 1e5 trials: z {z:+.2f}, |z| < {z_max:.2f}")
    # cooperative legs, 1 UAV per km^2 at X = 3 km: a zone mean of 28 UAVs,
    # about 9 cooperators for the top content
    for env_name in ("sub_urban", "high_rise"):
        cfg = rcp_scenario(env_name, 3.0, uav_density=1.0)
        assert cfg.zone_mean_uavs >= 3.0
        analytic = content_capacity(cfg, 1)
        est = estimate_capacity(cfg, 1, 10_000, 2026)
        bias_se[f"{env_name} X=3 coop"] = floor_bias_in_se(cfg, est)
        z = (est.mean - analytic) / est.stderr
        z_max = 3.29 + bias_se[f"{env_name} X=3 coop"] + rel_tol * analytic / est.stderr
        ok &= abs(z) < z_max
        details.append(f"{env_name} X=3 zone mean {cfg.zone_mean_uavs:.0f}, 1e4 trials: "
                       f"z {z:+.2f}, |z| < {z_max:.2f}")
    # the floor bias bound is below a tenth of each content's standard error
    # at the default 10k trials
    ok &= max(bias_se.values()) <= 0.1
    line = _verdict(2, ok, "top content, conditioned trials: " + "; ".join(details)
                    + "; floor bias bound / SE(1e4) <= 0.1: "
                    + ", ".join(f"{k} {v:.3f}" for k, v in bias_se.items()))
    assert ok, line


def test_criterion_03_capacity_trends(capacity_grid):
    ok_x = all(capacity_grid[(e, xa, k)] <= capacity_grid[(e, xb, k)] + 1e-15
               for e in ENVS for k in KAPPA_GRID
               for xa, xb in zip(X_GRID, X_GRID[1:]))
    ok_k = all(capacity_grid[(e, x, ka)] <= capacity_grid[(e, x, kb)] + 1e-15
               for e in ENVS for x in X_GRID
               for ka, kb in zip(KAPPA_GRID, KAPPA_GRID[1:]))
    ok = ok_x and ok_k
    line = _verdict(3, ok, f"system rate nondecreasing in zone radius: {ok_x}, "
                           f"in popularity skew: {ok_k} "
                           f"(all envs, X in {list(X_GRID)}, kappa in "
                           f"{list(KAPPA_GRID)})")
    assert ok, line


def test_criterion_04_environment_ordering(capacity_grid):
    rates = {e: capacity_grid[(e, 3.0, 0.8)] for e in ENVS}
    others = [e for e in ENVS if e != "high_rise"]
    ok = all(rates["high_rise"] > rates[e] for e in others)
    ratios = ", ".join(f"high_rise/{e}={rates['high_rise'] / rates[e]:.2f}"
                       for e in others)
    in_band = all(1.3 <= rates["high_rise"] / rates[e] <= 3.0 for e in others)
    line = _verdict(4, ok, f"kappa=0.8 X=3: high_rise={rates['high_rise']:.4g} "
                           f"dense_urban={rates['dense_urban']:.4g} "
                           f"urban={rates['urban']:.4g} "
                           f"sub_urban={rates['sub_urban']:.4g} bits; {ratios}; "
                           f"diagnostic band [1.3, 3.0] met: {in_band}")
    assert ok, line


def test_criterion_05_policy_comparison():
    ok = True
    worst_lru = math.inf
    worst_mpc = math.inf
    for kappa in (0.4, 0.8, 1.2):
        for size in (10, 15, 20, 30, 40):
            lib = ContentLibrary(size, kappa)
            base = ScenarioConfig(library=lib,
                                  policy=mpc_policy(lib.popularity, 5),
                                  env=environment_preset("sub_urban"),
                                  coop_radius_km=1.0)
            rates = {}
            for kind, pol in (
                    ("rcp", solve_rcp(lib.popularity, 5, base.zone_mean_uavs)),
                    ("mpc", mpc_policy(lib.popularity, 5)),
                    ("lru", lru_che(lib.popularity, 5))):
                rates[kind] = system_capacity(
                    base.with_policy(pol)).system_rate_bits
            worst_lru = min(worst_lru, rates["rcp"] - rates["lru"])
            ok &= rates["rcp"] >= rates["lru"] - 1e-15
            if size >= 20:
                worst_mpc = min(worst_mpc, rates["rcp"] - rates["mpc"])
                ok &= rates["rcp"] >= rates["mpc"] - 1e-15
    line = _verdict(5, ok, f"S=5 X=1 sub_urban: min(RCP - LRU) = "
                           f"{worst_lru:.2e} over all kappa/F; "
                           f"min(RCP - MPC) = {worst_mpc:.2e} for F >= 20")
    assert ok, line


def test_criterion_06_ee_trends():
    x_leg = []
    for x in (0.5, 1.0, 2.0, 3.0):
        cfg = rcp_scenario("sub_urban", x)
        x_leg.append(energy_efficiency(cfg, system_capacity(cfg)))
    ok_x = all(b >= a for a, b in zip(x_leg, x_leg[1:]))
    h_grid = (0.5, 1.0, 2.0, 3.0)
    h_leg = []
    for h in h_grid:
        cfg = rcp_scenario("sub_urban", 3.0, channel=ChannelConfig(altitude_km=h))
        h_leg.append(energy_efficiency(cfg, system_capacity(cfg)))
    # Below the altitude where the zone edge turns LOS, climbing buys LOS
    # links and EE rises (the optimal-altitude peak of the LOS sigmoid);
    # once the edge is LOS, climbing only lengthens links, so EE must not rise.
    env = environment_preset("sub_urban")
    los_h = [h for h in h_grid if los_probability(3.0, h, env) >= EDGE_LOS]
    los_leg = [ee for h, ee in zip(h_grid, h_leg) if h in los_h]
    ok_h = (len(los_leg) >= 3
            and all(b <= a for a, b in zip(los_leg, los_leg[1:])))
    ok = ok_x and ok_h
    line = _verdict(6, ok, "efficiency nondecreasing in zone radius: "
                           f"{ok_x} ({[f'{v:.3g}' for v in x_leg]}); "
                           f"nonincreasing in altitude where the zone edge "
                           f"is LOS w.p. >= {EDGE_LOS} (H in {los_h}, >= 3 "
                           f"needed): {ok_h} "
                           f"(H in {list(h_grid)}: "
                           f"{[f'{v:.3g}' for v in h_leg]})")
    assert ok, line


def test_criterion_07_ee_closed_form():
    cfg = rcp_scenario("sub_urban", 1.0, power=PowerModel(0.0, 0.0, 0.0, 1.0))
    report = system_capacity(cfg)
    ee = energy_efficiency(cfg, report)
    closed = float(np.sum(cfg.library.popularity * -np.expm1(-report.coop_means)))
    gap_closed = abs(ee - closed)
    cfg2 = rcp_scenario("sub_urban", 1.0)
    report2 = system_capacity(cfg2)
    gap_k = abs(energy_efficiency(cfg2, report2, k_max=50)
                - energy_efficiency(cfg2, report2, k_max=200))
    ok = gap_closed < 1e-10 and gap_k < 1e-12
    line = _verdict(7, ok, f"all-zero power: |EE - closed form| = "
                           f"{gap_closed:.1e} (< 1e-10); k-sum 50 vs 200 "
                           f"truncation gap = {gap_k:.1e} (< 1e-12)")
    assert ok, line


def test_criterion_08_channel_statistics():
    # every gate draws its links with the Monte Carlo sampler, which returns
    # the product L * V * W per link
    cfg = ChannelConfig()
    checks = []
    n = 100_000

    hr = environment_preset("high_rise")
    p = los_probability(2.0, 1.0, hr)
    los, _ = _draw_links(np.random.default_rng(55), np.full(n, 2.0), hr, cfg)
    checks.append(("los fraction",
                   abs(los.mean() - p) / math.sqrt(p * (1 - p) / n)))

    # sub_urban at r = 6.6 km, H = 1 km: P_LOS ~ 0.5, both modes populated
    su = environment_preset("sub_urban")
    r = 6.6
    loss = {mode: path_loss(r, 1.0, mode, cfg) for mode in ("los", "nlos")}

    # fading: with mu = a = 0 the shadowing gain is 1, so gain / L = W
    flat = replace(su, mu_los=0.0, mu_nlos=0.0, a_los=0.0, a_nlos=0.0)
    los, gain = _draw_links(np.random.default_rng(56), np.full(n, r), flat, cfg)
    for mode, mask in (("los", los), ("nlos", ~los)):
        shape = cfg.mode_params(mode)[2]
        x = gain[mask] / loss[mode]
        checks.append((f"fading mean {mode}",
                       abs(x.mean() - 1.0) / math.sqrt(1.0 / shape / x.size)))
        var = 1.0 / shape
        se_var = var * math.sqrt((2.0 + 6.0 / shape) / x.size)
        checks.append((f"fading var {mode}",
                       abs(x.var(ddof=1) - var) / se_var))

    # log gain: per mode, ln(gain / L) = ln V + ln W has mean
    # m_ln + psi(W) - ln W, variance s_ln^2 + psi_1(W) and fourth cumulant
    # psi_3(W) (polygamma); pooled over modes, ln gain is the P_LOS mixture
    # of the per-mode laws shifted by ln L
    los, gain = _draw_links(np.random.default_rng(57), np.full(n, r), su, cfg)
    log_gain = np.log(gain)
    p_los = los_probability(r, 1.0, su)
    mix_mean = mix_square = 0.0
    for mode, mask, p_mode in (("los", los, p_los), ("nlos", ~los, 1.0 - p_los)):
        shape = cfg.mode_params(mode)[2]
        m_ln, s_ln = shadowing_log_moments(r, 1.0, mode, su)
        mean = float(m_ln) + digamma(shape) - math.log(shape)
        var = float(s_ln) ** 2 + polygamma(1, shape)
        y = log_gain[mask] - math.log(loss[mode])
        checks.append((f"log gain mean {mode}",
                       abs(y.mean() - mean) / math.sqrt(var / y.size)))
        se_var = math.sqrt((polygamma(3, shape) + 2.0 * var * var) / y.size)
        checks.append((f"log gain var {mode}",
                       abs(y.var(ddof=1) - var) / se_var))
        mode_mean = mean + math.log(loss[mode])
        mix_mean += p_mode * mode_mean
        mix_square += p_mode * (var + mode_mean ** 2)
    checks.append(("log gain mean, modes mixed",
                   abs(log_gain.mean() - mix_mean)
                   / math.sqrt((mix_square - mix_mean ** 2) / n)))

    # interference kernel against the sampler's links on the 3x3 grid
    n_k = 1_000_000
    worst_kernel = 0.0
    for z in (0.5, 1.0, 2.0):
        rng = np.random.default_rng(20260819 + int(z * 10))
        _, gains = _draw_links(rng, np.full(n_k, z), su, cfg)
        for v_pt in (0.1, 1.0, 10.0):
            samples = -np.expm1(-v_pt * gains)
            se = samples.std(ddof=1) / math.sqrt(n_k)
            ref = kernel_table([z], [v_pt], su, cfg, 48)[0, 0]
            worst_kernel = max(worst_kernel, abs(samples.mean() - ref) / se)
    checks.append(("laplace kernel 3x3 grid", worst_kernel))

    for name, z in checks:
        print(f"  {name}: |z| = {z:.2f}")
    worst_name, worst_z = max(checks, key=lambda item: item[1])
    ok = worst_z < 3.0
    line = _verdict(8, ok, f"{len(checks)} moment/fraction/kernel gates, "
                           f"worst |z| = {worst_z:.2f} ({worst_name}) < 3")
    assert ok, line


def direct_radial_table(env, cfg, quad, k_lo, k_hi):
    """`analytics._radial_table` without the unit-altitude table: the same
    edges and panels, the far panels out to the tail edges of the grid's
    largest v and the linear rest beyond them, evaluated at cfg's own
    altitude on the v grid of the ln w lattice panels k_lo to k_hi,
    w = v k_los H^-alpha_los, so nothing is interpolated."""
    alpha, k, _ = cfg.mode_params("los")
    v = analytics._v_rule(k_lo, k_hi)[0] * cfg.altitude_km ** alpha / k
    edges = cfg.altitude_km * analytics._radial_edges(
        analytics._grazing_radius(env, quad.rel_tol))
    every = np.append(edges, analytics._tail_edges(env, cfg, float(v[-1]), float(edges[-1])))
    panels = analytics._panel_integrals(v, env, cfg, quad, every)
    rest = analytics._linear_rest(v, env, cfg, float(every[-1])).sum(axis=0)
    prefix = np.cumsum(np.vstack([np.zeros(v.size), panels[:edges.size - 1]]), axis=0)
    suffix = np.cumsum(np.vstack([rest, panels[::-1]]), axis=0)[::-1][:edges.size]
    return edges, prefix, suffix


def test_criterion_09_numerical_robustness(monkeypatch, cold_tables, cold_field):
    base_cfg = rcp_scenario("sub_urban", 1.0)
    base = content_capacity(base_cfg, 1)
    groups = analytics._radial_group.cache_info().misses
    rel_changes = {}
    # the transform window: both ends start one move further out
    lo, hi = analytics._W_START
    with monkeypatch.context() as patch:
        patch.setattr(analytics, "_W_START", (lo - analytics._W_STEP, hi + analytics._W_STEP))
        rel_changes["window"] = abs(content_capacity(base_cfg, 1) - base) / base
    alt_cfg = ScenarioConfig(library=base_cfg.library, policy=base_cfg.policy,
                             env=base_cfg.env, coop_radius_km=1.0,
                             quadrature=QuadratureConfig(
                                 hermite_nodes=2 * QuadratureConfig().hermite_nodes))
    rel_changes["hermite_nodes"] = abs(content_capacity(alt_cfg, 1) - base) / base
    # the radial table: its edges run 1.6**(2*_FAR_STEP) times farther out
    # (two more far panels) before its far tail begins, or put an edge on
    # every lattice step beyond 64 km, the far tail's included, instead of
    # every _FAR_STEP-th one; each patch must add edges. The table memos are
    # emptied before and after each patch, so each patch builds every
    # u-group of the radial table once and no patched table outlives it
    grazing_radius = analytics._grazing_radius
    rel_tol = QuadratureConfig().rel_tol

    def edge_count():
        return analytics._radial_edges(analytics._grazing_radius(base_cfg.env, rel_tol)).size

    edges = edge_count()
    far_ratio = analytics._OUTER_RATIO ** analytics._FAR_STEP
    for name, attr, value in (
            ("grazing_radius", "_grazing_radius",
             lambda *args: far_ratio ** 2 * grazing_radius(*args)),
            ("far_panels", "_FAR_STEP", 1)):
        with monkeypatch.context() as patch:
            cold_tables()
            patch.setattr(analytics, attr, value)
            rel_changes[name] = abs(content_capacity(base_cfg, 1) - base) / base
            table_builds = analytics._radial_group.cache_info().misses
            patched_edges = edge_count()
        cold_tables()
        assert table_builds == groups > 0, f"the {name} leg must rebuild the radial table"
        assert patched_edges > edges, f"the {name} leg must add radial panel edges"
    # the far tail's stop rule: its panels run out to where every cell sits
    # below half of the kernel's linear gate; at 1/16 of that gate (only
    # `_tail_edges` reads the name in analytics) the groups take more tail
    # panels and the linear rest starts farther out, and the rate must not
    # move. Each side builds its groups cold and counts their tail panels
    tail_edges = analytics._tail_edges
    tail_panels = []
    for gate in (linear_threshold, lambda m_ln, s_ln: linear_threshold(m_ln, s_ln) / 16.0):
        counts = []

        def counting(*args):
            out = tail_edges(*args)
            counts.append(out.size)
            return out

        with monkeypatch.context() as patch:
            cold_tables()
            patch.setattr(analytics, "linear_threshold", gate)
            patch.setattr(analytics, "_tail_edges", counting)
            rate = content_capacity(base_cfg, 1)
        cold_tables()
        tail_panels.append(sum(counts))
    assert len(counts) == groups and tail_panels[1] > tail_panels[0]
    rel_changes["tail_gate"] = abs(rate - base) / base
    # the transform rule: 20 Gauss-Legendre nodes per ln w panel in place of
    # _V_NODES must not move the rate
    with monkeypatch.context() as patch:
        cold_tables()
        patch.setattr(analytics, "_V_NODES", 20)
        rel_changes["v_nodes"] = abs(content_capacity(base_cfg, 1) - base) / base
    cold_tables()
    # the zone: at a low altitude and a wide zone (X/H = 400) the zone
    # integral spans the most panels; 20 Gauss-Legendre nodes per radial
    # panel in place of 12 must not move the rate either (_GL_NODES moves
    # only the radial nodes, the far tail's included, not the transform
    # rule's)
    zone_cfg = rcp_scenario("urban", 20.0, channel=ChannelConfig(altitude_km=0.05))
    zone_base = content_capacity(zone_cfg, 1)
    with monkeypatch.context() as patch:
        cold_tables()
        patch.setattr(analytics, "_GL_NODES", 20)
        rel_changes["zone"] = abs(content_capacity(zone_cfg, 1) - zone_base) / zone_base
    cold_tables()
    # the altitude: each altitude reads its environment's one unit-altitude
    # table at u = v H^-alpha_n, interpolated in ln u; against the same zeta
    # panels with the kernel evaluated at the scenario's own altitude on the
    # v grid, the rates must not move
    altitude_cfgs = [rcp_scenario(name, 3.0, channel=ChannelConfig(altitude_km=h))
                     for name in ENVS for h in (0.05, 0.5, 2.0, 3.0)] + [zone_cfg]
    read = [system_capacity(cfg).per_content_nats for cfg in altitude_cfgs]
    with monkeypatch.context() as patch:
        cold_tables()
        patch.setattr(analytics, "_radial_table", direct_radial_table)
        direct = [system_capacity(cfg).per_content_nats for cfg in altitude_cfgs]
    cold_tables()
    rel_changes["altitude"] = max(float(np.max(np.abs(r - d)[d > 0] / d[d > 0]))
                                  for r, d in zip(read, direct))
    ok_analytic = all(c < rel_tol for c in rel_changes.values())

    # the far field carries the interference beyond the zone: a threshold
    # chosen at a tenth of the floor's bias budget resolves more spikes and
    # must not move the estimate in either environment; the field memos are
    # emptied around the patch, so both sides draw their own field
    spike_gaps = {}
    for env_name in ("sub_urban", "high_rise"):
        cfg = rcp_scenario(env_name, 1.0)
        cold_field()
        coarse = estimate_capacity(cfg, 1, 10_000, 11)
        with monkeypatch.context() as patch:
            cold_field()
            patch.setattr(simulator, "_FLOOR_BIAS", simulator._FLOOR_BIAS / 10.0)
            fine = estimate_capacity(cfg, 1, 10_000, 11)
        cold_field()
        spike_gaps[env_name] = (abs(coarse.mean - fine.mean),
                                1.96 * math.hypot(coarse.stderr, fine.stderr))
    ok_mc = all(gap < half_width for gap, half_width in spike_gaps.values())
    ok = ok_analytic and ok_mc
    line = _verdict(9, ok, "refinement rel change: "
                    + ", ".join(f"{k} {v:.1e}" for k, v in rel_changes.items())
                    + f" (< {rel_tol:g}); tail panels {tail_panels[0]} -> {tail_panels[1]}"
                    + "; floor bias / 10 gap < CI half-width: "
                    + ", ".join(f"{k} {gap:.1e} < {hw:.1e}"
                                for k, (gap, hw) in spike_gaps.items()))
    assert ok, line


def test_criterion_10_determinism(tmp_path, cold_field):
    template = """\
scenario:
  environment: sub_urban
  library_size: 20
  zipf_exponent: 0.8
  cache_size: 5
  subchannels: 64
  simulation:
    chunk_size: 100
    n_jobs: {jobs}
sweeps:
  - name: det
    variable: x_cop
    grid: [0.5, 1.0]
    methods: [monte_carlo]
    trials: 300
    seed: 12
"""
    # more trials than one chunk, so the threaded run splits every row
    (spec,) = parse_config(yaml.safe_load(template.format(jobs=4))).sweeps
    assert spec.trials > spec.sim_options.chunk_size
    outputs = {}
    for tag, jobs in (("first", 1), ("second", 1), ("threaded", 4)):
        cold_field()  # each run draws its own far fields
        cfg_path = tmp_path / f"{tag}.yaml"
        out_path = tmp_path / f"{tag}.csv"
        cfg_path.write_text(template.format(jobs=jobs))
        rc = cli.main(["sweep", "--config", str(cfg_path),
                       "--out", str(out_path)])
        assert rc == 0
        outputs[tag] = out_path.read_bytes()
    rerun_same = outputs["first"] == outputs["second"]
    jobs_same = outputs["first"] == outputs["threaded"]
    ok = rerun_same and jobs_same
    line = _verdict(10, ok, f"rerun byte-identical: {rerun_same}; "
                            f"n_jobs 1 vs 4 byte-identical: {jobs_same}")
    assert ok, line
