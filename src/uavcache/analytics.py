"""Semi-analytic capacity and energy efficiency.

The average per-content rate is an integral over the Laplace-transform
variable v of three factors: interference from UAVs not caching the content
(whole plane), interference from caching UAVs outside the cooperation zone,
and the signal term contributed by cooperating UAVs inside the zone. All
three reduce to radial integrals of the channel's Laplace kernel, evaluated
here with composite Gauss-Legendre panels, and shared across contents,
policies, densities and sub-channel counts: density and sub-channel count
enter only the final assembly of each rate, never the radial integrals. That
assembly is one block, a row per distinct placement probability plus one for
the window guard's probe, over the geometry's tables (`_assemble_rates`).
Its ln v panels sit on a lattice in w = v k_los H^-alpha_los, the scenario's
own LOS gain scale, with a guard panel beyond each end of the window summed.
Each ln w panel takes _V_NODES = 8 Gauss-Legendre nodes, and each radial
panel takes _GL_NODES = 8.

Every radial integral is read from one table per (environment, channel
without its altitude and intercepts, quadrature). With zeta = z/H the LOS
probability and the shadowing spread depend on zeta alone and the path loss
is k_n H^-alpha_n (1 + zeta^2)^(-alpha_n/2), so each link mode's integral at
altitude H is H^2 times its integral at unit altitude and intercept at
u = v k_n H^-alpha_n. The table holds those per mode (`_build_groups`):
panels on the lattice of powers of 1.6 in zeta, one from 0 to the first edge
at or above 1/4, then every edge up to 64, then every sixth, in ln zeta, out
to zeta_far, where P_LOS and the shadowing spread sit at their grazing-angle
limits within rel_tol. Out there the integrand is a power law times slowly
varying marks, smooth in ln zeta, so those wide panels take their nodes in
ln zeta (`_radial_nodes`). They go on past zeta_far to where every kernel
is linear in u (`_tail_edges`), and the rest is one power-law integral per
mode (`_linear_rest`). Each link mode whose shadowing spread crosses the
kernel's Gauss-Hermite/windowed switch adds the zeta of that crossing as an
edge (`_switch_crossings`), so no panel straddles the kernel's step. The
table keeps the prefix and suffix sums at every edge up to zeta_far, so
neither side of a split cancels, on the Gauss-Legendre nodes of the same
absolute ln u panel lattice as the w grid, memoized in
fixed groups of _GROUP_PANELS panels, so a geometry builds only the groups
its shifted range needs that no other geometry built, all of them in one
kernel call. A kernel cell is a function of its own inputs alone, so a
group's bits do not depend on which geometry asked for it first, nor on
which other groups shared its call.
`_radial_table` reads it at a geometry: LOS reads u = w, and the NLOS shift
by ln(k_nlos/k_los) - (alpha_nlos - alpha_los) ln H is the same for every
node, so each w panel's nodes come from the two u panels they fall in by one
fixed barycentric Legendre interpolation matrix (`_shift_matrix`); at
H = 1 km with equal intercepts nothing is interpolated. Against the same
panels evaluated at the altitude itself the read's prefix and suffix sums
agree within 3.3e-9 relative (4 environments, H = 0.05-3 km), but for the
urban suffix, 7.5e-8, where a group's own tail edges end its far panels
sooner than the whole grid's do.
`_geometry_tables` reads it at a cooperation radius X from the two partial
panels around X, evaluated at the scenario's own altitude; an X on an edge
reads the table's rows alone, with no kernel call. The reads are
memoized with `functools.lru_cache` and the groups in `_RADIAL_GROUPS`, each
on exactly what it reads, the read also on the altitude, the intercepts, X
and the window; an environment's name takes no part in its equality, so it
keys nothing.

Rates are in nats per channel use internally; energy efficiency converts to
bits and reads the dynamic-power slope as W per (bit/channel use).
"""
from __future__ import annotations

import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .caching import ContentLibrary, PlacementPolicy
from .channel import (_DB_TO_LN, _S_SWITCH, ChannelConfig, Environment, _gl_panels,
                      _legendre_rule, kernel_table, linear_threshold,
                      los_probability, shadowing_log_moments)
from .errors import ConfigError, ConvergenceError

# Radial/transform grid layout; accuracy is governed by QuadratureConfig and
# validated by the transform window's guard panels, these only set the base
# resolution.
_GL_NODES = 8
_OUTER_RATIO = 1.6
_FAR_STEP = 6  # lattice steps per panel beyond _Z_COARSE (ratio 1.6**6 = 16.8), in ln zeta
# the transform rule: ln w lattice panels per decade and Gauss-Legendre nodes
# per panel (the radial panels take _GL_NODES)
_V_PANELS_PER_DECADE = 2
_V_NODES = 8
# the ln w lattice panels a rate assembly starts on, w from 1e-10 to 10^7.5
# (the outermost two are guard panels), the panels a window end moves out by
# and the most moves the window may make
_W_START = (-20, 14)
_W_STEP = 6
_W_MOVES = 8
# range zeta = z/H from which radial panels take _FAR_STEP lattice steps and
# are integrated in ln zeta (`_radial_nodes`), Poisson tail mass for the EE
# sums and the most terms one EE sum may take
_Z_COARSE = 64.0
_K_MAX_TAIL = 1e-12
_K_MAX_TERMS = 1_000_000
# most entries each memo keeps: whole-geometry reads, and groups of
# _GROUP_PANELS ln u panels of the unit-altitude radial tables
_TABLE_CACHE_SIZE = 64
_GROUP_PANELS = 4
_GROUP_CACHE_SIZE = 256


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution and truncation controls for the analytic integrals."""

    hermite_nodes: int = 32
    rel_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.hermite_nodes < 2:
            raise ConfigError("hermite_nodes must be >= 2")
        if not self.rel_tol >= 1e-16:
            raise ConfigError(f"rel_tol = {self.rel_tol} out of range (must be >= 1e-16)")


@dataclass(frozen=True)
class PowerModel:
    """Linear per-UAV power accounting."""

    transmit_w: float = 1.0
    cache_per_file_w: float = 0.1
    static_w: float = 1.0
    rate_power_slope: float = 1.0

    def __post_init__(self) -> None:
        if min(self.transmit_w, self.cache_per_file_w, self.static_w, self.rate_power_slope) < 0:
            raise ConfigError("power model values must be >= 0")

    def fixed_power(self, cache_size: int) -> float:
        return self.transmit_w + cache_size * self.cache_per_file_w + self.static_w


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Full evaluation scenario: deployment, content, placement, channel, power."""

    library: ContentLibrary
    policy: PlacementPolicy
    env: Environment
    channel: ChannelConfig = ChannelConfig()
    power: PowerModel = PowerModel()
    quadrature: QuadratureConfig = QuadratureConfig()
    uav_density: float = 1e-3
    coop_radius_km: float = 1.0
    subchannels: int = 64

    def __post_init__(self) -> None:
        if self.uav_density < 0:
            raise ConfigError(f"UAV density = {self.uav_density} per km^2 out of range "
                              "(must be >= 0)")
        if self.coop_radius_km < 0:
            raise ConfigError(f"cooperation radius = {self.coop_radius_km} km out of range "
                              "(must be >= 0)")
        if self.subchannels < 1:
            raise ConfigError(f"subchannel count = {self.subchannels} out of range "
                              "(must be >= 1)")
        if self.policy.probabilities.size != self.library.size:
            raise ConfigError("policy length must equal the library size")

    @property
    def interferer_density(self) -> float:
        """Same-subchannel interferer density."""
        return self.uav_density / self.subchannels

    @property
    def zone_mean_uavs(self) -> float:
        """Mean UAV count inside the cooperation zone (all contents)."""
        return math.pi * self.uav_density * self.coop_radius_km ** 2

    def with_policy(self, policy: PlacementPolicy) -> "ScenarioConfig":
        return replace(self, policy=policy)


@dataclass(frozen=True, eq=False)
class CapacityReport:
    """Per-content and popularity-averaged rates, in nats per channel use."""

    per_content_nats: np.ndarray
    coop_means: np.ndarray
    system_rate_nats: float

    @property
    def per_content_bits(self) -> np.ndarray:
        return self.per_content_nats / math.log(2.0)

    @property
    def system_rate_bits(self) -> float:
        return self.system_rate_nats / math.log(2.0)


def _grazing_radius(env: Environment, rel_tol: float) -> float:
    """Range zeta_far = z_far / H beyond which the mark law sits at its
    grazing (theta -> 0) limit within rel_tol, in units of the altitude H.

    The elevation there is at most (180/pi) / zeta degrees, which moves P_LOS
    (and 1 - P_LOS) by at most psi*theta relative, a shadowing spread s_n by
    c_n*theta relative and ln E[V] = m_n + s_n^2/2 by c_n*s_n^2*theta
    absolute, with s_n the grazing spread.
    """
    scale = env.psi
    for mode in ("los", "nlos"):
        _, a, c = env.mode_params(mode)
        scale = max(scale, c * max(1.0, (_DB_TO_LN * a) ** 2))
    return math.degrees(1.0) * scale / rel_tol


# radial panel edges sit on an absolute lattice in ln zeta, zeta = z/H, the
# powers of _OUTER_RATIO, so one table serves every cooperation radius
_OUTER_LOG = math.log(_OUTER_RATIO)


def _switch_crossings(env: Environment) -> list[float]:
    """zeta* = cot theta* per link mode whose shadowing spread crosses the
    kernel's Gauss-Hermite/windowed switch at an elevation 0 < theta* < 90
    degrees: there s_ln = _DB_TO_LN a e^(-c theta*) = _S_SWITCH, so
    theta* = ln(_DB_TO_LN a / _S_SWITCH) / c. The kernel steps by about 2e-7
    there, so a panel straddling it loses the rule's convergence."""
    out = []
    for mode in ("los", "nlos"):
        _, a, c = env.mode_params(mode)
        if c > 0.0 and _DB_TO_LN * a > _S_SWITCH:
            theta = math.log(_DB_TO_LN * a / _S_SWITCH) / c
            if theta < 90.0:
                out.append(1.0 / math.tan(math.radians(theta)))
    return out


def _radial_edges(env: Environment, rel_tol: float) -> np.ndarray:
    """0, then every lattice edge from the first at or above 1/4 to the first
    at or above _Z_COARSE, then every _FAR_STEP-th one to the first at or
    beyond zeta_far (`_grazing_radius`, at least one such panel), in units of
    the altitude, with each `_switch_crossings` zeta* below the last edge
    added, so no panel straddles the kernel's step. A crossing within 1e-9
    relative of a lattice edge is that edge."""
    j_lo = math.ceil(math.log(0.25) / _OUTER_LOG)
    j_mid = max(j_lo, math.ceil(math.log(_Z_COARSE) / _OUTER_LOG))
    zeta_far = _grazing_radius(env, rel_tol)
    n_far = max(1, math.ceil((math.log(zeta_far) / _OUTER_LOG - j_mid) / _FAR_STEP))
    j = np.concatenate([np.arange(j_lo, j_mid), j_mid + _FAR_STEP * np.arange(n_far + 1)])
    lattice = np.concatenate([[0.0], _OUTER_RATIO ** j])
    crossings = {z for z in _switch_crossings(env)
                 if z < lattice[-1] and min(abs(lattice - z)) > 1e-9 * z}
    return np.array(sorted([*lattice, *crossings]))


def _radial_nodes(edges, altitude_km: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w with sum w f(z) = int z f(z) dz over each panel
    between consecutive (increasing) edges, _GL_NODES per panel: in z on a
    panel whose left edge is below _Z_COARSE * altitude_km, in ln z (where
    z dz = z^2 d ln z) on one at or beyond it, out where the integrand is a
    power law times slowly varying marks and so smooth in ln z."""
    e = np.asarray(edges, dtype=float)
    near = int(np.count_nonzero(e[:-1] < _Z_COARSE * altitude_km))
    z, w = _gl_panels(e[:near + 1], _GL_NODES)
    t, w_log = _gl_panels(np.log(e[near:]), _GL_NODES)
    z_log = np.exp(t)
    return np.concatenate([z, z_log]), np.concatenate([w * z, w_log * z_log * z_log])


def _panel_integrals(v: np.ndarray, env: Environment, cfg: ChannelConfig,
                     quad: QuadratureConfig, edges, per_mode: bool = False) -> np.ndarray:
    """int z k(z,v) dz over each panel between consecutive edges, a row per
    panel (with per_mode, per link mode: shape (2, panels, v)), from one
    kernel table on the `_radial_nodes` at cfg's altitude."""
    z, w = _radial_nodes(edges, cfg.altitude_km)
    cells = kernel_table(z, v, env, cfg, quad.hermite_nodes, per_mode)
    cells *= w[:, None]
    return cells.reshape(*cells.shape[:-2], -1, _GL_NODES, v.size).sum(axis=-2)


def _tail_edges(env: Environment, cfg: ChannelConfig, v_max: float,
                z_far: float) -> np.ndarray:
    """The far panel edges beyond z_far: every _FAR_STEP-th lattice edge out
    to the first at which v_max L_n(z) sits below half of each link mode's
    linear gate at its grazing spread, the smallest gate at any elevation, so
    beyond it every mode's kernel is linear (`_linear_rest`)."""
    edges = [z_far]
    for mode in ("los", "nlos"):
        mu, a, _ = env.mode_params(mode)
        m_ln, s_ln = -_DB_TO_LN * mu, _DB_TO_LN * a
        c_lin = float(linear_threshold(m_ln, s_ln))
        with np.errstate(over="ignore"):
            mean_gain = float(np.exp(m_ln + 0.5 * s_ln * s_ln))
        if not (c_lin > 0 and np.isfinite(mean_gain)):
            raise ConvergenceError(
                "far radial tail overflowed; the grazing-angle shadowing spread "
                f"of environment {env.name!r} is too wide to evaluate")
        alpha, k, _ = cfg.mode_params(mode)
        while v_max * k * math.hypot(cfg.altitude_km, edges[-1]) ** -alpha >= 0.5 * c_lin:
            edges.append(edges[-1] * _OUTER_RATIO ** _FAR_STEP)
    return np.array(edges[1:])


def _linear_rest(v: np.ndarray, env: Environment, cfg: ChannelConfig,
                 z_e: float) -> np.ndarray:
    """int_{z_e}^inf z k_n(z, v) dz per link mode n, shape (2, v), beyond the
    last `_tail_edges` edge z_e, where each kernel is its linear limit
    v L_n(z) E[V_n]: p_n E[V_n] k_n v (H^2 + z_e^2)^(1 - alpha_n/2) /
    (alpha_n - 2), with the marks p_n and E[V_n] read at z_e."""
    h = cfg.altitude_km
    p_los = los_probability(z_e, h, env)
    rest = np.empty((2, v.size))
    for n, (mode, p_mode) in enumerate((("los", p_los), ("nlos", 1.0 - p_los))):
        alpha, k, _ = cfg.mode_params(mode)
        m_ln, s_ln = shadowing_log_moments(z_e, h, mode, env)
        rest[n] = (p_mode * math.exp(m_ln + 0.5 * float(s_ln) ** 2) * k
                   * math.hypot(h, z_e) ** (2.0 - alpha) / (alpha - 2.0)) * v
    return rest


@dataclass(frozen=True, eq=False)
class _ScenarioTables:
    """Cached v-grid and radial integrals; placement-independent."""

    panels: tuple[int, int]  # first and last ln w lattice panel, guards included
    v_grid: np.ndarray
    weights: np.ndarray  # for integration in ln v
    zone: np.ndarray
    outside: np.ndarray

    def __post_init__(self) -> None:
        # memoized, so every caller of the geometry gets these same arrays
        for table in (self.v_grid, self.weights, self.zone, self.outside):
            table.flags.writeable = False


# panel edges sit on an absolute lattice in ln w, so moving a window end adds
# panels without moving existing ones, node for node and weight for weight
_V_PANEL_WIDTH = math.log(10.0) / _V_PANELS_PER_DECADE


def _v_rule(k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on the lattice panels k_lo to k_hi, with their weights in ln w."""
    s_nodes, weights = _gl_panels(_V_PANEL_WIDTH * np.arange(k_lo, k_hi + 2), _V_NODES)
    return np.exp(s_nodes), weights


def _build_groups(env: Environment, unit: ChannelConfig, hermite_nodes: int,
                  rel_tol: float, groups: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(prefix P, suffix S) of the radial table at unit altitude for each
    u-group g of groups, on the Gauss-Legendre nodes u of the ln u lattice
    panels _GROUP_PANELS*g to _GROUP_PANELS*(g+1) - 1, each of shape
    (mode, edge, u): per link mode n, P[n, i] = int_0^{zeta_i} zeta
    k_n(zeta, u) dzeta and S[n, i] = int_{zeta_i}^inf, whose part beyond the
    last edge, zeta_far, is more far panels out to the group's own
    `_tail_edges` and the `_linear_rest` beyond them. `unit` is the channel
    with altitude_km, k_los and k_nlos all 1; of the quadrature, a group
    reads only hermite_nodes and rel_tol.

    One kernel_table call serves every group: its rows are the union of the
    groups' panels, those of the group with the longest tail, and its columns
    every group's u side by side. Each group sums only its own panels, so its
    bytes equal those of a group built alone."""
    quad = QuadratureConfig(hermite_nodes=hermite_nodes, rel_tol=rel_tol)
    edges = _radial_edges(env, rel_tol)
    us = [_v_rule(_GROUP_PANELS * g, _GROUP_PANELS * (g + 1) - 1)[0] for g in groups]
    # the tail edges first: they refuse a spread too wide to evaluate before
    # any panel is integrated
    everys = [np.append(edges, _tail_edges(env, unit, float(u[-1]), float(edges[-1])))
              for u in us]
    panels = _panel_integrals(np.concatenate(us), env, unit, quad, max(everys, key=len),
                              per_mode=True)
    out = []
    for j, (u, every) in enumerate(zip(us, everys)):
        own = panels[:, :every.size - 1, j * u.size:(j + 1) * u.size]
        rest = _linear_rest(u, env, unit, float(every[-1]))
        prefix = np.cumsum(np.concatenate([np.zeros((2, 1, u.size)), own[:, :edges.size - 1]],
                                          axis=1), axis=1)
        suffix = np.cumsum(np.concatenate([rest[:, None], own[:, ::-1]], axis=1),
                           axis=1)[:, ::-1][:, :edges.size]
        for table in (prefix, suffix):
            table.flags.writeable = False  # memoized and shared, as _ScenarioTables
        out.append((prefix, suffix))
    return out


class _GroupMemo:
    """The radial table's u-groups, keyed on (table, g), the least recently
    read evicted beyond maxsize. `built` counts the groups built and `hits`
    the group reads served from the memo since the last `clear`."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        self._groups: OrderedDict = OrderedDict()
        self.built = self.hits = 0

    def read(self, table: tuple, groups: list[int], build) -> dict:
        """{g: group} for every g of groups, those not held made by one call
        build(missing)."""
        with self._lock:
            out = {g: self._groups[table, g] for g in groups if (table, g) in self._groups}
            for g in out:
                self._groups.move_to_end((table, g))
            self.hits += len(out)
        missing = [g for g in groups if g not in out]
        if missing:
            out.update(zip(missing, build(missing)))
            with self._lock:
                for g in missing:
                    self._groups[table, g] = out[g]
                while len(self._groups) > self.maxsize:
                    self._groups.popitem(last=False)
                self.built += len(missing)
        return out


_RADIAL_GROUPS = _GroupMemo(_GROUP_CACHE_SIZE)


def _radial_groups(env: Environment, unit: ChannelConfig, hermite_nodes: int,
                   rel_tol: float, groups: list[int]) -> dict:
    """{g: (prefix, suffix)} of `_build_groups` for every u-group g of groups,
    from the memo; the groups no earlier read built are built together, in
    one kernel call."""
    return _RADIAL_GROUPS.read((env, unit, hermite_nodes, rel_tol), groups,
                               partial(_build_groups, env, unit, hermite_nodes, rel_tol))


def _shift_matrix(frac: float) -> np.ndarray:
    """(nodes, 2*nodes) weights that carry a function known on the
    Gauss-Legendre nodes of two adjacent ln u panels to the nodes of the
    first panel shifted by frac (0 < frac < 1) of a panel: barycentric
    Lagrange interpolation on the nodes of the panel holding each point."""
    x = _legendre_rule(_V_NODES)[0]
    bary = 1.0 / np.prod(x[:, None] - x[None, :] + np.eye(x.size), axis=1)
    out = np.zeros((x.size, 2 * x.size))
    for j, t in enumerate(x + 2.0 * frac):  # in the first panel's [-1, 1]
        col, t = (x.size, t - 2.0) if t >= 1.0 else (0, t)
        on_node = np.flatnonzero(t == x)
        if on_node.size:
            out[j, col + on_node[0]] = 1.0
        else:
            weights = bary / (t - x)
            out[j, col:col + x.size] = weights / weights.sum()
    return out


def _radial_table(env: Environment, cfg: ChannelConfig, quad: QuadratureConfig,
                  k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edges e_i in km, prefix P_i, suffix S_i) of the radial table at the
    altitude H of cfg on the ln w lattice panels k_lo to k_hi, a row per
    edge: P_i = int_0^{e_i} z k(z,v) dz and S_i = int_{e_i}^inf, with
    e_i = H zeta_i and w = v k_los H^-alpha_los.

    With z = H zeta, each mode's part is H^2 times the table at unit
    altitude and intercept at u = v k_n H^-alpha_n, which the u-groups of
    `_radial_groups` hold: u = w for LOS, and for NLOS every node shifts by
    the same d = [ln(k_nlos/k_los) - (alpha_nlos - alpha_los) ln H] /
    (panel width) panels on the ln u lattice, so each w panel reads its
    nodes from the u panels k + floor(d) and k + floor(d) + 1 through one
    `_shift_matrix`. Both modes' groups come from one `_radial_groups` read,
    so the groups no earlier read built are built in one kernel call."""
    h = cfg.altitude_km
    unit = replace(cfg, altitude_km=1.0, k_los=1.0, k_nlos=1.0)
    edges = h * _radial_edges(env, quad.rel_tol)
    alpha_los, k_los, _ = cfg.mode_params("los")
    reads = []  # per link mode: the u panels read, [lo, hi), and the shift
    for mode in ("los", "nlos"):
        alpha, k, _ = cfg.mode_params(mode)
        d = (math.log(k / k_los) - (alpha - alpha_los) * math.log(h)) / _V_PANEL_WIDTH
        frac = d - math.floor(d)
        lo = k_lo + math.floor(d)
        reads.append((lo, lo + k_hi - k_lo + 1 + (frac > 0.0), frac))
    spans = [range(lo // _GROUP_PANELS, (hi - 1) // _GROUP_PANELS + 1) for lo, hi, _ in reads]
    groups = _radial_groups(env, unit, quad.hermite_nodes, quad.rel_tol,
                            sorted(set().union(*spans)))
    sums = [0.0, 0.0]  # prefix, suffix
    for n, ((lo, hi, frac), span) in enumerate(zip(reads, spans)):
        start = (lo % _GROUP_PANELS) * _V_NODES
        shift = _shift_matrix(frac) if frac > 0.0 else None
        for side in (0, 1):
            cols = np.concatenate([groups[g][side][n] for g in span], axis=-1)
            panels = cols[:, start:start + (hi - lo) * _V_NODES].reshape(
                edges.size, hi - lo, _V_NODES)
            if shift is not None:
                panels = np.concatenate([panels[..., :-1, :], panels[..., 1:, :]],
                                        axis=-1) @ shift.T
            sums[side] = sums[side] + h * h * panels.reshape(edges.size, -1)
    return edges, sums[0], sums[1]


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _geometry_tables(env: Environment, cfg: ChannelConfig, quad: QuadratureConfig,
                     x_cop: float, k_lo: int, k_hi: int) -> _ScenarioTables:
    """Radial tables on the ln w lattice panels k_lo to k_hi, read from
    `_radial_table` at X = x_cop in the panel [e_i, e_{i+1}) that holds it:

    zone(v)    = int_0^X z k(z,v) dz   = P_i + int_{e_i}^X
    outside(v) = int_X^inf z k(z,v) dz = int_X^{e_{i+1}} + S_{i+1},

    the two partial panels evaluated at the scenario's own altitude. At
    X = e_i the first has zero width and the second is the table's panel i,
    so the read is P_i and S_i with no kernel call.
    Density, sub-channel count and placement enter only the rate assembly,
    guard included, so they are not arguments.
    """
    edges, prefix, suffix = _radial_table(env, cfg, quad, k_lo, k_hi)
    i = int(np.searchsorted(edges, x_cop, side="right")) - 1
    if i >= edges.size - 1:
        raise ConvergenceError(
            f"cooperation radius {x_cop:g} km is at or beyond the last radial "
            f"panel edge z_far = {edges[-1]:.3g} km")
    w, weights = _v_rule(k_lo, k_hi)
    alpha, k, _ = cfg.mode_params("los")
    v_grid = w * (cfg.altitude_km ** alpha / k)
    if x_cop == edges[i]:
        return _ScenarioTables((k_lo, k_hi), v_grid, weights, prefix[i].copy(),
                               suffix[i].copy())
    inner, outer = _panel_integrals(v_grid, env, cfg, quad,
                                    [edges[i], x_cop, edges[i + 1]])
    return _ScenarioTables((k_lo, k_hi), v_grid, weights, prefix[i] + inner,
                           outer + suffix[i + 1])


def _laplace_factors(zone: np.ndarray, outside: np.ndarray, cfg: ScenarioConfig,
                     p_c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(noncaching interference, caching interference outside the zone, exact
    zone signal) factors from the radial integrals at each v; a p_c column
    gives one row per placement probability."""
    lam_i = cfg.interferer_density
    noncaching = np.exp(-2.0 * np.pi * (1.0 - p_c) * lam_i * (zone + outside))
    caching_out = np.exp(-2.0 * np.pi * p_c * lam_i * outside)
    signal = -np.expm1(-2.0 * np.pi * p_c * cfg.uav_density * zone)
    return noncaching, caching_out, signal


def _assemble_rates(cfg: ScenarioConfig, probs: np.ndarray
                    ) -> tuple[np.ndarray, _ScenarioTables]:
    """Rates, nats per channel use, for placement probabilities probs, and
    the tables of the transform window they were summed on.

    One block holds v^-1 * (interference factors) * (signal factor) on the
    tables for each p_c and for a probe p_c = 0.5. A rate is its row's sum
    over every panel but the guard panel at each end. Below the window the
    signal factor is linear in v and the others are 1 within rel_tol, so each
    panel holds r = e^-(panel width) = 10^-1/2 of the one above it; above it
    the interference exponents grow as v^(2/alpha), so the panels fall faster.
    A guard panel holding m thus bounds its end's truncation by m/(1 - r),
    and a probe guard mass at most (1 - r) rel_tol / 2 of the probe's rate
    keeps both ends together within rel_tol. An end over that budget moves
    out _W_STEP panels and the assembly retries; after _W_MOVES moves it
    raises ConvergenceError naming the end. Every try starts from _W_START,
    so the window does not depend on which scenario built the tables first.
    The radial integrals have no truncation to guard: their far panels run
    to where every kernel is linear, and the closed-form linear rest runs
    from there to infinity.
    """
    k_lo, k_hi = _W_START
    p_c = np.append(probs, 0.5)[:, None]  # the last row is the guard's probe
    budget = 0.5 * (1.0 - math.exp(-_V_PANEL_WIDTH)) * cfg.quadrature.rel_tol
    for _ in range(_W_MOVES + 1):
        tables = _geometry_tables(cfg.env, cfg.channel, cfg.quadrature,
                                  cfg.coop_radius_km, k_lo, k_hi)
        noncaching, caching_out, signal = _laplace_factors(tables.zone, tables.outside,
                                                           cfg, p_c)
        # the integrand v^-1 ... dv becomes (...) ds on the ln v grid
        block = tables.weights * noncaching * caching_out * signal
        if not np.all(np.isfinite(block)):
            raise ConvergenceError("capacity integral did not evaluate to a finite value")
        rates = block[:, _V_NODES:-_V_NODES].sum(axis=1)
        guards = (block[-1, :_V_NODES].sum(), block[-1, -_V_NODES:].sum())
        ends = [end for end, mass in zip(("lower", "upper"), guards)
                if mass > budget * rates[-1]]
        if not ends:
            return np.where(probs > 0.0, rates[:-1], 0.0), tables
        k_lo, k_hi = k_lo - _W_STEP * ("lower" in ends), k_hi + _W_STEP * ("upper" in ends)
    raise ConvergenceError(
        f"the {' and '.join(ends)} end of the transform window still holds more than "
        f"its share of rel_tol after {_W_MOVES} moves of {_W_STEP} ln w panels")


def content_capacity(cfg: ScenarioConfig, content: int) -> float:
    """Average rate of the given content (1-based index), nats per channel use.

    The zone signal term is the exact zone PGFL complement: the cooperator sum
    vanishes exactly when the zone is empty, so no extra void-probability
    prefactor belongs in it.
    """
    content = operator.index(content)
    if not 1 <= content <= cfg.library.size:
        raise ValueError("content index out of range")
    return float(system_capacity(cfg).per_content_nats[content - 1])


def system_capacity(cfg: ScenarioConfig) -> CapacityReport:
    """Popularity-weighted average rate over the whole library."""
    coop_means = cfg.zone_mean_uavs * cfg.policy.probabilities
    if cfg.zone_mean_uavs == 0.0:
        # no cooperator can ever be in the zone: every rate is zero
        return CapacityReport(np.zeros(cfg.library.size), coop_means, 0.0)
    probs, inverse = np.unique(cfg.policy.probabilities, return_inverse=True)
    rates = _assemble_rates(cfg, probs)[0][inverse]
    system = float(np.sum(cfg.library.popularity * rates))
    return CapacityReport(rates, coop_means, system)


# below this k, ln k! comes from a table of math.lgamma; from it on, from
# Stirling's series, whose first omitted term is below 1e-25 there
_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(1024)])


def _log_factorial(k) -> np.ndarray:
    """ln k! elementwise over integers k >= 0 (int or integral float)."""
    k = np.asarray(k)
    top = _LOG_FACTORIALS.size - 1
    out = _LOG_FACTORIALS[np.minimum(k, top).astype(np.intp)]
    big = k > top
    if big.any():
        x = k[big] + 1.0
        inv2 = 1.0 / (x * x)
        series = (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0))) / x
        out[big] = (x - 0.5) * np.log(x) - x + 0.5 * math.log(2.0 * math.pi) + series
    return out


def _poisson_tail(k, m: float) -> np.ndarray:
    """P(N > k) for N ~ Poisson(m), m > 0, elementwise over integers k >= 0.

    The pmf is summed from the top down, from j = max(k, m) + 10 sqrt(m) + 30,
    where the terms left out are below e^-50 of the last one kept, so a tail
    far below 1 keeps its relative precision, which 1 - CDF would lose.
    """
    k = np.asarray(k, dtype=np.int64)
    j = np.arange(int(max(k.max(initial=0), m) + 10.0 * math.sqrt(m)) + 31)
    pmf = np.exp(j * math.log(m) - m - _log_factorial(j))
    above = np.cumsum(pmf[::-1])[::-1]  # above[i] = P(N >= i)
    return above[k + 1]


def _poisson_k_max(m_max: float, tail: float) -> int:
    """Smallest k with P(Poisson(m) > k) < tail.

    The scan ends at m + x with x = l + sqrt(l^2 + 2 l m), l = ln(1/tail):
    the Chernoff bound P(N >= m + x) < exp(-x^2 / (2 (m + x))) = tail puts
    the answer inside it at every mean.
    """
    if m_max <= 0:
        return 1
    ell = -math.log(tail)
    k_end = m_max + ell + math.sqrt(ell * ell + 2.0 * ell * m_max) + 1.0
    if not k_end <= _K_MAX_TERMS:
        raise ConvergenceError(
            f"Poisson tail bound for a cooperator mean of {m_max:g} needs more "
            f"than {_K_MAX_TERMS} terms")
    ks = np.arange(1, math.ceil(k_end) + 1)
    sf = _poisson_tail(ks, m_max)
    hits = np.nonzero(sf < tail)[0]
    if hits.size == 0:
        raise ConvergenceError(f"Poisson tail bound not reached within {ks.size} terms")
    return int(ks[hits[0]])


def _ee_sum(cfg: ScenarioConfig, report: CapacityReport, k_max: int | None,
            exact: bool) -> float:
    a = cfg.library.popularity
    rates_bits = report.per_content_bits
    fixed = cfg.power.fixed_power(cfg.policy.cache_size)
    zeta = cfg.power.rate_power_slope
    if k_max is None:
        k_max = _poisson_k_max(float(report.coop_means.max(initial=0.0)), _K_MAX_TAIL)
    k = np.arange(1, k_max + 1, dtype=float)
    log_kfact = _log_factorial(k)
    out = 0.0
    for a_c, m_c, r_c in zip(a, report.coop_means, rates_bits):
        if m_c <= 0.0 or r_c <= 0.0:
            continue
        pois = np.exp(k * math.log(m_c) - m_c - log_kfact)
        per_coop = fixed if exact else fixed / -np.expm1(-m_c)
        out += a_c * float(np.sum(pois * r_c / (k * per_coop + zeta * r_c)))
    return out


def energy_efficiency(cfg: ScenarioConfig, report: CapacityReport,
                      k_max: int | None = None) -> float:
    """Approximate energy efficiency in bits per joule: Poisson-weighted
    per-cooperator-count terms with the fixed power inflated by the
    nonempty-zone probability."""
    return _ee_sum(cfg, report, k_max, exact=False)


def energy_efficiency_exact(cfg: ScenarioConfig, report: CapacityReport,
                            k_max: int | None = None) -> float:
    """Energy efficiency without the nonempty-zone inflation of fixed power,
    for comparing the approximation against its source form."""
    return _ee_sum(cfg, report, k_max, exact=True)
