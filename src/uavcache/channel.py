"""Air-to-ground channel model.

Elevation-dependent LOS/NLOS mode probability, power-law path loss, Nakagami
fading, log-normal shadowing with elevation-dependent spread, and the
Laplace-transform kernel that the analytic capacity integrals are built on.

Distances are in km, angles internally in degrees, and all channel gains are
dimensionless power ratios.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import log_ndtr, ndtr

from .errors import ConfigError

Mode = Literal["los", "nlos"]

# ln(10)/10: converts a dB quantity u to the natural-log exponent of 10^(u/10)
_DB_TO_LN = np.log(10.0) / 10.0


@dataclass(frozen=True)
class Environment:
    """Propagation environment: LOS-probability curve and shadowing law.

    phi and psi shape the elevation-to-LOS-probability sigmoid; mu_* are the
    per-mode mean excess losses in dB; a_*/c_* give the elevation-dependent
    shadowing spread sigma(theta) = a * exp(-c * theta_deg). The name is a
    label only: it takes no part in equality or hashing, so two environments
    with the same numbers compare equal and share every table keyed on them.
    """

    name: str = field(compare=False)
    phi: float
    psi: float
    mu_los: float
    mu_nlos: float
    a_los: float
    a_nlos: float
    c_los: float
    c_nlos: float

    def __post_init__(self) -> None:
        if not (self.phi > 0 and self.psi > 0):
            raise ConfigError("environment requires phi > 0 and psi > 0")
        if min(self.a_los, self.a_nlos, self.c_los, self.c_nlos) < 0:
            raise ConfigError("shadowing amplitudes and decays must be >= 0")

    def mode_params(self, mode: Mode) -> tuple[float, float, float]:
        """(mu, a, c) for the requested link mode."""
        if mode == "los":
            return self.mu_los, self.a_los, self.c_los
        if mode == "nlos":
            return self.mu_nlos, self.a_nlos, self.c_nlos
        raise ValueError(f"unknown mode {mode!r}")


ENVIRONMENT_PRESETS: dict[str, Environment] = {
    "high_rise": Environment("high_rise", 27.23, 0.08, 1.5, 29.0, 7.37, 37.08, 0.03, 0.03),
    "dense_urban": Environment("dense_urban", 12.08, 0.11, 1.0, 20.0, 8.96, 35.97, 0.04, 0.04),
    "urban": Environment("urban", 9.61, 0.16, 0.6, 17.0, 10.39, 29.6, 0.05, 0.03),
    "sub_urban": Environment("sub_urban", 4.88, 0.43, 0.0, 18.0, 11.25, 32.17, 0.06, 0.03),
}


def environment_preset(name: str) -> Environment:
    try:
        return ENVIRONMENT_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown environment {name!r}; expected one of {sorted(ENVIRONMENT_PRESETS)}"
        ) from None


@dataclass(frozen=True)
class ChannelConfig:
    """Mode-dependent path-loss, fading, and altitude constants."""

    alpha_los: float = 2.09
    alpha_nlos: float = 4.0
    k_los: float = 1.0
    k_nlos: float = 1.0
    nakagami_los: float = 10.0
    nakagami_nlos: float = 2.0
    altitude_km: float = 1.0

    def __post_init__(self) -> None:
        if not (self.alpha_los > 2 and self.alpha_nlos > 2):
            raise ConfigError("path-loss exponents must exceed 2 (interference integrals diverge otherwise)")
        if not (self.k_los > 0 and self.k_nlos > 0):
            raise ConfigError("path-loss intercepts must be positive")
        if not (self.nakagami_los >= self.nakagami_nlos > 0):
            raise ConfigError("Nakagami shapes require nakagami_los >= nakagami_nlos > 0")
        if not self.altitude_km > 0:
            raise ConfigError(f"altitude = {self.altitude_km} km out of range (must be > 0)")

    def mode_params(self, mode: Mode) -> tuple[float, float, float]:
        """(alpha, intercept, nakagami shape) for the requested link mode."""
        if mode == "los":
            return self.alpha_los, self.k_los, self.nakagami_los
        if mode == "nlos":
            return self.alpha_nlos, self.k_nlos, self.nakagami_nlos
        raise ValueError(f"unknown mode {mode!r}")


def _check_geometry(r, h) -> tuple[np.ndarray, float]:
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)) or np.any(r < 0):
        raise ValueError("horizontal distance must be finite and >= 0")
    h = float(h)
    if not np.isfinite(h) or h <= 0:
        raise ValueError("altitude must be finite and > 0")
    return r, h


def elevation_deg(r, h: float) -> np.ndarray:
    """Elevation angle in degrees seen from the ground at horizontal range r."""
    r = np.asarray(r, dtype=float)
    return np.degrees(np.arctan2(h, r))


def los_probability(r, h: float, env: Environment):
    """Probability that the link at horizontal range r is line-of-sight."""
    r, h = _check_geometry(r, h)
    theta = elevation_deg(r, h)
    out = 1.0 / (1.0 + env.phi * np.exp(-env.psi * (theta - env.phi)))
    return out if out.ndim else float(out)


def path_loss(r, h: float, mode: Mode, cfg: ChannelConfig):
    """Distance attenuation K * (h^2 + r^2)^(-alpha/2) for the given mode."""
    r = np.asarray(r, dtype=float)
    h = float(h)
    if h == 0 and np.any(r == 0):
        raise ValueError("path loss is singular at zero distance")
    if not np.all(np.isfinite(r)) or np.any(r < 0) or h < 0:
        raise ValueError("invalid geometry")
    alpha, k, _ = cfg.mode_params(mode)
    out = k * (h * h + r * r) ** (-alpha / 2.0)
    return out if out.ndim else float(out)


def shadowing_sigma_db(r, h: float, mode: Mode, env: Environment):
    """Elevation-dependent shadowing spread a * exp(-c * theta), in dB."""
    r, h = _check_geometry(r, h)
    _, a, c = env.mode_params(mode)
    out = a * np.exp(-c * elevation_deg(r, h))
    return out if out.ndim else float(out)


def shadowing_log_moments(r, h: float, mode: Mode, env: Environment):
    """(mean, std) of ln V for the shadowing gain V = 10^(-U/10) at range r,
    where U ~ Normal(mu, sigma(r)^2) is the excess loss in dB."""
    mu, _, _ = env.mode_params(mode)
    sigma = shadowing_sigma_db(r, h, mode, env)
    return -_DB_TO_LN * mu, _DB_TO_LN * np.asarray(sigma)


# Linear-limit gate. E[1 - (1 + c*V/wbar)^(-wbar)] ~ c*E[V] needs two error
# sources to be negligible: the quadratic Taylor term, relatively
# ~ c*E[V^2]/E[V] = c*exp(m + 1.5 s^2), and the saturation deficit from the
# log-normal mass beyond the 1/c saturation point, a fraction Phi(s - t) of
# the mean with t = (ln(1/c) - m)/s. Both stay below ~1e-8 under this gate.
# The far radial tail reuses the same gate: below it the tail's grazing-limit
# integral is closed-form, above it the tail evaluates this kernel.
_LIN_QUAD = 1e-8
_LIN_TAIL = 5.6


def linear_threshold(m_ln: float, s_ln) -> np.ndarray:
    """Largest coefficient c for which the kernel's exact linear limit
    c*exp(m_ln + s_ln^2/2) holds to ~1e-8 relative error."""
    s = np.asarray(s_ln, dtype=float)
    with np.errstate(over="ignore"):
        return np.minimum(_LIN_QUAD * np.exp(-m_ln - 1.5 * s * s),
                          np.exp(-m_ln - s * s - _LIN_TAIL * s))

# Shadowing spread (std of ln V) above which Gauss-Hermite is replaced by the
# windowed rule: the integrand in standard-normal coordinates is a sigmoid of
# width ~1/s, which fixed Hermite nodes stop resolving near s ~ 2 (plateauing
# percent-level bias that node doubling does not shrink). The windowed rule
# integrates the transition in its own coordinate y = ln(coef*V), where the
# sigmoid has unit width, and closes both ends analytically: a Gaussian tail
# above (the sigmoid is 1 there) and the exact partial log-normal mean below
# (the sigmoid is coef*V there).
_S_SWITCH = 1.2
_WIN_Y_LO = -20.0
_WIN_Y_HI = 12.0
_WIN_PANELS = 8
_WIN_BLOCK = 1024


@lru_cache(maxsize=8)
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return hermgauss(nodes)


@lru_cache(maxsize=8)
def _window_rule(nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = leggauss(nodes_per_panel)
    edges = np.linspace(_WIN_Y_LO, _WIN_Y_HI, _WIN_PANELS + 1)
    y = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * xs
                        for a, b in zip(edges[:-1], edges[1:])])
    w = np.concatenate([0.5 * (b - a) * ws
                        for a, b in zip(edges[:-1], edges[1:])])
    return y, w


def _shadow_expectation(coef: np.ndarray, m_ln: float, s_ln: np.ndarray,
                        wbar: float, hermite_nodes: int) -> np.ndarray:
    """E_V[1 - (1 + coef*V/wbar)^(-wbar)] with ln V ~ Normal(m_ln, s_ln^2),
    elementwise over coef (s_ln broadcasts against it)."""
    coef = np.asarray(coef, dtype=float)
    s_ln = np.asarray(s_ln, dtype=float)
    out = np.empty(coef.shape)
    flat_c = coef.ravel()
    flat_s = np.broadcast_to(s_ln, coef.shape).ravel()
    flat_o = out.ravel()

    # the linear gate and slope depend on s alone: evaluate them at s_ln's
    # own shape (one value per row in kernel_table) and broadcast
    zero = flat_c == 0.0
    flat_o[zero] = 0.0
    linear = ~zero & (coef < linear_threshold(m_ln, s_ln)).ravel()
    slope = np.broadcast_to(np.exp(m_ln + 0.5 * s_ln ** 2), coef.shape)
    flat_o[linear] = flat_c[linear] * slope[linear.reshape(coef.shape)]

    gh_mask = ~zero & ~linear & (flat_s < _S_SWITCH)
    if gh_mask.any():
        x, w = _hermite_rule(hermite_nodes)
        c = flat_c[gh_mask]
        sg = flat_s[gh_mask]
        acc = np.zeros(c.shape)
        for xi, wi in zip(x, w):
            with np.errstate(over="ignore"):
                t = c * np.exp(m_ln + np.sqrt(2.0) * sg * xi) / wbar
                acc += wi * -np.expm1(-wbar * np.log1p(t))
        flat_o[gh_mask] = acc / np.sqrt(np.pi)

    win_mask = ~zero & ~linear & ~gh_mask
    if win_mask.any():
        c = flat_c[win_mask]
        sw = flat_s[win_mask]
        x0 = (-np.log(c) - m_ln) / sw
        vals = _window_sum(x0, sw, wbar, max(6, hermite_nodes // 4))
        vals /= np.sqrt(2.0 * np.pi) * sw
        vals += ndtr(-(x0 + _WIN_Y_HI / sw))
        vals += np.exp(np.log(c) + m_ln + 0.5 * sw ** 2
                       + log_ndtr(x0 + _WIN_Y_LO / sw - sw))
        flat_o[win_mask] = vals

    return np.clip(out, 0.0, 1.0)


def _window_sum(x0: np.ndarray, sw: np.ndarray, wbar: float,
                nodes_per_panel: int) -> np.ndarray:
    """sum_j w_j f(y_j) exp(-(x0 + y_j/sw)^2 / 2) for each cell, the windowed
    rule's transition integral before its 1/(sqrt(2 pi) sw) normalization.

    Cells go through one preallocated (_WIN_BLOCK x nodes) buffer in place,
    so each block's working set stays in cache and no cell-sized temporaries
    are allocated.
    """
    y, w = _window_rule(nodes_per_panel)
    fy = w * -np.expm1(-wbar * np.log1p(np.exp(y) / wbar))
    vals = np.empty(x0.shape)
    buf = np.empty((min(_WIN_BLOCK, x0.size), y.size))
    for lo in range(0, x0.size, _WIN_BLOCK):
        hi = min(lo + _WIN_BLOCK, x0.size)
        xx = buf[:hi - lo]
        np.divide(y, sw[lo:hi, None], out=xx)
        xx += x0[lo:hi, None]
        xx *= xx
        xx *= -0.5
        np.exp(xx, out=xx)
        np.matmul(xx, fy, out=vals[lo:hi])
    return vals


def kernel_table(z, v, env: Environment, cfg: ChannelConfig,
                 hermite_nodes: int) -> np.ndarray:
    """Laplace kernel evaluated on the outer grid of ranges z and transform
    variables v; returns shape (len(z), len(v)). hermite_nodes has no default
    of its own: callers pass QuadratureConfig().hermite_nodes.

    kernel(z, v) = sum_n p_n(z) * E_V[1 - (1 + v*L_n(z)*V/W_n)^(-W_n)]
                 = 1 - E[exp(-v * L * V * W)] marginalized over mode, shadowing
                 (three-branch log-normal expectation) and Nakagami fading
                 (closed form).
    """
    if hermite_nodes < 2:
        raise ConfigError("laplace kernel requires at least 2 Hermite nodes")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(z < 0) or np.any(v < 0):
        raise ValueError("ranges and transform variables must be >= 0")
    h = cfg.altitude_km
    p_los = los_probability(z, h, env)
    out = np.zeros((z.size, v.size))
    for mode, p_mode in (("los", p_los), ("nlos", 1.0 - p_los)):
        _, _, wbar = cfg.mode_params(mode)
        loss = path_loss(z, h, mode, cfg)
        m_ln, s_ln = shadowing_log_moments(z, h, mode, env)
        acc = _shadow_expectation(np.outer(loss, v), float(m_ln),
                                  np.asarray(s_ln)[:, None], wbar,
                                  hermite_nodes)
        out += np.atleast_1d(p_mode)[:, None] * acc
    return out

