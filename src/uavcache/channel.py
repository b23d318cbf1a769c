"""Air-to-ground channel model.

Elevation-dependent LOS/NLOS mode probability, power-law path loss, Nakagami
fading, log-normal shadowing with elevation-dependent spread, and the
Laplace-transform kernel that the analytic capacity integrals are built on,
and the standard normal distribution functions that both the kernel and the
Monte Carlo far field use (`ndtr`, `log_ndtr`, `ndtri`).

Distances are in km, angles internally in degrees, and all channel gains are
dimensionless power ratios.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

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
    r, h = _check_geometry(r, h)
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


# Standard normal distribution functions, in numpy. Phi(x) = erfc(-x/sqrt2)/2
# with erfc from Cody's rational Chebyshev approximations (Math. Comp. 23,
# 1969), and Phi^-1 from Wichura's AS 241 (Appl. Stat. 37, 1988). Each
# rational is a pair of coefficient rows [P; Q], lowest degree first, all
# coefficients positive and every argument >= 0, so one matrix product of the
# coefficients with the argument's powers evaluates P and Q without
# cancellation. Arrays go through blocks of _NORMAL_BLOCK entries, so each
# pass stays in cache: on each block the rational that covers most entries
# runs on the whole block and the others only on their own entries.
_NORMAL_BLOCK = 16384
_SQRT_HALF = math.sqrt(0.5)
# Cody's three ranges of y = |x|/sqrt2: erf(y) = y P(y^2)/Q(y^2) up to 0.46875,
# erfcx(y) = e^(y^2) erfc(y) = P(y)/Q(y) up to 4, and beyond it
# erfcx(y) = (1/sqrt(pi) - z P(z)/Q(z))/y with z = 1/y^2; the erfcx rows hold
# P/2, so they give erfcx(y)/2 = Phi(-x) e^(y^2) directly
_Y_SMALL = 0.46875
_Y_FAR = 4.0
_ERF_SMALL = np.array([
    [3.20937758913846947e03, 3.77485237685302021e02, 1.13864154151050156e02,
     3.16112374387056560e00, 1.85777706184603153e-1],
    [2.84423683343917062e03, 1.28261652607737228e03, 2.44024637934444173e02,
     2.36012909523441209e01, 1.0]])
_HALF_ERFCX_MID = np.array([
    [1.23033935479799725e03, 2.05107837782607147e03, 1.71204761263407058e03,
     8.81952221241769090e02, 2.98635138197400131e02, 6.61191906371416295e01,
     8.88314979438837594e00, 5.64188496988670089e-1, 2.15311535474403846e-8],
    [1.23033935480374942e03, 3.43936767414372164e03, 4.36261909014324716e03,
     3.29079923573345963e03, 1.62138957456669019e03, 5.37181101862009858e02,
     1.17693950891312499e02, 1.57449261107098347e01, 1.0]]) * [[0.5], [1.0]]
_HALF_ERFCX_FAR = np.array([
    [6.58749161529837803e-4, 1.60837851487422766e-2, 1.25781726111229246e-1,
     3.60344899949804439e-1, 3.05326634961232344e-1, 1.63153871373020978e-2],
    [2.33520497626869185e-3, 6.05183413124413191e-2, 5.27905102951428412e-1,
     1.87295284992346725e00, 2.56852019228982242e00, 1.0]]) * [[0.5], [1.0]]
_HALF_INV_SQRT_PI = 0.5 / math.sqrt(math.pi)
# exp(-y^2) = exp(-s^2) exp(-(y - s)(y + s)) with s = y rounded to a multiple
# of 1/16 (y + C - C), so s^2 is exact and only the small second factor sees
# the rounding of y^2 (Cody's split of exp(-y^2)). Beyond |x| = _X_FLOOR Phi
# is 0 or 1; clamping |x| there keeps the split finite at x = +-inf.
_ROUND_16TH = 1.5 * 2.0 ** 48
_X_FLOOR = 42.0
# AS 241: q = p - 0.5 for |q| <= 0.425, else r = sqrt(-ln min(p, 1 - p)) with
# a rational in r - 1.6 up to r = 5 and in r - 5 beyond
_NDTRI_CENTRAL = np.array([
    [3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3],
    [1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
     5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
     2.8729085735721942674e4, 5.2264952788528545610e3]])
_NDTRI_TAIL = np.array([
    [1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4],
    [1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
     6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
     5.47593808499534494600e-4, 1.05075007164441684324e-9]])
_NDTRI_FAR = np.array([
    [6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7],
    [1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
     1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
     1.42151175831644588870e-7, 2.04426310338993978564e-15]])
# work rows: 0 ones, 1 the rational's argument t, 2-8 powers t^2..t^8, 9-10
# the product [P; Q], 11 y or q. Rows 1-10 are free again once a rational has
# returned, so a block's minority entries reuse them. Each thread keeps its
# rows across calls: fresh ones would cost a page fault per 4 KiB each call.
_PRODUCT = 9
_Y_ROW = 11
_WORK = threading.local()


def _work(n: int) -> np.ndarray:
    """This thread's work rows, at least n entries wide."""
    w = getattr(_WORK, "rows", None)
    if w is None or w.shape[1] < n:
        w = _WORK.rows = np.empty((_Y_ROW + 1, max(n, 1)))
        w[0] = 1.0
    return w


def _rational(coef: np.ndarray, w: np.ndarray, n: int,
              out: np.ndarray) -> np.ndarray:
    """out = P(t)/Q(t) for t = w[1, :n], with coef = [P; Q]."""
    deg = coef.shape[1]
    t = w[1, :n]
    for k in range(2, deg):
        np.multiply(w[k - 1, :n], t, w[k, :n])
    pq = w[_PRODUCT:_PRODUCT + 2, :n]
    np.matmul(coef, w[:deg, :n], pq)
    return np.divide(pq[0], pq[1], out)


def _half_erfcx_mid(y: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    np.copyto(w[1, :y.size], y)
    _rational(_HALF_ERFCX_MID, w, y.size, out)


def _half_erfcx_far(y: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    z = w[1, :y.size]
    np.multiply(y, y, z)
    np.divide(1.0, z, z)
    _rational(_HALF_ERFCX_FAR, w, y.size, out)
    out *= z
    np.subtract(_HALF_INV_SQRT_PI, out, out)
    out /= y


def _half_erfcx(y: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """erfcx(y)/2 for y > _Y_SMALL."""
    far = y > _Y_FAR
    if 2 * np.count_nonzero(far) > y.size:
        _half_erfcx_far(y, w, out)
        minor, idx = _half_erfcx_mid, np.flatnonzero(~far)
    else:
        _half_erfcx_mid(y, w, out)
        minor, idx = _half_erfcx_far, np.flatnonzero(far)
    if idx.size:
        part = np.empty(idx.size)
        minor(y[idx], w, part)
        out[idx] = part


def _blockwise(block, x, out) -> np.ndarray:
    """Apply block(x, out, work) to _NORMAL_BLOCK-entry slices of x."""
    x = np.asarray(x, dtype=float)
    res = np.empty(x.shape) if out is None else out
    if not (res.flags.c_contiguous and res.dtype == float and res.shape == x.shape):
        raise ValueError("out must be a contiguous float array of the input's shape")
    xf, of = x.reshape(-1), res.reshape(-1)
    w = _work(min(_NORMAL_BLOCK, xf.size))
    with np.errstate(all="ignore"):
        for lo in range(0, xf.size, _NORMAL_BLOCK):
            block(xf[lo:lo + _NORMAL_BLOCK], of[lo:lo + _NORMAL_BLOCK], w)
    return res if out is not None or res.ndim else res[()]


def _lower_tail(y: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """Phi(-y sqrt2) = erfcx(y)/2 exp(-y^2) for _Y_SMALL < y <= _X_FLOOR/sqrt2;
    y must not lie in w's rows 1-10."""
    n = y.size
    _half_erfcx(y, w, out)
    s, d, e = w[2, :n], w[3, :n], w[4, :n]
    np.add(y, _ROUND_16TH, s)
    np.subtract(_ROUND_16TH, s, s)  # -s
    np.add(y, s, d)                 # y - s, exact
    np.subtract(s, y, e)            # -(y + s)
    d *= e
    np.exp(d, d)
    np.multiply(s, s, e)
    np.exp(e, e)
    out *= d
    out /= e


def _ndtr_block(x: np.ndarray, out: np.ndarray, w: np.ndarray) -> None:
    y = w[_Y_ROW, :x.size]
    np.abs(x, out=y)
    np.minimum(y, _X_FLOOR, out=y)
    y *= _SQRT_HALF
    near = np.flatnonzero(y <= _Y_SMALL)  # |x| <= 0.66, read before out
    x_near = x[near]
    upper = x > 0.0
    _lower_tail(y, w, out)  # Phi(-|x|)
    np.subtract(1.0, out, out=out, where=upper)
    if near.size:
        out[near] = _ndtr_near_zero(x_near, w)


def _ndtr_near_zero(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Phi(x) = (1 + erf(x/sqrt2))/2 by Cody's erf, for |x| <= 0.66."""
    t = x * _SQRT_HALF
    np.multiply(t, t, w[1, :x.size])
    out = _rational(_ERF_SMALL, w, x.size, np.empty(x.size))
    out *= t
    out += 1.0
    out *= 0.5
    return out


def ndtr(x, out=None):
    """Standard normal CDF Phi(x), elementwise; out may be x itself."""
    return _blockwise(_ndtr_block, x, out)


def _log_ndtr_block(x: np.ndarray, out: np.ndarray, w: np.ndarray) -> None:
    n = x.size
    y = w[_Y_ROW, :n]
    np.multiply(x, -_SQRT_HALF, y)
    rest = np.flatnonzero(y <= _Y_SMALL)  # x >= -0.66, read before out
    x_rest = x[rest]
    # lower tail: ln Phi(x) = ln(erfcx(y)/2) - y^2, no exponential needed
    _half_erfcx(y, w, out)
    np.log(out, out)
    sq = w[2, :n]
    np.multiply(y, y, sq)
    out -= sq
    if rest.size:
        out[rest] = _log_ndtr_rest(x_rest, w)


def _log_ndtr_rest(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """ln Phi(x) for x >= -0.66: the log of Cody's erf for |x| <= 0.66, and
    log1p(-Phi(-x)) from the lower tail above."""
    t = x * _SQRT_HALF
    out = np.log(_ndtr_near_zero(x, w))
    upper = np.flatnonzero(t > _Y_SMALL)
    if upper.size:
        tail = np.empty(upper.size)
        _lower_tail(np.minimum(t[upper], _X_FLOOR * _SQRT_HALF), w, tail)
        out[upper] = np.log1p(-tail)
    return out


def log_ndtr(x, out=None):
    """ln Phi(x), elementwise, accurate where Phi(x) underflows; out may be x
    itself."""
    return _blockwise(_log_ndtr_block, x, out)


def _ndtri_block(p: np.ndarray, out: np.ndarray, w: np.ndarray) -> None:
    n = p.size
    q = w[_Y_ROW, :n]
    np.subtract(p, 0.5, q)
    r = w[1, :n]
    np.abs(q, r)
    central = np.flatnonzero(r <= 0.425)
    q_central = q[central]
    np.subtract(1.0, p, r)
    np.minimum(r, p, out=r)
    np.log(r, r)
    np.negative(r, r)
    np.sqrt(r, r)
    far = np.flatnonzero(r > 5.0)
    r_far = r[far]
    r -= 1.6
    _rational(_NDTRI_TAIL, w, n, out)
    if far.size:
        np.subtract(r_far, 5.0, w[1, :far.size])
        part = _rational(_NDTRI_FAR, w, far.size, np.empty(far.size))
        part[r_far == np.inf] = np.inf  # p = 0 or 1
        out[far] = part
    np.copysign(out, q, out)
    if central.size:
        r = w[1, :central.size]
        np.multiply(q_central, q_central, r)
        np.subtract(0.180625, r, r)
        part = _rational(_NDTRI_CENTRAL, w, central.size, np.empty(central.size))
        part *= q_central
        out[central] = part


def ndtri(p, out=None):
    """Inverse of the standard normal CDF, elementwise: -inf at 0, inf at 1,
    nan outside [0, 1]; out may be p itself."""
    return _blockwise(_ndtri_block, p, out)


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
_GH_BLOCK = 8192
_TABLE_BLOCK = 32768  # cells per kernel_table pass: bounds its temporaries


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
        c = flat_c[gh_mask]
        acc = _hermite_sum(c, np.sqrt(2.0) * flat_s[gh_mask], m_ln, wbar,
                           hermite_nodes)
        flat_o[gh_mask] = acc / np.sqrt(np.pi)

    win_mask = ~zero & ~linear & ~gh_mask
    if win_mask.any():
        log_c = np.log(flat_c[win_mask])
        sw = flat_s[win_mask]
        x0 = (-log_c - m_ln) / sw
        vals = _window_sum(x0, sw, wbar, max(6, hermite_nodes // 4))
        vals /= np.sqrt(2.0 * np.pi) * sw
        vals += ndtr(-(x0 + _WIN_Y_HI / sw))
        vals += np.exp(log_c + m_ln + 0.5 * sw ** 2
                       + log_ndtr(x0 + _WIN_Y_LO / sw - sw))
        flat_o[win_mask] = vals

    return np.clip(out, 0.0, 1.0)


def _hermite_sum(c: np.ndarray, s2: np.ndarray, m_ln: float, wbar: float,
                 hermite_nodes: int) -> np.ndarray:
    """sum_i w_i f(c exp(m_ln + s2 x_i)) over the Gauss-Hermite nodes x_i,
    f(t) = 1 - (1 + t/wbar)^(-wbar), before the 1/sqrt(pi) normalization.

    Cells go through _GH_BLOCK at a time with every node applied in place,
    so each block stays in cache across the node loop.
    """
    x, w = _hermite_rule(hermite_nodes)
    acc = np.zeros(c.shape)
    buf = np.empty(min(_GH_BLOCK, c.size))
    with np.errstate(over="ignore"):
        for lo in range(0, c.size, buf.size):
            hi = min(lo + buf.size, c.size)
            t, cb, sb, ab = buf[:hi - lo], c[lo:hi], s2[lo:hi], acc[lo:hi]
            for xi, wi in zip(x, w):
                np.multiply(sb, xi, out=t)
                t += m_ln
                np.exp(t, out=t)
                t *= cb
                t /= wbar
                np.log1p(t, out=t)
                t *= -wbar
                np.expm1(t, out=t)
                t *= wi
                ab -= t
    return acc


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
                 hermite_nodes: int, per_mode: bool = False) -> np.ndarray:
    """Laplace kernel evaluated on the outer grid of ranges z and transform
    variables v; returns shape (len(z), len(v)), or with per_mode the LOS and
    NLOS terms apart, shape (2, len(z), len(v)). hermite_nodes has no default
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
    out = np.zeros((2, z.size, v.size) if per_mode else (z.size, v.size))
    rows = max(1, _TABLE_BLOCK // max(1, v.size))
    for lo in range(0, z.size, rows):
        zb = z[lo:lo + rows]
        p_los = los_probability(zb, h, env)
        for n, (mode, p_mode) in enumerate((("los", p_los), ("nlos", 1.0 - p_los))):
            _, _, wbar = cfg.mode_params(mode)
            loss = path_loss(zb, h, mode, cfg)
            m_ln, s_ln = shadowing_log_moments(zb, h, mode, env)
            acc = _shadow_expectation(np.outer(loss, v), float(m_ln),
                                      np.asarray(s_ln)[:, None], wbar,
                                      hermite_nodes)
            ob = out[n, lo:lo + rows] if per_mode else out[lo:lo + rows]
            ob += np.atleast_1d(p_mode)[:, None] * acc
    return out

