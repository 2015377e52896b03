"""Closed-form emission observables for clock states in uniform gravity.

Rates are in units of the flat-space rate; heights in zeta = g z/c^2; the
local rate above the horizon is 1 + zeta.  The quantity of interest
throughout is the excess of the superposition's rate over its decohered
mixture's,

    gammaQ_inv = <1+zeta>_sup - <1+zeta>_mix,

which the interference component carries entirely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (_NORM_FLOOR, C_LIGHT, HBAR, STANDARD_GRAVITY,
                    ConfigurationError, DimensionlessScales, HeightDensity,
                    HorizonError, SuperpositionSpec,
                    _SUPPORT_PANELS, _require_finite, _require_positive,
                    _support_breaks, _support_integrals)
from .numerics import (AccuracyError, block_rows, gauss_moment,
                       panel_quadrature, voigt_profile)

_trapz = getattr(np, "trapezoid", None) or np.trapz


def local_rate(zeta):
    """Decay rate at fixed height, (1 + zeta) in flat-space-rate units."""
    z = np.asarray(zeta, dtype=float)
    if np.any(z <= -1.0):
        raise HorizonError("local rate requested at/below the horizon "
                           "(zeta <= -1)")
    out = 1.0 + z
    return out if np.ndim(zeta) else float(out)


@dataclass(frozen=True)
class RateResult:
    gamma_sup: float
    gamma_cl: float
    gammaQ_inv: float
    method: str

    def to_dict(self) -> dict:
        return {"gamma_sup": self.gamma_sup, "gamma_cl": self.gamma_cl,
                "gammaQ_inv": self.gammaQ_inv, "method": self.method}


def gammaq_closed_grid(theta, phi, dz, delta_zeta):
    """Closed-form rate excess, vectorized; heights in zeta units.

    The interference component's share of the mean height,
    (A/B) * dz * cos(2 theta) / 2, with A = cos(phi) sin(2 theta) * overlap,
    overlap = exp(-dz^2 / 4 delta_zeta^2) and B = 1 + A.  Zero-norm corners
    (complete destructive overlap, B -> 0) carry no probability and are
    reported as exactly 0.0 rather than 0/0.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    dz = np.asarray(dz, dtype=float)
    e = np.exp(-(dz**2) / (4.0 * delta_zeta**2))
    a = np.cos(phi) * np.sin(2.0 * theta) * e
    b = 1.0 + a
    degenerate = b < _NORM_FLOOR
    val = 0.5 * dz * np.cos(2.0 * theta) * a / np.where(degenerate, 1.0, b)
    return np.where(degenerate, 0.0, val)


def quantum_correction(sup: SuperpositionSpec, scales: DimensionlessScales, *,
                       method: str = "closed-form") -> float:
    """Rate excess of the coherent state over its matched mixture.

    The closed form is :func:`gammaq_closed_grid` at this one state.  The
    quadrature path, an independent check on it, integrates (1 + zeta)
    against the density difference written in its exact component form --
    pointwise subtraction of the two densities cancels catastrophically at
    the precision this is compared to.
    """
    width = float(scales.zeta(sup.delta))
    if method == "closed-form":
        dz = float(scales.zeta(sup.z2 - sup.z1))
        return float(gammaq_closed_grid(sup.theta, sup.phi, dz, width))
    if method != "quadrature":
        raise ConfigurationError(
            f"method must be closed-form|quadrature, got {method!r}")
    z1 = float(scales.zeta(sup.z1))
    z2 = float(scales.zeta(sup.z2))
    mid = 0.5 * (z1 + z2)

    def f(z):
        return 1.0 + z

    bracket = (gauss_moment(f, mid, width)
               - math.cos(sup.theta) ** 2 * gauss_moment(f, z1, width)
               - math.sin(sup.theta) ** 2 * gauss_moment(f, z2, width))
    return sup.interference_weight / sup.norm_bracket * bracket


def decay_rates(sup: SuperpositionSpec, scales: DimensionlessScales, *,
                method: str = "closed-form") -> RateResult:
    """Both states' rates plus their difference.

    gammaQ_inv goes through the difference path of :func:`quantum_correction`,
    not through subtracting the two rates -- at Earth gravity the difference
    sits ~18 digits below the rates themselves.
    """
    dens_sup = HeightDensity.superposition(sup, scales)
    dens_mix = HeightDensity.mixture(sup.mixture(), scales)
    if method == "closed-form":
        gamma_sup = 1.0 + dens_sup.mean()
        gamma_cl = 1.0 + dens_mix.mean()
    elif method == "quadrature":
        gamma_sup, gamma_cl = (d.component_sum(
            lambda mu: gauss_moment(lambda z: 1.0 + z, mu, d.width))
            for d in (dens_sup, dens_mix))
    else:
        raise ConfigurationError(
            f"method must be closed-form|quadrature, got {method!r}")
    gq = quantum_correction(sup, scales, method=method)
    return RateResult(gamma_sup=float(gamma_sup), gamma_cl=float(gamma_cl),
                      gammaQ_inv=float(gq), method=method)


def total_rate(density: HeightDensity, *,
               at_time: float | None = None) -> float:
    """Mean decay rate of a height density: <1 + zeta>.

    With ``at_time`` set, returns instead the exact instantaneous emission
    rate integral rho(zeta) (1+zeta) exp(-(1+zeta) s) dzeta at s = at_time,
    i.e. the negative time derivative of the survival probability.  Sampled
    densities are integrated by
    :func:`~gravclock.numerics.panel_quadrature` on their support panels.
    """
    s = 0.0 if at_time is None else float(at_time)
    if s < 0.0:
        raise ConfigurationError(f"at_time must be >= 0, got {at_time!r}")
    if density.is_analytic:
        if at_time is None:
            return 1.0 + density.mean()
        w2 = density.width**2
        return density.component_sum(
            lambda mu: (1.0 + mu - 0.5 * w2 * s)
            * math.exp(-(1.0 + mu) * s + 0.25 * w2 * s**2))
    # exp(-0 * x) is exactly 1, so s = 0 also gives the plain mean
    return float(_support_integrals(
        density, lambda z: ((1.0 + z) * np.exp(-(1.0 + z) * s))[..., None])[0])


def survival_probability(density: HeightDensity, s):
    """P(still excited at s): each height strip decays at its local rate.

    For a Gaussian component centered at mu the strip integral is exact:
    exp(-(1+mu) s + width^2 s^2 / 4).  Sampled densities are integrated by
    :func:`~gravclock.numerics.panel_quadrature` on one node set shared by
    every time of a block.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ConfigurationError("survival time s must be >= 0")
    if density.is_analytic:
        w2 = density.width**2
        out = density.component_sum(
            lambda mu: np.exp(-(1.0 + mu) * s_arr + 0.25 * w2 * s_arr**2))
        return out if np.ndim(s) else float(out)
    flat = np.ravel(s_arr)
    out = np.empty(len(flat))
    step = block_rows(len(_support_breaks(density)) - 1)
    for start in range(0, len(flat), step):
        times = flat[start:start + step]
        out[start:start + step] = _support_integrals(
            density, lambda z: np.exp(-(1.0 + z)[..., None] * times))
    out = out.reshape(s_arr.shape)
    return out if np.ndim(s) else float(out)


def excited_amplitude_sq(zeta, s):
    """|excited amplitude|^2 of a single height strip: exp(-(1+zeta) s)."""
    z = np.asarray(zeta, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    if np.any(z <= -1.0):
        raise HorizonError("zeta at/below the horizon")
    if np.any(s_arr < 0.0):
        raise ConfigurationError("s must be >= 0")
    out = np.exp(-(1.0 + z) * s_arr)
    return float(out) if not (np.ndim(zeta) or np.ndim(s)) else out


def photon_amplitude_sq(zeta, nu, s, r):
    """|mode amplitude|^2 / g^2 for a strip at zeta, detuning nu, time s.

    Everything is formed from detunings: the line sits at u = r*zeta and only
    u - nu enters.  As s grows this tends to the Lorentzian kernel
    1 / ((1+zeta)^2/4 + (u-nu)^2); the stationary line shape is
    (1+zeta)/(2 pi) times that limit.
    """
    z = np.asarray(zeta, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    if np.any(z <= -1.0):
        raise HorizonError("zeta at/below the horizon")
    if np.any(s_arr < 0.0):
        raise ConfigurationError("s must be >= 0")
    if r <= 0.0:
        raise ConfigurationError(f"r must be > 0, got {r!r}")
    gam = 1.0 + z
    detune = r * z - np.asarray(nu, dtype=float)
    bracket = (np.exp(-gam * s_arr) + 1.0
               - 2.0 * np.exp(-0.5 * gam * s_arr) * np.cos(detune * s_arr))
    out = bracket / (0.25 * gam**2 + detune**2)
    scalar = not (np.ndim(zeta) or np.ndim(nu) or np.ndim(s))
    return float(out) if scalar else out


def lorentzian_line(nu, zeta: float, r: float):
    """Unit-area natural line of one height strip: centered at r*zeta,
    HWHM (1+zeta)/2."""
    z = float(zeta)
    if z <= -1.0:
        raise HorizonError("zeta at/below the horizon")
    gam = 1.0 + z
    detune = np.asarray(nu, dtype=float) - r * z
    out = gam / (2.0 * math.pi) / (0.25 * gam**2 + detune**2)
    return out if np.ndim(nu) else float(out)


@dataclass(frozen=True)
class SpectrumResult:
    nu_grid: np.ndarray
    p_values: np.ndarray
    total_mass: float
    low_mass: bool = False


def spectrum(density: HeightDensity, nu_grid, r: float, *,
             method: str = "auto") -> SpectrumResult:
    """Emission line shape P(nu) = integral rho(zeta) L(nu; zeta) dzeta.

    For analytic densities each Gaussian component convolved with the natural
    Lorentzian is a Voigt profile with Gaussian sigma = r*width/sqrt(2) and
    Lorentzian HWHM (1+mu)/2 -- exact except for freezing the slowly varying
    linewidth across one packet (relative error ~width: ~1e-17 at physical r,
    ~1e-2 in desk-scale checks).  One call of
    :func:`~gravclock.numerics.voigt_profile` evaluates every component on a
    (components, points) array; the weighted rows are then added in
    component order.  ``method="quadrature"`` integrates the exact kernel
    instead and works for any density: see :func:`_line_quadrature`.
    """
    if r <= 0.0:
        raise ConfigurationError(f"r must be > 0, got {r!r}")
    nu = np.asarray(nu_grid, dtype=float)
    if nu.ndim != 1 or len(nu) < 2 or np.any(np.diff(nu) <= 0.0):
        raise ConfigurationError("nu_grid must be 1-D and strictly increasing")
    if method == "auto":
        method = "voigt" if density.is_analytic else "quadrature"
    if method == "voigt":
        if not density.is_analytic:
            raise ConfigurationError("voigt path needs an analytic density")
        sigma = r * density.width / math.sqrt(2.0)
        mu = np.asarray(density.centers)[:, None]
        lines = voigt_profile(nu - r * mu, sigma, 0.5 * (1.0 + mu))
        p = sum(w * line for w, line in zip(density.weights, lines))
        floor = -1e-9 * float(p.max(initial=0.0))
        if np.any(p < floor):
            raise AccuracyError(
                "voigt components cancelled below their accuracy; use "
                "method='quadrature' for this state")
        p = np.maximum(p, 0.0)
    elif method == "quadrature":
        p = _line_quadrature(density, nu, r)
    else:
        raise ConfigurationError(
            f"method must be auto|voigt|quadrature, got {method!r}")
    mass = float(_trapz(p, nu))
    return SpectrumResult(nu_grid=nu, p_values=p, total_mass=mass,
                          low_mass=bool(mass < 0.9))


def _line_quadrature(density: HeightDensity, nu: np.ndarray,
                     r: float) -> np.ndarray:
    """P(nu) by panel quadrature in the detuning x = r*zeta - nu of each point.

    The Lorentzian pole sits at x = 0 with half-width (1+zeta)/2 in x at any
    r, even where it is narrower than the float spacing of zeta itself (Earth
    scale).  Each point's panels grade geometrically away from the pole,
    doubling from half the narrowest half-width up to the width of one equal
    support panel; the support breaks of :func:`_support_breaks` split them
    too.  Points go in blocks of :func:`~gravclock.numerics.block_rows`.
    """
    lo, hi = density.support
    zeta_breaks = _support_breaks(density)
    h0 = 0.25 * (1.0 + lo)
    levels = max(1, math.ceil(math.log2(r * (hi - lo) / _SUPPORT_PANELS / h0)))
    steps = h0 * 2.0 ** np.arange(levels + 1)
    graded = np.r_[-steps[::-1], 0.0, steps]
    step = block_rows(zeta_breaks.size + graded.size - 1)
    p = np.empty_like(nu)
    for start in range(0, len(nu), step):
        nus = nu[start:start + step]
        x = r * zeta_breaks - nus[:, None]
        x = np.concatenate(
            (x, np.clip(graded, x[:, :1], x[:, -1:])), axis=1)
        x.sort(axis=1)
        a, b = x[:, :-1], x[:, 1:]
        keep = b > a
        row = np.broadcast_to(np.arange(len(nus))[:, None], a.shape)[keep]

        def line(x, row, nus=nus):
            zeta = (nus[row][:, None] + x) / r
            gam = 1.0 + zeta
            rho = density(zeta.ravel()).reshape(zeta.shape)
            return (rho * gam / (2.0 * math.pi * r)
                    / (0.25 * gam**2 + x**2))[..., None]

        p[start:start + step] = panel_quadrature(line, a[keep], b[keep], row,
                                                 len(nus))[:, 0]
    return np.maximum(p, 0.0)


# ---------------------------------------------------------------------------
# wave-packet coherence time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KhandelwalParams:
    """Inputs for the wave-packet coherence-time bracket.

    ``alpha_w`` is the population weight of the packet at z1 (cos^2 theta in
    the angle convention used elsewhere); ``sigma_z`` doubles as the packet
    spread Delta.
    """

    sigma_z: float       # m
    sigma_v: float       # m/s
    p_bar: float         # kg m/s
    alpha_w: float       # weight in [0, 1]
    phi: float           # rad
    t: float             # s
    m: float             # kg

    def __post_init__(self) -> None:
        for name in ("sigma_z", "sigma_v", "m"):
            _require_positive(name, getattr(self, name))
        for name in ("p_bar", "phi"):
            _require_finite(name, getattr(self, name))
        if _require_finite("t", self.t) < 0.0:
            raise ConfigurationError(f"t must be >= 0, got {self.t!r}")
        if not 0.0 <= self.alpha_w <= 1.0:
            raise ConfigurationError(
                f"alpha_w must lie in [0, 1], got {self.alpha_w!r}")


@dataclass(frozen=True)
class TcohResult:
    term1: float        # kinetic-spread bracket term, dimensionless
    term2: float        # gravitational bracket term, dimensionless
    term3: float        # momentum cross term (carries tan(phi))
    n_factor: float     # state norm N
    tcoh: float         # seconds


def khandelwal_tcoh_full(kp: KhandelwalParams, z1: float, z2: float, *,
                         g: float = STANDARD_GRAVITY, c: float = C_LIGHT,
                         hbar: float = HBAR) -> TcohResult:
    """Coherence-time bracket for two Gaussian packets at z1 < z2.

        T_coh = (N-1)/(2N) * [b1 + b2 + b3] * t
        b1 =  ((z2-z1)/2 sigma_z)^2 * sigma_v^2/c^2
        b2 = -g (z2-z1) (1 - 2 alpha)/c^2
        b3 = -(2/hbar)(sigma_v^2/c^2)(z2-z1)(p_bar - m g t) * tan(phi)
        N  = 1 + 2 cos(phi) sqrt(alpha(1-alpha)) exp(-((z2-z1)/2 sigma_z)^2)

    The total is assembled from (N-1)*b3 in its product form
    2 sin(phi) sqrt(alpha(1-alpha)) E * base so it stays finite through
    phi = pi/2, where tan(phi) blows up exactly as N-1 vanishes.
    """
    dz = float(z2) - float(z1)
    x = dz / (2.0 * kp.sigma_z)
    e_overlap = math.exp(-x * x)
    root = math.sqrt(kp.alpha_w * (1.0 - kp.alpha_w))
    n = 1.0 + 2.0 * math.cos(kp.phi) * root * e_overlap
    if n < _NORM_FLOOR:
        raise ConfigurationError("state norm N vanishes for these parameters")
    sv2 = (kp.sigma_v / c) ** 2
    b1 = x * x * sv2
    b2 = -g * dz * (1.0 - 2.0 * kp.alpha_w) / c**2
    base3 = -(2.0 / hbar) * sv2 * dz * (kp.p_bar - kp.m * g * kp.t)
    term3 = base3 * math.tan(kp.phi)
    p3 = base3 * 2.0 * math.sin(kp.phi) * root * e_overlap
    tcoh = ((n - 1.0) * (b1 + b2) + p3) * kp.t / (2.0 * n)
    return TcohResult(term1=b1, term2=b2, term3=term3, n_factor=n, tcoh=tcoh)


def khandelwal_tcoh_reduced(kp: KhandelwalParams, z1: float, z2: float, *,
                            g: float = STANDARD_GRAVITY,
                            c: float = C_LIGHT) -> float:
    """Dimensionless rate excess kept by the bracket when the kinetic and
    momentum terms are dropped: (N-1)/(2N) * (-g dz/c^2)(1 - 2 alpha).

    With alpha_w = cos^2(theta) and sigma_z = Delta this is identically the
    closed-form quantum_correction.
    """
    full = khandelwal_tcoh_full(kp, z1, z2, g=g, c=c)
    n = full.n_factor
    return (n - 1.0) / (2.0 * n) * full.term2
