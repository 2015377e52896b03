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
                    _SUPPORT_PANELS, _c_squared, _require_finite,
                    _require_positive, _square)
from .numerics import (AccuracyError, _panel_nodes, block_rows,
                       panel_quadrature, voigt_profile)

_trapz = getattr(np, "trapezoid", None) or np.trapz


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

    ``"closed-form"`` is :func:`gammaq_closed_grid` at this one state, from
    the packet separation.  ``"quadrature"`` takes the difference of the two
    densities' first moments component by component, from the three
    absolute centers: (A/B) * (zeta_mid - cos^2 theta zeta1
    - sin^2 theta zeta2).  It is the same algebra in another rounding, not
    an independent check.  The moments are of zeta, not 1 + zeta: adding 1
    would round Earth-scale heights (zeta ~ 1e-16) away.
    """
    if method == "closed-form":
        dz = float(scales.zeta(sup.z2 - sup.z1))
        width = float(scales.zeta(sup.delta))
        return float(gammaq_closed_grid(sup.theta, sup.phi, dz, width))
    if method != "quadrature":
        raise ConfigurationError(
            f"method must be closed-form|quadrature, got {method!r}")
    z1 = float(scales.zeta(sup.z1))
    z2 = float(scales.zeta(sup.z2))
    moment = (0.5 * (z1 + z2) - math.cos(sup.theta) ** 2 * z1
              - math.sin(sup.theta) ** 2 * z2)
    return sup.interference_weight / sup.norm_bracket * moment


def decay_rates(sup: SuperpositionSpec, scales: DimensionlessScales, *,
                method: str = "closed-form") -> RateResult:
    """Both states' mean rates <1 + zeta> plus their difference.

    Only gammaQ_inv follows ``method``, through :func:`quantum_correction`
    rather than by subtracting the two rates -- at Earth gravity the
    difference sits ~18 digits below the rates themselves.
    """
    return RateResult(
        gamma_sup=1.0 + HeightDensity.superposition(sup, scales).mean(),
        gamma_cl=1.0 + HeightDensity.mixture(sup.mixture(), scales).mean(),
        gammaQ_inv=quantum_correction(sup, scales, method=method),
        method=method)


def total_rate(density: HeightDensity) -> float:
    """Mean decay rate of a height density: <1 + zeta>.

    Sampled densities are integrated by
    :func:`~gravclock.numerics.panel_quadrature` on their support panels,
    with rho at their nodes from when the density was built.
    """
    if density.is_analytic:
        return 1.0 + density.mean()
    return float(density._integral(lambda z: (1.0 + z)[..., None])[0])


def survival_probability(density: HeightDensity, s):
    """P(still excited at s): each height strip decays at its local rate.

    For a Gaussian component centered at mu the strip integral is exact:
    exp(-(1+mu) s + width^2 s^2 / 4).  Sampled densities are integrated by
    :func:`~gravclock.numerics.panel_quadrature` on one node set shared by
    every time of a block, with rho at its nodes from when the density was
    built.
    """
    s_arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s_arr)):
        raise ConfigurationError("survival time s must be finite")
    if np.any(s_arr < 0.0):
        raise ConfigurationError("survival time s must be >= 0")
    if density.is_analytic:
        w2 = density.width**2
        out = density.component_sum(
            lambda mu: np.exp(-(1.0 + mu) * s_arr + 0.25 * w2 * s_arr**2))
        return out if np.ndim(s) else float(out)
    flat = np.ravel(s_arr)
    out = np.empty(len(flat))
    step = block_rows(len(density._panels.breaks) - 1)
    for start in range(0, len(flat), step):
        times = flat[start:start + step]
        out[start:start + step] = density._integral(
            lambda z: np.exp(-(1.0 + z)[..., None] * times))
    out = out.reshape(s_arr.shape)
    return out if np.ndim(s) else float(out)


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
    r = _require_positive("r", r)
    nu = np.asarray(nu_grid, dtype=float)
    if nu.ndim != 1 or len(nu) < 2 or np.any(np.diff(nu) <= 0.0):
        raise ConfigurationError("nu_grid must be 1-D and strictly increasing")
    if not np.all(np.isfinite(nu)):
        raise ConfigurationError("nu_grid must be finite")
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
    scale).  Each point's panels are the density's support panels, split by
    breaks graded geometrically away from the pole, doubling from half the
    narrowest half-width up to the width of one support panel.  A support
    panel that no graded break splits has the same nodes in zeta for every
    point, so it takes rho from the density's own node values; split panels
    and the panels bisected later get their own rho.  Points go in blocks of
    :func:`~gravclock.numerics.block_rows`.
    """
    lo, hi = density.support
    zeta_breaks, _, rho_support = density._panels
    h0 = 0.25 * (1.0 + lo)
    levels = max(1, math.ceil(math.log2(r * (hi - lo) / _SUPPORT_PANELS / h0)))
    steps = h0 * 2.0 ** np.arange(levels + 1)
    graded = np.r_[-steps[::-1], 0.0, steps]
    # Support panel k of point i holds the graded breaks first[i, k] up to
    # (not including) last[i, k], strictly inside it.
    x_breaks = r * zeta_breaks - nu[:, None]
    first = np.searchsorted(graded, x_breaks[:, :-1], side="right")
    last = np.searchsorted(graded, x_breaks[:, 1:], side="left")
    n_support = zeta_breaks.size - 1

    step = block_rows(zeta_breaks.size + graded.size - 1)
    p = np.empty_like(nu)
    for start in range(0, len(nu), step):
        nus = nu[start:start + step]
        firsts, lasts = first[start:start + step], last[start:start + step]
        xb = x_breaks[start:start + step]
        # Each support panel of each row (`panel`, flat) is cut into
        # `pieces` by the graded breaks inside it: piece i runs from graded
        # break firsts + i - 1 to firsts + i, the end ones from and to its
        # support breaks.
        pieces = (lasts - firsts + 1).ravel()
        panel = np.repeat(np.arange(pieces.size), pieces)
        piece = np.arange(panel.size) - np.repeat(np.cumsum(pieces) - pieces,
                                                  pieces)
        end = firsts.ravel()[panel] + piece
        a = np.where(piece == 0, xb[:, :-1].ravel()[panel], graded[end - 1])
        b = np.where(piece == pieces[panel] - 1, xb[:, 1:].ravel()[panel],
                     graded[np.minimum(end, graded.size - 1)])
        row = panel // n_support

        def line(x, row, rho=None, nus=nus):
            zeta = (nus[row][:, None] + x) / r
            if rho is None:
                rho = density(zeta.ravel()).reshape(zeta.shape)
            gam = 1.0 + zeta
            return (rho * gam / (2.0 * math.pi * r)
                    / (0.25 * gam**2 + x**2))[..., None]

        x0 = _panel_nodes(a, b)
        rho = rho_support[panel % n_support]
        own = np.flatnonzero(pieces[panel] > 1)
        if own.size:
            zeta = (nus[row[own]][:, None] + x0[own]) / r
            rho[own] = density(zeta.ravel()).reshape(zeta.shape)
        p[start:start + step] = panel_quadrature(
            line, a, b, row, len(nus), y0=line(x0, row, rho))[:, 0]
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
    sv2 = _square(kp.sigma_v / c)
    b1 = x * x * sv2
    b2 = -g * dz * (1.0 - 2.0 * kp.alpha_w) / _c_squared(c)
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
