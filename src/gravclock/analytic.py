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

from .model import (_NORM_FLOOR, _NUMBER, C_LIGHT, HBAR, STANDARD_GRAVITY,
                    ConfigurationError, DimensionlessScales, HeightDensity,
                    SuperpositionSpec, _SUPPORT_PANELS, _c_squared,
                    _interference, _require_finite, _require_positive,
                    _square, _zeta_packets)
from .numerics import (AccuracyError, _kronrod, _panel_nodes, block_rows,
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
    """Closed-form rate excess, vectorized over theta, phi and dz at one
    width; heights in zeta units.

    The interference component's share of the mean height,
    (A/B) * dz * cos(2 theta) / 2, with the interference weight
    A = cos(phi) sin(2 theta) exp(-dz^2 / 4 delta_zeta^2) and the norm
    bracket B = 1 + A from :func:`~gravclock.model._interference`, the
    values the densities carry.  Any finite width works: at widths of
    1e+-200 the excess is the unit-width value times the width.  Zero-norm
    corners (complete destructive overlap, B -> 0) carry no probability and
    are reported as exactly 0.0 rather than 0/0.
    """
    theta = np.asarray(theta, dtype=float)
    dz = np.asarray(dz, dtype=float)
    a, b = _interference(theta, phi, dz, delta_zeta)
    degenerate = b < _NORM_FLOOR
    return np.where(degenerate, 0.0,
                    _closed_form(theta, dz, a, np.where(degenerate, 1.0, b)))


def _closed_form(theta, dz, a, b):
    """(A/B) * dz * cos(2 theta) / 2 from the kernel's A and B; on Python
    floats where theta is a number, as in :func:`_interference`."""
    trig = math if isinstance(theta, _NUMBER) else np
    return 0.5 * dz * trig.cos(2.0 * theta) * a / b


def _check_method(method: str) -> None:
    if method not in ("closed-form", "quadrature"):
        raise ConfigurationError(
            f"method must be closed-form|quadrature, got {method!r}")


def _excess(theta: float, z1: float, z2: float, dz: float, a: float,
            b: float, method: str) -> float:
    """gammaQ_inv of a superposition from its packets z1, z2 and their
    separation dz in zeta units and the kernel's A and B there, by
    ``method`` (see :func:`quantum_correction`)."""
    if method == "closed-form":
        return 0.0 if b < _NORM_FLOOR else float(_closed_form(theta, dz, a, b))
    moment = (0.5 * (z1 + z2) - math.cos(theta) ** 2 * z1
              - math.sin(theta) ** 2 * z2)
    return float(a / b * moment)


def quantum_correction(sup: SuperpositionSpec, scales: DimensionlessScales, *,
                       method: str = "closed-form") -> float:
    """Rate excess of the coherent state over its matched mixture.

    ``"closed-form"`` is :func:`gammaq_closed_grid` at this one state, from
    the packet separation.  ``"quadrature"`` takes the difference of the two
    densities' first moments component by component, from the three
    absolute centers: (A/B) * (zeta_mid - cos^2 theta zeta1
    - sin^2 theta zeta2).  It is the same algebra in another rounding, not
    an independent check.  Both read A and B at the separation and width in
    zeta units, as the superposition's density does.  The moments are of
    zeta, not 1 + zeta: adding 1 would round Earth-scale heights
    (zeta ~ 1e-16) away.  Both take one state on scalars, not numpy's 0-d
    arrays: a separation whose square passes float range gives 0.0 without
    a warning.
    """
    _check_method(method)
    z1, z2, dz, width = _zeta_packets(sup, scales)
    a, b = _interference(sup.theta, sup.phi, dz, width)
    return _excess(sup.theta, z1, z2, dz, a, b, method)


def decay_rates(sup: SuperpositionSpec, scales: DimensionlessScales, *,
                method: str = "closed-form",
                density: HeightDensity | None = None) -> RateResult:
    """Both states' mean rates <1 + zeta> plus their difference.

    Only gammaQ_inv follows ``method``, as :func:`quantum_correction` gives
    it, rather than by subtracting the two rates -- at Earth gravity the
    difference sits ~18 digits below the rates themselves.  ``density`` is
    ``HeightDensity.superposition(sup, scales)`` where the caller has built
    it already; its interference term serves gammaQ_inv, and its packets the
    mixture's mean.
    """
    _check_method(method)
    if density is None:
        density = HeightDensity.superposition(sup, scales)
    dz, a, b = density._kernel
    z1, z2 = density.centers[:2]
    return RateResult(
        gamma_sup=1.0 + density.mean(),
        gamma_cl=1.0 + (math.cos(sup.theta) ** 2 * z1
                        + math.sin(sup.theta) ** 2 * z2),
        gammaQ_inv=_excess(sup.theta, z1, z2, dz, a, b, method),
        method=method)


def total_rate(density: HeightDensity) -> float:
    """Mean decay rate of a height density: <1 + zeta>.

    Sampled densities are integrated by
    :func:`~gravclock.numerics.panel_quadrature` as one row of their
    support panels, with rho at their nodes from when the density was
    built.
    """
    if density.is_analytic:
        return 1.0 + density.mean()
    return float(density._integral(lambda z: (1.0 + z)[..., None])[0])


def survival_probability(density: HeightDensity, s):
    """P(still excited at s): each height strip decays at its local rate.

    For a Gaussian component centered at mu the strip integral is exact:
    exp(-(1+mu) s + width^2 s^2 / 4).  Sampled densities are integrated by
    :func:`~gravclock.numerics.panel_quadrature` as one row of their
    support panels, one integrand per time of a block on the shared nodes,
    with rho at those nodes from when the density was built.
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


@dataclass(frozen=True)
class SpectrumResult:
    nu_grid: np.ndarray
    p_values: np.ndarray
    total_mass: float
    low_mass: bool = False


def spectrum(density: HeightDensity, nu_grid, r: float, *,
             method: str = "auto") -> SpectrumResult:
    """Emission line shape P(nu) = integral rho(zeta) L(nu; zeta) dzeta.

    With the default ``method="auto"``, an analytic density takes the Voigt
    closed form: each Gaussian component convolved with the natural
    Lorentzian is a Voigt profile with Gaussian sigma = r*width/sqrt(2) and
    Lorentzian HWHM (1+mu)/2 -- exact except for freezing the slowly varying
    linewidth across one packet (relative error ~width: ~1e-17 at physical r,
    ~1e-2 in desk-scale checks).  One call of
    :func:`~gravclock.numerics.voigt_profile` evaluates every component on a
    (components, points) array; the weighted rows are then added in
    component order.  ``method="quadrature"`` integrates the exact kernel
    instead and works for any density; ``"auto"`` takes it for sampled
    ones.  Each point
    integrates the support panels outside a near zone around its pole from
    the density's cached node values, all points in one kernel array, and a
    fixed set of pieces inside it with fresh rho (~100 pdf heights per
    point on the benchmark's lines); see :func:`_line_quadrature`.
    """
    r = _require_positive("r", r)
    nu = np.asarray(nu_grid, dtype=float)
    if nu.ndim != 1 or len(nu) < 2 or np.any(np.diff(nu) <= 0.0):
        raise ConfigurationError("nu_grid must be 1-D and strictly increasing")
    if not np.all(np.isfinite(nu)):
        raise ConfigurationError("nu_grid must be finite")
    if method not in ("auto", "quadrature"):
        raise ConfigurationError(
            f"method must be auto|quadrature, got {method!r}")
    if method == "auto" and density.is_analytic:
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
    else:
        p = _line_quadrature(density, nu, r)
    mass = float(_trapz(p, nu))
    return SpectrumResult(nu_grid=nu, p_values=p, total_mass=mass,
                          low_mass=bool(mass < 0.9))


def _line_quadrature(density: HeightDensity, nu: np.ndarray,
                     r: float) -> np.ndarray:
    """P(nu) by panel quadrature in the detuning x = r*zeta - nu of each point.

    The Lorentzian pole sits at x = 0 with half-width (1+zeta)/2 in x at any
    r, even where it is narrower than the float spacing of zeta itself (Earth
    scale).  Breaks graded geometrically away from the pole, 0 and
    +-h0*2^j for j = 0..levels, double from half the narrowest half-width
    h0 up to H = h0*2^levels, the first step at least one support panel
    wide (levels >= 1); (-H, H) is the point's near zone.  A point's line
    is the sum of two parts:

    * far: the density's support panels that lie wholly outside its near
      zone.  Their nodes in zeta are the same for every point, so one
      (points, panels, 15) kernel array over the density's cached nodes and
      rho integrates them all, with rho (1+zeta)/2pi and (1+zeta)^2/4 formed
      once per call, and one product with the K15 and K15 - G7 weights
      reduces it to each panel's value and bound;
    * near: the same pieces for every point, the graded pieces in (-H, H)
      and the parts outside it of the two support panels across +-H, all
      clipped to the support.  A piece clipped to zero width counts nothing
      and asks for no rho; the others take fresh rho from one pdf call per
      block of points.

    The near pieces and the panels bisected later are all the pdf is asked
    for: 15 heights for each of a point's 2*levels + 4 near pieces that
    keeps a width on the support, ~100 per point in all on the benchmark's
    two-packet lines at r ~ 1e3.  Points go in blocks of
    :func:`~gravclock.numerics.block_rows`.  A block is one call of
    :func:`~gravclock.numerics.panel_quadrature`, one row per point: its
    far panels, then its near pieces, with their values and bounds.  The
    far panels inside the near zone and the zero-width pieces enter with
    value and bound 0, which the engine neither counts nor bisects; it
    applies the tolerance and bisects the points that miss it.
    """
    lo, hi = density.support
    zeta_breaks, nodes, rho = density._panels
    n_support = zeta_breaks.size - 1
    h0 = 0.25 * (1.0 + lo)
    levels = max(1, math.ceil(math.log2(r * (hi - lo) / _SUPPORT_PANELS / h0)))
    steps = h0 * 2.0 ** np.arange(levels + 1)
    near = steps[-1]
    # a point's near pieces end at: the last support break at or below -H,
    # the graded breaks, the first support break at or above H
    ends_at = np.concatenate(([0.0], -steps[::-1], [0.0], steps, [0.0]))
    gam = 1.0 + nodes
    far_weight = rho * gam / (2.0 * math.pi)
    far_width2 = 0.25 * gam * gam
    far_nodes = r * nodes
    far_half = 0.5 * (zeta_breaks[1:] - zeta_breaks[:-1])

    def line(x, nus):
        """The kernel at the nodes x (panels, 15) of panels of the points
        nus (panels,), with fresh rho."""
        gam = nus[:, None] + x
        gam /= r
        y = density(gam.ravel()).reshape(gam.shape)
        gam += 1.0
        y *= gam
        y /= 2.0 * math.pi * r
        gam *= gam
        gam *= 0.25
        gam += x * x
        y /= gam
        return y

    step = block_rows(n_support + ends_at.size - 1)
    p = np.empty_like(nu)
    for start in range(0, len(nu), step):
        nus = nu[start:start + step]
        xb = r * zeta_breaks - nus[:, None]
        # in place: a fresh temporary per operation made this kernel about
        # twice as slow
        y = np.subtract(far_nodes, nus[:, None, None])
        y *= y
        y += far_width2
        np.divide(far_weight, y, out=y)
        far = ((xb[:, :-1] >= near) | (xb[:, 1:] <= -near))[..., None]
        far_val, far_err = _kronrod(y[..., None], far_half)

        rows = np.arange(len(nus))
        ends = np.tile(ends_at, (len(nus), 1))
        ends[:, 0] = xb[rows, np.maximum((xb <= -near).sum(axis=1) - 1, 0)]
        ends[:, -1] = xb[rows, np.minimum((xb < near).sum(axis=1), n_support)]
        np.clip(ends, xb[:, :1], xb[:, -1:], out=ends)
        a, b = ends[:, :-1], ends[:, 1:]
        live = b > a
        y = np.zeros(a.shape + (15, 1))
        y[live, :, 0] = line(_panel_nodes(a[live], b[live]),
                             nus[np.nonzero(live)[0]])
        near_val, near_err = _kronrod(y, 0.5 * (b - a))

        p[start:start + step] = panel_quadrature(
            lambda x, row: line(x, nus[row])[..., None],
            np.concatenate((xb[:, :-1], a), axis=1),
            np.concatenate((xb[:, 1:], b), axis=1),
            np.concatenate((far_val * far, near_val), axis=1),
            np.concatenate((far_err * far, near_err), axis=1))[:, 0]
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
    return _reduced_excess(khandelwal_tcoh_full(kp, z1, z2, g=g, c=c))


def _reduced_excess(full: TcohResult) -> float:
    """:func:`khandelwal_tcoh_reduced` from the full bracket at the same
    inputs."""
    n = full.n_factor
    return (n - 1.0) / (2.0 * n) * full.term2
