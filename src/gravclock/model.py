"""Wave-packet clock states and unit conventions.

Everything downstream of this module works in dimensionless variables:

    zeta = g z / c^2          height (zeta > -1 stays above the horizon)
    s    = Gamma0 * tau       proper-ish time in flat-space lifetimes
    nu   = (omega - Omega) / Gamma0     detuning in linewidths
    u    = r * zeta           gravitational line shift, with r = Omega / Gamma0

Heights, times and frequencies in SI units appear only at this construction
boundary.  The split matters numerically: on Earth a centimetre of height is
zeta ~ 1e-19 while r ~ 1e17, so the shifted line position u = r*zeta must be
formed as that product and never as a difference of absolute frequencies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

ROOT_PI = math.sqrt(math.pi)

# CODATA values.
HBAR = 1.054571817e-34          # J s
EPS0 = 8.8541878128e-12         # F / m
C_LIGHT = 299792458.0           # m / s
STANDARD_GRAVITY = 9.80665      # m / s^2

# Interference terms below this leave no usable norm in the state.
_NORM_FLOOR = 1e-12


class ConfigurationError(ValueError):
    """Parameters or state specs that violate their documented contracts."""


class HorizonError(ValueError):
    """Height domain errors: at/below the horizon (zeta <= -1), or densities
    whose support reaches zeta <= -0.5 where the linearized treatment is
    meaningless."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def gamma0_from_dipole(dipole: float, omega: float, *, hbar: float = HBAR,
                       c: float = C_LIGHT, eps0: float = EPS0) -> float:
    """Flat-space decay rate of a 1+1D emitter with dipole moment ``dipole``.

    Returns Omega d^2 / (2 hbar c eps0).  A zero dipole is allowed here and
    gives rate zero; :class:`PhysicalParams` itself rejects it because every
    dimensionless scale divides by Gamma0.
    """
    _require_finite("dipole", dipole)
    if dipole < 0.0:
        raise ConfigurationError(f"dipole must be >= 0, got {dipole!r}")
    _require_positive("omega", omega)
    return omega * dipole**2 / (2.0 * hbar * c * eps0)


def dipole_from_gamma0(gamma0: float, omega: float, *, hbar: float = HBAR,
                       c: float = C_LIGHT, eps0: float = EPS0) -> float:
    """Inverse of :func:`gamma0_from_dipole`."""
    _require_positive("gamma0", gamma0)
    _require_positive("omega", omega)
    return math.sqrt(2.0 * hbar * c * eps0 * gamma0 / omega)


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensionful constants and atom parameters.

    Exactly one of ``gamma0`` / ``dipole`` must be supplied; the other is
    derived.
    """

    g: float
    c: float
    omega: float
    gamma0: float | None = None
    dipole: float | None = None
    hbar: float = HBAR
    eps0: float = EPS0

    def __post_init__(self) -> None:
        for name in ("g", "c", "omega", "hbar", "eps0"):
            _require_positive(name, getattr(self, name))
        if self.gamma0 is None and self.dipole is None:
            raise ConfigurationError("one of gamma0 or dipole is required")
        if self.gamma0 is not None and self.dipole is not None:
            raise ConfigurationError("gamma0 and dipole are mutually exclusive")
        if self.gamma0 is None:
            _require_positive("dipole", self.dipole)
            object.__setattr__(self, "gamma0", gamma0_from_dipole(
                self.dipole, self.omega, hbar=self.hbar, c=self.c, eps0=self.eps0))
        else:
            _require_positive("gamma0", self.gamma0)
            object.__setattr__(self, "dipole", dipole_from_gamma0(
                self.gamma0, self.omega, hbar=self.hbar, c=self.c, eps0=self.eps0))
        if self.omega / self.gamma0 < 1.0:
            raise ConfigurationError(
                f"omega/gamma0 = {self.omega / self.gamma0:.3g} < 1; the emitter "
                "must be underdamped for the line-shape treatment to make sense")

    @property
    def r(self) -> float:
        return self.omega / self.gamma0

    def scales(self) -> "DimensionlessScales":
        return DimensionlessScales(g=self.g, c=self.c, omega=self.omega,
                                   gamma0=self.gamma0)


@dataclass(frozen=True)
class DimensionlessScales:
    """Conversions between SI quantities and the dimensionless variables."""

    g: float
    c: float
    omega: float
    gamma0: float

    def __post_init__(self) -> None:
        for name in ("g", "c", "omega", "gamma0"):
            _require_positive(name, getattr(self, name))

    @property
    def r(self) -> float:
        """Line-shift-per-unit-zeta, Omega/Gamma0."""
        return self.omega / self.gamma0

    def zeta(self, z_m):
        return self.g * np.asarray(z_m, dtype=float) / self.c**2

    def height_m(self, zeta):
        return np.asarray(zeta, dtype=float) * self.c**2 / self.g

    def s(self, tau_s):
        return self.gamma0 * np.asarray(tau_s, dtype=float)

    def tau_s(self, s):
        return np.asarray(s, dtype=float) / self.gamma0

    def nu(self, omega_rad_s):
        # Difference of absolute frequencies: fine for lab detunings, but do
        # not reconstruct gravitational shifts this way -- use r * zeta.
        return (np.asarray(omega_rad_s, dtype=float) - self.omega) / self.gamma0

    def line_shift(self, zeta):
        return self.r * np.asarray(zeta, dtype=float)


# Identity conversion: "heights" already given in zeta units.
_UNIT_SCALES = DimensionlessScales(g=1.0, c=1.0, omega=2.0, gamma0=1.0)


def _validate_angles(theta: float, phi: float | None) -> None:
    _require_finite("theta", theta)
    if not 0.0 <= theta <= math.pi / 2:
        raise ConfigurationError(
            f"theta must lie in [0, pi/2], got {theta!r} (not wrapped)")
    if phi is not None:
        _require_finite("phi", phi)
        if not 0.0 <= phi < 2.0 * math.pi:
            raise ConfigurationError(f"phi must lie in [0, 2*pi), got {phi!r}")


@dataclass(frozen=True)
class SuperpositionSpec:
    """Two-packet coherent state cos(theta)|z1> + e^{i phi} sin(theta)|z2>.

    Heights and the packet spread ``delta`` are in meters; angles in radians.
    """

    z1: float
    z2: float
    delta: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        _require_finite("z1", self.z1)
        _require_finite("z2", self.z2)
        _require_positive("delta", self.delta)
        _validate_angles(self.theta, self.phi)
        if self.norm_bracket < _NORM_FLOOR:
            raise ConfigurationError(
                "norm vanishes: destructive interference of overlapping "
                f"packets leaves 1 + cos(phi) sin(2 theta) exp(-dz^2/4 delta^2)"
                f" = {self.norm_bracket:.3e}")

    @property
    def overlap(self) -> float:
        """Packet overlap exp(-(z1-z2)^2 / 4 delta^2)."""
        return math.exp(-((self.z1 - self.z2) ** 2) / (4.0 * self.delta**2))

    @property
    def interference_weight(self) -> float:
        """Weight of the interference term, cos(phi) sin(2 theta) * overlap."""
        return math.cos(self.phi) * math.sin(2.0 * self.theta) * self.overlap

    @property
    def norm_bracket(self) -> float:
        return 1.0 + self.interference_weight

    @property
    def norm_constant(self) -> float:
        """Normalization N = [sqrt(pi) delta (1 + cos phi sin 2theta E)]^{-1/2}."""
        return 1.0 / math.sqrt(ROOT_PI * self.delta * self.norm_bracket)

    def mixture(self) -> "MixtureSpec":
        """The decohered counterpart: same packets and weights, no phase."""
        return MixtureSpec(z1=self.z1, z2=self.z2, delta=self.delta,
                           theta=self.theta)

    def swapped(self) -> "SuperpositionSpec":
        """Relabel the packets: (z1,z2,theta) -> (z2,z1,pi/2-theta).

        Describes the identical physical state; only phi's sign convention
        would differ at third order, and cos(phi) is all that ever enters.
        """
        return SuperpositionSpec(z1=self.z2, z2=self.z1, delta=self.delta,
                                 theta=math.pi / 2 - self.theta, phi=self.phi)


@dataclass(frozen=True)
class MixtureSpec:
    """Classical mixture: the same two packets with weights cos^2/sin^2 theta."""

    z1: float
    z2: float
    delta: float
    theta: float

    def __post_init__(self) -> None:
        _require_finite("z1", self.z1)
        _require_finite("z2", self.z2)
        _require_positive("delta", self.delta)
        _validate_angles(self.theta, None)


def density_sup(spec: SuperpositionSpec, z_m):
    """Position density of the superposition state, in 1/m."""
    z = np.asarray(z_m, dtype=float)
    d2 = spec.delta**2
    q1 = (z - spec.z1) ** 2 / d2
    q2 = (z - spec.z2) ** 2 / d2
    body = (math.cos(spec.theta) ** 2 * np.exp(-q1)
            + math.sin(spec.theta) ** 2 * np.exp(-q2)
            + math.cos(spec.phi) * math.sin(2.0 * spec.theta)
            * np.exp(-0.5 * (q1 + q2)))
    out = spec.norm_constant**2 * np.maximum(body, 0.0)
    return out if np.ndim(z_m) else float(out)


def density_mix(spec: MixtureSpec | SuperpositionSpec, z_m):
    """Position density of the classical mixture, in 1/m."""
    z = np.asarray(z_m, dtype=float)
    d2 = spec.delta**2
    norm = 1.0 / (ROOT_PI * spec.delta)
    out = norm * (math.cos(spec.theta) ** 2 * np.exp(-((z - spec.z1) ** 2) / d2)
                  + math.sin(spec.theta) ** 2 * np.exp(-((z - spec.z2) ** 2) / d2))
    return out if np.ndim(z_m) else float(out)


_ANALYTIC_KINDS = ("analytic-superposition", "analytic-mixture")
_KINDS = _ANALYTIC_KINDS + ("sampled",)

# Support hint extends this many packet widths past the outermost centers;
# the Gaussian mass beyond is ~exp(-144), far under the 1e-20 contract.
_SUPPORT_WIDTHS = 12.0


@dataclass(frozen=True)
class HeightDensity:
    """Normalized height distribution in zeta units.

    Analytic kinds are weighted sums of equal-width Gaussians
    sum_m w_m exp(-(zeta-mu_m)^2/width^2) / (sqrt(pi) width); the
    superposition kind carries a (possibly negative-weight) interference
    component at the midpoint.  ``sampled`` wraps an arbitrary callable pdf.
    """

    kind: str
    support: tuple[float, float]
    width: float | None = None
    centers: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()
    pdf: Callable | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown density kind {self.kind!r}")
        lo, hi = (float(self.support[0]), float(self.support[1]))
        object.__setattr__(self, "support", (lo, hi))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigurationError(f"bad support interval {self.support!r}")
        if lo <= -0.5:
            raise HorizonError(
                f"density support reaches zeta = {lo:.4g} <= -0.5; heights "
                "that close to the horizon are outside this model's domain")
        if self.kind in _ANALYTIC_KINDS:
            if self.pdf is not None:
                raise ConfigurationError("analytic kinds carry no pdf callable")
            if self.width is None or self.width <= 0.0:
                raise ConfigurationError("analytic kinds need width > 0")
            if len(self.centers) != len(self.weights) or not self.centers:
                raise ConfigurationError("centers/weights length mismatch")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ConfigurationError(
                    f"component weights sum to {sum(self.weights)!r}, not 1")
        else:
            if self.pdf is None:
                raise ConfigurationError("sampled kind requires a pdf callable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def superposition(cls, spec: SuperpositionSpec,
                      scales: DimensionlessScales) -> "HeightDensity":
        z1, z2 = float(scales.zeta(spec.z1)), float(scales.zeta(spec.z2))
        width = float(scales.zeta(spec.delta))
        a = spec.interference_weight
        b = spec.norm_bracket
        centers = (z1, z2, 0.5 * (z1 + z2))
        weights = (math.cos(spec.theta) ** 2 / b,
                   math.sin(spec.theta) ** 2 / b,
                   a / b)
        return cls(kind="analytic-superposition",
                   support=_hint(centers, width),
                   width=width, centers=centers, weights=weights)

    @classmethod
    def mixture(cls, spec: MixtureSpec | SuperpositionSpec,
                scales: DimensionlessScales) -> "HeightDensity":
        z1, z2 = float(scales.zeta(spec.z1)), float(scales.zeta(spec.z2))
        width = float(scales.zeta(spec.delta))
        centers = (z1, z2)
        weights = (math.cos(spec.theta) ** 2, math.sin(spec.theta) ** 2)
        return cls(kind="analytic-mixture", support=_hint(centers, width),
                   width=width, centers=centers, weights=weights)

    @classmethod
    def superposition_zeta(cls, zeta1: float, zeta2: float, delta_zeta: float,
                           theta: float, phi: float) -> "HeightDensity":
        """Build directly from dimensionless heights (zeta units)."""
        spec = SuperpositionSpec(z1=zeta1, z2=zeta2, delta=delta_zeta,
                                 theta=theta, phi=phi)
        return cls.superposition(spec, _UNIT_SCALES)

    @classmethod
    def mixture_zeta(cls, zeta1: float, zeta2: float, delta_zeta: float,
                     theta: float) -> "HeightDensity":
        spec = MixtureSpec(z1=zeta1, z2=zeta2, delta=delta_zeta, theta=theta)
        return cls.mixture(spec, _UNIT_SCALES)

    @classmethod
    def from_callable(cls, pdf: Callable, support: tuple[float, float],
                      *, check: bool = True) -> "HeightDensity":
        """Wrap an arbitrary normalized pdf(zeta).

        ``pdf`` must be vectorized: every integral over it calls it on 1-D
        float arrays of heights, thousands of quadrature nodes at a time,
        and it must return an array of the same shape.  With ``check``
        (default), verifies nonnegativity on a 2001-point scan grid and unit
        mass within 1e-12 by the panel quadrature engine, whose own error
        bound is ~1e-13 of the mass.
        """
        dens = cls(kind="sampled", support=(float(support[0]), float(support[1])),
                   pdf=pdf)
        if check:
            grid = np.linspace(dens.support[0], dens.support[1], 2001)
            vals = np.asarray(pdf(grid), dtype=float)
            if np.any(vals < -1e-12 * max(vals.max(initial=0.0), 1.0)):
                raise ConfigurationError("sampled pdf takes negative values")
            mass = _support_integrals(dens,
                                      lambda z: np.ones(z.shape + (1,)))[0]
            if abs(mass - 1.0) > 1e-12:
                raise ConfigurationError(
                    f"sampled pdf mass {mass!r} differs from 1 by more than 1e-12")
        return dens

    # -- evaluation ---------------------------------------------------------

    @property
    def is_analytic(self) -> bool:
        return self.kind in _ANALYTIC_KINDS

    def component_sum(self, f):
        """Sum over the Gaussian components of weight * f(center), added up
        in component order; ``f`` may return scalars or arrays.  Analytic
        kinds only."""
        if not self.is_analytic:
            raise ConfigurationError(
                "component sums need an analytic density; sampled densities "
                "are integrated by total_rate, survival_probability and "
                "spectrum")
        total = 0.0
        for w, mu in zip(self.weights, self.centers):
            total = total + w * f(mu)
        return total

    def __call__(self, zeta):
        z = np.asarray(zeta, dtype=float)
        if self.is_analytic:
            acc = self.component_sum(
                lambda mu: np.exp(-((z - mu) ** 2) / self.width**2)
            ) / (ROOT_PI * self.width)
            # interference can round to ~-1e-25 where it cancels exactly
            out = np.maximum(acc, 0.0)
        else:
            out = np.where((z >= self.support[0]) & (z <= self.support[1]),
                           np.asarray(self.pdf(z), dtype=float), 0.0)
        return out if np.ndim(zeta) else float(out)

    def mean(self) -> float:
        """First moment <zeta>; closed form, analytic kinds only."""
        return float(self.component_sum(lambda mu: mu))


def _hint(centers: Iterable[float], width: float) -> tuple[float, float]:
    lo = min(centers) - _SUPPORT_WIDTHS * width
    hi = max(centers) + _SUPPORT_WIDTHS * width
    return (lo, hi)


_SUPPORT_PANELS = 32   # equal panels across a density's support


def _support_breaks(density: HeightDensity) -> np.ndarray:
    """Panel ends in zeta: equal panels across the support, split at the
    analytic centers inside it."""
    lo, hi = density.support
    centers = [mu for mu in density.centers if lo < mu < hi]
    return np.unique(np.r_[np.linspace(lo, hi, _SUPPORT_PANELS + 1), centers])


def _support_integrals(density: HeightDensity, f) -> np.ndarray:
    """Integrals of rho(zeta) f(zeta) over the support panels, by
    :func:`~gravclock.numerics.panel_quadrature`.  ``f`` maps heights of
    shape (panels, 15) to shape (panels, 15, m); returns shape (m,)."""
    from .numerics import panel_quadrature  # deferred: numerics imports model
    breaks = _support_breaks(density)

    def integrand(z, row):
        return density(z.ravel()).reshape(z.shape)[..., None] * f(z)

    return panel_quadrature(integrand, breaks[:-1], breaks[1:],
                            np.zeros(len(breaks) - 1, int), 1)[0]
