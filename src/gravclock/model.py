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

The two-packet state's interference weight A and norm bracket B = 1 + A are
formed in one function, ``_interference``: the superposition's density and
both routes of the rate excess read it in zeta units, the spec's norm check
in meters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

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


def _square(x: float) -> float:
    """x**2, or inf where Python's float power raises OverflowError
    instead of overflowing as IEEE arithmetic does."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _c_squared(c: float) -> float:
    """c**2, refusing a c whose square overflows."""
    c2 = _square(c)
    if c2 == math.inf:
        raise ConfigurationError(f"c = {c!r} overflows when squared")
    return c2


def gamma0_from_dipole(dipole: float, omega: float, *,
                       c: float = C_LIGHT) -> float:
    """Flat-space decay rate of a 1+1D emitter with dipole moment ``dipole``.

    Returns Omega d^2 / (2 hbar c eps0), inf past float range.  A zero
    dipole is allowed here and gives rate zero; the CLI rejects it, because
    every dimensionless scale divides by Gamma0.
    """
    _require_finite("dipole", dipole)
    if dipole < 0.0:
        raise ConfigurationError(f"dipole must be >= 0, got {dipole!r}")
    _require_positive("omega", omega)
    try:
        return omega * dipole**2 / (2.0 * HBAR * c * EPS0)
    except (OverflowError, ZeroDivisionError):
        return math.inf if dipole else 0.0


@dataclass(frozen=True)
class DimensionlessScales:
    """Heights between meters and zeta (:meth:`zeta`, :meth:`height_m`),
    and the line-shift factor :attr:`r`."""

    g: float
    c: float
    omega: float
    gamma0: float

    def __post_init__(self) -> None:
        for name in ("g", "c", "omega", "gamma0"):
            _require_positive(name, getattr(self, name))
        _c_squared(self.c)

    @property
    def r(self) -> float:
        """Line-shift-per-unit-zeta, Omega/Gamma0."""
        return self.omega / self.gamma0

    def zeta(self, z_m):
        return self.g * np.asarray(z_m, dtype=float) / self.c**2

    def height_m(self, zeta):
        return np.asarray(zeta, dtype=float) * self.c**2 / self.g


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


def _interference(theta, phi, dz, width):
    """The two-packet state's interference weight
    A = cos(phi) sin(2 theta) exp(-dz^2 / 4 width^2) and norm bracket
    B = 1 + A, vectorized over the angles and dz; dz and the one width in
    one unit.  Both are first scaled by the power of two that brings the
    width into [0.5, 1), exactly, so the exponent keeps the bits of
    dz**2 / (4 width**2) at any finite width."""
    # the cap at 2**1023 still lifts a subnormal width's square clear of
    # underflow
    scale = math.ldexp(1.0, min(-math.frexp(width)[1], 1023))
    dz, width = dz * scale, width * scale
    a = np.cos(phi) * np.sin(2.0 * theta) * np.exp(
        -(dz * dz) / (4.0 * (width * width)))
    return a, 1.0 + a


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
        if not (_square(self.z2 - self.z1) < math.inf
                and 0.0 < 4.0 * _square(self.delta) < math.inf):
            raise ConfigurationError(
                f"packet separation {self.z2 - self.z1!r} or spread "
                f"{self.delta!r} leaves float range when squared")
        if self.norm_bracket < _NORM_FLOOR:
            raise ConfigurationError(
                "norm vanishes: destructive interference of overlapping "
                f"packets leaves 1 + cos(phi) sin(2 theta) exp(-dz^2/4 delta^2)"
                f" = {self.norm_bracket:.3e}")

    @property
    def norm_bracket(self) -> float:
        """B = 1 + A of :func:`_interference`, on the spec's own units."""
        return float(_interference(self.theta, self.phi, self.z2 - self.z1,
                                   self.delta)[1])

    def mixture(self) -> "MixtureSpec":
        """The decohered counterpart: same packets and weights, no phase."""
        return MixtureSpec(z1=self.z1, z2=self.z2, delta=self.delta,
                           theta=self.theta)


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


# Support hint extends this many packet widths past the outermost centers;
# the Gaussian mass beyond is ~exp(-144), far under the 1e-20 contract.
_SUPPORT_WIDTHS = 12.0
_SUPPORT_PANELS = 32   # equal panels across a density's support


def _zeta_packets(spec: SuperpositionSpec | MixtureSpec,
                  scales: DimensionlessScales) -> list[float]:
    """[z1, z2, dz, width] of a meter-unit spec in zeta units; dz is the
    converted z2 - z1, which keeps its precision far from zeta = 0."""
    return scales.zeta((spec.z1, spec.z2, spec.z2 - spec.z1,
                        spec.delta)).tolist()


class _Panels(NamedTuple):
    """A density's support panels: their ends, shape (panels + 1,); the 15
    Kronrod nodes of each, shape (panels, 15); and rho at those nodes."""

    breaks: np.ndarray
    nodes: np.ndarray
    rho: np.ndarray


@dataclass(frozen=True)
class HeightDensity:
    """Normalized height distribution in zeta units.

    Either a weighted sum of equal-width Gaussian components
    sum_m w_m exp(-(zeta-mu_m)^2/width^2) / (sqrt(pi) width) -- the
    superposition carries a (possibly negative-weight) interference
    component at the midpoint -- or an arbitrary ``pdf`` callable
    (:meth:`from_callable`), never both.

    A ``pdf`` must be vectorized: every integral over it calls it on 1-D
    float arrays of heights, thousands of quadrature nodes at a time, and it
    must return an array of the same shape.  It is checked when the density
    is built: a pdf that is not finite or is negative on a 2001-point scan
    grid is refused, naming the first non-finite height, and unit mass is
    verified within 1e-12 by the panel quadrature engine, whose own error
    bound is ~1e-13 of the mass.  That check evaluates the pdf on the
    support panels' nodes once per density; the mass check, survival curves,
    :func:`~gravclock.analytic.total_rate` and the lines of
    :func:`~gravclock.analytic.spectrum` all reuse those values.  The pdf
    is called again only on panels bisected later and, for a line, on the
    fixed pieces of each point's near zone around its Lorentzian pole
    (~100 heights per point on two-packet lines at r ~ 1e3).

    Gaussian components need a finite width > 0 and finite centers and
    weights, the weights summing to 1 within 1e-9.
    """

    support: tuple[float, float]
    width: float | None = None
    centers: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()
    pdf: Callable | None = None

    def __post_init__(self) -> None:
        lo, hi = (float(self.support[0]), float(self.support[1]))
        object.__setattr__(self, "support", (lo, hi))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigurationError(f"bad support interval {self.support!r}")
        if lo <= -0.5:
            raise HorizonError(
                f"density support reaches zeta = {lo:.4g} <= -0.5; heights "
                "that close to the horizon are outside this model's domain")
        if self.pdf is None:
            if self.width is None:
                raise ConfigurationError("a density needs a pdf, or "
                                         "Gaussian components of width > 0")
            if not 0.0 < self.width < math.inf:
                raise ConfigurationError(
                    f"component width must be finite and > 0, got "
                    f"{self.width!r}")
            if len(self.centers) != len(self.weights) or not self.centers:
                raise ConfigurationError("centers/weights length mismatch")
            if not all(map(math.isfinite, (*self.centers, *self.weights))):
                raise ConfigurationError(
                    f"component centers {self.centers!r} and weights "
                    f"{self.weights!r} must be finite")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ConfigurationError(
                    f"component weights sum to {sum(self.weights)!r}, not 1")
            return
        if self.width is not None or self.centers or self.weights:
            raise ConfigurationError(
                "a density takes a pdf or Gaussian components, not both")
        grid = np.linspace(lo, hi, 2001)
        vals = np.asarray(self.pdf(grid), dtype=float)
        if vals.shape != grid.shape:
            raise ConfigurationError(
                f"sampled pdf returns shape {vals.shape} for heights of shape "
                f"{grid.shape}; it must return the shape it is given")
        finite = np.isfinite(vals)
        if not finite.all():
            at = np.argmin(finite)
            raise ConfigurationError(
                f"sampled pdf is {float(vals[at])!r} at zeta = "
                f"{float(grid[at])!r}; it must be finite on its support")
        if np.any(vals < -1e-12 * max(vals.max(initial=0.0), 1.0)):
            raise ConfigurationError("sampled pdf takes negative values")
        mass = self._integral(lambda z: np.ones(z.shape + (1,)))[0]
        if abs(mass - 1.0) > 1e-12:
            raise ConfigurationError(
                f"sampled pdf mass {mass!r} differs from 1 by more than 1e-12")

    # -- constructors -------------------------------------------------------

    @classmethod
    def superposition(cls, spec: SuperpositionSpec,
                      scales: DimensionlessScales) -> "HeightDensity":
        """Packets at z1 and z2 weighted cos^2 theta / B and sin^2 theta / B
        and the interference component A / B at their midpoint, with A and B
        from :func:`_interference` in zeta units, as the closed forms."""
        z1, z2, dz, width = _zeta_packets(spec, scales)
        a, b = map(float, _interference(spec.theta, spec.phi, dz, width))
        centers = (z1, z2, 0.5 * (z1 + z2))
        weights = (math.cos(spec.theta) ** 2 / b,
                   math.sin(spec.theta) ** 2 / b,
                   a / b)
        return cls(support=_hint(centers, width),
                   width=width, centers=centers, weights=weights)

    @classmethod
    def mixture(cls, spec: MixtureSpec | SuperpositionSpec,
                scales: DimensionlessScales) -> "HeightDensity":
        z1, z2, _, width = _zeta_packets(spec, scales)
        centers = (z1, z2)
        weights = (math.cos(spec.theta) ** 2, math.sin(spec.theta) ** 2)
        return cls(support=_hint(centers, width),
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
    def from_callable(cls, pdf: Callable,
                      support: tuple[float, float]) -> "HeightDensity":
        """Wrap an arbitrary normalized, vectorized pdf(zeta); the class
        docstring gives the contract it is checked against."""
        return cls(support=support, pdf=pdf)

    # -- evaluation ---------------------------------------------------------

    @property
    def is_analytic(self) -> bool:
        return self.pdf is None

    def component_sum(self, f):
        """Sum over the Gaussian components of weight * f(center), added up
        in component order; ``f`` may return scalars or arrays.  Analytic
        densities only."""
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

    @cached_property
    def _panels(self) -> _Panels:
        """The support panels -- equal panels across the support, split at
        the analytic centers inside it -- with rho at their nodes, computed
        once per density."""
        # deferred: numerics imports model
        from .numerics import _panel_nodes
        lo, hi = self.support
        centers = [mu for mu in self.centers if lo < mu < hi]
        breaks = np.unique(np.r_[np.linspace(lo, hi, _SUPPORT_PANELS + 1),
                                 centers])
        nodes = _panel_nodes(breaks[:-1], breaks[1:])
        return _Panels(breaks, nodes, self(nodes.ravel()).reshape(nodes.shape))

    def _integral(self, f) -> np.ndarray:
        """The integral of rho(zeta) f(zeta) over the support panels, by
        :func:`~gravclock.numerics.panel_quadrature` on one row of them.
        ``f`` maps heights of shape (panels, 15) to shape (panels, 15, m);
        the integral has shape (m,).  ``f`` is called at the panels' nodes,
        with rho there taken from :attr:`_panels`, and at the nodes of
        bisected panels."""
        from .numerics import _kronrod, panel_quadrature
        breaks, nodes, rho = self._panels
        a, b = breaks[None, :-1], breaks[None, 1:]

        def integrand(z, row):
            return self(z.ravel()).reshape(z.shape)[..., None] * f(z)

        val, err = _kronrod((rho[..., None] * f(nodes))[None], 0.5 * (b - a))
        return panel_quadrature(integrand, a, b, val, err)[0]

    def mean(self) -> float:
        """First moment <zeta>; closed form, analytic densities only."""
        return float(self.component_sum(lambda mu: mu))


def _hint(centers: Iterable[float], width: float) -> tuple[float, float]:
    lo = min(centers) - _SUPPORT_WIDTHS * width
    hi = max(centers) + _SUPPORT_WIDTHS * width
    return (lo, hi)
