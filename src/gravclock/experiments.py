"""Reproducible parameter studies built on the closed forms.

All heights here are dimensionless (zeta units); separations are often
expressed as multiples of the packet width so results scale out exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import SpectrumResult, gammaq_closed_grid, spectrum
from .model import C_LIGHT, HBAR, STANDARD_GRAVITY, ConfigurationError, \
    HeightDensity, _c_squared, _require_positive, _square


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep over (theta, phi, dz) at fixed packet width.

    Axes held fixed in a panel are single-element tuples.  Separations dz
    and the width are both in zeta units.
    """

    delta_zeta: float
    theta_values: tuple[float, ...]
    phi_values: tuple[float, ...]
    dz_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.delta_zeta > 0.0:
            raise ConfigurationError("delta_zeta must be > 0")
        for name in ("theta_values", "phi_values", "dz_values"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals:
                raise ConfigurationError(f"{name} must be non-empty")
            object.__setattr__(self, name, vals)


def figure1_grid(spec: SweepSpec) -> tuple[np.ndarray, ...]:
    """The sparse (theta, phi, dz) mesh of the sweep and the closed-form
    rate excess on it, shaped (n_theta, n_phi, n_dz)."""
    mesh = np.meshgrid(spec.theta_values, spec.phi_values, spec.dz_values,
                       indexing="ij", sparse=True)
    return (*mesh, gammaq_closed_grid(*mesh, spec.delta_zeta))


def figure1_default_panels(*, n_grid: int = 201,
                           delta_zeta: float = 0.01) -> dict[str, SweepSpec]:
    """The three standard rate-excess maps.

    (a) fixed theta = pi/8 over (phi, dz); (b) fixed phi = 0 over (theta, dz);
    (c) fixed phi = pi over (theta, dz).  Separations run to 5 packet widths.
    """
    dz = tuple(np.linspace(0.0, 5.0 * delta_zeta, n_grid))
    theta = tuple(np.linspace(0.0, math.pi / 2, n_grid))
    phi = tuple(np.linspace(0.0, 2.0 * math.pi, n_grid))
    return {
        "a": SweepSpec(delta_zeta=delta_zeta, theta_values=(math.pi / 8,),
                       phi_values=phi, dz_values=dz),
        "b": SweepSpec(delta_zeta=delta_zeta, theta_values=theta,
                       phi_values=(0.0,), dz_values=dz),
        "c": SweepSpec(delta_zeta=delta_zeta, theta_values=theta,
                       phi_values=(math.pi,), dz_values=dz),
    }


@dataclass(frozen=True)
class LineCase:
    """One emission-line comparison: balanced superposition (theta = pi/4,
    phi = 0) against its mixture, packets at zeta1/zeta2 with width
    delta_zeta, line-shift factor r."""

    zeta1: float
    zeta2: float
    delta_zeta: float
    r: float
    nu_min: float = -5.0
    nu_max: float = 5.0
    n_points: int = 4001

    def __post_init__(self) -> None:
        if not self.delta_zeta > 0.0:
            raise ConfigurationError("delta_zeta must be > 0")
        if not self.r > 0.0:
            raise ConfigurationError("r must be > 0")
        if self.n_points < 2 or not self.nu_max > self.nu_min:
            raise ConfigurationError("bad frequency grid")

    @property
    def nu_grid(self) -> np.ndarray:
        return np.linspace(self.nu_min, self.nu_max, self.n_points)


def figure2_lines(case: LineCase) -> tuple[SpectrumResult, SpectrumResult]:
    """(superposition, mixture) line shapes for one case."""
    dens_sup = HeightDensity.superposition_zeta(
        case.zeta1, case.zeta2, case.delta_zeta, math.pi / 4, 0.0)
    dens_mix = HeightDensity.mixture_zeta(
        case.zeta1, case.zeta2, case.delta_zeta, math.pi / 4)
    grid = case.nu_grid
    return (spectrum(dens_sup, grid, case.r),
            spectrum(dens_mix, grid, case.r))


def figure2_default_cases(*, n_points: int = 4001) -> dict[str, LineCase]:
    """Four standard cases at r = 1.5e17: packet separation grows through
    (a)-(c) with width = separation/2; (d) repeats (c)'s separation with
    width = separation/4, which resolves the two lines."""
    r = 1.5e17
    out: dict[str, LineCase] = {}
    for name, z2, quarter in (("a", 2e-18, False), ("b", 6e-18, False),
                              ("c", 1e-17, False), ("d", 1e-17, True)):
        sep = 2.0 * z2
        width = sep / 4.0 if quarter else sep / 2.0
        out[name] = LineCase(zeta1=-z2, zeta2=z2, delta_zeta=width, r=r,
                             n_points=n_points)
    return out


# ---------------------------------------------------------------------------
# optimal-state scan
# ---------------------------------------------------------------------------


# dz/delta_zeta of the reported ridge point: where the ridge's value falls
# 1e-3 short of the supremum (40-digit mpmath).  The closed form's rounding
# grows like 1/B toward the zero-norm corner; here B = 1.33e-3 and it
# costs ~2e-14 relative.
_RHO_STAR = 0.051674677730008036


def _ridge_theta(rho: float) -> float:
    """theta on the ridge of |gammaQ| at phi = pi, separation rho widths.

    The ridge cubic E s^3 - 2 s^2 + 1 = 0, s = sin(2 theta), is solved for
    u = 1 - s, as e + (1 - 3e) u + (1 + 3e) u^2 - (1 + e) u^3 = 0 with
    e = E - 1, so that u keeps its relative precision as rho -> 0.  Newton
    starts from u = 0 (s = 1)."""
    e = math.expm1(-0.25 * rho * rho)
    a, b, c = 1.0 - 3.0 * e, 1.0 + 3.0 * e, 1.0 + e
    u = 0.0
    for _ in range(60):
        step = ((e + u * (a + u * (b - c * u)))
                / (a + u * (2.0 * b - 3.0 * c * u)))
        u -= step
        if abs(step) <= 1e-15 * u:
            break
    # 2 theta = pi/2 - acos(1 - u), and acos(1 - u) = 2 asin(sqrt(u/2))
    return math.pi / 4 - math.asin(math.sqrt(0.5 * u))


def optimal_state_scan(delta_zeta: float) -> dict:
    """The largest |rate excess| over the two-packet family, in closed form.

    With rho = dz/delta_zeta the excess is delta_zeta * F(rho, theta, phi),
    so everything scales exactly with the packet width.  Its largest values
    lie at phi = pi, where, with s = sin(2 theta) and E = exp(-rho^2/4),

        |gammaQ| / delta_zeta = (rho/2) sqrt(1 - s^2) s E / (1 - s E).

    For each rho this is largest on the ridge E s^3 - 2 s^2 + 1 = 0, whose
    one root in (0, 1) lies near 1 - rho^2/4.  Along the ridge the value
    rises monotonically as rho -> 0, with a relative shortfall that tends
    to 3 rho^2 / 8, toward the supremum ``sup_gammaQ`` = delta_zeta/sqrt(2),
    the packet's standard deviation in zeta.  There is no interior maximum:
    the supremum sits at the zero-norm corner B = 1 - s E -> 0 and is never
    reached.

    The other keys describe one stated ridge point: rho* = ``_RHO_STAR``,
    where the shortfall is 1e-3 (B = 1.33e-3; closer to the corner the
    closed form's 1/B cancellation would lose digits), theta* from the
    ridge cubic and phi* = pi.  ``ratio_to_quarter_delta`` is
    max_gammaQ/(delta_zeta/4); it tends to 2 sqrt(2) at the supremum.
    """
    _require_positive("delta_zeta", delta_zeta)
    theta = _ridge_theta(_RHO_STAR)
    # the excess is delta_zeta times its value at unit width
    max_gamma = delta_zeta * abs(float(
        gammaq_closed_grid(theta, math.pi, _RHO_STAR, 1.0)))
    return {
        "max_gammaQ": max_gamma,
        "sup_gammaQ": delta_zeta / math.sqrt(2.0),
        "theta_star": theta,
        "phi_star": math.pi,
        "dz_star": _RHO_STAR * delta_zeta,
        "ratio_to_quarter_delta": max_gamma / (0.25 * delta_zeta),
        "sep_ratio_star": _RHO_STAR,
        "delta_zeta": delta_zeta,
    }


# ---------------------------------------------------------------------------
# coherence-term magnitudes
# ---------------------------------------------------------------------------


def term_magnitude_report(*, g: float = STANDARD_GRAVITY,
                          c: float = C_LIGHT, hbar: float = HBAR) -> dict:
    """Order-of-magnitude comparison of the three coherence-time terms.

    Reference point: separation and packet spread both 1e-18 * c^2/g in
    height (zeta = 1e-18, ~9.2 mm on Earth), minimum-uncertainty velocity
    spread sigma_v = hbar/(m sigma_z), the one-significant-figure atomic
    mass m = 1e-27 kg the estimate chain rounds to, run time t = 1e-8 s and
    mean momentum p_bar = 0.  term3 is the one-sided bound at momentum
    |p_bar - m g t| = m g t, maximal over the run time t.
    """
    mass, t = 1e-27, 1e-8
    c2 = _c_squared(c)
    sigma_z = 1e-18 * c2 / g
    dz = sigma_z
    sigma_v = hbar / (mass * sigma_z)
    sv2c2 = _square(sigma_v / c)
    term1 = sv2c2
    term2 = g * dz / c2
    term3 = (2.0 / hbar) * sv2c2 * dz * (mass * g * t)
    return {
        "term1": term1,
        "term2": term2,
        "term3": term3,
        "sigma_z_m": sigma_z,
        "separation_m": dz,
        "sigma_v_m_s": sigma_v,
        "mass_kg": mass,
        "t_s": t,
        "p_bar": 0.0,
    }
