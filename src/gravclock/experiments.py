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
    HeightDensity, _c_squared, _square


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


def figure1_sweep(spec: SweepSpec) -> np.ndarray:
    """Closed-form rate-excess table over the sweep grid.

    Returns an (n_rows, 4) array with columns (theta, phi, dz, gammaQ_inv),
    rows in C order over (theta, phi, dz).
    """
    return np.column_stack([c.ravel() for c in
                            np.broadcast_arrays(*figure1_grid(spec))])


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


def _golden_max(f, lo: float, hi: float) -> float:
    """Deterministic golden-section maximizer on [lo, hi], 40 steps."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(40):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimal_state_scan(delta_zeta: float) -> dict:
    """Search the state family for the largest |rate excess|.

    The separation axis is dz/delta_zeta, so the closed form factorizes as
    gammaQ = delta_zeta * F(ratio, theta, phi) and the maximum is exactly
    proportional to the packet width.  A coarse grid (31 log-spaced ratios
    in [0.05, 4], 51 thetas in [pi/8, 3pi/8], 41 phis in [0, 2pi]) first,
    then two rounds of coordinate-wise golden-section refinement; fully
    deterministic.

    The optimum must land at phi = pi with nearly overlapping packets --
    that's asserted, not assumed.
    """
    if not delta_zeta > 0.0:
        raise ConfigurationError("delta_zeta must be > 0")
    ratios = np.geomspace(0.05, 4.0, 31)
    thetas = np.linspace(math.pi / 8, 3 * math.pi / 8, 51)
    phis = np.linspace(0.0, 2.0 * math.pi, 41)

    def f_abs(ratio, theta, phi):
        return np.abs(gammaq_closed_grid(theta, phi, ratio, 1.0))

    vals = f_abs(ratios[:, None, None], thetas[None, :, None],
                 phis[None, None, :])
    i, j, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
    ratio_b, theta_b, phi_b = float(ratios[i]), float(thetas[j]), float(phis[k])

    def bracket(grid: np.ndarray, idx: int) -> tuple[float, float]:
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, len(grid) - 1)]
        return float(lo), float(hi)

    r_lo, r_hi = bracket(ratios, i)
    t_lo, t_hi = bracket(thetas, j)
    p_lo, p_hi = bracket(phis, k)
    for _ in range(2):
        ratio_b = _golden_max(lambda v: f_abs(v, theta_b, phi_b), r_lo, r_hi)
        theta_b = _golden_max(lambda v: f_abs(ratio_b, v, phi_b), t_lo, t_hi)
        phi_b = _golden_max(lambda v: f_abs(ratio_b, theta_b, v), p_lo, p_hi)
    best = float(f_abs(ratio_b, theta_b, phi_b))

    if abs(phi_b - math.pi) > 0.2:
        raise RuntimeError(
            f"scan postcondition: optimum phi = {phi_b:.4f}, expected ~pi")
    if ratio_b > 1.0:
        raise RuntimeError(
            f"scan postcondition: optimal separation {ratio_b:.3f} widths; "
            "expected nearly overlapping packets")

    max_gamma = delta_zeta * best
    return {
        "max_gammaQ": max_gamma,
        "theta_star": theta_b,
        "phi_star": phi_b,
        "dz_star": ratio_b * delta_zeta,
        "ratio_to_quarter_delta": max_gamma / (0.25 * delta_zeta),
        "sep_ratio_star": ratio_b,
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
