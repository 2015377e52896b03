"""Top-level acceptance checks.

One test per shipped guarantee, in order: zero structure of the rate
excess, closed form against a density integral, the two standard figure
reproductions, spectrum normalization, the mode-comb oracle against the
exponential law (trajectory and spectrum), the wave-packet coherence-time
equivalence and magnitude report, and the optimal-state scaling. Each
check carries the wall-clock budget it is expected to meet on desk
hardware.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

import gravclock as gc
from gravclock.experiments import figure1_grid
from gravclock.model import _interference
from gravclock.numerics import panel_quadrature

from conftest import UNIT_SCALES, SEED, lorentzian_line, random_specs


def test_c01_rate_excess_zero_structure():
    """gammaQ_inv vanishes at theta in {0, pi/4, pi/2} and at phi = pi/2."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        delta = rng.uniform(0.005, 0.025)
        dz = rng.uniform(0.5, 4.0) * delta * rng.choice((-1.0, 1.0))
        z1 = rng.uniform(-0.04, 0.04)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        for theta in (0.0, math.pi / 4, math.pi / 2):
            spec = gc.SuperpositionSpec(z1=z1, z2=z1 + dz, delta=delta,
                                        theta=theta, phi=phi)
            worst = max(worst, abs(gc.quantum_correction(spec, UNIT_SCALES)))
        spec = gc.SuperpositionSpec(z1=z1, z2=z1 + dz, delta=delta,
                                    theta=rng.uniform(0.0, math.pi / 2),
                                    phi=math.pi / 2)
        worst = max(worst, abs(gc.quantum_correction(spec, UNIT_SCALES)))
    assert worst < 1e-15
    assert time.perf_counter() - t0 < 1.0


def difference_density_moment(spec: gc.SuperpositionSpec) -> float:
    """Integral of (zeta - zeta_mid)(rho_sup - rho_mix) by the panel engine
    over the superposition density's support panels.  The difference
    density, (A/B)[G_mid - cos^2 theta G1 - sin^2 theta G2], is evaluated
    pointwise from its components: subtracting the two densities would
    cancel.  It has zero mass, so the zeta_mid shift leaves the value alone
    and keeps it from cancelling against <zeta>."""
    breaks = gc.HeightDensity.superposition(spec, UNIT_SCALES)._panels.breaks
    z1, z2, w = spec.z1, spec.z2, spec.delta
    mid = 0.5 * (z1 + z2)
    c2, s2 = math.cos(spec.theta) ** 2, math.sin(spec.theta) ** 2
    a, b = _interference(spec.theta, spec.phi, spec.z2 - spec.z1, spec.delta)
    scale = a / b

    def gauss(z, mu):
        return np.exp(-(((z - mu) / w) ** 2)) / (math.sqrt(math.pi) * w)

    def f(z, row):
        diff = gauss(z, mid) - c2 * gauss(z, z1) - s2 * gauss(z, z2)
        return ((z - mid) * scale * diff)[..., None]

    return float(panel_quadrature(f, breaks[None, :-1],
                                  breaks[None, 1:])[0, 0])


def test_c02_closed_form_vs_quadrature():
    """Closed-form gammaQ_inv tracks the panel-engine integral of the
    difference density to 1e-10."""
    t0 = time.perf_counter()
    worst = 0.0
    for spec in random_specs(1000):
        closed = gc.quantum_correction(spec, UNIT_SCALES)
        brute = difference_density_moment(spec)
        worst = max(worst, abs(closed - brute) / abs(brute))
    assert worst < 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_c03_rate_excess_sweep_surfaces():
    """Sign flips across theta = pi/4 and between the phi = 0 / pi branches;
    spot value at (pi/8, 0, separation twice the width) is 1.4597e-3."""
    t0 = time.perf_counter()
    n = 201
    panels = gc.figure1_default_panels(n_grid=n, delta_zeta=0.01)
    surf_0 = figure1_grid(panels["b"])[-1].reshape(n, n)
    surf_pi = figure1_grid(panels["c"])[-1].reshape(n, n)
    # rows: theta = linspace(0, pi/2, n); columns: dz = linspace(0, 5*width, n)
    below = slice(1, n // 2)        # 0 < theta < pi/4
    above = slice(n // 2 + 1, n - 1)  # pi/4 < theta < pi/2
    interior = slice(1, None)       # dz > 0
    assert np.all(surf_0[below, interior] > 0.0)
    assert np.all(surf_0[above, interior] < 0.0)
    assert np.all(surf_pi[below, interior] < 0.0)
    assert np.all(surf_pi[above, interior] > 0.0)
    # theta = pi/8 is row 50, dz = 0.02 is column 80 of the standard grids
    assert surf_0[50, 80] == pytest.approx(1.4597e-3, rel=1e-4)
    spot = float(gc.gammaq_closed_grid(math.pi / 8, 0.0, 0.02, 0.01))
    assert spot == pytest.approx(1.4597e-3, rel=1e-4)
    assert time.perf_counter() - t0 < 5.0


def test_c04_line_shape_cases():
    """The four standard line-shape cases: split maxima in the well-separated
    case, visibly different superposition/mixture lines, overlap contrast
    growing from case (a) to case (c), and >= 0.9 of the mass in window."""
    t0 = time.perf_counter()
    cases = gc.figure2_default_cases(n_points=4001)
    contrast = {}
    for name, case in cases.items():
        sup, mix = gc.figure2_lines(case)
        assert sup.total_mass >= 0.9
        assert mix.total_mass >= 0.9
        diff = np.max(np.abs(sup.p_values - mix.p_values))
        contrast[name] = diff / np.max(mix.p_values)
    # case (d): mixture line splits into maxima at -1.5 and +1.5 (+-0.02)
    case = cases["d"]
    _, mix = gc.figure2_lines(case)
    neg = case.nu_grid < 0.0
    peak_neg = gc.line_peak(case.nu_grid[neg], mix.p_values[neg])
    peak_pos = gc.line_peak(case.nu_grid[~neg], mix.p_values[~neg])
    assert peak_neg == pytest.approx(-1.5, abs=0.02)
    assert peak_pos == pytest.approx(1.5, abs=0.02)
    assert contrast["d"] >= 0.01          # visible sup/cl difference
    assert contrast["c"] > 2.0 * contrast["a"]
    assert time.perf_counter() - t0 < 30.0


def test_c05_spectrum_normalization():
    """Each per-height Lorentzian carries unit area, and the sampled line
    mass of a two-line mixture converges to 1 as the window doubles."""
    t0 = time.perf_counter()
    from scipy.integrate import quad
    r = 1e3
    for zeta in (0.0, 0.25):
        u = r * zeta
        area, err = quad(lambda x: lorentzian_line(x + u, zeta, r),
                         -np.inf, np.inf)
        assert area == pytest.approx(1.0, abs=max(1e-10, 10.0 * err))
    scales = gc.DimensionlessScales(g=1.0, c=1.0, omega=r, gamma0=1.0)
    spec = gc.MixtureSpec(z1=-0.002, z2=0.002, delta=0.001,
                          theta=math.pi / 4)
    density = gc.HeightDensity.mixture(spec, scales)
    deficits = []
    for half, n in ((80.0, 3201), (160.0, 6401), (320.0, 12801)):
        grid = np.linspace(-half, half, n)
        result = gc.spectrum(density, grid, r)
        deficits.append(1.0 - result.total_mass)
    assert deficits[-1] < 1e-3
    # tail mass falls off like 1/window: each doubling should halve it
    assert deficits[0] / deficits[1] == pytest.approx(2.0, abs=0.1)
    assert deficits[1] / deficits[2] == pytest.approx(2.0, abs=0.1)
    assert time.perf_counter() - t0 < 10.0


def test_c06_oracle_decay_matches_single_pole(request):
    """Mode-comb |alpha(s)|^2 stays within 2% of exp(-(1+zeta)s) up to five
    lifetimes at r = 1e3 (window +-100 linewidths, >= 8001 modes), the gap
    shrinks at r = 1e4, and the integration stays unitary to 1e-6."""
    t0 = time.perf_counter()
    trio = request.getfixturevalue("oracle_trio")
    finer = request.getfixturevalue("oracle_r1e4")
    for zeta, run in trio.items():
        grid = run.grid
        u = 1e3 * zeta
        assert grid.n_modes >= 8001
        assert grid.nu_min <= u - 100.0 and grid.nu_max >= u + 100.0
        deviation, s_cap, truncated = run.single_pole_deviation(5.0)
        assert s_cap == pytest.approx(5.0)
        assert not truncated
        assert deviation <= 0.02
        assert run.fitted_rate == pytest.approx(1.0 + zeta, rel=0.02)
        assert run.max_unitarity_defect <= 1e-6
    assert finer.single_pole_deviation(5.0)[0] \
        < trio[0.0].single_pole_deviation(5.0)[0]
    assert finer.max_unitarity_defect <= 1e-6
    assert time.perf_counter() - t0 < 15.0


def test_c07_oracle_emitted_spectrum(request):
    """The reconstructed mode-occupation line peaks at u = r*zeta within one
    mode spacing, with FWHM equal to the local linewidth within 10%."""
    trio = request.getfixturevalue("oracle_trio")
    finer = request.getfixturevalue("oracle_r1e4")
    runs = [(zeta, 1e3, run) for zeta, run in trio.items()]
    runs.append((0.0, 1e4, finer))
    for zeta, r, run in runs:
        line = gc.oracle_spectrum(run)
        assert line.total_mass > 0.99
        u = r * zeta
        peak = gc.line_peak(line.nu_grid, line.p_values)
        assert abs(peak - u) <= run.grid.dnu
        width = gc.line_fwhm(line.nu_grid, line.p_values)
        assert width == pytest.approx(1.0 + zeta, rel=0.1)


def test_c08_coherence_time_equivalence():
    """The wave-packet coherence-time excess reduces to gammaQ_inv when the
    weights and widths are matched (alpha = cos^2 theta, sigma_z = width)."""
    t0 = time.perf_counter()
    worst = 0.0
    for spec in random_specs(1000):
        kp = gc.KhandelwalParams(sigma_z=spec.delta, sigma_v=1.0, p_bar=0.0,
                                 alpha_w=math.cos(spec.theta) ** 2,
                                 phi=spec.phi, t=1.0, m=1.0)
        reduced = gc.khandelwal_tcoh_reduced(kp, spec.z1, spec.z2,
                                             g=1.0, c=1.0)
        direct = gc.quantum_correction(spec, UNIT_SCALES)
        worst = max(worst, abs(reduced - direct) / abs(direct))
    assert worst < 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_c09_coherence_term_magnitudes():
    """At the reference point (1e-27 kg packet, 1e-18 separation in zeta,
    10 ns flight) the three bracket terms land at their expected orders."""
    t0 = time.perf_counter()
    report = gc.term_magnitude_report(g=gc.STANDARD_GRAVITY, c=gc.C_LIGHT,
                                      hbar=gc.HBAR)
    assert 1e-27 <= abs(report["term1"]) <= 1e-25
    assert 1e-19 <= abs(report["term2"]) <= 1e-17
    assert 0.0 < abs(report["term3"]) <= 1e-25
    assert time.perf_counter() - t0 < 1.0


def test_c10_optimal_state_scaling():
    """The best achievable rate excess is proportional to the packet width
    in zeta units, at phi = pi with nearly overlapping packets."""
    t0 = time.perf_counter()
    ratios = []
    for delta_zeta in (0.005, 0.01, 0.02):
        scan = gc.optimal_state_scan(delta_zeta)
        ratios.append(scan["max_gammaQ"] / delta_zeta)
        assert abs(scan["phi_star"] - math.pi) < 0.01
        assert 0.0 < scan["sep_ratio_star"] < 1.0   # overlapping packets
    assert max(ratios) / min(ratios) < 1.05
    assert time.perf_counter() - t0 < 60.0
