from __future__ import annotations

import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

import gravclock as gc
from conftest import UNIT_SCALES, lorentzian_line, random_specs


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def adaptive(f, lo, hi, points=None):
    """Adaptive quadpack reference at the tolerances the library once used."""
    return quad(f, lo, hi, points=points, epsabs=1e-14, epsrel=1e-12,
                limit=200)[0]


def test_decay_rates_quadrature_vs_adaptive():
    """Both rates of the quadrature method against adaptive integrals of
    (1 + zeta) over each density."""
    for spec in random_specs(10):
        got = gc.decay_rates(spec, UNIT_SCALES, method="quadrature")
        for dens, rate in (
                (gc.HeightDensity.superposition(spec, UNIT_SCALES),
                 got.gamma_sup),
                (gc.HeightDensity.mixture(spec, UNIT_SCALES), got.gamma_cl)):
            ref = adaptive(lambda z: (1.0 + z) * dens(z), *dens.support,
                           points=dens.centers)
            assert rate == pytest.approx(ref, rel=1e-11)


def test_panel_quadrature_rows_components_and_refinement():
    """Two integrals of two components each; one panel per integral to
    start, so the peaks at 0 force bisection."""
    from gravclock.numerics import panel_quadrature
    eps = np.array([1e-3, 0.3])

    def f(x, row):
        return 1.0 / (eps[row][:, None, None] ** 2
                      + x[..., None] ** 2 * np.array([1.0, 4.0]))

    got = panel_quadrature(f, [[-1.0], [-1.0]], [[1.0], [1.0]])
    want = 2.0 * np.arctan(np.multiply.outer(1.0 / eps, [1.0, 2.0])) \
        / (eps[:, None] * [1.0, 2.0])
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)
    # The tolerance scales with the integrand: no absolute floor lets a
    # tiny copy through unrefined.
    tiny = panel_quadrature(lambda x, row: 1e-20 * f(x, row),
                            [[-1.0], [-1.0]], [[1.0], [1.0]])
    assert np.allclose(tiny, 1e-20 * got, rtol=1e-12, atol=0.0)


def test_accuracy_error_carries_estimate_and_bound():
    """cos(1e6 z^2) on [0, 12] needs far more panels than 40 rounds of
    bisection can make."""
    from gravclock.numerics import panel_quadrature
    with pytest.raises(gc.AccuracyError) as err:
        panel_quadrature(lambda x, row: np.cos(1e6 * x * x)[..., None],
                         [[0.0]], [[12.0]])
    assert math.isfinite(err.value.estimate)
    assert err.value.bound > 0.0


def _starting_panels(f, a, b):
    """The K15 values and bounds of the panels a, b of shape (rows, panels)
    that a caller hands to panel_quadrature."""
    from gravclock.numerics import _kronrod, _panel_nodes
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    x = _panel_nodes(a, b).reshape(-1, 15)
    y = f(x, np.repeat(np.arange(a.shape[0]), a.shape[1]))
    return _kronrod(y.reshape(a.shape + y.shape[1:]), 0.5 * (b - a))


def test_panel_quadrature_skips_rows_of_zero_panels():
    """Row 0's panels have value and bound 0: the row integrates to 0 and f
    never sees them, while row 1 bisects its peak."""
    from gravclock.numerics import panel_quadrature
    seen = []

    def f(x, row):
        seen.append(row)
        return 1.0 / (1e-6 + x[..., None] ** 2)

    a, b = [[-1.0, 0.0], [-1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]
    val, err = _starting_panels(f, a, b)
    val[0], err[0] = 0.0, 0.0
    seen.clear()
    got = panel_quadrature(f, a, b, val, err)
    assert got[0, 0] == 0.0
    assert got[1, 0] == pytest.approx(2e3 * math.atan(1e3), rel=1e-12)
    assert seen and all(np.all(row == 1) for row in seen)


def test_panel_quadrature_refuses_non_finite_starting_values():
    from gravclock.numerics import panel_quadrature
    a, b = [[0.0, 1.0, 2.0], [0.0, 0.5, 2.0]], [[1.0, 2.0, 3.0],
                                                 [0.5, 2.0, 3.0]]
    val, err = np.ones((2, 3, 1)), np.zeros((2, 3, 1))
    val[1, 1, 0] = math.nan
    with pytest.raises(gc.AccuracyError,
                       match=r"integral 1 is non-finite: panel \[0.5, 2.0\]"):
        panel_quadrature(lambda x, row: np.ones(x.shape + (1,)), a, b,
                         val, err)


def test_panel_quadrature_bisects_at_most_max_splits_per_round():
    """200 starting panels of cos(1e6 x^2) on [0, 12] miss the tolerance on
    nearly all of them; each bisection round still hands f at most
    _MAX_SPLITS panels, both halves of each."""
    from gravclock import numerics
    sizes = []

    def f(x, row):
        sizes.append(len(x))
        return np.cos(1e6 * x * x)[..., None]

    breaks = np.linspace(0.0, 12.0, 201)
    with pytest.raises(gc.AccuracyError):
        numerics.panel_quadrature(f, breaks[None, :-1], breaks[None, 1:])
    assert sizes[0] == 200
    assert len(sizes) == numerics._MAX_ROUNDS + 1
    assert max(sizes[1:]) == 2 * numerics._MAX_SPLITS


_NO_SCIPY = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))
import gravclock
from gravclock import cli
assert not scipy_modules(), scipy_modules()
out = sys.argv[1]
cfg = out + "/cfg.json"
with open(cfg, "w") as f:
    json.dump({"figures": {"n_grid": 5, "n_nu": 11},
               "sweep": {"n_grid": 5},
               "spectrum": {"n_points": 11},
               "oracle": {"zeta": 0.3, "r": 100.0, "dnu": 0.05,
                          "halfwidth_linewidths": 30.0, "s_max": 6.0,
                          "compare_up_to": 4.0}}, f)
for command in ("rate", "survival", "spectrum", "tcoh", "figures", "sweep",
                "oracle"):
    assert cli.main([command, "--config", cfg, "--out", out]) == 0, command
    assert not scipy_modules(), (command, scipy_modules())
"""


def test_import_and_every_command_load_no_scipy(tmp_path):
    """The runtime is numpy alone: neither ``import gravclock`` nor any
    CLI command (a small oracle included) loads a scipy module, which
    would add ~0.25 s and ~25 MB to every process."""
    src = str(Path(gc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)],
                   env=env, check=True, stdout=subprocess.DEVNULL)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

_PSI_ROOT = gc.numerics._PSI_ROOT[0]
# digamma's root from both sides, the ends of the Taylor interval [1, 2) and
# of the recurrence, and the switch to the asymptotic series at 10
_PSI_SEAMS = [1.0, np.nextafter(_PSI_ROOT, 0.0), _PSI_ROOT,
              np.nextafter(_PSI_ROOT, 2.0), 1.4616, 1.4617,
              np.nextafter(2.0, 0.0), 2.0, 3.0, 9.0, np.nextafter(10.0, 0.0),
              10.0, np.nextafter(10.0, 11.0)]


def scaled_error(got, exact, x):
    """Largest |got - exact(x)| / max(1, |exact(x)|), exact at 40 digits."""
    with mpmath.workdps(40):
        return max(float(abs(mpmath.mpf(float(g)) - e) / max(1, abs(e)))
                   for g, e in ((g, exact(mpmath.mpf(float(v))))
                                for g, v in zip(got, x)))


@settings(max_examples=25)
@given(st.lists(st.floats(1.0, 10.0, exclude_max=True), max_size=40))
def test_digamma_below_10_against_mpmath(xs):
    """Taylor series about the root plus the recurrence: within 6.7e-16 of
    max(1, |psi|) on [1, 10), where the recurrence from 10 alone reaches
    1.1e-15 and scipy 2.9e-16."""
    from gravclock.numerics import digamma
    x = np.array(xs + _PSI_SEAMS[:-2])
    assert scaled_error(digamma(x), mpmath.digamma, x) <= 6.7e-16


@settings(max_examples=25)
@given(st.lists(st.floats(10.0, 1e7), max_size=40))
def test_digamma_from_10_against_mpmath(xs):
    """The asymptotic series: within 4.5e-16 of max(1, |psi|) for
    x >= 10 (scipy: 2.2e-16)."""
    from gravclock.numerics import digamma
    x = np.array(xs + _PSI_SEAMS[-2:] + [1e7])
    assert scaled_error(digamma(x), mpmath.digamma, x) <= 4.5e-16


@settings(max_examples=25)
@given(st.lists(st.one_of(st.floats(1.0, 10.0), st.floats(10.0, 1e7)),
                max_size=40))
def test_trigamma_against_mpmath(xs):
    """Within 4.5e-16 of max(1, psi') for x >= 1."""
    from gravclock.numerics import trigamma
    x = np.array(xs + _PSI_SEAMS)
    assert scaled_error(trigamma(x), lambda v: mpmath.psi(1, v), x) <= 4.5e-16


def test_digamma_keeps_its_shape_and_taylor_table():
    """Scalars and 2-D arrays in, the same shapes out; the Taylor table is
    (-1)^(k+1) zeta(k+1, x0) about the 40-digit root x0, as
    tools/kernel_coefficients.py makes it."""
    from gravclock.numerics import (_PSI_ROOT as root, _PSI_TAYLOR, digamma,
                                    trigamma)
    assert digamma(3.5).shape == () and trigamma(3.5).shape == ()
    grid = np.linspace(1.0, 30.0, 12).reshape(3, 4)
    assert np.array_equal(digamma(grid), digamma(grid.ravel()).reshape(3, 4))
    with mpmath.workdps(40):
        x0 = mpmath.findroot(mpmath.digamma, mpmath.mpf("1.46"))
        assert root == (float(x0), float(x0 - float(x0)))
        table = [float((-1) ** (k + 1) * mpmath.zeta(k + 1, x0))
                 for k in range(1, len(_PSI_TAYLOR) + 1)]
    assert np.array_equal(_PSI_TAYLOR, table)


@settings(max_examples=25)
@given(a=st.floats(1.0, 1e6), n=st.integers(2, 10**5))
def test_digamma_span_keeps_relative_precision(a, n):
    """psi(a + n - 1) - psi(a) within 4e-15 relative, also where the two
    digammas nearly cancel (the plain difference loses up to ~1e-9)."""
    from gravclock.numerics import digamma_span
    with mpmath.workdps(40):
        exact = (mpmath.digamma(mpmath.mpf(a) + (n - 1))
                 - mpmath.digamma(mpmath.mpf(a)))
        got = digamma_span(np.array([a]), n - 1.0)[0]
        assert float(abs(got - exact) / exact) <= 4e-15


@settings(max_examples=25)
@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=20))
def test_dawson_slope_against_mpmath(xs):
    """1 - 2x D(x) from one rational form: within 5e-12 for |x| <= 4.5,
    where the Voigt kernel needs D to ~1e-11, and 2e-8 beyond, where it
    needs ~4e-8; past |x| = 1e8 the slope stays within 4e-9 of 0."""
    from gravclock.numerics import _dawson_slope
    x = np.array(xs + [0.0, 3.72, 4.5, np.nextafter(4.5, 5.0), 200.0])
    got = _dawson_slope(x * x)
    with mpmath.workdps(40):
        for v, g in zip(x, got):
            m = mpmath.mpf(float(v))
            exact = 1 - m * mpmath.sqrt(mpmath.pi) * mpmath.exp(-m * m) \
                * mpmath.erfi(m)
            assert abs(g - exact) <= (5e-12 if abs(v) <= 4.5 else 2e-8)
    assert np.all(np.abs(_dawson_slope(np.array([1e16, 1e40, np.inf])))
                  <= 4e-9)


_VOIGT_YS = [1e-16, 1e-12, 1e-9, 0.99e-7, 1e-7, 1.01e-7, 1e-5, 1e-3,
             0.0199, 0.02, 0.1, 1.0, 10.0, 1e2, 1e4]


@pytest.mark.parametrize("y", _VOIGT_YS)
def test_voigt_profile_against_scipy(y):
    """y = gamma/(sigma sqrt 2) from 1e-16 to 1e4, across the seam at
    1e-7 between Weideman's series and the Gaussian expansion: within
    5e-15 of the line maximum everywhere and, where the profile is at least
    1e-6 of it, within 1e-12 relative for y >= 0.02 and y <= 1e-7, 1e-10
    between (Weideman's series alone: 4e-11 at y <= 1e-4)."""
    from scipy.special import voigt_profile as reference
    from gravclock.numerics import voigt_profile
    sigma = 1.3
    gamma = y * sigma * math.sqrt(2.0)
    half_width = sigma * math.sqrt(2.0) * (12.0 + 40.0 * y)
    x = np.linspace(-half_width, half_width, 8001)
    got, ref = voigt_profile(x, sigma, gamma), reference(x, sigma, gamma)
    top = ref.max()
    assert np.max(np.abs(got - ref)) <= 5e-15 * top
    band = ref >= 1e-6 * top
    rel = 1e-10 if 1e-7 < y < 0.02 else 1e-12
    assert np.max(np.abs(got - ref)[band] / ref[band]) <= rel


def test_voigt_profile_branches_per_element():
    """Rows on either side of the seam in one call give what each gives
    alone, and gamma broadcasts against x."""
    from gravclock.numerics import voigt_profile
    x = np.linspace(-4.0, 4.0, 9)
    gamma = np.array([[1e-9], [0.3]])
    both = voigt_profile(x - np.zeros((2, 1)), 0.5, gamma)
    assert both.shape == (2, 9)
    for row, g in zip(both, gamma[:, 0]):
        assert np.array_equal(row, voigt_profile(x, 0.5, g))


# ---------------------------------------------------------------------------
# mode grids
# ---------------------------------------------------------------------------


def test_mode_grid_basics():
    grid = gc.ModeGrid(nu_min=-100.0, nu_max=100.0, n_modes=8001)
    assert grid.dnu == pytest.approx(0.025, rel=1e-15)
    assert grid.recurrence_s == pytest.approx(2.0 * math.pi / 0.025,
                                              rel=1e-15)
    nus = grid.nus
    assert len(nus) == 8001
    assert nus[0] == -100.0 and nus[-1] == 100.0
    # the margin is counted in local linewidths: line at u = 75, 25 from the
    # top edge, is 20 linewidths of 1.25
    grid.require_contains(0.0, 1e3)
    with pytest.raises(gc.ConfigurationError, match=r"is 20\.0 local"):
        grid.require_contains(0.25, 300.0)


def test_mode_grid_validation():
    with pytest.raises(gc.ConfigurationError):
        gc.ModeGrid(nu_min=0.0, nu_max=10.0, n_modes=100)  # dnu > 0.05
    with pytest.raises(gc.ConfigurationError):
        gc.ModeGrid(nu_min=0.0, nu_max=-1.0, n_modes=100)
    with pytest.raises(gc.ConfigurationError):
        gc.ModeGrid(nu_min=0.0, nu_max=1.0, n_modes=1)
    with pytest.raises(gc.ConfigurationError):
        gc.ModeGrid(nu_min=0.0, nu_max=1.0, n_modes=100.0)


def test_mode_grid_margin_enforcement():
    grid = gc.ModeGrid(nu_min=-50.0, nu_max=50.0, n_modes=4001)
    grid.require_contains(0.0, 1e3)
    with pytest.raises(gc.ConfigurationError, match="margin"):
        grid.require_contains(0.3, 1e3)  # line at u=300, far outside


def test_mode_grid_for_line_defaults():
    grid = gc.ModeGrid.for_line(0.0, 1e3)
    assert (grid.nu_min, grid.nu_max, grid.n_modes) == (-100.0, 100.0, 8001)
    grid = gc.ModeGrid.for_line(0.5, 1e3)
    # +-100 local linewidths around the shifted line u = 500
    assert grid.nu_min == pytest.approx(350.0)
    assert grid.nu_max == pytest.approx(650.0)
    assert grid.n_modes == 12001
    grid = gc.ModeGrid.for_line(0.0, 1e4)
    assert grid.n_modes == 40001
    assert grid.dnu == pytest.approx(0.05)


def test_mode_grid_for_line_guard_rails():
    with pytest.raises(gc.ConfigurationError, match="halfwidth"):
        gc.ModeGrid.for_line(0.0, 1.5e17)
    grid = gc.ModeGrid.for_line(0.0, 1.5e17, halfwidth_linewidths=40.0)
    assert grid.nu_min == pytest.approx(-40.0)
    with pytest.raises(gc.HorizonError):
        gc.ModeGrid.for_line(-1.0, 1e3)


# ---------------------------------------------------------------------------
# mode-comb dynamics
# ---------------------------------------------------------------------------


def toy_run(zeta=0.3, r=100.0, s_max=8.0, **kw) -> gc.OracleRun:
    grid = gc.ModeGrid.for_line(zeta, r)
    return gc.ww_simulate(zeta, r, grid, s_max, **kw)


def test_ww_simulate_decays_at_local_rate():
    """Toy comb (+-30 local linewidths): rate right to ~1%, unitary."""
    run = toy_run()
    assert run.times[0] == 0.0
    assert run.times[-1] == pytest.approx(8.0)
    assert run.alpha_sq[0] == 1.0
    assert run.max_unitarity_defect < 1e-9
    # hard window truncation shifts the rate up by ~gamma/(pi*W) ~ 1%
    assert run.fitted_rate == pytest.approx(1.3, rel=0.02)
    assert run.fitted_rate > 1.3
    assert run.fit_residual < 5e-3


def test_ww_simulate_emission_is_unitary():
    run = toy_run(s_max=6.0)
    emitted = float(np.sum(run.beta_sq_final))
    assert emitted + run.alpha_sq[-1] == pytest.approx(1.0, abs=1e-9)


def test_ww_simulate_tilted_coupling_close_to_flat():
    run = toy_run(coupling="tilted", s_max=6.0)
    assert run.fitted_rate == pytest.approx(1.3, rel=0.02)


@pytest.mark.parametrize("zeta", [0.0, 0.3])
@pytest.mark.parametrize("coupling", ["flat", "tilted"])
def test_ww_simulate_matches_dop853_reference(zeta, coupling):
    """The eigen-solution agrees with stepping the same amplitude equations
    by DOP853 at tight tolerances (2401-3121 modes)."""
    r, s_max = 100.0, 8.0
    run = toy_run(zeta, r, s_max, coupling=coupling)
    nus, dnu, u = run.grid.nus, run.grid.dnu, r * zeta
    g_sq = np.full_like(nus, (1.0 + zeta) * dnu / (2.0 * math.pi))
    if coupling == "tilted":
        g_sq *= (r + nus) / (r + u)
    g = np.sqrt(g_sq)
    rot = -1j * (nus - u)

    def rhs(_t, y):
        out = np.empty_like(y)
        out[0] = -(g @ y[1:])
        out[1:] = rot * y[1:] + g * y[0]
        return out

    y0 = np.zeros(run.grid.n_modes + 1, dtype=complex)
    y0[0] = 1.0
    ref = solve_ivp(rhs, (0.0, s_max), y0, method="DOP853",
                    t_eval=run.times, rtol=1e-10, atol=1e-12, max_step=0.05)
    assert ref.success
    assert np.max(np.abs(np.abs(ref.y[0]) ** 2 - run.alpha_sq)) <= 1e-9
    assert np.max(np.abs(np.abs(ref.y[1:, -1]) ** 2
                         - run.beta_sq_final)) <= 1e-11


def test_ww_simulate_trajectory_grid():
    """Uniform samples from exactly (0, 1) to s_max, at least eight per
    period of the largest mode detuning in the window."""
    run = toy_run(s_max=3.7)
    steps = np.diff(run.times)
    assert (run.times[0], run.alpha_sq[0]) == (0.0, 1.0)
    assert run.times[-1] == 3.7
    assert np.all(steps > 0.0)
    assert np.ptp(steps) < 1e-12
    detuning = max(30.0 - run.grid.nu_min, run.grid.nu_max - 30.0)
    assert steps.max() <= math.pi / (4.0 * detuning) * (1.0 + 1e-12)
    assert run.max_unitarity_defect < 1e-12


def dense_alpha_trajectory(lam, w, times, block=32):
    """Reference for the FFT trajectory at the samples l*h it evaluates,
    h = times[1] - times[0].  The phase l*h*lam_k is formed without a
    rounding of its own: h*lam is split into a + b exactly (Dekker's
    product) with a in 26 bits, so l*a is exact and l*b is tiny, and
    exp(-i l a) and exp(-i l b) are taken apart.  Blocks of consecutive
    samples share one phase table for their offsets from the block's
    start, one matrix-vector product each."""
    from gravclock.numerics import _split
    h = times[1] - times[0]
    hl = h * lam
    h_hi, h_lo = _split(h)
    l_hi, l_lo = _split(lam)
    a, b = _split(hl)
    b += ((h_hi * l_hi - hl) + h_hi * l_lo + h_lo * l_hi) + h_lo * l_lo

    def phase(ell):
        return (np.exp(-1j * np.multiply.outer(ell, a))
                * np.exp(-1j * np.multiply.outer(ell, b)))

    table = phase(np.arange(min(block, len(times)), dtype=float))
    alpha = np.empty(len(times), dtype=complex)
    for start in range(0, len(times), block):
        rows = table[:len(times) - start]
        alpha[start:start + len(rows)] = rows @ (w * phase(float(start)))
    return alpha


def dense_mode_amplitudes(j, d, z, modes, block=32):
    """Reference for the FFT Cauchy sums at the given modes: every (mode,
    root) pair, with the integer part of each distance formed first."""
    out = np.empty(len(modes), dtype=complex)
    for start in range(0, len(modes), block):
        m = np.asarray(modes[start:start + block], dtype=float)
        out[start:start + len(m)] = (
            1.0 / (np.subtract.outer(-m, -j) + d)) @ z
    return out


def comb_solution(zeta, r, s_max, coupling, grid=None, strength=1.0):
    """Eigen-solution and time grid of one ww_simulate run, with p and q
    of the squared couplings scaled by ``strength``."""
    from gravclock.numerics import _comb_eigen, _coupling_line
    grid = grid or gc.ModeGrid.for_line(zeta, r)
    u = r * zeta
    p, q = _coupling_line(coupling, grid, u, 1.0 + zeta, r)
    j, d, lam, w, _ = _comb_eigen(grid, u, strength * p, strength * q)
    detuning = max(u - grid.nu_min, grid.nu_max - u)
    times = np.linspace(0.0, s_max, math.ceil(s_max * 4.0 * detuning
                                              / math.pi) + 1)
    return grid, u, j, d, lam, w, times


def assert_fft_sums_match_dense(grid, u, j, d, lam, w, times):
    from gravclock.numerics import _alpha_trajectory, _mode_amplitudes
    z = w * np.exp(-1j * times[-1] * lam)
    c = np.abs(_mode_amplitudes(d, z)) ** 2
    ref = np.abs(dense_mode_amplitudes(j, d, z, range(grid.n_modes))) ** 2
    assert np.max(np.abs(c - ref) / ref) <= 1e-12
    alpha = _alpha_trajectory(d, lam, w, times, grid.nu_min - u, grid.dnu)
    assert np.max(np.abs(alpha - dense_alpha_trajectory(lam, w, times))) \
        <= 1e-12


@pytest.mark.parametrize("zeta,r", [(0.0, 100.0), (0.3, 100.0),
                                    (0.5, 100.0), (0.5, 1e3)])
@pytest.mark.parametrize("coupling", ["flat", "tilted"])
def test_fft_sums_match_dense_reference(zeta, r, coupling):
    """Split-kernel Cauchy sums and the gridded trajectory against every
    (mode, root) and (time, root) pair, on default combs of 2401-12001
    modes."""
    assert_fft_sums_match_dense(*comb_solution(zeta, r, 12.0, coupling))


def test_fft_sums_on_a_comb_narrower_than_the_near_field():
    """Five modes: every root is within the directly summed gaps."""
    grid = gc.ModeGrid(nu_min=199.9, nu_max=200.1, n_modes=5)
    assert_fft_sums_match_dense(*comb_solution(0.2, 1e3, 12.0, "flat",
                                               grid))


def test_fft_trajectory_over_several_chunks():
    """s_max = 6/dnu: 11919 samples on a grid of 48000 cells, where a
    phase error in any root's cell position grows with the sample."""
    grid = gc.ModeGrid.for_line(0.3, 100.0)
    assert_fft_sums_match_dense(*comb_solution(0.3, 100.0, 6.0 / grid.dnu,
                                               "tilted"))


@pytest.mark.parametrize("s_max", [0.001, 0.01, 0.05])
def test_fft_sums_on_time_grids_of_a_few_samples(s_max):
    """2-4 samples: the trajectory's grid has fewer cells than a root's
    taps, which wrap around it more than once."""
    solution = comb_solution(0.3, 100.0, s_max, "flat")
    assert 2 <= len(solution[-1]) <= 4
    assert_fft_sums_match_dense(*solution)


@pytest.mark.parametrize("strength", [30.0, 1000.0])
def test_fft_sums_at_strong_coupling(strength):
    """p and q 30 and 1000 times the golden rule's: at 1000 the two roots
    beyond the comb are bound states near +-129, far outside the comb's
    +-39, and carry most of the weight."""
    solution = comb_solution(0.3, 100.0, 12.0, "flat", strength=strength)
    grid, u, _, _, lam, _, _ = solution
    if strength == 1000.0:
        assert lam[0] < grid.nu_min - u - 80.0
        assert lam[-1] > grid.nu_max - u + 80.0
    assert_fft_sums_match_dense(*solution)


@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_fft_sums_on_combs_at_the_local_radius(edge):
    """n - 1 gaps at the reach R of the corrected offsets (the largest
    |j - m| corrected in closed form) and one either side: at R and below
    the corrections of some roots run off the comb's ends."""
    from gravclock.numerics import _BEYOND
    n = max(abs(q) for q, _ in _BEYOND) + 1 + edge
    half = 0.0125 * (n - 1)
    grid = gc.ModeGrid(nu_min=200.0 - half, nu_max=200.0 + half, n_modes=n)
    assert_fft_sums_match_dense(*comb_solution(0.2, 1e3, 12.0, "flat",
                                               grid))


@settings(max_examples=10)
@given(zeta=st.floats(0.0, 0.5), r=st.floats(100.0, 300.0),
       coupling=st.sampled_from(["flat", "tilted"]),
       s_max=st.floats(0.001, 50.0))
@example(zeta=0.3, r=100.0, coupling="flat", s_max=40.0)
def test_fft_sums_match_dense_reference_property(zeta, r, coupling, s_max):
    """Default combs of 2401-3601 modes over the run lengths up to 50: the
    phase of the roots' amplitudes then turns by up to 1.25 radians a gap
    (1 at the explicit example), where a Gaussian split of width 5 with 20
    nodes would be off by 1e-10."""
    assert_fft_sums_match_dense(*comb_solution(zeta, r, s_max, coupling))


@pytest.mark.parametrize("zeta,coupling", [(0.0, "flat"), (0.3, "tilted")])
def test_fft_sums_at_r_1e4_on_subsampled_modes(zeta, coupling):
    """r = 1e4, 40001 and 52001 modes, where the Cauchy FFT is longest:
    |c|^2 against the dense sums on every 37th mode and on the 300 modes
    either side of the line."""
    from gravclock.numerics import _mode_amplitudes
    grid, u, j, d, lam, w, times = comb_solution(zeta, 1e4, 12.0, coupling)
    n = grid.n_modes
    line = round((u - grid.nu_min) / grid.dnu)
    modes = np.unique(np.r_[np.arange(0, n, 37),
                            np.arange(line - 300, line + 301)])
    z = w * np.exp(-1j * times[-1] * lam)
    c = np.abs(_mode_amplitudes(d, z)[modes]) ** 2
    ref = np.abs(dense_mode_amplitudes(j, d, z, modes)) ** 2
    assert np.max(np.abs(c - ref) / ref) <= 1e-12


@pytest.mark.parametrize("d_num", [1, 256, 512, 768, 1023])
def test_cauchy_corrections_are_the_lagrange_error(d_num):
    """At dyadic d = d_num/1024, in exact rational arithmetic, both closed
    forms of the near correction equal the explicit Lagrange difference
    1/(i + d) - sum_q L_q(d) K(i + q), K(0) = 0, at every offset
    corrected: L_k(d) (1/(d + i) - gamma_k) where -i is the node q_k, and
    (-1)^N P(d)/((i + d) prod_q (i + q)) beyond the nodes.  The rounded
    tables are within an ulp of the exact ones, and the first offset left
    out on either side has a difference below _NEAR_TOL."""
    from fractions import Fraction
    from gravclock.numerics import (_BEYOND, _GAMMA, _NEAR_TOL, _NODE0,
                                    _NODES, _OMEGA)
    d = Fraction(d_num, 1024)
    nodes = range(_NODE0, _NODE0 + _NODES)
    omega = [1 / Fraction(math.prod(qk - qp for qp in nodes if qp != qk))
             for qk in nodes]
    big_p = math.prod(d - q for q in nodes)
    lagrange = [big_p * om / (d - q) for q, om in zip(nodes, omega)]

    def difference(i):
        return 1 / (i + d) - sum(lq / (i + q) for lq, q in
                                 zip(lagrange, nodes) if i + q != 0)

    for k, qk in enumerate(nodes):
        gamma = sum(Fraction(1, qk - qp) for qp in nodes if qp != qk)
        assert lagrange[k] * (1 / (d - qk) - gamma) == difference(-qk)
        assert _OMEGA[k] == float(omega[k])
        assert abs(_GAMMA[k] - gamma) <= np.spacing(abs(_GAMMA[k]))
    for q, coef in _BEYOND:
        span = math.prod(p - q for p in nodes)
        assert (-1)**len(nodes) * big_p / ((d - q) * span) == difference(-q)
        assert coef == float(Fraction((-1)**len(nodes), span))
    reach = [q for q, _ in _BEYOND]
    for q in (min(reach) - 1, max(reach) + 1):
        assert abs(difference(-q)) <= _NEAR_TOL


@pytest.mark.parametrize("d_num", [1, 256, 512, 768, 1023])
def test_cauchy_sums_of_one_root_at_every_offset(d_num):
    """One gap root on a comb of 80 modes: the precorrected FFT gives
    z/((j - m) + d) at every mode m, near (corrected), in the band and on
    the FFT, within 4 eps of itself plus _NEAR_TOL of |z|, the share that
    the first offset left uncorrected may carry (7.1e-15 at d = 1/2)."""
    from gravclock.numerics import _NEAR_TOL, _mode_amplitudes
    n, root = 80, 40
    d = np.full(n + 1, 0.5)
    d[0], d[-1] = -0.5, 0.5
    d[root] = d_num / 1024
    z = np.zeros(n + 1, dtype=complex)
    z[root] = 1.0 - 2.0j
    c = _mode_amplitudes(d, z)
    m = np.arange(n)
    exact = z[root] / ((root - 1 - m) + d[root])
    assert np.all(np.abs(c - exact) <= 4.0 * np.finfo(float).eps
                  * np.abs(exact) + _NEAR_TOL * abs(z[root]))


# ---------------------------------------------------------------------------
# comb roots
# ---------------------------------------------------------------------------


def reference_comb_roots(grid, u, p, q):
    """Reference for the Newton root solver: every root of the comb's
    secular equation bisected from its gap (or its doubled outer bracket)
    to adjacent floats, with the same weights.  Returns j, d, lam, w."""
    from gravclock.numerics import _comb_sums, _split
    n, dnu = grid.n_modes, grid.dnu
    lam0 = grid.nu_min - u
    dnu_hi, dnu_lo = _split(dnu)

    def secular(j, d):
        lam = (lam0 + dnu_hi * j) + (dnu_lo * j + dnu * d)
        return (p + q * lam) * _comb_sums(j, d, n)[0] / dnu - n * q - lam

    ends = np.array([0.0, n - 1.0])
    for doublings in range(64):
        reach = 2.0**doublings
        f = secular(ends, np.array([-reach, reach]))
        if f[0] > 0.0 and f[1] < 0.0:
            break
    j = np.arange(-1.0, n).clip(0.0, n - 1.0)
    lo, hi = np.zeros(n + 1), np.ones(n + 1)
    lo[0], hi[0], hi[-1] = -reach, 0.0, reach
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        up = secular(j, mid) > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    d = 0.5 * (lo + hi)
    lam = lam0 + dnu * (j + d)
    s, t = _comb_sums(j, d, n)
    w = 1.0 / (1.0 + (p + q * lam) * t / dnu**2 - q * s / dnu)
    return j, d, lam, w


def comb_couplings(grid, u, zeta, r, coupling, scale=1.0):
    from gravclock.numerics import _coupling_line
    p, q = _coupling_line(coupling, grid, u, 1.0 + zeta, r)
    return scale**2 * p, scale**2 * q


def off_line_comb(zeta, r, offset):
    """The default comb of (zeta, r), moved so that its nearer end lies
    |offset| local linewidths above (offset > 0) or below the line."""
    grid = gc.ModeGrid.for_line(zeta, r)
    width = grid.nu_max - grid.nu_min
    start = r * zeta + offset * (1.0 + zeta)
    if offset < 0.0:
        start -= width
    return gc.ModeGrid(nu_min=start, nu_max=start + width,
                       n_modes=grid.n_modes)


def mpmath_comb_root(grid, lam0, p, q, j, d0):
    """Root of the secular equation at 34 digits, from the same
    double-precision comb and couplings, started at d0: in gap j when
    0 < d0 < 1, else beyond the comb's end."""
    n = grid.n_modes
    p, q, lam0, dnu = (mpmath.mpf(x) for x in (p, q, lam0, grid.dnu))

    def secular(d):
        x = j + d
        lam = lam0 + dnu * x
        if 0.0 < d0 < 1.0:
            s = (mpmath.digamma(x + 1) - mpmath.digamma(n - x)
                 + mpmath.pi * mpmath.cot(mpmath.pi * d))
        else:
            s = mpmath.digamma(x + 1) - mpmath.digamma(x + 1 - n)
        return (p + q * lam) * s / dnu - n * q - lam

    with mpmath.workdps(34):
        return mpmath.findroot(secular, mpmath.mpf(d0))


@pytest.mark.parametrize("lam0", [-5.0, -150.0, 140.0])
@pytest.mark.parametrize("coupling", ["flat", "tilted"])
def test_newton_roots_against_mpmath(lam0, coupling):
    """401-mode combs with the line centred (lam0 = -5) and far outside
    the window on either side: on every 8th gap root the largest error in
    d is no larger than the bisection's, and no root is worse than the
    bisection's by more than the few ulps either can land off."""
    from gravclock.numerics import _comb_eigen
    grid = gc.ModeGrid(nu_min=lam0, nu_max=lam0 + 10.0, n_modes=401)
    p, q = comb_couplings(grid, 0.0, 0.0, 1e3, coupling)
    j, d_ref, _, _ = reference_comb_roots(grid, 0.0, p, q)
    _, d, _, _, _ = _comb_eigen(grid, 0.0, p, q)
    ks = np.arange(1, grid.n_modes, 8)
    exact = [mpmath_comb_root(grid, lam0, p, q, int(j[k]), d_ref[k])
             for k in ks]
    err = np.array([float(abs(d[k] - x)) for k, x in zip(ks, exact)])
    err_ref = np.array([float(abs(d_ref[k] - x)) for k, x in zip(ks, exact)])
    assert err.max() <= err_ref.max()
    assert np.all(err <= err_ref + 4.0 * np.spacing(d_ref[ks]))


def rounding_floor(grid, u, p, q, j, d):
    """How far from the root of the secular function a double can land
    for rounding alone, in d: eps times the sizes of its terms over its
    slope.  The outer sum S = 1/d + sigma enters with the sizes of its two
    parts; sigma = psi(1+|d|) - psi(n+|d|) is formed as one difference
    (``digamma_span``), not from the two digammas of ~9.  Near a strongly
    coupled outer root the terms still cancel to ~1e-4 of their size and
    this reaches ~16 ulps."""
    from scipy.special import digamma
    from gravclock.numerics import _comb_sums
    n, dnu = grid.n_modes, grid.dnu
    lam = grid.nu_min - u + dnu * (j + d)
    g = p + q * lam
    s, t = _comb_sums(np.asarray(j), np.asarray(d), n)
    sigma = digamma(1.0 + abs(d)) - digamma(n + abs(d))
    terms = abs(g) / dnu * (abs(sigma) + 1.0 / abs(d)) + n * q + abs(lam)
    return float(np.finfo(float).eps * terms / abs(q * s - g * t / dnu - dnu))


_OUTER_COMBS = [(0.0, 100.0, "flat", 0.0), (0.5, 1e3, "tilted", 0.0),
                (0.3, 300.0, "flat", 150.0), (0.2, 500.0, "tilted", -190.0)]


@pytest.mark.parametrize("zeta,r,coupling,offset", _OUTER_COMBS)
@pytest.mark.parametrize("scale", [0.05, 1.0, 5.0, 50.0])
def test_outer_roots_against_mpmath(zeta, r, coupling, offset, scale):
    """Both roots beyond the comb's ends against 34-digit roots, on default
    combs (1/400 to 2500 times the golden-rule coupling) and on combs
    150-190 linewidths off the line, where one of them is the bound state
    far outside the comb.  Each lies within 20 ulps of the bisection
    reference and no farther from the exact root than it, up to 4 ulps --
    or, where larger, up to twice the rounding floor, which neither solver
    beats (238 outer roots of 150 probe draws above 25 times the coupling,
    floors 0.3-16 ulps: both within 1.9 floors of the exact root, at most
    11 ulps from each other).  The 32 roots here lie within 4.4 ulps of
    the exact ones; sigma from two digammas left them up to 13.7 ulps off."""
    from gravclock.numerics import _comb_eigen
    grid = (off_line_comb(zeta, r, offset) if offset
            else gc.ModeGrid.for_line(zeta, r))
    u = r * zeta
    p, q = comb_couplings(grid, u, zeta, r, coupling, scale)
    j, d, _, _, _ = _comb_eigen(grid, u, p, q)
    _, d_ref, _, _ = reference_comb_roots(grid, u, p, q)
    for k in (0, -1):
        floor = rounding_floor(grid, u, p, q, j[k], d[k])
        ulp = np.spacing(abs(d_ref[k]))
        exact = mpmath_comb_root(grid, grid.nu_min - u, p, q, int(j[k]),
                                 d_ref[k])
        assert abs(d[k] - d_ref[k]) <= max(20.0 * ulp, 2.0 * floor)
        assert float(abs(d[k] - exact)) <= (float(abs(d_ref[k] - exact))
                                            + max(4.0 * ulp, 2.0 * floor))


@settings(max_examples=25)
@given(zeta=st.floats(0.0, 0.5), r=st.floats(100.0, 1e3),
       coupling=st.sampled_from(["flat", "tilted"]),
       scale=st.floats(0.05, 50.0),
       offset=st.one_of(st.just(0.0), st.floats(120.0, 200.0),
                        st.floats(-200.0, -120.0)))
def test_newton_roots_match_the_bisection_reference(zeta, r, coupling,
                                                     scale, offset):
    """Default combs, couplings from 1/400 to 2500 times the golden rule,
    centred on the line or 120-200 linewidths off it on either side: the
    solver settles every root within the pass cap and agrees with the
    bisection reference.

    Both form lam = lam0 + dnu*(j + d) with dnu split, so it does not
    cancel near the line, and both land within a few ulps of the root: a
    gap root's d is compared within 1e-15 (300 probe draws differed by at
    most 3.3e-16), an outer root's within 20 ulps or twice its rounding
    floor (see test_outer_roots_against_mpmath).  A weight is compared
    within 1e-12 of itself or of the largest weight: roots within ~1e-6
    below a mode carry d's own rounding near 1, a relative eps/(1 - d) of
    their tiny weights.
    """
    from gravclock.numerics import _MAX_PASSES, _comb_eigen
    grid = (off_line_comb(zeta, r, offset) if offset
            else gc.ModeGrid.for_line(zeta, r))
    u = r * zeta
    assume(coupling == "flat" or r + grid.nu_min > 0.0)
    p, q = comb_couplings(grid, u, zeta, r, coupling, scale)
    j, d, _, w, passes = _comb_eigen(grid, u, p, q)
    _, d_ref, _, w_ref = reference_comb_roots(grid, u, p, q)
    assert passes <= _MAX_PASSES
    assert np.all(np.abs(d[1:-1] - d_ref[1:-1]) <= 1e-15)
    for k in (0, -1):
        assert abs(d[k] - d_ref[k]) <= max(
            20.0 * np.spacing(abs(d_ref[k])),
            2.0 * rounding_floor(grid, u, p, q, j[k], d[k]))
    np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=1e-12 * w.max())


def test_roots_at_r_1e4_match_mpmath():
    """r = 1e4, 40001 modes: the roots next to the line (where lam0 +
    dnu*(j + d) cancels), across the comb and beyond its ends are within
    4 eps in d of the 34-digit roots (they reach ~3e-16).  Forming lam in
    one sum leaves roots ~250 times worse (8.5e-14)."""
    from gravclock.numerics import _comb_eigen
    grid = gc.ModeGrid.for_line(0.0, 1e4)
    p, q = comb_couplings(grid, 0.0, 0.0, 1e4, "flat")
    j, d, _, _, _ = _comb_eigen(grid, 0.0, p, q)
    line = round(-grid.nu_min / grid.dnu)
    ks = np.r_[0, line - 3:line + 4, 1, grid.n_modes // 4, grid.n_modes - 1,
               grid.n_modes]
    exact = [mpmath_comb_root(grid, grid.nu_min, p, q, int(j[k]), d[k])
             for k in ks]
    err = max(float(abs(d[k] - x)) for k, x in zip(ks, exact))
    assert err <= 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("r", [100.0, 1e3, 1e4])
@pytest.mark.parametrize("zeta,coupling", [(0.0, "flat"), (0.5, "tilted")])
def test_default_combs_settle_without_fallback(r, zeta, coupling):
    """2401-60001 modes: every root, the two beyond the comb's ends
    included, settles on a Newton step within four passes."""
    from gravclock.numerics import _comb_eigen
    grid = gc.ModeGrid.for_line(zeta, r)
    u = r * zeta
    p, q = comb_couplings(grid, u, zeta, r, coupling)
    _, d, _, w, passes = _comb_eigen(grid, u, p, q)
    assert passes <= 4
    assert np.all((d[1:-1] > 0.0) & (d[1:-1] < 1.0))
    assert d[0] < 0.0 < d[-1]
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [0.02, 0.001])
@pytest.mark.parametrize("zeta,r,coupling", [(0.0, 100.0, "flat"),
                                             (0.3, 1e3, "tilted")])
def test_weak_coupling_roots_settle_on_the_root(zeta, r, coupling, scale):
    """At 1/2500 and 1e-6 of the golden-rule coupling the two roots next to
    the line crowd the mode on it, and their Newton steps from d = 1/2
    grow for a pass or two on the way in.  They settle only at the
    rounding floor, on the bisection reference's roots, and the weights
    keep their sum rule; settling a step merely because it stopped
    shrinking would stop them 0.013 short in d, with weights summing to
    0.72 at 0.02."""
    from gravclock.numerics import _comb_eigen
    grid = gc.ModeGrid.for_line(zeta, r)
    u = r * zeta
    p, q = comb_couplings(grid, u, zeta, r, coupling, scale)
    _, d, _, w, _ = _comb_eigen(grid, u, p, q)
    _, d_ref, _, _ = reference_comb_roots(grid, u, p, q)
    assert np.all(np.abs(d[1:-1] - d_ref[1:-1]) <= 1e-15)
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)


def test_ww_simulate_logs_the_root_solve(caplog):
    """One DEBUG record per run: the modes, the solver's passes and the
    sizes of the two sums; the outputs do not depend on the logging
    level."""
    grid = gc.ModeGrid.for_line(0.25, 1e3)
    quiet = gc.ww_simulate(0.25, 1e3, grid, 2.0)
    with caplog.at_level(logging.DEBUG, logger="gravclock.numerics"):
        run = gc.ww_simulate(0.25, 1e3, grid, 2.0)
    records = [rec for rec in caplog.records
               if rec.name == "gravclock.numerics"]
    assert len(records) == 1
    (modes, passes, cells, taps, nodes, banded, corrected,
     cauchy) = records[0].args
    assert modes == grid.n_modes
    assert 1 <= passes <= 4
    assert cells >= 4 * len(run.times)
    assert taps % 2 == 1
    assert nodes >= 2
    assert banded % 2 == 0
    assert corrected > nodes
    assert cauchy >= 2 * grid.n_modes
    assert np.array_equal(run.alpha_sq, quiet.alpha_sq)
    assert np.array_equal(run.beta_sq_final, quiet.beta_sq_final)


def test_too_weak_coupling_fails_loudly():
    """At 1e-8 of the golden-rule coupling the roots below the line sit
    within 1e-16 of the next mode up, where d rounds to 1: an error naming
    the cause, not divide-by-zero warnings and a NaN defect."""
    from gravclock.numerics import _comb_eigen, _coupling_line
    grid = gc.ModeGrid.for_line(0.1, 100.0)
    u = 100.0 * 0.1
    p, q = _coupling_line("flat", grid, u, 1.1, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gc.AccuracyError, match="too weak"):
            _comb_eigen(grid, u, 1e-16 * p, 1e-16 * q)


def test_unsettled_roots_fail_loudly(monkeypatch):
    """Roots still unsettled when the pass cap runs out are an error that
    counts them, not a silent midpoint."""
    monkeypatch.setattr(gc.numerics, "_MAX_PASSES", 1)
    grid = gc.ModeGrid.for_line(0.3, 100.0)
    with pytest.raises(gc.AccuracyError,
                       match=f"^{grid.n_modes + 1} comb eigenvalues "
                             "unsettled"):
        gc.ww_simulate(0.3, 100.0, grid, 1.0)


def test_trigamma_estimate_is_close_enough_for_newton():
    """The Newton derivative's psi' stands within 0.2% for x >= 1."""
    from scipy.special import polygamma
    from gravclock.numerics import _trigamma_estimate
    x = np.linspace(1.0, 400.0, 4001)
    assert np.max(np.abs(_trigamma_estimate(x) / polygamma(1, x) - 1.0)) \
        < 2e-3


def test_ww_simulate_defect_matches_exact_sums():
    """The sum-rule and unitarity defect comes from numpy's pairwise sums;
    recomputed from correctly rounded sums (math.fsum) it agrees within
    1e-14."""
    zeta, r, s_max = 0.3, 100.0, 6.0
    run = toy_run(zeta, r, s_max)
    w = comb_solution(zeta, r, s_max, "flat")[5]
    exact = max(abs(math.fsum(w) - 1.0),
                abs(math.fsum([run.alpha_sq[-1], *run.beta_sq_final]) - 1.0))
    assert abs(run.max_unitarity_defect - exact) <= 1e-14


def test_ww_simulate_refuses_defect_past_bound(monkeypatch):
    monkeypatch.setattr(gc.numerics, "_MAX_DEFECT", -1.0)
    with pytest.raises(gc.AccuracyError, match="defect"):
        toy_run(s_max=1.0)


def perturb_comb_eigen(monkeypatch, change):
    """Patch ``_comb_eigen`` so that ``change(w, lam)`` edits its weights
    and eigenvalues in place."""
    solve = gc.numerics._comb_eigen

    def patched(*args):
        j, d, lam, w, passes = solve(*args)
        change(w, lam)
        return j, d, lam, w, passes

    monkeypatch.setattr(gc.numerics, "_comb_eigen", patched)


@pytest.mark.parametrize("root", [0, 1, 1200, -2, -1])
def test_ww_simulate_refuses_a_perturbed_weight(monkeypatch, root):
    """One weight 1e-5 off, at either end of the comb, next to it or in
    it (root 1200 of 3122, at lam = -9), fails the run."""
    def change(w, lam):
        w[root] += 1e-5

    perturb_comb_eigen(monkeypatch, change)
    with pytest.raises(gc.AccuracyError, match="defect"):
        toy_run()


def test_ww_simulate_names_the_check_that_missed(monkeypatch):
    """The weight of the root at lam = -20 1e-6 up, with every weight
    rescaled to the sum rule: the sum rule and unitarity pass (the latter
    off by ~1e-7), both moments miss (by ~1e-5) and the error names them
    alone."""
    def change(w, lam):
        w[np.argmin(np.abs(lam + 20.0))] += 1e-6
        w /= math.fsum(w)

    perturb_comb_eigen(monkeypatch, change)
    with pytest.raises(gc.AccuracyError) as caught:
        toy_run()
    names = [part.split(" defect ")[0] for part in
             str(caught.value).split("; ")]
    assert names == ["first moment sum(w lam) = 0",
                     "second moment sum(w lam^2) = sum(g^2)"]


def test_ww_simulate_checks_the_trajectory_at_zero(monkeypatch):
    """The trajectory's own alpha(0), which the recorded |alpha|^2 replaces
    by 1, is held against sum(w): an error of 1e-5 there fails the run and
    only that check is named."""
    trajectory = gc.numerics._alpha_trajectory

    def patched(*args):
        alpha = trajectory(*args)
        alpha[0] += 1e-5
        return alpha

    monkeypatch.setattr(gc.numerics, "_alpha_trajectory", patched)
    with pytest.raises(gc.AccuracyError,
                       match=r"^trajectory alpha\(0\) = sum\(w\) defect "
                             r"1\.000e-05 exceeds 1e-06$") as caught:
        toy_run()
    assert caught.value.estimate == pytest.approx(1e-5, rel=1e-6)
    assert caught.value.bound == 1e-6


def test_ww_simulate_is_deterministic():
    a, b = toy_run(coupling="tilted"), toy_run(coupling="tilted")
    assert np.array_equal(a.alpha_sq, b.alpha_sq)
    assert np.array_equal(a.beta_sq_final, b.beta_sq_final)


def test_ww_simulate_validation():
    grid = gc.ModeGrid.for_line(0.3, 100.0)
    with pytest.raises(gc.ConfigurationError):
        gc.ww_simulate(0.3, 100.0, grid, 0.0)
    with pytest.raises(gc.ConfigurationError):
        gc.ww_simulate(0.3, -1.0, grid, 1.0)
    with pytest.raises(gc.HorizonError):
        gc.ww_simulate(-1.2, 100.0, grid, 1.0)
    with pytest.raises(gc.ConfigurationError):
        gc.ww_simulate(0.3, 100.0, grid, 1.0, coupling="bent")
    with pytest.raises(gc.ConfigurationError, match="margin"):
        gc.ww_simulate(0.0, 100.0, grid, 1.0)  # line far from the window


@pytest.mark.parametrize("call, name", [
    (lambda g: gc.ww_simulate(0.3, 100.0, g, math.nan), "s_max"),
    (lambda g: gc.ww_simulate(0.3, 100.0, g, math.inf), "s_max"),
    (lambda g: gc.ww_simulate(0.3, math.nan, g, 1.0), "r"),
    (lambda g: gc.ww_simulate(0.3, math.inf, g, 1.0), "r"),
    (lambda g: gc.ww_simulate(math.nan, 100.0, g, 1.0), "zeta"),
    (lambda g: gc.ModeGrid.for_line(0.3, 100.0, dnu=0.0), "dnu"),
    (lambda g: gc.ModeGrid.for_line(0.3, 100.0, dnu=math.nan), "dnu"),
    (lambda g: gc.ModeGrid.for_line(0.3, 100.0, dnu=-0.01), "dnu"),
    (lambda g: gc.ModeGrid.for_line(0.3, 100.0, halfwidth_linewidths=0.0),
     "halfwidth_linewidths"),
    (lambda g: gc.ModeGrid.for_line(0.3, 100.0, halfwidth_linewidths=math.inf),
     "halfwidth_linewidths"),
    (lambda g: gc.ModeGrid.for_line(0.3, math.nan), "r"),
    (lambda g: gc.ModeGrid.for_line(0.3, -100.0), "r"),
    (lambda g: gc.ModeGrid.for_line(math.nan, 100.0), "zeta"),
], ids=["ww_s_max_nan", "ww_s_max_inf", "ww_r_nan", "ww_r_inf", "ww_zeta_nan",
        "grid_dnu_zero", "grid_dnu_nan", "grid_dnu_negative",
        "grid_halfwidth_zero", "grid_halfwidth_inf", "grid_r_nan",
        "grid_r_negative", "grid_zeta_nan"])
def test_oracle_entry_points_refuse_bad_numbers(call, name):
    """Non-finite or non-positive scalars are refused with a
    ConfigurationError naming the argument, not a raw Python error."""
    grid = gc.ModeGrid.for_line(0.3, 100.0)
    with pytest.raises(gc.ConfigurationError, match=f"^{name} must be"):
        call(grid)


def test_mode_doubling_leaves_rate_unchanged():
    """Halving dnu at fixed window must not move the fitted rate."""
    zeta, r = 0.3, 100.0
    base = toy_run(zeta, r, 6.0)
    fine_grid = gc.ModeGrid.for_line(zeta, r, dnu=0.0125)
    fine = gc.ww_simulate(zeta, r, fine_grid, 6.0)
    assert fine.fitted_rate == pytest.approx(base.fitted_rate, rel=5e-3)


# ---------------------------------------------------------------------------
# oracle spectrum and the single-pole report
# ---------------------------------------------------------------------------


def test_oracle_spectrum_toy_line():
    run = toy_run()  # 8 lifetimes at zeta=0.3: ripple ~ 2e^{-5.2}
    res = gc.oracle_spectrum(run)
    assert res.total_mass > 0.99
    assert not res.low_mass
    u, gam = 30.0, 1.3
    assert gc.line_peak(res.nu_grid, res.p_values) == pytest.approx(
        u, abs=run.grid.dnu)
    assert gc.line_fwhm(res.nu_grid, res.p_values) == pytest.approx(
        gam, rel=0.05)


def test_oracle_spectrum_needs_five_lifetimes():
    run = toy_run(s_max=3.0)
    with pytest.raises(gc.AccuracyError, match="lifetimes") as caught:
        gc.oracle_spectrum(run)
    assert caught.value.estimate == run.times[-1] * (1.0 + run.zeta)
    assert caught.value.bound == 5.0


def test_line_peak_parabolic_refinement():
    u = 0.013  # falls between nodes of the coarse grid
    nu = np.linspace(-10.0, 10.0, 41)
    p = lorentzian_line(nu, 0.0, 1.0) * 0.0 + 1.0 / (
        0.25 + (nu - u) ** 2)
    assert gc.line_peak(nu, p) == pytest.approx(u, abs=0.01)


def test_line_peak_at_grid_edge():
    nu = np.linspace(0.0, 1.0, 11)
    p = np.linspace(0.0, 1.0, 11)  # monotone: max at the edge
    assert gc.line_peak(nu, p) == 1.0


def test_line_fwhm_guards():
    nu = np.linspace(-1.0, 1.0, 21)
    spike = np.zeros(21)
    spike[10] = 1.0
    with pytest.raises(gc.AccuracyError):
        gc.line_fwhm(nu, spike)
    # whole window above half max: crossings outside the grid
    wide = 1.0 / (1.0 + 0.1 * nu**2)
    with pytest.raises(gc.AccuracyError):
        gc.line_fwhm(nu, wide)


def synthetic_run(s_end: float, n_modes: int = 4001) -> gc.OracleRun:
    grid = gc.ModeGrid(nu_min=-100.0, nu_max=100.0, n_modes=n_modes)
    times = np.linspace(0.0, s_end, 301)
    return gc.OracleRun(zeta=0.0, r=1e3, grid=grid, coupling="flat",
                        times=times, alpha_sq=np.exp(-times),
                        beta_sq_final=np.zeros(n_modes), fitted_rate=1.0,
                        fit_residual=0.0, max_unitarity_defect=0.0)


def test_single_pole_deviation_on_synthetic_run():
    deviation, s_cap, truncated = synthetic_run(5.0).single_pole_deviation()
    assert deviation < 1e-12
    assert not truncated
    assert s_cap == pytest.approx(5.0)


def test_single_pole_deviation_truncates_at_recurrence():
    # dnu = 0.05 -> recurrence 125.7; 0.8 of it cuts a 110-long run short
    grid = gc.ModeGrid(nu_min=-100.0, nu_max=100.0, n_modes=4001)
    times = np.linspace(0.0, 110.0, 2201)
    run = gc.OracleRun(zeta=0.0, r=1e3, grid=grid, coupling="flat",
                       times=times, alpha_sq=np.exp(-times),
                       beta_sq_final=np.zeros(4001), fitted_rate=1.0,
                       fit_residual=0.0, max_unitarity_defect=0.0)
    _, s_cap, truncated = run.single_pole_deviation()
    assert truncated
    assert s_cap == pytest.approx(0.8 * grid.recurrence_s)


def test_single_pole_deviation_refuses_nonpositive_horizon():
    with pytest.raises(gc.ConfigurationError):
        synthetic_run(5.0).single_pole_deviation(0.0)
