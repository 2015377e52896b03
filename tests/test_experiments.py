from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import gravclock as gc
from conftest import UNIT_SCALES, random_specs
from gravclock.experiments import _ridge_theta, figure1_grid


# ---------------------------------------------------------------------------
# sweep grids
# ---------------------------------------------------------------------------


def test_gammaq_closed_grid_matches_scalar_op():
    for spec in random_specs(25):
        dz = spec.z2 - spec.z1
        grid_val = float(gc.gammaq_closed_grid(spec.theta, spec.phi, dz,
                                               spec.delta))
        assert grid_val == pytest.approx(
            gc.quantum_correction(spec, UNIT_SCALES), rel=1e-14)


def test_gammaq_closed_grid_degenerate_corner_is_zero():
    """Zero-norm corner (full destructive overlap) reports 0, not 0/0."""
    val = gc.gammaq_closed_grid(math.pi / 4, math.pi, 0.0, 0.01)
    assert float(val) == 0.0
    assert np.all(np.isfinite(
        gc.gammaq_closed_grid(np.linspace(0, math.pi / 2, 64), math.pi,
                              0.0, 0.01)))


@pytest.mark.parametrize("width", [1e200, 1e-200])
def test_gammaq_closed_grid_scales_with_any_finite_width(width):
    """The excess is the width times its unit-width value, with no
    overflow or underflow on the way, at widths whose square leaves float
    range."""
    unit = float(gc.gammaq_closed_grid(0.7, math.pi, 0.05, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = float(gc.gammaq_closed_grid(0.7, math.pi, 0.05 * width, width))
    assert got == pytest.approx(width * unit, rel=1e-15)
    assert unit != 0.0


def test_gammaq_closed_grid_swap_symmetry():
    """Relabeling packets: (theta, dz) -> (pi/2 - theta, -dz) is the same
    physical state, so the excess is identical."""
    theta = np.linspace(0.05, math.pi / 2 - 0.05, 21)
    dz = np.linspace(-0.04, 0.04, 21)
    th, dzz = np.meshgrid(theta, dz)
    direct = gc.gammaq_closed_grid(th, 1.0, dzz, 0.01)
    swapped = gc.gammaq_closed_grid(math.pi / 2 - th, 1.0, -dzz, 0.01)
    # atol floor: trig rounding of cos(pi - 2 theta) near the theta = pi/4
    # zero line, ~1e-18 against values of order 1e-3
    assert np.allclose(direct, swapped, rtol=1e-12, atol=1e-15)


def test_sweep_spec_validation():
    with pytest.raises(gc.ConfigurationError):
        gc.SweepSpec(delta_zeta=0.0, theta_values=(0.1,), phi_values=(0.0,),
                     dz_values=(0.01,))
    with pytest.raises(gc.ConfigurationError):
        gc.SweepSpec(delta_zeta=0.01, theta_values=(), phi_values=(0.0,),
                     dz_values=(0.01,))
    spec = gc.SweepSpec(delta_zeta=0.01, theta_values=(0.1, 0.2),
                        phi_values=(0.0,), dz_values=(0.01, 0.02, 0.03))
    assert figure1_grid(spec)[-1].size == 6


def test_figure1_grid_axes_and_values_agree():
    spec = gc.SweepSpec(delta_zeta=0.01,
                        theta_values=tuple(np.linspace(0.0, math.pi / 2, 9)),
                        phi_values=(0.0, 2.2),
                        dz_values=tuple(np.linspace(0.0, 0.05, 7)))
    theta, phi, dz, gammaq = figure1_grid(spec)
    assert gammaq.shape == (9, 2, 7)
    # first axis is theta, last is dz (C order)
    assert theta[:, 0, 0].tolist() == list(spec.theta_values)
    assert phi[0, :, 0].tolist() == list(spec.phi_values)
    assert dz[0, 0, 0] == 0.0 and dz[0, 0, 1] == pytest.approx(0.05 / 6)
    # the values are the closed-form kernel on the flattened mesh, bit for
    # bit, on every default panel
    panels = gc.figure1_default_panels()
    for spec in panels.values():
        rows = np.broadcast_arrays(*figure1_grid(spec))
        assert np.array_equal(rows[3].ravel(), gc.gammaq_closed_grid(
            rows[0].ravel(), rows[1].ravel(), rows[2].ravel(),
            spec.delta_zeta))
    # including the zero-norm corner of panel c: theta = pi/4, phi = pi, dz = 0
    rows = [c.ravel() for c in np.broadcast_arrays(*figure1_grid(panels["c"]))]
    corner = [c[100 * 201] for c in rows]
    assert corner[:3] == pytest.approx([math.pi / 4, math.pi, 0.0],
                                      rel=1e-6, abs=0.0)
    assert corner[3] == 0.0


def test_figure1_default_panels_layout():
    panels = gc.figure1_default_panels(n_grid=41)
    assert set(panels) == {"a", "b", "c"}
    assert panels["a"].theta_values == (math.pi / 8,)
    assert panels["b"].phi_values == (0.0,)
    assert panels["c"].phi_values == (math.pi,)
    for spec in panels.values():
        assert spec.dz_values[-1] == pytest.approx(0.05)
        assert figure1_grid(spec)[-1].size == 41 * 41


# ---------------------------------------------------------------------------
# emission-line cases
# ---------------------------------------------------------------------------


def test_line_case_validation():
    with pytest.raises(gc.ConfigurationError):
        gc.LineCase(zeta1=0.0, zeta2=1e-17, delta_zeta=0.0, r=1.5e17)
    with pytest.raises(gc.ConfigurationError):
        gc.LineCase(zeta1=0.0, zeta2=1e-17, delta_zeta=1e-18, r=0.0)
    with pytest.raises(gc.ConfigurationError):
        gc.LineCase(zeta1=0.0, zeta2=1e-17, delta_zeta=1e-18, r=1.5e17,
                    nu_min=2.0, nu_max=-2.0)
    case = gc.LineCase(zeta1=-1e-17, zeta2=1e-17, delta_zeta=5e-18, r=1.5e17,
                       n_points=11)
    assert len(case.nu_grid) == 11
    assert case.nu_grid[0] == -5.0


def test_figure2_default_cases_geometry():
    cases = gc.figure2_default_cases(n_points=101)
    assert set(cases) == {"a", "b", "c", "d"}
    for name, case in cases.items():
        assert case.r == 1.5e17
        assert case.zeta1 == -case.zeta2
        sep = case.zeta2 - case.zeta1
        if name == "d":
            assert case.delta_zeta == pytest.approx(sep / 4.0, rel=1e-6,
                                                     abs=0.0)
        else:
            assert case.delta_zeta == pytest.approx(sep / 2.0, rel=1e-6,
                                                     abs=0.0)
    assert cases["c"].zeta2 == cases["d"].zeta2 == 1e-17
    assert cases["a"].zeta2 < cases["b"].zeta2 < cases["c"].zeta2


def test_figure2_lines_balanced_case_is_symmetric():
    case = gc.LineCase(zeta1=-2e-18, zeta2=2e-18, delta_zeta=1e-18,
                       r=1.5e17, n_points=801)
    sup, mix = gc.figure2_lines(case)
    for res in (sup, mix):
        assert np.allclose(res.p_values, res.p_values[::-1], rtol=1e-10,
                           atol=1e-12)
    # coherence changes the line: the two curves must not coincide
    assert np.max(np.abs(sup.p_values - mix.p_values)) > 1e-3
    assert sup.total_mass > 0.9 and mix.total_mass > 0.9


# ---------------------------------------------------------------------------
# optimal-state scan
# ---------------------------------------------------------------------------


def test_optimal_state_scan_output():
    res = gc.optimal_state_scan(0.01)
    assert set(res) == {"max_gammaQ", "sup_gammaQ", "theta_star", "phi_star",
                        "dz_star", "ratio_to_quarter_delta", "sep_ratio_star",
                        "delta_zeta"}
    assert res["sup_gammaQ"] == 0.01 / math.sqrt(2.0)
    assert res["max_gammaQ"] < res["sup_gammaQ"]
    assert res["phi_star"] == pytest.approx(math.pi, abs=1e-3)
    assert res["sep_ratio_star"] < 0.5  # nearly overlapping packets
    assert res["max_gammaQ"] > 0.0
    assert res["ratio_to_quarter_delta"] == pytest.approx(
        res["max_gammaQ"] / (0.25 * 0.01), rel=1e-12)
    # the reported optimum is an actual value of the closed form
    direct = abs(float(gc.gammaq_closed_grid(
        res["theta_star"], res["phi_star"], res["dz_star"], 0.01)))
    assert direct == pytest.approx(res["max_gammaQ"], rel=1e-12)


def test_optimal_state_scan_deterministic():
    assert gc.optimal_state_scan(0.01) == gc.optimal_state_scan(0.01)


def test_optimal_state_scan_proportional_to_width():
    a = gc.optimal_state_scan(0.005)
    b = gc.optimal_state_scan(0.02)
    assert a["max_gammaQ"] / 0.005 == pytest.approx(
        b["max_gammaQ"] / 0.02, rel=1e-12)


def test_optimal_state_scan_validation():
    with pytest.raises(gc.ConfigurationError):
        gc.optimal_state_scan(0.0)
    with pytest.raises(gc.ConfigurationError, match="delta_zeta"):
        gc.optimal_state_scan(math.inf)


def test_optimal_state_scan_reports_the_stated_ridge_point():
    """rho* is where the ridge falls 1e-3 short of the supremum.  The value
    at the reported (theta*, rho*) matches 40-digit mpmath there to the
    closed form's rounding, which grows like 1/B (B = 1.33e-3)."""
    res = gc.optimal_state_scan(0.01)
    assert res["phi_star"] == math.pi
    rho = mpmath.mpf(res["sep_ratio_star"])
    two_theta = 2 * mpmath.mpf(res["theta_star"])
    with mpmath.workdps(40):
        shortfall = 1 - mpmath.sqrt(2) * _ridge_mp(rho)[1]
        se = mpmath.sin(two_theta) * mpmath.exp(-rho**2 / 4)
        exact = float(rho / 2 * mpmath.cos(two_theta) * se / (1 - se))
    assert float(shortfall) == pytest.approx(1e-3, rel=1e-14)
    assert res["max_gammaQ"] / 0.01 == pytest.approx(exact, rel=1e-13)
    assert res["max_gammaQ"] / 0.01 > 0.7050523  # the old grid search's value


# ---------------------------------------------------------------------------
# the supremum of the rate excess and the ridge toward it
# ---------------------------------------------------------------------------


def _ridge_mp(rho):
    """(s, |gammaQ|/delta_zeta) on the ridge at phi = pi, in mpmath at the
    working precision."""
    rho = mpmath.mpf(rho)
    e = mpmath.exp(-rho**2 / 4)
    s = mpmath.findroot(lambda v: e * v**3 - 2 * v**2 + 1, 1 - rho**2 / 4)
    return s, rho / 2 * mpmath.sqrt(1 - s**2) * s * e / (1 - s * e)


def test_ridge_against_mpmath():
    """The ridge cubic's root and the closed form on it, against 40-digit
    mpmath; the value rises toward 1/sqrt(2) as rho falls, with a relative
    shortfall -> 3 rho^2 / 8."""
    values = []
    for rho in (1.0, 0.3, 0.1, 0.01, 1e-3):
        with mpmath.workdps(40):
            s_exact, v_exact = _ridge_mp(rho)
            theta_exact = mpmath.asin(s_exact) / 2
        theta = _ridge_theta(rho)
        assert theta == pytest.approx(float(theta_exact), rel=5e-16, abs=0.0)
        v = abs(float(gc.gammaq_closed_grid(theta, math.pi, rho, 1.0)))
        # rounding of B = 1 - s E ~ rho^2 / 2 costs up to ~eps / B
        assert v == pytest.approx(float(v_exact), rel=1e-15 / rho**2)
        values.append(v)
        shortfall = 1.0 - math.sqrt(2.0) * v
        if rho <= 0.1:
            assert shortfall == pytest.approx(3.0 * rho**2 / 8.0, rel=1e-2)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0 / math.sqrt(2.0)


@given(rho=st.floats(1e-4, 10.0), theta=st.floats(0.0, math.pi / 2),
       phi=st.floats(0.0, 2.0 * math.pi), delta_zeta=st.floats(1e-6, 1e3),
       near_ridge=st.booleans(), d_theta=st.floats(-1.0, 1.0),
       d_phi=st.floats(-1e-3, 1e-3))
def test_rate_excess_never_exceeds_the_supremum(rho, theta, phi, delta_zeta,
                                                near_ridge, d_theta, d_phi):
    """|gammaQ| <= delta_zeta/sqrt(2) over all states.  Near-ridge draws put
    theta within ~rho^2 of the ridge and phi near pi.  The allowance is the
    closed form's rounding near the zero-norm corner: at most 0.69 eps/rho^2
    measured over 2e6 near-ridge draws with rho in [1e-4, 3e-3]."""
    if near_ridge:
        theta = _ridge_theta(rho) + d_theta * min(rho * rho, 0.1)
        phi = math.pi + d_phi
    value = abs(float(gc.gammaq_closed_grid(theta, phi, rho * delta_zeta,
                                            delta_zeta)))
    allowance = 4e-16 / rho**2
    assert value <= delta_zeta / math.sqrt(2.0) * (1.0 + allowance)


# ---------------------------------------------------------------------------
# coherence-term magnitudes
# ---------------------------------------------------------------------------


def test_term_magnitude_report_reference_point():
    rep = gc.term_magnitude_report()
    assert rep["term1"] == pytest.approx(1.4732e-27, rel=1e-3, abs=0.0)
    assert rep["term2"] == pytest.approx(1e-18, rel=1e-12, abs=0.0)
    assert rep["term3"] == pytest.approx(2.5111e-29, rel=1e-3, abs=0.0)
    # reference geometry: separation equals the packet spread, ~9.2 mm
    assert rep["separation_m"] == rep["sigma_z_m"]
    assert rep["sigma_z_m"] == pytest.approx(9.165e-3, rel=1e-3)
    assert rep["mass_kg"] == 1e-27
    assert rep["t_s"] == 1e-8
    assert rep["p_bar"] == 0.0


def test_term_magnitude_report_refuses_a_c_whose_square_overflows():
    with pytest.raises(gc.ConfigurationError,
                       match=r"^c = 1e\+200 overflows when squared$"):
        gc.term_magnitude_report(c=1e200)
    rep = gc.term_magnitude_report(g=1.0, c=1e154)
    assert rep["sigma_z_m"] == 1e-18 * 1e154**2
