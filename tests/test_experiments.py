from __future__ import annotations

import math

import numpy as np
import pytest

import gravclock as gc
from conftest import UNIT_SCALES, random_specs


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
    assert len(gc.figure1_sweep(spec)) == 6


def test_figure1_sweep_rows_and_methods_agree():
    spec = gc.SweepSpec(delta_zeta=0.01,
                        theta_values=tuple(np.linspace(0.0, math.pi / 2, 9)),
                        phi_values=(0.0, 2.2),
                        dz_values=tuple(np.linspace(0.0, 0.05, 7)))
    rows = gc.figure1_sweep(spec)
    assert rows.shape == (9 * 2 * 7, 4)
    # first axis is theta, last is dz (C order)
    assert rows[0, 0] == rows[1, 0] == 0.0
    assert rows[0, 2] == 0.0 and rows[1, 2] == pytest.approx(0.05 / 6)
    # column 3 is the closed-form kernel, bit for bit, on every default panel
    panels = gc.figure1_default_panels()
    for spec in panels.values():
        rows = gc.figure1_sweep(spec)
        assert np.array_equal(rows[:, 3], gc.gammaq_closed_grid(
            rows[:, 0], rows[:, 1], rows[:, 2], spec.delta_zeta))
    # including the zero-norm corner of panel c: theta = pi/4, phi = pi, dz = 0
    rows = gc.figure1_sweep(panels["c"])
    corner = rows[100 * 201]
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
        assert len(gc.figure1_sweep(spec)) == 41 * 41


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
    assert set(res) == {"max_gammaQ", "theta_star", "phi_star", "dz_star",
                        "ratio_to_quarter_delta", "sep_ratio_star",
                        "delta_zeta"}
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
