from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import quad

import gravclock as gc
from gravclock.cli import _EARTH
from gravclock.model import _interference, _zeta_packets
from conftest import UNIT_SCALES, random_specs, relabelled


def make_spec(z1=0.0, z2=2.0, delta=1.0, theta=math.pi / 4, phi=0.0):
    return gc.SuperpositionSpec(z1=z1, z2=z2, delta=delta, theta=theta,
                                phi=phi)


def make_zeta_spec(z1=0.0, z2=2.0, delta=1.0, theta=math.pi / 4, phi=0.0):
    """:func:`make_spec` with heights and spread scaled by 0.01, so that a
    density's support (12 spreads past the packets) stays above zeta = -0.5;
    the shape depends only on the ratios, which are unchanged."""
    return make_spec(0.01 * z1, 0.01 * z2, 0.01 * delta, theta, phi)


# ---------------------------------------------------------------------------
# physical parameters and scales
# ---------------------------------------------------------------------------


def test_gamma0_from_dipole_formula():
    got = gc.gamma0_from_dipole(1e-30, 5e15)
    want = 5e15 * (1e-30) ** 2 / (2.0 * gc.HBAR * gc.C_LIGHT * gc.EPS0)
    assert got == pytest.approx(want, rel=1e-15)
    assert gc.gamma0_from_dipole(0.0, 5e15) == 0.0
    # past float range: the square, then a denominator that underflows
    assert gc.gamma0_from_dipole(1e200, 5e15) == math.inf
    assert gc.gamma0_from_dipole(1e-30, 5e15, c=1e-300) == math.inf
    assert gc.gamma0_from_dipole(0.0, 5e15, c=1e-300) == 0.0


def test_scales_conversions():
    sc = gc.DimensionlessScales(g=9.80665, c=gc.C_LIGHT, omega=7.045e15,
                                gamma0=7.045e15 / 1.5e17)
    # one meter of height on Earth
    assert sc.zeta(1.0) == pytest.approx(9.80665 / gc.C_LIGHT**2, rel=1e-15,
                                        abs=0.0)
    assert sc.height_m(sc.zeta(123.0)) == pytest.approx(123.0, rel=1e-12)
    assert sc.r == pytest.approx(1.5e17, rel=1e-12)


def test_scales_reject_nonpositive():
    with pytest.raises(gc.ConfigurationError):
        gc.DimensionlessScales(g=0.0, c=1.0, omega=2.0, gamma0=1.0)


def test_scales_reject_c_whose_square_overflows():
    """zeta and height_m divide and multiply by c**2."""
    with pytest.raises(gc.ConfigurationError, match="overflows"):
        gc.DimensionlessScales(g=1.0, c=1e155, omega=2.0, gamma0=1.0)


# ---------------------------------------------------------------------------
# two-packet states
# ---------------------------------------------------------------------------


def test_norm_constant_closed_form():
    """Unit packets two widths apart, equal weights, no phase."""
    spec = make_spec()
    a, b = _interference(spec.theta, spec.phi, spec.z2 - spec.z1, spec.delta)
    assert a == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert b == spec.norm_bracket == pytest.approx(1.0 + math.exp(-1.0),
                                                   rel=1e-15)


@pytest.mark.parametrize("z2,delta", [(1e200, 1.0), (0.0, 1e-200)])
def test_spec_squares_out_of_float_range_rejected(z2, delta):
    """A separation whose square overflows, or a spread whose square
    underflows, leaves no overlap to compute."""
    with pytest.raises(gc.ConfigurationError, match="float range"):
        make_spec(z2=z2, delta=delta)


def test_density_sup_unit_mass_adaptive():
    spec = make_zeta_spec(theta=math.pi / 3, phi=1.0)
    dens = gc.HeightDensity.superposition(spec, UNIT_SCALES)
    mass, err = quad(dens, -0.3, 0.3, points=[spec.z1, spec.z2], limit=200)
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_density_mix_unit_mass_adaptive():
    spec = make_zeta_spec(theta=0.9).mixture()
    dens = gc.HeightDensity.mixture(spec, UNIT_SCALES)
    mass, err = quad(dens, -0.3, 0.3, points=[spec.z1, spec.z2], limit=200)
    assert mass == pytest.approx(1.0, abs=1e-12)


def panel_mass(dens):
    """Mass of a density by the panel engine on its support panels."""
    return dens._integral(lambda z: np.ones(z.shape + (1,)))[0]


def test_density_normalization_on_support_panels():
    """Unit mass to 1e-12 under the panel engine."""
    for spec in random_specs(20):
        for dens in (gc.HeightDensity.superposition(spec, UNIT_SCALES),
                     gc.HeightDensity.mixture(spec.mixture(), UNIT_SCALES)):
            assert panel_mass(dens) == pytest.approx(1.0, abs=1e-12)


def test_phi_half_pi_superposition_equals_mixture():
    """cos(phi) = 0 kills the interference term entirely."""
    spec = make_zeta_spec(z1=-0.3, z2=1.1, delta=0.7, theta=0.6,
                          phi=math.pi / 2)
    z = np.linspace(-0.04, 0.05, 801)
    sup = gc.HeightDensity.superposition(spec, UNIT_SCALES)(z)
    mix = gc.HeightDensity.mixture(spec.mixture(), UNIT_SCALES)(z)
    assert np.allclose(sup, mix, rtol=1e-14, atol=1e-300)


def test_density_swap_invariance():
    spec = make_zeta_spec(z1=-1.0, z2=0.5, delta=0.8, theta=0.5, phi=2.0)
    z = np.linspace(-0.05, 0.04, 501)
    assert np.allclose(gc.HeightDensity.superposition(spec, UNIT_SCALES)(z),
                       gc.HeightDensity.superposition(relabelled(spec),
                                                      UNIT_SCALES)(z),
                       rtol=1e-13)


def test_density_nonnegative_under_destructive_phase():
    # phi = pi digs the deepest interference trough between the packets
    spec = make_zeta_spec(z2=1.2, theta=math.pi / 4, phi=math.pi)
    z = np.linspace(-0.06, 0.07, 2001)
    assert np.all(gc.HeightDensity.superposition(spec, UNIT_SCALES)(z) >= 0.0)


def test_spec_validation():
    with pytest.raises(gc.ConfigurationError):
        make_spec(theta=-0.1)
    with pytest.raises(gc.ConfigurationError):
        make_spec(theta=math.pi / 2 + 1e-9)
    with pytest.raises(gc.ConfigurationError):
        make_spec(phi=-0.5)
    with pytest.raises(gc.ConfigurationError):
        make_spec(phi=2.0 * math.pi)
    with pytest.raises(gc.ConfigurationError):
        make_spec(delta=0.0)
    with pytest.raises(gc.ConfigurationError):
        make_spec(z1=math.inf)
    with pytest.raises(gc.ConfigurationError):
        gc.MixtureSpec(z1=0.0, z2=1.0, delta=-1.0, theta=0.3)


def test_zero_norm_state_rejected():
    # fully destructive: overlapping packets, equal weights, phi = pi
    with pytest.raises(gc.ConfigurationError, match="norm vanishes"):
        make_spec(z2=0.0, theta=math.pi / 4, phi=math.pi)


# the state at Earth scale (zeta ~ 1e-18) and at desk scale (zeta ~ 1e-3),
# drawn in zeta units: (zeta1, width, dz / width)
EARTH_PACKETS = (st.floats(-1e-17, 1e-17), st.floats(1e-19, 1e-17),
                 st.floats(0.05, 5.0))
DESK_PACKETS = (st.floats(-0.01, 0.01), st.floats(1e-4, 1e-2),
                st.floats(0.05, 5.0))
ANGLES = (st.floats(0.0, math.pi / 2), st.floats(0.0, 2.0 * math.pi,
                                                 exclude_max=True),
          st.sampled_from((-1.0, 1.0)))


@pytest.mark.parametrize("packets", [EARTH_PACKETS, DESK_PACKETS],
                         ids=["earth", "desk"])
def test_density_and_rate_excess_read_one_interference_term(packets):
    """The superposition density's weights and both routes of the rate
    excess are the kernel's A and B at the spec's separation and width in
    zeta units, bit for bit."""
    scales = _EARTH

    @given(*packets, *ANGLES)
    def check(zeta1, width, ratio, theta, phi, sign):
        zetas = (zeta1, zeta1 + sign * ratio * width, width)
        try:
            spec = gc.SuperpositionSpec(
                *(float(scales.height_m(z)) for z in zetas), theta, phi)
        except gc.ConfigurationError:
            assume(False)
        z1, z2, dz, width = _zeta_packets(spec, scales)
        a, b = _interference(theta, phi, dz, width)
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        dens = gc.HeightDensity.superposition(spec, scales)
        assert dens.weights == (c2 / b, s2 / b, a / b)
        assert gc.quantum_correction(spec, scales) == float(
            0.5 * np.asarray(dz) * np.cos(2.0 * np.asarray(theta)) * a / b)
        assert gc.quantum_correction(spec, scales, method="quadrature") \
            == a / b * (0.5 * (z1 + z2) - c2 * z1 - s2 * z2)

    check()


# ---------------------------------------------------------------------------
# height densities
# ---------------------------------------------------------------------------


def test_height_density_superposition_components():
    spec = make_spec(z1=0.0, z2=0.02, delta=0.01, theta=math.pi / 8)
    dens = gc.HeightDensity.superposition(spec, UNIT_SCALES)
    assert dens.is_analytic
    assert dens.centers == (0.0, 0.02, 0.01)
    assert sum(dens.weights) == pytest.approx(1.0, abs=1e-15)
    a, b = _interference(spec.theta, spec.phi, 0.02, 0.01)
    assert dens.weights[2] == pytest.approx(a / b, rel=1e-15)
    lo, hi = dens.support
    assert lo == pytest.approx(0.0 - 12.0 * 0.01)
    assert hi == pytest.approx(0.02 + 12.0 * 0.01)


def test_height_density_matches_pointwise_density():
    spec = make_spec(z1=0.0, z2=0.03, delta=0.008, theta=0.7, phi=2.5)
    dens = gc.HeightDensity.superposition(spec, UNIT_SCALES)
    z = np.linspace(-0.05, 0.08, 301)
    # textbook |psi|^2 of cos(theta)|z1> + e^{i phi} sin(theta)|z2>, with
    # normalized Gaussian packets exp(-(z - z_k)^2 / 2 delta^2)
    d = spec.delta
    g1 = np.exp(-(z - spec.z1) ** 2 / (2.0 * d**2))
    g2 = np.exp(-(z - spec.z2) ** 2 / (2.0 * d**2))
    psi = math.cos(spec.theta) * g1 \
        + np.exp(1j * spec.phi) * math.sin(spec.theta) * g2
    norm = math.sqrt(math.pi) * d * (
        1.0 + math.cos(spec.phi) * math.sin(2.0 * spec.theta)
        * math.exp(-(spec.z2 - spec.z1) ** 2 / (4.0 * d**2)))
    assert np.allclose(dens(z), np.abs(psi) ** 2 / norm, rtol=1e-12)
    mix = gc.HeightDensity.mixture(spec.mixture(), UNIT_SCALES)
    want = (math.cos(spec.theta) ** 2 * g1**2
            + math.sin(spec.theta) ** 2 * g2**2) / (math.sqrt(math.pi) * d)
    assert np.allclose(mix(z), want, rtol=1e-12)


def test_height_density_mean():
    dens = gc.HeightDensity.mixture_zeta(-0.002, 0.002, 0.001, math.pi / 4)
    assert dens.mean() == pytest.approx(0.0, abs=1e-18)
    dens = gc.HeightDensity.mixture_zeta(0.0, 0.01, 0.001, math.pi / 3)
    assert dens.mean() == pytest.approx(0.01 * math.sin(math.pi / 3) ** 2,
                                        rel=1e-14)


def test_support_crossing_minus_half_rejected():
    """States reaching zeta <= -0.5 are outside the model's domain."""
    with pytest.raises(gc.HorizonError):
        gc.HeightDensity.superposition_zeta(-0.5, 0.5, 0.004, math.pi / 4,
                                            0.0)
    # comfortably above the cutoff is fine
    gc.HeightDensity.superposition_zeta(-0.45, 0.45, 0.004, math.pi / 4, 0.0)


def test_height_density_weight_sum_enforced():
    with pytest.raises(gc.ConfigurationError):
        gc.HeightDensity(support=(-0.2, 1.0), width=0.1, centers=(0.0, 0.5),
                         weights=(0.6, 0.6))


@pytest.mark.parametrize("params", [
    {"width": math.nan, "centers": (0.0,), "weights": (1.0,)},
    {"width": math.inf, "centers": (0.0,), "weights": (1.0,)},
    {"width": 0.0, "centers": (0.0,), "weights": (1.0,)},
    {"width": 0.01, "centers": (math.nan,), "weights": (1.0,)},
    {"width": 0.01, "centers": (0.0, 0.02), "weights": (math.nan, 1.0)},
], ids=["width-nan", "width-inf", "width-zero", "center-nan", "weight-nan"])
def test_height_density_refuses_non_finite_components(params):
    """NaN fails every comparison, so the width > 0 and weight-sum checks
    alone would pass it: a NaN width built a density whose total_rate was
    1.0 and whose rho(0) was nan."""
    with pytest.raises(gc.ConfigurationError, match="finite"):
        gc.HeightDensity(support=(-0.1, 0.1), **params)


def test_height_density_takes_a_pdf_or_components():
    def flat(z):
        return np.full(np.shape(z), 5.0)

    gc.HeightDensity(support=(-0.1, 0.1), pdf=flat)
    with pytest.raises(gc.ConfigurationError, match="not both"):
        gc.HeightDensity(support=(-0.1, 0.1), width=0.01, centers=(0.0,),
                         weights=(1.0,), pdf=flat)
    with pytest.raises(gc.ConfigurationError, match="needs a pdf"):
        gc.HeightDensity(support=(-0.1, 0.1))


@pytest.mark.parametrize("pdf", [
    lambda z: np.full((np.size(z), 1), 100.0),
    lambda z: np.full(np.size(z) - 1, 100.0),
    lambda z: 100.0,
], ids=["column", "short", "scalar"])
def test_from_callable_refuses_a_pdf_of_the_wrong_shape(pdf):
    """Each of these is 100 on the scan grid of (0, 0.01), a unit mass, but
    not of the grid's shape: refused when built, naming both shapes, not
    with a numpy error from the first quadrature (or, for the scalar, not
    at all)."""
    with pytest.raises(gc.ConfigurationError,
                       match=r"returns shape \(.*\) for heights of shape "
                             r"\(2001,\)"):
        gc.HeightDensity.from_callable(pdf, (0.0, 0.01))


def test_from_callable_checks():
    width = 0.01

    def pdf(z):
        return np.exp(-(np.asarray(z) / width) ** 2) / (math.sqrt(math.pi)
                                                        * width)

    dens = gc.HeightDensity.from_callable(pdf, (-0.2, 0.2))
    assert not dens.is_analytic
    assert dens(0.0) == pytest.approx(pdf(0.0), rel=1e-15)
    assert dens(0.3) == 0.0  # outside the declared support
    with pytest.raises(gc.ConfigurationError, match="mass"):
        gc.HeightDensity.from_callable(lambda z: 2.0 * pdf(z), (-0.2, 0.2))
    # the mass check holds 1e-12: its own error bound is ~1e-13
    with pytest.raises(gc.ConfigurationError, match="mass"):
        gc.HeightDensity.from_callable(lambda z: (1.0 + 1e-11) * pdf(z),
                                       (-0.2, 0.2))
    gc.HeightDensity.from_callable(lambda z: (1.0 + 1e-14) * pdf(z),
                                   (-0.2, 0.2))

    def arrays_only(z):
        if np.ndim(z) != 1:
            raise TypeError("called on a scalar")
        return pdf(z)

    gc.HeightDensity.from_callable(arrays_only, (-0.2, 0.2))
    with pytest.raises(gc.ConfigurationError, match="negative"):
        gc.HeightDensity.from_callable(lambda z: -pdf(z), (-0.2, 0.2))
    # the constructor itself checks: no sampled density goes unchecked
    with pytest.raises(gc.ConfigurationError, match="mass"):
        gc.HeightDensity(support=(-0.2, 0.2), pdf=lambda z: 2.0 * pdf(z))


def test_from_callable_refuses_non_finite_values():
    """NaN fails every comparison, so the negativity scan alone lets it
    through; the scan names the first height where the pdf is not finite."""
    grid = np.linspace(-0.2, 0.2, 2001)
    with pytest.raises(gc.ConfigurationError,
                       match=r"nan at zeta = -0\.2;"):
        gc.HeightDensity.from_callable(
            lambda z: np.full(np.shape(z), np.nan), (-0.2, 0.2))
    spike = float(grid[1234])

    def spiked(z):
        z = np.asarray(z, dtype=float)
        return np.where(z == spike, np.inf, 2.5)

    with pytest.raises(gc.ConfigurationError) as info:
        gc.HeightDensity.from_callable(spiked, (-0.2, 0.2))
    assert f"inf at zeta = {spike!r};" in str(info.value)


def test_sampled_density_mean_not_defined():
    dens = gc.HeightDensity.from_callable(
        lambda z: np.full_like(np.asarray(z, dtype=float), 2.5),
        (-0.2, 0.2))
    with pytest.raises(gc.ConfigurationError):
        dens.mean()
    with pytest.raises(gc.ConfigurationError):
        dens.component_sum(lambda mu: mu)


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


@given(theta=st.floats(0.0, math.pi / 2),
       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       dz=st.floats(0.0, 6.0),
       delta=st.floats(0.2, 3.0))
def test_density_everywhere_nonnegative(theta, phi, dz, delta):
    bracket = 1.0 + math.cos(phi) * math.sin(2.0 * theta) * math.exp(
        -dz**2 / (4.0 * delta**2))
    if bracket < 1e-6:
        return  # effectively zero-norm; constructor rejects just below 1e-12
    # drawn in packet units, scaled to heights well above zeta = -0.5
    spec = make_zeta_spec(z1=0.0, z2=dz, delta=delta, theta=theta, phi=phi)
    z = np.linspace(-0.04 * delta, 0.01 * dz + 0.04 * delta, 401)
    assert np.all(gc.HeightDensity.superposition(spec, UNIT_SCALES)(z) >= 0.0)


@given(theta=st.floats(0.05, math.pi / 2 - 0.05),
       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       ratio=st.floats(0.5, 5.0),
       delta=st.floats(0.002, 0.02))
def test_density_unit_mass_on_support_panels_property(theta, phi, ratio,
                                                     delta):
    dz = ratio * delta
    spec = gc.SuperpositionSpec(z1=-0.5 * dz, z2=0.5 * dz, delta=delta,
                                theta=theta, phi=phi)
    dens = gc.HeightDensity.superposition(spec, UNIT_SCALES)
    assert panel_mass(dens) == pytest.approx(1.0, abs=1e-11)
