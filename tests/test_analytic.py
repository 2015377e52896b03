from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import quad

import gravclock as gc
from gravclock.cli import _EARTH
from gravclock import numerics
from gravclock.model import _interference
from gravclock.numerics import block_rows, panel_quadrature
from conftest import UNIT_SCALES, lorentzian_line, random_specs, relabelled


def make_spec(z1=0.0, z2=0.02, delta=0.01, theta=math.pi / 8, phi=0.0):
    """Desk-scale state, heights already in zeta units."""
    return gc.SuperpositionSpec(z1=z1, z2=z2, delta=delta, theta=theta,
                                phi=phi)


# ---------------------------------------------------------------------------
# rate excess of the superposition
# ---------------------------------------------------------------------------


def test_quantum_correction_spot_value():
    """Equal-weight-adjacent case with a clean closed answer.

    dz = 2 delta, theta = pi/8, phi = 0: the excess reduces to
    dz/4 / (e + sin(pi/4)) in zeta units.
    """
    got = gc.quantum_correction(make_spec(), UNIT_SCALES)
    want = 0.005 / (math.e + math.sin(math.pi / 4))
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(1.4596883944555782e-3, rel=1e-13)


def test_quantum_correction_quadrature_matches_closed():
    for spec in random_specs(100):
        closed = gc.quantum_correction(spec, UNIT_SCALES)
        quad_v = gc.quantum_correction(spec, UNIT_SCALES,
                                       method="quadrature")
        assert quad_v == pytest.approx(closed, rel=1e-11)


@given(z1=st.floats(-100.0, 100.0), delta=st.floats(0.01, 1.0),
       ratio=st.floats(0.5, 4.0), sign=st.sampled_from((-1.0, 1.0)),
       theta=st.floats(0.1, math.pi / 2 - 0.1),
       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_quantum_correction_quadrature_matches_closed_at_earth_scale(
        z1, delta, ratio, sign, theta, phi):
    """Meter-form states under the CLI's Earth scales (zeta ~ 1e-16 per
    meter), clear of the zero manifolds as in ``random_specs``.  The moment
    route works from absolute heights, so its rounding grows with height
    over separation."""
    assume(abs(theta - math.pi / 4) >= 0.1 and abs(math.cos(phi)) >= 0.3)
    spec = gc.SuperpositionSpec(z1=z1, z2=z1 + sign * ratio * delta,
                                delta=delta, theta=theta, phi=phi)
    c = gc.quantum_correction(spec, _EARTH)
    q = gc.quantum_correction(spec, _EARTH, method="quadrature")
    height = max(abs(spec.z1), abs(spec.z2)) / abs(spec.z2 - spec.z1)
    assert abs(q - c) <= 1e-14 * (1.0 + height) * abs(c)


def test_quantum_correction_moments_and_adaptive_agree():
    """The quadrature method's first moments against adaptive quadpack
    moments of the same component form."""
    spec = make_spec(theta=0.6, phi=2.8)
    got = gc.quantum_correction(spec, UNIT_SCALES, method="quadrature")
    w = spec.delta

    def moment(mu):
        return quad(lambda z: (1.0 + z) * math.exp(-((z - mu) / w) ** 2)
                    / (math.sqrt(math.pi) * w), mu - 12.0 * w, mu + 12.0 * w,
                    epsabs=1e-14, epsrel=1e-12, limit=200)[0]

    a, b = _interference(spec.theta, spec.phi, spec.z2 - spec.z1, spec.delta)
    ad = a / b * (
        moment(0.5 * (spec.z1 + spec.z2))
        - math.cos(spec.theta) ** 2 * moment(spec.z1)
        - math.sin(spec.theta) ** 2 * moment(spec.z2))
    assert ad == pytest.approx(got, rel=1e-11)


def test_quantum_correction_antisymmetric_in_theta():
    for spec in random_specs(20):
        mirrored = gc.SuperpositionSpec(z1=spec.z1, z2=spec.z2,
                                        delta=spec.delta,
                                        theta=math.pi / 2 - spec.theta,
                                        phi=spec.phi)
        assert gc.quantum_correction(mirrored, UNIT_SCALES) == pytest.approx(
            -gc.quantum_correction(spec, UNIT_SCALES), rel=1e-12)


def test_quantum_correction_swap_invariant():
    for spec in random_specs(20):
        assert gc.quantum_correction(relabelled(spec), UNIT_SCALES) \
            == pytest.approx(gc.quantum_correction(spec, UNIT_SCALES),
                             rel=1e-12)


def test_quantum_correction_zeros():
    """No coherence term survives at theta in {0, pi/4, pi/2} or phi=pi/2."""
    for theta in (0.0, math.pi / 4, math.pi / 2):
        spec = make_spec(theta=theta, phi=0.7)
        assert abs(gc.quantum_correction(spec, UNIT_SCALES)) < 1e-15
    spec = make_spec(theta=0.6, phi=math.pi / 2)
    assert abs(gc.quantum_correction(spec, UNIT_SCALES)) < 1e-15


def test_quantum_correction_decay_bound_resolved_packets():
    """|excess| <= (g/4c^2)|dz| exp(-dz^2/4 delta^2) * 2 once dz >= 2 delta.

    (For overlapping packets near theta=pi/4, phi=pi the norm bracket
    vanishes and no constant works; from dz = 2 delta on, the bracket is
    >= 1 - 1/e and the constant is provably under 1.582.)
    """
    rng = np.random.default_rng(7)
    for _ in range(300):
        delta = rng.uniform(0.002, 0.02)
        dz = rng.uniform(2.0, 8.0) * delta * rng.choice((-1.0, 1.0))
        theta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        spec = gc.SuperpositionSpec(z1=-0.5 * dz, z2=0.5 * dz, delta=delta,
                                    theta=theta, phi=phi)
        bound = 0.25 * abs(dz) * math.exp(-dz**2 / (4.0 * delta**2)) * 2.0
        assert abs(gc.quantum_correction(spec, UNIT_SCALES)) <= bound


def test_quantum_correction_vanishes_at_large_separation():
    delta = 0.01
    values = []
    for ratio in (4.0, 6.0, 8.0, 10.0):
        spec = gc.SuperpositionSpec(z1=0.0, z2=ratio * delta, delta=delta,
                                    theta=0.7543, phi=math.pi)
        values.append(abs(gc.quantum_correction(spec, UNIT_SCALES)))
    assert values[0] > values[1] > values[2] > values[3]
    assert values[-1] < 1e-12


def test_quantum_correction_rejections():
    spec = make_spec()
    with pytest.raises(gc.ConfigurationError, match="method"):
        gc.quantum_correction(spec, UNIT_SCALES, method="magic")


def test_decay_rates_consistency():
    spec = make_spec(theta=0.5, phi=0.3)
    res = gc.decay_rates(spec, UNIT_SCALES)
    dens_sup = gc.HeightDensity.superposition(spec, UNIT_SCALES)
    dens_mix = gc.HeightDensity.mixture(spec.mixture(), UNIT_SCALES)
    assert res.gamma_sup == pytest.approx(1.0 + dens_sup.mean(), rel=1e-15)
    assert res.gamma_cl == pytest.approx(1.0 + dens_mix.mean(), rel=1e-15)
    assert res.gammaQ_inv == pytest.approx(
        gc.quantum_correction(spec, UNIT_SCALES), rel=1e-15)
    # the excess is the difference of the two means (difference path exact)
    assert res.gamma_sup - res.gamma_cl == pytest.approx(res.gammaQ_inv,
                                                         rel=1e-10)
    d = res.to_dict()
    assert set(d) == {"gamma_sup", "gamma_cl", "gammaQ_inv", "method"}
    quad_res = gc.decay_rates(spec, UNIT_SCALES, method="quadrature")
    assert quad_res.gammaQ_inv == pytest.approx(res.gammaQ_inv, rel=1e-11)


# ---------------------------------------------------------------------------
# survival and rates in time
# ---------------------------------------------------------------------------


def test_total_rate_mean():
    dens = gc.HeightDensity.mixture_zeta(0.0, 0.01, 0.002, math.pi / 3)
    want = 1.0 + 0.01 * math.sin(math.pi / 3) ** 2
    assert gc.total_rate(dens) == pytest.approx(want, rel=1e-14)


def test_total_rate_is_minus_survival_slope():
    """At s = 0 the survival curve falls at the mean rate <1 + zeta>."""
    dens = gc.HeightDensity.superposition_zeta(-0.01, 0.015, 0.004, 0.6, 0.9)
    h = 1e-5
    p0, p1, p2 = gc.survival_probability(dens, np.array([0.0, h, 2.0 * h]))
    slope = (3.0 * p0 - 4.0 * p1 + p2) / (2.0 * h)  # one-sided, O(h^2)
    assert gc.total_rate(dens) == pytest.approx(slope, rel=1e-8)


def test_total_rate_sampled_matches_closed():
    closed = gc.HeightDensity.mixture_zeta(-0.01, 0.015, 0.004, 0.6)
    sampled = gc.HeightDensity.from_callable(closed, closed.support)
    assert gc.total_rate(sampled) == pytest.approx(gc.total_rate(closed),
                                                   rel=1e-12)
    flat = gc.HeightDensity.from_callable(
        lambda z: np.full(np.shape(z), 2.5), (-0.2, 0.2))
    assert gc.total_rate(flat) == pytest.approx(1.0, rel=1e-12)


def test_survival_closed_form_symmetric_mixture():
    """Symmetric two-branch mixture: e^{-s} cosh(0.45 s) e^{w^2 s^2/4}."""
    dens = gc.HeightDensity.mixture_zeta(-0.45, 0.45, 0.004, math.pi / 4)
    got = gc.survival_probability(dens, 1.0)
    want = math.exp(-1.0) * math.cosh(0.45) * math.exp(0.004**2 / 4.0)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.40576167228058513, rel=1e-13)


def test_survival_basics():
    dens = gc.HeightDensity.superposition_zeta(0.0, 0.02, 0.01, math.pi / 8,
                                               0.0)
    assert gc.survival_probability(dens, 0.0) == 1.0
    s = np.linspace(0.0, 5.0, 11)
    p = gc.survival_probability(dens, s)
    assert p.shape == s.shape
    assert np.all(np.diff(p) < 0.0)
    with pytest.raises(gc.ConfigurationError):
        gc.survival_probability(dens, -1e-9)


def test_survival_sampled_matches_analytic():
    closed = gc.HeightDensity.mixture_zeta(-0.01, 0.01, 0.003, 0.8)
    sampled = gc.HeightDensity.from_callable(closed, closed.support)
    for s in (0.0, 0.7, 2.5):
        assert gc.survival_probability(sampled, s) == pytest.approx(
            gc.survival_probability(closed, s), rel=1e-9)


# ---------------------------------------------------------------------------
# line shapes
# ---------------------------------------------------------------------------


def test_lorentzian_line_unit_area():
    for zeta in (0.0, 0.25, 0.5):
        u = 1e3 * zeta  # integrate centered so quadpack sees the peak
        mass, _ = quad(lambda x: lorentzian_line(x + u, zeta, 1e3),
                       -np.inf, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-10)


def test_lorentzian_line_finite_window_mass():
    """Window mass must match the arctan closed form exactly."""
    zeta, r, w = 0.25, 1e3, 80.0
    u, gam = r * zeta, 1.0 + zeta
    mass, _ = quad(lorentzian_line, u - w, u + w, args=(zeta, r),
                   points=[u], limit=200)
    want = (math.atan(2.0 * w / gam) - math.atan(-2.0 * w / gam)) / math.pi
    assert mass == pytest.approx(want, rel=1e-12)


def test_lorentzian_line_peak_and_width():
    zeta, r = 0.3, 1e3
    u, gam = r * zeta, 1.0 + zeta
    nu = np.linspace(u - 10.0, u + 10.0, 4001)
    p = lorentzian_line(nu, zeta, r)
    assert gc.line_peak(nu, p) == pytest.approx(u, abs=1e-9)
    assert gc.line_fwhm(nu, p) == pytest.approx(gam, rel=1e-4)
    with pytest.raises(gc.HorizonError):
        lorentzian_line(0.0, -1.0, r)


def test_spectrum_voigt_equals_quadrature_at_narrow_width():
    """With a narrow packet the frozen-linewidth error is negligible."""
    dens = gc.HeightDensity.mixture_zeta(-2e-3, 2e-3, 1e-5, math.pi / 4)
    nu = np.linspace(-4.0, 4.0, 41)
    v = gc.spectrum(dens, nu, 1e3)
    q = gc.spectrum(dens, nu, 1e3, method="quadrature")
    assert np.allclose(v.p_values, q.p_values, rtol=1e-4)


def test_spectrum_voigt_close_to_quadrature_at_desk_width():
    dens = gc.HeightDensity.superposition_zeta(-2e-3, 2e-3, 1e-3,
                                               math.pi / 4, 0.0)
    nu = np.linspace(-4.0, 4.0, 21)
    v = gc.spectrum(dens, nu, 1e3)
    q = gc.spectrum(dens, nu, 1e3, method="quadrature")
    assert np.allclose(v.p_values, q.p_values, rtol=2e-2,
                       atol=1e-4 * v.p_values.max())


@pytest.mark.parametrize("r", [1e3, 1.5e17])
def test_spectrum_batches_the_voigt_components(r):
    """One kernel call over (components, points) gives the per-component
    sum to rounding, at desk scale (Weideman's series) and at Earth scale
    (the Gaussian expansion), and the components still add in order."""
    from gravclock.numerics import voigt_profile
    dens = gc.HeightDensity.superposition_zeta(-2e-3, 3e-3, 1e-3,
                                               math.pi / 5, 0.4)
    sigma = r * dens.width / math.sqrt(2.0)
    nu = np.linspace(-6.0, 6.0, 301) * r * dens.width
    got = gc.spectrum(dens, nu, r).p_values
    ref = dens.component_sum(
        lambda mu: voigt_profile(nu - r * mu, sigma, 0.5 * (1.0 + mu)))
    eps = np.finfo(float).eps
    np.testing.assert_allclose(got, np.maximum(ref, 0.0), rtol=4 * eps,
                               atol=4 * eps * ref.max())


def test_spectrum_auto_dispatch_and_mass():
    dens = gc.HeightDensity.mixture_zeta(0.0, 2e-3, 1e-3, 0.5)
    nu = np.linspace(-60.0, 60.0, 4001)
    res = gc.spectrum(dens, nu, 1e3)
    assert res.total_mass == pytest.approx(1.0, abs=1e-2)
    assert not res.low_mass
    narrow = gc.spectrum(dens, np.linspace(-0.4, 0.4, 81), 1e3)
    assert narrow.low_mass
    assert np.all(res.p_values >= 0.0)


def test_spectrum_sampled_density_uses_quadrature():
    closed = gc.HeightDensity.mixture_zeta(0.0, 2e-3, 1e-3, 0.5)
    sampled = gc.HeightDensity.from_callable(closed, closed.support)
    nu = np.linspace(-3.0, 3.0, 11)
    auto = gc.spectrum(sampled, nu, 1e3)
    ref = gc.spectrum(closed, nu, 1e3, method="quadrature")
    assert np.allclose(auto.p_values, ref.p_values, rtol=1e-8)
    # "auto" is the only name of the Voigt path
    with pytest.raises(gc.ConfigurationError,
                       match=r"method must be auto\|quadrature, got 'voigt'"):
        gc.spectrum(sampled, nu, 1e3, method="voigt")


def test_spectrum_quadrature_holds_the_earth_scale_line():
    """The CLI default state at r = 1.5e17: the Lorentzian is ~3e-18 wide in
    zeta, below the float spacing of zeta, yet the panels in detuning
    coordinates resolve it."""
    from gravclock.cli import _EARTH_R, _line_window
    dens = gc.HeightDensity.superposition_zeta(0.0, 0.02, 0.01, math.pi / 8,
                                               0.0)
    nu = np.linspace(*_line_window(dens, _EARTH_R), 4001)
    q = gc.spectrum(dens, nu, _EARTH_R, method="quadrature")
    v = gc.spectrum(dens, nu, _EARTH_R)
    assert q.total_mass >= 0.999
    assert np.max(np.abs(q.p_values - v.p_values)) <= 1e-9 * v.p_values.max()


def top_hat(a, b):
    return gc.HeightDensity.from_callable(
        lambda z: np.full(np.shape(z), 1.0 / (b - a)), (a, b))


def test_top_hat_survival_and_line():
    a, b = -0.003, 0.004
    dens = top_hat(a, b)
    s = np.linspace(0.05, 6.0, 31)
    want = -np.exp(-(1.0 + a) * s) * np.expm1(-(b - a) * s) / (s * (b - a))
    got = gc.survival_probability(dens, s)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-10
    r = 1e3
    nu = np.linspace(-10.0, 10.0, 41)

    def ref(n):
        def f(z):
            return (1.0 + z) / (2.0 * math.pi) / (
                0.25 * (1.0 + z) ** 2 + (r * z - n) ** 2) / (b - a)
        pole = [n / r] if a < n / r < b else None
        return quad(f, a, b, points=pole, epsabs=1e-15, epsrel=1e-13,
                    limit=500)[0]

    # never silently off: a line either matches or raises AccuracyError
    try:
        line = gc.spectrum(dens, nu, r).p_values
    except gc.AccuracyError as exc:
        assert exc.bound > 0.0
    else:
        assert np.allclose(line, [ref(n) for n in nu], rtol=1e-9, atol=0.0)


def test_quadrature_raises_when_refinement_runs_out():
    """A density that no panel size resolves exhausts the bisection rounds
    of its own mass check."""
    a, b = -0.003, 0.004
    with pytest.raises(gc.AccuracyError) as info:
        gc.HeightDensity.from_callable(
            lambda z: (1.0 + 1e-3 * np.sin(1e13 * z)) / (b - a), (a, b))
    assert 0.0 < info.value.estimate <= 1.0
    assert info.value.bound > 1e-10 * info.value.estimate


def test_sampled_quadrature_repeats_bit_for_bit():
    closed = gc.HeightDensity.superposition_zeta(0.0, 2e-3, 1e-3, 0.5, 2.0)
    sampled = gc.HeightDensity.from_callable(closed, closed.support)
    nu = np.linspace(-8.0, 10.0, 61)
    s = np.linspace(0.0, 5.0, 31)
    first = (gc.spectrum(sampled, nu, 1e3).p_values,
             gc.survival_probability(sampled, s))
    second = (gc.spectrum(sampled, nu, 1e3).p_values,
              gc.survival_probability(sampled, s))
    for x, y in zip(first, second):
        assert x.tobytes() == y.tobytes()


class TwoPackets:
    """Two Gaussian packets as a plain pdf callable, counting its calls and
    recording the heights it is asked for."""

    centers = np.array([-1e-3, 2e-3])
    weights = np.array([0.35, 0.65])
    width = 8e-4
    support = (-1e-3 - 12 * width, 2e-3 + 12 * width)

    def __init__(self):
        self.calls = self.evals = 0
        self.sizes = []
        self.heights = []

    def __call__(self, z):
        self.calls += 1
        self.evals += np.size(z)
        self.sizes.append(np.size(z))
        self.heights.append(np.array(z, dtype=float))
        q = (np.asarray(z, dtype=float)[..., None] - self.centers) / self.width
        return np.exp(-q * q) @ self.weights / (math.sqrt(math.pi)
                                                 * self.width)


def test_sampled_line_evaluates_shared_panels_once():
    """The support panels wholly outside a point's near zone take rho from
    the density's own node values; per point only the near pieces are
    evaluated (~110 heights here, ~126 with bisection).  Evaluating every
    panel for every point takes ~600 heights per point here."""
    pdf = TwoPackets()
    dens = gc.HeightDensity.from_callable(pdf, pdf.support)
    pdf.calls = pdf.evals = 0
    nu = np.linspace(-12.0, 12.0, 61)
    gc.spectrum(dens, nu, 1e3)
    assert pdf.evals / len(nu) <= 190
    # one call for the near pieces, one per bisection round
    assert pdf.calls <= 4


def test_sampled_survival_evaluates_the_support_nodes_once():
    """The pdf is asked for the support nodes once, when the density is
    built; after that a 1000-point curve (8 blocks of times on that node
    set), total_rate and a line ask it only for the nodes of bisected
    panels and of a line's near pieces.  The curve's values are those of a
    quadrature that evaluates every block's integrand afresh."""
    pdf = TwoPackets()
    dens = gc.HeightDensity.from_callable(pdf, pdf.support)
    breaks, nodes, _ = dens._panels
    assert pdf.sizes[:2] == [2001, nodes.size]
    pdf.heights.clear()
    s = np.linspace(0.0, 10.0, 1000)
    got = gc.survival_probability(dens, s)
    gc.total_rate(dens)
    gc.spectrum(dens, np.linspace(-12.0, 12.0, 61), 1e3)
    assert pdf.heights
    assert not any(np.array_equal(z, nodes.ravel()) for z in pdf.heights)
    step = block_rows(len(breaks) - 1)
    assert len(s) > 7 * step

    def block(times):
        def f(z, row):
            return (pdf(z.ravel()).reshape(z.shape)[..., None]
                    * np.exp(-(1.0 + z)[..., None] * times))
        return panel_quadrature(f, breaks[None, :-1], breaks[None, 1:])[0]

    want = np.concatenate([block(s[i:i + step])
                           for i in range(0, len(s), step)])
    assert got.tobytes() == want.tobytes()


def test_sampled_line_matches_scipy_quad():
    """Against scipy's adaptive quad, told where the pole and the packet
    centers are: on a packet's pole, between the packets, near and past the
    support edges.  Measured within 7e-16 relative."""
    pdf = TwoPackets()
    dens = gc.HeightDensity.from_callable(pdf, pdf.support)
    lo, hi = pdf.support
    r = 1e3
    edges = np.array([-2.0, 0.0, 0.3])
    nu = np.sort(np.r_[r * pdf.centers, r * pdf.centers.mean(),
                       r * lo + edges, r * hi - edges])
    got = gc.spectrum(dens, nu, r).p_values

    def ref(n):
        def f(z):
            gam = 1.0 + z
            return pdf(z) * gam / (2.0 * math.pi) / (0.25 * gam**2
                                                      + (r * z - n) ** 2)
        hints = [z for z in (n / r, *pdf.centers) if lo < z < hi]
        return quad(f, lo, hi, points=hints, epsabs=0.0, epsrel=2e-14,
                    limit=1000)[0]

    np.testing.assert_allclose(got, [ref(n) for n in nu], rtol=2e-15,
                               atol=0.0)


def quad_line(dens, n, r, hints=()):
    """P(n) by scipy's adaptive quad in zeta, with the pole n/r and the
    given heights as break points."""
    lo, hi = dens.support

    def f(z):
        gam = 1.0 + z
        return dens(z) * gam / (2.0 * math.pi) / (0.25 * gam**2
                                                  + (r * z - n) ** 2)

    points = [z for z in (n / r, *hints) if lo < z < hi]
    return quad(f, lo, hi, points=points or None, epsabs=0.0, epsrel=2e-14,
                limit=2000)[0]


@pytest.mark.parametrize("r", [1e2, 1e3, 1e4])
def test_top_hat_line_past_the_support_ends_and_on_its_breaks(r):
    """rho jumps at both support ends.  The window runs three linewidths
    past them, so near zones reach past either end, and poles sit exactly
    on both ends and on inner support breaks.  Measured within 1.5e-15
    relative."""
    a, b = -0.003, 0.004
    dens = top_hat(a, b)
    breaks = dens._panels.breaks
    nu = np.unique(np.r_[np.linspace(r * a - 3.0, r * b + 3.0, 41),
                         r * breaks[[0, 5, 16, -1]]])
    got = gc.spectrum(dens, nu, r).p_values
    np.testing.assert_allclose(got, [quad_line(dens, n, r) for n in nu],
                               rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("r", [2.0**7, 2.0**13])
def test_line_with_a_support_break_on_the_near_zone_edge(r):
    """Dyadic ends, r and detunings make x = r*zeta - nu exact, so support
    breaks sit exactly on +-H, the edges of the points' near zones (H as
    in analytic._line_quadrature): such a panel belongs to the far part,
    once.  Measured within 2.3e-16 relative."""
    a, b = -3.0 / 1024, 4.0 / 1024
    dens = top_hat(a, b)
    breaks = dens._panels.breaks
    h0 = 0.25 * (1.0 + a)
    near = h0 * 2.0 ** max(1, math.ceil(math.log2(r * (b - a) / 32 / h0)))
    nu = np.unique(np.r_[r * breaks[[3, 9, 20]] - near,
                         r * breaks[[3, 9, 20]] + near])
    x = r * breaks - nu[:, None]
    assert np.all(np.any(x == near, axis=1) | np.any(x == -near, axis=1))
    got = gc.spectrum(dens, nu, r).p_values
    np.testing.assert_allclose(got, [quad_line(dens, n, r) for n in nu],
                               rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("pdf", ["top-hat", "two-packets"])
def test_line_of_a_support_narrower_than_one_near_zone(pdf):
    """At r = 1e2 the near zone is (-0.5, 0.5) in x and holds the whole
    support (0.3 and 0.03 wide): the graded pieces, clipped to the support,
    carry the line, bisected where the packets vary faster than they.
    Measured within 1.7e-15 relative."""
    r = 1e2
    if pdf == "top-hat":
        dens, hints = top_hat(-1e-3, 2e-3), ()
    else:
        closed = gc.HeightDensity.mixture_zeta(0.0, 2e-5, 1e-5, 0.5)
        dens = gc.HeightDensity.from_callable(closed, closed.support)
        hints = closed.centers
    lo, hi = dens.support
    nu = np.linspace(r * lo - 1.0, r * hi + 1.0, 31)
    got = gc.spectrum(dens, nu, r).p_values
    np.testing.assert_allclose(
        got, [quad_line(dens, n, r, hints) for n in nu], rtol=4e-15,
        atol=0.0)


@pytest.mark.parametrize("r", [1e2, 1e3, 1e4])
def test_quadrature_line_with_poles_on_the_analytic_centers(r):
    """method='quadrature' on a superposition, whose support panels break
    at its three centers; poles sit on each center, and the window runs
    five linewidths past the support.  Measured within 1e-15 relative."""
    dens = gc.HeightDensity.superposition_zeta(0.0, 2e-3, 1e-3, 0.5, 2.0)
    lo, hi = dens.support
    nu = np.unique(np.r_[np.linspace(r * lo - 5.0, r * hi + 5.0, 41),
                         r * np.array(dens.centers)])
    got = gc.spectrum(dens, nu, r, method="quadrature").p_values
    want = [quad_line(dens, n, r, dens.centers) for n in nu]
    np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)


def test_line_points_that_miss_the_tolerance_bisect(monkeypatch):
    """Some points of this line miss 1e-13 on their starting panels: they
    bisect in one more pdf call.  Without bisection rounds the line raises
    AccuracyError with the estimate and the bound of its worst point."""
    pdf = TwoPackets()
    dens = gc.HeightDensity.from_callable(pdf, pdf.support)
    nu = np.linspace(-12.0, 12.0, 61)
    pdf.calls = 0
    line = gc.spectrum(dens, nu, 1e3).p_values
    assert pdf.calls == 2
    monkeypatch.setattr(numerics, "_MAX_ROUNDS", 0)
    with pytest.raises(gc.AccuracyError, match="after 0 bisection rounds"
                       ) as info:
        gc.spectrum(dens, nu, 1e3)
    estimate, bound = info.value.estimate, info.value.bound
    assert bound > 1e-13 * estimate > 0.0
    assert np.min(np.abs(line - estimate)) <= bound


def test_unchecked_non_finite_density_fails_at_once():
    """A pdf that the 2001-point scan finds finite but that is NaN between
    its points stops the mass check's first quadrature round, not 40 rounds
    of bisection later."""
    a, b = -0.003, 0.004
    grid = np.linspace(a, b, 2001)
    calls = []

    def nan_pdf(z):
        calls.append(np.size(z))
        return np.where(np.isin(z, grid), 1.0 / (b - a), np.nan)

    with pytest.raises(gc.AccuracyError, match="non-finite"):
        gc.HeightDensity.from_callable(nan_pdf, (a, b))
    assert calls == [2001, 480]


def test_spectrum_validation():
    dens = gc.HeightDensity.mixture_zeta(0.0, 2e-3, 1e-3, 0.5)
    nu = np.linspace(-3.0, 3.0, 11)
    with pytest.raises(gc.ConfigurationError):
        gc.spectrum(dens, nu, 0.0)
    with pytest.raises(gc.ConfigurationError):
        gc.spectrum(dens, nu[::-1], 1e3)
    with pytest.raises(gc.ConfigurationError):
        gc.spectrum(dens, nu, 1e3, method="fft")


NU = np.linspace(-3.0, 3.0, 11)


@pytest.mark.parametrize("call", [
    lambda d: gc.spectrum(d, [0.0, math.nan, 1.0], 1e3),
    lambda d: gc.spectrum(d, [0.0, 1.0, math.inf], 1e3),
    lambda d: gc.spectrum(d, NU, math.nan),
    lambda d: gc.spectrum(d, NU, math.inf),
    lambda d: gc.survival_probability(d, math.nan),
    lambda d: gc.survival_probability(d, math.inf),
    lambda d: gc.survival_probability(d, [0.0, math.nan, 1.0]),
], ids=["nu-nan", "nu-inf", "r-nan", "r-inf", "s-nan", "s-inf", "s-array"])
@pytest.mark.parametrize("sampled", [False, True], ids=["analytic",
                                                        "sampled"])
def test_non_finite_inputs_refused(call, sampled):
    """Lines and survival curves refuse non-finite inputs up front, rather
    than returning NaN or failing deep in the quadrature."""
    dens = gc.HeightDensity.mixture_zeta(0.0, 2e-3, 1e-3, 0.5)
    if sampled:
        dens = gc.HeightDensity.from_callable(dens, dens.support)
    with pytest.raises(gc.ConfigurationError, match="finite"):
        call(dens)


def test_spectrum_voigt_cancellation_guard():
    """Signed component sums that dip negative must raise, not return junk."""
    dens = gc.HeightDensity(support=(-0.1, 0.1), width=1e-6,
                            centers=(0.0, 2e-4), weights=(6.0, -5.0))
    nu = np.linspace(-5.0, 5.0, 201)
    with pytest.raises(gc.AccuracyError):
        gc.spectrum(dens, nu, 1e3)


# ---------------------------------------------------------------------------
# wave-packet coherence time
# ---------------------------------------------------------------------------


def kp_from_spec(spec: gc.SuperpositionSpec, *, t=1.0, m=1.0,
                 sigma_v=1.0, p_bar=0.0) -> gc.KhandelwalParams:
    return gc.KhandelwalParams(sigma_z=spec.delta, sigma_v=sigma_v,
                               p_bar=p_bar, alpha_w=math.cos(spec.theta) ** 2,
                               phi=spec.phi, t=t, m=m)


def test_tcoh_reduced_equals_quantum_correction():
    for spec in random_specs(100):
        reduced = gc.khandelwal_tcoh_reduced(kp_from_spec(spec), spec.z1,
                                             spec.z2, g=1.0, c=1.0)
        assert reduced == pytest.approx(
            gc.quantum_correction(spec, UNIT_SCALES), rel=1e-12)


def test_tcoh_full_bracket_terms():
    kp = gc.KhandelwalParams(sigma_z=1.0, sigma_v=2.0, p_bar=3.0,
                             alpha_w=0.25, phi=0.5, t=2.0, m=1.5)
    res = gc.khandelwal_tcoh_full(kp, 0.0, 1.0, g=2.0, c=10.0, hbar=0.7)
    sv2 = (2.0 / 10.0) ** 2
    assert res.term1 == pytest.approx(0.25 * sv2, rel=1e-15)
    assert res.term2 == pytest.approx(-2.0 * 1.0 * (1.0 - 0.5) / 100.0,
                                      rel=1e-15)
    base3 = -(2.0 / 0.7) * sv2 * 1.0 * (3.0 - 1.5 * 2.0 * 2.0)
    assert res.term3 == pytest.approx(base3 * math.tan(0.5), rel=1e-14)
    root = math.sqrt(0.25 * 0.75)
    n = 1.0 + 2.0 * math.cos(0.5) * root * math.exp(-0.25)
    assert res.n_factor == pytest.approx(n, rel=1e-15)
    p3 = base3 * 2.0 * math.sin(0.5) * root * math.exp(-0.25)
    want = ((n - 1.0) * (res.term1 + res.term2) + p3) * 2.0 / (2.0 * n)
    assert res.tcoh == pytest.approx(want, rel=1e-14)


def test_tcoh_finite_through_phi_half_pi():
    """tan(phi) diverges at pi/2 exactly as N-1 vanishes; the product form
    must pass through smoothly."""
    kp0 = gc.KhandelwalParams(sigma_z=1.0, sigma_v=0.5, p_bar=0.2,
                              alpha_w=0.3, phi=math.pi / 2, t=1.5, m=1.0)
    at = gc.khandelwal_tcoh_full(kp0, 0.0, 1.0, g=1.0, c=1.0, hbar=1.0)
    assert math.isfinite(at.tcoh)
    eps = 1e-9
    kp1 = gc.KhandelwalParams(sigma_z=1.0, sigma_v=0.5, p_bar=0.2,
                              alpha_w=0.3, phi=math.pi / 2 - eps, t=1.5,
                              m=1.0)
    near = gc.khandelwal_tcoh_full(kp1, 0.0, 1.0, g=1.0, c=1.0, hbar=1.0)
    assert near.tcoh == pytest.approx(at.tcoh, rel=1e-6)


def test_tcoh_single_packet_limits():
    # all weight in one packet: no two-branch coherence, tcoh = 0
    for alpha in (0.0, 1.0):
        kp = gc.KhandelwalParams(sigma_z=1.0, sigma_v=1.0, p_bar=0.0,
                                 alpha_w=alpha, phi=0.0, t=1.0, m=1.0)
        res = gc.khandelwal_tcoh_full(kp, 0.0, 1.0)
        assert res.tcoh == 0.0


def test_tcoh_validation():
    with pytest.raises(gc.ConfigurationError):
        gc.KhandelwalParams(sigma_z=0.0, sigma_v=1.0, p_bar=0.0, alpha_w=0.5,
                            phi=0.0, t=1.0, m=1.0)
    with pytest.raises(gc.ConfigurationError):
        gc.KhandelwalParams(sigma_z=1.0, sigma_v=1.0, p_bar=0.0, alpha_w=1.5,
                            phi=0.0, t=1.0, m=1.0)
    with pytest.raises(gc.ConfigurationError):
        gc.KhandelwalParams(sigma_z=1.0, sigma_v=1.0, p_bar=0.0, alpha_w=0.5,
                            phi=math.nan, t=1.0, m=1.0)
    # non-finite inputs would give tcoh = nan
    good = dict(sigma_z=1.0, sigma_v=1.0, p_bar=0.0, alpha_w=0.5, phi=0.0,
                t=1.0, m=1.0)
    for name, bad in (("t", math.nan), ("m", math.nan), ("p_bar", math.inf),
                      ("sigma_v", math.inf), ("t", -1.0)):
        with pytest.raises(gc.ConfigurationError, match=f"^{name} must"):
            gc.KhandelwalParams(**{**good, name: bad})
    # destructive overlap: N = 0 exactly
    kp = gc.KhandelwalParams(sigma_z=1.0, sigma_v=1.0, p_bar=0.0,
                             alpha_w=0.5, phi=math.pi, t=1.0, m=1.0)
    with pytest.raises(gc.ConfigurationError, match="norm"):
        gc.khandelwal_tcoh_full(kp, 0.0, 0.0)


def test_tcoh_full_refuses_a_c_whose_square_overflows():
    """c**2 used to raise Python's OverflowError past c ~ 1.34e154; the
    refusal is DimensionlessScales', and c just below it still works."""
    kp = gc.KhandelwalParams(sigma_z=1.0, sigma_v=1.0, p_bar=0.0,
                             alpha_w=0.25, phi=0.0, t=1.0, m=1.0)
    with pytest.raises(gc.ConfigurationError,
                       match=r"^c = 1e\+200 overflows when squared$"):
        gc.khandelwal_tcoh_full(kp, 0.0, 1.0, c=1e200)
    with pytest.raises(gc.ConfigurationError, match="overflows"):
        gc.khandelwal_tcoh_reduced(kp, 0.0, 1.0, c=1e200)
    res = gc.khandelwal_tcoh_full(kp, 0.0, 1.0, g=1.0, c=1e154)
    assert res.term2 == -1.0 * 1.0 * 0.5 / 1e154**2


@given(theta=st.floats(0.05, math.pi / 2 - 0.05),
       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       ratio=st.floats(0.5, 4.0),
       delta=st.floats(0.003, 0.02))
def test_tcoh_reduced_identity_property(theta, phi, ratio, delta):
    dz = ratio * delta
    spec = gc.SuperpositionSpec(z1=-0.5 * dz, z2=0.5 * dz, delta=delta,
                                theta=theta, phi=phi)
    reduced = gc.khandelwal_tcoh_reduced(kp_from_spec(spec), spec.z1,
                                         spec.z2, g=1.0, c=1.0)
    closed = gc.quantum_correction(spec, UNIT_SCALES)
    assert reduced == pytest.approx(closed, rel=1e-9, abs=1e-18)
