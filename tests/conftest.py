from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import gravclock as gc

settings.register_profile("suite", derandomize=True, max_examples=50,
                          deadline=None)
settings.load_profile("suite")

# Identity conversion: heights handed to the physics already in zeta units.
UNIT_SCALES = gc.DimensionlessScales(g=1.0, c=1.0, omega=2.0, gamma0=1.0)

SEED = 20260816


def random_specs(n: int, *, seed: int = SEED) -> list[gc.SuperpositionSpec]:
    """Well-conditioned random two-packet states, heights in zeta units.

    Stays away from the zero manifolds of the rate excess (theta near 0,
    pi/4, pi/2 and cos(phi) near 0) so that relative comparisons against
    quadrature mean something, and keeps |z2 - z1| >= delta/2 so the norm
    bracket never comes close to vanishing.
    """
    rng = np.random.default_rng(seed)
    out: list[gc.SuperpositionSpec] = []
    while len(out) < n:
        delta = rng.uniform(0.005, 0.025)
        dz = rng.uniform(0.5, 4.0) * delta * rng.choice((-1.0, 1.0))
        z1 = rng.uniform(-0.04, 0.04)
        theta = rng.uniform(0.1, np.pi / 2 - 0.1)
        if abs(theta - np.pi / 4) < 0.1:
            continue
        phi = rng.uniform(0.0, 2.0 * np.pi)
        if abs(np.cos(phi)) < 0.3:
            continue
        out.append(gc.SuperpositionSpec(z1=z1, z2=z1 + dz, delta=delta,
                                        theta=theta, phi=phi))
    return out


def relabelled(spec: gc.SuperpositionSpec) -> gc.SuperpositionSpec:
    """The same physical state with the packets' labels exchanged:
    (z1, z2, theta) -> (z2, z1, pi/2 - theta); only cos(phi) ever enters."""
    return gc.SuperpositionSpec(z1=spec.z2, z2=spec.z1, delta=spec.delta,
                                theta=np.pi / 2 - spec.theta, phi=spec.phi)


@pytest.fixture(scope="session")
def oracle_trio():
    """Mode-comb runs at r = 1e3 for zeta in {0, 0.25, 0.5}.

    Default windows (+-100 local linewidths), s_max = 12 so the emitted
    spectrum is ripple-free.  Session-scoped: these runs carry several of
    the slow checks.
    """
    return {zeta: gc.ww_simulate(zeta, 1e3, gc.ModeGrid.for_line(zeta, 1e3),
                                 12.0)
            for zeta in (0.0, 0.25, 0.5)}


@pytest.fixture(scope="session")
def oracle_r1e4():
    """Finer-comb run (r = 1e4): the single-pole error should shrink."""
    return gc.ww_simulate(0.0, 1e4, gc.ModeGrid.for_line(0.0, 1e4), 12.0)


def lorentzian_line(nu, zeta: float, r: float):
    """Unit-area natural line of one height strip: centered at r*zeta,
    HWHM (1+zeta)/2.  The reference the line tests integrate against."""
    z = float(zeta)
    if z <= -1.0:
        raise gc.HorizonError("zeta at/below the horizon")
    gam = 1.0 + z
    detune = np.asarray(nu, dtype=float) - r * z
    out = gam / (2.0 * np.pi) / (0.25 * gam**2 + detune**2)
    return out if np.ndim(nu) else float(out)
