"""Quadrature engines and a discretized-mode emission oracle.

The oracle solves the one-excitation amplitude equations on a finite comb of
field modes exactly, with no pole approximation: their generator is a real
symmetric arrowhead matrix whose eigenvalues solve a secular equation with a
closed-form sum on the uniform comb.  Inside each gap between modes that
equation is a fixed point d = arccot(y(d))/pi with a smooth y, so a few
vectorized Newton passes find all the roots; bisection keeps the two roots
outside the comb and any root Newton leaves unsettled.  The trajectory and
the final mode amplitudes are sums over all eigenvalues; FFTs evaluate both
in O(n log n) (a chirp-z transform and far-field Cauchy sums).  The
closed-form exponential decay law is checked against that solution rather
than against itself.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import digamma, polygamma

from .model import ConfigurationError, HorizonError, ROOT_PI

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)

_log = logging.getLogger(__name__)


class AccuracyError(RuntimeError):
    """Quadrature did not converge; carries the best estimate and its bound."""

    def __init__(self, message: str, estimate: float = math.nan,
                 bound: float = math.inf):
        super().__init__(message)
        self.estimate = estimate
        self.bound = bound


class IntegrationError(RuntimeError):
    """A mode-comb solution failed or broke its sum rule or unitarity."""


class ValidityError(RuntimeError):
    """A result was requested outside the regime where it means anything."""


_GH_ORDER = 80           # default Gauss-Hermite order
# numpy's hermgauss returns NaN weights from order 372 and costs O(order^2).
_GH_MAX_ORDER = 200


@lru_cache(maxsize=64)
def gauss_hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights normalized so that sum(w * f(x)) integrates f
    against the standard Gaussian exp(-x^2)/sqrt(pi)."""
    x, w = hermgauss(order)
    return x, w / ROOT_PI


def gauss_moment(f, center: float, width: float,
                 order: int = _GH_ORDER) -> float:
    """Integral of f against one normalized Gaussian component
    exp(-(zeta-center)^2/width^2) / (sqrt(pi) width), by Gauss-Hermite
    quadrature of the given order (an int in [2, 200])."""
    if width <= 0.0:
        raise ConfigurationError(f"width must be > 0, got {width!r}")
    if not (isinstance(order, int) and 2 <= order <= _GH_MAX_ORDER):
        raise ConfigurationError(f"order must be an int in "
                                 f"[2, {_GH_MAX_ORDER}], got {order!r}")
    x, w = gauss_hermite_nodes(order)
    vals = np.asarray(f(center + width * x), dtype=float)
    return float(w @ vals)


# 15-point Kronrod extension of the 7-point Gauss-Legendre rule on [-1, 1]
# (QUADPACK's qk15); the Gauss weights are zero on the Kronrod-only nodes.
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649)
_WK0 = 0.209482141084727828012999174891714
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG0 = 0.417959183673469387755102040816327
_GK_NODES = np.array([-x for x in _XK] + [0.0] + list(reversed(_XK)))
_GK_KRONROD = np.array(_WK + (_WK0,) + tuple(reversed(_WK)))
_GAUSS_ODD = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0)
_GK_GAUSS = np.array(_GAUSS_ODD + (_WG0,) + tuple(reversed(_GAUSS_ODD)))

_PANEL_REL_TOL = 1e-13   # see panel_quadrature for its floor
_MAX_ROUNDS = 40         # bisection rounds before AccuracyError
# Panels bisected per integral and round, at most: bounds the work on an
# integrand that no panel width resolves.
_MAX_SPLITS = 64
_NODE_BLOCK = 1 << 16    # integrand values of one block of rows


def block_rows(n_panels: int) -> int:
    """Rows per block when each row has n_panels panels: about _NODE_BLOCK
    integrand values, so scratch stays a few MB however many rows."""
    return max(1, _NODE_BLOCK // (len(_GK_NODES) * n_panels))


def _gauss_kronrod(f, a: np.ndarray, b: np.ndarray, row: np.ndarray):
    """K15 value and |K15 - G7| of each panel [a, b] of integral ``row``."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b)[:, None] + half[:, None] * _GK_NODES
    y = f(x, row)
    kronrod = np.einsum("pnm,n->pm", y, _GK_KRONROD) * half[:, None]
    gauss = np.einsum("pnm,n->pm", y, _GK_GAUSS) * half[:, None]
    return kronrod, np.abs(kronrod - gauss)


def panel_quadrature(f, a, b, row, n_rows: int) -> np.ndarray:
    """Error-controlled composite Gauss-Kronrod integrals over panels.

    Integral ``i`` is the sum over the panels [a[j], b[j]] with row[j] = i
    (``row`` nondecreasing; an integral without panels is 0).
    ``f(x, row)`` gets the nodes x of shape (panels, 15) with the row of each
    panel and returns shape (panels, 15, m): m integrands sharing the nodes.
    Returns shape (n_rows, m).

    Each panel's error bound is |K15 - G7|.  The tolerance of a component
    is _PANEL_REL_TOL times its |value|, floored at _PANEL_REL_TOL times
    the largest |value| of that component over the call's integrals at
    round 0 (the floor is what lets tails and near-zero rows pass).  While
    an integral's bounds sum past the tolerance of any of its m components,
    its largest-error panels (at most _MAX_SPLITS per round) are bisected
    until the rest would fit in half that tolerance.  After _MAX_ROUNDS
    rounds the worst integral raises AccuracyError with its estimate and
    bound.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    row = np.asarray(row)
    val, err = _gauss_kronrod(f, a, b, row)
    out = np.zeros((n_rows, val.shape[1]))
    for rounds in range(_MAX_ROUNDS + 1):
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        counts = np.diff(np.r_[starts, len(row)])
        total = np.add.reduceat(val, starts)
        bound = np.add.reduceat(err, starts)
        if rounds == 0:
            # tiny keeps a call whose values are all 0 from dividing by 0
            floor = np.maximum(np.abs(total).max(axis=0),
                               np.finfo(float).tiny)
        tol = _PANEL_REL_TOL * np.maximum(np.abs(total), floor)
        done = np.all(bound <= tol, axis=1)
        out[row[starts[done]]] = total[done]
        if done.all():
            return out
        if rounds == _MAX_ROUNDS:
            worst = np.unravel_index(np.argmax(bound / tol), bound.shape)
            raise AccuracyError(
                f"panel quadrature error bound {bound[worst]:.3e} exceeds the "
                f"tolerance {tol[worst]:.3e} after {_MAX_ROUNDS} bisection "
                "rounds", estimate=float(total[worst]),
                bound=float(bound[worst]))
        live = np.repeat(~done, counts)
        a, b, row, val, err = a[live], b[live], row[live], val[live], err[live]
        counts = counts[~done]
        # Panels sorted by score within each integral; splitting those whose
        # score, added to every smaller one, exceeds 1/2 leaves the rest
        # within half the tolerance.  Scores clip at 1 without changing
        # that choice, which keeps the running sums exact enough.
        score = np.max(err / np.repeat(tol[~done], counts, axis=0), axis=1)
        order = np.lexsort((score, row))
        run = np.cumsum(np.minimum(score[order], 1.0))
        ends = np.cumsum(counts)
        before = np.repeat(np.r_[0.0, run[ends[:-1] - 1]], counts)
        rank_from_top = np.repeat(ends, counts) - 1 - np.arange(len(order))
        split = np.empty(len(order), dtype=bool)
        split[order] = (run - before > 0.5) & (rank_from_top < _MAX_SPLITS)
        reps = 1 + split
        first = (np.cumsum(reps) - reps)[split]
        mid = 0.5 * (a + b)[split]
        a, b, row = np.repeat(a, reps), np.repeat(b, reps), np.repeat(row, reps)
        val, err = np.repeat(val, reps, axis=0), np.repeat(err, reps, axis=0)
        b[first], a[first + 1] = mid, mid
        child = np.stack((first, first + 1), axis=1).ravel()
        val[child], err[child] = _gauss_kronrod(f, a[child], b[child],
                                                row[child])


# ---------------------------------------------------------------------------
# mode grid and oracle
# ---------------------------------------------------------------------------

_MAX_DNU = 0.05          # coarsest spacing that still resolves the line
_MIN_MARGIN_LW = 25.0    # window margin around the shifted line, in linewidths
_MAX_DEFECT = 1e-6       # largest sum-rule or unitarity defect of a run
# Newton passes before a gap root falls back to bisection; default combs
# settle in four.
_MAX_NEWTON = 8
# Bisection passes for the outer roots and the fallback; brackets reach
# adjacent floats within ~64.
_MAX_BISECTIONS = 200
_NEAR = 16               # gaps on each side of a mode summed directly
# The far-field and Taylor series stop where a term falls below this share
# of the leading one: an eighth of the unit roundoff.
_SERIES_TOL = 2.0**-56
# Far-field terms: they fall like (1/2)/(_NEAR + 1/2) = 1/33 per order.
_FAR_TERMS = math.ceil(math.log(_SERIES_TOL) / math.log(0.5 / (_NEAR + 0.5)))


@dataclass(frozen=True)
class ModeGrid:
    """Uniform comb of field modes, nu in linewidth units."""

    nu_min: float
    nu_max: float
    n_modes: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_modes, int) or self.n_modes < 2:
            raise ConfigurationError(f"n_modes must be an int >= 2, "
                                     f"got {self.n_modes!r}")
        if not self.nu_max > self.nu_min:
            raise ConfigurationError("nu_max must exceed nu_min")
        if self.dnu > _MAX_DNU * (1.0 + 1e-12):
            raise ConfigurationError(
                f"mode spacing {self.dnu:.4g} exceeds {_MAX_DNU}; the comb is "
                "too coarse to resolve the natural line")

    @property
    def dnu(self) -> float:
        return (self.nu_max - self.nu_min) / (self.n_modes - 1)

    @property
    def nus(self) -> np.ndarray:
        return np.linspace(self.nu_min, self.nu_max, self.n_modes)

    @property
    def recurrence_s(self) -> float:
        """Poincare recurrence time of the discrete comb, 2*pi/dnu."""
        return TWO_PI / self.dnu

    def margin_linewidths(self, zeta: float, r: float) -> float:
        u = r * zeta
        return min(u - self.nu_min, self.nu_max - u) / (1.0 + zeta)

    def require_contains(self, zeta: float, r: float) -> None:
        m = self.margin_linewidths(zeta, r)
        if m < _MIN_MARGIN_LW:
            raise ConfigurationError(
                f"mode window margin around the shifted line is {m:.1f} local "
                f"linewidths; need >= {_MIN_MARGIN_LW}")

    @classmethod
    def for_line(cls, zeta: float, r: float, *,
                 halfwidth_linewidths: float | None = None,
                 dnu: float | None = None) -> "ModeGrid":
        """Window centered on the shifted line u = r*zeta.

        The default half-width is max(30, 0.1*r) *local* linewidths: wide
        enough that the hard-truncation rate shift gamma/(pi*W) stays under
        ~1.3% at the window floor, and growing with r so the residual shrinks
        as the pole approximation gets better.  Desk-scale r only; pass the
        width explicitly for r > 1e5 (the default would be absurd there).
        """
        if zeta <= -1.0:
            raise HorizonError(f"zeta={zeta!r} is at/below the horizon")
        gam = 1.0 + zeta
        if halfwidth_linewidths is None:
            if r > 1e5:
                raise ConfigurationError(
                    "no default window for r > 1e5; pass halfwidth_linewidths")
            halfwidth_linewidths = max(30.0, 0.1 * r)
        half = halfwidth_linewidths * gam
        if dnu is None:
            dnu = 0.025 if half <= 400.0 else _MAX_DNU
        n_intervals = math.ceil(2.0 * half / dnu)
        u = r * zeta
        return cls(nu_min=u - half, nu_max=u + half, n_modes=n_intervals + 1)


@dataclass(frozen=True)
class OracleRun:
    """Raw record of one mode-comb run."""

    zeta: float
    r: float
    grid: ModeGrid
    coupling: str
    times: np.ndarray            # recorded s, starts at 0, ends at s_max
    alpha_sq: np.ndarray         # excited-state population at those times
    beta_sq_final: np.ndarray    # per-mode emission probability at s_max
    fitted_rate: float
    fit_residual: float
    max_unitarity_defect: float


def _coupling_line(coupling: str, grid: ModeGrid, u: float, gam: float,
                   r: float) -> tuple[float, float]:
    """Squared couplings linear in the detuning: g_j^2 = p + q*(nu_j - u)."""
    # Golden-rule constraint at the line: 2*pi*g^2(u)/dnu = gam.
    base = gam * grid.dnu / TWO_PI
    if coupling == "flat":
        return base, 0.0
    if coupling == "tilted":
        # Couplings growing like the mode frequency; same value at the line.
        if r + grid.nu_min <= 0.0:
            raise ConfigurationError(
                "tilted coupling needs all mode frequencies positive "
                "(r + nu_min must stay > 0)")
        return base, base / (r + u)
    raise ConfigurationError(f"coupling must be flat|tilted, got {coupling!r}")


def _comb_sums(j: np.ndarray, d: np.ndarray, n: int, *,
               squares: bool = False):
    """S = sum_m 1/(x-m) (and T = sum_m 1/(x-m)^2) over the comb m < n.

    A point is x = j + d: inside the gap (j, j+1) when 0 < d < 1, below the
    comb when j = 0 and d < 0, above it when j = n-1 and d > 0.  The sums
    come in closed form from digamma/trigamma and the cotangent reflection,
    with the pole terms taken from d alone, so the distance to the nearest
    mode keeps full precision however large j is.
    """
    below = d < 0.0
    above = j == n - 1
    edge = below | above
    a = np.where(edge, np.abs(d), j + d + 1.0)
    b = np.where(edge, n + np.abs(d), n - j - d)
    psi = digamma(a) - digamma(b)
    # cot and 1/sin^2 have period 1; d - 1 is exact for d in (1/2, 1)
    e = np.pi * np.where(edge, 0.5, np.where(d > 0.5, d - 1.0, d))
    s = np.where(edge, np.where(above, -psi, psi), psi + np.pi / np.tan(e))
    if not squares:
        return s
    tri_a, tri_b = polygamma(1, a), polygamma(1, b)
    t = np.where(edge, tri_a - tri_b, (np.pi / np.sin(e)) ** 2 - tri_a - tri_b)
    return s, t


def _split(x):
    """x (a float or an array) as hi + lo with hi in 26 bits (Dekker): hi * k
    is exact for any integer |k| < 2^26, and so is the product of two hi or
    lo parts, which makes Dekker's product of two doubles exact."""
    scaled = 134217729.0 * x
    hi = scaled - (scaled - x)
    return hi, x - hi


def _trigamma_estimate(x: np.ndarray) -> np.ndarray:
    """psi'(x) within 0.2% for x >= 1, without polygamma: one step of
    psi'(x) = 1/x^2 + psi'(x+1), then 1/h - 1/(12 h^3) with h = x + 1/2."""
    inv = 1.0 / (x + 0.5)
    return 1.0 / (x * x) + inv * (1.0 - inv * inv / 12.0)


def _newton_gap_roots(j, d, lo, hi, n, lam0, dnu, p, q):
    """Newton passes for the gap roots 1..n-1 of ``_comb_eigen``, in place.

    In gap j the secular equation reads pi*cot(pi*d) = R - sigma with
    R = dnu*(lam + n*q)/(p + q*lam) and sigma = psi(j+d+1) - psi(n-j-d),
    both smooth in the gap, so each root is the fixed point of
    d = arccot(y)/pi, y = (R - sigma)/pi.  Newton runs on
    F(d) = d - arccot(y(d))/pi, whose sign says on which side of d the
    root lies; that keeps a [lo, hi] bracket, and a step leaving it is
    replaced by bisection.  sigma' comes from ``_trigamma_estimate``: the
    step needs it only roughly.  A root settles once its step falls to
    the rounding floor or stops shrinking; its last update is one Newton
    step on the secular equation itself, whose rounding matches bisection.
    Returns the passes made and the indices of the roots left unsettled
    after _MAX_NEWTON passes.
    """
    # lam = lam0 + dnu*(j + d) cancels near the line; with dnu split,
    # lam0 + dnu_hi*j is one rounding of nearly equal terms and keeps lam
    # to full relative precision.
    dnu_hi, dnu_lo = _split(dnu)
    slope = dnu * dnu * (p - n * q * q)  # dR/dd times (p + q*lam)^2
    live = np.arange(1, n)
    prev = np.full(n - 1, np.nan)        # last Newton step of each live root
    passes = 0
    while live.size and passes < _MAX_NEWTON:
        passes += 1
        jl, dl = j[live], d[live]
        a = (jl + 1.0) + dl
        b = (n - jl) - dl
        lam = (lam0 + dnu_hi * jl) + (dnu_lo * jl + dnu * dl)
        g = p + q * lam
        y = (dnu * (lam + n * q) / g - (digamma(a) - digamma(b))) / np.pi
        dy = (slope / (g * g) - _trigamma_estimate(a)
              - _trigamma_estimate(b)) / np.pi
        f = dl - np.arctan2(1.0, y) / np.pi
        step = f / (1.0 + dy / (np.pi * (1.0 + y * y)))
        below = f < 0.0                  # the root lies above dl
        lo_l, hi_l = lo[live], hi[live]
        lo_l[below] = dl[below]
        hi_l[~below] = dl[~below]
        lo[live], hi[live] = lo_l, hi_l
        new = dl - step
        out = (new < lo_l) | (new > hi_l)
        new[out] = 0.5 * (lo_l[out] + hi_l[out])
        size = np.abs(step)
        settled = ~out & ((size <= 4.0 * _EPS * dl) | (size >= prev))
        # d = 0 or 1 has no secular step; _comb_eigen refuses it
        fin = np.flatnonzero(settled & (dl > 0.0) & (dl < 1.0))
        df = dl[fin]
        cot = 1.0 / np.tan(np.pi * (df - (df > 0.5)))
        new[fin] = df + (cot - y[fin]) / (np.pi * (1.0 + cot * cot) + dy[fin])
        d[live] = new
        size[out] = np.nan
        prev = size[~settled]
        live = live[~settled]
    return passes, live


def _comb_eigen(grid: ModeGrid, u: float, p: float, q: float):
    """Exact eigen-solution of the comb Hamiltonian [[0, g^T], [g, diag D]].

    Its n+1 eigenvalues solve lam = sum_j g_j^2/(lam - D_j): one in each gap
    between modes and one beyond each end.  With g_j^2 = p + q*D_j the sum is
    (p + q*lam)*S/dnu - n*q.  The gap roots come from vectorized Newton
    passes on the arccot fixed point of each gap (``_newton_gap_roots``);
    bisection finds the two outer roots and any gap root Newton has not
    settled within _MAX_NEWTON passes.  Returns the roots as gap index j and
    offset d (lam = D_0 + dnu*(j + d)), the eigenvalues, the atomic weights
    w = 1/(1 + sum_j g_j^2/(lam - D_j)^2), which sum to one, the Newton
    passes made and the number of gap roots that fell back to bisection.

    Raises IntegrationError when a root is left unsettled or lies within
    rounding of a mode (d = 0 or 1), where the gap-offset form breaks down.
    """
    n, dnu = grid.n_modes, grid.dnu
    lam0 = grid.nu_min - u
    dnu_hi, dnu_lo = _split(dnu)

    def secular(j, d):
        # lam formed as in _newton_gap_roots, without the cancellation
        lam = (lam0 + dnu_hi * j) + (dnu_lo * j + dnu * d)
        return (p + q * lam) * _comb_sums(j, d, n) / dnu - n * q - lam

    # The secular function falls from +inf to -inf across every gap and
    # beyond each end; bracket the two outer roots by doubling.
    ends = np.array([0.0, n - 1.0])
    for doublings in range(64):
        reach = 2.0**doublings
        f = secular(ends, np.array([-reach, reach]))
        if f[0] > 0.0 and f[1] < 0.0:
            break
    else:
        raise IntegrationError("cannot bracket the comb's outer eigenvalues")
    j = np.arange(-1.0, n).clip(0.0, n - 1.0)
    d = np.full(n + 1, 0.5)
    lo, hi = np.zeros(n + 1), np.ones(n + 1)
    lo[0], hi[0], hi[-1] = -reach, 0.0, reach
    passes, left = _newton_gap_roots(j, d, lo, hi, n, lam0, dnu, p, q)
    rest = np.r_[0, left, n]
    j_r, lo_r, hi_r = j[rest], lo[rest], hi[rest]
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo_r + hi_r)
        if np.all((mid == lo_r) | (mid == hi_r)):
            break
        up = secular(j_r, mid) > 0.0
        lo_r = np.where(up, mid, lo_r)
        hi_r = np.where(up, hi_r, mid)
    else:
        mid = 0.5 * (lo_r + hi_r)
        open_ = int(np.count_nonzero((mid != lo_r) & (mid != hi_r)))
        raise IntegrationError(
            f"{open_} comb eigenvalues unsettled after {_MAX_BISECTIONS} "
            "bisection passes")
    d[rest] = 0.5 * (lo_r + hi_r)
    gap = d[1:-1]
    if not np.all((gap > 0.0) & (gap < 1.0)):
        raise IntegrationError(
            "coupling too weak for the gap-offset form: a comb eigenvalue "
            "lies within rounding of a mode")
    lam = lam0 + dnu * (j + d)
    s, t = _comb_sums(j, d, n, squares=True)
    w = 1.0 / (1.0 + (p + q * lam) * t / dnu**2 - q * s / dnu)
    return j, d, lam, w, passes, len(left)


def _fft_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, where numpy's FFT is fastest."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def _mode_amplitudes(d: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Cauchy sums c_m = sum_k z_k / ((j_k - m) + d_k) over the n modes m.

    The roots come as ``_comb_eigen`` returns them: one below the comb, one
    in each gap j = 0..n-2, one above.  Within _NEAR gaps of a mode the sum
    is direct, with the integer part of each distance formed first so d_k
    keeps full precision next to the poles.  Farther out, with i = j - m,

        1/(i + d) = sum_p (1/2 - d)^p / (i + 1/2)^(p+1),   |i| > _NEAR,

    whose terms fall at least like (1/33)^p; each term is one FFT
    correlation of z (1/2 - d)^p with a fixed kernel, summed in the
    frequency domain before one inverse FFT (Dutt & Rokhlin 1993).  The two
    roots outside the comb are summed directly.
    """
    n = len(d) - 1
    m = np.arange(n, dtype=float)
    c = z[0] / (d[0] - m) + z[-1] / ((n - 1.0 - m) + d[-1])
    zg, dg = z[1:-1], d[1:-1]
    for i in range(-min(_NEAR, n - 1), min(_NEAR, n - 2) + 1):
        # gaps j = m + i with 0 <= j <= n-2 and 0 <= m < n
        lo, hi = max(0, i), min(n - 1, n + i)
        c[lo - i:hi - i] += zg[lo:hi] / (i + dg[lo:hi])
    if n - 1 <= _NEAR:
        return c
    # Correlation as a convolution with the kernel at m - j in
    # [-(n-2), n-1], stored circularly; length 2n-2 keeps the wanted
    # outputs m < n free of wrap-around.
    size = _fft_len(2 * n - 2)
    lag = np.arange(2 - n, n)
    inv = np.where(np.abs(lag) > _NEAR, 1.0 / (0.5 - lag), 0.0)
    kern, kernel = inv.copy(), np.zeros(size)
    x = np.stack((zg.real, zg.imag))
    shrink = 0.5 - dg
    for p in range(_FAR_TERMS):
        kernel[lag] = kern
        term = np.fft.rfft(x, size) * np.fft.rfft(kernel)
        acc = term if p == 0 else acc + term
        x *= shrink
        kern *= inv
    far = np.fft.irfft(acc, size)[:, :n]
    return c + (far[0] + 1j * far[1])


def _taylor_terms(x: float) -> int:
    """Terms of the exponential series within _SERIES_TOL for |arg| <= x."""
    p, term = 0, 1.0
    while term > _SERIES_TOL:
        p += 1
        term *= x / p
    return p


def _alpha_trajectory(d: np.ndarray, lam: np.ndarray, w: np.ndarray,
                      times: np.ndarray, lam0: float,
                      dnu: float) -> np.ndarray:
    """alpha(s) = sum_k w_k exp(-i lam_k s) on the uniform grid ``times``.

    The roots come as ``_comb_eigen`` returns them, lam_k = lam0 +
    dnu*(j_k + d_k).  The time axis is cut into chunks of at most 2/dnu;
    exp(-i lam_k t_c) at the centre t_c of a chunk goes into the weights.
    With the gap index j counted from a central gap J and t = t_c + l*h,
    a root inside the comb then adds

        w_k exp(-i nu_c l h) exp(-i dnu h j l) exp(-i dnu (d_k - 1/2) l h)

    with nu_c = lam0 + dnu*(J + 1/2).  The middle factor is a chirp-z
    transform: jl = (j^2 + l^2 - (l-j)^2)/2 makes it one FFT convolution
    (Bluestein).  The last is a Taylor series in -i dnu l h whose argument
    stays within 1/2 on a chunk; each term is one such convolution.  The
    two roots outside the comb are evaluated directly.
    """
    n_gaps = len(d) - 2
    h = times[1] - times[0]
    theta = dnu * h
    half = min(math.floor(1.0 / theta), math.ceil((len(times) - 1) / 2))
    width = 2 * half + 1
    steps = np.arange(-half, half + 1, dtype=float)
    tau = h * steps
    gap = np.arange(n_gaps, dtype=float) - (n_gaps - 1) // 2
    # nu_c with dnu split in two 26-bit halves: each product with the
    # half-integer is exact, so nu_c keeps full precision although its
    # terms nearly cancel.  Its rounding would shift every phase alike.
    mid = 0.5 - gap[0]
    dnu_hi, dnu_lo = _split(dnu)
    nu_c = (lam0 + dnu_hi * mid) + dnu_lo * mid
    chirp_in = np.exp(-0.5j * theta * gap * gap)
    chirp_out = np.exp(-1j * nu_c * tau - 0.5j * theta * steps * steps)
    lags = np.arange(-half - gap[-1], half - gap[0] + 1)
    size = _fft_len(len(lags))
    kernel = np.zeros(size, dtype=complex)
    kernel[:len(lags)] = np.exp(0.5j * theta * lags * lags)
    kernel = np.fft.fft(kernel)
    offset = 0.5 - d[1:-1]
    terms = _taylor_terms(0.5 * dnu * half * h)
    alpha = np.empty(len(times), dtype=complex)
    for start in range(0, len(times), width):
        t = times[start:start + width]
        wk = w[1:-1] * np.exp(-1j * (h * (start + half)) * lam[1:-1])
        wk *= chirp_in
        coef = np.ones(len(t), dtype=complex)
        acc = np.zeros(len(t), dtype=complex)
        for p in range(terms):
            conv = np.fft.ifft(np.fft.fft(wk, size) * kernel)
            acc += coef * conv[n_gaps - 1:n_gaps - 1 + len(t)]
            wk *= offset
            coef *= (1j * dnu / (p + 1)) * tau[:len(t)]
        alpha[start:start + len(t)] = (
            chirp_out[:len(t)] * acc + w[0] * np.exp(-1j * lam[0] * t)
            + w[-1] * np.exp(-1j * lam[-1] * t))
    return alpha


def ww_simulate(zeta: float, r: float, grid: ModeGrid, s_max: float, *,
                coupling: str = "flat",
                coupling_scale: float = 1.0) -> OracleRun:
    """Solve the one-excitation amplitude equations on a mode comb exactly.

    In the frame rotating at the shifted line u = r*zeta the equations are

        d alpha/ds = - sum_j g_j b_j
        d b_j /ds  = - i (nu_j - u) b_j + g_j alpha

    with b_j the mode amplitude up to a phase (so |b_j|^2 = |beta_j|^2), and
    couplings normalized so sum_j 2*pi*g_j^2 * delta_dnu -> (1+zeta) at the
    line.  The generator is a real symmetric arrowhead matrix, diagonalized
    in closed form (see ``_comb_eigen``), so

        alpha(s) = sum_k w_k exp(-i lam_k s)
        |b_j(s)| = g_j |sum_k w_k exp(-i lam_k s) / (lam_k - D_j)|

    with D_j = nu_j - u: exact for the finite comb, with no pole
    approximation and no time stepping.  |alpha|^2 is recorded on a uniform
    grid with at least eight samples per period of the fastest mode
    detuning.  Both sums run over all n+1 eigenvalues at every sample or
    mode, yet cost O(n log n): the trajectory is a chirp-z transform with a
    Taylor series for the eigenvalues' offsets inside their gaps
    (``_alpha_trajectory``), the mode amplitudes are Cauchy sums done
    directly next to each mode and by a far-field expansion of FFT
    correlations beyond (``_mode_amplitudes``); both match the dense sums to
    ~1e-14.  The run aborts if the sum rule sum_k w_k = 1 or unitarity
    |alpha|^2 + sum|b|^2 = 1 at s_max is off by more than 1e-6.  Each
    coupled run logs one DEBUG record to the ``gravclock.numerics`` logger:
    the modes, the Newton passes of the root solve and the gap roots that
    fell back to bisection.
    """
    if zeta <= -1.0:
        raise HorizonError(f"zeta={zeta!r} is at/below the horizon")
    if r <= 0.0:
        raise ConfigurationError(f"r must be > 0, got {r!r}")
    if s_max <= 0.0:
        raise ConfigurationError(f"s_max must be > 0, got {s_max!r}")
    if coupling_scale < 0.0:
        raise ConfigurationError("coupling_scale must be >= 0")
    grid.require_contains(zeta, r)

    gam = 1.0 + zeta
    u = r * zeta
    p, q = _coupling_line(coupling, grid, u, gam, r)
    detuning = max(u - grid.nu_min, grid.nu_max - u)
    n_steps = math.ceil(s_max * 4.0 * detuning / math.pi)
    t_arr = np.linspace(0.0, s_max, n_steps + 1)

    if coupling_scale == 0.0:
        # decoupled atom: nothing moves
        a_arr = np.ones_like(t_arr)
        beta_sq = np.zeros(grid.n_modes)
        defect = 0.0
    else:
        p, q = coupling_scale**2 * p, coupling_scale**2 * q
        _, d, lam, w, passes, fallback = _comb_eigen(grid, u, p, q)
        _log.debug("mode comb: %d modes, %d Newton passes, %d gap roots "
                   "bisected", grid.n_modes, passes, fallback)
        alpha = _alpha_trajectory(d, lam, w, t_arr, grid.nu_min - u,
                                  grid.dnu)
        a_arr = alpha.real**2 + alpha.imag**2
        a_arr[0] = 1.0  # the initial condition, exactly
        c = _mode_amplitudes(d, w * np.exp(-1j * s_max * lam))
        g_sq = p + q * (grid.nus - u)
        beta_sq = g_sq / grid.dnu**2 * (c.real**2 + c.imag**2)
        defect = max(abs(math.fsum(w) - 1.0),
                     abs(a_arr[-1] + math.fsum(beta_sq) - 1.0))
        if not defect <= _MAX_DEFECT:
            raise IntegrationError(
                f"sum-rule/unitarity defect {defect:.3e} exceeds "
                f"{_MAX_DEFECT:g}")

    fit_hi = min(5.0, 0.8 * grid.recurrence_s, s_max)
    mask = (t_arr >= 0.5) & (t_arr <= fit_hi)
    if int(mask.sum()) >= 8:
        logs = np.log(a_arr[mask])
        slope, intercept = np.polyfit(t_arr[mask], logs, 1)
        resid = logs - (slope * t_arr[mask] + intercept)
        fitted = -float(slope)
        residual = float(np.sqrt(np.mean(resid**2)))
    else:
        fitted = math.nan
        residual = math.nan

    return OracleRun(zeta=zeta, r=r, grid=grid, coupling=coupling,
                     times=t_arr, alpha_sq=a_arr, beta_sq_final=beta_sq,
                     fitted_rate=fitted, fit_residual=residual,
                     max_unitarity_defect=defect)


def oracle_spectrum(run: OracleRun):
    """Emitted-line estimate from the final mode occupations.

    Needs the run to cover at least five local lifetimes, otherwise the
    leftover excited population (and its interference ripple across the comb)
    still distorts the line.
    """
    lifetimes = run.times[-1] * (1.0 + run.zeta)
    if lifetimes < 5.0 - 1e-9:
        raise ValidityError(
            f"run covers {lifetimes:.2f} local lifetimes; the emitted "
            "spectrum needs >= 5")
    from .analytic import SpectrumResult  # deferred: avoids an import cycle
    p = run.beta_sq_final / run.grid.dnu
    mass = float(np.sum(run.beta_sq_final))
    return SpectrumResult(nu_grid=run.grid.nus, p_values=p, total_mass=mass,
                          low_mass=bool(mass < 0.9))


def line_peak(nu: np.ndarray, p: np.ndarray) -> float:
    """Peak location with three-point parabolic refinement."""
    nu = np.asarray(nu, dtype=float)
    p = np.asarray(p, dtype=float)
    i = int(np.argmax(p))
    if i == 0 or i == len(p) - 1:
        return float(nu[i])
    y0, y1, y2 = p[i - 1], p[i], p[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(nu[i])
    shift = 0.5 * (y0 - y2) / denom
    return float(nu[i] + shift * (nu[i + 1] - nu[i]))


def line_fwhm(nu: np.ndarray, p: np.ndarray) -> float:
    """Full width at half maximum via linear interpolation of the crossings."""
    nu = np.asarray(nu, dtype=float)
    p = np.asarray(p, dtype=float)
    half = float(p.max()) / 2.0
    above = p >= half
    idx = np.nonzero(above)[0]
    if len(idx) < 2:
        raise ValidityError("line too narrow for the grid: no half-max span")
    lo_i, hi_i = int(idx[0]), int(idx[-1])

    def crossing(i_out: int, i_in: int) -> float:
        if i_out < 0 or i_out >= len(p):
            raise ValidityError("half-max crossing falls outside the grid")
        f = (half - p[i_out]) / (p[i_in] - p[i_out])
        return float(nu[i_out] + f * (nu[i_in] - nu[i_out]))

    return crossing(hi_i + 1, hi_i) - crossing(lo_i - 1, lo_i)


@dataclass(frozen=True)
class SinglePoleReport:
    """How well exp(-(1+zeta)s) tracks the mode-comb truth."""

    zeta: float
    r: float
    fitted_rate: float
    fit_residual: float
    max_rel_deviation: float
    compare_s_max: float
    truncated: bool
    run: OracleRun


def validate_single_pole(zeta: float | None = None, r: float | None = None,
                         grid: ModeGrid | None = None, s_max: float = 12.0,
                         *, coupling: str = "flat",
                         compare_up_to: float | None = None,
                         run: OracleRun | None = None) -> SinglePoleReport:
    """Compare |alpha|^2 against the exponential law.

    Either pass a finished ``run`` or the parameters to make one.  Comparison
    stops at 0.8 of the comb's recurrence time; if that cuts the requested
    horizon short the report says so via ``truncated``.
    """
    if run is None:
        if zeta is None or r is None:
            raise ConfigurationError("need either a run or (zeta, r)")
        if grid is None:
            grid = ModeGrid.for_line(zeta, r)
        run = ww_simulate(zeta, r, grid, s_max, coupling=coupling)
    horizon = float(run.times[-1])
    if compare_up_to is not None:
        if compare_up_to <= 0.0:
            raise ConfigurationError("compare_up_to must be > 0")
        horizon = min(horizon, compare_up_to)
    cap = min(horizon, 0.8 * run.grid.recurrence_s)
    truncated = cap < horizon - 1e-12
    mask = run.times <= cap + 1e-12
    model = np.exp(-(1.0 + run.zeta) * run.times[mask])
    dev = float(np.max(np.abs(run.alpha_sq[mask] - model) / model))
    return SinglePoleReport(zeta=run.zeta, r=run.r,
                            fitted_rate=run.fitted_rate,
                            fit_residual=run.fit_residual,
                            max_rel_deviation=dev, compare_s_max=cap,
                            truncated=truncated, run=run)


def single_pole_summary(report: SinglePoleReport) -> dict:
    return {"zeta": report.zeta, "r": report.r,
            "fitted_rate": report.fitted_rate,
            "fit_residual": report.fit_residual,
            "max_deviation_single_pole": report.max_rel_deviation}
