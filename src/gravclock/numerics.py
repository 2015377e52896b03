"""Quadrature engines, special functions and a discretized-mode emission
oracle.

The special functions are numpy kernels, so that the library runs on numpy
alone: digamma and trigamma for arguments >= 1 (the asymptotic series from
10, a Taylor series about digamma's root and the recurrence below), an
accurate digamma difference for two large arguments, and the Voigt profile
(Weideman's rational series for the Faddeeva function, with a Gaussian
expansion through Dawson's integral for nearly Gaussian lines).

The oracle solves the one-excitation amplitude equations on a finite comb of
field modes exactly, with no pole approximation: their generator is a real
symmetric arrowhead matrix whose eigenvalues solve a secular equation with a
closed-form sum on the uniform comb.  Inside each gap between modes that
equation is a fixed point d = arccot(y(d))/pi with a smooth y, and beyond
each end of the comb the fixed point d = 1/(pi*y), so a few vectorized,
bracketed Newton passes find all the roots; the secular equation itself
gives their weights.  The trajectory and the final mode amplitudes are
sums over all eigenvalues; one FFT each evaluates them in O(n log n): a
non-uniform FFT with Gaussian gridding, and Cauchy sums by a precorrected
FFT of the exact kernel whose near field is corrected in closed form.  The
closed-form exponential decay law is checked against that solution rather
than against itself.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .model import ConfigurationError, HorizonError, ROOT_PI, \
    _require_finite, _require_positive

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)

_log = logging.getLogger(__name__)


class AccuracyError(RuntimeError):
    """A numerical path missed its own check; carries the estimate that
    missed and its bound, where the check has them."""

    def __init__(self, message: str, estimate: float = math.nan,
                 bound: float = math.inf):
        super().__init__(message)
        self.estimate = estimate
        self.bound = bound


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


def _panel_nodes(a, b) -> np.ndarray:
    """The 15 Kronrod nodes of each panel [a, b], shape a.shape + (15,)."""
    half = 0.5 * (b - a)
    return 0.5 * (a + b)[..., None] + half[..., None] * _GK_NODES


# The K15 weights and the K15 - G7 weights side by side: y @ _GK_PAIR gives
# a panel's Kronrod sum and its error estimate in one product.
_GK_PAIR = np.stack((_GK_KRONROD, _GK_KRONROD - _GK_GAUSS), axis=1)


def _kronrod(y: np.ndarray, half):
    """K15 values and |K15 - G7| bounds of panels, shape (..., m), from the
    integrands y at their nodes, shape (..., 15, m), and their half-widths
    (broadcast to shape (...))."""
    pair = np.swapaxes(y, -1, -2).reshape(-1, len(_GK_NODES)) @ _GK_PAIR
    pair = pair.reshape(y.shape[:-2] + (y.shape[-1], 2))
    pair *= np.asarray(half)[..., None, None]
    return pair[..., 0], np.abs(pair[..., 1])


def _require_finite_panels(val, err, a, b, row) -> None:
    """Raise AccuracyError for the first panel whose value or bound (shape
    a.shape + (m,)) is not finite, naming its integral (``row`` along the
    first axis) and its ends."""
    finite = np.isfinite(val) & np.isfinite(err)
    if not finite.all():
        bad = np.unravel_index(np.argmin(finite), finite.shape)
        panel = bad[:-1]
        value, bound = float(val[bad]), float(err[bad])
        raise AccuracyError(
            f"panel quadrature integral {row[panel[0]]} is non-finite: panel "
            f"[{float(a[panel])!r}, {float(b[panel])!r}] gives {value!r} "
            f"with error bound {bound!r}", estimate=value, bound=bound)


def panel_quadrature(f, a, b, val=None, err=None) -> np.ndarray:
    """Error-controlled composite Gauss-Kronrod integrals over panels.

    Integral ``i`` is the sum over the panels [a[i, j], b[i, j]] of row i;
    ``a`` and ``b`` have shape (rows, panels).  ``f(x, row)`` gets the nodes
    x of shape (k, 15) of k panels with the row of each and returns shape
    (k, 15, m): m integrands sharing the nodes.  Returns shape (rows, m).
    A caller that already holds the starting panels' K15 values and bounds
    (:func:`_kronrod`) passes them as ``val`` and ``err``, shape
    (rows, panels, m); ``f`` then only sees bisected panels.  A panel whose
    value and bound are both 0 counts nothing and is never bisected, so
    rows may be padded with such panels.

    Each panel's error bound is |K15 - G7|.  The tolerance of a component
    is _PANEL_REL_TOL times its |value|, floored at _PANEL_REL_TOL times
    the largest |value| of that component over the call's integrals at
    round 0 (the floor is what lets tails and near-zero rows pass).  While
    an integral's bounds sum past the tolerance of any of its m components,
    its largest-error panels (at most _MAX_SPLITS per round) are bisected
    until the rest would fit in half that tolerance: the left half keeps
    the panel's place and the right half goes into a new column.  After
    _MAX_ROUNDS rounds the worst integral raises AccuracyError with its
    estimate and bound.  A non-finite starting or bisected panel value or
    bound raises AccuracyError at once, naming its integral.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rows = np.arange(a.shape[0])
    if val is None:
        y = f(_panel_nodes(a, b).reshape(-1, len(_GK_NODES)),
              np.repeat(rows, a.shape[1]))
        val, err = _kronrod(y.reshape(a.shape + y.shape[1:]), 0.5 * (b - a))
    _require_finite_panels(val, err, a, b, rows)
    total, bound = val.sum(axis=1), err.sum(axis=1)
    # tiny keeps a call whose values are all 0 from dividing by 0
    floor = np.abs(total).max(axis=0, initial=np.finfo(float).tiny)
    out = np.empty_like(total)
    for rounds in range(_MAX_ROUNDS + 1):
        tol = _PANEL_REL_TOL * np.maximum(np.abs(total), floor)
        done = np.all(bound <= tol, axis=1)
        out[rows[done]] = total[done]
        if done.all():
            return out
        if rounds == _MAX_ROUNDS:
            worst = np.unravel_index(np.argmax(bound / tol), bound.shape)
            raise AccuracyError(
                f"panel quadrature error bound {bound[worst]:.3e} exceeds the "
                f"tolerance {tol[worst]:.3e} after {_MAX_ROUNDS} bisection "
                "rounds", estimate=float(total[worst]),
                bound=float(bound[worst]))
        live = ~done
        rows, a, b = rows[live], a[live], b[live]
        val, err = val[live], err[live]
        # Panels sorted by score within each integral; splitting those whose
        # score, added to every smaller one, exceeds 1/2 leaves the rest
        # within half the tolerance.  Scores clip at 1 without changing
        # that choice, which keeps the running sums exact enough.
        score = np.max(err / tol[live][:, None, :], axis=2)
        n = score.shape[1]
        # order: flat indices of each row's panels, by ascending score
        order = np.argsort(score, axis=1)
        order += np.arange(0, score.size, n)[:, None]
        run = np.cumsum(np.minimum(score.ravel()[order], 1.0), axis=1)
        split = np.zeros(score.size, dtype=bool)
        split[order] = (run > 0.5) & (np.arange(n) >= n - _MAX_SPLITS)
        i, j = np.divmod(np.flatnonzero(split), n)
        # the right half of a row's k-th bisected panel goes to new column k
        col = np.arange(len(i)) - np.searchsorted(i, i)
        left, right = a[i, j], b[i, j]
        mid = 0.5 * (left + right)
        ca, cb = np.concatenate((left, mid)), np.concatenate((mid, right))
        crow = np.concatenate((rows[i], rows[i]))
        cval, cerr = _kronrod(f(_panel_nodes(ca, cb), crow), 0.5 * (cb - ca))
        _require_finite_panels(cval, cerr, ca, cb, crow)
        b[i, j] = mid
        val[i, j], err[i, j] = cval[:len(i)], cerr[:len(i)]
        grown = []
        for old, right_half in zip((a, b, val, err),
                                   (mid, right, cval[len(i):], cerr[len(i):])):
            column = np.zeros((len(rows), col.max() + 1) + old.shape[2:])
            column[i, col] = right_half
            grown.append(np.concatenate((old, column), axis=1))
        a, b, val, err = grown
        total, bound = val.sum(axis=1), err.sum(axis=1)


# ---------------------------------------------------------------------------
# special functions: digamma, trigamma, the Voigt profile
# ---------------------------------------------------------------------------

# The asymptotic series take over from x = 10, with the Bernoulli terms
# B_2k/(2k) of digamma and B_2k of trigamma, k = 1..8; the next terms are
# below 3e-18 and 6e-18 there.
_SERIES_FROM = 10.0
_PSI_SERIES = np.array([1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                        -691 / 32760, 1 / 12, -3617 / 8160])
_TRIGAMMA_SERIES = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                             -691 / 2730, 7 / 6, -3617 / 510])
# Digamma's positive root x0 as a double-double, and its Taylor
# coefficients about x0, (-1)^(k+1) zeta(k+1, x0) for k = 1..38: made by
# tools/kernel_coefficients.py.
_PSI_ROOT = (1.4616321449683622, 9.549995429965697e-17)
_PSI_TAYLOR = np.array([
    0.9676722454476212, -0.4427631689835921, 0.258499760955651,
    -0.16394270544240652, 0.10782405069126237, -0.07219956125645471,
    0.04880428816414311, -0.03316112647484736, 0.022597648232218104,
    -0.01542476590494896, 0.010538791616612175, -0.007204534386356869,
    0.004926781395729853, -0.003369801655439328, 0.002305126326734928,
    -0.0015769367714301972, 0.0010788252019162967, -0.0007380709389960052,
    0.000504953265834602, -0.0003454680251063077, 0.00023635601564027053,
    -0.00016170622091974803, 0.0001106337276874741, -7.569179582195066e-05,
    5.178575795222081e-05, -3.5430070947659604e-05, 2.424006611860132e-05,
    -1.6584242271854135e-05, 1.134638458466385e-05, -7.762817668462094e-06,
    5.3110609208898636e-06, -3.6336507898010456e-06, 2.486022733129538e-06,
    -1.7008538854332607e-06, 1.1636675363548843e-06, -7.96142543124197e-07,
    5.446941930669446e-07, -3.7266161283438227e-07])


def _horner(z: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] z^k, in place on one scratch array."""
    acc = np.full_like(z, coef[-1])
    for c in coef[-2::-1]:
        acc *= z
        acc += c
    return acc


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """x^0 .. x^(count-1) as rows, so that one matrix product sums a
    series: half the array passes of Horner's rule."""
    out = np.empty((count, x.size))
    out[0] = 1.0
    for k in range(1, count):
        np.multiply(out[k - 1], x, out=out[k])
    return out


def _psi_tail(x: np.ndarray) -> np.ndarray:
    """sum_k B_2k / (2k x^2k), k = 1..8: digamma's asymptotic series past
    log(x) - 1/(2x)."""
    z = 1.0 / (x * x)
    tail = _horner(z, _PSI_SERIES)
    tail *= z
    return tail


def digamma(x) -> np.ndarray:
    """psi(x) for an array x >= 1 (smaller x are not supported), within
    ~3e-16 of max(1, |psi|).

    From x = 10 the asymptotic series log(x) - 1/(2x) - sum B_2k/(2k x^2k).
    The few smaller arguments are taken out and written x = t + m with
    t in [1, 2): psi(t) from its Taylor series about the root x0, which
    keeps relative precision where psi(t) passes through zero, plus the
    recurrence sum 1/t + ... + 1/(t+m-1), whose terms are all positive.
    """
    shape = np.shape(x)
    x = np.ravel(np.asarray(x, dtype=float))
    out = np.log(x)
    out -= 0.5 / x
    out -= _psi_tail(x)
    small = np.flatnonzero(x < _SERIES_FROM)
    if small.size:
        xs = x[small]
        m = np.floor(xs)
        t = xs - m + 1.0          # exact: xs and m are within a factor 2
        g = (t - _PSI_ROOT[0]) - _PSI_ROOT[1]
        steps = np.arange(_SERIES_FROM - 2.0)
        shifted = np.where(steps < (m - 1.0)[:, None],
                           1.0 / (t[:, None] + steps), 0.0)
        out[small] = (_PSI_TAYLOR @ _powers(g, len(_PSI_TAYLOR) + 1)[1:]
                      + shifted.sum(axis=1))
    return out.reshape(shape)


def trigamma(x) -> np.ndarray:
    """psi'(x) for an array x >= 1 (smaller x are not supported), within
    ~4e-16 of max(1, psi').

    From x = 10 the asymptotic series 1/x + 1/(2x^2) + sum B_2k/x^(2k+1);
    smaller arguments are shifted past 10 by psi'(x) = psi'(x+1) + 1/x^2,
    whose terms are all positive.
    """
    shape = np.shape(x)
    x = np.ravel(np.asarray(x, dtype=float))
    inv = 1.0 / x
    z = inv * inv
    out = _horner(z, _TRIGAMMA_SERIES)
    out *= z
    out += 0.5 * inv + 1.0
    out *= inv
    small = np.flatnonzero(x < _SERIES_FROM)
    if small.size:
        xs = x[small]
        shifted = xs[:, None] + np.arange(_SERIES_FROM - 1.0)
        below = shifted < _SERIES_FROM
        terms = np.where(below, 1.0 / (shifted * shifted), 0.0)
        top = xs + below.sum(axis=1)
        out[small] = trigamma(top) + terms.sum(axis=1)
    return out.reshape(shape)


def digamma_span(a, span: float) -> np.ndarray:
    """psi(a + span) - psi(a) for an array a >= 1 and an exact span >= 0.

    Where a >= 10 the difference is taken term by term from the asymptotic
    series, log1p(span/a) + span/(2 a b) - (tail(b) - tail(a)) with
    b = a + span, so it keeps relative precision where the two digammas
    nearly cancel; elsewhere psi(a) <= psi(10) and the plain difference
    loses nothing.
    """
    shape = np.shape(a)
    a = np.ravel(np.asarray(a, dtype=float))
    b = a + span
    out = digamma(b) - digamma(a)
    big = np.flatnonzero(a >= _SERIES_FROM)
    if big.size:
        ab, bb = a[big], b[big]
        out[big] = (np.log1p(span / ab) + 0.5 * span / (ab * bb)
                    - (_psi_tail(bb) - _psi_tail(ab)))
    return out.reshape(shape)


# Below this y = gamma/(sigma sqrt 2) the Voigt profile is its expansion to
# second order in y (see _gauss_real), whose terms left out, ~y^3, are
# below 1e-21 of the line; Weideman's series would leave ~5e-11 relative
# errors in the Gaussian wings there.
_VOIGT_GAUSS_Y = 1e-7
# Terms of Weideman's series: 36 would leave 3e-12 relative at y = 0.02,
# where 40 leave 2e-13.
_WEIDEMAN_N = 40
# The slope 1 - 2x D(x) of Dawson's integral D as N(x^2)/Q(x^2), a rational
# form that keeps D ~ 1/(2x): within 3e-12 relative in D for |x| <= 4.5 and
# 1.3e-8 in the slope beyond, made by tools/kernel_coefficients.py.
_DAWSON_NQ = np.array([
    [1.0, -1.2983977449335038, 0.17132195436697858, -0.026237173276982127,
     0.0005901416198540143, -0.00011498124484184872, -4.051218041726904e-06,
     -3.741616153249351e-07, -2.0036014682825045e-08, -7.758127121213986e-10,
     -3.9901348086715116e-11, -2.7556287664438833e-19],
    [1.0, 0.7016022550680561, 0.24119313094562397, 0.05401275176288272,
     0.008831703571582956, 0.001119421873693434, 0.00011382320780300427,
     9.485975702911482e-06, 6.448065631568138e-07, 3.799671326405763e-08,
     1.4302371050856556e-09, 7.980541865162812e-11]])
# x^2 is capped at 1e16, far below where its 11th power overflows: the form
# stays within 4e-9 of the slope, which is ~-1/(2x^2), from there on.
_DAWSON_S_MAX = 1e16


@cache
def _weideman_coefficients() -> tuple[float, np.ndarray]:
    """L and the ascending coefficients a_k, k < N, of Weideman's rational
    series

        w(z) = 2 sum_k a_k Z^k / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)),
        Z = (L + iz)/(L - iz),  L = sqrt(N/sqrt 2),

    from one FFT of exp(-t^2)(L^2 + t^2) at t = L tan(theta/2)
    (J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497-1518, 1994)."""
    n = _WEIDEMAN_N
    m = 2 * n
    k = np.arange(1 - m, m)
    half = math.sqrt(n / math.sqrt(2.0))
    t = half * np.tan(k * np.pi / (2 * m))
    f = np.r_[0.0, np.exp(-t * t) * (half * half + t * t)]
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return half, a[1:n + 1].copy()


def _faddeeva_real(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re w(x + iy) for y > 0 by Weideman's N = 40 series, within ~1e-15
    absolute; Horner's rule runs in place over the whole array."""
    half, a = _weideman_coefficients()
    big_z = 1j * x - y                  # iz
    den = np.reciprocal(half - big_z)
    big_z += half
    big_z *= den
    p = np.full_like(big_z, a[-1])
    for c in a[-2::-1]:
        p *= big_z
        p += c
    p *= den
    p *= 2.0
    p += 1.0 / ROOT_PI
    p *= den
    return p.real


def _dawson_slope(s: np.ndarray) -> np.ndarray:
    """D'(x) = 1 - 2x D(x) of Dawson's integral D, an even function, at
    s = x^2: within 3e-12 relative in D for |x| <= 4.5, 1.3e-8 absolute
    beyond."""
    shape = s.shape
    n, q = _DAWSON_NQ @ _powers(np.minimum(s.ravel(), _DAWSON_S_MAX),
                                _DAWSON_NQ.shape[1])
    n /= q
    return n.reshape(shape)


def _gauss_real(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re w(x + iy) for 0 <= y <= 1e-7: its expansion in y,

        exp(-x^2) (1 + y^2 (1 - 2x^2)) - (2y/sqrt(pi)) (1 - 2x D(x)),

    to within O(y^3), D being Dawson's integral.  |x| is capped at 1e150,
    where x^2 would overflow: the line is below 1e-300 there either way."""
    x2 = np.square(np.clip(x, -1e150, 1e150))
    out = 1.0 - 2.0 * x2
    out *= y * y
    out += 1.0
    out *= np.exp(-x2)
    out -= (2.0 / ROOT_PI) * y * _dawson_slope(x2)
    return out


def voigt_profile(x, sigma: float, gamma) -> np.ndarray:
    """The Voigt profile, a unit-area Gaussian of standard deviation sigma
    convolved with a Lorentzian of half-width gamma, at offsets x; gamma
    broadcasts against x (one per row, say) and must be > 0, as sigma.

    V = Re w(z) / (sigma sqrt(2 pi)), z = (x + i gamma)/(sigma sqrt 2).
    Where y = Im z > 1e-7, Re w comes from Weideman's series
    (``_faddeeva_real``); below, from its expansion about the real axis
    (``_gauss_real``), where Weideman's series would leave ~5e-11 relative
    errors in the Gaussian wings.
    """
    scale = 1.0 / (math.sqrt(2.0) * sigma)
    u = np.asarray(x, dtype=float) * scale
    v = np.broadcast_to(np.asarray(gamma, dtype=float) * scale, u.shape)
    gauss = v <= _VOIGT_GAUSS_Y
    if not gauss.any():
        out = _faddeeva_real(u, v)
    elif gauss.all():
        out = _gauss_real(u, v)
    else:
        out = np.empty(u.shape)
        out[gauss] = _gauss_real(u[gauss], v[gauss])
        out[~gauss] = _faddeeva_real(u[~gauss], v[~gauss])
    out *= scale / ROOT_PI
    return out


# ---------------------------------------------------------------------------
# mode grid and oracle
# ---------------------------------------------------------------------------

_MAX_DNU = 0.05          # coarsest spacing that still resolves the line
_MIN_MARGIN_LW = 25.0    # window margin around the shifted line, in linewidths
_MAX_DEFECT = 1e-6       # largest defect of a run's checks (ww_simulate)
_FIT_SAMPLES = 8         # fewest samples the decay-rate fit takes
# Passes of the root solver before it gives up.  Default combs settle in
# four, far stronger or weaker couplings in ~16; bisection alone would
# close a bracket 2^20 gaps wide to adjacent floats around any |d| >= 2^-60
# within 20 + 60 + 52 passes.
_MAX_PASSES = 200
# Taps on either side of a root's cell in the trajectory's Gaussian gridding
# at oversampling 2: aliasing leaves ~exp(-2 pi _TAPS/3) of sum|w|, 2.3e-14.
_TAPS = 15
# The mode amplitudes' precorrected FFT: _NODES integer nodes q interpolate
# the kernel 1/(i + d) in d, lags within _BAND of a mode are added directly
# and the rest by one FFT, and every offset whose Lagrange error bound
# exceeds _NEAR_TOL (of its root's |z|) is corrected in closed form: the 28
# offsets at the nodes and 3 beyond them on either side.  Measured against
# the dense sums, |c|^2 is within 5.0e-14 relative on every dense-reference
# case of the suite (the worst at 1000 times the golden-rule coupling) and
# within 1.1e-14 at r = 1e4.  Without the band, 1/t rounded on the FFT next
# to t = 0 left 1.8e-13 at r = 1e4.  Correcting 6 offsets on either side
# instead of 3 moved no case measurably: their bound, 7.1e-15 at the
# first one left out, lies under the FFT's own rounding.
_NODES = 28
_BAND = 8
_NEAR_TOL = 1e-14


def _interpolation_tables():
    """The Cauchy kernel's nodes and their closed-form corrections.

    The nodes are q = q0 .. q0 + _NODES - 1, q0 = 1 - _NODES/2, paired as
    q and 1 - q about d = 1/2.  With P(d) = prod_q (d - q) and barycentric
    weights omega_k = 1/P'(q_k), the interpolant of 1/(i + d) is
    sum_k L_k(d)/(i + q_k), L_k(d) = P(d) omega_k/(d - q_k), taking the
    node at q_k = -i as 0.  Its error has two closed forms: at an offset
    where -i = q_k it is L_k(d) (1/(d + i) - gamma_k), gamma_k = L_k'(q_k)
    = sum_{p != k} 1/(q_k - q_p); beyond the nodes it is
    (-1)^N P(d)/((i + d) prod_q (i + q)).  Returns q0, omega, gamma and,
    for the offsets beyond the nodes whose error bound max |P|/(min |i + d|
    |prod_q (i + q)|) over 0 <= d <= 1 exceeds _NEAR_TOL, the pairs
    (-i, (-1)^N/prod_q (i + q)) in ascending order.  The products are
    exact integers, so omega and the pairs' coefficients are correctly
    rounded.
    """
    q0 = 1 - _NODES // 2
    nodes = range(q0, q0 + _NODES)
    # node k has k nodes below it and N - 1 - k above, at unit steps
    omega = [(-1)**(_NODES - 1 - k) / (math.factorial(k)
                                        * math.factorial(_NODES - 1 - k))
             for k in range(_NODES)]
    gamma = [math.fsum([1 / i for i in range(1, k + 1)]
                       + [-1 / i for i in range(1, _NODES - k)])
             for k in range(_NODES)]
    # |P| peaks at d = 1/2, where each pair's |d(d - 1) + q(1 - q)| does
    p_max = math.prod(abs(qp * (1 - qp) - 0.25) for qp in nodes if qp > 0)
    beyond = []
    for q, step in ((q0 - 1, -1), (q0 + _NODES, 1)):
        while True:
            span = math.prod(qp - q for qp in nodes)
            if p_max / min(abs(q), abs(q - 1)) / abs(span) <= _NEAR_TOL:
                break
            beyond.append((q, (-1)**_NODES / span))
            q += step
    return q0, np.array(omega), np.array(gamma), tuple(sorted(beyond))


_NODE0, _OMEGA, _GAMMA, _BEYOND = _interpolation_tables()


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

    @property
    def trusted_s(self) -> float:
        """How long the comb stands in for the continuum: 0.8 of its
        recurrence time."""
        return 0.8 * self.recurrence_s

    def require_contains(self, zeta: float, r: float) -> None:
        u = r * zeta
        m = min(u - self.nu_min, self.nu_max - u) / (1.0 + zeta)
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
        if _require_finite("zeta", zeta) <= -1.0:
            raise HorizonError(f"zeta={zeta!r} is at/below the horizon")
        _require_positive("r", r)
        gam = 1.0 + zeta
        if halfwidth_linewidths is None:
            if r > 1e5:
                raise ConfigurationError(
                    "no default window for r > 1e5; pass halfwidth_linewidths")
            halfwidth_linewidths = max(30.0, 0.1 * r)
        _require_positive("halfwidth_linewidths", halfwidth_linewidths)
        half = halfwidth_linewidths * gam
        if dnu is None:
            dnu = 0.025 if half <= 400.0 else _MAX_DNU
        _require_positive("dnu", dnu)
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

    def single_pole_deviation(self, up_to: float | None = None
                              ) -> tuple[float, float, bool]:
        """How well exp(-(1+zeta)s) tracks |alpha|^2.

        Returns the largest relative deviation, the s it was taken up to and
        whether the comb's trusted horizon (``ModeGrid.trusted_s``) cut the
        comparison short of ``up_to`` (default: the whole run).  Where the
        exponential underflows to 0 the deviation is inf, without a warning.
        """
        horizon = float(self.times[-1])
        if up_to is not None:
            if up_to <= 0.0:
                raise ConfigurationError("up_to must be > 0")
            horizon = min(horizon, up_to)
        cap = min(horizon, self.grid.trusted_s)
        truncated = cap < horizon - 1e-12
        mask = self.times <= cap + 1e-12
        model = np.exp(-(1.0 + self.zeta) * self.times[mask])
        with np.errstate(divide="ignore", over="ignore"):
            dev = float(np.max(np.abs(self.alpha_sq[mask] - model) / model))
        return dev, cap, truncated


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


def _comb_sums(j: np.ndarray, d: np.ndarray, n: int):
    """S = sum_m 1/(x-m) and T = sum_m 1/(x-m)^2 over the comb m < n.

    A point is x = j + d: inside the gap (j, j+1) when 0 < d < 1, below the
    comb when j = 0 and d < 0, above it when j = n-1 and d > 0.  The sums
    come in closed form from digamma/trigamma at arguments >= 1 and the
    cotangent reflection, with the pole terms (1/d beyond the comb) taken
    from d alone, so the distance to the nearest mode keeps full precision
    however large j is.  Beyond the comb the digamma difference psi(1+|d|)
    - psi(n+|d|) comes from :func:`digamma_span`, which keeps its relative
    precision when |d| is large and the two nearly cancel.
    """
    shape = np.shape(d)
    j, d = np.ravel(j), np.ravel(d)
    below = d < 0.0
    above = j == n - 1
    edge = below | above
    a = np.where(edge, 1.0 + np.abs(d), j + d + 1.0)
    b = np.where(edge, n + np.abs(d), n - j - d)
    psi = digamma(a) - digamma(b)
    ends = np.flatnonzero(edge)
    psi[ends] = -digamma_span(a[ends], n - 1.0)
    # cot and 1/sin^2 have period 1; d - 1 is exact for d in (1/2, 1)
    e = np.pi * np.where(edge, 0.5, np.where(d > 0.5, d - 1.0, d))
    pole = 1.0 / np.where(edge, d, 1.0)
    s = np.where(edge, np.where(above, -psi, psi) + pole,
                 psi + np.pi / np.tan(e))
    tri_a, tri_b = trigamma(a), trigamma(b)
    t = np.where(edge, pole * pole + tri_a - tri_b,
                 (np.pi / np.sin(e)) ** 2 - tri_a - tri_b)
    return s.reshape(shape), t.reshape(shape)


def _split(x):
    """x (a float or an array) as hi + lo with hi in 26 bits (Dekker): hi * k
    is exact for any integer |k| < 2^26, and so is the product of two hi or
    lo parts, which makes Dekker's product of two doubles exact."""
    scaled = 134217729.0 * x
    hi = scaled - (scaled - x)
    return hi, x - hi


def _trigamma_estimate(x: np.ndarray) -> np.ndarray:
    """psi'(x) within 0.2% for x >= 1, at a fraction of trigamma's cost: one
    step of psi'(x) = 1/x^2 + psi'(x+1), then 1/h - 1/(12 h^3) with
    h = x + 1/2."""
    inv = 1.0 / (x + 0.5)
    return 1.0 / (x * x) + inv * (1.0 - inv * inv / 12.0)


def _newton_roots(j, d, lo, hi, n, lam0, dnu, p, q):
    """Newton passes for all n+1 roots of ``_comb_eigen``, in place.

    With g = p + q*lam and R = dnu*(lam + n*q)/g the secular equation reads
    P(d) = R - sigma: P is the pole term of S next to the root, sigma the
    smooth rest.  In gap j, P = pi*cot(pi*d) and sigma = psi(j+d+1) -
    psi(n-j-d); Newton runs on the fixed point F(d) = d - arccot(y)/pi,
    y = (R - sigma)/pi.  Beyond the comb, P = 1/d and sigma =
    +-(psi(1+|d|) - psi(n+|d|)), + below, from :func:`digamma_span` so
    that it keeps its relative precision for large |d|; Newton runs on the
    fixed point d = 1/(pi*y) times pi*y*g, smooth where 1/(pi*y) is steep
    (a bound state far from the comb) or g passes 0.  Either function's sign says on which side
    of d the root lies; that keeps a [lo, hi] bracket, and a step leaving it
    bisects instead.  sigma' comes from ``_trigamma_estimate``: the step
    needs it only roughly.  A root settles once its step reaches the
    rounding floor, with one last Newton step on the secular equation
    itself, whose rounding matches bisection, or once its bracket closes to
    adjacent floats, at their midpoint.  Returns the passes made; raises
    AccuracyError past _MAX_PASSES.
    """
    # lam = lam0 + dnu*(j + d) cancels near the line; with dnu split,
    # lam0 + dnu_hi*j is one rounding of nearly equal terms and keeps lam
    # to full relative precision.
    dnu_hi, dnu_lo = _split(dnu)
    slope = dnu * dnu * (p - n * q * q)  # dR/dd times g^2
    live = np.arange(n + 1)
    passes = 0
    while live.size:
        if passes == _MAX_PASSES:
            raise AccuracyError(
                f"{live.size} comb eigenvalues unsettled after {_MAX_PASSES} "
                "passes")
        passes += 1
        jl, dl = j[live], d[live]
        a = (jl + 1.0) + dl
        b = (n - jl) - dl
        # positions of the live outer roots, and whether each lies above
        # the comb; their sigma takes psi at 1 + |d| and n + |d|
        ends = [(k, up) for k, up in ((0, False), (live.size - 1, True))
                if live[k] == (n if up else 0)]
        for k, up in ends:
            (b if up else a)[k] = 1.0 + abs(dl[k])
        lam = (lam0 + dnu_hi * jl) + (dnu_lo * jl + dnu * dl)
        g = p + q * lam
        sigma = digamma(a) - digamma(b)
        if ends:
            k_ends = [k for k, _ in ends]
            span = digamma_span(1.0 + np.abs(dl[k_ends]), n - 1.0)
            sigma[k_ends] = np.where([up for _, up in ends], span, -span)
        y = (dnu * (lam + n * q) / g - sigma) / np.pi
        tri_a, tri_b = _trigamma_estimate(a), _trigamma_estimate(b)
        dy = (slope / (g * g) - tri_a - tri_b) / np.pi
        f = dl - np.arctan2(1.0, y) / np.pi
        step = f / (1.0 + dy / (np.pi * (1.0 + y * y)))
        rise = f < 0.0                   # the root lies above dl
        for k, up in ends:
            # d*den - g, den = pi*y*g: -d times the secular function
            # (times dnu), with no division by g
            dk, gk, sk = dl[k], g[k], sigma[k]
            ds = (tri_a[k] - tri_b[k]) if up else (tri_b[k] - tri_a[k])
            den = dnu * (lam[k] + n * q) - gk * sk
            fk = dk * den - gk
            dfk = den + dk * (dnu * dnu - q * dnu * sk - gk * ds) - q * dnu
            step[k] = fk / dfk if dfk else math.inf
            rise[k] = (fk > 0.0) != up
        lo_l, hi_l = lo[live], hi[live]
        lo_l[rise] = dl[rise]
        hi_l[~rise] = dl[~rise]
        lo[live], hi[live] = lo_l, hi_l
        new = dl - step
        # Only the rounding floor settles a root: a step may grow on the way
        # in.  A step that lands on or past the bracket's ends bisects it
        # instead, which also breaks cycles between neighbours a few ulps
        # apart.
        settled = np.abs(step) <= 4.0 * _EPS * np.abs(dl)
        out = ~(settled | ((lo_l < new) & (new < hi_l)))
        # d = 0 or 1 has no secular step; _comb_eigen refuses it
        gap = settled & (dl > 0.0) & (dl < 1.0)
        near = [k for k, _ in ends if settled[k]]
        gap[near] = False
        fin = np.flatnonzero(gap)
        df = dl[fin]
        cot = 1.0 / np.tan(np.pi * (df - (df > 0.5)))
        new[fin] = df + (cot - y[fin]) / (np.pi * (1.0 + cot * cot) + dy[fin])
        if near:
            s, t = _comb_sums(jl[near], dl[near], n)
            gn, ln = g[near], lam[near]
            new[near] = dl[near] - ((gn * s / dnu - n * q - ln)
                                    / (q * s - gn * t / dnu - dnu))
        bis = np.flatnonzero(out)
        mid = 0.5 * (lo_l[bis] + hi_l[bis])
        new[bis] = mid
        settled[bis] = (mid == lo_l[bis]) | (mid == hi_l[bis])
        d[live] = new
        live = live[~settled]
    return passes


def _comb_eigen(grid: ModeGrid, u: float, p: float, q: float):
    """Exact eigen-solution of the comb Hamiltonian [[0, g^T], [g, diag D]].

    Its n+1 eigenvalues solve lam = sum_j g_j^2/(lam - D_j): one in each gap
    between modes and one beyond each end.  With g_j^2 = p + q*D_j the sum is
    (p + q*lam)*S/dnu - n*q.  Vectorized Newton passes find all of them
    (``_newton_roots``), each inside a bracket: a gap root in its gap,
    starting at its middle, and an outer root between its end mode, where
    it starts, and Weyl's bound.  The coupling [[0, g^T], [g, 0]] has norm
    |g| = sqrt(n*p + q*sum_j D_j), so the lowest eigenvalue lies in
    [min(0, D_0) - |g|, D_0] and the highest in [D_{n-1}, max(0, D_{n-1})
    + |g|].  Returns the roots as gap index j and offset d, the eigenvalues
    lam = D_0 + dnu*(j + d), formed with dnu split as in the Newton passes,
    the atomic weights w = 1/(1 + sum_j g_j^2/(lam - D_j)^2), which sum to
    one, and the passes made.  With g = p + q*lam that sum is g*T/dnu^2 -
    q*S/dnu, T = sum_m 1/(x - m)^2.  At a gap root the secular equation
    gives S = dnu*(lam + n*q)/g, and T = pi^2/sin^2(pi*d) - psi'(j + d + 1)
    - psi'(n - j - d); the two outer roots take both sums from
    ``_comb_sums``.

    Raises AccuracyError when a root is left unsettled or lies within
    rounding of a mode (d = 0 or 1), where the gap-offset form breaks down.
    """
    n, dnu = grid.n_modes, grid.dnu
    lam0 = grid.nu_min - u
    top = lam0 + (n - 1) * dnu
    norm = math.sqrt(n * (p + q * 0.5 * (lam0 + top)))
    j = np.arange(-1.0, n).clip(0.0, n - 1.0)
    d = np.r_[0.0, np.full(n - 1, 0.5), 0.0]
    lo = np.r_[(min(0.0, lam0) - norm - lam0) / dnu, np.zeros(n)]
    hi = np.r_[0.0, np.ones(n - 1), (max(0.0, top) + norm - top) / dnu]
    passes = _newton_roots(j, d, lo, hi, n, lam0, dnu, p, q)
    gap = d[1:-1]
    if not np.all((gap > 0.0) & (gap < 1.0)):
        raise AccuracyError(
            "coupling too weak for the gap-offset form: a comb eigenvalue "
            "lies within rounding of a mode")
    dnu_hi, dnu_lo = _split(dnu)
    lam = (lam0 + dnu_hi * j) + (dnu_lo * j + dnu * d)
    g = p + q * lam
    # The outer roots' g may be small or negative, so only the gap roots
    # take S from the secular equation.  pi^2/sin^2 is pi^2 + (pi cot)^2:
    # numpy's tan is several times faster than its sin.
    jg, lg, gg = j[1:-1], lam[1:-1], g[1:-1]
    cot = np.pi / np.tan(np.pi * (gap - (gap > 0.5)))
    t = ((cot * cot + np.pi**2) - trigamma((jg + 1.0) + gap)
         - trigamma((n - jg) - gap))
    w = np.empty(n + 1)
    w[1:-1] = 1.0 / (1.0 + gg * t / dnu**2 - q * (lg + n * q) / gg)
    ends = [0, n]
    s, t = _comb_sums(j[ends], d[ends], n)
    w[ends] = 1.0 / (1.0 + g[ends] * t / dnu**2 - q * s / dnu)
    return j, d, lam, w, passes


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


def _grid_len(samples: int) -> int:
    """Trajectory grid cells: twice the 2*samples frequencies, 5-smooth."""
    return _fft_len(4 * samples)


def _alpha_trajectory(d: np.ndarray, lam: np.ndarray, w: np.ndarray,
                      times: np.ndarray, lam0: float,
                      dnu: float) -> np.ndarray:
    """alpha(s) = sum_k w_k exp(-i lam_k s) on the uniform grid ``times``.

    The roots come as ``_comb_eigen`` returns them, lam_k = lam0 +
    dnu*(j_k + d_k).  alpha(l h) is a type-1 non-uniform FFT of the phases
    lam_k h (Greengard & Lee 2004): each weight is spread over a periodic
    grid of M >= 4(L+1) cells, for the samples 0..L, by a Gaussian on the
    _TAPS cells either side of its own, made of one exp(-beta o^2) at its
    offset o from that cell and powers of exp(2 beta o); one real FFT of
    the grid gives alpha(l h) exp(-l^2 tau), which is divided out.  A gap
    root's cell comes from (j_k, d_k) with dnu h M/(2 pi) split in two
    (``_split``), so it keeps full precision where its terms cancel.
    """
    samples, size = len(times), _grid_len(len(times))
    per_lam = (times[1] - times[0]) * size / TWO_PI   # cells per unit lam
    step = dnu * per_lam
    step_hi, step_lo = _split(step)
    j = np.arange(len(d) - 2.0)
    pos = lam * per_lam
    pos[1:-1] = (lam0 * per_lam + step_hi * j) + (step_lo * j
                                                 + step * d[1:-1])
    cell = np.rint(pos)
    off = pos - cell
    cell = (cell % size).astype(np.intp)
    beta = 0.75 * math.pi / _TAPS
    up = w * np.exp(-beta * off * off)
    rise = np.exp(2.0 * beta * off)
    down, fall = up.copy(), 1.0 / rise
    # padded[_TAPS + c] collects cell c; the taps may wrap more than once
    padded = np.zeros(size + 2 * _TAPS)
    padded[_TAPS:_TAPS + size] = np.bincount(cell, up, minlength=size)
    for m in range(1, _TAPS + 1):
        tap = math.exp(-beta * m * m)
        up *= rise
        down *= fall
        padded[_TAPS + m:_TAPS + m + size] += tap * np.bincount(
            cell, up, minlength=size)
        padded[_TAPS - m:_TAPS - m + size] += tap * np.bincount(
            cell, down, minlength=size)
    grid = np.bincount((np.arange(len(padded)) - _TAPS) % size, padded,
                       minlength=size)
    tau = math.pi**2 / (beta * size * size)
    ell = np.arange(samples, dtype=float)
    return np.fft.rfft(grid)[:samples] * (
        math.sqrt(math.pi / tau) / size * np.exp(tau * ell * ell))


def _cauchy_len(n: int) -> int:
    """The mode amplitudes' FFT length on n modes."""
    return _fft_len(2 * n + _NODES)


def _mode_amplitudes(d: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Cauchy sums c_m = sum_k z_k / ((j_k - m) + d_k) over the n modes m.

    The roots come as ``_comb_eigen`` returns them: one below the comb, one
    in each gap j = 0..n-2, one above.  The outer two are summed directly.
    The gap roots go through a precorrected FFT (Phillips & White 1997):
    interpolated in d on integer nodes q (barycentric Lagrange, see
    ``_interpolation_tables``), root k puts z_k L_q(d_k) at the lag
    j_k + q -- one shifted add per node -- and the lags are correlated
    with the exact kernel 1/t, K(0) = 0: those within _BAND of a mode by
    shifted adds, the rest by one FFT.  Where the interpolant is off, at
    the offsets i = j - m next to the root, closed forms correct it: at
    -i = q_k the correction shares 1/(d - q_k) with the node's spreading,
    so it rides in the same loop, and beyond the nodes it is a multiple
    of P(d)/(i + d).  The nodes pair as q and 1 - q, so P(d) is a product
    of d(d - 1) + q(1 - q), which keeps relative precision next to d = 0
    and 1.
    """
    n = len(d) - 1
    dg = d[1:-1]
    x = np.stack((z[1:-1].real, z[1:-1].imag))
    e = dg * (dg - 1.0)
    pair = e.copy()
    for q in range(2, 1 - _NODE0 + 1):
        pair *= e + q * (1 - q)
    x *= pair                       # z_k P(d_k)
    # every pass below writes into a buffer: a fresh temporary of 2n
    # doubles costs more than the arithmetic on it
    f, buf = np.empty(n - 1), np.empty((2, n))
    u = buf[:, 1:]
    size = _cauchy_len(n)
    y = np.zeros((2, size))         # y[:, s] holds lag s + q0
    # near[:, s] holds the corrections of mode s + lo, out its modes
    lo = min(_NODE0, _BEYOND[0][0])
    hi = max(_NODE0 + _NODES - 1, _BEYOND[-1][0])
    near = np.zeros((2, n - 1 + hi - lo))
    out = near[:, -lo:n - lo]
    for k in range(_NODES):
        np.subtract(dg, _NODE0 + k, out=f)
        np.divide(1.0, f, out=f)
        np.multiply(x, _OMEGA[k] * f, out=u)
        y[:, k:k + n - 1] += u
        f -= _GAMMA[k]
        u *= f
        s = _NODE0 + k - lo
        near[:, s:s + n - 1] += u
    for q, coef in _BEYOND:
        np.subtract(dg, q, out=f)
        np.divide(coef, f, out=f)
        np.multiply(x, f, out=u)
        near[:, q - lo:q - lo + n - 1] += u
    for t in range(1, _BAND + 1):
        np.subtract(y[:, t - _NODE0:t - _NODE0 + n],
                    y[:, -t - _NODE0:-t - _NODE0 + n], out=buf)
        buf *= 1.0 / t
        out += buf
    # the kernel 1/t at t = q0 - l, l = m - s, stored circularly at l:
    # l spans 3 - n - _NODES .. n - 1 within size >= 2n - 2 + _NODES, and
    # the band's l = q0 - _BAND .. q0 + _BAND are all negative
    first = 3 - n - _NODES
    kernel = np.zeros(size)
    kernel[:n] = np.arange(_NODE0, _NODE0 - n, -1.0)
    kernel[first:] = np.arange(_NODE0 - first, _NODE0, -1.0)
    kernel[_NODE0 - _BAND:_NODE0 + _BAND + 1] = 0.0
    np.divide(1.0, kernel, out=kernel, where=kernel != 0.0)
    spectrum = np.fft.rfft(y)
    spectrum *= np.fft.rfft(kernel)
    out += np.fft.irfft(spectrum, size, out=y)[:, :n]
    # the two roots beyond the comb, directly
    m = np.arange(n, dtype=float)
    c = z[0] / (d[0] - m)
    c += z[-1] / ((n - 1.0 - m) + d[-1])
    c.real += out[0]
    c.imag += out[1]
    return c


def _run_times(grid: ModeGrid, u: float, s_max: float) -> np.ndarray:
    """The times a run on ``grid`` records |alpha|^2 at, from 0 to s_max:
    ceil(s_max * 4 * detuning / pi) equal steps, with detuning the largest
    mode detuning from the shifted line u = r*zeta."""
    detuning = max(u - grid.nu_min, grid.nu_max - u)
    n_steps = math.ceil(s_max * 4.0 * detuning / math.pi)
    return np.linspace(0.0, s_max, n_steps + 1)


def _fit_mask(times: np.ndarray, grid: ModeGrid) -> np.ndarray:
    """The samples of a run's ``times`` the decay-rate fit takes: those in
    [0.5, min(5, trusted_s, s_max)]."""
    return (times >= 0.5) & (times <= min(5.0, grid.trusted_s, times[-1]))


def ww_simulate(zeta: float, r: float, grid: ModeGrid, s_max: float, *,
                coupling: str = "flat") -> OracleRun:
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
    mode, yet cost O(n log n) with one FFT each: a gridded non-uniform FFT
    (``_alpha_trajectory``) and Cauchy sums by a precorrected FFT
    (``_mode_amplitudes``); both match the dense sums to ~1e-14.  The run
    aborts, naming each check that missed, if any of these is off by more
    than 1e-6: the sum rule sum_k w_k = 1, unitarity |alpha|^2 + sum|b|^2 =
    1 at s_max, the trajectory's own alpha(0) against sum_k w_k, and the
    moments sum_k w_k lam_k = 0 (relative to sum_k |w_k lam_k|) and
    sum_k w_k lam_k^2 = sum_j g_j^2 (relative), which are <0|H|0> and
    <0|H^2|0>.  ``max_unitarity_defect`` records the first two.  Each run
    logs one DEBUG record to the ``gravclock.numerics`` logger: the modes,
    the passes of the root solve, the trajectory grid's cells and taps a
    root, and the Cauchy kernel's nodes, lags banded, offsets corrected
    and FFT length.
    """
    if _require_finite("zeta", zeta) <= -1.0:
        raise HorizonError(f"zeta={zeta!r} is at/below the horizon")
    _require_positive("r", r)
    _require_positive("s_max", s_max)
    grid.require_contains(zeta, r)

    gam = 1.0 + zeta
    u = r * zeta
    p, q = _coupling_line(coupling, grid, u, gam, r)
    t_arr = _run_times(grid, u, s_max)

    _, d, lam, w, passes = _comb_eigen(grid, u, p, q)
    n = grid.n_modes
    _log.debug("mode comb: %d modes, %d Newton passes; grid %d cells, %d "
               "taps; Cauchy kernel on %d nodes, %d lags banded, %d offsets "
               "corrected, FFT %d", n, passes, _grid_len(len(t_arr)),
               2 * _TAPS + 1, _NODES, 2 * _BAND, _NODES + len(_BEYOND),
               _cauchy_len(n))
    alpha = _alpha_trajectory(d, lam, w, t_arr, grid.nu_min - u, grid.dnu)
    a_arr = alpha.real**2 + alpha.imag**2
    a_arr[0] = 1.0  # the initial condition, exactly
    c = _mode_amplitudes(d, w * np.exp(-1j * s_max * lam))
    g_sq = p + q * (grid.nus - u)
    beta_sq = g_sq / grid.dnu**2 * (c.real**2 + c.imag**2)
    # numpy's pairwise sums round by ~1e-15 here, far below _MAX_DEFECT
    total = np.sum(w)
    sum_rule = float(abs(total - 1.0))
    unitarity = float(abs(a_arr[-1] + np.sum(beta_sq) - 1.0))
    wl = w * lam
    sum_g_sq = np.sum(g_sq)
    checks = {
        "sum rule sum(w) = 1": sum_rule,
        "unitarity |alpha|^2 + sum|b|^2 = 1": unitarity,
        # the trajectory's own alpha(0), which a_arr[0] replaces by 1
        "trajectory alpha(0) = sum(w)": abs(alpha[0] - total),
        # <0|H|0> and <0|H^2|0> of the generator
        "first moment sum(w lam) = 0": abs(np.sum(wl)) / np.sum(np.abs(wl)),
        "second moment sum(w lam^2) = sum(g^2)":
            abs(np.sum(wl * lam) - sum_g_sq) / sum_g_sq,
    }
    missed = {name: value for name, value in checks.items()
              if not value <= _MAX_DEFECT}
    if missed:
        raise AccuracyError(
            "; ".join(f"{name} defect {value:.3e} exceeds {_MAX_DEFECT:g}"
                      for name, value in missed.items()),
            float(np.max(list(missed.values()))), _MAX_DEFECT)
    defect = max(sum_rule, unitarity)

    mask = _fit_mask(t_arr, grid)
    if int(mask.sum()) >= _FIT_SAMPLES:
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
        raise AccuracyError(
            f"run covers {lifetimes:.2f} local lifetimes; the emitted "
            "spectrum needs >= 5", float(lifetimes), 5.0)
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
        raise AccuracyError("line too narrow for the grid: no half-max span")
    lo_i, hi_i = int(idx[0]), int(idx[-1])

    def crossing(i_out: int, i_in: int) -> float:
        if i_out < 0 or i_out >= len(p):
            raise AccuracyError("half-max crossing falls outside the grid")
        f = (half - p[i_out]) / (p[i_in] - p[i_out])
        return float(nu[i_out] + f * (nu[i_in] - nu[i_out]))

    return crossing(hi_i + 1, hi_i) - crossing(lo_i - 1, lo_i)
