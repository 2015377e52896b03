"""Print the fitted and tabulated constants of the numpy special-function
kernels in ``gravclock.numerics``, computed with mpmath at 40 digits.

    python tools/kernel_coefficients.py

Prints Python literals to paste over the tables in numerics.py:

* ``_PSI_ROOT``: the positive root x0 = 1.4616... of digamma as a
  double-double (hi, lo).
* ``_PSI_TAYLOR``: the Taylor coefficients of digamma about x0,
  psi(x0 + g) = sum_k (-1)^(k+1) zeta(k+1, x0) g^k, k = 1..38.  On [1, 2)
  |g| <= 0.54, where the 39th term is below 1e-17.
* ``_DAWSON_NQ``: the slope 1 - 2x D(x) of Dawson's integral D as
  N(x^2)/Q(x^2), from a fit D(x) = x P(x^2)/Q(x^2) of degrees 10 and 11,
  Q(0) = 1, so that D ~ 1/(2x) for large x; N = Q - 2 s P is formed at 40
  digits.  The fit runs Loeb's iteration (weighted linear least squares,
  each pass divided by the last Q) on 300 Chebyshev points of [0, 5] and
  80 points log-spaced on (5, 200], to relative error weighted 1 for
  |x| <= 4.5 and 1e-3 beyond: the Voigt kernel needs D to ~1e-11 where its
  line is at least 1e-6 of its maximum (|x| < 3.8) and only ~4e-8 of the
  slope elsewhere.  The largest relative error of D on |x| <= 4.5 and
  absolute error of the slope beyond are printed last (~3e-12, ~1.3e-8).

The asymptotic-series coefficients of digamma and trigamma (Bernoulli
numbers) are exact rationals, written out in numerics.py directly.  The fit
takes a few minutes.
"""
import mpmath as mp

mp.mp.dps = 40

TAYLOR_TERMS = 38
DAWSON_DEGREES = (10, 11)   # of P and Q
DAWSON_EDGE = 5             # Chebyshev points on [0, DAWSON_EDGE]
DAWSON_FAR = 200            # log-spaced points on (DAWSON_EDGE, DAWSON_FAR]
DAWSON_BAND = mp.mpf("4.5")  # weight 1 up to here, DAWSON_FAR_WEIGHT beyond
DAWSON_FAR_WEIGHT = mp.mpf("1e-3")
FIT_POINTS = 300
FAR_POINTS = 80
FIT_PASSES = 10


def dawson(x):
    return mp.sqrt(mp.pi) / 2 * mp.exp(-x * x) * mp.erfi(x)


def digamma_tables():
    root = mp.findroot(mp.digamma, mp.mpf("1.46"))
    hi = float(root)
    lo = float(root - hi)
    taylor = [float((-1) ** (k + 1) * mp.zeta(k + 1, root))
              for k in range(1, TAYLOR_TERMS + 1)]
    return (hi, lo), taylor


def dawson_fit():
    """Loeb's iteration for x P(s)/Q(s) ~ D(x), s = x^2, Q(0) = 1: each
    pass solves the linear least-squares problem P - F Q = 0 weighted by
    1/(F Q_prev), F = D(x)/x, which tends to the relative-error fit.
    Returns the slope's numerator N = Q - 2 s P and Q, and the errors."""
    m, k = DAWSON_DEGREES
    xs = [DAWSON_EDGE * (1 - mp.cos(mp.pi * (i + mp.mpf(1) / 2) / FIT_POINTS))
          / 2 for i in range(FIT_POINTS)]
    xs += [DAWSON_EDGE * mp.power(mp.mpf(DAWSON_FAR) / DAWSON_EDGE,
                                  mp.mpf(i) / FAR_POINTS)
           for i in range(1, FAR_POINTS + 1)]
    ss = [x * x for x in xs]
    fs = [dawson(x) / x for x in xs]
    weights = [1 if x <= DAWSON_BAND else DAWSON_FAR_WEIGHT for x in xs]
    q_prev = [mp.mpf(1)] * len(xs)
    for _ in range(FIT_PASSES):
        rows, rhs = [], []
        for s, f, qp, wt in zip(ss, fs, q_prev, weights):
            w = wt / (f * qp)
            rows.append([w * s**j for j in range(m + 1)]
                        + [-w * f * s**j for j in range(1, k + 1)])
            rhs.append(w * f)
        sol, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        p = [sol[j] for j in range(m + 1)]
        q = [mp.mpf(1)] + [sol[m + 1 + j] for j in range(k)]
        q_prev = [mp.polyval(q[::-1], s) for s in ss]
    near = max(abs(mp.polyval(p[::-1], s) / qp / f - 1)
               for s, f, qp, x in zip(ss, fs, q_prev, xs) if x <= DAWSON_BAND)
    far = max(abs(2 * s * (mp.polyval(p[::-1], s) / qp - f))
              for s, f, qp, x in zip(ss, fs, q_prev, xs) if x > DAWSON_BAND)
    n = [q[j] - 2 * (p[j - 1] if 0 < j <= m + 1 else 0) for j in range(k + 1)]
    return [float(c) for c in n], [float(c) for c in q], near, far


def literal(name, values):
    body = ",\n    ".join(repr(v) for v in values)
    return f"{name} = np.array([\n    {body}])"


def main():
    (hi, lo), taylor = digamma_tables()
    print(f"_PSI_ROOT = ({hi!r}, {lo!r})")
    print(literal("_PSI_TAYLOR", taylor))
    n, q, near, far = dawson_fit()
    print(literal("_DAWSON_NQ", [n, q]))
    print(f"# Dawson fit: relative error of D {mp.nstr(near, 3)} on "
          f"|x| <= {DAWSON_BAND}, slope error {mp.nstr(far, 3)} beyond")

if __name__ == "__main__":
    main()
