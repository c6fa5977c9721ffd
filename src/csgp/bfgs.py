"""Unconstrained minimization by BFGS, the search qaoa.optimize runs over the QAOA angles.

minimize is BFGS on a dense inverse Hessian (the QAOA search has 2p <= 128
variables) with a line search that meets the strong Wolfe conditions
(Nocedal & Wright, Numerical Optimization, 2nd ed., ch. 3 and 6).  Its
constants and stopping rules are those of L-BFGS-B (Byrd, Lu, Nocedal &
Zhu, SIAM J. Sci. Comput. 16, 1995).  It uses numpy alone, with elementwise
products and np.add.reduce sums, and makes no BLAS call.  It is a module of
its own because every csgp command imports qaoa.py: without cached bytecode
the peak memory of compiling a module grows with its length, and the
commands that never optimize would pay for these lines.
"""

from __future__ import annotations

import math

import numpy as np

LBFGS_FTOL = 1e-12  # converged when a step lowers the value by at most this, relative (L-BFGS-B's ftol)
LBFGS_GTOL = 1e-6  # or when no gradient entry exceeds this (L-BFGS-B's gtol)
WOLFE = 1e-3, 0.9  # the line search's sufficient-decrease and curvature constants (L-BFGS-B's dcsrch)
LINE_EVALS = 20  # the most value+gradient calls of one line search (L-BFGS-B's maxls)


def _cubic_step(a: tuple, b: tuple) -> float:
    """Where the cubic through the (alpha, value, slope) points a and b has its minimum, as the
    fraction t of the way from a to b (Nocedal & Wright, eq. 3.59); NaN where it has none."""
    span = b[0] - a[0]
    da, db = a[2] * span, b[2] * span
    d1 = da + db - 3.0 * (b[1] - a[1])
    disc = d1 * d1 - da * db
    d2 = math.sqrt(disc) if disc >= 0.0 else math.nan
    den = db - da + 2.0 * d2
    return 1.0 - (db + d2 - d1) / den if den else math.nan


def _wolfe(fun, x: np.ndarray, f0: float, g0: np.ndarray, d: np.ndarray, alpha: float):
    """A step from x along the descent direction d, first of length alpha, that meets the strong
    Wolfe conditions with the constants WOLFE, as (x, value, gradient); None after LINE_EVALS calls
    of fun without one (Nocedal & Wright, Alg. 3.5 and 3.6).

    lo is the lowest point yet, as (step, value, slope), that decreases the value enough (at first
    the step 0), hi a point that brackets with it a step meeting both conditions (None until one is
    found).  Until then the next trial is the minimum of the cubic through the last two lo if that
    lies 1.1 to 4 times their distance past the later one, else 4 times past; after, it is the
    cubic's minimum between lo and hi, or their midpoint where that minimum is NaN or lies outside
    the middle 80% of the bracket.
    """
    c1, c2 = WOLFE
    slope0 = float(np.add.reduce(g0 * d))
    lo, hi = (0.0, f0, slope0), None
    for _ in range(LINE_EVALS):
        x1 = x + alpha * d
        f, g = fun(x1)
        slope = float(np.add.reduce(g * d))
        if not (f <= f0 + c1 * alpha * slope0 and f < lo[1]):  # NaN lands here too
            hi = (alpha, f, slope)
        elif abs(slope) <= -c2 * slope0:
            return x1, f, g
        else:
            if slope >= 0.0 if hi is None else slope * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            last, lo = lo, (alpha, f, slope)
        if hi is None:
            t = _cubic_step(last, lo)
            alpha = last[0] + (t if 2.1 <= t <= 5.0 else 5.0) * (lo[0] - last[0])
        else:
            t = _cubic_step(lo, hi)
            alpha = lo[0] + (t if 0.1 <= t <= 0.9 else 0.5) * (hi[0] - lo[0])
    return None


def minimize(fun, x: np.ndarray, maxiter: int) -> bool:
    """Minimize fun, x -> (value, gradient), from x by BFGS on a dense inverse Hessian H for at
    most maxiter iterations; True if the run converged.

    Each iteration runs _wolfe along -H g, from the step 1 / |g| along -g at the first iteration
    (as L-BFGS-B's first) and 1 after.  H is (s'y / y'y) I before its first update (Nocedal &
    Wright, eq. 6.20), and an update whose s'y is not positive is skipped.  The stopping rules are
    L-BFGS-B's (Byrd, Lu, Nocedal & Zhu, 1995): the run has converged when no gradient entry
    exceeds LBFGS_GTOL, at x as well, or when a step lowers the value by at most LBFGS_FTOL times
    max(|f_k|, |f_k+1|, 1); it has not when maxiter iterations are done or a line search fails.
    Products are elementwise and sums np.add.reduce, with no BLAS call, so the iterates do not
    depend on the BLAS thread count.
    """
    f, g = fun(x)
    h = None
    for k in range(maxiter + 1):
        if np.max(np.abs(g), initial=0.0) <= LBFGS_GTOL:
            return True
        if k == maxiter:
            break
        d = -g if h is None else -np.add.reduce(h * g, axis=1)
        found = _wolfe(fun, x, f, g, d, 1.0 / math.sqrt(np.add.reduce(g * g)) if k == 0 else 1.0)
        if found is None:
            return False
        x1, f1, g1 = found
        if f - f1 <= LBFGS_FTOL * max(abs(f), abs(f1), 1.0):
            return True
        s, y = x1 - x, g1 - g
        sy = float(np.add.reduce(s * y))
        if sy > 0.0:
            if h is None:
                h = np.diag(np.full(len(x), sy / np.add.reduce(y * y)))
            hy = np.add.reduce(h * y, axis=1)  # H y; below, Nocedal & Wright's eq. 6.17 as outer products
            h += ((1.0 + np.add.reduce(y * hy) / sy) * s[:, None] * s - s[:, None] * hy - hy[:, None] * s) / sy
        x, f, g = x1, f1, g1
    return False
