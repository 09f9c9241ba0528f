"""scipy ``least_squares`` references for the fits in ``omclab.stats``.

``trf_fit`` runs a fit with scipy's trust-region reflective solver in place
of ``stats._least_squares``: the same model, start and scales, with the
options the fits used when they called scipy.  The optimum it reaches is the
bound the package's own solver is held to.

``fit_biexponential_multistart`` is the biexponential fit as it ran before
its closed-form start: twelve full solves from a fixed grid of starts (four
rise times in geomspace(t_min, t_max / 3) by decay/rise ratios 3, 30 and
300), keeping the lowest cost.  It is an independent check that the single
solve reaches the same optimum.  Its parameters are unpacked with
``math.exp``, as they were, so a wild trial step can raise ``OverflowError``.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from scipy import optimize

from omclab import stats

_LSQ_OPTS = dict(method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000)


def _trf(residual, jac, x0, x_scale) -> optimize.OptimizeResult:
    return optimize.least_squares(residual, x0, jac=jac, x_scale=x_scale, **_LSQ_OPTS)


def trf_fit(fit, points) -> stats.FitResult:
    """``fit(points)`` (a ``stats`` fit function) solved by scipy's trf."""
    with mock.patch.object(stats, "_least_squares", _trf):
        return fit(points)


def fit_biexponential_multistart(points) -> optimize.OptimizeResult:
    """Best of twelve ``least_squares`` runs on (t, y) points; its ``x`` holds
    (amplitude, n_i, log tau_rise, log(tau_decay - tau_rise))."""
    pts = np.asarray(points, dtype=float)
    order = np.argsort(pts[:, 0])
    t, y = pts[order, 0], pts[order, 1]

    def unpack(p):
        amp, base, log_tr, log_dq = p
        tau_r = math.exp(log_tr)
        return amp, base, tau_r, tau_r + math.exp(log_dq)

    def residual(p):
        amp, base, tau_r, tau_d = unpack(p)
        return amp * np.exp(-t / tau_d) * (-np.expm1(-t / tau_r)) + base - y

    def jac(p):
        amp, base, tau_r, tau_d = unpack(p)
        e_d = np.exp(-t / tau_d)
        rise = -np.expm1(-t / tau_r)
        d_taud = amp * e_d * rise * t / tau_d**2
        d_taur_only = -amp * e_d * np.exp(-t / tau_r) * t / tau_r**2
        return np.column_stack([e_d * rise, np.ones_like(t), tau_r * (d_taud + d_taur_only),
                                (tau_d - tau_r) * d_taud])

    base0 = float(y[-1])
    amp0 = float(y.max() - base0) or float(np.ptp(y)) or 1.0
    best = None
    for tau_r0 in np.geomspace(float(t.min()), float(t.max()) / 3, 4):
        for ratio in (3.0, 30.0, 300.0):
            p0 = np.array([amp0, base0, math.log(tau_r0), math.log(tau_r0 * ratio)])
            res = optimize.least_squares(residual, p0, jac=jac, **_LSQ_OPTS)
            if best is None or res.cost < best.cost - 1e-30:
                best = res
    return best
