"""Estimators and least-squares fits for pulsed photon-counting data.

Covers the windowed cross-correlation estimator g2(dn) with likelihood-based
confidence intervals (built for the few-coincidence regime, where Gaussian
error bars are wrong and intervals come out asymmetric), plus the three model
fits the analysis pipeline needs: Lorentzian resonance with a linear
background, two-exponential heating response, and a straight line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# scipy.optimize is imported in the functions that call it: it takes about
# 0.5 s to load, which every command that never fits or solves for an
# interval would otherwise pay at start-up.


class UndefinedEstimateError(ValueError):
    """The estimator is undefined for these counts (e.g. no clicks at all)."""


@dataclass(frozen=True)
class G2Estimate:
    """Normalized write-read coincidence ratio at sequence offset delta_n."""

    delta_n: int
    value: float
    ci_low: float
    ci_high: float
    counts: tuple[int, int, int, int]  # (n_coinc, n_write, n_read, n_pairs)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("g2 estimate must be non-negative")
        if not (self.ci_low <= self.value <= self.ci_high):
            raise ValueError("g2 interval must bracket the point estimate")


@dataclass(frozen=True)
class FitResult:
    """Least-squares result: named parameters, errors, and diagnostics.

    ``converged`` False means the parameters are unreliable (non-convergence
    or a degenerate model, e.g. zero-amplitude data).
    """

    model: str
    params: dict[str, float]
    stderr: dict[str, float]
    residual_norm: float
    converged: bool
    n_points: int

    def __post_init__(self):
        if any(e < 0 for e in self.stderr.values()):
            raise ValueError("standard errors must be non-negative")


# --- g2 cross-correlation ------------------------------------------------------


def _sorted_distinct(idx: np.ndarray) -> np.ndarray:
    """``idx`` sorted with repeats dropped; returned as is if it already is.

    Sort and neighbour comparison, not ``np.unique``, which hashes.
    """
    if np.any(idx[1:] <= idx[:-1]):
        idx = np.sort(idx)
        keep = np.ones(idx.size, dtype=bool)
        keep[1:] = idx[1:] != idx[:-1]
        idx = idx[keep]
    return idx


def _isin_sorted(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Whether each of ``values`` occurs in the sorted array ``idx``."""
    if not idx.size:
        return np.zeros(values.shape, dtype=bool)
    hit = np.minimum(np.searchsorted(idx, values), idx.size - 1)
    return idx[hit] == values


def _n_common(a: np.ndarray, b: np.ndarray) -> int:
    """How many values two sorted, distinct arrays share.

    A stable sort of the two runs back to back is a single merge; a shared
    value then sits next to itself.
    """
    merged = np.sort(np.concatenate((a, b)), kind="stable")
    return int(np.count_nonzero(merged[1:] == merged[:-1]))


def _clicked_sequences(batch, label: str) -> np.ndarray:
    """Sorted distinct sequence indices holding a ``label`` click, computed
    once per batch and label (a batch's arrays are read-only)."""
    memo = batch._clicked
    if label not in memo:
        memo[label] = _sorted_distinct(batch.sequence_index[batch.pulse_label == label])
        memo[label].flags.writeable = False
    return memo[label]


def _within(idx: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The part of sorted ``idx`` inside [lo, hi); ``hi`` may exceed int64."""
    start = np.searchsorted(idx, lo)
    stop = idx.size if not idx.size or hi > int(idx[-1]) else np.searchsorted(idx, hi)
    return idx[start:stop]


def g2_crosscorr(batch, delta_n: int, level: float = 0.68) -> G2Estimate:
    """Write-read correlation between sequences offset by delta_n.

    value = P(write in sequence i and read in sequence i + delta_n) divided
    by the product of the marginal click probabilities, all estimated over
    the usable sequence pairs.  Counts come from the sorted clicked-sequence
    indices, found once per batch for every offset, so the cost scales with
    the clicks, not with ``n_sequences``.
    The confidence interval comes from ``coincidence_ci``.
    """
    n_seq = int(batch.n_sequences)
    if n_seq <= abs(delta_n):
        raise ValueError("g2: need more sequences than the requested offset")
    # usable pairs: write i in [w_lo, w_hi), read i + delta_n in [0, n_seq)
    w_lo, w_hi = max(0, -delta_n), n_seq - max(0, delta_n)
    w = _within(_clicked_sequences(batch, "write"), w_lo, w_hi)
    r = _within(_clicked_sequences(batch, "read"), w_lo + delta_n, w_hi + delta_n)
    n_pairs = w_hi - w_lo
    n_w, n_r = w.size, r.size
    if n_w == 0 or n_r == 0:
        raise UndefinedEstimateError(
            f"g2(dn={delta_n:+d}) undefined: {n_w} usable write clicks, {n_r} usable read clicks"
        )
    n_c = _n_common(w + delta_n, r)
    value = (n_c / n_pairs) / ((n_w / n_pairs) * (n_r / n_pairs))
    lo, hi = coincidence_ci(n_c, n_w, n_r, n_pairs, level=level)
    return G2Estimate(delta_n=delta_n, value=value, ci_low=lo, ci_high=hi,
                      counts=(n_c, n_w, n_r, n_pairs))


def coincidence_ci(n_coinc: int, n_w: int, n_r: int, n_seq: int,
                   level: float = 0.68) -> tuple[float, float]:
    """Likelihood interval on g2 from a binomial model of the coincidences.

    The coincidence count is binomial in the number of sequence pairs; the
    marginal rates are fixed at their point estimates.  The interval is the
    set of coincidence probabilities whose log likelihood stays within
    chi2(level, 1)/2 of the maximum, mapped through the g2 definition.  At
    zero observed coincidences the interval is one-sided [0, upper).
    """
    if not (0 <= n_coinc <= min(n_w, n_r) <= n_seq):
        raise ValueError("coincidence_ci: inconsistent counts")
    if n_w == 0 or n_r == 0:
        raise UndefinedEstimateError("coincidence_ci: zero marginal counts")
    if not (0 < level < 1):
        raise ValueError("coincidence_ci: level must lie in (0, 1)")
    # chi2(level, 1) quantile, the square of the two-sided normal quantile
    delta = NormalDist().inv_cdf((1 + level) / 2) ** 2 / 2.0
    n = n_seq
    k = n_coinc

    def log_lik(p: float) -> float:
        if p <= 0.0:
            return 0.0 if k == 0 else -math.inf
        if p >= 1.0:
            return 0.0 if k == n else -math.inf
        return k * math.log(p) + (n - k) * math.log1p(-p)

    p_hat = k / n
    l_max = log_lik(p_hat)
    target = l_max - delta

    if k == 0:
        p_lo = 0.0
        p_hi = -math.expm1(-delta / n)  # exact root of n*log(1-p) = -delta
    else:
        from scipy import optimize

        tiny = min(p_hat, 1.0 / n) * 1e-12
        xtol = p_hat * 1e-16  # relative: an absolute one swallows a tiny interval
        p_lo = optimize.brentq(lambda p: log_lik(p) - target, tiny, p_hat,
                               xtol=xtol, rtol=1e-13)
        if k == n:
            p_hi = 1.0
        else:
            p_hi = optimize.brentq(lambda p: log_lik(p) - target, p_hat, 1.0 - 1e-15,
                                   xtol=xtol, rtol=1e-13)

    scale = (n_w / n) * (n_r / n)
    return p_lo / scale, p_hi / scale


# --- least-squares fitting -----------------------------------------------------

_LSQ_OPTS = dict(method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000)


def _finish_fit(model: str, names, res, n_points: int,
                transform=None, x_scale=None) -> FitResult:
    """Standard errors from the jacobian; flags degenerate/unconverged fits.

    ``x_scale`` carries the characteristic parameter magnitudes so that the
    identifiability test is insensitive to unit choices.
    """
    scale = np.ones(len(names)) if x_scale is None else np.asarray(x_scale, dtype=float)
    jac_scaled = res.jac * scale[None, :]
    resid = res.fun
    dof = max(n_points - len(names), 1)
    sigma2 = float(resid @ resid) / dof
    _, sv, vt = np.linalg.svd(jac_scaled, full_matrices=False)
    degenerate = sv[0] == 0 or sv[-1] / sv[0] < 1e-12
    if degenerate:
        cov = np.full((len(names), len(names)), np.nan)
    else:
        # covariance of the unscaled parameters
        cov = (scale[:, None] * (vt.T / sv**2) @ vt * scale[None, :]) * sigma2
    params_int = res.x
    if transform is not None:
        params_ext, cov = transform(params_int, cov)
    else:
        params_ext = params_int
    stderr = np.sqrt(np.clip(np.diag(cov), 0.0, None)) if not degenerate else np.zeros(len(names))
    converged = bool(res.status > 0) and not degenerate
    return FitResult(
        model=model,
        params={name: float(v) for name, v in zip(names, params_ext)},
        stderr={name: float(e) for name, e in zip(names, stderr)},
        residual_norm=float(np.linalg.norm(resid)),
        converged=converged,
        n_points=n_points,
    )


def fit_linear(points) -> FitResult:
    """Ordinary least squares line y = slope * x + intercept."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        raise ValueError("linear fit: need at least two (x, y) points")
    x, y = pts[:, 0], pts[:, 1]
    if np.ptp(x) == 0:
        raise ValueError("linear fit: degenerate (all x identical)")
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    sigma2 = float(resid @ resid) / (n - 2) if n > 2 else 0.0
    stderr = {
        "slope": math.sqrt(sigma2 / sxx),
        "intercept": math.sqrt(sigma2 * (1.0 / n + xm**2 / sxx)),
    }
    return FitResult(model="linear",
                     params={"slope": slope, "intercept": intercept},
                     stderr=stderr,
                     residual_norm=float(np.linalg.norm(resid)),
                     converged=True, n_points=n)


def _lorentzian_model(x, center, fwhm, height, slope, intercept):
    u = (x - center) / (fwhm / 2.0)
    return intercept + slope * x + height / (1.0 + u * u)


def fit_lorentzian_with_offset(points) -> FitResult:
    """Lorentzian resonance on a linear background.

    Model: y = intercept + slope*x + height / (1 + ((x-center)/(fwhm/2))^2);
    ``height`` is signed (negative for a reflection dip) and ``fwhm`` is
    directly comparable to a linewidth.  Initialization scans for the
    extremum against the edge-estimated background and its half-maximum
    crossings.  Flat data yields a flagged (converged=False) result.
    """
    from scipy import optimize

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 6 or pts.shape[1] != 2:
        raise ValueError("lorentzian fit: need at least six (x, y) points")
    order = np.argsort(pts[:, 0])
    x, y = pts[order, 0], pts[order, 1]
    span = np.ptp(x)
    if span == 0:
        raise ValueError("lorentzian fit: degenerate (all x identical)")

    # background from the outer quarter of points on each side
    n_edge = max(2, len(x) // 4)
    edge = np.r_[np.arange(n_edge), np.arange(len(x) - n_edge, len(x))]
    base = fit_linear(np.column_stack([x[edge], y[edge]]))
    slope0, icpt0 = base.params["slope"], base.params["intercept"]

    resid0 = y - (slope0 * x + icpt0)
    peak = int(np.argmax(np.abs(resid0)))
    height0 = float(resid0[peak])
    center0 = float(x[peak])
    half = abs(height0) / 2.0
    above = np.abs(resid0) >= half
    if above.any() and height0 != 0:
        xs = x[above]
        fwhm0 = float(max(xs.max() - xs.min(), span / len(x)))
    else:
        fwhm0 = span / 6.0

    def residual(p):
        return _lorentzian_model(x, *p) - y

    def jac(p):
        center, fwhm, height, slope, intercept = p
        hw = fwhm / 2.0
        u = (x - center) / hw
        denom = (1.0 + u * u) ** 2
        d_center = height * 2.0 * u / (hw * denom)
        d_fwhm = height * u * u / (hw * denom)
        d_height = 1.0 / (1.0 + u * u)
        return np.column_stack([d_center, d_fwhm, d_height, x, np.ones_like(x)])

    p0 = np.array([center0, fwhm0, height0, slope0, icpt0])
    y_scale = max(np.ptp(y), abs(height0), 1e-30)
    x_scale = np.array([fwhm0, fwhm0, y_scale, y_scale / span, y_scale])
    res = optimize.least_squares(residual, p0, jac=jac, x_scale=x_scale, **_LSQ_OPTS)
    names = ("center", "fwhm", "height", "offset_slope", "offset_intercept")
    out = _finish_fit("lorentzian", names, res, len(x), x_scale=x_scale)
    # normalize the sign convention: fwhm reported positive
    if out.params["fwhm"] < 0:
        out.params["fwhm"] = -out.params["fwhm"]
    return out


def _biexp_unpack(p):
    """(amplitude, n_i, tau_rise, tau_decay); a time constant past the float64
    range makes both nan, so ``least_squares`` sees non-finite residuals for
    that trial step and shrinks it."""
    amp, base, log_tr, log_dq = p
    with np.errstate(over="ignore"):
        tau_r = np.exp(log_tr)
        tau_d = tau_r + np.exp(log_dq)
    if not np.isfinite(tau_d):
        tau_r = tau_d = np.float64(np.nan)
    return amp, base, tau_r, tau_d


def _biexp_residual(p, t, y):
    amp, base, tau_r, tau_d = _biexp_unpack(p)
    return amp * np.exp(-t / tau_d) * (-np.expm1(-t / tau_r)) + base - y


def _biexp_jac(p, t, _y):
    # _y: least_squares passes the jacobian the residual's arguments
    amp, base, tau_r, tau_d = _biexp_unpack(p)
    delta_q = tau_d - tau_r
    e_d = np.exp(-t / tau_d)
    e_r = np.exp(-t / tau_r)
    rise = -np.expm1(-t / tau_r)
    d_amp = e_d * rise
    d_base = np.ones_like(t)
    with np.errstate(over="ignore"):
        d_taud = amp * e_d * rise * t / tau_d**2   # shared by tau_r and delta
        d_taur_only = -amp * e_d * e_r * t / tau_r**2
    d_log_tr = tau_r * (d_taud + d_taur_only)
    d_log_dq = delta_q * d_taud
    return np.column_stack([d_amp, d_base, d_log_tr, d_log_dq])


def _biexp_start(t, y):
    """Internal parameters at the least-cost point of a (tau_rise, tau_decay) grid:
    12 rise times in geomspace(t_min, t_max / 3) by 12 decay/rise ratios in
    geomspace(1.5, 1e4).  Amplitude and baseline enter linearly (variable
    projection, Golub & Pereyra 1973), so at each point a centred two-parameter
    solve gives them and the point's cost."""
    tau_r = np.repeat(np.geomspace(t[0], t[-1] / 3, 12), 12)
    tau_d = tau_r * np.tile(np.geomspace(1.5, 1e4, 12), 12)
    shape = np.exp(-t / tau_d[:, None]) * -np.expm1(-t / tau_r[:, None])
    centred = shape - shape.mean(axis=1, keepdims=True)
    s_gg = np.einsum("kn,kn->k", centred, centred)
    s_gy = centred @ (y - y.mean())
    amp = np.divide(s_gy, s_gg, out=np.zeros_like(s_gy), where=s_gg > 0)
    best = int(np.argmax(amp * s_gy))  # cost = sum((y - mean)^2) - amp * s_gy
    base = y.mean() - amp[best] * shape[best].mean()
    return np.array([amp[best], base, math.log(tau_r[best]),
                     math.log(tau_d[best] - tau_r[best])])


def fit_biexponential(points) -> FitResult:
    """Two-exponential heating response A*exp(-t/tau_decay)*(1-exp(-t/tau_rise)) + n_i.

    The rise/decay exchange degeneracy is handled by parameterizing
    tau_decay = tau_rise + delta (delta > 0) internally.  One least-squares
    solve runs from the closed-form start of ``_biexp_start``.  Its domain:
    tau_rise >= t_min, tau_decay / tau_rise >= 5, tau_decay <= t_max / 2 and
    noise up to 5%.  There the fit reaches the cost of a 12-start search
    over the same decades to 1e-6 relative; outside it the start may sit in
    a worse basin.
    Zero-amplitude data leaves the time constants unidentifiable and is
    flagged via converged=False.
    """
    from scipy import optimize

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 8 or pts.shape[1] != 2:
        raise ValueError("biexponential fit: need at least eight (t, y) points")
    if np.any(pts[:, 0] <= 0):
        raise ValueError("biexponential fit: times must be positive")
    order = np.argsort(pts[:, 0])
    t, y = pts[order, 0], pts[order, 1]

    res = optimize.least_squares(_biexp_residual, _biexp_start(t, y), jac=_biexp_jac,
                                 args=(t, y), **_LSQ_OPTS)
    names = ("amplitude", "n_i", "tau_rise", "tau_decay")

    def transform(p, cov):
        amp, base, tau_r, tau_d = _biexp_unpack(p)
        delta_q = tau_d - tau_r
        # delta method: d(tau_r)/d(log_tr) = tau_r; tau_d depends on both logs
        grad = np.array([
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, tau_r, 0],
            [0, 0, tau_r, delta_q],
        ], dtype=float)
        return np.array([amp, base, tau_r, tau_d]), grad @ cov @ grad.T

    return _finish_fit("biexponential", names, res, len(t), transform=transform)
