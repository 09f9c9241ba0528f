"""Pulsed sideband scattering: probabilities, rates, thermometry, coupling.

The central quantity is the per-pulse scattering probability p_s of the
state-swap (red) and pair-creation (blue) interactions, driven by a pulse of
energy E_p arriving at the device (i.e. after fiber coupling losses, before
the cavity).  Detected click rates per pulse follow

    rate_red  = p_s_read  * n_th       * eta_det
    rate_blue = p_s_write * (n_th + 1) * eta_det

and the red/blue asymmetry yields the thermal occupation n_th.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    HBAR,
    Frequency,
    MechanicalMode,
    OpticalCavity,
    Side,
)
from .stats import fit_linear

# Above this the exponential forms stop being trustworthy: the drive is no
# longer undepleted and dynamical backaction matters.
P_S_VALIDITY_CEILING = 0.5


def scattering_exponent(pulse_energy_at_device: float, g0: Frequency,
                        cavity: OpticalCavity, mode: MechanicalMode) -> float:
    """Weak-coupling exponent x = 4 eta_dev g0^2 E_p / (hbar w_c (w_m^2 + (kappa/2)^2)).

    Also the small-p_s linearization of both sideband probabilities.
    """
    if pulse_energy_at_device < 0:
        raise ValueError("scattering: pulse energy must be non-negative")
    two_pi = 2 * math.pi
    eta_dev = cavity.kappa_e / cavity.kappa
    numerator = 4 * eta_dev * (two_pi * g0) ** 2 * pulse_energy_at_device
    denominator = HBAR * two_pi * cavity.f_c * (
        (two_pi * mode.f_m) ** 2 + (two_pi * cavity.kappa / 2) ** 2
    )
    return numerator / denominator


def scattering_probability(side: Side, pulse_energy_at_device: float, g0: Frequency,
                           cavity: OpticalCavity, mode: MechanicalMode) -> float:
    """Per-pulse scattering probability for a red or blue sideband drive.

    red: 1 - exp(-x); blue: exp(x) - 1, with x from ``scattering_exponent``.
    Raises ``ValueError`` above p_s = 0.5, where the undepleted-drive
    assumption behind both forms has broken down.
    """
    x = scattering_exponent(pulse_energy_at_device, g0, cavity, mode)
    if side == "red":
        p = -math.expm1(-x)
    elif side == "blue":
        p = math.expm1(x)
    else:
        raise ValueError(f"scattering: unknown side {side!r}")
    if p > P_S_VALIDITY_CEILING:
        raise ValueError(
            f"scattering: p_s={p:.3g} exceeds the validity ceiling {P_S_VALIDITY_CEILING}"
        )
    return p


def occupation_from_counts(clicks_r: int, pulses_r: int, p_s_read: float,
                           clicks_b: int, pulses_b: int, p_s_write: float,
                           eta_det: float) -> tuple[float, float]:
    """Thermal occupation n_th = gamma_r / (gamma_b - gamma_r) from click counts,
    with its standard error.

    Each side's rate is normalized by its own p_s * eta_det, so the red and
    blue pulses may differ in power.  The error propagates the independent
    Poisson errors of the two rates, sigma_r = sqrt(max(clicks_r, 1)) /
    pulses_r / (p_s_read * eta_det) and likewise sigma_b:
    sqrt((gamma_b * sigma_r)^2 + (gamma_r * sigma_b)^2) / (gamma_b - gamma_r)^2.
    """
    if min(pulses_r, pulses_b) <= 0:
        raise ValueError("asymmetry: pulse counts must be positive")
    if min(p_s_read, p_s_write, eta_det) <= 0:
        raise ValueError("asymmetry: p_s and eta_det must be positive")
    norm_r = p_s_read * eta_det
    norm_b = p_s_write * eta_det
    gamma_r = clicks_r / pulses_r / norm_r
    gamma_b = clicks_b / pulses_b / norm_b
    if gamma_b <= gamma_r:
        raise ValueError(
            "asymmetry: gamma_b <= gamma_r is unphysical; check the p_s and "
            "eta_det each side's counts are normalized by"
        )
    sigma_r = math.sqrt(max(clicks_r, 1)) / pulses_r / norm_r
    sigma_b = math.sqrt(max(clicks_b, 1)) / pulses_b / norm_b
    diff = gamma_b - gamma_r
    n_th = gamma_r / diff
    err = math.sqrt((gamma_b * sigma_r) ** 2 + (gamma_r * sigma_b) ** 2) / diff**2
    return n_th, err


def g0_from_calibration(points, cavity: OpticalCavity,
                        mode: MechanicalMode) -> tuple[Frequency, Frequency]:
    """Coupling rate g0 (Hz) and its standard error from an (E_p, x) calibration.

    ``x`` is the scattering exponent of each pulse (``scattering_exponent``:
    ``-log(1 - p_s)`` for red, ``log(1 + p_s)`` for blue), which is exactly
    linear in the pulse energy.  Fits the line x = s * E_p and inverts the
    exponent's slope for g0; raw p_s saturates and would put g0 low.  Requires
    at least two distinct pulse energies and a positive fitted slope.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        raise ValueError("g0 calibration: need at least two (E_p, p_s) points")
    fit = fit_linear(pts)
    if not fit.converged:
        raise ValueError("g0 calibration: degenerate fit (identical pulse energies?)")
    slope = fit.params["slope"]
    slope_err = fit.stderr["slope"]
    if slope <= 0:
        raise ValueError("g0 calibration: non-positive slope, cannot invert for g0")
    # the exponent is quadratic in g0: x = E_p * g0^2 * scattering_exponent(1 J, 1 Hz)
    g0 = math.sqrt(slope / scattering_exponent(1.0, 1.0, cavity, mode))
    g0_err = 0.0 if slope_err == 0 else g0 * slope_err / (2 * slope)
    return g0, g0_err


def cooperativity(g0: Frequency, n_c: float, cavity: OpticalCavity,
                  mode: MechanicalMode) -> float:
    """Pulsed-drive cooperativity C = 4 g0^2 n_c / (kappa * gamma_m)."""
    if g0 <= 0 or n_c < 0:
        raise ValueError("cooperativity: g0 must be positive and n_c non-negative")
    return 4 * g0**2 * n_c / (cavity.kappa * mode.gamma_m)
