"""Time evolution of the mechanical occupation and the thermal spectrum.

Optical absorption heats the mechanical mode in two stages: a
quasi-instantaneous jump during the pulse and a delayed bath contribution
that rises over ~100 ns and decays with the mechanical lifetime.  The toolkit
models the delayed part with the two-exponential response

    n(tau) = A * exp(-tau/tau_decay) * (1 - exp(-tau/tau_rise)) + n_instant

per pulse, and superposes contributions linearly across pulses.  Linear
superposition is an extrapolation beyond the single-pulse measurements it is
calibrated on; treat multi-pulse predictions accordingly.
"""

from __future__ import annotations

import math

import numpy as np

from .core import HeatingParams, MechanicalMode, PulseSequence


def heating_occupation(tau: float, params: HeatingParams, amplitude: float,
                       n_instant: float = 0.0) -> float:
    """Single-pulse heating response at delay tau >= 0 after the pulse."""
    if tau < 0:
        raise ValueError("heating: tau must be non-negative")
    rise = -math.expm1(-tau / params.tau_rise)
    return amplitude * math.exp(-tau / params.tau_decay) * rise + n_instant


def occupation_after_sequence(sequence: PulseSequence, params: HeatingParams,
                              p_s_per_pulse, t: float, n_baseline: float = 0.0) -> float:
    """Occupation at time t within one repetition period.

    Sums the baseline plus one heating response per pulse that has ended by
    time t, each evaluated at its own calibrated (amplitude, n_instant) for
    the pulse's scattering probability.  Delays are measured from pulse end.
    """
    if not (0 <= t < sequence.period):
        raise ValueError("occupation: t must lie within one repetition period")
    if len(p_s_per_pulse) != len(sequence.pulses):
        raise ValueError("occupation: one p_s per pulse required")
    total = n_baseline
    for pulse, p_s in zip(sequence.pulses, p_s_per_pulse):
        if pulse.end <= t:
            total += heating_occupation(t - pulse.end, params,
                                        params.amplitude(p_s),
                                        params.instant_occupation(p_s))
    return total


def occupation_at_pulse(sequence: PulseSequence, params: HeatingParams,
                        p_s_per_pulse, index: int, n_baseline: float = 0.0) -> float:
    """Occupation seen by pulse ``index``: prior pulses' heating at its start
    plus its own quasi-instantaneous contribution."""
    pulse = sequence.pulses[index]
    n = occupation_after_sequence(sequence, params, p_s_per_pulse, pulse.start, n_baseline)
    return n + params.instant_occupation(p_s_per_pulse[index])


def mechanical_psd(f, mode: MechanicalMode, n_th: float):
    """Thermal displacement spectrum: Lorentzian at f_m with FWHM gamma_m.

    Normalized so the integrated area equals n_th + 1/2 (the half quantum is
    the zero-point contribution); scalar or array ``f`` in Hz.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValueError("psd: frequencies must be positive")
    half = mode.gamma_m / 2
    out = (n_th + 0.5) * (half / math.pi) / ((f - mode.f_m) ** 2 + half**2)
    return out if out.ndim else float(out)

