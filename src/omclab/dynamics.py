"""Time evolution of the mechanical occupation and the thermal spectrum.

Optical absorption heats the mechanical mode in two stages: a
quasi-instantaneous jump during the pulse and a delayed bath contribution
that rises over ~100 ns and decays with the mechanical lifetime.  The toolkit
models the delayed part with the two-exponential response

    n(tau) = A * exp(-tau/tau_decay) * (1 - exp(-tau/tau_rise)) + n_instant

per pulse, and superposes contributions linearly across pulses: a pulse sees
the mode's baseline occupation, plus the response of every pulse that ended
by its start, evaluated at the delay from that pulse's end, plus its own
n_instant.  Linear superposition is an extrapolation beyond the single-pulse
measurements it is calibrated on; treat multi-pulse predictions accordingly.
"""

from __future__ import annotations

import math

import numpy as np

from .core import HeatingParams, MechanicalMode, PulseSequence


def heating_occupation(tau, heating: HeatingParams, p_s: float):
    """Single-pulse response at delays tau >= 0 (scalar or array) after a pulse
    of scattering probability p_s, at the (amplitude, n_instant) ``heating``
    calibrates for it."""
    if np.any(tau < 0):
        raise ValueError("heating: tau must be non-negative")
    rise = -np.expm1(-tau / heating.tau_rise)
    out = (heating.amplitude(p_s) * np.exp(-tau / heating.tau_decay) * rise
           + heating.instant_occupation(p_s))
    return out if np.ndim(out) else float(out)


def pulse_occupations(sequence: PulseSequence, mode: MechanicalMode,
                      p_s_per_pulse) -> list[float]:
    """Occupation each pulse of ``sequence`` sees, one per pulse.

    The sum, in this order: ``mode.n_baseline``; then the ``heating_occupation``
    of each earlier pulse, in sequence order, at the delay from its end to this
    pulse's start; then this pulse's own n_instant.  A ``PulseSequence`` lists
    its pulses in time order without overlap, so every earlier pulse has ended.
    """
    if len(p_s_per_pulse) != len(sequence.pulses):
        raise ValueError("occupation: one p_s per pulse required")
    heating = mode.heating
    occupations = []
    for i, pulse in enumerate(sequence.pulses):
        n = mode.n_baseline
        for earlier, p_s in zip(sequence.pulses[:i], p_s_per_pulse[:i]):
            n += heating_occupation(pulse.start - earlier.end, heating, p_s)
        occupations.append(n + heating.instant_occupation(p_s_per_pulse[i]))
    return occupations


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

