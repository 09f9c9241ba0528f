"""One-port cavity response: reflection, coupling regime, photon number.

All detunings and linewidths are ordinary frequencies in Hz; the angular
conversion happens inside each formula.
"""

from __future__ import annotations

import math

import numpy as np

from .core import HBAR, Frequency, MechanicalMode, OpticalCavity


def reflection_amplitude(delta, cavity: OpticalCavity):
    """Steady-state reflection r(delta) = 1 - kappa_e / (i*delta + kappa/2).

    ``delta`` is the laser-minus-cavity detuning (Hz, signed); scalar or
    array.  |r|^2 is the reflected power fraction; the dip reaches zero at
    critical coupling (kappa_e = kappa/2).
    """
    two_pi = 2 * math.pi
    delta = np.asarray(delta, dtype=float)
    r = 1 - two_pi * cavity.kappa_e / (1j * two_pi * delta + two_pi * cavity.kappa / 2)
    return r if r.ndim else complex(r)


def coupling_efficiency(cavity: OpticalCavity) -> tuple[float, bool]:
    """(eta_dev, over_coupled): extraction efficiency kappa_e/kappa and regime.

    A one-port reflection dip alone leaves two solutions for eta_dev; the
    regime flag resolves the ambiguity: over-coupled iff kappa_e > kappa/2,
    equivalently iff the reflection phase winds through a full 2*pi across
    the resonance.
    """
    return cavity.kappa_e / cavity.kappa, cavity.kappa_e > cavity.kappa / 2


def sideband_metrics(cavity: OpticalCavity, mode: MechanicalMode) -> dict[str, float]:
    """Sideband-resolution figure (kappa/4f_m)^2 and 2f_m suppression in dB.

    The suppression compares the cavity Lorentzian at resonance with its
    value one mechanical-frequency-doubled offset away:
    10*log10(((2 f_m)^2 + (kappa/2)^2) / (kappa/2)^2).
    """
    resolution = (cavity.kappa / (4 * mode.f_m)) ** 2
    half = cavity.kappa / 2
    suppression = 10 * math.log10(((2 * mode.f_m) ** 2 + half**2) / half**2)
    return {"resolution": resolution, "suppression_db": suppression}


def intracavity_photons(power_at_device: float, delta: Frequency,
                        cavity: OpticalCavity, f_l: Frequency) -> float:
    """Steady-state intracavity photon number for a drive at detuning delta.

    n_c = kappa_e * P / (hbar * w_l) / (delta^2 + (kappa/2)^2), with every
    frequency converted to angular inside.
    """
    if power_at_device < 0:
        raise ValueError("intracavity_photons: power must be non-negative")
    two_pi = 2 * math.pi
    rate_in = two_pi * cavity.kappa_e * power_at_device / (HBAR * two_pi * f_l)
    return rate_in / ((two_pi * delta) ** 2 + (two_pi * cavity.kappa / 2) ** 2)


def reflection_spectrum(cavity: OpticalCavity, span: float = 4.0,
                        n_points: int = 801) -> np.ndarray:
    """(detuning_hz, power_reflectance, phase_rad) rows over +-span*kappa."""
    grid = np.linspace(-span * cavity.kappa, span * cavity.kappa, n_points)
    r = reflection_amplitude(grid, cavity)
    return np.column_stack([grid, np.abs(r) ** 2, np.angle(r)])
