"""Numeric reference for the coupling regime that ``omclab.cavity`` states in
closed form (over-coupled iff kappa_e > kappa/2).

Sweeps the detuning over +-200 kappa in 20001 steps and accumulates the
unwrapped phase of r(delta), as a swept-sideband measurement of the complex
response would: over-coupled resonances wind the phase by 2*pi, under-coupled
ones return it to the start.
"""

from __future__ import annotations

import math

import numpy as np

from omclab.cavity import reflection_amplitude
from omclab.core import OpticalCavity


def phase_winding_over_coupled(cavity: OpticalCavity) -> bool:
    """True when the reflection phase winds through 2*pi across the resonance."""
    grid = np.linspace(-200 * cavity.kappa, 200 * cavity.kappa, 20001)
    phase = np.unwrap(np.angle(reflection_amplitude(grid, cavity)))
    # under-coupling: phase excursion stays below pi; over-coupling: ~2*pi
    return bool((phase.max() - phase.min()) > math.pi)
