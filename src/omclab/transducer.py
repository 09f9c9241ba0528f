"""Microwave-to-optics conversion budget for a piezo-actuated resonator.

Figures of merit for feeding a microwave signal into the mechanical mode and
reading it out optically: the electromechanical coupling coefficient from the
series/parallel resonance splitting, its dilution by parasitic capacitance,
the electromechanical cooperativity, and the input-referred added noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PiezoInterface


@dataclass(frozen=True)
class ConversionBudget:
    """Derived conversion figures; all entries non-negative."""

    k_eff2: float
    k_eff2_reduced: float
    c_em: float
    q_uw: float
    added_noise: float
    impedance: float

    def __post_init__(self):
        values = (self.k_eff2, self.k_eff2_reduced, self.c_em, self.q_uw,
                  self.added_noise, self.impedance)
        if any(v < 0 for v in values):
            raise ValueError("budget: all entries must be non-negative")
        if self.k_eff2_reduced > self.k_eff2 * (1 + 1e-12):
            raise ValueError("budget: reduced coupling cannot exceed bare coupling")


def keff2_from_resonances(f_s: float, f_p: float) -> float:
    """Electromechanical coupling coefficient (f_p^2 - f_s^2) / f_p^2."""
    if not (f_p >= f_s > 0):
        raise ValueError("keff2: f_p >= f_s > 0 required")
    return (f_p**2 - f_s**2) / f_p**2


def reduced_keff2(k_eff2: float, c_piezo: float, c_parasitic: float) -> float:
    """Coupling after capacitive dilution: k^2 * C0 / (C0 + C_par)."""
    if c_piezo <= 0:
        raise ValueError("reduced_keff2: c_piezo must be positive")
    return k_eff2 * c_piezo / (c_piezo + c_parasitic)


def electromech_cooperativity(k_eff2_red: float, f_m: float, kappa_e_uw: float,
                              gamma_m: float) -> float:
    """Electromechanical cooperativity k_eff^2 * w_m^2 / (kappa_e * gamma_m).

    Ordinary frequencies throughout; the 2*pi factors cancel.
    """
    if min(k_eff2_red, f_m, kappa_e_uw, gamma_m) <= 0:
        raise ValueError("cooperativity: all inputs must be positive")
    return k_eff2_red * f_m**2 / (kappa_e_uw * gamma_m)


def added_noise(n_m: float, eta_e: float, c_em: float) -> float:
    """Input-referred added noise photons N = n_m / (eta_e * C_em)."""
    if n_m < 0:
        raise ValueError("added_noise: n_m must be non-negative")
    if eta_e <= 0 or eta_e > 1:
        raise ValueError("added_noise: eta_e must lie in (0, 1]")
    if c_em <= 0:
        raise ValueError("added_noise: c_em must be positive (noise diverges)")
    return n_m / (eta_e * c_em)


def characteristic_impedance(c_total: float, f: float) -> float:
    """Impedance 1 / (2*pi*f*C) of the capacitance at frequency f."""
    if c_total <= 0 or f <= 0:
        raise ValueError("impedance: positive capacitance and frequency required")
    return 1.0 / (2 * math.pi * f * c_total)


def conversion_budget(piezo: PiezoInterface) -> ConversionBudget:
    """Full budget: coupling -> dilution -> cooperativity -> added noise.

    ``q_uw`` and ``n_m`` must be set on the interface; ``k_eff2`` falls back
    to the series/parallel resonance estimate when no override is given.
    """
    if piezo.q_uw is None or piezo.n_m is None:
        raise ValueError("budget: piezo.q_uw and piezo.n_m are required")
    k2 = piezo.k_eff2 if piezo.k_eff2 is not None else keff2_from_resonances(piezo.f_s, piezo.f_p)
    k2_red = reduced_keff2(k2, piezo.c_piezo, piezo.c_parasitic)
    kappa_e = piezo.f_m / piezo.q_uw
    c_em = electromech_cooperativity(k2_red, piezo.f_m, kappa_e, piezo.gamma_m)
    noise = added_noise(piezo.n_m, piezo.eta_e, c_em)
    impedance = characteristic_impedance(piezo.c_piezo + piezo.c_parasitic, piezo.f_m)
    return ConversionBudget(k_eff2=k2, k_eff2_reduced=k2_red, c_em=c_em,
                            q_uw=piezo.q_uw, added_noise=noise, impedance=impedance)
