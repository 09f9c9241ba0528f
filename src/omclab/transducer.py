"""Microwave-to-optics conversion budget for a piezo-actuated resonator.

Figures of merit for feeding a microwave signal into the mechanical mode and
reading it out optically: the electromechanical coupling coefficient from the
series/parallel resonance splitting, its dilution by parasitic capacitance,
the electromechanical cooperativity, and the input-referred added noise.
``PiezoInterface`` checks the inputs' ranges when it is built (so a bad
``piezo.*`` key fails at ``load_config``); ``conversion_budget`` computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConfigError, PiezoInterface


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


def conversion_budget(piezo: PiezoInterface) -> ConversionBudget:
    """Full budget: coupling -> dilution -> cooperativity -> added noise.

    * coupling ``k^2 = (f_p^2 - f_s^2) / f_p^2`` from the series/parallel
      splitting, unless ``k_eff2`` overrides it;
    * dilution by the parasitic capacitance ``k_red^2 = k^2 C0 / (C0 + C_par)``;
    * cooperativity ``C_em = k_red^2 f_m^2 / (kappa_e gamma_m)`` with
      ``kappa_e = f_m / q_uw`` (ordinary frequencies; the 2*pi factors cancel);
    * input-referred added noise ``N = n_m / (eta_e C_em)`` photons;
    * impedance ``1 / (2 pi f_m (C0 + C_par))`` of the total capacitance.

    ``q_uw`` and ``n_m`` must be set on the interface (a ``ConfigError``).
    """
    if piezo.q_uw is None or piezo.n_m is None:
        raise ConfigError("budget: piezo.q_uw and piezo.n_m must be configured")
    k2 = piezo.k_eff2 if piezo.k_eff2 is not None else (piezo.f_p**2 - piezo.f_s**2) / piezo.f_p**2
    k2_red = k2 * piezo.c_piezo / (piezo.c_piezo + piezo.c_parasitic)
    kappa_e = piezo.f_m / piezo.q_uw
    c_em = k2_red * piezo.f_m**2 / (kappa_e * piezo.gamma_m)
    noise = piezo.n_m / (piezo.eta_e * c_em)
    impedance = 1.0 / (2 * math.pi * piezo.f_m * (piezo.c_piezo + piezo.c_parasitic))
    return ConversionBudget(k_eff2=k2, k_eff2_reduced=k2_red, c_em=c_em,
                            q_uw=piezo.q_uw, added_noise=noise, impedance=impedance)
