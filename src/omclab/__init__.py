"""Desk-scale simulator and analysis toolkit for pulsed optomechanics.

Modules:

* ``core``        shared domain types, unit conventions, config files, CSV tables
* ``cavity``      one-port cavity response and coupling diagnostics
* ``optomech``    scattering probabilities, thermometry, cooperativity
* ``dynamics``    heating dynamics and the thermal mechanical spectrum
* ``fock``        closed-form Gaussian oracle for the pulse protocol (its
                  dense truncated-Fock reference is ``tests/fock_reference.py``)
* ``sim``         Monte Carlo time-tagged click generation
* ``stats``       estimators, likelihood intervals, least-squares fits
* ``transducer``  microwave-to-optics conversion budget
* ``cli``         the ``omclab`` command-line entry point
"""

__version__ = "0.7.0"

from .core import (
    ConfigError,
    DetectionChain,
    ExperimentConfig,
    HeatingParams,
    MechanicalMode,
    OpticalCavity,
    PiezoInterface,
    Pulse,
    PulseSequence,
    load_config,
    parse_config,
    serialize_config,
)
from .transducer import ConversionBudget, conversion_budget

__all__ = [
    "__version__",
    "ConfigError",
    "ConversionBudget",
    "DetectionChain",
    "ExperimentConfig",
    "HeatingParams",
    "MechanicalMode",
    "OpticalCavity",
    "PiezoInterface",
    "Pulse",
    "PulseSequence",
    "conversion_budget",
    "load_config",
    "parse_config",
    "serialize_config",
]
