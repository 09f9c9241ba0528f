import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omclab import optomech
from omclab.core import MechanicalMode, OpticalCavity

CAVITY = OpticalCavity(f_c=194.8e12, kappa=5.14e9, kappa_i=1.31e9)
MODE = MechanicalMode(f_m=2.905e9, gamma_m=13.8e3)
G0 = 845e3
ETA_FC = 0.55


def test_write_probability_matches_25_nw():
    energy = 25e-9 * 40e-9 * ETA_FC  # fiber power attenuated to the device
    p = optomech.scattering_probability("blue", energy, G0, CAVITY, MODE)
    assert 0.0005 <= p <= 0.0007
    assert p == pytest.approx(6e-4, rel=0.05)


def test_zero_energy_gives_zero():
    for side in ("red", "blue"):
        assert optomech.scattering_probability(side, 0.0, G0, CAVITY, MODE) == 0.0


def test_exponential_forms_at_x_002():
    # pick the pulse energy that lands exactly on x = 0.02
    scale = optomech.scattering_exponent(1.0, G0, CAVITY, MODE)
    energy = 0.02 / scale
    p_red = optomech.scattering_probability("red", energy, G0, CAVITY, MODE)
    p_blue = optomech.scattering_probability("blue", energy, G0, CAVITY, MODE)
    assert p_red == pytest.approx(0.0198, abs=5e-5)
    assert p_blue == pytest.approx(0.0202, abs=5e-5)


def test_validity_ceiling_rejected():
    scale = optomech.scattering_exponent(1.0, G0, CAVITY, MODE)
    energy = 1.2 / scale  # p_blue = e^1.2 - 1 > 0.5
    with pytest.raises(ValueError, match="validity ceiling"):
        optomech.scattering_probability("blue", energy, G0, CAVITY, MODE)


@given(x=st.floats(min_value=1e-8, max_value=0.4))
@settings(max_examples=60, deadline=None)
def test_blue_red_identity(x):
    # e^x - 1 and 1 - e^-x satisfy p_b - p_r = p_b * p_r identically
    p_red = -math.expm1(-x)
    p_blue = math.expm1(x)
    assert p_blue - p_red == pytest.approx(p_blue * p_red, rel=1e-10)


def test_linearization_error_bound():
    scale = optomech.scattering_exponent(1.0, G0, CAVITY, MODE)
    for x in np.geomspace(1e-4, 0.1, 20):
        energy = x / scale
        for side in ("red", "blue"):
            p = optomech.scattering_probability(side, energy, G0, CAVITY, MODE)
            assert abs(p - x) / x <= x


def _one_pulse_each(clicks_r, clicks_b):
    # one pulse per side at p_s = eta = 1: each rate is its click count
    return optomech.occupation_from_counts(clicks_r, 1, 1.0, clicks_b, 1, 1.0, 1.0)


def test_occupation_from_asymmetry_examples():
    n, err = _one_pulse_each(4, 104)
    assert n == pytest.approx(0.04)
    # sigma_r = sqrt(4), sigma_b = sqrt(104): sqrt((104*2)^2 + (4*sqrt(104))^2) / 100^2
    assert err == pytest.approx(math.sqrt(104**2 * 4 + 16 * 104) / 100**2, rel=1e-12)
    n, _ = _one_pulse_each(0, 1)
    assert n == 0.0


def test_occupation_from_asymmetry_rejects_unphysical():
    with pytest.raises(ValueError, match="unphysical"):
        _one_pulse_each(2, 1)
    with pytest.raises(ValueError, match="unphysical"):
        _one_pulse_each(1, 1)


@given(n=st.floats(min_value=0.0, max_value=10.0),
       p_r=st.floats(min_value=1e-4, max_value=0.1),
       p_w=st.floats(min_value=1e-4, max_value=0.1),
       eta=st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_asymmetry_round_trip(n, p_r, p_w, eta):
    # the expected clicks of one red and one blue pulse recover n exactly
    recovered, _ = optomech.occupation_from_counts(p_r * n * eta, 1, p_r,
                                                   p_w * (n + 1) * eta, 1, p_w, eta)
    assert recovered == pytest.approx(n, rel=1e-12, abs=1e-12)


def test_occupation_from_counts_normalizes_mismatched_powers():
    # read at twice the write p_s: raw rates are not comparable, normalized ones are
    n_true, eta = 0.05, 0.023
    p_read, p_write = 0.04, 0.02
    pulses = 10**7
    clicks_r = round(p_read * n_true * eta * pulses)
    clicks_b = round(p_write * (n_true + 1) * eta * pulses)
    n, err = optomech.occupation_from_counts(clicks_r, pulses, p_read,
                                             clicks_b, pulses, p_write, eta)
    assert n == pytest.approx(n_true, rel=5e-3)
    assert err > 0


def test_g0_calibration_round_trip():
    energies = np.linspace(1e-16, 2e-15, 8)
    points = [(e, optomech.scattering_exponent(e, G0, CAVITY, MODE)) for e in energies]
    g0, g0_err = optomech.g0_from_calibration(points, CAVITY, MODE)
    assert g0 == pytest.approx(G0, rel=1e-6)
    assert g0_err < 1e-3 * G0


def test_g0_from_quoted_slope():
    # 2.6e-2 per uW of fiber peak power, 40 ns pulses, 55% fiber coupling
    slope_per_uw = 2.6e-2
    slope_per_joule = slope_per_uw / (1e-6 * 40e-9 * ETA_FC)
    energies = np.array([2e-16, 1e-15])
    points = np.column_stack([energies, slope_per_joule * energies])
    g0, _ = optomech.g0_from_calibration(points, CAVITY, MODE)
    assert g0 == pytest.approx(845e3, rel=0.10)


def test_g0_calibration_errors():
    with pytest.raises(ValueError):
        optomech.g0_from_calibration([(0.0, 0.0)], CAVITY, MODE)
    with pytest.raises(ValueError, match="slope"):
        optomech.g0_from_calibration([(1e-16, 2e-4), (2e-16, 1e-4)], CAVITY, MODE)
    with pytest.raises(ValueError):
        optomech.g0_from_calibration([(1e-16, 1e-4), (1e-16, 2e-4)], CAVITY, MODE)


def test_cooperativity_examples():
    assert optomech.cooperativity(G0, 0.0, CAVITY, MODE) == 0.0
    n_c = 20 * CAVITY.kappa * MODE.gamma_m / (4 * G0**2)
    assert optomech.cooperativity(G0, n_c, CAVITY, MODE) == pytest.approx(20.0, rel=1e-12)
    # linear in n_c
    c1 = optomech.cooperativity(G0, 100.0, CAVITY, MODE)
    c3 = optomech.cooperativity(G0, 300.0, CAVITY, MODE)
    assert c3 == pytest.approx(3 * c1, rel=1e-12)
