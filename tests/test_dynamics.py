import math

import numpy as np
import pytest

from omclab import dynamics
from omclab.core import HeatingParams, MechanicalMode, Pulse, PulseSequence

PARAMS = HeatingParams(tau_rise=165e-9, tau_decay=22e-6,
                       calibration=((0.0, 0.0, 0.0), (0.05, 2.0, 0.35)))
MODE = MechanicalMode(f_m=2.905e9, gamma_m=13.8e3)


def _heating_peak_delay(params):
    """Stationary point of exp(-t/td)(1-exp(-t/tr)): tr*ln(1+td/tr)."""
    return params.tau_rise * math.log1p(params.tau_decay / params.tau_rise)


def test_heating_at_zero_delay_is_instantaneous_value():
    assert dynamics.heating_occupation(0.0, PARAMS, 1.3, 0.21) == pytest.approx(0.21)


def test_heating_long_delay_returns_to_instantaneous_value():
    assert dynamics.heating_occupation(1.0, PARAMS, 1.3, 0.21) == pytest.approx(0.21)


def test_heating_peak_position():
    peak = _heating_peak_delay(PARAMS)
    assert peak == pytest.approx(0.81e-6, rel=0.01)
    # cross-check against a dense numerical maximisation of the curve itself
    taus = np.linspace(1e-9, 5e-6, 200001)
    values = [dynamics.heating_occupation(t, PARAMS, 1.0) for t in taus]
    assert taus[int(np.argmax(values))] == pytest.approx(peak, rel=1e-3)


def test_heating_nonnegative_and_above_floor():
    for tau in np.geomspace(1e-9, 1e-3, 50):
        n = dynamics.heating_occupation(tau, PARAMS, 0.7, 0.1)
        assert n >= 0.1 - 1e-15


def test_heating_continuity():
    taus = np.linspace(0, 2e-6, 40001)
    values = np.array([dynamics.heating_occupation(t, PARAMS, 1.0, 0.1) for t in taus])
    assert np.max(np.abs(np.diff(values))) < 5e-4


def _two_pulse_sequence(gap=150e-9):
    a = Pulse("red", 40e-9, 500e-9, 0.0)
    b = Pulse("red", 40e-9, 500e-9, 40e-9 + gap)
    return PulseSequence((a, b), 25e3, 1)


def test_occupation_no_pulses_is_baseline():
    seq = PulseSequence((), 25e3, 1)
    assert dynamics.occupation_after_sequence(seq, PARAMS, [], 1e-6, 0.041) == 0.041


def test_occupation_read_before_heating_peak():
    seq = _two_pulse_sequence()
    p_s = [0.025, 0.025]
    at_read = dynamics.occupation_after_sequence(seq, PARAMS, p_s, seq.pulses[1].start, 0.041)
    at_peak = dynamics.occupation_after_sequence(
        seq, PARAMS, p_s, seq.pulses[0].end + _heating_peak_delay(PARAMS), 0.041)
    instant = 0.041 + PARAMS.instant_occupation(0.025)
    assert instant < at_read < at_peak


def test_occupation_superposition():
    seq = _two_pulse_sequence()
    p_s = [0.025, 0.013]
    t = 5e-6
    combined = dynamics.occupation_after_sequence(seq, PARAMS, p_s, t, 0.0)
    separate = sum(
        dynamics.occupation_after_sequence(
            PulseSequence((pulse,), 25e3, 1), PARAMS, [ps], t, 0.0)
        for pulse, ps in zip(seq.pulses, p_s))
    assert combined == pytest.approx(separate, rel=1e-12)


def test_occupation_translation_invariance():
    # two widely separated identical pulses heat identically at equal delays
    gap = 2e-4
    a = Pulse("red", 40e-9, 500e-9, 0.0)
    b = Pulse("red", 40e-9, 500e-9, gap)
    seq = PulseSequence((a, b), 1e3, 1)
    delay = 3e-6
    early = dynamics.occupation_after_sequence(
        PulseSequence((a,), 1e3, 1), PARAMS, [0.025], a.end + delay, 0.0)
    late = dynamics.occupation_after_sequence(seq, PARAMS, [0.025, 0.025], b.end + delay, 0.0)
    residual_from_a = dynamics.heating_occupation(b.end + delay - a.end, PARAMS,
                                                  PARAMS.amplitude(0.025),
                                                  PARAMS.instant_occupation(0.025))
    assert late - residual_from_a == pytest.approx(early, rel=1e-9)


def test_occupation_requires_time_in_period():
    seq = _two_pulse_sequence()
    with pytest.raises(ValueError):
        dynamics.occupation_after_sequence(seq, PARAMS, [0.01, 0.01], 41e-6, 0.0)


def test_psd_peak_at_mechanical_frequency():
    grid = np.linspace(MODE.f_m - 1e5, MODE.f_m + 1e5, 2001)
    psd = dynamics.mechanical_psd(grid, MODE, 0.2)
    assert grid[int(np.argmax(psd))] == pytest.approx(MODE.f_m, abs=200)


def test_psd_fwhm_and_quality_factor():
    grid = np.linspace(MODE.f_m - 2e5, MODE.f_m + 2e5, 400001)
    psd = dynamics.mechanical_psd(grid, MODE, 0.2)
    half = psd.max() / 2
    above = grid[psd >= half]
    fwhm = above.max() - above.min()
    assert fwhm == pytest.approx(13.8e3, rel=1e-3)
    assert MODE.f_m / fwhm == pytest.approx(2.1e5, rel=0.01)


def test_psd_area_tracks_occupation_plus_half():
    grid = np.linspace(MODE.f_m - 4e6, MODE.f_m + 4e6, 2_000_001)
    for n in (0.0, 0.5, 2.0):
        area = np.trapezoid(dynamics.mechanical_psd(grid, MODE, n), grid)
        assert area == pytest.approx(n + 0.5, rel=5e-3)
