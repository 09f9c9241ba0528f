import math

import numpy as np
import pytest

from omclab import dynamics
from omclab.core import CalibrationPoint, HeatingParams, MechanicalMode, Pulse, PulseSequence

PARAMS = HeatingParams(tau_rise=165e-9, tau_decay=22e-6,
                       calibration=(CalibrationPoint(0.0, 0.0, 0.0),
                                    CalibrationPoint(0.05, 2.0, 0.35)))
MODE = MechanicalMode(f_m=2.905e9, gamma_m=13.8e3)


def _calibrated(amplitude, n_instant):
    """``PARAMS`` time constants with one calibration row: a lone row gives its
    (amplitude, n_instant) at every p_s."""
    return HeatingParams(tau_rise=PARAMS.tau_rise, tau_decay=PARAMS.tau_decay,
                         calibration=(CalibrationPoint(0.02, amplitude, n_instant),))


def _heating_peak_delay(params):
    """Stationary point of exp(-t/td)(1-exp(-t/tr)): tr*ln(1+td/tr)."""
    return params.tau_rise * math.log1p(params.tau_decay / params.tau_rise)


def test_heating_at_zero_delay_is_instantaneous_value():
    assert dynamics.heating_occupation(0.0, _calibrated(1.3, 0.21), 0.3) == pytest.approx(0.21)


def test_heating_long_delay_returns_to_instantaneous_value():
    assert dynamics.heating_occupation(1.0, _calibrated(1.3, 0.21), 0.0) == pytest.approx(0.21)


def test_heating_peak_position():
    peak = _heating_peak_delay(PARAMS)
    assert peak == pytest.approx(0.81e-6, rel=0.01)
    # cross-check against a dense numerical maximisation of the curve itself
    taus = np.linspace(1e-9, 5e-6, 200001)
    heating = _calibrated(1.0, 0.0)
    values = [dynamics.heating_occupation(t, heating, 0.02) for t in taus]
    assert taus[int(np.argmax(values))] == pytest.approx(peak, rel=1e-3)


def test_heating_nonnegative_and_above_floor():
    heating = _calibrated(0.7, 0.1)
    for tau in np.geomspace(1e-9, 1e-3, 50):
        n = dynamics.heating_occupation(tau, heating, 0.02)
        assert n >= 0.1 - 1e-15


def test_heating_continuity():
    taus = np.linspace(0, 2e-6, 40001)
    heating = _calibrated(1.0, 0.1)
    values = np.array([dynamics.heating_occupation(t, heating, 0.02) for t in taus])
    assert np.max(np.abs(np.diff(values))) < 5e-4


HEATED = MechanicalMode(f_m=2.905e9, gamma_m=13.8e3, n_baseline=0.041, heating=PARAMS)
UNHEATED = MechanicalMode(f_m=2.905e9, gamma_m=13.8e3, heating=PARAMS)


def _pulse(start):
    return Pulse("red", 40e-9, 500e-9, start)


def _response_alone(earlier, p_s, start):
    """Single-pulse response of ``earlier`` at ``start``, as calibrated for ``p_s``."""
    return dynamics.heating_occupation(start - earlier.end, PARAMS, p_s)


def test_occupation_no_pulses_is_baseline():
    assert dynamics.pulse_occupations(PulseSequence((), 25e3, 1), HEATED, []) == []
    # with no pulse before it, a pulse sees the baseline plus its own jump
    seq = PulseSequence((_pulse(1e-6),), 25e3, 1)
    assert dynamics.pulse_occupations(seq, HEATED, [0.025]) == [
        0.041 + PARAMS.instant_occupation(0.025)]


def test_occupation_read_before_heating_peak():
    write, read = _pulse(0.0), _pulse(190e-9)  # 150 ns gap
    probe = _pulse(write.end + _heating_peak_delay(PARAMS))
    at_read = dynamics.pulse_occupations(PulseSequence((write, read), 25e3, 1),
                                         HEATED, [0.025, 0.025])[1]
    at_peak = dynamics.pulse_occupations(PulseSequence((write, probe), 25e3, 1),
                                         HEATED, [0.025, 0.025])[1]
    instant = 0.041 + 2 * PARAMS.instant_occupation(0.025)
    assert instant < at_read < at_peak


def test_occupation_superposition():
    # a third pulse sees the baseline plus each earlier pulse's response alone
    pulses = (_pulse(0.0), _pulse(190e-9), _pulse(5e-6))
    p_s = [0.025, 0.013, 0.02]
    seen = dynamics.pulse_occupations(PulseSequence(pulses, 25e3, 1), HEATED, p_s)[2]
    separate = sum(_response_alone(pulse, ps, pulses[2].start)
                   for pulse, ps in zip(pulses[:2], p_s))
    assert seen == pytest.approx(0.041 + separate + PARAMS.instant_occupation(0.02),
                                 rel=1e-12)


def test_occupation_translation_invariance():
    # two widely separated identical pulses heat identically at equal delays
    a, b = _pulse(0.0), _pulse(2e-4)
    delay = 3e-6
    early = dynamics.pulse_occupations(PulseSequence((a, _pulse(a.end + delay)), 1e3, 1),
                                       UNHEATED, [0.025, 0.025])[1]
    late = dynamics.pulse_occupations(PulseSequence((a, b, _pulse(b.end + delay)), 1e3, 1),
                                      UNHEATED, [0.025, 0.025, 0.025])[2]
    residual_from_a = _response_alone(a, 0.025, b.end + delay)
    assert late - residual_from_a == pytest.approx(early, rel=1e-9)


def test_occupation_requires_one_p_s_per_pulse():
    seq = PulseSequence((_pulse(0.0), _pulse(190e-9)), 25e3, 1)
    with pytest.raises(ValueError, match="one p_s per pulse"):
        dynamics.pulse_occupations(seq, HEATED, [0.01])


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
