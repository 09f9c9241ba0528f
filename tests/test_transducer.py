import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omclab import ValidationError, transducer
from omclab.transducer import PiezoInterface


def test_keff2_zero_splitting():
    assert transducer.keff2_from_resonances(3.05e9, 3.05e9) == 0.0


def test_keff2_from_quoted_splitting():
    # invert the formula: k^2 = 1.7e-4 puts f_p about 260 kHz above f_s
    f_s = 3.05e9
    f_p = f_s / math.sqrt(1 - 1.7e-4)
    assert f_p - f_s == pytest.approx(260e3, rel=0.01)
    assert transducer.keff2_from_resonances(f_s, f_p) == pytest.approx(1.7e-4, rel=1e-9)


def test_keff2_rejects_inverted_resonances():
    with pytest.raises(ValueError):
        transducer.keff2_from_resonances(3.05e9, 3.04e9)


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=40, deadline=None)
def test_keff2_scale_invariant(scale):
    base = transducer.keff2_from_resonances(3.05e9, 3.0502e9)
    scaled = transducer.keff2_from_resonances(3.05e9 * scale, 3.0502e9 * scale)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_reduced_keff2_examples():
    assert transducer.reduced_keff2(1.7e-4, 0.19e-15, 0.0) == 1.7e-4
    diluted = transducer.reduced_keff2(1.7e-4, 0.19e-15, 100e-15)
    assert diluted == pytest.approx(3.2e-7, rel=0.01)
    assert transducer.reduced_keff2(2e-4, 1e-15, 1e-15) == pytest.approx(1e-4)


def test_electromech_cooperativity_paper_point():
    c_em = transducer.electromech_cooperativity(3.3e-7, 3.05e9, 3.05e9 / 170, 7.96e3)
    assert c_em == pytest.approx(21.0, rel=0.03)


def test_electromech_cooperativity_vanishes_at_large_kappa():
    small = transducer.electromech_cooperativity(3.3e-7, 3.05e9, 1e15, 7.96e3)
    assert small < 1e-5


def test_added_noise_examples():
    assert transducer.added_noise(0.35, 1.0, 20.0) == pytest.approx(0.0175)
    assert transducer.added_noise(0.0, 1.0, 20.0) == 0.0
    full = transducer.added_noise(0.3, 1.0, 10.0)
    half = transducer.added_noise(0.3, 0.5, 10.0)
    assert half == pytest.approx(2 * full)


def test_added_noise_diverges():
    with pytest.raises(ValueError):
        transducer.added_noise(0.35, 0.0, 20.0)
    with pytest.raises(ValueError):
        transducer.added_noise(0.35, 1.0, 0.0)


def test_characteristic_impedance_examples():
    assert transducer.characteristic_impedance(100e-15, 3.05e9) == pytest.approx(522, rel=0.002)
    assert transducer.characteristic_impedance(0.19e-15, 3.05e9) == pytest.approx(275e3, rel=0.005)
    z1 = transducer.characteristic_impedance(100e-15, 3.05e9)
    z2 = transducer.characteristic_impedance(200e-15, 3.05e9)
    assert z1 == pytest.approx(2 * z2)


def _paper_piezo(**overrides):
    kwargs = dict(f_s=3.05e9, f_p=3.05e9 / math.sqrt(1 - 1.7e-4),
                  c_piezo=0.19e-15, c_parasitic=100e-15, f_m=3.05e9,
                  gamma_m=7.96e3, k_eff2=1.7e-4, q_uw=170.0, n_m=0.35, eta_e=1.0)
    kwargs.update(overrides)
    return PiezoInterface(**kwargs)


def test_full_budget_composition():
    budget = transducer.conversion_budget(_paper_piezo())
    assert budget.k_eff2 == 1.7e-4
    assert budget.k_eff2_reduced == pytest.approx(3.3e-7, rel=0.05)
    assert budget.c_em == pytest.approx(21.0, rel=0.01)
    assert budget.added_noise == pytest.approx(0.35 / budget.c_em, rel=1e-12)
    assert budget.impedance == pytest.approx(520.8, rel=0.001)
    assert budget.k_eff2_reduced <= budget.k_eff2


def test_budget_falls_back_to_resonance_estimate():
    budget = transducer.conversion_budget(_paper_piezo(k_eff2=None))
    assert budget.k_eff2 == pytest.approx(1.7e-4, rel=1e-9)


def test_budget_monotonicity():
    noises = []
    coops = []
    for q in (100.0, 170.0, 300.0, 1000.0):
        budget = transducer.conversion_budget(_paper_piezo(q_uw=q))
        coops.append(budget.c_em)
        noises.append(budget.added_noise)
    assert all(b > a for a, b in zip(coops, coops[1:]))
    assert all(b < a for a, b in zip(noises, noises[1:]))


def test_budget_requires_q_and_occupation():
    with pytest.raises(ValueError):
        transducer.conversion_budget(_paper_piezo(q_uw=None))


def test_piezo_interface_invariants():
    mech = dict(f_m=3.05e9, gamma_m=7.96e3)
    with pytest.raises(ValidationError):
        PiezoInterface(f_s=3.05e9, f_p=3.0e9, c_piezo=1e-15, **mech)
    with pytest.raises(ValidationError):
        PiezoInterface(f_s=3.05e9, f_p=3.06e9, c_piezo=-1e-15, **mech)
