import pytest

from omclab import ConfigError, transducer
from omclab.transducer import PiezoInterface


def _paper_piezo(**overrides):
    kwargs = dict(c_piezo=0.19e-15, c_parasitic=100e-15, f_m=3.05e9,
                  gamma_m=7.96e3, k_eff2=1.7e-4, q_uw=170.0, n_m=0.35, eta_e=1.0)
    kwargs.update(overrides)
    return PiezoInterface(**kwargs)


def test_reduced_keff2_examples():
    def reduced(k_eff2, c_piezo, c_parasitic):
        piezo = _paper_piezo(k_eff2=k_eff2, c_piezo=c_piezo, c_parasitic=c_parasitic)
        return transducer.conversion_budget(piezo).k_eff2_reduced
    assert reduced(1.7e-4, 0.19e-15, 0.0) == 1.7e-4
    assert reduced(1.7e-4, 0.19e-15, 100e-15) == pytest.approx(3.2e-7, rel=0.01)
    assert reduced(2e-4, 1e-15, 1e-15) == pytest.approx(1e-4)


def test_electromech_cooperativity_paper_point():
    # the quoted diluted coupling 3.3e-7 at Q = 170: C_em = k_red^2 * f_m * Q / gamma_m
    piezo = _paper_piezo(k_eff2=3.3e-7, c_parasitic=0.0)
    assert transducer.conversion_budget(piezo).c_em == pytest.approx(21.0, rel=0.03)


def test_electromech_cooperativity_vanishes_at_large_kappa():
    # kappa_e = f_m / q_uw = 1e15 Hz
    piezo = _paper_piezo(k_eff2=3.3e-7, c_parasitic=0.0, q_uw=3.05e9 / 1e15)
    assert transducer.conversion_budget(piezo).c_em < 1e-5


def test_added_noise_examples():
    def noise(c_em, n_m, eta_e=1.0):
        # C_em = k^2 * f_m^2 / ((f_m / q_uw) * gamma_m) = q_uw / 2 here
        piezo = _paper_piezo(k_eff2=0.5, c_parasitic=0.0, f_m=1.0, gamma_m=1.0,
                             q_uw=2 * c_em, n_m=n_m, eta_e=eta_e)
        return transducer.conversion_budget(piezo).added_noise
    assert noise(20.0, 0.35) == pytest.approx(0.0175)
    assert noise(20.0, 0.0) == 0.0
    assert noise(10.0, 0.3, eta_e=0.5) == pytest.approx(2 * noise(10.0, 0.3))


def test_added_noise_diverges():
    # N = n_m / (eta_e C_em): eta_e = 0, or C_em = 0 from q_uw = 0 or k_eff2 = 0
    for overrides, match in ((dict(eta_e=0.0), "eta_e"), (dict(q_uw=0.0), "q_uw"),
                             (dict(k_eff2=0.0), "coupling")):
        with pytest.raises(ValueError, match=match):
            _paper_piezo(**overrides)


def test_characteristic_impedance_examples():
    def impedance(c_total):
        piezo = _paper_piezo(c_piezo=c_total, c_parasitic=0.0)
        return transducer.conversion_budget(piezo).impedance
    assert impedance(100e-15) == pytest.approx(522, rel=0.002)
    assert impedance(0.19e-15) == pytest.approx(275e3, rel=0.005)
    assert impedance(100e-15) == pytest.approx(2 * impedance(200e-15))


def test_full_budget_composition():
    budget = transducer.conversion_budget(_paper_piezo())
    assert budget.k_eff2 == 1.7e-4
    assert budget.k_eff2_reduced == pytest.approx(3.3e-7, rel=0.05)
    assert budget.c_em == pytest.approx(21.0, rel=0.01)
    assert budget.added_noise == pytest.approx(0.35 / budget.c_em, rel=1e-12)
    assert budget.impedance == pytest.approx(520.8, rel=0.001)
    assert budget.k_eff2_reduced <= budget.k_eff2


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
    for unset in ("q_uw", "n_m"):
        with pytest.raises(ConfigError, match="piezo.q_uw and piezo.n_m"):
            transducer.conversion_budget(_paper_piezo(**{unset: None}))


def test_piezo_interface_invariants():
    for overrides in (
        dict(c_piezo=-1e-15),
        dict(c_piezo=0.0),
        dict(c_parasitic=-1e-15),
        dict(f_m=0.0),
        dict(gamma_m=-7.96e3),
        dict(k_eff2=0.0),
        dict(k_eff2=1.0),
        dict(q_uw=0.0),
        dict(q_uw=-170.0),
        dict(n_m=-0.35),
        dict(eta_e=0.0),                       # the added noise would diverge
        dict(eta_e=1.5),
    ):
        with pytest.raises(ConfigError, match="piezo"):
            _paper_piezo(**overrides)
    # the optional fields may stay unset; n_m may be zero
    assert _paper_piezo(q_uw=None, n_m=None).q_uw is None
    assert _paper_piezo(n_m=0.0).n_m == 0.0
