import numpy as np
import pytest

from omclab import cavity
from omclab.core import MechanicalMode, OpticalCavity

from cavity_reference import phase_winding_over_coupled


def make_cavity(kappa=5.14e9, kappa_i=1.31e9, f_c=194.8e12):
    return OpticalCavity(f_c=f_c, kappa=kappa, kappa_i=kappa_i)


def test_reflection_critical_coupling_dip():
    cav = OpticalCavity(f_c=194.8e12, kappa=2e9, kappa_i=1e9)
    assert cavity.reflection_amplitude(0.0, cav) == pytest.approx(0.0, abs=1e-12)


def test_reflection_overcoupled_value():
    # kappa_e = 0.75 kappa: r(0) = 1 - 0.75/0.5 = -0.5 by direct algebra
    cav = OpticalCavity(f_c=194.8e12, kappa=4e9, kappa_i=1e9)
    r0 = cavity.reflection_amplitude(0.0, cav)
    assert r0 == pytest.approx(-0.5)
    assert abs(r0) ** 2 == pytest.approx(0.25)


def test_reflection_far_detuned_limit():
    cav = make_cavity()
    r = cavity.reflection_amplitude(1e4 * cav.kappa, cav)
    assert abs(r - 1.0) < 1e-3


def test_reflection_modulus_bounded():
    cav = make_cavity()
    grid = np.linspace(-10 * cav.kappa, 10 * cav.kappa, 1001)
    assert np.all(np.abs(cavity.reflection_amplitude(grid, cav)) <= 1 + 1e-12)


def test_energy_conservation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        kappa_i = 10 ** rng.uniform(8, 10)
        kappa_e = 10 ** rng.uniform(8, 10)
        cav = OpticalCavity(f_c=194.8e12, kappa=kappa_i + kappa_e, kappa_i=kappa_i)
        grid = np.linspace(-5 * cav.kappa, 5 * cav.kappa, 101)
        # the power lost to intrinsic channels, the complement of |r|^2
        absorbed = cav.kappa_i * cav.kappa_e / (grid**2 + (cav.kappa / 2) ** 2)
        total = np.abs(cavity.reflection_amplitude(grid, cav)) ** 2 + absorbed
        assert np.allclose(total, 1.0, atol=1e-12)


def test_coupling_efficiency_paper_point():
    eta, over = cavity.coupling_efficiency(make_cavity())
    assert eta == pytest.approx(0.745, abs=0.001)
    assert over


def test_coupling_efficiency_limits():
    all_intrinsic = OpticalCavity(f_c=1e14, kappa=1e9, kappa_i=1e9)
    eta, over = cavity.coupling_efficiency(all_intrinsic)
    assert eta == 0.0 and not over
    # fully external coupling needs a tiny intrinsic part to stay a valid cavity
    nearly_external = OpticalCavity(f_c=1e14, kappa=1e9, kappa_i=1e-3)
    eta, over = cavity.coupling_efficiency(nearly_external)
    assert eta == pytest.approx(1.0, abs=1e-11)
    assert over


def test_phase_winding_agrees_with_inequality():
    rng = np.random.default_rng(2024)
    n_checked = 0
    while n_checked < 10_000:
        kappa_i = 10 ** rng.uniform(7.5, 10.5)
        kappa_e = 10 ** rng.uniform(7.5, 10.5)
        kappa = kappa_i + kappa_e
        if abs(kappa_e / kappa - 0.5) < 1e-3:
            continue  # skip numerically critical coupling
        cav = OpticalCavity(f_c=194.8e12, kappa=kappa, kappa_i=kappa_i)
        _, over = cavity.coupling_efficiency(cav)
        assert phase_winding_over_coupled(cav) == over
        n_checked += 1


def test_sideband_metrics_paper_point():
    metrics = cavity.sideband_metrics(make_cavity(), MechanicalMode(f_m=2.905e9, gamma_m=13.8e3))
    assert metrics["resolution"] == pytest.approx(0.196, abs=5e-4)
    assert metrics["suppression_db"] == pytest.approx(7.86, abs=5e-3)


def test_sideband_metrics_limits():
    mode = MechanicalMode(f_m=2.905e9, gamma_m=13.8e3)
    tiny = OpticalCavity(f_c=194.8e12, kappa=1e4, kappa_i=5e3)
    m = cavity.sideband_metrics(tiny, mode)
    assert m["resolution"] < 1e-10
    assert m["suppression_db"] > 100
    boundary = OpticalCavity(f_c=194.8e12, kappa=4 * mode.f_m, kappa_i=1e9)
    assert cavity.sideband_metrics(boundary, mode)["resolution"] == pytest.approx(1.0)


def test_sideband_metrics_scale_invariant():
    mode = MechanicalMode(f_m=2.905e9, gamma_m=13.8e3)
    base = cavity.sideband_metrics(make_cavity(), mode)
    for scale in (0.3, 2.0, 17.0):
        scaled = cavity.sideband_metrics(
            make_cavity(kappa=5.14e9 * scale, kappa_i=1.31e9 * scale),
            MechanicalMode(f_m=2.905e9 * scale, gamma_m=13.8e3 * scale))
        assert scaled["resolution"] == pytest.approx(base["resolution"], rel=1e-12)
        assert scaled["suppression_db"] == pytest.approx(base["suppression_db"], rel=1e-12)


def test_intracavity_photons_zero_power_and_linearity():
    cav = make_cavity()
    assert cavity.intracavity_photons(0.0, 2.905e9, cav, cav.f_c) == 0.0
    one = cavity.intracavity_photons(1e-9, 2.905e9, cav, cav.f_c)
    two = cavity.intracavity_photons(2e-9, 2.905e9, cav, cav.f_c)
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_intracavity_photons_for_cooperativity_twenty():
    # n_c needed for C = 20 follows from inverting C = 4 g0^2 n_c / (kappa gamma_m)
    cav = make_cavity()
    mode = MechanicalMode(f_m=2.905e9, gamma_m=13.8e3)
    g0 = 845e3
    n_c_target = 20 * cav.kappa * mode.gamma_m / (4 * g0**2)
    assert n_c_target == pytest.approx(497, rel=0.01)
    # find the drive power that produces it and close the loop
    f_l = cav.f_c - mode.f_m
    base = cavity.intracavity_photons(1.0, mode.f_m, cav, f_l)
    power = n_c_target / base
    n_c = cavity.intracavity_photons(power, mode.f_m, cav, f_l)
    assert n_c == pytest.approx(n_c_target, rel=1e-12)
    assert n_c == pytest.approx(5e2, rel=0.01)


def test_reflection_spectrum_shape():
    spec = cavity.reflection_spectrum(make_cavity(), span=2.0, n_points=101)
    assert spec.shape == (101, 3)
    assert spec[:, 1].min() >= 0.0
    mid = spec[50]
    assert mid[0] == pytest.approx(0.0, abs=1e-3)
