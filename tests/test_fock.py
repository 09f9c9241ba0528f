import math

import numpy as np
import pytest

from omclab import fock

import fock_reference as ref


def test_thermal_state_vacuum():
    state = ref.thermal_state(0.0, 6)
    assert state.joint_number_probability(0, 0) == pytest.approx(1.0)
    assert state.mechanical_occupation() == 0.0
    state.validate()


def test_thermal_state_mean_occupation():
    state = ref.thermal_state(1.0, 40)
    assert state.mechanical_occupation() == pytest.approx(1.0, abs=1e-6)


def test_thermal_state_paper_occupation_tail():
    # geometric tail lambda^d with lambda = n/(n+1) is 1.4e-17 at d=12
    lam = 0.041 / 1.041
    assert lam**12 < 1e-14
    state = ref.thermal_state(0.041, 12)
    assert state.mechanical_occupation() == pytest.approx(0.041, abs=1e-12)


def test_thermal_state_truncation_error_suggests_dimension():
    with pytest.raises(ref.TruncationError, match="d >="):
        ref.thermal_state(10.0, 20)
    assert ref.suggested_dim(10.0) == math.ceil(math.log(1e-8) / math.log(10 / 11))


def test_tms_identity_at_zero():
    state = ref.thermal_state(0.1, 16)
    out = ref.apply_two_mode_squeeze(state, 0.0)
    assert np.allclose(out.rho, state.rho, atol=1e-14)


def test_tms_pair_creation_probability():
    # on vacuum: P(1 photon and 1 phonon) = tanh^2(r)/cosh^2(r)
    p_s = 1e-3
    r = math.asinh(math.sqrt(p_s))
    expected = math.tanh(r) ** 2 / math.cosh(r) ** 2
    assert expected == pytest.approx(9.98e-4, abs=5e-7)
    state = ref.apply_two_mode_squeeze(ref.thermal_state(0.0, 10), r)
    assert state.joint_number_probability(1, 1) == pytest.approx(expected, rel=1e-10)


def test_tms_click_scales_with_n_plus_one():
    p_s = 1e-3
    r = math.asinh(math.sqrt(p_s))
    for n in (0.0, 0.1, 0.5):
        state = ref.apply_two_mode_squeeze(ref.thermal_state(n, 30), r)
        click = ref.click_probability(state, 1.0)
        assert click == pytest.approx(p_s * (n + 1), rel=2e-3)


def test_tms_truncation_guard():
    state = ref.thermal_state(1.0, 28)
    with pytest.raises(ref.TruncationError):
        ref.apply_two_mode_squeeze(state, math.asinh(math.sqrt(5.0)))


def test_beamsplitter_identity_at_zero():
    state = ref.thermal_state(0.3, 16)
    out = ref.apply_beamsplitter(state, 0.0)
    assert np.allclose(out.rho, state.rho, atol=1e-14)


def test_beamsplitter_full_swap():
    n = 0.5
    state = ref.thermal_state(n, 24)
    swapped = ref.apply_beamsplitter(state, math.pi / 2)
    assert swapped.optical_occupation() == pytest.approx(n, abs=1e-8)
    assert swapped.mechanical_occupation() == pytest.approx(0.0, abs=1e-10)


def test_beamsplitter_click_scales_with_n():
    p_s = 1e-3
    theta = math.asin(math.sqrt(p_s))
    for n in (0.1, 0.5, 1.0):
        state = ref.apply_beamsplitter(ref.thermal_state(n, 40), theta)
        click = ref.click_probability(state, 1.0)
        assert click == pytest.approx(p_s * n, rel=3e-3)


def test_click_probability_edge_cases():
    vacuum = ref.thermal_state(0.0, 6)
    assert ref.click_probability(vacuum, 1.0) == pytest.approx(0.0, abs=1e-15)
    excited = ref.apply_two_mode_squeeze(ref.thermal_state(0.2, 16), 0.3)
    assert ref.click_probability(excited, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_heralded_state_near_single_phonon():
    p_s = 1e-3
    r = math.asinh(math.sqrt(p_s))
    state = ref.apply_two_mode_squeeze(ref.thermal_state(0.0, 10), r)
    mech = ref.heralded_state(state, 1.0)
    fidelity = float(mech[1, 1].real)
    assert fidelity > 1 - 2 * math.sinh(r) ** 2
    eigs = np.linalg.eigvalsh(mech)
    assert eigs.min() > -1e-10
    assert np.trace(mech).real == pytest.approx(1.0, abs=1e-12)


def test_heralding_error_on_vacuum():
    with pytest.raises(fock.HeraldingError):
        ref.heralded_state(ref.thermal_state(0.0, 6), 1.0)


def test_channels_preserve_trace():
    state = ref.thermal_state(0.5, 20)
    for op in (lambda s: ref.apply_two_mode_squeeze(s, 0.12),
               lambda s: ref.apply_beamsplitter(s, 0.34)):
        out = op(state)
        assert abs(np.trace(out.rho).real - 1.0) < 1e-10
        assert abs(np.trace(out.rho).imag) < 1e-10
        out.validate()


def test_blue_red_ratio_reproduces_occupation_scaling():
    eta = 0.023
    for n in (0.04, 0.1, 1.0):
        for p_s in (1e-3, 1e-2):
            blue = fock.single_pulse_click_probability("blue", n, p_s, eta)
            red = fock.single_pulse_click_probability("red", n, p_s, eta)
            assert blue / red == pytest.approx((n + 1) / n, rel=1e-3)


def test_two_pulse_table_matches_first_order_theory():
    n, p_w, p_r, eta = 0.041, 6e-4, 0.02, 0.023
    table = fock.two_pulse_click_table(n, p_w, p_r, eta)
    assert table.p_write == pytest.approx(eta * p_w * (n + 1), rel=1e-3)
    n_after_write = (1 + p_w) * n + p_w  # pair creation raises the mean
    assert table.p_read == pytest.approx(eta * p_r * n_after_write, rel=1e-4)
    assert table.p11 / table.p_write == pytest.approx(eta * p_r * (1 + 2 * n), rel=5e-3)


def _dense_click_table(n, p_w, p_r, eta):
    """(p_write, p_read, p11) from the truncated-Fock unitaries: write, herald,
    then re-embed the mechanical state with optical vacuum for the read."""
    d = ref.suggested_dim(n) + 8
    state = ref.apply_two_mode_squeeze(ref.thermal_state(n, d), math.asinh(math.sqrt(p_w)))
    theta = math.asin(math.sqrt(p_r))

    def read_click(mech):
        rho = np.zeros((d * d, d * d), dtype=complex)
        rho[:d, :d] = mech  # optical vacuum block
        return ref.click_probability(
            ref.apply_beamsplitter(ref.TwoModeState(rho=rho, d=d), theta), eta)

    p_write = ref.click_probability(state, eta)
    p_read = read_click(state.mechanical_reduced())
    p11 = p_write * read_click(ref.heralded_state(state, eta))
    return p_write, p_read, p11


@pytest.mark.parametrize("n, p_w, p_r, eta", [
    (0.041, 6e-4, 0.02, 0.023),  # published operating point
    (1.0, 0.02, 1.0, 1.0),       # lossless detection, full swap
    (0.5, 0.05, 0.3, 1.0),
    (0.2, 0.01, 0.5, 0.3),
    (0.0, 0.05, 1.0, 1.0),       # ground state: write and read clicks coincide
])
def test_closed_form_table_matches_dense_fock(n, p_w, p_r, eta):
    table = fock.two_pulse_click_table(n, p_w, p_r, eta)
    dense = _dense_click_table(n, p_w, p_r, eta)
    for value, reference in zip((table.p_write, table.p_read, table.p11), dense):
        assert value == pytest.approx(reference, rel=1e-9, abs=0)


def test_oracle_g2_thermal_limit():
    # large thermal occupation: correlations approach the thermal value
    # (2n+1)/n, i.e. 2 from above; no truncation limits the occupation
    for n in (10.0, 30.0):
        g2 = fock.oracle_g2(n, 1e-3, 1e-3, 0.023)
        assert g2 == pytest.approx((2 * n + 1) / n, abs=0.02)
        assert g2 > 2.0
    assert math.isfinite(fock.oracle_g2(30.0, 6e-4, 0.02, 0.023, (3.2e-6, 3.2e-6)))


def test_oracle_g2_paper_scale_nonclassical():
    q = 0.08 / 25e3
    g2 = fock.oracle_g2(0.041, 6e-4, 0.02, 0.023, (q, q))
    assert g2 > 2.0
    # ideal-protocol value ~(2n+1)/n diluted by the dark-count floor
    assert 10 < g2 < 27


def test_oracle_g2_monotone_in_occupation():
    values = [fock.oracle_g2(n, 6e-4, 0.02, 0.023, (3.2e-6, 3.2e-6))
              for n in (0.03, 0.06, 0.12, 0.25, 0.5)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_oracle_g2_read_off_gives_independence():
    g2 = fock.oracle_g2(0.1, 1e-3, 0.0, 0.023, (1e-6, 1e-6))
    assert g2 == pytest.approx(1.0, rel=1e-9)


def test_oracle_g2_undefined_without_read_channel():
    with pytest.raises(fock.HeraldingError):
        fock.oracle_g2(0.1, 1e-3, 0.0, 0.023, (1e-6, 0.0))
