"""End-to-end acceptance checks against the reference device's published numbers.

Each test prints one pass/fail line.  Two checks compare a model against a
published figure whose source is coarser than the model:

* criterion 6d compares the measured correlation 5.66 with the full
  simulation model's prediction (``sim.g2_model``: dark counts, pump
  leakage and pulse heating on top of the exact two-pulse oracle) at the
  published operating point; the ideal oracle, with dark counts alone,
  lies a factor ~3 above both and is reported alongside;
* criterion 8 (noise entry) checks the composed added noise against the band
  that the published budget inputs imply, and the published 0.02 at the one
  significant figure it is quoted to.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from omclab import cavity, cli, fock, optomech, sim, stats, transducer
from omclab.core import (
    DetectionChain,
    HeatingParams,
    MechanicalMode,
    OpticalCavity,
    PulseSequence,
    read_table,
)

import fock_reference as ref
from cavity_reference import phase_winding_over_coupled

KAPPA = 5.14e9
KAPPA_I = 1.31e9
F_M = 2.905e9
GAMMA_M = 13.8e3
G0 = 845e3
ETA_DET = 0.023
ETA_FC = 0.55
N_TH = 0.041

CAVITY = OpticalCavity(f_c=194.8e12, kappa=KAPPA, kappa_i=KAPPA_I)
MODE = MechanicalMode(f_m=F_M, gamma_m=GAMMA_M, n_baseline=N_TH)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_sideband_metrics():
    t0 = time.perf_counter()
    metrics = cavity.sideband_metrics(CAVITY, MODE)
    elapsed = time.perf_counter() - t0
    res, sup = metrics["resolution"], metrics["suppression_db"]
    ok = (f"{res:.3g}" == "0.196"
          and f"{sup:.3g}" == "7.86"
          and math.floor(sup * 10) / 10 == 7.8  # published rounding
          and elapsed < 0.5)
    _report("1", ok, f"resolution={res:.4f}, suppression={sup:.3f} dB, "
                     f"runtime={elapsed * 1e3:.2f} ms")


def test_criterion_02_coupling_efficiency():
    eta, over_analytic = cavity.coupling_efficiency(CAVITY)
    over_winding = phase_winding_over_coupled(CAVITY)
    ok = abs(eta - 0.745) <= 0.01 and over_analytic and over_winding
    _report("2", ok, f"eta_dev={eta:.4f}, over-coupled by inequality={over_analytic} "
                     f"and by phase winding={over_winding}")


def test_criterion_03_calibration_chain():
    duration = 40e-9
    powers_uw = np.linspace(0.005, 1.0, 12)
    points = []
    for p_uw in powers_uw:
        energy = p_uw * 1e-6 * duration * ETA_FC
        points.append((p_uw, optomech.scattering_probability("blue", energy, G0,
                                                             CAVITY, MODE)))
    slope = stats.fit_linear(np.asarray(points)).params["slope"]
    p_25nw = optomech.scattering_probability("blue", 25e-9 * duration * ETA_FC,
                                             G0, CAVITY, MODE)
    ok = abs(slope - 2.6e-2) / 2.6e-2 <= 0.15 and 0.0005 <= p_25nw <= 0.0007
    _report("3", ok, f"slope={slope:.3e} per uW (target 2.6e-2 within 15%), "
                     f"p_s(25 nW)={p_25nw * 100:.4f}%")


def _thermometry_config(device_config, side: str, n_sequences: int):
    detection = DetectionChain(eta_dev=1.0, eta_fc=1.0, eta_rest=ETA_DET)
    base = dataclasses.replace(device_config, detection=detection, mode=MODE)
    return sim.single_pulse_config(base, side, 0.02, n_sequences)


def test_criterion_04_thermometry_round_trip(device_config):
    n_seq = 10**7
    t0 = time.perf_counter()
    _, red_report = sim.simulate(_thermometry_config(device_config, "red", n_seq), 41)
    _, blue_report = sim.simulate(_thermometry_config(device_config, "blue", n_seq), 42)
    clicks_r = sum(red_report.pulse_totals[0].values())
    clicks_b = sum(blue_report.pulse_totals[0].values())
    n_est, n_err = optomech.occupation_from_counts(
        clicks_r, n_seq, red_report.pulse_ps[0],
        clicks_b, n_seq, blue_report.pulse_ps[0], ETA_DET)
    elapsed = time.perf_counter() - t0
    ok = abs(n_est - N_TH) <= 3 * n_err and elapsed < 60
    _report("4", ok, f"n_th={n_est:.4f} +- {n_err:.4f} (truth {N_TH}), "
                     f"{clicks_r}/{clicks_b} red/blue clicks, runtime={elapsed:.1f} s")


def test_criterion_04b_fig2_pulls_at_1e8_sequences(tmp_path, device_config_path):
    # at 1e8 sequences per point the statistical error (~0.5%) dominates the
    # first-order estimator's bias (at most +0.16% over the grid)
    t0 = time.perf_counter()
    code = cli.main(["reproduce", "fig2", "--config", str(device_config_path),
                     "--out", str(tmp_path), "--seed", "0", "--sequences", "100000000"])
    elapsed = time.perf_counter() - t0
    _, names, columns = read_table(tmp_path / "fig2_thermometry.csv")
    col = dict(zip(names, columns))
    pulls = [(float(est) - float(true)) / float(err)
             for est, true, err in zip(col["n_th_est"], col["n_th_true"], col["n_th_err"])]
    ok = code == 0 and len(pulls) == 6 and all(abs(z) <= 3 for z in pulls)
    _report("4b (fig2 thermometry pulls)", ok,
            f"(n_est - n_true)/err = {', '.join(f'{z:+.2f}' for z in pulls)} over the "
            f"six-point grid at 1e8 sequences per point, runtime={elapsed:.1f} s")


def test_criterion_05_oracle_sideband_ratio():
    worst = 0.0
    for n in (0.04, 0.1, 1.0):
        for p_s in (1e-3, 1e-2):
            blue = fock.single_pulse_click_probability("blue", n, p_s, ETA_DET)
            red = fock.single_pulse_click_probability("red", n, p_s, ETA_DET)
            deviation = abs(blue / red / ((n + 1) / n) - 1)
            worst = max(worst, deviation)
    ok = worst < 1e-3
    _report("5", ok, f"max |ratio/(n+1):n - 1| = {worst:.2e} over the grid (closed-form oracle)")


def _dlcz_acceptance_config(device_config, n_sequences: int):
    detection = DetectionChain(eta_dev=1.0, eta_fc=1.0, eta_rest=ETA_DET,
                               dark_rate=0.08)
    mode = MechanicalMode(f_m=F_M, gamma_m=GAMMA_M, n_baseline=N_TH,
                          heating=HeatingParams())
    base = dataclasses.replace(device_config, detection=detection, mode=mode)
    write = dataclasses.replace(
        sim.single_pulse_config(base, "blue", 6e-4, 1).sequence.pulses[0],
        window=40e-6)
    read = dataclasses.replace(
        sim.single_pulse_config(base, "red", 0.02, 1).sequence.pulses[0],
        start=190e-9, window=39.8e-6)
    seq = PulseSequence((write, read), 25e3, n_sequences)
    return dataclasses.replace(base, sequence=seq)


def _dlcz_dark_probs(config):
    return tuple(-math.expm1(-config.detection.dark_rate * p.window_length)
                 for p in config.sequence.pulses)


def test_criterion_06_nonclassicality_oracle_and_monte_carlo(device_config):
    t0 = time.perf_counter()
    n_seq = 10**6
    config = _dlcz_acceptance_config(device_config, n_seq)
    darks = _dlcz_dark_probs(config)
    oracle = fock.oracle_g2(N_TH, 6e-4, 0.02, ETA_DET, darks)

    batch, report = sim.simulate(config, 2026)
    assert report.pulse_ps == (pytest.approx(6e-4), pytest.approx(0.02))

    same = stats.g2_crosscorr(batch, 0, level=0.997)
    agree = same.ci_low <= oracle <= same.ci_high

    offsets_ok = True
    for dn in (-4, -3, -2, -1, 1, 2, 3, 4):
        est = stats.g2_crosscorr(batch, dn)
        offsets_ok &= est.ci_low <= 1.0 <= est.ci_high

    # asymmetric interval at few counts, as for the published +1.51/-0.98
    lo, hi = stats.coincidence_ci(6, 500, 600, 10**5)
    mid = (6 / 10**5) / ((500 / 10**5) * (600 / 10**5))
    asym = (hi - mid) > (mid - lo) > 0
    elapsed = time.perf_counter() - t0

    ok = oracle > 2.0 and agree and offsets_ok and asym and elapsed < 300
    _report("6 (oracle + Monte Carlo)", ok,
            f"oracle g2={oracle:.2f} > 2, MC dn=0 counts={same.counts} with 3-sigma "
            f"interval [{same.ci_low:.2f}, {same.ci_high:.2f}] covering the oracle; "
            f"off-sequence g2 consistent with 1: {offsets_ok}; asymmetric CI: {asym}; "
            f"runtime={elapsed:.1f} s")


def test_criterion_06d_measured_value_within_factor_two(device_config):
    predicted = sim.g2_model(device_config).predicted_g2
    config = _dlcz_acceptance_config(device_config, 1)
    ideal = fock.oracle_g2(N_TH, 6e-4, 0.02, ETA_DET, _dlcz_dark_probs(config))
    measured = 5.66
    # The published operating point is the device config itself.  Its
    # heating calibration (labelled "representative" there) adds ~0.14
    # phonons between write and read; that uncorrelated read click carries
    # most of the dilution (the prediction is 16.96 with the heating block
    # removed), pump leakage the rest (5.86 without it).  The agreement is
    # therefore partly set by that calibration.
    # Backgrounds can only dilute the correlation, so the ideal oracle, with
    # dark counts as its only background, must lie above the full model.
    ok = predicted / 2 <= measured <= predicted * 2 and ideal > predicted
    _report("6d (measured value within factor 2 of the full model)", ok,
            f"predicted g2={predicted:.2f} (oracle with dark, leakage and "
            f"heating backgrounds) vs measured {measured}, ratio "
            f"{measured / predicted:.2f}; ideal oracle with dark counts only "
            f"g2={ideal:.2f} at n_th=0.041, p_w=6e-4, p_r=0.02, eta=0.023")


def test_criterion_06e_published_point_monte_carlo(device_config):
    # 1e10 sequences at the published operating point give ~75 coincidences,
    # enough for the Monte Carlo to tell the full model from the ideal oracle
    t0 = time.perf_counter()
    config = dataclasses.replace(device_config, sequence=dataclasses.replace(
        device_config.sequence, n_sequences=10**10))
    batch, _ = sim.simulate(config, 10)
    model = sim.g2_model(config)
    same = stats.g2_crosscorr(batch, 0, level=0.997)
    covers = same.ci_low <= model.predicted_g2 <= same.ci_high
    excludes = not same.ci_low <= model.oracle_g2 <= same.ci_high
    offsets = [stats.g2_crosscorr(batch, dn, level=0.997)
               for dn in (-4, -3, -2, -1, 1, 2, 3, 4)]
    offsets_ok = all(e.ci_low <= 1.0 <= e.ci_high for e in offsets)
    elapsed = time.perf_counter() - t0
    ok = covers and excludes and offsets_ok
    _report("6e (published point, 1e10 sequences)", ok,
            f"MC g2(0)={same.value:.2f} from counts={same.counts}, 99.7% interval "
            f"[{same.ci_low:.2f}, {same.ci_high:.2f}] covers the full model "
            f"{model.predicted_g2:.2f}: {covers}; excludes the ideal oracle "
            f"{model.oracle_g2:.2f}: {excludes}; off-sequence g2 consistent with 1: "
            f"{offsets_ok}; runtime={elapsed:.1f} s")


def test_criterion_07_heating_fit_recovery():
    rng = np.random.default_rng(314)
    tau_decay, tau_rise = 22e-6, 165e-9
    t = np.geomspace(5e-8, 1.1e-4, 40)
    truth = 1.1 * np.exp(-t / tau_decay) * (1 - np.exp(-t / tau_rise)) + 0.12
    noisy = truth * (1 + 0.02 * rng.standard_normal(t.size))
    fit = stats.fit_biexponential(np.column_stack([t, noisy]))
    err_decay = abs(fit.params["tau_decay"] - tau_decay) / tau_decay
    err_rise = abs(fit.params["tau_rise"] - tau_rise) / tau_rise
    ok = fit.converged and err_decay <= 0.05 and err_rise <= 0.05
    _report("7", ok, f"tau_decay off by {err_decay * 100:.2f}%, "
                     f"tau_rise off by {err_rise * 100:.2f}% at 2% noise")


PAPER_PIEZO = transducer.PiezoInterface(
    k_eff2=1.7e-4, c_piezo=0.19e-15, c_parasitic=100e-15, f_m=3.05e9, gamma_m=7.96e3,
    q_uw=170.0, n_m=0.35, eta_e=1.0)


def _paper_budget():
    return transducer.conversion_budget(PAPER_PIEZO)


def test_criterion_08_transducer_budget_coupling_cooperativity_impedance():
    budget = _paper_budget()
    ok = (abs(budget.k_eff2_reduced - 3.3e-7) / 3.3e-7 <= 0.05
          and abs(budget.c_em - 20.0) / 20.0 <= 0.10
          and abs(budget.impedance - 520.0) / 520.0 <= 0.01)
    _report("8 (coupling, cooperativity, impedance)", ok,
            f"k2_red={budget.k_eff2_reduced:.3e} (3.3e-7 +-5%), "
            f"C_em={budget.c_em:.2f} (20 +-10%), Z={budget.impedance:.1f} Ohm "
            f"(520 +-1%)")


def test_criterion_08_transducer_budget_added_noise():
    budget = _paper_budget()
    noise = budget.added_noise
    composed = PAPER_PIEZO.n_m / (PAPER_PIEZO.eta_e * budget.c_em)
    # The published inputs fix the band: n_m = 0.35 over the published
    # cooperativity 20 +- 10% (criterion 8's sibling entry) gives
    # [0.35/22, 0.35/18].  The published 0.02 is quoted to one significant
    # figure (0.35/20 = 0.0175 rounded), so the composed value must round to
    # it and no more; Q = 170 delivers C_em = 21.0 and N = 0.0167.
    low, high = 0.35 / 22.0, 0.35 / 18.0
    ok = (noise == pytest.approx(composed, rel=1e-12)
          and low <= noise <= high
          and f"{noise:.1g}" == "0.02")
    _report("8 (added noise)", ok,
            f"N={noise:.4f} photons = n_m/(eta_e C_em) = 0.35/{budget.c_em:.2f}, "
            f"inside [{low:.4f}, {high:.4f}]; rounds to {noise:.1g} at the one "
            f"significant figure of the published 0.02")


def test_criterion_09_ci_coverage():
    g2_true, p_w, p_r, n_seq, reps = 2.0, 4e-3, 4e-3, 6_000_000, 1000
    rng = np.random.default_rng(2027)
    p11 = g2_true * p_w * p_r
    probs = [1 - p_w - p_r + p11, p_r - p11, p_w - p11, p11]
    counts = rng.multinomial(n_seq, probs, size=reps)
    hits = 0
    for n00, n01, n10, n11 in counts:
        lo, hi = stats.coincidence_ci(int(n11), int(n10 + n11), int(n01 + n11), n_seq)
        hits += lo <= g2_true <= hi
    coverage = hits / reps
    ok = abs(coverage - 0.68) <= 0.04
    _report("9 (CI coverage)", ok, f"68% interval covered truth in "
                                   f"{coverage * 100:.1f}% of {reps} replicas")


def test_criterion_09_simulator_determinism(tmp_path, device_config):
    config = _dlcz_acceptance_config(device_config, 50_000)
    paths = []
    for run in ("a", "b"):
        batch, _ = sim.simulate(config, 7)
        path = tmp_path / f"{run}.npz"
        sim.write_records(batch, path)
        paths.append(path.read_bytes())
    ok = paths[0] == paths[1]
    _report("9 (determinism)", ok, "repeated (config, seed) runs are byte-identical")


def test_criterion_09_fitter_exactness():
    x = np.linspace(-1.5e10, 1.5e10, 64)
    lorentz = 0.9 - 0.6 / (1 + (x / (5.14e9 / 2)) ** 2) + 2e-12 * x
    r1 = stats.fit_lorentzian_with_offset(np.column_stack([x, lorentz])).residual_norm
    t = np.geomspace(5e-8, 1.1e-4, 32)
    biexp = 0.8 * np.exp(-t / 22e-6) * (1 - np.exp(-t / 165e-9)) + 0.05
    r2 = stats.fit_biexponential(np.column_stack([t, biexp])).residual_norm
    line = np.column_stack([x, 3e-12 * x + 0.1])
    r3 = stats.fit_linear(line).residual_norm
    ok = max(r1, r2, r3) < 1e-9
    _report("9 (fitter exactness)", ok,
            f"noiseless residual norms: lorentzian={r1:.1e}, "
            f"biexponential={r2:.1e}, linear={r3:.1e}")


def test_criterion_09_trace_preservation():
    state = ref.thermal_state(0.5, 20)
    worst = 0.0
    for channel in (lambda s: ref.apply_two_mode_squeeze(s, 0.1),
                    lambda s: ref.apply_beamsplitter(s, 0.25)):
        out = channel(state)
        worst = max(worst, abs(complex(np.trace(out.rho)) - 1.0))
        out.validate()
    ok = worst < 1e-10
    _report("9 (trace preservation)", ok,
            f"max |tr(rho) - 1| = {worst:.2e} across both interaction channels")
