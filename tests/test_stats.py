import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import chi2

import biexp_reference
from omclab import sim, stats
from omclab.sim import RecordBatch


def _records(n, w, r):
    """A blind batch of n sequences: write clicks in sequences w, then read clicks in r."""
    w, r = np.asarray(w, dtype=np.int64), np.asarray(r, dtype=np.int64)
    return RecordBatch(
        n_sequences=n,
        sequence_index=np.concatenate([w, r]),
        pulse_index=np.repeat(np.array([0, 1], dtype=np.int16), [w.size, r.size]),
        pulse_label=np.repeat(np.array([0, 1], dtype=np.int8), [w.size, r.size]),
        click_time=np.repeat([20e-9, 210e-9], [w.size, r.size]),
        origin=None,
    )


def _records_from_masks(write, read):
    return _records(write.size, np.flatnonzero(write), np.flatnonzero(read))


def test_g2_independent_streams_consistent_with_one():
    rng = np.random.default_rng(19)
    n = 200_000
    write = rng.random(n) < 0.01
    read = rng.random(n) < 0.012
    est = stats.g2_crosscorr(_records_from_masks(write, read), 0, level=0.997)
    assert est.ci_low <= 1.0 <= est.ci_high


def test_g2_deterministic_pairing_gives_inverse_rate():
    # every write click is followed by a read click in the same sequence
    rng = np.random.default_rng(23)
    n = 100_000
    p = 0.02
    write = rng.random(n) < p
    est = stats.g2_crosscorr(_records_from_masks(write, write.copy()), 0)
    p_hat = write.mean()
    assert est.value == pytest.approx(1.0 / p_hat, rel=1e-12)
    assert est.value == pytest.approx(1.0 / p, rel=0.05)


def test_g2_offset_uses_shifted_pairs():
    n = 1000
    write = np.zeros(n, dtype=bool)
    read = np.zeros(n, dtype=bool)
    write[::10] = True
    read[1::10] = True  # read always one sequence after a write
    est = stats.g2_crosscorr(_records_from_masks(write, read), 1)
    assert est.counts[0] == est.counts[1]  # every usable write pairs up
    est0 = stats.g2_crosscorr(_records_from_masks(write, read), 0)
    assert est0.counts[0] == 0


def test_g2_unsorted_duplicate_clicks_count_as_sorted_distinct():
    # a record file may list clicks in any row order and repeat a sequence
    rng = np.random.default_rng(41)
    n = 2000
    write = rng.random(n) < 0.1
    read = (write & (rng.random(n) < 0.5)) | (rng.random(n) < 0.05)
    clean = _records_from_masks(write, read)
    doubled = np.concatenate([np.arange(len(clean)), rng.choice(len(clean), 150)])
    order = rng.permutation(doubled)
    messy = RecordBatch(n_sequences=n, sequence_index=clean.sequence_index[order],
                        pulse_index=clean.pulse_index[order],
                        pulse_label=clean.pulse_label[order],
                        click_time=clean.click_time[order], origin=None)
    assert np.any(np.diff(messy.sequence_index) < 0)
    for label in (0, 1):
        clicked = messy.sequence_index[messy.pulse_label == label]
        assert np.unique(clicked).size < clicked.size
    for dn in range(-3, 4):
        w = write[max(0, -dn):n - max(0, dn)]
        r = read[max(0, dn):n - max(0, -dn)]
        expected = (int((w & r).sum()), int(w.sum()), int(r.sum()), w.size)
        assert stats.g2_crosscorr(clean, dn).counts == expected
        assert stats.g2_crosscorr(messy, dn).counts == expected


def test_clicked_sequences_are_sorted_and_distinct():
    # each label's rows come unsorted and repeated, so _sorted_distinct sorts
    batch = RecordBatch(n_sequences=10, sequence_index=np.array([5, 9, 2, 5, 0, 2, 7, 9]),
                        pulse_index=np.zeros(8, dtype=np.int16),
                        pulse_label=np.array([0, 1, 0, 0, 1, 0, 1, 1], dtype=np.int8),
                        click_time=np.zeros(8, dtype=np.int64), origin=None)
    write = stats._clicked_sequences(batch, "write")
    read = stats._clicked_sequences(batch, "read")
    assert write.tolist() == [2, 5] and read.tolist() == [0, 7, 9]
    assert write.dtype == read.dtype == np.int64
    assert not write.flags.writeable and stats._clicked_sequences(batch, "write") is write


def _merged_coincidences(batch, dn):
    """The coincidences at dn by ``_n_common``'s merge, whatever the batch's size."""
    n = batch.n_sequences
    w_lo, w_hi = max(0, -dn), n - max(0, dn)
    w = stats._within(stats._clicked_sequences(batch, "write"), w_lo, w_hi)
    r = stats._within(stats._clicked_sequences(batch, "read"), w_lo + dn, w_hi + dn)
    return stats._n_common(w + dn, r)


@pytest.mark.parametrize("n, p, dense", [(3000, 0.2, True), (2_000_000, 5e-5, False)])
def test_g2_mask_and_merge_count_the_same_coincidences(n, p, dense):
    # the mask is built when n_sequences is at most the bytes of the batch's
    # sequence_index, pulse_label and click_time (17 B per click here)
    rng = np.random.default_rng(47)
    write, read = rng.random(n) < p, rng.random(n) < p
    for clicked in (write, read):  # shifted indices reach 0 and n - 1
        clicked[:5] = clicked[-5:] = True
    blind = _records_from_masks(write, read)
    labelled = RecordBatch(n_sequences=n, sequence_index=blind.sequence_index,
                           pulse_index=blind.pulse_index, pulse_label=blind.pulse_label,
                           click_time=blind.click_time,
                           origin=np.zeros(len(blind), dtype=np.int8))
    rows = rng.permutation(np.concatenate([np.arange(len(blind)), rng.choice(len(blind), 40)]))
    messy = RecordBatch(n_sequences=n, sequence_index=blind.sequence_index[rows],
                        pulse_index=blind.pulse_index[rows], pulse_label=blind.pulse_label[rows],
                        click_time=blind.click_time[rows], origin=None)
    for batch in (blind, labelled, messy):
        for dn in range(-4, 5):
            w = write[max(0, -dn):n - max(0, dn)]
            r = read[max(0, dn):n - max(0, -dn)]
            expected = (int((w & r).sum()), int(w.sum()), int(r.sum()), w.size)
            assert stats.g2_crosscorr(batch, dn).counts == expected
            assert _merged_coincidences(batch, dn) == expected[0]
        assert ("read mask" in batch._clicked) == dense


def test_g2_on_a_sparse_huge_batch_builds_no_mask():
    # scipy.optimize, which coincidence_ci imports, is loaded with this module
    n = 10**12
    writes, reads = [0, 1, 5, n - 3, n - 1], [0, 2, 5, n - 4, n - 1]
    batch = _records(n, writes, reads)
    tracemalloc.start()
    try:
        counts = [stats.g2_crosscorr(batch, dn).counts for dn in range(-4, 5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert "read mask" not in batch._clicked
    for dn, got in zip(range(-4, 5), counts):
        w = [i for i in writes if max(0, -dn) <= i < n - max(0, dn)]
        r = [j for j in reads if max(0, dn) <= j < n - max(0, -dn)]
        n_c = len({i + dn for i in w} & set(r))
        assert got == (n_c, len(w), len(r), n - abs(dn))


def test_g2_requires_clicks():
    n = 100
    write = np.zeros(n, dtype=bool)
    write[3] = True
    with pytest.raises(stats.UndefinedEstimateError):
        stats.g2_crosscorr(_records_from_masks(write, np.zeros(n, dtype=bool)), 0)


def test_g2_offset_beyond_the_run_is_undefined():
    clicks = np.ones(3, dtype=bool)
    with pytest.raises(stats.UndefinedEstimateError,
                       match=r"g2\(dn=-3\) undefined: 3 sequences have no pair 3 apart"):
        stats.g2_crosscorr(_records_from_masks(clicks, clicks.copy()), -3)


def test_g2_thinning_invariance():
    # halving both streams at random moves the estimate by less than the CI width
    rng = np.random.default_rng(31)
    n = 400_000
    write = rng.random(n) < 0.02
    read = write & (rng.random(n) < 0.5)
    read |= rng.random(n) < 0.005
    base = stats.g2_crosscorr(_records_from_masks(write, read), 0)
    shifts = []
    for trial in range(100):
        keep_w = write & (rng.random(n) < 0.5)
        keep_r = read & (rng.random(n) < 0.5)
        thinned = stats.g2_crosscorr(_records_from_masks(keep_w, keep_r), 0)
        shifts.append(abs(thinned.value - base.value))
    width = base.ci_high - base.ci_low
    assert np.median(shifts) < width
    assert np.mean(np.array(shifts) < 2 * width) > 0.9


def test_coincidence_ci_zero_count_one_sided():
    lo, hi = stats.coincidence_ci(0, 40, 50, 10_000)
    assert lo == 0.0
    assert hi > 0.0
    # the upper bound is closed form in the chi2(level, 1) quantile
    n, n_w, n_r = 10**6, 400, 500
    for level in (0.5, 0.68, 0.95, 0.997):
        _, hi = stats.coincidence_ci(0, n_w, n_r, n, level=level)
        p_hi = -math.expm1(-chi2.ppf(level, 1) / 2 / n)
        assert hi == pytest.approx(p_hi / ((n_w / n) * (n_r / n)), rel=1e-13)


def test_coincidence_ci_validates_counts():
    with pytest.raises(ValueError):
        stats.coincidence_ci(10, 5, 50, 1000)
    with pytest.raises(stats.UndefinedEstimateError):
        stats.coincidence_ci(0, 0, 50, 1000)


def test_coincidence_ci_asymmetric_at_few_counts():
    n_c, n_w, n_r, n = 6, 500, 600, 100_000
    lo, hi = stats.coincidence_ci(n_c, n_w, n_r, n)
    value = (n_c / n) / ((n_w / n) * (n_r / n))
    assert hi - value > value - lo > 0


def test_coincidence_ci_matches_gaussian_at_large_counts():
    n = 10**6
    k, n_w, n_r = 20_000, 150_000, 160_000
    lo, hi = stats.coincidence_ci(k, n_w, n_r, n)
    z = math.sqrt(chi2.ppf(0.68, 1))
    p = k / n
    width_gauss = 2 * z * math.sqrt(p * (1 - p) / n) / ((n_w / n) * (n_r / n))
    assert (hi - lo) == pytest.approx(width_gauss, rel=0.05)


def test_coincidence_ci_relative_accuracy_at_1e10_sequences():
    # counts of a 1e10-sequence run at the published point, where k/n ~ 9e-9
    k, n_w, n_r, n = 86, 162666, 852363, 10**10
    p_hat = k / n
    scale = (n_w / n) * (n_r / n)
    for level in (0.68, 0.997):
        delta = chi2.ppf(level, 1) / 2

        def drop(t):
            # log likelihood at p = e^t relative to its maximum, plus delta
            return (k * (t - math.log(p_hat))
                    + (n - k) * (math.log1p(-math.exp(t)) - math.log1p(-p_hat)) + delta)

        # a tighter solve, in log p, so its tolerance is relative
        t_hat = math.log(p_hat)
        p_lo = math.exp(brentq(drop, t_hat - 10, t_hat, xtol=1e-15, rtol=1e-15))
        p_hi = math.exp(brentq(drop, t_hat, t_hat + 5, xtol=1e-15, rtol=1e-15))
        lo, hi = stats.coincidence_ci(k, n_w, n_r, n, level=level)
        assert lo == pytest.approx(p_lo / scale, rel=1e-12)
        assert hi == pytest.approx(p_hi / scale, rel=1e-12)


def test_coincidence_ci_coverage(device_config):
    # the 68% interval covers the truth in 68% +- 4% of multinomial replicas
    # of the dn = 0 click pairs: at a fixed g2 = 2 point, and at the device's
    # g2 model, with every background the sampler ORs on each window, at 1e10
    # sequences (about 76 expected coincidences; 4000 replicas give a
    # standard error of about 0.007)
    model = sim.g2_model(device_config)
    table = dict(model.outcomes)[model.pair]  # axes (write, read): 0 for no click
    p_wr, p_w, p_r = table[1:, 1:].sum(), table[1:].sum(), table[:, 1:].sum()
    assert p_wr / (p_w * p_r) == model.predicted_g2  # the same sums of the same table
    points = [  # g2, p_wr, p_w, p_r, sequences, replicas, seed
        (2.0, 2.0 * 4e-3 * 4e-3, 4e-3, 4e-3, 6_000_000, 1000, 2027),
        (model.predicted_g2, p_wr, p_w, p_r, 10**10, 4000, 9),
    ]
    for g2, p11, p_w, p_r, n_seq, reps, seed in points:
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(n_seq, [1 - p_w - p_r + p11, p_r - p11, p_w - p11, p11],
                                 size=reps)
        low, high = np.array([stats.coincidence_ci(int(n11), int(n10 + n11), int(n01 + n11),
                                                   n_seq)
                              for _, n01, n10, n11 in counts]).T
        n01, n10, n11 = counts[:, 1:].T
        point = n11 * n_seq / ((n10 + n11) * (n01 + n11))

        def coverage(scale):
            """Share of the intervals, scaled about their point, that hold g2."""
            return np.mean((point - scale * (point - low) <= g2)
                           & (g2 <= point + scale * (high - point)))

        assert abs(coverage(1.0) - 0.68) <= 0.04, g2
        # the band fails an interval mis-scaled either way
        assert coverage(0.8) < 0.64 and coverage(1.25) > 0.72, g2
    # known and not asserted: at the device's model at 1e9 sequences (7.6
    # expected coincidences) the interval undercovers, about 0.64, with g2
    # above it in about 0.21


def test_fit_linear_exact_through_two_points():
    fit = stats.fit_linear([(1.0, 3.0), (3.0, 7.0)])
    assert fit.params["slope"] == pytest.approx(2.0)
    assert fit.params["intercept"] == pytest.approx(1.0)
    assert fit.residual_norm < 1e-12


def test_fit_linear_degenerate_x():
    with pytest.raises(ValueError):
        stats.fit_linear([(1.0, 2.0), (1.0, 3.0)])


def test_fit_linear_stderr_scales():
    rng = np.random.default_rng(5)
    x = np.linspace(0, 1, 200)
    y = 2.0 * x + 0.3 + 0.05 * rng.standard_normal(x.size)
    fit = stats.fit_linear(np.column_stack([x, y]))
    assert fit.params["slope"] == pytest.approx(2.0, abs=4 * fit.stderr["slope"])
    assert 0.005 < fit.stderr["slope"] < 0.05


def test_fit_lorentzian_recovers_cavity_linewidth():
    kappa = 5.14e9
    x = np.linspace(-3 * kappa, 3 * kappa, 401)
    y = 0.93 - 0.68 / (1 + (x / (kappa / 2)) ** 2) + 4e-12 * x
    fit = stats.fit_lorentzian_with_offset(np.column_stack([x, y]))
    assert fit.converged
    assert fit.params["fwhm"] == pytest.approx(kappa, rel=1e-6)
    assert fit.params["offset_slope"] == pytest.approx(4e-12, rel=1e-6)
    assert fit.residual_norm < 1e-9


def test_fit_lorentzian_recovers_mechanical_linewidth():
    gamma, f_m = 13.8e3, 2.905e9
    x = np.linspace(f_m - 30 * gamma, f_m + 30 * gamma, 241)
    y = 2.0 + 37.0 / (1 + ((x - f_m) / (gamma / 2)) ** 2)
    fit = stats.fit_lorentzian_with_offset(np.column_stack([x, y]))
    assert fit.converged
    assert fit.params["fwhm"] == pytest.approx(gamma, rel=1e-9)
    assert fit.params["center"] == pytest.approx(f_m, abs=1.0)


def test_fit_lorentzian_flags_flat_data():
    x = np.linspace(0, 1, 50)
    fit = stats.fit_lorentzian_with_offset(np.column_stack([x, np.full_like(x, 2.0)]))
    assert not fit.converged


def test_fit_lorentzian_needs_six_points():
    with pytest.raises(ValueError):
        stats.fit_lorentzian_with_offset([(0, 1), (1, 2), (2, 1)])


def _biexp(t, amp, tau_r, tau_d, base):
    return amp * np.exp(-t / tau_d) * (1 - np.exp(-t / tau_r)) + base


def test_fit_biexponential_recovers_heating_constants():
    rng = np.random.default_rng(77)
    tau_d, tau_r = 22e-6, 165e-9
    t = np.geomspace(5e-8, 1.1e-4, 40)
    y = _biexp(t, 1.2, tau_r, tau_d, 0.15)
    noisy = y * (1 + 0.02 * rng.standard_normal(t.size))
    fit = stats.fit_biexponential(np.column_stack([t, noisy]))
    assert fit.converged
    assert fit.params["tau_decay"] == pytest.approx(tau_d, rel=0.05)
    assert fit.params["tau_rise"] == pytest.approx(tau_r, rel=0.05)
    assert fit.params["tau_decay"] > fit.params["tau_rise"]


def test_fit_biexponential_exact_on_noiseless_data():
    t = np.geomspace(5e-8, 1.1e-4, 32)
    y = _biexp(t, 0.8, 165e-9, 22e-6, 0.05)
    fit = stats.fit_biexponential(np.column_stack([t, y]))
    assert fit.residual_norm < 1e-9
    assert fit.params["amplitude"] == pytest.approx(0.8, rel=1e-6)


def test_fit_biexponential_flags_zero_amplitude():
    t = np.geomspace(1e-7, 1e-4, 20)
    fit = stats.fit_biexponential(np.column_stack([t, np.full_like(t, 0.2)]))
    assert not fit.converged


def test_fit_biexponential_multistart_is_deterministic():
    t = np.geomspace(5e-8, 1.1e-4, 30)
    y = _biexp(t, 1.0, 165e-9, 22e-6, 0.1)
    first = stats.fit_biexponential(np.column_stack([t, y]))
    second = stats.fit_biexponential(np.column_stack([t, y]))
    assert first.params == second.params
    assert first.params["tau_decay"] > first.params["tau_rise"]


def _in_domain_curve(index):
    """A seeded heating curve inside the single-start domain of ``fit_biexponential``:
    tau_rise >= t_min, tau_decay / tau_rise >= 5, tau_decay <= t_max / 2, noise 0-5%."""
    if index == 0:
        # noiseless slow rise on which the old fixed starts overflowed
        t = np.geomspace(5e-8, 1.1e-4, 20)
        return t, _biexp(t, 1.0, 1.5e-6, 50e-6, 0.1)
    rng = np.random.default_rng([2016, index])
    t_lo = 10 ** rng.uniform(-8, -6.5)
    t_hi = t_lo * 10 ** rng.uniform(2.5, 4)
    t = np.geomspace(t_lo, t_hi, int(rng.integers(16, 41)))
    tau_r = t_lo * (t_hi / 10 / t_lo) ** rng.uniform()
    tau_d = 5 * tau_r * (t_hi / 10 / tau_r) ** rng.uniform()
    y = _biexp(t, 10 ** rng.uniform(-1, 0.5), tau_r, tau_d, rng.uniform(0, 0.5))
    return t, y * (1 + rng.uniform(0, 0.05) * rng.standard_normal(t.size))


@pytest.mark.parametrize("index", range(24))
def test_fit_biexponential_matches_multistart_reference(index):
    # one solve from the closed-form start reaches the cost of the old
    # twelve-start search wherever that search finishes
    points = np.column_stack(_in_domain_curve(index))
    fit = stats.fit_biexponential(points)
    try:
        reference = biexp_reference.fit_biexponential_multistart(points)
    except OverflowError:
        assert fit.converged
        return
    assert fit.residual_norm <= np.linalg.norm(reference.fun) * (1 + 1e-6)


def test_fit_biexponential_overflowing_step_gives_nonfinite_residuals():
    # least_squares shrinks a trial step with non-finite residuals; a time
    # constant past the float64 range must give those, not OverflowError
    t = np.geomspace(5e-8, 1.1e-4, 20)
    y = _biexp(t, 1.0, 1.5e-6, 50e-6, 0.1)
    for p in ([1.0, 0.1, 800.0, 0.0], [1.0, 0.1, 0.0, 800.0], [1.0, 0.1, 1e308, 1e308]):
        p = np.array(p)
        assert not np.isfinite(stats._biexp_residual(p, t, y)).any()
        assert stats._biexp_jac(p, t, y).shape == (t.size, 4)


def test_fit_biexponential_rejects_nonpositive_times():
    t = np.linspace(0.0, 1e-4, 20)
    with pytest.raises(ValueError, match="positive"):
        stats.fit_biexponential(np.column_stack([t, np.ones_like(t)]))


def test_linear_fit_slope_matches_quoted_calibration():
    # p_s versus fiber peak power in uW for 40 ns pulses at 55% fiber coupling
    from omclab.core import MechanicalMode, OpticalCavity
    from omclab import optomech
    cav = OpticalCavity(f_c=194.8e12, kappa=5.14e9, kappa_i=1.31e9)
    mode = MechanicalMode(f_m=2.905e9, gamma_m=13.8e3)
    powers_uw = np.linspace(0.01, 1.0, 12)
    p_s = [optomech.scattering_probability("red", p * 1e-6 * 40e-9 * 0.55, 845e3, cav, mode)
           for p in powers_uw]
    fit = stats.fit_linear(np.column_stack([powers_uw, p_s]))
    assert fit.params["slope"] == pytest.approx(2.6e-2, rel=0.10)
    assert abs(fit.params["intercept"]) < 1e-4
