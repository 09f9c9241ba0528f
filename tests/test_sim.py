import dataclasses
import hashlib
import itertools
import math
import re
import time
import tracemalloc
import zipfile
from fractions import Fraction
from pathlib import Path

import csv_records
import numpy as np
import pytest
from scipy.stats import chi2, poisson

from omclab import fock, load_config, sim, stats
from omclab.core import (
    LABELS,
    ConfigError,
    DetectionChain,
    HeatingParams,
    MechanicalMode,
    Pulse,
    PulseSequence,
)


def _config(device_config, *, n_baseline=0.2, eta_rest=0.5, dark_rate=0.0,
            suppression=math.inf, pulses=(), rep_rate=25e3, n_sequences=1000,
            heating=None):
    detection = DetectionChain(eta_dev=1.0, eta_fc=1.0, eta_rest=eta_rest,
                               dark_rate=dark_rate, filter_suppression_db=suppression)
    mode = MechanicalMode(f_m=2.905e9, gamma_m=13.8e3, n_baseline=n_baseline,
                          heating=heating or HeatingParams())
    return dataclasses.replace(device_config, detection=detection, mode=mode,
                               sequence=PulseSequence(pulses, rep_rate, n_sequences))


def _pair_config(device_config, p_w, p_r, n_baseline, n_sequences, **kwargs):
    base = _config(device_config, n_baseline=n_baseline, n_sequences=n_sequences, **kwargs)
    write = sim.single_pulse_config(base, "blue", p_w, 1).sequence.pulses[0]
    read_raw = sim.single_pulse_config(base, "red", p_r, 1).sequence.pulses[0]
    read = dataclasses.replace(read_raw, start=190e-9)
    return dataclasses.replace(base, sequence=dataclasses.replace(base.sequence,
                                                                  pulses=(write, read)))


def test_no_drive_no_darks_no_records(device_config):
    pulses = (Pulse("red", 40e-9, 0.0, 0.0),)
    config = _config(device_config, pulses=pulses, n_sequences=5000)
    batch, report = sim.simulate(config, 1)
    assert len(batch) == 0
    assert report.pulse_ps == (0.0,)
    assert sum(report.pulse_totals[0].values()) == 0


def test_simulate_runs_a_pair_whose_g2_is_undefined(device_config):
    # an undriven read pulse never clicks: simulate samples the pair without
    # evaluating a g2, which only the model's g2 properties refuse
    config = _pair_config(device_config, 0.03, 0.08, 0.3, 1000)
    write, read = config.sequence.pulses
    config = dataclasses.replace(config, sequence=dataclasses.replace(
        config.sequence, pulses=(write, dataclasses.replace(read, peak_power=0.0))))
    batch, report = sim.simulate(config, 3)
    assert report.pulse_ps[1] == 0.0
    assert np.any(batch.pulse_label == LABELS.index("write"))
    assert not np.any(batch.pulse_label == LABELS.index("read"))
    model = sim.g2_model(config)
    for name in ("oracle_g2", "predicted_g2"):
        with pytest.raises(fock.HeraldingError):
            getattr(model, name)


def test_reproducibility_bit_identical(device_config):
    config = _pair_config(device_config, 0.03, 0.08, 0.3, 30000, eta_rest=0.4)
    b1, _ = sim.simulate(config, 7)
    b2, _ = sim.simulate(config, 7)
    for field in ("sequence_index", "pulse_index", "click_time", "origin"):
        assert np.array_equal(getattr(b1, field), getattr(b2, field))


def test_report_totals_match_record_counts(device_config):
    config = _pair_config(device_config, 0.03, 0.08, 0.3, 20000,
                          eta_rest=0.4, dark_rate=5.0)
    batch, report = sim.simulate(config, 3)
    per_pulse = [sum(totals.values()) for totals in report.pulse_totals]
    assert np.bincount(batch.pulse_index, minlength=2).tolist() == per_pulse


def test_report_totals_count_each_origin_of_each_pulse():
    # the dense config with a filter line, so that every pulse has clicks of
    # all three origins, in different numbers
    config = load_config(DENSE_CONFIG)
    config = dataclasses.replace(
        config, detection=dataclasses.replace(config.detection, filter_suppression_db=75.0),
        sequence=dataclasses.replace(config.sequence, n_sequences=100_000))
    batch, report = sim.simulate(config, 4)
    for i, totals in enumerate(report.pulse_totals):
        origins = batch.origin[batch.pulse_index == i]
        counts = {name: int(np.count_nonzero(origins == k)) for k, name in enumerate(sim.ORIGINS)}
        assert totals == counts
        assert len(set(counts.values())) == 3 and min(counts.values()) > 0
    _, blind = sim.simulate(config, 4, blind=True)
    assert blind.pulse_totals == report.pulse_totals


def test_rate_recovery_against_closed_form(device_config):
    # empirical click rates must reproduce p_s*n*eta and p_s*(n+1)*eta
    grid = [(0.041, 0.02, 0.023), (0.1, 0.01, 0.1), (1.0, 0.005, 0.2)]
    n_seq = 10**6
    for i, (n_th, p_s, eta) in enumerate(grid):
        for side in ("red", "blue"):
            base = _config(device_config, n_baseline=n_th, eta_rest=eta,
                           n_sequences=n_seq)
            config = sim.single_pulse_config(base, side, p_s, n_seq)
            _, report = sim.simulate(config, 100 + i)
            clicks = sum(report.pulse_totals[0].values())
            factor = n_th if side == "red" else n_th + 1
            expected = p_s * factor * eta
            sigma = math.sqrt(expected * n_seq)
            assert abs(clicks - expected * n_seq) < 3 * sigma, (n_th, p_s, eta, side)


def test_paired_statistics_match_oracle(device_config):
    n_th, p_w, p_r, eta = 0.2, 0.05, 0.1, 0.5
    n_seq = 200_000
    config = _pair_config(device_config, p_w, p_r, n_th, n_seq, eta_rest=eta)
    batch, report = sim.simulate(config, 123)
    table = fock.two_pulse_click_table(n_th, report.pulse_ps[0], report.pulse_ps[1], eta)

    w = np.zeros(n_seq, dtype=bool)
    r = np.zeros(n_seq, dtype=bool)
    w[batch.sequence_index[batch.pulse_label == LABELS.index("write")]] = True
    r[batch.sequence_index[batch.pulse_label == LABELS.index("read")]] = True

    for emp_p, true_p, label in [
        (w.mean(), table.p_write, "write marginal"),
        (r.mean(), table.p_read, "read marginal"),
    ]:
        sigma = math.sqrt(true_p * (1 - true_p) / n_seq)
        assert abs(emp_p - true_p) < 3 * sigma, label

    # heralded read-click probability against the oracle conditional
    n_w = int(w.sum())
    cond = (w & r).sum() / n_w
    true_cond = table.p11 / table.p_write
    sigma = math.sqrt(true_cond * (1 - true_cond) / n_w)
    assert abs(cond - true_cond) < 3 * sigma

    est = stats.g2_crosscorr(batch, 0)
    oracle = fock.oracle_g2(n_th, report.pulse_ps[0], report.pulse_ps[1], eta)
    lo, hi = stats.coincidence_ci(*est.counts, level=0.997)
    assert lo <= oracle <= hi


def _three_pulse_config(device_config, n_sequences):
    """A high-rate write/read pair and a lone blue pulse after it, with dark
    counts, pump leakage and pulse heating each making a sizable share of the
    clicks."""
    heating = HeatingParams(calibration=((0.0, 0.0, 0.0), (0.5, 1.0, 0.05)))
    config = _pair_config(device_config, 0.05, 0.38, 0.041, n_sequences, eta_rest=0.41,
                          dark_rate=1e7, suppression=70.0, heating=heating)
    lone = dataclasses.replace(
        sim.single_pulse_config(config, "blue", 0.02, 1).sequence.pulses[0], start=600e-9)
    return dataclasses.replace(config, sequence=dataclasses.replace(
        config.sequence, pulses=(*config.sequence.pulses, lone)))


def _click_sources(config, model, i):
    """Pulse i's independent background click probabilities, taken from the
    config: (heating click, leakage, dark count).  Only the pair's read pulse
    has a heating click, from the occupation it gains over the write pulse."""
    pulse = config.sequence.pulses[i]
    extra = 0.0
    if model.pair and i == model.pair[1]:
        w, r = model.pair
        extra = fock.single_pulse_click_probability(
            "red", max(model.occupations[r] - model.occupations[w], 0.0), model.p_s[r],
            model.eta_det)
    return (extra, sim.pump_leakage_probability(pulse, config),
            -math.expm1(-config.detection.dark_rate * pulse.window_length))


def _enumerated_outcomes(config, model, pulses):
    """A unit's outcome table, summed over every combination of its independent
    click sources: the unit's joint signal clicks, and per pulse a heating
    click, leakage and a dark count (``_click_sources``).  A pulse's click is
    signal with a signal or heating click, else leakage, else dark."""
    if len(pulses) == 2:
        t = fock.two_pulse_click_table(model.occupations[pulses[0]], model.p_s[pulses[0]],
                                       model.p_s[pulses[1]], model.eta_det)
        signals = {(0, 0): t.p00, (0, 1): t.p01, (1, 0): t.p10, (1, 1): t.p11}
    else:
        (i,) = pulses
        s = fock.single_pulse_click_probability(config.sequence.pulses[i].side,
                                                model.occupations[i], model.p_s[i],
                                                model.eta_det)
        signals = {(0,): 1 - s, (1,): s}
    sources = [_click_sources(config, model, i) for i in pulses]
    table = np.zeros((4,) * len(pulses))
    for signal, p_signal in signals.items():
        for fired in itertools.product(itertools.product((False, True), repeat=3),
                                       repeat=len(pulses)):
            p, cell = p_signal, []
            for clicked, probabilities, (extra, leak, dark) in zip(signal, sources, fired):
                p *= math.prod(q if f else 1 - q
                               for q, f in zip(probabilities, (extra, leak, dark)))
                origin = ("signal" if clicked or extra else "leakage" if leak
                          else "dark" if dark else None)
                cell.append(0 if origin is None else 1 + sim.ORIGINS.index(origin))
            table[tuple(cell)] += p
    return table


@pytest.mark.parametrize("case", ["pair", "three_pulses"])
def test_simulate_samples_the_outcome_tables(device_config, case):
    # chi-square of each unit's per-sequence outcomes (per pulse: no click or
    # the click's origin) against its table enumerated from the independent
    # sources, over every cell of every unit, counts summed over seeds; cells
    # expecting fewer than 5 counts are pooled.  "pair" is a dense_analysis-like
    # high-rate pair with darks, leakage and heating off
    n_seq, seeds = 100_000, 50 if case == "pair" else 20
    config = (_pair_config(device_config, 0.05, 0.38, 0.041, n_seq, eta_rest=0.41)
              if case == "pair" else _three_pulse_config(device_config, n_seq))
    model = sim.sequence_model(config)
    counts = {pulses: 0 for pulses, _ in model.outcomes}
    for seed in range(seeds):
        batch, _ = sim.simulate(config, seed)
        outcome = np.zeros((len(config.sequence.pulses), n_seq), dtype=np.int8)
        outcome[batch.pulse_index, batch.sequence_index] = batch.origin + 1
        assert np.count_nonzero(outcome) == len(batch)  # one click per pulse at most
        for pulses, table in model.outcomes:
            cells = np.ravel_multi_index(outcome[list(pulses)], table.shape)
            counts[pulses] = counts[pulses] + np.bincount(cells, minlength=table.size)
    stat, dof = 0.0, 0
    for pulses, observed in counts.items():
        expected = seeds * n_seq * _enumerated_outcomes(config, model, pulses).ravel()
        small = expected < 5
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
        assert not observed[expected == 0].any(), pulses
        observed, expected = observed[expected > 0], expected[expected > 0]
        stat += float(((observed - expected) ** 2 / expected).sum())
        dof += expected.size - 1
    assert stat < chi2.ppf(0.999, dof)


def test_seed_independence_over_pairs(device_config):
    n_seq, blocks = 12800, 32
    base = _config(device_config, n_baseline=0.5, eta_rest=0.5, n_sequences=n_seq)
    config = sim.single_pulse_config(base, "red", 0.05, n_seq)
    block_size = n_seq // blocks

    def block_totals(seed):
        batch, _ = sim.simulate(config, seed)
        return np.bincount(batch.sequence_index // block_size, minlength=blocks)

    corrs = []
    for k in range(100):
        t1 = block_totals(2 * k)
        t2 = block_totals(2 * k + 1)
        c = np.corrcoef(t1, t2)[0, 1]
        corrs.append(c)
    # mean correlation over pairs: standard error 1/sqrt(n_pairs*(blocks-3))
    z = np.mean(corrs) * math.sqrt(100 * (blocks - 3))
    assert abs(z) < 3.0


def test_poisson_statistics_across_sequences(device_config):
    n_seq = 200_000
    base = _config(device_config, n_baseline=0.4, eta_rest=0.5, n_sequences=n_seq)
    config = sim.single_pulse_config(base, "red", 0.1, n_seq)
    batch, report = sim.simulate(config, 11)
    lam_block = len(batch) / 200
    totals = np.bincount(batch.sequence_index // (n_seq // 200), minlength=200)
    # chi-square goodness of fit of block totals against Poisson(lam_block)
    edges = [0, 14, 17, 19, 21, 23, 26, np.inf]
    observed = np.histogram(totals, bins=edges)[0]
    probs = np.diff([poisson.cdf(e - 1, lam_block) if np.isfinite(e) else 1.0
                     for e in edges])
    expected = probs * 200
    mask = expected > 3
    stat = float((((observed - expected) ** 2) / expected)[mask].sum())
    dof = int(mask.sum()) - 1
    assert stat < chi2.ppf(0.999, dof)


@pytest.mark.parametrize("rate", [40.0, 1e12])  # at 1e12 Hz the dark probability is 1.0
def test_dark_rate_expectation(device_config, rate):
    # dark-only run: clicks per window = rate * window length
    window = 20e-6
    pulses = (Pulse("blue", 40e-9, 0.0, 0.0, window=window),)
    config = _config(device_config, dark_rate=rate, pulses=pulses, n_sequences=200_000)
    batch, report = sim.simulate(config, 5)
    p_dark = -math.expm1(-rate * window)
    expected = p_dark * 200_000
    assert abs(len(batch) - expected) < 3 * math.sqrt(expected)
    if p_dark == 1.0:  # every window clicks
        assert np.array_equal(batch.sequence_index, np.arange(200_000))
    assert np.unique(batch.origin).tolist() == [sim.ORIGINS.index("dark")]
    # dark click times fill the whole window, not just the pulse
    assert batch.click_time.max() > sim._fs(10e-6)


def test_leakage_rate_scales_with_suppression(device_config):
    # ground-state mode: a red pulse scatters nothing, so clicks are leakage only
    pulses = (Pulse("red", 40e-9, 1e-6, 0.0),)
    config = _config(device_config, n_baseline=0.0, suppression=90.0, pulses=pulses,
                     n_sequences=100_000)
    batch, _ = sim.simulate(config, 6)
    expected_per_pulse = sim.pump_leakage_probability(pulses[0], config)
    expected = expected_per_pulse * 100_000
    assert expected > 20
    assert abs(len(batch) - expected) < 4 * math.sqrt(expected)
    config10 = dataclasses.replace(
        config, detection=dataclasses.replace(config.detection,
                                              filter_suppression_db=100.0))
    p90 = sim.pump_leakage_probability(pulses[0], config)
    p100 = sim.pump_leakage_probability(pulses[0], config10)
    assert p90 / p100 == pytest.approx(10.0, rel=1e-3)


def test_blind_mode_hides_origin(device_config):
    config = _pair_config(device_config, 0.03, 0.08, 0.3, 5000, eta_rest=0.4)
    batch, _ = sim.simulate(config, 8, blind=True)
    assert batch.origin is None


def test_records_csv_round_trip(tmp_path, device_config):
    config = _pair_config(device_config, 0.03, 0.08, 0.3, 20000,
                          eta_rest=0.4, dark_rate=2.0)
    batch, _ = sim.simulate(config, 14)
    path = tmp_path / "records.npz"
    sim.write_records(batch, path, header_lines=["omclab test"])
    again = sim.read_records(path)
    assert again.n_sequences == batch.n_sequences
    assert np.array_equal(again.sequence_index, batch.sequence_index)
    assert np.array_equal(again.pulse_label, batch.pulse_label)
    assert np.array_equal(again.click_time, batch.click_time)
    assert np.array_equal(again.origin, batch.origin)
    restored = sim.assign_pulse_indices(again, config.sequence)
    assert np.array_equal(restored.pulse_index, batch.pulse_index)


@pytest.mark.parametrize("windows", [True, False], ids=["windows", "no_windows"])
def test_click_times_are_whole_fs_inside_their_pulse(tmp_path, device_config_path, windows):
    # gap_omc.cfg with dark counts in every window, and a copy without the
    # window keys, where a dark count's span is its pulse: each click lies in
    # [start, start + span) in integers, and a record file assigns it back
    text = re.sub(r"(?m)^detection\.dark_rate = .*$", "detection.dark_rate = 1e5",
                  device_config_path.read_text())
    text = re.sub(r"(?m)^sequence\.n_sequences = .*$", "sequence.n_sequences = 50000", text)
    if not windows:
        text = re.sub(r"(?m)^pulse\.\d\.window = .*\n", "", text)
    (tmp_path / "device.cfg").write_text(text)
    config = load_config(tmp_path / "device.cfg")
    assert all((pulse.window is None) != windows for pulse in config.sequence.pulses)
    batch, _ = sim.simulate(config, 2)
    assert batch.click_time.dtype == np.int64
    dark = batch.origin == sim.ORIGINS.index("dark")
    for i, pulse in enumerate(config.sequence.pulses):
        start = sim._fs(pulse.start)
        for clicks, span in ((dark, pulse.window_length), (~dark, pulse.duration)):
            times = batch.click_time[clicks & (batch.pulse_index == i)]
            assert np.all((start <= times) & (times < start + sim._fs(span))), (i, span)
        assert np.count_nonzero(dark & (batch.pulse_index == i)) > 100
    path = tmp_path / "records.npz"
    sim.write_records(batch, path)
    again = sim.assign_pulse_indices(sim.read_records(path), config.sequence)
    assert np.array_equal(again.pulse_index, batch.pulse_index)


def test_a_click_in_the_last_femtosecond_of_a_pulse_round_trips(tmp_path):
    # a pulse from 0 without a window key: _fs(end) - 1 lies inside it, and a
    # record file keeps it there; _fs(end) lies past it
    pulse = Pulse("blue", 40e-9, 0.0, 0.0)
    sequence = PulseSequence((pulse,), 25e3, 3)
    end = sim._fs(pulse.end)
    times = [0, end // 2, end - 1]
    batch = sim.RecordBatch(n_sequences=3, sequence_index=np.arange(3),
                            pulse_index=np.zeros(3, dtype=np.int16),
                            pulse_label=np.zeros(3, dtype=np.int8),
                            click_time=np.array(times), origin=np.zeros(3, dtype=np.int8))
    path = tmp_path / "records.npz"
    sim.write_records(batch, path)
    again = sim.read_records(path)
    assert again.click_time.tolist() == times
    assert sim.assign_pulse_indices(again, sequence).pulse_index.tolist() == [0, 0, 0]
    late = dataclasses.replace(batch, click_time=np.array([0, end // 2, end]))
    with pytest.raises(ValueError, match="outside all pulse windows"):
        sim.assign_pulse_indices(late, sequence)


@pytest.mark.parametrize("start, duration, window", [
    (0.0, 40e-9, 9.007199254740993),  # a window that ends at 2^53 fs
    (5.0, 40e-9, 4.1),                # one that ends after it
    (1e300, 40e-9, None),             # far after it, where _fs would overflow
    (0.0, 4e-16, None),               # a pulse of 0 fs
])
def test_simulate_refuses_a_pulse_off_the_fs_range(device_config, start, duration, window):
    pulses = (Pulse("blue", duration, 0.0, start, window=window),)
    config = _config(device_config, dark_rate=1.0, pulses=pulses, rep_rate=1e-301)
    with pytest.raises(ConfigError, match="pulse 0: click times are whole femtoseconds"):
        sim.simulate(config, 0)


def test_a_pulse_of_one_femtosecond_clicks_at_its_start(device_config):
    # a span of 1 fs: u * 1 truncates to 0 for every uniform u < 1
    pulses = (Pulse("blue", 1e-15, 0.0, 190e-9),)
    config = _config(device_config, dark_rate=1e16, pulses=pulses, n_sequences=1000)
    batch, _ = sim.simulate(config, 4)
    assert len(batch) > 990 and set(batch.click_time.tolist()) == {sim._fs(190e-9)}


def test_simulate_draws_a_window_that_ends_just_below_2_to_the_53_fs(device_config):
    # 2^53 - 1 fs: every dark click is a whole count in [0, 2^53 - 1)
    window = 9.007199254740991
    assert sim._fs(window) == 2**53 - 1
    pulses = (Pulse("blue", 40e-9, 0.0, 0.0, window=window),)
    config = _config(device_config, dark_rate=1.0, pulses=pulses, rep_rate=0.1,
                     n_sequences=2000)
    batch, _ = sim.simulate(config, 3)
    assert len(batch) > 1900 and batch.click_time.dtype == np.int64
    assert 0 <= batch.click_time.min() and batch.click_time.max() < 2**53 - 1
    assert batch.click_time.max() > 0.99 * 2**53
    assert np.array_equal(sim.assign_pulse_indices(batch, config.sequence).pulse_index,
                          batch.pulse_index)


@pytest.mark.parametrize("label, time", [
    ("write", 190e-9 + 20e-6),  # past every pulse's window
    ("write", 20e-6),           # past the write window, inside the read window
    ("probe", 20e-9),           # inside the write pulse, with a code past core.LABELS
])
def test_assign_pulse_indices_rejects_a_click_outside_its_label_windows(label, time):
    config = load_config(DENSE_CONFIG)
    code = LABELS.index(label) if label in LABELS else len(LABELS)
    batch = sim.RecordBatch(
        n_sequences=4, sequence_index=np.array([0, 1, 2]),
        pulse_index=np.zeros(3, dtype=np.int16),
        pulse_label=np.array([0, 1, code], dtype=np.int8),
        click_time=np.array([sim._fs(t) for t in (20e-9, 200e-9, time)]), origin=None)
    with pytest.raises(ValueError, match="outside all pulse windows"):
        sim.assign_pulse_indices(batch, config.sequence)


def test_record_batch_arrays_are_read_only(device_config):
    batch, _ = sim.simulate(_pair_config(device_config, 0.3, 0.3, 0.5, 200), 3)
    for name in ("sequence_index", "pulse_index", "pulse_label", "click_time", "origin"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(batch, name)[0] = getattr(batch, name)[1]


def test_memoised_g2_counts_match_a_fresh_batch(device_config):
    config = _pair_config(device_config, 0.05, 0.3, 0.3, 20_000, eta_rest=0.5, dark_rate=5e3)
    batch, _ = sim.simulate(config, 5)
    memoised = [stats.g2_crosscorr(batch, dn).counts for dn in range(-4, 5)]
    assert set(batch._clicked) == {"write", "read", "read mask"}
    for dn, counts in zip(range(-4, 5), memoised):
        fresh = dataclasses.replace(batch)
        assert fresh._clicked == {}
        assert stats.g2_crosscorr(fresh, dn).counts == counts
        assert stats.g2_crosscorr(batch, dn).counts == counts


DENSE_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "dense_analysis.cfg"


@pytest.mark.parametrize("blind", [False, True])
def test_records_come_in_sequence_then_time_order(blind):
    config = load_config(DENSE_CONFIG)
    config = dataclasses.replace(config, sequence=dataclasses.replace(config.sequence,
                                                                      n_sequences=200_000))
    batch, _ = sim.simulate(config, 8, blind=blind)
    _, per_sequence = np.unique(batch.sequence_index, return_counts=True)
    assert np.count_nonzero(per_sequence >= 2) > 2000
    assert (batch.origin is None) == blind
    order = np.lexsort((batch.click_time, batch.sequence_index))
    for column in (batch.sequence_index, batch.pulse_index, batch.pulse_label,
                   batch.click_time, batch.origin):
        if column is not None:
            assert np.array_equal(column, column[order])


def _cell_tables(device_config):
    """(name, table): the 4-cell table of a single red pulse and the 16-cell
    pair table of the device config, then each shape with empty cells inside
    and at its end, so that their cumulative sums repeat edges."""
    single = sim.sequence_model(sim.single_pulse_config(device_config, "red", 0.02, 1))
    pair = sim.sequence_model(device_config)
    holes = np.array([0.5, 0.0, 0.125, 0.0, 0.0, 0.0625, 0.0, 0.25,
                      0.0, 0.0, 0.0625, 0.0, 0.0, 0.0, 0.0, 0.0])
    return [("single pulse", single.outcomes[0][1]), ("pair", dict(pair.outcomes)[pair.pair]),
            ("single, empty cells", np.array([0.75, 0.0, 0.25, 0.0])),
            ("pair, empty cells", holes.reshape(4, 4))]


def test_cell_pick_is_one_plus_searchsorted(device_config):
    rng = np.random.default_rng(23)
    for name, table in _cell_tables(device_config):
        cum = np.cumsum(table.ravel()[1:])
        x = np.concatenate([
            cum,  # exactly on each edge, and at cum[-1], as a product rounded up would be
            np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf),
            [0.0, np.nextafter(1.0, 0.0) * cum[-1]],  # the smallest and largest uniform's
            rng.random(1000) * cum[-1],
        ])
        cell = sim._pick_cells(cum, x)
        assert cell.dtype == np.uint8, name
        assert np.array_equal(cell, 1 + np.searchsorted(cum[:-1], x, side="right")), name
        assert sim._pick_cells(cum, np.empty(0)).tolist() == [], name
    # the empty-cell tables repeat edges, the last of them at cum[-1]
    cum = np.cumsum(_cell_tables(device_config)[3][1].ravel()[1:])
    assert np.unique(cum[:-1]).size < cum.size - 1 and cum[-2] == cum[-1]


class _CountingRng:
    """The one Generator method ``sim._bernoulli`` calls, counting its batches."""

    def __init__(self, seed):
        self.rng, self.batches = np.random.Generator(np.random.Philox(key=seed)), 0

    def random(self, size):
        self.batches += 1
        return self.rng.random(size)


def _bernoulli_runs(n, p, draws, seed):
    """``draws`` calls of ``sim._bernoulli(rng, n, p)`` on one stream, each
    checked to be sorted, distinct int64 indices inside [0, n), and the
    number of batches drawn."""
    rng = _CountingRng(seed)
    runs = [sim._bernoulli(rng, n, p) for _ in range(draws)]
    for idx in runs:
        assert idx.dtype == np.int64 and idx.ndim == 1
        assert np.all(idx[1:] > idx[:-1])
        assert idx.size == 0 or (0 <= idx[0] and idx[-1] < n)
    return runs, rng.batches


def _assert_binomial_count(runs, n, p):
    # the sample mean and variance of the count, each within 5 standard errors
    # of binomial(n, p)'s; kurtosis is the binomial's fourth standardised moment
    counts, draws = np.array([idx.size for idx in runs]), len(runs)
    mean, var = n * p, n * p * (1 - p)
    kurtosis = 3 + (1 - 6 * p * (1 - p)) / var
    assert abs(counts.mean() - mean) < 5 * math.sqrt(var / draws)
    se_var = var * math.sqrt((kurtosis - (draws - 3) / (draws - 1)) / draws)
    assert abs(counts.var(ddof=1) - var) < 5 * se_var


# n and p for the sampler: n = 1, where a gap of n + 1 must give no success;
# the dense unit's rate; a rare unit; 1e12 trials at 1e-12; 2^52 + 3 trials,
# which a batch of at most 2^52 trials decides in two
_BERNOULLI_CASES = [(1, 0.5), (3, 0.3), (40, 0.3), (2000, 0.22), (2000, 0.97),
                    (100_000, 0.003), (10**6, 1e-5), (10**12, 1e-12), (2**52 + 3, 1e-12)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, p", _BERNOULLI_CASES)
def test_bernoulli_count_is_binomial(n, p):
    draws = 200 if n > 2**52 else 4000
    runs, batches = _bernoulli_runs(n, p, draws, seed=31)
    _assert_binomial_count(runs, n, p)
    if n < 2**52:  # one batch reaches n
        assert batches == draws


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, p, bins", [(40, 0.3, 40), (1000, 0.22, 50), (10**6, 1e-4, 50)])
def test_bernoulli_indices_are_uniform(n, p, bins):
    # n // bins indices per bin; over the draws a bin's hits are binomial and
    # independent of the other bins', so the sum below is chi-square with bins dof
    runs, _ = _bernoulli_runs(n, p, 3000, seed=32)
    hits = sum(np.bincount(idx // (n // bins), minlength=bins) for idx in runs)
    expected = len(runs) * (n // bins) * p
    assert hits.size == bins
    assert float(((hits - expected) ** 2 / (expected * (1 - p))).sum()) < chi2.ppf(0.999, bins)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [0.03, 0.22, 0.6])
def test_bernoulli_gaps_are_geometric(p):
    # a gap of d between neighbouring successes of one draw: d - 1 failures
    # after a success at any of the first n - d indices, so its expected
    # count is draws (n - d) p^2 (1 - p)^(d - 1); chi-square over d, the
    # cells expecting fewer than 5 pooled
    n, draws = 2000, 300
    runs, _ = _bernoulli_runs(n, p, draws, seed=33)
    d = np.arange(1, n)
    expected = draws * (n - d) * p**2 * (1 - p) ** (d - 1)
    observed = np.bincount(np.concatenate([np.diff(idx) for idx in runs]), minlength=n)[1:]
    small = expected < 5
    expected = np.append(expected[~small], expected[small].sum())
    observed = np.append(observed[~small], observed[small].sum())
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.999, expected.size - 1)


class _RecordingRng(_CountingRng):
    """Also keeps a copy of each batch of uniforms, as drawn."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = []

    def random(self, size):
        x = super().random(size)
        self.drawn.append(x.copy())
        return x


def _gap_rule(batches, n, p):
    """The successes the uniforms of ``batches`` give, one at a time: success
    k is at G_1 + ... + G_k - 1 with G = 1 + floor(log1p(-u) / log1p(-p)), up
    to the first that passes n, which must come in the last batch."""
    successes, last = [], -1
    for i, batch in enumerate(batches):
        for u in batch.tolist():
            last += 1 + math.floor(math.log1p(-u) / math.log1p(-p))
            if last >= n:
                assert i == len(batches) - 1  # no batch drawn past the end
                return successes
            successes.append(last)
    assert last == n - 1  # the batches ran out exactly at the last trial
    return successes


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("batch", [None, 2])
@pytest.mark.parametrize("n, p", [(1, 0.5), (200, 0.03), (200, 0.22), (200, 0.97),
                                  (10**9, 1e-7)])
def test_bernoulli_follows_the_gap_rule(monkeypatch, n, p, batch):
    # batches of 2 make nearly every call draw further batches, so the
    # running sum crosses many seams between them
    if batch:
        monkeypatch.setattr(sim, "_gap_batch", lambda mean: batch)
    rng = _RecordingRng(37)
    for _ in range(50):
        rng.drawn.clear()
        assert sim._bernoulli(rng, n, p).tolist() == _gap_rule(rng.drawn, n, p)
    if batch and n > 1:
        assert rng.batches > 50 * 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, p, expected", [
    (10, 0.0, []), (0, 0.5, []), (0, 1.0, []), (5, 1.0, [0, 1, 2, 3, 4]),
    # the first gap passes n: p below 2^-53, 1e-300, subnormal; n up to 2^63 - 1
    (10**12, 1e-20, []), (10, 1e-300, []), (2**63 - 1, 1e-300, []), (2**63 - 1, 5e-324, []),
])
def test_bernoulli_edge_cases(n, p, expected):
    idx = sim._bernoulli(np.random.Generator(np.random.Philox(key=35)), n, p)
    assert idx.dtype == np.int64 and idx.tolist() == expected


@pytest.mark.filterwarnings("error")
def test_bernoulli_indices_past_2_to_the_53_are_whole():
    # 2^60 trials take 256 batches of 2^52; a sum of gaps in float64 would put
    # every success on a multiple of 256 there, so the low bits would not be uniform
    n, p = 2**60, 1e-15
    runs, batches = _bernoulli_runs(n, p, 10, seed=36)
    assert batches >= 10 * 256
    _assert_binomial_count(runs, n, p)
    low = np.bincount(np.concatenate(runs) % 64, minlength=64)
    expected = low.sum() / 64
    assert float(((low - expected) ** 2 / expected).sum()) < chi2.ppf(0.999, 63)


class _ConstantRng:
    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-12, 0.5])
def test_bernoulli_takes_the_extreme_uniforms(p):
    # u = 0 is a gap of 1, so every trial succeeds, also where 1 / log1p(-p)
    # would be infinite; the largest uniform is a gap past n
    assert sim._bernoulli(_ConstantRng(0.0), 10, p).tolist() == list(range(10))
    assert sim._bernoulli(_ConstantRng(np.nextafter(1.0, 0.0)), 10, p).tolist() == []


def _pulse_runs(n_seq, n_pulses, clicks_per_pulse, seed):
    """Sequence indices as simulate concatenates them: one sorted run per pulse."""
    rng = np.random.default_rng(seed)
    return np.concatenate([np.sort(rng.integers(0, n_seq, clicks_per_pulse))
                           for _ in range(n_pulses)])


def test_click_order_is_lexsort_order_with_ties():
    cases = [
        # coarse click times, so that (sequence, time) ties occur
        (_pulse_runs(300, 3, 400, 12), np.random.default_rng(13).integers(0, 4, 1200)),
        # each of 50 sequences clicks in all 5 pulses, later pulses earlier in
        # time: every sequence's clicks come reversed and take several passes
        (np.tile(np.arange(50), 5), np.repeat(np.arange(5)[::-1], 50) * 1000
         + np.random.default_rng(14).integers(0, 3, 250)),
        # 3 to 6 clicks per sequence, all at one time: nothing may move
        (_pulse_runs(40, 6, 200, 15), np.zeros(1200, dtype=np.int64)),
    ]
    for seq_idx, times in cases:
        order = sim._click_order(seq_idx, times)
        assert np.array_equal(order, np.lexsort((times, seq_idx)))


# sha256 of each record column's bytes, recorded at omclab 0.7.0 (the skip
# sampler's stream) with simulate's click order replaced by np.lexsort((times,
# sequence_index)): the click order may not move a byte
_SIMULATE_SHA256 = {
    "dense": {
        "sequence_index": "425639bee76ebf900ae58df53eeb7e737029937fe9df22ee42289cc2a997db7e",
        "pulse_index": "4efa98f7ff5ec6e8ffa9e966b74e100355a72907ac31cb2c86a7f45d3dbbdcb6",
        "pulse_label": "9bafdef6a88c8df0f1b416b4f5d863a336859d85fdfab0a37adbe1a61c484453",
        "click_time": "2c17c0feabe1604de70648967ef31adbf17b36924c13fd2bd63d9b8625006470",
        "origin": "de072355f4a209138e9d9bcb01dbf852fd0b59ed83b81f94619897826dca5209",
    },
    "three pulses": {
        "sequence_index": "2e21a0de306923106efbfc299d42374b250c6b5f37dd5c51ad21b35187d3dbd1",
        "pulse_index": "5c9291e66963b5d823a85f7315c6c42d4d17705f8fc3fde8cdaf7f3d20cfec13",
        "pulse_label": "a22110380ad49b1009dde58fc873633ba7acfb081a0c7991f80c42d6b42eadea",
        "click_time": "51fb236bd2d2da417a9d54e0c14d59a232a6e37e8ec9169f941a11a421d686ac",
        "origin": "04be905473bd6227406865010f0f3d64c50f137bf9d47e19641240ef2d5709aa",
    },
}


@pytest.mark.parametrize("variant", sorted(_SIMULATE_SHA256))
def test_simulate_records_are_pinned_byte_for_byte(variant):
    config = load_config(DENSE_CONFIG)
    sequence = dataclasses.replace(config.sequence, n_sequences=200_000)
    if variant == "three pulses":
        # a third, unpaired pulse is a second sampling unit, so simulate
        # merges two units' runs, and its window overlaps the others'
        sequence = dataclasses.replace(sequence, pulses=sequence.pulses + (
            Pulse(side="red", duration=40e-9, peak_power=1e-5, start=400e-9, window=20e-6),))
    batch, _ = sim.simulate(dataclasses.replace(config, sequence=sequence), 8)
    _, per_sequence = np.unique(batch.sequence_index, return_counts=True)
    assert per_sequence.max() == len(sequence.pulses)
    digests = {name: hashlib.sha256(getattr(batch, name).tobytes()).hexdigest()
               for name in _SIMULATE_SHA256[variant]}
    assert digests == _SIMULATE_SHA256[variant]


_GOLDEN_BATCH = sim.RecordBatch(
    n_sequences=12,
    sequence_index=np.array([0, 3, 3, 7, 11]),
    pulse_index=np.array([0, 0, 1, 1, 0], dtype=np.int16),
    pulse_label=np.array([0, 0, 1, 1, 0], dtype=np.int8),  # write, write, read, read, write
    click_time=np.array([20_000_000, 25_123_457, 200_250_000, 210_000_000, 5_000_000_000]),
    origin=np.array([0, 1, 0, 2, 1], dtype=np.int8),  # signal, dark, signal, leakage, dark
)

# what np.load reads back from _GOLDEN_BATCH's record file, member by member
_GOLDEN_MEMBERS = {
    "n_sequences": 12,
    "header": ["omclab 0.6.0 config=abc seed=7"],
    "labels": ["write", "read"],
    "sequence_index": [0, 3, 3, 7, 11],
    "pulse_label": [0, 0, 1, 1, 0],
    "click_time_fs": [20_000_000, 25_123_457, 200_250_000, 210_000_000, 5_000_000_000],
    "origins": ["signal", "dark", "leakage"],
    "origin": [0, 1, 0, 2, 1],
}
_GOLDEN_DTYPES = {"n_sequences": "int64", "sequence_index": "int64", "pulse_label": "int8",
                  "click_time_fs": "int64", "origin": "int8"}


def test_records_golden_arrays(tmp_path):
    path = tmp_path / "records.csv"  # the path is used as given
    sim.write_records(_GOLDEN_BATCH, path, header_lines=["omclab 0.6.0 config=abc seed=7"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.csv"]
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == list(_GOLDEN_MEMBERS)
        assert {name: npz[name].tolist() for name in npz.files} == _GOLDEN_MEMBERS
        for name in npz.files:
            assert npz[name].dtype.kind == "U" if name not in _GOLDEN_DTYPES \
                else npz[name].dtype == _GOLDEN_DTYPES[name], name
    sim.write_records(dataclasses.replace(_GOLDEN_BATCH, origin=None), path)
    with np.load(path, allow_pickle=False) as npz:
        blind = {name: npz[name].tolist() for name in npz.files}
    assert blind == {**{name: value for name, value in _GOLDEN_MEMBERS.items()
                        if name not in ("origins", "origin")}, "header": []}


def test_records_are_byte_identical(tmp_path, monkeypatch):
    # no clock reading enters the file: writes a day apart give the same bytes
    paths = []
    for clock in (1.6e9, 1.6e9 + 86400):
        monkeypatch.setattr(time, "time", lambda: clock)
        paths.append(tmp_path / f"{clock:.0f}.npz")
        sim.write_records(_GOLDEN_BATCH, paths[-1], header_lines=["omclab test"])
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("batch", [_GOLDEN_BATCH,
                                   dataclasses.replace(_GOLDEN_BATCH, origin=None)])
def test_records_csv_round_trip_keeps_dtypes(tmp_path, batch):
    path = tmp_path / "records.npz"
    sim.write_records(batch, path)
    again = sim.read_records(path)
    for name in ("sequence_index", "pulse_label", "click_time", "origin"):
        column, back = getattr(batch, name), getattr(again, name)
        assert (back is None) if column is None else back.dtype == column.dtype, name


@pytest.mark.parametrize("click_time", [_GOLDEN_BATCH.click_time / 1e15,
                                        _GOLDEN_BATCH.click_time.astype(np.float64),
                                        _GOLDEN_BATCH.click_time.astype(np.uint64)],
                         ids=["seconds", "float_fs", "uint64_fs"])
def test_write_records_csv_refuses_a_click_time_that_is_not_int64_fs(tmp_path, click_time):
    # the file is not opened
    batch = dataclasses.replace(_GOLDEN_BATCH, click_time=click_time)
    path = tmp_path / "records.npz"
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: click_time_fs is {click_time.dtype}, not int64")):
        sim.write_records(batch, path)
    assert not path.exists()


@pytest.mark.parametrize("change, fault", [
    ({"n_sequences": -1}, "n_sequences=-1 is negative"),
    ({"n_sequences": 11}, "sequence_index outside [0, 11)"),
    ({"pulse_label": np.array([0, 0, 2, 1, 0], dtype=np.int8)},
     "pulse_label holds a code outside [0, 2)"),
    ({"origin": np.array([0, -1, 0, 2, 1], dtype=np.int8)},
     "origin holds a code outside [0, 3)"),
    ({"origin": np.zeros(5, dtype=np.int16)}, "origin is int16, not int8"),
    ({"sequence_index": np.array([0, 3, 3, 7])}, "pulse_label has shape (5,), not (4,)"),
])
def test_write_records_refuses_what_would_not_read_back(tmp_path, change, fault):
    path = tmp_path / "records.npz"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {fault}")):
        sim.write_records(dataclasses.replace(_GOLDEN_BATCH, **change), path)
    assert not path.exists()


def test_write_records_replaces_an_existing_file(tmp_path):
    # a write over a longer file gives a fresh write's bytes; a refused write
    # leaves the file as it was
    fresh, path = tmp_path / "fresh.npz", tmp_path / "records.npz"
    sim.write_records(_GOLDEN_BATCH, fresh)
    path.write_bytes(b"old" * 10_000)
    sim.write_records(_GOLDEN_BATCH, path)
    assert path.read_bytes() == fresh.read_bytes()
    with pytest.raises(ValueError, match="n_sequences=-1 is negative"):
        sim.write_records(dataclasses.replace(_GOLDEN_BATCH, n_sequences=-1), path)
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("shape", [(2**40,), (10**8,)])
def test_read_records_refuses_a_forged_shape_before_allocating(tmp_path, shape):
    # sequence_index's .npy header declares far more clicks than its entry
    # holds; np.load alone would allocate them (or raise MemoryError) first
    path = tmp_path / "records.npz"
    sim.write_records(_GOLDEN_BATCH, path)
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    data = members["sequence_index.npy"]
    start = data.index(b"'shape': (5,)")  # into the header's padding, so its length holds
    end = data.index(b"\n", start)
    members["sequence_index.npy"] = (data[:start] + f"'shape': {shape}, }}".encode()
                                     .ljust(end - start) + data[end:])
    with zipfile.ZipFile(path, "w") as archive:  # stored, with the forged entry's CRC
        for name, data in members.items():
            archive.writestr(name, data)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: not a readable record file: sequence_index declares int64 "
                f"of shape {shape}, {8 * shape[0]} bytes, but its zip entry holds 40")):
            sim.read_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_records_csv_reads_comments_blanks_and_spaces(tmp_path):
    # a 0.5.0 record CSV is no record file, but the README's conversion reads
    # it as read_table reads any table
    path = tmp_path / "records.csv"
    path.write_text("# n_sequences=12\n"
                    " sequence_index , pulse_label,click_time_fs,origin\n"
                    "0, write ,20500000, signal\n"
                    "# a comment between rows\n"
                    "\n"
                    "  \t\n"
                    "  11,read,  200250000  ,dark \n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: not an .npz record file")):
        sim.read_records(path)
    csv_records.convert(path, tmp_path / "records.npz")
    batch = sim.read_records(tmp_path / "records.npz")
    assert batch.n_sequences == 12
    assert batch.sequence_index.tolist() == [0, 11]
    assert batch.pulse_label.tolist() == [LABELS.index("write"), LABELS.index("read")]
    assert batch.click_time.tolist() == [20_500_000, 200_250_000]
    assert batch.origin.tolist() == [sim.ORIGINS.index("signal"), sim.ORIGINS.index("dark")]
    path.write_text(path.read_text() + "7,read\n")
    with pytest.raises(ConfigError, match=re.escape("row '7,read' has 2 fields for 4 columns")):
        csv_records.convert(path, tmp_path / "records.npz")


def test_occupations_include_heating(device_config):
    heating = HeatingParams(calibration=((0.0, 0.0, 0.0), (0.05, 2.0, 0.3)))
    config = _pair_config(device_config, 0.01, 0.05, 0.1, 100,
                          heating=heating, eta_rest=0.5)
    _, report = sim.simulate(config, 15)
    assert report.pulse_occupations[0] == pytest.approx(0.1 + 0.3 * 0.01 / 0.05)
    assert report.pulse_occupations[1] > report.pulse_occupations[0]


def test_predicted_g2_is_the_oracle_without_heating_or_leakage(device_config):
    # no heating table and no filter line: dark counts are the only background,
    # where the full-model prediction and the ideal oracle must coincide
    config = _pair_config(device_config, 0.03, 0.08, 0.3, 1, eta_rest=0.4,
                          dark_rate=5e3)
    _, report = sim.simulate(config, 0)
    darks = tuple(-math.expm1(-5e3 * p.window_length) for p in config.sequence.pulses)
    oracle = fock.oracle_g2(report.pulse_occupations[0], report.pulse_ps[0],
                            report.pulse_ps[1], config.detection.eta_det, darks)
    assert report.pulse_occupations == (0.3, 0.3)
    model = sim.g2_model(config)
    assert model.predicted_g2 == pytest.approx(oracle, rel=1e-12)
    assert model.oracle_g2 == pytest.approx(oracle, rel=1e-12)


def test_g2_properties_match_an_exact_evaluation(device_config):
    # at the published point, both g2 properties against the fock closed form
    # evaluated in exact rational arithmetic on the model's float inputs: a
    # window stays dark only without a signal click and without each of its
    # independent backgrounds, so they OR as 1 - prod(1 - x)
    model = sim.g2_model(device_config)
    w, r = model.pair
    n, p_w, p_r, eta = map(Fraction, (model.occupations[w], model.p_s[w], model.p_s[r],
                                      model.eta_det))
    a = eta * p_w * (n + 1)
    b = eta * p_r * ((1 + p_w) * n + p_w)
    c = eta**2 * p_r * p_w * (1 + p_w) * (n + 1) ** 2

    def g2(write_sources, read_sources):
        """Exact g2 with the given background click probabilities per window."""
        quiet_w, quiet_r = (math.prod(1 - Fraction(x) for x in sources)
                            for sources in (write_sources, read_sources))
        none_w, none_r = quiet_w / (1 + a), quiet_r / (1 + b)
        neither = quiet_w * quiet_r / ((1 + a) * (1 + b) - c)
        return (1 - none_w - none_r + neither) / ((1 - none_w) * (1 - none_r))

    sources = {i: _click_sources(device_config, model, i) for i in (w, r)}
    exact_oracle = g2(sources[w][2:], sources[r][2:])  # dark counts only
    exact_predicted = g2(sources[w], sources[r])
    assert sources[r][0] > 0 and sources[w][1] > 0  # heating and leakage both count
    assert model.oracle_g2 == pytest.approx(float(exact_oracle), rel=1e-14, abs=0)
    assert model.predicted_g2 == pytest.approx(float(exact_predicted), rel=1e-14, abs=0)


def test_predicted_g2_matches_monte_carlo_with_heating_and_leakage(device_config):
    # the device's heating calibration and a 75 dB filter line at a high-rate
    # operating point, where heating and leakage pull g2 from 1.23 to ~1.03
    detection = dataclasses.replace(device_config.detection, eta_rest=1.0,
                                    dark_rate=5e3, filter_suppression_db=75.0)
    base = dataclasses.replace(device_config, detection=detection)
    pulses = tuple(
        dataclasses.replace(pulse, peak_power=sim.single_pulse_config(
            base, pulse.side, p_s, 1).sequence.pulses[0].peak_power)
        for pulse, p_s in zip(device_config.sequence.pulses, (0.05, 0.38)))
    config = dataclasses.replace(base, sequence=dataclasses.replace(
        base.sequence, pulses=pulses, n_sequences=500_000))
    seed = 11
    batch, report = sim.simulate(config, seed)
    assert report.pulse_totals[0]["leakage"] > 0
    assert report.pulse_occupations[1] > report.pulse_occupations[0]

    est = stats.g2_crosscorr(batch, 0, level=0.997)
    predicted = sim.g2_model(config).predicted_g2
    darks = tuple(-math.expm1(-5e3 * p.window_length) for p in pulses)
    ideal = fock.oracle_g2(report.pulse_occupations[0], report.pulse_ps[0],
                           report.pulse_ps[1], detection.eta_det, darks)
    assert est.ci_low <= predicted <= est.ci_high
    # the same interval rejects the ideal oracle, so the check can fail
    assert not est.ci_low <= ideal <= est.ci_high
