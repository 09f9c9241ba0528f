import contextlib
import dataclasses
import hashlib
import io
import math
import os
import re
import stat
import tempfile
import zipfile
from pathlib import Path

import csv_records
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omclab import __version__, cli, dynamics, load_config, sim
from omclab.cli import main, read_artifact_json
from omclab.core import (
    LABELS,
    ConfigError,
    PiezoInterface,
    Pulse,
    PulseSequence,
    ValidationError,
    parse_config,
    read_table,
    serialize_config,
)


def run(*argv):
    return main([str(a) for a in argv])


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("cavity-probe", "thermometry", "heating", "simulate", "g2",
                 "fit", "budget", "reproduce"):
        assert name in out


def test_cavity_probe_artifacts(tmp_path, device_config_path):
    assert run("cavity-probe", "--config", device_config_path, "--out", tmp_path) == 0
    csv_path = tmp_path / "reflection_spectrum.csv"
    first = csv_path.read_text().splitlines()[0]
    assert first.startswith(f"# omclab {__version__} config=")
    report = read_artifact_json(tmp_path / "cavity_report.json")
    assert set(report) == {"eta_dev", "over_coupled", "sideband_resolution",
                           "sideband_suppression_db"}
    assert report["over_coupled"] is True
    assert report["eta_dev"] == pytest.approx(0.745, abs=0.001)
    assert report["sideband_suppression_db"] == pytest.approx(7.86, abs=0.01)


def test_budget_report(tmp_path, device_config_path):
    assert run("budget", "--config", device_config_path, "--out", tmp_path) == 0
    report = read_artifact_json(tmp_path / "budget.json")
    assert report["added_noise_photons"] == pytest.approx(0.0167, abs=0.002)
    assert report["c_em"] == pytest.approx(21.0, rel=0.02)
    sweep = (tmp_path / "noise_vs_q.csv").read_text().splitlines()
    assert sweep[1] == "q_uw,c_em,added_noise"
    assert len(sweep) == 42  # header + columns + 40 rows


def test_simulate_is_deterministic(tmp_path, device_config_path):
    out1, out2 = tmp_path / "a.npz", tmp_path / "b.npz"
    assert run("simulate", "--config", device_config_path, "--seed", 7,
               "--sequences", 30000, "--out", out1) == 0
    assert run("simulate", "--config", device_config_path, "--seed", 7,
               "--sequences", 30000, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = read_artifact_json(tmp_path / "a.report.json")
    assert report["n_sequences"] == 30000


def test_simulate_zero_sequences_writes_no_clicks(tmp_path, device_config_path):
    # unlike reproduce's --sequences, simulate's runs the size it is given
    out = tmp_path / "none.npz"
    assert run("simulate", "--config", device_config_path, "--sequences", 0,
               "--out", out) == 0
    batch = sim.read_records(out)
    assert batch.n_sequences == 0 and len(batch) == 0


def test_simulate_blind_hides_origin(tmp_path, device_config_path):
    out = tmp_path / "blind.npz"
    assert run("simulate", "--config", device_config_path, "--seed", 3,
               "--sequences", 20000, "--blind", "--out", out) == 0
    with np.load(out, allow_pickle=False) as npz:
        assert npz.files == ["n_sequences", "header", "labels", "sequence_index",
                             "pulse_label", "click_time_fs"]
        (header,) = npz["header"].tolist()
    assert re.fullmatch(rf"omclab {re.escape(__version__)} config=[0-9a-f]{{12}} seed=3", header)


def test_g2_pipeline(tmp_path, device_config_path):
    # boost the pulse powers for quick statistics
    config = load_config(device_config_path)
    import dataclasses
    from omclab.core import DetectionChain, MechanicalMode, PulseSequence, HeatingParams
    det = DetectionChain(eta_dev=1.0, eta_fc=1.0, eta_rest=0.5)
    mode = MechanicalMode(f_m=2.905e9, gamma_m=13.8e3, n_baseline=0.3,
                          heating=HeatingParams())
    boosted = dataclasses.replace(config, detection=det, mode=mode)
    write = sim.single_pulse_config(boosted, "blue", 0.05, 1).sequence.pulses[0]
    read = dataclasses.replace(
        sim.single_pulse_config(boosted, "red", 0.1, 1).sequence.pulses[0],
        start=190e-9)
    boosted = dataclasses.replace(
        boosted, sequence=PulseSequence((write, read), 25e3, 100_000))
    cfg_path = tmp_path / "boosted.cfg"
    from omclab import serialize_config
    cfg_path.write_text(serialize_config(boosted))

    records = tmp_path / "records.npz"
    assert run("simulate", "--config", cfg_path, "--seed", 11, "--out", records) == 0
    out_json = tmp_path / "g2.json"
    assert run("g2", "--records", records, "--dn-range=-4..4",
               "--out", out_json) == 0
    payload = read_artifact_json(out_json)
    assert len(payload["estimates"]) == 9
    by_dn = {e["delta_n"]: e for e in payload["estimates"]}
    assert by_dn[0]["g2"] > 2.0
    for dn in (-3, -2, 2, 3):
        assert by_dn[dn]["ci_low"] < 1.6


@pytest.mark.parametrize("argv, message", [
    (["--oracle", "--records", "nonexistent.csv"], "not allowed with argument"),
    (["--dn-range=-1..1"], "one of the arguments --records --oracle is required"),
])
def test_g2_takes_exactly_one_mode(tmp_path, device_config_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run("g2", "--config", device_config_path, *argv, "--out", tmp_path / "g2.json")
    assert exc.value.code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_g2_records_refuses_a_config(tmp_path, capsys):
    records = tmp_path / "records.npz"
    records.write_bytes(_records_bytes())
    assert run("g2", "--records", records, "--config", tmp_path / "nonexistent.cfg",
               "--out", tmp_path / "g2.json") == cli.EXIT_CONFIG
    assert "g2 --records takes none" in _config_error_line(capsys)
    assert not (tmp_path / "g2.json").exists()


def test_g2_oracle_mode(tmp_path, device_config_path, capsys):
    out_json = tmp_path / "oracle.json"
    assert run("g2", "--oracle", "--config", device_config_path, "--out", out_json) == 0
    lines = capsys.readouterr().out.splitlines()
    ideal_line, full_line = lines
    assert ideal_line.startswith("g2 ideal (dark counts only):")
    assert full_line.startswith("g2 full model (dark counts, pump leakage, heating):")
    ideal = float(ideal_line.rsplit(":", 1)[1])
    predicted = float(full_line.rsplit(":", 1)[1])
    assert 2.0 < predicted < ideal  # backgrounds only dilute the correlation
    payload = read_artifact_json(out_json)
    assert set(payload) == {"oracle_g2", "predicted_g2", "n_th", "p_write", "p_read",
                            "eta_det", "dark_write", "dark_read"}
    assert payload["oracle_g2"] == pytest.approx(ideal, abs=5e-4)
    assert payload["predicted_g2"] == pytest.approx(predicted, abs=5e-4)
    # the oracle inputs are the write/read pair's as simulate reports them
    config = load_config(device_config_path)
    _, report = sim.simulate(config, 0)
    w, r = report.pulse_labels.index("write"), report.pulse_labels.index("read")
    assert payload["n_th"] == report.pulse_occupations[w]
    assert (payload["p_write"], payload["p_read"]) == (report.pulse_ps[w], report.pulse_ps[r])
    assert payload["eta_det"] == config.detection.eta_det
    for key, i in (("dark_write", w), ("dark_read", r)):
        window = config.sequence.pulses[i].window_length
        assert payload[key] == -math.expm1(-config.detection.dark_rate * window)


def test_simulate_refuses_a_window_that_ends_at_2_to_the_53_fs(tmp_path, device_config_path,
                                                               capsys):
    # 9.007199254740993 s is 2^53 fs: past the grid click times are drawn on
    cfg = tmp_path / "long_window.cfg"
    cfg.write_text(device_config_path.read_text().replace(
        "sequence.repetition_rate = 25e3", "sequence.repetition_rate = 0.1").replace(
        "pulse.0.window = 20e-6", "pulse.0.window = 9.007199254740993"))
    records = tmp_path / "out" / "records.npz"
    assert run("simulate", "--config", cfg, "--out", records, "--sequences", 10) == cli.EXIT_CONFIG
    assert "pulse 0: click times are whole femtoseconds" in _config_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, out", [(("g2", "--oracle"), "oracle.json"),
                                          (("reproduce", "fig3b", "--sequences", 2000), ".")],
                         ids=["g2_oracle", "reproduce_fig3b"])
def test_g2_at_a_dark_probability_of_one(tmp_path, device_config_path, command, out):
    # 2 MHz of dark counts over the 20 us windows round the dark probability
    # to 1.0: every window clicks, so both model g2 values are 1
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(re.sub(r"(?m)^detection\.dark_rate = .*$", "detection.dark_rate = 2e6",
                          device_config_path.read_text()))
    assert -math.expm1(-2e6 * load_config(cfg).sequence.pulses[0].window_length) == 1.0
    assert run(*command, "--config", cfg, "--out", tmp_path / out) == cli.EXIT_OK
    payload = read_artifact_json(next(tmp_path.glob("*.json")))
    for key in ("oracle_g2", "predicted_g2"):
        assert payload[key] == pytest.approx(1.0, rel=1e-15, abs=0)


def test_g2_model_refuses_a_label_on_two_pulses(tmp_path, device_config_path, capsys):
    # a second red pulse: the estimator would pool its clicks into "read"
    cfg = tmp_path / "three_pulses.cfg"
    cfg.write_text(device_config_path.read_text() + "pulse.2.side = red\n"
                   "pulse.2.duration = 40e-9\npulse.2.peak_power = 750e-9\n"
                   "pulse.2.start = 21e-6\npulse.2.window = 10e-6\n")
    assert run("g2", "--oracle", "--config", cfg) == cli.EXIT_CONFIG
    assert run("reproduce", "fig3b", "--config", cfg, "--out", tmp_path / "out") == cli.EXIT_CONFIG
    assert not list((tmp_path / "out").iterdir())
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2
    for line in errors:
        assert "'read' label names pulse 1 (start 1.9e-07 s), pulse 2 (start 2.1e-05 s)" in line


def test_fit_cli(tmp_path):
    data = tmp_path / "line.csv"
    data.write_text("x,y\n0,1\n1,3\n2,5\n3,7\n")
    out = tmp_path / "fit.json"
    assert run("fit", "--model", "linear", "--data", data, "--out", out) == 0
    payload = read_artifact_json(out)
    assert payload["params"]["slope"] == pytest.approx(2.0)
    assert payload["converged"] is True


def test_fit_cli_hashes_its_data_only_for_out(tmp_path, monkeypatch):
    data = tmp_path / "line.csv"
    data.write_text("x,y\n0,1\n1,3\n2,5\n3,7\n")
    hashed = []
    monkeypatch.setattr(cli, "_file_hash", lambda path: hashed.append(Path(path)) or "0" * 12)
    assert run("fit", "--model", "linear", "--data", data) == 0
    assert hashed == []
    assert run("fit", "--model", "linear", "--data", data, "--out", tmp_path / "fit.json") == 0
    assert hashed == [data]


def test_fit_cli_flags_degenerate(tmp_path):
    data = tmp_path / "flat.csv"
    rows = "\n".join(f"{x},1.0" for x in range(10))
    data.write_text("x,y\n" + rows + "\n")
    assert run("fit", "--model", "lorentzian", "--data", data) == cli.EXIT_NUMERICAL


def test_fit_cli_biexp_fits_a_slow_rise(tmp_path):
    # a start from the old fixed grid stepped a time constant past float64
    # range on this curve, and the fit exited 3 with "math range error"
    t = np.geomspace(5e-8, 1.1e-4, 20)
    y = np.exp(-t / 50e-6) * (1 - np.exp(-t / 1.5e-6)) + 0.1
    data = tmp_path / "heating.csv"
    data.write_text("tau_s,n_th\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), y.tolist())))
    out = tmp_path / "fit.json"
    assert run("fit", "--model", "biexp", "--data", data, "--out", out) == cli.EXIT_OK
    params = read_artifact_json(out)["params"]
    assert params["tau_rise"] == pytest.approx(1.5e-6, rel=1e-6)
    assert params["tau_decay"] == pytest.approx(50e-6, rel=1e-6)


def test_heating_cli(tmp_path, device_config_path):
    assert run("heating", "--config", device_config_path, "--out", tmp_path,
               "--points", 40) == 0
    lines = (tmp_path / "heating_curves.csv").read_text().splitlines()
    assert lines[1] == "p_s,tau_s,n_th"
    assert len(lines) == 2 + 4 * 40  # four calibration rows in the shipped config


def test_heating_curve_is_what_a_later_pulse_sees(tmp_path, device_config_path):
    # one heating model serves both: the curve at delay tau is the occupation a
    # probe pulse tau after a heater pulse of the same p_s sees, less the
    # probe's own n_instant
    assert run("heating", "--config", device_config_path, "--out", tmp_path,
               "--ps", "0.005,0.02,0.3", "--points", 15) == 0
    _, _, (ps_column, taus, n_th) = read_table(tmp_path / "heating_curves.csv")
    mode = load_config(device_config_path).mode
    heater = Pulse("blue", 40e-9, 1e-6, 0.0)
    for p_s, tau, n in zip(ps_column.tolist(), taus.tolist(), n_th.tolist()):
        probe = Pulse("red", 40e-9, 1e-6, heater.end + tau)
        seen = dynamics.pulse_occupations(PulseSequence((heater, probe), 1e3, 1), mode,
                                          [p_s, p_s])[1]
        assert n == pytest.approx(seen - mode.heating.instant_occupation(p_s), rel=1e-8)
    assert len(n_th) == 45


def test_thermometry_cli(tmp_path, device_config_path):
    config = load_config(device_config_path)
    from omclab import optomech
    eta = config.detection.eta_det
    n_true, pulses = 0.05, 10**9
    rows = ["side,pulse_energy_j,clicks,n_pulses"]
    for energy in (2e-15, 6e-15):
        p_r = optomech.scattering_probability("red", energy, config.g0,
                                              config.cavity, config.mode)
        p_b = optomech.scattering_probability("blue", energy, config.g0,
                                              config.cavity, config.mode)
        rows.append(f"red,{energy},{round(p_r * n_true * eta * pulses)},{pulses}")
        rows.append(f"blue,{energy},{round(p_b * (n_true + 1) * eta * pulses)},{pulses}")
    counts = tmp_path / "counts.csv"
    counts.write_text("\n".join(rows) + "\n")
    assert run("thermometry", "--config", device_config_path, "--counts", counts,
               "--out", tmp_path) == 0
    table = (tmp_path / "thermometry.csv").read_text().splitlines()
    assert table[1] == "p_s_read,p_s_write,n_th,n_th_err,cooperativity"
    values = [float(v) for v in table[2].split(",")]
    assert values[2] == pytest.approx(n_true, rel=0.02)


@pytest.mark.parametrize("order, read_duration", [
    # the write (blue) pulse lasts 40 ns and the read (red) pulse after it 80 ns
    (("blue", "red"), 80e-9),
    # an 80 ns red pulse before the write pulse is not its read pulse: the
    # 60 ns red pulse after the write is, as in sim's write/read pairing
    (("red", "blue", "red"), 60e-9),
], ids=["write-read", "red-write-read"])
def test_thermometry_cooperativity_uses_the_read_pulse_duration(tmp_path, device_config,
                                                                order, read_duration):
    write, read = device_config.sequence.pulses
    assert (write.side, read.side) == ("blue", "red")
    durations = {("blue", "red"): [40e-9, 80e-9],
                 ("red", "blue", "red"): [80e-9, 40e-9, 60e-9]}[order]
    pulses = tuple(dataclasses.replace(write if side == "blue" else read, duration=duration,
                                       start=k * 1e-6)
                   for k, (side, duration) in enumerate(zip(order, durations)))
    config = dataclasses.replace(device_config, sequence=dataclasses.replace(
        device_config.sequence, pulses=pulses))
    assert sim.read_pulse_duration(config.sequence) == read_duration
    config_path = tmp_path / "read.cfg"
    config_path.write_text(serialize_config(config))
    red, blue = (4e-15, 300, 10**9), (4e-15, 9000, 10**9)
    counts = tmp_path / "counts.csv"
    counts.write_text("side,pulse_energy_j,clicks,n_pulses\n"
                      f"red,{red[0]},{red[1]},{red[2]}\nblue,{blue[0]},{blue[1]},{blue[2]}\n")
    assert run("thermometry", "--config", config_path, "--counts", counts,
               "--out", tmp_path) == 0
    cooperativity = float((tmp_path / "thermometry.csv").read_text().splitlines()[2]
                          .split(",")[4])
    assert cooperativity == pytest.approx(
        cli._asymmetry_point(config, read_duration, red, blue)[4], rel=1e-9)


def test_reproduce_fig1b_and_figs1(tmp_path, device_config_path):
    assert run("reproduce", "fig1b", "--config", device_config_path, "--out", tmp_path) == 0
    fit = read_artifact_json(tmp_path / "fig1b_fit.json")
    assert fit["kappa_fit_hz"] == pytest.approx(5.14e9, rel=1e-4)
    assert run("reproduce", "figs1", "--config", device_config_path, "--out", tmp_path) == 0
    cal = read_artifact_json(tmp_path / "figs1_fit.json")
    assert cal["slope_per_uw"] == pytest.approx(2.6e-2, rel=0.15)
    assert cal["g0_hz"] == pytest.approx(845e3, rel=0.02)


def test_reproduce_figs1_g0_within_its_stated_error(tmp_path, device_config,
                                                    device_config_path):
    # fitting the saturating p_s itself put g0 0.56% low, ~10x its stated error
    assert run("reproduce", "figs1", "--config", device_config_path, "--out", tmp_path) == 0
    cal = read_artifact_json(tmp_path / "figs1_fit.json")
    assert abs(cal["g0_hz"] - device_config.g0) <= cal["g0_err_hz"]
    assert cal["g0_hz"] == pytest.approx(device_config.g0, rel=1e-6)


def test_reproduce_fig3b_small(tmp_path, device_config_path):
    assert run("--threads", 2, "reproduce", "fig3b", "--config", device_config_path,
               "--out", tmp_path, "--seed", 5, "--sequences", 50000) == 0
    payload = read_artifact_json(tmp_path / "fig3b_g2.json")
    assert payload["oracle_g2"] > 2.0
    assert 2.0 < payload["predicted_g2"] < payload["oracle_g2"]


# sha256 of each artifact of `reproduce all --config configs/gap_omc.cfg --seed 0`;
# a change that moves any of these bytes says which output changes, and why.
# Made at omclab 0.6.0 with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 (the
# versions constraints.txt pins); the version is in every artifact's header
# line, and all eleven differ from 0.5.0's, 0.4.0's and 0.3.0's in that line
# only (0.4.0 changed the record CSV, which no artifact holds; 0.5.0 draws
# click times on the fs grid, which no artifact holds either, since fig2 and
# fig3b count clicks per sequence, not their times; 0.6.0 replaced the record
# CSV with the .npz record file, which no artifact is).  0.3.0's random stream (one
# draw per unit from its outcome table) moved the sampled values of
# fig2_thermometry.csv and fig3b_g2.json; the other nine differ from 0.2.0's
# in the header line only.  fig3b_g2.json's oracle_g2 and predicted_g2 then
# moved in their last digits (19.789251142005924 -> 19.789251141881135,
# 5.512039935135834 -> 5.512039935159948), nearer their exact values, when
# fock.oracle_g2 wrote each marginal as p + q (1 - p) and predicted_g2 became
# the g2 of the pair's outcome table
_REPRODUCE_ALL_SHA256 = {
    "budget.json": "a95d610d6e881151e6090078ebb45c943ca6878cb4626fef3039d968d3063765",
    "fig1b_fit.json": "657460be5ac2477e389c3352a6a2294175f32ded76999e9318915bf76dd3668c",
    "fig1b_reflection.csv": "5d36d8c6498e00af3d37b498f7807922a3632dcde349577f68b210c3e10b8e65",
    "fig1c_fit.json": "8770572956c87142f30d99cd2aba87b2f3972ee68ba64ef5111c9b38b48ef8ff",
    "fig1c_psd.csv": "f0034549167b05aaf43d00a399d7e041ef9044cdc2b1e039f79cbc288416c4c4",
    "fig2_thermometry.csv": "4af409e8846279c90f7a570dbb4976c838b32b4091dfd46a1a64b7a4fcc77b63",
    "fig3a_heating.csv": "ba4fc2977c51f8a2584582192606c34f925e6376cb9f2a702cd9f34dbe640f5c",
    "fig3b_g2.json": "86b20d1318126e94bb9e375a97bc816057447f98a66b51a35821ebcd6aad548d",
    "figs1_calibration.csv": "4607889babfcf07e807cd113b4e63b7ae2acb2b82dd831f5f7de237baf41a231",
    "figs1_fit.json": "0070923390adee77b632f511a3a20dd03cbf530601b5e5f7990703f057c02d53",
    "noise_vs_q.csv": "5a117a0902bbbb888f1871afe5fb9b7bad5b8c6b128f6c5775f341d18686afdf",
}


def test_reproduce_all_artifacts_are_golden(tmp_path, device_config_path, capsys):
    assert run("reproduce", "all", "--config", device_config_path, "--seed", 0,
               "--out", tmp_path) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == _REPRODUCE_ALL_SHA256
    # one line per target, none from a subcommand
    assert capsys.readouterr().out.splitlines() == [
        f"reproduce {target}: artifacts in {tmp_path}" for target in cli._REPRODUCE]


def test_reproduce_all_replaces_the_artifacts_in_an_existing_out(tmp_path, device_config_path):
    # each artifact is already there, longer than its new bytes, and one is a
    # symlink: the run writes the golden bytes, through the link for that one
    out, target = tmp_path / "out", tmp_path / "target"
    out.mkdir()
    for name in _REPRODUCE_ALL_SHA256:
        (out / name).write_text("stale\n" * 10_000, encoding="utf-8")
    target.write_text("stale\n" * 10_000, encoding="utf-8")
    (out / "budget.json").unlink()
    (out / "budget.json").symlink_to(target)
    assert run("reproduce", "all", "--config", device_config_path, "--seed", 0,
               "--out", out) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert digests == _REPRODUCE_ALL_SHA256
    assert [path.name for path in out.iterdir() if path.is_symlink()] == ["budget.json"]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == _REPRODUCE_ALL_SHA256["budget.json"]


def test_g2_out_writes_through_a_fifo(tmp_path, device_config_path):
    # an --out that is not a regular file (a FIFO; a device such as
    # /dev/stdout or os.devnull) is written as it is, not removed
    fifo, regular = tmp_path / "g2.json", tmp_path / "regular.json"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the artifact fits the pipe's buffer
    try:
        assert run("g2", "--oracle", "--config", device_config_path, "--out", fifo) == 0
        received = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert run("g2", "--oracle", "--config", device_config_path, "--out", regular) == 0
    assert received == regular.read_bytes()


def test_reproduce_fig3a_keeps_a_heating_curves_file(tmp_path, device_config_path):
    assert run("heating", "--config", device_config_path, "--out", tmp_path,
               "--ps", 0.01) == 0
    curves = (tmp_path / "heating_curves.csv").read_bytes()
    assert run("reproduce", "fig3a", "--config", device_config_path, "--out", tmp_path) == 0
    assert (tmp_path / "heating_curves.csv").read_bytes() == curves
    assert (tmp_path / "fig3a_heating.csv").exists()


def test_exit_codes(tmp_path, device_config_path, capsys):
    assert run("cavity-probe", "--config", tmp_path / "missing.cfg",
               "--out", tmp_path) == cli.EXIT_IO
    bad = tmp_path / "bad.cfg"
    bad.write_text("cavity.f_c = not-a-number\n")
    assert run("cavity-probe", "--config", bad, "--out", tmp_path) == cli.EXIT_CONFIG
    incomplete = tmp_path / "incomplete.cfg"
    incomplete.write_text("cavity.f_c = 1e14\n")
    assert run("cavity-probe", "--config", incomplete, "--out", tmp_path) == cli.EXIT_CONFIG
    not_utf8 = tmp_path / "latin1.csv"
    not_utf8.write_bytes(b"x,y\n0,1\n1,\xff3\n")
    capsys.readouterr()
    assert run("fit", "--model", "linear", "--data", not_utf8) == cli.EXIT_CONFIG
    assert str(not_utf8) in _config_error_line(capsys)
    assert run("cavity-probe", "--config", not_utf8, "--out", tmp_path) == cli.EXIT_CONFIG
    assert str(not_utf8) in _config_error_line(capsys)


def _config_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("omclab: configuration error: ")
    assert err.count("\n") == 1
    return err


def _record_file(path, n_sequences, rows):
    """A blind record file written through np.savez: the member
    ``n_sequences`` (an int is saved as int64, None leaves it out), then
    ``rows`` of (sequence index, label, click time in fs).  Returns ``path``."""
    seq, labels, times = zip(*rows)
    members = {"n_sequences": n_sequences, "header": np.array([], dtype=str),
               "labels": np.array(LABELS), "sequence_index": np.array(seq, dtype=np.int64),
               "pulse_label": np.array([LABELS.index(l) for l in labels], dtype=np.int8),
               "click_time_fs": np.array(times, dtype=np.int64)}
    with open(path, "wb") as f:
        np.savez(f, **{name: value for name, value in members.items() if value is not None})
    return path


@pytest.mark.parametrize("row, message", [
    ("10,read,210000000", "sequence_index outside [0, 10)"),
    ("-1,read,210000000", "sequence_index outside [0, 10)"),
    ("4,read", "does not match the header"),
    # '210.0' and 'nan' are no fs counts either: these rows check that the
    # leftmost fault is named
    ("x,read,210.0", "'x,read,210.0'"),
    ("99999999999999999999,read,210.0", "'99999999999999999999,read,210.0'"),
    ("4,probe,210.0", "row '4,probe,210.0': pulse_label must be one of write, read, got 'probe'"),
    ("4,Read,nan", "pulse_label must be one of write, read, got 'Read'"),
    ("4,read,nan", "click_time_fs must be int64, got 'nan'"),
    ("4,read,-inf", "click_time_fs must be int64, got '-inf'"),
    ("4,read,1e400", "click_time_fs must be int64, got '1e400'"),
    ("4,read,210.0", "click_time_fs must be int64, got '210.0'"),
    ("4,read,9223372036854775808", "click_time_fs must be int64, got '9223372036854775808'"),
])
def test_g2_records_malformed_row(tmp_path, capsys, row, message):
    # a 0.5.0 record CSV exits 2 and names the file, whatever its rows; the
    # README's conversion names the faulty row, as the 0.5.0 reader did
    records = tmp_path / "records.csv"
    records.write_text("# n_sequences=10\nsequence_index,pulse_label,click_time_fs\n"
                       f"3,write,20000000\n{row}\n")
    assert run("g2", "--records", records) == cli.EXIT_CONFIG
    assert f"{records}: not an .npz record file" in _config_error_line(capsys)
    with pytest.raises(ValueError, match=re.escape(message)):
        csv_records.convert(records, tmp_path / "records.npz")


@pytest.mark.parametrize("member, fault", [
    (np.array("abc"), "n_sequences is <U3, not int64"),
    (np.int64(-1), "n_sequences=-1 is negative"),
    (np.float64(1e3), "n_sequences is float64, not int64"),
    (np.array([], dtype=np.int64), "n_sequences has shape (0,), not ()"),
], ids=["abc", "-1", "1e3", ""])
def test_g2_records_bad_n_sequences(tmp_path, capsys, member, fault):
    records = _record_file(tmp_path / "records.npz", member, [(3, "write", 20000000),
                                                              (3, "read", 210000000)])
    assert run("g2", "--records", records) == cli.EXIT_CONFIG
    assert f"{records}: {fault}" in _config_error_line(capsys)


def test_g2_records_not_a_record_csv(tmp_path, capsys):
    # the click members without n_sequences
    records = _record_file(tmp_path / "records.npz", None, [(3, "write", 20000000)])
    assert run("g2", "--records", records) == cli.EXIT_CONFIG
    assert f"{records}: members ['click_time_fs.npy', 'header.npy', 'labels.npy', " \
        "'pulse_label.npy', 'sequence_index.npy'] are not a record file's n_sequences, " \
        "header, labels, sequence_index, pulse_label, click_time_fs" in _config_error_line(capsys)


def test_g2_records_refuses_the_0_3_0_format(tmp_path, capsys):
    # 0.3.0 wrote a record CSV with click times as %.6f ns: no record file
    records = tmp_path / "records.csv"
    records.write_text("# n_sequences=10\nsequence_index,pulse_label,click_time_ns\n"
                       "3,write,20.000000\n3,read,210.000000\n")
    assert run("g2", "--records", records) == cli.EXIT_CONFIG
    assert f"{records}: not an .npz record file" in _config_error_line(capsys)


@pytest.mark.parametrize("n_sequences", [10**12, 2**63 - 1])
def test_g2_records_huge_n_sequences(tmp_path, n_sequences):
    # the counts scale with the clicks, so no n_sequences-long array is built
    records = _record_file(tmp_path / "records.npz", n_sequences, [
        (3, "write", 20000000), (3, "read", 210000000), (7, "read", 210000000)])
    out_json = tmp_path / "g2.json"
    assert run("g2", "--records", records, "--dn-range=-1..1", "--out", out_json) == 0
    by_dn = {e["delta_n"]: e for e in read_artifact_json(out_json)["estimates"]}
    assert by_dn[0]["counts"] == [1, 1, 2, n_sequences]  # n_coinc, n_write, n_read, n_pairs
    assert by_dn[1]["counts"][0] == 0
    assert by_dn[0]["ci_low"] < by_dn[0]["g2"] < by_dn[0]["ci_high"]


def test_g2_records_skips_undefined_offsets(tmp_path, capsys):
    # the only write click is in sequence 3, so dn = -4 has no usable write click
    records = _record_file(tmp_path / "records.npz", 10**12, [
        (3, "write", 20000000), (3, "read", 210000000), (7, "read", 210000000)])
    out_json = tmp_path / "g2.json"
    assert run("g2", "--records", records, "--out", out_json) == 0
    out = capsys.readouterr().out
    assert "g2(dn=-4) undefined: 0 usable write clicks, 2 usable read clicks" in out
    by_dn = {e["delta_n"]: e for e in read_artifact_json(out_json)["estimates"]}
    assert sorted(by_dn) == list(range(-3, 5))
    assert by_dn[0]["counts"][0] == 1
    no_write = _record_file(tmp_path / "no_write.npz", 10**12, [(3, "read", 210000000)])
    assert run("g2", "--records", no_write) == cli.EXIT_NUMERICAL


def test_g2_skips_offsets_beyond_a_short_run(tmp_path, device_config_path, capsys):
    # three sequences have no pair 3 or 4 apart: those offsets are skipped and
    # named, as an offset without clicks is, instead of ending the command
    records = _record_file(tmp_path / "records.npz", 3, [
        row for i in range(3) for row in ((i, "write", 20000000), (i, "read", 210000000))])
    assert run("g2", "--records", records, "--out", tmp_path / "g2.json") == cli.EXIT_OK
    out = capsys.readouterr().out
    for dn in (-4, -3, 3, 4):
        assert f"g2(dn={dn:+d}) undefined: 3 sequences have no pair {abs(dn)} apart" in out
    by_dn = {e["delta_n"]: e for e in read_artifact_json(tmp_path / "g2.json")["estimates"]}
    assert sorted(by_dn) == [-2, -1, 0, 1, 2]
    assert by_dn[2]["counts"] == [1, 1, 1, 1]
    # with no offset left there is nothing to report
    assert run("g2", "--records", records, "--dn-range=3..4") == cli.EXIT_NUMERICAL
    # fig3b on four sequences skips dn = -4 and +4 and still writes its file
    assert run("reproduce", "fig3b", "--config", device_config_path, "--seed", 0,
               "--out", tmp_path / "fig3b", "--sequences", 4) == cli.EXIT_OK
    assert "g2(dn=+4) undefined: 4 sequences have no pair 4 apart" in capsys.readouterr().out
    assert read_artifact_json(tmp_path / "fig3b" / "fig3b_g2.json")["n_sequences"] == 4


def test_g2_out_and_fig3b_write_one_estimate_schema(tmp_path, device_config_path):
    records = _record_file(tmp_path / "records.npz", 10,
                           [(3, "write", 20000000), (3, "read", 210000000)])
    assert run("g2", "--records", records, "--dn-range=0..0", "--out", tmp_path / "g2.json") == 0
    assert run("reproduce", "fig3b", "--config", device_config_path, "--seed", 0,
               "--out", tmp_path) == 0
    (from_g2,) = read_artifact_json(tmp_path / "g2.json")["estimates"]
    from_fig3b = read_artifact_json(tmp_path / "fig3b_g2.json")["estimates"][0]
    assert from_g2.keys() == from_fig3b.keys()
    assert from_g2["counts"] == [1, 1, 1, 10]
    assert len(from_fig3b["counts"]) == 4


def test_fit_cli_unparseable_row(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    for row in ("1,abc", "1,nan", "inf,3"):
        data.write_text(f"x,y\n0,1\n{row}\n2,5\n")
        assert run("fit", "--model", "linear", "--data", data) == cli.EXIT_CONFIG
        err = _config_error_line(capsys)
        assert str(data) in err and repr(row) in err


def test_thermometry_reproduces_fig2_from_its_counts(tmp_path, device_config,
                                                     device_config_path):
    # fig2 and thermometry share one asymmetry analysis: fed the counts fig2
    # simulates (signal plus dark clicks), thermometry writes fig2's numbers
    seed, n_seq = 3, 2_000_000
    assert device_config.sequence.pulses[0].duration == sim.PULSE_DURATION
    assert run("reproduce", "fig2", "--config", device_config_path, "--seed", seed,
               "--sequences", n_seq, "--out", tmp_path) == 0
    rows = ["side,pulse_energy_j,clicks,n_pulses"]
    for i, p_s in enumerate(np.geomspace(0.004, 0.05, 6)):  # fig2's grid
        for side, run_seed in (("red", seed + 2 * i), ("blue", seed + 2 * i + 1)):
            config = sim.single_pulse_config(device_config, side, p_s, n_seq)
            _, report = sim.simulate(config, run_seed)
            totals = report.pulse_totals[0]
            energy = sim.pulse_energy_at_device(config.sequence.pulses[0],
                                                config.detection.eta_fc)
            rows.append(f"{side},{energy!r},{totals['signal'] + totals['dark']},{n_seq}")
    counts = tmp_path / "counts.csv"
    counts.write_text("\n".join(rows) + "\n")
    assert run("thermometry", "--config", device_config_path, "--counts", counts,
               "--out", tmp_path) == 0
    fig2 = (tmp_path / "fig2_thermometry.csv").read_text().splitlines()[2:]
    thermometry = (tmp_path / "thermometry.csv").read_text().splitlines()[2:]
    assert len(fig2) == len(thermometry) == 6
    for fig2_row, thermometry_row in zip(fig2, thermometry):
        # n_th_est, n_th_err, cooperativity against n_th, n_th_err, cooperativity
        assert fig2_row.split(",")[1:4] == thermometry_row.split(",")[2:5]


def test_thermometry_rejects_unpaired_rows(tmp_path, device_config_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("side,pulse_energy_j,clicks,n_pulses\n"
                      "red,2e-15,100,1000000000\nblue,2e-15,2000,1000000000\n"
                      "red,6e-15,300,1000000000\n")
    assert run("thermometry", "--config", device_config_path, "--counts", counts,
               "--out", tmp_path) == cli.EXIT_CONFIG
    err = _config_error_line(capsys)
    assert str(counts) in err and "2 red and 1 blue" in err
    assert not (tmp_path / "thermometry.csv").exists()


def test_thermometry_refuses_a_repeated_column(tmp_path, device_config_path, capsys):
    # a second clicks column would otherwise stand in for the first
    counts = tmp_path / "counts.csv"
    counts.write_text("side,pulse_energy_j,clicks,n_pulses,clicks\n"
                      "red,2e-15,300,1000000000,5\nblue,2e-15,900,1000000000,7\n")
    assert run("thermometry", "--config", device_config_path, "--counts", counts,
               "--out", tmp_path) == cli.EXIT_CONFIG
    assert (f"{counts}: column 'clicks' is named more than once"
            in _config_error_line(capsys))
    assert not (tmp_path / "thermometry.csv").exists()


@pytest.mark.parametrize("table, message", [
    ("side,pulse_energy_j,clicks\nred,2e-15,100\nblue,2e-15,2000\n", "must have columns"),
    ("side,pulse_energy_j,clicks,n_pulses\nred,2e-15,100,1000000000\n"
     "red,6e-15,300,1000000000\n", "needs both red and blue rows"),
])
def test_thermometry_counts_error_names_the_file(tmp_path, device_config_path, capsys,
                                                 table, message):
    counts = tmp_path / "counts.csv"
    counts.write_text(table)
    assert run("thermometry", "--config", device_config_path, "--counts", counts,
               "--out", tmp_path) == cli.EXIT_CONFIG
    err = _config_error_line(capsys)
    assert f"{counts}: " in err and message in err
    assert not (tmp_path / "thermometry.csv").exists()


def test_thermometry_rejects_an_unknown_side(tmp_path, device_config_path, capsys):
    # the table reader's message for a field outside its column's values
    counts = tmp_path / "counts.csv"
    counts.write_text("side,pulse_energy_j,clicks,n_pulses\n"
                      "red,2e-15,100,1000000000\nRed,6e-15,300,1000000000\n"
                      "blue,2e-15,2000,1000000000\n")
    assert run("thermometry", "--config", device_config_path, "--counts", counts,
               "--out", tmp_path) == cli.EXIT_CONFIG
    err = _config_error_line(capsys)
    assert (f"{counts}: row 'Red,6e-15,300,1000000000': side must be one of red, blue, "
            "got 'Red'") in err
    assert not (tmp_path / "thermometry.csv").exists()


def test_thermometry_short_row_is_a_config_error(tmp_path, device_config_path, capsys):
    # the side column last, so a short row lacks the field the pairing reads first
    counts = tmp_path / "counts.csv"
    counts.write_text("pulse_energy_j,clicks,n_pulses,side\n2e-15,100\n"
                      "2e-15,2000,1000000000,blue\n")
    assert run("thermometry", "--config", device_config_path, "--counts", counts,
               "--out", tmp_path) == cli.EXIT_CONFIG
    err = _config_error_line(capsys)
    assert str(counts) in err and "'2e-15,100'" in err


@pytest.mark.parametrize("line, replacement", [
    ("g0 = 845e3", "g0 = nan"),
    ("mode.n_baseline = 0.041", "mode.n_baseline = nan"),
    ("mode.n_baseline = 0.041", "mode.n_baseline = inf"),
    ("sequence.n_sequences = 1000000", "sequence.n_sequences = 1e400"),
])
def test_non_finite_config_value_is_a_config_error(tmp_path, device_config_path, capsys,
                                                     line, replacement):
    text = device_config_path.read_text()
    assert line in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(line, replacement))
    assert run("g2", "--oracle", "--config", cfg) == cli.EXIT_CONFIG
    assert replacement.split(" = ")[0] in _config_error_line(capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["0", "-0", "-1", "1e-400", "1.5", "2"])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PiezoInterface)])
def test_budget_piezo_value_is_usable_or_a_config_error(tmp_path, device_config_path, capsys,
                                                        name, value):
    # PiezoInterface checks every value the budget uses, so a bad one exits 2
    # at load time and never reaches the formulas as a numerical error (exit 3)
    text = device_config_path.read_text()
    bad = re.sub(rf"^piezo\.{name} = .*$", f"piezo.{name} = {value}", text, flags=re.M)
    assert bad != text
    cfg = tmp_path / "piezo.cfg"
    cfg.write_text(bad)
    code = run("budget", "--config", cfg, "--out", tmp_path)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
    if code == cli.EXIT_CONFIG:
        assert "piezo" in _config_error_line(capsys)


@pytest.mark.parametrize("values, keys", [
    # each key in range, but the diluted coupling underflows to 0
    ({"k_eff2": "1e-300", "c_piezo": "1e-300"}, ("piezo.k_eff2", "piezo.c_piezo")),
    # each key in range, but C_em = k_red^2 f_m q_uw / gamma_m overflows to inf
    ({"q_uw": "1e308", "gamma_m": "1e-10"}, ("piezo.q_uw", "piezo.gamma_m")),
])
def test_budget_unusable_piezo_combination_is_a_config_error(tmp_path, device_config_path,
                                                             capsys, values, keys):
    text = device_config_path.read_text()
    for name, value in values.items():
        line = "" if value is None else f"piezo.{name} = {value}\n"
        text = re.sub(rf"^piezo\.{name} = .*\n", line, text, flags=re.M)
    cfg = tmp_path / "piezo.cfg"
    cfg.write_text(text)
    assert run("budget", "--config", cfg, "--out", tmp_path) == cli.EXIT_CONFIG
    err = _config_error_line(capsys)
    assert all(key in err for key in keys)
    assert not (tmp_path / "budget.json").exists()


def test_detection_window_past_the_period_is_a_config_error(tmp_path, device_config_path,
                                                            capsys):
    # a 60 us read window in the 40 us period of the 25 kHz sequence
    text = device_config_path.read_text()
    assert "pulse.1.window = 20e-6" in text
    bad = text.replace("pulse.1.window = 20e-6", "pulse.1.window = 60e-6")
    with pytest.raises(ValidationError, match="window extends past the period"):
        parse_config(bad)
    cfg = tmp_path / "window.cfg"
    cfg.write_text(bad)
    assert run("g2", "--oracle", "--config", cfg) == cli.EXIT_CONFIG
    assert "window extends past the period" in _config_error_line(capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    # fig2 runs seeds seed + 2i and seed + 2i + 1 for i = 0..5: the largest
    # --seed overflows at its first blue run, 2**63 - 8 at i = 4
    ["reproduce", "fig2", "--seed", 2**63 - 1, "--out", "."],
    ["reproduce", "fig2", "--seed", 2**63 - 8, "--out", "."],
])
def test_seed_outside_63_bits_is_a_config_error(tmp_path, monkeypatch, device_config_path,
                                                capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--config", device_config_path) == cli.EXIT_CONFIG
    assert "63-bit" in _config_error_line(capsys)


@pytest.mark.parametrize("command, flag, value", [
    ("heating", "--tmin", "0"),
    ("heating", "--tmax", "inf"),
    ("budget", "--q-min", "0"),
    ("budget", "--q-points", "-1"),
    ("cavity-probe", "--points", "-3"),
    ("cavity-probe", "--span", "nan"),
    ("cavity-probe", "--span", "inf"),
    ("cavity-probe", "--span", "0"),
    ("cavity-probe", "--span", "-1"),
    ("reproduce fig3b", "--sequences", "0"),
    ("reproduce fig2", "--sequences", "-5"),
    ("simulate", "--seed", "-1"),
    ("reproduce all", "--seed", "-1"),
    ("reproduce fig3b", "--seed", str(2**63)),
    ("g2", "--dn-range", "3"),
    ("g2", "--dn-range", "1..x"),
    ("g2", "--dn-range", "4..1"),
    ("heating", "--ps", "a,b"),
    ("heating", "--ps", "0.01,nan"),
    ("heating", "--ps", "2"),
    ("heating", "--ps", "0.6"),
    ("heating", "--ps", "-0.01"),
])
def test_bad_grid_flag_is_a_usage_error(tmp_path, device_config_path, capsys,
                                        command, flag, value):
    # a grid numpy rejects (or fills with nan), a dn range or a p_s list that
    # is not one, is refused as its flag is parsed
    with pytest.raises(SystemExit) as exc:
        run(*command.split(), "--config", device_config_path, "--out", tmp_path, flag, value)
    assert exc.value.code == cli.EXIT_CONFIG
    assert f"argument {flag}: expected" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # nothing written, not even part of a run


@pytest.mark.parametrize("red_row", ["red,2e-15,1.5,1000000000", "red,2e-15,100,many",
                                     "red,nan,100,1000000000"])
def test_thermometry_non_integer_counts_is_a_config_error(tmp_path, device_config_path,
                                                          capsys, red_row):
    counts = tmp_path / "counts.csv"
    counts.write_text(f"side,pulse_energy_j,clicks,n_pulses\n{red_row}\n"
                      "blue,2e-15,2000,1000000000\n")
    assert run("thermometry", "--config", device_config_path, "--counts", counts,
               "--out", tmp_path) == cli.EXIT_CONFIG
    assert repr(red_row) in _config_error_line(capsys)


@pytest.mark.parametrize("red_row, column", [
    ("red,2e-15,500,100", "clicks"),  # a threshold detector clicks at most once per pulse
    ("red,2e-15,-3,1000000000", "clicks"),
    ("red,-2e-15,100,1000000000", "pulse_energy_j"),
    ("red,0.0,100,1000000000", "pulse_energy_j"),
    ("red,2e-15,0,0", "n_pulses"),
])
def test_thermometry_impossible_counts_is_a_config_error(tmp_path, device_config_path,
                                                         capsys, red_row, column):
    counts = tmp_path / "counts.csv"
    counts.write_text(f"side,pulse_energy_j,clicks,n_pulses\nblue,2e-15,700,1000000000\n"
                      f"{red_row}\n")
    assert run("thermometry", "--config", device_config_path, "--counts", counts,
               "--out", tmp_path) == cli.EXIT_CONFIG
    assert f"{counts}: row {red_row!r}: {column} must be" in _config_error_line(capsys)
    assert not (tmp_path / "thermometry.csv").exists()


def test_thermometry_quotes_a_bad_row_as_written(tmp_path, device_config_path, capsys):
    # padded and in another float spelling, after a comment and a blank line
    # (so the bad row is the third line after the column line, but the second row)
    counts = tmp_path / "counts.csv"
    bad = "red, 2.0e-15 ,500,100"
    counts.write_text("# counts\nside,pulse_energy_j,clicks,n_pulses\nblue,2e-15,700,1000000000\n"
                      f"# a comment\n\n{bad}\n")
    assert run("thermometry", "--config", device_config_path, "--counts", counts,
               "--out", tmp_path) == cli.EXIT_CONFIG
    assert f"{counts}: row {bad!r}: clicks must be <= n_pulses" in _config_error_line(capsys)


@pytest.mark.parametrize("line", ["cavity.kappa_e = 3.83e9", "piezo.f_s = 3.05e9",
                                  "piezo.f_p = 3050259261.0"])
def test_derived_or_dropped_key_is_unknown(tmp_path, device_config_path, capsys, line):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(device_config_path.read_text() + line + "\n")
    assert run("cavity-probe", "--config", cfg, "--out", tmp_path) == cli.EXIT_CONFIG
    assert f"unknown configuration keys: {line.split(' = ')[0]}" in _config_error_line(capsys)


# --- record file and table CSV fuzzing ---------------------------------------------

_RECORDS = sim.RecordBatch(
    n_sequences=10,
    sequence_index=np.array([0, 3, 3, 7, 9]),
    pulse_index=np.array([0, 0, 1, 1, 0], dtype=np.int16),
    pulse_label=np.array([0, 0, 1, 1, 0], dtype=np.int8),  # write, write, read, read, write
    click_time=np.array([20, 25, 200, 210, 5000]) * 10**6,  # fs
    origin=np.array([0, 1, 0, 2, 1], dtype=np.int8),  # signal, dark, signal, leakage, dark
)
_FIT_TABLE = "x,y\n0,1\n1,3\n2,5\n3,7\n"
_ODD_FIELDS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-1", "", "1e400", "1.5"]),
                        st.text(st.characters(codec="ascii"), max_size=12))


def _mutated_table(kind: str, text: str, draw) -> str:
    """``text`` with one field replaced, dropped or added."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split(",")
    j = draw(st.integers(0, len(fields) - 1))
    if kind == "replace":
        fields[j] = draw(_ODD_FIELDS)
    elif kind == "drop_field":
        del fields[j]
    else:
        fields.insert(j, draw(_ODD_FIELDS))
    lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _records_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.npz"
        sim.write_records(_RECORDS, path)
        return path.read_bytes()


def _npy(array: np.ndarray, shape: tuple | None = None) -> bytes:
    """``array`` as .npy bytes (a pickle for an object array), or its data
    after a header that declares ``shape`` in place of its own."""
    data = io.BytesIO()
    if shape is None:
        np.lib.format.write_array(data, array, allow_pickle=True)
    else:
        np.lib.format.write_array_header_1_0(data, {
            "descr": np.lib.format.dtype_to_descr(array.dtype), "fortran_order": False,
            "shape": shape})
        data.write(array.tobytes())
    return data.getvalue()


def _zip(members: dict) -> bytes:
    """An uncompressed zip of ``members``, name -> bytes, as np.savez lays one out."""
    data = io.BytesIO()
    with zipfile.ZipFile(data, "w", zipfile.ZIP_STORED) as archive:
        for name, content in members.items():
            archive.writestr(zipfile.ZipInfo(name), content)
    return data.getvalue()


# arrays a mutated member may hold: other dtypes and lengths, text, codes out
# of range
_ODD_ARRAYS = st.one_of(
    st.sampled_from([np.int8, np.int16, np.int64, np.uint64, ">i8", np.float64, np.bool_])
    .flatmap(lambda dtype: st.lists(st.integers(-3, 12), max_size=7)
             .map(lambda values: np.array(values).astype(dtype))),
    st.lists(st.sampled_from(["write", "read", "signal", "dark", "leakage", "x"]), max_size=4)
    .map(lambda values: np.array(values, dtype=str)),
    st.integers(-3, 12).map(np.int64),
)
_MEMBER_NAMES = ["n_sequences", "header", "labels", "sequence_index", "pulse_label",
                 "click_time_fs", "origins", "origin"]
# shapes a forged .npy header may declare: far more data than the file holds
# (np.load would allocate them first), or a few elements more or fewer
_FORGED_SHAPES = st.one_of(st.sampled_from([(2**40,), (10**8,), (2**62,), (2**31, 2**31)]),
                           st.integers(0, 12).map(lambda n: (n,)), st.just(()))


def _mutated_records(kind: str, draw) -> bytes:
    """The record file of ``_RECORDS`` (a field is one .npz member) truncated
    at a byte, with a byte flipped, or with a member dropped, added, renamed,
    replaced by another array, holding a code out of range, pickled, or with
    its .npy header forging its shape; or n_sequences dropped or set below
    the largest sequence index."""
    data = _records_bytes()
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip_byte":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    members = {f"{name}.npy": _npy(array) for name, array in arrays.items()}
    name = draw(st.sampled_from(sorted(arrays)))
    if kind == "drop_field":
        del members[f"{name}.npy"]
    elif kind == "drop_n_sequences":
        del members["n_sequences.npy"]
    elif kind == "add_field":
        new = draw(st.sampled_from(["extra", "pulse_index", "origin2", name.upper()]))
        members[f"{new}.npy"] = _npy(draw(_ODD_ARRAYS))
    elif kind == "rename_field":
        new = draw(st.sampled_from([n for n in [*_MEMBER_NAMES, "extra"] if n != name]))
        members[draw(st.sampled_from([new, f"{new}.npy"]))] = members.pop(f"{name}.npy")
    elif kind == "n_sequences_below_index":
        members["n_sequences.npy"] = _npy(np.int64(draw(st.integers(-2, 9))))
    elif kind == "replace":
        members[f"{name}.npy"] = _npy(draw(_ODD_ARRAYS))
    elif kind == "codes_out_of_range":
        codes, size = draw(st.sampled_from([("pulse_label", 2), ("origin", 3)]))
        values = arrays[codes].copy()
        values[draw(st.integers(0, values.size - 1))] = draw(st.one_of(
            st.integers(-128, -1), st.integers(size, 127)))
        members[f"{codes}.npy"] = _npy(values)
    elif kind == "pickled_member":
        target = draw(st.sampled_from([name, "extra"]))
        members[f"{target}.npy"] = _npy(np.array([{"clicks": 1}, "read"], dtype=object))
    else:  # forged_shape
        shape = draw(_FORGED_SHAPES.filter(lambda shape: shape != arrays[name].shape))
        members[f"{name}.npy"] = _npy(arrays[name], shape)
    return _zip(members)


# each kind but these never reads back: the flipped byte may be one no
# reader looks at, and a replaced member may hold what it held
_RECORD_KINDS = ["replace", "drop_field", "add_field", "drop_n_sequences",
                 "n_sequences_below_index", "truncate", "flip_byte", "rename_field",
                 "codes_out_of_range", "pickled_member", "forged_shape"]
_MAY_READ = ("replace", "flip_byte")


@pytest.mark.parametrize("kind", _RECORD_KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_records_read_or_raise_config_error(kind, data):
    mutated = _mutated_records(kind, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.npz"
        path.write_bytes(mutated)
        try:
            batch = sim.read_records(path)
        except ConfigError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
    assert kind in _MAY_READ
    assert isinstance(batch, sim.RecordBatch)
    if kind == "flip_byte":  # a byte no reader looks at: the records are intact
        assert batch.n_sequences == _RECORDS.n_sequences
        for name in ("sequence_index", "pulse_label", "click_time", "origin"):
            assert np.array_equal(getattr(batch, name), getattr(_RECORDS, name)), name
    columns = (batch.sequence_index, batch.pulse_label, batch.click_time, batch.origin)
    assert [c.dtype for c in columns] == [np.int64, np.int8, np.int64, np.int8]
    assert {c.shape for c in columns} == {(len(batch),)}
    assert np.all((batch.sequence_index >= 0) & (batch.sequence_index < batch.n_sequences))
    assert np.all((batch.pulse_label >= 0) & (batch.pulse_label < len(LABELS)))
    assert np.all((batch.origin >= 0) & (batch.origin < len(sim.ORIGINS)))


@pytest.mark.parametrize("command, kind", [
    *(("g2", kind) for kind in _RECORD_KINDS),
    *(("fit", kind) for kind in ["replace", "drop_field", "add_field"]),
])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mutated_table_exit_code(command, kind, data):
    # a g2 --records file that does not read exits 2 with one line that names
    # it; one that reads gives its estimates (0) or none (3)
    with tempfile.TemporaryDirectory() as tmp:
        if command == "fit":
            path = Path(tmp) / "table.csv"
            path.write_text(_mutated_table(kind, _FIT_TABLE, data.draw))
            assert run("fit", "--model", "linear", "--data", path) in (
                cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
            return
        path = Path(tmp) / "records.npz"
        path.write_bytes(_mutated_records(kind, data.draw))
        try:
            sim.read_records(path)
            expected = (cli.EXIT_OK, cli.EXIT_NUMERICAL)
        except ConfigError:
            expected = (cli.EXIT_CONFIG,)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("g2", "--records", path)
    assert code in expected
    if code == cli.EXIT_CONFIG:
        assert err.getvalue().startswith(f"omclab: configuration error: {path}: ")
        assert err.getvalue().count("\n") == 1


# flag values: small integers, integers past int64 or far too many sequences
# for memory (both fail before any work), ranges, and short arbitrary text
_FLAG_VALUES = st.one_of(
    st.sampled_from([str(2**62), str(2**63 - 1), str(2**63), str(10**30), "-4..4", "4..-4",
                     "0..9", "1e5", "nan", "", "linear", "biexp", "lorentzian"]),
    st.integers(-10**4, 10**4).map(str),
    st.text(st.characters(codec="ascii"), max_size=8),
)
_CLI_FLAGS = {
    "simulate": {"--config": "config", "--out": "out", "--seed": None, "--sequences": None,
                 "--blind": "switch"},
    "g2": {"--records": "records", "--config": "config", "--out": "out", "--dn-range": None,
           "--oracle": "switch"},
    "fit": {"--data": "data", "--out": "out", "--model": None},
}


def _fuzzed_argv(command: str, files: dict, draw) -> list[str]:
    """A working ``command`` line, then 1-3 edits: a flag set to a drawn value
    (a path flag to one of ``files``), a switch added, a flag dropped or left
    without its value, or an unknown flag added."""
    flags = _CLI_FLAGS[command]
    base = {"simulate": ["--config", "--out", "--sequences"], "g2": ["--records"],
            "fit": ["--data", "--model"]}[command]
    given = {"--sequences": "1000", "--model": "linear"}
    argv = [command, *(token for flag in base
                       for token in (flag, given.get(flag) or files[flags[flag]][0]))]
    for _ in range(draw(st.integers(1, 3))):
        flag = draw(st.sampled_from(sorted(flags)))
        kind = flags[flag]
        edit = draw(st.sampled_from(["set", "set", "drop", "bare", "unknown"]))
        if edit == "bare" or kind == "switch" and edit == "set":
            argv.append(flag)
        elif edit == "set":
            value = draw(_FLAG_VALUES if kind is None else st.sampled_from(files[kind]))
            argv.extend([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
        elif edit == "drop" and flag in argv:
            i = argv.index(flag)
            del argv[i:i + 2]
        elif edit == "unknown":
            # "--x...": no prefix of a real flag, which argparse would expand
            argv.extend([f"--x{draw(st.from_regex(r'[a-z]{0,4}', fullmatch=True))}",
                         draw(_FLAG_VALUES)])
    return argv


@pytest.mark.parametrize("command", sorted(_CLI_FLAGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_flags_exit_code(device_config_path, command, data):
    # every flag line ends in 0, 2 (configuration, argparse included) or 3,
    # never in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        records, fit_table = Path(tmp) / "records.npz", Path(tmp) / "fit.csv"
        records.write_bytes(_records_bytes())
        fit_table.write_text(_FIT_TABLE)
        files = {"config": [str(device_config_path), str(records)],
                 "records": [str(records), str(device_config_path)],
                 "data": [str(fit_table), str(records)],
                 "out": [str(Path(tmp) / "out")]}
        argv = _fuzzed_argv(command, files, data.draw)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2, --help 0
            code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), argv
