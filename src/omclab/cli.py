"""Command-line entry point wiring the toolkit together.

One binary, subcommand style.  Every artifact file starts with a header line
``# omclab <version> config=<hash> seed=<seed>`` so runs are traceable; JSON
artifacts carry the same header line before the JSON body (strip the first
line before parsing, or use ``read_artifact_json``).

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(non-convergence, model validity, undefined estimate), 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, cavity, dynamics, optomech, sim, stats, transducer
from .core import (
    SIDES,
    ConfigError,
    ExperimentConfig,
    load_config,
    open_new,
    read_table,
    serialize_config,
    write_table,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _file_hash(path: str | Path) -> str:
    """``_config_hash`` of an input file's bytes as stored, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()[:12]


def _header(config_hash: str, seed: int | None) -> str:
    seed_part = "none" if seed is None else str(seed)
    return f"omclab {__version__} config={config_hash} seed={seed_part}"


def _write_json(path: Path, header: str, payload: dict) -> None:
    text = f"# {header}\n" + json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open_new(path) as out:
        out.write(text)


def read_artifact_json(path: str | Path) -> dict:
    """Parse a JSON artifact, skipping the provenance header line."""
    text = Path(path).read_text(encoding="utf-8")
    body = text.split("\n", 1)[1] if text.startswith("#") else text
    return json.loads(body)


def _pmap(fn, items, threads: int):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> tuple[ExperimentConfig, str]:
    config = load_config(args.config)
    return config, _config_hash(serialize_config(config))


# --- subcommands -----------------------------------------------------------------


def cmd_cavity_probe(args) -> int:
    config, chash = _load(args)
    out = _out_dir(args)
    header = _header(chash, None)
    spectrum = cavity.reflection_spectrum(config.cavity, span=args.span, n_points=args.points)
    write_table(out / "reflection_spectrum.csv", [header],
                ["detuning_hz", "power_reflectance", "phase_rad"], spectrum.T)
    eta_dev, over = cavity.coupling_efficiency(config.cavity)
    metrics = cavity.sideband_metrics(config.cavity, config.mode)
    _write_json(out / "cavity_report.json", header, {
        "eta_dev": eta_dev,
        "over_coupled": over,
        "sideband_resolution": metrics["resolution"],
        "sideband_suppression_db": metrics["suppression_db"],
    })
    print(f"cavity-probe: eta_dev={eta_dev:.3f} over_coupled={over}")
    return EXIT_OK


def _asymmetry_point(config: ExperimentConfig, duration: float, red, blue) -> list[float]:
    """[p_s read, p_s write, n_th, n_th_err, cooperativity] from a red and a blue
    (energy at the device, clicks, pulses); the read drive is a ``duration`` pulse."""
    (e_red, clicks_r, n_r), (e_blue, clicks_b, n_b) = red, blue
    p_r = optomech.scattering_probability("red", e_red, config.g0, config.cavity, config.mode)
    p_b = optomech.scattering_probability("blue", e_blue, config.g0, config.cavity, config.mode)
    n_th, err = optomech.occupation_from_counts(clicks_r, n_r, p_r, clicks_b, n_b, p_b,
                                                config.detection.eta_det)
    n_c = cavity.intracavity_photons(e_red / duration, config.mode.f_m, config.cavity,
                                     config.cavity.f_c - config.mode.f_m)
    coop = optomech.cooperativity(config.g0, n_c, config.cavity, config.mode)
    return [p_r, p_b, n_th, err, coop]


def cmd_thermometry(args) -> int:
    config, chash = _load(args)
    out = _out_dir(args)
    _, names, columns = read_table(args.counts, {"side": SIDES, "clicks": np.int64,
                                                 "n_pulses": np.int64})
    table = dict(zip(names, columns))
    required = {"side", "pulse_energy_j", "clicks", "n_pulses"}
    if not required.issubset(table):
        raise ConfigError(f"{args.counts}: counts file must have columns {sorted(required)}")
    energy, clicks, n_pulses = (table[name] for name in ("pulse_energy_j", "clicks", "n_pulses"))
    # a threshold detector clicks at most once per pulse
    for name, bad, rule in (("pulse_energy_j", energy <= 0, "> 0"),
                            ("clicks", clicks < 0, ">= 0"),
                            ("n_pulses", n_pulses < 1, ">= 1"),
                            ("clicks", clicks > n_pulses, "<= n_pulses")):
        if bad.any():  # the row as written: read_table skips comment and blank lines
            row = [line for line in Path(args.counts).read_text(encoding="utf-8").splitlines()
                   if line.strip() and not line.startswith("#")][1 + np.argmax(bad)]
            raise ConfigError(f"{args.counts}: row {row!r}: {name} must be {rule}")
    red_rows, blue_rows = (np.flatnonzero(table["side"] == k).tolist() for k in (0, 1))
    if not red_rows or not blue_rows:
        raise ConfigError(f"{args.counts}: counts file needs both red and blue rows")
    if len(red_rows) != len(blue_rows):
        raise ConfigError(f"{args.counts}: counts file has {len(red_rows)} red and "
                          f"{len(blue_rows)} blue rows; they must pair up")
    counts = list(zip(energy.tolist(), clicks.tolist(), n_pulses.tolist()))
    duration = sim.read_pulse_duration(config.sequence)
    results = [_asymmetry_point(config, duration, counts[red], counts[blue])
               for red, blue in zip(red_rows, blue_rows)]
    write_table(out / "thermometry.csv", [_header(chash, None)],
                ["p_s_read", "p_s_write", "n_th", "n_th_err", "cooperativity"],
                np.array(results).T)
    print(f"thermometry: {len(results)} asymmetry points -> {out / 'thermometry.csv'}")
    return EXIT_OK


def _write_heating(config: ExperimentConfig, path: Path, header: str, ps_values: list[float],
                   taus: np.ndarray) -> None:
    """Heating curves n_th(tau), one per scattering probability, to ``path``."""
    if not ps_values:
        raise ConfigError("no scattering probabilities: none given and no calibration table")
    n_th = [config.mode.n_baseline + dynamics.heating_occupation(taus, config.mode.heating, p_s)
            for p_s in ps_values]
    write_table(path, [header], ["p_s", "tau_s", "n_th"],
                [np.repeat(ps_values, len(taus)), np.tile(taus, len(ps_values)),
                 np.concatenate(n_th)])


def cmd_heating(args) -> int:
    config, chash = _load(args)
    out = _out_dir(args)
    ps_values = args.ps or [row[0] for row in config.mode.heating.calibration]
    _write_heating(config, out / "heating_curves.csv", _header(chash, None), ps_values,
                   np.geomspace(args.tmin, args.tmax, args.points))
    print(f"heating: {len(ps_values)} curves -> {out / 'heating_curves.csv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config, chash = _load(args)
    if args.sequences is not None:
        config = dataclasses.replace(config, sequence=dataclasses.replace(
            config.sequence, n_sequences=args.sequences))
    batch, report = sim.simulate(config, args.seed, blind=args.blind)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    sim.write_records(batch, out_path, header_lines=[_header(chash, args.seed)])
    report_path = out_path.with_suffix(".report.json")
    _write_json(report_path, _header(chash, args.seed), dataclasses.asdict(report))
    print(f"simulate: {len(batch)} clicks over {report.n_sequences} sequences -> {out_path}")
    return EXIT_OK


def _dn_estimates(batch: sim.RecordBatch, dns) -> list[stats.G2Estimate]:
    """g2 at each offset in ``dns`` that has one; says which offsets it skips."""
    estimates = []
    for dn in dns:
        try:
            estimates.append(stats.g2_crosscorr(batch, dn))
        except stats.UndefinedEstimateError as exc:
            print(exc)
    return estimates


def _estimate_json(estimate: stats.G2Estimate) -> dict:
    """One g2 estimate as ``g2 --out`` and ``fig3b_g2.json`` write it; ``counts``
    is [n_coinc, n_write, n_read, n_pairs]."""
    return {"delta_n": estimate.delta_n, "g2": estimate.value, "ci_low": estimate.ci_low,
            "ci_high": estimate.ci_high, "counts": list(estimate.counts)}


def cmd_g2(args) -> int:
    if bool(args.config) != args.oracle:
        raise ConfigError("g2 --oracle needs --config, and g2 --records takes none")
    if args.oracle:
        config, chash = _load(args)
        model = sim.g2_model(config)
        if model is None:
            raise ConfigError("g2 --oracle: config has no write/read pulse pair")
        if args.out:
            w, r = model.pair
            _write_json(Path(args.out), _header(chash, None), {
                "oracle_g2": model.oracle_g2, "predicted_g2": model.predicted_g2,
                "n_th": model.occupations[w], "eta_det": model.eta_det,
                "p_write": model.p_s[w], "p_read": model.p_s[r],
                "dark_write": model.darks[w], "dark_read": model.darks[r]})
        print(f"g2 ideal (dark counts only): {model.oracle_g2:.3f}")
        print(f"g2 full model (dark counts, pump leakage, heating): {model.predicted_g2:.3f}")
        return EXIT_OK

    batch = sim.read_records(args.records)
    estimates = _dn_estimates(batch, args.dn_range)
    if not estimates:
        raise stats.UndefinedEstimateError(f"g2 undefined at every dn in "
                                           f"{args.dn_range[0]}..{args.dn_range[-1]}")
    if args.out:
        _write_json(Path(args.out), _header(_file_hash(args.records), None),
                    {"estimates": [_estimate_json(e) for e in estimates]})
    for e in estimates:
        print(f"g2(dn={e.delta_n:+d}) = {e.value:.3f}  CI68 [{e.ci_low:.3f}, {e.ci_high:.3f}]")
    return EXIT_OK


_FITTERS = {
    "lorentzian": stats.fit_lorentzian_with_offset,
    "biexp": stats.fit_biexponential,
    "linear": stats.fit_linear,
}


def cmd_fit(args) -> int:
    columns = read_table(args.data)[2]
    if len(columns) < 2:
        raise ConfigError(f"{args.data}: needs x and y columns, has {len(columns)}")
    result = _FITTERS[args.model](np.column_stack(columns[:2]))
    payload = dataclasses.asdict(result)
    if args.out:
        _write_json(Path(args.out), _header(_file_hash(args.data), None), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not result.converged:
        raise stats.UndefinedEstimateError(f"{args.model} fit did not converge")
    return EXIT_OK


def _write_budget(config: ExperimentConfig, header: str, out: Path,
                  qs: np.ndarray) -> transducer.ConversionBudget:
    """``budget.json`` at the configured Q and ``noise_vs_q.csv`` over ``qs``."""
    if config.piezo is None:
        raise ConfigError("budget: config has no piezo.* section")
    budget = transducer.conversion_budget(config.piezo)
    _write_json(out / "budget.json", header, {
        "k_eff2": budget.k_eff2,
        "k_eff2_reduced": budget.k_eff2_reduced,
        "c_em": budget.c_em,
        "q_uw": budget.q_uw,
        "added_noise_photons": budget.added_noise,
        "impedance_ohm": budget.impedance,
    })
    points = [transducer.conversion_budget(dataclasses.replace(config.piezo, q_uw=q))
              for q in qs]
    write_table(out / "noise_vs_q.csv", [header], ["q_uw", "c_em", "added_noise"],
                [qs, np.array([p.c_em for p in points]),
                 np.array([p.added_noise for p in points])])
    return budget


def cmd_budget(args) -> int:
    config, chash = _load(args)
    out = _out_dir(args)
    budget = _write_budget(config, _header(chash, None), out,
                           np.geomspace(args.q_min, args.q_max, args.q_points))
    print(f"budget: N={budget.added_noise:.4f} photons at C_em={budget.c_em:.2f} "
          f"-> {out / 'budget.json'}")
    return EXIT_OK


# --- figure reproduction pipelines -------------------------------------------------


def _reproduce_fig1b(config, chash, out, args):
    header = _header(chash, None)
    spectrum = cavity.reflection_spectrum(config.cavity, span=3.0, n_points=601)
    grid, power = spectrum[:, 0], spectrum[:, 1]
    fit = stats.fit_lorentzian_with_offset(spectrum[:, :2])
    write_table(out / "fig1b_reflection.csv", [header],
                ["detuning_hz", "power_reflectance"], [grid, power])
    _write_json(out / "fig1b_fit.json", header, {
        "kappa_fit_hz": fit.params["fwhm"],
        "kappa_true_hz": config.cavity.kappa,
        "converged": fit.converged,
    })


def _reproduce_fig1c(config, chash, out, args):
    header = _header(chash, None)
    mode = config.mode
    grid = np.linspace(mode.f_m - 40 * mode.gamma_m, mode.f_m + 40 * mode.gamma_m, 801)
    psd = dynamics.mechanical_psd(grid, mode, mode.n_baseline)
    fit = stats.fit_lorentzian_with_offset(np.column_stack([grid, psd]))
    _write_json(out / "fig1c_fit.json", header, {
        "gamma_m_fit_hz": fit.params["fwhm"],
        "gamma_m_true_hz": mode.gamma_m,
        "q_factor": mode.f_m / fit.params["fwhm"] if fit.params["fwhm"] else None,
        "converged": fit.converged,
    })
    write_table(out / "fig1c_psd.csv", [header], ["frequency_hz", "psd"], [grid, psd])


def _reproduce_fig2(config, chash, out, args):
    header = _header(chash, args.seed)
    n_seq = args.sequences or 2_000_000
    ps_grid = np.geomspace(0.004, 0.05, 6)

    def counts(side, p_s, seed):
        # (energy at the device, signal + dark clicks, pulses) and the true n_th of one run
        run = sim.single_pulse_config(config, side, p_s, n_seq)
        _, report = sim.simulate(run, seed)
        totals = report.pulse_totals[0]
        energy = sim.pulse_energy_at_device(run.sequence.pulses[0], config.detection.eta_fc)
        return (energy, totals["signal"] + totals["dark"], n_seq), report.pulse_occupations[0]

    def point(item):
        i, p_s = item
        red, n_th_true = counts("red", p_s, args.seed + 2 * i)
        blue, _ = counts("blue", p_s, args.seed + 2 * i + 1)
        _, _, n_th, err, coop = _asymmetry_point(config, sim.PULSE_DURATION, red, blue)
        return [float(p_s), n_th, err, coop, n_th_true]

    rows = _pmap(point, list(enumerate(ps_grid)), args.threads)
    write_table(out / "fig2_thermometry.csv", [header],
                ["p_s", "n_th_est", "n_th_err", "cooperativity", "n_th_true"],
                np.array(rows).T)


def _reproduce_fig3a(config, chash, out, args):
    _write_heating(config, out / "fig3a_heating.csv", _header(chash, None),
                   [row[0] for row in config.mode.heating.calibration],
                   np.geomspace(2e-8, 1e-4, 240))


def _reproduce_fig3b(config, chash, out, args):
    header = _header(chash, args.seed)
    n_seq = args.sequences or config.sequence.n_sequences or 1_000_000
    run_cfg = dataclasses.replace(config, sequence=dataclasses.replace(
        config.sequence, n_sequences=n_seq))
    model = sim.g2_model(run_cfg)
    batch, _ = sim.simulate(run_cfg, args.seed)
    estimates = [_estimate_json(e) for e in _dn_estimates(batch, range(-4, 5))]
    _write_json(out / "fig3b_g2.json", header,
                {"estimates": estimates,
                 "oracle_g2": None if model is None else model.oracle_g2,
                 "predicted_g2": None if model is None else model.predicted_g2,
                 "n_sequences": n_seq})


def _reproduce_figs1(config, chash, out, args):
    header = _header(chash, None)
    powers_uw = np.geomspace(0.005, 1.0, 10)
    energies = powers_uw * 1e-6 * sim.PULSE_DURATION * config.detection.eta_fc
    p_s = np.array([optomech.scattering_probability("red", energy, config.g0, config.cavity,
                                                    config.mode) for energy in energies])
    fit = stats.fit_linear(np.column_stack([powers_uw, p_s]))
    write_table(out / "figs1_calibration.csv", [header], ["peak_power_uw", "p_s"],
                [powers_uw, p_s])
    # g0 from the red exponent -log(1 - p_s), which is exactly linear in pulse
    # energy; p_s itself saturates and would put g0 low
    exponents = [-math.log1p(-p) for p in p_s]
    g0, g0_err = optomech.g0_from_calibration(np.column_stack([energies, exponents]),
                                              config.cavity, config.mode)
    _write_json(out / "figs1_fit.json", header, {
        "slope_per_uw": fit.params["slope"],
        "g0_hz": g0, "g0_err_hz": g0_err, "g0_true_hz": config.g0,
    })


def _reproduce_budget(config, chash, out, args):
    _write_budget(config, _header(chash, None), out, np.geomspace(20.0, 2000.0, 40))


_REPRODUCE = {
    "fig1b": _reproduce_fig1b,
    "fig1c": _reproduce_fig1c,
    "fig2": _reproduce_fig2,
    "fig3a": _reproduce_fig3a,
    "fig3b": _reproduce_fig3b,
    "figs1": _reproduce_figs1,
    "budget": _reproduce_budget,
}


def cmd_reproduce(args) -> int:
    config, chash = _load(args)
    out = _out_dir(args)
    targets = list(_REPRODUCE) if args.figure == "all" else [args.figure]
    for target in targets:
        _REPRODUCE[target](config, chash, out, args)
        print(f"reproduce {target}: artifacts in {out}")
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------------


def _flag_type(expected: str, parse, valid):
    """argparse type: ``parse(text)`` if it parses and the value is ``valid``;
    otherwise the flag's error reads "expected <expected>, got <text>"."""
    def checked(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return checked


def _dn_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi) + 1)


_POSITIVE = _flag_type("a finite number > 0", float, lambda x: 0 < x < math.inf)
_COUNT = _flag_type("an integer >= 0", int, lambda n: n >= 0)
_AT_LEAST_ONE = _flag_type("an integer >= 1", int, lambda n: n >= 1)
_SEED = _flag_type("a non-negative 63-bit integer", int, lambda n: 0 <= n < 2**63)
_DN_RANGE = _flag_type("LO..HI with integers LO <= HI", _dn_range, len)
_P_S_LIST = _flag_type(
    f"comma-separated scattering probabilities in [0, {optomech.P_S_VALIDITY_CEILING}]",
    lambda text: [float(x) for x in text.split(",")],
    lambda values: all(0 <= p <= optomech.P_S_VALIDITY_CEILING for p in values))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omclab",
                                     description="pulsed optomechanics toolkit")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker pool size for parallel grids")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("cavity-probe", cmd_cavity_probe, help="reflection spectrum and coupling report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--span", type=_POSITIVE, default=4.0, help="sweep span in units of kappa")
    p.add_argument("--points", type=_COUNT, default=801)

    p = add("thermometry", cmd_thermometry, help="occupation and cooperativity from counts")
    p.add_argument("--config", required=True)
    p.add_argument("--counts", required=True, help="CSV: side,pulse_energy_j,clicks,n_pulses")
    p.add_argument("--out", default="out")

    p = add("heating", cmd_heating, help="heating response curves")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--ps", type=_P_S_LIST, help="comma-separated p_s values in [0, 0.5]")
    p.add_argument("--tmin", type=_POSITIVE, default=2e-8)
    p.add_argument("--tmax", type=_POSITIVE, default=1e-4)
    p.add_argument("--points", type=_COUNT, default=240)

    p = add("simulate", cmd_simulate, help="Monte Carlo click generation")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True, help="record file path (.npz)")
    p.add_argument("--sequences", type=int, default=None)
    p.add_argument("--blind", action="store_true", help="suppress the origin column")

    p = add("g2", cmd_g2, help="cross-correlation estimates or the exact oracle")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--records", default=None)
    mode.add_argument("--oracle", action="store_true")
    p.add_argument("--dn-range", type=_DN_RANGE, default="-4..4")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)

    p = add("fit", cmd_fit, help="least-squares model fits")
    p.add_argument("--model", required=True, choices=_FITTERS)
    p.add_argument("--data", required=True, help="CSV with x,y columns")
    p.add_argument("--out", default=None)

    p = add("budget", cmd_budget, help="microwave-to-optics conversion budget")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--q-min", type=_POSITIVE, default=20.0)
    p.add_argument("--q-max", type=_POSITIVE, default=2000.0)
    p.add_argument("--q-points", type=_COUNT, default=40)

    p = add("reproduce", cmd_reproduce, help="scripted figure pipelines")
    p.add_argument("figure", choices=[*_REPRODUCE, "all"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--sequences", type=_AT_LEAST_ONE, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"omclab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # e.g. --sequences far beyond what a run can hold
        print(f"omclab: configuration error: the run does not fit in memory: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"omclab: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"omclab: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
