"""Run one omclab benchmark workload in this process and write its result.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned to
one thread.  The loop is closed: one operation at a time, no concurrency.
Each operation times only its calls into omclab (``time.perf_counter``); its
output checks run afterwards, outside the timed interval, and a failed check
or an exception fails the operation.  The workload seed fixes the inputs and
every operation derives its own seed from it.  With ``--setup-probes N``,
N set-up probes (``setup_probe.py`` in a fresh process, each just after a
reference probe) run between operations, spread evenly through the run.

With ``--reference 1`` the workload's reference kernel (``reference.py``)
runs just before every operation and its time is recorded beside the op's.

With ``--trace 1`` untraced and traced operations alternate; the traced ones
record spans (see ``spans.py``) that give the per-layer metrics; the median
of (traced op - the untraced op before it) is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import poisson

import omclab
from omclab import cli, core, fock, optomech, sim, stats

import reference
from spans import MODULES, Tracer

DN_RANGE = range(-4, 5)
# per-layer counts derived from sizes or layouts rather than measured
COMPUTED = ("fock.dim", "sim.uniforms_per_seq", "stats.g2_mask_bytes")
FIVE_SIGMA_TAIL = 2.87e-7  # one-sided normal tail beyond 5 sigma
HEADER_PREFIX = "# omclab "
REPRODUCE_ARTIFACTS = (
    "fig1b_reflection.csv", "fig1b_fit.json", "fig1c_fit.json", "fig1c_psd.csv",
    "fig2_thermometry.csv", "fig3a_heating.csv", "fig3b_g2.json",
    "figs1_calibration.csv", "figs1_fit.json", "budget.json", "noise_vs_q.csv",
)


PROBE_TIMEOUT_S = 60


def setup_seconds(config: Path | None, src: Path) -> float:
    """Fresh process to 'imported omclab.cli and loaded the config', or with
    ``config=None`` to 'imported the reference modules'.

    The probe prints ``time.monotonic()`` (CLOCK_MONOTONIC, shared by all
    processes) once ready, so process teardown is not counted.
    """
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                             "--reference" if config is None else str(config)],
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("set-up probe timed out")
    fields = out.strip().split(" ", 2)
    if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    if config is not None and not Path(fields[2]).resolve().is_relative_to(src):
        raise RuntimeError(f"set-up probe imported omclab from {fields[2]}, not from {src}")
    return float(fields[1]) - start


def setup_pair(config: Path, src: Path) -> dict:
    """A reference set-up probe, then the set-up probe just after it."""
    reference_s = setup_seconds(None, src)
    return {"seconds": setup_seconds(config, src), "reference_s": reference_s}


def op_seed(seed: int, k: int) -> int:
    """Seed of operation k, derived from the workload seed (31 bits)."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0] >> 1)


def dark_probability(pulse, config) -> float:
    return -math.expm1(-config.detection.dark_rate * pulse.window_length)


def pair_indices(config) -> tuple[int, int]:
    labels = [p.label for p in config.sequence.pulses]
    return labels.index("write"), labels.index("read")


def within_sigma(observed: float, expected: float, sigma: float, k: float = 5.0) -> bool:
    return abs(observed - expected) <= k * sigma


def g2_sigma(estimate) -> float:
    """One standard deviation from the 68% likelihood interval."""
    return (estimate.ci_high - estimate.ci_low) / 2.0


def gaussian_click_table(n: float, p_write: float, p_read: float, eta: float):
    """Closed-form threshold-click table of the write/read pair on a thermal
    mode (both pulses are Gaussian operations): returns (p_w, p_r, p00, p11).

    a = eta p_w (n+1), b = eta p_r ((1+p_w) n + p_w), c = eta^2 p_r p_w (1+p_w) (n+1)^2;
    P(no write) = 1/(1+a), P(no read) = 1/(1+b), p00 = 1/((1+a)(1+b) - c), and
    p11 = (ab(1+a)(1+b) + c(1-ab)) / ((1+a)(1+b)((1+a)(1+b) - c)), a form
    without cancellation for ab < 1.
    """
    a = eta * p_write * (n + 1)
    b = eta * p_read * ((1 + p_write) * n + p_write)
    c = eta**2 * p_read * p_write * (1 + p_write) * (n + 1) ** 2
    ab1 = (1 + a) * (1 + b)
    det = ab1 - c
    p11 = (a * b * ab1 + c * (1 - a * b)) / (ab1 * det)
    return a / (1 + a), b / (1 + b), 1 / det, p11


def gaussian_g2(n, p_write, p_read, eta, q_w, q_r) -> float:
    """Closed-form oracle_g2 with independent dark clicks in each window."""
    p_w, p_r, p00, p11 = gaussian_click_table(n, p_write, p_read, eta)
    p10, p01 = p_w - p11, p_r - p11
    tot_w = 1 - (1 - p_w) * (1 - q_w)
    tot_r = 1 - (1 - p_r) * (1 - q_r)
    p_wr = p11 + p10 * q_r + p01 * q_w + p00 * q_w * q_r
    return p_wr / (tot_w * tot_r)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


class Workload:
    """One benchmark workload: inputs from the seed, a timed op, its checks."""

    name = ""
    unit = ""  # the count that work_per_s divides by op time

    def __init__(self, config_path: Path, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.config_path = config_path
        self.config = core.load_config(config_path)
        self.notes: dict = {}

    def warm_up(self) -> list[str]:
        """Untimed first pass that fills caches; returns failed checks."""
        payload = self.op(op_seed(self.seed, 10**6))
        return self.check(payload)

    def op(self, seed: int) -> dict:
        """Runs one operation; returns a payload with 'seconds' and 'counts'."""
        raise NotImplementedError

    def reference(self, seed: int) -> float:
        """Runs the workload's reference kernel; returns its seconds."""
        raise NotImplementedError

    def check(self, payload: dict) -> list[str]:
        raise NotImplementedError


class DenseAnalysis(Workload):
    """High-rate config: simulate, write and read the record CSV, recover pulse
    indices, g2 for dn = -4..4."""

    name = "dense_analysis"
    unit = "clicks"

    def __init__(self, *args):
        super().__init__(*args)
        self.pair = pair_indices(self.config)
        self.darks = tuple(dark_probability(p, self.config) for p in self.config.sequence.pulses)
        self.csv_path = self.work_dir / "records.csv"

    def op(self, seed: int) -> dict:
        config = self.config
        start = time.perf_counter()
        batch, report = sim.simulate(config, seed)
        sim.write_records_csv(batch, self.csv_path)
        back = sim.read_records_csv(self.csv_path)
        back = sim.assign_pulse_indices(back, config.sequence)
        estimates = [stats.g2_crosscorr(back, dn) for dn in DN_RANGE]
        seconds = time.perf_counter() - start
        return {"seconds": seconds,
                "counts": {"sequences": report.n_sequences, "clicks": len(batch)},
                "batch": batch, "back": back, "report": report, "estimates": estimates,
                "csv_bytes": self.csv_path.stat().st_size}

    def reference(self, seed: int) -> float:
        return reference.dense(seed, self.work_dir / "reference.csv")

    def check(self, payload: dict) -> list[str]:
        failures = []
        batch, back, report = payload["batch"], payload["back"], payload["report"]
        self.csv_path.unlink(missing_ok=True)
        for column in ("sequence_index", "pulse_index", "pulse_label", "origin"):
            if not np.array_equal(getattr(batch, column), getattr(back, column)):
                failures.append(f"CSV round trip changed {column}")
        if len(batch) == len(back):
            dt = float(np.max(np.abs(batch.click_time - back.click_time), initial=0.0))
            if dt > 1e-15:
                failures.append(f"CSV round trip moved a click time by {dt:.3g} s")
        w, r = self.pair
        oracle = fock.oracle_g2(report.pulse_occupations[w], report.pulse_ps[w],
                                report.pulse_ps[r], self.config.detection.eta_det,
                                (self.darks[w], self.darks[r]))
        for e in payload["estimates"]:
            expected = oracle if e.delta_n == 0 else 1.0
            if not within_sigma(e.value, expected, g2_sigma(e)):
                failures.append(f"g2(dn={e.delta_n}) = {e.value:.4f} +- {g2_sigma(e):.4f} "
                                f"is not within 5 sigma of {expected:.4f}")
        g2_0 = next(e for e in payload["estimates"] if e.delta_n == 0)
        self.notes["g2_0"] = {"estimate": g2_0.value, "sigma": g2_sigma(g2_0), "oracle": oracle}
        self.notes["clicks_per_seq"] = len(batch) / report.n_sequences
        self.notes["csv_bytes_per_click"] = payload["csv_bytes"] / max(len(batch), 1)
        return failures


class ReproduceAll(Workload):
    """The user's config-to-figures job through the CLI: ``reproduce all``,
    then a biexponential fit of the p_s = 0.05 heating curve."""

    name = "reproduce_all"
    unit = "jobs"
    fit_p_s = 0.05

    def __init__(self, *args):
        super().__init__(*args)
        self.counter = 0

    def op(self, seed: int) -> dict:
        self.counter += 1
        out = self.work_dir / f"reproduce-{self.counter}"
        config = str(self.config_path)
        start = time.perf_counter()
        code_reproduce = cli.main(["reproduce", "all", "--config", config,
                                   "--out", str(out), "--seed", str(seed)])
        seconds = time.perf_counter() - start
        fit_input = out / "fit_input.csv"
        if code_reproduce == 0:
            rows = ["tau_s,n_th"]
            for line in (out / "fig3a_heating.csv").read_text().splitlines()[2:]:
                p_s, tau, n_th = line.split(",")
                if abs(float(p_s) - self.fit_p_s) < 1e-12:
                    rows.append(f"{tau},{n_th}")
            fit_input.write_text("\n".join(rows) + "\n")
        start = time.perf_counter()
        code_fit = cli.main(["fit", "--model", "biexp", "--data", str(fit_input),
                             "--out", str(out / "fit_biexp.json")])
        seconds += time.perf_counter() - start
        return {"seconds": seconds, "counts": {"jobs": 1}, "out": out,
                "codes": (code_reproduce, code_fit)}

    def reference(self, seed: int) -> float:
        return reference.reproduce(seed)

    def check(self, payload: dict) -> list[str]:
        out = payload["out"]
        try:
            return self._check(out, payload["codes"])
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, codes) -> list[str]:
        failures = []
        if codes != (0, 0):
            return [f"CLI exit codes {codes} (reproduce, fit), expected (0, 0)"]
        for artifact in REPRODUCE_ARTIFACTS:
            path = out / artifact
            if not path.is_file():
                failures.append(f"missing artifact {artifact}")
            elif not path.read_text().startswith(HEADER_PREFIX):
                failures.append(f"{artifact} lacks the provenance header")
        if failures:
            return failures
        read = cli.read_artifact_json
        for artifact in ("fig1b_fit.json", "fig1c_fit.json"):
            if read(out / artifact)["converged"] is not True:
                failures.append(f"{artifact}: fit did not converge")
        fit = read(out / "fit_biexp.json")
        heating = self.config.mode.heating
        if fit["converged"] is not True:
            failures.append("biexp fit did not converge")
        for name, true in (("tau_rise", heating.tau_rise), ("tau_decay", heating.tau_decay)):
            if rel_err(fit["params"][name], true) > 0.01:
                failures.append(f"biexp {name} = {fit['params'][name]:.4g} is not within "
                                f"1% of {true:.4g}")

        # known defect: figs1's linear fit of saturating data puts g0 0.56% low,
        # about 10x its own stated error; gated at that accuracy
        figs1 = read(out / "figs1_fit.json")
        g0_err = rel_err(figs1["g0_hz"], figs1["g0_true_hz"])
        self.notes["figs1_g0_rel_err"] = g0_err
        self.notes["figs1_g0_err_over_stated"] = (abs(figs1["g0_hz"] - figs1["g0_true_hz"])
                                                  / figs1["g0_err_hz"])
        if g0_err > 0.006:
            failures.append(f"figs1 g0 is {g0_err:.2%} off, beyond the 0.6% gate")

        # known defect: at 1e6 sequences fig3b sees ~0.03 expected coincidences,
        # so g2(0) is 0 with a CI of hundreds; checked only for consistency
        fig3b = read(out / "fig3b_g2.json")
        zero = next((e for e in fig3b["estimates"] if e["delta_n"] == 0), None)
        if zero is None:
            failures.append("fig3b has no dn=0 estimate")
        else:
            n_c, n_w, n_r, n_pairs = zero["counts"]
            lam = fig3b["oracle_g2"] * n_w * n_r / n_pairs
            p_low, p_high = poisson.cdf(n_c, lam), poisson.sf(n_c - 1, lam)
            if min(p_low, p_high) < FIVE_SIGMA_TAIL:
                failures.append(f"fig3b: {n_c} coincidences vs {lam:.3g} expected "
                                "from the oracle")
            self.notes["fig3b_dn0"] = {"n_coinc": n_c, "g2": zero["g2"],
                                       "ci": [zero["ci_low"], zero["ci_high"]],
                                       "oracle_g2": fig3b["oracle_g2"],
                                       "expected_coinc": lam}
        return failures


class OracleSweep(Workload):
    """fock.oracle_g2 over n_th x p_read at the published p_write, eta and darks;
    the seed perturbs p_write and p_read by up to 2%."""

    name = "oracle_sweep"
    unit = "oracle_evals"
    n_grid = (0.041, 0.1, 0.3, 1.0, 3.0, 10.0)
    p_read_grid = (0.02, 0.2)
    n_beyond = 30.0  # past the Fock truncation cap

    def __init__(self, *args):
        super().__init__(*args)
        config = self.config
        write = config.sequence.pulses[pair_indices(config)[0]]
        rng = np.random.default_rng(self.seed)
        energy = sim.pulse_energy_at_device(write, config.detection.eta_fc)
        p_write = optomech.scattering_probability("blue", energy, config.g0,
                                                  config.cavity, config.mode)
        self.eta = config.detection.eta_det
        self.darks = tuple(dark_probability(p, config) for p in config.sequence.pulses)
        self.points = [(n, p_write * (1 + rng.uniform(-0.02, 0.02)),
                        p_read * (1 + rng.uniform(-0.02, 0.02)))
                       for p_read in self.p_read_grid for n in self.n_grid]

    def warm_up(self) -> list[str]:
        """Checks the click table itself at every point (too slow to repeat per op)."""
        failures = []
        for n, p_w, p_r in self.points:
            table = fock.two_pulse_click_table(n, p_w, p_r, self.eta)
            ref = gaussian_click_table(n, p_w, p_r, self.eta)
            for name, value, expected in (("p_write", table.p_write, ref[0]),
                                          ("p_read", table.p_read, ref[1]),
                                          ("p11", table.p11, ref[3])):
                if rel_err(value, expected) > 1e-5:
                    failures.append(f"n_th={n}: {name} {value:.8g} vs closed form "
                                    f"{expected:.8g}")
        # known defect: the Fock oracle refuses n_th beyond about 20
        try:
            value = fock.oracle_g2(self.n_beyond, *self.points[0][1:], self.eta, self.darks)
        except fock.TruncationError as exc:
            self.notes["truncation_at_n30"] = str(exc)
        else:
            expected = gaussian_g2(self.n_beyond, *self.points[0][1:], self.eta, *self.darks)
            if rel_err(value, expected) > 1e-5:
                failures.append(f"n_th={self.n_beyond}: g2 {value:.8g} vs {expected:.8g}")
        return failures

    def op(self, seed: int) -> dict:
        start = time.perf_counter()
        values = [fock.oracle_g2(n, p_w, p_r, self.eta, self.darks)
                  for n, p_w, p_r in self.points]
        seconds = time.perf_counter() - start
        return {"seconds": seconds, "counts": {"oracle_evals": len(values)}, "values": values}

    def reference(self, seed: int) -> float:
        return reference.oracle(seed)

    def check(self, payload: dict) -> list[str]:
        failures = []
        worst = 0.0
        for (n, p_w, p_r), value in zip(self.points, payload["values"]):
            err = rel_err(value, gaussian_g2(n, p_w, p_r, self.eta, *self.darks))
            worst = max(worst, err)
            if err > 1e-5:
                failures.append(f"oracle_g2 at n_th={n}, p_read={p_r:.4g} is {err:.2g} "
                                "off the closed form")
        self.notes["max_rel_err_vs_closed_form"] = worst
        return failures


WORKLOADS = {w.name: w for w in (DenseAnalysis, ReproduceAll, OracleSweep)}


# --- per-layer metrics from the traced operations --------------------------------


def _sum(spans, key):
    return sum(s.counts.get(key, 0) for s in spans)


def layer_metrics(spans, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; a layer the workload never calls reads 0.

    Per-call figures use every span, including the config load before the
    first operation; per-op sums use the spans of traced operations only.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def mean_duration(name, scale):
        calls = by_name.get(name, [])
        return sum(s.duration_ns for s in calls) / len(calls) / scale if calls else 0.0

    def mean_count(name, key):
        calls = by_name.get(name, [])
        return _sum(calls, key) / len(calls) if calls else 0.0

    def per_unit(name, key, scale):
        calls = by_name.get(name, [])
        units = _sum(calls, key)
        return sum(s.duration_ns for s in calls) / units / scale if units else 0.0

    def ratio(name, num, den):
        calls = by_name.get(name, [])
        total = _sum(calls, den)
        return _sum(calls, num) / total if total else 0.0

    m = {
        "core.load_config_ms": (mean_duration("core.load_config", 1e6), "ms"),
        "fock.two_pulse_click_table_ms": (mean_duration("fock.two_pulse_click_table", 1e6), "ms"),
        "fock.oracle_g2_ms": (mean_duration("fock.oracle_g2", 1e6), "ms"),
        "fock.dim": (max((s.counts.get("dim", 0) for s in by_name.get(
            "fock.two_pulse_click_table", [])), default=0), "count"),
        "sim.simulate_ns_per_seq": (per_unit("sim.simulate", "sequences", 1), "ns"),
        "sim.clicks_per_seq": (ratio("sim.simulate", "clicks", "sequences"), "clicks/seq"),
        "sim.uniforms_per_seq": (ratio("sim.simulate", "uniforms", "sequences"), "draws/seq"),
        "sim.write_records_csv_us_per_click": (per_unit("sim.write_records_csv", "clicks", 1e3), "us"),
        "sim.read_records_csv_us_per_click": (per_unit("sim.read_records_csv", "clicks", 1e3), "us"),
        "sim.csv_bytes_per_click": (ratio("sim.write_records_csv", "bytes", "clicks"), "B"),
        "sim.assign_pulse_indices_us_per_click": (per_unit("sim.assign_pulse_indices", "clicks",
                                                           1e3), "us"),
        "stats.g2_crosscorr_ms": (mean_duration("stats.g2_crosscorr", 1e6), "ms"),
        "stats.g2_mask_bytes": (mean_count("stats.g2_crosscorr", "mask_bytes"), "B"),
        "stats.coincidence_ci_us": (mean_duration("stats.coincidence_ci", 1e3), "us"),
        "stats.fit_lorentzian_with_offset_ms": (mean_duration("stats.fit_lorentzian_with_offset",
                                                              1e6), "ms"),
        "stats.fit_linear_ms": (mean_duration("stats.fit_linear", 1e6), "ms"),
        "stats.fit_biexponential_ms": (mean_duration("stats.fit_biexponential", 1e6), "ms"),
    }
    for figure in cli._REPRODUCE:
        m[f"cli.reproduce.{figure}_s"] = (mean_duration(f"cli.reproduce.{figure}", 1e9), "s")
    m["cli.fit_biexp_s"] = (mean_duration("cli.cmd_fit", 1e9), "s")
    op_spans = [s for s in spans if s.op.startswith("op")]
    self_ns = defaultdict(int)
    for s in op_spans:
        self_ns[s.name.split(".", 1)[0]] += s.self_ns
    for module in MODULES:
        m[f"{module}.self_ms_per_op"] = (self_ns[module] / 1e6 / max(n_ops, 1), "ms")
    m["trace.spans_per_op"] = (len(op_spans) / max(n_ops, 1), "count")
    return m


# --- main loop ---------------------------------------------------------------------


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "omclab": omclab.__version__,
        "blas": blas,
    }


def run(args) -> dict:
    work_dir = Path(args.work_dir)
    src = Path(args.root) / "src"
    if not Path(omclab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"omclab imported from {omclab.__file__}, not from {src}")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install("setup")  # traces the config load
    try:
        workload = WORKLOADS[args.workload](Path(args.config), args.seed, work_dir)
    finally:
        if tracer is not None:
            tracer.remove()

    warm_failures = []
    try:
        warm_failures = workload.warm_up()
    except Exception:
        traceback.print_exc()
        warm_failures = ["warm-up raised " + traceback.format_exc(limit=1).strip()]
    # read before any reference kernel runs, so that the kernels' memory
    # never stands in for the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.reference:
        workload.reference(op_seed(args.seed, 10**6 + 2))  # warm-up

    ops = []
    setup = []
    deadline = args.seconds
    begin = time.perf_counter()
    k = 0
    while True:
        # set-up probe j runs before the first op that starts past j/N of the run
        if len(setup) < args.setup_probes and (
                time.perf_counter() - begin >= len(setup) * deadline / args.setup_probes):
            setup.append(setup_pair(Path(args.config), src))
        traced = tracer is not None and k % 2 == 1
        seed = op_seed(args.seed, k)
        ref_seconds = workload.reference(seed) if args.reference else None
        if traced:
            tracer.install(f"op{k}")
        try:
            payload = workload.op(seed)
        except Exception:
            payload = None
            failures = ["op raised " + traceback.format_exc(limit=1).strip()]
            traceback.print_exc()
        finally:
            if traced:
                tracer.remove()
        if payload is not None:
            try:
                failures = workload.check(payload)
            except Exception:
                failures = ["check raised " + traceback.format_exc(limit=1).strip()]
                traceback.print_exc()
        for failure in failures:
            print(f"op {k} failed: {failure}", file=sys.stderr)
        ops.append({"seconds": payload["seconds"] if payload else None,
                    "reference_s": ref_seconds,
                    "counts": payload["counts"] if payload else {},
                    "traced": traced, "failures": failures})
        k += 1
        elapsed = time.perf_counter() - begin
        last = (payload["seconds"] if payload else 0.0) + (ref_seconds or 0.0)
        payload = None  # not held while the next kernel and op run
        need_traced = tracer is not None and not any(o["traced"] for o in ops)
        if not need_traced and elapsed + last > deadline:
            break
    while len(setup) < args.setup_probes:  # ops too long to fit them all in between
        setup.append(setup_pair(Path(args.config), src))

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "unit": workload.unit,
        "warm_up_failures": warm_failures,
        "ops": ops,
        "setup_s": setup,
        "notes": workload.notes,
        "peak_rss_mb": peak_rss_mb,
        "machine": machine_info(),
    }
    if tracer is not None:
        traced_ops = [o for o in ops if o["traced"]]
        per_layer = layer_metrics(tracer.finish(), len(traced_ops))
        # each traced op minus the untraced op just before it, so that drift
        # of the machine's speed between phases cancels
        pairs = [ops[k]["seconds"] - ops[k - 1]["seconds"] for k in range(1, len(ops), 2)
                 if ops[k]["seconds"] is not None and ops[k - 1]["seconds"] is not None]
        overhead = statistics.median(pairs) if pairs else 0.0
        per_layer["trace.overhead_s"] = (overhead, "s")
        per_layer["cli.reproduce.fig2_threads2_s"] = (
            threads2_fig2(tracer, workload) if workload.name == "reproduce_all" else 0.0, "s")
        result["per_layer"] = per_layer
        result["computed"] = COMPUTED
        tracer.write(Path(args.trace_out))
    return result


def threads2_fig2(tracer: Tracer, workload: Workload) -> float:
    """Traced ``--threads 2 reproduce fig2``: the datum for keeping --threads."""
    out = workload.work_dir / "threads2"
    first = len(tracer.spans)
    tracer.install("threads2")
    try:
        code = cli.main(["--threads", "2", "reproduce", "fig2", "--config",
                         str(workload.config_path), "--out", str(out),
                         "--seed", str(op_seed(workload.seed, 10**6 + 1))])
    finally:
        tracer.remove()
        shutil.rmtree(out, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"reproduce fig2 --threads 2 exited {code}")
    spans = [s for s in tracer.spans[first:] if s.name == "cli.reproduce.fig2"]
    del tracer.spans[first:]
    return spans[0].duration_ns / 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-probes", type=int, default=0)
    parser.add_argument("--reference", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result, indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
