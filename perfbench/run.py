"""omclab benchmark: one workload per call, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: dense_analysis, reproduce_all, oracle_sweep (see README.md beside
this file).  The run starts one single-threaded process for the workload
(``workload.py``), with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned to
one thread; between its operations that process times set-up in fresh
processes (import ``omclab.cli`` and load the workload's config), and before
each operation it runs the workload's reference kernel (``reference.py``).

Standard output ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it print every metric with its unit and the
machine it ran on.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones from the traced operations.  The full
record (every op, notes, machine) goes to ``.perfbench_out/``; scratch files
live in ``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

CONFIGS = {
    "dense_analysis": "perfbench/configs/dense_analysis.cfg",
    "reproduce_all": "configs/gap_omc.cfg",
    "oracle_sweep": "configs/gap_omc.cfg",
}
# every count an op reports is also printed as a throughput under this name
RATE_NAMES = {"sequences": "seq_per_s", "clicks": "clicks_per_s",
              "oracle_evals": "oracle_evals_per_s", "jobs": "jobs_per_s"}
# OMCLAB_THREADS is the default of the CLI's --threads (its figure pools)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "OMCLAB_THREADS")
SETUP_PROBES = 4
# Median time of the reference set-up probe (setup_probe.py --reference) on
# the machine this benchmark was built on (2-vCPU Xeon VM, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1) in a quiet phase: setup_s is the set-up ratio in
# seconds at that speed.  Fixed, so every commit is scaled alike.
REFERENCE_SETUP_S = 0.95
CHILD_GRACE_S = 120


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def run_workload(args, env: dict[str, str], work_dir: Path, record_stem: str) -> dict:
    result_path = work_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT),
           # set-up is an end-to-end metric; the traced run reports none
           "--setup-probes", str(0 if args.trace else SETUP_PROBES),
           "--reference", str(0 if args.trace else 1),
           "--config", str(ROOT / CONFIGS[args.workload]), "--work-dir", str(work_dir),
           "--result", str(result_path),
           "--trace-out", str(OUT / f"{record_stem}.spans.json")]
    with open(work_dir / "stdout.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log)
        try:
            code = proc.wait(timeout=args.seconds + CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("workload process timed out")
    if code != 0 or not result_path.is_file():
        raise BenchError(f"workload process exited {code} without a result")
    return json.loads(result_path.read_text())


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {"git_commit": commit or "unavailable (not a git checkout)",
            "src_sha256": digest.hexdigest()}


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q = statistics.quantiles(values, n=4)
    return f"{q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f}"


def end_to_end(args, result: dict) -> tuple[dict, list[str]]:
    """wall_rel is the median over the run of op time / reference-kernel time.

    On a shared 2-vCPU machine the CPU runs 1.3-1.9x slower in phases of tens
    of seconds to minutes; the median op of a run moved by up to 35% between
    runs, the fastest op by up to 30%.  The reference kernel run just before
    each op (``reference.py``) slows down with it, and the run's median
    ratio moved by 4-7% between runs.  Raw op times are printed beside it.  setup_s is measured the
    same way, against a fresh process that imports only the modules outside
    omclab that omclab.cli brings in, and scaled to seconds by
    REFERENCE_SETUP_S.
    """
    setup = result["setup_s"]
    setup_ratios = [p["seconds"] / p["reference_s"] for p in setup]
    setup_raw = [p["seconds"] for p in setup]
    ops = [o for o in result["ops"] if o["seconds"] is not None and not o["traced"]]
    if not ops:
        raise BenchError("no operation completed")
    unit = result["unit"]
    seconds = [o["seconds"] for o in ops]
    ratios = [o["seconds"] / o["reference_s"] for o in ops]

    def rates(count):
        return [o["counts"][count] / o["seconds"] for o in ops]

    metrics = {
        "setup_s": (REFERENCE_SETUP_S * statistics.median(setup_ratios), "s"),
        "wall_rel": (statistics.median(ratios), "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    lines = [
        f"setup_s = {metrics['setup_s'][0]:.4f} s  ({REFERENCE_SETUP_S} s x median of "
        f"{len(setup)} set-up / reference set-up ratios, fresh processes spread through the "
        f"run; ratio quartiles {quartiles(setup_ratios)})",
        f"setup_raw_s = {statistics.median(setup_raw):.4f} s  (median; fastest "
        f"{min(setup_raw):.4f} s; reference set-up median "
        f"{statistics.median(p['reference_s'] for p in setup):.4f} s)",
        f"wall_rel = {metrics['wall_rel'][0]:.4f}  (op time / time of the reference kernel "
        f"run just before it, median of {len(ops)} ops; quartiles {quartiles(ratios)})",
        f"wall_s = {statistics.median(seconds):.4f} s  (median of {len(ops)} ops; fastest "
        f"{min(seconds):.4f} s; quartiles {quartiles(seconds)} s; no tail percentile: "
        "fewer than 10 samples beyond any)",
        f"reference_s = {statistics.median(o['reference_s'] for o in ops):.4f} s  "
        "(median of the reference kernel)",
        f"work_per_s = {statistics.median(rates(unit)):.6g} 1/s  ({unit} per second of op "
        "time, median)",
    ]
    for count in ops[0]["counts"]:
        lines.append(f"{RATE_NAMES[count]} = {statistics.median(rates(count)):.6g} 1/s  "
                     f"(median; fastest op {max(rates(count)):.6g})")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB  "
                 "(ru_maxrss of the workload process after its warm-up op, before any "
                 "reference kernel ran)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="omclab benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        parser.error("--seed must be a non-negative 63-bit integer, --seconds positive")

    config = ROOT / CONFIGS[args.workload]
    missing = [p for p in (ROOT / "src" / "omclab" / "__init__.py", config) if not p.is_file()]
    if missing:
        print("perfbench: not an omclab checkout, missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = WORK / f"{stem}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        result = run_workload(args, env, work_dir, stem)
        ops = result["ops"]
        failed = sum(1 for o in ops if o["failures"])
        if args.trace:
            metrics = {k: tuple(v) for k, v in result["per_layer"].items()}
            lines = [f"{name} = {value:.6g} {unit}"
                     + ("  (computed)" if name in result["computed"] else "")
                     for name, (value, unit) in metrics.items()]
        else:
            metrics, lines = end_to_end(args, result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = failed == 0 and not result["warm_up_failures"]
    source = provenance()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "thread_env": {k: env[k] for k in THREAD_VARS}, **source, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    machine = result["machine"]
    print(f"omclab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items())
          + " threads=" + ",".join(f"{k}={env[k]}" for k in THREAD_VARS))
    print("source: " + " ".join(f"{k}={v}" for k, v in source.items()))
    for line in lines:
        print(line)
    print(f"failed_frac = {failed}/{len(ops)} = {failed / len(ops):.3g}"
          + ("" if not result["warm_up_failures"] else
             f"  (warm-up checks failed: {len(result['warm_up_failures'])})"))
    for key, value in result["notes"].items():
        print(f"note {key} = {value}")
    print(f"record: {(OUT / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
