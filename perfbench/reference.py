"""Reference kernels: fixed work of the same kind and size as each workload's
op, written with plain numpy, scipy and Python and calling no omclab code.

The workload process runs its reference kernel just before every timed op,
and ``wall_rel`` is the op's time over the kernel's.  The machine this
benchmark was built on runs 1.3-1.9x slower in phases of tens of seconds to
minutes (other tenants share its cores and memory); a kernel that stresses
the same resources as the op slows down with it, so the ratio keeps the
program's speed and drops the machine's.  A change to omclab moves the op
and not the kernel.

Each kernel returns its own wall time in seconds.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import scipy.linalg

CHUNK = 1 << 18  # sequences per block of uniform draws
DN_RANGE = range(-4, 5)


def _sample(seed: int, n_seq: int, p_click: tuple[float, ...], window: float = 2e-5):
    """Per-sequence uniforms in blocks, one threshold test per pulse and
    origin, sparse click extraction and a (sequence, time) sort."""
    n_pulses = len(p_click)
    draws = -(-(1 + 4 * n_pulses) // 4) * 4
    seqs, pulses, times = [], [], []
    for start in range(0, n_seq, CHUNK):
        rows = min(CHUNK, n_seq - start)
        bits = np.random.Philox(key=seed, counter=start * (draws // 4))
        u = np.random.Generator(bits).random((rows, draws))
        for i, p in enumerate(p_click):
            base = 1 + 4 * i
            signal = u[:, base] < p
            click = signal | (u[:, base + 1] < p / 10) | (u[:, base + 2] < p / 100)
            idx = np.nonzero(click)[0]
            seqs.append(start + idx.astype(np.int64))
            pulses.append(np.full(idx.size, i, dtype=np.int16))
            times.append(np.where(signal[idx], 4e-8, window) * u[idx, base + 3])
    seq, pulse, t = (np.concatenate(c) for c in (seqs, pulses, times))
    order = np.lexsort((t, seq))
    return seq[order], pulse[order], t[order]


def _g2_masks(seq, pulse, n_seq: int) -> int:
    """Write and read click masks over all sequences, ANDed at nine offsets."""
    write = np.zeros(n_seq, dtype=bool)
    read = np.zeros(n_seq, dtype=bool)
    write[seq[pulse == 0]] = True
    read[seq[pulse == 1]] = True
    total = 0
    for dn in DN_RANGE:
        lo, hi = max(0, dn), max(0, -dn)
        total += int((write[hi:n_seq - lo] & read[lo:n_seq - hi]).sum())
    return total


def dense(seed: int, path: Path) -> float:
    """dense_analysis: 5e5 sequences at ~0.2 clicks each, the clicks through a
    CSV file and back, g2 masks at dn = -4..4."""
    n_seq = 500_000
    start = time.perf_counter()
    seq, pulse, t = _sample(seed, n_seq, (0.04, 0.16))
    labels = np.array(["write", "read"])[pulse]
    lines = ["# reference", "sequence_index,pulse_label,click_time_ns,origin"]
    lines += [f"{int(s)},{lab},{x * 1e9:.6f},signal" for s, lab, x in zip(seq, labels, t)]
    path.write_text("\n".join(lines) + "\n")
    rows = [raw.split(",") for raw in path.read_text().splitlines()[2:]]
    back_seq = np.array([int(r[0]) for r in rows], dtype=np.int64)
    back_labels = np.array([r[1] for r in rows])
    # times and origins are parsed as a record reader parses them, then dropped
    np.array([float(r[2]) * 1e-9 for r in rows])
    np.array([r[3] for r in rows])
    _g2_masks(back_seq, (back_labels == "read").astype(np.int16), n_seq)
    seconds = time.perf_counter() - start
    path.unlink()
    return seconds


def reproduce(seed: int) -> float:
    """reproduce_all: half of fig2's twelve rare-click runs of 2e6
    single-pulse sequences, then 1e6 two-pulse sequences with their g2 masks
    (half, so that a run holds more ops)."""
    start = time.perf_counter()
    for k, p in enumerate(np.geomspace(4e-4, 5e-3, 6)):
        _sample(seed + k, 2_000_000, (float(p),))
    seq, pulse, _ = _sample(seed + 6, 1_000_000, (2e-4, 4e-4))
    _g2_masks(seq, pulse, 1_000_000)
    return time.perf_counter() - start


# per-mode Fock dimensions of the oracle_sweep grid, n_th = 0.041 ... 10, at
# each of its two read probabilities
ORACLE_DIMS = (16, 16, 21, 35, 73, 202) * 2


def oracle(seed: int) -> float:
    """oracle_sweep: per grid point of dimension d, matrix exponentials of
    tridiagonal generators of every size 1..d (write side) and 2..d (read
    side)."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    for d in ORACLE_DIMS:
        for size in [*range(d, 0, -1), *range(2, d + 1)]:
            g = rng.uniform(0.0, 0.3, size - 1)
            scipy.linalg.expm(np.diag(g, -1) - np.diag(g, 1))
    return time.perf_counter() - start
