"""Monte Carlo generation of time-tagged detector clicks.

``sequence_model`` builds once per config the ``SequenceModel`` every
repetition shares: per pulse its scattering probability, occupation, dark
counts (Poisson over its detector window) and pump leakage (Poisson, from the
filter suppression applied to the pump photon number); per *unit*, the write
pulse with the read pulse after it or any other pulse alone, the exact joint
distribution of the unit's click outcomes.  These tables are the one
statement of the click model: ``simulate`` samples them and ``predicted_g2``
is the g2 of the pair's table.  The pair's signal clicks come from the
``fock`` oracle's joint click table; a click is signal if there is one, else
leakage, else dark.  The occupation Delta n the read pulse gains from heating
enters as one more independent signal click on its window, correct only to
O((eta p)^2 Delta n): adding Delta n to the pair's click table instead moves
``predicted_g2`` on configs/gap_omc.cfg from 5.51204 to 5.51183.

``simulate`` samples each unit by one rule: the sequences in which it clicks
at all, drawn in order by skip sampling (one geometric gap per clicked
sequence, so the cost scales with the clicks), then one uniform per sequence
picks its cell of the table.  One Philox stream (Salmon et al., SC'11) keyed
by the seed feeds the units in pulse order, so a given (config, seed, omclab
version) yields identical records and distinct seeds give independent streams.
"""

from __future__ import annotations

import functools
import math
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dynamics, fock, optomech
from .core import (
    HBAR,
    LABELS,
    ConfigError,
    ExperimentConfig,
    Pulse,
    PulseSequence,
    open_new,
)

ORIGINS = ("signal", "dark", "leakage")  # what made a click; a record holds an index

# duration of the pulses the single-pulse calibrations drive (fig2, figs1)
PULSE_DURATION = 40e-9


def _fs(seconds: float) -> int:
    """``seconds`` as its nearest whole number of femtoseconds, the grid of click times."""
    return round(seconds * 1e15)


@dataclass(frozen=True)
class RecordBatch:
    """Column-oriented click stream; the common currency of the estimators.

    Its arrays are made read-only, so what the estimators derive from them
    once cannot go stale. ``_clicked`` holds that: label -> sorted distinct
    clicked sequence indices, and ``"read mask"`` -> a bool per sequence,
    True where a read click is, on a batch whose ``n_sequences`` is at most
    the bytes of its ``sequence_index``, ``pulse_label`` and ``click_time``.
    """

    n_sequences: int
    sequence_index: np.ndarray   # int64
    pulse_index: np.ndarray      # int16, position of the pulse in the sequence
    pulse_label: np.ndarray      # int8 code into core.LABELS
    click_time: np.ndarray       # int64 femtoseconds
    origin: np.ndarray | None    # int8 code into ORIGINS, None when blinded
    _clicked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for array in (self.sequence_index, self.pulse_index, self.pulse_label,
                      self.click_time, self.origin):
            if array is not None:
                array.flags.writeable = False

    def __len__(self) -> int:
        return int(self.sequence_index.size)


@dataclass(frozen=True)
class SimReport:
    """Run ground truth: per-pulse probabilities, occupations and click totals."""

    n_sequences: int
    pulse_labels: tuple[str, ...]
    pulse_ps: tuple[float, ...]
    pulse_occupations: tuple[float, ...]
    pulse_totals: tuple[dict[str, int], ...]  # per pulse: origin -> count


def pulse_energy_at_device(pulse, eta_fc: float) -> float:
    """Pulse energy delivered to the device: peak power x duration x fiber coupling."""
    return pulse.peak_power * pulse.duration * eta_fc


def single_pulse_config(config: ExperimentConfig, side: str, p_s: float,
                        n_sequences: int) -> ExperimentConfig:
    """Variant of ``config`` driving one ``PULSE_DURATION`` pulse per sequence
    at the fiber power that produces the requested scattering probability."""
    scale = optomech.scattering_exponent(1.0, config.g0, config.cavity, config.mode)
    x = -math.log1p(-p_s) if side == "red" else math.log1p(p_s)
    power = x / scale / PULSE_DURATION / config.detection.eta_fc
    pulse = Pulse(side=side, duration=PULSE_DURATION, peak_power=power, start=0.0)
    return replace(config, sequence=replace(config.sequence, pulses=(pulse,),
                                            n_sequences=n_sequences))


def pump_leakage_probability(pulse, config: ExperimentConfig) -> float:
    """Probability of >= 1 residual-pump click in the pulse window.

    The configured filter suppression is the net rejection from pump photons
    in the fiber to detector clicks; leakage clicks are Poisson with mean
    N_pump * 10^(-suppression/10).
    """
    db = config.detection.filter_suppression_db
    if math.isinf(db):
        return 0.0
    f_l = config.cavity.f_c + (config.mode.f_m if pulse.side == "blue" else -config.mode.f_m)
    photons = pulse.peak_power * pulse.duration / (HBAR * 2 * math.pi * f_l)
    mean_clicks = photons * 10 ** (-db / 10.0)
    return -math.expm1(-mean_clicks)


def _paired_indices(sequence: PulseSequence) -> tuple[int, int] | None:
    """(write, read) pulse indices for the first pair-creation/state-swap pair."""
    write = next((i for i, p in enumerate(sequence.pulses) if p.side == "blue"), None)
    if write is None:
        return None
    read = next((i for i, p in enumerate(sequence.pulses)
                 if p.side == "red" and p.start >= sequence.pulses[write].end), None)
    if read is None:
        return None
    return write, read


def read_pulse_duration(sequence: PulseSequence) -> float:
    """Duration of the read drive: the red pulse ``_paired_indices`` pairs with
    the write pulse, else the first red pulse, else ``PULSE_DURATION``."""
    pair = _paired_indices(sequence)
    reads = ([sequence.pulses[pair[1]]] if pair else
             [pulse for pulse in sequence.pulses if pulse.side == "red"])
    return reads[0].duration if reads else PULSE_DURATION


@dataclass(frozen=True)
class SequenceModel:
    """Per-pulse statistics shared by every sequence, in pulse order, and per
    unit (the write/read pair, or any other pulse alone) the read-only table
    ``simulate`` samples, with one axis of length 4 per pulse: 0 for no click,
    else 1 + its ``ORIGINS`` code.  ``predicted_g2`` is the g2 of the pair's
    table; without a pair the g2 properties are undefined (see ``g2_model``)."""

    p_s: tuple[float, ...]
    occupations: tuple[float, ...]  # the occupation each pulse sees
    darks: tuple[float, ...]        # dark-count click probability of each window
    eta_det: float
    pair: tuple[int, int] | None    # (write, read) pulse indices
    outcomes: tuple[tuple[tuple[int, ...], np.ndarray], ...]  # per unit: (pulses, table)

    def __post_init__(self):
        for _, table in self.outcomes:
            table.flags.writeable = False

    @property
    def oracle_g2(self) -> float:
        w, r = self.pair
        return fock.oracle_g2(self.occupations[w], self.p_s[w], self.p_s[r], self.eta_det,
                              (self.darks[w], self.darks[r]))

    @property
    def predicted_g2(self) -> float:
        t = dict(self.outcomes)[self.pair]  # axes (write, read)
        p_w, p_r = t[1:].sum(), t[:, 1:].sum()
        if p_w == 0.0 or p_r == 0.0:
            raise fock.HeraldingError("g2 undefined: a marginal click probability is zero")
        return float(t[1:, 1:].sum() / (p_w * p_r))


def sequence_model(config: ExperimentConfig) -> SequenceModel:
    """The ``SequenceModel`` of ``config``; ``simulate`` samples exactly this."""
    seq = config.sequence
    det = config.detection
    eta = det.eta_det
    p_s = tuple(optomech.scattering_probability(
        pulse.side, pulse_energy_at_device(pulse, det.eta_fc), config.g0, config.cavity,
        config.mode) for pulse in seq.pulses)
    occupations = tuple(dynamics.pulse_occupations(seq, config.mode, p_s))
    darks = tuple(-math.expm1(-det.dark_rate * p.window_length) for p in seq.pulses)
    leaks = tuple(pump_leakage_probability(p, config) for p in seq.pulses)

    pair = _paired_indices(seq)
    w, r = pair or (None, None)
    extra_read = 0.0 if pair is None else fock.single_pulse_click_probability(
        "red", max(occupations[r] - occupations[w], 0.0), p_s[r], eta)

    def origins(i: int, extra: float = 0.0) -> np.ndarray:
        """Pulse i's outcome without (row 0) and with (row 1) a signal click."""
        miss = (1 - extra) * (1 - leaks[i])
        return np.array([[miss * (1 - darks[i]), extra, miss * darks[i], (1 - extra) * leaks[i]],
                         [0.0, 1.0, 0.0, 0.0]])

    outcomes = []
    for i, pulse in enumerate(seq.pulses):
        if i == w:
            t = fock.two_pulse_click_table(occupations[w], p_s[w], p_s[r], eta)
            joint = np.array([[t.p00, t.p01], [t.p10, t.p11]])
            outcomes.append((pair, origins(w).T @ joint @ origins(r, extra_read)))
        elif i != r:
            s = fock.single_pulse_click_probability(pulse.side, occupations[i], p_s[i], eta)
            outcomes.append(((i,), np.array([1 - s, s]) @ origins(i)))
    return SequenceModel(p_s=p_s, occupations=occupations, darks=darks, eta_det=eta,
                         pair=pair, outcomes=tuple(outcomes))


def g2_model(config: ExperimentConfig) -> SequenceModel | None:
    """The ``SequenceModel`` of a config with a write/read pair, or None without one.

    ``oracle_g2`` is ``fock.oracle_g2`` at the write pulse's occupation with
    dark counts as each window's only background.  ``predicted_g2`` is the g2
    of the pair's outcome table, dark counts, pump leakage and the read
    window's heating click included: the table ``simulate`` samples, so the
    Monte Carlo converges to it.

    ``stats.g2_crosscorr`` pools every click of a label, so that holds only
    while the pair's pulses are the sole ``write`` and the sole ``read``
    pulse; a config with a pair and a label on more pulses raises
    ``ConfigError`` naming them.
    """
    model = sequence_model(config)
    if model.pair is None:
        return None
    for label in ("write", "read"):
        shared = [f"pulse {i} (start {pulse.start:g} s)"
                  for i, pulse in enumerate(config.sequence.pulses) if pulse.label == label]
        if len(shared) > 1:
            raise ConfigError(
                f"g2 model: the {label!r} label names {', '.join(shared)}; the g2 "
                "estimator pools their clicks, but the model covers only the first "
                "write pulse and the read pulse after it")
    return model


def _gap_batch(mean: float) -> int:
    """Uniforms to draw for the gaps of ``_bernoulli`` when ``mean`` successes
    are expected: 6 standard deviations and 16 over, so that a batch falls
    short of the end in about one call in 1e9."""
    return int(mean + 6 * math.sqrt(mean) + 16)


def _bernoulli(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Sorted int64 indices of the successes among n independent Bernoulli(p) trials.

    Skip sampling (Devroye, Non-Uniform Random Variate Generation, 1986): the
    gaps between successes are geometric, G = 1 + floor(log1p(-u) /
    log1p(-p)) by inversion of one uniform u each, and the successes are the
    running sum of the gaps, so the result comes sorted and distinct at
    O(clicks) cost, with no n-long array.
    One batch of ``_gap_batch(np)`` uniforms nearly always reaches n; a
    further batch is drawn only when the sum has not reached n.  Exact in
    distribution up to float64 rounding of ``log1p`` and u's 2^-53 grid
    (below p = 2^-53 that grid leaves some gap lengths out).

    The gaps are summed as float64, which cannot overflow, and a batch
    decides at most 2^52 trials, so every sum below its end is an exact
    whole number; only those are cast to int64.  No p and no n < 2^63 makes
    a warning, and a batch too large to hold fails at once with MemoryError.
    """
    if n == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n, dtype=np.int64)
    # below 1e-300 every nonzero uniform on the 2^-53 grid gives a gap past
    # 2^63 either way; a finite scale makes u = 0 a gap of 1, not 0 * inf
    scale = 1.0 / min(math.log1p(-p), -1e-300)
    runs, start = [], 0  # start: the first trial not yet decided
    while start < n:
        rest = min(n - start, 2**52)
        x = rng.random(_gap_batch(rest * p))
        np.negative(x, out=x)
        np.log1p(x, out=x)
        x *= scale
        np.floor(x, out=x)  # the failures before each success
        x += 1
        x[0] -= 1
        np.cumsum(x, out=x)  # each success's index from start
        k = int(x.searchsorted(rest))
        successes = x[:k].astype(np.int64)
        if start:
            successes += start
        runs.append(successes)
        start = start + rest if k < x.size else int(successes[-1]) + 1
    return runs[0] if len(runs) == 1 else np.concatenate(runs)


def _pick_cells(cum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each x's cell of a unit's table, as uint8: ``1 + np.searchsorted(cum[:-1],
    x, side="right")``, where ``cum`` is the cumulative probability of the
    table's non-empty cells (cells 1 on).

    One compare pass per edge of ``cum[:-1]``, repeated edges included, adds
    1 where x is at or past it: at 1e5 unsorted x and 14 edges the passes
    take about 0.1 ms where the search takes about 1 ms.
    """
    assert cum.size < 16  # a unit has at most two pulses, so at most 16 cells
    cell = np.ones(x.size, dtype=np.uint8)
    hit = np.empty(x.size, dtype=bool)
    hits = hit.view(np.uint8)  # a bool added as uint8, with no cast
    for edge in cum[:-1].tolist():
        np.greater_equal(x, edge, hit)
        np.add(cell, hits, cell)
    return cell


@functools.cache
def _cell_origins(shape: tuple[int, ...]) -> np.ndarray:
    """For a unit's table of ``shape``, a row per pulse: each cell's ``ORIGINS``
    code for that pulse, -1 where it does not click.  Cached, as building it
    per call took about 3 us of fig3b's 76 us ``simulate``; built on first use,
    not at import, as the int8 conversion costs about 0.4 MB of RSS."""
    cells = np.array(np.unravel_index(np.arange(math.prod(shape)), shape), dtype=np.int8) - 1
    cells.flags.writeable = False
    return cells


def _sample_unit(rng: np.random.Generator, n: int,
                 table: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per pulse of a unit, the sorted sequences of n in which it clicks and
    each click's ``ORIGINS`` code: the sequences with any click, then one
    uniform per sequence picks its cell of ``table``, unravelled per pulse."""
    cum = np.cumsum(table.ravel()[1:])  # the non-empty cells
    seqs = _bernoulli(rng, n, min(cum[-1], 1.0))
    x = rng.random(seqs.size)
    x *= cum[-1]
    units = []
    for code in _cell_origins(table.shape).take(_pick_cells(cum, x), axis=1):
        clicked = code >= 0
        units.append((seqs.compress(clicked), code.compress(clicked)))
    return units


def _click_order(seq_idx: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``np.lexsort((times, seq_idx))``, ties included, from a stable argsort and a few passes.

    ``seq_idx`` is a few sorted per-pulse runs back to back, which a stable
    argsort merges. The clicks of one sequence then sit side by side, at
    most one per pulse, so odd-even transposition passes order them by time:
    a pass swaps each pair of neighbours of one sequence whose later click
    has a strictly smaller time, and passes repeat until one swaps nothing.
    Equal times never swap, so ties keep the merged order, as in lexsort.
    """
    order = seq_idx.argsort(kind="stable")
    ordered = seq_idx.take(order)
    pairs = (ordered[1:] == ordered[:-1]).nonzero()[0]  # neighbours k, k + 1
    if not pairs.size:  # no sequence clicks twice
        return order
    odd = pairs % 2 == 1
    # compress, not a bool index, here and below: 0.05 against 0.34 ms at 1e5 random values
    phases = (pairs.compress(~odd), pairs.compress(odd))  # disjoint pairs each
    swapped = True
    while swapped:
        swapped = False
        for k in phases:
            k = k.compress(times.take(order.take(k + 1)) < times.take(order.take(k)))
            if k.size:
                order[k], order[k + 1] = order.take(k + 1), order.take(k)
                swapped = True
    return order


def simulate(config: ExperimentConfig, seed: int,
             blind: bool = False) -> tuple[RecordBatch, SimReport]:
    """Run the configured pulse sequence for config.sequence.n_sequences
    repetitions; deterministic given (config, seed)."""
    if not (0 <= seed < 2**63):
        raise ConfigError(f"seed {seed} does not fit in a non-negative 63-bit integer")
    seq = config.sequence
    for i, p in enumerate(seq.pulses):  # below 2^53 every fs count is exact in a double
        if not (_fs(p.duration) > 0 and p.start + p.window_length < 10  # no _fs overflow
                and _fs(p.start) + _fs(p.window_length) < 2**53):
            raise ConfigError(f"pulse {i}: click times are whole femtoseconds, so a pulse lasts "
                              "at least 0.5 fs and its window ends before 2^53 fs (9.007 s)")

    model = sequence_model(config)
    n_total = seq.n_sequences
    rng = np.random.Generator(np.random.Philox(key=seed))

    # per pulse: (sequence index, pulse index, click time, origin code), after
    # an empty first entry that fixes the dtypes when there is no pulse
    columns = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int16),
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8))]
    totals = [None] * len(seq.pulses)
    for pulses, table in model.outcomes:
        for i, (idx, code) in zip(pulses, _sample_unit(rng, n_total, table)):
            pulse = seq.pulses[i]
            # each origin's span: a dark count falls anywhere in the detector window
            duration, window = _fs(pulse.duration), _fs(pulse.window_length)
            spans = np.array([window if origin == "dark" else duration for origin in ORIGINS],
                             dtype=float)
            times = rng.random(idx.size)  # u * span truncates to whole fs in [0, span)
            times *= spans.take(code)
            columns.append((idx, np.full(idx.size, i, dtype=np.int16),
                            times.astype(np.int64) + _fs(pulse.start), code))
            totals[i] = {origin: int(np.count_nonzero(code == k))
                         for k, origin in enumerate(ORIGINS)}

    # the per-pulse pieces go once concatenated, and each column once reordered,
    # so that at the peak one column is held twice, not all four
    columns = [np.concatenate(col) for col in zip(*columns)]
    order = _click_order(columns[0], columns[2])
    for k, column in enumerate(columns):
        columns[k] = column.take(order)
    seq_idx, pulse_idx, times, codes = columns

    labels = np.array([LABELS.index(p.label) for p in seq.pulses], dtype=np.int8)
    batch = RecordBatch(
        n_sequences=n_total,
        sequence_index=seq_idx,
        pulse_index=pulse_idx,
        pulse_label=labels.take(pulse_idx),
        click_time=times,
        origin=None if blind else codes,
    )
    report = SimReport(
        n_sequences=n_total,
        pulse_labels=tuple(p.label for p in seq.pulses),
        pulse_ps=model.p_s,
        pulse_occupations=model.occupations,
        pulse_totals=tuple(totals),
    )
    return batch, report


# --- record files -----------------------------------------------------------------


def assign_pulse_indices(batch: RecordBatch, sequence: PulseSequence) -> RecordBatch:
    """Recover pulse indices from click times (for records re-read from a file).

    Matches on label first within the pulse span, then within the (possibly
    overlapping) detector window for dark counts, in whole femtoseconds as
    ``simulate`` draws them.
    """
    idx = np.full(len(batch), -1, dtype=np.int16)
    for span in ("duration", "window_length"):
        for i, pulse in enumerate(sequence.pulses):
            rows = ((batch.pulse_label == LABELS.index(pulse.label)) & (idx < 0)).nonzero()[0]
            times, start = batch.click_time.take(rows), _fs(pulse.start)
            idx[rows.compress((times >= start) & (times < start + _fs(getattr(pulse, span))))] = i
    if np.any(idx < 0):
        raise ValueError("records contain click times outside all pulse windows")
    return replace(batch, pulse_index=idx)


# each member of a record file: its dtype ("U" for any text) and its shape, ()
# for a scalar, (k,) for k entries, "any" for any length, "clicks" for the
# shape of sequence_index; a blind file has no origins or origin
_RECORD_MEMBERS = {
    "n_sequences": (np.int64, ()),
    "header": ("U", "any"),
    "labels": ("U", (len(LABELS),)),
    "sequence_index": (np.int64, "any"),
    "pulse_label": (np.int8, "clicks"),
    "click_time_fs": (np.int64, "clicks"),
    "origins": ("U", (len(ORIGINS),)),
    "origin": (np.int8, "clicks"),
}
# what a corrupt zip or .npy member raises in zipfile or np.load
_UNREADABLE = (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile)


def _layout_fault(layout: dict) -> str | None:
    """The first member of ``layout`` (name -> (dtype, shape), in
    ``_RECORD_MEMBERS`` order) whose dtype or shape a record file does not
    hold, as a message; None when every member fits."""
    for name, (dtype, shape) in layout.items():
        want, size = _RECORD_MEMBERS[name]
        matches = dtype.kind == "U" if want == "U" else dtype == want
        if not matches:
            return f"{name} is {dtype}, not {'text' if want == 'U' else np.dtype(want)}"
        if size == "clicks":
            size = layout["sequence_index"][1]
        fits = len(shape) == 1 if size == "any" else shape == size
        if not fits:
            return f"{name} has shape {shape}, not {'(n,)' if size == 'any' else size}"
    return None


def _value_fault(members: dict) -> str | None:
    """The first value of the record members (name -> array) that a record
    file does not hold, as a message; None when every value fits."""
    for vocabulary, values, name in (("labels", LABELS, "pulse_label"),
                                     ("origins", ORIGINS, "origin")):
        if name not in members:
            continue
        if members[vocabulary].tolist() != list(values):
            return f"{vocabulary} are {members[vocabulary].tolist()}, not {list(values)}"
        codes = members[name]
        if codes.size and (codes.min() < 0 or codes.max() >= len(values)):
            return f"{name} holds a code outside [0, {len(values)})"
    n_sequences, seq = int(members["n_sequences"]), members["sequence_index"]
    if n_sequences < 0:
        return f"n_sequences={n_sequences} is negative"
    if seq.size and (seq.min() < 0 or seq.max() >= n_sequences):
        return f"sequence_index outside [0, {n_sequences})"
    return None


def write_records(batch: RecordBatch, path: str | Path,
                  header_lines: list[str] | None = None) -> None:
    """Write ``batch`` to ``path``, as given, as one uncompressed .npz.

    Its members are ``n_sequences``, ``header`` (``header_lines``),
    ``labels`` (``core.LABELS``), the click columns ``sequence_index``,
    ``pulse_label`` and ``click_time_fs`` (``click_time`` as it is), and
    unless the batch is blind ``origins`` (``ORIGINS``) and ``origin``.  A
    batch ``read_records`` would refuse is a ``ValueError`` naming the file,
    raised before the file is opened.  A file already at ``path`` is replaced
    (``core.open_new``).
    """
    members = {"n_sequences": np.int64(batch.n_sequences),
               "header": np.array(header_lines or [], dtype=str),
               "labels": np.array(LABELS),
               "sequence_index": batch.sequence_index,
               "pulse_label": batch.pulse_label,
               "click_time_fs": batch.click_time}
    if batch.origin is not None:
        members.update(origins=np.array(ORIGINS), origin=batch.origin)
    fault = (_layout_fault({name: (a.dtype, a.shape) for name, a in members.items()})
             or _value_fault(members))
    if fault:
        raise ValueError(f"{path}: {fault}")
    with open_new(path, "wb") as f:
        np.savez(f, **members)


def _npy_layout(archive: zipfile.ZipFile, name: str, file_size: int) -> tuple:
    """(dtype, shape) from the .npy header of member ``name``; a header that
    declares other than the bytes its zip entry holds, or more than the whole
    file holds, is a ``ValueError``, so loading the member allocates no more."""
    info = archive.getinfo(f"{name}.npy")
    with archive.open(info) as member:
        version = np.lib.format.read_magic(member)
        read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                       (2, 0): np.lib.format.read_array_header_2_0}.get(version)
        if read_header is None:
            raise ValueError(f"{name} is .npy format {version}, not 1.0 or 2.0")
        shape, _, dtype = read_header(member)
        size = info.file_size - member.tell()
    declared = math.prod(shape) * dtype.itemsize
    if declared != size or info.file_size > file_size:
        raise ValueError(f"{name} declares {dtype} of shape {shape}, {declared} bytes, but "
                         f"its zip entry holds {size} of the file's {file_size}")
    return dtype, shape


def read_records(path: str | Path) -> RecordBatch:
    """Read a record file written by ``write_records``; ``pulse_index`` reads
    back as zeros (``assign_pulse_indices`` recovers it).

    Anything else is a ``ConfigError`` naming the file: a file that is not a
    zip (a 0.5.0 record CSV among them), a truncated or corrupt one, another
    set of members, a member of another dtype or shape, another vocabulary, a
    code out of range, n_sequences < 0 or a sequence index outside
    [0, n_sequences).  Every member's .npy header is checked against the
    bytes its zip entry holds before any member is loaded.
    """
    with open(path, "rb") as f:
        file_size = f.seek(0, 2)
        f.seek(0)
        if f.read(4) != b"PK\x03\x04":
            raise ConfigError(f"{path}: not an .npz record file (a 0.5.0 record CSV "
                              "converts as the README shows)")
        f.seek(0)
        try:
            with np.load(f, allow_pickle=False) as npz:
                names = npz.zip.namelist()
                spec = [name for name in _RECORD_MEMBERS
                        if "origin.npy" in names or name not in ("origins", "origin")]
                if sorted(names) != sorted(f"{name}.npy" for name in spec):
                    raise ConfigError(f"{path}: members {sorted(names)} are not a record "
                                      f"file's {', '.join(spec)}")
                # np.savez writes no entry comment; a corrupt comment length can
                # swallow the entries after it
                if commented := [i.filename for i in npz.zip.infolist() if i.comment]:
                    raise ConfigError(f"{path}: zip entry {commented[0]} has a comment")
                fault = _layout_fault({name: _npy_layout(npz.zip, name, file_size)
                                       for name in spec})
                if fault:
                    raise ConfigError(f"{path}: {fault}")
                members = {name: npz[name] for name in spec}
        except ConfigError:
            raise
        except _UNREADABLE as exc:
            raise ConfigError(f"{path}: not a readable record file: {exc}") from None
    fault = _value_fault(members)
    if fault:
        raise ConfigError(f"{path}: {fault}")
    seq = members["sequence_index"]
    return RecordBatch(n_sequences=int(members["n_sequences"]), sequence_index=seq,
                       pulse_index=np.zeros(seq.size, dtype=np.int16),
                       pulse_label=members["pulse_label"],
                       click_time=members["click_time_fs"], origin=members.get("origin"))


# the names the benchmark's dense_analysis workload calls the record file by
write_records_csv = write_records
read_records_csv = read_records
