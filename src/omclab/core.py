"""Shared domain types, unit conventions, configuration parsing and CSV tables.

Unit conventions used throughout this package:

* All stored frequencies are ordinary frequencies ``f`` in Hz.  Angular
  frequencies never appear in data structures; the factor ``2*pi`` is applied
  inside formulas, at exactly one place per formula.  A quantity quoted as
  "2*pi x 5.14 GHz" is therefore stored as ``5.14e9``.
* Times are seconds, powers watts, energies joules, capacitances farads.
* Mode occupations are dimensionless phonon numbers.

All types are frozen dataclasses: immutable after construction and safe to
share between threads.  They are also the configuration-file schema: a key
is ``<section>.<dataclass field>``, and a field without a default is a
required key (see ``parse_config``).
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import stat
import types
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Literal

import numpy as np

Frequency = float  # ordinary frequency in Hz (f, not omega)

Side = Literal["red", "blue"]
SIDES = typing.get_args(Side)  # a counts file's side column is coded into these

LABELS = ("write", "read")  # blue pulses write excitations, red ones read them out

# reduced Planck constant in J s; exact, as h is exact in SI since 2019
HBAR = 6.62607015e-34 / (2 * math.pi)


class ConfigError(ValueError):
    """Any invalid config value or file; the message names the key, invariant
    or file at fault."""


class UndefinedEstimateError(ValueError):
    """No estimate from these inputs: a g2 without usable clicks or with a
    zero marginal click probability, or a fit that did not converge."""


@dataclass(frozen=True)
class OpticalCavity:
    """One-port optical cavity: resonance and linewidth budget (all in Hz).

    The external (waveguide) coupling rate ``kappa_e`` is not an input: it is
    the part of the loaded linewidth that is not intrinsic loss.
    """

    f_c: Frequency
    kappa: Frequency
    kappa_i: Frequency

    def __post_init__(self):
        if self.f_c <= 0:
            raise ConfigError("cavity: f_c must be positive")
        if not (0 < self.kappa_i <= self.kappa):
            raise ConfigError("cavity: 0 < kappa_i <= kappa required")

    @property
    def kappa_e(self) -> Frequency:
        return self.kappa - self.kappa_i


@dataclass(frozen=True)
class CalibrationPoint:
    """One row of the heating calibration table (``heating.calib.N``)."""

    p_s: float
    amplitude: float
    n_instant: float


@dataclass(frozen=True)
class HeatingParams:
    """Pulse-induced heating model parameters.

    The delayed-heating response to a single pulse is
    ``A * exp(-tau/tau_decay) * (1 - exp(-tau/tau_rise)) + n_instant``,
    with the amplitude ``A`` and the instantaneous occupation ``n_instant``
    looked up from a measured calibration table versus scattering
    probability (piecewise-linear interpolation, linear extrapolation
    clamped at zero).  An empty table means no pulse heating at all.
    """

    tau_rise: float = 165e-9
    tau_decay: float = 22e-6
    calibration: tuple[CalibrationPoint, ...] = ()  # sorted by p_s

    def __post_init__(self):
        if not (self.tau_rise > 0 and self.tau_decay > 0):
            raise ConfigError("heating: tau_rise and tau_decay must be positive")
        if self.tau_decay <= self.tau_rise:
            raise ConfigError("heating: tau_decay > tau_rise required")
        ps = [row.p_s for row in self.calibration]
        if ps != sorted(ps) or len(set(ps)) != len(ps):
            raise ConfigError("heating: calibration p_s values must be strictly increasing")

    def _lookup(self, p_s: float, name: str) -> float:
        """The calibration field ``name`` at ``p_s``."""
        table = self.calibration
        if len(table) < 2:
            return max(0.0, getattr(table[0], name)) if table else 0.0
        # piecewise linear on the segment [lo, hi] holding p_s, with linear
        # extrapolation from the end segments
        i = 1
        while i < len(table) - 1 and table[i].p_s <= p_s:
            i += 1
        lo, hi = table[i - 1], table[i]
        y_lo = getattr(lo, name)
        slope = (getattr(hi, name) - y_lo) / (hi.p_s - lo.p_s)
        return max(0.0, y_lo + slope * (p_s - lo.p_s))

    def amplitude(self, p_s: float) -> float:
        """Delayed-heating amplitude A for a pulse of scattering probability p_s."""
        return self._lookup(p_s, "amplitude")

    def instant_occupation(self, p_s: float) -> float:
        """Quasi-instantaneous occupation added by the pulse itself."""
        return self._lookup(p_s, "n_instant")


@dataclass(frozen=True)
class MechanicalMode:
    """Mechanical mode: frequency, linewidth, baseline occupation, heating."""

    f_m: Frequency
    gamma_m: Frequency
    n_baseline: float = 0.0
    heating: HeatingParams = field(default_factory=HeatingParams)

    def __post_init__(self):
        if self.gamma_m <= 0:
            raise ConfigError("mode: gamma_m must be positive")
        if self.f_m <= self.gamma_m:
            raise ConfigError("mode: f_m > gamma_m required (resolved resonance)")
        if self.n_baseline < 0:
            raise ConfigError("mode: n_baseline must be non-negative")


@dataclass(frozen=True)
class DetectionChain:
    """Detection efficiencies, filtering, and dark counts.

    ``eta_dev`` is the cavity-waveguide extraction efficiency, ``eta_fc`` the
    waveguide-fiber coupling, and ``eta_rest`` lumps filter transmission and
    detector efficiency.  ``filter_suppression_db`` is the net power rejection
    the chain applies to off-resonant pump light.
    """

    eta_dev: float
    eta_fc: float
    eta_rest: float
    dark_rate: float = 0.0  # Hz
    filter_suppression_db: float = math.inf

    def __post_init__(self):
        for name in ("eta_dev", "eta_fc", "eta_rest"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"detection: {name} must lie in [0, 1]")
        if not (0.0 < self.eta_det <= 1.0):
            raise ConfigError("detection: eta_dev*eta_fc*eta_rest must lie in (0, 1]")
        if self.dark_rate < 0:
            raise ConfigError("detection: dark_rate must be non-negative")

    @property
    def eta_det(self) -> float:
        """Overall photon detection efficiency from cavity to detector click."""
        return self.eta_dev * self.eta_fc * self.eta_rest


@dataclass(frozen=True)
class Pulse:
    """A single drive pulse.  ``peak_power`` is the peak power in the fiber.

    ``window`` is the detector gating window opened at the pulse start; it
    defaults to the pulse duration and may extend beyond it (dark counts
    accumulate over the whole window).
    """

    side: Side
    duration: float
    peak_power: float
    start: float
    window: float | None = None

    def __post_init__(self):
        if self.side not in SIDES:
            raise ConfigError("pulse: side must be 'red' or 'blue'")
        if self.duration <= 0:
            raise ConfigError("pulse: duration must be positive")
        if self.peak_power < 0:
            raise ConfigError("pulse: peak_power must be non-negative")
        if self.start < 0:
            raise ConfigError("pulse: start must be non-negative")
        if self.window is not None and self.window < self.duration:
            raise ConfigError("pulse: window must cover the pulse duration")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def window_length(self) -> float:
        return self.duration if self.window is None else self.window

    @property
    def label(self) -> str:
        return LABELS[0] if self.side == "blue" else LABELS[1]


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses repeated at ``repetition_rate`` for ``n_sequences``."""

    pulses: tuple[Pulse, ...]
    repetition_rate: float
    n_sequences: int = 0

    def __post_init__(self):
        if self.repetition_rate <= 0:
            raise ConfigError("sequence: repetition_rate must be positive")
        if not 0 <= self.n_sequences < 2**63:  # sequence indices are int64
            raise ConfigError("sequence: n_sequences must lie in [0, 2**63)")
        ordered = sorted(self.pulses, key=lambda p: p.start)
        if tuple(ordered) != self.pulses:
            raise ConfigError("sequence: pulses must be listed in time order")
        for a, b in zip(self.pulses, self.pulses[1:]):
            if b.start < a.end:
                raise ConfigError("sequence: pulses must not overlap in time")
        if self.pulses and self.pulses[-1].end >= self.period:
            raise ConfigError("sequence: period 1/repetition_rate must exceed last pulse end")
        if any(p.start + p.window_length > self.period for p in self.pulses):
            raise ConfigError("sequence: detection window extends past the period")

    @property
    def period(self) -> float:
        return 1.0 / self.repetition_rate


@dataclass(frozen=True)
class PiezoInterface:
    """Piezo resonator electrical/mechanical parameters (frequencies in Hz).

    These checks are each key's range, so a value out of range fails as the
    config loads, for every command; ``transducer.conversion_budget`` checks
    that the keys together give a finite, positive coupling and C_em.
    """

    k_eff2: float              # electromechanical coupling coefficient k_eff^2
    c_piezo: float             # resonator capacitance, F
    f_m: float                 # mechanical mode frequency used in the budget
    gamma_m: float             # mechanical loss rate, Hz
    c_parasitic: float = 0.0   # on-chip parasitic capacitance, F
    q_uw: float | None = None  # microwave resonator quality factor
    n_m: float | None = None   # residual mechanical occupation
    eta_e: float = 1.0         # external efficiency of the electrical input

    def __post_init__(self):
        if not (0 < self.k_eff2 < 1):
            raise ConfigError("piezo: coupling k_eff2 must lie in (0, 1)")
        if not (self.c_piezo > 0 and self.c_parasitic >= 0):
            raise ConfigError("piezo: c_piezo > 0 and c_parasitic >= 0 required")
        if not (self.f_m > 0 and self.gamma_m > 0):
            raise ConfigError("piezo: f_m and gamma_m must be positive")
        if self.q_uw is not None and self.q_uw <= 0:
            raise ConfigError("piezo: q_uw must be positive")
        if self.n_m is not None and self.n_m < 0:
            raise ConfigError("piezo: n_m must be non-negative")
        if not (0 < self.eta_e <= 1):
            raise ConfigError("piezo: eta_e must lie in (0, 1]")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description: device, detection, drive, and options."""

    cavity: OpticalCavity
    mode: MechanicalMode
    detection: DetectionChain
    sequence: PulseSequence
    g0: Frequency
    piezo: PiezoInterface | None = None

    def __post_init__(self):
        if self.g0 <= 0:
            raise ConfigError("g0 must be positive")


# --- flat key = value configuration files ------------------------------------
#
# One `key = value` per line, `#` starts a comment, blank lines ignored.
# All values in SI base units (Hz, s, W, F); see the README for the key table.
#
# The dataclasses above are the schema: every key is `<section>.<field>` of
# the dataclass that holds it (`g0` has no section), the value is converted
# by the field's type (str, int or float), and a field without a default is
# a required key.  Numbers must be finite, except an inf that is the field's
# own default (`detection.filter_suppression_db = inf`: no filter line).
# Indexed sections (`heating.calib.N`, `pulse.N`) repeat one dataclass per
# index.  No key list is kept anywhere else.


@functools.cache
def _scalar_fields(cls) -> tuple[tuple[str, type, object], ...]:
    """(name, str|int|float, default or MISSING) of each scalar field of ``cls``.

    Fields holding another section (a dataclass, a tuple of them) are left to
    the caller.
    """
    hints = typing.get_type_hints(cls)
    spec = []
    for f in fields(cls):
        kind = hints[f.name]
        if typing.get_origin(kind) is Literal:
            kind = str
        elif typing.get_origin(kind) in (typing.Union, types.UnionType):  # X | None
            (kind,) = [a for a in typing.get_args(kind) if a is not type(None)]
        if kind in (str, int, float):
            spec.append((f.name, kind, f.default))
    return tuple(spec)


def _convert(key: str, raw: str, kind: type, default):
    if kind is str:
        return raw
    if kind is int:
        try:
            return int(raw)  # exact, where float would round past 2**53
        except ValueError:
            pass  # a form such as 1e6, checked as a float below
    try:
        value = float(raw)
    except ValueError:
        value = math.nan  # reported together with a literal NaN below
    if not (math.isfinite(value) or value == default):
        raise ConfigError(f"key {key!r}: not a finite number: {raw!r}")
    if kind is int:
        if not value.is_integer():
            raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}")
        return int(value)
    return value


def _read(cls, entries: dict[str, str], prefix: str, **sections):
    """Build ``cls`` from (and remove) the ``<prefix>.<field>`` entries."""
    kwargs = dict(sections)
    for name, kind, default in _scalar_fields(cls):
        key = f"{prefix}.{name}" if prefix else name
        if key in entries:
            kwargs[name] = _convert(key, entries.pop(key), kind, default)
        elif default is MISSING:
            raise ConfigError(f"missing required key {key!r}")
    return cls(**kwargs)


def _write(obj, prefix: str) -> list[str]:
    """``key = value`` lines for the scalar fields of ``obj``, in field order.

    A field left at a None or inf default is omitted; reading restores it.
    """
    lines = []
    for name, kind, default in _scalar_fields(type(obj)):
        value = getattr(obj, name)
        if value is None or value == default == math.inf:
            continue
        key = f"{prefix}.{name}" if prefix else name
        lines.append(f"{key} = {repr(float(value)) if kind is float else value}")
    return lines


def _indices(entries: dict[str, str], prefix: str) -> list[int]:
    """Sorted indices i for which any key '<prefix>.<i>.*' exists."""
    found = set()
    for key in entries:
        if key.startswith(prefix + "."):
            rest = key[len(prefix) + 1:].split(".", 1)[0]
            if rest.isdecimal():
                found.add(int(rest))
    return sorted(found)


def _parse_flat(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key = value configuration string."""
    entries = _parse_flat(text)
    calibration = tuple(_read(CalibrationPoint, entries, f"heating.calib.{i}")
                        for i in _indices(entries, "heating.calib"))
    heating = _read(HeatingParams, entries, "heating", calibration=calibration)
    pulses = tuple(_read(Pulse, entries, f"pulse.{i}") for i in _indices(entries, "pulse"))
    has_piezo = any(f"piezo.{name}" in entries for name, *_ in _scalar_fields(PiezoInterface))
    sections = dict(
        cavity=_read(OpticalCavity, entries, "cavity"),
        mode=_read(MechanicalMode, entries, "mode", heating=heating),
        detection=_read(DetectionChain, entries, "detection"),
        sequence=_read(PulseSequence, entries, "sequence", pulses=pulses),
        piezo=_read(PiezoInterface, entries, "piezo") if has_piezo else None,
    )
    config = _read(ExperimentConfig, entries, "", **sections)
    if entries:
        raise ConfigError(f"unknown configuration keys: {', '.join(sorted(entries))}")
    return config


def read_text(path: str | Path) -> str:
    """An input file's text; one that does not decode is a ``ConfigError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Load, parse, and validate a configuration file."""
    return parse_config(read_text(path))


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config back to flat key = value text (exact float round trip)."""
    heating = config.mode.heating
    sections = [(config.cavity, "cavity"), (config.mode, "mode"), (config, ""),
                (heating, "heating")]
    sections += [(row, f"heating.calib.{i}") for i, row in enumerate(heating.calibration)]
    sections.append((config.detection, "detection"))
    sections += [(pulse, f"pulse.{i}") for i, pulse in enumerate(config.sequence.pulses)]
    sections.append((config.sequence, "sequence"))
    if config.piezo is not None:
        sections.append((config.piezo, "piezo"))
    return "".join(f"{line}\n" for obj, prefix in sections for line in _write(obj, prefix))


# --- comma tables ----------------------------------------------------------------
#
# Every CSV omclab reads or writes (user inputs and artifacts, at most a few
# thousand rows each): `#` comment lines first, where `# <name>=<value>` is
# metadata; then one line of column names; then rows of one field per column.
# The writer takes float columns only (every artifact is one); the reader
# also takes integer columns and coded text, a column of a few fixed values
# (a counts file's side) moved as codes into them.


def open_new(path: str | Path, mode: str = "w"):
    """``open(path, mode)``, with a regular file already at ``path`` removed
    first, so it is replaced, not rewritten in place (another hard link to it
    keeps the old bytes).  Anything else there, a symlink, a FIFO or a device
    such as ``os.devnull``, is opened as it is.

    On ext4 (default ``auto_da_alloc``), truncating a file to zero starts its
    writeback at close; removing a file whose blocks are allocated, or being
    written back, then took 25-80 ms, and one created anew and not yet
    written back, 0.01 ms.  A file created anew gets no such writeback:
    like any fresh file, it reaches the disk when the kernel's dirty data
    expires (30 s here), so a crash before that can leave it empty."""
    with contextlib.suppress(FileNotFoundError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    return open(path, mode, encoding=None if "b" in mode else "utf-8")


def write_table(path: str | Path, comment_lines: list[str], names: list[str], columns) -> None:
    """Write a comma table: ``# <line>`` per comment line, the column names,
    then one line per row of the equal-length ``columns``, one float numpy
    array per name, each value written ``%.10g``.  A column that is not a
    float array is a ``ValueError``, and so is a column named twice or a
    value that would not read back as a finite float; each is raised before
    the file is opened.  ``columns`` may also be a 2-D float array, one
    column per row of it.  The rows are formatted in one ``%`` operation:
    the row format repeated once per row, fed every value as a Python float
    (a float32 value as its float64), row by row.  A file already at
    ``path`` is replaced (``open_new``)."""
    if len(columns) != len(names):
        raise ValueError(f"{path}: {len(columns)} columns for {len(names)} names")
    stripped = [name.strip() for name in names]  # as read_table reads the column line
    if repeated := [name for name in stripped if stripped.count(name) > 1]:
        raise ValueError(f"{path}: column {repeated[0]!r} is named more than once")
    for name, column in zip(names, columns):
        if not (isinstance(column, np.ndarray) and column.dtype.kind == "f"):
            raise ValueError(f"{path}: column {name!r} is not a float array")
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"{path}: columns differ in length")
    for name, column in zip(names, columns):
        if column.size:
            peak = float(column[np.argmax(np.abs(column))])  # a nan, else the largest
            if not math.isfinite(float("%.10g" % peak)):
                raise ValueError(f"{path}: column {name!r}: {peak!r} would not read back")
    n_rows = len(columns[0]) if len(columns) else 0
    row_format = ",".join(["%.10g"] * len(columns)) + "\n"
    rows = row_format * n_rows % tuple(np.column_stack(columns).ravel().tolist()) if n_rows else ""
    with open_new(path) as out:
        out.write("".join(f"# {line}\n" for line in comment_lines) + ",".join(names) + "\n"
                  + rows)


def read_table(path: str | Path,
               dtypes: dict | None = None) -> tuple[dict[str, str], list[str], list]:
    """Read a comma table: (metadata, column names, one numpy array per column).

    Every column is float64 unless ``dtypes`` names it: a tuple of text
    values means each stripped field's int8 index into it (as ``tuple.index``
    gives it: a repeated value reads as its first); a numpy number dtype
    means that dtype.  Lines that start with ``#`` and blank lines are
    skipped wherever they are; a ``#`` inside a row is text.  A file that
    does not decode, one holding a NUL character, one without a column line
    or naming a column twice in it, a row whose field count differs from it,
    a field that does not parse as its column's dtype (or is not in its
    tuple) and a float that is not finite are each a ``ConfigError`` naming
    the file (and the row and column).  Of several faulty rows, the first
    with a wrong field count is named; failing that, the first that does not
    parse; failing that, the first non-finite float.
    """
    text = read_text(path)
    if "\x00" in text:
        raise ConfigError(f"{path}: contains a NUL character")
    metadata: dict[str, str] = {}
    lines = []  # the column line, then the rows
    for line in text.splitlines():
        if line.startswith("#"):
            name, eq, value = line[1:].partition("=")
            if eq and name.strip().isidentifier():
                metadata[name.strip()] = value.strip()
        elif line.strip():
            lines.append(line)
    if not lines:
        raise ConfigError(f"{path}: no column names line")
    names = [name.strip() for name in lines[0].split(",")]
    if repeated := [name for name in names if names.count(name) > 1]:
        raise ConfigError(f"{path}: column {repeated[0]!r} is named more than once")
    rows = lines[1:]
    fields = [row.split(",") for row in rows]
    for row, cells in zip(rows, fields):
        if len(cells) != len(names):
            raise ConfigError(f"{path}: row {row!r} has {len(cells)} fields "
                              f"for {len(names)} columns; it does not match the header")

    def parse(column, kind):
        """The fields as one array of ``kind``, or None if one does not parse."""
        try:
            return (np.loadtxt(column, kind, delimiter=",", comments=None, ndmin=1)
                    if column else np.empty(0, kind))
        except ValueError:
            return None

    kinds = [(dtypes or {}).get(name, np.float64) for name in names]
    columns, faults = [], []  # faults: (row, column) of each column's first bad field
    for j, kind in enumerate(kinds):
        column = [cells[j].strip() for cells in fields]
        if isinstance(kind, tuple):
            index = {value: kind.index(value) for value in kind}
            codes = [index.get(field, -1) for field in column]
            if -1 in codes:
                faults.append((codes.index(-1), j))
            columns.append(np.array(codes, dtype=np.int8))
            continue
        # loadtxt skips an empty line, and its integer parser reads a C table
        # out of bounds (a crash) on a character above U+00FF, so an empty or
        # non-ASCII field goes in as '?', which no number dtype parses
        column = [field if field.isascii() and field else "?" for field in column]
        columns.append(parse(column, kind))
        if columns[-1] is None:
            faults.append((next(i for i, field in enumerate(column)
                                if parse([field], kind) is None), j))
    # a field that does not parse outranks any float that is not finite
    faults = faults or [(int(np.argmin(finite)), j) for j, array in enumerate(columns)
                        if array.dtype.kind == "f" and not (finite := np.isfinite(array)).all()]
    if faults:
        i, j = min(faults)
        kind = kinds[j]
        must = (f"one of {', '.join(kind)}" if isinstance(kind, tuple) else
                f"{'finite ' if np.dtype(kind).kind == 'f' else ''}{np.dtype(kind).name}")
        raise ConfigError(f"{path}: row {rows[i]!r}: {names[j]} must be {must}, "
                          f"got {fields[i][j].strip()!r}")
    return metadata, names, columns
