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

import functools
import math
import types
import typing
from dataclasses import MISSING, astuple, dataclass, field, fields
from pathlib import Path
from typing import Literal

Frequency = float  # ordinary frequency in Hz (f, not omega)

Side = Literal["red", "blue"]

# reduced Planck constant in J s; exact, as h is exact in SI since 2019
HBAR = 6.62607015e-34 / (2 * math.pi)


class ConfigError(ValueError):
    """Configuration file cannot be parsed or refers to unknown keys."""


class ValidationError(ConfigError):
    """A domain-type invariant is violated; the message names the invariant."""


class ModelValidityError(ValueError):
    """Inputs are outside the validity range of the physical model."""


# relative tolerance for the kappa = kappa_i + kappa_e consistency check
_KAPPA_CONSISTENCY_RTOL = 1e-6


@dataclass(frozen=True)
class OpticalCavity:
    """One-port optical cavity: resonance and linewidth budget (all in Hz).

    ``kappa_e`` is derived as ``kappa - kappa_i`` when not given.  When all
    three linewidths are supplied they must be consistent within 1 ppm;
    inconsistent triples are rejected rather than renormalized.
    """

    f_c: Frequency
    kappa: Frequency
    kappa_i: Frequency
    kappa_e: Frequency | None = None

    def __post_init__(self):
        if self.kappa_e is None:
            object.__setattr__(self, "kappa_e", self.kappa - self.kappa_i)
        if self.f_c <= 0:
            raise ValidationError("cavity: f_c must be positive")
        if not (0 < self.kappa_i <= self.kappa):
            raise ValidationError("cavity: 0 < kappa_i <= kappa required")
        if self.kappa_e < 0:
            raise ValidationError("cavity: kappa_e must be non-negative")
        if abs(self.kappa - (self.kappa_i + self.kappa_e)) > _KAPPA_CONSISTENCY_RTOL * self.kappa:
            raise ValidationError(
                "cavity: kappa = kappa_i + kappa_e violated beyond 1 ppm "
                f"(kappa={self.kappa!r}, kappa_i + kappa_e={self.kappa_i + self.kappa_e!r})"
            )


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
    # rows of (p_s, amplitude, n_instant), the fields of CalibrationPoint,
    # sorted by p_s
    calibration: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if not (self.tau_rise > 0 and self.tau_decay > 0):
            raise ValidationError("heating: tau_rise and tau_decay must be positive")
        if self.tau_decay <= self.tau_rise:
            raise ValidationError("heating: tau_decay > tau_rise required")
        ps = [row[0] for row in self.calibration]
        if ps != sorted(ps) or len(set(ps)) != len(ps):
            raise ValidationError("heating: calibration p_s values must be strictly increasing")

    def _lookup(self, p_s: float, column: int) -> float:
        table = self.calibration
        if not table:
            return 0.0
        xs = [row[0] for row in table]
        ys = [row[column] for row in table]
        if len(table) == 1:
            return max(0.0, ys[0])
        # piecewise linear with linear extrapolation from the end segments
        if p_s <= xs[0]:
            i = 0
        elif p_s >= xs[-1]:
            i = len(xs) - 2
        else:
            i = next(j for j in range(len(xs) - 1) if xs[j] <= p_s < xs[j + 1])
        slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        return max(0.0, ys[i] + slope * (p_s - xs[i]))

    def amplitude(self, p_s: float) -> float:
        """Delayed-heating amplitude A for a pulse of scattering probability p_s."""
        return self._lookup(p_s, 1)

    def instant_occupation(self, p_s: float) -> float:
        """Quasi-instantaneous occupation added by the pulse itself."""
        return self._lookup(p_s, 2)


@dataclass(frozen=True)
class MechanicalMode:
    """Mechanical mode: frequency, linewidth, baseline occupation, heating."""

    f_m: Frequency
    gamma_m: Frequency
    n_baseline: float = 0.0
    heating: HeatingParams = field(default_factory=HeatingParams)

    def __post_init__(self):
        if self.gamma_m <= 0:
            raise ValidationError("mode: gamma_m must be positive")
        if self.f_m <= self.gamma_m:
            raise ValidationError("mode: f_m > gamma_m required (resolved resonance)")
        if self.n_baseline < 0:
            raise ValidationError("mode: n_baseline must be non-negative")


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
                raise ValidationError(f"detection: {name} must lie in [0, 1]")
        if not (0.0 < self.eta_det <= 1.0):
            raise ValidationError("detection: eta_dev*eta_fc*eta_rest must lie in (0, 1]")
        if self.dark_rate < 0:
            raise ValidationError("detection: dark_rate must be non-negative")

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
        if self.side not in ("red", "blue"):
            raise ValidationError("pulse: side must be 'red' or 'blue'")
        if self.duration <= 0:
            raise ValidationError("pulse: duration must be positive")
        if self.peak_power < 0:
            raise ValidationError("pulse: peak_power must be non-negative")
        if self.start < 0:
            raise ValidationError("pulse: start must be non-negative")
        if self.window is not None and self.window < self.duration:
            raise ValidationError("pulse: window must cover the pulse duration")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def window_length(self) -> float:
        return self.duration if self.window is None else self.window

    @property
    def label(self) -> str:
        # blue pulses create excitations (write), red pulses read them out
        return "write" if self.side == "blue" else "read"


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses repeated at ``repetition_rate`` for ``n_sequences``."""

    pulses: tuple[Pulse, ...]
    repetition_rate: float
    n_sequences: int = 0

    def __post_init__(self):
        if self.repetition_rate <= 0:
            raise ValidationError("sequence: repetition_rate must be positive")
        if not 0 <= self.n_sequences < 2**63:  # sequence indices are int64
            raise ValidationError("sequence: n_sequences must lie in [0, 2**63)")
        ordered = sorted(self.pulses, key=lambda p: p.start)
        if tuple(ordered) != self.pulses:
            raise ValidationError("sequence: pulses must be listed in time order")
        for a, b in zip(self.pulses, self.pulses[1:]):
            if b.start < a.end:
                raise ValidationError("sequence: pulses must not overlap in time")
        if self.pulses and self.pulses[-1].end >= self.period:
            raise ValidationError("sequence: period 1/repetition_rate must exceed last pulse end")
        if any(p.start + p.window_length > self.period for p in self.pulses):
            raise ValidationError("sequence: detection window extends past the period")

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

    f_s: float                 # series (mechanical) resonance
    f_p: float                 # parallel resonance of the coupled system
    c_piezo: float             # resonator capacitance, F
    c_parasitic: float = 0.0   # on-chip parasitic capacitance, F
    f_m: float = field(kw_only=True)      # mechanical mode frequency used in the budget
    gamma_m: float = field(kw_only=True)  # mechanical loss rate, Hz
    k_eff2: float | None = None  # optional override for the coupling coefficient
    q_uw: float | None = None    # microwave resonator quality factor
    n_m: float | None = None     # residual mechanical occupation
    eta_e: float = 1.0           # external efficiency of the electrical input

    def __post_init__(self):
        if not (self.f_p >= self.f_s > 0):
            raise ValidationError("piezo: f_p >= f_s > 0 required")
        if not (self.c_piezo > 0 and self.c_parasitic >= 0):
            raise ValidationError("piezo: c_piezo > 0 and c_parasitic >= 0 required")
        if not (self.f_m > 0 and self.gamma_m > 0):
            raise ValidationError("piezo: f_m and gamma_m must be positive")
        if not (0 < self.k_eff2 < 1 if self.k_eff2 is not None else self.f_p > self.f_s):
            raise ValidationError("piezo: coupling must lie in (0, 1): 0 < k_eff2 < 1, "
                                  "or f_p > f_s without k_eff2")
        if self.q_uw is not None and self.q_uw <= 0:
            raise ValidationError("piezo: q_uw must be positive")
        if self.n_m is not None and self.n_m < 0:
            raise ValidationError("piezo: n_m must be non-negative")
        if not (0 < self.eta_e <= 1):
            raise ValidationError("piezo: eta_e must lie in (0, 1]")


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
            raise ValidationError("g0 must be positive")


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


@dataclass(frozen=True)
class CalibrationPoint:
    """One row of the heating calibration table (``heating.calib.N``)."""

    p_s: float
    amplitude: float
    n_instant: float


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
    calibration = tuple(astuple(_read(CalibrationPoint, entries, f"heating.calib.{i}"))
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
        return Path(path).read_text()
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
    sections += [(CalibrationPoint(*row), f"heating.calib.{i}")
                 for i, row in enumerate(heating.calibration)]
    sections.append((config.detection, "detection"))
    sections += [(pulse, f"pulse.{i}") for i, pulse in enumerate(config.sequence.pulses)]
    sections.append((config.sequence, "sequence"))
    if config.piezo is not None:
        sections.append((config.piezo, "piezo"))
    return "".join(f"{line}\n" for obj, prefix in sections for line in _write(obj, prefix))


# --- comma tables ----------------------------------------------------------------
#
# Every CSV omclab reads or writes (click records, user inputs, artifacts):
# `#` comment lines first, where `# <name>=<value>` is metadata; then one line
# of column names; then rows with exactly one field per column.  Tables move
# one column at a time: the reader returns one numpy array per column, and the
# writer takes one.  No Python code runs per field.


def write_table(path: str | Path, comment_lines: list[str], names: list[str],
                columns, float_format: str = "%.10g") -> None:
    """Write a comma table: ``# <line>`` per comment line, the column names,
    then one line per row of the equal-length ``columns`` (one numpy array
    per name).  A float column is written with ``float_format``, any other
    value as its ``str``; all rows come from one ``%`` call."""
    if len(columns) != len(names):
        raise ValueError(f"{path}: {len(columns)} columns for {len(names)} names")
    n_rows = len(columns[0]) if names else 0
    if any(len(column) != n_rows for column in columns):
        raise ValueError(f"{path}: columns differ in length")
    cells = [None] * (n_rows * len(names))
    for j, column in enumerate(columns):
        cells[j::len(names)] = column.tolist()
    row = ",".join(float_format if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    head = "".join(f"# {line}\n" for line in comment_lines) + ",".join(names) + "\n"
    Path(path).write_text(head + row * n_rows % tuple(cells))


def read_table(path: str | Path,
               dtypes: dict | None = None) -> tuple[dict[str, str], list[str], list]:
    """Read a comma table: (metadata, column names, one numpy array per column).

    Every column is float64 unless ``dtypes`` names it: ``str`` means text,
    each field stripped; a numpy dtype means that dtype.  Lines that start
    with ``#`` and blank lines are skipped wherever they are; a ``#`` inside
    a row is text.  A file that does not decode, one holding a NUL character,
    one without a column line, a row whose field count differs from it, a
    field that does not parse as its column's dtype and a float that is not
    finite are each a ``ConfigError`` naming the file (and the row and column).
    """
    import numpy as np  # only the table reader needs numpy; config parsing does not

    lines = read_text(path).splitlines()
    data = "\n".join([*lines, ""]).encode()
    if b"\x00" in data:  # a numpy text column would drop a field's trailing NULs
        raise ConfigError(f"{path}: contains a NUL character")
    # one scan of the lines' UTF-8 bytes: the separators give each line's
    # field count and each field's length in bytes (never fewer than its
    # characters: loadtxt silently cuts a text field longer than its column's
    # width), and a line's first byte is '#' only if its first character is
    text = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
    line_ends = np.flatnonzero(text[ends] == ord("\n"))
    fields = np.diff(line_ends, prepend=-1)
    comment = text[np.concatenate(([0], ends[line_ends] + 1))[:-1]] == ord("#")
    metadata: dict[str, str] = {}
    for i in np.flatnonzero(comment).tolist():
        name, eq, value = lines[i][1:].partition("=")
        if eq and name.strip().isidentifier():
            metadata[name.strip()] = value.strip()
    # only a line without a comma can be blank; str.isspace is str.strip's test
    kept = ~comment
    kept[[i for i in np.flatnonzero(kept & (fields == 1)).tolist()
          if not lines[i] or lines[i].isspace()]] = False
    body = np.flatnonzero(kept)
    if not body.size:
        raise ConfigError(f"{path}: no column names line")
    names = list(map(str.strip, lines[body[0]].split(",")))
    kept[body[0]] = False  # from here on, kept marks the rows
    at = body[1:]  # each row's line
    rows = [lines[i] for i in at.tolist()]
    bad = np.flatnonzero(fields[at] != len(names))
    if bad.size:
        raise ConfigError(f"{path}: row {rows[bad[0]]!r} has {fields[at[bad[0]]]} fields "
                          f"for {len(names)} columns; it does not match the header")
    lengths = np.diff(ends, prepend=-1)[np.repeat(kept, fields)] - 1
    widths = lengths.reshape(len(rows), len(names)).max(axis=0, initial=1)
    dtypes = dtypes or {}
    as_text = [f"U{width}" for width in widths]
    kinds = [as_text[j] if dtypes.get(name) is str else dtypes.get(name, np.float64)
             for j, name in enumerate(names)]

    def parse(rows, kinds=kinds):
        """The rows as one structured array, or None if a field does not parse."""
        dtype = np.dtype([(f"f{j}", kind) for j, kind in enumerate(kinds)])
        try:
            return (np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
                    if rows else np.empty(0, dtype))
        except ValueError:
            return None

    table = parse(rows)
    if table is None:
        # halve the rows until the first bad one is left (about one more
        # parse in all), then type its columns one at a time
        lo, hi = 0, len(rows)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if parse(rows[lo:mid]) is None else (mid, hi)
        faults = [(lo, j) for j in range(len(names))
                  if parse(rows[lo:hi], [*as_text[:j], kinds[j], *as_text[j + 1:]]) is None]
    else:
        faults = [(int(np.argmin(finite)), j) for j in range(len(names))
                  if table.dtype[j].kind == "f"
                  and not (finite := np.isfinite(table[f"f{j}"])).all()]
    if faults:
        i, j = min(faults)
        kind = np.dtype(kinds[j])
        raise ConfigError(f"{path}: row {rows[i]!r}: {names[j]} must be "
                          f"{'finite ' if kind.kind == 'f' else ''}{kind.name}, "
                          f"got {rows[i].split(',')[j].strip()!r}")
    return metadata, names, [np.char.strip(table[f"f{j}"]) if dtypes.get(name) is str
                             else np.ascontiguousarray(table[f"f{j}"])
                             for j, name in enumerate(names)]
