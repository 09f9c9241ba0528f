import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.constants
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omclab
from omclab import core
from omclab.cli import read_artifact_json
from omclab.core import (
    CalibrationPoint,
    ConfigError,
    DetectionChain,
    HeatingParams,
    MechanicalMode,
    OpticalCavity,
    Pulse,
    PulseSequence,
    parse_config,
    serialize_config,
)

DEVICE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "gap_omc.cfg"

MINIMAL = """
cavity.f_c = 194.8e12
cavity.kappa = 5.14e9
cavity.kappa_i = 1.31e9
mode.f_m = 2.905e9
mode.gamma_m = 13.8e3
detection.eta_dev = 0.745
detection.eta_fc = 0.55
detection.eta_rest = 0.05614
sequence.repetition_rate = 25e3
g0 = 845e3
"""


# each command's argv and the scipy modules loaded after it, in one process
_COMMANDS_SCRIPT = """
import json, sys
from omclab import cli


def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


report = [[None, 0, scipy_loaded() + ["concurrent.futures"] * ("concurrent.futures" in sys.modules)]]
for argv in json.loads(sys.argv[1]):
    report.append([argv, cli.main(argv), scipy_loaded()])
print(json.dumps(report))
"""


def test_cli_import_list_leaves_out_scipy_stats_and_constants(tmp_path):
    # importing the CLI loads neither scipy nor concurrent.futures (needed only
    # for --threads above 1); the paper's analysis commands, each of which fits
    # or solves a likelihood interval, load no scipy module either
    package_root = Path(omclab.__file__).resolve().parents[1]
    dense = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "dense_analysis.cfg"
    tau = np.geomspace(2e-8, 1e-4, 60)
    heating = 0.39 + 2.1 * np.exp(-tau / 22e-6) * -np.expm1(-tau / 165e-9)
    (tmp_path / "heating.csv").write_text(
        "tau_s,n_th\n" + "".join(f"{t!r},{n!r}\n" for t, n in zip(tau.tolist(), heating.tolist())))
    records, g2_json = tmp_path / "records.npz", tmp_path / "g2.json"
    commands = [
        ["reproduce", "all", "--config", DEVICE_CONFIG, "--seed", "0", "--out", tmp_path / "all"],
        ["reproduce", "fig3b", "--config", DEVICE_CONFIG, "--sequences", "10000000000",
         "--out", tmp_path / "fig3b"],
        ["fit", "--model", "biexp", "--data", tmp_path / "heating.csv"],
        ["fit", "--model", "lorentzian", "--data", tmp_path / "all" / "fig1b_reflection.csv"],
        ["simulate", "--config", dense, "--sequences", "20000", "--seed", "1", "--out", records],
        ["g2", "--records", records, "--out", g2_json],
    ]
    report = subprocess.run(
        [sys.executable, "-c", _COMMANDS_SCRIPT,
         json.dumps([[str(arg) for arg in argv] for argv in commands])],
        env={**os.environ, "PYTHONPATH": str(package_root)},
        capture_output=True, text=True, check=True).stdout.splitlines()[-1]
    assert json.loads(report) == [[None, 0, []]] + [
        [[str(arg) for arg in argv], 0, []] for argv in commands]
    # the g2 and fig3b commands each solved an interval about a coincidence count
    assert any(e["counts"][0] > 0 for e in read_artifact_json(g2_json)["estimates"])
    fig3b = read_artifact_json(tmp_path / "fig3b" / "fig3b_g2.json")["estimates"]
    assert any(e["counts"][0] > 0 for e in fig3b)
    assert core.HBAR == scipy.constants.hbar


def test_device_config_loads(device_config):
    assert device_config.cavity.kappa == 5.14e9
    assert device_config.mode.gamma_m == 13.8e3
    assert device_config.cavity.kappa_e == pytest.approx(3.83e9)
    assert device_config.detection.eta_det == pytest.approx(0.023, rel=1e-3)
    assert device_config.sequence.pulses[0].side == "blue"


def test_minimal_config_defaults():
    config = parse_config(MINIMAL)
    # empty heating block: no instantaneous or delayed heating at any p_s
    assert config.mode.heating.calibration == ()
    assert config.mode.heating.instant_occupation(0.02) == 0.0
    assert config.mode.heating.amplitude(0.02) == 0.0
    assert config.mode.n_baseline == 0.0
    assert config.detection.dark_rate == 0.0
    assert config.sequence.pulses == ()
    assert config.piezo is None


def test_config_round_trip(device_config):
    text = serialize_config(device_config)
    again = parse_config(text)
    assert again == device_config
    assert serialize_config(again) == text


@pytest.mark.parametrize("n_sequences", [2**53 + 1, 2**63 - 1])
def test_config_round_trip_keeps_an_integer_exact(n_sequences):
    # an integer key is read as an integer, not through a float that would
    # round it to a multiple of a power of two
    config = parse_config(MINIMAL + f"sequence.n_sequences = {n_sequences}\n")
    assert config.sequence.n_sequences == n_sequences
    assert parse_config(serialize_config(config)) == config
    assert parse_config(MINIMAL + "sequence.n_sequences = 1e6\n").sequence.n_sequences == 10**6


def test_every_field_is_a_serialized_key(device_config):
    # every optional field set, so no key is omitted from the text
    piezo = dataclasses.replace(device_config.piezo, k_eff2=1.7e-4, q_uw=170.0, n_m=0.35)
    pulses = tuple(dataclasses.replace(p, window=20e-6) for p in device_config.sequence.pulses)
    config = dataclasses.replace(
        device_config, piezo=piezo,
        detection=dataclasses.replace(device_config.detection, filter_suppression_db=90.0),
        sequence=dataclasses.replace(device_config.sequence, pulses=pulses))
    text = serialize_config(config)
    keys = [line.split(" = ", 1)[0] for line in text.splitlines()]
    sections = [(config, ""), (config.cavity, "cavity"), (config.mode, "mode"),
                (config.mode.heating, "heating"), (config.detection, "detection"),
                (config.sequence, "sequence"), (piezo, "piezo")]
    sections += [(p, f"pulse.{i}") for i, p in enumerate(pulses)]
    expected = {f"{prefix}.{f.name}".lstrip(".")
                for obj, prefix in sections for f in dataclasses.fields(obj)
                if isinstance(getattr(obj, f.name), (str, int, float))}
    expected |= {f"heating.calib.{i}.{name}"
                 for i in range(len(config.mode.heating.calibration))
                 for name in ("p_s", "amplitude", "n_instant")}
    assert len(keys) == len(set(keys))
    assert set(keys) == expected
    assert parse_config(text) == config


def test_non_finite_values_rejected():
    with pytest.raises(ConfigError, match="g0"):
        parse_config(MINIMAL.replace("g0 = 845e3", "g0 = nan"))
    with pytest.raises(ConfigError, match="n_sequences"):
        parse_config(MINIMAL + "sequence.n_sequences = 1e400\n")
    with pytest.raises(ConfigError, match="n_baseline"):
        parse_config(MINIMAL + "mode.n_baseline = inf\n")
    with pytest.raises(ConfigError, match="filter_suppression_db"):
        parse_config(MINIMAL + "detection.filter_suppression_db = -inf\n")
    with pytest.raises(ConfigError, match="n_sequences"):
        parse_config(MINIMAL + "sequence.n_sequences = 2.5\n")
    # inf where it is the field's default (no filter line) round-trips
    config = parse_config(MINIMAL + "detection.filter_suppression_db = inf\n")
    assert config.detection.filter_suppression_db == math.inf
    assert parse_config(serialize_config(config)) == config


def _device_entries() -> list[tuple[str, str]]:
    entries = []
    for raw in DEVICE_CONFIG.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            entries.append((key, value))
    return entries


_DEVICE_ENTRIES = _device_entries()
_ODD_VALUES = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-0", "", "0",
                               "-1", "1e-400", "red", "blue", "1.5"])


def _mutated_device_text(kind: str, draw) -> str:
    entries = list(_DEVICE_ENTRIES)
    i = draw(st.integers(0, len(entries) - 1))
    key, value = entries[i]
    if kind == "replace":
        entries[i] = (key, draw(st.one_of(_ODD_VALUES, st.floats().map(repr),
                                          st.text(max_size=12))))
    elif kind == "drop":
        del entries[i]
    elif kind == "unknown":
        name = draw(st.from_regex(r"[a-z_0-9]{1,8}", fullmatch=True))
        entries.insert(i, (f"{key.rpartition('.')[0]}.x{name}".lstrip("."), "1.0"))
    else:
        entries.insert(i + 1, (key, value))
    return "".join(f"{k} = {v}\n" for k, v in entries)


@pytest.mark.parametrize("kind", ["replace", "drop", "unknown", "duplicate"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_config_round_trips_or_raises_config_error(kind, data):
    # starting from the device config: one value replaced by arbitrary text,
    # one key dropped, one unknown key added, or one key duplicated
    text = _mutated_device_text(kind, data.draw)
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert kind in ("replace", "drop")  # unknown and duplicate keys never parse
    assert parse_config(serialize_config(config)) == config


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_table_round_trip_gives_each_field_text(tmp_path_factory, data):
    # each float column reads back as %.10g of each value.  A float that
    # %.10g rounds past the largest float64 is refused before the file is
    # opened
    n_rows = data.draw(st.integers(0, 6))
    columns, expected = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=n_rows, max_size=n_rows))
        columns.append(np.array(values))
        expected.append([float("%.10g" % v) for v in values])
    names = [f"c{j}" for j in range(len(columns))]
    path = tmp_path_factory.mktemp("table") / "table.csv"
    if any(v in (math.inf, -math.inf) for values in expected for v in values):
        with pytest.raises(ValueError, match="would not read back"):
            core.write_table(path, ["omclab fuzz"], names, columns)
        assert not path.exists()
        return
    core.write_table(path, ["omclab fuzz", f"rows={n_rows}"], names, columns)
    metadata, read_names, read_columns = core.read_table(path)
    assert metadata == {"rows": str(n_rows)}
    assert read_names == names
    assert [c.tolist() for c in read_columns] == expected


# signed values from about 1e-300 to 1e300, with more digits than %.10g keeps
_WIDE_RANGE = np.random.default_rng(7).standard_normal(1000) * np.logspace(-300, 300, 1000)


@pytest.mark.parametrize("columns, rows", [
    # one column: a whole number without a point, a fraction, a negative zero
    ([np.array([3.0, 0.1, -0.0, 2.5])], ["3", "0.1", "-0", "2.5"]),
    # ten significant digits, exponents on both sides, the smallest subnormal
    ([np.array([123456789012.0, 1e-300, 5e-324]), np.array([1 / 3, 1e16, -2.5e-7])],
     ["1.23456789e+11,0.3333333333", "1e-300,1e+16", "4.940656458e-324,-2.5e-07"]),
    # the largest float64 that %.10g does not round past it
    ([np.array([1.7976931344e308]), np.array([-1.7976931344e308])],
     ["1.797693134e+308,-1.797693134e+308"]),
    # a float32 column is written as the float64 of each value
    ([np.array([0.1, 4.0], dtype=np.float32)], ["0.1000000015", "4"]),
    # no rows
    ([np.array([]), np.array([])], []),
    # a 2-D array, one column per row of it, as cavity-probe passes spectrum.T
    (np.array([[1.5, -0.0], [1 / 3, 1e16], [5e-324, -2.5e-7]]),
     ["1.5,0.3333333333,4.940656458e-324", "-0,1e+16,-2.5e-07"]),
    # a float32 column beside a float64 one: each value as its own float64
    ([np.array([0.1, 4.0], dtype=np.float32), np.array([0.1, 2 / 3])],
     ["0.1000000015,0.1", "4,0.6666666667"]),
    # one column of 1000 rows, against the per-value join
    ([_WIDE_RANGE], ["%.10g" % value for value in _WIDE_RANGE.tolist()]),
])
def test_write_table_writes_each_value_as_10g(tmp_path, columns, rows):
    # the comment lines, the names, then each row's values %.10g and joined
    # by commas
    names = [f"c{j}" for j in range(len(columns))]
    path = tmp_path / "table.csv"
    core.write_table(path, ["n=1", "détecteur"], names, columns)
    assert path.read_text(encoding="utf-8") == (
        "# n=1\n# détecteur\n" + ",".join(names) + "\n" + "".join(f"{row}\n" for row in rows))


@pytest.mark.parametrize("columns, value", [
    # read_table refuses a float that is not finite, and %.10g rounds the
    # largest float64s past it
    ([np.array([1.5, np.nan, np.inf])], math.nan),
    ([np.array([0.5, 0.25]), np.array([-np.inf, 2.0])], -math.inf),
    ([np.array([2.0]), np.array([3.0]), np.array([np.inf])], math.inf),
    ([np.array([1.0, 1.7976931345e308])], 1.7976931345e308),
    ([np.array([-1.7976931345e308]), np.array([4.0])], -1.7976931345e308),
])
def test_write_table_refuses_a_cell_it_would_not_read_back(tmp_path, columns, value):
    path = tmp_path / "table.csv"
    names = [f"c{j}" for j in range(len(columns))]
    column = next(j for j, c in enumerate(columns)  # by repr, which also matches a nan
                  if repr(value) in map(repr, c.tolist()))
    with pytest.raises(ValueError) as exc:
        core.write_table(path, [], names, columns)
    assert str(exc.value) == f"{path}: column 'c{column}': {value!r} would not read back"
    assert not path.exists()


@pytest.mark.parametrize("column", [
    np.array([1, 2], dtype=np.int64), np.array([True, False]), np.array(["write", "read"]),
    np.array([b"write", b"read"]), np.array([1.5, 2.5], dtype=object),
    (("write", "read"), np.array([0, 1])), [1.5, 2.5],
], ids=["int64", "bool", "str", "bytes", "object", "coded", "list"])
def test_write_table_refuses_a_column_that_is_not_float(tmp_path, column):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError) as exc:
        core.write_table(path, [], ["x", "label"], [np.array([1.5, 2.5]), column])
    assert str(exc.value) == f"{path}: column 'label' is not a float array"
    assert not path.exists()


@pytest.mark.parametrize("names", [["x", "x"], ["x", "y", " x"], ["n", "n"]])
def test_write_table_refuses_a_repeated_column(tmp_path, names):
    # read_table refuses a column line that names a column twice, after
    # stripping each name, so the writer does not write one
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError) as exc:
        core.write_table(path, [], names, [np.array([1, 2])] * len(names))
    assert str(exc.value) == f"{path}: column {names[-1].strip()!r} is named more than once"
    assert not path.exists()


def test_write_table_replaces_an_existing_file(tmp_path):
    # a write over a longer file gives a fresh write's bytes in a new file,
    # so a hard link to the old one keeps its bytes, and a write over a
    # symlink writes through it to the link's target
    columns = [np.array([1.5, 2.5])]
    fresh, path, target = tmp_path / "fresh.csv", tmp_path / "table.csv", tmp_path / "target"
    core.write_table(fresh, ["n=1"], ["x"], columns)
    old = "# old\nx\n" + "9\n" * 1000
    path.write_text(old, encoding="utf-8")
    (tmp_path / "old.csv").hardlink_to(path)
    core.write_table(path, ["n=1"], ["x"], columns)
    assert path.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "old.csv").read_text(encoding="utf-8") == old
    target.write_text(old, encoding="utf-8")
    path.unlink()
    path.symlink_to(target)
    core.write_table(path, ["n=1"], ["x"], columns)
    assert path.is_symlink() and target.read_bytes() == fresh.read_bytes()


def test_a_refused_write_table_leaves_the_old_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# old\nx\n1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="would not read back"):
        core.write_table(path, [], ["x"], [np.array([np.nan])])
    assert path.read_text(encoding="utf-8") == "# old\nx\n1\n"


def test_coded_column_reads_each_field_as_its_index(tmp_path):
    # padded fields, a value that another value starts with, and no rows
    path = tmp_path / "table.csv"
    path.write_text("n,label\n1,read\n2,  write \n3,re\n4,read\n")
    _, _, (n, label) = core.read_table(path, {"n": np.int64, "label": ("write", "read", "re")})
    assert label.dtype == np.int8 and label.tolist() == [1, 0, 2, 1]
    # a '#' after a value's first character, a '#' first in a later field, and
    # a row of blank values
    path.write_text("s,t\na#,#b\n,\nx y,c\n")
    _, _, (s, t) = core.read_table(path, {"s": ("a#", "", "x y"), "t": ("#b", "", "c")})
    assert s.tolist() == t.tolist() == [0, 1, 2]
    path.write_text("n,label\n")
    _, _, (n, label) = core.read_table(path, {"n": np.int64, "label": ("write", "read")})
    assert label.dtype == np.int8 and label.size == 0


@pytest.mark.parametrize("text, row", [
    # a miss outranks a non-finite float in an earlier row
    ("n,s,x\n1,a,nan\n" + "2,b,0.5\n" * 20 + "3,z,0.5\n", "3,z,0.5"),
    # a miss before a field that does not parse is named first
    ("n,s,x\n" + "2,b,0.5\n" * 3 + "3,z,0.5\n4,a,abc\n", "3,z,0.5"),
    # and after one, second
    ("n,s,x\n" + "2,b,0.5\n" * 3 + "4,a,abc\n3,z,0.5\n", "4,a,abc"),
    # in one row: the first column that does not parse, a miss before a
    # field that does not parse, and a miss before a non-finite float
    ("n,s,x\nq,z,0.5\n", "q,z,0.5"),
    ("n,s,x\n2,b,0.5\n3,z,abc\n", "3,z,abc"),
    ("n,s,x\n1,z,nan\n", "1,z,nan"),
    # a wrong field count outranks a field that does not parse in an earlier
    # row, and a field that does not parse a non-finite float in an earlier one
    ("n,x\n1,abc\n" + "2,0.5\n" * 20 + "3,0.5,9\n", "3,0.5,9"),
    ("n,x\n1,nan\n" + "2,0.5\n" * 20 + "abc,0.5\n", "abc,0.5"),
])
def test_coded_field_outside_its_values_does_not_parse(tmp_path, text, row):
    # a field outside its tuple is a field that does not parse: named as one,
    # in the same order of faults
    path = tmp_path / "table.csv"
    path.write_text(text)
    dtypes = {"n": np.int64, "s": ("a", "b")}
    with pytest.raises(ConfigError) as expected:
        _reference_read_table(path, dtypes)
    assert f"row {row!r}" in str(expected.value)
    with pytest.raises(ConfigError) as got:
        core.read_table(path, dtypes)
    assert str(got.value) == str(expected.value)
    if row == "3,z,0.5":
        assert str(got.value).endswith("s must be one of a, b, got 'z'")


def test_typed_table_reads_each_field_back_exactly(tmp_path):
    # a label wider than any number (a width taken from the numeric fields
    # would cut it), multi-byte UTF-8, a '#' inside a field, blank and
    # whitespace-only lines (one of no-break spaces) and a comment between rows
    path = tmp_path / "table.csv"
    path.write_text("# rows=3\nn,label,x\n"
                    "1,a label longer than every number in this file,2.5\n"
                    "  \t\n\n\xa0\xa0\n"
                    "22,détecteur 光子,-3\n"
                    "# a comment between rows\n"
                    "333, dark#x ,1e-9\n", encoding="utf-8")
    labels = ("dark#x", "détecteur 光子", "a label longer than every number in this file")
    metadata, names, (n, label, x) = core.read_table(path, {"n": np.int64, "label": labels})
    assert metadata == {"rows": "3"}
    assert names == ["n", "label", "x"]
    assert n.dtype == np.int64 and n.tolist() == [1, 22, 333]
    assert x.dtype == np.float64 and x.tolist() == [2.5, -3.0, 1e-9]
    assert label.dtype == np.int8 and label.tolist() == [2, 1, 0]


def test_header_only_table_reads_empty_columns(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# rows=0\nn,label\n")
    _, names, (n, label) = core.read_table(path, {"n": np.int64, "label": ("write", "read")})
    assert names == ["n", "label"]
    assert n.dtype == np.int64 and n.size == 0
    assert label.dtype == np.int8 and label.size == 0


@pytest.mark.parametrize("column, field", [
    ("x", "abc"), ("x", "nan"), ("x", "-inf"), ("x", "1e400"),
    ("n", "1.5"), ("n", "99999999999999999999"),
])
def test_bad_number_names_file_row_and_column(tmp_path, column, field):
    # the bad field sits in the last of several rows, after a comment line,
    # so neither numpy's data-row count nor a line count names it
    bad = f"7,last,{field}" if column == "x" else f"{field},last,0.5"
    rows = [f"{i},label {i},{i / 4}" for i in range(5)] + [bad]
    path = tmp_path / "table.csv"
    path.write_text("# rows=6\nn,label,x\n# a comment\n" + "\n".join(rows) + "\n")
    with pytest.raises(ConfigError) as exc:
        core.read_table(path, {"n": np.int64,
                               "label": ("last", *(f"label {i}" for i in range(5)))})
    message = str(exc.value)
    assert str(path) in message and repr(bad) in message and f"{column} must be" in message


def _reference_read_table(path, dtypes):
    """read_table one line at a time: splitlines, a '#' as the first character
    marks a comment, str.strip finds a blank line; each field typed by its
    dtype's constructor, or its stripped text's index in its tuple (parse
    errors before non-finite floats)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    metadata = {}
    for line in lines:
        if line.startswith("#"):
            name, eq, value = line[1:].partition("=")
            if eq and name.strip().isidentifier():
                metadata[name.strip()] = value.strip()
    body = [line for line in lines if not line.startswith("#") and line.strip()]
    if not body:
        raise ConfigError(f"{path}: no column names line")
    names = [name.strip() for name in body[0].split(",")]
    rows = body[1:]
    for row in rows:
        if len(row.split(",")) != len(names):
            raise ConfigError(f"{path}: row {row!r} has {len(row.split(','))} fields "
                              f"for {len(names)} columns; it does not match the header")
    fields = [row.split(",") for row in rows]
    kinds = [dtypes.get(name, np.float64) for name in names]

    def fault(i, j, kind):
        if isinstance(kind, tuple):
            must = f"one of {', '.join(kind)}"
        else:
            kind = np.dtype(kind)
            must = f"{'finite ' if kind.kind == 'f' else ''}{kind.name}"
        return ConfigError(f"{path}: row {rows[i]!r}: {names[j]} must be {must}, "
                           f"got {fields[i][j].strip()!r}")

    values = [[None] * len(names) for _ in rows]
    for i, row in enumerate(fields):
        for j, (field, kind) in enumerate(zip(row, kinds)):
            if isinstance(kind, tuple):
                if field.strip() not in kind:
                    raise fault(i, j, kind)
                values[i][j] = kind.index(field.strip())
            else:
                try:
                    values[i][j] = np.dtype(kind).type(field)
                except (ValueError, OverflowError):
                    raise fault(i, j, kind) from None
    for i, row in enumerate(values):
        for j, value in enumerate(row):
            if kinds[j] is np.float64 and not np.isfinite(value):
                raise fault(i, j, kinds[j])
    columns = [np.array([row[j] for row in values],
                        dtype=np.int8 if isinstance(kind, tuple) else kind)
               for j, kind in enumerate(kinds)]
    return metadata, names, columns


_WHITESPACE = " \t\xa0\u3000\x1f\u2003"
# what splitlines breaks a line at; "\r" and "\r\n" also meet newline translation
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]
# any character but a comma, a line break or NUL (a NUL is an error, tested below)
_FIELD_TEXT = st.text(st.characters(exclude_categories=("Cs",),
                                    exclude_characters=",\x00" + "".join(_LINE_BREAKS)),
                      max_size=6)
_PAD = st.sampled_from(["", " ", "\t", "  "])
_CODED = ("b", "ab", "c d")  # a coded column's values, one the end of another
_REPEATED = ("a", "b", "a")  # a repeated value reads as its first index
_NUMBER_FIELDS = {
    np.int64: st.one_of(st.integers(-2**63, 2**63 - 1).map(str),
                        st.sampled_from(["1.5", "99999999999999999999", "abc", "", "\U0010ffff",
                                         "7\u3000"])),
    np.float64: st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                          st.sampled_from(["nan", "-inf", "1e400", "abc", ""])),
}


@st.composite
def _table_text(draw):
    """Rows of 1-3 typed columns, with comment, empty, whitespace-only and
    short or long lines between them, joined by any of splitlines' breaks."""
    kinds = draw(st.lists(st.sampled_from([np.int64, np.float64, _CODED, _REPEATED]),
                          min_size=1, max_size=3))
    names = [f"c{j}" for j in range(len(kinds))]

    def field(kind):
        if isinstance(kind, tuple):  # mostly one of its values, padded or not
            if draw(st.integers(0, 9)):
                return draw(_PAD) + draw(st.sampled_from(kind)) + draw(_PAD)
            return draw(_FIELD_TEXT)
        # numbers mostly valid, so that most tables parse
        if draw(st.integers(0, 9)):
            value = (draw(st.integers(-10**6, 10**6)) if kind is np.int64
                     else draw(st.floats(-1e6, 1e6)))
            return draw(_PAD) + repr(value) + draw(_PAD)
        return draw(_NUMBER_FIELDS[kind])

    def row(n_fields):
        return ",".join(field(kinds[j % len(kinds)]) for j in range(n_fields))

    lines = [draw(st.sampled_from(["", " # not a comment", "#c0,c1"]))
             for _ in range(draw(st.integers(0, 1)))]
    lines.append(",".join(draw(_PAD) + name + draw(_PAD) for name in names))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append("#" + draw(st.sampled_from(["", " rows=3", "key = v", "x="]))
                         + draw(_FIELD_TEXT))
        elif kind == 1:
            lines.append("")
        elif kind == 2:
            lines.append(draw(st.text(st.sampled_from(_WHITESPACE), min_size=1, max_size=4)))
        elif kind == 3:
            lines.append(row(len(kinds) + draw(st.sampled_from([-1, 1]))))
        else:
            lines.append(row(len(kinds)))
    text = "".join(line + draw(st.sampled_from(_LINE_BREAKS)) for line in lines)
    dtypes = {name: kind for name, kind in zip(names, kinds) if kind is not np.float64}
    return text, dtypes


@settings(max_examples=300, deadline=None)
@given(case=_table_text())
@example(case=("c0,c1\na,1\n b ,2\na ,3\n", {"c0": _REPEATED}))
def test_read_table_keeps_per_line_semantics(tmp_path_factory, case):
    # read_table classifies lines exactly as splitlines, startswith('#') and
    # str.strip do: same metadata, names, column values and dtypes, or the
    # same error
    text, dtypes = case
    path = tmp_path_factory.mktemp("table") / "table.csv"
    path.write_bytes(text.encode())
    try:
        expected = _reference_read_table(path, dtypes)
    except ConfigError as exc:
        expected = exc
    if isinstance(expected, ConfigError):
        with pytest.raises(ConfigError) as got:
            core.read_table(path, dtypes)
        assert str(got.value) == str(expected)
        return
    metadata, names, columns = core.read_table(path, dtypes)
    assert (metadata, names) == expected[:2]
    assert [c.dtype for c in columns] == [c.dtype for c in expected[2]]
    assert [c.tolist() for c in columns] == [c.tolist() for c in expected[2]]


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # under the C locale, without UTF-8 mode, Python's default encoding is ASCII
    table = tmp_path / "table.csv"
    table.write_bytes("label,x\ndétecteur 光子,1\n".encode())
    config = tmp_path / "device.cfg"
    config.write_bytes(DEVICE_CONFIG.read_bytes() + "# détecteur\n".encode())
    package_root = Path(omclab.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c", "import sys; from omclab import core; "
         "core.load_config(sys.argv[2]); "
         "values = ('d\\xe9tecteur \\u5149\\u5b50',); "
         "_, names, (label, x) = core.read_table(sys.argv[1], {'label': values}); "
         "core.write_table(sys.argv[1], [values[label[0]]], ['x'], [x])", table, config],
        env={**os.environ, "PYTHONPATH": str(package_root), "LC_ALL": "C",
             "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        capture_output=True, check=True)
    assert table.read_bytes() == "# détecteur 光子\nx\n1\n".encode()


@pytest.mark.parametrize("kind", [np.int64, np.uint8, np.bool_])
def test_integer_field_beyond_latin1_does_not_parse(tmp_path, kind):
    # numpy's integer parser looks each character up in a C table, out of its
    # bounds above U+00FF (a crash, now and then): such a field is one that
    # does not parse, and a number padded by such whitespace still parses
    path = tmp_path / "table.csv"
    path.write_text("n,s\n\u30001\u3000,détecteur\n", encoding="utf-8")
    assert core.read_table(path, {"n": kind, "s": ("détecteur",)})[2][0].tolist() == [1]
    path.write_text("n,s\n1,détecteur\n\U0010ffff,détecteur\n", encoding="utf-8")
    for _ in range(100):
        with pytest.raises(ConfigError) as exc:
            core.read_table(path, {"n": kind, "s": ("détecteur",)})
    assert str(exc.value) == (f"{path}: row '\\U0010ffff,détecteur': n must be "
                              f"{np.dtype(kind).name}, got '\\U0010ffff'")


@pytest.mark.parametrize("text", ["", "# rows=0\n# only comments\n\n"])
def test_table_without_column_line_is_a_config_error(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match="no column names line"):
        core.read_table(path)


@pytest.mark.parametrize("header, name", [("x,y,x", "x"), ("a, b,c ,b", "b"),
                                          ("t,t,t", "t")])
def test_table_header_that_repeats_a_name_is_a_config_error(tmp_path, header, name):
    # names are stripped, so " b" and "b" are one name; the rows parse
    path = tmp_path / "table.csv"
    path.write_text(f"# n=1\n{header}\n" + ",".join("1" * len(header.split(","))) + "\n")
    with pytest.raises(ConfigError) as exc:
        core.read_table(path)
    assert str(exc.value) == f"{path}: column {name!r} is named more than once"


@pytest.mark.parametrize("text", ["s,x\na\x00,1\n", "s,x\n\x00a,1\n", "# c\x00\ns,x\nb,1\n",
                                  "s,x\nb,1\x00\n"])
def test_table_with_a_nul_is_a_config_error(tmp_path, text):
    # numpy text columns would drop a trailing NUL (a\x00 would read back as a)
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match="NUL") as exc:
        core.read_table(path, {"s": ("a", "b")})
    assert str(path) in str(exc.value)


def test_one_column_table_skips_blank_lines(tmp_path):
    # no row has a comma, so every line is a candidate blank line; the
    # whitespace-only lines include non-ASCII ones (\xa0, \u3000)
    path = tmp_path / "table.csv"
    path.write_text("x\n1.5\n\n  \n2\n\xa0\n\u3000\t\n-3e2\n", encoding="utf-8")
    _, names, (x,) = core.read_table(path)
    assert names == ["x"] and x.tolist() == [1.5, 2.0, -300.0]


def test_external_coupling_is_derived():
    cav = OpticalCavity(f_c=194.8e12, kappa=5.14e9, kappa_i=1.31e9)
    assert cav.kappa_e == 5.14e9 - 1.31e9
    with pytest.raises(TypeError):
        OpticalCavity(f_c=194.8e12, kappa=5.14e9, kappa_i=1.31e9, kappa_e=3.83e9)


def test_kappa_i_larger_than_kappa_rejected():
    with pytest.raises(ConfigError):
        OpticalCavity(f_c=194.8e12, kappa=1.0e9, kappa_i=2.0e9)


def test_readme_key_table_lists_every_schema_key():
    # the first column of the README's key table, `{a,b}` expanded, against
    # <section>.<field> of every scalar field of the schema dataclasses
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            for key in re.findall(r"`([^`]+)`", row.split("|")[1]):
                head, _, names = key.rstrip("}").partition("{")
                documented.update(head + name for name in (names.split(",") if names else [""]))
    sections = {"": core.ExperimentConfig, "cavity": OpticalCavity, "mode": MechanicalMode,
                "heating": HeatingParams, "heating.calib.N": core.CalibrationPoint,
                "detection": DetectionChain, "pulse.N": Pulse, "sequence": PulseSequence,
                "piezo": core.PiezoInterface}
    schema = {f"{prefix}.{name}".lstrip(".") for prefix, cls in sections.items()
              for name, *_ in core._scalar_fields(cls)}
    assert documented == schema


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="mode.f_n"):
        parse_config(MINIMAL + "mode.f_n = 1.0\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line"):
        parse_config("cavity.f_c 194.8e12\n")


def test_comments_and_blank_lines_ignored():
    config = parse_config("# leading comment\n\n" + MINIMAL + "  # trailing\n")
    assert config.cavity.f_c == 194.8e12


def test_mode_invariants():
    with pytest.raises(ConfigError):
        MechanicalMode(f_m=1e3, gamma_m=2e3)  # not resolved
    with pytest.raises(ConfigError):
        MechanicalMode(f_m=1e9, gamma_m=0.0)


def test_heating_params_invariants():
    with pytest.raises(ConfigError):
        HeatingParams(tau_rise=1e-6, tau_decay=1e-7)
    with pytest.raises(ConfigError):
        HeatingParams(calibration=(CalibrationPoint(0.02, 1.0, 0.1),
                                   CalibrationPoint(0.01, 0.5, 0.05)))


def test_heating_interpolation_and_extrapolation():
    params = HeatingParams(calibration=(CalibrationPoint(0.01, 1.0, 0.1),
                                     CalibrationPoint(0.03, 3.0, 0.3)))
    assert params.amplitude(0.02) == pytest.approx(2.0)
    assert params.instant_occupation(0.02) == pytest.approx(0.2)
    # linear extrapolation, clamped at zero
    assert params.amplitude(0.05) == pytest.approx(5.0)
    assert params.amplitude(0.0) == 0.0
    single = HeatingParams(calibration=(CalibrationPoint(0.01, 1.5, 0.2),))
    assert single.amplitude(0.5) == 1.5


def test_detection_chain_invariants():
    with pytest.raises(ConfigError):
        DetectionChain(eta_dev=1.2, eta_fc=0.5, eta_rest=0.5)
    with pytest.raises(ConfigError):
        DetectionChain(eta_dev=0.0, eta_fc=0.5, eta_rest=0.5)  # product must be > 0
    chain = DetectionChain(eta_dev=0.745, eta_fc=0.55, eta_rest=0.05614)
    assert chain.eta_det == pytest.approx(0.745 * 0.55 * 0.05614)


def test_pulse_sequence_invariants():
    a = Pulse("blue", 40e-9, 25e-9, 0.0)
    b = Pulse("red", 40e-9, 750e-9, 20e-9)  # overlaps a
    with pytest.raises(ConfigError, match="overlap"):
        PulseSequence((a, b), 25e3, 10)
    c = Pulse("red", 40e-9, 750e-9, 190e-9)
    seq = PulseSequence((a, c), 25e3, 10)
    assert seq.period == pytest.approx(40e-6)
    with pytest.raises(ConfigError, match="period"):
        PulseSequence((Pulse("red", 40e-9, 0.0, 39.99e-6),), 25e3, 10)
    with pytest.raises(ConfigError, match="order"):
        PulseSequence((c, a), 25e3, 10)


def test_pulse_window_must_cover_duration():
    with pytest.raises(ConfigError, match="window"):
        Pulse("red", 40e-9, 1e-9, 0.0, window=10e-9)


def test_frequencies_stored_as_ordinary_hz(device_config):
    # quantities quoted as "2*pi x X" are stored as plain X
    assert device_config.cavity.kappa == 5.14e9
    assert math.isclose(device_config.mode.f_m / device_config.mode.gamma_m,
                        2.1e5, rel_tol=0.02)
