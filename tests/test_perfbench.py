"""One operation of each record-handling benchmark workload, with its checks.

``perfbench/workload.py`` calls omclab by name: the ``RecordBatch`` fields,
the record file functions under their 0.5.0 names ``write_records_csv`` and
``read_records_csv`` (aliases of ``write_records`` and ``read_records``; its
file is still called ``records.csv``, and the .npz writer uses the path as
given), ``assign_pulse_indices``, ``g2_crosscorr`` and the CLI.  Here each
workload runs one op on a copy of its config and must pass every check, so a
change that breaks the benchmark fails a test.
"""

import importlib
import re
import shutil
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 7


@pytest.fixture
def workload(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workload")


def _one_op(run, workload) -> list[str]:
    return run.check(run.op(workload.op_seed(SEED, 0)))


def test_dense_analysis_op_passes_its_checks(workload, tmp_path):
    config = tmp_path / "dense_analysis.cfg"
    text = (PERFBENCH / "configs" / "dense_analysis.cfg").read_text()
    config.write_text(re.sub(r"(?m)^sequence\.n_sequences = .*$",
                             "sequence.n_sequences = 20000", text))
    run = workload.DenseAnalysis(config, SEED, tmp_path)
    assert run.config.sequence.n_sequences == 20_000
    assert _one_op(run, workload) == []
    assert run.notes["clicks_per_seq"] > 0.1


def test_reproduce_all_op_passes_its_checks(workload, tmp_path, device_config_path):
    config = tmp_path / "gap_omc.cfg"
    shutil.copyfile(device_config_path, config)
    run = workload.ReproduceAll(config, SEED, tmp_path)
    assert _one_op(run, workload) == []
    assert "fig3b_dn0" in run.notes
