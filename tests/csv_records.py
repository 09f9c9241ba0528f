"""The README's conversion of a 0.5.0 record CSV to a record file.

Since 0.6.0 ``sim.read_records`` reads only the .npz record file.  A 0.5.0
record CSV still reads through ``core.read_table`` with its columns' dtypes,
which checks every row, and ``sim.write_records`` writes the batch it holds.
"""

import numpy as np

from omclab import core, sim


def convert(csv_path, path) -> None:
    """Write the records of the 0.5.0 record CSV at ``csv_path`` to ``path``."""
    metadata, _, (seq, label, time, *origin) = core.read_table(csv_path, {
        "sequence_index": np.int64, "pulse_label": core.LABELS,
        "click_time_fs": np.int64, "origin": sim.ORIGINS})
    batch = sim.RecordBatch(int(metadata["n_sequences"]), seq, np.zeros(seq.size, np.int16),
                            label, time, origin[0] if origin else None)
    sim.write_records(batch, path)
