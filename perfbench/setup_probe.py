"""Set-up as a user pays it: import the CLI (numpy, scipy and every omclab
module come with it) and load one config, then print ``ready``, the
``time.monotonic()`` reading at that moment and where omclab came from.

With ``--reference`` it imports instead the modules outside omclab that
``omclab.cli`` brings in at this commit (``REFERENCE_MODULES``), and no
omclab: the reference that set-up is measured against.  A change to which
modules omclab imports, or to what it does at import, moves the first and
not the second.

Usage: python3 perfbench/setup_probe.py <config>
       python3 perfbench/setup_probe.py --reference
"""

import sys
import time

REFERENCE_MODULES = (
    "argparse", "concurrent.futures", "dataclasses", "hashlib", "json", "math",
    "pathlib", "typing", "numpy", "scipy.constants", "scipy.linalg", "scipy.optimize",
    "scipy.sparse", "scipy.stats",
)

if sys.argv[1] == "--reference":
    import importlib

    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    print("ready", repr(time.monotonic()), "reference", flush=True)
else:
    import omclab.cli
    from omclab import core

    core.load_config(sys.argv[1])
    print("ready", repr(time.monotonic()), omclab.cli.__file__, flush=True)
