from pathlib import Path

import pytest
from hypothesis import settings

import omclab.cli  # noqa: F401  (see below)
from omclab import load_config

# Hypothesis draws literal constants it finds in the local modules already
# imported, so a test's examples would depend on which test files a run
# collects; omclab.cli imports every omclab module, here, before any test runs.

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

REPO_ROOT = Path(__file__).resolve().parents[1]
DEVICE_CONFIG = REPO_ROOT / "configs" / "gap_omc.cfg"


@pytest.fixture(scope="session")
def device_config():
    return load_config(DEVICE_CONFIG)


@pytest.fixture(scope="session")
def device_config_path():
    return DEVICE_CONFIG
