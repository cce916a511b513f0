import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Fuzz tests replay the same examples on every run and write no example database.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
