import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import hawkpath as hp

# every run of a commit draws the same examples: derandomized, no example database
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def unit_marks():
    """Point mass at 1 with b = 1: risk equals the event count."""
    return hp.MarkModel("point-mass", (1.0,))


@pytest.fixture
def exp_kernel():
    """Exponential kernel sized so the stability ratio is about 0.6 on [0, 5]."""
    return hp.exponential_kernel(0.604, 1.0, 5.0)


@pytest.fixture
def cos_kernel():
    return hp.cosine_decay_kernel(0.6, 5.0)


@pytest.fixture
def library_kernels(exp_kernel, cos_kernel):
    """Bounded-variation kernels used by the blanket invariants."""
    return {
        "exponential": exp_kernel,
        "cosine-decay": cos_kernel,
        "erlang": hp.erlang_kernel(0.5, 2, 2.0, 5.0),
        "compact-support": hp.compact_kernel(0.5, 1.0, 5.0),
    }
