import importlib

# evflow before numpy: its BLAS thread pin holds only where numpy is not
# loaded yet, and the processes that the tests fork run under it
importlib.import_module("evflow")

import numpy as np
import pytest
from scipy import ndimage


@pytest.fixture
def noise_image():
    """Band-limited noise texture scaled to the 8-bit intensity range."""
    def make(shape=(128, 128), seed=42, sigma=2.0):
        rng = np.random.default_rng(seed)
        img = ndimage.gaussian_filter(rng.standard_normal(shape), sigma)
        img -= img.min()
        return img / img.max() * 255.0
    return make


@pytest.fixture
def announce(capsys):
    """Print a line even under pytest's output capture."""
    def emit(line):
        with capsys.disabled():
            print(line)
    return emit
