import numpy as np
import pytest

from loopcool import feedback, presets


@pytest.fixture(autouse=True)
def cold_contour_caches():
    """Each test starts with empty flat-gain contour caches, so none passes on
    a grid or factor that an earlier test left behind."""
    for cache in (feedback._contour_grid, feedback._contour_gain_free, feedback._contour_phase):
        cache.cache_clear()


@pytest.fixture(scope="session")
def experiment():
    return presets.experiment()


@pytest.fixture(scope="session")
def experiment_empty():
    return presets.experiment_empty()


@pytest.fixture(scope="session")
def fig1_optical():
    return presets.fig1_optical()


@pytest.fixture(scope="session")
def fig1_microwave():
    return presets.fig1_microwave()


@pytest.fixture
def rng():
    return np.random.RandomState(20240811)
