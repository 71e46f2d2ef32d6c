import numpy as np
import pytest
from hypothesis import settings

from fastdiff import NoiseLevelMap, VarianceSchedule

# Timing varies too much on shared machines for a per-example deadline.
settings.register_profile("no_deadline", deadline=None)
settings.load_profile("no_deadline")


@pytest.fixture(scope="session")
def sched_200():
    return VarianceSchedule(1e-4, 0.02, 200)


@pytest.fixture(scope="session")
def sched_1000():
    return VarianceSchedule(1e-4, 0.02, 1000)


@pytest.fixture(scope="session")
def map_200(sched_200):
    return NoiseLevelMap(sched_200)


@pytest.fixture(scope="session")
def map_1000(sched_1000):
    return NoiseLevelMap(sched_1000)


@pytest.fixture(scope="session")
def std_normal_2d():
    from fastdiff import GaussianMixture
    return GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])


@pytest.fixture(scope="session")
def two_blob_2d():
    from fastdiff import GaussianMixture
    eye2 = np.eye(2)
    return GaussianMixture([0.5, 0.5], [[-1.5, 0.0], [1.5, 0.0]],
                           [0.25 * eye2, 0.25 * eye2], labels=[0, 1])
