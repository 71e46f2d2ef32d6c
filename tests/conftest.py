import gc
import os

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


@pytest.fixture(autouse=True)
def no_forks(monkeypatch):
    """Sweeps and training run in this process unless a test sets the CPU
    count that `forking.forkable_cpus` reports.

    Whether they fork depends on the process's thread count, and an
    OpenBLAS pool shuts down at a fork and restarts on a later call; a test
    that records calls inside the cells or the batch draws would see only
    this process's share.  tests/test_sweep_workers.py and the producer
    tests in tests/test_regressor.py set the count themselves."""
    import fastdiff.forking as forking
    monkeypatch.setattr(forking, "forkable_cpus", lambda: 1)


def _pipes():
    """The pipes this process holds open, as (fd, pipe inode) pairs."""
    pipes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own fd, closed by now
            continue
        if target.startswith("pipe:"):
            pipes.add((int(fd), target))
    return pipes


def _shared_mappings():
    """The shared anonymous mappings of this process, as lines of its
    memory map: a sweep's normals blocks or training's batch ring, while
    they are mapped."""
    with open("/proc/self/maps") as maps:
        return sorted(line for line in maps
                      if line.rstrip().endswith("/dev/zero (deleted)"))


@pytest.fixture
def no_stray_workers():
    """Fails a test that leaves a child process, a pipe, a shared mapping
    or a changed CPU affinity behind."""
    pipes, mappings, cpus = (_pipes(), _shared_mappings(),
                             os.sched_getaffinity(0))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _pipes() - pipes == set()
    # A mapping is unmapped with the last array on it.  An error a test
    # keeps (`pytest.raises(...) as raised`) holds the frames that read it,
    # in a cycle through the test's own frame, until it is collected.
    gc.collect()
    assert _shared_mappings() == mappings
    assert os.sched_getaffinity(0) == cpus
