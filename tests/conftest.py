import errno
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

    Whether they fork (through `forking.Forked`) depends on the process's
    thread count, and an OpenBLAS pool shuts down at a fork and restarts
    on a later call; a test that records calls inside the cells or the
    batch draws would see only this process's share.
    tests/test_sweep_workers.py and the producer tests in
    tests/test_regressor.py set the count themselves, and
    tests/test_forking.py forks through `forking.Forked` directly."""
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
    or a changed CPU affinity behind.  A forked child that unwound into
    the test instead of leaving by `os._exit` ends here, with status 99:
    its parent reports that status, and it never runs the rest of the
    suite as a second pytest."""
    pid, pipes, mappings, cpus = (os.getpid(), _pipes(), _shared_mappings(),
                                  os.sched_getaffinity(0))
    yield
    if os.getpid() != pid:
        os._exit(99)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _pipes() - pipes == set()
    # A mapping is unmapped with the last array on it.  An error a test
    # keeps (`pytest.raises(...) as raised`) holds the frames that read it,
    # in a cycle through the test's own frame, until it is collected.
    gc.collect()
    assert _shared_mappings() == mappings
    assert os.sched_getaffinity(0) == cpus


@pytest.fixture(params=["at the fork", "in its pinning"])
def failing_child(request, monkeypatch):
    """Makes each forked child raise before its body runs: a
    `KeyboardInterrupt` as soon as its fork returns (as when a Ctrl-C
    reaches the whole foreground process group), or an `OSError` from
    pinning it to its CPU.  Its parent forks and pins as before."""
    import fastdiff.forking as forking
    parent = os.getpid()
    if request.param == "at the fork":
        real_fork = forking.os.fork

        def fork():
            pid = real_fork()
            if pid == 0:
                raise KeyboardInterrupt
            return pid

        monkeypatch.setattr(forking.os, "fork", fork)
    else:
        real_pin = forking.os.sched_setaffinity

        def pin(pid, cpus):
            if os.getpid() != parent:
                raise OSError(errno.EINVAL, "synthetic pinning failure")
            return real_pin(pid, cpus)

        monkeypatch.setattr(forking.os, "sched_setaffinity", pin)
