"""`forking.Forked`: each child on its own CPU with its own pipes, its exit
status, and nothing left behind on any exit; `forking.Pipes` reads as many
bytes as asked for and writes an array whole."""

import errno
import os
import signal
import time

import numpy as np
import pytest

import fastdiff.forking as forking

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork")
                       or not hasattr(os, "sched_getaffinity"),
                       reason="Forked needs os.fork and os.sched_getaffinity"),
    pytest.mark.usefixtures("no_stray_workers"),
]

CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else [0]

# one training batch of 64 rows at d = 2, as the producer writes it
BATCH = np.random.default_rng(0).standard_normal(64 * 5).tobytes()


def report(parent):
    """Send the child's CPU mask, then the byte it was sent, twice."""
    parent.write(bytes(sorted(os.sched_getaffinity(0))))
    parent.write(parent.read(1) * 2)


def wait(parent):
    """Say so once running, then wait to be killed."""
    parent.write(b"\0")
    time.sleep(60)


def test_each_child_keeps_to_its_own_cpu_and_pipes():
    with forking.Forked([report] * 3) as children:
        assert os.sched_getaffinity(0) == {CPUS[0]}
        for child, sent in zip(children, b"abc"):
            child.write(bytes([sent]))
        reports = [child.read() for child in children]
        assert [child.reap() for child in children] == [0, 0, 0]
    assert reports == [bytes([CPUS[k % len(CPUS)]]) + sent * 2
                       for k, sent in zip((1, 2, 3), (b"a", b"b", b"c"))]


def test_a_raising_body_exits_with_status_1(capfd):
    def body(parent):
        raise ValueError("synthetic body failure")

    with forking.Forked([body]) as (child,):
        assert child.read() == b""
        assert child.reap() == 1
    err = capfd.readouterr().err
    assert "Traceback" in err and "ValueError: synthetic body failure" in err


def test_no_bodies_fork_nothing(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(forking.os, "fork", fork)
    with forking.Forked([]) as children:
        assert children == []
        assert os.sched_getaffinity(0) == set(CPUS)


def test_an_error_in_the_context_kills_a_running_child():
    with pytest.raises(ValueError, match="synthetic"):
        with forking.Forked([wait]) as (child,):
            assert child.read(1) == b"\0"
            raise ValueError("synthetic")
    assert child.status == -signal.SIGKILL


def test_a_failed_fork_kills_the_children_already_forked(monkeypatch):
    real, forks = os.fork, []

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "synthetic fork failure")
        return real()

    monkeypatch.setattr(forking.os, "fork", fork)
    with pytest.raises(OSError, match="synthetic fork failure"):
        with forking.Forked([wait, wait]):
            pytest.fail("entered the context")
    assert len(forks) == 2


def in_pieces(*cuts):
    """A body that writes the first `cuts[-1]` bytes of BATCH, split at
    `cuts`, pausing after each piece, then returns."""
    def body(parent):
        for start, stop in zip((0, *cuts), cuts):
            parent.write(BATCH[start:stop])
            time.sleep(0.05)
    return body


def test_a_read_returns_every_byte_asked_for():
    with forking.Forked([in_pieces(100, 1000, len(BATCH))]) as (child,):
        assert child.read(len(BATCH)) == BATCH
        assert child.read(1) == b""
        assert child.reap() == 0


def test_a_child_that_exits_part_way_gives_a_short_read():
    with forking.Forked([in_pieces(100, 1000)]) as (child,):
        assert child.read(len(BATCH)) == BATCH[:1000]
        assert child.reap() == 0


@pytest.mark.parametrize("taken", [None, 20])
def test_a_2d_array_is_written_byte_for_byte(taken):
    array = np.frombuffer(BATCH).reshape(64, 5)

    def body(parent):
        if taken:
            # a write the kernel takes only `taken` bytes of at a time, as
            # one cut short by a signal
            write = os.write
            forking.os.write = lambda fd, data: write(fd, data[:taken])
        parent.write(array)

    with forking.Forked([body]) as (child,):
        assert child.read() == BATCH
        assert child.reap() == 0
