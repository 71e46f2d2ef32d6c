"""When fastdiff forks, how its forked children live, and the memory they
share.

A sweep runs a seed's cells on forked workers (`experiment`), and training
draws its batches on a forked producer (`regressor`).  Both fork only as
far as `forkable_cpus` allows, fork through `Forked`, hand their arrays
over in `shared_floats` mappings, and name a child that ended early by
`ended`.  Each keeps only its own protocol over the pipes `Forked` gives a
child: `Forked` owns the fork, the CPU pinning, the child's exit and the
kill and reap.
"""

import mmap
import os
import signal
import sys
import traceback

import numpy as np


def forkable_cpus() -> int:
    """The CPUs this process may use, or 1 where forking is unsupported or
    unsafe.  Forking a process that runs more than one OS thread (an
    unpinned BLAS pool, say) can deadlock the child, so such a process,
    and one whose thread count cannot be read, stays on one."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


class Pipes:
    """One process's ends of the two pipes between a parent and a forked
    child: what the other process writes it reads, and the other way."""

    def __init__(self, read_fd: int, write_fd: int):
        self._reader = open(read_fd, "rb", buffering=0)
        self._write_fd = write_fd

    def read(self, size: int = -1) -> bytes:
        """Up to `size` bytes, or every byte until the other process
        closes its end; b"" at end-of-file."""
        return self._reader.read(size)

    def write(self, data) -> None:
        """Write all of `data`; raises `BrokenPipeError` once the other
        process has closed its end."""
        data = memoryview(data)
        while data:
            data = data[os.write(self._write_fd, data):]

    def close(self) -> None:
        self._reader.close()
        os.close(self._write_fd)


class Child(Pipes):
    """A forked child as its parent sees it: its pid, the pipes to it, and
    its exit status once reaped."""

    def __init__(self, pid: int, read_fd: int, write_fd: int):
        super().__init__(read_fd, write_fd)
        self.pid, self.status = pid, None

    def reap(self) -> int:
        """Close the pipes, wait for the child to exit and return its
        `os.waitstatus_to_exitcode` status.  Closing first ends a write
        the child is blocked in."""
        if self.status is None:
            self.close()
            self.status = os.waitstatus_to_exitcode(
                os.waitpid(self.pid, 0)[1])
        return self.status


class Forked:
    """A context that forks one child per body and gives the `Child` of
    each, in order.

    Child k (k = 1, 2, ...) keeps to CPU k mod n of the n CPUs this
    process may use, and calls its body with its `Pipes` to this process,
    one pipe each way: `body(parent)`.  Once every child is forked, this
    process keeps to the first CPU.  (Left to itself, the kernel may keep
    a short-lived child on its parent's CPU.)  A child runs everything
    after the fork under one guard and leaves by `os._exit`: status 0 if
    its body returned, 1 with the traceback on stderr if anything raised.
    It never unwinds into the frames it inherited.  On every exit the
    context kills and reaps each child not yet reaped, closes every pipe
    and restores this process's CPU mask.

    Pipes, not a socketpair: a socket whose peer exits with bytes unread
    raises `ConnectionResetError` where a pipe reads end-of-file."""

    def __init__(self, bodies):
        self._bodies = bodies
        self._children = []

    def __enter__(self) -> list[Child]:
        self._cpus = sorted(os.sched_getaffinity(0))
        try:
            for k, body in enumerate(self._bodies, 1):
                self._fork(k, body)
            if self._children:
                os.sched_setaffinity(0, {self._cpus[0]})
        except BaseException:
            self.__exit__()
            raise
        return self._children

    def __exit__(self, *exc_info):
        try:
            for child in self._children:
                if child.status is None:
                    # killing a child that has exited does no harm
                    os.kill(child.pid, signal.SIGKILL)
                    child.reap()
        finally:
            os.sched_setaffinity(0, self._cpus)

    def _fork(self, k, body):
        """Fork child k to run `body`; in this process, add its `Child`."""
        parent, ends, status = os.getpid(), [], 1
        try:
            for _ in range(2):
                ends += os.pipe()
            pid = os.fork()
            if pid == 0:
                for child in self._children:
                    child.close()
                os.close(ends[1])
                os.close(ends[2])
                os.sched_setaffinity(0, {self._cpus[k % len(self._cpus)]})
                body(Pipes(ends[0], ends[3]))
                status = 0
        except BaseException:
            if os.getpid() == parent:
                for fd in ends:
                    os.close(fd)
                raise
            traceback.print_exc()
        finally:
            if os.getpid() != parent:
                try:
                    sys.stderr.flush()
                finally:
                    os._exit(status)
        self._children.append(Child(pid, ends[2], ends[1]))
        os.close(ends[0])
        os.close(ends[3])


def shared_floats(count: int) -> np.ndarray:
    """`count` float64 zeros in their own shared anonymous mapping, so that
    what a forked child writes there its parent reads.  The mapping is
    unmapped with the last array on it.  Raises `OverflowError` when
    `count` floats cannot be mapped at all."""
    # MAP_POPULATE faults each page in here, once, and not in whichever
    # process first writes it
    flags = mmap.MAP_SHARED | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, 8 * count, flags=flags))


def ended(status: int) -> str:
    """How a child ended, from its `os.waitstatus_to_exitcode` status."""
    return (f"exited with status {status}" if status >= 0
            else f"was killed by signal {-status}")
