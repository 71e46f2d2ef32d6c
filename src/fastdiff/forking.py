"""When fastdiff forks, and the memory its forked processes share.

A sweep runs a seed's cells on forked workers (`experiment`), and training
draws its batches on a forked producer (`regressor`).  Both fork only as
far as `forkable_cpus` allows, hand their arrays over in `shared_floats`
mappings, and name a child that ended early by `ended`.
"""

import mmap
import os

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
