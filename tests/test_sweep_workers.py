"""A sweep's cells fanned out over forked workers: the same rows, files,
warnings and errors as in one process, and nothing left behind."""

import copy
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fastdiff.experiment as exp
import fastdiff.forking as forking
from fastdiff import ConvergenceError
from fastdiff.experiment import CSV_COLUMNS, ExperimentConfig, run_sweep

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork")
                       or not hasattr(os, "sched_getaffinity"),
                       reason="sweeps fan out only where os.fork and "
                              "os.sched_getaffinity exist"),
    # BASE's S = 50 quadratic STEP cells collapse; the tests of that warning
    # set their own filters
    pytest.mark.filterwarnings("ignore:step subset collapsed"),
    pytest.mark.usefixtures("no_stray_workers"),
]

ROOT = Path(__file__).resolve().parents[1]
COLLAPSE = "step subset collapsed"
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else 1

BASE = {
    "schedule": {"beta_1": 1e-4, "beta_T": 0.02, "T": 200},
    "data": {"preset": "two_blob_2d"},
    "sweep": {"kinds": ["step", "var"], "variants": ["linear", "quadratic"],
              "num_steps": [5, 10, 50],
              "samplers": [{"name": "ddpm"}, {"name": "ddim", "kappa": 0.0}]},
    "samples_per_cell": 50,
    "seeds": [0],
}
# perfbench's sweep_grid grid, but for its seed and batch
GRID_CELLS = 24


def in_worker(parent):
    return os.getpid() != parent


def sweep(raw, count, out_dir=None):
    """The rows of `raw` with `count` workers per seed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forking, "forkable_cpus", lambda: count)
        return run_sweep(ExperimentConfig(copy.deepcopy(raw)), out_dir)


def fields(rows):
    return [[repr(row[c]) for c in CSV_COLUMNS] for row in rows]


def test_rows_and_files_match_one_process(tmp_path):
    serial = sweep(BASE, 1, str(tmp_path / "1"))
    fanned = sweep(BASE, 2, str(tmp_path / "2"))
    assert len(fanned) == GRID_CELLS
    assert fields(fanned) == fields(serial)
    for name in ("results.csv", "results.json"):
        assert (tmp_path / "2" / name).read_bytes() \
            == (tmp_path / "1" / name).read_bytes()


def test_timings_name_each_cell_s_worker(tmp_path):
    raw = dict(copy.deepcopy(BASE), seeds=[4, 1])
    sweep(raw, 2, str(tmp_path))
    timings = json.loads((tmp_path / "timings.json").read_text())
    seeds = [entry for entry in timings if "seed" in entry]
    assert [(entry["seed"], entry["workers"]) for entry in seeds] \
        == [(4, 2), (1, 2)]
    assert all(entry[key] >= 0.0 for entry in seeds
               for key in ("draw_seconds", "fork_seconds",
                           "collect_seconds"))
    cells = [entry for entry in timings if "cell" in entry]
    assert [entry["cell"] for entry in cells] == list(range(2 * GRID_CELLS))
    assert {entry["worker"] for entry in cells} == {0, 1}
    # the builds come first, once for both seeds
    assert timings[0]["schedules"] == 12 and timings[0]["build_seconds"] >= 0
    assert [timings.index(entry) for entry in seeds] == [1, GRID_CELLS + 2]


def test_serial_timings_name_worker_zero(tmp_path):
    sweep(BASE, 1, str(tmp_path))
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert {key: timings[1][key] for key in
            ("workers", "fork_seconds", "collect_seconds")} \
        == {"workers": 1, "fork_seconds": 0.0, "collect_seconds": 0.0}
    assert {entry["worker"] for entry in timings[2:]} == {0}


def test_shares_are_balanced_on_S():
    cells = ExperimentConfig(copy.deepcopy(BASE)).grid()
    shares = exp._shares(cells, list(range(len(cells))), 2)
    assert sorted(i for share in shares for i in share) \
        == list(range(len(cells)))
    assert all(share == sorted(share) for share in shares)
    assert [sum(cells[i].S for i in share) for share in shares] \
        == [260, 260]
    # each schedule is built by one process, once
    schedules = [[cells[i].schedule for i in share] for share in shares]
    assert not set(schedules[0]) & set(schedules[1])
    # and DDPM and DDIM cells run on both
    assert all({cells[i].sampler for i in share} == {"ddpm", "ddim"}
               for share in shares)


def test_one_schedule_still_uses_every_worker(tmp_path):
    # fewer schedules than workers: the cells are split one by one
    raw = copy.deepcopy(BASE)
    raw["sweep"] = dict(raw["sweep"], kinds=["var"], variants=["linear"],
                        num_steps=[10])
    fanned = sweep(raw, 2, str(tmp_path))
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert [entry["worker"] for entry in timings[2:]] == [0, 1]
    assert fields(fanned) == fields(sweep(raw, 1))


def test_library_error_in_a_worker_is_one_failed_row(monkeypatch):
    parent, real = os.getpid(), exp._generate

    def flaky(config, fast, cell, blocks):
        if in_worker(parent) and fast.kind.startswith("var") \
                and fast.num_steps == 10:
            raise ConvergenceError("synthetic cell failure")
        return real(config, fast, cell, blocks)

    monkeypatch.setattr(exp, "_generate", flaky)
    rows = sweep(BASE, 2)
    failed = [row for row in rows if row["status"] == "failed"]
    assert failed and all(row["error"] == "ConvergenceError: synthetic "
                          "cell failure" for row in failed)
    assert {(row["kind"], row["S"]) for row in failed} == {("var", 10)}
    assert len(rows) == GRID_CELLS


@pytest.mark.parametrize("where", ["every cell", "workers only"])
def test_programming_error_is_re_raised(monkeypatch, where):
    parent = os.getpid()
    real = exp._generate

    def broken(*args):
        if where == "every cell" or in_worker(parent):
            raise TypeError("synthetic bug")
        return real(*args)

    monkeypatch.setattr(exp, "_generate", broken)
    with pytest.raises(TypeError) as raised:
        sweep(BASE, 2)
    assert str(raised.value) == "synthetic bug"
    if where == "workers only" and sys.version_info >= (3, 11):
        assert "raised in sweep worker 1" in raised.value.__notes__[0]


def test_first_error_in_grid_order_is_raised(monkeypatch):
    real = exp.build_fast_schedule

    def broken(schedule, level_map, kind, variant, num_steps):
        if num_steps == 5:
            raise TypeError(f"bug at {kind} {variant}")
        return real(schedule, level_map, kind, variant, num_steps)

    monkeypatch.setattr(exp, "build_fast_schedule", broken)
    for count in (1, 2, 3):
        with pytest.raises(TypeError) as raised:
            sweep(BASE, count)
        assert str(raised.value) == "bug at step linear"


def test_each_schedule_is_built_once_before_the_fork(monkeypatch):
    parent, real, built = os.getpid(), exp.build_fast_schedule, []

    def build(schedule, level_map, kind, variant, num_steps):
        if in_worker(parent):
            raise TypeError("built in a worker")
        built.append((kind, variant, num_steps))
        return real(schedule, level_map, kind, variant, num_steps)

    monkeypatch.setattr(exp, "build_fast_schedule", build)
    for count in (1, 2):
        built.clear()
        sweep(dict(copy.deepcopy(BASE), seeds=[0, 1]), count)
        # each (kind, variant, S) once, in grid order, for both seeds
        assert built == list(itertools.product(
            ["step", "var"], ["linear", "quadratic"], [5, 10, 50]))


def test_failed_build_is_built_once_and_fails_each_of_its_cells(
        monkeypatch):
    real, built = exp.build_fast_schedule, []
    failing = ("var", "quadratic", 10)

    def build(schedule, level_map, kind, variant, num_steps):
        built.append((kind, variant, num_steps))
        if (kind, variant, num_steps) == failing:
            raise ConvergenceError("synthetic build failure")
        return real(schedule, level_map, kind, variant, num_steps)

    monkeypatch.setattr(exp, "build_fast_schedule", build)
    for count in (1, 2):
        built.clear()
        rows = sweep(dict(copy.deepcopy(BASE), seeds=[0, 1]), count)
        assert built.count(failing) == 1
        failed = [row for row in rows if row["status"] == "failed"]
        assert [(row["seed"], row["kind"], row["variant"], row["S"],
                 row["sampler"]) for row in failed] \
            == [(seed, *failing, sampler) for seed in (0, 1)
                for sampler in ("ddpm", "ddim")]
        assert {row["error"] for row in failed} \
            == {"ConvergenceError: synthetic build failure"}


@pytest.mark.parametrize("death, ended", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os._exit(0), "exited with status 0"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     f"was killed by signal {int(signal.SIGKILL)}")])
def test_worker_that_sends_nothing_raises(monkeypatch, death, ended):
    parent, real = os.getpid(), exp._generate

    def dying(*args):
        if in_worker(parent):
            death()
        return real(*args)

    monkeypatch.setattr(exp, "_generate", dying)
    with pytest.raises(RuntimeError, match=f"sweep worker 1 .*{ended} "
                                           "without sending its result"):
        sweep(BASE, 2)


@pytest.mark.parametrize("death, ended", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     f"was killed by signal {int(signal.SIGKILL)}")])
def test_worker_that_dies_in_its_slice_raises(monkeypatch, death, ended):
    # before the barrier, while worker 2 waits there for the cells to start
    parent, real = os.getpid(), exp.chain_normals

    def dying(seed, num_chains, count, out, start):
        # of 50 chains, worker 1 of 3 draws chains 16 to 32
        if in_worker(parent) and num_chains < BASE["samples_per_cell"]:
            death()
        return real(seed, num_chains, count, out, start)

    monkeypatch.setattr(exp, "chain_normals", dying)
    with pytest.raises(RuntimeError, match=f"sweep worker 1 .*{ended} "
                                           "without sending its result"):
        sweep(BASE, 3)


def test_worker_that_fails_before_its_slice_raises(failing_child):
    # the worker leaves by its own exit, never through the sweep's frames
    with pytest.raises(RuntimeError, match=r"sweep worker 1 \(pid \d+\) "
                       "exited with status 1 without sending its result"):
        sweep(BASE, 2)


def test_unmappable_block_is_one_memory_error():
    # as `chain_normals` reports a block beyond numpy's index range
    raw = dict(copy.deepcopy(BASE), samples_per_cell=10**20)
    with pytest.raises(MemoryError, match="too many for an array"):
        sweep(raw, 2)


def test_interrupt_in_own_slice_stops_every_worker(monkeypatch):
    parent, real = os.getpid(), exp.chain_normals

    def interrupted(*args, **kwargs):
        if not in_worker(parent):
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(exp, "chain_normals", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sweep(BASE, 3)


def test_interrupt_in_own_share_stops_every_worker(monkeypatch):
    parent, real = os.getpid(), exp._generate

    def interrupted(*args):
        if not in_worker(parent):
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(exp, "_generate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sweep(BASE, 3)


def collapsing(seeds):
    """Two cells of S = 10 per seed at T = 40: VAR, then a quadratic STEP
    subset that collapses to 9.  Shares are filled in grid order, so the
    collapsed schedule's cell is worker 1's."""
    raw = dict(copy.deepcopy(BASE), seeds=seeds, samples_per_cell=10)
    raw["schedule"] = dict(raw["schedule"], T=40)
    raw["sweep"] = dict(raw["sweep"], kinds=["var", "step"],
                        variants=["quadratic"], num_steps=[10],
                        samplers=[{"name": "ddpm"}])
    return raw


def test_collapse_warning_reaches_the_caller_from_the_sweep(tmp_path):
    # the sweep's own process builds the schedule that worker 1 samples
    with pytest.warns(UserWarning, match="collapsed from 10 to 9"):
        rows = sweep(collapsing([0]), 2, str(tmp_path))
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert [(entry["cell"], entry["worker"]) for entry in timings[2:]] \
        == [(0, 0), (1, 1)]
    assert [row["model_calls_per_chain"] for row in rows] == [10, 9]


def test_always_filter_warns_once_per_collapsed_schedule():
    # two seeds, one collapsed schedule: it is built, and warns, once
    for count in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep(collapsing([0, 1]), count)
        assert [COLLAPSE in str(w.message) for w in caught] == [True]


def test_default_filter_shows_a_worker_warning_once():
    # the one build of the collapsed schedule warns: shown once, as serially
    shown = {}
    for count in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            sweep(collapsing([0, 1]), count)
        shown[count] = [str(w.message) for w in caught]
    assert len(shown[1]) == 1 and shown[2] == shown[1]


def test_perfbench_grid_warns_once_per_collapsed_schedule():
    # perfbench records every warning of a call and counts the collapses:
    # one schedule collapses, and it is built once, by the sweep's process
    for count in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep(BASE, count)
        assert sum(COLLAPSE in str(w.message) for w in caught) == 1


def inject_failure(patch, target):
    """Make the `Cell` `target` fail with a library error, in whichever
    process runs it."""
    real = exp._generate

    def generate(config, fast, cell, blocks):
        if cell == target:
            raise ConvergenceError("injected cell failure")
        return real(config, fast, cell, blocks)

    patch.setattr(exp, "_generate", generate)


def sub_list(values):
    return st.lists(st.sampled_from(values), min_size=1,
                    max_size=len(values), unique_by=json.dumps)


@settings(max_examples=12)
@given(kinds=sub_list(["step", "var"]),
       variants=sub_list(["linear", "quadratic"]),
       num_steps=sub_list([2, 5, 10, 15]),
       samplers=sub_list([{"name": "ddpm"}, {"name": "ddim", "kappa": 0.0},
                          {"name": "ddim", "kappa": 0.5}]),
       seeds=sub_list([0, 3, 7]), conditional=st.booleans(),
       failing=st.integers(min_value=0))
def test_any_worker_count_gives_the_same_files(kinds, variants, num_steps,
                                               samplers, seeds, conditional,
                                               failing):
    # T = 40: quadratic STEP S = 10 and 15 collapse
    raw = {"schedule": {"beta_1": 1e-4, "beta_T": 0.02, "T": 40},
           "data": {"preset": "two_blob_2d"},
           "sweep": {"kinds": kinds, "variants": variants,
                     "num_steps": num_steps, "samplers": samplers},
           "samples_per_cell": 8, "seeds": seeds, "conditional": conditional}
    grid = ExperimentConfig(copy.deepcopy(raw)).grid()
    with tempfile.TemporaryDirectory() as out, \
            pytest.MonkeyPatch.context() as patch, \
            warnings.catch_warnings():
        warnings.filterwarnings("ignore", COLLAPSE)
        inject_failure(patch, grid[failing % len(grid)])
        rows = {count: fields(sweep(raw, count, os.path.join(out, str(count))))
                for count in (1, 2, 3, 4)}
        files = {count: [Path(out, str(count), name).read_bytes()
                         for name in ("results.csv", "results.json")]
                 for count in rows}
    assert sum(row[CSV_COLUMNS.index("status")] == "'failed'"
               for row in rows[1]) >= 1
    for count in (2, 3, 4):
        assert rows[count] == rows[1]
        assert files[count] == files[1]


@pytest.mark.skipif(CPUS < 2, reason="the affinity mask holds one CPU")
def test_cli_sweep_fans_out_with_pinned_blas(tmp_path):
    raw = dict(copy.deepcopy(BASE), seeds=[0, 2])
    (tmp_path / "sweep.json").write_text(json.dumps(raw))
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-W", "error", "-W", f"ignore:{COLLAPSE}",
         "-m", "fastdiff.cli", "sweep", "--config",
         str(tmp_path / "sweep.json"), "--out", str(tmp_path / "forked")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    timings = json.loads((tmp_path / "forked" / "timings.json").read_text())
    assert [entry["workers"] for entry in timings if "seed" in entry] \
        == [min(CPUS, GRID_CELLS)] * 2
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", COLLAPSE)
        run_sweep(ExperimentConfig(raw), str(tmp_path / "here"))
    for name in ("results.csv", "results.json"):
        assert (tmp_path / "forked" / name).read_bytes() \
            == (tmp_path / "here" / name).read_bytes()
