"""Experiment runner: schedule inspection and metric sweeps.

A sweep walks the grid (schedule kind x variant x S x sampler x seed),
generates a batch per cell against the configured noise model, scores it
against the data distribution's exact moments (`score_samples`), and emits
one row per cell.  Rows go to CSV (fixed, versioned column schema
with the config hash in a header comment) and JSON; wall-clock timings go to
a separate file because the CSV/JSON outputs are byte-identical across runs
of the same config.

Every cell of a seed runs what `fastdiff sample` runs with that seed and
`batch = samples_per_cell`, so chain i of each cell starts from the same
latent and meets the same noise rows (a conditional cell keys class j by
(seed, j)).  A row depends only on its own (seed, kind, variant, S,
sampler, kappa): adding cells or reordering the grid cannot perturb it.

The grid is seed-major, and each seed's normals are drawn once
(`_seed_normals`): one block per sampler run, as wide as the longest chain
any cell of the config asks for (from the requested S, which a STEP
collapse only lowers).  Every cell reads its prefix of the block, which
holds the bits its own draw would, so the rows do not change.  A seed's
blocks are its peak memory: 2000 chains of a full T = 1000 chain in 2
dimensions take 32 MB.

A sweep builds each schedule (kind, variant, S) of its grid once, in grid
order, in its own process, before any cell runs: its warnings reach the
caller once.  A seed's cells run on w = min(CPUs this process may use,
cells) processes, one per CPU: this one and w - 1 workers forked by
`forking.Forked`, which pins each to its own CPU and gives it a pipe each
way.  Then the blocks are shared mappings: this process draws the first
of w slices of each block's chains and worker k the k-th, and no cell
starts before every slice is in (the barrier: each worker sends a byte up
its pipe once its slice is in, and gets one back down it once every
slice is).  Each share holds whole schedules, longest S first onto the
least-loaded share; a seed with fewer schedules than processes is shared
out cell by cell.  A worker sends its rows, timings and any programming
error up its pipe.  The rows return in grid order and do not depend on
w.  A process with more than one OS thread (an unpinned BLAS pool)
cannot fork safely, so it runs w = 1, the plain loop, drawing whole
blocks in private memory: `forking.forkable_cpus` states that rule for
sweeps and training alike.  `timings.json` opens with the builds, then
names each seed's `workers` and each cell's `worker`; `draw_seconds`
runs to the barrier.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import pickle
import time
import traceback

import numpy as np

from . import forking
from .errors import (NUMBER, ConvergenceError, ValidationError, checked,
                     int_at_least, typed)
from .fast_schedule import (CONSTRUCTIONS, VARIANTS, build_fast_schedule,
                            step_as_var_equivalence)
from .metrics import (accuracy, frechet_gaussian, inception_score,
                      sample_moments)
# frechet_distance stays importable for perfbench's call tracer.
from .metrics import frechet_distance  # noqa: F401
from .mixture import AnalyticEpsilonModel, GaussianMixture, posterior_classifier
from .regressor import ToyRegressor
from .rng import chain_normals
from .samplers import (FINAL_STEP_MODES, FINAL_STEP_ZERO, SAMPLERS,
                       SamplerConfig, chain_rows, reported_kappa, run_sampler)
# fast_ddpm_reverse and fast_ddim_reverse stay for perfbench's call tracer.
from .samplers import fast_ddim_reverse, fast_ddpm_reverse  # noqa: F401
from .schedule import NoiseLevelMap, VarianceSchedule
from .storage import write_json, write_report

CSV_COLUMNS = ("seed", "kind", "variant", "S", "sampler", "kappa", "frechet",
               "inception_score", "accuracy", "model_calls_per_chain",
               "normals_per_chain", "status", "error")

_RUN_DEFAULTS = {"kind": "step", "variant": "linear", "sampler": "ddpm",
                 "batch": 1000, "seed": 0}

# The errors that mark a sweep cell failed; any other exception is a bug.
_LIBRARY_ERRORS = (ValueError, ArithmeticError, ConvergenceError)


def builtin_presets() -> dict[str, GaussianMixture]:
    eye2 = np.eye(2)
    return {
        "std_normal_2d": GaussianMixture([1.0], [[0.0, 0.0]], [eye2]),
        "two_blob_2d": GaussianMixture(
            [0.5, 0.5], [[-1.5, 0.0], [1.5, 0.0]],
            [0.25 * eye2, 0.25 * eye2], labels=[0, 1]),
        "four_class_2d": GaussianMixture(
            [0.25] * 4, [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]],
            [0.3 * eye2] * 4, labels=[0, 1, 2, 3]),
    }


class ExperimentConfig:
    """Validated sweep configuration; raises `ValidationError` eagerly."""

    def __init__(self, raw: dict):
        self.raw = raw
        (self.schedule, self.level_map, self.mixture, self.model,
         self.final_step_noise) = _load_shared(raw)

        sweep = raw.get("sweep")
        if not sweep:
            raise ValidationError("config needs a non-empty 'sweep' section")
        typed("sweep", sweep, dict)
        self.kinds = self._listed(sweep, "kinds", CONSTRUCTIONS)
        self.variants = self._listed(sweep, "variants", VARIANTS)
        self.num_steps_list = self._listed(
            sweep, "num_steps", range(1, self.schedule.num_steps + 1))
        self.samplers = _axis("sweep.samplers", [
            sampler_kappa("sweep.samplers entry", spec, "name")
            for spec in typed("sweep.samplers", sweep.get("samplers", []),
                              list)])
        self.seeds = _axis("seeds", [
            int_at_least("seeds entry", s, 0)
            for s in typed("seeds", raw.get("seeds", []), list)])
        # a moment fit in d dimensions needs d + 1 samples
        self.samples_per_cell = int_at_least(
            "samples_per_cell", raw.get("samples_per_cell", 2000),
            self.mixture.dim + 1)
        # The sampler runs of every cell, each (model, batch, class index):
        # a conditional cell runs class j's oracle on a round-robin share.
        self.runs = [(self.model, self.samples_per_cell, None)]
        if typed("conditional", raw.get("conditional", False), bool):
            if self.mixture.labels is None:
                raise ValidationError(
                    "conditional sweep needs a labelled mixture")
            if not isinstance(self.model, AnalyticEpsilonModel):
                raise ValidationError(
                    "conditional sweep supports the analytic model only")
            classes = self.mixture.class_labels()
            if self.samples_per_cell < classes.size:
                raise ValidationError("conditional sweep needs samples_per_"
                                      "cell >= the number of classes")
            share, extra = divmod(self.samples_per_cell, classes.size)
            self.runs = [
                (AnalyticEpsilonModel(self.mixture.restrict(int(label)),
                                      self.level_map), share + (j < extra), j)
                for j, label in enumerate(classes)]

    @staticmethod
    def _listed(sweep, key, allowed):
        values = typed(f"sweep.{key}", sweep.get(key, []), list)
        for v in values:
            checked(f"sweep.{key} entry", v, allowed)
        return _axis(f"sweep.{key}", values)

    def config_hash(self) -> str:
        return hash_config(self.raw)

    def grid(self):
        """(seed, kind, variant, S, sampler, kappa) cells in a fixed,
        seed-major order; a cell's noise does not depend on its place in
        it."""
        return [(*head, *sampler) for *head, sampler in itertools.product(
            self.seeds, self.kinds, self.variants, self.num_steps_list,
            self.samplers)]


def _class_seed(seed: int, class_index: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(class_index,))
               .generate_state(1, dtype=np.uint64)[0])


def hash_config(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _axis(name, values):
    """`values`, one axis of the grid, if it is non-empty and no entry
    repeats (a repeat would only repeat rows)."""
    if not values:
        raise ValidationError(f"{name} must be non-empty")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValidationError(f"{name} repeats {repeated[0]!r}")
    return values


def sampler_kappa(where, spec, key):
    """(sampler, kappa) of a `run` section or a `sweep.samplers` entry;
    a sampler that reports no kappa (DDPM) admits only 0."""
    sampler = checked(f"{where} {key}", typed(where, spec, dict).get(key),
                      SAMPLERS)
    kappa = float(typed(f"{where} kappa", spec.get("kappa", 0.0), NUMBER))
    if not 0.0 <= kappa <= 1.0 or (
            reported_kappa(sampler, kappa) is None and kappa != 0.0):
        raise ValidationError(f"{where} kappa must lie in [0, 1] and be 0 "
                              f"with ddpm, got {kappa}")
    return sampler, kappa


def load_schedule(descriptor) -> VarianceSchedule:
    """The variance schedule of a config's `schedule` descriptor."""
    if descriptor is None:
        raise ValidationError("config needs a 'schedule' descriptor")
    return VarianceSchedule.from_descriptor(
        typed("schedule", descriptor, dict))


def load_mixture(raw: dict) -> GaussianMixture:
    """The data distribution of a config: `data.preset` or `data.path`."""
    data = typed("data", raw.get("data", {}), dict)
    if "preset" in data:
        presets = builtin_presets()
        if typed("data.preset", data["preset"], str) not in presets:
            raise ValidationError(
                f"unknown preset {data['preset']!r}; "
                f"available: {sorted(presets)}")
        return presets[data["preset"]]
    if "path" in data:
        return GaussianMixture.from_json(
            typed("data.path", data["path"], str))
    raise ValidationError(
        "config needs data.preset or data.path (or --preset)")


def build_model(raw: dict, mixture: GaussianMixture, level_map: NoiseLevelMap):
    """The config's noise model: analytic (default) or trained."""
    spec = typed("model", raw.get("model", {}), dict)
    kind = checked("model.kind", spec.get("kind", "analytic"),
                   ("analytic", "trained"))
    if kind == "analytic":
        return AnalyticEpsilonModel(mixture, level_map)
    if not spec.get("path"):
        raise ValidationError("trained model requires a 'path'")
    model = ToyRegressor.load(typed("model.path", spec["path"], str))
    if model.dim != mixture.dim:
        raise ValidationError(f"trained model has dim {model.dim}, "
                              f"the data has dim {mixture.dim}")
    return model


def _load_shared(raw: dict):
    """(schedule, level map, mixture, model, final_step_noise) of a config."""
    schedule = load_schedule(raw.get("schedule"))
    level_map = NoiseLevelMap(schedule)
    mixture = load_mixture(raw)
    model = build_model(raw, mixture, level_map)
    return schedule, level_map, mixture, model, checked(
        "final_step_noise", raw.get("final_step_noise", FINAL_STEP_ZERO),
        FINAL_STEP_MODES)


def run_section(raw: dict, **overrides) -> dict:
    """The config's `run` section over the run defaults, with each override
    that is not None (a CLI flag) laid over both."""
    return {**_RUN_DEFAULTS, **typed("run", raw.get("run", {}), dict),
            **{key: value for key, value in overrides.items()
               if value is not None}}


def load_run(raw: dict, seed: int | None = None):
    """The `run` section of a sample config, checked as a sweep's cells are,
    with `seed` (when given) in place of its seed; returns (fast schedule,
    model, sampler config, sampler name)."""
    if not raw.get("run"):
        raise ValidationError("sample needs a 'run' section in the config")
    run = run_section(raw, seed=seed)
    if "final_step_noise" in run:
        raise ValidationError("run.final_step_noise: move it to the top level")
    schedule, level_map, mixture, model, final_step_noise = _load_shared(raw)
    sampler, kappa = sampler_kappa("run", run, "sampler")
    config = SamplerConfig(
        dim=mixture.dim, batch=int_at_least("run.batch", run["batch"], 1),
        seed=int_at_least("run.seed", run["seed"], 0), kappa=kappa,
        final_step_noise=final_step_noise)
    fast = build_fast_schedule(schedule, level_map, run["kind"],
                               run["variant"], run.get("S"))
    return fast, model, config, sampler


def _run_seed(seed, class_index):
    """The noise key of a sampler run: the cell's seed, or (seed, j) for
    class j."""
    return seed if class_index is None else _class_seed(seed, class_index)


def _block_columns(config: ExperimentConfig) -> int:
    """Columns of each normals block of `config`: the longest chain of any
    cell of the grid (each cell reads a prefix)."""
    return config.mixture.dim * max(
        chain_rows(s, sampler, kappa, config.final_step_noise)
        for s in config.num_steps_list for sampler, kappa in config.samplers)


def _shared_blocks(config: ExperimentConfig) -> list[np.ndarray]:
    """Empty normals blocks of `config.runs`, each in its own shared
    mapping (`forking.shared_floats`), so that what a forked worker writes
    there every process reads."""
    columns, blocks = _block_columns(config), []
    for _, batch, _ in config.runs:
        try:
            block = forking.shared_floats(batch * columns)
        except OverflowError:  # as `chain_normals` reports it
            raise MemoryError(f"{batch} x {columns} normals are too many "
                              "for an array") from None
        blocks.append(block.reshape(batch, columns))
    return blocks


def _seed_normals(config: ExperimentConfig, seed: int, blocks=None,
                  part: int = 0, parts: int = 1) -> list[np.ndarray]:
    """The normals of each of `config.runs` at `seed`: one block per run,
    `chain_normals` of the run's key and batch, `_block_columns` wide.
    Given `_shared_blocks`, it draws only slice `part` of `parts` of each
    block's chains, a contiguous run, into it (the slices of all parts
    make up the whole draw) and returns the slices."""
    columns, drawn = _block_columns(config), []
    for (_, batch, j), block in zip(config.runs,
                                    blocks or itertools.repeat(None)):
        stop = batch * (part + 1) // parts
        drawn.append(chain_normals(
            _run_seed(seed, j), stop, columns,
            out=None if block is None else block[:stop],
            start=batch * part // parts))
    return drawn


def _generate(config, fast, sampler, kappa, seed, blocks):
    """A cell's (samples, class index of each or None, provenance): each of
    `config.runs`, keyed by the cell's seed or by (seed, j) for class j,
    reading its block of `_seed_normals`."""
    chunks, labels = [], []
    for (model, batch, j), block in zip(config.runs, blocks):
        result = run_sampler(fast, model, SamplerConfig(
            dim=config.mixture.dim, batch=batch, seed=_run_seed(seed, j),
            kappa=kappa, final_step_noise=config.final_step_noise), sampler,
            normals=block)
        chunks.append(result.samples)
        if j is not None:
            labels.append(np.full(batch, j))
    return (np.concatenate(chunks),
            np.concatenate(labels) if labels else None, result.provenance)


def score_samples(mixture: GaussianMixture, samples: np.ndarray,
                  label_idx: np.ndarray | None = None) -> dict:
    """`frechet` of the samples' moment fit to the mixture's exact moments;
    with a labelled mixture also `inception_score`, and `accuracy` against
    `label_idx` when given (each None otherwise).

    Finite but huge samples overflow the scores: that raises
    `FloatingPointError` rather than reporting inf or NaN.
    """
    scores = {"frechet": None, "inception_score": None, "accuracy": None}
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        scores["frechet"] = frechet_gaussian(*sample_moments(samples),
                                             *mixture.moments())
        if mixture.labels is not None:
            probs = posterior_classifier(mixture, samples)
            scores["inception_score"] = inception_score(probs)
            if label_idx is not None:
                scores["accuracy"] = accuracy(probs, label_idx)
    return scores


def _shares(cells, indices, workers):
    """`indices` in `workers` shares of about equal cost, each in grid
    order.  Each schedule (kind, variant, S) goes whole to one share, the
    longest S first, onto the share with the least S summed over its
    cells: so each sampler's cells spread over the shares, where cell by
    cell they would bunch.  A seed with fewer schedules than shares splits
    its cells the same way, one by one, so that no share is empty."""
    groups = {}
    for index in indices:
        groups.setdefault(cells[index][1:4], []).append(index)
    if len(groups) < workers:
        groups = {index: [index] for index in indices}
    shares, loads = [[] for _ in range(workers)], [0] * workers
    for group in sorted(groups.values(), key=lambda g: -cells[g[0]][3]):
        least = loads.index(min(loads))
        shares[least] += group
        loads[least] += cells[group[0]][3] * len(group)
    return [sorted(share) for share in shares]


def _build_schedules(config, cells):
    """(kind, variant, S) -> its schedule, or the library error its build
    raised, for each schedule of `cells`, built once each in grid order;
    any other exception propagates."""
    schedules = {}
    for kind, variant, s in dict.fromkeys(cell[1:4] for cell in cells):
        try:
            schedules[kind, variant, s] = build_fast_schedule(
                config.schedule, config.level_map, kind, variant, s)
        except _LIBRARY_ERRORS as err:
            schedules[kind, variant, s] = err
    return schedules


def _run_cell(config, cell, blocks, fast):
    """The row of one cell, reading the seed's `blocks`, with its schedule
    `fast` or the library error its build raised.  A library error marks
    the row failed; any other exception propagates."""
    seed, *_, sampler, kappa = cell
    row = {**dict.fromkeys(CSV_COLUMNS), **dict(zip(CSV_COLUMNS, cell)),
           "status": "ok", "error": ""}
    error = fast if isinstance(fast, _LIBRARY_ERRORS) else None
    try:
        if error is None:
            samples, label_idx, provenance = _generate(
                config, fast, sampler, kappa, seed, blocks)
            row["model_calls_per_chain"] = provenance["model_calls_per_chain"]
            row["normals_per_chain"] = provenance["normals_per_chain"]
            row.update(score_samples(config.mixture, samples, label_idx))
    except _LIBRARY_ERRORS as err:
        error = err
    if error is not None:
        row.update(status="failed", error=f"{type(error).__name__}: {error}")
    return row


def _run_share(config, schedules, cells, share, blocks):
    """(index, row, seconds) of each cell of `share` in turn, each with its
    schedule from `schedules`; a cell that raises has its exception in
    place of the row and ends the share."""
    records = []
    for index in share:
        started = time.perf_counter()
        try:
            row = _run_cell(config, cells[index], blocks,
                            schedules[cells[index][1:4]])
        except Exception as err:  # re-raised by the parent, in grid order
            row = err
        records.append((index, row, time.perf_counter() - started))
        if isinstance(row, Exception):
            break
    return records


def _lost(worker, pid, status):
    return RuntimeError(f"sweep worker {worker} (pid {pid}) "
                        f"{forking.ended(status)} without sending its result")


def _fan_out(config, schedules, seed, cells, shares, entry):
    """(worker, record) of each `_run_share` record of `shares`, at `seed`.
    The seed's normals blocks are shared mappings; share k > 0 runs on
    forked worker k (`forking.Forked`), share 0 here.  Each process first
    draws its slice of the blocks, and no cell starts before every slice
    is in: a worker sends a byte up its pipe once its slice is in and
    waits for one back.  A worker then sends its records up its pipe."""
    started = time.perf_counter()
    blocks = _shared_blocks(config)

    def work(worker, parent):
        _seed_normals(config, seed, blocks, worker, len(shares))
        parent.write(b"\0")
        if not parent.read(1):  # the sweep stopped before every slice was in
            return
        records = _run_share(config, schedules, cells, shares[worker], blocks)
        error = records[-1][1]
        if isinstance(error, Exception) and hasattr(error, "add_note"):
            # the traceback itself does not pickle
            error.add_note(f"raised in sweep worker {worker}:\n"
                           + "".join(traceback.format_exception(error)))
        parent.write(pickle.dumps(records))

    with forking.Forked(functools.partial(work, worker)
                        for worker in range(1, len(shares))) as children:
        entry["fork_seconds"] = time.perf_counter() - started
        _seed_normals(config, seed, blocks, 0, len(shares))
        for worker, child in enumerate(children, 1):
            if not child.read(1):  # its slice is in, or it died
                raise _lost(worker, child.pid, child.reap())
        for child in children:
            # a worker that died since its slice is reported when collected
            with contextlib.suppress(BrokenPipeError):
                child.write(b"\0")
        entry["draw_seconds"] = time.perf_counter() - started
        done = [(0, record) for record in
                _run_share(config, schedules, cells, shares[0], blocks)]
        started = time.perf_counter()
        for worker, child in enumerate(children, 1):
            payload = child.read()
            if child.reap() != 0 or not payload:
                raise _lost(worker, child.pid, child.status)
            done += [(worker, record) for record in pickle.loads(payload)]
        entry["collect_seconds"] = time.perf_counter() - started
    return done


def run_sweep(config: ExperimentConfig, out_dir: str | None = None):
    """Run every cell of the grid; returns the result rows.

    A cell that fails with a library error (a `ValueError`, including
    numpy's `LinAlgError`, an `ArithmeticError` or a `ConvergenceError`)
    marks its row as failed and the sweep moves on; any other exception is
    a bug and propagates.  Config validation happens before this function
    is reachable.

    Each schedule is built once, here, before any cell runs or any worker
    forks.  Each seed's cells fan out over the CPUs this process may use,
    on forked workers that share the seed's normals blocks: each process
    draws a slice of them and then runs whole schedules.  This happens
    only when the process runs a single OS thread: pin BLAS
    (`OPENBLAS_NUM_THREADS=1`, as perfbench does), or the sweep runs
    serially.  `taskset -c 0` also runs it serially.  The rows,
    `results.csv` and `results.json` are byte-identical for any number of
    workers, and a cell's programming error is re-raised here.
    """
    cells = config.grid()
    started = time.perf_counter()
    schedules = _build_schedules(config, cells)
    rows, timings = [], [{"schedules": len(schedules),
                          "build_seconds": time.perf_counter() - started}]
    available = forking.forkable_cpus()
    for seed, group in itertools.groupby(range(len(cells)),
                                         key=lambda i: cells[i][0]):
        indices = list(group)  # the grid is seed-major
        workers = min(available, len(indices))
        entry = {"seed": seed, "draw_seconds": 0.0, "workers": workers,
                 "fork_seconds": 0.0, "collect_seconds": 0.0}
        timings.append(entry)
        if workers == 1:
            started = time.perf_counter()
            blocks = _seed_normals(config, seed)
            entry["draw_seconds"] = time.perf_counter() - started
            done = [(0, record) for record in
                    _run_share(config, schedules, cells, indices, blocks)]
        else:
            done = _fan_out(config, schedules, seed, cells,
                            _shares(cells, indices, workers), entry)
        # grid order, up to the first cell that raised
        for worker, (index, row, seconds) in sorted(
                done, key=lambda item: item[1][0]):
            if isinstance(row, Exception):
                raise row
            rows.append(row)
            timings.append({"cell": index, "seconds": seconds,
                            "worker": worker})

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_report(os.path.join(out_dir, "results"), "fastdiff-sweep",
                     config.config_hash(), CSV_COLUMNS, rows, {"rows": rows})
        write_json(os.path.join(out_dir, "timings.json"), timings)
    return rows


def inspect_schedule(descriptor: dict, kind: str, variant: str,
                     num_steps: int) -> dict:
    """Machine-readable dump of a shortened schedule, with diagnostics."""
    schedule = load_schedule(descriptor)
    fast = build_fast_schedule(schedule, NoiseLevelMap(schedule), kind,
                               variant, num_steps)
    out = fast.to_dict()
    out["eta_tilde"] = fast.eta_tildes.tolist()
    if fast.is_step_kind:
        out["step_var_identity"] = step_as_var_equivalence(fast, schedule)
    else:
        log_product = float(np.sum(np.log1p(-fast.etas)))
        log_target = float(np.sum(np.log1p(-schedule.betas)))
        out["constraint_residual"] = abs(log_product - log_target)
    return out


def format_schedule_dump(dump: dict) -> str:
    lines = [f"kind={dump['kind']} S={dump['S']}"]
    header = f"{'s':>4} {'r_s':>12} {'eta_s':>12} {'eta_tilde_s':>12} {'t_cont_s':>12}"
    if "tau" in dump:
        header += f" {'tau_s':>6}"
    lines.append(header)
    for i in range(dump["S"]):
        line = (f"{i + 1:>4} {dump['r'][i]:>12.6f} {dump['eta'][i]:>12.6f} "
                f"{dump['eta_tilde'][i]:>12.6f} {dump['t_cont'][i]:>12.4f}")
        if "tau" in dump:
            line += f" {dump['tau'][i]:>6}"
        lines.append(line)
    if "step_var_identity" in dump:
        lines.append(f"step-as-var identity: "
                     f"{'ok' if dump['step_var_identity'] else 'VIOLATED'}")
    if "constraint_residual" in dump:
        lines.append(f"variance-product constraint residual: "
                     f"{dump['constraint_residual']:.3e}")
    return "\n".join(lines)
