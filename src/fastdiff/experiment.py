"""Experiment runner: schedule inspection and metric sweeps.

A sweep walks the grid (schedule kind x variant x S x sampler x seed),
generates a batch per cell against the configured noise model, scores it
against the data distribution's exact moments (`score_samples`), and emits
one row per cell.  Rows go to CSV (fixed, versioned column schema
with the config hash in a header comment) and JSON; wall-clock timings go to
a separate file because the CSV/JSON outputs are byte-identical across runs
of the same config.

Each cell draws from an isolated stream derived from (seed, cell index), so
adding cells or reordering the grid cannot perturb existing cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

from . import fast_schedule as fs
from .errors import ConvergenceError, ValidationError
from .metrics import (accuracy, frechet_gaussian, inception_score,
                      sample_moments)
# frechet_distance stays importable for perfbench's call tracer.
from .metrics import frechet_distance  # noqa: F401
from .mixture import AnalyticEpsilonModel, GaussianMixture, posterior_classifier
from .regressor import ToyRegressor
from .samplers import (FINAL_STEP_LITERAL, FINAL_STEP_ZERO, SamplerConfig,
                       run_sampler)
# fast_ddpm_reverse and fast_ddim_reverse stay for perfbench's call tracer.
from .samplers import fast_ddim_reverse, fast_ddpm_reverse  # noqa: F401
from .schedule import NoiseLevelMap, VarianceSchedule
from .storage import ensure_dir

CSV_SCHEMA_VERSION = 2
CSV_COLUMNS = ("seed", "kind", "variant", "S", "sampler", "kappa", "frechet",
               "inception_score", "accuracy", "model_calls_per_chain",
               "normals_per_chain", "status", "error")

_KINDS = ("step", "var")
_VARIANTS = ("linear", "quadratic")
_SAMPLERS = ("ddpm", "ddim")
_RUN_DEFAULTS = {"kind": "step", "variant": "linear", "sampler": "ddpm",
                 "batch": 1000, "seed": 0}
_NUMBER = (int, float)
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string",
               _NUMBER: "a number", int: "an integer", bool: "a boolean"}


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
        _typed("sweep", sweep, dict)
        self.kinds = self._listed(sweep, "kinds", _KINDS)
        self.variants = self._listed(sweep, "variants", _VARIANTS)
        self.num_steps_list = self._listed(
            sweep, "num_steps", range(1, self.schedule.num_steps + 1))
        self.samplers = [
            _sampler_kappa("sweep.samplers entry", spec, "name")
            for spec in _typed("sweep.samplers", sweep.get("samplers", []),
                               list)]
        if not self.samplers:
            raise ValidationError("sweep.samplers must be non-empty")

        self.seeds = [_seed("seeds entry", s)
                      for s in _typed("seeds", raw.get("seeds", []), list)]
        if not self.seeds:
            raise ValidationError("config needs a non-empty 'seeds' list")
        self.samples_per_cell = _typed(
            "samples_per_cell", raw.get("samples_per_cell", 2000), int)
        if self.samples_per_cell < self.mixture.dim + 1:
            raise ValidationError(
                f"samples_per_cell must be at least dim + 1 "
                f"= {self.mixture.dim + 1}")
        self.conditional = _typed("conditional",
                                  raw.get("conditional", False), bool)
        if self.conditional and self.mixture.labels is None:
            raise ValidationError("conditional sweep needs a labelled mixture")
        if self.conditional and not isinstance(self.model,
                                               AnalyticEpsilonModel):
            raise ValidationError(
                "conditional sweep supports the analytic model only")
        if self.conditional and \
                self.samples_per_cell < self.mixture.class_labels().size:
            raise ValidationError("conditional sweep needs samples_per_cell "
                                  ">= the number of classes")

    @staticmethod
    def _listed(sweep, key, allowed):
        values = _typed(f"sweep.{key}", sweep.get(key, []), list)
        if not values:
            raise ValidationError(f"sweep.{key} must be non-empty")
        for v in values:
            _checked(f"sweep.{key} entry", v, allowed)
        return values

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def grid(self):
        """Cells in a fixed order; the enumeration index keys each cell's
        noise stream."""
        cells = []
        for seed in self.seeds:
            for kind in self.kinds:
                for variant in self.variants:
                    for s in self.num_steps_list:
                        for name, kappa in self.samplers:
                            cells.append((seed, kind, variant, s,
                                          name, kappa))
        return cells


def _cell_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(index,))
               .generate_state(1, dtype=np.uint64)[0])


def _checked(name, value, allowed):
    """`value` if it is in `allowed`; a range admits integers only."""
    if isinstance(allowed, range):
        _typed(name, value, int)
    if value not in allowed:
        raise ValidationError(
            f"{name} must be one of {allowed}, got {value!r}")
    return value


def _typed(name, value, kind):
    """`value` if it is an instance of `kind` (a key of _TYPE_NAMES); a
    boolean is not a number."""
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       and kind is not bool):
        raise ValidationError(
            f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _seed(name, value):
    """`value` if it is a non-negative integer."""
    if _typed(name, value, int) < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def _sampler_kappa(where, spec, key):
    """(sampler, kappa) of a `run` section or a `sweep.samplers` entry;
    kappa is DDIM's noise scale, so DDPM admits only 0."""
    sampler = _checked(f"{where} {key}", _typed(where, spec, dict).get(key),
                       _SAMPLERS)
    kappa = float(_typed(f"{where} kappa", spec.get("kappa", 0.0), _NUMBER))
    if not 0.0 <= kappa <= 1.0 or (sampler == "ddpm" and kappa != 0.0):
        raise ValidationError(f"{where} kappa must lie in [0, 1] and be 0 "
                              f"with ddpm, got {kappa}")
    return sampler, kappa


def load_schedule(descriptor) -> VarianceSchedule:
    """The variance schedule of a config's `schedule` descriptor."""
    if descriptor is None:
        raise ValidationError("config needs a 'schedule' descriptor")
    _typed("schedule", descriptor, dict)
    for key, kind in (("beta_1", _NUMBER), ("beta_T", _NUMBER), ("T", int)):
        if key in descriptor:
            _typed(f"schedule.{key}", descriptor[key], kind)
    return VarianceSchedule.from_descriptor(descriptor)


def load_mixture(raw: dict) -> GaussianMixture:
    """The data distribution of a config: `data.preset` or `data.path`."""
    data = _typed("data", raw.get("data", {}), dict)
    if "preset" in data:
        presets = builtin_presets()
        if _typed("data.preset", data["preset"], str) not in presets:
            raise ValidationError(
                f"unknown preset {data['preset']!r}; "
                f"available: {sorted(presets)}")
        return presets[data["preset"]]
    if "path" in data:
        return GaussianMixture.from_json(
            _typed("data.path", data["path"], str))
    raise ValidationError(
        "config needs data.preset or data.path (or --preset)")


def build_model(raw: dict, mixture: GaussianMixture, level_map: NoiseLevelMap):
    """The config's noise model: analytic (default) or trained."""
    spec = _typed("model", raw.get("model", {}), dict)
    kind = _checked("model.kind", spec.get("kind", "analytic"),
                    ("analytic", "trained"))
    if kind == "analytic":
        return AnalyticEpsilonModel(mixture, level_map)
    if not spec.get("path"):
        raise ValidationError("trained model requires a 'path'")
    model = ToyRegressor.load(spec["path"])
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
    return schedule, level_map, mixture, model, _checked(
        "final_step_noise", raw.get("final_step_noise", FINAL_STEP_ZERO),
        (FINAL_STEP_ZERO, FINAL_STEP_LITERAL))


def load_run(raw: dict):
    """The `run` section of a sample config, checked as a sweep's cells are;
    returns (fast schedule, model, sampler config, sampler name)."""
    run = raw.get("run")
    if not run:
        raise ValidationError("sample needs a 'run' section in the config")
    run = {**_RUN_DEFAULTS, **_typed("run", run, dict)}
    if "final_step_noise" in run:
        raise ValidationError("run.final_step_noise: move it to the top level")
    schedule, level_map, mixture, model, final_step_noise = _load_shared(raw)
    sampler, kappa = _sampler_kappa("run", run, "sampler")
    config = SamplerConfig(
        dim=mixture.dim, batch=_typed("run.batch", run["batch"], int),
        seed=_seed("run.seed", run["seed"]), kappa=kappa,
        final_step_noise=final_step_noise)
    fast = build_fast_schedule(schedule, level_map, run["kind"],
                               run["variant"], run.get("S"))
    return fast, model, config, sampler


def build_fast_schedule(schedule, level_map, kind, variant, num_steps):
    """The one check of a run's or a sweep cell's kind, variant and S."""
    if _checked("kind", kind, _KINDS + ("full",)) == "full":
        return fs.FastSchedule.full(schedule)
    _checked("variant", variant, _VARIANTS)
    _checked("S", num_steps, range(1, schedule.num_steps + 1))
    if kind == "step":
        return fs.build_step_schedule(schedule, num_steps, variant)
    return fs.build_var_schedule(schedule, level_map, num_steps, variant)


def _generate(config, model, fast, sampler, kappa, batch, seed):
    sampler_config = SamplerConfig(
        dim=config.mixture.dim, batch=batch, seed=seed, kappa=kappa,
        final_step_noise=config.final_step_noise)
    return run_sampler(fast, model, sampler_config, sampler)


def _conditional_generate(config, fast, sampler, kappa, seed):
    """Round-robin class-conditional generation via per-class restricted
    mixtures; returns (samples, specified label indices)."""
    classes = config.mixture.class_labels()
    per_class = np.full(classes.size, config.samples_per_cell // classes.size)
    per_class[:config.samples_per_cell % classes.size] += 1
    chunks, labels, provenance = [], [], None
    for j, label in enumerate(classes):
        model = AnalyticEpsilonModel(config.mixture.restrict(int(label)),
                                     config.level_map)
        batch = _generate(config, model, fast, sampler, kappa,
                          int(per_class[j]), _cell_seed(seed, j + 1))
        chunks.append(batch.samples)
        labels.append(np.full(int(per_class[j]), j))
        provenance = batch.provenance
    return np.concatenate(chunks), np.concatenate(labels), provenance


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


def run_sweep(config: ExperimentConfig, out_dir: str | None = None):
    """Run every cell of the grid; returns the result rows.

    A cell that fails with a library error (a `ValueError`, including
    numpy's `LinAlgError`, an `ArithmeticError` or a `ConvergenceError`)
    marks its row as failed and the sweep moves on; any other exception is
    a bug and propagates.  Config validation happens before this function
    is reachable.
    """
    grid = config.grid()
    cells_per_seed = len(grid) // len(config.seeds)
    rows, timings = [], []
    for index, (seed, kind, variant, s, sampler, kappa) in enumerate(grid):
        cell = index % cells_per_seed  # index within this seed's grid
        row = {"seed": seed, "kind": kind, "variant": variant, "S": s,
               "sampler": sampler, "kappa": kappa, "frechet": None,
               "inception_score": None, "accuracy": None,
               "model_calls_per_chain": None, "normals_per_chain": None,
               "status": "ok", "error": ""}
        started = time.perf_counter()
        try:
            fast = build_fast_schedule(config.schedule, config.level_map,
                                       kind, variant, s)
            if config.conditional:
                samples, label_idx, provenance = _conditional_generate(
                    config, fast, sampler, kappa, _cell_seed(seed, cell))
            else:
                batch = _generate(config, config.model, fast, sampler, kappa,
                                  config.samples_per_cell,
                                  _cell_seed(seed, cell))
                samples, label_idx, provenance = batch.samples, None, \
                    batch.provenance
            row["model_calls_per_chain"] = provenance["model_calls_per_chain"]
            row["normals_per_chain"] = provenance["normals_per_chain"]
            row.update(score_samples(config.mixture, samples, label_idx))
        except (ValueError, ArithmeticError, ConvergenceError) as err:
            row["status"] = "failed"
            row["error"] = f"{type(err).__name__}: {err}"
        timings.append({"cell": index, "seconds": time.perf_counter() - started})
        rows.append(row)

    if out_dir is not None:
        ensure_dir(out_dir)
        write_rows_csv(rows, os.path.join(out_dir, "results.csv"),
                       config.config_hash())
        with open(os.path.join(out_dir, "results.json"), "w") as fh:
            json.dump({"schema": CSV_SCHEMA_VERSION,
                       "config_hash": config.config_hash(),
                       "rows": rows}, fh, indent=2)
        with open(os.path.join(out_dir, "timings.json"), "w") as fh:
            json.dump(timings, fh, indent=2)
    return rows


def csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(rows, path, config_hash: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# fastdiff-sweep schema={CSV_SCHEMA_VERSION} "
                 f"config={config_hash}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(csv_value(row[c]) for c in CSV_COLUMNS) + "\n")


def inspect_schedule(descriptor: dict, kind: str, variant: str,
                     num_steps: int) -> dict:
    """Machine-readable dump of a shortened schedule, with diagnostics."""
    schedule = load_schedule(descriptor)
    fast = build_fast_schedule(schedule, NoiseLevelMap(schedule), kind,
                               variant, num_steps)
    out = fast.to_dict()
    out["eta_tilde"] = fast.eta_tildes.tolist()
    if fast.is_step_kind:
        out["step_var_identity"] = fs.step_as_var_equivalence(fast, schedule)
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
