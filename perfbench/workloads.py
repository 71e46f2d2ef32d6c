"""The benchmark's four workloads and their correctness gate.

Each workload turns the benchmark seed into its inputs once, then exposes
`call(out_dir)`, the timed part, and `check(...)`, the untimed gate.  A call
builds its own schedule, mixture and model the way a user's run does, so no
cache (the mixture's per-alpha_bar factors, a VAR build) carries from one
call to the next.  Library functions are looked up on their modules at call
time, so the traced run's wrappers see every call.

The gate holds for any seed: it checks counts against their closed forms,
failed sweep cells, finiteness, and a Frechet sanity bound.  Equality of
repeated calls is checked by the runner through `Verdict.fingerprint`.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from fastdiff import cli, experiment, fast_schedule, metrics, regressor, \
    samplers, schedule
from fastdiff.mixture import AnalyticEpsilonModel

BETAS = {"beta_1": 1e-4, "beta_T": 0.02}

# Criterion 6 accepts a Frechet distance of 0.10 at S = 50.  The sanity
# bound adds ten times the expected squared error of a sample mean,
# tr(Sigma) (1/n + 1/n_ref), so that it holds for any seed at small n; a
# broken sampler lands well above it (N(0, I) output scores ~2.3 against
# four_class_2d).
FRECHET_LIMIT = 0.10
NOISE_MARGIN = 10.0


@dataclass
class Verdict:
    failures: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    fingerprint: bytes = b""


def derived_seeds(seed: int, count: int) -> list[int]:
    """Workload seeds drawn from the benchmark seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) for s in state]


def effective_steps(num_steps_full: int, kind: str, variant: str,
                    num_steps: int) -> int:
    """Model calls per chain: STEP subsets may collapse colliding steps."""
    if kind == "var":
        return num_steps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return len(fast_schedule.step_subset(num_steps_full, num_steps,
                                             variant))


def expected_normals(sampler: str, dim: int, steps: int) -> int:
    """Normals per chain with zero final-step noise: the initial state plus
    one block per noisy step for DDPM, the initial state only for DDIM at
    kappa = 0."""
    return dim * steps if sampler == "ddpm" else dim


def frechet_bound(mixture, n: int, n_ref: float = np.inf) -> float:
    _, cov = mixture.moments()
    return FRECHET_LIMIT + NOISE_MARGIN * float(np.trace(cov)) \
        * (1.0 / n + 1.0 / n_ref)


def exact_frechet(mixture, samples) -> float:
    mean, cov = mixture.moments()
    fit_mean, fit_cov = metrics.sample_moments(samples)
    return metrics.frechet_gaussian(fit_mean, fit_cov, mean, cov)


def _check_counts(failures, where, provenance, calls, normals):
    got = (provenance.get("model_calls_per_chain"),
           provenance.get("normals_per_chain"))
    if got != (calls, normals):
        failures.append(f"{where}: model_calls/normals per chain {got}, "
                        f"expected {(calls, normals)}")


def _check_samples(failures, samples, shape):
    if samples.shape != shape:
        failures.append(f"samples have shape {samples.shape}, "
                        f"expected {shape}")
    elif not np.all(np.isfinite(samples)):
        failures.append("samples are not all finite")


def _check_frechet(failures, name, value, bound):
    if not value <= bound:
        failures.append(f"{name} {value!r} above the sanity bound {bound:.4f}")


def _digest(*chunks) -> bytes:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.digest()


class SweepGrid:
    """The README sweep over both variants, for one seed: 24 cells of 2000
    samples.  Three seeds (72 cells, ~5 s) left too few calls per run for a
    steady median on a shared machine."""

    name = "sweep_grid"
    item = "samples"

    def __init__(self, seed: int, work_dir: str, tiny: bool = False):
        self.T = 200
        num_steps = [5] if tiny else [5, 10, 50]
        self.raw = {
            "schedule": {**BETAS, "T": self.T},
            "data": {"preset": "two_blob_2d"},
            "model": {"kind": "analytic"},
            "sweep": {"kinds": ["step", "var"],
                      "variants": ["linear", "quadratic"],
                      "num_steps": num_steps,
                      "samplers": [{"name": "ddpm"},
                                   {"name": "ddim", "kappa": 0.0}]},
            "samples_per_cell": 64 if tiny else 2000,
            "seeds": derived_seeds(seed, 1),
        }
        self.cells = 2 * 2 * len(num_steps) * 2 * len(self.raw["seeds"])
        self.items_per_call = self.cells * self.raw["samples_per_cell"]
        self.top_steps = max(num_steps)
        self.mixture = experiment.builtin_presets()["two_blob_2d"]
        self.expected = {
            (kind, variant, s): effective_steps(self.T, kind, variant, s)
            for kind in ("step", "var") for variant in ("linear", "quadratic")
            for s in num_steps}

    def call(self, out_dir):
        config = experiment.ExperimentConfig(self.raw)
        return experiment.run_sweep(config, out_dir)

    def check(self, rows, out_dir, stdout) -> Verdict:
        verdict = Verdict()
        failures = verdict.failures
        if len(rows) != self.cells:
            failures.append(f"{len(rows)} sweep rows, expected {self.cells}")
        for i, row in enumerate(rows):
            where = (f"cell {i} ({row['kind']} {row['variant']} S={row['S']} "
                     f"{row['sampler']})")
            if row["status"] != "ok":
                failures.append(f"{where} failed: {row['error']}")
                continue
            steps = self.expected[(row["kind"], row["variant"], row["S"])]
            _check_counts(failures, where, row, steps,
                          expected_normals(row["sampler"], 2, steps))
        scores = [row["frechet"] for row in rows if row["status"] == "ok"]
        if scores:
            mean = float(np.mean(scores))
            verdict.quality["frechet"] = mean
            n = self.raw["samples_per_cell"]
            bound = frechet_bound(self.mixture, n, n)
            _check_frechet(failures, "mean frechet", mean, bound)
            for row in rows:
                if row["status"] == "ok" and row["S"] == self.top_steps:
                    _check_frechet(failures, f"frechet at S={row['S']}",
                                   row["frechet"], bound)
        path = os.path.join(out_dir, "results.csv")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                verdict.fingerprint = _digest(fh.read())
        else:
            failures.append("results.csv was not written")
        return verdict


class SampleWide:
    """`fastdiff sample` in-process: 10 000 chains of STEP linear S = 50."""

    name = "sample_wide"
    item = "samples"

    def __init__(self, seed: int, work_dir: str, tiny: bool = False):
        self.T = 1000
        self.batch = 256 if tiny else 10_000
        self.num_steps = 10 if tiny else 50
        self.seed = derived_seeds(seed, 1)[0]
        self.config = {
            "schedule": {**BETAS, "T": self.T},
            "data": {"preset": "four_class_2d"},
            "run": {"kind": "step", "variant": "linear", "S": self.num_steps,
                    "sampler": "ddpm", "batch": self.batch},
        }
        self.items_per_call = self.batch
        self.mixture = experiment.builtin_presets()["four_class_2d"]
        self.steps = effective_steps(self.T, "step", "linear", self.num_steps)
        self.config_path = os.path.join(work_dir, f"{self.name}.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)

    def call(self, out_dir):
        return cli.main(["sample", "--config", self.config_path,
                         "--out", out_dir, "--seed", str(self.seed)])

    def check(self, code, out_dir, stdout) -> Verdict:
        verdict = Verdict()
        failures = verdict.failures
        prefix = os.path.join(out_dir, "samples")
        if code != 0:
            failures.append(f"fastdiff sample exited with {code}")
        expected_line = f"wrote {self.batch} samples to {prefix}.bin"
        if stdout.strip() != expected_line:
            failures.append(f"stdout {stdout.strip()!r}, "
                            f"expected {expected_line!r}")
        try:
            with open(prefix + ".json", "rb") as fh:
                sidecar_bytes = fh.read()
            with open(prefix + ".bin", "rb") as fh:
                bin_bytes = fh.read()
            with open(prefix + ".csv", "rb") as fh:
                csv_bytes = fh.read()
        except OSError as err:
            failures.append(f"missing output: {err}")
            return verdict
        sidecar = json.loads(sidecar_bytes)
        samples = np.frombuffer(bin_bytes, dtype="<f8").reshape(-1, 2)
        _check_samples(failures, samples, (self.batch, 2))
        _check_counts(failures, "sample", sidecar["provenance"], self.steps,
                      expected_normals("ddpm", 2, self.steps))
        if csv_bytes.count(b"\n") != self.batch + 1:
            failures.append("CSV does not hold a header and one row per "
                            "sample")
        if not failures:
            value = exact_frechet(self.mixture, samples)
            verdict.quality["frechet"] = value
            _check_frechet(failures, "frechet", value,
                           frechet_bound(self.mixture, self.batch))
        verdict.fingerprint = _digest(bin_bytes, sidecar_bytes, csv_bytes)
        return verdict


class SampleLong:
    """A VAR quadratic S = 500 build, then deterministic DDIM on 256
    chains."""

    name = "sample_long"
    item = "samples"

    def __init__(self, seed: int, work_dir: str, tiny: bool = False):
        self.T = 1000
        self.num_steps = 50 if tiny else 500
        self.batch = 32 if tiny else 256
        self.seed = derived_seeds(seed, 1)[0]
        self.items_per_call = self.batch
        self.mixture = experiment.builtin_presets()["four_class_2d"]

    def call(self, out_dir):
        sched = schedule.VarianceSchedule(BETAS["beta_1"], BETAS["beta_T"],
                                          self.T)
        level_map = schedule.NoiseLevelMap(sched)
        mixture = experiment.builtin_presets()["four_class_2d"]
        model = AnalyticEpsilonModel(mixture, level_map)
        fast = fast_schedule.build_var_schedule(sched, level_map,
                                                self.num_steps, "quadratic")
        config = samplers.SamplerConfig(dim=mixture.dim, batch=self.batch,
                                        seed=self.seed, kappa=0.0)
        return samplers.fast_ddim_reverse(fast, model, config)

    def check(self, batch, out_dir, stdout) -> Verdict:
        verdict = Verdict()
        failures = verdict.failures
        _check_samples(failures, batch.samples, (self.batch, 2))
        _check_counts(failures, "sample", batch.provenance, self.num_steps,
                      expected_normals("ddim", 2, self.num_steps))
        if not failures:
            value = exact_frechet(self.mixture, batch.samples)
            verdict.quality["frechet"] = value
            _check_frechet(failures, "frechet", value,
                           frechet_bound(self.mixture, self.batch))
        verdict.fingerprint = _digest(
            np.ascontiguousarray(batch.samples).tobytes())
        return verdict


class Train:
    """`train_toy_regressor` with the criterion-10 architecture, 3000
    updates."""

    name = "train"
    item = "updates"

    def __init__(self, seed: int, work_dir: str, tiny: bool = False):
        self.T = 200
        self.params = regressor.TrainingParams(
            hidden=(16, 16) if tiny else (96, 96),
            batch_size=64 if tiny else 256,
            num_updates=30 if tiny else 3000,
            holdout_size=256 if tiny else 4096,
            seed=derived_seeds(seed, 1)[0])
        self.items_per_call = self.params.num_updates
        # An untrained (zero-output) model scores d; 3000 updates reach
        # ~0.5 d on every seed tried, so 0.75 d flags a training loop that
        # stopped learning.  Thirty updates only have to stay bounded.
        self.holdout_fraction = 1.5 if tiny else 0.75

    def call(self, out_dir):
        sched = schedule.VarianceSchedule(BETAS["beta_1"], BETAS["beta_T"],
                                          self.T)
        level_map = schedule.NoiseLevelMap(sched)
        mixture = experiment.builtin_presets()["two_blob_2d"]
        return regressor.train_toy_regressor(mixture, level_map, self.params)

    def check(self, model, out_dir, stdout) -> Verdict:
        verdict = Verdict()
        failures = verdict.failures
        if len(model.loss_trace) != self.params.num_updates:
            failures.append(f"{len(model.loss_trace)} updates, expected "
                            f"{self.params.num_updates}")
        loss = model.holdout_loss
        limit = self.holdout_fraction * model.dim
        verdict.quality["holdout_loss"] = loss
        if loss is None or not loss <= limit:
            failures.append(f"holdout_loss {loss!r} above the sanity bound "
                            f"{limit}")
        verdict.fingerprint = _digest(
            np.asarray(model.loss_trace).tobytes(),
            *(np.ascontiguousarray(a).tobytes()
              for a in model.weights + model.biases))
        return verdict


WORKLOADS = {w.name: w for w in (SweepGrid, SampleWide, SampleLong, Train)}


def make(name: str, seed: int, work_dir: str, tiny: bool = False):
    """Build a workload's inputs from the seed; files go under work_dir."""
    return WORKLOADS[name](seed, work_dir, tiny)
