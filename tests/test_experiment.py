import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fastdiff import ConvergenceError, ValidationError
from fastdiff.experiment import (ExperimentConfig, builtin_presets,
                                 format_schedule_dump, inspect_schedule,
                                 run_sweep)

BASE_CONFIG = {
    "schedule": {"beta_1": 1e-4, "beta_T": 0.02, "T": 200},
    "data": {"preset": "std_normal_2d"},
    "model": {"kind": "analytic"},
    "sweep": {
        "kinds": ["step", "var"],
        "variants": ["linear"],
        "num_steps": [5, 10, 50],
        "samplers": [{"name": "ddpm"}, {"name": "ddim", "kappa": 0.0}],
    },
    "samples_per_cell": 400,
    "seeds": [0],
}


def config_with(**overrides):
    raw = copy.deepcopy(BASE_CONFIG)
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_accepts_base(self):
        config = ExperimentConfig(copy.deepcopy(BASE_CONFIG))
        assert len(config.grid()) == 12

    def test_missing_schedule(self):
        raw = config_with()
        del raw["schedule"]
        with pytest.raises(ValidationError):
            ExperimentConfig(raw)

    def test_empty_sweep(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(config_with(sweep={}))

    def test_empty_dimension(self):
        raw = config_with()
        raw["sweep"] = dict(raw["sweep"], num_steps=[])
        with pytest.raises(ValidationError):
            ExperimentConfig(raw)

    def test_unknown_kind(self):
        raw = config_with()
        raw["sweep"] = dict(raw["sweep"], kinds=["cosine"])
        with pytest.raises(ValidationError):
            ExperimentConfig(raw)

    def test_bad_kappa(self):
        raw = config_with()
        raw["sweep"] = dict(raw["sweep"],
                            samplers=[{"name": "ddim", "kappa": 2.0}])
        with pytest.raises(ValidationError):
            ExperimentConfig(raw)

    def test_steps_beyond_schedule(self):
        raw = config_with()
        raw["sweep"] = dict(raw["sweep"], num_steps=[500])
        with pytest.raises(ValidationError):
            ExperimentConfig(raw)

    def test_no_seeds(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(config_with(seeds=[]))

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(config_with(data={"preset": "nope"}))

    def test_conditional_needs_labels(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(config_with(conditional=True))


@pytest.fixture(scope="module")
def rows():
    return run_sweep(ExperimentConfig(copy.deepcopy(BASE_CONFIG)))


class TestSweep:
    def test_row_count_is_grid_size(self, rows):
        assert len(rows) == 12

    def test_frechet_finite_nonnegative(self, rows):
        for row in rows:
            assert row["status"] == "ok"
            assert np.isfinite(row["frechet"])
            assert row["frechet"] >= 0.0

    def test_model_call_counts(self, rows):
        for row in rows:
            assert row["model_calls_per_chain"] == row["S"]

    def test_unlabelled_data_has_no_classifier_metrics(self, rows):
        for row in rows:
            assert row["inception_score"] is None
            assert row["accuracy"] is None

    def test_csv_byte_identity(self, tmp_path):
        raw = config_with(samples_per_cell=100)
        raw["sweep"] = dict(raw["sweep"], num_steps=[5])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_sweep(ExperimentConfig(copy.deepcopy(raw)), str(out_a))
        run_sweep(ExperimentConfig(copy.deepcopy(raw)), str(out_b))
        assert (out_a / "results.csv").read_bytes() \
            == (out_b / "results.csv").read_bytes()
        assert (out_a / "results.json").read_bytes() \
            == (out_b / "results.json").read_bytes()

    def test_csv_header_carries_schema_and_hash(self, tmp_path):
        raw = config_with(samples_per_cell=100)
        raw["sweep"] = dict(raw["sweep"], kinds=["step"], num_steps=[5],
                            samplers=[{"name": "ddim", "kappa": 0.0}])
        config = ExperimentConfig(raw)
        run_sweep(config, str(tmp_path))
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == (f"# fastdiff-sweep schema=1 "
                            f"config={config.config_hash()}")
        assert lines[1].startswith("seed,kind,variant,S,sampler,kappa")
        assert len(lines) == 3

    def test_cell_failure_is_isolated(self, monkeypatch):
        import fastdiff.experiment as exp
        real = exp.build_fast_schedule

        def flaky(schedule, level_map, kind, variant, num_steps):
            if kind == "var" and num_steps == 10:
                raise ConvergenceError("synthetic cell failure")
            return real(schedule, level_map, kind, variant, num_steps)

        monkeypatch.setattr(exp, "build_fast_schedule", flaky)
        rows = run_sweep(ExperimentConfig(copy.deepcopy(BASE_CONFIG)))
        failed = [r for r in rows if r["status"] == "failed"]
        assert len(failed) == 2  # ddpm + ddim at (var, 10)
        assert all("synthetic cell failure" in r["error"] for r in failed)
        assert sum(r["status"] == "ok" for r in rows) == 10

    def test_programming_error_in_cell_raises(self, monkeypatch):
        import fastdiff.experiment as exp

        def broken(*args):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(exp, "build_fast_schedule", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_sweep(ExperimentConfig(copy.deepcopy(BASE_CONFIG)))

    def test_huge_samples_fail_only_their_cell(self, monkeypatch):
        import fastdiff.experiment as exp
        real = exp.run_sampler

        def huge(fast, model, config, sampler):
            batch = real(fast, model, config, sampler)
            if fast.kind == "var_linear" and fast.num_steps == 10 \
                    and sampler == "ddim":
                batch.samples = batch.samples * 1e200
            return batch

        monkeypatch.setattr(exp, "run_sampler", huge)
        raw = config_with(data={"preset": "two_blob_2d"})
        rows = run_sweep(ExperimentConfig(raw))
        failed = [r for r in rows if r["status"] == "failed"]
        assert [(r["kind"], r["S"], r["sampler"]) for r in failed] == [
            ("var", 10, "ddim")]
        assert failed[0]["error"].startswith("FloatingPointError")
        assert sum(r["status"] == "ok" for r in rows) == 11

    def test_conditional_sweep_scores_accuracy(self):
        raw = config_with(data={"preset": "two_blob_2d"}, conditional=True,
                          samples_per_cell=300)
        raw["sweep"] = dict(raw["sweep"], kinds=["step"], num_steps=[20],
                            samplers=[{"name": "ddpm"}])
        rows = run_sweep(ExperimentConfig(raw))
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "ok"
        # blobs three sigma apart: the Bayes classifier nails conditional draws
        assert row["accuracy"] > 0.95
        assert 1.0 <= row["inception_score"] <= 2.0

    def test_labelled_unconditional_reports_is_only(self):
        raw = config_with(data={"preset": "two_blob_2d"},
                          samples_per_cell=300)
        raw["sweep"] = dict(raw["sweep"], kinds=["var"], num_steps=[20],
                            samplers=[{"name": "ddpm"}])
        row = run_sweep(ExperimentConfig(raw))[0]
        assert row["inception_score"] is not None
        assert row["accuracy"] is None


class TestInspect:
    def test_step_dump_has_integer_continuous_steps(self):
        dump = inspect_schedule({"beta_1": 1e-4, "beta_T": 0.02, "T": 1000},
                                "step", "linear", 10)
        assert dump["t_cont"] == [float(k) for k in
                                  range(100, 1001, 100)]
        assert dump["step_var_identity"] is True

    def test_var_dump_reports_residual(self):
        dump = inspect_schedule({"beta_1": 1e-4, "beta_T": 0.02, "T": 200},
                                "var", "linear", 5)
        assert dump["constraint_residual"] <= 1e-10
        assert "tau" not in dump

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            inspect_schedule({"beta_1": 1e-4, "beta_T": 0.02, "T": 200},
                             "step", "linear", 0)

    def test_format_is_printable(self):
        dump = inspect_schedule({"beta_1": 1e-4, "beta_T": 0.02, "T": 200},
                                "step", "quadratic", 5)
        text = format_schedule_dump(dump)
        assert "step-as-var identity: ok" in text
        assert text.count("\n") == 5 + 2  # header rows + one per step + check


def test_presets_are_valid_mixtures():
    presets = builtin_presets()
    assert {"std_normal_2d", "two_blob_2d", "four_class_2d"} <= set(presets)
    for gm in presets.values():
        mean, cov = gm.moments()
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))


def test_readme_sweep_config_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    config = ExperimentConfig(json.loads(blocks[0]))
    # 3 seeds x 2 kinds x 1 variant x 3 S x 2 samplers
    assert len(config.grid()) == 36
