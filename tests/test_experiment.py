import copy
import csv
import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastdiff import (ConvergenceError, GaussianMixture, SamplerConfig,
                      ValidationError, frechet_gaussian, run_sampler,
                      sample_moments, samplers)
from fastdiff.cli import main
from fastdiff.experiment import (CSV_COLUMNS, ExperimentConfig,
                                 builtin_presets, format_schedule_dump,
                                 inspect_schedule, load_run, run_sweep,
                                 score_samples)
from fastdiff.fast_schedule import build_fast_schedule

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

    @pytest.mark.parametrize("name", [*samplers.SAMPLERS, "dimm", "DDPM",
                                      "ddim ", "", None])
    def test_accepts_exactly_the_sampler_names(self, name):
        sweep = config_with()
        sweep["sweep"] = dict(sweep["sweep"], samplers=[{"name": name}])
        run = config_with(run={"S": 5, "sampler": name})
        if name in samplers.SAMPLERS:
            assert ExperimentConfig(sweep).samplers == [(name, 0.0)]
            assert load_run(run)[3] == name
            return
        for load, raw in ((ExperimentConfig, sweep), (load_run, run)):
            with pytest.raises(ValidationError) as error:
                load(raw)
            assert str(error.value).endswith(
                f" must be one of {samplers.SAMPLERS}, got {name!r}")


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

    def test_collapsed_step_reports_effective_S(self):
        raw = config_with(schedule=dict(BASE_CONFIG["schedule"], T=40),
                          samples_per_cell=10)
        raw["sweep"] = dict(raw["sweep"], kinds=["step"],
                            variants=["quadratic"], num_steps=[10],
                            samplers=[{"name": "ddpm"}])
        with pytest.warns(UserWarning, match="collapsed from 10 to 9"):
            [row] = run_sweep(ExperimentConfig(raw))
        assert (row["S"], row["model_calls_per_chain"]) == (10, 9)

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
        assert lines[0] == (f"# fastdiff-sweep schema=3 "
                            f"config={config.config_hash()}")
        assert lines[1].startswith("seed,kind,variant,S,sampler,kappa")
        assert len(lines) == 3

    def test_draws_no_reference_set(self, monkeypatch):
        def no_draws(self, stream, n):
            raise AssertionError("the sweep drew from the data distribution")

        monkeypatch.setattr(GaussianMixture, "sample", no_draws)
        raw = config_with(data={"preset": "two_blob_2d"},
                          samples_per_cell=100)
        rows = run_sweep(ExperimentConfig(raw))
        assert [r["status"] for r in rows] == ["ok"] * 12

    def test_frechet_is_to_the_exact_moments(self, monkeypatch):
        import fastdiff.experiment as exp
        real, runs = exp.run_sampler, []

        def kept(fast, model, config, sampler, normals=None):
            batch = real(fast, model, config, sampler, normals=normals)
            runs.append((config, batch.samples))
            return batch

        monkeypatch.setattr(exp, "run_sampler", kept)
        config = ExperimentConfig(config_with(samples_per_cell=100,
                                              seeds=[0, 3]))
        rows = run_sweep(config)
        assert len(runs) == len(rows) == 24
        for row, (sampler_config, samples) in zip(rows, runs):
            # each cell runs what `fastdiff sample` runs with its seed
            assert sampler_config.seed == row["seed"]
            assert sampler_config.batch == config.samples_per_cell
            assert row["frechet"] == frechet_gaussian(
                *sample_moments(samples), *config.mixture.moments())

    def test_adding_an_S_leaves_other_rows(self, tmp_path):
        raw = config_with(data={"preset": "two_blob_2d"},
                          samples_per_cell=200, seeds=[0, 1])
        raw["sweep"] = dict(raw["sweep"], num_steps=[5, 50])
        run_sweep(ExperimentConfig(copy.deepcopy(raw)), str(tmp_path / "a"))
        raw["sweep"]["num_steps"] = [5, 10, 50]
        run_sweep(ExperimentConfig(raw), str(tmp_path / "b"))
        before = (tmp_path / "a" / "results.csv").read_text().splitlines()
        after = (tmp_path / "b" / "results.csv").read_text().splitlines()
        assert len(after) == 2 + 24  # 2 seeds x 2 kinds x 3 S x 2 samplers
        assert before[2:] == [line for line in after[2:]
                              if line.split(",")[3] != "10"]

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

    def test_failed_row_reads_back_from_csv(self, tmp_path, monkeypatch):
        import fastdiff.experiment as exp
        real = exp.build_fast_schedule

        def failing(schedule, level_map, kind, variant, num_steps):
            if kind == "var":
                raise ConvergenceError('no ramp, "var"\nat this S')
            return real(schedule, level_map, kind, variant, num_steps)

        monkeypatch.setattr(exp, "build_fast_schedule", failing)
        raw = config_with(samples_per_cell=100)
        raw["sweep"] = dict(raw["sweep"], num_steps=[5])
        rows = run_sweep(ExperimentConfig(raw), str(tmp_path))
        assert [r["status"] for r in rows] == ["ok", "ok", "failed", "failed"]
        with open(tmp_path / "results.csv", newline="") as fh:
            assert fh.readline().startswith("# fastdiff-sweep schema=3 ")
            records = list(csv.DictReader(fh))
        # an extra field would show as a 14th key, None
        assert [len(record) for record in records] == [13] * 4
        assert records == [{c: "" if row[c] is None else str(row[c])
                            for c in CSV_COLUMNS} for row in rows]

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

        def huge(fast, model, config, sampler, normals=None):
            batch = real(fast, model, config, sampler, normals=normals)
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


@pytest.fixture
def draws(monkeypatch):
    """(seed, chains, columns) of every `chain_normals` call, in the sweep's
    block draw or in the reverse driver.  Sweeps run serially here, so
    every draw is this process's own, of whole blocks."""
    import fastdiff.experiment as exp
    monkeypatch.setattr(exp, "_available_workers", lambda: 1)
    calls = []

    def counting(real):
        def draw(seed, num_chains, count, **into):
            calls.append((seed, num_chains, count))
            return real(seed, num_chains, count, **into)
        return draw

    for module in (exp, samplers):
        monkeypatch.setattr(module, "chain_normals",
                            counting(module.chain_normals))
    return calls


class TestSeedBlocks:
    """Each seed's normals are drawn once, one block per sampler run, and
    every cell reads a prefix of it."""

    def test_one_block_per_seed(self, draws):
        rows = run_sweep(ExperimentConfig(config_with(samples_per_cell=30,
                                                      seeds=[0, 3])))
        assert len(rows) == 24
        # S = 50 DDPM reads the initial state and 49 noisy rows
        assert draws == [(0, 30, 50 * 2), (3, 30, 50 * 2)]

    def test_one_block_per_seed_and_class(self, draws):
        import fastdiff.experiment as exp
        raw = config_with(data={"preset": "four_class_2d"}, conditional=True,
                          samples_per_cell=10, seeds=[0, 3])
        raw["sweep"] = dict(raw["sweep"], num_steps=[5, 10])
        run_sweep(ExperimentConfig(raw))
        assert draws == [(exp._class_seed(seed, j), 3 if j < 2 else 2, 10 * 2)
                         for seed in (0, 3) for j in range(4)]

    def test_sample_draws_once(self, draws, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps({
            "schedule": BASE_CONFIG["schedule"],
            "data": {"preset": "std_normal_2d"},
            "run": {"kind": "var", "S": 7, "batch": 9, "seed": 4}}))
        assert main(["sample", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "out")]) == 0
        assert draws == [(4, 9, 7 * 2)]

    def test_undersized_block_is_not_a_failed_cell(self, monkeypatch):
        import fastdiff.experiment as exp
        real = exp._seed_normals
        # the serial sweep's blocks, drawn whole in this process
        monkeypatch.setattr(exp, "_available_workers", lambda: 1)
        monkeypatch.setattr(exp, "_seed_normals", lambda config, seed: [
            block[:, :-1] for block in real(config, seed)])
        with pytest.raises(TypeError, match="normals block"):
            run_sweep(ExperimentConfig(config_with(samples_per_cell=20)))

    @pytest.mark.parametrize("final_step_noise", ["zero", "literal"])
    def test_one_row_block_is_not_written(self, final_step_noise):
        # DDIM kappa = 0 reads only the initial state from a one-row block;
        # a cell that updated it in place would start the next cell from
        # its own output
        raw = config_with(data={"preset": "two_blob_2d"}, seeds=[0, 5],
                          samples_per_cell=60,
                          final_step_noise=final_step_noise)
        raw["sweep"] = dict(raw["sweep"], num_steps=[2, 5],
                            samplers=[{"name": "ddim", "kappa": 0.0}])
        config = ExperimentConfig(raw)
        rows = run_sweep(config)
        assert len(rows) == 8
        for row in rows:
            fast = build_fast_schedule(config.schedule, config.level_map,
                                       row["kind"], row["variant"], row["S"])
            alone = run_sampler(fast, config.model, SamplerConfig(
                dim=2, batch=60, seed=row["seed"],
                final_step_noise=final_step_noise), "ddim")
            scores = score_samples(config.mixture, alone.samples)
            assert row["status"] == "ok"
            assert {key: row[key] for key in scores} == scores

    def test_timings_hold_each_seed_s_draw(self, tmp_path):
        config = ExperimentConfig(config_with(samples_per_cell=20,
                                              seeds=[4, 1]))
        run_sweep(config, str(tmp_path))
        timings = json.loads((tmp_path / "timings.json").read_text())
        draws = [entry for entry in timings if "seed" in entry]
        assert [entry["seed"] for entry in draws] == [4, 1]
        assert all(entry["draw_seconds"] >= 0.0 for entry in draws)
        # the builds come first; each draw comes before its seed's 12 cells
        assert timings[0]["schedules"] == 6
        assert [timings.index(entry) for entry in draws] == [1, 14]
        assert [entry["cell"] for entry in timings if "cell" in entry] \
            == list(range(24))


# Axes of the grid that the property test below draws sub-grids from.
AXES = {"kinds": ["step", "var"], "variants": ["linear", "quadratic"],
        "num_steps": [2, 5, 10],
        "samplers": [{"name": "ddpm"}, {"name": "ddim", "kappa": 0.0},
                     {"name": "ddim", "kappa": 0.5}]}
AXIS_SEEDS = [0, 7]


def small_sweep(axes, seeds, conditional):
    # T = 80 keeps every quadratic STEP length of AXES free of collapses
    return {"schedule": {"beta_1": 1e-4, "beta_T": 0.02, "T": 80},
            "data": {"preset": "two_blob_2d"}, "sweep": axes,
            "samples_per_cell": 8, "seeds": seeds, "conditional": conditional}


def rows_by_cell(raw):
    """(seed, kind, variant, S, sampler, kappa) -> the repr of each of the
    row's fields."""
    rows = run_sweep(ExperimentConfig(raw))
    return {tuple(row[c] for c in CSV_COLUMNS[:6]):
            [repr(row[c]) for c in CSV_COLUMNS] for row in rows}


@functools.lru_cache(maxsize=None)
def full_grid_rows(conditional):
    return rows_by_cell(small_sweep(AXES, AXIS_SEEDS, conditional))


def sub_list(values):
    """A non-empty subset of `values` in any order."""
    return st.lists(st.sampled_from(values), min_size=1,
                    max_size=len(values), unique_by=json.dumps)


@settings(max_examples=25)
@given(axes=st.fixed_dictionaries({key: sub_list(values)
                                   for key, values in AXES.items()}),
       seeds=sub_list(AXIS_SEEDS), conditional=st.booleans())
def test_row_depends_only_on_its_own_cell(axes, seeds, conditional):
    rows = rows_by_cell(small_sweep(axes, seeds, conditional))
    full = full_grid_rows(conditional)
    assert len(rows) == len(seeds) * len(axes["kinds"]) \
        * len(axes["variants"]) * len(axes["num_steps"]) \
        * len(axes["samplers"])
    for cell, fields in rows.items():
        assert fields == full[cell]


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
