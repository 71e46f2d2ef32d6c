import csv
import json

import numpy as np
import pytest

import fastdiff.cli
from fastdiff import (AnalyticEpsilonModel, NoiseLevelMap, SamplerConfig,
                      VarianceSchedule, ddpm_reverse, frechet_gaussian,
                      load_samples, sample_moments, save_samples)
from fastdiff.cli import main
from fastdiff.experiment import builtin_presets, score_samples
from fastdiff.samplers import SAMPLERS, reported_kappa
from fastdiff.storage import CSV_DIM_LIMIT

SCHEDULE = {"beta_1": 1e-4, "beta_T": 0.02, "T": 200}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def sample_config(tmp_path):
    return write_config(tmp_path, "sample.json", {
        "schedule": SCHEDULE,
        "data": {"preset": "std_normal_2d"},
        "model": {"kind": "analytic"},
        "run": {"kind": "step", "variant": "linear", "S": 10,
                "sampler": "ddpm", "batch": 300},
    })


@pytest.fixture
def sweep_config(tmp_path):
    return write_config(tmp_path, "sweep.json", {
        "schedule": SCHEDULE,
        "data": {"preset": "std_normal_2d"},
        "model": {"kind": "analytic"},
        "sweep": {"kinds": ["step"], "variants": ["linear"],
                  "num_steps": [5, 10],
                  "samplers": [{"name": "ddim", "kappa": 0.0}]},
        "samples_per_cell": 200,
        "seeds": [0, 1],
    })


class TestInspect:
    def test_json_dump(self, tmp_path, capsys):
        config = write_config(tmp_path, "inspect.json",
                              {"schedule": {"beta_1": 1e-4, "beta_T": 0.02,
                                            "T": 1000}})
        code = main(["inspect", "--config", config, "--kind", "step",
                     "--variant", "linear", "-S", "10", "--json"])
        assert code == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["t_cont"] == [float(v) for v in range(100, 1001, 100)]

    def test_human_readable(self, tmp_path, capsys):
        config = write_config(tmp_path, "inspect.json", {
            "schedule": SCHEDULE,
            "run": {"kind": "var", "variant": "linear", "S": 5}})
        assert main(["inspect", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "constraint residual" in out

    @pytest.mark.parametrize("run,flags", [({"kind": "full"}, []),
                                           ({}, ["--kind", "full"])])
    def test_full_chain(self, tmp_path, capsys, run, flags):
        config = write_config(tmp_path, "full.json", {
            "schedule": dict(SCHEDULE, T=50), "run": run})
        assert main(["inspect", "--config", config, *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "kind=full S=50"
        assert len(lines) == 2 + 50 + 1  # headers, one row per step, check
        assert lines[-1] == "step-as-var identity: ok"
        assert main(["inspect", "--config", config, "--json", *flags]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["tau"] == list(range(1, 51))
        assert dump["step_var_identity"] is True

    def test_run_defaults_to_step_linear(self, tmp_path, capsys):
        bare = write_config(tmp_path, "bare.json", {
            "schedule": SCHEDULE, "run": {"S": 10}})
        assert main(["inspect", "--config", bare, "--json"]) == 0
        dump = capsys.readouterr().out
        assert main(["inspect", "--config", bare, "--json", "--kind", "step",
                     "--variant", "linear"]) == 0
        assert capsys.readouterr().out == dump
        assert json.loads(dump)["kind"] == "step_linear"

    def test_missing_pieces(self, tmp_path, capsys):
        config = write_config(tmp_path, "inspect.json",
                              {"schedule": SCHEDULE})
        assert main(["inspect", "--config", config]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--out", "x"),
                                            ("--preset", "bogus")])
    def test_takes_no_out_or_preset(self, tmp_path, capsys, flag, value):
        # inspect writes nothing and reads no data, so these are unknown
        config = write_config(tmp_path, "ok.json", config_with())
        with pytest.raises(SystemExit) as exit_info:
            main(["inspect", "--config", config, flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" \
            in capsys.readouterr().err


class TestSample:
    def test_writes_batch_files(self, sample_config, tmp_path):
        out = tmp_path / "out"
        code = main(["sample", "--config", sample_config,
                     "--out", str(out), "--seed", "3"])
        assert code == 0
        assert (out / "samples.bin").exists()
        assert (out / "samples.csv").exists()
        sidecar = json.loads((out / "samples.json").read_text())
        assert sidecar["shape"] == [300, 2]
        assert sidecar["provenance"]["seed"] == 3

    def test_no_csv_above_the_dimension_limit(self, tmp_path):
        dim = CSV_DIM_LIMIT + 1
        mixture = tmp_path / "wide.json"
        mixture.write_text(json.dumps({
            "weights": [1.0], "means": [[0.0] * dim],
            "covariances": [np.eye(dim).tolist()]}))
        config = write_config(tmp_path, "wide_config.json", {
            "schedule": SCHEDULE, "data": {"path": str(mixture)},
            "run": {"kind": "step", "S": 5, "batch": 4}})
        out = tmp_path / "out"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        assert (out / "samples.bin").stat().st_size == 8 * 4 * dim
        assert not (out / "samples.csv").exists()

    def test_deterministic_bytes(self, sample_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sample", "--config", sample_config, "--out", str(a)])
        main(["sample", "--config", sample_config, "--out", str(b)])
        assert (a / "samples.bin").read_bytes() == \
            (b / "samples.bin").read_bytes()

    def test_env_var_output_dir(self, sample_config, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("FASTDIFF_OUT", str(target))
        assert main(["sample", "--config", sample_config]) == 0
        assert (target / "samples.bin").exists()

    def test_full_chain_kind(self, tmp_path):
        config = write_config(tmp_path, "full.json", {
            "schedule": {"beta_1": 1e-4, "beta_T": 0.02, "T": 50},
            "data": {"preset": "std_normal_2d"},
            "run": {"kind": "full", "batch": 50}})
        out = tmp_path / "out"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        sidecar = json.loads((out / "samples.json").read_text())
        assert sidecar["provenance"]["model_calls_per_chain"] == 50

    def test_full_chain_provenance_is_one_schema(self, tmp_path):
        provenance = {}
        for sampler in ("ddpm", "ddim"):
            config = write_config(tmp_path, f"{sampler}.json", {
                "schedule": {"beta_1": 1e-4, "beta_T": 0.02, "T": 50},
                "data": {"preset": "std_normal_2d"},
                "run": {"kind": "full", "sampler": sampler, "batch": 5}})
            out = tmp_path / sampler
            assert main(["sample", "--config", config,
                         "--out", str(out)]) == 0
            provenance[sampler] = json.loads(
                (out / "samples.json").read_text())["provenance"]
        ddpm, ddim = provenance["ddpm"], provenance["ddim"]
        assert ddpm["sampler"] == "ddpm"
        assert set(ddpm) == set(ddim) - {"kappa"}
        assert ddpm["fast_schedule"] == ddim["fast_schedule"]
        assert ddpm["fast_schedule"]["kind"] == "full"

    def test_full_chain_with_ddim_runs_the_implicit_sampler(self, tmp_path):
        config = write_config(tmp_path, "full.json", {
            "schedule": {"beta_1": 1e-4, "beta_T": 0.02, "T": 50},
            "data": {"preset": "std_normal_2d"},
            "run": {"kind": "full", "sampler": "ddim", "kappa": 0.0,
                    "batch": 20}})
        out = tmp_path / "out"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        provenance = json.loads((out / "samples.json").read_text())[
            "provenance"]
        assert provenance["sampler"] == "ddim"
        assert provenance["fast_schedule"]["kind"] == "full"
        assert provenance["model_calls_per_chain"] == 50
        assert provenance["normals_per_chain"] == 2  # dim: the initial state

    def test_top_level_final_step_noise(self, tmp_path):
        config = write_config(tmp_path, "literal.json", {
            "schedule": SCHEDULE, "data": {"preset": "std_normal_2d"},
            "final_step_noise": "literal",
            "run": {"kind": "step", "S": 10, "batch": 20}})
        out = tmp_path / "out"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        provenance = json.loads((out / "samples.json").read_text())[
            "provenance"]
        assert provenance["final_step_noise"] == "literal"


class TestEvaluate:
    def test_reports_metrics(self, sample_config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["sample", "--config", sample_config, "--out", str(out)])
        code = main(["evaluate", "--config", sample_config,
                     "--samples", str(out / "samples"), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 3
        assert report["frechet"] >= 0.0
        assert report["num_generated"] == 300
        assert report["config"]["schedule_kind"] == "step_linear"
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert csv_lines[0] == (f"# fastdiff-evaluate schema=3 "
                                f"config={report['config_hash']}")
        assert csv_lines[1] == ("schedule_kind,S,sampler,kappa,seed,frechet,"
                                "inception_score,accuracy")
        assert csv_lines[2].startswith("step_linear,10,ddpm,,0,")
        assert len(csv_lines) == 3

    def test_frechet_is_to_the_exact_moments(self, sample_config, tmp_path):
        out = tmp_path / "out"
        main(["sample", "--config", sample_config, "--out", str(out)])
        assert main(["evaluate", "--config", sample_config,
                     "--samples", str(out / "samples"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        samples = load_samples(str(out / "samples")).samples
        mixture = builtin_presets()["std_normal_2d"]
        assert report["frechet"] == frechet_gaussian(
            *sample_moments(samples), *mixture.moments())
        assert list(report) == ["schema", "config_hash", "frechet",
                                "inception_score", "accuracy",
                                "num_generated", "config"]

    def test_ddpm_full_sidecar(self, sample_config, tmp_path):
        schedule = VarianceSchedule(1e-4, 0.02, 200)
        model = AnalyticEpsilonModel(builtin_presets()["std_normal_2d"],
                                     NoiseLevelMap(schedule))
        batch = ddpm_reverse(schedule, model,
                             SamplerConfig(dim=2, batch=30, seed=2))
        save_samples(batch, str(tmp_path / "full"))
        out = tmp_path / "out"
        assert main(["evaluate", "--config", sample_config,
                     "--samples", str(tmp_path / "full"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"] == {"sampler": "ddpm", "kappa": None,
                                    "seed": 2, "schedule_kind": "full",
                                    "S": 200}

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_accepts_what_sample_writes(self, tmp_path, name):
        config = write_config(tmp_path, "run.json",
                              config_with(run={"sampler": name}))
        out = tmp_path / "out"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        assert main(["evaluate", "--config", config,
                     "--samples", str(out / "samples"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["sampler"] == name
        assert report["config"]["kappa"] == reported_kappa(name, 0.0)

    def test_requires_samples_flag(self, sample_config, tmp_path):
        assert main(["evaluate", "--config", sample_config,
                     "--out", str(tmp_path)]) == 1

    def test_truncated_samples_exit_1(self, sample_config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["sample", "--config", sample_config, "--out", str(out)])
        data = (out / "samples.bin").read_bytes()
        (out / "samples.bin").write_bytes(data[:len(data) // 2])
        assert main(["evaluate", "--config", sample_config,
                     "--samples", str(out / "samples"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestSweepVerb:
    def test_writes_results(self, sweep_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep", "--config", sweep_config, "--out", str(out)])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2 + 4  # comment + header + 2 seeds x 2 S
        assert (out / "results.json").exists()
        assert (out / "timings.json").exists()

    def test_seed_override_shrinks_grid(self, sweep_config, tmp_path):
        out = tmp_path / "out"
        main(["sweep", "--config", sweep_config, "--out", str(out),
              "--seed", "5"])
        rows = json.loads((out / "results.json").read_text())["rows"]
        assert {r["seed"] for r in rows} == {5}

    def test_preset_override(self, sweep_config, tmp_path):
        out = tmp_path / "out"
        main(["sweep", "--config", sweep_config, "--out", str(out),
              "--preset", "two_blob_2d", "--seed", "0"])
        rows = json.loads((out / "results.json").read_text())["rows"]
        assert all(r["inception_score"] is not None for r in rows)

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        config = write_config(tmp_path, "bad.json", {
            "schedule": SCHEDULE, "data": {"preset": "std_normal_2d"},
            "sweep": {}, "seeds": [0]})
        assert main(["sweep", "--config", config,
                     "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    def test_missing_out_dir_is_error(self, sweep_config, monkeypatch,
                                      capsys):
        monkeypatch.delenv("FASTDIFF_OUT", raising=False)
        assert main(["sweep", "--config", sweep_config]) == 1

    def test_sample_reproduces_each_row(self, tmp_path):
        sweep = {"schedule": SCHEDULE, "data": {"preset": "two_blob_2d"},
                 "sweep": {"kinds": ["step", "var"], "variants": ["quadratic"],
                           "num_steps": [5, 10],
                           "samplers": [{"name": "ddpm"},
                                        {"name": "ddim", "kappa": 0.5}]},
                 "samples_per_cell": 150, "seeds": [0, 4]}
        out = tmp_path / "sweep"
        assert main(["sweep", "--config",
                     write_config(tmp_path, "sweep.json", sweep),
                     "--out", str(out)]) == 0
        rows = json.loads((out / "results.json").read_text())["rows"]
        assert len(rows) == 16
        mixture = builtin_presets()["two_blob_2d"]
        for i, row in enumerate(rows):
            config = write_config(tmp_path, f"run{i}.json", {
                "schedule": SCHEDULE, "data": {"preset": "two_blob_2d"},
                "run": {"kind": row["kind"], "variant": row["variant"],
                        "S": row["S"], "sampler": row["sampler"],
                        "kappa": row["kappa"], "seed": row["seed"],
                        "batch": sweep["samples_per_cell"]}})
            assert main(["sample", "--config", config,
                         "--out", str(tmp_path / f"run{i}")]) == 0
            samples = load_samples(str(tmp_path / f"run{i}" / "samples"))
            assert score_samples(mixture, samples.samples)["frechet"] \
                == row["frechet"]


def config_with(run=(), sweep=(), **top):
    """A config that every verb accepts, with entries of `run`, `sweep` and
    the top level replaced; a None value drops the entry."""
    raw = {"schedule": SCHEDULE, "data": {"preset": "std_normal_2d"},
           "model": {"kind": "analytic"},
           "run": {"kind": "step", "variant": "linear", "S": 5,
                   "sampler": "ddpm", "batch": 20},
           "sweep": {"kinds": ["step"], "variants": ["linear"],
                     "num_steps": [5], "samplers": [{"name": "ddpm"}]},
           "samples_per_cell": 50, "seeds": [0]}
    raw["run"].update(run)
    raw["sweep"].update(sweep)
    raw.update(top)
    for section in (raw, raw["run"], raw["sweep"]):
        for key in [k for k, v in section.items() if v is None]:
            del section[key]
    return raw


ALL_VERBS = ("sample", "inspect", "sweep")


def out_flag(verb, tmp_path):
    """--out for every verb but inspect, which writes nothing."""
    return [] if verb == "inspect" else ["--out", str(tmp_path / "out")]

# written next to each bad config; read through data.path
BAD_MIXTURES = {
    "mixture.json": {"weights": [1.0], "means": "x",
                     "covariances": [[[1.0]]]},
    "no_covariances.json": {"weights": [1.0], "means": [[0.0]]},
    "list_mixture.json": [[1.0], [[0.0]], [[[1.0]]]],
    "string_labels.json": {"weights": [1.0], "means": [[0.0]],
                           "covariances": [[[1.0]]], "labels": ["x"]},
    # numpy would read these as the one class [0, 0] and as [1, 0]
    **{name: {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [1.0, 0.0]],
              "covariances": [np.eye(2).tolist()] * 2, "labels": labels}
       for name, labels in (("fractional_labels.json", [0.9, 0.1]),
                            ("boolean_labels.json", [True, False]))},
    # json.dumps writes these as NaN and Infinity, which json.load reads
    "nan_weight.json": {"weights": [float("nan"), 1.0],
                        "means": [[0.0, 0.0], [1.0, 0.0]],
                        "covariances": [np.eye(2).tolist()] * 2},
    "infinite_mean.json": {"weights": [0.5, 0.5],
                           "means": [[float("inf"), 0.0], [1.0, 0.0]],
                           "covariances": [np.eye(2).tolist()] * 2},
    "indefinite_covariance.json": {"weights": [1.0], "means": [[0.0]],
                                   "covariances": [[[-1.0]]]},
    "malformed_mixture.json": '{"weights": ',
}
# a regressor for 2-d data with one hidden layer of 3: 3 * 3 + 3 + 3 * 2 + 2
REGRESSOR = {"dim": 2, "hidden": [3], "time_scale": 200.0,
             "activation": "tanh", "parameter_count": 20}
# prefix: (metadata, the float64 values of the .bin file); written next to
# each bad config and read through model.path
BAD_REGRESSORS = {
    "no_hidden": ({"dim": 2}, np.zeros(20)),
    "short_bin": (REGRESSOR, np.zeros(19)),
    "list_meta": ([2, [3], 200.0, 20], np.zeros(20)),
    "string_dim": (dict(REGRESSOR, dim="x"), np.zeros(20)),
    "string_hidden": (dict(REGRESSOR, hidden="x"), np.zeros(20)),
    "string_time_scale": (dict(REGRESSOR, time_scale="x"), np.zeros(20)),
    "short_count": (dict(REGRESSOR, parameter_count=19), np.zeros(19)),
    "string_count": (dict(REGRESSOR, parameter_count="20"), np.zeros(20)),
    "dim_3": (dict(REGRESSOR, dim=3, parameter_count=27), np.zeros(27)),
    "nan_parameter": (REGRESSOR, np.r_[np.zeros(19), np.nan]),
    "relu": (dict(REGRESSOR, activation="relu"), np.zeros(20)),
    "zero_time_scale": (dict(REGRESSOR, time_scale=0), np.zeros(20)),
    # json.dumps writes it in full; float() of it overflows
    "huge_time_scale": (dict(REGRESSOR, time_scale=10**400), np.zeros(20)),
    # finite, so it loads, but its predictions overflow
    "huge_parameters": (REGRESSOR, np.full(20, 1e308)),
    # a width whose parameters no machine could allocate: the count is
    # checked first, and then the size of the .bin file
    "huge_width_count": (dict(REGRESSOR, hidden=[10**15]), np.zeros(20)),
    "huge_width_bin": (dict(REGRESSOR, hidden=[10**15],
                            parameter_count=3 * 10**15 + 10**15
                            + 2 * 10**15 + 2), np.zeros(20)),
}

# a sidecar as `fastdiff sample` writes it, for 20 samples in 2-d
SIDECAR = {"shape": [20, 2], "dtype": "<f8", "order": "C",
           "provenance": {"sampler": "ddpm",
                          "fast_schedule": {"kind": "step_linear", "S": 5},
                          "seed": 0, "model_calls_per_chain": 5}}
SIDECAR_SAMPLES = np.random.default_rng(0).normal(size=(20, 2)).tobytes()


def with_provenance(**entries):
    return dict(SIDECAR, provenance=dict(SIDECAR["provenance"], **entries))


def without_provenance(key):
    return dict(SIDECAR, provenance={k: v for k, v in
                                     SIDECAR["provenance"].items()
                                     if k != key})


# prefix: (sidecar, .bin contents); written next to each bad config and read
# through --samples
BAD_SIDECARS = {prefix: (sidecar, SIDECAR_SAMPLES) for prefix, sidecar in {
    "no_shape": {k: v for k, v in SIDECAR.items() if k != "shape"},
    "no_dtype": {k: v for k, v in SIDECAR.items() if k != "dtype"},
    "string_dtype": dict(SIDECAR, dtype="x"),
    "string_shape": dict(SIDECAR, shape="ab"),
    "three_entry_shape": dict(SIDECAR, shape=[20, 2, 1]),
    "no_provenance": {k: v for k, v in SIDECAR.items() if k != "provenance"},
    "list_provenance": dict(SIDECAR, provenance=[1]),
    "list_sidecar": list(SIDECAR.values()),
    "list_fast_schedule": with_provenance(fast_schedule=[1]),
    "no_fast_schedule": without_provenance("fast_schedule"),
    # the full-chain schema that ddpm_reverse once wrote
    "legacy_ddpm_full": {**SIDECAR, "provenance": {
        "sampler": "ddpm_full", "schedule": SCHEDULE, "batch": 20, "dim": 2,
        "seed": 0, "final_step_noise": "zero", "model_calls_per_chain": 200,
        "normals_per_chain": 400}},
    # provenance entries that report.csv would copy unquoted
    "list_kind": with_provenance(fast_schedule={"kind": [1, 2], "S": 5}),
    "bogus_kind": with_provenance(fast_schedule={"kind": "bogus", "S": 5}),
    "object_S": with_provenance(fast_schedule={"kind": "step_linear",
                                               "S": {"x": 1}}),
    "zero_S": with_provenance(fast_schedule={"kind": "step_linear", "S": 0}),
    "float_S": with_provenance(fast_schedule={"kind": "step_linear",
                                              "S": 5.0}),
    "object_sampler": with_provenance(sampler={"a": 1}),
    "bogus_sampler": with_provenance(sampler="dimm"),
    "string_kappa": with_provenance(sampler="ddim", kappa="0,1"),
    "nan_kappa": with_provenance(sampler="ddim", kappa=float("nan")),
    "kappa_above_one": with_provenance(sampler="ddim", kappa=5.0),
    "ddpm_with_kappa": with_provenance(kappa=0.5),
    # `fastdiff sample` writes a kappa exactly when the sampler reports one
    "ddim_without_kappa": with_provenance(sampler="ddim"),
    "ddpm_with_zero_kappa": with_provenance(kappa=0.0),
    "negative_seed": with_provenance(seed=-1),
    "boolean_seed": with_provenance(seed=True),
    "no_seed": without_provenance("seed"),
}.items()}
# batches that load but cannot be scored against the 2-d config data
BAD_SIDECARS["one_sample"] = (dict(SIDECAR, shape=[1, 2]),
                              SIDECAR_SAMPLES[:16])
BAD_SIDECARS["three_dims"] = (dict(SIDECAR, shape=[20, 3]), bytes(8 * 60))
BAD_SIDECARS["nan_sample"] = (SIDECAR, SIDECAR_SAMPLES[:-8]
                              + np.array([np.nan], "<f8").tobytes())
# finite, but the scores overflow
BAD_SIDECARS["huge_samples"] = (SIDECAR, (np.frombuffer(SIDECAR_SAMPLES)
                                          * 1e200).tobytes())


def trained(prefix):
    return config_with(model={"kind": "trained", "path": prefix})


# (name, verbs, config); a None config passes no --config
BAD_INPUTS = [
    ("no_config", ALL_VERBS + ("evaluate",), None),
    ("malformed_json", ALL_VERBS, '{"schedule": '),
    ("no_schedule", ALL_VERBS, config_with(schedule=None)),
    ("run_without_S", ("sample", "inspect"), config_with(run={"S": None})),
    ("beta_1_above_beta_T", ALL_VERBS, config_with(
        schedule={"beta_1": 0.02, "beta_T": 1e-4, "T": 200})),
    # the domain limit lies 0.125 above T: too close for the log-Gamma series
    ("series_gap_below_limit", ALL_VERBS, config_with(
        schedule={"beta_1": 0.1, "beta_T": 0.9, "T": 10})),
    ("S_above_T", ALL_VERBS, config_with(run={"S": 500},
                                         sweep={"num_steps": [500]})),
    ("cubic_variant", ALL_VERBS, config_with(run={"variant": "cubic"},
                                             sweep={"variants": ["cubic"]})),
    ("bogus_kind", ALL_VERBS, config_with(run={"kind": "bogus"},
                                          sweep={"kinds": ["bogus"]})),
    ("dimm_sampler", ("sample", "sweep"), config_with(
        run={"sampler": "dimm"}, sweep={"samplers": [{"name": "dimm"}]})),
    ("bogus_model", ("sample", "sweep"), config_with(model={"kind": "bogus"})),
    ("string_T", ALL_VERBS, config_with(schedule=dict(SCHEDULE, T="abc"))),
    ("number_data", ("sample", "sweep"), config_with(data=5)),
    ("list_schedule", ALL_VERBS, config_with(schedule=[1, 2])),
    ("string_batch", ("sample",), config_with(run={"batch": "x"})),
    ("zero_batch", ("sample",), config_with(run={"batch": 0})),
    ("string_mixture_means", ("sample", "sweep"),
     config_with(data={"path": "mixture.json"})),
    ("mixture_without_covariances", ("sample", "sweep"),
     config_with(data={"path": "no_covariances.json"})),
    ("list_mixture", ("sample", "sweep"),
     config_with(data={"path": "list_mixture.json"})),
    ("string_mixture_labels", ("sample", "sweep"),
     config_with(data={"path": "string_labels.json"})),
    ("fractional_mixture_labels", ("sample", "sweep"), config_with(
        conditional=True, data={"path": "fractional_labels.json"})),
    ("boolean_mixture_labels", ("sample", "sweep"), config_with(
        conditional=True, data={"path": "boolean_labels.json"})),
    ("nan_mixture_weight", ("sample", "sweep"),
     config_with(data={"path": "nan_weight.json"})),
    ("infinite_mixture_mean", ("sample", "sweep"),
     config_with(data={"path": "infinite_mean.json"})),
    ("indefinite_mixture_covariance", ("sample", "sweep"),
     config_with(data={"path": "indefinite_covariance.json"})),
    ("malformed_mixture", ("sample", "sweep"),
     config_with(data={"path": "malformed_mixture.json"})),
    ("no_data", ("sample", "sweep"), config_with(data={})),
    ("trained_without_path", ("sample", "sweep"),
     config_with(model={"kind": "trained"})),
    ("sample_without_run", ("sample",), dict(config_with(), run={})),
    ("conditional_trained", ("sweep",), dict(
        trained("regressor"), conditional=True,
        data={"preset": "two_blob_2d"})),
    # numbers that json.dumps writes in full and float() cannot hold
    ("huge_run_kappa", ("sample",), config_with(
        run={"sampler": "ddim", "kappa": 10**400})),
    ("huge_sweep_kappa", ("sweep",), config_with(
        sweep={"samplers": [{"name": "ddim", "kappa": 10**400}]})),
    ("huge_T", ALL_VERBS, config_with(schedule=dict(SCHEDULE, T=10**400))),
    # fits a float, but numpy refuses a table of that many floats
    ("array_size_T", ALL_VERBS, config_with(schedule=dict(SCHEDULE,
                                                          T=10**20))),
    ("array_size_batch", ("sample",), config_with(run={"batch": 10**20})),
    ("array_size_samples_per_cell", ("sweep",),
     config_with(samples_per_cell=10**20)),
    # arrays of 10**15 elements lie beyond the address space, so each
    # allocation fails at once, before any memory is touched
    ("unallocatable_T", ALL_VERBS, config_with(schedule=dict(SCHEDULE,
                                                             T=10**15))),
    ("unallocatable_batch", ("sample",), config_with(run={"batch": 10**15})),
    ("unallocatable_samples_per_cell", ("sweep",),
     config_with(samples_per_cell=10**15)),
    # 1 - beta_1 rounds to 1: the full chain's first step would be void
    ("beta_1_below_resolution", ("sample", "inspect"), config_with(
        schedule=dict(SCHEDULE, beta_1=1e-17), run={"kind": "full"})),
    ("huge_beta_T", ALL_VERBS, config_with(
        schedule=dict(SCHEDULE, beta_T=10**400))),
    ("list_config", ALL_VERBS, "[1]"),
    ("list_sweep", ("sweep",), dict(config_with(), sweep=[1])),
    ("string_sweep_sampler", ("sweep",), config_with(
        sweep={"samplers": ["ddpm"]})),
    ("string_kappa", ("sweep",), config_with(
        sweep={"samplers": [{"name": "ddim", "kappa": "x"}]})),
    ("number_kinds", ("sweep",), config_with(sweep={"kinds": 5})),
    ("number_seeds", ("sweep",), config_with(seeds=5)),
    ("string_seed", ("sweep",), config_with(seeds=["x"])),
    ("string_samples_per_cell", ("sweep",),
     config_with(samples_per_cell="300")),
    ("list_run", ("inspect",), dict(config_with(), run=[1])),
    ("number_model", ("sample", "sweep"), config_with(model=5)),
    ("string_conditional", ("sweep",), config_with(
        conditional="no", data={"preset": "two_blob_2d"})),
    ("fractional_batch", ("sample",), config_with(run={"batch": 10.7})),
    ("boolean_counts", ALL_VERBS, config_with(
        run={"S": True, "batch": True}, sweep={"num_steps": [True]})),
    ("float_S", ALL_VERBS, config_with(run={"S": 5.0},
                                       sweep={"num_steps": [5.0]})),
    ("fractional_T", ALL_VERBS, config_with(schedule=dict(SCHEDULE,
                                                          T=200.5))),
    ("float_samples_per_cell", ("sweep",),
     config_with(samples_per_cell=50.0)),
    ("negative_run_seed", ("sample",), config_with(run={"seed": -1})),
    ("negative_seeds_entry", ("sweep",), config_with(seeds=[-1])),
    ("boolean_seeds_entry", ("sweep",), config_with(seeds=[True])),
    ("regressor_without_hidden", ("sample", "sweep"), trained("no_hidden")),
    ("regressor_value_count", ("sample", "sweep"), trained("short_bin")),
    ("list_regressor_metadata", ("sample", "sweep"), trained("list_meta")),
    ("string_regressor_dim", ("sample", "sweep"), trained("string_dim")),
    ("string_regressor_hidden", ("sample", "sweep"),
     trained("string_hidden")),
    ("string_regressor_time_scale", ("sample", "sweep"),
     trained("string_time_scale")),
    ("regressor_count_off_architecture", ("sample", "sweep"),
     trained("short_count")),
    ("string_regressor_count", ("sample", "sweep"), trained("string_count")),
    ("regressor_dim_off_data", ("sample", "sweep"), trained("dim_3")),
    ("nan_regressor_parameter", ("sample", "sweep"),
     trained("nan_parameter")),
    ("relu_regressor", ("sample", "sweep"), trained("relu")),
    ("zero_regressor_time_scale", ("sample", "sweep"),
     trained("zero_time_scale")),
    ("huge_regressor_time_scale", ("sample", "sweep"),
     trained("huge_time_scale")),
    ("regressor_count_off_huge_width", ("sample", "sweep"),
     trained("huge_width_count")),
    ("regressor_bin_short_of_huge_width", ("sample", "sweep"),
     trained("huge_width_bin")),
    # a sweep marks the cell failed instead
    ("overflowing_regressor", ("sample",), trained("huge_parameters")),
    ("ddpm_with_kappa", ("sample", "sweep"), config_with(
        run={"kappa": 0.5}, sweep={"samplers": [{"name": "ddpm",
                                                 "kappa": 0.5}]})),
    ("string_run_kappa", ("sample",), config_with(
        run={"sampler": "ddim", "kappa": "x"})),
    ("run_final_step_noise", ("sample",), config_with(
        run={"final_step_noise": "literal"})),
    ("bogus_final_step_noise", ("sample", "sweep"),
     config_with(final_step_noise="bogus")),
    ("conditional_fewer_samples_than_classes", ("sweep",), config_with(
        conditional=True, data={"preset": "four_class_2d"},
        samples_per_cell=3)),
    # a repeated grid entry would only repeat rows
    ("repeated_kind", ("sweep",), config_with(sweep={"kinds": ["var",
                                                               "var"]})),
    ("repeated_variant", ("sweep",), config_with(
        sweep={"variants": ["linear", "quadratic", "linear"]})),
    ("repeated_S", ("sweep",), config_with(sweep={"num_steps": [5, 5]})),
    ("repeated_sampler", ("sweep",), config_with(sweep={"samplers": [
        {"name": "ddim", "kappa": 0}, {"name": "ddim", "kappa": 0.0}]})),
    ("repeated_seed", ("sweep",), config_with(seeds=[0, 2, 0])),
]
# (name, verbs, extra flags, config)
BAD_FLAGS = [
    ("preset_over_number_data", ("sample", "sweep"),
     ["--preset", "two_blob_2d"],
     config_with(data=5)),
    ("negative_seed_flag", ("sample", "sweep"), ["--seed", "-1"],
     config_with()),
    ("seed_over_list_run", ("sample",), ["--seed", "3"],
     dict(config_with(), run=[1])),
    ("zero_S_flag", ("inspect",), ["-S", "0"], config_with()),
    ("bogus_kind_flag", ("inspect",), ["--kind", "bogus"], config_with()),
    ("cubic_variant_flag", ("inspect",), ["--variant", "cubic"],
     config_with()),
    ("huge_samples_labelled", ("evaluate",),
     ["--samples", "huge_samples", "--preset", "two_blob_2d"], config_with()),
] + [(f"sidecar_{prefix}", ("evaluate",), ["--samples", prefix], config_with())
     for prefix in BAD_SIDECARS]


def write_json(path, payload) -> str:
    """`payload` as JSON at `path`; a string is written as it is."""
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return str(path)


def write_input_files(tmp_path):
    """Every BAD_* file, and a valid 2-d regressor `regressor`."""
    for name, mixture in BAD_MIXTURES.items():
        write_json(tmp_path / name, mixture)
    for prefix, (meta, values) in {**BAD_REGRESSORS, "regressor": (
            REGRESSOR, np.zeros(20))}.items():
        write_json(tmp_path / f"{prefix}.json", meta)
        (tmp_path / f"{prefix}.bin").write_bytes(
            values.astype("<f8").tobytes())
    for prefix, (sidecar, samples) in BAD_SIDECARS.items():
        write_json(tmp_path / f"{prefix}.json", sidecar)
        (tmp_path / f"{prefix}.bin").write_bytes(samples)


class TestErrorBoundary:
    @pytest.mark.parametrize("verb", ALL_VERBS)
    def test_base_config_is_valid(self, tmp_path, verb):
        config = write_config(tmp_path, "ok.json", config_with())
        assert main([verb, "--config", config,
                     *out_flag(verb, tmp_path)]) == 0

    @pytest.mark.parametrize("verb", ("inspect", "evaluate"))
    def test_seed_flag_exit_2(self, tmp_path, capsys, verb):
        # only sample and sweep draw noise (evaluate scores against exact
        # moments), so the other verbs reject --seed like any unknown flag
        config = write_config(tmp_path, "ok.json", config_with())
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--config", config, *out_flag(verb, tmp_path),
                  "--seed", "0"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("verb,flags,payload", [
        pytest.param(verb, [], payload, id=f"{verb}-{name}")
        for name, verbs, payload in BAD_INPUTS for verb in verbs] + [
        pytest.param(verb, flags, payload, id=f"{verb}-{name}")
        for name, verbs, flags, payload in BAD_FLAGS for verb in verbs])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                         verb, flags, payload):
        monkeypatch.chdir(tmp_path)
        write_input_files(tmp_path)
        args = [verb, *out_flag(verb, tmp_path), *flags]
        if payload is not None:
            args += ["--config", write_json(tmp_path / "bad.json", payload)]
        code = main(args)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        # values are abbreviated: a 401-digit number is not printed in full
        assert len(err) < 300

    @pytest.mark.parametrize("path", [5, ["a"], True])
    def test_model_path_must_be_a_string(self, tmp_path, capsys, monkeypatch,
                                         path):
        # not turned into a file name such as "True.json"
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, "bad.json", trained(path))
        assert main(["sample", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: model.path must be a string")

    @pytest.mark.parametrize("name", BAD_MIXTURES)
    def test_mixture_file_error_names_the_file(self, tmp_path, capsys,
                                                monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        write_input_files(tmp_path)
        config = write_config(tmp_path, "bad.json",
                              config_with(data={"path": name}))
        assert main(["sample", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name}: ")

    @pytest.mark.parametrize("payload", [
        b"{", b"[1]", b"\xff",
        # more digits than Python converts to an integer
        b'{"x": ' + b"1" * 5000 + b"}",
        # deeper than the interpreter's recursion limit
        b"[" * 100000],
        ids=["malformed", "list", "not_utf8", "long_integer", "deep"])
    @pytest.mark.parametrize("kind,verb,flags,config", [
        pytest.param("config", "sample", [], None, id="config"),
        pytest.param("mixture", "sample", [],
                     config_with(data={"path": "mixture.json"}),
                     id="mixture"),
        pytest.param("sidecar", "evaluate", ["--samples", "sidecar"],
                     config_with(), id="sidecar"),
        pytest.param("regressor", "sample", [], trained("regressor"),
                     id="regressor")])
    def test_json_file_error_names_the_file(self, tmp_path, capsys,
                                            monkeypatch, kind, verb, flags,
                                            config, payload):
        monkeypatch.chdir(tmp_path)
        (tmp_path / f"{kind}.json").write_bytes(payload)
        if config is not None:
            write_json(tmp_path / "config.json", config)
        assert main([verb, "--config", "config.json", *flags,
                     "--out", "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind}.json: ")
        assert err.count(f"{kind}.json") == 1 and err.count("\n") == 1

    def test_sample_checks_out_before_sampling(self, sample_config,
                                               monkeypatch):
        calls = []
        monkeypatch.setattr(fastdiff.cli, "run_sampler",
                            lambda *args: calls.append(args))
        monkeypatch.delenv("FASTDIFF_OUT", raising=False)
        assert main(["sample", "--config", sample_config]) == 1
        assert calls == []

    @pytest.mark.parametrize("verb", ("sample", "sweep"))
    def test_valid_regressor_files_load(self, tmp_path, monkeypatch, verb):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.json").write_text(json.dumps(REGRESSOR))
        (tmp_path / "ok.bin").write_bytes(b"\x00" * 8 * 20)
        config = write_config(tmp_path, "trained.json", trained("ok"))
        assert main([verb, "--config", config,
                     "--out", str(tmp_path / "out")]) == 0

    def test_overflowing_chain_names_its_step(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_input_files(tmp_path)
        config = write_config(tmp_path, "bad.json",
                              trained("huge_parameters"))
        assert main(["sample", "--config", config, "--out", "out"]) == 1
        # S = 5, so the first reverse step is step 5
        assert capsys.readouterr().err == (
            "error: sampling failed: non-finite state at reverse step 5\n")

    def test_overflowing_sweep_fails_each_cell(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_input_files(tmp_path)
        config = write_config(tmp_path, "bad.json", trained("huge_parameters"))
        assert main(["sweep", "--config", config, "--out", "out"]) == 2
        assert capsys.readouterr().err == ""
        rows = json.loads((tmp_path / "out" / "results.json").read_text())[
            "rows"]
        # each chain overflows at its first reverse step, step S
        assert rows and [(row["status"], row["error"]) for row in rows] == [
            ("failed", f"NumericError: non-finite state at reverse step "
                       f"{row['S']}") for row in rows]

    def test_beta_1_below_resolution_fails_its_cell(self, tmp_path, capsys):
        # STEP linear S = 200 keeps step 1, whose eta rounds to 0; S = 10
        # starts at step 20 and runs
        config = write_config(tmp_path, "tiny.json", config_with(
            schedule=dict(SCHEDULE, beta_1=1e-17),
            sweep={"num_steps": [10, 200]}))
        assert main(["sweep", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ""
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            records = list(csv.reader(fh))[1:]
        assert [len(record) for record in records] == [13] * 3
        assert [record[-2:] for record in records[1:]] == [
            ["ok", ""], ["failed", "ConstructionError: every gamma = 1 - eta "
                                   "must lie in (0, 1)"]]

    def test_zero_batch_names_its_field(self, tmp_path, capsys):
        config = write_config(tmp_path, "bad.json",
                              config_with(run={"batch": 0}))
        assert main(["sample", "--config", config,
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: run.batch must be >= 1, got 0\n"

    def test_valid_sidecar_evaluates(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.json").write_text(json.dumps(SIDECAR))
        (tmp_path / "ok.bin").write_bytes(SIDECAR_SAMPLES)
        config = write_config(tmp_path, "ok_config.json", config_with())
        assert main(["evaluate", "--config", config, "--samples", "ok",
                     "--out", str(tmp_path / "out")]) == 0

    def test_programming_error_still_raises(self, sample_config, tmp_path,
                                            monkeypatch):
        def broken(*args):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(fastdiff.cli, "run_sampler", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            main(["sample", "--config", sample_config,
                  "--out", str(tmp_path / "out")])
