import os
import re
import signal
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

import fastdiff.forking as forking
import fastdiff.regressor
from fastdiff import (GaussianMixture, NoiseLevelMap, ToyRegressor,
                      TrainingError, TrainingParams, ValidationError,
                      VarianceSchedule, denoising_objective,
                      train_toy_regressor)
from fastdiff.regressor import _arrays, _denoising_batch
from fastdiff.rng import chain_streams

QUICK = TrainingParams(hidden=(24, 24), num_updates=400, batch_size=128,
                       holdout_size=512, seed=3)

FORKS = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
    reason="training forks only where os.fork and os.sched_getaffinity "
           "exist")


def trained(gm, level_map, params, cpus):
    """`train_toy_regressor` with `forking.forkable_cpus` reporting `cpus`:
    at 2 a forked producer draws the update batches, at 1 this process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forking, "forkable_cpus", lambda: cpus)
        return train_toy_regressor(gm, level_map, params)


def bits(model):
    """The loss trace, the parameters and the holdout loss, as bytes."""
    return (np.asarray(model.loss_trace).tobytes(), model.params.tobytes(),
            np.float64(model.holdout_loss).tobytes())


@pytest.fixture(scope="module")
def blob_and_map():
    eye2 = np.eye(2)
    gm = GaussianMixture([0.5, 0.5], [[-1.5, 0.0], [1.5, 0.0]],
                         [0.25 * eye2, 0.25 * eye2])
    level_map = NoiseLevelMap(VarianceSchedule(1e-4, 0.02, 200))
    return gm, level_map


class TestArchitecture:
    def test_zero_output_at_init(self):
        model = ToyRegressor(2, (16,), 200.0, Generator(Philox(0)))
        x = np.random.default_rng(0).normal(size=(5, 2))
        assert np.array_equal(model.predict(x, 10.0), np.zeros((5, 2)))

    def test_initial_loss_near_dimension(self, blob_and_map):
        gm, level_map = blob_and_map
        params = TrainingParams(hidden=(16,), num_updates=1, batch_size=4096,
                                seed=1)
        model = train_toy_regressor(gm, level_map, params)
        assert model.loss_trace[0] == pytest.approx(gm.dim, rel=0.1)

    def test_objective_of_zero_output_is_mean_noise_energy(self,
                                                           blob_and_map):
        # an untrained regressor predicts zero, so its objective is the mean
        # ||eps||^2 of the same draws
        gm, level_map = blob_and_map
        model = ToyRegressor(2, (16,), 200.0, Generator(Philox(0)))
        objective = denoising_objective(model, gm, level_map,
                                        Generator(Philox(5)), n=256)
        _, _, eps = _denoising_batch(gm, level_map, Generator(Philox(5)), 256)
        assert objective == pytest.approx(np.mean(np.sum(eps**2, axis=1)),
                                          rel=1e-12)

    def test_only_the_output_layer_starts_at_zero(self):
        # a hidden layer as wide as the data is drawn like any other
        model = ToyRegressor(2, (2, 5), 200.0, Generator(Philox(0)))
        assert all(np.all(w != 0) for w in model.weights[:-1])
        assert not model.weights[-1].any()
        assert not any(b.any() for b in model.biases)

    def test_layers_are_views_of_params(self):
        model = ToyRegressor(3, (4, 5), 100.0, Generator(Philox(0)))
        layers = model.weights + model.biases
        assert all(np.shares_memory(model.params, layer) for layer in layers)
        assert sum(layer.size for layer in layers) == model.params.size
        with pytest.raises(TypeError):
            model.weights[0] = np.zeros((4, 4))
        with pytest.raises(TypeError):
            model.biases[-1] = np.zeros(3)

    def test_gradients_match_finite_differences(self):
        model = ToyRegressor(2, (5,), 100.0, Generator(Philox(7)))
        # give the zero output layer some structure for the check
        model.weights[-1][...] = Generator(Philox(8)).standard_normal(
            model.weights[-1].shape) * 0.3
        rng = np.random.default_rng(9)
        widths = model._widths
        activations = _arrays(4, widths)
        deltas, slopes = _arrays(4, widths[1:]), _arrays(4, widths[1:-1])
        model._features(rng.normal(size=(4, 2)), rng.uniform(1, 99, size=4),
                        activations[0])
        target = rng.normal(size=(4, 2))

        def loss():
            out = model._forward(activations)
            return float(np.mean(np.sum((out - target) ** 2, axis=1)))

        out = model._forward(activations)
        deltas[-1][...] = 2.0 * (out - target) / 4
        grads = np.full_like(model.params, np.nan)
        model._gradients(activations, deltas, slopes, model._layers(grads))
        h = 1e-6
        # every parameter, through the vector that the layers view
        for i in range(model.params.size):
            keep = model.params[i]
            model.params[i] = keep + h
            up = loss()
            model.params[i] = keep - h
            down = loss()
            model.params[i] = keep
            fd = (up - down) / (2 * h)
            assert grads[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("x", [np.zeros((3, 3)), np.zeros((3, 1)),
                                   np.zeros((2, 3, 2))])
    def test_predict_rejects_the_wrong_width(self, x):
        model = ToyRegressor(2, (4,), 100.0, Generator(Philox(0)))
        with pytest.raises(ValueError, match="x must be"):
            model.predict(x, 5.0)

    def test_predict_returns_a_fresh_array(self):
        model = ToyRegressor(2, (4,), 100.0, Generator(Philox(0)))
        model.weights[-1][...] = 1.0
        x = np.random.default_rng(1).normal(size=(6, 2))
        first = model.predict(x, 5.0)
        keep = first.copy()
        second = model.predict(x, 5.0)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, keep) and np.array_equal(first, second)
        assert first.flags.c_contiguous and first.shape == (6, 2)


class TestTraining:
    def test_deterministic_traces(self, blob_and_map):
        gm, level_map = blob_and_map
        a = train_toy_regressor(gm, level_map, QUICK)
        b = train_toy_regressor(gm, level_map, QUICK)
        assert a.loss_trace == b.loss_trace
        assert a.holdout_loss == b.holdout_loss

    @pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=FORKS)])
    def test_pinned_loss_values(self, blob_and_map, cpus, request):
        # Update 2 is the first that the momentum reaches and update 38
        # the first after the learning-rate decay at 0.75 * 50 updates.
        if cpus > 1:
            request.getfixturevalue("no_stray_workers")
        gm, level_map = blob_and_map
        params = TrainingParams(hidden=(8,), num_updates=50, batch_size=64,
                                holdout_size=256, seed=0)
        model = trained(gm, level_map, params, cpus)
        trace = model.loss_trace
        assert [trace[i] for i in (0, 2, 37, 38, 49)] == [
            1.8836658382816376, 1.7730531653134012, 1.1836413684106915,
            1.1039828559781775, 1.3346655671430663]
        assert model.holdout_loss == 1.4687992101893408

    def test_short_training_improves_on_baseline(self, blob_and_map):
        gm, level_map = blob_and_map
        model = train_toy_regressor(gm, level_map, QUICK)
        assert model.holdout_loss < 0.8 * gm.dim
        assert len(model.loss_trace) == QUICK.num_updates

    def test_divergence_raises_with_trace(self, blob_and_map, monkeypatch):
        gm, level_map = blob_and_map
        monkeypatch.setattr(fastdiff.regressor, "_LEARNING_RATE", 1e9)
        bad = TrainingParams(hidden=(8,), num_updates=200, batch_size=32,
                             seed=0)
        with pytest.raises(TrainingError) as err:
            train_toy_regressor(gm, level_map, bad)
        assert err.value.loss_trace is not None
        assert len(err.value.loss_trace) >= 1

    def test_save_load_roundtrip(self, blob_and_map, tmp_path):
        gm, level_map = blob_and_map
        model = train_toy_regressor(gm, level_map, QUICK)
        prefix = str(tmp_path / "regressor")
        model.save(prefix)
        again = ToyRegressor.load(prefix)
        x = np.random.default_rng(4).normal(size=(6, 2))
        assert np.array_equal(model.predict(x, 42.0), again.predict(x, 42.0))

    def test_load_rejects_truncated_parameters(self, blob_and_map, tmp_path):
        gm, level_map = blob_and_map
        model = train_toy_regressor(gm, level_map, QUICK)
        prefix = str(tmp_path / "regressor")
        model.save(prefix)
        (tmp_path / "regressor.bin").write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError):
            ToyRegressor.load(prefix)

    def test_bin_file_is_each_layer_then_its_bias(self, tmp_path):
        model = ToyRegressor(2, (3, 4), 50.0)
        model.params[...] = np.arange(1, model.params.size + 1) / 7.0
        prefix = str(tmp_path / "regressor")
        model.save(prefix)
        stored = (tmp_path / "regressor.bin").read_bytes()
        expected = np.concatenate([
            a.ravel() for w, b in zip(model.weights, model.biases)
            for a in (w, b)])
        assert expected.size == len(set(expected.tolist()))
        assert stored == expected.astype("<f8").tobytes()
        # w_1 is 3 x 3 (two data dimensions and t), then b_1, w_2 3 x 4, ...
        assert [w.shape for w in model.weights] == [(3, 3), (3, 4), (4, 2)]
        assert np.frombuffer(stored, "<f8")[9:12].tolist() \
            == model.biases[0].tolist()
        again = ToyRegressor.load(prefix)
        again.save(str(tmp_path / "again"))
        assert (tmp_path / "again.bin").read_bytes() == stored
        assert (tmp_path / "again.json").read_bytes() \
            == (tmp_path / "regressor.json").read_bytes()

    def test_degenerate_mixture_learns_analytic_target(self, blob_and_map):
        # near-point-mass data: the trained predictor should approach the
        # analytic optimum pointwise, not just in objective value
        from fastdiff import analytic_epsilon
        from fastdiff.regressor import _arrays, _denoising_batch
        _, level_map = blob_and_map
        gm = GaussianMixture([1.0], [[0.0, 0.0]], [1e-4 * np.eye(2)])
        params = TrainingParams(hidden=(64, 64), num_updates=15000, seed=13)
        model = train_toy_regressor(gm, level_map, params)
        xt, t, _ = _denoising_batch(gm, level_map, Generator(Philox(99)),
                                    2000)
        total = 0.0
        for i in range(2000):
            pred = model.predict(xt[i:i + 1], float(t[i]))
            star = analytic_epsilon(gm, level_map, xt[i:i + 1], float(t[i]))
            total += float(np.sum((pred - star) ** 2))
        assert total / 2000 <= 0.05


class TestBatchMemory:
    """Training holds batch-sized arrays only: the holdout is scored
    `batch_size` rows at a time through the update's arrays."""

    @pytest.mark.parametrize("holdout_size, batch_size", [
        (512, 128), (1000, 128), (50, 64), (1, 64), (4097, 256)])
    def test_holdout_loss_matches_a_full_batch_reference(
            self, blob_and_map, holdout_size, batch_size):
        gm, level_map = blob_and_map
        params = TrainingParams(hidden=(24, 24), num_updates=20,
                                batch_size=batch_size,
                                holdout_size=holdout_size, seed=4)
        model = train_toy_regressor(gm, level_map, params)
        # the holdout draw: the third of the call's streams
        held_x, held_t, held_eps = _denoising_batch(
            gm, level_map, chain_streams(params.seed, 3)[2], holdout_size)
        reference = np.mean(np.sum(
            (model.predict(held_x, held_t) - held_eps) ** 2, axis=1))
        assert model.holdout_loss == pytest.approx(reference, rel=1e-12)

    def test_peak_does_not_grow_with_the_holdout(self, blob_and_map):
        gm, level_map = blob_and_map
        width, batch_size = 512, 256

        def peak(holdout_size):
            params = TrainingParams(hidden=(width,), num_updates=2,
                                    batch_size=batch_size,
                                    holdout_size=holdout_size, seed=0)
            tracemalloc.start()
            try:
                train_toy_regressor(gm, level_map, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # scoring 8192 rows in one pass would add two 8192 x width arrays
        activation = batch_size * width * 8
        assert peak(8192) - peak(256) < activation


def test_trains_on_a_short_schedule(two_blob_2d):
    # On T = 50, alpha_bar(t) of the Gamma extension exceeds 1 just above
    # t = 0 (delta_beta > 2 beta_start); the batch takes it as 1 there.
    level_map = NoiseLevelMap(VarianceSchedule(1e-4, 0.02, 50))
    assert np.exp(level_map.log_alpha_bar(0.3)) > 1.0
    model = train_toy_regressor(two_blob_2d, level_map, TrainingParams(
        hidden=(8,), batch_size=64, num_updates=200))
    assert len(model.loss_trace) == 200
    assert np.isfinite(model.loss_trace).all()
    assert model.holdout_loss < two_blob_2d.dim


@pytest.mark.parametrize("field, value, message", [
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ("batch_size", -3, "batch_size must be >= 1, got -3"),
    ("holdout_size", 0, "holdout_size must be >= 1, got 0"),
    ("num_updates", -1, "num_updates must be >= 0, got -1"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("hidden", (0,), "hidden entry must be >= 1, got 0"),
    ("hidden", (8, True), "hidden entry must be an integer, got True"),
    ("batch_size", True, "batch_size must be an integer, got True"),
    ("num_updates", 2.0, "num_updates must be an integer, got 2.0")])
def test_training_params_reject_bad_sizes(field, value, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        TrainingParams(**{field: value})


@FORKS
@pytest.mark.usefixtures("no_stray_workers")
class TestBatchProducer:
    """With the CPU count at 2, a forked producer draws the update batches:
    the same bits as in one process, and no child, pipe, shared mapping or
    changed CPU affinity left behind on any exit."""

    SMALL = TrainingParams(hidden=(8,), num_updates=20, batch_size=32,
                           holdout_size=64, seed=1)

    @pytest.mark.parametrize("num_updates", [0, 1, 2, 3, 50])
    @pytest.mark.parametrize("batch_size", [1, 64])
    @pytest.mark.parametrize("hidden", [(8,), (16, 16)])
    def test_outputs_match_one_process(self, blob_and_map, num_updates,
                                       batch_size, hidden):
        params = TrainingParams(hidden=hidden, num_updates=num_updates,
                                batch_size=batch_size, holdout_size=100,
                                seed=2)
        assert bits(trained(*blob_and_map, params, 2)) \
            == bits(trained(*blob_and_map, params, 1))

    def test_trainer_draws_only_the_holdout(self, blob_and_map,
                                            monkeypatch):
        # the producer's draws happen in its own memory, not in `sizes`
        real, sizes = fastdiff.regressor._denoising_batch, []

        def counting(gm, level_map, stream, n):
            sizes.append(n)
            return real(gm, level_map, stream, n)

        monkeypatch.setattr(fastdiff.regressor, "_denoising_batch", counting)
        model = trained(*blob_and_map, self.SMALL, 2)
        assert sizes == [self.SMALL.holdout_size]
        assert len(model.loss_trace) == self.SMALL.num_updates

    @pytest.mark.parametrize("drawn", [0, 1, 7])
    @pytest.mark.parametrize("death, ended", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         f"was killed by signal {int(signal.SIGKILL)}")])
    def test_producer_that_dies_raises(self, blob_and_map, monkeypatch,
                                       drawn, death, ended):
        parent, real = os.getpid(), fastdiff.regressor._denoising_batch
        real_forward, counts, forwards = ToyRegressor._forward, [], []

        def dying(*args):
            if os.getpid() != parent:
                if len(counts) == drawn:
                    death()
                counts.append(1)
            return real(*args)

        def forward(model, activations):
            # on the last batch drawn, wait for the producer to exit (not
            # reaping it), so that the batch's release finds no reader
            forwards.append(1)
            if len(forwards) == drawn:
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            return real_forward(model, activations)

        monkeypatch.setattr(fastdiff.regressor, "_denoising_batch", dying)
        monkeypatch.setattr(ToyRegressor, "_forward", forward)
        with pytest.raises(RuntimeError, match=(
                rf"training batch producer \(pid \d+\) {ended} after "
                rf"{drawn} of {self.SMALL.num_updates} batches")):
            trained(*blob_and_map, self.SMALL, 2)

    def test_producer_that_fails_before_drawing_raises(self, blob_and_map,
                                                      failing_child):
        # the producer leaves by its own exit, never through the trainer's
        # frames
        with pytest.raises(RuntimeError, match=(
                rf"training batch producer \(pid \d+\) exited with status 1 "
                rf"after 0 of {self.SMALL.num_updates} batches")):
            trained(*blob_and_map, self.SMALL, 2)

    def test_divergence_stops_the_producer(self, blob_and_map, monkeypatch):
        monkeypatch.setattr(fastdiff.regressor, "_LEARNING_RATE", 1e9)
        params = TrainingParams(hidden=(8,), num_updates=200, batch_size=32,
                                holdout_size=64, seed=0)
        with pytest.raises(TrainingError) as err:
            trained(*blob_and_map, params, 2)
        # the producer was still drawing: more than its two slots remained
        assert len(err.value.loss_trace) < params.num_updates - 2

    def test_interrupt_stops_the_producer(self, blob_and_map, monkeypatch):
        real, updates = ToyRegressor._gradients, []

        def interrupted(model, *args):
            updates.append(1)
            if len(updates) == 5:
                raise KeyboardInterrupt
            return real(model, *args)

        monkeypatch.setattr(ToyRegressor, "_gradients", interrupted)
        with pytest.raises(KeyboardInterrupt):
            trained(*blob_and_map, self.SMALL, 2)
        assert len(updates) == 5
