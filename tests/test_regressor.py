import numpy as np
import pytest
from numpy.random import Generator, Philox

from fastdiff import (GaussianMixture, NoiseLevelMap, ToyRegressor,
                      TrainingError, TrainingParams, VarianceSchedule,
                      train_toy_regressor)

QUICK = TrainingParams(hidden=(24, 24), num_updates=400, batch_size=128,
                       holdout_size=512, seed=3)


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

    def test_gradients_match_finite_differences(self):
        model = ToyRegressor(2, (5,), 100.0, Generator(Philox(7)))
        # give the zero output layer some structure for the check
        model.weights[-1] = Generator(Philox(8)).standard_normal(
            model.weights[-1].shape) * 0.3
        rng = np.random.default_rng(9)
        feats = model._features(rng.normal(size=(4, 2)),
                                rng.uniform(1, 99, size=4))
        target = rng.normal(size=(4, 2))

        def loss():
            out, _ = model._forward(feats)
            return float(np.mean(np.sum((out - target) ** 2, axis=1)))

        out, acts = model._forward(feats)
        grads_w, grads_b = model._gradients(acts, 2.0 * (out - target) / 4)
        h = 1e-6
        for layer in range(len(model.weights)):
            for arr, grad in ((model.weights[layer], grads_w[layer]),
                              (model.biases[layer], grads_b[layer])):
                flat = arr.ravel()
                idx = rng.integers(0, flat.size, size=min(6, flat.size))
                for i in idx:
                    keep = flat[i]
                    flat[i] = keep + h
                    up = loss()
                    flat[i] = keep - h
                    down = loss()
                    flat[i] = keep
                    fd = (up - down) / (2 * h)
                    assert grad.ravel()[i] == pytest.approx(fd, rel=1e-4,
                                                            abs=1e-8)


class TestTraining:
    def test_deterministic_traces(self, blob_and_map):
        gm, level_map = blob_and_map
        a = train_toy_regressor(gm, level_map, QUICK)
        b = train_toy_regressor(gm, level_map, QUICK)
        assert a.loss_trace == b.loss_trace
        assert a.holdout_loss == b.holdout_loss

    def test_short_training_improves_on_baseline(self, blob_and_map):
        gm, level_map = blob_and_map
        model = train_toy_regressor(gm, level_map, QUICK)
        assert model.holdout_loss < 0.8 * gm.dim
        assert len(model.loss_trace) == QUICK.num_updates

    def test_divergence_raises_with_trace(self, blob_and_map):
        gm, level_map = blob_and_map
        bad = TrainingParams(hidden=(8,), num_updates=200, batch_size=32,
                             learning_rate=1e9, seed=0)
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

    def test_degenerate_mixture_learns_analytic_target(self, blob_and_map):
        # near-point-mass data: the trained predictor should approach the
        # analytic optimum pointwise, not just in objective value
        from fastdiff import analytic_epsilon
        from fastdiff.regressor import _denoising_batch
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
