import numpy as np
import pytest

from fastdiff import (AnalyticEpsilonModel, NoiseLevelMap, NoiseStream,
                      NumericError, SamplerConfig, ZeroEpsilonModel,
                      build_step_schedule, build_var_schedule, ddpm_reverse,
                      fast_ddim_reverse, fast_ddpm_reverse, forward_jump,
                      sample_moments)
from fastdiff.experiment import build_fast_schedule


class CountingModel:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, x, t):
        self.calls += 1
        return self.inner.predict(x, t)


class ExplodingModel:
    def predict(self, x, t):
        return np.full_like(x, np.inf)


@pytest.fixture(scope="module")
def oracle_200(sched_200):
    level_map = NoiseLevelMap(sched_200)
    from fastdiff import GaussianMixture
    gm = GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
    return AnalyticEpsilonModel(gm, level_map), level_map


class TestForwardJump:
    def test_first_step_constants(self, sched_200):
        x0 = np.array([[1.0, -2.0]])
        jumped = forward_jump(sched_200, x0, 1, NoiseStream.from_seed(3))
        eps = NoiseStream.from_seed(3).standard_normal((1, 2))
        expected = np.sqrt(0.9999) * x0 + 0.01 * eps
        np.testing.assert_allclose(jumped, expected, rtol=1e-14)

    def test_out_of_range_step(self, sched_200):
        with pytest.raises(ValueError):
            forward_jump(sched_200, np.zeros(2), 0, NoiseStream.from_seed(0))
        with pytest.raises(ValueError):
            forward_jump(sched_200, np.zeros(2), 201, NoiseStream.from_seed(0))

    def test_matches_composed_chain_statistics(self, sched_200):
        # direct jump vs t-fold composition of single steps, t = 10
        n, t = 20_000, 10
        x0 = np.tile([1.5, -0.5], (n, 1))
        direct = forward_jump(sched_200, x0, t, NoiseStream.from_seed(10))
        stream = NoiseStream.from_seed(11)
        composed = x0.copy()
        for i in range(1, t + 1):
            beta = sched_200.betas[i - 1]
            composed = (np.sqrt(1.0 - beta) * composed
                        + np.sqrt(beta) * stream.standard_normal((n, 2)))
        sigma2 = 1.0 - sched_200.alpha_bars[t - 1]
        se_mean = np.sqrt(2.0 * sigma2 / n)  # combined, two MC estimates
        assert np.all(np.abs(direct.mean(0) - composed.mean(0))
                      <= 4.0 * se_mean)
        se_var = sigma2 * np.sqrt(2.0 / (n - 1)) * np.sqrt(2.0)
        assert np.all(np.abs(direct.var(0) - composed.var(0)) <= 4.0 * se_var)

    def test_zero_data_matches_marginal_variance(self, sched_200):
        n, t = 100_000, 100
        out = forward_jump(sched_200, np.zeros((n, 2)), t,
                           NoiseStream.from_seed(5))
        want = 1.0 - sched_200.alpha_bars[t - 1]
        assert np.abs(out.var(0) - want).max() <= 0.02 * want
        assert np.abs(out.mean(0)).max() <= 4.0 * np.sqrt(want / n)


class TestFullReverse:
    def test_oracle_recovers_standard_normal(self, sched_200, oracle_200):
        model, _ = oracle_200
        config = SamplerConfig(dim=2, batch=4000, seed=21)
        out = ddpm_reverse(sched_200, model, config)
        mean, cov = sample_moments(out.samples)
        assert np.abs(mean).max() <= 0.05
        assert np.abs(cov - np.eye(2)).max() <= 0.08

    def test_zero_model_variance_recursion(self, sched_200):
        # with eps = 0 the chain is x <- x / sqrt(alpha) + sqrt(beta~) z;
        # iterate the variance recursion as the closed-form oracle
        config = SamplerConfig(dim=2, batch=20_000, seed=8)
        out = ddpm_reverse(sched_200, ZeroEpsilonModel(), config)
        var = 1.0
        for t in range(sched_200.num_steps, 1, -1):
            var = var / sched_200.alphas[t - 1] + sched_200.beta_tildes[t - 1]
        var = var / sched_200.alphas[0]  # final step adds no noise
        got = out.samples.var(axis=0)
        assert np.abs(got - var).max() <= 0.05 * var

    def test_bitwise_deterministic(self, sched_200, oracle_200):
        model, _ = oracle_200
        config = SamplerConfig(dim=2, batch=1, seed=99)
        a = ddpm_reverse(sched_200, model, config)
        b = ddpm_reverse(sched_200, model, config)
        assert np.array_equal(a.samples, b.samples)

    def test_chains_unaffected_by_batch_size(self, sched_200, oracle_200):
        model, _ = oracle_200
        big = ddpm_reverse(sched_200, model,
                           SamplerConfig(dim=2, batch=6, seed=4))
        small = ddpm_reverse(sched_200, model,
                             SamplerConfig(dim=2, batch=3, seed=4))
        assert np.array_equal(big.samples[:3], small.samples)

    def test_numeric_error_carries_step(self, sched_200):
        config = SamplerConfig(dim=2, batch=2, seed=0)
        with pytest.raises(NumericError) as err:
            ddpm_reverse(sched_200, ExplodingModel(), config)
        assert err.value.step == sched_200.num_steps

    def test_call_count(self, sched_200, oracle_200):
        model, _ = oracle_200
        counter = CountingModel(model)
        out = ddpm_reverse(sched_200, counter,
                           SamplerConfig(dim=2, batch=3, seed=0))
        assert counter.calls == sched_200.num_steps
        assert out.provenance["model_calls_per_chain"] == sched_200.num_steps


class TestFastReverse:
    def test_full_length_step_schedule_matches_full_sampler(
            self, sched_200, oracle_200):
        model, level_map = oracle_200
        fast = build_step_schedule(sched_200, 200, "linear")
        config = SamplerConfig(dim=2, batch=4, seed=31, record_trace=True)
        full = ddpm_reverse(sched_200, model, config)
        short = fast_ddpm_reverse(fast, model, config)
        for a, b in zip(full.step_trace, short.step_trace):
            np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("kind,variant", [
        pytest.param("step", "quadratic", id="build_step_schedule-quadratic"),
        pytest.param("var", "linear", id="build_var_schedule-linear"),
    ])
    def test_kappa_one_equals_ddpm(self, sched_200, oracle_200, kind,
                                   variant):
        model, level_map = oracle_200
        fast = build_fast_schedule(sched_200, level_map, kind, variant, 12)
        config = SamplerConfig(dim=2, batch=4, seed=17, kappa=1.0,
                               record_trace=True)
        ddpm = fast_ddpm_reverse(fast, model, config)
        ddim = fast_ddim_reverse(fast, model, config)
        worst = max(np.abs(a - b).max()
                    for a, b in zip(ddpm.step_trace, ddim.step_trace))
        assert worst <= 1e-10

    def test_kappa_zero_consumes_no_noise_after_init(self, sched_200,
                                                     oracle_200):
        model, level_map = oracle_200
        fast = build_var_schedule(sched_200, level_map, 10, "linear")
        config = SamplerConfig(dim=2, batch=3, seed=2, kappa=0.0)
        out = fast_ddim_reverse(fast, model, config)
        assert out.provenance["normals_per_chain"] == 2  # just the init state

    def test_kappa_zero_is_deterministic_map(self, sched_200, oracle_200):
        model, level_map = oracle_200
        fast = build_step_schedule(sched_200, 10, "linear")
        start = np.array([[0.3, -1.1], [2.0, 0.4]])
        config = SamplerConfig(dim=2, batch=2, seed=5, kappa=0.0)
        a = fast_ddim_reverse(fast, model, config, initial=start)
        b = fast_ddim_reverse(fast, model, config, initial=start)
        assert np.array_equal(a.samples, b.samples)

    def test_kappa_zero_single_step_algebra(self, sched_200, oracle_200):
        model, level_map = oracle_200
        fast = build_var_schedule(sched_200, level_map, 1, "linear")
        start = np.array([[0.7, -0.2]])
        config = SamplerConfig(dim=2, batch=1, seed=0, kappa=0.0)
        out = fast_ddim_reverse(fast, model, config, initial=start)
        gamma_bar = fast.gamma_bars[0]
        eps = model.predict(start, float(fast.cont_steps[0]))
        want = (start - np.sqrt(1.0 - gamma_bar) * eps) / np.sqrt(gamma_bar)
        np.testing.assert_allclose(out.samples, want, rtol=1e-12)

    def test_literal_final_step_adds_noise(self, sched_200, oracle_200):
        model, level_map = oracle_200
        fast = build_step_schedule(sched_200, 5, "linear")
        zero = fast_ddpm_reverse(fast, model,
                                 SamplerConfig(dim=2, batch=3, seed=6))
        literal = fast_ddpm_reverse(
            fast, model, SamplerConfig(dim=2, batch=3, seed=6,
                                       final_step_noise="literal"))
        gap = literal.samples - zero.samples
        assert np.all(np.abs(gap) > 0)
        assert literal.provenance["normals_per_chain"] == \
            zero.provenance["normals_per_chain"] + 2

    def test_call_count_is_schedule_length(self, sched_200, oracle_200):
        model, level_map = oracle_200
        fast = build_step_schedule(sched_200, 10, "linear")
        counter = CountingModel(model)
        out = fast_ddpm_reverse(fast, counter,
                                SamplerConfig(dim=2, batch=5, seed=1))
        assert counter.calls == 10
        assert out.provenance["model_calls_per_chain"] == 10

    def test_bad_initial_shape(self, sched_200, oracle_200):
        model, level_map = oracle_200
        fast = build_step_schedule(sched_200, 5, "linear")
        with pytest.raises(ValueError):
            fast_ddpm_reverse(fast, model,
                              SamplerConfig(dim=2, batch=2, seed=0),
                              initial=np.zeros((3, 2)))


def mean_frechet_to_standard_normal(sampler, fast, model, num_seeds, batch,
                                    **config_kw):
    from fastdiff import frechet_gaussian
    values = []
    for seed in range(num_seeds):
        out = sampler(fast, model,
                      SamplerConfig(dim=2, batch=batch, seed=3000 + seed,
                                    **config_kw))
        mean, cov = sample_moments(out.samples)
        values.append(frechet_gaussian(mean, cov, np.zeros(2), np.eye(2)))
    return float(np.mean(values))


class TestQualityTrends:
    def test_ddim_deterministic_moments_converge_with_length(
            self, sched_200, oracle_200):
        model, level_map = oracle_200
        scores = []
        for s in (2, 5, 10, 50):
            fast = build_step_schedule(sched_200, s, "linear")
            scores.append(mean_frechet_to_standard_normal(
                fast_ddim_reverse, fast, model, 5, 2000, kappa=0.0))
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_ddpm_var_linear_trend(self, sched_200, oracle_200):
        # S = 10 sits between S = 5 and S = 50 on average over 5 seeds
        model, level_map = oracle_200
        scores = {}
        for s in (5, 10, 50):
            fast = build_var_schedule(sched_200, level_map, s, "linear")
            scores[s] = mean_frechet_to_standard_normal(
                fast_ddpm_reverse, fast, model, 5, 2000)
        assert scores[50] < scores[10] < scores[5]


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(dim=0)
        with pytest.raises(ValueError):
            SamplerConfig(dim=2, batch=0)
        with pytest.raises(ValueError):
            SamplerConfig(dim=2, kappa=1.5)
        with pytest.raises(ValueError):
            SamplerConfig(dim=2, final_step_noise="sometimes")
