import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from numpy.random import Generator, Philox

from fastdiff import (AnalyticEpsilonModel, ConstructionError, FastSchedule,
                      NoiseLevelMap, NumericError, SamplerConfig,
                      ToyRegressor, ValidationError, ZeroEpsilonModel,
                      build_step_schedule, build_var_schedule, chain_normals,
                      ddpm_reverse, fast_ddim_reverse, fast_ddpm_reverse,
                      forward_jump, run_sampler, sample_moments, samplers,
                      substream)
from fastdiff.fast_schedule import build_fast_schedule
from test_fast_schedule import schedules


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


class OverflowingModel:
    """Finite predictions whose update overflows."""

    def predict(self, x, t):
        return np.full_like(x, 1e308)


@pytest.fixture(scope="module")
def oracle_200(sched_200):
    level_map = NoiseLevelMap(sched_200)
    from fastdiff import GaussianMixture
    gm = GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
    return AnalyticEpsilonModel(gm, level_map), level_map


class TestForwardJump:
    def test_first_step_constants(self, sched_200):
        x0 = np.array([[1.0, -2.0]])
        jumped = forward_jump(sched_200, x0, 1, Generator(Philox(3)))
        eps = Generator(Philox(3)).standard_normal((1, 2))
        expected = np.sqrt(0.9999) * x0 + 0.01 * eps
        np.testing.assert_allclose(jumped, expected, rtol=1e-14)

    def test_out_of_range_step(self, sched_200):
        with pytest.raises(ValueError):
            forward_jump(sched_200, np.zeros(2), 0, Generator(Philox(0)))
        with pytest.raises(ValueError):
            forward_jump(sched_200, np.zeros(2), 201, Generator(Philox(0)))

    def test_matches_composed_chain_statistics(self, sched_200):
        # direct jump vs t-fold composition of single steps, t = 10
        n, t = 20_000, 10
        x0 = np.tile([1.5, -0.5], (n, 1))
        direct = forward_jump(sched_200, x0, t, Generator(Philox(10)))
        stream = Generator(Philox(11))
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
                           Generator(Philox(5)))
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
        full = FastSchedule.full(sched_200)
        var = 1.0
        for t in range(sched_200.num_steps, 1, -1):
            var = var / full.gammas[t - 1] + full.eta_tildes[t - 1]
        var = var / full.gammas[0]  # final step adds no noise
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

    def test_overflow_is_a_numeric_error_not_a_warning(self, sched_200):
        fast = build_step_schedule(sched_200, 10, "linear")
        config = SamplerConfig(dim=2, batch=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as err:
                fast_ddpm_reverse(fast, OverflowingModel(), config)
        assert err.value.step == 7

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

    def test_run_sampler_rejects_unknown_name(self, sched_200):
        fast = build_step_schedule(sched_200, 10, "linear")
        with pytest.raises(ValidationError, match="unknown sampler 'dimm'"):
            run_sampler(fast, ZeroEpsilonModel(), SamplerConfig(dim=2),
                        "dimm")

    def test_bad_initial_shape(self, sched_200, oracle_200, monkeypatch):
        # the shape is checked before any normals are drawn
        model, level_map = oracle_200
        fast = build_step_schedule(sched_200, 5, "linear")

        def no_draws(*args):
            raise AssertionError("normals drawn before the shape check")

        monkeypatch.setattr(samplers, "chain_normals", no_draws)
        with pytest.raises(ValueError, match="initial state must have shape"):
            fast_ddpm_reverse(fast, model,
                              SamplerConfig(dim=2, batch=2, seed=0),
                              initial=np.zeros((3, 2)))

    @pytest.mark.parametrize("kappa", [None, 0.0, 0.5])
    def test_driver_owns_its_buffers(self, sched_200, oracle_200, kappa):
        # a model may hand back one reused, read-only array; the driver
        # reads it, leaves `initial` alone and traces copies
        model, _ = oracle_200

        class ReusedOutputModel:
            def __init__(self):
                self.out = np.empty((4, 2))
                self.out.flags.writeable = False

            def predict(self, x, t):
                self.out.flags.writeable = True
                self.out[...] = model.predict(x, t)
                self.out.flags.writeable = False
                return self.out

        fast = build_step_schedule(sched_200, 6, "quadratic")
        config = SamplerConfig(dim=2, batch=4, seed=5, kappa=kappa or 0.0,
                               record_trace=True)
        run = fast_ddpm_reverse if kappa is None else fast_ddim_reverse
        initial = np.linspace(-1.0, 1.0, 8).reshape(4, 2)
        kept = initial.copy()
        reused = ReusedOutputModel()
        got = run(fast, reused, config, initial=initial)
        want = run(fast, model, config, initial=kept.copy())
        assert np.array_equal(initial, kept)
        assert np.array_equal(got.samples, want.samples)
        assert all(np.array_equal(a, b)
                   for a, b in zip(got.step_trace, want.step_trace))
        arrays = got.step_trace + [got.samples, initial, reused.out]
        for i, a in enumerate(got.step_trace):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


class ScaledModel:
    """Elementwise noise model, so one chain's arithmetic is the same
    whether it runs alone or in a batch."""

    def predict(self, x, t):
        return (0.1 + 1e-3 * t) * x


def reference_reverse(fast, config, initial, kappa):
    """The reverse recursion one chain at a time, each chain drawing one
    step's noise at a time from its own `substream`; kappa None is DDPM."""
    model = ScaledModel()
    prev_bars = np.concatenate([[1.0], fast.gamma_bars[:-1]])
    rows = []
    for chain in range(config.batch):
        stream = substream(config.seed, chain)
        x = initial[chain:chain + 1]
        for s in range(fast.num_steps, 0, -1):
            i = s - 1
            eps_hat = model.predict(x, float(fast.cont_steps[i]))
            if kappa is None:
                x = (x - fast.etas[i] / np.sqrt(1.0 - fast.gamma_bars[i])
                     * eps_hat) / np.sqrt(fast.gammas[i])
                scale = fast.eta_tildes[i]
            else:
                radicand = max(1.0 - prev_bars[i]
                               - kappa**2 * fast.eta_tildes[i], 0.0)
                b = np.sqrt(1.0 - fast.gamma_bars[i]) \
                    - np.sqrt(fast.gammas[i] * radicand)
                x = (x - b * eps_hat) / np.sqrt(fast.gammas[i])
                scale = kappa**2 * fast.eta_tildes[i]
            if s > 1:
                x = x + np.sqrt(scale) * stream.standard_normal((1, 2))
        rows.append(x)
    return np.concatenate(rows)


class TestNoiseDraws:
    @pytest.mark.parametrize("kappa", [None, 0.4, 1.0])
    def test_initial_runs_match_per_chain_reference(self, sched_200,
                                                    map_200, kappa):
        # kappa None runs DDPM; five noisy steps of dimension 2 per chain
        fast = build_var_schedule(sched_200, map_200, 6, "quadratic")
        initial = np.linspace(-2.0, 2.0, 10).reshape(5, 2)
        config = SamplerConfig(dim=2, batch=5, seed=2**40 + 7,
                               kappa=kappa or 0.0)
        run = fast_ddpm_reverse if kappa is None else fast_ddim_reverse
        out = run(fast, ScaledModel(), config, initial=initial)
        want = reference_reverse(fast, config, initial, kappa)
        assert np.array_equal(out.samples, want)
        assert out.provenance["normals_per_chain"] == 5 * 2

    def test_initial_deterministic_run_draws_nothing(self, sched_200,
                                                     oracle_200):
        model, _ = oracle_200
        fast = build_step_schedule(sched_200, 5, "linear")
        out = fast_ddim_reverse(fast, model,
                                SamplerConfig(dim=2, batch=3, kappa=0.0),
                                initial=np.ones((3, 2)))
        assert out.provenance["normals_per_chain"] == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 12),
           st.integers(0, 12), st.sampled_from([None, 0.0, 0.5]))
    def test_batch_invariance(self, sched_200, oracle_200, seed, k, extra,
                              kappa):
        # the first k chains of a batch of k + extra equal a batch of k
        model, _ = oracle_200
        fast = build_step_schedule(sched_200, 8, "quadratic")

        def run(batch):
            config = SamplerConfig(dim=2, batch=batch, seed=seed,
                                   kappa=kappa or 0.0)
            if kappa is None:
                return fast_ddpm_reverse(fast, model, config).samples
            return fast_ddim_reverse(fast, model, config).samples

        assert np.array_equal(run(k + extra)[:k], run(k))


class TestNoiseBlock:
    """A caller-drawn block of normals, as a sweep passes each cell."""

    # (sampler, kappa, rows per chain at S = 6): DDIM with kappa = 0 reads
    # one row, the initial state, which the driver must copy out.
    RUNS = [("ddim", 0.0, 1), ("ddim", 0.5, 6), ("ddpm", 0.0, 6)]

    @pytest.mark.parametrize("sampler, kappa, rows", RUNS)
    def test_block_is_only_read(self, sched_200, oracle_200, sampler, kappa,
                                rows):
        model, _ = oracle_200
        fast = build_step_schedule(sched_200, 6, "linear")
        config = SamplerConfig(dim=2, batch=7, seed=11, kappa=kappa)
        assert samplers.chain_rows(6, sampler, kappa, "zero") == rows
        block = chain_normals(11, 7, rows * 2)
        before = block.copy()
        run_sampler(fast, model, config, sampler, normals=block)
        assert block.tobytes() == before.tobytes()

    @pytest.mark.parametrize("sampler, kappa, rows", RUNS)
    @pytest.mark.parametrize("final_step_noise", ["zero", "literal"])
    def test_wider_block_gives_the_run_s_own_bits(
            self, sched_200, oracle_200, sampler, kappa, rows,
            final_step_noise):
        model, level_map = oracle_200
        fast = build_var_schedule(sched_200, level_map, 6, "quadratic")
        config = SamplerConfig(dim=2, batch=5, seed=2**70 + 3, kappa=kappa,
                               final_step_noise=final_step_noise)
        alone = run_sampler(fast, model, config, sampler)
        block = chain_normals(config.seed, 5, 2 * 40)
        read = run_sampler(fast, model, config, sampler, normals=block)
        assert read.samples.tobytes() == alone.samples.tobytes()
        assert read.provenance == alone.provenance

    @pytest.mark.parametrize("shape", [(5, 11), (4, 12), (5, 2, 6)])
    def test_wrong_block_is_a_caller_bug(self, sched_200, oracle_200, shape):
        # 6 rows of 2 per chain; a TypeError is not a failed sweep cell
        model, _ = oracle_200
        fast = build_step_schedule(sched_200, 6, "linear")
        with pytest.raises(TypeError, match="normals block"):
            run_sampler(fast, model, SamplerConfig(dim=2, batch=5), "ddpm",
                        normals=np.zeros(shape))


def random_fast_schedule(schedule, kind, variant, num_steps):
    """A STEP or VAR schedule of at most `num_steps` steps over `schedule`;
    rejects the example when no VAR ramp of that length exists."""
    level_map = NoiseLevelMap(schedule)
    num_steps = min(num_steps, schedule.num_steps)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # step collapse
            fast = build_fast_schedule(schedule, level_map, kind, variant,
                                       num_steps)
    except ConstructionError:
        reject()
    return fast, level_map


def two_stage_ddim(fast, model, config, initial):
    """DDIM as first written: predict x0, then recombine it with eps_hat,
    then add kappa-scaled noise; noise rows are laid out as the driver's."""
    kappa = config.kappa
    prev_bars = np.concatenate([[1.0], fast.gamma_bars[:-1]])
    noisy = 0 if kappa == 0.0 else fast.num_steps - (
        config.final_step_noise == "zero")
    noise = chain_normals(config.seed, config.batch,
                          noisy * config.dim).reshape(
                              config.batch, noisy, config.dim)
    x = initial
    for k, i in enumerate(range(fast.num_steps - 1, -1, -1)):
        eps_hat = model.predict(x, float(fast.cont_steps[i]))
        x0_pred = (x - np.sqrt(1.0 - fast.gamma_bars[i]) * eps_hat) \
            / np.sqrt(fast.gamma_bars[i])
        radicand = max(1.0 - prev_bars[i] - kappa**2 * fast.eta_tildes[i],
                       0.0)
        x = np.sqrt(prev_bars[i]) * x0_pred + np.sqrt(radicand) * eps_hat
        if k < noisy:
            x = x + np.sqrt(kappa**2 * fast.eta_tildes[i]) * noise[:, k]
    return x


# Both samplers' outputs at a small STEP schedule (no noise-level inversion)
# under the elementwise ScaledModel (no BLAS), pinned to the last bit: any
# reordering of either update's arithmetic shows here.
GOLDEN = {
    None: [[-1.45443363776696, 0.5663580322454344],
           [-0.33250474037099426, -0.4656487623658051]],
    0.5: [[-0.6342682754897716, 0.861341951306346],
          [-0.3267888049616505, -0.29452138397773797]],
}


# FastSchedules of up to 30 steps with any etas in (0, 1), extremes included
fast_schedules = st.lists(st.floats(1e-14, 1.0 - 1e-14), min_size=1,
                          max_size=30).map(lambda etas: FastSchedule(
                              "var_linear", etas,
                              np.arange(1.0, len(etas) + 1.0)))


class TestOneUpdate:
    @settings(max_examples=200, deadline=None)
    @given(fast_schedules, st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_kappa_in_range_keeps_interior_radicands(self, fast, kappa,
                                                     seed):
        # reverse_tables clamps every radicand at zero but checks none: for
        # kappa <= 1 only the terminal one, -kappa^2 eta_1, is negative
        prev_bars = np.concatenate([[1.0], fast.gamma_bars[:-1]])
        radicands = 1.0 - prev_bars - kappa**2 * fast.eta_tildes
        assert np.all(radicands[1:] >= 0.0)
        config = SamplerConfig(dim=2, batch=3, seed=seed, kappa=kappa)
        out = fast_ddim_reverse(fast, ZeroEpsilonModel(), config)
        assert np.isfinite(out.samples).all()

    @settings(max_examples=40, deadline=None)
    @given(schedules, st.sampled_from(["step", "var"]),
           st.sampled_from(["linear", "quadratic"]), st.integers(1, 60),
           st.sampled_from(["zero", "literal"]), st.integers(0, 2**32 - 1))
    def test_kappa_one_traces_equal_ddpm(self, two_blob_2d, schedule, kind,
                                         variant, num_steps,
                                         final_step_noise, seed):
        fast, level_map = random_fast_schedule(schedule, kind, variant,
                                               num_steps)
        model = AnalyticEpsilonModel(two_blob_2d, level_map)
        config = SamplerConfig(dim=2, batch=4, seed=seed, kappa=1.0,
                               final_step_noise=final_step_noise,
                               record_trace=True)
        ddpm = fast_ddpm_reverse(fast, model, config)
        ddim = fast_ddim_reverse(fast, model, config)
        assert len(ddim.step_trace) == fast.num_steps
        worst = max(np.abs(a - b).max()
                    for a, b in zip(ddpm.step_trace, ddim.step_trace))
        assert worst <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(schedules, st.sampled_from(["step", "var"]),
           st.sampled_from(["linear", "quadratic"]), st.integers(1, 60),
           st.sampled_from(["zero", "literal"]), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    def test_ddim_matches_two_stage_reference(
            self, two_blob_2d, schedule, kind, variant, num_steps,
            final_step_noise, kappa, seed):
        fast, level_map = random_fast_schedule(schedule, kind, variant,
                                               num_steps)
        model = AnalyticEpsilonModel(two_blob_2d, level_map)
        config = SamplerConfig(dim=2, batch=4, seed=seed, kappa=kappa,
                               final_step_noise=final_step_noise)
        initial = np.linspace(-3.0, 3.0, 8).reshape(4, 2)
        out = fast_ddim_reverse(fast, model, config, initial=initial)
        want = two_stage_ddim(fast, model, config, initial)
        np.testing.assert_allclose(out.samples, want, rtol=0, atol=2e-12)

    @pytest.mark.parametrize("kappa", [None, 0.5])
    def test_golden_outputs(self, sched_200, kappa):
        fast = build_step_schedule(sched_200, 6, "quadratic")
        config = SamplerConfig(dim=2, batch=2, seed=7, kappa=kappa or 0.0)
        run = fast_ddpm_reverse if kappa is None else fast_ddim_reverse
        out = run(fast, ScaledModel(), config)
        assert np.array_equal(out.samples, np.array(GOLDEN[kappa]))


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


class RecordingModel:
    """Wraps an `AnalyticEpsilonModel` and offers `at_steps`; the models it
    binds share its log of every `at_steps` and `predict` call."""

    def __init__(self, inner, log=None):
        self.inner = inner
        self.log = [] if log is None else log

    def at_steps(self, steps):
        self.log.append(("at_steps", np.array(steps)))
        return RecordingModel(self.inner.at_steps(steps), self.log)

    def predict(self, x, t):
        self.log.append(("predict", t))
        return self.inner.predict(x, t)


# float.hex of the samples of a VAR quadratic S = 6 chain over T = 200
# (batch 2, seed 5, kappa 0.5) for two models without `at_steps`, as the
# driver gave them before it bound models to their steps.
PLAIN_MODEL_BITS = {
    ("zero", "ddpm"): ['0x1.5f400cd0b614fp+1', '-0x1.0f410b2931ab7p+0',
                       '0x1.29628a22f19a5p+1', '0x1.e68f8b9b6a5a7p-1'],
    ("zero", "ddim"): ['0x1.430528f3c96c9p+1', '-0x1.2649d329990c4p-1',
                       '0x1.51d39c11ceb2dp+1', '0x1.c4964cea340aep+0'],
    ("toy", "ddpm"): ['0x1.fa36e517110e7p+2', '0x1.3b025860549bbp+2',
                      '0x1.1b8fd7c05f225p+3', '0x1.0e62981723b15p+3'],
    ("toy", "ddim"): ['0x1.8e799f04feaa0p+2', '0x1.db6952374fb75p+1',
                      '0x1.d6b411abe3f07p+2', '0x1.cb4e00ff5b7bbp+2'],
}


class TestModelBinding:
    """The driver binds a model that offers `at_steps` to the chain's steps
    once, and calls any other model as it is."""

    @pytest.mark.parametrize("kind", ["step", "var", "full"])
    @pytest.mark.parametrize("sampler", ["ddpm", "ddim"])
    def test_bound_once_then_asked_at_every_step(self, sched_200, two_blob_2d,
                                                 kind, sampler):
        level_map = NoiseLevelMap(sched_200)
        fast = FastSchedule.full(sched_200) if kind == "full" else \
            build_fast_schedule(sched_200, level_map, kind, "quadratic", 12)
        oracle = AnalyticEpsilonModel(two_blob_2d, level_map)
        recorder = RecordingModel(oracle)
        config = SamplerConfig(dim=2, batch=6, seed=21, kappa=0.3)
        bound = run_sampler(fast, recorder, config, sampler)
        (first, steps), *calls = recorder.log
        assert first == "at_steps"
        assert steps.tobytes() == fast.cont_steps.tobytes()
        want = [("predict", float(t)) for t in fast.cont_steps[::-1]]
        assert calls == want
        assert all(type(t) is float for _, t in calls)
        # CountingModel has no at_steps: the oracle is asked unbound
        plain = run_sampler(fast, CountingModel(oracle), config, sampler)
        assert bound.samples.tobytes() == plain.samples.tobytes()
        assert bound.provenance == plain.provenance

    def test_each_chain_binds_its_own_model(self, sched_200, two_blob_2d):
        level_map = NoiseLevelMap(sched_200)
        recorder = RecordingModel(AnalyticEpsilonModel(two_blob_2d,
                                                       level_map))
        config = SamplerConfig(dim=2, batch=3, seed=4)
        for num_steps in (5, 9):
            fast = build_step_schedule(sched_200, num_steps, "linear")
            run_sampler(fast, recorder, config, "ddpm")
        assert [name for name, _ in recorder.log].count("at_steps") == 2
        assert len(recorder.log) == 2 + 5 + 9

    @pytest.mark.parametrize("name", ["zero", "toy"])
    @pytest.mark.parametrize("sampler", ["ddpm", "ddim"])
    def test_models_without_at_steps_run_as_before(self, sched_200, map_200,
                                                   name, sampler):
        if name == "zero":
            model = ZeroEpsilonModel()
        else:
            model = ToyRegressor(2, (5,), 200.0, Generator(Philox(3)))
            model.params[:] = np.linspace(-1.0, 1.0, model.params.size)
        assert not hasattr(model, "at_steps")
        fast = build_var_schedule(sched_200, map_200, 6, "quadratic")
        config = SamplerConfig(dim=2, batch=2, seed=5, kappa=0.5)
        counted = CountingModel(model)
        out = run_sampler(fast, counted, config, sampler)
        assert counted.calls == 6
        assert [float(v).hex() for v in out.samples.ravel()] \
            == PLAIN_MODEL_BITS[name, sampler]
        want = {"sampler": sampler, "fast_schedule": fast.to_dict(),
                "batch": 2, "dim": 2, "seed": 5, "final_step_noise": "zero",
                "model_calls_per_chain": 6, "normals_per_chain": 12}
        if sampler == "ddim":
            want["kappa"] = 0.5
        assert out.provenance == want


def docstring_tables(fast, sampler, kappa):
    """b, c and d by the formulas of the `samplers` docstring, one step at a
    time in Python floats: d = sqrt(gamma), and

      DDPM: b = eta / sqrt(1 - gamma_bar), c = sqrt(eta_tilde)
      DDIM: b = sqrt(1 - gamma_bar) - sqrt(gamma rho),
            c = sqrt(kappa^2 eta_tilde),

    with rho_s = 1 - gamma_bar_{s-1} - kappa^2 eta_tilde_s clamped at 0
    and gamma_bar_0 = 1."""
    b, c, d = [], [], []
    prev_bar = 1.0
    for eta, bar, eta_tilde in zip(fast.etas.tolist(),
                                   fast.gamma_bars.tolist(),
                                   fast.eta_tildes.tolist()):
        gamma = 1.0 - eta
        if sampler == "ddpm":
            b.append(eta / math.sqrt(1.0 - bar))
            c.append(math.sqrt(eta_tilde))
        else:
            rho = max(1.0 - prev_bar - kappa**2 * eta_tilde, 0.0)
            b.append(math.sqrt(1.0 - bar) - math.sqrt(gamma * rho))
            c.append(math.sqrt(kappa**2 * eta_tilde))
        d.append(math.sqrt(gamma))
        prev_bar = bar
    return b, c, d


class TestReverseTables:
    """`reverse_tables`, the one statement of each sampler's tables and
    counts, against the docstring and against what a run reports."""

    @settings(max_examples=60, deadline=None)
    @given(schedules, st.sampled_from(["step", "var"]),
           st.sampled_from(["linear", "quadratic"]), st.integers(1, 60),
           st.floats(0.0, 1.0), st.sampled_from(["zero", "literal"]),
           st.integers(1, 3))
    def test_tables_and_counts(self, schedule, kind, variant, num_steps,
                               kappa, final_step_noise, dim):
        fast, _ = random_fast_schedule(schedule, kind, variant, num_steps)
        config = SamplerConfig(dim=dim, batch=2, seed=3, kappa=kappa,
                               final_step_noise=final_step_noise)
        ddpm = samplers.reverse_tables(fast, "ddpm", kappa, final_step_noise)
        for sampler, tables, reverse in (
                ("ddpm", ddpm, fast_ddpm_reverse),
                ("ddim", samplers.reverse_tables(fast, "ddim", kappa,
                                                 final_step_noise),
                 fast_ddim_reverse)):
            assert tables.sampler == sampler
            assert tables.kappa == (kappa if sampler == "ddim" else None)
            want = docstring_tables(fast, sampler, kappa)
            for got, table in zip((tables.b, tables.c, tables.d), want):
                assert got.tolist() == table
                assert not got.flags.writeable
            # counts: a chain draws its initial state and one row per noisy
            # step, none after the initial state for DDIM at kappa = 0
            noisy = 0 if sampler == "ddim" and kappa == 0.0 else \
                fast.num_steps - (final_step_noise == "zero")
            assert (tables.noisy_steps, tables.rows, tables.model_calls) \
                == (noisy, noisy + 1, fast.num_steps)
            counted = CountingModel(ZeroEpsilonModel())
            run = reverse(fast, counted, config).provenance
            assert run["normals_per_chain"] == tables.rows * dim
            assert run["model_calls_per_chain"] == tables.model_calls \
                == counted.calls
            given_initial = reverse(fast, ZeroEpsilonModel(), config,
                                    np.zeros((2, dim))).provenance
            assert given_initial["normals_per_chain"] \
                == tables.noisy_steps * dim
        # DDPM ignores kappa, and DDIM at kappa = 1 has its c
        plain = samplers.reverse_tables(fast, "ddpm", 0.0, final_step_noise)
        assert ddpm.b.tobytes() == plain.b.tobytes()
        assert ddpm.c.tobytes() == plain.c.tobytes()
        ddim_one = samplers.reverse_tables(fast, "ddim", 1.0,
                                           final_step_noise)
        assert ddim_one.c.tobytes() == ddpm.c.tobytes()
        assert ddim_one.rows == ddpm.rows

    @pytest.mark.parametrize("name", ["dimm", "DDPM", "ddim ", "", None])
    def test_unknown_name_is_one_error(self, sched_200, name):
        fast = build_step_schedule(sched_200, 10, "linear")
        with pytest.raises(ValidationError) as from_tables:
            samplers.reverse_tables(fast, name, 0.0, "zero")
        with pytest.raises(ValidationError) as from_run:
            run_sampler(fast, ZeroEpsilonModel(), SamplerConfig(dim=2), name)
        assert str(from_tables.value) == str(from_run.value) \
            == f"unknown sampler {name!r}"

    def test_driver_reads_no_sampler_name(self):
        # the driver copies the tables' name and kappa into the provenance
        # but neither compares a name nor reads config.kappa
        source = inspect.getsource(samplers._reverse_chain)
        for name in ("ddpm", "ddim", "config.kappa", "sampler ==",
                     "sampler !=", "chain_rows"):
            assert name not in source


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
