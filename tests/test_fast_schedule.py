import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fastdiff.fast_schedule
import fastdiff.schedule
from fastdiff import (AnalyticEpsilonModel, ConstructionError, FastSchedule,
                      GaussianMixture, NoiseLevelMap, SamplerConfig,
                      VarianceSchedule, build_step_schedule,
                      build_var_schedule, ddpm_reverse, fast_ddpm_reverse,
                      run_sampler, step_as_var_equivalence, step_subset)
from fastdiff.fast_schedule import build_fast_schedule

ALL_BUILDS = [("step", "linear"), ("step", "quadratic"),
              ("var", "linear"), ("var", "quadratic")]


def build(kind, schedule, level_map, num_steps, variant):
    return build_fast_schedule(schedule, level_map, kind, variant, num_steps)


class TestStepSubsets:
    def test_linear_exact_division(self, sched_1000, map_1000):
        fast = build_step_schedule(sched_1000, 10, "linear")
        assert fast.taus.tolist() == [100, 200, 300, 400, 500,
                                      600, 700, 800, 900, 1000]

    def test_quadratic_hand_values(self, sched_1000, map_1000):
        # floor(0.8 * (1000 / 100) * s^2) for s = 1..10
        fast = build_step_schedule(sched_1000, 10, "quadratic")
        assert fast.taus.tolist() == [8, 32, 72, 128, 200,
                                      288, 392, 512, 648, 800]

    def test_identity_subset_recovers_original(self, sched_200, map_200):
        fast = build_step_schedule(sched_200, 200, "linear")
        assert fast.taus.tolist() == list(range(1, 201))
        np.testing.assert_allclose(fast.etas, sched_200.betas,
                                   rtol=0.0, atol=1e-15)

    def test_integer_steps_map_to_themselves(self, sched_200, map_200):
        fast = build_step_schedule(sched_200, 10, "quadratic")
        assert np.array_equal(fast.cont_steps, fast.taus.astype(float))
        # and the bijection agrees with that convention
        inverted, _ = map_200.invert(fast.noise_levels)
        np.testing.assert_allclose(inverted, fast.taus, atol=1e-5)

    def test_collision_dedup_warns_and_shrinks(self, map_200, sched_200):
        with pytest.warns(UserWarning, match="collapsed"):
            fast = build_step_schedule(sched_200, 150, "quadratic")
        assert fast.num_steps < 150
        assert np.all(np.diff(fast.taus) > 0)
        assert fast.taus[0] >= 1

    @pytest.mark.parametrize("bad", [0, -1, 201])
    def test_rejects_bad_length(self, sched_200, map_200, bad):
        with pytest.raises(ValueError):
            build_step_schedule(sched_200, bad, "linear")

    def test_step_subset_unknown_variant(self):
        with pytest.raises(ConstructionError):
            step_subset(100, 10, "cubic")

    @pytest.mark.filterwarnings("ignore:step subset collapsed")
    @pytest.mark.parametrize("num_steps_full", [1, 2, 3, 10, 40, 200])
    def test_step_subset_is_the_distinct_ramp(self, num_steps_full):
        for num_steps in range(1, num_steps_full + 1):
            s = np.arange(1, num_steps + 1, dtype=float)
            for variant, ramp in [
                    ("linear", num_steps_full / num_steps * s),
                    ("quadratic", 0.8 * num_steps_full / num_steps**2 * s**2)]:
                taus = step_subset(num_steps_full, num_steps, variant)
                expected = np.unique(np.maximum(np.floor(ramp).astype(int), 1))
                assert taus.dtype == expected.dtype
                assert taus.tolist() == expected.tolist()


class TestVarSchedules:
    def test_single_step_closed_form(self, sched_200, map_200):
        fast = build_var_schedule(sched_200, map_200, 1, "linear")
        eta_target = 1.0 - sched_200.alpha_bars[-1]
        assert fast.etas[0] == pytest.approx(eta_target, rel=1e-10)
        # slope recovered from eta_1 = (1 + c) eta_0
        c = fast.etas[0] / sched_200.beta_start - 1.0
        assert c > 0

    @pytest.mark.parametrize("variant", ["linear", "quadratic"])
    def test_constraint_residual(self, sched_1000, map_1000, variant):
        fast = build_var_schedule(sched_1000, map_1000, 10, variant)
        product = np.prod(1.0 - fast.etas)
        target = sched_1000.alpha_bars[-1]
        assert abs(product - target) / target <= 1e-10

    @pytest.mark.parametrize("num_steps", [1, 3, 20])
    def test_terminal_noise_level(self, sched_200, map_200, num_steps):
        fast = build_var_schedule(sched_200, map_200, num_steps, "linear")
        want = np.sqrt(sched_200.alpha_bars[-1])
        assert fast.noise_levels[-1] == pytest.approx(want, rel=1e-10)

    def test_no_admissible_slope(self):
        # eta_0 = beta_1 = 0.05 forces prod(1 - eta) below alpha_bar(T) at
        # c = 0 once S is large enough
        schedule = VarianceSchedule(0.05, 0.1, 20)
        level_map = NoiseLevelMap(schedule)
        with pytest.raises(ConstructionError):
            build_var_schedule(schedule, level_map, 200, "linear")

    @pytest.mark.parametrize("schedule,num_steps,variant,match", [
        # S = 1 needs eta_1 = 1 - alpha_bar(T), above the cap
        (VarianceSchedule(1e-4, 0.05, 1000), 1, "linear", "too short"),
        (VarianceSchedule(1e-4, 0.02, 200), 5, "cubic", "unknown variant")])
    def test_rejects_unbuildable_ramp(self, schedule, num_steps, variant,
                                      match):
        with pytest.raises(ConstructionError, match=match):
            build_var_schedule(schedule, NoiseLevelMap(schedule), num_steps,
                               variant)

    def test_deterministic_bitwise(self, sched_200, map_200):
        a = build_var_schedule(sched_200, map_200, 7, "quadratic")
        b = build_var_schedule(sched_200, map_200, 7, "quadratic")
        assert np.array_equal(a.etas, b.etas)
        assert np.array_equal(a.cont_steps, b.cont_steps)


class TestInvariants:
    @pytest.mark.filterwarnings("ignore:step subset collapsed")
    @pytest.mark.parametrize("kind,variant", ALL_BUILDS)
    @pytest.mark.parametrize("num_steps", [2, 5, 10, 50])
    def test_shape_invariants(self, sched_200, map_200, kind, variant,
                              num_steps):
        fast = build(kind, sched_200, map_200, num_steps, variant)
        assert np.all((fast.etas > 0) & (fast.etas < 1))
        assert np.all(fast.eta_tildes <= fast.etas + 1e-15)
        levels = np.concatenate([[1.0], fast.noise_levels])
        assert np.all(np.diff(levels) < 0)
        assert fast.noise_levels[-1] > 0
        assert np.all(np.diff(fast.cont_steps) > 0)
        assert np.all((fast.cont_steps > 0)
                      & (fast.cont_steps <= sched_200.num_steps))
        # noise levels square exactly to the cumulative products
        assert np.array_equal(fast.noise_levels**2,
                              np.square(np.sqrt(fast.gamma_bars)))

    @pytest.mark.parametrize("kind,variant", ALL_BUILDS)
    def test_terminal_constraint(self, sched_200, map_200, kind, variant):
        fast = build(kind, sched_200, map_200, 10, variant)
        if kind == "step":
            want = sched_200.alpha_bars[fast.taus[-1] - 1]
        else:
            want = sched_200.alpha_bars[-1]
        assert abs(fast.gamma_bars[-1] - want) / want <= 1e-10


class TestStepAsVar:
    @pytest.mark.filterwarnings("ignore:step subset collapsed")
    @pytest.mark.parametrize("num_steps,variant,fixture", [
        (10, "linear", "sched_1000"),
        (20, "quadratic", "sched_200"),
    ])
    def test_identity_holds(self, request, num_steps, variant, fixture):
        schedule = request.getfixturevalue(fixture)
        fast = build_step_schedule(schedule, num_steps, variant)
        assert step_as_var_equivalence(fast, schedule)

    def test_perturbation_breaks_identity(self, sched_1000, map_1000):
        fast = build_step_schedule(sched_1000, 10, "linear")
        etas = fast.etas.copy()
        etas[3] *= 1.0 + 1e-6
        broken = FastSchedule(fast.kind, etas, fast.cont_steps, fast.taus)
        assert not step_as_var_equivalence(broken, sched_1000)

    def test_rejects_var_kind(self, sched_200, map_200):
        fast = build_var_schedule(sched_200, map_200, 5, "linear")
        with pytest.raises(ValueError):
            step_as_var_equivalence(fast, sched_200)


class TestSerialization:
    def test_json_file(self, sched_200):
        fast = build_step_schedule(sched_200, 5, "linear")
        data = json.loads(json.dumps(fast.to_dict()))
        assert set(data) == {"kind", "S", "eta", "r", "t_cont", "tau"}
        assert data["S"] == 5
        assert data["eta"] == fast.etas.tolist()

    def test_rejects_bad_etas(self):
        with pytest.raises(ConstructionError):
            FastSchedule("step_linear", np.array([0.1, 1.5]),
                         np.array([1.0, 2.0]))
        with pytest.raises(ConstructionError):
            FastSchedule("bogus", np.array([0.1]), np.array([1.0]))

    @pytest.mark.parametrize("kind,taus", [("step_linear", None),
                                           ("full", None),
                                           ("var_linear", [3, 7])])
    def test_rejects_taus_off_kind(self, kind, taus):
        # STEP kinds need taus for the step-as-VAR check; VAR kinds have
        # none to report
        with pytest.raises(ConstructionError, match="taus"):
            FastSchedule(kind, [0.1, 0.2], [3.0, 7.0], taus)

    @pytest.mark.parametrize("etas,cont_steps,match", [
        ([], [], "non-empty 1-D"),
        ([[0.1, 0.2]], [[3.0, 7.0]], "non-empty 1-D"),
        ([0.1, 0.2], [3.0], "align"),
        ([0.1, 0.2], [7.0, 3.0], "strictly increasing"),
        ([0.1, 0.2], [3.0, 3.0], "strictly increasing")])
    def test_rejects_malformed_arrays(self, etas, cont_steps, match):
        with pytest.raises(ConstructionError, match=match):
            FastSchedule("var_linear", etas, cont_steps)


# Any beta_T <= 0.05 keeps the Gamma extension's domain beyond T.
schedules = st.builds(VarianceSchedule, st.floats(1e-5, 1e-3),
                      st.floats(2e-3, 0.05), st.integers(2, 300))


class TestFullChain:
    @settings(max_examples=30, deadline=None)
    @given(schedules)
    def test_reproduces_the_schedule_exactly(self, schedule):
        full = FastSchedule.full(schedule)
        assert full.kind == "full" and full.num_steps == schedule.num_steps
        assert np.array_equal(full.etas, schedule.betas)
        assert np.array_equal(full.gamma_bars, schedule.alpha_bars)
        # beta~_t = (1 - alpha_bar_{t-1}) / (1 - alpha_bar_t) beta_t, and
        # beta~_1 = beta_1
        bars = schedule.alpha_bars
        beta_tildes = np.concatenate([schedule.betas[:1], (1.0 - bars[:-1])
                                      / (1.0 - bars[1:]) * schedule.betas[1:]])
        assert np.array_equal(full.eta_tildes, beta_tildes)
        assert full.taus.tolist() == list(range(1, schedule.num_steps + 1))
        assert step_as_var_equivalence(full, schedule)

    @settings(max_examples=15, deadline=None)
    @given(schedules, st.integers(0, 2**32 - 1))
    def test_ddpm_reverse_is_the_fast_sampler_on_it(self, schedule, seed):
        gm = GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
        model = AnalyticEpsilonModel(gm, NoiseLevelMap(schedule))
        config = SamplerConfig(dim=2, batch=3, seed=seed)
        full = ddpm_reverse(schedule, model, config)
        fast = fast_ddpm_reverse(FastSchedule.full(schedule), model, config)
        assert np.array_equal(full.samples, fast.samples)
        assert full.provenance == fast.provenance

    @settings(max_examples=15, deadline=None)
    @given(schedules, st.integers(0, 2**32 - 1))
    def test_run_sampler_ddpm_on_it_is_ddpm_reverse(self, schedule, seed):
        gm = GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
        model = AnalyticEpsilonModel(gm, NoiseLevelMap(schedule))
        config = SamplerConfig(dim=2, batch=3, seed=seed)
        full = FastSchedule.full(schedule)
        got = run_sampler(full, model, config, "ddpm")
        want = ddpm_reverse(schedule, model, config)
        assert np.array_equal(got.samples, want.samples)
        assert got.provenance["sampler"] == "ddpm"
        assert got.provenance["fast_schedule"] == full.to_dict()
        assert "schedule" not in got.provenance


def _steps_and_levels(schedule, fractions):
    """Continuous steps in [1, T] and their noise levels.  Below step 1 the
    Gamma extension rises above 1 when delta_beta / 2 > beta_1, so levels
    there do not all invert."""
    level_map = NoiseLevelMap(schedule)
    steps = 1.0 + np.asarray(fractions) * (schedule.num_steps - 1)
    return level_map, steps, level_map.noise_level(steps)


fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


class TestInversionProperties:
    @settings(max_examples=40, deadline=None)
    @given(schedules, fractions)
    def test_array_equals_per_level(self, schedule, fractions):
        level_map, _, levels = _steps_and_levels(schedule, fractions)
        r_min = schedule.sqrt_alpha_bars[-1]
        # both ends, snapped or exact, ride along with the random levels
        levels = np.concatenate([levels, [1.0, 1.0 + 1e-13, r_min,
                                          r_min * (1.0 - 1e-10)]])
        steps, iters = level_map.invert(levels)
        scalar = [level_map.invert(r) for r in levels]
        assert np.array_equal(steps, [t for t, _ in scalar])
        assert iters == max(n for _, n in scalar)
        assert isinstance(iters, int)
        assert steps[-4] == 0.0 and steps[-1] == schedule.num_steps

    @settings(max_examples=40, deadline=None)
    @given(schedules, fractions)
    def test_roundtrip_within_budget(self, schedule, fractions):
        level_map, steps, levels = _steps_and_levels(schedule, fractions)
        solved, iters = level_map.invert(levels)
        assert np.max(np.abs(solved - steps)) <= 1e-6
        residual = level_map.log_alpha_bar(solved) - 2.0 * np.log(levels)
        assert np.max(np.abs(residual)) <= fastdiff.schedule._INVERT_TOL
        assert iters <= 20


class TestNoiseLevelProperties:
    @settings(max_examples=40)
    @given(schedules, fractions)
    def test_at_most_one_from_step_one(self, schedule, fractions):
        # concavity of log alpha_bar bounds it by the chord through steps
        # 0 and 1 from step 1 on
        _, steps, levels = _steps_and_levels(
            schedule, np.concatenate([fractions, [0.0, 1.0]]))
        assert np.all(levels <= 1.0)
        chord = 0.5 * steps * np.log1p(-schedule.beta_start)
        assert np.all(np.log(levels) <= chord + 1e-12)


class TestScheduleProperties:
    @settings(max_examples=40, deadline=None)
    @given(schedules, st.integers(1, 300),
           st.sampled_from(["linear", "quadratic"]))
    def test_var_terminal_constraint(self, schedule, num_steps, variant):
        try:
            # the slope bisection takes log1p(-eta) with no guard, so an
            # eta >= 1 anywhere in its bracket would raise here
            with np.errstate(divide="raise", invalid="raise"):
                fast = build_var_schedule(schedule, NoiseLevelMap(schedule),
                                          num_steps, variant)
        except ConstructionError as err:
            assert "no admissible ramp" in str(err)
            return
        assert np.all((fast.etas > 0.0)
                      & (fast.etas <= fastdiff.fast_schedule._ETA_CAP))
        target = schedule.alpha_bars[-1]
        assert abs(np.prod(1.0 - fast.etas) - target) <= 1e-10 * target
        # the ramp slope and the inversion both stop at a residual, so the
        # last step lands near T, not exactly on it
        assert abs(fast.cont_steps[-1] - schedule.num_steps) <= 1e-8

    @pytest.mark.filterwarnings("ignore:step subset collapsed")
    @settings(max_examples=40, deadline=None)
    @given(schedules, st.floats(0.0, 1.0),
           st.sampled_from(["linear", "quadratic"]))
    def test_step_as_var_identity(self, schedule, fraction, variant):
        num_steps = 1 + int(fraction * (schedule.num_steps - 1))
        fast = build_step_schedule(schedule, num_steps, variant)
        assert step_as_var_equivalence(fast, schedule)
