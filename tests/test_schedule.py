import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln

import fastdiff.schedule
from fastdiff import (ConstructionError, ConvergenceError, FastSchedule,
                      NoiseLevelMap, VarianceSchedule, alpha_bar_product)


class TestConstruction:
    def test_rejects_bad_beta_range(self):
        with pytest.raises(ConstructionError):
            VarianceSchedule(0.02, 1e-4, 100)  # decreasing
        with pytest.raises(ConstructionError):
            VarianceSchedule(0.0, 0.02, 100)
        with pytest.raises(ConstructionError):
            VarianceSchedule(1e-4, 1.0, 100)

    def test_rejects_single_step(self):
        with pytest.raises(ConstructionError):
            VarianceSchedule(1e-4, 0.02, 1)

    def test_rejects_domain_limit_at_or_below_t(self):
        # (1 - 0.5) / ((0.95 - 0.5) / 9) = 10 = T: the Gamma argument would
        # cross zero inside the step range
        with pytest.raises(ConstructionError):
            VarianceSchedule(0.5, 0.95, 10)

    @pytest.mark.parametrize("gap", [1.0, 3.0, 8.0, 12.0, 12.5, 12.7, 13.0,
                                     20.0, 60.0])
    def test_rejects_gaps_the_series_cannot_evaluate(self, gap, monkeypatch):
        # beta_1 = 0.05 and T = 10, with beta_T set so that the domain limit
        # L lies `gap` above T; the series in 1/(L - t) first omits
        # (L - T)^-9 / 1188, refused above 1e-13 (a gap below about 12.7)
        args = (0.05, 0.05 + 9 * 0.95 / (10 + gap), 10)
        term = gap**-9 / 1188
        if term > 1e-13:
            with pytest.raises(ConstructionError, match="log-Gamma series"):
                VarianceSchedule(*args)
            # build it anyway, to show what the check keeps out
            monkeypatch.setattr(fastdiff.schedule, "_MIN_GAP", 0.0)
        schedule = VarianceSchedule(*args)
        assert schedule.domain_limit - 10 == pytest.approx(gap, rel=1e-12)
        level_map = NoiseLevelMap(schedule)
        error = max(abs(level_map.log_alpha_bar(float(t))
                        - np.log(alpha_bar_product(schedule, t)))
                    for t in range(1, 11))
        # a refused schedule is off by more than 1e-13, an accepted one by
        # no more, to rounding
        if term > 1e-13:
            assert error > 1e-13
        else:
            assert error <= 1e-13 + 2e-14

    def test_betas_strictly_increasing_in_unit_interval(self, sched_1000):
        assert np.all(np.diff(sched_1000.betas) > 0)
        assert np.all((sched_1000.betas > 0) & (sched_1000.betas < 1))

    def test_alpha_bars_strictly_decreasing_in_unit_interval(self, sched_1000):
        assert np.all(np.diff(sched_1000.alpha_bars) < 0)
        assert np.all((sched_1000.alpha_bars > 0) & (sched_1000.alpha_bars < 1))

    def test_beta_tilde_does_not_exceed_beta(self, sched_1000):
        full = FastSchedule.full(sched_1000)
        assert np.all(full.eta_tildes <= sched_1000.betas)

    def test_immutable(self, sched_200):
        with pytest.raises(ValueError):
            sched_200.betas[0] = 0.5

    def test_descriptor_roundtrip(self, sched_200):
        desc = {"beta_1": 1e-4, "beta_T": 0.02, "T": 200}
        again = VarianceSchedule.from_descriptor(json.loads(json.dumps(desc)))
        assert (again.beta_start, again.beta_end, again.num_steps) \
            == (1e-4, 0.02, 200)
        assert np.array_equal(again.betas, sched_200.betas)

    def test_descriptor_missing_key(self):
        with pytest.raises(ConstructionError):
            VarianceSchedule.from_descriptor({"beta_1": 1e-4})


class TestAlphaBarProduct:
    def test_single_factor(self, sched_1000):
        assert alpha_bar_product(sched_1000, 1) == pytest.approx(
            0.9999, rel=1e-12)

    def test_two_factors_by_hand(self, sched_1000):
        delta = (0.02 - 1e-4) / 999
        expected = (1 - 1e-4) * (1 - (1e-4 + delta))
        assert alpha_bar_product(sched_1000, 2) == pytest.approx(
            expected, rel=1e-14)

    def test_terminal_value_in_range_and_decreasing(self, sched_200):
        last = alpha_bar_product(sched_200, 200)
        assert 0.0 < last < 1.0
        assert last < alpha_bar_product(sched_200, 199)

    @pytest.mark.parametrize("t", [0, -3, 201])
    def test_out_of_range(self, sched_200, t):
        with pytest.raises(ValueError):
            alpha_bar_product(sched_200, t)


class TestNoiseLevel:
    def test_zero_step_is_pure_signal(self, map_1000):
        assert map_1000.noise_level(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_direct_product_at_integer(self, map_1000, sched_1000):
        r = map_1000.noise_level(50.0)
        assert r == pytest.approx(np.sqrt(alpha_bar_product(sched_1000, 50)),
                                  rel=1e-8)

    def test_gamma_product_agreement_all_integers(self, map_1000, sched_1000):
        ts = np.arange(1, 1001, dtype=float)
        levels = map_1000.noise_level(ts)
        reference = np.sqrt(sched_1000.alpha_bars)
        assert np.max(np.abs(levels - reference) / reference) <= 1e-8

    def test_fractional_step_between_neighbours(self, map_1000):
        r = map_1000.noise_level(5.5)
        assert map_1000.noise_level(6.0) < r < map_1000.noise_level(5.0)

    def test_rises_above_one_below_step_one_when_delta_exceeds_beta_1(self):
        # delta_beta / 2 = 0.025 > beta_1 = 1e-5
        steep = NoiseLevelMap(VarianceSchedule(1e-5, 0.05, 2))
        assert steep.noise_level(0.5) == pytest.approx(1.0031, abs=5e-5)
        assert steep.noise_level(1.0) < 1.0

    def test_at_most_one_below_step_one_otherwise(self, map_200):
        # delta_beta / 2 = 5e-5 <= beta_1 = 1e-4
        assert np.all(map_200.noise_level(np.linspace(0.0, 1.0, 101)) <= 1.0)

    def test_strictly_decreasing_on_grid(self, map_200):
        grid = np.linspace(0.0, 200.0, 1500)
        assert np.all(np.diff(map_200.noise_level(grid)) < 0)

    @pytest.mark.parametrize("t", [-0.1, 200.5, 1e6])
    def test_out_of_range(self, map_200, t):
        with pytest.raises(ValueError):
            map_200.noise_level(t)

    def test_log_alpha_bar_equals_raw_log_gamma_difference(self, map_1000):
        # the stable evaluation is the same mathematical object as the
        # textbook log-Gamma expression, up to gammaln's own rounding
        s = map_1000.schedule
        limit = s.domain_limit
        ts = np.linspace(0.5, 1000.0, 777)
        raw = (ts * np.log(s.delta_beta) + gammaln(limit + 1.0)
               - gammaln(limit - ts + 1.0))
        assert np.max(np.abs(map_1000.log_alpha_bar(ts) - raw)) <= 1e-9


def log_noise_level_stirling(level_map, t):
    """2*log r(t) by the truncated Stirling series, as a cross-check of
    `NoiseLevelMap.log_alpha_bar`.

    The series drops terms of order (L - t)^-3 and is kept in its textbook
    arrangement, so it is a genuinely different evaluation; the two agree
    to ~1e-10 absolute on reference schedules.  Steps must lie in [0, L).
    """
    t = np.asarray(t, dtype=float)
    L = level_map.schedule.domain_limit
    out = (t * np.log(level_map.schedule.delta_beta)
           + (L + 0.5) * np.log(L)
           - (L - t + 0.5) * np.log(L - t)
           - t
           + (1.0 / L - 1.0 / (L - t)) / 12.0)
    return out if out.ndim else float(out)


class TestStirling:
    def test_matches_gamma_route(self, map_1000):
        got = log_noise_level_stirling(map_1000, 100.0)
        want = 2.0 * np.log(map_1000.noise_level(100.0))
        assert got == pytest.approx(want, abs=1e-6)

    def test_first_step_is_log_alpha(self, map_1000):
        assert log_noise_level_stirling(map_1000, 1.0) == pytest.approx(
            np.log(1.0 - 1e-4), abs=1e-6)

    def test_terminal_step_matches_direct_product(self, map_200, sched_200):
        want = np.log(alpha_bar_product(sched_200, 200))
        assert log_noise_level_stirling(map_200, 200.0) == pytest.approx(
            want, abs=1e-6)

    @pytest.mark.parametrize("num_steps", [200, 1000])
    def test_grid_agreement(self, num_steps):
        level_map = NoiseLevelMap(VarianceSchedule(1e-4, 0.02, num_steps))
        grid = np.linspace(1e-3, float(num_steps), 1000)
        gap = np.abs(log_noise_level_stirling(level_map, grid)
                     - map_many_logs(level_map, grid))
        assert np.max(gap) <= 1e-6


def map_many_logs(level_map, grid):
    return 2.0 * np.log(level_map.noise_level(grid))


STEP_FUNCTIONS = ["log_alpha_bar", "noise_level"]


class TestStepDomain:
    """The two forward functions share one range check on their steps."""

    @pytest.mark.parametrize("t", [float("nan"), np.array([1.0, np.nan, 2.0])],
                             ids=["scalar", "array"])
    @pytest.mark.parametrize("name", STEP_FUNCTIONS)
    def test_nan_step_is_rejected(self, map_200, name, t):
        with pytest.raises(ValueError, match="continuous step outside"):
            getattr(map_200, name)(t)

    @pytest.mark.parametrize("name", STEP_FUNCTIONS)
    def test_step_at_the_domain_limit_is_rejected(self, map_200, name):
        with pytest.raises(ValueError, match="continuous step outside"):
            getattr(map_200, name)(map_200.schedule.domain_limit)

    @pytest.mark.parametrize("name", STEP_FUNCTIONS)
    def test_empty_steps_pass(self, map_200, name):
        out = getattr(map_200, name)(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @given(st.floats(0.0, 1000.0), st.integers(0, 1000))
    def test_scalar_and_array_steps_agree(self, map_1000, t, k):
        grid = np.linspace(0.0, 1000.0, 17)
        for step in (t, k):
            got = map_1000.log_alpha_bar(float(step))
            assert type(got) is float
            grid[5] = step
            want = map_1000.log_alpha_bar(grid)
            assert float(want[5]).hex() == got.hex()
            for form in (step, np.float64(step), np.array(step, dtype=float)):
                same = map_1000.log_alpha_bar(form)
                assert type(same) is float and same.hex() == got.hex()
            listed = map_1000.log_alpha_bar([step])
            assert isinstance(listed, np.ndarray) and listed.shape == (1,)
            assert float(listed[0]).hex() == got.hex()


class TestInversion:
    def test_integer_roundtrip(self, map_1000):
        r = map_1000.noise_level(37.0)
        assert map_1000.invert(r)[0] == pytest.approx(37.0, abs=1e-6)

    def test_fractional_roundtrip(self, map_1000):
        r = map_1000.noise_level(5.5)
        assert map_1000.invert(r)[0] == pytest.approx(5.5, abs=1e-6)

    def test_unit_noise_level_is_step_zero(self, map_1000):
        assert map_1000.invert(1.0)[0] == 0.0

    @pytest.mark.parametrize("fixture", ["map_200", "map_1000"])
    def test_random_roundtrip_within_budget(self, fixture, request):
        level_map = request.getfixturevalue(fixture)
        num_steps = level_map.schedule.num_steps
        rng = np.random.default_rng(2024)
        ts = rng.uniform(0.0, num_steps, size=1000)
        worst_err, worst_iters = 0.0, 0
        for t in ts:
            solved, iters = level_map.invert(level_map.noise_level(t))
            worst_err = max(worst_err, abs(solved - t))
            worst_iters = max(worst_iters, iters)
        assert worst_err <= 1e-6
        assert worst_iters <= 20

    def test_out_of_range(self, map_200):
        r_min = map_200.schedule.sqrt_alpha_bars[-1]
        with pytest.raises(ValueError):
            map_200.invert(r_min * 0.9)
        with pytest.raises(ValueError):
            map_200.invert(1.1)
        with pytest.raises(ValueError):
            map_200.invert(float("nan"))
        with pytest.raises(ValueError, match="1.1"):
            map_200.invert(np.array([0.5, 1.1]))

    def test_terminal_snap_for_root_solve_noise(self, map_200, monkeypatch):
        r_min = map_200.schedule.sqrt_alpha_bars[-1]
        assert map_200.invert(r_min * (1 - 1e-10))[0] == 200.0
        # exact even where the Gamma route at T misses the table by more
        # than the tolerance
        monkeypatch.setattr(fastdiff.schedule, "_INVERT_TOL", 1e-16)
        assert map_200.invert(r_min * (1 - 1e-10)) == (200.0, 0)

    def test_convergence_error(self, map_200, monkeypatch):
        monkeypatch.setattr(fastdiff.schedule, "_INVERT_TOL", 1e-30)
        monkeypatch.setattr(fastdiff.schedule, "_INVERT_MAX_ITERS", 5)
        with pytest.raises(ConvergenceError, match="within 5 iterations"):
            map_200.invert(map_200.noise_level(17.3))
