import json

import numpy as np
import pytest
from scipy.special import gammaln

from fastdiff import (ConstructionError, ConvergenceError, NoiseLevelMap,
                      VarianceSchedule, alpha_bar_product)


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

    def test_betas_strictly_increasing_in_unit_interval(self, sched_1000):
        assert np.all(np.diff(sched_1000.betas) > 0)
        assert np.all((sched_1000.betas > 0) & (sched_1000.betas < 1))

    def test_alpha_bars_strictly_decreasing_in_unit_interval(self, sched_1000):
        assert np.all(np.diff(sched_1000.alpha_bars) < 0)
        assert np.all((sched_1000.alpha_bars > 0) & (sched_1000.alpha_bars < 1))

    def test_beta_tilde_does_not_exceed_beta(self, sched_1000):
        assert np.all(sched_1000.beta_tildes <= sched_1000.betas)

    def test_immutable(self, sched_200):
        with pytest.raises(ValueError):
            sched_200.betas[0] = 0.5

    def test_descriptor_roundtrip(self, sched_200, tmp_path):
        desc = sched_200.to_descriptor()
        assert desc == {"beta_1": 1e-4, "beta_T": 0.02, "T": 200}
        again = VarianceSchedule.from_descriptor(desc)
        assert np.array_equal(again.betas, sched_200.betas)
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(desc))
        assert VarianceSchedule.from_json(path).num_steps == 200

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


class TestStirling:
    def test_matches_gamma_route(self, map_1000):
        got = map_1000.log_noise_level_stirling(100.0)
        want = 2.0 * np.log(map_1000.noise_level(100.0))
        assert got == pytest.approx(want, abs=1e-6)

    def test_first_step_is_log_alpha(self, map_1000):
        assert map_1000.log_noise_level_stirling(1.0) == pytest.approx(
            np.log(1.0 - 1e-4), abs=1e-6)

    def test_terminal_step_matches_direct_product(self, map_200, sched_200):
        want = np.log(alpha_bar_product(sched_200, 200))
        assert map_200.log_noise_level_stirling(200.0) == pytest.approx(
            want, abs=1e-6)

    @pytest.mark.parametrize("num_steps", [200, 1000])
    def test_grid_agreement(self, num_steps):
        level_map = NoiseLevelMap(VarianceSchedule(1e-4, 0.02, num_steps))
        grid = np.linspace(1e-3, float(num_steps), 1000)
        gap = np.abs(level_map.log_noise_level_stirling(grid)
                     - map_many_logs(level_map, grid))
        assert np.max(gap) <= 1e-6

    def test_domain_error_at_limit(self, map_200):
        with pytest.raises(ValueError):
            map_200.log_noise_level_stirling(map_200.schedule.domain_limit)


def map_many_logs(level_map, grid):
    return 2.0 * np.log(level_map.noise_level(grid))


class TestInversion:
    def test_integer_roundtrip(self, map_1000):
        r = map_1000.noise_level(37.0)
        assert map_1000.step_of_noise_level(r) == pytest.approx(37.0, abs=1e-6)

    def test_fractional_roundtrip(self, map_1000):
        r = map_1000.noise_level(5.5)
        assert map_1000.step_of_noise_level(r) == pytest.approx(5.5, abs=1e-6)

    def test_unit_noise_level_is_step_zero(self, map_1000):
        assert map_1000.step_of_noise_level(1.0) == 0.0

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
            map_200.step_of_noise_level(r_min * 0.9)
        with pytest.raises(ValueError):
            map_200.step_of_noise_level(1.1)
        with pytest.raises(ValueError):
            map_200.step_of_noise_level(float("nan"))
        with pytest.raises(ValueError, match="1.1"):
            map_200.invert(np.array([0.5, 1.1]))

    def test_terminal_snap_for_root_solve_noise(self, map_200):
        r_min = map_200.schedule.sqrt_alpha_bars[-1]
        assert map_200.step_of_noise_level(r_min * (1 - 1e-10)) == 200.0
        # exact even where the Gamma route at T misses the table by more
        # than the tolerance
        strict = NoiseLevelMap(map_200.schedule, tolerance=1e-16)
        assert strict.invert(r_min * (1 - 1e-10)) == (200.0, 0)

    def test_convergence_error(self, sched_200):
        strict = NoiseLevelMap(sched_200, tolerance=1e-30, max_iters=5)
        with pytest.raises(ConvergenceError):
            strict.step_of_noise_level(strict.noise_level(17.3))
