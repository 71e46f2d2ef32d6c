"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are frozen here; the statistical ones
were calibrated against the analytic oracles before freezing.
"""

import numpy as np
import pytest
from numpy.random import Generator, Philox

from fastdiff import (AnalyticEpsilonModel, GaussianMixture, NoiseLevelMap,
                      SamplerConfig, TrainingParams,
                      VarianceSchedule, build_step_schedule, ddpm_reverse,
                      fast_ddim_reverse, fast_ddpm_reverse, forward_jump,
                      frechet_gaussian, inception_score, sample_moments,
                      step_as_var_equivalence, train_toy_regressor)
from fastdiff.fast_schedule import build_fast_schedule

REFERENCE_SCHEDULES = {
    200: VarianceSchedule(1e-4, 0.02, 200),
    1000: VarianceSchedule(1e-4, 0.02, 1000),
}
REFERENCE_MAPS = {n: NoiseLevelMap(s) for n, s in REFERENCE_SCHEDULES.items()}


def report(criterion: int, name: str, passed: bool, detail: str = ""):
    line = f"[acceptance {criterion:>2}] {'PASS' if passed else 'FAIL'} {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def oracle_model(gm, num_steps):
    return AnalyticEpsilonModel(gm, REFERENCE_MAPS[num_steps])


def test_criterion_1_gamma_product_agreement():
    worst = 0.0
    for num_steps, schedule in REFERENCE_SCHEDULES.items():
        level_map = REFERENCE_MAPS[num_steps]
        ts = np.arange(1, num_steps + 1, dtype=float)
        gamma_route = level_map.noise_level(ts)
        product_route = np.sqrt(schedule.alpha_bars)
        worst = max(worst, float(np.max(
            np.abs(gamma_route - product_route) / product_route)))
    report(1, "Gamma route matches direct product at every integer step",
           worst <= 1e-8, f"max rel err {worst:.2e} <= 1e-8")


def test_criterion_2_inversion_roundtrip():
    rng = np.random.default_rng(20240817)
    worst_err, worst_iters, worst_resid = 0.0, 0, 0.0
    for num_steps, level_map in REFERENCE_MAPS.items():
        for t in rng.uniform(0.0, num_steps, size=1000):
            r = level_map.noise_level(t)
            solved, iters = level_map.invert(r)
            worst_err = max(worst_err, abs(solved - t))
            worst_iters = max(worst_iters, iters)
            worst_resid = max(worst_resid, abs(
                level_map.log_alpha_bar(solved) - 2.0 * np.log(r)))
    passed = worst_err <= 1e-6 and worst_iters <= 20 and worst_resid <= 1e-10
    report(2, "noise level inversion recovers 1000 random steps",
           passed, f"max |t' - t| {worst_err:.2e} <= 1e-6, "
                   f"max iters {worst_iters} <= 20, "
                   f"max log-residual {worst_resid:.2e} <= 1e-10")


@pytest.mark.filterwarnings("ignore:step subset collapsed")
def test_criterion_3_step_as_var_identity():
    cases = [(1000, 10, "linear"), (1000, 10, "quadratic"),
             (1000, 100, "quadratic"), (200, 20, "quadratic"),
             (200, 50, "linear"), (200, 200, "linear")]
    worst = 0.0
    for num_steps, s, variant in cases:
        schedule = REFERENCE_SCHEDULES[num_steps]
        fast = build_step_schedule(schedule, s, variant)
        assert step_as_var_equivalence(fast, schedule)
        reference = schedule.alpha_bars[fast.taus - 1]
        worst = max(worst, float(np.max(
            np.abs(fast.gamma_bars - reference) / reference)))
    report(3, "gamma_bar telescopes to alpha_bar(tau) for STEP schedules",
           worst <= 1e-12, f"max rel err {worst:.2e} <= 1e-12 "
                           f"over {len(cases)} schedules")


@pytest.mark.filterwarnings("ignore:step subset collapsed")
def test_criterion_4_kappa_one_equivalence():
    rng = np.random.default_rng(41)
    gm = GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
    worst = 0.0
    for case in range(50):
        num_steps = int(rng.choice([200, 1000]))
        schedule = REFERENCE_SCHEDULES[num_steps]
        level_map = REFERENCE_MAPS[num_steps]
        kind = rng.choice(["step", "var"])
        variant = rng.choice(["linear", "quadratic"])
        s = int(rng.integers(2, 51))
        fast = build_fast_schedule(schedule, level_map, kind, variant, s)
        config = SamplerConfig(
            dim=2, batch=4, seed=int(rng.integers(0, 2**32)), kappa=1.0,
            final_step_noise=str(rng.choice(["zero", "literal"])),
            record_trace=True)
        model = AnalyticEpsilonModel(gm, level_map)
        ddpm = fast_ddpm_reverse(fast, model, config)
        ddim = fast_ddim_reverse(fast, model, config)
        worst = max(worst, max(
            float(np.abs(a - b).max())
            for a, b in zip(ddpm.step_trace, ddim.step_trace)))
    report(4, "kappa = 1 implicit sampler equals the ancestral sampler",
           worst <= 1e-10,
           f"max per-step deviation {worst:.2e} <= 1e-10 over 50 configs")


def test_criterion_5_forward_jump_matches_composed_chain():
    schedule = REFERENCE_SCHEDULES[200]
    n = 100_000
    x0 = np.tile([1.2, -0.8], (n, 1))
    passed, details = True, []
    for t in (10, 100, 200):
        direct = forward_jump(schedule, x0, t, Generator(Philox(50 + t)))
        stream = Generator(Philox(150 + t))
        composed = x0.copy()
        for i in range(1, t + 1):
            beta = schedule.betas[i - 1]
            composed = (np.sqrt(1.0 - beta) * composed
                        + np.sqrt(beta) * stream.standard_normal((n, 2)))
        sigma2 = 1.0 - schedule.alpha_bars[t - 1]
        se_mean = np.sqrt(2.0 * sigma2 / n)
        se_var = sigma2 * 2.0 / np.sqrt(n - 1)
        mean_gap = np.abs(direct.mean(0) - composed.mean(0)).max()
        var_gap = np.abs(direct.var(0, ddof=1)
                         - composed.var(0, ddof=1)).max()
        passed &= mean_gap <= 3.0 * se_mean and var_gap <= 3.0 * se_var
        details.append(f"t={t}: mean {mean_gap / se_mean:.2f} SE, "
                       f"var {var_gap / se_var:.2f} SE")
    report(5, "direct jump and composed chain agree within 3 SE at 1e5 draws",
           passed, "; ".join(details))


def test_criterion_6_oracle_end_to_end():
    schedule = REFERENCE_SCHEDULES[200]
    level_map = REFERENCE_MAPS[200]
    gm = GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
    model = oracle_model(gm, 200)
    config = SamplerConfig(dim=2, batch=10_000, seed=11)

    full = ddpm_reverse(schedule, model, config)
    mean, cov = sample_moments(full.samples)
    fd_full = frechet_gaussian(mean, cov, np.zeros(2), np.eye(2))

    fd_fast = {}
    for kind in ("step", "var"):
        fast = build_fast_schedule(schedule, level_map, kind, "linear", 50)
        out = fast_ddpm_reverse(fast, model, config)
        mean, cov = sample_moments(out.samples)
        fd_fast[kind] = frechet_gaussian(mean, cov, np.zeros(2), np.eye(2))

    passed = fd_full <= 0.05 and all(v <= 0.10 for v in fd_fast.values())
    report(6, "analytic oracle recovers N(0, I) end to end",
           passed, f"full chain {fd_full:.4f} <= 0.05; S=50 "
                   f"step {fd_fast['step']:.4f}, var {fd_fast['var']:.4f} "
                   f"<= 0.10 at 1e4 samples")


def test_criterion_7_quality_improves_with_length():
    schedule = REFERENCE_SCHEDULES[200]
    level_map = REFERENCE_MAPS[200]
    eye2 = np.eye(2)
    gm = GaussianMixture([0.5, 0.5], [[-1.5, 0.0], [1.5, 0.0]],
                         [0.25 * eye2, 0.25 * eye2])
    model = oracle_model(gm, 200)
    mean_ref, cov_ref = gm.moments()
    passed, details = True, []
    for kind in ("step", "var"):
        averages = []
        for s in (5, 10, 50):
            fast = build_fast_schedule(schedule, level_map, kind, "linear", s)
            values = []
            for seed in range(5):
                config = SamplerConfig(dim=2, batch=2000, seed=1000 + seed)
                out = fast_ddpm_reverse(fast, model, config)
                mean, cov = sample_moments(out.samples)
                values.append(frechet_gaussian(mean, cov, mean_ref, cov_ref))
            averages.append(float(np.mean(values)))
        passed &= averages[0] >= averages[1] >= averages[2]
        details.append(f"{kind}: " + " >= ".join(f"{v:.4f}" for v in averages))
    report(7, "mean Frechet distance is non-increasing in S (5 seeds)",
           passed, "; ".join(details))


def test_criterion_8_metric_closed_forms():
    shift = np.array([0.3, -1.2, 2.0])
    checks = [
        abs(frechet_gaussian(np.zeros(3), np.eye(3), shift, np.eye(3))
            - float(shift @ shift)) <= 1e-12,
        abs(frechet_gaussian(np.zeros(5), np.eye(5), np.zeros(5),
                             4.0 * np.eye(5)) - 5.0) <= 1e-12,
        abs(inception_score(np.full((30, 6), 1 / 6)) - 1.0) <= 1e-12,
        abs(inception_score(np.tile(np.eye(6), (4, 1))) - 6.0) <= 1e-9,
    ]
    report(8, "Frechet and inception-score closed forms are exact",
           all(checks), "mean shift, isotropic scale, uniform rows, "
                        "balanced one-hot rows")


def test_criterion_9_model_call_counts():
    class CountingModel:
        def __init__(self, inner):
            self.inner, self.calls = inner, 0

        def predict(self, x, t):
            self.calls += 1
            return self.inner.predict(x, t)

    schedule = REFERENCE_SCHEDULES[200]
    level_map = REFERENCE_MAPS[200]
    gm = GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
    config = SamplerConfig(dim=2, batch=8, seed=0)

    counter = CountingModel(oracle_model(gm, 200))
    fast = build_step_schedule(schedule, 10, "linear")
    short = fast_ddpm_reverse(fast, counter, config)
    short_calls = counter.calls

    counter = CountingModel(oracle_model(gm, 200))
    full = ddpm_reverse(schedule, counter, config)
    full_calls = counter.calls

    passed = (short_calls == 10
              and short.provenance["model_calls_per_chain"] == 10
              and full_calls == 200
              and full.provenance["model_calls_per_chain"] == 200)
    report(9, "shortened chain uses exactly S model calls per chain vs T",
           passed, f"S run: {short_calls} calls, full run: {full_calls}")


def test_criterion_10_toy_training():
    schedule = REFERENCE_SCHEDULES[1000]
    level_map = REFERENCE_MAPS[1000]
    eye2 = np.eye(2)
    gm = GaussianMixture([0.5, 0.5], [[-1.5, 0.0], [1.5, 0.0]],
                         [0.25 * eye2, 0.25 * eye2])
    dim = gm.dim

    model = train_toy_regressor(gm, level_map, TrainingParams(seed=7))
    initial_ok = abs(model.loss_trace[0] - dim) <= 0.15 * dim
    holdout_ok = model.holdout_loss <= 0.3 * dim

    fast = build_step_schedule(schedule, 50, "linear")
    mean_ref, cov_ref = gm.moments()
    scores = {}
    for name, m in (("analytic", oracle_model(gm, 1000)), ("trained", model)):
        config = SamplerConfig(dim=dim, batch=10_000, seed=5)
        out = fast_ddpm_reverse(fast, m, config)
        mean, cov = sample_moments(out.samples)
        scores[name] = frechet_gaussian(mean, cov, mean_ref, cov_ref)
    sampling_ok = scores["trained"] <= 2.0 * scores["analytic"]

    report(10, "trained regressor approaches the analytic oracle",
           initial_ok and holdout_ok and sampling_ok,
           f"initial loss {model.loss_trace[0]:.3f} ~ d={dim}, held-out "
           f"{model.holdout_loss:.3f} <= {0.3 * dim:.1f}, sampling Frechet "
           f"{scores['trained']:.4f} <= 2 x {scores['analytic']:.4f}")
