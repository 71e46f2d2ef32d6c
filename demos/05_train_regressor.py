"""Training the toy noise predictor and comparing it with the oracle.

The regressor is a small tanh network trained on the denoising objective:
corrupt a data point to a uniformly random step, predict the injected
noise.  With mixture data the analytic predictor gives an exact yardstick
for both the objective value and downstream sample quality.

This demo uses a reduced budget (~10 s); the package defaults train longer.
"""

import numpy as np
from numpy.random import Generator, Philox

from fastdiff import (AnalyticEpsilonModel, GaussianMixture, NoiseLevelMap,
                      SamplerConfig, TrainingParams, VarianceSchedule,
                      build_step_schedule,
                      denoising_objective, fast_ddpm_reverse,
                      frechet_gaussian, sample_moments, train_toy_regressor)

schedule = VarianceSchedule(1e-4, 0.02, 1000)
level_map = NoiseLevelMap(schedule)
eye2 = np.eye(2)
mixture = GaussianMixture([0.5, 0.5], [[-1.5, 0.0], [1.5, 0.0]],
                          [0.25 * eye2, 0.25 * eye2])

params = TrainingParams(hidden=(64, 64), num_updates=8000, seed=7)
print(f"training: hidden={params.hidden}, {params.num_updates} updates, "
      f"batch {params.batch_size}, lr {params.learning_rate}")
model = train_toy_regressor(mixture, level_map, params)

trace = model.loss_trace
print(f"\nloss trace: start {trace[0]:.3f} (~ d = {mixture.dim}) "
      f"-> final {np.mean(trace[-200:]):.3f}")
print(f"held-out objective: {model.holdout_loss:.3f}")

# the analytic predictor is the floor no training run can beat
oracle = AnalyticEpsilonModel(mixture, level_map)
floor = denoising_objective(oracle, mixture, level_map,
                            Generator(Philox(123)), n=2000)
print(f"analytic-oracle objective on the same task: {floor:.3f}")

print("\nsample quality at S = 50, ancestral reverse, 5000 chains:")
fast = build_step_schedule(schedule, 50, "linear")
mean_ref, cov_ref = mixture.moments()
for name, m in (("analytic oracle", oracle), ("trained model", model)):
    out = fast_ddpm_reverse(fast, m, SamplerConfig(dim=2, batch=5000, seed=5))
    mean, cov = sample_moments(out.samples)
    print(f"   {name:<16} frechet = "
          f"{frechet_gaussian(mean, cov, mean_ref, cov_ref):.5f}")
