"""Few-step sampling for denoising diffusion probabilistic models.

The package is organized around one pipeline:

``schedule``      the pretrained variance schedule and the bijection between
                  continuous diffusion steps and noise levels
``fast_schedule`` shortened S-step schedules (STEP / VAR, linear / quadratic)
``samplers``      forward jumps, the full reverse chain, and the shortened
                  ancestral / implicit reverse chains
``mixture``       Gaussian-mixture data with exact score, optimal noise
                  predictor, and Bayes classifier, used as oracles
``regressor``     a small trainable noise predictor
``metrics``       Frechet distance, inception-style score, accuracy
``experiment``    config-driven sweeps over the above (also via the
                  ``fastdiff`` command-line tool)
"""

from .errors import (ConstructionError, ConvergenceError,
                     InsufficientDataError, NumericError, TrainingError,
                     ValidationError)
from .fast_schedule import (FastSchedule, build_step_schedule,
                            build_var_schedule, step_as_var_equivalence,
                            step_subset)
from .metrics import (accuracy, frechet_distance, frechet_gaussian,
                      inception_score, sample_moments)
from .mixture import (AnalyticEpsilonModel, GaussianMixture, analytic_epsilon,
                      posterior_classifier)
from .regressor import (ToyRegressor, TrainingParams, denoising_objective,
                        train_toy_regressor)
from .rng import chain_normals, chain_streams, substream
from .samplers import (EpsilonModel, SampleBatch, SamplerConfig,
                       ZeroEpsilonModel, ddpm_reverse, fast_ddim_reverse,
                       fast_ddpm_reverse, forward_jump, run_sampler)
from .schedule import NoiseLevelMap, VarianceSchedule, alpha_bar_product
from .storage import load_samples, samples_to_csv, save_samples

__version__ = "0.1.0"

__all__ = [
    "AnalyticEpsilonModel", "ConstructionError", "ConvergenceError",
    "EpsilonModel", "FastSchedule", "GaussianMixture",
    "InsufficientDataError", "NoiseLevelMap",
    "NumericError", "SampleBatch", "SamplerConfig", "ToyRegressor",
    "TrainingError", "TrainingParams", "ValidationError", "VarianceSchedule",
    "ZeroEpsilonModel", "accuracy", "alpha_bar_product", "analytic_epsilon",
    "build_step_schedule", "build_var_schedule", "chain_normals",
    "chain_streams",
    "ddpm_reverse", "denoising_objective", "fast_ddim_reverse",
    "fast_ddpm_reverse", "forward_jump", "frechet_distance",
    "frechet_gaussian", "inception_score", "load_samples",
    "posterior_classifier", "run_sampler", "sample_moments",
    "samples_to_csv", "save_samples", "step_as_var_equivalence",
    "step_subset", "substream", "train_toy_regressor",
]
