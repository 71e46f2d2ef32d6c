"""Forward diffusion and reverse-process samplers, generic over an
epsilon-model.

The forward direction jumps straight to any step t through the closed-form
marginal

    x_t = sqrt(alpha_bar_t) x_0 + sqrt(1 - alpha_bar_t) eps.

Three reverse samplers are provided; `run_sampler` picks one by name:

* `ddpm_reverse`       - the full T-step ancestral chain (`FastSchedule.full`),
  x_{t-1} = (x_t - beta_t / sqrt(1 - alpha_bar_t) eps_theta) / sqrt(alpha_t)
            + sqrt(beta_tilde_t) z.
* `fast_ddpm_reverse`  - the same recursion over a shortened S-step schedule,
  with the model queried at the continuous steps carried by the schedule.
* `fast_ddim_reverse`  - the implicit sampler; kappa in [0, 1] scales the
  injected noise, kappa = 0 is a deterministic map from the latent to the
  sample, and kappa = 1 reproduces `fast_ddpm_reverse` step for step.

Samplers are pure functions of (schedule, model, config): a fixed seed gives
bitwise-identical output, and chains use independent noise streams keyed by
(seed, chain index) so results do not depend on batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .errors import ConstructionError, NumericError, ValidationError
from .fast_schedule import FULL, FastSchedule
from .rng import NoiseStream, chain_streams
from .schedule import VarianceSchedule


class EpsilonModel(Protocol):
    """Noise predictor contract.

    `predict(x, t)` maps a batch of states (n, d) and a scalar (possibly
    non-integer) diffusion step to predicted noise of shape (n, d).  It must
    be deterministic in (x, t) and safe to call concurrently.
    """

    def predict(self, x: np.ndarray, t: float) -> np.ndarray: ...


class ZeroEpsilonModel:
    """Predicts zero noise; reverse chains then accumulate pure scaled
    Gaussian noise with a variance given by a closed-form recursion."""

    def predict(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.zeros_like(x)


FINAL_STEP_ZERO = "zero"
FINAL_STEP_LITERAL = "literal"


@dataclass(frozen=True)
class SamplerConfig:
    dim: int
    batch: int = 1
    seed: int = 0
    kappa: float = 0.0
    # "zero" suppresses the noise term at the last reverse step (the common
    # convention); "literal" keeps it, with eta_tilde_1 = eta_1.
    final_step_noise: str = FINAL_STEP_ZERO
    record_trace: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if self.batch < 1:
            raise ValidationError("batch must be >= 1")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValidationError(
                f"kappa must lie in [0, 1], got {self.kappa}")
        if self.final_step_noise not in (FINAL_STEP_ZERO, FINAL_STEP_LITERAL):
            raise ValidationError(
                f"final_step_noise must be 'zero' or 'literal', "
                f"got {self.final_step_noise!r}")


@dataclass
class SampleBatch:
    """Generated samples plus provenance; `step_trace[k]` is the state after
    the k-th reverse step when tracing is enabled."""

    samples: np.ndarray
    provenance: dict
    step_trace: list[np.ndarray] | None = field(default=None, repr=False)


def forward_jump(schedule: VarianceSchedule, x0: np.ndarray, t: int,
                 stream: NoiseStream) -> np.ndarray:
    """Sample x_t | x_0 directly at integer step t in [1, num_steps]."""
    alpha_bar = schedule.alpha_bar(t)  # range-checks t
    x0 = np.asarray(x0, dtype=float)
    eps = stream.standard_normal(x0.shape)
    return np.sqrt(alpha_bar) * x0 + np.sqrt(1.0 - alpha_bar) * eps


def _init_state(streams, config, initial):
    if initial is not None:
        x = np.array(initial, dtype=float)
        if x.shape != (config.batch, config.dim):
            raise ValueError(
                f"initial state must have shape {(config.batch, config.dim)}")
        return x
    return np.stack([s.standard_normal(config.dim) for s in streams])


def _noise_blocks(streams, num_rows, dim):
    """Per-chain noise, pre-drawn in one call per chain.  Chunked draws from
    a numpy Generator equal the same draws made one row at a time, so this
    matches a lazy per-step schedule of the same stream."""
    if num_rows == 0:
        return None
    return np.stack([s.standard_normal((num_rows, dim)) for s in streams])


def _check_finite(x, step):
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite state at reverse step {step}", step=step)


def _reverse_chain(fast, model, config, provenance, initial, kappa_mode):
    """Shared driver for the ancestral and implicit reverse recursions.

    kappa_mode is None for the DDPM update and a float kappa for the DDIM
    update; the two consume identical noise streams for kappa > 0, which is
    what makes the kappa = 1 equivalence testable draw for draw.
    """
    etas, gammas, gamma_bars = fast.etas, fast.gammas, fast.gamma_bars
    eta_tildes, cont_steps = fast.eta_tildes, fast.cont_steps
    prev_bars = np.concatenate([[1.0], gamma_bars[:-1]])
    num_steps = fast.num_steps

    deterministic = kappa_mode is not None and kappa_mode == 0.0
    literal = config.final_step_noise == FINAL_STEP_LITERAL
    noisy_steps = 0 if deterministic else (num_steps if literal else num_steps - 1)

    if kappa_mode is not None:
        # Interior radicands must stay non-negative; only the terminal step
        # may go negative (by -kappa^2 eta_1), where it is clamped to zero.
        radicands = 1.0 - prev_bars - kappa_mode**2 * eta_tildes
        if np.any(radicands[1:] < -1e-12):
            bad = int(np.argmax(radicands[1:] < -1e-12)) + 2
            raise ConstructionError(
                f"negative radicand {radicands[bad - 1]:.3e} at interior "
                f"step {bad}; kappa={kappa_mode} is inadmissible here")
        radicands = np.maximum(radicands, 0.0)

    streams = chain_streams(config.seed, config.batch)
    x = _init_state(streams, config, initial)
    blocks = _noise_blocks(streams, noisy_steps, config.dim)
    trace = [] if config.record_trace else None

    for s in range(num_steps, 0, -1):
        i = s - 1
        eps_hat = model.predict(x, float(cont_steps[i]))
        if kappa_mode is None:
            x = (x - etas[i] / np.sqrt(1.0 - gamma_bars[i]) * eps_hat) \
                / np.sqrt(gammas[i])
        else:
            x0_pred = (x - np.sqrt(1.0 - gamma_bars[i]) * eps_hat) \
                / np.sqrt(gamma_bars[i])
            x = np.sqrt(prev_bars[i]) * x0_pred \
                + np.sqrt(radicands[i]) * eps_hat
        if not deterministic and (s > 1 or literal):
            scale = eta_tildes[i] if kappa_mode is None \
                else kappa_mode**2 * eta_tildes[i]
            x = x + np.sqrt(scale) * blocks[:, num_steps - s, :]
        _check_finite(x, s)
        if trace is not None:
            trace.append(x.copy())

    provenance = dict(provenance)
    provenance.update({
        "batch": config.batch,
        "dim": config.dim,
        "seed": config.seed,
        "final_step_noise": config.final_step_noise,
        "model_calls_per_chain": num_steps,
        "normals_per_chain": int(streams[0].normals_drawn),
    })
    return SampleBatch(samples=x, provenance=provenance, step_trace=trace)


def ddpm_reverse(schedule: VarianceSchedule, model: EpsilonModel,
                 config: SamplerConfig, initial: np.ndarray | None = None
                 ) -> SampleBatch:
    """Full-length ancestral sampling over all num_steps reverse steps."""
    provenance = {"sampler": "ddpm_full", "schedule": schedule.to_descriptor()}
    return _reverse_chain(FastSchedule.full(schedule), model, config,
                          provenance, initial, None)


def fast_ddpm_reverse(fast: FastSchedule, model: EpsilonModel,
                      config: SamplerConfig,
                      initial: np.ndarray | None = None) -> SampleBatch:
    """Ancestral sampling over a shortened schedule."""
    provenance = {"sampler": "ddpm", "fast_schedule": fast.to_dict()}
    return _reverse_chain(fast, model, config, provenance, initial, None)


def fast_ddim_reverse(fast: FastSchedule, model: EpsilonModel,
                      config: SamplerConfig,
                      initial: np.ndarray | None = None) -> SampleBatch:
    """Implicit sampling over a shortened schedule.

    With kappa = 0 the chain is a deterministic function of the initial
    state and consumes no randomness after drawing it; with kappa = 1 it
    matches `fast_ddpm_reverse` under shared noise streams.
    """
    provenance = {"sampler": "ddim", "kappa": config.kappa,
                  "fast_schedule": fast.to_dict()}
    return _reverse_chain(fast, model, config, provenance, initial,
                          config.kappa)


def run_sampler(fast: FastSchedule, model: EpsilonModel,
                config: SamplerConfig, sampler: str) -> SampleBatch:
    """Run the named sampler, "ddpm" or "ddim", over `fast`; DDPM over a
    full schedule is `ddpm_reverse`, whose provenance names the variance
    schedule."""
    if sampler == "ddim":
        return fast_ddim_reverse(fast, model, config)
    if sampler != "ddpm":
        raise ValidationError(f"unknown sampler {sampler!r}")
    if fast.kind == FULL:
        return ddpm_reverse(fast.source, model, config)
    return fast_ddpm_reverse(fast, model, config)
