"""Forward diffusion and reverse-process samplers, generic over an
epsilon-model.

The forward direction jumps straight to any step t through the closed-form
marginal

    x_t = sqrt(alpha_bar_t) x_0 + sqrt(1 - alpha_bar_t) eps.

Two reverse samplers run over any `FastSchedule`, the full chain
`FastSchedule.full` included, and `run_sampler` picks one by name:
`fast_ddpm_reverse` (ancestral) and `fast_ddim_reverse` (implicit).
`ddpm_reverse` is the ancestral sampler over the full chain of a
`VarianceSchedule`.  Each reverse step s = S, ..., 1 is
x <- (x - b_s eps_theta(x, t_s)) / sqrt(gamma_s) + c_s z, and the samplers
differ only in the coefficient tables b and c:

  DDPM: b = eta / sqrt(1 - gamma_bar),            c = sqrt(eta_tilde)
  DDIM: b = sqrt(1 - gamma_bar) - sqrt(gamma rho), c = sqrt(kappa^2 eta_tilde)

where rho_s = 1 - gamma_bar_{s-1} - kappa^2 eta_tilde_s.  kappa in [0, 1]
scales the DDIM noise: kappa = 0 is a deterministic map from the latent to
the sample, and kappa = 1 reproduces DDPM step for step.

Samplers are pure functions of (schedule, model, config): a fixed seed gives
bitwise-identical output.  Each chain draws all of its normals in one block
from the Philox stream keyed by (seed, chain index) (`rng.chain_normals`):
the initial state first, then one row per noisy step.  So the noise does
not depend on batch size, and the `normals_per_chain` provenance entry is
computed from the schedule rather than counted.  The model's output may:
the analytic oracle's matrix products can round a one-row batch in the
last bits differently from the same row inside a larger batch (seen for
mixtures whose covariances are not multiples of the identity), and a
single-chain run can then end slightly apart from the same chain run in a
larger batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .errors import ConstructionError, NumericError, ValidationError
from .fast_schedule import FastSchedule
from .rng import chain_normals
# chain_streams is unused here but stays importable: perfbench's call
# tracer patches samplers.chain_streams by name.
from .rng import chain_streams  # noqa: F401
from .schedule import VarianceSchedule


class EpsilonModel(Protocol):
    """Noise predictor contract.

    `predict(x, t)` maps a batch of states (n, d) and a scalar (possibly
    non-integer) diffusion step to predicted noise of shape (n, d).  It must
    be deterministic in (x, t) and safe to call concurrently.  The samplers
    only read the returned array, so it may be reused or read-only; they
    update the state x in place after the call, so a model must not keep x.
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
                 stream: np.random.Generator) -> np.ndarray:
    """Sample x_t | x_0 directly at integer step t in [1, num_steps]."""
    alpha_bar = schedule.alpha_bar(t)  # range-checks t
    x0 = np.asarray(x0, dtype=float)
    eps = stream.standard_normal(x0.shape)
    return np.sqrt(alpha_bar) * x0 + np.sqrt(1.0 - alpha_bar) * eps


def _check_finite(x, step):
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite state at reverse step {step}", step=step)


def _reverse_chain(fast, model, config, initial, sampler):
    """Shared driver: the one update of the module docstring, with the b and
    c tables of `sampler`, "ddpm" or "ddim" (with noise scale config.kappa).
    Both draw identical noise for kappa > 0, so kappa = 1 is testable
    against DDPM draw for draw."""
    num_steps = fast.num_steps
    d = np.sqrt(fast.gammas)
    kappa = config.kappa if sampler == "ddim" else None
    if kappa is None:
        b = fast.etas / np.sqrt(1.0 - fast.gamma_bars)
        c = np.sqrt(fast.eta_tildes)
    else:
        prev_bars = np.concatenate([[1.0], fast.gamma_bars[:-1]])
        # Interior radicands must stay non-negative; only the terminal step
        # may go negative (by -kappa^2 eta_1), where it is clamped to zero.
        radicands = 1.0 - prev_bars - kappa**2 * fast.eta_tildes
        if np.any(radicands[1:] < -1e-12):
            bad = int(np.argmax(radicands[1:] < -1e-12)) + 2
            raise ConstructionError(
                f"negative radicand {radicands[bad - 1]:.3e} at interior "
                f"step {bad}; kappa={kappa} is inadmissible here")
        b = np.sqrt(1.0 - fast.gamma_bars) \
            - np.sqrt(fast.gammas * np.maximum(radicands, 0.0))
        c = np.sqrt(kappa**2 * fast.eta_tildes)

    # The first noisy_steps reverse steps draw noise: none for kappa = 0,
    # and all but the last unless the final step is literal.
    literal = config.final_step_noise == FINAL_STEP_LITERAL
    noisy_steps = 0 if kappa == 0.0 else num_steps - (not literal)

    if initial is not None:
        initial = np.array(initial, dtype=float)
        if initial.shape != (config.batch, config.dim):
            raise ValueError(
                f"initial state must have shape {(config.batch, config.dim)}")

    # One block of normals per chain: row 0 is the initial state (unless
    # given), then one row per noisy step in reverse-step order.
    rows = noisy_steps + (initial is None)
    normals = chain_normals(config.seed, config.batch,
                            rows * config.dim).reshape(
                                config.batch, rows, config.dim)
    x = np.ascontiguousarray(normals[:, 0, :]) if initial is None else initial
    noise = normals[:, rows - noisy_steps:, :]
    trace = [] if config.record_trace else None

    # The update runs in place in x and scratch, both owned here, through
    # the same ufuncs in the same order as (x - b eps_hat) / d + c z, so
    # the bits are those of the expression; eps_hat (the model's, possibly
    # reused or read-only) is only read.
    scratch = np.empty_like(x)
    for k, i in enumerate(range(num_steps - 1, -1, -1)):
        eps_hat = model.predict(x, float(fast.cont_steps[i]))
        np.multiply(b[i], eps_hat, out=scratch)
        np.subtract(x, scratch, out=x)
        np.divide(x, d[i], out=x)
        if k < noisy_steps:
            np.multiply(c[i], noise[:, k, :], out=scratch)
            np.add(x, scratch, out=x)
        _check_finite(x, i + 1)
        if trace is not None:
            trace.append(x.copy())

    provenance = {"sampler": sampler}
    if kappa is not None:
        provenance["kappa"] = kappa
    provenance.update(
        fast_schedule=fast.to_dict(), batch=config.batch, dim=config.dim,
        seed=config.seed, final_step_noise=config.final_step_noise,
        model_calls_per_chain=num_steps, normals_per_chain=rows * config.dim)
    return SampleBatch(samples=x, provenance=provenance, step_trace=trace)


def ddpm_reverse(schedule: VarianceSchedule, model: EpsilonModel,
                 config: SamplerConfig, initial: np.ndarray | None = None
                 ) -> SampleBatch:
    """Full-length ancestral sampling over all num_steps reverse steps: the
    fast sampler on `FastSchedule.full(schedule)`, provenance included."""
    return _reverse_chain(FastSchedule.full(schedule), model, config,
                          initial, "ddpm")


def fast_ddpm_reverse(fast: FastSchedule, model: EpsilonModel,
                      config: SamplerConfig,
                      initial: np.ndarray | None = None) -> SampleBatch:
    """Ancestral sampling over a shortened schedule."""
    return _reverse_chain(fast, model, config, initial, "ddpm")


def fast_ddim_reverse(fast: FastSchedule, model: EpsilonModel,
                      config: SamplerConfig,
                      initial: np.ndarray | None = None) -> SampleBatch:
    """Implicit sampling over a shortened schedule.

    With kappa = 0 the chain is a deterministic function of the initial
    state and consumes no randomness after drawing it; with kappa = 1 it
    matches `fast_ddpm_reverse` under shared noise streams.
    """
    return _reverse_chain(fast, model, config, initial, "ddim")


def run_sampler(fast: FastSchedule, model: EpsilonModel,
                config: SamplerConfig, sampler: str) -> SampleBatch:
    """Run the named sampler, "ddpm" or "ddim", over `fast`, the full chain
    included; the provenance names the fast schedule."""
    if sampler == "ddim":
        return fast_ddim_reverse(fast, model, config)
    if sampler != "ddpm":
        raise ValidationError(f"unknown sampler {sampler!r}")
    return fast_ddpm_reverse(fast, model, config)
