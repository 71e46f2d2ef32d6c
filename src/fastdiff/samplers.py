"""Forward diffusion and reverse-process samplers, generic over an
epsilon-model.

The forward direction jumps straight to any step t through the closed-form
marginal x_t = sqrt(alpha_bar_t) x_0 + sqrt(1 - alpha_bar_t) eps.

Two reverse samplers run over any `FastSchedule`, the full chain
`FastSchedule.full` included, and `run_sampler` picks one by name:
`fast_ddpm_reverse` (ancestral) and `fast_ddim_reverse` (implicit).
`SAMPLERS` lists the names, and `reported_kappa` is the one rule of what
each takes and reports (DDPM no kappa, DDIM its kappa; a reported kappa of
0 draws no noise): every other layer asks it instead of comparing names.
`ddpm_reverse` is the ancestral sampler over the full chain of a
`VarianceSchedule`.  Each reverse step s = S, ..., 1 is
x <- (x - b_s eps_theta(x, t_s)) / d_s + c_s z with d = sqrt(gamma), and
the samplers differ only in the tables b and c:

  DDPM: b = eta / sqrt(1 - gamma_bar),            c = sqrt(eta_tilde)
  DDIM: b = sqrt(1 - gamma_bar) - sqrt(gamma rho), c = sqrt(kappa^2 eta_tilde)

where rho_s = 1 - gamma_bar_{s-1} - kappa^2 eta_tilde_s, clamped at 0 (with
gamma_bar_0 = 1, only rho_1 is negative).  kappa in [0, 1] scales the DDIM
noise: kappa = 0 is a deterministic map from the latent to the sample, and
kappa = 1 reproduces DDPM step for step.  `reverse_tables` is the one
statement of each sampler's tables and counts; the driver, `_reverse_chain`,
is the step loop alone.  Each step starts a fresh state array, so the driver
never writes an array it was handed or has passed to the model.

Samplers are pure functions of (schedule, model, config): a fixed seed gives
bitwise-identical output.  Each chain draws all of its normals in one block
from the Philox stream keyed by (seed, chain index) (`rng.chain_normals`):
the initial state first, then one row per noisy step.  So the noise does
not depend on batch size, and `normals_per_chain` comes from the tables
rather than from a count.  The model's output may: the analytic oracle's
matrix products can round a row in the last bits differently with other
rows around it.  On a d = 2 mixture with full covariances, 1-row pieces of
a batch move its bits; at d >= 12 most splits do, even 512-row-aligned
ones, by up to 3e-15.  So a batch is reversed in one process on purpose:
split over processes, its output would depend on the CPU count.

An overflowing chain warns nothing: the driver raises a `NumericError` that
names the first reverse step with a non-finite state, for every caller.

A caller that runs several chains of one key, as a sweep does for the
cells of a seed, may draw the block once, wide enough for its longest
chain, and pass it as `normals=`: a stream's first k normals do not
depend on how many follow, so each run reads its prefix and gets the bits
it would have drawn itself.  The block is only read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .errors import NumericError, ValidationError, checked
from .fast_schedule import FastSchedule
from .rng import chain_normals
# unused here, but perfbench's call tracer patches samplers.chain_streams
from .rng import chain_streams  # noqa: F401
from .schedule import VarianceSchedule


class EpsilonModel(Protocol):
    """Noise predictor contract.

    `predict(x, t)` maps a batch of states (n, d) and a scalar (possibly
    non-integer) diffusion step t in [0, T] to predicted noise of shape
    (n, d).  It must be deterministic in (x, t).  The samplers only read
    the returned array, so it may be reused or read-only, and they never
    write an x they have passed: each step starts a fresh state.

    A model may also offer `at_steps(steps)`, returning a model with the
    same predictions that has tabulated whatever depends only on the step
    for each of `steps`.  The reverse driver calls it once per chain, with
    the chain's continuous steps, before its first `predict`, and then
    calls the bound model's `predict` at each of those steps.  A model
    without it is called as it is.
    """

    def predict(self, x: np.ndarray, t: float) -> np.ndarray: ...


class ZeroEpsilonModel:
    """Predicts zero noise; reverse chains then accumulate pure scaled
    Gaussian noise with a variance given by a closed-form recursion."""

    def predict(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.zeros_like(x)


SAMPLERS = ("ddpm", "ddim")
FINAL_STEP_ZERO = "zero"
FINAL_STEP_LITERAL = "literal"
FINAL_STEP_MODES = (FINAL_STEP_ZERO, FINAL_STEP_LITERAL)


def reported_kappa(sampler: str, kappa: float) -> float | None:
    """The kappa a run of `sampler` reports: None for "ddpm", which takes
    none, and `kappa` for "ddim".  Any other name raises `ValidationError`."""
    if sampler not in SAMPLERS:
        raise ValidationError(f"unknown sampler {sampler!r}")
    return None if sampler == "ddpm" else kappa


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
        checked("final_step_noise", self.final_step_noise, FINAL_STEP_MODES)


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


def chain_rows(num_steps: int, sampler: str, kappa: float,
               final_step_noise: str) -> int:
    """Rows of normals one chain draws over `num_steps` reverse steps: its
    initial state, then one per noisy step: none at a reported kappa of 0,
    else all but the last unless the final step is literal."""
    if reported_kappa(sampler, kappa) == 0.0:
        return 1
    return 1 + num_steps - (final_step_noise != FINAL_STEP_LITERAL)


@dataclass(frozen=True)
class ReverseTables:
    """A sampler's tables over a fast schedule, read-only (S,) arrays at
    index s - 1, and its counts per chain: the first `noisy_steps` reverse
    steps draw noise, `rows` of normals include the initial state's, and
    the model is called `model_calls` times.  `kappa` is the noise scale
    the provenance reports, None for DDPM."""

    sampler: str
    kappa: float | None
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    noisy_steps: int
    rows: int
    model_calls: int


def reverse_tables(fast: FastSchedule, sampler: str, kappa: float,
                   final_step_noise: str) -> ReverseTables:
    """The tables and counts of `sampler` over `fast`: "ddpm", which ignores
    `kappa`, or "ddim" with noise scale `kappa`, by the formulas of the
    module docstring.  Any other name raises `ValidationError`."""
    kappa = reported_kappa(sampler, kappa)
    if kappa is None:
        b = fast.etas / np.sqrt(1.0 - fast.gamma_bars)
        c = np.sqrt(fast.eta_tildes)
    else:
        prev_bars = np.concatenate([[1.0], fast.gamma_bars[:-1]])
        # kappa <= 1 keeps every interior radicand positive; only the
        # terminal one, -kappa^2 eta_1, is negative, so it is clamped.
        radicands = 1.0 - prev_bars - kappa**2 * fast.eta_tildes
        b = np.sqrt(1.0 - fast.gamma_bars) \
            - np.sqrt(fast.gammas * np.maximum(radicands, 0.0))
        c = np.sqrt(kappa**2 * fast.eta_tildes)
    d = np.sqrt(fast.gammas)
    for table in (b, c, d):
        table.flags.writeable = False
    rows = chain_rows(fast.num_steps, sampler, kappa, final_step_noise)
    return ReverseTables(sampler, kappa, b, c, d, rows - 1, rows,
                         fast.num_steps)


def _reverse_chain(fast, model, config, initial, tables, normals=None):
    """Shared driver: the update of the module docstring with the tables and
    counts of `tables`; `normals` is as for `run_sampler`."""
    b, c, d, noisy_steps = tables.b, tables.c, tables.d, tables.noisy_steps
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != (config.batch, config.dim):
            raise ValueError(
                f"initial state must have shape {(config.batch, config.dim)}")

    # One block of normals per chain: row 0 is the initial state (unless
    # given), then one row per noisy step in reverse-step order.
    rows = tables.rows - (initial is not None)
    columns = rows * config.dim
    if normals is None:
        normals = chain_normals(config.seed, config.batch, columns)
    elif normals.ndim != 2 or normals.shape[0] != config.batch \
            or normals.shape[1] < columns:
        # A caller's bug, not a numeric failure: a TypeError, which a
        # sweep does not record as a failed cell.
        raise TypeError(f"normals block of shape {normals.shape}, need "
                        f"({config.batch}, >= {columns})")
    normals = normals[:, :columns].reshape(config.batch, rows, config.dim)
    x = normals[:, 0, :] if initial is None else initial
    noise = normals[:, rows - noisy_steps:, :]
    trace = [] if config.record_trace else None

    # A model that can tabulate its per-step constants is bound to this
    # chain's steps once; it is still asked at every step, with the same
    # floats, and its predictions keep their bits.
    bind = getattr(model, "at_steps", None)
    if bind is not None:
        model = bind(fast.cont_steps)

    with np.errstate(over="ignore", invalid="ignore"):
        for k, i in enumerate(range(fast.num_steps - 1, -1, -1)):
            x = x - b[i] * model.predict(x, float(fast.cont_steps[i]))
            x /= d[i]
            if k < noisy_steps:
                x += c[i] * noise[:, k, :]
            if not np.isfinite(x).all():
                raise NumericError(f"non-finite state at reverse step {i + 1}",
                                   step=i + 1)
            if trace is not None:
                trace.append(x.copy())

    provenance = {"sampler": tables.sampler}
    if tables.kappa is not None:
        provenance["kappa"] = tables.kappa
    provenance.update(
        fast_schedule=fast.to_dict(), batch=config.batch, dim=config.dim,
        seed=config.seed, final_step_noise=config.final_step_noise,
        model_calls_per_chain=tables.model_calls,
        normals_per_chain=rows * config.dim)
    return SampleBatch(samples=x, provenance=provenance, step_trace=trace)


def ddpm_reverse(schedule: VarianceSchedule, model: EpsilonModel,
                 config: SamplerConfig, initial: np.ndarray | None = None
                 ) -> SampleBatch:
    """Full-length ancestral sampling over all num_steps reverse steps: the
    fast sampler on `FastSchedule.full(schedule)`, provenance included."""
    fast = FastSchedule.full(schedule)
    return _reverse_chain(fast, model, config, initial, reverse_tables(
        fast, "ddpm", config.kappa, config.final_step_noise))


def fast_ddpm_reverse(fast: FastSchedule, model: EpsilonModel,
                      config: SamplerConfig,
                      initial: np.ndarray | None = None, *,
                      normals: np.ndarray | None = None) -> SampleBatch:
    """Ancestral sampling over a shortened schedule; `normals` is an
    optional pre-drawn block (see `run_sampler`)."""
    return _reverse_chain(fast, model, config, initial, reverse_tables(
        fast, "ddpm", config.kappa, config.final_step_noise), normals)


def fast_ddim_reverse(fast: FastSchedule, model: EpsilonModel,
                      config: SamplerConfig,
                      initial: np.ndarray | None = None, *,
                      normals: np.ndarray | None = None) -> SampleBatch:
    """Implicit sampling over a shortened schedule; `normals` is an
    optional pre-drawn block (see `run_sampler`).

    With kappa = 0 the chain is a deterministic function of the initial
    state and consumes no randomness after drawing it; with kappa = 1 it
    matches `fast_ddpm_reverse` under shared noise streams.
    """
    return _reverse_chain(fast, model, config, initial, reverse_tables(
        fast, "ddim", config.kappa, config.final_step_noise), normals)


def run_sampler(fast: FastSchedule, model: EpsilonModel,
                config: SamplerConfig, sampler: str, *,
                normals: np.ndarray | None = None) -> SampleBatch:
    """Run the named sampler, "ddpm" or "ddim", over `fast`, the full chain
    included, through `fast_ddpm_reverse` or `fast_ddim_reverse`; any other
    name raises the `ValidationError` of `reported_kappa`.  `normals`, when
    given, is a block of `rng.chain_normals(config.seed, config.batch, n)`
    with n at least `chain_rows(...) * config.dim`, read in place of the
    run's own draw."""
    if reported_kappa(sampler, config.kappa) is None:
        return fast_ddpm_reverse(fast, model, config, normals=normals)
    return fast_ddim_reverse(fast, model, config, normals=normals)
