"""Shortened diffusion schedules built from a pretrained variance schedule.

A `FastSchedule` holds S per-step variances eta_s together with the derived
quantities

    gamma_s      = 1 - eta_s
    gamma_bar_s  = prod_{i<=s} gamma_i      (gamma_bar_0 = 1)
    r_s          = sqrt(gamma_bar_s)        (noise levels, strictly decreasing)
    eta_tilde_s  = (1 - gamma_bar_{s-1}) / (1 - gamma_bar_s) * eta_s
    cont_step_s  = continuous step with noise level r_s

There are two constructions.  STEP picks a subset tau_1 < ... < tau_S of the
original integer steps and inherits their noise levels, in which case
gamma_bar_s telescopes to alpha_bar(tau_s) and cont_step_s = tau_s exactly.
VAR instead prescribes the variances eta_s directly on a linear or quadratic
ramp, scaled so the terminal noise level matches the original schedule:
prod(1 - eta_s) = alpha_bar(T).
`FastSchedule.full` is STEP over every step: eta_s = beta_s, so gamma_bar_s =
alpha_bar_s and eta_tilde_s = beta_tilde_s.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConstructionError, checked
from .schedule import NoiseLevelMap, VarianceSchedule

CONSTRUCTIONS = ("step", "var")
VARIANTS = ("linear", "quadratic")
FULL = "full"
# A FastSchedule's kind: "<construction>_<variant>", or the full chain.
KINDS = tuple(f"{construction}_{variant}" for construction in CONSTRUCTIONS
              for variant in VARIANTS) + (FULL,)

# Largest admissible per-step variance when solving for the VAR ramp slope.
_ETA_CAP = 1.0 - 1e-6
# Residual tolerance for the ramp-slope bisection, in log-product domain.
_ROOT_TOL = 1e-13
# Relative tolerance of the STEP telescoping identity (acceptance criterion 3).
_STEP_VAR_REL_TOL = 1e-12


class FastSchedule:
    """Immutable S-step schedule; build via `build_step_schedule`,
    `build_var_schedule` or `full`."""

    def __init__(self, kind: str, etas: np.ndarray, cont_steps: np.ndarray,
                 taus: np.ndarray | None = None):
        if kind not in KINDS:
            raise ConstructionError(f"unknown schedule kind {kind!r}")
        etas = np.asarray(etas, dtype=float)
        if etas.ndim != 1 or etas.size < 1:
            raise ConstructionError("etas must be a non-empty 1-D array")
        self.gammas = 1.0 - etas
        # an eta below float resolution leaves gamma at 1 and the step void
        if np.any(self.gammas <= 0.0) or np.any(self.gammas >= 1.0):
            raise ConstructionError("every gamma = 1 - eta must lie in (0, 1)")
        self.kind = kind
        if (taus is None) == self.is_step_kind:
            raise ConstructionError(f"kind {kind!r} disagrees with taus")
        self.num_steps = int(etas.size)
        self.etas = etas
        self.gamma_bars = np.cumprod(self.gammas)
        self.noise_levels = np.sqrt(self.gamma_bars)
        self.eta_tildes = etas.copy()
        self.eta_tildes[1:] = ((1.0 - self.gamma_bars[:-1])
                               / (1.0 - self.gamma_bars[1:]) * etas[1:])
        self.cont_steps = np.asarray(cont_steps, dtype=float)
        if self.cont_steps.shape != etas.shape:
            raise ConstructionError("cont_steps must align with etas")
        if np.any(np.diff(self.cont_steps) <= 0.0):
            raise ConstructionError("cont_steps must be strictly increasing")
        self.taus = None if taus is None else np.asarray(taus, dtype=int)
        arrays = [self.etas, self.gammas, self.gamma_bars, self.noise_levels,
                  self.eta_tildes, self.cont_steps]
        if self.taus is not None:
            arrays.append(self.taus)
        for a in arrays:
            a.flags.writeable = False

    @classmethod
    def full(cls, schedule: VarianceSchedule) -> "FastSchedule":
        """The full T-step chain: eta = beta, steps 1..T."""
        steps = np.arange(1, schedule.num_steps + 1)
        return cls(FULL, schedule.betas, steps.astype(float), steps)

    @property
    def is_step_kind(self) -> bool:
        return not self.kind.startswith("var_")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "S": self.num_steps,
            "eta": self.etas.tolist(),
            "r": self.noise_levels.tolist(),
            "t_cont": self.cont_steps.tolist(),
        }
        if self.taus is not None:
            out["tau"] = self.taus.tolist()
        return out

    def __repr__(self):
        return f"FastSchedule(kind={self.kind!r}, num_steps={self.num_steps})"


def step_subset(num_steps_full: int, num_steps: int, variant: str) -> np.ndarray:
    """The selected original steps tau_s for a STEP schedule.

    linear:    tau_s = floor(c s)   with c = T / S
    quadratic: tau_s = floor(c s^2) with c = (4/5) T / S^2

    Values are clamped to >= 1 and deduplicated (both can only occur for
    degenerate S); the quadratic ramp intentionally ends at 0.8 T.
    """
    s = np.arange(1, num_steps + 1, dtype=float)
    if variant == "linear":
        taus = np.floor(num_steps_full / num_steps * s)
    elif variant == "quadratic":
        taus = np.floor(0.8 * num_steps_full / num_steps**2 * s**2)
    else:
        raise ConstructionError(f"unknown variant {variant!r}")
    taus = np.maximum(taus.astype(int), 1)
    unique = np.unique(taus)  # sorted, deduplicated
    if unique.size < taus.size:
        warnings.warn(
            f"step subset collapsed from {taus.size} to {unique.size} steps "
            f"after clamping/deduplication", stacklevel=2)
    return unique


def build_step_schedule(schedule: VarianceSchedule, num_steps: int,
                        variant: str) -> FastSchedule:
    """Shortened schedule from a subset of the original discrete steps."""
    if not 1 <= num_steps <= schedule.num_steps:
        raise ValueError(
            f"num_steps must lie in [1, {schedule.num_steps}], got {num_steps}")
    taus = step_subset(schedule.num_steps, num_steps, variant)
    alpha_bar = schedule.alpha_bars[taus - 1]
    prev = np.concatenate([[1.0], alpha_bar[:-1]])
    etas = 1.0 - alpha_bar / prev
    # Integer steps are fixed points of the bijection: no inversion needed.
    return FastSchedule(f"step_{variant}", etas, taus.astype(float), taus)


def build_var_schedule(schedule: VarianceSchedule, level_map: NoiseLevelMap,
                       num_steps: int, variant: str) -> FastSchedule:
    """Shortened schedule from a variance ramp.

    eta_s = (1 + c s) * eta_0 (linear) or (1 + c s)^2 * eta_0 (quadratic),
    with eta_0 = beta_1 and c > 0 chosen so prod(1 - eta_s) = alpha_bar(T).
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    if variant == "linear":
        power = 1
    elif variant == "quadratic":
        power = 2
    else:
        raise ConstructionError(f"unknown variant {variant!r}")
    eta0 = schedule.beta_start
    target = float(np.sum(np.log1p(-schedule.betas)))  # log alpha_bar(T)
    s = np.arange(1, num_steps + 1, dtype=float)

    def log_product(c: float) -> float:
        etas = (1.0 + c * s) ** power * eta0
        return float(np.sum(np.log1p(-etas)))

    # The residual log_product(c) - target is strictly decreasing in c.
    # Bracket: c = 0 gives the largest product; c_max pushes the last
    # (largest) eta to the cap, so every eta log_product sees is below 1.
    if log_product(0.0) < target:
        raise ConstructionError(
            f"no admissible ramp: even c = 0 gives prod(1-eta) < alpha_bar(T) "
            f"(eta_0 = {eta0} too large for S = {num_steps})")
    c_max = ((_ETA_CAP / eta0) ** (1.0 / power) - 1.0) / num_steps
    if log_product(c_max) > target:
        raise ConstructionError(
            f"no admissible ramp: S = {num_steps} is too short to reach "
            f"alpha_bar(T) with every eta below {_ETA_CAP}")
    lo, hi = 0.0, c_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = log_product(mid) - target
        if abs(f_mid) <= _ROOT_TOL:
            lo = hi = mid
            break
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    c = 0.5 * (lo + hi)
    etas = (1.0 + c * s) ** power * eta0
    noise_levels = np.exp(0.5 * np.cumsum(np.log1p(-etas)))
    cont_steps = level_map.invert(noise_levels)[0]
    # The terminal step lands on T up to the root-solve residual.
    cont_steps = np.minimum(cont_steps, float(schedule.num_steps))
    return FastSchedule(f"var_{variant}", etas, cont_steps)


def build_fast_schedule(schedule: VarianceSchedule, level_map: NoiseLevelMap,
                        kind: str, variant: str, num_steps) -> FastSchedule:
    """The schedule a run or a sweep cell names by kind (a construction or
    "full"), variant and S: the one check of those three."""
    if checked("kind", kind, CONSTRUCTIONS + (FULL,)) == FULL:
        return FastSchedule.full(schedule)
    checked("variant", variant, VARIANTS)
    checked("S", num_steps, range(1, schedule.num_steps + 1))
    if kind == "step":
        return build_step_schedule(schedule, num_steps, variant)
    return build_var_schedule(schedule, level_map, num_steps, variant)


def step_as_var_equivalence(fast: FastSchedule,
                            schedule: VarianceSchedule) -> bool:
    """Check the telescoping identity gamma_bar_s = alpha_bar(tau_s).

    Holds for every STEP schedule by construction; used as a library
    self-test and by the CLI `inspect` diagnostic.
    """
    if not fast.is_step_kind:
        raise ValueError("equivalence check applies to STEP schedules only")
    reference = schedule.alpha_bars[fast.taus - 1]
    return bool(np.all(np.abs(fast.gamma_bars - reference)
                       <= _STEP_VAR_REL_TOL * np.abs(reference)))
