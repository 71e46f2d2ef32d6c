"""Variance schedules and the continuous step / noise level bijection.

A linear variance schedule is the sequence beta_1 < ... < beta_T used by a
pretrained denoising diffusion model.  Derived constants follow the usual
conventions:

    alpha_t     = 1 - beta_t
    alpha_bar_t = prod_{i<=t} alpha_i
    beta_tilde_t = (1 - alpha_bar_{t-1}) / (1 - alpha_bar_t) * beta_t

Because the schedule is linear, the product alpha_bar_t has a closed form in
terms of Gamma functions,

    alpha_bar_t = (d)^t * Gamma(L + 1) / Gamma(L - t + 1),

with d the beta increment and L = (1 - beta_1) / d, which extends alpha_bar
(and the noise level r(t) = sqrt(alpha_bar_t)) to real-valued steps
t in [0, L).  `NoiseLevelMap` evaluates this extension and inverts it, giving
the bijection between continuous steps and noise levels that few-step
samplers are built on.  The inversion solves any number of levels in one
Newton pass: log alpha_bar is concave and decreasing wherever it is
negative, so Newton steps that start at or above a root never pass it.

All arithmetic is double precision; Gamma factors are handled in the log
domain throughout (Gamma(L + 1) itself overflows for typical schedules where
L is around 5e4).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConstructionError, ConvergenceError


class VarianceSchedule:
    """Linear beta schedule plus the constants derived from it.

    Arrays are 0-based: ``betas[i]`` is beta at step ``i + 1``.  Instances
    are immutable after construction and safe to share across threads.
    """

    def __init__(self, beta_start: float, beta_end: float, num_steps: int):
        if num_steps < 2:
            raise ConstructionError(f"num_steps must be >= 2, got {num_steps}")
        if not (0.0 < beta_start < beta_end < 1.0):
            raise ConstructionError(
                f"need 0 < beta_start < beta_end < 1, got ({beta_start}, {beta_end})"
            )
        self.beta_start = float(beta_start)
        self.beta_end = float(beta_end)
        self.num_steps = int(num_steps)
        self.delta_beta = (self.beta_end - self.beta_start) / (self.num_steps - 1)
        # Continuous steps are only defined below this limit: the extended
        # beta(t) reaches 1 (noise level 0) at t = domain_limit.
        self.domain_limit = (1.0 - self.beta_start) / self.delta_beta
        if self.domain_limit <= self.num_steps:
            raise ConstructionError(
                f"schedule too steep: (1 - beta_start)/delta_beta = "
                f"{self.domain_limit:.3f} must exceed num_steps = {num_steps}"
            )

        self.betas = np.linspace(self.beta_start, self.beta_end, self.num_steps)
        self.alphas = 1.0 - self.betas
        self.alpha_bars = np.cumprod(self.alphas)
        prev = np.concatenate([[1.0], self.alpha_bars[:-1]])
        self.beta_tildes = (1.0 - prev) / (1.0 - self.alpha_bars) * self.betas
        self.beta_tildes[0] = self.betas[0]
        # sqrt(alpha_bar) with a leading 1.0 for step 0; the inversion
        # starts each level at the first entry at or below it.
        self.sqrt_alpha_bars = np.concatenate([[1.0], np.sqrt(self.alpha_bars)])

        for a in (self.betas, self.alphas, self.alpha_bars, self.beta_tildes,
                  self.sqrt_alpha_bars):
            a.flags.writeable = False

    def alpha_bar(self, t: int) -> float:
        """Tabulated alpha_bar at integer step t (cumulative product)."""
        self._check_step(t)
        return float(self.alpha_bars[t - 1])

    def _check_step(self, t: int) -> None:
        if not 1 <= t <= self.num_steps:
            raise ValueError(f"step {t} outside [1, {self.num_steps}]")

    # -- descriptor (canonical on-disk form) --------------------------------

    def to_descriptor(self) -> dict:
        return {"beta_1": self.beta_start, "beta_T": self.beta_end,
                "T": self.num_steps}

    @classmethod
    def from_descriptor(cls, descriptor: dict) -> "VarianceSchedule":
        try:
            return cls(descriptor["beta_1"], descriptor["beta_T"], descriptor["T"])
        except KeyError as missing:
            raise ConstructionError(f"schedule descriptor missing key {missing}")

    @classmethod
    def from_json(cls, path) -> "VarianceSchedule":
        with open(path) as fh:
            return cls.from_descriptor(json.load(fh))

    def __repr__(self):
        return (f"VarianceSchedule(beta_start={self.beta_start}, "
                f"beta_end={self.beta_end}, num_steps={self.num_steps})")


def alpha_bar_product(schedule: VarianceSchedule, t: int) -> float:
    """alpha_bar at integer step t, computed by direct product.

    Deliberately independent of the cumulative-product table (and of the
    Gamma-function route below) so it can serve as an oracle for both.
    """
    schedule._check_step(t)
    return float(np.prod(1.0 - schedule.betas[:t]))


class NoiseLevelMap:
    """Bijection between continuous diffusion steps and noise levels.

    ``noise_level(t)`` evaluates r(t) = sqrt(alpha_bar(t)) through the Gamma
    extension; ``invert(r)`` solves log alpha_bar(t) = 2 log r for one level
    or an array of levels by one monotone Newton pass, and
    ``step_of_noise_level(r)`` is its scalar form.  Both directions are pure
    functions of immutable state.
    """

    def __init__(self, schedule: VarianceSchedule, tolerance: float = 1e-12,
                 max_iters: int = 100):
        if tolerance <= 0:
            raise ConstructionError("tolerance must be positive")
        if max_iters < 1:
            raise ConstructionError("max_iters must be >= 1")
        self.schedule = schedule
        self.tolerance = float(tolerance)
        self.max_iters = int(max_iters)
        self._log_delta = math.log(schedule.delta_beta)
        self._limit = schedule.domain_limit

    # -- forward direction ---------------------------------------------------

    def log_alpha_bar(self, t):
        """2*log r(t) = log alpha_bar(t) for continuous t in [0, domain_limit).

        Evaluates t*log(d) + lgamma(L+1) - lgamma(L-t+1) through the
        asymptotic expansion of the log-Gamma *difference*.  Subtracting two
        lgamma values of magnitude ~5e5 loses ~6 digits to cancellation;
        this arrangement keeps absolute error near 1e-13, which the
        inversion tolerance relies on.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t >= self._limit):
            raise ValueError(f"continuous step outside [0, {self._limit:.3f})")
        L = self._limit
        s = self.schedule
        # t*log(d) + t*log(L - t) combined: d*(L - t) = 1 - beta_start - t*d
        lead = t * np.log1p(-(s.beta_start + t * s.delta_beta))
        # -(L + 1/2)*log1p(-t/L) - t, with the O(t) parts cancelled analytically
        x = t / L
        mid = -(L + 0.5) * (np.log1p(-x) + x) + t / (2.0 * L)
        zi = 1.0 / L
        zf = 1.0 / (L - t)
        tail = ((zi - zf) / 12.0 - (zi**3 - zf**3) / 360.0
                + (zi**5 - zf**5) / 1260.0 - (zi**7 - zf**7) / 1680.0)
        out = lead + mid + tail
        return out if out.ndim else float(out)

    def noise_level(self, t):
        """Noise level r(t) in (0, 1] at continuous step t in [0, num_steps].

        r(t) = sqrt(alpha_bar(t)); r(0) = 1, and r agrees with
        sqrt(alpha_bar_product) at every integer step.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.schedule.num_steps):
            raise ValueError(
                f"continuous step outside [0, {self.schedule.num_steps}]")
        out = np.exp(0.5 * self.log_alpha_bar(t))
        return out if out.ndim else float(out)

    def log_noise_level_stirling(self, t):
        """2*log r(t) by the truncated Stirling series, as a cross-check.

        The series drops terms of order (L - t)^-3 and is kept in its
        textbook arrangement, so it is a genuinely different evaluation
        from `log_alpha_bar`; the two agree to ~1e-10 absolute on
        reference schedules.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t >= self._limit):
            raise ValueError(f"continuous step outside [0, {self._limit:.3f})")
        L = self._limit
        out = (t * self._log_delta
               + (L + 0.5) * np.log(L)
               - (L - t + 0.5) * np.log(L - t)
               - t
               + (1.0 / L - 1.0 / (L - t)) / 12.0)
        return out if out.ndim else float(out)

    # -- inverse direction ---------------------------------------------------

    def step_of_noise_level(self, r: float) -> float:
        """Continuous step t with r(t) = r, for r in [r(num_steps), 1]."""
        return self.invert(r)[0]

    def invert(self, r):
        """Invert the noise level map for one level or an array of levels.

        Returns (steps, iterations): a float for a scalar level, an array
        for an array, and the number of Newton steps the slowest level
        needed.  Each level starts at the first tabulated step whose level
        is at or below it, so at or above its root, and takes Newton steps
        t <- t - (log alpha_bar(t) - 2 log r) / log(d (L - t + 1/2)) until
        every |log alpha_bar(t) - 2 log r| <= tolerance.  log alpha_bar is
        concave with slope log d + digamma(L - t + 1), and
        digamma(x) > log(x - 1/2), so the step's slope is the steeper one:
        no step passes the root, and the iterates descend onto it.
        """
        s = self.schedule
        r = np.asarray(r, dtype=float)
        r_min = s.sqrt_alpha_bars[-1]
        # Noise levels that miss the range by floating noise (e.g. a
        # root-solve residual) are snapped to the nearest endpoint.
        valid = (r <= 1.0 + 1e-12) & (r_min - r <= 1e-9 * r_min)
        if not np.all(valid):
            raise ValueError(f"noise level {float(r[~valid][0])!r} outside "
                             f"[{r_min!r}, 1.0]")
        terminal = r < r_min  # snapped to exactly num_steps
        r = np.clip(r, r_min, 1.0)
        t = np.searchsorted(-s.sqrt_alpha_bars, -r).astype(float)
        target = 2.0 * np.log(r)
        for iteration in range(self.max_iters + 1):
            residual = self.log_alpha_bar(t) - target
            done = terminal | (np.abs(residual) <= self.tolerance)
            if np.all(done):
                return (t if t.ndim else float(t)), iteration
            slope = np.log1p(-(s.beta_start + (t - 0.5) * s.delta_beta))
            t = np.where(done, t, t - residual / slope)
        raise ConvergenceError(
            f"noise level inversion did not reach {self.tolerance:g} within "
            f"{self.max_iters} iterations")
