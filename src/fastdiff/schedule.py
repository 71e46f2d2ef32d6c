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
samplers are built on.

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
        # sqrt(alpha_bar) with a leading 1.0 for step 0; used for bracketing.
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
    extension; ``step_of_noise_level(r)`` inverts it by a bracketed search in
    the 2*log r domain.  Both directions are pure functions of immutable
    state.
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

    def invert(self, r: float) -> tuple[float, int]:
        """Invert the noise level map; returns (step, iterations used).

        The bracket [t0, t0 + 1] comes from bisecting the tabulated
        sqrt(alpha_bar) values; the search then mixes secant and midpoint
        steps (secant when its proposal stays inside the bracket, midpoint
        otherwise) until |log alpha_bar(t) - 2 log r| <= tolerance.
        """
        r = float(r)
        table = self.schedule.sqrt_alpha_bars
        r_min = table[-1]
        if not (r_min <= r <= 1.0):
            # Noise levels that miss the range by floating noise (e.g. a
            # root-solve residual) are snapped to the nearest endpoint.
            if r > 1.0 and r <= 1.0 + 1e-12:
                r = 1.0
            elif r < r_min and (r_min - r) <= 1e-9 * r_min:
                return float(self.schedule.num_steps), 0
            else:
                raise ValueError(
                    f"noise level {r!r} outside [{r_min!r}, 1.0]")
        if r == 1.0:
            return 0.0, 0
        target = 2.0 * math.log(r)
        # table is decreasing; locate t0 with table[t0] >= r >= table[t0+1]
        t0 = int(np.searchsorted(-table, -r, side="right")) - 1
        t0 = min(max(t0, 0), self.schedule.num_steps - 1)
        lo, hi = float(t0), float(t0 + 1)
        f_lo = self.log_alpha_bar(lo) - target
        f_hi = self.log_alpha_bar(hi) - target
        if abs(f_lo) <= self.tolerance:
            return lo, 0
        if abs(f_hi) <= self.tolerance:
            return hi, 0
        # log_alpha_bar is strictly decreasing: f_lo > 0 > f_hi
        stuck = 0  # consecutive updates of the same endpoint (Illinois guard)
        for iteration in range(1, self.max_iters + 1):
            mid = lo + (hi - lo) * f_lo / (f_lo - f_hi)
            if not lo < mid < hi:
                mid = 0.5 * (lo + hi)
            f_mid = self.log_alpha_bar(mid) - target
            if abs(f_mid) <= self.tolerance:
                return mid, iteration
            if f_mid > 0.0:
                lo, f_lo = mid, f_mid
                stuck = stuck + 1 if stuck > 0 else 1
                if stuck >= 2:
                    f_hi *= 0.5
            else:
                hi, f_hi = mid, f_mid
                stuck = stuck - 1 if stuck < 0 else -1
                if stuck <= -2:
                    f_lo *= 0.5
        raise ConvergenceError(
            f"noise level inversion did not reach {self.tolerance:g} within "
            f"{self.max_iters} iterations (r={r!r})")
