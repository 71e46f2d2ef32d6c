"""Variance schedules and the continuous step / noise level bijection.

A linear variance schedule is the sequence beta_1 < ... < beta_T used by a
pretrained denoising diffusion model.  Derived constants follow the usual
conventions:

    alpha_t     = 1 - beta_t
    alpha_bar_t = prod_{i<=t} alpha_i

and `FastSchedule.full` holds the per-step tables alpha_t and beta_tilde_t.

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

import numpy as np

from .errors import NUMBER, ConstructionError, ConvergenceError, typed

# Inversion stops once every |log alpha_bar(t) - 2 log r| is at most
# _INVERT_TOL, and raises ConvergenceError after _INVERT_MAX_ITERS steps.
_INVERT_TOL = 1e-12
_INVERT_MAX_ITERS = 100
# `log_alpha_bar` sums the log-Gamma series in 1/(L - t) to its (L - t)^-7
# term; a schedule is refused when the first term it omits,
# (L - T)^-9 / 1188, exceeds _SERIES_TOL at t = T, that is when the gap
# L - T is below _MIN_GAP (about 12.7).
_SERIES_TOL = 1e-13
_MIN_GAP = (1188.0 * _SERIES_TOL) ** (-1.0 / 9.0)


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
        # numpy refuses a table of more bytes than its index type counts
        if 8 * self.num_steps > np.iinfo(np.intp).max:
            raise ConstructionError(
                f"num_steps = {num_steps} is too large for an array")
        self.delta_beta = (self.beta_end - self.beta_start) / (self.num_steps - 1)
        # Continuous steps are only defined below this limit: the extended
        # beta(t) reaches 1 (noise level 0) at t = domain_limit.
        self.domain_limit = (1.0 - self.beta_start) / self.delta_beta
        if self.domain_limit <= self.num_steps:
            raise ConstructionError(
                f"schedule too steep: (1 - beta_start)/delta_beta = "
                f"{self.domain_limit:.3f} must exceed num_steps = {num_steps}"
            )
        gap = self.domain_limit - self.num_steps
        if gap < _MIN_GAP:
            raise ConstructionError(
                f"schedule too steep for the log-Gamma series: "
                f"(1 - beta_start)/delta_beta - num_steps = {gap:.3f} "
                f"must be at least {_MIN_GAP:.3f}")

        self.betas = np.linspace(self.beta_start, self.beta_end, self.num_steps)
        self.alpha_bars = np.cumprod(1.0 - self.betas)
        # sqrt(alpha_bar) with a leading 1.0 for step 0; the inversion
        # starts each level at the first entry at or below it.
        self.sqrt_alpha_bars = np.concatenate([[1.0], np.sqrt(self.alpha_bars)])

        for a in (self.betas, self.alpha_bars, self.sqrt_alpha_bars):
            a.flags.writeable = False

    def alpha_bar(self, t: int) -> float:
        """Tabulated alpha_bar at integer step t (cumulative product)."""
        self._check_step(t)
        return float(self.alpha_bars[t - 1])

    def _check_step(self, t: int) -> None:
        if not 1 <= t <= self.num_steps:
            raise ValueError(f"step {t} outside [1, {self.num_steps}]")

    # -- descriptor (canonical on-disk form) --------------------------------

    @classmethod
    def from_descriptor(cls, descriptor: dict) -> "VarianceSchedule":
        """The schedule of a `{"beta_1", "beta_T", "T"}` descriptor; raises
        `ValidationError` for an entry of the wrong type."""
        try:
            beta_1, beta_T, steps = (descriptor[key]
                                     for key in ("beta_1", "beta_T", "T"))
        except KeyError as missing:
            raise ConstructionError(f"schedule descriptor missing key {missing}")
        # T enters float arithmetic: an integer that fits a float
        typed("schedule.T", typed("schedule.T", steps, int), NUMBER)
        return cls(typed("schedule.beta_1", beta_1, NUMBER),
                   typed("schedule.beta_T", beta_T, NUMBER), steps)

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


def check_steps(t, upper, closed=False) -> None:
    """Raise ValueError unless every continuous step in t lies in [0, upper),
    or in [0, upper] when closed; a NaN step lies in neither."""
    inside = (0.0 <= t) & ((t <= upper) if closed else (t < upper))
    if not inside.all():
        interval = f"[0, {upper}]" if closed else f"[0, {upper:.3f})"
        raise ValueError(f"continuous step outside {interval}")


class NoiseLevelMap:
    """Bijection between continuous diffusion steps and noise levels.

    ``noise_level(t)`` evaluates r(t) = sqrt(alpha_bar(t)) through the Gamma
    extension; ``invert(r)`` solves log alpha_bar(t) = 2 log r for one level
    or an array of levels by one monotone Newton pass, to the module's
    residual tolerance.  Both directions are pure functions of immutable
    state.
    """

    def __init__(self, schedule: VarianceSchedule):
        self.schedule = schedule
        self._limit = schedule.domain_limit

    # -- forward direction ---------------------------------------------------

    def log_alpha_bar(self, t):
        """2*log r(t) = log alpha_bar(t) for continuous t in [0, domain_limit).

        Evaluates t*log(d) + lgamma(L+1) - lgamma(L-t+1) through the
        asymptotic expansion of the log-Gamma *difference*.  Subtracting two
        lgamma values of magnitude ~5e5 loses ~6 digits to cancellation;
        this arrangement keeps absolute error near 1e-13 on [0, num_steps],
        which the inversion tolerance relies on.  Past num_steps the series
        in 1/(L - t) loses accuracy, and it diverges as t -> L.

        A scalar step runs as an ``np.float64`` through the same ufuncs, in
        the same order, as each entry of an array, so both give the same
        bits.  A NaN step, like one outside the domain, raises ValueError.
        """
        t = np.asarray(t, dtype=float)[()]
        check_steps(t, self._limit)
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
        """Noise level r(t) = sqrt(alpha_bar(t)) at continuous step t in
        [0, num_steps]; r(0) = 1, and r agrees with sqrt(alpha_bar_product)
        at every integer step.

        log alpha_bar is concave in t, so r(t) <= (1 - beta_1)^(t/2) < 1 for
        every t >= 1.  Below step 1, r <= 1 holds exactly when the slope
        of log alpha_bar at 0, log(delta_beta) + digamma(L + 1) with
        L = domain_limit, is not positive.  That slope is
        log(1 - beta_1 + delta_beta / 2) up to a term of order
        delta_beta^2, so r exceeds 1 just after t = 0 when
        delta_beta / 2 > beta_1: `VarianceSchedule(1e-5, 0.05, 2)` gives
        r(0.5) = 1.0031, a level that `invert` rejects.
        """
        t = np.asarray(t, dtype=float)
        check_steps(t, self.schedule.num_steps, closed=True)
        out = np.exp(0.5 * self.log_alpha_bar(t))
        return out if out.ndim else float(out)

    # -- inverse direction ---------------------------------------------------

    def invert(self, r):
        """Invert the noise level map for one level or an array of levels.

        Returns (steps, iterations): a float for a scalar level, an array
        for an array, and the number of Newton steps the slowest level
        needed.  Each level starts at the first tabulated step whose level
        is at or below it, so at or above its root, and takes Newton steps
        t <- t - (log alpha_bar(t) - 2 log r) / log(d (L - t + 1/2)) until
        every |log alpha_bar(t) - 2 log r| <= _INVERT_TOL.  log alpha_bar is
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
        for iteration in range(_INVERT_MAX_ITERS + 1):
            residual = self.log_alpha_bar(t) - target
            done = terminal | (np.abs(residual) <= _INVERT_TOL)
            if np.all(done):
                return (t if t.ndim else float(t)), iteration
            slope = np.log1p(-(s.beta_start + (t - 0.5) * s.delta_beta))
            t = np.where(done, t, t - residual / slope)
        raise ConvergenceError(
            f"noise level inversion did not reach {_INVERT_TOL:g} within "
            f"{_INVERT_MAX_ITERS} iterations")
