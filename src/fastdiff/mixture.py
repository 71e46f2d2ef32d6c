"""Gaussian mixtures with analytic diffusion oracles.

For data distributed as a mixture sum_k w_k N(mu_k, Sigma_k), the marginal of
the diffusion at signal fraction alpha_bar is again a mixture,

    q(x) = sum_k w_k N(sqrt(alpha_bar) mu_k, alpha_bar Sigma_k
                                              + (1 - alpha_bar) I),

so the score grad log q, the mean-square-optimal noise predictor

    eps*(x, t) = -sqrt(1 - alpha_bar) * grad log q(x),

and the Bayes posterior over component labels are all available in closed
form.  These serve as exact reference models for the samplers: a sampler
driven by `AnalyticEpsilonModel` should reproduce the mixture's moments as
the number of reverse steps grows.

Each covariance is factored once, at construction: Sigma_k = L_k L_k^T
(Cholesky, used by `sample`) and Sigma_k = U_k diag(lambda_k) U_k^T, taken
from the singular value decomposition of L_k so that every lambda_k is
positive.  The marginal covariance at alpha_bar shares the eigenvectors,

    alpha_bar Sigma_k + (1 - alpha_bar) I = U_k diag(lambda~_k) U_k^T,
    lambda~_k = alpha_bar lambda_k + 1 - alpha_bar >= min(lambda_k, 1),

so its precision and log-determinant are closed-form and no noise level
needs a factorization.  Fixed at construction, and read-only from then on,
are the weights, means and covariances, the factors L_k, U_k and lambda_k,
and the log weights log w_k; none of them depends on alpha_bar.

What depends on alpha_bar alone, the noisy eigenvalues lambda~_k, the
scaled means sqrt(alpha_bar) mu_k and the log-normalisers
d log 2pi + log det C_k, is built by one vectorised pass over an array of
levels into a constants table, O(K d) per level; a single level is a
one-row table.  `AnalyticEpsilonModel.at_steps` tabulates a whole chain's
steps at once, with sqrt(1 - alpha_bar), and the reverse driver binds the
model so once per chain.  The (K, d, d) precisions are not tabulated: a
step builds its own at its call.

The log density, the score and the label posterior come from one pass
per query over all K components as stacked arrays (`_marginal`, given
one row of the table): one batched product gives the K precisions, the
offsets x - m_k and their solves are (K, d, n) arrays, the log-domain
component densities one (K, n) array, and the log-sum-exp and the
responsibilities reduce over its leading axis.  A mixture is immutable
once built and holds no cache, and so is a bound model, so their methods
are safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionError, ValidationError, typed
from .schedule import NoiseLevelMap
from .storage import read_json

_LOG_2PI = float(np.log(2.0 * np.pi))


class GaussianMixture:
    """Weighted Gaussian mixture; optionally labelled per component."""

    def __init__(self, weights, means, covariances, labels=None):
        try:
            self.weights = np.asarray(weights, dtype=float)
            self.means = np.atleast_2d(np.asarray(means, dtype=float))
            self.covariances = np.asarray(covariances, dtype=float)
            self.labels = None if labels is None \
                else np.asarray(labels, dtype=int)
        except (TypeError, ValueError) as err:
            raise ConstructionError(f"mixture arrays must hold numbers: {err}")
        if self.covariances.ndim == 2:
            self.covariances = self.covariances[None, :, :]
        k, d = self.means.shape
        if self.weights.shape != (k,) or self.covariances.shape != (k, d, d):
            raise ConstructionError("weights/means/covariances shapes disagree")
        for name, a in (("weights", self.weights), ("means", self.means),
                        ("covariances", self.covariances)):
            if not np.all(np.isfinite(a)):
                raise ConstructionError(f"mixture {name} must be finite")
        if np.any(self.weights <= 0.0):
            raise ConstructionError("weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ConstructionError(
                f"weights sum to {self.weights.sum()!r}, not 1")
        chols = []
        for i, cov in enumerate(self.covariances):
            if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
                raise ConstructionError(f"covariance {i} is not symmetric")
            try:
                chols.append(np.linalg.cholesky(cov))
            except np.linalg.LinAlgError:
                raise ConstructionError(
                    f"covariance {i} is not positive definite")
        self._chols = np.stack(chols)
        # L = U S V^T gives Sigma = L L^T = U S^2 U^T with S^2 > 0; eigh on
        # Sigma itself can return eigenvalues <= 0 for a near-singular
        # covariance that the Cholesky factorization accepted.
        self._eigvecs, singular, _ = np.linalg.svd(self._chols)
        self._eigvals = singular ** 2
        self._log_weights = np.log(self.weights)[:, None]
        if self.labels is not None and self.labels.shape != (k,):
            raise ConstructionError("labels must give one class per component")
        self.num_components = k
        self.dim = d
        for a in (self.weights, self.means, self.covariances, self._chols,
                  self._eigvecs, self._eigvals, self._log_weights):
            a.flags.writeable = False

    # -- basic facts ---------------------------------------------------------

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact mean and covariance of the mixture."""
        mean = self.weights @ self.means
        cov = np.zeros((self.dim, self.dim))
        for w, mu, sig in zip(self.weights, self.means, self.covariances):
            cov += w * (sig + np.outer(mu, mu))
        cov -= np.outer(mean, mean)
        return mean, cov

    def sample(self, stream: np.random.Generator, n: int) -> np.ndarray:
        comps = stream.choice(self.num_components, size=n, p=self.weights)
        z = stream.standard_normal((n, self.dim))
        return self.means[comps] + np.einsum("nij,nj->ni",
                                             self._chols[comps], z)

    def class_labels(self) -> np.ndarray:
        if self.labels is None:
            raise ValueError("mixture has no labels")
        return np.unique(self.labels)

    def restrict(self, label: int) -> "GaussianMixture":
        """Sub-mixture of the components carrying `label`, renormalized."""
        if self.labels is None:
            raise ValueError("mixture has no labels")
        keep = self.labels == label
        if not np.any(keep):
            raise ValueError(f"no component has label {label}")
        w = self.weights[keep]
        return GaussianMixture(w / w.sum(), self.means[keep],
                               self.covariances[keep], self.labels[keep])

    # -- noisy-marginal quantities -------------------------------------------

    def _levels(self, alpha_bars: np.ndarray):
        """The constants of the marginal at each of the levels alpha_bars
        (m,): the noisy eigenvalues lambda~ (m, K, d), the scaled means
        sqrt(alpha_bar) mu_k (m, K, d, 1) and the log-normalisers
        d log 2pi + log det C_k (m, K, 1).  Each entry is computed by the
        same ufuncs, in the same order, as for a single level, so row i of
        the table has the bits of a one-row table at alpha_bars[i]."""
        a = alpha_bars[:, None, None]
        noisy = a * self._eigvals + (1.0 - a)
        means = np.sqrt(a)[..., None] * self.means[:, :, None]
        norms = self.dim * _LOG_2PI + np.log(noisy).sum(axis=2, keepdims=True)
        return noisy, means, norms

    def _level(self, alpha_bar: float):
        """The constants at one level: a one-row table's row."""
        noisy, means, norms = self._levels(np.array([alpha_bar], dtype=float))
        return noisy[0], means[0], norms[0]

    def _marginal(self, x: np.ndarray, level):
        """The marginal at one level, given as its (noisy eigenvalues,
        scaled means, log-normalisers) row of a `_levels` table, for x as an
        (n, d) array over all K components at once: returns the pieces
        peak + log(total) of log q(x) (both (n,)), the responsibilities
        (K, n) and the solves C_k^-1 (x - m_k) as one (K, d, n) array."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"x must have shape (n, {self.dim}), "
                             f"got {x.shape}")
        noisy, means, norms = level
        vecs = self._eigvecs
        precisions = (vecs / noisy[:, None, :]) @ vecs.transpose(0, 2, 1)
        diff = np.ascontiguousarray(x.T) - means
        solved = precisions @ diff
        diff *= solved  # the summands of the Mahalanobis terms
        logs = diff.sum(axis=1)
        logs += norms
        logs *= -0.5
        logs += self._log_weights
        peak = logs.max(axis=0)
        logs -= peak
        resp = np.exp(logs, out=logs)
        total = resp.sum(axis=0)
        resp /= total
        return peak, total, resp, solved

    def log_density(self, x: np.ndarray, alpha_bar: float = 1.0) -> np.ndarray:
        """log q(x) of the marginal at signal fraction alpha_bar; (n,)."""
        peak, total, _, _ = self._marginal(x, self._level(alpha_bar))
        return peak + np.log(total)

    def score(self, x: np.ndarray, alpha_bar: float = 1.0) -> np.ndarray:
        """grad_x log q(x) of the marginal at alpha_bar; (n, d)."""
        out = self._weighted_solves(x, self._level(alpha_bar))
        return np.negative(out, out=out)

    def _weighted_solves(self, x: np.ndarray, level) -> np.ndarray:
        """-grad_x log q(x) = sum_k r_k C_k^-1 (x - m_k) at one level (see
        `_marginal`) for x of shape (n, d), as a fresh C-ordered (n, d)
        array: the (d, n) sum over k is written through its transpose."""
        _, _, resp, solved = self._marginal(x, level)
        solved *= resp[:, None, :]
        out = np.empty((solved.shape[2], self.dim))
        np.add.reduce(solved, axis=0, out=out.T)
        return out

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        out = {"weights": self.weights.tolist(), "means": self.means.tolist(),
               "covariances": self.covariances.tolist()}
        if self.labels is not None:
            out["labels"] = self.labels.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianMixture":
        typed("mixture", data, dict)
        for key in ("weights", "means", "covariances"):
            if key not in data:
                raise ConstructionError(f"mixture has no {key!r} entry")
        labels = data.get("labels")
        if labels is not None:
            # a class is a JSON integer: 0.9 or true would pass as 0 or 1
            for label in typed("mixture labels", labels, list):
                typed("mixture labels entry", label, int)
        return cls(data["weights"], data["means"], data["covariances"],
                   labels)

    @classmethod
    def from_json(cls, path) -> "GaussianMixture":
        """Read a mixture file; raises `ValidationError`, starting with
        `path`, when its contents do not describe a mixture."""
        data = read_json(path)
        try:
            return cls.from_dict(data)
        except (ValidationError, ConstructionError) as err:
            raise ValidationError(f"{path}: {err}") from err


def analytic_epsilon(gm: GaussianMixture, level_map: NoiseLevelMap,
                     x: np.ndarray, t_cont: float) -> np.ndarray:
    """The MSE-optimal noise predictor for mixture data, evaluated exactly.

    eps*(x, t) = -sqrt(1 - alpha_bar(t)) * grad_x log q(x); for a single
    standard normal component this reduces to sqrt(1 - alpha_bar) * x.
    It is computed as sqrt(1 - alpha_bar) * sum_k r_k C_k^-1 (x - m_k),
    which has the same bits: (-a)(-b) = ab exactly.  The constants come
    from a one-row table, built by the path that builds a model bound to a
    chain's steps (`AnalyticEpsilonModel.at_steps`), so that model returns
    the same bits; both raise the same ValueError where alpha_bar(t)
    exceeds 1.
    """
    alpha_bars, scales = _noise_scales(level_map, np.reshape(t_cont, 1))
    out = gm._weighted_solves(x, gm._level(alpha_bars[0]))
    out *= scales[0]
    return out


def _noise_scales(level_map: NoiseLevelMap, steps: np.ndarray):
    """alpha_bar and sqrt(1 - alpha_bar) at a 1-d array of continuous
    steps; raises ValueError for a step outside the level map's domain,
    NaN included, or one where alpha_bar exceeds 1."""
    alpha_bars = np.exp(level_map.log_alpha_bar(steps))
    if (alpha_bars > 1.0).any():
        # the Gamma extension can exceed 1 just above t = 0, where
        # sqrt(1 - alpha_bar) has no value
        raise ValueError("alpha_bar above 1: no noise predictor at "
                         f"continuous step {steps[alpha_bars > 1.0][0]}")
    return alpha_bars, np.sqrt(1.0 - alpha_bars)


def posterior_classifier(gm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """Exact Bayes posterior over class labels at the data level; (n, L)
    with columns ordered by `gm.class_labels()`."""
    if gm.labels is None:
        raise ValueError("posterior_classifier requires a labelled mixture")
    _, _, resp, _ = gm._marginal(x, gm._level(1.0))
    return np.stack([np.sum(resp[gm.labels == label], axis=0)
                     for label in gm.class_labels()], axis=1)


class AnalyticEpsilonModel:
    """EpsilonModel that evaluates `analytic_epsilon` for a fixed mixture
    and schedule; deterministic and safe for concurrent use.

    `at_steps(steps)` returns a model bound to a chain's steps: it holds the
    per-level constants of every step in `steps` as one table (the
    `GaussianMixture._levels` arrays and sqrt(1 - alpha_bar), O(S K d) in
    all) and an index from each step to its row.  Its `predict` returns the
    bits of the unbound model's at every step, and serves a step outside
    the table through a one-row table, as the unbound model does.  Each
    step's (K, d, d) precisions are still built at its call.
    """

    def __init__(self, gm: GaussianMixture, level_map: NoiseLevelMap):
        self.gm = gm
        self.level_map = level_map
        self.dim = gm.dim
        # Set by at_steps: the constants table, sqrt(1 - alpha_bar) and
        # each tabulated step's row; an unbound model has no row.
        self._table = self._scales = None
        self._rows: dict[float, int] = {}

    def at_steps(self, steps) -> "AnalyticEpsilonModel":
        """A model with this one's predictions, its constants tabulated at
        `steps`, a 1-d sequence of continuous steps; raises ValueError for
        a step outside the level map's domain, NaN included, or one where
        alpha_bar exceeds 1."""
        steps = np.asarray(steps, dtype=float)
        if steps.ndim != 1:
            raise ValueError(f"steps must be 1-d, got shape {steps.shape}")
        alpha_bars, scales = _noise_scales(self.level_map, steps)
        bound = AnalyticEpsilonModel(self.gm, self.level_map)
        bound._scales = scales
        bound._table = self.gm._levels(alpha_bars)
        for a in (bound._scales, *bound._table):
            a.flags.writeable = False
        bound._rows = {t: i for i, t in enumerate(steps.tolist())}
        return bound

    def predict(self, x: np.ndarray, t: float) -> np.ndarray:
        row = self._rows.get(t) if isinstance(t, float) else None
        if row is None:
            return analytic_epsilon(self.gm, self.level_map, x, t)
        noisy, means, norms = self._table
        out = self.gm._weighted_solves(x, (noisy[row], means[row], norms[row]))
        out *= self._scales[row]
        return out
