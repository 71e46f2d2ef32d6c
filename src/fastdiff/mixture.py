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
needs a factorization.  The log density, the score and the label posterior
come from one pass per query: one matrix product with the precision per
component and one log-sum-exp over the log-domain component densities.  A
mixture is immutable once built and holds no cache, so its methods are
safe to call concurrently.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import cholesky

from .errors import ConstructionError
from .schedule import NoiseLevelMap

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
                chols.append(cholesky(cov, lower=True))
            except np.linalg.LinAlgError:
                raise ConstructionError(
                    f"covariance {i} is not positive definite")
        self._chols = np.stack(chols)
        # L = U S V^T gives Sigma = L L^T = U S^2 U^T with S^2 > 0; eigh on
        # Sigma itself can return eigenvalues <= 0 for a near-singular
        # covariance that the Cholesky factorization accepted.
        self._eigvecs, singular, _ = np.linalg.svd(self._chols)
        self._eigvals = singular ** 2
        if self.labels is not None and self.labels.shape != (k,):
            raise ConstructionError("labels must give one class per component")
        self.num_components = k
        self.dim = d
        for a in (self.weights, self.means, self.covariances, self._chols,
                  self._eigvecs, self._eigvals):
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

    def _marginal(self, x: np.ndarray, alpha_bar: float):
        """One pass over the components of the marginal at alpha_bar for x
        of shape (n, d): returns log q(x) (n,), the responsibilities (n, K)
        and, per component k, C_k^-1 (x - m_k) (n, d), with C_k^-1 and
        log det C_k taken from the eigendecomposition of Sigma_k."""
        noisy = alpha_bar * self._eigvals + (1.0 - alpha_bar)
        logdets = np.sum(np.log(noisy), axis=1)
        means = np.sqrt(alpha_bar) * self.means
        logs = np.empty((x.shape[0], self.num_components))
        solved = []
        for k, vecs in enumerate(self._eigvecs):
            diff = x - means[k]
            solved.append(diff @ ((vecs / noisy[k]) @ vecs.T))
            maha = np.sum(diff * solved[k], axis=1)
            logs[:, k] = (np.log(self.weights[k])
                          - 0.5 * (self.dim * _LOG_2PI + logdets[k] + maha))
        peak = np.max(logs, axis=1, keepdims=True)
        resp = np.exp(logs - peak)
        total = np.sum(resp, axis=1, keepdims=True)
        resp /= total
        return (peak + np.log(total)).ravel(), resp, solved

    def log_density(self, x: np.ndarray, alpha_bar: float = 1.0) -> np.ndarray:
        """log q(x) of the marginal at signal fraction alpha_bar; (n,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._marginal(x, alpha_bar)[0]

    def score(self, x: np.ndarray, alpha_bar: float = 1.0) -> np.ndarray:
        """grad_x log q(x) of the marginal at alpha_bar; (n, d)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        _, resp, solved = self._marginal(x, alpha_bar)
        grad = np.zeros_like(x)
        for k in range(self.num_components):
            grad -= resp[:, k:k + 1] * solved[k]
        return grad

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        out = {"weights": self.weights.tolist(), "means": self.means.tolist(),
               "covariances": self.covariances.tolist()}
        if self.labels is not None:
            out["labels"] = self.labels.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianMixture":
        if not isinstance(data, dict):
            raise ConstructionError(
                f"a mixture must be an object, got {type(data).__name__}")
        for key in ("weights", "means", "covariances"):
            if key not in data:
                raise ConstructionError(f"mixture has no {key!r} entry")
        return cls(data["weights"], data["means"], data["covariances"],
                   data.get("labels"))

    @classmethod
    def from_json(cls, path) -> "GaussianMixture":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def analytic_epsilon(gm: GaussianMixture, level_map: NoiseLevelMap,
                     x: np.ndarray, t_cont: float) -> np.ndarray:
    """The MSE-optimal noise predictor for mixture data, evaluated exactly.

    eps*(x, t) = -sqrt(1 - alpha_bar(t)) * grad_x log q(x); for a single
    standard normal component this reduces to sqrt(1 - alpha_bar) * x.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    alpha_bar = float(np.exp(level_map.log_alpha_bar(t_cont)))
    return -np.sqrt(1.0 - alpha_bar) * gm.score(x, alpha_bar)


def posterior_classifier(gm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """Exact Bayes posterior over class labels at the data level; (n, L)
    with columns ordered by `gm.class_labels()`."""
    if gm.labels is None:
        raise ValueError("posterior_classifier requires a labelled mixture")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, resp, _ = gm._marginal(x, 1.0)
    classes = gm.class_labels()
    probs = np.empty((x.shape[0], classes.size))
    for j, label in enumerate(classes):
        probs[:, j] = np.sum(resp[:, gm.labels == label], axis=1)
    return probs


class AnalyticEpsilonModel:
    """EpsilonModel wrapper around `analytic_epsilon` for a fixed mixture
    and schedule; deterministic and safe for concurrent use."""

    def __init__(self, gm: GaussianMixture, level_map: NoiseLevelMap):
        self.gm = gm
        self.level_map = level_map
        self.dim = gm.dim

    def predict(self, x: np.ndarray, t: float) -> np.ndarray:
        return analytic_epsilon(self.gm, self.level_map, x, t)
