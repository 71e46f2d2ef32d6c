"""Sample-quality metrics: Frechet distance, inception-style score, accuracy.

The Frechet distance between the Gaussian moment fits of two sample sets is

    ||mu_a - mu_b||^2 + tr(Sig_a + Sig_b - 2 sqrt(Sig_a Sig_b)),

computed here through the symmetric product sqrt(Sig_a^1/2 Sig_b Sig_a^1/2),
which is similar to sqrt(Sig_a Sig_b) but keeps the eigenproblem symmetric
(and the result symmetric in its arguments up to floating noise).  Features
are raw sample coordinates; covariances use the unbiased (n - 1) estimator.

The inception-style score of a matrix of per-sample class probabilities is
exp of the mean KL divergence between each row and the marginal row mean;
accuracy is the argmax match rate against given labels (ties resolve to the
lowest class index).
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError, NumericError

# Eigenvalues this far below zero are treated as sampling noise and clamped;
# anything lower raises instead of being silently truncated.
_EIG_CLAMP = -1e-10


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(matrix)
    if np.any(values < _EIG_CLAMP):
        raise NumericError(
            f"matrix square root: eigenvalue {values.min():.3e} below the "
            f"clamp threshold {_EIG_CLAMP:g}")
    values = np.sqrt(np.maximum(values, 0.0))
    return (vectors * values) @ vectors.T


def frechet_gaussian(mean_a: np.ndarray, cov_a: np.ndarray,
                     mean_b: np.ndarray, cov_b: np.ndarray) -> float:
    """Frechet distance between two Gaussians given by their parameters."""
    mean_a = np.asarray(mean_a, dtype=float)
    mean_b = np.asarray(mean_b, dtype=float)
    cov_a = np.atleast_2d(np.asarray(cov_a, dtype=float))
    cov_b = np.atleast_2d(np.asarray(cov_b, dtype=float))
    diff = mean_a - mean_b
    root_a = _psd_sqrt(cov_a)
    cross = _psd_sqrt(root_a @ cov_b @ root_a)
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov_b)
                 - 2.0 * np.trace(cross))


def sample_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased covariance of a sample set (n, d); needs n >= d + 1."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    if n < d + 1:
        raise InsufficientDataError(
            f"need at least {d + 1} samples to fit moments in {d} dimensions, "
            f"got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    return mean, centered.T @ centered / (n - 1)


def frechet_distance(x_true: np.ndarray, x_generated: np.ndarray) -> float:
    """Frechet distance between the moment fits of two sample sets."""
    mean_t, cov_t = sample_moments(x_true)
    mean_g, cov_g = sample_moments(x_generated)
    return frechet_gaussian(mean_t, cov_t, mean_g, cov_g)


def _probability_rows(probs: np.ndarray) -> np.ndarray:
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    if not probs.shape[0]:
        raise InsufficientDataError("need at least 1 probability row, got 0")
    return probs


def _validate_probs(probs: np.ndarray) -> np.ndarray:
    probs = _probability_rows(probs)
    if np.any(probs < 0.0):
        raise ValueError("probabilities must be non-negative")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"row {bad} sums to {sums[bad]!r}, not 1")
    return probs


def inception_score(probs: np.ndarray) -> float:
    """exp(mean_i KL(p_i || mean_j p_j)) with the 0 log 0 = 0 convention."""
    probs = _validate_probs(probs)
    marginal = probs.mean(axis=0)
    support = probs > 0.0
    # logs only where they are finite: log 0 would raise under errstate
    ratios = np.log(probs, out=np.zeros_like(probs), where=support)
    log_marginal = np.log(marginal, out=np.zeros_like(marginal),
                          where=marginal > 0.0)
    np.subtract(ratios, log_marginal, out=ratios, where=support)
    kl = np.sum(probs * ratios, axis=1)
    return float(np.exp(kl.mean()))


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax class equals the label."""
    probs = _probability_rows(probs)
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (probs.shape[0],):
        raise ValueError(
            f"{probs.shape[0]} probability rows but {labels.size} labels")
    return float(np.mean(np.argmax(probs, axis=1) == labels))
