import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Generator, Philox
from scipy.linalg import cho_factor, cho_solve, cholesky
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from fastdiff import (AnalyticEpsilonModel, ConstructionError,
                      GaussianMixture, NoiseLevelMap, VarianceSchedule,
                      analytic_epsilon, posterior_classifier)


def finite_difference_epsilon(gm, level_map, x, t, h=1e-5):
    """Independent oracle: central differences of
    -sqrt(1 - alpha_bar) * log q_t."""
    alpha_bar = float(np.exp(level_map.log_alpha_bar(t)))
    scale = -np.sqrt(1.0 - alpha_bar)
    out = np.zeros_like(x)
    for j in range(x.shape[1]):
        plus, minus = x.copy(), x.copy()
        plus[:, j] += h
        minus[:, j] -= h
        out[:, j] = scale * (gm.log_density(plus, alpha_bar)
                             - gm.log_density(minus, alpha_bar)) / (2 * h)
    return out


def random_mixture(rng, k, d, labelled=False):
    weights = rng.uniform(0.5, 1.5, size=k)
    weights /= weights.sum()
    means = rng.normal(scale=2.0, size=(k, d))
    covs = []
    for _ in range(k):
        a = rng.normal(size=(d, d)) * 0.4
        covs.append(a @ a.T + 0.3 * np.eye(d))
    labels = np.arange(k) if labelled else None
    return GaussianMixture(weights, means, covs, labels)


def cholesky_reference(gm, x, alpha_bar):
    """log q(x), the responsibilities, the score and the largest condition
    number of the marginal covariances, from one Cholesky factorization of
    alpha_bar Sigma_k + (1 - alpha_bar) I per component."""
    logs, solved, conds = [], [], []
    for w, mu, sig in zip(gm.weights, gm.means, gm.covariances):
        cov = alpha_bar * sig + (1.0 - alpha_bar) * np.eye(gm.dim)
        cf = cho_factor(cov, lower=True)
        diff = x - np.sqrt(alpha_bar) * mu
        solved.append(cho_solve(cf, diff.T).T)
        logdet = 2.0 * np.sum(np.log(np.diag(cf[0])))
        logs.append(np.log(w) - 0.5 * (gm.dim * np.log(2.0 * np.pi) + logdet
                                       + np.sum(diff * solved[-1], axis=1)))
        conds.append(np.linalg.cond(cov))
    logs = np.stack(logs, axis=1)
    log_q = logsumexp(logs, axis=1)
    resp = np.exp(logs - log_q[:, None])
    score = -np.einsum("nk,knd->nd", resp, np.array(solved))
    return log_q, resp, score, max(conds)


def spread_mixture(rng, k, d):
    """Random rotations of spectra in [1e-6, 1e2]; the first component spans
    the whole range."""
    weights = rng.uniform(0.5, 1.5, size=k)
    weights /= weights.sum()
    covs = []
    for i in range(k):
        rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
        spectrum = 10.0 ** rng.uniform(-6.0, 2.0, size=d)
        if i == 0 and d > 1:
            spectrum[[0, -1]] = 1e-6, 1e2
        cov = (rotation * spectrum) @ rotation.T
        covs.append(0.5 * (cov + cov.T))
    return GaussianMixture(weights, rng.normal(scale=2.0, size=(k, d)), covs,
                           labels=rng.integers(0, 2, size=k))


def assert_close_to_reference(got, want, tolerance):
    """Norm-wise: relative to the largest entry, absolute below 1."""
    err = np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))
    assert err <= tolerance, (err, tolerance)


class TestConstruction:
    def test_weight_validation(self):
        with pytest.raises(ConstructionError):
            GaussianMixture([0.5, 0.6], [[0.0], [1.0]],
                            [np.eye(1), np.eye(1)])
        with pytest.raises(ConstructionError):
            GaussianMixture([1.2, -0.2], [[0.0], [1.0]],
                            [np.eye(1), np.eye(1)])

    def test_covariance_validation(self):
        with pytest.raises(ConstructionError):
            GaussianMixture([1.0], [[0.0, 0.0]],
                            [np.array([[1.0, 0.5], [0.2, 1.0]])])
        with pytest.raises(ConstructionError):
            GaussianMixture([1.0], [[0.0, 0.0]],
                            [np.array([[1.0, 2.0], [2.0, 1.0]])])

    def test_moments_by_hand(self):
        gm = GaussianMixture([0.25, 0.75], [[2.0, 0.0], [-2.0, 2.0]],
                             [np.eye(2), 2.0 * np.eye(2)])
        mean, cov = gm.moments()
        np.testing.assert_allclose(mean, [0.25 * 2 - 0.75 * 2, 1.5])
        want_cov = (0.25 * (np.eye(2) + np.outer([2, 0], [2, 0]))
                    + 0.75 * (2 * np.eye(2) + np.outer([-2, 2], [-2, 2]))
                    - np.outer(mean, mean))
        np.testing.assert_allclose(cov, want_cov)

    def test_sampling_moments(self, two_blob_2d):
        x = two_blob_2d.sample(Generator(Philox(0)), 100_000)
        mean, cov = two_blob_2d.moments()
        assert np.abs(x.mean(0) - mean).max() < 0.02
        assert np.abs(np.cov(x.T) - cov).max() < 0.05

    def test_sample_uses_each_cholesky_factor(self):
        gm = random_mixture(np.random.default_rng(8), 3, 2)
        x = gm.sample(Generator(Philox(4)), 500)
        stream = Generator(Philox(4))
        comps = stream.choice(3, size=500, p=gm.weights)
        z = stream.standard_normal((500, 2))
        chols = np.stack([cholesky(c, lower=True) for c in gm.covariances])
        assert np.array_equal(
            x, gm.means[comps] + np.einsum("nij,nj->ni", chols[comps], z))

    def test_json_roundtrip(self, two_blob_2d, tmp_path):
        path = tmp_path / "mixture.json"
        import json
        path.write_text(json.dumps(two_blob_2d.to_dict()))
        again = GaussianMixture.from_json(path)
        assert np.array_equal(again.means, two_blob_2d.means)
        assert np.array_equal(again.labels, two_blob_2d.labels)

    def test_restrict(self, two_blob_2d):
        sub = two_blob_2d.restrict(1)
        assert sub.num_components == 1
        assert sub.weights[0] == 1.0
        np.testing.assert_array_equal(sub.means[0], [1.5, 0.0])
        with pytest.raises(ValueError):
            two_blob_2d.restrict(7)


class TestAnalyticEpsilon:
    def test_isotropic_reduction(self, std_normal_2d, map_200):
        x = np.array([[0.5, -1.0], [2.0, 0.3]])
        t = 60.0
        alpha_bar = np.exp(map_200.log_alpha_bar(t))
        got = analytic_epsilon(std_normal_2d, map_200, x, t)
        np.testing.assert_allclose(got, np.sqrt(1 - alpha_bar) * x,
                                   rtol=1e-12)

    def test_single_component_closed_form(self, map_200):
        mu = np.array([0.8, -0.4])
        cov = np.array([[0.5, 0.2], [0.2, 0.9]])
        gm = GaussianMixture([1.0], [mu], [cov])
        x = np.array([[1.0, 1.0], [-0.3, 0.2]])
        t = 35.0
        a = float(np.exp(map_200.log_alpha_bar(t)))
        marginal_cov = a * cov + (1 - a) * np.eye(2)
        want = np.sqrt(1 - a) * np.linalg.solve(
            marginal_cov, (x - np.sqrt(a) * mu).T).T
        got = analytic_epsilon(gm, map_200, x, t)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_two_component_matches_finite_differences(self, two_blob_2d,
                                                      map_200):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=1.5, size=(20, 2))
        for t in (5.0, 60.5, 180.0):
            got = analytic_epsilon(two_blob_2d, map_200, x, t)
            want = finite_difference_epsilon(two_blob_2d, map_200, x, t)
            err = np.abs(got - want) / np.maximum(np.abs(want), 1e-3)
            assert err.max() <= 1e-5

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_finite_difference_sweep(self, map_200, k, d):
        rng = np.random.default_rng(100 * k + d)
        gm = random_mixture(rng, k, d)
        x = rng.normal(scale=1.5, size=(8, d))
        t = float(rng.uniform(3.0, 195.0))
        got = analytic_epsilon(gm, map_200, x, t)
        want = finite_difference_epsilon(gm, map_200, x, t)
        err = np.abs(got - want) / np.maximum(np.abs(want), 1e-3)
        assert err.max() <= 1e-5

    def test_model_wrapper_deterministic(self, two_blob_2d, map_200):
        model = AnalyticEpsilonModel(two_blob_2d, map_200)
        x = np.array([[0.1, 0.2]])
        a = model.predict(x, 12.3)
        b = model.predict(x, 12.3)
        assert np.array_equal(a, b)
        assert a.shape == x.shape

    def test_shared_model_is_safe_across_threads(self, map_200):
        model = AnalyticEpsilonModel(
            random_mixture(np.random.default_rng(5), 3, 2), map_200)
        x = np.random.default_rng(6).normal(scale=2.0, size=(64, 2))
        steps = np.linspace(1.0, 199.0, 32)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda t: model.predict(x, t), steps,
                                         timeout=120))
        finally:
            sys.setswitchinterval(interval)
        fresh = AnalyticEpsilonModel(
            random_mixture(np.random.default_rng(5), 3, 2), map_200)
        for t, got in zip(steps, threaded):
            assert np.array_equal(got, fresh.predict(x, t))


class TestPosteriorClassifier:
    def test_mass_at_component_mean(self, two_blob_2d):
        probs = posterior_classifier(two_blob_2d, np.array([[1.5, 0.0]]))
        assert probs[0, 1] > 0.99

    def test_symmetric_midpoint(self, two_blob_2d):
        probs = posterior_classifier(two_blob_2d, np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(probs[0], [0.5, 0.5], atol=1e-12)

    def test_rows_normalized(self, two_blob_2d):
        x = np.random.default_rng(1).normal(size=(50, 2), scale=3.0)
        probs = posterior_classifier(two_blob_2d, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_requires_labels(self, std_normal_2d):
        with pytest.raises(ValueError):
            posterior_classifier(std_normal_2d, np.zeros((1, 2)))

    def test_label_grouping(self):
        # two components sharing one label pool their mass
        gm = GaussianMixture([0.4, 0.4, 0.2],
                             [[-3.0], [3.0], [0.0]],
                             [np.eye(1) * 0.1] * 3, labels=[0, 0, 1])
        probs = posterior_classifier(gm, np.array([[-3.0], [3.0]]))
        assert probs.shape == (2, 2)
        assert probs[0, 0] > 0.99 and probs[1, 0] > 0.99


class TestOnePassProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 4),
           st.floats(0.0, 1.0, exclude_min=True))
    def test_matches_per_component_scipy(self, seed, k, d, alpha_bar):
        rng = np.random.default_rng(seed)
        gm = random_mixture(rng, k, d, labelled=True)
        x = rng.normal(scale=2.0, size=(6, d))
        per_component = [
            np.log(w) + multivariate_normal.logpdf(
                x, np.sqrt(alpha_bar) * mu,
                alpha_bar * sig + (1.0 - alpha_bar) * np.eye(d))
            for w, mu, sig in zip(gm.weights, gm.means, gm.covariances)]
        np.testing.assert_allclose(gm.log_density(x, alpha_bar),
                                   logsumexp(per_component, axis=0),
                                   rtol=0.0, atol=1e-10)
        probs = posterior_classifier(gm, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


# Beyond the chain's last step: alpha_bar(1000) is about 1e-11.
LONG_MAP = NoiseLevelMap(VarianceSchedule(1e-4, 0.05, 1000))


class TestSpectralOracle:
    """The eigendecomposed oracle against the per-noise-level Cholesky
    evaluation it replaced.  Both are backward stable, so they may differ by
    a small multiple of cond * eps; the bound is 1e-10 plus that term, at
    query points drawn from the noisy marginal itself."""

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5),
           st.one_of(st.sampled_from([1.0, 1.0 - 1e-12, 1e-8]),
                     st.floats(0.0, 1.0, exclude_min=True)))
    def test_matches_cholesky_reference(self, seed, k, d, alpha_bar):
        rng = np.random.default_rng(seed)
        gm = spread_mixture(rng, k, d)
        x0 = gm.sample(Generator(Philox(seed)), 16)
        x = (np.sqrt(alpha_bar) * x0
             + np.sqrt(1.0 - alpha_bar) * rng.normal(size=x0.shape))
        log_q, _, score, cond = cholesky_reference(gm, x, alpha_bar)
        tolerance = 1e-10 + 100.0 * cond * np.finfo(float).eps
        assert_close_to_reference(gm.log_density(x, alpha_bar), log_q,
                                  tolerance)
        assert_close_to_reference(gm.score(x, alpha_bar), score, tolerance)
        # epsilon at the step of this signal fraction (or the last step)
        r_min = LONG_MAP.schedule.sqrt_alpha_bars[-1]
        t = float(LONG_MAP.invert(max(np.sqrt(alpha_bar), r_min))[0])
        at_t = float(np.exp(LONG_MAP.log_alpha_bar(t)))
        _, _, score, cond = cholesky_reference(gm, x, at_t)
        assert_close_to_reference(
            analytic_epsilon(gm, LONG_MAP, x, t),
            -np.sqrt(1.0 - at_t) * score,
            1e-10 + 100.0 * cond * np.finfo(float).eps)
        # the posterior is always taken at the data level
        _, resp, _, cond = cholesky_reference(gm, x, 1.0)
        want = np.stack([resp[:, gm.labels == label].sum(axis=1)
                         for label in gm.class_labels()], axis=1)
        assert_close_to_reference(
            posterior_classifier(gm, x), want,
            1e-10 + 100.0 * cond * np.finfo(float).eps)

    @pytest.mark.parametrize("cov", [
        [[0.7, 0.7], [0.7, 0.7 + 7e-17]],
        # eigh of this matrix returns an eigenvalue of exactly 0
        [[0.1, 0.5], [0.5, 2.5]],
    ])
    def test_near_singular_covariance_is_finite_at_data_level(self, cov):
        gm = GaussianMixture([1.0], [[0.0, 0.0]], [cov])
        x = np.array([[0.3, -0.2], [1.0, 1.0], [0.0, 0.0]])
        assert np.all(np.isfinite(gm.log_density(x, 1.0)))
        assert np.all(np.isfinite(gm.score(x, 1.0)))

    def test_factors_are_read_only(self, two_blob_2d):
        for a in (two_blob_2d._chols, two_blob_2d._eigvecs,
                  two_blob_2d._eigvals):
            with pytest.raises(ValueError):
                a[0] = 0.0
