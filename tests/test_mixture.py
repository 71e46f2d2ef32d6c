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
                      FastSchedule, GaussianMixture, NoiseLevelMap,
                      VarianceSchedule, analytic_epsilon,
                      posterior_classifier)
from fastdiff.experiment import builtin_presets
from test_fast_schedule import schedules
from test_samplers import random_fast_schedule


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

    @pytest.mark.parametrize("weights,means,covariances,labels,match", [
        ([1.0], [[0.0], [1.0]], [np.eye(1)] * 2, None, "shapes disagree"),
        ([0.5, 0.5], [[0.0], [1.0]], [np.eye(2)] * 2, None,
         "shapes disagree"),
        ([0.5, 0.5], [[0.0], [1.0]], [np.eye(1)] * 2, [0],
         "one class per component")])
    def test_array_shape_validation(self, weights, means, covariances,
                                    labels, match):
        with pytest.raises(ConstructionError, match=match):
            GaussianMixture(weights, means, covariances, labels)

    def test_non_positive_definite_component_is_named(self):
        with pytest.raises(ConstructionError,
                           match="covariance 1 is not positive definite"):
            GaussianMixture([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]],
                            [np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])

    @pytest.mark.parametrize("d", range(1, 13))
    def test_cholesky_factors_match_scipy(self, d):
        """numpy's factor of a full covariance is scipy's to 1e-12; the two
        LAPACK builds can round differently from d = 5 on."""
        gm = random_mixture(np.random.default_rng(d), 3, d)
        want = np.stack([cholesky(c, lower=True) for c in gm.covariances])
        assert gm._chols.shape == want.shape
        np.testing.assert_allclose(gm._chols, want, rtol=0.0, atol=1e-12)

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

    def test_predict_returns_a_fresh_array(self, two_blob_2d, map_200):
        model = AnalyticEpsilonModel(two_blob_2d, map_200)
        x = np.array([[0.1, 0.2], [-1.0, 0.5], [2.0, -0.3]])
        first = model.predict(x, 12.3)
        want = first.copy()
        first[...] = np.nan
        second = model.predict(x, 12.3)
        assert np.array_equal(second, want)
        assert not np.shares_memory(second, x)

    @pytest.mark.parametrize("t", [float("nan"), np.float64("nan")])
    def test_nan_step_is_rejected(self, two_blob_2d, map_200, t):
        model = AnalyticEpsilonModel(two_blob_2d, map_200)
        with pytest.raises(ValueError, match="continuous step outside"):
            model.predict(np.zeros((4, 2)), t)

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


def table_bytes(model):
    """Bytes of the arrays a model holds itself, the mixture's excluded."""
    total = 0
    for value in vars(model).values():
        for a in (value if isinstance(value, tuple) else (value,)):
            if isinstance(a, np.ndarray):
                total += a.nbytes
    return total


def outcome(predict, x, t):
    """predict(x, t)'s bytes, or the ValueError it raised."""
    try:
        return predict(x, t).tobytes()
    except ValueError as err:
        return ValueError, str(err)


class TestBoundModel:
    """`at_steps` tabulates a chain's per-step constants; the bound model's
    predictions keep the unbound model's bits at every step."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5),
           schedules, st.sampled_from(["step", "var", "full"]),
           st.sampled_from(["linear", "quadratic"]), st.integers(1, 40),
           st.floats(0.0, 1.0, exclude_max=True))
    def test_bound_predict_has_the_unbound_bits(self, seed, d, k, schedule,
                                                kind, variant, num_steps,
                                                fraction):
        rng = np.random.default_rng(seed)
        gm = random_mixture(rng, k, d)
        if kind == "full":
            fast, level_map = FastSchedule.full(schedule), \
                NoiseLevelMap(schedule)
        else:
            fast, level_map = random_fast_schedule(schedule, kind, variant,
                                                   num_steps)
        model = AnalyticEpsilonModel(gm, level_map)
        bound = model.at_steps(fast.cont_steps)
        x = rng.normal(scale=2.0, size=(5, d))
        for t in fast.cont_steps.tolist():
            got = bound.predict(x, t)
            assert got.tobytes() == model.predict(x, t).tobytes()
            assert got.flags.c_contiguous and got.shape == (5, d)
        # off the table: in the domain, NaN, and at or past its limit
        limit = schedule.domain_limit
        # (a step in [0, 1) may have alpha_bar above 1)
        for t in (fraction * schedule.num_steps, fraction, float("nan"),
                  limit, float(np.nextafter(limit, np.inf)), limit + 1.0,
                  -1.0):
            want = outcome(model.predict, x, t)
            assert outcome(bound.predict, x, t) == want
            if not 0.0 <= t < limit:
                assert want[0] is ValueError
            elif want[0] is ValueError:
                assert want[1].startswith("alpha_bar above 1")
                with pytest.raises(ValueError) as err:
                    model.at_steps([t])
                assert str(err.value) == want[1]
        for steps in ([float("nan")], [1.0, limit], [-0.5], [[1.0]]):
            with pytest.raises(ValueError):
                model.at_steps(steps)
        size = fast.num_steps * k * d * 8
        assert table_bytes(bound) <= 4 * size
        assert table_bytes(model) == 0

    def test_alpha_bar_above_one_is_rejected(self):
        # with delta_beta > 2 beta_start, alpha_bar(t) exceeds 1 just above
        # t = 0; there sqrt(1 - alpha_bar) has no value, and the unbound
        # and the bound model name it alike
        level_map = NoiseLevelMap(VarianceSchedule(1e-3, 0.03125, 2))
        assert np.exp(level_map.log_alpha_bar(0.5)) > 1.0
        gm = GaussianMixture([1.0], [[0.0]], [[[1.0]]])
        model = AnalyticEpsilonModel(gm, level_map)
        message = "alpha_bar above 1: no noise predictor at continuous " \
            "step 0.5"
        with pytest.raises(ValueError, match=message):
            model.predict(np.zeros((2, 1)), 0.5)
        with pytest.raises(ValueError, match=message):
            model.at_steps([1.0, 0.5])

    def test_bound_model_is_read_only(self, two_blob_2d, map_200):
        bound = AnalyticEpsilonModel(two_blob_2d, map_200).at_steps(
            [1.0, 50.5, 199.0])
        for a in (bound._scales, *bound._table):
            with pytest.raises(ValueError):
                a[0] = 0.0


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
        self.check_against_reference(seed, k, d, alpha_bar)

    @pytest.mark.parametrize("alpha_bar", [1.0, 0.5, 1e-3, 1e-8])
    @pytest.mark.parametrize("k,d", [(9, 8), (13, 12)])
    def test_matches_cholesky_reference_with_more_components_than_dims(
            self, k, d, alpha_bar):
        self.check_against_reference(100 * d + k, k, d, alpha_bar)

    @staticmethod
    def check_against_reference(seed, k, d, alpha_bar):
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
                  two_blob_2d._eigvals, two_blob_2d._log_weights):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestStackedOutputs:
    """The components are evaluated as stacked arrays; what callers get
    back keeps the layout of a row-by-row evaluation."""

    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("k,d", [(1, 1), (4, 2), (6, 5)])
    def test_score_and_epsilon_are_c_contiguous_float64(self, map_200, n, k,
                                                        d):
        rng = np.random.default_rng(10 * k + d)
        gm = random_mixture(rng, k, d)
        x = np.asfortranarray(rng.normal(size=(n, d)))
        for out in (gm.score(x, 0.4), analytic_epsilon(gm, map_200, x, 50.0)):
            assert out.shape == (n, d)
            assert out.dtype == np.float64
            assert out.flags.c_contiguous

    @pytest.mark.parametrize("name", sorted(builtin_presets()))
    def test_leading_rows_do_not_depend_on_batch_size(self, name):
        gm = builtin_presets()[name]
        x = np.random.default_rng(11).normal(scale=3.0, size=(5000, gm.dim))
        for alpha_bar in (1.0, 0.5, 1e-3):
            full = gm.score(x, alpha_bar)
            for k in (1, 2, 7, 255):
                assert np.array_equal(gm.score(x[:k], alpha_bar), full[:k])

    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_width_is_rejected(self, two_blob_2d, map_200, width):
        x = np.zeros((5, width))
        for query in (lambda: two_blob_2d.log_density(x, 0.5),
                      lambda: two_blob_2d.score(x, 0.5),
                      lambda: posterior_classifier(two_blob_2d, x),
                      lambda: analytic_epsilon(two_blob_2d, map_200, x, 9.0)):
            with pytest.raises(ValueError, match="shape"):
                query()


# A 3-d mixture whose covariances are full, not diagonal.
FULL_COV_3D = GaussianMixture(
    [0.2, 0.5, 0.3],
    [[1.0, -0.5, 0.25], [-1.25, 0.75, 0.0], [0.0, 1.5, -1.0]],
    [[[0.5, 0.2, -0.1], [0.2, 0.4, 0.05], [-0.1, 0.05, 0.3]],
     [[0.3, -0.12, 0.0], [-0.12, 0.6, 0.15], [0.0, 0.15, 0.45]],
     [[0.8, 0.3, 0.2], [0.3, 0.5, -0.1], [0.2, -0.1, 0.35]]])
GOLDEN_X = np.array([[0.3, -1.2, 0.8], [2.0, 0.5, -0.4], [-1.75, 0.25, 1.1]])
GOLDEN_ALPHA_BAR = 0.3
# float.hex of the oracle's outputs at GOLDEN_X (first `dim` columns), row
# by row: `predict` at three steps of a T = 1000 schedule, then
# `log_density` and `score` at GOLDEN_ALPHA_BAR.
GOLDEN_BITS = {
    'two_blob_2d': {
        0.5: [
            '-0x1.f9ec11016a34dp-6', '-0x1.0effa14c1dbf3p-5',
            '0x1.c3b24a5fc5a73p-7', '0x1.c3aa0cd431940p-7',
            '-0x1.c3ba882d17e48p-8', '0x1.c3aa0cd431940p-8',
        ],
        37.25: [
            '-0x1.155a5630160c7p-1', '-0x1.31249db9263e4p-1',
            '0x1.04cf70def91b0p-2', '0x1.fc925c3495127p-3',
            '-0x1.0b55b41ae7291p-3', '0x1.fc925c3495126p-4',
        ],
        999.0: [
            '0x1.332cb8ed3d0c7p-2', '-0x1.3334027a446c9p+0',
            '0x1.fff534962e836p+0', '0x1.0000acbb39052p-1',
            '-0x1.bff68def3ef16p+0', '0x1.0000acbb39053p-2',
        ],
        'log_density': [
            '-0x1.7a586b685b2bap+1', '-0x1.a8d62eedf7a1dp+1',
            '-0x1.6c97c717fd67ap+1',
        ],
        'score': [
            '-0x1.f2ac285a4c040p-5', '0x1.8c6318c6318c6p+0',
            '-0x1.8cf6942cd9463p+0', '-0x1.4a5294a5294a6p-1',
            '0x1.3fa3f0ed22482p+0', '-0x1.4a5294a5294a6p-2',
        ],
    },
    'four_class_2d': {
        0.5: [
            '-0x1.32621b132590bp-5', '0x1.2d19da64cea07p-6',
            '0x1.2500349004be5p-20', '-0x1.19551f2c1a5bep-5',
            '0x1.7853c7dd4fc7ap-8', '-0x1.2f662d6426e78p-5',
        ],
        37.25: [
            '-0x1.562cebcb9ef5bp-1', '0x1.4f6be7e09d283p-2',
            '0x1.d50733c276960p-8', '-0x1.3c317980c60cap-1',
            '0x1.8f1fb37699287p-4', '-0x1.51407a68d3709p-1',
        ],
        999.0: [
            '0x1.3326e481bd75fp-2', '-0x1.3326e4c0ac887p+0',
            '0x1.ffeb7e07f9626p+0', '0x1.ffeb7ce4aa738p-2',
            '-0x1.bfee0e0743f7bp+0', '0x1.ffeb7cd618bcdp-3',
        ],
        'log_density': [
            '-0x1.7fe907e038847p+1', '-0x1.c07aab3e623b3p+1',
            '-0x1.a63fe8e980187p+1',
        ],
        'score': [
            '0x1.53e4564851b60p-3', '0x1.d3b561b977609p-3',
            '-0x1.27e159bfc5e44p+0', '0x1.980371bd41182p-3',
            '0x1.b33637e331d96p-1', '0x1.2aba9c9b1b19ap-3',
        ],
    },
    'full_cov_3d': {
        0.5: [
            '-0x1.743d694f44b03p-10', '-0x1.adafee18d3b61p-7',
            '0x1.d52993591542ep-7', '0x1.d8111bc8c2e91p-9',
            '0x1.1adec5621cfafp-6', '-0x1.12cb82ee399f7p-6',
            '-0x1.1c2ed4e2c2101p-6', '-0x1.dfce4f474f310p-7',
            '0x1.640159fed041ap-6',
        ],
        37.25: [
            '-0x1.0acbecc4a6cfdp-5', '-0x1.e91c461f00e39p-3',
            '0x1.07fc625394a03p-2', '0x1.6151171fb1f6dp-4',
            '0x1.36f78a768a125p-2', '-0x1.2e9c37af95adfp-2',
            '-0x1.40e40dca40107p-2', '-0x1.0dd43ab525d9dp-2',
            '0x1.96a301a574e38p-2',
        ],
        999.0: [
            '0x1.35f93a1b1fa60p-2', '-0x1.3461c60231802p+0',
            '0x1.9a69c171b1057p-1', '0x1.0057588920dbbp+1',
            '0x1.fb3caf7ade7e3p-2', '-0x1.97f2cd928a5f6p-2',
            '-0x1.bf495c060eb7fp+0', '0x1.f67474204a7f1p-3',
            '0x1.1a02661f91025p+0',
        ],
        'log_density': [
            '-0x1.1c8e83cf3f9bep+2', '-0x1.46ffbed413c6dp+2',
            '-0x1.23d21757c1de5p+2',
        ],
        'score': [
            '-0x1.0a5c9e82b09d3p-2', '0x1.6b42c98664d76p+0',
            '-0x1.ea433a67c7211p-1', '-0x1.f768bec9908b4p+0',
            '-0x1.b9f85a5cd6f2bp-3', '0x1.7a8eca145ec4dp-2',
            '0x1.7218ca10e9891p+0', '0x1.17ba1931a5c1dp-2',
            '-0x1.60a2f3d3a4603p+0',
        ],
    },
}


class TestGoldenBits:
    """The oracle's outputs are pinned bit for bit: a rewrite that moves a
    single bit of `predict`, `log_density` or `score` must say so."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_BITS))
    def test_outputs_match_recorded_bits(self, name):
        gm = FULL_COV_3D if name == "full_cov_3d" else builtin_presets()[name]
        x = GOLDEN_X[:, :gm.dim]
        model = AnalyticEpsilonModel(
            gm, NoiseLevelMap(VarianceSchedule(1e-4, 0.02, 1000)))
        want = GOLDEN_BITS[name]
        got = {t: model.predict(x, t) for t in (0.5, 37.25, 999.0)}
        got["log_density"] = gm.log_density(x, GOLDEN_ALPHA_BAR)
        got["score"] = gm.score(x, GOLDEN_ALPHA_BAR)
        assert {key: [float(v).hex() for v in out.ravel()]
                for key, out in got.items()} == want
