import warnings

import numpy as np
import pytest

from fastdiff import (InsufficientDataError, NumericError, accuracy,
                      frechet_distance, frechet_gaussian, inception_score,
                      sample_moments)


class TestFrechet:
    def test_identical_sample_sets(self):
        x = np.random.default_rng(0).normal(size=(500, 3))
        assert frechet_distance(x, x) <= 1e-10

    def test_mean_shift_closed_form(self):
        m = np.array([0.3, -1.2, 2.0, 0.5])
        d = m.size
        value = frechet_gaussian(np.zeros(d), np.eye(d), m, np.eye(d))
        assert value == pytest.approx(float(m @ m), abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_isotropic_scale_closed_form(self, d):
        value = frechet_gaussian(np.zeros(d), np.eye(d),
                                 np.zeros(d), 4.0 * np.eye(d))
        assert value == pytest.approx(float(d), abs=1e-12)

    def test_commuting_covariances_closed_form(self):
        # diagonal covariances commute: value = |m|^2 + sum (sqrt a - sqrt b)^2
        rng = np.random.default_rng(5)
        a = rng.uniform(0.5, 2.0, size=4)
        b = rng.uniform(0.5, 2.0, size=4)
        m = rng.normal(size=4)
        want = float(m @ m + np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
        got = frechet_gaussian(np.zeros(4), np.diag(a), m, np.diag(b))
        assert got == pytest.approx(want, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.normal(size=(400, 3))
            y = rng.normal(size=(400, 3)) * 1.5 + 0.3
            assert frechet_distance(x, y) == pytest.approx(
                frechet_distance(y, x), abs=1e-9)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            frechet_distance(np.zeros((3, 3)), np.ones((10, 3)))

    def test_unbiased_covariance(self):
        x = np.array([[0.0], [2.0]])
        _, cov = sample_moments(x)
        assert cov[0, 0] == pytest.approx(2.0)  # (n-1) denominator

    def test_negative_eigenvalue_beyond_clamp(self):
        bad = np.diag([1.0, -1e-6])
        with pytest.raises(NumericError):
            frechet_gaussian(np.zeros(2), bad, np.zeros(2), np.eye(2))

    def test_tiny_negative_eigenvalue_clamped(self):
        nearly = np.diag([1.0, -5e-11])
        value = frechet_gaussian(np.zeros(2), nearly, np.zeros(2), np.eye(2))
        assert np.isfinite(value)


class TestInceptionScore:
    def test_uniform_rows(self):
        probs = np.full((40, 5), 0.2)
        assert inception_score(probs) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_one_hot_rows(self):
        k = 7
        probs = np.tile(np.eye(k), (3, 1))
        assert inception_score(probs) == pytest.approx(float(k), rel=1e-12)

    def test_identical_rows(self):
        row = np.array([0.7, 0.2, 0.1])
        probs = np.tile(row, (25, 1))
        assert inception_score(probs) == pytest.approx(1.0, abs=1e-12)

    def test_bounds_on_random_rows(self):
        rng = np.random.default_rng(11)
        for k in (2, 4, 9):
            probs = rng.dirichlet(np.ones(k) * 0.4, size=200)
            score = inception_score(probs)
            assert 1.0 - 1e-12 <= score <= k + 1e-12

    # Scores pinned bit for bit: rows with zeros, and a class no row has.
    _index = np.arange(60.0)
    _mixed = np.stack([_index % 7 + 1.0, _index * 3 % 5, _index % 2 * 2.5,
                       np.full(60, 0.125)], axis=1)
    PINNED = [
        ([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.25, 0.25, 0.5],
          [0.0, 0.0, 1.0]], "0x1.d736f8455349ap+0"),
        ([[0.7, 0.0, 0.3], [0.1, 0.0, 0.9], [0.5, 0.0, 0.5]],
         "0x1.26d2e15c033d4p+0"),
        ([[0.0, 1.0], [0.0, 1.0]], "0x1.0000000000000p+0"),
        (_mixed / _mixed.sum(axis=1, keepdims=True), "0x1.4b9b7c0d6de4ap+0"),
    ]

    @pytest.mark.parametrize("probs, score", PINNED,
                             ids=["zeros", "empty_class", "one_class", "mixed"])
    def test_pinned_scores(self, probs, score):
        # no floating-point error either: the zeros take no logarithm
        with np.errstate(all="raise"):
            assert inception_score(np.array(probs)) == float.fromhex(score)

    def test_rejects_invalid_rows(self):
        with pytest.raises(ValueError):
            inception_score(np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError):
            inception_score(np.array([[1.2, -0.2]]))


class TestAccuracy:
    def test_all_agree(self):
        probs = np.eye(4)
        assert accuracy(probs, np.arange(4)) == 1.0

    def test_all_disagree(self):
        probs = np.eye(4)
        assert accuracy(probs, (np.arange(4) + 1) % 4) == 0.0

    def test_half_and_half(self):
        probs = np.tile(np.eye(2), (4, 1))  # argmax 0,1,0,1,...
        labels = np.array([0, 1, 0, 1, 1, 0, 1, 0])
        assert accuracy(probs, labels) == 0.5

    def test_tie_breaks_to_lowest_index(self):
        probs = np.array([[0.5, 0.5]])
        assert accuracy(probs, np.array([0])) == 1.0
        assert accuracy(probs, np.array([1])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.eye(3), np.array([0, 1]))


@pytest.mark.parametrize("score", [
    inception_score, lambda probs: accuracy(probs, np.zeros(0, dtype=int))],
    ids=["inception_score", "accuracy"])
def test_an_empty_batch_raises(score):
    # as `sample_moments` does for too few rows, and before numpy warns of
    # a mean of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientDataError, match="got 0"):
            score(np.zeros((0, 3)))
