"""The evaluation metrics and their closed-form sanity checks.

Frechet distance compares Gaussian moment fits of two sample sets (here on
raw coordinates; at full scale one would use a feature extractor first).
The inception-style score and accuracy consume per-sample class
probabilities, which the Bayes posterior of a labelled mixture provides
exactly.
"""

import numpy as np
from numpy.random import Generator, Philox

from fastdiff import (GaussianMixture, accuracy, frechet_distance,
                      frechet_gaussian, inception_score, posterior_classifier)

print("1. Frechet distance has exact values on simple Gaussian pairs.")
shift = np.array([1.0, 2.0])
print(f"   N(0,I) vs N(m,I):  {frechet_gaussian(np.zeros(2), np.eye(2), shift, np.eye(2)):.6f}"
      f"  (|m|^2 = {float(shift @ shift)})")
print(f"   N(0,I) vs N(0,4I): {frechet_gaussian(np.zeros(3), np.eye(3), np.zeros(3), 4 * np.eye(3)):.6f}"
      f"  (= d = 3)")

print("\n2. On sample sets the estimate approaches the parameter value.")
stream = Generator(Philox(0))
for n in (100, 1000, 10000):
    a = stream.standard_normal((n, 2))
    b = stream.standard_normal((n, 2)) + shift
    print(f"   n={n:>6}: frechet = {frechet_distance(a, b):.4f}")

print("\n3. Inception-style score: 1 for collapsed, K for confident+diverse.")
uniform = np.full((60, 4), 0.25)
one_hot = np.tile(np.eye(4), (15, 1))
print(f"   uniform rows:          {inception_score(uniform):.4f}")
print(f"   balanced one-hot rows: {inception_score(one_hot):.4f}")

print("\n4. A labelled mixture doubles as an exact classifier.")
eye2 = np.eye(2)
mixture = GaussianMixture([0.5, 0.5], [[-1.5, 0.0], [1.5, 0.0]],
                          [0.25 * eye2, 0.25 * eye2], labels=[0, 1])
x = mixture.sample(Generator(Philox(1)), 2000)
labels = (x[:, 0] > 0).astype(int)  # blobs are separated along x
probs = posterior_classifier(mixture, x)
print(f"   inception score of real samples: {inception_score(probs):.4f}")
print(f"   classifier accuracy vs geometric labels: "
      f"{accuracy(probs, labels):.4f}")
