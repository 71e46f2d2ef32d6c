"""A small trainable noise predictor and its training loop.

The regressor is a fully-connected tanh network taking (x, t / T) and
returning a d-vector; gradients are computed by hand-written reverse-mode
differentiation over the fixed architecture, and training minimizes the
denoising objective

    E || eps - eps_theta(sqrt(alpha_bar_t) x_0 + sqrt(1 - alpha_bar_t) eps,
                         t) ||^2

with x_0 drawn from the data mixture, eps standard normal, and t uniform.
Steps t are drawn continuously on (0, T], matching how the few-step
samplers query the model.

The output layer starts at zero, so the initial objective sits at
E||eps||^2 = d, a useful baseline for training tests.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import TrainingError, ValidationError
from .mixture import GaussianMixture
from .rng import chain_streams
from .schedule import NoiseLevelMap


@dataclass(frozen=True)
class TrainingParams:
    hidden: tuple = (96, 96)
    learning_rate: float = 3e-3
    momentum: float = 0.9
    batch_size: int = 256
    num_updates: int = 40000
    holdout_size: int = 4096
    seed: int = 0
    # learning rate is multiplied by decay once, after decay_after updates
    decay: float = 0.2
    decay_after_fraction: float = 0.75


class ToyRegressor:
    """Tanh MLP noise predictor over (x, t / time_scale)."""

    def __init__(self, dim: int, hidden: tuple, time_scale: float,
                 init_stream: np.random.Generator | None = None):
        self.dim = int(dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.time_scale = float(time_scale)
        widths = [self.dim + 1, *self.hidden, self.dim]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            if init_stream is None or fan_out == self.dim:
                w = np.zeros((fan_in, fan_out))
            else:
                w = init_stream.standard_normal((fan_in, fan_out)) \
                    / np.sqrt(fan_in)
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))
        self.loss_trace: list[float] = []
        self.holdout_loss: float | None = None

    # -- forward / backward --------------------------------------------------

    def _features(self, x: np.ndarray, t) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t_col = np.broadcast_to(np.asarray(t, dtype=float) / self.time_scale,
                                (x.shape[0],))
        return np.concatenate([x, t_col[:, None]], axis=1)

    def _forward(self, feats: np.ndarray):
        activations = [feats]
        h = feats
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                h = np.tanh(h)
            activations.append(h)
        return h, activations

    def predict(self, x: np.ndarray, t) -> np.ndarray:
        out, _ = self._forward(self._features(x, t))
        return out

    def _gradients(self, activations, grad_out):
        """Reverse pass; grad_out is dLoss/d(output)."""
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = activations[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) \
                    * (1.0 - activations[i] ** 2)
        return grads_w, grads_b

    # -- persistence ---------------------------------------------------------

    def save(self, prefix: str) -> None:
        """Write <prefix>.bin (flat little-endian float64 parameters) and
        <prefix>.json (architecture metadata)."""
        flat = np.concatenate(
            [a.ravel() for pair in zip(self.weights, self.biases) for a in pair])
        flat.astype("<f8").tofile(f"{prefix}.bin")
        meta = {"dim": self.dim, "hidden": list(self.hidden),
                "time_scale": self.time_scale, "activation": "tanh",
                "parameter_count": int(flat.size)}
        with open(f"{prefix}.json", "w") as fh:
            json.dump(meta, fh, indent=2)

    @classmethod
    def load(cls, prefix: str) -> "ToyRegressor":
        """Read a regressor written by `save`; raises `ValidationError` when
        the metadata or the parameter file does not describe one."""
        with open(f"{prefix}.json") as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise ValidationError(f"{prefix}.json must hold an object")
        dim = _meta_field(meta, "dim", _is_count, "a positive integer")
        hidden = _meta_field(
            meta, "hidden", lambda v: isinstance(v, list)
            and all(_is_count(h) for h in v), "a list of positive integers")
        time_scale = _meta_field(
            meta, "time_scale", lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool) and math.isfinite(v) and v > 0,
            "a positive number")
        model = cls(dim, tuple(hidden), time_scale)
        expected = sum(w.size + b.size
                       for w, b in zip(model.weights, model.biases))
        _meta_field(meta, "parameter_count",
                    lambda v: _is_count(v) and v == expected,
                    f"{expected}, the architecture's count")
        size = os.path.getsize(f"{prefix}.bin")
        if size != 8 * expected:
            raise ValidationError(
                f"{prefix}.bin holds {size} bytes, not the {8 * expected} "
                f"of {expected} float64 parameters")
        flat = np.fromfile(f"{prefix}.bin", dtype="<f8")
        offset = 0
        for i in range(len(model.weights)):
            for attr, idx in ((model.weights, i), (model.biases, i)):
                block = attr[idx]
                attr[idx] = flat[offset:offset + block.size].reshape(block.shape)
                offset += block.size
        return model


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 1


def _meta_field(meta: dict, key: str, valid, kind: str):
    """meta[key] if `valid` accepts it; `kind` says what it must be."""
    value = meta.get(key)
    if not valid(value):
        raise ValidationError(
            f"regressor metadata {key} must be {kind}, got {value!r}")
    return value


def _denoising_batch(gm, level_map, stream: np.random.Generator, n):
    x0 = gm.sample(stream, n)
    t = stream.uniform(0.0, float(level_map.schedule.num_steps), size=n)
    t = np.nextafter(t, np.inf)  # open at 0: shift onto (0, T]
    alpha_bar = np.exp(level_map.log_alpha_bar(t))
    eps = stream.standard_normal((n, gm.dim))
    xt = np.sqrt(alpha_bar)[:, None] * x0 \
        + np.sqrt(1.0 - alpha_bar)[:, None] * eps
    return xt, t, eps


def denoising_objective(model, gm: GaussianMixture, level_map: NoiseLevelMap,
                        stream: np.random.Generator, n: int = 4096) -> float:
    """Monte-Carlo estimate of the denoising objective for any model."""
    xt, t, eps = _denoising_batch(gm, level_map, stream, n)
    total = 0.0
    # the model contract takes one scalar step per call
    for i in range(n):
        pred = model.predict(xt[i:i + 1], float(t[i]))
        total += float(np.sum((pred - eps[i]) ** 2))
    return total / n


def train_toy_regressor(gm: GaussianMixture, level_map: NoiseLevelMap,
                        params: TrainingParams = TrainingParams()
                        ) -> ToyRegressor:
    """Fit a `ToyRegressor` to the denoising objective by minibatch
    gradient descent with momentum; deterministic for a fixed seed."""
    init_stream, data_stream, holdout_stream = chain_streams(params.seed, 3)
    model = ToyRegressor(gm.dim, params.hidden, level_map.schedule.num_steps,
                         init_stream)

    held_x, held_t, held_eps = _denoising_batch(
        gm, level_map, holdout_stream, params.holdout_size)
    held_feats = model._features(held_x, held_t)

    velocity_w = [np.zeros_like(w) for w in model.weights]
    velocity_b = [np.zeros_like(b) for b in model.biases]
    decay_at = int(params.decay_after_fraction * params.num_updates)
    lr = params.learning_rate

    for update in range(params.num_updates):
        if update == decay_at:
            lr *= params.decay
        xt, t, eps = _denoising_batch(gm, level_map, data_stream,
                                      params.batch_size)
        feats = model._features(xt, t)
        with np.errstate(over="ignore", invalid="ignore"):
            out, activations = model._forward(feats)
            residual = out - eps
            loss = float(np.mean(np.sum(residual**2, axis=1)))
        model.loss_trace.append(loss)
        if not np.isfinite(loss):
            raise TrainingError(f"loss diverged at update {update}",
                                loss_trace=model.loss_trace)
        grads_w, grads_b = model._gradients(
            activations, 2.0 * residual / params.batch_size)
        for i in range(len(model.weights)):
            velocity_w[i] = params.momentum * velocity_w[i] - lr * grads_w[i]
            velocity_b[i] = params.momentum * velocity_b[i] - lr * grads_b[i]
            model.weights[i] = model.weights[i] + velocity_w[i]
            model.biases[i] = model.biases[i] + velocity_b[i]

    held_out, _ = model._forward(held_feats)
    model.holdout_loss = float(np.mean(np.sum((held_out - held_eps)**2,
                                              axis=1)))
    return model
