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

Only the output layer's weights start at zero (hidden weights are standard
normals over sqrt(fan_in), biases zero), so the initial objective sits at
E||eps||^2 = d, a useful baseline for training tests.

The forward and backward passes write into arrays their caller owns.
`predict` allocates its own per call, so nothing is stored on the model;
training allocates one batch-sized set per call, updates it in place, and
scores the holdout through the same arrays `batch_size` rows at a time, so
its memory is O(batch_size x width) whatever the holdout size.

Training draws the model's initial weights and the holdout in its own
process.  The update batches then come from an iterator.  Where
`forking.forkable_cpus` allows a fork onto a second CPU (one OS thread, at
least two CPUs: the rule sweeps follow), it is `_produced_batches`: a
producer forked by `forking.Forked` and pinned to the second CPU draws the
batches, the same batches in the same order, while this process, pinned
to the first, runs the updates, so the batch draw leaves the update's
critical path.  Elsewhere, or with no updates to make, it draws each batch
in this process as it is taken.  Either way the loss trace, the
parameters and the holdout loss are bit-identical.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import forking
from .errors import (NUMBER, TrainingError, ValidationError, checked,
                     int_at_least, typed)
from .mixture import GaussianMixture
from .rng import chain_streams
from .schedule import NoiseLevelMap
from .storage import read_floats, read_json, write_floats, write_json

_LEARNING_RATE = 3e-3
_MOMENTUM = 0.9
# The learning rate is multiplied by _DECAY once, after this fraction of
# the updates.
_DECAY = 0.2
_DECAY_AFTER_FRACTION = 0.75


@dataclass(frozen=True)
class TrainingParams:
    hidden: tuple = (96, 96)
    batch_size: int = 256
    num_updates: int = 40000
    holdout_size: int = 4096
    seed: int = 0

    def __post_init__(self):
        for width in self.hidden:
            int_at_least("hidden entry", width, 1)
        for name, low in (("batch_size", 1), ("num_updates", 0),
                          ("holdout_size", 1), ("seed", 0)):
            int_at_least(name, getattr(self, name), low)


def _layer_shapes(dim: int, hidden) -> tuple[tuple, int]:
    """(fan_in, fan_out) of each layer, t an input, and the parameter count."""
    widths = [dim + 1, *hidden, dim]
    shapes = tuple(zip(widths[:-1], widths[1:]))
    return shapes, sum((fan_in + 1) * fan_out for fan_in, fan_out in shapes)


class ToyRegressor:
    """Tanh MLP noise predictor over (x, t / time_scale); `weights` and
    `biases` are tuples of views into the one parameter vector `params`."""

    def __init__(self, dim: int, hidden: tuple, time_scale: float,
                 init_stream: np.random.Generator | None = None):
        self.dim = int(dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.time_scale = float(time_scale)
        self._shapes, count = _layer_shapes(self.dim, self.hidden)
        # the width of the features, then of each layer's output
        self._widths = (self.dim + 1, *self.hidden, self.dim)
        self.params = np.zeros(count)
        self.weights, self.biases = self._layers(self.params)
        if init_stream is not None:
            for w in self.weights[:-1]:
                w[...] = init_stream.standard_normal(w.shape) \
                    / np.sqrt(w.shape[0])
        self.loss_trace: list[float] = []
        self.holdout_loss: float | None = None

    def _layers(self, flat: np.ndarray):
        """(weights, biases) as tuples of views into `flat`, laid out as the
        .bin file: w_1, b_1, ..., w_L, b_L, each w_i fan_in x fan_out."""
        weights, biases = [], []
        offset = 0
        for fan_in, fan_out in self._shapes:
            end = offset + fan_in * fan_out
            weights.append(flat[offset:end].reshape(fan_in, fan_out))
            biases.append(flat[end:end + fan_out])
            offset = end + fan_out
        return tuple(weights), tuple(biases)

    # -- forward / backward --------------------------------------------------

    def _features(self, x: np.ndarray, t, out: np.ndarray) -> None:
        """Write the network input (x, t / time_scale) into out's rows."""
        out[:, :-1] = x
        np.divide(t, self.time_scale, out=out[:, -1])

    def _forward(self, activations) -> np.ndarray:
        """Forward pass over the features in activations[0]: writes each
        layer's output into the next array and returns the last."""
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = activations[i + 1]
            np.matmul(activations[i], w, out=h)
            h += b
            if i < last:
                np.tanh(h, out=h)
        return h

    def predict(self, x: np.ndarray, t) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"x must be (n, {self.dim}), got {x.shape}")
        activations = _arrays(x.shape[0], self._widths)
        self._features(x, t, activations[0])
        return self._forward(activations)

    def _gradients(self, activations, deltas, slopes, out) -> None:
        """Reverse pass over a `_forward`'s activations; deltas[-1] holds
        dLoss/d(output).  Writes each earlier layer's delta into `deltas`,
        each hidden layer's tanh slope 1 - a^2 into `slopes`, and the
        gradient into `out`, the (weights, biases) `_layers` views of an
        array laid out as `params`."""
        grads_w, grads_b = out
        for i in range(len(self.weights) - 1, -1, -1):
            delta = deltas[i]
            np.matmul(activations[i].T, delta, out=grads_w[i])
            np.sum(delta, axis=0, out=grads_b[i])
            if i > 0:
                slope = slopes[i - 1]
                np.square(activations[i], out=slope)
                np.subtract(1.0, slope, out=slope)
                np.matmul(delta, self.weights[i].T, out=deltas[i - 1])
                deltas[i - 1] *= slope

    # -- persistence ---------------------------------------------------------

    def save(self, prefix: str) -> None:
        """Write <prefix>.bin (`params` as little-endian float64) and
        <prefix>.json (architecture metadata)."""
        write_floats(prefix, self.params)
        write_json(f"{prefix}.json", {
            "dim": self.dim, "hidden": list(self.hidden),
            "time_scale": self.time_scale, "activation": "tanh",
            "parameter_count": self.params.size})

    @classmethod
    def load(cls, prefix: str) -> "ToyRegressor":
        """Read a regressor written by `save`; raises `ValidationError`,
        before allocating, when its metadata or .bin do not describe one."""
        name = f"{prefix}.json"
        meta = read_json(name)
        dim = int_at_least(f"{name} dim", meta.get("dim"), 1)
        hidden = [int_at_least(f"{name} hidden entry", h, 1)
                  for h in typed(f"{name} hidden", meta.get("hidden"), list)]
        time_scale = typed(f"{name} time_scale", meta.get("time_scale"),
                           NUMBER)
        if not 0.0 < time_scale < math.inf:
            raise ValidationError(f"{name} time_scale must be positive and "
                                  f"finite, got {time_scale!r}")
        _, count = _layer_shapes(dim, hidden)
        checked(f"{name} parameter_count", typed(
            f"{name} parameter_count", meta.get("parameter_count"), int),
            (count,))
        checked(f"{name} activation", meta.get("activation"), ("tanh",))
        values = read_floats(prefix, count)
        model = cls(dim, hidden, time_scale)
        model.params[...] = values
        return model


def _arrays(rows: int, widths) -> list[np.ndarray]:
    """One uninitialised (rows, width) array for each width."""
    return [np.empty((rows, w)) for w in widths]


def _denoising_batch(gm, level_map, stream: np.random.Generator, n):
    x0 = gm.sample(stream, n)
    t = stream.uniform(0.0, float(level_map.schedule.num_steps), size=n)
    t = np.nextafter(t, np.inf)  # open at 0: shift onto (0, T]
    # The Gamma extension exceeds 1 just above t = 0 when
    # delta_beta > 2 beta_start; there the data is taken noise-free.
    alpha_bar = np.minimum(np.exp(level_map.log_alpha_bar(t)), 1.0)
    eps = stream.standard_normal((n, gm.dim))
    xt = np.sqrt(alpha_bar)[:, None] * x0 \
        + np.sqrt(1.0 - alpha_bar)[:, None] * eps
    return xt, t, eps


def _produced_batches(gm, level_map, stream, rows, count):
    """The first `count` update batches of `stream`, as (x, t, eps) views
    into a shared ring, drawn ahead by a forked producer
    (`forking.Forked`) on a CPU of its own while this process runs on
    another.

    The producer draws batch i into slot i % 2 of the ring, each slot
    holding x, t and eps contiguously, and sends a byte up its pipe once it
    is in.  It draws batch i + 2 only after a byte has come back down for
    batch i: that byte goes when batch i + 1 is taken, the trainer being
    done with batch i.  Raises `RuntimeError` if the producer ended before
    drawing the batch to be taken."""
    size = rows * gm.dim
    ring = forking.shared_floats(2 * (2 * size + rows)).reshape(2, -1)
    slots = [(slot[:size].reshape(rows, gm.dim), slot[size:size + rows],
              slot[size + rows:].reshape(rows, gm.dim)) for slot in ring]

    def produce(trainer):
        for batch in range(count):
            if batch >= len(slots) and not trainer.read(1):
                return  # the trainer has gone
            for into, drawn in zip(slots[batch % len(slots)],
                                   _denoising_batch(gm, level_map, stream,
                                                    rows)):
                into[...] = drawn
            trainer.write(b"\0")

    with forking.Forked([produce]) as (producer,):
        for batch in range(count):
            if 0 < batch < count - 1:
                # a producer that has ended is reported below, at the
                # first batch it did not draw
                with contextlib.suppress(BrokenPipeError):
                    producer.write(b"\0")
            if not producer.read(1):
                raise RuntimeError(
                    f"training batch producer (pid {producer.pid}) "
                    f"{forking.ended(producer.reap())} after {batch} of "
                    f"{count} batches")
            yield slots[batch % len(slots)]


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
    gradient descent with momentum; deterministic for a fixed seed, and
    bit-identical whether or not a forked producer draws the batches."""
    init_stream, data_stream, holdout_stream = chain_streams(params.seed, 3)
    model = ToyRegressor(gm.dim, params.hidden, level_map.schedule.num_steps,
                         init_stream)

    held_x, held_t, held_eps = _denoising_batch(
        gm, level_map, holdout_stream, params.holdout_size)

    # The update's arrays, allocated once and written in place: the
    # activations, the deltas (the last holds the residual, then its
    # gradient), the tanh slopes, the gradient with its layer views, and
    # the velocity.
    rows, widths = params.batch_size, model._widths
    activations = _arrays(rows, widths)
    deltas = _arrays(rows, widths[1:])
    slopes = _arrays(rows, widths[1:-1])
    residual = deltas[-1]
    grads = np.empty_like(model.params)
    grad_layers = model._layers(grads)
    velocity = np.zeros_like(model.params)
    decay_at = int(_DECAY_AFTER_FRACTION * params.num_updates)
    lr = _LEARNING_RATE

    # The batches come from a forked producer where this process may fork
    # onto a second CPU and there is a batch to draw, from this process
    # otherwise.  Closing them stops a producer on every exit.
    if params.num_updates and forking.forkable_cpus() >= 2:
        batches = _produced_batches(gm, level_map, data_stream, rows,
                                    params.num_updates)
    else:
        batches = (_denoising_batch(gm, level_map, data_stream, rows)
                   for _ in range(params.num_updates))
    with contextlib.closing(batches):
        for update, (xt, t, eps) in enumerate(batches):
            if update == decay_at:
                lr *= _DECAY
            model._features(xt, t, activations[0])
            with np.errstate(over="ignore", invalid="ignore"):
                out = model._forward(activations)
                np.subtract(out, eps, out=residual)
                loss = float(np.mean(np.sum(residual**2, axis=1)))
            model.loss_trace.append(loss)
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at update {update}",
                                    loss_trace=model.loss_trace)
            residual *= 2.0
            residual /= rows  # dLoss/d(output)
            model._gradients(activations, deltas, slopes, grad_layers)
            velocity *= _MOMENTUM
            grads *= lr
            velocity -= grads
            model.params += velocity

    # each holdout row's squared error, scored a batch of rows at a time
    errors = np.empty(params.holdout_size)
    for start in range(0, params.holdout_size, rows):
        held = slice(start, min(start + rows, params.holdout_size))
        n = held.stop - start
        chunk = [a[:n] for a in activations]
        model._features(held_x[held], held_t[held], chunk[0])
        out = model._forward(chunk)
        diff = residual[:n]
        np.subtract(out, held_eps[held], out=diff)
        np.sum(diff**2, axis=1, out=errors[held])
    model.holdout_loss = float(np.mean(errors))
    return model
