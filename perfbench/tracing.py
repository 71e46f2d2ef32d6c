"""Per-layer tracing for the benchmark's traced run.

Spans are recorded at the layer boundaries from outside the library: each
entry point is replaced, where it is *called*, by a wrapper that records a
span (name, start, end, parent) and updates the layer's counters.  Modules
import their collaborators by name (``from .rng import chain_streams``), so
patching ``fastdiff.rng.chain_streams`` alone would miss the call made from
``fastdiff.samplers``; every call site is therefore listed explicitly.

Spans stay in memory while the run lasts.  A layer's self time is its span's
duration minus the durations of its direct child spans, so the self times of
one traced call, plus the root span's own self time, add up to the call.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

from fastdiff import (cli, experiment, fast_schedule, regressor, samplers)
from fastdiff.mixture import AnalyticEpsilonModel, GaussianMixture
from fastdiff.schedule import NoiseLevelMap

ROOT = "call"


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _count_streams(counts, args, kwargs, result):
    counts["rng.streams"] += len(result)


def _count_predict(counts, args, kwargs, result):
    model, x, t = args[0], args[1], args[2] if len(args) > 2 else kwargs["t"]
    counts["mixture.predict.calls"] += 1
    counts["mixture.predict.rows"] += len(x)
    counts.distinct_t.add((id(model), float(t)))


def _count_invert(counts, args, kwargs, result):
    counts["schedule.invert.calls"] += 1
    counts["schedule.invert.iters"] += int(result[1])


def _count_build(counts, args, kwargs, result):
    counts["fast_schedule.build.calls"] += 1


def _count_reverse(counts, args, kwargs, result):
    provenance = result.provenance
    counts["samplers.model_calls"] += provenance["model_calls_per_chain"]
    counts["samplers.normals"] += (provenance["normals_per_chain"]
                                   * provenance["batch"])


def _count_save(counts, args, kwargs, result):
    prefix = args[1] if len(args) > 1 else kwargs["prefix"]
    counts["storage.bytes"] += _file_bytes(f"{prefix}.bin", f"{prefix}.json")


def _count_csv(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["storage.bytes"] += _file_bytes(path)


def _count_train(counts, args, kwargs, result):
    counts["regressor.updates"] += len(result.loss_trace)


def _count_sweep(counts, args, kwargs, result):
    counts["experiment.cells"] += len(result)


# (owner, attribute, self-time metric, counter) for every traced call site.
# Class attributes are patched on the class, so bound calls pick them up.
SPAN_SITES = (
    (samplers, "chain_streams", "rng.chain_streams.s", _count_streams),
    (regressor, "chain_streams", "rng.chain_streams.s", _count_streams),
    (AnalyticEpsilonModel, "predict", "mixture.predict.s", _count_predict),
    (GaussianMixture, "sample", "mixture.sample.s", None),
    (experiment, "posterior_classifier", "mixture.posterior.s", None),
    (cli, "posterior_classifier", "mixture.posterior.s", None),
    (NoiseLevelMap, "invert", "schedule.invert.s", _count_invert),
    (fast_schedule, "build_step_schedule", "fast_schedule.build.s",
     _count_build),
    (fast_schedule, "build_var_schedule", "fast_schedule.build.s",
     _count_build),
    (samplers, "ddpm_reverse", "samplers.reverse.self_s", _count_reverse),
    (samplers, "fast_ddpm_reverse", "samplers.reverse.self_s", _count_reverse),
    (samplers, "fast_ddim_reverse", "samplers.reverse.self_s", _count_reverse),
    (experiment, "fast_ddpm_reverse", "samplers.reverse.self_s",
     _count_reverse),
    (experiment, "fast_ddim_reverse", "samplers.reverse.self_s",
     _count_reverse),
    (cli, "ddpm_reverse", "samplers.reverse.self_s", _count_reverse),
    (cli, "fast_ddpm_reverse", "samplers.reverse.self_s", _count_reverse),
    (cli, "fast_ddim_reverse", "samplers.reverse.self_s", _count_reverse),
    (cli, "save_samples", "storage.s", _count_save),
    (cli, "samples_to_csv", "storage.s", _count_csv),
    (experiment, "frechet_distance", "metrics.s", None),
    (experiment, "inception_score", "metrics.s", None),
    (experiment, "accuracy", "metrics.s", None),
    (cli, "frechet_distance", "metrics.s", None),
    (cli, "inception_score", "metrics.s", None),
    (regressor, "train_toy_regressor", "regressor.train.self_s",
     _count_train),
    (experiment, "run_sweep", "experiment.run_sweep.self_s", _count_sweep),
    (cli, "main", "cli.main.self_s", None),
)

# Hot entry points that are only counted: a span each would cost more than
# the call (log_alpha_bar runs ~10 times per inversion).
COUNT_SITES = (
    (NoiseLevelMap, "log_alpha_bar", "schedule.log_alpha_bar.calls"),
)

TIME_METRICS = tuple(dict.fromkeys(m for _, _, m, _ in SPAN_SITES))
COUNT_METRICS = ("rng.streams", "mixture.predict.calls",
                 "mixture.predict.rows", "mixture.predict.distinct_t",
                 "schedule.invert.calls", "schedule.invert.iters",
                 "schedule.log_alpha_bar.calls", "fast_schedule.build.calls",
                 "samplers.model_calls", "samplers.normals", "storage.bytes",
                 "regressor.updates", "experiment.cells")


class _Counts(defaultdict):
    """Per-call counters; `distinct_t` holds (model, step) pairs seen by
    `predict`, which bound what a per-noise-level cache could save."""

    def __init__(self):
        super().__init__(int)
        self.distinct_t: set = set()


def _original(owner, attribute):
    # Class attributes are read from the class dict, so the plain function
    # (not a bound or inherited one) is what gets restored.
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


class Tracer:
    """Wraps the layer entry points while installed; records spans and
    counters per traced call."""

    def __init__(self):
        self.spans: list[list] = []  # [metric, start, end, parent index]
        self.calls: list[dict] = []  # per traced call: metric -> value
        self._stack: list[int] = []
        self._counts = _Counts()
        self._saved: list[tuple] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attribute, metric, counter in SPAN_SITES:
                original = _original(owner, attribute)
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, self._spanned(metric, original,
                                                        counter))
            for owner, attribute, metric in COUNT_SITES:
                original = _original(owner, attribute)
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, self._counted(metric, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _spanned(self, metric, fn, counter):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [metric, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(tracer._counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, metric, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- one traced call -----------------------------------------------------

    def run(self, fn, *args):
        """Call fn under a root span; returns (result, call seconds) and
        appends the call's per-layer metrics to `self.calls`."""
        first = len(self.spans)
        self._counts = _Counts()
        result = self._spanned(ROOT, fn, None)(*args)
        root = self.spans[first]
        self.calls.append(self._call_metrics(first, self._counts))
        return result, root[2] - root[1]

    def _call_metrics(self, first, counts) -> dict:
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for metric, start, end, parent in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        self_time = dict.fromkeys(TIME_METRICS + (ROOT,), 0.0)
        for (metric, start, end, _), children in zip(spans, child_time):
            self_time[metric] += (end - start) - children
        out = {m: float(counts[m]) for m in COUNT_METRICS}
        out["mixture.predict.distinct_t"] = float(len(counts.distinct_t))
        out.update(self_time)
        out["call_s"] = spans[0][2] - spans[0][1]
        return out

    def write_spans(self, path) -> None:
        """One JSON list per line: [metric, start, end, parent index]."""
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
