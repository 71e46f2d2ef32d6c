"""On-disk formats for sample batches.

A batch is stored as a flat binary dump of little-endian 64-bit floats in
row-major order (<prefix>.bin) next to a JSON sidecar (<prefix>.json) that
carries the array shape and the sampler provenance.  Small-dimensional
batches can additionally be written as CSV for plotting.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ValidationError
from .samplers import SampleBatch

_CSV_DIM_LIMIT = 16


def save_samples(batch: SampleBatch, prefix: str) -> None:
    samples = np.ascontiguousarray(batch.samples, dtype="<f8")
    samples.tofile(f"{prefix}.bin")
    sidecar = {"shape": list(samples.shape), "dtype": "<f8", "order": "C",
               "provenance": batch.provenance}
    with open(f"{prefix}.json", "w") as fh:
        json.dump(sidecar, fh, indent=2)


def load_samples(prefix: str) -> SampleBatch:
    with open(f"{prefix}.json") as fh:
        sidecar = json.load(fh)
    if not isinstance(sidecar, dict):
        raise ValidationError(f"{prefix}.json must hold an object")
    shape = sidecar.get("shape")
    for key, valid, kind in (
            ("shape", isinstance(shape, list) and len(shape) == 2
             and all(type(n) is int and n >= 1 for n in shape),
             "a list of two positive integers"),
            ("dtype", sidecar.get("dtype") == "<f8", "'<f8'"),
            ("provenance", isinstance(sidecar.get("provenance"), dict),
             "an object")):
        if not valid:
            raise ValidationError(f"{prefix}.json {key} must be {kind}, "
                                  f"got {sidecar.get(key)!r}")
    size = 8 * shape[0] * shape[1]
    if os.path.getsize(f"{prefix}.bin") != size:
        raise ValidationError(f"{prefix}.bin does not hold {size} bytes, the "
                              f"shape {shape} its sidecar gives")
    samples = np.fromfile(f"{prefix}.bin", dtype="<f8").reshape(shape)
    return SampleBatch(samples=samples, provenance=sidecar["provenance"])


def samples_to_csv(batch: SampleBatch, path: str) -> None:
    samples = np.atleast_2d(batch.samples)
    dim = samples.shape[1]
    if dim > _CSV_DIM_LIMIT:
        raise ValueError(
            f"CSV export is meant for small dimensions (<= {_CSV_DIM_LIMIT}), "
            f"got {dim}; use the binary format")
    header = ",".join(f"x{i}" for i in range(dim))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in samples:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
