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

from .errors import ValidationError, checked, int_at_least, typed
from .samplers import SampleBatch

CSV_DIM_LIMIT = 16
_CSV_BLOCK_ROWS = 128


def save_samples(batch: SampleBatch, prefix: str) -> None:
    samples = np.ascontiguousarray(batch.samples, dtype="<f8")
    samples.tofile(f"{prefix}.bin")
    sidecar = {"shape": list(samples.shape), "dtype": "<f8", "order": "C",
               "provenance": batch.provenance}
    with open(f"{prefix}.json", "w") as fh:
        json.dump(sidecar, fh, indent=2)


def load_samples(prefix: str) -> SampleBatch:
    name = f"{prefix}.json"
    with open(name) as fh:
        sidecar = typed(name, json.load(fh), dict)
    shape = typed(f"{name} shape", sidecar.get("shape"), list)
    if len(shape) != 2:
        raise ValidationError(f"{name} shape must hold two entries, "
                              f"got {len(shape)}")
    for n in shape:
        int_at_least(f"{name} shape entry", n, 1)
    checked(f"{name} dtype", sidecar.get("dtype"), ("<f8",))
    typed(f"{name} provenance", sidecar.get("provenance"), dict)
    size = 8 * shape[0] * shape[1]
    if os.path.getsize(f"{prefix}.bin") != size:
        raise ValidationError(f"{prefix}.bin does not hold {size} bytes, the "
                              f"shape {shape} its sidecar gives")
    samples = np.fromfile(f"{prefix}.bin", dtype="<f8").reshape(shape)
    if not np.all(np.isfinite(samples)):
        raise ValidationError(f"{prefix}.bin holds a non-finite sample")
    return SampleBatch(samples=samples, provenance=sidecar["provenance"])


def samples_to_csv(batch: SampleBatch, path: str) -> None:
    samples = np.atleast_2d(batch.samples)
    dim = samples.shape[1]
    if dim > CSV_DIM_LIMIT:
        raise ValueError(
            f"CSV export is meant for small dimensions (<= {CSV_DIM_LIMIT}), "
            f"got {dim}; use the binary format")
    header = ",".join(f"x{i}" for i in range(dim))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        # One tolist() and one write per block of rows: converting the
        # whole batch at once would hold every row as Python floats.
        for start in range(0, len(samples), _CSV_BLOCK_ROWS):
            block = samples[start:start + _CSV_BLOCK_ROWS].tolist()
            fh.write("".join([",".join(map(repr, row)) + "\n"
                              for row in block]))
