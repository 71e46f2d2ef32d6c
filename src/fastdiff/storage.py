"""The on-disk formats: this module owns every read and write of a file.

A batch is stored as a flat binary dump of little-endian 64-bit floats in
row-major order (<prefix>.bin) next to a JSON sidecar (<prefix>.json) that
carries the array shape and the sampler provenance.  Small-dimensional
batches can additionally be written as CSV for plotting.  A report is a
<name>.csv / <name>.json pair stamped with the schema and config hash.

Every input file is read by `read_json` (a JSON object) or `read_floats`
(a float64 dump), whose `ValidationError`s name the file, and written by
`write_json`, `write_floats` or `write_report`.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import ValidationError, checked, int_at_least, typed
from .samplers import SampleBatch

CSV_SCHEMA_VERSION = 3
CSV_DIM_LIMIT = 16
_CSV_BLOCK_ROWS = 128


def write_json(path, payload) -> None:
    """`payload` as JSON at `path`, indented by 2."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def write_floats(prefix: str, values) -> None:
    """`values` as little-endian float64 in row-major order at
    `<prefix>.bin`, the file `read_floats` reads."""
    np.asarray(values, dtype="<f8").tofile(f"{prefix}.bin")


def write_report(prefix: str, tag: str, config_hash: str, columns, rows,
                 payload: dict) -> None:
    """`<prefix>.csv`: a `# <tag> schema=... config=...` line, then the
    `columns` of `rows` (None as an empty field, a field quoted when it
    needs it); `<prefix>.json`: the schema and config hash, then
    `payload`."""
    with open(f"{prefix}.csv", "w", newline="") as fh:
        fh.write(f"# {tag} schema={CSV_SCHEMA_VERSION} config={config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)
    write_json(f"{prefix}.json", {"schema": CSV_SCHEMA_VERSION,
                                  "config_hash": config_hash, **payload})


def save_samples(batch: SampleBatch, prefix: str) -> None:
    write_floats(prefix, batch.samples)
    write_json(f"{prefix}.json", {
        "shape": list(batch.samples.shape), "dtype": "<f8", "order": "C",
        "provenance": batch.provenance})


def read_json(path) -> dict:
    """The JSON object in the file at `path`; a file that does not decode
    (malformed JSON or UTF-8, an over-long integer, deep nesting) or holds
    no object raises `ValidationError` starting with `path`."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as err:
            raise ValidationError(f"{path}: {err}") from err
    return typed(f"{path}:", raw, dict)


def read_floats(prefix: str, count: int) -> np.ndarray:
    """The `count` finite little-endian float64 values of `<prefix>.bin`."""
    name = f"{prefix}.bin"
    size = os.path.getsize(name)
    if size != 8 * count:
        raise ValidationError(f"{name} holds {size} bytes, not the "
                              f"{8 * count} of {count} float64 values")
    values = np.fromfile(name, dtype="<f8")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} holds a non-finite value")
    return values


def load_samples(prefix: str) -> SampleBatch:
    name = f"{prefix}.json"
    sidecar = read_json(name)
    shape = typed(f"{name} shape", sidecar.get("shape"), list)
    if len(shape) != 2:
        raise ValidationError(f"{name} shape must hold two entries, "
                              f"got {len(shape)}")
    for n in shape:
        int_at_least(f"{name} shape entry", n, 1)
    checked(f"{name} dtype", sidecar.get("dtype"), ("<f8",))
    typed(f"{name} provenance", sidecar.get("provenance"), dict)
    samples = read_floats(prefix, shape[0] * shape[1]).reshape(shape)
    return SampleBatch(samples=samples, provenance=sidecar["provenance"])


def samples_to_csv(batch: SampleBatch, path: str) -> None:
    samples = np.atleast_2d(batch.samples)
    dim = samples.shape[1]
    if dim > CSV_DIM_LIMIT:
        raise ValueError(
            f"CSV export is meant for small dimensions (<= {CSV_DIM_LIMIT}), "
            f"got {dim}; use the binary format")
    header = ",".join(f"x{i}" for i in range(dim))
    row_format = ",".join(["%r"] * dim) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        # One tolist(), one %-format and one write per block of rows:
        # converting the whole batch at once would hold every row as
        # Python floats.  %r of a float is its repr.
        for start in range(0, len(samples), _CSV_BLOCK_ROWS):
            block = samples[start:start + _CSV_BLOCK_ROWS]
            fh.write(row_format * len(block) % tuple(block.ravel().tolist()))
