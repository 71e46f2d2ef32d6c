import json

import numpy as np
import pytest

from fastdiff import (SampleBatch, ValidationError, load_samples,
                      samples_to_csv, save_samples, storage)


@pytest.fixture
def batch():
    samples = np.random.default_rng(0).normal(size=(20, 2))
    return SampleBatch(samples=samples,
                       provenance={"sampler": "ddpm", "seed": 0, "kappa": 0.5})


def test_binary_roundtrip_exact(batch, tmp_path):
    prefix = str(tmp_path / "run")
    save_samples(batch, prefix)
    again = load_samples(prefix)
    assert np.array_equal(again.samples, batch.samples)
    assert again.provenance == batch.provenance


def test_sidecar_contents(batch, tmp_path):
    prefix = str(tmp_path / "run")
    save_samples(batch, prefix)
    sidecar = json.loads((tmp_path / "run.json").read_text())
    assert sidecar["shape"] == [20, 2]
    assert sidecar["dtype"] == "<f8"
    assert sidecar["provenance"]["sampler"] == "ddpm"
    raw = (tmp_path / "run.bin").read_bytes()
    assert len(raw) == 20 * 2 * 8  # little-endian float64, row-major


def test_truncated_binary_is_rejected(batch, tmp_path):
    prefix = str(tmp_path / "run")
    save_samples(batch, prefix)
    raw = (tmp_path / "run.bin").read_bytes()
    (tmp_path / "run.bin").write_bytes(raw[:-8])
    with pytest.raises(ValidationError, match=r"run\.bin holds 312 bytes"):
        load_samples(prefix)


def test_csv_export(batch, tmp_path):
    path = tmp_path / "run.csv"
    samples_to_csv(batch, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0,x1"
    assert len(lines) == 21
    first = [float(v) for v in lines[1].split(",")]
    np.testing.assert_allclose(first, batch.samples[0], rtol=0)


def test_csv_bytes_equal_per_row_repr(tmp_path):
    # more than one block of rows; the awkward values sit in the first
    # row, at the block boundary and in the last row
    samples = np.random.default_rng(3).normal(
        size=(2 * storage._CSV_BLOCK_ROWS + 5, 3))
    block = storage._CSV_BLOCK_ROWS
    samples[0] = [-0.0, 5e-324, 1e300]
    samples[block - 1] = [0.1, 1 / 3, -1e-300]
    samples[block] = [1e300, 0.1, 1 / 3]
    samples[-1] = [-0.0, 5e-324, 0.1]
    path = tmp_path / "run.csv"
    samples_to_csv(SampleBatch(samples=samples, provenance={}), str(path))
    want = "x0,x1,x2\n" + "".join(
        ",".join(map(repr, row.tolist())) + "\n" for row in samples)
    assert path.read_bytes() == want.encode()
    assert "-0.0,5e-324,1e+300" in want


@pytest.mark.parametrize("dim", [1, 2, 16])
def test_csv_block_format_is_the_per_row_repr_join(tmp_path, dim):
    # the block is written as one %-format of %r fields; a batch that is
    # not a multiple of the block size ends with a short block
    block = storage._CSV_BLOCK_ROWS
    samples = np.random.default_rng(dim).normal(size=(block + 3, dim))
    awkward = np.array([-0.0, 5e-324, 1e16, 0.1])[:, None]
    samples[:4] = awkward
    samples[-4:] = awkward
    path = tmp_path / "run.csv"
    samples_to_csv(SampleBatch(samples=samples, provenance={}), str(path))
    want = ",".join(f"x{i}" for i in range(dim)) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in samples.tolist())
    assert path.read_bytes() == want.encode()
    assert ",".join(["1e+16"] * dim) + "\n" in want


def test_csv_dimension_limit(tmp_path):
    wide = SampleBatch(samples=np.zeros((3, 40)), provenance={})
    with pytest.raises(ValueError):
        samples_to_csv(wide, str(tmp_path / "wide.csv"))
