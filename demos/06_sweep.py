"""The experiment grid, as the CLI runs it.

A sweep crosses schedule kinds, lengths, samplers, and seeds, scoring each
cell; identical configs always give byte-identical result files.  Every
cell of a seed draws the same noise, so a row does not move when other
cells are added to the grid.  The same grid is available from the command
line:

    fastdiff sweep --config sweep.json --out results/

This demo drives the library API directly and prints the row table.
"""

import tempfile
from pathlib import Path

from fastdiff.experiment import ExperimentConfig, run_sweep

CONFIG = {
    "schedule": {"beta_1": 1e-4, "beta_T": 0.02, "T": 200},
    "data": {"preset": "two_blob_2d"},
    "model": {"kind": "analytic"},
    "sweep": {
        "kinds": ["step", "var"],
        "variants": ["linear"],
        "num_steps": [5, 10, 50],
        "samplers": [{"name": "ddpm"}, {"name": "ddim", "kappa": 0.0}],
    },
    "samples_per_cell": 2000,
    "seeds": [0],
}

out_dir = Path(tempfile.mkdtemp(prefix="fastdiff_sweep_"))
config = ExperimentConfig(CONFIG)
rows = run_sweep(config, str(out_dir))

print(f"{len(rows)} cells, config hash {config.config_hash()}\n")
print(f"{'kind':>5} {'S':>4} {'sampler':>8} {'kappa':>6} "
      f"{'frechet':>10} {'IS':>7} {'calls':>6}")
for row in rows:
    print(f"{row['kind']:>5} {row['S']:>4} {row['sampler']:>8} "
          f"{row['kappa']:>6.2f} {row['frechet']:>10.5f} "
          f"{row['inception_score']:>7.3f} "
          f"{row['model_calls_per_chain']:>6}")

print(f"\nwrote results.csv / results.json / timings.json to {out_dir}")
head = (out_dir / "results.csv").read_text().splitlines()[0]
print(f"csv header comment: {head}")
