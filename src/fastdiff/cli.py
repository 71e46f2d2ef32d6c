"""Command-line experiment runner.

Verbs:
    inspect   print a shortened schedule (noise levels, variances,
              continuous steps) plus self-check diagnostics
    sample    generate a batch of samples and write it to disk
    evaluate  score a stored batch against the configured data distribution
    sweep     run the full (kind x variant x S x sampler x seed) grid

All verbs are driven by a JSON config (--config); `--preset` swaps in a
built-in data distribution, `--seed` overrides the config seed(s), and
`--out` (or the FASTDIFF_OUT environment variable) picks the output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from numpy.random import Generator, Philox

from .errors import ConstructionError, ValidationError
from .experiment import (ExperimentConfig, _seed, _typed, csv_value,
                         format_schedule_dump, inspect_schedule, load_mixture,
                         load_run, run_sweep, CSV_SCHEMA_VERSION)
from .metrics import MetricReport, frechet_distance, inception_score
from .mixture import posterior_classifier
# The three reverse samplers stay importable for perfbench's call tracer.
from .samplers import (ddpm_reverse, fast_ddim_reverse,  # noqa: F401
                       fast_ddpm_reverse, run_sampler)
from .storage import ensure_dir, load_samples, samples_to_csv, save_samples

ENV_OUT = "FASTDIFF_OUT"


def _load_config(args) -> dict:
    """The --config JSON, with `data` replaced by --preset when given."""
    if args.config is None:
        raise ValidationError("--config is required for this verb")
    with open(args.config) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    if args.preset is not None:
        data = _typed("data", raw.setdefault("data", {}), dict)
        data["preset"] = args.preset
        data.pop("path", None)
    return raw


def _resolve_out(args) -> str:
    out = args.out or os.environ.get(ENV_OUT)
    if out is None:
        raise ValidationError(
            f"no output directory: pass --out or set {ENV_OUT}")
    return ensure_dir(out)


def _cmd_inspect(args):
    raw = _load_config(args)
    run = _typed("run", raw.get("run", {}), dict)
    kind = args.kind or run.get("kind")
    variant = args.variant or run.get("variant")
    num_steps = args.num_steps or run.get("S")
    dump = inspect_schedule(raw.get("schedule"), kind, variant, num_steps)
    if args.json:
        print(json.dumps(dump, indent=2))
    else:
        print(format_schedule_dump(dump))
    return 0


def _cmd_sample(args):
    raw = _load_config(args)
    run = raw.get("run")
    if args.seed is not None and isinstance(run, dict) and run:
        run["seed"] = args.seed
    fast, model, config, sampler = load_run(raw)
    batch = run_sampler(fast, model, config, sampler)
    out = _resolve_out(args)
    prefix = os.path.join(out, "samples")
    save_samples(batch, prefix)
    if config.dim <= 16:
        samples_to_csv(batch, prefix + ".csv")
    print(f"wrote {batch.samples.shape[0]} samples to {prefix}.bin")
    return 0


def _cmd_evaluate(args):
    raw = _load_config(args)
    if args.samples is None:
        raise ValidationError("evaluate needs --samples <prefix>")
    batch = load_samples(args.samples)
    mixture = load_mixture(raw)
    num, dim = batch.samples.shape
    if dim != mixture.dim:
        raise ValidationError(
            f"{args.samples} holds {dim}-d samples, the data distribution "
            f"is {mixture.dim}-d")
    if num < dim + 1:
        raise ValidationError(
            f"{args.samples} holds {num} samples, scoring {dim}-d samples "
            f"needs at least {dim + 1}")
    provenance = batch.provenance
    fast = _typed("provenance fast_schedule",
                  provenance.get("fast_schedule", {}), dict)
    seed = args.seed if args.seed is not None else 0
    reference = mixture.sample(Generator(Philox(seed)), num)
    score = None
    if mixture.labels is not None:
        probs = posterior_classifier(mixture, batch.samples)
        score = inception_score(probs)
    report = MetricReport(
        frechet=frechet_distance(reference, batch.samples),
        inception_score=score, accuracy=None,
        num_generated=num, num_reference=num,
        config={"sampler": provenance.get("sampler"),
                "kappa": provenance.get("kappa"),
                "seed": provenance.get("seed"),
                "schedule_kind": fast.get("kind", "full"),
                "S": fast.get("S", provenance.get("model_calls_per_chain"))})
    out = _resolve_out(args)
    report.to_json(os.path.join(out, "report.json"))
    cfg = report.config
    with open(os.path.join(out, "report.csv"), "w", newline="") as fh:
        fh.write("schedule_kind,S,sampler,kappa,seed,frechet,"
                 "inception_score,accuracy\n")
        fh.write(",".join(csv_value(v) for v in (
            cfg["schedule_kind"], cfg["S"], cfg["sampler"], cfg["kappa"],
            cfg["seed"], report.frechet, report.inception_score,
            report.accuracy)) + "\n")
    print(f"frechet={report.frechet:.6f}"
          + (f" inception_score={score:.4f}" if score is not None else ""))
    return 0


def _cmd_sweep(args):
    raw = _load_config(args)
    if args.seed is not None:
        raw["seeds"] = [args.seed]
    config = ExperimentConfig(raw)
    out = _resolve_out(args)
    rows = run_sweep(config, out)
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"{len(rows)} cells ({failed} failed) -> {out}/results.csv "
          f"[schema={CSV_SCHEMA_VERSION} config={config.config_hash()}]")
    return 0 if failed == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastdiff",
        description="few-step diffusion sampling experiments")
    sub = parser.add_subparsers(dest="verb", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config path")
    common.add_argument("--out", help=f"output directory (or ${ENV_OUT})")
    common.add_argument("--seed", type=int, help="seed override")
    common.add_argument("--preset", help="built-in data preset name")

    p_inspect = sub.add_parser("inspect", parents=[common],
                               help="dump a shortened schedule")
    p_inspect.add_argument("--kind", choices=("step", "var"))
    p_inspect.add_argument("--variant", choices=("linear", "quadratic"))
    p_inspect.add_argument("-S", "--num-steps", type=int, dest="num_steps")
    p_inspect.add_argument("--json", action="store_true",
                           help="machine-readable output")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_sample = sub.add_parser("sample", parents=[common],
                              help="generate and store a sample batch")
    p_sample.set_defaults(func=_cmd_sample)

    p_eval = sub.add_parser("evaluate", parents=[common],
                            help="score a stored sample batch")
    p_eval.add_argument("--samples", help="prefix of a stored batch")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run the full experiment grid")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            _seed("--seed", args.seed)
        return args.func(args)
    except (ValidationError, ConstructionError, OSError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
