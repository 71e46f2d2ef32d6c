"""Command-line experiment runner.

Verbs:
    inspect   print a shortened schedule (noise levels, variances,
              continuous steps) plus self-check diagnostics
    sample    generate a batch of samples and write it to disk
    evaluate  score a stored batch against the configured data distribution
    sweep     run the full (kind x variant x S x sampler x seed) grid

All verbs are driven by a JSON config (--config); `--preset` swaps in a
built-in data distribution, `--seed` overrides the config seed(s) of
`sample` and `sweep`, and `--out` (or the FASTDIFF_OUT environment
variable) picks the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConstructionError, ValidationError
from .experiment import (ExperimentConfig, _RUN_DEFAULTS, _checked,
                         _sampler_kappa, _seed, _typed, csv_value,
                         format_schedule_dump, inspect_schedule, load_mixture,
                         load_run, run_sweep, score_samples,
                         CSV_SCHEMA_VERSION)
from .fast_schedule import KINDS
# The scorers stay importable for perfbench's call tracer.
from .metrics import frechet_distance, inception_score  # noqa: F401
from .mixture import posterior_classifier  # noqa: F401
from .samplers import run_sampler
# The three reverse samplers stay importable for perfbench's call tracer.
from .samplers import (ddpm_reverse, fast_ddim_reverse,  # noqa: F401
                       fast_ddpm_reverse)
from .storage import (CSV_DIM_LIMIT, ensure_dir, load_samples,
                      samples_to_csv, save_samples)

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
    flags = {"kind": args.kind, "variant": args.variant, "S": args.num_steps}
    run = {**_RUN_DEFAULTS, **_typed("run", raw.get("run", {}), dict),
           **{key: value for key, value in flags.items() if value is not None}}
    dump = inspect_schedule(raw.get("schedule"), run["kind"], run["variant"],
                            run.get("S"))
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
    if config.dim <= CSV_DIM_LIMIT:
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
    # The provenance fields go into report.csv unquoted, so each must be a
    # value that `fastdiff sample` can have written.
    provenance = batch.provenance
    fast = _typed("provenance fast_schedule",
                  provenance.get("fast_schedule"), dict)
    sampler, kappa = _sampler_kappa("provenance", provenance, "sampler")
    num_steps = fast.get("S")
    if _typed("provenance S", num_steps, int) < 1:
        raise ValidationError(f"provenance S must be >= 1, got {num_steps}")
    run = {"sampler": sampler,
           # a DDPM sidecar carries no kappa, and reports none
           "kappa": kappa if "kappa" in provenance else None,
           "seed": _seed("provenance seed", provenance.get("seed")),
           "schedule_kind": _checked("provenance fast_schedule kind",
                                     fast.get("kind"), KINDS),
           "S": num_steps}
    try:
        scores = score_samples(mixture, batch.samples)
    except FloatingPointError as err:
        raise ValidationError(
            f"{args.samples} cannot be scored: {err}") from err
    frechet, score = scores["frechet"], scores["inception_score"]
    out = _resolve_out(args)
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump({**scores, "num_generated": num, "config": run}, fh,
                  indent=2)
    with open(os.path.join(out, "report.csv"), "w", newline="") as fh:
        fh.write("schedule_kind,S,sampler,kappa,seed,frechet,"
                 "inception_score,accuracy\n")
        fh.write(",".join(csv_value(v) for v in (
            run["schedule_kind"], run["S"], run["sampler"], run["kappa"],
            run["seed"], frechet, score, scores["accuracy"])) + "\n")
    print(f"frechet={frechet:.6f}"
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
    common.add_argument("--preset", help="built-in data preset name")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="seed override")

    p_inspect = sub.add_parser("inspect", parents=[common],
                               help="dump a shortened schedule")
    p_inspect.add_argument("--kind")
    p_inspect.add_argument("--variant")
    p_inspect.add_argument("-S", "--num-steps", type=int, dest="num_steps")
    p_inspect.add_argument("--json", action="store_true",
                           help="machine-readable output")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_sample = sub.add_parser("sample", parents=[common, seeded],
                              help="generate and store a sample batch")
    p_sample.set_defaults(func=_cmd_sample)

    p_eval = sub.add_parser("evaluate", parents=[common],
                            help="score a stored sample batch")
    p_eval.add_argument("--samples", help="prefix of a stored batch")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sweep = sub.add_parser("sweep", parents=[common, seeded],
                             help="run the full experiment grid")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            _seed("--seed", args.seed)
        return args.func(args)
    except (ValidationError, ConstructionError, OSError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
