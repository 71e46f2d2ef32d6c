"""Command-line experiment runner.

Verbs:
    inspect   print a shortened schedule (noise levels, variances,
              continuous steps) plus self-check diagnostics
    sample    generate a batch of samples and write it to disk
    evaluate  score a stored batch against the configured data distribution
    sweep     run the full (kind x variant x S x sampler x seed) grid

All verbs are driven by a JSON config (--config). For `sample`,
`evaluate` and `sweep`, `--preset` swaps in a built-in data distribution
and `--out` (or the FASTDIFF_OUT environment variable) picks the output
directory; `--seed` overrides the config seed(s) of `sample` and `sweep`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (ConstructionError, InsufficientDataError,
                     NumericError, ValidationError, checked, int_at_least,
                     typed)
from .experiment import (ExperimentConfig, format_schedule_dump, hash_config,
                         inspect_schedule, load_mixture, load_run, run_section,
                         run_sweep, sampler_kappa, score_samples)
from .fast_schedule import KINDS
# The scorers stay importable for perfbench's call tracer.
from .metrics import frechet_distance, inception_score  # noqa: F401
from .mixture import posterior_classifier  # noqa: F401
from .samplers import reported_kappa, run_sampler
# The three reverse samplers stay importable for perfbench's call tracer.
from .samplers import (ddpm_reverse, fast_ddim_reverse,  # noqa: F401
                       fast_ddpm_reverse)
from .storage import (CSV_DIM_LIMIT, CSV_SCHEMA_VERSION, load_samples,
                      read_json, samples_to_csv, save_samples, write_report)

ENV_OUT = "FASTDIFF_OUT"
REPORT_COLUMNS = ("schedule_kind", "S", "sampler", "kappa", "seed", "frechet",
                  "inception_score", "accuracy")


def _load_config(path, preset=None) -> dict:
    """The --config JSON, with `data` replaced by --preset when given."""
    if path is None:
        raise ValidationError("--config is required for this verb")
    raw = read_json(path)
    if preset is not None:
        data = typed("data", raw.setdefault("data", {}), dict)
        data["preset"] = preset
        data.pop("path", None)
    return raw


def _resolve_out(args) -> str:
    out = args.out or os.environ.get(ENV_OUT)
    if out is None:
        raise ValidationError(
            f"no output directory: pass --out or set {ENV_OUT}")
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_inspect(args):
    raw = _load_config(args.config)
    run = run_section(raw, kind=args.kind, variant=args.variant,
                      S=args.num_steps)
    dump = inspect_schedule(raw.get("schedule"), run["kind"], run["variant"],
                            run.get("S"))
    if args.json:
        print(json.dumps(dump, indent=2))
    else:
        print(format_schedule_dump(dump))
    return 0


def _cmd_sample(args):
    fast, model, config, sampler = load_run(
        _load_config(args.config, args.preset), args.seed)
    out = _resolve_out(args)
    try:
        batch = run_sampler(fast, model, config, sampler)
    except NumericError as err:
        raise ValidationError(f"sampling failed: {err}") from err
    prefix = os.path.join(out, "samples")
    save_samples(batch, prefix)
    if config.dim <= CSV_DIM_LIMIT:
        samples_to_csv(batch, prefix + ".csv")
    print(f"wrote {batch.samples.shape[0]} samples to {prefix}.bin")
    return 0


def _cmd_evaluate(args):
    raw = _load_config(args.config, args.preset)
    if args.samples is None:
        raise ValidationError("evaluate needs --samples <prefix>")
    batch = load_samples(args.samples)
    mixture = load_mixture(raw)
    num, dim = batch.samples.shape
    if dim != mixture.dim:
        raise ValidationError(
            f"{args.samples} holds {dim}-d samples, the data distribution "
            f"is {mixture.dim}-d")
    # The provenance fields are reported as they stand, so each must be a
    # value that `fastdiff sample` can have written.
    provenance = batch.provenance
    where = f"{args.samples}.json provenance"
    fast = typed(f"{where} fast_schedule", provenance.get("fast_schedule"),
                 dict)
    sampler, kappa = sampler_kappa(where, provenance, "sampler")
    kappa = reported_kappa(sampler, kappa)
    if ("kappa" in provenance) != (kappa is not None):
        raise ValidationError(f"{where}: a {sampler} run reports "
                              f"{'a' if kappa is not None else 'no'} kappa")
    run = {"sampler": sampler, "kappa": kappa,
           "seed": int_at_least(f"{where} seed", provenance.get("seed"), 0),
           "schedule_kind": checked(f"{where} fast_schedule kind",
                                    fast.get("kind"), KINDS),
           "S": int_at_least(f"{where} fast_schedule S", fast.get("S"), 1)}
    try:
        scores = score_samples(mixture, batch.samples)
    except (FloatingPointError, InsufficientDataError, NumericError) as err:
        raise ValidationError(
            f"{args.samples} cannot be scored: {err}") from err
    frechet, score = scores["frechet"], scores["inception_score"]
    write_report(os.path.join(_resolve_out(args), "report"),
                 "fastdiff-evaluate", hash_config(raw), REPORT_COLUMNS,
                 [{**run, **scores}],
                 {**scores, "num_generated": num, "config": run})
    print(f"frechet={frechet:.6f}"
          + (f" inception_score={score:.4f}" if score is not None else ""))
    return 0


def _cmd_sweep(args):
    raw = _load_config(args.config, args.preset)
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
    output = argparse.ArgumentParser(add_help=False, parents=[common])
    output.add_argument("--out", help=f"output directory (or ${ENV_OUT})")
    output.add_argument("--preset", help="built-in data preset name")
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

    p_sample = sub.add_parser("sample", parents=[output, seeded],
                              help="generate and store a sample batch")
    p_sample.set_defaults(func=_cmd_sample)

    p_eval = sub.add_parser("evaluate", parents=[output],
                            help="score a stored sample batch")
    p_eval.add_argument("--samples", help="prefix of a stored batch")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sweep = sub.add_parser("sweep", parents=[output, seeded],
                             help="run the full experiment grid")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            int_at_least("--seed", args.seed, 0)
        return args.func(args)
    except (ValidationError, ConstructionError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
