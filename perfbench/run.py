#!/usr/bin/env python3
"""fastdiff benchmark: times calls into fastdiff's public functions.

    python3 perfbench/run.py --workload sample_wide --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --list

Run from the root of a source checkout; fastdiff is imported from ./src.
One run sets up (imports, inputs from --seed, one small warm-up call), then
makes closed-loop calls of one workload, back to back in this single thread,
for about --seconds, checking every call's outputs.  With --trace 0 the last
line of output reports the end-to-end metrics of untraced calls; with
--trace 1 it alternates untraced and traced calls and reports the per-layer
metrics of the traced ones (see tracing.py).  Earlier lines print every
metric by name and unit, the machine, and any gate failure.  The exit code
is 0 only when every call passed the correctness gate.

Set-up is repeated in SETUP_REPEATS - 1 child processes of this script
(--setup-only) so that setup_s is a median.  Scratch files live under
.perfbench/ in the checkout and are removed at exit; a traced run leaves its
spans there.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

# Pin BLAS/OpenMP pools before numpy loads: every workload is measured
# single-threaded, and child processes inherit the setting.
import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

SETUP_REPEATS = 5
MIN_CALLS = 3        # untraced calls per run, whatever --seconds says
MIN_TRACED_CALLS = 2
TAIL_BEYOND = 10     # calls that must lie beyond a reported tail percentile
COLLAPSE_WARNING = "step subset collapsed"


def reference_seconds() -> float:
    """Wall time of a fixed computation that shares no code with fastdiff
    but has its mix: small-array numpy steps as in a sampler, BLAS and tanh
    as in a training update, and interpreted Python (~50 ms).  Timed around
    every untraced call, it measures how fast the machine runs at that
    moment."""
    import numpy as np
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2000, 2))
    h = rng.standard_normal((256, 96))
    w = rng.standard_normal((96, 96)) / 10.0
    for _ in range(400):
        x = 0.99 * x - 0.01 * np.tanh(x)
    for _ in range(80):
        h = np.tanh(h @ w)
    total = 0.0
    for i in range(200_000):
        total += i * 0.5
    return time.perf_counter() - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (internal)")
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    if not args.list and args.workload is None:
        parser.error("--workload is required")
    return args


def list_metrics() -> None:
    for group in ("end_to_end", "detail", "per_layer"):
        print(f"[{group}]")
        for m in SPEC[group]:
            moves = "; ".join(f"{x['metric']} on {x['workload']}"
                              for x in m.get("moves", ()))
            line = f"{m['name']:34s} {m['unit']:6s} {m['better']:6s}"
            if "bound" in m:
                line += f" bound={m['bound']}"
            print(line + (f"  moves {moves}" if moves else "")
                  + f"  -- {m['about']}")


def import_fastdiff():
    """Import the checkout's fastdiff (and the modules built on it); None
    when the checkout has no sources."""
    if not (SRC / "fastdiff" / "__init__.py").is_file():
        print(f"error: no fastdiff sources under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import fastdiff
    if Path(fastdiff.__file__).resolve().parent != SRC / "fastdiff":
        print(f"error: imported fastdiff from {fastdiff.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return None
    import tracing
    import workloads
    return workloads, tracing


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        entry = deps.get("blas", {})
        return f"{entry.get('name')} {entry.get('version')}"

    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy)}


class Runner:
    """Makes calls of one workload and gates each one."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_calls = 0
        self.fingerprint = None
        self.quality: dict = {}
        self.collapse_warnings: list[int] = []

    def call(self, tracer=None):
        """One gated call; returns its seconds, or None when the call or
        its gate raised."""
        out_dir = tempfile.mkdtemp(dir=self.work_dir)
        stdout = io.StringIO()
        self.attempted += 1
        gc.collect()  # start every call from the same heap state
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout):
                warnings.simplefilter("always")
                if tracer is None:
                    started = time.perf_counter()
                    result = self.workload.call(out_dir)
                    seconds = time.perf_counter() - started
                else:
                    tracer.install()
                    try:
                        result, seconds = tracer.run(self.workload.call,
                                                     out_dir)
                    finally:
                        tracer.uninstall()
            verdict = self.workload.check(result, out_dir, stdout.getvalue())
        except Exception:
            self._fail([f"call raised:\n{traceback.format_exc()}"])
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        collapses = sum(COLLAPSE_WARNING in str(w.message) for w in caught)
        self.collapse_warnings.append(collapses)
        if tracer is not None:
            tracer.calls[-1]["fast_schedule.collapse_warnings"] = \
                float(collapses)
        failures = list(verdict.failures)
        if self.fingerprint is None:
            self.fingerprint = verdict.fingerprint
            self.quality = verdict.quality
        elif verdict.fingerprint != self.fingerprint:
            failures.append("outputs differ from the first call of the run")
        if failures:
            self._fail(failures)
        return seconds

    def _fail(self, failures):
        self.failed_calls += 1
        if len(self.failures) < 20:
            self.failures.extend(failures)


def measure(runner, seconds, tracer=None):
    """Back-to-back calls for about `seconds`; a call is only started when
    it is expected to end in time, once the minimum counts are met.  With a
    tracer, calls alternate untraced / traced.  Returns the untraced and
    traced call times and, without a tracer, the reference times taken
    before the first call and after each call."""
    plain, traced = [], []
    references = [] if tracer is not None else [reference_seconds()]
    started = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        took = runner.call(tracer if use_tracer else None)
        if tracer is None:
            references.append(reference_seconds())
            if took is None:  # keep one reference per call, bracketing it
                references.pop(-2)
        if took is not None:
            (traced if use_tracer else plain).append(took)
        enough = len(plain) >= MIN_CALLS and (
            tracer is None or len(traced) >= MIN_TRACED_CALLS)
        if runner.attempted >= 10 * MIN_CALLS and not (plain or traced):
            break  # every call raised
        typical = statistics.median(plain + traced) if plain + traced else 0
        if enough and time.perf_counter() - started + typical > seconds:
            break
    return plain, traced, references


def tail(times):
    """(percentile, seconds, calls): the highest whole percentile with at
    least TAIL_BEYOND calls beyond it (nearest rank), or None."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n
    return None


def setup_children(args) -> list[float]:
    """Repeat this run's set-up in fresh interpreters; seconds each."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def call_costs(plain, references) -> list[float]:
    """Each call's time over the mean of the reference times bracketing
    it: the call's cost in units of the machine's current speed."""
    return [2.0 * took / (before + after)
            for took, before, after in zip(plain, references, references[1:])]


def end_to_end(plain, references, setup_times) -> dict:
    return {"setup_s": statistics.median(setup_times),
            "call_cost_p50": statistics.median(call_costs(plain, references)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(tracer, root, plain) -> dict:
    """The layer breakdown of the fastest traced call, so that its self
    times add up to that call; the root span's self time is the share no
    layer span covers."""
    fastest = min(tracer.calls, key=lambda c: c["call_s"])
    out = dict(fastest)
    out["trace.overhead_frac"] = fastest["call_s"] / min(plain) - 1.0
    out["trace.unattributed_frac"] = fastest[root] / fastest["call_s"]
    return out


def units(group) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[group]}


def report_line(name, value, unit, note="") -> str:
    shown = "n/a" if value is None else f"{value!r}"
    return f"metric {name} = {shown} {unit}{note}"


def main(argv=None, started=None) -> int:
    started = time.perf_counter() if started is None else started
    args = parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    modules = import_fastdiff()
    if modules is None:
        return 2
    workloads, tracing = modules
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=scratch, prefix=f"{args.workload}-")
    try:
        return run(args, workloads, tracing, work_dir, scratch, started)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, workloads, tracing, work_dir, scratch, started) -> int:
    workload = workloads.make(args.workload, args.seed, work_dir, args.tiny)
    runner = Runner(workload, work_dir)
    warm_dir = os.path.join(work_dir, "warm-up")
    os.mkdir(warm_dir)
    warm = Runner(workloads.make(args.workload, args.seed, warm_dir, True),
                  warm_dir)
    warm.call()
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0 if not warm.failures else 1

    tracer = tracing.Tracer() if args.trace else None
    plain, traced, references = measure(runner, args.seconds, tracer)
    setup_times = [setup_s] + setup_children(args)
    attempted = runner.attempted + warm.attempted
    failed = runner.failed_calls + warm.failed_calls
    ok = failed == 0 and bool(plain)

    info = machine_info()
    print("# machine " + " ".join(f"{k}={v!r}" for k, v in info.items()))
    print(f"# workload {workload.name} seed={args.seed} tiny={args.tiny} "
          f"trace={args.trace}: {len(plain)} untraced and {len(traced)} "
          f"traced calls, {attempted} attempted, {failed} failed")
    print(f"# step_subset collapse warnings per call: "
          f"{sorted(set(runner.collapse_warnings))}")
    for failure in warm.failures + runner.failures:
        print(f"# FAILED {failure}")

    values = {}
    detail = {"failed_frac": failed / attempted, **runner.quality}
    if plain and tracer is None:
        values = end_to_end(plain, references, setup_times)
        for name, unit in units("end_to_end").items():
            print(report_line(name, values[name], unit))
        found = tail(plain)
        print(report_line("call_s_tail", None if found is None else found[1],
                          "s", "" if found is None else
                          f" (p{found[0]} of {found[2]} calls)"))
        detail.update({"call_s_p50": statistics.median(plain),
                       "call_s_min": min(plain),
                       "reference_s_p50": statistics.median(references),
                       f"{workload.item}_per_s":
                       workload.items_per_call * len(plain) / sum(plain)})
    detail_units = units("detail")
    for name, value in detail.items():
        print(report_line(name, value, detail_units[name]))
    if tracer is not None:
        if traced and plain:
            values = per_layer(tracer, tracing.ROOT, plain)
            for name, unit in units("per_layer").items():
                print(report_line(name, values[name], unit))
        spans = scratch / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"# spans written to {spans.relative_to(ROOT)}")
    if not values:
        return 1
    group = "per_layer" if tracer is not None else "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units(group).items()}
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(started=_STARTED))
