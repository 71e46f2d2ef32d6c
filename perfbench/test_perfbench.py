"""Self-test of the benchmark at tiny sizes.

    python -m pytest perfbench/test_perfbench.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a traced run leaves no wrapper behind, that the gate rejects a wrong
model-call count, and that the benchmark fails cleanly without sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

workloads, tracing = run.import_fastdiff()

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _sites():
    return [(owner, attribute) for owner, attribute, *_ in
            tracing.SPAN_SITES + tracing.COUNT_SITES]


def test_contract_and_spec_name_the_same_metrics():
    for group in ("end_to_end", "per_layer"):
        contract = {m["name"]: (m["unit"], m["better"])
                    for m in CONTRACT[group]}
        spec = {m["name"]: (m["unit"], m["better"]) for m in run.SPEC[group]}
        assert contract == spec
    assert [w["name"] for w in CONTRACT["workloads"]] == run.WORKLOAD_NAMES
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted(workload, trace, capsys):
    originals = [tracing._original(o, a) for o, a in _sites()]
    code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                     "0.2", "--trace", str(trace), "--tiny"])
    result = _last_json(capsys.readouterr().out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + run.MIN_CALLS
    group = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in group}
    assert all(isinstance(e["value"], float)
               for e in result["metrics"].values())
    # the traced run restores every patched entry point
    assert [tracing._original(o, a) for o, a in _sites()] == originals


def test_traced_self_times_add_up_to_the_call(tmp_path):
    tracer = tracing.Tracer()
    workload = workloads.make("sample_long", 1, str(tmp_path), tiny=True)
    tracer.install()
    try:
        _, seconds = tracer.run(workload.call, str(tmp_path))
    finally:
        tracer.uninstall()
    call = tracer.calls[0]
    total = sum(call[m] for m in tracing.TIME_METRICS) + call[tracing.ROOT]
    assert total == pytest.approx(seconds, rel=1e-9)
    assert call["mixture.predict.calls"] == workload.num_steps
    assert call["samplers.model_calls"] == workload.num_steps


class _WrongCallCount(workloads.SampleLong):
    def call(self, out_dir):
        batch = super().call(out_dir)
        batch.provenance["model_calls_per_chain"] += 1
        return batch


def test_gate_rejects_a_wrong_call_count(tmp_path):
    runner = run.Runner(_WrongCallCount(5, str(tmp_path), tiny=True),
                        str(tmp_path))
    assert runner.call() is not None
    assert runner.failed_calls == 1
    assert "model_calls/normals per chain" in runner.failures[0]

    sweep = workloads.make("sweep_grid", 5, str(tmp_path), tiny=True)
    out_dir = tmp_path / "sweep"
    rows = sweep.call(str(out_dir))
    assert sweep.check(rows, str(out_dir), "").failures == []
    rows[0]["model_calls_per_chain"] += 1
    assert sweep.check(rows, str(out_dir), "").failures


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (Path(tmp_path) / ".perfbench").exists()
