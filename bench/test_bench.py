"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SRC = str(BENCH.parent / "src")


@pytest.fixture(scope="module")
def package():
    return worker.import_phasepovm(SRC)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        ["main", "cli", 0.0, 10.0, None, 0],
        ["a", "naimark", 1.0, 4.0, 0, 0],
        ["b", "compiler", 3.0, 6.0, 0, 0],  # overlaps a by 1
        ["c", "compiler", 8.0, 11.0, 0, 0],  # runs past its parent by 1
        ["d", "povm", 2.0, 3.0, 1, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 2, 2.0, 3.0, 3.0, 1.0])
    layers = tracing.layer_metrics(spans, ops=2)
    assert layers["cli.self_ms"] == pytest.approx(1500.0)
    assert layers["compiler.self_ms"] == pytest.approx(3000.0)
    assert layers["compiler.calls"] == 1.0
    assert layers["optics.self_ms"] == 0.0


def test_injected_bad_state_raises_error_rate(package, tmp_path):
    ops, _ = workloads.prepare("state_stream", tmp_path / "io", seed=3, m=8)
    workloads.write_state(Path(ops[1]["steps"][0][4]), [[0.5, 0.3], [0.1, 0.5]])
    runner = worker.Runner(package, tmp_path / "first")
    result = {
        "warmup": runner.run(ops[0], -1),
        "records": [runner.run(op, i) for i, op in enumerate(ops)],
        "setups": [1.0],
        "peak_rss_kib": 1024,
        "versions": {},
    }
    result["failures"] = run.score("state_stream", 8, ops, result, tmp_path / "first")
    assert list(result["failures"]) == [1]
    assert result["failures"][1].startswith("compare-1: exit codes [1]")
    args = argparse.Namespace(workload="state_stream", seed=3, seconds=0, trace=0)
    line = run.report(args, 8, result, json.loads((BENCH.parent / "BENCHMARK.json").read_text()))
    assert (line["correct"], line["attempted"], line["failed"]) == (False, len(ops), 1)


def test_changed_output_bytes_fail_the_op(package, tmp_path):
    ops, _ = workloads.prepare("verify_pipeline", tmp_path / "io", seed=3, m=8)
    runner = worker.Runner(package, tmp_path / "first")
    assert runner.run(ops[0], 0)["same_bytes"]
    runner.digests[ops[0]["key"]] = "0" * 64
    assert not runner.run(ops[0], 1)["same_bytes"]


def test_exception_in_cli_counts_as_exit_1(tmp_path):
    def crash(argv):
        raise KeyError("boom")

    runner = worker.Runner(SimpleNamespace(cli=SimpleNamespace(main=crash)), tmp_path / "first")
    record = runner.run({"key": "k", "steps": [["verify"]], "outputs": [str(tmp_path / "none")]}, 0)
    assert record["exit_codes"] == [1] and not record["same_bytes"]
    assert "KeyError: 'boom'" in record["notes"]


def test_tracing_restores_every_wrapped_attribute(package, tmp_path):
    modules = [getattr(package, layer) for layer in tracing.LAYERS]
    before = {(m.__name__, n): obj for m in modules for n, obj in vars(m).items()}
    ops, _ = workloads.prepare("verify_pipeline", tmp_path / "io", seed=3, m=8)
    runner = worker.Runner(package, tmp_path / "first")
    runner.tracer = tracing.Tracer()
    with runner.tracer.installed(package) as wrapped:
        assert package.cli.main is not before[("phasepovm.cli", "main")]
        assert runner.run(ops[0], 0)["exit_codes"] == [0]
    for name in ("phasepovm.cli.evaluate_netlist", "phasepovm.optics.validate_density", "phasepovm.naimark.povm_element"):
        assert name in wrapped
    assert {span[tracing.LAYER] for span in runner.tracer.spans} == set(tracing.LAYERS)
    after = {(m.__name__, n): obj for m in modules for n, obj in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", sorted(workloads.DEFAULT_M))
def test_smoke_run_at_m8(workload):
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    start = time.monotonic()
    result = run.measure(workload, seed=5, seconds=0.3, trace=False, m=8)
    args = argparse.Namespace(workload=workload, seed=5, seconds=0.3, trace=0)
    line = run.report(args, 8, result, config)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in config["end_to_end"]}
    assert time.monotonic() - start < 30


def test_traced_smoke_run_reports_every_per_layer_metric():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    result = run.measure("export_files", seed=5, seconds=0.3, trace=True, m=8)
    args = argparse.Namespace(workload="export_files", seed=5, seconds=0.3, trace=1)
    line = run.report(args, 8, result, config)
    assert line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in config["per_layer"]}
