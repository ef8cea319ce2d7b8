"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run as bench_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# With ``--seconds 2`` each untraced run starts two measured processes.
TINY = {
    "pipeline-hypercube11": {"kind": "pipeline", "graph": "hypercube:4", "trials": 5,
                             "pass_s": 1, "probes": 1},
    "mc-regular256": {"kind": "mc", "graph": "random-regular:16,3", "graph_seed": 0,
                      "samples": 50, "calls": 2, "pass_s": 1, "probes": 1},
    "verify-exact-k6": {"kind": "verify-exact",
                        "checks": ["A2_mixing_concentration", "B2_expansion_bound"],
                        "verify_seed": 0, "exact_graph": "complete:4", "T": 2, "L": 4,
                        "pass_s": 1, "probes": 1},
}


def result_and_record(workload, trace, monkeypatch, capsys, seed=3):
    """Run the benchmark in this process on the tiny configuration of
    ``workload``; its children get that configuration as JSON."""
    monkeypatch.setitem(bench_run.WORKLOADS, workload, TINY[workload])
    code = bench_run.main(["--workload", workload, "--seed", str(seed), "--seconds", "2",
                           "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", list(TINY))
def test_untraced_run_reports_every_metric_and_repeats_its_digest(workload, monkeypatch,
                                                                   capsys):
    first, rec1 = result_and_record(workload, 0, monkeypatch, capsys)
    _, rec2 = result_and_record(workload, 0, monkeypatch, capsys)
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in first["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in first["metrics"].values())
    assert len(rec1["runs"]) == 2 and len(rec1["setup_samples"]) == 5
    assert rec1["digest"] == rec2["digest"]
    assert rec1["named"]["failed_ratio"] == [0.0, "1"]


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_run_reports_every_layer_metric(workload, monkeypatch, capsys):
    result, record = result_and_record(workload, 1, monkeypatch, capsys)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert record["traced"]["digest"] == record["untraced"]["digest"]
    spans = (HERE / "out" / f"{workload}-seed3-trace1.spans.jsonl").read_text().splitlines()
    assert len(spans) == result["metrics"]["trace.spans"]["value"]
    for line in spans:
        assert set(json.loads(line)) == {"run", "id", "parent", "name", "start", "end",
                                         "peak_mb"}


def test_pipeline_rows_equal_run_bench_rows():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import workload as wl
        from mixbound.bench import run_bench
        from mixbound.config import ExperimentConfig
    finally:
        del sys.path[:2]
    cfg = {"name": "pipeline-hypercube11", **TINY["pipeline-hypercube11"]}
    run = wl.Run(time.monotonic_ns(), wl.NullTracer())
    state = wl.setup(cfg, 7, run.tr)
    result = wl.run_pipeline(run, cfg, state, seed=7)
    rows, _ = run_bench(ExperimentConfig(graph=cfg["graph"], chain="lazy-simple",
                                         seed=7, trials=cfg["trials"]))
    assert result["counts"]["rows"] == rows
    assert run.failures == []


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-hypercube11",
         "--seed", "3", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=150)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
