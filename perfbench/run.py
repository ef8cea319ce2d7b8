"""mixbound benchmark: three workloads, each run as a fresh process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-hypercube11 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run starts ``perfbench/workload.py`` with the library from ``src/``
and one BLAS thread (closed loop: one client, each call after the last
returns, one process at a time). With ``--trace 0`` it starts
``max(1, round(seconds / pass_s))`` measured processes, each running the
workload's fixed pass, with groups of set-up-only processes before,
between and after them. Every metric is a median over the run's
processes (``main_call_s`` over all their calls), and the measured
processes must agree on the output digest. With ``--trace 1`` it starts
one untraced process, for the tracing overhead, then a traced one that
reports the per-layer metrics and writes its spans under
``perfbench/out/``; only the traced one makes the extra calls for the
per-layer breakdown and the tracemalloc peaks.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
traced). The full record, with the environment, the output digest and the
workload's own metric names, goes to ``perfbench/out/`` and is summarised
on the lines before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# A run must end within this many seconds; each child gets what is left.
RUN_BUDGET_S = 170.0
BLAS_THREADS = "1"

# ``pass_s`` is about how long one measured process takes at the seed
# commit, so that a run measures for about ``--seconds``; the count of
# processes never depends on the clock, so every run of a seed does the
# same work. ``probes`` set-up-only processes run before each measured
# one and after the last. A probe costs about 1.5 s on pipeline and 0.3 s
# on the others. This host switches between a fast and a slow state
# (about 1.5x apart on pure-Python code) every few seconds to minutes;
# spreading the processes over the whole run averages over those states.
WORKLOADS = {
    "pipeline-hypercube11": {"kind": "pipeline", "graph": "hypercube:11", "trials": 100,
                             "pass_s": 14, "probes": 1},
    # The graph seed is fixed: over seeds 0-11 t_mix on random-regular:256,4
    # ranges from 78 to 91, and the estimate's cost is proportional to it.
    # The 1000 samples of the fixed pass are four calls, so that one
    # process gives several timings.
    "mc-regular256": {"kind": "mc", "graph": "random-regular:256,4", "graph_seed": 0,
                      "samples": 250, "calls": 4, "pass_s": 9, "probes": 4},
    # `mixbound verify --seed 0`: the suite's seed is part of the workload.
    "verify-exact-k6": {"kind": "verify-exact", "checks": None, "verify_seed": 0,
                        "exact_graph": "complete:6", "T": 2, "L": 4, "pass_s": 13,
                        "probes": 4},
}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "main_call_s": "s",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cfg: dict, seed: int, deadline: float, *, trace: bool = False,
              setup_only: bool = False, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--config", json.dumps(cfg),
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before starting a process")
    t0_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--t0-ns", str(t0_ns)], env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cfg['name']} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cfg['name']} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{cfg['name']} printed no result")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the library's sources, which identifies the code under
    test where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mixbound").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, cfg: dict, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    cfg = {"name": name, **cfg}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "config": cfg, "seed": seed, "seconds": seconds,
              "trace": trace, "git_commit": git_commit(), "source_digest": source_digest()}
    if trace:
        timed = run_child(cfg, seed, deadline)
        traced = run_child(cfg, seed, deadline, trace=True,
                           spans=stem.with_suffix(".spans.jsonl"))
        metrics = {key: {"value": value, "unit": unit}
                   for key, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"]["value"] = traced["wall_s"] - timed["wall_s"]
        record.update(untraced=timed, traced=traced)
        children = [timed, traced]
        setup_samples = [timed["setup_s"]]
        measured = [timed]
    else:
        passes = max(1, round(seconds / cfg["pass_s"]))
        setup_samples, measured = [], []
        for i in range(passes + 1):
            setup_samples += [run_child(cfg, seed, deadline, setup_only=True)["setup_s"]
                              for _ in range(cfg["probes"])]
            if i < passes:
                measured.append(run_child(cfg, seed, deadline))
                setup_samples.append(measured[-1]["setup_s"])
        children = measured
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(c["wall_s"] for c in measured),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in measured),
            "main_call_s": statistics.median(t for c in measured for t in c["main_calls"]),
        }
        metrics = {key: {"value": value, "unit": E2E_UNITS[key]}
                   for key, value in metrics.items()}
        record.update(runs=measured, setup_samples=setup_samples)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    # Processes of one seed must give the same outputs.
    digests = sorted({c["digest"] for c in children})
    attempted += 1
    if len(digests) > 1:
        failed += 1
        children[0]["failures"].append({"op": "digest", "detail": f"processes differ: {digests}"})
    # The workload's own metric names, as README.md lists them: medians
    # over the untraced measured processes.
    named = {"setup_s": [statistics.median(setup_samples), "s"],
             "wall_s": [statistics.median(c["wall_s"] for c in measured), "s"],
             "peak_rss_mb": [statistics.median(c["peak_rss_mb"] for c in measured), "MB"],
             "failed_ratio": [failed / attempted, "1"]}
    for key, (_, unit) in measured[0]["named"].items():
        named[key] = [statistics.median(c["named"][key][0] for c in measured), unit]
    record.update(metrics=metrics, named=named, attempted=attempted, failed=failed,
                  digest=digests[0])
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def summarise(record: dict) -> None:
    env = (record["traced"] if record["trace"] else record["runs"][0])["env"]
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"attempted={record['attempted']} failed={record['failed']}")
    print(f"#   env: python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']['name']} {env['blas']['version']}, threads {env['blas_threads']}, "
          f"nproc {env['nproc']}, commit {record['git_commit']}, "
          f"src {record['source_digest'][:12]}")
    print(f"#   output digest {record['digest']}")
    for key, (value, unit) in record["named"].items():
        print(f"#   {key:<24} {value:.6g} {unit}")
    for key, m in record["metrics"].items():
        print(f"    {key:<44} {m['value']:.6g} {m['unit']}")
    children = record.get("runs", []) + [record[k] for k in ("untraced", "traced") if k in record]
    for failure in [f for child in children for f in child["failures"]]:
        print(f"#   FAILED {failure['op']}: {failure['detail']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mixbound benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "mixbound" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'mixbound'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    results = {}
    try:
        for name in names:
            record = run_workload(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                                  deadline)
            summarise(record)
            results[name] = record
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
