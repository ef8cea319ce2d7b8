"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this script with ``PYTHONPATH=src`` and the BLAS thread
count pinned to one, passes the workload's configuration as JSON, and
reads the JSON result this script prints as its last line of stdout.
Every call into the library goes through a tracer span; in untraced runs
the tracer is a no-op.

A process has two parts:

* set-up: import, then build every graph and chain the workload uses.
  ``setup_s`` is process start to the end of set-up.
* the fixed pass: the work one CLI-sized run of the workload does (for the
  pipeline, analysis plus ``trials`` trials; for mc, ``calls`` estimates
  of ``samples`` each; for verify-exact, one ``run_verify`` and one
  ``exact_lower_bound``). ``wall_s`` is process start to the end of the
  fixed pass, outputs checked, and ``peak_rss_mb`` the peak RSS by then.
  ``main_calls`` are the durations of the operation ``main_call_s``
  times. The digest covers the outputs of the fixed pass.

``run.py`` starts several of these processes in one benchmark run and
takes medians over them.

A traced run adds calls after the fixed pass: on verify-exact, the parts of
``exact_lower_bound`` and each verify check on its own; then, on every
workload, one more call of each function whose memory is reported, under
tracemalloc. Tracemalloc slows allocation-heavy Python several times, so
no timed span runs it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import warnings

import numpy as np

from mixbound import adversary as adv
from mixbound import chains as ch
from mixbound import graphs as gr
from mixbound import solvers as sv
from mixbound import staircase as st
from mixbound import verify as vf
from mixbound.bench import TrialRow
from mixbound.config import DEFAULT_CAPS
from mixbound.errors import VacuousRegimeWarning

from tracing import NullTracer, Tracer, self_times

# Outputs of the seed commit, which later versions must reproduce.
T_REFERENCE = {"hypercube:11": 91, "hypercube:4": 12}
EXACT_REFERENCE = {
    ("complete:6", 2, 4): (0.6991936000000006, 0.4211420800000004),
    ("complete:4", 2, 4): (0.379515317786923, 0.3074702789208964),
}
EXACT_TOL = 1e-12

MODULES = ("graphs", "chains", "staircase", "solvers", "adversary", "verify")


def layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit. A
    metric of a layer the workload does not call reads 0."""
    units = {
        "graphs.graph_from_spec_s": "s",
        "graphs.n": "count",
        "graphs.edges": "count",
        "chains.lazy_simple_walk_s": "s",
        "chains.spectral_gap_s": "s",
        "chains.dense_mb": "MB",
        "chains.nnz": "count",
        "staircase.default_params_s": "s",
        "staircase.default_params.peak_mb": "MB",
        "staircase.T": "count",
        "staircase.L": "count",
        "staircase.sample_instance_s.p50": "s",
        "staircase.sample_instance_s.p90": "s",
    }
    for name in sv.SOLVER_NAMES:
        units[f"solvers.{name}_s"] = "s"
        units[f"solvers.{name}.distinct_queries"] = "count"
    units.update({
        "adversary.estimate_lower_bound_s": "s",
        "adversary.estimate_lower_bound.peak_mb": "MB",
        "adversary.good_fraction": "1",
        "adversary.exact_lower_bound_s": "s",
        "adversary.enumerate_family_s": "s",
        "adversary.relation_mass_s": "s",
        "adversary.distinguishing_mass_s": "s",
        "adversary.exact.peak_mb": "MB",
        "adversary.family_size": "count",
        "adversary.good_pairs": "count",
        "verify.run_verify_s": "s",
        "verify.checks_sum_s": "s",
    })
    for name in vf.CHECKS:
        units[f"verify.{name}_s"] = "s"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.calls"] = "count"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """Clock, tracer and operation ledger of one benchmark process."""

    def __init__(self, t0_ns: int, tracer):
        self.t0_ns = t0_ns
        self.tr = tracer
        self.attempted = 0
        self.failures: list[dict] = []
        self.wall_s: float | None = None
        self.peak_rss_mb: float | None = None
        self.wall_trace_s: float | None = None

    def since_start(self) -> float:
        return (time.monotonic_ns() - self.t0_ns) / 1e9

    def check(self, op: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append({"op": op, "detail": detail})

    def end_fixed_pass(self) -> None:
        self.wall_s = self.since_start()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tr.enabled:
            self.wall_trace_s = self.tr.now()


# ---------------------------------------------------------------------------
# Set-up: every graph and chain the workload uses
# ---------------------------------------------------------------------------

def setup(cfg: dict, seed: int, tr) -> dict:
    kind = cfg["kind"]
    if kind == "pipeline":
        graph_spec, graph_seed = cfg["graph"], seed
    elif kind == "mc":
        graph_spec, graph_seed = cfg["graph"], cfg["graph_seed"]
    else:
        graph_spec, graph_seed = cfg["exact_graph"], None
    with tr.span("graphs.graph_from_spec"):
        g = gr.graph_from_spec(graph_spec, seed=graph_seed)
    with tr.span("chains.lazy_simple_walk"):
        P = ch.lazy_simple_walk(g)
    return {"graph": g, "chain": P, "graph_spec": graph_spec}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def pipeline_trial(tr, g, P, params, trial_seed: int) -> list[TrialRow]:
    """One trial as ``bench.run_bench`` runs it: a seeded instance, then
    each solver with its own ``(trial_seed, solver_idx)`` stream."""
    with tr.span("staircase.sample_instance"):
        inst = st.sample_instance(P, params, trial_seed,
                                  retry_cap=DEFAULT_CAPS["good_walk_retries"])
    rows = []
    for solver_idx, solver in enumerate(sv.SOLVER_NAMES):
        oracle = sv.search_oracle(inst)
        try:
            with tr.span(f"solvers.{solver}"):
                result = sv.run_solver(
                    solver, oracle, g, start=1,
                    seed=np.random.default_rng((trial_seed, solver_idx)))
            rows.append(TrialRow(
                seed=trial_seed, solver=solver, n=g.n,
                distinct=result.distinct_queries, total=result.total_queries,
                found_vertex=result.vertex, correct=result.vertex == inst.minimum))
        except Exception as exc:  # a failed solve is a row, as in run_bench
            rows.append(TrialRow(
                seed=trial_seed, solver=solver, n=g.n, distinct=0, total=0,
                found_vertex=0, correct=False, error=type(exc).__name__))
    return rows


def run_pipeline(run: Run, cfg: dict, state: dict, seed: int) -> dict:
    tr = run.tr
    g, P = state["graph"], state["chain"]
    t = time.perf_counter()
    with tr.span("staircase.default_params"):
        params = st.default_params(P, mixing_cap=DEFAULT_CAPS["mixing_steps"])
    with tr.span("chains.spectral_gap"):
        lambda2, _ = ch.spectral_gap(P)
    analyze_s = time.perf_counter() - t
    expected_T = T_REFERENCE.get(cfg["graph"])
    run.check("analyze", expected_T is None or params.T == expected_T,
              f"T={params.T}, seed commit gives {expected_T}")

    rows: list[TrialRow] = []
    latencies: list[float] = []
    loop_start = time.perf_counter()
    for k in range(cfg["trials"]):
        trial_seed = seed + k
        t = time.perf_counter()
        with tr.span("bench.trial"):
            try:
                trial_rows = pipeline_trial(tr, g, P, params, trial_seed)
            except Exception as exc:  # instance sampling failed: all solves fail
                trial_rows = []
                for solver in sv.SOLVER_NAMES:
                    run.check(f"trial {trial_seed} {solver}", False, repr(exc))
            for row in trial_rows:
                run.check(f"trial {trial_seed} {row.solver}", row.correct,
                          row.error or f"found {row.found_vertex}")
        latencies.append(time.perf_counter() - t)
        rows.extend(trial_rows)
    loop_s = time.perf_counter() - loop_start
    run.end_fixed_pass()

    outputs = {"rows": [r.to_csv() for r in rows], "T": params.T, "L": params.L,
               "lambda2": repr(float(lambda2))}
    named = {
        "analyze_s": (analyze_s, "s"),
        "trials_per_s": (cfg["trials"] / loop_s, "1/s"),
        "trial_s.p50": (percentile(latencies, 50), "s"),
        "trial_s.p90": (percentile(latencies, 90), "s"),
    }
    counts = {"params": params, "rows": rows}
    return {"named": named, "main_calls": [analyze_s], "outputs": outputs, "counts": counts}


def run_mc(run: Run, cfg: dict, state: dict, seed: int) -> dict:
    tr = run.tr
    P = state["chain"]
    with tr.span("staircase.default_params"):
        params = st.default_params(P, mixing_cap=DEFAULT_CAPS["mixing_steps"])
    samples = cfg["samples"]
    durations: list[float] = []
    reports = []
    for c in range(cfg["calls"]):
        t = time.perf_counter()
        try:
            with tr.span("adversary.estimate_lower_bound"):
                report = adv.estimate_lower_bound(P, params, samples, seed + c)
            good = report.context["good_fraction"]
            ok = (math.isfinite(report.M) and report.M > 0
                  and math.isfinite(report.q) and report.q > 0 and good > 0)
            run.check(f"estimate {seed + c}", ok,
                      f"M={report.M}, q={report.q}, good_fraction={good}")
        except Exception as exc:  # a failed estimate counts, the run goes on
            report = None
            run.check(f"estimate {seed + c}", False, repr(exc))
        durations.append(time.perf_counter() - t)
        reports.append(report)
    run.end_fixed_pass()
    rate = statistics.median(samples / d for d in durations)
    outputs = {"T": params.T, "L": params.L,
               "estimates": [[repr(r.M), repr(r.q)] if r else None for r in reports]}
    named = {"mc_samples_per_s": (rate, "1/s")}
    counts = {"params": params, "report": reports[0]}
    return {"named": named, "main_calls": durations, "outputs": outputs, "counts": counts}


def run_verify_exact(run: Run, cfg: dict, state: dict, seed: int) -> dict:
    tr = run.tr
    P = state["chain"]
    with tr.span("staircase.custom_params"):
        params = st.custom_params(P, T=cfg["T"], L=cfg["L"])
    reference = EXACT_REFERENCE.get((cfg["exact_graph"], cfg["T"], cfg["L"]))
    t = time.perf_counter()
    try:
        with tr.span("verify.run_verify"):
            results = vf.run_verify(suite="all", checks=cfg["checks"], seed=cfg["verify_seed"])
        for r in results:
            run.check(f"verify {r.name}", r.passed, r.details)
    except Exception as exc:  # the suite itself failed to run
        results = []
        run.check("verify", False, repr(exc))
    verify_s = time.perf_counter() - t
    t = time.perf_counter()
    try:
        with tr.span("adversary.exact_lower_bound"):
            report = adv.exact_lower_bound(P, params)
        ok = reference is None or (abs(report.M - reference[0]) <= EXACT_TOL
                                   and abs(report.q - reference[1]) <= EXACT_TOL)
        run.check("exact", ok, f"M={report.M!r}, q={report.q!r}, seed commit {reference}")
    except Exception as exc:  # a failed exact call counts
        report = None
        run.check("exact", False, repr(exc))
    exact_s = time.perf_counter() - t
    run.end_fixed_pass()
    outputs = {"passed": [[r.name, r.passed] for r in results],
               "M": repr(report.M) if report else None,
               "q": repr(report.q) if report else None}
    named = {"verify_s": (verify_s, "s"), "exact_s": (exact_s, "s")}
    counts = {"params": params, "report": report, "checks": [r.name for r in results]}
    return {"named": named, "main_calls": [verify_s], "outputs": outputs, "counts": counts}


def traced_breakdown(run: Run, cfg: dict, state: dict, counts: dict) -> dict:
    """Traced only: the parts of ``exact_lower_bound`` in its own order,
    then each verify check on its own (each builds its own fixtures)."""
    tr = run.tr
    P, params = state["chain"], counts["params"]
    with tr.span("adversary.enumerate_family"):
        family = adv.enumerate_family(P, params)
    with tr.span("adversary.relation_mass"):
        mass = adv.relation_mass(family, family)
    with tr.span("adversary.distinguishing_mass"):
        dmass = adv.distinguishing_mass(family, family)
    report = counts["report"]
    run.check("exact breakdown", report is not None and mass.total == report.M
              and dmass.q == report.q, f"M={mass.total!r}, q={dmass.q!r}")
    good_bits = [0, 0]
    for inst in family.instances:
        if st.is_good_walk(inst.walk, params.T):
            good_bits[inst.bit] += 1
    for name in counts["checks"]:
        with tr.span(f"verify.{name}"):
            results = vf.run_verify(checks=[name], seed=cfg["verify_seed"])
        run.check(f"verify {name} alone", all(r.passed for r in results))
    return {"adversary.family_size": len(family),
            "adversary.good_pairs": 2 * good_bits[0] * good_bits[1]}


def memory_pass(run: Run, cfg: dict, state: dict, counts: dict, seed: int) -> None:
    """Traced only: call again, under tracemalloc, each function whose
    peak allocation is reported, and check that the repeat gives what the
    fixed pass gave. The timed spans of the same functions ran without
    tracemalloc."""
    tr = run.tr
    P, params, report = state["chain"], counts["params"], counts.get("report")
    if cfg["kind"] in ("pipeline", "mc"):
        with tr.span("staircase.default_params", memory=True):
            again = st.default_params(P, mixing_cap=DEFAULT_CAPS["mixing_steps"])
        run.check("default_params repeat", again == params, f"{again} != {params}")
    if cfg["kind"] == "mc":
        with tr.span("adversary.estimate_lower_bound", memory=True):
            again = adv.estimate_lower_bound(P, params, cfg["samples"], seed)
        run.check("estimate repeat",
                  report is not None and (again.M, again.q) == (report.M, report.q),
                  f"M={again.M!r}, q={again.q!r}")
    if cfg["kind"] == "verify-exact":
        with tr.span("adversary.exact_lower_bound", memory=True):
            again = adv.exact_lower_bound(P, params)
        run.check("exact repeat",
                  report is not None and (again.M, again.q) == (report.M, report.q),
                  f"M={again.M!r}, q={again.q!r}")


RUNNERS = {"pipeline": run_pipeline, "mc": run_mc, "verify-exact": run_verify_exact}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of a traced run
# ---------------------------------------------------------------------------

def layer_metrics(run: Run, state: dict, result: dict, extra: dict) -> dict[str, float]:
    spans = run.tr.spans
    values = dict.fromkeys(layer_units(), 0.0)
    by_name: dict[str, list] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def med(name):
        found = [sp.duration for sp in by_name.get(name, []) if sp.peak_mb is None]
        return statistics.median(found) if found else 0.0

    def peak(name):
        found = [sp.peak_mb for sp in by_name.get(name, []) if sp.peak_mb is not None]
        return max(found) if found else 0.0

    for name in ("graphs.graph_from_spec", "chains.lazy_simple_walk",
                 "chains.spectral_gap", "staircase.default_params",
                 "adversary.estimate_lower_bound", "adversary.exact_lower_bound",
                 "adversary.enumerate_family", "adversary.relation_mass",
                 "adversary.distinguishing_mass", "verify.run_verify"):
        values[f"{name}_s"] = med(name)
    for name in sv.SOLVER_NAMES:
        values[f"solvers.{name}_s"] = med(f"solvers.{name}")
    for name in vf.CHECKS:
        values[f"verify.{name}_s"] = med(f"verify.{name}")
    values["verify.checks_sum_s"] = sum(med(f"verify.{name}") for name in vf.CHECKS)
    samples = [sp.duration for sp in by_name.get("staircase.sample_instance", [])]
    if samples:
        values["staircase.sample_instance_s.p50"] = percentile(samples, 50)
        values["staircase.sample_instance_s.p90"] = percentile(samples, 90)
    values["staircase.default_params.peak_mb"] = peak("staircase.default_params")
    values["adversary.estimate_lower_bound.peak_mb"] = peak("adversary.estimate_lower_bound")
    values["adversary.exact.peak_mb"] = peak("adversary.exact_lower_bound")

    g, P = state["graph"], state["chain"]
    values["graphs.n"] = g.n
    values["graphs.edges"] = len(g.edges)
    values["chains.dense_mb"] = P.n * P.n * 8 / float(1 << 20)  # computed, not measured
    values["chains.nnz"] = int(np.count_nonzero(P.matrix))  # computed from the matrix
    counts = result["counts"]
    values["staircase.T"] = counts["params"].T
    values["staircase.L"] = counts["params"].L
    rows = counts.get("rows")
    if rows:
        for name in sv.SOLVER_NAMES:
            mine = [r.distinct for r in rows if r.solver == name]
            values[f"solvers.{name}.distinct_queries"] = statistics.fmean(mine)
    report = counts.get("report")
    if report is not None and report.method == "monte_carlo":
        values["adversary.good_fraction"] = report.context["good_fraction"]
    values.update(extra)

    # Layer self times and call counts over the fixed pass only, so extra
    # traced calls after it do not inflate them.
    own = self_times(spans, until=run.wall_trace_s)
    for module in MODULES:
        values[f"{module}.self_s"] = own.get(module, 0.0)
        values[f"{module}.calls"] = sum(
            1 for sp in spans if sp.layer == module and sp.end <= run.wall_trace_s)
    values["trace.spans"] = len(spans)
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", required=True, help="workload configuration as JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0-ns", type=int, required=True,
                   help="time.monotonic_ns() of the parent just before it started this process")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the spans of a traced run here as JSON lines")
    args = p.parse_args(argv)
    cfg = json.loads(args.config)
    warnings.simplefilter("ignore", VacuousRegimeWarning)

    tracer = Tracer(run_id=f"{cfg['name']}-{args.seed}") if args.trace else NullTracer()
    run = Run(args.t0_ns, tracer)
    state = setup(cfg, args.seed, tracer)
    setup_s = run.since_start()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = RUNNERS[cfg["kind"]](run, cfg, state, args.seed)
    extra = {}
    if args.trace:
        if cfg["kind"] == "verify-exact":
            extra = traced_breakdown(run, cfg, state, result["counts"])
        memory_pass(run, cfg, state, result["counts"], args.seed)
    doc = {
        "setup_s": setup_s,
        "wall_s": run.wall_s,
        "peak_rss_mb": run.peak_rss_mb,
        "main_calls": result["main_calls"],
        "named": result["named"],
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "outputs": result["outputs"],
        "digest": digest(result["outputs"]),
        "env": environment(),
    }
    if args.trace:
        units = layer_units()
        doc["layers"] = {key: [value, units[key]]
                         for key, value in layer_metrics(run, state, result, extra).items()}
        if args.spans:
            tracer.write_jsonl(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
