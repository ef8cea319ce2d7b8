"""Benchmark runner: seeded staircase instances against the solver suite,
with theoretical bound shapes for context.

Bound values carry no Omega constants, so the summary is meant for
ordering and monotonicity comparisons across configurations, never as an
absolute query-count prediction.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from . import chains as ch
from . import graphs as gr
from . import solvers as sv
from . import staircase as st
from .adversary import bound_values
from .config import ExperimentConfig
from .errors import DEFAULT_CAPS, CapabilityError

CSV_HEADER = "seed,solver,n,distinct,total,found_vertex,correct,error"

BOUND_DISCLAIMER = (
    "bound values are dimensionless shapes without their Omega constants; "
    "compare orderings across configurations, not absolute query counts")


@dataclass(frozen=True)
class TrialRow:
    seed: int
    solver: str
    n: int
    distinct: int
    total: int
    found_vertex: int
    correct: bool
    error: str = ""

    def to_csv(self) -> str:
        return (f"{self.seed},{self.solver},{self.n},{self.distinct},"
                f"{self.total},{self.found_vertex},"
                f"{'true' if self.correct else 'false'},{self.error}")


def build_system(config: ExperimentConfig):
    """(graph, chain, params) for a config."""
    g = gr.graph_from_spec(config.graph, seed=config.seed)
    P = ch.chain_from_spec(config.chain, g)
    if config.T is not None:
        params = st.custom_params(P, T=config.T, L=config.L)
    else:
        params = st.default_params(P, mixing_cap=config.cap("mixing_steps"))
    return g, P, params


def bound_context(P: ch.TransitionMatrix, params: st.StaircaseParams,
                  expansion_cap: int,
                  mixing_cap: int = DEFAULT_CAPS["mixing_steps"]) -> dict[str, float]:
    """Bound shapes for the chain; brute-force quantities are skipped
    above their cap and non-reversible chains skip the spectral shapes.
    Custom params need t_mix at eps = sigma/(2n), so a chain too
    heterogeneous for that eps raises CapabilityError."""
    sigma = params.sigma
    if params.is_default:
        t_default = params.T
    else:
        t_default = ch.mixing_time(P, st.default_eps(P.n, sigma), cap=mixing_cap)
    lambda2 = None
    if P.flags.reversible:
        lambda2, _ = ch.spectral_gap(P)
    beta = d_max = None
    if P.n <= expansion_cap:
        beta = gr.edge_expansion(P.graph, cap=expansion_cap)
        _, d_max, _ = gr.degree_stats(P.graph)
    return bound_values(P.n, t_default, sigma, lambda2=lambda2, beta=beta,
                        d_max=d_max)


def run_bench(config: ExperimentConfig) -> tuple[list[TrialRow], dict]:
    """Per-trial rows plus a summary with per-solver statistics and the
    bound shapes. Deterministic for a fixed config."""
    g, P, params = build_system(config)
    rows: list[TrialRow] = []
    for trial in range(config.trials):
        trial_seed = config.seed + trial
        inst = st.sample_instance(P, params, trial_seed,
                                  retry_cap=config.cap("good_walk_retries"))
        for solver_idx, solver in enumerate(config.solvers):
            oracle = sv.search_oracle(inst)
            try:
                result = sv.run_solver(
                    solver, oracle, g, start=1,
                    seed=np.random.default_rng((trial_seed, solver_idx)))
                rows.append(TrialRow(
                    seed=trial_seed, solver=solver, n=g.n,
                    distinct=result.distinct_queries, total=result.total_queries,
                    found_vertex=result.vertex,
                    correct=result.vertex == inst.minimum))
            except Exception as exc:  # per-trial failure, reported as a row
                rows.append(TrialRow(
                    seed=trial_seed, solver=solver, n=g.n, distinct=0, total=0,
                    found_vertex=0, correct=False,
                    error=type(exc).__name__))
    try:
        bounds = bound_context(P, params,
                               expansion_cap=config.cap("expansion_bruteforce"),
                               mixing_cap=config.cap("mixing_steps"))
    except CapabilityError:
        bounds = {}
    per_solver = {}
    for solver in config.solvers:
        mine = [r for r in rows if r.solver == solver]
        good = [r for r in mine if not r.error]
        per_solver[solver] = {
            "trials": len(mine),
            "correct": sum(r.correct for r in mine),
            "errors": len(mine) - len(good),
            "mean_distinct": statistics.fmean(r.distinct for r in good) if good else None,
            "median_distinct": statistics.median(r.distinct for r in good) if good else None,
        }
    summary = {
        "graph": config.graph,
        "chain": config.chain,
        "n": g.n,
        "params": {"T": params.T, "L": params.L, "m": params.m,
                   "sigma": params.sigma, "default": params.is_default},
        "solvers": per_solver,
        "bounds": bounds,
        "bound_note": BOUND_DISCLAIMER,
        "all_correct": all(r.correct for r in rows),
    }
    return rows, summary
