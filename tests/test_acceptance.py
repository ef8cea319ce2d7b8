"""Acceptance suite: one test per numbered criterion, each enforcing its
stated tolerances and runtime budget and printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import itertools
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import mixbound as mb
from mixbound.cli import main
from mixbound.verify import VerifyCaps, run_verify


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# 1. Exact adversary micro-system on the triangle
# ---------------------------------------------------------------------------

def test_criterion_1_exact_micro_system():
    t0 = time.perf_counter()
    P = mb.lazy_simple_walk(mb.complete_graph(3))
    params = mb.custom_params(P, T=1, L=2)
    family = mb.enumerate_family(P, params)
    walks = {inst.walk.vertices for inst in family.instances}
    good = sorted(w for w in walks if mb.is_good_walk(w, 1))

    by_key = {(i.walk.vertices, i.bit): i for i in family.instances}
    r = mb.relation_weight(by_key[((1, 2, 3), 0)], by_key[((1, 3, 2), 1)])
    mass = mb.relation_mass(family, family)
    dmass = mb.distinguishing_mass(family)
    report_exact = mb.exact_lower_bound(P, params)
    elapsed = time.perf_counter() - t0

    checks = [
        len(walks) == 9,
        good == [(1, 2, 3), (1, 3, 2)],
        abs(r - 1 / 256) <= 1e-12,
        abs(mass.total - 1 / 64) <= 1e-12,
        abs(dmass.q - 1 / 64) <= 1e-12,
        dmass.argmax_vertex in (2, 3),
        abs(dmass.per_vertex[1] - 1 / 64) <= 1e-12,
        abs(dmass.per_vertex[2] - 1 / 64) <= 1e-12,
        dmass.per_vertex[0] == 0.0,
        abs(report_exact.bound - 0.01) <= 1e-12,
        elapsed < 1.0,
    ]
    report("1", all(checks),
           f"|W|={len(walks)} good={good} r={r} M={mass.total} "
           f"q={dmass.q}@v{dmass.argmax_vertex} bound={report_exact.bound} "
           f"in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Lemma suite at n <= 12 with 500 seeded instances
# ---------------------------------------------------------------------------

def test_criterion_2_lemma_suite():
    t0 = time.perf_counter()
    names = ["A1_validity", "A2_mixing_concentration", "A3_visit_sum",
             "A5_difference_localization", "A7_monotone_grid",
             "A8_time_reversal", "A9_unique_minimum"]
    results = run_verify(checks=names, caps=VerifyCaps(max_n=12, instances=500),
                         seed=0)
    elapsed = time.perf_counter() - t0
    failing = [r.name for r in results if not r.passed]
    report("2", not failing and elapsed < 60.0,
           f"{len(results)} checks, failing={failing}, {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 3. Milestone escape and the subset ratio floor
# ---------------------------------------------------------------------------

def test_criterion_3_escape_and_ratio_floor():
    t0 = time.perf_counter()
    escape_ok = []
    for n in (16, 25):
        P = mb.lazy_simple_walk(mb.complete_graph(n))
        params = mb.default_params(P)
        floor = 2.0 ** (-4 * params.sigma)
        for p_hat, se in mb.milestone_escape_estimates(P, params, 10_000, seed=(0, n)):
            escape_ok.append(p_hat >= floor - 3 * se)

    P4 = mb.lazy_simple_walk(mb.complete_graph(4))
    params4 = mb.default_params(P4)
    ratio = mb.ratio_property_check(P4, params4, subsets=200, seed=0)
    elapsed = time.perf_counter() - t0
    report("3", all(escape_ok) and ratio.passed and elapsed < 300.0,
           f"{len(escape_ok)} escape estimates clear the floor; subset ratio "
           f"min {ratio.min_ratio:.4f} >= {ratio.threshold:.4f} over "
           f"{ratio.subsets_checked} subsets; {elapsed:.1f}s (< 300s)")


# ---------------------------------------------------------------------------
# 4. Spectral / bottleneck / expansion inequality chain
# ---------------------------------------------------------------------------

def test_criterion_4_inequality_chain():
    results = run_verify(checks=["B1_cheeger_sandwich", "B_spectral_mixing",
                                 "B2_expansion_bound"],
                         caps=VerifyCaps(max_n=12), seed=0)
    failing = [r.name for r in results if not r.passed]
    report("4", not failing,
           "; ".join(f"{r.name}: {r.details}" for r in results))


# ---------------------------------------------------------------------------
# 5. Spectral regression on cycles and the two-vertex chain
# ---------------------------------------------------------------------------

def test_criterion_5_spectral_regression():
    worst = 0.0
    for n in range(4, 65):
        P = mb.lazy_simple_walk(mb.cycle_graph(n))
        lam, _ = mb.spectral_gap(P)
        expected = (1 + math.cos(2 * math.pi / n)) / 2
        worst = max(worst, abs(lam - expected))
    P2 = mb.lazy_simple_walk(mb.complete_graph(2))
    lam2, _ = mb.spectral_gap(P2)
    t_mix = mb.mixing_time(P2, 0.25)
    report("5", worst <= 1e-9 and abs(lam2) <= 1e-12 and t_mix == 1,
           f"cycle eigenvalue error {worst:.2e} (<= 1e-9); two-vertex chain "
           f"lambda2={lam2:.1e}, t_mix={t_mix}")


# ---------------------------------------------------------------------------
# 6. Solver correctness (a) and query/bound ordering (b)
# ---------------------------------------------------------------------------

def test_criterion_6a_solver_correctness():
    t0 = time.perf_counter()
    systems = [
        ("complete:16", "lazy-simple"),
        ("hypercube:4", "lazy-simple"),
        ("cycle:9", "metropolis"),
        ("barbell:8", "max-degree"),
    ]
    total = wrong = 0
    for gspec, kind in systems:
        g = mb.graph_from_spec(gspec)
        P = mb.build_chain(g, kind)
        params = mb.default_params(P)
        for k in range(250):
            inst = mb.sample_instance(P, params, (17, total))
            for name in ("steepest", "warm-start", "exhaustive"):
                res = mb.run_solver(name, mb.search_oracle(inst), g,
                                    seed=np.random.default_rng((18, total, hash(name) % 997)))
                wrong += res.vertex != inst.minimum
            total += 1
    elapsed = time.perf_counter() - t0
    report("6a", total == 1000 and wrong == 0 and elapsed < 300.0,
           f"{total} instances x 3 solvers, {wrong} misses, {elapsed:.1f}s (< 300s)")


def test_criterion_6b_query_bound_ordering():
    t0 = time.perf_counter()
    stats = []
    for d in (4, 6, 8):
        g = mb.hypercube_graph(d)
        P = mb.lazy_simple_walk(g)
        params = mb.default_params(P)
        bound = mb.bound_values(g.n, params.T, params.sigma)["mixing"]
        queries = []
        for k in range(50):
            inst = mb.sample_instance(P, params, (23, d, k))
            res = mb.warm_start_descent(mb.search_oracle(inst), g,
                                        seed=np.random.default_rng((29, d, k)))
            assert res.vertex == inst.minimum
            queries.append(res.distinct_queries)
        stats.append((d, bound, statistics.fmean(queries)))
    elapsed = time.perf_counter() - t0
    # ordering check: mean queries must be nondecreasing in the bound value
    violations = [
        (a, b) for a, b in itertools.combinations(stats, 2)
        if (a[1] < b[1] and a[2] > b[2]) or (b[1] < a[1] and b[2] > a[2])
    ]
    table = ", ".join(f"d={d}: bound={b:.5f} mean_queries={q:.1f}"
                      for d, b, q in stats)
    report("6b", not violations and elapsed < 300.0,
           f"{table}; violations={violations}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Seeded determinism of CLI output
# ---------------------------------------------------------------------------

def test_criterion_7_cli_determinism():
    commands = [
        ("graph", "gen", "--graph", "random-regular:8,3", "--seed", "5"),
        ("chain", "analyze", "--graph", "hypercube:3", "--chain", "max-degree"),
        ("chain", "analyze", "--graph", "random-regular:64,4", "--seed", "2"),
        ("instance", "sample", "--graph", "complete:16", "--chain",
         "lazy-simple", "--seed", "3"),
        ("bench", "--graph", "complete:9", "--chain", "lazy-simple",
         "--trials", "3", "--seed", "11"),
        ("verify", "--checks", "A7_monotone_grid,B2_expansion_bound",
         "--seed", "0"),
        ("bound", "--graph", "complete:16", "--chain", "lazy-simple"),
    ]
    mismatched = []
    for cmd in commands:
        first = run_cli(*cmd)
        second = run_cli(*cmd)
        if first != second:
            mismatched.append(cmd[0])
        if first[0] != 0:
            mismatched.append((cmd[0], "exit", first[0]))
    report("7", not mismatched,
           f"{len(commands)} commands byte-identical on repeat; "
           f"mismatches={mismatched}")
