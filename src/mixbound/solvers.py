"""Query-counting oracles and local-search solvers.

The reported complexity metric is the number of distinct vertices
queried: algorithms may re-query freely (the oracle memoizes), since
only new vertices yield information. Tie-breaking is always by smallest
vertex label so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import Graph, _check_vertex, degree_stats
from .staircase import StaircaseInstance


class CountingOracle:
    """Memoizing query counter around a vertex -> value function.

    ``total_queries`` counts every call, ``distinct_queries`` only first
    touches; replays return the cached value.
    """

    def __init__(self, fn, n: int):
        self._fn = fn
        self.n = n
        self.total_queries = 0
        self.distinct_queries = 0
        self.memo: dict[int, object] = {}

    def query(self, v: int):
        if type(v) is bool or not isinstance(v, (int, np.integer)) or not 1 <= v <= self.n:
            raise InputError(f"vertex {v!r} out of range 1..{self.n}")
        v = int(v)
        self.total_queries += 1
        if v not in self.memo:
            self.distinct_queries += 1
            self.memo[v] = self._fn(v)
        return self.memo[v]


def search_oracle(inst: StaircaseInstance) -> CountingOracle:
    """Oracle over the instance's value function (the search problem)."""
    return CountingOracle(inst.value, inst.graph.n)


def decision_oracle(inst: StaircaseInstance) -> CountingOracle:
    """Oracle over (value, tag) pairs; the hidden bit sits at the unique
    local minimum and every other tag is -1. Pairs compare like the plain
    values, so the search solvers run unchanged."""
    return CountingOracle(inst.decision_value, inst.graph.n)


def function_oracle(g: Graph, f) -> CountingOracle:
    """Oracle over an arbitrary vertex -> value mapping on g."""
    fn = f if callable(f) else (lambda v: f[v])
    return CountingOracle(fn, g.n)


@dataclass(frozen=True)
class SolverResult:
    vertex: int
    total_queries: int
    distinct_queries: int
    moves: int = 0


def steepest_descent(oracle: CountingOracle, g: Graph, start: int) -> SolverResult:
    """Move to the smallest-valued neighbor while one improves on the
    current vertex; the result is a verified local minimum."""
    _check_vertex(g, start)
    current = start
    value = oracle.query(current)
    moves = 0
    while True:
        best_vertex, best_value = None, value
        for u in (g.indices[g.indptr[current - 1]:g.indptr[current]] + 1).tolist():
            u_value = oracle.query(u)
            if u_value < best_value:
                best_vertex, best_value = u, u_value
        if best_vertex is None:
            return SolverResult(vertex=current,
                                total_queries=oracle.total_queries,
                                distinct_queries=oracle.distinct_queries,
                                moves=moves)
        current, value = best_vertex, best_value
        moves += 1


def warm_start_descent(oracle: CountingOracle, g: Graph, m: int | None = None,
                       seed=None) -> SolverResult:
    """Query m uniform vertices (with replacement), then descend from the
    best sample. m defaults to ceil(sqrt(n * d_max))."""
    if m is None:
        _, d_max, _ = degree_stats(g)
        m = math.ceil(math.sqrt(g.n * d_max))
    if m < 1:
        raise InputError(f"sample count must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    best_vertex, best_value = None, None
    for v in rng.integers(1, g.n + 1, size=m):
        v = int(v)
        value = oracle.query(v)
        if best_value is None or value < best_value or \
                (value == best_value and v < best_vertex):
            best_vertex, best_value = v, value
    return steepest_descent(oracle, g, best_vertex)


def exhaustive_search(oracle: CountingOracle, g: Graph) -> SolverResult:
    """Query every vertex and return the global minimum."""
    best_vertex, best_value = None, None
    for v in range(1, g.n + 1):
        value = oracle.query(v)
        if best_value is None or value < best_value:
            best_vertex, best_value = v, value
    return SolverResult(vertex=best_vertex,
                        total_queries=oracle.total_queries,
                        distinct_queries=oracle.distinct_queries)


SOLVER_NAMES = ("steepest", "warm-start", "exhaustive")


def run_solver(name: str, oracle: CountingOracle, g: Graph, *,
               start: int = 1, seed=None) -> SolverResult:
    if name == "steepest":
        return steepest_descent(oracle, g, start)
    if name == "warm-start":
        return warm_start_descent(oracle, g, seed=seed)
    if name == "exhaustive":
        return exhaustive_search(oracle, g)
    raise InputError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")


def solve_decision(inst: StaircaseInstance, solver: str = "steepest", *,
                   seed=None) -> tuple[int, SolverResult]:
    """Recover the hidden bit: solve the search problem against the tagged
    oracle, then read the tag at the minimum (already memoized, so this
    costs no extra query)."""
    oracle = decision_oracle(inst)
    result = run_solver(solver, oracle, inst.graph, seed=seed)
    _, tag = oracle.memo[result.vertex]
    return tag, result
