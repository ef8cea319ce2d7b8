"""Query-counting oracles and local-search solvers.

The reported complexity metric is the number of distinct vertices
queried: algorithms may re-query freely (the oracle memoizes), since
only new vertices yield information. Tie-breaking is always by smallest
vertex label so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import filterfalse

import numpy as np

from .errors import InputError
from .graphs import Graph, _check_vertex, degree_stats
from .staircase import StaircaseInstance, _as_function


class CountingOracle:
    """Memoizing query counter around a vertex -> value function.

    ``total_queries`` counts every query, ``distinct_queries`` only first
    touches; replays return the cached value.
    """

    def __init__(self, fn, n: int):
        self._fn = fn
        self.n = n
        self.total_queries = 0
        self.distinct_queries = 0
        self.memo: dict[int, object] = {}

    def query(self, v: int):
        return self.query_many((v,))[0]

    def query_many(self, vertices) -> list:
        """The vertices' values in order. Counters and memo end as after one query
        per vertex in order, and fn runs once per new vertex. An invalid vertex raises
        InputError once the ones before it are queried; only that path goes one by one."""
        vs = list(vertices)
        types = set(map(type, vs)) - {int}
        # sorted's compares are specialised to int: it finds both ends faster than min, max
        if types and not all(t is not bool and issubclass(t, (int, np.integer))
                             for t in types) \
                or vs and not (1 <= (ends := sorted(vs))[0] and ends[-1] <= self.n):
            for i, v in enumerate(vs):
                if type(v) is bool or not isinstance(v, (int, np.integer)) \
                        or not 1 <= v <= self.n:
                    self.query_many(vs[:i])
                    raise InputError(f"vertex {v!r} out of range 1..{self.n}")
        vs = list(map(int, vs)) if types else vs
        fresh = dict.fromkeys(vs)
        new = list(filterfalse(self.memo.__contains__, fresh) if self.memo else fresh)
        values = list(map(self._fn, new))
        self.memo.update(zip(new, values))
        self.total_queries += len(vs)
        self.distinct_queries += len(new)
        # with no repeat and no memo hit, new is vs and values are already in order
        return values if len(new) == len(vs) else list(map(self.memo.__getitem__, vs))


def search_oracle(inst: StaircaseInstance) -> CountingOracle:
    """Oracle over the value table (the search problem), read by the
    table's own __getitem__ from slot v of a copy with a slot 0 before
    vertex 1: the oracle has checked v, so slot 0 is never read."""
    return CountingOracle((0, *inst.values).__getitem__, inst.graph.n)


def decision_oracle(inst: StaircaseInstance) -> CountingOracle:
    """Oracle over (value, tag) pairs; the hidden bit sits at the unique
    local minimum and every other tag is -1. Pairs compare like the plain
    values, so the search solvers run unchanged."""
    values, end, bit = inst.values, inst.minimum, inst.bit
    return CountingOracle(lambda v: (values[v - 1], bit if v == end else -1), inst.graph.n)


def function_oracle(g: Graph, f) -> CountingOracle:
    """Oracle over an arbitrary vertex -> value mapping on g."""
    return CountingOracle(_as_function(f), g.n)


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
        nbrs = (g.indices[g.indptr[current - 1]:g.indptr[current]] + 1).tolist()
        values = oracle.query_many(nbrs)
        best = min(values)
        if not best < value:
            return SolverResult(vertex=current,
                                total_queries=oracle.total_queries,
                                distinct_queries=oracle.distinct_queries,
                                moves=moves)
        current, value = nbrs[values.index(best)], best
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
    samples = rng.integers(1, g.n + 1, size=m).tolist()
    _, best_vertex = min(zip(oracle.query_many(samples), samples))
    return steepest_descent(oracle, g, best_vertex)


def exhaustive_search(oracle: CountingOracle, g: Graph) -> SolverResult:
    """Query every vertex and return the global minimum."""
    values = oracle.query_many(range(1, g.n + 1))
    return SolverResult(vertex=values.index(min(values)) + 1,
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
