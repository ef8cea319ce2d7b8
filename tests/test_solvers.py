import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import mixbound as mb
from mixbound.chains import build_chain
from mixbound.errors import InputError
from mixbound.graphs import _check_vertex, degree_stats


@pytest.fixture()
def k3_instance(k3_chain, k3_params):
    walk = mb.make_walk(k3_chain, (1, 2, 3))
    return mb.make_instance(walk, 1, k3_params)


def test_oracle_counters(k3_instance):
    oracle = mb.search_oracle(k3_instance)
    assert oracle.total_queries == 0 and oracle.distinct_queries == 0
    oracle.query(2)
    oracle.query(2)
    assert oracle.total_queries == 2
    assert oracle.distinct_queries == 1
    for v in (1, 2, 3):
        oracle.query(v)
    assert oracle.distinct_queries == 3


def test_oracle_memo_replay(k3_instance):
    oracle = mb.search_oracle(k3_instance)
    first = oracle.query(3)
    assert oracle.query(3) == first


def test_oracle_out_of_range(k3_instance):
    oracle = mb.search_oracle(k3_instance)
    with pytest.raises(InputError):
        oracle.query(0)
    with pytest.raises(InputError):
        oracle.query(4)


@pytest.mark.parametrize("vertex", [True, np.True_])
def test_bool_is_not_a_vertex(k3_chain, k3_instance, vertex):
    # bool is an int subclass, so a plain range check took True for vertex 1
    calls = [lambda: mb.sample_walk(k3_chain, vertex, 3, seed=1),
             lambda: k3_chain.prob(vertex, 1),
             lambda: mb.bfs_distances(k3_chain.graph, vertex),
             lambda: mb.search_oracle(k3_instance).query(vertex)]
    for call in calls:
        with pytest.raises(InputError, match="out of range"):
            call()


def test_steepest_descent_k3(k3_instance):
    oracle = mb.search_oracle(k3_instance)
    res = mb.steepest_descent(oracle, k3_instance.graph, 1)
    assert res.vertex == 3
    assert res.distinct_queries == 3


def test_steepest_from_minimum(k3_instance):
    g = k3_instance.graph
    oracle = mb.search_oracle(k3_instance)
    res = mb.steepest_descent(oracle, g, 3)
    assert res.vertex == 3
    assert res.total_queries == 1 + g.degree(3)
    assert res.moves == 0


def test_steepest_lands_on_local_minimum():
    P = mb.lazy_simple_walk(mb.torus_graph(3, 3))
    params = mb.default_params(P)
    for seed in range(10):
        inst = mb.sample_instance(P, params, seed)
        res = mb.steepest_descent(mb.search_oracle(inst), inst.graph, 1)
        assert res.vertex in mb.local_minima(inst.graph, inst.value)
        assert res.vertex == inst.minimum


def test_steepest_tie_breaks_smallest_label():
    g = mb.cycle_graph(4)
    values = {1: 5, 2: 1, 3: 9, 4: 1}  # neighbors of 1 tie at value 1
    oracle = mb.function_oracle(g, values)
    res = mb.steepest_descent(oracle, g, 1)
    assert res.vertex == 2


def test_warm_start_counts():
    P = mb.lazy_simple_walk(mb.hypercube_graph(3))
    params = mb.default_params(P)
    inst = mb.sample_instance(P, params, 3)
    g = inst.graph
    m = 5
    res = mb.warm_start_descent(mb.search_oracle(inst), g, m=m, seed=1)
    assert res.total_queries >= m
    assert res.total_queries >= g.degree(res.vertex)
    assert res.vertex == inst.minimum


def test_warm_start_default_sample_count():
    P = mb.lazy_simple_walk(mb.hypercube_graph(3))
    params = mb.default_params(P)
    inst = mb.sample_instance(P, params, 5)
    res = mb.warm_start_descent(mb.search_oracle(inst), inst.graph, seed=0)
    assert res.total_queries >= math.ceil(math.sqrt(8 * 3))
    assert res.vertex == inst.minimum


def test_warm_start_scaling_hypercube6():
    # mean distinct queries stays within a factor 4 of sqrt(n * d_max)
    P = mb.lazy_simple_walk(mb.hypercube_graph(6))
    params = mb.default_params(P)
    target = math.sqrt(64 * 6)
    counts = []
    for t in range(100):
        inst = mb.sample_instance(P, params, (11, t))
        res = mb.warm_start_descent(mb.search_oracle(inst), inst.graph,
                                    seed=np.random.default_rng((12, t)))
        assert res.vertex == inst.minimum
        counts.append(res.distinct_queries)
    mean = sum(counts) / len(counts)
    assert target / 4 <= mean <= target * 4


def test_exhaustive(k3_instance):
    oracle = mb.search_oracle(k3_instance)
    res = mb.exhaustive_search(oracle, k3_instance.graph)
    assert res.vertex == 3
    assert res.distinct_queries == 3
    assert res.total_queries == 3


def test_solver_determinism():
    P = mb.lazy_simple_walk(mb.complete_graph(16))
    params = mb.default_params(P)
    inst = mb.sample_instance(P, params, 21)
    runs = [mb.warm_start_descent(mb.search_oracle(inst), inst.graph, seed=9)
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_run_solver_names(k3_instance):
    g = k3_instance.graph
    for name in mb.solvers.SOLVER_NAMES:
        res = mb.run_solver(name, mb.search_oracle(k3_instance), g, seed=0)
        assert res.vertex == 3
    with pytest.raises(InputError):
        mb.run_solver("gradient", mb.search_oracle(k3_instance), g)


def test_decision_mode_reveals_bit():
    P = mb.lazy_simple_walk(mb.complete_graph(16))
    params = mb.default_params(P)
    for seed in range(10):
        inst = mb.sample_instance(P, params, seed)
        bit, res = mb.solve_decision(inst, "steepest")
        assert bit == inst.bit
        # additive-1 coupling: decision costs no more distinct queries than
        # solving the search problem on the same oracle values
        search = mb.steepest_descent(mb.search_oracle(inst), inst.graph, 1)
        assert res.distinct_queries <= search.distinct_queries + 1


def test_decision_tags_elsewhere_minus_one():
    P = mb.lazy_simple_walk(mb.complete_graph(8))
    params = mb.default_params(P)
    inst = mb.sample_instance(P, params, 2)
    oracle = mb.decision_oracle(inst)
    for v in range(1, 9):
        value, tag = oracle.query(v)
        assert tag == (inst.bit if v == inst.minimum else -1)


# ---------------------------------------------------------------------------
# The batched query path against the per-vertex loop it replaced
# ---------------------------------------------------------------------------

class _ReferenceOracle:
    """The per-vertex ``query`` that ``query_many`` replaced, kept as its
    reference: same counters, memo, fn calls and error messages."""

    def __init__(self, fn, n):
        self._fn, self.n = fn, n
        self.total_queries = self.distinct_queries = 0
        self.memo = {}

    def query(self, v):
        if type(v) is bool or not isinstance(v, (int, np.integer)) or not 1 <= v <= self.n:
            raise InputError(f"vertex {v!r} out of range 1..{self.n}")
        v = int(v)
        self.total_queries += 1
        if v not in self.memo:
            self.distinct_queries += 1
            self.memo[v] = self._fn(v)
        return self.memo[v]


def _reference_steepest(oracle, g, start):
    _check_vertex(g, start)
    current, value, moves = start, oracle.query(start), 0
    while True:
        best_vertex, best_value = None, value
        for u in (g.indices[g.indptr[current - 1]:g.indptr[current]] + 1).tolist():
            u_value = oracle.query(u)
            if u_value < best_value:
                best_vertex, best_value = u, u_value
        if best_vertex is None:
            return mb.SolverResult(current, oracle.total_queries, oracle.distinct_queries,
                                   moves)
        current, value = best_vertex, best_value
        moves += 1


def _reference_warm_start(oracle, g, m=None, seed=None):
    if m is None:
        m = math.ceil(math.sqrt(g.n * degree_stats(g)[1]))
    best_vertex, best_value = None, None
    for v in np.random.default_rng(seed).integers(1, g.n + 1, size=m):
        v = int(v)
        value = oracle.query(v)
        if best_value is None or value < best_value or \
                (value == best_value and v < best_vertex):
            best_vertex, best_value = v, value
    return _reference_steepest(oracle, g, best_vertex)


def _reference_exhaustive(oracle, g):
    best_vertex, best_value = None, None
    for v in range(1, g.n + 1):
        value = oracle.query(v)
        if best_value is None or value < best_value:
            best_vertex, best_value = v, value
    return mb.SolverResult(best_vertex, oracle.total_queries, oracle.distinct_queries)


def _state(oracle):
    return oracle.total_queries, oracle.distinct_queries, list(oracle.memo.items())


def _assert_solvers_match(new_oracle, ref_oracle, g, seeds=(0, 1), starts=(1,), ms=(None,)):
    """Every solver on fresh oracles from the two factories gives the same
    result, counters and memo (in insertion order) as its reference loop."""
    runs = [(mb.exhaustive_search, _reference_exhaustive, ())]
    runs += [(mb.steepest_descent, _reference_steepest, (s,)) for s in starts]
    runs += [(lambda o, g, m, s: mb.warm_start_descent(o, g, m=m, seed=s),
              _reference_warm_start, (m, s)) for m in ms for s in seeds]
    for solver, reference, args in runs:
        new, ref = new_oracle(), ref_oracle()
        assert solver(new, g, *args) == reference(ref, g, *args), args
        assert _state(new) == _state(ref), args
        assert all(type(v) is int for v in new.memo)


def _system(spec, kind="lazy-simple"):
    g = mb.graph_from_spec(spec, seed=0)
    P = build_chain(g, kind)
    return g, P, mb.default_params(P)


@pytest.mark.parametrize("spec,kind", [("hypercube:8", "lazy-simple"),
                                       ("torus2d:5x5", "lazy-simple"),
                                       ("random-regular:64,3", "lazy-simple"),
                                       ("barbell:10", "max-degree")])
def test_solvers_match_per_vertex_reference(spec, kind):
    g, P, params = _system(spec, kind)
    for trial in range(4):
        inst = mb.sample_instance(P, params, trial)
        starts = (1, inst.minimum, g.n)
        _assert_solvers_match(lambda: mb.search_oracle(inst),
                              lambda: _ReferenceOracle(inst.value, g.n),
                              g, seeds=(trial, (trial, 1)), starts=starts, ms=(None, 1, 5))
        # decision values tie on the tag wherever the plain values tie
        _assert_solvers_match(lambda: mb.decision_oracle(inst),
                              lambda: _ReferenceOracle(inst.decision_value, g.n),
                              g, seeds=(trial,), starts=starts)
        tag, result = mb.solve_decision(inst, "warm-start", seed=trial)
        assert tag == inst.bit and result.vertex == inst.minimum


@pytest.mark.parametrize("spec", ["cycle:12", "hypercube:5", "barbell:6"])
def test_solvers_match_reference_on_tied_values(spec):
    g = mb.graph_from_spec(spec)
    rng = np.random.default_rng(5)
    for levels in (1, 2, 3):
        table = {v: int(x) for v, x in enumerate(rng.integers(0, levels, g.n), 1)}
        for f in (table, table.__getitem__):
            _assert_solvers_match(lambda: mb.function_oracle(g, f),
                                  lambda: _ReferenceOracle(table.__getitem__, g.n),
                                  g, seeds=(0, 1, 2), starts=range(1, g.n + 1),
                                  ms=(None, 1, 4))


def test_query_many_of_nothing(k3_instance):
    oracle = mb.search_oracle(k3_instance)
    assert oracle.query_many(()) == [] and oracle.query_many(iter([])) == []
    assert _state(oracle) == (0, 0, [])
    oracle.query_many([2, 2])
    assert oracle.query_many(()) == [] and _state(oracle) == (2, 1, [(2, -1)])


def _vertex_items(n):
    valid = hst.integers(1, n)
    return hst.one_of(valid, valid, valid,
                      valid.map(np.int64), valid.map(np.uint8), valid.map(np.int32))


_BAD_VERTICES = (0, -1, 10**20, True, np.True_, np.False_, 2.0, "1", None, np.int64(0),
                 np.float64(1.0))


@settings(max_examples=200, deadline=None)
@given(n=hst.integers(1, 12), data=hst.data())
def test_query_many_matches_per_vertex_loop(n, data):
    """Batches with repeats, numpy integers and at most one invalid vertex
    leave the counters, memo, fn calls, values and error as the reference
    loop does."""
    calls, ref_calls = [], []
    new = mb.CountingOracle(lambda v: calls.append(v) or (v * 7 % 5, -1), n)
    ref = _ReferenceOracle(lambda v: ref_calls.append(v) or (v * 7 % 5, -1), n)
    for _ in range(data.draw(hst.integers(1, 4))):
        batch = data.draw(hst.lists(_vertex_items(n), max_size=3 * n))
        if data.draw(hst.booleans()):
            bad = data.draw(hst.sampled_from(_BAD_VERTICES + (n + 1,)))
            batch.insert(data.draw(hst.integers(0, len(batch))), bad)
        form = data.draw(hst.sampled_from([list, tuple, iter]))
        want, error = [], None
        try:
            for v in batch:
                want.append(ref.query(v))
        except InputError as exc:
            error = str(exc)
        if error is None:
            assert new.query_many(form(batch)) == want
        else:
            with pytest.raises(InputError) as caught:
                new.query_many(form(batch))
            assert str(caught.value) == error
        assert _state(new) == _state(ref) and calls == ref_calls
        assert all(type(v) is int for v in new.memo)
    for v in range(1, n + 1):
        assert new.query(v) == ref.query(v)
    assert _state(new) == _state(ref) and calls == ref_calls
