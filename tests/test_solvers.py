import math

import numpy as np
import pytest

import mixbound as mb
from mixbound.errors import InputError


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
