import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

import mixbound as mb
from mixbound.errors import CapabilityError, InputError


def brute_edge_expansion(g):
    # independent recomputation: scan subsets via itertools
    best = float("inf")
    for size in range(1, g.n // 2 + 1):
        for sub in itertools.combinations(range(1, g.n + 1), size):
            s = set(sub)
            cut = sum(1 for u, v in g.edges if (u in s) != (v in s))
            best = min(best, cut / size)
    return best


def test_bfs_path():
    g = mb.path_graph(3)
    assert mb.bfs_distances(g, 1) == [0, 1, 2]
    assert mb.bfs_distances(g, 2) == [1, 0, 1]


def test_bfs_source_is_zero():
    for g in (mb.cycle_graph(5), mb.barbell_graph(6), mb.hypercube_graph(3)):
        for s in range(1, g.n + 1):
            assert mb.bfs_distances(g, s)[s - 1] == 0


def test_bfs_source_out_of_range():
    g = mb.path_graph(3)
    with pytest.raises(InputError):
        mb.bfs_distances(g, 4)
    with pytest.raises(InputError):
        mb.bfs_distances(g, 0)


def test_hypercube_distances_are_hamming():
    g = mb.hypercube_graph(3)
    for s in range(1, g.n + 1):
        dist = mb.bfs_distances(g, s)
        for v in range(1, g.n + 1):
            assert dist[v - 1] == bin((s - 1) ^ (v - 1)).count("1")


def test_degree_stats():
    assert mb.degree_stats(mb.cycle_graph(5))[:2] == (2, 2)
    assert mb.degree_stats(mb.path_graph(3))[:2] == (1, 2)
    d_min, d_max, degrees = mb.degree_stats(mb.barbell_graph(10))
    assert (d_min, d_max) == (4, 5)
    assert sorted(degrees).count(5) == 2  # the two bridge endpoints


def test_edge_expansion_examples():
    assert mb.edge_expansion(mb.complete_graph(2)) == 1.0
    assert mb.edge_expansion(mb.cycle_graph(6)) == pytest.approx(2 / 3, abs=1e-12)
    assert mb.edge_expansion(mb.complete_graph(4)) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("g", [
    mb.cycle_graph(7), mb.path_graph(6), mb.complete_graph(5),
    mb.hypercube_graph(3), mb.torus_graph(3, 3), mb.barbell_graph(8),
    mb.random_regular_graph(8, 3, seed=7),
], ids=["cycle7", "path6", "k5", "cube3", "torus33", "barbell8", "rr83"])
def test_edge_expansion_matches_bruteforce(g):
    assert mb.edge_expansion(g) == pytest.approx(brute_edge_expansion(g), abs=1e-12)


def test_edge_expansion_cap():
    with pytest.raises(CapabilityError, match="20"):
        mb.edge_expansion(mb.cycle_graph(25))


def test_cycle_edges():
    g = mb.cycle_graph(4)
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})


def test_barbell_structure():
    g = mb.barbell_graph(10)
    assert len(g.edges) == 21  # 2 * C(5,2) + 1
    assert g.has_edge(5, 6)


def test_random_regular():
    g = mb.random_regular_graph(8, 3, seed=7)
    assert all(g.degree(v) == 3 for v in range(1, 9))
    assert all(d >= 0 for d in mb.bfs_distances(g, 1))
    again = mb.random_regular_graph(8, 3, seed=7)
    assert again.edges == g.edges


def test_random_regular_bad_params():
    with pytest.raises(InputError):
        mb.random_regular_graph(5, 3, seed=1)  # odd n*d
    with pytest.raises(InputError):
        mb.random_regular_graph(4, 4, seed=1)  # d >= n


def test_generator_invariants():
    graphs = [
        mb.cycle_graph(9), mb.path_graph(5), mb.complete_graph(6),
        mb.hypercube_graph(4), mb.torus_graph(3, 4), mb.barbell_graph(6),
        mb.random_regular_graph(10, 3, seed=3),
    ]
    for g in graphs:
        dist = mb.bfs_distances(g, 1)
        assert all(d >= 0 for d in dist)
        for v in range(1, g.n + 1):
            for u in g.neighbors(v):
                assert v in g.neighbors(u)
            assert g.neighbors(v) == tuple(sorted(g.neighbors(v)))


def test_start_distances_match_bfs():
    graphs = [
        mb.cycle_graph(9), mb.path_graph(5), mb.complete_graph(6),
        mb.hypercube_graph(4), mb.torus_graph(3, 4), mb.barbell_graph(6),
        mb.random_regular_graph(10, 3, seed=3),
    ]
    for g in graphs:
        expected = tuple(mb.bfs_distances(g, 1))
        assert g.start_distances == expected
        assert mb.graph_from_json(mb.graph_to_json(g)).start_distances == expected
        flipped = replace(g, vertex_transitive=not g.vertex_transitive)
        assert flipped.start_distances == expected


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(0)
    for g in (mb.torus_graph(3, 3), mb.barbell_graph(10), mb.hypercube_graph(4)):
        rows = [mb.bfs_distances(g, s) for s in range(1, g.n + 1)]
        for _ in range(200):
            a, b, c = (int(x) for x in rng.integers(1, g.n + 1, size=3))
            assert rows[a - 1][c - 1] <= rows[a - 1][b - 1] + rows[b - 1][c - 1]


def test_make_graph_rejects_bad_input():
    with pytest.raises(InputError, match="self-loop"):
        mb.make_graph(3, [(1, 1), (1, 2), (2, 3)])
    with pytest.raises(InputError, match="duplicate"):
        mb.make_graph(3, [(1, 2), (2, 1), (2, 3)])
    with pytest.raises(InputError, match="connected"):
        mb.make_graph(4, [(1, 2), (3, 4)])
    with pytest.raises(InputError):
        mb.make_graph(3, [(1, 5)])


def test_graph_json_roundtrip():
    g = mb.barbell_graph(8)
    doc = mb.graph_to_json(g)
    back = mb.graph_from_json(doc)
    assert back.n == g.n and back.edges == g.edges


def test_vertex_transitive_flag():
    for g in (mb.cycle_graph(5), mb.complete_graph(4), mb.hypercube_graph(3),
              mb.torus_graph(3, 4)):
        assert g.vertex_transitive
        doc = mb.graph_to_json(g)
        back = mb.graph_from_json(doc)
        assert not back.vertex_transitive
        assert back == g and hash(back) == hash(g)
        assert json.dumps(mb.graph_to_json(back)) == json.dumps(doc)
        assert "vertex_transitive" not in doc
    for g in (mb.path_graph(5), mb.barbell_graph(6),
              mb.random_regular_graph(8, 3, seed=0)):
        assert not g.vertex_transitive


def test_graph_from_spec():
    from mixbound.graphs import graph_from_spec
    assert graph_from_spec("cycle:5").n == 5
    assert graph_from_spec("hypercube:3").n == 8
    assert graph_from_spec("torus2d:3x4").n == 12
    assert graph_from_spec("random-regular:8,3", seed=1).n == 8
    with pytest.raises(InputError):
        graph_from_spec("cycle")
    with pytest.raises(InputError):
        graph_from_spec("mystery:4")
    with pytest.raises(InputError):
        graph_from_spec("random-regular:8,3")  # seed required
