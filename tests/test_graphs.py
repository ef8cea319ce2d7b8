import itertools
import json
import time
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import mixbound as mb
from mixbound.errors import CapabilityError, InputError
from mixbound.graphs import MAX_EDGES, _check_edge_count


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
    assert g.edges.tolist() == [[1, 2], [1, 4], [2, 3], [3, 4]]


def test_barbell_structure():
    g = mb.barbell_graph(10)
    assert len(g.edges) == 21  # 2 * C(5,2) + 1
    assert g.has_edge(5, 6)


def test_random_regular():
    g = mb.random_regular_graph(8, 3, seed=7)
    assert all(g.degree(v) == 3 for v in range(1, 9))
    assert all(d >= 0 for d in mb.bfs_distances(g, 1))
    again = mb.random_regular_graph(8, 3, seed=7)
    assert np.array_equal(again.edges, g.edges)


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
        expected = mb.bfs_distances(g, 1)
        assert g.start_distances.tolist() == expected
        assert mb.graph_from_json(mb.graph_to_json(g)).start_distances.tolist() == expected
        flipped = replace(g, vertex_transitive=not g.vertex_transitive)
        assert flipped.start_distances.tolist() == expected


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
    # anything but a list of pairs is refused, not re-paired
    for bad in ([(1, 2, 3), (2, 3, 1)], [1, 2, 2, 3], [(1, 2), (2, 3, 1)],
                np.array([[1, 2, 3]]), [("a", 2)]):
        with pytest.raises(InputError, match="pairs"):
            mb.make_graph(3, bad)
    with pytest.raises(InputError, match="connected"):
        mb.make_graph(3, [])


def _make_graph_oracle(n, edges):
    # set-and-deque reference: the error message, or (sorted edges,
    # neighbour tuples, distances from vertex 1)
    norm = set()
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            return f"edge ({u},{v}) has endpoint outside 1..{n}"
        if u == v:
            return f"self-loop at vertex {u} not allowed"
        key = (min(u, v), max(u, v))
        if key in norm:
            return f"duplicate edge ({key[0]},{key[1]})"
        norm.add(key)
    nbrs = [tuple(sorted({w for e in norm if v in e for w in e} - {v}))
            for v in range(1, n + 1)]
    dist = [-1] * n
    dist[0] = 0
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for w in nbrs[u - 1]:
            if dist[w - 1] < 0:
                dist[w - 1] = dist[u - 1] + 1
                queue.append(w)
    if min(dist) < 0:
        return "graph is not connected"
    return sorted(map(list, norm)), nbrs, dist


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_make_graph_matches_oracle(data):
    n = data.draw(hst.integers(min_value=2, max_value=8), label="n")
    pool = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(hst.lists(hst.sampled_from(pool), unique=True), label="edges")
    if data.draw(hst.booleans(), label="spanning path"):  # most such draws connect
        edges += [e for e in zip(range(1, n), range(2, n + 1)) if e not in edges]
    flips = data.draw(hst.lists(hst.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [e[::-1] if flip else e for e, flip in zip(edges, flips)]
    end = hst.integers(min_value=-1, max_value=n + 2)
    for _ in range(data.draw(hst.integers(min_value=0, max_value=3), label="faults")):
        fault = data.draw(hst.one_of(
            hst.tuples(end, end),  # often outside 1..n, sometimes a self-loop
            hst.integers(min_value=1, max_value=n).map(lambda v: (v, v)),
            hst.sampled_from(edges or [(1, 2)]).flatmap(
                lambda e: hst.sampled_from([e, e[::-1]])),  # a repeat either way
        ), label="fault")
        edges.insert(data.draw(hst.integers(min_value=0, max_value=len(edges))), fault)
    if data.draw(hst.booleans(), label="as array"):
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)

    want = _make_graph_oracle(n, [tuple(map(int, e)) for e in edges])
    if isinstance(want, str):
        with pytest.raises(InputError) as exc:
            mb.make_graph(n, edges)
        assert str(exc.value) == want
    else:
        g = mb.make_graph(n, edges)
        assert sorted(map(list, g.edges)) == want[0]
        assert [g.neighbors(v) for v in range(1, n + 1)] == want[1]
        assert list(g.start_distances) == want[2]


@pytest.mark.parametrize("spec", [
    "hypercube:22", "complete:8193", "barbell:12000", "torus2d:5000x5000",
    "cycle:40000000", "random-regular:20000000,4",
])
def test_oversized_spec_refused_before_building(spec):
    start = time.perf_counter()
    with pytest.raises(CapabilityError, match=f"edges, above the generator cap of {MAX_EDGES}"):
        mb.graph_from_spec(spec, seed=0)
    assert time.perf_counter() - start < 1.0


def test_edge_cap_boundary():
    assert MAX_EDGES == 33_554_432
    _check_edge_count("hypercube:21", 21 << 20)  # 22 020 096 edges
    _check_edge_count("complete:8192", 8192 * 8191 // 2)  # 33 550 336 edges
    with pytest.raises(CapabilityError, match="33554433 edges"):
        _check_edge_count("spec", MAX_EDGES + 1)


def test_graph_json_roundtrip():
    g = mb.barbell_graph(8)
    doc = mb.graph_to_json(g)
    back = mb.graph_from_json(doc)
    assert back.n == g.n and np.array_equal(back.edges, g.edges)


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
