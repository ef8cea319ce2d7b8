import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import mixbound as mb
from mixbound.errors import CapabilityError, InputError, VacuousRegimeWarning


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def test_default_params_k2(k2_chain):
    with pytest.warns(VacuousRegimeWarning):
        params = mb.default_params(k2_chain)
    assert params.sigma == 1.0
    assert params.T == 1  # mixing time at eps = 1/4
    assert params.L == 1  # floor(sqrt(2)) * T
    assert params.m == 1
    assert params.is_default


def test_default_params_k16():
    P = mb.lazy_simple_walk(mb.complete_graph(16))
    params = mb.default_params(P)
    assert params.m == 4
    assert params.L == 4 * params.T


def test_default_params_hypercube8():
    params = mb.default_params(mb.lazy_simple_walk(mb.hypercube_graph(8)))
    assert params.T == 48


def test_custom_params_flagged(k3_chain):
    params = mb.custom_params(k3_chain, T=1, L=2)
    assert not params.is_default
    assert params.m == 2


def test_custom_params_validation(k3_chain):
    with pytest.raises(InputError):
        mb.custom_params(k3_chain, T=2, L=3)
    with pytest.raises(InputError):
        mb.custom_params(k3_chain, T=0, L=0)


def test_default_params_requires_chain_properties():
    g = mb.cycle_graph(3)
    biased = mb.make_chain(g, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    with pytest.raises(CapabilityError):
        mb.default_params(biased)


# ---------------------------------------------------------------------------
# Milestones, heads, tails
# ---------------------------------------------------------------------------

def test_milestones_examples():
    assert mb.milestones((1, 2, 3), 1) == (1, 2, 3)
    assert mb.milestones((1, 2, 3, 4, 5), 2) == (1, 3, 5)
    w = (1, 2, 3, 4, 5, 6, 7)
    assert mb.milestones(w, 6) == (1, 7)  # T = L boundary


def test_milestones_divisibility():
    with pytest.raises(InputError):
        mb.milestones((1, 2, 3, 4), 2)  # 3 steps, T=2 does not divide


def test_is_good_walk():
    assert mb.is_good_walk((1, 2, 3), 1)
    assert not mb.is_good_walk((1, 2, 1), 1)
    assert mb.is_good_walk((1, 2, 1, 3), 3)  # interior repeat allowed


@settings(max_examples=300, deadline=None)
@given(verts=hst.lists(hst.integers(1, 6), max_size=25).map(tuple),
       T=hst.integers(-2, 8))
def test_milestones_match_comprehension(verts, T):
    # reference: the per-index comprehension, with its validation messages
    steps = len(verts) - 1
    if T < 1:
        message = f"T must be >= 1, got {T}"
    elif steps % T != 0:
        message = f"segment length {T} does not divide walk length {steps}"
    else:
        stones = tuple(verts[j * T] for j in range(steps // T + 1))
        assert mb.milestones(verts, T) == stones
        assert mb.is_good_walk(verts, T) == (len(set(stones)) == len(stones))
        return
    for fn in (mb.milestones, mb.is_good_walk):
        with pytest.raises(InputError) as err:
            fn(verts, T)
        assert str(err.value) == message


def test_head_tail_segment():
    w = (1, 2, 3, 4, 5, 6, 7)  # T=2, m=3
    assert mb.head(w, 0, 2) == (1,)
    assert mb.head(w, 2, 2) == (1, 2, 3, 4, 5)
    assert mb.tail(w, 0, 2) == (2, 3, 4, 5, 6, 7)
    assert mb.tail(w, 3, 2) == ()
    assert mb.tail_segment(w, 1, 2, 2) == (4, 5)
    assert mb.tail_segment(w, 0, 3, 2) == w[1:]
    with pytest.raises(InputError):
        mb.head(w, 4, 2)
    with pytest.raises(InputError):
        mb.tail_segment(w, 2, 1, 2)


def test_shared_head_index():
    x = (1, 2, 3)
    assert mb.shared_head_index(x, x, 1) == 2  # identical walks: J = m
    assert mb.shared_head_index((1, 2, 3), (1, 3, 2), 1) == 0
    assert mb.shared_head_index((1, 2, 3, 4, 5), (1, 2, 3, 4, 1), 2) == 1
    # same milestone but different interior still diverges
    assert mb.shared_head_index((1, 2, 3, 4, 5), (1, 3, 3, 4, 5), 2) == 0
    with pytest.raises(InputError):
        mb.shared_head_index((1, 2), (1, 2, 3), 1)


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_head_tail_partition_property(k3_chain, data):
    T = data.draw(hst.sampled_from([1, 2, 3]), label="T")
    m = data.draw(hst.integers(min_value=1, max_value=4), label="m")
    seed = data.draw(hst.integers(min_value=0, max_value=10_000), label="seed")
    walk = mb.sample_walk(k3_chain, 1, m * T, seed=seed)
    j = data.draw(hst.integers(min_value=0, max_value=m), label="j")
    assert mb.head(walk, j, T) + mb.tail(walk, j, T) == walk.vertices
    assert mb.tail_segment(walk, j, m, T) == mb.tail(walk, j, T)
    # probability factorizes across the head boundary
    if j < m:
        head_prob = mb.walk_probability(k3_chain, mb.head(walk, j, T))
        step = k3_chain.prob(walk.vertices[j * T], walk.vertices[j * T + 1])
        tail_prob = mb.walk_probability(k3_chain, mb.tail(walk, j, T))
        assert walk.probability() == pytest.approx(head_prob * step * tail_prob,
                                                   rel=1e-12)


# ---------------------------------------------------------------------------
# Instances and value functions
# ---------------------------------------------------------------------------

def make_k3_instance(k3_chain, k3_params, verts=(1, 2, 3), bit=0):
    walk = mb.make_walk(k3_chain, verts)
    return mb.make_instance(walk, bit, k3_params)


def test_f_values_k3(k3_chain, k3_params):
    inst = make_k3_instance(k3_chain, k3_params)
    assert [inst.value(v) for v in (1, 2, 3)] == [0, -1, -2]


def test_f_value_off_walk(path3_chain):
    params = mb.custom_params(path3_chain, T=1, L=2)
    walk = mb.make_walk(path3_chain, (1, 2, 2))
    inst = mb.make_instance(walk, 0, params)
    assert inst.value(3) == 2  # distance to vertex 1
    assert inst.value(2) == -2  # last occurrence wins
    with pytest.raises(InputError):
        inst.value(4)


def test_f_minimum_is_walk_end(k3_chain, k3_params):
    for seed in range(20):
        inst = mb.sample_instance(k3_chain, k3_params, seed)
        values = [inst.value(v) for v in range(1, 4)]
        assert inst.value(inst.minimum) == -inst.params.L
        assert min(values) == -inst.params.L
        assert values.count(-inst.params.L) == 1


def test_sample_instance_keeps_integer_seeds_only(k3_chain, k3_params):
    # a numpy integer seed was stored as None, and True was stored as True
    # and written out as "seed": true
    plain = mb.sample_instance(k3_chain, k3_params, 3)
    for seed in (3, np.int64(3), np.uint8(3)):
        inst = mb.sample_instance(k3_chain, k3_params, seed)
        assert type(inst.seed) is int and inst.seed == 3
        assert inst.walk.vertices == plain.walk.vertices and inst.bit == plain.bit
        assert mb.instance_to_json(inst, "complete:3", "lazy-simple")["seed"] == 3
    for seed in (True, np.random.default_rng(3), None):
        assert mb.sample_instance(k3_chain, k3_params, seed).seed is None


def test_g_values(k3_chain, k3_params):
    inst = make_k3_instance(k3_chain, k3_params, bit=1)
    assert inst.decision_value(3) == (-2, 1)
    assert inst.decision_value(1) == (0, -1)
    flipped = make_k3_instance(k3_chain, k3_params, bit=0)
    diffs = [v for v in (1, 2, 3)
             if inst.decision_value(v) != flipped.decision_value(v)]
    assert diffs == [3]  # opposite bits differ at exactly the walk end


def test_instance_walk_must_start_at_one(k3_chain, k3_params):
    walk = mb.make_walk(k3_chain, (2, 3, 1))
    with pytest.raises(InputError):
        mb.make_instance(walk, 0, k3_params)


# ---------------------------------------------------------------------------
# Validity and local minima
# ---------------------------------------------------------------------------

def test_sampled_instances_are_valid():
    # (graph, chain, T, L); None takes the default parameters. On cycle:5
    # a walk of 21 positions revisits vertices, so last occurrence decides.
    sweep = [
        ("complete:3", "lazy-simple", 1, 2),
        ("cycle:5", "lazy-simple", 5, 20),
        ("path:6", "max-degree", 3, 9),
        ("barbell:10", "metropolis", None, None),
        ("hypercube:3", "lazy-simple", None, None),
    ]
    for spec, kind, T, L in sweep:
        P = mb.build_chain(mb.graph_from_spec(spec), kind)
        params = mb.default_params(P) if T is None else mb.custom_params(P, T=T, L=L)
        for seed in range(30):
            inst = mb.sample_instance(P, params, seed)
            assert mb.is_valid_value_function(inst.graph, inst.walk, inst.value)
            if spec == "cycle:5":
                assert len(set(inst.walk.vertices)) < len(inst.walk.vertices)


@pytest.mark.parametrize("spec,kind", [("hypercube:6", "lazy-simple"),
                                       ("random-regular:64,4", "metropolis")])
def test_instance_values_need_no_bfs(monkeypatch, spec, kind):
    P = mb.build_chain(mb.graph_from_spec(spec, seed=5), kind)
    params = mb.default_params(P)

    def no_bfs(g, source):
        raise AssertionError("instance values must come from the graph's stored distances")

    monkeypatch.setattr(mb.staircase, "bfs_distances", no_bfs)
    insts = [mb.sample_instance(P, params, seed) for seed in range(5)]
    for inst in insts:
        values = [inst.value(v) for v in range(1, P.n + 1)]
        doc = mb.instance_to_json(inst, spec, kind, reveal=True)
        assert doc["f_values"] == values
        assert values[inst.minimum - 1] == -params.L
    monkeypatch.undo()
    for inst in insts:
        assert mb.is_valid_value_function(inst.graph, inst.walk, inst.value)


def test_validity_counterexamples(k3_chain):
    g = k3_chain.graph
    walk = (1, 2, 3)
    assert not mb.is_valid_value_function(g, walk, lambda v: 0)
    path = mb.path_graph(3)
    walk2 = (1, 2, 2)
    good = {1: 0, 2: -2, 3: 2}
    assert mb.is_valid_value_function(path, walk2, good)
    assert not mb.is_valid_value_function(path, walk2, {**good, 3: 3})  # dist + 1
    assert not mb.is_valid_value_function(path, walk2, {**good, 2: 1})  # positive on walk


def test_local_minima(k3_chain, k3_params):
    g = k3_chain.graph
    inst = make_k3_instance(k3_chain, k3_params)
    assert mb.local_minima(g, inst.value) == [3]
    assert mb.local_minima(g, lambda v: 0) == [1, 2, 3]
    path = mb.path_graph(4)
    dist = mb.bfs_distances(path, 1)
    assert mb.local_minima(path, lambda v: dist[v - 1]) == [1]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_good_walk_always_good(k3_chain, k3_params):
    for seed in range(25):
        w = mb.sample_good_walk(k3_chain, k3_params, seed)
        assert mb.is_good_walk(w, k3_params.T)
        assert w.start == 1 and w.length == k3_params.L


def test_sample_good_walk_deterministic(k3_chain, k3_params):
    a = mb.sample_good_walk(k3_chain, k3_params, 42)
    b = mb.sample_good_walk(k3_chain, k3_params, 42)
    assert a.vertices == b.vertices


def test_sample_good_walk_retry_cap(path3_chain):
    # on the 2-path... use K2: with L=2 > n-1 distinct milestones cannot exist
    P = mb.lazy_simple_walk(mb.complete_graph(2))
    params = mb.custom_params(P, T=1, L=2)
    with pytest.raises(CapabilityError, match="good walk"):
        mb.sample_good_walk(P, params, 0, retry_cap=50)


# sha256 of repr((walk.vertices, bit)) for sample_instance(P,
# default_params(P), k), k = 1..20, taken while single walks still stepped
# through the batched numpy loop; pins seeded walks at pipeline scale.
_INSTANCE_SHA256 = {
    ("hypercube:11", None, "lazy-simple"):
        "6798081487573f4f7c3388498de885d0a50cc3c2db3bb6e7e6d7882df58a2a24",
    ("random-regular:64,4", 5, "metropolis"):
        "84ebc9abafa0e3e70b2c1b0a7e85f3615c4595b8e158022b62c99cb354f0d806",
    ("barbell:30", None, "max-degree"):
        "26dab44da36fe4165af4a21b9558eea9504e2ad4dd1c5467f0b0ba76eac22a2a",
}


@pytest.mark.parametrize("spec,seed,kind", list(_INSTANCE_SHA256))
def test_sampled_instances_golden(spec, seed, kind):
    P = mb.build_chain(mb.graph_from_spec(spec, seed=seed), kind)
    params = mb.default_params(P)
    digest = hashlib.sha256()
    for k in range(1, 21):
        inst = mb.sample_instance(P, params, k)
        digest.update(repr((inst.walk.vertices, inst.bit)).encode())
    assert digest.hexdigest() == _INSTANCE_SHA256[spec, seed, kind]


def test_good_walk_acceptance_rate_k16():
    P = mb.lazy_simple_walk(mb.complete_graph(16))
    params = mb.default_params(P)
    rng = np.random.default_rng(7)
    trials = 1000
    hits = sum(mb.is_good_walk(mb.sample_walk(P, 1, params.L, rng), params.T)
               for _ in range(trials))
    rate = hits / trials
    se = (rate * (1 - rate) / trials) ** 0.5
    assert rate >= 2.0 ** (-4 * params.sigma) - 3 * se


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_instance_json_roundtrip(tmp_path):
    doc_path = tmp_path / "inst.json"
    P = mb.lazy_simple_walk(mb.complete_graph(16))
    params = mb.default_params(P)
    inst = mb.sample_instance(P, params, 9)
    doc = mb.instance_to_json(inst, graph_ref="complete:16", chain_ref="lazy-simple")
    assert "f_values" not in doc  # hidden unless revealed
    doc_path.write_text(json.dumps(doc))
    back = mb.staircase.load_instance(str(doc_path))
    assert back.walk.vertices == inst.walk.vertices
    assert back.bit == inst.bit
    assert back.params.T == inst.params.T


def test_load_instance_malformed_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text('{"graph": "complete:3", ')
    with pytest.raises(InputError, match="not valid JSON"):
        mb.staircase.load_instance(str(path))
    with pytest.raises(InputError, match="No such file"):
        mb.staircase.load_instance(str(tmp_path / "absent.json"))


# Each of these once parsed by truncation or coercion: T = 1 from 1.9,
# L = 2 from 2.2, the walk (1, 2, 3) from [1, 2.7, 3], and bit 1 from true
# or "1"; a seed that is not an integer was stored on the instance.
@pytest.mark.parametrize("field,value", [
    ("T", 1.9), ("L", 2.2), ("T", "1"), ("walk", [1, 2.7, 3]), ("walk", [1, True, 3]),
    ("b", True), ("b", "1"), ("b", 1.0),
    ("seed", "x"), ("seed", 1.5), ("seed", [1, 2]), ("seed", True)])
def test_instance_file_numbers_must_be_integers(tmp_path, field, value):
    doc = {"graph": "complete:3", "chain": "lazy-simple", "T": 1, "L": 2,
           "walk": [1, 2, 3], "b": 0, "seed": None}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert mb.staircase.load_instance(str(path)).walk.vertices == (1, 2, 3)
    path.write_text(json.dumps({**doc, field: value}))
    with pytest.raises(InputError, match="^malformed instance document: expected an integer"):
        mb.staircase.load_instance(str(path))


# A number for the graph spec once raised AttributeError.
@pytest.mark.parametrize("field,value", [("graph", 5), ("chain", ["lazy-simple"])])
def test_instance_file_specs_must_be_strings(field, value):
    doc = {"graph": "complete:3", "chain": "lazy-simple", "T": 1, "L": 2,
           "walk": [1, 2, 3], "b": 0, "seed": None}
    assert mb.instance_from_json(doc).walk.vertices == (1, 2, 3)
    with pytest.raises(InputError, match="^malformed instance document: expected a string"):
        mb.instance_from_json({**doc, field: value})


def test_instance_json_reveal(k3_chain, k3_params):
    inst = make_k3_instance(k3_chain, k3_params)
    doc = mb.instance_to_json(inst, "complete:3", "lazy-simple", reveal=True)
    assert doc["f_values"] == [0, -1, -2]
