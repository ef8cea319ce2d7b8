import dataclasses
import functools
import hashlib
import importlib.util
import itertools
import json
import math
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import mixbound as mb
from mixbound import adversary as adv
from mixbound.adversary import (RatioCheckResult, _class_arrays, _credited_mean,
                                _difference_counts, _exact_report, _head_index,
                                _last_occurrence, _ratio_check, _redraw, _relation_arrays,
                                _relation_block, _told_sums, ratio_floor)
from mixbound.chains import Walk, _sample_tails
from mixbound.graphs import _bfs
from mixbound.errors import DEFAULT_CAPS, CapabilityError, InputError
from mixbound.staircase import StaircaseInstance, StaircaseParams
from mixbound.verify import _pair_reference

from conftest import traced_peak


# ---------------------------------------------------------------------------
# Exact-rational oracle for the K3 micro-system (independent of the library:
# walks enumerated with itertools, arithmetic in Fractions)
# ---------------------------------------------------------------------------

K3_STEP = {  # lazy simple walk on the triangle
    (u, v): (Fraction(1, 2) if u == v else Fraction(1, 4))
    for u in (1, 2, 3) for v in (1, 2, 3)
}


def k3_walks():
    return [(1,) + steps for steps in itertools.product((1, 2, 3), repeat=2)]


def k3_prob(walk):
    p = Fraction(1)
    for a, b in zip(walk, walk[1:]):
        p *= K3_STEP[(a, b)]
    return p


def k3_good(walk):
    return len(set(walk)) == 3  # T=1: every vertex is a milestone


def k3_f(walk, v):
    last = {x: i for i, x in enumerate(walk)}
    return -last[v] if v in last else 1  # K3: every off-walk vertex is adjacent to 1


def k3_g(walk, bit, v):
    return (k3_f(walk, v), bit if v == walk[-1] else -1)


def k3_relation(x, b1, y, b2):
    if b1 == b2 or x == y or not (k3_good(x) and k3_good(y)):
        return Fraction(0)
    j = 0
    while j < 2 and x[: j + 2] == y[: j + 2]:
        j += 1
    head = y[: j + 1]
    return k3_prob(x) * k3_prob(y) / k3_prob(head)


def k3_oracle():
    funcs = [(w, b) for w in k3_walks() for b in (0, 1)]
    M = {f: sum(k3_relation(*f, *h) for h in funcs) for f in funcs}
    q_per_vertex = {}
    for v in (1, 2, 3):
        q_per_vertex[v] = sum(
            k3_relation(*f, *h)
            for f in funcs for h in funcs
            if k3_g(*f, v) != k3_g(*h, v))
    return funcs, M, q_per_vertex


# ---------------------------------------------------------------------------
# Relation
# ---------------------------------------------------------------------------

def test_relation_zero_cases(k3_family):
    by_key = {(i.walk.vertices, i.bit): i for i in k3_family.instances}
    a = by_key[((1, 2, 3), 0)]
    same_bit = by_key[((1, 3, 2), 0)]
    bad = by_key[((1, 2, 1), 1)]
    assert mb.relation_weight(a, same_bit) == 0.0
    assert mb.relation_weight(a, bad) == 0.0
    assert mb.relation_weight(a, a) == 0.0


def test_relation_cross_pair(k3_family):
    by_key = {(i.walk.vertices, i.bit): i for i in k3_family.instances}
    a = by_key[((1, 2, 3), 0)]
    b = by_key[((1, 3, 2), 1)]
    assert mb.relation_weight(a, b) == 1 / 256
    assert mb.relation_weight(b, a) == 1 / 256


def test_relation_matches_fraction_oracle(k3_family):
    by_key = {(i.walk.vertices, i.bit): i for i in k3_family.instances}
    for (xw, xb), (yw, yb) in itertools.product(by_key, repeat=2):
        expected = float(k3_relation(xw, xb, yw, yb))
        got = mb.relation_weight(by_key[(xw, xb)], by_key[(yw, yb)])
        assert got == pytest.approx(expected, abs=1e-15)


def test_relation_parameter_mismatch(k3_chain, k3_params):
    other_params = mb.custom_params(k3_chain, T=1, L=3)
    a = mb.make_instance(mb.make_walk(k3_chain, (1, 2, 3)), 0, k3_params)
    b = mb.make_instance(mb.make_walk(k3_chain, (1, 2, 3, 1)), 1, other_params)
    with pytest.raises(InputError):
        mb.relation_weight(a, b)


def test_relation_chain_mismatch(k3_chain, k3_params):
    other_chain = mb.lazy_simple_walk(mb.complete_graph(3))
    a = mb.make_instance(mb.make_walk(k3_chain, (1, 2, 3)), 0, k3_params)
    b = mb.make_instance(mb.make_walk(other_chain, (1, 3, 2)), 1, k3_params)
    with pytest.raises(InputError, match="chains"):
        mb.relation_weight(a, b)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_k3(k3_family):
    assert len(k3_family) == 18
    walks = {i.walk.vertices for i in k3_family.instances}
    assert walks == set(k3_walks())


def test_enumerate_length_zero(k3_chain):
    params = mb.custom_params(k3_chain, T=1, L=0)
    fam = mb.enumerate_family(k3_chain, params)
    assert {i.walk.vertices for i in fam.instances} == {(1,)}
    assert len(fam) == 2


def test_enumerate_path_one_step(path3_chain):
    params = mb.custom_params(path3_chain, T=1, L=1)
    fam = mb.enumerate_family(path3_chain, params)
    assert {i.walk.vertices for i in fam.instances} == {(1, 1), (1, 2)}
    assert len(fam) == 4


def test_enumerate_cap(k3_chain, k3_params):
    with pytest.raises(CapabilityError, match="Monte Carlo"):
        mb.enumerate_family(k3_chain, k3_params, cap=5)


def test_enumerate_cap_refuses_before_building_walks():
    # complete:12 with L=7 has 12^7 (35.8 M) walks; the refusal once built
    # cap walk tuples first, about 11 MB at cap=10**5
    P = mb.lazy_simple_walk(mb.complete_graph(12))
    params = mb.custom_params(P, T=1, L=7)

    def refuse():
        with pytest.raises(CapabilityError, match="exceeds enumeration cap 100000"):
            mb.enumerate_family(P, params, cap=10 ** 5)

    assert traced_peak(refuse)[1] < 1 << 20


def test_enumeration_refuses_a_family_past_two_gib_before_building_walks():
    # lazy hypercube:4 at T=2, L=10 has 5^10 walks, under the walk cap, but
    # the exact path would peak at about 14.6 GiB; at L=8 under 0.5 GiB
    P = mb.lazy_simple_walk(mb.hypercube_graph(4))

    def refuse():
        with pytest.raises(CapabilityError, match=r"^family of 9765625 walks would hold "
                                                  r"about 14\.6 GiB, over the 2 GiB"):
            mb.enumerate_family(P, mb.custom_params(P, T=2, L=10))

    start = time.perf_counter()
    peak = traced_peak(refuse)[1]
    assert time.perf_counter() - start < 1.0 and peak < 10 << 20
    assert 5 ** 10 <= DEFAULT_CAPS["enumeration"]
    assert adv._family_bytes(5 ** 8, mb.custom_params(P, T=2, L=8)) < 1 << 29


def test_family_bytes_bound_the_exact_peak():
    # the refusal's estimate counts the head-class build's transients, so
    # it bounds what exact_lower_bound allocates; complete:18 at T=2, L=4
    # (104 976 walks) peaks at about 0.75 of it
    P = mb.lazy_simple_walk(mb.complete_graph(18))
    params = mb.custom_params(P, T=2, L=4)
    report, peak = traced_peak(lambda: mb.exact_lower_bound(P, params))
    walks = report.context["family_size"] // 2
    assert walks >= 10 ** 5
    assert peak <= adv._family_bytes(walks, params)


@pytest.mark.parametrize("L,cap", [(0, 0), (0, 1), (2, 8), (2, 9), (3, 26), (3, 27)])
def test_enumerate_cap_boundary(k3_chain, L, cap):
    # lazy K3 has 3^L walks from vertex 1: exactly the cap is admitted
    params = mb.custom_params(k3_chain, T=1, L=L)
    if 3 ** L > cap:
        with pytest.raises(CapabilityError, match="Monte Carlo"):
            mb.enumerate_family(k3_chain, params, cap=cap)
    else:
        assert len(mb.enumerate_family(k3_chain, params, cap=cap)) == 2 * 3 ** L


def _reference_rows(P, L) -> np.ndarray:
    """The rows enumerate_family once built: the walks found by a
    depth-first search over each vertex's distinct sampling-table
    successors, sorted, each walk once per hidden bit."""
    successors = [tuple(dict.fromkeys(row)) for row in (P.sampling_table[0] + 1).tolist()]
    walks, stack = [], [(1,)]
    while stack:
        prefix = stack.pop()
        if len(prefix) == L + 1:
            walks.append(prefix)
            continue
        for nxt in reversed(successors[prefix[-1] - 1]):
            stack.append(prefix + (nxt,))
    walks.sort()
    return np.array([verts for verts in walks for _ in (0, 1)],
                    dtype=np.int64).reshape(2 * len(walks), L + 1)


def _metropolis6():
    target = np.arange(1, 7, dtype=float)
    return mb.metropolis_walk(mb.complete_graph(6), target / target.sum())


ENUMERATION_SYSTEMS = {
    **{f"K{k}": (f"complete:{k}", 2, 4) for k in range(3, 9)},
    **{f"{spec}-L{L}": (spec, 1, L) for spec in ("cycle:7", "path:3") for L in (0, 1)},
    "hypercube3": ("hypercube:3", 2, 6),
    "barbell10": ("barbell:10", 1, 3),
    "metropolis6": (_metropolis6, 1, 3),
}


@pytest.mark.parametrize("name", list(ENUMERATION_SYSTEMS))
def test_enumeration_equals_the_depth_first_reference(name):
    graph, T, L = ENUMERATION_SYSTEMS[name]
    P = graph() if callable(graph) else mb.lazy_simple_walk(mb.graph_from_spec(graph))
    if name == "barbell10":  # padded rows: a successor list must drop the repeats
        index = P.sampling_table[0]
        assert any(len(set(row)) < len(row) for row in index.tolist())
    family = mb.enumerate_family(P, mb.custom_params(P, T=T, L=L))
    want = _reference_rows(P, L)
    assert family.walks.dtype == want.dtype
    assert np.array_equal(family.walks, want)
    assert family.bits.dtype == np.int8
    assert family.bits.tolist() == [0, 1] * (len(want) // 2)


def test_a_family_checks_its_rows(k3_chain, k3_params):
    def family(walks, bits):
        return mb.FunctionFamily(walks=np.array(walks), bits=np.array(bits),
                                 params=k3_params, chain=k3_chain)

    for walks, bits, message in [
            ([(2, 1, 3)], [0], "must start at vertex 1"),
            ([(1, 2)], [0], r"shape \(size, 3\)"),
            ([(1, 2, 3)], [0, 1], r"need a hidden bit, 0 or 1, per walk; got \[0 1\]"),
            ([(1, 2, 3)], [2], r"0 or 1, per walk; got \[2\]"),
            ([], [], r"shape \(size, 3\), got \(0,\)"),
            ([(1, 2, 4)], [0], r"stay in 1\.\.3"),
            ([(1, 2, 3), (1, 3, 2), (1, 2, 3)], [1, 0, 1],
             r"duplicate instance \(\(1, 2, 3\), 1\)")]:
        with pytest.raises(InputError, match=message):
            family(walks, bits)
    walks = np.array([(1, 2, 3), (1, 2, 3)])
    pair = mb.FunctionFamily(walks=walks, bits=[0, 1], params=k3_params, chain=k3_chain)
    assert pair.walks is walks and not walks.flags.writeable  # held, made read-only
    assert pair.walks.dtype == np.int64 and pair.bits.dtype == np.int8
    assert not pair.bits.flags.writeable
    assert [(inst.walk.vertices, inst.bit) for inst in pair.instances] == [
        ((1, 2, 3), 0), ((1, 2, 3), 1)]


# ---------------------------------------------------------------------------
# M and q
# ---------------------------------------------------------------------------

def test_mass_matches_fraction_oracle(k3_family):
    funcs, M_oracle, q_oracle = k3_oracle()
    mass = mb.relation_mass(k3_family, k3_family)
    for inst, got in zip(k3_family.instances, mass.per_instance):
        assert got == pytest.approx(float(M_oracle[(inst.walk.vertices, inst.bit)]),
                                    abs=1e-15)
    assert mass.total == pytest.approx(float(sum(M_oracle.values())), abs=1e-15)
    assert mass.total == 1 / 64

    dm = mb.distinguishing_mass(k3_family)
    for v in (1, 2, 3):
        assert dm.per_vertex[v - 1] == pytest.approx(float(q_oracle[v]), abs=1e-15)
    assert dm.q == 1 / 64
    assert dm.argmax_vertex == 2
    assert dm.per_vertex[0] == 0.0


def test_mass_of_bad_walk_subset(k3_family):
    bad = [i for i in k3_family.instances if not mb.is_good_walk(i.walk, 1)]
    assert mb.relation_mass(bad, k3_family).total == 0.0


def test_q_single_instance(k3_family):
    single = [k3_family.instances[0]]
    assert mb.distinguishing_mass(single, k3_family).q == 0.0


def test_a_subset_of_another_chain_or_parameter_set_is_refused(k3_chain, k3_family):
    # the walks of a Metropolis K3 family, or of lazy K3 at T=2, are rows of
    # the lazy K3 family at T=1, L=2, but not its instances
    P = mb.metropolis_walk(mb.complete_graph(3), np.array([0.2, 0.3, 0.5]))
    for other in (mb.enumerate_family(P, mb.custom_params(P, T=1, L=2)),
                  mb.enumerate_family(k3_chain, mb.custom_params(k3_chain, T=2, L=2))):
        for Z in (other, other.instances, other.instances[:1]):
            with pytest.raises(InputError, match="another chain or parameter set"):
                mb.relation_mass(Z, k3_family)
            with pytest.raises(InputError, match="another chain or parameter set"):
                mb.distinguishing_mass(Z, k3_family)


def test_a_subset_is_found_by_row_in_its_own_order(k3_family):
    picked = [k3_family.instances[i] for i in (5, 0, 17)]
    mass = k3_family._classes.mass.tolist()
    assert mb.relation_mass(picked, k3_family).per_instance == (mass[5], mass[0], mass[17])
    assert mb.relation_mass([], k3_family).per_instance == ()
    foreign = mb.make_instance(mb.make_walk(k3_family.chain, (1, 2, 3)), 0,
                               k3_family.params)
    lone = mb.FunctionFamily(walks=np.array([(1, 2, 3)]), bits=np.array([1]),
                             params=k3_family.params, chain=k3_family.chain)
    with pytest.raises(InputError, match="not part of the family"):
        mb.distinguishing_mass([foreign], lone)


def test_an_empty_family_has_zero_q_at_every_vertex(k3_chain, k3_params, k3_family):
    # q reads 0.0 at every vertex, with no pair to count, as for one walk
    empty = mb.FunctionFamily(walks=np.zeros((0, 3), dtype=np.int64), bits=np.zeros(0),
                              params=k3_params, chain=k3_chain)
    one_walk = mb.FunctionFamily(walks=k3_family.walks[:2], bits=k3_family.bits[:2],
                                 params=k3_params, chain=k3_chain)
    for family in (empty, one_walk):
        dm = mb.distinguishing_mass(family)
        assert (dm.q, dm.argmax_vertex, dm.per_vertex) == (0.0, 1, (0.0, 0.0, 0.0))
        with pytest.raises(CapabilityError, match="^degenerate family"):
            _exact_report(family)
    assert len(empty) == 0 and empty.instances == ()


def test_q_linear_in_relation(k3_family, monkeypatch):
    # doubling every weight doubles q and leaves M/q fixed
    ref = _pair_reference(k3_family)
    block = adv._relation_block
    monkeypatch.setattr(adv, "_relation_block", lambda A, B: 2.0 * block(A, B))
    doubled = _pair_reference(k3_family)
    dm = mb.distinguishing_mass(k3_family)
    assert np.array_equal(doubled.per_vertex, 2.0 * ref.per_vertex)
    assert doubled.per_vertex.max() == pytest.approx(2 * dm.q, abs=1e-15)
    m_doubled = math.fsum(doubled.mass.tolist())
    assert m_doubled == 2 * mb.relation_mass(k3_family, k3_family).total
    assert m_doubled / doubled.per_vertex.max() == pytest.approx(
        mb.relation_mass(k3_family, k3_family).total / dm.q, abs=1e-12)


def test_exact_lower_bound_k3(k3_chain, k3_params):
    report = mb.exact_lower_bound(k3_chain, k3_params)
    assert report.M == 1 / 64
    assert report.q == 1 / 64
    assert report.ratio == 1.0
    assert report.bound == 0.01
    assert report.method == "exact"
    assert report.argmax_vertex == 2
    doc = report.to_json()
    assert doc["params"]["family_size"] == 18


def _exact_system(name):
    if name == "K3":
        P = mb.lazy_simple_walk(mb.complete_graph(3))
        return P, mb.custom_params(P, T=1, L=2)
    if name == "K4":
        P = mb.lazy_simple_walk(mb.complete_graph(4))
        return P, mb.default_params(P)
    if name == "cycle7":
        P = mb.max_degree_walk(mb.cycle_graph(7))
        return P, mb.custom_params(P, T=2, L=4)
    target = np.arange(1, 7, dtype=float)
    P = mb.metropolis_walk(mb.complete_graph(6), target / target.sum())
    return P, mb.custom_params(P, T=1, L=3)


EXACT_FAMILIES = ["K3", "K4", "cycle7", "metropolis6"]


def _reference_relation(P, insts) -> np.ndarray:
    """The relation weight of every ordered pair of instances, in plain
    Python: 0.0 for equal bits, the same walk or a bad walk, and otherwise
    p(x) p(y) / p(shared head), each probability from walk_probability and
    the head's end from shared_head_index."""
    T = insts[0].params.T
    prob = functools.cache(lambda verts: mb.walk_probability(P, verts))
    good = [mb.is_good_walk(inst.walk, T) for inst in insts]
    out = np.zeros((len(insts), len(insts)))
    for (i, a), (k, b) in itertools.product(enumerate(insts), repeat=2):
        x, y = a.walk.vertices, b.walk.vertices
        if a.bit == b.bit or x == y or not (good[i] and good[k]):
            continue
        j = mb.shared_head_index(x, y, T)
        out[i, k] = prob(x) * prob(y) / prob(y[:j * T + 1])
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name", EXACT_FAMILIES)
def test_relation_block_equals_a_plain_python_reference(name):
    P, params = _exact_system(name)
    family = mb.enumerate_family(P, params)
    rel = family._relation
    assert _same_bits(_relation_block(rel, rel), _reference_relation(P, family.instances))


def _witness_system():
    P = mb.lazy_simple_walk(mb.complete_graph(4))
    pair = mb.witness_pair(P, mb.default_params(P))
    return P, pair.params, pair.walks, pair.bits


@pytest.mark.parametrize("name", EXACT_FAMILIES + ["K4-shuffled", "cycle7-shuffled", "witness"])
def test_head_ids_give_the_shared_head_index(name):
    # every pair of distinct walks, each walk once (bit 0), in family order,
    # in a random order, or the two walks of a witness pair
    if name == "witness":
        P, params, walks, bits = _witness_system()
    else:
        P, params = _exact_system(name.split("-")[0])
        family = mb.enumerate_family(P, params)
        walks, bits = family.walks[family.bits == 0], family.bits[family.bits == 0]
        if name.endswith("shuffled"):
            order = np.random.default_rng(0).permutation(len(walks))
            walks, bits = walks[order], bits[order]
    rel = _relation_arrays(P, params, walks, bits)
    rows = list(map(tuple, walks.tolist()))
    want = np.array([[mb.shared_head_index(a, b, params.T) if a != b else params.m
                      for b in rows] for a in rows])
    assert np.array_equal(_head_index(rel, rel), want)


@pytest.mark.parametrize("name", EXACT_FAMILIES)
def test_pair_table_matches_relation_weight(name):
    # the pair reference's half table, mirrored to both orders, is the
    # whole relation
    P, params = _exact_system(name)
    family = mb.enumerate_family(P, params)
    insts = family.instances
    ref = _pair_reference(family)
    full = np.zeros((len(family), len(family)))
    full[np.ix_(ref.rows, ref.cols)] = ref.r
    full[np.ix_(ref.cols, ref.rows)] = ref.r.T
    want = _reference_relation(P, insts)
    assert _same_bits(full, want)
    rng = np.random.default_rng(0)
    for i, k in rng.integers(len(family), size=(100, 2)).tolist():
        assert _same_bits(np.array(mb.relation_weight(insts[i], insts[k])), want[i, k])


@pytest.mark.parametrize("name", EXACT_FAMILIES)
def test_relation_data_matches_walk_probabilities(name):
    # the relation's heads are the walk probabilities of the heads, bit for
    # bit, and its goodness is is_good_walk's
    P, params = _exact_system(name)
    T, m = params.T, params.m
    family = mb.enumerate_family(P, params)
    insts, rel = family.instances, family._relation
    assert rel.walks.tolist() == [list(inst.walk.vertices) for inst in insts]
    assert rel.bits.tolist() == [inst.bit for inst in insts]
    for inst, good, heads in zip(insts, rel.good.tolist(), rel.heads.tolist()):
        verts = inst.walk.vertices
        assert good == mb.is_good_walk(inst.walk, T)
        assert heads == [mb.walk_probability(P, verts[:j * T + 1]) for j in range(m + 1)]
        assert heads[-1] == inst.walk.probability()


def test_heads_are_the_same_in_blocks_of_any_size(monkeypatch):
    # blocks of 7 rows against the family's one block, bit for bit
    P, params = _exact_system("cycle7")
    family = mb.enumerate_family(P, params)
    whole = family._relation.heads
    width = P.in_neighbours[0].shape[1]
    monkeypatch.setattr("mixbound.adversary._HEAD_BLOCK_CELLS", 7 * params.L * width)
    blocked = _relation_arrays(P, params, family.walks, family.bits)
    assert len(family) > 7 and _same_bits(blocked.heads, whole)


def test_exact_lower_bound_memory():
    # head-class sums hold no pair-shaped array: complete:16 at T=2, L=4
    # (131 072 instances, 2.9e9 pairs of good opposite-bit instances) peaks
    # at about 250 bytes per instance, enumeration and relation arrays
    # included
    P = mb.lazy_simple_walk(mb.complete_graph(16))
    params = mb.custom_params(P, T=2, L=4)
    report, peak = traced_peak(lambda: mb.exact_lower_bound(P, params))
    assert report.context["good_instances"] ** 2 // 4 > 2 * 10 ** 9
    assert peak <= 400 * report.context["family_size"]


# Exact outputs pinned to the repr: (M, q, argmax_vertex, per_vertex) and
# the ratio check over 200 subsets with seed 0. K4 and metropolis6 moved in
# their last bits when rows came to be divided by the exactly rounded sum
# of their entries instead of numpy's dense-order sum, and again, within
# 6e-16 relative, when M and q came to be summed over head classes instead
# of over the pairs, each sum rounded once.
EXACT_GOLDEN = {
    "K4": (
        "(0.3795153177869229, 0.30747027892089646, 2, (0.1550354366712393, "
        "0.30747027892089646, 0.30747027892089646, 0.30747027892089646))",
        "RatioCheckResult(passed=True, threshold=0.010416666666666666, "
        "min_ratio=1.2343154568268422, subsets_checked=200, worst_subset_size=510)"),
    "cycle7": (
        "(0.27447509765625, 0.16265869140625, 2, (0.10888671875, "
        "0.16265869140625, 0.14923095703125, 0.08673095703125, 0.08673095703125, "
        "0.14923095703125, 0.16265869140625))",
        "RatioCheckResult(passed=True, threshold=0.010416666666666666, "
        "min_ratio=1.6790334855403348, subsets_checked=200, worst_subset_size=160)"),
    "metropolis6": (
        "(0.018300560000000007, 0.011005170000000003, 6, (0.0, "
        "0.006752235555555559, 0.00830925777777778, 0.00949126666666667, "
        "0.01037555666666667, 0.011005170000000003))",
        "RatioCheckResult(passed=True, threshold=3.311369154188368e-09, "
        "min_ratio=1.6629057070449618, subsets_checked=200, worst_subset_size=430)"),
}


@pytest.mark.parametrize("name, block_cells", [
    *(pytest.param(name, None, id=name) for name in EXACT_GOLDEN),
    *(pytest.param(name, 7, id=f"{name}-block7") for name in EXACT_GOLDEN)])
def test_exact_golden_outputs(name, block_cells, monkeypatch):
    # the ratio check's sums are the same whether a chunk holds many draws
    # or one
    if block_cells is not None:
        monkeypatch.setattr("mixbound.adversary._SUM_BLOCK_CELLS", block_cells)
    P, params = _exact_system(name)
    report = mb.exact_lower_bound(P, params)
    per_vertex = mb.distinguishing_mass(mb.enumerate_family(P, params)).per_vertex
    want_exact, want_ratio = EXACT_GOLDEN[name]
    assert repr((report.M, report.q, report.argmax_vertex, per_vertex)) == want_exact
    assert repr(mb.ratio_property_check(P, params, subsets=200, seed=0)) == want_ratio


# ---------------------------------------------------------------------------
# Head classes against the pair table
# ---------------------------------------------------------------------------

def _class_system(name):
    """The exact systems, plus lazy complete graphs at T=2, L=4 ("K5"-"K8"),
    complete:16 at T=1, L=3, and lazy cycle:7, hypercube:3 and barbell:10."""
    if name in EXACT_FAMILIES:
        return _exact_system(name)
    spec, T, L = {"K5": ("complete:5", 2, 4), "K6": ("complete:6", 2, 4),
                  "K7": ("complete:7", 2, 4), "K8": ("complete:8", 2, 4),
                  "complete16": ("complete:16", 1, 3), "cycle7-lazy": ("cycle:7", 2, 6),
                  "hypercube3": ("hypercube:3", 2, 6), "barbell10": ("barbell:10", 2, 4)}[name]
    P = mb.lazy_simple_walk(mb.graph_from_spec(spec))
    return P, mb.custom_params(P, T=T, L=L)


def _assert_classes_equal_the_table(family):
    """M, each instance's mass and each vertex's q from the head classes
    against verify's pair reference: within 1e-12 relative of M, the
    largest mass and the largest q; a vertex at 0.0 in the reference is
    0.0 exactly, and the argmax vertex is the same under the tie rule."""
    ref = _pair_reference(family)
    got_mass = family._classes.mass
    got = mb.distinguishing_mass(family)
    M = math.fsum(ref.mass.tolist())
    assert math.fsum(got_mass.tolist()) == pytest.approx(M, rel=1e-12, abs=0)
    assert np.abs(got_mass - ref.mass).max(initial=0.0) <= 1e-12 * ref.mass.max(initial=0.0)
    per_vertex, reference = np.array(got.per_vertex), ref.per_vertex
    assert np.abs(per_vertex - reference).max() <= 1e-12 * reference.max()
    assert np.all(per_vertex[reference == 0.0] == 0.0)
    assert got.argmax_vertex == adv._largest(reference).argmax_vertex


@pytest.mark.parametrize("name", [*EXACT_FAMILIES, "K5", "K6", "K7", "K8", "complete16",
                                  "cycle7-lazy", "hypercube3", "barbell10"])
def test_head_classes_equal_the_pair_table(name):
    _assert_classes_equal_the_table(mb.enumerate_family(*_class_system(name)))


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_head_classes_equal_the_pair_table_on_random_reversible_chains(data):
    # a lazy Metropolis chain to a random target on a random connected graph
    n = data.draw(hst.integers(min_value=2, max_value=6), label="n")
    seed = data.draw(hst.integers(min_value=0, max_value=10 ** 6), label="seed")
    T = data.draw(hst.integers(min_value=1, max_value=2), label="T")
    m = data.draw(hst.integers(min_value=1, max_value=3 if T == 1 else 2), label="m")
    rng = np.random.default_rng(seed)
    tree = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    extra = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.5}
    target = 10.0 ** rng.uniform(-3.0, 0.0, n)
    P = mb.metropolis_walk(mb.make_graph(n, tree | extra), target / target.sum())
    _assert_classes_equal_the_table(mb.enumerate_family(P, mb.custom_params(P, T=T, L=m * T)))


@pytest.mark.parametrize("name", [*EXACT_FAMILIES, "K6", "hypercube3"])
def test_the_exact_report_is_relation_mass_and_distinguishing_mass(name):
    # bit for bit, as perfbench's traced breakdown asserts
    P, params = _class_system(name)
    report = mb.exact_lower_bound(P, params)
    family = mb.enumerate_family(P, params)
    assert mb.relation_mass(family, family).total == report.M
    assert mb.distinguishing_mass(family).q == report.q
    assert report.ratio == report.M / report.q


def test_ties_pick_the_smallest_vertex_within_rounding():
    # on K6 vertices 2-6 tie in exact arithmetic, and the sums may part in
    # their last bits; Metropolis K6's vertex 1 tells no pair apart
    per_vertex = mb.distinguishing_mass(mb.enumerate_family(*_class_system("K6"))).per_vertex
    report = mb.exact_lower_bound(*_class_system("K6"))
    assert report.argmax_vertex == 2
    assert max(per_vertex) == report.q
    assert all(q == pytest.approx(report.q, rel=1e-12, abs=0) for q in per_vertex[1:])
    assert mb.distinguishing_mass(mb.enumerate_family(*_exact_system("metropolis6"))
                                  ).per_vertex[0] == 0.0
    for per_vertex, argmax in (([0.5, 1.0, 1.0 + 2.0 ** -42], 2),  # 2.3e-13 apart
                               ([0.5, 1.0, 1.0 + 2.0 ** -38], 3),  # 3.6e-12 apart
                               ([1.0 - 2.0 ** -50, 1.0, 0.0], 1)):
        largest = adv._largest(np.array(per_vertex))
        assert (largest.q, largest.argmax_vertex) == (max(per_vertex), argmax)


def test_the_exact_defaults_ledger_regenerates():
    # every row but complete:24 (0.9 s), to the last bit
    path = Path(__file__).resolve().parent.parent / "results" / "exact_defaults.py"
    spec = importlib.util.spec_from_file_location("exact_defaults", path)
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    rows = json.loads(ledger.OUT.read_text())["rows"]
    assert [row["graph"] for row in rows] == [graph for graph, _ in ledger.SYSTEMS]
    for (graph, sizes), want in zip(ledger.SYSTEMS, rows):
        if graph != "complete:24":
            assert repr(ledger.row(graph, sizes)) == repr(want)
    assert {row["graph"]: row["argmax_vertex"] for row in rows}["complete:24"] == 1


def test_exact_lower_bound_degenerate():
    P = mb.lazy_simple_walk(mb.complete_graph(2))
    params = mb.custom_params(P, T=1, L=2)  # every walk repeats a milestone
    with pytest.raises(CapabilityError, match="degenerate"):
        mb.exact_lower_bound(P, params)


def test_report_scale_invariance(k3_chain, k3_params):
    # the ratio is invariant under uniform rescaling of the relation, so
    # reports computed from scaled systems coincide; spot-check by scaling
    # the recorded weights directly
    report = mb.exact_lower_bound(k3_chain, k3_params)
    for c in (2.0, 0.5, 10.0):
        assert (c * report.M) / (c * report.q) == pytest.approx(report.ratio)


# ---------------------------------------------------------------------------
# Ratio floor
# ---------------------------------------------------------------------------

def test_ratio_floor_arithmetic():
    params = StaircaseParams(T=2, L=8, m=4, n=16, sigma=1.0)
    assert ratio_floor(params) == pytest.approx((1 / 16) / 6 * 4 / 2)
    assert ratio_floor(params) == pytest.approx(1 / 48)


@pytest.mark.parametrize("subsets", [0, -3])
def test_ratio_property_check_refuses_no_subsets(k3_chain, k3_params, subsets):
    # zero subsets would pass vacuously, with min_ratio = inf
    with pytest.raises(InputError, match="subsets must be a positive integer"):
        mb.ratio_property_check(k3_chain, k3_params, subsets=subsets, seed=0)


def _ratio_by_loop(P, params, subsets: int, seed, reference: bool = True):
    """ratio_property_check as a loop of one q per draw, as it ran before
    its draws were counted in chunks: from verify's pair reference
    (reference), the subset's q from the subset as a family of its own,
    or from the head classes, one _told_sums call per draw; also returns
    how many draws were rejected for q = 0."""
    family = mb.enumerate_family(P, params)
    if reference:
        mass = _pair_reference(family).mass.tolist()

        def q_of(inside):
            subset = mb.FunctionFamily(walks=family.walks[inside], bits=family.bits[inside],
                                       params=params, chain=P)
            return float(_pair_reference(subset).per_vertex.max())
    else:
        mass = family._classes.mass.tolist()

        def q_of(inside):
            return 2.0 * float(_told_sums(family._classes, inside[None], P.n).max())
    rng = np.random.default_rng(seed)
    size = len(family)
    checked = attempts = rejected = worst_size = 0
    min_ratio = math.inf
    max_attempts = max(subsets * 20, 100)
    while checked < subsets:
        attempts += 1
        if attempts > max_attempts:
            if checked == 0:
                raise CapabilityError(
                    f"no subset with positive q found in {max_attempts} draws")
            break
        k = int(rng.integers(2, size + 1))
        members = rng.choice(size, size=k, replace=False)
        inside = np.zeros(size, dtype=bool)
        inside[members] = True
        q = q_of(inside)
        if q <= 0.0:
            rejected += 1
            continue
        ratio = math.fsum(mass[i] for i in members.tolist()) / q
        checked += 1
        if ratio < min_ratio:
            min_ratio = ratio
            worst_size = k
    threshold = ratio_floor(params)
    return RatioCheckResult(passed=min_ratio >= threshold, threshold=threshold,
                            min_ratio=min_ratio, subsets_checked=checked,
                            worst_subset_size=worst_size), rejected


@pytest.mark.parametrize("name", EXACT_FAMILIES)
def test_batched_ratio_check_equals_the_loop(name):
    # a chunk of draws gives the bits of one head-class sum per draw, and
    # the pair table's values within 1e-12 relative, with the same subsets
    P, params = _exact_system(name)
    rejected = 0
    for seed, subsets in itertools.product(range(5), (1, 7, 200)):
        got = mb.ratio_property_check(P, params, subsets, seed)
        same, _ = _ratio_by_loop(P, params, subsets, seed, reference=False)
        assert repr(got) == repr(same)
        want, missed = _ratio_by_loop(P, params, subsets, seed)
        assert got.min_ratio == pytest.approx(want.min_ratio, rel=1e-12, abs=0)
        assert dataclasses.replace(got, min_ratio=want.min_ratio) == want
        rejected += missed
    if name == "K3":
        assert rejected > 0  # some draws have q = 0 and are drawn past


@pytest.mark.parametrize("name", EXACT_FAMILIES)
def test_cores_on_a_prebuilt_table_equal_the_public_calls(name, monkeypatch):
    # one family builds its relation arrays and its head classes once, and
    # every exact reader of it reads those; each reads as on a fresh family
    P, params = _exact_system(name)
    family = mb.enumerate_family(P, params)
    built = []
    for build in (_relation_arrays, _class_arrays):
        monkeypatch.setattr(f"mixbound.adversary.{build.__name__}",
                            lambda *args, build=build: built.append((build, args))
                            or build(*args))
    other = mb.enumerate_family(P, params)
    assert repr(mb.relation_mass(family, family)) == repr(mb.relation_mass(other, other))
    assert repr(mb.distinguishing_mass(family)) == repr(mb.distinguishing_mass(other))
    assert repr(_exact_report(family)) == repr(mb.exact_lower_bound(P, params))
    for seed, subsets in itertools.product(range(5), (1, 7, 200)):
        assert repr(_ratio_check(family, subsets, seed)) == repr(
            mb.ratio_property_check(P, params, subsets, seed))
    assert repr(_exact_report(family)) == repr(mb.exact_lower_bound(P, params))
    ours = [build for build, args in built
            if any(arg is family or arg is family.walks for arg in args)]
    assert sorted(b.__name__ for b in ours) == ["_class_arrays", "_relation_arrays"]


def test_the_exact_path_builds_no_instance_objects(monkeypatch):
    # the exact readers read a family's arrays; its instances are built
    # only when family.instances is read
    built = Counter()
    for cls in (StaircaseInstance, Walk):
        def counted(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    P, params = _exact_system("K4")
    family = mb.enumerate_family(P, params)
    mb.exact_lower_bound(P, params)
    mb.relation_mass(family, family)
    mb.distinguishing_mass(family)
    _ratio_check(family, 20, 0)
    assert built == Counter()
    assert len(family.instances) == len(family)
    assert built == Counter(StaircaseInstance=len(family), Walk=len(family))


def test_a_family_holds_read_only_relation_arrays_and_table(k3_family):
    # the relation arrays and the head classes outlive the call that builds
    # them, so no reader may write into them
    classes = k3_family._classes
    for a in (*k3_family._relation, classes.walk, classes.weights, classes.mass,
              *(a for level in classes.levels for a in level if a.size)):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]


def test_ratio_check_holds_no_pair_shaped_array():
    # a chunk of draws re-weights the head classes: on K4 (512 instances,
    # 200 subsets) it peaks at about 0.9 MiB with the classes built, against
    # 2.9 MiB when it counted the pair table's cells per draw
    np.random.default_rng(0)  # the first generator's import is not the check's
    family = mb.enumerate_family(*_exact_system("K4"))
    result, peak = traced_peak(lambda: _ratio_check(family, 200, 0))
    assert result.subsets_checked == 200 and peak <= 1.2 * (1 << 20)


def test_ratio_check_refuses_a_family_without_positive_q():
    P = mb.lazy_simple_walk(mb.complete_graph(2))
    params = mb.custom_params(P, T=1, L=2)  # every walk repeats a milestone
    for subsets, draws in ((1, 100), (7, 140)):
        message = f"^no subset with positive q found in {draws} draws$"
        with pytest.raises(CapabilityError, match=message):
            _ratio_by_loop(P, params, subsets, seed=0)
        with pytest.raises(CapabilityError, match=message):
            mb.ratio_property_check(P, params, subsets=subsets, seed=0)


def test_ratio_property_check_k3(k3_chain, k3_params):
    result = mb.ratio_property_check(k3_chain, k3_params, subsets=60, seed=3)
    assert result.passed
    assert result.subsets_checked == 60
    assert result.min_ratio >= result.threshold
    assert result.min_ratio >= 1.0 - 1e-12  # q(Z) <= M(Z) for any subset


def test_witness_pair_positive_q():
    P = mb.lazy_simple_walk(mb.complete_graph(4))
    params = mb.default_params(P)
    pair = mb.witness_pair(P, params)
    x, y = pair.instances
    assert (x.bit, y.bit) == (0, 1)
    assert mb.is_good_walk(x.walk, params.T)
    assert mb.is_good_walk(y.walk, params.T)
    j = mb.shared_head_index(x.walk, y.walk, params.T)
    assert j == params.m - 1
    head = mb.head(y.walk, j, params.T)
    expected_r = (x.walk.probability() * y.walk.probability()
                  / mb.walk_probability(P, head))
    assert mb.relation_weight(x, y) == pytest.approx(expected_r, rel=1e-12)
    assert expected_r > 0
    assert mb.distinguishing_mass(pair).q > 0


def test_witness_pair_reach_k256():
    P = mb.lazy_simple_walk(mb.complete_graph(256))
    index = P.sampling_table[0]
    indptr = index.shape[1] * np.arange(P.n + 1)
    assert all(np.all(_bfs(indptr, index.ravel(), s, depth=2)[0] >= 0) for s in range(P.n))
    pair = mb.witness_pair(P, mb.custom_params(P, 2, 32))
    assert len(pair.instances) == 2


def _runs(*pairs):
    """Expand (vertex, repeat) pairs into a vertex tuple."""
    return tuple(v for v, k in pairs for _ in range(k))


# x and y walks of A6's three chains at default parameters and of K256 at
# T=2, L=32, as constructed before the witness search moved to the
# neighbour tables.
WITNESS_GOLDEN = {
    "complete16": (
        _runs((1, 5), (2, 5), (3, 5), (4, 5), (5, 1)),
        _runs((1, 5), (2, 5), (3, 5), (4, 5), (6, 1))),
    "hypercube4": (
        _runs((1, 12), (2, 11), (1, 1), (3, 12), (4, 10), (2, 1), (1, 1), (5, 1)),
        _runs((1, 12), (2, 11), (1, 1), (3, 12), (4, 11), (2, 1), (6, 1))),
    "hypercube4-maxdeg": (
        _runs((1, 12), (2, 11), (1, 1), (3, 12), (4, 10), (2, 1), (1, 1), (5, 1)),
        _runs((1, 12), (2, 11), (1, 1), (3, 12), (4, 11), (2, 1), (6, 1))),
    "k256": (
        _runs(*((v, 2) for v in range(1, 17)), (17, 1)),
        _runs(*((v, 2) for v in range(1, 17)), (18, 1))),
}


@pytest.mark.parametrize("label", list(WITNESS_GOLDEN))
def test_witness_pair_golden(label):
    build, spec, sizes = {
        "complete16": (mb.lazy_simple_walk, "complete:16", None),
        "hypercube4": (mb.lazy_simple_walk, "hypercube:4", None),
        "hypercube4-maxdeg": (mb.max_degree_walk, "hypercube:4", None),
        "k256": (mb.lazy_simple_walk, "complete:256", (2, 32)),
    }[label]
    P = build(mb.graph_from_spec(spec))
    params = mb.default_params(P) if sizes is None else mb.custom_params(P, *sizes)
    x, y = mb.witness_pair(P, params).instances
    assert (x.walk.vertices, y.walk.vertices) == WITNESS_GOLDEN[label]


def test_underflowed_head_refuses_the_relation_weight():
    # the witness walks of hypercube:10 at default parameters (L = 2 400)
    # have heads that underflow to 0.0, so p(x) p(y) / p(shared head) is 0/0
    P = mb.lazy_simple_walk(mb.hypercube_graph(10))
    pair = mb.witness_pair(P, mb.default_params(P))
    x, y = pair.instances
    assert pair._relation.heads[1, -2] == 0.0
    with pytest.raises(CapabilityError, match="underflows to 0.0"):
        mb.relation_weight(x, y)
    with pytest.raises(CapabilityError, match="underflows to 0.0"):
        mb.distinguishing_mass(pair)
    with pytest.raises(CapabilityError, match="underflows to 0.0"):
        _exact_report(pair)


def test_witness_pair_requires_room():
    P = mb.lazy_simple_walk(mb.complete_graph(2))
    params = mb.custom_params(P, T=1, L=2)
    with pytest.raises(CapabilityError):
        mb.witness_pair(P, params)


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------

def test_estimate_matches_exact_k3(k3_chain, k3_params):
    exact = mb.exact_lower_bound(k3_chain, k3_params)
    est = mb.estimate_lower_bound(k3_chain, k3_params, samples=20_000, seed=2)
    assert est.method == "monte_carlo"
    assert abs(est.M - exact.M) <= 3 * est.std_error
    assert abs(est.q - exact.q) <= 3 * est.q_std_error
    assert est.context["q_bias"] == "upward"


def test_estimate_deterministic(k3_chain, k3_params):
    # about 8 samples in 2 000 are told apart on K3; 500 at seed 77 had none
    a = mb.estimate_lower_bound(k3_chain, k3_params, samples=2_000, seed=77)
    b = mb.estimate_lower_bound(k3_chain, k3_params, samples=2_000, seed=77)
    assert (a.M, a.q, a.std_error, a.argmax_vertex) == (b.M, b.q, b.std_error, b.argmax_vertex)


def test_estimate_error_shrinks_with_samples(k3_chain, k3_params):
    ladder = [2_000, 4_000, 8_000, 16_000]
    errors = [mb.estimate_lower_bound(k3_chain, k3_params, samples=s, seed=13).std_error
              for s in ladder]
    # 8x the samples should give roughly sqrt(8) ~ 2.8x smaller error
    assert errors[-1] <= errors[0] / 2
    assert all(e > 0 for e in errors)


def test_estimate_zero_samples_error(k3_chain, k3_params):
    with pytest.raises(InputError):
        mb.estimate_lower_bound(k3_chain, k3_params, samples=0, seed=1)


@pytest.mark.parametrize("samples", [0, -1, 2.5, True, "3"])
@pytest.mark.parametrize("estimator", [mb.estimate_lower_bound,
                                       mb.milestone_escape_estimates])
def test_estimators_refuse_bad_sample_counts(k3_chain, k3_params, estimator, samples):
    # zero samples would give (nan, inf) per segment with numpy warnings,
    # and a float a raw TypeError
    with pytest.raises(InputError, match="samples must be a positive integer"):
        estimator(k3_chain, k3_params, samples=samples, seed=0)


def test_estimate_refuses_zero_milestones(monkeypatch):
    # with L = 0 there is no milestone to redraw from; the estimator
    # refuses before it draws anything
    P = mb.lazy_simple_walk(mb.complete_graph(4))
    calls = []
    monkeypatch.setattr("mixbound.adversary._sample_tails",
                        lambda *args: calls.append(args) or _sample_tails(*args))
    with pytest.raises(CapabilityError, match="no milestone"):
        mb.estimate_lower_bound(P, mb.custom_params(P, T=2, L=0), samples=10, seed=0)
    assert calls == []


def test_one_sample_standard_errors_are_infinite():
    # one sample says nothing about spread; q's SE once read 0.0 here.
    # Seed 8 is the first from 5 up whose one sample is told apart: M and
    # q are then 2 * m * 1 with m = 2.
    P = mb.lazy_simple_walk(mb.complete_graph(4))
    est = mb.estimate_lower_bound(P, mb.custom_params(P, T=2, L=4), samples=1, seed=8)
    assert (est.M, est.q) == (4.0, 4.0)
    assert est.std_error == math.inf
    assert est.q_std_error == math.inf


def _unbiased_system(name):
    if name == "path4":  # non-regular: sigma = 2
        P = mb.lazy_simple_walk(mb.path_graph(4))
        return P, mb.custom_params(P, T=2, L=4)
    P = mb.lazy_simple_walk(mb.complete_graph(int(name[1])))
    return P, (mb.custom_params(P, T=1, L=2) if name == "K3" else mb.default_params(P))


@pytest.mark.parametrize("name", ["K3", "K4", "path4"])
def test_estimate_is_unbiased_over_seeds(name):
    # one random milestone per sample, credited m times, has the same mean
    # as a redraw from every milestone: the mean of 40 seeded estimates
    # lies within three of its standard errors of the exact M
    P, params = _unbiased_system(name)
    exact = mb.exact_lower_bound(P, params).M
    Ms = np.array([mb.estimate_lower_bound(P, params, samples=2_000, seed=s).M
                   for s in range(40)])
    assert abs(Ms.mean() - exact) <= 3 * Ms.std(ddof=1) / math.sqrt(len(Ms))


def test_estimate_refuses_before_any_redraw(monkeypatch):
    # with no good walk among the x walks, no redraw can count, so none
    # is drawn: the one call to the sampler is the one for the x walks
    P = mb.lazy_simple_walk(mb.complete_graph(2))
    params = mb.custom_params(P, T=1, L=2)
    calls = []
    monkeypatch.setattr("mixbound.adversary._sample_tails",
                        lambda *args: calls.append(args) or _sample_tails(*args))
    with pytest.raises(CapabilityError, match="no good walk"):
        mb.estimate_lower_bound(P, params, samples=200, seed=0)
    assert len(calls) == 1


def test_estimate_no_good_walks_error():
    P = mb.lazy_simple_walk(mb.complete_graph(2))
    params = mb.custom_params(P, T=1, L=2)  # no good walk exists on 2 vertices
    with pytest.raises(CapabilityError, match="effective samples"):
        mb.estimate_lower_bound(P, params, samples=200, seed=0)


# Seeded outputs pinned to the repr: a rewrite of the sampler or of the
# difference counting must reproduce them bit for bit.
# The escape standard errors are _credited_mean's, as the estimate's are.
ESTIMATE_GOLDEN = {
    ("rr32", 11): (
        "(0.6933333333333334, 0.26666666666666666, 0.1301652609918719, "
        "0.08304856584173284, 16)",
        "[(0.24, 0.030275120389073013), (0.365, 0.034127679271557736), "
        "(0.405, 0.03479841445010399), (0.735, 0.0312852815908872)]"),
    ("rr32", (3, 5)): (
        "(0.7466666666666667, 0.24, 0.13458498356085022, "
        "0.07892250972825193, 5)",
        "[(0.19, 0.027809473820460076), (0.335, 0.033458517029435794), "
        "(0.42, 0.03498743493048719), (0.645, 0.03392091008070859)]"),
    ("metropolis", 11): (
        "(0.06666666666666667, 0.06666666666666667, 0.047061555869701094, "
        "0.047061555869701094, 5)",
        "[(0.04, 0.013891177924157585), (0.055, 0.016161092305986405), "
        "(0.08, 0.019231465004808025), (0.195, 0.028085923439997253), "
        "(0.515, 0.035428106832977174)]"),
    ("metropolis", (3, 5)): (
        "(0.1, 0.06666666666666667, 0.057541609199757864, "
        "0.047061555869701094, 9)",
        "[(0.03, 0.012092607484694708), (0.04, 0.013891177924157585), "
        "(0.09, 0.02028688711815402), (0.19, 0.027809473820460076), "
        "(0.26, 0.031093957143700307)]"),
}


def _golden_system(name):
    if name == "rr32":
        P = mb.lazy_simple_walk(mb.random_regular_graph(32, 4, seed=0))
        return P, mb.custom_params(P, T=3, L=12)
    target = np.arange(1, 21, dtype=float)
    P = mb.metropolis_walk(mb.torus_graph(4, 5), target / target.sum())
    return P, mb.custom_params(P, T=2, L=10)


@pytest.mark.parametrize("name,seed", list(ESTIMATE_GOLDEN))
def test_estimate_golden_outputs(name, seed):
    P, params = _golden_system(name)
    est = mb.estimate_lower_bound(P, params, samples=300, seed=seed)
    escape = mb.milestone_escape_estimates(P, params, samples=200, seed=seed)
    want_estimate, want_escape = ESTIMATE_GOLDEN[(name, seed)]
    assert repr((est.M, est.q, est.std_error, est.q_std_error,
                 est.argmax_vertex)) == want_estimate
    assert repr(escape) == want_escape


def test_estimators_accept_numpy_integer_counts():
    # a numpy count gives the same plain floats as the int it holds
    P, params = _golden_system("rr32")
    est = mb.estimate_lower_bound(P, params, samples=np.int64(300), seed=11)
    escape = mb.milestone_escape_estimates(P, params, samples=np.int64(200), seed=11)
    want_estimate, want_escape = ESTIMATE_GOLDEN[("rr32", 11)]
    assert repr((est.M, est.q, est.std_error, est.q_std_error,
                 est.argmax_vertex)) == want_estimate
    assert repr(escape) == want_escape


# One to three samples often draw no milestone 0, where the redraw skips
# the trailing uniforms that no row keeps. The outcomes, each the repr of
# (M, q, std_error, q_std_error, argmax_vertex) or the error text, are
# pinned by the sha256 of their lines.
TINY_SWEEP_SHA256 = "a920a6c4b51c06f6498d6d6b6b53b966fbce76270bc94c2664e924b89339c723"


def test_estimate_tiny_sample_sweep():
    K4 = mb.lazy_simple_walk(mb.complete_graph(4))
    rr32 = _golden_system("rr32")
    lines = []
    for P, params in [(K4, mb.custom_params(K4, T=2, L=4)), rr32]:
        for samples, seed in itertools.product((1, 2, 3), range(300)):
            try:
                est = mb.estimate_lower_bound(P, params, samples=samples, seed=seed)
                lines.append(repr((est.M, est.q, est.std_error, est.q_std_error,
                                   est.argmax_vertex)))
            except CapabilityError as exc:
                lines.append(str(exc))
    assert len(lines) == 1_800
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TINY_SWEEP_SHA256


# The benchmark's own configuration (perfbench mc-regular256): random-
# regular:256,4 from graph seed 0 at default parameters (T = 84, L = 1 344)
# and 250 samples, by seed: the repr of (M, q, std_error, q_std_error,
# argmax_vertex).
RR256_GOLDEN = {
    1: "(13.568, 11.136, 1.002177099997319, 0.9659701908643735, 66)",
    2: "(14.336, 11.904, 1.0084604035569114, 0.9801704302258646, 201)",
    3: "(13.184, 10.88, 0.9981310728327302, 0.9606423553746518, 41)",
    4: "(12.416, 10.112, 0.9881932399678073, 0.9428050431545169, 8)",
}


def test_estimate_golden_at_the_benchmark_configuration():
    P = mb.lazy_simple_walk(mb.graph_from_spec("random-regular:256,4", seed=0))
    params = mb.default_params(P)
    assert (params.T, params.L) == (84, 1_344)
    for seed, want in RR256_GOLDEN.items():
        est = mb.estimate_lower_bound(P, params, samples=250, seed=seed)
        assert repr((est.M, est.q, est.std_error, est.q_std_error,
                     est.argmax_vertex)) == want


def _full_difference_counts(rows, xs, zs, n):
    """Reference: the difference counts from last occurrences over the
    whole walks, in one pass over every row."""
    diff = _last_occurrence(xs[rows], n) != _last_occurrence(zs[rows], n)
    diff[np.arange(rows.size), xs[rows, -1] - 1] = True
    return diff.sum(axis=0)


def test_last_occurrence_equals_a_loop():
    walks = np.random.default_rng(0).integers(1, 8, (6, 11))
    want = np.full((6, 9), -1)
    for i, walk in enumerate(walks.tolist()):
        for pos, v in enumerate(walk):
            want[i, v - 1] = pos
    got = _last_occurrence(walks, 9)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("cells", [None, 1, 200])
@pytest.mark.parametrize("milestones", ["random", "first", "last"])
def test_tail_difference_counts_equal_the_full_rows(milestones, cells, monkeypatch):
    # x and z share columns 0..J*T, so counting over the redrawn tails
    # alone gives the same counts, on hit sets of every size, at J = 0
    # and J = m - 1, with shared and distinct ends, and in small chunks
    P, params, xs = _redraw_inputs()
    T, m = params.T, params.m
    if cells is not None:
        monkeypatch.setattr("mixbound.adversary._DIFF_CHUNK_CELLS", cells)
    J = {"random": np.random.default_rng(4).integers(0, m, len(xs)),
         "first": np.zeros(len(xs), dtype=np.int64),
         "last": np.full(len(xs), m - 1)}[milestones]
    zs, hit = _redraw(P, xs, J, T, np.random.default_rng(9))
    shared = xs[:, -1] == zs[:, -1]
    assert shared.any() and not shared.all()
    rng = np.random.default_rng(2)
    for rows in (np.flatnonzero(hit), np.arange(len(xs)), np.flatnonzero(shared),
                 np.flatnonzero(~shared), np.sort(rng.choice(len(xs), 17, replace=False)),
                 np.array([int(rng.integers(len(xs)))])):
        assert rows.size
        got = _difference_counts(rows, xs, zs, J, T, P.n)
        assert np.array_equal(got, _full_difference_counts(rows, xs, zs, P.n))
    empty = _difference_counts(np.array([], dtype=np.intp), xs, zs, J, T, P.n)
    assert empty.dtype == np.int64 and np.array_equal(empty, np.zeros(P.n))


def test_estimate_without_hits_has_no_distinguishing_event(monkeypatch):
    # no hit leaves no row to count, so every vertex count is zero and
    # the estimate refuses rather than dividing by a zero q
    def no_hits(*args):
        zs, hit = _redraw(*args)
        return zs, np.zeros_like(hit)

    P, params = _golden_system("rr32")
    monkeypatch.setattr("mixbound.adversary._redraw", no_hits)
    with pytest.raises(CapabilityError, match="no distinguishing event"):
        mb.estimate_lower_bound(P, params, samples=50, seed=11)


def _redraw_inputs():
    P, params = _golden_system("rr32")
    xs = np.ones((200, params.L + 1), dtype=np.int64)
    _sample_tails(P, xs, 0, np.random.default_rng(5))
    return P, params, xs


def _redraw_hits(xs, zs, J, params):
    """Per row: z is good (m + 1 distinct milestones) and differs from x
    somewhere in segment J."""
    T, m = params.T, params.m
    return np.array([len(set(z[::T].tolist())) == m + 1
                     and (z[j * T + 1:(j + 1) * T + 1] != x[j * T + 1:(j + 1) * T + 1]).any()
                     for x, z, j in zip(xs, zs, J)])


@pytest.mark.parametrize("j", range(4))
def test_redraw_constant_milestone_is_a_plain_redraw(j):
    # copy the head through milestone j, then draw the rest in place: the
    # same walks from the same uniforms, and no uniform more or less
    P, params, xs = _redraw_inputs()
    rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
    zs, hit = _redraw(P, xs, np.full(len(xs), j), params.T, rng)
    want = np.empty_like(xs)
    want[:, :j * params.T + 1] = xs[:, :j * params.T + 1]
    _sample_tails(P, want, j * params.T, want_rng)
    assert np.array_equal(zs, want)
    assert np.array_equal(hit, _redraw_hits(xs, want, [j] * len(xs), params))
    assert 0 < hit.sum() < len(hit)
    assert rng.random() == want_rng.random()


def test_redraw_random_milestones_are_a_shifted_full_draw():
    # min(J) > 0: each row keeps the first L - J*T steps of a full L-step
    # walk from its milestone, behind x's head
    P, params, xs = _redraw_inputs()
    T, L = params.T, params.L
    J = np.random.default_rng(3).integers(1, params.m, len(xs))
    assert J.min() == 1 and J.max() == params.m - 1
    zs, hit = _redraw(P, xs, J, T, np.random.default_rng(9))
    tails = np.empty_like(xs)
    tails[:, 0] = xs[np.arange(len(xs)), J * T]
    _sample_tails(P, tails, 0, np.random.default_rng(9))
    want = np.array([np.concatenate([x[:j * T], tail[:L + 1 - j * T]])
                     for x, tail, j in zip(xs, tails, J)])
    assert np.array_equal(zs, want)
    assert np.array_equal(hit, _redraw_hits(xs, want, J, params))
    assert 0 < hit.sum() < len(hit)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(hst.data())
def test_estimate_within_four_errors_of_exact(data):
    # small random chains whose exact M is not tiny: the 4 000-sample
    # estimate of M lies within 4 of its standard errors of the exact M
    n = data.draw(hst.integers(min_value=3, max_value=6), label="n")
    seed = data.draw(hst.integers(min_value=0, max_value=10_000), label="seed")
    T = data.draw(hst.sampled_from([1, 2]), label="T")
    m = data.draw(hst.sampled_from([2, 3]), label="m")
    rng = np.random.default_rng(seed)
    tree = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    extra = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.4}
    g = mb.make_graph(n, tree | extra)
    if data.draw(hst.booleans(), label="metropolis"):
        target = rng.uniform(0.1, 1.0, n)
        P = mb.metropolis_walk(g, target / target.sum())
    else:
        P = mb.lazy_simple_walk(g)
    params = mb.custom_params(P, T=T, L=m * T)
    try:
        family = mb.enumerate_family(P, params, cap=2_000)
    except CapabilityError:
        assume(False)
    exact = mb.relation_mass(family, family).total
    assume(exact >= 0.05)
    est = mb.estimate_lower_bound(P, params, samples=4_000, seed=seed)
    assert abs(est.M - exact) <= 4 * est.std_error


def test_milestone_escape_estimates_shape():
    P = mb.lazy_simple_walk(mb.complete_graph(16))
    params = mb.default_params(P)
    estimates = mb.milestone_escape_estimates(P, params, samples=2_000, seed=4)
    assert len(estimates) == params.m
    for p, se in estimates:
        assert 0.0 <= p <= 1.0
        assert p >= 2.0 ** (-4 * params.sigma) - 3 * se
        # one standard-error rule for both estimators
        assert (p, se) == _credited_mean(round(p * 2_000), 2_000, 1.0)


def test_milestone_escape_redraws_from_a_view_of_the_one_walk():
    # x is broadcast, not tiled, and the redraws are int32; an int64 tile
    # of x with int64 redraws peaks at 21 bytes per walk cell here
    P = mb.lazy_simple_walk(mb.hypercube_graph(8))
    params = mb.default_params(P)
    _, peak = traced_peak(lambda: mb.milestone_escape_estimates(P, params, samples=500, seed=0))
    assert peak <= 12 * 500 * (params.L + 1)


# ---------------------------------------------------------------------------
# Difference localization (subset of the verify suite, spot-checked here)
# ---------------------------------------------------------------------------

def test_difference_localization_k3(k3_family):
    T = 1
    for a, b in itertools.product(k3_family.instances, repeat=2):
        if a.walk.vertices == b.walk.vertices:
            continue
        j = mb.shared_head_index(a.walk, b.walk, T)
        region = set(mb.tail(a.walk, j, T)) | set(mb.tail(b.walk, j, T))
        for v in (1, 2, 3):
            if a.decision_value(v) != b.decision_value(v):
                assert v in region


# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------

def test_bound_values_theorem():
    vals = mb.bound_values(16, 2, 1.0)
    assert vals["mixing"] == pytest.approx(4 / (2 * math.exp(3)))
    assert vals["mixing"] == pytest.approx(0.09957, abs=5e-6)


def test_bound_values_log_factor():
    vals = mb.bound_values(100, 3, 1.0, lambda2=0.25)
    assert vals["spectral_bounded_ratio"] / vals["spectral_log_squared"] == \
        pytest.approx(math.log(100))


def test_bound_values_plugin():
    n = math.exp(2)
    vals = mb.bound_values(n, 1, 1.0, lambda2=0.0)
    assert vals["spectral_bounded_ratio"] == pytest.approx(math.sqrt(n) / 2)


def test_bound_values_expansion():
    vals = mb.bound_values(64, 5, 1.0, lambda2=0.5, beta=1.5, d_max=6)
    assert vals["expansion"] == pytest.approx(1.5 * 8 / (6 * math.log(64) ** 2))
    assert set(vals) == {"mixing", "spectral", "spectral_bounded_ratio",
                         "spectral_log_squared", "expansion"}


def test_bound_values_validation():
    with pytest.raises(InputError):
        mb.bound_values(1, 2, 1.0)
    with pytest.raises(InputError):
        mb.bound_values(16, 0, 1.0)
    with pytest.raises(InputError):
        mb.bound_values(16, 2, -1.0)
    with pytest.raises(InputError):
        mb.bound_values(16, 2, 1.0, lambda2=1.5)
    with pytest.raises(InputError):
        mb.bound_values(16, 2, 1.0, beta=0.0, d_max=3)
    # NaN and the infinities once passed every check but lambda2's
    args = {"n": 100, "t_mix": 5.0, "sigma": 1.0, "lambda2": 0.5, "beta": 1.5, "d_max": 6.0}
    assert all(map(math.isfinite, mb.bound_values(**args).values()))
    for name, value in itertools.product(args, (math.nan, math.inf, -math.inf)):
        with pytest.raises(InputError):
            mb.bound_values(**{**args, name: value})


def test_bound_values_saturate_a_huge_sigma():
    # e^(3 sigma) overflows a float above sigma ~ 236.6: the shapes that
    # divide by it read 0.0, and those that compute keep their bits
    vals = mb.bound_values(100, 5, 300.0, lambda2=0.5)
    assert vals["mixing"] == vals["spectral"] == 0.0
    assert vals["spectral_bounded_ratio"] == 0.5 * 10 / math.log(100)
    assert mb.bound_values(100, 5, 236.0)["mixing"] == 10 / (5 * math.exp(708.0))
