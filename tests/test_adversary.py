import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import mixbound as mb
from mixbound.adversary import _pair_table, _redraw, ratio_floor
from mixbound.chains import _sample_tails
from mixbound.graphs import _bfs
from mixbound.errors import CapabilityError, InputError
from mixbound.staircase import StaircaseParams


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
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="exceeds enumeration cap 100000"):
            mb.enumerate_family(P, params, cap=10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("L,cap", [(0, 0), (0, 1), (2, 8), (2, 9), (3, 26), (3, 27)])
def test_enumerate_cap_boundary(k3_chain, L, cap):
    # lazy K3 has 3^L walks from vertex 1: exactly the cap is admitted
    params = mb.custom_params(k3_chain, T=1, L=L)
    if 3 ** L > cap:
        with pytest.raises(CapabilityError, match="Monte Carlo"):
            mb.enumerate_family(k3_chain, params, cap=cap)
    else:
        assert len(mb.enumerate_family(k3_chain, params, cap=cap)) == 2 * 3 ** L


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


def test_q_linear_in_relation(k3_family):
    # doubling every weight doubles q and leaves M/q fixed
    table = _pair_table(k3_family)
    dm = mb.distinguishing_mass(k3_family)
    doubled = {}
    for (v, a, b), told_apart in np.ndenumerate(table.diff):
        if told_apart:  # a table entry stands for both orders of its pair
            doubled[v + 1] = doubled.get(v + 1, 0.0) + 2 * 2.0 * table.r[a, b]
    assert max(doubled.values()) == pytest.approx(2 * dm.q, abs=1e-15)
    m_doubled = 2 * mb.relation_mass(k3_family, k3_family).total
    assert m_doubled / max(doubled.values()) == pytest.approx(
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


@pytest.mark.parametrize("name", ["K3", "K4"])
def test_pair_table_matches_relation_weight(name):
    family = mb.enumerate_family(*_exact_system(name))
    table = _pair_table(family)
    weights = {}
    for (a, b), r in np.ndenumerate(table.r):
        i, k = int(table.rows[a]), int(table.cols[b])
        weights[i, k] = weights[k, i] = float(r)
    insts = family.instances
    for (i, a), (k, b) in itertools.product(enumerate(insts), repeat=2):
        assert weights.get((i, k), 0.0) == mb.relation_weight(a, b)


def test_exact_pair_cap_refuses(monkeypatch):
    P, params = _exact_system("K4")
    family = mb.enumerate_family(P, params)
    good = sum(mb.is_good_walk(inst.walk, params.T) for inst in family.instances)
    monkeypatch.setattr("mixbound.adversary.EXACT_PAIR_CAP", good ** 2 - 1)
    with pytest.raises(CapabilityError, match="cap"):
        mb.exact_lower_bound(P, params)
    with pytest.raises(CapabilityError, match="cap"):
        mb.ratio_property_check(P, params, subsets=1, seed=0)
    monkeypatch.setattr("mixbound.adversary.EXACT_PAIR_CAP", good ** 2)
    assert mb.exact_lower_bound(P, params).context["good_instances"] == good


# Exact outputs pinned to the repr: (M, q, argmax_vertex, per_vertex) and
# the ratio check over 200 subsets with seed 0.
EXACT_GOLDEN = {
    "K4": (
        "(0.379515317786923, 0.3074702789208964, 2, (0.15503543667123926, "
        "0.3074702789208964, 0.3074702789208964, 0.3074702789208964))",
        "RatioCheckResult(passed=True, threshold=0.010416666666666666, "
        "min_ratio=1.2343154568268426, subsets_checked=200, worst_subset_size=510)"),
    "cycle7": (
        "(0.27447509765625, 0.16265869140625, 2, (0.10888671875, "
        "0.16265869140625, 0.14923095703125, 0.08673095703125, 0.08673095703125, "
        "0.14923095703125, 0.16265869140625))",
        "RatioCheckResult(passed=True, threshold=0.010416666666666666, "
        "min_ratio=1.6790334855403348, subsets_checked=200, worst_subset_size=160)"),
    "metropolis6": (
        "(0.01830056000000001, 0.011005170000000007, 6, (0.0, "
        "0.0067522355555555595, 0.008309257777777782, 0.009491266666666671, "
        "0.010375556666666673, 0.011005170000000007))",
        "RatioCheckResult(passed=True, threshold=3.311369154188368e-09, "
        "min_ratio=1.6629057070449615, subsets_checked=200, worst_subset_size=430)"),
}


@pytest.mark.parametrize("name, block_cells", [
    *(pytest.param(name, None, id=name) for name in EXACT_GOLDEN),
    *(pytest.param(name, 7, id=f"{name}-block7") for name in EXACT_GOLDEN)])
def test_exact_golden_outputs(name, block_cells, monkeypatch):
    # q sums are the same whether a block holds many rows or part of one
    if block_cells is not None:
        monkeypatch.setattr("mixbound.adversary._SUM_BLOCK_CELLS", block_cells)
    P, params = _exact_system(name)
    report = mb.exact_lower_bound(P, params)
    per_vertex = mb.distinguishing_mass(mb.enumerate_family(P, params)).per_vertex
    want_exact, want_ratio = EXACT_GOLDEN[name]
    assert repr((report.M, report.q, report.argmax_vertex, per_vertex)) == want_exact
    assert repr(mb.ratio_property_check(P, params, subsets=200, seed=0)) == want_ratio


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
ESTIMATE_GOLDEN = {
    ("rr32", 11): (
        "(0.6933333333333334, 0.26666666666666666, 0.1301652609918719, "
        "0.08304856584173284, 16)",
        "[(0.24, 0.03027512038907301), (0.365, 0.034127679271557736), "
        "(0.405, 0.03479841445010399), (0.735, 0.0312852815908872)]"),
    ("rr32", (3, 5)): (
        "(0.7466666666666667, 0.24, 0.13458498356085022, "
        "0.07892250972825193, 5)",
        "[(0.19, 0.027809473820460076), (0.335, 0.0334585170294358), "
        "(0.42, 0.0349874349304872), (0.645, 0.033920910080708584)]"),
    ("metropolis", 11): (
        "(0.06666666666666667, 0.06666666666666667, 0.047061555869701094, "
        "0.047061555869701094, 5)",
        "[(0.04, 0.013891177924157585), (0.055, 0.016161092305986408), "
        "(0.08, 0.019231465004808025), (0.195, 0.028085923439997242), "
        "(0.515, 0.035428106832977174)]"),
    ("metropolis", (3, 5)): (
        "(0.1, 0.06666666666666667, 0.057541609199757864, "
        "0.047061555869701094, 9)",
        "[(0.03, 0.012092607484694706), (0.04, 0.013891177924157585), "
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
