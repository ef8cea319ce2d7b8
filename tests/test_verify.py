import dataclasses
import gc
import io
import itertools
import json
import math
import os
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
import subprocess
import sys
import weakref

import numpy as np
import pytest

import mixbound
from mixbound import adversary as adv
from mixbound import chains as ch
from mixbound import graphs as gr
from mixbound import staircase as st
from mixbound import verify
from mixbound.cli import main
from mixbound.errors import InputError, VacuousRegimeWarning
from mixbound.verify import (CHECKS, VerifyCaps, _Context, _good_walks, _pair_reference,
                             run_verify)

from conftest import traced_peak

LEMMA_NAMES = [
    "A1_validity", "A2_mixing_concentration", "A3_visit_sum",
    "A4_milestone_escape", "A5_difference_localization",
    "A6_witness_existence", "A7_monotone_grid", "A8_time_reversal",
    "A9_unique_minimum", "B1_cheeger_sandwich", "B2_expansion_bound",
]

FAST_CAPS = VerifyCaps(instances=40, escape_samples=1500, ratio_subsets=25,
                       mc_samples=4000)


def test_registry_covers_every_lemma():
    # the suite must list one entry per helper fact plus the B-side checks
    for name in LEMMA_NAMES:
        assert name in CHECKS
    lemma_suite = [n for n, (suites, _) in CHECKS.items() if "lemmas" in suites]
    assert set(LEMMA_NAMES) <= set(lemma_suite)


def test_suite_selection():
    with pytest.raises(InputError):
        run_verify(suite="everything")
    with pytest.raises(InputError):
        run_verify(checks=["bogus"])


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(VerifyCaps)])
@pytest.mark.parametrize("value", [0, -1, True, 2.5])
def test_caps_refuse_what_is_not_a_positive_integer(field, value):
    # 0 or -3 instances passed A1, A9 and solver_invariants on no instance,
    # and True ran one
    with pytest.raises(InputError, match=f"^{field} must be a positive integer"):
        VerifyCaps(**{field: value})
    assert getattr(VerifyCaps(**{field: np.int64(2)}), field) == 2


def test_lemma_suite_passes_fast_caps():
    results = run_verify(suite="lemmas", caps=FAST_CAPS, seed=0)
    assert [r.name for r in results] == [
        n for n in CHECKS if "lemmas" in CHECKS[n][0]]
    failing = [r for r in results if not r.passed]
    assert not failing, failing


def test_adversary_suite_passes_fast_caps():
    results = run_verify(suite="adversary", caps=FAST_CAPS, seed=1)
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert "adversary_symmetry" in names
    assert "adversary_exact_mc" in names


def test_check_results_are_json_ready():
    results = run_verify(checks=["A7_monotone_grid"], seed=0)
    doc = results[0].to_json()
    assert doc == {"name": "A7_monotone_grid", "passed": True,
                   "details": doc["details"]}


# ---------------------------------------------------------------------------
# The exhaustive pair checks: golden output and injected faults
# ---------------------------------------------------------------------------

PAIR_CHECKS = ["A5_difference_localization", "adversary_symmetry"]


def test_pair_checks_golden():
    results = run_verify(checks=PAIR_CHECKS, seed=0)
    assert [r.to_json() for r in results] == [
        {"name": "A5_difference_localization", "passed": True,
         "details": "261408 ordered pairs localized; factor-2 bound holds"},
        {"name": "adversary_symmetry", "passed": True,
         "details": "262468 ordered pairs checked"},
    ]


@pytest.mark.parametrize("walk,vertex,expected", [
    # the faulty instance is x: vertex 1 lies in no tail after the shared head
    ((1, 2, 2), 1, {"x": [1, 2, 2], "y": [1, 2, 3], "bits": [0, 0],
                    "vertex": 1, "J": 1}),
    # the faulty instance is y of an earlier pair
    ((1, 2, 2), 3, {"x": [1, 1, 1], "y": [1, 2, 2], "bits": [0, 0],
                    "vertex": 3, "J": 0}),
    # two faults on K4 (walks, then their vertices): the first pair in
    # row-major order differs at vertex 4, a later pair already at vertex 2
    pytest.param(((1, 1, 1, 1, 1), (1, 1, 1, 1, 3)), (4, 2),
                 {"x": [1, 1, 1, 1, 1], "y": [1, 1, 1, 1, 2], "bits": [0, 0],
                  "vertex": 4, "J": 1}, id="K4-two-faults"),
])
def test_a5_catches_difference_outside_tails(monkeypatch, walk, vertex, expected):
    original = st.StaircaseInstance.decision_value
    faults = set(zip(walk, vertex)) if isinstance(vertex, tuple) else {(walk, vertex)}

    def faulty(self, v):
        val, tag = original(self, v)
        if (self.walk.vertices, v) in faults and self.bit == 0:
            return val, 1
        return val, tag

    monkeypatch.setattr(st.StaircaseInstance, "decision_value", faulty)
    [result] = run_verify(checks=["A5_difference_localization"], seed=0)
    assert not result.passed
    assert result.details == "difference outside the two tails"
    assert result.counterexample == expected


@pytest.mark.parametrize("faulty_pairs,shift,details,expected", [
    # one order only: the weight is no longer symmetric
    ([(((1, 2, 3), 0), ((1, 3, 2), 1))], 1e-3, "relation not symmetric",
     {"x": [1, 2, 3], "y": [1, 3, 2]}),
    ([(((1, 2, 3), 1), ((1, 2, 3), 1))], 0.5, "relation nonzero on the diagonal",
     {"x": [1, 2, 3]}),
    ([(((1, 2, 3), 1), ((1, 3, 2), 1)), (((1, 3, 2), 1), ((1, 2, 3), 1))], 0.5,
     "relation nonzero for equal bits", {"x": [1, 2, 3], "y": [1, 3, 2]}),
    ([(((1, 1, 2), 0), ((1, 2, 3), 1)), (((1, 2, 3), 1), ((1, 1, 2), 0))], 0.5,
     "relation nonzero for a bad walk", {"x": [1, 1, 2], "y": [1, 2, 3]}),
    # two faults: the earlier pair carries the later message
    pytest.param([(((1, 1, 2), 0), ((1, 2, 3), 1)), (((1, 2, 3), 1), ((1, 1, 2), 0)),
                  (((1, 2, 3), 0), ((1, 3, 2), 1))], 0.5,
                 "relation nonzero for a bad walk", {"x": [1, 1, 2], "y": [1, 2, 3]},
                 id="bad-walk-before-asymmetry"),
])
def test_symmetry_catches_faulty_relation(monkeypatch, faulty_pairs, shift,
                                          details, expected):
    # the check reads every weight from the relation kernel; the fault
    # shifts the weight of each listed ordered (walk, bit) pair
    original = adv._relation_block

    def faulty(A, B):
        r = original(A, B)
        keys = [[(tuple(w), int(b)) for w, b in zip(rel.walks.tolist(), rel.bits)]
                for rel in (A, B)]
        for (i, a), (k, b) in itertools.product(enumerate(keys[0]), enumerate(keys[1])):
            if (a, b) in faulty_pairs:
                r[i, k] += shift
        return r

    monkeypatch.setattr(adv, "_relation_block", faulty)
    [result] = run_verify(checks=["adversary_symmetry"], seed=0)
    assert not result.passed
    assert result.details == details
    assert result.counterexample == expected


def test_exact_check_catches_class_sums_without_the_child_subtraction(monkeypatch):
    # pairs inside one child class share a longer head; counted at their
    # parent's level too, they inflate every mass, so the head-class sums
    # part from the pair table on the first micro family
    monkeypatch.setattr(adv, "_parting", lambda within, children, heads: within / heads)
    [result] = run_verify(checks=["adversary_exact_mc"], seed=0)
    assert not result.passed
    assert result.details == "head-class sums disagree with the pair table"
    assert result.counterexample["n"] == 3 and "instance" in result.counterexample


def test_exact_check_compares_the_head_class_sums_with_the_pair_table(monkeypatch):
    # a one-ulp shift of one vertex's q passes; a 1e-9 relative one fails
    original = adv._told_sums
    for shift, passed in ((1.0 + 2.0 ** -52, True), (1.0 + 1e-9, False)):
        def shifted(classes, inside, n, shift=shift):
            q = original(classes, inside, n)
            q[:, -1] *= shift
            return q

        monkeypatch.setattr(adv, "_told_sums", shifted)
        [result] = run_verify(checks=["adversary_exact_mc"], seed=0)
        assert result.passed is passed
        if not passed:
            assert result.counterexample["vertex"] == 3


def test_exact_check_catches_a_reference_without_the_end_vertex_term(monkeypatch):
    # two walks of opposite bits that end at the same vertex v, last there
    # at the same position, are told apart at v only by their tags; without
    # that term the reference's q parts from the head classes on K4 (on K3
    # every good pair ends at different vertices)
    def no_end_term(family):
        ref = original(family)
        last = adv._last_occurrence(family.walks, family.chain.n)
        told = [last[ref.rows, v, None] != last[ref.cols, v] for v in range(family.chain.n)]
        per_vertex = [2.0 * math.fsum(ref.r[mask].tolist()) for mask in told]
        return ref._replace(per_vertex=np.array(per_vertex))

    original = verify._pair_reference
    monkeypatch.setattr(verify, "_pair_reference", no_end_term)
    [result] = run_verify(checks=["adversary_exact_mc"], seed=0)
    assert not result.passed
    assert result.details == "head-class sums disagree with the pair table"
    assert result.counterexample["n"] == 4 and "vertex" in result.counterexample


def test_pair_reference_equals_a_loop_over_k3s_pairs(k3_family):
    # every ordered pair of instances from relation_weight, told apart at v
    # where decision_value differs: weights, masses and q bit for bit
    insts, n = k3_family.instances, k3_family.chain.n
    r = [[adv.relation_weight(a, b) for b in insts] for a in insts]
    told = [[[v for v in range(1, n + 1) if a.decision_value(v) != b.decision_value(v)]
             for b in insts] for a in insts]
    ref = _pair_reference(k3_family)
    full = np.zeros((len(insts), len(insts)))
    full[np.ix_(ref.rows, ref.cols)] = ref.r
    full[np.ix_(ref.cols, ref.rows)] = ref.r.T
    assert np.array_equal(full.view(np.int64), np.array(r).view(np.int64))
    assert ref.mass.tolist() == [math.fsum(row) for row in r]
    assert ref.per_vertex.tolist() == [
        math.fsum(r[i][k] for i, k in itertools.product(range(len(insts)), repeat=2)
                  if v in told[i][k]) for v in range(1, n + 1)]
    assert ref.per_vertex.max() > 0.0


@pytest.mark.parametrize("check, multiple", [
    ("A5_difference_localization", 8), ("adversary_symmetry", 4)])
def test_pair_checks_hold_no_vertex_sized_pair_arrays(check, multiple):
    # pair masks are built one vertex and one condition at a time: A5 peaks
    # at about 4.8 size**2 bytes on K4 (23.7 with (size, size, n) masks);
    # the symmetry check takes its weights a block of rows at a time and
    # peaks at about 3.3 (12.7 with the whole float64 relation matrix held)
    ctx = _Context(VerifyCaps(), seed=0)
    ctx.micro_families = ctx.micro_families[1:]  # K4 at default parameters
    size = len(ctx.micro_families[0])
    run = CHECKS[check][1]
    assert run(ctx)[0]  # caches warm, so only the check is measured
    outcome, peak = traced_peak(lambda: run(ctx))
    assert outcome[0]
    assert peak <= multiple * size ** 2


def test_library_never_imports_numpy_ma():
    # plain np.unique and np.union1d import numpy.ma on their first call
    # (about 10 ms and 1.2 MB); the verify suite, the exact adversary and a
    # chain file round trip must not
    code = """
import sys
import mixbound as mb
from mixbound.verify import run_verify
run_verify(seed=0)
P = mb.lazy_simple_walk(mb.complete_graph(6))
mb.exact_lower_bound(P, mb.custom_params(P, T=2, L=4))
mb.chain_from_json(mb.chain_to_json(P))
print("numpy.ma" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(mixbound.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="ignore")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"]


def test_b1_catches_lambda2_off_the_dense_reference(monkeypatch):
    original = ch.spectral_gap

    def faulty(P):
        lam, gap = original(P)
        return lam + 2e-12, gap - 2e-12

    monkeypatch.setattr(ch, "spectral_gap", faulty)
    [result] = run_verify(checks=["B1_cheeger_sandwich"], seed=0)
    assert not result.passed
    assert result.details == "Lanczos lambda2 differs from the dense eigensolve"


def test_spectral_mixing_catches_lower_end_above_t_mix(monkeypatch):
    original = ch._relaxation_bounds

    def faulty(P, eps, gap=None):
        return ch.mixing_time(P, eps) + 0.5, original(P, eps, gap)[1]

    monkeypatch.setattr(ch, "_relaxation_bounds", faulty)
    [result] = run_verify(checks=["B_spectral_mixing"], seed=0)
    assert not result.passed
    assert result.details == "mixing time outside the spectral bracket"


def test_context_params_cache_keeps_chain_alive():
    # the cache is keyed by the chain itself, which hashes by identity; the
    # key holds the chain, so its (T, L) can never pass to a later chain
    ctx = _Context(VerifyCaps(), seed=0)
    P = ch.lazy_simple_walk(gr.complete_graph(5))
    params = ctx.default_params(P)
    ref = weakref.ref(P)
    del P
    gc.collect()
    assert ref() is not None
    assert ctx.default_params(ref()) is params


# ---------------------------------------------------------------------------
# Shared fixtures: the instances, and each fixture built once per run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("caps, shares", [
    (VerifyCaps(), [24] * 20 + [20]),
    (VerifyCaps(instances=5), [1] * 5 + [0] * 16),
    (VerifyCaps(max_n=8), [56] * 8 + [52]),
])
def test_instances_keep_the_per_chain_shares(caps, shares):
    ctx = _Context(caps, seed=0)
    instances = ctx.instances
    assert len(instances) == caps.instances
    chains = [P for _, _, P in ctx.test_chains]
    assert [sum(inst.chain is P for inst in instances) for P in chains] == shares
    # each chain's share is one run, in chain order
    assert [inst.chain for inst in instances] == sorted(
        (inst.chain for inst in instances), key=lambda P: chains.index(P))
    for inst in instances:
        assert inst.params is ctx.default_params(inst.chain)
        assert inst.walk.start == 1 and inst.walk.probability() > 0.0
        assert st.is_good_walk(inst.walk, inst.params.T)
        # the public check, with its own BFS
        assert st.is_valid_value_function(inst.graph, inst.walk, inst.value)


def test_instances_follow_the_seed():
    def draw(seed):
        return [(inst.walk.vertices, inst.bit)
                for inst in _Context(VerifyCaps(), seed=seed).instances]

    first = draw(0)
    assert first == draw(0)
    assert first != draw(1)
    assert {bit for _, bit in first} == {0, 1}


def test_good_walks_follow_the_chain_law_conditioned_on_good():
    # every good walk of K4 at its default parameters, against its share of
    # the good walks' probability
    P = ch.lazy_simple_walk(gr.complete_graph(4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", VacuousRegimeWarning)
        params = st.default_params(P)
    samples = 20_000
    walks = _good_walks(P, params, samples, np.random.default_rng(0))
    assert walks.shape == (samples, params.L + 1)
    law = {inst.walk.vertices: inst.walk.probability()
           for inst in adv.enumerate_family(P, params).instances
           if inst.bit == 0 and st.is_good_walk(inst.walk, params.T)}
    total = math.fsum(law.values())
    counts = Counter(map(tuple, walks.tolist()))
    assert set(counts) <= set(law)
    for walk, p in law.items():
        p /= total
        z = (counts[walk] - samples * p) / math.sqrt(samples * p * (1.0 - p))
        assert abs(z) < 5.0, (walk, counts[walk], samples * p)


@pytest.mark.parametrize("argv", [("--instances", "5"), ("--max-n", "8")])
def test_verify_passes_with_fewer_instances_or_smaller_graphs(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--seed", "0", *argv])
    assert code == 0
    assert json.loads(out.getvalue())["passed"] is True


def test_run_verify_builds_each_fixture_once(monkeypatch):
    # each wrapped call is counted by what it is built from
    calls = Counter()

    def count(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name, key(*args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(adv, "enumerate_family", lambda P, *_: P)
    count(adv, "_relation_arrays", lambda chain, *_: chain)
    count(verify, "_pair_reference", lambda family: family.chain)
    count(adv, "_class_arrays", lambda family: family.chain)
    count(gr, "bfs_distances", lambda g, source: (g, source))
    count(ch, "spectral_gap", lambda P: P)
    count(ch, "bottleneck_ratio", lambda P: P)
    assert all(r.passed for r in run_verify(seed=0))

    def counts(name):
        return [c for (what, _), c in calls.items() if what == name]

    micro = [P for what, P in calls if what == "enumerate_family"]
    assert counts("enumerate_family") == [1, 1]
    # A6's witness pairs build relation arrays and head classes of their own
    for name in ("_relation_arrays", "_pair_reference", "_class_arrays"):
        assert [calls[name, P] for P in micro] == [1, 1]
    # once per family graph and source, so once per graph from vertex 1
    assert set(counts("bfs_distances")) == {1}
    assert sum(what == "bfs_distances" and key[1] == 1 for what, key in calls) == 7
    for name in ("spectral_gap", "bottleneck_ratio"):
        assert counts(name) == [1] * 21


def test_a1_catches_a_shifted_off_walk_value():
    ctx = _Context(VerifyCaps(), seed=0)
    # the first instance past the first chain whose walk misses a vertex
    inst = next(inst for inst in ctx.instances[30:]
                if len(set(inst.walk.vertices)) < inst.graph.n)
    v = min(set(range(1, inst.graph.n + 1)) - set(inst.walk.vertices))
    values = list(inst.values)
    values[v - 1] += 1
    inst.__dict__["values"] = tuple(values)  # the cached value table
    passed, details, counterexample = CHECKS["A1_validity"][1](ctx)
    assert not passed
    assert details == "instance value function failed validity"
    assert counterexample == {"walk": list(inst.walk.vertices), "bit": inst.bit}


def test_a1_oracle_is_a_bfs_not_the_stored_distances():
    # the stored distances of path8 are off at vertex 8, so every path8
    # instance whose walk misses vertex 8 carries a wrong value there
    ctx = _Context(VerifyCaps(), seed=0)
    name, g = ctx.family_graphs[1]
    assert (name, g.n) == ("path", 8)
    shifted = g.start_distances.copy()
    shifted[-1] += 1
    object.__setattr__(g, "start_distances", shifted)
    passed, details, counterexample = CHECKS["A1_validity"][1](ctx)
    assert not passed
    assert details == "instance value function failed validity"
    inst = next(inst for inst in ctx.instances
                if inst.graph is g and 8 not in inst.walk.vertices)
    assert counterexample == {"walk": list(inst.walk.vertices), "bit": inst.bit}
