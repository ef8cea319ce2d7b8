import dataclasses
import itertools
import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import mixbound as mb
from mixbound.chains import (
    MAX_DENSE_N,
    _guide,
    _sample_tails,
    _step_probabilities,
    _top_ritz,
    _tv_from_pi,
    _walk_tail,
)
from mixbound.errors import CapabilityError, InputError
from mixbound.graphs import _bfs
from mixbound.errors import DEFAULT_CAPS, read_json
from mixbound.verify import (
    VISIT_SUM_LEN,
    VISIT_SUM_N,
    VerifyCaps,
    _Context,
    _linear_mixing_times,
    _visit_probabilities,
)

from conftest import traced_peak


def solve_stationary_oracle(matrix):
    # independent least-squares fixed-point solve
    n = matrix.shape[0]
    a = np.vstack([matrix.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


def _linear_mixing_time(P, eps, cap=DEFAULT_CAPS["mixing_steps"]):
    # reference t_mix: the full-matrix scan of P^t over every start
    power = np.eye(P.n)
    for t in range(cap + 1):
        if _tv_from_pi(power, P.pi) <= eps:
            return t
        power = power @ P.matrix
    raise CapabilityError(f"mixing time exceeds cap {cap} at eps={eps}")


def _visit_probability_all_starts(P, v, length):
    # reference P_visit(u, v, length) over every start u: the DP on the
    # dense matrix with v made absorbing, run for this length alone
    alive, captured = np.eye(P.n), np.zeros(P.n)
    for _ in range(length):
        alive = alive @ P.matrix
        captured += alive[:, v - 1]
        alive[:, v - 1] = 0.0
    return captured


def tv_scan_oracle(matrix, pi, eps, limit=5000):
    # independent linear scan over t with explicit TV computation
    power = np.eye(matrix.shape[0])
    for t in range(limit):
        tv = 0.5 * np.abs(power - pi).sum(axis=1).max()
        if tv <= eps:
            return t
        power = power @ matrix
    raise AssertionError("oracle scan exhausted")


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def test_lazy_simple_k2(k2_chain):
    assert np.allclose(k2_chain.matrix, [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(k2_chain.pi, [0.5, 0.5])
    assert k2_chain.flags == mb.ChainFlags(True, True, True)


def test_lazy_simple_path(path3_chain):
    assert np.allclose(path3_chain.matrix[1], [0.25, 0.5, 0.25])
    assert np.allclose(path3_chain.pi, [0.25, 0.5, 0.25])
    # detailed balance on the first edge
    assert path3_chain.pi[0] * path3_chain.matrix[0, 1] == pytest.approx(1 / 8)
    assert path3_chain.pi[1] * path3_chain.matrix[1, 0] == pytest.approx(1 / 8)


def test_metropolis_uniform_on_k2_equals_lazy(k2_chain):
    g = mb.complete_graph(2)
    P = mb.metropolis_walk(g, [0.5, 0.5])
    assert np.array_equal(P.matrix, k2_chain.matrix)


def test_metropolis_uniform_path_stationary():
    g = mb.path_graph(3)
    P = mb.metropolis_walk(g, np.full(3, 1 / 3))
    pi = solve_stationary_oracle(P.matrix)
    assert np.abs(pi - 1 / 3).max() < 1e-10
    assert np.abs(P.pi - 1 / 3).max() < 1e-10


@pytest.mark.parametrize("g,target", [
    (mb.path_graph(4), [0.4, 0.3, 0.2, 0.1]),
    (mb.cycle_graph(5), [0.1, 0.1, 0.2, 0.3, 0.3]),
    (mb.barbell_graph(6), None),
])
def test_metropolis_detailed_balance(g, target):
    if target is None:
        target = np.full(g.n, 1 / g.n)
    P = mb.metropolis_walk(g, target)
    t = np.asarray(target, dtype=float)
    balance = t[:, None] * P.matrix - t[None, :] * P.matrix.T
    assert np.abs(balance).max() < 1e-15
    assert np.diag(P.matrix).min() >= 0.5 - 1e-12
    assert np.abs(mb.stationary(P) - t).max() < 1e-10


def test_metropolis_rejects_bad_target():
    g = mb.path_graph(3)
    with pytest.raises(InputError):
        mb.metropolis_walk(g, [0.5, 0.5, 0.0])
    with pytest.raises(InputError):
        mb.metropolis_walk(g, [0.5, 0.4, 0.3])
    with pytest.raises(InputError, match="must be positive"):
        mb.metropolis_walk(g, [np.nan, 0.5, 0.5])


def test_max_degree_walk():
    g = mb.path_graph(3)
    P = mb.max_degree_walk(g)
    assert P.matrix[0, 0] == pytest.approx(0.75)
    assert P.matrix[0, 1] == pytest.approx(0.25)
    assert np.allclose(P.matrix[1], [0.25, 0.5, 0.25])
    assert np.abs(solve_stationary_oracle(P.matrix) - 1 / 3).max() < 1e-10
    assert np.allclose(P.pi, 1 / 3)


def test_max_degree_equals_lazy_on_regular():
    g = mb.cycle_graph(4)
    assert np.array_equal(mb.max_degree_walk(g).matrix,
                          mb.lazy_simple_walk(g).matrix)


def test_max_degree_self_loops_at_least_half():
    for g in (mb.barbell_graph(8), mb.hypercube_graph(3), mb.path_graph(5)):
        assert np.diag(mb.max_degree_walk(g).matrix).min() >= 0.5


# ---------------------------------------------------------------------------
# Property checks and validation
# ---------------------------------------------------------------------------

def test_check_properties_constructed(k3_chain):
    flags = mb.check_properties(k3_chain)
    assert flags.lazy and flags.irreducible and flags.reversible


def test_check_properties_not_lazy():
    g = mb.path_graph(3)
    m = [[0.4, 0.6, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]
    P = mb.make_chain(g, m)
    assert not P.flags.lazy
    assert P.flags.irreducible


def test_check_properties_not_reversible():
    g = mb.cycle_graph(3)
    m = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
    P = mb.make_chain(g, m)
    assert P.flags.lazy and P.flags.irreducible and not P.flags.reversible
    pi = mb.stationary(P)
    # detailed balance fails on the directed-bias edge
    assert abs(pi[0] * P.matrix[0, 1] - pi[1] * P.matrix[1, 0]) > 1e-3


def test_make_chain_rejects_bad_rows():
    g = mb.path_graph(3)
    ok = mb.lazy_simple_walk(g).matrix.copy()
    broken = ok.copy()
    broken[0, 0] = 0.49  # row sums to 0.99
    with pytest.raises(InputError, match="sums to"):
        mb.make_chain(g, broken)
    negative = ok.copy()
    negative[0, 0], negative[0, 1] = -0.25, 1.25
    with pytest.raises(InputError, match="negative"):
        mb.make_chain(g, negative)
    off_support = ok.copy()
    off_support[0, 1], off_support[0, 2] = 0.25, 0.25  # 1-3 is not an edge
    with pytest.raises(InputError, match="not on a graph edge"):
        mb.make_chain(g, off_support)
    off_support[2, 1], off_support[2, 0] = 0.25, 0.25  # nor 3-1
    with pytest.raises(InputError,
                       match=r"^positive entry \(1,3\) is not on a graph edge$"):
        mb.make_chain(g, off_support)


@pytest.mark.parametrize("rows,pi,match", [
    ([[np.nan, np.nan], [0.5, 0.5]], None, r"^row 1 sums to nan"),
    ([[0.5, 0.5], [np.inf, 0.5]], None, r"^row 2 sums to inf"),
    ([[0.5, 0.5], [0.5, 0.5]], [np.nan, np.nan], "stationary vector"),
    ([[1e308, 1e308], [0.5, 0.5]], None, r"^row 1 sums to inf"),  # past the largest float
])
def test_make_chain_refuses_non_finite_input(capfd, rows, pi, match):
    # a NaN row passed the row-sum tolerance test and reached the
    # stationary solve, where LAPACK printed DLASCL errors and raised
    # LinAlgError; a NaN stationary vector was accepted
    with pytest.raises(InputError, match=match):
        mb.make_chain(mb.complete_graph(2), rows, pi=pi)
    assert capfd.readouterr() == ("", "")


def test_reducible_chain():
    g = mb.path_graph(3)
    P = mb.make_chain(g, np.eye(3))
    assert not P.flags.irreducible
    assert P.pi is None
    with pytest.raises(CapabilityError):
        mb.stationary(P)
    with pytest.raises(CapabilityError):
        mb.mixing_time(P, 0.25)


def test_stationary_examples(k2_chain, path3_chain):
    assert np.allclose(mb.stationary(k2_chain), [0.5, 0.5])
    assert np.allclose(mb.stationary(path3_chain), [0.25, 0.5, 0.25])


def test_sigma(k2_chain, path3_chain):
    assert mb.stationary_ratio(k2_chain) == 1.0
    assert mb.stationary_ratio(path3_chain) == pytest.approx(2.0)
    barbell = mb.lazy_simple_walk(mb.barbell_graph(10))
    assert mb.stationary_ratio(barbell) == pytest.approx(1.25)


# ---------------------------------------------------------------------------
# Mixing time
# ---------------------------------------------------------------------------

def test_mixing_time_k2(k2_chain):
    assert mb.mixing_time(k2_chain, 0.1) == 1
    assert mb.chains._tv_from_pi(k2_chain.matrix, k2_chain.pi) == 0.0


def test_mixing_time_eps_validation(k2_chain):
    with pytest.raises(InputError):
        mb.mixing_time(k2_chain, 0.6)
    with pytest.raises(InputError):
        mb.mixing_time(k2_chain, 0.0)


def test_mixing_time_cycle_matches_scan_oracle():
    P = mb.lazy_simple_walk(mb.cycle_graph(8))
    expected = tv_scan_oracle(P.matrix, P.pi, 1 / 16)
    assert mb.mixing_time(P, 1 / 16) == expected
    assert _linear_mixing_time(P, 1 / 16) == expected


@pytest.mark.parametrize("eps", [0.4, 0.125, 0.03, 1 / 64])
def test_mixing_time_methods_agree(eps):
    regular = mb.random_regular_graph(32, 4, seed=0)
    for P in (mb.lazy_simple_walk(mb.barbell_graph(8)),
              mb.max_degree_walk(mb.path_graph(6)),
              mb.lazy_simple_walk(mb.torus_graph(3, 3)),
              *(mb.build_chain(regular, kind)
                for kind in ("lazy-simple", "metropolis", "max-degree"))):
        assert mb.mixing_time(P, eps) == _linear_mixing_time(P, eps)


@pytest.mark.parametrize("spec", ["cycle:15", "complete:20", "hypercube:6", "torus2d:5x7"])
@pytest.mark.parametrize("build", [mb.lazy_simple_walk, mb.max_degree_walk])
def test_mixing_time_single_start_matches_linear(spec, build):
    P = build(mb.graph_from_spec(spec))
    assert P.vertex_transitive
    for eps in (0.25, 1 / (2 * P.n)):
        assert mb.mixing_time(P, eps) == _linear_mixing_time(P, eps)


def test_in_neighbours_step_matches_dense_product():
    biased = mb.make_chain(mb.cycle_graph(3),
                           [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    for P in (biased, mb.metropolis_walk(mb.path_graph(4), [0.4, 0.3, 0.2, 0.1]),
              mb.lazy_simple_walk(mb.barbell_graph(8))):
        index, weight = P.in_neighbours
        x = np.random.default_rng(P.n).dirichlet(np.ones(P.n))
        assert np.allclose((x[index] * weight).sum(axis=1), x @ P.matrix,
                           rtol=0.0, atol=1e-15)


def test_mixing_time_non_invariant_chains_on_transitive_graph():
    g = mb.hypercube_graph(4)
    rng = np.random.default_rng(3)
    target = rng.uniform(1.0, 4.0, g.n)
    metropolis = mb.metropolis_walk(g, target / target.sum())
    weights = mb.lazy_simple_walk(g).matrix * rng.uniform(0.5, 1.5, (g.n, g.n))
    off = weights - np.diag(np.diag(weights))
    custom = off / (2 * off.sum(axis=1, keepdims=True)) + 0.5 * np.eye(g.n)
    relabelled = mb.make_chain(g, custom, kind="lazy-simple")
    for P in (metropolis, relabelled):
        assert not P.vertex_transitive
        for eps in (0.25, 1 / (2 * g.n)):
            assert mb.mixing_time(P, eps) == _linear_mixing_time(P, eps)


def test_chain_flag_only_from_invariant_constructions():
    g = mb.cycle_graph(6)
    assert mb.lazy_simple_walk(g).vertex_transitive
    assert mb.max_degree_walk(g).vertex_transitive
    assert not mb.metropolis_walk(g, np.full(6, 1 / 6)).vertex_transitive
    # a file holding the lazy walk's entries is that chain, and only given the graph
    for P in (mb.lazy_simple_walk(g), mb.max_degree_walk(g)):
        assert _round_trip(P, g).vertex_transitive
        assert not _round_trip(P).vertex_transitive
    skewed = mb.metropolis_walk(g, np.arange(1, 7) / 21)
    assert not _round_trip(skewed, g).vertex_transitive
    assert not mb.lazy_simple_walk(mb.path_graph(6)).vertex_transitive


def test_chain_file_is_compared_with_the_lazy_walk_only_when_it_can_match(monkeypatch):
    g = mb.cycle_graph(6)
    built = []
    lazy = mb.chains.lazy_simple_walk
    monkeypatch.setattr(mb.chains, "lazy_simple_walk", lambda g: built.append(g) or lazy(g))
    ring = np.roll(np.eye(6), 1, axis=1) + np.roll(np.eye(6), -1, axis=1)
    absorbing = 0.5 * np.eye(6) + 0.25 * ring
    absorbing[0] = [1, 0, 0, 0, 0, 0]
    for P in (mb.metropolis_walk(g, np.arange(1, 7) / 21),  # pi not uniform
              mb.make_chain(g, 0.2 * np.eye(6) + 0.4 * ring),  # not lazy
              mb.make_chain(g, absorbing),  # reducible: no pi
              mb.make_chain(g, np.eye(6))):  # one entry a row
        assert not _round_trip(P, g).vertex_transitive
    assert built == []
    assert _round_trip(lazy(g), g).vertex_transitive
    assert built == [g]


def test_a_chain_file_is_built_with_its_parsed_document_released(tmp_path):
    # the parsed document goes once the entries are arrays, so the peak is
    # the parse: 294 bytes per entry, against 376 while the document lived
    # through the build and the lazy-walk comparison (read_json alone
    # peaks at 185)
    g = mb.hypercube_graph(10)
    named = mb.lazy_simple_walk(g)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(mb.chain_to_json(named)))
    P, peak = traced_peak(lambda: mb.chains.chain_from_spec(str(path), g))
    assert P.vertex_transitive
    assert all(np.array_equal(a, b) for a, b in zip(P.in_neighbours, named.in_neighbours))
    assert peak <= 330 * np.count_nonzero(named.in_neighbours[1])


def test_mixing_time_cap():
    P = mb.lazy_simple_walk(mb.cycle_graph(12))
    with pytest.raises(CapabilityError, match="cap"):
        mb.mixing_time(P, 0.01, cap=2)


@pytest.mark.parametrize("graph,t", [(mb.path_graph(12), 125),
                                     (mb.barbell_graph(10), 64),
                                     (mb.cycle_graph(9), 21)])
@pytest.mark.parametrize("method", ["doubling", "linear"])
def test_mixing_time_cap_holds_for_every_method(graph, t, method):
    # path:12 needs t = 125 at eps 0.05: the search's last square is
    # P^128, past a cap of 124, yet the threshold itself is what counts.
    # cycle:9 takes the single-start scan; "linear" is verify's reference.
    P = mb.lazy_simple_walk(graph)
    if method == "doubling":
        scan = mb.mixing_time
    else:
        def scan(P, eps, cap):
            return _linear_mixing_times(P, (eps,), cap)[0]
    with pytest.raises(CapabilityError,
                       match=rf"^mixing time exceeds cap {t - 1} at eps=0.05$"):
        scan(P, 0.05, cap=t - 1)
    assert scan(P, 0.05, cap=t) == t


@pytest.mark.parametrize("spec,seed,kind,at_default,at_005", [
    ("random-regular:256,4", 0, "lazy-simple", 84, 41),
    ("random-regular:64,4", 5, "metropolis", 48, 30),
    ("barbell:30", None, "lazy-simple", 791, 547),
    ("path:12", None, "max-degree", 159, 148),
])
def test_mixing_time_golden(spec, seed, kind, at_default, at_005):
    P = mb.build_chain(mb.graph_from_spec(spec, seed=seed), kind)
    eps = mb.stationary_ratio(P) / (2 * P.n)
    assert mb.mixing_time(P, eps) == at_default
    assert mb.mixing_time(P, 0.05) == at_005


# ---------------------------------------------------------------------------
# Spectral gap and bottleneck ratio
# ---------------------------------------------------------------------------

def test_spectral_k2(k2_chain):
    lam, gap = mb.spectral_gap(k2_chain)
    assert lam == pytest.approx(0.0, abs=1e-12)
    assert gap == pytest.approx(1.0, abs=1e-12)


def test_spectral_path(path3_chain):
    lam, _ = mb.spectral_gap(path3_chain)
    # oracle: dense eigensolve of the raw matrix (diagonalizable here)
    eigs = sorted(np.linalg.eigvals(path3_chain.matrix).real, reverse=True)
    assert lam == pytest.approx(eigs[1], abs=1e-9)
    assert lam == pytest.approx(0.5, abs=1e-12)


def test_spectral_cycle_formula():
    for n in (4, 9, 16):
        P = mb.lazy_simple_walk(mb.cycle_graph(n))
        lam, _ = mb.spectral_gap(P)
        assert lam == pytest.approx((1 + math.cos(2 * math.pi / n)) / 2, abs=1e-9)


def test_spectral_requires_reversible():
    g = mb.cycle_graph(3)
    P = mb.make_chain(g, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    with pytest.raises(CapabilityError):
        mb.spectral_gap(P)


def dense_lambda2_oracle(P):
    # second-largest eigenvalue of the dense symmetrized matrix
    root = np.sqrt(P.pi)
    sym = root[:, None] * P.matrix / root[None, :]
    return float(np.linalg.eigvalsh((sym + sym.T) / 2)[-2])


@settings(max_examples=80, deadline=None)
@given(hst.data())
def test_spectral_gap_matches_dense_oracle(data):
    n = data.draw(hst.integers(min_value=2, max_value=8), label="n")
    seed = data.draw(hst.integers(min_value=0, max_value=10_000), label="seed")
    kind = data.draw(hst.sampled_from(["lazy-simple", "max-degree", "metropolis"]),
                     label="kind")
    rng = np.random.default_rng(seed)
    tree = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    extra = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.4}
    g = mb.make_graph(n, tree | extra)
    target = rng.uniform(0.1, 1.0, n)
    P = mb.build_chain(g, kind, target=target / target.sum())
    lam, gap = mb.spectral_gap(P)
    assert abs(lam - dense_lambda2_oracle(P)) <= 1e-12
    assert gap == 1.0 - lam


@pytest.mark.parametrize("spec", [
    "complete:2", "complete:6", "path:3", "barbell:10", "hypercube:4",
    "hypercube:5", "hypercube:6", "hypercube:7", "hypercube:8", "hypercube:9",
    "random-regular:256,4",
    # lambda2 within O(1/n^2) of lambda3: Lanczos runs to, or near, n - 1 steps
    "path:512", "cycle:512", "torus2d:16x16", "barbell:100",
])
def test_spectral_gap_named_chains_match_dense_oracle(spec):
    P = mb.lazy_simple_walk(mb.graph_from_spec(spec, seed=0))
    assert abs(mb.spectral_gap(P)[0] - dense_lambda2_oracle(P)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(hst.integers(min_value=1, max_value=40), hst.integers(min_value=0, max_value=10_000))
def test_top_ritz_matches_dense_eigh(k, seed):
    rng = np.random.default_rng(seed)
    diag, off = rng.uniform(-1, 1, k), rng.uniform(0.01, 1, k - 1)
    values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    theta, last = _top_ritz(diag.tolist(), off.tolist())
    assert abs(theta - values[-1]) <= 1e-14
    if k == 1 or values[-1] - values[-2] > 1e-3:  # a well-defined eigenvector
        assert last == pytest.approx(abs(vectors[-1, -1]), rel=1e-8, abs=1e-14)


def test_top_ritz_reads_a_last_entry_far_below_double_range():
    # a long chain of weak couplings: the top eigenvector's last entry is
    # about 0.01^99 = 1e-198, whose square underflows
    theta, last = _top_ritz([1.0] + [0.0] * 99, [0.01] * 99)
    assert theta == pytest.approx(1.0001, rel=1e-12)
    assert 1e-200 < last < 1e-196


def test_spectral_gap_is_bit_identical_on_repeat():
    P = mb.lazy_simple_walk(mb.graph_from_spec("random-regular:256,4", seed=0))
    assert mb.spectral_gap(P) == mb.spectral_gap(P)


def test_spectral_gap_refuses_a_basis_above_the_dense_cap(monkeypatch):
    # With the cap lowered to 64, a basis may hold 64^2 cells: 40 rows at
    # n = 100. The lazy path needs about n steps, hypercube:7 only 7.
    monkeypatch.setattr("mixbound.chains.MAX_DENSE_N", 64)
    with pytest.raises(CapabilityError, match="Lanczos basis of 80 x 100 after 39 steps"):
        mb.spectral_gap(mb.lazy_simple_walk(mb.path_graph(100)))
    lam, _ = mb.spectral_gap(mb.lazy_simple_walk(mb.hypercube_graph(7)))
    assert lam == pytest.approx(6 / 7, abs=1e-14)


def test_spectral_gap_hypercube_is_closed_form():
    # lambda2 = 1 - 1/d on the lazy hypercube
    lam, _ = mb.spectral_gap(mb.lazy_simple_walk(mb.hypercube_graph(11)))
    assert lam == pytest.approx(10 / 11, abs=1e-14)


@pytest.mark.parametrize("spec,kind", [
    ("cycle:9", "lazy-simple"), ("barbell:8", "max-degree"),
    ("random-regular:64,4", "metropolis"), ("path:12", "lazy-simple"),
])
def test_t_mix_bracket_contains_exact_mixing_time(spec, kind):
    P = mb.build_chain(mb.graph_from_spec(spec, seed=2), kind)
    _, gap = mb.spectral_gap(P)
    for eps in (0.125, 0.05, 1 / (2 * P.n)):
        lower, upper = mb.t_mix_bracket(P, eps)
        t_rel = 1 / gap
        assert lower == pytest.approx((t_rel - 1) * math.log(1 / (2 * eps)), rel=1e-15)
        assert upper == math.ceil(t_rel * math.log(1 / (eps * P.pi.min())))
        assert isinstance(upper, int)
        assert lower <= mb.mixing_time(P, eps) <= upper


def test_t_mix_bracket_refuses_other_chains():
    half_lazy = mb.make_chain(mb.path_graph(2), [[0.25, 0.75], [0.75, 0.25]])
    cyclic = mb.make_chain(mb.cycle_graph(3),
                           [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    reducible = mb.make_chain(mb.path_graph(3), np.eye(3), pi=np.full(3, 1 / 3))
    for P in (half_lazy, cyclic, reducible):
        with pytest.raises(CapabilityError):
            mb.t_mix_bracket(P, 0.25)
    with pytest.raises(InputError):
        mb.t_mix_bracket(mb.lazy_simple_walk(mb.path_graph(3)), 0.5)


def brute_bottleneck_oracle(P):
    pi = P.pi
    best, best_set = float("inf"), None
    for size in range(1, P.n):
        for sub in itertools.combinations(range(P.n), size):
            mass = pi[list(sub)].sum()
            if mass > 0.5 + 1e-12:
                continue
            s = set(sub)
            flow = sum(pi[u] * P.matrix[u, v]
                       for u in s for v in range(P.n) if v not in s)
            if flow / mass < best:
                best, best_set = flow / mass, s
    return best, best_set


def test_bottleneck_k2(k2_chain):
    assert mb.bottleneck_ratio(k2_chain) == pytest.approx(0.5)


def test_bottleneck_barbell_matches_oracle():
    P = mb.lazy_simple_walk(mb.barbell_graph(10))
    oracle, cut = brute_bottleneck_oracle(P)
    assert mb.bottleneck_ratio(P) == pytest.approx(oracle, abs=1e-12)
    # the bridge cut (one clique side) attains the minimum
    assert cut in ({0, 1, 2, 3, 4}, {5, 6, 7, 8, 9})


def test_bottleneck_cap():
    P = mb.lazy_simple_walk(mb.cycle_graph(25))
    with pytest.raises(CapabilityError):
        mb.bottleneck_ratio(P)


def test_cheeger_sandwich_small():
    for P in (mb.lazy_simple_walk(mb.cycle_graph(8)),
              mb.max_degree_walk(mb.barbell_graph(8)),
              mb.metropolis_walk(mb.path_graph(5), np.full(5, 0.2))):
        phi = mb.bottleneck_ratio(P)
        _, gap = mb.spectral_gap(P)
        assert phi * phi / 2 <= gap + 1e-12
        assert gap <= 2 * phi + 1e-12


# ---------------------------------------------------------------------------
# Visiting probabilities
# ---------------------------------------------------------------------------

def test_visit_k2_one_step(k2_chain):
    assert _visit_probabilities(k2_chain, 2, 1)[1, 0] == pytest.approx(0.5)


def test_visit_zero_steps(k3_chain):
    # the start is step 0 and never counts as a visit
    assert np.array_equal(_visit_probabilities(k3_chain, 2, 0), np.zeros((1, 3)))


def test_visit_k2_two_steps(k2_chain):
    # enumeration of the four two-step trajectories gives 3/4
    assert _visit_probabilities(k2_chain, 2, 2)[2, 0] == pytest.approx(0.75)


def test_visit_enumeration_oracle(path3_chain):
    # brute-force every trajectory of length 4 on the lazy path walk
    P = path3_chain.matrix
    length, u, v = 4, 1, 3
    p_visit = 0.0
    for steps in itertools.product(range(3), repeat=length):
        prob, cur, visits = 1.0, u - 1, 0
        for nxt in steps:
            prob *= P[cur, nxt]
            cur = nxt
            visits += cur == v - 1
        p_visit += prob * (visits > 0)
    assert _visit_probabilities(path3_chain, v, length)[length, u - 1] == pytest.approx(
        p_visit, abs=1e-12)


def test_visit_bounds_and_all_starts():
    # P_visit = 1 - Q^len 1, Q the matrix with v's column zeroed: the walks
    # that avoid v for len steps
    P = mb.lazy_simple_walk(mb.barbell_graph(8))
    for v in (1, 4, 8):
        avoid = P.matrix.copy()
        avoid[:, v - 1] = 0.0
        previous = np.zeros(8)
        for ell, vec in enumerate(_visit_probabilities(P, v, 7)):
            oracle = 1.0 - np.linalg.matrix_power(avoid, ell).sum(axis=1)
            assert np.allclose(vec, oracle, rtol=0.0, atol=1e-12)
            assert np.all(vec >= previous - 1e-15) and np.all(vec <= 1.0 + 1e-12)
            previous = vec


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_one_visit_dp_equals_a_dp_per_length():
    # A3 reads one DP per (chain, v) at every length; each row must equal a
    # DP run for that length alone, bit for bit, on A3's nine chains
    chains = [P for _, _, P in _Context(VerifyCaps(), seed=0).test_chains
              if P.n <= VISIT_SUM_N]
    assert len(chains) == 9
    for P in chains:
        for v in range(1, P.n + 1):
            rows = _visit_probabilities(P, v, VISIT_SUM_LEN)
            for ell in range(VISIT_SUM_LEN + 1):
                assert np.array_equal(_bits(rows[ell]),
                                      _bits(_visit_probability_all_starts(P, v, ell)))


def test_one_linear_scan_equals_a_scan_per_eps():
    # B_spectral_mixing reads both eps from one scan of P^t
    chains = [P for _, _, P in _Context(VerifyCaps(), seed=0).test_chains]
    assert len(chains) == 21
    for P in chains:
        for eps_values in ((0.125, 1.0 / (2 * P.n)), (1.0 / (2 * P.n), 0.125)):
            assert _linear_mixing_times(P, eps_values) == [
                _linear_mixing_time(P, eps) for eps in eps_values]


# ---------------------------------------------------------------------------
# Walks
# ---------------------------------------------------------------------------

def test_sample_walk_length_zero(k3_chain):
    w = mb.sample_walk(k3_chain, 2, 0, seed=1)
    assert w.vertices == (2,)
    assert w.probability() == 1.0


def test_sample_walk_frequency(k2_chain):
    w = mb.sample_walk(k2_chain, 1, 100_000, seed=11)
    frac = sum(1 for v in w.vertices if v == 2) / len(w.vertices)
    assert abs(frac - 0.5) < 0.01


def test_sample_walk_deterministic(k3_chain):
    a = mb.sample_walk(k3_chain, 1, 50, seed=5)
    b = mb.sample_walk(k3_chain, 1, 50, seed=5)
    assert a.vertices == b.vertices
    assert a.probability() > 0.0


def test_sampling_table_pin_last_positive_slot():
    from mixbound.verify import VerifyCaps, _Context
    u = np.nextafter(1.0, 0.0)
    for _, _, P in _Context(VerifyCaps(), seed=0).test_chains:
        index, cum = P.sampling_table
        assert np.all(np.diff(cum, axis=1) >= 0.0)
        for r in range(P.n):
            slot = int(np.searchsorted(cum[r], u, side="right"))
            assert P.matrix[r, index[r, slot]] > 0.0
            # real slots carry the dense running sums bit for bit; the last
            # one and the padding are pinned to the last positive column
            k = int(np.count_nonzero(P.matrix[r] > 0.0))
            assert np.array_equal(cum[r, :k - 1], np.cumsum(P.matrix[r])[index[r, :k - 1]])
            assert np.all(cum[r, k - 1:] == 1.0)
            assert np.all(index[r, k - 1:] == np.flatnonzero(P.matrix[r] > 0.0)[-1])


def _dense_inverse_cdf(row: np.ndarray, u: float) -> int:
    """Reference step: the first column whose running sum exceeds u, or
    the last positive column when rounding leaves the sum at or below u."""
    above = np.flatnonzero(np.cumsum(row) > u)
    return int(above[0]) if above.size else int(np.flatnonzero(row > 0.0)[-1])


def _draw_chain(data) -> tuple[mb.TransitionMatrix, np.random.Generator, int]:
    """(P, rng, seed): a random make_chain chain on a random connected
    graph of 2-8 vertices, with some edges weighted zero in one direction,
    and the seeded generator that drew it, left where the chain ends."""
    n = data.draw(hst.integers(min_value=2, max_value=8), label="n")
    seed = data.draw(hst.integers(min_value=0, max_value=10_000), label="seed")
    rng = np.random.default_rng(seed)
    tree = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    extra = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.4}
    g = mb.make_graph(n, tree | extra)
    m = np.zeros((n, n))
    for u, v in g.edges:  # some edges carry zero weight in one direction
        m[u - 1, v - 1], m[v - 1, u - 1] = rng.random(2) * (rng.random(2) < 0.8)
    off = m.sum(axis=1, keepdims=True)
    m = np.divide(m, off, out=np.zeros_like(m), where=off > 0.0) * rng.uniform(0.0, 0.5, (n, 1))
    m[np.arange(n), np.arange(n)] = 1.0 - m.sum(axis=1)
    return mb.make_chain(g, m), rng, seed


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_samplers_match_dense_inverse_cdf(data):
    P, rng, seed = _draw_chain(data)
    n = P.n

    count = data.draw(hst.integers(min_value=1, max_value=6), label="count")
    steps = data.draw(hst.integers(min_value=0, max_value=12), label="steps")
    starts = rng.integers(1, n + 1, size=count)
    walks = np.zeros((count, steps + 1), dtype=np.int64)
    walks[:, 0] = starts
    _sample_tails(P, walks, 0, np.random.default_rng(seed))
    draws = np.random.default_rng(seed).random((steps, count))
    want = np.empty_like(walks)
    want[:, 0] = starts
    for s in range(steps):
        for i in range(count):
            want[i, s + 1] = _dense_inverse_cdf(P.matrix[want[i, s] - 1], draws[s, i]) + 1
    assert np.array_equal(walks, want)
    assert np.all(P.matrix[walks[:, :-1] - 1, walks[:, 1:] - 1] > 0.0)

    single = [int(starts[0])]
    for u in np.random.default_rng(seed).random(steps):
        single.append(_dense_inverse_cdf(P.matrix[single[-1] - 1], u) + 1)
    assert _walk_tail(P, single[0], steps, np.random.default_rng(seed)) == single[1:]
    walk = mb.sample_walk(P, int(starts[0]), steps, seed=seed)
    assert walk.vertices == tuple(single)
    assert walk.probability() > 0.0


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_step_probabilities_equal_the_dense_entries(data):
    P, rng, _ = _draw_chain(data)
    n = P.n
    # every pair (u, v), as one-step walks: the dense view's cells in
    # row-major order, bit for bit, and 0.0 where P has no transition
    pairs = np.array(list(itertools.product(range(1, n + 1), repeat=2)))
    assert _step_probabilities(P, pairs).tobytes() == P.matrix.tobytes()
    walks = rng.integers(1, n + 1, size=(3, 2, 7))  # steps on the last axis
    steps = _step_probabilities(P, walks)
    want = P.matrix[walks[..., :-1] - 1, walks[..., 1:] - 1]
    assert steps.shape == (3, 2, 6)
    assert steps.tobytes() == want.tobytes()
    for walk in walks.reshape(-1, 7).tolist():
        prob = 1.0
        for a, b in zip(walk, walk[1:]):
            prob *= P.matrix[a - 1, b - 1]
        assert mb.walk_probability(P, walk) == prob
        assert P.prob(walk[0], walk[1]) == P.matrix[walk[0] - 1, walk[1] - 1]


def test_sampler_tie_takes_the_next_slot(k2_chain):
    # a uniform equal to a running sum is not below it: the step goes on to
    # the next slot, as the dense reference's first sum above u does
    class Halves:
        def random(self, shape):
            return np.full(shape, 0.5)

    walks = np.ones((2, 4), dtype=np.int64)
    walks[1, 0] = 2
    _sample_tails(k2_chain, walks, 0, Halves())
    assert walks.tolist() == [[1, 2, 2, 2], [2, 2, 2, 2]]
    for start in (1, 2):  # a single walk steps in its own loop
        assert _walk_tail(k2_chain, start, 3, Halves()) == [2, 2, 2]
    assert _dense_inverse_cdf(k2_chain.matrix[0], 0.5) == 1


class _Scripted:
    """Stand-in generator that hands out fixed uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, shape):
        size = int(np.prod(shape))
        out, self.values = self.values[:size], self.values[size:]
        return np.reshape(out, shape)


def test_rows_summing_past_one_step_alike_in_both_loops():
    # Rows 1-3 of this K5 chain end in a 1e-18 entry, so rounding can lift
    # the running sum above 1.0 at the fourth slot, before the last slot
    # is pinned back to 1.0. A single walk bisects the row and a batch
    # scans it from its guide cell; both must take the first slot whose
    # sum exceeds u, ties included.
    rng = np.random.default_rng(0)
    rows = []
    while len(rows) < 3:
        row = np.append(rng.random(4), 1e-18)
        row /= row.sum()
        if np.cumsum(row / math.fsum(row))[3] > 1.0:  # as make_chain renormalises
            rows.append(row)
    rows += [row / row.sum() for row in rng.random((2, 5))]
    P = mb.make_chain(mb.complete_graph(5), rows)
    cum = P.sampling_table[1]
    assert np.all(cum[:3, 3] > 1.0) and np.all(cum[:, 4] == 1.0)

    top = np.nextafter(1.0, 0.0)
    # uniforms equal to a running sum, and at the guide's bucket edges
    ties = cum[cum < 1.0].tolist() + _bucket_edges(P)
    uniforms = [u for other in ties + rng.random(200 - len(ties)).tolist()
                for u in (top, other)]
    for start in range(1, 6):
        one = [start, *_walk_tail(P, start, len(uniforms), _Scripted(uniforms))]
        batch = np.full((1, len(uniforms) + 1), start)
        _sample_tails(P, batch, 0, _Scripted(uniforms))
        want = [start]
        for u in uniforms:
            want.append(_dense_inverse_cdf(P.matrix[want[-1] - 1], u) + 1)
        assert one == batch[0].tolist() == want
        assert any(u == top and v <= 3 for v, u in zip(want, uniforms))


@pytest.mark.parametrize("block_cells", [1, 3, 1 << 30])
def test_sampled_walks_do_not_depend_on_block_size(block_cells, monkeypatch):
    # a block of uniforms is laid out step by step, so how the steps are
    # cut into blocks changes no walk, instance or estimate
    P = mb.lazy_simple_walk(mb.random_regular_graph(32, 4, seed=0))
    params = mb.custom_params(P, T=3, L=12)

    def draw():
        batches = []
        for count in (1, 2, 5):
            walks = np.zeros((count, 41), dtype=np.int64)
            walks[:, 7] = np.arange(1, count + 1)
            _sample_tails(P, walks, 7, np.random.default_rng(count))
            batches.append(walks[:, 7:].tolist())
        est = mb.estimate_lower_bound(P, params, samples=40, seed=4)
        return (mb.sample_walk(P, 3, 40, seed=9).vertices, batches,
                mb.sample_instance(P, params, seed=2).walk.vertices,
                repr((est.M, est.q, est.std_error, est.q_std_error)),
                mb.milestone_escape_estimates(P, params, samples=30, seed=6))

    want = draw()
    monkeypatch.setattr("mixbound.chains._WALK_BLOCK_CELLS", block_cells)
    assert draw() == want


# ---------------------------------------------------------------------------
# The batch loop's guide table
# ---------------------------------------------------------------------------

def _argmax_scan_tails(P, walks, start, rng):
    """Reference batch loop: scan every walker's whole row for the first
    sum above its uniform, with the same block rule as _sample_tails."""
    index, cum = P.sampling_table
    cur = walks[..., start] - 1
    per_block = max(1, (1 << 16) // max(1, cur.size))
    for lo in range(start + 1, walks.shape[-1], per_block):
        draws = rng.random((min(per_block, walks.shape[-1] - lo),) + cur.shape)
        for s, u in enumerate(draws, lo):
            cur = index[cur, (cum[cur] > u[..., None]).argmax(axis=-1)]
            walks[..., s] = cur + 1


def _bucket_edges(P):
    # every k/B, and the largest double below each, 1.0's included
    buckets = P.sampling_guide[0].shape[1]
    edges = np.arange(buckets + 1) / buckets
    return edges[:-1].tolist() + np.nextafter(edges[1:], 0.0).tolist()


def _assert_loops_match_dense(P, uniforms):
    for start in range(1, P.n + 1):
        one = [start, *_walk_tail(P, start, len(uniforms), _Scripted(uniforms))]
        batch = np.full((1, len(uniforms) + 1), start)
        _sample_tails(P, batch, 0, _Scripted(uniforms))
        want = [start]
        for u in uniforms:
            want.append(_dense_inverse_cdf(P.matrix[want[-1] - 1], u) + 1)
        assert one == batch[0].tolist() == want


def _guide_chains():
    from mixbound.verify import VerifyCaps, _Context
    chains = [P for _, _, P in _Context(VerifyCaps(), seed=0).test_chains]
    return chains + [mb.lazy_simple_walk(mb.graph_from_spec("hypercube:8")),
                     mb.lazy_simple_walk(mb.random_regular_graph(256, 4, seed=0))]


def _assert_guide_tables_are_small_and_frozen(P):
    index = P.sampling_table[0]
    guide, step, passes, jump = P.sampling_guide
    for table in (guide, step):
        assert table.nbytes <= index.nbytes and not table.flags.writeable
    # the jump table exists only where a guide cell is its own slot
    assert (jump is None) == (passes > 0)
    if jump is not None:
        assert jump.nbytes <= 2 * guide.nbytes and not jump.flags.writeable


def test_guide_cells_hold_the_first_slot_above_their_bucket():
    for P in _guide_chains():
        index, cum = P.sampling_table
        guide, step, passes, jump = P.sampling_guide
        n, width = cum.shape
        buckets = guide.shape[1]
        assert buckets & (buckets - 1) == 0 and buckets >= width
        _assert_guide_tables_are_small_and_frozen(P)
        bounds = np.arange(buckets) / buckets
        first = (cum[:, :, None] > bounds).argmax(axis=1)  # n x buckets
        assert np.array_equal(guide, np.arange(n)[:, None] * width + first)
        # a slot's step table entry is its vertex's guide row offset
        assert step.dtype == np.min_scalar_type(n * buckets - 1)
        assert np.array_equal(step, index * buckets)
        # a guide cell's jump entry is its slot's step entry
        if passes == 0:
            assert jump.dtype == step.dtype and jump.shape == guide.shape
            assert np.array_equal(jump, step.ravel()[guide])


def test_guide_steps_at_bucket_edges_and_in_padded_rows():
    # path:5 and barbell:6 pad some rows; a uniform at k/B sits on the
    # edge of a bucket, and the double below it at the top of the one before
    padded = (mb.lazy_simple_walk(mb.graph_from_spec("path:5")),
              mb.max_degree_walk(mb.graph_from_spec("barbell:6")))
    for P in padded + (mb.lazy_simple_walk(mb.complete_graph(4)),):
        if P in padded:
            assert np.any(P.sampling_table[1][:, -2] == 1.0)
        edges = _bucket_edges(P)
        uniforms = [u for pair in zip(edges, edges[::-1]) for u in pair]
        _assert_loops_match_dense(P, uniforms + np.random.default_rng(1).random(100).tolist())


def test_guide_scan_passes_several_breakpoints_in_one_bucket():
    # vertex 1's row puts four breakpoints inside one bucket, so the
    # forward scan from the guide cell moves more than one slot
    rows = np.full((5, 5), 0.2)
    rows[0] = [0.5, 0.001, 0.001, 0.001, 0.497]
    P = mb.make_chain(mb.complete_graph(5), rows)
    cum = P.sampling_table[1]
    guide, _, passes, _ = P.sampling_guide
    buckets = guide.shape[1]
    cell = int(0.5 * buckets)
    assert np.count_nonzero((cum[0] >= cell / buckets) & (cum[0] < (cell + 1) / buckets)) >= 4
    uniforms = (cum[0, :4].tolist() + np.nextafter(cum[0, :4], 1.0).tolist()
                + [0.5 + 0.75 / buckets] + _bucket_edges(P))
    moved = max(_dense_inverse_cdf(P.matrix[0], u) - int(guide[0, int(u * buckets)])
                for u in uniforms)
    assert moved >= 3 and moved == passes
    _assert_loops_match_dense(P, uniforms)


def test_guide_is_built_only_for_batches():
    P = mb.lazy_simple_walk(mb.graph_from_spec("hypercube:6"))
    params = mb.default_params(P)
    mb.sample_walk(P, 1, 50, seed=0)
    mb.sample_instance(P, params, seed=0)
    # single walks cache their own table and none of the guide's
    assert set(P.__dict__) == {f.name for f in dataclasses.fields(P)} | {"walk_table"}
    mb.estimate_lower_bound(P, params, samples=4, seed=0)
    assert "sampling_guide" in P.__dict__
    _assert_guide_tables_are_small_and_frozen(P)


# ---------------------------------------------------------------------------
# The single-walk loop's table
# ---------------------------------------------------------------------------

def _filled(P):
    """The chain's walk table with every row converted."""
    table = P.walk_table
    for u in range(1, P.n + 1):
        if not table.next_rows[u]:
            table.fill(u)
    return table


def test_walk_table_equals_the_sampling_table():
    for P in _guide_chains() + [_skewed_metropolis(),
                                mb.max_degree_walk(mb.graph_from_spec("barbell:6"))]:
        index, cum = P.sampling_table
        table = _filled(P)
        assert table.cum_rows[0] == table.next_rows[0] == ()
        assert np.array(table.cum_rows[1:]).tobytes() == cum.tobytes()
        assert np.array_equal(np.array(table.next_rows[1:]), index + 1)
        assert all(type(v) is int for row in table.next_rows for v in row)
        assert P.walk_table is table
        for u in (0, 1, P.n + 1):  # no row, or one converted already
            with pytest.raises(IndexError):
                table.fill(u)


def test_walk_table_shares_rows_and_vertices():
    # the lazy walk on hypercube:6 has d + 1 places for its self-loop, so
    # at most d + 1 distinct rows of sums; every next vertex is one object
    cum_rows = _filled(mb.lazy_simple_walk(mb.graph_from_spec("hypercube:6"))).cum_rows
    assert len({id(row) for row in cum_rows[1:]}) == len(set(cum_rows[1:])) <= 7
    objects = {}
    for row in _filled(mb.lazy_simple_walk(mb.graph_from_spec("hypercube:10"))).next_rows:
        for v in row:
            assert objects.setdefault(v, v) is v


def test_walk_table_holds_about_the_sampling_tables_bytes():
    # every row of hypercube:10 converted, one at a time
    P = mb.lazy_simple_walk(mb.graph_from_spec("hypercube:10"))
    table = sum(a.nbytes for a in P.sampling_table)

    def fill():
        return _filled(P), tracemalloc.get_traced_memory()[0]

    (_, held), peak = traced_peak(fill)
    assert held <= 1.5 * table
    assert peak <= 2 * held


def test_a_single_walk_converts_only_the_rows_it_steps_from():
    # every row of the lazy walk on complete:512 is distinct, and 512
    # wide: a short walk must not pay for the whole table
    P = mb.lazy_simple_walk(mb.complete_graph(512))
    table = sum(a.nbytes for a in P.sampling_table)
    mb.sample_walk(mb.lazy_simple_walk(mb.complete_graph(3)), 1, 20, seed=0)  # warm numpy up

    def walk():
        return mb.sample_walk(P, 1, 20, seed=0), tracemalloc.get_traced_memory()[0]

    (w, held), _ = traced_peak(walk)
    rows = P.walk_table.next_rows
    assert {u for u in range(P.n + 1) if rows[u]} == set(w.vertices[:-1])
    assert held <= 0.15 * table


@pytest.mark.parametrize("block_cells", [1, 3, 1 << 16])
def test_first_walks_equal_walks_on_a_converted_table(block_cells, monkeypatch):
    # a walk that converts rows as it goes retakes each step that found
    # its row empty; it must equal the same walk on a converted table and
    # the dense reference, however the steps are cut into blocks
    monkeypatch.setattr("mixbound.chains._WALK_BLOCK_CELLS", block_cells)
    for make in (_skewed_metropolis, _random_regular_256):
        fresh, full = make(), make()
        _filled(full)
        uniforms = np.random.default_rng(2).random(3000).tolist()
        got = _walk_tail(fresh, 5, len(uniforms), _Scripted(uniforms))
        assert got == _walk_tail(full, 5, len(uniforms), _Scripted(uniforms))
        want = [5]
        for u in uniforms:
            want.append(_dense_inverse_cdf(fresh.matrix[want[-1] - 1], u) + 1)
        assert got == want[1:]


def _skewed_metropolis():
    g = mb.random_regular_graph(128, 5, seed=3)
    target = np.random.default_rng(3).pareto(1.0, g.n) + 1e-3
    return mb.metropolis_walk(g, target / target.sum())


def _random_regular_256():
    return mb.lazy_simple_walk(mb.random_regular_graph(256, 4, seed=0))


@pytest.mark.parametrize("make, passes", [
    (lambda: mb.lazy_simple_walk(mb.graph_from_spec("hypercube:8")), 0),
    (_random_regular_256, 0),
    (lambda: mb.lazy_simple_walk(mb.complete_graph(16)), 1),
    (_skewed_metropolis, 5),
], ids=["hypercube8", "random-regular256", "complete16", "skewed-metropolis"])
def test_guide_batches_equal_the_argmax_scan(make, passes):
    P = make()
    assert P.sampling_guide[2] == passes
    starts = np.random.default_rng(5).integers(1, P.n + 1, 2000)
    got = np.zeros((2000, 201), dtype=np.int32)
    got[:, 0] = starts
    want = got.copy()
    _sample_tails(P, got, 0, np.random.default_rng(7))
    _argmax_scan_tails(P, want, 0, np.random.default_rng(7))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("block_cells", [1, 3, 1 << 16, 1 << 30])
@pytest.mark.parametrize("make", [_random_regular_256, _skewed_metropolis],
                         ids=["random-regular256", "skewed-metropolis"])
def test_guide_batches_continue_a_walk_across_blocks(make, block_cells, monkeypatch):
    # as _redraw does: the batch starts mid-walk, and each block of steps
    # must start from the vertices where the one before it ended
    P = make()
    monkeypatch.setattr("mixbound.chains._WALK_BLOCK_CELLS", block_cells)
    got = np.random.default_rng(5).integers(1, P.n + 1, (250, 1345)).astype(np.int32)
    want = got.copy()
    _sample_tails(P, got, 9, np.random.default_rng(7))
    _argmax_scan_tails(P, want, 9, np.random.default_rng(7))
    assert np.array_equal(got, want)


def _forward_moves(P, v, u):
    """Slots a uniform u passes in row v from its guide cell."""
    cum = P.sampling_table[1]
    guide = P.sampling_guide[0]
    slot = v * cum.shape[1] + int(np.argmax(cum[v] > u))
    return slot - int(guide[v, int(u * guide.shape[1])])


def _probe_uniforms(P, v):
    # each running sum and its neighbours, each bucket edge and the double below it
    sums = P.sampling_table[1][v]
    probes = np.concatenate([sums, np.nextafter(sums, 0.0), np.nextafter(sums, 2.0)])
    return sorted({*probes[probes < 1.0].tolist(), *_bucket_edges(P)})


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_guide_pass_bound_is_the_most_forward_moves(data):
    # random rows, rows of multiples of 1/2^j whose sums land on bucket
    # edges, and rows with several sums crowded into one bucket
    n = data.draw(hst.integers(min_value=2, max_value=8), label="n")
    kinds = data.draw(hst.lists(hst.sampled_from(["random", "dyadic", "crowded"]),
                                min_size=n, max_size=n), label="kinds")
    rng = np.random.default_rng(data.draw(hst.integers(0, 10_000), label="seed"))
    rows = np.zeros((n, n))
    for row, kind in zip(rows, kinds):
        if kind == "dyadic":
            total = 1 << int(rng.integers(1, 8))
            row[:] = rng.multinomial(total, np.full(n, 1.0 / n)) / total
        else:
            row[:] = rng.random(n) * (rng.random(n) < 0.8)
            if kind == "crowded":
                first = int(rng.integers(0, n - 1))
                row[first + 1:] = 10.0 ** -rng.integers(3, 7)
            row /= row.sum() if row.sum() > 0.0 else 1.0
            row[-1] += 1.0 - row.sum()
    P = mb.make_chain(mb.complete_graph(n), rows)
    passes = P.sampling_guide[2]
    probes = [_probe_uniforms(P, v) for v in range(n)]
    moves = [_forward_moves(P, v, u) for v in range(n) for u in probes[v]]
    assert min(moves) >= 0 and max(moves) == passes
    _assert_loops_match_dense(P, sorted(set().union(*probes)))


@pytest.mark.parametrize("spec, passes", [
    ("random-regular:256,4", 0), ("hypercube:8", 0), ("torus2d:16x16", 0),
    ("hypercube:11", 1),
])
def test_guide_pass_bound_of_lazy_walks(spec, passes):
    # their probabilities are multiples of 1/B, or none is narrower than a bucket
    assert mb.lazy_simple_walk(mb.graph_from_spec(spec, seed=0)).sampling_guide[2] == passes


def _guide_step_tails(P, walks, start, rng):
    """Reference batch loop, without the jump table: each step gathers the
    guide cell, moves forward for `passes` passes and gathers the step
    table, with the same block rule as _sample_tails."""
    guide, step, passes, _ = P.sampling_guide
    buckets = guide.shape[1]
    flat_cum = P.sampling_table[1].ravel()
    state = ((walks[:, start] - 1) * buckets).astype(step.dtype)
    per_block = max(1, (1 << 16) // 2 // max(1, state.size))
    for lo in range(start + 1, walks.shape[1], per_block):
        draws = rng.random((min(per_block, walks.shape[1] - lo), state.size))
        for s, u in enumerate(draws, lo):
            pos = guide.take((u * buckets).astype(np.intp) + state)
            for _ in range(passes):
                pos += flat_cum[pos] <= u
            state = step.take(pos)
            walks[:, s] = state // buckets + 1


def _edge_uniforms(P):
    # every bucket edge k/B and the double below it, each followed by the
    # largest double below 1.0
    top = np.nextafter(1.0, 0.0)
    return [u for edge in _bucket_edges(P) for u in (edge, top)]


def _assert_batches_equal_the_guide_and_step_loop(P, rng):
    # seeded batches from column 0 and from a later column, of 250 rows
    # and of one row; then scripted edge uniforms for one walker per
    # vertex and for a one-row batch
    for count, start in ((250, 0), (250, 37), (1, 0), (1, 37)):
        got = rng.integers(1, P.n + 1, (count, 300)).astype(np.int32)
        want = got.copy()
        _sample_tails(P, got, start, np.random.default_rng(count + start))
        _guide_step_tails(P, want, start, np.random.default_rng(count + start))
        assert np.array_equal(got, want)
    uniforms = _edge_uniforms(P)
    for starts in (np.arange(1, P.n + 1), [P.n]):
        got = np.zeros((len(starts), len(uniforms) + 1), dtype=np.int64)
        got[:, 0] = starts
        want = got.copy()
        values = np.repeat(uniforms, len(starts)).tolist()  # one uniform per step
        _sample_tails(P, got, 0, _Scripted(values))
        _guide_step_tails(P, want, 0, _Scripted(values))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("spec", ["hypercube:8", "torus2d:16x16", "random-regular:256,4",
                                  "hypercube:11"])
def test_jump_table_steps_equal_the_guide_and_step_loop(spec):
    # hypercube:11 (passes 1) has no jump table and keeps the loop with
    # forward passes, whose walks must not change either
    P = mb.lazy_simple_walk(mb.graph_from_spec(spec, seed=0))
    assert (P.sampling_guide[3] is None) == (spec == "hypercube:11")
    _assert_batches_equal_the_guide_and_step_loop(P, np.random.default_rng(3))


@settings(max_examples=40, deadline=None)
@given(hst.data())
def test_jump_table_steps_on_dyadic_chains(data):
    # rows of multiples of 1/8 put every running sum on a bucket edge, as
    # the guides of these chains have at least 8 buckets
    n = data.draw(hst.integers(min_value=2, max_value=8), label="n")
    rng = np.random.default_rng(data.draw(hst.integers(0, 10_000), label="seed"))
    rows = [rng.multinomial(total, np.full(n, 1.0 / n)) / total
            for total in (1 << rng.integers(0, 4, n)).tolist()]
    P = mb.make_chain(mb.complete_graph(n), rows)
    assert P.sampling_guide[2] == 0 and P.sampling_guide[3] is not None
    _assert_batches_equal_the_guide_and_step_loop(P, rng)
    _assert_loops_match_dense(P, _edge_uniforms(P))


def test_jump_table_is_built_once_per_chain(monkeypatch):
    # milestone_escape_estimates redraws once per milestone; only the
    # first batch on the chain builds the guide and its jump table
    P = mb.lazy_simple_walk(mb.graph_from_spec("hypercube:8"))
    params = mb.default_params(P)
    calls = []
    monkeypatch.setattr("mixbound.chains._guide", lambda *args: calls.append(args) or _guide(*args))
    mb.milestone_escape_estimates(P, params, samples=20, seed=0)
    mb.estimate_lower_bound(P, params, samples=20, seed=0)
    assert params.m > 1 and len(calls) == 1
    jump = P.sampling_guide[3]
    assert jump is not None and P.sampling_guide[3] is jump


# ---------------------------------------------------------------------------
# Neighbour tables against dense oracles
# ---------------------------------------------------------------------------

def _reaches_all_oracle(support, start):
    # depth-first search over dense rows
    seen = np.zeros(support.shape[0], dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(support[u]):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def _flags_oracle(m, pi):
    # dense detailed balance over all n^2 cells
    support = m > 0.0
    irreducible = _reaches_all_oracle(support, 0) and _reaches_all_oracle(support.T, 0)
    lazy = bool(np.all(np.diag(m) >= 0.5 - 1e-12))
    reversible = pi is not None and bool(
        np.max(np.abs(pi[:, None] * m - pi[None, :] * m.T)) <= 1e-10)
    return mb.ChainFlags(lazy=lazy, irreducible=irreducible, reversible=reversible)


def _deque_bfs(rows, source, depth=None):
    # queue BFS over 0-based neighbour lists: (dist, parent), -1 where
    # unreached or past depth; a parent is the first dequeued vertex listing it
    dist, parent = [-1] * len(rows), [-1] * len(rows)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if depth is not None and dist[u] >= depth:
            continue
        for w in rows[u]:
            if dist[w] < 0:
                dist[w], parent[w] = dist[u] + 1, u
                queue.append(w)
    return dist, parent


def _padded_csr(index):
    # a padded table of width k is a CSR index with k slots per row
    return index.shape[1] * np.arange(index.shape[0] + 1), index.ravel()


def _in_csr(index, weight):
    # the in-table's real slots are a prefix of each row
    real = weight > 0.0
    return np.concatenate(([0], np.cumsum(real.sum(axis=1)))), index[real]


def _hops_oracle(support):
    # hop distance from every row vertex by dense boolean powers; -1 if never
    n = support.shape[0]
    dist = np.full((n, n), -1)
    reach = np.eye(n, dtype=bool)
    for hops in range(n):
        dist[reach & (dist < 0)] = hops
        reach = (reach.astype(int) @ support.astype(int)) > 0
    return dist


@settings(max_examples=80, deadline=None)
@given(hst.data())
def test_tables_agree_with_dense_oracles(data):
    n = data.draw(hst.integers(min_value=2, max_value=8), label="n")
    seed = data.draw(hst.integers(min_value=0, max_value=10_000), label="seed")
    lazy_share = data.draw(hst.sampled_from([0.0, 0.5, 1.0]), label="lazy_share")
    rng = np.random.default_rng(seed)
    tree = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    extra = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.4}
    edge_set = tree | extra
    g = mb.make_graph(n, edge_set)
    m = np.zeros((n, n))
    for u, v in g.edges:  # zero weights leave some edges one-way or unused
        m[u - 1, v - 1], m[v - 1, u - 1] = rng.random(2) * (rng.random(2) < 0.7)
    loops = rng.random(n) * (rng.random(n) < 0.6)  # some rows have no self-loop
    lazy = rng.random(n) < lazy_share
    loops[lazy] = m[lazy].sum(axis=1) + rng.random(lazy.sum())
    loops[m.sum(axis=1) + loops == 0.0] = 1.0
    m[np.arange(n), np.arange(n)] = loops
    P = mb.make_chain(g, m / m.sum(axis=1, keepdims=True))

    want = _flags_oracle(P.matrix, P.pi)
    assert P.flags == want
    assert mb.check_properties(P) == want
    assert (P.pi is None) == (not want.irreducible)

    support = P.matrix > 0.0
    out_index = P.sampling_table[0]
    in_index, weight = P.in_neighbours
    forward, backward = _hops_oracle(support), _hops_oracle(support.T)
    lazy_reach = {T: np.linalg.matrix_power(support.astype(int), T) > 0 for T in (1, 2, 3)}
    out_csr, in_csr = _padded_csr(out_index), _in_csr(in_index, weight)
    for s in range(n):
        assert np.array_equal(_bfs(*out_csr, s)[0], forward[s])
        assert np.array_equal(_bfs(*in_csr, s)[0], backward[s])
        for T in (1, 2, 3):
            within = _bfs(*out_csr, s, depth=T)[0]
            assert np.array_equal(within >= 0, (forward[s] >= 0) & (forward[s] <= T))
            if P.flags.lazy:  # reachable in exactly T steps
                assert np.array_equal(within >= 0, lazy_reach[T][s])

    # the one BFS, with parents and depths, on all three CSR views
    graph_rows = [sorted({w - 1 for e in edge_set if u + 1 in e for w in e} - {u})
                  for u in range(n)]
    out_rows = [np.flatnonzero(support[u]).tolist() for u in range(n)]
    in_rows = [np.flatnonzero(support[:, v]).tolist() for v in range(n)]
    for csr, rows in (((g.indptr, g.indices), graph_rows), (out_csr, out_rows),
                      (in_csr, in_rows)):
        for s in range(n):
            for T in (None, 1, 2, 3):
                dist, parent = _bfs(*csr, s, depth=T)
                assert (dist.tolist(), parent.tolist()) == _deque_bfs(rows, s, T)


def test_bfs_parent_is_first_discoverer():
    adjacency = ((5, 6, 7), (4, 7, 8), (4, 5, 6), (2, 3, 6),
                 (1, 3, 8), (1, 3, 4), (1, 2, 8), (2, 5, 7))
    g = mb.make_graph(8, {(u, v) for u, nbrs in enumerate(adjacency, 1) for v in nbrs if u < v})
    dist, parent = _bfs(*_padded_csr(mb.lazy_simple_walk(g).sampling_table[0]), 2)
    # from vertex 3, level 2 is discovered in the order 2 (via 4), 1, 8
    # (via 5); vertex 7 lists 1, 2 and 8 and takes 2, the first discovered,
    # not 1, the smallest
    assert dist.tolist() == [2, 2, 0, 1, 1, 1, 3, 2]
    assert (parent + 1).tolist() == [5, 4, 0, 3, 3, 3, 2, 5]  # 1-based; 0 for none


def _lazy_simple_loops(g):
    n = g.n
    m = np.zeros((n, n))
    for u in range(1, n + 1):
        nbrs = g.neighbors(u)
        m[u - 1, u - 1] = 0.5
        for v in nbrs:
            m[u - 1, v - 1] = 0.5 / len(nbrs)
    degrees = np.array([g.degree(v) for v in range(1, n + 1)], dtype=float)
    return m, degrees / (2 * len(g.edges))


def _max_degree_loops(g):
    n = g.n
    degrees = [g.degree(v) for v in range(1, n + 1)]
    d_max = max(degrees)
    m = np.zeros((n, n))
    for u in range(1, n + 1):
        for v in g.neighbors(u):
            m[u - 1, v - 1] = 0.5 / d_max
        m[u - 1, u - 1] = 1.0 - degrees[u - 1] / (2 * d_max)
    return m, np.full(n, 1.0 / n)


def _metropolis_loops(g, target):
    n = g.n
    t = target / target.sum()
    m = np.zeros((n, n))
    for u in range(1, n + 1):
        du = g.degree(u)
        for v in g.neighbors(u):
            accept = min(1.0, t[v - 1] * du / (t[u - 1] * g.degree(v)))
            m[u - 1, v - 1] = accept / (2 * du)
        m[u - 1, u - 1] = 1.0 - math.fsum(m[u - 1])
    return m, t


@pytest.mark.parametrize("spec", [
    "path:2", "path:7", "cycle:5", "complete:6", "hypercube:4", "torus2d:3x4",
    "barbell:10", "barbell:30", "random-regular:8,3", "random-regular:64,4",
])
def test_named_walks_match_loop_oracles(spec):
    g = mb.graph_from_spec(spec, seed=5)
    target = np.random.default_rng(g.n).uniform(1.0, 4.0, g.n)
    target /= target.sum()
    for P, (m, pi) in [(mb.lazy_simple_walk(g), _lazy_simple_loops(g)),
                       (mb.max_degree_walk(g), _max_degree_loops(g)),
                       (mb.metropolis_walk(g, target), _metropolis_loops(g, target)),
                       (mb.metropolis_walk(g, np.full(g.n, 1.0 / g.n)),
                        _metropolis_loops(g, np.full(g.n, 1.0 / g.n)))]:
        ref = mb.make_chain(g, m, pi=pi)
        assert np.array_equal(P.matrix, ref.matrix)
        assert np.array_equal(P.pi, ref.pi)
        assert P.flags == ref.flags == _flags_oracle(ref.matrix, ref.pi)


def _fsum_rows(m):
    return np.array([math.fsum(row) for row in m])


def _dense_reference(g, kind, target):
    # the named chain built dense: scatter the entries into an n x n array,
    # then divide each row by the exactly rounded sum of its entries
    n = g.n
    degrees = np.diff(g.indptr)
    src, dst = np.repeat(np.arange(n), degrees), g.indices
    m = np.zeros((n, n))
    if kind == "lazy-simple":
        m[src, dst] = 0.5 / degrees[src]
        np.fill_diagonal(m, 0.5)
        pi = degrees / dst.size
    elif kind == "max-degree":
        m[src, dst] = 0.5 / degrees.max()
        np.fill_diagonal(m, 1.0 - degrees / (2 * degrees.max()))
        pi = np.full(n, 1.0 / n)
    else:
        pi = target / target.sum()
        accept = np.minimum(1.0, pi[dst] * degrees[src] / (pi[src] * degrees[dst]))
        m[src, dst] = accept / (2 * degrees[src])
        np.fill_diagonal(m, 1.0 - _fsum_rows(m))
    m /= _fsum_rows(m)[:, None]
    return m, pi


def _tables_reference(m):
    # both padded neighbour tables read row by row from the dense matrix
    n = len(m)
    support = m > 0.0
    out_index = np.zeros((n, support.sum(axis=1).max()), dtype=np.intp)
    cumulative = np.ones(out_index.shape)
    in_index = np.zeros((n, support.sum(axis=0).max()), dtype=np.intp)
    weight = np.zeros(in_index.shape)
    for r in range(n):
        cols = np.flatnonzero(support[r])
        out_index[r] = cols[-1]
        out_index[r, :cols.size] = cols
        cumulative[r, :cols.size - 1] = np.cumsum(m[r])[cols[:-1]]
        rows = np.flatnonzero(support[:, r])
        in_index[r, :rows.size] = rows
        weight[r, :rows.size] = m[rows, r]
    return (out_index, cumulative), (in_index, weight)


_VERIFY_FAMILY = ["cycle:9", "path:8", "complete:9", "hypercube:3", "torus2d:3x3",
                  "barbell:10", "random-regular:8,3"]


@pytest.mark.parametrize("spec", ["hypercube:6", "hypercube:9", "random-regular:64,3",
                                  "complete:6", *_VERIFY_FAMILY])
def test_named_chains_equal_dense_construction_bit_for_bit(spec):
    # The chain is built from its entries without an n x n array, and each
    # row is divided by math.fsum of its entries, which is exactly rounded
    # and so the same in any order: numpy's pairwise dense row sum is not,
    # and differs from it in the last bit on 25 of 64 rows of hypercube:6.
    g = mb.graph_from_spec(spec, seed=0)
    skewed = np.random.default_rng(g.n).uniform(1.0, 4.0, g.n)
    for kind, target in [("lazy-simple", None), ("max-degree", None),
                         ("metropolis", np.full(g.n, 1.0 / g.n)),
                         ("metropolis", skewed / skewed.sum())]:
        P = mb.build_chain(g, kind, target)
        m, pi = _dense_reference(g, kind, target)
        (out_index, cumulative), (in_index, weight) = _tables_reference(m)
        for got, want in [(P.matrix, m), (P.pi, pi),
                          (P.sampling_table[0], out_index), (P.sampling_table[1], cumulative),
                          (P.in_neighbours[0], in_index), (P.in_neighbours[1], weight)]:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (kind, target is skewed)


@pytest.mark.parametrize("spec", ["barbell:10", "random-regular:64,3", "path:8"])
def test_row_sums_do_not_depend_on_the_block_size(spec, monkeypatch):
    # rows of unequal entries, summed a few rows at a time
    monkeypatch.setattr("mixbound.chains._FSUM_ROWS", 3)
    g = mb.graph_from_spec(spec, seed=0)
    skewed = np.random.default_rng(g.n).uniform(1.0, 4.0, g.n)
    for kind, target in [("lazy-simple", None), ("metropolis", skewed / skewed.sum())]:
        m, _ = _dense_reference(g, kind, target)
        assert mb.build_chain(g, kind, target).matrix.tobytes() == m.tobytes()


def test_named_chain_build_allocates_no_dense_matrix():
    g = mb.hypercube_graph(12)
    P, peak = traced_peak(lambda: mb.lazy_simple_walk(g))
    # O(entries), with no n-column scratch and no copy of the entries: 91
    # bytes per entry here, 139 while the support and the reverse entries
    # were searched for and the entries copied, and 191 when each row was
    # summed in a zeroed dense block of 2^20 cells
    assert peak < 110 * np.count_nonzero(P.in_neighbours[1])


@pytest.mark.parametrize("spec,case", [
    *itertools.product(["hypercube:5", "barbell:10", "random-regular:64,3"],
                       ["lazy-simple", "max-degree", "metropolis", "json"]),
    ("cycle:4", "underflowed"), ("cycle:4", "one-way")])
def test_support_and_reverse_shortcuts_match_the_search(spec, case, monkeypatch):
    # Named entries pass the support check by equality with the edges, and
    # a symmetric support reads each reverse entry through the column-major
    # order; the binary search (_find) runs only for the other chains.
    g = mb.graph_from_spec(spec, seed=0)
    skewed = np.random.default_rng(g.n).uniform(1.0, 4.0, g.n)
    target = skewed / skewed.sum() if case == "metropolis" else None
    if case == "underflowed":
        # the move from vertex 3 to vertex 0, 5e-324 / 0.5 / 4, is below the
        # smallest subnormal (its reverse's acceptance ratio overflows to inf)
        target = np.array([5e-324, 1e-310, 0.5, 0.5])
    searches = []
    find = mb.chains._find
    monkeypatch.setattr("mixbound.chains._find", lambda *a: searches.append(a) or find(*a))
    if case == "one-way":
        # the lazy walk on cycle:4 without its move from vertex 3 to vertex 2
        m = np.array([[0.5, 0.25, 0.0, 0.25], [0.25, 0.5, 0.25, 0.0],
                      [0.0, 0.25, 0.5, 0.25], [0.25, 0.0, 0.0, 0.75]])
        P = mb.make_chain(g, m)
        assert P.flags == mb.ChainFlags(lazy=True, irreducible=True, reversible=False)
    else:
        kind = {"underflowed": "metropolis", "json": "lazy-simple"}.get(case, case)
        with np.errstate(over="ignore"):
            P = mb.build_chain(g, kind, target)
            m, pi = _dense_reference(g, kind, target)
        assert P.pi.tobytes() == pi.tobytes()
        if case == "json":
            P = _round_trip(P, g)
    shortcut = case not in ("underflowed", "one-way")
    assert len(searches) == (0 if shortcut else 2)
    assert P.matrix.tobytes() == m.tobytes()
    # the search: every off-diagonal entry lies on an edge, and the flags
    # recomputed with reverse entries found by binary search agree
    src, dst, _ = mb.chains._row_major_entries(P)
    edge_src, edge_dst, _ = mb.chains._edge_entries(g)
    off = src != dst
    assert find(edge_src * g.n + edge_dst, src[off] * g.n + dst[off])[1].all()
    assert mb.check_properties(P) == P.flags
    assert (np.count_nonzero(m) < 2 * g.edges.shape[0] + g.n) == (not shortcut)


def test_support_shortcut_reads_the_rows_too():
    # On the path 1-3-4-2 the off-diagonal columns below, read in order,
    # are the edges' (3 | 4 | 1 4 | 2 3), but split 3 4 | - | 1 4 | 2 3:
    # entry (1,4) is off the edges, and vertex 2 holds only its loop.
    g = mb.make_graph(4, [(1, 3), (2, 4), (3, 4)])
    m = np.array([[0.5, 0.0, 0.25, 0.25], [0.0, 1.0, 0.0, 0.0],
                  [0.25, 0.0, 0.5, 0.25], [0.0, 0.25, 0.25, 0.5]])
    with pytest.raises(InputError, match=r"^positive entry \(1,4\) is not on a graph edge$"):
        mb.make_chain(g, m)


@settings(max_examples=80, deadline=None)
@given(hst.data())
def test_random_supports_match_the_search_and_the_dense_matrix(data):
    # a random subset of a random graph's directed edges with random
    # weights, and a self-loop on every row
    n = data.draw(hst.integers(min_value=2, max_value=9), label="n")
    seed = data.draw(hst.integers(min_value=0, max_value=10_000), label="seed")
    keep = data.draw(hst.floats(min_value=0.0, max_value=1.0), label="keep")
    rng = np.random.default_rng(seed)
    tree = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    extra = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.4}
    g = mb.make_graph(n, tree | extra)
    m = np.zeros((n, n))
    src, dst, _ = mb.chains._edge_entries(g)
    chosen = rng.random(src.size) < keep
    m[src[chosen], dst[chosen]] = rng.uniform(0.1, 1.0, chosen.sum())
    if data.draw(hst.booleans(), label="symmetric"):
        m = m + m.T
    m += np.diag(rng.uniform(0.1, 1.0, n))
    m /= m.sum(axis=1, keepdims=True)
    P = mb.make_chain(g, m)
    assert P.matrix.tobytes() == (m / _fsum_rows(m)[:, None]).tobytes()
    assert mb.check_properties(P) == P.flags
    assert P.flags.reversible == (P.flags.irreducible and np.allclose(
        P.pi[:, None] * P.matrix, (P.pi[:, None] * P.matrix).T, rtol=0, atol=1e-10))
    _assert_same_chain(P, _round_trip(P, g))


@pytest.mark.parametrize("shape", [(300, 500), (1, 70_000), (500,)])
def test_tv_from_pi_reduces_in_blocks_to_the_same_float(shape):
    # 300 x 500 is five blocks of 65 rows, the last short
    rng = np.random.default_rng(0)
    power, pi = rng.random(shape), rng.random(shape[-1])
    assert _tv_from_pi(power, pi) == 0.5 * np.abs(power - pi).sum(axis=-1).max()


def test_doubling_search_holds_k_plus_one_dense_arrays():
    # T = 84 needs K = 7 squarings; the lift writes into their buffers
    P = mb.lazy_simple_walk(mb.graph_from_spec("random-regular:256,4", seed=0))
    P.matrix
    params, peak = traced_peak(lambda: mb.default_params(P))
    assert params.T == 84
    # 7.6 arrays: the seven squares and half an array of TV buffer; 9.0
    # with two n x n temporaries per TV check and a new array per product
    assert peak <= 8 * P.matrix.nbytes


def _automorphisms(spec, n, rng):
    # 0-based vertex permutations that preserve the generator's graph
    v = np.arange(n)
    family, size = spec.split(":")
    if family == "cycle":
        return [(v + rng.integers(1, n)) % n, (-v) % n]
    if family == "complete":
        return [rng.permutation(n) for _ in range(3)]
    if family == "hypercube":
        bits = rng.permutation(int(size))
        shuffled = sum(((v >> b) & 1) << k for k, b in enumerate(bits))
        return [v ^ rng.integers(1, n), shuffled]
    rows, cols = map(int, size.split("x"))
    i, j = np.divmod(v, cols)
    return [(i + rng.integers(rows)) % rows * cols + (j + rng.integers(1, cols)) % cols,
            (-i) % rows * cols + j]


@pytest.mark.parametrize("spec", ["cycle:9", "complete:6", "complete:9", "hypercube:6",
                                  "hypercube:9", "torus2d:3x5", "torus2d:6x6"])
@pytest.mark.parametrize("build", [mb.lazy_simple_walk, mb.max_degree_walk])
def test_transitive_chains_map_entries_to_equal_entries(spec, build):
    # An automorphism sends each entry to one the maths makes equal, and a
    # row sum that does not depend on the order keeps them equal bit for
    # bit, as does the symmetry P = P^T of a walk on a regular graph.
    P = build(mb.graph_from_spec(spec))
    assert P.vertex_transitive
    m = P.matrix
    for perm in _automorphisms(spec, P.n, np.random.default_rng(P.n)):
        assert np.array_equal(m[np.ix_(perm, perm)], m)
    assert np.array_equal(m, m.T)


@pytest.mark.parametrize("d", range(1, 17))
def test_lazy_hypercube_stores_two_weights_and_is_symmetric(d):
    P = mb.lazy_simple_walk(mb.hypercube_graph(d))
    src, dst, value = mb.chains._stored_entries(P.in_neighbours)
    assert set(value.tolist()) == {0.5, 0.5 / d}
    forward, backward = np.lexsort((dst, src)), np.lexsort((src, dst))
    assert np.array_equal(src[forward], dst[backward])
    assert np.array_equal(dst[forward], src[backward])
    assert np.array_equal(value[forward], value[backward])  # P == P^T, bit for bit
    if d <= 10:
        assert np.array_equal(P.matrix, P.matrix.T)


def test_dense_cap_refuses_before_allocating():
    big = mb.path_graph(MAX_DENSE_N + 1)
    with pytest.raises(CapabilityError, match="dense"):
        mb.make_chain(big, [[1.0]])  # refused before the shape check
    P = mb.lazy_simple_walk(big)  # the tables alone are small
    assert P.flags == mb.ChainFlags(lazy=True, irreducible=True, reversible=True)
    with pytest.raises(CapabilityError, match="dense"):
        P.matrix


def _reloaded(P):
    params = mb.default_params(P)
    walk = mb.sample_walk(P, 1, params.L, seed=0)
    doc = mb.instance_to_json(mb.make_instance(walk, 0, params), "hypercube:4", "lazy-simple")
    return mb.instance_from_json(doc)  # on a chain of its own, built from the spec


# Each reads entries along walks of a chain on n <= MAX_DENSE_N.
_WALK_READERS = {
    "prob": lambda P: P.prob(1, 2),
    "make_walk": lambda P: mb.make_walk(P, (1, 1, 2, 4)),
    "Walk.probability": lambda P: mb.sample_walk(P, 1, 8, seed=0).probability(),
    "walk_probability": lambda P: mb.walk_probability(P, (1, 2, 4, 1)),
    "relation_weight": lambda P: mb.relation_weight(
        *mb.witness_pair(P, mb.default_params(P)).instances),
    "witness_pair": lambda P: mb.witness_pair(P, mb.default_params(P)),
    "instance_from_json": _reloaded,
    "exact_lower_bound": lambda P: mb.exact_lower_bound(P, mb.custom_params(P, 1, 3)),
    "chain_from_json": lambda P: _round_trip(P),
}


@pytest.mark.parametrize("reader", list(_WALK_READERS))
def test_walk_readers_never_form_the_dense_view(reader):
    P = mb.lazy_simple_walk(mb.hypercube_graph(4))
    out = _WALK_READERS[reader](P)
    for chain in (P, out if isinstance(out, mb.TransitionMatrix) else getattr(out, "chain", P)):
        assert "matrix" not in chain.__dict__


def test_walk_readers_run_above_the_dense_cap():
    P = mb.lazy_simple_walk(mb.hypercube_graph(15))
    assert P.n > MAX_DENSE_N
    params = mb.custom_params(P, T=4, L=16)
    pair = mb.witness_pair(P, params)
    x, y = pair.instances
    walk = mb.make_walk(P, x.walk.vertices)
    loops = sum(a == b for a, b in zip(walk.vertices, walk.vertices[1:]))
    assert walk.probability() == mb.walk_probability(P, walk.vertices)
    assert walk.probability() == pytest.approx(0.5 ** loops * (0.5 / 15) ** (16 - loops),
                                               rel=1e-12)
    heads = pair._relation.heads
    assert heads[0, -1] == walk.probability()
    shared = heads[1, params.m - 1]  # the witness shares all but one segment
    assert mb.relation_weight(x, y) == walk.probability() * y.walk.probability() / shared > 0.0
    doc = mb.instance_to_json(x, "hypercube:15", "lazy-simple")
    assert mb.instance_from_json(doc).walk.vertices == walk.vertices
    assert P.prob(1, 2) == 0.5 / 15 and P.prob(1, 4) == 0.0
    # 4 -> 7 flips two bits, the first of two such steps
    with pytest.raises(InputError, match="^walk uses unsupported transition 4->7$"):
        mb.make_walk(P, (1, 2, 4, 7, 1))
    with pytest.raises(CapabilityError, match="dense"):
        P.matrix


def test_dense_view_is_cached_and_read_only(path3_chain):
    assert path3_chain.matrix is path3_chain.matrix
    assert not path3_chain.matrix.flags.writeable
    with pytest.raises(AttributeError):
        path3_chain.matrix = np.eye(3)


def test_walk_probability(k3_chain, path3_chain):
    assert mb.walk_probability(k3_chain, (2,)) == 1.0
    assert mb.walk_probability(k3_chain, (1, 2, 3)) == pytest.approx(1 / 16)
    assert mb.walk_probability(k3_chain, np.array([1, 2, 3])) == pytest.approx(1 / 16)
    assert mb.walk_probability(path3_chain, (1, 3)) == 0.0
    with pytest.raises(InputError):
        mb.walk_probability(k3_chain, ())


def test_make_walk_validates(path3_chain):
    w = mb.make_walk(path3_chain, [1, 2, 3, 2])
    assert w.length == 3 and w.start == 1 and w.end == 2
    assert mb.make_walk(path3_chain, np.array([1, 2, 3, 2])).vertices == w.vertices
    assert type(mb.make_walk(path3_chain, np.array([1, 2])).vertices[0]) is int
    with pytest.raises(InputError):
        mb.make_walk(path3_chain, [1, 3])


@pytest.mark.parametrize("vertices", [[1.9, 2.2, True], [1, 2.0], [True, 2],
                                      [0, 2], [1, 4], [-1, 1]])
def test_walks_refuse_what_is_not_a_vertex(k3_chain, vertices):
    # make_walk once converted with int() before checking, so [1.9, 2.2,
    # True] became the walk (1, 2, 1); walk_probability checked nothing,
    # so [0, 2] read row -1 and returned 0.25
    with pytest.raises(InputError, match="out of range"):
        mb.make_walk(k3_chain, vertices)
    with pytest.raises(InputError, match="out of range"):
        mb.walk_probability(k3_chain, vertices)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _round_trip(P, graph=None):
    return mb.chain_from_json(json.loads(json.dumps(mb.chain_to_json(P))), graph=graph)


def _assert_same_chain(P, Q):
    for a, b in zip(P.sampling_table + P.in_neighbours, Q.sampling_table + Q.in_neighbours):
        assert np.array_equal(a, b)
    assert (P.pi is None and Q.pi is None) or np.array_equal(P.pi, Q.pi)
    assert P.flags == Q.flags


def test_chain_json_roundtrip(path3_chain):
    doc = mb.chain_to_json(path3_chain)
    assert doc["entries"] == [[1, 1, 0.5], [1, 2, 0.5], [2, 1, 0.25], [2, 2, 0.5],
                              [2, 3, 0.25], [3, 2, 0.5], [3, 3, 0.5]]
    back = mb.chain_from_json(doc)
    _assert_same_chain(back, path3_chain)
    assert back.graph.edges.tolist() == path3_chain.graph.edges.tolist()


@settings(max_examples=80, deadline=None)
@given(hst.data())
def test_chain_json_round_trip_is_bit_for_bit(data):
    # Random targets give Metropolis rows whose stored entries sum to 1
    # plus or minus an ulp; read back, they must not be divided again.
    n = data.draw(hst.integers(min_value=2, max_value=12), label="n")
    seed = data.draw(hst.integers(min_value=0, max_value=10_000), label="seed")
    kind = data.draw(hst.sampled_from(["lazy-simple", "max-degree", "metropolis"]),
                     label="kind")
    rng = np.random.default_rng(seed)
    tree = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    extra = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.4}
    g = mb.make_graph(n, tree | extra)
    target = rng.random(n) ** rng.uniform(0.1, 8.0) + 1e-3
    P = mb.build_chain(g, kind, target=target / target.sum())
    for graph in (None, g):
        _assert_same_chain(P, _round_trip(P, graph))


def test_chain_json_round_trip_reducible_and_biased():
    g = mb.path_graph(3)
    eye = mb.make_chain(g, np.eye(3))
    assert "pi" not in mb.chain_to_json(eye)
    _assert_same_chain(eye, _round_trip(eye, g))
    with pytest.raises(InputError, match="not connected"):  # no edge to infer
        _round_trip(eye)
    c3 = mb.cycle_graph(3)
    biased = mb.make_chain(c3, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    assert biased.flags == mb.ChainFlags(lazy=True, irreducible=True, reversible=False)
    for graph in (None, c3):
        _assert_same_chain(biased, _round_trip(biased, graph))


def test_chain_json_round_trip_on_verify_families():
    from mixbound.verify import VerifyCaps, _Context
    for _, _, P in _Context(VerifyCaps(), seed=0).test_chains:
        for graph in (None, P.graph):
            Q = _round_trip(P, graph)
            _assert_same_chain(P, Q)
            assert "matrix" not in P.__dict__ and "matrix" not in Q.__dict__


def test_chain_json_round_trip_at_hypercube_12():
    P = mb.lazy_simple_walk(mb.hypercube_graph(12))
    Q = _round_trip(P)
    _assert_same_chain(P, Q)
    assert mb.spectral_gap(Q) == mb.spectral_gap(P)
    assert "matrix" not in P.__dict__ and "matrix" not in Q.__dict__


def test_chain_json_round_trip_above_the_dense_cap():
    g = mb.path_graph(MAX_DENSE_N + 1)
    P = mb.lazy_simple_walk(g)
    for graph in (None, g):
        Q = _round_trip(P, graph)
        _assert_same_chain(P, Q)
        assert "matrix" not in P.__dict__ and "matrix" not in Q.__dict__


def test_chain_file_is_read_without_a_list_of_entry_tuples(tmp_path):
    # read_json's document alone peaks at about 185 bytes per entry on the
    # hypercube:10 lazy walk's file; reading the chain from it peaks at
    # about 191, and at 294 when the entries passed through a list of
    # (u, v, p) tuples beside the document
    P = mb.lazy_simple_walk(mb.hypercube_graph(10))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(mb.chain_to_json(P)))
    entries = P.n * 11
    Q, peak = traced_peak(lambda: mb.chain_from_json(read_json(str(path))))
    _assert_same_chain(P, Q)
    assert peak <= 230 * entries


def test_chain_json_drops_entries_at_zero():
    doc = {"n": 2, "entries": [[1, 1, 1.0], [1, 2, -1e-16], [2, 1, 0.0], [2, 2, 1.0]]}
    P = mb.chain_from_json(doc, graph=mb.path_graph(2))
    assert mb.chain_to_json(P)["entries"] == [[1, 1, 1.0], [2, 2, 1.0]]
    with pytest.raises(InputError, match="^chain document has n=2, but the graph has n=3$"):
        mb.chain_from_json(doc, graph=mb.path_graph(3))
    with pytest.raises(InputError, match="^3 entries cannot fill the 4 rows of a chain$"):
        mb.chain_from_json({**doc, "n": 4, "entries": doc["entries"][1:]})


def test_chain_json_infers_graph():
    doc = {"n": 2, "entries": [[1, 1, 0.5], [1, 2, 0.5], [2, 1, 0.5], [2, 2, 0.5]]}
    P = mb.chain_from_json(doc)
    assert P.graph.edges.tolist() == [[1, 2]]
    assert P.flags.reversible
