"""Executable verification suite for the package's mathematical claims.

Every invariant of the library has a named check here: the appendix-style
helper facts (A1-A9), the spectral/bottleneck inequality chain (B1, B2,
and the spectral mixing bound), and the module-level invariants (graph
generators, chain constructions, adversary symmetries, solver behavior).
Each check reports pass/fail with a counterexample dump on failure; the
CLI exposes the suite as `mixbound verify`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import adversary as adv
from . import chains as ch
from . import graphs as gr
from . import solvers as sv
from . import staircase as st
from .errors import DEFAULT_CAPS, CapabilityError, InputError, VacuousRegimeWarning

# Fixed sizes of the exhaustive A8 and A3 checks and the A4 graphs.
REVERSAL_N = 10
REVERSAL_LEN = 10
VISIT_SUM_N = 8
VISIT_SUM_LEN = 8
ESCAPE_SIZES = (16, 25)


@dataclass(frozen=True)
class VerifyCaps:
    """Size and effort limits for the verification suite. Each is a
    positive integer, so that no check can pass by checking nothing."""

    max_n: int = 12
    instances: int = 500
    escape_samples: int = 10_000
    ratio_subsets: int = 200
    mc_samples: int = 20_000

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, adv._check_count(f.name, getattr(self, f.name)))

    def to_json(self) -> dict:
        """Every limit the suite ran under, fixed ones and library caps
        included."""
        return {
            "max_n": self.max_n, "instances": self.instances,
            "reversal_n": REVERSAL_N, "reversal_len": REVERSAL_LEN,
            "visit_sum_n": VISIT_SUM_N, "visit_sum_len": VISIT_SUM_LEN,
            "escape_sizes": list(ESCAPE_SIZES),
            "escape_samples": self.escape_samples,
            "ratio_subsets": self.ratio_subsets, "mc_samples": self.mc_samples,
            "expansion_cap": DEFAULT_CAPS["expansion_bruteforce"],
            "enumeration_cap": DEFAULT_CAPS["enumeration"],
            "mixing_cap": DEFAULT_CAPS["mixing_steps"],
        }


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    counterexample: dict | None = None

    def to_json(self) -> dict:
        doc = {"name": self.name, "passed": self.passed, "details": self.details}
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        return doc


# Walks drawn per instance still wanted, so that one round of rejecting
# bad walks usually leaves enough good ones.
_DRAW_MULTIPLE = 4


class _Context:
    """The fixtures of one run, each built the first time a check asks for
    it and then read by every check that needs it: the family graphs and
    their test chains, each chain's default parameters, spectral gap and
    bottleneck ratio, each graph's edge expansion and BFS distances, the
    seeded instances, the micro families, which hold their own relation
    arrays and head classes, and each micro family's pair reference. A
    value per graph or chain is keyed by the object itself (a chain hashes
    by identity, a graph by its CSR bytes) and is computed through the
    library's module function, so a patched function is the one that runs."""

    def __init__(self, caps: VerifyCaps, seed: int):
        self.caps = caps
        self.seed = seed
        # (function name, graph or chain, further arguments) -> value
        self._memo: dict[tuple, object] = {}

    def cached(self, module, name: str, *args):
        """module.name(*args), looked up and called the first time these
        arguments are asked for, then kept."""
        key = (name, *args)
        if key not in self._memo:
            self._memo[key] = getattr(module, name)(*args)
        return self._memo[key]

    @cached_property
    def family_graphs(self) -> list[tuple[str, gr.Graph]]:
        candidates = [
            ("cycle", gr.cycle_graph(9)),
            ("path", gr.path_graph(8)),
            ("complete", gr.complete_graph(9)),
            ("hypercube", gr.hypercube_graph(3)),
            ("torus2d", gr.torus_graph(3, 3)),
            ("barbell", gr.barbell_graph(10)),
            ("random_regular", gr.random_regular_graph(8, 3, seed=self.seed)),
        ]
        graphs = [(name, g) for name, g in candidates if g.n <= self.caps.max_n]
        if not graphs:
            raise InputError(f"max_n={self.caps.max_n} admits no family graph; "
                             f"the smallest has n={min(g.n for _, g in candidates)}")
        return graphs

    @cached_property
    def test_chains(self) -> list[tuple[str, str, ch.TransitionMatrix]]:
        out = []
        for gname, g in self.family_graphs:
            out.append((gname, "lazy-simple", ch.lazy_simple_walk(g)))
            out.append((gname, "metropolis", ch.metropolis_walk(
                g, np.full(g.n, 1.0 / g.n))))
            out.append((gname, "max-degree", ch.max_degree_walk(g)))
        return out

    def default_params(self, P: ch.TransitionMatrix) -> st.StaircaseParams:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VacuousRegimeWarning)
            return self.cached(st, "default_params", P)

    @cached_property
    def instances(self) -> list[st.StaircaseInstance]:
        """`caps.instances` seeded staircase instances spread over every
        (family, chain construction) combination: ceil(instances / chains)
        per chain in order until the count is reached. A chain's share
        comes from one generator, default_rng((seed, chain index)): its
        good walks by _good_walks, then one bit per walk."""
        chains = self.test_chains
        per = math.ceil(self.caps.instances / len(chains))
        out = []
        for idx, (_, _, P) in enumerate(chains):
            share = min(per, self.caps.instances - len(out))
            if share <= 0:
                break
            params = self.default_params(P)
            rng = np.random.default_rng((self.seed, idx))
            walks = _good_walks(P, params, share, rng)
            bits = rng.integers(2, size=share)
            out += [st.make_instance(ch.Walk(vertices=tuple(w), chain=P), bit, params)
                    for w, bit in zip(walks.tolist(), bits.tolist())]
        return out

    @cached_property
    def micro_families(self) -> list[adv.FunctionFamily]:
        """The enumerated families of two adversary systems, K3 with T=1,
        L=2 and K4 at its default parameters. Each family builds its
        relation arrays and head classes once, for A5, the symmetry, ratio
        and exact checks."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VacuousRegimeWarning)
            P3 = ch.lazy_simple_walk(gr.complete_graph(3))
            P4 = ch.lazy_simple_walk(gr.complete_graph(4))
            systems = [(P3, st.custom_params(P3, T=1, L=2)), (P4, st.default_params(P4))]
        return [adv.enumerate_family(P, params) for P, params in systems]

    @cached_property
    def micro_references(self) -> list[_PairReference]:
        """Each micro family's pair reference, for A5 and the exact check."""
        return [_pair_reference(family) for family in self.micro_families]


class _PairReference(NamedTuple):
    """A family's sums over its pairs of good opposite-bit instances, the
    reference the head classes are checked against. The weight and the
    vertices telling a pair apart are symmetric in the pair, so the bit-0
    rows against the bit-1 columns stand for both orders."""

    rows: np.ndarray  # family positions of the good bit-0 instances
    cols: np.ndarray  # family positions of the good bit-1 instances
    r: np.ndarray  # (rows, cols) relation weights
    mass: np.ndarray  # each instance's relation mass, family order
    per_vertex: np.ndarray  # q_v, indexed by v - 1


def _pair_reference(family: adv.FunctionFamily) -> _PairReference:
    """The pair reference of a family, every sum an exactly rounded fsum.
    A pair is told apart at v where v's last occurrence differs or v ends
    either walk (the end vertex's decision value carries the bit)."""
    rel, n = family._relation, family.chain.n
    rows = np.flatnonzero(rel.good & (rel.bits == 0))
    cols = np.flatnonzero(rel.good & (rel.bits == 1))
    r = adv._relation_block(rel.take(rows), rel.take(cols))
    mass = np.zeros(len(family))
    mass[rows] = [math.fsum(memoryview(row)) for row in r]
    mass[cols] = [math.fsum(memoryview(col)) for col in r.T]
    last, end = adv._last_occurrence(rel.walks, n), rel.walks[:, -1] - 1
    per_vertex = np.zeros(n)
    for v in range(n):
        told = last[rows, v, None] != last[cols, v]
        told |= (end[rows, None] == v) | (end[cols] == v)
        per_vertex[v] = 2.0 * math.fsum(memoryview(r[told]))
    return _PairReference(rows, cols, r, mass, per_vertex)


def _good_walks(P: ch.TransitionMatrix, params: st.StaircaseParams, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """count good walks of the chain law from vertex 1, as rows in the
    order drawn: the chain conditioned on distinct milestones, as
    st.sample_good_walk draws it one walk at a time. Each round draws
    _DRAW_MULTIPLE times the shortfall as one 2-D batch through
    ch._sample_tails and rejects the bad rows with adv._good_rows; after
    count * the good-walk retry cap walks without enough good ones it
    raises CapabilityError."""
    found, have, drawn = [], 0, 0
    retries = DEFAULT_CAPS["good_walk_retries"]
    while have < count:
        if drawn >= count * retries:
            raise CapabilityError(
                f"no good walk found in {retries} attempts per walk "
                f"(L={params.L}, T={params.T})")
        walks = np.ones((_DRAW_MULTIPLE * (count - have), params.L + 1), dtype=np.int64)
        ch._sample_tails(P, walks, 0, rng)
        drawn += len(walks)
        good = walks[adv._good_rows(walks, params.T)][:count - have]
        found.append(good)
        have += len(good)
    return np.concatenate(found)


# What a check returns: (passed, details, counterexample or None).
# `run_verify` adds the check's registry name.
Outcome = tuple[bool, str, dict | None]


def _fail(details: str, counterexample: dict) -> Outcome:
    return False, details, counterexample


def _ok(details: str) -> Outcome:
    return True, details, None


# ---------------------------------------------------------------------------
# A-series checks
# ---------------------------------------------------------------------------

def check_a1_validity(ctx: _Context) -> Outcome:
    """Sampled instance value functions are valid for their walks. The
    oracle is a BFS from the walk's start over the graph's CSR arrays,
    independent of the instance's stored distances; it runs once per
    graph and start, not once per instance."""
    for inst in ctx.instances:
        dist = ctx.cached(gr, "bfs_distances", inst.graph, inst.walk.start)
        if not st._valid_for_distances(inst.graph, inst.walk.vertices, inst.value, dist):
            return _fail("instance value function failed validity",
                         {"walk": list(inst.walk.vertices), "bit": inst.bit})
    return _ok(f"{len(ctx.instances)} instances valid")


def check_a2_mixing_concentration(ctx: _Context) -> Outcome:
    """After T = t_mix(sigma/2n) steps no vertex holds more than 2 sigma/n
    probability, from any start."""
    for gname, kind, P in ctx.test_chains:
        sigma = ch.stationary_ratio(P)
        T = ctx.default_params(P).T
        power = np.linalg.matrix_power(P.matrix, T)
        limit = 2.0 * sigma / P.n + 1e-12
        if power.max() > limit:
            u, v = np.unravel_index(int(power.argmax()), power.shape)
            return _fail("T-step probability exceeds 2*sigma/n",
                         {"graph": gname, "chain": kind, "u": int(u + 1),
                          "v": int(v + 1), "value": float(power.max()),
                          "limit": limit})
    return _ok(f"{len(ctx.test_chains)} chains concentrated")


def check_a3_visit_sum(ctx: _Context) -> Outcome:
    """Sum of visit probabilities into a fixed vertex over any start subset
    is at most len * sigma. One visit DP per (chain, v), read at every
    length."""
    chains = [(g, k, P) for g, k, P in ctx.test_chains if P.n <= VISIT_SUM_N]
    for gname, kind, P in chains:
        sigma = ch.stationary_ratio(P)
        n = P.n
        subset_matrix = np.array(
            [[(mask >> u) & 1 for u in range(n)] for mask in range(1, 1 << n)],
            dtype=float)
        for v in range(1, n + 1):
            for ell, visits in enumerate(_visit_probabilities(P, v, VISIT_SUM_LEN)):
                worst = float((subset_matrix @ visits).max())
                if worst > ell * sigma + 1e-9:
                    return _fail("subset visit sum exceeds len*sigma",
                                 {"graph": gname, "chain": kind, "v": v,
                                  "len": ell, "sum": worst, "limit": ell * sigma})
    return _ok(f"{len(chains)} chains, all subsets within bound")


def _visit_probabilities(P: ch.TransitionMatrix, v: int, length: int) -> np.ndarray:
    """Row ell, for ell = 0..length: P_visit(u, v, ell) over every start
    u, the chance that an ell-step walk from u is at v at one of steps
    1..ell, by dynamic programming on the dense matrix with v made
    absorbing. Row ell is the DP after ell steps, so it equals a DP run
    for ell steps alone bit for bit."""
    alive, captured = np.eye(P.n), np.zeros((length + 1, P.n))
    for ell in range(1, length + 1):
        alive = alive @ P.matrix
        captured[ell] = captured[ell - 1] + alive[:, v - 1]
        alive[:, v - 1] = 0.0
    return captured


def check_a4_milestone_escape(ctx: _Context) -> Outcome:
    """On complete graphs at default T, each segment's probability of
    staying good while diverging exactly there clears 2^(-4 sigma) within
    Monte Carlo error."""
    details = []
    for size in ESCAPE_SIZES:
        P = ch.lazy_simple_walk(gr.complete_graph(size))
        params = ctx.default_params(P)
        sigma = params.sigma
        floor = 2.0 ** (-4.0 * sigma)
        estimates = adv.milestone_escape_estimates(
            P, params, ctx.caps.escape_samples, seed=(ctx.seed, size))
        for j, (p_hat, se) in enumerate(estimates):
            if p_hat < floor - 3.0 * se:
                return _fail("segment escape estimate below 2^(-4 sigma)",
                             {"n": size, "segment": j, "estimate": p_hat,
                              "std_error": se, "floor": floor})
        details.append(f"n={size}: min {min(p for p, _ in estimates):.3f}")
    return _ok("; ".join(details) + f" vs floor {floor:.4f}")


def check_a5_difference_localization(ctx: _Context) -> Outcome:
    """(i) Two distinct-walk functions can only disagree inside the two
    tails after their shared head; (ii) the per-vertex distinguishing mass
    is at most twice the weight of pairs whose second tail covers the
    vertex. Exhaustive over the micro-systems, one vertex at a time, so
    every pair-shaped array is 2-D: O(pairs) bytes with no factor of n.
    decision_value fills the decision array once per instance and vertex;
    J comes from the relation's head ids over the distinct walks. (ii)
    reads the weights and q_v of each micro family's pair reference."""
    pair_count = 0
    for family, ref in zip(ctx.micro_families, ctx.micro_references):
        P, T, rel = family.chain, family.params.T, family._relation
        insts = family.instances
        # (i) over every ordered instance pair (a, b) with distinct walks and
        # every vertex v, as arrays over the distinct walks: wid[i] is the
        # walk of instance i, and reps[w] the first instance of walk w
        _, reps, wid = np.unique(rel.walks, axis=0, return_index=True, return_inverse=True)
        wid = wid.reshape(-1)
        walks = rel.take(reps)
        J = adv._head_index(walks, walks)
        head_end = J.astype(np.int32) * T
        # equal decision values get equal codes
        codes: dict = {}
        decisions = np.array([[codes.setdefault(inst.decision_value(v), len(codes))
                               for v in range(1, P.n + 1)] for inst in insts])
        last = adv._last_occurrence(walks.walks, P.n).astype(np.int32)
        pair_count += len(insts) ** 2 - int((np.bincount(wid) ** 2).sum())
        first = None  # the least failing (i, k, v): the first in row-major order
        for v in range(P.n):
            # v lies in tail(a, J, T) or tail(b, J, T) iff its last
            # occurrence in a or in b comes after position J*T
            outside = last[:, v, None] <= head_end
            outside &= last[:, v] <= head_end
            np.fill_diagonal(outside, False)  # distinct walks only
            escaped = outside.take(wid, 0).take(wid, 1)
            escaped &= decisions[:, v, None] != decisions[:, v]
            if escaped.any():
                i, k = np.unravel_index(int(np.argmax(escaped)), escaped.shape)
                if first is None or (i, k) < first[:2]:
                    first = (i, k, v)
        if first is not None:
            i, k, v = first
            a, b = insts[i], insts[k]
            return _fail("difference outside the two tails",
                         {"x": list(a.walk.vertices), "y": list(b.walk.vertices),
                          "bits": [a.bit, b.bit], "vertex": int(v) + 1,
                          "J": int(J[wid[i], wid[k]])})
        # factor-2 bound, on the full family: each ordered pair (i, k)
        # adds its weight to the vertices of k's tail after the shared head
        last = adv._last_occurrence(rel.walks, P.n)
        head_end = adv._head_index(rel.take(ref.rows), rel.take(ref.cols)).astype(np.int64) * T
        r, per_vertex = ref.r, ref.per_vertex
        rhs = np.zeros(P.n)
        for v in range(P.n):
            covered = ((last[ref.cols, v] > head_end).astype(float)
                       + (last[ref.rows, v, None] > head_end))
            if r.size:  # added one pair at a time in row-major order
                rhs[v] = np.add.accumulate((r * covered).ravel())[-1]
        if np.any(per_vertex > 2.0 * rhs + 1e-12):
            v = int(np.argmax(per_vertex - 2.0 * rhs)) + 1
            return _fail("factor-2 bound violated",
                         {"n": P.n, "vertex": v, "q_tilde": float(per_vertex[v - 1]),
                          "rhs": float(2.0 * rhs[v - 1])})
    return _ok(f"{pair_count} ordered pairs localized; factor-2 bound holds")


def check_a6_witness_existence(ctx: _Context) -> Outcome:
    """The constructive witness yields two good walks sharing the
    next-to-last head with positive distinguishing mass, on chains large
    enough for the guarantee."""
    cases = [
        ("complete16", ch.lazy_simple_walk(gr.complete_graph(16))),
        ("hypercube4", ch.lazy_simple_walk(gr.hypercube_graph(4))),
        ("hypercube4-maxdeg", ch.max_degree_walk(gr.hypercube_graph(4))),
    ]
    for label, P in cases:
        params = ctx.default_params(P)
        pair = adv.witness_pair(P, params)
        x, y = pair.instances
        j = st.shared_head_index(x.walk, y.walk, params.T)
        q = adv.distinguishing_mass(pair).q
        ok = (j == params.m - 1 and x.walk.end != y.walk.end and q > 0.0
              and st.is_good_walk(x.walk, params.T)
              and st.is_good_walk(y.walk, params.T))
        if not ok:
            return _fail("witness pair malformed",
                         {"case": label, "J": j, "m": params.m, "q": q,
                          "x_end": x.walk.end, "y_end": y.walk.end})
    return _ok(f"{len(cases)} chains produced positive-mass witnesses")


def check_a7_monotone_grid(ctx: _Context) -> Outcome:
    """(1 - y/x)^x is nondecreasing in x on a grid with x >= 2y >= 1."""
    for y in (0.5, 1.0, 1.5, 2.0, 3.0):
        xs = np.arange(2 * y, 2 * y + 20.0001, 0.25)
        vals = (1.0 - y / xs) ** xs
        drops = np.flatnonzero(np.diff(vals) < -1e-12)
        if drops.size:
            i = int(drops[0])
            return _fail("grid value decreased",
                         {"y": y, "x": float(xs[i]), "value": float(vals[i]),
                          "next": float(vals[i + 1])})
    return _ok("nondecreasing on all grid lines")


def check_a8_time_reversal(ctx: _Context) -> Outcome:
    """pi(u) E_visit(u,v,len) = pi(v) E_visit(v,u,len) for every pair and
    every length, on all chain constructions."""
    chains = [(g, k, P) for g, k, P in ctx.test_chains if P.n <= REVERSAL_N]
    worst = 0.0
    for gname, kind, P in chains:
        pi = ch.stationary(P)
        acc = np.zeros_like(P.matrix)
        power = np.eye(P.n)
        for _ in range(1, REVERSAL_LEN + 1):
            power = power @ P.matrix
            acc += power
            weighted = pi[:, None] * acc
            gap = float(np.abs(weighted - weighted.T).max())
            worst = max(worst, gap)
            if gap > 1e-10:
                return _fail("time-reversal identity violated",
                             {"graph": gname, "chain": kind, "error": gap})
    return _ok(f"{len(chains)} chains, max asymmetry {worst:.2e}")


def check_a9_unique_minimum(ctx: _Context) -> Outcome:
    """Every sampled instance has exactly one local minimum: the end of
    its walk."""
    for inst in ctx.instances:
        minima = st.local_minima(inst.graph, inst.value)
        if minima != [inst.minimum]:
            return _fail("local minima differ from the walk end",
                         {"walk": list(inst.walk.vertices), "minima": minima})
    return _ok(f"{len(ctx.instances)} instances with unique minimum")


# ---------------------------------------------------------------------------
# B-series checks
# ---------------------------------------------------------------------------

def _dense_lambda2(P: ch.TransitionMatrix) -> float:
    """Reference lambda2: the second-largest eigenvalue of the dense
    symmetrized matrix D^(1/2) P D^(-1/2), D = diag(pi)."""
    root = np.sqrt(P.pi)
    sym = root[:, None] * P.matrix / root[None, :]
    return float(np.linalg.eigvalsh((sym + sym.T) / 2)[-2])


def _linear_mixing_times(P: ch.TransitionMatrix, eps_values,
                         cap: int = DEFAULT_CAPS["mixing_steps"]) -> list[int]:
    """Reference t_mix at each eps: one full-matrix scan of P^t over every
    start, t = 0, 1, ..., read at every eps until each has its time."""
    times: dict[float, int] = {}
    power = np.eye(P.n)
    for t in range(cap + 1):
        tv = ch._tv_from_pi(power, P.pi)
        for eps in eps_values:
            if eps not in times and tv <= eps:
                times[eps] = t
        if all(eps in times for eps in eps_values):
            return [times[eps] for eps in eps_values]
        power = power @ P.matrix
    missing = next(eps for eps in eps_values if eps not in times)
    raise CapabilityError(f"mixing time exceeds cap {cap} at eps={missing}")


def check_b1_cheeger_sandwich(ctx: _Context) -> Outcome:
    """Phi^2/2 <= 1 - lambda2 <= 2 Phi for every lazy test chain, with the
    Lanczos lambda2 within 1e-12 of a dense eigensolve."""
    for gname, kind, P in ctx.test_chains:
        phi = ctx.cached(ch, "bottleneck_ratio", P)
        lambda2, gap = ctx.cached(ch, "spectral_gap", P)
        reference = _dense_lambda2(P)
        if abs(lambda2 - reference) > 1e-12:
            return _fail("Lanczos lambda2 differs from the dense eigensolve",
                         {"graph": gname, "chain": kind, "lambda2": lambda2,
                          "dense": reference})
        if not (phi * phi / 2.0 <= gap + 1e-12 and gap <= 2.0 * phi + 1e-12):
            return _fail("Cheeger sandwich violated",
                         {"graph": gname, "chain": kind, "phi": phi, "gap": gap})
    return _ok(f"{len(ctx.test_chains)} chains sandwiched")


def check_b2_expansion_bound(ctx: _Context) -> Outcome:
    """Phi <= beta * C^2 / d_max for the lazy simple walk, with
    C = d_max/d_min."""
    lazy_simple = [(gname, P) for gname, kind, P in ctx.test_chains
                   if kind == "lazy-simple"]
    for gname, P in lazy_simple:
        g = P.graph
        phi = ctx.cached(ch, "bottleneck_ratio", P)
        beta = ctx.cached(gr, "edge_expansion", g)
        d_min, d_max, _ = gr.degree_stats(g)
        ratio = d_max / d_min
        limit = beta * ratio * ratio / d_max
        if phi > limit + 1e-12:
            return _fail("bottleneck ratio exceeds expansion bound",
                         {"graph": gname, "phi": phi, "beta": beta,
                          "limit": limit})
    return _ok(f"{len(lazy_simple)} lazy simple walks bounded")


def check_b_spectral_mixing(ctx: _Context) -> Outcome:
    """(1/(1 - lambda2) - 1) ln(1/(2 eps)) <= t_mix(eps) <= ln(1/(eps min
    pi)) / (1 - lambda2) at eps in {1/8, 1/(2n)}: the `t_mix_bracket`
    ends, the upper one before it is rounded up. The default mixing time
    (single-start on vertex-transitive chains) also equals the
    full-matrix linear scan, one scan per chain for both eps."""
    for gname, kind, P in ctx.test_chains:
        _, gap = ctx.cached(ch, "spectral_gap", P)
        eps_values = (0.125, 1.0 / (2 * P.n))
        for eps, t_linear in zip(eps_values, _linear_mixing_times(P, eps_values)):
            t = ch.mixing_time(P, eps)
            if t != t_linear:
                return _fail("mixing time differs from the linear scan",
                             {"graph": gname, "chain": kind, "eps": eps,
                              "t_mix": t, "t_linear": t_linear,
                              "vertex_transitive": P.vertex_transitive})
            lower, upper = ch._relaxation_bounds(P, eps, gap)
            if not lower <= t <= upper:
                return _fail("mixing time outside the spectral bracket",
                             {"graph": gname, "chain": kind, "eps": eps,
                              "t_mix": t, "lower": lower, "upper": upper})
    return _ok(f"{len(ctx.test_chains)} chains within the spectral bound")


# ---------------------------------------------------------------------------
# Module invariants
# ---------------------------------------------------------------------------

def check_graph_invariants(ctx: _Context) -> Outcome:
    """Connectivity, brute-force expansion agreement (n <= 10), and the
    triangle inequality on sampled triples."""
    rng = np.random.default_rng(ctx.seed)
    for gname, g in ctx.family_graphs:
        dist_rows = [ctx.cached(gr, "bfs_distances", g, s) for s in range(1, g.n + 1)]
        if any(d < 0 for d in dist_rows[0]):
            return _fail("graph not connected", {"graph": gname})
        if g.n <= 10:
            beta = ctx.cached(gr, "edge_expansion", g)
            oracle, _ = gr._min_cut_set(g)
            if abs(beta - oracle) > 1e-12:
                return _fail("edge expansion disagrees with subset oracle",
                             {"graph": gname, "fast": beta, "oracle": oracle})
        for _ in range(50):
            a, b, c = (int(v) for v in rng.integers(1, g.n + 1, size=3))
            if dist_rows[a - 1][c - 1] > dist_rows[a - 1][b - 1] + dist_rows[b - 1][c - 1]:
                return _fail("triangle inequality violated",
                             {"graph": gname, "triple": [a, b, c]})
    return _ok(f"{len(ctx.family_graphs)} generated graphs pass")


def check_chain_construction(ctx: _Context) -> Outcome:
    """Constructed chains are lazy, reversible, irreducible; stationary
    vectors match their closed forms and the generic solver."""
    for gname, kind, P in ctx.test_chains:
        flags = ch.check_properties(P)
        if not (flags.lazy and flags.irreducible and flags.reversible):
            return _fail("constructed chain missing a property",
                         {"graph": gname, "chain": kind, "flags": str(flags)})
        if np.diag(P.matrix).min() < 0.5 - 1e-12:
            return _fail("self-loop below 1/2",
                         {"graph": gname, "chain": kind})
        solved = ch._solve_stationary(P.matrix)
        if np.abs(solved - P.pi).max() > 1e-9:
            return _fail("stationary solve disagrees with closed form",
                         {"graph": gname, "chain": kind,
                          "error": float(np.abs(solved - P.pi).max())})
        if kind == "max-degree" and np.abs(P.pi - 1.0 / P.n).max() > 1e-12:
            return _fail("max-degree stationary not uniform",
                         {"graph": gname})
    return _ok(f"{len(ctx.test_chains)} constructions validated")


def check_adversary_symmetry(ctx: _Context) -> Outcome:
    """The relation is exactly symmetric, zero on the diagonal, zero for
    equal bits, and zero when either walk is bad, on every ordered pair of
    each micro family. The weights come from the library's relation path,
    _relation_block, for a block of rows against the whole family at a
    time: R from (rows, all) and its mirror from (all, rows), transposed,
    so no size-squared float array is held. The goodness is is_good_walk's
    on each walk. The condition masks are built one at a time per
    block, each ORed into one failing mask; the first failing cell in
    row-major order is reported, with the first message that holds there."""
    pairs = 0
    for family in ctx.micro_families:
        rel, size, bits = family._relation, len(family), family.bits
        good = np.array([st.is_good_walk(w, family.params.T) for w in family.walks.tolist()])
        step = max(1, adv._SUM_BLOCK_CELLS // size)
        for s in range(0, size, step):
            block = rel.take(slice(s, s + step))
            R = adv._relation_block(block, rel)
            mirror = adv._relation_block(rel, block).T
            pairs += R.size
            rows = np.arange(s, s + len(R))
            nonzero = R != 0.0
            # in the order each pair is tested: the first message that applies
            conditions = [
                ("relation not symmetric", lambda: R != mirror),
                ("relation nonzero on the diagonal",
                 lambda: (rows[:, None] == np.arange(size)) & nonzero),
                ("relation nonzero for equal bits",
                 lambda: (bits[rows, None] == bits) & nonzero),
                ("relation nonzero for a bad walk",
                 lambda: ~(good[rows, None] & good) & nonzero),
            ]
            failing = np.zeros(R.shape, dtype=bool)
            for _, mask in conditions:
                failing |= mask()
            if failing.any():
                i, k = np.unravel_index(int(np.argmax(failing)), failing.shape)
                message = next(message for message, mask in conditions if mask()[i, k])
                pair = {"x": family.walks[s + i].tolist(), "y": family.walks[k].tolist()}
                if message == "relation nonzero on the diagonal":
                    pair = {"x": pair["x"]}
                return _fail(message, pair)
    return _ok(f"{pairs} ordered pairs checked")


def check_adversary_ratio_floor(ctx: _Context) -> Outcome:
    """Random subsets of an enumerable family keep M(Z)/q(Z) above the
    theoretical floor."""
    family = ctx.micro_families[1]  # K4 at default parameters
    result = adv._ratio_check(family, ctx.caps.ratio_subsets, ctx.seed)
    if not result.passed:
        return _fail("subset ratio fell below the floor", asdict(result))
    return _ok(f"min ratio {result.min_ratio:.4f} vs floor "
                     f"{result.threshold:.4f} over {result.subsets_checked} subsets")


def check_adversary_exact_mc(ctx: _Context) -> Outcome:
    """Monte Carlo estimates agree with exact enumeration within three
    standard errors on every enumerable configuration. First, the exact
    path's head-class sums agree with each micro family's pair reference,
    the sums over every pair: each instance's mass within 1e-12 of the
    largest, and each vertex's q within 1e-12 of the largest q."""
    details = []
    for idx, (family, ref) in enumerate(zip(ctx.micro_families, ctx.micro_references)):
        P, params = family.chain, family.params
        sums = (("instance", 0, family._classes.mass, ref.mass),
                ("vertex", 1, np.array(adv.distinguishing_mass(family).per_vertex),
                 ref.per_vertex))
        for what, base, got, want in sums:
            gap = np.abs(got - want)
            if np.any(gap > 1e-12 * want.max(initial=0.0)):
                k = int(np.argmax(gap))
                return _fail("head-class sums disagree with the pair table",
                             {"n": P.n, what: k + base, "classes": float(got[k]),
                              "table": float(want[k])})
        exact = adv._exact_report(family)
        est = adv.estimate_lower_bound(P, params, samples=ctx.caps.mc_samples,
                                       seed=(ctx.seed, idx))
        if abs(est.M - exact.M) > 3.0 * est.std_error:
            return _fail("Monte Carlo M estimate disagrees with exact value",
                         {"n": P.n, "exact": exact.M, "estimate": est.M,
                          "std_error": est.std_error})
        if abs(est.q - exact.q) > 3.0 * est.q_std_error:
            return _fail("Monte Carlo q estimate disagrees with exact value",
                         {"n": P.n, "exact": exact.q, "estimate": est.q,
                          "std_error": est.q_std_error})
        details.append(f"n={P.n}: M within {abs(est.M - exact.M) / est.std_error:.2f} se")
    return _ok("; ".join(details))


def check_solver_invariants(ctx: _Context) -> Outcome:
    """All solvers land on the instance minimum, repeat deterministically
    under a fixed seed, reveal the hidden bit in decision mode, and respect
    the steepest-descent query budget."""
    sample = ctx.instances[:60]
    for inst in sample:
        g = inst.graph
        _, d_max, _ = gr.degree_stats(g)
        res = sv.steepest_descent(sv.search_oracle(inst), g, start=1)
        if res.vertex != inst.minimum:
            return _fail("steepest descent missed the minimum",
                         {"walk": list(inst.walk.vertices), "found": res.vertex})
        budget = 1 + res.moves * d_max + g.degree(res.vertex)
        if res.total_queries > budget:
            return _fail("steepest descent exceeded its query budget",
                         {"total": res.total_queries, "budget": budget})
        r1 = sv.warm_start_descent(sv.search_oracle(inst), g, seed=ctx.seed)
        r2 = sv.warm_start_descent(sv.search_oracle(inst), g, seed=ctx.seed)
        if r1 != r2 or r1.vertex != inst.minimum:
            return _fail("warm-start descent nondeterministic or wrong",
                         {"first": r1.vertex, "second": r2.vertex,
                          "expected": inst.minimum})
        res = sv.exhaustive_search(sv.search_oracle(inst), g)
        if res.vertex != inst.minimum or res.distinct_queries != g.n:
            return _fail("exhaustive search malformed",
                         {"found": res.vertex, "distinct": res.distinct_queries})
        bit, _ = sv.solve_decision(inst)
        if bit != inst.bit:
            return _fail("decision mode failed to reveal the bit",
                         {"expected": inst.bit, "found": bit})
        tagged = [inst.decision_value(v)[1] for v in range(1, g.n + 1)
                  if v != inst.minimum]
        if any(t != -1 for t in tagged):
            return _fail("tag leaked outside the minimum",
                         {"walk": list(inst.walk.vertices)})
    return _ok(f"{len(sample)} instances solved by all solvers")


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

CHECKS: dict[str, tuple[tuple[str, ...], object]] = {
    "A1_validity": (("lemmas",), check_a1_validity),
    "A2_mixing_concentration": (("lemmas",), check_a2_mixing_concentration),
    "A3_visit_sum": (("lemmas",), check_a3_visit_sum),
    "A4_milestone_escape": (("lemmas", "adversary"), check_a4_milestone_escape),
    "A5_difference_localization": (("lemmas", "adversary"), check_a5_difference_localization),
    "A6_witness_existence": (("lemmas", "adversary"), check_a6_witness_existence),
    "A7_monotone_grid": (("lemmas",), check_a7_monotone_grid),
    "A8_time_reversal": (("lemmas",), check_a8_time_reversal),
    "A9_unique_minimum": (("lemmas",), check_a9_unique_minimum),
    "B1_cheeger_sandwich": (("lemmas",), check_b1_cheeger_sandwich),
    "B2_expansion_bound": (("lemmas",), check_b2_expansion_bound),
    "B_spectral_mixing": (("lemmas",), check_b_spectral_mixing),
    "graph_invariants": ((), check_graph_invariants),
    "chain_construction": ((), check_chain_construction),
    "adversary_symmetry": (("adversary",), check_adversary_symmetry),
    "adversary_ratio_floor": (("adversary",), check_adversary_ratio_floor),
    "adversary_exact_mc": (("adversary",), check_adversary_exact_mc),
    "solver_invariants": ((), check_solver_invariants),
}

SUITES = ("lemmas", "adversary", "all")


def run_verify(suite: str = "all", checks: list[str] | None = None,
               caps: VerifyCaps | None = None, seed: int = 0) -> list[CheckResult]:
    """Run the named checks (or a whole suite) and return their results in
    registry order."""
    caps = caps or VerifyCaps()
    if checks is not None:
        unknown = [c for c in checks if c not in CHECKS]
        if unknown:
            raise InputError(f"unknown checks: {unknown}; known: {list(CHECKS)}")
        selected = [c for c in CHECKS if c in set(checks)]
    elif suite == "all":
        selected = list(CHECKS)
    elif suite in SUITES:
        selected = [name for name, (suites, _) in CHECKS.items() if suite in suites]
    else:
        raise InputError(f"unknown suite {suite!r}; known: {SUITES}")
    ctx = _Context(caps, seed)
    return [CheckResult(name, *CHECKS[name][1](ctx)) for name in selected]
