"""Relational-adversary quantities for staircase function families.

The similarity weight between two staircase functions is zero unless
their hidden bits differ, their walks differ, and both walks are good;
otherwise it is the product of the two walk probabilities divided by the
probability of their longest shared head. Summing the weight over a
family gives the mass M; the largest per-vertex mass of distinguishable
pairs gives q; and 0.01 * M/q lower-bounds the randomized query
complexity of the decision problem.

Exact evaluation enumerates the full family and is quadratic in its
size, so it only runs on micro-systems; the Monte Carlo estimator
samples the chain law and scales to anything the sampler can reach.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chains import TransitionMatrix, Walk, _path_probability, _sample_tails, make_walk
from .errors import DEFAULT_CAPS, CapabilityError, InputError
from .graphs import _bfs
from .staircase import (
    StaircaseInstance,
    StaircaseParams,
    is_good_walk,
    make_instance,
    sample_good_walk,
    shared_head_index,
)

EXACT_PAIR_CAP = 4 * 10 ** 7
WITNESS_EXPANSION_CAP = 10 ** 5
LOWER_BOUND_CONSTANT = 0.01


@dataclass(frozen=True)
class FunctionFamily:
    """A collection of staircase instances over one chain and one parameter
    set. ``exhaustive`` marks families produced by full enumeration."""

    instances: tuple[StaircaseInstance, ...]
    params: StaircaseParams
    chain: TransitionMatrix
    exhaustive: bool = False

    def __post_init__(self):
        seen = set()
        for inst in self.instances:
            if inst.params != self.params:
                raise InputError("family instances must share parameters")
            if inst.chain is not self.chain:
                raise InputError("family instances must share the chain")
            key = (inst.walk.vertices, inst.bit)
            if key in seen:
                raise InputError(f"duplicate instance {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class AdversaryReport:
    """M, q, their ratio, and the 0.01 * M/q lower bound, with provenance."""

    M: float
    q: float
    ratio: float
    bound: float
    method: str
    argmax_vertex: int
    std_error: float | None = None
    q_std_error: float | None = None
    context: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        doc = {
            "method": self.method,
            "M": self.M,
            "q": self.q,
            "ratio": self.ratio,
            "bound": self.bound,
            "argmax_vertex": self.argmax_vertex,
            "params": dict(self.context),
        }
        if self.std_error is not None:
            doc["std_error"] = self.std_error
            doc["q_std_error"] = self.q_std_error
        return doc


# ---------------------------------------------------------------------------
# The relation
# ---------------------------------------------------------------------------

def relation_weight(a: StaircaseInstance, b: StaircaseInstance) -> float:
    """Similarity weight r between two instances; exactly symmetric because
    the shared head is the same sequence in both walks."""
    if a.params is not b.params and a.params != b.params:
        raise InputError("instances come from different parameter sets")
    if a.chain is not b.chain:
        raise InputError("instances come from different chains")
    if a.bit == b.bit or a.walk.vertices == b.walk.vertices:
        return 0.0
    T = a.params.T
    if not (is_good_walk(a.walk, T) and is_good_walk(b.walk, T)):
        return 0.0
    j = shared_head_index(a.walk, b.walk, T)
    head_prob = _path_probability(a.chain, b.walk.vertices[: j * T + 1])
    px = a.walk.probability()
    py = b.walk.probability()
    return px * py / head_prob


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def enumerate_family(P: TransitionMatrix, params: StaircaseParams,
                     cap: int = DEFAULT_CAPS["enumeration"]) -> FunctionFamily:
    """All walks of length L from vertex 1 with positive step probabilities,
    crossed with both hidden bits. Aborts once the walk count passes the
    cap; use the Monte Carlo estimator beyond that."""
    successors = [tuple(dict.fromkeys(row)) for row in (P.sampling_table[0] + 1).tolist()]
    # Walks ending at each vertex, counted level by level before any walk
    # is built. Every row has a successor, so the total never falls and
    # the count can stop at the first level that passes the cap.
    ends = {1: 1}
    for _ in range(params.L):
        if sum(ends.values()) > cap:
            break
        level: dict[int, int] = {}
        for u, count in ends.items():
            for v in successors[u - 1]:
                level[v] = level.get(v, 0) + count
        ends = level
    if sum(ends.values()) > cap:
        raise CapabilityError(
            f"family exceeds enumeration cap {cap}; "
            "use the Monte Carlo estimator instead")
    walks: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [(1,)]
    while stack:
        prefix = stack.pop()
        if len(prefix) == params.L + 1:
            walks.append(prefix)
            continue
        for nxt in reversed(successors[prefix[-1] - 1]):
            stack.append(prefix + (nxt,))
    walks.sort()
    instances = []
    for verts in walks:
        w = Walk(vertices=verts, chain=P)
        for bit in (0, 1):
            instances.append(make_instance(w, bit, params))
    return FunctionFamily(instances=tuple(instances), params=params, chain=P,
                          exhaustive=True)


@dataclass(frozen=True)
class _PairTable:
    """The pairs of good opposite-bit instances of a family as arrays:
    rows are the good bit-0 instances, columns the good bit-1 ones. The
    weight and the difference set are symmetric in the pair, so this half
    stands for both orders."""

    walks: np.ndarray  # (family size, L + 1) walk vertices
    rows: np.ndarray  # family positions of the good bit-0 instances
    cols: np.ndarray  # family positions of the good bit-1 instances
    J: np.ndarray  # (rows, cols) shared head index
    r: np.ndarray  # (rows, cols) relation weight
    diff: np.ndarray  # (n, rows, cols): the decision functions differ at v
    mass: tuple[float, ...]  # relation mass of each instance, family order


def _pair_table(family: FunctionFamily) -> _PairTable:
    """Build the pair table of a family. Refuses before allocating any
    pair array when the good instances squared pass EXACT_PAIR_CAP."""
    T, m, L = family.params.T, family.params.m, family.params.L
    size = len(family)
    walks = np.array([inst.walk.vertices for inst in family.instances],
                     dtype=np.int64).reshape(size, L + 1)
    bits = np.array([inst.bit for inst in family.instances])
    good = _good_rows(walks, T)
    pairs = int(good.sum()) ** 2
    if pairs > EXACT_PAIR_CAP:
        raise CapabilityError(
            f"exact pair table needs {pairs} pair evaluations, over the cap "
            f"{EXACT_PAIR_CAP}; use the Monte Carlo estimator")
    rows = np.flatnonzero(good & (bits == 0))
    cols = np.flatnonzero(good & (bits == 1))
    # heads[i, j]: probability of walk i through milestone j, multiplied
    # step by step from the start like walk_probability.
    steps = family.chain.matrix[walks[:, :-1] - 1, walks[:, 1:] - 1]
    heads = np.concatenate(
        [np.ones((size, 1)), np.cumprod(steps, axis=1)[:, T - 1::T]], axis=1)
    # Heads through milestone j are equal iff their ids are, and equal
    # heads through j imply equal heads before it.
    J = np.zeros((rows.size, cols.size), dtype=np.int64)
    for j in range(1, m + 1):
        ids = np.unique(walks[:, :j * T + 1], axis=0, return_inverse=True)[1].reshape(-1)
        J += ids[rows, None] == ids[cols]
    probs = heads[:, -1]
    r = probs[rows, None] * probs[cols]
    r /= heads[cols, J]
    r[J == m] = 0.0  # the same walk under both bits
    last = _last_occurrence(walks, family.chain.n)
    diff = last[rows].T[:, :, None] != last[cols].T[:, None, :]
    # A shared end is told apart by its tag; distinct ends already differ.
    diff[walks[rows, -1] - 1, np.arange(rows.size)] = True
    mass = [0.0] * size
    for i, weights in zip(rows.tolist(), r):
        mass[i] = math.fsum(weights.tolist())
    for k, weights in zip(cols.tolist(), r.T):
        mass[k] = math.fsum(weights.tolist())
    return _PairTable(walks=walks, rows=rows, cols=cols, J=J, r=r, diff=diff,
                      mass=tuple(mass))


def _indices_in(family: FunctionFamily, subset) -> list[int]:
    index = {(inst.walk.vertices, inst.bit): i
             for i, inst in enumerate(family.instances)}
    instances = subset.instances if isinstance(subset, FunctionFamily) else subset
    out = []
    for inst in instances:
        idx = index.get((inst.walk.vertices, inst.bit))
        if idx is None:
            raise InputError("subset instance is not part of the family")
        out.append(idx)
    return out


@dataclass(frozen=True)
class MassResult:
    total: float
    per_instance: tuple[float, ...]


def relation_mass(Z, X: FunctionFamily) -> MassResult:
    """M(Z): the total relation weight from each member of Z to the whole
    family, plus the per-instance contributions."""
    if not X.exhaustive:
        raise InputError("the reference family must be exhaustive")
    mass = _pair_table(X).mass
    picked = [mass[i] for i in _indices_in(X, Z)]
    return MassResult(total=math.fsum(picked), per_instance=tuple(picked))


# Pair cells whose weights are turned into Python floats at once: about
# 0.5 MB of floats, small next to the pair table itself.
_SUM_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class DistinguishingMass:
    q: float
    argmax_vertex: int
    per_vertex: tuple[float, ...]  # indexed by vertex - 1


def _distinguishing(table: _PairTable, inside: np.ndarray) -> DistinguishingMass:
    """Per-vertex weight of the ordered pairs with both instances inside
    (a mask over the family) that are told apart at the vertex. fsum is
    exactly rounded, so doubling the half-table sum counts both orders
    bit for bit."""
    # Pairs with both instances inside and a nonzero weight; summed block
    # by block, so that no pair-long list of Python floats is built.
    keep = ((table.r != 0.0) & inside[table.rows, None] & inside[table.cols]).ravel()
    weights = table.r.ravel()
    blocks = [slice(s, s + _SUM_BLOCK_CELLS)
              for s in range(0, weights.size, _SUM_BLOCK_CELLS)]
    per_vertex = tuple(
        2.0 * math.fsum(itertools.chain.from_iterable(
            weights[b][told[b] & keep[b]].tolist() for b in blocks))
        for told in table.diff.reshape(len(table.diff), -1))
    best = max(per_vertex)
    return DistinguishingMass(q=best, argmax_vertex=per_vertex.index(best) + 1,
                              per_vertex=per_vertex)


def distinguishing_mass(Z, X: FunctionFamily | None = None) -> DistinguishingMass:
    """q(Z): the largest, over vertices, total weight of pairs in Z whose
    decision functions disagree there. Ties pick the smallest vertex."""
    if X is None:
        if not isinstance(Z, FunctionFamily):
            raise InputError("pass a FunctionFamily or supply the parent family")
        X = Z
    inside = np.zeros(len(X), dtype=bool)
    inside[_indices_in(X, Z)] = True
    return _distinguishing(_pair_table(X), inside)


def exact_lower_bound(P: TransitionMatrix, params: StaircaseParams,
                      cap: int = DEFAULT_CAPS["enumeration"]) -> AdversaryReport:
    """Evaluate M, q, and the 0.01 * M/q bound on the full enumerated
    family. This reports one witness value of the adversary minimand (the
    whole family), not the minimum over subsets."""
    family = enumerate_family(P, params, cap=cap)
    table = _pair_table(family)
    M = math.fsum(table.mass)
    dmass = _distinguishing(table, np.ones(len(family), dtype=bool))
    if dmass.q <= 0.0:
        raise CapabilityError(
            "degenerate family: no vertex distinguishes any related pair "
            "(all walks bad or family too small)")
    ratio = M / dmass.q
    good = table.rows.size + table.cols.size
    return AdversaryReport(
        M=M, q=dmass.q, ratio=ratio, bound=LOWER_BOUND_CONSTANT * ratio,
        method="exact", argmax_vertex=dmass.argmax_vertex,
        context={"n": P.n, "T": params.T, "L": params.L, "m": params.m,
                 "sigma": params.sigma, "family_size": len(family),
                 "good_instances": good,
                 "scope": "witness (whole family); not minimized over subsets"})


# ---------------------------------------------------------------------------
# Ratio floor over random subsets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioCheckResult:
    passed: bool
    threshold: float
    min_ratio: float
    subsets_checked: int
    worst_subset_size: int


def _check_count(name: str, value) -> int:
    """value as an int if it is a positive int or numpy integer; a bool is
    refused although Python counts it as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def ratio_floor(params: StaircaseParams) -> float:
    """(2^(-4 sigma) / (6 sigma)) * floor(sqrt(n)) / T, the uniform floor
    the theory places under M(Z)/q(Z)."""
    sigma = params.sigma
    return (2.0 ** (-4.0 * sigma) / (6.0 * sigma)) * math.isqrt(params.n) / params.T


def ratio_property_check(P: TransitionMatrix, params: StaircaseParams,
                         subsets: int, seed,
                         cap: int = DEFAULT_CAPS["enumeration"]) -> RatioCheckResult:
    """Check M(Z)/q(Z) against the theoretical floor on random subsets Z
    of the enumerated family with q(Z) > 0."""
    subsets = _check_count("subsets", subsets)
    family = enumerate_family(P, params, cap=cap)
    table = _pair_table(family)
    threshold = ratio_floor(params)
    rng = np.random.default_rng(seed)
    size = len(family)
    checked = 0
    min_ratio = math.inf
    worst_size = 0
    attempts = 0
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
        q = _distinguishing(table, inside).q
        if q <= 0.0:
            continue
        m_total = math.fsum(table.mass[i] for i in members.tolist())
        ratio = m_total / q
        checked += 1
        if ratio < min_ratio:
            min_ratio = ratio
            worst_size = k
    return RatioCheckResult(passed=min_ratio >= threshold, threshold=threshold,
                            min_ratio=min_ratio, subsets_checked=checked,
                            worst_subset_size=worst_size)


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------

def _good_rows(walks: np.ndarray, T: int) -> np.ndarray:
    stones = walks[:, ::T]
    ordered = np.sort(stones, axis=1)
    return np.all(np.diff(ordered, axis=1) > 0, axis=1)


def _redraw(P: TransitionMatrix, xs: np.ndarray, J: np.ndarray, T: int,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Redraw row i of xs from its J[i]-th milestone onward. Returns the
    redraws zs and the mask of rows where z is good and differs from x in
    segment J[i], the event that credits x's pair with z. One batch of
    L - min(J)*T steps starts at the milestones and row i keeps the first
    L - J[i]*T as its tail: a prefix of a longer walk has the law of the
    shorter one. A constant J draws exactly a plain redraw's steps."""
    L, lo = xs.shape[1] - 1, int(J.min())
    zs = np.empty_like(xs)
    zs[:, :lo * T] = xs[:, :lo * T]
    zs[:, lo * T] = xs[np.arange(len(xs)), J * T]
    _sample_tails(P, zs, lo * T, rng)
    # Until the shift below, row i's segment J[i] sits in segment lo's columns.
    block = slice(lo * T + 1, (lo + 1) * T + 1)
    diverged = np.any(zs[:, block] != xs[:, block], axis=1)
    for j in range(lo + 1, int(J.max()) + 1):
        rows = np.flatnonzero(J == j)
        diverged[rows] = np.any(
            zs[rows, block] != xs[rows, j * T + 1:(j + 1) * T + 1], axis=1)
        zs[rows, j * T:] = zs[rows, lo * T:L + 1 - (j - lo) * T]
        zs[rows, lo * T:j * T] = xs[rows, lo * T:j * T]
    return zs, _good_rows(zs, T) & diverged


def _last_occurrence(walks: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) array of the last position of vertex v + 1 in each row,
    -1 where absent. maximum.at is order-independent under repeated
    indices, which a fancy-index assignment is not."""
    count, width = walks.shape
    last = np.full(count * n, -1, dtype=np.int64)
    keys = walks - 1 + (np.arange(count) * n)[:, None]
    np.maximum.at(last, keys.ravel(), np.tile(np.arange(width), count))
    return last.reshape(count, n)


# Rows of last-occurrence arrays built at once are capped so that a chunk
# holds about this many cells, whatever the sample count.
_DIFF_CHUNK_CELLS = 1 << 18


def _difference_counts(rows: np.ndarray, xs: np.ndarray, zs: np.ndarray,
                       n: int) -> np.ndarray:
    """counts[v - 1]: how many rows i in rows have decision functions of
    x_i and z_i that disagree at vertex v, that is where v's last
    occurrence differs or v ends either walk. Works in chunks of rows, so
    memory stays O(_DIFF_CHUNK_CELLS)."""
    counts = np.zeros(n, dtype=np.int64)
    chunk = max(1, _DIFF_CHUNK_CELLS // max(n, xs.shape[1]))
    for lo in range(0, rows.size, chunk):
        part = rows[lo:lo + chunk]
        diff = _last_occurrence(xs[part], n) != _last_occurrence(zs[part], n)
        # Two distinct ends already differ in last occurrence (one walk
        # sits there at step L, the other does not); a shared end does not.
        diff[np.arange(part.size), xs[part, -1] - 1] = True
        counts += diff.sum(axis=0)
    return counts


def _credited_mean(count: int, samples: int, credit: float) -> tuple[float, float]:
    """Mean and standard error of samples that each add credit or 0, with
    count of them adding credit. The sample variance of such values is
    credit^2 h (1 - h) s / (s - 1), h the fraction that add credit; one
    sample says nothing about spread, so its standard error is infinite."""
    se = (credit * math.sqrt(count * (samples - count) / (samples - 1)) / samples
          if samples > 1 else math.inf)
    return credit * count / samples, se


def estimate_lower_bound(P: TransitionMatrix, params: StaircaseParams,
                         samples: int, seed) -> AdversaryReport:
    """Unbiased Monte Carlo estimates of M and of the per-vertex
    distinguishing masses, using the chain law as the importance
    distribution.

    Each sample draws a walk x from vertex 1 and a milestone index J
    uniform on 0..m-1, then a walk z that shares x's head through
    milestone J and redraws the rest (``_redraw``). x's contribution to
    M is the sum over all m segments of the probability that z is good
    and diverges from x exactly there, with x good; m times that event's
    indicator at the one segment J estimates it without bias. The same
    draws, credited m at each vertex where the two decision functions
    differ, estimate the per-vertex masses; q is reported as the largest
    of them. Each per-vertex estimate is unbiased, but the largest of
    several noisy estimates overshoots on average, so q is biased upward
    (E[q] >= the largest true per-vertex mass). A sample costs at most
    2L walker-steps, whatever m is.
    """
    samples = _check_count("samples", samples)
    rng = np.random.default_rng(seed)
    T, L, m = params.T, params.L, params.m
    if m < 1:
        raise CapabilityError(
            f"no milestone to redraw from: L={L} holds no segment of T={T}")

    xs = np.ones((samples, L + 1), dtype=np.int32)
    _sample_tails(P, xs, 0, rng)
    x_good = _good_rows(xs, T)
    if not np.any(x_good):
        raise CapabilityError(
            "zero effective samples: no good walk was drawn; increase the "
            "sample count or check the parameters")

    zs, hit = _redraw(P, xs, rng.integers(0, m, samples), T, rng)
    hit &= x_good
    m_hat, m_se = _credited_mean(int(hit.sum()), samples, 2.0 * m)

    # vertex_hits[v - 1]: hits whose x and z are told apart at vertex v
    vertex_hits = _difference_counts(np.flatnonzero(hit), xs, zs, P.n)
    if not vertex_hits.any():
        raise CapabilityError(
            "zero effective samples: no distinguishing event observed")
    best = int(np.argmax(vertex_hits))  # ties pick the smallest vertex
    q_hat, q_se = _credited_mean(int(vertex_hits[best]), samples, 2.0 * m)
    ratio = m_hat / q_hat
    return AdversaryReport(
        M=m_hat, q=q_hat, ratio=ratio, bound=LOWER_BOUND_CONSTANT * ratio,
        method="monte_carlo", argmax_vertex=best + 1,
        std_error=m_se, q_std_error=q_se,
        context={"n": P.n, "T": T, "L": L, "m": m, "sigma": params.sigma,
                 "samples": samples, "good_fraction": float(x_good.mean()),
                 "q_bias": "upward",
                 "scope": "witness (whole family); not minimized over subsets"})


def milestone_escape_estimates(P: TransitionMatrix, params: StaircaseParams,
                               samples: int, seed) -> list[tuple[float, float]]:
    """For a fixed sampled good walk x and each segment index j, the Monte
    Carlo probability (with standard error) that a redraw sharing x's head
    through milestone j stays good and diverges exactly at segment j."""
    samples = _check_count("samples", samples)
    rng = np.random.default_rng(seed)
    T, m = params.T, params.m
    x = np.array(sample_good_walk(P, params, rng).vertices, dtype=np.int64)
    xs = np.tile(x, (samples, 1))
    out = []
    for j in range(m):
        hits = _redraw(P, xs, np.full(samples, j), T, rng)[1].astype(float)
        p = float(hits.mean())
        se = float(hits.std(ddof=1)) / math.sqrt(samples) if samples > 1 else math.inf
        out.append((p, se))
    return out


# ---------------------------------------------------------------------------
# Constructive witness
# ---------------------------------------------------------------------------

def witness_pair(P: TransitionMatrix, params: StaircaseParams) -> FunctionFamily:
    """Two good walks that share their head through the next-to-last
    milestone, end at distinct vertices, and carry opposite bits: a
    two-element family with positive distinguishing mass."""
    if not P.flags.lazy:
        raise CapabilityError("witness construction requires a lazy chain")
    T, m = params.T, params.m
    index = P.sampling_table[0]
    indptr = index.shape[1] * np.arange(P.n + 1)

    @functools.cache
    def search(u: int) -> tuple[list[int], np.ndarray]:
        # on a lazy chain, reachable in exactly T steps = within T hops
        dist, parent = _bfs(indptr, index.ravel(), u - 1, depth=T)
        return (np.flatnonzero(dist >= 0) + 1).tolist(), parent

    def segment(u: int, w: int) -> list[int]:
        # a shortest path u -> w, padded to T steps with self-loops at u
        parent = search(u)[1]
        path = [w]
        while path[-1] != u:
            path.append(int(parent[path[-1] - 1]) + 1)
        return [u] * (T + 1 - len(path)) + path[::-1]

    expansions = 0

    def extend(stones: list[int]) -> list[int] | None:
        nonlocal expansions
        if len(stones) == m + 1:
            # need an alternate final milestone for the second walk
            for cand in search(stones[-2])[0]:
                if cand not in stones:
                    return stones
            return None
        for cand in search(stones[-1])[0]:
            if cand in stones:
                continue
            expansions += 1
            if expansions > WITNESS_EXPANSION_CAP:
                raise CapabilityError(
                    f"witness search exceeded {WITNESS_EXPANSION_CAP} expansions")
            result = extend(stones + [cand])
            if result is not None:
                return result
        return None

    stones = extend([1])
    if stones is None:
        raise CapabilityError(
            "witness construction failed: not enough vertices reachable "
            f"within T={T} steps to place {m + 1} distinct milestones")
    alt_end = next(c for c in search(stones[-2])[0] if c not in stones)

    x_verts: list[int] = [1]
    for a, b in zip(stones, stones[1:]):
        x_verts.extend(segment(a, b)[1:])
    y_verts = x_verts[: (m - 1) * T + 1] + segment(stones[-2], alt_end)[1:]

    x_walk = make_walk(P, x_verts)
    y_walk = make_walk(P, y_verts)
    if not (is_good_walk(x_walk, T) and is_good_walk(y_walk, T)):
        raise AssertionError("witness walks must be good by construction")
    pair = FunctionFamily(
        instances=(make_instance(x_walk, 0, params), make_instance(y_walk, 1, params)),
        params=params, chain=P)
    return pair


# ---------------------------------------------------------------------------
# Closed-form bound shapes
# ---------------------------------------------------------------------------

def bound_values(n: int, t_mix: float, sigma: float,
                 lambda2: float | None = None, beta: float | None = None,
                 d_max: float | None = None) -> dict[str, float]:
    """The bracketed expressions of the lower-bound statements, without
    their unknown Omega constants. Natural logarithms; the values are
    asymptotic shapes, not absolute query counts.

    Keys: "mixing" (sqrt(n) / (t_mix e^{3 sigma})), "spectral"
    ((1-lambda2) sqrt(n) / (ln n * e^{3 sigma})), "spectral_bounded_ratio"
    (drops the sigma factor), "spectral_log_squared" (the older log^2
    shape), and "expansion" (beta sqrt(n) / (d_max ln^2 n)).
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    if t_mix <= 0:
        raise InputError(f"mixing time must be positive, got {t_mix}")
    if sigma <= 0:
        raise InputError(f"sigma must be positive, got {sigma}")
    if lambda2 is not None and not -1.0 <= lambda2 < 1.0:
        raise InputError(f"lambda2 must lie in [-1, 1), got {lambda2}")
    if beta is not None and beta <= 0:
        raise InputError(f"edge expansion must be positive, got {beta}")
    if d_max is not None and d_max < 1:
        raise InputError(f"d_max must be at least 1, got {d_max}")
    root = math.sqrt(n)
    log_n = math.log(n)
    blowup = math.exp(3.0 * sigma)
    values = {"mixing": root / (t_mix * blowup)}
    if lambda2 is not None:
        gap = 1.0 - lambda2
        values["spectral"] = gap * root / (log_n * blowup)
        values["spectral_bounded_ratio"] = gap * root / log_n
        values["spectral_log_squared"] = gap * root / (log_n ** 2)
    if beta is not None and d_max is not None:
        values["expansion"] = beta * root / (d_max * log_n ** 2)
    return values
