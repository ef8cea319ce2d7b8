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

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import TransitionMatrix, Walk, make_walk, walk_probability
from .errors import CapabilityError, InputError
from .staircase import (
    StaircaseInstance,
    StaircaseParams,
    is_good_walk,
    make_instance,
    shared_head_index,
)

ENUMERATION_CAP = 10 ** 7
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
    if a.params != b.params:
        raise InputError("instances come from different parameter sets")
    if a.chain is not b.chain:
        raise InputError("instances come from different chains")
    if a.bit == b.bit or a.walk.vertices == b.walk.vertices:
        return 0.0
    T = a.params.T
    if not (is_good_walk(a.walk, T) and is_good_walk(b.walk, T)):
        return 0.0
    j = shared_head_index(a.walk, b.walk, T)
    head_prob = walk_probability(a.chain, b.walk.vertices[: j * T + 1])
    px = a.walk.probability()
    py = b.walk.probability()
    return px * py / head_prob


def _difference_vertices(last_a: dict[int, int], last_b: dict[int, int],
                         end_a: int, end_b: int) -> tuple[int, ...]:
    """Vertices where the decision functions of two opposite-bit instances
    disagree: every vertex whose value differs, plus both walk ends (where
    the tags disagree)."""
    diff = {end_a, end_b}
    for v, ia in last_a.items():
        ib = last_b.get(v)
        if ib is None or ib != ia:
            diff.add(v)
    for v, ib in last_b.items():
        if v not in last_a:
            diff.add(v)
    return tuple(sorted(diff))


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def enumerate_family(P: TransitionMatrix, params: StaircaseParams,
                     cap: int = ENUMERATION_CAP) -> FunctionFamily:
    """All walks of length L from vertex 1 with positive step probabilities,
    crossed with both hidden bits. Aborts once the walk count passes the
    cap; use the Monte Carlo estimator beyond that."""
    successors = [tuple(int(v) + 1 for v in np.flatnonzero(P.matrix[u] > 0.0))
                  for u in range(P.n)]
    walks: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [(1,)]
    while stack:
        prefix = stack.pop()
        if len(prefix) == params.L + 1:
            walks.append(prefix)
            if len(walks) > cap:
                raise CapabilityError(
                    f"family exceeds enumeration cap {cap}; "
                    "use the Monte Carlo estimator instead")
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


class _ExactSystem:
    """Per-instance caches for quadratic-time exact sums."""

    def __init__(self, family: FunctionFamily):
        self.family = family
        params = family.params
        T, m = params.T, params.m
        chain = family.chain
        self.walk_verts = [inst.walk.vertices for inst in family.instances]
        self.bits = [inst.bit for inst in family.instances]
        self.good = [is_good_walk(v, T) for v in self.walk_verts]
        self.last = [inst.last_occurrence for inst in family.instances]
        self.ends = [v[-1] for v in self.walk_verts]
        self.T, self.m = T, m
        # prefix_probs[i][j] = probability of instance i's head at milestone j
        self.prefix_probs = []
        self.probs = []
        mat = chain.matrix
        for verts in self.walk_verts:
            prefix = [1.0]
            p = 1.0
            for idx, (a, b) in enumerate(zip(verts, verts[1:]), start=1):
                p *= mat[a - 1, b - 1]
                if idx % T == 0:
                    prefix.append(p)
            self.prefix_probs.append(prefix)
            self.probs.append(p)
        self.index = {(v, b): i for i, (v, b) in enumerate(zip(self.walk_verts, self.bits))}
        self._per_instance_mass: list[float] | None = None
        self._pair_records: list[tuple[int, int, float, tuple[int, ...]]] | None = None

    def pair_weight(self, i: int, k: int) -> float:
        if (self.bits[i] == self.bits[k]
                or self.walk_verts[i] == self.walk_verts[k]
                or not (self.good[i] and self.good[k])):
            return 0.0
        j = self._shared_index(i, k)
        return self.probs[i] * self.probs[k] / self.prefix_probs[k][j]

    def _shared_index(self, i: int, k: int) -> int:
        xv, yv = self.walk_verts[i], self.walk_verts[k]
        T = self.T
        j = 0
        while j < self.m and xv[j * T + 1:(j + 1) * T + 1] == yv[j * T + 1:(j + 1) * T + 1]:
            j += 1
        return j

    def per_instance_mass(self) -> list[float]:
        if self._per_instance_mass is None:
            n_inst = len(self.walk_verts)
            good_idx = [i for i in range(n_inst) if self.good[i]]
            if len(good_idx) ** 2 > EXACT_PAIR_CAP:
                raise CapabilityError(
                    f"exact mass needs {len(good_idx) ** 2} pair evaluations, "
                    f"over the cap {EXACT_PAIR_CAP}; use the Monte Carlo estimator")
            masses = [0.0] * n_inst
            for i in good_idx:
                terms = [self.pair_weight(i, k) for k in good_idx
                         if self.bits[k] != self.bits[i]]
                masses[i] = math.fsum(terms)
            self._per_instance_mass = masses
        return self._per_instance_mass

    def pair_records(self) -> list[tuple[int, int, float, tuple[int, ...]]]:
        """Ordered pairs with nonzero weight: (i, k, r, difference vertices)."""
        if self._pair_records is None:
            n_inst = len(self.walk_verts)
            good_idx = [i for i in range(n_inst) if self.good[i]]
            if len(good_idx) ** 2 > EXACT_PAIR_CAP:
                raise CapabilityError(
                    f"exact pair table needs {len(good_idx) ** 2} entries, "
                    f"over the cap {EXACT_PAIR_CAP}")
            records = []
            for i in good_idx:
                for k in good_idx:
                    if self.bits[k] == self.bits[i]:
                        continue
                    r = self.pair_weight(i, k)
                    if r == 0.0:
                        continue
                    diff = _difference_vertices(self.last[i], self.last[k],
                                                self.ends[i], self.ends[k])
                    records.append((i, k, r, diff))
            self._pair_records = records
        return self._pair_records


def _system(family: FunctionFamily) -> _ExactSystem:
    cached = family.__dict__.get("_exact_system")
    if cached is None:
        cached = _ExactSystem(family)
        family.__dict__["_exact_system"] = cached
    return cached


def _indices_in(system: _ExactSystem, subset) -> list[int]:
    instances = subset.instances if isinstance(subset, FunctionFamily) else subset
    out = []
    for inst in instances:
        key = (inst.walk.vertices, inst.bit)
        idx = system.index.get(key)
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
    system = _system(X)
    masses = system.per_instance_mass()
    picked = [masses[i] for i in _indices_in(system, Z)]
    return MassResult(total=math.fsum(picked), per_instance=tuple(picked))


@dataclass(frozen=True)
class DistinguishingMass:
    q: float
    argmax_vertex: int
    per_vertex: tuple[float, ...]  # indexed by vertex - 1


def distinguishing_mass(Z, X: FunctionFamily | None = None) -> DistinguishingMass:
    """q(Z): the largest, over vertices, total weight of pairs in Z whose
    decision functions disagree there. Ties pick the smallest vertex."""
    if X is None:
        if not isinstance(Z, FunctionFamily):
            raise InputError("pass a FunctionFamily or supply the parent family")
        X = Z
    system = _system(X)
    members = set(_indices_in(system, Z))
    n = X.chain.n
    buckets: dict[int, list[float]] = {}
    for i, k, r, diff in system.pair_records():
        if i in members and k in members:
            for v in diff:
                buckets.setdefault(v, []).append(r)
    per_vertex = [math.fsum(buckets[v]) if v in buckets else 0.0
                  for v in range(1, n + 1)]
    best = max(per_vertex)
    argmax = per_vertex.index(best) + 1
    return DistinguishingMass(q=best, argmax_vertex=argmax,
                              per_vertex=tuple(per_vertex))


def exact_lower_bound(P: TransitionMatrix, params: StaircaseParams,
                      cap: int = ENUMERATION_CAP) -> AdversaryReport:
    """Evaluate M, q, and the 0.01 * M/q bound on the full enumerated
    family. This reports one witness value of the adversary minimand (the
    whole family), not the minimum over subsets."""
    family = enumerate_family(P, params, cap=cap)
    mass = relation_mass(family, family)
    dmass = distinguishing_mass(family, family)
    if dmass.q <= 0.0:
        raise CapabilityError(
            "degenerate family: no vertex distinguishes any related pair "
            "(all walks bad or family too small)")
    ratio = mass.total / dmass.q
    good = sum(1 for inst in family.instances
               if is_good_walk(inst.walk, params.T))
    return AdversaryReport(
        M=mass.total, q=dmass.q, ratio=ratio, bound=LOWER_BOUND_CONSTANT * ratio,
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

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "threshold": self.threshold,
            "min_ratio": self.min_ratio,
            "subsets_checked": self.subsets_checked,
            "worst_subset_size": self.worst_subset_size,
        }


def ratio_floor(params: StaircaseParams) -> float:
    """(2^(-4 sigma) / (6 sigma)) * floor(sqrt(n)) / T, the uniform floor
    the theory places under M(Z)/q(Z)."""
    sigma = params.sigma
    return (2.0 ** (-4.0 * sigma) / (6.0 * sigma)) * math.isqrt(params.n) / params.T


def ratio_property_check(P: TransitionMatrix, params: StaircaseParams,
                         subsets: int, seed,
                         cap: int = ENUMERATION_CAP) -> RatioCheckResult:
    """Check M(Z)/q(Z) against the theoretical floor on random subsets Z
    of the enumerated family with q(Z) > 0."""
    family = enumerate_family(P, params, cap=cap)
    system = _system(family)
    masses = system.per_instance_mass()
    records = system.pair_records()
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
        members = set(rng.choice(size, size=k, replace=False).tolist())
        buckets: dict[int, list[float]] = {}
        for i, j, r, diff in records:
            if i in members and j in members:
                for v in diff:
                    buckets.setdefault(v, []).append(r)
        if not buckets:
            continue
        q = max(math.fsum(vals) for vals in buckets.values())
        if q <= 0.0:
            continue
        m_total = math.fsum(masses[i] for i in members)
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

def _sample_tails(P: TransitionMatrix, starts: np.ndarray, steps: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Batch-sample trajectories: row i continues from starts[i] for the
    given number of steps. Returns an array (len(starts), steps + 1).
    Each step is one inverse-CDF lookup in the chain's `sampling_table`,
    O(largest degree) per walker."""
    index, cum = P.sampling_table
    count = starts.shape[0]
    out = np.empty((count, steps + 1), dtype=np.int64)
    out[:, 0] = starts
    cur = starts - 1
    for s in range(steps):
        draws = rng.random(count)
        cur = index[cur, (cum[cur] > draws[:, None]).argmax(axis=1)]
        out[:, s + 1] = cur + 1
    return out


def _good_rows(walks: np.ndarray, T: int) -> np.ndarray:
    stones = walks[:, ::T]
    ordered = np.sort(stones, axis=1)
    return np.all(np.diff(ordered, axis=1) > 0, axis=1)


def _redraw(P: TransitionMatrix, xs: np.ndarray, j: int, T: int,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Redraw every row of xs from its j-th milestone onward. Returns the
    redraws zs and the mask of rows where z is good and differs from x in
    segment j, the event that credits x's pair with z."""
    tails = _sample_tails(P, xs[:, j * T], xs.shape[1] - 1 - j * T, rng)
    zs = np.concatenate([xs[:, :j * T], tails], axis=1)
    block = slice(j * T + 1, (j + 1) * T + 1)
    return zs, _good_rows(zs, T) & np.any(zs[:, block] != xs[:, block], axis=1)


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


def _count_differences(counts: np.ndarray, rows: np.ndarray, xs: np.ndarray,
                       zs: np.ndarray) -> None:
    """Add 1 to counts[i, v - 1] for every row i in rows and every vertex v
    where the decision functions of x_i and z_i disagree: the vertices
    whose last occurrence differs, plus both walk ends. Works in chunks of
    rows, so memory stays O(_DIFF_CHUNK_CELLS)."""
    n = counts.shape[1]
    chunk = max(1, _DIFF_CHUNK_CELLS // max(n, xs.shape[1]))
    for lo in range(0, rows.size, chunk):
        part = rows[lo:lo + chunk]
        diff = _last_occurrence(xs[part], n) != _last_occurrence(zs[part], n)
        # Two distinct ends already differ in last occurrence (one walk
        # sits there at step L, the other does not); a shared end does not.
        diff[np.arange(part.size), xs[part, -1] - 1] = True
        counts[part] += diff


def estimate_lower_bound(P: TransitionMatrix, params: StaircaseParams,
                         samples: int, seed) -> AdversaryReport:
    """Unbiased Monte Carlo estimates of M and of the per-vertex
    distinguishing masses, using the chain law as the importance
    distribution.

    Each outer draw samples a walk x; for every segment index j a second
    walk is resampled from x's j-th milestone onward, and the indicator of
    "second walk good and diverging exactly at segment j" estimates x's
    contribution to M. The same draws estimate the per-vertex masses; q is
    reported as the largest of them. Each per-vertex estimate is unbiased,
    but the largest of several noisy estimates overshoots on average, so
    q is biased upward (E[q] >= the largest true per-vertex mass).
    """
    if samples < 1:
        raise InputError("need at least one sample")
    rng = np.random.default_rng(seed)
    T, L, m = params.T, params.L, params.m

    ones = np.ones(samples, dtype=np.int64)
    xs = _sample_tails(P, ones, L, rng)
    x_good = _good_rows(xs, T)

    y_totals = np.zeros(samples)
    # counts[i, v - 1]: redraws of sample i whose pair with x_i is told
    # apart at vertex v.
    counts = np.zeros((samples, P.n), dtype=np.int32)
    for j in range(m):
        zs, ok = _redraw(P, xs, j, T, rng)
        hit = x_good & ok
        y_totals += hit.astype(float)
        _count_differences(counts, np.flatnonzero(hit), xs, zs)
    vertex_sum = counts.sum(axis=0)
    vertex_sumsq = (counts * counts).sum(axis=0)

    if not np.any(x_good):
        raise CapabilityError(
            "zero effective samples: no good walk was drawn; increase the "
            "sample count or check the parameters")

    m_hat = 2.0 * float(y_totals.mean())
    m_se = 2.0 * float(y_totals.std(ddof=1)) / math.sqrt(samples) if samples > 1 else math.inf

    if not vertex_sum.any():
        raise CapabilityError(
            "zero effective samples: no distinguishing event observed")
    best = int(np.argmax(vertex_sum))  # ties pick the smallest vertex
    mean_v = float(vertex_sum[best]) / samples
    q_hat = 2.0 * mean_v
    var = float(vertex_sumsq[best]) / samples - mean_v ** 2
    var *= samples / (samples - 1) if samples > 1 else 1.0
    q_se = 2.0 * math.sqrt(max(var, 0.0) / samples)
    ratio = m_hat / q_hat if q_hat > 0 else math.inf
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
    from .staircase import sample_good_walk

    rng = np.random.default_rng(seed)
    T, m = params.T, params.m
    x = np.array(sample_good_walk(P, params, rng).vertices, dtype=np.int64)
    xs = np.tile(x, (samples, 1))
    out = []
    for j in range(m):
        hits = _redraw(P, xs, j, T, rng)[1].astype(float)
        p = float(hits.mean())
        se = float(hits.std(ddof=1)) / math.sqrt(samples) if samples > 1 else math.inf
        out.append((p, se))
    return out


# ---------------------------------------------------------------------------
# Constructive witness
# ---------------------------------------------------------------------------

def _bool_power(support: np.ndarray, t: int) -> np.ndarray:
    # The products count paths, up to n per entry: uint8 wraps them to 0
    # at n = 256, while float64 holds them exactly (and multiplies via BLAS).
    result = np.eye(support.shape[0], dtype=bool)
    base = support.copy()
    while t:
        if t & 1:
            result = (result.astype(float) @ base.astype(float)) > 0
        base = (base.astype(float) @ base.astype(float)) > 0
        t >>= 1
    return result


def _support_path(P: TransitionMatrix, u: int, w: int) -> list[int]:
    """Shortest directed path u -> w through positive transitions."""
    if u == w:
        return [u]
    prev = {u: None}
    frontier = [u]
    mat = P.matrix
    while frontier:
        nxt = []
        for a in frontier:
            for b in (np.flatnonzero(mat[a - 1] > 0.0) + 1):
                b = int(b)
                if b not in prev:
                    prev[b] = a
                    if b == w:
                        path = [w]
                        while path[-1] != u:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(b)
        frontier = nxt
    raise CapabilityError(f"no positive-probability path from {u} to {w}")


def _segment(P: TransitionMatrix, u: int, w: int, T: int) -> list[int]:
    """A positive-probability path from u to w in exactly T steps, padding
    with self-loops at u (lazy chains keep those positive)."""
    path = _support_path(P, u, w)
    slack = T - (len(path) - 1)
    if slack < 0:
        raise CapabilityError(f"{u} -> {w} needs more than T={T} steps")
    return [u] * slack + path


def witness_pair(P: TransitionMatrix, params: StaircaseParams,
                 expansion_cap: int = WITNESS_EXPANSION_CAP) -> FunctionFamily:
    """Two good walks that share their head through the next-to-last
    milestone, end at distinct vertices, and carry opposite bits: a
    two-element family with positive distinguishing mass."""
    if not P.flags.lazy:
        raise CapabilityError("witness construction requires a lazy chain")
    T, m = params.T, params.m
    reach = _bool_power(P.matrix > 0.0, T)
    reach_rows = [tuple((np.flatnonzero(reach[v]) + 1).tolist()) for v in range(P.n)]

    expansions = 0

    def extend(stones: list[int]) -> list[int] | None:
        nonlocal expansions
        if len(stones) == m + 1:
            # need an alternate final milestone for the second walk
            for cand in reach_rows[stones[-2] - 1]:
                if cand not in stones:
                    return stones
            return None
        for cand in reach_rows[stones[-1] - 1]:
            if cand in stones:
                continue
            expansions += 1
            if expansions > expansion_cap:
                raise CapabilityError(
                    f"witness search exceeded {expansion_cap} expansions")
            result = extend(stones + [cand])
            if result is not None:
                return result
        return None

    stones = extend([1])
    if stones is None:
        raise CapabilityError(
            "witness construction failed: not enough vertices reachable "
            f"within T={T} steps to place {m + 1} distinct milestones")
    alt_end = next(c for c in reach_rows[stones[-2] - 1] if c not in stones)

    x_verts: list[int] = [1]
    for a, b in zip(stones, stones[1:]):
        x_verts.extend(_segment(P, a, b, T)[1:])
    y_verts = x_verts[: (m - 1) * T + 1] + _segment(P, stones[-2], alt_end, T)[1:]

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
                 d_max: float | None = None,
                 degree_ratio: float | None = None) -> dict[str, float]:
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
    if degree_ratio is not None and degree_ratio < 1:
        raise InputError(f"degree ratio must be at least 1, got {degree_ratio}")
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
