"""Hidden-walk ("staircase") instances for black-box local search.

An instance is a walk of length L from vertex 1 plus a hidden bit. Its
value function decreases along the walk (by last occurrence) and equals
the BFS distance to vertex 1 off the walk, so the walk's end is the
unique local minimum. The decision variant tags every vertex with -1
except the end of the walk, which carries the hidden bit.

Walks are cut into segments of T steps; every T-th vertex is a milestone
and a walk is "good" when its milestones are all distinct. T defaults to
the chain's mixing time at eps = sigma/(2n) and the number of segments
defaults to floor(sqrt(n)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chains import (
    TransitionMatrix,
    Walk,
    chain_from_spec,
    make_walk,
    mixing_time,
    sample_walk,
    stationary_ratio,
)
from .errors import (
    DEFAULT_CAPS,
    CapabilityError,
    InputError,
    VacuousRegimeWarning,
    json_integer,
    json_string,
    read_json,
)
from .graphs import Graph, _check_vertex, bfs_distances, graph_from_spec


@dataclass(frozen=True)
class StaircaseParams:
    """Segment length T, walk length L = m*T, and chain context."""

    T: int
    L: int
    m: int
    n: int
    sigma: float
    is_default: bool = True

    def __post_init__(self):
        if self.T < 1 or self.m < 0:
            raise InputError(f"need T >= 1 and m >= 0, got T={self.T}, m={self.m}")
        if self.L != self.m * self.T:
            raise InputError(f"L={self.L} is not m*T={self.m * self.T}")


def default_params(P: TransitionMatrix,
                   mixing_cap: int = DEFAULT_CAPS["mixing_steps"]) -> StaircaseParams:
    """T = mixing time at eps = sigma/(2n), L = floor(sqrt(n)) * T.

    Warns when n < 16 sigma^2: the construction still works there but the
    lower-bound guarantee is vacuous.
    """
    flags = P.flags
    if not (flags.lazy and flags.irreducible and flags.reversible):
        raise CapabilityError(
            f"default parameters need a lazy irreducible reversible chain, got {flags}")
    sigma = stationary_ratio(P)
    n = P.n
    eps = default_eps(n, sigma)
    _warn_if_vacuous(n, sigma)
    T = max(mixing_time(P, eps, cap=mixing_cap), 1)
    m = math.isqrt(n)
    return StaircaseParams(T=T, L=m * T, m=m, n=n, sigma=sigma, is_default=True)


def default_eps(n: int, sigma: float) -> float:
    """eps = sigma/(2n), the accuracy at which the default T is the mixing
    time; a chain with eps >= 1/2 is refused with CapabilityError."""
    eps = sigma / (2 * n)
    if eps >= 0.5:
        raise CapabilityError(
            f"eps = sigma/(2n) = {eps:.4g} >= 1/2; chain too heterogeneous for n={n}")
    return eps


def custom_params(P: TransitionMatrix, T: int, L: int) -> StaircaseParams:
    """Explicit T and L (T must divide L); flagged non-default."""
    if T < 1:
        raise InputError(f"T must be >= 1, got {T}")
    if L < 0 or L % T != 0:
        raise InputError(f"L={L} must be a nonnegative multiple of T={T}")
    sigma = stationary_ratio(P)
    _warn_if_vacuous(P.n, sigma)
    return StaircaseParams(T=T, L=L, m=L // T, n=P.n, sigma=sigma, is_default=False)


def _warn_if_vacuous(n: int, sigma: float) -> None:
    if n < 16 * sigma * sigma:
        warnings.warn(
            f"n={n} < 16*sigma^2={16 * sigma * sigma:.3g}: the lower-bound "
            "guarantee is vacuous at this size (construction still valid)",
            VacuousRegimeWarning, stacklevel=3)


# ---------------------------------------------------------------------------
# Milestones, heads and tails
# ---------------------------------------------------------------------------

def _vertices(w) -> tuple[int, ...]:
    return w.vertices if isinstance(w, Walk) else tuple(w)


def _segments(verts: tuple[int, ...], T: int) -> int:
    steps = len(verts) - 1
    if T < 1:
        raise InputError(f"T must be >= 1, got {T}")
    if steps % T != 0:
        raise InputError(f"segment length {T} does not divide walk length {steps}")
    return steps // T


def milestones(w, T: int) -> tuple[int, ...]:
    """Every T-th vertex, including the start and the end."""
    verts = _vertices(w)
    _segments(verts, T)
    return verts[::T]


def is_good_walk(w, T: int) -> bool:
    """True when all milestones are distinct."""
    stones = milestones(w, T)
    return len(set(stones)) == len(stones)


def head(w, j: int, T: int) -> tuple[int, ...]:
    """Prefix through the j-th milestone: vertices 0..j*T."""
    verts = _vertices(w)
    m = _segments(verts, T)
    if not 0 <= j <= m:
        raise InputError(f"head index {j} out of range 0..{m}")
    return verts[: j * T + 1]


def tail(w, j: int, T: int) -> tuple[int, ...]:
    """Vertices strictly after the j-th milestone: j*T+1 .. L."""
    verts = _vertices(w)
    m = _segments(verts, T)
    if not 0 <= j <= m:
        raise InputError(f"tail index {j} out of range 0..{m}")
    return verts[j * T + 1:]


def tail_segment(w, j1: int, j2: int, T: int) -> tuple[int, ...]:
    """Vertices j1*T+1 .. j2*T (between two milestones)."""
    verts = _vertices(w)
    m = _segments(verts, T)
    if not 0 <= j1 <= j2 <= m:
        raise InputError(f"need 0 <= j1 <= j2 <= {m}, got j1={j1}, j2={j2}")
    return verts[j1 * T + 1: j2 * T + 1]


def shared_head_index(x, y, T: int) -> int:
    """Largest j with equal heads. Both walks must have the same length and
    the same start, so the result is always >= 0."""
    xv, yv = _vertices(x), _vertices(y)
    if len(xv) != len(yv):
        raise InputError("walks must have the same length")
    m = _segments(xv, T)
    if xv[0] != yv[0]:
        raise InputError("walks must share their starting vertex")
    j = 0
    while j < m and xv[j * T + 1:(j + 1) * T + 1] == yv[j * T + 1:(j + 1) * T + 1]:
        j += 1
    return j


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaircaseInstance:
    """A hidden walk with a hidden bit, evaluable as a query oracle.

    The value table is built on the first query: the graph's stored
    distances from vertex 1, overwritten along the walk.
    """

    walk: Walk
    bit: int
    params: StaircaseParams
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise InputError(f"hidden bit must be 0 or 1, got {self.bit}")
        if self.walk.start != 1:
            raise InputError("instance walks must start at vertex 1")
        if self.walk.length != self.params.L:
            raise InputError(
                f"walk has {self.walk.length} steps, parameters require {self.params.L}")

    @property
    def chain(self) -> TransitionMatrix:
        return self.walk.chain

    @property
    def graph(self) -> Graph:
        return self.walk.chain.graph

    @property
    def minimum(self) -> int:
        """The walk's final vertex, the unique local minimum."""
        return self.walk.end

    @cached_property
    def values(self) -> tuple[int, ...]:
        """Value of vertex v at index v-1. Walk positions are written in
        order, so each vertex keeps minus its last occurrence."""
        vals = self.graph.start_distances.tolist()
        for i, v in enumerate(self.walk.vertices):
            vals[v - 1] = -i
        return tuple(vals)

    def value(self, v: int) -> int:
        """Search-problem value: minus the last occurrence index on the
        walk, BFS distance to vertex 1 off it."""
        _check_vertex(self.graph, v)
        return self.values[v - 1]

    def decision_value(self, v: int) -> tuple[int, int]:
        """Decision-problem value: (value, hidden bit) at the walk's end,
        (value, -1) everywhere else."""
        val = self.value(v)
        tag = self.bit if int(v) == self.walk.end else -1
        return val, tag


def make_instance(walk: Walk, bit: int, params: StaircaseParams,
                  seed: int | None = None) -> StaircaseInstance:
    return StaircaseInstance(walk=walk, bit=int(bit), params=params, seed=seed)


def sample_good_walk(P: TransitionMatrix, params: StaircaseParams, seed,
                     retry_cap: int = DEFAULT_CAPS["good_walk_retries"]) -> Walk:
    """Rejection-sample the chain law from vertex 1 conditioned on distinct
    milestones."""
    rng = np.random.default_rng(seed)
    for _ in range(retry_cap):
        w = sample_walk(P, 1, params.L, rng)
        if is_good_walk(w, params.T):
            return w
    raise CapabilityError(
        f"no good walk found in {retry_cap} attempts (L={params.L}, T={params.T}); "
        "the chain may be too heterogeneous or the graph too small")


def sample_instance(P: TransitionMatrix, params: StaircaseParams, seed,
                    retry_cap: int = DEFAULT_CAPS["good_walk_retries"]) -> StaircaseInstance:
    """A good walk plus a fair hidden bit, all from one seeded stream."""
    rng = np.random.default_rng(seed)
    walk = sample_good_walk(P, params, rng, retry_cap=retry_cap)
    bit = int(rng.integers(2))
    integer = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    return make_instance(walk, bit, params, seed=int(seed) if integer else None)


# ---------------------------------------------------------------------------
# Validity and local minima
# ---------------------------------------------------------------------------

def _as_function(f, n: int):
    if callable(f):
        return f
    return lambda v: f[v]


def is_valid_value_function(g: Graph, walk, f) -> bool:
    """Check the three conditions tying a value function to a walk:
    strictly decreasing in last-occurrence order along the walk, equal to
    the distance from the walk's start (and positive) off the walk, and
    nonpositive on the walk. f is evaluated once per vertex; the distances
    come from a BFS from the walk's start, independent of the instance's
    stored values, run by _valid_for_distances once the order holds."""
    return _valid_for_distances(g, _vertices(walk), f, None)


def _valid_for_distances(g: Graph, verts: tuple[int, ...], f, dist) -> bool:
    """is_valid_value_function with dist, the BFS distances from verts[0]
    as a list indexed by vertex - 1, passed in by a caller that checks
    many walks from one start; None runs the BFS."""
    fn = _as_function(f, g.n)
    vals = {v: fn(v) for v in range(1, g.n + 1)}
    last = dict.fromkeys(reversed(verts))  # latest last occurrence first
    by_last = list(last)[::-1]
    for a, b in zip(by_last, by_last[1:]):
        if not vals[a] > vals[b]:  # a's last occurrence precedes b's
            return False
    if dist is None:
        dist = bfs_distances(g, verts[0])
    for v, val in vals.items():
        if v in last:
            if val > 0:
                return False
        elif val != dist[v - 1] or val <= 0:
            return False
    return True


def local_minima(g: Graph, f) -> list[int]:
    """All vertices whose value is <= every neighbor's value."""
    fn = _as_function(f, g.n)
    vals = np.array([fn(v) for v in range(1, g.n + 1)])
    # every row is nonempty: the graph is connected and n >= 2
    lowest = np.minimum.reduceat(vals[g.indices], g.indptr[:-1])
    return (np.flatnonzero(vals <= lowest) + 1).tolist()


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def instance_to_json(inst: StaircaseInstance, graph_ref: str, chain_ref: str,
                     reveal: bool = False) -> dict:
    doc = {
        "graph": graph_ref,
        "chain": chain_ref,
        "T": inst.params.T,
        "L": inst.params.L,
        "walk": list(inst.walk.vertices),
        "b": inst.bit,
        "seed": inst.seed,
    }
    if reveal:
        doc["f_values"] = list(inst.values)
    return doc


def instance_from_json(doc: dict) -> StaircaseInstance:
    """Parse a document of instance_to_json: "graph" and "chain" strings,
    integers "T", "L", "b" and "walk" vertices, and "seed" an integer or
    null; any other field shape is a malformed document."""
    try:
        graph_ref, chain_ref = json_string(doc["graph"]), json_string(doc["chain"])
        T, L = json_integer(doc["T"]), json_integer(doc["L"])
        walk_vertices = [json_integer(v) for v in doc["walk"]]
        bit = json_integer(doc["b"])
        seed = doc.get("seed")
        seed = None if seed is None else json_integer(seed)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance document: {exc}") from exc
    g = graph_from_spec(graph_ref, seed=seed)
    chain = chain_from_spec(chain_ref, g)
    params = custom_params(chain, T=T, L=L)
    walk = make_walk(chain, walk_vertices)
    return make_instance(walk, bit, params, seed=seed)


def load_instance(path: str) -> StaircaseInstance:
    return instance_from_json(read_json(path))
