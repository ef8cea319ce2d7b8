"""Transition matrices on graphs and their analytics: stationary
distribution, stationary ratio, mixing time, spectral gap, bottleneck
ratio, visiting probabilities, and seeded walk sampling.

A chain lives on a Graph: off-diagonal entries may be positive only on
edges (support condition); self-loops are always allowed. Chains are
validated and frozen at construction and safe to share between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DEFAULT_CAPS, CapabilityError, InputError
from .graphs import Graph, _check_vertex, degree_stats, graph_from_json, make_graph

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
DETAILED_BALANCE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9


@dataclass(frozen=True)
class ChainFlags:
    lazy: bool
    irreducible: bool
    reversible: bool


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix supported on the edges (plus self-loops) of an
    undirected graph, with its stationary distribution and property flags.

    Immutable; the ndarray buffers are marked read-only. Compared by
    identity: two chains are "the same" only if they are the same object.

    ``vertex_transitive`` marks a chain that every automorphism of a
    vertex-transitive graph preserves, so the distance to stationarity
    after t steps is the same from every start. Only `lazy_simple_walk`
    and `max_degree_walk` set it, from the graph's own flag; `make_chain`
    cannot know what a caller's matrix is and leaves it unset.
    """

    n: int
    matrix: np.ndarray = field(repr=False)
    graph: Graph = field(repr=False)
    pi: np.ndarray | None = field(repr=False)
    flags: ChainFlags
    kind: str = "custom"
    vertex_transitive: bool = field(default=False, repr=False)

    def prob(self, u: int, v: int) -> float:
        _check_vertex(self.graph, u)
        _check_vertex(self.graph, v)
        return float(self.matrix[u - 1, v - 1])

    def stationary_of(self, v: int) -> float:
        _check_vertex(self.graph, v)
        return float(self._pi_or_raise()[v - 1])

    def _pi_or_raise(self) -> np.ndarray:
        if self.pi is None:
            raise CapabilityError(
                "chain is reducible: no unique stationary distribution")
        return self.pi

    @property
    def sampling_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded out-neighbour table (index, cumulative), cached, each of
        shape n x (largest out-degree, self-loop included). Row u lists
        the v with P[u, v] > 0 in increasing order and the running sums of
        their probabilities; the last real slot and all padding hold 1.0,
        and padding points at the row's last real neighbour. The first
        slot whose sum exceeds a uniform u in [0, 1) therefore always
        names a positive transition, even when the sum falls short of 1 by
        rounding. The sums equal those of the dense row, since adding the
        zero columns changes no float cumsum."""
        cached = self.__dict__.get("_sampling")
        if cached is None:
            src, dst, slot, counts = _padded_entries(self.matrix > 0.0)
            last = np.cumsum(counts) - 1
            index = np.repeat(dst[last][:, None], counts.max(), axis=1)
            index[src, slot] = dst
            cumulative = np.zeros(index.shape)
            cumulative[src, slot] = self.matrix[src, dst]
            np.cumsum(cumulative, axis=1, out=cumulative)
            cumulative[np.arange(index.shape[1])[None, :] >= counts[:, None] - 1] = 1.0
            index.setflags(write=False)
            cumulative.setflags(write=False)
            cached = (index, cumulative)
            self.__dict__["_sampling"] = cached
        return cached

    @property
    def in_neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded in-neighbour table (index, weight), cached, each of shape
        n x (largest in-degree, self-loop included). Row v lists the u with
        P[u, v] > 0 in increasing order and their weights P[u, v]; padding
        has index 0 and weight 0. One step of a distribution x is
        ``(x[index] * weight).sum(axis=1)``."""
        cached = self.__dict__.get("_in_nbrs")
        if cached is None:
            dst, src, slot, counts = _padded_entries(self.matrix.T > 0.0)
            index = np.zeros((self.n, counts.max()), dtype=np.intp)
            weight = np.zeros(index.shape)
            index[dst, slot] = src
            weight[dst, slot] = self.matrix[src, dst]
            index.setflags(write=False)
            weight.setflags(write=False)
            cached = (index, weight)
            self.__dict__["_in_nbrs"] = cached
        return cached


def _padded_entries(support: np.ndarray):
    """(row, col, slot, counts) of the True entries of a square boolean
    array in row-major order: entry e belongs in cell [row[e], slot[e]] of
    a table padded to the longest row, and counts[r] is row r's length."""
    row, col = np.nonzero(support)
    counts = np.bincount(row, minlength=support.shape[0])
    slot = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return row, col, slot, counts


@dataclass(frozen=True)
class Walk:
    """A vertex sequence with positive transition probability at every step."""

    vertices: tuple[int, ...]
    chain: TransitionMatrix = field(repr=False)

    @property
    def length(self) -> int:
        """Number of steps (edges), one less than the number of vertices."""
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def probability(self) -> float:
        return walk_probability(self.chain, self.vertices)


def make_walk(chain: TransitionMatrix, vertices) -> Walk:
    verts = tuple(int(v) for v in vertices)
    if not verts:
        raise InputError("walk must contain at least one vertex")
    for v in verts:
        _check_vertex(chain.graph, v)
    m = chain.matrix
    for a, b in zip(verts, verts[1:]):
        if m[a - 1, b - 1] <= 0.0:
            raise InputError(f"walk uses unsupported transition {a}->{b}")
    return Walk(vertices=verts, chain=chain)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def make_chain(graph: Graph, matrix, pi=None, kind: str = "custom") -> TransitionMatrix:
    """Validate a row-stochastic matrix against its graph and freeze it.

    Rows must sum to 1 within 1e-12 (then renormalized exactly); any
    positive off-diagonal entry must sit on a graph edge. The stationary
    distribution is verified when supplied, solved for otherwise; it is
    left unset for reducible chains.
    """
    m = np.array(matrix, dtype=float)
    n = graph.n
    if m.shape != (n, n):
        raise InputError(f"matrix shape {m.shape} does not match n={n}")
    if np.any(m < -1e-15):
        raise InputError("matrix has negative entries")
    m[m < 0] = 0.0
    row_sums = m.sum(axis=1)
    bad = np.argmax(np.abs(row_sums - 1.0))
    if abs(row_sums[bad] - 1.0) > ROW_SUM_TOL:
        raise InputError(
            f"row {bad + 1} sums to {row_sums[bad]:.15g}, not 1 within {ROW_SUM_TOL}")
    m /= row_sums[:, None]
    allowed = np.eye(n, dtype=bool)
    ends = np.array(list(graph.edges)) - 1
    allowed[ends[:, 0], ends[:, 1]] = allowed[ends[:, 1], ends[:, 0]] = True
    off_edge = np.flatnonzero((m > 0.0) & ~allowed)
    if off_edge.size:
        u, v = divmod(int(off_edge[0]), n)
        raise InputError(f"positive entry ({u + 1},{v + 1}) is not on a graph edge")

    irreducible = _strongly_connected(m)

    if pi is not None:
        p = np.array(pi, dtype=float)
        if p.shape != (n,):
            raise InputError("stationary vector has wrong length")
        if np.any(p <= 0.0) or abs(p.sum() - 1.0) > ROW_SUM_TOL:
            raise InputError("stationary vector must be positive and sum to 1")
        if np.max(np.abs(p @ m - p)) > STATIONARY_TOL:
            raise InputError("supplied stationary vector is not a fixed point")
    elif irreducible:
        p = _solve_stationary(m)
    else:
        p = None

    m.setflags(write=False)
    if p is not None:
        p.setflags(write=False)
    return TransitionMatrix(n=n, matrix=m, graph=graph, pi=p,
                            flags=_flags(m, p, irreducible), kind=kind)


def _flags(m: np.ndarray, pi: np.ndarray | None, irreducible: bool) -> ChainFlags:
    """(lazy, irreducible, reversible) of matrix m with stationary vector
    pi, None for a reducible chain. Irreducibility is passed in because
    make_chain needs it before it has pi."""
    lazy = bool(np.all(np.diag(m) >= 0.5 - ROW_SUM_TOL))
    reversible = pi is not None and bool(
        np.max(np.abs(pi[:, None] * m - pi[None, :] * m.T)) <= DETAILED_BALANCE_TOL)
    return ChainFlags(lazy=lazy, irreducible=irreducible, reversible=reversible)


def _strongly_connected(m: np.ndarray) -> bool:
    support = m > 0.0
    return _reaches_all(support, 0) and _reaches_all(support.T, 0)


def _reaches_all(support: np.ndarray, start: int) -> bool:
    n = support.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(support[u]):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def _solve_stationary(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    a = np.vstack([m.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    p, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = np.max(np.abs(p @ m - p))
    if residual > STATIONARY_TOL or np.any(p <= 0.0):
        raise CapabilityError(
            f"stationary solve failed (residual {residual:.3g})")
    return p / p.sum()


def lazy_simple_walk(g: Graph) -> TransitionMatrix:
    """Self-loop 1/2, each neighbor 1/(2 deg); stationary mass deg/(2|E|)."""
    n = g.n
    m = np.zeros((n, n))
    for u in range(1, n + 1):
        nbrs = g.neighbors(u)
        m[u - 1, u - 1] = 0.5
        for v in nbrs:
            m[u - 1, v - 1] = 0.5 / len(nbrs)
    degrees = np.array([g.degree(v) for v in range(1, n + 1)], dtype=float)
    pi = degrees / (2 * len(g.edges))
    return replace(make_chain(g, m, pi=pi, kind="lazy-simple"),
                   vertex_transitive=g.vertex_transitive)


def max_degree_walk(g: Graph) -> TransitionMatrix:
    """Each neighbor 1/(2 d_max), remainder on the self-loop; uniform
    stationary distribution."""
    n = g.n
    _, d_max, degrees = degree_stats(g)
    m = np.zeros((n, n))
    for u in range(1, n + 1):
        for v in g.neighbors(u):
            m[u - 1, v - 1] = 0.5 / d_max
        m[u - 1, u - 1] = 1.0 - degrees[u - 1] / (2 * d_max)
    return replace(make_chain(g, m, pi=np.full(n, 1.0 / n), kind="max-degree"),
                   vertex_transitive=g.vertex_transitive)


def metropolis_walk(g: Graph, target) -> TransitionMatrix:
    """Metropolis filter on the lazy simple walk: propose a neighbor with
    probability 1/(2 deg), accept with min(1, t(v) d(u) / (t(u) d(v))),
    rejected mass joins the self-loop. Lazy and reversible with stationary
    distribution equal to the target."""
    n = g.n
    t = np.array(target, dtype=float)
    if t.shape != (n,):
        raise InputError(f"target distribution has length {t.shape}, need {n}")
    if np.any(t <= 0.0):
        raise InputError("target distribution entries must be positive")
    if abs(t.sum() - 1.0) > 1e-9:
        raise InputError(f"target distribution sums to {t.sum():.12g}, not 1")
    t = t / t.sum()
    m = np.zeros((n, n))
    for u in range(1, n + 1):
        du = g.degree(u)
        for v in g.neighbors(u):
            accept = min(1.0, t[v - 1] * du / (t[u - 1] * g.degree(v)))
            m[u - 1, v - 1] = accept / (2 * du)
        m[u - 1, u - 1] = 1.0 - m[u - 1].sum()
    return make_chain(g, m, pi=t, kind="metropolis")


# ---------------------------------------------------------------------------
# Chain quantities
# ---------------------------------------------------------------------------

def check_properties(P: TransitionMatrix) -> ChainFlags:
    """Recompute (lazy, irreducible, reversible) from the matrix."""
    return _flags(P.matrix, P.pi, _strongly_connected(P.matrix))


def stationary(P: TransitionMatrix) -> np.ndarray:
    """Unique fixed point of the chain; raises for reducible chains."""
    if not P.flags.irreducible:
        raise CapabilityError("stationary distribution requires an irreducible chain")
    return P._pi_or_raise()


def stationary_ratio(P: TransitionMatrix) -> float:
    """max pi / min pi, the heterogeneity of the stationary distribution."""
    pi = P._pi_or_raise()
    return float(pi.max() / pi.min())


def worst_case_tv(P: TransitionMatrix, t: int) -> float:
    """max over starting vertices of the total-variation distance between
    the t-step distribution and the stationary distribution."""
    if t < 0:
        raise InputError("t must be nonnegative")
    power = np.linalg.matrix_power(P.matrix, t)
    return _tv_from_pi(power, P._pi_or_raise())


def _tv_from_pi(power: np.ndarray, pi: np.ndarray) -> float:
    return float(0.5 * np.abs(power - pi[None, :]).sum(axis=1).max())


def mixing_time(P: TransitionMatrix, eps: float,
                cap: int = DEFAULT_CAPS["mixing_steps"],
                method: str = "doubling") -> int:
    """Smallest t with worst-case TV distance to stationarity at most eps.

    The worst-case TV distance is nonincreasing in t, so the default finds
    the threshold by doubling then binary search on matrix powers. The
    "linear" method scans t = 0, 1, 2, ... on the full matrix and exists
    as an independent cross-check.

    For a chain marked `vertex_transitive` (the lazy simple and max-degree
    walks on cycle, complete, hypercube and torus graphs) the default
    instead propagates the single row of vertex 1 through the sparse
    `in_neighbours` table, O(nnz) per step, and stops at the first t with
    TV <= eps. That is exact, not an approximation: an automorphism
    mapping u to w and preserving the chain carries the t-step law from u
    onto the one from w and fixes the stationary distribution, so every
    start is at the same TV distance (Levin, Peres and Wilmer, Markov
    Chains and Mixing Times, ch. 4).
    """
    if not 0 < eps < 0.5:
        raise InputError(f"eps must lie in (0, 1/2), got {eps}")
    if not P.flags.irreducible:
        raise CapabilityError("mixing time requires an irreducible chain")
    pi = P._pi_or_raise()
    if method == "linear":
        power = np.eye(P.n)
        for t in range(cap + 1):
            if _tv_from_pi(power, pi) <= eps:
                return t
            power = power @ P.matrix
        raise CapabilityError(f"mixing time exceeds cap {cap} at eps={eps}")
    if method != "doubling":
        raise InputError(f"unknown mixing time method {method!r}")
    if P.vertex_transitive:
        return _single_start_mixing_time(P, pi, eps, cap)

    if _tv_from_pi(np.eye(P.n), pi) <= eps:
        return 0
    # Doubling phase: squares[k] = P^(2^k).
    squares = [P.matrix]
    t = 1
    while _tv_from_pi(squares[-1], pi) > eps:
        if t >= cap:
            raise CapabilityError(f"mixing time exceeds cap {cap} at eps={eps}")
        squares.append(squares[-1] @ squares[-1])
        t *= 2
    lo, hi = t // 2, t  # tv(lo) > eps >= tv(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tv_from_pi(_matrix_power(squares, mid), pi) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def _single_start_mixing_time(P: TransitionMatrix, pi: np.ndarray, eps: float,
                              cap: int) -> int:
    index, weight = P.in_neighbours
    row = np.zeros(P.n)
    row[0] = 1.0
    for t in range(cap + 1):
        if 0.5 * np.abs(row - pi).sum() <= eps:
            return t
        row = (row[index] * weight).sum(axis=1)
    raise CapabilityError(f"mixing time exceeds cap {cap} at eps={eps}")


def _matrix_power(squares: list[np.ndarray], t: int) -> np.ndarray:
    result = None
    for k, square in enumerate(squares):
        if t & (1 << k):
            result = square if result is None else result @ square
    if result is None:
        n = squares[0].shape[0]
        return np.eye(n)
    return result


def spectral_gap(P: TransitionMatrix) -> tuple[float, float]:
    """(second-largest eigenvalue, 1 - it) of a reversible chain, via the
    symmetrized matrix D^(1/2) P D^(-1/2)."""
    if not P.flags.reversible:
        raise CapabilityError("spectral gap requires a reversible chain")
    pi = P._pi_or_raise()
    root = np.sqrt(pi)
    sym = root[:, None] * P.matrix / root[None, :]
    sym = (sym + sym.T) / 2  # symmetric up to roundoff by reversibility
    eigs = np.linalg.eigvalsh(sym)
    lambda2 = float(eigs[-2])
    if P.flags.lazy and lambda2 < -EIGENVALUE_TOL:
        raise AssertionError(
            f"lazy chain produced negative second eigenvalue {lambda2}")
    return lambda2, 1.0 - lambda2


def bottleneck_ratio(P: TransitionMatrix,
                     cap: int = DEFAULT_CAPS["expansion_bruteforce"]) -> float:
    """min over S with pi(S) <= 1/2 of the stationary flow out of S divided
    by pi(S). Exhaustive over all subsets."""
    n = P.n
    if n > cap:
        raise CapabilityError(
            f"bottleneck ratio brute force capped at n={cap}, got n={n}")
    pi = P._pi_or_raise()
    flow = pi[:, None] * P.matrix
    masks = np.arange(1, 1 << n, dtype=np.uint64)
    mass = np.zeros(masks.shape)
    for u in range(n):
        mass += pi[u] * ((masks >> np.uint64(u)) & np.uint64(1)).astype(float)
    escape = np.zeros(masks.shape)
    for u in range(n):
        bit_u = ((masks >> np.uint64(u)) & np.uint64(1)).astype(bool)
        for v in range(n):
            if u == v or flow[u, v] == 0.0:
                continue
            bit_v = ((masks >> np.uint64(v)) & np.uint64(1)).astype(bool)
            escape[bit_u & ~bit_v] += flow[u, v]
    keep = mass <= 0.5 + ROW_SUM_TOL
    return float((escape[keep] / mass[keep]).min())


@dataclass(frozen=True)
class VisitStats:
    """Hit/visit statistics of a fixed-length walk; the start counts as
    step 0 and is excluded, so visits happen at steps 1..length."""

    p_visit: float
    expected_visits: float
    p_end: float


def visit_probabilities(P: TransitionMatrix, u: int, v: int, length: int) -> VisitStats:
    """(P_visit, E_visit, P_end) for a length-step walk from u against
    target v. P_visit uses dynamic programming with v made absorbing."""
    _check_vertex(P.graph, u)
    _check_vertex(P.graph, v)
    if length < 0:
        raise InputError("walk length must be nonnegative")
    n = P.n
    free = np.zeros(n)
    free[u - 1] = 1.0
    alive = free.copy()
    expected = 0.0
    captured = 0.0
    for _ in range(length):
        free = free @ P.matrix
        expected += free[v - 1]
        alive = alive @ P.matrix
        captured += alive[v - 1]
        alive[v - 1] = 0.0
    return VisitStats(p_visit=float(captured), expected_visits=float(expected),
                      p_end=float(free[v - 1]))


def visit_probability_all_starts(P: TransitionMatrix, v: int, length: int) -> np.ndarray:
    """Vector of P_visit(u, v, length) over all starting vertices u."""
    _check_vertex(P.graph, v)
    if length < 0:
        raise InputError("walk length must be nonnegative")
    alive = np.eye(P.n)
    captured = np.zeros(P.n)
    for _ in range(length):
        alive = alive @ P.matrix
        captured += alive[:, v - 1]
        alive[:, v - 1] = 0.0
    return captured


def sample_walk(P: TransitionMatrix, start: int, length: int, seed) -> Walk:
    """Seeded trajectory of the chain; deterministic for a fixed seed."""
    _check_vertex(P.graph, start)
    if length < 0:
        raise InputError("walk length must be nonnegative")
    rng = np.random.default_rng(seed)
    index, cum = P.sampling_table
    verts = [start]
    cur = start - 1
    for _ in range(length):
        cur = int(index[cur, np.searchsorted(cum[cur], rng.random(), side="right")])
        verts.append(cur + 1)
    return Walk(vertices=tuple(verts), chain=P)


def walk_probability(P: TransitionMatrix, vertices) -> float:
    """Product of transition probabilities along the vertex sequence; zero
    if any step is unsupported. A single vertex has probability 1."""
    verts = vertices.vertices if isinstance(vertices, Walk) else tuple(vertices)
    if not verts:
        raise InputError("walk must contain at least one vertex")
    prob = 1.0
    m = P.matrix
    for a, b in zip(verts, verts[1:]):
        step = m[a - 1, b - 1]
        if step <= 0.0:
            return 0.0
        prob *= step
    return float(prob)


# ---------------------------------------------------------------------------
# JSON interchange and named construction
# ---------------------------------------------------------------------------

CHAIN_KINDS = ("lazy-simple", "metropolis", "max-degree")


def build_chain(g: Graph, kind: str, target=None) -> TransitionMatrix:
    """Construct one of the named chains on g. The metropolis target
    defaults to uniform."""
    if kind == "lazy-simple":
        return lazy_simple_walk(g)
    if kind == "max-degree":
        return max_degree_walk(g)
    if kind == "metropolis":
        if target is None:
            target = np.full(g.n, 1.0 / g.n)
        return metropolis_walk(g, target)
    raise InputError(f"unknown chain kind {kind!r}; expected one of {CHAIN_KINDS}")


def chain_to_json(P: TransitionMatrix) -> dict:
    doc = {"n": P.n, "rows": [[float(x) for x in row] for row in P.matrix]}
    if P.pi is not None:
        doc["pi"] = [float(x) for x in P.pi]
    return doc


def chain_from_json(doc: dict, graph: Graph | None = None) -> TransitionMatrix:
    """Parse {"n": int, "rows": [[p,...],...], "pi": [p,...]?}. Without an
    explicit graph, the edge set is inferred from the support."""
    try:
        n = int(doc["n"])
        rows = np.array(doc["rows"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed chain document: {exc}") from exc
    if graph is None:
        edges = set()
        if rows.shape != (n, n):
            raise InputError(f"rows shape {rows.shape} does not match n={n}")
        for u in range(n):
            for v in range(u + 1, n):
                if rows[u, v] > 0.0 or rows[v, u] > 0.0:
                    edges.add((u + 1, v + 1))
        graph = make_graph(n, edges)
    return make_chain(graph, rows, pi=doc.get("pi"))


def chain_from_spec(text: str, g: Graph | None = None) -> TransitionMatrix:
    """CLI chain argument: a kind name (requires a graph) or a .json file."""
    if text.endswith(".json"):
        with open(text, encoding="utf-8") as fh:
            return chain_from_json(json.load(fh), graph=g)
    if g is None:
        raise InputError("a graph is required to build a chain by name")
    return build_chain(g, text)
