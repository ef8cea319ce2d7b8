"""Undirected connected graphs on vertices 1..n: generators, distances,
degree statistics, and brute-force edge expansion.

All graphs are simple (no self-loops, no parallel edges) and connected;
these invariants are enforced at construction time. Vertices are 1-indexed
throughout the package because instance walks start at vertex 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DEFAULT_CAPS, CapabilityError, InputError, json_integer, read_json

RANDOM_REGULAR_RETRY_CAP = 1000
# Most undirected edges a generator may build; a larger spec is refused
# before any array exists.
MAX_EDGES = 1 << 25


@dataclass(frozen=True, eq=False)
class Graph:
    """Connected simple undirected graph on vertices 1..n, stored as a
    read-only CSR index: the 0-based neighbours of vertex v are
    ``indices[indptr[v-1]:indptr[v]]``, sorted within each row.

    ``start_distances`` holds the hop count from vertex 1 to every vertex,
    kept from the connectivity check of `make_graph`.
    ``vertex_transitive`` is set only by the generators of families whose
    automorphism group moves any vertex to any other (cycle, complete,
    hypercube, torus). Equality and the hash read n and the index alone,
    and only n and the edges are written to JSON, so a parsed graph
    equals the generated one but is never marked transitive.
    """

    n: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    start_distances: np.ndarray = field(repr=False)
    vertex_transitive: bool = field(default=False, repr=False)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.n, self.indptr.tobytes(), self.indices.tobytes()))

    @property
    def edges(self) -> np.ndarray:
        """Read-only (m, 2) array of the 1-based edges u < v, sorted."""
        src = np.repeat(np.arange(1, self.n + 1), np.diff(self.indptr))
        edges = np.column_stack((src, self.indices + 1))[src <= self.indices]
        edges.setflags(write=False)
        return edges

    def degree(self, v: int) -> int:
        _check_vertex(self, v)
        return int(self.indptr[v] - self.indptr[v - 1])

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertex(self, v)
        return tuple((self.indices[self.indptr[v - 1]:self.indptr[v]] + 1).tolist())

    def has_edge(self, u: int, v: int) -> bool:
        return 1 <= u <= self.n and v in self.neighbors(u)


def _check_vertex(g: Graph, v: int) -> None:
    # bool is an int subclass that has no subclasses: True would pass as vertex 1
    if type(v) is bool or not isinstance(v, (int, np.integer)) or not 1 <= v <= g.n:
        raise InputError(f"vertex {v!r} out of range 1..{g.n}")


def make_graph(n: int, edges) -> Graph:
    """Build a Graph from 1-based (u, v) pairs, validating simplicity and
    connectivity. The first bad pair in input order is reported: an end
    outside 1..n, then a self-loop, then the second occurrence of a pair."""
    if n < 2:
        raise InputError(f"graph needs at least 2 vertices, got n={n}")
    try:
        ends = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                          dtype=np.int64)
    except (TypeError, ValueError):
        raise InputError("edges must be (u, v) pairs of integers") from None
    if ends.size and (ends.ndim, ends.shape[-1]) != (2, 2):
        raise InputError(f"edges must be (u, v) pairs, got an array of shape {ends.shape}")
    u, v = ends.reshape(-1, 2).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    outside = (lo < 1) | (hi > n)
    # Distinct in-range pairs get distinct keys; a false repeat needs an
    # earlier out-of-range pair, which is then the one reported.
    key = lo * (n + 2) + hi
    repeated = np.ones(key.size, dtype=bool)
    repeated[np.unique(key, return_index=True)[1]] = False  # first occurrences
    bad = np.flatnonzero(outside | (lo == hi) | repeated)
    if bad.size:
        i = bad[0]
        if outside[i]:
            raise InputError(f"edge ({u[i]},{v[i]}) has endpoint outside 1..{n}")
        if lo[i] == hi[i]:
            raise InputError(f"self-loop at vertex {u[i]} not allowed")
        raise InputError(f"duplicate edge ({lo[i]},{hi[i]})")
    del outside, key, repeated  # frees memory before the CSR build
    # 0-based u * n + v of both directions, sorted row-major
    directed = np.concatenate((lo * n + hi, hi * n + lo)) - (n + 1)
    del lo, hi
    directed.sort()
    indptr = np.searchsorted(directed, n * np.arange(n + 1))
    indices = directed % n
    dist = _bfs(indptr, indices, 0)[0]
    if np.any(dist < 0):
        raise InputError("graph is not connected")
    for a in (indptr, indices, dist):
        a.setflags(write=False)
    return Graph(n=n, indptr=indptr, indices=indices, start_distances=dist)


def _bfs(indptr: np.ndarray, indices: np.ndarray, source: int,
         depth: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(hop distance, BFS parent) of every vertex from the 0-based source
    over a CSR index, -1 where unreached or past `depth` hops. A padded
    table of width k is the index (k * arange(n + 1), table.ravel()), and
    padding that repeats a real neighbour changes no distance or parent.
    The frontier keeps discovery order, so a parent is the first frontier
    vertex listing it."""
    dist = np.full(len(indptr) - 1, -1)
    parent = dist.copy()
    # the number of the scan slot that first reached each vertex
    first = np.full(dist.size, len(indices) + 1)
    dist[source] = first[source] = 0
    frontier = np.array([source])
    hops = scanned = 0
    while frontier.size and (depth is None or hops < depth):
        hops += 1
        starts = indptr[frontier]
        counts = indptr[1:][frontier] - starts
        ends = counts.cumsum()
        nbrs = indices[np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)]
        slot = np.arange(scanned + 1, scanned + 1 + nbrs.size)
        scanned += nbrs.size
        # a vertex reached before keeps its smaller slot and is not a lead
        np.minimum.at(first, nbrs, slot)
        lead = first[nbrs] == slot
        parent[nbrs[lead]] = frontier.repeat(counts)[lead]
        frontier = nbrs[lead]
        dist[frontier] = hops
    return dist, parent


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from source to every vertex, as a list indexed by
    vertex - 1, from the one BFS over the graph's CSR index."""
    _check_vertex(g, source)
    return _bfs(g.indptr, g.indices, source - 1)[0].tolist()


def degree_stats(g: Graph) -> tuple[int, int, list[int]]:
    """(d_min, d_max, per-vertex degrees)."""
    degrees = np.diff(g.indptr)
    return int(degrees.min()), int(degrees.max()), degrees.tolist()


def edge_expansion(g: Graph, cap: int = DEFAULT_CAPS["expansion_bruteforce"]) -> float:
    """Minimum of |E(S, V\\S)| / |S| over nonempty S with |S| <= n/2.

    Exhaustive scan over all 2^n subsets, so only usable at desk scale.
    """
    n = g.n
    if n > cap:
        raise CapabilityError(
            f"edge expansion brute force capped at n={cap}, got n={n}")
    masks = np.arange(1, 1 << n, dtype=np.uint64)
    sizes = np.bitwise_count(masks)
    cuts = np.zeros(masks.shape, dtype=np.int64)
    for u, v in g.edges.tolist():
        bu = (masks >> np.uint64(u - 1)) & np.uint64(1)
        bv = (masks >> np.uint64(v - 1)) & np.uint64(1)
        cuts += (bu ^ bv).astype(np.int64)
    keep = 2 * sizes <= n
    ratios = cuts[keep] / sizes[keep]
    return float(ratios.min())


def _min_cut_set(g: Graph) -> tuple[float, set[int]]:
    """Edge expansion together with a minimizing subset (for diagnostics)."""
    best = (float("inf"), set())
    edges = g.edges.tolist()
    for size in range(1, g.n // 2 + 1):
        for sub in itertools.combinations(range(1, g.n + 1), size):
            s = set(sub)
            cut = sum(1 for u, v in edges if (u in s) != (v in s))
            ratio = cut / size
            if ratio < best[0]:
                best = (ratio, s)
    return best


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _transitive(g: Graph) -> Graph:
    return replace(g, vertex_transitive=True)


def _check_edge_count(spec: str, m: int) -> None:
    if m > MAX_EDGES:
        raise CapabilityError(
            f"{spec} has {m} edges, above the generator cap of {MAX_EDGES}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    _check_edge_count(f"cycle:{n}", n)
    v = np.arange(1, n + 1)
    return _transitive(make_graph(n, np.column_stack((v, v % n + 1))))


def path_graph(n: int) -> Graph:
    if n < 2:
        raise InputError(f"path needs n >= 2, got {n}")
    _check_edge_count(f"path:{n}", n - 1)
    return make_graph(n, np.column_stack((np.arange(1, n), np.arange(2, n + 1))))


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise InputError(f"complete graph needs n >= 2, got {n}")
    _check_edge_count(f"complete:{n}", n * (n - 1) // 2)
    return _transitive(make_graph(n, np.column_stack(np.triu_indices(n, 1)) + 1))


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube on 2^d vertices; vertex v encodes the bit
    pattern of v-1, so BFS distance equals Hamming distance of labels."""
    if d < 1:
        raise InputError(f"hypercube needs d >= 1, got {d}")
    _check_edge_count(f"hypercube:{d}", d << (d - 1))
    return _transitive(make_graph(1 << d, _hypercube_edges(d)))


def _hypercube_edges(d: int) -> np.ndarray:
    """The 1-based edges {v, v ^ 2^bit} of the d-cube, one for each bit
    clear in v. Its own function, so that the label arrays are freed
    before make_graph runs."""
    v = np.arange(1 << d)
    bit, low = np.divmod(np.flatnonzero(v & (1 << np.arange(d))[:, None] == 0), 1 << d)
    return np.column_stack((low, low | 1 << bit)) + 1


def torus_graph(rows: int, cols: int) -> Graph:
    """2D torus grid; both dimensions must be >= 3 to stay simple."""
    if rows < 3 or cols < 3:
        raise InputError(f"torus needs rows, cols >= 3, got {rows}x{cols}")
    n = rows * cols
    _check_edge_count(f"torus2d:{rows}x{cols}", 2 * n)
    v = np.arange(n)
    right, down = v - v % cols + (v + 1) % cols, (v + cols) % n
    pairs = np.column_stack((np.tile(v, 2), np.concatenate((right, down))))
    return _transitive(make_graph(n, pairs + 1))


def barbell_graph(n: int) -> Graph:
    """Two cliques of n/2 vertices each, joined by the single bridge edge
    (n/2, n/2 + 1)."""
    if n < 4 or n % 2 != 0:
        raise InputError(f"barbell needs even n >= 4, got {n}")
    k = n // 2
    _check_edge_count(f"barbell:{n}", k * (k - 1) + 1)
    clique = np.column_stack(np.triu_indices(k, 1)) + 1
    return make_graph(n, np.concatenate((clique, clique + k, [[k, k + 1]])))


def random_regular_graph(n: int, d: int, seed) -> Graph:
    """Seeded d-regular graph via stub pairing, rejected until simple and
    connected."""
    if d < 1 or d >= n:
        raise InputError(f"degree d={d} must satisfy 1 <= d < n={n}")
    if (n * d) % 2 != 0:
        raise InputError(f"n*d must be even, got n={n}, d={d}")
    _check_edge_count(f"random-regular:{n},{d}", n * d // 2)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(1, n + 1), d)
    for _ in range(RANDOM_REGULAR_RETRY_CAP):
        try:
            return make_graph(n, rng.permutation(stubs).reshape(-1, 2))
        except InputError:
            continue  # a self-loop, a repeated pair, or disconnected: redraw
    raise CapabilityError(
        f"no simple connected {d}-regular graph on {n} vertices found "
        f"in {RANDOM_REGULAR_RETRY_CAP} pairing attempts")


# Spec family -> (constructor, separator of its two integer sizes, or None
# for a family with one size).
_SPEC_FAMILIES = {
    "cycle": (cycle_graph, None),
    "path": (path_graph, None),
    "complete": (complete_graph, None),
    "hypercube": (hypercube_graph, None),
    "barbell": (barbell_graph, None),
    "torus2d": (torus_graph, "x"),
    "random_regular": (random_regular_graph, ","),
}


def graph_from_spec(text: str, seed=None) -> Graph:
    """Parse a compact graph description.

    Examples: ``cycle:8``, ``path:5``, ``complete:16``, ``hypercube:4``,
    ``torus2d:3x4``, ``barbell:10``, ``random-regular:8,3``. Anything
    ending in ``.json`` is loaded as a graph file.
    """
    if text.endswith(".json"):
        return graph_from_json(read_json(text))
    family, _, arg = text.partition(":")
    family = family.replace("-", "_")
    if not arg:
        raise InputError(f"graph spec {text!r} is missing size parameters")
    try:
        if family not in _SPEC_FAMILIES:
            raise InputError(f"unknown graph family {family!r}")
        build, sep = _SPEC_FAMILIES[family]
        sizes = arg.lower().split(sep) if sep else [arg]
        if sep and len(sizes) != 2:
            raise InputError(f"expected two sizes separated by {sep!r}")
        args = [int(size) for size in sizes]
        if build is random_regular_graph:
            if seed is None:
                raise InputError("random_regular requires a seed")
            args.append(seed)
        return build(*args)
    except ValueError as exc:
        raise InputError(f"bad graph spec {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edges.tolist()}


def graph_from_json(doc: dict) -> Graph:
    """Parse {"n": int, "edges": [[u,v], ...]}; rejects ends that are not
    integers, self-loops, duplicates, and disconnected graphs."""
    try:
        n = json_integer(doc["n"])
        edges = np.array([(json_integer(u), json_integer(v)) for u, v in doc["edges"]],
                         dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed graph document: {exc}") from exc
    return make_graph(n, edges)
