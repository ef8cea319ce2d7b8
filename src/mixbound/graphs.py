"""Undirected connected graphs on vertices 1..n: generators, distances,
degree statistics, and brute-force edge expansion.

All graphs are simple (no self-loops, no parallel edges) and connected;
these invariants are enforced at construction time. Vertices are 1-indexed
throughout the package because instance walks start at vertex 1.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DEFAULT_CAPS, CapabilityError, InputError, read_json

RANDOM_REGULAR_RETRY_CAP = 1000


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph on vertices 1..n.

    ``start_distances`` holds the hop count from vertex 1 to every vertex,
    kept from the connectivity check of `make_graph`.
    ``vertex_transitive`` is set only by the generators of families whose
    automorphism group moves any vertex to any other (cycle, complete,
    hypercube, torus). Neither field takes part in equality or is written
    to JSON, so a parsed graph is never marked transitive.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)
    start_distances: tuple[int, ...] = field(repr=False, compare=False)
    vertex_transitive: bool = field(default=False, repr=False, compare=False)

    def degree(self, v: int) -> int:
        _check_vertex(self, v)
        return len(self.adjacency[v - 1])

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertex(self, v)
        return self.adjacency[v - 1]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def _check_vertex(g: Graph, v: int) -> None:
    if not isinstance(v, (int, np.integer)) or not 1 <= v <= g.n:
        raise InputError(f"vertex {v!r} out of range 1..{g.n}")


def make_graph(n: int, edges) -> Graph:
    """Build a Graph, validating simplicity and connectivity."""
    if n < 2:
        raise InputError(f"graph needs at least 2 vertices, got n={n}")
    norm = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputError(f"edge ({u},{v}) has endpoint outside 1..{n}")
        if u == v:
            raise InputError(f"self-loop at vertex {u} not allowed")
        key = (min(u, v), max(u, v))
        if key in norm:
            raise InputError(f"duplicate edge ({key[0]},{key[1]})")
        norm.add(key)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in norm:
        adj[u - 1].append(v)
        adj[v - 1].append(u)
    adjacency = tuple(tuple(sorted(a)) for a in adj)
    dist = _distances_from(adjacency, 1)
    if any(d < 0 for d in dist):
        raise InputError("graph is not connected")
    return Graph(n=n, edges=frozenset(norm), adjacency=adjacency,
                 start_distances=tuple(dist))


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from source to every vertex."""
    _check_vertex(g, source)
    return _distances_from(g.adjacency, source)


def _distances_from(adjacency: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    """Hop counts from source over 1-based adjacency lists; -1 marks
    unreachable (only possible before connectivity is enforced)."""
    dist = [-1] * len(adjacency)
    dist[source - 1] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u - 1]:
            if dist[w - 1] < 0:
                dist[w - 1] = dist[u - 1] + 1
                queue.append(w)
    return dist


def degree_stats(g: Graph) -> tuple[int, int, list[int]]:
    """(d_min, d_max, per-vertex degrees)."""
    degrees = [len(a) for a in g.adjacency]
    return min(degrees), max(degrees), degrees


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
    for u, v in g.edges:
        bu = (masks >> np.uint64(u - 1)) & np.uint64(1)
        bv = (masks >> np.uint64(v - 1)) & np.uint64(1)
        cuts += (bu ^ bv).astype(np.int64)
    keep = 2 * sizes <= n
    ratios = cuts[keep] / sizes[keep]
    return float(ratios.min())


def _min_cut_set(g: Graph) -> tuple[float, set[int]]:
    """Edge expansion together with a minimizing subset (for diagnostics)."""
    best = (float("inf"), set())
    for size in range(1, g.n // 2 + 1):
        for sub in itertools.combinations(range(1, g.n + 1), size):
            s = set(sub)
            cut = sum(1 for u, v in g.edges if (u in s) != (v in s))
            ratio = cut / size
            if ratio < best[0]:
                best = (ratio, s)
    return best


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _transitive(g: Graph) -> Graph:
    return replace(g, vertex_transitive=True)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return _transitive(make_graph(n, [(i, i % n + 1) for i in range(1, n + 1)]))


def path_graph(n: int) -> Graph:
    if n < 2:
        raise InputError(f"path needs n >= 2, got {n}")
    return make_graph(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise InputError(f"complete graph needs n >= 2, got {n}")
    return _transitive(make_graph(n, itertools.combinations(range(1, n + 1), 2)))


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube on 2^d vertices; vertex v encodes the bit
    pattern of v-1, so BFS distance equals Hamming distance of labels."""
    if d < 1:
        raise InputError(f"hypercube needs d >= 1, got {d}")
    n = 1 << d
    edges = []
    for v in range(n):
        for bit in range(d):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v + 1, w + 1))
    return _transitive(make_graph(n, edges))


def torus_graph(rows: int, cols: int) -> Graph:
    """2D torus grid; both dimensions must be >= 3 to stay simple."""
    if rows < 3 or cols < 3:
        raise InputError(f"torus needs rows, cols >= 3, got {rows}x{cols}")
    edges = set()
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j + 1
            right = i * cols + (j + 1) % cols + 1
            down = ((i + 1) % rows) * cols + j + 1
            edges.add((min(v, right), max(v, right)))
            edges.add((min(v, down), max(v, down)))
    return _transitive(make_graph(rows * cols, edges))


def barbell_graph(n: int) -> Graph:
    """Two cliques of n/2 vertices each, joined by the single bridge edge
    (n/2, n/2 + 1)."""
    if n < 4 or n % 2 != 0:
        raise InputError(f"barbell needs even n >= 4, got {n}")
    k = n // 2
    edges = list(itertools.combinations(range(1, k + 1), 2))
    edges += list(itertools.combinations(range(k + 1, n + 1), 2))
    edges.append((k, k + 1))
    return make_graph(n, edges)


def random_regular_graph(n: int, d: int, seed) -> Graph:
    """Seeded d-regular graph via stub pairing, rejected until simple and
    connected."""
    if d < 1 or d >= n:
        raise InputError(f"degree d={d} must satisfy 1 <= d < n={n}")
    if (n * d) % 2 != 0:
        raise InputError(f"n*d must be even, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(1, n + 1), d)
    for _ in range(RANDOM_REGULAR_RETRY_CAP):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        edges = set()
        ok = True
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        try:
            return make_graph(n, edges)
        except InputError:
            continue  # disconnected; retry
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
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json(doc: dict) -> Graph:
    """Parse {"n": int, "edges": [[u,v], ...]}; rejects self-loops,
    duplicates, and disconnected graphs."""
    try:
        n = int(doc["n"])
        edges = [(int(u), int(v)) for u, v in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph document: {exc}") from exc
    return make_graph(n, edges)
