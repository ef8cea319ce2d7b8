"""Transition matrices on graphs and their analytics: stationary
distribution, stationary ratio, mixing time, spectral gap, bottleneck
ratio, and seeded walk sampling.

A chain lives on a Graph: off-diagonal entries may be positive only on
edges (support condition); self-loops are always allowed. Chains are
validated and frozen at construction and safe to share between threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import (
    DEFAULT_CAPS,
    CapabilityError,
    InputError,
    json_integer,
    json_number,
    read_json,
)
from .graphs import Graph, _bfs, _check_vertex, make_graph

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
DETAILED_BALANCE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9
LANCZOS_TOL = 1e-13
LANCZOS_BASIS = 20  # first rows of the Lanczos basis, which doubles when full
_EPS = float(np.finfo(float).eps)
_PIVMIN = 1e-300  # stands in for a zero pivot of a tridiagonal factorization
# Largest n for which a chain forms its dense n x n matrix (2 GiB at the cap).
MAX_DENSE_N = 1 << 14
_FSUM_ROWS = 1 << 12  # rows whose entries _row_fsums converts to Python floats at once
_TV_BLOCK_CELLS = 1 << 15  # cells of _tv_from_pi's buffer (256 KiB)


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

    The chain is stored as two neighbour tables only, built once from the
    validated entries. ``sampling_table`` is the padded out-neighbour
    table (index, cumulative), each of shape n x (largest out-degree,
    self-loop included). Row u lists the v with P[u, v] > 0 in increasing
    order and the running sums of their probabilities; the last real slot
    and all padding hold 1.0, and padding points at the row's last real
    neighbour. The first slot whose sum exceeds a uniform u in [0, 1)
    therefore always names a positive transition, even when the sum falls
    short of 1 by rounding. The sums equal those of the dense row, since
    adding the zero columns changes no float cumsum.

    ``in_neighbours`` is the padded in-neighbour table (index, weight),
    each of shape n x (largest in-degree, self-loop included). Row v lists
    the u with P[u, v] > 0 in increasing order and their weights P[u, v];
    padding has index 0 and weight 0. One step of a distribution x is
    ``(x[index] * weight).sum(axis=1)``.

    ``sampling_guide`` is (guide, step, passes, jump): the guide table of
    the running sums, the next guide row offset of every slot, the most
    forward moves a uniform needs from its guide cell, which is 0 when
    every running sum is a multiple of 1/B, and, only when it is 0, the
    next guide row offset of every guide cell (else None). It is built
    the first time a batch of walks is sampled and kept, so every later
    batch on the chain reuses it; see `_guide` and `_sample_tails`.

    ``walk_table`` is the sampling table as Python tuples for single
    walks, made the first time a single walk is sampled and kept. It
    converts a vertex's row only when a walk first steps from it, so its
    cost follows the rows that walks visit, not n x width; see
    `_WalkTable` and `_walk_tail`.

    ``matrix`` is the dense n x n view, scattered from ``in_neighbours``
    the first time it is read and kept; it is read-only. In the library
    only the doubling `mixing_time`, `bottleneck_ratio` and the stationary
    solve of a chain built without pi read it (walks read
    `_step_probabilities`, chain files `chain_to_json`'s entries). Above
    MAX_DENSE_N it raises CapabilityError before allocating.

    ``vertex_transitive`` marks a chain that every automorphism of a
    vertex-transitive graph preserves, so the distance to stationarity
    after t steps is the same from every start. `lazy_simple_walk` and
    `max_degree_walk` set it from the graph's own flag, and
    `chain_from_json` when the file stores their entries bit for bit on
    such a graph; `make_chain` cannot know what a caller's matrix is and
    leaves it unset.
    """

    n: int
    graph: Graph = field(repr=False)
    pi: np.ndarray | None = field(repr=False)
    flags: ChainFlags
    sampling_table: tuple[np.ndarray, np.ndarray] = field(repr=False)
    in_neighbours: tuple[np.ndarray, np.ndarray] = field(repr=False)
    kind: str = "custom"
    vertex_transitive: bool = field(default=False, repr=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        m = _dense(self.n, self.in_neighbours)
        m.setflags(write=False)
        return m

    @cached_property
    def sampling_guide(self) -> tuple[np.ndarray, np.ndarray, int, np.ndarray | None]:
        return _guide(*self.sampling_table)

    @cached_property
    def walk_table(self) -> _WalkTable:
        return _WalkTable(*self.sampling_table)

    def prob(self, u: int, v: int) -> float:
        return walk_probability(self, (u, v))

    def _pi_or_raise(self) -> np.ndarray:
        if self.pi is None:
            raise CapabilityError(
                "chain is reducible: no unique stationary distribution")
        return self.pi


def _check_dense(n: int) -> None:
    if n > MAX_DENSE_N:
        raise CapabilityError(
            f"a dense {n} x {n} matrix is above the cap of n={MAX_DENSE_N}")


def _dense(n: int, in_neighbours) -> np.ndarray:
    """The n x n matrix whose entries the in-neighbour table stores."""
    _check_dense(n)
    src, dst, value = _stored_entries(in_neighbours)
    m = np.zeros((n, n))
    m[src, dst] = value
    return m


def _stored_entries(in_neighbours) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, value) of every positive entry, in column-major order:
    the real slots of the in-neighbour table, a prefix of each row."""
    index, weight = in_neighbours
    real = weight > 0.0
    return index[real], np.nonzero(real)[0], weight[real]


def _tables_from(n: int, src: np.ndarray, dst: np.ndarray, value: np.ndarray):
    """(sampling_table, in_neighbours, reverse) of the n-state chain whose
    positive entries are value at (src, dst), listed in row-major order.
    reverse is the column-major order of the entries when the support is
    symmetric, so that entry reverse[k] is entry k's reverse, and None
    otherwise."""
    slot, counts = _slots(src, n)
    last = np.cumsum(counts) - 1
    out_index = np.repeat(dst[last][:, None], counts.max(), axis=1)
    out_index[src, slot] = dst
    cumulative = np.zeros(out_index.shape)
    cumulative[src, slot] = value
    del slot  # each del frees an entry-sized array before the next is allocated
    np.cumsum(cumulative, axis=1, out=cumulative)
    cumulative[np.arange(out_index.shape[1])[None, :] >= counts[:, None] - 1] = 1.0

    order = np.lexsort((src, dst))
    col, row = src[order], dst[order]
    symmetric = np.array_equal(col, dst) and np.array_equal(row, src)
    slot, counts = _slots(row, n)
    in_index = np.zeros((n, counts.max()), dtype=np.intp)
    in_index[row, slot] = col
    del col
    weight = np.zeros(in_index.shape)
    weight[row, slot] = value[order]
    for table in (out_index, cumulative, in_index, weight):
        table.setflags(write=False)
    return (out_index, cumulative), (in_index, weight), order if symmetric else None


def _guide(index: np.ndarray, cum: np.ndarray) -> tuple[np.ndarray, np.ndarray, int,
                                                        np.ndarray | None]:
    """(guide, step, passes, jump) of the sampling table (index, cum), n x width.

    ``guide`` is the guide table (Chen & Asau 1974) of the running sums,
    n x B: cell [u, b] holds the flat position u*width + k of the first
    slot k of row u whose sum exceeds b/B. So k counts the slots whose sum
    is at most b/B, a prefix of the row, and slot k is counted from
    bucket ceil(sum*B) on; sum*B is exact, B being a power of two. The
    table takes the narrowest unsigned dtype holding n*width - 1 and the
    largest B with B x itemsize <= 8 x width, so it never holds more
    bytes than the int64 index table.

    ``step`` is ``index`` times B: the offset of the next vertex's guide
    row, in the narrowest unsigned dtype holding n*B - 1, so it is no
    larger than the index table either.

    ``passes`` bounds the forward moves from a guide cell: the largest
    number of running sums strictly inside one bucket (b/B, (b+1)/B) of
    one row. A uniform u in bucket b starts at the first slot whose sum
    exceeds b/B and passes only sums in (b/B, u], and some u, the largest
    such sum, passes all of them. It is 0 when every sum is a multiple of
    1/B, as for a lazy walk whose degrees divide B/2 (hypercube:8 and
    :16, torus2d:16x16, random-regular:256,4), and 1 when no probability
    is narrower than a bucket, 1/B (hypercube:11 and :12).

    ``jump`` is built only when ``passes`` is 0, since then a uniform's
    guide cell is its slot: ``jump[u, b]`` is ``step.flat[guide[u, b]]``,
    the next guide row offset of cell [u, b], and a batch step is one
    lookup in it. Its n x B entries take step's dtype, at most twice as
    wide as the guide's, so it holds at most twice the guide's bytes, and
    as many on hypercube:16 and random-regular:256,4."""
    n, width = cum.shape
    dtype = np.min_scalar_type(n * width - 1)
    buckets = 1 << (8 * width // dtype.itemsize).bit_length() - 1
    guide = np.zeros((n, buckets), dtype)
    rows = np.arange(n)
    for k in range(width):
        first = np.ceil(cum[:, k] * buckets)
        inside = first < buckets
        guide[rows[inside], first[inside].astype(np.intp)] += 1
    np.cumsum(guide, axis=1, dtype=dtype, out=guide)
    guide += (rows * width).astype(dtype)[:, None]
    scaled = cum * buckets
    floor = np.floor(scaled)
    strict = (floor < scaled) & (scaled < buckets)
    cells = np.flatnonzero(strict) // width * buckets + floor[strict].astype(np.intp)
    passes = int(np.bincount(cells).max(initial=0))
    step = (index * buckets).astype(np.min_scalar_type(n * buckets - 1))
    guide.setflags(write=False)
    step.setflags(write=False)
    if passes:
        return guide, step, passes, None
    jump = step.ravel()[guide]
    jump.setflags(write=False)
    return guide, step, passes, jump


class _WalkTable:
    """The sampling table (index, cum), n x width, as Python tuples, one
    row at a time: cum_rows[u] is row u - 1 of cum and next_rows[u] row
    u - 1 of index plus 1, for u = 1..n, once `fill(u)` has converted
    them; until then, and for u = 0, both are (). The floats are cum's bit
    for bit. Rows with equal sums share one tuple, so the lazy walk on
    hypercube:d holds at most d + 1 rows of sums, one per place of the
    self-loop among the neighbours; and every next vertex v is the one
    int object of v, taken from an object array of 1..n. The two lists
    and that array cost 52 bytes per vertex; each converted row adds its
    tuples, and its sums only if no row before had them."""

    __slots__ = ("cum_rows", "next_rows", "_table", "_sums", "_vertex")

    def __init__(self, index: np.ndarray, cum: np.ndarray):
        self.cum_rows: list[tuple[float, ...]] = [()] * (len(cum) + 1)
        self.next_rows: list[tuple[int, ...]] = [()] * (len(cum) + 1)
        self._table = index, cum
        self._sums: dict[tuple[float, ...], tuple[float, ...]] = {}
        self._vertex = np.arange(1, len(cum) + 1).astype(object)  # Python ints

    def fill(self, u: int) -> None:
        """Convert vertex u's row; IndexError if u has no row or its row
        is converted already."""
        if not 0 < u < len(self.next_rows) or self.next_rows[u]:
            raise IndexError(f"vertex {u} has no row to convert")
        index, cum = self._table
        row = tuple(cum[u - 1].tolist())
        self.cum_rows[u] = self._sums.setdefault(row, row)
        self.next_rows[u] = tuple(self._vertex[index[u - 1]].tolist())


def _slots(row: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(slot, counts) of entries sorted by row: entry e belongs in cell
    [row[e], slot[e]] of a table padded to the longest row, and counts[r]
    is row r's length."""
    counts = np.bincount(row, minlength=n)
    return np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts), counts


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
        return walk_probability(self.chain, self)


def make_walk(chain: TransitionMatrix, vertices) -> Walk:
    verts = _walk_vertices(chain, vertices)
    bad = np.flatnonzero(_step_probabilities(chain, np.array(verts)) <= 0.0)
    if bad.size:
        a, b = verts[bad[0]:bad[0] + 2]
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
    left unset for reducible chains. A graph above MAX_DENSE_N vertices
    raises CapabilityError before the matrix is read; a chain file is read
    from its entries by `chain_from_json` instead, at any size.
    """
    n = graph.n
    _check_dense(n)
    m = np.array(matrix, dtype=float)
    if m.shape != (n, n):
        raise InputError(f"matrix shape {m.shape} does not match n={n}")
    if np.any(m < -1e-15):
        raise InputError("matrix has negative entries")
    src, dst = np.nonzero(~(m <= 0.0))  # positive or NaN; a NaN row fails its sum
    return _chain(graph, src, dst, m[src, dst], pi, kind, vertex_transitive=False)


def _chain(graph: Graph, src: np.ndarray, dst: np.ndarray, value: np.ndarray,
           pi, kind: str, vertex_transitive: bool, stored: bool = False) -> TransitionMatrix:
    """The one construction path: the chain on graph whose entries are
    value at (src, dst), listed in row-major order, each row summing to 1
    within ROW_SUM_TOL. Each row is divided by its `_row_fsums` sum, so two
    rows holding the same entries in any order are divided alike, unless
    they are a chain's `stored` floats read back: a stored row can sum to
    1 within an ulp, and dividing by that sum would move its last bits.
    Entries left at zero are dropped, the support is checked against the
    graph's edges, and the tables, stationary vector and flags are built
    from the entries. No n x n array is formed unless pi must be solved for.
    value is divided in place, and no entry array is copied unless some
    entry is to be dropped, so a caller passes arrays it does not keep."""
    n = graph.n
    try:
        row_sums = _row_fsums(n, src, value)
    except OverflowError:  # a row sums past the largest float: numpy rounds it to inf
        row_sums = np.bincount(src, value, minlength=n)
    bad = np.argmax(np.abs(row_sums - 1.0))  # the first NaN sum, if any
    if not abs(row_sums[bad] - 1.0) <= ROW_SUM_TOL:  # negated, so NaN fails
        raise InputError(
            f"row {bad + 1} sums to {row_sums[bad]:.15g}, not 1 within {ROW_SUM_TOL}")
    if not stored:
        value /= row_sums[src]
    if value.min() <= 0.0:  # a Metropolis move can underflow to 0
        real = value > 0.0
        src, dst, value = src[real], dst[real], value[real]
    _check_support(graph, src, dst)

    *tables, reverse = _tables_from(n, src, dst, value)
    irreducible = _irreducible(tables)

    if pi is not None:
        p = np.array(pi, dtype=float)
        if p.shape != (n,):
            raise InputError("stationary vector has wrong length")
        if not (np.all(p > 0.0) and abs(p.sum() - 1.0) <= ROW_SUM_TOL):  # refuses NaN
            raise InputError("stationary vector must be positive and sum to 1")
        index, weight = tables[1]
        if np.max(np.abs((p[index] * weight).sum(axis=1) - p)) > STATIONARY_TOL:
            raise InputError("supplied stationary vector is not a fixed point")
    elif irreducible:
        p = _solve_stationary(_dense(n, tables[1]))
    else:
        p = None

    if p is not None:
        p.setflags(write=False)
    return TransitionMatrix(n=n, graph=graph, pi=p,
                            flags=_flags(n, src, dst, value, p, irreducible, reverse),
                            sampling_table=tables[0], in_neighbours=tables[1],
                            kind=kind, vertex_transitive=vertex_transitive)


def _row_fsums(n: int, src: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Exactly rounded sums (``math.fsum``; Shewchuk, Discrete Comput. Geom.
    18, 1997) of the rows' entries value, in row-major order with row
    indices src, read as Python floats _FSUM_ROWS rows at a time."""
    counts = np.bincount(src, minlength=n).tolist()
    sums, start = np.empty(n), 0
    for lo in range(0, n, _FSUM_ROWS):
        block = counts[lo:lo + _FSUM_ROWS]
        entries = iter(value[start:(start := start + sum(block))].tolist())
        sums[lo:lo + len(block)] = [math.fsum(islice(entries, c)) for c in block]
    return sums


def _flags(n: int, src: np.ndarray, dst: np.ndarray, value: np.ndarray,
           pi: np.ndarray | None, irreducible: bool,
           reverse: np.ndarray | None = None) -> ChainFlags:
    """(lazy, irreducible, reversible) of the n-state chain whose positive
    entries are value at (src, dst), listed in row-major order, with
    stationary vector pi, None for a reducible chain. Irreducibility is
    passed in because construction needs it before it has pi. Detailed
    balance is checked at the positive entries, each against its reverse
    entry: entry reverse[k] of `_tables_from`'s symmetric support, or else
    one found by binary search and 0 when absent, as a cell zero both ways
    balances."""
    lazy = bool(np.count_nonzero(value[src == dst] >= 0.5 - ROW_SUM_TOL) == n)
    reversible = False
    if pi is not None:
        if reverse is None:
            at, found = _find(src * n + dst, dst * n + src)
            back = np.where(found, value[at], 0.0)
        else:
            back = value[reverse]
        reversible = bool(np.max(np.abs(pi[src] * value - pi[dst] * back))
                          <= DETAILED_BALANCE_TOL)
    return ChainFlags(lazy=lazy, irreducible=irreducible, reversible=reversible)


def _check_support(graph: Graph, src: np.ndarray, dst: np.ndarray) -> None:
    """Refuse the first off-diagonal entry at (src, dst), listed in
    row-major order, that is not an edge of graph. Entries whose
    off-diagonal part is the edges in row-major order pass unsearched."""
    n = graph.n
    off = src != dst
    if np.array_equal(dst[off], graph.indices) and np.array_equal(
            np.bincount(src[off], minlength=n), np.diff(graph.indptr)):
        return
    edge_src, edge_dst = _edge_entries(graph)[:2]
    off_edge = np.flatnonzero(off & ~_find(edge_src * n + edge_dst, src * n + dst)[1])
    if off_edge.size:
        u, v = src[off_edge[0]], dst[off_edge[0]]
        raise InputError(f"positive entry ({u + 1},{v + 1}) is not on a graph edge")


def _find(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, found): for each query, a position in the sorted, nonempty keys,
    and whether keys[at] is that query."""
    at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return at, keys[at] == query


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, as plain np.unique(a)
    returns them; that form imports numpy.ma on its first call in a
    process (about 10 ms and 1.2 MB), and this sort does not."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _irreducible(tables) -> bool:
    """Whether vertex 1 reaches and is reached from every vertex, read from
    the chain's (sampling_table, in_neighbours)."""
    (out_index, _), (in_index, in_weight) = tables
    n, width = out_index.shape
    real = in_weight > 0.0  # a prefix of each row
    in_indptr = np.concatenate(([0], np.cumsum(real.sum(axis=1))))
    return bool(np.all(_bfs(width * np.arange(n + 1), out_index.ravel(), 0)[0] >= 0)
                and np.all(_bfs(in_indptr, in_index[real], 0)[0] >= 0))


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


def _edge_entries(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, degrees): the 0-based ends of g's directed edges in
    row-major order, and every vertex's degree."""
    degrees = np.diff(g.indptr)
    return np.repeat(np.arange(g.n), degrees), g.indices, degrees


def _with_loops(g: Graph, src: np.ndarray, dst: np.ndarray, value: np.ndarray,
                loops: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries value at g's directed edges (src, dst) and loops[u] at
    each (u, u), merged in row-major order."""
    at = g.indptr[:-1] + np.bincount(src[dst < src], minlength=g.n)
    u = np.arange(g.n)
    return np.insert(src, at, u), np.insert(dst, at, u), np.insert(value, at, loops)


def lazy_simple_walk(g: Graph) -> TransitionMatrix:
    """Self-loop 1/2, each neighbor 1/(2 deg); stationary mass deg/(2|E|)."""
    src, dst, degrees = _edge_entries(g)
    entries = _with_loops(g, src, dst, 0.5 / degrees[src], np.full(g.n, 0.5))
    del src  # _chain holds no other copy of the entries
    return _chain(g, *entries, degrees / g.indices.size, "lazy-simple", g.vertex_transitive)


def max_degree_walk(g: Graph) -> TransitionMatrix:
    """Each neighbor 1/(2 d_max), remainder on the self-loop; uniform
    stationary distribution."""
    src, dst, degrees = _edge_entries(g)
    d_max = degrees.max()
    entries = _with_loops(g, src, dst, np.full(src.size, 0.5 / d_max),
                          1.0 - degrees / (2 * d_max))
    del src
    return _chain(g, *entries, np.full(g.n, 1.0 / g.n), "max-degree", g.vertex_transitive)


def metropolis_walk(g: Graph, target) -> TransitionMatrix:
    """Metropolis filter on the lazy simple walk: propose a neighbor with
    probability 1/(2 deg), accept with min(1, t(v) d(u) / (t(u) d(v))); the
    self-loop is 1 minus the exactly rounded sum of the moves. Lazy and
    reversible with stationary distribution equal to the target."""
    n = g.n
    t = np.array(target, dtype=float)
    if t.shape != (n,):
        raise InputError(f"target distribution has length {t.shape}, need {n}")
    if not np.all(t > 0.0):  # negated, so NaN fails
        raise InputError("target distribution entries must be positive")
    if abs(t.sum() - 1.0) > 1e-9:
        raise InputError(f"target distribution sums to {t.sum():.12g}, not 1")
    t = t / t.sum()
    src, dst, degrees = _edge_entries(g)
    accept = np.minimum(1.0, t[dst] * degrees[src] / (t[src] * degrees[dst]))
    move = accept / (2 * degrees[src])
    entries = _with_loops(g, src, dst, move, 1.0 - _row_fsums(n, src, move))
    del src, accept, move
    return _chain(g, *entries, t, "metropolis", vertex_transitive=False)


# ---------------------------------------------------------------------------
# Chain quantities
# ---------------------------------------------------------------------------

def check_properties(P: TransitionMatrix) -> ChainFlags:
    """Recompute (lazy, irreducible, reversible) from the neighbour tables."""
    return _flags(P.n, *_row_major_entries(P), P.pi,
                  _irreducible((P.sampling_table, P.in_neighbours)))


def _row_major_entries(P: TransitionMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, value) of every stored entry, in row-major order."""
    src, dst, value = _stored_entries(P.in_neighbours)
    order = np.lexsort((dst, src))
    return src[order], dst[order], value[order]


def stationary(P: TransitionMatrix) -> np.ndarray:
    """Unique fixed point of the chain; raises for reducible chains."""
    if not P.flags.irreducible:
        raise CapabilityError("stationary distribution requires an irreducible chain")
    return P._pi_or_raise()


def stationary_ratio(P: TransitionMatrix) -> float:
    """max pi / min pi, the heterogeneity of the stationary distribution."""
    pi = P._pi_or_raise()
    return float(pi.max() / pi.min())


def _tv_from_pi(power: np.ndarray, pi: np.ndarray) -> float:
    """Largest TV distance to pi over the rows of power, a 2-D block of
    start rows or one 1-D row, reduced a block of rows at a time in one
    buffer; each row is summed alone, so its sum is the same float as in
    one pass over the whole of power."""
    power = np.atleast_2d(power)
    buffer = np.empty((min(max(1, _TV_BLOCK_CELLS // power.shape[1]), len(power)),
                       power.shape[1]))
    worst = 0.0
    for lo in range(0, len(power), len(buffer)):
        gap = np.subtract(power[lo:lo + len(buffer)], pi, out=buffer[:len(power) - lo])
        worst = max(worst, np.abs(gap, out=gap).sum(axis=-1).max())
    return float(0.5 * worst)


def mixing_time(P: TransitionMatrix, eps: float,
                cap: int = DEFAULT_CAPS["mixing_steps"]) -> int:
    """Smallest t with worst-case TV distance to stationarity at most eps.
    A mixing time above cap raises CapabilityError.

    The worst-case TV distance is nonincreasing in t, so this squares the
    dense matrix until P^(2^K) is within eps, then lifts: for k = K-1 down
    to 0 it multiplies the running power by P^(2^k) and keeps the product
    while its TV stays above eps. The running exponent ends one step short
    of the threshold. Each product is written into the buffer of the
    discarded P^(2^K), or of the running power it replaces, so beside the
    dense view the search holds at most K n x n arrays.

    For a chain marked `vertex_transitive` (the lazy simple and max-degree
    walks on cycle, complete, hypercube and torus graphs) it instead scans
    t = 0, 1, 2, ... on the single row of vertex 1 through the sparse
    `in_neighbours` table, O(nnz) per step. That is exact, not an
    approximation: an automorphism mapping u to w and preserving the chain
    carries the t-step law from u onto the one from w and fixes the
    stationary distribution, so every start is at the same TV distance
    (Levin, Peres and Wilmer, Markov Chains and Mixing Times, ch. 4).
    """
    if not 0 < eps < 0.5:
        raise InputError(f"eps must lie in (0, 1/2), got {eps}")
    if not P.flags.irreducible:
        raise CapabilityError("mixing time requires an irreducible chain")
    pi = P._pi_or_raise()
    over_cap = CapabilityError(f"mixing time exceeds cap {cap} at eps={eps}")
    if P.vertex_transitive:
        x = np.eye(1, P.n)[0]  # 1-D: a (1, n) row steps through the table slower
        index, weight = P.in_neighbours
        for t in range(cap + 1):
            if _tv_from_pi(x, pi) <= eps:
                return t
            x = (x[index] * weight).sum(axis=1)
        raise over_cap

    # TV(P^0) = 1 - min pi >= 1/2 > eps, since n >= 2.
    squares = [P.matrix]  # squares[k] = P^(2^k)
    while _tv_from_pi(squares[-1], pi) > eps:
        if 1 << (len(squares) - 1) >= cap:
            raise over_cap
        squares.append(squares[-1] @ squares[-1])
    spare = squares.pop()  # P^(2^K), the first square within eps
    # Lift t from 2^(K-1), or 0, to the largest exponent still above eps.
    t = (1 << len(squares)) >> 1
    power = squares.pop() if squares else None
    for k in reversed(range(len(squares))):
        lifted = np.matmul(power, squares.pop(), out=spare)
        if _tv_from_pi(lifted, pi) > eps:
            t, power, spare = t + (1 << k), lifted, power
    if t + 1 > cap:
        raise over_cap
    return t + 1


def spectral_gap(P: TransitionMatrix) -> tuple[float, float]:
    """(second-largest eigenvalue, 1 - it) of a reversible chain.

    Lanczos on the symmetrized matrix S = D^(1/2) P D^(-1/2), D = diag(pi),
    whose eigenvalues are P's (Golub and Van Loan, Matrix Computations, the
    chapter on large sparse eigenproblems). A product with S is one gather
    through `in_neighbours`, so no n x n matrix is formed. S's top
    eigenvector sqrt(pi) is deflated: every Lanczos vector is kept
    orthogonal to it, and lambda2 is the largest Ritz value of what is
    left. The basis is kept semi-orthogonal by partial
    reorthogonalization (Simon, Math. Comp. 42, 1984): a recurrence
    estimates how far each new vector has drifted from the earlier ones,
    and only when the estimate passes sqrt(machine eps) is it, and the
    vector after it, orthogonalized twice against all earlier vectors.
    Semi-orthogonality keeps the Ritz values accurate to machine precision
    while sparing the O(kn) pass over the basis at most steps.

    The start vector is fixed, ``default_rng(0).standard_normal(n)`` with
    its sqrt(pi) part removed, so the result is the same in every process.
    Each time the basis fills, before it doubles, the Ritz residual
    |beta_k s_k| of the largest Ritz value is read from the k x k
    tridiagonal matrix by `_top_ritz`, in O(k) work per bisection step;
    with the doubling, all checks together cost about two at the final
    size. The run stops when that residual, which bounds the distance from
    the Ritz value to an eigenvalue, is at most LANCZOS_TOL; when beta_k
    is at most LANCZOS_TOL, i.e. the Krylov space is invariant (one step
    on complete graphs, d on hypercube:d); or after n - 1 steps, the whole
    deflated space. On a slow-mixing chain, such as a path, that takes
    about n steps and an n x n basis, so a basis that would grow past
    MAX_DENSE_N^2 cells, the size of the largest dense matrix, raises
    CapabilityError before it grows; below MAX_DENSE_N vertices it never
    does.
    """
    if not P.flags.reversible:
        raise CapabilityError("spectral gap requires a reversible chain")
    root = np.sqrt(P._pi_or_raise())
    index, weight = P.in_neighbours
    n = P.n
    basis = np.empty((min(n, LANCZOS_BASIS), n))  # grows by doubling
    basis[0] = q0 = root / np.linalg.norm(root)
    w = np.random.default_rng(0).standard_normal(n)
    w -= (q0 @ w) * q0
    b = float(np.linalg.norm(w))
    alpha, beta = np.empty(n), np.empty(n)
    # omega[i] estimates |v_k . v_(i+1)| for the current Lanczos vector v_k
    # (omega[-1] = 1), omega_prev the same for v_(k-1).
    omega, omega_prev = np.ones(1), np.zeros(0)
    fresh = _EPS * math.sqrt(n)  # drift of a newly orthogonalized vector
    forced = False  # orthogonalize this step too, after a triggered one
    for k in range(1, n):
        basis[k] = q = w / b
        # S^T q, which is S q by reversibility.
        w = ((q * root)[index] * weight).sum(axis=1) / root
        if k > 1:
            w -= beta[k - 2] * basis[k - 1]
        alpha[k - 1] = a = float(q @ w)
        w -= a * q
        w -= (q0 @ w) * q0
        b = float(np.linalg.norm(w))
        if b > LANCZOS_TOL and k < n - 1:
            a_k, b_k = alpha[:k - 1], beta[:k - 1]
            drift = b_k * omega[1:] + (a_k - a) * omega[:-1] - beta[k - 2] * omega_prev
            drift[1:] += b_k[:-1] * omega[:-2]
            drift = (drift + np.copysign(_EPS * (b_k + b), drift)) / b
            if forced or (k > 1 and np.abs(drift).max() > math.sqrt(_EPS)):
                for _ in range(2):
                    w -= (basis[:k + 1] @ w) @ basis[:k + 1]
                b = float(np.linalg.norm(w))
                drift[:] = fresh
                forced = not forced
            omega_prev, omega = omega, np.concatenate((drift, [fresh, 1.0]))
        done = b <= LANCZOS_TOL or k == n - 1
        if done or k + 1 == len(basis):
            lambda2, last = _top_ritz(alpha[:k].tolist(), beta[:k - 1].tolist())
            if done or b * last <= LANCZOS_TOL:
                break
        beta[k - 1] = b
        if k + 1 == len(basis):
            rows = len(basis) + min(k + 1, n - k - 1)
            if rows * n > MAX_DENSE_N ** 2:
                raise CapabilityError(
                    f"Lanczos basis of {rows} x {n} after {k} steps is above the dense "
                    f"cap of {MAX_DENSE_N}^2 cells")
            basis = np.concatenate((basis, np.empty((rows - len(basis), n))))
    # A Ritz value never lies below the smallest eigenvalue, so a negative
    # one proves a negative eigenvalue.
    if P.flags.lazy and _eigenvalues_below(
            alpha[:k].tolist(), (beta[:k - 1] ** 2).tolist(), -EIGENVALUE_TOL):
        raise AssertionError("lazy chain has a negative eigenvalue: "
                             f"a Ritz value lies below {-EIGENVALUE_TOL}")
    return lambda2, 1.0 - lambda2


def _pivots(diag: list, off2: list) -> list:
    """Pivots of the LDL^T factorization of the symmetric tridiagonal
    matrix with diagonal `diag` and squared off-diagonal `off2`; a pivot
    that vanishes is replaced by -_PIVMIN, as LAPACK's bisection does."""
    pivots, pivot = [], 1.0
    for a, b2 in zip(diag, [0.0, *off2]):
        pivot = a - b2 / pivot
        if abs(pivot) < _PIVMIN:
            pivot = -_PIVMIN
        pivots.append(pivot)
    return pivots


def _eigenvalues_below(diag: list, off2: list, x: float) -> int:
    """How many eigenvalues of the symmetric tridiagonal matrix with
    diagonal `diag` and squared off-diagonal `off2` lie below x: the
    negative pivots of it shifted by -x (Sturm count); _pivots, unrolled
    for the bisection that calls it ~50 times per Ritz value."""
    count, pivot = 0, 1.0
    for a, b2 in zip(diag, [0.0, *off2]):
        pivot = a - x - b2 / pivot
        if pivot < _PIVMIN:
            if pivot > -_PIVMIN:
                pivot = -_PIVMIN
            count += 1
    return count


def _top_ritz(diag: list, off: list) -> tuple[float, float]:
    """(largest eigenvalue theta, |last entry| of its unit eigenvector) of
    the symmetric tridiagonal matrix T with diagonal `diag` and positive
    off-diagonal `off`, in O(k) work per bisection step.

    theta is bisected to adjacent floats by Sturm counts. The eigenvector
    comes from a twisted factorization of theta - T (Parlett and Dhillon,
    the MRRR eigenvector method): its entries are solved outward from the
    twist index, where the eigenvector is largest, using the top-down
    pivots above it and the bottom-up pivots below it, so every step of
    the solve shrinks the entries and none amplifies rounding. The norm is
    summed in logarithms, since the entries can span hundreds of orders of
    magnitude."""
    k = len(diag)
    off2 = [b * b for b in off]
    pad = [0.0, *off, 0.0]
    lo = max(diag)
    hi = max(a + pad[j] + pad[j + 1] for j, a in enumerate(diag))
    while lo < (mid := (lo + hi) / 2) < hi:
        if _eigenvalues_below(diag, off2, mid) == k:
            hi = mid
        else:
            lo = mid
    shifted = [hi - a for a in diag]
    down = _pivots(shifted, off2)
    up = _pivots(shifted[::-1], off2[::-1])[::-1]
    twist = min(range(k), key=lambda i: abs(down[i] + up[i] - shifted[i]))
    logs = [0.0] * k  # log |entry| / |entry at the twist|
    for i in range(twist - 1, -1, -1):
        logs[i] = logs[i + 1] + math.log(off[i] / abs(down[i]))
    for i in range(twist + 1, k):
        logs[i] = logs[i - 1] + math.log(off[i - 1] / abs(up[i]))
    top = max(logs)
    log_norm = top + 0.5 * math.log(math.fsum(math.exp(2 * (x - top)) for x in logs))
    return hi, math.exp(logs[-1] - log_norm)


def t_mix_bracket(P: TransitionMatrix, eps: float,
                  gap: float | None = None) -> tuple[float, int]:
    """(lower, upper) bounds on mixing_time(P, eps) from the relaxation
    time t_rel = 1 / (1 - lambda2) of a lazy reversible chain:
    (t_rel - 1) ln(1/(2 eps)) and ceil(t_rel ln(1/(eps min pi))) (Levin,
    Peres and Wilmer, Markov Chains and Mixing Times, ch. 12). Laziness
    puts the spectrum in [0, 1], so lambda2 is the largest eigenvalue
    modulus below 1 that both bounds need. A caller that already has
    spectral_gap(P)'s gap passes it as `gap` to save a second solve."""
    lower, upper = _relaxation_bounds(P, eps, gap)
    return lower, math.ceil(upper)


def _relaxation_bounds(P: TransitionMatrix, eps: float,
                       gap: float | None = None) -> tuple[float, float]:
    """t_mix_bracket's two ends, the upper one not yet rounded up."""
    if not 0 < eps < 0.5:
        raise InputError(f"eps must lie in (0, 1/2), got {eps}")
    flags = P.flags
    if not (flags.lazy and flags.reversible and flags.irreducible):
        raise CapabilityError(
            "mixing time bracket requires a lazy, reversible, irreducible chain")
    t_rel = 1.0 / (spectral_gap(P)[1] if gap is None else gap)
    return ((t_rel - 1.0) * math.log(1.0 / (2.0 * eps)),
            t_rel * math.log(1.0 / (eps * P.pi.min())))


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
    bits = [((masks >> np.uint64(u)) & np.uint64(1)).astype(bool) for u in range(n)]
    mass = np.zeros(masks.shape)
    for u in range(n):
        mass += pi[u] * bits[u]
    escape = np.zeros(masks.shape)
    for u, v in zip(*np.nonzero(flow)):
        if u != v:
            escape[bits[u] & ~bits[v]] += flow[u, v]
    keep = mass <= 0.5 + ROW_SUM_TOL
    return float((escape[keep] / mass[keep]).min())


def sample_walk(P: TransitionMatrix, start: int, length: int, seed) -> Walk:
    """Seeded trajectory of the chain; deterministic for a fixed seed."""
    _check_vertex(P.graph, start)
    if length < 0:
        raise InputError("walk length must be nonnegative")
    start = int(start)
    tail = _walk_tail(P, start, length, np.random.default_rng(seed))
    return Walk(vertices=(start, *tail), chain=P)


# Uniforms that _sample_tails draws in one call, rounded to whole steps.
_WALK_BLOCK_CELLS = 1 << 16


def _sample_tails(P: TransitionMatrix, walks: np.ndarray, start: int,
                  rng: np.random.Generator) -> None:
    """Continue one walk per row of walks in place from column `start`.

    One step rule: a step takes the first `sampling_table` slot whose sum
    exceeds a uniform. One block rule: uniforms are drawn step by step,
    walker by walker, in blocks of whole steps, so the stream does not
    depend on the block size. Both rest on ``sum > u`` reading
    False...False True...True along every row for u < 1: the sums never
    decrease except where one rounded above 1.0 drops to the pinned 1.0
    after it. So any search that finds the first True finds the same slot.

    Two loops apply them. This one steps all rows at once in numpy
    through the chain's guide tables (`sampling_guide`, Chen & Asau 1974):
    a walker carries its vertex's guide row offset, v*B, so its uniform u
    selects cell v*B + floor(u*B), the first slot whose sum exceeds
    floor(u*B)/B <= u. It moves forward while its sum is at most u, all
    walkers in one vectorised pass at a time, for at most the guide's
    `passes` passes; then one gather of the step table gives the next
    offset. `passes` is 0 on every chain whose sums are multiples of 1/B,
    such as the lazy walk on a d-regular graph with d dividing B/2; there
    the guide cell is the slot, and a step is one add and one lookup in
    the guide's jump table, which holds the next offset of every cell.
    Each block's offsets are turned into vertices once, at its end. A
    step costs 15-39 ns per walker-step at 250 walkers and 11-32 ns at
    2 000 through the jump table (random-regular:256,4, torus2d:16x16,
    hypercube:16), and 32-61 and 21-34 ns with forward passes
    (hypercube:11 and :12); 1 344 steps, medians of 7 runs, two series.
    A single walk steps in plain Python instead, in `_walk_tail`.
    """
    guide, step, passes, jump = P.sampling_guide
    buckets = guide.shape[1]
    flat_cum = P.sampling_table[1].ravel()
    state = ((walks[:, start] - 1) * buckets).astype(step.dtype)
    # a block's uniforms and their cells take _WALK_BLOCK_CELLS together
    per_block = max(1, _WALK_BLOCK_CELLS // 2 // max(1, state.size))
    for lo in range(start + 1, walks.shape[1], per_block):
        draws = rng.random((min(per_block, walks.shape[1] - lo), state.size))
        cells = np.empty(draws.shape, dtype=step.dtype)
        np.multiply(draws, buckets, out=cells, casting="unsafe")  # floor, u >= 0
        if jump is not None:  # passes == 0: each guide cell is its uniform's slot
            for cell in cells:
                cell += state
                state = jump.take(cell, out=cell)  # out is buffered: cell may alias
        else:
            for u, cell in zip(draws, cells):
                cell += state
                # numpy indexes faster with intp positions than narrow ones
                pos = guide.take(cell).astype(np.intp)
                for _ in range(passes):
                    short = flat_cum[pos] <= u
                    if not np.count_nonzero(short):
                        break
                    pos += short
                state = step.take(pos, out=cell)
        vertices = cells // buckets  # a new array: the next block starts from state, a row of cells
        vertices += 1
        walks[:, lo:lo + len(cells)] = vertices.T


def _walk_tail(P: TransitionMatrix, cur: int, steps: int,
               rng: np.random.Generator) -> list[int]:
    """The next steps vertices of a single walk from vertex cur, 1-based,
    by `_sample_tails`' step and block rules.

    A single walk steps in plain Python, since a numpy call per step
    costs several times the step itself. It bisects the current vertex's
    row of the chain's `walk_table`; bisecting a tuple compares the float
    objects it holds, so no float is made per comparison, as bisecting a
    memoryview of the sampling table did. Once the rows a walk visits
    are converted, a step costs about 130 ns against 270 through the
    memoryviews at hypercube:11, and 240 against 400 and 360 against
    520 at :14 and :16 (walks of the default L, medians of 15 after 21
    walks); at :18, where both read memory far apart, within noise.
    The first step from a vertex finds its row empty, converts it in
    place and takes that step again: about 1.8-2.1 us per row at
    hypercube:11 and 2.6-3.4 at :16 (width 12 and 17), and 0.3-0.5 ms for
    a row of complete:4096, 4 096 wide. A guide step in plain
    Python took 470-930 ns (hypercube:11 and random-regular:256,4), so a
    chain that only walks single walks never builds the guide.
    """
    table = P.walk_table
    cum_rows, next_rows = table.cum_rows, table.next_rows
    tail: list[int] = []
    for lo in range(0, steps, _WALK_BLOCK_CELLS):
        for u in rng.random(min(_WALK_BLOCK_CELLS, steps - lo)).tolist():
            try:
                cur = next_rows[cur][bisect_right(cum_rows[cur], u)]
            except IndexError:  # cur's row is still (): convert it, take the step again
                table.fill(cur)
                cur = next_rows[cur][bisect_right(cum_rows[cur], u)]
            tail.append(cur)
    return tail


def _walk_vertices(P: TransitionMatrix, vertices) -> tuple[int, ...]:
    """The vertices of a walk as Python ints, each checked as it was given:
    converting first would let 1.9 or True pass as a vertex."""
    verts = tuple(vertices)
    if not verts:
        raise InputError("walk must contain at least one vertex")
    for v in verts:
        _check_vertex(P.graph, v)
    return tuple(int(v) for v in verts)


def walk_probability(P: TransitionMatrix, vertices) -> float:
    """Product of the step probabilities along the vertex sequence, taken
    in order; 0.0 if any step is unsupported. A single vertex gives 1.0."""
    verts = (vertices.vertices if isinstance(vertices, Walk)
             else _walk_vertices(P, vertices))
    return math.prod(_step_probabilities(P, np.array(verts)).tolist(), start=1.0)


def _step_probabilities(P: TransitionMatrix, walks: np.ndarray) -> np.ndarray:
    """P[u, v] of each step (u, v) along the last axis of walks, 1-based
    vertices, and 0.0 off the support: the weight at u's slot of v's
    in-neighbour row, the very float the dense view is scattered from."""
    index, weight = P.in_neighbours
    dst = walks[..., 1:] - 1
    at = index[dst] == walks[..., :-1, None] - 1
    return np.where(at, weight[dst], 0.0).sum(axis=-1)


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
    """{"n": int, "entries": [[u, v, p], ...], "pi": [p, ...]?}: every
    stored entry P[u, v] = p > 0, 1-based, in row-major order, with p the
    stored float, so `chain_from_json` rebuilds the same tables. It takes
    O(entries) and never forms the dense view."""
    src, dst, value = _row_major_entries(P)
    doc = {"n": P.n, "entries": [[u, v, p] for u, v, p in zip(
        (src + 1).tolist(), (dst + 1).tolist(), value.tolist())]}
    if P.pi is not None:
        doc["pi"] = P.pi.tolist()
    return doc


def chain_from_json(doc: dict, graph: Graph | None = None) -> TransitionMatrix:
    """Parse `chain_to_json`'s document: u and v JSON integers in 1..n, p a
    JSON number, no (u, v) twice, each p kept as given. As in `make_chain`,
    a p below -1e-15 is refused and one at or below 0 dropped. Without a
    graph, the edges are the positive off-diagonal pairs. It takes
    O(entries), and forms an n x n array only to solve for an absent pi.
    On a vertex-transitive graph, a chain whose stored entries are those of
    `lazy_simple_walk(graph)` bit for bit is marked `vertex_transitive`;
    such a graph is regular, so `max_degree_walk` stores the same ones."""
    try:
        n = json_integer(doc["n"])
        pi = doc.get("pi")
        if pi is not None:
            pi = [json_number(p) for p in pi]
        # row by row into the array, with no list of tuples beside the document
        entries = np.fromiter(((json_integer(u), json_integer(v), json_number(p))
                               for u, v, p in doc["entries"]), dtype=np.dtype((float, 3)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed chain document: {exc}") from exc
    del doc  # the last reference when the caller passed read_json's result
    if graph is not None and n != graph.n:
        raise InputError(f"chain document has n={n}, but the graph has n={graph.n}")
    if n > len(entries):  # so nothing n-sized is built for a short document
        raise InputError(f"{len(entries)} entries cannot fill the {n} rows of a chain")
    u, v, p = entries.T
    outside = (np.minimum(u, v) < 1) | (np.maximum(u, v) > n)
    for bad, what in ((outside, f"has a vertex outside 1..{n}"), (p < -1e-15, "is negative")):
        if np.any(bad):
            a, b, x = entries[np.argmax(bad)].tolist()
            raise InputError(f"entry [{int(a)}, {int(b)}, {x!r}] {what}")
    src, dst = u.astype(np.intp) - 1, v.astype(np.intp) - 1
    order = np.lexsort((dst, src))  # row-major
    key = (src * n + dst)[order]
    twice = np.flatnonzero(key[1:] == key[:-1])
    if twice.size:
        first = order[twice[0]]
        raise InputError(f"pair ({src[first] + 1}, {dst[first] + 1}) is listed twice")
    order = order[p[order] > 0.0]
    src, dst, value = src[order], dst[order], p[order]
    if graph is None:
        off = src != dst
        pairs = _distinct(np.minimum(src, dst)[off] * n + np.maximum(src, dst)[off])
        graph = make_graph(n, np.stack((pairs // n, pairs % n), axis=1) + 1)
    P = _chain(graph, src, dst, value, pi, "custom", vertex_transitive=False, stored=True)
    # The lazy walk on a regular graph is lazy, has degree + 1 entries a row
    # and a uniform pi; only a chain that is so too is compared with it.
    if (graph.vertex_transitive and P.in_neighbours[0].shape[1] == graph.indptr[1] + 1
            and P.flags.lazy and P.pi is not None and P.pi.min() == P.pi.max()
            and all(np.array_equal(a, b) for a, b in zip(
                P.in_neighbours, lazy_simple_walk(graph).in_neighbours))):
        return replace(P, vertex_transitive=True)
    return P


def chain_from_spec(text: str, g: Graph | None = None) -> TransitionMatrix:
    """CLI chain argument: a kind name (requires a graph) or a .json file."""
    if text.endswith(".json"):
        return chain_from_json(read_json(text), graph=g)
    if g is None:
        raise InputError("a graph is required to build a chain by name")
    return build_chain(g, text)
