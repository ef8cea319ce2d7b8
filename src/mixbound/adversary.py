"""Relational-adversary quantities for staircase function families.

The similarity weight between two staircase functions is zero unless
their hidden bits differ, their walks differ, and both walks are good;
otherwise it is the product of the two walk probabilities divided by the
probability of their longest shared head. Summing the weight over a
family gives the mass M; the largest per-vertex mass of distinguishable
pairs gives q; and 0.01 * M/q lower-bounds the randomized query
complexity of the decision problem.

Exact evaluation enumerates the full family and sums over its head
classes, linear in its size, so it runs wherever the family can be
enumerated; the Monte Carlo estimator samples the chain law and scales
to anything the sampler can reach.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .chains import (MAX_DENSE_N, TransitionMatrix, Walk, _sample_tails,
                     _step_probabilities, make_walk)
from .errors import DEFAULT_CAPS, CapabilityError, InputError
from .graphs import _bfs
from .staircase import (
    StaircaseInstance,
    StaircaseParams,
    is_good_walk,
    make_instance,
    sample_good_walk,
)

WITNESS_EXPANSION_CAP = 10 ** 5
LOWER_BOUND_CONSTANT = 0.01


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Staircase instances over one chain and one parameter set: row i of
    ``walks`` (size, L + 1) is instance i's walk and ``bits[i]`` its hidden
    bit, int64 and int8 arrays that the family marks read-only (an array
    of another dtype, or a list, is copied first). ``exhaustive`` marks
    families produced by full enumeration. Families compare by identity.
    A family builds its relation arrays and its head classes the first
    time an exact reader asks for them and holds them, read-only, while it
    lives: relation_mass, distinguishing_mass, the exact report and the
    ratio check of one family share one build, and build no instance."""

    walks: np.ndarray
    bits: np.ndarray
    params: StaircaseParams
    chain: TransitionMatrix
    exhaustive: bool = False

    def __post_init__(self):
        walks, bits = np.asarray(self.walks, dtype=np.int64), np.asarray(self.bits)
        if walks.ndim != 2 or walks.shape[1] != self.params.L + 1:
            raise InputError(f"walks must have shape (size, {self.params.L + 1}), "
                             f"got {walks.shape}")
        if bits.shape != (len(walks),) or np.any((bits != 0) & (bits != 1)):
            raise InputError(f"need a hidden bit, 0 or 1, per walk; got {bits}")
        if np.any(walks[:, 0] != 1) or np.any((walks < 1) | (walks > self.chain.n)):
            raise InputError(f"instance walks must start at vertex 1 and stay in "
                             f"1..{self.chain.n}")
        bits = bits.astype(np.int8, copy=False)
        keys = _row_keys(walks, bits)
        twice = np.flatnonzero(np.bincount(keys)[keys] > 1)
        if twice.size:
            i = twice[0]
            raise InputError(f"duplicate instance {(tuple(walks[i].tolist()), int(bits[i]))}")
        for name, a in (("walks", walks), ("bits", bits)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.bits)

    @functools.cached_property
    def instances(self) -> tuple[StaircaseInstance, ...]:
        """The rows as StaircaseInstance objects, in family order, built
        the first time they are read; the exact path reads the arrays."""
        return tuple(make_instance(Walk(vertices=tuple(verts), chain=self.chain), bit,
                                   self.params)
                     for verts, bit in zip(self.walks.tolist(), self.bits.tolist()))

    @functools.cached_property
    def _relation(self) -> _Relation:
        return _relation_arrays(self.chain, self.params, self.walks, self.bits)

    @functools.cached_property
    def _classes(self) -> _Classes:
        return _class_arrays(self)


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

_UNDERFLOW = ("a head probability underflows to 0.0: the relation weight "
              "p(x) p(y) / p(shared head) cannot be computed in floats")


class _Relation(NamedTuple):
    """What the relation reads of a family's rows, one row per instance."""

    walks: np.ndarray  # (size, L + 1) walk vertices
    bits: np.ndarray  # hidden bits
    good: np.ndarray  # the milestones at params.T are all distinct
    heads: np.ndarray  # (size, m + 1): heads[i, j] the probability of the head through milestone j
    ids: np.ndarray  # (size, m): ids[:, j - 1] equal iff the heads through milestone j are

    def take(self, index) -> _Relation:
        """The rows at index, an integer array or a slice."""
        return _Relation(*(a[index] for a in self))


def _prefix_ids(rows: np.ndarray, ends) -> np.ndarray:
    """ids[:, k]: the rank of each row's prefix rows[:, :ends[k]] among
    the distinct ones (np.unique's inverse), for increasing ends. In one
    lexsort of the rows, a row starts a new prefix through ends[k] where
    it started one through ends[k - 1] or differs from the row before in
    the columns between; the ids count those starts."""
    ids = np.empty((len(rows), len(ends)), dtype=np.min_scalar_type(len(rows)))
    order = np.lexsort(rows.T[::-1])
    starts = np.zeros(len(rows), dtype=bool)
    for k, (begin, end) in enumerate(zip([0, *ends], ends)):
        for c in range(begin, end):  # a column at a time, so no rows-sized copy
            column = rows[order, c]
            starts[1:] |= column[1:] != column[:-1]
        ids[order, k] = np.cumsum(starts, dtype=ids.dtype)
    return ids


def _row_keys(walks: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """One integer per row, equal iff the (walk, bit) rows are."""
    return _prefix_ids(walks, [walks.shape[1]])[:, 0] * np.int64(2) + bits


# Step-probability cells (a float and a bool each) per block of heads.
_HEAD_BLOCK_CELLS = 1 << 18


def _relation_arrays(chain: TransitionMatrix, params: StaircaseParams,
                     walks: np.ndarray, bits: np.ndarray) -> _Relation:
    """The relation's arrays for a family's walks and bits, or for
    relation_weight's two rows. heads[i, j] multiplies row i's steps in
    order, as walk_probability does, so it is the probability of the head
    through milestone j bit for bit; the steps are read a block of rows
    at a time, so no (size, L, in-degree) temporary is held."""
    T, L = params.T, params.L
    heads = np.ones((len(walks), params.m + 1))
    step = max(1, _HEAD_BLOCK_CELLS // max(L * chain.in_neighbours[0].shape[1], 1))
    for s in range(0, len(walks), step):
        steps = np.cumprod(_step_probabilities(chain, walks[s:s + step]), axis=-1)
        heads[s:s + step, 1:] = steps[:, T - 1::T]
    rel = _Relation(walks, bits, _good_rows(walks, T), heads,
                    _prefix_ids(walks, range(T + 1, L + 2, T)))
    for a in rel:
        a.setflags(write=False)
    return rel


def _head_index(A: _Relation, B: _Relation) -> np.ndarray:
    """J[a, b]: the shared head index of row a of A and row b of B, as
    shared_head_index finds it, in the narrowest unsigned dtype. Heads
    through milestone j are equal iff their ids are, and equal heads
    through j imply equal heads before it, so J counts the equal ids."""
    m = A.ids.shape[1]
    J = np.zeros((len(A.bits), len(B.bits)), dtype=np.min_scalar_type(m))
    for j in range(m):
        J += A.ids[:, j, None] == B.ids[:, j]
    return J


def _relation_block(A: _Relation, B: _Relation) -> np.ndarray:
    """r for every row a of A against every row b of B: the relation
    weight p(a) p(b) / p(shared head), computed in that order, the shared
    head's index J from _head_index. r is 0.0 where the bits are equal,
    where J = m (the same walk) or where either walk is bad; elsewhere the
    pair is related, and a related pair whose shared head underflowed to
    0.0 raises CapabilityError. The library's only relation path."""
    J = _head_index(A, B)
    related = A.bits[:, None] != B.bits
    related &= J < A.ids.shape[1]
    related &= A.good[:, None] & B.good
    shared = np.take_along_axis(B.heads.T, J, 0)
    shared[~related] = np.inf  # so that an unrelated pair's weight is 0.0
    if np.any(shared == 0.0):
        raise CapabilityError(_UNDERFLOW)
    r = A.heads[:, -1, None] * B.heads[:, -1]
    r /= shared
    return r


def relation_weight(a: StaircaseInstance, b: StaircaseInstance) -> float:
    """Similarity weight r between two instances, the one cell of
    _relation_block; exactly symmetric because the shared head is the same
    sequence in both walks. A shared head whose probability underflowed to
    0.0 raises CapabilityError. Each call builds the relation arrays of
    its two instances, 200-240 us per call on K4 (a 2-vCPU VM), so a
    caller looping over the pairs of a family reads family._relation once
    and passes blocks of its rows to _relation_block instead."""
    if a.params != b.params:
        raise InputError("instances come from different parameter sets")
    if a.walk.chain is not b.walk.chain:
        raise InputError("instances come from different chains")
    rel = _relation_arrays(a.chain, a.params, np.array([a.walk.vertices, b.walk.vertices]),
                           np.array([a.bit, b.bit]))
    return float(_relation_block(rel.take([0]), rel.take([1]))[0, 0])


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def _family_bytes(walks: int, params: StaircaseParams) -> int:
    """A bound on the bytes the exact path holds at its peak, in
    _class_arrays, on an enumerated family of this many walks, two rows
    each. Held throughout: per row its walk, bit, goodness, heads and head
    ids (4 bytes each at most). The classes: at level j, per walk its
    class and head (12 bytes), and per event (up to L - j*T per walk) its
    walk and bucket and its bucket's and cell's indexes, 23 bytes at most.
    While they are built: per walk five 8-byte indexes, and the larger of
    two transients. One is a level's events at 40 bytes each (the narrow
    event arrays beside either the int64 positions and vertices they come
    from, or the int64 sort key, its argsort order, the sorted key and the
    run indexes), with level 0's copy of the walks and their flags; the
    other is the per-walk sums of the masses, 176 bytes."""
    L, m, T = params.L, params.m, params.T
    per_row = 8 * (L + 1) + 2 + 8 * (m + 1) + 4 * m
    levels = 12 * m + 23 * (m * L - T * m * (m - 1) // 2)
    build = 40 + max(9 * (L + 1) + 40 * L, 176)
    return walks * (2 * per_row + levels + build)


def enumerate_family(P: TransitionMatrix, params: StaircaseParams,
                     cap: int = DEFAULT_CAPS["enumeration"]) -> FunctionFamily:
    """All walks of length L from vertex 1 with positive step probabilities,
    crossed with both hidden bits: the walks in increasing lexicographic
    order, each once with bit 0 and then with bit 1, read from the sampling
    table through numpy. Aborts once the walk count passes the cap, or
    once the arrays the exact path would hold for that many walks
    (_family_bytes) pass MAX_DENSE_N^2 * 8 bytes (2 GiB, the largest dense
    matrix the library admits), both before any walk is built; use the
    Monte Carlo estimator beyond that."""
    # The distinct successors of each vertex, 1-based, 0 padding a row:
    # real slots increase and padding repeats a row's last real neighbour,
    # so a slot equal to the one before it is padding.
    table = P.sampling_table[0] + 1
    table[:, 1:][table[:, 1:] == table[:, :-1]] = 0
    # Walks ending at each vertex, counted level by level before any walk
    # is built. Every row has a successor, so the total never falls and
    # the count can stop at the first level that passes the cap; the float
    # counts stay exact, far below 2^53.
    ends = np.zeros(P.n)
    ends[0] = 1.0
    for _ in range(params.L):
        if ends.sum() > cap:
            break
        live = np.flatnonzero(ends)
        ends = np.bincount(table[live].ravel(), np.repeat(ends[live], table.shape[1]),
                           P.n + 1)[1:]
    count = int(ends.sum())
    if count > cap:
        raise CapabilityError(
            f"family exceeds enumeration cap {cap}; "
            "use the Monte Carlo estimator instead")
    held = _family_bytes(count, params)
    if held > MAX_DENSE_N ** 2 * 8:
        raise CapabilityError(
            f"family of {count} walks would hold about {held / 2 ** 30:.1f} GiB, over the "
            f"{MAX_DENSE_N ** 2 * 8 / 2 ** 30:.0f} GiB of the largest dense matrix; "
            "use the Monte Carlo estimator instead")
    # Level by level: each walk, in order, is followed by each successor
    # of its end, in increasing order (as the sampling table lists them),
    # so the walks of every level stay in lexicographic order.
    walks = np.ones((1, 1), dtype=np.int64)
    for _ in range(params.L):
        nxt = table[walks[:, -1] - 1]
        keep = nxt > 0
        walks = np.column_stack((np.repeat(walks, keep.sum(axis=1), axis=0), nxt[keep]))
    return FunctionFamily(walks=np.repeat(walks, 2, axis=0),
                          bits=np.tile(np.array([0, 1], dtype=np.int8), len(walks)),
                          params=params, chain=P, exhaustive=True)


# ---------------------------------------------------------------------------
# Head classes: the exact sums, linear in the family
# ---------------------------------------------------------------------------

class _Level(NamedTuple):
    """Level j < m of a family's head classes, over its distinct walks. A
    class is a head through milestone j; two walks of a class whose next
    segments differ share exactly that head. An event is a walk's last
    occurrence pos of a vertex v after position j*T, in its tail; the
    events of one (v, class, pos) form a bucket, and the buckets of one
    (v, class) a cell. A walk of the class with no event at v has v's
    last occurrence in the shared head, or none: one key for all of them."""

    cls: np.ndarray  # (walks,) each walk's class
    heads: np.ndarray  # (classes,) h_C, inf where it underflowed (no good walk there)
    walk: np.ndarray  # (events,) each event's walk, the events in bucket order
    bucket: np.ndarray  # (events,) each event's bucket
    cell: np.ndarray  # (buckets,) each bucket's cell
    end: np.ndarray  # (buckets,) the bucket's walks end at v: pos = L
    cell_cls: np.ndarray  # (cells,) each cell's class
    cell_vertex: np.ndarray  # (cells,) each cell's v - 1
    parent: np.ndarray  # (cells,) the cell of the same v and the parent class (level j - 1)


class _Classes(NamedTuple):
    """What the exact sums read of a family, built once per family; no
    part depends on the subset being summed."""

    walk: np.ndarray  # (size,) each row's distinct walk
    weights: np.ndarray  # (2, size) p(x) of the good bit-0 rows, and of the good bit-1 rows
    levels: tuple[_Level, ...]  # levels 0..m - 1
    mass: np.ndarray  # relation mass of each instance, family order


def _narrow(a: np.ndarray) -> np.ndarray:
    """An index array in the narrowest unsigned dtype that holds it; other
    arrays as they are."""
    if a.dtype != np.int64:
        return a
    return a.astype(np.min_scalar_type(int(a.max(initial=0))))


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a sorted key: each element's run index, and each run's key."""
    starts = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    return np.cumsum(starts) - 1, key[starts]


def _bin_sums(ids: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """(draws, count): each row of weights (draws, len(ids)) summed by ids.
    np.bincount adds each bin's terms in order, so a row's sums are the
    same bits whatever the batch around it."""
    draws = len(weights)
    if draws > 1:
        ids = ids + count * np.arange(draws)[:, None]
    return np.bincount(ids.ravel(), weights.ravel(),
                       minlength=draws * count).reshape(draws, count)


def _parting(within: np.ndarray, children: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """The weight of the pairs of a class that part at its level: the
    class's pairs less those inside one child class, over its head."""
    return (within - children) / heads


def _class_arrays(family: FunctionFamily) -> _Classes:
    """Build the head classes of a family from its relation arrays; an
    exact reader takes them from family._classes, which calls this once
    per family. Refuses when a head of a good instance underflowed to
    0.0. A walk's events come from comparing each position with the later
    ones, O(size·L^2) time with no factor of n; the levels hold each event
    at most m times, O(size·L·m) bytes."""
    rel, params = family._relation, family.params
    T, L, m = params.T, params.L, params.m
    if np.any(rel.heads[rel.good] == 0.0):
        raise CapabilityError(_UNDERFLOW)
    walk = rel.ids[:, -1].astype(np.int64) if m else np.zeros(len(family), dtype=np.int64)
    first = np.zeros(int(walk.max(initial=-1)) + 1, dtype=np.int64)
    first[walk] = np.arange(len(walk))  # a row of each walk, any one
    walks = rel.walks[first]
    last = np.ones(walks.shape, dtype=bool)
    for t in range(L):
        last[:, t] = ~np.any(walks[:, t + 1:] == walks[:, t, None], axis=1)
    event_walk, pos = np.nonzero(last[:, 1:])
    pos += 1
    vertex = _narrow(walks[event_walk, pos] - 1)
    event_walk, pos = _narrow(event_walk), _narrow(pos)
    del walks, last
    levels: list[_Level] = []
    cls = np.zeros(len(first), dtype=np.int64)
    above, above_count = np.zeros(0, dtype=np.int64), 1  # level 0 has no parent
    for j in range(m):
        up, cls = cls, rel.ids[first, j - 1].astype(np.int64) if j else cls
        count = int(cls.max(initial=-1)) + 1
        h = np.empty(count)
        h[cls] = rel.heads[first, j]
        h[h == 0.0] = np.inf
        tail = pos > j * T
        key = vertex[tail].astype(np.int64)  # each step in place, so one key is held
        key *= count
        key += cls[event_walk[tail]]
        key *= L + 1
        key += pos[tail]
        order = np.argsort(key, kind="stable")  # walk order within a bucket
        key = key[order]
        bucket, key = _runs(key)
        cell, cell_key = _runs(key // (L + 1))
        cell_vertex, cell_cls = np.divmod(cell_key, count)
        # the cell of the same vertex and the parent class, among the
        # sorted cell keys of the level above
        parent_cls = np.zeros(count, dtype=np.int64)
        parent_cls[cls] = up
        parent = np.searchsorted(above, cell_vertex * above_count + parent_cls[cell_cls])
        above, above_count = cell_key, count
        levels.append(_Level(*map(_narrow, (cls, h, event_walk[tail][order], bucket, cell,
                                            key % (L + 1) == L, cell_cls, cell_vertex,
                                            parent))))
    weights = np.stack((rel.bits == 0, rel.bits == 1)) * (rel.heads[:, -1] * rel.good)
    # an instance's mass: p(x) times, at each level, the opposite-bit weight
    # of its class less its child's, over the class's head
    sums = _bin_sums(walk, weights, len(first))
    below, per_walk = sums, np.zeros(sums.shape)
    for lv in reversed(levels):
        here = _bin_sums(lv.cls, sums, len(lv.heads))[:, lv.cls]
        per_walk += _parting(here, below, lv.heads[lv.cls])
        below = here
    mass = weights[0] * per_walk[1, walk] + weights[1] * per_walk[0, walk]
    walk = _narrow(walk)
    for a in (walk, weights, mass, *(a for lv in levels for a in lv)):
        a.setflags(write=False)
    return _Classes(walk, weights, tuple(levels), mass)


def _told_sums(classes: _Classes, inside: np.ndarray, n: int) -> np.ndarray:
    """(draws, n): for each row of inside, a (draws, size) mask of a subset
    Z, half of each q_v(Z): the weight of the pairs of a good bit-0 and a
    good bit-1 row of Z told apart at vertex v + 1, summed per level and
    cell from the bucket sums of the rows with an event there. A row is
    told apart from every row of its class with another key (v's last
    occurrence), and a row that ends at v from every row; the class's rows
    with no event share one key. So a cell sums A_b·(B_C - B_b) over its
    buckets, plus A_rest·B_events, where a bucket or the rest that holds
    all of the class's weight gives a factor of 0.0 exactly. The pairs
    inside one child class are subtracted level by level, the twin rows
    of a walk that ends at v at the last level, so a vertex that tells no
    related pair apart gets 0.0 exactly: q_v is never computed as M less
    the pairs not told apart."""
    draws, levels = len(inside), classes.levels
    q = np.zeros((draws, n))
    if not levels:
        return q
    A, B = (_bin_sums(classes.walk, inside * w, len(levels[0].cls))
            for w in classes.weights)
    below = None
    for j in reversed(range(len(levels))):
        lv = levels[j]
        cells = len(lv.cell_cls)
        AC, BC = (_bin_sums(lv.cls, X, len(lv.heads)) for X in (A, B))
        Ab, Bb = (_bin_sums(lv.bucket, X[:, lv.walk], len(lv.cell)) for X in (A, B))
        told = _bin_sums(lv.cell, Ab * (BC[:, lv.cell_cls[lv.cell]] - Bb * ~lv.end), cells)
        told += (AC[:, lv.cell_cls] - _bin_sums(lv.cell, Ab, cells)) * _bin_sums(
            lv.cell, Bb, cells)
        if below is None:
            ends = lv.end[lv.bucket]
            twins = lv.walk[ends]
            children = _bin_sums(lv.cell[lv.bucket[ends]], A[:, twins] * B[:, twins], cells)
        else:
            children = _bin_sums(levels[j + 1].parent, below, cells)
        q += _bin_sums(lv.cell_vertex, _parting(told, children, lv.heads[lv.cell_cls]), n)
        below = told
    return q


def _indices_in(family: FunctionFamily, subset) -> np.ndarray:
    """The family positions of subset's members (a FunctionFamily or
    StaircaseInstances of the family's chain and parameters), in order."""
    members = [subset] if isinstance(subset, FunctionFamily) else list(subset)
    if any(s.chain is not family.chain or s.params != family.params for s in members):
        raise InputError("subset comes from another chain or parameter set than the family")
    if isinstance(subset, FunctionFamily):
        walks, bits = subset.walks, subset.bits
    else:
        walks = np.array([inst.walk.vertices for inst in members],
                         dtype=np.int64).reshape(len(members), family.params.L + 1)
        bits = np.array([inst.bit for inst in members], dtype=np.int8)
    keys = _row_keys(np.concatenate((family.walks, walks)), np.concatenate((family.bits, bits)))
    position = np.full(keys.max(initial=0) + 1, -1)
    position[keys[:len(family)]] = np.arange(len(family))
    out = position[keys[len(family):]]
    if np.any(out < 0):
        raise InputError("subset instance is not part of the family")
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
    picked = X._classes.mass[_indices_in(X, Z)].tolist()
    return MassResult(total=math.fsum(picked), per_instance=tuple(picked))


@dataclass(frozen=True)
class DistinguishingMass:
    q: float
    argmax_vertex: int
    per_vertex: tuple[float, ...]  # indexed by vertex - 1


# q_v within this relative distance of the largest counts as a tie
_TIE = 1e-12


def _largest(per_vertex: np.ndarray) -> DistinguishingMass:
    """q, the largest per-vertex mass, and its vertex: the smallest vertex
    whose mass is within _TIE relative of q, so that vertices tied in exact
    arithmetic (K6's 2-6) do not part on rounding."""
    per_vertex = tuple(per_vertex.tolist())
    best = max(per_vertex)
    argmax = next(v for v, q in enumerate(per_vertex, 1) if q >= best * (1.0 - _TIE))
    return DistinguishingMass(q=best, argmax_vertex=argmax, per_vertex=per_vertex)


def distinguishing_mass(Z, X: FunctionFamily | None = None) -> DistinguishingMass:
    """q(Z): the largest, over vertices, total weight of pairs in Z whose
    decision functions disagree there, summed over the head classes of
    the parent family (_told_sums). argmax_vertex is the smallest vertex
    whose mass is within 1e-12 relative of q."""
    if X is None:
        if not isinstance(Z, FunctionFamily):
            raise InputError("pass a FunctionFamily or supply the parent family")
        X = Z
    inside = np.zeros((1, len(X)), dtype=bool)
    inside[0, _indices_in(X, Z)] = True
    return _largest(2.0 * _told_sums(X._classes, inside, X.chain.n)[0])


def exact_lower_bound(P: TransitionMatrix, params: StaircaseParams,
                      cap: int = DEFAULT_CAPS["enumeration"]) -> AdversaryReport:
    """Evaluate M, q, and the 0.01 * M/q bound on the full enumerated
    family. This reports one witness value of the adversary minimand (the
    whole family), not the minimum over subsets. Enumerates the family
    and reads its head classes with _exact_report, which a caller holding
    an enumerated family calls directly. The enumeration is the only
    limit: M and q cost O(size·L·m) time, with no pair-shaped array."""
    return _exact_report(enumerate_family(P, params, cap=cap))


def _exact_report(family: FunctionFamily) -> AdversaryReport:
    """exact_lower_bound's report on an enumerated family: M is the fsum
    of the per-instance masses, as relation_mass(X, X) sums them, and q is
    distinguishing_mass(X)'s, bit for bit."""
    P, params, classes = family.chain, family.params, family._classes
    M = math.fsum(classes.mass.tolist())
    dmass = _largest(2.0 * _told_sums(classes, np.ones((1, len(family)), dtype=bool), P.n)[0])
    if dmass.q <= 0.0:
        raise CapabilityError(
            "degenerate family: no vertex distinguishes any related pair "
            "(all walks bad or family too small)")
    ratio = M / dmass.q
    good = int(family._relation.good.sum())
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


# Cells in one block: draws times instances in a chunk of the ratio check,
# and pairs in a block of verify's symmetry check
_SUM_BLOCK_CELLS = 1 << 14


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
    of the enumerated family with q(Z) > 0. Each attempt draws the subset
    size with rng.integers, then its members with rng.choice; a draw with
    q(Z) = 0 is rejected, and the check gives up after max(20 * subsets,
    100) attempts. The count is checked before the family is enumerated;
    the family's head classes are then read by _ratio_check, which a
    caller holding an enumerated family calls directly.

    q is summed for a chunk of at most max(1, _SUM_BLOCK_CELLS // size)
    draws at once: the classes do not depend on the subset, which only
    re-weights the rows, so a chunk is a few np.bincount calls over
    (chunk, walks) and (chunk, events) weights (_told_sums), and each
    draw's sums are the bits one distinguishing_mass call gives. M(Z) is
    the fsum of the members' masses. Beyond the classes, memory is
    O(chunk * size * L) bytes per chunk."""
    subsets = _check_count("subsets", subsets)
    return _ratio_check(enumerate_family(P, params, cap=cap), subsets, seed)


def _ratio_check(family: FunctionFamily, subsets: int, seed) -> RatioCheckResult:
    """ratio_property_check on an enumerated family."""
    subsets = _check_count("subsets", subsets)
    classes = family._classes
    threshold = ratio_floor(family.params)
    rng = np.random.default_rng(seed)
    size = len(family)
    mass = classes.mass
    step = max(1, _SUM_BLOCK_CELLS // size)
    checked = attempts = worst_size = 0
    min_ratio = math.inf
    max_attempts = max(subsets * 20, 100)
    while checked < subsets:
        # no more draws than could be needed or allowed
        chunk = min(step, subsets - checked, max_attempts - attempts)
        if chunk == 0:
            if checked == 0:
                raise CapabilityError(
                    f"no subset with positive q found in {max_attempts} draws")
            break
        attempts += chunk
        # per attempt, as before the draws were chunked: the size, then the members
        draws = [rng.choice(size, size=int(rng.integers(2, size + 1)), replace=False)
                 for _ in range(chunk)]
        inside = np.zeros((chunk, size), dtype=bool)
        for s, members in enumerate(draws):
            inside[s, members] = True
        largest = 2.0 * _told_sums(classes, inside, family.chain.n).max(axis=1)
        for s, members in enumerate(draws):
            q = float(largest[s])
            if q <= 0.0:
                continue
            ratio = math.fsum(mass[members].tolist()) / q
            checked += 1
            if ratio < min_ratio:
                min_ratio = ratio
                worst_size = members.size
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
    zs = np.empty(xs.shape, dtype=xs.dtype)  # C order, also for a broadcast xs
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
    indices, which a fancy-index assignment is not. Its positions are a
    flat tiled copy, not one broadcast row: numpy 2.4 takes maximum.at's
    fast path only for a 1-D index with as many values, so a row passed
    through np.broadcast_to runs 3-5 times slower, and a bare row against
    a 2-D index reads past the row's end (wrong, varying results)."""
    count, width = walks.shape
    last = np.full(count * n, -1, dtype=np.int64)
    keys = (np.arange(count) * n - 1)[:, None] + walks  # the row offsets carry the -1
    np.maximum.at(last, keys.ravel(), np.tile(np.arange(width), count))
    return last.reshape(count, n)


# Rows of last-occurrence arrays built at once are capped so that a chunk
# holds about this many cells, whatever the sample count.
_DIFF_CHUNK_CELLS = 1 << 18


def _difference_counts(rows: np.ndarray, xs: np.ndarray, zs: np.ndarray,
                       J: np.ndarray, T: int, n: int) -> np.ndarray:
    """counts[v - 1]: how many rows i in rows have decision functions of
    x_i and z_i that disagree at vertex v, that is where v's last
    occurrence differs or v ends either walk. x_i and z_i share columns
    0..J[i]*T, so only their tails, from column J[i]*T + 1 on, are read: a
    vertex in neither tail has the same last occurrence in both walks, and
    one in a single tail differs, as it is absent (-1) from the other.
    Rows are taken by milestone, in chunks, so memory stays
    O(_DIFF_CHUNK_CELLS)."""
    counts = np.zeros(n, dtype=np.int64)
    chunk = max(1, _DIFF_CHUNK_CELLS // max(n, xs.shape[1]))
    milestones = J[rows]
    # bincount, not np.unique, whose first call imports numpy.ma (about 10 ms)
    for j in np.flatnonzero(np.bincount(milestones)).tolist():
        group, tail = rows[milestones == j], slice(j * T + 1, None)
        for lo in range(0, group.size, chunk):
            part = group[lo:lo + chunk]
            diff = _last_occurrence(xs[part, tail], n) != _last_occurrence(zs[part, tail], n)
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

    J = rng.integers(0, m, samples)
    zs, hit = _redraw(P, xs, J, T, rng)
    hit &= x_good
    m_hat, m_se = _credited_mean(int(hit.sum()), samples, 2.0 * m)

    # vertex_hits[v - 1]: hits whose x and z are told apart at vertex v
    vertex_hits = _difference_counts(np.flatnonzero(hit), xs, zs, J, T, P.n)
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
    # _redraw only reads xs, so every row can be a view of the one walk
    x = np.array(sample_good_walk(P, params, rng).vertices, dtype=np.int32)
    xs = np.broadcast_to(x, (samples, x.size))
    return [_credited_mean(int(_redraw(P, xs, np.full(samples, j), T, rng)[1].sum()),
                           samples, 1.0)
            for j in range(m)]


# ---------------------------------------------------------------------------
# Constructive witness
# ---------------------------------------------------------------------------

def _padded_path(parent: np.ndarray, u: int, w: int, T: int) -> list[int]:
    """The T vertices after u on a shortest path u -> w, read from the
    parents of a BFS from u and padded with self-loops at u."""
    path = [w]
    while path[-1] != u:
        path.append(int(parent[path[-1] - 1]) + 1)
    return [u] * (T + 1 - len(path)) + path[-2::-1]


def witness_pair(P: TransitionMatrix, params: StaircaseParams) -> FunctionFamily:
    """Two good walks that share their head through the next-to-last
    milestone, end at distinct vertices, and carry opposite bits: a
    two-element family with positive distinguishing mass.

    A depth-first search over milestones that holds one depth-T BFS at a
    time (on a lazy chain, within T hops is reachable in exactly T steps).
    Each pass takes, from the last milestone, the smallest vertex in reach
    above the cursor that is not yet a milestone, and extends x by the
    shortest path to it, padded with self-loops; a dead end pops the
    milestone into the cursor. At the last level x and y end at the two
    smallest free vertices. Refuses L = 0, a search past
    WITNESS_EXPANSION_CAP candidates, and too few vertices in reach."""
    if not P.flags.lazy:
        raise CapabilityError("witness construction requires a lazy chain")
    T, m = params.T, params.m
    if m < 1:
        raise CapabilityError(f"no milestone to part at: L={params.L} holds no segment of T={T}")
    index = P.sampling_table[0]
    indptr = index.shape[1] * np.arange(P.n + 1)
    stones, x_verts = [1], [1]
    after = expansions = 0
    while True:
        u, last = stones[-1], len(stones) == m
        dist, parent = _bfs(indptr, index.ravel(), u - 1, depth=T)
        reach = dist >= 0
        reach[:after] = False  # vertices up to the cursor were tried
        reach[np.array(stones) - 1] = False
        free = (np.flatnonzero(reach)[:2] + 1).tolist()
        expansions += bool(free)  # the candidate tried counts once
        if expansions > WITNESS_EXPANSION_CAP:
            raise CapabilityError(f"witness search exceeded {WITNESS_EXPANSION_CAP} expansions")
        if len(free) > last:  # the last level needs a second end for y
            x_verts += _padded_path(parent, u, free[0], T)
            if last:
                y_verts = x_verts[:-T] + _padded_path(parent, u, free[1], T)
                break
            stones.append(free[0])
            after = 0
        elif len(stones) > 1:
            after = stones.pop()
            del x_verts[-T:]
        else:
            raise CapabilityError(
                "witness construction failed: not enough vertices reachable "
                f"within T={T} steps to place {m + 1} distinct milestones")

    x_walk = make_walk(P, x_verts)
    y_walk = make_walk(P, y_verts)
    if not (is_good_walk(x_walk, T) and is_good_walk(y_walk, T)):
        raise AssertionError("witness walks must be good by construction")
    return FunctionFamily(walks=np.array([x_walk.vertices, y_walk.vertices]),
                          bits=np.array([0, 1]), params=params, chain=P)


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
    # each check negated, so NaN fails; infinities fail the upper ends
    if not 2 <= n < math.inf:
        raise InputError(f"need a finite n >= 2, got {n}")
    if not 0 < t_mix < math.inf:
        raise InputError(f"mixing time must be positive and finite, got {t_mix}")
    if not 0 < sigma < math.inf:
        raise InputError(f"sigma must be positive and finite, got {sigma}")
    if lambda2 is not None and not -1.0 <= lambda2 < 1.0:
        raise InputError(f"lambda2 must lie in [-1, 1), got {lambda2}")
    if beta is not None and not 0 < beta < math.inf:
        raise InputError(f"edge expansion must be positive and finite, got {beta}")
    if d_max is not None and not 1 <= d_max < math.inf:
        raise InputError(f"d_max must be at least 1 and finite, got {d_max}")
    root = math.sqrt(n)
    log_n = math.log(n)
    try:
        blowup = math.exp(3.0 * sigma)
    except OverflowError:  # past the largest float: the shapes that divide by it read 0.0
        blowup = math.inf
    values = {"mixing": root / (t_mix * blowup)}
    if lambda2 is not None:
        gap = 1.0 - lambda2
        values["spectral"] = gap * root / (log_n * blowup)
        values["spectral_bounded_ratio"] = gap * root / log_n
        values["spectral_log_squared"] = gap * root / (log_n ** 2)
    if beta is not None and d_max is not None:
        values["expansion"] = beta * root / (d_max * log_n ** 2)
    return values
