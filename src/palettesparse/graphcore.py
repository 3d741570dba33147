"""Graph representation, locally sparse instance generators, and audits.

A `Graph` is CSR arrays: row offsets `indptr` and the concatenated sorted
neighbor rows `indices`, plus the lexicographic edge arrays. It is built
from an edge array or any iterable of pairs in one vectorized pass
(`check_pairs` validates ids, self-loops and repeats) and holds O(n + m)
words; accessors are views and binary searches, not loops. A subgraph is
cut from its parent's CSR rows through the parent's slot table (`keep`),
with no sort, and not validated again.

Every dedupe and stable order in the package is `distinct`, `first_seen`,
`ranked` or `stable_order`: `np.unique`'s and a stable `np.argsort`'s
answers from one `np.sort` (of key-index packs when an order is needed),
skipped when the keys already ascend, as edge lists mostly do.

Graph, cover and lists files are read by `_Ints`, one pass of array
operations over a file's bytes that finds the first line holding a bad
token; `load_graph`, `cover.load_cover` and `cli._load_lists` check their
formats with masks over its token values and per-line token counts.

A graph is *k-locally-sparse* when every vertex neighborhood induces at most
k edges (triangle-free graphs are the k = 0 case). `local_sparsity` reports
the exact per-vertex neighborhood edge counts, which are per-vertex triangle
counts, from one degree-ordered wedge count in O(n + m) memory, at most
once per graph (the report is kept on it). The generators guarantee their
output by auditing rather than by construction alone, and hand the report
over with the graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ._rng import TAG_GEN, substream

__all__ = [
    "Graph",
    "GraphError",
    "GenerationError",
    "SparsityReport",
    "local_sparsity",
    "max_degree",
    "gen_locally_sparse",
    "gen_bipartite",
    "save_graph",
    "load_graph",
]


class GraphError(ValueError):
    """Malformed graph input (self-loop, duplicate edge, bad vertex id)."""


class GenerationError(RuntimeError):
    """Generator could not meet the requested (delta, k) within its attempts."""


def _offsets(lens: np.ndarray) -> np.ndarray:
    """Row offsets (n + 1 of them) of rows with lengths `lens`."""
    indptr = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return indptr


def _sorted(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the 1-D int keys ascending, the stable order that sorts them): as
    they are when they ascend, else one `np.sort` of (key - min) * N + index
    for N int64 keys, split by `split`, or a stable argsort past int64."""
    size = keys.size
    if (keys[1:] >= keys[:-1]).all():
        return keys, np.arange(size)
    lo = int(keys.min())
    if keys.dtype != np.int64 or (int(keys.max()) - lo + 1) * size >= 2 ** 63:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    # in place, so that few N-word temporaries are alive at once
    packed = keys - lo
    packed *= size
    packed += np.arange(size)
    packed.sort()
    ordered, order = split(packed, size)
    ordered += lo
    return ordered, order


def split(keys: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.divmod(keys, d)` of int keys and an int d >= 1: one floor
    division, then a multiply-subtract in place, which numpy runs faster
    than `np.divmod` or `%` on int64 (about twice as fast on 71k keys)."""
    hi = keys // d
    lo = hi * d
    np.subtract(keys, lo, out=lo)
    return hi, lo


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Bool mask of the entries of an ascending array that differ from the one before."""
    start = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    return start


def distinct(keys: np.ndarray) -> np.ndarray:
    """`np.unique(keys)` of 1-D int keys: one `np.sort`, skipped when they ascend."""
    ordered = keys if (keys[1:] >= keys[:-1]).all() else np.sort(keys)
    return ordered[run_starts(ordered)]


def first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(keys, return_index=True)` of 1-D int keys, by `_sorted`."""
    ordered, order = _sorted(keys)
    start = run_starts(ordered)
    return ordered[start], order[start]


def ranked(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(keys, return_inverse=True)` of 1-D int keys, by `_sorted`;
    int64 keys that already are all of 0..q-1 are their own ranks (not copied)."""
    q = int(keys.max(initial=-1)) + 1
    if keys.dtype == np.int64 and 0 < q <= keys.size and keys.min() >= 0 \
            and np.bincount(keys).all():
        return np.arange(q), keys
    ordered, order = _sorted(keys)
    start = run_starts(ordered)
    rank = np.empty(keys.size, dtype=np.int64)
    rank[order] = np.cumsum(start) - 1
    return ordered[start], rank


def stable_order(keys: np.ndarray) -> np.ndarray:
    """`np.argsort(keys, kind="stable")` of 1-D int keys, by `_sorted`."""
    return _sorted(keys)[1]


def check_pairs(n: int, ends: np.ndarray) -> tuple[np.ndarray, tuple[int, int] | None]:
    """(ascending distinct keys min*n + max of the int64 (m, 2) pairs `ends`,
    first bad pair in input order as (its index, index of the earlier pair
    of the same edge or -1), or None). A pair is bad when an id lies outside
    0..n-1, when it is a self-loop or when it repeats an earlier edge.
    Pairs already in ascending key order are not sorted (`first_seen`)."""
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    pair_keys = lo * n + hi
    keys, first = first_seen(pair_keys)
    repeat = np.ones(len(ends), dtype=bool)
    repeat[first] = False
    bad = repeat | (lo < 0) | (hi >= n) | (lo == hi)
    if not bad.any():
        return keys, None
    i = int(bad.argmax())
    # a pair with an id out of range can share an earlier edge's key
    again = repeat[i] and 0 <= lo[i] and hi[i] < n
    return keys, (i, int(first[np.searchsorted(keys, pair_keys[i])]) if again else -1)


class Graph:
    """Undirected simple graph on vertex ids 0..n-1 in CSR form: `indptr`
    (n + 1 offsets) and `indices` (2m ids, each row ascending), plus the
    edges as lexicographic (u, v) arrays with u < v. Immutable: the arrays
    are read-only, so a graph is safe to share. Two things derived from
    them are made at most once and kept on it: the `local_sparsity` report
    and one CSR table, `slot_edge` (2m words), which every `keep` cut
    reads. `slot_rows` is made afresh on each call.
    """

    __slots__ = ("n", "m", "indptr", "indices", "_us", "_vs", "_sparsity", "_edge")

    def __init__(self, n: int, edges=()):
        """`edges`: an (m, 2) int array or an iterable of (u, v) pairs, in
        any order; the first bad pair in input order is reported."""
        if n < 0:
            raise GraphError(f"negative vertex count: {n}")
        ends = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if ends.size == 0:
            ends = np.zeros((0, 2), dtype=np.int64)
        elif ends.dtype.kind not in "iu" or ends.ndim != 2 or ends.shape[1] != 2:
            raise GraphError("edges must be pairs of integer vertex ids")
        keys, bad = check_pairs(n, ends)
        if bad is not None:
            u, v = ends[bad[0]].tolist()
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex id out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            raise GraphError(f"duplicate edge {(min(u, v), max(u, v))}")
        self._hold(n, keys, *split(keys, max(n, 1)))

    def _hold(self, n: int, keys: np.ndarray, us: np.ndarray, vs: np.ndarray) -> "Graph":
        """The CSR rows of the lexicographic edges (us, vs), u < v, with keys
        u*n + v: the arrays are taken as they are, not validated."""
        # the keys head*n + tail of both directions, sorted, are the rows in
        # turn, each ascending; the u -> v half already is `keys`. Their
        # tails are `split`'s remainder, taken in place so that one 2m-word
        # temporary is alive beside them, as with `%`
        indices = np.sort(np.concatenate((vs * n + us, keys)))
        indices -= indices // max(n, 1) * max(n, 1)
        indptr = _offsets(np.bincount(np.concatenate((us, vs)), minlength=n))
        return self._set(n, indptr, indices, us, vs)

    def _set(self, n: int, indptr, indices, us, vs) -> "Graph":
        """Take the CSR arrays and the edge arrays as they are, read-only."""
        self.n, self.m = n, us.size
        self.indptr, self.indices, self._us, self._vs = indptr, indices, us, vs
        self._sparsity = None  # the `local_sparsity` report, once counted
        self._edge = None  # `slot_edge`, once made
        for a in (indptr, indices, us, vs):
            a.flags.writeable = False
        return self

    def keep(self, mask: np.ndarray) -> "Graph":
        """The subgraph of the edges that the bool mask `mask` marks, one
        flag per edge in `edges()` order: `self` when it marks them all.
        Its rows are this graph's rows with the slots of the other edges
        cut out (`slot_edge`), which still ascend, and its row offsets are
        this graph's less the slots cut before each row: O(m), no sort."""
        if mask.all():
            return self
        n, cut = self.n, ~mask
        # each row loses the slots of its cut edges, and so do the offsets
        # of the rows after it
        lost = np.bincount(self._us.compress(cut), minlength=n)
        lost += np.bincount(self._vs.compress(cut), minlength=n)
        indptr = _offsets(lost)
        np.subtract(self.indptr, indptr, out=indptr)
        # `[]` reads the read-only table in place, where `take` copies it
        slots = mask[self.slot_edge()]
        return Graph.__new__(Graph)._set(n, indptr, self.indices.compress(slots),
                                         self._us.compress(mask), self._vs.compress(mask))

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def slot_rows(self) -> np.ndarray:
        """The vertex whose CSR row holds each slot of `indices` (ascending),
        a new array on each call: the graph does not keep its 2m words."""
        return np.repeat(np.arange(self.n), self.degrees())

    def slot_edge(self) -> np.ndarray:
        """The index in `edges()` of the edge at each CSR slot, read-only
        and kept on the graph. A row holds its smaller neighbours first: the
        slots to larger ones (`indices > slot_rows()`) hold the edges
        0..m-1 in turn, and the other slots the edges stably ordered by v,
        so the table is one `stable_order` of the vs and two scatters."""
        if self._edge is None:
            n, m, us, vs = self.n, self.m, self._us, self._vs
            # edge e = (u, v) sits in row u after the edges (x, u) and the
            # edges (u, y) before it: at e + (the edges with v <= u)
            ahead = np.arange(m)
            ahead += np.cumsum(np.bincount(vs, minlength=n))[us]
            # the r-th edge by v sits in row v after the edges (x, y) with
            # y < v, the first r of them, and the edges with u < v
            v_order, by_v = _sorted(vs)
            behind = np.arange(m)
            behind += _offsets(np.bincount(us, minlength=n))[v_order]
            table = np.empty(2 * m, dtype=np.int64)
            table[ahead] = np.arange(m)
            table[behind] = by_v
            table.flags.writeable = False
            self._edge = table
        return self._edge

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only ascending view of the neighbors of v."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = int(row.searchsorted(v))
        return i < row.size and int(row[i]) == v

    def edge_index(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """The index in `edges()` of the edge (us[i], vs[i]) of int64 ids, either
        way round, or -1 if g has none: one search of keys made per nonempty call."""
        if not (us.size and self.m):
            return np.full(us.size, -1, dtype=np.int64)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        want = lo * self.n + hi
        keys = self._us * self.n + self._vs
        at = np.minimum(np.searchsorted(keys, want), self.m - 1)
        at[(keys[at] != want) | (lo < 0) | (hi >= self.n)] = -1
        return at

    def edges(self):
        """Iterate over each edge once as (u, v) with u < v, lexicographically."""
        return zip(self._us.tolist(), self._vs.tolist())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only lexicographic (u, v) arrays of the edge list."""
        return self._us, self._vs

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True, eq=False)
class SparsityReport:
    """Exact neighborhood edge counts, per vertex as a read-only int64 array;
    a graph is k-locally-sparse iff k_star <= k."""

    k_star: int
    max_degree: int
    per_vertex_neighborhood_edges: np.ndarray


def max_degree(g: Graph) -> int:
    return int(g.degrees().max(initial=0))


# index pairs per chunk of `run_pairs`: bounds the working memory of its
# callers (a few arrays of this length) whatever the input's size
_WEDGES_PER_CHUNK = 1 << 16


def run_pairs(groups: np.ndarray):
    """Every index pair i < j with groups[i] == groups[j] of the ascending
    array `groups`, by i then j, as an iterator of (i, j) index arrays a
    chunk at a time: at most `_WEDGES_PER_CHUNK` pairs a chunk, unless one
    i alone has more. The pair counts (one word per entry) are made at the
    call, not when the iterator is first read."""
    size = groups.size
    starts = np.flatnonzero(run_starts(groups))
    stops = np.append(starts, size)[1:]
    # before[i]: the pairs of the entries before i; entry i pairs with the
    # stop - i - 1 later entries of its run, one fewer than the entry
    # before it unless it starts a run: two running sums of those steps,
    # in place, with no other temporary of the input's length
    before = np.full(size + 1, -1, dtype=np.int64)
    before[0] = 0
    before[starts + 1] = stops - starts - 1
    np.cumsum(before, out=before)
    np.cumsum(before, out=before)

    def chunks():
        lo = 0
        while lo < size:
            hi = int(np.searchsorted(before, before[lo] + _WEDGES_PER_CHUNK, side="right")) - 1
            hi = max(lo + 1, hi)
            at = np.arange(lo, hi)
            per = np.diff(before[lo:hi + 1])
            first = np.repeat(at, per)
            # entry i's pairs are i + 1, i + 2, ...: the chunk's pair
            # number less the chunk's pairs before i's, plus i + 1
            second = np.arange(first.size)
            second -= np.repeat(before[lo:hi] - before[lo] - at - 1, per)
            yield first, second
            lo = hi

    return chunks()


# flags per edge in `_triangle_counts`' prefilter: each vertex has the
# least power of two >= this * m / n of them (and at least 8), so that
# about 1/16 of them are set
_FLAGS_PER_EDGE = 16

# `_triangle_counts` holds ids, ranks and flag numbers, all below n * B,
# as int32 words when n * B is below this, else as int64
_INT32_BELOW = 2 ** 31

# the uint8 with only bit i set, at i
_BIT = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))


def _triangle_counts(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Triangles at each vertex of the graph with lexicographic edge arrays
    (us, vs), in O(n + m) memory ("compact-forward", Latapy 2008).

    Each edge points away from its endpoint of smaller (degree, id), so
    every triangle is exactly one wedge of two out-edges of its lowest
    vertex; wedges are the `run_pairs` of the out-edges' sources, closed a
    chunk at a time by a binary search of the sorted keys us*n + vs.
    Most wedges are open, and a bit table rules most of those out before
    the search: each vertex has B flags, and edge (u, v), u < v, sets flag
    v mod B of u, so a wedge (a, b), a < b, cannot close while flag b mod B
    of a is clear. B is a power of two from m/n, so the table is O(m) bytes.
    """
    width = 8  # B
    while width * n < _FLAGS_PER_EDGE * us.size:
        width *= 2
    small = np.int32 if n * width < _INT32_BELOW else np.int64
    # flag i of vertex u is bit i mod 8 of byte (u * width + i) // 8
    flags = np.zeros(n * width // 8, dtype=np.uint8)
    at = us.astype(small) * width
    at += vs & (width - 1)
    np.bitwise_or.at(flags, at >> 3, _BIT.take(at & 7))
    del at
    deg = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    rank = np.empty(n, dtype=small)
    rank[stable_order(deg)] = np.arange(n)
    keys = us * n + vs
    # out-edges by source, each out-list ascending (as in Graph): the key
    # v*n + u = u*n + v + (v - u)(n - 1) where the edge points from v
    out = vs - us
    out *= rank[us] > rank[vs]  # not `take`, which copies read-only indices
    out *= n - 1
    out += keys
    out.sort()
    src, dst = np.empty(out.size, dtype=small), np.empty(out.size, dtype=small)
    np.divmod(out, n, out=(src, dst))
    del out
    counts = np.zeros(n, dtype=np.int64)
    for first, second in run_pairs(src):
        # wedge (a, b) can close only if flag a * width + b mod width is set
        at = dst.take(first) * width
        at += dst.take(second) & (width - 1)
        maybe = np.flatnonzero(flags.take(at >> 3) & _BIT.take(at & 7))
        first, second = first.take(maybe), second.take(maybe)
        a, b = dst.take(first), dst.take(second)
        w = a.astype(np.int64) * n + b
        shut = np.flatnonzero(keys[np.minimum(np.searchsorted(keys, w), len(keys) - 1)] == w)
        tri = (src.take(first.take(shut)), a.take(shut), b.take(shut))
        counts += np.bincount(np.concatenate(tri), minlength=n)
    return counts


def local_sparsity(g: Graph) -> SparsityReport:
    """Count, for every vertex, the edges inside its neighborhood.

    An edge (a, b) lies inside N(v) exactly when (v, a, b) is a triangle, so
    the counts equal per-vertex triangle counts. They are counted once per
    graph: g is immutable, so the report is kept on it and returned by every
    later call (a generator hands over the report it already has).
    """
    if g._sparsity is None:
        g._sparsity = _sparsity_report(g, _triangle_counts(g.n, *g.edge_arrays()))
    return g._sparsity


def _sparsity_report(g: Graph, tri: np.ndarray) -> SparsityReport:
    """The report of g, whose per-vertex int64 triangle counts `tri` it keeps."""
    tri.flags.writeable = False
    return SparsityReport(int(tri.max(initial=0)), max_degree(g), tri)


def _degree_capped_pairing(n: int, delta: int, rng) -> np.ndarray:
    """Random near-delta-regular edge set, as sorted (u, v) rows with u < v:
    pair shuffled vertex stubs, dropping self-loops and duplicates. Degrees
    never exceed delta."""
    if delta == 0:
        return np.zeros((0, 2), dtype=np.int64)
    stubs = np.repeat(np.arange(n, dtype=np.int64), delta)
    rng.shuffle(stubs)
    if len(stubs) % 2:
        stubs = stubs[:-1]
    half = len(stubs) // 2
    a, b = stubs[:half], stubs[half:]
    keep = a != b
    keys = distinct(np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep])
    return np.stack(split(keys, n), axis=1)


def _repair_sparsity(n: int, edges: np.ndarray, k: int):
    """Delete edges until every neighborhood has at most k internal edges;
    returns (the edges left, their per-vertex triangle counts when nothing
    was deleted, else None).

    `edges` holds sorted (u, v) rows with u < v, and so does the result.
    Repeatedly takes the densest neighborhood and removes the edge inside it
    that sits on the most triangles (ties broken lexicographically). Deleting
    never increases any neighborhood count, so this terminates.
    """
    counts = _triangle_counts(n, edges[:, 0], edges[:, 1])
    tri = counts.tolist()
    heap = [(-tri[v], v) for v in range(n) if tri[v] > k]
    if not heap:
        return edges, counts
    alive = set(map(tuple, edges.tolist()))
    nbr = [set() for _ in range(n)]
    for u, v in alive:
        nbr[u].add(v)
        nbr[v].add(u)
    heapq.heapify(heap)
    while heap:
        negt, v = heapq.heappop(heap)
        if tri[v] != -negt or tri[v] <= k:
            continue
        # pick the edge inside N(v) covering the most triangles
        best = None
        nv = nbr[v]
        for a in sorted(nv):
            inside = nbr[a] & nv
            for b in sorted(inside):
                if a < b:
                    c = len(nbr[a] & nbr[b])
                    if best is None or c > best[0]:
                        best = (c, a, b)
        _, a, b = best
        common = nbr[a] & nbr[b]
        alive.discard((a, b) if a < b else (b, a))
        nbr[a].discard(b)
        nbr[b].discard(a)
        for w in common:
            tri[w] -= 1
        tri[a] -= len(common)
        tri[b] -= len(common)
        for w in set(common) | {a, b}:
            if tri[w] > k:
                heapq.heappush(heap, (-tri[w], w))
        if tri[v] > k:
            heapq.heappush(heap, (-tri[v], v))
    return np.array(sorted(alive), dtype=np.int64).reshape(-1, 2), None


# draws of `gen_locally_sparse` before it gives up
_GEN_ATTEMPTS = 20


def gen_locally_sparse(n: int, target_delta: int, k: int, seed: int) -> Graph:
    """Random graph with max degree <= target_delta and k_star <= k.

    Strategy: degree-capped random pairing, then delete edges out of
    overfull neighborhoods until the audit passes. The returned graph is
    audited, not assumed: when the repair deleted nothing, its triangle
    counts are those of the returned edge set, else they are counted anew.
    Deterministic given the seed.
    """
    if n < 1:
        raise GenerationError(f"need n >= 1, got {n}")
    if not (0 <= target_delta < n):
        raise GenerationError(f"need 0 <= target_delta < n, got delta={target_delta}, n={n}")
    if k < 0:
        raise GenerationError(f"need k >= 0, got {k}")
    rng = substream(seed, TAG_GEN)
    for _ in range(_GEN_ATTEMPTS):
        edges, tri = _repair_sparsity(n, _degree_capped_pairing(n, target_delta, rng), k)
        g = Graph(n, edges)
        report = local_sparsity(g) if tri is None else _sparsity_report(g, tri)
        g._sparsity = report
        if report.k_star <= k and report.max_degree <= target_delta:
            return g
    raise GenerationError(
        f"could not generate (n={n}, delta={target_delta}, k={k}) in {_GEN_ATTEMPTS} attempts"
    )


def gen_bipartite(n: int, target_delta: int, seed: int) -> Graph:
    """Random bipartite graph with max degree <= target_delta.

    Bipartite graphs have edgeless neighborhoods (k_star = 0), which makes
    them the cheap source of large sparse test instances where the
    delete-repair generator would be too slow. The output is checked, not
    assumed, in O(m): every edge must join [0, n // 2) to [n // 2, n), and
    a graph with all its edges across one bipartition has no odd cycle, so
    no triangle; that report, with the checked max degree, is kept on the
    graph for `local_sparsity`, its zero counts a broadcast view that holds
    no n-word array.
    """
    if n < 2:
        raise GenerationError(f"need n >= 2, got {n}")
    half = n // 2
    if target_delta > min(half, n - half):
        raise GenerationError("target_delta exceeds the smaller side of the bipartition")
    rng = substream(seed, TAG_GEN, 1)
    left = np.repeat(np.arange(half, dtype=np.int64), target_delta)
    right = np.repeat(np.arange(half, n, dtype=np.int64), target_delta)
    rng.shuffle(right)
    take = min(len(left), len(right))
    g = Graph(n, np.stack(split(distinct(left[:take] * n + right[:take]), n), axis=1))
    us, vs = g.edge_arrays()  # u < v on every edge
    if not us.max(initial=-1) < half <= vs.min(initial=n):
        raise GenerationError("audit failed: an edge does not cross the bipartition")
    report = _sparsity_report(g, np.broadcast_to(np.int64(0), n))
    if report.max_degree > target_delta:
        raise GenerationError(f"audit failed: max degree {report.max_degree}")
    g._sparsity = report
    return g


def save_graph(g: Graph, path) -> None:
    """Write the text format: first line 'n m', then one 'u v' line per edge, u < v."""
    body = "%d %d\n" * g.m % tuple(np.column_stack(g.edge_arrays()).ravel().tolist())
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n{body}")


# the bytes of a file that holds no bad token: digits and the ASCII
# whitespace that splits tokens (`bytes.split`'s)
_DIGITS_AND_BLANKS = b"0123456789 \t\n\v\f\r"


class _Ints:
    """The integer tokens of a text file's lines, read by one pass of array
    operations over its bytes. Lines break where universal newlines break
    them; tokens are split at ASCII whitespace; a token is an integer when
    it is an optional sign and ASCII digits.

    `values` holds each token's int64 value (any value, for a bad token),
    `counts` each line's token count and `breaks` the offset in `text` (the
    file, "\r\n" and a lone "\r" read as "\n") of each line's "\n", or of
    the file's end for an unended last line. `junk` is the first line that
    holds a token that is not an integer and `wide` the first that holds one
    outside int64, or the line count. Only a file holding some byte other
    than digits and whitespace is searched for bad bytes, read as "0" for
    `values`; only a token of 19 bytes or more is read again, by `int`.
    """

    def __init__(self, path):
        with open(path, "rb") as fh:
            text = fh.read()
        if b"\r" in text:
            text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        # an unended last line (an empty file's empty line too) is read as if ended
        body = text if text.endswith(b"\n") else text + b"\n"
        data = np.frombuffer(body, dtype=np.uint8)
        blank = np.concatenate(([True], (data - 9 < 5) | (data == 32)))  # byte i - 1 is blank
        start = blank[:-1] > blank[1:]  # the first byte of each token
        # the first bad byte: a token byte that is neither a digit nor a sign
        # that starts its token before a digit
        at = data.size
        if text.translate(None, _DIGITS_AND_BLANKS):
            digit = np.append(data - 48 < 10, False)
            bad = ~(digit[:-1] | blank[1:] | start & digit[1:] & ((data == 43) | (data == 45)))
            if bad.any():
                at, body = int(bad.argmax()), np.where(bad, 48, data).tobytes()
        marks = np.flatnonzero(start | (data == 10))  # the token starts and line ends, in turn
        del blank, start
        ends = np.flatnonzero(data.take(marks) == 10)
        # a token outside int64 spans 19 bytes or more: `int` reads each token
        # whose next mark lies 19 bytes or more after its start
        long = np.flatnonzero(marks[1:] - marks[:-1] >= 19).tolist()
        wide = next((i for i in long if data[marks[i]] != 10 and
                     not -2 ** 63 <= int(body[marks[i]:marks[i + 1]].split()[0]) < 2 ** 63),
                    marks.size)
        self.text, self.counts, self.breaks = text, np.diff(ends, prepend=-1) - 1, marks[ends]
        self.values = np.fromstring(body, dtype=np.int64, count=marks.size - ends.size, sep=" ")
        self.junk = int(np.searchsorted(self.breaks, at))
        self.wide = int(np.searchsorted(ends, wide))

    def line(self, i: int, end: int = 0) -> str:
        """Line i, with its "\n" (if it has one) when end = 1; a byte that is not UTF-8 escaped."""
        lo = int(self.breaks[i - 1]) + 1 if i else 0
        return self.text[lo:int(self.breaks[i]) + end].decode(errors="backslashreplace")

    def check(self, stop: int, error: type[Exception]) -> None:
        """`error` naming the first line before `stop` that holds a bad token, if one does."""
        i = min(self.junk, self.wide)
        if i < min(stop, self.counts.size):
            kind = "non-integer token" if i == self.junk else "integer outside int64"
            raise error(f"{kind} in line {' '.join(self.line(i).split())!r}")

    def header(self, error: type[Exception], names: str) -> list[int]:
        """The two integers of line 0; `error` if it holds other tokens."""
        if self.counts[0] != 2:
            raise error(f"expected header {names}")
        self.check(1, error)
        return self.values[:2].tolist()


def load_graph(path) -> Graph:
    """Read the 'n m' / 'u v' format, rejecting any violation: the first bad
    line is named, as a loop over the lines in turn would name it."""
    f = _Ints(path)
    n, m = f.header(GraphError, "'n m'")
    # the first line of other than 0 or 2 tokens or with a bad token; the edges before it
    odd = np.flatnonzero((f.counts | 2) != 2)[:1].tolist()
    stop = min(odd + [f.junk, f.wide])
    ends = f.values[2:int(f.counts[:stop].sum())].reshape(-1, 2)
    back = np.flatnonzero(ends[:, 0] >= ends[:, 1])
    if back.size:
        raise GraphError("edges must satisfy u < v, got {} {}".format(*ends[back[0]].tolist()))
    if stop in odd:
        raise GraphError(f"bad edge line: {f.line(stop).strip()!r}")
    f.check(f.counts.size, GraphError)
    if len(ends) != m:
        raise GraphError(f"header claims {m} edges, file has {len(ends)}")
    return Graph(n, ends)
