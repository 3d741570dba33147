"""Graph representation, locally sparse instance generators, and audits.

A graph is *k-locally-sparse* when every vertex neighborhood induces at most
k edges (triangle-free graphs are the k = 0 case). `local_sparsity` reports
the exact per-vertex neighborhood edge counts, and the generators guarantee
their output by auditing rather than by construction alone.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
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


class Graph:
    """Undirected simple graph on vertex ids 0..n-1 with sorted adjacency.

    Immutable after construction; safe to share read-only.
    """

    __slots__ = ("n", "adj", "m", "_edges_np", "_bits")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise GraphError(f"negative vertex count: {n}")
        self.n = n
        buckets: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex id out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
            buckets[u].append(v)
            buckets[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(b)) for b in buckets
        )
        self.m = len(seen)
        self._edges_np = None
        self._bits = None

    @classmethod
    def from_adjacency(cls, adj) -> "Graph":
        """Build from an adjacency structure (validated for symmetry)."""
        n = len(adj)
        edges = []
        nbr_sets = [set(a) for a in adj]
        for u in range(n):
            for v in adj[u]:
                if u not in nbr_sets[v]:
                    raise GraphError(f"asymmetric adjacency at ({u}, {v})")
                if u < v:
                    edges.append((u, v))
        return cls(n, edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self):
        """Yield each edge once as (u, v) with u < v, lexicographically."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Numpy (u, v) arrays of the edge list, cached."""
        if self._edges_np is None:
            us = np.empty(self.m, dtype=np.int64)
            vs = np.empty(self.m, dtype=np.int64)
            i = 0
            for u, v in self.edges():
                us[i] = u
                vs[i] = v
                i += 1
            self._edges_np = (us, vs)
        return self._edges_np

    def neighbor_bitsets(self) -> np.ndarray:
        """Adjacency as packed uint64 bitsets, one row per vertex (cached)."""
        if self._bits is None:
            words = max(1, (self.n + 63) // 64)
            bits = np.zeros((self.n, words), dtype=np.uint64)
            for u in range(self.n):
                for v in self.adj[u]:
                    bits[u, v >> 6] |= np.uint64(1) << np.uint64(v & 63)
            self._bits = bits
        return self._bits

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class SparsityReport:
    """Exact neighborhood edge counts; a graph is k-locally-sparse iff k_star <= k."""

    k_star: int
    max_degree: int
    per_vertex_neighborhood_edges: tuple[int, ...]


def max_degree(g: Graph) -> int:
    return max((len(a) for a in g.adj), default=0)


def local_sparsity(g: Graph) -> SparsityReport:
    """Count, for every vertex, the edges inside its neighborhood.

    An edge (a, b) lies inside N(v) exactly when (v, a, b) is a triangle, so
    the counts equal per-vertex triangle counts. Small graphs use set
    intersections; large ones a packed-bitset pass over the edge list.
    """
    n = g.n
    if g.m == 0:
        return SparsityReport(0, max_degree(g), tuple([0] * n))
    if g.m <= 20000:
        counts = [0] * n
        nbr = [set(a) for a in g.adj]
        for a, b in g.edges():
            for v in nbr[a] & nbr[b]:
                counts[v] += 1
        per = tuple(counts)
    else:
        bits = g.neighbor_bitsets()
        us, vs = g.edge_arrays()
        twice = np.zeros(n, dtype=np.int64)
        chunk = 65536
        for lo in range(0, g.m, chunk):
            cu = us[lo : lo + chunk]
            cv = vs[lo : lo + chunk]
            common = np.bitwise_count(bits[cu] & bits[cv]).sum(axis=1)
            common = common.astype(np.int64)
            np.add.at(twice, cu, common)
            np.add.at(twice, cv, common)
        # each triangle at v is seen from both of its v-incident edges
        per = tuple(int(x) for x in twice // 2)
    return SparsityReport(max(per), max_degree(g), per)


def _degree_capped_pairing(n: int, delta: int, rng) -> set[tuple[int, int]]:
    """Random near-delta-regular edge set: pair shuffled vertex stubs, dropping
    self-loops and duplicates. Degrees never exceed delta."""
    if delta == 0:
        return set()
    stubs = np.repeat(np.arange(n, dtype=np.int64), delta)
    rng.shuffle(stubs)
    if len(stubs) % 2:
        stubs = stubs[:-1]
    half = len(stubs) // 2
    a, b = stubs[:half], stubs[half:]
    edges: set[tuple[int, int]] = set()
    for u, v in zip(a.tolist(), b.tolist()):
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        edges.add(key)
    return edges


def _repair_sparsity(n: int, edges: set[tuple[int, int]], k: int) -> set[tuple[int, int]]:
    """Delete edges until every neighborhood has at most k internal edges.

    Repeatedly takes the densest neighborhood and removes the edge inside it
    that sits on the most triangles (ties broken lexicographically). Deleting
    never increases any neighborhood count, so this terminates.
    """
    nbr = [set() for _ in range(n)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    tri = [0] * n
    for u, v in edges:
        for w in nbr[u] & nbr[v]:
            tri[w] += 1
    heap = [(-tri[v], v) for v in range(n) if tri[v] > k]
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
        edges.discard((a, b) if a < b else (b, a))
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
    return edges


def gen_locally_sparse(n: int, target_delta: int, k: int, seed: int,
                       *, max_attempts: int = 20) -> Graph:
    """Random graph with max degree <= target_delta and k_star <= k.

    Strategy: degree-capped random pairing, then delete edges out of
    overfull neighborhoods until the audit passes. The returned graph is
    audited, not assumed. Deterministic given the seed.
    """
    if n < 1:
        raise GenerationError(f"need n >= 1, got {n}")
    if not (0 <= target_delta < n):
        raise GenerationError(f"need 0 <= target_delta < n, got delta={target_delta}, n={n}")
    if k < 0:
        raise GenerationError(f"need k >= 0, got {k}")
    rng = substream(seed, TAG_GEN)
    for _ in range(max_attempts):
        edges = _degree_capped_pairing(n, target_delta, rng)
        edges = _repair_sparsity(n, edges, k)
        g = Graph(n, sorted(edges))
        report = local_sparsity(g)
        if report.k_star <= k and report.max_degree <= target_delta:
            return g
    raise GenerationError(
        f"could not generate (n={n}, delta={target_delta}, k={k}) in {max_attempts} attempts"
    )


def gen_bipartite(n: int, target_delta: int, seed: int) -> Graph:
    """Random bipartite graph with max degree <= target_delta.

    Bipartite graphs have edgeless neighborhoods (k_star = 0), which makes
    them the cheap source of large sparse test instances where the
    delete-repair generator would be too slow. Audited like the others.
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
    edges = set()
    for u, v in zip(left[:take].tolist(), right[:take].tolist()):
        edges.add((u, v))
    g = Graph(n, sorted(edges))
    report = local_sparsity(g)
    if report.k_star or report.max_degree > target_delta:
        raise GenerationError(f"audit failed: k_star={report.k_star}, max degree {report.max_degree}")
    return g


def save_graph(g: Graph, path) -> None:
    """Write the text format: first line 'n m', then one 'u v' line per edge, u < v."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def load_graph(path) -> Graph:
    """Read the 'n m' / 'u v' format, rejecting any violation."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise GraphError("expected header 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"bad edge line: {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u >= v:
                raise GraphError(f"edges must satisfy u < v, got {u} {v}")
            edges.append((u, v))
    if len(edges) != m:
        raise GraphError(f"header claims {m} edges, file has {len(edges)}")
    return Graph(n, edges)
