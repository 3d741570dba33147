"""Single-pass edge-stream coloring with exact space accounting.

Palettes are sampled before the first edge arrives. An edge is stored
exactly when the endpoint samples can collide (for covers: when its
matching restricted to the samples is nonempty), pruning happens after the
stream, and the retained conflict instance goes to the solver. A plain
stream holds only its (r, 2) endpoint array: retention is one
`shared_edges` call over all records, and since the ledger total only
grows over the pass, its peak is the final total or the total at the
stored edge that first crosses the cap. The stored edges stay an array (a
`Rows` of pairs, in stream order); the counters, sums over stored edges,
come from `directed_counts` over the CSR slots of one `Graph` of them, and
the conflict graph is cut from its sorted edge arrays. Cover streams test
retention record by record; the stored pairs then form a
cover whose `color_degrees` are the counters, and `restrict_cover` cuts
it down to the pruned samples. The ledger uses a
concrete word model: one word per id or counter, two words per stored
edge, two per stored matching pair, n*s words for palettes and for
counters.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._rng import TAG_PERMUTE, substream
from .cover import (
    CorrespondenceCover,
    ListAssignment,
    Rows,
    color_degrees,
    cover_rows,
    restrict_cover,
)
from .graphcore import Graph, check_pairs
from .nibble import PartialColoring, SolveResult, solve
from .sparsify import (
    PaletteFamily,
    SharedPalette,
    SparsifyParams,
    directed_counts,
    sample_palettes,
    shared_edges,
)

__all__ = [
    "SpaceLedger",
    "EdgeStream",
    "SpaceCapExceeded",
    "StreamResult",
    "stream_color",
    "stream_color_correspondence",
]


class SpaceCapExceeded(RuntimeError):
    pass


@dataclass
class SpaceLedger:
    """Exact word counts; peak_words is the running maximum of the total."""

    stored_edges: int = 0
    palette_words: int = 0
    counter_words: int = 0
    matching_words: int = 0
    peak_words: int = 0

    def total(self) -> int:
        return (
            self.palette_words
            + self.counter_words
            + 2 * self.stored_edges
            + self.matching_words
        )

    def bump(self, cap: int | None = None) -> None:
        t = self.total()
        if t > self.peak_words:
            self.peak_words = t
        if cap is not None and t > cap:
            raise SpaceCapExceeded(f"ledger total {t} exceeds space cap {cap}")


class EdgeStream:
    """A single forward pass over edge records, in a fixed order.

    Plain records are (u, v); cover records are (u, v, pairs). Each edge
    appears exactly once between two distinct vertices of 0..n-1: the
    first record breaking this is rejected, naming it and, for a repeat,
    the earlier record of the same edge. `lists` carries the per-vertex
    cover color lists for the correspondence case, which are known before
    the stream starts. `ends` is the read-only (r, 2) array of the records'
    endpoints. A plain stream keeps nothing else: reading `records` builds
    its (u, v) tuples anew.
    """

    def __init__(self, n: int, records=(), lists=None):
        """`records`: a sequence of record tuples, or the plain records as
        an (r, 2) int array."""
        if isinstance(records, np.ndarray):
            ends, kept = records.astype(np.int64).reshape(-1, 2), None
        else:
            records = tuple(records)
            ends = np.fromiter(chain.from_iterable(rec[:2] for rec in records),
                               dtype=np.int64, count=2 * len(records)).reshape(-1, 2)
            kept = records if any(len(rec) != 2 for rec in records) else None
        ends.flags.writeable = False
        self.n, self.ends, self.lists, self._records = n, ends, lists, kept
        bad = check_pairs(n, ends)[1]
        if bad is not None:
            u, v = ends[bad[0]].tolist()
            if u == v:
                what = "is a self-loop"
            elif not (0 <= u < n and 0 <= v < n):
                what = f"has a vertex id outside 0..{n - 1}"
            else:
                what = f"repeats the edge of record {bad[1]}"
            raise ValueError(f"stream record {bad[0]} ({u}, {v}) {what}")

    @property
    def records(self) -> tuple:
        if self._records is not None:
            return self._records
        return tuple(zip(*self.ends.T.tolist()))

    @classmethod
    def from_graph(cls, g: Graph, permute_seed: int | None = None) -> "EdgeStream":
        ends = np.column_stack(g.edge_arrays())
        if permute_seed is not None:
            # shuffling the row indices draws what shuffling a list of the
            # records draws, so the order is the list shuffle's
            order = np.arange(g.m)
            substream(permute_seed, TAG_PERMUTE).shuffle(order)
            ends = ends[order]
        return cls(g.n, ends)

    @classmethod
    def from_cover(cls, g: Graph, cov: CorrespondenceCover,
                   permute_seed: int | None = None) -> "EdgeStream":
        recs = [(u, v, cov.matchings.get((u, v), ())) for u, v in g.edges()]
        if permute_seed is not None:
            rng = substream(permute_seed, TAG_PERMUTE)
            rng.shuffle(recs)
        return cls(g.n, tuple(recs), lists=cov.lists)

    def save(self, path) -> None:
        """One record per line: 'u v', with matching pairs appended as
        'u v p c c_prime ...' in the cover case. Header: 'n r [lists]'."""
        with open(path, "w") as fh:
            fh.write(f"{self.n} {len(self.ends)} {int(self.lists is not None)}\n")
            if self.lists is not None:
                for row in self.lists:
                    fh.write(" ".join(str(c) for c in row) + "\n")
            for rec in self.records:
                if len(rec) == 2:
                    fh.write(f"{rec[0]} {rec[1]}\n")
                else:
                    u, v, pairs = rec
                    flat = " ".join(f"{a} {b}" for a, b in pairs)
                    fh.write(f"{u} {v} {len(pairs)}" + (f" {flat}" if flat else "") + "\n")

    @classmethod
    def load(cls, path) -> "EdgeStream":
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 3:
                raise ValueError("expected stream header 'n records has_lists'")
            n, r, has_lists = int(header[0]), int(header[1]), int(header[2])
            lists = None
            if has_lists:
                lists = tuple(
                    tuple(int(x) for x in fh.readline().split()) for _ in range(n)
                )
            records = []
            for line in fh:
                parts = [int(x) for x in line.split()]
                if len(parts) < 2:
                    raise ValueError(f"bad stream record: {line!r}")
                if len(parts) == 2:
                    records.append((parts[0], parts[1]))
                else:
                    p = parts[2]
                    if len(parts) != 3 + 2 * p:
                        raise ValueError(f"bad stream record: {line!r}")
                    pairs = tuple(
                        (parts[3 + 2 * i], parts[4 + 2 * i]) for i in range(p)
                    )
                    records.append((parts[0], parts[1], pairs))
        if len(records) != r:
            raise ValueError(f"header claims {r} records, file has {len(records)}")
        return cls(n, tuple(records), lists=lists)


@dataclass
class StreamResult:
    """`stored` holds the stored edges in stream order: for a plain stream
    a `Rows` of (u, v) pairs with u < v, for a cover stream the stored
    (u, v, pairs) records."""

    coloring: PartialColoring | None
    ledger: SpaceLedger
    family: PaletteFamily
    stored: Sequence
    solve_result: SolveResult | None
    error: str = ""

    @property
    def success(self) -> bool:
        return self.coloring is not None


def stream_color(stream: EdgeStream, n: int, params: SparsifyParams, seed: int,
                 *, space_cap: int | None = None, policy: str = "auto",
                 delta_from_stream: bool = False) -> StreamResult:
    """One pass over a plain edge stream; q-coloring from sampled palettes.

    Stores an edge iff the endpoint samples intersect; counts, per sampled
    (v, c), the neighbors whose sample also holds c; prunes after the
    stream at (1+gamma')*s*delta/q; solves the retained instance. With
    `delta_from_stream` the pruning threshold is recomputed from the
    observed max degree instead of the a-priori delta (costs n extra
    counter words).
    """
    q, s = params.q, params.s
    fam = sample_palettes(SharedPalette(n, q), s, seed)
    ledger = SpaceLedger(palette_words=n * s, counter_words=n * s)
    if delta_from_stream:
        ledger.counter_words += n
    ledger.bump(space_cap)

    ends = stream.ends
    pairs = ends[shared_edges(ends[:, 0], ends[:, 1], fam.sampled, q)]
    su, sv = pairs.T
    su[:], sv[:] = np.minimum(su, sv), np.maximum(su, sv)
    ledger.stored_edges = len(pairs)
    if space_cap is not None and ledger.total() > space_cap:
        # the total only grows over the pass, so the cap is first crossed
        # at the stored edge that takes it past: two words per stored edge
        ledger.stored_edges -= (ledger.total() - space_cap - 1) // 2
    ledger.bump(space_cap)
    stored = Rows(pairs.ravel(), np.arange(0, pairs.size + 1, 2))

    delta = int(np.bincount(ends.ravel(), minlength=n).max(initial=0)) \
        if delta_from_stream else params.delta_ref
    # the stored pairs as a graph, counted over its CSR slots and cut down
    # from its sorted edge arrays
    held = Graph(n, pairs)
    counts = directed_counts(held.slot_rows(), held.indices, fam.sampled, q)
    pruned = fam.sampled.keep(counts <= params.threshold(delta))
    fam = PaletteFamily(fam.sampled, pruned, fam.universe)
    us, vs = held.edge_arrays()
    hit = shared_edges(us, vs, pruned, q)
    sub = Graph(n, np.column_stack((us[hit], vs[hit])))
    # only the conflict graph goes on to the solver
    del held, us, vs, counts
    if (pruned.lens == 0).any():
        return StreamResult(None, ledger, fam, stored, None,
                            error="a vertex lost every sampled color in pruning")
    res = solve(sub, ListAssignment(pruned), policy=policy, seed=seed)
    return StreamResult(res.coloring, ledger, fam, stored, res,
                        error="" if res.success else "solver failed")


def stream_color_correspondence(stream: EdgeStream, n: int,
                                params: SparsifyParams, seed: int,
                                *, space_cap: int | None = None,
                                policy: str = "auto") -> StreamResult:
    """Correspondence variant: records carry matchings, retention keeps the
    pairs restricted to the samples, and pruning uses per-color degrees of
    the sampled cover subgraph."""
    if stream.lists is None:
        raise ValueError("correspondence streaming needs the stream's cover lists")
    s = params.s
    fam = sample_palettes(stream.lists, s, seed)
    ledger = SpaceLedger(palette_words=n * s, counter_words=n * s)
    ledger.bump(space_cap)

    sets = [frozenset(row) for row in fam.sampled]
    stored: list[tuple[int, int, tuple]] = []
    for u, v, pairs in stream.records:
        kept = tuple(
            (a, b) for a, b in pairs if a in sets[u] and b in sets[v]
        )
        if kept:
            e = (u, v) if u < v else (v, u)
            kept_o = kept if u < v else tuple((b, a) for a, b in kept)
            stored.append((e[0], e[1], kept_o))
            ledger.stored_edges += 1
            ledger.matching_words += 2 * len(kept)
            ledger.bump(space_cap)

    held = CorrespondenceCover(fam.sampled, {(u, v): pairs for u, v, pairs in stored})
    pruned = cover_rows(held, color_degrees(held) <= params.prune_threshold)
    fam = PaletteFamily(fam.sampled, pruned, fam.universe)
    cov, edges = restrict_cover(held, pruned)
    sub = Graph(n, edges)
    if (pruned.lens == 0).any():
        return StreamResult(None, ledger, fam, tuple(stored), None,
                            error="a vertex lost every sampled color in pruning")
    res = solve(sub, cov, policy=policy, seed=seed)
    return StreamResult(res.coloring, ledger, fam, tuple(stored), res,
                        error="" if res.success else "solver failed")
