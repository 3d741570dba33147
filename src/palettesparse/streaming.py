"""Single-pass edge-stream coloring with exact space accounting.

Palettes are sampled before the first edge arrives. An edge is stored
exactly when the endpoint samples can collide (for covers: when its
matching restricted to the samples is nonempty). Streams are held as
arrays (endpoints and, for covers, pairs); retention is one `shared_edges`
call, or for covers one search of the samples (`Rows.find`) per pair color
and a bincount of the kept pairs per record, and one closed-form ledger,
`SpaceLedger.charge`, serves both. After the pass, both hand the `Graph`
of the stored edges, built from their sorted keys (and the cover of the
kept pairs), to the reduction tail that all three models share
(`nibble._reduce`: `prune`, `build_conflict`, `solve`). The ledger's
word model: one word per id or counter, two per stored edge, two per
stored matching pair, n*s words for palettes and for counters.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._rng import TAG_PERMUTE, substream
from .cover import CorrespondenceCover, CoverArrays, Rows, is_id_pair
from .graphcore import Graph, check_pairs, ranked, run_starts, split, stable_order
from .nibble import PartialColoring, SolveResult, _reduce
from .sparsify import (
    PaletteFamily,
    SharedPalette,
    SparsifyParams,
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

    def charge(self, pair_counts: np.ndarray, cap: int | None = None) -> None:
        """Charge the stored records, in stream order, with pair_counts[i]
        pairs on the i-th: two words per record and two per pair. The total
        only grows, so the peak is the final total or the total where the
        pass stops, at the first record (or none) past the cap: one
        `searchsorted` over the running totals finds it."""
        stop = len(pair_counts)
        if cap is not None:
            totals = self.total() + np.cumsum(np.concatenate(([0], 2 + 2 * pair_counts)))
            stop = min(stop, int(np.searchsorted(totals, cap, side="right")))
        self.stored_edges += stop
        self.matching_words += 2 * int(pair_counts[:stop].sum())
        total = self.total()
        self.peak_words = max(self.peak_words, total)
        if cap is not None and total > cap:
            raise SpaceCapExceeded(f"ledger total {total} exceeds space cap {cap}")


def _shuffled(m: int, permute_seed: int | None) -> np.ndarray:
    """The edge index at each stream position, shuffled by `permute_seed`
    as a list of the records would be: the same draws give the same order."""
    order = np.arange(m)
    if permute_seed is not None:
        substream(permute_seed, TAG_PERMUTE).shuffle(order)
    return order


def _is_record(rec) -> bool:
    """Whether rec is (u, v) or (u, v, pairs) of integer ids, two in a pair."""
    return is_id_pair(rec) or (isinstance(rec, Sized) and len(rec) == 3 and is_id_pair(rec[:2])
                               and isinstance(rec[2], Sized) and all(map(is_id_pair, rec[2])))


class EdgeStream:
    """A single forward pass over edge records, in a fixed order.

    Plain records are (u, v); cover records are (u, v, pairs), in a stream
    with `lists`, the per-vertex cover color lists known before it starts.
    Each edge appears exactly once between two distinct vertices of
    0..n-1: the first record breaking this is rejected, naming it and, for
    a repeat, the earlier record of the same edge. The stream holds
    read-only arrays: `ends`, the records' (r, 2) endpoints, and `pairs`,
    the (p, 2) color ids of their pairs in stream order, each oriented as
    its record, which `pair_record` gives. Iteration makes the tuples.
    """

    def __init__(self, n: int, records=(), lists=None):
        """`records`: a sequence of record tuples; an array is read as one."""
        records = records.tolist() if isinstance(records, np.ndarray) else tuple(records)
        bad = next((i for i, rec in enumerate(records) if not _is_record(rec)), None)
        if bad is not None:
            raise ValueError(f"stream record {bad} {records[bad]!r} is not (u, v) or "
                             "(u, v, pairs) of integer ids")
        ends = np.fromiter(chain.from_iterable(rec[:2] for rec in records),
                           dtype=np.int64, count=2 * len(records)).reshape(-1, 2)
        matchings = [rec[2] if len(rec) > 2 else () for rec in records]
        if lists is None and any(matchings):
            raise ValueError("cover records need the stream's cover lists")
        triples = [(i, *pair) for i, pairs in enumerate(matchings) for pair in pairs]
        flat = np.array(triples, dtype=np.int64).reshape(len(triples), 3)
        self._hold(n, ends, lists, flat[:, 0], flat[:, 1:])
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

    def _hold(self, n, ends, lists, pair_record, pairs) -> "EdgeStream":
        """Takes the arrays as they are: the array builders' constructor."""
        for a in (ends, pair_record, pairs):
            a.flags.writeable = False
        self.n, self.ends, self.lists = n, ends, lists
        self.pair_record, self.pairs = pair_record, pairs
        return self

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self):
        """The records in turn, as tuples made anew."""
        ends = self.ends.tolist()
        if self.lists is None:
            return map(tuple, ends)
        pairs = list(map(tuple, self.pairs.tolist()))
        bounds = np.searchsorted(self.pair_record, np.arange(len(ends) + 1)).tolist()
        return ((u, v, tuple(pairs[lo:hi])) for (u, v), lo, hi in zip(ends, bounds, bounds[1:]))

    @property
    def records(self) -> tuple:
        return tuple(self)

    @classmethod
    def from_graph(cls, g: Graph, permute_seed: int | None = None) -> "EdgeStream":
        """g's edges (u, v), u < v, shuffled by `permute_seed`; not checked again."""
        ends = np.column_stack(g.edge_arrays())[_shuffled(g.m, permute_seed)]
        return cls.__new__(cls)._hold(g.n, ends, None, np.zeros(0, dtype=np.int64),
                                      np.zeros((0, 2), dtype=np.int64))

    @classmethod
    def from_cover(cls, g: Graph, cov: CorrespondenceCover,
                   permute_seed: int | None = None) -> "EdgeStream":
        """The records (u, v, pairs) of g's edges, u < v, each with the
        cover's pairs on it in `cov.arrays` order (none off a cover edge),
        shuffled as `from_graph` shuffles them."""
        order = _shuffled(g.m, permute_seed)
        a = cov.arrays
        # each pair's edge among g's; a pair on no edge of g is dropped
        edge = g.edge_index(a.eu, a.ev)
        on = edge >= 0
        record = np.argsort(order)[edge[on]]
        # grouped by record, each record's pairs in arrays order
        sort = stable_order(record)
        by = np.flatnonzero(on)[sort]
        return cls.__new__(cls)._hold(g.n, np.column_stack(g.edge_arrays())[order], cov.lists,
                                      record[sort], a.colors[np.column_stack((a.ra[by], a.rb[by]))])


@dataclass
class StreamResult:
    """`stored` holds the stored edges in stream order, u < v: a `Rows` of
    (u, v) pairs, or a cover stream of the (u, v, kept pairs) records."""

    coloring: PartialColoring | None
    ledger: SpaceLedger
    family: PaletteFamily
    stored: Rows | EdgeStream
    solve_result: SolveResult | None
    error: str = ""

    @property
    def success(self) -> bool:
        return self.coloring is not None


def _begin(stream: EdgeStream, n: int, palettes, s: int, seed: int):
    """(the s-samples of `palettes`, a ledger charging them and the
    counters) for a pass over `stream`, whose n vertices are checked."""
    if stream.n != n:
        raise ValueError(f"stream has {stream.n} vertices, but n is {n}")
    if stream.lists is not None and len(stream.lists) != n:
        raise ValueError(f"stream's cover lists have {len(stream.lists)} rows, but n is {n}")
    return sample_palettes(palettes, s, seed), SpaceLedger(palette_words=n * s, counter_words=n * s)


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
    fam, ledger = _begin(stream, n, SharedPalette(n, params.q), params.s, seed)
    if delta_from_stream:
        ledger.counter_words += n

    ends = stream.ends
    hit = shared_edges(ends[:, 0], ends[:, 1], fam.sampled, params.q)
    pairs = ends.take(np.flatnonzero(hit), axis=0)
    su, sv = pairs.T
    su[:], sv[:] = np.minimum(su, sv), np.maximum(su, sv)
    ledger.charge(np.broadcast_to(0, len(pairs)), space_cap)
    stored = Rows(pairs.ravel(), np.arange(0, pairs.size + 1, 2))

    delta = int(np.bincount(ends.ravel(), minlength=n).max(initial=0)) \
        if delta_from_stream else params.delta_ref
    return _finish(pairs, None, fam, params, delta, ledger, stored, policy, seed)


def _finish(ends: np.ndarray, cover: CorrespondenceCover | None, fam: PaletteFamily,
            params: SparsifyParams, delta: int, ledger, stored, policy: str, seed: int):
    """Run the reduction tail (`nibble._reduce`) at `delta` on the graph of
    the stored `ends`, or the kept pairs' cover. The stored ends are
    distinct edges u < v of a checked stream, so the held graph is built
    from their sorted keys u*n + v, not checked again, and handed over
    inline: only the tail holds it, and frees it before solving."""
    n = fam.n
    keys = ends[:, 0] * n
    keys += ends[:, 1]
    keys.sort()
    fam, _, res = _reduce(Graph.__new__(Graph)._hold(n, keys, *split(keys, max(n, 1))), fam,
                          params, cover=cover, delta_ref=delta, policy=policy, seed=seed)
    if res is None:
        return StreamResult(None, ledger, fam, stored, None,
                            error="a vertex lost every sampled color in pruning")
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
    fam, ledger = _begin(stream, n, stream.lists, params.s, seed)

    # a pair stays when both its colors are sampled at their ends: one
    # search of the samples for its first color, and for the second where
    # the first stays; a record is stored when one of its pairs stays
    record, pairs, sampled = stream.pair_record, stream.pairs, fam.sampled
    at = sampled.find(stream.ends[record, 0], pairs[:, 0])
    kept = np.flatnonzero(at >= 0)
    bt = sampled.find(stream.ends[record[kept], 1], pairs[kept, 1])
    kept, bt = kept[bt >= 0], bt[bt >= 0]
    record, at = record[kept], np.column_stack((at[kept], bt))
    first = run_starts(record)  # where each stored record's run of pairs starts
    ledger.charge(np.diff(np.flatnonzero(np.append(first, True))), space_cap)

    # stored as u < v, the pairs turned round with their record
    ends = stream.ends[record]
    turn = ends[:, 0] > ends[:, 1]
    ends[turn], at[turn] = ends[turn, ::-1], at[turn, ::-1]
    stored = EdgeStream.__new__(EdgeStream)._hold(n, ends[first], sampled, np.cumsum(first) - 1,
                                                  sampled.values[at])
    # the held cover's arrays, as the dict constructor builds them: records in
    # stream order, each one's pairs sorted (not sorted again if they come so)
    colors, ranks = ranked(sampled.values)
    ra, rb = ranks[at[:, 0]], ranks[at[:, 1]]
    key = ra * colors.size + rb
    sort = not ((record[1:] > record[:-1]) | (key[1:] >= key[:-1])).all()
    order = stable_order(key) if sort else np.arange(key.size)
    order = order[stable_order(record[order])]
    held = CorrespondenceCover._of(sampled, CoverArrays(
        colors, ends[order, 0], ends[order, 1], ra[order], rb[order], ranks))
    return _finish(stored.ends, held, fam, params, params.delta_ref, ledger, stored, policy, seed)
