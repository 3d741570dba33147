"""Single-pass edge-stream coloring with exact space accounting.

Palettes are sampled before the first edge arrives. An edge is stored
exactly when the endpoint samples can collide (for covers: when its
matching restricted to the samples is nonempty). Streams are held as
arrays: endpoints and, for a cover stream, the `CorrespondenceCover` of
its records' pairs, built with the stream. One pass serves both kinds:
its retention is one call of a survival kernel that `build_conflict`
uses, `shared_edges` on the endpoint samples or `restrict_cover` of the
stream's cover to them, and one closed-form ledger, `SpaceLedger.charge`,
charges the stored records. The pass calls nothing else beneath the
tail: after it, the `Graph` of the stored edges, built from their sorted
keys (and for a cover stream the cut, the held cover), goes to the
reduction tail that all three models share (`nibble._reduce`: `prune`,
`build_conflict`, `solve`). The ledger's word model: one word per id or
counter, two per stored edge, two per stored matching pair, n*s words
for palettes and for counters.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass

import numpy as np

from ._rng import TAG_PERMUTE, substream
from .cover import CorrespondenceCover, CoverArrays, Rows, _edge_starts, is_id_pair, restrict_cover
from .graphcore import Graph, check_n, check_pairs, split, stable_order
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
    read-only arrays: `ends`, the records' (r, 2) endpoints, and
    `pair_record`, the record of each pair. A cover stream holds `cover`,
    the `CorrespondenceCover` on `lists` of every record's pairs, records
    in stream order, each one turned to u < v with its pairs sorted by the
    color at u, then at v, as the dict constructor holds them; a plain
    stream's `cover` is None. `pairs`, the pairs' (p, 2) color ids, each
    oriented as its record, and iteration make their output anew from these.
    """

    def __init__(self, n: int, records=(), lists=None):
        """`records`: a sequence of record tuples; an array is read as one.
        The pairs are encoded as the dict constructor encodes them
        (`CorrespondenceCover._encode`), a record's pairs being its edge's."""
        records = records.tolist() if isinstance(records, np.ndarray) else tuple(records)
        bad = next((i for i, rec in enumerate(records) if not _is_record(rec)), None)
        if bad is not None:
            raise ValueError(f"stream record {bad} {records[bad]!r} is not (u, v) or "
                             "(u, v, pairs) of integer ids")
        ends = np.array([rec[:2] for rec in records], dtype=np.int64).reshape(-1, 2)
        matchings = [rec[2] if len(rec) > 2 else () for rec in records]
        if lists is None and any(matchings):
            raise ValueError("cover records need the stream's cover lists")
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
        counts = np.fromiter(map(len, matchings), dtype=np.int64, count=len(records))
        ab = np.array([pair for pairs in matchings for pair in pairs], dtype=np.int64)
        # no record repeats an edge, so the encoder's repeat message never shows
        cover = None if lists is None else CorrespondenceCover._encode(
            Rows.of(lists), *ends.T, counts, *ab.reshape(-1, 2).T, "stream repeats the edge")
        self._hold(n, ends, np.repeat(np.arange(len(records)), counts), cover)

    def _hold(self, n, ends, pair_record, cover) -> "EdgeStream":
        """Takes the arrays and cover as they are: the array builders' constructor."""
        ends.flags.writeable = pair_record.flags.writeable = False
        self.n, self.ends, self.pair_record, self.cover = n, ends, pair_record, cover
        return self

    @property
    def lists(self) -> Rows | None:
        return None if self.cover is None else self.cover.lists

    @property
    def pairs(self) -> np.ndarray:
        """The (p, 2) color ids of the pairs in stream order, each oriented
        as its record."""
        if self.cover is None:
            return np.zeros((0, 2), dtype=np.int64)
        a = self.cover.arrays
        pairs = a.colors[np.column_stack((a.ra, a.rb))]
        turn = self.ends[self.pair_record, 0] > self.ends[self.pair_record, 1]
        pairs[turn] = pairs[turn, ::-1]
        return pairs

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self):
        """The records in turn, as tuples made anew."""
        ends = self.ends.tolist()
        if self.cover is None:
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
        return cls.__new__(cls)._hold(g.n, ends, np.zeros(0, dtype=np.int64), None)

    @classmethod
    def from_cover(cls, g: Graph, cov: CorrespondenceCover,
                   permute_seed: int | None = None) -> "EdgeStream":
        """The records (u, v, pairs) of g's edges, u < v, each with the
        cover's pairs on it in `cov.arrays` order (none off a cover edge),
        shuffled as `from_graph` shuffles them. The stream's cover shares
        `cov`'s lists, colors and list ranks, so nothing is ranked."""
        order = _shuffled(g.m, permute_seed)
        a = cov.arrays
        # each pair's edge among g's, looked up once per run of pairs on one
        # edge; a pair on no edge of g is dropped
        first = _edge_starts(a.eu, a.ev)
        edge = g.edge_index(a.eu[first], a.ev[first])[np.cumsum(first) - 1]
        on = edge >= 0
        record = np.argsort(order)[edge[on]]
        # grouped by record, each record's pairs in arrays order
        sort = stable_order(record)
        by = np.flatnonzero(on)[sort]
        cover = CorrespondenceCover._of(cov.lists, CoverArrays(
            a.colors, a.eu[by], a.ev[by], a.ra[by], a.rb[by], a.lists))
        return cls.__new__(cls)._hold(g.n, np.column_stack(g.edge_arrays())[order],
                                      record[sort], cover)


@dataclass
class StreamResult:
    """`stored` holds the stored edges in stream order, u < v, as a stream:
    of the (u, v) records, or for a cover stream of the (u, v, kept pairs)
    records, whose cover is the held cover."""

    coloring: PartialColoring | None
    ledger: SpaceLedger
    family: PaletteFamily
    stored: EdgeStream
    solve_result: SolveResult | None
    error: str = ""

    @property
    def success(self) -> bool:
        return self.coloring is not None


def stream_color(stream: EdgeStream, n: int, params: SparsifyParams, seed: int,
                 *, space_cap: int | None = None, policy: str = "auto",
                 delta_from_stream: bool = False) -> StreamResult:
    """One pass over an edge stream; q-coloring from sampled palettes.

    A plain stream samples the shared palette 0..q-1 and stores an edge
    iff the endpoint samples intersect; a cover stream samples its cover
    lists and stores a record iff one of its pairs has both colors
    sampled, with those pairs: the held cover is the stream's cover cut
    down to the samples. Counts, per sampled (v, c), the conflicts of c;
    prunes after the stream at (1+gamma')*s*delta/q; solves the retained
    instance. With `delta_from_stream` the pruning threshold is recomputed
    from the observed max degree instead of the a-priori delta (costs n
    extra counter words).
    """
    cover = stream.cover
    check_n("stream", stream.n, n)
    if cover is not None and len(cover.lists) != n:
        raise ValueError(f"stream's cover lists have {len(cover.lists)} rows, but n is {n}")
    fam = sample_palettes(SharedPalette(n, params.q) if cover is None else cover.lists,
                          params.s, seed)
    ledger = SpaceLedger(palette_words=n * params.s,
                         counter_words=n * params.s + (n if delta_from_stream else 0))

    # a plain stream's pair index is empty, and so is its stored stream's
    ends, record = stream.ends, stream.pair_record
    if cover is None:
        hit = shared_edges(ends[:, 0], ends[:, 1], fam.sampled, params.q)
        kept = ends.take(np.flatnonzero(hit), axis=0)
        su, sv = kept.T
        su[:], sv[:] = np.minimum(su, sv), np.maximum(su, sv)
    else:
        # the cut's edges are the stored records, u < v, each one's pairs a run
        cover, kept = restrict_cover(cover, fam.sampled)
        record = np.cumsum(_edge_starts(cover.arrays.eu, cover.arrays.ev)) - 1
    ledger.charge(np.bincount(record, minlength=len(kept)), space_cap)
    stored = EdgeStream.__new__(EdgeStream)._hold(n, kept, record, cover)

    delta = int(np.bincount(ends.ravel(), minlength=n).max(initial=0)) \
        if delta_from_stream else params.delta_ref
    # the stored edges are distinct edges u < v of a checked stream, so the
    # held graph is built from their sorted keys u*n + v, not checked again,
    # and handed over inline: only the tail holds it, and frees it before solving
    keys = kept[:, 0] * n
    keys += kept[:, 1]
    keys.sort()
    fam, _, res = _reduce(Graph.__new__(Graph)._hold(n, keys, *split(keys, max(n, 1))), fam,
                          params, cover=cover, delta_ref=delta, policy=policy, seed=seed)
    if res is None:
        return StreamResult(None, ledger, fam, stored, None,
                            error="a vertex lost every sampled color in pruning")
    return StreamResult(res.coloring, ledger, fam, stored, res,
                        error="" if res.success else "solver failed")
