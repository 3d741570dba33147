"""List assignments and correspondence covers, and the `Rows` they are held in.

`Rows` is the one representation of per-vertex lists and palettes
across the package: flat int64 `values` plus `indptr` row offsets, each
row ascending, the list counterpart of the CSR `Graph`. Kernels read
the arrays; tuples of a row are made only when a caller indexes or
iterates.

A list assignment gives every vertex its own set of color names; colors with
the same name clash across an edge. A correspondence cover generalizes this:
every vertex owns a disjoint block of cover colors, and each graph edge
carries a partial matching between the two endpoint blocks saying which
color pairs clash. Lists embed canonically into covers by matching
same-named colors on adjacent vertices, and every structural question
(c-degrees, local sparsity) can be asked of the cover graph instead of the
underlying graph.

Cover colors a and b clash across uv exactly when (a, b) is one of uv's
declared pairs. `CorrespondenceCover.arrays` holds those pairs as flat
int64 arrays, in `matchings` order: each pair's edge (u < v) and the ranks
of its colors among the ascending distinct color ids of the cover it was
cut from (its own, for an uncut cover). Every cover
path runs on the kernels below over them (degrees, correspondents among
picked colors, restriction, kept rows, clashes); they sit here, not beside
the list kernels in `sparsify`, because `sparsify` imports this module.
Every cover built from given ids, by the dict constructor, `load_cover`
or a stream built from record tuples, is encoded by one
`CorrespondenceCover._encode`: each edge turned to u < v with its pairs
sorted, a repeated edge rejected, and the ids ranked once. The one row
join, `_joined`, sits beside `Rows.find` and `Rows.spread`, which it is
built from: the canonical cover and the list kernels of `sparsify` run
on it, a bounded chunk of pairs at a time.
"""

from __future__ import annotations

from collections.abc import Sequence, Sized
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Integral

import numpy as np

from ._rng import TAG_COVER, substream
from .graphcore import (Graph, _Ints, _offsets, _triangle_counts, check_n, distinct, ranked,
                        split, stable_order)

__all__ = [
    "CoverError",
    "ListAssignment",
    "Rows",
    "CorrespondenceCover",
    "CoverReport",
    "CoverArrays",
    "validate_cover",
    "cover_from_lists",
    "cover_sparsity",
    "color_degrees",
    "cover_rows",
    "picked_counts",
    "restrict_cover",
    "clashing_pairs",
    "random_cover",
    "load_cover",
]

# int64 entries of `random_cover`'s draw block (0.5 MB), whatever the edge count
_DRAW_BLOCK = 1 << 16

# keys per chunk of the row join (`_joined`): 2**16 (0.5 MB), or the rows'
# entries when more, so each chunk's pass over them is paid for by its keys;
# also the pairs per chunk of `sparsify.shared_edges`' table survival
_CHUNK_KEYS = 1 << 16


class CoverError(ValueError):
    pass


def is_id(x) -> bool:
    """Whether x is an integer id that int64 holds."""
    return isinstance(x, Integral) and -2 ** 63 <= x < 2 ** 63


def is_id_pair(xs) -> bool:
    """Whether xs is a sized pair of integer ids that int64 holds."""
    return isinstance(xs, Sized) and len(xs) == 2 and all(map(is_id, xs))


class Rows(Sequence):
    """Ragged rows of int64 ids, the list counterpart of the CSR `Graph`:
    row v is values[indptr[v]:indptr[v + 1]], ascending. Read-only.

    `rows[v]` and iteration give tuples made on demand, and `==` compares
    with any sequence of rows, so a `Rows` reads like a tuple of tuples;
    the kernels read `values`, `lens` and `owner` instead. The one fact
    kept is `strict`, learnt once: the arrays cannot change under it.
    """

    __slots__ = ("values", "indptr", "_strict")

    def __init__(self, values: np.ndarray, indptr: np.ndarray, strict: bool | None = None):
        """Takes the int64 arrays as they are: each row must be ascending.
        `strict` is what `strict` reads, when the caller knows it."""
        self.values, self.indptr, self._strict = values, indptr, strict
        values.flags.writeable = indptr.flags.writeable = False

    def __reduce__(self):
        # through __init__, so an unpickled Rows is read-only too
        return Rows, (self.values, self.indptr)

    @classmethod
    def of(cls, rows) -> "Rows":
        """Rows from any sequence of iterables of ids, each row sorted; a
        `Rows` is returned as it is. Repeated ids stay (see `first_repeat`).
        ValueError names the first row holding an id that int64 does not."""
        if isinstance(rows, Rows):
            return rows
        if not isinstance(rows, Sized):
            rows = tuple(rows)
        lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        try:
            values = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lens.sum()))
        except OverflowError:
            v = next(v for v, row in enumerate(rows)
                     if not all(-2 ** 63 <= x < 2 ** 63 for x in row))
            raise ValueError(f"row {v} holds an id outside int64") from None
        return cls(values, _offsets(lens)).ascending()

    def ascending(self) -> "Rows":
        """The rows, each sorted: `self` when no row descends."""
        if not self.steps(np.less).any():
            return self
        # one sort by (row, id) puts every row in order
        return Rows(self.values[np.lexsort((self.values, self.owner))], self.indptr)

    @property
    def strict(self) -> bool:
        """Whether every row strictly ascends, so no row holds an id twice:
        one pass over the entries, on the first read."""
        if self._strict is None:
            self._strict = not self.steps(np.less_equal).any()
        return self._strict

    def steps(self, op) -> np.ndarray:
        """Bool mask of the entries e with op(e, the entry before) in their
        row, for a comparison ufunc `op`; False at each row's first entry.
        With `np.equal`, the repeats (an ascending row holding an id twice
        holds the copies next to each other)."""
        step = np.empty(self.values.size, dtype=bool)
        op(self.values[1:], self.values[:-1], out=step[1:])
        step[self.indptr[:-1][self.indptr[:-1] < step.size]] = False  # each row's first
        return step

    def first_repeat(self) -> int | None:
        """The first row holding an id twice, or None: the last row that
        starts at or before the first repeat."""
        again = np.flatnonzero(self.steps(np.equal))
        return int(np.searchsorted(self.indptr, again[0], side="right")) - 1 if again.size else None

    def __len__(self) -> int:
        return self.indptr.size - 1

    @property
    def lens(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def owner(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(len(self)), self.lens)

    def __getitem__(self, v):
        """Row v as a tuple; for a slice, the tuple of its rows' tuples."""
        v = range(len(self))[v]
        if isinstance(v, range):
            return tuple(map(self.__getitem__, v))
        lo, hi = self.indptr[v : v + 2].tolist()
        return tuple(self.values[lo:hi].tolist())

    def __iter__(self):
        flat, bounds = self.values.tolist(), self.indptr.tolist()
        return (tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(other) == len(self) and all(a == tuple(b) for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def keep(self, mask: np.ndarray) -> "Rows":
        """The rows cut down to the entries the bool mask `mask` marks:
        `self` when it marks them all."""
        if mask.all():
            return self
        kept = np.flatnonzero(mask)
        # a cut of strict rows is strict; of others, it may be either
        strict = self._strict or None
        return Rows(self.values.take(kept), np.searchsorted(kept, self.indptr), strict)

    def find(self, at: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """The entry index of id ids[i] in row at[i] (its first, if the row
        holds it twice), or -1 where the row lacks it. Each lookup searches
        its own row, from one entry before it, by steps of halving powers of
        two while the probed entry is below the id (a probe past the row
        reads its last entry): O(k log L) for k lookups into rows of at most
        L entries, in k-long arrays."""
        # first: the first entry not known to be below the id; last: the
        # row's last entry (the one before the row, when it is empty)
        first, last = self.indptr.take(at), self.indptr[1:].take(at)
        probe = np.subtract(last, first)
        width = int(probe.max(initial=0))
        if not width:
            return np.full(ids.size, -1, dtype=np.int64)
        last -= 1
        got, below = np.empty(ids.size, dtype=self.values.dtype), np.empty(ids.size, dtype=bool)
        step = 1 << width.bit_length() >> 1
        while step:
            np.add(first, step - 1, out=probe)
            np.minimum(probe, last, out=probe)
            # "clip" does not buffer `got`; an empty first row's probe -1 reads entry 0
            self.values.take(probe, out=got, mode="clip")
            np.less(got, ids, out=below)
            # first = probe + 1 where below, by a max, as probe + 1 >= first >= 0
            # (faster than np.copyto with where=); no step of an empty row moves it
            probe += 1
            probe *= below
            np.maximum(first, probe, out=first)
            step >>= 1
        np.minimum(first, last, out=probe)
        self.values.take(probe, out=got, mode="clip")
        found = np.equal(got, ids, out=below)
        found &= first <= last
        # first where found, else -1, by arithmetic (faster than np.where)
        first += 1
        first *= found
        first -= 1
        return first

    def holds(self, at: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Bool mask: row at[i] holds id ids[i] (see `find`)."""
        return self.find(at, ids) >= 0

    def spread(self, at: np.ndarray) -> np.ndarray:
        """The entry indices of rows at[0], at[1], ..., in turn."""
        lens = self.lens[at]
        return np.arange(lens.sum()) + np.repeat(self.indptr[at] - _offsets(lens)[:-1], lens)

    def __repr__(self):
        return f"Rows(n={len(self)}, entries={self.values.size})"


def _joined(tails, rows: Rows, heads):
    """The row join: per chunk of pairs, (i, t, h) for every id that pair
    i's two rows share, t its entry in the tail row rows[tails[i]] and h
    in the head row, heads(lo, hi) the heads of pairs lo..hi-1, in pair
    order and, on a pair, in tail-row order. Each entry of the tail row is
    looked up in the head row with `Rows.find`, at most about
    max(`_CHUNK_KEYS`, the rows' entries) lookups a chunk."""
    lens = rows.lens
    step = max(_CHUNK_KEYS, rows.values.size) // max(1, int(lens.max(initial=0)))
    for lo in range(0, tails.size, step):
        at = tails[lo : lo + step]
        i = np.repeat(np.arange(at.size), lens[at])
        t = rows.spread(at)
        h = rows.find(heads(lo, lo + at.size)[i], rows.values[t])
        yield i[h >= 0] + lo, t[h >= 0], h[h >= 0]


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex color lists, as `Rows`, each sorted (a hand-built `Rows`
    too); duplicates within a list are forbidden."""

    lists: Rows

    def __post_init__(self):
        rows = Rows.of(self.lists)
        # `strict` clears rows that strictly ascend, as most do
        if not rows.strict:
            rows = rows.ascending()
            v = rows.first_repeat()
            if v is not None:
                raise CoverError(f"duplicate color in list of vertex {v}")
        object.__setattr__(self, "lists", rows)

    @property
    def n(self) -> int:
        return len(self.lists)


@dataclass(frozen=True, eq=False)
class CoverArrays:
    """The matched pairs of a cover as flat int64 arrays, in `matchings`
    order: pair i joins color rank ra[i] at eu[i] to rank rb[i] at ev[i],
    eu[i] < ev[i]. `colors` holds the ascending distinct ids of the lists
    and the pairs of the uncut cover, so a color's rank is its index there;
    a cut (`restrict_cover`) shares that array and its ranks, so it may
    hold ids that no list or pair of the cut holds. `lists` is the lists
    as ranks, concatenated."""

    colors: np.ndarray
    eu: np.ndarray
    ev: np.ndarray
    ra: np.ndarray
    rb: np.ndarray
    lists: np.ndarray

    def rank(self, ids) -> np.ndarray:
        """Ranks of the color ids `ids`; CoverError names one the cover lacks.
        When the colors are 0..C-1 (ascending and distinct, so the ends
        tell), every id is its own rank."""
        ids = np.asarray(ids, dtype=np.int64)
        colors = self.colors
        if colors.size and colors[0] == 0 and colors[-1] == colors.size - 1:
            r = ids
            miss = (ids < 0) | (ids >= colors.size)
        else:
            r = np.searchsorted(colors, ids)
            miss = r >= colors.size
            miss[~miss] = colors[r[~miss]] != ids[~miss]
        if miss.any():
            raise CoverError(f"color {int(ids[miss.argmax()])} is not a color of the cover")
        return r


class CorrespondenceCover:
    """Cover colors per vertex plus per-edge partial matchings.

    `lists` is a `Rows` whose row v holds the globally unique color ids
    owned by v, and `arrays` holds the matched pairs; the cover kernels read
    them. `matchings` maps each edge (u, v) with u < v that has a pair to
    its (color-of-u, color-of-v) pairs, as a view of the arrays made when it
    is read. Construction is permissive so that invalid covers can be built
    and then diagnosed by `validate_cover`. A cover keeps no color names:
    the canonical cover of a list assignment numbers its colors by list
    entry (`cover_from_lists`), so its lists' values name them.
    """

    _degrees = None

    def __init__(self, lists, matchings):
        """From a dict of pairs per edge, encoded at once as `_encode` encodes
        them and not kept; a key or pair that is not two integer ids, or an
        edge keyed both ways round, raises `CoverError`."""
        lists = Rows.of(lists)
        for edge, pairs in matchings.items():
            if not (is_id_pair(edge) and isinstance(pairs, Sized) and all(map(is_id_pair, pairs))):
                raise CoverError(f"matching {edge!r}: {pairs!r} is not an edge (u, v) with (a, b) "
                                 "pairs, all integer ids")
        ends = np.array([*matchings], dtype=np.int64).reshape(-1, 2)
        ab = np.array([ab for pairs in matchings.values() for ab in pairs], dtype=np.int64)
        cov = self._encode(lists, *ends.T, np.fromiter(map(len, matchings.values()), np.int64),
                           *ab.reshape(-1, 2).T, "duplicate matching for edge")
        self.lists, self.arrays = cov.lists, cov.arrays

    @classmethod
    def _encode(cls, lists: Rows, us, vs, per_edge, a, b, repeat: str) -> "CorrespondenceCover":
        """The cover of `lists` whose edge (us[e], vs[e]) holds the next
        per_edge[e] pairs, each joining color a at us[e] to b at vs[e]: the
        edge is turned round when us[e] > vs[e], and its pairs are sorted. An
        edge that an earlier one repeats, either way round, raises CoverError
        `repeat` naming it."""
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        order = np.lexsort((hi, lo))
        again = order[1:][(lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])]
        if again.size:
            raise CoverError(f"{repeat} {(int(lo[again.min()]), int(hi[again.min()]))}")
        turn = np.repeat(us > vs, per_edge)
        a, b = np.where(turn, b, a), np.where(turn, a, b)
        order = np.lexsort((b, a, np.repeat(np.arange(us.size), per_edge)))
        flat = lists.values
        colors, ranks = ranked(np.concatenate((flat, a[order], b[order])))
        ra, rb = np.split(ranks[flat.size:], 2)
        return cls._of(lists, CoverArrays(colors, np.repeat(lo, per_edge), np.repeat(hi, per_edge),
                                          ra, rb, ranks[:flat.size]))

    @classmethod
    def _of(cls, lists: Rows, arrays: CoverArrays) -> "CorrespondenceCover":
        """The cover with these lists and pair arrays, taken as they are:
        the constructor of every builder that makes the arrays itself."""
        cov = cls.__new__(cls)
        cov.lists, cov.arrays = lists, arrays
        return cov

    @property
    def n(self) -> int:
        return len(self.lists)

    @cached_property
    def num_colors(self) -> int:
        return self.lists.values.size

    @cached_property
    def matchings(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        a = self.arrays
        first = np.flatnonzero(_edge_starts(a.eu, a.ev))
        pairs = list(zip(a.colors[a.ra].tolist(), a.colors[a.rb].tolist()))
        bounds = first.tolist() + [len(pairs)]
        return {(u, v): tuple(pairs[lo:hi]) for u, v, lo, hi in
                zip(a.eu[first].tolist(), a.ev[first].tolist(), bounds, bounds[1:])}

    @cached_property
    def _owners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(own, placed, doubtful): own[r], the first vertex whose list holds
        rank r (-1 for none); the pairs whose colors one entry each holds, at
        their own ends; the pairs in range with a color two entries hold."""
        a = self.arrays
        own = np.full(a.colors.size, self.n, dtype=np.int64)
        # the rows come in order, so a rank's least owner is its first
        np.minimum.at(own, a.lists, self.lists.owner)
        own[own == self.n] = -1
        shared = np.bincount(a.lists, minlength=a.colors.size) > 1
        either = shared[a.ra] | shared[a.rb]
        # eu <= ev, so eu >= 0 keeps the -1 of an unheld color from matching
        placed = (own[a.ra] == a.eu) & (own[a.rb] == a.ev) & (a.eu >= 0) & ~either
        return own, placed, np.flatnonzero(either & (a.eu >= 0) & (a.ev < self.n))

    def _held(self, rows: Rows, keep: np.ndarray) -> np.ndarray:
        """Bool mask of the pairs (a, b) on uv with a in rows[u] and b in rows[v],
        for rows that cut each list and hold the ranks `keep` marks."""
        a = self.arrays
        _, placed, doubtful = self._owners
        held = placed & keep[a.ra] & keep[a.rb]
        held[doubtful] = rows.holds(a.eu[doubtful], a.colors[a.ra[doubtful]]) & \
            rows.holds(a.ev[doubtful], a.colors[a.rb[doubtful]])
        return held

    def max_color_degree(self) -> int:
        """The largest color degree, read from the cover's one count."""
        return int(color_degrees(self).max(initial=0))

    def __repr__(self):
        return f"CorrespondenceCover(n={self.n}, colors={self.num_colors})"


def _edge_starts(eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Bool mask of the pairs whose edge differs from the pair before."""
    first = np.ones(eu.size, dtype=bool)
    first[1:] = (eu[1:] != eu[:-1]) | (ev[1:] != ev[:-1])
    return first


def color_degrees(cov: CorrespondenceCover) -> np.ndarray:
    """Cover-graph degree of every color, by rank: counted once per cover and
    kept on it, read-only, as `local_sparsity` keeps its report on a `Graph`."""
    if cov._degrees is None:
        a = cov.arrays
        cov._degrees = np.bincount(np.concatenate((a.ra, a.rb)), minlength=a.colors.size)
        cov._degrees.flags.writeable = False
    return cov._degrees


def cover_rows(cov: CorrespondenceCover, keep: np.ndarray) -> Rows:
    """The cover's lists cut down to the colors whose rank `keep` marks."""
    return cov.lists.keep(keep[cov.arrays.lists])


def picked_counts(cov: CorrespondenceCover, picked: np.ndarray) -> np.ndarray:
    """For every color, by rank, its correspondents whose rank is marked in
    the bool mask `picked`."""
    a = cov.arrays
    return np.bincount(np.concatenate((a.ra[picked[a.rb]], a.rb[picked[a.ra]])),
                       minlength=a.colors.size)


def restrict_cover(cov: CorrespondenceCover, rows, vertices=None):
    """(the cover cut down to `rows`, its edges as an (e, 2) array).

    `rows[v]` is a subset of v's list; a pair on uv stays when rows[u]
    holds its color at u and rows[v] its color at v, and an edge when one
    of its pairs does. With a bool mask `vertices`, only the marked
    vertices stay, renumbered in order. The colors are not renumbered:
    the cut shares the cover's `colors` array and keeps its pairs' and
    entries' ranks. The cover itself is returned when `rows` is its lists
    and they hold every pair at its own ends.
    """
    a = cov.arrays
    rows = Rows.of(rows)
    ranks = a.lists if rows is cov.lists else a.rank(rows.values)
    keep = np.zeros(a.colors.size, dtype=bool)
    keep[ranks] = True
    held = cov._held(rows, keep)
    if vertices is None and rows is cov.lists and held.all():
        sub, eu, ev = cov, a.eu, a.ev
    else:
        at = np.flatnonzero(held)
        eu, ev = a.eu.take(at), a.ev.take(at)
        if vertices is not None:
            on = np.repeat(vertices, rows.lens)
            rows, ranks = Rows(rows.values[on], _offsets(rows.lens[vertices])), ranks[on]
            stay = np.flatnonzero(vertices[eu] & vertices[ev])
            new_id = np.cumsum(vertices) - 1
            at, eu, ev = at[stay], new_id[eu[stay]], new_id[ev[stay]]
        sub = CorrespondenceCover._of(rows, CoverArrays(
            a.colors, eu, ev, a.ra.take(at), a.rb.take(at), ranks))
    first = np.flatnonzero(_edge_starts(eu, ev))
    return sub, np.column_stack((eu.take(first), ev.take(first)))


def clashing_pairs(cov: CorrespondenceCover, at, ids) -> np.ndarray:
    """Indices of the pairs (a, b) on an edge uv with u colored a and v
    colored b, when the vertices `at` (in 0..n-1) carry the cover colors
    `ids`. A pair with an end outside 0..n-1 clashes across no edge."""
    a = cov.arrays
    # ends past n - 1 read chosen[n], no vertex's; as eu <= ev, only eu can be < 0
    chosen = np.full(cov.n + 1, -1, dtype=np.int64)
    chosen[np.asarray(at, dtype=np.int64)] = a.rank(ids)
    return np.flatnonzero((chosen.take(a.eu, mode="clip") == a.ra)
                          & (chosen.take(a.ev, mode="clip") == a.rb) & (a.eu >= 0))


@dataclass(frozen=True)
class CoverReport:
    """Outcome of the three cover validity conditions with first witnesses."""

    cc1_partition: bool
    cc2_lists_independent: bool
    cc3_matchings: bool
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.cc1_partition and self.cc2_lists_independent and self.cc3_matchings


def validate_cover(g: Graph, cov: CorrespondenceCover) -> CoverReport:
    """Check the cover conditions: ids partition across vertices (no list
    holds an id twice), no matching edge inside a list, and per-edge pair
    sets are matchings on real edges.

    The witness is the first violation in this order: a list holding an id
    twice; an entry, row-major, whose id an earlier vertex owns; then the
    edges in `matchings` order, each either a matching on a non-edge or,
    pair by pair, a pair inside one list (CC2), leaving the lists or using a
    color an earlier pair on the edge used (CC3). A pair that leaves the
    lists uses no color. Array operations over the entries and pairs. A
    cover of another vertex count than g's raises CoverError.
    """
    check_n("cover", cov.n, g.n, CoverError)
    a, lists = cov.arrays, cov.lists
    witness = []
    v = lists.first_repeat()
    if v is not None:
        row = lists[v]
        c = next(x for x, y in zip(row, row[1:]) if x == y)
        witness.append(f"color {c} appears twice in the list of vertex {v}")
    own = cov._owners[0]
    rows = lists.owner
    second = rows != own[a.lists]
    if second.any():
        i = int(second.argmax())
        witness.append(f"color {int(lists.values[i])} owned by vertices "
                       f"{int(own[a.lists[i]])} and {int(rows[i])}")
    cc1 = not witness

    eu, ev, ra, rb = a.eu, a.ev, a.ra, a.rb
    starts = _edge_starts(eu, ev)
    edge = np.cumsum(starts) - 1
    real = (g.edge_index(eu[starts], ev[starts]) >= 0)[edge]
    inside = real & ((ra == rb) | ((own[ra] >= 0) & (own[ra] == own[rb])))
    held = real & cov._held(lists, own >= 0)
    twice = np.zeros(eu.size, dtype=bool)
    used = np.flatnonzero(held)
    for side in (ra, rb):
        # an edge's pairs are consecutive, so among the pairs with one color
        # on this side, in order, a repeat on an edge follows its first use
        order = used[stable_order(side[used])]
        twice[order[1:]] |= (side[order[1:]] == side[order[:-1]]) & \
            (edge[order[1:]] == edge[order[:-1]])
    non_edge = starts & ~real
    leaves = real & ~held
    bad = non_edge | inside | leaves | twice
    if bad.any() and not witness:
        i = int(bad.argmax())
        u, v, x, y = int(eu[i]), int(ev[i]), int(a.colors[ra[i]]), int(a.colors[rb[i]])
        if non_edge[i]:
            witness.append(f"matching on non-edge ({u}, {v})")
        elif inside[i]:
            witness.append(f"pair ({x}, {y}) lies inside a single vertex's list")
        elif leaves[i]:
            witness.append(f"pair ({x}, {y}) on edge ({u}, {v}) leaves the lists")
        else:
            witness.append(f"color matched twice on edge ({u}, {v}): pair ({x}, {y})")
    return CoverReport(cc1, not inside.any(), not (non_edge | leaves | twice).any(),
                       witness[0] if witness else None)


def cover_from_lists(g: Graph, l: ListAssignment) -> CorrespondenceCover:
    """Canonical embedding of a list assignment: same-named colors on
    adjacent vertices correspond. Proper colorings pull back both ways.

    The cover ids are the list entries in row-major order, so cover id c
    is named `l.lists.values[c]`, and a coloring pulls back through that
    array. The pairs are the row join's (`_joined`, which the list kernels
    of `sparsify` share) over the edges u < v, chunk by chunk: every entry
    of u's list is looked up in v's, so the pairs come in edge order and,
    on each edge, by name, and a pair's two colors are the two entries.
    """
    check_n("list assignment", l.n, g.n, CoverError)
    ids = np.arange(l.lists.values.size)
    us, vs = g.edge_arrays()
    # an empty chunk first, so that a graph with no edges has no pairs
    i, ra, rb = map(np.concatenate, zip((np.zeros(0, dtype=np.int64),) * 3,
                                        *_joined(us, l.lists, lambda lo, hi: vs[lo:hi])))
    arrays = CoverArrays(ids, us.take(i), vs.take(i), ra, rb, ids)
    return CorrespondenceCover._of(Rows(ids, l.lists.indptr), arrays)


def cover_sparsity(cov: CorrespondenceCover) -> int:
    """k_star of the cover graph: max edges inside a cover-color neighborhood,
    from `graphcore._triangle_counts` on its distinct sorted edge keys (a
    self-matched pair is no edge); no `Graph` is built."""
    a = cov.arrays
    c = a.colors.size
    lo, hi = np.minimum(a.ra, a.rb), np.maximum(a.ra, a.rb)
    keys = distinct((lo * c + hi)[lo < hi])
    return int(_triangle_counts(c, *split(keys, max(c, 1))).max(initial=0))


def random_cover(g: Graph, list_size: int, density: float, seed: int) -> CorrespondenceCover:
    """Cover with uniformly random partial matchings of the given density.

    Vertex v owns the id block [v*list_size, (v+1)*list_size). Edges are
    processed in lexicographic order from a single stream: each draws its
    pair count t from a binomial and, when t > 0, pairs the first t places
    of one permutation of u's block with those of a second one of v's.

    One `permuted(axis=1)` of the edge's two rows of a block tiled with
    0..list_size-1 draws what two `permutation` calls would. Edges are not
    batched further: numpy shuffles by masked rejection, which `_rng.bounded`
    does not replay, and each binomial takes a whole 64-bit word, so an
    edge's draws depend on the rejections of the edges before it.
    """
    rng = substream(seed, TAG_COVER)
    binomial, permuted = rng.binomial, rng.permuted
    ids = np.arange(g.n * list_size)
    lists = Rows(ids, _offsets(np.full(g.n, list_size)))
    places = np.arange(list_size)
    step = max(1, _DRAW_BLOCK // max(2 * list_size, 1))
    tile = np.empty((min(step, g.m), 2, list_size), dtype=np.int64)
    per_edge, chosen = [np.zeros(0, dtype=np.int64)], [np.zeros((0, 2), dtype=np.int64)]
    for lo in range(0, g.m, step):
        block = tile[:g.m - lo]
        block[...] = places
        counts = []
        for pair in block:
            counts.append(binomial(list_size, density))
            if counts[-1]:
                permuted(pair, axis=1, out=pair)
        per_edge.append(np.array(counts, dtype=np.int64))
        # the first t places of both rows of every edge, as (u's, v's) pairs
        chosen.append(block.transpose(0, 2, 1)[places < per_edge[-1][:, None]])
    us, vs = g.edge_arrays()
    per_edge = np.concatenate(per_edge)
    eu, ev = np.repeat(us, per_edge), np.repeat(vs, per_edge)
    a, b = np.concatenate(chosen).T
    # each edge's pairs by u's color, as the dict constructor sorts them
    order = np.lexsort((a, np.repeat(np.arange(g.m), per_edge)))
    arrays = CoverArrays(ids, eu, ev, eu * list_size + a[order], ev * list_size + b[order], ids)
    return CorrespondenceCover._of(lists, arrays)


def load_cover(path) -> CorrespondenceCover:
    """Read the format 'n q_total', one line of color ids per vertex, then
    'u v p a1 b1 ... ap bp' lines of matched pairs (blank lines skipped),
    rejecting any violation: the first bad line is named, as a loop over the
    lines in turn would name it. The cover equals the dict constructor's."""
    f = _Ints(path)
    counts, values = f.counts, f.values
    n, q_total = f.header(CoverError, "'n q_total'")
    if n < 0:
        raise CoverError(f"negative vertex count: {n}")
    f.check(1 + n, CoverError)
    if counts.size < 1 + n:
        raise CoverError("truncated list section")
    first = _offsets(counts)
    rows = 1 + n + np.flatnonzero(counts[1 + n:])  # the matching lines
    c, at = counts[rows], first[rows]
    u, v, p = (values.take(at + k, mode="clip") for k in range(3))
    # the lines before the first of other than 3 + 2p tokens or with a bad token
    short = np.flatnonzero((c < 3) | (c % 2 == 0) | (p != (c - 3) // 2))[:1].tolist()
    k = min(short + [int(np.searchsorted(rows, min(f.junk, f.wide)))])
    ab = values[np.arange(2 * int(p[:k].sum())) + np.repeat(at[:k] + 3 - _offsets(2 * p[:k])[:-1],
                                                             2 * p[:k])]
    lists = Rows(values[2:first[1 + n]].copy(), _offsets(counts[1:1 + n])).ascending()
    cov = CorrespondenceCover._encode(lists, u[:k], v[:k], p[:k], *ab.reshape(-1, 2).T,
                                      "duplicate matching line for edge")
    if k < rows.size:  # no line before it repeats an edge
        f.check(rows[k] + 1, CoverError)
        line = f.line(rows[k], 1)
        raise CoverError(f"bad matching line: {line!r}" if c[k] < 3 else
                         f"matching line claims {p[k]} pairs: {line!r}")
    if cov.num_colors != q_total:
        raise CoverError(f"header claims {q_total} colors, lists carry {cov.num_colors}")
    return cov
