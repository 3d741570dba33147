"""List assignments and correspondence covers, and the `Rows` they are held in.

`Rows` is the one representation of per-vertex lists, palettes and stored
stream edges across the package: flat int64 `values` plus `indptr` row
offsets, each row ascending, the list counterpart of the CSR `Graph`.
Kernels read the arrays; tuples of a row are made only when a caller
indexes or iterates.

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
of its colors among the cover's ascending distinct color ids. Every cover
path runs on the kernels below over them (degrees, correspondents among
picked colors, restriction, kept rows, clashes); they sit here, not beside
the list kernels in `sparsify`, because `sparsify` imports this module.
"""

from __future__ import annotations

from collections.abc import Sequence, Sized
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from ._rng import TAG_COVER, substream
from .graphcore import Graph, local_sparsity

__all__ = [
    "CoverError",
    "ListAssignment",
    "Rows",
    "CorrespondenceCover",
    "CoverReport",
    "CDegreeTable",
    "CoverArrays",
    "validate_cover",
    "cover_from_lists",
    "c_degrees",
    "cover_sparsity",
    "color_degrees",
    "cover_rows",
    "picked_counts",
    "restrict_cover",
    "clashing_pairs",
    "random_cover",
    "save_cover",
    "load_cover",
]


class CoverError(ValueError):
    pass


def _offsets(lens: np.ndarray) -> np.ndarray:
    """Row offsets (n + 1 of them) of rows with lengths `lens`."""
    indptr = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return indptr


class Rows(Sequence):
    """Ragged rows of int64 ids, the list counterpart of the CSR `Graph`:
    row v is values[indptr[v]:indptr[v + 1]], ascending. Read-only.

    `rows[v]` and iteration give tuples made on demand, and `==` compares
    with any sequence of rows, so a `Rows` reads like a tuple of tuples;
    the kernels read `values`, `lens` and `owner` instead.
    """

    __slots__ = ("values", "indptr")

    def __init__(self, values: np.ndarray, indptr: np.ndarray):
        """Takes the int64 arrays as they are: each row must be ascending."""
        self.values, self.indptr = values, indptr
        values.flags.writeable = indptr.flags.writeable = False

    @classmethod
    def of(cls, rows) -> "Rows":
        """Rows from any sequence of iterables of ids, each row sorted; a
        `Rows` is returned as it is. Repeated ids stay (see `first_repeat`)."""
        if isinstance(rows, Rows):
            return rows
        if not isinstance(rows, Sized):
            rows = tuple(rows)
        lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        values = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lens.sum()))
        out = cls(values, _offsets(lens))
        owner = out.owner
        if ((values[1:] < values[:-1]) & (owner[1:] == owner[:-1])).any():
            # one sort by (row, id) puts every row in order
            out = cls(values[np.lexsort((values, owner))], out.indptr)
        return out

    def first_repeat(self) -> int | None:
        """The first row holding an id twice, or None."""
        owner = self.owner
        dup = (self.values[1:] == self.values[:-1]) & (owner[1:] == owner[:-1])
        return int(owner[dup.argmax()]) if dup.any() else None

    def __len__(self) -> int:
        return self.indptr.size - 1

    @property
    def lens(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def owner(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(len(self)), self.lens)

    def __getitem__(self, v) -> tuple[int, ...]:
        v = range(len(self))[v]
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
        """The rows cut down to the entries the bool mask `mask` marks."""
        return Rows(self.values[mask], np.concatenate(([0], np.cumsum(mask)))[self.indptr])

    def holds(self, at: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Bool mask: row at[i] holds id ids[i]. One binary search of the
        (row, id) keys, which ascend with the entries."""
        size = self.values.size
        if not size:
            return np.zeros(len(ids), dtype=bool)
        both = np.concatenate((self.values, ids))
        lo, hi = int(both.min()), int(both.max())
        span = hi - lo + 1
        if span * len(self) < 2 ** 63:
            both -= lo
        else:
            # ids too far apart to sit beside the row in one int64: rank them
            both = np.unique(both, return_inverse=True)[1]
            span = int(both.max()) + 1
        keys = self.owner * span + both[:size]
        want = at * span + both[size:]
        return keys[np.minimum(np.searchsorted(keys, want), size - 1)] == want

    def relabel(self, ids: np.ndarray) -> "Rows":
        """Every id c replaced by ids[c]; `ids` ascending keeps rows in order."""
        return Rows(ids[self.values], self.indptr)

    def __repr__(self):
        return f"Rows(n={len(self)}, entries={self.values.size})"


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex color lists, as `Rows`; duplicates within a list are forbidden."""

    lists: Rows

    def __post_init__(self):
        rows = Rows.of(self.lists)
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
    and the pairs, so a color's rank is its index there; `lists` and `lens`
    are the lists as ranks, concatenated, and their lengths."""

    colors: np.ndarray
    eu: np.ndarray
    ev: np.ndarray
    ra: np.ndarray
    rb: np.ndarray
    lists: np.ndarray
    lens: np.ndarray

    def rank(self, ids) -> np.ndarray:
        """Ranks of the color ids `ids`; CoverError names one the cover lacks."""
        ids = np.asarray(ids, dtype=np.int64)
        r = np.searchsorted(self.colors, ids)
        miss = r >= self.colors.size
        miss[~miss] = self.colors[r[~miss]] != ids[~miss]
        if miss.any():
            raise CoverError(f"color {int(ids[miss.argmax()])} is not a color of the cover")
        return r


class CorrespondenceCover:
    """Cover colors per vertex plus per-edge partial matchings.

    `lists` is a `Rows` whose row v holds the globally unique color ids
    owned by v; `matchings` maps
    each edge (u, v) with u < v to a tuple of (color-of-u, color-of-v)
    pairs. Construction is permissive so that invalid covers can be built
    and then diagnosed by `validate_cover`. `arrays` is the encoding the
    cover kernels read; a cover that `restrict_cover` builds starts from it
    and only makes `matchings` when it is read.
    """

    def __init__(self, lists, matchings, source_color=None):
        self.lists = Rows.of(lists)
        self.matchings: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for (u, v), pairs in matchings.items():
            if u > v:
                u, v = v, u
                pairs = [(b, a) for a, b in pairs]
            self.matchings[(u, v)] = tuple(sorted(pairs))
        # maps cover color id back to the original color name, when the cover
        # was built from a list assignment
        self.source_color: dict[int, int] | None = source_color

    @property
    def n(self) -> int:
        return len(self.lists)

    @cached_property
    def owner(self) -> dict[int, int]:
        own: dict[int, int] = {}
        for v, row in enumerate(self.lists):
            for c in row:
                own.setdefault(c, v)
        return own

    @cached_property
    def num_colors(self) -> int:
        return self.lists.values.size

    @cached_property
    def arrays(self) -> CoverArrays:
        per_edge = np.fromiter(map(len, self.matchings.values()), dtype=np.int64,
                               count=len(self.matchings))
        ends = np.fromiter(chain.from_iterable(self.matchings), dtype=np.int64,
                           count=2 * per_edge.size).reshape(-1, 2)
        pairs = np.fromiter(chain.from_iterable(chain.from_iterable(self.matchings.values())),
                            dtype=np.int64, count=2 * int(per_edge.sum()))
        flat = self.lists.values
        colors, ranks = np.unique(np.concatenate((flat, pairs)), return_inverse=True)
        return CoverArrays(colors, np.repeat(ends[:, 0], per_edge),
                           np.repeat(ends[:, 1], per_edge), ranks[flat.size::2],
                           ranks[flat.size + 1::2], ranks[:flat.size], self.lists.lens)

    @cached_property
    def matchings(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        # only reached by covers `restrict_cover` built; others set it in __init__
        a = self.arrays
        out: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for u, v, x, y in zip(a.eu.tolist(), a.ev.tolist(), a.colors[a.ra].tolist(),
                              a.colors[a.rb].tolist()):
            out.setdefault((u, v), []).append((x, y))
        return {e: tuple(p) for e, p in out.items()}

    def max_color_degree(self) -> int:
        return int(color_degrees(self).max(initial=0))

    def __repr__(self):
        return f"CorrespondenceCover(n={self.n}, colors={self.num_colors})"


def color_degrees(cov: CorrespondenceCover) -> np.ndarray:
    """Cover-graph degree of every color, by rank."""
    a = cov.arrays
    return np.bincount(np.concatenate((a.ra, a.rb)), minlength=a.colors.size)


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

    `rows[v]` is a subset of v's list; a pair stays when both its colors
    stay, in order, and an edge when one of its pairs does. With a bool
    mask `vertices`, only the marked vertices stay, renumbered in order.
    """
    a = cov.arrays
    rows = Rows.of(rows)
    if vertices is None:
        vertices = np.ones(len(rows), dtype=bool)
    on = np.repeat(vertices, rows.lens)
    ranks = a.rank(rows.values)[on]
    keep = np.zeros(a.colors.size, dtype=bool)
    keep[ranks] = True
    hit = keep[a.ra] & keep[a.rb] & vertices[a.eu] & vertices[a.ev]
    new_id = np.cumsum(vertices) - 1
    eu, ev = new_id[a.eu[hit]], new_id[a.ev[hit]]
    new_rank = np.cumsum(keep) - 1
    sub = CorrespondenceCover.__new__(CorrespondenceCover)
    sub.lists = Rows(rows.values[on], _offsets(rows.lens[vertices]))
    sub.source_color = cov.source_color
    sub.arrays = CoverArrays(a.colors[keep], eu, ev, new_rank[a.ra[hit]],
                             new_rank[a.rb[hit]], new_rank[ranks], sub.lists.lens)
    # a pair opens an edge when its edge differs from the pair before it
    first = np.ones(eu.size, dtype=bool)
    first[1:] = (eu[1:] != eu[:-1]) | (ev[1:] != ev[:-1])
    return sub, np.column_stack((eu[first], ev[first]))


def clashing_pairs(cov: CorrespondenceCover, at, ids) -> np.ndarray:
    """Indices of the pairs (a, b) on an edge uv with u colored a and v
    colored b, when the vertices `at` carry the cover colors `ids`."""
    a = cov.arrays
    chosen = np.full(cov.n, -1, dtype=np.int64)
    chosen[np.asarray(at, dtype=np.int64)] = a.rank(ids)
    return np.flatnonzero((chosen[a.eu] == a.ra) & (chosen[a.ev] == a.rb))


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
    """Check the cover conditions: ids partition across vertices, no matching
    edge inside a list, and per-edge pair sets are matchings on real edges."""
    own = cov.owner  # each color's first owner
    found = [(1, f"color {c} owned by vertices {own[c]} and {v}")  # (condition, witness)
             for v, row in enumerate(cov.lists) for c in row if own[c] != v]
    for (u, v), pairs in cov.matchings.items():
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            if pairs:
                found.append((3, f"matching on non-edge ({u}, {v})"))
            continue
        lu, lv = set(cov.lists[u]), set(cov.lists[v])
        used_a: set[int] = set()
        used_b: set[int] = set()
        for a, b in pairs:
            # a pair inside one list: same id, or two ids of the same owner
            if a == b or (own.get(a) is not None and own.get(a) == own.get(b)):
                found.append((2, f"pair ({a}, {b}) lies inside a single vertex's list"))
            if a not in lu or b not in lv:
                found.append((3, f"pair ({a}, {b}) on edge ({u}, {v}) leaves the lists"))
                continue
            if a in used_a or b in used_b:
                found.append((3, f"color matched twice on edge ({u}, {v}): pair ({a}, {b})"))
            used_a.add(a)
            used_b.add(b)
    failed = {k for k, _ in found}
    return CoverReport(1 not in failed, 2 not in failed, 3 not in failed,
                       found[0][1] if found else None)


def cover_from_lists(g: Graph, l: ListAssignment) -> CorrespondenceCover:
    """Canonical embedding of a list assignment: same-named colors on
    adjacent vertices correspond. Proper colorings pull back both ways."""
    if l.n != g.n:
        raise CoverError(f"list assignment has {l.n} vertices, graph has {g.n}")
    names = l.lists.values
    lists = Rows(np.arange(names.size), l.lists.indptr)  # ids in row-major order
    index = [dict(zip(row, ids)) for row, ids in zip(l.lists, lists)]
    matchings = {}
    for u, v in g.edges():
        shared = sorted(index[u].keys() & index[v].keys())
        if shared:
            matchings[(u, v)] = tuple((index[u][c], index[v][c]) for c in shared)
    return CorrespondenceCover(lists, matchings, source_color=dict(enumerate(names.tolist())))


@dataclass(frozen=True)
class CDegreeTable:
    """Exact c-degrees: per (vertex, color) counts plus the global maximum.

    For list assignments the count of (v, c) is the number of neighbors whose
    list also contains c. For covers it is the cover-graph degree of c, and
    `cover_degree` carries the per-color degrees.
    """

    by_vertex: tuple[dict[int, int], ...]
    max_c_degree: int
    cover_degree: dict[int, int] | None = None


def c_degrees(g: Graph, obj) -> CDegreeTable:
    if isinstance(obj, ListAssignment):
        member = [set(row) for row in obj.lists]
        table = []
        best = 0
        for v in range(g.n):
            row = {}
            nbrs = g.neighbors(v).tolist()
            for c in obj.lists[v]:
                d = sum(1 for u in nbrs if c in member[u])
                row[c] = d
                if d > best:
                    best = d
            table.append(row)
        return CDegreeTable(tuple(table), best)
    if isinstance(obj, CorrespondenceCover):
        a = obj.arrays
        deg = color_degrees(obj)
        degs = dict(zip(a.colors[a.lists].tolist(), deg[a.lists].tolist()))
        degs.update(zip(a.colors.tolist(), deg.tolist()))
        table = tuple({c: degs[c] for c in row} for row in obj.lists)
        return CDegreeTable(table, int(deg.max(initial=0)), degs)
    raise TypeError(f"expected ListAssignment or CorrespondenceCover, got {type(obj)!r}")


def cover_sparsity(cov: CorrespondenceCover) -> int:
    """k_star of the cover graph: max edges inside a cover-color neighborhood."""
    a = cov.arrays
    c = a.colors.size
    keys = np.unique(np.minimum(a.ra, a.rb) * c + np.maximum(a.ra, a.rb))
    h = Graph(c, np.column_stack(np.divmod(keys, max(c, 1))))
    return local_sparsity(h).k_star


def random_cover(g: Graph, list_size: int, density: float, seed: int) -> CorrespondenceCover:
    """Cover with uniformly random partial matchings of the given density.

    Vertex v owns the id block [v*list_size, (v+1)*list_size). Edges are
    processed in lexicographic order from a single stream.
    """
    rng = substream(seed, TAG_COVER)
    lists = Rows(np.arange(g.n * list_size), _offsets(np.full(g.n, list_size)))
    matchings = {}
    for u, v in g.edges():
        t = int(rng.binomial(list_size, density))
        if t == 0:
            continue
        left = rng.permutation(list_size)[:t]
        right = rng.permutation(list_size)[:t]
        matchings[(u, v)] = tuple(
            (u * list_size + int(a), v * list_size + int(b))
            for a, b in zip(left, right)
        )
    return CorrespondenceCover(lists, matchings)


def save_cover(cov: CorrespondenceCover, path) -> None:
    """Text format: 'n q_total', one list line per vertex, then per edge
    'u v p' followed by p 'c c_prime' pairs on the same line."""
    with open(path, "w") as fh:
        fh.write(f"{cov.n} {cov.num_colors}\n")
        for row in cov.lists:
            fh.write(" ".join(str(c) for c in row) + "\n")
        for (u, v), pairs in sorted(cov.matchings.items()):
            flat = " ".join(f"{a} {b}" for a, b in pairs)
            fh.write(f"{u} {v} {len(pairs)}" + (f" {flat}" if flat else "") + "\n")


def load_cover(path) -> CorrespondenceCover:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise CoverError("expected header 'n q_total'")
        n, q_total = int(header[0]), int(header[1])
        lists = []
        for _ in range(n):
            line = fh.readline()
            if line == "":
                raise CoverError("truncated list section")
            lists.append(tuple(int(x) for x in line.split()))
        matchings = {}
        for line in fh:
            if not line.strip():
                continue
            parts = [int(x) for x in line.split()]
            if len(parts) < 3:
                raise CoverError(f"bad matching line: {line!r}")
            u, v, p = parts[0], parts[1], parts[2]
            if len(parts) != 3 + 2 * p:
                raise CoverError(f"matching line claims {p} pairs: {line!r}")
            pairs = [(parts[3 + 2 * i], parts[4 + 2 * i]) for i in range(p)]
            if (u, v) in matchings:
                raise CoverError(f"duplicate matching line for edge ({u}, {v})")
            matchings[(u, v)] = tuple(pairs)
    cov = CorrespondenceCover(lists, matchings)
    if cov.num_colors != q_total:
        raise CoverError(f"header claims {q_total} colors, lists carry {cov.num_colors}")
    return cov
