"""List assignments and correspondence covers.

A list assignment gives every vertex its own set of color names; colors with
the same name clash across an edge. A correspondence cover generalizes this:
every vertex owns a disjoint block of cover colors, and each graph edge
carries a partial matching between the two endpoint blocks saying which
color pairs clash. Lists embed canonically into covers by matching
same-named colors on adjacent vertices, and every structural question
(c-degrees, local sparsity) can be asked of the cover graph instead of the
underlying graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._rng import TAG_COVER, substream
from .graphcore import Graph, local_sparsity

__all__ = [
    "CoverError",
    "ListAssignment",
    "CorrespondenceCover",
    "CoverReport",
    "CDegreeTable",
    "validate_cover",
    "cover_from_lists",
    "c_degrees",
    "cover_sparsity",
    "random_cover",
    "save_cover",
    "load_cover",
]


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex color lists; duplicates within a list are forbidden."""

    lists: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = []
        for v, row in enumerate(self.lists):
            row = tuple(sorted(row))
            if len(set(row)) != len(row):
                raise CoverError(f"duplicate color in list of vertex {v}")
            norm.append(row)
        object.__setattr__(self, "lists", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.lists)

    def size(self, v: int) -> int:
        return len(self.lists[v])


class CorrespondenceCover:
    """Cover colors per vertex plus per-edge partial matchings.

    `lists[v]` holds globally unique color ids owned by v; `matchings` maps
    each edge (u, v) with u < v to a tuple of (color-of-u, color-of-v)
    pairs. Construction is permissive so that invalid covers can be built
    and then diagnosed by `validate_cover`.
    """

    def __init__(self, lists, matchings, source_color=None):
        self.lists: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(row)) for row in lists
        )
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
        return sum(len(row) for row in self.lists)

    @cached_property
    def color_neighbors(self) -> dict[int, tuple[int, ...]]:
        """Adjacency of the cover graph: color -> corresponding colors."""
        nbr: dict[int, list[int]] = {c: [] for row in self.lists for c in row}
        for pairs in self.matchings.values():
            for a, b in pairs:
                nbr.setdefault(a, []).append(b)
                nbr.setdefault(b, []).append(a)
        return {c: tuple(sorted(s)) for c, s in nbr.items()}

    @cached_property
    def pair_sets(self) -> dict[tuple[int, int], frozenset[tuple[int, int]]]:
        return {e: frozenset(p) for e, p in self.matchings.items()}

    def max_color_degree(self) -> int:
        return max((len(s) for s in self.color_neighbors.values()), default=0)

    def matching_of(self, u: int, v: int) -> tuple[tuple[int, int], ...]:
        """Pairs oriented as (color-of-u, color-of-v); empty for non-edges."""
        if u < v:
            return self.matchings.get((u, v), ())
        return tuple((b, a) for a, b in self.matchings.get((v, u), ()))

    def __repr__(self):
        return f"CorrespondenceCover(n={self.n}, colors={self.num_colors})"


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
    witness = None
    cc1 = True
    seen: dict[int, int] = {}
    for v, row in enumerate(cov.lists):
        for c in row:
            if c in seen and seen[c] != v:
                cc1 = False
                if witness is None:
                    witness = f"color {c} owned by vertices {seen[c]} and {v}"
            seen.setdefault(c, v)

    cc2 = True
    cc3 = True
    for (u, v), pairs in cov.matchings.items():
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            if pairs:
                cc3 = False
                if witness is None:
                    witness = f"matching on non-edge ({u}, {v})"
            continue
        lu, lv = set(cov.lists[u]), set(cov.lists[v])
        used_a: set[int] = set()
        used_b: set[int] = set()
        for a, b in pairs:
            # a pair inside one list: same id, or two ids of the same owner
            if a == b or (
                cov.owner.get(a) is not None and cov.owner.get(a) == cov.owner.get(b)
            ):
                cc2 = False
                if witness is None:
                    witness = f"pair ({a}, {b}) lies inside a single vertex's list"
            if a not in lu or b not in lv:
                cc3 = False
                if witness is None:
                    witness = f"pair ({a}, {b}) on edge ({u}, {v}) leaves the lists"
                continue
            if a in used_a or b in used_b:
                cc3 = False
                if witness is None:
                    witness = f"color matched twice on edge ({u}, {v}): pair ({a}, {b})"
            used_a.add(a)
            used_b.add(b)
    return CoverReport(cc1, cc2, cc3, witness)


def cover_from_lists(g: Graph, l: ListAssignment) -> CorrespondenceCover:
    """Canonical embedding of a list assignment: same-named colors on
    adjacent vertices correspond. Proper colorings pull back both ways."""
    if l.n != g.n:
        raise CoverError(f"list assignment has {l.n} vertices, graph has {g.n}")
    offsets = [0] * (g.n + 1)
    for v in range(g.n):
        offsets[v + 1] = offsets[v] + len(l.lists[v])
    index: list[dict[int, int]] = []
    source: dict[int, int] = {}
    lists = []
    for v in range(g.n):
        row = {}
        ids = []
        for i, c in enumerate(l.lists[v]):
            cid = offsets[v] + i
            row[c] = cid
            source[cid] = c
            ids.append(cid)
        index.append(row)
        lists.append(tuple(ids))
    matchings = {}
    for u, v in g.edges():
        shared = set(l.lists[u]) & set(l.lists[v])
        if shared:
            matchings[(u, v)] = tuple(
                (index[u][c], index[v][c]) for c in sorted(shared)
            )
    return CorrespondenceCover(lists, matchings, source_color=source)


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
        degs = {c: len(nbrs) for c, nbrs in obj.color_neighbors.items()}
        table = tuple({c: degs.get(c, 0) for c in row} for row in obj.lists)
        best = max(degs.values(), default=0)
        return CDegreeTable(table, best, degs)
    raise TypeError(f"expected ListAssignment or CorrespondenceCover, got {type(obj)!r}")


def cover_sparsity(cov: CorrespondenceCover) -> int:
    """k_star of the cover graph: max edges inside a cover-color neighborhood."""
    ids = sorted(cov.owner)
    remap = {c: i for i, c in enumerate(ids)}
    edges = []
    for pairs in cov.matchings.values():
        for a, b in pairs:
            x, y = remap[a], remap[b]
            edges.append((min(x, y), max(x, y)))
    h = Graph(len(ids), set(edges))
    return local_sparsity(h).k_star


def random_cover(g: Graph, list_size: int, density: float, seed: int) -> CorrespondenceCover:
    """Cover with uniformly random partial matchings of the given density.

    Vertex v owns the id block [v*list_size, (v+1)*list_size). Edges are
    processed in lexicographic order from a single stream.
    """
    rng = substream(seed, TAG_COVER)
    lists = [
        tuple(range(v * list_size, (v + 1) * list_size)) for v in range(g.n)
    ]
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
