"""Shared helpers: seeded instance generators and independent oracles.

Oracles here are deliberately naive (pair enumeration, exhaustive product
search) so they stay independent of the library's optimized code paths.

Hypothesis runs under the "tier1" settings profile unless the environment
variable HYPOTHESIS_PROFILE names another: "tier1" draws the same examples
on every run, so a run of unchanged code cannot fail on a counterexample
that it happened to draw fresh; "explore" draws new examples each run, for
searching by hand (pin what it finds with `@example`). A test's own
`max_examples` and `deadline` settings apply under both.
"""

from __future__ import annotations

import heapq
import itertools
import os

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

# loaded here, before the test modules build their settings from it
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

from palettesparse.cli import ConfigError, RunConfig, run
from palettesparse._rng import TAG_COVER, TAG_LLL, TAG_PALETTE, TAG_PERMUTE, substream
from palettesparse.cover import (
    CorrespondenceCover,
    CoverArrays,
    CoverError,
    CoverReport,
    ListAssignment,
    Rows,
    random_cover,
)
from palettesparse import nibble
from palettesparse.graphcore import Graph, GraphError
from palettesparse.nibble import BudgetExceeded, PartialColoring
from palettesparse.sparsify import SharedPalette


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_lists(rng, n: int, universe: int, size: int) -> ListAssignment:
    return ListAssignment(tuple(
        tuple(sorted(rng.choice(universe, size=size, replace=False).tolist()))
        for _ in range(n)
    ))


def random_cover_for(rng, g: Graph, list_size: int, density: float) -> CorrespondenceCover:
    lists = [tuple(range(v * list_size, (v + 1) * list_size)) for v in range(g.n)]
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
    """Write `cov` in `load_cover`'s text format: 'n q_total', one list line
    per vertex, then per edge 'u v p' followed by p 'c c_prime' pairs on
    the same line."""
    with open(path, "w") as fh:
        fh.write(f"{cov.n} {cov.num_colors}\n")
        for row in cov.lists:
            fh.write(" ".join(str(c) for c in row) + "\n")
        for (u, v), pairs in sorted(cov.matchings.items()):
            flat = " ".join(f"{a} {b}" for a, b in pairs)
            fh.write(f"{u} {v} {len(pairs)}" + (f" {flat}" if flat else "") + "\n")


def oracle_parse_ints(tokens: list[str], error: type[Exception]) -> list[int]:
    """The tokens of one file line as ints that int64 holds; `error` names
    the line if one is not."""
    try:
        ints = [int(t) for t in tokens]
    except ValueError:
        raise error(f"non-integer token in line {' '.join(tokens)!r}") from None
    if ints and (min(ints) < -2 ** 63 or max(ints) >= 2 ** 63):
        raise error(f"integer outside int64 in line {' '.join(tokens)!r}")
    return ints


def oracle_load_graph(path) -> Graph:
    """Read the 'n m' / 'u v' format, rejecting any violation."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise GraphError("expected header 'n m'")
        n, m = oracle_parse_ints(header, GraphError)
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"bad edge line: {line!r}")
            u, v = oracle_parse_ints(parts, GraphError)
            if u >= v:
                raise GraphError(f"edges must satisfy u < v, got {u} {v}")
            edges.append((u, v))
    if len(edges) != m:
        raise GraphError(f"header claims {m} edges, file has {len(edges)}")
    return Graph(n, edges)


def oracle_load_cover(path) -> CorrespondenceCover:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise CoverError("expected header 'n q_total'")
        n, q_total = oracle_parse_ints(header, CoverError)
        if n < 0:
            raise CoverError(f"negative vertex count: {n}")
        lists = []
        for _ in range(n):
            line = fh.readline()
            if line == "":
                raise CoverError("truncated list section")
            lists.append(tuple(oracle_parse_ints(line.split(), CoverError)))
        matchings = {}
        for line in fh:
            if not line.strip():
                continue
            parts = oracle_parse_ints(line.split(), CoverError)
            if len(parts) < 3:
                raise CoverError(f"bad matching line: {line!r}")
            u, v, p = parts[0], parts[1], parts[2]
            if len(parts) != 3 + 2 * p:
                raise CoverError(f"matching line claims {p} pairs: {line!r}")
            pairs = [(parts[3 + 2 * i], parts[4 + 2 * i]) for i in range(p)]
            if (u, v) in matchings or (v, u) in matchings:
                raise CoverError(f"duplicate matching line for edge {(min(u, v), max(u, v))}")
            matchings[(u, v)] = tuple(pairs)
    cov = CorrespondenceCover(lists, matchings)
    if cov.num_colors != q_total:
        raise CoverError(f"header claims {q_total} colors, lists carry {cov.num_colors}")
    return cov


def oracle_load_lists(path, n: int) -> ListAssignment:
    """Read a lists file for an n-vertex graph: a line 'n', then one row of
    distinct integer color ids per vertex; ConfigError names the bad row."""
    with open(path) as fh:
        head, *rows = fh.read().splitlines() or [""]
    if head.strip() != str(n):
        raise ConfigError(f"lists file {path}: first line must be the vertex count {n}")
    if len(rows) < n or any(r.strip() for r in rows[n:]):
        raise ConfigError(f"lists file {path}: row {min(len(rows), n)} is "
                          + ("missing" if len(rows) < n else "one too many"))
    try:
        return ListAssignment(tuple(tuple(map(int, r.split())) for r in rows[:n]))
    except ValueError as e:  # a non-integer id, or Rows or CoverError naming the row or vertex
        raise ConfigError(f"lists file {path}: {e}") from None


def sweep_success_vs_s(config, s_values) -> dict:
    """Hold q fixed, vary s, and report the success rate per s of
    `cli.run` on `config`.

    The monotone-trend flag is informational: success rates are expected,
    not guaranteed, to be nondecreasing in s.
    """
    table = []
    for s in s_values:
        cfg = RunConfig.from_dict({**config.to_dict(), "s_override": int(s),
                                   "out_dir": None})
        agg = run(cfg).aggregates()
        table.append({"s": int(s), "success_rate": agg["success_rate"],
                      "runs": agg["runs"]})
    rates = [t["success_rate"] for t in table]
    return {
        "table": table,
        "monotone_nondecreasing": all(a <= b + 1e-12 for a, b in zip(rates, rates[1:])),
    }


@st.composite
def random_covers(draw):
    """(graph, cover) of `random_cover` on a small random graph."""
    n = draw(st.integers(1, 12))
    g = random_graph(rng_for(draw(st.integers(0, 2 ** 16))), n, draw(st.floats(0.1, 0.7)))
    cov = random_cover(g, draw(st.integers(1, 6)), draw(st.floats(0.0, 1.0)),
                       seed=draw(st.integers(0, 2 ** 16)))
    return g, cov


@st.composite
def broken_covers(draw, max_n=7, max_list=4):
    """(graph, cover): any pairs between the two lists of each edge, a
    color twice on one edge too, plus, each by a coin flip, an id on two
    vertices, an id twice in one list, a pair inside one list, a pair on a
    non-edge and a pair leaving the lists. Edges are keyed either way round
    and in any order."""
    n = draw(st.integers(1, max_n))
    pairs_of = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    ends = draw(st.lists(pairs_of.filter(lambda e: e[0] != e[1]), max_size=2 * n,
                         unique_by=lambda e: (min(e), max(e))))
    g = Graph(n, ends)
    lists = [list(range(10 * v, 10 * v + draw(st.integers(1, max_list)))) for v in range(n)]
    matchings = {}
    for u, v in draw(st.permutations(list(g.edges()))):
        pairs = draw(st.lists(st.tuples(st.sampled_from(lists[u]), st.sampled_from(lists[v])),
                              max_size=4))
        matchings[(u, v)] = pairs
    flip = st.booleans()
    if n > 1 and draw(flip):
        lists[1].append(lists[0][0])
    if draw(flip):
        lists[-1].append(lists[-1][0])
    if matchings and draw(flip):
        (u, v), pairs = next(iter(matchings.items()))
        pairs.insert(draw(st.integers(0, len(pairs))), (lists[u][0], lists[u][-1]))
    free = [(u, v) for u, v in itertools.combinations(range(n), 2) if not g.has_edge(u, v)]
    if free and draw(flip):
        u, v = draw(st.sampled_from(free))
        matchings[(u, v)] = [(lists[u][0], lists[v][0])]
    if matchings and draw(flip):
        (u, v), pairs = next(reversed(matchings.items()))
        pairs.append((lists[u][0], 999))
    turned = {}
    for (u, v), pairs in matchings.items():
        if draw(flip):
            turned[(v, u)] = [(b, a) for a, b in pairs]
        else:
            turned[(u, v)] = pairs
    return g, CorrespondenceCover([tuple(sorted(row)) for row in lists], turned)


# --------------------------------------------------------------------------
# independent oracles


def oracle_adjacency(g: Graph) -> list[set[int]]:
    """Neighbor sets built from the edge list alone."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def oracle_neighborhood_edges(g: Graph) -> list[int]:
    """Edges inside each neighborhood by direct pair enumeration."""
    nbrs = oracle_adjacency(g)
    return [
        sum(1 for a, b in itertools.combinations(sorted(nbrs[v]), 2) if b in nbrs[a])
        for v in range(g.n)
    ]


def oracle_list_colorings(g: Graph, lists) -> list[tuple[int, ...]]:
    """All proper list colorings, by exhaustive product enumeration."""
    rows = lists.lists if isinstance(lists, ListAssignment) else lists
    out = []
    for combo in itertools.product(*rows):
        if all(combo[u] != combo[v] for u, v in g.edges()):
            out.append(combo)
    return out


def oracle_cover_colorings(g: Graph, cov: CorrespondenceCover) -> list[tuple[int, ...]]:
    """All proper cover colorings, by exhaustive product enumeration; a
    pair on a non-edge of g clashes across no edge."""
    pair_sets = {e: set(p) for e, p in cov.matchings.items() if g.has_edge(*e)}
    out = []
    for combo in itertools.product(*cov.lists):
        ok = True
        for (u, v), pairs in pair_sets.items():
            if (combo[u], combo[v]) in pairs:
                ok = False
                break
        if ok:
            out.append(combo)
    return out


def oracle_color_neighbors(cov: CorrespondenceCover) -> dict[int, list[int]]:
    """Cover-graph adjacency, color -> corresponding colors with repeats,
    by a loop over the matchings; every list color has an entry."""
    nbrs: dict[int, list[int]] = {c: [] for row in cov.lists for c in row}
    for pairs in cov.matchings.values():
        for a, b in pairs:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
    return nbrs


def oracle_random_cover(g: Graph, list_size: int, density: float, seed: int):
    """(cover, generator after the draws) of `random_cover`, one edge at a
    time in `edges()` order: a binomial pair count t and, when t > 0, two
    `permutation(list_size)` calls, whose first t places pair up; each
    edge's pairs sorted by u's color."""
    rng = substream(seed, TAG_COVER)
    per_edge, left, right = [], [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for _ in range(g.m):
        t = int(rng.binomial(list_size, density))
        per_edge.append(t)
        if t:
            left.append(rng.permutation(list_size)[:t])
            right.append(rng.permutation(list_size)[:t])
    us, vs = g.edge_arrays()
    per_edge = np.array(per_edge, dtype=np.int64)
    eu, ev = np.repeat(us, per_edge), np.repeat(vs, per_edge)
    a, b = np.concatenate(left), np.concatenate(right)
    order = np.lexsort((a, np.repeat(np.arange(g.m), per_edge)))
    ids = np.arange(g.n * list_size)
    lists = Rows(ids, np.arange(g.n + 1) * list_size)
    arrays = CoverArrays(ids, eu, ev, eu * list_size + a[order], ev * list_size + b[order], ids)
    return CorrespondenceCover._of(lists, arrays), rng


def oracle_cover_from_lists(g: Graph, l: ListAssignment) -> CorrespondenceCover:
    """The canonical cover by a loop over the edges: ids are the list
    entries in row-major order, and each edge pairs the ids of its shared
    names in ascending name order."""
    index, nxt = [], 0
    for row in l.lists:
        index.append({c: nxt + i for i, c in enumerate(row)})
        nxt += len(row)
    lists = [tuple(ids.values()) for ids in index]
    matchings = {}
    for u, v in g.edges():
        shared = sorted(index[u].keys() & index[v].keys())
        if shared:
            matchings[(u, v)] = tuple((index[u][c], index[v][c]) for c in shared)
    return CorrespondenceCover(lists, matchings)


def oracle_sample_palettes(palettes, s: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """The sampled rows by one `rng.choice(k, s, replace=False)` call per
    vertex on the palette stream, vertices ascending, each picking s
    positions of the sorted palette; a palette of exactly s colors draws
    nothing."""
    if isinstance(palettes, SharedPalette):
        palettes = [range(palettes.q)] * palettes.n
    rng = substream(seed, TAG_PALETTE)
    out = []
    for colors in palettes:
        row = sorted(colors)
        picks = rng.choice(len(row), size=s, replace=False) if len(row) > s else range(s)
        out.append(tuple(sorted(row[i] for i in picks)))
    return tuple(out)


def brute_force(g: Graph, obj, *, max_n: int = 20):
    """Exhaustive search with pruning (`nibble._dfs_color` without a node
    cap); exact. Returns a total proper coloring or None when the instance
    is uncolorable. Guarded to n <= max_n."""
    if g.n > max_n:
        raise nibble.InstanceTooLarge(f"brute force guarded to n <= {max_n}, got {g.n}")
    coloring, complete = nibble._dfs_color(nibble._as_instance(g, obj), None)
    if not complete:
        raise nibble.InvariantViolation("unbounded search stopped before exhausting the instance")
    return coloring


def oracle_colorable(g: Graph, obj) -> bool:
    if isinstance(obj, CorrespondenceCover):
        return bool(oracle_cover_colorings(g, obj))
    return bool(oracle_list_colorings(g, obj))


def oracle_conflict_count(nbrs, rows, v: int, c: int) -> int:
    """Neighbors u of v (in the `oracle_adjacency` sets) whose row holds
    color c, by a loop over N(v)."""
    return sum(1 for u in nbrs[v] if c in rows[u])


def oracle_conflict_counts(g: Graph, rows, q: int) -> list[list[int]]:
    """The full (vertex, color) table of `oracle_conflict_count` over 0..q-1."""
    nbrs = oracle_adjacency(g)
    return [[oracle_conflict_count(nbrs, rows, v, c) for c in range(q)] for v in range(g.n)]


def oracle_directed_counts(n: int, heads, tails, rows, q: int) -> list[list[int]]:
    """table[h][c] = number of i with heads[i] = h and c in rows[tails[i]]."""
    table = [[0] * q for _ in range(n)]
    for h, t in zip(heads, tails):
        for c in rows[t]:
            table[h][c] += 1
    return table


def grouped_pairs(n: int, heads, tails) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (heads[i], tails[i]) as `directed_counts` takes them: n + 1
    row offsets and the tails grouped by head, each head's in their given
    order."""
    heads, tails = np.asarray(heads, dtype=np.int64), np.asarray(tails, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=offsets[1:])
    return offsets, tails[np.argsort(heads, kind="stable")]


def oracle_prune(g: Graph, rows, thr: float) -> tuple[tuple[int, ...], ...]:
    """Each row restricted to its colors whose conflict count is <= thr."""
    nbrs = oracle_adjacency(g)
    return tuple(
        tuple(c for c in row if oracle_conflict_count(nbrs, rows, v, c) <= thr)
        for v, row in enumerate(rows)
    )


def oracle_surviving_edges(g: Graph, rows) -> list[tuple[int, int]]:
    """Edges whose endpoint rows share a color, by set intersection."""
    return [(u, v) for u, v in g.edges() if set(rows[u]) & set(rows[v])]


def oracle_stream_retention(records, rows, base_words: int, cap):
    """Edge-at-a-time retention with a word ledger: (stored edges in stream
    order as (min, max), peak words, space-cap message or "")."""
    stored: list[tuple[int, int]] = []
    total = base_words
    if cap is not None and total > cap:
        return stored, total, f"ledger total {total} exceeds space cap {cap}"
    for u, v in records:
        if set(rows[u]) & set(rows[v]):
            stored.append((min(u, v), max(u, v)))
            total += 2
            if cap is not None and total > cap:
                return stored, total, f"ledger total {total} exceeds space cap {cap}"
    return stored, total, ""


def oracle_stream_ledger(records, rows, n: int, s: int, delta_from_stream: bool, cap):
    """A plain stream's word ledger by a loop over the records: the
    palettes and counters are charged first, then two words per stored
    edge, and the running total is checked against `cap` after each
    charge. ({stored_edges, palette_words, counter_words, peak_words},
    space-cap message or "")."""
    ledger = {"stored_edges": 0, "palette_words": n * s,
              "counter_words": n * s + (n if delta_from_stream else 0), "peak_words": 0}

    def charge() -> str:
        total = ledger["palette_words"] + ledger["counter_words"] + 2 * ledger["stored_edges"]
        ledger["peak_words"] = max(ledger["peak_words"], total)
        if cap is not None and total > cap:
            return f"ledger total {total} exceeds space cap {cap}"
        return ""

    message = charge()
    for u, v in records:
        if message:
            break
        if set(rows[u]) & set(rows[v]):
            ledger["stored_edges"] += 1
            message = charge()
    return ledger, message


def oracle_picked_counts(cov: CorrespondenceCover, picked) -> dict[int, int]:
    """Per color, its correspondents (with repeats) that lie in `picked`."""
    return {c: sum(1 for c2 in nbrs if c2 in picked)
            for c, nbrs in oracle_color_neighbors(cov).items()}


def oracle_cover_prune(cov: CorrespondenceCover, rows, thr: float):
    """Each row restricted to its colors with at most thr correspondents
    among the colors of all rows."""
    counts = oracle_picked_counts(cov, {c for row in rows for c in row})
    return tuple(tuple(c for c in row if counts[c] <= thr) for row in rows)


def oracle_restrict_cover(cov: CorrespondenceCover, rows, keep_vertex=None):
    """(lists, matchings items, edges) of the cover cut down to `rows`, on
    the vertices keep_vertex marks (all by default), renumbered in order."""
    n = cov.n
    keep_vertex = [True] * n if keep_vertex is None else list(keep_vertex)
    new_id = {}
    for v in range(n):
        if keep_vertex[v]:
            new_id[v] = len(new_id)
    sets = [set(row) for row in rows]
    items = []
    for (u, v), pairs in cov.matchings.items():
        if not (keep_vertex[u] and keep_vertex[v]):
            continue
        kept = tuple((a, b) for a, b in pairs if a in sets[u] and b in sets[v])
        if kept:
            items.append(((new_id[u], new_id[v]), kept))
    lists = tuple(tuple(sorted(rows[v])) for v in range(n) if keep_vertex[v])
    return lists, items, [e for e, _ in items]


def oracle_cover_clash(g: Graph, cov: CorrespondenceCover, assignment) -> tuple | None:
    """First edge of g, in `g.edges()` order, whose colored ends carry one
    of its declared pairs."""
    for u, v in g.edges():
        if u in assignment and v in assignment:
            if (assignment[u], assignment[v]) in cov.matchings.get((u, v), ()):
                return (u, v)
    return None


def oracle_cover_graph(cov: CorrespondenceCover) -> Graph:
    """The cover graph on the colors, renumbered by ascending id; a color
    matched to itself is no edge of it."""
    nbrs = oracle_color_neighbors(cov)
    index = {c: i for i, c in enumerate(sorted(nbrs))}
    edges = {(min(index[a], index[b]), max(index[a], index[b]))
             for a, bs in nbrs.items() for b in bs if a != b}
    return Graph(len(index), sorted(edges))


def oracle_cover_stream_retention(records, rows, base_words: int, cap):
    """Record-at-a-time cover retention with a word ledger: (stored records
    as (min, max, pairs oriented min -> max), peak words, space-cap message
    or "")."""
    sets = [set(row) for row in rows]
    stored = []
    total = base_words
    if cap is not None and total > cap:
        return stored, total, f"ledger total {total} exceeds space cap {cap}"
    for u, v, pairs in records:
        kept = [(a, b) for a, b in pairs if a in sets[u] and b in sets[v]]
        if kept:
            if u > v:
                u, v, kept = v, u, [(b, a) for a, b in kept]
            stored.append((u, v, tuple(kept)))
            total += 2 + 2 * len(kept)
            if cap is not None and total > cap:
                return stored, total, f"ledger total {total} exceeds space cap {cap}"
    return stored, total, ""


def oracle_cover_stream_records(g: Graph, cov: CorrespondenceCover, permute_seed):
    """The cover stream's records, one per edge of g in order, each with the
    cover's pairs on it (none off a cover edge), then list-shuffled."""
    records = [(u, v, cov.matchings.get((u, v), ())) for u, v in g.edges()]
    if permute_seed is not None:
        substream(permute_seed, TAG_PERMUTE).shuffle(records)
    return records


def oracle_pair_union(fam) -> list[tuple[int, int]]:
    """The vertex pairs (u, v), u < v, sharing a sampled color of `fam`,
    each once, where the color classes first list it: classes by color,
    each class's pairs lexicographic (a dict of `itertools.combinations`)."""
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(fam.sampled):
        for c in row:
            classes.setdefault(c, []).append(v)
    # a dict keeps the first occurrence of each pair, in insertion order
    return list(dict.fromkeys(p for c in sorted(classes)
                              for p in itertools.combinations(classes[c], 2)))


def oracle_sorted_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Every row sorted, as a tuple of tuples."""
    return tuple(tuple(sorted(row)) for row in rows)


def oracle_first_repeat(rows) -> int | None:
    """The first row holding an id twice, by a per-row set check."""
    for v, row in enumerate(rows):
        if len(set(row)) != len(row):
            return v
    return None


def oracle_keep(rows, mask) -> tuple[tuple[int, ...], ...]:
    """The sorted rows cut down to the entries `mask` marks, one flag per
    entry in row-major order."""
    flags = iter(mask)
    return tuple(tuple(c for c in sorted(row) if next(flags)) for row in rows)


def oracle_find(rows, at, ids) -> list[int]:
    """For each (v, c) of zip(at, ids), the row-major index of the first
    entry c of sorted row v, or -1 where the row lacks c, by a scan of the row."""
    rows = oracle_sorted_rows(rows)
    start = [0]
    for row in rows:
        start.append(start[-1] + len(row))
    return [start[v] + rows[v].index(c) if c in rows[v] else -1 for v, c in zip(at, ids)]


def oracle_slot_edge(g: Graph) -> list[int]:
    """The `edges()` index of the edge at each CSR slot, row by row, from a
    dict of the edge list."""
    index = {e: i for i, e in enumerate(g.edges())}
    return [index[(min(x, y), max(x, y))] for x in range(g.n) for y in g.neighbors(x).tolist()]


def oracle_instance_pairs(g: Graph, a: CoverArrays) -> tuple[np.ndarray, np.ndarray, int]:
    """`nibble._Instance.pairs` of the pair arrays `a` on g, with each pair
    run's CSR slot found by a binary search of g's rows (`Rows.find`), each
    way round, for the runs whose ends both lie in 0..n-1."""
    span = a.colors.size
    starts = np.ones(a.eu.size, dtype=bool)
    starts[1:] = (a.eu[1:] != a.eu[:-1]) | (a.ev[1:] != a.ev[:-1])
    first = np.flatnonzero(starts)
    tails = np.concatenate((a.eu[first], a.ev[first]))
    heads = np.concatenate((a.ev[first], a.eu[first]))
    slot = np.full(tails.size, -1, dtype=np.int64)
    ok = (tails >= 0) & (tails < g.n) & (heads >= 0) & (heads < g.n)
    slot[ok] = Rows(g.indices, g.indptr).find(tails[ok], heads[ok])
    run = np.diff(np.append(first, a.eu.size))
    slot = np.repeat(slot, np.concatenate((run, run)))
    on = slot >= 0
    keys = slot[on] * span + np.concatenate((a.ra, a.rb))[on]
    order = np.argsort(keys, kind="stable")
    return keys[order], np.concatenate((a.rb, a.ra))[on][order], span


def oracle_membership_witness(rows, phi) -> tuple | None:
    """The first (v,) outside 0..len(rows)-1 or (v, c) with c not in row v,
    in the order of the dict `phi`, by a loop over it."""
    for v, c in phi.items():
        if not 0 <= v < len(rows):
            return (v,)
        if c not in rows[v]:
            return (v, c)
    return None


def oracle_validate_cover(g: Graph, cov: CorrespondenceCover) -> CoverReport:
    """The cover conditions by a loop over the entries and the `matchings`
    view, with per-edge sets: every violation in the order the report
    names its first."""
    own: dict[int, int] = {}  # each color's first owner
    for v, row in enumerate(cov.lists):
        for c in row:
            own.setdefault(c, v)
    found = []  # (condition, witness)
    for v, row in enumerate(cov.lists):
        repeat = next((a for a, b in zip(row, row[1:]) if a == b), None)
        if repeat is not None:
            found.append((1, f"color {repeat} appears twice in the list of vertex {v}"))
            break
    found += [(1, f"color {c} owned by vertices {own[c]} and {v}")
              for v, row in enumerate(cov.lists) for c in row if own[c] != v]
    for (u, v), pairs in cov.matchings.items():
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
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


def oracle_partners(cov: CorrespondenceCover) -> dict[tuple[int, int, int], list[int]]:
    """(u, v, color at u) -> the colors at v it is paired with, both ways
    round, by a loop over the `matchings` view."""
    out: dict[tuple[int, int, int], list[int]] = {}
    for (u, v), pairs in cov.matchings.items():
        for x, y in pairs:
            out.setdefault((u, v, x), []).append(y)
            out.setdefault((v, u, y), []).append(x)
    return out


def _oracle_clash(obj):
    """clash(u, cu, v, cv): colors cu at u and cv at v clash across uv."""
    if isinstance(obj, ListAssignment):
        return lambda u, cu, v, cv: cu == cv
    partners = oracle_partners(obj)
    return lambda u, cu, v, cv: cv in partners.get((u, v, cu), ())


def oracle_finish_lll(g: Graph, obj, seed: int, budget: int):
    """(coloring, resamples) of the resampling finisher, its precondition
    taken as met: one `rng.integers(size)` per vertex for the first
    colors, then the lowest violated edge of a heap resampled, u before v,
    and every violated edge at either endpoint pushed once per endpoint."""
    rows = obj.lists
    clash = _oracle_clash(obj)
    rng = substream(seed, TAG_LLL)
    phi = {v: row[int(rng.integers(len(row)))] for v, row in enumerate(rows)}

    def violated(u, v):
        return clash(u, phi[u], v, phi[v])

    heap = [e for e in g.edges() if violated(*e)]
    resamples = 0
    while heap:
        u, v = heapq.heappop(heap)
        if not violated(u, v):
            continue
        if resamples >= budget:
            raise BudgetExceeded(f"exceeded {budget} resamples")
        resamples += 1
        for w in (u, v):
            phi[w] = rows[w][int(rng.integers(len(rows[w])))]
        for w in (u, v):
            for x in g.neighbors(w).tolist():
                if violated(w, x):
                    heapq.heappush(heap, (min(w, x), max(w, x)))
    return PartialColoring(phi), resamples


def oracle_greedy_cover(g: Graph, cov: CorrespondenceCover):
    """(coloring | None, stuck vertex | None) of the greedy rule by loops
    over dict partners: vertices by descending max color degree, each
    taking the unblocked color with fewest uncolored neighbours it has a
    partner at, ties to the smallest color."""
    partners = oracle_partners(cov)
    degree = {c: len(nbrs) for c, nbrs in oracle_color_neighbors(cov).items()}
    nbrs = oracle_adjacency(g)
    maxc = [max((degree[c] for c in row), default=0) for row in cov.lists]
    assignment: dict[int, int] = {}
    for v in sorted(range(g.n), key=lambda v: (-maxc[v], v)):
        blocked = set()
        for u in nbrs[v]:
            if u in assignment:
                blocked.update(partners.get((u, v, assignment[u]), ()))
        best = None
        for c in cov.lists[v]:
            if c in blocked:
                continue
            score = sum(1 for u in nbrs[v] if u not in assignment and (v, u, c) in partners)
            if best is None or score < best[0]:
                best = (score, c)
        if best is None:
            return None, v
        assignment[v] = best[1]
    return PartialColoring(dict(sorted(assignment.items()))), None


def oracle_greedy_walk(g: Graph, rows):
    """(coloring | None, stuck vertex | None) of list greedy by loops over
    adjacency sets: vertices by descending max c-degree (an empty list
    counts -1; ties: smaller vertex), each list sorted by how many later
    neighbours hold the id (ties: place in the row), then one first-fit
    walk in that order, each vertex skipping its earlier neighbours' colors."""
    rows = [tuple(row) for row in rows]
    n, nbrs = g.n, oracle_adjacency(g)
    maxc = [max((sum(1 for u in nbrs[v] if c in rows[u]) for c in rows[v]), default=-1)
            for v in range(n)]
    order = sorted(range(n), key=lambda v: (-maxc[v], v))
    pos = {v: i for i, v in enumerate(order)}
    earlier = [sorted(u for u in nbrs[v] if pos[u] < pos[v]) for v in range(n)]
    start = list(itertools.accumulate((len(e) for e in earlier), initial=0))
    earlier = [u for e in earlier for u in e]
    def score(v, c):
        return sum(1 for u in nbrs[v] if pos[u] > pos[v] and c in rows[u])

    cands = [sorted(row, key=lambda c: (score(v, c), row.index(c))) for v, row in enumerate(rows)]
    c_start = list(itertools.accumulate(map(len, cands), initial=0))
    cands = [c for row in cands for c in row]
    col = [None] * n
    for v in order:
        blocked = {col[u] for u in earlier[start[v] : start[v + 1]]}
        for c in cands[c_start[v] : c_start[v + 1]]:
            if c not in blocked:
                col[v] = c
                break
        else:
            return None, v
    return PartialColoring(dict(enumerate(col))), None
