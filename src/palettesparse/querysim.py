"""Non-adaptive query-model simulator with exact query counting.

The oracle answers three query types about a hidden graph: the degree of a
vertex, the i-th neighbor of a vertex, and whether a pair is an edge;
`degrees`, `neighbor_prefixes` and `pairs` ask many at once and count
each one they stand for. A plan is fixed before any answer is read.
Two conflict-discovery strategies are provided: a neighbor scan (all
degrees, then every neighbor slot, so exactly n + 2m queries get issued)
and color classes (every pair of vertices sharing a sampled color,
deduplicated, so every conflict edge is found because a conflicting edge
lies inside some class), enumerated by `graphcore.run_pairs`. The auto
strategy executes whichever of the two exact costs is smaller, building
the class union only until it reaches the scan's. The discovered edges
then go, as a graph of their own, through the reduction tail that all
three models share (`nibble._reduce`: `prune`, `build_conflict`,
`solve`), so pruning counts over them only. A scan that reads every row
whole checks its answers once and builds that graph from their ascending
keys; when every edge read is kept, the answered rows are its CSR rows,
with no sort.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .cover import ListAssignment, Rows
from .graphcore import Graph, _offsets, check_n, distinct, first_seen, run_pairs, split, stable_order
from .nibble import PartialColoring, SolveResult, _reduce
from .sparsify import (
    ConflictInstance,
    PaletteFamily,
    SharedPalette,
    SparsifyParams,
    sample_palettes,
    shared_edges,
)

__all__ = [
    "QueryOracle",
    "QueryPlan",
    "UnsupportedStrategy",
    "plan_queries",
    "execute_plan",
    "end_to_end_query_color",
    "QueryRunResult",
]


class UnsupportedStrategy(ValueError):
    pass


class QueryOracle:
    """Sole access point to the hidden graph; counts every issued query.
    A vertex id or slot count that is not an integer or out of range
    raises ValueError and is not counted."""

    def __init__(self, g: Graph):
        self._g = g
        self._rows = Rows(g.indices, g.indptr)
        self.degree_queries = 0
        self.neighbor_queries = 0
        self.pair_queries = 0

    @property
    def n(self) -> int:
        return self._g.n

    def _check(self, *ids) -> None:
        for a in map(np.asarray, ids):
            if a.size and a.dtype.kind not in "iu":
                raise ValueError(f"vertex ids must be integers, not {a.dtype}")
            if a.size and (a.min() < 0 or a.max() >= self.n):
                raise ValueError(f"vertex ids must lie in 0..{self.n - 1}")

    def degree(self, v: int) -> int:
        self._check(v)
        self.degree_queries += 1
        return self._g.degree(v)

    def degrees(self) -> np.ndarray:
        """The degree of every vertex: n degree queries."""
        self.degree_queries += self.n
        return self._g.degrees()

    def neighbor(self, v: int, i: int) -> int:
        self._check(v)
        if np.asarray(i).dtype.kind not in "iu" or not 0 <= i < self._g.degree(v):
            raise ValueError(f"no neighbor slot {i} of vertex {v}")
        self.neighbor_queries += 1
        return int(self._g.neighbors(v)[i])

    def neighbor_prefixes(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor slots 0..k[v]-1 of every vertex v, for 0 <= k[v] <= deg(v),
        as (owner, neighbor) arrays in vertex then slot order: sum(k)
        neighbor queries. Whole rows (k = deg) are the CSR rows as they
        are, read-only."""
        g, k, degrees = self._g, np.asarray(k), self._g.degrees()
        if k.size and k.dtype.kind not in "iu":
            raise ValueError(f"slot counts must be integers, not {k.dtype}")
        if k.shape != (g.n,) or (k < 0).any() or (k > degrees).any():
            raise ValueError("need one slot count per vertex, each within 0..deg(v)")
        self.neighbor_queries += int(k.sum())
        owner = np.repeat(np.arange(g.n), k)
        if (k == degrees).all():
            return owner, g.indices
        slot = np.arange(owner.size) - (np.cumsum(k) - k)[owner]
        return owner, g.indices[g.indptr[owner] + slot]

    def pair(self, u: int, v: int) -> bool:
        self._check(u, v)
        self.pair_queries += 1
        return self._g.has_edge(u, v)

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Bool mask: (us[i], vs[i]) is an edge, for 1-D id arrays of one
        length: len(us) pair queries, each a search of row us[i] of the CSR
        rows (`Rows.holds`)."""
        us, vs = np.asarray(us), np.asarray(vs)
        if us.ndim != 1 or us.shape != vs.shape:
            raise ValueError("need two 1-D vertex id arrays of one length")
        self._check(us, vs)
        self.pair_queries += us.size
        return self._rows.holds(us, vs)

    @property
    def total_queries(self) -> int:
        return self.degree_queries + self.neighbor_queries + self.pair_queries

    def counts(self) -> dict[str, int]:
        return {
            "degree": self.degree_queries,
            "neighbor": self.neighbor_queries,
            "pair": self.pair_queries,
            "total": self.total_queries,
        }


def _pair_union(fam: PaletteFamily, limit: int | None = None) -> np.ndarray | None:
    """The distinct keys u*n + v (u < v) of the pairs within the color
    classes V_c = {v : c in S(v)}, first occurrences by color, then
    lexicographically; None once more than `limit` are distinct. Each chunk
    of `run_pairs` over the entries by (color, vertex) is deduplicated and
    cut to the keys that no earlier chunk held."""
    n, colors = fam.n, fam.sampled.values
    order = stable_order(colors)
    members = fam.sampled.owner[order]
    # the keys found so far, ascending, above a sentinel no key reaches
    seen = np.array([np.iinfo(np.int64).max])
    found = [np.zeros(0, dtype=np.int64)]
    for first, second in run_pairs(colors[order]):
        chunk = members[first] * n + members[second]
        keys, at = first_seen(chunk)
        pos = np.searchsorted(seen, keys)
        fresh = seen[pos] != keys
        if limit is not None and seen.size - 1 + np.count_nonzero(fresh) > limit:
            return None
        found.append(chunk[np.sort(at[fresh])])
        seen = np.insert(seen, pos[fresh], keys[fresh])
    return np.concatenate(found)


@dataclass(frozen=True)
class QueryPlan:
    """All queries fixed before any answer: a function of (n, palettes,
    strategy, hints) only. `pairs` is None for the neighbor scan, whose
    slots are implicit: n degree queries, then per vertex the neighbor
    slots 0..delta_hint-1 of which only the first deg(v) are issued.
    `cost_classes` is the exact class cost, or None for any scan (auto
    stops counting classes once they reach the scan cost)."""

    strategy: str
    n: int
    delta_hint: int | None
    pairs: np.ndarray | None
    cost_scan: int | None
    cost_classes: int | None

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.strategy}|{self.n}|{self.delta_hint}".encode())
        if self.pairs is not None:
            h.update(np.ascontiguousarray(self.pairs).tobytes())
        return h.hexdigest()


def plan_queries(n: int, fam: PaletteFamily, strategy: str,
                 delta_hint: int | None, *, m_hint: int | None = None) -> QueryPlan:
    """Build the fixed query plan for one strategy.

    scan: n degree queries plus per-vertex neighbor slots; issued cost is
    exactly n + 2m once executed. classes: the deduplicated pairs within
    the color classes V_c = {v : c in S(v)}; needs the shared global
    palette (per-vertex lists or covers are unsupported here, since
    membership classes are only well defined for a common palette). auto:
    compares the exact class cost against the exact scan cost n + 2m when
    m_hint is given (falling back to the n + n*delta_hint bound otherwise)
    and plans the cheaper one (ties: scan), building no pair when the
    largest class's C(|V_c|, 2) reaches the scan cost and otherwise no more
    of the union than the scan cost, a chunk at a time (no Theta(n^2) step).
    """
    if strategy not in ("scan", "classes", "auto"):
        raise ValueError(f"unknown strategy {strategy!r}")
    check_n("family", fam.n, n)
    if strategy != "scan" and fam.universe is None:
        raise UnsupportedStrategy(
            "color-class planning requires sampling from the shared palette; "
            "per-vertex lists and correspondence covers are unsupported"
        )
    cost_scan = None if delta_hint is None else n + n * delta_hint
    if m_hint is not None:
        cost_scan = n + 2 * m_hint
    if strategy == "scan":
        if delta_hint is None:
            raise ValueError("neighbor scan needs delta_hint")
        return QueryPlan("scan", n, delta_hint, None, cost_scan, None)
    if strategy == "auto":
        if delta_hint is None and m_hint is None:
            raise ValueError("auto strategy needs delta_hint or m_hint")
        sizes = np.bincount(fam.sampled.values, minlength=fam.universe)
        if cost_scan <= (sizes * (sizes - 1) // 2).max(initial=0):
            return QueryPlan("scan", n, delta_hint, None, cost_scan, None)
    # auto: a union of cost_scan pairs or more loses the tie to the scan
    keys = _pair_union(fam, None if strategy == "classes" else cost_scan - 1)
    if keys is None:
        return QueryPlan("scan", n, delta_hint, None, cost_scan, None)
    pairs = np.column_stack(split(keys, max(n, 1)))
    return QueryPlan("classes", n, delta_hint, pairs, cost_scan, len(pairs))


def _lower_keys(n: int, owner: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The keys owner*n + other of the owner < other slots of whole rows
    (owner, other) read in vertex then slot order, which ascend. Answers
    that cannot be a simple graph's rows raise ValueError: an id out of
    range, a self-loop, a row that does not strictly ascend, or an edge
    read from one end only (the owner > other slots turned round, sorted,
    are not the owner < other ones)."""
    if owner.size and (min(owner.min(), other.min()) < 0 or max(owner.max(), other.max()) >= n):
        raise ValueError(f"scan answers hold a vertex id outside 0..{n - 1}")
    if (owner == other).any():
        raise ValueError("scan answers hold a self-loop")
    key = owner * n + other
    if not (key[1:] > key[:-1]).all():
        raise ValueError("scan answers hold a row that does not strictly ascend")
    upper = owner > other
    turned = other.compress(upper) * n
    turned += owner.compress(upper)
    turned.sort()
    keys = key.compress(~upper)
    if turned.size != keys.size or not (turned == keys).all():
        raise ValueError("scan answers read some edge from one end only")
    return keys


def _read_rows(n: int, owner: np.ndarray, other: np.ndarray, fam: PaletteFamily) -> Graph:
    """The conflict graph of a scan that read every row whole, (owner,
    other) in vertex then slot order, checked by `_lower_keys`. Its edges
    are the owner < other slots whose ends share a sampled color. When
    every edge is kept, the answers are its CSR rows as they came, not
    copied; else its rows are built from the kept keys (`Graph._hold`)."""
    # checked in a call of its own, so that the checks' 2m-word temporaries
    # are freed before `shared_edges` runs
    keys = _lower_keys(n, owner, other)
    us, vs = split(keys, max(n, 1))
    hit = shared_edges(us, vs, fam.sampled, fam.universe)
    if not hit.all():
        return Graph.__new__(Graph)._hold(n, keys.compress(hit), us.compress(hit), vs.compress(hit))
    return Graph.__new__(Graph)._set(n, _offsets(np.bincount(owner, minlength=n)), other, us, vs)


def execute_plan(oracle: QueryOracle, plan: QueryPlan, fam: PaletteFamily):
    """Issue the plan and return (conflict instance, issued query count).

    Discovered conflict edges are exactly the true conflict edges among
    queried pairs; for the class strategy that is all of them, since a
    conflicting edge shares a color and therefore lies inside a class.
    """
    if plan.n != oracle.n:
        raise ValueError(f"oracle has {oracle.n} vertices, but the plan's n is {plan.n}")
    before, n = oracle.total_queries, plan.n
    if plan.strategy == "scan":
        degrees = oracle.degrees()
        slots = degrees if plan.delta_hint is None else np.minimum(degrees, plan.delta_hint)
        owner, other = oracle.neighbor_prefixes(slots)
        if (slots == degrees).all():
            found = _read_rows(n, owner, other, fam)
        else:
            ends = np.sort(np.stack((owner, other)), axis=0)
            us, vs = split(distinct(ends[0] * n + ends[1]), n)
            hit = shared_edges(us, vs, fam.sampled, fam.universe)
            found = Graph(n, np.column_stack((us[hit], vs[hit])))
    else:
        found = Graph(n, plan.pairs[oracle.pairs(*plan.pairs.T)])
    issued = oracle.total_queries - before
    return ConflictInstance(found, lists=ListAssignment(fam.sampled)), issued


@dataclass
class QueryRunResult:
    coloring: PartialColoring | None
    queries: int
    plan: QueryPlan
    solve_result: SolveResult | None
    error: str = ""

    @property
    def success(self) -> bool:
        return self.coloring is not None


def end_to_end_query_color(oracle: QueryOracle, params: SparsifyParams, seed: int,
                           *, strategy: str = "auto", delta_hint: int | None = None,
                           m_hint: int | None = None,
                           policy: str = "auto") -> QueryRunResult:
    """sample -> plan -> execute -> prune -> solve, with exact counting.

    Pruning reuses the conflict counts of discovered edges only, so no
    query beyond the plan is ever issued. The returned coloring should be
    verified by the caller against the hidden graph.
    """
    n = oracle.n
    fam = sample_palettes(SharedPalette(n, params.q), params.s, seed)
    plan = plan_queries(n, fam, strategy, delta_hint, m_hint=m_hint)
    found, issued = execute_plan(oracle, plan, fam)

    _, _, res = _reduce(found.graph, fam, params, policy=policy, seed=seed)
    if res is None:
        return QueryRunResult(None, issued, plan, None,
                              error="a vertex lost every sampled color in pruning")
    return QueryRunResult(res.coloring, issued, plan, res,
                          error="" if res.success else "solver failed")
