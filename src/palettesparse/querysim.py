"""Non-adaptive query-model simulator with exact query counting.

The oracle answers three query types about a hidden graph: the degree of a
vertex, the i-th neighbor of a vertex, and whether a pair is an edge;
`degrees` and `neighbor_prefixes` ask many of the first two at once and
count each one they stand for. A plan is fixed before any answer is read.
Two conflict-discovery strategies are provided: a neighbor scan (all
degrees, then every neighbor slot, so exactly n + 2m queries get issued)
and color classes (every pair of vertices sharing a sampled color,
deduplicated, so every conflict edge is found because a conflicting edge
lies inside some class). The auto strategy executes whichever of the two
exact costs is smaller. The discovered edges then go through the offline
reduction of `sparsify` (`prune`, then `build_conflict`) as a graph of
their own, so pruning counts over them only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cover import ListAssignment
from .graphcore import Graph, distinct
from .nibble import PartialColoring, SolveResult, solve
from .sparsify import (
    ConflictInstance,
    PaletteFamily,
    SharedPalette,
    SparsifyParams,
    _packed_masks,
    build_conflict,
    prune,
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
    """Sole access point to the hidden graph; counts every issued query."""

    def __init__(self, g: Graph):
        self._g = g
        self.degree_queries = 0
        self.neighbor_queries = 0
        self.pair_queries = 0

    @property
    def n(self) -> int:
        return self._g.n

    def degree(self, v: int) -> int:
        self.degree_queries += 1
        return self._g.degree(v)

    def degrees(self) -> np.ndarray:
        """The degree of every vertex: n degree queries."""
        self.degree_queries += self.n
        return self._g.degrees()

    def neighbor(self, v: int, i: int) -> int:
        self.neighbor_queries += 1
        return int(self._g.neighbors(v)[i])

    def neighbor_prefixes(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor slots 0..k[v]-1 of every vertex v, for 0 <= k[v] <= deg(v),
        as (owner, neighbor) arrays in vertex then slot order: sum(k)
        neighbor queries."""
        g, k = self._g, np.asarray(k, dtype=np.int64)
        if k.shape != (g.n,) or (k < 0).any() or (k > g.degrees()).any():
            raise ValueError("need one slot count per vertex, each within 0..deg(v)")
        self.neighbor_queries += int(k.sum())
        owner = np.repeat(np.arange(g.n), k)
        slot = np.arange(owner.size) - (np.cumsum(k) - k)[owner]
        return owner, g.indices[g.indptr[owner] + slot]

    def pair(self, u: int, v: int) -> bool:
        self.pair_queries += 1
        return self._g.has_edge(u, v)

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


def _pair_union_size(masks: np.ndarray) -> int:
    """Exact number of vertex pairs sharing at least one sampled color,
    without materializing the pairs."""
    n, words = masks.shape
    total = 0
    for u in range(n - 1):
        # OR over the word columns of the AND with row u
        hit = masks[u + 1 :, 0] & masks[u, 0]
        for w in range(1, words):
            hit |= masks[u + 1 :, w] & masks[u, w]
        total += int(np.count_nonzero(hit))
    return total


def _pair_union(fam: PaletteFamily) -> np.ndarray:
    """Deduplicated within-class pairs, ordered by color then lexicographic
    first occurrence."""
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(fam.sampled):
        for c in row:
            classes.setdefault(c, []).append(v)
    # a dict keeps the first occurrence of each pair, in insertion order
    pairs = dict.fromkeys(p for c in sorted(classes) for p in combinations(classes[c], 2))
    return np.array(list(pairs), dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True)
class QueryPlan:
    """All queries fixed before any answer: a function of (n, palettes,
    strategy, hints) only. `pairs` is None for the neighbor scan, whose
    slots are implicit: n degree queries, then per vertex the neighbor
    slots 0..delta_hint-1 of which only the first deg(v) are issued.
    `cost_classes` is the exact class cost, or None when no plan step
    needed it (scan, or auto decided by the largest class alone)."""

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
    and plans the cheaper one (ties: scan). The Theta(n^2) exact class count
    runs only when the scan cost lies between max_c and sum_c of C(|V_c|, 2).
    """
    if strategy not in ("scan", "classes", "auto"):
        raise ValueError(f"unknown strategy {strategy!r}")
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
        per_class = sizes * (sizes - 1) // 2
        if cost_scan <= per_class.max(initial=0):
            return QueryPlan("scan", n, delta_hint, None, cost_scan, None)
        if cost_scan <= per_class.sum():
            cost_classes = _pair_union_size(_packed_masks(fam.sampled, fam.universe))
            if cost_scan <= cost_classes:
                return QueryPlan("scan", n, delta_hint, None, cost_scan, cost_classes)
    pairs = _pair_union(fam)
    return QueryPlan("classes", n, delta_hint, pairs, cost_scan, len(pairs))


def execute_plan(oracle: QueryOracle, plan: QueryPlan, fam: PaletteFamily):
    """Issue the plan and return (conflict instance, issued query count).

    Discovered conflict edges are exactly the true conflict edges among
    queried pairs; for the class strategy that is all of them, since a
    conflicting edge shares a color and therefore lies inside a class.
    """
    before = oracle.total_queries
    n = plan.n
    if plan.strategy == "scan":
        degrees = oracle.degrees()
        slots = degrees if plan.delta_hint is None else np.minimum(degrees, plan.delta_hint)
        owner, other = oracle.neighbor_prefixes(slots)
        if (slots == degrees).all():
            # every edge was read from both ends, so once with owner < other
            lower = owner < other
            us, vs = owner[lower], other[lower]
        else:
            ends = np.sort(np.stack((owner, other)), axis=0)
            us, vs = np.divmod(distinct(ends[0] * n + ends[1]), n)
        hit = shared_edges(us, vs, fam.sampled, fam.universe)
        conflict = np.column_stack((us[hit], vs[hit]))
    else:
        conflict = {(u, v) for u, v in plan.pairs.tolist() if oracle.pair(u, v)}
    issued = oracle.total_queries - before
    inst = ConflictInstance(Graph(n, conflict), lists=ListAssignment(fam.sampled))
    return inst, issued


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

    fam = prune(found.graph, fam, params)
    if (fam.pruned.lens == 0).any():
        return QueryRunResult(None, issued, plan, None,
                              error="a vertex lost every sampled color in pruning")
    conflict = build_conflict(found.graph, fam)
    res = solve(conflict.graph, conflict.lists, policy=policy, seed=seed)
    return QueryRunResult(res.coloring, issued, plan, res,
                          error="" if res.success else "solver failed")
