"""The list/correspondence coloring solver.

The workhorse is a semi-random nibble: each round activates every cover
color independently at rate eta/ell, equalizes every color's survival
probability to exactly keep = (1 - eta/ell)^(2d) with a per-color coin
flip, colors each vertex holding an activated surviving color, and trims
surviving colors whose degree into the still-uncolored part is too large.
A derived parameter schedule says how many rounds shrink the
degree-to-list-size ratio enough that a resampling finisher (assign colors
uniformly, resample the endpoints of violated constraints until none
remain) is guaranteed to complete the coloring.

At small scale the schedule's hypotheses rarely hold, so `solve` wraps the
nibble in a fallback chain: greedy first, then the nibble when admissible,
then the resampling finisher directly, then bounded backtracking. Every
returned coloring is verified internally; an improper coloring is never
returned.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from ._rng import TAG_LLL, TAG_SOLVE, TAG_WCP, bounded, substream
from .cover import (
    CorrespondenceCover,
    CoverArrays,
    ListAssignment,
    Rows,
    _edge_starts,
    clashing_pairs,
    color_degrees,
    cover_from_lists,
    cover_rows,
    cover_sparsity,
    picked_counts,
    restrict_cover,
)
from .graphcore import Graph, _offsets, distinct, ranked, run_starts, stable_order
from .sparsify import PaletteFamily, SparsifyParams, _dense, build_conflict, directed_counts, prune

__all__ = [
    "PartialColoring",
    "VerifyResult",
    "verify_coloring",
    "WcpParams",
    "RoundStats",
    "wcp_round",
    "PreconditionViolation",
    "InvariantViolation",
    "ParamSchedule",
    "ScheduleError",
    "build_schedule",
    "recursion_margin",
    "LllResult",
    "BudgetExceeded",
    "finish_lll",
    "InstanceTooLarge",
    "greedy_color",
    "StageRecord",
    "SolveResult",
    "solve",
]


class PreconditionViolation(RuntimeError):
    pass


class InvariantViolation(RuntimeError):
    """An internal guarantee of the solver failed; a bug, not bad input."""


class BudgetExceeded(RuntimeError):
    pass


class InstanceTooLarge(ValueError):
    pass


class ScheduleError(ValueError):
    pass


class PartialColoring:
    """Vertex -> color map; vertices absent from the map are blank.

    Built from a dict, which it keeps as given, or by `from_arrays` from
    int64 (vertex, color) arrays, as the solver's stages build it. The
    library's passes read `arrays()`; `assignment`, the mapping, is for
    callers, and an array-built coloring makes it once, read-only, on the
    first read, so the two cannot disagree.
    """

    def __init__(self, assignment: dict[int, int] | None = None):
        self._assignment, self._arrays = {} if assignment is None else assignment, None

    @classmethod
    def from_arrays(cls, at, ids) -> "PartialColoring":
        """Vertex at[i] takes color ids[i], the vertices distinct; int64
        arrays are taken as they are and made read-only. ValueError when
        they are not two 1-D arrays of one length."""
        at, ids = np.asarray(at, np.int64), np.asarray(ids, np.int64)
        if at.ndim != 1 or at.shape != ids.shape:
            raise ValueError(f"need 1-D arrays of one length, got shapes {at.shape}, {ids.shape}")
        at.flags.writeable = ids.flags.writeable = False
        phi = cls.__new__(cls)
        phi._assignment, phi._arrays = None, (at, ids)
        return phi

    def __reduce__(self):
        # the read-only mapping does not pickle; what it is made from does
        if self._arrays is None:
            return PartialColoring, (self._assignment,)
        return PartialColoring.from_arrays, self._arrays

    @property
    def assignment(self):
        if self._assignment is None:
            at, ids = self._arrays
            self._assignment = MappingProxyType(dict(zip(at.tolist(), ids.tolist())))
        return self._assignment

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(vertices, colors) as int64 arrays, in the mapping's order; a
        dict-built coloring makes them on each call."""
        a = self._assignment
        return self._arrays or (np.fromiter(a, dtype=np.int64, count=len(a)),
                                np.fromiter(a.values(), dtype=np.int64, count=len(a)))

    def is_total(self, n: int) -> bool:
        return len(self) == n

    def __len__(self) -> int:
        return len(self._assignment) if self._arrays is None else self._arrays[0].size

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialColoring):
            return NotImplemented
        return self.assignment == other.assignment

    def __repr__(self):
        return f"PartialColoring(assignment={dict(self.assignment)!r})"


# ---------------------------------------------------------------------------
# unified instance view (list assignment or correspondence cover)


class _Instance:
    """Solver-side view: per-vertex lists plus an edge conflict relation.

    List mode: colors clash across an edge iff they are equal.
    Cover mode: colors a, b clash across uv iff (a, b) is a declared pair of uv.
    `codes` holds every list entry as the solver compares it: its rank among
    the cover's colors (`CoverArrays.colors`), or its id. The cover stages
    read `pairs`, built once from `CorrespondenceCover.arrays`; a pair on a
    non-edge of g clashes across no edge and is left out of it.
    """

    def __init__(self, g: Graph, obj):
        if not isinstance(obj, (ListAssignment, CorrespondenceCover)):
            raise TypeError(f"expected ListAssignment or CorrespondenceCover, got {type(obj)!r}")
        self.cover = obj if isinstance(obj, CorrespondenceCover) else None
        if obj.n != g.n:
            kind = "list assignment" if self.cover is None else "cover"
            raise ValueError(f"{kind} size does not match graph")
        self.g, self.lists = g, obj.lists
        self.codes = obj.lists.values if self.cover is None else obj.arrays.lists

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(keys, heads, span): the cover's pairs on edges of g, once per
        direction, ordered by key with one `stable_order`. A pair read from
        w to its neighbour x has key s * span + the rank of its color at w,
        s the CSR slot of x in w's row, and head the rank of its color at x;
        so the partners of w's color across s are the heads of one run of
        keys. The ranks are dense already, so keys that would not fit in
        int64 leave nothing to fall back on. A run's two slots, one per
        direction, are its head's entries in its tail's CSR row, found by
        one search of the asked rows (`Rows.find` over g's rows); a run
        with an end outside 0..n-1, or on a non-edge, has none."""
        a, g = self.cover.arrays, self.g
        span = a.colors.size
        if 2 * g.m * span >= 2 ** 63:
            raise InstanceTooLarge(f"{2 * g.m} slots x {span} colors overflow the pair keys")
        first = np.flatnonzero(_edge_starts(a.eu, a.ev))
        # one slot per run of pairs on one edge, each way round
        tail = np.concatenate((a.eu.take(first), a.ev.take(first)))
        head = np.concatenate((a.ev.take(first), a.eu.take(first)))
        on = (tail >= 0) & (tail < g.n)
        slot = np.full(tail.size, -1, dtype=np.int64)
        slot[on] = Rows(g.indices, g.indptr).find(tail[on], head[on])
        run = np.diff(np.append(first, a.eu.size))
        slot = np.repeat(slot, np.concatenate((run, run)))
        on = slot >= 0
        keys = slot[on] * span + np.concatenate((a.ra, a.rb))[on]
        order = stable_order(keys)
        return keys[order], np.concatenate((a.rb, a.ra))[on][order], span

    @cached_property
    def slot_row(self) -> np.ndarray:
        """The vertex whose CSR row holds each slot of g, made once per instance."""
        return self.g.slot_rows()

    def clashes(self, slots: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Bool mask: the two ends of CSR slot slots[i] (its row's vertex
        and g.indices[slots[i]]) carry clashing colors, where col[v] is v's
        color as a code."""
        here, there = col[self.slot_row[slots]], col[self.g.indices[slots]]
        if self.cover is None:
            return here == there
        keys, heads, span = self.pairs
        want = slots * span + here
        lo = np.searchsorted(keys, want)
        runs = np.searchsorted(keys, want, "right") - lo
        # every query's partners against the color across its slot
        query = np.repeat(np.arange(runs.size), runs)
        at = np.arange(query.size) + np.repeat(lo - np.cumsum(runs) + runs, runs)
        out = np.zeros(runs.size, dtype=bool)
        out[query[heads[at] == there[query]]] = True
        return out

    def clashing_edges(self, at: np.ndarray, ids: np.ndarray) -> list[tuple[int, int]]:
        """The edges of g, in `g.edges()` order, whose two ends carry
        clashing colors when the vertices `at` (int64, in range) carry the
        colors `ids`."""
        us, vs = self.g.edge_arrays()
        if self.cover is not None:
            hit = clashing_pairs(self.cover, at, ids)
            # a pair declared on a non-edge of g clashes across no edge
            edge = self.g.edge_index(self.cover.arrays.eu[hit], self.cover.arrays.ev[hit])
            bad = distinct(edge[edge >= 0])
        else:
            colored = np.zeros(self.g.n, dtype=bool)
            color = np.zeros(self.g.n, dtype=np.int64)
            colored[at], color[at] = True, ids
            bad = colored[us] & colored[vs] & (color[us] == color[vs])
        return list(zip(us[bad].tolist(), vs[bad].tolist()))

    def max_color_degree(self) -> int:
        if self.cover is not None:
            return self.cover.max_color_degree()
        return int(directed_counts(self.g.indptr, self.g.indices, self.lists).max(initial=0))


def _as_instance(g: Graph, obj) -> _Instance:
    return obj if isinstance(obj, _Instance) else _Instance(g, obj)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    witness: tuple | None = None
    reason: str = ""


def verify_coloring(g: Graph, obj, phi: PartialColoring) -> VerifyResult:
    """Check list membership and non-conflict across every edge.

    Blank vertices are fine (a partial coloring verifies vacuously on its
    blank part). Membership is one search of each colored vertex's own
    list (`Rows.holds`); the witness is the first bad entry of `phi` in its
    order. It reads `phi.arrays()`, so an array-built coloring is checked
    as built. Runs in O(k log L + n + m) for k colored vertices and lists
    of at most L entries.
    """
    inst = _as_instance(g, obj)
    at, ids = phi.arrays()
    outside = (at < 0) | (at >= g.n)
    missing = outside.copy()
    missing[~outside] = ~inst.lists.holds(at[~outside], ids[~outside])
    if missing.any():
        i = int(missing.argmax())
        v, c = int(at[i]), int(ids[i])
        if outside[i]:
            return VerifyResult(False, (v,), f"vertex {v} out of range")
        return VerifyResult(False, (v, c), f"color {c} not in the list of vertex {v}")
    bad = inst.clashing_edges(at, ids)
    if bad:
        u, v = bad[0]
        what = "carries corresponding colors" if inst.cover is not None else "is monochromatic"
        return VerifyResult(False, (u, v), f"edge ({u}, {v}) {what}")
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# one nibble round


@dataclass(frozen=True)
class WcpParams:
    """Per-round quantities: activation rate eta, list scale ell, degree
    scale d, the derived keep/uncolor probabilities, and next-round scales."""

    eta: float
    ell: float
    d: float
    beta: float
    keep: float
    uncolor: float
    ell_next: float
    d_next: float
    beta_next: float

    @classmethod
    def from_basics(cls, eta: float, ell: float, d: float, beta: float = 0.0) -> "WcpParams":
        if ell <= 0 or d < 0 or not (0.0 <= eta < ell):
            raise ValueError(f"need ell > 0 and 0 <= eta < ell, got eta={eta}, ell={ell}")
        # keep = (1 - eta/ell)^(2d) via exp/log1p; 2d can be large
        lp = math.log1p(-eta / ell)
        keep = math.exp(2.0 * d * lp)
        uncolor = math.exp(keep * ell / 2.0 * lp)
        return cls(
            eta=eta,
            ell=ell,
            d=d,
            beta=beta,
            keep=keep,
            uncolor=uncolor,
            ell_next=keep * ell,
            d_next=keep * uncolor * d,
            beta_next=(1.0 + 36.0 * eta) * beta,
        )


@dataclass(frozen=True, eq=False)
class RoundStats:
    """A round's counts, and the ids of its kept and activated colors as
    read-only ascending int64 arrays."""

    activated: int
    kept: int
    colored: int
    kept_ids: np.ndarray
    activated_ids: np.ndarray


def wcp_round(cov: CorrespondenceCover, p: WcpParams, seed: int):
    """Run one nibble round and return (coloring, next cover, stats).

    Steps: (1) activate each cover color independently with probability
    eta/ell; (2) give each color an equalizing coin flip with probability
    keep / (1 - eta/ell)^deg(c), so survival probability is exactly keep;
    (3) keep colors that survive their flip and have no activated
    correspondent; (4) color each vertex with its smallest activated kept
    color, if any; (5) collect the colors of blank vertices; (6) the next
    cover's colors are the kept colors with at most 2*d_next kept-and-blank
    correspondents, on the blank vertices: a vertex this round colors gets
    an empty row, and a pair stays when both its colors and both its ends do.

    The next cover keeps `cov.n` vertices, their ids and `colors`. On a
    cover whose lists hold every pair at its own ends (every output of
    `restrict_cover`), it is `restrict_cover(cov, next lists, blank)` with
    the vertex ids kept, so the rounds chained from one cut never cut again.

    Requires every color degree <= 2*d (else the equalizer probability
    leaves [0, 1]). The nibble stage checks the other hypotheses once, before
    round 0: every later round's follow from the conclusions before it.
    The draws are over the colors that the lists or pairs hold, ascending
    by id: a cut shares its cover's `colors`, which may hold others.
    """
    a = cov.arrays
    colors, N = a.colors, a.colors.size
    deg = color_degrees(cov)
    if cov.max_color_degree() > 2.0 * p.d:
        raise PreconditionViolation(f"color {int(colors[deg.argmax()])} has degree "
                                    f"{cov.max_color_degree()} > 2*d = {2.0 * p.d}")

    rng = substream(seed, TAG_WCP)
    held = np.zeros(N, dtype=bool)
    held[a.lists] = held[a.ra] = held[a.rb] = True
    drawn = np.flatnonzero(held)
    # draw order: activations then equalizers, both over the held colors
    act, eq = np.zeros(N, dtype=bool), np.zeros(N, dtype=bool)
    act[drawn] = rng.random(drawn.size) < (p.eta / p.ell)
    lp = math.log1p(-p.eta / p.ell) if p.eta > 0 else 0.0
    eq_prob = np.exp((2.0 * p.d - deg[drawn]) * lp) if p.eta > 0 else 1.0
    eq[drawn] = rng.random(drawn.size) < eq_prob
    kept = eq & (picked_counts(cov, act) == 0)

    # each vertex takes its smallest activated kept color; lists are sorted
    holds = cover_rows(cov, act & kept)
    has = holds.lens > 0
    phi = PartialColoring.from_arrays(np.flatnonzero(has), holds.values[holds.indptr[:-1][has]])
    # the colors of blank vertices, and their entries
    in_u = np.zeros(N, dtype=bool)
    in_u[a.lists] = blank = np.repeat(~has, cov.lists.lens)
    stay = kept & (picked_counts(cov, kept & in_u) <= 2.0 * p.d_next)
    entries = stay[a.lists] & blank
    # ends past n - 1 read free[n], no vertex's; as eu <= ev, only eu can be < 0
    free = np.append(~has, False)
    on = np.flatnonzero(stay[a.ra] & stay[a.rb] & free.take(a.eu, mode="clip")
                        & free.take(a.ev, mode="clip") & (a.eu >= 0))
    nxt = CorrespondenceCover._of(cov.lists.keep(entries), CoverArrays(
        colors, a.eu.take(on), a.ev.take(on), a.ra.take(on), a.rb.take(on), a.lists[entries]))

    # two corresponding colors cannot both be kept, so the round is proper
    bad = clashing_pairs(cov, *phi.arrays())
    if bad.size:
        i = bad[0]
        u, v = int(a.eu[i]), int(a.ev[i])
        clash = (int(colors[a.ra[i]]), int(colors[a.rb[i]]))
        raise InvariantViolation(f"nibble round colored edge {(u, v)} with clashing {clash}")

    kept_ids, act_ids = colors[kept], colors[act]
    kept_ids.flags.writeable = act_ids.flags.writeable = False
    stats = RoundStats(int(act.sum()), int(kept.sum()), len(phi), kept_ids, act_ids)
    return phi, nxt, stats


# ---------------------------------------------------------------------------
# the parameter schedule


@dataclass(frozen=True)
class ParamSchedule:
    """Round-by-round (ell_i, d_i, beta_i, keep_i, uncolor_i) sequences.

    i_star is the first index where d_i <= ell_i / _RATIO_STOP (None when the
    iteration cap was exhausted first, which is the expected outcome at
    small d).
    """

    d: float
    k: float
    gamma: float
    epsilon: float
    gamma_prime: float
    big_c: float
    mu: float
    eta: float
    ell: np.ndarray
    dd: np.ndarray
    keep: np.ndarray
    uncolor: np.ndarray
    beta: np.ndarray
    i_star: int | None
    i_star_bound: int

    @property
    def terminated(self) -> bool:
        return self.i_star is not None

    def round_params(self, i: int) -> WcpParams:
        return WcpParams.from_basics(self.eta, float(self.ell[i]), float(self.dd[i]),
                                     float(self.beta[i]))


def recursion_margin(gamma: float, epsilon: float) -> float:
    """Exponent margin gamma*(1+gamma-7*epsilon/32)/(2*gamma-epsilon/4) of
    the schedule; lies strictly between gamma and 1 for small epsilon, and
    the schedule is rejected outside that range."""
    denom = 2.0 * gamma - epsilon / 4.0
    if denom <= 0:
        raise ScheduleError(f"epsilon={epsilon} too large for gamma={gamma}")
    gamma_prime = gamma * (1.0 + gamma - 7.0 * epsilon / 32.0) / denom
    if not (gamma < gamma_prime < 1.0):
        raise ScheduleError(
            f"derived exponent margin {gamma_prime:.6g} outside ({gamma}, 1); shrink epsilon"
        )
    return gamma_prime


_RATIO_STOP = 100.0


def build_schedule(d: float, k: float, gamma: float, epsilon: float) -> ParamSchedule:
    """Iterate the nibble recursion until d_i <= ell_i/_RATIO_STOP.

    Starts from ell_0 = big_c*d/ln(d/sqrt(k)) with big_c = 4*(1+gamma),
    activation eta = mu/ln(d/sqrt(k)) where
    mu = ((big_c-epsilon)/2)*ln(1+epsilon/(8*big_c)), and the recursion
    ell' = keep*ell, d' = keep*uncolor*d, beta' = max((1+36*eta)*beta,
    d'^(-x)) with x = gamma_prime*(1-sqrt(gamma_prime))/200. Gives up (with
    i_star = None, not an exception) when the iteration cap
    ceil((16/mu)*L*ln(L)) for L = ln(d/sqrt(k)) is exhausted first.
    """
    if d < 2:
        raise ScheduleError(f"need d >= 2, got {d}")
    if k < 1:
        raise ScheduleError(f"need k >= 1, got {k}")
    if d <= math.sqrt(k):
        raise ScheduleError(f"need d > sqrt(k), got d={d}, k={k}")
    gamma_prime = recursion_margin(gamma, epsilon)
    big_c = 4.0 * (1.0 + gamma)
    mu = (big_c - epsilon) / 2.0 * math.log1p(epsilon / (8.0 * big_c))
    bigL = math.log(d / math.sqrt(k))
    eta = mu / bigL
    x = gamma_prime * (1.0 - math.sqrt(gamma_prime)) / 200.0
    i_star_bound = math.ceil(16.0 / mu * bigL * math.log(bigL)) if bigL > 1.0 else 0

    ell = [big_c * d / bigL]
    dd = [float(d)]
    keep = []
    uncolor = []
    beta = [dd[0] ** (-x)]
    i_star = None
    for i in range(i_star_bound + 1):
        if dd[i] <= ell[i] / _RATIO_STOP:
            i_star = i
            break
        if i == i_star_bound:
            break
        p = WcpParams.from_basics(eta, ell[i], dd[i])
        keep.append(p.keep)
        uncolor.append(p.uncolor)
        ell.append(p.ell_next)
        dd.append(p.d_next)
        beta.append(max((1.0 + 36.0 * eta) * beta[i], dd[i + 1] ** (-x)))

    return ParamSchedule(
        d=float(d), k=float(k), gamma=gamma, epsilon=epsilon,
        gamma_prime=gamma_prime, big_c=big_c, mu=mu, eta=eta,
        ell=np.array(ell), dd=np.array(dd),
        keep=np.array(keep), uncolor=np.array(uncolor), beta=np.array(beta),
        i_star=i_star, i_star_bound=i_star_bound,
    )


# ---------------------------------------------------------------------------
# resampling finisher


@dataclass(frozen=True)
class LllResult:
    coloring: PartialColoring
    resamples: int


# the finisher's default list-to-degree ratio and resample budget
_LLL_THRESHOLD = 8.0
_LLL_BUDGET = 10 ** 6


def finish_lll(g: Graph, obj, seed: int, *, threshold: float = _LLL_THRESHOLD,
               budget: int = _LLL_BUDGET) -> LllResult:
    """Complete a coloring by resampling violated constraints.

    Requires lists at least `threshold` times larger than the maximum color
    degree (default 8; 2 is known to suffice and is exposed as a knob).
    Assigns every vertex an independent uniform color from its list, then
    repeatedly resamples both endpoints of the lowest-indexed violated edge.
    The first colors are the list positions one `rng.integers(size)` call
    per vertex, vertices ascending, would draw: `_rng.bounded` takes them
    all in one pass from the stream's 32-bit outputs, equal to numpy's
    per-call draws, and leaves the stream where those calls would, so the
    resamples (one `rng.integers` per endpoint) draw the same colors too.
    Every violation test is one `_Instance.clashes` call: on all edges
    first, then on all edges at both endpoints after each resample; an
    edge is queued once per endpoint it is found from.
    Under the precondition the expected number of resamples is finite;
    exceeding `budget` raises BudgetExceeded and indicates a caller bug.
    """
    inst = _as_instance(g, obj)
    sizes = inst.lists.lens.tolist()
    if g.n and min(sizes) == 0:
        raise PreconditionViolation("some vertex has an empty list")
    ell = min(sizes) if g.n else 0
    dmax = inst.max_color_degree()
    if g.n and dmax > ell / threshold:
        raise PreconditionViolation(
            f"max color degree {dmax} exceeds min list size {ell} / {threshold}"
        )
    rng = substream(seed, TAG_LLL)
    lists, codes, indptr = inst.lists, inst.codes, g.indptr.tolist()
    pick = lists.indptr[:-1] + bounded(rng, lists.lens)
    col = codes[pick]
    start = lists.indptr.tolist()
    # heap items (u, v, s): edge uv, u < v, at CSR slot s in either row;
    # the violated edges come in edge order, so they already form a heap
    row = inst.slot_row
    fwd = np.flatnonzero(g.indices > row)
    bad = fwd[inst.clashes(fwd, col)]
    heap = list(zip(row[bad].tolist(), g.indices[bad].tolist(), bad.tolist()))
    resamples = 0
    while heap:
        u, v, s = heapq.heappop(heap)
        if not inst.clashes(np.array([s]), col)[0]:
            continue
        if resamples >= budget:
            raise BudgetExceeded(f"exceeded {budget} resamples")
        resamples += 1
        for x in (u, v):
            pick[x] = start[x] + int(rng.integers(sizes[x]))
            col[x] = codes[pick[x]]
        slots = np.r_[indptr[u] : indptr[u + 1], indptr[v] : indptr[v + 1]]
        slots = slots[inst.clashes(slots, col)]
        for w, x, s in zip(row[slots].tolist(), g.indices[slots].tolist(), slots.tolist()):
            heapq.heappush(heap, (min(w, x), max(w, x), s))
    return LllResult(PartialColoring.from_arrays(np.arange(g.n), lists.values[pick]), resamples)


# ---------------------------------------------------------------------------
# bounded backtracking


def _dfs_color(inst: _Instance, node_cap: int | None):
    """Backtracking with forward pruning. Returns (coloring | None, complete)
    where complete means the search space was fully explored (or a coloring
    was found) within the node cap."""
    g = inst.g
    n = g.n
    sizes = inst.lists.lens.tolist()
    order = sorted(range(n), key=lambda v: (sizes[v], -g.degree(v), v))
    # each vertex's neighbours with their CSR slots in its row
    nbrs = [list(zip(g.neighbors(v).tolist(), range(g.indptr[v], g.indptr[v + 1])))
            for v in range(n)]
    rank = {v: i for i, v in enumerate(order)}
    avail: list[set[int]] = [set(row) for row in Rows(inst.codes, inst.lists.indptr)]
    if inst.cover is None:
        def partners(s: int, c: int):
            return (c,)
    else:
        keys, heads, span = inst.pairs
        keys, heads = keys.tolist(), heads.tolist()

        def partners(s: int, c: int):
            k = s * span + c
            return heads[bisect_left(keys, k) : bisect_right(keys, k)]
    assignment: dict[int, int] = {}
    nodes = 0

    def extend(i: int):
        nonlocal nodes
        if i == n:
            return True, True
        v = order[i]
        for c in sorted(avail[v]):
            nodes += 1
            if node_cap is not None and nodes > node_cap:
                return None, False
            removed = []
            ok = True
            for u, s in nbrs[v]:
                if rank[u] <= i:
                    continue
                for b in partners(s, c):
                    if b in avail[u]:
                        avail[u].discard(b)
                        removed.append((u, b))
                        if not avail[u]:
                            ok = False
            if ok:
                assignment[v] = c
                res, complete = extend(i + 1)
                if res:
                    return True, True
                if not complete:
                    return None, False
                del assignment[v]
            for u, b in removed:
                avail[u].add(b)
        return False, True

    if n > 0 and min(sizes) == 0:
        return None, True
    found, complete = extend(0)
    if found:
        if inst.cover is not None:  # ranks back to the cover's ids
            colors = inst.cover.arrays.colors
            assignment = {v: int(colors[c]) for v, c in assignment.items()}
        return PartialColoring(dict(sorted(assignment.items()))), True
    return None, complete


# ---------------------------------------------------------------------------
# greedy stage


def _greedy_rounds(pos, earlier: Rows, pairs, cands, indptr, q: int):
    """(each vertex's code, how many leading places of the order hold
    greedy's codes) of greedy in settling rounds. Round 0 gives every
    vertex its first candidate; each later round gives every vertex its
    first candidate that the codes of the round before do not block at it
    (code q: no color). What blocks a code at v is read from `earlier`
    and `pairs` as in `_greedy_walk`.

    After a round, every vertex up to the earliest one, in the order,
    whose code changed holds greedy's code: the first wrong vertex has an
    earlier neighbour whose code changed. When no code changes, every
    vertex does. Rounds go on while fewer codes change than in the round
    before, at most n.bit_length() of them.

    A vertex with b entries in `earlier` has at most b codes blocked, so
    it takes one of its first b + 1 candidates, and a round reads only
    those windows, padded to the widest with copies of their last
    candidate, plus a sink place. A bool n x (q + 2) matrix marks the
    codes blocked at each vertex: column q, no color, is marked from the
    start (empty lists read it), and column q + 1, the sink's, never is.
    Each window reads its marks, and its first unmarked place is one
    `argmin` along the rows."""
    n, span = pos.size, q + 2
    lens, head = np.diff(indptr), earlier.values
    width = np.minimum(lens, earlier.lens + 1)
    w = int(width.max(initial=0))
    # each window place's cell of the marks, and the sink's
    cell = np.minimum(np.arange(w + 1), np.maximum(width - 1, 0)[:, None])
    cell += indptr[:-1, None]
    cell = np.take(cands, cell, mode="clip")
    cell[lens == 0] = q
    cell[:, w] = q + 1
    vbase = np.arange(0, n * span, span)
    cell += vbase[:, None]
    # the cell an entry of `earlier` marks is its vertex's row plus the
    # code it blocks: its earlier vertex's code, or its pair's code
    base = np.repeat(vbase, earlier.lens)
    if pairs is not None:
        need, base = pairs[0], base + pairs[1]
    key = np.empty_like(base)
    mark0 = np.zeros((n, span), dtype=bool)
    mark0[:, q] = True
    mark, hit = np.empty_like(mark0), np.empty(cell.shape, dtype=bool)
    window = np.arange(0, n * (w + 1), w + 1)
    col = np.minimum(cell[:, 0] - vbase, q)
    changed, before = 0, n + 1
    for _ in range(n.bit_length()):
        np.copyto(mark, mark0)
        # every index is in range; "wrap" lets take write `out` unbuffered
        np.take(col, head, out=key, mode="wrap")
        if pairs is None:
            key += base
            mark.ravel()[key] = True
        else:
            mark.ravel()[base[key == need]] = True
        np.take(mark, cell, out=hit, mode="wrap")
        new = cell.ravel()[window + hit.argmin(1)]
        new -= vbase
        np.minimum(new, q, out=new)
        diff = new != col
        changed, col = np.count_nonzero(diff), new
        if not changed or changed >= before:
            break
        before = changed
    return col, int(pos[diff].min()) + 1 if changed else n


def _greedy_walk(vertices, col: list, earlier: Rows, pairs, cands, indptr):
    """First-fit over `vertices` in turn: v takes its first candidate that
    no code in `col` blocks. Row v of `earlier` holds earlier vertices u;
    with `pairs` None (lists) each blocks its own code col[u], else (covers)
    entry i blocks code pairs[1][i] at v while col[u] is pairs[0][i].
    Returns the first vertex left with none, or None."""
    # memoryviews hand out each int as it is read, so no list of m ints is built
    cands, c_start = memoryview(cands), indptr.tolist()
    heads, start = memoryview(earlier.values), earlier.indptr.tolist()
    if pairs is not None:
        need, code = map(memoryview, pairs)
    for v in vertices:
        lo, hi = start[v], start[v + 1]
        if pairs is None:
            blocked = {col[u] for u in heads[lo:hi]}
        else:
            blocked = {c for u, f, c in zip(heads[lo:hi], need[lo:hi], code[lo:hi]) if col[u] == f}
        for c in cands[c_start[v] : c_start[v + 1]]:
            if c not in blocked:
                col[v] = c
                break
        else:
            return v
    return None


def greedy_color(g: Graph, obj):
    """Greedy in descending max-c-degree order, picking the available color
    conflicting with the fewest uncolored neighbors (ties: smallest color).
    Returns (coloring | None, stuck vertex | None).

    Both instance kinds run one routine over codes: a list entry's code is
    its id's rank among the lists' ids (id - lo, with nothing ranked, when
    every list is the palette lo..lo + w - 1), a cover entry's its place
    in its own list (an id held twice acts once, at its first place). Greedy
    stops at its first stuck vertex, so v's uncolored neighbours at its
    turn are the later ones. An entry's score is how many of them its
    color clashes at; v's candidates are its codes sorted by (score,
    code), and v takes the first one not blocked at v. Three things depend
    on the kind:

    - the max c-degree, which orders the vertices: `directed_counts` for
      lists, `color_degrees` for covers;
    - the scores: `directed_counts` over the CSR slots to later
      neighbours, or one bincount over the forward runs of
      `_Instance.pairs`;
    - what blocks a code at v: an earlier neighbour holding it, or a pair
      into v from an earlier end u that holds the pair's code at u.

    While `sparsify._dense`'s n x q bound holds, settling rounds
    (`_greedy_rounds`) find greedy's codes for a leading part of the
    order, all of it when they settle; `_greedy_walk` colors the rest
    vertex by vertex."""
    inst = _as_instance(g, obj)
    n, cov = g.n, inst.cover
    if cov is None:
        # strict rows of one width w whose ids span w values are each the
        # palette lo..lo + w - 1, coded by id - lo; other lists have their
        # ids ranked once, for both kernels, the rounds and the walk, after
        # an id held twice is cut to its first place, as on a cover
        lists = inst.lists if inst.lists.strict else inst.lists.keep(~inst.lists.steps(np.equal))
        w = int(lists.lens.max(initial=0))
        lo = int(lists.values[0]) if w else 0
        shared = w > 0 and lists.strict and lists.lens.min() == w and \
            int(lists.values.min()) == lo and int(lists.values.max()) == lo + w - 1
        if shared:
            # no copy when lo = 0: a copy of the entries is fresh memory,
            # faulted in on every call (85 more minor faults per query-scan seed)
            names, codes = np.arange(lo, lo + w), lists.values - lo if lo else lists.values
        else:
            names, codes = ranked(lists.values)
        rows, q, first = Rows(codes, lists.indptr), names.size, 0
    else:
        # each list's colors as ranks, an id held twice cut to its first
        ranks = Rows(cov.arrays.lists, inst.lists.indptr)
        once = ~ranks.steps(np.equal)
        ranks, names = ranks.keep(once), inst.lists.values[once]
        first = ranks.indptr[:-1]
        codes = np.arange(names.size) - np.repeat(first, ranks.lens)
        rows, q, shared = Rows(codes, ranks.indptr), int(ranks.lens.max(initial=0)), False
    if shared:
        # max c-degree is the degree, and every score ties
        maxc = g.degrees()
    else:
        # an empty list counts 0: a vertex is stuck only when its list is
        # empty or some color of it has c-degree >= 1, so where the empty
        # lists fall among the 0s moves no coloring and no stuck vertex
        maxc = np.zeros(n, dtype=np.int64)
        np.maximum.at(maxc, rows.owner, directed_counts(g.indptr, g.indices, rows, q)
                      if cov is None else color_degrees(cov)[ranks.values])
    order = stable_order(-maxc)
    pos = np.empty_like(order)
    pos[order] = np.arange(n)
    if cov is None:
        # the CSR slots to later neighbours (the scores'), found by
        # comparing positions in the narrowest type that holds them; the
        # rest, kept as rows, are each vertex's earlier neighbours
        place = pos.astype(np.min_scalar_type(n))
        later = place[g.indices] > np.repeat(place, g.degrees())
        del place
        back = np.flatnonzero(~later)
        earlier, pairs = Rows(g.indices[back], np.searchsorted(back, g.indptr)), None
        del back
        if not shared:
            score = directed_counts(_offsets(g.degrees() - earlier.lens),
                                    g.indices.compress(later), rows, q)
        del later
    else:
        # the pairs from an earlier end u to a later end v, and the
        # entries of their colors at u and at v (-1: the list lacks it)
        keys, heads, span = inst.pairs
        slot = keys // span
        tail, head = inst.slot_row[slot], g.indices[slot]
        later = pos[head] > pos[tail]
        keys, slot, tail, head = keys[later], slot[later], tail[later], head[later]
        at_u = ranks.find(tail, keys - slot * span)
        at_v = ranks.find(head, heads[later])
        score = np.bincount(at_u[run_starts(keys) & (at_u >= 0)], minlength=names.size)
        # the pairs with both entries, as rows by v of their ends u
        keep = np.flatnonzero((at_u >= 0) & (at_v >= 0))
        into = head[keep]
        keep = keep[stable_order(into)]
        earlier = Rows(tail[keep], _offsets(np.bincount(into, minlength=n)))
        pairs = codes[at_u[keep]], codes[at_v[keep]]
    cands = codes
    if not shared:
        # each list's entries by (score, code), lists in vertex order: one
        # stable sort of the (vertex, score) keys, built in place
        key = rows.owner
        key *= score.max(initial=0) + 1
        key += score
        del score
        cands = codes[stable_order(key)]
        del key
    col, settled = np.full(n, q), 0
    if q and _dense(rows, q, g.indices.size)[2]:
        col, settled = _greedy_rounds(pos, earlier, pairs, cands, rows.indptr, q)
    # greedy is stuck at the first vertex the rounds settle without a color
    uncolored = np.flatnonzero(col[order[:settled]] == q)
    if uncolored.size:
        return None, int(order[uncolored[0]])
    if settled < n:
        col = col.tolist()
        stuck = _greedy_walk(order[settled:].tolist(), col, earlier, pairs, cands, rows.indptr)
        if stuck is not None:
            return None, stuck
    return PartialColoring.from_arrays(np.arange(n), names[np.add(col, first)]), None


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class StageRecord:
    name: str
    attempted: bool
    succeeded: bool
    reason: str = ""
    stats: dict = field(default_factory=dict)


@dataclass
class SolveResult:
    coloring: PartialColoring | None
    stages: list[StageRecord]
    policy: str
    seed: int

    @property
    def success(self) -> bool:
        return self.coloring is not None

    @property
    def path(self) -> str:
        done = [s.name for s in self.stages if s.attempted]
        return ">".join(done) if done else "none"

    @property
    def chosen(self) -> str | None:
        for s in self.stages:
            if s.succeeded:
                return s.name
        return None


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(TAG_SOLVE, *key)).generate_state(1)[0])


def _against_scales(cov: CorrespondenceCover, ell: float, d: float, beta: float):
    """(max color degree, too large, too small, too heavy) of `cov` at the
    scales ell, d, beta, the last three as vertex masks: |L(v)| above
    (1 + beta)*ell, below (1 - beta)*ell/2, and a nonempty list's average
    color degree above (2 - (1 - beta)*ell/|L(v)|)*d. None grows with beta."""
    lens = cov.lists.lens
    sums = np.bincount(cov.lists.owner, minlength=cov.n,
                       weights=color_degrees(cov)[cov.arrays.lists])
    lv = np.maximum(lens, 1)
    heavy = (lens > 0) & (sums / lv > (2.0 - (1.0 - beta) * ell / lv) * d + 1e-9)
    return (cov.max_color_degree(), lens > (1.0 + beta) * ell,
            lens < (1.0 - beta) * ell / 2.0, heavy)


def _round_hypotheses(cov: CorrespondenceCover, p: WcpParams) -> str | None:
    """Check a round's structural hypotheses on its cover; reason on failure.

    Local sparsity is not rechecked: the cover graph is an induced subgraph
    of the one audited at stage start, so it can only have improved.
    """
    dmax, large, small, heavy = _against_scales(cov, p.ell, p.d, p.beta)
    if dmax > 2.0 * p.d:
        return f"max color degree {dmax} > 2*d = {2 * p.d:.4g}"
    bad = np.flatnonzero(large | small | heavy)
    if bad.size:
        v = int(bad[0])
        if large[v] or small[v]:
            return f"list size {int(cov.lists.lens[v])} of vertex {v} outside the allowed band"
        return f"average color degree of vertex {v} too large"
    return None


def _round_conclusions(nxt: CorrespondenceCover, blank: np.ndarray, p: WcpParams) -> str | None:
    """Check the next round's cover against the round's next scales, on the
    vertices the bool mask `blank` marks (a colored vertex's empty row is
    no list), each named by its own id; reason on failure.

    Sparsity is omitted: the next cover graph is an induced subgraph, so it
    inherits the bound.
    """
    dmax, large, small, heavy = _against_scales(nxt, p.ell_next, p.d_next, p.beta_next)
    bad = np.flatnonzero((large | small) & blank)
    if bad.size:
        v = int(bad[0])
        return f"next list of vertex {v} too {'large' if large[v] else 'small'}"
    if dmax > 2.0 * p.d_next:
        return "next cover max degree too large"
    heavy = np.flatnonzero(heavy)
    if heavy.size:
        return f"next average color degree of vertex {int(heavy[0])} too large"
    return None


# tries per nibble round; backtracking's node budget and largest n
_RETRIES = 20
_BACKTRACK_CAP = 200_000
_BACKTRACK_MAX_N = 30


def _nibble_stage(g: Graph, inst: _Instance, seed: int, schedule_gamma: float,
                  schedule_epsilon: float, record: StageRecord):
    """Stage (b): schedule, rounds with re-validation and retries, finisher.

    Lists run on their canonical cover. The round hypotheses are checked
    once, on the trimmed starting cover: round i + 1 starts from the cover
    that round i's conclusions passed, at the same ell and d and a beta no
    smaller (`build_schedule` makes beta_{i+1} >= beta_next), and no test of
    `_against_scales` fails more vertices as beta grows. The rounds stop as
    soon as the finisher's precondition is settled: an empty list fails it
    for good (lists only shrink), lists of _LLL_THRESHOLD * max(1, d) meet
    it, and with no vertex left there is nothing to finish. Each round runs
    on g's vertex ids, from the cover the round before returned, and builds
    no graph: the one vertex cut is the finisher's instance, the uncolored
    vertices of the last cover, with its graph built from the cut's edges.
    """
    cov = inst.cover if inst.cover is not None else cover_from_lists(g, ListAssignment(inst.lists))
    d0 = cov.max_color_degree()
    k0 = max(1, cover_sparsity(cov))
    if d0 < 2 or d0 <= math.sqrt(k0):
        record.reason = f"degree scale d={d0} incompatible with sparsity k={k0}"
        return None
    try:
        sched = build_schedule(d0, k0, schedule_gamma, schedule_epsilon)
    except ScheduleError as e:
        record.reason = f"schedule rejected: {e}"
        return None
    if not sched.terminated:
        record.reason = (
            f"schedule did not terminate within {sched.i_star_bound} rounds"
        )
        return None
    ell_t = int(math.floor(sched.ell[0]))
    lens = cov.lists.lens
    if ell_t < 1 or (lens < ell_t).any():
        record.reason = (
            f"lists smaller than the schedule's starting scale {sched.ell[0]:.4g}"
        )
        return None
    # trim every list to the starting scale (smallest ids kept)
    slot = np.arange(lens.sum()) - np.repeat(cov.lists.indptr[:-1], lens)
    cov, _ = restrict_cover(cov, cov.lists.keep(slot < ell_t))
    # the colored vertices, and each one's cover id
    color, done = np.zeros(g.n, dtype=np.int64), np.zeros(g.n, dtype=bool)
    record.stats["rounds"] = 0
    for i in range(sched.i_star):
        least = 0 if done.all() else cov.lists.lens[~done].min()
        if not least or least >= _LLL_THRESHOLD * max(1, cov.max_color_degree()):
            break
        p = sched.round_params(i)
        reason = None if i else _round_hypotheses(cov, p)
        if reason is not None:
            record.reason = f"round 0 hypotheses failed: {reason}"
            return None
        for r in range(_RETRIES):
            phi, nxt, _ = wcp_round(cov, p, _child_seed(seed, i, r))
            colored, ids = phi.arrays()
            blank = ~done
            blank[colored] = False
            reason = _round_conclusions(nxt, blank, p)
            if reason is None:
                break
        else:
            record.reason = f"round {i} conclusions failed after {_RETRIES} tries: {reason}"
            return None
        record.stats["rounds"] += 1
        color[colored], done, cov = ids, ~blank, nxt
    if not done.all():
        sub, edges = restrict_cover(cov, cov.lists, ~done)
        try:
            fin = finish_lll(Graph(sub.n, edges), sub, _child_seed(seed, 1 << 20))
        except PreconditionViolation as e:
            record.reason = f"finisher precondition failed after rounds: {e}"
            return None
        record.stats["resamples"] = fin.resamples
        # the finisher colors every vertex of the cut, in order
        color[~done] = fin.coloring.arrays()[1]
    # lists: cover id c is list entry c, pulled back to its name
    return PartialColoring.from_arrays(np.arange(g.n), color if inst.cover is not None else
                                       inst.lists.values[color])


def solve(g: Graph, obj, policy: str = "auto", seed: int = 0, *,
          schedule_gamma: float = 0.1, schedule_epsilon: float = 0.3) -> SolveResult:
    """Fallback chain returning the first total proper coloring found.

    auto order: greedy, then the nibble when its schedule is admissible,
    then the resampling finisher when its precondition already holds, then
    bounded backtracking on small instances. Forcing a single stage:
    policy in {"greedy", "nibble", "lll", "auto"}. Every candidate coloring
    is re-verified before being returned; on failure the result carries one
    record per stage saying why it stopped.
    """
    if policy not in ("auto", "greedy", "nibble", "lll"):
        raise ValueError(f"unknown policy {policy!r}")
    inst = _as_instance(g, obj)
    stage_names = [policy] if policy != "auto" else ["greedy", "nibble", "lll", "backtracking"]
    stages = [StageRecord(name, False, False) for name in stage_names]
    result = SolveResult(None, stages, policy, seed)

    def finalize(rec: StageRecord, coloring: PartialColoring | None) -> bool:
        if coloring is None or not coloring.is_total(g.n):
            return False
        check = verify_coloring(g, obj, coloring)
        if not check.ok:
            rec.reason = f"produced an improper coloring ({check.reason}); discarded"
            return False
        rec.succeeded = True
        result.coloring = coloring
        return True

    for rec in stages:
        rec.attempted = True
        if rec.name == "greedy":
            coloring, stuck = greedy_color(g, inst)
            if finalize(rec, coloring):
                return result
            if rec.reason == "":
                rec.reason = f"stuck at vertex {stuck}" if stuck is not None else "incomplete"
        elif rec.name == "nibble":
            coloring = _nibble_stage(g, inst, seed, schedule_gamma, schedule_epsilon, rec)
            if finalize(rec, coloring):
                return result
            if rec.reason == "":
                rec.reason = "nibble produced no total coloring"
        elif rec.name == "lll":
            try:
                fin = finish_lll(g, inst, _child_seed(seed, 2 << 20))
                rec.stats["resamples"] = fin.resamples
                if finalize(rec, fin.coloring):
                    return result
            except PreconditionViolation as e:
                rec.reason = f"precondition failed: {e}"
            except BudgetExceeded as e:
                rec.reason = str(e)
        elif rec.name == "backtracking":
            if g.n > _BACKTRACK_MAX_N:
                rec.reason = f"instance too large for backtracking (n={g.n})"
                continue
            coloring, complete = _dfs_color(inst, _BACKTRACK_CAP)
            if finalize(rec, coloring):
                return result
            rec.reason = (
                "search space exhausted: instance is uncolorable" if complete
                else f"node budget {_BACKTRACK_CAP} exhausted"
            )
    return result


def _reduce(g: Graph, fam: PaletteFamily, params: SparsifyParams, *,
            cover: CorrespondenceCover | None = None, delta_ref: int | None = None,
            policy: str = "auto", seed: int = 0):
    """The pipeline after sampling, in every model: prune `fam` on g (or
    `cover`), keep the conflict instance, release g, and solve it unless a
    pruned palette is empty. Returns (pruned family, conflict instance,
    SolveResult or None); the callers word the failures."""
    fam = prune(cover or g, fam, params, delta_ref=delta_ref)
    conflict = build_conflict(g, fam, cover=cover)
    del g
    if (fam.pruned.lens == 0).any():
        return fam, conflict, None
    return fam, conflict, solve(conflict.graph, conflict.cover or conflict.lists,
                                policy=policy, seed=seed)
