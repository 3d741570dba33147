"""Palette sampling, high-conflict color pruning, and conflict instances.

The pipeline implemented here: derive the palette size q and per-vertex
sample size s from (delta, n, k, alpha, gamma, epsilon); sample each vertex
an s-subset of its palette; drop colors whose conflict count crosses the
pruning threshold (1 + gamma')*s*delta_ref/q; and keep only the edges that
can still be monochromatic. Any proper coloring of the resulting conflict
instance that picks colors from the pruned palettes is a proper coloring of
the original instance, which is the whole point of the reduction.

Sampled and pruned palettes are `Rows`. The offline, streaming and query
models all run `prune` and `build_conflict` on the `Graph` of the edges
they see (all, stored or discovered) and its cover, if any, and the
conflict graph is cut from that graph (`Graph.keep`). Lists go through two
numpy kernels on `Rows` of any ids, shared with the list greedy:
`directed_counts`, one count per list entry over a graph's CSR rows (its
row offsets and slots, so no head id per slot is made), and
`shared_edges`, one survival flag per edge; how they count (n x q matrices,
a matrix product or a join, see `_TABLE_CELLS`) is theirs alone. Both
skip what an exact bound settles: `prune` counts only heads whose degree
passes the threshold, and `shared_edges` keeps every pair of rows that
each hold over half the ids. Covers go through the
kernels of `cover` over their pair arrays: `restrict_cover` for the
samples and the conflict cover, `color_degrees` for pruning. A cover's
color degrees are counted once and kept on it, so the reference degree
(`max_color_degree`) and the solver's stages read the same count.

All logarithms are natural. Thresholds are compared with <= against the
real-valued bound ("at most"), never rounded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._rng import TAG_PALETTE, choice_rows, substream
from .cover import (
    CorrespondenceCover,
    ListAssignment,
    Rows,
    color_degrees,
    cover_rows,
    restrict_cover,
)
from .graphcore import Graph, _offsets, ranked, stable_order

__all__ = [
    "InvalidParameters",
    "PaletteTooSmall",
    "SparsifyParams",
    "SharedPalette",
    "PaletteFamily",
    "ConflictInstance",
    "derive_params",
    "manual_params",
    "sample_palettes",
    "prune",
    "build_conflict",
    "directed_counts",
    "shared_edges",
]


class InvalidParameters(ValueError):
    pass


class PaletteTooSmall(ValueError):
    pass


@dataclass(frozen=True)
class SparsifyParams:
    """Derived sampling parameters.

    gamma_prime = epsilon^2 / (3*(1+gamma)) is the pruning slack and
    big_c = 3*gamma_prime^(-3/2) the constant in the sample-size lower bound
    s >= delta^alpha + big_c*sqrt(ln n). When the bound meets or exceeds q
    the instance is flagged degenerate and the whole palette is sampled.
    The pruning threshold and the flag are derived from the fields.
    """

    q: int
    s: int
    alpha: float
    gamma: float
    epsilon: float
    gamma_prime: float
    big_c: float
    delta_ref: int

    def threshold(self, delta_ref) -> float:
        """The pruning threshold (1 + gamma')*s*delta_ref/q."""
        return (1.0 + self.gamma_prime) * self.s * delta_ref / self.q

    @property
    def degenerate(self) -> bool:
        return self.s >= self.q

    def with_overrides(self, q: int | None = None, s: int | None = None,
                       delta_ref: int | None = None) -> "SparsifyParams":
        """Replace q/s/delta_ref, with s capped at q."""
        q2 = self.q if q is None else q
        s2 = min(self.s if s is None else s, q2)
        return replace(self, q=q2, s=s2,
                       delta_ref=self.delta_ref if delta_ref is None else delta_ref)


def derive_params(delta: int, n: int, k: int, alpha: float, gamma: float,
                  epsilon: float) -> SparsifyParams:
    """Compute q = ceil(4(1+gamma+epsilon)*delta / ln(delta^alpha / sqrt(k)))
    and s = ceil(delta^alpha + big_c*sqrt(ln n)), capped at q.

    Requires finite delta, n, k >= 1 and delta^alpha > sqrt(k), so the
    logarithm is positive. Warns (but does not reject) when k falls outside
    [1, delta^(2*alpha*gamma)].
    """
    # written so that NaN fails each test
    if not (1 <= delta < math.inf and 1 <= n < math.inf):
        raise InvalidParameters(f"need finite delta >= 1 and n >= 1, got delta={delta}, n={n}")
    if not 1 <= k < math.inf:
        raise InvalidParameters(f"need finite k >= 1 (use k=1 for triangle-free audits), got {k}")
    if not (0.0 < alpha < 1.0) or not (0.0 < gamma < 1.0) or not 0.0 < epsilon < math.inf:
        raise InvalidParameters(
            f"need alpha,gamma in (0,1) and finite epsilon > 0, got {alpha}, {gamma}, {epsilon}"
        )
    ratio = delta ** alpha / math.sqrt(k)
    if ratio <= 1.0:
        raise InvalidParameters(
            f"delta^alpha = {delta ** alpha:.6g} must exceed sqrt(k) = {math.sqrt(k):.6g}"
        )
    if k > delta ** (2.0 * alpha * gamma):
        warnings.warn(
            f"k={k} above delta^(2*alpha*gamma)={delta ** (2 * alpha * gamma):.4g}; "
            "outside the supported sparsity range",
            stacklevel=2,
        )
    gamma_prime = epsilon ** 2 / (3.0 * (1.0 + gamma))
    big_c = 3.0 * gamma_prime ** -1.5
    q = math.ceil(4.0 * (1.0 + gamma + epsilon) * delta / math.log(ratio))
    s_raw = delta ** alpha + big_c * math.sqrt(math.log(n)) if n > 1 else delta ** alpha
    return SparsifyParams(
        q=q,
        s=min(math.ceil(s_raw), q),
        alpha=alpha,
        gamma=gamma,
        epsilon=epsilon,
        gamma_prime=gamma_prime,
        big_c=big_c,
        delta_ref=delta,
    )


def manual_params(delta: int, gamma: float, epsilon: float, q: int,
                  s: int) -> SparsifyParams:
    """Params with q and s fixed by the caller instead of the closed form.

    The slack constants still come from (gamma, epsilon); use this for
    regimes like (Delta+1, Theta(log n)) where the palette is prescribed.
    q, s >= 1 and delta >= 0 must be finite.
    """
    # written so that NaN fails each test
    if not (1 <= q < math.inf and 1 <= s < math.inf and 0 <= delta < math.inf):
        raise InvalidParameters(f"need finite q >= 1, s >= 1 and delta >= 0, "
                                f"got q={q}, s={s}, delta={delta}")
    if not (0.0 < gamma < 1.0) or not 0.0 < epsilon < math.inf:
        raise InvalidParameters(f"need gamma in (0,1) and finite epsilon > 0, got {gamma}, {epsilon}")
    gamma_prime = epsilon ** 2 / (3.0 * (1.0 + gamma))
    return SparsifyParams(
        q=q,
        s=min(s, q),
        alpha=0.5,
        gamma=gamma,
        epsilon=epsilon,
        gamma_prime=gamma_prime,
        big_c=3.0 * gamma_prime ** -1.5,
        delta_ref=delta,
    )


@dataclass(frozen=True)
class SharedPalette:
    """Marker for 'every one of n vertices samples from 0..q-1'."""

    n: int
    q: int


@dataclass(frozen=True)
class PaletteFamily:
    """Sampled per-vertex palettes S(v) and, after pruning, S'(v) <= S(v),
    as `Rows` (any sequence of rows given is converted).

    `universe` is q when every vertex sampled from the shared palette
    0..q-1; None for per-vertex lists or cover colors, whose ids the
    kernels first replace by their ranks.
    """

    sampled: Rows
    pruned: Rows | None = None
    universe: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "sampled", Rows.of(self.sampled))
        if self.pruned is not None:
            object.__setattr__(self, "pruned", Rows.of(self.pruned))

    @property
    def n(self) -> int:
        return len(self.sampled)

    def active(self) -> Rows:
        return self.sampled if self.pruned is None else self.pruned


def sample_palettes(palettes, s: int, seed: int) -> PaletteFamily:
    """Draw a uniform s-subset of each vertex's palette, independently.

    `palettes` is a SharedPalette (every vertex draws from 0..q-1) or a
    per-vertex sequence of color sets. Draw order: one stream, vertices
    ascending, the s positions in each sorted palette larger than s that one
    `rng.choice(k, s, replace=False)` call per vertex would pick. They are
    replayed for all vertices at once by `_rng.choice_rows` from the
    stream's 32-bit outputs and equal numpy's per-call draws, so the result
    is a deterministic function of (palettes, s, seed). `s` must be at
    least 1, a shared palette's n at least 0, and no palette may be
    smaller than s. The samples are `Rows.strict` when the palette is
    shared or its rows are known to be strict.
    """
    if s < 1:
        raise PaletteTooSmall(f"sample size must be >= 1, got {s}")
    if isinstance(palettes, SharedPalette):
        if palettes.n < 0:
            raise InvalidParameters(f"need n >= 0 vertices, got {palettes.n}")
        if palettes.q < s:
            raise PaletteTooSmall(f"palette has {palettes.q} colors, need {s}")
        n, universe = palettes.n, palettes.q
        lens = np.broadcast_to(np.int64(universe), n)
    else:
        palettes = Rows.of(palettes)
        n, lens, universe = len(palettes), palettes.lens, None
        short = np.flatnonzero(lens < s)
        if short.size:
            v = int(short[0])
            raise PaletteTooSmall(f"palette of vertex {v} has {int(lens[v])} colors, need {s}")
    block = choice_rows(substream(seed, TAG_PALETTE), lens, s)
    # the positions ascend, distinct, so the samples of 0..q-1 or of strict rows are strict
    strict = universe is not None or palettes._strict or None
    if universe is None:
        block += palettes.indptr[:-1, None]
        block = palettes.values.take(block)
    return PaletteFamily(Rows(block.ravel(), np.arange(0, n * s + 1, s), strict), universe=universe)


# Two paths answer every list kernel, chosen by size. While an n x q matrix
# holds at most _TABLE_CELLS cells per list entry or pair, counts add uint8
# membership rows (`_lanes`) or, on dense graphs, multiply float32 matrices
# (`_product`, see _PRODUCT_SHARE), and survival is an AND of packed bit
# masks: on an offline-baseline sample (n=1,500, m=35k, s=15, one Xeon
# core) the join takes about 85 ms against 2-3 ms for the counts and 35 ms
# against 0.4 ms for survival. Past that bound each entry of one end's row is looked up in
# the other's (`Rows.find`), in memory linear in the entries and pairs. The
# lanes add q bytes per pair where the bincount table they replaced added s
# keys: on gen_bipartite(2500, 32), s = 8, they win 4x at q/s = 2, 3.4x at
# 16 and 2.2x at 32, and lose 1.8x at 64 and 3x at 128. No workload or
# acceptance test reaches q/s > 32, nor does `derive_params` at alpha = 0.5,
# gamma = 0.1, epsilon <= 1 for delta < n, delta <= 1000 (q/s <= 31), so the
# table is gone rather than kept as a second path. Greedy's settling rounds
# (`nibble._greedy_rounds`, n x (q + 2) marks, q the ids of a list instance or
# the longest list of a cover) run under the same bound, on lists and covers.
_TABLE_CELLS = 64

# The table path's counts come from one float32 matrix product (`_product`)
# when the pairs fill at least this share of the n x n adjacency, and from
# `_lanes` below it: both cost about q per cell, the product's cell being
# one of the n^2 and the lanes' one of the pairs. Measured on one Xeon VM
# with two OpenBLAS threads, product / lanes on the sampled rows of
# gen_bipartite: 0.15 at the paper rung's 0.23 (n = 10^4, q = 2930), 0.5-1.1
# at 0.09 (n = 4000 and 10^4, q = 64 to 2048), 0.6-5 at 0.056-0.074, 1.7-3
# at 0.048, 2 at 0.024 (q = 2048) and 17 at the c08 rung's 0.025 (n = 5000,
# q = 129).
_PRODUCT_SHARE = 0.1

# adjacency cells per block of the product: 2**22 (16 MB); on the paper
# rung 2**20 takes 4.6 s, 2**22 2.7 s and 2**24 3.1 s
_BLOCK_CELLS = 1 << 22

# keys per chunk of the join and of survival: 2**16 (0.5 MB), or more when
# the rows are larger, so each chunk's pass over them is paid for by its keys
_CHUNK_KEYS = 1 << 16


def _dense(rows, universe: int | None, pairs: int):
    """(rows over 0..q-1, q, whether the n x q matrices fit the bound for
    `pairs` pairs): with universe None each id is replaced by its rank
    among the ascending distinct ids, unless the ids already are all of
    0..q-1. Entries keep their places."""
    rows = Rows.of(rows)
    flat, q = rows.values, universe
    if q is None:
        colors, ranks = ranked(flat)
        # ranks keep the ids' order, so the rows keep their `strict`
        rows, q = Rows(ranks, rows.indptr, rows._strict), colors.size
    return rows, q, len(rows) * q <= _TABLE_CELLS * (flat.size + pairs)


def _lanes(offsets, tails, member: np.ndarray) -> np.ndarray:
    """acc[h] = the sum of member[t] over the tails t of head h, the pairs
    offsets[h]:offsets[h + 1] of `tails`. With the heads ranked by
    descending pair count, round j adds the j-th tail of every head with
    more than j pairs as one prefix slice, until no more heads are left
    than rounds have run; each then takes one row sum, so a star costs
    O(sqrt(pairs)) numpy calls, not its degree. The only sort is that
    rank, n long. acc is uint8, uint16 or int64, the first that holds
    every head's count."""
    n, q = member.shape
    per = np.diff(offsets)
    rank = stable_order(-per)
    base, per = offsets[rank], per[rank]
    top = int(per[0])
    acc = np.zeros((n, q), np.uint8 if top < 2 ** 8 else np.uint16 if top < 2 ** 16 else np.int64)
    # longer[j] heads, the first ranks, have more than j pairs
    longer = n - np.cumsum(np.bincount(per))
    j = 0
    while longer[j] > j:
        acc[: longer[j]] += member.take(tails[base[: longer[j]] + j], axis=0)
        j += 1
    for i in range(longer[j]):
        acc[i] += member.take(tails[base[i] + j : base[i] + per[i]], axis=0).sum(0, acc.dtype)
    out = np.empty_like(acc)
    out[rank] = acc
    return out


def _product(offsets, tails, cell: np.ndarray, indptr: np.ndarray, q: int) -> np.ndarray:
    """The counts of `directed_counts` at the entries' `cell`s of an n x q
    matrix, n = indptr.size - 1, by blocks of B = _BLOCK_CELLS // n heads:
    each block's float32 adjacency (row h adds 1 per pair of head h, so a
    repeated tail counts twice) times the n x q float32 membership matrix.
    Every partial sum is an integer at most its head's pair count, so the
    product is exact while each head has fewer than 2**24 pairs. Memory:
    4nq bytes for the membership plus 4B(n + q) bytes for a block and its
    product, and the block's pair indices."""
    n = indptr.size - 1
    member = np.zeros((n, q), dtype=np.float32)
    member.ravel()[cell] = 1
    counts = np.empty(cell.size, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        adj = np.zeros((hi - lo, n), dtype=np.float32)
        at = np.repeat(np.arange(0, adj.size, n), np.diff(offsets[lo : hi + 1]))
        at += tails[offsets[lo] : offsets[hi]]
        np.add.at(adj.ravel(), at, np.float32(1))
        a, b = indptr[lo], indptr[hi]
        counts[a:b] = (adj @ member).ravel().take(cell[a:b] - lo * q)
    return counts


def _packed_masks(rows: Rows, q: int) -> np.ndarray:
    """Color rows over 0..q-1 as packed uint64 rows; c is bit c & 63 of word c >> 6."""
    words = max(1, (q + 63) // 64)
    member = np.zeros((len(rows), 64 * words), dtype=bool)
    member[rows.owner, rows.values] = True
    return np.packbits(member, axis=1, bitorder="little").view("<u8")


def _joined(tails, rows: Rows, heads):
    """Per chunk of pairs, (i, a) for every id that pair i's two rows share,
    a its entry in the head row, heads(lo, hi) the heads of pairs lo..hi-1:
    each entry of the tail row is looked up there with `Rows.find`."""
    lens = rows.lens
    step = max(1, max(_CHUNK_KEYS, rows.values.size) // max(1, int(lens.max(initial=0))))
    for lo in range(0, tails.size, step):
        at = tails[lo : lo + step]
        i = np.repeat(np.arange(at.size), lens[at])
        a = rows.find(heads(lo, lo + at.size)[i], rows.values[rows.spread(at)])
        i += lo
        yield i[a >= 0], a[a >= 0]


def directed_counts(offsets, tails, rows, universe: int | None = None) -> np.ndarray:
    """For every entry (h, c) of `rows`, in entry order, the number of
    tails t of h with c in rows[t]: the tails of head h are
    tails[offsets[h]:offsets[h + 1]], as a graph's CSR rows are
    (`g.indptr`, `g.indices`), for int64 `tails` and n + 1 `offsets`.
    `universe` is q when the ids are colors of 0..q-1 (else None). Counts
    come from the join when the n x q matrices do not fit (see `_dense`).
    When they do, and every row is a whole palette (q entries, `strict`),
    each count is its head's pair count; otherwise they come from one float32 product of the
    adjacency with the membership matrix when the pairs fill at least
    `_PRODUCT_SHARE` of the n x n adjacency and no head has 2**24 pairs
    (exact, in 4nq bytes plus a block, see `_product`), else they add by
    `_lanes` over the uint8 n x q `member` (row v marks rows[v])."""
    rows, q, table = _dense(rows, universe, tails.size)
    if not table:
        # the join finds one entry per id both rows hold: rows join with
        # repeated ids cut, and each copy takes the count of the first
        first = ~rows.steps(np.equal)
        cut = rows.keep(first)
        counts = np.zeros(cut.values.size, dtype=np.int64)

        def heads(lo, hi):  # pair i's head is the last row whose offset is <= i
            return np.searchsorted(offsets, np.arange(lo, hi), "right") - 1
        for _, a in _joined(tails, cut, heads):
            counts += np.bincount(a, minlength=counts.size)
        return counts if cut is rows else counts[np.cumsum(first) - 1]
    n, owner = len(rows), rows.owner
    if (rows.lens == q).all() and rows.strict:
        return np.diff(offsets)[owner]
    cell = np.multiply(owner, q, out=owner)  # each entry's cell of an n x q
    cell += rows.values                      # matrix, in place of its owner
    if tails.size >= _PRODUCT_SHARE * n * n and np.diff(offsets).max() < 2 ** 24:
        return _product(offsets, tails, cell, rows.indptr, q)
    member = np.zeros((n, q), dtype=np.uint8)
    member.ravel()[cell] = 1
    return _lanes(offsets, tails, member).ravel().take(cell).astype(np.int64)


def shared_edges(us, vs, rows, universe: int | None = None) -> np.ndarray:
    """Bool mask of the pairs (us[i], vs[i]) whose rows share an id. When
    every row holds more than q/2 distinct ids of the q, every pair does,
    by pigeonhole (whole rows are the special case), and nothing is
    compared. On the table path a pair survives when the OR over the
    64-bit words of the AND of its two bit masks is nonzero, one 1-D
    gather of a word column per end and word, a chunk of pairs at a time."""
    rows, q, table = _dense(rows, universe, us.size)
    if 2 * rows.lens.min(initial=q) > q and rows.strict:
        # two rows of more than q/2 distinct ids of q share one
        return np.ones(us.size, dtype=bool)
    hit = np.zeros(us.size, dtype=bool)
    if not table:
        for i, _ in _joined(vs, rows, lambda lo, hi: us[lo:hi]):
            hit[i] = True
        return hit
    masks = _packed_masks(rows, q)
    for lo in range(0, us.size, _CHUNK_KEYS):
        u, v = us[lo : lo + _CHUNK_KEYS], vs[lo : lo + _CHUNK_KEYS]
        both = masks[:, 0][u] & masks[:, 0][v]
        for w in range(1, masks.shape[1]):
            both |= masks[:, w][u] & masks[:, w][v]
        hit[lo : lo + _CHUNK_KEYS] = both != 0
    return hit


def prune(subject, fam: PaletteFamily, params: SparsifyParams,
          *, delta_ref: int | None = None) -> PaletteFamily:
    """Drop every sampled color whose conflict count exceeds the threshold.

    For a Graph subject the conflict count of c at v is the number of
    neighbors whose sample also contains c, and the threshold reference
    degree is the graph's a-priori delta. For a CorrespondenceCover subject
    the count is the number of sampled colors corresponding to c, and the
    reference degree defaults to the cover's measured max color degree.
    Keeps a color exactly when its count is <= the real-valued threshold.
    A graph count is at most its head's degree, so only the CSR rows of
    heads whose degree exceeds the threshold are counted, and when there
    are none, `pruned` is `sampled` itself and nothing is counted.
    """
    if isinstance(subject, Graph):
        thr = params.threshold(params.delta_ref if delta_ref is None else delta_ref)
        deg = subject.degrees()
        fail = deg > thr
        if not fail.any():
            return PaletteFamily(fam.sampled, fam.sampled, fam.universe)
        # every head fails on most sparse inputs, and their slots are a view
        slots = slice(None) if fail.all() else np.repeat(fail, deg)
        counts = directed_counts(_offsets(deg * fail), subject.indices[slots],
                                 fam.sampled, fam.universe)
        return PaletteFamily(fam.sampled, fam.sampled.keep(counts <= thr), fam.universe)
    if isinstance(subject, CorrespondenceCover):
        thr = params.threshold(subject.max_color_degree() if delta_ref is None else delta_ref)
        # a color's correspondents among the sampled colors are its
        # correspondents in the cover cut down to the samples
        sampled, _ = restrict_cover(subject, fam.sampled)
        pruned = cover_rows(sampled, color_degrees(sampled) <= thr)
        return PaletteFamily(fam.sampled, pruned, fam.universe)
    raise TypeError(f"expected Graph or CorrespondenceCover, got {type(subject)!r}")


@dataclass(frozen=True)
class ConflictInstance:
    """The edges that can still be monochromatic, plus restricted palettes.

    Any proper coloring of this instance choosing colors from its lists (or
    cover) is a proper coloring of the original graph (or cover): absent
    edges cannot clash because their endpoint palettes cannot collide.
    """

    graph: Graph
    lists: ListAssignment | None = None
    cover: CorrespondenceCover | None = None


def build_conflict(g: Graph, fam: PaletteFamily,
                   cover: CorrespondenceCover | None = None) -> ConflictInstance:
    """Keep exactly the edges whose endpoint palettes can collide.

    Plain/list case: edge uv survives iff the active palettes share a color.
    Cover case: edge uv survives iff its matching restricted to the active
    palettes is nonempty; the restricted cover rides along, and a pair on a
    non-edge of g, which clashes across no edge, adds none.
    """
    active = fam.active()
    if cover is None:
        sub = g.keep(shared_edges(*g.edge_arrays(), active, fam.universe))
        return ConflictInstance(sub, lists=ListAssignment(active))
    sub, edges = restrict_cover(cover, active)
    kept = np.zeros(g.m + 1, dtype=bool)  # one flag per edge; the -1 of a non-edge sets the last
    kept[g.edge_index(*edges.T)] = True
    return ConflictInstance(g.keep(kept[:-1]), cover=sub)
