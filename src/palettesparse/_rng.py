"""Seedable, splittable randomness used across the toolkit.

Every randomized routine receives an integer seed and derives its own
independent stream with `substream(seed, *key)`, where the key is a fixed
per-purpose tag (plus indices for per-vertex streams). Draw order inside a
stream is always documented at the call site: vertices ascending, colors by
sorted palette. Identical (inputs, seed) therefore produce bit-identical
results regardless of what other streams were consumed.

Many small draws are made in one pass rather than one numpy call each.
`bounded` returns exactly the integers that one `Generator.integers(r)`
call per bound would: PCG64 hands out 32-bit outputs as the low, then the
high half of each 64-bit word of `random_raw`, and each bound r takes the
next output u to floor(u*r / 2**32), unless (u*r) mod 2**32 < 2**32 mod r
(Lemire's rejection), when it takes the output after. `choice_rows` replays
`Generator.choice(k, s, replace=False)` per row on those draws. Both leave
the generator where the per-call draws would, so this module is the only
one that reads or writes the generator's raw stream and state.
`bounded` replays the raw stream, not one `Generator.integers(bounds)` call,
for speed alone: under numpy 2.4.6 that call gives the same draws and state
(checked on 200 bound arrays, with a pending half-word and bounds of 1 and
2**32), but on a 43,500-bound `choice_rows` block (1,500 rows, s = 15) it
took 1.06 ms with int64 bounds and 5.2 ms with `_bounds`' uint64 ones,
against 0.52 ms for `bounded` (2-vCPU VM, min of 5 runs of 20 calls).
"""

from __future__ import annotations

import numpy as np

# stream tags; never reuse a tag for a second purpose
TAG_GEN = 1
TAG_PALETTE = 2
TAG_WCP = 3
TAG_LLL = 4
TAG_COVER = 5
TAG_PERMUTE = 6
TAG_SOLVE = 7

# bounded draws per pass over the raw stream (each costs a few int64 temporaries)
_CHUNK = 1 << 16
# Generator.choice shuffles a whole index range (the tail branch) instead of
# Floyd's draws when k > _TAIL_K and s > k // _TAIL_RATIO
_TAIL_K = 10000
_TAIL_RATIO = 50


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent PCG64 generator for (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def bounded(rng: np.random.Generator, bounds) -> np.ndarray:
    """int64 draws j[i] in 0..bounds[i]-1, equal to `rng.integers(b)` for
    each b in `bounds` in turn, and `rng` left where those calls leave it.

    Bounds lie in 1..2**32, the range numpy draws from one 32-bit output;
    a bound of 1 gives 0 and uses no output, as in numpy. The outputs are
    the `random_raw` words read as little-endian uint32 pairs, so the
    result does not depend on byte order; an output left pending by an
    earlier call goes to the first draw, and one left over at the end is
    left pending for the next call.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    least = bounds.min(initial=2)
    if least == 0 or bounds.max(initial=1) > 1 << 32:
        raise ValueError("bounds must lie in 1..2**32")
    live = None if least > 1 else bounds > 1
    r = bounds if live is None else bounds.compress(live)
    top = int(r.max(initial=0))
    got = np.empty(r.size, dtype=np.uint64)
    bitgen = rng.bit_generator
    state = bitgen.state
    # the outputs fetched and not used yet, in stream order
    pool = np.array([state["uinteger"]] * state["has_uint32"], dtype=np.uint32)
    p = 0
    while p < r.size:
        if not pool.size:
            words = bitgen.random_raw((min(r.size - p, _CHUNK) + 1) // 2)
            pool = words.astype("<u8", copy=False).view("<u4")
            state["uinteger"] = int(pool[-1])
        j = min(pool.size, r.size - p)
        m = np.multiply(pool[:j], r[p:p + j], out=got[p:p + j])
        # an output is rejected when (u*r) mod 2**32 < 2**32 mod r, so
        # only those with the low half below the largest bound need the
        # remainder
        bad = np.flatnonzero(m.astype(np.uint32) < top)
        bad = bad[(m[bad] & 0xFFFFFFFF) < np.uint64(1 << 32) % r[p:p + j][bad]]
        # the rejected output is spent; the redo starts at its position
        took = int(bad[0]) if bad.size else j
        np.right_shift(m, 32, out=m)
        pool = pool[took + (took < j):]
        p += took
    bitgen.state = {**bitgen.state, "has_uint32": pool.size, "uinteger": state["uinteger"]}
    if live is None:
        return got.view(np.int64)
    out = np.zeros(bounds.size, dtype=np.int64)
    out[np.flatnonzero(live)] = got
    return out


def choice_rows(rng: np.random.Generator, lens, s: int) -> np.ndarray:
    """(n, s) int64 block whose row v holds, ascending, the positions
    `rng.choice(lens[v], s, replace=False)` picks, for v = 0, 1, ... in
    turn; a row with lens[v] == s takes every position and draws nothing.

    Rows are replayed in lockstep, a chunk of rows at a time, on one
    `bounded` call per chunk. Floyd's branch (k <= 10000 or s <= k // 50)
    draws bounds k-s+1 .. k, where draw t keeps its value unless it was
    already picked and then takes k-s+t, and spends s-1 shuffle draws with
    bounds s .. 2 (rows come out sorted, so the shuffle is not replayed).
    The tail branch draws bounds k .. k-s+1 as partial Fisher-Yates swaps
    from the end of 0..k-1; they leave in the last s positions the set
    that Floyd's picks make of the same draws in reverse order (by
    induction on the first swap), so `_floyd` replays both.
    """
    lens = np.asarray(lens, dtype=np.int64)
    block = np.empty((lens.size, s), dtype=np.int64)
    block[np.flatnonzero(lens == s)] = np.arange(s)
    per = max(1, _CHUNK // (2 * s))
    for lo in range(0, lens.size, per):
        at = lo + np.flatnonzero(lens[lo:lo + per] > s)  # the rows that draw
        if not at.size:
            continue
        k = lens[at]
        tail = np.flatnonzero((k > _TAIL_K) & (s > k // _TAIL_RATIO))
        bounds = _bounds(k, s)
        if tail.size:
            # a tail row draws Floyd's bounds in reverse order and no shuffle
            bounds[tail, :s] = bounds[tail, s - 1::-1]
            bounds[tail, s:] = 1
        vals = bounded(rng, bounds.ravel()).reshape(bounds.shape)[:, :s]
        vals[tail] = vals[tail, ::-1]
        rows = _floyd(vals, k - s)
        rows.sort(axis=1)
        block[at] = rows
    return block


def _bounds(k: np.ndarray, s: int) -> np.ndarray:
    """The uint64 (g, 2s-1) block of the bounds that Floyd's branch draws
    for rows of k[i] > s positions, in stream order: k-s+1 .. k, then the
    shuffle's s .. 2 (a bound of 1 draws nothing). The row of the least k
    is written once and doubled by slice copies; only the rows of a larger
    k add their offset, as a 2-D write that numpy runs row by row."""
    g, w = k.size, 2 * s - 1
    least = int(k.min())
    flat = np.empty(g * w, dtype=np.uint64)
    flat[:s] = np.arange(least - s + 1, least + 1, dtype=np.uint64)
    flat[s:w] = np.arange(s, 1, -1, dtype=np.uint64)
    done = w
    while done < flat.size:
        step = min(done, flat.size - done)
        flat[done:done + step] = flat[:step]
        done += step
    bounds = flat.reshape(g, w)
    up = np.flatnonzero(k > least)
    if up.size:
        bounds[up, :s] += (k.take(up) - least).astype(np.uint64)[:, None]
    return bounds


def _roots(to: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Where each chain of links ends, as a flat position: to[i] is the
    earlier position that position i links to, or i itself where its chain
    stops, and `at` holds the positions that link. Pointer jumping in
    place, so O(log s) passes over the positions still linked."""
    while at.size:
        nxt = to[to[at]]
        to[at] = nxt
        at = at.compress(to[nxt] != nxt)
    return to


def _floyd(vals: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Floyd's picks from the raw draws vals[:, t] in 0..low+t. Draw t was
    already picked, and takes low+t instead, when it repeats an earlier
    draw, or when it is low+u for an earlier step u that was itself
    already picked (and so took low+u).

    Repeats show in one sort per row of keys (value, flat position).
    Masks select by multiplication, as a select or a mask index with a
    random mask is several times slower, and the sort's arrays are reused
    as they fall free. Draws lie below 2**32."""
    g, s = vals.shape
    steps = np.arange(s)
    pos = np.arange(g * s).reshape(g, s)
    bits = max(1, (g * s - 1).bit_length())
    keys = np.left_shift(vals, bits)
    keys |= pos
    keys.sort(axis=1)
    at = keys & ((1 << bits) - 1)  # the flat position of each sorted draw
    np.right_shift(keys, bits, out=keys)
    repeat = np.empty(g * s, dtype=bool)
    repeat[at.ravel()[1:]] = keys.ravel()[1:] == keys.ravel()[:-1]
    repeat[at[:, 0]] = False  # the first entry of a row
    picks = np.add(low[:, None], steps, out=keys)
    # e = low+t - vals[:, t]; with 0 < e <= t draw t is low+u for the
    # earlier step u = t-e and links to it, unless it repeats an earlier
    # draw, as then it was picked whatever u did
    e = np.subtract(picks, vals, out=at)
    linked = e <= steps
    linked &= e > 0
    linked &= ~repeat.reshape(g, s)
    to = np.subtract(pos, e * linked, out=pos).ravel()
    took = repeat[_roots(to, np.flatnonzero(linked))]
    e *= ~took.reshape(g, s)  # a draw that took low+t keeps it
    picks -= e
    return picks
