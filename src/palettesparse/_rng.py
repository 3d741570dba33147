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
_HALF = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(32)
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
    split from `random_raw` words with shifts and masks, so the result does
    not depend on byte order; an output left over from one chunk (or from
    an earlier call) goes to the next draw.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    if ((bounds == 0) | (bounds > 1 << 32)).any():
        raise ValueError("bounds must lie in 1..2**32")
    out = np.zeros(bounds.size, dtype=np.int64)
    if not (bounds > 1).any():
        return out
    bitgen = rng.bit_generator
    state = bitgen.state
    spare = np.array([state["uinteger"]] * state["has_uint32"], dtype=np.uint64)
    for lo in range(0, bounds.size, _CHUNK):
        live = bounds[lo:lo + _CHUNK] > 1
        r = bounds[lo:lo + _CHUNK][live]
        got = np.empty(r.size, dtype=np.uint64)
        p = 0
        while p < r.size:
            need = r.size - p
            if spare.size < need:
                words = bitgen.random_raw((need - spare.size + 1) // 2)
                state["uinteger"] = int(words[-1] >> _SHIFT)
                spare = np.concatenate((spare, np.empty(2 * words.size, dtype=np.uint64)))
                fresh = spare[spare.size - 2 * words.size:]
                np.bitwise_and(words, _HALF, out=fresh[0::2])
                np.right_shift(words, _SHIFT, out=fresh[1::2])
            m = spare[:need] * r[p:]
            np.right_shift(m, _SHIFT, out=got[p:])
            m &= _HALF
            # an output is rejected when (u*r) mod 2**32 < 2**32 mod r, so
            # only those with the low half below r need the remainder
            bad = np.flatnonzero(m < r[p:])
            bad = bad[m[bad] < np.uint64(1 << 32) % r[p:][bad]]
            # the rejected output is spent; the redo starts at its position
            j = int(bad[0]) if bad.size else need
            spare = spare[j + (j < need):]
            p += j
        out[lo:lo + _CHUNK][live] = got
    # an odd number of outputs used leaves the high half of the last word
    # pending, where the next `integers` call takes it
    bitgen.state = {**bitgen.state, "has_uint32": spare.size, "uinteger": state["uinteger"]}
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
    from the end of 0..k-1.
    """
    lens = np.asarray(lens, dtype=np.int64)
    steps = np.arange(s)
    block = np.empty((lens.size, s), dtype=np.int64)
    block[:] = steps
    per = max(1, _CHUNK // (2 * s))
    for lo in range(0, lens.size, per):
        at = lo + np.flatnonzero(lens[lo:lo + per] > s)  # the rows that draw
        if not at.size:
            continue
        k = lens[at]
        low = k[:, None] - s
        tail = (k > _TAIL_K) & (s > k // _TAIL_RATIO)
        # bounds in stream order; a bound of 1 draws nothing
        bounds = np.ones((at.size, 2 * s - 1), dtype=np.uint64)
        bounds[:, :s] = np.where(tail[:, None], k[:, None] - steps, low + 1 + steps)
        bounds[~tail, s:] = s - steps[:-1]
        vals = bounded(rng, bounds.ravel()).reshape(bounds.shape)[:, :s]
        for pick, replay in ((~tail, _floyd), (tail, _tail)):
            if pick.any():
                block[at[pick]] = replay(vals[pick], low[pick])
    block.sort(axis=1)
    return block


def _runs(vals: np.ndarray):
    """(steps, again) for each row of `vals` sorted by (value, step):
    steps[i, j] is the step of the j-th entry, and again[i, j] is True
    when its value equals the one before."""
    bits = max(1, (vals.shape[1] - 1).bit_length())
    keys = vals << bits | np.arange(vals.shape[1])
    keys.sort(axis=1)
    again = np.zeros(keys.shape, dtype=bool)
    again[:, 1:] = (keys[:, 1:] >> bits) == (keys[:, :-1] >> bits)
    return keys & ((1 << bits) - 1), again


def _roots(link: np.ndarray) -> np.ndarray:
    """The step where each chain of links ends: link[i, t] is an earlier
    step of row i, or -1 where the chain stops. Pointer jumping, so
    O(log s) passes over the steps still linked."""
    g, s = link.shape
    flat = link.ravel()
    to = np.arange(g * s)
    at = np.flatnonzero(flat >= 0)
    to[at] = to[at] - to[at] % s + flat[at]
    while at.size:
        to[at] = to[to[at]]
        at = at[flat[to[at]] >= 0]
    return (to % s).reshape(g, s)


def _floyd(vals: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Floyd's picks from the raw draws vals[:, t] in 0..low+t. Draw t was
    already picked, and takes low+t instead, when it repeats an earlier
    draw, or when it is low+u for an earlier step u that was itself
    already picked (and so took low+u)."""
    g, s = vals.shape
    rows = np.arange(g)[:, None]
    steps, again = _runs(vals)
    repeat = np.zeros(vals.shape, dtype=bool)
    repeat[rows, steps] = again
    back = vals - low
    link = np.where((back >= 0) & (back < np.arange(s)) & ~repeat, back, -1)
    return np.where(repeat[rows, _roots(link)], low + np.arange(s), vals)


def _tail(vals: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The positions k-s..k-1 hold after step t swaps position k-1-t with
    draw vals[:, t]. Only draws move values: step t takes the value its
    draw's position got at the last earlier step that drew it (or that
    position itself), and gives that position the value position k-1-t
    held, which came the same way from the last earlier step that drew
    k-1-t (or is k-1-t itself)."""
    g, s = vals.shape
    rows = np.arange(g)[:, None]
    steps, again = _runs(vals)
    # the last earlier step with the same draw
    prev = np.full(vals.shape, -1)
    prev[rows, steps[:, 1:]] = np.where(again[:, 1:], steps[:, :-1], -1)
    # the last earlier step that drew k-1-t; a draw of v is made at a step
    # no later than k-1-v, so it is the last step drawing v, unless that
    # is step k-1-v itself
    last = np.ones(vals.shape, dtype=bool)
    last[:, :-1] = ~again[:, 1:]
    v = np.take_along_axis(vals, steps, axis=1)
    own = low + s - 1 - v
    before = np.where(steps == own, prev[rows, steps], steps)
    drew = np.full(vals.shape, -1)
    hit = last & (v >= low)
    drew[np.broadcast_to(rows, hit.shape)[hit], own[hit]] = before[hit]
    held = low + s - 1 - _roots(drew)  # what position k-1-t holds at step t
    return np.where(prev >= 0, held[rows, prev], vals)
