"""Batched draws against numpy's one-call-at-a-time draws.

`_rng.bounded` must equal one `Generator.integers(b)` call per bound and
leave the generator where those calls leave it; `sample_palettes` must
equal one `Generator.choice(k, s, replace=False)` call per vertex
(`oracle_sample_palettes`). Chunk sizes are drawn alongside each case, so
draws and rows fall on both sides of a chunk boundary.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import oracle_sample_palettes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palettesparse import _rng
from palettesparse._rng import TAG_COVER, TAG_LLL, bounded, choice_rows, substream
from palettesparse.cli import ConfigError, RunConfig, _build_instance
from palettesparse.cover import ListAssignment, Rows
from palettesparse.graphcore import Graph
from palettesparse.nibble import finish_lll
from palettesparse.sparsify import SharedPalette, sample_palettes

FAST = settings(max_examples=60, deadline=None)

# small bounds, bounds near 2**31 (about half of all outputs rejected) and
# up to 2**32 (every output taken as it is)
BOUNDS = st.one_of(st.integers(1, 50), st.integers(2 ** 31 - 2 ** 20, 2 ** 31 + 2 ** 20),
                   st.integers(2 ** 32 - 2 ** 20, 2 ** 32))


class TestBounded:
    @FAST
    @given(st.lists(BOUNDS, max_size=80), st.integers(0, 2 ** 32), st.booleans(),
           st.integers(1, 9))
    def test_equals_sequential_integers(self, bounds, seed, pending, chunk):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if pending:  # leave half a word for the first draw
            got_rng.integers(7)
            want_rng.integers(7)
        with mock.patch.object(_rng, "_CHUNK", chunk):
            got = bounded(got_rng, np.array(bounds, dtype=np.int64))
        assert got.tolist() == [int(want_rng.integers(b)) for b in bounds]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        # the draws after the batch are the ones after the calls
        assert got_rng.integers(2 ** 40, size=3).tolist() == \
            want_rng.integers(2 ** 40, size=3).tolist()
        assert got_rng.integers(5) == want_rng.integers(5)

    def test_rejections_are_redrawn_in_place(self):
        bounds = np.full(64, 2 ** 31 + 1)
        got_rng, want_rng = substream(3, TAG_LLL), substream(3, TAG_LLL)
        assert bounded(got_rng, bounds).tolist() == [int(want_rng.integers(b)) for b in bounds]
        # 64 draws without a rejection would use exactly 32 words
        plain = substream(3, TAG_LLL)
        plain.bit_generator.advance(32)
        assert got_rng.bit_generator.state["state"] != plain.bit_generator.state["state"]

    def test_bounds_outside_32_bits_rejected(self):
        # numpy draws these from 64-bit outputs, which are not replayed
        for bad in ([3, 0], [2 ** 32 + 1], [-1]):
            with pytest.raises(ValueError, match="1..2\\*\\*32"):
                bounded(np.random.default_rng(0), np.array(bad, dtype=np.int64))

    def test_bounds_of_one_draw_nothing(self):
        rng = np.random.default_rng(1)
        assert bounded(rng, [1, 1, 1]).tolist() == [0, 0, 0]
        assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state

    @pytest.mark.parametrize("pending", [False, True])
    def test_outputs_are_the_low_then_high_half_of_each_word(self, pending):
        # a bound of 2**32 takes each 32-bit output as it is
        rng = np.random.default_rng(11)
        if pending:  # the high half of the first word is left for the next draw
            rng.integers(7)
        start = rng.bit_generator.state
        got = bounded(rng, np.full(5, 2 ** 32))
        raw = np.random.default_rng(0)
        raw.bit_generator.state = start
        words = raw.bit_generator.random_raw(2 if pending else 3).tolist()
        halves = [h for w in words for h in (w & 0xFFFFFFFF, w >> 32)]
        assert got.tolist() == ([start["uinteger"]] * pending + halves)[:5]
        end = rng.bit_generator.state
        assert end["state"] == raw.bit_generator.state["state"]
        # one output left over stays pending; the last word's high half is
        # kept either way, as numpy keeps it
        assert (end["has_uint32"], end["uinteger"]) == (1 - pending, words[-1] >> 32)


@st.composite
def mixed_rows(draw):
    """(lens, s): rows of numpy's tail branch (k > 10000 and s > k // 50),
    Floyd rows below and above k = 10000, and rows of exactly s, in any
    order."""
    s = draw(st.integers(201, 215))
    kinds = st.one_of(st.just(s), st.integers(s + 1, s + 60), st.integers(10001, 50 * s + 49),
                      st.integers(50 * s + 50, 50 * s + 400))
    return draw(st.lists(kinds, min_size=1, max_size=6)), s


@st.composite
def palette_cases(draw):
    """(palettes, s): a SharedPalette or per-vertex ranges of mixed sizes.
    With s near 200, palettes over 10000 colors take numpy's tail branch
    (s > k // 50) or Floyd's (s <= k // 50)."""
    big = draw(st.booleans())
    s = draw(st.integers(195, 215) if big else st.integers(1, 12))
    extra = [st.just(0), st.integers(1, 40)]
    if big:
        extra.append(st.integers(10001 - s, 11000 - s))
    sizes = st.one_of(*extra).map(lambda e: s + e)
    n = draw(st.integers(0, 4 if big else 12))
    if draw(st.booleans()):
        return SharedPalette(n, draw(sizes)), s
    rows = []
    for _ in range(n):
        start, step = draw(st.integers(-1000, 1000)), draw(st.integers(1, 3))
        rows.append(range(start, start + draw(sizes) * step, step))
    return rows, s


class TestSamplePalettes:
    @FAST
    @given(palette_cases(), st.integers(0, 2 ** 32), st.integers(1, 300))
    # tail, whole-palette, large Floyd and small Floyd rows side by side
    @example(([range(10001), range(201), range(10500), range(250)], 201), 4, 300)
    @example((SharedPalette(2, 10001), 201), 1, 1 << 16)
    # s = k/2: most rows draw a position twice and swap a position with itself
    @example((SharedPalette(3, 10001), 5000), 2, 1 << 16)
    def test_equals_one_choice_per_vertex(self, case, seed, chunk):
        palettes, s = case
        with mock.patch.object(_rng, "_CHUNK", chunk):
            fam = sample_palettes(palettes, s, seed)
        assert fam.sampled == oracle_sample_palettes(palettes, s, seed)

    def test_memory_is_the_sample_block(self):
        # the n x s int64 block is 19.2 MB; the draws add a few chunk-sized
        # temporaries, not another array of n x s or of n x q
        tracemalloc.start()
        try:
            fam = sample_palettes(SharedPalette(10 ** 5, 33), 24, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.n == 10 ** 5
        assert peak <= 25 * 10 ** 6

    def test_memory_at_the_cover_finish_shape(self):
        # 1,000 lists of 64 ids, s = 48: the block and the sample are
        # 0.38 MB each, and a chunk's draws and replay add a few times that
        lists = Rows(np.arange(64000), np.arange(0, 64001, 64))
        tracemalloc.start()
        try:
            fam = sample_palettes(lists, 48, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.n == 1000
        assert peak < 4 * 10 ** 6


@FAST
@given(mixed_rows(), st.integers(0, 2 ** 32), st.sampled_from([None, 2, 1]))
# one chunk of Floyd rows longer and shorter than the first, tail rows and
# whole rows: the bounds block adds each longer row's offset
@example(([250, 10001, 202, 201, 10050, 9999, 30000, 203, 201, 10001], 201), 11, None)
def test_choice_rows_on_mixed_rows_from_a_pending_word(case, seed, rows_per_chunk):
    # rows_per_chunk None puts every row in one chunk
    lens, s = case
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got_rng.integers(7)
    want_rng.integers(7)
    with mock.patch.object(_rng, "_CHUNK", 2 * s * (rows_per_chunk or len(lens))):
        block = choice_rows(got_rng, lens, s)
    want = [sorted(want_rng.choice(k, s, replace=False).tolist()) if k > s else list(range(s))
            for k in lens]
    assert block.tolist() == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@FAST
@given(st.integers(1, 40).flatmap(lambda s: st.tuples(
    st.lists(st.integers(s + 1, s + 90) | st.integers(10001, 10100), min_size=1, max_size=9),
    st.just(s))))
def test_bounds_block_is_floyd_then_the_shuffle_per_row(case):
    # the least length's row doubled, plus each longer row's offset
    lens, s = case
    got = _rng._bounds(np.array(lens, dtype=np.int64), s)
    want = [list(range(k - s + 1, k + 1)) + list(range(s, 1, -1)) for k in lens]
    assert got.dtype == np.uint64 and got.tolist() == want


def test_choice_rows_leaves_the_stream_after_the_last_choice():
    lens = [5, 3, 40, 3, 7]
    got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
    block = choice_rows(got_rng, lens, 3)
    for row, k in zip(block.tolist(), lens):
        want = sorted(want_rng.choice(k, 3, replace=False).tolist()) if k > 3 else [0, 1, 2]
        assert row == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_finisher_first_colors_are_one_integers_call_per_vertex():
    # no edges, so the first colors are the coloring; odd n and lists of
    # one color (which draw nothing) included
    lists = [(4,), (1, 2, 3), (0, 5, 6, 9, 11), (7,), (2, 8, 10)]
    g = Graph(len(lists))
    rng = substream(6, TAG_LLL)
    want = {v: row[int(rng.integers(len(row)))] for v, row in enumerate(lists)}
    assert finish_lll(g, ListAssignment(lists), 6).coloring.assignment == want


class TestListPipeline:
    def _cfg(self, **kw):
        return RunConfig.from_dict({"instance": {"kind": "gen-bipartite", "n": 30, "delta": 3,
                                                 "seed": 1},
                                    "pipeline": "list", "q_override": 6, "s_override": 4,
                                    "instance_seed": 5, **kw})

    def test_lists_are_one_choice_per_vertex(self):
        g, params, lists = _build_instance(self._cfg(list_universe=15))
        rng = substream(5, TAG_COVER, 99)
        assert lists.lists == [sorted(rng.choice(15, size=6, replace=False).tolist())
                               for _ in range(g.n)]

    def test_universe_below_list_size_rejected(self):
        with pytest.raises(ConfigError, match="smaller than the list size 6"):
            _build_instance(self._cfg(list_universe=5))
