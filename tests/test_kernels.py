"""Differential tests: the sparsification kernels against naive oracles.

Stream and edge-survival chunk sizes are drawn alongside each instance, so
records and edges fall on both sides of a chunk boundary.
"""

from unittest import mock

import numpy as np
import pytest
from conftest import (
    oracle_conflict_counts,
    oracle_prune,
    oracle_stream_retention,
    oracle_surviving_edges,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from palettesparse import sparsify, streaming
from palettesparse.graphcore import Graph
from palettesparse.sparsify import (
    PaletteFamily,
    SharedPalette,
    build_conflict,
    conflict_counts,
    manual_params,
    packed_masks,
    prune,
    prune_by_counts,
    sample_palettes,
    surviving_edges,
)
from palettesparse.streaming import EdgeStream, SpaceCapExceeded, stream_color

FAST = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def rows_over(draw, n, q, ragged):
    """n rows over 0..q-1: all of one size s (s = q allowed) or ragged."""
    if ragged:
        return [tuple(sorted(draw(st.sets(st.integers(0, q - 1), max_size=q))))
                for _ in range(n)]
    s = draw(st.integers(1, q))
    return [tuple(sorted(draw(st.sets(st.integers(0, q - 1), min_size=s, max_size=s))))
            for _ in range(n)]


@st.composite
def instances(draw, max_q=10):
    g = draw(graphs())
    q = draw(st.integers(1, max_q))
    rows = draw(rows_over(g.n, q, draw(st.booleans())))
    return g, q, rows


class TestConflictCounts:
    @FAST
    @given(instances())
    def test_matches_oracle(self, inst):
        g, q, rows = inst
        us, vs = g.edge_arrays()
        counts = conflict_counts(us, vs, rows, q)
        assert counts.shape == (g.n, q)
        assert counts.tolist() == oracle_conflict_counts(g, rows, q)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_edge_counts_around_the_chunk(self, extra):
        # one color per row: a chunk holds _CHUNK_KEYS endpoint keys, so
        # _CHUNK_KEYS // 2 edges fill it exactly
        n = 257
        m = sparsify._CHUNK_KEYS // 2 + extra
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)][:m]
        g = Graph(n, edges)
        rows = [(v % 2,) for v in range(n)]
        us, vs = g.edge_arrays()
        assert conflict_counts(us, vs, rows, 2).tolist() == oracle_conflict_counts(g, rows, 2)

    def test_full_palette_counts_are_degrees(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        rows = [tuple(range(4))] * 5
        us, vs = g.edge_arrays()
        counts = conflict_counts(us, vs, rows, 4)
        degrees = [g.degree(v) for v in range(5)]
        assert counts.tolist() == [[d] * 4 for d in degrees]


class TestPruneByCounts:
    @FAST
    @given(instances(), st.floats(-1.0, 12.0))
    def test_matches_oracle(self, inst, thr):
        g, q, rows = inst
        us, vs = g.edge_arrays()
        pruned = prune_by_counts(rows, conflict_counts(us, vs, rows, q), thr)
        assert pruned == oracle_prune(g, rows, thr)

    @FAST
    @given(graphs(), st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=6,
                              unique=True), st.data())
    def test_arbitrary_color_ids_through_prune(self, g, pool, data):
        rows = [tuple(sorted(data.draw(st.sets(st.sampled_from(pool)))))
                for _ in range(g.n)]
        d_ref = data.draw(st.integers(0, 6))
        params = manual_params(6, 0.1, 1.0, q=8, s=4)
        out = prune(g, PaletteFamily(tuple(rows)), params, delta_ref=d_ref)
        thr = (1.0 + params.gamma_prime) * params.s * d_ref / params.q
        assert out.pruned == oracle_prune(g, rows, thr)
        conflict = build_conflict(g, out)
        assert list(conflict.graph.edges()) == oracle_surviving_edges(g, out.pruned)


class TestSurvivingEdges:
    @FAST
    @given(graphs(), st.integers(1, 200), st.integers(1, 8), st.data())
    def test_matches_oracle(self, g, q, chunk_keys, data):
        rows = data.draw(rows_over(g.n, q, True))
        us, vs = g.edge_arrays()
        with mock.patch.object(sparsify, "_CHUNK_KEYS", chunk_keys):
            hit = surviving_edges(us, vs, packed_masks(rows, q))
        kept = list(zip(us[hit].tolist(), vs[hit].tolist()))
        assert kept == oracle_surviving_edges(g, rows)

    @FAST
    @given(st.integers(1, 200), st.data())
    def test_packed_bits(self, q, data):
        rows = data.draw(rows_over(data.draw(st.integers(0, 6)), q, True))
        masks = packed_masks(rows, q)
        assert masks.dtype == np.uint64 and masks.shape == (len(rows), (q + 63) // 64)
        for v, row in enumerate(rows):
            bits = [c for c in range(masks.shape[1] * 64)
                    if int(masks[v, c >> 6]) >> (c & 63) & 1]
            assert bits == list(row)

    def test_edgeless_graph(self):
        g = Graph(3)
        us, vs = g.edge_arrays()
        assert surviving_edges(us, vs, packed_masks([(0,), (0,), (1,)], 2)).size == 0


class TestStreamedAgainstOffline:
    @FAST
    @given(graphs(max_n=10), st.integers(1, 8), st.data())
    def test_retention_ledger_and_cap(self, g, q, data):
        s = data.draw(st.integers(1, q))
        seed = data.draw(st.integers(0, 10 ** 6))
        order = data.draw(st.permutations(range(g.m)))
        flips = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
        edges = list(g.edges())
        records = tuple(edges[i][::-1] if f else edges[i] for i, f in zip(order, flips))
        stream = EdgeStream(g.n, records)
        from_stream = data.draw(st.booleans())
        params = manual_params(max(1, q // 2), 0.1, 1.0, q=q, s=s)
        base = 2 * g.n * s + (g.n if from_stream else 0)
        chunk = data.draw(st.integers(1, 5))
        fam = sample_palettes(SharedPalette(g.n, q), s, seed)
        stored, peak, _ = oracle_stream_retention(records, fam.sampled, base, None)
        cap = base + data.draw(st.integers(-1, 2 * len(stored) + 1))
        _, _, message = oracle_stream_retention(records, fam.sampled, base, cap)

        with mock.patch.object(streaming, "_RECORDS_PER_CHUNK", chunk):
            out = stream_color(stream, g.n, params, seed, policy="greedy",
                               delta_from_stream=from_stream)
            if message:
                with pytest.raises(SpaceCapExceeded) as err:
                    stream_color(stream, g.n, params, seed, space_cap=cap,
                                 policy="greedy", delta_from_stream=from_stream)
                assert str(err.value) == message
            else:
                stream_color(stream, g.n, params, seed, space_cap=cap,
                             policy="greedy", delta_from_stream=from_stream)
        assert list(out.stored) == stored
        assert out.ledger.peak_words == peak
        assert set(stored) == set(build_conflict(g, fam).graph.edges())
        delta_ref = max((g.degree(v) for v in range(g.n)), default=0) if from_stream else None
        assert out.family.pruned == prune(g, fam, params, delta_ref=delta_ref).pruned
