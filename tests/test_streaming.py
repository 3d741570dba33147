import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import random_graph, rng_for

from palettesparse import nibble, streaming
from palettesparse._rng import TAG_PERMUTE, substream
from palettesparse.cover import (
    CorrespondenceCover,
    ListAssignment,
    Rows,
    cover_from_lists,
    restrict_cover,
)
from palettesparse.graphcore import Graph, gen_bipartite, gen_locally_sparse
from palettesparse.nibble import verify_coloring
from palettesparse.sparsify import (
    SharedPalette,
    build_conflict,
    derive_params,
    manual_params,
    prune,
    sample_palettes,
)
from palettesparse.streaming import (
    EdgeStream,
    SpaceCapExceeded,
    stream_color,
)


def params_for(delta, n, q, s, epsilon=1.0):
    return derive_params(delta, n, 1, 0.5, 0.1, epsilon).with_overrides(q=q, s=s)


class TestRetention:
    def test_disjoint_palettes_store_nothing(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        params = params_for(2, 4, 40, 2)
        # seed chosen so the four 2-subsets of a 40-color palette are disjoint
        seed = next(
            s for s in range(100)
            if len({c for row in sample_palettes(SharedPalette(4, 40), 2, s).sampled
                    for c in row}) == 8
        )
        out = stream_color(EdgeStream.from_graph(g), 4, params, seed)
        assert out.ledger.stored_edges == 0
        assert out.success
        # every vertex keeps its own sampled colors
        assert all(
            out.coloring.assignment[v] in out.family.sampled[v] for v in range(4)
        )

    def test_stored_set_equals_offline_conflicts(self):
        rng = rng_for(7)
        for trial in range(8):
            g = random_graph(rng, 40, 0.2)
            params = params_for(10, 40, 12, 4)
            seed = int(rng.integers(10 ** 6))
            out = stream_color(EdgeStream.from_graph(g), g.n, params, seed)
            fam = sample_palettes(SharedPalette(g.n, 12), 4, seed)
            offline = set(build_conflict(g, fam).graph.edges())
            assert set(out.stored) == offline

    def test_order_invariance(self):
        g = gen_locally_sparse(60, 6, 20, seed=3)
        params = params_for(6, 60, 8, 4)
        outs = [
            stream_color(EdgeStream.from_graph(g, permute_seed=ps), g.n, params, seed=9)
            for ps in (None, 1, 2)
        ]
        base = outs[0]
        for out in outs[1:]:
            assert set(out.stored) == set(base.stored)
            assert out.family.pruned == base.family.pruned
            assert out.ledger == base.ledger


class TestStreamArrays:
    @pytest.mark.parametrize("permute_seed", [0, 1, 7])
    def test_permutation_is_the_list_shuffle(self, permute_seed):
        # the stream shuffles row indices; a list of the records shuffled by
        # the same generator must come out in the same order
        g = gen_locally_sparse(80, 6, 15, seed=4)
        records = list(g.edges())
        substream(permute_seed, TAG_PERMUTE).shuffle(records)
        assert EdgeStream.from_graph(g, permute_seed).records == tuple(records)
        assert EdgeStream.from_graph(g).records == tuple(g.edges())

    @pytest.mark.parametrize("permute_seed", [None, 3])
    @pytest.mark.parametrize("g", [Graph(4, []), gen_locally_sparse(40, 5, 10, seed=2)],
                             ids=["m=0", "m>0"])
    def test_from_graph_is_the_checked_stream_of_its_records(self, g, permute_seed):
        # built without a second edge check, and equal to the validating
        # constructor's stream of the same shuffled records
        records = list(g.edges())
        if permute_seed is not None:
            substream(permute_seed, TAG_PERMUTE).shuffle(records)
        with mock.patch.object(streaming, "check_pairs",
                               side_effect=AssertionError("edges checked again")):
            got = EdgeStream.from_graph(g, permute_seed)
        want = EdgeStream(g.n, records)
        assert (got.n, got.lists) == (want.n, want.lists)
        for name in ("ends", "pair_record", "pairs"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.shape, a.dtype, a.flags.writeable) == (b.shape, b.dtype, b.flags.writeable)
            assert np.array_equal(a, b), name

    def test_stream_and_pass_memory_are_arrays(self):
        # m ~ 10^5: the stream holds its (m, 2) ends array and no record
        # tuples (56 bytes each before their ints, 3.5 times the ends); the
        # pass peaks within a bound set by the ends and the n*s palette block
        g = gen_bipartite(6250, 32, seed=0)
        params = manual_params(32, 0.1, 1.0, q=33, s=8)
        ends_bytes, block_bytes = 16 * g.m, 8 * g.n * params.s
        tracemalloc.start()
        try:
            stream = EdgeStream.from_graph(g, permute_seed=0)
            held = tracemalloc.get_traced_memory()[0]
            out = stream_color(stream, g.n, params, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m > 99_000 and out.success
        assert held < 2 * ends_bytes < g.m * sys.getsizeof((g.n - 2, g.n - 1))
        assert peak < 16 * ends_bytes + 4 * block_bytes
        assert isinstance(out.stored, Rows) and len(out.stored) == out.ledger.stored_edges


class TestLedger:
    def test_word_model(self):
        g = Graph(3, [(0, 1), (1, 2)])
        params = params_for(2, 3, 4, 2)
        out = stream_color(EdgeStream.from_graph(g), 3, params, seed=0)
        led = out.ledger
        assert led.palette_words == 3 * 2
        assert led.counter_words == 3 * 2
        assert led.peak_words == led.palette_words + led.counter_words + 2 * led.stored_edges
        assert led.peak_words >= 2 * led.stored_edges + led.palette_words

    def test_space_cap_signals(self):
        g = random_graph(rng_for(1), 30, 0.5)
        params = params_for(20, 30, 4, 3)
        with pytest.raises(SpaceCapExceeded):
            stream_color(EdgeStream.from_graph(g), g.n, params, seed=1, space_cap=180)

    def test_peak_monotone(self):
        g = random_graph(rng_for(2), 25, 0.4)
        params = params_for(12, 25, 8, 4)
        out = stream_color(EdgeStream.from_graph(g), g.n, params, seed=4)
        assert out.ledger.peak_words == out.ledger.total()


class TestEndToEnd:
    def test_coloring_proper_on_full_graph(self):
        rng = rng_for(12)
        successes = 0
        for trial in range(10):
            g = random_graph(rng, 50, 0.15)
            delta = max(len(g.neighbors(v)) for v in range(g.n))
            params = params_for(delta, 50, delta + 1, min(delta + 1, 6))
            out = stream_color(EdgeStream.from_graph(g), g.n, params,
                               seed=trial)
            if out.success:
                successes += 1
                la = ListAssignment(out.family.pruned)
                assert verify_coloring(g, la, out.coloring).ok
        assert successes >= 7

    def test_delta_from_stream_variant(self):
        g = gen_locally_sparse(40, 5, 10, seed=6)
        params = params_for(5, 40, 6, 3)
        out = stream_color(EdgeStream.from_graph(g), g.n, params, seed=2,
                           delta_from_stream=True)
        assert out.ledger.counter_words == 40 * 3 + 40  # degree counters cost n


class TestCorrespondenceStreaming:
    def test_empty_matchings_store_nothing(self):
        g = Graph(4, [(0, 1), (2, 3)])
        from palettesparse.cover import CorrespondenceCover

        cov = CorrespondenceCover(
            [tuple(range(3 * v, 3 * v + 3)) for v in range(4)], {}
        )
        params = params_for(2, 4, 3, 2)
        out = stream_color(
            EdgeStream.from_cover(g, cov), 4, params, seed=1
        )
        assert out.ledger.stored_edges == 0 and out.ledger.matching_words == 0
        assert out.success
        assert verify_coloring(g, cov, out.coloring).ok

    def test_canonical_cover_matches_plain_run(self):
        # the canonical embedding samples the same index draws, so retention
        # and ledgers line up with the plain pipeline edge for edge
        g = gen_locally_sparse(30, 5, 10, seed=8)
        q, s = 8, 4
        params = params_for(5, 30, q, s)
        plain = stream_color(EdgeStream.from_graph(g), g.n, params, seed=5)
        full = ListAssignment(tuple(tuple(range(q)) for _ in range(g.n)))
        cov = cover_from_lists(g, full)
        corr = stream_color(
            EdgeStream.from_cover(g, cov), g.n, params, seed=5
        )
        assert {(u, v) for u, v in plain.stored} == {(u, v) for u, v, _ in corr.stored}
        if corr.success:
            from palettesparse.nibble import PartialColoring

            # cover id c is list entry c, named by the lists' values
            names = full.lists.values.tolist()
            mapped = PartialColoring(
                {v: names[c] for v, c in corr.coloring.assignment.items()}
            )
            pulled = ListAssignment(tuple(
                tuple(sorted(names[c] for c in row))
                for row in corr.family.pruned
            ))
            assert verify_coloring(g, pulled, mapped).ok

    def test_held_cover_is_the_stream_covers_cut(self):
        # pairs that come unsorted, one record turned round: with every
        # color sampled, the cover handed to build_conflict is the stream's
        # cover cut down to the samples, each record's pairs in record
        # order, and holds the matchings the dict constructor builds
        lists = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        records = ((0, 1, ((2, 5), (0, 3), (1, 4))), (2, 1, ((8, 3), (6, 5), (7, 4))))
        stream = EdgeStream(3, records, lists)
        with mock.patch.object(nibble, "build_conflict", wraps=build_conflict) as spy:
            out = stream_color(stream, 3, params_for(2, 3, 3, 3), seed=0)
        held = spy.call_args.kwargs["cover"]
        cut, _ = restrict_cover(stream.cover, out.family.sampled)
        assert held.lists == cut.lists
        for name in ("colors", "eu", "ev", "ra", "rb", "lists"):
            assert np.array_equal(getattr(held.arrays, name), getattr(cut.arrays, name))
        want = CorrespondenceCover(lists, {(u, v): pairs for u, v, pairs in records})
        assert {e: tuple(sorted(p)) for e, p in held.matchings.items()} == want.matchings
        assert held.matchings == {(0, 1): ((2, 5), (0, 3), (1, 4)),
                                  (1, 2): ((3, 8), (5, 6), (4, 7))}

    @pytest.mark.parametrize("kind", ["plain", "cover"])
    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_held_graph_is_the_graph_of_the_stored_edges(self, kind, capped, seed):
        # the stored edges come in stream order; the held graph, built from
        # their sorted keys, is the validated Graph of them array for array
        g = random_graph(rng_for(seed), 24, 0.3)
        params = params_for(8, g.n, 6, 3)
        if kind == "plain":
            stream = EdgeStream.from_graph(g, permute_seed=seed)
        else:
            full = ListAssignment(tuple(tuple(range(6)) for _ in range(g.n)))
            stream = EdgeStream.from_cover(g, cover_from_lists(g, full), permute_seed=seed)
        cap = stream_color(stream, g.n, params, seed=seed).ledger.peak_words if capped else None
        with mock.patch.object(nibble, "build_conflict", wraps=build_conflict) as spy:
            out = stream_color(stream, g.n, params, seed=seed, space_cap=cap)
        held = spy.call_args.args[0]
        ends = out.stored.values.reshape(-1, 2) if kind == "plain" else out.stored.ends
        want = Graph(g.n, ends)
        assert held.m == len(ends) > 0
        for got, expected in ((held.indptr, want.indptr), (held.indices, want.indices),
                              *zip(held.edge_arrays(), want.edge_arrays())):
            assert np.array_equal(got, expected)

    def test_cover_prunes_at_the_a_priori_delta(self):
        # color 1 has two correspondents on the path 0-1-2; at the a-priori
        # delta 1 the threshold is 1 + gamma' < 2, so it goes, although the
        # held cover's own max color degree (2) would keep it
        records = ((0, 1, ((0, 1),)), (1, 2, ((1, 2),)))
        out = stream_color(EdgeStream(3, records, ((0,), (1,), (2,))), 3,
                           manual_params(1, 0.1, 1.0, q=1, s=1), seed=0)
        assert out.family.pruned == ((0,), (), (2,))
        assert out.error == "a vertex lost every sampled color in pruning"

    @pytest.mark.parametrize("record", [
        (0, 1, ((2, 12), (0, 10), (1, 11))),
        (1, 0, ((12, 2), (10, 0), (11, 1))),
    ])
    def test_stored_record_keeps_its_pairs_in_record_order(self, record):
        # s = 3 samples every color, so every pair stays; the stored record
        # is turned to u < v with its pairs, which keep the record's order
        out = stream_color(EdgeStream(2, (record,), ((0, 1, 2), (10, 11, 12))),
                           2, manual_params(1, 0.1, 1.0, q=3, s=3), seed=0)
        assert out.stored.records == ((0, 1, ((2, 12), (0, 10), (1, 11))),)

    def test_cover_delta_from_stream(self):
        # the observed max degree, not the a-priori delta 4, sets the
        # threshold, for n more counter words
        g = random_graph(rng_for(3), 30, 0.3)
        cov = cover_from_lists(g, ListAssignment(tuple(tuple(range(6)) for _ in range(g.n))))
        params = params_for(4, g.n, 6, 3)
        stream = EdgeStream.from_cover(g, cov, permute_seed=1)
        base = stream_color(stream, g.n, params, seed=4)
        out = stream_color(stream, g.n, params, seed=4, delta_from_stream=True)
        assert out.ledger.counter_words == base.ledger.counter_words + g.n
        fam = sample_palettes(cov.lists, params.s, 4)
        delta = int(g.degrees().max())
        assert out.family.pruned == prune(cov, fam, params, delta_ref=delta).pruned
        assert out.family.pruned != base.family.pruned

    def test_matching_words_capped_by_sample_size(self):
        g = random_graph(rng_for(9), 20, 0.4)
        full = ListAssignment(tuple(tuple(range(6)) for _ in range(g.n)))
        cov = cover_from_lists(g, full)
        params = params_for(10, 20, 6, 3)
        out = stream_color(
            EdgeStream.from_cover(g, cov), g.n, params, seed=3
        )
        for u, v, pairs in out.stored:
            assert len(pairs) <= params.s
        assert out.ledger.matching_words == 2 * sum(len(p) for _, _, p in out.stored)

    @pytest.mark.parametrize("records, witness", [
        (((0, 1), (1, 0), (1, 2)), "record 1 (1, 0) repeats the edge of record 0"),
        (((0, 1), (2, 2)), "record 1 (2, 2) is a self-loop"),
        (((0, 3),), "record 0 (0, 3) has a vertex id outside 0..2"),
        (((0, 1), (-1, 2)), "record 1 (-1, 2) has a vertex id outside 0..2"),
        (((0, 1, ((0, 2),)), (0, 1, ())), "record 1 (0, 1) repeats the edge of record 0"),
    ])
    def test_in_memory_stream_rejects_bad_records(self, records, witness):
        # cover records come with lists: vertex v owns the colors 2v, 2v + 1
        lists = ((0, 1), (2, 3), (4, 5)) if len(records[0]) > 2 else None
        with pytest.raises(ValueError, match=re.escape(witness)):
            stream_color(EdgeStream(3, records, lists), 3, params_for(2, 3, 4, 4), seed=0)

    @pytest.mark.parametrize("records, witness", [
        (((0.5, 1),), "record 0 (0.5, 1)"),
        (np.array([[0, 1], [2, 0.5]]), "record 0 [0.0, 1.0]"),
        (((0, 1), (2,)), "record 1 (2,)"),
        (((0, 1, (), 7),), "record 0 (0, 1, (), 7)"),
        (((0, 1, 5),), "record 0 (0, 1, 5)"),
        (np.array([0, 1]), "record 0 0"),
        (np.array([[0, 1, 2]]), "record 0 [0, 1, 2]"),
        (((0, 1, ((0, 2, 3),)),), "record 0 (0, 1, ((0, 2, 3),))"),
        (((0, 1), (1, 2, ((2, 4.0),))), "record 1 (1, 2, ((2, 4.0),))"),
        ((("01", 2),), "record 0 ('01', 2)"),
        (((0, 2 ** 70),), f"record 0 (0, {2 ** 70})"),  # ids outside int64
        (((0, 1, ((2 ** 70, 2),)),), f"record 0 (0, 1, (({2 ** 70}, 2),))"),
        (((0, 1), (-2 ** 63 - 1, 2)), f"record 1 ({-2 ** 63 - 1}, 2)"),
    ])
    def test_in_memory_stream_rejects_malformed_records(self, records, witness):
        # ids that are not integers, and records or pairs of the wrong
        # size; vertex v owns the colors 2v, 2v + 1
        message = f"stream {witness} is not (u, v) or (u, v, pairs) of integer ids"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EdgeStream(3, records, ((0, 1), (2, 3), (4, 5)))

    def test_requires_cover_lists(self):
        with pytest.raises(ValueError, match="cover records need the stream's cover lists"):
            EdgeStream(2, ((0, 1, ((0, 2),)),))

    @pytest.mark.parametrize("n, rows, witness", [
        (4, None, "stream has 6 vertices, but n is 4"),
        (8, None, "stream has 6 vertices, but n is 8"),
        (4, 6, "stream has 6 vertices, but n is 4"),
        (8, 6, "stream has 6 vertices, but n is 8"),
        (6, 5, "stream's cover lists have 5 rows, but n is 6"),
        (6, 7, "stream's cover lists have 7 rows, but n is 6"),
    ])
    def test_pass_rejects_a_stream_of_another_size(self, n, rows, witness):
        # a 6-vertex stream, plain or with cover lists of `rows` rows
        # (vertex v owning the colors 2v, 2v + 1)
        edges = ((0, 1), (1, 2), (3, 4), (4, 5))
        if rows is None:
            stream = EdgeStream(6, edges)
        else:
            records = ((0, 1, ((0, 2),)),) + tuple((u, v, ()) for u, v in edges[1:])
            lists = tuple((2 * v, 2 * v + 1) for v in range(rows))
            stream = EdgeStream(6, records, lists)
        with pytest.raises(ValueError, match=re.escape(witness)):
            stream_color(stream, n, params_for(2, n, 4, 2), seed=0)
