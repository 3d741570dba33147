import re
from unittest import mock

import numpy as np
import pytest
from conftest import (
    broken_covers,
    oracle_cover_colorings,
    oracle_list_colorings,
    oracle_random_cover,
    oracle_validate_cover,
    random_covers,
    random_cover_for,
    random_graph,
    random_lists,
    rng_for,
    save_cover,
)

from hypothesis import example, given, settings
from hypothesis import strategies as st

from palettesparse import cover
from palettesparse._rng import substream
from palettesparse.cover import (
    CorrespondenceCover,
    CoverError,
    ListAssignment,
    Rows,
    color_degrees,
    cover_from_lists,
    cover_sparsity,
    load_cover,
    random_cover,
    validate_cover,
)
from palettesparse.graphcore import Graph, local_sparsity, max_degree
from palettesparse.nibble import PartialColoring, _Instance, solve, verify_coloring


def edge_graph():
    return Graph(2, [(0, 1)])


class TestValidateCover:
    def test_identity_cover_valid(self):
        cov = CorrespondenceCover([(1, 2), (3, 4)], {(0, 1): [(1, 3), (2, 4)]})
        assert validate_cover(edge_graph(), cov).ok

    def test_color_matched_twice_is_cc3_violation(self):
        cov = CorrespondenceCover([(1, 2), (3, 4)], {(0, 1): [(1, 3), (1, 4)]})
        rep = validate_cover(edge_graph(), cov)
        assert not rep.cc3_matchings and rep.cc1_partition
        assert rep.witness is not None

    def test_shared_color_id_is_cc1_violation(self):
        cov = CorrespondenceCover([(1, 2), (2, 4)], {})
        rep = validate_cover(edge_graph(), cov)
        assert not rep.cc1_partition

    def test_matching_on_non_edge_is_cc3_violation(self):
        g = Graph(3, [(0, 1)])
        cov = CorrespondenceCover([(1,), (2,), (3,)], {(0, 2): [(1, 3)]})
        assert not validate_cover(g, cov).cc3_matchings

    def test_color_twice_in_one_list_is_cc1_violation(self):
        cov = CorrespondenceCover([(1, 1, 2), (3, 4)], {(0, 1): [(1, 3)]})
        rep = validate_cover(edge_graph(), cov)
        assert not rep.cc1_partition and rep.cc2_lists_independent and rep.cc3_matchings
        assert rep.witness == "color 1 appears twice in the list of vertex 0"

    def test_pair_inside_one_list_is_cc2_violation(self):
        cov = CorrespondenceCover([(1, 2), (3,)], {(0, 1): [(1, 2)]})
        rep = validate_cover(edge_graph(), cov)
        assert not rep.cc2_lists_independent

    def test_random_covers_valid(self):
        rng = rng_for(8)
        for _ in range(15):
            g = random_graph(rng, 10, 0.4)
            cov = random_cover_for(rng, g, 4, 0.6)
            assert validate_cover(g, cov).ok

    def test_pair_leaving_the_lists_is_cc3_violation(self):
        cov = CorrespondenceCover([(1, 2), (3, 4)], {(0, 1): [(1, 5)]})
        rep = validate_cover(edge_graph(), cov)
        assert rep.cc1_partition and not rep.cc3_matchings
        assert rep.witness == "pair (1, 5) on edge (0, 1) leaves the lists"

    @settings(max_examples=200, deadline=None)
    @given(random_covers() | broken_covers())
    def test_matches_the_loop(self, inst):
        # same flags and the same first witness, valid or broken
        g, cov = inst
        assert validate_cover(g, cov) == oracle_validate_cover(g, cov)


class TestMalformedMatchings:
    """The dict constructor names the edge whose key or pairs are not two
    integer ids each, instead of misreading or truncating them."""

    @pytest.mark.parametrize("edge, pairs", [
        ((0, 1), ((0, 1, 2), (3, 4))),  # read as the pairs (0, 1), (2, 3)
        ((1, 0), ((0, 1, 2), (3, 4))),  # "too many values to unpack" when turned
        ((0, 1), ((0.5, 1),)),  # truncated to (0, 1)
        ((0, 1), ((0, 2), 3)),
        ((0, 1), 5),
        ((0,), ((0, 1),)),
        ((0, 1.0), ((0, 2),)),
        ((0, 1), ((2 ** 70, 2),)),  # ids outside int64
        ((0, 2 ** 70), ((0, 2),)),
        ((0, 1), ((0, -2 ** 63 - 1),)),
    ])
    def test_rejects_naming_the_edge(self, edge, pairs):
        message = f"matching {edge!r}: {pairs!r} is not an edge (u, v) with (a, b) pairs, all " \
            "integer ids"
        with pytest.raises(CoverError, match=f"^{re.escape(message)}$"):
            CorrespondenceCover([(0, 1), (2, 3)], {edge: pairs})

    @pytest.mark.parametrize("matchings", [
        {(0, 1): ((0, 1),), (1, 0): ((3, 2),)},
        {(1, 0): ((3, 2),), (0, 1): ((0, 1),)},
        {(1, 0): ((3, 2),), (np.int32(0), np.int32(1)): ((0, 1),)},  # named by Python ints
    ])
    def test_rejects_an_edge_keyed_both_ways_round(self, matchings):
        with pytest.raises(CoverError, match=r"^duplicate matching for edge \(0, 1\)$"):
            CorrespondenceCover([(0, 2), (1, 3)], matchings)

    def test_rejects_a_list_id_outside_int64_naming_its_row(self):
        with pytest.raises(ValueError, match="^row 1 holds an id outside int64$"):
            CorrespondenceCover([(0, 1), (2, 2 ** 70)], {})

    def test_takes_numpy_ids(self):
        pairs = [(3, 0), (np.int64(2), 1)]
        cov = CorrespondenceCover([(0, 1), (2, 3)], {(np.int32(1), 0): pairs})
        assert cov.matchings == {(0, 1): ((0, 3), (1, 2))}


class TestRank:
    """`CoverArrays.rank` takes ids 0..C-1 as their own ranks and searches
    any other colors; both raise on an id the cover lacks."""

    def test_identity_colors(self):
        arrays = random_cover(Graph(3, [(0, 1), (1, 2)]), 4, 0.5, seed=1).arrays
        assert arrays.colors.tolist() == list(range(12))
        assert arrays.rank([11, 0, 5]).tolist() == [11, 0, 5]
        for bad in (-1, 12, 2 ** 40):
            with pytest.raises(CoverError, match=f"color {bad} is not a color"):
                arrays.rank([0, bad])

    @pytest.mark.parametrize("lists", [[(5, 7), (9,)], [(0, 2), (3,)], [(-4, 0), (1,)]])
    def test_searched_colors(self, lists):
        arrays = CorrespondenceCover(lists, {}).arrays
        ids = [c for row in lists for c in row]
        assert arrays.rank(ids[::-1]).tolist() == list(range(len(ids)))[::-1]
        lacking = sorted(set(range(min(ids) - 1, max(ids) + 2)) - set(ids))
        for bad in lacking:
            with pytest.raises(CoverError, match=f"color {bad} is not a color"):
                arrays.rank(np.array([ids[0], bad]))


class TestRandomCover:
    """`random_cover` against the per-edge loop it replays: the same seven
    arrays and the generator left in the same state."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10), st.floats(0.0, 1.0), st.integers(0, 2 ** 16),
           st.integers(0, 8) | st.sampled_from([64, 100]),
           st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 0.4, 0.6]),
           st.integers(0, 2 ** 16), st.sampled_from([cover._DRAW_BLOCK, 1, 5, 16]))
    # m = 0 on n <= 2, and one edge
    @example(0, 0.5, 0, 3, 0.5, 1, cover._DRAW_BLOCK)
    @example(1, 0.5, 0, 3, 0.5, 1, cover._DRAW_BLOCK)
    @example(2, 0.0, 0, 3, 0.5, 1, cover._DRAW_BLOCK)
    @example(2, 1.0, 0, 3, 0.5, 1, cover._DRAW_BLOCK)
    # one color per list; no pairs and a full matching
    @example(6, 0.6, 1, 1, 0.5, 2, cover._DRAW_BLOCK)
    @example(6, 0.6, 1, 4, 0.0, 2, cover._DRAW_BLOCK)
    @example(6, 0.6, 1, 4, 1.0, 2, cover._DRAW_BLOCK)
    # numpy's 1 - p branch, and its BTPE branch (list_size * min(p, 1 - p) > 30)
    @example(6, 0.6, 1, 8, 0.7, 2, cover._DRAW_BLOCK)
    @example(6, 0.6, 1, 100, 0.4, 2, cover._DRAW_BLOCK)
    @example(6, 0.6, 1, 100, 0.6, 2, cover._DRAW_BLOCK)
    # many blocks of edges: one edge a block, and two
    @example(10, 0.6, 1, 5, 0.5, 2, 1)
    @example(10, 0.6, 1, 4, 0.5, 2, 16)
    def test_replays_the_per_edge_loop(self, n, p, graph_seed, list_size, density, seed, block):
        g = random_graph(rng_for(graph_seed), n, p)
        made = []

        def spy(*key):
            made.append(substream(*key))
            return made[-1]

        with mock.patch.object(cover, "substream", spy), \
                mock.patch.object(cover, "_DRAW_BLOCK", block):
            got = random_cover(g, list_size, density, seed)
        want, rng = oracle_random_cover(g, list_size, density, seed)
        assert got.lists == want.lists
        for name in ("colors", "eu", "ev", "ra", "rb", "lists"):
            a, b = getattr(got.arrays, name), getattr(want.arrays, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
        assert made[0].bit_generator.state == rng.bit_generator.state

    def test_draw_block_does_not_grow_with_the_edges(self):
        # the (edges, 2, list_size) tile that is shuffled in place is sized
        # by _DRAW_BLOCK whatever m is, so 16 times the edges draw in it
        tiles = []
        real_empty = np.empty

        def spy(shape, *args, **kwargs):
            out = real_empty(shape, *args, **kwargs)
            if out.ndim == 3:
                tiles.append(out.nbytes)
            return out

        for m in (5000, 80000):
            g = Graph(m + 1, [(0, v) for v in range(1, m + 1)])
            with mock.patch.object(cover.np, "empty", spy):
                random_cover(g, 8, 0.05, seed=0)
        assert tiles == [8 * cover._DRAW_BLOCK] * 2


class TestCoverFromLists:
    def test_shared_lists_full_matching(self):
        g = edge_graph()
        cov = cover_from_lists(g, ListAssignment(((1, 2), (1, 2))))
        assert len(cov.matchings[(0, 1)]) == 2
        assert validate_cover(g, cov).ok

    def test_disjoint_lists_empty_matching(self):
        g = edge_graph()
        cov = cover_from_lists(g, ListAssignment(((1, 2), (3, 4))))
        assert (0, 1) not in cov.matchings

    def test_triangle_matching_sizes_and_equivalence(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        lists = ListAssignment(((1, 2, 3),) * 3)
        cov = cover_from_lists(g, lists)
        for e in g.edges():
            assert len(cov.matchings[e]) == 3
        # brute-force colorability identical under both views
        list_solutions = oracle_list_colorings(g, lists)
        cover_solutions = oracle_cover_colorings(g, cov)
        assert len(list_solutions) == len(cover_solutions) == 6

    def test_pullback_equivalence_exhaustive(self):
        # proper cover colorings of the canonical embedding are exactly the
        # images of proper list colorings, checked over full enumerations
        rng = rng_for(21)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n, 0.5)
            lists = random_lists(rng, n, 6, 3)
            cov = cover_from_lists(g, lists)
            assert validate_cover(g, cov).ok
            index = [
                {c: cid for c, cid in zip(lists.lists[v], cov.lists[v])}
                for v in range(n)
            ]
            mapped = {
                tuple(index[v][combo[v]] for v in range(n))
                for combo in oracle_list_colorings(g, lists)
            }
            assert mapped == set(oracle_cover_colorings(g, cov))


class TestCDegrees:
    """The c-degree of (v, c) is the number of neighbours whose list holds
    c: the degree of v's entry for c in the canonical cover."""

    @staticmethod
    def by_entry(g, lists):
        return color_degrees(cover_from_lists(g, ListAssignment(lists))).tolist()

    def test_isolated_vertex(self):
        assert self.by_entry(Graph(1), ((1,),)) == [0]
        assert _Instance(Graph(1), ListAssignment(((1,),))).max_color_degree() == 0

    def test_edge_shared_lists(self):
        assert self.by_entry(edge_graph(), ((1, 2), (1, 2))) == [1, 1, 1, 1]

    def test_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert self.by_entry(g, ((1,),) * 4) == [3, 1, 1, 1]
        assert _Instance(g, ListAssignment(((1,),) * 4)).max_color_degree() == 3

    def test_cover_degrees(self):
        g = edge_graph()
        cov = CorrespondenceCover([(1, 2), (3, 4)], {(0, 1): [(1, 3)]})
        assert dict(zip(cov.arrays.colors.tolist(), color_degrees(cov).tolist())) == \
            {1: 1, 2: 0, 3: 1, 4: 0}
        assert _Instance(g, cov).max_color_degree() == 1
        # counted once and kept on the cover, read-only
        assert color_degrees(cov) is color_degrees(cov)
        assert not color_degrees(cov).flags.writeable


class TestCoverSparsity:
    def test_edgeless(self):
        g = Graph(3)
        cov = CorrespondenceCover([(0,), (1,), (2,)], {})
        assert cover_sparsity(cov) == 0

    def test_canonical_triangle(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        cov = cover_from_lists(g, ListAssignment(((1, 2, 3),) * 3))
        assert cover_sparsity(cov) <= local_sparsity(g).k_star == 1

    def test_cover_never_denser_than_graph(self):
        rng = rng_for(13)
        for _ in range(25):
            g = random_graph(rng, 9, 0.5)
            cov = random_cover_for(rng, g, 3, float(rng.uniform(0.2, 1.0)))
            assert cover_sparsity(cov) <= local_sparsity(g).k_star

    def test_cover_degree_bounded_by_graph_degree(self):
        rng = rng_for(14)
        for _ in range(25):
            g = random_graph(rng, 9, 0.5)
            cov = random_cover_for(rng, g, 3, float(rng.uniform(0.2, 1.0)))
            assert cov.max_color_degree() <= max_degree(g)


class TestListAssignment:
    def test_duplicates_rejected(self):
        with pytest.raises(CoverError):
            ListAssignment(((1, 1),))

    @pytest.mark.parametrize("rows, v", [
        ([(0, 2 ** 70)], 0),
        ([(1,), (2 ** 64,)], 1),
        ([(0,), (), (-2 ** 63 - 1, 0)], 2),
    ])
    def test_ids_outside_int64_rejected_naming_the_row(self, rows, v):
        message = f"^row {v} holds an id outside int64$"
        with pytest.raises(ValueError, match=message):
            ListAssignment(rows)
        with pytest.raises(ValueError, match=message):
            Rows.of(rows)

    def test_int64_ends_kept(self):
        assert Rows.of([(2 ** 63 - 1, -2 ** 63)]) == [(-2 ** 63, 2 ** 63 - 1)]

    def test_sorted_normalization(self):
        la = ListAssignment(((3, 1, 2),))
        assert la.lists[0] == (1, 2, 3)

    # hand-built `Rows` whose rows descend: the lists are sorted too, so
    # no membership search or repeat check reads them out of order

    def test_descending_rows_are_sorted(self):
        rows = Rows(np.array([5, 3, 3, 5, 9]), np.array([0, 2, 4, 4, 5]))
        assert ListAssignment(rows).lists == ((3, 5), (3, 5), (), (9,))
        ascending = Rows(np.array([3, 5, 1]), np.array([0, 2, 3]))
        assert ListAssignment(ascending).lists is ascending

    def test_descending_lists_of_a_triangle_are_colorable(self):
        rows = Rows(np.array([2, 1, 0] * 3), np.array([0, 3, 6, 9]))
        res = solve(Graph(3, [(0, 1), (1, 2), (0, 2)]), ListAssignment(rows), seed=0)
        assert res.coloring is not None
        assert sorted(res.coloring.assignment.values()) == [0, 1, 2]

    def test_proper_coloring_of_descending_lists_verifies(self):
        lists = ListAssignment(Rows(np.array([5, 3, 3, 5]), np.array([0, 2, 4])))
        assert verify_coloring(edge_graph(), lists, PartialColoring({0: 3, 1: 5})).ok

    def test_repeat_apart_from_its_copy_rejected(self):
        with pytest.raises(CoverError, match="^duplicate color in list of vertex 1$"):
            ListAssignment(Rows(np.array([1, 2, 3, 5, 3]), np.array([0, 2, 5])))

    def test_cover_of_descending_lists_keeps_every_pair(self):
        rng = rng_for(41)
        g = random_graph(rng, 30, 0.3)
        lists = random_lists(rng, g.n, 12, 5)
        flipped = Rows(np.concatenate([row[::-1] for row in lists.lists]), lists.lists.indptr)
        assert cover_from_lists(g, ListAssignment(flipped)).matchings == \
            cover_from_lists(g, lists).matchings


class TestCoverFile:
    def test_roundtrip(self, tmp_path):
        rng = rng_for(3)
        g = random_graph(rng, 8, 0.5)
        cov = random_cover(g, 3, 0.7, seed=5)
        path = tmp_path / "cover.txt"
        save_cover(cov, path)
        back = load_cover(path)
        assert back.lists == cov.lists
        assert back.matchings == cov.matchings

    def test_rejects_pair_count_mismatch(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2 4\n0 1\n2 3\n0 1 2 0 2\n")
        with pytest.raises(CoverError):
            load_cover(path)

    def test_rejects_color_total_mismatch(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2 5\n0 1\n2 3\n")
        with pytest.raises(CoverError):
            load_cover(path)

    @pytest.mark.parametrize("text, message", [
        ("", "expected header 'n q_total'"),
        ("2\n", "expected header 'n q_total'"),
        ("2 x\n", "non-integer token in line '2 x'"),
        ("2 4\n0 1\n", "truncated list section"),
        ("2 4\n0 1\n2 x\n", "non-integer token in line '2 x'"),
        ("2 4\n0 1\n2 3\n0 1 1 0 2x\n", "non-integer token in line '0 1 1 0 2x'"),
        ("2 4\n0 1\n2 99999999999999999999\n",
         "integer outside int64 in line '2 99999999999999999999'"),
        ("2 4\n0 1\n2 3\n0 1\n", "bad matching line: '0 1\\n'"),
        ("2 4\n0 1\n2 3\n0 1 2 0 2\n", "matching line claims 2 pairs: '0 1 2 0 2\\n'"),
        ("2 4\n0 1\n2 3\n0 1 -1\n", "matching line claims -1 pairs: '0 1 -1\\n'"),
        ("2 4\n0 2\n1 3\n0 1 1 0 1\n0 1 1 2 3\n", "duplicate matching line for edge (0, 1)"),
        ("2 4\n0 2\n1 3\n0 1 1 0 1\n1 0 1 3 2\n", "duplicate matching line for edge (0, 1)"),
        ("2 5\n0 1\n2 3\n", "header claims 5 colors, lists carry 4"),
    ])
    def test_each_bad_input_names_its_fault(self, tmp_path, text, message):
        # the second duplicate turns the edge round, and is a duplicate all the same
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(CoverError, match=f"^{re.escape(message)}$"):
            load_cover(path)

    @pytest.mark.parametrize("text, n", [("-1 0\n", -1), ("-2 0\n0 1 0\n", -2)])
    def test_rejects_a_negative_vertex_count(self, tmp_path, text, n):
        # once an empty cover, then an n = 0 cover with a matching line
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(CoverError, match=f"^{re.escape(f'negative vertex count: {n}')}$"):
            load_cover(path)
