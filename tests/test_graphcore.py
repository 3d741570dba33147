import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import oracle_neighborhood_edges, oracle_slot_edge, random_graph, rng_for
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palettesparse import graphcore
from palettesparse.cover import ListAssignment, cover_from_lists, cover_sparsity
from palettesparse.graphcore import (
    GenerationError,
    Graph,
    GraphError,
    check_pairs,
    distinct,
    first_seen,
    gen_bipartite,
    gen_locally_sparse,
    load_graph,
    local_sparsity,
    max_degree,
    ranked,
    save_graph,
    split,
    stable_order,
)
from palettesparse.nibble import solve
from palettesparse.sparsify import (
    SharedPalette,
    build_conflict,
    manual_params,
    prune,
    sample_palettes,
)


FAST = settings(max_examples=80, deadline=None)


def naive_graph_error(n, pairs):
    """Message of the first bad pair, checked one pair at a time in input
    order (range, then self-loop, then repeat), or None."""
    seen = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            return f"vertex id out of range: ({u}, {v})"
        if u == v:
            return f"self-loop at {u}"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge {key}"
        seen.add(key)
    return None


def naive_first_bad(n, pairs):
    """(index of the first bad pair in input order, index of the earlier
    pair of the same edge or -1), or None: `check_pairs`' answer, one pair
    at a time."""
    seen = {}
    for i, (u, v) in enumerate(pairs):
        key = (min(u, v), max(u, v))
        if not (0 <= u < n and 0 <= v < n) or u == v or key in seen:
            return i, seen.get(key, -1)
        seen[key] = i
    return None


# int64 keys: few values (repeats, negatives), all equal, anywhere in int64,
# and clustered at +-2^62, where (max - min + 1) * N overflows int64 and the
# helpers take the stable-argsort fallback
KEYS = st.one_of(
    st.lists(st.integers(-5, 5), max_size=40),
    st.integers(-3, 3).flatmap(lambda k: st.lists(st.just(k), max_size=10)),
    st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=12),
    st.lists(st.integers(2 ** 62 - 3, 2 ** 62 + 3) | st.integers(-2 ** 62 - 3, -2 ** 62 + 3),
             max_size=12),
).map(lambda xs: np.array(xs, dtype=np.int64))


def same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def assert_helpers_match_numpy(keys):
    same([distinct(keys)], [np.unique(keys)])
    same(first_seen(keys), np.unique(keys, return_index=True))
    same(ranked(keys), np.unique(keys, return_inverse=True))
    same([stable_order(keys)], [np.argsort(keys, kind="stable")])


class TestSortHelpers:
    @settings(max_examples=300, deadline=None)
    @given(KEYS, st.booleans())
    def test_match_numpy(self, keys, ascend):
        assert_helpers_match_numpy(np.sort(keys) if ascend else keys)

    @pytest.mark.parametrize("keys", [[], [7], [4, 4, 4], [3, -1, 3, -1, 0], [1, 0, 2, 1],
                                      [2 ** 62, -2 ** 62, 0, 2 ** 62], [-2 ** 63, 2 ** 63 - 1]])
    def test_edge_cases_match_numpy(self, keys):
        assert_helpers_match_numpy(np.array(keys, dtype=np.int64))

    @pytest.mark.parametrize("keys, fallback", [([2 ** 62, -2 ** 62, 0], True),
                                                ([2 ** 40, -2 ** 40, 0], False)])
    def test_stable_argsort_only_past_int64(self, keys, fallback):
        keys = np.array(keys, dtype=np.int64)
        for helper in (first_seen, ranked, stable_order):
            with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
                helper(keys)
            assert spy.called == fallback

    def test_ascending_keys_are_not_sorted(self):
        keys = np.array([-3, 0, 0, 5, 9], dtype=np.int64)
        want = np.unique(keys, return_index=True)
        with mock.patch.object(np, "sort", side_effect=AssertionError("sorted")):
            got = first_seen(keys), distinct(keys)
        same(got[0], want)
        same([got[1]], want[:1])

    def test_dense_ids_are_their_own_ranks(self):
        keys = np.array([1, 0, 2, 1], dtype=np.int64)
        ids, rank = ranked(keys)
        assert rank is keys and ids.tolist() == [0, 1, 2]


class TestSplit:
    @FAST
    @given(KEYS, st.integers(1, 3) | st.integers(1, 2 ** 62))
    @example(np.array([-7, -1, 0, 1, 7], dtype=np.int64), 1)
    @example(np.array([-2 ** 63, 2 ** 63 - 1, -3, 3], dtype=np.int64), 3)
    def test_matches_divmod(self, keys, d):
        # negative keys floor, as in numpy; near -2^63 the product wraps,
        # and the remainder, which lies in 0..d-1, comes out right anyway
        same(split(keys, d), np.divmod(keys, d))


def K(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def fresh(g):
    """A new `Graph` of g's edges, with no report kept: its audit runs the kernel."""
    return Graph(g.n, np.column_stack(g.edge_arrays()))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)])


class TestLocalSparsity:
    def test_triangle(self):
        assert local_sparsity(K(3)).k_star == 1

    def test_five_cycle(self):
        assert local_sparsity(cycle(5)).k_star == 0

    def test_k4(self):
        rep = local_sparsity(K(4))
        assert rep.k_star == 3
        assert rep.per_vertex_neighborhood_edges.tolist() == [3, 3, 3, 3]
        per = rep.per_vertex_neighborhood_edges
        assert per.dtype == np.int64 and not per.flags.writeable

    def test_empty(self):
        rep = local_sparsity(Graph(4))
        assert rep.k_star == 0
        assert rep.per_vertex_neighborhood_edges.tolist() == [0, 0, 0, 0]

    def test_k_star_is_max_of_per_vertex(self):
        rng = rng_for(11)
        for _ in range(20):
            g = random_graph(rng, 12, 0.4)
            rep = local_sparsity(g)
            assert rep.k_star == max(rep.per_vertex_neighborhood_edges)

    def test_agrees_with_pair_enumeration(self):
        rng = rng_for(5)
        for trial in range(60):
            n = int(rng.integers(1, 11))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
            got = list(local_sparsity(g).per_vertex_neighborhood_edges)
            assert got == oracle_neighborhood_edges(g)

    def test_agrees_on_large_bipartite_graph(self):
        # many wedge chunks, none of them closed
        g = fresh(gen_bipartite(440, 140, seed=3))
        assert g.m > 20000
        got = list(local_sparsity(g).per_vertex_neighborhood_edges)
        assert got == oracle_neighborhood_edges(g)

    @FAST
    @given(st.integers(0, 12), st.integers(1, 5), st.sampled_from([0, 16]),
           st.sampled_from([0, 2 ** 31]), st.data())
    def test_agrees_across_wedge_chunks(self, n, budget, factor, words, data):
        # factor 0 leaves 8 flags a vertex, so the flags of v and v + 8
        # collide; words 0 holds the ids as int64, as past 2**31 flags
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph(n, edges)
        with mock.patch.object(graphcore, "_WEDGES_PER_CHUNK", budget), \
                mock.patch.object(graphcore, "_FLAGS_PER_EDGE", factor), \
                mock.patch.object(graphcore, "_INT32_BELOW", words):
            got = local_sparsity(g).per_vertex_neighborhood_edges
        assert list(got) == oracle_neighborhood_edges(g)

    @pytest.mark.parametrize("factor", [0, 16])
    def test_agrees_with_a_saturated_hub(self, factor):
        # vertex 0 is adjacent to all, so every one of its flags is set and
        # each wedge with lower end 0 goes on to the search
        rng = rng_for(23)
        n = 300
        us, vs = random_graph(rng, n, 0.02).edge_arrays()
        keys = distinct(np.concatenate((np.arange(1, n), us * n + vs)))
        g = Graph(n, np.column_stack(np.divmod(keys, n)))
        assert g.degree(0) == n - 1 and g.m > 1000
        with mock.patch.object(graphcore, "_FLAGS_PER_EDGE", factor):
            got = list(local_sparsity(g).per_vertex_neighborhood_edges)
        assert got == oracle_neighborhood_edges(g)

    @pytest.mark.parametrize("g", [Graph(0), Graph(1), Graph(2), Graph(2, [(0, 1)]), Graph(9),
                                   K(3), K(5), K(9), K(17)], ids=repr)
    def test_small_edgeless_and_complete_graphs(self, g):
        assert list(local_sparsity(g).per_vertex_neighborhood_edges) == \
            oracle_neighborhood_edges(g)

    def test_canonical_cover_keeps_the_graphs_sparsity(self):
        # identical lists make the cover graph 3 disjoint copies of g
        g = gen_locally_sparse(80, 10, 4, seed=2)
        cov = cover_from_lists(g, ListAssignment(((0, 1, 2),) * g.n))
        assert cover_sparsity(cov) == local_sparsity(g).k_star == max(oracle_neighborhood_edges(g))

    def test_memory_is_linear_in_the_edges_beside_a_hub(self):
        # a flag table sized from the max degree (3,999) would take 32 MB
        rng = rng_for(29)
        n = 4000
        pairs = rng.integers(0, n, size=(40000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        keys = distinct(np.concatenate((np.arange(1, n), pairs.min(1) * n + pairs.max(1))))
        g = Graph(n, np.column_stack(np.divmod(keys, n)))
        tracemalloc.start()
        try:
            local_sparsity(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * g.m

    def test_memory_is_at_most_40_bytes_an_edge(self):
        g = fresh(gen_bipartite(20000, 32, seed=1))
        tracemalloc.start()
        try:
            local_sparsity(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * g.m

    def test_counted_once_per_graph(self):
        g = random_graph(rng_for(31), 40, 0.3)
        with mock.patch.object(graphcore, "_triangle_counts",
                               wraps=graphcore._triangle_counts) as tri:
            first = local_sparsity(g)
            assert local_sparsity(g) is first
        assert tri.call_count == 1
        assert list(first.per_vertex_neighborhood_edges) == oracle_neighborhood_edges(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_cut_audits_its_own_edges(self, seed):
        rng = rng_for(seed)
        g = random_graph(rng, 14, 0.6)
        whole = local_sparsity(g)
        mask = rng.random(g.m) < 0.5
        mask[0] = False
        sub = g.keep(mask)
        assert list(local_sparsity(sub).per_vertex_neighborhood_edges) == \
            oracle_neighborhood_edges(sub)
        # a mask that keeps every edge returns the graph and its report
        assert g.keep(np.ones(g.m, dtype=bool)) is g
        assert local_sparsity(g.keep(np.ones(g.m, dtype=bool))) is whole

    def test_agrees_on_dense_graph(self):
        rng = rng_for(17)
        g = random_graph(rng, 260, 0.65)
        assert g.m > 20000
        got = list(local_sparsity(g).per_vertex_neighborhood_edges)
        assert got == oracle_neighborhood_edges(g)


class TestMaxDegree:
    def test_examples(self):
        assert max_degree(Graph(5)) == 0
        assert max_degree(Graph(3, [(0, 1), (1, 2)])) == 2
        assert max_degree(K(4)) == 3


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    @FAST
    @given(st.integers(0, 8), st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 9)),
                                       max_size=16), st.booleans(), st.booleans())
    @example(3, [(0, 1), (0, 2), (0, 2)], True, True)
    @example(3, [(0, 1), (1, 1), (1, 2)], True, True)
    @example(3, [(0, 1), (1, 2), (1, 3)], True, True)
    @example(3, [(0, 1), (-1, 4)], False, False)
    def test_matches_naive_validator(self, n, pairs, as_array, ascending):
        # pairs in ascending key order min*n + max skip the sort, but an
        # out-of-range id, a self-loop or an adjacent repeat is still named
        if ascending:
            pairs = sorted(pairs, key=lambda p: min(p) * n + max(p))
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs
        ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        assert check_pairs(n, ends)[1] == naive_first_bad(n, pairs)
        expected = naive_graph_error(n, pairs)
        if expected is not None:
            with pytest.raises(GraphError, match=f"^{re.escape(expected)}$"):
                Graph(n, edges)
            return
        g = Graph(n, edges)
        rows = [sorted({b for a, b in pairs if a == u} | {a for a, b in pairs if b == u})
                for u in range(n)]
        assert g.m == len(pairs)
        assert g.indptr.tolist() == [0, *np.cumsum([len(r) for r in rows]).tolist()]
        assert g.indices.tolist() == [v for r in rows for v in r]
        assert list(g.edges()) == sorted((min(u, v), max(u, v)) for u, v in pairs)
        for u in range(n):
            assert [v for v in range(n) if g.has_edge(u, v)] == rows[u]

    @FAST
    @given(st.integers(0, 12), st.data())
    def test_sorted_and_shuffled_input_build_the_same_arrays(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(data.draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
        shuffled = [(v, u) if data.draw(st.booleans()) else (u, v)
                    for u, v in data.draw(st.permutations(edges))]
        a, b = Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)), Graph(n, shuffled)
        same([a.indptr, a.indices, *a.edge_arrays()], [b.indptr, b.indices, *b.edge_arrays()])

    def test_arrays_are_read_only(self):
        g = K(3)
        for a in (g.indptr, g.indices, g.neighbors(0), *g.edge_arrays()):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_adjacency_sorted_and_symmetric(self):
        rng = rng_for(2)
        for _ in range(10):
            g = random_graph(rng, 15, 0.3)
            for u in range(g.n):
                row = g.neighbors(u).tolist()
                assert row == sorted(row)
                for v in row:
                    assert u in g.neighbors(v).tolist()


@st.composite
def masked_graphs(draw, max_n=12):
    """(a graph, one keep flag per edge, drawn or none, all or one kept)."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    single = st.integers(0, g.m - 1).map(lambda i: np.arange(g.m) == i) if g.m else st.nothing()
    mask = draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m).map(np.array)
                | st.just(np.zeros(g.m)) | st.just(np.ones(g.m)) | single)
    return g, mask.astype(bool)


class TestKeep:
    @FAST
    @given(masked_graphs())
    @example((Graph(0), np.zeros(0, dtype=bool)))
    @example((Graph(2, [(0, 1)]), np.array([False])))
    @example((Graph(2, [(0, 1)]), np.array([True])))
    def test_matches_the_validating_constructor(self, inst):
        g, mask = inst
        us, vs = g.edge_arrays()
        sub, want = g.keep(mask), Graph(g.n, np.column_stack((us[mask], vs[mask])))
        assert (sub.n, sub.m) == (want.n, want.m)
        arrays = [sub.indptr, sub.indices, *sub.edge_arrays()]
        same(arrays, [want.indptr, want.indices, *want.edge_arrays()])
        assert not any(a.flags.writeable for a in arrays)
        # a mask that keeps every edge keeps the graph itself
        assert (sub is g) == bool(mask.all())

    @FAST
    @given(masked_graphs(), st.integers(0, 2 ** 16), st.floats(0.0, 1.0))
    # isolated vertices at both ends and inside, then every edge cut; and
    # n = 2, its one edge kept and then cut
    @example((Graph(6, [(1, 4), (2, 4), (1, 3)]), np.array([True, False, True])), 0, 0.0)
    @example((Graph(2, [(0, 1)]), np.array([True])), 0, 0.0)
    def test_a_keep_of_a_keep(self, inst, seed, p):
        g, mask = inst
        sub = g.keep(mask)
        again = np.random.default_rng(seed).random(sub.m) < p
        us, vs = sub.edge_arrays()
        got, want = sub.keep(again), Graph(g.n, np.column_stack((us[again], vs[again])))
        same([got.indptr, got.indices, *got.edge_arrays()],
             [want.indptr, want.indices, *want.edge_arrays()])
        assert got.slot_edge().tolist() == oracle_slot_edge(want)

    def test_sorts_nothing(self):
        g = gen_locally_sparse(300, 12, 20, seed=4)
        mask = np.random.default_rng(0).random(g.m) < 0.7
        g.slot_edge()
        with mock.patch.object(np, "sort", side_effect=AssertionError("sorted")), \
                mock.patch.object(np, "argsort", side_effect=AssertionError("sorted")):
            sub = g.keep(mask)
        assert sub.m == int(mask.sum())


class TestSlotTables:
    @FAST
    @given(masked_graphs())
    @example((Graph(0), np.zeros(0, dtype=bool)))
    @example((Graph(1), np.zeros(0, dtype=bool)))
    @example((Graph(5, [(0, 4), (1, 4), (3, 4), (0, 1)]), np.array([True, False, True, True])))
    def test_slot_edge_matches_the_edge_list(self, inst):
        g, mask = inst
        for h in (g, g.keep(mask)):
            table = h.slot_edge()
            assert table.dtype == np.int64 and not table.flags.writeable
            assert table.tolist() == oracle_slot_edge(h)
            # the slots to larger neighbours hold the edges in order
            ahead = h.indices > h.slot_rows()
            assert table[ahead].tolist() == list(range(h.m))
            assert h.slot_edge() is table

    def test_slot_rows_are_made_per_call_and_not_kept(self):
        g = cycle(5)
        rows = g.slot_rows()
        assert rows.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        again = g.slot_rows()
        assert again is not rows and again.tolist() == rows.tolist()
        # a graph pruned, cut and solved on over several seeds holds slot_edge
        # and no 2m-word table of its slot rows
        g = gen_locally_sparse(300, 12, 20, seed=4)
        params = manual_params(max_degree(g), 0.1, 1.0, 20, 4)
        for seed in range(4):
            fam = prune(g, sample_palettes(SharedPalette(g.n, 20), 4, seed), params)
            conflict = build_conflict(g, fam)
            assert conflict.graph.m < g.m
            solve(conflict.graph, conflict.lists, seed=seed)
        rows = g.slot_rows()
        held = [getattr(g, name) for name in Graph.__slots__]
        assert not any(isinstance(a, np.ndarray) and a.shape == rows.shape
                       and (a == rows).all() for a in held)
        assert g.slot_edge() is g.slot_edge()


@st.composite
def edge_lookups(draw, max_n=6):
    """(a graph on at most max_n vertices, the edgeless and empty ones too,
    and (u, v) lookups: edges either way round, self-loops, ids just past
    both ends of 0..n-1 and anywhere in int64, where u*n + v wraps)."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    ids = st.integers(-2, n + 1) | st.integers(-2 ** 63, 2 ** 63 - 1)
    return g, draw(st.lists(st.tuples(ids, ids) | st.sampled_from(pairs or [(0, 0)]),
                            max_size=12))


class TestEdgeIndex:
    @FAST
    @given(edge_lookups())
    @example((Graph(0), []))
    @example((Graph(0), [(0, 0), (-1, 0)]))
    @example((Graph(3, [(1, 2)]), [(0, 5), (5, 0), (2, 1), (1, 1), (1, 2)]))
    def test_matches_a_set_oracle(self, inst):
        # (0, 5) on 3 vertices has the key 0*3 + 5 of the edge (1, 2)
        g, lookups = inst
        index = {e: i for i, e in enumerate(g.edges())}
        want = [index.get((min(u, v), max(u, v)), -1) for u, v in lookups]
        us = np.array([u for u, _ in lookups], dtype=np.int64)
        vs = np.array([v for _, v in lookups], dtype=np.int64)
        got = g.edge_index(us, vs)
        assert got.dtype == np.int64 and got.tolist() == want

    def test_empty_lookup_reads_no_edges(self):
        # the edge arrays are read only for a lookup of some edge: with
        # them gone, an empty lookup still answers
        g = gen_bipartite(200, 8, seed=1)
        g._us = g._vs = None
        none = np.zeros(0, dtype=np.int64)
        assert g.edge_index(none, none).tolist() == []


class TestGenerators:
    def test_triangle_free_instance(self):
        g = gen_locally_sparse(100, 3, 0, seed=7)
        rep = local_sparsity(g)
        assert rep.k_star == 0
        assert rep.max_degree <= 3

    def test_degree_zero_gives_edgeless(self):
        g = gen_locally_sparse(10, 0, 0, seed=1)
        assert g.m == 0

    def test_audit_holds(self):
        g = gen_locally_sparse(50, 8, 2, seed=1)
        rep = local_sparsity(g)
        assert rep.k_star <= 2
        assert rep.max_degree <= 8

    @pytest.mark.parametrize("seed", range(6))
    def test_audit_holds_across_seeds(self, seed):
        g = gen_locally_sparse(40, 6, 1, seed=seed)
        rep = local_sparsity(g)
        assert rep.k_star <= 1
        assert rep.max_degree <= 6

    def test_deterministic(self):
        a = gen_locally_sparse(30, 5, 2, seed=9)
        b = gen_locally_sparse(30, 5, 2, seed=9)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("k, counts", [(28, 1), (0, 2)])
    def test_audit_reuses_the_repair_counts_only_when_nothing_was_deleted(self, k, counts):
        # k = C(8, 2) never deletes, so the repair's triangle counts are the
        # audit's; k = 0 deletes, and the returned graph is counted anew
        reports = []

        def spy(g, tri):
            reports.append(real(g, tri))
            return reports[-1]

        real = graphcore._sparsity_report
        with mock.patch.object(graphcore, "_sparsity_report", spy), \
                mock.patch.object(graphcore, "_triangle_counts",
                                  wraps=graphcore._triangle_counts) as tri:
            g = gen_locally_sparse(60, 8, k, seed=3)
        assert tri.call_count == counts
        assert reports[-1] == local_sparsity(g)
        assert reports[-1].per_vertex_neighborhood_edges.tolist() == oracle_neighborhood_edges(g)

    def test_infeasible_rejected(self):
        with pytest.raises(GenerationError):
            gen_locally_sparse(5, 5, 0, seed=0)
        with pytest.raises(GenerationError):
            gen_locally_sparse(0, 0, 0, seed=0)

    def test_bipartite(self):
        g = gen_bipartite(200, 12, seed=4)
        rep = local_sparsity(g)
        assert rep.k_star == 0
        assert rep.max_degree <= 12
        per = rep.per_vertex_neighborhood_edges
        assert per.tolist() == [0] * 200 and per.dtype == np.int64 and not per.flags.writeable

    def test_bipartite_audit_failure_raises(self, monkeypatch):
        # the pairing's keys u * n + v, with edges forced in
        real = graphcore.distinct
        for extra, message in [
            ((0 * 20 + 1,), "an edge does not cross the bipartition"),  # (0, 1): left half
            ((12 * 20 + 19,), "an edge does not cross the bipartition"),  # (12, 19): right half
            (tuple(range(10, 20)), "max degree 10"),  # (0, v) for every right v
        ]:
            monkeypatch.setattr(graphcore, "distinct",
                                lambda keys, extra=extra: real(np.append(keys, extra)))
            with pytest.raises(GenerationError, match=f"^audit failed: {message}$"):
                gen_bipartite(20, 3, seed=0)

    @FAST
    @given(st.integers(1, 40), st.integers(0, 8), st.integers(0, 6), st.integers(0, 2 ** 16),
           st.booleans())
    def test_handed_over_report_is_the_audit(self, n, delta, k, seed, bipartite):
        if bipartite:
            n, delta = max(n, 2), min(delta, max(n, 2) // 2)
            g = gen_bipartite(n, delta, seed)
        else:
            g = gen_locally_sparse(n, min(delta, n - 1), k, seed)
        with mock.patch.object(graphcore, "_triangle_counts",
                               wraps=graphcore._triangle_counts) as tri:
            kept = local_sparsity(g)
        assert tri.call_count == 0
        h = fresh(g)
        want = graphcore._sparsity_report(h, graphcore._triangle_counts(h.n, *h.edge_arrays()))
        assert (kept.k_star, kept.max_degree) == (want.k_star, want.max_degree)
        assert kept.per_vertex_neighborhood_edges.tolist() == \
            want.per_vertex_neighborhood_edges.tolist() == oracle_neighborhood_edges(g)


class TestGraphFile:
    def test_roundtrip(self, tmp_path):
        g = gen_locally_sparse(25, 4, 1, seed=3)
        path = tmp_path / "g.txt"
        save_graph(g, path)
        h = load_graph(path)
        assert h.n == g.n
        assert np.array_equal(h.indptr, g.indptr)
        assert np.array_equal(h.indices, g.indices)

    def test_rejects_u_ge_v(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 0\n")
        with pytest.raises(GraphError):
            load_graph(path)

    def test_rejects_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(GraphError):
            load_graph(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n")
        with pytest.raises(GraphError):
            load_graph(path)

    @pytest.mark.parametrize("text, message", [
        ("", "expected header 'n m'"),
        ("2 1\n0 x", "non-integer token in line '0 x'"),
        ("2 1\n0 99999999999999999999", "integer outside int64 in line '0 99999999999999999999'"),
        ("2 1\n0 1 2", "bad edge line: '0 1 2'"),
        ("2 1\n1 0", "edges must satisfy u < v, got 1 0"),
        ("3 2\n0 1", "header claims 2 edges, file has 1"),
        ("2 1\n0 5", "vertex id out of range: (0, 5)"),
        ("3 2\n0 1\n0 1", "duplicate edge (0, 1)"),
        ("-1 0", "negative vertex count: -1"),
    ])
    def test_each_bad_input_names_its_fault(self, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            load_graph(path)

    def test_save_graph_writes_one_line_per_edge(self, tmp_path):
        g = gen_locally_sparse(25, 4, 1, seed=3)
        save_graph(g, tmp_path / "g.txt")
        assert (tmp_path / "g.txt").read_text() == \
            f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
