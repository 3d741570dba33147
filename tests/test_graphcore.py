import re
from unittest import mock

import numpy as np
import pytest
from conftest import oracle_neighborhood_edges, random_graph, rng_for
from hypothesis import given, settings
from hypothesis import strategies as st

from palettesparse import graphcore
from palettesparse.graphcore import (
    GenerationError,
    Graph,
    GraphError,
    SparsityReport,
    gen_bipartite,
    gen_locally_sparse,
    load_graph,
    local_sparsity,
    max_degree,
    save_graph,
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


def K(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


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
        assert rep.per_vertex_neighborhood_edges == (3, 3, 3, 3)

    def test_empty(self):
        rep = local_sparsity(Graph(4))
        assert rep.k_star == 0
        assert rep.per_vertex_neighborhood_edges == (0, 0, 0, 0)

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
        g = gen_bipartite(440, 140, seed=3)
        assert g.m > 20000
        got = list(local_sparsity(g).per_vertex_neighborhood_edges)
        assert got == oracle_neighborhood_edges(g)

    @FAST
    @given(st.integers(0, 12), st.integers(1, 5), st.data())
    def test_agrees_across_wedge_chunks(self, n, budget, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph(n, edges)
        with mock.patch.object(graphcore, "_WEDGES_PER_CHUNK", budget):
            got = local_sparsity(g).per_vertex_neighborhood_edges
        assert list(got) == oracle_neighborhood_edges(g)

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
                                       max_size=16), st.booleans())
    def test_matches_naive_validator(self, n, pairs, as_array):
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs
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
        assert reports[-1].per_vertex_neighborhood_edges == tuple(oracle_neighborhood_edges(g))

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

    def test_bipartite_audit_failure_raises(self, monkeypatch):
        monkeypatch.setattr(graphcore, "local_sparsity",
                            lambda g: SparsityReport(1, 3, (1,) * g.n))
        with pytest.raises(GenerationError, match="k_star=1"):
            gen_bipartite(20, 3, seed=0)


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
