import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from conftest import oracle_pair_union, random_graph, rng_for
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palettesparse import graphcore, querysim
from palettesparse.cover import ListAssignment
from palettesparse.graphcore import Graph, gen_bipartite, gen_locally_sparse, max_degree
from palettesparse.nibble import solve, verify_coloring
from palettesparse.querysim import (
    QueryOracle,
    QueryPlan,
    UnsupportedStrategy,
    end_to_end_query_color,
    execute_plan,
    plan_queries,
)
from palettesparse.sparsify import (
    PaletteFamily,
    SharedPalette,
    build_conflict,
    derive_params,
    manual_params,
    prune,
    sample_palettes,
)


def params_for(delta, n, q, s):
    return derive_params(delta, n, 1, 0.5, 0.1, 1.0).with_overrides(q=q, s=s)


def check_plans_against_the_union_oracle(fam, hint):
    """The classes plan lists `oracle_pair_union`'s pairs in its order, and
    auto, with the scan cost at the exact class cost and one either side,
    picks the cheaper (ties: scan); the union stops past its limit."""
    n = fam.n
    want = oracle_pair_union(fam)
    exact = len(want)
    plan = plan_queries(n, fam, "classes", delta_hint=hint)
    assert list(map(tuple, plan.pairs.tolist())) == want and plan.cost_classes == exact
    keys = [u * n + v for u, v in want]
    for cost in (exact - 1, exact, exact + 1):
        if cost >= 0:
            got = querysim._pair_union(fam, cost)
            assert (None if exact > cost else keys) == (got if got is None else got.tolist())
        if cost < n or (cost - n) % 2:
            continue  # no edge count makes this scan cost
        auto = plan_queries(n, fam, "auto", hint, m_hint=(cost - n) // 2)
        assert auto.cost_scan == cost
        if cost <= exact:
            assert auto == QueryPlan("scan", n, hint, None, cost, None)
        else:
            assert (auto.strategy, auto.cost_classes) == ("classes", exact)
            assert auto.fingerprint() == plan.fingerprint()


@st.composite
def scan_cases(draw):
    """(graph, q, s, sampling seed): s from 1 up to q, where every edge is kept."""
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    q = draw(st.integers(1, 40))
    return Graph(n, edges), q, draw(st.integers(1, q)), draw(st.integers(0, 2 ** 16))


class RowsOracle:
    """Answers a scan with the given rows, whatever they hold, as a duck-typed oracle."""

    def __init__(self, rows):
        self.n, self.rows, self.total_queries = len(rows), rows, 0

    def degrees(self):
        return np.array([len(row) for row in self.rows], dtype=np.int64)

    def neighbor_prefixes(self, k):
        return (np.repeat(np.arange(self.n), k),
                np.array([x for row in self.rows for x in row], dtype=np.int64))


class BlindOracle:
    """The query methods and count of a `QueryOracle`, without its hidden graph."""

    def __init__(self, g):
        self.oracle = QueryOracle(g)
        self.n = g.n
        self.degrees, self.neighbor_prefixes = self.oracle.degrees, self.oracle.neighbor_prefixes

    @property
    def total_queries(self):
        return self.oracle.total_queries


class TestPlan:
    def test_forced_full_palettes_query_all_pairs(self):
        n = 8
        fam = sample_palettes(SharedPalette(n, 2), 2, seed=0)
        plan = plan_queries(n, fam, "classes", delta_hint=None)
        assert plan.cost_classes == math.comb(n, 2)
        assert len(plan.pairs) == math.comb(n, 2)

    def test_pair_union_matches_enumeration(self):
        rng = rng_for(4)
        for trial in range(10):
            n = int(rng.integers(5, 40))
            fam = sample_palettes(SharedPalette(n, 9), 3, seed=trial)
            plan = plan_queries(n, fam, "classes", delta_hint=None)
            want = set(oracle_pair_union(fam))
            got = {tuple(sorted(p)) for p in plan.pairs.tolist()}
            assert got == want and plan.cost_classes == len(want)

            # each pair sits where its smallest shared color's class first
            # lists it, so the plan fingerprint pins this order
            def first(p):
                return min(set(fam.sampled[p[0]]) & set(fam.sampled[p[1]])), p

            assert list(map(tuple, plan.pairs.tolist())) == sorted(want, key=first)

    @pytest.mark.parametrize("q", [1, 63, 64, 65, 128, 129])
    def test_exact_class_cost_across_word_boundaries(self, q):
        # palettes of these sizes once straddled the 64-bit words of a
        # packed-mask class count; the union must not care
        for trial in range(3):
            fam = sample_palettes(SharedPalette(30, q), min(q, 2), seed=trial)
            check_plans_against_the_union_oracle(fam, hint=None)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 12),
           st.integers(1, 8).flatmap(lambda q: st.tuples(st.just(q), st.integers(1, q))),
           st.integers(0, 2 ** 16), st.sampled_from([1, 2, 3, 7, 1 << 16]),
           st.none() | st.integers(0, 12))
    @example(0, (1, 1), 0, 1, None)
    @example(2, (1, 1), 0, 1, 0)
    @example(3, (8, 1), 0, 1, 2)  # at least five empty classes
    @example(12, (3, 3), 0, 7, 3)
    def test_plans_match_the_union_oracle(self, n, qs, seed, chunk, hint):
        # small chunks split one class's pairs over several chunks, so a
        # key can repeat one of an earlier chunk of the same or another class
        q, s = qs
        fam = sample_palettes(SharedPalette(n, q), s, seed)
        with mock.patch.object(graphcore, "_WEDGES_PER_CHUNK", chunk):
            check_plans_against_the_union_oracle(fam, hint)

    def test_plan_rejects_a_family_of_another_size(self):
        fam = sample_palettes(SharedPalette(5, 4), 2, seed=0)
        for n, strategy in ((3, "classes"), (3, "scan"), (6, "auto")):
            with pytest.raises(ValueError, match=f"family has 5 vertices, but n is {n}"):
                plan_queries(n, fam, strategy, delta_hint=2)

    def test_classes_unsupported_for_per_vertex_lists(self):
        fam = PaletteFamily(((1, 2), (3, 4)))  # no shared universe
        with pytest.raises(UnsupportedStrategy):
            plan_queries(2, fam, "classes", delta_hint=None)
        with pytest.raises(UnsupportedStrategy):
            plan_queries(2, fam, "auto", delta_hint=2)

    def test_disjoint_palettes_issue_no_pair_queries(self):
        fam = PaletteFamily(((0, 1), (2, 3), (4, 5)), universe=6)
        plan = plan_queries(3, fam, "classes", delta_hint=None)
        assert plan.cost_classes == 0 and len(plan.pairs) == 0
        inst, issued = execute_plan(QueryOracle(Graph(3, [(0, 1)])), plan, fam)
        assert issued == 0 and inst.graph.m == 0

    def test_non_adaptive_plan_is_reproducible(self):
        fam = sample_palettes(SharedPalette(30, 8), 3, seed=5)
        a = plan_queries(30, fam, "auto", delta_hint=6, m_hint=50)
        b = plan_queries(30, fam, "auto", delta_hint=6, m_hint=50)
        assert a.fingerprint() == b.fingerprint()

    def test_class_size_bounds_decide_auto_like_the_exact_count(self):
        # a scan cost at most max_c C(|V_c|, 2) decides for the scan without
        # building a pair; above it the union runs, and a scan it picks
        # records no class cost
        rng = rng_for(9)
        decided = Counter()
        for trial in range(25):
            n = int(rng.integers(2, 40))
            q = int(rng.integers(1, 10))
            fam = sample_palettes(SharedPalette(n, q), int(rng.integers(1, q + 1)), seed=trial)
            sizes = Counter(c for row in fam.sampled for c in row).values()
            low = max(math.comb(k, 2) for k in sizes)
            high = sum(math.comb(k, 2) for k in sizes)
            exact = len(oracle_pair_union(fam))
            hint = int(rng.integers(0, n))
            for cost in {low - 1, low, low + 1, exact, exact + 1, high, high + 1}:
                m = (cost - n) // 2
                if m < 0:
                    continue
                want = "scan" if n + 2 * m <= exact else "classes"
                ref = plan_queries(n, fam, want, hint)
                if n + 2 * m <= low:
                    with mock.patch.object(querysim, "_pair_union", side_effect=AssertionError):
                        plan = plan_queries(n, fam, "auto", hint, m_hint=m)
                else:
                    plan = plan_queries(n, fam, "auto", hint, m_hint=m)
                decided[n + 2 * m <= low, plan.strategy] += 1
                assert plan.cost_classes == (None if want == "scan" else exact)
                assert plan.strategy == want
                assert plan.fingerprint() == ref.fingerprint()
        assert decided[True, "scan"] and decided[False, "scan"] and decided[False, "classes"]

    def test_plan_independent_of_hidden_graph(self):
        # same palettes, two very different hidden graphs: byte-identical plan
        fam = sample_palettes(SharedPalette(20, 6), 3, seed=2)
        plan = plan_queries(20, fam, "classes", delta_hint=None)
        g1 = Graph(20)
        g2 = random_graph(rng_for(1), 20, 0.9)
        inst1, c1 = execute_plan(QueryOracle(g1), plan, fam)
        inst2, c2 = execute_plan(QueryOracle(g2), plan, fam)
        assert plan.fingerprint() == plan_queries(20, fam, "classes", delta_hint=None).fingerprint()
        assert c1 == c2 == plan.cost_classes


class TestExecute:
    def test_scan_issues_exactly_n_plus_2m(self):
        rng = rng_for(6)
        for trial in range(6):
            g = random_graph(rng, 25, 0.3)
            fam = sample_palettes(SharedPalette(25, 8), 3, seed=trial)
            plan = plan_queries(25, fam, "scan", delta_hint=max_degree(g))
            oracle = QueryOracle(g)
            _, issued = execute_plan(oracle, plan, fam)
            assert issued == 25 + 2 * g.m
            assert oracle.total_queries == issued
            assert oracle.degree_queries == 25
            assert oracle.neighbor_queries == 2 * g.m
            assert oracle.pair_queries == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10), st.data())
    def test_batched_scan_counts_match_per_call_loop(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
        hint = data.draw(st.none() | st.integers(0, n))
        loop, batched = QueryOracle(g), QueryOracle(g)
        expected = []
        for v in range(n):
            d = loop.degree(v)
            slots = d if hint is None else min(d, hint)
            expected += [(v, loop.neighbor(v, i)) for i in range(slots)]
        slots = batched.degrees()
        if hint is not None:
            slots = np.minimum(slots, hint)
        owners, found = batched.neighbor_prefixes(slots)
        assert list(zip(owners.tolist(), found.tolist())) == expected
        assert batched.counts() == loop.counts()
        if hint is not None:
            fam = sample_palettes(SharedPalette(n, 4), 2, seed=n)
            scan = QueryOracle(g)
            _, issued = execute_plan(scan, plan_queries(n, fam, "scan", delta_hint=hint), fam)
            assert scan.counts() == loop.counts() and issued == loop.total_queries

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10), st.data())
    def test_scan_finds_what_it_read_without_the_hidden_graph(self, n, data):
        # the whole palette makes every read edge a conflict edge; a hint
        # below the max degree clamps the scan, one at or above it does not
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
        hint = data.draw(st.integers(0, n))
        fam = sample_palettes(SharedPalette(n, 2), 2, seed=n)
        blind, ref = BlindOracle(g), QueryOracle(g)
        inst, issued = execute_plan(blind, plan_queries(n, fam, "scan", delta_hint=hint), fam)
        owners, found = ref.neighbor_prefixes(np.minimum(ref.degrees(), hint))
        read = {(min(u, v), max(u, v)) for u, v in zip(owners.tolist(), found.tolist())}
        assert set(inst.graph.edges()) == read
        assert blind.oracle.counts() == ref.counts() and issued == ref.total_queries

    @settings(max_examples=80, deadline=None)
    @given(scan_cases())
    @example((Graph(0), 3, 1, 0))
    @example((Graph(2, [(0, 1)]), 5, 5, 1))
    @example((Graph(2), 4, 2, 2))
    @example((Graph(10, [(u, v) for u in range(10) for v in range(u + 1, 10)]), 40, 1, 3))
    def test_whole_row_scan_keeps_the_read_rows(self, case):
        # the found graph is the validated Graph of the conflict edges read,
        # array for array, for the same queries
        g, q, s, seed = case
        n = g.n
        fam = sample_palettes(SharedPalette(n, q), s, seed=seed)
        oracle = QueryOracle(g)
        inst, issued = execute_plan(oracle, plan_queries(n, fam, "scan", delta_hint=n), fam)
        read = [(u, v) for u, v in g.edges() if set(fam.sampled[u]) & set(fam.sampled[v])]
        want = Graph(n, read)
        for got, expected in ((inst.graph.indptr, want.indptr),
                              (inst.graph.indices, want.indices),
                              *zip(inst.graph.edge_arrays(), want.edge_arrays())):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert issued == n + 2 * g.m
        assert oracle.counts() == {"degree": n, "neighbor": 2 * g.m, "pair": 0, "total": issued}

    def test_whole_row_scan_seed_builds_no_graph_from_pairs(self):
        # q = s keeps every edge read; neither the found graph nor its
        # conflict graph goes through the validating constructor
        g = gen_bipartite(300, 8, seed=2)
        params = derive_params(8, 300, 1, 0.5, 0.1, 0.05)
        assert params.q == params.s
        with mock.patch.object(Graph, "__init__", side_effect=AssertionError("Graph(n, pairs)")):
            out = end_to_end_query_color(QueryOracle(g), params, 0, strategy="auto",
                                         delta_hint=max_degree(g), m_hint=g.m)
        assert out.plan.strategy == "scan" and out.queries == g.n + 2 * g.m
        palette = ListAssignment(tuple(tuple(range(params.q)) for _ in range(g.n)))
        assert out.success and verify_coloring(g, palette, out.coloring).ok

    @pytest.mark.parametrize("rows, witness", [
        (((1,), (2, 0), (1,)), "scan answers hold a row that does not strictly ascend"),
        (((1,), (0, 0, 2), (1,)), "scan answers hold a row that does not strictly ascend"),
        (((1,), (0, 3), (1,)), "scan answers hold a vertex id outside 0..2"),
        (((1,), (-1, 0, 2), (1,)), "scan answers hold a vertex id outside 0..2"),
        (((1,), (0, 1, 2), (1,)), "scan answers hold a self-loop"),
        (((1,), (0,), (1,)), "scan answers read some edge from one end only"),
        # as many owner < other as owner > other slots, but 0 is in row 3 and not in row 1
        (((1,), (2,), (1,), (0,)), "scan answers read some edge from one end only"),
    ])
    def test_whole_row_scan_rejects_answers_that_are_no_graphs_rows(self, rows, witness):
        # the path 0-1-2 is ((1,), (0, 2), (1,)), with empty rows after it
        # for more vertices; each answer breaks one condition
        n = len(rows)
        fam = sample_palettes(SharedPalette(n, 2), 2, seed=0)
        plan = plan_queries(n, fam, "scan", delta_hint=n)
        path = RowsOracle(((1,), (0, 2), (1,)) + ((),) * (n - 3))
        assert execute_plan(path, plan, fam)[0].graph.m == 2
        with pytest.raises(ValueError, match=f"^{re.escape(witness)}$"):
            execute_plan(RowsOracle(rows), plan, fam)

    def test_whole_rows_are_read_only(self):
        g = Graph(3, [(0, 1), (1, 2)])
        oracle = QueryOracle(g)
        owners, found = oracle.neighbor_prefixes(oracle.degrees())
        assert found.tolist() == [1, 0, 2, 1]
        with pytest.raises(ValueError, match="read-only"):
            found[0] = 2
        assert g.indices.tolist() == [1, 0, 2, 1]

    @pytest.mark.parametrize("ask, witness", [
        (lambda o: o.pairs(np.array([0.0]), np.array([1.0])), "vertex ids must be integers, not float64"),
        (lambda o: o.pairs(np.array([0.5]), np.array([1.0])), "vertex ids must be integers, not float64"),
        (lambda o: o.pairs(np.array([0]), np.array([True])), "vertex ids must be integers, not bool"),
        (lambda o: o.pair(True, 1), "vertex ids must be integers, not bool"),
        (lambda o: o.degree(1.0), "vertex ids must be integers, not float64"),
        (lambda o: o.neighbor(True, 0), "vertex ids must be integers, not bool"),
        (lambda o: o.neighbor(1, 0.0), "no neighbor slot 0.0 of vertex 1"),
        (lambda o: o.neighbor_prefixes(np.array([1.5, 1, 1])), "slot counts must be integers, not float64"),
        (lambda o: o.neighbor_prefixes(np.array([True, True, False])), "slot counts must be integers, not bool"),
    ], ids=["pairs-whole-floats", "pairs-half", "pairs-bools", "pair-bool", "degree-float",
            "neighbor-bool", "neighbor-float-slot", "prefixes-floats", "prefixes-bools"])
    def test_queries_reject_ids_and_counts_that_are_not_integers(self, ask, witness):
        oracle = QueryOracle(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(ValueError, match=f"^{re.escape(witness)}$"):
            ask(oracle)
        assert oracle.total_queries == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_batched_pairs_count_and_answer_like_per_call_loop(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
        ids = st.integers(0, n - 1)
        asked = data.draw(st.lists(st.tuples(ids, ids)))
        loop, batched = QueryOracle(g), QueryOracle(g)
        expected = [loop.pair(u, v) for u, v in asked]
        us, vs = np.array(asked, dtype=np.int64).reshape(-1, 2).T
        assert batched.pairs(us, vs).tolist() == expected
        assert batched.counts() == loop.counts()

    def test_per_call_queries_reject_out_of_range_arguments(self):
        oracle = QueryOracle(Graph(3, [(0, 1), (1, 2)]))
        bad = [
            lambda: oracle.degree(-1), lambda: oracle.degree(3),
            lambda: oracle.neighbor(1, -1), lambda: oracle.neighbor(0, 5),
            lambda: oracle.neighbor(0, 1), lambda: oracle.neighbor(-1, 0),
            lambda: oracle.neighbor(3, 0),
            lambda: oracle.pair(-1, 0), lambda: oracle.pair(0, 3),
            lambda: oracle.pairs(np.array([0, -1]), np.array([1, 2])),
            lambda: oracle.pairs(np.array([0, 1]), np.array([1, 3])),
            lambda: oracle.pairs(np.array([0, 1]), np.array([1])),
        ]
        for ask in bad:
            with pytest.raises(ValueError):
                ask()
        assert oracle.total_queries == 0
        assert (oracle.degree(1), oracle.neighbor(1, 1), oracle.pair(2, 1)) == (2, 2, True)
        assert oracle.counts() == {"degree": 1, "neighbor": 1, "pair": 1, "total": 3}

    def test_execute_rejects_a_plan_of_another_size(self):
        fam = sample_palettes(SharedPalette(5, 4), 2, seed=0)
        for strategy in ("scan", "classes"):
            plan = plan_queries(5, fam, strategy, delta_hint=2)
            for n in (3, 6):
                oracle = QueryOracle(Graph(n, [(0, 1)]))
                with pytest.raises(ValueError, match=f"oracle has {n} vertices, but the plan's n is 5"):
                    execute_plan(oracle, plan, fam)
                assert oracle.total_queries == 0

    def test_neighbor_prefixes_reject_slots_beyond_the_degree(self):
        oracle = QueryOracle(Graph(3, [(0, 1)]))
        with pytest.raises(ValueError):
            oracle.neighbor_prefixes(np.array([1, 2, 0]))
        assert oracle.total_queries == 0

    def test_classes_issues_exactly_pair_union(self):
        g = random_graph(rng_for(7), 30, 0.25)
        fam = sample_palettes(SharedPalette(30, 9), 3, seed=3)
        plan = plan_queries(30, fam, "classes", delta_hint=None)
        oracle = QueryOracle(g)
        _, issued = execute_plan(oracle, plan, fam)
        assert issued == len(oracle_pair_union(fam))
        assert oracle.pair_queries == issued

    def test_discovery_equals_offline_conflicts_both_strategies(self):
        rng = rng_for(8)
        for trial in range(6):
            g = random_graph(rng, 30, 0.3)
            fam = sample_palettes(SharedPalette(30, 8), 3, seed=trial + 50)
            offline = set(build_conflict(g, fam).graph.edges())
            for strategy, hint in (("scan", max_degree(g)), ("classes", None)):
                plan = plan_queries(30, fam, strategy, delta_hint=hint)
                inst, _ = execute_plan(QueryOracle(g), plan, fam)
                assert set(inst.graph.edges()) == offline


class TestAuto:
    def test_auto_issues_min_of_exact_costs_scan_wins(self):
        g = gen_bipartite(80, 4, seed=1)  # sparse: scanning is cheap
        fam = sample_palettes(SharedPalette(80, 3), 3, seed=0)  # forced classes blowup
        plan_a = plan_queries(80, fam, "auto", delta_hint=4, m_hint=g.m)
        _, issued_auto = execute_plan(QueryOracle(g), plan_a, fam)
        _, issued_scan = execute_plan(
            QueryOracle(g), plan_queries(80, fam, "scan", delta_hint=4), fam
        )
        _, issued_cls = execute_plan(
            QueryOracle(g), plan_queries(80, fam, "classes", delta_hint=None), fam
        )
        assert plan_a.strategy == "scan"
        assert issued_auto == min(issued_scan, issued_cls)

    def test_auto_issues_min_of_exact_costs_classes_wins(self):
        rng = rng_for(9)
        g = random_graph(rng, 60, 0.6)  # dense: scanning is expensive
        fam = sample_palettes(SharedPalette(60, 40), 2, seed=1)  # tiny classes
        plan_a = plan_queries(60, fam, "auto", delta_hint=max_degree(g), m_hint=g.m)
        _, issued_auto = execute_plan(QueryOracle(g), plan_a, fam)
        _, issued_scan = execute_plan(
            QueryOracle(g), plan_queries(60, fam, "scan", delta_hint=max_degree(g)), fam
        )
        _, issued_cls = execute_plan(
            QueryOracle(g), plan_queries(60, fam, "classes", delta_hint=None), fam
        )
        assert plan_a.strategy == "classes"
        assert issued_auto == min(issued_scan, issued_cls)


class TestEndToEnd:
    def test_edgeless_hidden_graph(self):
        g = Graph(12)
        params = params_for(4, 12, 6, 3)
        out = end_to_end_query_color(QueryOracle(g), params, seed=2,
                                     strategy="classes")
        assert out.success
        assert out.queries == out.plan.cost_classes

    def test_coloring_verifies_against_hidden_graph(self):
        rng = rng_for(11)
        ok = 0
        for trial in range(8):
            g = random_graph(rng, 40, 0.15)
            delta = max_degree(g)
            params = params_for(delta, 40, delta + 1, min(delta + 1, 5))
            out = end_to_end_query_color(
                QueryOracle(g), params, seed=trial, strategy="auto",
                delta_hint=delta, m_hint=g.m,
            )
            if out.success:
                ok += 1
                palette = ListAssignment(tuple(tuple(range(params.q)) for _ in range(40)))
                assert verify_coloring(g, palette, out.coloring).ok
        assert ok >= 6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 16), st.sampled_from(["scan", "classes"]),
           st.integers(1, 12).flatmap(lambda q: st.tuples(st.just(q), st.integers(1, q))),
           st.sampled_from([0.5, 0.75, 1.0]), st.sampled_from([0.1, 0.3, 0.6]))
    def test_tail_is_the_offline_reduction(self, seed, strategy, qs, below, p):
        # pruning over the discovered edges alone prunes as over all edges,
        # since an edge whose samples share no color counts for no entry;
        # so the run solves what the offline reduction of its sample gives.
        # A reference degree below the graph's prunes some colors or all.
        g = random_graph(rng_for(seed), 20, p)
        q, s = qs
        params = manual_params(max(1, round(below * max_degree(g))), 0.1, 1.0, q=q, s=s)
        out = end_to_end_query_color(QueryOracle(g), params, seed, strategy=strategy,
                                     delta_hint=max_degree(g), policy="greedy")
        fam = prune(g, sample_palettes(SharedPalette(g.n, q), params.s, seed), params)
        if (fam.pruned.lens == 0).any():
            assert out.solve_result is None and out.coloring is None
            return
        inst = build_conflict(g, fam)
        want = solve(inst.graph, inst.lists, policy="greedy", seed=seed)
        assert out.solve_result.path == want.path
        assert out.coloring == want.coloring

    def test_class_size_moments(self):
        # |V_c| is Binomial(n, s/q): empirical mean within 3 sigma
        n, q, s = 300, 10, 3
        trials = 40
        total = 0
        for seed in range(trials):
            fam = sample_palettes(SharedPalette(n, q), s, seed=seed)
            total += sum(1 for row in fam.sampled if 7 in row)
        mean = total / trials
        expect = n * s / q
        sigma = math.sqrt(n * (s / q) * (1 - s / q) / trials)
        assert abs(mean - expect) <= 3 * sigma
