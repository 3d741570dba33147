import dataclasses
import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from conftest import (
    broken_covers,
    brute_force,
    oracle_color_neighbors,
    oracle_colorable,
    oracle_cover_colorings,
    oracle_finish_lll,
    oracle_greedy_cover,
    oracle_greedy_walk,
    oracle_instance_pairs,
    random_covers,
    random_cover_for,
    random_graph,
    random_lists,
    rng_for,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palettesparse.cover import (
    CorrespondenceCover,
    CoverArrays,
    ListAssignment,
    Rows,
    cover_from_lists,
    cover_sparsity,
    random_cover,
)
from palettesparse.graphcore import Graph, gen_bipartite, gen_locally_sparse
from palettesparse import nibble, sparsify
from palettesparse.nibble import (
    BudgetExceeded,
    InstanceTooLarge,
    InvariantViolation,
    PartialColoring,
    PreconditionViolation,
    ScheduleError,
    WcpParams,
    build_schedule,
    finish_lll,
    greedy_color,
    recursion_margin,
    solve,
    verify_coloring,
    wcp_round,
)
from palettesparse.sparsify import (
    PaletteFamily,
    SharedPalette,
    build_conflict,
    manual_params,
    prune,
    sample_palettes,
)
from palettesparse.streaming import EdgeStream, stream_color


def reference_greedy(g, lists):
    """`oracle_greedy_cover` on the canonical cover of a list instance, with
    the coloring pulled back to color names (cover id c is list entry c):
    the reference for list greedy."""
    coloring, stuck = oracle_greedy_cover(g, cover_from_lists(g, lists))
    if coloring is not None:
        names = lists.lists.values.tolist()
        coloring = PartialColoring({v: names[c] for v, c in coloring.assignment.items()})
    return coloring, stuck


def triangle():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)])


class TestWcpParams:
    def test_eta_zero_degenerates(self):
        p = WcpParams.from_basics(eta=0.0, ell=10.0, d=5.0)
        assert p.keep == 1.0 and p.uncolor == 1.0
        assert p.ell_next == 10.0 and p.d_next == 5.0

    def test_formulas(self):
        p = WcpParams.from_basics(eta=0.5, ell=10.0, d=4.0, beta=0.05)
        base = 1 - 0.5 / 10.0
        assert p.keep == pytest.approx(base ** 8, rel=1e-12)
        assert p.uncolor == pytest.approx(base ** (p.keep * 5.0), rel=1e-12)
        assert p.ell_next == pytest.approx(p.keep * 10.0, rel=1e-12)
        assert p.d_next == pytest.approx(p.keep * p.uncolor * 4.0, rel=1e-12)
        assert p.beta_next == pytest.approx((1 + 36 * 0.5) * 0.05, rel=1e-12)
        assert 0 < p.keep <= 1 and 0 < p.uncolor <= 1
        assert p.ell_next <= p.ell and p.d_next <= p.d

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            WcpParams.from_basics(eta=10.0, ell=5.0, d=2.0)
        with pytest.raises(ValueError):
            WcpParams.from_basics(eta=0.1, ell=0.0, d=2.0)


class TestWcpRound:
    def _instance(self, seed=7):
        g = gen_locally_sparse(14, 5, 100, seed=seed)
        cov = random_cover_for(rng_for(seed + 1), g, 5, 0.7)
        return g, cov

    def test_eta_zero_keeps_everything_colors_nothing(self):
        g, cov = self._instance()
        p = WcpParams.from_basics(eta=0.0, ell=5.0, d=float(cov.max_color_degree()))
        phi, nxt, st = wcp_round(cov, p, seed=3)
        assert len(phi) == 0
        assert st.kept == cov.num_colors
        assert all(nxt.lists[v] == cov.lists[v] for v in range(g.n))

    def test_empty_matchings_color_all_holders(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        cov = CorrespondenceCover([tuple(range(4 * v, 4 * v + 4)) for v in range(6)], {})
        p = WcpParams.from_basics(eta=2.0, ell=4.0, d=1.0)
        phi, nxt, st = wcp_round(cov, p, seed=5)
        act = set(st.activated_ids)
        kept = set(st.kept_ids)
        for v in range(6):
            holders = [c for c in cov.lists[v] if c in act and c in kept]
            if holders:
                assert phi.assignment[v] == min(holders)
            else:
                assert v not in phi.assignment

    def test_structural_invariants(self):
        g, cov = self._instance(11)
        d = float(cov.max_color_degree())
        p = WcpParams.from_basics(eta=0.6, ell=5.0, d=d, beta=0.1)
        nbrs = oracle_color_neighbors(cov)
        for seed in range(25):
            phi, nxt, st = wcp_round(cov, p, seed=seed)
            act, kept = set(st.activated_ids), set(st.kept_ids)
            blanks = set(range(g.n)) - set(phi.assignment)
            in_u = {c for v in blanks for c in cov.lists[v]}
            for v in range(g.n):
                lst = set(cov.lists[v])
                assert set(nxt.lists[v]) <= kept & lst <= lst
                cand = sorted(c for c in cov.lists[v] if c in act and c in kept)
                if cand:
                    assert phi.assignment[v] == cand[0]
                else:
                    assert v not in phi.assignment
                for c in nxt.lists[v]:
                    load = sum(1 for c2 in nbrs.get(c, ()) if c2 in kept and c2 in in_u)
                    assert load <= 2 * p.d_next
            # no two kept colors correspond when both endpoints got colored
            assert verify_coloring(g, cov, phi).ok

    def test_round_clash_raises(self):
        # a clash check that disagrees with the matchings: the round keeps
        # colors by the matchings, and the check reads the declared pairs
        # through `clashing_pairs`, here reporting every pair as clashing
        cov = CorrespondenceCover([(0, 1, 2, 3), (4, 5, 6, 7)], {(0, 1): ((0, 4),)})
        p = WcpParams.from_basics(eta=2.0, ell=4.0, d=1.0)
        seed = next(t for t in range(200) if len(wcp_round(cov, p, seed=t)[0]) == 2)

        def every_pair(cov, at, ids):
            return np.arange(cov.arrays.eu.size)

        with mock.patch.object(nibble, "clashing_pairs", every_pair):
            with pytest.raises(InvariantViolation):
                wcp_round(cov, p, seed=seed)

    def test_precondition_violation(self):
        _, cov = self._instance(13)
        d_small = (cov.max_color_degree() - 1) / 2.0
        p = WcpParams.from_basics(eta=0.5, ell=5.0, d=max(0.1, d_small))
        with pytest.raises(PreconditionViolation):
            wcp_round(cov, p, seed=1)

    def test_keep_frequency_matches_probability(self):
        # survival probability is equalized to exactly keep for every color
        g = gen_locally_sparse(12, 5, 100, seed=7)
        cov = random_cover_for(rng_for(8), g, 5, 0.8)
        d = max(1.0, cov.max_color_degree() / 2)
        p = WcpParams.from_basics(eta=0.9, ell=5.0, d=d, beta=0.1)
        trials = 4000
        hits = {c: 0 for c in np.unique(cov.lists.values).tolist()}
        for t in range(trials):
            _, _, st = wcp_round(cov, p, seed=50_000 + t)
            for c in st.kept_ids:
                hits[c] += 1
        sigma = math.sqrt(p.keep * (1 - p.keep) / trials)
        for c, h in hits.items():
            assert abs(h / trials - p.keep) <= 3 * sigma


class TestBuildSchedule:
    def test_rejects_degenerate_scales(self):
        with pytest.raises(ScheduleError):
            build_schedule(4, 16, 0.1, 0.05)  # d == sqrt(k)
        with pytest.raises(ScheduleError):
            build_schedule(1, 1, 0.1, 0.05)

    def test_rejects_oversized_epsilon(self):
        with pytest.raises(ScheduleError):
            build_schedule(100, 1, 0.1, 1.0)  # margin formula leaves (gamma, 1)

    def test_recursion_exponent_in_range_for_small_epsilon(self):
        for gamma in (0.1, 0.3, 0.5, 0.8):
            for eps in (1e-6, 1e-4, 1e-3, 1e-2):
                assert gamma < recursion_margin(gamma, eps) < 1.0
        sched = build_schedule(200, 1, 0.3, 0.05)
        assert 0.3 < sched.gamma_prime < 1.0

    def test_ratio_monotone_and_terminates(self):
        sched = build_schedule(5000, 1, 0.1, 0.05)
        assert sched.terminated
        ratios = sched.dd / sched.ell
        assert np.all(np.diff(ratios) <= 1e-15)
        # from round 1 the ratio stays at most ln(d / sqrt(k)) / big_c
        assert ratios[1] <= math.log(5000) / sched.big_c * (1 + 1e-12)
        assert sched.i_star <= sched.i_star_bound
        assert sched.dd[sched.i_star] <= sched.ell[sched.i_star] / 100.0

    def test_recursion_identities(self):
        sched = build_schedule(5000, 1, 0.1, 0.05)
        i = sched.i_star
        assert np.allclose(sched.ell[1 : i + 1], sched.keep[:i] * sched.ell[:i],
                           rtol=1e-12, atol=0)
        assert np.allclose(sched.dd[1 : i + 1],
                           sched.keep[:i] * sched.uncolor[:i] * sched.dd[:i],
                           rtol=1e-12, atol=0)
        assert np.all(np.diff(sched.beta[: i + 1]) >= -1e-18)

    def test_no_termination_reported_not_fatal(self):
        # small scales where the iteration cap is hit first
        sched = build_schedule(21, 27, 0.1, 0.3)
        assert sched.terminated is False and sched.i_star is None

    def test_starting_point(self):
        sched = build_schedule(1000, 4, 0.2, 0.01)
        L = math.log(1000 / 2.0)
        assert sched.ell[0] == pytest.approx(4 * 1.2 * 1000 / L, rel=1e-12)
        assert sched.dd[0] == 1000.0
        assert sched.eta == pytest.approx(sched.mu / L, rel=1e-12)
        x = sched.gamma_prime * (1 - math.sqrt(sched.gamma_prime)) / 200.0
        assert sched.beta[0] == pytest.approx(1000.0 ** (-x), rel=1e-12)


class TestFinishLll:
    def test_edgeless_zero_resamples(self):
        g = Graph(5)
        lists = ListAssignment(((1, 2),) * 5)
        out = finish_lll(g, lists, seed=3)
        assert out.resamples == 0 and out.coloring.is_total(5)

    def test_single_edge_boundary(self):
        g = Graph(2, [(0, 1)])
        lists = ListAssignment((tuple(range(8)), tuple(range(8))))
        out = finish_lll(g, lists, seed=4)
        assert verify_coloring(g, lists, out.coloring).ok

    def test_three_regular_instance(self):
        g = gen_locally_sparse(500, 3, 3, seed=6)
        rng = rng_for(9)
        lists = random_lists(rng, 500, 40, 24)
        out = finish_lll(g, lists, seed=10)
        assert out.coloring.is_total(500)
        assert verify_coloring(g, lists, out.coloring).ok

    def test_cover_instance(self):
        g = gen_locally_sparse(60, 3, 3, seed=2)
        cov = random_cover_for(rng_for(3), g, 24, 0.8)
        assert cov.max_color_degree() <= 3  # degree <= 24/8
        out = finish_lll(g, cov, seed=5)
        assert verify_coloring(g, cov, out.coloring).ok

    def test_precondition_violation(self):
        g = triangle()
        lists = ListAssignment(((1, 2),) * 3)  # degree 2 > 2/8
        with pytest.raises(PreconditionViolation):
            finish_lll(g, lists, seed=0)

    def test_haxell_threshold_knob(self):
        g = triangle()
        lists = ListAssignment((tuple(range(6)),) * 3)  # degree 2 <= 6/2
        with pytest.raises(PreconditionViolation):
            finish_lll(g, lists, seed=0, threshold=8.0)
        out = finish_lll(g, lists, seed=0, threshold=2.0)
        assert verify_coloring(g, lists, out.coloring).ok

    def test_budget_cap_enforced(self):
        g = Graph(2, [(0, 1)])
        lists = ListAssignment((tuple(range(8)), tuple(range(8))))
        # find a seed whose initial assignment collides, then forbid resamples
        seed = next(
            s for s in range(200)
            if finish_lll(g, lists, seed=s).resamples > 0
        )
        with pytest.raises(BudgetExceeded):
            finish_lll(g, lists, seed=seed, budget=0)

    def test_deterministic(self):
        g = gen_locally_sparse(100, 3, 3, seed=1)
        lists = random_lists(rng_for(2), 100, 40, 24)
        a = finish_lll(g, lists, seed=11)
        b = finish_lll(g, lists, seed=11)
        assert a.coloring.assignment == b.coloring.assignment
        assert a.resamples == b.resamples


class TestBruteForce:
    def test_triangle_two_colors_uncolorable(self):
        assert brute_force(triangle(), ListAssignment(((1, 2),) * 3)) is None

    def test_triangle_three_colors_colorable(self):
        out = brute_force(triangle(), ListAssignment(((1, 2, 3),) * 3))
        assert out is not None and verify_coloring(triangle(), ListAssignment(((1, 2, 3),) * 3), out).ok

    def test_even_cycle_two_colors(self):
        g = cycle(6)
        out = brute_force(g, ListAssignment(((1, 2),) * 6))
        assert out is not None

    def test_guard(self):
        g = Graph(21)
        with pytest.raises(InstanceTooLarge):
            brute_force(g, ListAssignment(((1,),) * 21))

    def test_incomplete_search_raises(self, monkeypatch):
        monkeypatch.setattr(nibble, "_dfs_color", lambda inst, cap: (None, False))
        with pytest.raises(InvariantViolation):
            brute_force(triangle(), ListAssignment(((1, 2),) * 3))

    def test_agrees_with_enumeration(self):
        rng = rng_for(15)
        for _ in range(80):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n, 0.5)
            lists = random_lists(rng, n, 5, int(rng.integers(1, 4)))
            got = brute_force(g, lists)
            assert (got is not None) == oracle_colorable(g, lists)


class TestVerify:
    def test_empty_assignment_passes(self):
        g = triangle()
        assert verify_coloring(g, ListAssignment(((1,),) * 3), PartialColoring()).ok

    def test_monochromatic_edge_fails_with_witness(self):
        g = Graph(2, [(0, 1)])
        lists = ListAssignment(((1, 2), (1, 2)))
        res = verify_coloring(g, lists, PartialColoring({0: 1, 1: 1}))
        assert not res.ok and res.witness == (0, 1)

    def test_membership_checked(self):
        g = Graph(1)
        res = verify_coloring(g, ListAssignment(((1, 2),)), PartialColoring({0: 5}))
        assert not res.ok

    def test_cover_pairs_checked(self):
        g = Graph(2, [(0, 1)])
        cov = CorrespondenceCover([(0, 1), (2, 3)], {(0, 1): [(0, 2)]})
        assert not verify_coloring(g, cov, PartialColoring({0: 0, 1: 2})).ok
        assert verify_coloring(g, cov, PartialColoring({0: 0, 1: 3})).ok

    @pytest.mark.parametrize("phi, message", [
        ({0: 1.5}, "color 1.5"), ({0: 2 ** 70}, f"color {2 ** 70}"),
        ({0: True}, "color True"), ({1.0: 1}, "vertex 1.0"), ({False: 1}, "vertex False"),
    ])
    def test_a_color_or_vertex_that_is_no_integer_id_is_rejected(self, phi, message):
        # 1.5 was read as color 1 and passed; 2**70 raised OverflowError
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError, match=f"^{message} is not an integer id within int64$"):
            verify_coloring(g, ListAssignment(((1, 2), (1, 2))), PartialColoring(phi))

    @pytest.mark.parametrize("at, ids, message", [
        ([0.7], [1.9], "vertex 0.7"), ([0], np.array([1.0]), "color 1.0"),
        ([0], [np.True_], "color np.True_"), ([0], [2 ** 63], f"color {2 ** 63}"),
    ])
    def test_from_arrays_takes_integer_ids_only(self, at, ids, message):
        # [0.7], [1.9] became {0: 1}
        with pytest.raises(ValueError, match=f"^{message} is not an integer id within int64$"):
            PartialColoring.from_arrays(at, ids)
        assert PartialColoring.from_arrays(np.array([0], np.int32), [np.uint8(1)]).assignment \
            == {0: 1}

    def test_from_arrays_takes_int64_arrays_as_they_are(self):
        at, ids = np.arange(3), np.array([2, 0, 1])
        phi = PartialColoring.from_arrays(at, ids)
        assert all(a is b for a, b in zip(phi.arrays(), (at, ids)))

    def test_numpy_and_python_paths_agree(self):
        rng = rng_for(18)
        g = random_graph(rng, 120, 0.6)
        assert g.m > 4096
        lists = ListAssignment(tuple((int(rng.integers(5)),) for _ in range(120)))
        phi = PartialColoring({v: lists.lists[v][0] for v in range(120)})
        fast = verify_coloring(g, lists, phi)
        slow_edges = [
            (u, v) for u, v in g.edges()
            if phi.assignment[u] == phi.assignment[v]
        ]
        assert fast.ok == (not slow_edges)
        assert fast.witness == (slow_edges[0] if slow_edges else None)

    def test_cover_pair_sharing_a_color_still_clashes(self):
        # color 0 is declared against both 4 and 5 on one edge (not a valid
        # matching); every declared pair is a clash, the first one included
        g = Graph(2, [(0, 1)])
        cov = CorrespondenceCover([(0, 1), (4, 5)], {(0, 1): ((0, 4), (0, 5))})
        for b in (4, 5):
            res = verify_coloring(g, cov, PartialColoring({0: 0, 1: b}))
            assert not res.ok and res.witness == (0, 1)
        assert verify_coloring(g, cov, PartialColoring({0: 1, 1: 4})).ok

    @pytest.mark.parametrize("policy", ["greedy", "auto"])
    def test_pairs_off_the_vertex_range_clash_across_no_edge(self, policy):
        # pairs with an end outside 0..n-1 lie on no edge of g: they are
        # neither clashes nor an index past the vertices
        g = Graph(3, [(0, 1), (1, 2)])
        off = {(0, 5): ((0, 1),), (-1, 1): ((7, 1),), (2, 9): ((2, 8),)}
        cov = CorrespondenceCover(((0,), (1,), (2,)), off)
        res = solve(g, cov, policy=policy, seed=0)
        assert res.coloring.assignment == {0: 0, 1: 1, 2: 2}
        assert verify_coloring(g, cov, res.coloring).ok
        # an edge with two clashing pairs is its witness once, off-range
        # and non-edge pairs on the same colors aside
        clash = CorrespondenceCover(((0, 3), (1,), (2,)), {
            **off, (0, 2): ((0, 2),), (1, 2): ((1, 2),), (0, 1): ((0, 1), (3, 1))})
        phi = PartialColoring({2: 2, 1: 1, 0: 0})
        assert verify_coloring(g, clash, phi).witness == (0, 1)
        assert nibble._Instance(g, clash).clashing_edges(
            np.arange(3), np.arange(3)) == [(0, 1), (1, 2)]
        assert not solve(g, clash, policy=policy, seed=0).success

    def test_negative_color_ids_on_a_large_graph(self):
        rng = rng_for(19)
        g = random_graph(rng, 120, 0.6)
        lists = ListAssignment(tuple((-1, -2) for _ in range(120)))
        phi = PartialColoring({v: -1 - (v % 2) for v in range(120)})
        first = next((u, v) for u, v in g.edges() if (u - v) % 2 == 0)
        res = verify_coloring(g, lists, phi)
        assert not res.ok and res.witness == first


PATH = (Graph(12, [(v, v + 1) for v in range(11)]), ListAssignment(((0, 1),) * 12))
PATH_STUCK_AT_THE_END = (Graph(13, [(v, v + 1) for v in range(12)]),
                         ListAssignment(((0, 1),) * 12 + ((0,),)))


@st.composite
def list_instances(draw):
    """(graph, lists) with arbitrary ids: rows drawn from a small pool, some
    of them empty or the whole pool, or one row shared by every vertex;
    vertices may be isolated."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    pool = draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=6, unique=True))
    row = st.sets(st.sampled_from(pool)).map(tuple) | st.just(tuple(pool))
    if draw(st.booleans()):
        rows = (draw(row),) * n
    else:
        rows = tuple(draw(row) for _ in range(n))
    return Graph(n, edges), ListAssignment(rows)


def unchecked_lists(rows) -> ListAssignment:
    """A `ListAssignment` of `rows` built past its check, so that a row may
    hold an id twice."""
    lists = object.__new__(ListAssignment)
    object.__setattr__(lists, "lists", Rows.of(rows))
    return lists


@st.composite
def repeat_instances(draw):
    """(graph of 1..8 vertices, rows of 1..4 ids from 0..3 that may hold
    an id twice), for `unchecked_lists`."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    row = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(sorted).map(tuple)
    return Graph(n, edges), tuple(draw(row) for _ in range(n))


# (the list of every vertex, of q >= 3 entries; whether greedy ranks its
# ids) of each list kind: only whole palettes lo..lo + q - 1 skip ranking
PALETTE_KINDS = {
    "0..q-1": (lambda q: tuple(range(q)), False),
    "lo..hi": (lambda q: tuple(range(7, 7 + q)), False),
    "gaps": (lambda q: tuple(range(-5, 3 * q - 5, 3)), True),
    # q entries spanning q ids, one of them twice: not strict
    "repeat": (lambda q: (0, 0, *range(2, q)), True),
}


@st.composite
def palette_instances(draw):
    """(graph of 1..9 vertices, every list the same row of a PALETTE_KINDS
    kind, the kind, the table bound): the rounds assume distinct codes,
    which `ListAssignment` guarantees, so a row with a repeat is walked."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    kind = draw(st.sampled_from(sorted(PALETTE_KINDS)))
    row = PALETTE_KINDS[kind][0](draw(st.integers(3, 6)))
    cells = draw(st.sampled_from([0] if kind == "repeat" else [0, 2 ** 62]))
    return Graph(n, edges), (row,) * n, kind, cells


class TestGreedy:
    @settings(max_examples=150, deadline=None)
    @given(palette_instances())
    def test_whole_palettes_match_the_walk(self, inst):
        g, rows, kind, cells = inst
        lists = unchecked_lists(rows) if kind == "repeat" else ListAssignment(rows)
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells), \
                mock.patch.object(nibble, "ranked", wraps=nibble.ranked) as ranked:
            got = greedy_color(g, lists)
        want = oracle_greedy_walk(g, rows)
        assert got[1] == want[1]
        assert (got[0] and got[0].assignment) == (want[0] and want[0].assignment)
        assert ranked.called == PALETTE_KINDS[kind][1]

    @settings(max_examples=150, deadline=None)
    @given(list_instances())
    def test_matches_the_cover_reference(self, inst):
        g, lists = inst
        got, want = greedy_color(g, lists), reference_greedy(g, lists)
        assert got[1] == want[1]
        assert (got[0] and got[0].assignment) == (want[0] and want[0].assignment)

    @settings(max_examples=200, deadline=None)
    @given(list_instances(), st.sampled_from([0, 2 ** 62]))
    @example((Graph(0), ListAssignment(())), 2 ** 62)
    @example((Graph(1), ListAssignment(((),))), 2 ** 62)
    @example((Graph(2), ListAssignment(((7,), ()))), 2 ** 62)
    # a path in index order with lists {0, 1}: each round settles one
    # more vertex, so the rounds stop first and the walk finishes
    @example(PATH, 2 ** 62)
    # the second end of an edge with one shared id is stuck in the prefix
    # the rounds settle
    @example((Graph(2, [(0, 1)]), ListAssignment(((5,), (5,)))), 2 ** 62)
    # the path plus an end whose only id its neighbour takes: stuck in the
    # walk's suffix
    @example(PATH_STUCK_AT_THE_END, 2 ** 62)
    @example(PATH, 0)
    # strict rows of one width, each spanning it, that are not one palette:
    # row 0 does not start at the least id
    @example((Graph(2, [(0, 1)]), ListAssignment(((1, 2), (0, 1)))), 2 ** 62)
    def test_matches_the_walk(self, inst, cells):
        # with the n x q bound at 0 no round runs and the walk colors every
        # vertex; huge, the rounds run on every instance with an id
        g, lists = inst
        want = oracle_greedy_walk(g, lists.lists)
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            got = greedy_color(g, lists)
        assert got[1] == want[1]
        assert (got[0] and got[0].assignment) == (want[0] and want[0].assignment)

    @settings(max_examples=200, deadline=None)
    @given(repeat_instances(), st.sampled_from([0, 2 ** 62]))
    # both copies of a blocked id filled the rounds' window and left vertex
    # 3 uncolored, where the walk colors all six
    @example((Graph(6, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5)]),
              ((0, 1, 1, 2), (0, 2, 2), (1, 1, 2, 3), (0, 0, 1, 2), (3,), (0, 2))), 2 ** 62)
    def test_rows_with_repeats_match_the_walk(self, inst, cells):
        g, rows = inst
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            got = greedy_color(g, unchecked_lists(rows))
        want = oracle_greedy_walk(g, rows)
        assert got[1] == want[1]
        assert (got[0] and got[0].assignment) == (want[0] and want[0].assignment)

    def test_rounds_leave_the_walk_nothing_on_a_sparse_stream(self):
        # stream-sparse's regime (q = 4*delta, s = 8): the rounds settle
        # the whole order, while on the path they stop and the walk
        # colors a suffix
        g = gen_bipartite(2000, 16, seed=1)
        stream = EdgeStream.from_graph(g, permute_seed=0)
        params = manual_params(16, 0.1, 1.5, q=64, s=8)
        for seed in range(3):
            with mock.patch.object(nibble, "_greedy_walk", wraps=nibble._greedy_walk) as walk:
                out = stream_color(stream, g.n, params, seed, policy="greedy")
            assert out.solve_result.chosen == "greedy"
            assert walk.call_count == 0
        with mock.patch.object(nibble, "_greedy_walk", wraps=nibble._greedy_walk) as walk:
            coloring, stuck = greedy_color(*PATH)
        assert stuck is None
        assert coloring.assignment == oracle_greedy_walk(PATH[0], PATH[1].lists)[0].assignment
        assert walk.call_count == 1 and 0 < len(walk.call_args.args[0]) < PATH[0].n

    def test_peak_stays_under_six_words_per_entry(self):
        # n = 2*10^4, 480,000 entries: before the rounds, greedy peaked at
        # 25.3 MB here (55 bytes per entry), at its candidate sort
        import tracemalloc

        g = gen_bipartite(20_000, 16, seed=1)
        lists = ListAssignment(sample_palettes(SharedPalette(g.n, 33), 24, seed=0).sampled)
        tracemalloc.start()
        try:
            coloring, stuck = greedy_color(g, lists)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stuck is None and verify_coloring(g, lists, coloring).ok
        assert peak < 6 * 8 * lists.lists.values.size

    def test_paths_agree(self):
        # the ids 0..8 are their own ranks, so the list codes are the ids;
        # the canonical cover runs the same rounds on codes that are places
        rng = rng_for(23)
        for _ in range(15):
            n = int(rng.integers(5, 40))
            g = random_graph(rng, n, 0.3)
            lists = random_lists(rng, n, 9, 4)
            generic = reference_greedy(g, lists)
            plain = greedy_color(g, lists)
            cov = greedy_color(g, cover_from_lists(g, lists))
            assert generic[1] == plain[1] == cov[1]
            if generic[0] is not None:
                assert generic[0].assignment == plain[0].assignment
                names = lists.lists.values
                assert {v: int(names[c]) for v, c in cov[0].assignment.items()} == \
                    plain[0].assignment

    def test_rounds_settle_a_prefix_of_the_path_cover(self):
        # the canonical cover of the path: the rounds stop with a prefix
        # settled and the walk colors the rest, as on its lists
        g, lists = PATH
        cov = cover_from_lists(g, lists)
        with mock.patch.object(nibble, "_greedy_walk", wraps=nibble._greedy_walk) as walk:
            coloring, stuck = greedy_color(g, cov)
        assert stuck is None
        assert coloring.assignment == oracle_greedy_cover(g, cov)[0].assignment
        assert walk.call_count == 1 and 0 < len(walk.call_args.args[0]) < g.n

    def test_rounds_settle_a_conflict_cover(self):
        # cover-finish's conflict covers (64 colors, density 0.05, s = 48):
        # the rounds settle the whole order and the walk is not called
        g = gen_bipartite(1000, 8, seed=4)
        cov = random_cover(g, 64, 0.05, seed=0)
        params = manual_params(8, 0.1, 0.05, q=64, s=48)
        for seed in range(2):
            fam = prune(cov, sample_palettes(cov.lists, params.s, seed), params)
            conflict = build_conflict(g, fam, cover=cov)
            with mock.patch.object(nibble, "_greedy_walk", wraps=nibble._greedy_walk) as walk:
                got = greedy_color(conflict.graph, conflict.cover)
            assert walk.call_count == 0
            want = oracle_greedy_cover(conflict.graph, conflict.cover)
            assert got[1] == want[1] is None
            assert got[0].assignment == want[0].assignment
            assert verify_coloring(g, cov, got[0]).ok

    def test_list_instances_with_any_ids_match_the_reference(self):
        # greedy_color ranks list ids before the vectorized path; ranking
        # keeps their order, so it agrees with the generic reference on
        # negative, huge and sparse ids, and on empty lists
        rng = rng_for(25)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            g = random_graph(rng, n, 0.3)
            pool = rng.choice(2 ** 50, size=12, replace=False) - 2 ** 49
            low = 0 if trial % 5 == 0 else 1
            lists = ListAssignment(tuple(
                tuple(rng.choice(pool, size=int(rng.integers(low, 5)), replace=False).tolist())
                for _ in range(n)))
            got = greedy_color(g, lists)
            want = reference_greedy(g, lists)
            assert got[1] == want[1]
            assert (got[0] and got[0].assignment) == (want[0] and want[0].assignment)

    def test_many_distinct_ids_take_the_join_path(self):
        # a few ids per list from a large pool on a sparse graph: n x q is
        # far above the entries plus both directions of the edges, so the
        # count kernels join entries against rows, and agree with the table
        # they skip
        from palettesparse import sparsify

        rng = rng_for(26)
        for _ in range(5):
            n = 200
            g = random_graph(rng, n, 0.01)
            pool = rng.choice(2 ** 50, size=2000, replace=False) - 2 ** 49
            lists = ListAssignment(tuple(
                tuple(rng.choice(pool, size=int(rng.integers(1, 4)), replace=False).tolist())
                for _ in range(n)))
            q = np.unique(lists.lists.values).size
            assert n * q > sparsify._TABLE_CELLS * (lists.lists.values.size + 2 * g.m)
            got = greedy_color(g, lists)
            with mock.patch.object(sparsify, "_TABLE_CELLS", 2 ** 62):
                table = greedy_color(g, lists)
            want = reference_greedy(g, lists)
            assert got[1] == table[1] == want[1]
            assert (got[0] and got[0].assignment) == (table[0] and table[0].assignment) == \
                (want[0] and want[0].assignment)

    def test_disjoint_lists_on_a_sparse_graph_stay_small(self):
        # 1,000 vertices on a path with 8 ids each, no id shared: n x q is
        # 8 million cells, while the entries and edges are 9,000
        import tracemalloc

        n = 1000
        g = Graph(n, [(v, v + 1) for v in range(n - 1)])
        lists = ListAssignment(tuple(tuple(range(8 * v, 8 * v + 8)) for v in range(n)))
        fam = PaletteFamily(lists.lists)
        params = manual_params(2, 0.1, 1.0, q=8, s=8)
        peaks = []
        tracemalloc.start()
        try:
            for call in (lambda: greedy_color(g, lists), lambda: prune(g, fam, params),
                         lambda: build_conflict(g, fam)):
                tracemalloc.reset_peak()
                out = call()
                peaks.append(tracemalloc.get_traced_memory()[1])
                del out
        finally:
            tracemalloc.stop()
        coloring, stuck = greedy_color(g, lists)
        assert stuck is None
        assert coloring.assignment == {v: 8 * v for v in range(n)}
        assert prune(g, fam, params).pruned == lists.lists
        assert build_conflict(g, fam).graph.m == 0
        assert max(peaks) < 16 * 2 ** 20, peaks

    def test_full_palette_shortcut_agrees(self):
        rng = rng_for(24)
        for _ in range(10):
            n = int(rng.integers(5, 25))
            g = random_graph(rng, n, 0.4)
            q = int(rng.integers(3, 8))
            lists = ListAssignment((tuple(range(q)),) * n)
            # one shared row: no per-entry scores, each row is its own candidate order
            a = greedy_color(g, lists)
            b = reference_greedy(g, lists)
            if a[0] is None:
                assert b[0] is None
            else:
                assert a[0].assignment == b[0].assignment
            # an isolated vertex with another list comes last in the order
            # and sends the same instance through the scored candidates
            rows = ListAssignment(tuple(lists.lists) + ((-1,),))
            c = greedy_color(Graph(n + 1, list(g.edges())), rows)
            assert c[1] == a[1]
            if a[0] is not None:
                assert c[0].assignment == {**a[0].assignment, n: -1}
            # greedy_color takes this path for any q shared ids
            same = ListAssignment((tuple(range(-5, 3 * q - 5, 3)),) * n)
            got, want = greedy_color(g, same), reference_greedy(g, same)
            assert got[1] == want[1]
            assert (got[0] and got[0].assignment) == (want[0] and want[0].assignment)


def outcome(call):
    """What a solver call returns, or the type and text of what it raises."""
    try:
        return call()
    except (BudgetExceeded, PreconditionViolation) as e:
        return type(e), str(e)


@st.composite
def pair_runs(draw, max_n=7):
    """(graph, cover) whose pair arrays are built by hand: runs of pairs on
    edges either way round (eu > ev too, which no cover builder makes), on
    non-edges, on one vertex twice and with ends out of 0..n-1."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    span = draw(st.integers(1, 5))
    ends = st.sampled_from(pairs).flatmap(lambda e: st.sampled_from([e, e[::-1]])) if pairs \
        else st.nothing()
    ids = st.integers(-2, n + 1)
    runs = draw(st.lists(st.tuples(ends | st.tuples(ids, ids), st.integers(1, 3)), max_size=8))
    eu = np.array([u for (u, _), k in runs for _ in range(k)], dtype=np.int64)
    ev = np.array([v for (_, v), k in runs for _ in range(k)], dtype=np.int64)
    rank = st.lists(st.integers(0, span - 1), min_size=eu.size, max_size=eu.size)
    ra, rb = (np.array(draw(rank), dtype=np.int64) for _ in range(2))
    none = np.zeros(0, dtype=np.int64)
    arrays = CoverArrays(np.arange(span), eu, ev, ra, rb, none)
    return g, CorrespondenceCover._of(Rows(none, np.zeros(n + 1, dtype=np.int64)), arrays)


class TestPairSlots:
    """`_Instance.pairs` finds each pair run's CSR slots by one search of
    the asked rows, never through the graph's slot table, as the oracle
    does."""

    @settings(max_examples=150, deadline=None)
    @given(random_covers() | broken_covers() | pair_runs())
    @example((Graph(3, [(0, 1), (1, 2)]), CorrespondenceCover(
        ((0,), (1,), (2,)), {(0, 5): ((0, 1),), (-1, 1): ((7, 1),), (2, 1): ((2, 1),)})))
    def test_match_a_search_of_the_rows(self, inst):
        g, cov = inst
        with mock.patch.object(Graph, "slot_edge", side_effect=AssertionError("slot table")):
            got = nibble._Instance(g, cov).pairs
        want = oracle_instance_pairs(g, cov.arrays)
        assert got[2] == want[2]
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


class TestCoverSolverAgainstOracles:
    """The finisher, greedy and backtracking on covers read the pair arrays;
    the oracles read dict partners made from the `matchings` view. Broken
    covers (CC1 or CC3 violated, pairs on non-edges) are solved as given."""

    @settings(max_examples=150, deadline=None)
    @given(random_covers() | broken_covers(), st.integers(0, 2 ** 16), st.integers(0, 30))
    def test_finisher(self, inst, seed, budget):
        g, cov = inst
        # a tiny threshold lets every instance past the precondition
        got = outcome(lambda: finish_lll(g, cov, seed, threshold=1e-9, budget=budget))
        want = outcome(lambda: oracle_finish_lll(g, cov, seed, budget))
        if isinstance(want, tuple) and isinstance(want[0], PartialColoring):
            got = (got.coloring.assignment, got.resamples)
            want = (want[0].assignment, want[1])
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(random_covers() | broken_covers(), st.sampled_from([0, 2 ** 62]))
    def test_greedy(self, inst, cells):
        # with the n x q bound at 0 the walk colors every vertex; huge, the
        # settling rounds run on every cover with a color
        g, cov = inst
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            got = greedy_color(g, cov)
        want = oracle_greedy_cover(g, cov)
        assert got[1] == want[1]
        assert (got[0] and got[0].assignment) == (want[0] and want[0].assignment)

    @settings(max_examples=100, deadline=None)
    @given(broken_covers(max_n=6, max_list=3))
    def test_backtracking(self, inst):
        g, cov = inst
        got = brute_force(g, cov)
        proper = oracle_cover_colorings(g, cov)
        if got is None:
            assert proper == []
        else:
            assert tuple(got.assignment[v] for v in range(g.n)) in proper

    @pytest.mark.parametrize("policy", ["lll", "greedy", "auto"])
    def test_no_stage_reads_the_matchings_view(self, monkeypatch, policy):
        g = gen_locally_sparse(40, 3, 3, seed=3)
        ring = cycle(5)
        # two colors matched straight across an odd cycle: uncolorable, so
        # auto runs every stage, backtracking last
        straight = CorrespondenceCover([(2 * v, 2 * v + 1) for v in range(5)], {
            (u, v): [(2 * u, 2 * v), (2 * u + 1, 2 * v + 1)] for u, v in ring.edges()})
        solvable = random_cover(g, 24, 0.1, seed=1)
        monkeypatch.setattr(CorrespondenceCover, "matchings", property(
            lambda cov: pytest.fail("a solver stage read CorrespondenceCover.matchings")))
        assert solve(g, solvable, policy=policy, seed=2).success
        res = solve(ring, straight, policy=policy, seed=2)
        assert not res.success
        if policy == "auto":
            assert res.path == "greedy>nibble>lll>backtracking"


class TestSolve:
    def test_triangle_identity_correspondences_greedy(self):
        g = triangle()
        cov = cover_from_lists(g, ListAssignment(((1, 2, 3),) * 3))
        res = solve(g, cov, seed=0)
        assert res.success and res.chosen == "greedy"
        assert verify_coloring(g, cov, res.coloring).ok

    def test_odd_cycle_two_colors_failure_report(self):
        g = cycle(5)
        res = solve(g, ListAssignment(((1, 2),) * 5), seed=0)
        assert not res.success
        names = [s.name for s in res.stages if s.attempted]
        assert names == ["greedy", "nibble", "lll", "backtracking"]
        assert all(s.reason for s in res.stages)
        assert "uncolorable" in res.stages[-1].reason

    def test_matches_brute_force_on_small_instances(self):
        rng = rng_for(33)
        for trial in range(150):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n, 0.5)
            if trial % 2:
                obj = random_lists(rng, n, 6, int(rng.integers(1, 4)))
            else:
                obj = random_cover_for(rng, g, int(rng.integers(1, 4)), 0.7)
            want = brute_force(g, obj) is not None
            res = solve(g, obj, seed=trial)
            assert res.success == want
            if res.success:
                assert verify_coloring(g, obj, res.coloring).ok

    def test_policy_lll_direct(self):
        g = gen_locally_sparse(50, 3, 3, seed=4)
        lists = random_lists(rng_for(5), 50, 40, 24)
        res = solve(g, lists, policy="lll", seed=1)
        assert res.success and res.chosen == "lll"
        assert "resamples" in res.stages[0].stats

    def test_policy_nibble_full_run(self):
        # engineered so the schedule is admissible at desk scale: bipartite
        # graph (cover sparsity 1), lists comfortably above the starting
        # scale 5.2*d/ln(d)
        g, lists = admitted_instance()
        res = solve(g, lists, policy="nibble", seed=2,
                    schedule_gamma=0.3, schedule_epsilon=1.0)
        assert res.success, res.stages[0].reason
        assert res.stages[0].stats["rounds"] > 0
        assert verify_coloring(g, lists, res.coloring).ok

    def test_nibble_reports_inadmissible_schedule(self):
        g = triangle()
        res = solve(g, ListAssignment(((1, 2, 3),) * 3), policy="nibble", seed=0)
        assert not res.success
        assert res.stages[0].reason

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            solve(triangle(), ListAssignment(((1,),) * 3), policy="magic")

    def test_never_returns_improper(self):
        rng = rng_for(44)
        for trial in range(60):
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n, 0.6)
            obj = random_lists(rng, n, 4, int(rng.integers(1, 4)))
            res = solve(g, obj, seed=trial)
            if res.success:
                assert verify_coloring(g, obj, res.coloring).ok


def nibble_lists(seed, n, palette, size):
    """Sorted lists of `size` distinct ids from range(palette), one draw per vertex in turn."""
    rng = rng_for(seed)
    draw = rng.choice
    return ListAssignment(tuple(tuple(sorted(draw(palette, size=size, replace=False).tolist()))
                                for _ in range(n)))


def admitted_instance():
    """`test_policy_nibble_full_run`'s instance, which the schedule at
    gamma=0.3, epsilon=1.0 admits and runs for hundreds of rounds."""
    return gen_bipartite(80, 16, seed=3), nibble_lists(5, 80, 50, 28)


class TestNibbleStage:
    """One exact reason, with its stats, for every way the nibble stage stops."""

    def stage(self, g, lists, seed=0, gamma=0.1, epsilon=0.3):
        res = solve(g, lists, policy="nibble", seed=seed, schedule_gamma=gamma,
                    schedule_epsilon=epsilon)
        rec = res.stages[0]
        assert res.success == rec.succeeded == (rec.reason == "")
        return rec.reason, rec.stats

    def test_degree_scale_incompatible_with_sparsity(self):
        assert self.stage(Graph(2, [(0, 1)]), ListAssignment(((1, 2), (1, 2)))) == \
            ("degree scale d=1 incompatible with sparsity k=1", {})

    def test_schedule_rejected(self):
        assert self.stage(cycle(4), ListAssignment(((1, 2, 3),) * 4), epsilon=1.0) == \
            ("schedule rejected: epsilon=1.0 too large for gamma=0.1", {})

    def test_schedule_did_not_terminate(self):
        assert self.stage(cycle(4), ListAssignment(((1, 2, 3),) * 4)) == \
            ("schedule did not terminate within 0 rounds", {})

    def test_lists_smaller_than_the_starting_scale(self):
        g, _ = admitted_instance()
        assert self.stage(g, nibble_lists(5, 80, 50, 10), gamma=0.3, epsilon=1.0) == \
            ("lists smaller than the schedule's starting scale 20.01", {})

    def test_round_zero_hypotheses_failed(self):
        # the trimmed starting cover meets the schedule's round 0 scales by
        # construction, so a schedule with a quarter of the degree scale
        # stands in for a cover that does not
        build = nibble.build_schedule
        g, lists = admitted_instance()
        with mock.patch.object(nibble, "build_schedule",
                               lambda *a: dataclasses.replace(build(*a), dd=build(*a).dd / 4)):
            assert self.stage(g, lists, seed=2, gamma=0.3, epsilon=1.0) == \
                ("round 0 hypotheses failed: max color degree 14 > 2*d = 7", {"rounds": 0})

    def test_round_conclusions_failed(self):
        # with every beta 0 the list band is [ell/2, ell], which round 0's
        # conclusions meet and round 1's do not, on any of the tries
        build = nibble.build_schedule
        g, lists = admitted_instance()
        with mock.patch.object(nibble, "build_schedule",
                               lambda *a: dataclasses.replace(build(*a), beta=0 * build(*a).beta)):
            assert self.stage(g, lists, seed=2, gamma=0.3, epsilon=1.0) == \
                ("round 1 conclusions failed after 20 tries: next list of vertex 0 too large",
                 {"rounds": 1})

    def test_round_conclusions_name_the_vertex_in_g(self, monkeypatch):
        # from round 1 on, every conclusions check flags the next cover's
        # last uncolored vertex, the last with a nonempty row; its colors
        # give its id in g (the canonical cover's ids are list entries)
        g, lists = admitted_instance()
        scales, ells, flagged = nibble._against_scales, set(), []

        def flag_last(cov, ell, d, beta):
            dmax, large, small, heavy = scales(cov, ell, d, beta)
            ells.add(ell)  # round 0's hypotheses, round 0's conclusions, ...
            if len(ells) > 2:
                v = int(np.flatnonzero(cov.lists.lens)[-1])
                large[v] = True
                flagged.append((v, int(lists.lists.owner[cov.lists[v][0]])))
            return dmax, large, small, heavy

        monkeypatch.setattr(nibble, "_against_scales", flag_last)
        reason, stats = self.stage(g, lists, seed=2, gamma=0.3, epsilon=1.0)
        # on the last try, g's 78 and 79 are colored
        assert flagged[-1] == (77, 77)
        assert (reason, stats) == ("round 1 conclusions failed after 20 tries: "
                                   "next list of vertex 77 too large", {"rounds": 1})

    @pytest.mark.parametrize("seed, stats, digest", [
        (2, {"rounds": 417, "resamples": 0}, "bc658ede861b29de"),
        (3, {"rounds": 417, "resamples": 0}, "6dc0012e70e61901"),
        (4, {"rounds": 238}, "2e8964db870f5ecd"),
    ])
    def test_admitted_successes_are_pinned(self, seed, stats, digest):
        # the one admitted instance that the stage colors: its rounds, its
        # finisher's resamples (none when the rounds color every vertex)
        # and a digest of its coloring
        g, lists = admitted_instance()
        res = solve(g, lists, policy="nibble", seed=seed, schedule_gamma=0.3,
                    schedule_epsilon=1.0)
        got = json.dumps(sorted(res.coloring.assignment.items())).encode()
        assert (res.stages[0].reason, res.stages[0].stats) == ("", stats)
        assert hashlib.sha256(got).hexdigest()[:16] == digest

    def test_finisher_precondition_failed_after_rounds(self):
        reason, stats = self.stage(gen_bipartite(12, 5, seed=92), nibble_lists(92, 12, 77, 41),
                                   seed=92, gamma=0.3, epsilon=1.0)
        assert (reason, stats) == ("finisher precondition failed after rounds: "
                                   "some vertex has an empty list", {"rounds": 140})

    @settings(max_examples=60, deadline=None)
    @given(inst=broken_covers(), policy=st.sampled_from(["nibble", "auto"]))
    @example(inst=(Graph(2, [(0, 1)]), CorrespondenceCover([(1, 2), (1, 3)], {(0, 1): ((1, 1),)})),
             policy="nibble")
    def test_broken_covers_get_a_stage_outcome(self, inst, policy):
        # a self-matched pair is no edge of the cover graph, so admission
        # audits the cover as given and never raises
        g, cov = inst
        res = solve(g, cov, policy=policy, seed=0)
        assert all(s.succeeded or s.reason for s in res.stages if s.attempted)
        if res.success:
            assert verify_coloring(g, cov, res.coloring).ok

    @settings(max_examples=40, deadline=None)
    @given(d=st.floats(2.0, 2000.0), k=st.integers(1, 40), gamma=st.floats(0.05, 0.9),
           epsilon=st.floats(0.2, 1.0))
    @example(d=14.0, k=1, gamma=0.3, epsilon=1.0)
    @example(d=16.0, k=1, gamma=0.1, epsilon=0.3)
    def test_each_round_starts_where_the_last_one_ends(self, d, k, gamma, epsilon):
        # round i + 1's scales are round i's next scales, with a beta no
        # smaller: so a cover that passed round i's conclusions passes round
        # i + 1's hypotheses, which the stage checks only for round 0
        try:
            sched = build_schedule(d, k, gamma, epsilon)
        except ScheduleError:
            return
        for i in range(sched.ell.size - 1):
            p, q = sched.round_params(i), sched.round_params(i + 1)
            assert (q.ell, q.d) == (p.ell_next, p.d_next)
            assert q.beta >= p.beta_next

    def test_one_check_one_count_and_one_graph(self, monkeypatch):
        # an admitted run of hundreds of rounds checks the round hypotheses
        # once, counts each cover's color degrees at most once (every read
        # of a cover gets the same array), builds one graph, the finisher's,
        # and cuts its cover twice
        from palettesparse import cover as cover_mod

        checks, reads, graphs, cuts = [], [], [], []
        hypotheses, degrees, build = nibble._round_hypotheses, cover_mod.color_degrees, Graph
        restrict = nibble.restrict_cover

        def check(cov, p):
            checks.append(p)
            return hypotheses(cov, p)

        def count(cov):
            reads.append((cov, degrees(cov)))
            return reads[-1][1]

        def graph(*args):
            graphs.append(args)
            return build(*args)

        def cut(*args):
            cuts.append(args)
            return restrict(*args)

        monkeypatch.setattr(nibble, "_round_hypotheses", check)
        monkeypatch.setattr(nibble, "Graph", graph)
        monkeypatch.setattr(nibble, "restrict_cover", cut)
        for mod in (cover_mod, nibble, sparsify):
            monkeypatch.setattr(mod, "color_degrees", count)
        g, lists = admitted_instance()
        assert self.stage(g, lists, seed=2, gamma=0.3, epsilon=1.0) == \
            ("", {"rounds": 417, "resamples": 0})
        assert len(checks) == 1
        assert len(graphs) <= 1
        # the trim and the finisher's cut: the rounds cut no cover
        assert len(cuts) == 2
        per_cover = {}
        for cov, deg in reads:
            per_cover.setdefault(id(cov), set()).add(id(deg))
        assert len(per_cover) > 417
        assert all(len(arrays) == 1 for arrays in per_cover.values())
