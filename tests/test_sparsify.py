import math

import numpy as np
import pytest
from conftest import random_cover_for, random_graph, rng_for

from palettesparse.cover import (
    CorrespondenceCover,
    ListAssignment,
    cover_from_lists,
    validate_cover,
)
from palettesparse.graphcore import Graph, gen_locally_sparse
from palettesparse.nibble import solve, verify_coloring
from palettesparse.sparsify import (
    InvalidParameters,
    PaletteFamily,
    PaletteTooSmall,
    SharedPalette,
    build_conflict,
    derive_params,
    manual_params,
    prune,
    sample_palettes,
)


class TestDeriveParams:
    def test_closed_form_against_high_precision_oracle(self):
        # frozen from a 50-digit evaluation of
        # ceil(4*(1+0.1+0.05)*1e6 / ln(1e6^0.5)) and
        # ceil(1e6^0.5 + 3*(0.05^2/3.3)^(-3/2) * sqrt(ln 1e6))
        p = derive_params(10 ** 6, 10 ** 6, 1, 0.5, 0.1, 0.05)
        assert p.q == 665919
        assert p.s == 535769
        assert not p.degenerate

    def test_slack_constants(self):
        p = derive_params(10 ** 6, 10 ** 6, 1, 0.5, 0.1, 0.05)
        assert p.gamma_prime == pytest.approx(0.05 ** 2 / (3 * 1.1), rel=1e-15)
        assert p.big_c == pytest.approx(143873.94482671280, rel=1e-12)

    def test_log_singularity_rejected(self):
        # delta^alpha == sqrt(k) exactly
        with pytest.raises(InvalidParameters):
            derive_params(16, 100, 16, 0.5, 0.1, 0.05)
        with pytest.raises(InvalidParameters):
            derive_params(16, 100, 17, 0.5, 0.1, 0.05)

    def test_k_below_one_rejected(self):
        with pytest.raises(InvalidParameters):
            derive_params(10, 100, 0, 0.5, 0.1, 0.05)

    @pytest.mark.parametrize("alpha, gamma, epsilon", [
        (0.5, 0.1, math.nan), (0.5, 0.1, math.inf), (0.5, 0.1, -math.inf), (0.5, math.nan, 0.05),
        (math.inf, 0.1, 0.05), (10 ** 400, 0.1, 0.05)])
    def test_non_finite_constants_rejected(self, alpha, gamma, epsilon):
        # a NaN epsilon passed `epsilon <= 0`, and an infinite one overflowed ceil
        with pytest.raises(InvalidParameters) as err:
            derive_params(16, 100, 1, alpha, gamma, epsilon)
        assert str(err.value) == \
            f"need alpha,gamma in (0,1) and finite epsilon > 0, got {alpha}, {gamma}, {epsilon}"

    @pytest.mark.parametrize("gamma, epsilon", [(0.1, math.nan), (0.1, math.inf), (math.nan, 1.0)])
    def test_manual_non_finite_constants_rejected(self, gamma, epsilon):
        # a NaN epsilon made the prune threshold NaN
        with pytest.raises(InvalidParameters) as err:
            manual_params(16, gamma, epsilon, 17, 8)
        assert str(err.value) == \
            f"need gamma in (0,1) and finite epsilon > 0, got {gamma}, {epsilon}"

    @pytest.mark.parametrize("delta, n, k, message", [
        (16, 100, math.nan, "need finite k >= 1 (use k=1 for triangle-free audits), got nan"),
        (16, 100, math.inf, "need finite k >= 1 (use k=1 for triangle-free audits), got inf"),
        (math.inf, 100, 1, "need finite delta >= 1 and n >= 1, got delta=inf, n=100"),
        (math.nan, 100, 1, "need finite delta >= 1 and n >= 1, got delta=nan, n=100"),
        (16, math.inf, 1, "need finite delta >= 1 and n >= 1, got delta=16, n=inf"),
        (16, math.nan, 1, "need finite delta >= 1 and n >= 1, got delta=16, n=nan")])
    def test_non_finite_sizes_rejected(self, delta, n, k, message):
        # these raised ValueError or OverflowError from ceil, or (n = NaN)
        # gave s = 4 without a word
        with pytest.raises(InvalidParameters) as err:
            derive_params(delta, n, k, 0.5, 0.1, 0.05)
        assert str(err.value) == message

    @pytest.mark.parametrize("delta, q, s", [
        (math.nan, 17, 8), (math.inf, 17, 8), (-1, 17, 8), (16, math.inf, 8), (16, math.nan, 8),
        (16, 17, math.nan), (16, 17, math.inf), (16, 0, 8)])
    def test_manual_non_finite_or_negative_sizes_rejected(self, delta, q, s):
        # a NaN delta made the prune threshold NaN; q = inf and s = NaN passed
        with pytest.raises(InvalidParameters) as err:
            manual_params(delta, 0.1, 1.0, q, s)
        assert str(err.value) == \
            f"need finite q >= 1, s >= 1 and delta >= 0, got q={q}, s={s}, delta={delta}"

    def test_out_of_range_k_warns_not_rejects(self):
        with pytest.warns(UserWarning):
            p = derive_params(100, 100, 50, 0.9, 0.1, 0.05)
        assert p.q >= 1

    def test_degenerate_flag_caps_s_at_q(self):
        p = derive_params(32, 5000, 1, 0.5, 0.1, 0.05)
        assert p.degenerate and p.s == p.q

    def test_threshold_formula(self):
        p = derive_params(128, 5000, 1, 0.5, 0.1, 1.0).with_overrides(q=129, s=18)
        assert p.threshold(p.delta_ref) == pytest.approx(
            (1 + 1.0 / 3.3) * 18 * 128 / 129, rel=1e-15
        )


class TestSamplePalettes:
    def test_s_equals_q_gives_whole_palette(self):
        fam = sample_palettes(SharedPalette(4, 5), 5, seed=0)
        assert all(row == (0, 1, 2, 3, 4) for row in fam.sampled)

    def test_s_zero_rejected(self):
        with pytest.raises(PaletteTooSmall):
            sample_palettes(SharedPalette(4, 5), 0, seed=0)

    def test_negative_vertex_count_rejected(self):
        # numpy raised "all elements of broadcast shape must be non-negative"
        with pytest.raises(InvalidParameters) as err:
            sample_palettes(SharedPalette(-1, 5), 1, seed=1)
        assert str(err.value) == "need n >= 0 vertices, got -1"
        assert sample_palettes(SharedPalette(0, 5), 1, seed=1).sampled == ()

    def test_palette_too_small_rejected(self):
        with pytest.raises(PaletteTooSmall):
            sample_palettes(SharedPalette(4, 2), 3, seed=0)
        with pytest.raises(PaletteTooSmall):
            sample_palettes([(1, 2)], 3, seed=0)

    def test_sampled_sets_are_sorted_subsets(self):
        fam = sample_palettes(SharedPalette(50, 10), 3, seed=1)
        for row in fam.sampled:
            assert len(row) == 3 and list(row) == sorted(set(row))
            assert all(0 <= c < 10 for c in row)

    def test_deterministic(self):
        a = sample_palettes(SharedPalette(30, 12), 5, seed=7)
        b = sample_palettes(SharedPalette(30, 12), 5, seed=7)
        assert a == b

    def test_inclusion_frequency_matches_marginal(self):
        # fixed color inclusion is s/q = 0.3; over 1e5 independent draws the
        # empirical rate stays within 3 binomial standard deviations
        draws = 100_000
        fam = sample_palettes(SharedPalette(draws, 10), 3, seed=42)
        hits = sum(1 for row in fam.sampled if 4 in row)
        p = 0.3
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(hits / draws - p) <= 3 * sigma

    def test_per_vertex_palettes(self):
        fam = sample_palettes([(5, 7, 9), (1, 2, 3, 4)], 2, seed=3)
        assert set(fam.sampled[0]) <= {5, 7, 9}
        assert set(fam.sampled[1]) <= {1, 2, 3, 4}


class TestPrune:
    def _params(self, delta, q, s, epsilon=1.0):
        return derive_params(delta, 100, 1, 0.5, 0.1, epsilon).with_overrides(q=q, s=s)

    def test_edgeless_keeps_everything(self):
        g = Graphless = Graph(6)
        params = self._params(4, 8, 3)
        fam = sample_palettes(SharedPalette(6, 8), 3, seed=2)
        out = prune(Graphless, fam, params)
        assert out.pruned == out.sampled

    def test_zero_threshold_removes_conflicting_color(self):
        g = Graph(2, [(0, 1)])
        params = self._params(4, 8, 3)
        fam = PaletteFamily(((0, 1, 2), (0, 5, 6)), universe=8)
        out = prune(g, fam, params, delta_ref=0)
        assert 0 not in out.pruned[0] and 0 not in out.pruned[1]
        assert set(out.pruned[0]) == {1, 2}

    def test_monotone_in_threshold(self):
        rng = rng_for(9)
        for _ in range(10):
            g = random_graph(rng, 20, 0.3)
            params = self._params(8, 10, 4)
            fam = sample_palettes(SharedPalette(20, 10), 4, seed=int(rng.integers(1000)))
            low = prune(g, fam, params, delta_ref=2)
            high = prune(g, fam, params, delta_ref=6)
            for a, b in zip(low.pruned, high.pruned):
                assert set(a) <= set(b)

    def test_vectorized_and_generic_paths_agree(self):
        rng = rng_for(31)
        for _ in range(10):
            g = random_graph(rng, 25, 0.3)
            seed = int(rng.integers(10 ** 6))
            params = self._params(8, 12, 4)
            fam_fast = sample_palettes(SharedPalette(25, 12), 4, seed=seed)
            fam_slow = PaletteFamily(fam_fast.sampled, universe=None)
            fast = prune(g, fam_fast, params)
            slow = prune(g, fam_slow, params)
            assert fast.pruned == slow.pruned

    def test_cover_prune_counts_sampled_correspondents(self):
        g = Graph(2, [(0, 1)])
        cov = cover_from_lists(g, ListAssignment(((1, 2), (1, 2))))
        fam = sample_palettes(cov.lists, 2, seed=0)  # whole lists
        params = self._params(4, 2, 2)
        out = prune(cov, fam, params, delta_ref=0)
        # every color has a sampled correspondent, threshold 0 removes all
        assert all(row == () for row in out.pruned)
        out2 = prune(cov, fam, params, delta_ref=4)
        assert out2.pruned == out2.sampled

    def test_desk_calibration_keeps_most_colors(self):
        # small version of the baseline regime: fraction of vertices losing
        # more than gamma'*s colors stays under 5% with epsilon = 1.0
        g = gen_locally_sparse(400, 24, 300, seed=2)
        params = derive_params(24, 400, 1, 0.5, 0.1, 1.0).with_overrides(q=25, s=12)
        bad = 0
        seeds = 30
        for seed in range(seeds):
            fam = sample_palettes(SharedPalette(g.n, 25), 12, seed=seed)
            out = prune(g, fam, params)
            lost = [len(a) - len(b) for a, b in zip(out.sampled, out.pruned)]
            bad += sum(1 for x in lost if x > params.gamma_prime * params.s)
        assert bad / (seeds * g.n) <= 0.05


class TestBuildConflict:
    def test_disjoint_palettes_drop_edge(self):
        g = Graph(2, [(0, 1)])
        fam = PaletteFamily(((1, 2), (3, 4)))
        inst = build_conflict(g, fam)
        assert inst.graph.m == 0

    def test_shared_color_keeps_edge(self):
        g = Graph(2, [(0, 1)])
        fam = PaletteFamily(((1, 2), (2, 3)))
        inst = build_conflict(g, fam)
        assert inst.graph.m == 1

    def test_cover_restricted_matching_empty_drops_edge(self):
        g = Graph(2, [(0, 1)])
        cov = cover_from_lists(g, ListAssignment(((1, 2), (1, 2))))
        # sample color '1' at u (cover id 0) and color '2' at v (cover id 3)
        fam = PaletteFamily(((0,), (3,)))
        inst = build_conflict(g, fam, cover=cov)
        assert inst.graph.m == 0
        fam2 = PaletteFamily(((0,), (2,)))  # both are color '1'
        inst2 = build_conflict(g, fam2, cover=cov)
        assert inst2.graph.m == 1

    @pytest.mark.parametrize("off, kept", [({(1, 2): ((2, 4),)}, True),
                                           ({(1, 5): ((2, 4),)}, False)])
    def test_cover_conflict_graph_is_cut_from_g(self, off, kept):
        # a pair on the non-edge (1, 2), or on (1, 5) past the vertex range,
        # clashes across no edge (and validate_cover rejects the cover), so
        # it adds no edge to the conflict graph; the cover keeps it only
        # where its colors sit at its own ends, so not at vertex 5
        g = Graph(3, [(0, 1)])
        lists = ((0, 1), (2, 3), (4, 5))
        cov = CorrespondenceCover(lists, {(0, 1): ((0, 2),), **off})
        assert not validate_cover(g, cov).ok
        inst = build_conflict(g, PaletteFamily(lists), cover=cov)
        assert list(inst.graph.edges()) == [(0, 1)]
        assert inst.cover.matchings == ({(0, 1): ((0, 2),), **off} if kept
                                        else {(0, 1): ((0, 2),)})
        assert verify_coloring(inst.graph, inst.cover, solve(inst.graph, inst.cover).coloring).ok

    def test_conflict_probability_matches_enumeration(self):
        # pre-prune, an edge conflicts with probability 1 - C(q-s,s)/C(q,s)
        q, s = 12, 4
        p_exact = 1 - math.comb(q - s, s) / math.comb(q, s)
        g = gen_locally_sparse(60, 6, 15, seed=5)
        trials = 60
        total = 0
        for seed in range(trials):
            fam = sample_palettes(SharedPalette(g.n, q), s, seed=seed)
            total += build_conflict(g, fam).graph.m
        mean = total / (trials * g.m)
        sigma = math.sqrt(p_exact * (1 - p_exact) / (trials * g.m))
        assert abs(mean - p_exact) <= 3 * sigma

    def test_packed_and_set_paths_agree(self):
        rng = rng_for(6)
        g = random_graph(rng, 150, 0.5)
        assert g.m > 4096
        fam_packed = sample_palettes(SharedPalette(g.n, 9), 3, seed=8)
        fam_sets = PaletteFamily(fam_packed.sampled, universe=None)
        a = set(build_conflict(g, fam_packed).graph.edges())
        b = set(build_conflict(g, fam_sets).graph.edges())
        assert a == b

    def test_determinism_bit_identical(self):
        g = gen_locally_sparse(40, 5, 10, seed=4)
        params = derive_params(5, 40, 1, 0.5, 0.1, 1.0).with_overrides(q=6, s=3)
        runs = []
        for _ in range(2):
            fam = sample_palettes(SharedPalette(g.n, 6), 3, seed=99)
            fam = prune(g, fam, params)
            inst = build_conflict(g, fam)
            runs.append((fam, tuple(inst.graph.edges()), inst.lists.lists))
        assert runs[0] == runs[1]


class TestReductionSoundness:
    def test_conflict_coloring_extends_to_full_graph(self):
        rng = rng_for(77)
        produced = 0
        for trial in range(60):
            n = int(rng.integers(8, 40))
            g = random_graph(rng, n, 3.0 / n)
            delta = max(1, max(len(g.neighbors(v)) for v in range(g.n)))
            params = derive_params(delta, n, 1, 0.5, 0.1, 1.0).with_overrides(
                q=delta + 1, s=min(delta + 1, 4)
            )
            fam = sample_palettes(SharedPalette(n, params.q), params.s,
                                  seed=int(rng.integers(10 ** 6)))
            fam = prune(g, fam, params)
            if any(len(r) == 0 for r in fam.pruned):
                continue
            inst = build_conflict(g, fam)
            res = solve(inst.graph, inst.lists, seed=trial)
            if res.success:
                produced += 1
                full = verify_coloring(g, ListAssignment(fam.pruned), res.coloring)
                assert full.ok, f"conflict coloring failed to extend: {full.reason}"
        assert produced >= 30
