"""Differential tests: the ragged `Rows` and the sparsification kernels
against naive oracles.

Every list kernel answers by an n x q table or by a join of entries against
rows, chosen by `sparsify._TABLE_CELLS`; the tests draw that bound as 0
(the join) or huge (the table), so both paths meet the same oracles, and
draw the ids as colors 0..q-1 or spread over +-2**62. Edge-survival chunk
sizes are drawn too, so edges fall on both sides of a chunk boundary.
Covers are drawn with arbitrary distinct color ids, so ranks do not follow
vertex order, and some edges' matchings are keyed (v, u) or left empty.
"""

import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import (
    broken_covers,
    grouped_pairs,
    oracle_color_neighbors,
    oracle_conflict_counts,
    oracle_cover_clash,
    oracle_cover_from_lists,
    oracle_cover_graph,
    oracle_cover_prune,
    oracle_cover_stream_records,
    oracle_cover_stream_retention,
    oracle_directed_counts,
    oracle_find,
    oracle_first_repeat,
    oracle_keep,
    oracle_membership_witness,
    oracle_neighborhood_edges,
    oracle_picked_counts,
    oracle_prune,
    oracle_restrict_cover,
    oracle_sorted_rows,
    oracle_stream_ledger,
    oracle_stream_retention,
    oracle_surviving_edges,
    random_covers,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palettesparse import cover, nibble, sparsify
from palettesparse.cover import (
    CorrespondenceCover,
    CoverError,
    ListAssignment,
    Rows,
    color_degrees,
    cover_from_lists,
    cover_sparsity,
    picked_counts,
    restrict_cover,
)
from palettesparse.graphcore import Graph, gen_bipartite
from palettesparse.nibble import (
    PartialColoring,
    PreconditionViolation,
    WcpParams,
    _Instance,
    verify_coloring,
    wcp_round,
)
from palettesparse.sparsify import (
    PaletteFamily,
    SharedPalette,
    build_conflict,
    directed_counts,
    manual_params,
    prune,
    sample_palettes,
    shared_edges,
)
from palettesparse.streaming import (
    EdgeStream,
    SpaceCapExceeded,
    stream_color,
)

FAST = settings(max_examples=60, deadline=None)
# the draws across join chunks: few of them share an id past a chunk's
# boundary, and 60 derandomized examples can miss a broken boundary
CHUNKS = settings(max_examples=200, deadline=None)


def sorted_matchings(cov):
    """The cover's matchings, each edge's pairs sorted, as the dict constructor keeps them."""
    return {edge: tuple(sorted(pairs)) for edge, pairs in cov.matchings.items()}


def pair_ids(cov):
    """The cover's pairs in order, as (u, v, color at u, color at v) ids."""
    a = cov.arrays
    return list(zip(a.eu.tolist(), a.ev.tolist(), a.colors[a.ra].tolist(),
                    a.colors[a.rb].tolist()))


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


# the table bound: 0 sends every list kernel call through the join, a huge
# one through the n x q table
PATHS = st.sampled_from([0, 2 ** 62])

# the product share: 0 sends every table count through the matrix product,
# infinity through the lanes
SHARES = st.sampled_from([0.0, float("inf")])


@st.composite
def far_ids(draw, q):
    """q ascending distinct ids from +-2**62 to stand for the colors 0..q-1."""
    return sorted(draw(st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=q, max_size=q,
                                unique=True)))


def renamed(rows, ids):
    """Every color c of `rows` replaced by ids[c]."""
    return [tuple(ids[c] for c in row) for row in rows]


def at_entries(table, rows):
    """The cells of a (vertex, color) table at the entries of `rows`, in order."""
    return [table[v][c] for v, row in enumerate(rows) for c in row]


@st.composite
def cover_inputs(draw, max_n=8, min_list=0, max_list=4, valid=True):
    """(graph, lists, dict of pairs per edge). Valid covers carry partial
    matchings; otherwise an edge may declare any pairs between its two
    lists, a color twice too."""
    g = draw(graphs(max_n))
    sizes = [draw(st.integers(min_list, max_list)) for _ in range(g.n)]
    ids = draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=sum(sizes),
                        max_size=sum(sizes), unique=True))
    lists = []
    for k in sizes:
        lists.append(tuple(ids[:k]))
        ids = ids[k:]
    matchings = {}
    for u, v in g.edges():
        lu, lv = lists[u], lists[v]
        if valid:
            k = draw(st.integers(0, min(len(lu), len(lv))))
            pairs = list(zip(draw(st.permutations(lu))[:k], draw(st.permutations(lv))[:k]))
        elif lu and lv:
            pairs = draw(st.lists(st.tuples(st.sampled_from(lu), st.sampled_from(lv)),
                                  unique=True, max_size=4))
        else:
            pairs = []
        if not pairs and draw(st.booleans()):
            continue
        if draw(st.booleans()):
            matchings[(v, u)] = [(b, a) for a, b in pairs]
        else:
            matchings[(u, v)] = pairs
    return g, lists, matchings


def covers(**kwargs):
    """(graph, cover) of `cover_inputs`."""
    return cover_inputs(**kwargs).map(lambda t: (t[0], CorrespondenceCover(t[1], t[2])))


@st.composite
def subrows(draw, rows):
    """A subset of every row, in the row's order."""
    return [tuple(c for c in row if draw(st.booleans())) for row in rows]


@st.composite
def cut_of(draw, cov):
    """(rows, vertex mask or None) for a `restrict_cover` of `cov`."""
    rows = draw(subrows(cov.lists))
    if not draw(st.booleans()):
        return rows, None
    return rows, np.array(draw(st.lists(st.booleans(), min_size=cov.n, max_size=cov.n)),
                          dtype=bool)


def round_of(cov, p, seed):
    """`wcp_round`'s coloring, next cover's lists and pairs, and stats as
    plain values, or the text of the PreconditionViolation it raises."""
    try:
        phi, nxt, st = wcp_round(cov, p, seed)
    except PreconditionViolation as e:
        return str(e)
    return phi.assignment, tuple(nxt.lists), nxt.matchings, (
        st.activated, st.kept, st.colored, st.kept_ids.tolist(), st.activated_ids.tolist())


@st.composite
def ragged(draw):
    """Rows of arbitrary ids in any order: negative ids, ids of 2**40 scale
    or spanning all of int64, empty rows and repeated ids."""
    ids = st.integers(-2 ** 40, 2 ** 40) | st.integers(-2 ** 63, 2 ** 63 - 1)
    pool = draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    return [draw(st.lists(st.sampled_from(pool), max_size=6))
            for _ in range(draw(st.integers(0, 8)))]


@st.composite
def cuts(draw):
    """(`ragged` rows, one keep flag per entry, drawn or none or all kept,
    rows to spread, a row more than once too)."""
    rows = draw(ragged())
    size = sum(map(len, rows))
    mask = draw(st.lists(st.booleans(), min_size=size, max_size=size)
                | st.just([False] * size) | st.just([True] * size))
    at = draw(st.lists(st.integers(0, len(rows) - 1), max_size=8)) if rows else []
    return rows, mask, at


# row lengths on both sides of powers of two, so a search's first step and
# its clamp to the row's last entry meet every case
_WIDTHS = (1, 2, 3, 4, 7, 8, 9, 16, 17)
# one row of each width, ids 0, 2, 4, ...
_LADDER = [list(range(0, 2 * k, 2)) for k in _WIDTHS]


@st.composite
def searches(draw):
    """(rows, calls of (row, id) lookups): `ragged` rows, or rows of
    `_WIDTHS` lengths, repeats and empty rows among them; ids held,
    repeated, just below, above and between the rows' values, at the ends
    of int64 or anywhere."""
    ids = st.integers(-20, 20) | st.integers(-2 ** 63, 2 ** 63 - 1)
    wide = st.sampled_from((0, *_WIDTHS)).flatmap(
        lambda k: st.lists(ids, min_size=k, max_size=k))
    rows = draw(ragged() | st.lists(wide, max_size=5))
    values = sorted({c for row in rows for c in row})
    near = [c + d for c in values for d in (-1, 1) if -2 ** 63 <= c + d < 2 ** 63]
    ids = st.sampled_from(values + near + [-2 ** 63, 2 ** 63 - 1]) | \
        st.integers(-2 ** 63, 2 ** 63 - 1)
    size = 10 if rows else 0
    pairs = st.tuples(st.integers(0, max(0, len(rows) - 1)), ids)
    return rows, draw(st.lists(st.lists(pairs, max_size=size), min_size=1, max_size=3))


class TestRows:
    @FAST
    @given(ragged(), ragged())
    def test_construction_tuple_view_and_equality(self, rows, other):
        got, want = Rows.of(rows), oracle_sorted_rows(rows)
        assert tuple(got) == want
        assert [got[v] for v in range(-len(rows), len(rows))] == list(want) * 2
        for cut in (slice(0, 2), slice(None, None, -1), slice(1, None, 2), slice(5, 1)):
            assert got[cut] == want[cut]
        assert got.lens.tolist() == [len(row) for row in rows]
        assert got.owner.tolist() == [v for v, row in enumerate(rows) for _ in row]
        assert got == want and want == got and got == Rows.of(want) and Rows.of(got) is got
        assert hash(got) == hash(want)
        same = want == oracle_sorted_rows(other)
        assert (got == oracle_sorted_rows(other)) == same
        assert (got == Rows.of(other)) == same
        with pytest.raises(IndexError):
            got[len(rows)]

    def test_a_slice_is_the_tuple_of_its_rows(self):
        assert Rows.of([(1, 2), (3,), (4, 5, 6)])[0:2] == ((1, 2), (3,))

    @FAST
    @given(ragged())
    # an id ending one row and starting the next is no repeat
    @example([[5], [7, 5], [7], [], [7, 9, 7]])
    def test_list_assignment_names_the_first_repeat(self, rows):
        first = oracle_first_repeat(rows)
        if first is None:
            assert ListAssignment(rows).lists == oracle_sorted_rows(rows)
        else:
            with pytest.raises(CoverError, match=f"duplicate color in list of vertex {first}$"):
                ListAssignment(rows)

    @FAST
    @given(cuts())
    @example(([], [], []))
    @example(([[], [3, 1], []], [False, False], [1, 0]))
    def test_keep_and_spread(self, cut):
        rows, mask, at = cut
        got = Rows.of(rows)
        kept = got.keep(np.array(mask, dtype=bool))
        want = oracle_keep(rows, mask)
        assert kept == want
        assert kept.indptr.tolist() == [0, *np.cumsum([len(row) for row in want]).tolist()]
        assert kept.values.dtype == kept.indptr.dtype == np.int64
        assert not (kept.values.flags.writeable or kept.indptr.flags.writeable)
        # a mask that keeps every entry keeps the rows themselves
        assert (kept is got) == all(mask)
        # the entries of any rows, in turn
        bounds = got.indptr.tolist()
        assert got.spread(np.array(at, dtype=np.int64)).tolist() == \
            [i for v in at for i in range(bounds[v], bounds[v + 1])]

    @FAST
    @given(ragged(), st.data())
    def test_verify_membership_matches_the_loop(self, rows, data):
        rows = [sorted(set(row)) for row in rows]
        pool = sorted({c for row in rows for c in row} | {0, 2 ** 62})
        phi = data.draw(st.dictionaries(st.integers(-2, len(rows) + 1), st.sampled_from(pool),
                                        max_size=len(rows) + 2))
        res = verify_coloring(Graph(len(rows)), ListAssignment(rows), PartialColoring(phi))
        want = oracle_membership_witness(rows, phi)
        assert res.ok == (want is None)
        assert res.witness == want

    @FAST
    @given(graphs(), st.data())
    def test_array_and_dict_built_colorings_agree(self, g, data):
        # out-of-range vertices and ids missing from a list give witnesses,
        # in phi's order, the same for both
        pool = data.draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=6,
                                  unique=True))
        lists = ListAssignment([data.draw(st.sets(st.sampled_from(pool))) for _ in range(g.n)])
        phi = data.draw(st.dictionaries(st.integers(-2, g.n + 1), st.sampled_from(pool),
                                        max_size=g.n + 2))
        by_dict = PartialColoring(phi)
        by_arrays = PartialColoring.from_arrays(np.array(list(phi), dtype=np.int64),
                                                np.array(list(phi.values()), dtype=np.int64))
        assert by_arrays == by_dict and by_dict == by_arrays
        assert len(by_arrays) == len(by_dict) == len(phi)
        assert by_arrays.is_total(g.n) == by_dict.is_total(g.n)
        assert repr(by_arrays) == repr(by_dict) == f"PartialColoring(assignment={phi!r})"
        for phi_as in (by_dict, by_arrays):
            assert [a.tolist() for a in phi_as.arrays()] == [list(phi), list(phi.values())]
            assert list(phi_as.assignment.items()) == list(phi.items())
        for obj in (lists, cover_from_lists(g, lists)):
            assert verify_coloring(g, obj, by_arrays) == verify_coloring(g, obj, by_dict)
        # the mapping and the arrays of an array-built coloring are
        # read-only, and it pickles as it was built, the mapping made or not
        with pytest.raises(TypeError):
            by_arrays.assignment[0] = pool[0]
        assert not any(a.flags.writeable for a in by_arrays.arrays())
        with pytest.raises(ValueError, match=r"got shapes \(\d+,\), \(\d+,\)$"):
            PartialColoring.from_arrays(np.arange(len(phi) + 1), by_arrays.arrays()[1])
        for phi_as in (by_dict, by_arrays, PartialColoring.from_arrays(*by_arrays.arrays())):
            again = pickle.loads(pickle.dumps(phi_as))
            assert again == by_dict and repr(again) == repr(by_dict)
            assert [a.tolist() for a in again.arrays()] == [list(phi), list(phi.values())]

    @FAST
    @given(searches())
    @example(([], [[]]))
    @example(([[], []], [[(0, 5), (1, -(2 ** 63))]]))
    # one row spanning all of int64, searched at both ends and in between
    @example(([[-(2 ** 63), 2 ** 63 - 1, 0, 0]],
              [[(0, 0), (0, 1), (0, 2 ** 63 - 1)], [(0, -(2 ** 63)), (0, -1)]]))
    @example(([[2 ** 40, -(2 ** 40), 2 ** 40], [7]],
              [[(0, 2 ** 40), (1, 7), (1, 2 ** 40)], [(1, 8), (0, -(2 ** 40) - 1)]]))
    # every width, each row searched below, at and above every entry
    @example((_LADDER, [[(v, c) for v, row in enumerate(_LADDER) for c in range(-1, 2 * len(row))]]))
    # an empty row first and last: its search must not read a neighbour
    @example(([[], [0] * 9, [], [1, 1, 2]], [[(0, 0), (2, 0), (2, 2), (1, 0), (3, 1), (3, 2)]]))
    def test_find_and_holds_match_the_loop(self, search):
        # every call on one Rows, then again after a pickle round trip (the
        # sweep's process pool pickles the instance), which gives an equal,
        # read-only Rows
        rows, calls = search
        got = Rows.of(rows)

        def check(target):
            for call in calls:
                at = np.array([v for v, _ in call], dtype=np.int64)
                ids = np.array([c for _, c in call], dtype=np.int64)
                want = oracle_find(rows, at.tolist(), ids.tolist())
                assert target.find(at, ids).tolist() == want
                assert target.holds(at, ids).tolist() == [i >= 0 for i in want]

        fresh = pickle.dumps(got)
        check(got)
        again = pickle.loads(pickle.dumps(got))
        assert again == got and pickle.dumps(again) == fresh
        assert not (again.values.flags.writeable or again.indptr.flags.writeable)
        check(again)

    @FAST
    @given(cuts(), st.booleans(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    # a cut of rows holding an id twice that leaves one copy is strict
    @example(([[1, 1, 2], [3]], [True, False, True, True], []), True, 2, 0)
    # a sample of strict-unknown rows that takes both copies of an id
    @example(([[4, 4], [4, 4]], [True, True, True, True], []), True, 2, 0)
    def test_strict_is_one_strict_steps_pass(self, cut, learnt, s, seed):
        # every constructor that passes `strict` on, from rows whose own
        # fact is learnt first or not at all; `ragged` rows repeat ids
        rows, mask, _ = cut
        base = Rows.of(rows)
        if learnt:
            assert isinstance(base.strict, bool)
        made = [base.keep(np.array(mask, dtype=bool)), sparsify._dense(base, None, 0)[0],
                Rows.of([tuple(reversed(row)) for row in rows]),
                sample_palettes(SharedPalette(len(rows), s + 1), s, seed).sampled]
        if rows and min(map(len, rows)) >= s:
            made.append(sample_palettes(base, s, seed).sampled)
        for got in [*made, base]:
            assert got.strict == (not got.steps(np.less_equal).any())

    def test_rows_keep_no_search_state(self):
        # the arrays and the one fact learnt from them, `strict`
        assert Rows.__slots__ == ("values", "indptr", "_strict")

    def test_find_allocates_per_lookup_only(self):
        # 2,500 lookups into 2,500 rows of 128 ids, the stream-sparse palette
        n, q = 2500, 128
        rows = Rows(np.tile(np.arange(q), n), np.arange(0, n * q + 1, q))
        at = np.arange(n)
        ids = np.random.default_rng(0).integers(-8, q + 8, n)
        tracemalloc.start()
        try:
            found = rows.find(at, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found.tolist() == [v * q + c if 0 <= c < q else -1 for v, c in enumerate(ids.tolist())]
        assert peak < 64 * n

    def test_second_verify_allocates_under_a_megabyte(self):
        # a verify searches the colored vertices' rows alone: nothing the
        # size of the 2,500 x 128 palette (2.5 MB as int64) is built
        n, q = 2500, 128
        g = Graph(n, [(v, v + 1) for v in range(n - 1)])
        full = ListAssignment(Rows(np.tile(np.arange(q), n), np.arange(0, n * q + 1, q)))
        phi = PartialColoring({v: v % 2 * 64 + v % 64 for v in range(n)})
        assert verify_coloring(g, full, phi).ok
        tracemalloc.start()
        try:
            verify_coloring(g, full, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @FAST
    @given(instances(), st.floats(-1.0, 12.0), PATHS)
    def test_kernels_read_rows(self, inst, thr, cells):
        g, q, rows = inst
        # rows given out of order come out sorted
        given_rows = Rows.of([row[::-1] for row in rows])
        us, vs = g.edge_arrays()
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            pruned = given_rows.keep(
                directed_counts(g.indptr, g.indices, given_rows, q) <= thr)
            hit = shared_edges(us, vs, given_rows, q)
        assert pruned == oracle_prune(g, rows, thr)
        assert list(zip(us[hit].tolist(), vs[hit].tolist())) == oracle_surviving_edges(g, rows)


class TestCoverKernels:
    @FAST
    @given(st.booleans().flatmap(lambda valid: covers(valid=valid)), st.data())
    def test_degrees_and_picked_counts(self, inst, data):
        _, cov = inst
        nbrs = oracle_color_neighbors(cov)
        picked = {c for c in nbrs if data.draw(st.booleans())}
        ids = cov.arrays.colors.tolist()
        assert dict(zip(ids, color_degrees(cov).tolist())) == \
            {c: len(b) for c, b in nbrs.items()}
        assert cov.max_color_degree() == max(map(len, nbrs.values()), default=0)
        mask = np.isin(cov.arrays.colors, list(picked))
        assert dict(zip(ids, picked_counts(cov, mask).tolist())) == \
            oracle_picked_counts(cov, picked)

    @FAST
    @given(st.booleans().flatmap(lambda valid: cover_inputs(valid=valid)))
    def test_matchings_view_the_normalized_input(self, inst):
        _, lists, matchings = inst
        want = {}
        for (u, v), pairs in matchings.items():
            if u > v:
                u, v, pairs = v, u, [(b, a) for a, b in pairs]
            if pairs:
                want[(u, v)] = tuple(sorted(pairs))
        assert list(CorrespondenceCover(lists, matchings).matchings.items()) == \
            list(want.items())

    @FAST
    @given(covers(), st.floats(-1.0, 5.0), st.data())
    def test_prune(self, inst, thr, data):
        _, cov = inst
        rows = data.draw(subrows(cov.lists))
        params = manual_params(6, 0.1, 1.0, q=8, s=4)
        d_ref = thr * params.q / ((1.0 + params.gamma_prime) * params.s)
        out = prune(cov, PaletteFamily(tuple(rows)), params, delta_ref=d_ref)
        assert out.pruned == oracle_cover_prune(
            cov, rows, (1.0 + params.gamma_prime) * params.s * d_ref / params.q)

    @FAST
    @given(st.booleans().flatmap(lambda valid: covers(valid=valid)) | broken_covers(), st.data())
    def test_restriction(self, inst, data):
        # a pair stays only where its colors stay at its own ends, so on a
        # broken cover a pair using a color of another vertex's list is cut
        g, cov = inst
        rows = data.draw(subrows(cov.lists))
        keep = None
        if data.draw(st.booleans()):
            keep = np.array([data.draw(st.booleans()) for _ in range(g.n)], dtype=bool)
        sub, edges = restrict_cover(cov, rows, keep)
        lists, items, want = oracle_restrict_cover(cov, rows, keep)
        assert sub.lists == lists
        assert list(sub.matchings.items()) == items
        assert list(map(tuple, edges.tolist())) == want
        # the arrays it was built from are the ones its matchings give, as
        # ids: the cut keeps its cover's ranks, the rebuilt cover ranks anew
        def ids(a):
            ranks = (a.ra, a.rb, a.lists)
            return [a.eu.tolist(), a.ev.tolist()] + [a.colors[r].tolist() for r in ranks]
        assert sub.arrays.colors is cov.arrays.colors
        assert ids(sub.arrays) == ids(CorrespondenceCover(sub.lists, sub.matchings).arrays)
        if keep is None:
            conflict = build_conflict(g, PaletteFamily(tuple(rows)), cover=cov)
            assert list(conflict.graph.edges()) == sorted(e for e in want if g.has_edge(*e))
            assert list(conflict.cover.matchings.items()) == items

    @FAST
    @given(random_covers() | broken_covers(), st.data())
    def test_a_cut_of_a_cut_is_a_cut_of_the_root(self, inst, data):
        _, cov = inst
        rows, keep = data.draw(cut_of(cov))
        sub, _ = restrict_cover(cov, rows, keep)
        rows, keep2 = data.draw(cut_of(sub))
        got, edges = restrict_cover(sub, rows, keep2)
        # in one step: the second rows on the vertices that both masks keep
        on = np.flatnonzero(np.ones(cov.n, dtype=bool) if keep is None else keep)
        both, composed = np.zeros(cov.n, dtype=bool), [()] * cov.n
        both[on] = True if keep2 is None else keep2
        for v, row in zip(on.tolist(), rows):
            composed[v] = row
        want, want_edges = restrict_cover(cov, composed, both)
        assert got.arrays.colors is cov.arrays.colors
        assert got.lists == want.lists and np.array_equal(edges, want_edges)
        for name in ("colors", "eu", "ev", "ra", "rb", "lists"):
            assert np.array_equal(getattr(got.arrays, name), getattr(want.arrays, name))

    @FAST
    @given(random_covers() | broken_covers(), st.data())
    def test_a_round_on_a_cut_is_the_round_on_its_dict_rebuild(self, inst, data):
        # the cut's colors hold ids that none of its lists or pairs holds;
        # the rebuilt cover's hold only its own, ranked anew
        _, cov = inst
        sub, _ = restrict_cover(cov, *data.draw(cut_of(cov)))
        ell = data.draw(st.floats(1.0, 8.0))
        p = WcpParams.from_basics(data.draw(st.floats(0.0, 0.99)) * ell, ell,
                                  data.draw(st.floats(0.0, 12.0)))
        seed = data.draw(st.integers(0, 2 ** 16))
        assert round_of(sub, p, seed) == \
            round_of(CorrespondenceCover(sub.lists, sub.matchings), p, seed)

    @FAST
    @given(random_covers() | broken_covers(), st.data())
    def test_a_round_cuts_its_cover_as_restrict_cover_does(self, inst, data):
        # on a cut, the round's next cover is the cut of its lists to its
        # next rows and its blank vertices, with the vertex ids kept; the
        # cut is of the whole lists or of drawn rows, and each draw runs
        # eight seeds, as a colored vertex seldom keeps both colors of a pair
        _, cov = inst
        sub, _ = restrict_cover(cov, *data.draw(st.just((cov.lists, None)) | cut_of(cov)))
        ell = data.draw(st.floats(1.0, 8.0))
        d = sub.max_color_degree() / 2 + data.draw(st.floats(0.0, 4.0))
        p = WcpParams.from_basics(data.draw(st.floats(0.0, 0.99)) * ell, ell, d)
        base = data.draw(st.integers(0, 2 ** 16))
        for seed in range(base, base + 8):
            phi, nxt, _ = wcp_round(sub, p, seed)
            blank = np.ones(sub.n, dtype=bool)
            blank[list(phi.assignment)] = False
            lists, items, _ = oracle_restrict_cover(sub, nxt.lists, keep_vertex=blank)
            g_id = np.flatnonzero(blank).tolist()
            assert nxt.n == sub.n and nxt.arrays.colors is sub.arrays.colors
            assert [nxt.lists[v] for v in g_id] == list(lists)
            assert list(nxt.matchings.items()) == [((g_id[u], g_id[v]), pairs)
                                                   for (u, v), pairs in items]
            # a colored vertex has an empty row and no pair
            ends = {v for edge in nxt.matchings for v in edge}
            assert all(not nxt.lists[v] and v not in ends for v in phi.assignment)

    def test_pair_off_its_own_ends_is_cut(self):
        # color 0 is vertex 0's only, so the pair (0, 0) on (0, 1) can never
        # clash and is cut, although color 0 stays in the rows
        cov = CorrespondenceCover([(0,), (1,)], {(0, 1): [(0, 0), (0, 1)]})
        for rows in (cov.lists, [(0,), (1,)]):
            sub, edges = restrict_cover(cov, rows)
            assert sub is not cov
            assert sub.matchings == {(0, 1): ((0, 1),)} and edges.tolist() == [[0, 1]]

    @FAST
    @given(st.booleans().flatmap(lambda valid: covers(valid=valid)) | broken_covers())
    def test_restriction_to_the_cover_lists(self, inst):
        # the cover itself when its lists hold every pair at its own ends,
        # and the same cover as a cut by a copy of its lists either way
        g, cov = inst
        sub, edges = restrict_cover(cov, cov.lists)
        cut, want = restrict_cover(cov, Rows(cov.lists.values.copy(), cov.lists.indptr.copy()))
        every_pair_held = oracle_restrict_cover(cov, cov.lists)[1] == list(cov.matchings.items())
        assert (sub is cov) == every_pair_held
        assert sub.lists == cut.lists
        for name in ("colors", "eu", "ev", "ra", "rb", "lists"):
            assert np.array_equal(getattr(sub.arrays, name), getattr(cut.arrays, name))
        assert np.array_equal(edges, want)

    @FAST
    @given(broken_covers(), st.data())
    def test_conflict_graph_is_cut_from_g(self, inst, data):
        # the edges of the cut cover that are edges of g: pairs on non-edges
        # of g, which clash across no edge, add none
        g, cov = inst
        rows = data.draw(subrows(cov.lists))
        carried = set(map(tuple, restrict_cover(cov, rows)[1].tolist()))
        conflict = build_conflict(g, PaletteFamily(tuple(rows)), cover=cov)
        assert list(conflict.graph.edges()) == [e for e in g.edges() if e in carried]

    @FAST
    @given(st.booleans().flatmap(lambda valid: covers(valid=valid)), st.data())
    def test_verify_first_witness(self, inst, data):
        g, cov = inst
        phi = {}
        for v, row in enumerate(cov.lists):
            if row and data.draw(st.booleans()):
                phi[v] = data.draw(st.sampled_from(row))
        res = verify_coloring(g, cov, PartialColoring(phi))
        want = oracle_cover_clash(g, cov, phi)
        assert res.ok == (want is None)
        assert res.witness == want

    @FAST
    @given(st.one_of(covers(), broken_covers()))
    def test_cover_sparsity(self, inst):
        _, cov = inst
        assert cover_sparsity(cov) == max(oracle_neighborhood_edges(oracle_cover_graph(cov)),
                                          default=0)

    def test_cover_sparsity_builds_no_graph(self, monkeypatch):
        # two triangles share the edge (1, 2): two edges inside N(1) and N(2)
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        cov = cover_from_lists(g, ListAssignment(((1, 2),) * 4))

        def refuse(*args, **kwargs):
            raise AssertionError("a Graph was built")

        monkeypatch.setattr(Graph, "__init__", refuse)
        assert cover_sparsity(cov) == 2

    @FAST
    @given(st.booleans().flatmap(lambda valid: covers(max_n=8, min_list=1, valid=valid)),
           st.data())
    def test_from_cover_records(self, inst, data):
        # on a subgraph of the cover's graph, so some pairs lie off its edges
        g, cov = inst
        edges = list(g.edges())
        sub = Graph(g.n, data.draw(st.lists(st.sampled_from(edges), unique=True)) if edges else [])
        permute_seed = data.draw(st.none() | st.integers(0, 100))
        stream = EdgeStream.from_cover(sub, cov, permute_seed)
        assert list(stream.records) == oracle_cover_stream_records(sub, cov, permute_seed)
        assert len(stream) == sub.m and stream.lists == cov.lists

    @FAST
    @given(st.booleans().flatmap(lambda valid: covers(max_n=8, min_list=1, valid=valid)),
           st.data())
    def test_tuple_built_cover_stream(self, inst, data):
        # records turned round, pairs shuffled, pairs on colors outside the
        # lists and empty records: the stream's cover is the dict
        # constructor's cover, array for array, so each record's pairs come
        # back sorted by the color at u < v, then at v
        g, cov = inst
        records = []
        for (u, v, pairs) in EdgeStream.from_cover(g, cov, data.draw(st.integers(0, 100))):
            edit = data.draw(st.sampled_from(["keep", "drop", "shuffle", "outside"]))
            if edit == "drop":
                pairs = ()
            elif edit == "shuffle":
                pairs = tuple(data.draw(st.permutations(pairs)))
            elif edit == "outside":
                pairs += ((2 ** 41, cov.lists[v][0]), (cov.lists[u][-1], -2 ** 41))
            records.append((v, u, tuple((b, a) for a, b in pairs)) if data.draw(st.booleans())
                           else (u, v, pairs))
        stream = EdgeStream(g.n, tuple(records), lists=cov.lists)
        assert stream.records == tuple(
            (u, v, tuple(sorted(pairs, key=lambda ab: ab if u < v else ab[::-1])))
            for u, v, pairs in records)
        want = CorrespondenceCover(cov.lists, {(u, v): pairs for u, v, pairs in records})
        assert stream.lists == cov.lists
        for name in ("colors", "eu", "ev", "ra", "rb", "lists"):
            assert np.array_equal(getattr(stream.cover.arrays, name), getattr(want.arrays, name))
        # from_cover's stream holds the pairs of the tuple-built stream of its records
        built = EdgeStream.from_cover(g, cov, data.draw(st.integers(0, 100)))
        assert pair_ids(built.cover) == pair_ids(EdgeStream(g.n, built.records, cov.lists).cover)

    @FAST
    # n <= 2, and lists long enough for several kept pairs on an edge
    @given(covers(max_n=2, min_list=1) | covers(max_n=7, min_list=1)
           | covers(max_n=6, min_list=3), st.data())
    def test_streamed_against_offline_retention(self, inst, data):
        # tuple records, some turned round, some with their pairs dropped,
        # reversed or joined by pairs on colors outside the lists
        g, cov = inst
        s = data.draw(st.integers(1, min((len(r) for r in cov.lists), default=1)))
        seed = data.draw(st.integers(0, 10 ** 6))
        stream = EdgeStream.from_cover(g, cov, data.draw(st.integers(0, 100)))
        flips = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
        edits = data.draw(st.lists(st.sampled_from(["keep", "drop", "reverse", "outside"]),
                                   min_size=g.m, max_size=g.m))
        records = []
        for (u, v, pairs), f, edit in zip(stream.records, flips, edits):
            if edit == "drop":
                pairs = ()
            elif edit == "reverse":
                pairs = pairs[::-1]
            elif edit == "outside":
                pairs += ((2 ** 41, cov.lists[v][0]), (cov.lists[u][-1], -2 ** 41))
            records.append((v, u, tuple((b, a) for a, b in pairs)) if f else (u, v, pairs))
        stream = EdgeStream(g.n, tuple(records), lists=cov.lists)
        cov = CorrespondenceCover(cov.lists, {(u, v): pairs for u, v, pairs in records})
        params = manual_params(data.draw(st.integers(1, 4)), 0.1, 1.0, q=4, s=s)
        fam = sample_palettes(cov.lists, s, seed)
        base = 2 * g.n * s
        stored, peak, _ = oracle_cover_stream_retention(stream.records, fam.sampled, base, None)
        cap = base + data.draw(st.integers(-1, peak - base + 1))
        _, _, message = oracle_cover_stream_retention(stream.records, fam.sampled, base, cap)

        made = []

        def conflict(*args, **kwargs):
            made.append(build_conflict(*args, **kwargs))
            return made[-1]

        with mock.patch.object(nibble, "build_conflict", side_effect=conflict) as spy:
            out = stream_color(stream, g.n, params, seed, policy="greedy")
        assert list(out.stored) == stored
        assert out.ledger.peak_words == peak
        assert out.family.pruned == prune(cov, fam, params, delta_ref=params.delta_ref).pruned
        offline = build_conflict(g, fam, cover=cov)
        assert {(u, v) for u, v, _ in stored} == set(offline.graph.edges())
        # the held cover handed to build_conflict is the stream's cover cut
        # down to the samples; it and the conflict instance hold the pairs
        # that the dict constructor's cover of the stored records and the
        # offline instance of the stored edges and that cover hold
        held = spy.call_args.kwargs["cover"]
        cut, _ = restrict_cover(stream.cover, fam.sampled)
        assert held.lists == cut.lists
        for name in ("colors", "eu", "ev", "ra", "rb", "lists"):
            assert np.array_equal(getattr(held.arrays, name), getattr(cut.arrays, name))
        want = CorrespondenceCover(fam.sampled, {(u, v): pairs for u, v, pairs in stored})
        expect = build_conflict(Graph(g.n, [(u, v) for u, v, _ in stored]), out.family,
                                cover=want)
        (got,) = made
        for name in ("indptr", "indices"):
            assert np.array_equal(getattr(got.graph, name), getattr(expect.graph, name))
        assert got.cover.lists == expect.cover.lists
        assert sorted_matchings(held) == want.matchings
        assert sorted_matchings(got.cover) == expect.cover.matchings
        if message:
            with pytest.raises(SpaceCapExceeded) as err:
                stream_color(stream, g.n, params, seed, space_cap=cap, policy="greedy")
            assert str(err.value) == message


class TestCanonicalCover:
    @FAST
    # ids over all of int64, so `Rows.find` ranks them
    @given(graphs(), st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=6,
                              unique=True), st.data())
    def test_join_matches_the_edge_loop(self, g, pool, data):
        # once in one chunk, and once with _CHUNK_KEYS at 1, where a chunk
        # holds entries // (the longest list) edges, so the edges span chunks
        lists = ListAssignment([data.draw(st.sets(st.sampled_from(pool))) for _ in range(g.n)])
        want = oracle_cover_from_lists(g, lists)
        for keys in (cover._CHUNK_KEYS, 1):
            with mock.patch.object(cover, "_CHUNK_KEYS", keys):
                got = cover_from_lists(g, lists)
            assert got.lists == want.lists
            for name in ("colors", "eu", "ev", "ra", "rb", "lists"):
                assert getattr(got.arrays, name).tolist() == getattr(want.arrays, name).tolist()
            assert list(got.matchings.items()) == list(want.matchings.items())

    @FAST
    @given(instances(), PATHS)
    def test_max_color_degree_of_lists(self, inst, cells):
        g, q, rows = inst
        table = oracle_conflict_counts(g, rows, q)
        want = max((table[v][c] for v, row in enumerate(rows) for c in row), default=0)
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            assert _Instance(g, ListAssignment(rows)).max_color_degree() == want


class TestConflictCounts:
    """A graph's conflict counts are `directed_counts` over its CSR slots."""

    @FAST
    @given(instances(), PATHS, st.data())
    def test_matches_oracle(self, inst, cells, data):
        # one count per entry, for colors 0..q-1 with or without the
        # universe and for the same rows over far apart ids
        g, q, rows = inst
        far = renamed(rows, data.draw(far_ids(q)))
        want = at_entries(oracle_conflict_counts(g, rows, q), rows)
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            assert directed_counts(g.indptr, g.indices, rows, q).tolist() == want
            assert directed_counts(g.indptr, g.indices, rows).tolist() == want
            assert directed_counts(g.indptr, g.indices, far).tolist() == want

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_edge_counts_around_the_chunk(self, extra):
        # one color per row: a join chunk holds _CHUNK_KEYS slots, so
        # _CHUNK_KEYS // 2 edges (twice as many slots) fill one exactly
        n = 257
        m = cover._CHUNK_KEYS // 2 + extra
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)][:m]
        g = Graph(n, edges)
        rows = [(v % 2,) for v in range(n)]
        want = at_entries(oracle_conflict_counts(g, rows, 2), rows)
        for cells in (0, 2 ** 62):
            with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
                assert directed_counts(g.indptr, g.indices, rows, 2).tolist() == want

    def test_full_palette_counts_are_degrees(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        rows = [tuple(range(4))] * 5
        for cells in (0, 2 ** 62):
            with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
                counts = directed_counts(g.indptr, g.indices, rows, 4)
            assert counts.tolist() == [g.degree(v) for v in range(5) for _ in range(4)]


class TestRepeatedIds:
    """A row of q entries that holds an id twice lacks another id, so it is
    not a whole palette: a kernel that took it as one would count, or keep,
    pairs whose rows share nothing."""

    ROWS = [(1,), (0, 0)]

    def test_counts_and_survival_on_both_paths(self):
        heads, tails = np.array([0]), np.array([1])
        one, other = grouped_pairs(2, heads, tails), grouped_pairs(2, tails, heads)
        for cells in (0, 2 ** 62):
            with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
                assert directed_counts(*one, self.ROWS).tolist() == [0, 0, 0]
                assert directed_counts(*other, self.ROWS).tolist() == [0, 0, 0]
                assert directed_counts(*one, self.ROWS, 2).tolist() == [0, 0, 0]
                assert shared_edges(heads, tails, self.ROWS).tolist() == [False]

    @FAST
    @given(st.integers(1, 8), st.integers(1, 6), st.data())
    def test_table_counts_match_the_oracle(self, n, q, data):
        # rows of any ids with repeats, many of them q long; every entry of
        # an id counts the pairs whose tail row holds it
        row = st.lists(st.integers(0, q - 1), max_size=q + 1).map(sorted).map(tuple)
        rows = [data.draw(st.just(tuple(range(q))) | st.just((q - 1,) * q) | row)
                for _ in range(n)]
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=30))
        heads = np.array([h for h, _ in pairs], dtype=np.int64)
        tails = np.array([t for _, t in pairs], dtype=np.int64)
        sets = [tuple(sorted(set(row))) for row in rows]
        want = at_entries(oracle_directed_counts(n, heads.tolist(), tails.tolist(), sets, q), rows)
        with mock.patch.object(sparsify, "_TABLE_CELLS", 2 ** 62):
            assert directed_counts(*grouped_pairs(n, heads, tails), rows, q).tolist() == want


    def test_join_counts_an_id_once_per_tail_row(self):
        # the tail row holds 0 twice and counts it once; the head row's
        # two copies of 0 both take the count
        rows = Rows.of([(0,), (0, 0)])
        heads, tails = np.array([0]), np.array([1])
        for cells in (0, 2 ** 62):
            with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
                assert directed_counts(*grouped_pairs(2, heads, tails), rows).tolist() == [1, 0, 0]
                assert directed_counts(*grouped_pairs(2, tails, heads), rows).tolist() == [0, 1, 1]

    @FAST
    @given(st.integers(1, 8), st.integers(1, 6), PATHS, st.data())
    def test_both_paths_match_the_oracle(self, n, q, cells, data):
        # rows with repeats, on the join and on the table, with the ids as
        # colors and spread far apart, and pairs spanning join chunks
        row = st.lists(st.integers(0, q - 1), max_size=q + 1).map(sorted).map(tuple)
        rows = [data.draw(row) for _ in range(n)]
        far = renamed(rows, data.draw(far_ids(q)))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=30))
        heads = np.array([h for h, _ in pairs], dtype=np.int64)
        tails = np.array([t for _, t in pairs], dtype=np.int64)
        sets = [tuple(sorted(set(row))) for row in rows]
        one = oracle_directed_counts(n, heads.tolist(), tails.tolist(), sets, q)
        other = oracle_directed_counts(n, tails.tolist(), heads.tolist(), sets, q)
        want, back = at_entries(one, rows), at_entries(other, rows)
        forth, rev = grouped_pairs(n, heads, tails), grouped_pairs(n, tails, heads)
        with mock.patch.object(cover, "_CHUNK_KEYS", 1), \
                mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            assert directed_counts(*forth, rows, q).tolist() == want
            assert directed_counts(*forth, far).tolist() == want
            assert directed_counts(*rev, rows, q).tolist() == back
            assert directed_counts(*rev, far).tolist() == back


def chunked_lists():
    """(graph, rows) on which the join runs over many chunks, each with
    shared ids: rows of 1-4 of 6 colors on a 60-vertex graph, so with the
    chunk constant at 1 a chunk holds (entries // 4) of the 2m slots."""
    g = gen_bipartite(60, 5, seed=2)
    rng = np.random.default_rng(2)
    return g, [tuple(sorted(rng.choice(6, rng.integers(1, 5), replace=False).tolist()))
               for _ in range(g.n)]


class TestDirectedCounts:
    @pytest.mark.parametrize("chunk_keys", [1, 1 << 16])
    def test_join_chunks_match_the_oracle(self, chunk_keys):
        # the drawn instances seldom share an id past a join chunk's boundary;
        # here, with the constant at 1, the 2m slots fill eight chunks
        g, rows = chunked_lists()
        want = at_entries(oracle_conflict_counts(g, rows, 6), rows)
        with mock.patch.object(cover, "_CHUNK_KEYS", chunk_keys), \
                mock.patch.object(sparsify, "_TABLE_CELLS", 0):
            assert directed_counts(g.indptr, g.indices, rows).tolist() == want

    @CHUNKS
    @given(st.integers(1, 8), st.integers(1, 6), st.booleans(), PATHS, st.data())
    def test_matches_oracle_across_chunks(self, n, q, ragged, cells, data):
        # any pairs, repeats and self pairs included; with _CHUNK_KEYS at 1
        # a table chunk holds n*(q+1) // width pairs and a join chunk
        # entries // width, so long pair lists span chunks
        rows = data.draw(rows_over(n, q, ragged))
        far = renamed(rows, data.draw(far_ids(q)))
        ends = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
        pairs = data.draw(ends)
        heads = np.array([h for h, _ in pairs], dtype=np.int64)
        tails = np.array([t for _, t in pairs], dtype=np.int64)
        want = at_entries(oracle_directed_counts(n, heads.tolist(), tails.tolist(), rows, q),
                          rows)
        grouped = grouped_pairs(n, heads, tails)
        with mock.patch.object(cover, "_CHUNK_KEYS", 1), \
                mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            assert directed_counts(*grouped, rows, q).tolist() == want
            assert directed_counts(*grouped, far).tolist() == want


class TestLanes:
    """The lanes that count on the n x q path (`sparsify._lanes`) against
    the oracle, the table bound huge so that every call takes them."""

    @FAST
    @given(st.integers(1, 8), st.integers(1, 6), st.booleans(), st.data())
    def test_matches_oracle(self, n, q, ascending, data):
        # ragged rows mix whole, partial and empty ones; heads without
        # pairs, no pairs at all and one hub whose many pairs outlast the
        # rounds (so it takes the row sum) all come up
        rows = data.draw(rows_over(n, q, True))
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs = data.draw(st.lists(ends, max_size=30))
        hub = data.draw(st.integers(0, n - 1))
        pairs += [(hub, t) for t in data.draw(st.lists(st.integers(0, n - 1), max_size=80))]
        pairs = sorted(pairs, key=lambda p: p[0]) if ascending else \
            data.draw(st.permutations(pairs))
        heads = np.array([h for h, _ in pairs], dtype=np.int64)
        tails = np.array([t for _, t in pairs], dtype=np.int64)
        want = at_entries(oracle_directed_counts(n, heads.tolist(), tails.tolist(), rows, q),
                          rows)
        with mock.patch.object(sparsify, "_TABLE_CELLS", 2 ** 62):
            assert directed_counts(*grouped_pairs(n, heads, tails), rows, q).tolist() == want

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([255, 256, 65535, 65536]), st.integers(3, 5), st.booleans(),
           st.data())
    def test_accumulator_width_edges(self, count, q, ascending, data):
        # every tail row holds color 0 and is not whole (2 < q colors), so
        # a head's count of 0 is its pair count: the largest that uint8 or
        # uint16 holds, or one past it. 300 heads of 256 pairs overflow
        # uint8 in the rounds, one to three heads in their row sums
        heavy = data.draw(st.sampled_from([1, 3] + ([300] if count <= 256 else [])))
        n = heavy + 2
        rows = [(0,) if v % 2 else (0, 1 + v % (q - 1)) for v in range(n)]
        heads = np.repeat(np.arange(heavy), count)
        tails = heavy + np.arange(heads.size) % 2
        heads, tails = np.append(heads, [heavy, heavy]), np.append(tails, [0, n - 1])
        if not ascending:
            order = np.random.default_rng(data.draw(st.integers(0, 2 ** 32))).permutation(
                heads.size)
            heads, tails = heads[order], tails[order]
        want = at_entries(oracle_directed_counts(n, heads.tolist(), tails.tolist(), rows, q),
                          rows)
        with mock.patch.object(sparsify, "_TABLE_CELLS", 2 ** 62):
            assert directed_counts(*grouped_pairs(n, heads, tails), rows, q).tolist() == want
        assert want[0] == count

    def test_the_lanes_sort_nothing_longer_than_n(self):
        # the pairs come grouped by their row offsets: the only order the
        # lanes ask for is the heads' rank by pair count, n long, whatever
        # the order of the tails within a row
        g = gen_bipartite(200, 6, seed=3)
        rows = sample_palettes(SharedPalette(g.n, 12), 5, seed=1).sampled
        within = np.concatenate([np.random.default_rng(v).permutation(g.neighbors(v))
                                 for v in range(g.n)])
        want = at_entries(oracle_conflict_counts(g, rows, 12), rows)
        for tails in (g.indices, within):
            with mock.patch.object(sparsify, "stable_order", wraps=sparsify.stable_order) as spy, \
                    mock.patch.object(np, "sort", wraps=np.sort) as sort, \
                    mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
                assert directed_counts(g.indptr, tails, rows, 12).tolist() == want
            assert [call.args[0].size for call in spy.call_args_list] == [g.n]
            assert sort.call_args_list == argsort.call_args_list == []

    def test_csr_counts_peak_below_the_table(self):
        # n = 2*10^4, 480,000 entries: the bincount table these lanes
        # replaced peaked at 28.6 MB here, past four int64 words per entry
        g = gen_bipartite(20_000, 16, seed=1)
        rows = sample_palettes(SharedPalette(g.n, 33), 24, seed=0).sampled
        tracemalloc.start()
        try:
            directed_counts(g.indptr, g.indices, rows, 33)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * rows.values.size


class TestProduct:
    """The float32 matrix product that counts on dense graphs
    (`sparsify._product`) against the oracle, on both sides of
    `_PRODUCT_SHARE` and with blocks of one head to all of them."""

    @FAST
    @given(st.integers(1, 8), st.integers(1, 6), SHARES, st.data())
    def test_matches_oracle(self, n, q, share, data):
        # rows with repeated ids and empty ones; pairs with repeated tails
        # and a hub, grouped by head in any order within a head
        row = st.lists(st.integers(0, q - 1), max_size=q + 1).map(sorted).map(tuple)
        rows = [data.draw(row) for _ in range(n)]
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs = data.draw(st.lists(ends, max_size=30))
        hub = data.draw(st.integers(0, n - 1))
        pairs += [(hub, t) for t in data.draw(st.lists(st.integers(0, n - 1), max_size=40))]
        heads = np.array([h for h, _ in pairs], dtype=np.int64)
        tails = np.array([t for _, t in pairs], dtype=np.int64)
        sets = [tuple(sorted(set(row))) for row in rows]
        want = at_entries(oracle_directed_counts(n, heads.tolist(), tails.tolist(), sets, q), rows)
        block = data.draw(st.integers(1, 3 * n))
        with mock.patch.object(sparsify, "_TABLE_CELLS", 2 ** 62), \
                mock.patch.object(sparsify, "_PRODUCT_SHARE", share), \
                mock.patch.object(sparsify, "_BLOCK_CELLS", block):
            assert directed_counts(*grouped_pairs(n, heads, tails), rows, q).tolist() == want

    @pytest.mark.parametrize("block", [1, 4, 5, 9, 1 << 22])
    def test_repeated_tail_and_empty_row(self, block):
        # head 0 has tail 2 twice, row 1 is empty, row 3 holds 0 twice;
        # blocks of one head (1, 4 and 5 cells), of two (9) and of all
        rows = [(0, 1), (), (1, 2), (0, 0, 2)]
        pairs = [(0, 2), (0, 2), (0, 1), (0, 3), (1, 0), (1, 3), (2, 0), (3, 2), (3, 3)]
        heads = np.array([h for h, _ in pairs], dtype=np.int64)
        tails = np.array([t for _, t in pairs], dtype=np.int64)
        sets = [tuple(sorted(set(row))) for row in rows]
        want = at_entries(oracle_directed_counts(4, heads.tolist(), tails.tolist(), sets, 3), rows)
        assert want == [1, 2, 1, 0, 1, 1, 2]
        for share, product in ((0.0, True), (float("inf"), False)):
            with mock.patch.object(sparsify, "_PRODUCT_SHARE", share), \
                    mock.patch.object(sparsify, "_BLOCK_CELLS", block), \
                    mock.patch.object(sparsify, "_product", wraps=sparsify._product) as spy:
                counts = directed_counts(*grouped_pairs(4, heads, tails), rows, 3)
            assert counts.tolist() == want and counts.dtype == np.int64
            assert spy.called == product

    def test_switch_at_the_share(self):
        # 12 pairs among n = 4 heads fill 12/16 of the adjacency: the
        # product runs at a share of 12/16 and the lanes one step above
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        rows = [(0,), (0, 1), (1,), (0, 1)]
        want = at_entries(oracle_conflict_counts(g, rows, 2), rows)
        for share, product in ((0.75, True), (0.8125, False)):
            with mock.patch.object(sparsify, "_PRODUCT_SHARE", share), \
                    mock.patch.object(sparsify, "_product", wraps=sparsify._product) as spy:
                assert directed_counts(g.indptr, g.indices, rows, 2).tolist() == want
            assert spy.called == product

    def test_dense_sample_takes_the_product(self):
        # a graph past the share by default, counted both ways
        g = gen_bipartite(120, 20, seed=2)
        assert g.indices.size >= sparsify._PRODUCT_SHARE * g.n ** 2
        rows = sample_palettes(SharedPalette(g.n, 40), 15, seed=3).sampled
        want = at_entries(oracle_conflict_counts(g, rows, 40), rows)
        with mock.patch.object(sparsify, "_product", wraps=sparsify._product) as spy:
            assert directed_counts(g.indptr, g.indices, rows, 40).tolist() == want
        assert spy.called
        with mock.patch.object(sparsify, "_PRODUCT_SHARE", float("inf")):
            assert directed_counts(g.indptr, g.indices, rows, 40).tolist() == want


class TestPruneByCounts:
    @FAST
    @given(instances(), st.floats(-1.0, 12.0), PATHS)
    def test_matches_oracle(self, inst, thr, cells):
        g, q, rows = inst
        params = manual_params(6, 0.1, 1.0, q=8, s=4)
        d_ref = thr * params.q / ((1.0 + params.gamma_prime) * params.s)
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            out = prune(g, PaletteFamily(tuple(rows), universe=q), params, delta_ref=d_ref)
        assert out.pruned == oracle_prune(g, rows, params.threshold(d_ref))

    @FAST
    @given(graphs(), st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=1, max_size=6,
                              unique=True), PATHS, st.data())
    def test_arbitrary_color_ids_through_prune(self, g, pool, cells, data):
        rows = [tuple(sorted(data.draw(st.sets(st.sampled_from(pool)))))
                for _ in range(g.n)]
        d_ref = data.draw(st.integers(0, 6))
        params = manual_params(6, 0.1, 1.0, q=8, s=4)
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            out = prune(g, PaletteFamily(tuple(rows)), params, delta_ref=d_ref)
            conflict = build_conflict(g, out)
        thr = (1.0 + params.gamma_prime) * params.s * d_ref / params.q
        assert out.pruned == oracle_prune(g, rows, thr)
        assert list(conflict.graph.edges()) == oracle_surviving_edges(g, out.pruned)

    # gamma' = 1.5**2 / (3 * 1.5) = 0.5, so the threshold 1.5 * 4 * d / 6 is d
    EXACT = manual_params(6, 0.5, 1.5, q=6, s=4)

    @pytest.mark.parametrize("cells", [0, 2 ** 62])
    @pytest.mark.parametrize("share", [0.0, float("inf")])
    def test_heads_below_at_and_above_the_threshold(self, cells, share):
        # vertex 0 has degree 4 > 3, vertex 5 degree 3 = the threshold and
        # the rest less; every row holds 0, so a head's count of 0 is its
        # degree. Only vertex 0's CSR row is counted
        assert self.EXACT.threshold(3) == 3.0
        g = Graph(10, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (5, 7), (5, 8), (8, 9)])
        rows = [(0, 1), (0,), (0, 2), (0, 1), (0,), (0, 2, 3), (0, 3), (0, 1), (0, 1, 2), (0,)]
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells), \
                mock.patch.object(sparsify, "_PRODUCT_SHARE", share), \
                mock.patch.object(sparsify, "directed_counts",
                                  wraps=sparsify.directed_counts) as spy:
            out = prune(g, PaletteFamily(tuple(rows), universe=4), self.EXACT, delta_ref=3)
        assert out.pruned == oracle_prune(g, rows, 3.0)
        assert out.pruned[0] == (1,) and out.pruned[5] == (0, 2, 3)
        offsets, tails = spy.call_args.args[:2]
        assert np.diff(offsets).tolist() == [4] + [0] * 9
        assert tails.tolist() == [1, 2, 3, 4]

    @FAST
    @given(instances(), st.integers(0, 12), PATHS, SHARES)
    def test_integer_thresholds_match_oracle(self, inst, d_ref, cells, share):
        # counts that land on the threshold itself are kept
        g, q, rows = inst
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells), \
                mock.patch.object(sparsify, "_PRODUCT_SHARE", share):
            out = prune(g, PaletteFamily(tuple(rows), universe=q), self.EXACT, delta_ref=d_ref)
        assert out.pruned == oracle_prune(g, rows, float(d_ref))

    def test_every_head_failing_counts_the_slots_in_place(self):
        # a 5-cycle at threshold 1: every degree is 2 > 1, so the counts
        # read g's CSR slots themselves, not a copy
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        rows = [(0, 1), (1,), (0, 1), (0, 2), (1, 2)]
        with mock.patch.object(sparsify, "directed_counts",
                               wraps=sparsify.directed_counts) as spy:
            out = prune(g, PaletteFamily(tuple(rows), universe=3), self.EXACT, delta_ref=1)
        assert out.pruned == oracle_prune(g, rows, 1.0)
        offsets, tails = spy.call_args.args[:2]
        assert offsets.tolist() == g.indptr.tolist() and np.shares_memory(tails, g.indices)

    @pytest.mark.parametrize("d_ref", [4, 5])
    def test_no_head_can_fail_counts_nothing(self, d_ref):
        # the largest degree is 4, at or below the threshold d_ref: every
        # color stays and nothing is counted
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
        fam = sample_palettes(SharedPalette(g.n, 6), 4, seed=1)
        with mock.patch.object(sparsify, "directed_counts",
                               wraps=sparsify.directed_counts) as spy:
            out = prune(g, fam, self.EXACT, delta_ref=d_ref)
        assert out.pruned is out.sampled is fam.sampled
        assert out.pruned == oracle_prune(g, fam.sampled, float(d_ref))
        assert not spy.called


class TestSurvivingEdges:
    @pytest.mark.parametrize("chunk_keys", [1, 1 << 16])
    def test_join_chunks_match_the_oracle(self, chunk_keys):
        g, rows = chunked_lists()
        us, vs = g.edge_arrays()
        want = oracle_surviving_edges(g, rows)
        with mock.patch.object(cover, "_CHUNK_KEYS", chunk_keys), \
                mock.patch.object(sparsify, "_TABLE_CELLS", 0):
            hit = shared_edges(us, vs, rows)
        assert list(zip(us[hit].tolist(), vs[hit].tolist())) == want
        assert 0 < len(want) < g.m

    @CHUNKS
    @given(graphs(), st.integers(1, 200), st.integers(1, 8), PATHS, st.data())
    def test_matches_oracle(self, g, q, chunk_keys, cells, data):
        rows = data.draw(rows_over(g.n, q, True))
        far = renamed(rows, data.draw(far_ids(q)))
        us, vs = g.edge_arrays()
        want = oracle_surviving_edges(g, rows)
        with mock.patch.object(cover, "_CHUNK_KEYS", chunk_keys), \
                mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            for hit in (shared_edges(us, vs, rows, q), shared_edges(us, vs, far)):
                assert list(zip(us[hit].tolist(), vs[hit].tolist())) == want

    @pytest.mark.parametrize("q", [1, 63, 64, 65, 128, 129])
    @pytest.mark.parametrize("extra", [None, -1, 1])
    def test_word_boundaries_around_the_chunk(self, q, extra):
        # q at the 64-bit word boundaries; m = 0 or one off a chunk of pairs
        n = 400
        m = 0 if extra is None else cover._CHUNK_KEYS + extra
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)][:m])
        rng = np.random.default_rng(q)
        # rows of 0-3 colors, the top word's last color among them
        rows = [tuple(sorted(set(rng.choice([0, q - 1, *rng.integers(0, q, 2)],
                                            rng.integers(0, 4)).tolist())))
                for _ in range(n)]
        us, vs = g.edge_arrays()
        want = oracle_surviving_edges(g, rows)
        with mock.patch.object(sparsify, "_TABLE_CELLS", 2 ** 62):
            hit = shared_edges(us, vs, rows, q)
        assert list(zip(us[hit].tolist(), vs[hit].tolist())) == want

    @FAST
    @given(st.integers(1, 200), st.data())
    def test_packed_bits(self, q, data):
        rows = data.draw(rows_over(data.draw(st.integers(0, 6)), q, True))
        masks = sparsify._packed_masks(Rows.of(rows), q)
        assert masks.dtype == np.uint64 and masks.shape == (len(rows), (q + 63) // 64)
        for v, row in enumerate(rows):
            bits = [c for c in range(masks.shape[1] * 64)
                    if int(masks[v, c >> 6]) >> (c & 63) & 1]
            assert bits == list(row)

    @pytest.mark.parametrize("q", [1, 64, 65])
    def test_whole_rows_need_no_masks(self, q):
        # whole, partial, empty and repeated-id rows, then every row whole:
        # with every row whole any two share an id, so no mask is built
        g = gen_bipartite(60, 5, seed=q)
        us, vs = g.edge_arrays()
        whole, rng = tuple(range(q)), np.random.default_rng(q)
        mixed = [whole, (), (0,) * q, tuple(sorted(rng.choice(q, q // 2 + 1, replace=False)))]
        for rows in ([mixed[v % 4] for v in range(g.n)], [whole] * g.n):
            want = oracle_surviving_edges(g, rows)
            for cells in (0, 2 ** 62):
                with mock.patch.object(sparsify, "_TABLE_CELLS", cells), \
                        mock.patch.object(sparsify, "_packed_masks",
                                          wraps=sparsify._packed_masks) as masks:
                    hit = shared_edges(us, vs, rows, q)
                assert list(zip(us[hit].tolist(), vs[hit].tolist())) == want
                assert masks.called == (cells > 0 and rows[1] != whole)

    @pytest.mark.parametrize("cells", [0, 2 ** 62])
    def test_pigeonhole_needs_distinct_ids(self, cells):
        # every row holds 3 > 4 / 2 entries, but rows 0 and 1 hold two ids
        # each, 0 twice and 3 twice, and share none: the pairs are compared.
        # Without the repeats every pair survives and nothing is compared
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        us, vs = g.edge_arrays()
        for rows in ([(0, 0, 1), (2, 3, 3), (0, 1, 2), (1, 2, 3)],
                     [(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)]):
            want = oracle_surviving_edges(g, rows)
            with mock.patch.object(sparsify, "_TABLE_CELLS", cells), \
                    mock.patch.object(sparsify, "_packed_masks",
                                      wraps=sparsify._packed_masks) as masks, \
                    mock.patch.object(cover, "_joined", wraps=cover._joined) as joined:
                for hit in (shared_edges(us, vs, rows, 4), shared_edges(us, vs, rows)):
                    assert list(zip(us[hit].tolist(), vs[hit].tolist())) == want
            assert (masks.called or joined.called) == (rows[0] == (0, 0, 1))
        assert len(want) == g.m

    @FAST
    @given(graphs(), st.integers(1, 8), PATHS, st.data())
    def test_rows_over_half_the_ids_match_oracle(self, g, q, cells, data):
        # rows of more than q/2 entries, some holding an id twice
        row = st.lists(st.integers(0, q - 1), min_size=q // 2 + 1, max_size=q + 1)
        rows = [tuple(sorted(data.draw(row))) for _ in range(g.n)]
        us, vs = g.edge_arrays()
        want = oracle_surviving_edges(g, rows)
        with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
            for hit in (shared_edges(us, vs, rows, q), shared_edges(us, vs, rows)):
                assert list(zip(us[hit].tolist(), vs[hit].tolist())) == want

    def test_edgeless_graph(self):
        g = Graph(3)
        us, vs = g.edge_arrays()
        for cells in (0, 2 ** 62):
            with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
                assert shared_edges(us, vs, [(0,), (0,), (1,)], 2).size == 0


class TestStreamedAgainstOffline:
    @FAST
    @given(graphs(max_n=10), st.integers(1, 8), PATHS, st.data())
    def test_retention_ledger_and_cap(self, g, q, cells, data):
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
        fam = sample_palettes(SharedPalette(g.n, q), s, seed)
        stored, peak, _ = oracle_stream_retention(records, fam.sampled, base, None)
        cap = base + data.draw(st.integers(-1, 2 * len(stored) + 1))
        _, _, message = oracle_stream_retention(records, fam.sampled, base, cap)

        with mock.patch.object(sparsify, "_TABLE_CELLS", cells):
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

    @FAST
    @given(graphs(max_n=10), st.integers(1, 8), st.booleans(), st.data())
    def test_ledger_matches_the_record_loop(self, g, q, from_stream, data):
        # caps just below, at and above the total after j stored edges, and
        # one below the palettes and counters alone
        s = data.draw(st.integers(1, q))
        seed = data.draw(st.integers(0, 10 ** 6))
        stream = EdgeStream.from_graph(g, data.draw(st.integers(0, 100)))
        params = manual_params(max(1, q // 2), 0.1, 1.0, q=q, s=s)
        rows = sample_palettes(SharedPalette(g.n, q), s, seed).sampled

        def run(cap):
            return stream_color(stream, g.n, params, seed, space_cap=cap, policy="greedy",
                                delta_from_stream=from_stream)

        def fields(ledger):
            return {k: getattr(ledger, k) for k in
                    ("stored_edges", "palette_words", "counter_words", "peak_words")}

        full, _ = oracle_stream_ledger(stream.records, rows, g.n, s, from_stream, None)
        assert fields(run(None).ledger) == full
        base = full["palette_words"] + full["counter_words"]
        total = base + 2 * data.draw(st.integers(0, full["stored_edges"]))
        for cap in (base - 1, total - 1, total, total + 1):
            want, message = oracle_stream_ledger(stream.records, rows, g.n, s, from_stream, cap)
            if message:
                with pytest.raises(SpaceCapExceeded) as err:
                    run(cap)
                assert str(err.value) == message
            else:
                assert fields(run(cap).ledger) == want
