"""The one integer reader, `graphcore._Ints`, and the three file formats on
it: `load_graph`, `load_cover` and `cli._load_lists`.

Each format is fuzzed against the line loop it replaced (conftest's
`oracle_load_graph`, `oracle_load_cover` and `oracle_load_lists`), on files
with blank lines, "\\r\\n" and lone "\\r" line ends, tabs and other ASCII
whitespace, leading and trailing blanks, signs, floats and other
non-integers, integers just inside and just outside int64, short and long
lines, truncated sections and repeated or turned-round matching lines: the
value read, or the exception's type and exact message, must be the
oracle's. The forms that the reader rejects on purpose, where the loops
read them through `int`, `str.split` or `str.splitlines` (`1_0`, digits
and whitespace outside ASCII, the separators \\x1c-\\x1f, and the line
breaks that only `str.splitlines` makes in a lists file), are left out of
the fuzz and pinned one by one below.
"""

import numpy as np
import pytest
from conftest import oracle_load_cover, oracle_load_graph, oracle_load_lists
from hypothesis import given, settings
from hypothesis import strategies as st

from palettesparse.cli import ConfigError, _load_lists, main
from palettesparse.cover import CoverError, load_cover
from palettesparse.graphcore import GraphError, _Ints, load_graph

INT64 = 2 ** 63

# tokens that are not small ids: signs and leading zeros, integers at and
# past both ends of int64 (some longer than 19 bytes with leading zeros),
# floats and other non-integers
ODD_TOKENS = ["+5", "-0", "007", "+0", "-3", str(INT64 - 1), str(INT64), str(-INT64),
              str(-INT64 - 1), str(2 * INT64 + 3), "9" * 19, "1" + "0" * 18, "0" * 22 + "7",
              "-" + "0" * 20 + str(INT64), "+" + "0" * 30 + str(INT64 - 1), "9" * 25,
              "1.5", "1e3", "1.", ".5", "x", "-", "+", "+-1", "--2", "5-", "0x1", "nan"]

LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def token(draw, small=8, odd=True):
    if odd and draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(ODD_TOKENS))
    return str(draw(st.integers(0, small)))


@st.composite
def text(draw, lines, separators=(" ", "\t", "  ", " \t", "\v", "\f")):
    """The lines (lists of tokens) as a file: separators, leading and
    trailing blanks and line ends drawn, blank lines put in, and the last
    line end maybe dropped."""
    blanks = st.sampled_from(["", "", " ", "\t", "  "])
    out = []
    for line in lines:
        if draw(st.integers(0, 15)) == 0:
            out.append(draw(blanks) + draw(LINE_ENDS))
        out.append(draw(blanks) + draw(st.sampled_from(separators)).join(line) + draw(blanks)
                   + draw(LINE_ENDS))
    file = "".join(out)
    return file.rstrip("\r\n") if draw(st.booleans()) else file


def sometimes(draw, faults: bool) -> bool:
    """In a file drawn with faults, True once in eight."""
    return faults and draw(st.integers(0, 7)) == 0


def mangled(draw, tokens, faults: bool):
    """The tokens, one of them maybe swapped for an odd one."""
    tokens = list(tokens)
    if tokens and sometimes(draw, faults):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(ODD_TOKENS))
    return tokens


# each file is drawn with faults put in, or, once in three, as a valid file
FAULTS = st.sampled_from([True, True, False])


@st.composite
def graph_files(draw):
    faults = draw(FAULTS)
    n, m = draw(st.integers(2, 9)), draw(st.integers(0, 8))
    lines = [mangled(draw, [str(n), str(m + sometimes(draw, faults))], faults)]
    for _ in range(m):
        # an id n is out of range, the line again repeats an edge
        u, v = sorted(draw(st.lists(st.integers(0, n - 1 + sometimes(draw, faults)),
                                    min_size=2, max_size=2, unique=True)))
        line = [str(v), str(u)] if sometimes(draw, faults) else [str(u), str(v)]
        line = lines[-1] if len(lines) > 1 and sometimes(draw, faults) else line
        cut = draw(st.sampled_from([1, 3])) if sometimes(draw, faults) else 2
        lines.append(mangled(draw, (line + ["1"])[:cut], faults))
    return draw(text(lines))


@st.composite
def cover_files(draw):
    faults = draw(FAULTS)
    n = draw(st.integers(0, 4))
    lists = [[draw(token(11, faults)) for _ in range(draw(st.integers(0, 3)))] for _ in range(n)]
    colors = sum(map(len, lists)) + sometimes(draw, faults)
    lines = [mangled(draw, [str(n), str(colors)], faults)] + lists
    if sometimes(draw, faults):  # a truncated list section
        lines = lines[:draw(st.integers(1, len(lines)))]
    for _ in range(draw(st.integers(0, 5))):
        p = draw(st.integers(0, 3))
        line = [str(draw(st.integers(0, n))), str(draw(st.integers(0, n))),
                str(p + draw(st.sampled_from([1, -1])) * sometimes(draw, faults))]
        line += [str(draw(st.integers(0, 11))) for _ in range(2 * p + sometimes(draw, faults))]
        lines.append(mangled(draw, line[:2] if sometimes(draw, faults) else line, faults))
        if sometimes(draw, faults):  # the line again, maybe turned round
            lines.append(draw(st.sampled_from([line, line[1::-1] + line[2:]])))
    return draw(text(lines))


@st.composite
def lists_files(draw):
    faults = draw(FAULTS)
    n = draw(st.integers(0, 4))
    head = draw(st.sampled_from([str(n + 1), "+" + str(n), "0" + str(n)])) \
        if sometimes(draw, faults) else str(n)
    rows = [draw(st.lists(token(9, faults), max_size=3, unique=not sometimes(draw, faults)))
            for _ in range(n + draw(st.sampled_from([1, -1])) * sometimes(draw, faults))]
    # "\v" and "\f" break a line for `str.splitlines`: see the pinned cases
    return n, draw(text([[head]] + rows, separators=(" ", "\t", "  ", " \t")))


def outcome(read, path):
    # any exception: a header's n too large for a Graph raises numpy's ValueError
    try:
        return read(path)
    except Exception as e:
        return type(e), str(e)


def arrays(obj) -> list:
    """The arrays that a read graph, cover or lists holds."""
    if hasattr(obj, "indptr"):
        return [obj.n, obj.indptr, obj.indices]
    rows = getattr(obj, "lists", obj)
    out = [rows.values, rows.indptr]
    if hasattr(obj, "arrays"):
        a = obj.arrays
        out += [a.colors, a.eu, a.ev, a.ra, a.rb, a.lists]
    return out


def assert_same(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        assert len(arrays(got)) == len(arrays(want))
        for x, y in zip(arrays(got), arrays(want)):
            assert np.shape(x) == np.shape(y) and (np.asarray(x) == np.asarray(y)).all()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "f.txt"


def written(path, file: str) -> None:
    with open(path, "w", newline="") as fh:  # line ends as drawn
        fh.write(file)


class TestAgainstTheLoops:
    @settings(max_examples=400, deadline=None)
    @given(graph_files())
    def test_graph(self, path, file):
        written(path, file)
        assert_same(outcome(load_graph, path), outcome(oracle_load_graph, path))

    @settings(max_examples=400, deadline=None)
    @given(cover_files())
    def test_cover(self, path, file):
        written(path, file)
        assert_same(outcome(load_cover, path), outcome(oracle_load_cover, path))

    @settings(max_examples=400, deadline=None)
    @given(lists_files())
    def test_lists(self, path, drawn):
        n, file = drawn
        written(path, file)
        assert_same(outcome(lambda p: _load_lists(p, n), path),
                    outcome(lambda p: oracle_load_lists(p, n), path))


class TestReader:
    @pytest.mark.parametrize("file, counts", [
        (b"", [0]),  # an empty file reads as one empty line
        (b"\n", [0]),
        (b"1 2", [2]),
        (b"1\r2\r\n3\n\r4", [1, 1, 1, 0, 1]),
        (b" \t1\v\f2  \n\n", [2, 0]),
    ])
    def test_lines_break_as_universal_newlines_break_them(self, path, file, counts):
        path.write_bytes(file)
        f = _Ints(path)
        assert f.counts.tolist() == counts and f.junk == f.wide == len(counts)
        assert f.values.tolist() == [int(t) for t in file.split()]

    @pytest.mark.parametrize("tok, fits", [
        (str(INT64 - 1), True), (str(-INT64), True), (str(INT64), False), (str(-INT64 - 1), False),
        ("0" * 40 + str(INT64 - 1), True), ("-" + "0" * 40 + str(INT64), True),
        ("+" + "0" * 40 + str(INT64), False), ("9" * 19, False), ("1" * 18, True),
    ])
    def test_int64_is_exact_at_both_ends(self, path, tok, fits):
        path.write_text(f"1 {tok}\n2\n")
        f = _Ints(path)
        assert f.junk == 2 and f.wide == (2 if fits else 0)
        if fits:
            assert f.values.tolist() == [1, int(tok), 2]

    def test_a_bad_token_is_found_by_its_first_bad_byte(self, path):
        path.write_bytes(b"1 2\n3 +4 -5\n6 7-\n\xff\n")
        f = _Ints(path)
        assert (f.junk, f.wide) == (2, 4) and f.counts.tolist() == [2, 3, 2, 1]
        assert f.values[:5].tolist() == [1, 2, 3, 4, -5]


class TestDeclaredRejections:
    """Forms that the loops read through Python's str and int parsing and
    the reader rejects: each one against what the loop made of it."""

    @pytest.mark.parametrize("line, fault", [
        ("0 1_0", "non-integer token in line"),  # int() reads 10
        ("0 \u0661", "non-integer token in line"),  # an Arabic-Indic 1
        ("0\u00a01", "bad edge line:"),  # a no-break space, which str.split splits at
        ("0\u20031", "bad edge line:"),  # an em space
        ("0\x1f1", "bad edge line:"),  # str.split splits at \x1c-\x1f too
    ])
    def test_in_a_graph_file(self, path, line, fault):
        path.write_text(f"12 1\n{line}\n", encoding="utf-8")
        assert oracle_load_graph(path).m == 1
        with pytest.raises(GraphError) as e:
            load_graph(path)
        assert str(e.value) == f"{fault} {line!r}"

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                     "\u2029"])
    def test_lists_break_only_at_universal_newlines(self, path, brk):
        # str.splitlines breaks a line at each of these too
        path.write_text(f"2\n3{brk}4\n", encoding="utf-8")
        assert oracle_load_lists(path, 2).lists == ((3,), (4,))
        with pytest.raises(ConfigError, match="row 1 is missing$|invalid literal"):
            _load_lists(path, 2)

    def test_lists_take_no_underscore(self, path):
        path.write_text("1\n1_0\n")
        assert oracle_load_lists(path, 1).lists == ((10,),)
        with pytest.raises(ConfigError, match="invalid literal for int.. with base 10: '1_0'$"):
            _load_lists(path, 1)


class TestBytesThatAreNotUtf8:
    """A byte that is not UTF-8 is a bad token's byte: each command exits 3
    naming the line (the bad token, for a lists file), where the loops'
    text-mode files raised UnicodeDecodeError."""

    def test_graph(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_bytes(b"2 1\n0 \xff1\n")
        with pytest.raises(UnicodeDecodeError):
            oracle_load_graph(gpath)
        assert main(["queries", "--graph", str(gpath)]) == 3
        assert capsys.readouterr().err == "error: non-integer token in line '0 \\\\xff1'\n"

    def test_cover(self, tmp_path, capsys):
        gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
        gpath.write_text("2 1\n0 1\n")
        cpath.write_bytes(b"2 4\n0 1\n2 3\n0 1 1 0 \xfe2\n")
        with pytest.raises(UnicodeDecodeError):
            oracle_load_cover(cpath)
        assert main(["verify-cover", "--graph", str(gpath), "--cover", str(cpath)]) == 3
        assert capsys.readouterr().err == \
            "error: non-integer token in line '0 1 1 0 \\\\xfe2'\n"

    def test_lists(self, tmp_path, capsys):
        gpath, lpath = tmp_path / "g.txt", tmp_path / "l.txt"
        gpath.write_text("2 1\n0 1\n")
        lpath.write_bytes(b"2\n0 1\n2 3\xff\n")
        with pytest.raises(UnicodeDecodeError):
            oracle_load_lists(lpath, 2)
        assert main(["solve", "--graph", str(gpath), "--lists", str(lpath)]) == 3
        assert capsys.readouterr().err == (f"config error: lists file {lpath}: invalid literal "
                                           "for int() with base 10: '3\\\\xff'\n")
