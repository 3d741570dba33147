"""Source-level rules for the package.

Invariants raise real exceptions: `python -O` strips `assert` statements,
so a check written as one would silently stop running. The package's
re-exports and the modules' `__all__` lists agree. Only `_rng` reads or
writes a generator's raw stream and state, so the emulation of numpy's
draws stays in one place. Only the `graphcore` sort helpers call
`np.unique` or sort with `kind="stable"`, so every dedupe and stable order
takes their one-sort path. No `.any` or `.all` reduces along an `axis`:
survival of packed bit masks ORs their word columns, 1-D, instead.
`nibble` holds a `Graph` wherever it counts list entries, so it counts
over the graph's CSR slots, which its row offsets group by head. Only a
solver instance's `slot_row` makes a graph's per-slot rows
(`Graph.slot_rows`), for `clashes`, the finisher and greedy on a cover
(its pairs' two ends) that read them: pruning, greedy on lists and the
cover pairs, which find their slots by a search of the rows, go by the
row offsets. No
module reads a stream's `records`: those tuples are a view for callers
and oracles, and the package's own passes read the stream's arrays. No
module calls a per-call `.pair(` or `.neighbor(` query or
`itertools.combinations`: the package's passes issue batched queries and
expand pairs a bounded chunk at a time (`graphcore.run_pairs`), and the
per-call methods stay as the tests' reference for the batches. All three
models reduce what they saw through one tail, `nibble._reduce`, the only
caller of `build_conflict`: `streaming` and `querysim` call none of
`prune`, `build_conflict`, `solve` or the kernels beneath them, save
that the stream's retention of a cover stream is `restrict_cover`, the
survival kernel `build_conflict` cuts its cover with, and `streaming`
searches no rows (`.find(`). In `cli` only the `sparsify` and `solve`
subcommands call `prune` and `solve` directly. In `nibble` only the
nibble stage cuts a cover (`restrict_cover`), once before its rounds and
once for its finisher: a round returns its next cover itself. Only
`Rows.strict` runs the strict-ascent pass (`.steps(np.less_equal)`), so
whether rows hold an id twice is learnt once per `Rows` and passed on,
not recomputed by each layer. Only the row join, `cover._joined`, spreads
rows into their entries (`Rows.spread`), so the package has one join of
rows, run a bounded chunk of pairs at a time. Every cover built from given
ids is encoded by `CorrespondenceCover._encode`: a stream built from
record tuples neither ranks ids nor builds `CoverArrays` itself. Inside the
package only `cli` reads a coloring's `.assignment`, for its output: every
library pass reads the coloring's `arrays()`, so no mapping is built on
the way from a solver stage to a verification. Only the one integer
reader, `graphcore._Ints`, splits a file into lines, and it does so with
array masks: nothing in the package calls `readline`, `readlines` or
`splitlines`, splits text at a line break, or iterates an open file, so
the graph, cover and lists files are read by one pass and no line loop
comes back.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "palettesparse"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_modules_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


def _reexports():
    """(module, name) for every name `palettesparse/__init__.py` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_reexports_are_in_their_modules_all():
    missing = [f"{mod}.{name}" for mod, name in _reexports()
               if name not in importlib.import_module(f"palettesparse.{mod}").__all__]
    assert missing == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_bound(path):
    module = importlib.import_module(f"palettesparse.{path.stem}"
                                     if path.stem != "__init__" else "palettesparse")
    unbound = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert unbound == []


# attributes of a numpy bit generator that reach below `Generator`'s draws
GENERATOR_INTERNALS = {"bit_generator", "random_raw", "state"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "_rng.py"],
                         ids=lambda p: p.name)
def test_only_rng_touches_generator_internals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in GENERATOR_INTERNALS]
    assert lines == [], f"{path.name} reaches generator internals on lines {lines}"


# the graphcore functions that give np.unique's and a stable argsort's answers
SORT_HELPERS = {"_sorted", "distinct", "first_seen", "ranked", "stable_order"}


def _unique_or_stable(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "unique"
    return isinstance(node, ast.keyword) and node.arg == "kind" and \
        isinstance(node.value, ast.Constant) and node.value.value == "stable"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_graphcore_helpers_dedupe_or_sort_stably(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for top in tree.body if path.name == "graphcore.py"
              and isinstance(top, ast.FunctionDef) and top.name in SORT_HELPERS
              for node in ast.walk(top)}
    lines = [node.lineno for node in ast.walk(tree)
             if _unique_or_stable(node) and id(node) not in inside]
    assert lines == [], f"{path.name} calls np.unique or a stable sort on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_any_or_all_along_an_axis(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("any", "all")
             and any(k.arg == "axis" for k in node.keywords)]
    assert lines == [], f"{path.name} reduces .any/.all along an axis on lines {lines}"


def _tails_from_indices(call) -> bool:
    """The second argument of the call reads some `.indices` (CSR slots)."""
    return len(call.args) > 1 and any(isinstance(node, ast.Attribute) and node.attr == "indices"
                                      for node in ast.walk(call.args[1]))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_counts_over_csr_slots(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "directed_counts" and not _tails_from_indices(node))
    assert lines == [], f"{path.name} counts over edge arrays on lines {lines}"


def _callers(path, name, arg=None) -> set:
    """(enclosing class or None, enclosing function, or None at class or
    module level) for each call of a function or method `name` in path's
    module; with `arg`, only the calls passing an argument `arg` or `x.arg`."""
    found = set()

    def visit(node, cls, fn):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "attr", getattr(node.func, "id", None)) == name and \
                (arg is None or any(getattr(a, "attr", getattr(a, "id", None)) == arg
                                    for a in node.args)):
            found.add((cls, fn))
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(ast.parse(path.read_text(), filename=str(path)), None, None)
    return found


def test_only_a_solver_instance_makes_slot_rows():
    callers = {(path.name, *call) for path in MODULES for call in _callers(path, "slot_rows")}
    assert callers == {("nibble.py", "_Instance", "slot_row")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_records(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "records"]
    assert lines == [], f"{path.name} reads .records on lines {lines}"


def _per_call_pairs(node) -> bool:
    """A per-call `.pair(`/`.neighbor(` query, or any use of `combinations`."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("pair", "neighbor")
    return (isinstance(node, ast.Attribute) and node.attr == "combinations") or \
        (isinstance(node, ast.Name) and node.id == "combinations") or \
        (isinstance(node, ast.alias) and node.name == "combinations")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_passes_issue_batched_queries(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(getattr(node, "lineno", 0) for node in ast.walk(tree) if _per_call_pairs(node))
    assert lines == [], f"{path.name} queries or pairs one at a time on lines {lines}"


def _calls(path, names) -> set:
    """(enclosing top-level definition, or None at module level, callee)
    for each call in path's module of a function or method in `names`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in names:
                    found.add((getattr(top, "name", None), callee))
    return found


# the kernels beneath `prune`/`build_conflict`, which the models do not call
REDUCTION_KERNELS = {"restrict_cover", "cover_rows", "color_degrees", "directed_counts"}


@pytest.mark.parametrize("name, direct", [
    ("streaming.py", {("stream_color", "restrict_cover")}),
    ("querysim.py", set()),
], ids=["streaming.py", "querysim.py"])
def test_models_reduce_through_prune_and_build_conflict(name, direct):
    assert _calls(PACKAGE / name, REDUCTION_KERNELS) == direct


def test_nibble_cuts_its_cover_only_around_the_rounds():
    # the trim before the rounds and the finisher's cut: each round returns
    # its next cover in g's vertex ids, so no round cuts one
    assert _calls(PACKAGE / "nibble.py", {"restrict_cover"}) == {("_nibble_stage", "restrict_cover")}


def test_stream_retention_searches_no_rows():
    assert _callers(PACKAGE / "streaming.py", "find") == set()


def test_the_tail_alone_builds_conflict_instances():
    callers = {(path.name, *call) for path in MODULES for call in _calls(path, {"build_conflict"})}
    assert callers == {("nibble.py", "_reduce", "build_conflict")}


@pytest.mark.parametrize("name, direct", [
    ("streaming.py", set()),
    ("querysim.py", set()),
    ("cli.py", {("_cmd_sparsify", "prune"), ("_cmd_solve", "solve")}),
])
def test_models_prune_and_solve_through_the_tail(name, direct):
    assert _calls(PACKAGE / name, {"prune", "build_conflict", "solve"}) == direct


def test_only_the_row_join_spreads_rows():
    # the canonical cover and the list kernels join rows through `_joined`,
    # so no second, unchunked join comes back
    callers = {(path.name, *call) for path in MODULES for call in _callers(path, "spread")}
    assert callers == {("cover.py", None, "_joined")}


def test_tuple_built_streams_encode_through_the_cover_encoder():
    # a stream built from record tuples encodes its pairs as the dict
    # constructor and `load_cover` do, so no second ranking of the ids or
    # pair-array build comes back beside `CorrespondenceCover._encode`
    path, init = PACKAGE / "streaming.py", ("EdgeStream", "__init__")
    assert init in _callers(path, "_encode")
    assert not any(init in _callers(path, name) for name in ("ranked", "CoverArrays"))


def test_only_rows_strict_runs_the_strict_pass():
    callers = {(path.name, *call) for path in MODULES
               for call in _callers(path, "steps", "less_equal")}
    assert callers == {("cover.py", "Rows", "strict")}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_cli_reads_a_colorings_assignment(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for top in ast.walk(tree)
              if isinstance(top, ast.ClassDef) and top.name == "PartialColoring"
              for node in ast.walk(top)}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "assignment"
             and id(node) not in inside]
    assert lines == [], f"{path.name} reads a coloring's .assignment on lines {lines}"


# the methods that split text or a file into lines
LINE_SPLITTERS = {"readline", "readlines", "splitlines"}


def _line_loops(path) -> list[int]:
    """The lines of path's module that split a file or its text into lines:
    a call of a method of `LINE_SPLITTERS`, a `split` at a line break, or a
    loop over a name bound to `open(...)`, outside `graphcore._Ints`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for top in tree.body if path.name == "graphcore.py"
              and isinstance(top, ast.ClassDef) and top.name == "_Ints" for node in ast.walk(top)}
    def opens(expr) -> bool:
        return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
                   for node in ast.walk(expr))

    opened = {item.optional_vars.id for node in ast.walk(tree) if isinstance(node, ast.With)
              for item in node.items
              if isinstance(item.optional_vars, ast.Name) and opens(item.context_expr)}
    opened |= {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and opens(node.value) for target in node.targets if isinstance(target, ast.Name)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                node.func.attr in LINE_SPLITTERS or node.func.attr in ("split", "rsplit") and any(
                    isinstance(a, ast.Constant) and isinstance(a.value, (str, bytes))
                    and a.value in ("\n", b"\n", "\r\n", b"\r\n") for a in node.args)):
            lines.append(node.lineno)
        if isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.iter, ast.Name) \
                and node.iter.id in opened:
            lines.append(getattr(node, "lineno", node.iter.lineno))
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_reader_splits_files_into_lines(path):
    assert _line_loops(path) == [], f"{path.name} splits a file into lines on these lines"


def test_the_line_loop_rule_finds_the_old_loops():
    # the three loops the reader replaced, kept as oracles: each is caught
    conftest = Path(__file__).resolve().parent / "conftest.py"
    tree = ast.parse(conftest.read_text())
    spans = {top.name: range(top.lineno, top.end_lineno + 1) for top in tree.body
             if isinstance(top, ast.FunctionDef)}
    found = _line_loops(conftest)
    for name in ("oracle_load_graph", "oracle_load_cover", "oracle_load_lists"):
        assert any(line in spans[name] for line in found), name
