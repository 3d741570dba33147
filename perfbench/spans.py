"""Outside-in tracing of palettesparse: spans recorded around library calls.

Nothing in the package is edited. `Patch` rebinds every `palettesparse.*`
module attribute that *is* a given function object, so a function imported
by name elsewhere (``from .nibble import solve`` in `streaming` and
`querysim`) goes through the same wrapper as the module's own attribute.
Methods are rebound on their class. `Patch.restore` puts every original
back.

`Tracer` keeps spans in memory, each with a parent link, and aggregates
them once the run is over.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# qualified name in the package -> span name, counters taken from the result.
# Per-query oracle methods are deliberately absent: their counters are read
# after the seed instead, so the oracle loop carries no per-call overhead.
TRACED = {
    "graphcore.gen_locally_sparse": ("graphcore.gen", None),
    "graphcore.gen_bipartite": ("graphcore.gen", None),
    "graphcore.local_sparsity": ("graphcore.audit", None),
    "graphcore.Graph.__init__": ("graphcore.graph_build", None),
    "graphcore.Graph.edge_arrays": ("graphcore.edge_arrays", None),
    "sparsify.sample_palettes": ("sparsify.sample", None),
    "sparsify.prune": ("sparsify.prune", lambda fam: {
        "sampled": sum(map(len, fam.sampled)),
        "kept": sum(map(len, fam.active())),
    }),
    "sparsify.build_conflict": ("sparsify.conflict", None),
    "nibble.solve": ("nibble.solve", None),
    "nibble.greedy_color": ("nibble.greedy", None),
    "nibble.finish_lll": ("nibble.lll", lambda r: {"resamples": r.resamples}),
    "nibble.verify_coloring": ("nibble.verify", None),
    "cover.random_cover": ("cover.random_cover", lambda cov: {
        "pairs": sum(map(len, cov.matchings.values())),
    }),
    "cover.CorrespondenceCover.max_color_degree": ("cover.max_color_degree", None),
    "streaming.stream_color": ("streaming.stream_color", None),
    "querysim.plan_queries": ("querysim.plan", None),
    "querysim.execute_plan": ("querysim.execute", lambda r: {
        "found": r[0].graph.m,
        "issued": r[1],
    }),
    "querysim.end_to_end_query_color": ("querysim.end_to_end", None),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "palettesparse" or name.startswith("palettesparse."))]


class Patch:
    """Rebinds functions and methods of palettesparse; `restore` undoes it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, qualname: str, make_wrapper) -> None:
        """Replace the object at `palettesparse.<qualname>` everywhere it is bound."""
        mod_name, *owner_path, attr = qualname.split(".")
        owner = sys.modules[f"palettesparse.{mod_name}"]
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if owner_path else getattr(owner, attr)
        wrapper = make_wrapper(original)
        if owner_path:
            self._set(owner, attr, wrapper)
            return
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class SolveProbe:
    """Records the edge count of every graph handed to `solve`.

    That graph is the conflict instance in all three models, so this gives
    m' uniformly, also where `stream_color` and `end_to_end_query_color`
    build it internally and do not return it.
    """

    def __init__(self):
        self.edges: list[int] = []
        self._patch = Patch()

    def __enter__(self):
        def make(fn):
            @functools.wraps(fn)
            def probe(g, *args, **kwargs):
                self.edges.append(g.m)
                return fn(g, *args, **kwargs)
            return probe
        self._patch.wrap("nibble.solve", make)
        return self

    def __exit__(self, *exc):
        self._patch.restore()


class Tracer:
    """In-memory spans: [name, parent index, start, end, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patch = Patch()

    def __enter__(self):
        for qualname, (span_name, counters) in TRACED.items():
            self._patch.wrap(qualname, functools.partial(self._wrapper, span_name, counters))
        return self

    def __exit__(self, *exc):
        self._patch.restore()

    def _wrapper(self, span_name, counters, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counters is not None:
                self.spans[idx][4] = counters(result)
            return result
        return traced

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[1] is None and s[0] == name]

    def breakdown(self, root: int) -> dict:
        """Totals under one root span: time and self time per span name,
        summed counters per span name, and the root's own self time."""
        children: dict[int, float] = {}
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        counts: dict[str, dict] = {}
        members = {root}
        for i in range(root + 1, len(self.spans)):
            name, parent, start, end, ctr = self.spans[i]
            if parent not in members:
                break
            members.add(i)
            children[parent] = children.get(parent, 0.0) + (end - start)
            total[name] = total.get(name, 0.0) + (end - start)
            if ctr:
                acc = counts.setdefault(name, {})
                for k, v in ctr.items():
                    acc[k] = acc.get(k, 0) + v
        for i in members - {root}:
            name, _, start, end, _ = self.spans[i]
            self_time[name] = self_time.get(name, 0.0) + (end - start) - children.get(i, 0.0)
        r = self.spans[root]
        return {
            "wall": r[3] - r[2],
            "uncovered": (r[3] - r[2]) - children.get(root, 0.0),
            "total": total,
            "self": self_time,
            "counters": counts,
        }


def median_of(rows: list[dict], key) -> float:
    """Median over rows of key(row), a missing entry counting as 0."""
    return statistics.median(key(r) for r in rows) if rows else 0.0
