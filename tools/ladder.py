"""A fixed ladder of scale runs, timed layer by layer, with hashes to compare trees.

Run from the root of a tree, as `tools/nibble_probe.py` is:

    python3 tools/ladder.py                          # every rung, into BENCH_ladder.json
    python3 tools/ladder.py --rung c08 --out -       # one rung, to stdout

Each rung runs in a fresh process (this script with `--child RUNG`), which
imports the tree's `src/`, not an installed package. Library layers are
timed from outside: `perfbench/spans.Patch` rebinds each function of
`LAYERS` to a wrapper that records the wall time of its outermost calls
and the process's `ru_maxrss` after each call. A rung's own steps that
are not library functions (building a list instance, a stream) are timed
the same way under their own names. Per rung the file holds its wall
time, peak `ru_maxrss`, per-layer calls, seconds and `ru_maxrss`, a
summary of each solve (path, reasons, stats), the edge count m' of every
graph handed to `solve`, and the sha256 of those with the colorings, so that two
trees can be compared rung for rung. The file also records perfbench's
provenance of the tree (git revision, Python and numpy versions, nproc),
the CPU model and flags, the 1-minute load at the start, and every glibc
heap variable (`MALLOC_*`, `GLIBC_TUNABLES`) of the environment.

The rungs (2.5 to 3.5 minutes in all on a 2-vCPU Xeon VM, each under 2.4 GB):

- `c08`: one seed of acceptance criterion 8's baseline regime,
  `gen_locally_sparse(5000, 128, 8128, seed=0)`, q = 129, s = 18;
- `bip-1e5`, `bip-1e6`: `gen_bipartite(n, 32, seed=1)` offline, audit,
  sample, prune, conflict, solve and verify, at
  `manual_params(32, 0.1, 1.0, 33, s)`, s = 24 and 12, sampling seed 1;
- `lists-1e5`: the n = 10^5 list/cover table: the rejection probe's lists
  on `gen_bipartite(10**5, 16, seed=1)`, their canonical cover, the cover
  stream of it at `manual_params(16, 0.1, 1.0, 17, 8)`, `solve` on the
  lists, and `random_cover(g, 17, 0.05, 1)` with its `solve`;
- `nibble-admitted`, `nibble-rejection`: `tools/nibble_probe.py`'s probes;
- `query-bracket`, `query-classes`: `end_to_end_query_color` with `auto`
  on `gen_bipartite(20000, 64, seed=1)` at `manual_params(64, 0.1, 1.0,
  q, s)`, (q, s) = (256, 8) and (1024, 2), sampling seed 1;
- `paper`: the alpha = 3/4 regime, `gen_bipartite(10**4, 3162, seed=1)` at
  `derive_params(3162, 10**4, 1, 0.75, 0.1, 0.3)` (q = 2930, s = 2444);
- `file-1e5`: the `bip-1e5` graph written by `save_graph` into a temporary
  directory (its own `write` layer), read back by `load_graph` (`read`),
  then one seed of the CLI's `_offline_seed`, as a sweep on a graph file
  runs it, at `bip-1e5`'s params and sampling seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tools")]

import numpy as np  # noqa: E402

import palettesparse as ps  # noqa: E402

# qualified name in the package -> layer name
LAYERS = {
    "graphcore.gen_bipartite": "generate",
    "graphcore.gen_locally_sparse": "generate",
    "graphcore.save_graph": "write",
    "graphcore.load_graph": "read",
    "graphcore.local_sparsity": "sparsity audit",
    "cover.cover_sparsity": "cover sparsity",
    "cover.cover_from_lists": "canonical cover",
    "cover.random_cover": "random cover",
    "sparsify.sample_palettes": "sample",
    "sparsify.prune": "prune",
    "sparsify.build_conflict": "conflict build",
    "streaming.stream_color": "stream pass",
    "querysim.plan_queries": "query plan",
    "querysim.execute_plan": "query execute",
    "nibble.solve": "solve",
    "nibble.greedy_color": "greedy",
    "nibble._nibble_stage": "nibble stage",
    "nibble.wcp_round": "nibble round",
    "cover.restrict_cover": "restrict cover",
    "nibble.finish_lll": "resampling finisher",
    "nibble._dfs_color": "backtracking",
    "nibble.verify_coloring": "verify",
}

# a rung whose ru_maxrss passes this is flagged in the file
RSS_BUDGET_MB = 3072


def maxrss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


class Layers:
    """Per layer name: calls, seconds of the outermost calls, ru_maxrss after."""

    def __init__(self):
        self.rows: dict[str, dict] = {}
        self._open: dict[str, int] = {}

    @contextlib.contextmanager
    def layer(self, name: str):
        row = self.rows.setdefault(name, {"calls": 0, "wall_s": 0.0, "maxrss_mb": 0.0})
        outer = not self._open.get(name)
        self._open[name] = self._open.get(name, 0) + 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open[name] -= 1
            row["calls"] += 1
            if outer:
                row["wall_s"] += time.perf_counter() - start
            row["maxrss_mb"] = maxrss_mb()

    def wrapper(self, name: str):
        def make(fn):
            def traced(*args, **kwargs):
                with self.layer(name):
                    return fn(*args, **kwargs)
            return traced
        return make


def solved(res) -> dict:
    """A summary of a `SolveResult`, or None."""
    if res is None:
        return {"path": None}
    return {"path": res.path, "reasons": [s.reason for s in res.stages if s.attempted],
            "stats": [s.stats for s in res.stages if s.attempted],
            "coloring": None if res.coloring is None
            else sorted(res.coloring.assignment.items())}


def offline(g, params, seed, audit=True):
    """sample -> prune -> conflict -> solve -> verify, as a sweep seed runs."""
    if audit:
        ps.local_sparsity(g)
    fam = ps.sample_palettes(ps.SharedPalette(g.n, params.q), params.s, seed)
    fam = ps.prune(g, fam, params)
    if (fam.pruned.lens == 0).any():
        return [{"path": None, "error": "a vertex lost every sampled color"}]
    inst = ps.build_conflict(g, fam)
    res = ps.solve(inst.graph, inst.lists, seed=seed)
    out = solved(res)
    if res.success:
        out["verified"] = ps.verify_coloring(g, ps.ListAssignment(fam.pruned), res.coloring).ok
    return [out]


def rung_c08(lay):
    n, delta = 5000, 128
    g = ps.gen_locally_sparse(n, delta, delta * (delta - 1) // 2, seed=0)
    params = ps.derive_params(delta, n, 1, 0.5, 0.1, 1.0).with_overrides(
        q=delta + 1, s=int(np.ceil(2 * np.log(n))))
    return offline(g, params, 0, audit=False)


def rung_bip(n, s):
    def run(lay):
        g = ps.gen_bipartite(n, 32, seed=1)
        return offline(g, ps.manual_params(32, 0.1, 1.0, 33, s), 1)
    return run


def rung_lists(lay):
    from nibble_probe import PROBES, instance

    with lay.layer("list instance"):
        g, lists = instance(*PROBES["rejection"])
    cov = ps.cover_from_lists(g, lists)
    with lay.layer("cover stream build"):
        stream = ps.EdgeStream.from_cover(g, cov)
    out = ps.stream_color(stream, g.n, ps.manual_params(16, 0.1, 1.0, 17, 8), seed=1)
    parts = [solved(out.solve_result), solved(ps.solve(g, lists, seed=0))]
    parts[0]["stored"] = len(out.stored)
    rc = ps.random_cover(g, 17, 0.05, 1)
    return parts + [solved(ps.solve(g, rc, seed=0))]


def rung_nibble(name):
    def run(lay):
        from nibble_probe import PROBES, instance

        with lay.layer("list instance"):
            g, lists = instance(*PROBES[name])
        return [solved(ps.solve(g, lists, policy="nibble", seed=0))]
    return run


def rung_query(q, s):
    def run(lay):
        g = ps.gen_bipartite(20000, 64, seed=1)
        out = ps.end_to_end_query_color(ps.QueryOracle(g), ps.manual_params(64, 0.1, 1.0, q, s),
                                        seed=1, strategy="auto", delta_hint=ps.max_degree(g),
                                        m_hint=g.m)
        part = solved(out.solve_result)
        part.update(strategy=out.plan.strategy, queries=out.queries, error=out.error)
        return [part]
    return run


def rung_paper(lay):
    g = ps.gen_bipartite(10 ** 4, 3162, seed=1)
    return offline(g, ps.derive_params(3162, 10 ** 4, 1, 0.75, 0.1, 0.3), 1, audit=False)


def rung_file(lay):
    from palettesparse.cli import RunConfig, _offline_seed

    g = ps.gen_bipartite(10 ** 5, 32, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        ps.save_graph(g, os.path.join(tmp, "g.txt"))
        g = ps.load_graph(os.path.join(tmp, "g.txt"))
    edges, res, error = _offline_seed(g, ps.manual_params(32, 0.1, 1.0, 33, 24), None,
                                      RunConfig({}), 1)
    return [dict(solved(res), conflict_edges=edges, error=error)]


RUNGS = {
    "c08": rung_c08,
    "bip-1e5": rung_bip(10 ** 5, 24),
    "bip-1e6": rung_bip(10 ** 6, 12),
    "lists-1e5": rung_lists,
    "nibble-admitted": rung_nibble("admitted"),
    "nibble-rejection": rung_nibble("rejection"),
    "query-bracket": rung_query(256, 8),
    "query-classes": rung_query(1024, 2),
    "paper": rung_paper,
    "file-1e5": rung_file,
}


def child(name: str) -> dict:
    """One rung in this process, under the layer wrappers."""
    from spans import Patch

    lay, patch, m_prime = Layers(), Patch(), []
    for qualname, layer in LAYERS.items():
        with contextlib.suppress(KeyError, AttributeError):
            patch.wrap(qualname, lay.wrapper(layer))

    def count_edges(fn):
        # the graph handed to `solve` is the conflict graph in every model
        def solve(g, *args, **kwargs):
            m_prime.append(g.m)
            return fn(g, *args, **kwargs)
        return solve

    patch.wrap("nibble.solve", count_edges)
    start = time.perf_counter()
    try:
        parts = RUNGS[name](lay)
    finally:
        patch.restore()
    wall = time.perf_counter() - start
    parts.append({"m_prime": m_prime})
    digest = hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()
    for part in parts:
        part.pop("coloring", None)
    peak = maxrss_mb()
    return {"rung": name, "wall_s": round(wall, 3), "maxrss_mb": peak,
            "over_rss_budget": peak > RSS_BUDGET_MB,
            "layers": {k: dict(v, wall_s=round(v["wall_s"], 4)) for k, v in lay.rows.items()},
            "outputs": parts, "sha256": digest}


def provenance() -> dict:
    """perfbench's provenance of the tree, with the machine's state added."""
    from run import provenance as tree

    cpu = {}
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            cpu.setdefault(key.strip(), value.strip())
    return dict(tree(), cpu_model=cpu.get("model name"), cpu_flags=cpu.get("flags", "").split(),
                loadavg_1m_start=os.getloadavg()[0],
                heap_env={k: v for k, v in sorted(os.environ.items())
                          if k.startswith("MALLOC_") or k == "GLIBC_TUNABLES"})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rung", choices=list(RUNGS), action="append",
                    help="a rung to run (repeatable; default: all, in order)")
    ap.add_argument("--out", default="BENCH_ladder.json", help="output file, or - for stdout")
    ap.add_argument("--child", choices=list(RUNGS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.abspath(ps.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run from a tree's root: imported {ps.__file__}, not from {SRC}")
    if args.child:
        print(json.dumps(child(args.child)))
        return 0
    # the rungs run in the caller's environment: importing perfbench's run
    # for the provenance sets its BLAS and OpenMP pools to one thread
    env = dict(os.environ)
    report = {"provenance": provenance(), "rungs": []}
    for name in args.rung or list(RUNGS):
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True)
        row = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name}: {row['wall_s']} s, {row['maxrss_mb']} MB, {row['sha256'][:16]}",
              file=sys.stderr, flush=True)
        report["rungs"].append(row)
    text = json.dumps(report, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
