"""The four benchmark workloads, one per path a user takes through the package.

Each workload builds its instance once per set-up and then runs seeds the
way `palettesparse.cli._run_seed` does: sample -> prune -> conflict ->
solve in the workload's model, then `verify_coloring` against the
original input, as `cli._full_verify` does. All library calls go through
module attributes (``ps.solve``), so the outside-in tracer sees them.

Sizes: ``bench`` is what BENCHMARK.json runs; ``tiny`` is for the smoke test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

import palettesparse as ps


@dataclass
class Instance:
    g: object
    params: object
    verify_against: object        # ListAssignment range(q), or the original cover
    ctx: dict = field(default_factory=dict)
    edges: tuple = ()             # (us, vs) of the original input, for the audit


@dataclass
class SeedOutput:
    coloring: object              # PartialColoring or None
    solve_result: object          # SolveResult or None
    exact: dict                   # counts that must repeat bit for bit


def _edge_arrays(g):
    e = np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)
    return e[:, 0].copy(), e[:, 1].copy()


def _full_palette(n: int, q: int):
    row = tuple(range(q))
    return ps.ListAssignment(tuple(row for _ in range(n)))


class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    sizes: dict
    # timed seeds per second of --seconds: a fixed count, so the tail is the
    # same percentile on every run; calibrated so a run measures about
    # --seconds at the bench size on a 2-vCPU Intel Xeon KVM guest
    rate: float

    def setup(self, **size) -> Instance:
        """The library's set-up work; timed."""
        raise NotImplementedError

    def prepare_audit(self, inst: Instance) -> None:
        """The arrays the independent audit needs; untimed."""
        inst.edges = _edge_arrays(inst.g)

    def run_seed(self, inst: Instance, seed: int) -> SeedOutput:
        raise NotImplementedError

    def exact_problem(self, inst: Instance, exact: dict) -> str:
        """Reason the model's exact counts are wrong, or ""."""
        return ""

    def audit(self, inst: Instance, colors: np.ndarray) -> str:
        """Independent proper-coloring check on the original plain graph;
        returns "" when proper, else the first reason found."""
        us, vs = inst.edges
        q = inst.params.q
        if colors.min(initial=0) < 0 or colors.max(initial=0) >= q:
            return "color outside range(q)"
        if np.any(colors[us] == colors[vs]):
            return "monochromatic edge"
        return ""


class OfflineBaseline(Workload):
    name = "offline-baseline"
    sizes = {
        "tiny": dict(n=300, delta=16, s=12),
        "bench": dict(n=1500, delta=48, s=15),
    }
    rate = 3.0

    def setup(self, n, delta, s):
        g = ps.gen_locally_sparse(n, delta, delta * (delta - 1) // 2, seed=0)
        k_star = ps.local_sparsity(g).k_star
        params = ps.derive_params(delta, n, 1, 0.5, 0.1, 1.0).with_overrides(q=delta + 1, s=s)
        return Instance(g, params, _full_palette(n, params.q), {"k_star": k_star})

    def run_seed(self, inst, seed):
        g, params = inst.g, inst.params
        fam = ps.sample_palettes(ps.SharedPalette(g.n, params.q), params.s, seed)
        fam = ps.prune(g, fam, params)
        conflict = ps.build_conflict(g, fam)
        if any(len(row) == 0 for row in fam.active()):
            return SeedOutput(None, None, {})
        res = ps.solve(conflict.graph, conflict.lists, seed=seed)
        return SeedOutput(res.coloring, res, {})


class StreamSparse(Workload):
    name = "stream-sparse"
    sizes = {
        "tiny": dict(n=400, delta=8),
        "bench": dict(n=2500, delta=32),
    }
    rate = 3.0

    def setup(self, n, delta):
        g = ps.gen_bipartite(n, delta, seed=1)
        k_star = ps.local_sparsity(g).k_star
        stream = ps.EdgeStream.from_graph(g, permute_seed=0)
        # q = 4*delta and s = 8 keep s*delta/q = 2 at every size
        params = ps.manual_params(delta, 0.1, 1.5, q=4 * delta, s=8)
        return Instance(g, params, _full_palette(n, params.q),
                        {"k_star": k_star, "stream": stream})

    def run_seed(self, inst, seed):
        out = ps.stream_color(inst.ctx["stream"], inst.g.n, inst.params, seed)
        return SeedOutput(out.coloring, out.solve_result, {
            "peak_words": out.ledger.peak_words,
            "stored": len(out.stored),
        })


class QueryScan(Workload):
    name = "query-scan"
    sizes = {
        "tiny": dict(n=300, delta=8),
        "bench": dict(n=1200, delta=16),
    }
    rate = 1.8

    def setup(self, n, delta):
        g = ps.gen_bipartite(n, delta, seed=2)
        k_star = ps.local_sparsity(g).k_star
        params = ps.derive_params(delta, n, 1, 0.5, 0.1, 0.05)
        return Instance(g, params, _full_palette(n, params.q),
                        {"k_star": k_star, "max_degree": ps.max_degree(g)})

    def run_seed(self, inst, seed):
        g = inst.g
        oracle = ps.QueryOracle(g)
        out = ps.end_to_end_query_color(
            oracle, inst.params, seed, strategy="auto",
            delta_hint=inst.ctx["max_degree"], m_hint=g.m,
        )
        return SeedOutput(out.coloring, out.solve_result, {
            "queries": out.queries,
            **{f"{k}_q": v for k, v in oracle.counts().items() if k != "total"},
        })

    def exact_problem(self, inst, exact):
        scan = inst.g.n + 2 * inst.g.m
        return "" if exact["queries"] == scan else f"{exact['queries']} queries, scan is {scan}"


class CoverFinish(Workload):
    name = "cover-finish"
    sizes = {
        "tiny": dict(n=200, delta=8),
        "bench": dict(n=1000, delta=8),
    }
    rate = 3.5

    def setup(self, n, delta):
        g = ps.gen_bipartite(n, delta, seed=4)
        k_star = ps.local_sparsity(g).k_star
        cov = ps.random_cover(g, 64, 0.05, seed=0)
        params = ps.manual_params(delta, 0.1, 0.05, q=64, s=48)
        return Instance(g, params, cov, {"k_star": k_star, "cover": cov})

    def prepare_audit(self, inst):
        # matched pairs as keys a * C + b
        cov = inst.ctx["cover"]
        c_total = cov.num_colors
        eu, ev, keys = [], [], []
        for (u, v), pairs in cov.matchings.items():
            eu.append(u)
            ev.append(v)
            keys.extend(a * c_total + b for a, b in pairs)
        owner = np.full(c_total, -1, dtype=np.int64)
        for v, row in enumerate(cov.lists):
            owner[list(row)] = v
        inst.ctx["audit"] = {"owner": owner, "keys": np.unique(np.array(keys, dtype=np.int64)),
                             "c_total": c_total}
        inst.edges = (np.array(eu, dtype=np.int64), np.array(ev, dtype=np.int64))

    def run_seed(self, inst, seed):
        g, cov, params = inst.g, inst.ctx["cover"], inst.params
        fam = ps.sample_palettes(cov.lists, params.s, seed)
        fam = ps.prune(cov, fam, params)
        conflict = ps.build_conflict(g, fam, cover=cov)
        if any(len(row) == 0 for row in fam.active()):
            return SeedOutput(None, None, {})
        res = ps.solve(conflict.graph, conflict.cover, policy="lll", seed=seed)
        return SeedOutput(res.coloring, res, {})

    def audit(self, inst, colors):
        a = inst.ctx["audit"]
        if colors.min(initial=0) < 0 or colors.max(initial=0) >= a["c_total"]:
            return "color outside the cover"
        if np.any(a["owner"][colors] != np.arange(colors.size)):
            return "color outside the vertex's cover list"
        us, vs = inst.edges
        hit = np.isin(colors[us] * a["c_total"] + colors[vs], a["keys"])
        return "edge carries corresponding colors" if hit.any() else ""


WORKLOADS = {w.name: w for w in (OfflineBaseline(), StreamSparse(), QueryScan(), CoverFinish())}


def coloring_array(coloring, n: int):
    """Colors in vertex order, or None unless every vertex 0..n-1 is colored."""
    if coloring is None:
        return None
    a = coloring.assignment
    if len(a) != n or any(v not in a for v in range(n)):
        return None
    return np.fromiter((a[v] for v in range(n)), dtype=np.int64, count=n)


def seed_record(seed: int, colors, m_prime, exact: dict) -> str:
    """sha256 of one seed's exact outputs: coloring, m', model counts."""
    h = hashlib.sha256()
    h.update(repr((seed, m_prime, sorted(exact.items()))).encode())
    h.update(b"-" if colors is None else colors.tobytes())
    return h.hexdigest()
