"""Experiment driver: config-driven seed sweeps plus one-shot subcommands.

Sweeps are fully reproducible: the instance is fixed by the config, each
row is a deterministic function of (config, seed), every emitted coloring
is re-verified against the full instance and stored, and the CSV tables
contain no wall-clock data (timings live in the JSON report only, outside
the determinism contract).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from numbers import Integral, Real

import numpy as np

from ._rng import TAG_COVER, choice_rows, substream
from .cover import (
    CorrespondenceCover,
    CoverError,
    ListAssignment,
    Rows,
    cover_from_lists,
    load_cover,
    random_cover,
    validate_cover,
)
from .graphcore import (
    GenerationError,
    Graph,
    GraphError,
    _Ints,
    _offsets,
    gen_bipartite,
    gen_locally_sparse,
    load_graph,
    local_sparsity,
    max_degree,
    save_graph,
)
from .nibble import PartialColoring, _reduce, solve, verify_coloring
from .querysim import QueryOracle, UnsupportedStrategy, end_to_end_query_color
from .sparsify import (
    InvalidParameters,
    PaletteTooSmall,
    SharedPalette,
    SparsifyParams,
    derive_params,
    manual_params,
    prune,
    sample_palettes,
)
from .streaming import EdgeStream, stream_color

SCHEMA = "palette-sparse/1"

CSV_COLUMNS = ["seed", "success", "q", "s", "conflict_edges", "resource",
               "solver_path", "error"]


class ConfigError(ValueError):
    pass


# the accepted values of each string field of a config
_CHOICES = {"pipeline": ("plain", "list", "cover"), "model": ("offline", "stream", "query"),
            "policy": ("auto", "greedy", "nibble", "lll"), "strategy": ("auto", "scan", "classes")}


def _nonnegative_int(x) -> bool:
    """Whether x is a nonnegative integer (a bool is not)."""
    return isinstance(x, Integral) and not isinstance(x, bool) and x >= 0


def _check(ok, message: str, x) -> None:
    """ConfigError "`message`, got x" unless `ok`."""
    if not ok:
        raise ConfigError(f"{message}, got {x!r}")


@dataclass
class RunConfig:
    """Everything needed to reproduce a sweep, JSON round-trippable."""

    instance: dict
    pipeline: str = "plain"          # plain | list | cover
    model: str = "offline"           # offline | stream | query
    alpha: float = 0.5
    gamma: float = 0.1
    epsilon: float = 0.05
    q_override: int | None = None
    s_override: int | None = None
    seeds: list[int] = field(default_factory=lambda: [0])
    policy: str = "auto"
    strategy: str = "auto"
    permute_seed: int | None = None
    instance_seed: int = 0
    list_universe: int | None = None
    cover_size: int | None = None
    cover_density: float = 0.5
    out_dir: str | None = None
    schema: str = SCHEMA

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config of a JSON object; ConfigError names the first field of
        the wrong type or value."""
        _check(isinstance(d, dict), "config must be a JSON object", d)
        d = dict(d)
        schema = d.pop("schema", SCHEMA)
        if schema != SCHEMA:
            raise ConfigError(f"unsupported config schema {schema!r}, expected {SCHEMA!r}")
        try:
            cfg = cls(**d, schema=schema)
        except TypeError as e:
            raise ConfigError(str(e)) from None
        _check(isinstance(cfg.instance, dict), "instance must be a JSON object", cfg.instance)
        for name, choices in _CHOICES.items():
            x = getattr(cfg, name)
            _check(x in choices, f"{name} must be one of {', '.join(choices)}", x)
        for name in ("instance_seed", "q_override", "s_override", "permute_seed"):
            x = getattr(cfg, name)  # all but instance_seed may be null
            _check(_nonnegative_int(x) or x is None and name != "instance_seed",
                   f"{name} must be a nonnegative integer", x)
        for name in ("list_universe", "cover_size"):  # null is the default size
            x = getattr(cfg, name)
            _check(x is None or _nonnegative_int(x) and x > 0, f"{name} must be a positive integer", x)
        _check(cfg.out_dir is None or isinstance(cfg.out_dir, str), "out_dir must be a string or null",
               cfg.out_dir)
        for name in ("alpha", "gamma", "epsilon", "cover_density"):
            x = getattr(cfg, name)
            _check(isinstance(x, Real) and not isinstance(x, bool), f"{name} must be a number", x)
            _check(abs(x) < math.inf, f"{name} must be a finite number", x)
        _check(isinstance(cfg.seeds, list) and cfg.seeds and all(map(_nonnegative_int, cfg.seeds)),
               "seeds must be a nonempty list of nonnegative integers", cfg.seeds)
        _check(0 <= cfg.cover_density <= 1, "cover_density must be in [0, 1]", cfg.cover_density)
        return cfg

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepRow:
    seed: int
    success: bool
    q: int
    s: int
    conflict_edges: int
    resource: int | None      # peak words (stream) or query count (query)
    solver_path: str
    error: str
    wall_time: float          # JSON report only, never in the CSV

    def csv_values(self) -> list:
        return [
            self.seed,
            int(self.success),
            self.q,
            self.s,
            self.conflict_edges,
            "" if self.resource is None else self.resource,
            self.solver_path,
            self.error,
        ]


@dataclass
class SweepResult:
    config: RunConfig
    rows: list[SweepRow]

    def aggregates(self) -> dict:
        """Recomputed from the rows, never stored independently."""
        total = len(self.rows)
        ok = sum(1 for r in self.rows if r.success)
        res = [r.resource for r in self.rows if r.resource is not None]
        return {
            "runs": total,
            "successes": ok,
            "success_rate": ok / total if total else 0.0,
            "mean_conflict_edges": (
                sum(r.conflict_edges for r in self.rows) / total if total else 0.0
            ),
            "max_resource": max(res) if res else None,
            "mean_resource": sum(res) / len(res) if res else None,
        }

    @property
    def exit_code(self) -> int:
        return 0 if all(r.success for r in self.rows) else 2


def _build_instance(cfg: RunConfig):
    """Materialize (graph, params, lists-or-cover) from the config."""
    spec = cfg.instance
    kind = spec.get("kind", "gen")
    for name in ("n", "delta", "k", "seed"):
        x = spec.get(name, 0)
        _check(_nonnegative_int(x), f"instance {name} must be a nonnegative integer", x)
    try:
        if kind == "gen":
            g = gen_locally_sparse(spec["n"], spec["delta"], spec["k"],
                                   spec.get("seed", 0))
        elif kind == "gen-bipartite":
            g = gen_bipartite(spec["n"], spec["delta"], spec.get("seed", 0))
        elif kind == "file":
            _check(isinstance(spec["path"], str), "instance path must be a string", spec["path"])
            g = load_graph(spec["path"])
        else:
            raise ConfigError(f"unknown instance kind {kind!r}")
    except KeyError as e:
        raise ConfigError(f"instance spec missing field {e}") from None
    if cfg.q_override is not None and cfg.s_override is not None:
        # fully prescribed palette; skip the closed form, which desk-scale
        # instances outside the supported sparsity range would reject
        params = manual_params(max(1, max_degree(g)), cfg.gamma, cfg.epsilon,
                               cfg.q_override, cfg.s_override)
    else:
        params = _graph_params(g, cfg, spec.get("k"))
        if cfg.q_override is not None or cfg.s_override is not None:
            params = params.with_overrides(q=cfg.q_override, s=cfg.s_override)

    if cfg.pipeline == "plain":
        return g, params, None
    if cfg.pipeline == "list":
        # each vertex's list: the q ids one rng.choice(universe, q,
        # replace=False) per vertex picks, drawn for all vertices at once
        universe, q = 2 * params.q if cfg.list_universe is None else cfg.list_universe, params.q
        if universe < q:
            raise ConfigError(f"list universe {universe} is smaller than the list size {q}")
        rng = substream(cfg.instance_seed, TAG_COVER, 99)
        block = choice_rows(rng, np.broadcast_to(np.int64(universe), g.n), q)
        return g, params, ListAssignment(Rows(block.ravel(), np.arange(0, g.n * q + 1, q)))
    size = params.q if cfg.cover_size is None else cfg.cover_size
    cov = random_cover(g, size, cfg.cover_density, cfg.instance_seed)
    return g, params, cov


def _offline_seed(g: Graph, params: SparsifyParams, obj, cfg: RunConfig, seed: int) -> tuple:
    """(conflict edges, SolveResult or None, error) of one offline seed."""
    cover = obj if isinstance(obj, CorrespondenceCover) else None
    palette = SharedPalette(g.n, params.q) if obj is None else obj.lists
    _, conflict, res = _reduce(g, sample_palettes(palette, params.s, seed), params,
                               cover=cover, policy=cfg.policy, seed=seed)
    if res is None:
        return conflict.graph.m, None, "a vertex lost every sampled color"
    return conflict.graph.m, res, "" if res.success else "; ".join(
        f"{s.name}: {s.reason}" for s in res.stages if s.attempted
    )


def _stream_pass(g: Graph, obj, permute_seed):
    """The stream pass over g's edges with the lists or cover `obj`, a function
    of (params, seed) that a sweep builds once. Lists stream as their canonical
    cover, so its colorings use cover ids: list entries, named by the values."""
    if obj is None:
        return partial(stream_color, EdgeStream.from_graph(g, permute_seed), g.n)
    cov = obj if isinstance(obj, CorrespondenceCover) else cover_from_lists(g, obj)
    return partial(stream_color, EdgeStream.from_cover(g, cov, permute_seed), g.n)


def _run_seed(g: Graph, params: SparsifyParams, obj, streamed, config: RunConfig,
              seed: int):
    """One end-to-end run; returns (row, verified assignment or None).
    `streamed` is `_stream_pass`'s function in a stream-model sweep; with
    lists, its coloring's cover ids are pulled back through the lists' values."""
    t0 = time.perf_counter()
    res = resource = None
    conflict_edges, error = 0, ""
    try:
        if config.model == "offline":
            conflict_edges, res, error = _offline_seed(g, params, obj, config, seed)
        elif config.model == "stream":
            out = streamed(params, seed, policy=config.policy)
            res, error, resource = out.solve_result, out.error, out.ledger.peak_words
            conflict_edges = len(out.stored)
        else:
            if obj is not None:
                raise UnsupportedStrategy(
                    "query model supports the shared global palette only; "
                    "list and cover pipelines are unsupported"
                )
            oracle = QueryOracle(g)
            out = end_to_end_query_color(
                oracle, params, seed, strategy=config.strategy,
                delta_hint=max_degree(g), m_hint=g.m, policy=config.policy,
            )
            res, error, resource = out.solve_result, out.error, out.queries
    except UnsupportedStrategy as e:
        error = str(e)

    coloring = res.coloring if res is not None else None
    if coloring is not None and config.model == "stream" and isinstance(obj, ListAssignment):
        at, ids = coloring.arrays()
        coloring = PartialColoring.from_arrays(at, obj.lists.values[ids])
    success = False
    if coloring is not None:
        check = _full_verify(g, params, obj, coloring)
        success = check.ok
        if not success:
            error = f"verification failed: {check.reason}"
    row = SweepRow(
        seed=seed,
        success=success,
        q=params.q,
        s=params.s,
        conflict_edges=conflict_edges,
        resource=resource,
        solver_path=res.path if res is not None else "",
        error=error,
        wall_time=time.perf_counter() - t0,
    )
    assignment = dict(sorted(coloring.assignment.items())) if success else None
    return row, assignment


def run(config: RunConfig, workers: int = 1) -> SweepResult:
    """Execute the sweep; per-seed failures are recorded, never fatal.

    With workers > 1 seeds are dispatched to a process pool, each worker
    owning its run end-to-end; rows come back merged in seed order either
    way, so the outputs are identical to a sequential run.
    """
    g, params, obj = _build_instance(config)
    streamed = _stream_pass(g, obj, config.permute_seed) if config.model == "stream" else None
    run_seed = partial(_run_seed, g, params, obj, streamed, config)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_seed, config.seeds))
    else:
        results = list(map(run_seed, config.seeds))
    rows = [row for row, _ in results]
    colorings = {
        row.seed: assignment for row, assignment in results if assignment is not None
    }
    result = SweepResult(config, rows)
    if config.out_dir:
        _write_outputs(result, colorings)
    return result


@lru_cache(maxsize=1)
def _full_palette(n: int, q: int) -> ListAssignment:
    """range(q) at each of n vertices: built once per instance in a
    process, so the n·q tile and its `ListAssignment` check are paid once,
    not once per seed."""
    return ListAssignment(Rows(np.tile(np.arange(q), n), np.arange(0, n * q + 1, q)))


def _full_verify(g: Graph, params: SparsifyParams, obj, coloring):
    """Verify a coloring against the full original instance."""
    return verify_coloring(g, _full_palette(g.n, params.q) if obj is None else obj, coloring)


def _write_outputs(result: SweepResult, colorings: dict[int, dict]) -> None:
    import os

    os.makedirs(result.config.out_dir, exist_ok=True)
    base = result.config.out_dir
    with open(os.path.join(base, "sweep.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for row in result.rows:
            w.writerow(row.csv_values())
    report = {
        "config": result.config.to_dict(),
        "aggregates": result.aggregates(),
        "rows": [
            {**{k: row.csv_values()[i] for i, k in enumerate(CSV_COLUMNS)},
             "wall_time": row.wall_time}
            for row in result.rows
        ],
    }
    with open(os.path.join(base, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for seed, assignment in colorings.items():
        with open(os.path.join(base, f"coloring_seed{seed}.json"), "w") as fh:
            json.dump({str(v): c for v, c in assignment.items()}, fh, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    if args.bipartite:
        g = gen_bipartite(args.n, args.delta, args.seed)
    else:
        g = gen_locally_sparse(args.n, args.delta, args.k, args.seed)
    save_graph(g, args.out)
    rep = local_sparsity(g)
    print(f"wrote {args.out}: n={g.n} m={g.m} max_degree={rep.max_degree} "
          f"k_star={rep.k_star}")
    return 0


def _cmd_verify_cover(args) -> int:
    g = load_graph(args.graph)
    cov = load_cover(args.cover)
    rep = validate_cover(g, cov)
    print(f"CC1 partition: {'pass' if rep.cc1_partition else 'FAIL'}")
    print(f"CC2 lists independent: {'pass' if rep.cc2_lists_independent else 'FAIL'}")
    print(f"CC3 matchings: {'pass' if rep.cc3_matchings else 'FAIL'}")
    if rep.witness:
        print(f"witness: {rep.witness}")
    return 0 if rep.ok else 2


def _load_valid_cover(path, g: Graph) -> CorrespondenceCover:
    """Read a cover file and check it against g; ConfigError gives the witness."""
    cov = load_cover(path)
    rep = validate_cover(g, cov)
    if not rep.ok:
        raise ConfigError(f"cover {path} is not a cover of the graph: {rep.witness}")
    return cov


def _graph_params(g: Graph, args, k=None) -> SparsifyParams:
    """The closed-form params of g: delta its max degree and k its audited
    local sparsity, or `k` when given (both at least 1), alpha, gamma and
    epsilon from `args` (a namespace or a `RunConfig`)."""
    delta = max(1, max_degree(g))
    k = max(1, local_sparsity(g).k_star if k is None else k)
    return derive_params(delta, max(2, g.n), k, args.alpha, args.gamma, args.epsilon)


def _cmd_sparsify(args) -> int:
    g = load_graph(args.graph)
    cov = _load_valid_cover(args.cover, g) if args.cover else None
    params = _graph_params(g, args)
    palette = SharedPalette(g.n, params.q) if cov is None else cov.lists
    fam = prune(cov or g, sample_palettes(palette, params.s, args.seed), params)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for v in range(g.n):
            kept = " ".join(str(c) for c in fam.pruned[v])
            full = " ".join(str(c) for c in fam.sampled[v])
            out.write(f"{v} : {full} | {kept}\n")
    finally:
        if args.out:
            out.close()
    print(f"q={params.q} s={params.s} degenerate={params.degenerate}", file=sys.stderr)
    return 0


def _cmd_solve(args) -> int:
    g = load_graph(args.graph)
    if args.cover:
        obj = _load_valid_cover(args.cover, g)
    elif args.lists:
        obj = _load_lists(args.lists, g.n)
    else:
        print("solve needs --lists or --cover", file=sys.stderr)
        return 3
    res = solve(g, obj, policy=args.policy, seed=args.seed)
    if args.report:
        report = {
            "success": res.success,
            "policy": res.policy,
            "seed": res.seed,
            "path": res.path,
            "stages": [
                {"name": s.name, "attempted": s.attempted,
                 "succeeded": s.succeeded, "reason": s.reason, "stats": s.stats}
                for s in res.stages
            ],
            "coloring": dict(sorted(res.coloring.assignment.items())) if res.success else None,
        }
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"{'proper coloring found' if res.success else 'no coloring'} via {res.path}")
    return 0 if res.success else 2


def _cmd_stream(args) -> int:
    g = load_graph(args.graph)
    cov = _load_valid_cover(args.cover, g) if args.cover else None
    params = _graph_params(g, args)
    out = _stream_pass(g, cov, args.permute_seed)(params, args.seed)
    if args.ledger:
        with open(args.ledger, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["stored_edges", "palette_words", "counter_words",
                        "matching_words", "peak_words"])
            led = out.ledger
            w.writerow([led.stored_edges, led.palette_words, led.counter_words,
                        led.matching_words, led.peak_words])
    print(f"stored={out.ledger.stored_edges} peak_words={out.ledger.peak_words} "
          f"success={out.success}")
    return 0 if out.success else 2


def _cmd_queries(args) -> int:
    g = load_graph(args.graph)
    params = _graph_params(g, args)
    oracle = QueryOracle(g)
    out = end_to_end_query_color(oracle, params, args.seed, strategy=args.strategy,
                                 delta_hint=params.delta_ref, m_hint=g.m)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["strategy", "degree", "neighbor", "pair", "total", "success"])
            c = oracle.counts()
            w.writerow([out.plan.strategy, c["degree"], c["neighbor"], c["pair"],
                        c["total"], int(out.success)])
    print(f"strategy={out.plan.strategy} queries={out.queries} success={out.success}")
    return 0 if out.success else 2


def _cmd_sweep(args) -> int:
    try:
        config = RunConfig.load(args.config)
    except (ConfigError, OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    result = run(config, workers=args.workers)
    agg = result.aggregates()
    print(f"runs={agg['runs']} successes={agg['successes']} "
          f"success_rate={agg['success_rate']:.3f}")
    return result.exit_code


def _load_lists(path, n: int) -> ListAssignment:
    """Read a lists file for an n-vertex graph: a line 'n', then one row of
    distinct integer color ids per vertex; ConfigError names the bad row."""
    f = _Ints(path)
    rows = f.counts.size - 1
    if f.line(0).strip() != str(n):
        raise ConfigError(f"lists file {path}: first line must be the vertex count {n}")
    if rows < n or f.counts[1 + n:].any():
        raise ConfigError(f"lists file {path}: row {min(rows, n)} is "
                          + ("missing" if rows < n else "one too many"))
    if f.junk <= rows:  # its first bad token, named as `int` names one
        token = next((t for t in f.line(f.junk).split()
                      if not (t.isascii() and t[t[:1] in "+-":].isdigit())), f.line(f.junk))
        raise ConfigError(f"lists file {path}: invalid literal for int() with base 10: "
                          f"{token!r:.200}")
    if f.wide <= rows:
        raise ConfigError(f"lists file {path}: row {f.wide - 1} holds an id outside int64")
    try:
        return ListAssignment(Rows(f.values[1:], _offsets(f.counts[1:1 + n])))
    except CoverError as e:  # a row that holds a color twice
        raise ConfigError(f"lists file {path}: {e}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="palettesparse")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a locally sparse graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--bipartite", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify-cover", help="validate a correspondence cover")
    p.add_argument("--graph", required=True)
    p.add_argument("--cover", required=True)
    p.set_defaults(func=_cmd_verify_cover)

    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True)
    graph.add_argument("--seed", type=int, default=0)
    closed_form = argparse.ArgumentParser(add_help=False)
    closed_form.add_argument("--alpha", type=float, default=0.5)
    closed_form.add_argument("--gamma", type=float, default=0.1)
    closed_form.add_argument("--epsilon", type=float, default=0.05)

    p = sub.add_parser("sparsify", help="sample and prune palettes", parents=[graph, closed_form])
    p.add_argument("--cover")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("solve", help="solve a list or cover instance", parents=[graph])
    p.add_argument("--lists")
    p.add_argument("--cover")
    p.add_argument("--policy", default="auto", choices=_CHOICES["policy"])
    p.add_argument("--report")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("stream", help="single-pass streaming pipeline",
                       parents=[graph, closed_form])
    p.add_argument("--permute-seed", type=int, default=None)
    p.add_argument("--cover")
    p.add_argument("--ledger")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("queries", help="non-adaptive query pipeline", parents=[graph, closed_form])
    p.add_argument("--strategy", default="auto", choices=_CHOICES["strategy"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_queries)

    p = sub.add_parser("sweep", help="run a config-driven seed sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidParameters) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except (GraphError, GenerationError, CoverError, PaletteTooSmall, OSError, MemoryError) as e:
        # a missing or malformed graph or cover file, a generator asked for
        # what it cannot make, a cover whose lists are shorter than the
        # sample size, a file that cannot be opened, or an instance too
        # large for memory (a bare MemoryError has no message)
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
