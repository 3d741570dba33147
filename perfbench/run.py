"""Benchmark of palettesparse: end-to-end seed runs, per-layer spans on request.

Run from the repository root:

    python3 perfbench/run.py --workload offline-baseline --seed 1 --seconds 16 --trace 0

One process runs one workload. It sets the instance up SETUPS times (each
set-up is instance generation, audit, cover or stream construction and one
warm-up seed at a fixed sampling seed) between runs of a fixed reference
loop (see `reference_loop`), and reports `setup_s` as the median set-up
time over reference-loop time, times REF_SECONDS. It then runs a fixed
number of timed seeds, `Workload.rate` per second of `--seconds` (at least
MIN_SEEDS), timing each from sampling to a coloring verified against the
original input, again between runs of the reference loop. The end-to-end
seed metrics are per-seed time over reference-loop time; the plain wall
times are in the details. Every coloring is also checked by the benchmark's
own numpy audit, outside the timed regions. The warm-up seed's exact
outputs must hash to the value recorded in fingerprints.json, so results
for a given (instance, params, seed) stay bit-identical across versions.

`--trace 1` then runs the same seeds again with the outside-in tracer of
spans.py installed and prints the per-layer metrics instead. End-to-end
metrics always come from untraced seeds.

The last stdout line is the result object; the line before it carries
details: provenance, the tail percentile and sample count, fingerprints
and, when traced, every per-layer number for the layers that ran.
"""

from __future__ import annotations

import os

# one thread per process for any BLAS/OpenMP pool numpy may bring up
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import palettesparse as ps  # noqa: E402

if not os.path.abspath(ps.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"palettesparse must come from {SRC}, not {ps.__file__}")

import spans  # noqa: E402
from workloads import WORKLOADS, coloring_array, seed_record  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 9
REF_REPEATS = 4         # reference loops on each side of a set-up
# nominal seconds of one reference loop (its median on a 2-vCPU Intel Xeon
# KVM guest): setup_s is in seconds of a machine running at that speed
REF_SECONDS = 0.025
WARM_SEED = 0
SEED_STRIDE = 100_000
MIN_SEEDS = 11          # the tail needs ten samples beyond it
MODULES = ("graphcore", "sparsify", "nibble", "cover", "streaming", "querysim")
# span names whose self time is the work of turning sampled palettes into
# the conflict instance, in whichever model does it
SPARSIFY_SPANS = ("sparsify.prune", "sparsify.conflict", "streaming.stream_color",
                  "querysim.plan", "querysim.execute", "querysim.end_to_end")
SETUP_SPANS = ("graphcore.gen", "graphcore.audit", "cover.random_cover")


def sampling_seed(run_seed: int, i: int) -> int:
    """The i-th timed sampling seed of a run; never the warm-up seed."""
    return run_seed * SEED_STRIDE + 1 + i


def one_seed(wl, inst, seed: int, probe, tracer=None) -> dict:
    gc.collect()
    solves_before = len(probe.edges)
    root = tracer.open("seed") if tracer else None
    t0 = time.perf_counter()
    out = wl.run_seed(inst, seed)
    verified = out.coloring is not None and \
        ps.verify_coloring(inst.g, inst.verify_against, out.coloring).ok
    wall = time.perf_counter() - t0
    if tracer:
        tracer.close(root)

    colors = coloring_array(out.coloring, inst.g.n)
    if out.coloring is None:
        problem = "no coloring"
    elif colors is None:
        problem = "partial coloring"
    else:
        problem = wl.audit(inst, colors) or ("" if verified else "verify_coloring rejected it")
    problem = problem or wl.exact_problem(inst, out.exact)
    m_prime = probe.edges[-1] if len(probe.edges) > solves_before else 0
    stages = out.solve_result.stages if out.solve_result is not None else []
    return {
        "seed": seed,
        "wall": wall,
        "ok": not problem,
        "problem": problem,
        "wrong": bool(problem) and out.coloring is not None,
        "m_prime": m_prime,
        "exact": out.exact,
        "stages": [(s.name, s.attempted, s.succeeded) for s in stages],
        "fingerprint": seed_record(seed, colors, m_prime, out.exact),
    }


def reference_loop() -> float:
    """Seconds taken by a fixed mix of dict, tuple, sort and numpy work that
    never changes with the package.

    Shared virtual machines change speed by up to about 1.7x for tens of
    seconds to minutes at a time (measured on a 2-vCPU KVM guest of an
    Intel Xeon host), which no run length averages away. The
    loop runs between consecutive seeds and around each set-up, and the
    end-to-end seed metrics are in units of the mean of the loops just
    before and after each seed ("ref"): how many reference loops one seed
    costs on the same CPU at the same moment. `setup_s` is normalised the
    same way and scaled back to seconds by REF_SECONDS.
    """
    t0 = time.perf_counter()
    table = {((i * 7919) % 10007, i & 63): i for i in range(8000)}
    sorted(table.items())
    a = np.arange(100_000) % 977
    np.bincount(a, minlength=977)
    np.unique(a)
    [tuple(sorted({(i * j) % 500 for j in range(8)})) for i in range(1200)]
    return time.perf_counter() - t0


def measure(wl, inst, run_seed: int, count: int, probe, tracer=None) -> list[dict]:
    recs = []
    before = reference_loop()
    for i in range(count):
        rec = one_seed(wl, inst, sampling_seed(run_seed, i), probe, tracer)
        after = reference_loop()
        rec["ref"] = (before + after) / 2
        before = after
        recs.append(rec)
    return recs


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    xs = sorted(times)
    k = len(xs) - 10
    return xs[k - 1], 100.0 * k / len(xs)


def provenance() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    rev = git("rev-parse", "HEAD")
    return {
        "git_rev": rev or "unknown",
        "git_dirty": bool(git("status", "--porcelain")) if rev else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def expected_fingerprint(workload: str, size: str):
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        return json.load(fh).get(workload, {}).get(size)


def layer_metrics(tracer, inst, recs, untraced: list[dict]) -> tuple[dict, dict]:
    """(per_layer metrics printed on every workload, the full per-layer table
    for the layers that ran on this one)."""
    setup_rows = [tracer.breakdown(r) for r in tracer.roots("setup")]
    seed_rows = [tracer.breakdown(r) for r in tracer.roots("seed")]

    def med(rows, section, name):
        return spans.median_of(rows, lambda r: r[section].get(name, 0.0))

    def ran(rows, name):
        return any(name in r["total"] for r in rows)

    def counter(name, key):
        return sum(r["counters"].get(name, {}).get(key, 0) for r in seed_rows)

    tracemalloc.start()
    ps.local_sparsity(inst.g)
    audit_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    traced_p50 = statistics.median(r["wall"] for r in recs)
    untraced_p50 = statistics.median(r["wall"] for r in untraced)
    attempts = sum(stage[1] for r in recs for stage in r["stages"])
    successes = sum(stage[2] for r in recs for stage in r["stages"])
    common = {
        "graphcore.gen_s": med(setup_rows, "total", "graphcore.gen"),
        "graphcore.audit_s": med(setup_rows, "total", "graphcore.audit"),
        "graphcore.audit_peak_mb": audit_peak_mb,
        "graphcore.graph_build_s": med(seed_rows, "total", "graphcore.graph_build"),
        "sparsify.sample_s": med(seed_rows, "total", "sparsify.sample"),
        "sparsify.edges_kept": statistics.median(r["m_prime"] for r in recs),
        "pipeline.sparsify_s": spans.median_of(
            seed_rows, lambda r: sum(r["self"].get(n, 0.0) for n in SPARSIFY_SPANS)),
        "nibble.solve_s": med(seed_rows, "total", "nibble.solve"),
        "nibble.solve_self_s": med(seed_rows, "self", "nibble.solve"),
        "nibble.verify_s": med(seed_rows, "total", "nibble.verify"),
        "nibble.stage_success_ratio": successes / attempts if attempts else 0.0,
        "seed.uncovered_s": spans.median_of(seed_rows, lambda r: r["uncovered"]),
        "trace.overhead_frac": (statistics.median(r["wall"] / r["ref"] for r in recs)
                                / statistics.median(r["wall"] / r["ref"] for r in untraced) - 1.0),
    }

    table = {"graphcore.m": inst.g.m, "graphcore.k_star": inst.ctx["k_star"]}
    for name in sorted({n for r in setup_rows + seed_rows for n in r["total"]}):
        rows = setup_rows if name in SETUP_SPANS else seed_rows
        if ran(rows, name):
            table[f"{name}_s"] = med(rows, "total", name)
    table.update(common)
    if ran(seed_rows, "sparsify.prune"):
        sampled = counter("sparsify.prune", "sampled")
        table["sparsify.colors_pruned_frac"] = 1.0 - counter("sparsify.prune", "kept") / sampled
    if ran(seed_rows, "nibble.lll"):
        table["nibble.lll_resamples"] = spans.median_of(
            seed_rows, lambda r: r["counters"].get("nibble.lll", {}).get("resamples", 0))
    for key, col in (("nibble.stage_attempts", 1), ("nibble.stage_successes", 2)):
        per_stage: dict[str, int] = {}
        for r in recs:
            for stage in r["stages"]:
                per_stage[stage[0]] = per_stage.get(stage[0], 0) + int(stage[col])
        table[key] = per_stage
    if ran(setup_rows, "cover.random_cover"):
        table["cover.matching_pairs"] = setup_rows[0]["counters"]["cover.random_cover"]["pairs"]
    if ran(seed_rows, "streaming.stream_color"):
        table["streaming.pass_s"] = med(seed_rows, "self", "streaming.stream_color")
        table["streaming.stored_frac"] = statistics.median(
            r["exact"]["stored"] / inst.g.m for r in recs)
        table["streaming.peak_words"] = statistics.median(r["exact"]["peak_words"] for r in recs)
    if ran(seed_rows, "querysim.end_to_end"):
        table["querysim.prune_s"] = med(seed_rows, "self", "querysim.end_to_end")
        for kind in ("degree_q", "neighbor_q", "pair_q"):
            table[f"querysim.{kind}"] = statistics.median(r["exact"][kind] for r in recs)
        table["querysim.found_per_query"] = (counter("querysim.execute", "found")
                                             / counter("querysim.execute", "issued"))
    table["self_s"] = {
        mod: spans.median_of(seed_rows, lambda r, mod=mod: sum(
            v for n, v in r["self"].items() if n.startswith(mod + ".")))
        for mod in MODULES
    }
    table["trace.overhead_s"] = traced_p50 - untraced_p50
    table["untraced_seed_p50_s"] = untraced_p50
    table["traced_seed_p50_s"] = traced_p50
    return common, table


def run_workload(name: str, size: str, run_seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result object, details)."""
    wl = WORKLOADS[name]
    load_start = os.getloadavg()[0]
    tracer = spans.Tracer() if trace else None
    count = max(MIN_SEEDS, round(seconds * wl.rate))
    setup_times, setup_refs, warm = [], [], []
    reference_loop()        # the first loop in a process runs cold
    with spans.SolveProbe() as probe:
        for _ in range(SETUPS):
            inst = None
            gc.collect()
            before = [reference_loop() for _ in range(REF_REPEATS)]
            with tracer if trace else contextlib.nullcontext():
                root = tracer.open("setup") if trace else None
                t0 = time.perf_counter()
                inst = wl.setup(**wl.sizes[size])
                built = time.perf_counter() - t0
                wl.prepare_audit(inst)
                warm.append(one_seed(wl, inst, WARM_SEED, probe))
                if trace:
                    tracer.close(root)
            setup_times.append(built + warm[-1]["wall"])
            setup_refs.append(statistics.mean(before + [reference_loop()
                                                        for _ in range(REF_REPEATS)]))
        recs = measure(wl, inst, run_seed, count, probe)
        if trace:
            with tracer:
                traced = measure(wl, inst, run_seed, count, probe, tracer)

    times = [r["wall"] for r in recs]
    ratios = [r["wall"] / r["ref"] for r in recs]
    ok = sum(r["ok"] for r in recs)
    tail_ref, tail_pct = tail(ratios)
    expected = expected_fingerprint(name, size)
    warm_prints = {r["fingerprint"] for r in warm}
    fingerprint_ok = warm_prints == {expected}
    wrong = [r for r in recs + warm if r["wrong"]]
    correct = fingerprint_ok and not wrong and all(r["ok"] for r in warm)

    if trace:
        metrics, layers = layer_metrics(tracer, inst, traced, recs)
        correct = correct and all(r["ok"] for r in traced) and all(
            a["fingerprint"] == b["fingerprint"] for a, b in zip(traced, recs))
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    else:
        layers = None
        metrics = {
            "seeds_per_kref": 1000.0 * ok / sum(ratios),
            "seed_p50_ref": statistics.median(ratios),
            "seed_tail_ref": tail_ref,
            "setup_s": REF_SECONDS * statistics.median(
                t / r for t, r in zip(setup_times, setup_refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "conflict_edge_frac": statistics.median(r["m_prime"] / inst.g.m for r in recs),
        }
        units = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}

    result = {
        "correct": bool(correct),
        "attempted": len(recs),
        "failed": len(recs) - ok,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        "workload": name,
        "why": next(w["why"] for w in benchmark_spec()["workloads"] if w["name"] == name),
        "size": size,
        "instance": {"n": inst.g.n, "m": inst.g.m, "q": inst.params.q, "s": inst.params.s},
        "run_seed": run_seed,
        "provenance": provenance(),
        "loadavg_1m": [load_start, os.getloadavg()[0]],
        "seeds": len(recs),
        "fail_frac": (len(recs) - ok) / len(recs),
        "problems": sorted({r["problem"] for r in recs + warm if r["problem"]}),
        "seed_tail_percentile": tail_pct,
        "wall": {
            "seeds_per_s": ok / sum(times),
            "seed_p50_s": statistics.median(times),
            "seed_tail_s": tail(times)[0],
            "reference_loop_p50_s": statistics.median(r["ref"] for r in recs),
        },
        "seed_times_s": times,
        "seed_reference_loops_s": [r["ref"] for r in recs],
        "setup_times_s": setup_times,
        "setup_reference_loops_s": setup_refs,
        "fingerprint_ok": fingerprint_ok,
        "warmup_fingerprint": sorted(warm_prints),
        "expected_fingerprint": expected,
        "seeds_sha256": hashlib.sha256(
            "".join(r["fingerprint"] for r in recs).encode()).hexdigest(),
        "exact_medians": {
            k: statistics.median(r["exact"][k] for r in recs) for k in recs[0]["exact"]
        },
    }
    if layers is not None:
        detail["layers"] = layers
    return result, detail


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("tiny", "bench"), default="bench")
    args = ap.parse_args(argv)
    result, detail = run_workload(args.workload, args.size, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
