"""Alternating A/B pairs of perfbench runs between two git revisions.

Run from anywhere inside the repository:

    python3 tools/ab_pairs.py BASE CHANGE --workload cover-finish --pairs 10 --seconds 16

Each revision is exported with `git archive` into its own temporary
directory (a plain copy, not a git working tree), and `perfbench/run.py`
runs there in a fresh process per run. Pair i runs every chosen workload
on both trees, BASE first in even pairs and CHANGE first in odd ones, with
the same `--seed`, so the two runs of a pair also hash the same seeds.

For every end-to-end metric of BENCHMARK.json (read from BASE's tree, with
its direction), it prints each side's median and quartiles, the change of
the median, the pairs the change won, and whether the median gap exceeds
BASE's interquartile range. It also counts the runs that reported an
incorrect result and the pairs whose `seeds_sha256` differ, and per side
the highest 1-minute load average at the start of a run (perfbench's
`loadavg_1m`), flagging the workload when a run started above
`QUIET_LOAD`: pairs do not cancel load from other processes on the same
cores, so such a report may show gaps on untouched code. It prints each
side's median minor page faults per run (the `ru_minflt` of the finished
run, read with `getrusage(RUSAGE_CHILDREN)` before and after it): seed
times move with how often glibc returns freed heap to the kernel and
faults it in again, so a fault gap flags a timing gap that may come from
the heap's layout rather than from the code. Each `--env
NAME=VALUE` is set for the runs of both sides, for example
`--env MALLOC_MMAP_THRESHOLD_=131072` to fix glibc's mmap threshold before
reading a `peak_rss_mb` gap. With `--trace`, every run is perfbench's
`--trace 1` run, and the table holds BENCHMARK.json's per-layer metrics
in place of the end-to-end ones, then every other span time (`*_s`, lower
is better) of the run's layer table that all runs report, such as
`querysim.execute_s`: it shows in which layer a gap sits. Only the
standard library is used; nothing is written into the repository, and
the exports are removed at the end unless `--keep` is given.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

# back-to-back runs alone hold the 1-minute load average just under 1, so a
# run that starts above this shared its cores with another busy process
QUIET_LOAD = 1.0


def export(rev: str, repo: str, into: str) -> str:
    """Extract `git archive rev` into a new directory under `into`."""
    data = subprocess.run(["git", "-C", repo, "archive", rev], check=True,
                          stdout=subprocess.PIPE).stdout
    tree = tempfile.mkdtemp(prefix="tree-", dir=into)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the "data" filter (where this Python has it) refuses links out of the tree
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return tree


def run(tree: str, workload: str, seed: int, seconds: float, env: dict[str, str],
        trace: bool = False) -> dict:
    """One perfbench process in `tree`, with `env` added to the environment:
    its result and detail lines, and the minor page faults it took. A
    traced run's metrics also hold the span times of its layer table."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(int(trace))],
                         cwd=tree, stdout=subprocess.PIPE, text=True, env={**os.environ, **env})
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} in {tree} printed no result (exit {out.returncode})")
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    spans = {k: v for k, v in detail.get("layers", {}).items()
             if k.endswith("_s") and isinstance(v, (int, float))}
    return {"correct": result["correct"], "sha": detail["seeds_sha256"],
            "load": detail["loadavg_1m"][0], "faults": faults,
            "metrics": {**spans, **{k: v["value"] for k, v in result["metrics"].items()}}}


def spread(xs: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def with_spans(spec: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    """`spec`, then the other span times that every run of both sides
    reports (only traced runs report any)."""
    names = set.intersection(*(set(r["metrics"]) for pair in pairs for r in pair))
    names -= {m["name"] for m in spec}
    return spec + [{"name": name, "better": "lower"} for name in sorted(names)]


def report(workload: str, spec: list[dict], pairs: list[tuple[dict, dict]]) -> None:
    print(f"\n{workload}: {len(pairs)} pairs")
    wrong = sum(not r["correct"] for pair in pairs for r in pair)
    same = sum(a["sha"] == b["sha"] for a, b in pairs)
    print(f"  incorrect runs: {wrong}; pairs with equal seeds_sha256: {same}/{len(pairs)}")
    base_load, change_load = (max(pair[side]["load"] for pair in pairs) for side in (0, 1))
    print(f"  highest loadavg_1m at a run's start: base {base_load:.2f}, change {change_load:.2f}"
          + (f"  LOADED: above {QUIET_LOAD}, gaps may be other processes' load"
             if max(base_load, change_load) > QUIET_LOAD else ""))
    base_faults, change_faults = (statistics.median(pair[side]["faults"] for pair in pairs)
                                  for side in (0, 1))
    print(f"  median minor page faults per run: base {base_faults:.0f}, change {change_faults:.0f}")
    print(f"  {'metric':26s} {'base median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'change':>8s} {'won':>6s}  gap > base IQR")
    for m in spec:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        base = [a["metrics"][name] for a, _ in pairs]
        new = [b["metrics"][name] for _, b in pairs]
        b1, b2, b3 = spread(base)
        n1, n2, n3 = spread(new)
        won = sum(sign * (y - x) > 0 for x, y in zip(base, new))
        rel = (n2 - b2) / b2 * 100 if b2 else 0.0
        print(f"  {name:26s} {b2:12.5g} [{b1:.5g}, {b3:.5g}] {n2:12.5g} [{n1:.5g}, {n3:.5g}]"
              f" {rel:+7.1f}% {won:3d}/{len(pairs):<2d}  {abs(n2 - b2) > b3 - b1}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="git revision of the base tree")
    ap.add_argument("change", help="git revision of the changed tree")
    ap.add_argument("--workload", action="append",
                    help="a workload to run (repeatable; default: all of BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--env", action="append", default=[], metavar="NAME=VALUE",
                    help="an environment variable for both sides' runs (repeatable)")
    ap.add_argument("--trace", action="store_true",
                    help="run perfbench traced and report the per-layer metrics")
    ap.add_argument("--keep", action="store_true", help="keep the exported trees")
    args = ap.parse_args(argv)
    env = {}
    for item in args.env:
        name, eq, value = item.partition("=")
        if not (name and eq):
            ap.error(f"--env takes NAME=VALUE, not {item!r}")
        env[name] = value
    repo = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True, text=True,
                          cwd=os.path.dirname(os.path.abspath(__file__)),
                          stdout=subprocess.PIPE).stdout.strip()
    scratch = tempfile.mkdtemp(prefix="ab-pairs-")
    try:
        trees = [export(rev, repo, scratch) for rev in (args.base, args.change)]
        with open(os.path.join(trees[0], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        spec = bench["per_layer" if args.trace else "end_to_end"]
        first = spec[0]["name"]
        runs = {w: [] for w in workloads}
        for i in range(args.pairs):
            for w in workloads:
                order = (0, 1) if i % 2 == 0 else (1, 0)
                got = {side: run(trees[side], w, args.seed, args.seconds, env, args.trace)
                       for side in order}
                runs[w].append((got[0], got[1]))
                print(f"pair {i + 1}/{args.pairs} {w}: " + "  ".join(
                    f"{('base', 'change')[side]} {first} {got[side]['metrics'][first]:.4g}"
                    for side in order), flush=True)
        print(f"\nbase {args.base}, change {args.change}"
              + "".join(f", {name}={value}" for name, value in env.items()))
        for w in workloads:
            report(w, with_spans(spec, runs[w]), runs[w])
    finally:
        if args.keep:
            print(f"exports kept in {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
