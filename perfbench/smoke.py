"""Smoke test of the benchmark itself, at the tiny instance sizes.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload it checks that an untraced and a traced run print every
metric BENCHMARK.json names, each with its unit, and that a deliberately
corrupted coloring is counted as failed and trips the fingerprint check,
which shows the checker is live. Exits non-zero at the first broken check.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
from workloads import WORKLOADS, SeedOutput


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: {msg}")


def corrupting(wl):
    """Make `wl` give the second endpoint of the first input edge the
    first endpoint's color: a clash for plain graphs, a color outside the
    vertex's list for covers. Returns the undo."""
    honest = wl.run_seed

    def run_seed(inst, seed):
        out = honest(inst, seed)
        phi = dict(out.coloring.assignment)
        us, vs = inst.edges
        phi[int(vs[0])] = phi[int(us[0])]
        return SeedOutput(run.ps.PartialColoring(phi), out.solve_result, out.exact)

    wl.run_seed = run_seed
    return lambda: delattr(wl, "run_seed")


def main() -> int:
    spec = run.benchmark_spec()
    for name, wl in WORKLOADS.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, detail = run.run_workload(name, "tiny", 0, 0.0, trace)
            check(result["correct"] and result["failed"] == 0 and detail["fingerprint_ok"],
                  f"{name} trace={trace:d} is not clean: {detail['problems']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace={trace:d} prints {got}, want {want}")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{name} trace={trace:d} has a non-numeric value")
            if trace:
                check("seed.uncovered_s" in detail["layers"] and "trace.overhead_s" in detail["layers"],
                      f"{name} traced details lack the uncovered remainder or overhead")
        undo = corrupting(wl)
        try:
            result, detail = run.run_workload(name, "tiny", 0, 0.0, False)
        finally:
            undo()
        check(not result["correct"] and result["failed"] == result["attempted"],
              f"{name}: corrupted colorings were not counted as failed")
        check(not detail["fingerprint_ok"], f"{name}: corrupted coloring kept the fingerprint")
        print(f"smoke: {name} ok", flush=True)

    # the command-line contract: the last stdout line is the result object
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cover-finish", "--size", "tiny",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    last = json.loads(proc.stdout.splitlines()[-1])
    check(proc.returncode == 0 and set(last) == {"correct", "attempted", "failed", "metrics"},
          f"command line gave exit {proc.returncode} and {sorted(last)}")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
