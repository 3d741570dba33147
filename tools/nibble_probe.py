"""The two nibble-stage probes of ROADMAP.md, timed, with a hash to compare trees.

Run from the root of a tree, as `perfbench/run.py` is:

    python3 tools/nibble_probe.py                 # both probes
    python3 tools/nibble_probe.py --probe admitted

The probes:

- `admitted`: `gen_bipartite(20000, 16, seed=3)` with each list
  `np.sort(rng.choice(50, 28, replace=False))` for
  `rng = np.random.default_rng(0)`, drawn vertex by vertex, then
  `solve(policy="nibble", seed=0)` with the default schedule; its schedule
  admits the lists and the stage runs its rounds.
- `rejection`: `gen_bipartite(10**5, 16, seed=1)` with each list
  `np.sort(rng.choice(34, 17, replace=False))` for `rng =
  np.random.default_rng(0)`, drawn vertex by vertex, then the same solve;
  the stage rejects the lists as smaller than the schedule's starting scale.

For each probe it prints one JSON line: the wall time of the `solve` call
(instance building is not timed), the stage's reason and stats, the
process's `ru_maxrss` in MB after the call, and the sha256 of (reason,
stats, coloring), so that two trees can be compared run for run. The
`src/` of the tree it is run from is imported, not an installed package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import palettesparse as ps  # noqa: E402

# name -> (n, target_delta, graph seed, palette size, list size)
PROBES = {
    "admitted": (20000, 16, 3, 50, 28),
    "rejection": (10 ** 5, 16, 1, 34, 17),
}


def instance(n: int, delta: int, graph_seed: int, palette: int, size: int):
    """The probe's graph and lists: one sorted draw per vertex, in turn."""
    g = ps.gen_bipartite(n, delta, seed=graph_seed)
    draw = np.random.default_rng(0).choice
    lists = ps.ListAssignment(tuple(tuple(np.sort(draw(palette, size, replace=False)).tolist())
                                    for _ in range(n)))
    return g, lists


def probe(name: str) -> dict:
    g, lists = instance(*PROBES[name])
    start = time.perf_counter()
    res = ps.solve(g, lists, policy="nibble", seed=0)
    wall = time.perf_counter() - start
    stage = res.stages[0]
    coloring = None if res.coloring is None else sorted(res.coloring.assignment.items())
    digest = hashlib.sha256(json.dumps([stage.reason, stage.stats, coloring],
                                       sort_keys=True).encode()).hexdigest()
    return {"probe": name, "wall_s": round(wall, 3), "reason": stage.reason,
            "stats": stage.stats, "maxrss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "sha256": digest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--probe", choices=sorted(PROBES), action="append",
                    help="a probe to run (repeatable; default: both)")
    args = ap.parse_args(argv)
    if not os.path.abspath(ps.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run from a tree's root: imported {ps.__file__}, not from {SRC}")
    for name in args.probe or list(PROBES):
        print(json.dumps(probe(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
