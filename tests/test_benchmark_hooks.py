"""The benchmark's hooks into the package still hold.

perfbench/ traces the package from outside by rebinding the functions and
methods that `spans.TRACED` names, and runs workloads through the public
API. A rename in the package would break it silently, so this checks the
names and every tiny workload end to end, fingerprint included, and that
a corrupted coloring fails the benchmark's audit (perfbench/smoke.py's
liveness check). Run from the repository root, as perfbench/run.py
expects.
"""

import json
import os
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import run
    import spans

    return run, spans


def resolve(qualname: str):
    mod_name, *owner_path, attr = qualname.split(".")
    owner = sys.modules[f"palettesparse.{mod_name}"]
    for part in owner_path:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if owner_path else getattr(owner, attr)


def test_traced_names_resolve_and_are_restored(perfbench):
    _, spans = perfbench
    before = {name: resolve(name) for name in spans.TRACED}
    with spans.Tracer():
        wrapped = {name: resolve(name) for name in spans.TRACED}
    assert all(wrapped[name] is not before[name] for name in spans.TRACED)
    assert all(resolve(name) is before[name] for name in spans.TRACED)


@pytest.mark.parametrize("workload", ["offline-baseline", "stream-sparse", "query-scan",
                                      "cover-finish"])
def test_tiny_workload_is_correct(perfbench, workload):
    run, _ = perfbench
    result, detail = run.run_workload(workload, "tiny", 0, 0.0, True)
    assert result["correct"] and detail["fingerprint_ok"]


@pytest.mark.parametrize("workload", ["offline-baseline", "stream-sparse", "query-scan",
                                      "cover-finish"])
def test_a_corrupted_coloring_fails_the_audit(perfbench, workload):
    # perfbench/smoke.py's liveness check: a hand-built coloring with one
    # bad vertex is counted as failed and breaks the fingerprint
    run, _ = perfbench
    import smoke

    undo = smoke.corrupting(smoke.WORKLOADS[workload])
    try:
        result, detail = run.run_workload(workload, "tiny", 0, 0.0, False)
    finally:
        undo()
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert not detail["fingerprint_ok"]


@pytest.mark.parametrize("loads, flagged", [((0.2, 0.9), False), ((0.2, 1.3), True)])
def test_ab_pairs_reports_the_highest_start_load(monkeypatch, capsys, loads, flagged):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import ab_pairs

    def run(load, value, faults):
        return {"correct": True, "sha": "x", "load": load, "faults": faults,
                "metrics": {"setup_s": value}}

    pairs = [(run(loads[0], 1.0, 100), run(0.1, 0.9, 7)),
             (run(0.3, 1.1, 300), run(loads[1], 0.8, 9))]
    ab_pairs.report("w", [{"name": "setup_s", "better": "lower"}], pairs)
    out = capsys.readouterr().out
    assert f"base {max(loads[0], 0.3):.2f}, change {max(loads[1], 0.1):.2f}" in out
    assert ("LOADED" in out) == flagged
    assert "median minor page faults per run: base 200, change 8" in out


def test_ab_pairs_sets_each_env_for_both_sides(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import ab_pairs

    bench = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "setup_s", "better": "lower"}]}

    def export(rev, repo, into):
        tree = tmp_path / rev
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text(json.dumps(bench))
        return str(tree)

    envs = []

    def fake_process(cmd, cwd=None, env=None, **kwargs):
        if cmd[0] == "git":  # the repository's root
            return SimpleNamespace(returncode=0, stdout=str(tmp_path))
        envs.append((os.path.basename(cwd), env.get("A"), env.get("B"), env.get("PATH")))
        lines = [{"detail": {"seeds_sha256": "x", "loadavg_1m": [0.1, 0.1]}},
                 {"correct": True, "metrics": {"setup_s": {"value": 1.0}}}]
        return SimpleNamespace(returncode=0, stdout="\n".join(map(json.dumps, lines)))

    monkeypatch.setattr(ab_pairs, "export", export)
    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_process)
    assert ab_pairs.main(["base", "change", "--pairs", "2", "--env", "A=1",
                          "--env", "B=x=y"]) == 0
    path = os.environ.get("PATH")
    assert sorted(envs) == [("base", "1", "x=y", path)] * 2 + [("change", "1", "x=y", path)] * 2
    with pytest.raises(SystemExit):
        ab_pairs.main(["base", "change", "--env", "A"])


def test_ab_pairs_trace_reports_the_per_layer_metrics(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import ab_pairs

    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "setup_s", "better": "lower"}],
             "per_layer": [{"name": "graphcore.graph_build_s", "better": "lower"},
                           {"name": "nibble.stage_success_ratio", "better": "higher"}]}

    def export(rev, repo, into):
        tree = tmp_path / rev
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text(json.dumps(bench))
        return str(tree)

    traced = []

    def fake_process(cmd, cwd=None, env=None, **kwargs):
        if cmd[0] == "git":  # the repository's root
            return SimpleNamespace(returncode=0, stdout=str(tmp_path))
        traced.append(cmd[cmd.index("--trace") + 1])
        build = 0.5 if os.path.basename(cwd) == "base" else 0.0
        layers = {"graphcore.graph_build_s": build, "querysim.execute_s": 1.0 + build,
                  "graphcore.m": 10, "self_s": {"querysim": 1.0}}
        if os.path.basename(cwd) == "base":
            layers["graphcore.only_base_s"] = 1.0
        lines = [{"detail": {"seeds_sha256": "x", "loadavg_1m": [0.1, 0.1], "layers": layers}},
                 {"correct": True, "metrics": {"graphcore.graph_build_s": {"value": build},
                                               "nibble.stage_success_ratio": {"value": 1.0}}}]
        return SimpleNamespace(returncode=0, stdout="\n".join(map(json.dumps, lines)))

    monkeypatch.setattr(ab_pairs, "export", export)
    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_process)
    assert ab_pairs.main(["base", "change", "--pairs", "2", "--trace"]) == 0
    assert traced == ["1"] * 4
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ") and "[" in line and "base" not in line}
    # the per-layer metrics, then the span times that every run reports
    assert list(rows) == ["graphcore.graph_build_s", "nibble.stage_success_ratio",
                          "querysim.execute_s"]
    assert rows["graphcore.graph_build_s"][1] == "0.5" and rows["graphcore.graph_build_s"][4] == "0"
    assert rows["querysim.execute_s"][7:9] == ["-33.3%", "2/2"]
