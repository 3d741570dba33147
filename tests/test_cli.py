import hashlib
import itertools
import json
import math
import subprocess
import sys
import tracemalloc

import pytest
from conftest import save_cover, sweep_success_vs_s

from palettesparse import cli
from palettesparse.cli import ConfigError, RunConfig, main, run
from palettesparse.cover import (
    CorrespondenceCover,
    ListAssignment,
    cover_from_lists,
    random_cover,
)
from palettesparse.graphcore import Graph, gen_bipartite, gen_locally_sparse, save_graph
from palettesparse.nibble import verify_coloring
from palettesparse.nibble import PartialColoring
from palettesparse.sparsify import (
    SharedPalette,
    build_conflict,
    manual_params,
    prune,
    sample_palettes,
)


def base_config(**over):
    d = {
        "instance": {"kind": "gen", "n": 30, "delta": 5, "k": 2, "seed": 1},
        "pipeline": "plain",
        "model": "offline",
        "alpha": 0.5,
        "gamma": 0.1,
        "epsilon": 1.0,
        "q_override": 6,
        "s_override": 4,
        "seeds": list(range(10)),
    }
    d.update(over)
    return RunConfig.from_dict(d)


class TestRunConfig:
    def test_schema_checked(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"schema": "other/9", "instance": {}, "seeds": [1]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"instance": {}, "seeds": [1], "bogus": 2})

    def test_roundtrip(self):
        cfg = base_config()
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    ILL_TYPED = {
        "policy": ({"policy": "bogus"},
                   "policy must be one of auto, greedy, nibble, lll, got 'bogus'"),
        "strategy": ({"strategy": "bogus", "model": "query"},
                     "strategy must be one of auto, scan, classes, got 'bogus'"),
        "seed-float": ({"seeds": [0.5]},
                       "seeds must be a nonempty list of nonnegative integers, got [0.5]"),
        "seeds-string": ({"seeds": "01"},
                         "seeds must be a nonempty list of nonnegative integers, got '01'"),
        "seed-bool": ({"seeds": [True]},
                      "seeds must be a nonempty list of nonnegative integers, got [True]"),
        "seed-negative": ({"seeds": [-1]},
                          "seeds must be a nonempty list of nonnegative integers, got [-1]"),
        "seeds-empty": ({"seeds": []},
                        "seeds must be a nonempty list of nonnegative integers, got []"),
        "permute-seed": ({"permute_seed": "x"},
                         "permute_seed must be a nonnegative integer, got 'x'"),
        "instance-seed-null": ({"instance_seed": None},
                               "instance_seed must be a nonnegative integer, got None"),
        "alpha": ({"alpha": "0.5"}, "alpha must be a number, got '0.5'"),
        "q-override": ({"q_override": 5.5}, "q_override must be a nonnegative integer, got 5.5"),
        "cover-density": ({"cover_density": 2.0, "pipeline": "cover"},
                          "cover_density must be in [0, 1], got 2.0"),
        "instance-string": ({"instance": "gen"}, "instance must be a JSON object, got 'gen'"),
        "instance-n": ({"instance": {"kind": "gen", "n": "20", "delta": 5, "k": 2}},
                       "instance n must be a nonnegative integer, got '20'"),
        "out-dir": ({"out_dir": 5}, "out_dir must be a string or null, got 5"),
        "instance-path": ({"instance": {"kind": "file", "path": 5}},
                          "instance path must be a string, got 5"),
        "cover-size-zero": ({"cover_size": 0, "pipeline": "cover"},
                            "cover_size must be a positive integer, got 0"),
        "list-universe-zero": ({"list_universe": 0, "pipeline": "list"},
                               "list_universe must be a positive integer, got 0"),
        "list-universe-negative": ({"list_universe": -3, "pipeline": "list"},
                                   "list_universe must be a positive integer, got -3"),
        "epsilon-nan": ({"epsilon": math.nan}, "epsilon must be a finite number, got nan"),
        "gamma-inf": ({"gamma": math.inf}, "gamma must be a finite number, got inf"),
        "cover-density-nan": ({"cover_density": math.nan, "pipeline": "cover"},
                              "cover_density must be a finite number, got nan"),
    }

    @pytest.mark.parametrize("over, message", ILL_TYPED.values(), ids=ILL_TYPED.keys())
    def test_ill_typed_field_rejected(self, over, message):
        # instance fields are checked when the instance is built, by `run`
        with pytest.raises(ConfigError) as err:
            run(base_config(**over))
        assert str(err.value) == message

    @pytest.mark.parametrize("config, message", [
        ([1, 2], "config must be a JSON object, got [1, 2]"),
        ({"instance": {"kind": "gen", "n": 20, "delta": 4, "k": 1}, "policy": "bogus"},
         "policy must be one of auto, greedy, nibble, lll, got 'bogus'"),
        ({"instance": {"kind": "gen", "n": 20, "delta": 4, "k": 1}, "seeds": [0.5]},
         "seeds must be a nonempty list of nonnegative integers, got [0.5]"),
        ({"instance": {"kind": "gen", "n": 20, "delta": 4, "k": 1}, "out_dir": 5},
         "out_dir must be a string or null, got 5"),
        ({"instance": {"kind": "file", "path": 5}}, "instance path must be a string, got 5"),
        ({"instance": {"kind": "gen", "n": 20, "delta": 4, "k": 1}, "pipeline": "cover",
          "cover_size": 0}, "cover_size must be a positive integer, got 0"),
        # Python's json reads NaN and Infinity, and json.dumps writes them
        ({"instance": {"kind": "gen", "n": 20, "delta": 4, "k": 1}, "epsilon": math.nan},
         "epsilon must be a finite number, got nan"),
        ({"instance": {"kind": "gen", "n": 20, "delta": 4, "k": 1}, "epsilon": math.inf},
         "epsilon must be a finite number, got inf"),
    ], ids=["top-level", "policy", "seeds", "out-dir", "instance-path", "cover-size-zero",
            "epsilon-nan", "epsilon-inf"])
    def test_sweep_of_an_ill_typed_config_exits_3(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_sweep_of_an_instance_the_generator_cannot_make_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance": {"kind": "gen", "n": 0, "delta": 4, "k": 1}}))
        assert main(["sweep", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "error: need n >= 1, got 0\n"


class TestRun:
    def test_rows_and_aggregates_consistent(self):
        res = run(base_config())
        assert len(res.rows) == 10
        agg = res.aggregates()
        assert agg["runs"] == 10
        assert agg["successes"] == sum(1 for r in res.rows if r.success)
        assert agg["success_rate"] == agg["successes"] / 10

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(base_config(out_dir=str(out1)))
        run(base_config(out_dir=str(out2)))
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_stored_colorings_reverify(self, tmp_path):
        out = tmp_path / "runs"
        cfg = base_config(out_dir=str(out))
        res = run(cfg)
        g = gen_locally_sparse(30, 5, 2, seed=1)
        full = ListAssignment(tuple(tuple(range(6)) for _ in range(30)))
        for row in res.rows:
            if row.success:
                data = json.loads((out / f"coloring_seed{row.seed}.json").read_text())
                phi = PartialColoring({int(v): c for v, c in data.items()})
                assert verify_coloring(g, full, phi).ok

    def test_query_cover_combination_unsupported(self):
        cfg = base_config(model="query", pipeline="cover", cover_size=6,
                          seeds=[0, 1])
        res = run(cfg)
        assert all(not r.success for r in res.rows)
        assert all("unsupported" in r.error for r in res.rows)
        assert res.exit_code == 2

    def test_stream_model_records_peak_words(self):
        cfg = base_config(model="stream", seeds=[0, 1, 2])
        res = run(cfg)
        assert all(r.resource is not None and r.resource > 0 for r in res.rows)

    def test_list_and_cover_pipelines(self):
        for pipeline in ("list", "cover"):
            cfg = base_config(pipeline=pipeline, seeds=[0, 1, 2], cover_size=6,
                              q_override=None, s_override=4)
            res = run(cfg)
            assert len(res.rows) == 3


    def test_list_stream_sweep_builds_its_cover_once(self, monkeypatch):
        # the canonical cover and its stream do not depend on the seed
        calls = []

        def counted(*args):
            calls.append(args)
            return cover_from_lists(*args)

        monkeypatch.setattr(cli, "cover_from_lists", counted)
        res = run(base_config(model="stream", pipeline="list", seeds=[0, 1, 2],
                              q_override=None, s_override=4))
        assert len(calls) == 1 and len(res.rows) == 3

    def test_list_stream_seed_pulls_back_with_no_per_entry_table(self):
        # 2·10⁵ list entries (q = 100 at 2,000 vertices) from a universe so
        # wide that the stream holds few pairs: the seed's own arrays are
        # small, and the pull-back reads the lists' values where they are.
        # A dict over the entries takes about 130 B each (27.5 MB here)
        cfg = RunConfig.from_dict({
            "instance": {"kind": "gen-bipartite", "n": 2000, "delta": 4, "seed": 1},
            "pipeline": "list", "model": "stream", "q_override": 100, "s_override": 4,
            "list_universe": 10 ** 6, "seeds": [0]})
        g, params, lists = cli._build_instance(cfg)
        assert lists.lists.values.size == 2 * 10 ** 5
        streamed = cli._stream_pass(g, lists, cfg.permute_seed)
        tracemalloc.start()
        try:
            row, assignment = cli._run_seed(g, params, lists, streamed, cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.success and verify_coloring(g, lists, PartialColoring(assignment)).ok
        assert peak < 40 * lists.lists.values.size

    def test_plain_seeds_verify_against_one_palette(self):
        # the range(q) palette is built and checked once for all the seeds
        # of a plain sweep; reasons keep their text
        cli._full_palette.cache_clear()
        res = run(base_config())
        info = cli._full_palette.cache_info()
        assert info.misses == 1 and info.hits == sum(r.success for r in res.rows) - 1
        g = gen_locally_sparse(30, 5, 2, seed=1)
        params = manual_params(5, 0.1, 1.0, q=6, s=4)
        check = cli._full_verify(g, params, None, PartialColoring({3: 6}))
        assert (check.ok, check.witness, check.reason) == \
            (False, (3, 6), "color 6 not in the list of vertex 3")
        assert cli._full_palette.cache_info().misses == 1

class TestSweepSuccessVsS:
    def test_s_equals_q_matches_full_list_offline(self):
        # sampling the whole palette is the identity, so the success rate at
        # s = q equals the plain offline rate on full lists
        cfg = base_config(seeds=list(range(8)))
        table = sweep_success_vs_s(cfg, [6])
        full = run(base_config(seeds=list(range(8)), s_override=6))
        assert table["table"][0]["success_rate"] == full.aggregates()["success_rate"]

    def test_triangle_tiny_sample_matches_enumeration(self, tmp_path):
        # oracle: enumerate all 2^3 single-color samples of a triangle with
        # palette {0, 1}; a sample admits a proper coloring only if all three
        # forced colors are pairwise distinct, which cannot happen with two
        # colors, so every outcome is uncolorable
        colorable = 0
        for combo in itertools.product((0, 1), repeat=3):
            if combo[0] != combo[1] and combo[0] != combo[2] and combo[1] != combo[2]:
                colorable += 1
        assert colorable == 0

        path = tmp_path / "k3.txt"
        save_graph(Graph(3, [(0, 1), (0, 2), (1, 2)]), path)
        cfg = RunConfig.from_dict({
            "instance": {"kind": "file", "path": str(path), "k": 1},
            "pipeline": "plain",
            "model": "offline",
            "epsilon": 1.0,
            "q_override": 2,
            "seeds": list(range(24)),
        })
        table = sweep_success_vs_s(cfg, [1, 2])
        rate_s1 = table["table"][0]["success_rate"]
        assert rate_s1 < 1.0
        assert rate_s1 == colorable / 8
        assert "monotone_nondecreasing" in table

    def test_rates_reported_per_s(self):
        cfg = base_config(seeds=list(range(6)))
        table = sweep_success_vs_s(cfg, [2, 4, 6])
        assert [t["s"] for t in table["table"]] == [2, 4, 6]


class TestCliCommands:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "palettesparse.cli", *args],
            capture_output=True, text=True,
        )

    def test_gen_and_sparsify_and_solve(self, tmp_path):
        gpath = tmp_path / "g.txt"
        out = self._run("gen", "--n", "20", "--delta", "4", "--k", "1",
                        "--seed", "2", "--out", str(gpath))
        assert out.returncode == 0 and gpath.exists()

        pal = tmp_path / "pal.txt"
        out = self._run("sparsify", "--graph", str(gpath), "--epsilon", "1.0",
                        "--seed", "1", "--out", str(pal))
        assert out.returncode == 0
        assert "|" in pal.read_text().splitlines()[0]

        lists = tmp_path / "lists.txt"
        lists.write_text("20\n" + "\n".join("0 1 2 3 4" for _ in range(20)) + "\n")
        report = tmp_path / "report.json"
        out = self._run("solve", "--graph", str(gpath), "--lists", str(lists),
                        "--seed", "0", "--report", str(report))
        assert out.returncode == 0
        rep = json.loads(report.read_text())
        assert rep["success"] and rep["coloring"]

    @pytest.mark.parametrize("body, witness", [
        ("3\n0 1\n0 1\n", "row 2 is missing"),
        ("3\n0 1\n1 1\n0 2\n", "duplicate color in list of vertex 1"),
        ("3\n0 1\nx\n0 2\n", "invalid literal"),
        ("2\n0 1\n0 1\n", "first line must be the vertex count 3"),
        ("3\n0\n1\n2\n3\n", "row 3 is one too many"),
    ])
    def test_solve_rejects_bad_lists_file(self, tmp_path, capsys, body, witness):
        gpath = tmp_path / "g.txt"
        save_graph(Graph(3, [(0, 1), (1, 2)]), gpath)
        lists = tmp_path / "lists.txt"
        lists.write_text(body)
        assert main(["solve", "--graph", str(gpath), "--lists", str(lists)]) == 3
        assert witness in capsys.readouterr().err

    @pytest.mark.parametrize("flag, body, message", [
        ("--lists", "3\n0\n1\n99999999999999999999\n",
         "config error: lists file {path}: row 2 holds an id outside int64\n"),
        ("--cover", "3 3\n0\n1\n99999999999999999999\n",
         "error: integer outside int64 in line '99999999999999999999'\n"),
        ("--cover", "3 3\n0\n1\n2\n0 1 1 0 -99999999999999999999\n",
         "error: integer outside int64 in line '0 1 1 0 -99999999999999999999'\n"),
    ])
    def test_solve_rejects_an_id_outside_int64(self, tmp_path, capsys, flag, body, message):
        # numpy cannot hold the id: the loader names its row or line
        gpath, path = tmp_path / "g.txt", tmp_path / "ids.txt"
        save_graph(Graph(3, [(0, 1), (1, 2)]), gpath)
        path.write_text(body)
        assert main(["solve", "--graph", str(gpath), flag, str(path)]) == 3
        assert capsys.readouterr().err == message.format(path=path)

    def test_verify_cover_command(self, tmp_path):
        g = gen_locally_sparse(12, 3, 1, seed=5)
        gpath = tmp_path / "g.txt"
        save_graph(g, gpath)
        cov = random_cover(g, 3, 0.5, seed=2)
        cpath = tmp_path / "c.txt"
        save_cover(cov, cpath)
        out = self._run("verify-cover", "--graph", str(gpath), "--cover", str(cpath))
        assert out.returncode == 0 and "pass" in out.stdout

    def test_verify_cover_rejects_a_color_twice_in_one_list(self, tmp_path):
        gpath = tmp_path / "g.txt"
        save_graph(Graph(2, [(0, 1)]), gpath)
        cpath = tmp_path / "c.txt"
        save_cover(CorrespondenceCover([(1, 1, 2), (3, 4)], {(0, 1): [(1, 3)]}), cpath)
        out = self._run("verify-cover", "--graph", str(gpath), "--cover", str(cpath))
        assert out.returncode == 2
        assert "CC1 partition: FAIL" in out.stdout
        assert "color 1 appears twice in the list of vertex 0" in out.stdout

    def test_verify_cover_rejects_an_edge_given_twice_turned_round(self, tmp_path, capsys):
        gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
        gpath.write_text("2 1\n0 1\n")
        cpath.write_text("2 4\n0 2\n1 3\n0 1 1 0 1\n1 0 1 3 2\n")
        assert main(["verify-cover", "--graph", str(gpath), "--cover", str(cpath)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: duplicate matching line for edge (0, 1)\n"

    BAD_INPUTS = {
        "self-loop": ("graph", "2 1\n0 0\n", "edges must satisfy u < v, got 0 0"),
        "missing-graph": ("graph", None, "No such file"),
        "non-integer": ("graph", "2 1\n0 x\n", "non-integer token in line '0 x'"),
        "color-count": ("cover", "2 5\n0 1\n2 3\n", "header claims 5 colors, lists carry 4"),
        "non-integer-cover": ("cover", "2 4\n0 1\n2 x\n", "non-integer token in line '2 x'"),
    }

    @pytest.mark.parametrize("command, fault", [
        *((command, fault) for command in ("verify-cover", "sparsify", "solve", "stream",
                                           "queries", "sweep")
          for fault in ("self-loop", "missing-graph", "non-integer")),
        *((command, fault) for command in ("verify-cover", "sparsify", "solve", "stream")
          for fault in ("color-count", "non-integer-cover")),
    ])
    def test_bad_input_file_exits_3(self, tmp_path, capsys, command, fault):
        which, body, witness = self.BAD_INPUTS[fault]
        gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
        save_graph(Graph(2, [(0, 1)]), gpath)
        save_cover(CorrespondenceCover([(0, 1), (2, 3)], {(0, 1): ((0, 2),)}), cpath)
        bad = gpath if which == "graph" else cpath
        bad.unlink()
        if body is not None:
            bad.write_text(body)
        if command == "sweep":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"instance": {"kind": "file", "path": str(gpath)},
                                       "seeds": [0]}))
            args = ["sweep", "--config", str(cfg)]
        else:
            args = [command, "--graph", str(gpath)]
            if command != "queries":
                args += ["--cover", str(cpath)]
        assert main(args) == 3
        assert witness in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["9223372036854775807 0", "9999999999999 0"])
    def test_a_huge_vertex_count_exits_3(self, tmp_path, capsys, header):
        # `Graph` rejects the header's n before it makes any n-sized array
        path = tmp_path / "g.txt"
        path.write_text(header + "\n")
        assert main(["queries", "--graph", str(path)]) == 3
        assert capsys.readouterr().err == f"error: vertex count {header.split()[0]} too large\n"

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 72.8 TiB"), "Unable to allocate 72.8 TiB"),
        (MemoryError(), "MemoryError"),
    ])
    def test_running_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch, error,
                                           message):
        def load(path):
            raise error

        monkeypatch.setattr(cli, "load_graph", load)
        assert main(["queries", "--graph", str(tmp_path / "g.txt")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_config_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"instance": {"kind": "file", "path": "g\xff.txt"}, "seeds": [0]}')
        assert main(["sweep", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith(
            "config error: 'utf-8' codec can't decode byte 0xff in position ")

    @pytest.mark.parametrize("command", ["solve", "stream", "sparsify"])
    def test_invalid_cover_file_rejected(self, tmp_path, capsys, command):
        # color 0 is matched twice on edge (0, 1)
        gpath = tmp_path / "g.txt"
        save_graph(Graph(2, [(0, 1)]), gpath)
        cpath = tmp_path / "c.txt"
        save_cover(CorrespondenceCover([(0, 1), (4, 5)], {(0, 1): ((0, 4), (0, 5))}), cpath)
        assert main([command, "--graph", str(gpath), "--cover", str(cpath)]) == 3
        assert "color matched twice on edge (0, 1): pair (0, 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-cover", "sparsify", "solve", "stream"])
    def test_a_cover_of_another_vertex_count_exits_3(self, tmp_path, capsys, command):
        # a valid 11-vertex cover with one pair on the edge (5, 10) of a
        # 20-vertex graph: verify-cover passed it, solve and stream crashed
        gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
        save_graph(gen_bipartite(20, 3, 0), gpath)
        save_cover(CorrespondenceCover([(v,) for v in range(11)], {(5, 10): ((5, 10),)}), cpath)
        assert main([command, "--graph", str(gpath), "--cover", str(cpath)]) == 3
        assert capsys.readouterr().err == "error: cover has 11 vertices, but n is 20\n"

    def test_a_palette_past_the_draws_bound_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance": {"kind": "gen", "n": 30, "delta": 5, "k": 2,
                                                "seed": 1},
                                   "q_override": 2 ** 33, "s_override": 2, "seeds": [0],
                                   "out_dir": str(tmp_path / "out")}))
        assert main(["sweep", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == \
            "config error: palette has 8589934592 colors, over the draws' limit 2**32\n"

    @pytest.mark.parametrize("command, model, s", [("sparsify", None, 27), ("stream", None, 27),
                                                   ("sweep", "offline", 4), ("sweep", "stream", 4)])
    def test_cover_shorter_than_the_sample_exits_3(self, tmp_path, capsys, command, model, s):
        # a valid 3-color cover, sampled at the derived s = q = 27 or at s = 4
        g = gen_bipartite(40, 4, 1)
        gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
        save_graph(g, gpath)
        save_cover(random_cover(g, 3, 0.5, seed=0), cpath)
        if command == "sweep":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "instance": {"kind": "gen-bipartite", "n": 40, "delta": 4, "seed": 1},
                "pipeline": "cover", "model": model, "cover_size": 3, "s_override": s,
                "seeds": [0, 1], "out_dir": str(tmp_path / "out")}))
            args = ["sweep", "--config", str(cfg)]
        else:
            args = [command, "--graph", str(gpath), "--cover", str(cpath)]
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: palette of vertex 0 has 3 colors, need {s}\n"

    @pytest.mark.parametrize("command, over, witness", [
        # derived params, then both q and s given (`manual_params`)
        ("sweep", {"epsilon": -1},
         "need alpha,gamma in (0,1) and finite epsilon > 0, got 0.5, 0.1, -1"),
        ("sweep", {"gamma": 1.5, "q_override": 6, "s_override": 4},
         "need gamma in (0,1) and finite epsilon > 0, got 1.5, 0.05"),
        *((command, None, "need alpha,gamma in (0,1) and finite epsilon > 0, got 0.5, 0.1, 0.0")
          for command in ("stream", "sparsify", "queries")),
    ], ids=["sweep-derived", "sweep-manual", "stream", "sparsify", "queries"])
    def test_invalid_parameters_exit_3(self, tmp_path, capsys, command, over, witness):
        gpath, out = tmp_path / "g.txt", tmp_path / "out"
        save_graph(gen_bipartite(40, 4, 1), gpath)
        if command == "sweep":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"instance": {"kind": "file", "path": str(gpath)},
                                       "seeds": [0], "out_dir": str(out), **over}))
            args = ["sweep", "--config", str(cfg)]
        else:
            args = [command, "--graph", str(gpath), "--epsilon", "0"]
        assert main(args) == 3
        assert capsys.readouterr().err == f"config error: {witness}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stream", "sparsify", "queries"])
    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exits_3(self, tmp_path, capsys, command, epsilon):
        gpath = tmp_path / "g.txt"
        save_graph(gen_bipartite(40, 4, 1), gpath)
        assert main([command, "--graph", str(gpath), "--epsilon", epsilon]) == 3
        assert capsys.readouterr().err == "config error: need alpha,gamma in (0,1) and finite " \
            f"epsilon > 0, got 0.5, 0.1, {epsilon}\n"

    def test_query_sweep_of_a_short_cover_writes_unsupported_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instance": {"kind": "gen-bipartite", "n": 40, "delta": 4, "seed": 1},
            "pipeline": "cover", "model": "query", "cover_size": 3, "s_override": 4,
            "seeds": [0, 1], "out_dir": str(out)}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        reason = ("query model supports the shared global palette only; "
                  "list and cover pipelines are unsupported")
        assert (out / "sweep.csv").read_text().splitlines()[1:] == \
            [f"{seed},0,27,4,0,,,{reason}" for seed in (0, 1)]

    def test_stream_and_queries_commands(self, tmp_path):
        g = gen_locally_sparse(25, 4, 1, seed=3)
        gpath = tmp_path / "g.txt"
        save_graph(g, gpath)
        ledger = tmp_path / "ledger.csv"
        out = self._run("stream", "--graph", str(gpath), "--epsilon", "1.0",
                        "--seed", "1", "--ledger", str(ledger))
        assert out.returncode == 0
        assert "peak_words" in ledger.read_text()
        counts = tmp_path / "counts.csv"
        out = self._run("queries", "--graph", str(gpath), "--epsilon", "1.0",
                        "--strategy", "auto", "--seed", "1", "--out", str(counts))
        assert out.returncode == 0
        assert "total" in counts.read_text()

    def test_sweep_command_and_exit_codes(self, tmp_path):
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "instance": {"kind": "gen", "n": 20, "delta": 4, "k": 1, "seed": 1},
            "pipeline": "plain", "model": "offline", "epsilon": 1.0,
            "q_override": 5, "s_override": 3, "seeds": [0, 1, 2],
            "out_dir": str(tmp_path / "out"),
        }))
        out = self._run("sweep", "--config", str(cfgpath))
        assert out.returncode in (0, 2)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope/0", "instance": {}, "seeds": [1]}))
        out = self._run("sweep", "--config", str(bad))
        assert out.returncode == 3


class TestSweepContract:
    """`sweep.csv` and the coloring files are a contract: every model,
    pipeline and failure mode writes the same bytes for the same config."""

    # q, s, epsilon: every palette empties, every solver stage fails, success
    REGIMES = {"empty": (20, 1, 0.05), "fail": (4, 3, 1.0), "success": (10, 4, 1.0)}

    # sha256 over the coloring files by name, then sweep.csv: name, NUL, bytes
    DIGESTS = {
        "offline plain empty": "c6d1b49f6dfa9fa51961d9f224d8750cf0ccdf9c7264335f10b04125f030d949",
        "offline plain fail": "05deaa319cf2ada5f3970f608f080a75f4e982a513e60b6eb956185c27eb4517",
        "offline plain success": "3e3335b34d3c36de8e6284cea3cf07528de3ffd4c0766f10cc4500c480c9e4a1",
        "offline list empty": "c6d1b49f6dfa9fa51961d9f224d8750cf0ccdf9c7264335f10b04125f030d949",
        "offline list fail": "326f34687aa6f39b296f43787abbafb53ee2588492ab9e5632dcc04ac25d11ab",
        "offline list success": "ec8fa5b6a381a5c6b2f2509ff64d1f372551fc5bc8655c0000abab4d95b79e39",
        "offline cover empty": "c6d1b49f6dfa9fa51961d9f224d8750cf0ccdf9c7264335f10b04125f030d949",
        "offline cover fail": "8eb7d6c606c7d2b36caa77a80bda35a9a6d8e75d669f1cc035c31c7d0484f1e2",
        "offline cover success": "14d06ddadbcfa84f2fdc3f1082e1df077139bad93df7d1203b4244c984eabb2d",
        "stream plain empty": "866e5a1bb540ff29eefd198464ef8e5cbb1af82fd2afe78647ed4e6bc4cdd142",
        "stream plain fail": "da4d15d598cd9fcd5984af78281cff0aaa108a967a5201c035bb8ae8c3a53486",
        "stream plain success": "f00a68b8a02eda95a5c216b6b5fee73abc79b855d948654d29bb52d9e14a3e8c",
        "stream list empty": "d216d1bea7e97a413ccd502762fe83710067f557a710a52b88aa818aad86b80a",
        "stream list fail": "90d133629688e796447e25dc2fd301190f20f724f400426cec49a804aae9c621",
        "stream list success": "eed706d55f840e51e4c87fd2c027f6498ab57b6133442b85c0e98f2975e09fa2",
        "stream cover empty": "fb19032f671b20633a00e1a8bd79fe2f23d8dd5e3a7b2509f87f4e13dd7ff0cd",
        "stream cover fail": "ddc63554c0c015a5a44438e462a03e7d9764f34d9378f7e8074c9b7477273edf",
        "stream cover success": "7f925632cd2200fa66aebf8219552795f12792353afc1df125398047a3e9c3b4",
        "query plain empty": "b3b163f956c069f359d4023b13aebedef87e2c103f8107922e22e8bed9108206",
        "query plain fail": "19bc1b19da8bf6bfdc45914b50d8c5c124bed7eae43580f1e1f71a545f4528cd",
        "query plain success": "f39bc1fff111b68037d48d2ea7291833b7980bc0c58af760bf2ba290dda992c9",
        "query list empty": "aa3fb85c50223bc53b996743e1c0a8c87b149cc64a943107c3f26600b1686144",
        "query list fail": "3a4fdafc25247a8a150cb7f17ae43ebdf20dec17ec4c133269967b3b4a2dad54",
        "query list success": "ebef8e8f53b5938eb8a306f4c397d4060dc1dd62eca59cbd431dd2eaa26188c6",
        "query cover empty": "aa3fb85c50223bc53b996743e1c0a8c87b149cc64a943107c3f26600b1686144",
        "query cover fail": "3a4fdafc25247a8a150cb7f17ae43ebdf20dec17ec4c133269967b3b4a2dad54",
        "query cover success": "ebef8e8f53b5938eb8a306f4c397d4060dc1dd62eca59cbd431dd2eaa26188c6",
    }

    @staticmethod
    def sweep(model, pipeline, q, s, epsilon, out_dir=None, seeds=range(6), workers=1):
        return run(RunConfig.from_dict({
            "instance": {"kind": "gen-bipartite", "n": 60, "delta": 6, "seed": 1},
            "pipeline": pipeline, "model": model, "epsilon": epsilon,
            "q_override": q, "s_override": s, "seeds": list(seeds), "permute_seed": 3,
            "out_dir": None if out_dir is None else str(out_dir),
        }), workers=workers)

    @pytest.mark.parametrize("model", ["offline", "stream", "query"])
    @pytest.mark.parametrize("pipeline", ["plain", "list", "cover"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_golden_outputs(self, tmp_path, model, pipeline, regime):
        self.sweep(model, pipeline, *self.REGIMES[regime], out_dir=tmp_path)
        files = [*sorted(p.name for p in tmp_path.glob("coloring_seed*.json")), "sweep.csv"]
        h = hashlib.sha256()
        for name in files:
            h.update(name.encode() + b"\0" + (tmp_path / name).read_bytes())
        assert h.hexdigest() == self.DIGESTS[f"{model} {pipeline} {regime}"]

    @pytest.mark.parametrize("model, pipeline", [("offline", "list"), ("stream", "cover")])
    def test_a_process_pool_writes_what_one_process_writes(self, tmp_path, model, pipeline):
        # the seeds of the success regime, some of which color, run in one
        # process and on a pool of two: the same files, and the same report
        # rows once their wall times are left out
        outs = [tmp_path / "one", tmp_path / "two"]
        for out, workers in zip(outs, (1, 2)):
            self.sweep(model, pipeline, *self.REGIMES["success"], out_dir=out, workers=workers)
        one, two = outs
        names = sorted(p.name for p in one.glob("coloring_seed*.json"))
        assert names and names == sorted(p.name for p in two.glob("coloring_seed*.json"))
        for name in ["sweep.csv", *names]:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

        def rows(out):
            report = json.loads((out / "report.json").read_text())
            return [{k: v for k, v in row.items() if k != "wall_time"} for row in report["rows"]]
        assert rows(one) == rows(two)

    def test_error_strings(self):
        # at q = 6, s = 3 seed 2 empties a palette, and seeds 0, 1 and 4 get
        # through pruning but every solver stage fails
        stages = ("greedy: stuck at vertex {}; nibble: schedule did not terminate within "
                  "96 rounds; lll: precondition failed: max color degree 3 exceeds min list "
                  "size 1 / 8.0; backtracking: instance too large for backtracking (n=60)")
        lost = "a vertex lost every sampled color"
        want = {
            "offline": [stages.format(32), stages.format(29), lost, "", stages.format(54), ""],
            "stream": ["solver failed"] * 2 + [f"{lost} in pruning", "", "solver failed", ""],
        }
        want["query"] = want["stream"]
        for model, errors in want.items():
            rows = self.sweep(model, "plain", 6, 3, 1.0).rows
            assert [r.error for r in rows] == errors
            assert [r.success for r in rows] == [not e for e in errors]

    def test_offline_empty_rows_count_the_conflict_edges(self):
        # a seed whose pruning empties a palette still reports m' of its
        # conflict graph
        g = gen_bipartite(60, 6, 1)
        params = manual_params(6, 0.1, 1.0, q=6, s=3)
        fam = prune(g, sample_palettes(SharedPalette(g.n, 6), 3, 2), params)
        assert (fam.pruned.lens == 0).any()
        m_prime = build_conflict(g, fam).graph.m
        (row,) = self.sweep("offline", "plain", 6, 3, 1.0, seeds=[2]).rows
        assert row.error == "a vertex lost every sampled color"
        assert row.conflict_edges == m_prime == 68
