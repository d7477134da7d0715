"""File formats, corpus ingestion, and the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ASSETS, butterfly_pattern
from dpcolor import cli
from dpcolor import reduce as rd
from dpcolor.cover import CoverInstance, is_independent
from dpcolor.graphs import Graph, PlaneGraph
from dpcolor.io import (
    CorpusStats, FormatError, cover_to_dict, graph_from_dict, graph_to_dict,
    ingest_corpus, parse_cover_file, parse_config_file, parse_graph_file,
    parse_planar_code_line, sigma_from_dict, write_cover_file,
)

K5_LINE = "5 bcde,acde,abde,abce,abcd"


class TestGraphFiles:
    def test_round_trip_plane(self, tmp_path):
        src = parse_graph_file(ASSETS / "cluster_05.json")
        out = tmp_path / "g.json"
        out.write_text(json.dumps(graph_to_dict(src)))
        again = parse_graph_file(out)
        assert graph_to_dict(again) == graph_to_dict(src)

    def test_asset_round_trip_field_identical(self, tmp_path):
        for name in ("cluster_03.json", "butterfly.json", "c7.json"):
            data = json.loads((ASSETS / name).read_text())
            g = graph_from_dict(data)
            redone = {**graph_to_dict(g),
                      **{k: data[k] for k in ("name", "code", "labels")}}
            assert redone == data

    def test_loop_edge_rejected(self):
        with pytest.raises(FormatError) as exc:
            graph_from_dict({"n": 2, "edges": [[1, 1]]})
        assert "loop" in str(exc.value)

    def test_missing_rotation_vertex(self):
        with pytest.raises(FormatError):
            graph_from_dict(
                {"n": 2, "edges": [[0, 1]], "rotation": {"0": [1]}})

    def test_graph_without_rotation(self):
        g = graph_from_dict({"n": 2, "edges": [[0, 1]]})
        assert isinstance(g, Graph) and not isinstance(g, PlaneGraph)


class TestCoverFiles:
    def test_round_trip(self, tmp_path):
        inst = parse_cover_file(ASSETS / "ce6.json")
        out = tmp_path / "w.json"
        write_cover_file(out, inst)
        again = parse_cover_file(out)
        assert cover_to_dict(again) == cover_to_dict(inst)

    def test_sigma_key_ordering_enforced(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(FormatError):
            sigma_from_dict({"k": 2, "sigma": {"1-0": [1, 2]}}, g)

    def test_sigma_must_cover_edges(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(FormatError):
            sigma_from_dict({"k": 2, "sigma": {}}, g)


class TestPlanarCode:
    def test_triangle_line(self):
        pg = parse_planar_code_line("3 bc,ca,ab")
        assert pg.graph.m == 3 and len(pg.faces) == 2

    def test_malformed_line(self):
        with pytest.raises(FormatError):
            parse_planar_code_line("3 bc,ca")


class TestConfigFiles:
    def test_parse(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "label": "tip", "n": 2, "edges": [[0, 1]],
            "names": {"u": 0, "v": 1}, "floors": [2, 1],
            "strategy": "product",
        }))
        cfg = parse_config_file(path)
        assert cfg.label == "tip" and cfg.floors == (2, 1)

    def test_missing_strategy(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 1, "edges": [], "floors": [1]}))
        with pytest.raises(FormatError):
            parse_config_file(path)


class TestCorpus:
    def _write_corpus(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        from dpcolor.generate import generate_corpus
        for i, pg in enumerate(generate_corpus(6, seed=5, min_n=6, max_n=10)):
            (d / f"g{i}.json").write_text(json.dumps(graph_to_dict(pg)))
        (d / "butterfly_host.json").write_text(
            json.dumps(graph_to_dict(butterfly_pattern().plane)))
        (d / "broken.json").write_text("{not json")
        return d

    def test_filters_and_counts(self, tmp_path):
        d = self._write_corpus(tmp_path)
        stats = CorpusStats()
        out = list(ingest_corpus(
            d, ("no-butterfly", "no-7-cycles"), stats, warn=lambda m: None))
        assert stats.read == 7
        assert stats.skipped == 1
        assert stats.rejected.get("no-butterfly", 0) == 1
        assert len(out) == 6

    def test_empty_directory(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        stats = CorpusStats()
        assert list(ingest_corpus(d, (), stats)) == []
        assert stats.read == 0 and stats.rejected == {}

    def test_multi_record_file(self, tmp_path):
        path = tmp_path / "many.txt"
        path.write_text(
            "3 bc,ca,ab\n"
            + json.dumps({"n": 2, "edges": [[0, 1]]}) + "\n")
        out = list(ingest_corpus(path))
        assert len(out) == 2

    def test_each_reader_error_is_skipped_with_a_warning(self, tmp_path):
        path = tmp_path / "many.txt"
        path.write_text("\n".join([
            "3 bc,ca,ab",
            "3 bc,ca",  # three vertices, two rotation groups
            "",
            json.dumps({"n": 2, "edges": [[1, 1]]}),  # a loop
            "3 bc,ca,a",  # vertex c's rotation misses b
            '{"n": 3, "edges": [[0, 1]',  # truncated JSON
            json.dumps({"n": 2, "edges": [[0, 1]]}),
            "x bc,ca,ab",  # a count that is not an integer
            K5_LINE,  # no rotation system of K5 is plane
            "2 ,",  # no edge, so no face
            "3 bc,ac,ab",  # read after the edgeless record
        ]) + "\n")
        stats, warnings = CorpusStats(), []
        assert len(list(ingest_corpus(path, (), stats,
                                      warn=warnings.append))) == 3
        assert (stats.read, stats.skipped) == (3, 7)
        prefix = "skipping unreadable corpus entry: "
        assert warnings == [prefix + m for m in (
            f"{path}:2: '3 bc,ca': expected 3 rotation groups, got 2",
            f"{path}:4: field 'edges': loop at vertex 1",
            f"{path}:5: rotation at vertex 2 does not list its neighbors "
            "exactly once",
            f"{path}:6: invalid JSON at column 26: Expecting ',' delimiter",
            f"{path}:8: bad vertex count in 'x bc,ca,ab'",
            f"{path}:9: rotation system is not a plane embedding: "
            "V - E + F = -2, not 2",
            f"{path}:10: a rotation system with no edge has no face",
        )]

    def test_directory_skip_warnings_name_the_entry(self, tmp_path):
        (tmp_path / "a.json").write_text(
            json.dumps({"n": 2, "edges": [[0, 1]]}))
        (tmp_path / "b.json").write_text('{"n": 2,')
        (tmp_path / "c.json").write_text(json.dumps({"n": 2, "edges": [[0]]}))
        (tmp_path / "d.json").mkdir()
        stats, warnings = CorpusStats(), []
        assert len(list(ingest_corpus(tmp_path, (), stats,
                                      warn=warnings.append))) == 1
        assert (stats.read, stats.skipped) == (1, 3)
        for name, warning in zip("bcd", warnings):
            assert str(tmp_path / f"{name}.json") in warning

    def test_graph_counted_under_its_first_failed_filter(self, tmp_path):
        # neither graph has a rotation, so both also fail has-good-triangle
        path = tmp_path / "two.txt"
        seven = {"n": 7, "edges": [[i, (i + 1) % 7] for i in range(7)]}
        path.write_text(json.dumps(seven) + "\n" + json.dumps(
            graph_to_dict(butterfly_pattern().graph)) + "\n")
        stats = CorpusStats()
        assert list(ingest_corpus(
            path, ("has-good-triangle", "no-butterfly", "no-7-cycles"),
            stats)) == []
        assert stats.rejected == {"no-7-cycles": 1, "no-butterfly": 1}

    def test_missing_corpus_path_exits_1(self, tmp_path, capsys):
        assert cli.main(["corpus", str(tmp_path / "missing.txt")]) == 1
        assert "missing.txt" in capsys.readouterr().err

    def test_unknown_filter_rejected(self, tmp_path):
        d = tmp_path / "empty2"
        d.mkdir()
        with pytest.raises(ValueError):
            list(ingest_corpus(d, ("no-squares",)))


class TestUsageErrors:
    """Flag values the run cannot honour end in exit code 2, naming the flag."""

    def usage_error(self, capsys, *argv) -> str:
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_k_bounds(self, capsys):
        err = self.usage_error(
            capsys, "solve", str(ASSETS / "cluster_01.json"), "--k", "9")
        assert "--k" in err

    def test_workers_positive(self, capsys):
        err = self.usage_error(
            capsys, "reduce-check", "--lemma", "L2", "--workers", "0")
        assert "--workers" in err

    def test_budget_not_negative(self, capsys):
        err = self.usage_error(
            capsys, "reduce-check", "--lemma", "CE-7", "--budget", "-1")
        assert "--budget" in err
        with pytest.raises(ValueError, match="budget"):
            rd.check_reducible(rd.config_catalog()["L4-diamond"], budget=-5)

    @pytest.mark.parametrize("flag", [["--mode", "sampled"], ["--seed", "1"],
                                      ["--count", "5"]])
    def test_sampled_mode_flags_are_gone(self, capsys, flag):
        # full enumeration is the one way to decide a configuration, and
        # --budget the one way to bound it
        err = self.usage_error(
            capsys, "reduce-check", "--lemma", "L4-diamond", *flag)
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_limit_positive(self, capsys):
        for limit in ("0", "-1"):
            err = self.usage_error(
                capsys, "corpus", str(ASSETS), "--limit", limit)
            assert "--limit" in err

    @pytest.mark.parametrize("flag", ["--no-solve", "--no-audit"])
    def test_corpus_skip_flags_are_gone(self, capsys, flag):
        # every corpus row is solved, and every plane one audited
        err = self.usage_error(capsys, "corpus", str(ASSETS), flag)
        assert f"unrecognized arguments: {flag}" in err

    def test_explain_needs_an_element(self, capsys):
        err = self.usage_error(
            capsys, "discharge", "explain", str(ASSETS / "cluster_01.json"))
        assert "--element" in err

    def test_audit_takes_no_element(self, capsys):
        # audit reports every account; an --element would be ignored
        err = self.usage_error(
            capsys, "discharge", "audit", str(ASSETS / "cluster_01.json"),
            "--element", "v1")
        assert "--element" in err


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_solve_reports_found(self, capsys):
        code, out = run_cli(
            capsys, "solve", str(ASSETS / "cluster_01.json"), "--k", "4")
        assert code == 0
        assert json.loads(out)["verdict"] == "FOUND"

    def test_solve_straight_triangle_k2_none(self, capsys, tmp_path):
        path = tmp_path / "c3.json"
        path.write_text(json.dumps(
            {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        code, out = run_cli(capsys, "solve", str(path), "--k", "2")
        assert code == 0
        assert json.loads(out)["verdict"] == "NONE"

    def test_solve_with_a_matching_file(self, capsys, tmp_path):
        # the straight triangle has no 2-transversal; one swapped edge
        # gives it one
        graph = tmp_path / "c3.json"
        graph.write_text(json.dumps(
            {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        sigma = {(0, 1): (1, 2), (1, 2): (1, 2), (0, 2): (2, 1)}
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps(
            {"k": 2, "sigma": {f"{u}-{v}": s for (u, v), s in sigma.items()}}))
        code, out = run_cli(capsys, "solve", str(graph), "--matching",
                            str(matching))
        rep = json.loads(out)
        assert code == 0 and rep["verdict"] == "FOUND" and rep["k"] == 2
        inst = CoverInstance(Graph.from_edges(3, list(sigma)), 2,
                             (frozenset({1, 2}),) * 3, sigma)
        assignment = {int(v): c for v, c in rep["assignment"].items()}
        assert len(assignment) == 3 and is_independent(inst, assignment)

    def test_solve_rejects_a_matching_for_a_cover_file(self, capsys,
                                                        tmp_path):
        # the cover file's own sigma (k = 4) would otherwise win silently
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps({"k": 3, "sigma": {}}))
        cover = str(ASSETS / "ce6.json")
        code = cli.main(["solve", cover, "--matching", str(matching),
                         "--k", "3"])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err.startswith("error: ")
        assert cover in err and str(matching) in err

    @pytest.mark.parametrize("matching", [False, True])
    def test_solve_rejects_a_k_that_differs_from_the_file(self, capsys,
                                                           tmp_path, matching):
        # the cover file (k = 4) or the matching file (k = 2) sets k; an
        # explicit --k that disagrees would otherwise be ignored
        if matching:
            source = tmp_path / "m.json"
            source.write_text(json.dumps({"k": 2, "sigma": {
                "0-1": [1, 2], "1-2": [1, 2], "0-2": [1, 2]}}))
            argv = [str(ASSETS / "cluster_01.json"), "--matching",
                    str(source)]
            k = 2
        else:
            source, argv, k = ASSETS / "ce6.json", [str(ASSETS / "ce6.json")], 4
        code = cli.main(["solve", *argv, "--k", "3"])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err.startswith("error: ")
        assert "--k 3" in err and f"k = {k}" in err and str(source) in err
        code, out = run_cli(capsys, "solve", *argv, "--k", str(k))
        assert code == 0 and json.loads(out)["k"] == k

    def test_detect_cluster_10(self, capsys):
        code, out = run_cli(capsys, "detect", str(ASSETS / "cluster_10.json"))
        assert code == 0
        rep = json.loads(out)
        assert rep["clusters"][0]["code"] == 10
        assert rep["seven_cycle"] is None

    def test_detect_with_assets_dir(self, capsys):
        code, out = run_cli(
            capsys, "detect", str(ASSETS / "butterfly.json"),
            "--assets", str(ASSETS))
        rep = json.loads(out)
        assert rep["asset_patterns"]["butterfly"] is not None
        assert rep["asset_patterns"]["cluster-11"] is None

    def test_reduce_check_lemma(self, capsys):
        code, out = run_cli(capsys, "reduce-check", "--lemma", "L4-diamond")
        rep = json.loads(out)
        assert code == 0 and rep["status"] == "REDUCIBLE"
        assert rep["enumerated"] == 7776

    def test_reduce_check_counterexample_exit_zero(self, capsys):
        code, out = run_cli(capsys, "reduce-check", "--lemma", "CE-6")
        rep = json.loads(out)
        assert code == 0 and rep["status"] == "NOT_REDUCIBLE"
        assert "witness" in rep

    def test_reduce_check_unknown_label(self, capsys):
        code = cli.main(["reduce-check", "--lemma", "nope"])
        assert code == 1

    def test_witness_verify(self, capsys):
        code, out = run_cli(
            capsys, "witness-verify", str(ASSETS / "ce7.json"))
        rep = json.loads(out)
        assert code == 0 and rep["status"] == "CONFIRMED"
        assert rep["candidates_log2"] == 9.585  # 768 = 2^9 * 3/2

    def test_witness_verify_with_ten_thousand_full_lists(self, capsys,
                                                          tmp_path):
        # CE-6 with 9,994 isolated vertices of full lists added: 4^9994
        # times 512 complete assignments, a count of more digits than the
        # JSON writer takes, reported as its base-2 logarithm
        data = json.loads((ASSETS / "ce6.json").read_text())
        data["n"] = 10000
        path = tmp_path / "ce6-big.json"
        path.write_text(json.dumps(data))
        code = cli.main(["witness-verify", str(path)])
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert code == 0 and rep["status"] == "CONFIRMED"
        assert rep["candidates_log2"] == 9 + 2 * 9994
        assert err == ""

    def test_a_report_that_cannot_be_written_ends_in_an_error(
            self, capsys, monkeypatch):
        # the JSON writer refuses an int of more than 4,300 digits; the
        # run ends in exit 1 and writes no partial report
        monkeypatch.setitem(cli.VERBS, "witness-verify",
                            lambda args: {"candidates": 4 ** 10000})
        code = cli.main(["witness-verify", str(ASSETS / "ce7.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_discharge_audit(self, capsys, tmp_path):
        from dpcolor.generate import random_plane_graph
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_dict(random_plane_graph(1, 9))))
        code, out = run_cli(
            capsys, "discharge", "audit", str(path), "--force-rules")
        rep = json.loads(out)
        assert code == 0
        assert rep["verdict"] == "forced-run-arithmetic-ok"
        assert "accounts" in rep and "outer_identity" in rep

    def test_discharge_explain(self, capsys, tmp_path):
        from dpcolor.generate import random_plane_graph
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_dict(random_plane_graph(1, 9))))
        code, out = run_cli(
            capsys, "discharge", "explain", str(path), "--element", "OUTER")
        rep = json.loads(out)
        assert code == 0 and rep["element"] == "OUTER"
        assert rep["transfers"]

    def test_discharge_audit_text_nests_the_checks(self, capsys):
        code, out = run_cli(capsys, "discharge", "audit",
                            str(ASSETS / "cluster_01.json"), "--format",
                            "text")
        lines = out.splitlines()
        assert code == 0 and "{" not in out
        at = lines.index("class_checks:")
        assert lines[at + 1:at + 3] == ["  no-7-cycle:", "    ok: True"]

    def test_corpus_limit(self, capsys):
        code, out = run_cli(capsys, "corpus", str(ASSETS), "--limit", "2")
        rep = json.loads(out)
        assert code == 0 and rep["passed"] == 2 and len(rep["graphs"]) == 2
        assert all(row["solve"] == "FOUND" and "audit" in row
                   for row in rep["graphs"])

    def test_corpus_verb(self, capsys, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        from dpcolor.generate import generate_corpus
        for i, pg in enumerate(generate_corpus(3, seed=9, min_n=6, max_n=9)):
            (d / f"g{i}.json").write_text(json.dumps(graph_to_dict(pg)))
        code, out = run_cli(capsys, "corpus", str(d), "--filter",
                            "no-7-cycles")
        rep = json.loads(out)
        assert code == 0 and rep["read"] == 3

    def test_reports_deterministic(self, capsys):
        _, a = run_cli(capsys, "detect", str(ASSETS / "cluster_07.json"))
        _, b = run_cli(capsys, "detect", str(ASSETS / "cluster_07.json"))
        assert a == b

    @pytest.mark.parametrize("label",
                             ["L4-diamond", "L5-special5", "L6-precolor"])
    def test_workers_flag_runs_in_one_process(self, capsys, label):
        # --workers still parses, has no effect and says so once on stderr;
        # --workers 1 writes nothing there
        assert cli.main(["reduce-check", "--lemma", label,
                         "--workers", "1"]) == 0
        solo, err = capsys.readouterr()
        assert err == ""
        assert cli.main(["reduce-check", "--lemma", label,
                         "--workers", "2"]) == 0
        multi = capsys.readouterr()
        ra, rb = json.loads(solo), json.loads(multi.out)
        ra.pop("seconds")
        rb.pop("seconds")
        assert ra == rb and "workers" not in rb and "pruned" not in rb
        assert len(multi.err.splitlines()) == 1
        assert "one process" in multi.err

    def test_workers_flag_keeps_the_budget(self, capsys):
        _, out = run_cli(capsys, "reduce-check", "--lemma", "L7-555",
                         "--budget", "1001", "--workers", "2")
        rep = json.loads(out)
        assert rep["status"] == "INCONCLUSIVE"
        assert rep["enumerated"] == 1001

    def test_text_format(self, capsys):
        code, out = run_cli(
            capsys, "detect", str(ASSETS / "cluster_01.json"),
            "--format", "text")
        assert code == 0 and "clusters" in out and "{" not in out

    def test_unreadable_input_is_operational_error(self, capsys):
        code = cli.main(["solve", "/does/not/exist.json"])
        assert code == 1


class TestInputErrors:
    """Bad precolorings and configurations end in exit code 1 with the bad
    part named, not in a traceback."""

    @pytest.mark.parametrize("precolor,named", [
        ("9=1", "vertex 9"),  # no such vertex
        ("0=9", "precolor 9 of vertex 0"),  # color not in the list
        ("0", "'0'"),  # no color
        ("0=a", "'0=a'"),  # color not an integer
        ("0=1,0=2", "vertex 0 is precolored twice"),
    ])
    def test_solve_bad_precolor(self, capsys, precolor, named):
        code = cli.main(["solve", str(ASSETS / "cluster_01.json"), "--k", "4",
                         "--precolor", precolor])
        err = capsys.readouterr().err
        assert code == 1 and named in err and "Traceback" not in err

    PATH_CONFIG = {"label": "path", "n": 3, "edges": [[0, 1], [1, 2]],
                   "floors": [2, 2, 2], "strategy": "product"}

    @pytest.mark.parametrize("change,named", [
        ({"floors": [2, 2]}, "floors"),
        ({"floors": [2, 5, 2]}, "floors[1]"),
        # a vertex with no residual color: product, edge and margin leaf
        ({"n": 2, "edges": [], "floors": [0, 0]},
         "floors[0] = 0 is not in 1..4"),
        ({"n": 2, "edges": [[0, 1]], "floors": [0, 2]},
         "floors[0] = 0 is not in 1..4"),
        ({"floors": [2, 0, 2], "strategy": "margin", "margin_vertex": 0},
         "floors[1] = 0 is not in 1..4"),
        ({"pivot": "0"}, "pivot"),
        ({"cut": 3}, "cut"),
        ({"margin_vertex": -1}, "margin_vertex"),
        ({"names": {"u": 7}}, "names['u']"),
        ({"tree": [[0, 2]]}, "tree: (0, 2) is not a graph edge"),
        ({"edges": [[0, 1], [1, 2], [0, 2]],
          "tree": [[0, 1], [1, 2], [0, 2]]}, "tree: the edges contain a cycle"),
        ({"tree": [[0, 1], [1, 0]]}, "tree: the edges contain a cycle"),
        ({"strategy": "greedy"}, "strategy"),
        # each strategy's roles, checked before any instance is enumerated
        ({"strategy": "margin"}, "margin strategy needs a margin vertex"),
        ({"strategy": "condition", "cut": 1, "tree": [[0, 1]]},
         "condition strategy needs a cut vertex and no straightened forest"),
        ({"n": 4, "edges": [[0, 1], [0, 2], [0, 3]], "floors": [2, 2, 2, 2],
          "strategy": "condition", "cut": 0},
         "condition strategy needs exactly two sides, got 3"),
        ({"strategy": "eliminate"}, "eliminate strategy needs a pivot"),
        ({"strategy": "eliminate", "pivot": 1},
         "eliminate strategy needs a full-floor pivot"),
        ({"n": 4, "edges": [[0, 3], [1, 3], [2, 3]], "floors": [2, 2, 2, 4],
          "strategy": "eliminate", "pivot": 3},
         "eliminate strategy needs a degree-4 pivot"),
        ({"n": 5, "edges": [[0, 4], [1, 4], [2, 4], [3, 4]],
          "floors": [2, 2, 2, 2, 4], "tree": [[0, 4]],
          "strategy": "eliminate", "pivot": 4},
         "straightened forest must avoid the pivot"),
    ])
    def test_reduce_check_bad_config(self, capsys, tmp_path, change, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.PATH_CONFIG, **change}))
        code = cli.main(["reduce-check", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1 and named in err and "Traceback" not in err

    EDGE = {"n": 2, "edges": [[0, 1]]}
    EDGELESS = {"n": 1, "edges": [], "rotation": {"0": []}}
    COVER = {**EDGE, "k": 2, "sigma": {"0-1": [2, 1]}}

    @pytest.mark.parametrize("argv,data,named", [
        # graph files
        (["solve", "{}", "--k", "4"], {**EDGE, "n": 2.0}, "field n: 2.0"),
        (["solve", "{}", "--k", "4"], {**EDGE, "edges": [[0, True]]},
         "field edges[0]: True"),
        (["solve", "{}", "--k", "4"],
         {**EDGE, "rotation": {"0": [1], "1": [0.5]}},
         "field rotation['1']: 0.5"),
        # cover files
        (["solve", "{}"], {**COVER, "k": True}, "field k: True"),
        (["solve", "{}"], {**COVER, "sigma": {"0-1": [2, 1.0]}},
         "field sigma['0-1']: 1.0"),
        (["solve", "{}"], {**COVER, "available": {"1": ["1.5"]}},
         "field available['1']: '1.5'"),
        # configuration files
        (["reduce-check", "--config", "{}"],
         {**PATH_CONFIG, "floors": [2.7, 2, 2]}, "field floors[0]: 2.7"),
        (["reduce-check", "--config", "{}"],
         {**PATH_CONFIG, "names": {"u": 1.0}}, "field names['u']: 1.0"),
        (["reduce-check", "--config", "{}"],
         {**PATH_CONFIG, "tree": [[0, "one"]]}, "field tree[0]: 'one'"),
    ])
    def test_non_integer_values_are_rejected(self, capsys, tmp_path, argv,
                                             data, named):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code = cli.main([a.format(path) for a in argv])
        err = capsys.readouterr().err
        assert code == 1 and named in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,data,named", [
        # graph files
        (["solve", "{}", "--k", "4"], {"n": 2, "edges": [[0]]},
         "field edges[0]: [0] is not a pair"),
        (["solve", "{}", "--k", "4"], {"n": 2, "edges": [[0, 1, 1]]},
         "field edges[0]: [0, 1, 1] is not a pair"),
        (["solve", "{}", "--k", "4"], {**EDGE, "rotation": [[1], [0]]},
         "field rotation: [[1], [0]] is not an object"),
        # cover files
        (["solve", "{}"], {**COVER, "sigma": [[2, 1]]},
         "field sigma: [[2, 1]] is not an object"),
        (["solve", "{}"], {**COVER, "sigma": {"0-1": 5}},
         "field sigma['0-1']: 5 is not an array"),
        (["solve", "{}"], {**COVER, "available": [[1], [2]]},
         "field available: [[1], [2]] is not an object"),
    ])
    def test_malformed_shapes_are_rejected(self, capsys, tmp_path, argv,
                                           data, named):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code = cli.main([a.format(path) for a in argv])
        err = capsys.readouterr().err
        assert code == 1 and named in err and "Traceback" not in err

    MALFORMED = [
        # a matching file that is not an object
        (["solve", str(ASSETS / "cluster_01.json"), "--matching", "{}"], [],
         "field (top level): [] is not an object"),
        (["reduce-check", "--config", "{}"], {**PATH_CONFIG, "names": []},
         "field names: [] is not an object"),
        (["detect", "{}"], {"n": -2, "edges": []}, "field n: -2 is negative"),
        (["reduce-check", "--config", "{}"], {**PATH_CONFIG, "floors": 2},
         "field floors: 2 is not an array"),
        (["reduce-check", "--config", "{}"], {**PATH_CONFIG, "tree": 0},
         "field tree: 0 is not an array"),
        # k outside [2, 8], and a sigma entry that does not list k images
        (["solve", str(ASSETS / "cluster_01.json"), "--matching", "{}"],
         {"k": 9, "sigma": {}}, "field k: 9 is not in [2, 8]"),
        (["solve", "{}"], {**COVER, "k": 1}, "field k: 1 is not in [2, 8]"),
        (["solve", "{}"], {**COVER, "sigma": {"0-1": [2, 1, 3]}},
         "field sigma['0-1']: lists 3 images, not k = 2"),
        # an account that the ledger does not hold
        (["discharge", "explain", str(ASSETS / "cluster_01.json"),
          "--element", "v99"], {}, "no ledger account 'v99'"),
        (["detect", "{}"], {"n": 2}, "missing or malformed field: 'edges'"),
        (["detect", "{}"], {"n": 2, "edges": [[0, 5]]},
         "field 'edges': edge (0,5) out of range for n=2"),
        (["solve", str(ASSETS / "cluster_01.json"), "--matching", "{}"],
         {"sigma": {}}, "missing field 'k'"),
        (["solve", str(ASSETS / "cluster_01.json"), "--matching", "{}"],
         {"k": 2, "sigma": {"0_1": [2, 1]}}, "sigma key '0_1' is not 'u-v'"),
        (["solve", "{}"], {**COVER, "n": 3, "sigma": {"0-1": [2, 1],
                                                      "0-2": [1, 2]}},
         "input.json: field sigma['0-2']: (0, 2) is not an edge"),
        (["solve", "{}"], {**COVER, "available": {"0": [9]}},
         "field available['0']: [9] is not a subset of 1..2"),
        (["discharge", "audit", "{}"], EDGE,
         "discharging needs a rotation system"),
        # K5 has no plane rotation system
        (["detect", "{}"],
         {"n": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)],
          "rotation": {str(v): [w for w in range(5) if w != v]
                       for v in range(5)}},
         "field 'rotation': rotation system is not a plane embedding"),
        # a rotation system with no edge has no face to be the outer one
        (["detect", "{}"], EDGELESS,
         "field 'rotation': a rotation system with no edge has no face"),
        (["discharge", "audit", "{}"], EDGELESS,
         "field 'rotation': a rotation system with no edge has no face"),
    ]

    @pytest.mark.parametrize("argv,data,named", MALFORMED,
                             ids=["matching", "names", "negative-n", "floors",
                                  "tree", "matching-k9", "cover-k1",
                                  "sigma-length", "explain-element",
                                  "no-edges", "edge-range", "matching-no-k",
                                  "sigma-key", "sigma-non-edge",
                                  "available-range",
                                  "audit-no-rotation", "detect-k5",
                                  "detect-edgeless", "audit-edgeless"])
    def test_malformed_inputs_end_without_a_traceback(self, capsys, tmp_path,
                                                      argv, data, named):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code = cli.main([a.format(path) for a in argv])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ")
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["detect", "{}"],
        ["solve", "{}", "--k", "4"],
        ["solve", "{}"],
        ["witness-verify", "{}"],
        ["reduce-check", "--config", "{}"],
        ["discharge", "audit", "{}"],
    ], ids=["detect", "solve-graph", "solve-cover", "witness-verify",
            "reduce-check-config", "discharge-audit"])
    @pytest.mark.parametrize("data", [[], "abc"], ids=["array", "string"])
    def test_top_level_that_is_not_an_object(self, capsys, tmp_path, argv,
                                              data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code = cli.main([a.format(path) for a in argv])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ")
        assert f"field (top level): {data!r} is not an object" in err
        assert "Traceback" not in err

    def test_corpus_skips_a_top_level_array(self, capsys, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("3 bc,ca,ab\n[]\n")
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "a.json").write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        (d / "b.json").write_text("[]")
        for corpus in (path, d):
            code = cli.main(["corpus", str(corpus)])
            out, err = capsys.readouterr()
            rep = json.loads(out)
            assert code == 0 and (rep["read"], rep["skipped"]) == (1, 1)
            assert "Traceback" not in err

    def test_corpus_skips_a_nonplanar_rotation(self, capsys, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(K5_LINE + "\n")
        code = cli.main(["corpus", str(path)])
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert code == 0 and (rep["skipped"], rep["passed"]) == (1, 0)
        assert f"{path}:1: rotation system is not a plane embedding" in err
        assert "Traceback" not in err

    def test_corpus_skips_a_negative_vertex_count(self, capsys, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("3 bc,ca,ab\n" + json.dumps({"n": -2, "edges": []})
                        + "\n")
        code = cli.main(["corpus", str(path)])
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert code == 0 and (rep["read"], rep["skipped"]) == (1, 1)
        assert f"{path}:2: field n: -2 is negative" in err
        assert "Traceback" not in err

    TRIANGLE = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]],
                "rotation": {"0": [1, 2], "1": [2, 0], "2": [0, 1]}}
    BAD_OUTER_FACES = [
        (5, "field outer_face: 5 is not an array"),
        ([0, 1, "x"], "field outer_face[2]: 'x'"),
        ([0, 1, 9], "field 'outer_face': no face has boundary walk (0, 1, 9)"),
        ([], "field 'outer_face': no face has boundary walk ()"),
    ]

    @pytest.mark.parametrize("outer,named", BAD_OUTER_FACES)
    def test_detect_rejects_a_malformed_outer_face(self, capsys, tmp_path,
                                                   outer, named):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({**self.TRIANGLE, "outer_face": outer}))
        code = cli.main(["detect", str(path)])
        err = capsys.readouterr().err
        assert code == 1 and named in err and "Traceback" not in err

    def test_corpus_skips_records_with_a_malformed_outer_face(self, capsys,
                                                              tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(
            [json.dumps({**self.TRIANGLE, "outer_face": [0, 1, 2]})]
            + [json.dumps({**self.TRIANGLE, "outer_face": outer})
               for outer, _ in self.BAD_OUTER_FACES]) + "\n")
        code = cli.main(["corpus", str(path)])
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert code == 0 and (rep["read"], rep["skipped"]) == (1, 4)
        for line, (_, named) in enumerate(self.BAD_OUTER_FACES, start=2):
            assert f"{path}:{line}: {named}" in err
        assert "Traceback" not in err

    def test_integer_strings_are_read_as_integers(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.PATH_CONFIG, "n": "3",
                                    "floors": ["2", 2, 2]}))
        code, out = run_cli(capsys, "reduce-check", "--config", str(path))
        assert code == 0 and json.loads(out)["status"] == "REDUCIBLE"

    def test_reduce_check_path_config_is_fine(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.PATH_CONFIG, "tree": [[0, 1]]}))
        code, out = run_cli(capsys, "reduce-check", "--config", str(path))
        assert code == 0 and json.loads(out)["status"] == "REDUCIBLE"

    @pytest.mark.parametrize("change,named", [
        ({"labels": []}, "field labels: [] is not an object"),
        ({"labels": {"u": 1.5}}, "field labels['u']: 1.5 is not an integer"),
        ({"code": "two"}, "field code: 'two' is not an integer"),
        ({"rotation": None}, "pattern asset must carry a rotation system"),
    ])
    def test_detect_bad_asset_names_its_file(self, capsys, tmp_path, change,
                                             named):
        asset = json.loads((ASSETS / "butterfly.json").read_text())
        (tmp_path / "bad.json").write_text(json.dumps({**asset, **change}))
        code = cli.main(["detect", str(ASSETS / "butterfly.json"),
                         "--assets", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.startswith(f"error: {tmp_path / 'bad.json'}: {named}")

    def test_detect_missing_assets_dir(self, capsys, tmp_path):
        code = cli.main(["detect", str(ASSETS / "butterfly.json"),
                         "--assets", str(tmp_path / "nowhere")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert str(tmp_path / "nowhere") in err and "Traceback" not in err


# Loads the CLI in a fresh interpreter, runs one verb with its report
# discarded, and prints the exit code and whether numpy was imported.
NUMPY_PROBE = """
import contextlib, io, sys
from dpcolor import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


class TestNumpyLoadsOnlyForChecks:
    @pytest.mark.parametrize("argv,loads", [
        (["solve", str(ASSETS / "cluster_01.json")], False),
        (["detect", str(ASSETS / "butterfly.json")], False),
        (["witness-verify", str(ASSETS / "ce7.json")], False),
        (["discharge", "audit", str(ASSETS / "cluster_01.json")], False),
        (["discharge", "explain", str(ASSETS / "cluster_01.json"),
          "--element", "OUTER"], False),
        (["corpus", str(ASSETS), "--limit", "2"], False),
        (["reduce-check", "--lemma", "L2"], True),
    ], ids=["solve", "detect", "witness-verify", "discharge-audit",
            "discharge-explain", "corpus", "reduce-check"])
    def test_fresh_process(self, argv, loads):
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, *argv], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.split() == ["0", str(loads)]
