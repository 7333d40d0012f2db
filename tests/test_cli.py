import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from netrank import experiments
from netrank.cli import main

import golden


def write_dense(path, adj):
    rows = "\n".join(",".join(f"{v:g}" for v in row) for row in adj.entries)
    path.write_text(rows + "\n")
    return str(path)


@pytest.fixture
def four_node_file(tmp_path):
    return write_dense(tmp_path / "four.csv", golden.FOUR_NODE)


@pytest.fixture
def six_node_file(tmp_path):
    return write_dense(tmp_path / "six.csv", golden.EX1)


def parse_scores(stdout):
    rows = list(csv.DictReader(io.StringIO(stdout)))
    return [r["label"] for r in rows], np.array([float(r["score"]) for r in rows])


class TestPagerankCommand:
    def test_four_node_alpha_085(self, four_node_file, capsys):
        assert main(["pagerank", four_node_file, "--alpha", "0.85"]) == 0
        labels, scores = parse_scores(capsys.readouterr().out)
        assert labels == ["1", "2", "3", "4"]
        np.testing.assert_allclose(scores, golden.FOUR_NODE_PAGERANK[0.85], atol=1e-6)

    def test_example_c_alpha_one_exits_two(self, tmp_path, capsys):
        path = write_dense(tmp_path / "c.csv", golden.EX_C)
        assert main(["pagerank", path, "--alpha", "1", "--method", "exact"]) == 2
        err = capsys.readouterr().err
        assert "multiplicity of the eigenvalue 1 is not one" in err

    def test_k2_half(self, tmp_path, capsys):
        path = write_dense(tmp_path / "k2.csv", golden.K2)
        assert main(["pagerank", path, "--alpha", "0.5"]) == 0
        _, scores = parse_scores(capsys.readouterr().out)
        np.testing.assert_allclose(scores, [0.5, 0.5], atol=1e-9)

    def test_power_method_flag(self, four_node_file, capsys):
        assert main([
            "pagerank", four_node_file, "--alpha", "0.85",
            "--method", "power", "--tol", "1e-12",
        ]) == 0
        _, scores = parse_scores(capsys.readouterr().out)
        np.testing.assert_allclose(scores, golden.FOUR_NODE_PAGERANK[0.85], atol=1e-6)

    def test_json_output(self, four_node_file, capsys):
        assert main(["pagerank", four_node_file, "--out", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["label"] for r in records] == ["1", "2", "3", "4"]
        assert records[1]["rank"] == 4.0

    def test_missing_file_exits_one(self, capsys):
        assert main(["pagerank", "/nonexistent/net.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_matrix_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0,-1\n1,0\n")
        assert main(["pagerank", str(path)]) == 1

    def test_output_file(self, four_node_file, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        assert main(["pagerank", four_node_file, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        labels, _ = parse_scores(out.read_text())
        assert labels == ["1", "2", "3", "4"]

    def test_exact_output_bytes(self, tmp_path, capsys):
        path = write_dense(tmp_path / "k2.csv", golden.K2)
        assert main(["pagerank", path, "--alpha", "0.5"]) == 0
        assert capsys.readouterr().out == "label,score,rank\n1,0.5,1.5\n2,0.5,1.5\n"
        assert main(["pagerank", path, "--alpha", "0.5", "--out", "json"]) == 0
        assert capsys.readouterr().out == (
            '[\n  {\n    "label": "1",\n    "score": 0.5,\n    "rank": 1.5\n  },\n'
            '  {\n    "label": "2",\n    "score": 0.5,\n    "rank": 1.5\n  }\n]\n'
        )

    def test_byte_order_mark_not_in_header_label(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffa,b\n0,1\n1,0\n", encoding="utf-8")
        assert main(["pagerank", str(path), "--alpha", "0.5"]) == 0
        assert capsys.readouterr().out == "label,score,rank\na,0.5,1.5\nb,0.5,1.5\n"

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("a,a\n0,1\n1,0\n", "header repeats label 'a'"),
            ("a,b,c\n0,1\n1,0\n", "header has 3 labels for 2 columns"),
        ],
    )
    def test_bad_header_names_file_and_line(self, tmp_path, capsys, text, problem):
        path = tmp_path / "h.csv"
        path.write_text(text)
        assert main(["pagerank", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}, line 1: {problem}\n"

    @pytest.mark.parametrize(
        "command",
        [["pagerank"], ["markovrank"], ["pagerank", "--method", "power"], ["sweep"]],
    )
    def test_overflowing_weights_exit_one_without_warning(self, tmp_path, capsys, command):
        # a numpy RuntimeWarning would fail this test (pytest filterwarnings)
        path = tmp_path / "big.csv"
        path.write_text("a,b\n1e308,1e308\n0,1\n")
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: adjacency weights overflow: their total exceeds the float64 range\n"
        )

    def test_deterministic_output(self, six_node_file, capsys):
        main(["pagerank", six_node_file])
        first = capsys.readouterr().out
        main(["pagerank", six_node_file])
        assert capsys.readouterr().out == first


class TestMarkovrankCommand:
    def test_six_node_epsilon_one(self, six_node_file, capsys):
        assert main(["markovrank", six_node_file, "--epsilon", "1"]) == 0
        _, scores = parse_scores(capsys.readouterr().out)
        np.testing.assert_allclose(scores, golden.EX1_MARKOVRANK[1.0], atol=1e-6)

    def test_epsilon_zero_equals_alpha_one(self, four_node_file, capsys):
        main(["markovrank", four_node_file, "--epsilon", "0"])
        markov_out = capsys.readouterr().out
        main(["pagerank", four_node_file, "--alpha", "1"])
        damped_out = capsys.readouterr().out
        assert markov_out == damped_out

    def test_example_b_unstable_epsilon_warns(self, tmp_path, capsys):
        path = write_dense(tmp_path / "b.csv", golden.EX_B)
        assert main(["markovrank", path, "--epsilon", "1e-15"]) == 0
        captured = capsys.readouterr()
        assert "WARN" in captured.err
        # healthy epsilon: no warning
        assert main(["markovrank", path, "--epsilon", "1"]) == 0
        assert "WARN" not in capsys.readouterr().err

    def test_example_c_epsilon_zero_exits_two(self, tmp_path, capsys):
        path = write_dense(tmp_path / "c.csv", golden.EX_C)
        assert main(["markovrank", path, "--epsilon", "0"]) == 2
        assert "multiplicity" in capsys.readouterr().err


class TestCompareCommand:
    def run_compare(self, tmp_path, capsys, a, b, labels=None):
        labels = labels or [str(i + 1) for i in range(len(a))]
        for name, vec in (("a.csv", a), ("b.csv", b)):
            with open(tmp_path / name, "w") as fh:
                fh.write("label,score,rank\n")
                for l, s in zip(labels, vec):
                    fh.write(f"{l},{s},0\n")
        code = main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
        out = capsys.readouterr().out
        return code, dict(line.split(": ") for line in out.strip().splitlines())

    def test_example_d_families_disagree(self, tmp_path, capsys):
        from netrank import markovrank, pagerank

        code, report = self.run_compare(
            tmp_path,
            capsys,
            pagerank(golden.EX_D, 0.85).values,
            markovrank(golden.EX_D, 1.0).values,
        )
        assert code == 0
        assert report["agreement_count"] == "4"
        assert report["identical"] == "false"

    def test_identical_files(self, tmp_path, capsys):
        v = [0.2, 0.3, 0.5]
        code, report = self.run_compare(tmp_path, capsys, v, v)
        assert code == 0
        assert report == {
            "agreement_count": "3",
            "identical": "true",
            "a_finer_b": "true",
            "b_finer_a": "true",
        }

    def test_tie_refinement_direction(self, tmp_path, capsys):
        _, report = self.run_compare(
            tmp_path, capsys, [0.3, 0.5, 0.2], [0.25, 0.5, 0.25]
        )
        assert report["a_finer_b"] == "true"
        assert report["b_finer_a"] == "false"

    def test_label_alignment_by_name(self, tmp_path, capsys):
        with open(tmp_path / "a.csv", "w") as fh:
            fh.write("label,score\nx,0.7\ny,0.3\n")
        with open(tmp_path / "b.csv", "w") as fh:
            fh.write("label,score\ny,0.3\nx,0.7\n")
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
        out = capsys.readouterr().out
        assert "identical: true" in out

    def test_mismatched_labels_exit_one(self, tmp_path, capsys):
        with open(tmp_path / "a.csv", "w") as fh:
            fh.write("label,score\nx,0.5\ny,0.5\n")
        with open(tmp_path / "b.csv", "w") as fh:
            fh.write("label,score\nx,0.5\nz,0.5\n")
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 1

    @pytest.mark.parametrize(
        "row, shown", [("b", "None"), ("b,", "''"), ("b,high", "'high'")]
    )
    def test_bad_score_exits_one(self, tmp_path, capsys, row, shown):
        good = tmp_path / "a.csv"
        good.write_text("label,score\na,0.5\nb,0.5\n")
        bad = tmp_path / "b.csv"
        bad.write_text(f"label,score\na,0.5\n{row}\n")
        assert main(["compare", str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}, line 3: missing or non-numeric score {shown}\n"

    def test_byte_order_mark_in_score_file(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("\ufefflabel,score\na,0.25\nb,0.75\n", encoding="utf-8")
        assert main(["compare", str(path), str(path)]) == 0
        assert "identical: true" in capsys.readouterr().out

    def test_repeated_label_names_both_lines(self, tmp_path, capsys):
        good = tmp_path / "a.csv"
        good.write_text("label,score\na,0.5\nb,0.5\n")
        dup = tmp_path / "d.csv"
        dup.write_text("label,score\na,0.5\nb,0.25\na,0.25\nc,x\n")
        assert main(["compare", str(good), str(dup)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {dup}, line 4: repeats label 'a' (first on line 2)\n"

    def test_row_without_label_exits_one(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("score,label\n0.5,a\n0.5\n")
        assert main(["compare", str(path), str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}, line 3: row has no label\n"


class TestGenCommand:
    def test_er_p_zero(self, tmp_path, capsys):
        out = tmp_path / "zero.csv"
        assert main(["gen", "--model", "er", "--n", "3", "--p", "0", "--out", str(out)]) == 0
        grid = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert all(v == "0" for row in grid for v in row)

    def test_er_p_one(self, tmp_path):
        out = tmp_path / "ones.csv"
        main(["gen", "--model", "er", "--n", "3", "--p", "1", "--out", str(out)])
        rows = [r.split(",") for r in out.read_text().strip().splitlines()]
        entries = np.array(rows, dtype=float)
        np.testing.assert_array_equal(entries, 1 - np.eye(3))

    def test_block_e2_zero_corner(self, tmp_path):
        out = tmp_path / "e2.csv"
        assert main([
            "gen", "--model", "block", "--seed", "0",
            "--blocks", "80x80@0.1,80x20@0;20x80@0.1,20x20@0.1",
            "--out", str(out),
        ]) == 0
        entries = np.loadtxt(out, delimiter=",")
        assert entries.shape == (100, 100)
        assert entries[:80, 80:].sum() == 0

    def test_round_trip_through_pagerank(self, tmp_path, capsys):
        out = tmp_path / "net.csv"
        main(["gen", "--model", "er", "--n", "12", "--p", "0.4", "--seed", "9", "--out", str(out)])
        from netrank import gen_er, pagerank, read_dense_csv

        loaded = read_dense_csv(out)
        np.testing.assert_array_equal(loaded.entries, gen_er(12, 0.4, 9).entries)
        assert main(["pagerank", str(out)]) == 0
        _, scores = parse_scores(capsys.readouterr().out)
        np.testing.assert_allclose(
            scores, pagerank(gen_er(12, 0.4, 9), 0.85).values, atol=1e-9
        )

    def test_bad_block_spec_exits_one(self, tmp_path, capsys):
        assert main([
            "gen", "--model", "block", "--blocks", "junk", "--out", str(tmp_path / "x.csv"),
        ]) == 1

    def test_er_requires_n_and_p(self, tmp_path):
        assert main(["gen", "--model", "er", "--out", str(tmp_path / "x.csv")]) == 1

    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch):
        message = ("Unable to allocate 65.5 TiB for an array with shape "
                   "(3000000, 3000000) and data type float64")

        def gen_er(n, p, seed):
            raise MemoryError(message)

        monkeypatch.setattr(experiments, "gen_er", gen_er)
        out = tmp_path / "x.csv"
        argv = ["gen", "--model", "er", "--n", "3000000", "--p", "0.1", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestSweepCommand:
    def test_example_d_default_grids(self, tmp_path, capsys):
        path = write_dense(tmp_path / "d.csv", golden.EX_D)
        assert main(["sweep", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        markov = [r for r in payload["records"] if r["family"] == "markovrank"]
        assert markov and all(r["identical"] for r in markov)

    def test_k2_all_agree(self, tmp_path, capsys):
        path = write_dense(tmp_path / "k2.csv", golden.K2)
        main(["sweep", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert all(r["agreement"] == 2 for r in payload["records"])

    def test_example_c_flags_failures_but_exits_zero(self, tmp_path, capsys):
        path = write_dense(tmp_path / "c.csv", golden.EX_C)
        assert main(["sweep", str(path), "--out", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        failed = {
            (r["family"], float(r["parameter"]))
            for r in rows
            if r["multiplicity_failure"] == "True"
        }
        assert ("pagerank", 1.0) in failed
        assert ("markovrank", 0.0) in failed

    def test_custom_grids(self, tmp_path, capsys):
        path = write_dense(tmp_path / "d.csv", golden.EX_D)
        assert main(["sweep", str(path), "--alphas", "0.85,0.95", "--epsilons", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alphas"] == [0.85, 0.95]
        assert len(payload["records"]) == 3


class TestEdgeListInputs:
    def test_edgelist_with_roster(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("following,followed\np1,p2\np1,p4\np2,p1\np2,p3\np3,p2\np4,p2\n")
        roster = tmp_path / "roster.csv"
        roster.write_text("screen_name\np1\np2\np3\np4\n")
        assert main([
            "pagerank", str(edges), "--format", "edgelist",
            "--roster", str(roster), "--alpha", "0.85",
        ]) == 0
        labels, scores = parse_scores(capsys.readouterr().out)
        assert labels == ["p1", "p2", "p3", "p4"]
        np.testing.assert_allclose(scores, golden.FOUR_NODE_PAGERANK[0.85], atol=1e-6)

    def test_custom_edge_columns(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst\na,b\nb,a\n")
        assert main([
            "pagerank", str(edges), "--format", "edgelist", "--edge-cols", "src,dst",
        ]) == 0
        labels, scores = parse_scores(capsys.readouterr().out)
        assert labels == ["a", "b"]
        np.testing.assert_allclose(scores, [0.5, 0.5], atol=1e-9)

    @pytest.mark.parametrize("cols", ["following", "src,", " ,dst"])
    def test_edge_cols_needs_two_names(self, tmp_path, capsys, cols):
        edges = tmp_path / "edges.csv"
        edges.write_text("following,followed\na,b\nb,a\n")
        assert main([
            "pagerank", str(edges), "--format", "edgelist", "--edge-cols", cols,
        ]) == 1
        err = capsys.readouterr().err
        assert "--edge-cols expects two comma-separated column names" in err
        assert "unpack" not in err

    def test_short_edge_row_exits_one(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("following,followed\na,b\nc\n")
        assert main(["pagerank", str(edges), "--format", "edgelist"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {edges}, line 3: edge row has no 'followed' column\n"

    @pytest.mark.parametrize(
        "edge_text, roster_text, bad, problem",
        [
            ("following,followed\na,b\nc,\n", None, "edges",
             "line 3: edge row has an empty 'followed' field"),
            ("following,followed\na,b\n", "id,screen_name\n1,a\n2,b\n4\n", "roster",
             "line 4: roster row has no 'screen_name' column"),
            ("following,followed\na,b\n", "id,screen_name\n1,a\n2,b\n4,\n", "roster",
             "line 4: roster row has an empty 'screen_name' field"),
            ("following,followed\na,b\n", "id,screen_name\n1,a\n2,b\n3,a\n", "roster",
             "line 4: roster row repeats screen_name 'a' (first on line 2)"),
        ],
    )
    def test_bad_row_exits_one(self, tmp_path, capsys, edge_text, roster_text, bad, problem):
        files = {"edges": tmp_path / "edges.csv", "roster": tmp_path / "roster.csv"}
        files["edges"].write_text(edge_text)
        argv = ["pagerank", str(files["edges"]), "--format", "edgelist"]
        if roster_text is not None:
            files["roster"].write_text(roster_text)
            argv += ["--roster", str(files["roster"])]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {files[bad]}, {problem}\n"


class TestModuleEntryPoint:
    def run_module(self, *argv, module="netrank"):
        import netrank

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(netrank.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_ranks_a_golden_network(self, four_node_file):
        result = self.run_module("markovrank", four_node_file, "--epsilon", "0")
        assert result.returncode == 0, result.stderr
        labels, scores = parse_scores(result.stdout)
        assert labels == ["1", "2", "3", "4"]
        np.testing.assert_allclose(scores, golden.FOUR_NODE_MARKOVRANK[0.0], atol=1e-6)

    def test_multiplicity_exits_two(self, tmp_path):
        path = write_dense(tmp_path / "c.csv", golden.EX_C)
        result = self.run_module("markovrank", path, "--epsilon", "0")
        assert result.returncode == 2
        assert "multiplicity of the eigenvalue 1 is not one" in result.stderr

    def test_cli_module_runs_the_cli(self, tmp_path):
        result = self.run_module("pagerank", str(tmp_path / "missing.csv"), module="netrank.cli")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
