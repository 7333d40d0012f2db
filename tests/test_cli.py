import codecs
import csv
import io
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from netrank import ScoreVector, experiments
from netrank.cli import _format_scores, _read_score_csv, main, parse_block_spec

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

    def test_csv_ranks_print_exactly(self):
        scores = ScoreVector(np.full(4, 0.25), ("a", "b", "c", "d"))
        ranks = np.array([100000.5, 999999.5, 1000001.0, 1e6])
        assert _format_scores(scores, ranks, "csv") == (
            "label,score,rank\na,0.25,100000.5\nb,0.25,999999.5\nc,0.25,1000001\nd,0.25,1000000\n"
        )
        # below 100000 the bytes are those of {:g}
        ranks = np.array([1.0, 2.5, 12345.5, 99999.5])
        assert _format_scores(scores, ranks, "csv") == (
            "label,score,rank\na,0.25,1\nb,0.25,2.5\nc,0.25,12345.5\nd,0.25,99999.5\n"
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
            (",b\n0,1\n1,0\n", "header has an empty label in column 1"),
        ],
    )
    def test_bad_header_names_file_and_line(self, tmp_path, capsys, text, problem):
        path = tmp_path / "h.csv"
        path.write_text(text)
        assert main(["pagerank", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}, line 1: {problem}\n"

    def test_nan_tolerance_exits_one_at_once(self, four_node_file, capsys):
        argv = ["pagerank", four_node_file, "--method", "power", "--tol", "nan"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: tolerance must be positive\n"

    @pytest.mark.parametrize("command", ["pagerank", "markovrank"])
    def test_power_default_tolerance_prints_the_exact_scores(self, six_node_file, capsys, command):
        # every one of the 10 printed digits: the default tolerance is 1e-15
        assert main([command, six_node_file]) == 0
        exact = capsys.readouterr().out
        assert main([command, six_node_file, "--method", "power"]) == 0
        assert capsys.readouterr().out == exact

    @pytest.mark.parametrize("command", ["pagerank", "markovrank"])
    @pytest.mark.parametrize("source", ["grid", "edgelist"])
    def test_network_without_edges_ranks_uniformly(self, tmp_path, capsys, command, source):
        # bincount of no edges counts in int64, which a power step must not add floats to
        grid, edges, roster = tmp_path / "zero.csv", tmp_path / "none.csv", tmp_path / "r3.csv"
        grid.write_text("0,0\n0,0\n")
        edges.write_text("following,followed\n")
        roster.write_text("screen_name\na\nb\nc\n")
        argv = [command, str(grid)] if source == "grid" else [
            command, str(edges), "--format", "edgelist", "--roster", str(roster)]
        assert main([*argv, "--method", "power"]) == 0
        power = capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == power
        rows = list(csv.DictReader(io.StringIO(power.out)))
        assert len(rows) == (2 if source == "grid" else 3)
        assert len({(r["score"], r["rank"]) for r in rows}) == 1

    def test_power_iterates_that_alternate_fail_at_once(self, tmp_path, capsys):
        # every leaf follows the hub: at 1e-15 the iterates settle into a
        # rounding 2-cycle, about 180 steps in, which no step limit would end soon
        star = tmp_path / "star.csv"
        star.write_text("following,followed\n" + "".join(f"u{i},hub\n" for i in range(1, 20001)))
        argv = ["pagerank", str(star), "--format", "edgelist", "--method", "power"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        found = re.fullmatch(
            r"error: power iteration did not reach tolerance 1e-15 at iteration (\d+): "
            r"it alternates between iterates (\S+) apart\n",
            err,
        )
        assert found and int(found[1]) < 1000 and 1e-15 < float(found[2]) < 1e-9, err
        assert main([*argv, "--tol", "1e-9"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert {r["rank"] for r in rows if r["label"] != "hub"} == {"10000.5"}

    def test_zero_max_iter_exits_one(self, four_node_file, capsys):
        argv = ["pagerank", four_node_file, "--method", "power", "--max-iter", "0"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: max_iterations must be at least 1\n"

    def test_rows_end_only_at_line_breaks(self, tmp_path, capsys):
        # str.splitlines() would read this one line as the rows 0,1 and 1,0
        path = tmp_path / "fs.csv"
        path.write_text("0,1\x1c1,0\n")
        assert main(["pagerank", str(path)]) == 1
        # one non-numeric row: a header with no data rows
        assert capsys.readouterr().err == f"error: {path}, line 1: header has no data rows\n"

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

    def test_zero_score_of_a_transient_node_prints_unsigned(self, tmp_path, capsys):
        # a 3-cycle with one transient node: back-substitution gives it -0.0
        path = tmp_path / "cycle.csv"
        path.write_text("0,1,0,0\n0,0,1,0\n1,0,0,0\n1,0,0,0\n")
        assert main(["pagerank", str(path), "--alpha", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "4,0,1"
        assert "WARN: degenerate scores" in captured.err
        assert main(["pagerank", str(path), "--alpha", "1", "--out", "json"]) == 0
        captured = capsys.readouterr()
        assert '"score": 0.0,' in captured.out and "-0" not in captured.out
        assert "WARN: degenerate scores" in captured.err

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

    @pytest.mark.parametrize("token", ["nan", "inf", " -Infinity", "1e400"])
    def test_non_finite_score_names_file_and_line(self, tmp_path, capsys, token):
        path = tmp_path / "s.csv"
        path.write_text(f"label,score\na,{token}\nb,1\n")
        assert main(["compare", str(path), str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}, line 2: non-finite score {token!r}\n"

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

    @pytest.mark.parametrize(
        "text", ["label,score\na,0.5\n,0.5\n", "score,label\n1,a\n0.5, \n0.5,\n"]
    )
    def test_empty_label_names_file_and_line(self, tmp_path, capsys, text):
        # a label of one space is a label; only an empty one is refused, on the last line
        path = tmp_path / "a.csv"
        path.write_text(text)
        assert main(["compare", str(path), str(path)]) == 1
        where = f"{path}, line {text.count(chr(10))}"
        assert capsys.readouterr().err == f"error: {where}: row has an empty 'label' field\n"


@contextmanager
def _open_csv(path):
    """Open a CSV file to read as UTF-8, a leading BOM skipped; a decoding error names the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def dict_reader_scores(path):
    """_read_score_csv through csv.DictReader, as an oracle."""
    with _open_csv(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"label", "score"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: score file needs 'label' and 'score' columns")
        first_line, scores = {}, []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            label = row["label"]
            if label is None:
                raise ValueError(f"{where}: row has no label")
            if not label:
                raise ValueError(f"{where}: row has an empty 'label' field")
            try:
                scores.append(float(row["score"]))
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where}: missing or non-numeric score {row['score']!r}"
                ) from None
            if not np.isfinite(scores[-1]):
                raise ValueError(f"{where}: non-finite score {row['score']!r}")
            if label in first_line:
                raise ValueError(
                    f"{where}: repeats label {label!r} (first on line {first_line[label]})"
                )
            first_line[label] = reader.line_num
    if not first_line:
        raise ValueError(f"{path}: score file has no rows")
    return list(first_line), scores


def score_outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "data",
    [
        "\ufefflabel,score\na,0.25\nb,0.75\n".encode(),
        b"label,score\r\na,0.25\r\nb,0.75\r\n",
        b"label,score\na,0.25\nb,0.75",
        b"label,score\na,0.25\nb,\xff\n",
        "label,score\na,\u0661\u0662\nb,1\n".encode(),
        b"score,label\n0.5,a\n0.5\n",
        b"label,score\na\n",
        b"label,x,score\na,1\n",
        b"label,score\na,0.5,extra\n",
        b"label,score,label\nq,0.5,a\nr,0.25,b\n",
        b"score,label,score\n1,a,0.5\n2,b\n",
        b"label,score\n\na,0.5\n\n\nb,0.5\n",
        b'label,score\n"a\nb",0.5\nc,x\n',
        b'label,score\n"a\nb",0.5\nc,0.5\n"a\nb",1\n',
        b"label,score\n,0.5\n",
        b"label,score\na,nan\n",
        b"",
        b"\nlabel,score\na,1\n",
        b"label,score\n",
        b"label,value\na,1\n",
    ],
    ids=["bom", "crlf", "no-final", "non-utf8", "arabic-indic-digits", "short-no-label",
         "short-no-score", "short-before-score", "long-row", "repeated-label-column",
         "repeated-score-column", "blank-rows", "quoted-newline", "repeat-after-quoted-newline",
         "empty-label", "nan", "empty", "blank-header-line", "header-only", "missing-column"],
)
def test_score_reader_matches_dict_reader(tmp_path, data):
    path = tmp_path / "scores.csv"
    path.write_bytes(data)
    assert score_outcome(_read_score_csv, path) == score_outcome(dict_reader_scores, path)


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

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize(
        "args, model",
        [
            (["--model", "er", "--n", "1", "--p", "1"],
             lambda seed: experiments.gen_er(1, 1.0, seed)),
            (["--model", "er", "--n", "9", "--p", "0"],
             lambda seed: experiments.gen_er(9, 0.0, seed)),
            (["--model", "er", "--n", "9", "--p", "1"],
             lambda seed: experiments.gen_er(9, 1.0, seed)),
            (["--model", "er", "--n", "40", "--p", "0.3"],
             lambda seed: experiments.gen_er(40, 0.3, seed)),
            (["--model", "block", "--blocks", "1x1@1", "--no-zero-diagonal"],
             lambda seed: experiments.gen_block(parse_block_spec("1x1@1", False, seed))),
            (["--model", "block", "--blocks", "20x20@0.5,20x5@0;5x20@0.2,5x5@1"],
             lambda seed: experiments.gen_block(
                 parse_block_spec("20x20@0.5,20x5@0;5x20@0.2,5x5@1", True, seed))),
        ],
        ids=["er-n1", "er-p0", "er-p1", "er", "block-n1", "block"],
    )
    def test_output_bytes_are_savetxt(self, tmp_path, args, model, seed):
        out = tmp_path / "g.csv"
        assert main(["gen", *args, "--seed", str(seed), "--out", str(out)]) == 0
        oracle = io.BytesIO()
        np.savetxt(oracle, model(seed).entries, fmt="%g", delimiter=",")
        assert out.read_bytes() == oracle.getvalue()

    def test_bad_block_spec_exits_one(self, tmp_path, capsys):
        assert main([
            "gen", "--model", "block", "--blocks", "junk", "--out", str(tmp_path / "x.csv"),
        ]) == 1

    def test_er_requires_n_and_p(self, tmp_path):
        assert main(["gen", "--model", "er", "--out", str(tmp_path / "x.csv")]) == 1

    def test_block_requires_blocks(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["gen", "--model", "block", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --model block requires --blocks\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, option, model",
        [
            (["--model", "er", "--n", "4", "--p", "1", "--blocks", "4x4@1"], "--blocks", "block"),
            (["--model", "er", "--n", "4", "--p", "1", "--no-zero-diagonal"],
             "--no-zero-diagonal", "block"),
            (["--model", "block", "--blocks", "4x4@1", "--n", "4"], "--n", "er"),
            (["--model", "block", "--blocks", "4x4@1", "--p", "1"], "--p", "er"),
        ],
        ids=["blocks-with-er", "no-zero-diagonal-with-er", "n-with-block", "p-with-block"],
    )
    def test_option_of_the_other_model_exits_one(self, tmp_path, capsys, args, option, model):
        out = tmp_path / "x.csv"
        assert main(["gen", *args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} applies to --model {model} only\n"
        assert not out.exists()

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

    def test_baseline_without_unique_ranking_exits_two(self, tmp_path, capsys):
        # two closed classes of 100: epsilon = 1 maps to 1 - alpha = 2.5e-5, a multiplicity failure
        net = tmp_path / "two.csv"
        blocks = "100x100@1,100x100@0;100x100@0,100x100@1"
        assert main(["gen", "--model", "block", "--blocks", blocks, "--out", str(net)]) == 0
        assert main(["sweep", str(net)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: The multiplicity of the eigenvalue 1 is not one (got 2)\n"

    def test_custom_grids(self, tmp_path, capsys):
        path = write_dense(tmp_path / "d.csv", golden.EX_D)
        assert main(["sweep", str(path), "--alphas", "0.85,0.95", "--epsilons", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alphas"] == [0.85, 0.95]
        assert len(payload["records"]) == 3

    def test_csv_parameters_near_one_stay_distinct(self, tmp_path, capsys):
        path = write_dense(tmp_path / "d.csv", golden.EX_D)
        argv = ["sweep", str(path), "--alphas", "0.9999999,1", "--epsilons", "1", "--out", "csv"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(r["parameter"]) for r in rows] == [0.9999999, 1.0, 1.0]

    @pytest.mark.parametrize("grid", [",", " , ", ""])
    @pytest.mark.parametrize("option", ["--alphas", "--epsilons"])
    def test_grid_without_values_is_rejected(self, tmp_path, capsys, option, grid):
        path = write_dense(tmp_path / "d.csv", golden.EX_D)
        assert main(["sweep", str(path), option, grid, "--out", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option}: no values in {grid!r}\n"

    def test_both_grids_without_values_name_the_first(self, tmp_path, capsys):
        path = write_dense(tmp_path / "d.csv", golden.EX_D)
        assert main(["sweep", str(path), "--alphas", ",", "--epsilons", " , "]) == 1
        assert capsys.readouterr().err == "error: --alphas: no values in ','\n"

    @pytest.mark.parametrize(
        "option, grid, token",
        [("--alphas", "0.5,x", "x"), ("--epsilons", " 1e-3 , 0..5 ", "0..5")],
    )
    def test_non_numeric_grid_value_is_named(self, tmp_path, capsys, option, grid, token):
        path = write_dense(tmp_path / "d.csv", golden.EX_D)
        assert main(["sweep", str(path), option, grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option}: non-numeric value {token!r}\n"


class TestUsageErrors:
    """Usage errors exit 1, like bad input; exit 2 means only a multiplicity failure."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pagerank", "{net}", "--alpha", "abc"], "argument --alpha: invalid float value: 'abc'"),
            (["pagerank"], "the following arguments are required: input"),
            (["rank", "{net}"], "argument command: invalid choice: 'rank'"),
            (["markovrank", "{net}", "--epsilon", "x"], "argument --epsilon: invalid float value: 'x'"),
            (["pagerank", "{net}", "--tie-tol", "abc"],
             "argument --tie-tol: invalid float value: 'abc'"),
        ],
    )
    def test_usage_error_exits_one(self, four_node_file, capsys, argv, message):
        assert main([a.format(net=four_node_file) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: netrank")
        assert f"error: {message}" in captured.err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pagerank", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: netrank pagerank")

    @pytest.mark.parametrize(
        "command, usage", [("pagerank", "[--alpha ALPHA]"), ("markovrank", "[--epsilon EPSILON]")]
    )
    def test_ranking_help_names_its_parameter(self, capsys, command, usage):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert usage in out
        assert f"\n  {usage[1:-1]}\n" in out  # its own line under "options:"

    @pytest.mark.parametrize("value", ["nan", "-1", "-0.5"])
    @pytest.mark.parametrize("command", ["pagerank", "markovrank", "compare", "sweep"])
    def test_tie_tol_must_be_non_negative(self, four_node_file, capsys, command, value):
        files = [four_node_file] * (2 if command == "compare" else 1)
        assert main([command, *files, "--tie-tol", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --tie-tol: must be a non-negative number, got {value!r}\n"
        )

    @pytest.mark.parametrize("value", ["0", "1e-9", "inf"])
    def test_tie_tol_zero_and_positive_accepted(self, tmp_path, capsys, value):
        # the 3-node path: the two end nodes score exactly alike
        path = tmp_path / "path.csv"
        path.write_text("0,1,0\n1,0,1\n0,1,0\n")
        assert main(["pagerank", str(path), "--tie-tol", value]) == 0
        ranks = [r["rank"] for r in csv.DictReader(io.StringIO(capsys.readouterr().out))]
        assert ranks == (["1.5", "3", "1.5"] if value != "inf" else ["2", "2", "2"])

    @pytest.mark.parametrize("option, value", [("--roster", "r.csv"), ("--edge-cols", "a,b")])
    @pytest.mark.parametrize("command", ["pagerank", "markovrank", "sweep"])
    def test_edgelist_options_need_edgelist_format(
        self, four_node_file, capsys, command, option, value
    ):
        assert main([command, four_node_file, "--format", "dense", option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} applies to --format edgelist only\n"

    @pytest.mark.parametrize("method", [[], ["--method", "exact"]], ids=["default", "exact"])
    @pytest.mark.parametrize("option, value", [("--tol", "1e-3"), ("--max-iter", "5")])
    @pytest.mark.parametrize("command", ["pagerank", "markovrank"])
    def test_power_options_need_power_method(self, tmp_path, capsys, command, option, value, method):
        # refused before the input is read: the file does not exist
        argv = [command, str(tmp_path / "missing.csv"), *method, option, value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} applies to --method power only\n"


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

    def test_quoted_labels_round_trip_through_score_files(self, tmp_path, capsys):
        # labels with a comma, a quote, a leading space and a line break
        labels = ["a,b", 'q"u', " sp", "\u00e9\n"]
        edges = tmp_path / "edges.csv"
        with open(edges, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["following", "followed"])
            for i, j in ((0, 1), (1, 0), (1, 2), (2, 1), (0, 3), (3, 1)):  # labels in order
                writer.writerow([labels[i], labels[j]])
        scores = tmp_path / "scores.csv"
        assert main([
            "pagerank", str(edges), "--format", "edgelist", "--output", str(scores),
        ]) == 0
        read_labels, read_scores = _read_score_csv(scores)
        assert read_labels == labels
        np.testing.assert_allclose(read_scores, golden.FOUR_NODE_PAGERANK[0.85], atol=1e-6)
        assert main(["compare", str(scores), str(scores)]) == 0
        assert capsys.readouterr().out == (
            "agreement_count: 4\nidentical: true\na_finer_b: true\nb_finer_a: true\n"
        )

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


class TestUndecodableInput:
    GOOD = {
        "dense": "0,1\n1,0\n",
        "edges": "following,followed\na,b\nb,a\n",
        "roster": "screen_name\na\nb\n",
        "scores": "label,score\na,0.5\nb,0.5\n",
    }

    @pytest.mark.parametrize(
        "bad, data, argv",
        [
            ("dense", b"0,1\n\xff,0\n", ["pagerank", "{dense}"]),
            ("dense", b"0,1\n\xff,0\n", ["sweep", "{dense}"]),
            ("edges", b"following,followed\na,b\n\xff,a\n",
             ["pagerank", "{edges}", "--format", "edgelist"]),
            ("roster", b"screen_name\na\n\xffb\n",
             ["markovrank", "{edges}", "--format", "edgelist", "--roster", "{roster}"]),
            ("scores", b"label,score\na,0.5\n\xff,0.5\n", ["compare", "{scores}", "{scores}"]),
        ],
        ids=["dense", "dense-sweep", "edges", "roster", "scores"],
    )
    def test_decoding_error_names_the_file(self, tmp_path, capsys, bad, data, argv):
        files = {name: tmp_path / f"{name}.csv" for name in self.GOOD}
        for name, text in self.GOOD.items():
            files[name].write_text(text)
        files[bad].write_bytes(data)
        assert main([a.format(**files) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {files[bad]}: 'utf-8' codec can't decode byte 0xff "
            f"in position {data.index(0xFF)}: invalid start byte\n"
        )

    # each file is over 16 KiB, its bad byte past the text reader's first 8 KiB chunk;
    # a bad row, if given, is put on the file's second or third line, before the bad byte
    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no-bom", "bom"])
    @pytest.mark.parametrize(
        "bad, head, row, count, bad_row, argv",
        [
            ("dense", b"", b"0.5," * 69 + b"%d\n", 70, None, ["pagerank", "{dense}"]),
            ("edges", b"following,followed\n", b"u%05d,v\n", 2500, None,
             ["pagerank", "{edges}", "--format", "edgelist"]),
            ("roster", b"screen_name\n", b"u%05d\n", 3000, None,
             ["markovrank", "{edges}", "--format", "edgelist", "--roster", "{roster}"]),
            ("scores", b"label,score\n", b"u%05d,0.5\n", 2000, None,
             ["compare", "{scores}", "{scores}"]),
            ("dense", b"", b"0.5," * 69 + b"%d\n", 70, b"x," + b"0.5," * 68 + b"1\n",
             ["pagerank", "{dense}"]),
            ("edges", b"following,followed\n", b"u%05d,v\n", 2500, b"u00001,\n",
             ["pagerank", "{edges}", "--format", "edgelist"]),
            ("roster", b"screen_name\n", b"u%05d\n", 3000, b"u00000\n",
             ["markovrank", "{edges}", "--format", "edgelist", "--roster", "{roster}"]),
            ("scores", b"label,score\n", b"u%05d,0.5\n", 2000, b"u00000,0.5\n",
             ["compare", "{scores}", "{scores}"]),
            ("edges", b'"following","followed"\n', b"u%05d,v\n", 2501, None,
             ["pagerank", "{edges}", "--format", "edgelist"]),
            ("roster", b'"screen_name"\n', b"u%05d\n", 2501, None,
             ["markovrank", "{edges}", "--format", "edgelist", "--roster", "{roster}"]),
            ("scores", b'"label","score"\n', b"u%05d,0.5\n", 2501, None,
             ["compare", "{scores}", "{scores}"]),
        ],
        ids=["dense", "edges", "roster", "scores", "dense-after-a-non-numeric-entry",
             "edges-after-an-empty-field", "roster-after-a-repeated-name",
             "scores-after-a-repeated-label", "edges-quoted", "roster-quoted",
             "scores-quoted"],
    )
    def test_decoding_error_gives_the_offset_in_the_file(
        self, tmp_path, capsys, bad, head, row, count, bad_row, argv, bom
    ):
        rows = [row % i for i in range(count)]
        if bad_row is not None:
            rows[1] = bad_row
        # a quoted header sends the file to csv.reader, which streams it: its bad byte is
        # put on the last line, so only a check of every byte before the stream finds it
        # with its offset in the file, not in a chunk of the stream
        k = count - 1 if head.startswith(b'"') else count * 3 // 4
        rows[k] = b"\xff" + rows[k][1:]
        offset = len(head) + sum(map(len, rows[:k]))  # counted after the BOM
        files = {name: tmp_path / f"{name}.csv" for name in self.GOOD}
        for name, text in self.GOOD.items():
            files[name].write_text(text)
        files[bad].write_bytes(bom + head + b"".join(rows))
        assert offset > 8192 and files[bad].stat().st_size > 16384
        assert main([a.format(**files) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {files[bad]}: 'utf-8' codec can't decode byte 0xff "
            f"in position {offset}: invalid start byte\n"
        )


class TestOverlongField:
    LONG = "x" * (csv.field_size_limit() + 1)
    GOOD = TestUndecodableInput.GOOD

    @pytest.mark.parametrize(
        "bad, text, line, argv",
        [
            ("dense", f"a,{LONG}\n0,1\n1,0\n", 1, ["pagerank", "{dense}"]),
            ("edges", f"following,followed\na,b\nb,{LONG}\n", 3,
             ["pagerank", "{edges}", "--format", "edgelist"]),
            ("roster", f"screen_name\na\n\n{LONG}\nb\n", 4,
             ["markovrank", "{edges}", "--format", "edgelist", "--roster", "{roster}"]),
            ("scores", f"label,score\na,0.5\nb,{LONG}\n", 3,
             ["compare", "{scores}", "{scores}"]),
        ],
        ids=["dense", "edges", "roster", "scores"],
    )
    def test_field_over_the_csv_limit_names_the_file_and_line(
        self, tmp_path, capsys, bad, text, line, argv
    ):
        files = {name: tmp_path / f"{name}.csv" for name in self.GOOD}
        for name, good in self.GOOD.items():
            files[name].write_text(good)
        files[bad].write_text(text)
        assert main([a.format(**files) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {files[bad]}, line {line}: "
            f"field larger than field limit ({csv.field_size_limit()})\n"
        )

    # the header is checked before any row is read, and every row is read before one is checked
    @pytest.mark.parametrize(
        "bad, text, message, argv",
        [
            ("edges", f"following,x\na,b\nb,{LONG}\n",
             "{}: missing edge-list columns ['followed']",
             ["pagerank", "{edges}", "--format", "edgelist"]),
            ("roster", f"name\na\n{LONG}\n", "{}: roster file needs a 'screen_name' column",
             ["markovrank", "{edges}", "--format", "edgelist", "--roster", "{roster}"]),
            ("scores", f"label,x\na,0.5\nb,{LONG}\n",
             "{}: score file needs 'label' and 'score' columns",
             ["compare", "{scores}", "{scores}"]),
            ("edges", f"following,followed\na,\nb,{LONG}\n",
             f"{{}}, line 3: field larger than field limit ({csv.field_size_limit()})",
             ["pagerank", "{edges}", "--format", "edgelist"]),
            ("scores", f"label,score\na,0.5\na,0.5\nb,{LONG}\n",
             f"{{}}, line 4: field larger than field limit ({csv.field_size_limit()})",
             ["compare", "{scores}", "{scores}"]),
        ],
        ids=["edges-header", "roster-header", "scores-header", "edges-row", "scores-row"],
    )
    def test_order_of_a_bad_header_a_long_field_and_a_bad_row(
        self, tmp_path, capsys, bad, text, message, argv
    ):
        files = {name: tmp_path / f"{name}.csv" for name in self.GOOD}
        for name, good in self.GOOD.items():
            files[name].write_text(good)
        files[bad].write_text(text)
        assert main([a.format(**files) for a in argv]) == 1
        assert capsys.readouterr().err == "error: " + message.format(files[bad]) + "\n"


class TestModuleEntryPoint:
    def run_python(self, *argv):
        import netrank

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(netrank.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
        )

    def run_module(self, *argv, module="netrank"):
        return self.run_python("-m", module, *argv)

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

    def test_usage_error_exits_one(self):
        result = self.run_module("pagerank")
        assert result.returncode == 1
        assert "error: the following arguments are required: input" in result.stderr

    def test_a_usage_error_leaves_the_next_call_as_in_a_fresh_process(
        self, four_node_file, capsys, monkeypatch
    ):
        # main parses every call with one parser, built on its first call
        monkeypatch.setenv("COLUMNS", "80")  # the usage text's width, here and in the child
        for argv in (
            ["pagerank", four_node_file, "--alpha"],
            ["pagerank", four_node_file, "--alpha", "0.5"],
            ["markovrank", four_node_file, "--method", "power", "--out", "json"],
            ["pagerank", four_node_file, "--epsilon", "1"],
        ):
            fresh = self.run_module(*argv)
            assert main(argv) == fresh.returncode
            assert capsys.readouterr() == (fresh.stdout, fresh.stderr)

    def test_cli_module_runs_the_cli(self, tmp_path):
        result = self.run_module("pagerank", str(tmp_path / "missing.csv"), module="netrank.cli")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")

    def test_exact_solves_import_no_scipy(self, tmp_path):
        # importing scipy.linalg alone would add tens of MB to every run
        path = write_dense(tmp_path / "g.csv", experiments.gen_er(40, 0.1, 3))
        script = (
            "import sys\n"
            "from netrank.cli import main\n"
            "net, out = sys.argv[1:]\n"
            "assert main(['pagerank', net, '--output', out + '/p.csv']) == 0\n"
            "assert main(['sweep', net, '--output', out + '/s.json']) == 0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        result = self.run_python("-c", script, path, str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
