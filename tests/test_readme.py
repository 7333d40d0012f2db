"""The README's library quick start runs, and its comments state its results;
its decode-error example, option-rule messages and input-format errors are
what the CLI prints."""

import re
from pathlib import Path

import numpy as np
import pytest

from netrank.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_lines():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_quick_start_comments_hold():
    namespace = {}
    checked = 0
    for line in quick_start_lines():
        code, _, comment = line.partition("#")
        comment = comment.strip()
        if not comment:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        witness = re.fullmatch(r"regular, witness k = (\d+)", comment)
        if comment.startswith("["):
            expected = [float(t) for t in comment.strip("[]").split(",")]
            np.testing.assert_allclose(value, expected, rtol=0, atol=5e-8)
        elif witness:
            assert value.regular and value.witness_k == int(witness[1])
        else:
            assert value is {"True": True, "False": False}[comment]
        checked += 1
    assert checked == 4


@pytest.mark.parametrize(
    "data, options",
    [(b"0,1\n\xff,0\n", []), (b"a,b\n\xff,x\n", ["--format", "edgelist", "--edge-cols", "a,b"])],
    ids=["dense", "edges"],
)
def test_decode_error_example_is_what_the_cli_prints(tmp_path, monkeypatch, capsys, data, options):
    text = " ".join(README.read_text(encoding="utf-8").split())
    example = re.search(r"`(bad\.csv: 'utf-8' codec [^`]*)`", text)[1]
    monkeypatch.chdir(tmp_path)
    Path("bad.csv").write_bytes(data)
    assert main(["pagerank", "bad.csv", *options]) == 1
    assert capsys.readouterr().err == f"error: {example}\n"


@pytest.mark.parametrize(
    "start, argv",
    [
        ("argument --tie-tol:", ["pagerank", "g.csv", "--tie-tol", "nan"]),
        ("--tol applies", ["pagerank", "g.csv", "--tol", "1e-9"]),
        ("--roster applies", ["pagerank", "g.csv", "--roster", "r.csv"]),
        ("--blocks applies", ["gen", "--model", "er", "--blocks", "2", "--out", "o.csv"]),
        ("--alphas: no values", ["sweep", "g.csv", "--alphas", ","]),
        ("--alphas: non-numeric", ["sweep", "g.csv", "--alphas", "x"]),
    ],
    ids=["tie-tol", "tol", "roster", "blocks", "alphas-empty", "alphas-token"],
)
def test_option_rule_message_is_what_the_cli_prints(tmp_path, monkeypatch, capsys, start, argv):
    text = " ".join(README.read_text(encoding="utf-8").split())
    message = re.search(f"`({re.escape(start)}[^`]*)`", text)[1]
    monkeypatch.chdir(tmp_path)
    Path("g.csv").write_text("0,1\n1,0\n")
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


EDGES = "following,followed\na,b\n"
TWO_CLASSES = "".join(  # two complete 100-node digraphs, no self-loops
    ",".join("1" if i // 100 == j // 100 and i != j else "0" for j in range(200)) + "\n"
    for i in range(200)
)


@pytest.mark.parametrize(
    "message, files, argv, code",
    [
        ("net.csv, line 3: non-numeric entry 'x'", {"net.csv": "0,1,0\n1,0,1\nx,0,0\n"},
         ["pagerank", "net.csv"], 1),
        ("net.csv, line 2: non-finite entry 'nan'", {"net.csv": "0,1\nnan,0\n"},
         ["pagerank", "net.csv"], 1),
        ("net.csv, line 2: negative entry '-1'", {"net.csv": "0,1\n-1,0\n"},
         ["pagerank", "net.csv"], 1),
        ("net.csv, line 4: ragged row of width 2, where line 2 has width 3",
         {"net.csv": "a,b,c\n0,1,0\n1,0,1\n0,1\n"}, ["pagerank", "net.csv"], 1),
        ("net.csv, line 1: header repeats label 'a'", {"net.csv": "a,a\n0,1\n1,0\n"},
         ["pagerank", "net.csv"], 1),
        ("net.csv, line 1: header has an empty label in column 1", {"net.csv": ",b\n0,1\n1,0\n"},
         ["pagerank", "net.csv"], 1),
        ("net.csv, line 1: header has 3 labels for 2 columns", {"net.csv": "a,b,c\n0,1\n1,0\n"},
         ["pagerank", "net.csv"], 1),
        ("net.csv: empty dense matrix", {"net.csv": ""}, ["pagerank", "net.csv"], 1),
        ("adjacency weights overflow: their total exceeds the float64 range",
         {"net.csv": "a,b\n1e308,1e308\n0,1\n"}, ["pagerank", "net.csv"], 1),
        ("edges.csv, line 3: edge row has an empty 'followed' field",
         {"edges.csv": EDGES + "c,\n"}, ["pagerank", "edges.csv", "--format", "edgelist"], 1),
        ("roster.csv, line 5: roster row has no 'screen_name' column",
         {"edges.csv": EDGES, "roster.csv": "x,screen_name\n1,a\n2,b\n3,c\n4\n"},
         ["pagerank", "edges.csv", "--format", "edgelist", "--roster", "roster.csv"], 1),
        ("roster.csv, line 4: roster row repeats screen_name 'a' (first on line 2)",
         {"edges.csv": EDGES, "roster.csv": "screen_name\na\nb\na\n"},
         ["pagerank", "edges.csv", "--format", "edgelist", "--roster", "roster.csv"], 1),
        ("s.csv, line 2: non-finite score 'nan'", {"s.csv": "label,score\na,nan\n"},
         ["compare", "s.csv", "s.csv"], 1),
        ("s.csv, line 3: row has an empty 'label' field",
         {"s.csv": "label,score\na,0.5\n,0.5\n"}, ["compare", "s.csv", "s.csv"], 1),
        ("s.csv, line 4: repeats label 'a' (first on line 2)",
         {"s.csv": "label,score\na,0.2\nb,0.3\na,0.5\n"}, ["compare", "s.csv", "s.csv"], 1),
        ("edges.csv, line 3: field larger than field limit (131072)",
         {"edges.csv": EDGES + "c," + "x" * 131073 + "\n"},
         ["pagerank", "edges.csv", "--format", "edgelist"], 1),
        ("The multiplicity of the eigenvalue 1 is not one (got 2)", {"net.csv": TWO_CLASSES},
         ["sweep", "net.csv"], 2),
    ],
    ids=["non-numeric", "non-finite", "negative", "ragged", "header-repeat", "header-empty",
         "header-width", "empty", "overflow", "edge-field", "roster-short", "roster-repeat",
         "score-non-finite", "score-empty-label", "score-repeat", "field-limit", "multiplicity"],
)
def test_input_format_error_is_what_the_cli_prints(tmp_path, monkeypatch, capsys,
                                                   message, files, argv, code):
    assert f"`{message}`" in " ".join(README.read_text(encoding="utf-8").split())
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
