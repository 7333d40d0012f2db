"""The README's library quick start runs, and its comments state its results;
its decode-error example and option-rule messages are what the CLI prints."""

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
