"""The README's library quick start runs, and its comments state its results."""

import re
from pathlib import Path

import numpy as np

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
