"""The CLI's edge-list ingest against the pair-list reader and loader it replaced.

The oracle below is the reader, roster reader and loader as they were before
the CLI read edge lists straight into one flat label list; cli._load_network
must give the same labels, edges and out-degrees, or the same message.  At the
other end, the CLI's CSV score rows must be those csv.writer writes.
"""

import argparse
import csv
import io
import tracemalloc
from contextlib import contextmanager
from itertools import repeat
from typing import Iterable, Optional, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netrank import AdjacencyMatrix, ScoreVector, read_edge_list_csv, read_roster_csv
from netrank.cli import _format_scores, _load_network, _read_score_csv, main
from netrank.graph_core import _check_field, _read_ends, _split_csv
from test_cli import dict_reader_scores


@contextmanager
def _open_csv(path):
    """Open a CSV file to read as UTF-8, a leading BOM skipped; a decoding error names the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def oracle_read_edge_list_csv(
    path,
    follower_col: str = "following",
    followed_col: str = "followed",
) -> list[tuple[str, str]]:
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty edge-list file")
        missing = {follower_col, followed_col} - set(header)
        if missing:
            raise ValueError(f"{path}: missing edge-list columns {sorted(missing)}")
        # a repeated column name means its last occurrence, as in csv.DictReader
        column = {name: i for i, name in enumerate(header)}
        a, b = column[follower_col], column[followed_col]
        reach = max(a, b)
        edges = []
        for row in reader:
            if len(row) > reach and row[a] and row[b]:
                edges.append((row[a], row[b]))
            elif row:  # blank rows are skipped
                for col, i in ((follower_col, a), (followed_col, b)):
                    value = row[i] if i < len(row) else None
                    _check_field(value, f"{path}, line {reader.line_num}: edge row", col)
        return edges


def oracle_read_roster_csv(path) -> list[str]:
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or "screen_name" not in header:
            raise ValueError(f"{path}: roster file needs a 'screen_name' column")
        # a repeated column name means its last occurrence, as in csv.DictReader
        col = {name: i for i, name in enumerate(header)}["screen_name"]
        first_line: dict[str, int] = {}
        for row in reader:
            if not row:  # blank rows are skipped
                continue
            label = row[col] if col < len(row) else None
            if not label or label in first_line:
                where = f"{path}, line {reader.line_num}: roster row"
                _check_field(label, where, "screen_name")
                raise ValueError(
                    f"{where} repeats screen_name {label!r} (first on line {first_line[label]})"
                )
            first_line[label] = reader.line_num
        return list(first_line)


def oracle_load_edge_list(
    edge_rows: Iterable[tuple[str, str]],
    roster: Optional[Sequence[str]] = None,
) -> AdjacencyMatrix:
    ends = []  # follower, followed, follower, ...
    for row in edge_rows:
        if len(row) != 2:
            raise ValueError(f"edge row must have two labels, got {row!r}")
        a, b = str(row[0]), str(row[1])
        if not a or not b:
            raise ValueError(f"edge row has an empty label: {row!r}")
        ends += a, b

    labels = tuple(map(str, roster) if roster is not None else dict.fromkeys(ends))
    index = {l: i for i, l in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("roster labels must be pairwise distinct")
    # -1 marks a label outside the roster
    nodes = np.fromiter(map(index.get, ends, repeat(-1)), dtype=np.intp, count=len(ends))
    missing = np.flatnonzero(nodes < 0)
    if missing.size:
        raise ValueError(f"edge label not in roster: {ends[missing[0]]!r}")
    if not labels:
        raise ValueError("no nodes: empty edge list and no roster")
    n = len(labels)
    keys = nodes[0::2] * n
    keys += nodes[1::2]
    keys.sort()
    src, dst = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    return AdjacencyMatrix._from_edges(src, dst, labels)


def oracle_ingest(edges, roster, cols):
    pairs = oracle_read_edge_list_csv(edges, *cols)
    names = oracle_read_roster_csv(roster) if roster is not None else None
    return oracle_load_edge_list(pairs, names)


def cli_ingest(edges, roster, cols):
    args = argparse.Namespace(
        format="edgelist", input=str(edges), roster=roster and str(roster),
        edge_cols=",".join(cols),
    )
    return _load_network(args)


def outcome(read, *args):
    """What a reader gives: its value, or the message of its ValueError."""
    try:
        out = read(*args)
    except ValueError as exc:
        return str(exc)
    if isinstance(out, AdjacencyMatrix):
        src, dst, weight = out._edges
        return (out.labels, src.dtype, src.tolist(), dst.tolist(), weight.tolist(),
                out._out_degrees.tolist())
    return out


def csv_field(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# half of the files use plain labels only, so that many take the split path
PLAIN = ["a", "b", "c", "d", "é", "да", "x y"]
SPECIAL = ["a,b", 'q"u', "l\nm", "r\rs", "n\0ul", ""]
EDGE_HEADERS = ["following,followed"] * 4 + [
    "followed,following", "id,following,followed", "following,followed,following",
    "following,id,followed,id", "following", "x", "",
]
ROSTER_HEADERS = ["screen_name"] * 3 + ["id,screen_name", "screen_name,x,screen_name", "x", ""]
SCORE_HEADERS = ["label,score"] * 4 + [
    "score,label", "id,label,score", "label,score,label", "score,x,label,score", "label", "",
]
# score fields: mostly numbers float() reads, some it refuses or reads as non-finite
NUMBERS = ["0", "0.5", "1e-3", " 2 ", "-1", "1_000", "\u0661"] * 8 + ["nan", "-inf", "1e999"]


@st.composite
def csv_texts(draw, headers: list[str], plain: list[str] = PLAIN) -> str:
    header = draw(st.sampled_from(headers)).split(",")
    labels = plain if draw(st.booleans()) else plain + SPECIAL
    rows = [header]
    for _ in range(draw(st.integers(0, 8))):
        width = max(0, len(header) + draw(st.sampled_from([0] * 30 + [-1, 1])))
        rows.append(draw(st.lists(st.sampled_from(labels), min_size=width, max_size=width)))
    newline = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
    quote = draw(st.sampled_from([False] * 3 + [True]))
    lines = [",".join(csv_field(f, quote) for f in row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # blank lines, the first one too
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return draw(st.sampled_from(["", "", "\ufeff"])) + text


@st.composite
def ingest_cases(draw):
    edges = draw(csv_texts(EDGE_HEADERS))
    # a roster of every plain label and an isolated account, in any order, or any roster file
    names = draw(st.permutations(PLAIN + ["iso"]))
    roster = draw(st.none() | st.just("screen_name\n" + "\n".join(names) + "\n")
                  | csv_texts(ROSTER_HEADERS))
    cols = draw(st.sampled_from([
        ("following", "followed"), ("following", "followed"), ("followed", "following"),
        ("following", "following"), ("id", "followed"),
    ]))
    return edges, roster, cols


@given(ingest_cases())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_ingest_matches_the_pair_list_path(tmp_path, case):
    text, roster_text, cols = case
    edges, roster = tmp_path / "edges.csv", tmp_path / "roster.csv"
    edges.write_bytes(text.encode())
    if roster_text is None:
        roster = None
    else:
        roster.write_bytes(roster_text.encode())
    expected = outcome(oracle_ingest, edges, roster, cols)
    assert outcome(cli_ingest, edges, roster, cols) == expected
    assert outcome(read_edge_list_csv, edges, *cols) == outcome(
        oracle_read_edge_list_csv, edges, *cols)
    if roster is not None:
        assert outcome(read_roster_csv, roster) == outcome(oracle_read_roster_csv, roster)


@given(csv_texts(SCORE_HEADERS, PLAIN + NUMBERS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_score_reader_matches_dict_reader_on_generated_files(tmp_path, text):
    path = tmp_path / "scores.csv"
    path.write_bytes(text.encode())
    assert outcome(_read_score_csv, path) == outcome(dict_reader_scores, path)


def csv_writer_scores(scores: ScoreVector, ranks: np.ndarray) -> str:
    """_format_scores(..., "csv") through csv.writer alone, as an oracle."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", "score", "rank"])
    writer.writerows(zip(scores.labels, map("{:.10g}".format, scores.values.tolist()),
                         map("{:.15g}".format, ranks.tolist())))
    return out.getvalue()


# labels csv.writer writes as they are, and any text: NUL, \r, leading spaces, ""
LABELS = (st.sampled_from(PLAIN + SPECIAL) | st.text(st.sampled_from([*'\0\r\n", a', "é"]))
          | st.text())
TINY = st.sampled_from([1e-300, 2.5e-300, 1e-17, 1e-12]) | st.floats(1e-300, 1e-3)
RANKS = (st.sampled_from([1.0, 1.5, 99999.5, 100000.5, 999999.5, 1e6])
         | st.integers(2, 10**7).map(lambda k: k / 2))


@given(st.lists(st.sampled_from(PLAIN), min_size=1, unique=True)
       | st.lists(LABELS, min_size=1, max_size=8, unique=True), st.data())
def test_score_rows_match_csv_writer(labels, data):
    rest = data.draw(st.lists(TINY, min_size=len(labels) - 1, max_size=len(labels) - 1))
    scores = ScoreVector(np.array([1 - sum(rest), *rest]), labels)
    ranks = np.array(data.draw(st.lists(RANKS, min_size=len(labels), max_size=len(labels))))
    assert _format_scores(scores, ranks, "csv") == csv_writer_scores(scores, ranks)


@pytest.mark.parametrize(
    "text, split",
    [
        ("following,followed\na,b\nb,c\n", (["following", "followed"], ["a", "b", "b", "c"])),
        ("\ufeffx,y\n\na,b\n\n", (["x", "y"], ["a", "b"])),
        ("x,y,z\na,,c", (["x", "y", "z"], ["a", "", "c"])),
        ("x\n", (["x"], [])),
        ("x,y\nд\x0b,\x85 \n", (["x", "y"], ["д\x0b", "\x85 "])),
        ("", None),
        ("\nx,y\na,b\n", None),
        ("\r\nx,y\na,b\n", None),
        ('x,y\n"a",b\n', None),
        ("x,y\r\na,b\r\rc,d\r", (["x", "y"], ["a", "b", "c", "d"])),
        ("x,y\na\0,b\n", None),
        ("x,y\na,b,c\n", None),
        ("x,y\na\n", None),
        (f"x,y\n{'a' * 70_000},{'b' * 70_000}\n", None),
        (b"x,y\na,\xff\n", ValueError),
        # 70,002 characters, under the limit, but 140,002 bytes, over it
        (f"x,y\n{'é' * 70_000},b\n", None),
        ("x,y\ra,b\rc,d", (["x", "y"], ["a", "b", "c", "d"])),
        ("x,y\n\n\n", (["x", "y"], [])),
        ("x,y\na,b\nc", None),
    ],
    ids=["plain", "bom-blank-rows", "empty-field", "header-only", "other-line-breaks",
         "empty", "blank-first-line", "blank-first-crlf", "quote", "crlf-and-cr", "nul",
         "long-row", "short-row", "line-over-field-limit", "not-utf8",
         "bytes-over-field-limit", "cr-no-final-break", "header-then-blank-lines",
         "short-last-row-no-final-break"],
)
def test_split_takes_only_what_csv_splits_at_every_comma(tmp_path, text, split):
    f = tmp_path / "in.csv"
    f.write_bytes(text if isinstance(text, bytes) else text.encode())
    if split is ValueError:
        with pytest.raises(ValueError) as info:
            _split_csv(f)
        assert str(info.value) == (
            f"{f}: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte")
    else:
        assert _split_csv(f) == split


def test_line_over_the_field_limit_with_short_fields_reads_as_before(tmp_path):
    # the split refuses each line; csv.reader reads its two 70,000-character fields,
    # and the fields of the line that is over the limit in bytes only
    f = tmp_path / "edges.csv"
    for line in (f"{'a' * 70_000},{'b' * 70_000}", f"{'é' * 70_000},b"):
        f.write_text(f"x,y\n{line}\nc,d\n", encoding="utf-8")
        expected = outcome(oracle_ingest, f, None, ("x", "y"))
        assert outcome(cli_ingest, f, None, ("x", "y")) == expected


def test_undecodable_edge_file_reports_as_before(tmp_path):
    f = tmp_path / "edges.csv"
    f.write_bytes(b"following,followed\n" + b"a,b\n" * 5000 + b"\xff,a\n")
    cols = ("following", "followed")
    message = outcome(cli_ingest, f, None, cols)
    assert "can't decode byte 0xff" in message
    assert message == (
        f"{f}: 'utf-8' codec can't decode byte 0xff in position 20019: invalid start byte")


def test_a_bad_edge_file_is_reported_before_a_bad_roster(tmp_path, capsys):
    edges, roster = tmp_path / "edges.csv", tmp_path / "roster.csv"
    edges.write_text("following,followed\na,b\nc,\n")
    roster.write_text("screen_name\na\na\n")
    assert main(["pagerank", str(edges), "--format", "edgelist", "--roster", str(roster)]) == 1
    assert capsys.readouterr().err == (
        f"error: {edges}, line 3: edge row has an empty 'followed' field\n"
    )


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_follower_edges(f, header: str = "following,followed"):
    """10^5 edges among 25,000 accounts, in the screen-name layout of a follower network."""
    rng = np.random.default_rng(3)
    src, dst = rng.integers(25_000, size=(2, 100_000))
    with open(f, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(f"user{a:06d},user{b:06d}\n" for a, b in zip(src.tolist(), dst.tolist()))


def test_ingest_peak_is_no_higher_than_the_pair_list_path(tmp_path):
    f = tmp_path / "edges.csv"
    write_follower_edges(f)
    cols = ("following", "followed")
    bound = traced_peak(lambda: oracle_ingest(f, None, cols))
    assert traced_peak(lambda: cli_ingest(f, None, cols)) <= bound


def test_streamed_file_peaks_below_the_split_one(tmp_path):
    # a quoted header sends the file to csv.reader, which reads it line by line
    # from the file: no copy of its text is held beside the fields
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    write_follower_edges(plain)
    write_follower_edges(quoted, '"following","followed"')
    assert _split_csv(plain) is not None and _split_csv(quoted) is None
    ends = _read_ends(quoted, "following", "followed")
    assert ends == _read_ends(plain, "following", "followed")
    del ends
    bound = 0.9 * traced_peak(lambda: _read_ends(plain, "following", "followed"))
    assert traced_peak(lambda: _read_ends(quoted, "following", "followed")) <= bound
