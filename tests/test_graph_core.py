import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netrank import (
    AdjacencyMatrix,
    PowerIterConfig,
    augment_adjacency,
    load_dense_matrix,
    load_edge_list,
    markovrank,
    pagerank,
    patch_zero_rows,
    read_dense_csv,
    read_edge_list_csv,
    read_roster_csv,
    transition_from_patched,
)
from netrank.graph_core import _digit_grid, _load_dense

import golden


class TestAdjacencyMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            AdjacencyMatrix.from_entries([[0, 1, 0], [1, 0, 0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            AdjacencyMatrix.from_entries([[0, -1], [0, 0]])

    def test_rejects_no_nodes(self):
        with pytest.raises(ValueError) as info:
            AdjacencyMatrix.from_entries(np.zeros((0, 0)))
        assert str(info.value) == "adjacency matrix must have at least one node"

    @pytest.mark.parametrize(
        "entries", [[[1e308, 1e308], [0, 1]], [[1e308, 0], [1e308, 0]], [[1.7e308] * 3] * 3]
    )
    def test_rejects_overflowing_total(self, entries):
        with pytest.raises(ValueError) as info:
            AdjacencyMatrix.from_entries(entries)
        assert str(info.value) == (
            "adjacency weights overflow: their total exceeds the float64 range"
        )

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[np.nan, 1e308], [1e308, 0]], "adjacency entries must be finite"),
            ([[np.inf, -1], [0, 0]], "adjacency entries must be finite"),
            ([[1e308, 1e308], [-1, 0]], "adjacency entries must be non-negative"),
        ],
    )
    def test_overflow_check_keeps_entry_messages(self, entries, message):
        with pytest.raises(ValueError) as info:
            AdjacencyMatrix.from_entries(entries)
        assert str(info.value) == message

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="distinct"):
            AdjacencyMatrix(np.zeros((2, 2)), ("a", "a"))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix(np.zeros((2, 2)), ("a", "b", "c"))

    def test_entries_are_read_only(self):
        adj = AdjacencyMatrix.from_entries([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            adj.entries[0, 0] = 5.0

    def test_writable_input_is_copied(self):
        source = np.array([[0.0, 1.0], [1.0, 0.0]])
        adj = AdjacencyMatrix(source, ("a", "b"))
        source[0, 0] = 5.0
        assert adj.entries[0, 0] == 0.0

    def test_read_only_input_is_adopted(self):
        # builders hand over fresh n x n arrays this way, without a copy
        source = np.array([[0.0, 1.0], [1.0, 0.0]])
        source.setflags(write=False)
        assert AdjacencyMatrix(source, ("a", "b")).entries is source


class TestLoadEdgeList:
    def test_four_node_roster(self):
        edges = [("p1", "p2"), ("p1", "p4"), ("p2", "p1"), ("p2", "p3"),
                 ("p3", "p2"), ("p4", "p2")]
        adj = load_edge_list(edges, roster=["p1", "p2", "p3", "p4"])
        np.testing.assert_array_equal(adj.entries, golden.FOUR_NODE.entries)
        assert adj.labels == ("p1", "p2", "p3", "p4")

    def test_single_edge_without_roster(self):
        adj = load_edge_list([("a", "b")])
        np.testing.assert_array_equal(adj.entries, [[0, 1], [0, 0]])
        assert adj.labels == ("a", "b")

    def test_duplicate_edges_collapse(self):
        once = load_edge_list([("a", "b")])
        twice = load_edge_list([("a", "b"), ("a", "b")])
        np.testing.assert_array_equal(once.entries, twice.entries)

    def test_first_appearance_order(self):
        adj = load_edge_list([("c", "a"), ("a", "b")])
        assert adj.labels == ("c", "a", "b")

    def test_isolated_roster_nodes_get_zero_rows(self):
        adj = load_edge_list([("a", "b")], roster=["a", "b", "c"])
        assert adj.entries[2].sum() == 0
        assert adj.entries[:, 2].sum() == 0

    def test_self_edge_recorded(self):
        adj = load_edge_list([("a", "a"), ("a", "b")])
        assert adj.entries[0, 0] == 1

    def test_unknown_label_with_roster(self):
        with pytest.raises(ValueError, match="not in roster"):
            load_edge_list([("a", "z")], roster=["a", "b"])

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no nodes"):
            load_edge_list([])

    def test_empty_edges_with_roster_is_fine(self):
        adj = load_edge_list([], roster=["a", "b"])
        assert adj.entries.sum() == 0


def looped_load_edge_list(edge_rows, roster=None):
    """load_edge_list with a label-index branch and a per-edge loop, as an oracle."""
    edges = []
    for row in edge_rows:
        if len(row) != 2:
            raise ValueError(f"edge row must have two labels, got {row!r}")
        a, b = str(row[0]), str(row[1])
        if not a or not b:
            raise ValueError(f"edge row has an empty label: {row!r}")
        edges.append((a, b))

    if roster is not None:
        labels = tuple(str(l) for l in roster)
        index = {l: i for i, l in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("roster labels must be pairwise distinct")
        for a, b in edges:
            if a not in index or b not in index:
                raise ValueError(f"edge label not in roster: {a if a not in index else b!r}")
    else:
        index = {}
        for a, b in edges:
            for l in (a, b):
                if l not in index:
                    index[l] = len(index)
        labels = tuple(index)

    if not labels:
        raise ValueError("no nodes: empty edge list and no roster")
    entries = np.zeros((len(labels), len(labels)))
    for a, b in edges:
        entries[index[a], index[b]] = 1.0
    return AdjacencyMatrix(entries, labels)


def edge_list_outcome(load, edges, roster):
    """Labels and entries of a load, or the message of the ValueError it raises."""
    try:
        adj = load(edges, roster)
    except ValueError as exc:
        return str(exc)
    return adj.labels, adj.entries.tolist()


def random_edge_list(seed):
    """Small seeded edge list over str and int labels, with duplicates and self-edges."""
    rng = np.random.default_rng(seed)
    pool = [f"u{i}" for i in range(rng.integers(1, 6))] + list(range(rng.integers(0, 5)))
    pool = pool or ["u0"]
    picks = rng.integers(0, len(pool), size=(rng.integers(0, 25), 2))
    return [(pool[i], pool[j]) for i, j in picks], pool


@pytest.mark.parametrize("seed", range(40))
def test_load_edge_list_matches_loop(seed):
    edges, pool = random_edge_list(seed)
    rng = np.random.default_rng(seed + 1000)
    # a shuffled roster with isolated extra nodes, and no roster at all
    roster = [pool[i] for i in rng.permutation(len(pool))] + ["iso1", "iso2"][: seed % 3]
    for r in (roster, None):
        got = edge_list_outcome(load_edge_list, edges, r)
        assert got == edge_list_outcome(looped_load_edge_list, edges, r)
        assert isinstance(got, tuple) or (r is None and not edges)


@pytest.mark.parametrize(
    "edges, roster, message",
    [
        ([("a", "b")], ["a", "b", "a"], "roster labels must be pairwise distinct"),
        ([("a", "b"), ("a", "y"), ("x", "b")], ["a", "b"], "edge label not in roster: 'y'"),
        ([("a", "b"), ("x", "y")], ["a", "b"], "edge label not in roster: 'x'"),
        ([(1, 2), (2, 3)], [1, 2], "edge label not in roster: '3'"),
        ([("a", "b")], [], "edge label not in roster: 'a'"),
        ([], None, "no nodes: empty edge list and no roster"),
        ([], [], "no nodes: empty edge list and no roster"),
        ([("a", "b"), ("c",)], ["a"], "edge row must have two labels, got ('c',)"),
        ([("a", "z"), ("c", "")], ["a", "a"], "edge row has an empty label: ('c', '')"),
    ],
)
def test_load_edge_list_errors_match_loop(edges, roster, message):
    assert edge_list_outcome(load_edge_list, edges, roster) == message
    assert edge_list_outcome(looped_load_edge_list, edges, roster) == message


class TestEdgeStorage:
    """load_edge_list keeps its matrix as edges and scatters `entries` on demand."""

    @pytest.mark.parametrize("seed", range(20))
    def test_rankings_match_the_dense_copy_bit_for_bit(self, seed):
        edges, pool = random_edge_list(seed)
        edges += [(pool[0], pool[0])] + edges[:3]  # a self-edge and duplicates
        adj = load_edge_list(edges, pool + ["iso"])  # an isolated roster node
        dense = AdjacencyMatrix(adj.entries, adj.labels)
        cfg = PowerIterConfig(tolerance=1e-13)
        for rank, param in ((pagerank, 0.85), (pagerank, 0.5), (markovrank, 1.0),
                            (markovrank, 0.1)):
            for method in ("exact", "power"):
                a, b = rank(adj, param, method, cfg), rank(dense, param, method, cfg)
                assert a.values.tobytes() == b.values.tobytes()
                assert (a.iterations, a.labels) == (b.iterations, b.labels)

    def test_entries_are_a_read_only_scatter(self):
        adj = load_edge_list([("b", "a"), ("a", "b"), ("b", "b"), ("a", "b")], ["a", "b", "c"])
        expected = np.zeros((3, 3))
        expected[[0, 1, 1], [1, 0, 1]] = 1.0
        e = adj.entries
        assert e.dtype == np.float64 and e.flags.c_contiguous and not e.flags.writeable
        assert e.tobytes() == expected.tobytes()
        assert adj.entries is e
        with pytest.raises(ValueError):
            e[0, 0] = 1.0

    def test_fields_cannot_be_assigned(self):
        adj = load_edge_list([("a", "b")])
        for name in ("entries", "labels"):
            with pytest.raises(AttributeError):
                setattr(adj, name, None)
            with pytest.raises(AttributeError):
                delattr(adj, name)
        assert adj.labels == ("a", "b")

    def test_n_and_power_rankings_never_build_entries(self):
        adj = load_edge_list([("a", "b"), ("b", "c"), ("c", "a"), ("c", "b")], ["a", "b", "c", "d"])
        assert adj.n == 4
        pagerank(adj, 0.85, "power")
        markovrank(adj, 1.0, "power")
        assert "entries" not in vars(adj)

    def test_power_rankings_of_a_large_edge_list_stay_linear_in_edges(self):
        # n^2 float64 entries would take 80 GB; the edges take a few MB
        n, degree = 100_000, 4
        rng = np.random.default_rng(7)
        labels = [f"u{i}" for i in range(n)]
        dst = rng.integers(0, n, size=n * degree).tolist()
        edges = [(labels[k // degree], labels[j]) for k, j in enumerate(dst)]
        tracemalloc.start()
        try:
            adj = load_edge_list(edges, labels)
            pr = pagerank(adj, 0.85, "power")
            mr = markovrank(adj, 1.0, "power")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160 * len(edges)
        assert pr.n == mr.n == n


class TestLoadDenseMatrix:
    def test_symmetric_2x2(self):
        adj = load_dense_matrix("0,1\n1,0")
        np.testing.assert_array_equal(adj.entries, [[0, 1], [1, 0]])
        assert adj.labels == ("1", "2")

    def test_example_a_grid(self):
        adj = load_dense_matrix("0,0,1\n1,0,1\n0,1,0")
        np.testing.assert_array_equal(adj.entries, golden.EX_A.entries)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError) as info:
            load_dense_matrix("0,-1\n0,0")
        assert str(info.value) == "dense matrix input, line 1: negative entry '-1'"

    def test_non_square_rejected(self):
        with pytest.raises(ValueError) as info:
            load_dense_matrix("0,1,0\n1,0,1")
        assert str(info.value) == (
            "dense matrix input, line 1: dense matrix must be square, got 2x3"
        )

    def test_whitespace_grid(self):
        adj = load_dense_matrix("0 1\n1 0")
        np.testing.assert_array_equal(adj.entries, [[0, 1], [1, 0]])

    def test_header_row_becomes_labels(self):
        adj = load_dense_matrix("a,b\n0,1\n1,0")
        assert adj.labels == ("a", "b")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError) as info:
            load_dense_matrix("0,1\n1")
        assert str(info.value) == (
            "dense matrix input, line 2: ragged row of width 1, where line 1 has width 2"
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError) as info:
            load_dense_matrix("  \n ")
        assert str(info.value) == "dense matrix input: empty dense matrix"

    @pytest.mark.parametrize(
        "text, token",
        [
            ("0,1\nx,0", "x"),
            ("0,1\n x ,0", "x"),
            ("0,1,0\n0,,1\n1,0,0", ""),
            ("0,1,0\n1,0,\n0,1,0", ""),
            ("0 1\n1 y", "y"),
            ("0,1\n0x10,0", "0x10"),
        ],
    )
    def test_non_numeric_entry_message(self, text, token):
        with pytest.raises(ValueError) as info:
            load_dense_matrix(text)
        assert str(info.value) == f"dense matrix input, line 2: non-numeric entry {token!r}"

    def test_first_bad_token_is_named(self):
        with pytest.raises(ValueError, match="line 2: non-numeric entry 'p'"):
            load_dense_matrix("0,1,0\n0,p,q\nr,0,0")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("a,a\n0,1\n1,0", "line 1: header repeats label 'a'"),
            ("a,b,c\n0,1\n1,0", "line 1: header has 3 labels for 2 columns"),
            (",b\n0,1\n1,0", "line 1: header has an empty label in column 1"),
            ("a,  \n0,1\n1,0", "line 1: header has an empty label in column 2"),
            (",\n0,1\n1,0", "line 1: header has an empty label in column 1"),
            ("\n  \nb a b\n0 1 0\n1 0 1\n0 1 0", "line 3: header repeats label 'b'"),
            # \x0c and \x85 end no line: the header is on line 2
            ("\x0c\x85\r\nx,x\n0,1\n1,0", "line 2: header repeats label 'x'"),
        ],
    )
    def test_bad_header_names_its_line(self, text, problem):
        with pytest.raises(ValueError) as info:
            load_dense_matrix(text)
        assert str(info.value) == f"dense matrix input, {problem}"

    def test_bad_header_names_the_file(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("\ufeffx,y,x\n0,1,0\n1,0,1\n0,1,0\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_dense_csv(path)
        assert str(info.value) == f"{path}, line 1: header repeats label 'x'"

    @pytest.mark.parametrize(
        "text, problem",
        [
            (" \n\n", ": empty dense matrix"),
            ("\na,b\n", ", line 2: header has no data rows"),
            ("0,1\n\n1,0,1\n", ", line 3: ragged row of width 3, where line 1 has width 2"),
            ("0,1\n1,y\n", ", line 2: non-numeric entry 'y'"),
            ("0,1\n1,0\n1,1\n", ", line 3: dense matrix must be square, got 3x2"),
        ],
    )
    def test_grid_errors_name_the_file_and_line(self, tmp_path, text, problem):
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_dense_csv(path)
        assert str(info.value) == f"{path}{problem}"

    def test_header_without_data_rows(self):
        with pytest.raises(ValueError) as info:
            load_dense_matrix("a,b\n\n")
        assert str(info.value) == "dense matrix input, line 1: header has no data rows"

    def test_quoted_numeric_fields(self):
        adj = load_dense_matrix('"0","1"\n"1","0"')
        np.testing.assert_array_equal(adj.entries, [[0, 1], [1, 0]])
        assert adj.labels == ("1", "2")

    def test_spaces_around_comma_tokens(self):
        adj = load_dense_matrix("0, 1\n 1 ,0 ")
        np.testing.assert_array_equal(adj.entries, [[0, 1], [1, 0]])

    def test_mixed_comma_and_whitespace_rows(self):
        adj = load_dense_matrix("0,1,0\n1 0 1\n0,1,0")
        np.testing.assert_array_equal(adj.entries, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_header_labels_are_stripped(self):
        adj = load_dense_matrix("a, b\n0,1\n1,0")
        assert adj.labels == ("a", "b")

    def test_whitespace_header(self):
        adj = load_dense_matrix("a b\n0 1\n1 0")
        assert adj.labels == ("a", "b")

    def test_number_forms(self):
        adj = load_dense_matrix("1_0,.5\n1e1,+2")
        np.testing.assert_array_equal(adj.entries, [[10, 0.5], [10, 2]])

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400", "-inf"])
    def test_non_finite_tokens_reach_finite_check(self, token):
        with pytest.raises(ValueError) as info:
            load_dense_matrix(f"0,{token}\n1,0")
        assert str(info.value) == f"dense matrix input, line 1: non-finite entry {token!r}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n0,1\n -2 ,0\n", "line 3: negative entry '-2'"),
            ("0 1\n\n-1 nan\n", "line 3: negative entry '-1'"),
            ("0,-1\nnan,0\n", "line 1: negative entry '-1'"),
            ("0,1\ninf,-1\n", "line 2: non-finite entry 'inf'"),
            ("0,-1\n1\n", "line 2: ragged row of width 1, where line 1 has width 2"),
        ],
        ids=["header", "whitespace", "negative-first", "non-finite-first", "ragged-first"],
    )
    def test_bad_entry_names_its_line_and_token(self, text, message):
        # the first bad cell in row-major order, after every shape and header check
        with pytest.raises(ValueError) as info:
            load_dense_matrix(text)
        assert str(info.value) == f"dense matrix input, {message}"


# Tokens whose float() verdict the bulk numpy conversion must share.
PROBE_TOKENS = [
    "0", "1", " 1 ", "1.5", "-2", "+3", "1e3", "1E-3", ".5", "5.", "1_000",
    "١٢", "inf", "-inf", "Infinity", "nan", "NaN", "1e400", "",
    "x", "0x10", "1d3", "1 2", "\t2\n", "1__0", "_1", " ",
]


@pytest.mark.parametrize("token", PROBE_TOKENS)
def test_numpy_conversion_matches_float(token):
    try:
        expected = float(token)
    except ValueError:
        with pytest.raises(ValueError):
            np.array([[token]], dtype=float)
        return
    got = np.array([[token]], dtype=float)[0, 0]
    assert got == expected or (np.isnan(got) and np.isnan(expected))


def assert_same_adjacency(got, expected):
    assert got.labels == expected.labels
    assert got.entries.dtype == expected.entries.dtype == np.float64
    assert got.entries.shape == expected.entries.shape
    assert got.entries.tobytes() == expected.entries.tobytes()


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 100])
@pytest.mark.parametrize(
    "end, last", [("\n", "\n"), ("\n", ""), ("\r\n", "\r\n"), ("\r\n", "")],
    ids=["lf", "lf-no-final", "crlf", "crlf-no-final"],
)
def test_digit_grid_matches_the_general_parser(tmp_path, n, end, last):
    digits = np.random.default_rng(n).integers(0, 10, (n, n))
    full = "".join(",".join(map(str, row)) + end for row in digits)
    text = full[: len(full) - len(end)] + last
    oracle = full + end  # a trailing blank line: the shortcut refuses it
    assert _digit_grid(text.encode()) is not None
    assert _digit_grid(oracle.encode()) is None
    expected = load_dense_matrix(oracle)
    np.testing.assert_array_equal(expected.entries, digits)
    assert_same_adjacency(load_dense_matrix(text), expected)
    path = tmp_path / "grid.csv"
    path.write_bytes(text.encode("ascii"))
    assert_same_adjacency(read_dense_csv(path), expected)


# Near misses of gen's layout, with what the general parser made of them
# before the shortcut existed: entries and labels, or the error message.
OFF_LAYOUT = [
    ("a,b,c\n0,1,0\n1,0,1\n", "dense matrix input, line 2: dense matrix must be square, got 2x3"),
    ("0, 1\n1,0\n", ([[0, 1], [1, 0]], ("1", "2"))),
    ('"0",1\n1,0\n', ([[0, 1], [1, 0]], ("1", "2"))),
    ("10,1\n1,0\n", ([[10, 1], [1, 0]], ("1", "2"))),
    ("0.5,1\n1,0\n", ([[0.5, 1], [1, 0]], ("1", "2"))),
    ("١,1\n1,0\n", ([[1, 1], [1, 0]], ("1", "2"))),
    ("0,1\r1,0\n", ([[0, 1], [1, 0]], ("1", "2"))),
    ("0,1\n\n1,0\n", ([[0, 1], [1, 0]], ("1", "2"))),
    ("0,1\n1\n", "dense matrix input, line 2: ragged row of width 1, where line 1 has width 2"),
    ("0,1,0\n1,0,1\n", "dense matrix input, line 1: dense matrix must be square, got 2x3"),
    ("0,1\n1,0\n1,1\n", "dense matrix input, line 3: dense matrix must be square, got 3x2"),
    ("", "dense matrix input: empty dense matrix"),
    ("0 1\n1 0\n", ([[0, 1], [1, 0]], ("1", "2"))),
]


@pytest.mark.parametrize(
    "text, expected", OFF_LAYOUT,
    ids=["header", "space", "quoted", "two-digit", "decimal", "non-ascii", "lone-cr",
         "blank-inner-line", "ragged", "n-by-n+1", "n+1-by-n", "empty", "whitespace"],
)
def test_off_layout_grids_keep_the_general_parser(text, expected):
    assert _digit_grid(text.encode()) is None
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            load_dense_matrix(text)
        assert str(info.value) == expected
    else:
        entries, labels = expected
        adj = load_dense_matrix(text)
        np.testing.assert_array_equal(adj.entries, entries)
        assert adj.labels == labels


def text_read_dense(path):
    """read_dense_csv as it read before it took bytes: the file decoded first, as an oracle."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return _load_dense(text, str(path))


def dense_outcome(read, path):
    try:
        adj = read(path)
    except ValueError as exc:
        return str(exc)
    return adj.labels, adj.entries.shape, adj.entries.tobytes()


@pytest.mark.parametrize(
    "data",
    [
        b"\xef\xbb\xbf0,1\n1,0\n",
        b"\xef\xbb\xbf\xef\xbb\xbf0,1\n1,0\n",
        b"\xef\xbb\xbfa,b\n0,1\n1,0\n",
        b"0,1\r\n1,0\r\n",
        b"0,1\r\n1,0",
        b"0,1\n1,0",
        b"0,1\r1,0\r",
        b"0,1\n1,0\n\n",
        b"0,1\n1,\xff\n",
        b"\xef\xbb\xbf0,\xe9\n1,0\n",
        b"\xef\xbb",
        b"",
        "\u0661\u0662,0\n0,1\n".encode(),
        "\u0661,0\n0,1\n".encode("utf-16"),
        b"0,1\n1\n",
        b"0,1,0\n1,0,1\n",
        b"x,y,x\n0,1,0\n1,0,1\n0,1,0\n",
        b"a,b\n0,1\n",
    ],
    ids=["bom", "bom-twice", "bom-header", "crlf", "crlf-no-final", "no-final", "lone-cr",
         "blank-last-line", "non-utf8", "bom-non-utf8", "truncated-bom", "empty",
         "arabic-indic-digits", "utf16", "short-row", "not-square", "repeated-header-column",
         "header-short-grid"],
)
def test_dense_file_reader_matches_decoding_first(tmp_path, data):
    path = tmp_path / "grid.csv"
    path.write_bytes(data)
    assert dense_outcome(read_dense_csv, path) == dense_outcome(text_read_dense, path)


class TestDegrees:
    def test_four_node_out(self):
        np.testing.assert_array_equal(golden.FOUR_NODE.entries.sum(axis=1), [2, 2, 1, 1])

    def test_four_node_in(self):
        np.testing.assert_array_equal(golden.FOUR_NODE.entries.sum(axis=0), [1, 3, 1, 1])

    def test_zero_matrix(self):
        adj = AdjacencyMatrix.from_entries(np.zeros((3, 3)))
        np.testing.assert_array_equal(adj.entries.sum(axis=1), [0, 0, 0])

    def test_six_node_degrees(self):
        np.testing.assert_array_equal(golden.EX1.entries.sum(axis=1), golden.EX1_OUT)
        np.testing.assert_array_equal(golden.EX1.entries.sum(axis=0), golden.EX1_IN)


def weighted_with_zero_rows(seed, n=30, order="C"):
    rng = np.random.default_rng(seed)
    entries = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    entries[rng.random(n) < 0.3] = 0.0
    return AdjacencyMatrix.from_entries(np.asarray(entries, order=order))


EDGES = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("a", "b")]
DEGREE_NETWORKS = {
    **{
        name: getattr(golden, name)
        for name in ("FOUR_NODE", "FOUR_NODE_ZERO_ROW", "EX1", "EX_A", "EX_B", "EX_C", "EX_D")
    },
    **{f"weighted_{seed}": weighted_with_zero_rows(seed) for seed in range(3)},
    "weighted_f_order": weighted_with_zero_rows(3, order="F"),
    "augmented": augment_adjacency(patch_zero_rows(weighted_with_zero_rows(4)), 0.3),
    "edge_list": load_edge_list(EDGES),
    "edge_list_with_isolated_roster_nodes": load_edge_list(EDGES, ["x", "a", "y", "b", "c"]),
}


@pytest.mark.parametrize("name", DEGREE_NETWORKS)
def test_out_degrees_are_the_row_sums(name):
    adj = DEGREE_NETWORKS[name]
    assert adj._out_degrees.tobytes() == adj.entries.sum(axis=1).tobytes()
    dense = AdjacencyMatrix(adj.entries, adj.labels)
    assert dense._out_degrees.tobytes() == adj._out_degrees.tobytes()


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("name", DEGREE_NETWORKS)
def test_degree_readers_match_row_sum_formulas(name, eps):
    # the oracles: each function's formula when it summed the rows itself
    adj = DEGREE_NETWORKS[name]
    entries = adj.entries.copy()
    entries[entries.sum(axis=1) == 0] = 1.0
    patched = patch_zero_rows(adj)
    assert patched.entries.tobytes() == entries.tobytes()
    for base in (patched, adj) if (adj.entries.sum(axis=1) > 0).all() else (patched,):
        rowsums = base.entries.sum(axis=1)
        chain = transition_from_patched(base).entries
        assert chain.tobytes() == (base.entries.T / rowsums).tobytes()
        n = base.n
        hub = np.zeros((n + 1, n + 1))
        hub[:n, :n] = base.entries
        hub[:n, n] = 0.5 * eps * rowsums / rowsums.sum()
        hub[n, :n] = 1.0
        assert augment_adjacency(base, eps).entries.tobytes() == hub.tobytes()


class TestPatchZeroRows:
    def test_six_node_zero_row(self):
        patched = patch_zero_rows(golden.EX1)
        np.testing.assert_array_equal(patched.entries[5], np.ones(6))
        np.testing.assert_array_equal(patched.entries[:5], golden.EX1.entries[:5])

    def test_identity_on_positive_rows(self):
        patched = patch_zero_rows(golden.FOUR_NODE)
        np.testing.assert_array_equal(patched.entries, golden.FOUR_NODE.entries)

    def test_one_by_one(self):
        patched = patch_zero_rows(AdjacencyMatrix.from_entries([[0.0]]))
        np.testing.assert_array_equal(patched.entries, [[1.0]])

    def test_labels_preserved(self):
        adj = load_edge_list([("a", "b")])
        assert patch_zero_rows(adj).labels == adj.labels


adjacency_entries = st.integers(1, 8).flatmap(
    lambda n: arrays(
        float, (n, n), elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5])
    )
)


@given(adjacency_entries)
@settings(max_examples=60, deadline=None)
def test_patch_is_idempotent(entries):
    adj = AdjacencyMatrix.from_entries(entries)
    once = patch_zero_rows(adj)
    twice = patch_zero_rows(once)
    np.testing.assert_array_equal(once.entries, twice.entries)


@given(adjacency_entries)
@settings(max_examples=60, deadline=None)
def test_patch_makes_out_degrees_positive(entries):
    patched = patch_zero_rows(AdjacencyMatrix.from_entries(entries))
    assert (patched.entries.sum(axis=1) > 0).all()


class TestCsvReaders:
    def test_edge_list_and_roster_files(self, tmp_path):
        edge_file = tmp_path / "edges.csv"
        edge_file.write_text(
            "following,followed\np1,p2\np1,p4\np2,p1\np2,p3\np3,p2\np4,p2\n"
        )
        roster_file = tmp_path / "roster.csv"
        roster_file.write_text("id,screen_name,party\n1,p1,x\n2,p2,y\n3,p3,x\n4,p4,y\n")
        adj = load_edge_list(read_edge_list_csv(edge_file), read_roster_csv(roster_file))
        np.testing.assert_array_equal(adj.entries.sum(axis=1), [2, 2, 1, 1])
        np.testing.assert_array_equal(adj.entries.sum(axis=0), [1, 3, 1, 1])

    def test_edge_list_missing_columns(self, tmp_path):
        f = tmp_path / "edges.csv"
        f.write_text("src,dst\na,b\n")
        with pytest.raises(ValueError, match="missing edge-list columns"):
            read_edge_list_csv(f)

    def test_empty_edge_list_file(self, tmp_path):
        f = tmp_path / "edges.csv"
        f.write_text("")
        with pytest.raises(ValueError) as info:
            read_edge_list_csv(f)
        assert str(info.value) == f"{f}: empty edge-list file"

    def test_edge_list_custom_columns(self, tmp_path):
        f = tmp_path / "edges.csv"
        f.write_text("src,dst\na,b\n")
        assert read_edge_list_csv(f, "src", "dst") == [("a", "b")]

    def test_edge_list_repeated_column_is_its_last(self, tmp_path):
        f = tmp_path / "edges.csv"
        f.write_text("following,followed,following\na,b,c\n\nd,e,f\n")
        assert read_edge_list_csv(f) == [("c", "b"), ("f", "e")]
        f.write_text("following,followed,following\na,b\n")
        with pytest.raises(ValueError) as info:
            read_edge_list_csv(f)
        assert str(info.value) == f"{f}, line 2: edge row has no 'following' column"

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("following,followed\na,b\nc\n", 3, "followed"),
            ("following,followed\n\nc\n", 3, "followed"),
            ("followed,x,following\nb,1\n", 2, "following"),
        ],
    )
    def test_edge_list_short_row_rejected(self, tmp_path, text, line, col):
        f = tmp_path / "edges.csv"
        f.write_text(text)
        with pytest.raises(ValueError) as info:
            read_edge_list_csv(f)
        assert str(info.value) == f"{f}, line {line}: edge row has no {col!r} column"

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("following,followed\na,b\nc,\n", 3, "followed"),
            ("following,followed\n,b\n", 2, "following"),
            ('followed,x,following\nb,1,""\n', 2, "following"),
        ],
    )
    def test_edge_list_empty_field_rejected(self, tmp_path, text, line, col):
        f = tmp_path / "edges.csv"
        f.write_text(text)
        with pytest.raises(ValueError) as info:
            read_edge_list_csv(f)
        assert str(info.value) == f"{f}, line {line}: edge row has an empty {col!r} field"

    @pytest.mark.parametrize(
        "text, line, problem",
        [
            ("id,screen_name\n1,p1\n4\n", 3, "no 'screen_name' column"),
            ("id,screen_name\n1,p1\n4,\n", 3, "an empty 'screen_name' field"),
        ],
    )
    def test_roster_bad_row_rejected(self, tmp_path, text, line, problem):
        f = tmp_path / "roster.csv"
        f.write_text(text)
        with pytest.raises(ValueError) as info:
            read_roster_csv(f)
        assert str(info.value) == f"{f}, line {line}: roster row has {problem}"

    def test_roster_repeated_name_rejected(self, tmp_path):
        f = tmp_path / "roster.csv"
        f.write_text("id,screen_name\n1,a\n2,b\n3,a\n")
        with pytest.raises(ValueError) as info:
            read_roster_csv(f)
        assert str(info.value) == (
            f"{f}, line 4: roster row repeats screen_name 'a' (first on line 2)"
        )

    @pytest.mark.parametrize(
        "read, text, expected",
        [
            (lambda f: read_dense_csv(f).labels, "a,b\n0,1\n0,0\n", ("a", "b")),
            (read_edge_list_csv, "following,followed\na,b\n", [("a", "b")]),
            (read_roster_csv, "screen_name\nb\na\n", ["b", "a"]),
        ],
        ids=["dense", "edges", "roster"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, read, text, expected):
        # Excel's "CSV UTF-8" export starts the file with U+FEFF
        f = tmp_path / "in.csv"
        f.write_text("\ufeff" + text, encoding="utf-8")
        assert read(f) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "screen_name\na\n\n\nb\n\n",
            "\nscreen_name\na\n",
            "",
            "screen_name,x,screen_name\nq,r,a\nq,r,b\n",
            "screen_name,x,screen_name\nq,r,a\na,r\n",
            'id,screen_name\n"1\n2",a\n3,b\n4,a\n',
            "id,screen_name\n1,a\n\n\n2,\n",
            "id,screen_name,x\n1,a,y,z\n2,b\n",
        ],
    )
    def test_roster_matches_dict_reader(self, tmp_path, text):
        f = tmp_path / "roster.csv"
        f.write_text(text)
        assert read_outcome(read_roster_csv, f) == read_outcome(dict_reader_roster, f)

    def test_roster_missing_column(self, tmp_path):
        f = tmp_path / "roster.csv"
        f.write_text("name\na\n")
        with pytest.raises(ValueError, match="screen_name"):
            read_roster_csv(f)


def dict_reader_roster(path):
    """read_roster_csv through csv.DictReader, as an oracle."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "screen_name" not in reader.fieldnames:
            raise ValueError(f"{path}: roster file needs a 'screen_name' column")
        first_line = {}
        for row in reader:
            where = f"{path}, line {reader.line_num}: roster row"
            label = row["screen_name"]
            if label is None:
                raise ValueError(f"{where} has no 'screen_name' column")
            if not label:
                raise ValueError(f"{where} has an empty 'screen_name' field")
            if label in first_line:
                raise ValueError(
                    f"{where} repeats screen_name {label!r} (first on line {first_line[label]})"
                )
            first_line[label] = reader.line_num
        return list(first_line)


def read_outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)
