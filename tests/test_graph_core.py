import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netrank import (
    AdjacencyMatrix,
    load_dense_matrix,
    load_edge_list,
    patch_zero_rows,
    read_dense_csv,
    read_edge_list_csv,
    read_roster_csv,
)

import golden


class TestAdjacencyMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            AdjacencyMatrix.from_entries([[0, 1, 0], [1, 0, 0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            AdjacencyMatrix.from_entries([[0, -1], [0, 0]])

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
        assert str(info.value) == "adjacency entries must be non-negative"

    def test_non_square_rejected(self):
        with pytest.raises(ValueError) as info:
            load_dense_matrix("0,1,0\n1,0,1")
        assert str(info.value) == "dense matrix must be square, got 2x3"

    def test_whitespace_grid(self):
        adj = load_dense_matrix("0 1\n1 0")
        np.testing.assert_array_equal(adj.entries, [[0, 1], [1, 0]])

    def test_header_row_becomes_labels(self):
        adj = load_dense_matrix("a,b\n0,1\n1,0")
        assert adj.labels == ("a", "b")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError) as info:
            load_dense_matrix("0,1\n1")
        assert str(info.value) == "ragged dense matrix: row widths [1, 2]"

    def test_empty_rejected(self):
        with pytest.raises(ValueError) as info:
            load_dense_matrix("  \n ")
        assert str(info.value) == "empty dense matrix input"

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
        assert str(info.value) == f"non-numeric entry {token!r} in dense matrix"

    def test_first_bad_token_is_named(self):
        with pytest.raises(ValueError, match="non-numeric entry 'p'"):
            load_dense_matrix("0,1,0\n0,p,q\nr,0,0")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("a,a\n0,1\n1,0", "line 1: header repeats label 'a'"),
            ("a,b,c\n0,1\n1,0", "line 1: header has 3 labels for 2 columns"),
            ("\n  \nb a b\n0 1 0\n1 0 1\n0 1 0", "line 3: header repeats label 'b'"),
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

    def test_header_without_data_rows(self):
        with pytest.raises(ValueError) as info:
            load_dense_matrix("a,b\n\n")
        assert str(info.value) == "dense matrix input has a header but no data rows"

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
        assert str(info.value) == "adjacency entries must be finite"


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

    def test_edge_list_custom_columns(self, tmp_path):
        f = tmp_path / "edges.csv"
        f.write_text("src,dst\na,b\n")
        assert read_edge_list_csv(f, "src", "dst") == [("a", "b")]

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

    def test_roster_missing_column(self, tmp_path):
        f = tmp_path / "roster.csv"
        f.write_text("name\na\n")
        with pytest.raises(ValueError, match="screen_name"):
            read_roster_csv(f)
