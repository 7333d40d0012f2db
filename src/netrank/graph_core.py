"""Directed-network adjacency data: ingestion, validation, zero-row patching."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional, Sequence

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    """Read-only float64 copy of `a`, or `a` itself if it is one (see _adopt)."""
    if (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.owndata and not a.flags.writeable):
        return a
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _adopt(a: np.ndarray) -> np.ndarray:
    """Hand a freshly computed array to a constructor without a second copy.

    Builders of n x n matrices use this: the copy _frozen would otherwise
    make doubles their transient memory (16 MiB for an 8 MiB chain).
    """
    a.setflags(write=False)
    return a


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n))


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Square non-negative matrix with one label per node.

    Entries are 0/1 for simple digraphs, but any non-negative weights are
    accepted.  Instances are immutable; the entry array is read-only.
    """

    entries: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        e = _frozen(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {e.shape}")
        if e.shape[0] == 0:
            raise ValueError("adjacency matrix must have at least one node")
        # one finite total rules out NaN, inf and degrees that overflow
        with np.errstate(over="ignore", invalid="ignore"):
            finite_total = np.isfinite(e.sum())
        if not finite_total and not np.isfinite(e).all():
            raise ValueError("adjacency entries must be finite")
        if (e < 0).any():
            raise ValueError("adjacency entries must be non-negative")
        if not finite_total:
            raise ValueError("adjacency weights overflow: their total exceeds the float64 range")
        labels = tuple(str(l) for l in self.labels)
        if len(labels) != e.shape[0]:
            raise ValueError(f"{len(labels)} labels for {e.shape[0]} nodes")
        if len(set(labels)) != len(labels):
            raise ValueError("node labels must be pairwise distinct")
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_entries(cls, entries) -> "AdjacencyMatrix":
        e = np.asarray(entries, dtype=float)
        return cls(e, default_labels(e.shape[0] if e.ndim == 2 else 0))


def load_edge_list(
    edge_rows: Iterable[tuple[str, str]],
    roster: Optional[Sequence[str]] = None,
) -> AdjacencyMatrix:
    """Build a 0/1 adjacency matrix from (follower, followed) pairs.

    With a roster, node order follows the roster and isolated roster nodes
    keep zero rows/columns; otherwise nodes appear in first-appearance order.
    Duplicate edges collapse to a single 1.  Self-edges are recorded as given.
    """
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
    entries = np.zeros((len(labels), len(labels)))
    entries[nodes[0::2], nodes[1::2]] = 1.0
    return AdjacencyMatrix(_adopt(entries), labels)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _split_row(line: str) -> list[str]:
    return next(csv.reader([line])) if "," in line else line.split()


def load_dense_matrix(text: str) -> AdjacencyMatrix:
    """Parse a dense adjacency grid (comma- or whitespace-separated rows).

    A non-numeric first row is taken as a header and its tokens become the
    node labels; a header of the wrong width or with a repeated label is
    rejected with its line number.  Default labels are "1".."n".
    Numbers are whatever float() accepts; numpy converts the grid in one pass.
    """
    return _load_dense(text, "dense matrix input")


def _load_dense(text: str, source: str) -> AdjacencyMatrix:
    """load_dense_matrix, naming `source` in header errors."""
    rows = [_split_row(line) for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty dense matrix input")
    header = None
    if not all(map(_is_number, rows[0])):
        header = [t.strip() for t in rows.pop(0)]
        if not rows:
            raise ValueError("dense matrix input has a header but no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged dense matrix: row widths {sorted(widths)}")
    try:
        entries = np.array(rows, dtype=float)
    except ValueError:
        bad = next(t for r in rows for t in r if not _is_number(t))
        raise ValueError(f"non-numeric entry {bad.strip()!r} in dense matrix") from None
    if entries.shape[0] != entries.shape[1]:
        raise ValueError(f"dense matrix must be square, got {entries.shape[0]}x{entries.shape[1]}")
    labels = tuple(header) if header is not None else default_labels(entries.shape[0])
    if len(labels) != entries.shape[1] or len(set(labels)) != len(labels):
        # the header is the first non-blank line
        line = next(i for i, l in enumerate(text.splitlines(), 1) if l.strip())
        where = f"{source}, line {line}: header"
        if len(labels) != entries.shape[1]:
            raise ValueError(f"{where} has {len(labels)} labels for {entries.shape[1]} columns")
        repeat = next(l for i, l in enumerate(labels) if l in labels[:i])
        raise ValueError(f"{where} repeats label {repeat!r}")
    return AdjacencyMatrix(_adopt(entries), labels)


def patch_zero_rows(adj: AdjacencyMatrix) -> AdjacencyMatrix:
    """Replace every all-zero row by an all-ones row (diagonal included).

    Rows with positive sum are returned unchanged, so the operation is
    idempotent and the result always has strictly positive out-degrees.
    """
    entries = adj.entries.copy()
    entries[entries.sum(axis=1) == 0] = 1.0
    return AdjacencyMatrix(_adopt(entries), adj.labels)


def read_dense_csv(path) -> AdjacencyMatrix:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return _load_dense(fh.read(), str(path))


def read_edge_list_csv(
    path,
    follower_col: str = "following",
    followed_col: str = "followed",
) -> list[tuple[str, str]]:
    """Read (follower, followed) pairs from a headered CSV.

    The header must contain both named columns; extra columns are ignored.
    A row too short to reach either column, or with either field empty, is
    rejected with its line number.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty edge-list file")
        missing = {follower_col, followed_col} - set(reader.fieldnames)
        if missing:
            raise ValueError(f"{path}: missing edge-list columns {sorted(missing)}")
        edges = []
        for row in reader:
            for col in (follower_col, followed_col):
                _check_field(row[col], f"{path}, line {reader.line_num}: edge row", col)
            edges.append((row[follower_col], row[followed_col]))
        return edges


def _check_field(value: Optional[str], where: str, col: str) -> None:
    """Reject a DictReader field that the row is too short to reach, or that is empty."""
    if value is None:
        raise ValueError(f"{where} has no {col!r} column")
    if not value:
        raise ValueError(f"{where} has an empty {col!r} field")


def read_roster_csv(path) -> list[str]:
    """Read the node roster from a CSV with a `screen_name` column.

    A row too short to reach that column, with it empty, or repeating an
    earlier name is rejected with its line number.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "screen_name" not in reader.fieldnames:
            raise ValueError(f"{path}: roster file needs a 'screen_name' column")
        first_line: dict[str, int] = {}
        for row in reader:
            where = f"{path}, line {reader.line_num}: roster row"
            label = row["screen_name"]
            _check_field(label, where, "screen_name")
            if label in first_line:
                raise ValueError(
                    f"{where} repeats screen_name {label!r} (first on line {first_line[label]})"
                )
            first_line[label] = reader.line_num
        return list(first_line)
