"""Directed-network adjacency data: ingestion, validation, zero-row patching."""

from __future__ import annotations

import codecs
import csv
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from typing import Callable, Iterable, Optional, Sequence

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


@dataclass(frozen=True, eq=False, init=False)
class AdjacencyMatrix:
    """Square non-negative matrix with one label per node.

    Entries are 0/1 for simple digraphs, but any non-negative weights are
    accepted.  Instances are immutable; the entry array is read-only.
    load_edge_list, and read_dense_csv of a sparse file in gen's layout, store
    their matrix as weighted edges (`_edge_backed`), and `entries` is scattered
    from them on first access; rankings read the edges instead, so they build
    no n x n adjacency.
    """

    labels: tuple[str, ...]
    _edge_backed = False  # set by _from_edges

    def __init__(self, entries, labels: Sequence[str]):
        e = _frozen(entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {e.shape}")
        if e.shape[0] == 0:
            raise ValueError("adjacency matrix must have at least one node")
        # one finite total of the out-degrees rules out NaN, inf and overflow
        with np.errstate(over="ignore", invalid="ignore"):
            deg = e.sum(axis=1)
            finite_total = np.isfinite(deg.sum())
        if not finite_total and not np.isfinite(e).all():
            raise ValueError("adjacency entries must be finite")
        if e.min() < 0:  # no n x n bool array
            raise ValueError("adjacency entries must be non-negative")
        if not finite_total:
            raise ValueError("adjacency weights overflow: their total exceeds the float64 range")
        labels = tuple(str(l) for l in labels)
        if len(labels) != e.shape[0]:
            raise ValueError(f"{len(labels)} labels for {e.shape[0]} nodes")
        if len(set(labels)) != len(labels):
            raise ValueError("node labels must be pairwise distinct")
        vars(self).update(entries=e, labels=labels, _out_degrees=_adopt(deg))

    @classmethod
    def _from_edges(cls, src: np.ndarray, dst: np.ndarray, labels: tuple[str, ...],
                    weights: Optional[np.ndarray] = None):
        """Unchecked adjacency of distinct edges (src[k], dst[k]) in row-major order, with
        positive float64 `weights` (1 if None); integer weights sum to exact out-degrees."""
        adj = cls.__new__(cls)
        deg = np.bincount(src, weights, minlength=len(labels)).astype(float, copy=False)
        weights = np.broadcast_to(1.0, src.shape) if weights is None else _adopt(weights)
        vars(adj).update(labels=labels, _edges=(_adopt(src), _adopt(dst), weights),
                         _out_degrees=_adopt(deg), _edge_backed=True)
        return adj

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def from_entries(cls, entries) -> "AdjacencyMatrix":
        e = np.asarray(entries, dtype=float)
        return cls(e, default_labels(e.shape[0] if e.ndim == 2 else 0))

    # computed on first use: `entries` by an edge-backed instance, `_edges` by a dense one
    @cached_property
    def entries(self) -> np.ndarray:
        src, dst, weights = self._edges
        e = np.zeros((self.n, self.n))
        e[src, dst] = weights
        return _adopt(e)

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, weight) of the nonzero entries, in row-major order."""
        # np.nonzero on the 2-D float array is ~10x slower than this flat bool scan
        src, dst = np.divmod(np.flatnonzero(self.entries != 0), self.n)
        return _adopt(src), _adopt(dst), _adopt(self.entries[src, dst])


def load_edge_list(
    edge_rows: Iterable[tuple[str, str]],
    roster: Optional[Sequence[str]] = None,
) -> AdjacencyMatrix:
    """Build a 0/1 adjacency matrix from (follower, followed) pairs.

    With a roster, node order follows the roster and isolated roster nodes
    keep zero rows/columns; otherwise nodes appear in first-appearance order.
    Duplicate edges collapse to a single 1.  Self-edges are recorded as given.
    The matrix is stored as its edges, in O(n + edges) memory; reading
    `entries` builds the n x n array.
    """
    ends = []  # follower, followed, follower, ...
    for row in edge_rows:
        if len(row) != 2:
            raise ValueError(f"edge row must have two labels, got {row!r}")
        a, b = str(row[0]), str(row[1])
        if not a or not b:
            raise ValueError(f"edge row has an empty label: {row!r}")
        ends += a, b
    return _from_ends(ends, roster)


def _from_ends(ends: list[str], roster: Optional[Sequence[str]]) -> AdjacencyMatrix:
    """load_edge_list of the edges' labels, follower, followed, follower, ..."""
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
    # row-major keys, sorted, without repeats (np.unique took 16-60x as long on numpy 2.4)
    keys = nodes[0::2] * n
    keys += nodes[1::2]
    keys.sort()
    src, dst = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    return AdjacencyMatrix._from_edges(src, dst, labels)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _split_row(line: str, source: str, at: int) -> list[str]:
    if "," not in line:
        return line.split()
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise ValueError(f"{source}, line {at}: {exc}") from None


def _lines(text: str) -> list[str]:
    r"""Split at \n, \r\n and \r only, not at str.splitlines()'s \x0b, \x1c, \x85, ..."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def load_dense_matrix(text: str) -> AdjacencyMatrix:
    """Parse a dense adjacency grid (comma- or whitespace-separated rows).

    A non-numeric first row is taken as a header and its tokens become the
    node labels (default "1".."n").  A bad header, a ragged or non-square
    grid and a non-numeric entry are rejected with their line number.
    Numbers are whatever float() accepts; numpy converts the grid in one pass.
    """
    return _load_dense(text, "dense matrix input")


def _load_dense(text: str, source: str) -> AdjacencyMatrix:
    """load_dense_matrix, naming `source` and the line in its errors."""
    numbered = [(i, _split_row(line, source, i))
                for i, line in enumerate(_lines(text), 1) if line.strip()]
    at, rows = [i for i, _ in numbered], [row for _, row in numbered]  # rows[k] is on line at[k]
    if not rows:
        raise ValueError(f"{source}: empty dense matrix")
    header = None
    if not all(map(_is_number, rows[0])):
        header, header_line = [t.strip() for t in rows.pop(0)], at.pop(0)
        if not rows:
            raise ValueError(f"{source}, line {header_line}: header has no data rows")
    k = next((k for k, r in enumerate(rows) if len(r) != len(rows[0])), None)
    if k is not None:
        widths = f"width {len(rows[k])}, where line {at[0]} has width {len(rows[0])}"
        raise ValueError(f"{source}, line {at[k]}: ragged row of {widths}")
    try:
        entries = np.array(rows, dtype=float)
    except ValueError:
        k, bad = next((k, t) for k, r in enumerate(rows) for t in r if not _is_number(t))
        raise ValueError(f"{source}, line {at[k]}: non-numeric entry {bad.strip()!r}") from None
    r, c = entries.shape
    if r != c:  # name the first row past a square, or the first row of a wide grid
        line = at[c] if r > c else at[0]
        raise ValueError(f"{source}, line {line}: dense matrix must be square, got {r}x{c}")
    labels = tuple(header) if header is not None else default_labels(r)
    if len(labels) != c or "" in labels or len(set(labels)) != len(labels):
        where = f"{source}, line {header_line}: header"
        if len(labels) != c:
            raise ValueError(f"{where} has {len(labels)} labels for {c} columns")
        if "" in labels:
            raise ValueError(f"{where} has an empty label in column {labels.index('') + 1}")
        repeat = next(l for i, l in enumerate(labels) if l in labels[:i])
        raise ValueError(f"{where} repeats label {repeat!r}")
    return AdjacencyMatrix(_adopt(entries), labels)


def _digit_grid(data: bytes) -> Optional[np.ndarray]:
    r"""The uint8 entries of a file's bytes in gen's layout, or None for the general parser.

    The layout is n lines "d,d,...,d\n" of n cells, each one ASCII digit;
    \r\n may end a line, the last line break may be missing, and the bytes
    may start with a UTF-8 BOM.  It is checked by stride over the bytes, with
    no per-token work.  float() reads each cell as its digit, so the general
    parser gives the same grid.
    """
    data = data.removeprefix(codecs.BOM_UTF8)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    n = math.isqrt(len(data) // 2)
    if 2 * n * n != len(data):
        return None
    grid = np.frombuffer(data, np.uint8).reshape(n, 2 * n)
    digits = grid[:, ::2] - ord("0")  # a byte below "0" wraps past 9
    if ((digits > 9).any() or (grid[:, 1:-1:2] != ord(",")).any()
            or (grid[:, -1] != ord("\n")).any()):
        return None
    return digits


def _digit_grid_bytes(entries: np.ndarray) -> bytes:
    """gen's layout of one-digit entries: the bytes np.savetxt(fmt="%g", delimiter=",") writes."""
    grid = np.full((entries.shape[0], 2 * entries.shape[1]), ord(","), np.uint8)
    grid[:, ::2] = entries.astype(np.uint8) + ord("0")
    grid[:, -1] = ord("\n")
    return grid.tobytes()


def patch_zero_rows(adj: AdjacencyMatrix) -> AdjacencyMatrix:
    """Replace every all-zero row by an all-ones row (diagonal included).

    Rows with positive sum are returned unchanged, so the operation is
    idempotent and the result always has strictly positive out-degrees.
    """
    entries = adj.entries.copy()
    entries[adj._out_degrees == 0] = 1.0
    return AdjacencyMatrix(_adopt(entries), adj.labels)


def _decode(data: bytes, source) -> str:
    """A file's bytes as UTF-8 text, read as a file opened with encoding="utf-8-sig"
    reads them (a truncated BOM too); a bad byte names `source` and its offset
    in `data`, counted after any BOM."""
    try:
        return codecs.getincrementaldecoder("utf-8-sig")().decode(data, final=True)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _split_csv(path) -> Optional[tuple[list[str], list[str]]]:
    """The header and the data fields, in one row-major list, of a CSV file
    that csv.reader splits at every comma; None for any other file.

    That is a text with no '"' or NUL, a header on its first line, and the
    header's number of fields on each non-blank line, none longer than
    csv.field_size_limit().  One numpy scan of the text's UTF-8 bytes checks
    the lines, and one replace and one split read the fields, with no per-line
    Python; csv.reader would give the same rows.  A line is measured in bytes,
    which are at least its characters, so a line refused for its length still
    reads the same through csv.reader.  Every byte is decoded before any row
    is read, so a file that is not UTF-8 raises _decode's ValueError here.
    """
    with open(path, "rb") as fh:
        text = _decode(fh.read(), path)
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    data = np.frombuffer(text.encode(), np.uint8)
    ends = np.append(np.flatnonzero(data == ord("\n")), len(data))  # each line's end
    at = np.flatnonzero(data == ord(","))
    del data
    starts = np.append(0, ends[:-1] + 1)
    commas = at.searchsorted(ends) - at.searchsorted(starts)
    blank = ends == starts  # an empty file is one blank line
    refused = (blank[0] or (ends - starts).max() > csv.field_size_limit()
               or (commas[~blank] != commas[0]).any())
    blanks = int(blank.sum())
    del ends, starts, at, commas, blank  # freed before the split, to keep the peak down
    if refused:
        return None
    if blanks > text.endswith("\n"):  # blank lines are skipped, as _read_columns skips them
        text = re.sub("\n\n+", "\n", text)
    header, _, text = text.removesuffix("\n").partition("\n")
    text = text.replace("\n", ",")
    fields = text.split(",") if text else []
    del text  # before the header's list is made: the peak is the text and its fields
    return header.split(","), fields


def _read_columns(path, names: tuple[str, ...]) -> tuple[
        Optional[list[str]], Optional[list[Optional[str]]], Callable[[int], int]]:
    """(header, columns, line) of a headered CSV file, every byte checked first.

    `header` is the first row, None for an empty file.  `columns` holds the
    fields of the columns `names`, row after row, blank rows skipped, with
    None past the end of a short row; it is None when the header lacks a
    name.  A column named twice in the header is read from its last
    occurrence, as in csv.DictReader.  line(k) is the line of data row k.
    A file _split_csv reads gives its fields uncopied when the header is
    `names`.  csv.reader streams any other file, which _split_csv has decoded
    whole; a field over csv.field_size_limit() names its line.
    """
    def rows():
        """Each row csv.reader reads, [] for a blank one, after the line it ends on."""
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                for row in reader:
                    yield reader.line_num, row
            except csv.Error as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None

    def line(k: int) -> int:
        # only an error asks for a line, so the file is read again, not kept
        return next(islice((at for at, row in rows() if row), k + 1, None))

    split = _split_csv(path)
    reader = None if split else rows()
    header, fields = split or (next(reader, (0, None))[1], [])
    if header is None or not set(names) <= set(header):
        return header, None, line  # before csv.reader reads a field over the limit below
    pad = [None] * len(header)
    for _, row in reader or ():
        if row:  # blank rows are skipped; only a row of another width is cut or padded
            fields += row if len(row) == len(pad) else (row + pad)[:len(pad)]
    column = {name: i for i, name in enumerate(header)}
    cols, k, m = [column[name] for name in names], len(header), len(names)
    if cols == [*range(k)]:  # the header is `names`
        return header, fields, line
    columns = [None] * (len(fields) // k * m)
    for j, i in enumerate(cols):
        columns[j::m] = fields[i::k]
    return header, columns, line


def read_dense_csv(path) -> AdjacencyMatrix:
    """load_dense_matrix of a file; gen's layout is read from its bytes (see _digit_grid).

    A grid with at most a quarter of its cells nonzero is stored as edges,
    weighted by its digits: an exact ranking then holds its n x n chain and
    32 bytes per edge (source, target, weight, and the chain build's
    quotient), no more than the two n x n arrays of a denser grid, which is
    stored as `entries`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    digits = _digit_grid(data)
    if digits is None:
        return _load_dense(_decode(data, path), str(path))
    n = len(digits)
    if 4 * np.count_nonzero(digits) > n * n:
        return AdjacencyMatrix(_adopt(digits.astype(float)), default_labels(n))
    at = np.flatnonzero(digits != 0)  # row-major; the bool scan is faster, as in _edges
    src, dst = np.divmod(at, n)
    return AdjacencyMatrix._from_edges(src, dst, default_labels(n), digits.take(at).astype(float))


def read_edge_list_csv(
    path,
    follower_col: str = "following",
    followed_col: str = "followed",
) -> list[tuple[str, str]]:
    """Read (follower, followed) pairs from a headered CSV (see _read_columns).

    The header must contain both named columns; extra columns are ignored.
    A row too short to reach either column, or with either field empty, is
    rejected with its line number.
    """
    ends = _read_ends(path, follower_col, followed_col)
    return list(zip(ends[0::2], ends[1::2]))


def _read_ends(path, follower_col: str, followed_col: str) -> list[str]:
    """read_edge_list_csv's pairs as one list: follower, followed, follower, ..."""
    cols = (follower_col, followed_col)
    header, ends, line = _read_columns(path, cols)
    if header is None:
        raise ValueError(f"{path}: empty edge-list file")
    if ends is None:
        raise ValueError(f"{path}: missing edge-list columns {sorted(set(cols) - set(header))}")
    if not all(ends):
        k = next(k for k, end in enumerate(ends) if not end)
        _check_field(ends[k], f"{path}, line {line(k // 2)}: edge row", cols[k % 2])
    return ends


def _check_field(value: Optional[str], where: str, col: str) -> None:
    """Reject a field that the row is too short to reach (None), or that is empty."""
    if value is None:
        raise ValueError(f"{where} has no {col!r} column")
    if not value:
        raise ValueError(f"{where} has an empty {col!r} field")


def read_roster_csv(path) -> list[str]:
    """Read the node roster from a CSV with a `screen_name` column (see _read_columns).

    A row too short to reach that column, with it empty, or repeating an
    earlier name is rejected with its line number.
    """
    _, names, line = _read_columns(path, ("screen_name",))
    if names is None:
        raise ValueError(f"{path}: roster file needs a 'screen_name' column")
    if not all(names) or len(set(names)) != len(names):
        first: dict[str, int] = {}  # name -> its data row
        for k, name in enumerate(names):
            if not name or name in first:
                where = f"{path}, line {line(k)}: roster row"
                _check_field(name, where, "screen_name")
                raise ValueError(
                    f"{where} repeats screen_name {name!r} (first on line {line(first[name])})"
                )
            first[name] = k
    return names
