"""On-disk dataset directories and synthetic graph builders.

A dataset directory holds exactly three UTF-8 files, with LF or CRLF line
endings:

* ``meta.json`` - ``{"name", "num_nodes", "num_features", "num_classes"}``
* ``edges.tsv`` - one ``src<TAB>dst`` pair of 0-based ids per line
* ``nodes.tsv`` - one ``id<TAB>label<TAB>f_1,...,f_f`` line per node, with
  comma-separated finite decimal features

Every node id must appear exactly once in ``nodes.tsv``. The loader reports
malformed input with file names and line numbers; only an LF ends a line.

``edges.tsv`` is read whole, its bytes checked once, and parsed by one
``np.loadtxt`` call.
``nodes.tsv`` is read in blocks of about ``_CHUNK_BYTES`` bytes, each cut at
the end of a line, and every block's rows are written straight into the
(N, F) feature table at their ids, so an out-of-order file needs no
reordering. Only a row's id and label are checked one line at a time, as
ASCII digits; its features are checked and parsed once per block. Rows of
``D.D`` tokens (a digit, a dot, a digit, as ``save_dataset`` writes 0/1
features) are converted from their bytes with integer arithmetic and one
exact division; the block's other rows go through one ``np.loadtxt``. The
feature table is marked read-only and handed to
:func:`~diverspec.graph.build_graph`, which adopts it without a copy, so it
stays the only allocation of file size. A file with bytes the blocks do not
take, or with any problem, is read again by a per-line checker, which gives
the same arrays or raises the first problem in line order. No array is
sized by a ``meta.json`` count before the files have proven it: the table
is allocated once ``nodes.tsv`` is large enough to hold it.

:func:`load_dataset` is the one loader of ``train`` and ``analyze``. It is
:func:`read_structure` (the directory, ``meta.json`` and ``edges.tsv``)
followed by the node-table check. ``diagnose`` reads no feature, so it calls
the halves itself: :func:`read_structure`, then :func:`read_labels`, which
makes the same node-table check and keeps only the labels. With two usable
CPUs it runs that check in a forked process; its error still wins over any
later one.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Iterator
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .autodiff import make_rng
from .graph import Graph, build_graph

META_KEYS = ("name", "num_nodes", "num_features", "num_classes")
# Bytes of a nodes.tsv feature field that ``np.loadtxt`` parses exactly as
# ``float`` does: decimals, spaces and commas. Features must be finite, so a
# field spelling inf or nan takes the per-line path, which rejects it. Other
# whitespace (\x0b, \x0c, \x1c-\x1f, a \r that does not end a line), a
# third tab and ``_`` digit grouping parse differently, so such files take the
# per-line path.
_PLAIN_NODE_BYTES = b"0123456789+-.eE ,"
# A feature token "a.b" of two ASCII digits is read as (10a + b) / 10: one IEEE
# division of two exact integers, which is the double nearest the decimal, so
# it equals float("a.b") bit for bit. A field from its tab on is F four-byte
# tokens, a separator and "a.b". Their bytes minus "\t0.0" for the first token
# and _ZERO_TOKEN for the others are (0, a, 0, b), below _TOKEN_BOUND exactly
# when they are the separator, a digit, a dot and a digit.
_ZERO_TOKEN = b",0.0"
_TOKEN_BOUND = bytes([1, 10, 1, 10])
# Bytes of nodes.tsv read per block: a block's temporaries, a few times its
# bytes, stay small next to the table.
_CHUNK_BYTES = 1 << 16
# Bytes of an edges.tsv whose ids ``np.loadtxt`` parses exactly as ``int`` does.
_PLAIN_EDGE_BYTES = b"0123456789\t\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DataError(message)


def _tab_lines(path: Path, layout: str) -> Iterator[tuple[int, str, list[str]]]:
    """``(lineno, line, fields)`` for each nonblank line of ``path``, numbered from 1.

    Each line must be UTF-8 (the file is read with ``errors="surrogateescape"``)
    and hold the tab-separated fields that ``layout`` names, e.g. ``"src<TAB>dst"``;
    otherwise :class:`DataError` names the file and line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise DataError(f"{path} line {lineno}: not valid UTF-8") from None
            parts = line.split("\t")
            _require(
                len(parts) == layout.count("<TAB>") + 1,
                f"{path} line {lineno}: expected '{layout}', got {line!r}",
            )
            yield lineno, line, parts


class DatasetMeta(NamedTuple):
    """The checked counts of a dataset directory's ``meta.json``."""

    num_nodes: int
    num_features: int
    num_classes: int


def read_structure(directory: str | Path) -> tuple[DatasetMeta, np.ndarray | list[tuple[int, int]]]:
    """The ``meta.json`` counts and ``edges.tsv`` pairs of a dataset directory.

    These are the first checks of :func:`load_dataset`, in its order: the
    directory, all three files (``nodes.tsv`` must exist but is not read),
    ``meta.json``, then ``edges.tsv``. :func:`read_labels` completes them.
    """
    directory = Path(directory)
    _require(directory.is_dir(), f"{directory} is not a directory")
    meta_path = directory / "meta.json"
    edges_path = directory / "edges.tsv"
    for path in (meta_path, edges_path, directory / "nodes.tsv"):
        _require(path.is_file(), f"missing dataset file {path}")

    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"{meta_path}: not valid UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{meta_path}: invalid JSON ({exc})") from exc
    _require(isinstance(meta, dict), f"{meta_path}: top level must be an object")
    for key in META_KEYS:
        _require(key in meta, f"{meta_path}: missing key {key!r}")
    for key in META_KEYS[1:]:
        _require(
            isinstance(meta[key], int) and not isinstance(meta[key], bool),
            f"{meta_path}: {key} must be an integer",
        )
    counts = DatasetMeta(*(meta[key] for key in META_KEYS[1:]))
    for key, count in zip(META_KEYS[1:], counts):
        _require(count > 0, f"{meta_path}: {key} must be positive")
    return counts, _read_edges(edges_path, counts.num_nodes)


def read_labels(directory: str | Path, meta: DatasetMeta) -> np.ndarray:
    """The labels of ``nodes.tsv``, after every check :func:`load_dataset` makes of it.

    This is the same block parse: every feature is parsed into the one
    feature table and checked, finite included, then the table is dropped.
    """
    return _read_nodes(Path(directory) / "nodes.tsv", *meta)[1]


def load_dataset(directory: str | Path) -> Graph:
    """Read a dataset directory into a :class:`Graph`.

    Raises :class:`DataError` with the offending file and line for any
    structural problem (missing files, bytes that are not UTF-8, bad field
    counts, out-of-range ids or labels, feature-width mismatches, NaN or
    infinite features, duplicate or missing node rows). The graph's feature array is the parsed one,
    read-only; nothing else holds it.
    """
    meta, edges = read_structure(directory)
    features, labels = _read_nodes(Path(directory) / "nodes.tsv", *meta)
    features.flags.writeable = False  # fresh and unshared: build_graph adopts it
    return build_graph(edges, meta.num_nodes, features, labels, meta.num_classes)


def _read_edges(edges_path: Path, n: int) -> np.ndarray | list[tuple[int, int]]:
    """Endpoint pairs from ``edges.tsv``.

    The file is read whole and its bytes checked once: digits, tabs and LF
    line ends, each LF perhaps after one ``\\r``, and no blank CRLF line.
    Such a file goes to one ``np.loadtxt``, which skips its blank LF lines,
    followed by a shape and range check. Any other file, or any problem,
    goes through :func:`_parse_edge_lines`.
    """
    with open(edges_path, "rb") as handle:
        text = handle.read()
    plain = True
    if b"\r" in text:  # CRLF line ends only: each \r before an LF, no blank CRLF line
        blank = text.startswith(b"\r\n") or b"\n\r\n" in text
        plain = text.count(b"\r") == text.count(b"\r\n") and not blank
        text = text.replace(b"\r\n", b"\n")
    edges = None
    if plain and not text.translate(None, _PLAIN_EDGE_BYTES) and text.strip(b"\n"):
        try:
            edges = np.loadtxt(
                io.StringIO(text.decode("ascii")),
                delimiter="\t", dtype=np.int64, comments=None, ndmin=2,
            )
        except (ValueError, OverflowError):
            pass
    if edges is not None and edges.shape[1] == 2 and edges.max() < n:
        return edges
    return _parse_edge_lines(edges_path, n)


def _parse_edge_lines(edges_path: Path, n: int) -> list[tuple[int, int]]:
    """Line-by-line parse of ``edges.tsv`` that names the file and line of each problem."""
    edges = []
    for lineno, line, parts in _tab_lines(edges_path, "src<TAB>dst"):
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(
                f"{edges_path} line {lineno}: endpoints must be integers, got {line!r}"
            ) from None
        _require(
            0 <= src < n and 0 <= dst < n,
            f"{edges_path} line {lineno}: endpoint outside [0, {n})",
        )
        edges.append((src, dst))
    return edges


def _read_nodes(
    nodes_path: Path, n: int, num_features: int, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels from ``nodes.tsv``.

    The file is read in blocks, opened in binary: ``_CHUNK_BYTES`` bytes,
    completed to the end of their last line. Once its size could hold
    n * F features of 2 bytes each, the (N, F) table and the labels are
    allocated, and :func:`_place_block` writes each block's rows at their
    ids, so out-of-order rows need no reordering step and the table stays
    the only allocation of file size. Each row must hold an id and a label
    of ASCII digits and F finite features; the ids must then be a
    permutation of 0..N-1 and the labels lie in range. Anything else, an
    error from ``np.loadtxt`` included, re-reads the file through
    :func:`_parse_node_lines`, which raises the first problem in line order.
    """
    try:
        with open(nodes_path, "rb") as handle:
            if os.fstat(handle.fileno()).st_size >= 2 * n * num_features:
                features = np.empty((n, num_features))
                labels = np.empty(n, dtype=np.int64)
                placed = np.zeros(n, dtype=bool)
                count = 0
                while block := handle.read(_CHUNK_BYTES) + handle.readline():
                    count += _place_block(block, features, labels, placed)
                if count == n and placed.all() and (labels < num_classes).all():
                    return features, labels
    except (ValueError, OverflowError):
        pass
    return _parse_node_lines(nodes_path, n, num_features, num_classes)


def _place_block(block: bytes, features: np.ndarray, labels: np.ndarray, placed: np.ndarray) -> int:
    """Write the rows of ``block``, whole lines of ``nodes.tsv``, at their ids; how many it held.

    Each line's LF and two tabs are found with ``bytes.find``. One ``\\r``
    before the LF, or at the end of the file, is stripped, and blank LF
    lines are skipped. The id and
    label bytes must be ASCII digits; the feature bytes, from the second tab
    on, go to :func:`_parse_features`. Raises ``ValueError`` at a line the
    per-line checker must judge, or an id outside the table.
    """
    view = memoryview(block)
    ids, row_labels, fields = [], [], []
    start = 0
    while start < len(block):
        stop = block.find(b"\n", start)
        if stop < 0:
            stop = len(block)  # the file's last line, without its LF
        if stop > start:
            end = stop - block.endswith(b"\r", start, stop)
            first = block.find(b"\t", start, end)
            second = block.find(b"\t", first + 1, end)
            node, label = block[start:first], block[first + 1:second]
            if first < 0 or second < 0 or not (node.isdigit() and label.isdigit()):
                raise ValueError("not a plain row")
            ids.append(int(node))
            row_labels.append(int(label))
            fields.append(view[second:end])
        start = stop + 1
    ids = np.array(ids, dtype=np.int64)
    if (ids >= len(labels)).any():
        raise ValueError("id outside the table")
    placed[ids] = True
    labels[ids] = row_labels
    _parse_features(fields, features, ids)
    return len(ids)


def _parse_features(fields: list[memoryview], features: np.ndarray, ids: np.ndarray) -> None:
    """Parse one block's feature fields, each from its second tab on, into ``features[ids]``.

    A field of the tab and F ``D.D`` tokens (an ASCII digit, a dot, a digit)
    is 4F bytes long: F four-byte tokens, each a separator and a ``D.D``.
    All such fields of the block are checked and converted from their bytes
    at once. Every other field must hold F comma-separated values of
    ``_PLAIN_NODE_BYTES`` and goes through one ``np.loadtxt``, whose values
    must be finite, or ``ValueError`` is raised.
    """
    num_features = features.shape[1]
    tenths = np.array([len(field) == 4 * num_features for field in fields], dtype=bool)
    if tenths.any():
        codes = np.frombuffer(b"".join(compress(fields, tenths)), np.uint8)
        offsets = codes.reshape(-1, 4 * num_features) - np.frombuffer(
            b"\t0.0" + _ZERO_TOKEN * (num_features - 1), np.uint8
        )
        layout = (offsets < np.frombuffer(_TOKEN_BOUND * num_features, np.uint8)).all(axis=1)
        tenths[tenths] = layout
        tokens = offsets[layout].reshape(-1, num_features, 4)
        features[ids[tenths]] = (10 * tokens[:, :, 1] + tokens[:, :, 3]) / 10
    if not tenths.all():
        plain = [bytes(field[1:]) for field, tenth in zip(fields, tenths) if not tenth]
        for field in plain:
            if not field or field.count(b",") != num_features - 1 or field.translate(
                None, _PLAIN_NODE_BYTES
            ):
                raise ValueError("not F plain features")
        values = np.loadtxt(plain, delimiter=",", comments=None, ndmin=2)
        if not np.isfinite(values).all():
            raise ValueError("non-finite feature")
        features[ids[~tenths]] = values


def _parse_node_lines(
    nodes_path: Path, n: int, num_features: int, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line parse of ``nodes.tsv`` that names the file and line of each problem.

    Rows are kept per node until every id has shown up, so nothing is sized
    by ``n`` before the file has proven it.
    """
    rows: dict[int, tuple[int, np.ndarray]] = {}
    for lineno, _, parts in _tab_lines(nodes_path, "id<TAB>label<TAB>features"):
        try:
            node = int(parts[0])
            label = int(parts[1])
        except ValueError:
            raise DataError(f"{nodes_path} line {lineno}: id and label must be integers") from None
        _require(0 <= node < n, f"{nodes_path} line {lineno}: id {node} outside [0, {n})")
        _require(node not in rows, f"{nodes_path} line {lineno}: duplicate id {node}")
        _require(
            0 <= label < num_classes,
            f"{nodes_path} line {lineno}: label {label} outside [0, {num_classes})",
        )
        fields = parts[2].split(",") if parts[2] else []
        _require(
            len(fields) == num_features,
            f"{nodes_path} line {lineno}: expected {num_features} features, got {len(fields)}",
        )
        try:
            row = np.array([float(f) for f in fields])
        except ValueError:
            raise DataError(
                f"{nodes_path} line {lineno}: features must be decimal numbers"
            ) from None
        _require(np.isfinite(row).all(), f"{nodes_path} line {lineno}: features must be finite")
        rows[node] = label, row

    if len(rows) < n:
        missing = next(node for node in range(n) if node not in rows)
        raise DataError(f"{nodes_path}: no row for node {missing}")
    features = np.empty((n, num_features))
    labels = np.empty(n, dtype=np.int64)
    for node in range(n):
        labels[node], features[node] = rows.pop(node)
    return features, labels


def save_dataset(graph: Graph, name: str, directory: str | Path) -> None:
    """Write a graph as a dataset directory (UTF-8, LF line endings).

    Floats are written with shortest round-trip precision, so a load
    followed by a save is bit-stable.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "name": name,
        "num_nodes": graph.num_nodes,
        "num_features": graph.num_features,
        "num_classes": graph.num_classes,
    }
    (directory / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )
    edge_lines = [f"{p}\t{q}" for p, q in graph.edges]
    (directory / "edges.tsv").write_text(
        "".join(line + "\n" for line in edge_lines), encoding="utf-8", newline="\n"
    )
    node_lines = []
    for node in range(graph.num_nodes):
        feats = ",".join(map(repr, graph.features[node].tolist()))
        node_lines.append(f"{node}\t{graph.labels[node]}\t{feats}")
    (directory / "nodes.tsv").write_text(
        "".join(line + "\n" for line in node_lines), encoding="utf-8", newline="\n"
    )


def random_graph(
    num_nodes: int,
    edge_prob: float,
    num_classes: int = 3,
    num_features: int = 8,
    seed: int = 0,
) -> Graph:
    """Erdos-Renyi graph with random labels and standard-normal features."""
    rng = make_rng(seed, num_nodes)
    pairs = np.stack(np.triu_indices(num_nodes, 1), axis=1)
    return build_graph(
        pairs[rng.random(pairs.shape[0]) < edge_prob],
        num_nodes,
        rng.normal(size=(num_nodes, num_features)),
        rng.integers(0, num_classes, size=num_nodes),
        num_classes,
    )


def two_block_graph(
    block_size: int = 30,
    p_in: float = 0.2,
    p_out: float = 0.02,
    num_features: int = 8,
    seed: int = 0,
    heterophilous: bool = False,
) -> Graph:
    """Two-community benchmark graph with label-correlated features.

    Homophilous by default (labels = blocks, dense within blocks). With
    ``heterophilous=True`` the wiring flips: nodes connect mostly across
    blocks, so neighbors usually disagree - the regime diverse filters are
    built for.
    """
    n = 2 * block_size
    rng = make_rng(seed, n)
    labels = np.repeat([0, 1], block_size)
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    same = labels[pairs[:, 0]] == labels[pairs[:, 1]]
    prob = np.where(same != heterophilous, p_in, p_out)
    edges = pairs[rng.random(pairs.shape[0]) < prob]
    features = rng.normal(size=(n, num_features)) * 0.5
    features[:, 0] += np.where(labels == 0, 1.0, -1.0)
    return build_graph(edges, n, features, labels, 2)
