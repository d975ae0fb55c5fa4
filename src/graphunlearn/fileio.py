"""On-disk formats for graphs, features, labels and masks.

Text formats are UTF-8 with 0-indexed node ids:
    edges   one "u<TAB>v" pair per line
    labels  one "node<TAB>class" pair per line, absent ids are unlabeled
    masks   one node id per line

Features are written as a binary blob:
    magic "GUFM", then n and f as 64-bit little-endian unsigned ints,
    then n*f float64 little-endian values in row-major order.
A plain CSV matrix is read too, but never written.

This module is the library's only file access: every other module
reads, writes and makes directories through the helpers below, so an
OSError anywhere surfaces as one IoError naming the path.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, IoError, MaskError
from .graph import UNLABELED, Graph, build_graph

FEATURE_MAGIC = b"GUFM"


def _guarded(verb: str, path, call):
    """Run one filesystem call; an OSError becomes IoError naming the path."""
    try:
        return call()
    except OSError as exc:
        raise IoError(f"cannot {verb} {path}: {exc}") from exc


def read_bytes(path) -> bytes:
    return _guarded("read", path, Path(path).read_bytes)


def read_text(path) -> str:
    """Read a UTF-8 text file; bytes that are not UTF-8 raise DataError."""
    try:
        return _guarded("read", path, lambda: Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


def write_bytes(path, data: bytes) -> None:
    _guarded("write", path, lambda: Path(path).write_bytes(data))


def write_text(path, text: str) -> None:
    _guarded("write", path, lambda: Path(path).write_text(text, encoding="utf-8"))


def make_dir(path) -> None:
    """Create a directory and its parents; an existing directory is fine."""
    _guarded("create directory", path,
             lambda: Path(path).mkdir(parents=True, exist_ok=True))


def read_json_object(path, what: str) -> dict:
    """Parse a file holding one JSON object; `what` names it in errors."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid {what} JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {what} must be a single JSON object")
    return doc


def _parse_ints(lines, cols: int):
    """numpy's parse of the lines as an (m, cols) int64 table, or None.

    This is the integer grammar of every text format: optional sign,
    ASCII digits, optional whitespace around the field, and the value
    must fit int64.  Two-column lines are tab-separated.
    """
    try:
        rows = np.loadtxt(lines, delimiter="\t" if cols == 2 else None,
                          dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        return None
    return rows if rows.shape[1] == cols else None


def _read_ints(path, cols: int) -> np.ndarray:
    """Parse the non-blank lines of a text file into an (m, cols) int64 array.

    A line that does not parse raises DataError naming `path:i`, with i
    counted among non-blank lines; the lines are parsed one at a time
    only once the whole file has failed.
    """
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        return np.empty((0, cols), dtype=np.int64)
    rows = _parse_ints(lines, cols)
    if rows is not None:
        return rows
    form = "'int<TAB>int'" if cols == 2 else "one integer"
    for i, line in enumerate(lines, start=1):
        if _parse_ints([line], cols) is None:
            raise DataError(f"{path}:{i}: expected {form} within int64, got {line!r}")
    raise DataError(f"{path}: malformed integer table")


def _check_range(path, nodes, n: int, error) -> None:
    """Raise `error` naming the first line with a node outside [0, n).

    nodes holds one row per line: a vector, or an (m, cols) table.
    """
    bad = (nodes < 0) | (nodes >= n)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)  # row-major: first bad line
        raise error(f"{path}:{at[0] + 1}: node {nodes[at]} outside [0, {n})")


def read_edge_list(path) -> np.ndarray:
    """Parse an edge file into an (m, 2) int array."""
    return _read_ints(path, 2)


def write_edge_list(path, edges) -> None:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    write_text(path, "".join(f"{u}\t{v}\n" for u, v in edges.tolist()))


def read_features(path) -> np.ndarray:
    """Load a feature matrix, sniffing binary vs CSV from the magic bytes."""
    raw = read_bytes(path)
    if raw[:4] == FEATURE_MAGIC:
        if len(raw) < 20:
            raise DataError(f"{path}: truncated binary feature header")
        n, f = struct.unpack("<QQ", raw[4:20])
        if f == 0:
            raise DataError(f"{path}: binary feature header has zero columns")
        expect = 20 + 8 * n * f
        if len(raw) != expect:
            raise DataError(f"{path}: expected {expect} bytes for {n}x{f} features, got {len(raw)}")
        return np.frombuffer(raw, dtype="<f8", offset=20).reshape(n, f).astype(np.float64)
    if not raw.strip():
        raise DataError(f"{path}: feature file holds no data")
    try:
        return np.loadtxt(raw.decode("utf-8").splitlines(), delimiter=",",
                          dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: malformed CSV feature matrix: {exc}") from exc


def write_features(path, features) -> None:
    """Write features in the binary GUFM format."""
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"feature matrix must be 2-d, got shape {x.shape}")
    header = FEATURE_MAGIC + struct.pack("<QQ", x.shape[0], x.shape[1])
    write_bytes(path, header + x.astype("<f8").tobytes(order="C"))


def read_labels(path, n: int) -> np.ndarray:
    """Parse a label file; a node outside [0, n), a node listed twice or a
    class id outside [-1, n) is a DataError (-1 is unlabeled)."""
    rows = _read_ints(path, 2)
    nodes = rows[:, 0]
    _check_range(path, nodes, n, DataError)
    bad = np.flatnonzero((rows[:, 1] < UNLABELED) | (rows[:, 1] >= n))
    if bad.size:
        raise DataError(f"{path}:{bad[0] + 1}: class {rows[bad[0], 1]} not in [-1, {n})")
    first = np.unique(nodes, return_index=True)[1]
    if first.size != nodes.size:
        repeat = np.ones(nodes.size, dtype=bool)
        repeat[first] = False
        i = int(np.argmax(repeat))
        raise DataError(f"{path}:{i + 1}: node {nodes[i]} labeled twice")
    labels = np.full(n, UNLABELED, dtype=np.int64)
    labels[nodes] = rows[:, 1]
    return labels


def write_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    nodes = np.flatnonzero(labels != UNLABELED)
    write_text(path, "".join(f"{node}\t{cls}\n" for node, cls in
                             zip(nodes.tolist(), labels[nodes].tolist())))


def read_mask(path, n: int) -> np.ndarray:
    """Parse a mask file; repeated ids are allowed, ids outside [0, n) are a MaskError."""
    nodes = _read_ints(path, 1)[:, 0]
    _check_range(path, nodes, n, MaskError)
    mask = np.zeros(n, dtype=bool)
    mask[nodes] = True
    return mask


def write_mask(path, mask) -> None:
    """Write the ids of a bool mask, one per line."""
    write_text(path, "".join(f"{i}\n" for i in np.flatnonzero(mask).tolist()))


def load_graph(edge_path, feature_path, label_path,
               train_mask_path, test_mask_path) -> Graph:
    """Assemble a Graph from its on-disk pieces; n is taken from the features."""
    features = read_features(feature_path)
    n = features.shape[0]
    edges = read_edge_list(edge_path)
    _check_range(edge_path, edges, n, DataError)
    return build_graph(n, edges, features, read_labels(label_path, n),
                       read_mask(train_mask_path, n), read_mask(test_mask_path, n))


def save_graph(graph: Graph, edge_path, feature_path, label_path,
               train_mask_path, test_mask_path) -> None:
    write_edge_list(edge_path, graph.undirected_edges())
    write_features(feature_path, graph.features)
    write_labels(label_path, graph.labels)
    write_mask(train_mask_path, graph.train_mask)
    write_mask(test_mask_path, graph.test_mask)
