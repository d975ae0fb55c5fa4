import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphunlearn
from graphunlearn.errors import DataError, IoError, MaskError
from graphunlearn.fileio import (FEATURE_MAGIC, load_graph, read_edge_list,
                                 read_features, read_labels, read_mask,
                                 save_graph, write_edge_list, write_features,
                                 write_labels, write_mask)

from conftest import (ReadReject, edge_list_oracle, labels_oracle, make_graph,
                      mask_oracle)


def test_edge_list_round_trip(tmp_path):
    p = tmp_path / "edges.tsv"
    edges = np.array([[0, 1], [2, 3], [1, 4]])
    write_edge_list(p, edges)
    assert np.array_equal(read_edge_list(p), edges)


def test_edge_list_rejects_malformed(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("0\t1\n2 3\n")
    with pytest.raises(DataError):
        read_edge_list(p)
    p.write_text("0\tx\n")
    with pytest.raises(DataError):
        read_edge_list(p)


def test_edge_list_missing_file(tmp_path):
    with pytest.raises(IoError):
        read_edge_list(tmp_path / "nope.tsv")


def test_features_binary_round_trip(tmp_path):
    p = tmp_path / "x.gufm"
    x = np.random.default_rng(0).standard_normal((7, 3))
    write_features(p, x)
    assert p.read_bytes()[:4] == FEATURE_MAGIC
    got = read_features(p)
    # binary format is exact
    assert np.array_equal(got, x)


def test_features_csv_round_trip(tmp_path):
    # CSV features come from outside the program; the library only reads them
    p = tmp_path / "x.csv"
    x = np.random.default_rng(1).standard_normal((4, 5))
    np.savetxt(p, x, delimiter=",", fmt="%.17g")
    got = read_features(p)
    assert np.array_equal(got, x)  # %.17g preserves float64 exactly


def test_write_features_is_binary_whatever_the_suffix(tmp_path):
    p = tmp_path / "x.csv"
    write_features(p, np.ones((2, 3)))
    assert p.read_bytes()[:4] == FEATURE_MAGIC
    assert np.array_equal(read_features(p), np.ones((2, 3)))


def test_features_truncated_binary(tmp_path):
    p = tmp_path / "x.gufm"
    write_features(p, np.ones((3, 2)))
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(DataError):
        read_features(p)
    p.write_bytes(data[:10])
    with pytest.raises(DataError):
        read_features(p)


def test_features_malformed_csv(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1.0,2.0\nhello,4.0\n")
    with pytest.raises(DataError):
        read_features(p)


def test_features_single_row_csv_keeps_2d(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1.0,2.0,3.0\n")
    assert read_features(p).shape == (1, 3)


def test_labels_round_trip_with_unlabeled(tmp_path):
    p = tmp_path / "labels.tsv"
    labels = np.array([0, -1, 2, 1, -1])
    write_labels(p, labels)
    # unlabeled nodes are simply absent from the file
    assert len(p.read_text().splitlines()) == 3
    assert np.array_equal(read_labels(p, 5), labels)


def test_labels_rejects_out_of_range(tmp_path):
    p = tmp_path / "labels.tsv"
    p.write_text("9\t1\n")
    with pytest.raises(DataError):
        read_labels(p, 5)


def test_mask_round_trip(tmp_path):
    p = tmp_path / "mask.txt"
    mask = np.array([True, False, True, False])
    write_mask(p, mask)
    assert np.array_equal(read_mask(p, 4), mask)


def test_mask_rejects_out_of_range(tmp_path):
    p = tmp_path / "mask.txt"
    p.write_text("7\n")
    with pytest.raises(MaskError):
        read_mask(p, 4)


def test_graph_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    g = make_graph(6, [(0, 1), (1, 2), (3, 4)],
                   features=rng.standard_normal((6, 4)),
                   labels=np.array([0, 1, 0, 1, -1, 0]),
                   train=np.array([True, True, True, False, False, False]),
                   test=np.array([False, False, False, True, True, False]))
    paths = {k: tmp_path / v for k, v in
             dict(e="edges.tsv", x="x.gufm", y="labels.tsv",
                  tr="train.txt", te="test.txt").items()}
    save_graph(g, paths["e"], paths["x"], paths["y"], paths["tr"], paths["te"])
    g2 = load_graph(paths["e"], paths["x"], paths["y"], paths["tr"], paths["te"])
    assert g2.n == g.n
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.indices, g.indices)
    assert np.array_equal(g2.features, g.features)
    assert np.array_equal(g2.labels, g.labels)
    assert np.array_equal(g2.train_mask, g.train_mask)
    assert np.array_equal(g2.test_mask, g.test_mask)


def _spell(rng, value):
    """One spelling of an integer that both the reference and fileio accept."""
    text = str(value)
    if value >= 0 and rng.random() < 0.2:
        text = "+" + text
    return " " * int(rng.integers(0, 3)) + text + " " * int(rng.integers(0, 3))


_FAULTS = {
    "edges": ["1\t2\t3", "1 2", "1.5\t2", "x\t2", "3"],
    "labels": ["1\t2\t3", "1 2", "1\t0.5", "a\t1", "{n}\t0", "-1\t0", "0\t-2", "0\t{n}",
               "{last}\t0\n{last}\t1"],  # the last: node n-1 labeled twice
    "mask": ["1 2", "1\t2", "1.5", "x", "{n}", "-1"],
}


def _random_table(rng, fmt, n):
    """A generated file of format `fmt` with at most one faulty line.

    Fields come with surrounding spaces and leading '+' signs; lines end
    in LF or CRLF, with blank and whitespace-only lines between them.
    Labels list each node at most once and use -1 for unlabeled.
    """
    size = int(rng.integers(0, 12))
    if fmt == "edges":
        rows = rng.integers(0, n, size=(size, 2)).tolist()
    elif fmt == "labels":
        nodes = rng.choice(n, size=min(size, n), replace=False)
        rows = [[int(v), int(rng.integers(-1, 4))] for v in nodes]
    else:
        rows = rng.integers(0, n, size=(size, 1)).tolist()
    lines = []
    for row in rows:
        lines.append("\t".join(_spell(rng, v) for v in row))
        if rng.random() < 0.25:
            lines.append(str(rng.choice(["", "   ", " \t "])))
    if rng.random() < 0.5:
        fault = str(rng.choice(_FAULTS[fmt])).format(n=n, last=n - 1)
        lines.insert(int(rng.integers(0, len(lines) + 1)), fault)
    end = str(rng.choice(["\n", "\r\n"]))
    return end.join(lines) + (end if rng.random() < 0.5 else "")


_READERS = {
    "edges": (read_edge_list, edge_list_oracle),
    "labels": (lambda p: read_labels(p, 6), lambda p: labels_oracle(p, 6)),
    "mask": (lambda p: read_mask(p, 6), lambda p: mask_oracle(p, 6)),
}


def _check_against_oracle(fmt, path):
    read, oracle = _READERS[fmt]
    try:
        want = oracle(path)
    except ReadReject as reject:
        with pytest.raises((DataError, MaskError)) as info:
            read(path)
        assert type(info.value).__name__ == reject.kind
        assert f"{path}:{reject.line}:" in str(info.value)
        return
    got = read(path)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("fmt", sorted(_READERS))
def test_readers_match_line_by_line_oracle(tmp_path, fmt):
    rng = np.random.default_rng(list(_READERS).index(fmt))
    path = tmp_path / "table.txt"
    for _ in range(150):
        path.write_bytes(_random_table(rng, fmt, 6).encode("utf-8"))
        _check_against_oracle(fmt, path)


@pytest.mark.parametrize("fmt", sorted(_READERS))
def test_empty_file_reads_empty_without_warning(tmp_path, fmt):
    path = tmp_path / "table.txt"
    for text in ("", "\n", " \r\n\t\n"):
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check_against_oracle(fmt, path)
    assert read_edge_list(path).shape == (0, 2)


@pytest.mark.parametrize("text", ["1_0\t2\n", "\u0661\t2\n", "0\t\uff13\n"],
                         ids=["underscore", "arabic-indic-digit", "fullwidth-digit"])
def test_integers_beyond_ascii_digits_are_rejected(tmp_path, text):
    # int() accepted these spellings; the readers take ASCII digits only
    path = tmp_path / "edges.tsv"
    path.write_text(text, encoding="utf-8")
    assert edge_list_oracle(path).shape == (1, 2)
    with pytest.raises(DataError, match=f"{path}:1:"):
        read_edge_list(path)


def test_integers_beyond_int64_are_rejected(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\t9223372036854775807\n0\t9223372036854775808\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"{path}:2:"):
        read_edge_list(path)
    path.write_text("0\t-9223372036854775808\n", encoding="utf-8")
    assert read_edge_list(path).tolist() == [[0, -9223372036854775808]]


def test_labels_reject_a_node_listed_twice(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("0\t1\n1\t0\n\n1\t3\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"{path}:3: node 1 labeled twice"):
        read_labels(path, 4)


def library_nodes(skip: str):
    """(module file name, AST node) for every node of every library module but skip."""
    for path in sorted(Path(graphunlearn.__file__).parent.glob("*.py")):
        if path.name != skip:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.name, node


def test_fileio_is_the_only_module_touching_the_disk():
    # every other library module goes through the fileio helpers, so
    # fileio's mapper is the one place an OSError becomes IoError
    disk_methods = {"open", "read_text", "read_bytes", "write_text", "write_bytes",
                    "mkdir", "loadtxt", "savetxt"}
    found = []
    for name, node in library_nodes("fileio.py"):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found += [f"{name}:{node.lineno} except {c.id}" for c in caught
                      if isinstance(c, ast.Name)
                      and c.id in ("OSError", "IOError", "EnvironmentError")]
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open" or \
                    isinstance(func, ast.Attribute) and func.attr in disk_methods:
                found.append(f"{name}:{node.lineno} {ast.unparse(func)}()")
    assert found == []


def test_graph_is_the_only_module_multiplying_by_the_operator():
    # every product with S outside graph goes through propagate or
    # add_hops, so the series has one hop loop
    found = [f"{name}:{node.lineno} {ast.unparse(node)}"
             for name, node in library_nodes("graph.py")
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
             and isinstance(node.left, ast.Attribute) and node.left.attr == "matrix"]
    assert found == []


def test_graph_is_the_only_module_setting_array_flags():
    # Graph freezes the arrays it holds and build_graph copies what it is
    # given, so no other module needs to mark an array read-only for it
    found = [f"{name}:{node.lineno} {ast.unparse(node)}"
             for name, node in library_nodes("graph.py")
             if isinstance(node, ast.Attribute) and node.attr == "setflags"]
    assert found == []
