"""Dataset directory round-trips, validation diagnostics, and synthetic graphs."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverspec import datasets, load_dataset, random_graph, save_dataset, two_block_graph
from diverspec.cli import main
from diverspec.errors import DataError
from diverspec.graph import build_graph
from tests.conftest import toy_graph


@pytest.fixture
def dataset_dir(tmp_path):
    g = two_block_graph(6, num_features=3, seed=0)
    save_dataset(g, "toy", tmp_path / "toy")
    return tmp_path / "toy", g


def test_round_trip_preserves_graph(dataset_dir):
    path, original = dataset_dir
    loaded = load_dataset(path)
    assert loaded.num_nodes == original.num_nodes
    assert loaded.num_classes == original.num_classes
    assert np.array_equal(loaded.edges, original.edges)
    assert np.array_equal(loaded.labels, original.labels)
    assert np.array_equal(loaded.features, original.features)  # repr round-trip


def test_save_uses_lf_and_trailing_newline(dataset_dir):
    path, _ = dataset_dir
    for name in ("meta.json", "edges.tsv", "nodes.tsv"):
        blob = (path / name).read_bytes()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")


def test_load_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing dataset file"):
        load_dataset(tmp_path)


def test_load_reports_meta_problems(dataset_dir):
    path, _ = dataset_dir
    meta = json.loads((path / "meta.json").read_text())
    del meta["num_classes"]
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataError, match="num_classes"):
        load_dataset(path)
    (path / "meta.json").write_text("{broken")
    with pytest.raises(DataError, match="invalid JSON"):
        load_dataset(path)


def test_load_reports_edge_line_numbers(dataset_dir):
    path, _ = dataset_dir
    lines = (path / "edges.tsv").read_text().splitlines()
    lines[2] = "0\t99"
    (path / "edges.tsv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"edges\.tsv line 3"):
        load_dataset(path)
    lines[2] = "0,1"
    (path / "edges.tsv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 3"):
        load_dataset(path)


def test_load_reports_node_line_numbers(dataset_dir):
    path, _ = dataset_dir
    lines = (path / "nodes.tsv").read_text().splitlines()
    broken = lines[:]
    broken[4] = broken[4].rsplit("\t", 1)[0] + "\t1.0,2.0"  # wrong feature count
    (path / "nodes.tsv").write_text("\n".join(broken) + "\n")
    with pytest.raises(DataError, match=r"nodes\.tsv line 5: expected 3 features"):
        load_dataset(path)

    broken = lines[:]
    broken[1] = broken[0]  # duplicate node id on line 2
    (path / "nodes.tsv").write_text("\n".join(broken) + "\n")
    with pytest.raises(DataError, match="line 2: duplicate id"):
        load_dataset(path)

    (path / "nodes.tsv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataError, match="no row for node"):
        load_dataset(path)


def test_a_carriage_return_inside_a_line_does_not_shift_line_numbers(dataset_dir):
    # Only an LF ends a line: a \r inside line 2, which int() and float()
    # read as whitespace, leaves the bad line 4 reported as line 4.
    path, _ = dataset_dir
    nodes = (path / "nodes.tsv").read_text().splitlines()
    broken = nodes[:]
    broken[1] = broken[1].replace(",", "\r,", 1)
    broken[3] = broken[3].replace("\t", "\t7", 1)
    (path / "nodes.tsv").write_text("\n".join(broken) + "\n", newline="\n")
    with pytest.raises(DataError, match=r"nodes\.tsv line 4: label 7"):
        load_dataset(path)

    (path / "nodes.tsv").write_text("\n".join(nodes) + "\n", newline="\n")
    edges = (path / "edges.tsv").read_text().splitlines()
    edges[1] = edges[1].replace("\t", "\t\r", 1)
    edges[3] = "0\tx"
    (path / "edges.tsv").write_text("\n".join(edges) + "\n", newline="\n")
    with pytest.raises(DataError, match=r"edges\.tsv line 4: endpoints must be integers"):
        load_dataset(path)


def test_load_rejects_bad_label(dataset_dir):
    path, _ = dataset_dir
    lines = (path / "nodes.tsv").read_text().splitlines()
    head, _, feats = lines[0].split("\t")
    lines[0] = f"{head}\t7\t{feats}"
    (path / "nodes.tsv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="label 7 outside"):
        load_dataset(path)


def test_load_rejects_non_numeric_features(dataset_dir):
    path, _ = dataset_dir
    lines = (path / "nodes.tsv").read_text().splitlines()
    head, label, feats = lines[3].split("\t")
    bad = feats.split(",")
    bad[1] = "abc"
    lines[3] = f"{head}\t{label}\t{','.join(bad)}"
    (path / "nodes.tsv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 4: features must be decimal"):
        load_dataset(path)


def test_load_ignores_blank_lines(dataset_dir):
    path, original = dataset_dir
    text = (path / "edges.tsv").read_text()
    (path / "edges.tsv").write_text(text + "\n\n")
    loaded = load_dataset(path)
    assert np.array_equal(loaded.edges, original.edges)


def test_random_graph_shapes():
    g = random_graph(25, edge_prob=0.2, num_classes=4, num_features=6, seed=1)
    assert g.num_nodes == 25
    assert g.features.shape == (25, 6)
    assert g.labels.max() < 4
    assert g.edges.size == 0 or (g.edges[:, 0] < g.edges[:, 1]).all()


def test_random_graph_deterministic():
    a = random_graph(30, edge_prob=0.1, seed=5)
    b = random_graph(30, edge_prob=0.1, seed=5)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.features, b.features)


def test_two_block_graph_mixing_patterns():
    homo = two_block_graph(20, p_in=0.3, p_out=0.02, seed=2)
    hetero = two_block_graph(20, p_in=0.3, p_out=0.02, seed=2, heterophilous=True)
    from diverspec import edge_homophily

    assert edge_homophily(homo) > 0.7
    assert edge_homophily(hetero) < 0.3
    assert homo.num_nodes == hetero.num_nodes == 40
    assert homo.labels.tolist() == [0] * 20 + [1] * 20


# SHA-256 of (edges int64, features float64, labels int64) bytes, recorded
# from the original pair-by-pair builders: any change to the pair order or
# to the random stream shows up here.
BUILDER_DIGESTS = [
    (random_graph, dict(num_nodes=1, edge_prob=0.5, seed=0),
     "f72d01b86e5bca4e0bf97751ddf0d9c9deeb5986aedcd6bda9d9ff3988c33055"),
    (random_graph, dict(num_nodes=57, edge_prob=0.1, seed=3),
     "64f051cd9d50afb5d6e8f0f3e8adcad20ca50b4d55248d601c1757ed49cc0ecf"),
    (random_graph, dict(num_nodes=200, edge_prob=0.05, num_classes=4, num_features=5, seed=7),
     "4c99272d5302f891e08dfb5684480a295ded980b30d18d5815311a89bfd92fcf"),
    (two_block_graph, dict(block_size=1, seed=0),
     "818797f4684f875c11c5faf40f075b26b9d1c06e7a971671cee0112b6f9b31ca"),
    (two_block_graph, dict(block_size=20, seed=11, heterophilous=True),
     "063a8d2ca76271522860aaace451763ad244bf94a8f1e5a4264febe23d5b6cc4"),
    (two_block_graph, dict(block_size=50, p_in=0.3, p_out=0.05, num_features=3, seed=4),
     "6f5377f078e459c36afd67062a31497f80b2916e4a7ae767a46d8c5d93b9eb58"),
]


@pytest.mark.parametrize(
    "builder, kwargs, expected",
    BUILDER_DIGESTS,
    ids=[
        f"{b.__name__}-{k['seed']}-{k.get('num_nodes', k.get('block_size'))}"
        for b, k, _ in BUILDER_DIGESTS
    ],
)
def test_synthetic_builders_are_pinned(builder, kwargs, expected):
    g = builder(**kwargs)
    digest = hashlib.sha256()
    for array, dtype in ((g.edges, np.int64), (g.features, np.float64), (g.labels, np.int64)):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    assert digest.hexdigest() == expected


# --- streamed parses against the per-line checkers --------------------------


def per_line_nodes(path):
    """The per-line checker's reading of ``nodes.tsv``: (features, labels) or its error."""
    meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
    try:
        return datasets._parse_node_lines(
            path / "nodes.tsv", meta["num_nodes"], meta["num_features"], meta["num_classes"]
        )
    except DataError as exc:
        return str(exc)


def assert_loader_matches_per_line_checker(path):
    expected = per_line_nodes(path)
    if isinstance(expected, str):
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == expected
    else:
        graph = load_dataset(path)
        features, labels = expected
        np.testing.assert_array_equal(graph.features.view(np.int64), features.view(np.int64))
        np.testing.assert_array_equal(graph.labels, labels)


def edit_feature(lines, row, column, token):
    head, label, feats = lines[row].split("\t")
    fields = feats.split(",")
    fields[column] = token
    lines[row] = f"{head}\t{label}\t{','.join(fields)}"


def tenths(lines):
    """Give every row "D.D" features (a digit, a dot, a digit), the layout parsed from bytes."""
    for row, line in enumerate(lines):
        head, label, feats = line.split("\t")
        tokens = (f"{(row + 3 * col) % 10}.{(7 * row + col) % 10}" for col in range(feats.count(",") + 1))
        lines[row] = f"{head}\t{label}\t{','.join(tokens)}"


def then(*edits):
    """One edit that applies ``edits`` in order and returns what the last one returns."""
    return lambda lines: [edit(lines) for edit in edits][-1]


def reverse(lines):
    lines.reverse()


def crlf(lines):
    lines[:] = [line + "\r" for line in lines]


def set_field(row, column, field):
    def edit(lines):
        fields = lines[row].split("\t")
        fields[column] = field
        lines[row] = "\t".join(fields)
    return edit


def ending(tail):
    """An edit that writes ``tail`` in place of the last line's LF."""
    return lambda lines: "\n".join(lines) + tail


# Feature fields of 4F - 1 = 11 bytes (F = 3) that are not F "D.D" tokens:
# valid ones take np.loadtxt, invalid ones the per-line checker.
NOT_TENTHS = {
    "digit-for-dot": "10.,1.0,1.0",
    "three-digits": "1.0,1.0,123",
    "dot-for-comma": "1.0.,1,1.00",
    "sign": "-1.,1.0,1.0",
    "exponent": "1.0,1e0,1.0",
    "leading-dot": ".10,1.0,1.0",
    "space": "1.0, 1.,1.0",
    "nan-token": "nan,1.0,1.0",
}

NODE_EDITS = {
    "non-numeric": lambda lines: edit_feature(lines, 3, 1, "abc"),
    "hash": lambda lines: edit_feature(lines, 2, 0, "#1"),
    "empty-field": lambda lines: edit_feature(lines, 5, 2, ""),
    "underscore": lambda lines: edit_feature(lines, 1, 1, "1_0"),
    "file-separator": lambda lines: edit_feature(lines, 1, 1, "\x1c1"),
    "field-count": lambda lines: lines.__setitem__(4, lines[4] + ",1.0"),
    "out-of-order": reverse,
    "crlf": crlf,
    "crlf-blank-line": lambda lines: lines.__setitem__(
        slice(None), [line + "\r" for line in lines] + ["\r"]
    ),
    "inner-cr": lambda lines: lines.__setitem__(1, lines[1].replace(",", "\r,", 1)),
    "vertical-tab": lambda lines: lines.__setitem__(1, lines[1].replace(",", "\x0b,", 1)),
    "label-out-of-range": lambda lines: lines.__setitem__(2, lines[2].replace("\t", "\t7", 1)),
    "duplicate-id": lambda lines: lines.__setitem__(1, lines[0]),
    "row-beyond-num-nodes": lambda lines: lines.append(f"{len(lines)}\t0\t" + lines[0].split("\t")[2]),
    "empty": lambda lines: lines.clear(),
    "blank-lines-only": lambda lines: lines.__setitem__(slice(None), ["", "", ""]),
    "nan": lambda lines: edit_feature(lines, 3, 1, "nan"),
    "inf": lambda lines: edit_feature(lines, 3, 1, "inf"),
    "-inf": lambda lines: edit_feature(lines, 3, 1, "-inf"),
    "overflow": lambda lines: edit_feature(lines, 3, 1, "1e999"),
    "no-final-lf": ending(""),
    "cr-without-lf-at-the-end": ending("\r"),
    "blank-line-between-rows": lambda lines: lines.insert(3, ""),
    "id-plus": set_field(3, 0, "+3"),
    "id-space": set_field(3, 0, " 3"),
    "id-leading-zero": set_field(3, 0, "03"),
    "id-underscore": set_field(10, 0, "1_0"),
    "label-plus": set_field(3, 1, "+1"),
    "label-space": set_field(3, 1, " 1"),
    "label-leading-zero": set_field(3, 1, "01"),
    "label-underscore": set_field(3, 1, "1_0"),
    "third-tab": lambda lines: lines.__setitem__(2, lines[2] + "\t"),
    "no-features": set_field(5, 2, ""),
    "tenths": tenths,
    "tenths-out-of-order": then(tenths, reverse),
    "tenths-crlf": then(tenths, crlf),
    "tenths-nan": then(tenths, lambda lines: edit_feature(lines, 4, 2, "nan")),
    "tenths-no-final-lf": then(tenths, ending("")),
    "tenths-cr-without-lf-at-the-end": then(tenths, ending("\r")),
    "tenths-blank-line-between-rows": then(tenths, lambda lines: lines.insert(3, "")),
    "tenths-third-tab": then(tenths, lambda lines: lines.__setitem__(2, lines[2].replace(",", "\t", 1))),
    "tenths-no-features": then(tenths, set_field(5, 2, "")),
    **{
        f"tenths-{name}{variant}": then(tenths, set_field(3, 2, field), *extra)
        for name, field in NOT_TENTHS.items()
        for variant, extra in (("", ()), ("-out-of-order", (reverse,)), ("-crlf", (crlf,)))
    },
}


def rewrite_lines(path, edit):
    """Rewrite ``path`` through ``edit``, which changes its lines in place or returns the new text."""
    lines = path.read_text(encoding="utf-8").splitlines()
    text = edit(lines)
    if not isinstance(text, str):
        text = "".join(line + "\n" for line in lines)
    path.write_text(text, encoding="utf-8", newline="\n")


@pytest.mark.parametrize("edit", NODE_EDITS)
def test_loader_matches_the_per_line_checker(dataset_dir, edit):
    path, _ = dataset_dir
    rewrite_lines(path / "nodes.tsv", NODE_EDITS[edit])
    with counting_loadtxt() as loadtxt:
        assert_loader_matches_per_line_checker(path)
    if edit in ("nan", "inf", "-inf"):  # their letters go straight to the per-line checker
        assert feature_parses(loadtxt) == 0


EDGE_EDITS = {
    "non-digit": lambda lines: lines.__setitem__(2, "0\tx"),
    "three-fields": lambda lines: lines.__setitem__(3, lines[3] + "\t1"),
    "one-field": lambda lines: lines.__setitem__(1, "5"),
    "negative-id": lambda lines: lines.__setitem__(1, "-1\t2"),
    "30-digit-id": lambda lines: lines.__setitem__(4, "1" * 30 + "\t0"),
    "id-num-nodes": lambda lines: lines.__setitem__(0, "0\t12"),
    "leading-zeros": lambda lines: lines.__setitem__(0, "0003\t05"),
    "space": lambda lines: lines.__setitem__(0, " 3\t5"),
    "crlf": crlf,
    "crlf-blank-line": lambda lines: lines.__setitem__(
        slice(None), [line + "\r" for line in lines] + ["\r"]
    ),
    "inner-cr": lambda lines: lines.__setitem__(1, lines[1] + "\r\r"),
    "blank-lines": lambda lines: lines.__setitem__(slice(1, 1), ["", ""]),
    "empty": lambda lines: lines.clear(),
}


def insert_line(at, line):
    def edit(text):
        lines = text.splitlines(keepends=True)
        return "".join(lines[:at] + [line] + lines[at:])
    return edit


# Whole-file edits of edges.tsv that a line list cannot express, and whether
# the loader takes the file without the per-line checker.
EDGE_FILE_EDITS = {
    "no-final-newline": (lambda text: text.rstrip("\n"), True),
    "crlf-last-line": (lambda text: text[:-1] + "\r\n", True),
    "cr-without-lf-at-the-end": (lambda text: text[:-1] + "\r", False),
    "blank-line-in-the-middle": (insert_line(3, "\n"), True),
    "blank-crlf-line-in-the-middle": (insert_line(3, "\r\n"), False),
    "blank-lines-only": (lambda text: "\n\n", False),
    "empty": (lambda text: "", False),
}


@pytest.mark.parametrize("edit", EDGE_EDITS.values(), ids=EDGE_EDITS.keys())
def test_edges_match_the_per_line_checker(dataset_dir, edit):
    path, original = dataset_dir
    rewrite_lines(path / "edges.tsv", edit)
    assert_edges_match_per_line_checker(path, original)


@pytest.mark.parametrize("edit, streamed", EDGE_FILE_EDITS.values(), ids=EDGE_FILE_EDITS.keys())
def test_edge_files_match_the_per_line_checker(dataset_dir, edit, streamed):
    path, original = dataset_dir
    text = (path / "edges.tsv").read_text(encoding="utf-8")
    (path / "edges.tsv").write_text(edit(text), encoding="utf-8", newline="\n")
    per_line = mock.patch.object(datasets, "_parse_edge_lines", wraps=datasets._parse_edge_lines)
    with per_line as parse:
        assert_edges_match_per_line_checker(path, original)
    assert parse.call_count == 2 - streamed  # the oracle's own call, and the loader's fallback


def assert_edges_match_per_line_checker(path, original):
    n = original.num_nodes
    try:
        expected = datasets._parse_edge_lines(path / "edges.tsv", n)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == str(exc)
    else:
        graph = load_dataset(path)
        canonical = build_graph(expected, n, original.features, original.labels, 2)
        np.testing.assert_array_equal(graph.edges, canonical.edges)


def test_crlf_files_are_streamed(dataset_dir):
    # One \r before each LF is a line ending; a \r anywhere else, or a blank
    # CRLF line, still goes to the per-line checkers (NODE_EDITS, EDGE_EDITS).
    path, original = dataset_dir
    for name, edits in (("nodes.tsv", NODE_EDITS), ("edges.tsv", EDGE_EDITS)):
        rewrite_lines(path / name, edits["crlf"])
        blob = (path / name).read_bytes()
        assert blob.count(b"\r\n") == blob.count(b"\n") > 0
    with mock.patch.object(datasets, "_parse_edge_lines", _no_per_line_parse), \
            mock.patch.object(datasets, "_parse_node_lines", _no_per_line_parse):
        loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.edges, original.edges)
    np.testing.assert_array_equal(loaded.features.view(np.int64), original.features.view(np.int64))
    np.testing.assert_array_equal(loaded.labels, original.labels)


def test_plain_files_are_streamed(dataset_dir):
    path, original = dataset_dir
    with mock.patch.object(datasets, "_parse_edge_lines", _no_per_line_parse), \
            mock.patch.object(datasets, "_parse_node_lines", _no_per_line_parse):
        loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.edges, original.edges)
    np.testing.assert_array_equal(loaded.features, original.features)


@pytest.mark.parametrize("name, where", [
    ("nodes.tsv", "nodes.tsv line 13: not valid UTF-8"),
    ("edges.tsv", r"edges.tsv line \d+: not valid UTF-8"),
    ("meta.json", "meta.json: not valid UTF-8"),
])
def test_bytes_outside_utf8_are_a_data_error(dataset_dir, tmp_path, capsys, name, where):
    path, _ = dataset_dir
    target = path / name
    if name == "meta.json":
        target.write_bytes(target.read_bytes().replace(b'"toy"', b'"t\xffy"'))
    else:
        target.write_bytes(target.read_bytes() + b"\xff")
    with pytest.raises(DataError, match=where):
        load_dataset(path)
    out = tmp_path / "diag"
    assert main(["diagnose", "--data", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_meta_counts_allocate_nothing_before_the_file_proves_them(dataset_dir):
    # A (10**7, 3) feature table sized from meta.json alone would take 240 MB
    # before a single row is read; the file holds 12 rows.
    path, _ = dataset_dir
    meta = json.loads((path / "meta.json").read_text())
    meta["num_nodes"] = 10**7
    (path / "meta.json").write_text(json.dumps(meta))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="nodes.tsv: no row for node 12$"):
            load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def _no_per_line_parse(*args, **kwargs):
    raise AssertionError("a plain file fell back to a per-line parse")


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_save_load_round_trip_is_bit_identical(tmp_path_factory, data):
    n = data.draw(st.integers(1, 6))
    f = data.draw(st.integers(1, 5))
    features = np.array(data.draw(st.lists(finite_floats, min_size=n * f, max_size=n * f)))
    graph = toy_graph([(0, n - 1)], labels=[0] * n, features=features.reshape(n, f))
    path = tmp_path_factory.mktemp("round-trip")
    save_dataset(graph, "round-trip", path)
    with mock.patch.object(datasets, "_parse_node_lines", _no_per_line_parse):
        loaded = load_dataset(path)
    np.testing.assert_array_equal(
        loaded.features.view(np.int64), graph.features.view(np.int64)
    )


def counting_loadtxt():
    """Wrap ``np.loadtxt`` in a mock that records its calls."""
    return mock.patch.object(np, "loadtxt", wraps=np.loadtxt)


def feature_parses(loadtxt):
    """How many of the mock's calls parsed ``nodes.tsv`` features (``delimiter=","``)."""
    return sum(call.kwargs.get("delimiter") == "," for call in loadtxt.call_args_list)


def test_every_tenths_token_loads_as_its_float(tmp_path):
    # (10a + b) / 10 is one correctly rounded division, so it equals the
    # decimal's nearest double; (10a + b) * 0.1 differs on 35 of these tokens.
    tokens = [f"{a}.{b}" for a in range(10) for b in range(10)]
    save_dataset(toy_graph([(0, 9)], labels=[0] * 10), "tenths", tmp_path)
    (tmp_path / "nodes.tsv").write_text(
        "".join(f"{row}\t0\t{','.join(tokens[10 * row:10 * row + 10])}\n" for row in range(10))
    )
    with counting_loadtxt() as loadtxt, \
            mock.patch.object(datasets, "_parse_node_lines", _no_per_line_parse):
        loaded = load_dataset(tmp_path)
    assert feature_parses(loadtxt) == 0
    expected = np.array([float(token) for token in tokens]).reshape(10, 10)
    np.testing.assert_array_equal(loaded.features.view(np.int64), expected.view(np.int64))


tenths_tokens = st.builds("{}.{}".format, st.integers(0, 9), st.integers(0, 9))
other_tokens = st.sampled_from(["12.0", "-1.0", "1e0", "0.25", "0.1000000000000000055511151231257827"])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_tenths_tables_match_the_per_line_checker(tmp_path_factory, data):
    n = data.draw(st.integers(1, 8))
    f = data.draw(st.integers(1, 5))
    mixed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = [
        data.draw(st.lists(st.one_of(tenths_tokens, other_tokens) if mix else tenths_tokens,
                           min_size=f, max_size=f))
        for mix in mixed
    ]
    graph = toy_graph([(0, n - 1)], labels=[node % 2 for node in range(n)], features=np.zeros((n, f)))
    path = tmp_path_factory.mktemp("tenths")
    save_dataset(graph, "tenths", path)
    (path / "nodes.tsv").write_text("".join(
        f"{node}\t{node % 2}\t{','.join(rows[node])}\n"
        for node in data.draw(st.permutations(range(n)))
    ))
    features, labels = datasets._parse_node_lines(path / "nodes.tsv", n, f, graph.num_classes)
    chunk_bytes = data.draw(st.integers(1, 64))  # chunks of one row up to the whole file
    with counting_loadtxt() as loadtxt, \
            mock.patch.object(datasets, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(datasets, "_parse_node_lines", _no_per_line_parse):
        loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.features.view(np.int64), features.view(np.int64))
    np.testing.assert_array_equal(loaded.labels, labels)
    assert (feature_parses(loadtxt) == 0) == all(
        len(token) == 3 and token[1] == "." for row in rows for token in row
    )


def save_block2k_shaped(path):
    """Save a block2k-shaped input (N = 2000, 64 Gaussian features) and return its graph."""
    rng = np.random.default_rng(0)
    n = 2000
    graph = build_graph(
        rng.integers(0, n, size=(6000, 2)), n, rng.normal(size=(n, 64)),
        rng.integers(0, 5, size=n), 5,
    )
    save_dataset(graph, "gaussian", path)
    return graph


def traced_load(path):
    """``load_dataset(path)`` and the tracemalloc peak, in bytes, of the call."""
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        return loaded, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_peak_memory_is_a_small_multiple_of_the_features(tmp_path):
    # The load peaks at about 1.6x features.nbytes, inside build_graph: the
    # parsed table, which it adopts without a copy, plus its edge arrays. The
    # parse alone peaks at about 1.25x, the table plus one chunk of lines (1.4x
    # with one np.loadtxt and its growth slack). Copying the table in
    # build_graph read 2.3x, and the earlier bulk parse, which held the whole
    # file as bytes, text, lines and split fields at once, read 7.95x.
    graph = save_block2k_shaped(tmp_path)
    loaded, peak = traced_load(tmp_path)
    np.testing.assert_array_equal(loaded.features, graph.features)
    assert peak < 2.0 * loaded.features.nbytes


@pytest.mark.parametrize("edit", [None, NODE_EDITS["out-of-order"], NODE_EDITS["vertical-tab"]],
                         ids=["streamed", "streamed-unsorted", "per-line"])
def test_loaded_features_are_read_only_and_adopted_by_build_graph(dataset_dir, edit):
    path, original = dataset_dir
    if edit is not None:
        rewrite_lines(path / "nodes.tsv", edit)
    per_line = mock.patch.object(
        datasets, "_parse_node_lines", wraps=datasets._parse_node_lines
    )
    build = mock.patch.object(datasets, "build_graph", wraps=datasets.build_graph)
    with per_line as parse, build as built:
        graph = load_dataset(path)
    assert parse.called == (edit is NODE_EDITS["vertical-tab"])
    assert graph.features is built.call_args.args[2]  # adopted, not copied
    assert not graph.features.flags.writeable and graph.features.flags.owndata
    np.testing.assert_array_equal(graph.features, original.features)


def test_out_of_order_rows_are_reordered_in_place(tmp_path):
    # Each row is written at its id's row, so the reversed file peaks like the
    # sorted one. Reordering with table[order] after the parse held a second
    # table: about 2.16x features.nbytes, against 1.59x.
    graph = save_block2k_shaped(tmp_path)
    _, sorted_peak = traced_load(tmp_path)
    rewrite_lines(tmp_path / "nodes.tsv", NODE_EDITS["out-of-order"])
    loaded, reversed_peak = traced_load(tmp_path)
    np.testing.assert_array_equal(loaded.features, graph.features)
    np.testing.assert_array_equal(loaded.labels, graph.labels)
    assert reversed_peak <= sorted_peak + 0.05 * graph.features.nbytes


def test_saved_features_match_per_value_repr(tmp_path):
    features = np.random.default_rng(0).normal(size=(40, 7))
    features[0, :4] = [-0.0, 1e-300, np.inf, np.nan]
    features[1, :3] = [-np.inf, 5e-324, 1.7976931348623157e308]
    graph = toy_graph([(0, 1)], labels=[0] * 40, features=features)
    save_dataset(graph, "repr", tmp_path)
    expected = "".join(
        f"{node}\t0\t" + ",".join(repr(float(x)) for x in row) + "\n"
        for node, row in enumerate(graph.features)
    )
    assert (tmp_path / "nodes.tsv").read_bytes() == expected.encode("utf-8")
