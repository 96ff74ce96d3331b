"""End-to-end checks for the ``diverspec`` command line.

Every test drives :func:`diverspec.cli.main` directly with an argv list, so the
exit-code mapping and the artifact files are exercised exactly as a shell user
would see them.  Training runs use a deliberately tiny graph and epoch budget
to keep the suite fast.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import dataclasses
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diverspec
from diverspec import cli, errors
from diverspec.analysis import homophily_histogram
from diverspec.cli import _write_json, main
from diverspec.datasets import load_dataset, random_graph, save_dataset, two_block_graph
from diverspec.domains import DOMAINS
from diverspec.graph import build_graph, edge_homophily, local_label_homophily
from diverspec.model import DsfConfig
from diverspec.training import TrainConfig

from conftest import EQUAL_RWPE_ROWS, counting_forks, toy_graph

CONFIG_TEXT = """\
# model
backbone = GPR
mode = R
K = 3
d = 8
f_p = 4
eta1 = 0.3
lambda_orth = 0.001
dropout_p = 0.1

# trainer (tiny budget: these runs only need to finish, not to converge)
lr = 0.05
weight_decay = 0.0005
epochs = 6
patience = 6
"""


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli") / "blocks"
    save_dataset(two_block_graph(block_size=10, num_features=4, seed=3), "blocks", root)
    return root


@pytest.fixture(scope="module")
def config_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cli-cfg") / "tiny.conf"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def train_dir(dataset_dir, config_path, tmp_path_factory) -> Path:
    """One shared dsf training run; several tests inspect its artifacts."""
    out = tmp_path_factory.mktemp("cli-train")
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(config_path),
        "--out", str(out), "--runs", "2", "--splits", "2", "--seed", "7",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def baseline_dir(dataset_dir, config_path, tmp_path_factory) -> Path:
    """One shared-coefficient baseline run."""
    out = tmp_path_factory.mktemp("cli-baseline")
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(config_path),
        "--out", str(out), "--runs", "1", "--splits", "1", "--seed", "1",
        "--baseline",
    ])
    assert code == 0
    return out


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def decode_params(params: dict) -> dict[str, np.ndarray]:
    """Every checkpoint tensor from its base64 float64 bytes, with the byte count checked."""
    tensors = {}
    for name, entry in params.items():
        assert set(entry) == {"data", "dtype", "shape"}
        assert entry["dtype"] == "<f8"
        raw = base64.b64decode(entry["data"], validate=True)
        assert len(raw) == 8 * int(np.prod(entry["shape"])), name
        tensors[name] = np.frombuffer(raw, "<f8").reshape(entry["shape"])
    return tensors


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_writes_all_artifacts(dataset_dir, tmp_path):
    out = tmp_path / "diag"
    assert main(["diagnose", "--data", str(dataset_dir), "--out", str(out)]) == 0

    graph = load_dataset(dataset_dir)
    expected_ids, expected_values = homophily_histogram(graph, k=2)
    header, rows = read_csv(out / "homophily.csv")
    assert header == ["node_id", "value"]
    assert [int(r[0]) for r in rows] == list(expected_ids)
    assert [float(r[1]) for r in rows] == pytest.approx(expected_values)

    for band in ("low", "mid", "high"):
        header, rows = read_csv(out / f"frequency_{band}.csv")
        assert header == ["node_id", "value"]
        # local frequency is undefined for exactly the nodes homophily drops
        assert [int(r[0]) for r in rows] == list(expected_ids)
        sidecar = json.loads((out / f"frequency_{band}.json").read_text())
        assert set(sidecar) == {"eigen_index", "lambda_global", "k"}

    summary = json.loads((out / "summary.json").read_text())
    assert summary["num_nodes"] == 20
    assert summary["num_classes"] == 2
    graph = load_dataset(dataset_dir)
    assert summary["edge_homophily"] == pytest.approx(edge_homophily(graph))
    assert summary["settings"]["bands"] == ["low", "mid", "high"]


def test_diagnose_band_indices_are_ordered(dataset_dir, tmp_path):
    out = tmp_path / "diag"
    main(["diagnose", "--data", str(dataset_dir), "--out", str(out)])
    indices = {
        band: json.loads((out / f"frequency_{band}.json").read_text())["eigen_index"]
        for band in ("low", "mid", "high")
    }
    assert indices["low"] == 1
    assert indices["mid"] == 10
    assert indices["high"] == 20


def test_diagnose_homophily_matches_library(tmp_path):
    data = tmp_path / "path3"
    save_dataset(toy_graph([(0, 1), (1, 2)], [0, 0, 1]), "path3", data)
    out = tmp_path / "diag"
    assert main(["diagnose", "--data", str(data), "--out", str(out), "--k-hops", "1"]) == 0

    _, rows = read_csv(out / "homophily.csv")
    assert len(rows) == 3
    graph = load_dataset(data)
    for node_id, value in rows:
        expected = local_label_homophily(graph, int(node_id), k=1)
        assert float(value) == pytest.approx(expected)


def test_diagnose_rejects_unknown_band(dataset_dir, tmp_path, capsys):
    code = main([
        "diagnose", "--data", str(dataset_dir), "--out", str(tmp_path), "--bands", "low,ultra",
    ])
    assert code == 1
    assert "unknown band" in capsys.readouterr().err


def test_diagnose_negative_k_hops_is_a_usage_error(tmp_path, capsys):
    # The dataset path does not exist: the flag is rejected before it is read.
    out = tmp_path / "diag"
    code = main([
        "diagnose", "--data", str(tmp_path / "nowhere"), "--out", str(out), "--k-hops", "-1",
    ])
    assert code == 1
    assert "--k-hops" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_unknown_band_exits_one_before_reading_data(tmp_path, capsys):
    out = tmp_path / "diag"
    for bands, message in [
        ("low,ultra", "unknown band"), ("low,mid,low", "band 'low' is given twice"),
    ]:
        code = main([
            "diagnose", "--data", str(tmp_path / "nowhere"), "--out", str(out), "--bands", bands,
        ])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "edges, extra, code",
    [
        ([], [], 2),
        ([(0, 1), (2, 3)], ["--dense-limit", "3"], 1),
        ([], ["--dense-limit", "3"], 2),
    ],
    ids=["edgeless", "over-dense-limit", "edgeless-over-dense-limit"],
)
def test_diagnose_rejected_input_writes_nothing(tmp_path, capsys, edges, extra, code):
    data = tmp_path / "graph4"
    save_dataset(toy_graph(edges, [0, 1, 0, 1]), "graph4", data)
    out = tmp_path / "diag"
    assert main(["diagnose", "--data", str(data), "--out", str(out), *extra]) == code
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_diagnose_missing_dataset_is_a_data_error(tmp_path, capsys):
    code = main(["diagnose", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_diagnose_outputs_do_not_depend_on_where_the_nodes_are_checked(tmp_path, monkeypatch):
    # Two usable CPUs fork the node-table check, one runs it here first.
    # 1100 nodes span three 512-node reach blocks.
    data = tmp_path / "random1100"
    save_dataset(random_graph(1100, 0.005, num_classes=4, num_features=3, seed=5), "r", data)
    outputs = {}
    forks = counting_forks(monkeypatch)
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["diagnose", "--data", str(data), "--out", str(out)]) == 0
        outputs[cpus] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(forks) == 1 and not multiprocessing.active_children()
    assert len(outputs[1]) == 8
    assert outputs[2] == outputs[1]


def corrupt_node_line(data: Path, edit) -> None:
    """Replace line 3 of ``nodes.tsv`` (node 2) by ``edit(fields)``; ``None`` drops it."""
    path = data / "nodes.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    edited = edit(lines[2].rstrip("\n").split("\t"))
    lines[2] = "" if edited is None else "\t".join(edited) + "\n"
    path.write_text("".join(lines), encoding="utf-8", newline="\n")


def bad_feature(fields: list[str]) -> list[str]:
    return [fields[0], fields[1], "x" + fields[2][fields[2].index(","):]]


def non_finite_feature(token: str):
    return lambda fields: [fields[0], fields[1], token + fields[2][fields[2].index(","):]]


BAD_NODE_LINES = {
    "non-numeric-feature": (bad_feature, " line 3: features must be decimal numbers"),
    "nan-feature": (non_finite_feature("nan"), " line 3: features must be finite"),
    "duplicate-id": (lambda f: ["1", *f[1:]], " line 3: duplicate id 1"),
    "label-out-of-range": (lambda f: [f[0], "2", f[2]], " line 3: label 2 outside [0, 2)"),
    "missing-row": (lambda f: None, ": no row for node 2"),
}


@pytest.mark.parametrize("case", BAD_NODE_LINES)
def test_diagnose_bad_node_table_fails_alike_on_both_paths(
    dataset_dir, tmp_path, monkeypatch, capsys, case
):
    edit, message = BAD_NODE_LINES[case]
    data = tmp_path / "bad"
    shutil.copytree(dataset_dir, data)
    corrupt_node_line(data, edit)
    results = []
    forks = counting_forks(monkeypatch)
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"diag{cpus}"
        code = main(["diagnose", "--data", str(data), "--out", str(out)])
        results.append((code, capsys.readouterr().err))
        assert not out.exists()
        assert len(forks) == 1 and not multiprocessing.active_children()
    assert results[0] == results[1] == (2, f"error: {data / 'nodes.tsv'}{message}\n")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["train", "diagnose"])
def test_a_non_finite_feature_fails_before_any_output(
    dataset_dir, config_path, tmp_path, capsys, command, token
):
    # Loaded, a NaN feature made train exit 3 mid-grid ("non-finite gradient")
    # and diagnose exit 0.
    data = tmp_path / "bad"
    shutil.copytree(dataset_dir, data)
    corrupt_node_line(data, non_finite_feature(token))
    out = tmp_path / "out"
    extra = ["--config", str(config_path)] if command == "train" else []
    assert main([command, "--data", str(data), "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err == (
        f"error: {data / 'nodes.tsv'} line 3: features must be finite\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "in-process"])
@pytest.mark.parametrize(
    "edges, extra",
    [([(0, 1), (2, 3)], ["--dense-limit", "3"]), ([], [])],
    ids=["over-dense-limit", "edgeless"],
)
def test_diagnose_bad_node_table_beats_later_rejections(
    tmp_path, monkeypatch, capsys, edges, extra, cpus
):
    # Alone, these inputs exit 1 (over --dense-limit) or 2 (edgeless graph).
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    forks = counting_forks(monkeypatch)
    data = tmp_path / "graph4"
    save_dataset(toy_graph(edges, [0, 1, 0, 1]), "graph4", data)
    corrupt_node_line(data, bad_feature)
    out = tmp_path / "diag"
    assert main(["diagnose", "--data", str(data), "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err == (
        f"error: {data / 'nodes.tsv'} line 3: features must be decimal numbers\n"
    )
    assert not out.exists()
    assert len(forks) == (cpus == 2) and not multiprocessing.active_children()


def test_diagnose_reports_a_node_check_that_dies(dataset_dir, tmp_path, monkeypatch):
    caller = os.getpid()
    real_read_labels = cli.read_labels

    def dying(*args):
        if os.getpid() != caller:
            os._exit(7)
        return real_read_labels(*args)

    monkeypatch.setattr(cli, "read_labels", dying)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    out = tmp_path / "diag"
    with pytest.raises(RuntimeError, match="exited with code 7"):
        main(["diagnose", "--data", str(dataset_dir), "--out", str(out)])
    assert not out.exists()
    assert not multiprocessing.active_children()


def test_diagnose_beside_another_thread_checks_the_nodes_in_process(
    dataset_dir, tmp_path, monkeypatch
):
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("diagnose forked"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert main(["diagnose", "--data", str(dataset_dir), "--out", str(tmp_path / "d")]) == 0
    finally:
        release.set()
        thread.join(60)


def test_diagnose_holds_one_feature_table_at_most(tmp_path, capsys, monkeypatch):
    # Wide binary features, as in Chameleon, dwarf the dense L-hat (0.7 MB
    # here). The loader's parsed table is the only copy, and it is gone
    # before the eigen stage: checked in this process (one usable CPU), the
    # peak reads about 1.07x features.nbytes, against 2.0x when build_graph
    # copied the table and diagnose held it throughout. Checked in a forked
    # child, the table never enters this process.
    n = 300
    edges = random_graph(n, 0.02, seed=0).edges
    wide = (np.random.default_rng(0).random((n, 4000)) < 0.05).astype(np.float64)
    graph = build_graph(edges, n, wide, np.arange(n) % 3, 3)
    data = tmp_path / "wide"
    save_dataset(graph, "wide", data)
    decompose = cli.eigendecompose
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "usable_cpus", lambda cpus=cpus: cpus)
        held = []

        def eigendecompose(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return decompose(*args, **kwargs)

        tracemalloc.start()
        try:
            with mock.patch.object(cli, "eigendecompose", eigendecompose):
                code = main(["diagnose", "--data", str(data), "--out", str(tmp_path / str(cpus))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 1.5 * graph.features.nbytes
        assert held[0] < 0.5 * graph.features.nbytes  # the table is gone before the eigen stage
        if cpus == 2:  # the largest allocation left is the reach sweep's (1024, N) float64 chunk
            assert peak < 0.4 * graph.features.nbytes
        else:
            assert peak > graph.features.nbytes  # the table was parsed here


# ---------------------------------------------------------------------------
# train


def test_train_metrics_schema(train_dir, dataset_dir):
    metrics = json.loads((train_dir / "metrics-dsf.json").read_text())
    assert metrics["variant"] == "dsf"
    assert metrics["dataset"] == str(dataset_dir)
    assert metrics["backbone"] == "GPR"
    assert metrics["mode"] == "R"
    assert metrics["runs"] == 2 and metrics["splits"] == 2
    assert metrics["split_mode"] == "dense"
    assert metrics["base_seed"] == 7
    cells = metrics["per_run"]
    assert len(cells) == 4
    assert [(c["run"], c["split"]) for c in cells] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for cell in cells:
        assert cell["seed"] == [7, cell["run"], cell["split"]]
        assert 0.0 <= cell["test_acc"] <= 1.0
        assert 1 <= cell["best_epoch"] <= cell["epochs_run"] <= 6
    assert metrics["mean_acc"] == pytest.approx(np.mean([c["test_acc"] for c in cells]))
    assert metrics["ci95"] >= 0.0
    assert metrics["config"]["K"] == 3
    assert metrics["config"]["epochs"] == 6
    assert len(metrics["config_hash"]) == 12


def test_train_checkpoint_holds_every_parameter(train_dir):
    checkpoint = json.loads((train_dir / "checkpoint-dsf.json").read_text())
    metrics = json.loads((train_dir / "metrics-dsf.json").read_text())
    assert checkpoint["config_hash"] == metrics["config_hash"]
    params = checkpoint["params"]
    expected = {"w_in", "b_in", "w_pos", "b_pos", "gate_w", "gate_b", "gamma", "w_out", "b_out"}
    assert set(params) == expected
    tensors = decode_params(params)
    assert all(np.isfinite(t).all() for t in tensors.values())
    assert params["gamma"]["shape"] == [1, 4]
    assert params["gate_w"]["shape"] == [8, 4]  # d x (K + 1)
    assert params["w_pos"]["shape"] == [4, 8]  # f_p -> d
    assert params["w_out"]["shape"] == [8, 2]


@pytest.mark.parametrize("flag", [[], ["--baseline"]], ids=["dsf", "baseline"])
def test_train_checkpoint_round_trips_exactly(dataset_dir, config_path, tmp_path, monkeypatch, flag):
    grids, run_grid = [], cli.run_grid

    def recording_run_grid(*args, **kwargs):
        grids.append(run_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(cli, "run_grid", recording_run_grid)
    out = tmp_path / "run"
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(config_path),
        "--out", str(out), "--runs", "1", "--splits", "1", "--seed", "4", *flag,
    ])
    assert code == 0
    run = grids[0].last_run
    variant = "baseline" if flag else "dsf"
    text = (out / f"checkpoint-{variant}.json").read_text(encoding="utf-8")
    params = json.loads(text)["params"]
    assert set(params) == set(run.params)
    stored = decode_params(params)
    for name, arr in run.params.items():
        assert params[name]["shape"] == list(arr.shape)
        assert arr.dtype == np.float64 and stored[name].tobytes() == arr.tobytes()
    # One line per tensor, plus the opening and closing lines, not one per float.
    assert text.count("\n") == len(run.params) + 5
    # The weight table is the text of the per-value ``repr(float(x))`` formatter.
    betas = run.betas
    expected = ["node_id," + ",".join(f"beta_{k}" for k in range(betas.shape[1]))]
    expected += [",".join([str(i)] + [repr(float(x)) for x in betas[i]]) for i in range(len(betas))]
    assert (out / f"beta-{variant}.csv").read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def test_checkpoint_loads_as_the_json_writer_output(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "w": rng.standard_normal((1000, 2)) * 1e-300,  # subnormals too
        "a": np.array([[0.0, -0.0, 5e-324, 1.7976931348623157e308, -0.1]]),
        "empty": np.zeros((0, 4)),
        "t": np.asfortranarray(rng.standard_normal((3, 5))),  # stored row-major all the same
    }
    cli._write_text(tmp_path / "new.json", cli._checkpoint_chunks("abc", params))
    new = (tmp_path / "new.json").read_text(encoding="utf-8")
    stored = decode_params(json.loads(new)["params"])
    for name, arr in params.items():
        assert stored[name].shape == arr.shape
        assert stored[name].tobytes() == arr.tobytes(), name  # C order
    # The keys, values and nesting are those of the JSON writer's document.
    _write_json(
        tmp_path / "old.json",
        {
            "config_hash": "abc",
            "params": {
                name: {
                    "data": base64.b64encode(arr.tobytes()).decode("ascii"),
                    "dtype": "<f8",
                    "shape": list(arr.shape),
                }
                for name, arr in params.items()
            },
        },
    )
    old = (tmp_path / "old.json").read_text(encoding="utf-8")
    assert json.loads(new) == json.loads(old)
    # One line per tensor, in name order, plus the opening and closing lines.
    lines = new.splitlines()
    assert len(lines) == len(params) + 5
    assert [line.split('"')[1] for line in lines[3:-2]] == sorted(params)


def test_checkpoint_with_a_nan_parameter_leaves_no_file(tmp_path):
    # The bad value sits in the last tensor, after a large one has been written.
    for bad in (np.nan, np.inf, -np.inf):
        params = {"a": np.ones((8192, 3)), "z": np.array([[1.0, bad]])}
        with pytest.raises(ValueError, match="'z'"):
            cli._write_text(tmp_path / "checkpoint-dsf.json", cli._checkpoint_chunks("abc", params))
        assert list(tmp_path.iterdir()) == []


def test_json_outputs_are_streamed_atomically(tmp_path):
    obj = {"b": [0.1, 1e-05, -2.5e16], "a": {"data": np.linspace(0, 1, 6).tolist()}}
    path = tmp_path / "out" / "doc.json"
    _write_json(path, obj)
    assert path.read_text(encoding="utf-8") == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    # A value JSON cannot encode fails mid-stream: the old file stays, no temp file is left.
    with pytest.raises(TypeError):
        _write_json(path, {"a": [1.0] * 1000, "z": object()})
    assert json.loads(path.read_text(encoding="utf-8")) == obj
    assert [p.name for p in path.parent.iterdir()] == ["doc.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_take_the_umask(dataset_dir, config_path, tmp_path, umask, mode):
    # The temp file behind each atomic write is created 0o600; the output is not.
    run, ana, diag = tmp_path / "run", tmp_path / "ana", tmp_path / "diag"
    previous = os.umask(umask)
    try:
        assert main([
            "train", "--data", str(dataset_dir), "--config", str(config_path),
            "--out", str(run), "--runs", "1", "--splits", "1", "--seed", "2",
        ]) == 0
        assert main(["analyze", "--run-dir", str(run), "--clusters", "2", "--out", str(ana)]) == 0
        assert main(["diagnose", "--data", str(dataset_dir), "--out", str(diag)]) == 0
    finally:
        os.umask(previous)
    outputs = [path for out in (run, ana, diag) for path in out.iterdir()]
    assert len(outputs) == 3 + 3 + 8
    assert {path.name: oct(path.stat().st_mode & 0o777) for path in outputs} == {
        path.name: oct(mode) for path in outputs
    }


def test_train_beta_table_shape(train_dir):
    header, rows = read_csv(train_dir / "beta-dsf.csv")
    assert header == ["node_id", "beta_0", "beta_1", "beta_2", "beta_3"]
    assert len(rows) == 20
    assert [int(r[0]) for r in rows] == list(range(20))
    np.asarray([[float(x) for x in r[1:]] for r in rows])  # parses as floats


def test_train_baseline_rows_are_shared(baseline_dir):
    metrics = json.loads((baseline_dir / "metrics-baseline.json").read_text())
    assert metrics["variant"] == "baseline"
    _, rows = read_csv(baseline_dir / "beta-baseline.csv")
    table = np.asarray([[float(x) for x in r[1:]] for r in rows])
    assert np.all(table == table[0])
    # The baseline trains one shared coefficient row and nothing positional.
    params = json.loads((baseline_dir / "checkpoint-baseline.json").read_text())["params"]
    assert set(params) == {"w_in", "b_in", "w_out", "b_out", "gamma"}
    assert params["gamma"]["shape"] == [1, 4]
    assert decode_params(params)["gamma"][0].tobytes() == table[0].tobytes()


def test_train_no_ipe_flips_the_ablation_switch(dataset_dir, config_path, tmp_path):
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(config_path),
        "--out", str(tmp_path), "--runs", "1", "--splits", "1", "--seed", "1",
        "--no-ipe",
    ])
    assert code == 0
    metrics = json.loads((tmp_path / "metrics-no-ipe.json").read_text())
    assert metrics["variant"] == "no-ipe"
    assert metrics["config"]["ablate_ipe"] is True
    assert (tmp_path / "beta-no-ipe.csv").is_file()
    params = json.loads((tmp_path / "checkpoint-no-ipe.json").read_text())["params"]
    assert set(params) == {"w_in", "b_in", "w_out", "b_out", "gamma"}
    assert params["gamma"]["shape"] == [20, 4]  # one trained row per node


def test_config_file_ablation_writes_the_no_ipe_outputs(dataset_dir, config_path, tmp_path):
    # ablate_ipe = true in the config file trains and names the same run as --no-ipe.
    ablated = tmp_path / "ablated.conf"
    ablated.write_text(CONFIG_TEXT + "ablate_ipe = true\n", encoding="utf-8")
    outs = {}
    for name, config, flags in (("file", ablated, []), ("flag", config_path, ["--no-ipe"])):
        outs[name] = tmp_path / name
        code = main([
            "train", "--data", str(dataset_dir), "--config", str(config),
            "--out", str(outs[name]), "--runs", "1", "--splits", "1", "--seed", "1", *flags,
        ])
        assert code == 0
    names = sorted(path.name for path in outs["flag"].iterdir())
    assert names == sorted(path.name for path in outs["file"].iterdir())
    assert all("-no-ipe." in name for name in names)
    for name in names:
        assert (outs["file"] / name).read_bytes() == (outs["flag"] / name).read_bytes(), name


def test_train_config_hash_names_the_variant(
    train_dir, baseline_dir, dataset_dir, config_path, tmp_path
):
    # One config file, three variants: three digests, and each run's metrics
    # and checkpoint carry the same one.
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(config_path),
        "--out", str(tmp_path), "--runs", "1", "--splits", "1", "--no-ipe",
    ])
    assert code == 0
    digests = set()
    for run_dir, variant in ((train_dir, "dsf"), (baseline_dir, "baseline"), (tmp_path, "no-ipe")):
        metrics = json.loads((run_dir / f"metrics-{variant}.json").read_text())
        checkpoint = json.loads((run_dir / f"checkpoint-{variant}.json").read_text())
        assert checkpoint["config_hash"] == metrics["config_hash"]
        digests.add(metrics["config_hash"])
    assert len(digests) == 3


def test_train_mode_flag_is_rejected(dataset_dir, config_path, tmp_path, capsys):
    # mode and eta2 come from the config file alone.
    out = tmp_path / "out"
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(config_path),
        "--out", str(out), "--mode", "I",
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --mode I\n"
    assert not out.exists()


def test_train_baseline_with_an_ablating_config_exits_one_before_reading_data(
    tmp_path, monkeypatch, capsys
):
    ablated = tmp_path / "ablated.conf"
    ablated.write_text(CONFIG_TEXT + "ablate_ipe = true\n", encoding="utf-8")
    loader = mock.Mock(wraps=cli.load_dataset)
    monkeypatch.setattr(cli, "load_dataset", loader)
    out = tmp_path / "out"
    code = main([
        "train", "--data", str(tmp_path / "nowhere"), "--config", str(ablated),
        "--out", str(out), "--baseline",
    ])
    # Exit 1 for the conflict, not the missing dataset's 2.
    assert code == 1
    assert "exclude each other" in capsys.readouterr().err
    loader.assert_not_called()
    assert not out.exists()


def test_train_reruns_are_byte_identical(dataset_dir, config_path, tmp_path):
    argv = [
        "train", "--data", str(dataset_dir), "--config", str(config_path),
        "--runs", "1", "--splits", "2", "--seed", "11",
    ]
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    for name in ("metrics-dsf.json", "checkpoint-dsf.json", "beta-dsf.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_train_bad_config_key_is_a_usage_failure(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("K = 3\nmomentum = 0.9\n", encoding="utf-8")
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(bad), "--out", str(tmp_path),
    ])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_non_finite_jacobi_parameter_is_a_usage_failure(
    dataset_dir, tmp_path, capsys, value
):
    # Without the check the grid starts and dies with a non-finite loss (exit 3).
    bad = tmp_path / "bad.conf"
    bad.write_text(f"backbone = Jacobi\nK = 3\njacobi_b = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["train", "--data", str(dataset_dir), "--config", str(bad), "--out", str(out)])
    assert code == 1
    assert "Jacobi parameters" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("backbone", ["GPR", "Bern"])
def test_train_bad_jacobi_parameter_on_any_backbone_exits_one(
    dataset_dir, tmp_path, capsys, backbone, value
):
    # The Jacobi parameters are checked whatever the backbone: without that, the
    # grid trains and NaN reaches the JSON writer, which raises after the work.
    bad = tmp_path / "bad.conf"
    bad.write_text(f"backbone = {backbone}\nK = 3\njacobi_a = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(bad), "--out", str(out),
        "--runs", "1", "--splits", "1",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Jacobi parameters" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "lambda_orth = nan",
        "lambda_orth = inf",
        "mode = I\neta2 = nan",
        "mode = I\neta2 = inf",
        "lr = nan",
        "lr = inf",
        "weight_decay = nan",
        "weight_decay = inf",
        "weight_decay = -inf",
    ],
)
def test_train_non_finite_float_exits_one_before_any_output(dataset_dir, tmp_path, capsys, line):
    # Without the checks NaN trains as 0 or dies mid-grid (exit 3), or lands in the JSON.
    key = line.rsplit("\n", 1)[-1].split(" = ")[0]
    bad = tmp_path / "bad.conf"
    bad.write_text(f"K = 3\nd = 8\nf_p = 4\nepochs = 3\n{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["train", "--data", str(dataset_dir), "--config", str(bad), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"{key} must be finite" in captured.err
    assert not out.exists()


def test_write_json_refuses_non_finite_floats(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"mean_acc": float("nan")})
    assert list(tmp_path.iterdir()) == []


def test_train_negative_seed_is_rejected(dataset_dir, config_path, tmp_path, capsys):
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(config_path),
        "--out", str(tmp_path), "--seed", "-3",
    ])
    assert code == 1
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(EQUAL_RWPE_ROWS))
def test_train_equal_positional_rows_exit_zero(name, tmp_path):
    # Every RWPE row is equal, so every positional column is flat: mode R
    # with the orthogonality penalty trains with and without dropout.
    n, edges = EQUAL_RWPE_ROWS[name]
    data = tmp_path / name
    save_dataset(toy_graph(edges, [i % 3 for i in range(n)]), name, data)
    argv = ["train", "--data", str(data), "--runs", "1", "--splits", "1"]
    for dropout in ("0", "0.5"):
        conf = tmp_path / f"dropout-{dropout}.conf"
        text = CONFIG_TEXT.replace("dropout_p = 0.1", f"dropout_p = {dropout}")
        conf.write_text(text, encoding="utf-8")
        out = tmp_path / f"out-{dropout}"
        assert main(argv + ["--config", str(conf), "--out", str(out)]) == 0
        for prefix in ("metrics", "checkpoint", "beta"):
            assert next(out.glob(f"{prefix}-dsf.*")).stat().st_size > 0


def test_unknown_flag_is_a_usage_failure(capsys):
    assert main(["train", "--frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_module_entry_point_maps_exit_codes():
    src = str(Path(diverspec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "diverspec", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    version = run("--version")
    assert version.returncode == 0
    assert version.stdout.strip() == f"diverspec {diverspec.__version__}"
    unknown = run("frobnicate")
    assert unknown.returncode == 1
    assert unknown.stderr.startswith("error:")


EXIT_CODES = {
    errors.DiverspecError: 1,
    errors.UsageError: 1,
    errors.ConfigError: 1,
    errors.DataError: 2,
    errors.NumericalError: 3,
}


def _error_classes(cls: type) -> set[type]:
    return {cls}.union(*(_error_classes(sub) for sub in cls.__subclasses__()))


def test_exit_codes_cover_every_error_class():
    assert _error_classes(errors.DiverspecError) == set(EXIT_CODES)


@pytest.mark.parametrize("error", sorted(EXIT_CODES, key=lambda cls: cls.__name__))
def test_error_from_a_command_maps_to_its_exit_code(
    error, dataset_dir, config_path, tmp_path, monkeypatch, capsys
):
    def failing(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "run_grid", failing)
    out = tmp_path / "out"
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(config_path), "--out", str(out),
    ])
    assert code == EXIT_CODES[error]
    assert capsys.readouterr().err == "error: injected\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_writes_cluster_artifacts(train_dir, tmp_path):
    out = tmp_path / "ana"
    code = main([
        "analyze", "--run-dir", str(train_dir), "--clusters", "3",
        "--grid-size", "11", "--seed", "5", "--out", str(out),
    ])
    assert code == 0

    header, rows = read_csv(out / "clusters.csv")
    assert header == ["node_id", "cluster"]
    assert len(rows) == 20
    labels = [int(r[1]) for r in rows]
    assert all(0 <= c < 3 for c in labels)

    header, rows = read_csv(out / "centroid_curves.csv")
    assert header == ["cluster", "lambda", "g"]
    assert len(rows) == 3 * 11
    lams = [float(r[1]) for r in rows if r[0] == "0"]
    assert lams[0] == 0.0 and lams[-1] == 2.0

    report = json.loads((out / "analysis.json").read_text())
    assert report["clusters"] == 3 and report["grid_size"] == 11
    assert sum(report["cluster_sizes"]) == 20
    metrics = json.loads((train_dir / "metrics-dsf.json").read_text())
    assert report["config_hash"] == metrics["config_hash"]


def test_analyze_defaults_to_the_run_directory(train_dir):
    code = main(["analyze", "--run-dir", str(train_dir), "--clusters", "2"])
    assert code == 0
    assert (train_dir / "clusters.csv").is_file()
    header, rows = read_csv(train_dir / "centroid_curves.csv")
    assert header == ["cluster", "lambda", "g"]
    assert len(rows) == 2 * 101  # default grid resolution


def test_analyze_single_cluster_curve_is_the_mean_profile(train_dir, tmp_path):
    out = tmp_path / "ana1"
    code = main([
        "analyze", "--run-dir", str(train_dir), "--clusters", "1",
        "--grid-size", "5", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out / "clusters.csv")
    assert {r[1] for r in rows} == {"0"}
    _, rows = read_csv(out / "centroid_curves.csv")
    assert len(rows) == 5


def test_analyze_rejects_more_clusters_than_distinct_rows(baseline_dir, tmp_path, capsys):
    out = tmp_path / "ana"
    argv = ["analyze", "--run-dir", str(baseline_dir), "--variant", "baseline", "--out", str(out)]
    assert main(argv + ["--clusters", "3"]) == 1
    assert "distinct weight rows" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--clusters", "1"]) == 0
    assert json.loads((out / "analysis.json").read_text())["cluster_sizes"] == [20]


@pytest.mark.parametrize("size", ["1", "0", "-1"])
def test_analyze_grid_size_below_two_is_a_usage_error(train_dir, tmp_path, capsys, size):
    out = tmp_path / "ana"
    code = main([
        "analyze", "--run-dir", str(train_dir), "--grid-size", size, "--out", str(out),
    ])
    assert code == 1
    assert "--grid-size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("K", 0),
        ("jacobi_a", float("nan")),
        pytest.param(None, [1], id="config-list"),
        pytest.param(None, 5, id="config-int"),
        pytest.param(None, "x", id="config-str"),
        pytest.param(None, None, id="config-null"),
    ],
)
def test_analyze_embedded_config_out_of_its_domain_is_a_data_error(
    train_dir, tmp_path, capsys, key, value
):
    # key None replaces the whole config with a value that is not a JSON object.
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for name in ("metrics-dsf.json", "beta-dsf.csv"):
        (run_dir / name).write_bytes((train_dir / name).read_bytes())
    metrics = json.loads((run_dir / "metrics-dsf.json").read_text(encoding="utf-8"))
    if key is None:
        metrics["config"] = value
    else:
        metrics["config"][key] = value
    (run_dir / "metrics-dsf.json").write_text(json.dumps(metrics), encoding="utf-8")
    assert main(["analyze", "--run-dir", str(run_dir), "--out", str(tmp_path / "ana")]) == 2
    assert "metrics-dsf.json: unusable embedded config" in capsys.readouterr().err
    assert not (tmp_path / "ana").exists()


def test_analyze_without_metrics_is_a_data_error(tmp_path, capsys):
    assert main(["analyze", "--run-dir", str(tmp_path)]) == 2
    assert "missing metrics file" in capsys.readouterr().err


def test_analyze_rejects_corrupt_beta_table(train_dir, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "metrics-dsf.json").write_bytes((train_dir / "metrics-dsf.json").read_bytes())
    beta = (train_dir / "beta-dsf.csv").read_text(encoding="utf-8").splitlines()
    beta[3] = beta[3].rsplit(",", 1)[0]  # drop one field on a data row
    (run / "beta-dsf.csv").write_text("\n".join(beta) + "\n", encoding="utf-8")
    assert main(["analyze", "--run-dir", str(run)]) == 2
    assert "line 4" in capsys.readouterr().err


def _set_field(lines: list[str], index: int, column: int, text: str) -> None:
    parts = lines[index].split(",")
    parts[column] = text
    lines[index] = ",".join(parts)


def _swap_rows(lines: list[str]) -> None:
    lines[2], lines[3] = lines[3], lines[2]


def _keep_two_weights(lines: list[str]) -> None:  # of K + 1 = 4
    lines[:] = [",".join(line.split(",")[:3]) for line in lines]


def _blank_then_nan(lines: list[str]) -> None:
    lines.insert(2, "")  # skipped, but still counted as line 3
    _set_field(lines, 4, 1, "nan")


@pytest.mark.parametrize(
    "corrupt, line, message",
    [
        (lambda lines: _set_field(lines, 3, 2, "nan"), 4, "non-finite weight"),
        (lambda lines: _set_field(lines, 1, 1, "inf"), 2, "non-finite weight"),
        (lambda lines: _set_field(lines, 5, -1, "-inf"), 6, "non-finite weight"),
        (lambda lines: _set_field(lines, 1, 0, "1"), 2, "node_id '1', expected 0"),
        (_swap_rows, 3, "node_id '2', expected 1"),
        (lambda lines: _set_field(lines, 4, 0, "3.0"), 5, "node_id '3.0', expected 3"),
        (lambda lines: lines.pop(3), 4, "node_id '3', expected 2"),
        (lambda lines: _set_field(lines, 0, 0, "id"), 1, "expected header node_id,beta_0,..."),
        (lambda lines: lines.__setitem__(0, "node_id"), 1, "expected header node_id,beta_0,..."),
        (_blank_then_nan, 5, "non-finite weight"),
        (lambda lines: _set_field(lines, 2, 3, "0.5x"), 3, "non-numeric weight"),
        (lambda lines: lines.__delitem__(slice(1, None)), None, "holds no weight rows"),
        (_keep_two_weights, None, "has 2 weight columns, not K + 1 = 4"),
    ],
    ids=[
        "nan", "inf", "minus-inf", "starts-at-1", "out-of-order", "float-id", "gap",
        "bad-header", "header-without-weights", "blank-line", "non-numeric", "header-only",
        "narrow",
    ],
)
def test_analyze_rejects_bad_beta_rows_before_any_output(
    train_dir, tmp_path, capsys, corrupt, line, message
):
    run = tmp_path / "run"
    run.mkdir()
    (run / "metrics-dsf.json").write_bytes((train_dir / "metrics-dsf.json").read_bytes())
    lines = (train_dir / "beta-dsf.csv").read_text(encoding="utf-8").splitlines()
    corrupt(lines)
    beta = run / "beta-dsf.csv"
    beta.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "ana"
    assert main(["analyze", "--run-dir", str(run), "--out", str(out)]) == 2
    where = f"{beta} line {line}:" if line else str(beta)
    assert capsys.readouterr().err == f"error: {where} {message}\n"
    assert not out.exists()
    assert sorted(p.name for p in run.iterdir()) == ["beta-dsf.csv", "metrics-dsf.json"]


@pytest.mark.parametrize("broken", ["missing-beta", "metrics-not-json"])
def test_analyze_rejects_a_missing_table_or_bad_metrics_before_any_output(
    train_dir, tmp_path, capsys, broken
):
    run = tmp_path / "run"
    run.mkdir()
    metrics, beta = run / "metrics-dsf.json", run / "beta-dsf.csv"
    metrics.write_bytes((train_dir / "metrics-dsf.json").read_bytes())
    beta.write_bytes((train_dir / "beta-dsf.csv").read_bytes())
    if broken == "missing-beta":
        beta.unlink()
        expected = f"error: missing weight table {beta}\n"
    else:
        metrics.write_text('{"config": ', encoding="utf-8")
        expected = f"error: {metrics}: invalid JSON (Expecting value: line 1 column 12 (char 11))\n"
    before = sorted(p.name for p in run.iterdir())
    out = tmp_path / "ana"
    assert main(["analyze", "--run-dir", str(run), "--out", str(out)]) == 2
    assert capsys.readouterr().err == expected
    assert not out.exists()
    assert sorted(p.name for p in run.iterdir()) == before


# ---------------------------------------------------------------------------
# prop1-check


def test_prop1_check_passes_all_bases(capsys):
    assert main(["prop1-check", "--order", "6", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("prop1-check")]
    assert len(lines) == 3
    assert all(line.endswith("PASS") for line in lines)
    assert {line.split()[1] for line in lines} == {"monomial", "bernstein", "jacobi"}


def test_prop1_check_single_basis(capsys):
    assert main(["prop1-check", "--basis", "bernstein", "--order", "4", "--trials", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if line.startswith("prop1-check")]) == 1


def test_prop1_check_impossible_tolerance_fails_numerically(capsys):
    code = main([
        "prop1-check", "--basis", "jacobi", "--order", "10", "--trials", "50",
        "--tolerance", "1e-18",
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "rescaling identity" in captured.err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--trials", "0", "--trials"),
        ("--trials", "-2", "--trials"),
        ("--order", "-1", "--order"),
        ("--jacobi-a", "nan", "Jacobi parameters"),
        ("--jacobi-a", "inf", "Jacobi parameters"),
        ("--jacobi-b", "-1", "Jacobi parameters"),
        # negative floats in every form float() reads, each a separate argument
        ("--jacobi-a", "-inf", "Jacobi parameters"),
        ("--jacobi-b", "-Infinity", "Jacobi parameters"),
        ("--jacobi-a", "-nan", "Jacobi parameters"),
        ("--jacobi-a", "-1E+2", "Jacobi parameters"),
        ("--tolerance", "nan", "--tolerance"),
        ("--tolerance", "inf", "--tolerance"),
        ("--tolerance", "0", "--tolerance"),
        ("--tolerance", "-1e-8", "--tolerance"),
        ("--tolerance", "-inf", "--tolerance must be"),
        ("--tolerance", "-.5e-8", "--tolerance must be"),
    ],
)
@pytest.mark.parametrize("basis", ["all", "monomial"])
def test_prop1_check_rejects_bad_arguments_before_any_check(capsys, flag, value, message, basis):
    assert main(["prop1-check", "--basis", basis, "--trials", "2", flag, value]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert captured.err.startswith("error: ") and message in captured.err


def test_negative_float_flag_in_exponent_form_is_a_value(capsys):
    assert main(["prop1-check", "--trials", "2", "--jacobi-a", "-1e-3"]) == 0
    assert capsys.readouterr().out.count("PASS") == 3


@pytest.mark.parametrize("order", [12, 20, 30])
def test_prop1_check_holds_at_high_order(capsys, order):
    assert main(["prop1-check", "--order", str(order), "--trials", "20"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("prop1-check")]
    assert len(lines) == 3 and all(line.endswith("PASS") for line in lines)


# ---------------------------------------------------------------------------
# the table of legal values: every numeric key and flag, out of its domain


def _numeric_flags() -> list[tuple[str, str, type]]:
    """(command, flag, type) for every int or float option of every subcommand."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action.option_strings[0], action.type)
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.type in (int, float)
    ]


NUMERIC_FLAGS = _numeric_flags()
CONFIG_FIELDS = [
    (f.name, {"int": int, "float": float}[f.type])
    for cls in (DsfConfig, TrainConfig)
    for f in dataclasses.fields(cls)
    if f.type in ("int", "float")
]
# Out-of-domain cases: ("train", key, type) for config keys, (command, flag, type) for flags.
CASES = [("train", key, kind) for key, kind in CONFIG_FIELDS] + NUMERIC_FLAGS


def _lower_bound(name: str) -> int:
    return DOMAINS[name.lstrip("-").replace("-", "_")][0]


def _run_case(command: str, name: str, value: str) -> tuple[int, str, str, bool]:
    """Exit code, stdout, stderr and whether ``--out`` exists, with ``name`` set to ``value``.

    ``--data`` and ``--run-dir`` name no directory, so a value that is not
    rejected before the input is read exits 2, not 1.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        nowhere, out, conf = str(root / "nowhere"), root / "out", root / "run.conf"
        conf.write_text("" if name.startswith("--") else f"{name} = {value}\n", encoding="utf-8")
        argv = {
            "train": ["train", "--data", nowhere, "--config", str(conf), "--out", str(out)],
            "diagnose": ["diagnose", "--data", nowhere, "--out", str(out)],
            "analyze": ["analyze", "--run-dir", nowhere, "--out", str(out)],
            "prop1-check": ["prop1-check", "--trials", "2"],
        }[command]
        if name.startswith("--"):
            argv += [name, value]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        return code, stdout.getvalue(), stderr.getvalue(), out.exists()


def _assert_rejected_up_front(command: str, name: str, value: str) -> None:
    code, stdout, stderr, out_exists = _run_case(command, name, value)
    assert code == 1, stderr
    assert stdout == ""
    expected = "Jacobi parameters" if "jacobi" in name else f"{name} must be"
    assert stderr.startswith("error: ") and expected in stderr
    assert not out_exists


def test_every_numeric_key_and_flag_has_a_domain():
    names = {flag[2:].replace("-", "_") for _, flag, _ in NUMERIC_FLAGS}
    names |= {key for key, _ in CONFIG_FIELDS}
    numeric = {n for n, domain in DOMAINS.items() if not isinstance(domain[0], str)}
    assert numeric == names - {"jacobi_a", "jacobi_b"}  # those two: polynomials.Jacobi


@pytest.mark.parametrize(
    "command, name", [(c, n) for c, n, kind in CASES if kind is float], ids=lambda x: x
)
@settings(max_examples=10, deadline=None)
@given(value=st.sampled_from(["nan", "inf", "-inf"]))
def test_non_finite_float_key_or_flag_exits_one_up_front(command, name, value):
    _assert_rejected_up_front(command, name, value)


@pytest.mark.parametrize(
    "command, name", [(c, n) for c, n, kind in CASES if kind is int], ids=lambda x: x
)
@settings(max_examples=10, deadline=None)
@given(below=st.integers(1, 10**6))
@example(below=1)
def test_integer_key_or_flag_below_its_domain_exits_one_up_front(command, name, below):
    _assert_rejected_up_front(command, name, str(_lower_bound(name) - below))


# ---------------------------------------------------------------------------
# --out that cannot be a directory


def test_train_out_naming_a_file_exits_one_before_reading_data(tmp_path, config_path, capsys):
    target = tmp_path / "results"
    target.write_text("keep\n", encoding="utf-8")
    code = main([
        "train", "--data", str(tmp_path / "nowhere"), "--config", str(config_path),
        "--out", str(target), "--runs", "1", "--splits", "1",
    ])
    # Exit 1, not the missing dataset's 2: the check runs before the data is read.
    assert code == 1
    assert "is not a directory" in capsys.readouterr().err
    assert target.read_text(encoding="utf-8") == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results"]


def test_diagnose_out_below_a_file_exits_one(dataset_dir, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code = main(["diagnose", "--data", str(dataset_dir), "--out", str(blocker / "sub" / "dir")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_analyze_out_naming_a_file_exits_one(train_dir, tmp_path, capsys):
    target = tmp_path / "analysis"
    target.write_text("", encoding="utf-8")
    before = sorted(p.name for p in train_dir.iterdir())
    code = main(["analyze", "--run-dir", str(train_dir), "--out", str(target)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["analysis"]
    assert sorted(p.name for p in train_dir.iterdir()) == before


# ---------------------------------------------------------------------------
# whole-tool behaviour


def test_artifacts_contain_no_timestamps(train_dir):
    for name in ("metrics-dsf.json", "checkpoint-dsf.json"):
        payload = json.loads((train_dir / name).read_text())
        assert not {k for k in payload if "time" in k or "date" in k}


def test_every_artifact_ends_with_a_newline(train_dir):
    for path in train_dir.iterdir():
        data = path.read_bytes()
        assert data.endswith(b"\n"), path.name
        assert b"\r" not in data, path.name
