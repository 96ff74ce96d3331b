"""End-to-end checks for the ``diverspec`` command line.

Every test drives :func:`diverspec.cli.main` directly with an argv list, so the
exit-code mapping and the artifact files are exercised exactly as a shell user
would see them.  Training runs use a deliberately tiny graph and epoch budget
to keep the suite fast.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diverspec
from diverspec import cli, errors
from diverspec.analysis import homophily_histogram
from diverspec.cli import _write_json, main
from diverspec.datasets import load_dataset, save_dataset, two_block_graph
from diverspec.graph import edge_homophily, local_label_homophily

from conftest import EQUAL_RWPE_ROWS, toy_graph

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


@pytest.mark.parametrize(
    "edges, extra, code",
    [([], [], 2), ([(0, 1), (2, 3)], ["--dense-limit", "3"], 1)],
    ids=["edgeless", "over-dense-limit"],
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
    for entry in params.values():
        assert len(entry["data"]) == int(np.prod(entry["shape"]))
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
    for name, arr in run.params.items():
        assert params[name]["shape"] == list(arr.shape)
        stored = np.array(params[name]["data"]).reshape(params[name]["shape"])
        assert stored.dtype == arr.dtype and np.array_equal(stored, arr)
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
        "w": rng.standard_normal((3 * cli._CHECKPOINT_CHUNK + 5, 2)) * 1e-300,
        "a": np.array([[0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1]]),
        "empty": np.zeros((0, 4)),
    }
    cli._write_text(tmp_path / "new.json", cli._checkpoint_chunks("abc", params))
    _write_json(
        tmp_path / "old.json",
        {
            "config_hash": "abc",
            "params": {
                name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                for name, arr in params.items()
            },
        },
    )
    old = (tmp_path / "old.json").read_text(encoding="utf-8")
    new = (tmp_path / "new.json").read_text(encoding="utf-8")
    assert json.loads(new) == json.loads(old)
    assert new.count("\n") == len(params) + 5


def test_checkpoint_with_a_nan_parameter_leaves_no_file(tmp_path):
    # The NaN sits in the last tensor, after several chunks have been written.
    params = {"a": np.ones((2 * cli._CHECKPOINT_CHUNK, 3)), "z": np.array([[1.0, np.nan]])}
    with pytest.raises(ValueError):
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
    assert params["gamma"]["data"] == table[0].tolist()


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


def test_train_mode_override_is_recorded(dataset_dir, config_path, tmp_path):
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(config_path),
        "--out", str(tmp_path), "--runs", "1", "--splits", "1", "--seed", "1",
        "--mode", "I",
    ])
    assert code == 0
    metrics = json.loads((tmp_path / "metrics-dsf.json").read_text())
    assert metrics["mode"] == "I"
    assert metrics["config"]["mode"] == "I"


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
    ],
    ids=["nan", "inf", "minus-inf", "starts-at-1", "out-of-order", "float-id", "gap"],
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
    assert capsys.readouterr().err == f"error: {beta} line {line}: {message}\n"
    assert not out.exists()
    assert sorted(p.name for p in run.iterdir()) == ["beta-dsf.csv", "metrics-dsf.json"]


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
        ("--tolerance", "nan", "--tolerance"),
        ("--tolerance", "inf", "--tolerance"),
        ("--tolerance", "0", "--tolerance"),
        ("--tolerance", "-1e-8", "--tolerance"),
    ],
)
@pytest.mark.parametrize("basis", ["all", "monomial"])
def test_prop1_check_rejects_bad_arguments_before_any_check(capsys, flag, value, message, basis):
    assert main(["prop1-check", "--basis", basis, "--trials", "2", flag, value]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("order", [12, 20, 30])
def test_prop1_check_holds_at_high_order(capsys, order):
    assert main(["prop1-check", "--order", str(order), "--trials", "20"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("prop1-check")]
    assert len(lines) == 3 and all(line.endswith("PASS") for line in lines)


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
