"""Tests of the benchmark itself: generators, tracer arithmetic, output checks.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import generate  # noqa: E402
import runner  # noqa: E402
import tracer as tr  # noqa: E402
from diverspec import cli, model  # noqa: E402

GENERATORS = (generate.cornell_graph, generate.block_graph, generate.chameleon_graph)


# ------------------------------------------------------------------ generators


@pytest.mark.parametrize("build", GENERATORS, ids=lambda b: b.__name__)
def test_generator_is_deterministic_by_seed(build):
    a, b, c = build(5), build(5), build(6)
    for field in ("edges", "features", "labels"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.edges, c.edges)


@pytest.mark.parametrize("build", GENERATORS, ids=lambda b: b.__name__)
def test_generated_graphs_are_irregular_without_isolated_nodes(build):
    graph = build(0)
    assert graph.degrees.min() >= 1
    assert graph.degrees.max() > graph.degrees.min()


def test_generated_shapes_follow_the_workload_descriptions():
    shapes = [(g.num_nodes, g.num_features, g.num_classes) for g in (b(0) for b in GENERATORS)]
    assert shapes == [(183, 1703, 5), (2000, 64, 5), (2277, 2325, 5)]
    assert 250 <= generate.cornell_graph(0).num_edges <= 300
    assert abs(generate.block_graph(0).num_edges - 6000) <= 300
    assert abs(generate.chameleon_graph(0).num_edges - 31000) <= 1500


def test_prepared_files_are_byte_identical_for_one_seed(tmp_path):
    workload = generate.WORKLOADS["cornell-gpr"]
    for name in ("a", "b"):
        generate.prepare(workload, 9, tmp_path / name, runner.ROOT)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_train_configs_pin_patience_to_epochs():
    for workload in generate.WORKLOADS.values():
        text = generate.config_text(workload, runner.ROOT)
        if text is None:
            continue
        values = dict(line.split(" = ") for line in text.splitlines())
        assert values["patience"] == values["epochs"]


# ---------------------------------------------------------------------- tracer


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_child_coverage():
    # root [0, 10] > a [1, 4] > a.x [2, 3]; root > b [5, 7]
    tracer = tr.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 7, 10]))
    root = tracer.open("root")
    a = tracer.open("a")
    x = tracer.open("x")
    tracer.close(x)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    tree = tr.SpanTree(tracer.spans)
    assert tree.self_time(root) == 10 - (3 + 2)
    assert tree.self_time(a) == 3 - 1
    assert tree.self_time(x) == 1
    assert tree.coverage() == pytest.approx(0.5)


def test_union_length_merges_and_clips():
    assert tr.union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 5 + 2
    assert tr.union_length([], 0, 10) == 0


def test_inclusive_time_counts_nested_repeats_once():
    tracer = tr.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 6, 9, 10]))
    root = tracer.open("root")
    outer = tracer.open("cli.outputs")
    inner = tracer.open("cli.outputs")
    tracer.close(inner)
    tracer.close(outer)
    again = tracer.open("cli.outputs")
    tracer.close(again)
    tracer.close(root)
    assert tr.SpanTree(tracer.spans).inclusive("cli.outputs") == (4 - 1) + (9 - 6)


def _epoch_trace(epochs: int, spmm_per_forward: int) -> list:
    clock = iter(range(10_000))
    tracer = tr.Tracer(clock=lambda: next(clock))
    root = tracer.open("cli.main")
    cell = tracer.open("training.train_once")
    for _ in range(epochs):
        for name in ("model.forward_train", "model.total_loss", "autodiff.backward",
                     "autodiff.adam_step", "model.forward_eval"):
            span = tracer.open(name)
            if name.startswith("model.forward"):
                tracer.tally("spmm", spmm_per_forward, 0.5)
                tracer.tally("ops", 3)
                tracer.tally("tracked_ops", 3)
            tracer.close(span)
    final = tracer.open("model.forward_eval")
    tracer.close(final)
    tracer.close(cell)
    tracer.close(root)
    return tracer.spans


def test_epoch_metrics_come_from_the_span_sequence():
    scalars, samples = tr.command_metrics(_epoch_trace(epochs=3, spmm_per_forward=20), set())
    assert scalars["autodiff.spmm_per_epoch"] == 40
    assert scalars["autodiff.ops_per_train_forward"] == 3
    assert scalars["autodiff.tracked_ops_per_eval"] == 3
    assert scalars["autodiff.spmm_s"] == pytest.approx(0.5 * 2 * 3)
    # Each epoch spans ten clock ticks: five spans, opened and closed.
    assert samples["training.epoch_ms"] == [9e3, 9e3, 9e3]
    assert len(samples["model.forward_eval_ms"]) == 4


def test_missing_patch_point_leaves_its_metrics_out_and_restores_the_rest():
    original = model.ipe_step
    points = tr.PATCH_POINTS + (tr.PatchPoint("model", "removed_helper", "model.removed_helper"),)
    tracer = tr.Tracer()
    with tr.installed(tracer, points) as missing:
        assert model.ipe_step is not original
    assert model.ipe_step is original
    assert missing == {"model.removed_helper"}

    scalars, _ = tr.command_metrics(_epoch_trace(1, 1), {"model.ipe_step", "autodiff._make"})
    assert "model.ipe_step_s" not in scalars
    assert "model.forward_self_s" not in scalars
    assert "autodiff.ops_per_train_forward" not in scalars
    assert "autodiff.spmm_per_epoch" in scalars


def test_counts_that_do_not_repeat_are_reported():
    first = ({"graph.k_hop_calls": 10, "graph.k_hop_s": 1.0}, {})
    second = ({"graph.k_hop_calls": 11, "graph.k_hop_s": 1.2}, {})
    metrics, problems, _ = tr.summarize([first, second])
    assert metrics["graph.k_hop_s"] == pytest.approx(1.1)
    assert len(problems) == 1 and "graph.k_hop_calls" in problems[0]
    _, problems, _ = tr.summarize([first, first])
    assert problems == []


def test_every_reported_metric_has_a_unit():
    scalars, samples = tr.command_metrics(_epoch_trace(2, 1), set())
    metrics, _, _ = tr.summarize([(scalars, samples)])
    assert set(metrics) | {"trace.overhead_s"} == set(tr.UNITS)


# ---------------------------------------------------------------------- checks

TINY = {
    "train": dataclasses.replace(
        generate.WORKLOADS["cornell-gpr"],
        runs=1, splits=1,
        config_overrides={"epochs": 5, "patience": 5},
    ),
    "diagnose": dataclasses.replace(
        generate.WORKLOADS["chameleon-diagnose"], build=generate.cornell_graph
    ),
}


def _prepared(tmp_path, kind):
    workload = TINY[kind]
    graph, data, config = generate.prepare(workload, 2, tmp_path, runner.ROOT)
    rng = generate.make_rng(2, 99)
    ref = checks.reference(workload, graph, config, rng)
    return workload, data, config, ref


def _corrupting_main(monkeypatch, corrupt):
    real_main = cli.main

    def main(argv):
        code = real_main(argv)
        corrupt(Path(argv[argv.index("--out") + 1]))
        return code

    monkeypatch.setattr(runner.cli, "main", main)


def _replace_value(path: Path, row: int, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[row].split(",")
    fields[-1] = value
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _shift_values(path: Path, delta: float) -> None:
    """Move every value a little: too little for the range checks to notice."""
    lines = path.read_text(encoding="utf-8").splitlines()
    shifted = [lines[0]] + [
        f"{node},{float(value) + delta!r}" for node, value in (line.split(",") for line in lines[1:])
    ]
    path.write_text("\n".join(shifted) + "\n", encoding="utf-8")


@pytest.mark.parametrize("kind", ["train", "diagnose"])
def test_clean_outputs_pass(tmp_path, kind):
    workload, data, config, ref = _prepared(tmp_path, kind)
    out = tmp_path / "out"
    result = runner.run_command(workload.argv(data, config, out, 2), out, ref)
    assert result.problems == []
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("train", lambda out: _replace_value(out / "beta-dsf.csv", 3, "nan")),
        ("train", lambda out: (out / "checkpoint-dsf.json").unlink()),
        ("diagnose", lambda out: _replace_value(out / "homophily.csv", 5, "1.5")),
        ("diagnose", lambda out: _shift_values(out / "frequency_mid.csv", 1e-9)),
    ],
)
def test_corrupted_output_counts_as_a_failure(tmp_path, monkeypatch, kind, corrupt):
    workload, data, config, ref = _prepared(tmp_path, kind)
    _corrupting_main(monkeypatch, corrupt)
    out = tmp_path / "out"
    result = runner.run_command(workload.argv(data, config, out, 2), out, ref)
    assert result.problems


def test_nonzero_exit_counts_as_a_failure(tmp_path, monkeypatch):
    workload, data, config, ref = _prepared(tmp_path, "train")
    monkeypatch.setattr(runner.cli, "main", lambda argv: 3)
    out = tmp_path / "out"
    assert runner.run_command(workload.argv(data, config, out, 2), out, ref).problems == [
        "exit code 3"
    ]


def test_early_stopped_cell_is_a_failure(tmp_path):
    workload, data, config, ref = _prepared(tmp_path, "train")
    out = tmp_path / "out"
    runner.cli.main(workload.argv(data, config, out, 2))
    assert checks.check_train(out, ref) == []
    assert checks.check_train(out, {**ref, "epochs": ref["epochs"] + 1})
