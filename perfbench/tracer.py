"""In-memory span tracer that wraps diverspec's public functions from outside.

The program itself holds no instrumentation. For a traced command the
benchmark swaps each patch point (a module attribute such as
``model.forward``) for a wrapper, in every ``diverspec`` module that binds the
same function object, so ``from .graph import k_hop`` in ``spectral`` is
wrapped too. Wrappers are removed again when the command returns.

A span records name, start, end and parent; spans stay in memory until the
run ends. Tallies (sparse matmuls, tape ops) are counted against the
innermost open span instead of opening spans of their own, so they neither
add tree depth nor change any span's self time. A patch point that no longer
exists is reported as missing, and the metrics that need it are left out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PACKAGE = "diverspec"
ROOT_SPAN = "cli.main"


class Span:
    __slots__ = ("name", "start", "end", "parent", "tallies")

    def __init__(self, name: str, start: float, parent: int | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tallies: dict[str, list] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span stack for one single-threaded command."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def tally(self, key: str, count: int = 1, seconds: float = 0.0) -> None:
        if not self._stack:
            return
        span = self.spans[self._stack[-1]]
        if span.tallies is None:
            span.tallies = {}
        entry = span.tallies.setdefault(key, [0, 0.0])
        entry[0] += count
        entry[1] += seconds


def _span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapped


def _forward_span(tracer: Tracer, name: str, fn):
    """``model.forward`` becomes ``model.forward_train`` or ``model.forward_eval``."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        train = signature.bind_partial(*args, **kwargs).arguments.get("train", False)
        index = tracer.open(f"{name}_train" if train else f"{name}_eval")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapped


def _timed_tally(tracer: Tracer, key: str, fn):
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.tally(key, 1, clock() - start)

    return wrapped


def _op_tally(tracer: Tracer, key: str, fn):
    """Count every tape op built, and separately those that require grad."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        tracer.tally(key)
        if getattr(out, "requires_grad", False):
            tracer.tally("tracked_" + key)
        return out

    return wrapped


@dataclass(frozen=True)
class PatchPoint:
    module: str
    attr: str
    name: str
    wrap: object = _span

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


PATCH_POINTS = (
    PatchPoint("datasets", "load_dataset", "datasets.load_dataset"),
    PatchPoint("config", "load_config", "config.load_config"),
    PatchPoint("training", "make_splits", "training.make_splits"),
    PatchPoint("training", "run_grid", "training.run_grid"),
    PatchPoint("training", "train_once", "training.train_once"),
    PatchPoint("graph", "normalized_operators", "graph.normalized_operators"),
    PatchPoint("graph", "edge_homophily", "graph.edge_homophily"),
    PatchPoint("graph", "k_hop", "graph.k_hop"),
    PatchPoint("spectral", "eigendecompose", "spectral.eigendecompose"),
    PatchPoint("spectral", "frequency_histogram", "spectral.frequency_histogram"),
    PatchPoint("analysis", "homophily_histogram", "analysis.homophily_histogram"),
    PatchPoint("model", "init_positional", "model.init_positional"),
    PatchPoint("model", "forward", "model.forward", _forward_span),
    PatchPoint("model", "project_inputs", "model.project_inputs"),
    PatchPoint("model", "ipe_step", "model.ipe_step"),
    PatchPoint("model", "node_theta", "model.node_theta"),
    PatchPoint("model", "total_loss", "model.total_loss"),
    PatchPoint("autodiff", "backward", "autodiff.backward"),
    PatchPoint("autodiff", "adam_step", "autodiff.adam_step"),
    PatchPoint("autodiff", "sparse_dense_matmul", "spmm", _timed_tally),
    PatchPoint("autodiff", "_make", "ops", _op_tally),
    PatchPoint("cli", "_write_text", "cli.outputs"),
    PatchPoint("cli", "_write_json", "cli.outputs"),
)


@contextmanager
def installed(tracer: Tracer, points=PATCH_POINTS, package: str = PACKAGE):
    """Wrap every patch point for the duration of the block.

    Yields the set of patch-point keys that do not exist in the program.
    """
    prefix = package + "."
    modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(prefix)]
    missing: set[str] = set()
    restore = []
    try:
        for point in points:
            module = sys.modules.get(prefix + point.module)
            original = getattr(module, point.attr, None) if module is not None else None
            if not callable(original):
                missing.add(point.key)
                continue
            wrapper = point.wrap(tracer, point.name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        yield missing
    finally:
        for mod, attr, value in reversed(restore):
            setattr(mod, attr, value)


# ---------------------------------------------------------------- analysis


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals``, clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _merge(into: dict[str, list], tallies: dict[str, list]) -> None:
    for key, (count, seconds) in tallies.items():
        entry = into.setdefault(key, [0, 0.0])
        entry[0] += count
        entry[1] += seconds


class SpanTree:
    """Index over the spans of one command, rooted at its first span."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span.parent is not None:
                self.children[span.parent].append(i)
        # Children are opened after their parents, so one reverse sweep
        # accumulates each subtree's tallies.
        self.subtree: list[dict[str, list]] = [{} for _ in spans]
        for i in range(len(spans) - 1, -1, -1):
            _merge(self.subtree[i], spans[i].tallies or {})
            if spans[i].parent is not None:
                _merge(self.subtree[spans[i].parent], self.subtree[i])

    def self_time(self, i: int) -> float:
        span = self.spans[i]
        covered = union_length(
            [(self.spans[c].start, self.spans[c].end) for c in self.children[i]],
            span.start,
            span.end,
        )
        return span.duration - covered

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def inclusive(self, name: str) -> float:
        """Time inside spans called ``name``, not counting nested repeats twice."""
        total = 0.0
        for i in self.named(name):
            parent = self.spans[i].parent
            nested = False
            while parent is not None:
                if self.spans[parent].name == name:
                    nested = True
                    break
                parent = self.spans[parent].parent
            if not nested:
                total += self.spans[i].duration
        return total

    def tally(self, i: int, key: str) -> tuple[int, float]:
        """(count, seconds) of a tally over the subtree of span ``i``."""
        return tuple(self.subtree[i].get(key, (0, 0.0)))

    def coverage(self) -> float:
        """Share of the root span covered by its direct children."""
        root = self.spans[0]
        if root.duration <= 0:
            return 0.0
        return 1.0 - self.self_time(0) / root.duration

    def epochs(self) -> list[tuple[int, list[int]]]:
        """Training epochs as (train forward, window of train_once children).

        An epoch runs from a train-mode forward to the end of the next
        eval-mode forward: forward, loss, backward, Adam, eval forward.
        """
        found = []
        for cell in self.named("training.train_once"):
            kids = self.children[cell]
            for pos, c in enumerate(kids):
                if self.spans[c].name != "model.forward_train":
                    continue
                for end in range(pos + 1, len(kids)):
                    if self.spans[kids[end]].name == "model.forward_eval":
                        found.append((c, kids[pos : end + 1]))
                        break
        return found


# Metric name -> patch-point keys it needs. Seconds are per command; counts
# are per command unless the name says per epoch / forward / eval.
TIME_METRICS = {
    "datasets.load_dataset_s": ("datasets.load_dataset", ("datasets.load_dataset",)),
    "graph.k_hop_s": ("graph.k_hop", ("graph.k_hop",)),
    "spectral.eigendecompose_s": ("spectral.eigendecompose", ("spectral.eigendecompose",)),
    "spectral.frequency_histogram_s": (
        "spectral.frequency_histogram", ("spectral.frequency_histogram",)),
    "analysis.homophily_histogram_s": (
        "analysis.homophily_histogram", ("analysis.homophily_histogram",)),
    "model.init_positional_s": ("model.init_positional", ("model.init_positional",)),
    "model.project_inputs_s": ("model.project_inputs", ("model.project_inputs",)),
    "model.ipe_step_s": ("model.ipe_step", ("model.ipe_step",)),
    "model.node_theta_s": ("model.node_theta", ("model.node_theta",)),
    "model.total_loss_s": ("model.total_loss", ("model.total_loss",)),
    "autodiff.adam_step_s": ("autodiff.adam_step", ("autodiff.adam_step",)),
    "training.train_once_s": ("training.train_once", ("training.train_once",)),
    "cli.outputs_s": ("cli.outputs", ("cli._write_text", "cli._write_json")),
}
CALL_METRICS = {
    "graph.normalized_operators_calls": (
        "graph.normalized_operators", ("graph.normalized_operators",)),
    "graph.k_hop_calls": ("graph.k_hop", ("graph.k_hop",)),
    "spectral.eigendecompose_calls": ("spectral.eigendecompose", ("spectral.eigendecompose",)),
    "model.init_positional_calls": ("model.init_positional", ("model.init_positional",)),
}
FORWARD_CHILDREN = ("model.project_inputs", "model.ipe_step", "model.node_theta")
EPOCH_NEEDS = ("training.train_once", "model.forward")
PER_EPOCH_COUNTS = {
    "autodiff.spmm_per_epoch": EPOCH_NEEDS + ("autodiff.sparse_dense_matmul",),
    "autodiff.ops_per_train_forward": EPOCH_NEEDS + ("autodiff._make",),
    "autodiff.tracked_ops_per_eval": EPOCH_NEEDS + ("autodiff._make",),
}
# Pooled distributions: metric prefix -> (span name, patch points needed).
# Epochs are not spans; they are cut from the span sequence.
DISTRIBUTIONS = {
    "model.forward_train_ms": ("model.forward_train", ("model.forward",)),
    "model.forward_eval_ms": ("model.forward_eval", ("model.forward",)),
    "autodiff.backward_ms": ("autodiff.backward", ("autodiff.backward",)),
    "training.epoch_ms": (None, EPOCH_NEEDS),
}
COUNT_METRICS = tuple(CALL_METRICS) + tuple(PER_EPOCH_COUNTS)

UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "model.forward_self_s": "s",
    "autodiff.spmm_s": "s",
    **{f"{p}_{q}": "ms" for p in DISTRIBUTIONS for q in ("p50", "p99")},
    "trace.overhead_s": "s",
    "trace.top_level_coverage": "fraction",
}


def command_metrics(spans: list[Span], missing: set[str]) -> tuple[dict, dict]:
    """Per-layer scalars and raw duration samples (ms) of one traced command."""
    tree = SpanTree(spans)

    def have(needs) -> bool:
        return not set(needs) & missing

    scalars: dict[str, float] = {"trace.top_level_coverage": tree.coverage()}

    for metric, (name, needs) in TIME_METRICS.items():
        if have(needs):
            scalars[metric] = tree.inclusive(name)
    for metric, (name, needs) in CALL_METRICS.items():
        if have(needs):
            scalars[metric] = len(tree.named(name))
    if have(("model.forward",) + FORWARD_CHILDREN):
        scalars["model.forward_self_s"] = sum(
            tree.self_time(i)
            for name in ("model.forward_train", "model.forward_eval")
            for i in tree.named(name)
        )
    if have(("autodiff.sparse_dense_matmul",)):
        scalars["autodiff.spmm_s"] = tree.tally(0, "spmm")[1]

    epochs = tree.epochs() if have(EPOCH_NEEDS) else []
    per_epoch = {"autodiff.spmm_per_epoch": [], "autodiff.ops_per_train_forward": [],
                 "autodiff.tracked_ops_per_eval": []}
    for _, window in epochs:
        eval_forward = window[-1]
        per_epoch["autodiff.spmm_per_epoch"].append(sum(tree.tally(i, "spmm")[0] for i in window))
        per_epoch["autodiff.ops_per_train_forward"].append(
            sum(tree.tally(i, "ops")[0] for i in window[:-1])
        )
        per_epoch["autodiff.tracked_ops_per_eval"].append(tree.tally(eval_forward, "tracked_ops")[0])
    for metric, needs in PER_EPOCH_COUNTS.items():
        if have(needs):
            values = per_epoch[metric]
            scalars[metric] = float(np.median(values)) if values else 0

    samples: dict[str, list[float]] = {}
    for metric, (name, needs) in DISTRIBUTIONS.items():
        if not have(needs):
            continue
        if name is None:
            samples[metric] = [
                1e3 * (spans[window[-1]].end - spans[first].start) for first, window in epochs
            ]
        else:
            samples[metric] = [1e3 * spans[i].duration for i in tree.named(name)]
    return scalars, samples


def summarize(per_command: list[tuple[dict, dict]]) -> tuple[dict, list[str], dict]:
    """Per-run per-layer metrics, counts that failed to repeat, sample sizes.

    Scalars are medians over traced commands; distributions pool every
    sample of every traced command. A layer the workload never enters reads 0.
    """
    problems = []
    metrics: dict[str, float] = {}
    names = sorted({k for scalars, _ in per_command for k in scalars})
    for name in names:
        values = [scalars[name] for scalars, _ in per_command if name in scalars]
        if name in COUNT_METRICS and len(set(values)) > 1:
            problems.append(f"count {name} did not repeat across commands: {values}")
        metrics[name] = float(np.median(values))
    sizes = {}
    for prefix in sorted({k for _, samples in per_command for k in samples}):
        pooled = [x for _, samples in per_command for x in samples.get(prefix, [])]
        sizes[prefix] = len(pooled)
        metrics[f"{prefix}_p50"] = float(np.percentile(pooled, 50)) if pooled else 0.0
        metrics[f"{prefix}_p99"] = float(np.percentile(pooled, 99)) if pooled else 0.0
    return metrics, problems, sizes
