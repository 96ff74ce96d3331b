"""Command-line front end.

Four subcommands: ``diagnose`` (homophily and frequency histograms),
``train`` (the runs x splits experiment grid), ``analyze`` (cluster learned
filter weights), and ``prop1-check`` (verify the coefficient-rescaling
identity). Exit codes: 0 success, 1 usage or config error, 2 data error,
3 numerical failure.

All randomness is derived from ``--seed``; outputs never embed timestamps,
so identical invocations produce byte-identical files. Files are written
atomically (temporary file + rename in the target directory).
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import centroid_curves, cluster_weights
from .autodiff import make_rng
from .config import config_hash, load_config, resolved_dict
from .datasets import load_dataset, read_labels, read_structure
from .domains import DOMAINS, check_domains
from .errors import DataError, DiverspecError, NumericalError, UsageError
from .graph import build_graph, edge_homophily, normalized_operators
from .model import DsfConfig, direct_table
from .polynomials import Bernstein, Jacobi, Monomial, filter_response, rescale_coefficients
from .spectral import HISTOGRAM_BANDS, band_eigen_index, eigendecompose, local_histograms
from .training import make_splits, run_grid

_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures routed to exit code 1.

    A separate argument that reads as a negative float (``-1e-3``, ``-inf``)
    is a value, not an option, so ``--jacobi-a -1e-3`` parses; argparse's own
    matcher takes only ``-1`` and ``-.5`` forms. Subparsers are built from
    this class, so they inherit the matcher.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _write_text(path: Path, chunks: Iterable[str]) -> None:
    """Atomic write of text chunks: temp file in the target directory, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() would give; mkstemp's is 0o600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    # Streamed, never one big string; NaN and infinity are not JSON, so they raise.
    chunks = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(obj)
    _write_text(path, itertools.chain(chunks, ["\n"]))


def _checkpoint_chunks(config_hash: str, params: dict[str, np.ndarray]) -> Iterator[str]:
    """The JSON checkpoint as text chunks, one line per tensor, in name order.

    Each tensor is ``{"data": ..., "dtype": "<f8", "shape": [...]}``, with ``data``
    the base64 of its row-major little-endian float64 bytes, so every value is
    exact. NaN and infinity raise ``ValueError``, as in every JSON output.
    """
    encode = json.JSONEncoder().encode
    yield '{\n  "config_hash": ' + encode(config_hash) + ',\n  "params": {'
    for i, name in enumerate(sorted(params)):
        arr = np.asarray(params[name], dtype="<f8", order="C")
        if not np.isfinite(arr).all():
            raise ValueError(f"parameter {name!r} holds a non-finite value")
        yield ("," if i else "") + "\n    " + encode(name) + ': {"data": "'
        yield base64.b64encode(arr.data).decode("ascii")
        yield '", "dtype": "<f8", "shape": ' + encode(list(arr.shape)) + "}"
    yield "\n  }\n}\n"


def _csv_lines(header: str, rows) -> Iterator[str]:
    yield header + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_diagnose(args: argparse.Namespace) -> int:
    out = Path(args.out)
    bands = [b.strip() for b in args.bands.split(",") if b.strip()]
    for i, band in enumerate(bands):
        if band not in HISTOGRAM_BANDS:
            raise UsageError(f"unknown band {band!r}; choose from {','.join(HISTOGRAM_BANDS)}")
        if band in bands[:i]:
            raise UsageError(f"band {band!r} is given twice")
    meta, edges = read_structure(args.data)
    n = meta.num_nodes
    # No feature is read here. The node table gets load_dataset's full
    # check in the child that eigendecompose forks for the end eigenpairs
    # while this process finds the interior ones, or here before them; only
    # its labels come back. Its error wins over any below, as if it were
    # checked first.
    structure = build_graph(edges, n, np.empty((n, 0)), np.zeros(n, np.int64), meta.num_classes)
    check_nodes = functools.partial(read_labels, args.data, meta)
    if structure.num_edges:
        decomposition, labels = eigendecompose(
            normalized_operators(structure)[1],
            dense_limit=args.dense_limit,
            indices=[band_eigen_index(n, band) for band in bands],
            alongside=check_nodes,
        )
    else:  # edge_homophily rejects the graph once the labels are in
        decomposition, labels = None, check_nodes()
    graph = build_graph(structure.edges, n, structure.features, labels, meta.num_classes)
    # Everything that can reject the input runs before the first write.
    ratio = edge_homophily(graph)
    ids, values, histograms = local_histograms(graph, args.k_hops, decomposition, bands)
    _write_text(
        out / "homophily.csv",
        _csv_lines("node_id,value", zip(ids, (_fmt(v) for v in values))),
    )
    for band in bands:
        hist = histograms[band]
        _write_text(
            out / f"frequency_{band}.csv",
            _csv_lines("node_id,value", zip(hist.node_ids, (_fmt(v) for v in hist.values))),
        )
        _write_json(
            out / f"frequency_{band}.json",
            {
                "eigen_index": hist.eigen_index,
                "lambda_global": hist.lambda_global,
                "k": hist.k,
            },
        )

    settings = {"k_hops": args.k_hops, "bands": bands, "dense_limit": args.dense_limit}
    _write_json(
        out / "summary.json",
        {
            "dataset": str(args.data),
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "num_classes": graph.num_classes,
            "edge_homophily": ratio,
            "settings": settings,
        },
    )
    print(f"diagnose: wrote homophily + {len(bands)} frequency histograms to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    model_cfg, train_cfg = load_config(args.config)
    if args.no_ipe:
        model_cfg = dataclasses.replace(model_cfg, ablate_ipe=True)
    # The ablation is read from the resolved config: a config file may ask for it too.
    variant = "baseline" if args.baseline else "no-ipe" if model_cfg.ablate_ipe else "dsf"
    direct_table(model_cfg, args.baseline)  # a conflicting variant is rejected before any input
    graph = load_dataset(args.data)

    splits = make_splits(graph, args.split_mode, args.splits, args.seed)
    grid = run_grid(
        graph,
        model_cfg,
        train_cfg,
        runs=args.runs,
        splits=splits,
        base_seed=args.seed,
        homogeneous=(variant == "baseline"),
    )

    digest = config_hash(model_cfg, train_cfg, variant)
    out = Path(args.out)
    _write_json(
        out / f"metrics-{variant}.json",
        {
            "dataset": str(args.data),
            "variant": variant,
            "backbone": model_cfg.backbone,
            "mode": model_cfg.mode,
            "runs": args.runs,
            "splits": args.splits,
            "split_mode": args.split_mode,
            "base_seed": args.seed,
            "mean_acc": grid.mean_acc,
            "ci95": grid.ci95,
            "per_run": grid.cells,
            "config": resolved_dict(model_cfg, train_cfg),
            "config_hash": digest,
        },
    )

    _write_text(
        out / f"checkpoint-{variant}.json", _checkpoint_chunks(digest, grid.last_run.params)
    )

    betas = grid.last_run.betas
    header = "node_id," + ",".join(f"beta_{k}" for k in range(betas.shape[1]))
    rows = ([i, *map(repr, betas[i].tolist())] for i in range(betas.shape[0]))
    _write_text(out / f"beta-{variant}.csv", _csv_lines(header, rows))

    print(
        f"train[{variant}]: mean test acc {grid.mean_acc:.4f} +/- {grid.ci95:.4f} "
        f"over {len(grid.cells)} cells -> {out}"
    )
    return 0


def _load_beta_csv(path: Path, width: int) -> np.ndarray:
    """The (N, width) weight table of ``train``: finite weights, node ids 0..N-1 in order."""
    if not path.is_file():
        raise DataError(f"missing weight table {path}")
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        if header[:1] != ["node_id"] or len(header) < 2:
            raise DataError(f"{path} line 1: expected header node_id,beta_0,...")
        if len(header) != width + 1:
            raise DataError(f"{path} has {len(header) - 1} weight columns, not K + 1 = {width}")
        rows = []
        for lineno, raw in enumerate(handle, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise DataError(f"{path} line {lineno}: expected {len(header)} fields")
            if parts[0] != str(len(rows)):
                raise DataError(f"{path} line {lineno}: node_id {parts[0]!r}, expected {len(rows)}")
            try:
                weights = [float(x) for x in parts[1:]]
            except ValueError:
                raise DataError(f"{path} line {lineno}: non-numeric weight") from None
            if not all(map(math.isfinite, weights)):
                raise DataError(f"{path} line {lineno}: non-finite weight")
            rows.append(weights)
    if not rows:
        raise DataError(f"{path} holds no weight rows")
    return np.asarray(rows)


def cmd_analyze(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    metrics_path = run_dir / f"metrics-{args.variant}.json"
    if not metrics_path.is_file():
        raise DataError(f"missing metrics file {metrics_path}")
    try:
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{metrics_path}: invalid JSON ({exc})") from exc
    try:
        if not isinstance(metrics["config"], dict):
            raise TypeError("not a JSON object")
        model_cfg = DsfConfig(
            **{k: v for k, v in metrics["config"].items() if k in DsfConfig.__dataclass_fields__}
        )
    except (KeyError, TypeError, UsageError) as exc:  # UsageError: a value out of its domain
        raise DataError(f"{metrics_path}: unusable embedded config ({exc})") from exc

    weights = _load_beta_csv(run_dir / f"beta-{args.variant}.csv", model_cfg.K + 1)
    clustering = cluster_weights(weights, k=args.clusters, seed=args.seed)
    grid = np.linspace(0.0, 2.0, args.grid_size)
    curves = centroid_curves(clustering.centroids, model_cfg.basis(), grid)

    out = Path(args.out) if args.out else run_dir
    _write_text(
        out / "clusters.csv",
        _csv_lines("node_id,cluster", enumerate(clustering.labels)),
    )
    rows = (
        [j, _fmt(lam), _fmt(g)]
        for j in range(curves.shape[0])
        for lam, g in zip(grid, curves[j])
    )
    _write_text(out / "centroid_curves.csv", _csv_lines("cluster,lambda,g", rows))
    _write_json(
        out / "analysis.json",
        {
            "variant": args.variant,
            "clusters": args.clusters,
            "grid_size": args.grid_size,
            "seed": args.seed,
            "inertia": clustering.inertia,
            "iterations": clustering.iterations,
            "cluster_sizes": np.bincount(clustering.labels, minlength=args.clusters).tolist(),
            "config_hash": metrics.get("config_hash"),
        },
    )
    print(
        f"analyze: {args.clusters} clusters (inertia {clustering.inertia:.6g}, "
        f"{clustering.iterations} iterations) -> {out}"
    )
    return 0


_PROP1_BASES = DOMAINS["basis"][:-1]  # without "all"


def cmd_prop1_check(args: argparse.Namespace) -> int:
    bases = _PROP1_BASES if args.basis == "all" else (args.basis,)
    order = args.order
    kinds = {  # built before the first line, so a bad parameter prints no PASS
        "monomial": Monomial(),
        "bernstein": Bernstein(order),
        "jacobi": Jacobi(args.jacobi_a, args.jacobi_b),
    }
    failures = 0
    for name in bases:
        kind = kinds[name]
        rng = make_rng(args.seed, order, _PROP1_BASES.index(name))
        grid = np.linspace(0.0, 2.0, 64)
        worst = 0.0
        for _ in range(args.trials):
            coefficients = rng.normal(size=order + 1)
            ratio = rng.uniform(0.0, 1.0)
            rescaled = rescale_coefficients(coefficients, ratio, kind)
            direct = filter_response(coefficients, kind, ratio * grid)
            via_rescale = filter_response(rescaled, kind, grid)
            worst = max(worst, float(np.abs(direct - via_rescale).max()))
        status = "PASS" if worst < args.tolerance else "FAIL"
        if status == "FAIL":
            failures += 1
        print(
            f"prop1-check {name} (order {order}, {args.trials} trials): "
            f"max identity error {worst:.3e} < {args.tolerance:.1e}: {status}"
        )
    if failures:
        raise NumericalError(f"{failures} basis/bases violated the rescaling identity")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diverspec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagnose", help="homophily and local-frequency histograms")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k-hops", type=int, default=2, dest="k_hops")
    p.add_argument("--bands", default="low,mid,high", help="comma list of low,mid,high")
    p.add_argument("--dense-limit", type=int, default=20000, dest="dense_limit")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("train", help="train the runs x splits grid")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--splits", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-mode", choices=DOMAINS["split_mode"], default="dense", dest="split_mode")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--baseline", action="store_true",
                       help="train the shared-coefficient backbone: one trained "
                            "coefficient row, no positions and no gates")
    group.add_argument("--no-ipe", action="store_true", dest="no_ipe",
                       help="ablation: train free per-node weights instead of refined positions")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="cluster learned weights, export centroid curves")
    p.add_argument("--run-dir", required=True, dest="run_dir", help="directory written by train")
    p.add_argument("--variant", choices=DOMAINS["variant"], default="dsf")
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--grid-size", type=int, default=101, dest="grid_size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output directory (defaults to run dir)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("prop1-check", help="verify the coefficient-rescaling identity")
    p.add_argument("--basis", choices=DOMAINS["basis"], default="all")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--jacobi-a", type=float, default=1.0, dest="jacobi_a")
    p.add_argument("--jacobi-b", type=float, default=1.0, dest="jacobi_b")
    p.set_defaults(func=cmd_prop1_check)

    return parser


def _check_out_dir(out: str) -> None:
    """Reject an ``--out`` that cannot become a directory, before any work is done.

    The path itself, or else its nearest existing ancestor, must be a
    directory; a broken symlink counts as existing.
    """
    path = Path(out)
    for candidate in (path, *path.parents):
        if os.path.lexists(candidate):
            if not os.path.isdir(candidate):
                raise UsageError(f"--out {out}: {candidate} exists and is not a directory")
            return


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        check_domains({k: v for k, v in vars(args).items() if v is not None}, flags=True)
        if getattr(args, "out", None) is not None:
            _check_out_dir(args.out)
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DiverspecError as exc:  # usage and config errors included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
