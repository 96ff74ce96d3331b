"""One benchmark run: prepare inputs, time set-up and commands, check outputs.

A run is one process. Its inputs are written by a short-lived child
process, so that the generator's memory never shows in this process's peak
RSS. The run then

1. calls ``diverspec.cli.main`` in-process, one command after another, until
   ``seconds`` have passed and at least ``MIN_COMMANDS`` ran,
2. before each command, times set-up (parse dataset and config, build
   splits) repeatedly for ``SETUP_SECONDS``, and at least once,
3. checks every command's outputs (untimed) and counts failures.

With ``trace`` on, commands alternate traced and untraced, starting traced;
the per-layer metrics come from the traced ones and ``trace.overhead_s``
from the difference of the two medians.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from diverspec import cli, load_dataset
from diverspec.config import load_config
from diverspec.training import make_splits

import tracer as tr
from checks import check_outputs, reference
from generate import STREAMS, WORKLOADS, Workload, config_text, make_rng, prepare

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_COMMANDS = 3
SETUP_SECONDS = 0.5
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Command:
    wall: float
    problems: list[str]
    traced: bool = False
    spans: list = field(default_factory=list)
    missing: set = field(default_factory=set)


def prepare_inputs(workload: Workload, seed: int, directory: Path) -> None:
    """Child-process body: write dataset, config and ``reference.json``."""
    graph, _, config = prepare(workload, seed, directory, ROOT)
    rng = make_rng(seed, STREAMS["check-sample"])
    ref = reference(workload, graph, config, rng)
    (directory / "reference.json").write_text(json.dumps(ref), encoding="utf-8")


def spawn_prepare(workload: Workload, seed: int, directory: Path, entry: Path) -> None:
    subprocess.run(
        [sys.executable, str(entry), "--prepare", str(directory),
         "--workload", workload.name, "--seed", str(seed)],
        check=True,
        stdout=sys.stderr,
        timeout=170,
    )


def measure_setup(workload: Workload, data: Path, config: Path | None, seed: int) -> float:
    """Seconds to parse the dataset (and config) and build the splits."""
    start = time.perf_counter()
    graph = load_dataset(data)
    if workload.command == "train":
        load_config(config)
        make_splits(graph, "dense", workload.splits, seed)
    return time.perf_counter() - start


def run_command(argv: list[str], out: Path, ref: dict, traced: bool = False) -> Command:
    """Time one ``cli.main`` call, then check and delete its outputs."""
    gc.collect()
    tracer = tr.Tracer() if traced else None
    problems: list[str] = []
    with contextlib.redirect_stdout(sys.stderr), contextlib.ExitStack() as stack:
        missing = stack.enter_context(tr.installed(tracer)) if traced else set()
        root = tracer.open(tr.ROOT_SPAN) if traced else None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - start
        if traced:
            tracer.close(root)
    if code != 0:
        problems.append(f"exit code {code}")
    else:
        try:
            problems += check_outputs(out, ref)
        except Exception as exc:  # unreadable output is a failed check
            problems.append(f"output check raised {type(exc).__name__}: {exc}")
    shutil.rmtree(out, ignore_errors=True)
    for problem in problems:
        print(f"command failed: {problem}", file=sys.stderr)
    return Command(wall, problems, traced, tracer.spans if traced else [], missing)


def fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas_name,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _median(values) -> float:
    return float(np.median(values))


def run(name: str, seed: int, seconds: float, trace: bool, entry: Path) -> dict:
    """One full run; returns the result object the last output line holds."""
    workload = WORKLOADS[name]
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=WORK))
    try:
        spawn_prepare(workload, seed, run_dir, entry)
        ref = json.loads((run_dir / "reference.json").read_text(encoding="utf-8"))
        data = run_dir / "data"
        config = run_dir / "workload.conf" if workload.command == "train" else None

        setup: list[float] = []
        commands: list[Command] = []
        start = time.perf_counter()
        while len(commands) < MIN_COMMANDS or time.perf_counter() - start < seconds:
            # Set-up samples are spread over the run, like the commands, so
            # a slow stretch of the machine weighs on both alike.
            begin = time.perf_counter()
            setup.append(measure_setup(workload, data, config, seed))
            while time.perf_counter() - begin < SETUP_SECONDS:
                setup.append(measure_setup(workload, data, config, seed))
            out = run_dir / f"out{len(commands)}"
            traced = trace and len(commands) % 2 == 0
            commands.append(run_command(workload.argv(data, config, out, seed), out, ref, traced))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for c in commands if c.problems)
    plain = [c.wall for c in commands if not c.traced]
    problems: list[str] = []
    if trace:
        traced = [c for c in commands if c.traced]
        metrics, problems, samples = tr.summarize(
            [tr.command_metrics(c.spans, c.missing) for c in traced]
        )
        metrics["trace.overhead_s"] = _median([c.wall for c in traced]) - _median(plain)
        units = tr.UNITS
        missing = sorted(set().union(*(c.missing for c in traced)))
    else:
        metrics = {"wall_s": _median(plain), "setup_s": _median(setup), "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
        missing = []
        samples = {}

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": fingerprint(),
        "inputs": {k: ref[k] for k in ("num_nodes", "num_edges", "num_classes")},
        "argv": workload.argv(Path("DATA"), Path("CONFIG") if config else None, Path("OUT"), seed),
        "config": config_text(workload, ROOT),
        "setup_samples_s": setup,
        "command_walls_s": [c.wall for c in commands],
        "command_traced": [c.traced for c in commands],
        "problems": problems + [p for c in commands for p in c.problems],
        "missing_patch_points": missing,
        "distribution_samples": samples,
        "metrics": metrics,
    }
    _save(record, commands)
    _print_summary(record, units, failed, len(commands))
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }


def _save(record: dict, commands: list[Command]) -> None:
    """Keep the full record, and the spans of traced commands, for later BENCH files."""
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    traced = [c for c in commands if c.traced]
    if traced:
        spans = [[[s.name, s.start, s.end, s.parent] for s in c.spans] for c in traced]
        (results / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")


def _print_summary(record: dict, units: dict, failed: int, attempted: int) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} trace={int(record['trace'])}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("inputs " + json.dumps(record["inputs"], sort_keys=True))
    for name, value in sorted(record["metrics"].items()):
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    print(f"  {'failed_frac':36s} {failed / attempted:14.6f} fraction ({failed}/{attempted} commands)")
    for name, count in sorted(record["distribution_samples"].items()):
        print(f"  {name} percentiles pool {count} samples")
    for name in record["missing_patch_points"]:
        print(f"  patch point {name} is missing; its metrics are absent")
