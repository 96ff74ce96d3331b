"""The fork rule of ``parallel.beside``, and its place as the one module that forks."""

from __future__ import annotations

import ast
import multiprocessing
import os
import time
from pathlib import Path

import pytest

import diverspec
from diverspec.parallel import beside
from tests.conftest import counting_forks, set_usable_cpus


@pytest.mark.parametrize(
    "processes, cpus, children", [(0, 4, 0), (1, 4, 0), (2, 1, 0), (2, 4, 1), (3, 2, 1), (4, 3, 2)]
)
def test_beside_forks_one_less_than_the_processes_it_may_run(monkeypatch, processes, cpus, children):
    forks = counting_forks(monkeypatch)
    set_usable_cpus(monkeypatch, cpus)
    sent = ["job"] * max(children, 1)  # with no child, job runs once in this process
    assert beside(lambda: "here", lambda: "job", processes) == ("here", sent)
    assert len(forks) == children
    assert not multiprocessing.active_children()


def test_beside_terminates_a_running_sibling_when_a_child_fails(monkeypatch):
    # The first child fails at once; the second would run for 30 s.
    forks = counting_forks(monkeypatch)  # a child's copy lists the children forked before it
    set_usable_cpus(monkeypatch, 3)

    def job():
        if not forks:
            raise ValueError("first child")
        time.sleep(30)

    start = time.monotonic()
    with pytest.raises(ValueError, match="^first child$"):
        beside(lambda: None, job, 3)
    assert time.monotonic() - start < 10
    assert len(forks) == 2
    assert not multiprocessing.active_children()


def test_parallel_is_the_only_module_that_forks_or_reads_the_affinity_set():
    # Every CPU and fork decision goes through diverspec.parallel.
    owners = set()
    for path in sorted(Path(diverspec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if any(n.split(".")[0] == "multiprocessing" or n == "sched_getaffinity" for n in names):
                owners.add(path.name)
    assert owners == {"parallel.py"}
