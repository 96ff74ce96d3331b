"""Every CPU and fork decision: how many processes run a stage, and where they fork.

:func:`usable_cpus` counts the CPUs; :func:`beside` is the one place that
forks, and applies the fork rule; :func:`share` spreads indexed tasks over
the processes :func:`beside` runs (the training grid's cells, the reach
sweep's blocks). No count changes any result.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections.abc import Callable


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, else the CPU count.

    It bounds the processes :func:`beside` runs and sizes the RWPE sweep's
    thread pool (:func:`~diverspec.model.init_positional`).
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def beside(here: Callable[[], object], job: Callable[[], object], processes: int) -> tuple:
    """``(here(), [job(), ...])``: ``here`` runs while forked children run ``job``.

    Up to ``processes`` processes run: this one and
    ``min(processes, usable_cpus()) - 1`` forked children. Nothing is forked
    where that is unsafe: without the ``fork`` start method, in a daemonic
    process (a pool worker may not have children), or beside another thread
    (a fork copies only the calling thread, so a lock another thread holds
    would stay locked in the child). With no child, ``job`` runs once in this
    process first, and its error is raised before ``here`` starts.

    Each child sends back only ``job``'s result or its exception, and the
    results come in fork order. A child's exception, the first in fork order,
    is raised in place of any error of ``here``, and a child that exits
    before sending raises ``RuntimeError`` with its exit code. Every child
    has exited on return and raise; one still running when this process
    raises is terminated.
    """
    forking = processes > 1 and (
        "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
    )
    children = min(processes, usable_cpus()) - 1 if forking else 0
    if not children:
        sent = [job()]
        return here(), sent

    def send(sender) -> None:  # a child's whole life
        try:
            outcome = job(), None
        except Exception as exc:
            outcome = None, exc
        sender.send(outcome)

    context = multiprocessing.get_context("fork")
    receivers, workers = [], []
    try:
        for _ in range(children):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=send, args=(sender,), daemon=True)
            process.start()
            sender.close()  # the child holds the only write end: its exit ends recv
            receivers.append(receiver)
            workers.append(process)
        try:
            done, failure = here(), None
        except Exception as exc:
            done, failure = None, exc
        results = []
        for receiver, process in zip(receivers, workers):
            try:
                result, error = receiver.recv()
            except EOFError:
                process.join()
                raise RuntimeError(
                    f"a forked child exited with code {process.exitcode} before sending its result"
                ) from None
            if error is not None:
                raise error
            results.append(result)
            process.join()
    finally:
        for process in workers:
            if process.is_alive():  # only when this process is raising
                process.terminate()
            process.join()
            process.close()
        for receiver in receivers:
            receiver.close()
    if failure is not None:
        raise failure
    return done, results


def share(task: Callable[[int], object], count: int) -> list:
    """``[task(0), ..., task(count - 1)]``, run by up to ``count`` processes (:func:`beside`).

    Every process, this one and the workers :func:`beside` forks, claims the
    lowest unclaimed index from a shared counter until none is left; a worker
    inherits what this process holds and sends back only its results. The
    results do not depend on the number of processes. A failure empties the
    counter, so every index below the first failing one has run when that
    index's error is raised. In one process the tasks run in index order up
    to the first failure. A worker that dies raises ``RuntimeError``; if this
    process is killed outright, each worker stops after its current task.
    """
    # Memory and a lock that forked workers share. A fork context's semaphore
    # is unlinked at once, so no resource tracker starts, whatever the default
    # start method.
    fork = "fork" in multiprocessing.get_all_start_methods()
    next_index = (multiprocessing.get_context("fork") if fork else multiprocessing).Value("i", 0)
    lock = next_index.get_lock()
    caller = os.getpid()

    def claim() -> int | None:
        if os.getpid() != caller and os.getppid() != caller:
            return None  # the caller was killed: its orphaned workers stop
        with lock:
            index = next_index.value
            next_index.value += 1
        return index if index < count else None

    def run_claimed() -> dict:
        outcomes = {}
        for index in iter(claim, None):
            try:
                outcomes[index] = task(index), None
            except Exception as exc:
                outcomes[index] = None, exc
                with lock:
                    next_index.value = count
        return outcomes

    outcomes, sent = beside(run_claimed, run_claimed, count)
    for worker_outcomes in sent:
        outcomes.update(worker_outcomes)
    results = []
    for index in range(count):
        result, error = outcomes[index]
        if error is not None:
            raise error
        results.append(result)
    return results
