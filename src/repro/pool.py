"""Order-preserving worker pool shared by the campaign runners.

The fault-injection campaign, the corpus matrix and the parallel
verification harness all fan tasks out through :func:`parallel_map`;
interrupts surface as :class:`PoolInterrupted` carrying the results
finished so far.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Sequence

from .obs.trace import TracedTask, absorb_events, current_context

__all__ = ["PoolInterrupted", "parallel_map"]


class PoolInterrupted(KeyboardInterrupt):
    """A cancelled parallel run, carrying the results finished so far.

    Raised by :func:`parallel_map` when the run is interrupted
    (Ctrl-C, cancellation): the pool has already been torn down --
    terminated *and* joined, no orphaned workers -- and ``partial``
    holds the completed leading results in task order, so callers can
    surface a partial report instead of losing the whole run.
    """

    def __init__(self, partial: Sequence) -> None:
        super().__init__()
        self.partial = list(partial)


def parallel_map(fn, tasks: Sequence, jobs: int,
                 initializer=None, initargs=()) -> List:
    """``map(fn, tasks)`` over a worker pool, order-preserving.

    With ``jobs <= 1`` (or a single task) everything runs in-process.
    Fork is preferred -- workers inherit built state for free -- with
    spawn as the fallback; *initializer* must rebuild any needed state
    deterministically, which keeps both start methods equivalent.

    Teardown is explicit on every exit path: a task failure or an
    interrupt terminates the pool and *joins* it before re-raising, so
    no worker process outlives the call; an interrupt re-raises as
    :class:`PoolInterrupted` with the results completed so far.

    When tracing is enabled the task function is transparently wrapped
    so workers adopt the parent's trace context and ship their new
    spans back with each result; the parent absorbs them as results
    stream in, so partial (interrupted) runs keep their spans too.
    """
    if jobs <= 1 or len(tasks) <= 1:
        if initializer is not None:
            initializer(*initargs)
        results = []
        try:
            for task in tasks:
                results.append(fn(task))
        except KeyboardInterrupt:
            raise PoolInterrupted(results) from None
        return results
    trace_ctx = current_context()
    task_fn = fn if trace_ctx is None else TracedTask(fn, trace_ctx)
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    pool = ctx.Pool(min(jobs, len(tasks)), initializer, initargs)
    results = []
    try:
        for result in pool.imap(task_fn, tasks):
            if trace_ctx is not None:
                result, events = result
                absorb_events(events)
            results.append(result)
        pool.close()
        pool.join()
        return results
    except KeyboardInterrupt:
        pool.terminate()
        pool.join()
        raise PoolInterrupted(results) from None
    except BaseException:
        pool.terminate()
        pool.join()
        raise
